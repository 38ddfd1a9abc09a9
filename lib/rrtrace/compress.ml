(* A DEFLATE-style compressor: LZ77 with hash-chain matching over a 32 KiB
   window, followed by canonical Huffman coding of a literal/length
   alphabet and a distance alphabet with extra bits — the same structure
   as zlib's "deflate", which rr uses for all general trace data (paper
   §2.7).  The bitstream is our own (single block, code lengths stored
   verbatim), so it is not zlib-compatible, but the algorithmic costs and
   achieved ratios are comparable for trace-like data.

   Inflate decodes through [Huffman]'s lookup tables into one buffer
   sized from the header, once that size has passed a bound: at most 258
   bytes per 2 bits of body.  Output is byte-identical to the plain coder
   in test/compress_ref.ml, which the tests hold it to. *)

let window_size = 32768
let min_match = 4
let max_match = 258
let hash_bits = 15
let hash_size = 1 lsl hash_bits
let max_chain = 64

(* Symbol alphabet: 0..255 literals, 256 end-of-block, 257.. length codes. *)
let eob = 256

(* Length codes: (base, extra_bits), deflate's table. *)
let len_table =
  [| (3, 0); (4, 0); (5, 0); (6, 0); (7, 0); (8, 0); (9, 0); (10, 0);
     (11, 1); (13, 1); (15, 1); (17, 1); (19, 2); (23, 2); (27, 2); (31, 2);
     (35, 3); (43, 3); (51, 3); (59, 3); (67, 4); (83, 4); (99, 4); (115, 4);
     (131, 5); (163, 5); (195, 5); (227, 5); (258, 0) |]

let dist_table =
  [| (1, 0); (2, 0); (3, 0); (4, 0); (5, 1); (7, 1); (9, 2); (13, 2);
     (17, 3); (25, 3); (33, 4); (49, 4); (65, 5); (97, 5); (129, 6); (193, 6);
     (257, 7); (385, 7); (513, 8); (769, 8); (1025, 9); (1537, 9);
     (2049, 10); (3073, 10); (4097, 11); (6145, 11); (8193, 12); (12289, 12);
     (16385, 13); (24577, 13) |]

let num_lit_syms = 257 + Array.length len_table
let num_dist_syms = Array.length dist_table

(* [len_code.(len)] is the length code of a match length (3..258).
   [dist_code] is zlib's 512-entry map: distance [d + 1] has code
   [dist_code.(d)] for [d < 256], else [dist_code.(256 + (d lsr 7))] —
   every base above 256 is 1 more than a multiple of 128. *)
let len_code =
  let t = Array.make (max_match + 1) 0 in
  Array.iteri (fun c (base, _) -> Array.fill t base (max_match + 1 - base) c)
    len_table;
  t

let dist_code =
  let t = Array.make 512 0 in
  let c = ref 0 in
  for d = 0 to window_size - 1 do
    if !c + 1 < num_dist_syms && fst dist_table.(!c + 1) = d + 1 then incr c;
    if d < 256 then t.(d) <- !c else t.(256 + (d lsr 7)) <- !c
  done;
  t

let code_of_dist dist =
  let d = dist - 1 in
  if d < 256 then dist_code.(d) else dist_code.(256 + (d lsr 7))

(* The four reads are written out: a local reader would be a closure,
   allocated at every position the parse hashes. *)
let hash4 s i =
  (Char.code (String.unsafe_get s i)
  + (Char.code (String.unsafe_get s (i + 1)) lsl 5)
  + (Char.code (String.unsafe_get s (i + 2)) lsl 10)
  + (Char.code (String.unsafe_get s (i + 3)) lsl 15))
  land (hash_size - 1)

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* Length of the common prefix of [src] at [a] and at [b], capped at
   [lim]; the caller guarantees [a < b] and [b + lim <= length src], so
   the loads go unchecked, eight bytes at a time while eight remain. *)
let match_len src a b lim =
  let l = ref 0 in
  while !l + 8 <= lim && get64u src (a + !l) = get64u src (b + !l) do
    l := !l + 8
  done;
  while
    !l < lim && String.unsafe_get src (a + !l) = String.unsafe_get src (b + !l)
  do
    incr l
  done;
  !l

(* Greedy LZ77 parse with hash chains into [toks], one int per token: a
   literal is its byte, a match [(len lsl 16) lor dist] (len >= 4, so
   above 255).  Returns the token count.  A later chain candidate wins
   only with a strictly longer match, so a candidate whose byte at
   [best_len] differs is skipped, and the walk stops once a match
   reaches [lim]: neither changes the parse. *)
let tokenize src toks =
  let n = String.length src in
  let head = Array.make hash_size (-1) in
  let prev = Array.make (max n 1) (-1) in
  let ntok = ref 0 in
  let emit t =
    toks.(!ntok) <- t;
    incr ntok
  in
  let insert pos =
    if pos + min_match <= n then begin
      let h = hash4 src pos in
      prev.(pos) <- head.(h);
      head.(h) <- pos
    end
  in
  let i = ref 0 in
  while !i < n do
    let pos = !i in
    if pos + min_match > n then begin
      emit (Char.code src.[pos]);
      incr i
    end
    else begin
      let lim = min max_match (n - pos) in
      let best_len = ref 0 and best_dist = ref 0 in
      let cand = ref head.(hash4 src pos) in
      let chain = ref 0 in
      while !cand >= 0 && !chain < max_chain && !best_len < lim do
        let c = !cand in
        if pos - c <= window_size then begin
          let b = !best_len in
          if String.unsafe_get src (c + b) = String.unsafe_get src (pos + b)
          then begin
            let l = match_len src c pos lim in
            if l > b then begin
              best_len := l;
              best_dist := pos - c
            end
          end;
          cand := prev.(c);
          incr chain
        end
        else cand := -1
      done;
      if !best_len >= min_match then begin
        emit ((!best_len lsl 16) lor !best_dist);
        for p = pos to pos + !best_len - 1 do insert p done;
        i := pos + !best_len
      end
      else begin
        emit (Char.code src.[pos]);
        insert pos;
        incr i
      end
    end
  done;
  !ntok

(* Entropy-coded body; [deflate] below falls back to a stored block when
   this doesn't pay (small inputs can't amortize the code-length tables,
   like deflate's stored-block case). *)
let deflate_huffman src =
  let toks = Array.make (max (String.length src) 1) 0 in
  let ntok = tokenize src toks in
  (* Frequency pass. *)
  let lit_freq = Array.make num_lit_syms 0 in
  let dist_freq = Array.make num_dist_syms 0 in
  let bump a i = a.(i) <- a.(i) + 1 in
  for k = 0 to ntok - 1 do
    let t = toks.(k) in
    if t < 256 then bump lit_freq t
    else begin
      bump lit_freq (257 + len_code.(t lsr 16));
      bump dist_freq (code_of_dist (t land 0xffff))
    end
  done;
  bump lit_freq eob;
  let lit_enc = Huffman.encoder lit_freq in
  let dist_enc = Huffman.encoder dist_freq in
  let w = Bitio.writer () in
  (* Header: original size, then the two code-length tables (4 bits...
     lengths go to 15, so 4 bits each). *)
  Bitio.put_bits w (String.length src land 0xffffff) 24;
  Bitio.put_bits w (String.length src lsr 24) 24;
  Array.iter (fun l -> Bitio.put_bits w l 4) lit_enc.Huffman.lens;
  Array.iter (fun l -> Bitio.put_bits w l 4) dist_enc.Huffman.lens;
  for k = 0 to ntok - 1 do
    let t = toks.(k) in
    if t < 256 then Huffman.write_symbol w lit_enc t
    else begin
      let len = t lsr 16 and dist = t land 0xffff in
      let lc = len_code.(len) in
      let base, extra = len_table.(lc) in
      Huffman.write_symbol w lit_enc (257 + lc);
      Bitio.put_bits w (len - base) extra;
      let dc = code_of_dist dist in
      let dbase, dextra = dist_table.(dc) in
      Huffman.write_symbol w dist_enc dc;
      Bitio.put_bits w (dist - dbase) dextra
    end
  done;
  Huffman.write_symbol w lit_enc eob;
  Bitio.finish w

let tm_deflate_in = Telemetry.counter "compress.deflate_bytes_in"
let tm_deflate_out = Telemetry.counter "compress.deflate_bytes_out"
let tm_inflate_out = Telemetry.counter "compress.inflate_bytes"

let deflate src =
  let packed = deflate_huffman src in
  let stored =
    if String.length packed + 1 <= String.length src then "\001" ^ packed
    else "\000" ^ src
  in
  Telemetry.add tm_deflate_in (String.length src);
  Telemetry.add tm_deflate_out (String.length stored);
  stored

exception Corrupt of string

(* The [len] stream bytes after the mode byte at [pos - 1].  The size
   bound holds because a match token takes at least two bits (one-bit
   length and distance codes) and yields at most 258 bytes. *)
let inflate_huffman data ~pos ~len =
  let r = Bitio.reader data ~pos ~len in
  try
    let lo = Bitio.get_bits r 24 in
    let hi = Bitio.get_bits r 24 in
    let size = lo lor (hi lsl 24) in
    if size > max_match * 4 * len then
      raise (Corrupt "declared size exceeds what the body can encode");
    let lit_lens = Array.init num_lit_syms (fun _ -> Bitio.get_bits r 4) in
    let dist_lens = Array.init num_dist_syms (fun _ -> Bitio.get_bits r 4) in
    let lit_dec = Huffman.decoder lit_lens in
    let dist_dec = Huffman.decoder dist_lens in
    let out = Bytes.create size (* chunk-lifecycle *) in
    (* [at] bytes are out; returns the count at end-of-block. *)
    let rec loop at =
      let s = Huffman.read_symbol r lit_dec in
      if s < 256 then begin
        if at = size then raise (Corrupt "size mismatch");
        Bytes.unsafe_set out at (Char.unsafe_chr s);
        loop (at + 1)
      end
      else if s = eob then at
      else begin
        let base, extra = len_table.(s - 257) in
        let len = base + Bitio.get_bits r extra in
        let dbase, dextra = dist_table.(Huffman.read_symbol r dist_dec) in
        let dist = dbase + Bitio.get_bits r dextra in
        if dist > at then raise (Corrupt "distance before start");
        if len > size - at then raise (Corrupt "size mismatch");
        if dist >= len then Bytes.blit out (at - dist) out at len
        else
          (* An overlapping copy repeats its own output: byte by byte. *)
          for k = at to at + len - 1 do
            Bytes.unsafe_set out k (Bytes.unsafe_get out (k - dist))
          done;
        loop (at + len)
      end
    in
    if loop 0 <> size then raise (Corrupt "size mismatch");
    Bytes.unsafe_to_string out
  with
  | Bitio.Truncated -> raise (Corrupt "truncated")
  | Huffman.Bad_code -> raise (Corrupt "bad code")

let inflate_sub data ~pos ~len =
  if len = 0 then raise (Corrupt "empty stream")
  else
    let out =
      match data.[pos] with
      | '\000' -> String.sub data (pos + 1) (len - 1)
      | '\001' -> inflate_huffman data ~pos:(pos + 1) ~len:(len - 1)
      | _ -> raise (Corrupt "bad mode byte")
    in
    Telemetry.add tm_inflate_out (String.length out);
    out

let inflate data = inflate_sub data ~pos:0 ~len:(String.length data)

let ratio ~original ~compressed =
  if compressed = 0 then 0. else float_of_int original /. float_of_int compressed
