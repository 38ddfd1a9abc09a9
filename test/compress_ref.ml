(* The reference coder that [Compress] is held to: the plain
   implementation the fast one replaced, kept so that tests can demand
   byte-identical output.  It parses into a boxed token list, finds
   length and distance codes by scanning the tables, writes each Huffman
   code one bit at a time, and decodes a symbol by walking a [Hashtbl]
   per code length one bit at a time.  Code lengths come from
   [Huffman.encoder], whose length computation the rewrite left alone. *)

let window_size = 32768
let min_match = 4
let max_match = 258
let hash_size = 1 lsl 15
let max_chain = 64
let eob = 256

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

let code_of_table table v =
  let n = Array.length table in
  let rec go i =
    if i + 1 >= n then i
    else
      let next_base, _ = table.(i + 1) in
      if v < next_base then i else go (i + 1)
  in
  go 0

type token = Lit of char | Match of int * int (* len, dist *)

let hash4 s i =
  let b k = Char.code s.[i + k] in
  (b 0 + (b 1 lsl 5) + (b 2 lsl 10) + (b 3 lsl 15)) land (hash_size - 1)

let tokenize src =
  let n = String.length src in
  let head = Array.make hash_size (-1) in
  let prev = Array.make (max n 1) (-1) in
  let tokens = ref [] in
  let i = ref 0 in
  let insert pos =
    if pos + min_match <= n then begin
      let h = hash4 src pos in
      prev.(pos) <- head.(h);
      head.(h) <- pos
    end
  in
  while !i < n do
    let pos = !i in
    if pos + min_match > n then begin
      tokens := Lit src.[pos] :: !tokens;
      incr i
    end
    else begin
      let best_len = ref 0 and best_dist = ref 0 in
      let cand = ref head.(hash4 src pos) in
      let chain = ref 0 in
      while !cand >= 0 && !chain < max_chain do
        let c = !cand in
        if pos - c <= window_size then begin
          let lim = min max_match (n - pos) in
          let l = ref 0 in
          while !l < lim && src.[c + !l] = src.[pos + !l] do incr l done;
          if !l > !best_len then begin
            best_len := !l;
            best_dist := pos - c
          end;
          cand := prev.(c);
          incr chain
        end
        else cand := -1
      done;
      if !best_len >= min_match then begin
        tokens := Match (!best_len, !best_dist) :: !tokens;
        for p = pos to pos + !best_len - 1 do insert p done;
        i := pos + !best_len
      end
      else begin
        tokens := Lit src.[pos] :: !tokens;
        insert pos;
        incr i
      end
    end
  done;
  List.rev !tokens

(* Canonical code assignment: shorter codes first, ties by symbol. *)
let canonical lens =
  let count = Array.make 16 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lens;
  let next = Array.make 17 0 in
  let code = ref 0 in
  for l = 1 to 15 do
    code := (!code + count.(l - 1)) lsl 1;
    next.(l) <- !code
  done;
  Array.map
    (fun l ->
      if l = 0 then 0
      else begin
        let c = next.(l) in
        next.(l) <- c + 1;
        c
      end)
    lens

(* MSB-first within the code, one bit per call. *)
let write_symbol w lens codes s =
  for i = lens.(s) - 1 downto 0 do
    Bitio.put_bits w ((codes.(s) lsr i) land 1) 1
  done

let deflate src =
  let tokens = tokenize src in
  let lit_freq = Array.make num_lit_syms 0 in
  let dist_freq = Array.make num_dist_syms 0 in
  let bump a i = a.(i) <- a.(i) + 1 in
  List.iter
    (function
      | Lit c -> bump lit_freq (Char.code c)
      | Match (len, dist) ->
        bump lit_freq (257 + code_of_table len_table len);
        bump dist_freq (code_of_table dist_table dist))
    tokens;
  bump lit_freq eob;
  let lit_lens = (Huffman.encoder lit_freq).Huffman.lens in
  let dist_lens = (Huffman.encoder dist_freq).Huffman.lens in
  let lit_codes = canonical lit_lens and dist_codes = canonical dist_lens in
  let w = Bitio.writer () in
  Bitio.put_bits w (String.length src land 0xffffff) 24;
  Bitio.put_bits w (String.length src lsr 24) 24;
  Array.iter (fun l -> Bitio.put_bits w l 4) lit_lens;
  Array.iter (fun l -> Bitio.put_bits w l 4) dist_lens;
  List.iter
    (function
      | Lit c -> write_symbol w lit_lens lit_codes (Char.code c)
      | Match (len, dist) ->
        let lc = code_of_table len_table len in
        let base, extra = len_table.(lc) in
        write_symbol w lit_lens lit_codes (257 + lc);
        if extra > 0 then Bitio.put_bits w (len - base) extra;
        let dc = code_of_table dist_table dist in
        let dbase, dextra = dist_table.(dc) in
        write_symbol w dist_lens dist_codes dc;
        if dextra > 0 then Bitio.put_bits w (dist - dbase) dextra)
    tokens;
  write_symbol w lit_lens lit_codes eob;
  let packed = Bitio.finish w in
  if String.length packed + 1 <= String.length src then "\001" ^ packed
  else "\000" ^ src

(* (code, length) -> symbol, one table per length; for valid streams
   only, like the rest of this module. *)
let decoder lens =
  let codes = canonical lens in
  let max_len = Array.fold_left max 0 lens in
  let by_len = Array.init (max_len + 1) (fun _ -> Hashtbl.create 16) in
  Array.iteri
    (fun s l -> if l > 0 then Hashtbl.replace by_len.(l) codes.(s) s)
    lens;
  by_len

let read_symbol r by_len =
  let rec go code len =
    let code = (code lsl 1) lor Bitio.get_bits r 1 in
    let len = len + 1 in
    match Hashtbl.find_opt by_len.(len) code with
    | Some s -> s
    | None -> go code len
  in
  go 0 0
