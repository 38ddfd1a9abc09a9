(* Canonical, length-limited Huffman codes.

   [lengths] computes code lengths from symbol frequencies (heap-built
   Huffman tree, with iterative frequency flattening if the depth limit
   is exceeded); [canonical] assigns the canonical codes.  The encoder
   keeps each code bit-reversed, so one LSB-first [Bitio.put_bits] writes
   it MSB-first.  The decoder is a zlib-style lookup table indexed by the
   next [bits] stream bits, [bits] being the longest code length: every
   slot whose low bits hold a code names that code's symbol and length,
   so a symbol costs one [peek], one load and one [consume]. *)

let max_code_len = 15

(* A tiny binary min-heap over (weight, node index). *)
module Heap = struct
  type t = { mutable a : (int * int) array; mutable n : int }

  let create cap = { a = Array.make (max cap 1) (0, 0); n = 0 }

  let swap h i j =
    let t = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- t

  let push h x =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) (0, 0) in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    h.a.(h.n) <- x;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && fst h.a.((!i - 1) / 2) > fst h.a.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.n && fst h.a.(l) < fst h.a.(!smallest) then smallest := l;
      if r < h.n && fst h.a.(r) < fst h.a.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    top

  let size h = h.n
end

(* Code lengths for [freqs]; symbols with zero frequency get length 0. *)
let rec lengths freqs =
  let n = Array.length freqs in
  let present = ref [] in
  Array.iteri (fun i f -> if f > 0 then present := i :: !present) freqs;
  match !present with
  | [] -> Array.make n 0
  | [ only ] ->
    let out = Array.make n 0 in
    out.(only) <- 1;
    out
  | symbols ->
    let nsym = List.length symbols in
    (* internal tree: nodes 0..nsym-1 are leaves (mapped to symbols),
       further nodes are internal; parent links give depths. *)
    let parent = Array.make ((2 * nsym) - 1) (-1) in
    let heap = Heap.create nsym in
    let sym_of_leaf = Array.of_list (List.rev symbols) in
    Array.iteri (fun leaf s -> Heap.push heap (freqs.(s), leaf)) sym_of_leaf;
    let next = ref nsym in
    while Heap.size heap > 1 do
      let w1, n1 = Heap.pop heap in
      let w2, n2 = Heap.pop heap in
      parent.(n1) <- !next;
      parent.(n2) <- !next;
      Heap.push heap (w1 + w2, !next);
      incr next
    done;
    let depth_of leaf =
      let rec up node d = if parent.(node) = -1 then d else up parent.(node) (d + 1) in
      up leaf 0
    in
    let out = Array.make n 0 in
    let too_deep = ref false in
    Array.iteri
      (fun leaf s ->
        let d = depth_of leaf in
        if d > max_code_len then too_deep := true;
        out.(s) <- d)
      sym_of_leaf;
    if !too_deep then
      (* Flatten the distribution and retry; converges quickly. *)
      lengths (Array.map (fun f -> if f > 0 then 1 + (f / 2) else 0) freqs)
    else out

(* Canonical code assignment: shorter codes first, ties by symbol. *)
let canonical lens =
  let n = Array.length lens in
  let count = Array.make (max_code_len + 1) 0 in
  Array.iter (fun l -> if l > 0 then count.(l) <- count.(l) + 1) lens;
  let next = Array.make (max_code_len + 2) 0 in
  let code = ref 0 in
  for l = 1 to max_code_len do
    code := (!code + count.(l - 1)) lsl 1;
    next.(l) <- !code
  done;
  let codes = Array.make n 0 in
  for s = 0 to n - 1 do
    let l = lens.(s) in
    if l > 0 then begin
      codes.(s) <- next.(l);
      next.(l) <- next.(l) + 1
    end
  done;
  codes

let reverse code len =
  let r = ref 0 in
  for i = 0 to len - 1 do
    r := (!r lsl 1) lor ((code lsr i) land 1)
  done;
  !r

type encoder = { lens : int array; codes : int array }

let encoder freqs =
  let lens = lengths freqs in
  { lens; codes = Array.mapi (fun s c -> reverse c lens.(s)) (canonical lens) }

let write_symbol w enc s = Bitio.put_bits w enc.codes.(s) enc.lens.(s)

(* [table.(i)] is [(symbol lsl 4) lor length] for the code that the low
   bits of [i] start with, or 0 where no code does (an incomplete or
   empty code). *)
type decoder = { table : int array; bits : int }

exception Bad_code

let decoder lens =
  let codes = canonical lens in
  let bits = Array.fold_left max 0 lens in
  let table = Array.make (1 lsl bits) 0 in
  Array.iteri
    (fun s l ->
      if l > 0 then begin
        (* Canonical codes outgrow their length only when the lengths
           oversubscribe the code space. *)
        if codes.(s) lsr l <> 0 then raise Bad_code;
        let entry = (s lsl 4) lor l in
        let i = ref (reverse codes.(s) l) in
        while !i < Array.length table do
          table.(!i) <- entry;
          i := !i + (1 lsl l)
        done
      end)
    lens;
  { table; bits }

(* [peek] returns [bits] bits, so the index is in the table. *)
let read_symbol r dec =
  let entry = Array.unsafe_get dec.table (Bitio.peek r dec.bits) in
  if entry = 0 then raise Bad_code;
  Bitio.consume r (entry land 15);
  entry lsr 4
