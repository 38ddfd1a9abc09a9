(* Byte-level serialization for trace frames: LEB128-style varints with a
   zigzag transform for possibly-negative values, length-prefixed strings
   and lists. *)

type sink = Buffer.t

let sink () = Buffer.create 4096

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))

let rec put_uvarint b v =
  if v land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr v)
  else begin
    Buffer.add_char b (Char.unsafe_chr (v land 0x7f lor 0x80));
    put_uvarint b (v lsr 7)
  end

let put_int b v = put_uvarint b (zigzag v)

(* Encoded width, without encoding: the writer's saved-bytes ledger
   compares what a field would have cost against what it actually
   cost. *)
let uvarint_size v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 7) in
  if v = 0 then 1 else go 0 v

let int_size v = uvarint_size (zigzag v)

let put_string b s =
  put_uvarint b (String.length s);
  Buffer.add_string b s

let put_bytes b s =
  put_uvarint b (Bytes.length s);
  Buffer.add_bytes b s

(* Without a closure over [b] per call: the checkpoint encoder writes
   several lists for every task and space. *)
let rec put_each b f = function
  | [] -> ()
  | x :: rest ->
    f b x;
    put_each b f rest

let put_list b f xs =
  put_uvarint b (List.length xs);
  put_each b f xs

let put_array b f xs =
  put_uvarint b (Array.length xs);
  for i = 0 to Array.length xs - 1 do
    f b (Array.unsafe_get xs i)
  done

let put_bool b v = put_uvarint b (if v then 1 else 0)

(* A stored payload where it lies: [len] bytes of [str] from [pos]. *)
type slice = { str : string; pos : int; len : int }

let whole str = { str; pos = 0; len = String.length str }

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* Eight bytes at a time, then the last ones; the slices lie within
   their strings. *)
let slice_equal a b =
  a.len = b.len
  &&
  let i = ref 0 in
  while !i + 8 <= a.len && get64u a.str (a.pos + !i) = get64u b.str (b.pos + !i)
  do
    i := !i + 8
  done;
  while
    !i < a.len
    && String.unsafe_get a.str (a.pos + !i) = String.unsafe_get b.str (b.pos + !i)
  do
    incr i
  done;
  !i = a.len

(* The bytes as a string: the string itself when the slice is all of
   it, else a copy. *)
let slice_string s =
  if s.pos = 0 && s.len = String.length s.str then s.str
  else String.sub s.str s.pos s.len

type source = { data : string; mutable pos : int; limit : int }

exception Corrupt of string

let source_at data ~pos ~len =
  let limit = pos + len in
  if pos < 0 || pos > limit || limit > String.length data then
    invalid_arg "Codec.source";
  { data; pos; limit }

let source ?(pos = 0) ?len data =
  source_at data ~pos
    ~len:(match len with Some n -> n | None -> String.length data - pos)

let eof s = s.pos >= s.limit

let pos s = s.pos

let skip s n =
  if n < 0 || s.pos + n > s.limit then raise (Corrupt "skip");
  s.pos <- s.pos + n

let byte s =
  if s.pos >= s.limit then raise (Corrupt "eof");
  let c = Char.code s.data.[s.pos] in
  s.pos <- s.pos + 1;
  c

(* Top level, so that a call allocates no closure. *)
let rec uvarint_from s shift acc =
  if shift > 62 then raise (Corrupt "varint too long");
  let b = byte s in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else uvarint_from s (shift + 7) acc

let get_uvarint s = uvarint_from s 0 0

let get_int s = unzigzag (get_uvarint s)

let get_slice s =
  let n = get_uvarint s in
  if s.pos + n > s.limit then raise (Corrupt "string length");
  let out = { str = s.data; pos = s.pos; len = n } in
  s.pos <- s.pos + n;
  out

let get_string s =
  let { str; pos; len } = get_slice s in
  String.sub str pos len

let rest s =
  let out = { str = s.data; pos = s.pos; len = s.limit - s.pos } in
  s.pos <- s.limit;
  out

let get_bytes s =
  let { str; pos; len } = get_slice s in
  Bytes.sub (Bytes.unsafe_of_string str) pos len

(* Every element takes at least one byte, so a count beyond the bytes
   left is refused before anything of that size is allocated. *)
let get_count s =
  let n = get_uvarint s in
  if n < 0 || n > s.limit - s.pos then raise (Corrupt "count");
  n

(* NB: explicit loops — List.init/Array.init evaluation order is
   unspecified, and [f] reads from a stateful source. *)
let get_list s f =
  let n = get_count s in
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (f s :: acc) in
  go 0 []

let get_array s f =
  match get_count s with
  | 0 -> [||]
  | n ->
    let a = Array.make n (f s) in
    for i = 1 to n - 1 do
      a.(i) <- f s
    done;
    a

let get_bool s = get_uvarint s <> 0
