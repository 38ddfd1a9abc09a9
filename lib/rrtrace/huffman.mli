(** Canonical, length-limited Huffman codes: code-length computation from
    frequencies, canonical code assignment, bit-level encode/decode. *)

val max_code_len : int

val lengths : int array -> int array
(** Code lengths from symbol frequencies; zero-frequency symbols get 0.
    Lengths never exceed {!max_code_len} (frequency flattening retries). *)

type encoder = { lens : int array; codes : int array }

val encoder : int array -> encoder
val write_symbol : Bitio.writer -> encoder -> int -> unit

type decoder

exception Bad_code

val decoder : int array -> decoder
val read_symbol : Bitio.reader -> decoder -> int
