(** Canonical, length-limited Huffman codes: code lengths from
    frequencies, canonical code assignment, whole-code writes and
    table-driven reads. *)

type encoder = { lens : int array; codes : int array }
(** [lens.(s)] is symbol [s]'s code length (0: unused); [codes.(s)] its
    canonical code, bit-reversed for the LSB-first stream. *)

val encoder : int array -> encoder
(** Codes for the given symbol frequencies, at most 15 bits long. *)

val write_symbol : Bitio.writer -> encoder -> int -> unit

type decoder

exception Bad_code

val decoder : int array -> decoder
(** The lookup table for the given code lengths (each 0..15).  Raises
    {!Bad_code} when the lengths oversubscribe the code space. *)

val read_symbol : Bitio.reader -> decoder -> int
(** Raises {!Bad_code} on bits no code starts with — any read from an
    empty code, or a gap in an incomplete one. *)
