(** A DEFLATE-style compressor: LZ77 with hash-chain matching over a
    32 KiB window, then canonical-Huffman coding of the literal/length
    and distance alphabets with extra bits — the structure of zlib's
    "deflate", which rr uses for all general trace data (paper §2.7).
    Small inputs fall back to a stored block.  Decoding goes through
    lookup tables indexed by the next stream bits. *)

exception Corrupt of string

val deflate : string -> string

val inflate : string -> string
(** Raises {!Corrupt}, and nothing else, on malformed input.  A declared
    size beyond what the stream could encode (258 bytes per 2 bits) is
    refused before anything of that size is allocated. *)

val inflate_sub : string -> pos:int -> len:int -> string
(** {!inflate} of the [len] bytes of a string from [pos], read where
    they lie. *)

val match_len : string -> int -> int -> int -> int
(** [match_len s a b lim]: the length of the common prefix of [s] at [a]
    and at [b], at most [lim], compared eight bytes at a time.  The
    caller guarantees [a < b] and [b + lim <= String.length s]: the
    loads are unchecked. *)

val ratio : original:int -> compressed:int -> float
