(** LSB-first bit streams, as DEFLATE uses. *)

type writer

val writer : unit -> writer

val put_bits : writer -> int -> int -> unit
(** [put_bits w v n] appends the low [n] bits of [v] (n ≤ 48). *)

val finish : writer -> string
(** Flush the final partial byte and return the stream. *)

type reader

exception Truncated

val reader : ?len:int -> string -> pos:int -> reader
(** A reader over the [len] bytes of [src] from byte [pos] (default: to
    its end).  Raises [Invalid_argument] if the range is not within
    [src]. *)

val peek : reader -> int -> int
(** [peek r n] is the next [n] bits (n ≤ 48) without consuming them;
    bits past the end of the stream read as zeros. *)

val consume : reader -> int -> unit
(** Drop [n] peeked bits.  Raises {!Truncated} when that runs past the
    end of the stream. *)

val get_bits : reader -> int -> int
(** [peek] then [consume]. *)
