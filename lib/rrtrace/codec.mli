(** Byte-level serialization for trace frames: LEB128-style varints with
    a zigzag transform for signed values, length-prefixed strings and
    lists. *)

type sink = Buffer.t

val sink : unit -> sink
val put_uvarint : sink -> int -> unit
val put_int : sink -> int -> unit

val uvarint_size : int -> int
(** Bytes {!put_uvarint} would emit for this value, without emitting. *)

val int_size : int -> int
(** Bytes {!put_int} would emit for this value, without emitting — the
    saved-bytes ledger compares hypothetical against actual cost. *)

val put_string : sink -> string -> unit
val put_bytes : sink -> bytes -> unit
val put_list : sink -> (sink -> 'a -> unit) -> 'a list -> unit
val put_array : sink -> (sink -> 'a -> unit) -> 'a array -> unit
val put_bool : sink -> bool -> unit

type slice = { str : string; pos : int; len : int }
(** [len] bytes of [str] from [pos]: a stored payload (a chunk, a file,
    a checkpoint blob) where it lies, in the string a trace file was
    read into or in a string of its own. *)

val whole : string -> slice

val slice_equal : slice -> slice -> bool
(** Whether the two windows hold the same bytes. *)

val slice_string : slice -> string
(** The bytes as a string: [str] itself when the slice is all of it,
    else a copy. *)

type source

exception Corrupt of string

val source : ?pos:int -> ?len:int -> string -> source
(** Reads the [len] bytes of [data] from [pos] (default: all of it)
    where they lie, copying nothing.  Raises [Invalid_argument] if the
    range is not within [data]. *)

val source_at : string -> pos:int -> len:int -> source
(** {!source} with both bounds given, which a caller passes without
    boxing them: the loader makes one per record. *)

val eof : source -> bool

val pos : source -> int
(** Current byte offset in the whole string — the trace loader records
    where each scanned record starts so chunks can be sliced without
    re-parsing. *)

val skip : source -> int -> unit
(** Step over the next [n] bytes.  Raises {!Corrupt} if fewer remain. *)

val get_uvarint : source -> int
val get_int : source -> int
val get_string : source -> string

val get_slice : source -> slice
(** A length-prefixed string where it lies in the source's string,
    copying nothing. *)

val rest : source -> slice
(** The bytes left, where they lie; the source is then at its end. *)

val get_bytes : source -> bytes
(** A length-prefixed string as fresh bytes: one copy of the payload. *)

val get_count : source -> int
(** A declared element count.  Raises {!Corrupt} when it exceeds the
    bytes left: every element takes at least one byte. *)

val get_list : source -> (source -> 'a) -> 'a list
(** A {!get_count} followed by that many elements, each of which must
    take at least one byte. *)

val get_array : source -> (source -> 'a) -> 'a array
(** As {!get_list}. *)

val get_bool : source -> bool
