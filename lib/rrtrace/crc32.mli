(** CRC-32 (IEEE 802.3, the zlib polynomial) over strings.

    The trace store stamps every on-disk record and every stored chunk
    with a CRC so that torn writes and bit rot are detected at open (or
    at the latest when the damaged chunk is decoded) instead of
    surfacing as a divergence mid-replay.

    The [crc] argument chains: [string ~crc:(string a) b] equals
    [string (a ^ b)], so large payloads can be folded piecewise without
    concatenation. *)

val string : ?crc:int -> string -> int
(** CRC of a whole string, continuing from [crc] (default: empty). *)

val sub : ?crc:int -> string -> pos:int -> len:int -> int
(** CRC of [len] bytes of [s] starting at [pos].  Raises
    [Invalid_argument] if the range is out of bounds. *)

val update : int -> string -> pos:int -> len:int -> int
(** [update crc] is [sub ~crc], for a caller that continues a CRC per
    record without boxing it. *)
