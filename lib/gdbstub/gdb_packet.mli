(** The GDB remote-serial-protocol packet layer.

    Wire format: [$<body>#<ck>] where [ck] is two lowercase hex digits
    of the byte sum of [body] mod 256.  Inside the body the bytes
    [$ # } *] are escaped as ['}'] followed by the byte XOR 0x20, and
    (in replies) runs of a repeated byte may be run-length encoded as
    the byte, ['*'], and a printable count character [c] meaning
    "repeat the previous byte [Char.code c - 29] more times".  Counts
    that would encode as ['# $ * + - }'] are skipped (the framing and
    ack characters must never appear raw; ['}'] is avoided so a decoder
    that unescapes first still works).

    In ack mode every good packet is answered with ['+'] and every bad
    one (checksum or encoding) with ['-'], which makes the sender
    retransmit; [QStartNoAckMode] switches both ends to no-ack, where
    acks are neither sent nor expected.  {!conn} tracks all of that per
    connection, on top of a {!Gdb_transport.t}. *)

(** {1 Body codec (pure functions, property-tested)} *)

val checksum : string -> int
(** Byte sum mod 256 of the (already encoded) body. *)

val encode_body : ?rle:bool -> string -> string
(** Escape special bytes; with [rle] also run-length encode runs of
    four or more.  [encode_body] then [decode_body] is the identity for
    every payload. *)

val decode_body : string -> (string, string) result
(** Undo escaping and run-length encoding.  [Error] describes the first
    malformed construct (dangling escape, leading or out-of-range run). *)

val frame : ?rle:bool -> string -> string
(** The full wire form [$<encoded body>#<ck>] of a payload. *)

(** {1 Hex helpers (shared by the stub, the client and the tests)} *)

val to_hex : string -> string
val of_hex : string -> (string, string) result

val hex64_le : int -> string
(** 16 hex chars: the value as 8 little-endian bytes (register wire
    encoding). *)

val int_of_hex64_le : string -> (int, string) result

val parse_hex_int : string -> int option
(** A plain big-endian hex number as found in [m addr,len] fields;
    accepts an optional sign and [0x] prefix. *)

(** {1 Connections} *)

type conn

val conn : ?rle:bool -> Gdb_transport.t -> conn
(** A packet conversation over a transport, starting in ack mode.
    [rle] chooses whether {e outgoing} packets use run-length encoding
    (servers say yes; commands are too short to benefit). *)

val send : conn -> string -> unit
(** Frame and transmit a payload.  The wire frame is remembered so a
    later ['-'] from the peer (seen during {!poll}) retransmits it. *)

val poll : conn -> [ `Packet of string | `Empty | `Eof ]
(** Pump the transport: consume acks (['+'] clears the retransmit slot,
    ['-'] retransmits), NAK and drop malformed frames, answer good
    frames with ['+'] when in ack mode, and return the next decoded
    payload.  [`Empty] means no complete frame is available yet on a
    non-blocking transport; blocking transports only return [`Packet]
    or [`Eof]. *)

val set_ack_mode : conn -> bool -> unit
val transport : conn -> Gdb_transport.t
