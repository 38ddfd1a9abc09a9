(** A small RSP client: enough protocol to drive {!Gdb_server} from a
    scripted session (tests, [rr_cli debug --script]).

    The client is synchronous: {!request} sends one command and returns
    its decoded reply.  Over the in-memory transport the server does
    not run by itself, so the client is given a [pump] callback (wired
    to {!Gdb_server.pump}) which it invokes while waiting; the wait is
    bounded, so a protocol bug surfaces as {!Protocol_error}, never a
    hang. *)

exception Protocol_error of string

type t

val create : pump:(unit -> unit) -> Gdb_transport.t -> t
(** A request polls and pumps at most 1000 fruitless rounds. *)

val request : t -> string -> string
(** Send a command payload, return the reply payload.  Automatically
    drops to no-ack mode when a [QStartNoAckMode] request is answered
    with [OK]. *)

val monitor : t -> string -> string
(** [qRcmd] round trip: hex-encodes the command, hex-decodes the reply,
    trims the trailing newline. *)

val close : t -> unit
