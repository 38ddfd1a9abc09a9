(** Connection tracking over a recorded event stream (DESIGN.md §4k).

    The serve workload is a multi-process server: an accept loop
    recvfroms client hellos and forks one worker per connection.  To
    replay a single connection in isolation (Shard), every frame must be
    tagged with the connection that owns it — and ownership must follow
    task boundaries, because replay applies each task's frames as a
    complete subsequence.

    This module is the only place connection keys are derived (a
    check_format.sh rule confines the datagram source-port parsing
    here).  The derivation is observational: {!derive} reads the
    recorded frames of a finished trace, never the live kernel.

    Ownership rules:
    - A task starts with no connection (control: tag 0).
    - A traced [bind] frame records which task owns which port.
    - A [recvfrom] by a control task from a never-seen source port P
      opens a new connection: the receiving task stays control (the
      accept loop serves every connection), its next fork inherits the
      connection (the worker), and the task that bound P is assigned
      retroactively (the client) — its frames from here on are tagged.
    - [E_clone] children inherit the parent's connection.
    - A frame's tag is its task's connection at that frame (E_clone is
      tagged by the parent).

    A connection's shard is then {frames tagged 0} ∪ {frames tagged c}:
    control frames are shared by every shard, and each included task's
    frame subsequence is complete (clients keep their pre-hello frames
    tagged 0, so those land in every shard; their post-hello frames only
    in their own).

    Telemetry: [shard.frames_tagged] (frames attributed to a
    connection), [serve.requests] (worker-side data recvfroms). *)

type t

type info = {
  conn : int; (** connection id, 1-based in accept order *)
  client_port : int; (** the source port that opened the connection *)
  client_tid : int; (** task that bound [client_port]; -1 if unknown *)
  worker_tid : int; (** task forked to serve it; -1 if none yet *)
  frames : int; (** frames tagged with this connection *)
  requests : int; (** data recvfroms performed by the worker *)
}

val tags : t -> int array
(** One tag per observed frame: 0 = control, otherwise a connection
    id.  Allocates a fresh array. *)

val connections : t -> info list
(** Per-connection summary, in connection-id order. *)

val requests : t -> int
(** Total worker-side data recvfroms across all connections. *)

val derive : Trace.t -> t
(** Offline pass: observe every frame of a loaded trace, in order. *)
