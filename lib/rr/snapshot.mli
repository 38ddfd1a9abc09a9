(** Checkpoints of a whole replay (paper §6.1): capture, restore and the
    durable blob codec.

    A checkpoint is a copy-on-write snapshot of a kernel's processes and
    tasks, the thread-locals swap state and each task's {!extras}.
    [MAP_SHARED] frames are copied, at the snapshot and again at every
    restore ({!Addr_space.fork_checkpoint}), so a later write through a
    shared mapping never reaches a checkpoint.  "Most checkpoints are
    never resumed", so a snapshot reuses the previous checkpoint fork of
    every space whose generation has not moved since and which maps no
    [MAP_SHARED] region (counted under [replay.checkpoint_reuse] and
    [replay.checkpoint_fork]).  Capture reads no replay session;
    {!Replayer.snapshot} and {!Replayer.restore} are a session's glue. *)

type t

type extras = {
  batches : Event.buf_record list Queue.t;
      (** recorded flush batches the task's buffer has yet to take *)
  mutable next_resume : Task.resume_how;
  mutable in_blocked_syscall : bool;
      (** parked at a syscall site whose recording blocked in the kernel *)
}
(** What a replay keeps per task beside the kernel. *)

val extras : unit -> extras

type reuse
(** What the last snapshot took, for the next to reuse while nothing
    changed: each space's checkpoint fork, each process's handler table
    and each task's registers.  One per session. *)

val reuse : unit -> reuse

val capture :
  reuse -> Kernel.t -> Syscallbuf.locals -> extras:(int -> extras) ->
  frame:int -> root:int -> installed:(string * string) list -> Trace.t -> t
(** Valid at frame boundaries (every live task parked).  [frame] is the
    position the snapshot restores to, [root] the root task and
    [installed] the images exec'd so far, each as the path it is
    installed at and the trace image ({!Trace.image}) it holds; the
    trace's identity is kept for {!check}. *)

val restore :
  t -> reuse -> Kernel.t -> Syscallbuf.locals -> extras:(int -> extras) ->
  Trace.t -> unit
(** Rebuild the snapshot in a fresh kernel and a session's thread-locals,
    extras and reuse state, installing its images from the trace, which
    {!check} has accepted; the snapshot stays valid and reusable. *)

val frame : t -> int
(** The frame position the snapshot restores to. *)

val root : t -> int
val installed : t -> (string * string) list

type restore_error = {
  re_field : string; (** what disagreed: "initial exe", "chunk count", … *)
  re_snapshot : string;
  re_trace : string;
}

exception Restore_error of restore_error

val restore_error_to_string : restore_error -> string

val check : Trace.t -> t -> restore_error option
(** [None] when the snapshot was taken against this trace; a different
    recording, or a salvaged prefix shorter than the checkpoint, is the
    field that disagrees, or an installed image the trace lacks. *)

(** {2 Durable blobs} *)

val encode : Trace_index.Pool.t -> t -> string
(** Flatten a snapshot to bytes (the trace's durable-checkpoint blob
    format, version 3).  Every non-zero frame's bytes, task-locals
    window and text run goes in the pool, interned by content, and the
    blob names it by id: the checkpoints of one index share the pool,
    so each distinct window is stored once.  The blob's page table lists
    equal private frames once and an all-zero private frame as a flag,
    while each [MAP_SHARED] frame keeps its own entry, so aliasing
    between spaces survives and distinct shared frames stay distinct
    even when their bytes are one pool entry. *)

val decode : Trace_index.Pool.t -> Codec.slice -> t
(** Inverse of {!encode}, reading the blob where it lies; frames and
    locals borrow their bytes from the pool where they lie.  The decoded
    snapshot restores like a live one, except that frames which were
    merely equal are now one frame (a write through any mapping still
    copies it first).  Raises {!Codec.Corrupt} on malformed input,
    another codec version or an id the pool lacks. *)
