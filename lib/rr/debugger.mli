(** A reverse-execution debugger over replay (paper §1, §6.1).

    Time is measured in trace-frame indices.  Forward execution replays
    frames; {e reverse} execution restores the nearest earlier checkpoint
    and replays forward — rr's scheme, cheap because checkpoints are
    copy-on-write address-space snapshots.

    When the trace carries a persistent {!Trace_index.t} (see
    [Trace_indexer] and [Trace.index]), seeks restore durable
    checkpoints decoded straight from the trace and the {!Query}
    functions answer from the index tables — a freshly reopened trace
    jumps anywhere in O(delta) instead of replaying from frame 0.
    Without an index every query transparently falls back to the scans
    it replaces; answers are identical either way.

    A session is abstract: checkpoints are internal state, inspected
    only through the accessors below.  This is the substrate the GDB
    remote-protocol stub ([lib/gdbstub]) drives.  Every operation that
    replays frames runs on the session's virtual clock and clears it on
    return, so a dropped session leaves no clock behind. *)

exception Debug_error of string

type t

(** {2 Options} *)

type opts = {
  checkpoint_every : int;  (** live-checkpoint cadence (frames) *)
  use_index : bool;  (** answer from a persistent index when present *)
}

val default_opts : opts
(** [{checkpoint_every = 32; use_index = true}]. *)

val make_opts :
  ?checkpoint_every:int ->
  ?use_index:bool ->
  unit ->
  opts
(** [default_opts] with the given fields overridden.  [checkpoint_every]
    is clamped to ≥ 1 — the make_opts convention: out-of-range values
    are corrected, not trusted. *)

val create : ?opts:opts -> Trace.t -> t
(** Start a session at frame 0, checkpointing every
    [opts.checkpoint_every] frames as execution moves forward.  The
    options are re-clamped, so a hand-built literal cannot smuggle in a
    cadence ≤ 0. *)

val pos : t -> int
(** Current position: the index of the next frame to apply. *)

val n_events : t -> int

val at_end : t -> bool
(** [pos d = n_events d]: every frame has been applied. *)

val trace : t -> Trace.t

val checkpoint_every : t -> int
(** The live-checkpoint cadence this session was created with (re-clamped). *)

val indexed : t -> bool
(** Whether queries can currently answer from a persistent index:
    [use_index] is set and the trace has one attached. *)

val clock : t -> int
(** The virtual-clock reading at the current position (deterministic
    across replays; what {!Query.seek_to_time} measures against). *)

val step : t -> Event.t
(** Apply the next frame; may take a checkpoint. *)

val seek : t -> int -> unit
(** Jump to any frame index.  Replays forward from the best available
    base: the current position, the nearest live checkpoint, or a
    durable checkpoint restored from the trace's persistent index
    (counted under [index.hit]; a blob that fails to decode or restore
    counts under [index.fallback] and the live checkpoints cover the
    seek). *)

val reverse_step : t -> unit
(** Step one frame backwards.  At frame 0 this is a no-op: the position
    is unchanged and no error is raised (the caller — e.g. the GDB stub
    — reports "history exhausted" to its user). *)

(** {2 Typed queries}

    The seek-first query surface.  Each query validates its arguments
    into a [result] rather than raising, answers from the persistent
    index when one is attached ([index.hit]) and falls back to the
    equivalent scan when not ([index.fallback]); the answer is defined
    to be identical either way. *)

module Query : sig
  type error =
    | Out_of_range of { what : string; value : int; min : int; max : int }

  val pp_error : error Fmt.t
  val error_to_string : error -> string

  val seek_to_frame : t -> int -> (unit, error) result
  (** {!seek} with a typed range check instead of {!Debug_error}. *)

  val seek_to_time : t -> int -> (int, error) result
  (** Seek to the largest position whose virtual-clock reading is
      [<= time]; returns that position.  Times past the end land on the
      final position; a time earlier than the clock at frame 0 is
      [Out_of_range] (with [min] the frame-0 reading) and the position
      is unchanged. *)

  val prev_exec : ?before:int -> t -> pc:int -> (int option, error) result
  (** Latest frame [f < before] (default: the current position) whose
      {!Event.frame_pc} is [pc] — the reverse-breakpoint primitive.
      [Ok None] when no earlier frame executed [pc].  Position is
      unchanged. *)

  val last_write :
    ?before:int -> t -> tid:int -> addr:int -> len:int -> (int option, error) result
  (** Reverse watchpoint: the latest frame [f < before] (default: the
      current position) during which [addr..addr+len) in task [tid]
      changed.  Indexed candidates are verified by sampling, so the
      answer is byte-identical to the scan's.  Position is restored. *)
end

val continue_to : t -> (Event.t -> bool) -> int option
(** Run forward to the next matching frame; lands just after it. *)

val reverse_continue_to : t -> (Event.t -> bool) -> int option
(** Reverse-continue: land just after the previous matching frame,
    skipping a hit at the current position (gdb semantics).  From frame
    0 (or frame 1, where only the current hit exists) this returns
    [None] and the position is unchanged. *)

val frame : t -> int -> Event.t
(** The frame at index [i] (static data; position is unaffected). *)

val task : t -> int -> Task.t
val live_tids : t -> int list

val exit_status : t -> int option
(** The replayed root process's exit status, once its exit frame has
    been applied. *)

val regs : t -> int -> int array * int
(** [(general-purpose registers, pc)] of a task at the current position. *)

val read_mem : t -> int -> int -> int -> bytes
(** [read_mem d tid addr len]. Raises {!Debug_error} on unmapped
    addresses. *)

val read_word : t -> int -> int -> int

(** {2 Checkpoint inspection and control}

    The checkpoint store itself is private (a sorted array with O(log n)
    lookups); these accessors expose what the GDB stub's [qRcmd]
    monitor commands and the tests need. *)

val take_checkpoint : t -> int
(** Ensure a checkpoint exists at the current position (dedup: taking
    twice at one frame stores one snapshot); returns the frame index. *)

val n_checkpoints : t -> int
val checkpoints_taken : t -> int
val checkpoints_restored : t -> int

val checkpoint_frames : t -> int list
(** Frame indices holding a live checkpoint, strictly ascending. *)
