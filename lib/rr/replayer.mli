(** The rr replayer (paper §2.3.7–§2.3.9, §3.8).

    Replays a {!Trace.t} against a fresh simulated kernel seeded with
    {e different} entropy: no files are opened, no signals delivered, no
    real syscalls run except the address-space operations that must be
    re-performed.  User-space registers, memory and control flow are
    reproduced exactly; every applied frame cross-checks tracee state and
    raises {!Divergence} on any mismatch.

    Frames are pulled through a {!Trace.Reader} cursor, never a decoded
    array — replay memory stays bounded by one trace chunk.

    Per frame kind:
    - syscalls: software breakpoint at the recorded site, one ptrace stop,
      apply recorded registers and memory effects, skip the instruction
      (§2.3.7); sites in run-time-written code use the SYSEMU fallback;
    - asynchronous events: program the PMU interrupt {e early} (it skids,
      §2.4.3), then breakpoint/single-step until the RCB count, the full
      register state and an extra stack word all match (§2.4.1);
    - buffered syscalls: refill the guest trace buffer from flush frames;
      the interception hook replays results with identical control flow
      and identical RCB charges (§3.8). *)

exception Divergence of string

type opts = {
  seed : int; (* deliberately different from the recording seed *)
  check_regs : bool; (* cross-check registers at every frame *)
  sysemu_all : bool; (* ablation: replay every syscall via SYSEMU *)
  wide : bool; (* widened wrapper set; must match the recording's *)
}

val default_opts : opts

val make_opts :
  ?seed:int -> ?check_regs:bool -> ?sysemu_all:bool -> ?wide:bool -> unit ->
  opts
(** [default_opts] with the given fields overridden. *)

type t
(** A live incremental replay session. *)

type stats = {
  wall_time : int;
  events_applied : int;
  n_ptrace_stops : int;
  exit_status : int option;
  telemetry : Telemetry.snapshot;
      (** metrics accumulated during this session (diff against the
          process-global registry at {!start}/{!restore}) *)
}

val replay : ?opts:opts -> ?on_frame:(Kernel.t -> unit) -> Trace.t -> stats * Kernel.t
(** Replay the whole trace.  Raises {!Divergence} on mismatch. *)

(** {2 Incremental replay (the debugger's substrate)} *)

val start : ?opts:opts -> Trace.t -> t
val at_end : t -> bool

val step : t -> Event.t
(** Apply the next frame; returns it. *)

val stats_of : t -> stats

val cursor_index : t -> int
(** Index of the next frame to apply (the session's trace cursor). *)

val kernel : t -> Kernel.t
(** The simulated kernel the session replays into. *)

val trace : t -> Trace.t

(** {2 Checkpoints (paper §6.1)}

    A checkpoint is a COW snapshot of the whole replay: address spaces
    are forked (copy-on-write page sharing — creating one is cheap no
    matter the tracee size), task registers/counters and the replayer's
    frame index are copied; restore re-seeks the trace cursor through the
    chunk index.  [MAP_SHARED] frames are copied, at the snapshot and
    again at every restore ({!Addr_space.fork_checkpoint}), so a later
    write through a shared mapping never reaches a checkpoint.  "Most
    checkpoints are never resumed", so creation cost is what matters. *)

type snapshot

val snapshot : t -> snapshot
(** Valid at frame boundaries (every live task parked).  The snapshot
    also captures the trace's identity (event/chunk counts, initial
    exe) so {!restore} can validate against the trace it is given. *)

type restore_error = {
  re_field : string; (** what disagreed: "initial exe", "chunk count", … *)
  re_snapshot : string;
  re_trace : string;
}

exception Restore_error of restore_error

val pp_restore_error : restore_error Fmt.t
val restore_error_to_string : restore_error -> string

val restore : ?opts:opts -> Trace.t -> snapshot -> (t, restore_error) result
(** Rebuild a live replayer from a snapshot; the snapshot remains valid
    and reusable.  The trace must be the one the snapshot was taken
    against — a different recording, or a salvaged prefix shorter than
    the checkpoint, is rejected with a typed error before any state is
    touched. *)

val restore_exn : ?opts:opts -> Trace.t -> snapshot -> t
(** {!restore}, raising {!Restore_error} on a mismatch. *)

val encode_snapshot : snapshot -> string
(** Flatten a snapshot to bytes (the trace's durable-checkpoint blob
    format, version 2).  The blob stands alone: its page table writes
    equal private frames once and an all-zero private frame as a flag,
    while each [MAP_SHARED] frame keeps its identity, so aliasing
    between spaces survives and distinct shared frames stay distinct. *)

val decode_snapshot : string -> snapshot
(** Inverse of {!encode_snapshot}; the decoded snapshot restores like a
    live one, except that frames which were merely equal are now one
    frame (a write through any mapping still copies it first).  Raises
    {!Codec.Corrupt} on malformed input or another codec version. *)

val snapshot_index : snapshot -> int
(** The frame position the snapshot restores to. *)

(** {2 Internals exposed for tests} *)

val task : t -> int -> Task.t
val run_to_point : t -> Task.t -> Event.exec_point -> unit
val install_rdrand_hooks : Kernel.t -> unit
