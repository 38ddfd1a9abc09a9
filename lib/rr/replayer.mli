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
  check_regs : bool; (* cross-check registers at every frame *)
  sysemu_all : bool; (* ablation: replay every syscall via SYSEMU *)
}

val default_opts : opts

val make_opts : ?check_regs:bool -> ?sysemu_all:bool -> unit -> opts
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

val start : Trace.t -> t
(** A session at frame 0.  It installs no virtual clock: a caller that
    wants {!Timeline} stamps on the session's clock installs it around
    its own work, as {!replay} and the debugger do. *)

val at_end : t -> bool

val step : t -> Event.t
(** Apply the next frame; returns it. *)

val stats_of : t -> stats

val cursor_index : t -> int
(** Index of the next frame to apply (the session's trace cursor). *)

val kernel : t -> Kernel.t
(** The simulated kernel the session replays into. *)

(** {2 Checkpoints (paper §6.1)}

    The session's glue to {!Snapshot}, which captures, restores and
    encodes them: a snapshot restores the session's frame index, and a
    restore re-seeks the trace cursor through the chunk index. *)

val snapshot : t -> Snapshot.t
(** Valid at frame boundaries (every live task parked). *)

val restore : Trace.t -> Snapshot.t -> (t, Snapshot.restore_error) result
(** A session at the snapshot's frame, with default options; the
    snapshot remains valid and reusable.  The trace must be the one the
    snapshot was taken against ({!Snapshot.check}): a mismatch is a
    typed error before any state is touched. *)

val restore_exn : Trace.t -> Snapshot.t -> t
(** {!restore}, raising {!Snapshot.Restore_error} on a mismatch. *)
