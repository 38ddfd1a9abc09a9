(** The simulated kernel.

    Owns tasks, processes, the VFS, channels, futexes, virtual time and
    the ptrace state machine.  Supervisors — the rr recorder and
    replayer, or the baseline multicore runner — drive it through
    {!resume}/{!wait} or {!run_baseline}.

    The user/kernel interface implemented here is the paper's recording
    boundary (§2.1): system-call results, signal timing and scheduling
    are the only nondeterministic inputs a correct recorder must capture,
    and this module is where all of them originate (fed by
    {!Entropy}). *)

module T = Task

(** What the scheduling pass found; see {!scan_tasks}. *)
type scan = private {
  mutable runnable : T.t array; (* slots [0, n_runnable), visiting order *)
  mutable n_runnable : int;
  mutable n_live : int;
  mutable n_sleeping : int; (* live tasks blocked in W_sleep *)
  mutable next_wake : int; (* their earliest deadline *)
  mutable members : T.t array; (* [baseline_pick]'s scratch *)
}

(** The task table: a [Hashtbl] by tid, whose visiting order orders
    {!all_tasks} and breaks {!wait}'s ties, and that order kept in an
    array for the scheduling pass.  Change it only through {!add_task}
    and {!remove_task}, which keep the two in step. *)
type tasks

type t = {
  tasks : tasks;
  procs : (int, T.process) Hashtbl.t;
  vfs : Vfs.t;
  entropy : Entropy.t;
  cost : Cost.t;
  mutable clock : int; (* virtual ns *)
  mutable next_id : int;
  mutable next_space_id : int;
  mutable next_obj_id : int;
  mutable tsc : int;
  ports : (int, Chan.sock) Hashtbl.t;
  futexes : (int * int, Chan.waitq) Hashtbl.t;
  filter_registry : (int, Bpf.program) Hashtbl.t;
  perf_events : (int, Perf_event.t) Hashtbl.t;
  mutable stop_queue : int list; (* tids newly entered ptrace-stop *)
  hooks : (int, t -> T.t -> unit) Hashtbl.t;
  mutable spurious_desched_period : int; (* 0 = never *)
  mutable insns_retired : int;
  mutable syscall_count : int;
  mutable trace_stop_count : int;
  mutable exec_count : int;
  mutable deaths : int; (* tasks {!kill_task} has killed *)
  scan : scan; (* refilled by every scheduling pass *)
}

val create : seed:int -> unit -> t

(** {2 Time and identifiers} *)

val charge : t -> int -> unit
(** Advance the virtual clock (cost-model accounting). *)

val now : t -> int
val reserve_id : t -> int -> unit
(** Claim a specific id (replay mirrors recorded tids). *)

val alloc_obj_id : t -> int

(** {2 Tasks and processes} *)

val find_task : t -> int -> T.t option
val task_exn : t -> int -> T.t

val add_task : t -> T.t -> unit
(** Insert a task under its tid, replacing any task with that tid (spawn,
    clone, and the replayer's checkpoint restore). *)

val remove_task : t -> int -> unit
(** Drop a tid from the task table (a reaped thread). *)

val all_tasks : t -> T.t list
(** Every task, the last visited first, as [Hashtbl.fold] conses. *)

val all_procs : t -> T.process list
val vfs : t -> Vfs.t

val install_image : t -> path:string -> Image.t -> unit
(** Create an executable file backed by [Image.t] (and filler bytes so
    trace hard-linking has something to share). *)

val spawn : t -> path:string -> ?traced:bool -> ?tid:int -> unit -> T.t
(** Load an image into a fresh process.  Traced spawns are born in an
    exec ptrace-stop so the supervisor can set them up. *)

val do_clone :
  t -> T.t -> flags:int -> child_sp:int -> ?tid:int -> unit -> T.t
(** The clone machinery, also used directly by the replayer with a forced
    child tid.  Traced parents beget traced children born in a clone
    stop (rr's PTRACE_O_TRACECLONE). *)

val kill_task : t -> T.t -> int -> unit
val kill_process : t -> T.process -> int -> unit

(** {2 Signals} *)

(** {2 Hooks and nondeterminism} *)

val set_hook : t -> int -> (t -> T.t -> unit) -> unit
(** Install the handler for a [Hook n] instruction (the interception
    library's entry points). *)

val register_filter : t -> int -> Bpf.program -> unit
(** Register a seccomp filter under an id that guest code can install
    via the seccomp syscall. *)

val read_tsc : t -> int
(** The drifting time-stamp counter: reading it un-recorded is a real
    replay divergence. *)

val untraced_syscall :
  t -> T.t -> nr:int -> args:int array -> ip:int ->
  [ `Blocked | `Denied | `Done of int ]
(** Perform a syscall on behalf of the interception library, with [ip]
    set to the untraced instruction so the seccomp filter allows it. *)

val enter_syscall : t -> T.t -> T.saved_syscall -> ip:int -> unit
(** Syscall entry as if the instruction at [ip] had executed (used by the
    interception library's traced fallback). *)

val enter_stop : t -> T.t -> T.ptrace_stop -> unit
(** Put a traced task into a ptrace-stop (supervisor-synthesized stops,
    e.g. the replay hook's abort notification). *)

(** {2 The supervisor (ptrace) interface} *)

type wait_outcome =
  | Stopped_task of T.t * T.ptrace_stop
  | All_dead
  | Deadlocked of int list

val resume :
  t -> T.t -> T.resume_how -> ?sig_:Signals.info -> ?elide:bool -> unit ->
  unit
(** Resume from a ptrace-stop.  At a signal-delivery-stop, [sig_] is the
    signal to deliver (absent = suppressed).

    [elide] (with [R_syscall] at a seccomp/entry stop) skips the
    matching syscall-exit stop when the syscall completes without
    blocking — the paper's §3.4 single-stop protocol, used by a
    recorder that already wrote the frame at the entry stop.  A
    syscall that blocks re-arms the exit stop, so the supervisor still
    observes the completion of anything it could not pre-compute. *)

val wait : t -> wait_outcome
(** Run the world until some traced task enters a ptrace-stop. *)

val next_stopped : t -> (T.t * T.ptrace_stop) option
(** Pop an already-queued stop without running anything. *)

val park : t -> T.t -> unit
(** Stop a runnable task without running it (the recorder's one-task-at-
    a-time discipline). *)

val supervisor_map :
  t -> T.t -> len:int -> prot:Mem.prot -> kind:Addr_space.kind ->
  ?shared:bool -> ?addr:int -> unit -> int
(** Map memory in a tracee on the supervisor's behalf — rr does this by
    running syscalls in tracee context (§2.3.3), so the equivalent cost
    is charged. *)

(** {2 Baseline (untraced) execution} *)

type run_stats = { mutable wall_time : int; mutable deadlocked : bool }

val run_baseline :
  t -> cores:int -> ?sample_every:int -> ?on_sample:(int -> unit) -> unit ->
  run_stats
(** Discrete-event multicore scheduler: per-core clocks with per-task
    causality watermarks, strict priorities, round-robin, affinity.
    [on_sample] fires every [sample_every] virtual ns (PSS sampling). *)

val total_pss : t -> float
(** Sum of proportional set sizes over live processes, in bytes (§4.5). *)

(** {2 Exposed for white-box tests} *)

(** {3 Scheduling decisions}

    {!wait} and {!run_baseline} make each decision from one pass over
    the task table's visiting-order array. *)

val scan_tasks : t -> scan
(** Wake every sleeper whose deadline has passed, then report the live
    tasks, the earliest pending deadline and the runnable tasks in
    [Hashtbl] visiting order.  Allocates nothing once the scan's array
    has grown. *)

val wait_pick : scan -> T.t
(** The task {!wait} runs: the runnable task {!all_tasks} lists first,
    which is the last one visited.  Requires a runnable task. *)

val baseline_core : scan -> core_clock:int array -> int
(** The core {!run_baseline} fills next: the earliest clock among cores
    some runnable task may run on, ties to the lowest index; [-1] if
    none. *)

val baseline_pick : scan -> core:int -> cursor:int -> T.t
(** The task {!run_baseline} runs on [core]: lowest priority value
    first, then the [cursor mod n]-th of that class's [n] tasks in
    ascending tid order.  Linear in the runnable tasks; reorders the
    scan's scratch array, not [runnable].  Requires a task [core] may
    run. *)

exception Efault
