(** Signal numbers, sets, actions and dispositions, with the semantics
    rr's design leans on: per-process handler tables shared by threads,
    per-thread masks, SA_RESTART interacting with the kernel's restart
    machinery (paper §2.3.10), and the fatal delivered-but-blocked fault
    edge case (paper §2.3.9). *)

val sighup : int
val sigill : int
val sigtrap : int
val sigfpe : int
val sigkill : int
val sigusr1 : int
val sigsegv : int
val sigusr2 : int
val sigpipe : int
val sigterm : int
val sigchld : int
val sigsys : int

val sigpreempt : int
(** The recorder's preemption signal (PMU overflow), like rr's use of a
    spare real-time signal. *)

val sigdesched : int
(** The desched perf event's signal (paper §3.3). *)

val max_signal : int
val name : int -> string

(** {2 Signal sets (int bitsets, bit [n-1] for signal [n])} *)

val empty_set : int
val add : int -> int -> int
val mem : int -> int -> bool
val union : int -> int -> int
val of_list : int list -> int

(** {2 sigprocmask / sigaction constants} *)

val sig_block : int
val sig_unblock : int
val sig_setmask : int
val sa_restart : int
val sa_nodefer : int
val sa_resethand : int

type disposition = Default | Ignore | Handler of int (* handler address *)

type action = { disposition : disposition; mask : int; flags : int }

val default_action : action

type default_effect = Term | Ign | Stop | Cont

val default_effect : int -> default_effect

(** {2 Signal provenance}

    The recorder distinguishes kernel-synthesized signals (desched,
    preemption, trapped TSC, breakpoints) from application signals. *)

type origin =
  | User of int (* sender tid *)
  | Fault (* synchronous CPU fault *)
  | Tsc_trap of Insn.reg (* trapped RDTSC awaiting an emulated value *)
  | Desched
  | Preempt
  | Bkpt
  | Step

type info = { signo : int; origin : origin; fault_addr : int }

val make_info : ?fault_addr:int -> int -> origin -> info
val pp_info : info Fmt.t
