(** The guest CPU interpreter: deterministic given register/memory state
    and the [env] callbacks; all nondeterminism enters via [env] and the
    core index. *)

type ctx = {
  regs : int array;
  mutable pc : int;
  mutable core : int;
  mutable space : Addr_space.t;
  pmu : Pmu.t;
  mutable tsc_trap : bool;
  mutable single_step : bool;
}

type fault =
  | F_segv of { addr : int; access : Addr_space.access }
  | F_ill of int
  | F_div of int

type stop =
  | Stop_syscall
  | Stop_hook of int
  | Stop_bkpt
  | Stop_pmu
  | Stop_singlestep
  | Stop_tsc of Insn.reg
  | Stop_fault of fault

type env = { rdtsc : unit -> int; rdrand : unit -> int }

val jit_writes : int ref
(** Global count of run-time code writes ([Emit]), for instrumentation
    cost models.  Snapshot/reset around a run. *)

val create : space:Addr_space.t -> ctx
val copy_regs : ctx -> int array

val run : env -> ctx -> fuel:int -> stop option * int
(** Run until a stop or fuel exhaustion ([None]); also returns the number
    of instructions retired. *)

val pp_stop : stop Fmt.t
