(** Kernel task (thread) and process state.

    A process groups threads sharing an address space, fd table, signal
    handler table and pending-signal set; each task additionally carries
    a private signal mask, pending queue, CPU context and ptrace state.
    The ptrace state machine mirrors the Linux subset rr depends on:
    seccomp/entry/exit/signal/exec/clone/exit stops and CONT / SYSCALL /
    SINGLESTEP / SYSEMU resumes. *)

type fd_obj =
  | F_reg of { reg : Vfs.reg; path : string }
  | F_pipe_r of Chan.pipe
  | F_pipe_w of Chan.pipe
  | F_sock of Chan.sock
  | F_perf of Perf_event.t

type fd_entry = { mutable pos : int; obj : fd_obj; mutable fl : int }

type fdtab = { mutable next_fd : int; fds : (int, fd_entry) Hashtbl.t }

val fdtab_copy : fdtab -> fdtab
(** Shares the [fd_entry] records, so file offsets stay shared across
    fork, as on Linux. *)

type wait_cond =
  | W_pipe_read of Chan.pipe
  | W_pipe_write of Chan.pipe
  | W_sock_read of Chan.sock
  | W_futex of int * int (* address-space id, address *)
  | W_child of int (* own pid; woken by child exits *)
  | W_sleep of int (* absolute virtual deadline *)
  | W_poll of Chan.waitq list (* parked on several objects at once *)

type saved_syscall = {
  nr : int;
  args : int array;
  site : int; (* address of the syscall instruction *)
  entry_regs : int array;
}

type run_state =
  | Runnable
  | Blocked of wait_cond
  | Stopped (* ptrace-stop; see [last_stop] *)
  | Dead

type ptrace_stop =
  | Stop_seccomp of saved_syscall (* SECCOMP_RET_TRACE at entry *)
  | Stop_syscall_entry of saved_syscall
  | Stop_syscall_exit of saved_syscall * int (* result *)
  | Stop_signal of Signals.info (* signal-delivery-stop *)
  | Stop_exec
  | Stop_clone of int (* parent tid; the child is born stopped *)
  | Stop_exit of int (* PTRACE_EVENT_EXIT analogue *)
  | Stop_singlestep

type resume_how = R_cont | R_syscall | R_singlestep | R_sysemu | R_sysemu_single

type process = {
  pid : int;
  mutable parent : int;
  mutable space : Addr_space.t;
  mutable fdtab : fdtab;
  sighand : Signals.action array; (* shared by threads *)
  mutable shared_pending : Signals.info list;
  mutable threads : int list;
  mutable children : int list;
  mutable exit_code : int option;
  mutable reaped : bool;
  mutable cwd : string;
  child_wait : Chan.waitq;
  mutable cmd : string;
}

type t = {
  tid : int;
  proc : process;
  cpu : Cpu.ctx;
  mutable state : run_state;
  mutable sigmask : int;
  mutable pending : Signals.info list;
  mutable in_syscall : saved_syscall option; (* sleeping in the kernel *)
  mutable restart : saved_syscall option; (* interrupted, restartable *)
  mutable restart_wanted : bool;
  mutable traced : bool;
  mutable last_stop : ptrace_stop option;
  mutable resume : resume_how;
  mutable in_entry_stop : saved_syscall option;
  mutable want_exit_stop : bool;
  mutable exit_is_group : bool;
  mutable seccomp : Bpf.program list;
  mutable affinity : int; (* -1 = any core *)
  mutable priority : int;
  mutable desched : Perf_event.t option; (* armed context-switch event *)
  mutable exit_status : int;
  mutable vdso_enabled : bool;
  mutable tick_born : int;
  mutable last_wake : int;
  mutable sig_frames : int list; (* live signal frames, innermost first *)
}

val make_task : tid:int -> proc:process -> cpu:Cpu.ctx -> t
val make_process : pid:int -> parent:int -> space:Addr_space.t -> process
val is_alive : t -> bool
val find_fd : t -> int -> fd_entry option

val add_fd : t -> fd_obj -> fl:int -> int
(** Allocates the lowest free descriptor, as Linux does. *)

val remove_fd : t -> int -> unit
val pp_stop : ptrace_stop Fmt.t
