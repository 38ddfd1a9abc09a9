(* Signal numbers, sets, actions and dispositions.

   Signal sets are int bitsets (bit [n-1] for signal [n]).  The semantics
   rr depends on are reproduced: per-process handler tables shared by
   threads, per-thread masks, SA_RESTART interacting with the kernel's
   syscall-restart machinery, and the "delivered but handler blocked"
   fatal edge case of paper §2.3.9. *)

let sighup = 1
let sigill = 4
let sigtrap = 5
let sigfpe = 8
let sigkill = 9
let sigusr1 = 10
let sigsegv = 11
let sigusr2 = 12
let sigpipe = 13
let sigterm = 15
let sigchld = 17
let sigcont = 18
let sigstop = 19
let sigsys = 31

(* The recorder's private real-time signals: preemption (PMU overflow)
   and desched (perf context-switch event), like rr's use of SIGSTKFLT
   and SIGPWR. *)
let sigpreempt = 33
let sigdesched = 34

let max_signal = 64

let name = function
  | 1 -> "SIGHUP" | 2 -> "SIGINT" | 3 -> "SIGQUIT" | 4 -> "SIGILL"
  | 5 -> "SIGTRAP" | 6 -> "SIGABRT" | 7 -> "SIGBUS" | 8 -> "SIGFPE"
  | 9 -> "SIGKILL" | 10 -> "SIGUSR1" | 11 -> "SIGSEGV" | 12 -> "SIGUSR2"
  | 13 -> "SIGPIPE" | 14 -> "SIGALRM" | 15 -> "SIGTERM" | 16 -> "SIGSTKFLT"
  | 17 -> "SIGCHLD" | 18 -> "SIGCONT" | 19 -> "SIGSTOP" | 31 -> "SIGSYS"
  | 33 -> "SIGPREEMPT" | 34 -> "SIGDESCHED"
  | n -> Printf.sprintf "SIG%d" n

(* Bitset operations. *)
let empty_set = 0
let add set signo = set lor (1 lsl (signo - 1))
let mem set signo = set land (1 lsl (signo - 1)) <> 0
let union = ( lor )

let of_list = List.fold_left add empty_set

(* sigprocmask how *)
let sig_block = 0
let sig_unblock = 1
let sig_setmask = 2

(* sigaction flags *)
let sa_restart = 0x1000_0000
let sa_nodefer = 0x4000_0000
let sa_resethand = 0x8000_0000

type disposition = Default | Ignore | Handler of int (* text address *)

type action = { disposition : disposition; mask : int; flags : int }

let default_action = { disposition = Default; mask = empty_set; flags = 0 }

(* What the default disposition does. *)
type default_effect = Term | Ign | Stop | Cont

let default_effect signo =
  if signo = sigchld || signo = sigcont (* before stop handling *) then Ign
  else if signo = sigstop then Stop
  else Term

(* Why a signal was generated: rr's recorder needs to distinguish
   kernel-synthesized signals (desched, preempt, trapped-TSC SEGV) from
   application signals. *)
type origin =
  | User of int (* sender tid *)
  | Fault (* synchronous CPU fault *)
  | Tsc_trap of Insn.reg (* trapped RDTSC; reg awaiting the value *)
  | Desched (* perf context-switch event *)
  | Preempt (* PMU overflow programmed by the recorder *)
  | Bkpt (* software breakpoint (SIGTRAP) *)
  | Step (* single-step completion (SIGTRAP) *)

type info = { signo : int; origin : origin; fault_addr : int }

let make_info ?(fault_addr = 0) signo origin = { signo; origin; fault_addr }

let pp_info ppf i =
  let origin =
    match i.origin with
    | User tid -> Printf.sprintf "user(%d)" tid
    | Fault -> "fault"
    | Tsc_trap r -> Printf.sprintf "tsc(r%d)" r
    | Desched -> "desched"
    | Preempt -> "preempt"
    | Bkpt -> "bkpt"
    | Step -> "step"
  in
  Fmt.pf ppf "%s[%s]" (name i.signo) origin
