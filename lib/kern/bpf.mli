(** Classic BPF, as used by seccomp filters: a real interpreted bytecode
    machine with forward-relative jumps, which is what makes prepending
    rr's allow-prologue to tracee filters sound (paper §2.3.5). *)

type insn =
  | Ld_abs of int
  | Ld_imm of int
  | Ldx_imm of int
  | Tax
  | Txa
  | St of int
  | Ldm of int
  | Alu_and of int
  | Alu_or of int
  | Alu_add of int
  | Jmp of int
  | Jeq of int * int * int
  | Jgt of int * int * int
  | Jge of int * int * int
  | Jset of int * int * int
  | Ret of int
  | Ret_a

type program = insn array

val ret_kill : int
val ret_trap : int
val ret_errno : int -> int
val ret_trace : int
val ret_allow : int
val action_of : int -> int
val errno_of : int -> int

type data = { nr : int; arch : int; ip : int; args : int array }

exception Bad_program of string

val run : program -> data -> int
(** Evaluate a filter; returns the SECCOMP_RET_* word.  Raises
    {!Bad_program} for ill-formed programs (the kernel treats that as
    kill). *)

val whitelist : ?deny:int -> int list -> program
(** A sandbox-style filter: allow the listed syscall numbers, return
    [deny] (default errno EPERM) otherwise. *)

val rr_filter : untraced_ip:int -> program
(** rr's recorder filter: allow at the untraced instruction, trace
    everything else. *)

val patch_with_prologue : privileged_ip:int -> program -> program
(** Prepend the allow-at-privileged-PC prologue to a tracee filter. *)
