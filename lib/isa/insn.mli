(** The guest instruction set: a small register machine standing in for
    x86-64, with the properties rr's design depends on — deterministic
    conditional branches (the RCB event), a patchable one-word [Syscall]
    instruction, deliberately nondeterministic instructions, and run-time
    code generation. *)

type reg = int

val num_regs : int

val reg_sp : reg
(** Stack pointer (r15). *)

type operand = Imm of int | Reg of reg

type cond = Eq | Ne | Lt | Le | Gt | Ge

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type t =
  | Nop
  | Mov of reg * operand
  | Alu of alu * reg * operand
  | Load of reg * reg * int
  | Store of reg * reg * int
  | Load8 of reg * reg * int
  | Store8 of reg * reg * int
  | Jmp of int
  | Jcc of cond * reg * operand * int
  | Call of int
  | Callr of reg
  | Ret
  | Push of operand
  | Pop of reg
  | Syscall
  | Rdtsc of reg
  | Rdrand of reg
  | Cpuid_core of reg
  | Cas of reg * reg * reg * reg
  | Pause
  | Emit of reg * reg
  | Hook of int
  | Halt

val alu_index : alu -> int
val cond_index : cond -> int
(** An op's or condition's place in its type's declaration, from 0: the
    trace codec's tag for it, and its offset among the text word's
    tags. *)

val encode : t -> int option
(** Encode an instruction for run-time emission ([Emit]).  Only a small
    JIT-friendly subset is encodable. *)

val decode : int -> t option

val pp : t Fmt.t
