(** A tiny two-pass assembler: guest programs are written as item lists
    with symbolic labels, then resolved to absolute code addresses. *)

type item =
  | I of Insn.t
  | Label of string
  | Jmp_l of string
  | Jcc_l of Insn.cond * Insn.reg * Insn.operand * string
  | Call_l of string
  | Lea_l of Insn.reg * string

type program = { base : int; code : Insn.t array; symbols : (string * int) list }

exception Undefined_label of string
exception Duplicate_label of string

val assemble : base:int -> item list -> program
(** Two-pass assembly.  Raises {!Undefined_label} or {!Duplicate_label}. *)

val symbol : program -> string -> int
(** Absolute address of a label. Raises {!Undefined_label}. *)

val length : program -> int

(** {2 Mnemonic constructors} *)

val mov : Insn.reg -> Insn.operand -> item
val movi : Insn.reg -> int -> item
val movr : Insn.reg -> Insn.reg -> item
val addi : Insn.reg -> int -> item
val addr_ : Insn.reg -> Insn.reg -> item
val subi : Insn.reg -> int -> item
val muli : Insn.reg -> int -> item
val load : Insn.reg -> Insn.reg -> int -> item
val store : Insn.reg -> Insn.reg -> int -> item
val load8 : Insn.reg -> Insn.reg -> int -> item
val syscall : item
val ret : item
val label : string -> item
val jmp : string -> item
val jcc : Insn.cond -> Insn.reg -> Insn.operand -> string -> item
val jnz : Insn.reg -> string -> item
val jz : Insn.reg -> string -> item
val call : string -> item
val lea : Insn.reg -> string -> item
