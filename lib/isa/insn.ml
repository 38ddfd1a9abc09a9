(* The guest instruction set.

   A small register machine standing in for x86-64: 16 general-purpose
   registers, byte-addressed data memory, word-addressed code.  The
   properties rr depends on are reproduced exactly:
   - conditional branches are a distinguished, deterministic event class
     (the RCB counter counts them and nothing else);
   - there is a one-word [Syscall] instruction whose site can be patched;
   - there are deliberately nondeterministic instructions ([Rdtsc],
     [Rdrand], [Cpuid_core]) and a deterministic atomic ([Cas]);
   - code can be written at run time ([Emit]), giving self-modifying code.

   Register conventions (mirroring the SysV-ish flavor of the paper):
   r0 = syscall number in / result out; r1..r6 = syscall args;
   r13 = thread pointer, r14 = frame/link scratch, r15 = stack pointer. *)

type reg = int (* 0..15 *)

let num_regs = 16
let reg_sp = 15

type operand = Imm of int | Reg of reg

type cond = Eq | Ne | Lt | Le | Gt | Ge

type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type t =
  | Nop
  | Mov of reg * operand
  | Alu of alu * reg * operand      (* dst := dst op src *)
  | Load of reg * reg * int         (* dst := mem64[base + off] *)
  | Store of reg * reg * int        (* mem64[base + off] := src *)
  | Load8 of reg * reg * int        (* dst := mem8[base + off] *)
  | Store8 of reg * reg * int       (* mem8[base + off] := src land 0xff *)
  | Jmp of int                      (* unconditional: not an RCB event *)
  | Jcc of cond * reg * operand * int  (* conditional: one RCB when retired *)
  | Call of int                     (* push return addr; jump *)
  | Callr of reg                    (* indirect call *)
  | Ret
  | Push of operand
  | Pop of reg
  | Syscall
  | Rdtsc of reg                    (* nondeterministic unless trapped *)
  | Rdrand of reg                   (* nondeterministic *)
  | Cpuid_core of reg               (* dst := index of current core *)
  | Cas of reg * reg * reg * reg    (* (addr, expected, new, success_dst) *)
  | Pause                           (* spin-loop hint, deterministic nop *)
  | Emit of reg * reg               (* text[addr_reg] := decode value_reg *)
  | Hook of int                     (* trap to a supervisor-installed hook *)
  | Halt                            (* invalid in user code: faults *)

(* Each op's and condition's place in its type's declaration: the trace
   codec's tag for it, and its offset among the text word's tags. *)
let alu_index = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9

let cond_index = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5

(* Encoding for run-time code generation ([Emit]).  Only the shapes a JIT
   plausibly emits are encodable; [decode] refuses everything else, which
   is how a guest program that emits garbage faults. *)

let encode = function
  | Nop -> Some 0
  | Syscall -> Some 1
  | Ret -> Some 2
  | Pause -> Some 3
  | Mov (r, Imm v) when v >= 0 && v < 0x10000 ->
    Some (0x10 lor (r lsl 8) lor (v lsl 16))
  | Alu (Add, r, Imm v) when v >= 0 && v < 0x10000 ->
    Some (0x11 lor (r lsl 8) lor (v lsl 16))
  | Jcc (Ne, r, Imm 0, target) when target >= 0 && target < 0x100000000 ->
    Some (0x12 lor (r lsl 8) lor (target lsl 16))
  | Jmp target when target >= 0 && target < 0x100000000 ->
    Some (0x13 lor (target lsl 16))
  | Mov _ | Alu _ | Load _ | Store _ | Load8 _ | Store8 _ | Jmp _ | Jcc _
  | Call _ | Callr _ | Push _ | Pop _ | Rdtsc _ | Rdrand _ | Cpuid_core _
  | Cas _ | Emit _ | Hook _ | Halt ->
    None

let decode w =
  if w < 0 then None
  else
    let op = w land 0xff in
    let r = (w lsr 8) land 0xf in
    let v = w lsr 16 in
    match op with
    | 0 when w = 0 -> Some Nop
    | 1 when w = 1 -> Some Syscall
    | 2 when w = 2 -> Some Ret
    | 3 when w = 3 -> Some Pause
    | 0x10 -> Some (Mov (r, Imm v))
    | 0x11 -> Some (Alu (Add, r, Imm v))
    | 0x12 -> Some (Jcc (Ne, r, Imm 0, v))
    | 0x13 -> Some (Jmp v)
    | _ -> None

let pp_operand ppf = function
  | Imm v -> Fmt.pf ppf "$%d" v
  | Reg r -> Fmt.pf ppf "r%d" r

let cond_name = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let alu_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"

let pp ppf = function
  | Nop -> Fmt.string ppf "nop"
  | Mov (r, o) -> Fmt.pf ppf "mov r%d, %a" r pp_operand o
  | Alu (op, r, o) -> Fmt.pf ppf "%s r%d, %a" (alu_name op) r pp_operand o
  | Load (d, b, off) -> Fmt.pf ppf "ld r%d, [r%d%+d]" d b off
  | Store (s, b, off) -> Fmt.pf ppf "st r%d, [r%d%+d]" s b off
  | Load8 (d, b, off) -> Fmt.pf ppf "ldb r%d, [r%d%+d]" d b off
  | Store8 (s, b, off) -> Fmt.pf ppf "stb r%d, [r%d%+d]" s b off
  | Jmp t -> Fmt.pf ppf "jmp %#x" t
  | Jcc (c, r, o, t) ->
    Fmt.pf ppf "j%s r%d, %a, %#x" (cond_name c) r pp_operand o t
  | Call t -> Fmt.pf ppf "call %#x" t
  | Callr r -> Fmt.pf ppf "call *r%d" r
  | Ret -> Fmt.string ppf "ret"
  | Push o -> Fmt.pf ppf "push %a" pp_operand o
  | Pop r -> Fmt.pf ppf "pop r%d" r
  | Syscall -> Fmt.string ppf "syscall"
  | Rdtsc r -> Fmt.pf ppf "rdtsc r%d" r
  | Rdrand r -> Fmt.pf ppf "rdrand r%d" r
  | Cpuid_core r -> Fmt.pf ppf "cpuid_core r%d" r
  | Cas (a, e, n, d) -> Fmt.pf ppf "cas [r%d], r%d, r%d -> r%d" a e n d
  | Pause -> Fmt.string ppf "pause"
  | Emit (a, v) -> Fmt.pf ppf "emit [r%d], r%d" a v
  | Hook n -> Fmt.pf ppf "hook %d" n
  | Halt -> Fmt.string ppf "halt"
