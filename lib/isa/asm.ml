(* A tiny two-pass assembler for guest programs.

   Workload generators build programs as [item list]s with symbolic
   labels; [assemble] resolves labels to absolute code addresses.  Code is
   word-addressed: instruction [i] of a program based at [base] lives at
   address [base + i]. *)

type item =
  | I of Insn.t
  | Label of string
  | Jmp_l of string
  | Jcc_l of Insn.cond * Insn.reg * Insn.operand * string
  | Call_l of string
  | Lea_l of Insn.reg * string (* reg := address of label *)

type program = { base : int; code : Insn.t array; symbols : (string * int) list }

exception Undefined_label of string
exception Duplicate_label of string

let size_of_item = function Label _ -> 0 | I _ | Jmp_l _ | Jcc_l _ | Call_l _ | Lea_l _ -> 1

let assemble ~base items =
  let symbols = Hashtbl.create 64 in
  let pc = ref base in
  List.iter
    (fun item ->
      (match item with
      | Label l ->
        if Hashtbl.mem symbols l then raise (Duplicate_label l);
        Hashtbl.add symbols l !pc
      | I _ | Jmp_l _ | Jcc_l _ | Call_l _ | Lea_l _ -> ());
      pc := !pc + size_of_item item)
    items;
  let resolve l =
    match Hashtbl.find_opt symbols l with
    | Some a -> a
    | None -> raise (Undefined_label l)
  in
  let code =
    List.filter_map
      (fun item ->
        match item with
        | Label _ -> None
        | I i -> Some i
        | Jmp_l l -> Some (Insn.Jmp (resolve l))
        | Jcc_l (c, r, o, l) -> Some (Insn.Jcc (c, r, o, resolve l))
        | Call_l l -> Some (Insn.Call (resolve l))
        | Lea_l (r, l) -> Some (Insn.Mov (r, Insn.Imm (resolve l))))
      items
    |> Array.of_list
  in
  { base;
    code;
    symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [] }

let symbol p name =
  match List.assoc_opt name p.symbols with
  | Some a -> a
  | None -> raise (Undefined_label name)

let length p = Array.length p.code

(* Convenience constructors, so workload code reads like assembly. *)
let mov r o = I (Insn.Mov (r, o))
let movi r v = I (Insn.Mov (r, Insn.Imm v))
let movr r s = I (Insn.Mov (r, Insn.Reg s))
let addi r v = I (Insn.Alu (Insn.Add, r, Insn.Imm v))
let addr_ r s = I (Insn.Alu (Insn.Add, r, Insn.Reg s))
let subi r v = I (Insn.Alu (Insn.Sub, r, Insn.Imm v))
let muli r v = I (Insn.Alu (Insn.Mul, r, Insn.Imm v))
let load r b off = I (Insn.Load (r, b, off))
let store r b off = I (Insn.Store (r, b, off))
let load8 r b off = I (Insn.Load8 (r, b, off))
let syscall = I Insn.Syscall
let ret = I Insn.Ret
let label l = Label l
let jmp l = Jmp_l l
let jcc c r o l = Jcc_l (c, r, o, l)
let jnz r l = Jcc_l (Insn.Ne, r, Insn.Imm 0, l)
let jz r l = Jcc_l (Insn.Eq, r, Insn.Imm 0, l)
let call l = Call_l l
let lea r l = Lea_l (r, l)
