(* Codec serialization for executable images.

   Trace files must be self-describing and independent of the OCaml
   runtime's Marshal layout (the deployability concern of the paper's
   tech report), so the images cloned into a trace are written with the
   same varint codec as the frame stream: a tag per instruction
   constructor, zigzag varints for operands and addresses. *)

module C = Codec

let corrupt fmt = Fmt.kstr (fun s -> raise (C.Corrupt s)) fmt

(* ---- operands, conditions, ALU ops ---------------------------------- *)

let put_operand b = function
  | Insn.Imm v ->
    C.put_uvarint b 0;
    C.put_int b v
  | Insn.Reg r ->
    C.put_uvarint b 1;
    C.put_int b r

(* A register field: the interpreter indexes its 16 registers by it. *)
let get_reg s =
  let r = C.get_int s in
  if r < 0 || r >= Insn.num_regs then corrupt "register %d" r else r

let get_operand s =
  match C.get_uvarint s with
  | 0 -> Insn.Imm (C.get_int s)
  | 1 -> Insn.Reg (get_reg s)
  | n -> corrupt "operand tag %d" n

let cond_of = function
  | 0 -> Insn.Eq
  | 1 -> Insn.Ne
  | 2 -> Insn.Lt
  | 3 -> Insn.Le
  | 4 -> Insn.Gt
  | 5 -> Insn.Ge
  | n -> corrupt "cond tag %d" n

let alu_of = function
  | 0 -> Insn.Add
  | 1 -> Insn.Sub
  | 2 -> Insn.Mul
  | 3 -> Insn.Div
  | 4 -> Insn.Rem
  | 5 -> Insn.And
  | 6 -> Insn.Or
  | 7 -> Insn.Xor
  | 8 -> Insn.Shl
  | 9 -> Insn.Shr
  | n -> corrupt "alu tag %d" n

(* ---- instructions ---------------------------------------------------- *)

let put_insn b = function
  | Insn.Nop -> C.put_uvarint b 0
  | Insn.Mov (r, o) ->
    C.put_uvarint b 1;
    C.put_int b r;
    put_operand b o
  | Insn.Alu (op, r, o) ->
    C.put_uvarint b 2;
    C.put_uvarint b (Insn.alu_index op);
    C.put_int b r;
    put_operand b o
  | Insn.Load (d, a, off) ->
    C.put_uvarint b 3;
    C.put_int b d;
    C.put_int b a;
    C.put_int b off
  | Insn.Store (v, a, off) ->
    C.put_uvarint b 4;
    C.put_int b v;
    C.put_int b a;
    C.put_int b off
  | Insn.Load8 (d, a, off) ->
    C.put_uvarint b 5;
    C.put_int b d;
    C.put_int b a;
    C.put_int b off
  | Insn.Store8 (v, a, off) ->
    C.put_uvarint b 6;
    C.put_int b v;
    C.put_int b a;
    C.put_int b off
  | Insn.Jmp a ->
    C.put_uvarint b 7;
    C.put_int b a
  | Insn.Jcc (c, r, o, a) ->
    C.put_uvarint b 8;
    C.put_uvarint b (Insn.cond_index c);
    C.put_int b r;
    put_operand b o;
    C.put_int b a
  | Insn.Call a ->
    C.put_uvarint b 9;
    C.put_int b a
  | Insn.Callr r ->
    C.put_uvarint b 10;
    C.put_int b r
  | Insn.Ret -> C.put_uvarint b 11
  | Insn.Push o ->
    C.put_uvarint b 12;
    put_operand b o
  | Insn.Pop r ->
    C.put_uvarint b 13;
    C.put_int b r
  | Insn.Syscall -> C.put_uvarint b 14
  | Insn.Rdtsc r ->
    C.put_uvarint b 15;
    C.put_int b r
  | Insn.Rdrand r ->
    C.put_uvarint b 16;
    C.put_int b r
  | Insn.Cpuid_core r ->
    C.put_uvarint b 17;
    C.put_int b r
  | Insn.Cas (a, expect, new_, out) ->
    C.put_uvarint b 18;
    C.put_int b a;
    C.put_int b expect;
    C.put_int b new_;
    C.put_int b out
  | Insn.Pause -> C.put_uvarint b 19
  | Insn.Emit (a, v) ->
    C.put_uvarint b 20;
    C.put_int b a;
    C.put_int b v
  | Insn.Hook n ->
    C.put_uvarint b 21;
    C.put_int b n
  | Insn.Halt -> C.put_uvarint b 22

let get_insn s =
  match C.get_uvarint s with
  | 0 -> Insn.Nop
  | 1 ->
    let r = get_reg s in
    Insn.Mov (r, get_operand s)
  | 2 ->
    let op = alu_of (C.get_uvarint s) in
    let r = get_reg s in
    Insn.Alu (op, r, get_operand s)
  | 3 ->
    let d = get_reg s in
    let a = get_reg s in
    Insn.Load (d, a, C.get_int s)
  | 4 ->
    let v = get_reg s in
    let a = get_reg s in
    Insn.Store (v, a, C.get_int s)
  | 5 ->
    let d = get_reg s in
    let a = get_reg s in
    Insn.Load8 (d, a, C.get_int s)
  | 6 ->
    let v = get_reg s in
    let a = get_reg s in
    Insn.Store8 (v, a, C.get_int s)
  | 7 -> Insn.Jmp (C.get_int s)
  | 8 ->
    let c = cond_of (C.get_uvarint s) in
    let r = get_reg s in
    let o = get_operand s in
    Insn.Jcc (c, r, o, C.get_int s)
  | 9 -> Insn.Call (C.get_int s)
  | 10 -> Insn.Callr (get_reg s)
  | 11 -> Insn.Ret
  | 12 -> Insn.Push (get_operand s)
  | 13 -> Insn.Pop (get_reg s)
  | 14 -> Insn.Syscall
  | 15 -> Insn.Rdtsc (get_reg s)
  | 16 -> Insn.Rdrand (get_reg s)
  | 17 -> Insn.Cpuid_core (get_reg s)
  | 18 ->
    let a = get_reg s in
    let expect = get_reg s in
    let new_ = get_reg s in
    Insn.Cas (a, expect, new_, get_reg s)
  | 19 -> Insn.Pause
  | 20 ->
    let a = get_reg s in
    Insn.Emit (a, get_reg s)
  | 21 -> Insn.Hook (C.get_int s)
  | 22 -> Insn.Halt
  | n -> corrupt "insn tag %d" n

(* What each tag's fields are, in the order [get_insn] reads them: a
   register (r), an operand (o), a condition (c), an ALU op (a) or an
   int (i). *)
let insn_fields =
  [| ""; "ro"; "aro"; "rri"; "rri"; "rri"; "rri"; "i"; "croi"; "i"; "r";
     ""; "o"; "r"; ""; "r"; "r"; "r"; "rrrr"; ""; "rr"; "i"; "" |]

let check_operand s =
  match C.get_uvarint s with
  | 0 -> ignore (C.get_int s : int)
  | 1 -> ignore (get_reg s : int)
  | n -> corrupt "operand tag %d" n

let check_insn s =
  let tag = C.get_uvarint s in
  if tag < 0 || tag >= Array.length insn_fields then corrupt "insn tag %d" tag;
  let fields = insn_fields.(tag) in
  for i = 0 to String.length fields - 1 do
    match fields.[i] with
    | 'r' -> ignore (get_reg s : int)
    | 'o' -> check_operand s
    | 'c' -> ignore (cond_of (C.get_uvarint s) : Insn.cond)
    | 'a' -> ignore (alu_of (C.get_uvarint s) : Insn.alu)
    | _ -> ignore (C.get_int s : int)
  done

(* ---- programs and images --------------------------------------------- *)

let put_program b (p : Asm.program) =
  C.put_int b p.Asm.base;
  C.put_array b put_insn p.Asm.code;
  C.put_list b
    (fun b (name, addr) ->
      C.put_string b name;
      C.put_int b addr)
    p.Asm.symbols

let get_program s : Asm.program =
  let base = C.get_int s in
  let code = C.get_array s get_insn in
  let symbols =
    C.get_list s (fun s ->
        let name = C.get_string s in
        (name, C.get_int s))
  in
  { Asm.base; code; symbols }

let put_image b (img : Image.t) =
  C.put_string b img.Image.name;
  put_program b img.Image.prog;
  C.put_int b img.Image.entry;
  C.put_list b
    (fun b (addr, len) ->
      C.put_int b addr;
      C.put_int b len)
    img.Image.data_maps;
  C.put_list b
    (fun b (addr, data) ->
      C.put_int b addr;
      C.put_string b data)
    img.Image.data_init;
  C.put_int b img.Image.stack_size

let check_string s = C.skip s (C.get_uvarint s)

let check_image s =
  check_string s;
  ignore (C.get_int s : int);
  for _ = 1 to C.get_count s do
    check_insn s
  done;
  for _ = 1 to C.get_count s do
    check_string s;
    ignore (C.get_int s : int)
  done;
  ignore (C.get_int s : int);
  for _ = 1 to C.get_count s do
    ignore (C.get_int s : int);
    ignore (C.get_int s : int)
  done;
  for _ = 1 to C.get_count s do
    ignore (C.get_int s : int);
    check_string s
  done;
  ignore (C.get_int s : int)

let get_image s : Image.t =
  let name = C.get_string s in
  let prog = get_program s in
  let entry = C.get_int s in
  let data_maps =
    C.get_list s (fun s ->
        let addr = C.get_int s in
        (addr, C.get_int s))
  in
  let data_init =
    C.get_list s (fun s ->
        let addr = C.get_int s in
        (addr, C.get_string s))
  in
  let stack_size = C.get_int s in
  { Image.name; prog; entry; data_maps; data_init; stack_size }
