(* Classic BPF, as used by seccomp filters.

   A real (interpreted) bytecode machine: accumulator, index register,
   scratch memory, forward-relative conditional jumps.  The recorder
   builds its PC-keyed filter out of these instructions, and patches
   tracee-installed filters by *prepending* an allow-prologue — sound
   because classic-BPF jumps are forward-relative (paper §2.3.5).

   Loads address the seccomp_data structure; we allow full-width loads
   instead of x86's 32-bit halves, which changes nothing semantically. *)

type insn =
  | Ld_abs of int (* A := data[off] *)
  | Ld_imm of int (* A := k *)
  | Ldx_imm of int (* X := k *)
  | Tax (* X := A *)
  | Txa (* A := X *)
  | St of int (* M[k] := A *)
  | Ldm of int (* A := M[k] *)
  | Alu_and of int
  | Alu_or of int
  | Alu_add of int
  | Jmp of int (* unconditional, relative *)
  | Jeq of int * int * int (* k, jump-if-true, jump-if-false *)
  | Jgt of int * int * int
  | Jge of int * int * int
  | Jset of int * int * int (* (A land k) <> 0 *)
  | Ret of int
  | Ret_a

type program = insn array

(* seccomp_data field offsets. *)
let data_nr = 0
let data_arch = 4
let data_ip = 8
let data_arg n = 16 + (8 * n)

(* seccomp return actions, SECCOMP_RET values. *)
let ret_kill = 0x0000_0000
let ret_trap = 0x0003_0000
let ret_errno e = 0x0005_0000 lor (e land 0xffff)
let ret_trace = 0x7ff0_0000
let ret_allow = 0x7fff_0000

let action_mask = 0x7fff_0000
let action_of v = v land action_mask
let errno_of v = v land 0xffff

type data = { nr : int; arch : int; ip : int; args : int array }

let scratch_size = 16

exception Bad_program of string

let load data off =
  if off = data_nr then data.nr
  else if off = data_arch then data.arch
  else if off = data_ip then data.ip
  else
    let rec find n = if n >= 6 then raise (Bad_program "bad load offset")
      else if off = data_arg n then data.args.(n)
      else find (n + 1)
    in
    find 0

(* Execute a filter.  Diverging or ill-formed programs raise
   [Bad_program]; the kernel treats that as RET_KILL, like Linux's
   verifier would have rejected them at install time. *)
let run (prog : program) (data : data) =
  let m = Array.make scratch_size 0 in
  let a = ref 0 and x = ref 0 in
  let len = Array.length prog in
  let fuel = ref (len * 4) in
  let rec step pc =
    if pc < 0 || pc >= len then raise (Bad_program "pc out of range");
    decr fuel;
    if !fuel < 0 then raise (Bad_program "loop");
    match prog.(pc) with
    | Ld_abs off -> a := load data off; step (pc + 1)
    | Ld_imm k -> a := k; step (pc + 1)
    | Ldx_imm k -> x := k; step (pc + 1)
    | Tax -> x := !a; step (pc + 1)
    | Txa -> a := !x; step (pc + 1)
    | St k ->
      if k < 0 || k >= scratch_size then raise (Bad_program "scratch");
      m.(k) <- !a;
      step (pc + 1)
    | Ldm k ->
      if k < 0 || k >= scratch_size then raise (Bad_program "scratch");
      a := m.(k);
      step (pc + 1)
    | Alu_and k -> a := !a land k; step (pc + 1)
    | Alu_or k -> a := !a lor k; step (pc + 1)
    | Alu_add k -> a := !a + k; step (pc + 1)
    | Jmp off ->
      if off < 0 then raise (Bad_program "backward jump");
      step (pc + 1 + off)
    | Jeq (k, t, f) -> jump pc (!a = k) t f
    | Jgt (k, t, f) -> jump pc (!a > k) t f
    | Jge (k, t, f) -> jump pc (!a >= k) t f
    | Jset (k, t, f) -> jump pc (!a land k <> 0) t f
    | Ret k -> k
    | Ret_a -> !a
  and jump pc cond t f =
    if t < 0 || f < 0 then raise (Bad_program "backward jump");
    step (pc + 1 + if cond then t else f)
  in
  step 0

(* The filter a sandbox typically installs: allow a whitelist of syscall
   numbers, direct the rest to [deny] (default: errno EPERM). *)
let whitelist ?(deny = ret_errno Errno.eperm) allowed : program =
  let n = List.length allowed in
  (* Layout: [Ld_abs; Jeq_0; ...; Jeq_{n-1}; Ret deny; Ret allow].  The
     i-th Jeq sits at index i+1 and must reach index n+2 when true. *)
  Array.of_list
    ((Ld_abs data_nr :: List.mapi (fun i nr -> Jeq (nr, n - i, 0)) allowed)
    @ [ Ret deny; Ret ret_allow ])

(* rr's recorder filter: allow when the program counter sits at the
   untraced-syscall instruction, trace everything else. *)
let rr_filter ~untraced_ip : program =
  [| Ld_abs data_ip; Jeq (untraced_ip, 0, 1); Ret ret_allow; Ret ret_trace |]

(* Patch a tracee-installed filter with rr's allow-prologue: if the PC is
   the privileged instruction, allow immediately; otherwise run the
   original filter.  Prepending preserves the original's forward-relative
   jumps. *)
let patch_with_prologue ~privileged_ip (prog : program) : program =
  Array.append
    [| Ld_abs data_ip; Jeq (privileged_ip, 0, 1); Ret ret_allow |]
    prog
