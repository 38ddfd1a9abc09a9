(* The guest CPU interpreter.

   [run] executes instructions for one hardware thread until a stop
   condition or fuel exhaustion.  The supervisor (kernel / recorder /
   replayer) decides what each stop means.  The interpreter itself is
   strictly deterministic given the register/memory state and the [env]
   callbacks; all nondeterminism enters through [env] (TSC, RDRAND) and
   through [core] (CPUID core index under migration). *)

type ctx = {
  regs : int array;
  mutable pc : int;
  mutable core : int;
  mutable space : Addr_space.t;
  pmu : Pmu.t;
  mutable tsc_trap : bool; (* prctl(PR_SET_TSC, PR_TSC_SIGSEGV) analogue *)
  mutable single_step : bool;
}

type fault =
  | F_segv of { addr : int; access : Addr_space.access }
  | F_ill of int (* pc with no decodable instruction *)
  | F_div of int (* pc of the faulting division *)

type stop =
  | Stop_syscall (* pc is past the syscall insn; site = pc - 1 *)
  | Stop_hook of int (* pc is past the hook insn *)
  | Stop_bkpt (* pc sits on a breakpointed instruction, not yet executed *)
  | Stop_pmu (* programmed counter interrupt fired *)
  | Stop_singlestep
  | Stop_tsc of Insn.reg (* trapped RDTSC; pc is past it *)
  | Stop_fault of fault

type env = { rdtsc : unit -> int; rdrand : unit -> int }

(* Global run-time code-write counter, consumed by the DBI ("null tool")
   cost model: dynamic instrumentation pays dearly for self-modifying
   code.  Snapshot/reset around a run. *)
let jit_writes = ref 0

let create ~space =
  { regs = Array.make Insn.num_regs 0;
    pc = 0;
    core = 0;
    space;
    pmu = Pmu.create ();
    tsc_trap = false;
    single_step = false }

let copy_regs ctx = Array.copy ctx.regs

let operand ctx = function Insn.Imm v -> v | Insn.Reg r -> ctx.regs.(r)

let mask_shift v = v land 63

(* The caller rules out a zero divisor. *)
let alu op a b =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Mul -> a * b
  | Insn.Div -> a / b
  | Insn.Rem -> a mod b
  | Insn.And -> a land b
  | Insn.Or -> a lor b
  | Insn.Xor -> a lxor b
  | Insn.Shl -> a lsl mask_shift b
  | Insn.Shr -> a lsr mask_shift b

(* Execute exactly one instruction; assumes no breakpoint at pc.
   Returns [None] for ordinary retirement, which allocates nothing. *)
let exec_one env ctx insn =
  let module I = Insn in
  let regs = ctx.regs in
  let sp = I.reg_sp in
  ctx.pmu.Pmu.insns <- ctx.pmu.Pmu.insns + 1;
  match insn with
  | I.Nop | I.Pause ->
    ctx.pc <- ctx.pc + 1;
    None
  | I.Mov (r, o) ->
    regs.(r) <- operand ctx o;
    ctx.pc <- ctx.pc + 1;
    None
  | I.Alu ((I.Div | I.Rem), _, o) when operand ctx o = 0 ->
    Some (Stop_fault (F_div ctx.pc))
  | I.Alu (op, r, o) ->
    regs.(r) <- alu op regs.(r) (operand ctx o);
    ctx.pc <- ctx.pc + 1;
    None
  | I.Load (d, b, off) ->
    regs.(d) <- Addr_space.read_u64 ctx.space (regs.(b) + off);
    ctx.pc <- ctx.pc + 1;
    None
  | I.Store (s, b, off) ->
    Addr_space.write_u64 ctx.space (regs.(b) + off) regs.(s);
    ctx.pc <- ctx.pc + 1;
    None
  | I.Load8 (d, b, off) ->
    regs.(d) <- Addr_space.read_u8 ctx.space (regs.(b) + off);
    ctx.pc <- ctx.pc + 1;
    None
  | I.Store8 (s, b, off) ->
    Addr_space.write_u8 ctx.space (regs.(b) + off) regs.(s);
    ctx.pc <- ctx.pc + 1;
    None
  | I.Jmp t ->
    ctx.pmu.Pmu.branches <- ctx.pmu.Pmu.branches + 1;
    ctx.pc <- t;
    None
  | I.Jcc (c, r, o, t) ->
    (* Retired conditional branch: one deterministic RCB event whether or
       not the branch is taken. *)
    ctx.pmu.Pmu.rcb <- ctx.pmu.Pmu.rcb + 1;
    ctx.pmu.Pmu.branches <- ctx.pmu.Pmu.branches + 1;
    if I.eval_cond c regs.(r) (operand ctx o) then ctx.pc <- t
    else ctx.pc <- ctx.pc + 1;
    None
  | I.Call t ->
    ctx.pmu.Pmu.branches <- ctx.pmu.Pmu.branches + 1;
    Addr_space.write_u64 ctx.space (regs.(sp) - 8) (ctx.pc + 1);
    regs.(sp) <- regs.(sp) - 8;
    ctx.pc <- t;
    None
  | I.Callr r ->
    ctx.pmu.Pmu.branches <- ctx.pmu.Pmu.branches + 1;
    Addr_space.write_u64 ctx.space (regs.(sp) - 8) (ctx.pc + 1);
    regs.(sp) <- regs.(sp) - 8;
    ctx.pc <- regs.(r);
    None
  | I.Ret ->
    ctx.pmu.Pmu.branches <- ctx.pmu.Pmu.branches + 1;
    let target = Addr_space.read_u64 ctx.space regs.(sp) in
    regs.(sp) <- regs.(sp) + 8;
    ctx.pc <- target;
    None
  | I.Push o ->
    Addr_space.write_u64 ctx.space (regs.(sp) - 8) (operand ctx o);
    regs.(sp) <- regs.(sp) - 8;
    ctx.pc <- ctx.pc + 1;
    None
  | I.Pop r ->
    let v = Addr_space.read_u64 ctx.space regs.(sp) in
    regs.(sp) <- regs.(sp) + 8;
    regs.(r) <- v;
    ctx.pc <- ctx.pc + 1;
    None
  | I.Syscall ->
    ctx.pc <- ctx.pc + 1;
    Some Stop_syscall
  | I.Hook n ->
    ctx.pc <- ctx.pc + 1;
    Some (Stop_hook n)
  | I.Rdtsc r ->
    ctx.pc <- ctx.pc + 1;
    if ctx.tsc_trap then Some (Stop_tsc r)
    else begin
      regs.(r) <- env.rdtsc ();
      None
    end
  | I.Rdrand r ->
    regs.(r) <- env.rdrand ();
    ctx.pc <- ctx.pc + 1;
    None
  | I.Cpuid_core r ->
    regs.(r) <- ctx.core;
    ctx.pc <- ctx.pc + 1;
    None
  | I.Cas (a, e, n, d) ->
    (* Deterministic atomic, like x86 CMPXCHG (paper §5.1: unlike ARM
       LL/SC, this never fails for reasons invisible to user space). *)
    let addr = regs.(a) in
    let cur = Addr_space.read_u64 ctx.space addr in
    if cur = regs.(e) then begin
      Addr_space.write_u64 ctx.space addr regs.(n);
      regs.(d) <- 1
    end
    else begin
      regs.(e) <- cur;
      regs.(d) <- 0
    end;
    ctx.pc <- ctx.pc + 1;
    None
  | I.Emit (a, v) ->
    (match I.decode regs.(v) with
    | None -> Some (Stop_fault (F_ill ctx.pc))
    | Some insn ->
      incr jit_writes;
      Addr_space.text_write ctx.space regs.(a) insn;
      ctx.pc <- ctx.pc + 1;
      None)
  | I.Halt -> Some (Stop_fault (F_ill ctx.pc))

(* Run until a stop or for at most [fuel] instructions.  Returns the stop
   (None if fuel ran out) and the number of instructions retired.  An
   instruction that retires normally costs no hashing and no allocation:
   breakpoints are probed only while any are set, the PMU is ticked only
   while its interrupt is armed, and the fetch hits the space's cached
   text page.  The supervisor sets breakpoints and programs the PMU
   between runs, never during one, so both checks are read once. *)
let run env ctx ~fuel =
  let space = ctx.space in
  let probe_bp = Addr_space.bp_any space in
  let armed = Pmu.interrupt_armed ctx.pmu in
  let steps = ref 0 in
  let rec loop () =
    if !steps >= fuel then None
    else
      let pc = ctx.pc in
      if probe_bp && Addr_space.bp_is_set space pc then Some Stop_bkpt
      else
        match Addr_space.text_get space pc with
        | None -> Some (Stop_fault (F_ill pc))
        | Some insn -> (
          let s = exec_one env ctx insn in
          incr steps;
          (* The PMU interrupt takes priority over synchronous stops only
             if the instruction retired normally; a syscall/hook stop is
             delivered first and the interrupt stays pending. *)
          let fired = armed && Pmu.tick_interrupt ctx.pmu in
          match s with
          | Some _ -> s
          | None ->
            if fired then Some Stop_pmu
            else if ctx.single_step then Some Stop_singlestep
            else loop ())
  in
  let stop =
    try loop ()
    with Addr_space.Segv { addr; access } ->
      incr steps;
      Some (Stop_fault (F_segv { addr; access }))
  in
  (stop, !steps)

let pp_fault ppf = function
  | F_segv { addr; access } ->
    let a =
      match access with
      | Addr_space.Read -> "read"
      | Addr_space.Write -> "write"
      | Addr_space.Exec -> "exec"
    in
    Fmt.pf ppf "SEGV(%s @ %#x)" a addr
  | F_ill pc -> Fmt.pf ppf "ILL(pc=%#x)" pc
  | F_div pc -> Fmt.pf ppf "DIV(pc=%#x)" pc

let pp_stop ppf = function
  | Stop_syscall -> Fmt.string ppf "syscall"
  | Stop_hook n -> Fmt.pf ppf "hook(%d)" n
  | Stop_bkpt -> Fmt.string ppf "bkpt"
  | Stop_pmu -> Fmt.string ppf "pmu"
  | Stop_singlestep -> Fmt.string ppf "singlestep"
  | Stop_tsc r -> Fmt.pf ppf "tsc(r%d)" r
  | Stop_fault f -> pp_fault ppf f
