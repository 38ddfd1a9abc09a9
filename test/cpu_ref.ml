(* The interpreter that [Cpu.run] replaced, kept so that tests can
   demand the same machine state from both.  Its [run] is a recursive
   loop over closure-captured refs; each fetch asks the space for the
   instruction ([Addr_space.text_get]), [exec_one] ticks [pmu.insns]
   once per instruction, an armed PMU is ticked after every one, and
   every ALU op, operand and branch condition goes through a helper,
   the condition through a polymorphic compare. *)

open Cpu

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

let interrupt_armed pmu = pmu.Pmu.interrupt <> None

let eval_cond c a b =
  match c with
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b
  | Insn.Lt -> a < b
  | Insn.Le -> a <= b
  | Insn.Gt -> a > b
  | Insn.Ge -> a >= b

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
    if eval_cond c regs.(r) (operand ctx o) then ctx.pc <- t
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
   instruction that retires normally allocates nothing: breakpoints are
   probed only while any are set, the PMU is ticked only while its
   interrupt is armed, and each fetch looks its page up in the space's
   table.  The supervisor sets breakpoints and programs the PMU
   between runs, never during one, so both checks are read once. *)
let run env ctx ~fuel =
  let space = ctx.space in
  let probe_bp = Addr_space.bp_any space in
  let armed = interrupt_armed ctx.pmu in
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
