(* The guest CPU interpreter.

   [run] executes instructions for one hardware thread until a stop
   condition or fuel exhaustion.  The supervisor (kernel / recorder /
   replayer) decides what each stop means.  The interpreter itself is
   strictly deterministic given the register/memory state and the [env]
   callbacks; all nondeterminism enters through [env] (TSC, RDRAND) and
   through [core] (CPUID core index under migration).

   It stands in for the hardware rr runs tracees on natively, so most
   of a CPU-bound workload's host time is spent in [run].  Its inner
   loop retires register-only instructions without calling anything;
   [exec_one] takes the rest one at a time, and one helper per
   register-only instruction serves both.  No instruction that retires
   normally hashes or allocates (test_isa.ml's "retires without
   allocating" counts the words).  test/cpu_ref.ml keeps the
   interpreter these loops replaced, and a property holds both to the
   same machine state.  DESIGN.md §6 gives the speed and how to measure
   it. *)

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

(* The register-only instructions, written once for [exec_one] and
   [run]'s inner loop.  Each retires its instruction at [pc] and gives
   the next pc.  Register indexes stay bounds-checked: text decoded
   from a checkpoint is untrusted input. *)

let[@inline] operand regs o =
  match o with Insn.Imm v -> v | Insn.Reg s -> regs.(s)

(* Division and remainder by zero fault instead of retiring. *)
let[@inline] divides_by_zero op b =
  match op with Insn.Div | Insn.Rem -> b = 0 | _ -> false

(* [dst := dst op b]; the caller has ruled out a zero divisor. *)
let[@inline] alu regs op r b pc =
  let a = regs.(r) in
  regs.(r) <-
    (match op with
    | Insn.Add -> a + b
    | Insn.Sub -> a - b
    | Insn.Mul -> a * b
    | Insn.Div -> a / b
    | Insn.Rem -> a mod b
    | Insn.And -> a land b
    | Insn.Or -> a lor b
    | Insn.Xor -> a lxor b
    | Insn.Shl -> a lsl (b land 63)
    | Insn.Shr -> a lsr (b land 63));
  pc + 1

let[@inline] mov regs r o pc =
  regs.(r) <- operand regs o;
  pc + 1

let[@inline] jmp pmu t =
  pmu.Pmu.branches <- pmu.Pmu.branches + 1;
  t

(* Retired conditional branch: one deterministic RCB event whether or
   not the branch is taken. *)
let[@inline] jcc regs pmu c r o t pc =
  pmu.Pmu.rcb <- pmu.Pmu.rcb + 1;
  pmu.Pmu.branches <- pmu.Pmu.branches + 1;
  let a = regs.(r) and b = operand regs o in
  let taken =
    match c with
    | Insn.Eq -> a = b
    | Insn.Ne -> a <> b
    | Insn.Lt -> a < b
    | Insn.Le -> a <= b
    | Insn.Gt -> a > b
    | Insn.Ge -> a >= b
  in
  if taken then t else pc + 1

(* Execute exactly one instruction; assumes no breakpoint at pc.
   Returns [None] for ordinary retirement, which allocates nothing. *)
let exec_one env ctx insn =
  let module I = Insn in
  let regs = ctx.regs in
  let pmu = ctx.pmu in
  let sp = I.reg_sp in
  match insn with
  | I.Nop | I.Pause ->
    ctx.pc <- ctx.pc + 1;
    None
  | I.Mov (r, o) ->
    ctx.pc <- mov regs r o ctx.pc;
    None
  | I.Alu (op, r, o) ->
    let b = operand regs o in
    if divides_by_zero op b then Some (Stop_fault (F_div ctx.pc))
    else begin
      ctx.pc <- alu regs op r b ctx.pc;
      None
    end
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
    ctx.pc <- jmp pmu t;
    None
  | I.Jcc (c, r, o, t) ->
    ctx.pc <- jcc regs pmu c r o t ctx.pc;
    None
  | I.Call t ->
    pmu.Pmu.branches <- pmu.Pmu.branches + 1;
    Addr_space.write_u64 ctx.space (regs.(sp) - 8) (ctx.pc + 1);
    regs.(sp) <- regs.(sp) - 8;
    ctx.pc <- t;
    None
  | I.Callr r ->
    pmu.Pmu.branches <- pmu.Pmu.branches + 1;
    Addr_space.write_u64 ctx.space (regs.(sp) - 8) (ctx.pc + 1);
    regs.(sp) <- regs.(sp) - 8;
    ctx.pc <- regs.(r);
    None
  | I.Ret ->
    pmu.Pmu.branches <- pmu.Pmu.branches + 1;
    let target = Addr_space.read_u64 ctx.space regs.(sp) in
    regs.(sp) <- regs.(sp) + 8;
    ctx.pc <- target;
    None
  | I.Push o ->
    Addr_space.write_u64 ctx.space (regs.(sp) - 8) (operand regs o);
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
  | I.Emit (a, v) -> (
    match I.decode regs.(v) with
    | None -> Some (Stop_fault (F_ill ctx.pc))
    | Some insn ->
      incr jit_writes;
      Addr_space.text_write ctx.space regs.(a) insn;
      ctx.pc <- ctx.pc + 1;
      None)
  | I.Halt -> Some (Stop_fault (F_ill ctx.pc))

(* Run until a stop or for at most [fuel] instructions.  Returns the stop
   (None if fuel ran out) and the number of instructions retired.  The
   supervisor sets breakpoints, programs the PMU and sets single-step
   only between runs, so all three are read once, and the PMU is ticked
   only from the RCB count at which a tick can do anything; [pmu.insns]
   moves once, by the instructions retired, since nothing reads it
   during a run.  The loop holds the slots of the text page [pc] is on
   and asks the space for another page only when [pc] leaves it, or
   after an [Emit], which may have copied the page.

   With no breakpoint set and single-step off, the inner loop retires
   [Nop], [Pause], [Mov], [Alu], [Jmp] and [Jcc] on the held page, with
   [pc] and the step count in locals, and touches only the page, the
   registers and the PMU record.  It stops at the end of fuel or of the
   page, and before an instruction of another kind, a zero divisor or
   the [Jcc] that brings RCB to [ticks_from], from which on the PMU
   ticks after every instruction; [exec_one] then retires that one.  A
   slot index is masked to the page's 1024 slots, so its fetch goes
   unchecked. *)
let run env ctx ~fuel =
  let space = ctx.space and pmu = ctx.pmu and regs = ctx.regs in
  let probe_bp = Addr_space.bp_any space in
  let ticks_from = Pmu.ticks_from pmu in
  let single_step = ctx.single_step in
  let inner = not (probe_bp || single_step) in
  let bits = Addr_space.text_page_bits in
  let slot_mask = (1 lsl bits) - 1 in
  let no_page = min_int (* [pc asr bits] never reaches it *) in
  let page_key = ref no_page and page = ref [||] in
  let steps = ref 0 and stop = ref None in
  (try
     while !stop == None && !steps < fuel do
       let pc = ctx.pc in
       if probe_bp && Addr_space.bp_is_set space pc then stop := Some Stop_bkpt
       else begin
         if pc asr bits <> !page_key then begin
           page := Addr_space.text_page space pc;
           page_key := pc asr bits
         end;
         if inner && pmu.Pmu.rcb < ticks_from then begin
           let key = !page_key and slots = !page in
           let pc = ref pc and n = ref !steps in
           while
             !n < fuel
             && !pc asr bits = key
             &&
             match Array.unsafe_get slots (!pc land slot_mask) with
             | Some (Insn.Alu (op, r, o)) ->
               let b = operand regs o in
               (not (divides_by_zero op b))
               && (pc := alu regs op r b !pc;
                   true)
             | Some (Insn.Jcc (c, r, o, t)) ->
               pmu.Pmu.rcb + 1 < ticks_from
               && (pc := jcc regs pmu c r o t !pc;
                   true)
             | Some (Insn.Mov (r, o)) ->
               pc := mov regs r o !pc;
               true
             | Some (Insn.Jmp t) ->
               pc := jmp pmu t;
               true
             | Some (Insn.Nop | Insn.Pause) ->
               incr pc;
               true
             | _ -> false
           do
             incr n
           done;
           ctx.pc <- !pc;
           steps := !n
         end;
         let pc = ctx.pc in
         if !steps < fuel && pc asr bits = !page_key then
           match !page.(pc land slot_mask) with
           | None -> stop := Some (Stop_fault (F_ill pc))
           | Some insn -> (
             (match insn with Insn.Emit _ -> page_key := no_page | _ -> ());
             let s = exec_one env ctx insn in
             incr steps;
             (* The PMU interrupt takes priority over synchronous stops
                only if the instruction retired normally; a syscall/hook
                stop is delivered first and the interrupt stays
                pending. *)
             let fired = pmu.Pmu.rcb >= ticks_from && Pmu.tick_interrupt pmu in
             match s with
             | Some _ -> stop := s
             | None ->
               if fired then stop := Some Stop_pmu
               else if single_step then stop := Some Stop_singlestep)
       end
     done
   with Addr_space.Segv { addr; access } ->
     incr steps;
     stop := Some (Stop_fault (F_segv { addr; access })));
  pmu.Pmu.insns <- pmu.Pmu.insns + !steps;
  (!stop, !steps)

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
