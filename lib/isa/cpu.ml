(* The guest CPU interpreter.

   [run] executes instructions for one hardware thread until a stop
   condition or fuel exhaustion.  The supervisor (kernel / recorder /
   replayer) decides what each stop means.  The interpreter itself is
   strictly deterministic given the register/memory state and the [env]
   callbacks; all nondeterminism enters through [env] (TSC, RDRAND) and
   through [core] (CPUID core index under migration).

   It stands in for the hardware rr runs tracees on natively, so most
   of a CPU-bound workload's host time is spent in [run].  That is one
   [while] loop over locals: what the supervisor changes only between
   runs is read once, the loop holds the slots of the current text
   page, and [exec_one] resolves every ALU op and branch condition over
   [int] in place.  An ALU op or a branch calls nothing outside this
   module, and no instruction that retires normally hashes or
   allocates (test_isa.ml's "retires without allocating" counts the
   words).  test/cpu_ref.ml keeps the interpreter this loop replaced,
   and a property holds both to the same machine state.  DESIGN.md §6
   gives the speed and how to measure it. *)

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

(* Execute exactly one instruction; assumes no breakpoint at pc.  Every
   ALU op and branch condition is resolved here over [int].  Returns
   [None] for ordinary retirement, which allocates nothing. *)
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
    regs.(r) <- (match o with I.Imm v -> v | I.Reg s -> regs.(s));
    ctx.pc <- ctx.pc + 1;
    None
  | I.Alu (op, r, o) -> (
    let b = match o with I.Imm v -> v | I.Reg s -> regs.(s) in
    match op with
    | (I.Div | I.Rem) when b = 0 -> Some (Stop_fault (F_div ctx.pc))
    | _ ->
      let a = regs.(r) in
      regs.(r) <-
        (match op with
        | I.Add -> a + b
        | I.Sub -> a - b
        | I.Mul -> a * b
        | I.Div -> a / b
        | I.Rem -> a mod b
        | I.And -> a land b
        | I.Or -> a lor b
        | I.Xor -> a lxor b
        | I.Shl -> a lsl (b land 63)
        | I.Shr -> a lsr (b land 63));
      ctx.pc <- ctx.pc + 1;
      None)
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
    pmu.Pmu.branches <- pmu.Pmu.branches + 1;
    ctx.pc <- t;
    None
  | I.Jcc (c, r, o, t) ->
    (* Retired conditional branch: one deterministic RCB event whether or
       not the branch is taken. *)
    pmu.Pmu.rcb <- pmu.Pmu.rcb + 1;
    pmu.Pmu.branches <- pmu.Pmu.branches + 1;
    let a = regs.(r) and b = match o with I.Imm v -> v | I.Reg s -> regs.(s) in
    let taken =
      match c with
      | I.Eq -> a = b
      | I.Ne -> a <> b
      | I.Lt -> a < b
      | I.Le -> a <= b
      | I.Gt -> a > b
      | I.Ge -> a >= b
    in
    ctx.pc <- (if taken then t else ctx.pc + 1);
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
    Addr_space.write_u64 ctx.space (regs.(sp) - 8)
      (match o with I.Imm v -> v | I.Reg s -> regs.(s));
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
   after an [Emit], which may have copied the page.  An instruction
   that retires normally hashes nothing and allocates nothing. *)
let run env ctx ~fuel =
  let space = ctx.space and pmu = ctx.pmu in
  let probe_bp = Addr_space.bp_any space in
  let ticks_from = Pmu.ticks_from pmu in
  let armed = ticks_from < max_int in
  let single_step = ctx.single_step in
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
         match !page.(pc land slot_mask) with
         | None -> stop := Some (Stop_fault (F_ill pc))
         | Some insn -> (
           (match insn with Insn.Emit _ -> page_key := no_page | _ -> ());
           let s = exec_one env ctx insn in
           incr steps;
           (* The PMU interrupt takes priority over synchronous stops only
              if the instruction retired normally; a syscall/hook stop is
              delivered first and the interrupt stays pending. *)
           let fired =
             armed && pmu.Pmu.rcb >= ticks_from && Pmu.tick_interrupt pmu
           in
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
