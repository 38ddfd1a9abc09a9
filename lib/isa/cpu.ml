(* The guest CPU interpreter.

   [run] executes instructions for one hardware thread until a stop
   condition or fuel exhaustion.  The supervisor (kernel / recorder /
   replayer) decides what each stop means.  The interpreter itself is
   strictly deterministic given the register/memory state and the [env]
   callbacks; all nondeterminism enters through [env] (TSC, RDRAND) and
   through [core] (CPUID core index under migration).

   It stands in for the hardware rr runs tracees on natively, so most
   of a CPU-bound workload's host time is spent in [run].  Its inner
   loop retires register-only instructions, and loads, pops and returns,
   from the predecoded words of the text page it holds (addr_space.ml's
   header has the format): one flat jump table on the word's tag, each
   case's arithmetic written in place, reading only the word, the
   register array, the PMU record and the data frame [run] holds for
   reads, a software TLB of one page (Bellard, "QEMU, a Fast and
   Portable Dynamic Translator", 2005).  [run] retires stores, pushes
   and calls against the frame it holds for writes, and [exec_one]
   takes the rest one at a time, from the page's instruction array.
   Before the held frames, jit_compute's roughly 102k [Callr]/[Ret]
   pairs cost about 12 ms of a 34 ms untraced run: an [Addr_space]
   [write_u64] plus [read_u64] took 29-38 ns against 5-7 ns for
   [Mem.set_u64] plus [get_u64] on the same frame, each trip out of the
   loop through [exec_one] about 15 ns, and each switch between two
   text pages through [Addr_space.text_page] 8-10 ns (DESIGN.md §6).
   No instruction that retires normally allocates (test_isa.ml's
   "retires without allocating" counts the words), and none hashes
   unless it leaves both text windows [run] holds.  test/cpu_ref.ml
   keeps the interpreter these loops replaced, and a property holds
   both to the same machine state.  DESIGN.md §6 gives the speed and
   how to measure it. *)

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

let[@inline] operand regs o =
  match o with Insn.Imm v -> v | Insn.Reg s -> regs.(s)

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
    regs.(r) <- operand regs o;
    ctx.pc <- ctx.pc + 1;
    None
  | I.Alu ((I.Div | I.Rem), _, o) when operand regs o = 0 ->
    Some (Stop_fault (F_div ctx.pc))
  | I.Alu (op, r, o) ->
    let a = regs.(r) and b = operand regs o in
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
    pmu.Pmu.branches <- pmu.Pmu.branches + 1;
    ctx.pc <- t;
    None
  | I.Jcc (c, r, o, t) ->
    (* Retired conditional branch: one deterministic RCB event whether
       or not the branch is taken. *)
    pmu.Pmu.rcb <- pmu.Pmu.rcb + 1;
    pmu.Pmu.branches <- pmu.Pmu.branches + 1;
    let a = regs.(r) and b = operand regs o in
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

(* A word's fields (addr_space.ml's header has the layout). *)
let[@inline] reg_a w = (w lsr 6) land 15
let[@inline] reg_b w = (w lsr 10) land 15
let[@inline] imm w = w asr 10 (* immediate; [Jmp], [Call] target *)
let[@inline] beside_b w = w asr 14 (* [Jcc] target; [Load], [Store] offset *)
let[@inline] jcc_i_target w = (w lsr 10) land 0xffff_ffff
let[@inline] jcc_i_imm w = w asr 42

(* The held data pages.  [Mem] keeps its page size abstract to the
   compiler, so the loop's shift and mask are checked against it once. *)
let page_bits = 12
let page_mask = (1 lsl page_bits) - 1
let () = assert (Mem.page_size = 1 lsl page_bits)

(* Whether a u64 at [addr] lies wholly on page [idx]: [idx] is -1 for
   no page, which [lsr] never gives. *)
let[@inline] on_page idx addr =
  addr lsr page_bits = idx && addr land page_mask <= page_mask - 7

(* The u64 at [addr] in the held frame, read in place as [Mem.get_u64]
   reads it (the stdlib's accessor inlines; [Mem]'s would be a call). *)
let[@inline] load (frame : Mem.page) addr =
  Int64.to_int
    (Bytes.get_int64_le frame.Mem.bytes (frame.Mem.off + (addr land page_mask)))

(* What no run holds; [-1] page indexes keep it from being read. *)
let no_frame = Mem.fresh_page ~prot:0 ~shared:false

(* Register fields are 4 bits, and [run] checks once that [regs] has 16
   slots, so the inner loop indexes it unchecked. *)
let[@inline] get (regs : int array) r = Array.unsafe_get regs r
let[@inline] set (regs : int array) r v = Array.unsafe_set regs r v

(* A retired conditional branch: one deterministic RCB event whether or
   not it is taken.  The inner loop retires one only while that keeps
   RCB below the PMU's tick point. *)
let[@inline] count_jcc pmu =
  pmu.Pmu.rcb <- pmu.Pmu.rcb + 1;
  pmu.Pmu.branches <- pmu.Pmu.branches + 1

let[@inline] tick_ahead pmu ticks_from = pmu.Pmu.rcb + 1 < ticks_from

(* [run]'s inner loop, from [ctx.pc] in the window of [words] at [base]
   with [steps] retired: retires register-only words, and loads, pops
   and returns whose u64 lies on page [rd], read in place from the held
   [frame], until one of the limits [run] gives.  Sets [ctx.pc] and
   returns the step count.  It calls nothing, so its locals stay in
   registers; [run] retires the stores, through [Mem.set_u64].  [run]
   has checked that [ctx.regs] has 16 slots. *)
let retire_words ctx words base ~ticks_from ~fuel ~frame ~rd steps =
  let regs = ctx.regs and pmu = ctx.pmu in
  let last = Array.length words - 1 in
  let pc = ref ctx.pc and n = ref steps and go = ref true in
  while !go && !n < fuel do
    let i = !pc - base in
    (* Negative exactly when [i] is outside 0..[last]. *)
    if i lor (last - i) < 0 then go := false
    else begin
      let w = Array.unsafe_get words i in
      (* From 4 on, tags pair up: the even one takes register [b], the
         odd one an immediate. *)
      match w land 63 with
      | 2 (* Nop, Pause *) ->
        pc := !pc + 1;
        incr n
      | 3 (* Jmp *) ->
        pmu.Pmu.branches <- pmu.Pmu.branches + 1;
        pc := imm w;
        incr n
      | 4 (* Mov, register *) ->
        set regs (reg_a w) (get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 5 (* Mov, immediate *) ->
        set regs (reg_a w) (imm w);
        pc := !pc + 1;
        incr n
      | 6 (* Add *) ->
        let a = reg_a w in
        set regs a (get regs a + get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 7 ->
        let a = reg_a w in
        set regs a (get regs a + imm w);
        pc := !pc + 1;
        incr n
      | 8 (* Sub *) ->
        let a = reg_a w in
        set regs a (get regs a - get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 9 ->
        let a = reg_a w in
        set regs a (get regs a - imm w);
        pc := !pc + 1;
        incr n
      | 10 (* Mul *) ->
        let a = reg_a w in
        set regs a (get regs a * get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 11 ->
        let a = reg_a w in
        set regs a (get regs a * imm w);
        pc := !pc + 1;
        incr n
      | 12 (* Div; a zero divisor faults in [exec_one] *)
        when get regs (reg_b w) <> 0 ->
        let a = reg_a w in
        set regs a (get regs a / get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 13 (* never [Imm 0] *) ->
        let a = reg_a w in
        set regs a (get regs a / imm w);
        pc := !pc + 1;
        incr n
      | 14 (* Rem, as Div *) when get regs (reg_b w) <> 0 ->
        let a = reg_a w in
        set regs a (get regs a mod get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 15 ->
        let a = reg_a w in
        set regs a (get regs a mod imm w);
        pc := !pc + 1;
        incr n
      | 16 (* And *) ->
        let a = reg_a w in
        set regs a (get regs a land get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 17 ->
        let a = reg_a w in
        set regs a (get regs a land imm w);
        pc := !pc + 1;
        incr n
      | 18 (* Or *) ->
        let a = reg_a w in
        set regs a (get regs a lor get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 19 ->
        let a = reg_a w in
        set regs a (get regs a lor imm w);
        pc := !pc + 1;
        incr n
      | 20 (* Xor *) ->
        let a = reg_a w in
        set regs a (get regs a lxor get regs (reg_b w));
        pc := !pc + 1;
        incr n
      | 21 ->
        let a = reg_a w in
        set regs a (get regs a lxor imm w);
        pc := !pc + 1;
        incr n
      | 22 (* Shl *) ->
        let a = reg_a w in
        set regs a (get regs a lsl (get regs (reg_b w) land 63));
        pc := !pc + 1;
        incr n
      | 23 ->
        let a = reg_a w in
        set regs a (get regs a lsl (imm w land 63));
        pc := !pc + 1;
        incr n
      | 24 (* Shr *) ->
        let a = reg_a w in
        set regs a (get regs a lsr (get regs (reg_b w) land 63));
        pc := !pc + 1;
        incr n
      | 25 ->
        let a = reg_a w in
        set regs a (get regs a lsr (imm w land 63));
        pc := !pc + 1;
        incr n
      | 26 (* Jcc Eq, register *) when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) = get regs (reg_b w) then
            beside_b w
          else !pc + 1;
        incr n
      | 27 (* Jcc Eq, immediate *) when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) = jcc_i_imm w then jcc_i_target w
          else !pc + 1;
        incr n
      | 28 (* Ne *) when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) <> get regs (reg_b w) then
            beside_b w
          else !pc + 1;
        incr n
      | 29 when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) <> jcc_i_imm w then jcc_i_target w
          else !pc + 1;
        incr n
      | 30 (* Lt *) when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) < get regs (reg_b w) then
            beside_b w
          else !pc + 1;
        incr n
      | 31 when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) < jcc_i_imm w then jcc_i_target w
          else !pc + 1;
        incr n
      | 32 (* Le *) when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) <= get regs (reg_b w) then
            beside_b w
          else !pc + 1;
        incr n
      | 33 when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) <= jcc_i_imm w then jcc_i_target w
          else !pc + 1;
        incr n
      | 34 (* Gt *) when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) > get regs (reg_b w) then
            beside_b w
          else !pc + 1;
        incr n
      | 35 when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) > jcc_i_imm w then jcc_i_target w
          else !pc + 1;
        incr n
      | 36 (* Ge *) when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) >= get regs (reg_b w) then
            beside_b w
          else !pc + 1;
        incr n
      | 37 when tick_ahead pmu ticks_from ->
        count_jcc pmu;
        pc :=
          if get regs (reg_a w) >= jcc_i_imm w then jcc_i_target w
          else !pc + 1;
        incr n
      | 38 (* Load *) ->
        let addr = get regs (reg_b w) + beside_b w in
        if on_page rd addr then begin
          set regs (reg_a w) (load frame addr);
          pc := !pc + 1;
          incr n
        end
        else go := false
      | 39 (* Pop *) ->
        let sp = get regs 15 in
        if on_page rd sp then begin
          set regs 15 (sp + 8);
          set regs (reg_a w) (load frame sp);
          pc := !pc + 1;
          incr n
        end
        else go := false
      | 40 (* Ret *) ->
        let sp = get regs 15 in
        if on_page rd sp then begin
          pmu.Pmu.branches <- pmu.Pmu.branches + 1;
          pc := load frame sp;
          set regs 15 (sp + 8);
          incr n
        end
        else go := false
      | _ ->
        (* an empty or general slot, a zero divisor, the [Jcc] that
           reaches the tick point, a load off the page held for reads,
           or a store: [run] *)
        go := false
    end
  done;
  ctx.pc <- !pc;
  !n

(* Whether text page [p]'s window holds [pc]. *)
let[@inline] in_window (p : Addr_space.text_page) pc =
  let i = pc - p.Addr_space.page_base in
  i >= 0 && i < Array.length p.Addr_space.page_words

(* The address of the u64 a memory word (tags 38-45) accesses, from the
   registers as they stand before it retires. *)
let access_addr regs w =
  match w land 63 with
  | 38 | 41 (* Load, Store *) -> get regs (reg_b w) + beside_b w
  | 39 | 40 (* Pop, Ret *) -> get regs 15
  | _ (* Push, Call, Callr *) -> get regs 15 - 8

(* Retires a store, push or call (tags 41-45) whose u64 at [addr] lies
   on the held [frame].  [run] retires these, not [retire_words]: a call
   to [Mem.set_u64] there sent that loop's locals to the stack, which
   slowed a register-only loop from about 4.1 to 5.9 ns an instruction
   in a trial build. *)
let retire_store ctx frame w addr =
  let regs = ctx.regs and pmu = ctx.pmu and pc = ctx.pc in
  match w land 63 with
  | 41 (* Store *) ->
    Mem.set_u64 frame (addr land page_mask) (get regs (reg_a w));
    ctx.pc <- pc + 1
  | 42 | 43 (* Push, register or immediate *) ->
    Mem.set_u64 frame (addr land page_mask)
      (if w land 1 = 0 then get regs (reg_a w) else imm w);
    set regs 15 addr;
    ctx.pc <- pc + 1
  | tag (* Call, Callr: the target is read after [sp] moves *) ->
    pmu.Pmu.branches <- pmu.Pmu.branches + 1;
    Mem.set_u64 frame (addr land page_mask) (pc + 1);
    set regs 15 addr;
    ctx.pc <- (if tag = 44 then imm w else get regs (reg_a w))

(* Run until a stop or for at most [fuel] instructions.  Returns the stop
   (None if fuel ran out) and the number of instructions retired.  The
   supervisor sets breakpoints, programs the PMU and sets single-step
   only between runs, so all three are read once, and the PMU is ticked
   only from the RCB count at which a tick can do anything; [pmu.insns]
   moves once, by the instructions retired, since nothing reads it
   during a run.  The loop holds the window of the text page [pc] is on
   and the one it left last, and asks the space for another page only
   when [pc] leaves both, so a call into a JIT page and its return hash
   nothing.  After an [Emit], which may have copied or widened a page,
   it asks again and forgets the other.  A [pc] outside the window of
   its own page, or on an empty slot, has no instruction: [F_ill].

   With no breakpoint set and single-step off, the inner loop retires
   the instructions whose word has a register-only tag, and the loads,
   pops and returns whose u64 lies wholly on the page held for reads,
   with [pc] and the step count in locals, and touches only the held
   words and frame, the registers and the PMU record.  A fetch is one
   test of [pc - base] against the window's length.  The loop stops at
   the end of fuel or of the window, and before a general or empty
   slot, a zero divisor in a register, the [Jcc] that brings RCB to
   [ticks_from], from which on the PMU ticks after every instruction, a
   store, or a load off the page held for reads.  A store on the page
   held for writes retires here; [exec_one] retires anything else from
   the instruction array.

   A run holds two data pages, one for reads and one for writes, so a
   loop that copies from one page to another refills neither; both last
   one run and start empty.  A load, pop or return that misses the read
   hold, and lies wholly on one page, holds that page for reading
   through [Addr_space.hold_page], and a store, push or call that misses
   the write hold holds its page for writing; the next pass retires the
   instruction against the new hold, a load in [retire_words] and a
   store here, through [Mem.set_u64] ([retire_store]).  A write hold on
   a readable page becomes the read hold too, so a read hold of that
   page follows the frame the write gate gave; on a page without
   [prot_r] it serves no load.  Before [exec_one] retires anything, both
   holds are dropped: a byte store, a [Cas] or a u64 that straddles two
   pages may unshare a held frame.  A hold that faults is dropped too,
   and [exec_one] faults as it always has, after counting a call's or
   return's branch. *)
let run env ctx ~fuel =
  let space = ctx.space and pmu = ctx.pmu and regs = ctx.regs in
  let probe_bp = Addr_space.bp_any space in
  let ticks_from = Pmu.ticks_from pmu in
  let single_step = ctx.single_step in
  let inner =
    (not (probe_bp || single_step)) && Array.length regs = Insn.num_regs
  in
  let page = ref (Addr_space.text_page space ctx.pc) in
  let left = ref !page in
  let rframe = ref no_frame and rd = ref (-1) in
  let wframe = ref no_frame and wr = ref (-1) in
  let steps = ref 0 and stop = ref None in
  (try
     while !stop == None && !steps < fuel do
       let pc = ctx.pc in
       if probe_bp && Addr_space.bp_is_set space pc then stop := Some Stop_bkpt
       else begin
         if not (in_window !page pc) then begin
           let p =
             if in_window !left pc then !left else Addr_space.text_page space pc
           in
           left := !page;
           page := p
         end;
         let p = !page in
         let base = p.Addr_space.page_base
         and words = p.Addr_space.page_words in
         if not (in_window p pc) then stop := Some (Stop_fault (F_ill pc))
         else begin
           (* Once RCB reaches [ticks_from] it stays there for the run,
              and the held pages are not used again. *)
           let fast = inner && pmu.Pmu.rcb < ticks_from in
           if fast then
             steps :=
               retire_words ctx words base ~ticks_from ~fuel ~frame:!rframe
                 ~rd:!rd !steps;
           let pc = ctx.pc in
           if !steps < fuel && in_window p pc then begin
             let w = words.(pc - base) in
             (* Tags 38-40 load, 41-45 store. *)
             let tag = w land 63 in
             let addr = if fast && tag >= 38 then access_addr regs w else 0 in
             if w = 0 then stop := Some (Stop_fault (F_ill pc))
             else if fast && tag >= 41 && on_page !wr addr then begin
               retire_store ctx !wframe w addr;
               incr steps
             end
             else if
               fast && tag >= 38
               && addr land page_mask <= page_mask - 7
               &&
               match Addr_space.hold_page space addr ~write:(tag >= 41) with
               | f ->
                 let idx = addr lsr page_bits in
                 if tag >= 41 then begin
                   wframe := f;
                   wr := idx
                 end;
                 if f.Mem.prot land Mem.prot_r <> 0 then begin
                   rframe := f;
                   rd := idx
                 end;
                 true
               | exception Addr_space.Segv _ -> false
             then () (* the next pass retires it against the new hold *)
             else begin
               let insn = p.Addr_space.page_insns.(pc - base) in
               rd := -1;
               wr := -1;
               let s = exec_one env ctx insn in
               incr steps;
               (match insn with
               | Insn.Emit _ ->
                 page := Addr_space.text_page space ctx.pc;
                 left := !page
               | _ -> ());
               (* The PMU interrupt takes priority over synchronous stops
                  only if the instruction retired normally; a syscall/hook
                  stop is delivered first and the interrupt stays
                  pending. *)
               let fired =
                 pmu.Pmu.rcb >= ticks_from && Pmu.tick_interrupt pmu
               in
               match s with
               | Some _ -> stop := s
               | None ->
                 if fired then stop := Some Stop_pmu
                 else if single_step then stop := Some Stop_singlestep
             end
           end
         end
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
