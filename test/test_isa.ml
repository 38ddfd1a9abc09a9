(* Tests for the ISA substrate: assembler, memory, CPU semantics, PMU
   determinism. *)

open Isa_test_util

let test_assemble_labels () =
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.label "start";
        Asm.movi 1 5;
        Asm.label "loop";
        Asm.subi 1 1;
        Asm.jnz 1 "loop";
        Asm.ret ]
  in
  Alcotest.(check int) "start" 0x1000 (Asm.symbol prog "start");
  Alcotest.(check int) "loop" 0x1001 (Asm.symbol prog "loop");
  Alcotest.(check int) "length" 4 (Asm.length prog)

let test_assemble_duplicate () =
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.label "x"; Asm.label "x" ]))

let test_assemble_undefined () =
  Alcotest.check_raises "undefined" (Asm.Undefined_label "nowhere") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.jmp "nowhere" ]))

let test_mem_rw () =
  let space = Addr_space.create ~id:1 in
  ignore (Addr_space.map space ~addr:0x4000 ~len:8192 ~prot:Mem.prot_rw ());
  Addr_space.write_u64 space 0x4000 42;
  Alcotest.(check int) "u64" 42 (Addr_space.read_u64 space 0x4000);
  Addr_space.write_u64 space 0x4ffc (-123456789);
  Alcotest.(check int) "cross-page u64" (-123456789)
    (Addr_space.read_u64 space 0x4ffc);
  Addr_space.write_u8 space 0x4100 0x7f;
  Alcotest.(check int) "u8" 0x7f (Addr_space.read_u8 space 0x4100)

let test_mem_unmapped () =
  let space = Addr_space.create ~id:1 in
  match Addr_space.read_u64 space 0x9999_0000 with
  | _ -> Alcotest.fail "expected Segv"
  | exception Addr_space.Segv { addr; _ } ->
    Alcotest.(check int) "fault addr" 0x9999_0000 addr

let test_mem_prot () =
  let space = Addr_space.create ~id:1 in
  ignore (Addr_space.map space ~addr:0x4000 ~len:4096 ~prot:Mem.prot_r ());
  Alcotest.(check int) "readable" 0 (Addr_space.read_u64 space 0x4000);
  (match Addr_space.write_u64 space 0x4000 1 with
  | () -> Alcotest.fail "expected Segv on write"
  | exception Addr_space.Segv _ -> ());
  (* force bypasses protection (kernel access) *)
  Addr_space.write_u64 ~force:true space 0x4000 7;
  Alcotest.(check int) "forced write" 7 (Addr_space.read_u64 space 0x4000)

let test_mem_cow_fork () =
  let parent = Addr_space.create ~id:1 in
  ignore (Addr_space.map parent ~addr:0x4000 ~len:4096 ~prot:Mem.prot_rw ());
  Addr_space.write_u64 parent 0x4000 111;
  let child = Addr_space.fork parent ~id:2 in
  Alcotest.(check int) "child sees parent data" 111
    (Addr_space.read_u64 child 0x4000);
  Addr_space.write_u64 child 0x4000 222;
  Alcotest.(check int) "parent unchanged after child write" 111
    (Addr_space.read_u64 parent 0x4000);
  Addr_space.write_u64 parent 0x4008 333;
  Alcotest.(check int) "child unchanged after parent write" 0
    (Addr_space.read_u64 child 0x4008)

let test_pss_sharing () =
  let parent = Addr_space.create ~id:1 in
  ignore (Addr_space.map parent ~addr:0x4000 ~len:8192 ~prot:Mem.prot_rw ());
  let solo = Addr_space.pss parent in
  Alcotest.(check (float 0.01)) "two pages" 8192.0 solo;
  let child = Addr_space.fork parent ~id:2 in
  Alcotest.(check (float 0.01)) "parent PSS halves" 4096.0
    (Addr_space.pss parent);
  Alcotest.(check (float 0.01)) "child PSS halves" 4096.0
    (Addr_space.pss child);
  (* Writing unshares one page: 4096 (private) + 2048 (shared). *)
  Addr_space.write_u64 child 0x4000 1;
  Alcotest.(check (float 0.01)) "child PSS after COW" 6144.0
    (Addr_space.pss child)

let test_cpu_arith_loop () =
  (* sum 1..10 into r2 *)
  let ctx =
    run_program
      [ Asm.movi 1 10;
        Asm.movi 2 0;
        Asm.label "loop";
        Asm.I (Insn.Alu (Insn.Add, 2, Insn.Reg 1));
        Asm.subi 1 1;
        Asm.jnz 1 "loop";
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "sum" 55 ctx.Cpu.regs.(2)

let test_cpu_rcb_counts_conditional_only () =
  let ctx =
    run_program
      [ Asm.movi 1 7;
        Asm.label "loop";
        Asm.subi 1 1;
        Asm.jmp "next"; (* unconditional: no RCB *)
        Asm.label "next";
        Asm.jnz 1 "loop"; (* conditional: one RCB each retirement *)
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "rcb = loop iterations" 7 ctx.Cpu.pmu.Pmu.rcb

let test_cpu_call_ret_stack () =
  let ctx =
    run_program
      [ Asm.movi 15 0x5000; (* sp *)
        Asm.call "fn";
        Asm.movi 3 99;
        Asm.I Insn.Halt;
        Asm.label "fn";
        Asm.movi 2 42;
        Asm.ret ]
  in
  Alcotest.(check int) "callee ran" 42 ctx.Cpu.regs.(2);
  Alcotest.(check int) "fell through after ret" 99 ctx.Cpu.regs.(3);
  Alcotest.(check int) "sp balanced" 0x5000 ctx.Cpu.regs.(15)

let test_cpu_cas () =
  let ctx =
    run_program
      [ Asm.movi 1 0x4000;
        Asm.movi 2 0; (* expected *)
        Asm.movi 3 7; (* new *)
        Asm.I (Insn.Cas (1, 2, 3, 4));
        Asm.movi 5 7; (* expected now 7 *)
        Asm.movi 6 9;
        Asm.I (Insn.Cas (1, 5, 6, 7));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "first cas succeeded" 1 ctx.Cpu.regs.(4);
  Alcotest.(check int) "second cas succeeded" 1 ctx.Cpu.regs.(7);
  Alcotest.(check int) "value" 9 (Addr_space.read_u64 ctx.Cpu.space 0x4000)

let test_cpu_cas_failure_loads_current () =
  let ctx =
    run_program
      [ Asm.movi 1 0x4000;
        Asm.movi 8 55;
        Asm.store 8 1 0;
        Asm.movi 2 1; (* wrong expectation *)
        Asm.movi 3 7;
        Asm.I (Insn.Cas (1, 2, 3, 4));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "cas failed" 0 ctx.Cpu.regs.(4);
  Alcotest.(check int) "expected reg updated to current" 55 ctx.Cpu.regs.(2);
  Alcotest.(check int) "memory untouched" 55
    (Addr_space.read_u64 ctx.Cpu.space 0x4000)

let test_cpu_div_zero_faults () =
  let stop =
    run_program_stop
      [ Asm.movi 1 10; Asm.I (Insn.Alu (Insn.Div, 1, Insn.Imm 0)) ]
  in
  (match stop with
  | Some (Cpu.Stop_fault (Cpu.F_div _)) -> ()
  | other -> Alcotest.failf "expected div fault, got %a" pp_stop_opt other);
  (* rem by a zero register: faults on the rem itself, nothing written *)
  let ctx, stop, steps =
    run_program_full
      [ Asm.movi 1 10; Asm.I (Insn.Alu (Insn.Rem, 1, Insn.Reg 2)) ]
  in
  (match stop with
  | Some (Cpu.Stop_fault (Cpu.F_div pc)) ->
    Alcotest.(check int) "fault pc is the rem" 0x1001 pc
  | other -> Alcotest.failf "expected rem fault, got %a" pp_stop_opt other);
  Alcotest.(check int) "pc stays on the rem" 0x1001 ctx.Cpu.pc;
  Alcotest.(check int) "dividend untouched" 10 ctx.Cpu.regs.(1);
  Alcotest.(check int) "the faulting insn counts as a step" 2 steps

let test_cpu_breakpoint () =
  let space = fresh_space () in
  let prog =
    Asm.assemble ~base:0x1000 [ Asm.movi 1 1; Asm.movi 2 2; Asm.movi 3 3 ]
  in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  Addr_space.bp_set space 0x1001;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  Alcotest.(check int) "stopped after one insn" 1 steps;
  (match stop with
  | Some Cpu.Stop_bkpt -> ()
  | other -> Alcotest.failf "expected bkpt, got %a" pp_stop_opt other);
  Alcotest.(check int) "pc at breakpoint" 0x1001 ctx.Cpu.pc;
  (* Clearing the breakpoint lets execution continue. *)
  Addr_space.bp_clear space 0x1001;
  ignore (Cpu.run null_env ctx ~fuel:100);
  Alcotest.(check int) "resumed" 3 ctx.Cpu.regs.(3)

let test_cpu_singlestep () =
  let space = fresh_space () in
  let prog = Asm.assemble ~base:0 [ Asm.movi 1 1; Asm.movi 2 2 ] in
  Addr_space.text_load space ~base:0 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.single_step <- true;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  Alcotest.(check int) "one step" 1 steps;
  match stop with
  | Some Cpu.Stop_singlestep -> ()
  | other -> Alcotest.failf "expected singlestep, got %a" pp_stop_opt other

let enc insn =
  match Insn.encode insn with
  | Some w -> w
  | None -> Alcotest.failf "unencodable: %a" Insn.pp insn

let test_cpu_emit_jit () =
  (* Emit "mov r5, 77" at a fresh text address, then jump to it. *)
  let ctx =
    run_program
      [ Asm.movi 15 0x5000;
        Asm.movi 1 0x9000; (* jit target *)
        Asm.movi 2 (enc (Insn.Mov (5, Insn.Imm 77)));
        Asm.I (Insn.Emit (1, 2));
        Asm.movi 1 0x9001;
        Asm.movi 2 (enc Insn.Ret);
        Asm.I (Insn.Emit (1, 2));
        Asm.movi 6 0x9000;
        Asm.I (Insn.Callr 6);
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "jitted code ran" 77 ctx.Cpu.regs.(5)

let test_emit_marks_written_text () =
  let ctx =
    run_program
      [ Asm.movi 1 0x9000;
        Asm.movi 2 0; (* Nop *)
        Asm.I (Insn.Emit (1, 2));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check bool) "written text recorded" true
    (Addr_space.text_was_written ctx.Cpu.space 0x9000);
  Alcotest.(check bool) "static text not marked" false
    (Addr_space.text_was_written ctx.Cpu.space 0x1000)

(* ---- the paged text map and the fetch cache ------------------------- *)

let test_bkpt_on_just_fetched () =
  let space = fresh_space () in
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.movi 1 5; Asm.label "loop"; Asm.subi 1 1; Asm.jnz 1 "loop";
        Asm.I Insn.Halt ]
  in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  (* movi, subi: the subi at 0x1001 was the last fetch *)
  ignore (Cpu.run null_env ctx ~fuel:2);
  Addr_space.bp_set space 0x1001;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  (match stop with
  | Some Cpu.Stop_bkpt -> ()
  | other -> Alcotest.failf "expected bkpt, got %a" pp_stop_opt other);
  Alcotest.(check int) "only the jnz ran" 1 steps;
  Alcotest.(check int) "pc on the breakpoint" 0x1001 ctx.Cpu.pc;
  Alcotest.(check int) "subi not re-executed" 4 ctx.Cpu.regs.(1)

let test_emit_over_just_fetched () =
  (* The loop's first instruction rewrites itself: the second pass must
     run the emitted instruction, not the one the first pass fetched. *)
  let items =
    [ Asm.movi 6 2;
      Asm.movi 7 0;
      Asm.label "x";
      Asm.movi 5 1;
      Asm.movi 1 0x1002;
      Asm.movi 2 (enc (Insn.Mov (5, Insn.Imm 99)));
      Asm.I (Insn.Alu (Insn.Add, 7, Insn.Reg 5));
      Asm.I (Insn.Emit (1, 2));
      Asm.subi 6 1;
      Asm.jnz 6 "x";
      Asm.I Insn.Halt ]
  in
  let ctx = run_program items in
  Alcotest.(check int) "original, then emitted insn" (1 + 99) ctx.Cpu.regs.(7);
  Alcotest.(check bool) "slot written in place" true
    (Addr_space.text_get ctx.Cpu.space 0x1002 = Some (Insn.Mov (5, Insn.Imm 99)))

let test_fork_isolates_text () =
  let parent = Addr_space.create ~id:1 in
  Addr_space.text_load parent ~base:0x1000 [| Insn.Nop; Insn.Ret |];
  (* warm the parent's cache on the page the child will write *)
  ignore (Addr_space.text_get parent 0x1000);
  let child = Addr_space.fork parent ~id:2 in
  Alcotest.(check bool) "child inherits text" true
    (Addr_space.text_get child 0x1001 = Some Insn.Ret);
  Addr_space.text_write child 0x1000 Insn.Pause;
  Alcotest.(check bool) "child sees its write" true
    (Addr_space.text_get child 0x1000 = Some Insn.Pause);
  Alcotest.(check bool) "parent unchanged by child write" true
    (Addr_space.text_get parent 0x1000 = Some Insn.Nop);
  Addr_space.text_set parent 0x1001 Insn.Syscall;
  Addr_space.text_set parent 0x9000 Insn.Nop;
  Alcotest.(check bool) "child unchanged by parent write" true
    (Addr_space.text_get child 0x1001 = Some Insn.Ret);
  Alcotest.(check bool) "parent's new page not in child" true
    (Addr_space.text_get child 0x9000 = None);
  Alcotest.(check int) "child text count" 2 (Addr_space.text_count child);
  Alcotest.(check int) "parent text count" 3 (Addr_space.text_count parent)

let test_unmap_all_drops_fetched_text () =
  let space = fresh_space () in
  Addr_space.text_load space ~base:0x1000 [| Insn.Nop; Insn.Ret |];
  Alcotest.(check bool) "fetched" true
    (Addr_space.text_get space 0x1001 = Some Insn.Ret);
  Addr_space.unmap_all space;
  Alcotest.(check bool) "gone after exec" true
    (Addr_space.text_get space 0x1001 = None);
  Alcotest.(check int) "empty" 0 (Addr_space.text_count space)

let test_text_fold_ascending () =
  let space = Addr_space.create ~id:1 in
  List.iter
    (fun a -> Addr_space.text_set space a Insn.Nop)
    [ 0x9001; 0x13ff; -5; 0x1400; 0x9000; 0 ];
  Alcotest.(check (list int)) "ascending across pages"
    [ -5; 0; 0x13ff; 0x1400; 0x9000; 0x9001 ]
    (List.rev (Addr_space.text_fold (fun a _ acc -> a :: acc) space []))

(* Random programs whose code straddles a text-page boundary and which
   JIT-emit into a third page and call there, mixed with loads, stores,
   every ALU op (div/rem by registers that may hold 0) and counted Jcc
   loops.  Running them in one [Cpu.run] and in [~fuel:1] slices must
   end in the same machine state: the fetch cache and the hoisted
   breakpoint/PMU checks are invisible. *)
let paged_base = 0x1400 - 24 (* straddles the page boundary at 0x1400 *)
let jit_addr = 0x2000

let paged_program_gen =
  QCheck.Gen.(
    let reg = int_range 3 10 in
    let op =
      oneofl
        Insn.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]
    in
    let src =
      oneof
        [ map (fun r -> Insn.Reg r) reg;
          map (fun v -> Insn.Imm (v land 0xff)) int ]
    in
    let simple =
      frequency
        [ (4, map3 (fun o r s -> [ Asm.I (Insn.Alu (o, r, s)) ]) op reg src);
          (2, map2 (fun r off -> [ Asm.store r 14 (off land 0xff0) ]) reg int);
          (2, map2 (fun r off -> [ Asm.load r 14 (off land 0xff0) ]) reg int) ]
    in
    let jit =
      (* emit "mov r, v; add r, w; ret" at jit_addr and call it *)
      map3
        (fun r v w ->
          let emit_at k insn =
            [ Asm.movi 1 (jit_addr + k); Asm.movi 2 (enc insn);
              Asm.I (Insn.Emit (1, 2)) ]
          in
          emit_at 0 (Insn.Mov (r, Insn.Imm v))
          @ emit_at 1 (Insn.Alu (Insn.Add, r, Insn.Imm w))
          @ emit_at 2 Insn.Ret
          @ [ Asm.movi 11 jit_addr; Asm.I (Insn.Callr 11) ])
        reg (int_bound 0xffff) (int_bound 0xffff)
    in
    let straight = frequency [ (5, simple); (1, jit) ] in
    let block =
      frequency
        [ (4, map (fun b -> `Straight b) straight);
          (1, map2 (fun n body -> `Loop (n, List.concat body))
                (int_range 1 12) (list_size (1 -- 4) straight)) ]
    in
    map2
      (fun inits blocks ->
        [ Asm.movi 14 0x4000; Asm.movi 15 0x5000 ]
        @ List.mapi (fun i v -> Asm.movi (3 + i) v) inits
        @ List.concat
            (List.mapi
               (fun i -> function
                 | `Straight b -> b
                 | `Loop (n, body) ->
                   let l = Printf.sprintf "loop%d" i in
                   (Asm.movi 12 n :: Asm.label l :: body)
                   @ [ Asm.subi 12 1; Asm.jnz 12 l ])
               blocks)
        @ [ Asm.I Insn.Halt ])
      (list_repeat 8 (int_bound 3))
      (list_size (1 -- 25) block))

let run_paged ~sliced items =
  let space = fresh_space () in
  let prog = Asm.assemble ~base:paged_base items in
  Addr_space.text_load space ~base:paged_base prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- paged_base;
  let fuel = 100_000 in
  let stop, steps =
    if not sliced then Cpu.run null_env ctx ~fuel
    else
      let rec go steps =
        if steps >= fuel then (None, steps)
        else
          match Cpu.run null_env ctx ~fuel:1 with
          | None, n -> go (steps + n)
          | stop, n -> (stop, steps + n)
      in
      go 0
  in
  (stop, steps, Array.to_list (Cpu.copy_regs ctx), ctx.Cpu.pc,
   Pmu.snapshot ctx.Cpu.pmu)

let qcheck_paged_fetch_sliced =
  QCheck.Test.make ~name:"paged fetch: one run = fuel:1 slices" ~count:200
    (QCheck.make paged_program_gen) (fun items ->
      run_paged ~sliced:false items = run_paged ~sliced:true items)

let test_pmu_interrupt_fires_with_skid () =
  let space = fresh_space () in
  let items =
    [ Asm.movi 1 1000; Asm.label "loop"; Asm.subi 1 1; Asm.jnz 1 "loop";
      Asm.I Insn.Halt ]
  in
  let prog = Asm.assemble ~base:0x1000 items in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  Pmu.program_interrupt ctx.Cpu.pmu ~target:100 ~skid:11;
  let stop, _ = Cpu.run null_env ctx ~fuel:100000 in
  (match stop with
  | Some Cpu.Stop_pmu -> ()
  | other -> Alcotest.failf "expected pmu, got %a" pp_stop_opt other);
  Alcotest.(check bool) "rcb past target (skid)" true
    (ctx.Cpu.pmu.Pmu.rcb >= 100);
  Alcotest.(check bool) "skid bounded"
    true
    (ctx.Cpu.pmu.Pmu.rcb <= 100 + Pmu.max_skid)

let test_pmu_rcb_deterministic () =
  (* Two runs of the same program, different entropy for rdtsc/rdrand:
     identical RCB counts even though register contents differ. *)
  let items =
    [ Asm.movi 1 50;
      Asm.label "loop";
      Asm.I (Insn.Rdtsc 4);
      Asm.I (Insn.Rdrand 5);
      Asm.subi 1 1;
      Asm.jnz 1 "loop";
      Asm.I Insn.Halt ]
  in
  let run seed =
    let space = fresh_space () in
    let prog = Asm.assemble ~base:0x1000 items in
    Addr_space.text_load space ~base:0x1000 prog.Asm.code;
    let ctx = Cpu.create ~space in
    ctx.Cpu.pc <- 0x1000;
    let e = Entropy.create seed in
    let env =
      { Cpu.rdtsc = (fun () -> Entropy.bits e); rdrand = (fun () -> Entropy.bits e) }
    in
    ignore (Cpu.run env ctx ~fuel:100000);
    ctx
  in
  let a = run 1 and b = run 2 in
  Alcotest.(check bool) "rdrand differed" true (a.Cpu.regs.(5) <> b.Cpu.regs.(5));
  Alcotest.(check int) "rcb identical" a.Cpu.pmu.Pmu.rcb b.Cpu.pmu.Pmu.rcb

let test_insn_encode_roundtrip () =
  let cases =
    [ Insn.Nop;
      Insn.Syscall;
      Insn.Ret;
      Insn.Pause;
      Insn.Mov (3, Insn.Imm 1234);
      Insn.Alu (Insn.Add, 7, Insn.Imm 9);
      Insn.Jcc (Insn.Ne, 2, Insn.Imm 0, 0x4242);
      Insn.Jmp 0x1234 ]
  in
  List.iter
    (fun insn ->
      match Insn.encode insn with
      | None -> Alcotest.failf "unencodable: %a" Insn.pp insn
      | Some w -> (
        match Insn.decode w with
        | Some insn' when insn' = insn -> ()
        | Some insn' ->
          Alcotest.failf "roundtrip %a -> %a" Insn.pp insn Insn.pp insn'
        | None -> Alcotest.failf "undecodable: %a" Insn.pp insn))
    cases;
  Alcotest.(check bool) "unencodable refused" true
    (Insn.encode (Insn.Cas (1, 2, 3, 4)) = None)

let qcheck_entropy_range =
  QCheck.Test.make ~name:"entropy range stays in bounds" ~count:500
    QCheck.(pair small_int (pair small_int small_int))
    (fun (seed, (a, b)) ->
      let lo = min a b and hi = max a b in
      let e = Entropy.create seed in
      let v = Entropy.range e lo hi in
      v >= lo && v <= hi)

let qcheck_mem_roundtrip =
  QCheck.Test.make ~name:"memory u64 write/read roundtrip" ~count:300
    QCheck.(pair (int_bound 16300) int)
    (fun (off, v) ->
      let space = Addr_space.create ~id:1 in
      ignore (Addr_space.map space ~addr:0x4000 ~len:(4 * 4096 + 4096) ~prot:Mem.prot_rw ());
      Addr_space.write_u64 space (0x4000 + off) v;
      Addr_space.read_u64 space (0x4000 + off) = v)

let qcheck_bytes_roundtrip =
  QCheck.Test.make ~name:"memory bytes blit roundtrip" ~count:200
    QCheck.(pair (int_bound 8000) (string_of_size Gen.(0 -- 600)))
    (fun (off, s) ->
      let space = Addr_space.create ~id:1 in
      ignore (Addr_space.map space ~addr:0 ~len:16384 ~prot:Mem.prot_rw ());
      Addr_space.write_bytes space off (Bytes.of_string s);
      Bytes.to_string (Addr_space.read_bytes space off (String.length s)) = s)

(* Program-level determinism: a random straight-line program over a
   scratch page produces identical machine state on every run — the
   bedrock assumption of record and replay ("CPUs are mostly
   deterministic", §2.1). *)
let random_program_gen =
  QCheck.Gen.(
    let op =
      oneofl [ Insn.Add; Insn.Sub; Insn.Mul; Insn.And; Insn.Or; Insn.Xor ]
    in
    let insn =
      oneof
        [ map2 (fun r v -> Asm.movi r (v land 0xffff)) (int_bound 12) int;
          map3 (fun o r v -> Asm.I (Insn.Alu (o, r, Insn.Imm ((v land 0xff) + 1))))
            op (int_bound 12) int;
          map2 (fun r s -> Asm.I (Insn.Alu (Insn.Add, r, Insn.Reg s)))
            (int_bound 12) (int_bound 12);
          map2 (fun r off -> Asm.store r 14 (off land 0xff0))
            (int_bound 12) int;
          map2 (fun r off -> Asm.load r 14 (off land 0xff0))
            (int_bound 12) int ]
    in
    map (fun l -> Asm.movi 14 0x4000 :: (l @ [ Asm.I Insn.Halt ]))
      (list_size (1 -- 60) insn))

let qcheck_program_determinism =
  QCheck.Test.make ~name:"straight-line programs are deterministic" ~count:150
    (QCheck.make random_program_gen) (fun items ->
      let run () =
        let ctx = run_program items in
        ( Array.to_list (Cpu.copy_regs ctx),
          Bytes.to_string
            (Addr_space.read_bytes ~force:true ctx.Cpu.space 0x4000 4096),
          Pmu.snapshot ctx.Cpu.pmu )
      in
      run () = run ())

let qcheck_rcb_equals_jcc_retired =
  QCheck.Test.make ~name:"RCB = retired conditional branches exactly"
    ~count:100
    QCheck.(int_range 1 500)
    (fun n ->
      (* a loop of n iterations with exactly one Jcc: rcb must be n *)
      let ctx =
        run_program
          [ Asm.movi 1 n;
            Asm.label "l";
            Asm.subi 1 1;
            Asm.jnz 1 "l";
            Asm.I Insn.Halt ]
      in
      ctx.Cpu.pmu.Pmu.rcb = n)

let suites =
  [ ( "isa.asm",
      [ Alcotest.test_case "labels" `Quick test_assemble_labels;
        Alcotest.test_case "duplicate label" `Quick test_assemble_duplicate;
        Alcotest.test_case "undefined label" `Quick test_assemble_undefined ] );
    ( "isa.mem",
      [ Alcotest.test_case "read/write" `Quick test_mem_rw;
        Alcotest.test_case "unmapped faults" `Quick test_mem_unmapped;
        Alcotest.test_case "protection" `Quick test_mem_prot;
        Alcotest.test_case "COW fork" `Quick test_mem_cow_fork;
        Alcotest.test_case "PSS sharing" `Quick test_pss_sharing;
        QCheck_alcotest.to_alcotest qcheck_mem_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_bytes_roundtrip ] );
    ( "isa.cpu",
      [ Alcotest.test_case "arith loop" `Quick test_cpu_arith_loop;
        Alcotest.test_case "rcb counts conditionals only" `Quick
          test_cpu_rcb_counts_conditional_only;
        Alcotest.test_case "call/ret" `Quick test_cpu_call_ret_stack;
        Alcotest.test_case "cas success" `Quick test_cpu_cas;
        Alcotest.test_case "cas failure" `Quick test_cpu_cas_failure_loads_current;
        Alcotest.test_case "div by zero" `Quick test_cpu_div_zero_faults;
        Alcotest.test_case "breakpoint" `Quick test_cpu_breakpoint;
        Alcotest.test_case "single-step" `Quick test_cpu_singlestep;
        Alcotest.test_case "emit + run jitted code" `Quick test_cpu_emit_jit;
        Alcotest.test_case "emit marks written text" `Quick
          test_emit_marks_written_text ] );
    ( "isa.text",
      [ Alcotest.test_case "breakpoint on a just-fetched address" `Quick
          test_bkpt_on_just_fetched;
        Alcotest.test_case "emit over a just-fetched address" `Quick
          test_emit_over_just_fetched;
        Alcotest.test_case "fork isolates text both ways" `Quick
          test_fork_isolates_text;
        Alcotest.test_case "unmap_all drops fetched text" `Quick
          test_unmap_all_drops_fetched_text;
        Alcotest.test_case "text_fold is ascending" `Quick
          test_text_fold_ascending;
        QCheck_alcotest.to_alcotest qcheck_paged_fetch_sliced ] );
    ( "isa.pmu",
      [ Alcotest.test_case "interrupt fires late (skid)" `Quick
          test_pmu_interrupt_fires_with_skid;
        Alcotest.test_case "rcb deterministic across entropy" `Quick
          test_pmu_rcb_deterministic ] );
    ( "isa.insn",
      [ Alcotest.test_case "encode/decode roundtrip" `Quick
          test_insn_encode_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_entropy_range ] );
    ( "isa.determinism",
      [ QCheck_alcotest.to_alcotest qcheck_program_determinism;
        QCheck_alcotest.to_alcotest qcheck_rcb_equals_jcc_retired ] ) ]
