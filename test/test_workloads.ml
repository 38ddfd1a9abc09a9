(* Workload-level integration tests: every paper workload must run in
   every configuration, replay faithfully, and show the qualitative
   effects the evaluation section reports. *)

module W = Workload

(* Smaller parameter sets keep the suite fast. *)
let small_cp () = Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 64 } ()

let small_make () =
  Wl_make.make
    ~params:{ Wl_make.jobs = 4; compiles = 8; src_kb = 8; compile_work = 2_000 }
    ()

let small_octane () =
  Wl_octane.make
    ~params:{ Wl_octane.threads = 2; iters = 40; calls_per_emit = 40; crunch = 500 }
    ()

let small_htmltest () =
  Wl_htmltest.make
    ~params:
      { Wl_htmltest.tests = 10; layout_work = 2_000; harness_work = 1_000;
        jit_every = 2 }
    ()

let small_samba () =
  Wl_samba.make
    ~params:
      { Wl_samba.echoes = 15; payload = 64; server_work = 1_500;
        client_work = 800 }
    ()

let check_roundtrip ?(rec_opts = Recorder.default_opts) w =
  let base = W.baseline w in
  Alcotest.(check (option int))
    (w.W.name ^ " baseline exits 0")
    (Some 0) base.W.exit_status;
  let recd, _ = W.record ~opts:rec_opts w in
  Alcotest.(check (option int))
    (w.W.name ^ " recorded exit matches")
    base.W.exit_status recd.W.rec_stats.Recorder.exit_status;
  let rep, _ = W.replay recd in
  Alcotest.(check (option int))
    (w.W.name ^ " replay exit matches")
    base.W.exit_status rep.W.rep_stats.Replayer.exit_status;
  (base, recd, rep)

let test_cp_roundtrip () = ignore (check_roundtrip (small_cp ()))
let test_make_roundtrip () = ignore (check_roundtrip (small_make ()))
let test_octane_roundtrip () = ignore (check_roundtrip (small_octane ()))
let test_htmltest_roundtrip () = ignore (check_roundtrip (small_htmltest ()))
let test_samba_roundtrip () = ignore (check_roundtrip (small_samba ()))

let test_cp_no_intercept_roundtrip () =
  ignore
    (check_roundtrip
       ~rec_opts:{ Recorder.default_opts with intercept = false }
       (small_cp ()))

let test_samba_no_intercept_roundtrip () =
  ignore
    (check_roundtrip
       ~rec_opts:{ Recorder.default_opts with intercept = false }
       (small_samba ()))

(* §6.2 checksums across a full workload with desched aborts, threads
   and blocking syscalls: the strictest divergence check we have. *)
let test_samba_with_checksums () =
  ignore
    (check_roundtrip
       ~rec_opts:{ Recorder.default_opts with checksum_every = 3 }
       (small_samba ()))

let test_octane_with_checksums () =
  ignore
    (check_roundtrip
       ~rec_opts:{ Recorder.default_opts with checksum_every = 2 }
       (small_octane ()))

let test_octane_chaos_roundtrip () =
  ignore
    (check_roundtrip
       ~rec_opts:
         { Recorder.default_opts with chaos = true; timeslice_rcbs = 5_000 }
       (small_octane ()))

(* §3.9: cp's trace must carry its data as cloned blocks, nearly free,
   while disabling cloning copies the bytes instead. *)
let test_cp_cloning_effect () =
  let w = small_cp () in
  let with_cloning, _ = W.record w in
  let without, _ =
    W.record ~opts:{ Recorder.default_opts with clone_blocks = false } w
  in
  let st_on = Trace.stats with_cloning.W.trace in
  let st_off = Trace.stats without.W.trace in
  Alcotest.(check bool)
    (Printf.sprintf "cloned blocks present (%d)" st_on.Trace.cloned_blocks)
    true
    (st_on.Trace.cloned_blocks > 4 * 16);
  (* 4 files x 64KB *)
  Alcotest.(check bool)
    (Printf.sprintf "no-cloning stores bytes in frames (%d vs %d raw)"
       st_off.Trace.raw_bytes st_on.Trace.raw_bytes)
    true
    (st_off.Trace.raw_bytes > 4 * st_on.Trace.raw_bytes)

(* §3.9: the cloned-data file holds exactly the bytes cp read.  70 KiB
   files are read as 64 KiB and then 6 KiB, so each file leaves a 2 KiB
   zero gap before the next clone lands on a block boundary. *)
let test_cp_cloned_bytes () =
  let w = Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 70 } () in
  let recd, _ = W.record w in
  let t = recd.W.trace in
  let clones =
    Trace.Reader.fold
      (fun _ e acc ->
        match e with
        | Event.E_buf_flush { records; _ } ->
          List.rev_append
            (List.filter_map (fun br -> br.Event.br_clone) records)
            acc
        | _ -> acc)
      t []
    |> List.rev
  in
  let cloned =
    String.concat ""
      (List.map
         (fun cr ->
           Trace.file_sub t cr.Event.cr_path ~off:cr.Event.cr_off
             ~len:cr.Event.cr_len)
         clones)
  in
  let k = Kernel.create ~seed:1 () in
  w.W.setup k;
  let vfs = Kernel.vfs k in
  let source =
    String.concat ""
      (List.init 4 (fun i ->
           let reg = Vfs.lookup_reg vfs (Printf.sprintf "/src/f%d" i) in
           Bytes.to_string (Vfs.read vfs reg ~off:0 ~len:(Vfs.file_size reg))))
  in
  Alcotest.(check int) "two clones per file" 8 (List.length clones);
  Alcotest.(check bool) "cloned bytes are the source files" true
    (cloned = source);
  List.iter
    (fun (path, data) ->
      let covered = Bytes.make (String.length data) '\000' in
      List.iter
        (fun cr ->
          if cr.Event.cr_path = path then
            Bytes.fill covered cr.Event.cr_off cr.Event.cr_len '\001')
        clones;
      String.iteri
        (fun i c ->
          if Bytes.get covered i = '\000' && c <> '\000' then
            Alcotest.failf "%s: gap byte %d is %C" path i c)
        data)
    (List.filter
       (fun (p, _) -> String.starts_with ~prefix:"cloned/" p)
       (Trace.files t))

(* Recording work grows linearly with the bytes cp reads: doubling the
   files must not triple the allocation, as rebuilding the cloned-data
   file on every read did.  Allocation counts are deterministic. *)
let test_cp_record_alloc_linear () =
  let alloc files =
    let w = Wl_cp.make ~params:{ Wl_cp.files; file_kb = 256 } () in
    let before = Gc.allocated_bytes () in
    (match Recorder.run ~setup:w.W.setup ~exe:w.W.exe () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "recording failed: %a" Recorder.pp_error e);
    Gc.allocated_bytes () -. before
  in
  let a8 = alloc 8 in
  let a16 = alloc 16 in
  Alcotest.(check bool)
    (Printf.sprintf "16 files allocate %.2fx of 8 (%.0f -> %.0f MB), < 2.5x"
       (a16 /. a8) (a8 /. 1e6) (a16 /. 1e6))
    true
    (a16 /. a8 < 2.5)

(* The scheduler's allocation gate: a scheduling decision allocates the
   same bytes however many tasks sleep beside the running one.  The guest forks
   [sleepers] children that sleep far into the future, then loops on
   getpid; the bytes one getpid costs are the difference between two
   loop lengths.  They are counted with [Gc.minor_words], which sees
   every small block as it is made ([Gc.allocated_bytes] lags by what
   the minor heap holds), so the count is deterministic and no host time
   enters the gate. *)
let sleepers_image ~sleepers ~calls =
  let b = Guest.create () in
  Guest.emit b
    ([ Asm.movi 7 sleepers; Asm.label "fork"; Asm.jz 7 "spin" ]
    @ Guest.sys_fork
    @ [ Asm.jz 0 "child"; Asm.subi 7 1; Asm.jmp "fork"; Asm.label "child" ]
    @ Guest.sys_nanosleep ~ns:(Guest.imm 1_000_000_000_000)
    @ Guest.sys_exit_group 0
    @ [ Asm.label "spin"; Asm.movi 8 calls; Asm.label "loop" ]
    @ Guest.sc Sysno.getpid []
    @ [ Asm.subi 8 1; Asm.jnz 8 "loop" ]
    @ Guest.sys_exit_group 0);
  Guest.build b ~name:"sleepers" ()

let install_sleepers img k =
  Vfs.mkdir_p (Kernel.vfs k) "/bin";
  Kernel.install_image k ~path:"/bin/sleepers" img

(* Untraced, through [Kernel.run_baseline] with no PSS sampling; returns
   the syscall count. *)
let run_sleepers_untraced img =
  let k = Kernel.create ~seed:1 () in
  install_sleepers img k;
  ignore (Kernel.spawn k ~path:"/bin/sleepers" ());
  let stats = Kernel.run_baseline k ~cores:2 () in
  Alcotest.(check bool) "untraced run finishes" false stats.Kernel.deadlocked;
  k.Kernel.syscall_count

let run_sleepers_recorded img =
  match Recorder.run ~setup:(install_sleepers img) ~exe:"/bin/sleepers" () with
  | Ok (_, stats, _) ->
    Alcotest.(check (option int)) "recording exits 0" (Some 0)
      stats.Recorder.exit_status;
    stats.Recorder.n_syscalls
  | Error e -> Alcotest.failf "recording failed: %a" Recorder.pp_error e

let bytes_per_getpid run ~sleepers =
  let measure calls =
    let img = sleepers_image ~sleepers ~calls in
    let before = Gc.minor_words () in
    let syscalls = run img in
    (Gc.minor_words () -. before, syscalls)
  in
  let w200, n200 = measure 200 and w600, n600 = measure 600 in
  Alcotest.(check int) "the longer loop makes 400 more syscalls" 400
    (n600 - n200);
  (w600 -. w200) *. float_of_int (Sys.word_size / 8) /. 400.

let test_sched_alloc_flat () =
  List.iter
    (fun (mode, run) ->
      let b0 = bytes_per_getpid run ~sleepers:0 in
      let b64 = bytes_per_getpid run ~sleepers:64 in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: 64 sleepers cost %.0f B per getpid vs %.0f B with none \
            (%.2fx), < 1.5x"
           mode b64 b0 (b64 /. b0))
        true
        (b64 < 1.5 *. b0))
    [ ("untraced", run_sleepers_untraced); ("recorded", run_sleepers_recorded) ]

(* §4.3: interception reduces recording time and ptrace stops. *)
let test_intercept_effect_on_samba () =
  let w = small_samba () in
  let fast, _ = W.record w in
  let slow, _ =
    W.record ~opts:{ Recorder.default_opts with intercept = false } w
  in
  Alcotest.(check bool)
    (Printf.sprintf "recording faster with interception (%d < %d)"
       fast.W.rec_stats.Recorder.wall_time slow.W.rec_stats.Recorder.wall_time)
    true
    (fast.W.rec_stats.Recorder.wall_time < slow.W.rec_stats.Recorder.wall_time);
  Alcotest.(check bool) "fewer stops with interception" true
    (fast.W.rec_stats.Recorder.n_ptrace_stops
    < slow.W.rec_stats.Recorder.n_ptrace_stops)

(* Figure 6 shape: the DBI null tool crashes on the JIT-churning octane
   but survives cp. *)
let test_dbi_crashes_on_octane () =
  let oct = Instrument.run (Wl_octane.make ()) in
  Alcotest.(check bool) "octane crashes the DBI" true oct.Instrument.crashed;
  let cp = Instrument.run (small_cp ()) in
  Alcotest.(check bool) "cp survives the DBI" false cp.Instrument.crashed

(* §4.5: htmltest's replay memory is much lower than recording because
   the harness is not replayed. *)
let test_htmltest_replay_memory () =
  let w = small_htmltest () in
  let recd, _ = W.record w in
  let rep, _ = W.replay recd in
  Alcotest.(check bool)
    (Printf.sprintf "replay PSS (%.0f) < record PSS (%.0f)"
       rep.W.rep_peak_pss recd.W.rec_peak_pss)
    true
    (rep.W.rep_peak_pss < recd.W.rec_peak_pss)

(* The recorded trace decodes from its compressed chunks bit-exactly:
   a sequential cursor walk and per-frame random access must agree. *)
let test_workload_trace_decodes () =
  let recd, _ = W.record (small_samba ()) in
  let trace = recd.W.trace in
  let decoded = Trace.Reader.to_array trace in
  Alcotest.(check int) "chunk stream decodes to all events"
    (Trace.n_events trace) (Array.length decoded);
  let c = Trace.Reader.open_ trace in
  Array.iteri
    (fun i e ->
      if Trace.Reader.next c <> e then
        Alcotest.failf "event %d differs between cursor and random access" i)
    decoded

(* Determinism of recording itself: same seed, same trace. *)
let test_recording_deterministic () =
  let run () =
    let recd, _ = W.record (small_cp ()) in
    Array.map (Fmt.str "%a" Event.pp) (Trace.Reader.to_array recd.W.trace)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "event streams identical" true (a = b)

(* Different recording seeds can change scheduling, but every recording
   must still replay. *)
let qcheck_any_seed_replays =
  QCheck.Test.make ~name:"replay succeeds for arbitrary recording seeds"
    ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      let w = small_samba () in
      let opts =
        { Recorder.default_opts with seed = seed + 1; timeslice_rcbs = 7_000 }
      in
      let recd, _ = W.record ~opts w in
      let rep, _ = W.replay recd in
      rep.W.rep_stats.Replayer.exit_status = Some 0)

let suites =
  [ ( "workloads.roundtrip",
      [ Alcotest.test_case "cp" `Quick test_cp_roundtrip;
        Alcotest.test_case "make" `Quick test_make_roundtrip;
        Alcotest.test_case "octane" `Quick test_octane_roundtrip;
        Alcotest.test_case "htmltest" `Quick test_htmltest_roundtrip;
        Alcotest.test_case "sambatest" `Quick test_samba_roundtrip;
        Alcotest.test_case "cp (no intercept)" `Quick
          test_cp_no_intercept_roundtrip;
        Alcotest.test_case "samba (no intercept)" `Quick
          test_samba_no_intercept_roundtrip;
        Alcotest.test_case "octane (chaos)" `Quick test_octane_chaos_roundtrip;
        Alcotest.test_case "samba (checksums)" `Quick test_samba_with_checksums;
        Alcotest.test_case "octane (checksums)" `Quick
          test_octane_with_checksums ] );
    ( "workloads.effects",
      [ Alcotest.test_case "cp block cloning" `Quick test_cp_cloning_effect;
        Alcotest.test_case "cp cloned bytes match the sources" `Quick
          test_cp_cloned_bytes;
        Alcotest.test_case "cp record allocation is linear" `Quick
          test_cp_record_alloc_linear;
        Alcotest.test_case "sleepers leave per-syscall bytes flat" `Quick
          test_sched_alloc_flat;
        Alcotest.test_case "interception speeds samba" `Quick
          test_intercept_effect_on_samba;
        Alcotest.test_case "DBI crashes on octane" `Quick
          test_dbi_crashes_on_octane;
        Alcotest.test_case "htmltest replay memory" `Quick
          test_htmltest_replay_memory;
        Alcotest.test_case "trace decodes" `Quick test_workload_trace_decodes;
        Alcotest.test_case "recording deterministic" `Quick
          test_recording_deterministic;
        QCheck_alcotest.to_alcotest qcheck_any_seed_replays ] ) ]
