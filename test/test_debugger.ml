(* Tests for checkpoints and the reverse-execution debugger. *)

module K = Kernel
module G = Guest
module E = Event

let ( @. ) = List.append

(* A program that increments a counter cell through several phases with
   syscalls in between, so events give us time points to navigate. *)
let counter_cell = 0x120000

let counter_prog _k b =
  let emit_phase v =
    [ Asm.movi 9 counter_cell; Asm.movi 10 v; Asm.store 10 9 0 ]
    @. G.sc Sysno.getpid []
  in
  G.emit b
    (emit_phase 1
    @. G.compute_loop b ~n:200
    @. emit_phase 2
    @. G.compute_loop b ~n:200
    @. emit_phase 3
    @. G.sc Sysno.gettimeofday [ G.imm (counter_cell + 8) ]
    @. emit_phase 4
    @. G.sys_exit_group 0)

let dbg ?(every = 2) ?(use_index = true) trace =
  Debugger.create
    ~opts:(Debugger.make_opts ~checkpoint_every:every ~use_index ())
    trace

let record_counter () =
  let setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    let b = G.create () in
    counter_prog k b;
    K.install_image k ~path:"/bin/t" (G.build b ~name:"t" ())
  in
  (* Interception off so every syscall is its own frame: the debugger's
     time axis is frame indices. *)
  let opts = { Recorder.default_opts with intercept = false } in
  let trace, _, _ = Recorder.record ~opts ~setup ~exe:"/bin/t" () in
  trace

let is_syscall nr = function
  | E.E_syscall { nr = n; _ } -> n = nr
  | _ -> false

let test_seek_and_inspect () =
  let trace = record_counter () in
  let d = dbg trace in
  (* Run to the second getpid; counter must be 2. *)
  let first = Debugger.continue_to d (is_syscall Sysno.getpid) in
  Alcotest.(check bool) "found first getpid" true (first <> None);
  Alcotest.(check int) "counter=1 after first phase" 1
    (Debugger.read_word d 100 counter_cell);
  let second = Debugger.continue_to d (is_syscall Sysno.getpid) in
  Alcotest.(check bool) "found second getpid" true (second <> None);
  Alcotest.(check int) "counter=2" 2 (Debugger.read_word d 100 counter_cell)

let test_reverse_continue () =
  let trace = record_counter () in
  let d = dbg trace in
  (* Forward to the end, then reverse to the second getpid. *)
  Debugger.seek d (Debugger.n_events d);
  ignore (Debugger.reverse_continue_to d (is_syscall Sysno.gettimeofday));
  Alcotest.(check int) "counter=3 before gettimeofday's phase 4" 3
    (Debugger.read_word d 100 counter_cell);
  (* Reverse twice more: third then second getpid. *)
  ignore (Debugger.reverse_continue_to d (is_syscall Sysno.getpid));
  Alcotest.(check int) "counter=3 at third getpid" 3
    (Debugger.read_word d 100 counter_cell);
  ignore (Debugger.reverse_continue_to d (is_syscall Sysno.getpid));
  Alcotest.(check int) "counter=2 at second getpid" 2
    (Debugger.read_word d 100 counter_cell);
  Alcotest.(check bool) "a checkpoint was restored" true
    (Debugger.checkpoints_restored d >= 1)

let test_reverse_step () =
  let trace = record_counter () in
  let d = dbg trace in
  Debugger.seek d (Debugger.n_events d);
  let last = Debugger.pos d in
  Debugger.reverse_step d;
  Alcotest.(check int) "one step back" (last - 1) (Debugger.pos d);
  Debugger.reverse_step d;
  Alcotest.(check int) "two steps back" (last - 2) (Debugger.pos d)

let test_last_change_watchpoint () =
  let trace = record_counter () in
  let d = dbg trace in
  Debugger.seek d (Debugger.n_events d);
  (* Find when the counter last changed: during the frame before exit
     (phase 4's store happens while running toward the exit syscall). *)
  match Debugger.Query.last_write d ~tid:100 ~addr:counter_cell ~len:8 with
  | Error e -> Alcotest.failf "last_write: %s" (Debugger.Query.error_to_string e)
  | Ok None -> Alcotest.fail "no change found"
  | Ok (Some idx) ->
    (* Seek just before that frame: the counter must not be 4 yet. *)
    Debugger.seek d idx;
    let v = Debugger.read_word d 100 counter_cell in
    Alcotest.(check bool)
      (Printf.sprintf "value before final change is %d < 4" v)
      true (v < 4);
    Debugger.seek d (idx + 1);
    Alcotest.(check int) "value after final change" 4
      (Debugger.read_word d 100 counter_cell)

let test_checkpoint_restore_consistency () =
  let trace = record_counter () in
  let d = dbg trace in
  (* Walk forward collecting counter values, then re-walk after a
     reverse seek and require identical observations. *)
  let observe () =
    let vals = ref [] in
    Debugger.seek d 0;
    while Debugger.pos d < Debugger.n_events d do
      ignore (Debugger.step d);
      let v =
        try Debugger.read_word d 100 counter_cell with Debugger.Debug_error _ -> -1
      in
      vals := v :: !vals
    done;
    List.rev !vals
  in
  let first = observe () in
  let second = observe () in
  Alcotest.(check (list int)) "same observations after restore" first second

let test_checkpoints_cheap () =
  (* PSS-style cost of a checkpoint: COW fork shares all pages, so the
     marginal unique memory of 50 checkpoints is tiny compared to 50
     copies (paper §6.1). *)
  let trace = record_counter () in
  let d = dbg ~every:1 trace in
  Debugger.seek d (Debugger.n_events d);
  Alcotest.(check bool)
    (Printf.sprintf "many checkpoints taken (%d)" (Debugger.checkpoints_taken d))
    true
    (Debugger.checkpoints_taken d >= Debugger.n_events d)

(* Random seek sequences over a multi-task workload trace: positions and
   observations must be consistent however we got there. *)
let qcheck_random_seeks =
  QCheck.Test.make ~name:"random seek sequences stay consistent" ~count:10
    QCheck.(list_of_size Gen.(1 -- 8) (int_bound 1000))
    (fun seeks ->
      let w =
        Wl_samba.make
          ~params:
            { Wl_samba.echoes = 6; payload = 32; server_work = 500;
              client_work = 300 }
          ()
      in
      let recd, _ = Workload.record w in
      let d = dbg ~every:8 recd.Workload.trace in
      let n = Debugger.n_events d in
      (* reference observations by linear forward replay *)
      let reference = Array.make (n + 1) 0 in
      Debugger.seek d 0;
      for i = 1 to n do
        ignore (Debugger.step d);
        reference.(i) <-
          (try Debugger.read_word d 100 0x100000 with Debugger.Debug_error _ -> -1)
      done;
      List.for_all
        (fun target ->
          let target = target mod (n + 1) in
          Debugger.seek d target;
          let v =
            try Debugger.read_word d 100 0x100000
            with Debugger.Debug_error _ -> -1
          in
          target = 0 || v = reference.(target))
        seeks)

(* The debugger drives a full workload trace end to end and back. *)
let test_debugger_on_workload () =
  let w =
    Wl_cp.make ~params:{ Wl_cp.files = 3; file_kb = 32 } ()
  in
  let recd, _ = Workload.record w in
  let d = dbg ~every:4 recd.Workload.trace in
  Debugger.seek d (Debugger.n_events d);
  let end_pos = Debugger.pos d in
  (* reverse to the first buf_flush, then forward to the end again *)
  ignore
    (Debugger.reverse_continue_to d (function
      | Event.E_buf_flush _ -> true
      | _ -> false));
  Alcotest.(check bool) "went backwards" true (Debugger.pos d < end_pos);
  Debugger.seek d end_pos;
  Alcotest.(check int) "back at the end" end_pos (Debugger.pos d)

(* The checkpoint array invariants behind the O(log n) lookups: sorted,
   duplicate-free, and dense out-of-order seeks keep it that way. *)
let test_checkpoint_array_sorted () =
  let trace = record_counter () in
  let d = dbg trace in
  let n = Debugger.n_events d in
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 60 do
    Debugger.seek d (Random.State.int rng (n + 1))
  done;
  Alcotest.(check bool) "several checkpoints live" true
    (Debugger.n_checkpoints d > 2);
  let frames = Debugger.checkpoint_frames d in
  let rec check_sorted i = function
    | a :: (b :: _ as rest) ->
      if a >= b then
        Alcotest.failf "checkpoint array not strictly sorted at slot %d" i
      else check_sorted (i + 1) rest
    | _ -> ()
  in
  check_sorted 1 frames;
  Alcotest.(check int) "taken = live (dedup on take)"
    (Debugger.checkpoints_taken d) (Debugger.n_checkpoints d)

(* Frame-0 edges: reverse operations at the beginning of history are
   no-ops / None, never exceptions or hangs. *)
let test_reverse_at_frame_zero () =
  let trace = record_counter () in
  let d = dbg trace in
  Alcotest.(check int) "starts at frame 0" 0 (Debugger.pos d);
  Debugger.reverse_step d;
  Alcotest.(check int) "reverse_step at 0 is a no-op" 0 (Debugger.pos d);
  Alcotest.(check (option int)) "reverse_continue_to at 0 is None" None
    (Debugger.reverse_continue_to d (fun _ -> true));
  Alcotest.(check int) "position unchanged after None" 0 (Debugger.pos d);
  (* One frame in: reverse_continue_to over an always-false predicate
     returns None without moving (the GDB stub, not the debugger, decides
     to land on frame 0 in that case). *)
  ignore (Debugger.step d);
  Alcotest.(check (option int)) "no match going back" None
    (Debugger.reverse_continue_to d (fun _ -> false));
  Alcotest.(check int) "position unchanged on no match" 1 (Debugger.pos d)

(* checkpoint_every <= 0 is clamped to 1 (make_opts convention), not a
   Division_by_zero at the first seek — both through make_opts and
   through a hand-built literal handed straight to create. *)
let test_checkpoint_every_clamped () =
  let trace = record_counter () in
  List.iter
    (fun every ->
      let d = dbg ~every trace in
      Alcotest.(check int)
        (Printf.sprintf "checkpoint_every %d clamps to 1" every)
        1 (Debugger.checkpoint_every d);
      Debugger.seek d (Debugger.n_events d);
      Alcotest.(check bool) "replay completed" true (Debugger.at_end d))
    [ 0; -3 ];
  (* A record update bypassing make_opts is re-clamped by create. *)
  let d =
    Debugger.create
      ~opts:{ Debugger.default_opts with checkpoint_every = -7 } trace
  in
  Alcotest.(check int) "literal opts re-clamped by create" 1
    (Debugger.checkpoint_every d)

(* A MAP_SHARED page written between syscalls.  Process fork must alias
   a shared frame, but a checkpoint must not: the session keeps writing
   the frame in place, so an aliasing checkpoint would hand reverse
   execution the future's bytes. *)
let shared_cell = 0x300000

(* The simulator's MAP_ANON | MAP_SHARED | MAP_FIXED (Kernel.sys_mmap). *)
let map_anon_shared_fixed = 1 lor 2 lor 4

let record_shared_stores () =
  let setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    let b = G.create () in
    let store v =
      [ Asm.movi 9 shared_cell; Asm.movi 10 v; Asm.store 10 9 0 ]
      @. G.sc Sysno.getpid []
    in
    G.emit b
      (G.sc Sysno.mmap
         [ G.imm shared_cell; G.imm Mem.page_size; G.imm Mem.prot_rw;
           G.imm map_anon_shared_fixed; G.imm 0; G.imm 0 ]
      @. G.sc Sysno.getpid []
      @. store 1 @. store 2 @. store 3
      @. G.sys_exit_group 0);
    K.install_image k ~path:"/bin/t" (G.build b ~name:"t" ())
  in
  let opts = { Recorder.default_opts with intercept = false } in
  let trace, _, _ = Recorder.record ~opts ~setup ~exe:"/bin/t" () in
  trace

let test_reverse_reads_shared_page_past () =
  let trace = record_shared_stores () in
  let d = dbg ~every:1 ~use_index:false trace in
  let n = Debugger.n_events d in
  let cell () =
    try Debugger.read_word d 100 shared_cell with Debugger.Debug_error _ -> -1
  in
  let forward =
    List.init (n + 1) (fun f ->
        Debugger.seek d f;
        cell ())
  in
  Alcotest.(check bool) "forward replay sees every store" true
    (List.for_all (fun v -> List.mem v forward) [ 0; 1; 2; 3 ]);
  let reverse =
    List.rev
      (List.init (n + 1) (fun i ->
           Debugger.seek d (n - i);
           cell ()))
  in
  Alcotest.(check (list int)) "reverse seeks read what forward seeks read"
    forward reverse

(* A live checkpoint forks only the spaces written since the last one
   and reuses the fork of every other.  The counts are work counts of a
   deterministic replay, so a fixed walk pins them: a change that forks
   spaces it could reuse, or reuses forks it must not, moves them.  Of
   the two walks over one indexed trace, the one that ignores the index
   takes live checkpoints after restoring live ones, the other after
   restoring durable ones: its debugger takes one every 8 frames, since
   a durable checkpoint lies within 32 frames of every target. *)
let test_checkpoint_fork_counts () =
  let recd, _ =
    Workload.record ~opts:(Recorder.make_opts ~seed:1 ()) (Wl_serve.make ())
  in
  let trace = recd.Workload.trace in
  ignore (Trace_indexer.build_and_attach trace);
  let count name = Telemetry.counter_value (Telemetry.counter name) in
  let walk ?checkpoint_every use_index =
    let f0 = count "replay.checkpoint_fork"
    and u0 = count "replay.checkpoint_reuse" in
    let d =
      Debugger.create
        ~opts:(Debugger.make_opts ?checkpoint_every ~use_index ())
        trace
    in
    let n = Debugger.n_events d in
    List.iter (Debugger.seek d) [ n / 2; n / 4; n; 1; 3 * n / 4 ];
    ( (Debugger.checkpoints_taken d, Debugger.checkpoints_restored d),
      (count "replay.checkpoint_fork" - f0, count "replay.checkpoint_reuse" - u0)
    )
  in
  let counts = Alcotest.(pair (pair int int) (pair int int)) in
  (* Without reuse, every live checkpoint forks every live space: 687
     and 121 forks. *)
  Alcotest.check counts
    "scan walk: (checkpoints taken, restored), (space forks, fork reuses)"
    ((60, 2), (170, 517))
    (walk false);
  Alcotest.check counts
    "indexed walk: (checkpoints taken, restored), (space forks, fork reuses)"
    ((10, 5), (18, 99))
    (walk ~checkpoint_every:8 true)

let suites =
  [ ( "rr.debugger",
      [ Alcotest.test_case "seek + inspect" `Quick test_seek_and_inspect;
        Alcotest.test_case "reverse-continue" `Quick test_reverse_continue;
        Alcotest.test_case "reverse-step" `Quick test_reverse_step;
        Alcotest.test_case "reverse watchpoint" `Quick
          test_last_change_watchpoint;
        Alcotest.test_case "restore consistency" `Quick
          test_checkpoint_restore_consistency;
        Alcotest.test_case "checkpoints are cheap" `Quick test_checkpoints_cheap;
        Alcotest.test_case "debugger on a workload trace" `Quick
          test_debugger_on_workload;
        Alcotest.test_case "checkpoint array stays sorted" `Quick
          test_checkpoint_array_sorted;
        Alcotest.test_case "reverse at frame 0" `Quick
          test_reverse_at_frame_zero;
        Alcotest.test_case "checkpoint_every clamped" `Quick
          test_checkpoint_every_clamped;
        Alcotest.test_case "reverse seeks read a shared page's past" `Quick
          test_reverse_reads_shared_page_past;
        Alcotest.test_case "live checkpoints fork only written spaces" `Quick
          test_checkpoint_fork_counts;
        QCheck_alcotest.to_alcotest qcheck_random_seeks ] ) ]
