(* Tests for the Snapshot module: the durable-checkpoint codec
   ([Snapshot.encode] / [decode], against a pool of byte windows) and
   live checkpoints taken and
   restored through a replay session: every checkpoint of an
   indexed multi-process trace restores to the state a from-zero replay
   reaches there and re-encodes to its blob against the reopened
   file's pool, and so does a live one that reused earlier forks; a
   space mapping a shared frame forks again at every checkpoint; the
   page table's rules hold (equal private frames merge and split on
   write, shared frames keep their identity and their aliasing); zero
   pages cost a few bytes each; a blob of another codec version falls
   back to the scan; and a forged blob allocates a small multiple of its
   size before it is refused. *)

module K = Kernel
module A = Addr_space
module G = Guest
module E = Event
module T = Task

let ( @. ) = List.append

(* ---- comparing replay states ---------------------------------------- *)

let live_procs k =
  K.all_procs k
  |> List.filter (fun (p : T.process) -> p.T.exit_code = None)
  |> List.sort (fun (a : T.process) b -> compare a.T.pid b.T.pid)

let frames (s : A.t) =
  List.rev (A.fold_pages (fun i p acc -> (i, p) :: acc) s [])

let check_space ~what (want : A.t) (got : A.t) =
  let region (r : A.region) =
    (r.A.start, r.A.len, r.A.prot, r.A.kind, r.A.shared)
  in
  if List.map region (A.regions want) <> List.map region (A.regions got) then
    Alcotest.failf "%s: regions differ" what;
  if List.map fst (frames want) <> List.map fst (frames got) then
    Alcotest.failf "%s: mapped pages differ" what;
  List.iter2
    (fun (i, (p : Mem.page)) (_, (q : Mem.page)) ->
      if p.Mem.prot <> q.Mem.prot || p.Mem.shared <> q.Mem.shared then
        Alcotest.failf "%s: page %#x differs in prot or sharing" what i;
      if not (Mem.equal_bytes p q) then
        Alcotest.failf "%s: page %#x differs in bytes" what i)
    (frames want) (frames got);
  let text s = A.text_fold (fun addr insn acc -> (addr, insn) :: acc) s [] in
  if text want <> text got then Alcotest.failf "%s: text differs" what

let check_state ~what ~(want : K.t) (got : K.t) =
  Alcotest.(check int) (what ^ ": virtual clock") (K.now want) (K.now got);
  let pids k = List.map (fun (p : T.process) -> p.T.pid) (live_procs k) in
  Alcotest.(check (list int))
    (what ^ ": live processes")
    (pids want) (pids got);
  List.iter2
    (fun (p : T.process) (q : T.process) ->
      check_space ~what:(Printf.sprintf "%s, pid %d" what p.T.pid) p.T.space
        q.T.space)
    (live_procs want) (live_procs got);
  let regs k =
    K.all_tasks k
    |> List.filter T.is_alive
    |> List.map (fun (t : T.t) ->
           ( t.T.tid,
             Array.to_list t.T.cpu.Cpu.regs,
             t.T.cpu.Cpu.pc,
             t.T.cpu.Cpu.pmu.Pmu.rcb ))
    |> List.sort compare
  in
  if regs want <> regs got then Alcotest.failf "%s: task registers differ" what

(* ---- every durable checkpoint of a forking trace -------------------- *)

let test_serve_checkpoints_restore () =
  let w =
    Wl_serve.make
      ~params:{ Wl_serve.default with Wl_serve.conns = 4; requests = 8 }
      ()
  in
  let recd, _ = Workload.record w in
  ignore (Trace_indexer.build_and_attach recd.Workload.trace);
  let tmp = Filename.temp_file "rr_snapshot" ".rrtrace" in
  Trace.save_exn recd.Workload.trace tmp;
  let trace = Trace.open_exn tmp in
  Sys.remove tmp;
  let ix =
    match Trace.index trace with
    | Some ix -> ix
    | None -> Alcotest.fail "reopened trace lost its index"
  in
  let cps = Trace_index.checkpoints ix in
  Alcotest.(check bool) "several durable checkpoints" true
    (Array.length cps > 4);
  let n = Trace.n_events trace in
  let linear = Replayer.start trace in
  Array.iteri
    (fun i (frame, blob) ->
      while Replayer.cursor_index linear < frame do
        ignore (Replayer.step linear)
      done;
      let what = Printf.sprintf "checkpoint at frame %d" frame in
      let pool = Trace_index.pool ix in
      let entries = Trace_index.Pool.length pool in
      let snap = Snapshot.decode pool blob in
      Alcotest.(check int) (what ^ ": position") frame
        (Snapshot.frame snap);
      Alcotest.(check bool)
        (what ^ ": re-encodes to its blob against the loaded pool")
        true
        (String.equal (Snapshot.encode pool snap) (Codec.slice_string blob));
      Alcotest.(check int) (what ^ ": adds no pool entry") entries
        (Trace_index.Pool.length pool);
      let r = Replayer.restore_exn trace snap in
      check_state ~what ~want:(Replayer.kernel linear) (Replayer.kernel r);
      let next = if i + 1 < Array.length cps then fst cps.(i + 1) else n in
      while Replayer.cursor_index r < next do
        ignore (Replayer.step r);
        let pos = Replayer.cursor_index r in
        Alcotest.(check int)
          (Printf.sprintf "%s: clock at frame %d" what pos)
          (Trace_index.clock_at ix pos)
          (K.now (Replayer.kernel r))
      done;
      (* That replay wrote through the restored frames, never into the
         snapshot's. *)
      check_state
        ~what:(what ^ ", restored again")
        ~want:(Replayer.kernel linear)
        (Replayer.kernel (Replayer.restore_exn trace snap)))
    cps

(* ---- live checkpoints that reuse forks ------------------------------ *)

(* A snapshot at every frame of a serve walk, so a space reuses its last
   checkpoint fork whenever the frame left it alone.  During the walk,
   the snapshot taken [lag] frames back is restored and compared with a
   from-zero replay standing at its frame; once the walk has reached the
   end, every snapshot is restored again and must still show its own
   frame's state, never a later write. *)
let test_live_checkpoints_reuse_forks () =
  let w =
    Wl_serve.make
      ~params:{ Wl_serve.default with Wl_serve.conns = 4; requests = 8 }
      ()
  in
  let recd, _ = Workload.record w in
  let trace = recd.Workload.trace in
  let n = Trace.n_events trace in
  let forks = Telemetry.counter "replay.checkpoint_fork"
  and reuses = Telemetry.counter "replay.checkpoint_reuse" in
  let f0 = Telemetry.counter_value forks
  and u0 = Telemetry.counter_value reuses in
  let lag = 8 in
  let walk = Replayer.start trace and behind = Replayer.start trace in
  let check_restore ~what replay snap =
    let pos = Snapshot.frame snap in
    while Replayer.cursor_index replay < pos do
      ignore (Replayer.step replay)
    done;
    check_state
      ~what:(Printf.sprintf "%s at frame %d" what pos)
      ~want:(Replayer.kernel replay)
      (Replayer.kernel (Replayer.restore_exn trace snap))
  in
  let snaps = Array.make (n + 1) (Replayer.snapshot walk) in
  for pos = 1 to n + lag do
    if pos <= n then begin
      ignore (Replayer.step walk);
      snaps.(pos) <- Replayer.snapshot walk
    end;
    if pos >= lag then check_restore ~what:"walking" behind snaps.(pos - lag)
  done;
  let forks = Telemetry.counter_value forks - f0
  and reuses = Telemetry.counter_value reuses - u0 in
  if reuses <= forks then
    Alcotest.failf "%d snapshots forked %d spaces and reused only %d forks"
      (n + 1) forks reuses;
  let linear = Replayer.start trace in
  Array.iter (check_restore ~what:"restored again" linear) snaps

(* ---- page-table rules on small programs ----------------------------- *)

(* The simulator's mmap flag encoding (Kernel.sys_mmap). *)
let map_anon = 1
let map_shared = 2
let map_fixed = 4

let page_a = 0x300000
let page_b = page_a + Mem.page_size
let page_c = page_b + Mem.page_size
let page_d = page_c + Mem.page_size

let record_prog emit =
  let setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    let b = G.create () in
    G.emit b (emit b);
    K.install_image k ~path:"/bin/t" (G.build b ~name:"t" ())
  in
  let opts = { Recorder.default_opts with intercept = false } in
  let trace, _, _ = Recorder.record ~opts ~setup ~exe:"/bin/t" () in
  trace

let mmap_fixed ~pages ~flags =
  G.sc Sysno.mmap
    [ G.imm page_a; G.imm (pages * Mem.page_size); G.imm Mem.prot_rw;
      G.imm (map_anon lor map_fixed lor flags); G.imm 0; G.imm 0 ]

let store addr v = [ Asm.movi 9 addr; Asm.movi 10 v; Asm.store 10 9 0 ]

let is_syscall nr = function
  | E.E_syscall { nr = n; _ } -> n = nr
  | _ -> false

(* Step [r] until it has applied a frame satisfying [p]. *)
let rec step_past r p =
  if Replayer.at_end r then Alcotest.fail "no such frame in the trace"
  else if not (p (Replayer.step r)) then step_past r p

let replay_past trace p =
  let r = Replayer.start trace in
  step_past r p;
  r

let round_trip snap =
  let pool = Trace_index.Pool.create () in
  Snapshot.decode pool (Codec.whole (Snapshot.encode pool snap))

let space r pid =
  match
    List.find_opt
      (fun (p : T.process) -> p.T.pid = pid)
      (live_procs (Replayer.kernel r))
  with
  | Some p -> p.T.space
  | None -> Alcotest.failf "no live process %d" pid

let root r =
  match live_procs (Replayer.kernel r) with
  | p :: _ -> p.T.pid
  | [] -> Alcotest.fail "no live process"

let frame s addr = Option.get (A.find_page s (Mem.page_index addr))
let word s addr = A.read_u64 ~force:true s addr

let test_equal_private_frames_split_on_write () =
  (* After the first getpid the two private pages hold equal bytes; the
     guest then writes one and loads the other into r11, which the next
     frame's register check compares with the recording. *)
  let trace =
    record_prog (fun _ ->
        mmap_fixed ~pages:2 ~flags:0
        @. store page_a 0x5a5a @. store page_b 0x5a5a
        @. G.sc Sysno.getpid []
        @. store page_a 7
        @. [ Asm.movi 9 page_b; Asm.load 11 9 0 ]
        @. G.sc Sysno.getpid []
        @. G.sys_exit_group 0)
  in
  let live = replay_past trace (is_syscall Sysno.getpid) in
  let snap = round_trip (Replayer.snapshot live) in
  let r1 = Replayer.restore_exn trace snap in
  let pid = root r1 in
  Alcotest.(check bool) "equal private frames decode to one frame" true
    (frame (space r1 pid) page_a == frame (space r1 pid) page_b);
  step_past r1 (is_syscall Sysno.getpid);
  Alcotest.(check int) "the written page" 7 (word (space r1 pid) page_a);
  Alcotest.(check int) "its twin kept its bytes" 0x5a5a
    (word (space r1 pid) page_b);
  (* A supervisor write through the other mapping splits it too, and
     neither write reached the snapshot. *)
  let r2 = Replayer.restore_exn trace snap in
  A.write_u64 ~force:true (space r2 pid) page_b 9;
  Alcotest.(check int) "twin after a write to page b" 0x5a5a
    (word (space r2 pid) page_a);
  let r3 = Replayer.restore_exn trace snap in
  Alcotest.(check (list int)) "the snapshot is untouched" [ 0x5a5a; 0x5a5a ]
    [ word (space r3 pid) page_a; word (space r3 pid) page_b ]

let test_shared_frames_keep_identity () =
  (* Four MAP_SHARED pages, two written with equal bytes and two left
     zero, then fork: parent and child alias each page, and the four
     pages are four frames. *)
  let trace =
    record_prog (fun b ->
        let status = G.bss b 8 in
        mmap_fixed ~pages:4 ~flags:map_shared
        @. store page_a 0x77 @. store page_b 0x77
        @. G.sys_fork
        @. [ Asm.jz 0 "child"; Asm.movr 7 0 ]
        @. G.sys_wait4 ~pid:(G.reg 7) ~status_addr:(G.imm status)
        @. G.sys_exit_group 0
        @. [ Asm.label "child" ]
        @. G.sc Sysno.getpid []
        @. G.sys_exit_group 0)
  in
  let live = replay_past trace (function E.E_clone _ -> true | _ -> false) in
  let parent, child =
    match live_procs (Replayer.kernel live) with
    | [ p; c ] -> (p.T.pid, c.T.pid)
    | ps -> Alcotest.failf "%d live processes, expected 2" (List.length ps)
  in
  let snap = Replayer.snapshot live in
  let pool = Trace_index.Pool.create () in
  let blob = Snapshot.encode pool snap in
  (* The live session keeps writing its shared frame in place; neither
     the checkpoint nor its pool entries may see that. *)
  A.write_u64 ~force:true (space live parent) page_a 0x55;
  Alcotest.(check int) "live child sees the live parent's write" 0x55
    (word (space live child) page_a);
  Alcotest.(check int) "the checkpoint does not" 0x77
    (word (space (Replayer.restore_exn trace snap) child) page_a);
  let decoded = Snapshot.decode pool (Codec.whole blob) in
  let r = Replayer.restore_exn trace decoded in
  let p = space r parent and c = space r child in
  let window addr =
    let f = frame p addr in
    (f.Mem.bytes, f.Mem.off)
  in
  Alcotest.(check bool) "equal shared frames borrow one pool window" true
    (let (a, i), (b, j) = (window page_a, window page_b) in
     a == b && i = j);
  Alcotest.(check bool) "parent and child alias page a" true
    (frame p page_a == frame c page_a);
  Alcotest.(check bool) "parent and child alias page b" true
    (frame p page_b == frame c page_b);
  Alcotest.(check bool) "equal shared frames stay distinct" false
    (frame p page_a == frame p page_b);
  Alcotest.(check bool) "zero shared frames stay distinct" false
    (frame p page_c == frame p page_d);
  A.write_u64 ~force:true p page_a 0x99;
  Alcotest.(check (list int)) "a write shows through the alias only"
    [ 0x99; 0x77; 0x77 ]
    [ word c page_a; word p page_b; word c page_b ];
  let again = Replayer.restore_exn trace decoded in
  Alcotest.(check int) "the decoded snapshot is untouched" 0x77
    (word (space again child) page_a)

(* A space that maps a MAP_SHARED frame forks again at every
   checkpoint, even when nothing changed it: another process writes the
   frame in place.  Here the parent waits while its child stores through
   the shared page, and each checkpoint must show the parent the stores
   made up to its frame. *)
let test_shared_frame_spaces_fork_again () =
  let trace =
    record_prog (fun b ->
        let status = G.bss b 8 in
        mmap_fixed ~pages:1 ~flags:map_shared
        @. G.sys_fork
        @. [ Asm.jz 0 "child"; Asm.movr 7 0 ]
        @. G.sys_wait4 ~pid:(G.reg 7) ~status_addr:(G.imm status)
        @. G.sys_exit_group 0
        @. [ Asm.label "child" ]
        @. List.concat_map
             (fun v -> store page_a v @. G.sc Sysno.getpid [])
             [ 1; 2; 3 ]
        @. G.sys_exit_group 0)
  in
  let live = replay_past trace (function E.E_clone _ -> true | _ -> false) in
  let parent = root live in
  let parent_view r =
    List.find_map
      (fun (p : T.process) ->
        if p.T.pid = parent then Some (word p.T.space page_a) else None)
      (live_procs (Replayer.kernel r))
  in
  let seen = ref [] in
  let note () =
    let snap = Replayer.snapshot live in
    seen := (Snapshot.frame snap, parent_view live, snap) :: !seen
  in
  note ();
  while not (Replayer.at_end live) do
    ignore (Replayer.step live);
    note ()
  done;
  List.iter
    (fun (pos, view, snap) ->
      Alcotest.(check (option int))
        (Printf.sprintf "the parent's shared word at frame %d" pos)
        view
        (parent_view (Replayer.restore_exn trace snap)))
    !seen;
  Alcotest.(check (list int)) "the parent saw every store" [ 0; 1; 2; 3 ]
    (List.sort_uniq compare (List.filter_map (fun (_, v, _) -> v) !seen))

(* The growth bound is deterministic: a blob's size depends only on the
   trace. *)
let blob_size_after_mmap ~pages ~flags =
  let trace =
    record_prog (fun _ ->
        mmap_fixed ~pages ~flags @. G.sc Sysno.getpid [] @. G.sys_exit_group 0)
  in
  let r = replay_past trace (is_syscall Sysno.getpid) in
  String.length
    (Snapshot.encode (Trace_index.Pool.create ()) (Replayer.snapshot r))

let test_zero_pages_cost_bytes () =
  let extra = 256 in
  List.iter
    (fun (kind, flags) ->
      let small = blob_size_after_mmap ~pages:1 ~flags in
      let big = blob_size_after_mmap ~pages:(1 + extra) ~flags in
      if big - small >= 32 * extra then
        Alcotest.failf "%d more %s zero pages grew the blob by %d bytes" extra
          kind (big - small))
    [ ("private", 0); ("shared", map_shared) ]

(* A blob whose version is not the codec's is not decoded: the seek
   counts index.fallback and replays from the live checkpoints, landing
   on the state a scan-only session reaches. *)
let test_old_version_blob_falls_back () =
  let cell = 0x120000 in
  let trace =
    record_prog (fun b ->
        List.concat_map
          (fun v ->
            store cell v @. G.compute_loop b ~n:50 @. G.sc Sysno.getpid [])
          [ 1; 2; 3; 4 ]
        @. G.sys_exit_group 0)
  in
  let ix = Trace_indexer.build_and_attach ~checkpoint_every:2 trace in
  let pool = Trace_index.pool ix in
  Trace_index.set_checkpoints ix ~pool
    (List.map
       (fun (frame, (blob : Codec.slice)) ->
         (* The version is the blob's leading uvarint; version 2 carried
            every distinct frame of its blob in the blob. *)
         Alcotest.(check char) "blobs lead with their version" '\003'
           blob.str.[blob.pos];
         ( frame,
           Codec.whole
             ("\002" ^ String.sub blob.str (blob.pos + 1) (blob.len - 1)),
           Trace_index.Pool.length pool ))
       (Array.to_list (Trace_index.checkpoints ix)));
  let tmp = Filename.temp_file "rr_snapshot_v1" ".rrtrace" in
  Trace.save_exn trace tmp;
  let cold = Trace.open_exn tmp in
  Sys.remove tmp;
  let session use_index =
    Debugger.create ~opts:(Debugger.make_opts ~use_index ()) cold
  in
  let d = session true and d0 = session false in
  let target = Debugger.n_events d - 1 in
  let fallback = Telemetry.counter "index.fallback" in
  let hit = Telemetry.counter "index.hit" in
  let f0 = Telemetry.counter_value fallback in
  let h0 = Telemetry.counter_value hit in
  Debugger.seek d target;
  Alcotest.(check bool) "index.fallback counted" true
    (Telemetry.counter_value fallback > f0);
  Alcotest.(check int) "no index.hit" h0 (Telemetry.counter_value hit);
  Debugger.seek d0 target;
  Alcotest.(check int) "same position" (Debugger.pos d0) (Debugger.pos d);
  Alcotest.(check int) "same clock" (Debugger.clock d0) (Debugger.clock d);
  let root = List.hd (Debugger.live_tids d0) in
  Alcotest.(check int) "same memory" (Debugger.read_word d0 root cell)
    (Debugger.read_word d root cell);
  Alcotest.(check bool) "same registers" true
    (Debugger.regs d0 root = Debugger.regs d root)

(* A forged blob declaring many zero pages: 2 bytes an entry, where a
   private 4 KB buffer each would allocate thousands of times the blob.
   The header is a valid one; the procs list after the page table is
   missing, so decoding must end in [Codec.Corrupt]. *)
let forged_blob ~entries ~declared =
  let b = Codec.sink () in
  Codec.put_uvarint b 3 (* codec version *);
  List.iter (Codec.put_uvarint b) [ 0; 0 ] (* frame, events applied *);
  List.iter (Codec.put_int b) [ 1; 0 ] (* root, clock *);
  Codec.put_bytes b (Bytes.make 8 '\000') (* entropy *);
  Codec.put_int b 0 (* tsc *);
  List.iter (Codec.put_uvarint b) [ 0; 0 ] (* trace events, chunks *);
  Codec.put_string b "/bin/t";
  Codec.put_uvarint b 0 (* installed images *);
  Codec.put_uvarint b declared;
  for _ = 1 to entries do
    Codec.put_uvarint b 2 (* zero flag *);
    Codec.put_int b Mem.prot_rw
  done;
  Buffer.contents b

let test_forged_blob_bounded () =
  List.iter
    (fun (what, blob) ->
      let a0 = Gc.allocated_bytes () in
      let pool = Trace_index.Pool.create () in
      (match Snapshot.decode pool (Codec.whole blob) with
      | _ -> Alcotest.failf "%s: decoded" what
      | exception Codec.Corrupt _ -> ());
      let allocated = Gc.allocated_bytes () -. a0 in
      if allocated > 64. *. float_of_int (String.length blob) then
        Alcotest.failf "%s: a %d-byte blob allocated %.0f bytes" what
          (String.length blob) allocated)
    [ ("100,000 zero entries",
       forged_blob ~entries:100_000 ~declared:100_000);
      ("a count beyond the bytes",
       forged_blob ~entries:10 ~declared:(1 lsl 40)) ]

(* ---- register fields are checked where text is decoded ------------- *)

(* An image whose dead code names register 16 records and indexes, since
   nothing runs that instruction.  The interpreter has 16 registers, so
   both places a trace's text is decoded refuse it with a typed error:
   every durable checkpoint's text section, and the image's 'I' record
   when the saved trace is opened. *)
let test_register_out_of_range () =
  let trace =
    record_prog (fun _ ->
        G.sc Sysno.getpid [] @. G.sc Sysno.getpid [] @. G.sys_exit_group 0
        @. [ Asm.I (Insn.Alu (Insn.Add, 16, Insn.Imm 1)) ])
  in
  let ix = Trace_indexer.build_and_attach ~checkpoint_every:1 trace in
  (* Between the exec (frame 0) and the exit, the process has text. *)
  let live =
    Array.to_list (Trace_index.checkpoints ix)
    |> List.filter (fun (frame, _) -> frame > 0 && frame < Trace.n_events trace)
  in
  Alcotest.(check bool) "checkpoints of the running process" true (live <> []);
  List.iter
    (fun (frame, blob) ->
      match Snapshot.decode (Trace_index.pool ix) blob with
      | _ -> Alcotest.failf "the checkpoint at frame %d decoded" frame
      | exception Codec.Corrupt _ -> ())
    live;
  let tmp = Filename.temp_file "rr_snapshot" ".rrtrace" in
  Trace.save_exn trace tmp;
  let opened = Trace.open_ tmp in
  Sys.remove tmp;
  match opened with
  | Error (Trace.Corrupt _) -> ()
  | Error e -> Alcotest.failf "open: %a, not Corrupt" Trace.pp_error e
  | Ok _ -> Alcotest.fail "a trace whose image names r16 opened"

let suites =
  [ ( "rr.snapshot",
      [ Alcotest.test_case "serve checkpoints restore the replayed state"
          `Quick test_serve_checkpoints_restore;
        Alcotest.test_case "live checkpoints that reuse forks restore" `Quick
          test_live_checkpoints_reuse_forks;
        Alcotest.test_case "equal private frames split on write" `Quick
          test_equal_private_frames_split_on_write;
        Alcotest.test_case "shared frames keep identity and aliasing" `Quick
          test_shared_frames_keep_identity;
        Alcotest.test_case "spaces with shared frames fork again" `Quick
          test_shared_frame_spaces_fork_again;
        Alcotest.test_case "zero pages cost bytes, not pages" `Quick
          test_zero_pages_cost_bytes;
        Alcotest.test_case "old-version blob falls back to the scan" `Quick
          test_old_version_blob_falls_back;
        Alcotest.test_case "forged zero entries allocate little" `Quick
          test_forged_blob_bounded;
        Alcotest.test_case "a register outside r0-r15 is corrupt" `Quick
          test_register_out_of_range ] ) ]
