(* Property tests for the seek-first query API: on an indexed trace —
   in-memory or reopened cold from disk — every [Debugger.Query] answer
   must be byte-identical to the scan-based answer computed with the
   index disabled.  Plus fault injection: a trace whose sidecar index
   records are corrupted salvages with the index dropped and every scan
   query still answering. *)

module K = Kernel
module G = Guest
module E = Event

let ( @. ) = List.append

let cell = 0x120000

(* Same shape as test_debugger's counter program: stores to a known
   cell interleaved with syscalls, so both the per-pc and per-address
   indexes have something to find. *)
let counter_prog _k b =
  let emit_phase v =
    [ Asm.movi 9 cell; Asm.movi 10 v; Asm.store 10 9 0 ]
    @. G.sc Sysno.getpid []
  in
  G.emit b
    (emit_phase 1
    @. G.compute_loop b ~n:150
    @. emit_phase 2
    @. G.compute_loop b ~n:150
    @. emit_phase 3
    @. G.sc Sysno.gettimeofday [ G.imm (cell + 8) ]
    @. emit_phase 4
    @. G.sys_exit_group 0)

let record_counter () =
  let setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    let b = G.create () in
    counter_prog k b;
    K.install_image k ~path:"/bin/t" (G.build b ~name:"t" ())
  in
  let opts = { Recorder.default_opts with intercept = false } in
  let trace, _, _ = Recorder.record ~opts ~setup ~exe:"/bin/t" () in
  trace

(* Shared fixture: one recorded trace, indexed, plus a cold reopen of
   its saved bytes.  Queries never mutate the trace, so every test can
   build its own debugger sessions over these. *)
let fixture =
  lazy
    (let trace = record_counter () in
     ignore (Trace_indexer.build_and_attach ~checkpoint_every:4 trace);
     let tmp = Filename.temp_file "rr_query" ".rrtrace" in
     Trace.save_exn trace tmp;
     let reopened = Trace.open_exn tmp in
     Sys.remove tmp;
     (trace, reopened))

let dbg ?(use_index = true) trace =
  Debugger.create
    ~opts:(Debugger.make_opts ~checkpoint_every:4 ~use_index ())
    trace

let distinct_pcs trace =
  Trace.Reader.to_array trace |> Array.to_seq
  |> Seq.filter_map E.frame_pc
  |> List.of_seq |> List.sort_uniq compare |> Array.of_list

let show_res pp = function
  | Ok v -> Fmt.str "Ok %a" pp v
  | Error e -> Fmt.str "Error (%s)" (Debugger.Query.error_to_string e)

let opt_int = Fmt.option ~none:(Fmt.any "None") Fmt.int

(* The heart of the PR's contract: for seeds' worth of probe points,
   [prev_exec], [last_write] and [seek_to_time] agree across
   {in-memory indexed, reopened-from-disk indexed, index disabled}. *)
let qcheck_indexed_equals_scan =
  QCheck.Test.make ~name:"indexed answers are byte-identical to scans"
    ~count:8
    QCheck.(list_of_size Gen.(2 -- 6) (int_bound 10_000))
    (fun probes ->
      let mem_trace, disk_trace = Lazy.force fixture in
      let d_mem = dbg mem_trace in
      let d_disk = dbg disk_trace in
      let d_scan = dbg ~use_index:false disk_trace in
      if not (Debugger.indexed d_mem && Debugger.indexed d_disk) then
        QCheck.Test.fail_report "fixture traces should carry an index";
      if Debugger.indexed d_scan then
        QCheck.Test.fail_report "use_index:false should disable the index";
      let n = Debugger.n_events d_mem in
      let pcs = distinct_pcs mem_trace in
      let addrs = [| cell; cell + 8; 0x10000; 0x0 |] in
      let agree what a b c =
        if a <> b || b <> c then
          QCheck.Test.fail_reportf "%s: mem=%s disk=%s scan=%s" what a b c
      in
      List.iteri
        (fun i probe ->
          let before = probe mod (n + 1) in
          let pc = pcs.(probe mod Array.length pcs) in
          let show = show_res opt_int in
          agree
            (Fmt.str "prev_exec ~pc:%#x ~before:%d" pc before)
            (show (Debugger.Query.prev_exec ~before d_mem ~pc))
            (show (Debugger.Query.prev_exec ~before d_disk ~pc))
            (show (Debugger.Query.prev_exec ~before d_scan ~pc));
          let addr = addrs.(i mod Array.length addrs) in
          let q d = Debugger.Query.last_write ~before d ~tid:100 ~addr ~len:8 in
          agree
            (Fmt.str "last_write ~addr:%#x ~before:%d" addr before)
            (show (q d_mem))
            (show (q d_disk))
            (show (q d_scan));
          (* A time in range: the clock at some frame, plus a small
             offset so we also probe between recorded readings. *)
          (match Trace.index mem_trace with
          | None -> ()
          | Some ix ->
            let t = Trace_index.clock_at ix before + (i mod 3) in
            let show = show_res Fmt.int in
            agree
              (Fmt.str "seek_to_time %d" t)
              (show (Debugger.Query.seek_to_time d_mem t))
              (show (Debugger.Query.seek_to_time d_disk t))
              (show (Debugger.Query.seek_to_time d_scan t))))
        probes;
      true)

(* Out-of-range inputs come back as typed errors, identically in both
   modes, and never move the session. *)
let test_out_of_range () =
  let _, disk_trace = Lazy.force fixture in
  List.iter
    (fun use_index ->
      let d = dbg ~use_index disk_trace in
      let n = Debugger.n_events d in
      Debugger.seek d 2;
      (match Debugger.Query.seek_to_frame d (n + 1) with
      | Error (Debugger.Query.Out_of_range { min = 0; max; _ }) ->
        Alcotest.(check int) "max is n_events" n max
      | Ok () | Error _ -> Alcotest.fail "seek past the end must be typed");
      Alcotest.(check int) "position unchanged on error" 2 (Debugger.pos d);
      (match Debugger.Query.seek_to_time d (-1) with
      | Error (Debugger.Query.Out_of_range _) -> ()
      | Ok _ -> Alcotest.fail "time before frame 0 must be Out_of_range");
      Alcotest.(check int) "position unchanged on time error" 2
        (Debugger.pos d);
      match Debugger.Query.prev_exec ~before:(n + 2) d ~pc:0x1000 with
      | Error (Debugger.Query.Out_of_range _) -> ()
      | Ok _ -> Alcotest.fail "before past the end must be Out_of_range")
    [ true; false ]

(* The acceptance case: reopen a saved trace cold and seek near the
   end.  The durable checkpoint must be restored (index.hit and
   replay.checkpoint_restore both move) — no full replay from frame 0 —
   and the state there must be the scan session's.  Two inputs: the
   counter program indexed every 4 frames, and a sambatest recording
   indexed every 8, whose buffered syscalls and cloned reads the
   restore must bring back too.  Besides every live task's registers,
   [probe] reads state the program leaves behind. *)
let live_regs d =
  List.concat_map
    (fun tid ->
      let regs, pc = Debugger.regs d tid in
      tid :: pc :: Array.to_list regs)
    (Debugger.live_tids d)

let check_cold_reopen ~every ~probe trace =
  ignore (Trace_indexer.build_and_attach ~checkpoint_every:every trace);
  let tmp = Filename.temp_file "rr_query_cold" ".rrtrace" in
  Trace.save_exn trace tmp;
  let cold = Trace.open_exn tmp in
  Sys.remove tmp;
  let ix =
    match Trace.index cold with
    | Some ix -> ix
    | None -> Alcotest.fail "reopened trace lost its index"
  in
  let d = dbg cold in
  let n = Debugger.n_events d in
  let target = n - 1 in
  (match Trace_index.nearest_checkpoint ix target with
  | Some (frame, _) ->
    Alcotest.(check bool) "a durable checkpoint sits past frame 0" true
      (frame > 0)
  | None -> Alcotest.fail "index carries no durable checkpoint");
  let hits = Telemetry.counter "index.hit" in
  let restores = Telemetry.counter "replay.checkpoint_restore" in
  let h0 = Telemetry.counter_value hits in
  let r0 = Telemetry.counter_value restores in
  Debugger.seek d target;
  Alcotest.(check int) "landed on target" target (Debugger.pos d);
  Alcotest.(check bool) "durable checkpoint used (index.hit moved)" true
    (Telemetry.counter_value hits > h0);
  Alcotest.(check bool) "snapshot restored, not replayed from 0" true
    (Telemetry.counter_value restores > r0);
  (* And the state there is the scan session's state, byte for byte. *)
  let d0 = dbg ~use_index:false cold in
  Debugger.seek d0 target;
  Alcotest.(check (list int)) "same registers and memory as the scan session"
    (live_regs d0 @ probe d0) (live_regs d @ probe d);
  Alcotest.(check int) "same virtual clock as the scan session"
    (Debugger.clock d0) (Debugger.clock d);
  Alcotest.(check (option int)) "same exit status as the scan session"
    (Debugger.exit_status d0) (Debugger.exit_status d)

let test_cold_reopen_seeks_without_full_replay () =
  check_cold_reopen ~every:4
    ~probe:(fun d -> [ Debugger.read_word d 100 cell ])
    (record_counter ());
  let recd, _ = Workload.record (Wl_samba.make ()) in
  check_cold_reopen ~every:8 ~probe:(fun _ -> []) recd.Workload.trace

(* ----- fault injection over the sidecar records -------------------- *)

(* Walk the v3 record stream (tag, uvarint len, payload, crc32) from
   just past the magic and return the payload spans of the records
   carrying [tag], in file order. *)
let find_records data tag =
  let n = String.length data in
  let rec walk pos =
    if pos + 1 >= n then []
    else begin
      let t = data.[pos] in
      let p = ref (pos + 1) in
      let len = ref 0 in
      let shift = ref 0 in
      let fin = ref false in
      while not !fin do
        let b = Char.code data.[!p] in
        len := !len lor ((b land 0x7f) lsl !shift);
        shift := !shift + 7;
        incr p;
        if b < 0x80 then fin := true
      done;
      let rest = walk (!p + !len + 4) in
      if t = tag then (!p, !len) :: rest else rest
    end
  in
  walk 8

let find_record data tag = List.nth_opt (find_records data tag) 0

let corrupt_record path tag =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match find_record data tag with
  | None -> Alcotest.failf "no %C record found in the saved trace" tag
  | Some (off, len) ->
    Alcotest.(check bool) "record has a payload to damage" true (len > 0);
    let b = Bytes.of_string data in
    let i = off + (len / 2) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc

let test_corrupt_index_record_salvages tag () =
  let trace = record_counter () in
  ignore (Trace_indexer.build_and_attach ~checkpoint_every:4 trace);
  let original_frames = Trace.Reader.to_array trace in
  let reference =
    let d = dbg ~use_index:false trace in
    match Debugger.Query.last_write d ~before:(Debugger.n_events d) ~tid:100
            ~addr:cell ~len:8 with
    | Ok r -> r
    | Error e -> Alcotest.failf "reference query: %s"
                   (Debugger.Query.error_to_string e)
  in
  let tmp = Filename.temp_file "rr_query_corrupt" ".rrtrace" in
  Trace.save_exn trace tmp;
  corrupt_record tmp tag;
  (* Strict load refuses the damaged file outright... *)
  (match Trace.open_ tmp with
  | Ok _ -> Alcotest.failf "strict load accepted a corrupt %C record" tag
  | Error _ -> ());
  (* ...salvage keeps every frame and drops only the sidecar. *)
  (match Trace.salvage tmp with
  | Error e ->
    Alcotest.failf "salvage failed: %s" (Trace.error_to_string e)
  | Ok (s, _report) ->
    Alcotest.(check int) "every frame survives"
      (Array.length original_frames)
      (Array.length (Trace.Reader.to_array s));
    (* A damaged meta record must drop the whole index; a damaged
       checkpoint record may at most leave a smaller-but-valid one. *)
    if tag = 'P' then
      Alcotest.(check bool) "index dropped on salvage" true
        (Trace.index s = None);
    let d = dbg s in
    let answer =
      match Debugger.Query.last_write d ~before:(Debugger.n_events d)
              ~tid:100 ~addr:cell ~len:8 with
      | Ok r -> r
      | Error e -> Alcotest.failf "query on salvaged trace: %s"
                     (Debugger.Query.error_to_string e)
    in
    Alcotest.(check (option int)) "scan answer unchanged after salvage"
      reference answer);
  Sys.remove tmp

(* The state a scan-only session reaches at [target], beside [d]'s. *)
let check_scan_state what trace d target =
  let d0 = dbg ~use_index:false trace in
  Debugger.seek d0 target;
  Alcotest.(check (list int)) (what ^ ": the scan session's registers")
    (live_regs d0) (live_regs d);
  Alcotest.(check int) (what ^ ": the scan session's clock")
    (Debugger.clock d0) (Debugger.clock d)

(* A durable checkpoint is used only where its record says it restores
   to, and only with every pool entry its blob names.  The loader's hook
   is given checkpoint 2's blob under checkpoint 1's frame, and then
   every checkpoint with an empty pool: either way a seek just past
   checkpoint 1 counts one index.fallback and no index.hit, and lands
   on its target in the scan session's state. *)
let test_misplaced_checkpoint_falls_back () =
  let trace = record_counter () in
  let ix = Trace_indexer.build_and_attach ~checkpoint_every:4 trace in
  let cps = Array.to_list (Trace_index.checkpoints ix)
  and pool = Trace_index.pool ix in
  let frame1 = fst (List.nth cps 1) and blob2 = snd (List.nth cps 2) in
  let upto = Trace_index.Pool.length pool in
  let seek_falls_back what ~pool cps =
    Trace_index.set_checkpoints ix ~pool
      (List.map (fun (frame, blob) -> (frame, blob, upto)) cps);
    let count name = Telemetry.counter_value (Telemetry.counter name) in
    let h0 = count "index.hit" and f0 = count "index.fallback" in
    let d = dbg trace and target = frame1 + 1 in
    (match Debugger.Query.seek_to_frame d target with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Debugger.Query.error_to_string e));
    Alcotest.(check int) (what ^ ": lands on its target") target
      (Debugger.pos d);
    Alcotest.(check (pair int int)) (what ^ ": (fallbacks, hits)") (1, 0)
      (count "index.fallback" - f0, count "index.hit" - h0);
    check_scan_state what trace d target
  in
  seek_falls_back "checkpoint 2's blob at checkpoint 1's frame" ~pool
    (List.mapi (fun i (frame, blob) -> (frame, if i = 1 then blob2 else blob))
       cps);
  seek_falls_back "a pool without the blobs' entries"
    ~pool:(Trace_index.Pool.create ()) cps

(* Every pool record precedes the first checkpoint record whose blob
   names it, so a file cut inside a pool record salvages every frame and
   the checkpoints before the cut, and each of those restores.  The cut
   lands in the first pool record after the second checkpoint record
   with pool records before it; a seek to the last checkpoint kept
   counts an index.hit and reaches the scan session's state. *)
let test_cut_in_pool_salvages () =
  let trace = record_counter () in
  let ix = Trace_indexer.build_and_attach ~checkpoint_every:1 trace in
  let tmp = Filename.temp_file "rr_query_cut" ".rrtrace" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
  Trace.save_exn trace tmp;
  let data = In_channel.with_open_bin tmp In_channel.input_all in
  let pool = find_records data 'W' in
  let named =
    List.filter
      (fun (k, _) -> List.exists (fun (w, _) -> w < k) pool)
      (find_records data 'K')
  in
  let off, len =
    match named with
    | _ :: (second, _) :: _ -> (
      match List.find_opt (fun (w, _) -> w > second) pool with
      | Some w -> w
      | None -> Alcotest.fail "no pool record after the second checkpoint")
    | _ -> Alcotest.fail "fewer than two checkpoints name pool entries"
  in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (String.sub data 0 (off + (len / 2))));
  match Trace.salvage tmp with
  | Error e -> Alcotest.failf "salvage failed: %s" (Trace.error_to_string e)
  | Ok (s, _) ->
    Alcotest.(check int) "every frame survives" (Trace.n_events trace)
      (Trace.n_events s);
    let cps =
      match Trace.index s with
      | Some ix -> Trace_index.checkpoints ix
      | None -> Alcotest.fail "the salvaged trace lost its index"
    in
    let kept = Array.length cps in
    Alcotest.(check bool)
      (Printf.sprintf "%d of %d checkpoints kept" kept
         (Array.length (Trace_index.checkpoints ix)))
      true
      (kept > 1 && kept < Array.length (Trace_index.checkpoints ix));
    let target = fst cps.(kept - 1) in
    let hits = Telemetry.counter "index.hit" in
    let h0 = Telemetry.counter_value hits in
    let d = dbg s in
    Debugger.seek d target;
    Alcotest.(check int) "one index.hit" 1 (Telemetry.counter_value hits - h0);
    Alcotest.(check int) "lands on the last kept checkpoint" target
      (Debugger.pos d);
    check_scan_state "the last kept checkpoint" s d target

let suites =
  [ ( "rr.query",
      [ QCheck_alcotest.to_alcotest qcheck_indexed_equals_scan;
        Alcotest.test_case "typed out-of-range errors" `Quick
          test_out_of_range;
        Alcotest.test_case "cold reopen seeks without full replay" `Quick
          test_cold_reopen_seeks_without_full_replay;
        Alcotest.test_case "corrupt index meta record salvages" `Quick
          (test_corrupt_index_record_salvages 'P');
        Alcotest.test_case "corrupt checkpoint record salvages" `Quick
          (test_corrupt_index_record_salvages 'K');
        Alcotest.test_case "misplaced checkpoint falls back" `Quick
          test_misplaced_checkpoint_falls_back;
        Alcotest.test_case "corrupt pool record salvages" `Quick
          (test_corrupt_index_record_salvages 'W');
        Alcotest.test_case "file cut in the pool salvages" `Quick
          test_cut_in_pool_salvages ] ) ]
