(* The repository benchmark: record, replay, index and seek one workload
   in a closed loop for a fixed host-time budget, and report every
   metric on both clocks (README.md in this directory).

     dune build ./perfbench/rrbench.exe
     ./_build/default/perfbench/rrbench.exe --workload syscall_storm \
       --seed 1 --seconds 35 --trace 0

   One round is: record + save, cold open + verified replay, index build
   + save, then sixteen two-query debugger sessions on the indexed file
   opened cold.  Each operation runs to completion before the next
   starts, between two calibration slices that turn its host times into
   nominal seconds (see [calibrated]).  With [--trace 0] every round is
   untraced and the last stdout
   line carries the end-to-end metrics.  With [--trace 1] untraced and
   traced rounds alternate: traced rounds keep a host-clock span around
   every call into a layer, the per-layer metrics are read off those
   spans, and [trace_overhead] compares the two kinds of round.  The
   spans are written to the output directory at exit.

   Correctness: every operation is checked (exit status against the
   baseline, replay with register checks, seeks against the frame and
   virtual clock the full replay reached), and every virtual-clock
   reading, byte size and count must repeat exactly across the rounds of
   one run.  A mismatch is a failed operation. *)

let now = Unix.gettimeofday

(* ---- workloads -------------------------------------------------------- *)

(* Why each workload, and why these sizes: README.md. *)
let make_workload ~small = function
  | "syscall_storm" ->
    let conns, requests = if small then (4, 8) else (16, 64) in
    Wl_serve.make
      ~params:
        { Wl_serve.default with
          Wl_serve.conns;
          requests;
          server_work = 50;
          client_work = 50 }
      ()
  | "jit_compute" ->
    let iters = if small then 30 else 500 in
    Wl_octane.make ~params:{ Wl_octane.default with Wl_octane.iters } ()
  | "bulk_copy" ->
    let files, file_kb = if small then (2, 64) else (16, 512) in
    Wl_cp.make ~params:{ Wl_cp.files; file_kb } ()
  | name -> invalid_arg ("unknown workload " ^ name)

(* Debugger sessions per round, two seek queries each. *)
let sessions = 16

(* ---- samples and statistics ------------------------------------------- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 32

let add name v =
  let prev = Option.value ~default:[] (Hashtbl.find_opt samples name) in
  Hashtbl.replace samples name (v :: prev)

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)

(* Linear interpolation between closest ranks; [nan] without samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* ---- spans ------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;
  t0 : float;
  t1 : float;
  mutable scale : float; (* to nominal seconds; see [calibrated] *)
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []

(* [timed name f] runs [f] and returns its result with its host seconds.
   While tracing, the interval is also kept as a span nested under the
   innermost open one. *)
let timed name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let t0 = now () in
  let close () =
    let t1 = now () in
    open_spans := List.tl !open_spans;
    if !tracing then spans := { id; name; parent; t0; t1; scale = 1. } :: !spans;
    t1 -. t0
  in
  match f () with
  | r -> (r, close ())
  | exception e ->
    ignore (close ());
    raise e

let span_durations name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. s.scale) else None)
    !spans

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"spans\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"start_s\":%.9f,\"dur_s\":%.9f,\"scale\":%.6f}"
            s.id s.name s.parent s.t0 (s.t1 -. s.t0) s.scale)
        (List.rev !spans);
      output_string oc "]}\n")

(* ---- host speed ------------------------------------------------------- *)

(* On a shared 2-vCPU Xeon VM, host speed swings by a third from one
   second to the next, and by half over minutes, as neighbours come and
   go.  So a short
   calibration slice — a fixed piece of this file's own code — runs
   between every two timed operations, and each operation's host times
   are scaled by [cal_ref] over the mean of the slices on either side of
   it: they read as seconds on a host where the slice takes [cal_ref].
   The slice builds a string-keyed hashtable from freshly allocated
   tuples, which on that VM tracked the record time of the CPU-bound
   workloads best among the loops tried.  It calls nothing in lib/, so
   no change there can move it, and the collector paces its major work
   by allocation, so a bigger live heap does not slow the slice. *)
let cal_ref = 0.025

let calibrate () =
  let entries = List.init 40_000 (fun i -> (i, string_of_int i)) in
  let table = Hashtbl.create 1024 in
  List.iter (fun (i, key) -> Hashtbl.replace table key i) entries;
  Hashtbl.length table

let last_slice = ref cal_ref

let cal_point () =
  let t0 = now () in
  ignore (Sys.opaque_identity (calibrate ()));
  last_slice := now () -. t0;
  add "calibration_s" !last_slice

(* Host-time samples taken inside [calibrated] wait here for its scale. *)
let pending : (string * float) list ref = ref []

let add_host name v = pending := (name, v) :: !pending

(* Run [f] between two calibration slices, then scale the host-time
   samples and spans it produced to nominal seconds. *)
let calibrated f =
  let first = !next_id and pre = !last_slice in
  let r = f () in
  cal_point ();
  let k = 2. *. cal_ref /. (pre +. !last_slice) in
  List.iter (fun (name, v) -> add name (k *. v)) !pending;
  pending := [];
  let rec rescale = function
    | s :: rest when s.id >= first ->
      s.scale <- k;
      rescale rest
    | _ -> ()
  in
  rescale !spans;
  r

(* ---- operations and correctness gates --------------------------------- *)

let attempted = ref 0
let failed = ref 0
let correct = ref true

let complain what msg = Fmt.epr "rrbench: %s: %s@." what msg

(* One closed-loop operation: counted as attempted, and as failed when
   it raises or returns [Error]. *)
let op what f =
  incr attempted;
  match f () with
  | Ok v -> Some v
  | Error msg ->
    incr failed;
    complain what msg;
    None
  | exception e ->
    incr failed;
    complain what (Printexc.to_string e);
    None

(* The first value seen for each fact; later rounds must repeat it. *)
let facts : (string, int) Hashtbl.t = Hashtbl.create 64

let fact name = Option.value ~default:0 (Hashtbl.find_opt facts name)

let check_facts kvs =
  List.fold_left
    (fun acc (k, v) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match Hashtbl.find_opt facts k with
        | None ->
          Hashtbl.add facts k v;
          Ok ()
        | Some v0 when v0 = v -> Ok ()
        | Some v0 ->
          Error (Printf.sprintf "%s = %d, but %d in an earlier round" k v v0)))
    (Ok ()) kvs

let ( let* ) = Result.bind

let counter (s : Telemetry.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name s.Telemetry.snap_counters)

let file_size path = (Unix.stat path).Unix.st_size

let remove path = if Sys.file_exists path then Sys.remove path

(* ---- the workload under test ------------------------------------------ *)

(* What the checks need from the untraced baseline run. *)
type base = {
  wall_ns : int;
  exit_status : int option;
  insns : int;
  syscalls : int;
}

let summarize (r : Workload.run_result) =
  { wall_ns = r.Workload.wall_time;
    exit_status = r.Workload.exit_status;
    insns = r.Workload.kernel.Kernel.insns_retired;
    syscalls = r.Workload.kernel.Kernel.syscall_count }

type ctx = {
  w : Workload.t;
  base : base;
  plain : string; (* the recorded trace *)
  indexed : string; (* the same trace with its index attached *)
  rec_opts : Recorder.opts;
  rep_opts : Replayer.opts;
  mutable clocks : int array option;
      (* virtual clock at each position, from the first verified replay *)
  mutable pool : (int * int) array; (* seek targets, drawn once *)
}

let seed = ref 1

let baseline w = summarize (Workload.baseline ~seed:!seed w)

let record c =
  op "record" @@ fun () ->
  remove c.plain;
  let a0 = Gc.allocated_bytes () in
  let res, run_s =
    timed "recorder.run" (fun () ->
        Recorder.run ~opts:c.rec_opts ~setup:c.w.Workload.setup
          ~exe:c.w.Workload.exe ())
  in
  let alloc = Gc.allocated_bytes () -. a0 in
  let* trace, st, _ = Result.map_error Recorder.error_to_string res in
  let saved, save_s = timed "trace.save" (fun () -> Trace.save trace c.plain) in
  let* () = Result.map_error Trace.error_to_string saved in
  let* () =
    if st.Recorder.exit_status = c.base.exit_status then Ok ()
    else Error "exit status differs from the baseline run"
  in
  let ts = st.Recorder.trace_stats and tm = st.Recorder.telemetry in
  let* () =
    check_facts
      [ ("record.virtual_ns", st.Recorder.wall_time);
        ("trace.bytes", file_size c.plain);
        ("trace.frames", ts.Trace.n_events);
        ("trace.chunks", ts.Trace.n_chunks);
        ("trace.raw_bytes", ts.Trace.raw_bytes);
        ("trace.compressed_bytes", ts.Trace.compressed_bytes);
        ("trace.cloned_bytes", ts.Trace.cloned_bytes);
        ("recorder.stops", st.Recorder.n_ptrace_stops);
        ("recorder.syscalls", st.Recorder.n_syscalls);
        ("record.stop_elided", counter tm "record.stop_elided");
        ("syscallbuf.hit", counter tm "syscallbuf.hit");
        ("syscallbuf.fallback", counter tm "syscallbuf.fallback") ]
  in
  add_host "record_s" (run_s +. save_s);
  add "gc.record_alloc_mb" (alloc /. 1e6);
  Ok ()

(* Cold open + full verified replay.  Returns the opened trace, which
   the index build then reuses. *)
let replay c =
  op "replay" @@ fun () ->
  let opened, open_s = timed "trace.open" (fun () -> Trace.open_ c.plain) in
  let* t = Result.map_error Trace.error_to_string opened in
  let n = Trace.n_events t in
  let clocks = Array.make (n + 1) 0 in
  let i = ref 0 in
  let on_frame k =
    incr i;
    if !i <= n then clocks.(!i) <- Kernel.now k
  in
  let a0 = Gc.allocated_bytes () in
  let (st, _), run_s =
    timed "replayer.replay" (fun () ->
        Replayer.replay ~opts:c.rep_opts ~on_frame t)
  in
  let alloc = Gc.allocated_bytes () -. a0 in
  let* () =
    if st.Replayer.exit_status <> c.base.exit_status then
      Error "exit status differs from the baseline run"
    else if st.Replayer.events_applied <> n then
      Error (Printf.sprintf "applied %d of %d frames" st.Replayer.events_applied n)
    else Ok ()
  in
  let* () =
    match c.clocks with
    | None ->
      c.clocks <- Some clocks;
      Ok ()
    | Some ref_clocks when ref_clocks = clocks -> Ok ()
    | Some _ -> Error "per-frame virtual clocks differ from an earlier replay"
  in
  let tm = st.Replayer.telemetry in
  let* () =
    check_facts
      [ ("replay.virtual_ns", st.Replayer.wall_time);
        ("replayer.stops", st.Replayer.n_ptrace_stops);
        ("replay.bp_syscall", counter tm "replay.bp_syscall");
        ("replay.singlestep", counter tm "replay.singlestep");
        ("replay.chunk_hit", counter tm "trace.chunk.hit");
        ("replay.chunk_miss", counter tm "trace.chunk.miss") ]
  in
  add_host "replay_s" (open_s +. run_s);
  add "gc.replay_alloc_mb" (alloc /. 1e6);
  Ok t

let index c t =
  op "index" @@ fun () ->
  remove c.indexed;
  let saved, s =
    timed "index" (fun () ->
        ignore (timed "trace_indexer.build" (fun () -> Trace_indexer.build_and_attach t));
        fst (timed "index.save" (fun () -> Trace.save t c.indexed)))
  in
  let* () = Result.map_error Trace.error_to_string saved in
  let* () = check_facts [ ("index.bytes", file_size c.indexed) ] in
  add_host "index_s" s;
  Ok ()

(* Seek targets: a pool of [sessions * slices] pairs drawn from the
   seed, two per debugger session, so the second query jumps forward or
   backward from the first.  Both ends are stratified over the trace, so
   every seed covers it evenly, then shuffled; round [r] runs slice
   [r mod slices].  Frame 0 is excluded: the reference clocks start
   after the first applied frame. *)
let slices = 8

let draw_pool c =
  if c.pool = [||] then begin
    let n = fact "trace.frames" in
    let rng = Random.State.make [| !seed; n |] in
    let p = sessions * slices in
    let stratified () =
      let a =
        Array.init p (fun i ->
            let lo = i * n / p and hi = (i + 1) * n / p in
            1 + lo + Random.State.int rng (max 1 (hi - lo)))
      in
      for i = p - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      a
    in
    let a = stratified () in
    let b = stratified () in
    c.pool <- Array.init p (fun i -> (a.(i), b.(i)))
  end

let seek c d target =
  op "seek" @@ fun () ->
  let r, s =
    timed "debugger.seek" (fun () -> Debugger.Query.seek_to_frame d target)
  in
  let* () = Result.map_error Debugger.Query.error_to_string r in
  let expected = match c.clocks with Some a -> a.(target) | None -> -1 in
  if Debugger.pos d <> target then
    Error (Printf.sprintf "seek to %d landed on %d" target (Debugger.pos d))
  else if Debugger.clock d <> expected then
    Error
      (Printf.sprintf "seek to %d: virtual clock %d, replay reached %d" target
         (Debugger.clock d) expected)
  else begin
    add_host "seek_ms" (s *. 1000.);
    Ok ()
  end

(* Open the indexed trace cold, then run each pair of this round's slice
   in a fresh debugger session on it. *)
let seek_sessions c ~round =
  if Sys.file_exists c.indexed then begin
    draw_pool c;
    let slice = round mod slices in
    let pairs = Array.to_list (Array.sub c.pool (slice * sessions) sessions) in
    let tm0 = Telemetry.snapshot () in
    calibrated @@ fun () ->
    match fst (timed "seek.open" (fun () -> Trace.open_ c.indexed)) with
    | Error e ->
      let msg = Trace.error_to_string e in
      List.iter
        (fun _ ->
          for _ = 1 to 2 do
            ignore (op "seek" (fun () -> Error msg))
          done)
        pairs
    | Ok t -> (
      List.iter
        (fun (a, b) ->
          let d = Debugger.create t in
          if seek c d a <> None then ignore (seek c d b))
        pairs;
      (* The slice's counters are one more fact to repeat; a difference
         counts as one more failure. *)
      let tm = Telemetry.since tm0 in
      let at name = Printf.sprintf "%s@%d" name slice in
      match
        check_facts
          [ (at "index.hit", counter tm "index.hit");
            (at "index.fallback", counter tm "index.fallback");
            (at "replay.checkpoint_restore", counter tm "replay.checkpoint_restore");
            (at "seek.chunk_hit", counter tm "trace.chunk.hit");
            (at "seek.chunk_miss", counter tm "trace.chunk.miss") ]
      with
      | Ok () -> ()
      | Error msg ->
        incr failed;
        complain "seek" msg)
  end

(* ---- traced-round extras: layers timed on their own ------------------- *)

let baseline_pass c =
  let r, _ = timed "kern.baseline" (fun () -> baseline c.w) in
  if
    r.wall_ns <> c.base.wall_ns || r.exit_status <> c.base.exit_status
  then begin
    correct := false;
    complain "baseline" "not deterministic"
  end

(* Decode every frame of a cold-opened trace, then run its stored chunks
   back through [Compress]: inflate, and deflate the result, which must
   give the stored bytes again. *)
let decode_pass c =
  match Trace.open_ c.plain with
  | Error e ->
    correct := false;
    complain "decode" (Trace.error_to_string e)
  | Ok t ->
    let n, _ = timed "trace.decode" (fun () -> Trace.Reader.fold (fun _ _ n -> n + 1) t 0) in
    if n <> Trace.n_events t then begin
      correct := false;
      complain "decode" "frame count differs"
    end;
    if Trace.compressed t then begin
      let stored =
        List.init (Array.length (Trace.chunk_index t)) (Trace.chunk_stored t)
      in
      let raw, _ =
        timed "compress.inflate" (fun () -> List.map Compress.inflate stored)
      in
      let again, _ =
        timed "compress.deflate" (fun () -> List.map Compress.deflate raw)
      in
      if again <> stored then begin
        correct := false;
        complain "compress" "deflate of the inflated chunks differs from the stored bytes"
      end;
      Hashtbl.replace facts "compress.raw_bytes"
        (List.fold_left (fun a s -> a + String.length s) 0 raw)
    end

(* ---- rounds ----------------------------------------------------------- *)

let round c ~traced ~round:r =
  (* Every round starts from a compacted heap, so rounds are alike and
     [peak_heap_mb] is the worst single round. *)
  Gc.compact ();
  cal_point ();
  tracing := traced;
  if traced then calibrated (fun () -> baseline_pass c);
  let (), core_s =
    timed "round" (fun () ->
        (match calibrated (fun () -> record c) with
        | None -> ()
        | Some () -> (
          match calibrated (fun () -> replay c) with
          | Some t -> ignore (calibrated (fun () -> index c t))
          | None -> ()));
        seek_sessions c ~round:r)
  in
  add (if traced then "round.traced_s" else "round.untraced_s") core_s;
  if traced then calibrated (fun () -> decode_pass c);
  tracing := false

(* ---- reporting -------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let m ?(n = 1) m_name m_unit m_value = { m_name; m_value; m_unit; m_n = n }

let med_metric name unit key =
  let xs = get key in
  m ~n:(List.length xs) name unit (median xs)

(* The median of a span's durations (nominal seconds), through [f]. *)
let span_metric ?(f = Fun.id) name unit key =
  let xs = span_durations key in
  m ~n:(List.length xs) name unit (f (median xs))

let ratio a b = if b = 0. then 0. else a /. b
let mb = 1e6

let end_to_end c =
  let seeks = get "seek_ms" in
  let base_ns = float_of_int c.base.wall_ns in
  [ med_metric "record_s" "s" "record_s";
    med_metric "replay_s" "s" "replay_s";
    med_metric "index_s" "s" "index_s";
    m ~n:(List.length seeks) "seek_ms.p50" "ms" (quantile 0.5 seeks);
    m ~n:(List.length seeks) "seek_ms.p90" "ms" (quantile 0.9 seeks);
    med_metric "setup_s" "s" "setup_s";
    m "peak_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. mb);
    m "record_slowdown" "x" (ratio (float_of_int (fact "record.virtual_ns")) base_ns);
    m "replay_slowdown" "x" (ratio (float_of_int (fact "replay.virtual_ns")) base_ns);
    m "trace_bytes" "bytes" (float_of_int (fact "trace.bytes")) ]

let per_layer c =
  let f = float_of_int and fc k = float_of_int (fact k) in
  let insns = f c.base.insns in
  let base_s = median (span_durations "kern.baseline") in
  let run_s = median (span_durations "recorder.run") in
  let frames = fc "trace.frames" and stops = fc "recorder.stops" in
  let hit = fc "syscallbuf.hit" and fb = fc "syscallbuf.fallback" in
  (* Seek counters are those of slice 0, which every run covers. *)
  let chunk_hit = fc "replay.chunk_hit" +. fc "seek.chunk_hit@0" in
  let chunk_miss = fc "replay.chunk_miss" +. fc "seek.chunk_miss@0" in
  let raw = fc "compress.raw_bytes" in
  let per_seek k = ratio (fc (k ^ "@0")) (f (2 * sessions)) in
  let nrec = List.length (span_durations "recorder.run") in
  let overhead =
    let tr = median (get "round.traced_s") and un = median (get "round.untraced_s") in
    100. *. ratio (tr -. un) un
  in
  [ m "isa.insns" "count" insns;
    span_metric "isa.minsn_per_s" "Minsn/s" "kern.baseline"
      ~f:(fun s -> ratio insns s /. 1e6);
    span_metric "kern.baseline_s" "s" "kern.baseline";
    m "kern.syscalls" "count" (f c.base.syscalls);
    span_metric "recorder.run_s" "s" "recorder.run";
    m ~n:nrec "recorder.excess_s" "s" (run_s -. base_s);
    m "recorder.stops" "count" stops;
    m ~n:nrec "recorder.us_per_stop" "us" (1e6 *. ratio (run_s -. base_s) stops);
    m "recorder.stops_per_frame" "ratio" (ratio stops frames);
    m "record.stop_elided" "count" (fc "record.stop_elided");
    m "syscallbuf.hit" "count" hit;
    m "syscallbuf.fallback" "count" fb;
    m "syscallbuf.hit_ratio" "ratio" (ratio hit (hit +. fb));
    m "trace.frames" "count" frames;
    m "trace.chunks" "count" (fc "trace.chunks");
    m "trace.raw_bytes" "bytes" (fc "trace.raw_bytes");
    m "trace.compressed_bytes" "bytes" (fc "trace.compressed_bytes");
    m "trace.cloned_bytes" "bytes" (fc "trace.cloned_bytes");
    m "trace.bytes_per_frame" "bytes" (ratio (fc "trace.bytes") frames);
    span_metric "trace.save_s" "s" "trace.save";
    span_metric "trace.save_mb_per_s" "MB/s" "trace.save"
      ~f:(fun s -> ratio (fc "trace.bytes") s /. mb);
    span_metric "trace.open_s" "s" "trace.open";
    span_metric "trace.decode_us_per_frame" "us" "trace.decode"
      ~f:(fun s -> 1e6 *. ratio s frames);
    m "trace.chunk.hit" "count" chunk_hit;
    m "trace.chunk.miss" "count" chunk_miss;
    m "trace.chunk.hit_ratio" "ratio" (ratio chunk_hit (chunk_hit +. chunk_miss));
    span_metric "compress.deflate_mb_per_s" "MB/s" "compress.deflate"
      ~f:(fun s -> ratio raw s /. mb);
    span_metric "compress.inflate_mb_per_s" "MB/s" "compress.inflate"
      ~f:(fun s -> ratio raw s /. mb);
    span_metric "replayer.run_s" "s" "replayer.replay";
    span_metric "replayer.us_per_frame" "us" "replayer.replay"
      ~f:(fun s -> 1e6 *. ratio s frames);
    m "replayer.stops" "count" (fc "replayer.stops");
    m "replay.bp_syscall" "count" (fc "replay.bp_syscall");
    m "replay.singlestep" "count" (fc "replay.singlestep");
    m "index.hit" "per_seek" (per_seek "index.hit");
    m "index.fallback" "per_seek" (per_seek "index.fallback");
    m "replay.checkpoint_restore" "per_seek" (per_seek "replay.checkpoint_restore");
    med_metric "gc.record_alloc_mb" "MB" "gc.record_alloc_mb";
    med_metric "gc.replay_alloc_mb" "MB" "gc.replay_alloc_mb";
    m ~n:(List.length (get "round.traced_s")) "trace_overhead" "%" overhead ]

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    correct := false;
    "0"
  end

let report metrics =
  List.iter
    (fun x ->
      Fmt.pr "%-28s %18.6f %-8s n=%d@." x.m_name x.m_value x.m_unit x.m_n)
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
          (json_float x.m_value) x.m_unit)
      metrics
  in
  if !failed > 0 then correct := false;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct !attempted !failed (String.concat ", " fields)

(* ---- main ------------------------------------------------------------- *)

let setup_repeats = 3

let () =
  let t_start = now () in
  let workload = ref "" and seconds = ref 10 and trace = ref 0 in
  let small = ref false and out = "perfbench/out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME syscall_storm | jit_compute | bulk_copy");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--small", Arg.Set small, " small workload sizes (the benchmark's own tests)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rrbench --workload NAME --seed N --seconds S --trace 0|1";
  Fmt.pr "host: nproc=%d ocaml=%s os=%s word=%d@."
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type Sys.word_size;
  (* Set-up: build the workload and its generated inputs, and run the
     untraced baseline that every check refers to — several times, so
     [setup_s] is a median.  The first repetition is timed from process
     start, so it includes the first calibration slice. *)
  let setup t0 =
    let w = make_workload ~small:!small !workload in
    let base = baseline w in
    add_host "setup_s" (now () -. t0);
    (w, base)
  in
  cal_point ();
  let rec setups i prev =
    let t0 = if i = 0 then t_start else now () in
    let w, base = calibrated (fun () -> setup t0) in
    (match prev with
    | Some (_, p) when p.wall_ns <> base.wall_ns || p.exit_status <> base.exit_status ->
      correct := false;
      complain "baseline" "not deterministic"
    | _ -> ());
    if i + 1 < setup_repeats then setups (i + 1) (Some (w, base)) else (w, base)
  in
  let w, base = setups 0 None in
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let stem =
    Filename.concat out
      (Printf.sprintf "%s-seed%d-%d" !workload !seed (Unix.getpid ()))
  in
  let c =
    { w;
      base;
      plain = stem ^ ".trace";
      indexed = stem ^ ".indexed.trace";
      rec_opts = Recorder.make_opts ~seed:!seed ();
      rep_opts = Replayer.make_opts ~check_regs:true ();
      clocks = None;
      pool = [||] }
  in
  let traced = !trace = 1 in
  Fun.protect
    ~finally:(fun () ->
      remove c.plain;
      remove c.indexed)
    (fun () ->
      let deadline = now () +. float_of_int !seconds in
      let min_rounds = if traced then 2 else 1 in
      let rec loop i =
        if i < min_rounds || now () < deadline then begin
          round c ~traced:(traced && i mod 2 = 1) ~round:i;
          loop (i + 1)
        end
      in
      loop 0);
  (let cal = get "calibration_s" in
   Fmt.pr
     "host speed: calibration slice median %.5f s (q1 %.5f, q3 %.5f) over %d \
      slices; host times are in nominal seconds (slice = %.3f s)@."
     (median cal) (quantile 0.25 cal) (quantile 0.75 cal) (List.length cal)
     cal_ref);
  Fmt.pr "workload=%s seed=%d rounds=%d attempted=%d failed=%d fail_rate=%g@."
    !workload !seed
    (List.length (get "round.untraced_s") + List.length (get "round.traced_s"))
    !attempted !failed
    (ratio (float_of_int !failed) (float_of_int !attempted));
  if traced then
    write_spans (Printf.sprintf "%s-spans.json" stem);
  report (if traced then per_layer c else end_to_end c)
