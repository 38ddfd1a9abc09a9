(* The benchmark harness: regenerates every table and figure from the
   evaluation section of "Engineering Record and Replay for
   Deployability" (USENIX ATC 2017).

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table1  # one artifact

   Times are virtual nanoseconds from the simulation's cost model
   (DESIGN.md): the *ratios* and their ordering are the reproduction
   target, not the absolute values.  EXPERIMENTS.md records the
   paper-vs-measured comparison for every row. *)

let ratio base x = float_of_int x /. float_of_int base

let workloads () =
  [ Wl_cp.make ();
    Wl_make.make ();
    Wl_octane.make ();
    Wl_htmltest.make ();
    Wl_samba.make () ]

(* One full measurement of a workload in every configuration of Table 1. *)
type row = {
  w : Workload.t;
  base : Workload.run_result;
  single : Workload.run_result;
  full : Workload.recorded;
  full_rep : Workload.replayed;
  noi : Workload.recorded;
  noi_rep : Workload.replayed;
  noc : Workload.recorded;
  dbi : Instrument.result;
  tm : Telemetry.snapshot; (* all configurations of this workload *)
}

let measure w =
  (* Null sink, fresh registry: [tm] isolates this workload's counters. *)
  Telemetry.reset ();
  let base = Workload.baseline w in
  let single = Workload.baseline ~cores:1 w in
  let full, _ = Workload.record w in
  let full_rep, _ = Workload.replay full in
  let noi, _ =
    Workload.record ~opts:(Recorder.make_opts ~intercept:false ()) w
  in
  let noi_rep, _ = Workload.replay noi in
  let noc, _ =
    Workload.record ~opts:(Recorder.make_opts ~clone_blocks:false ()) w
  in
  let dbi = Instrument.run w in
  let tm = Telemetry.snapshot () in
  { w; base; single; full; full_rep; noi; noi_rep; noc; dbi; tm }

let rows = lazy (List.map measure (workloads ()))

(* Per-workload counter snapshots, machine-readable: the perf trajectory
   of every later optimisation PR is diffed against this file. *)
let emit_telemetry_json () =
  let oc = open_out "BENCH_telemetry.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",";
          Printf.fprintf oc "\"%s\":%s" r.w.Workload.name
            (Telemetry.snapshot_to_json r.tm))
        (Lazy.force rows);
      output_string oc "}\n");
  Fmt.pr "(wrote BENCH_telemetry.json: per-workload counter snapshots)@."

let rec_time (r : Workload.recorded) = r.Workload.rec_stats.Recorder.wall_time

let rep_time (r : Workload.replayed) = r.Workload.rep_stats.Replayer.wall_time

(* octane is score-based (paper §4.2): overhead = baseline score /
   configuration score, which for our fixed-work benchmark reduces to the
   run-time ratio — noted so the table semantics match the paper. *)
let overhead row t = ratio row.base.Workload.wall_time t

(* ---- the per-stage overhead ledger (ROADMAP item 4) ------------------
   Record each workload once with the timeline armed and decompose the
   record-vs-bare slowdown into stage self-times (kern.run guest
   execution, record.syscall, record.stop bookkeeping, trace.deflate,
   ...).  The stages must sum to >= 90% of the recorded window — an
   attribution that loses a tenth of the time is not an attribution —
   and the result is committed as BENCH_table1.json so every later perf
   PR diffs against a measured baseline.  [--smoke] shrinks the
   workload list so `dune runtest` keeps the ledger honest cheaply. *)

let min_coverage_pct = 90.

(* The stop-elision tentpole's win, stated as a ratio: how many ptrace
   stops does the recorder take per trace frame it emits?  Buffered and
   elided syscalls push it well below one. *)
let tm_stop_elided = Telemetry.counter "record.stop_elided"

type ledger_entry = {
  le_name : string;
  le_slowdown : float;
  le_json : string;
}

let ledger_measure w =
  let name = w.Workload.name in
  Telemetry.reset ();
  let base = Workload.baseline w in
  (* Arm the timeline for the record pass only: the ledger decomposes
     recording overhead, nothing else. *)
  Timeline.start ~capacity:(1 lsl 20) ();
  let recd, _ = Workload.record w in
  Timeline.stop ();
  let a = Timeline.attribution () in
  let dropped = Timeline.dropped () in
  if dropped > 0 then
    Fmt.pr "  (%s: %d timeline events dropped to the buffer cap)@." name
      dropped;
  let base_ns = base.Workload.wall_time in
  let rec_ns = rec_time recd in
  let stops = recd.Workload.rec_stats.Recorder.n_ptrace_stops in
  let frames = recd.Workload.rec_stats.Recorder.trace_stats.Trace.n_events in
  let elided = Telemetry.counter_value tm_stop_elided in
  let stops_per_frame =
    if frames = 0 then 0. else float_of_int stops /. float_of_int frames
  in
  let covered_pct =
    if a.Timeline.at_total_ns = 0 then 0.
    else
      100.
      *. float_of_int a.Timeline.at_covered_ns
      /. float_of_int a.Timeline.at_total_ns
  in
  Fmt.pr "%-10s %.2fx slowdown; %.1f%% attributed:@." name
    (ratio base_ns rec_ns) covered_pct;
  List.iteri
    (fun i s ->
      if i < 4 && s.Timeline.st_self_ns > 0 then
        Fmt.pr "  %-32s %5.1f%%@." s.Timeline.st_name
          (100.
          *. float_of_int s.Timeline.st_self_ns
          /. float_of_int a.Timeline.at_total_ns))
    a.Timeline.at_stages;
  Fmt.pr "  %d stops / %d frames = %.2f stops-per-frame (%d elided)@." stops
    frames stops_per_frame elided;
  if covered_pct < min_coverage_pct then begin
    Fmt.epr
      "FATAL: %s attribution covers %.1f%% of the recorded window, \
       need >= %.0f%% — an instrumentation gap opened somewhere@."
      name covered_pct min_coverage_pct;
    exit 1
  end;
  { le_name = name;
    le_slowdown = ratio base_ns rec_ns;
    le_json =
      Printf.sprintf
        "\"%s\":{\"baseline_ns\":%d,\"record_ns\":%d,\"slowdown\":%.4f,\"stops\":%d,\"frames\":%d,\"stops_per_frame\":%.4f,\"stop_elided\":%d,\"dropped_events\":%d,\"attribution\":%s}"
        name base_ns rec_ns (ratio base_ns rec_ns) stops frames
        stops_per_frame elided dropped
        (Timeline.attribution_to_json a) }

(* ---- the CI perf gate -------------------------------------------------
   [table1 --smoke] (wired into `dune runtest`) re-measures every
   workload's ledger entry and compares it against the committed
   BENCH_table1.json.  The headline is the record slowdown: a workload
   more than 20% slower than its committed number is a regression.  But
   the ledger is on the virtual clock, so it repeats exactly: any field
   that differs (a stage's self_ns or count, stops, frames, record_ns)
   fails the build too, and the gate prints each one with its committed
   and re-measured value.  A missing artifact or a workload the artifact
   lacks fails as well.  A change that means to move the ledger
   refreshes the artifact — `dune exec bench/main.exe -- table1`, then
   commit the regenerated BENCH_table1.json and give the reason — which
   is the documented escape hatch; quietly absorbing a regression is
   not. *)

let gate_tolerance = 1.20

let field k = function Json_min.Obj f -> List.assoc_opt k f | _ -> None

let show_json = function
  | Json_min.Num v -> Printf.sprintf "%.12g" v
  | Json_min.Str s -> Printf.sprintf "%S" s
  | Json_min.Null -> "null"
  | Json_min.Bool b -> string_of_bool b
  | Json_min.List _ -> "[...]"
  | Json_min.Obj _ -> "{...}"

(* Every leaf where [committed] and [measured] differ, as (path,
   committed, re-measured), in the committed file's order; a field only
   one side has reads "missing" on the other. *)
let rec ledger_diff path committed measured acc =
  match (committed, measured) with
  | Json_min.Obj a, Json_min.Obj b ->
    let only_b = List.filter (fun (k, _) -> not (List.mem_assoc k a)) b in
    List.fold_left
      (fun acc (k, v) ->
        let path = path ^ "." ^ k in
        match (List.assoc_opt k a, List.assoc_opt k b) with
        | Some x, Some y -> ledger_diff path x y acc
        | Some x, None -> (path, show_json x, "missing") :: acc
        | None, _ -> (path, "missing", show_json v) :: acc)
      acc (a @ only_b)
  | x, y -> if x = y then acc else (path, show_json x, show_json y) :: acc

let perf_gate entries =
  let committed =
    match
      let ic = open_in "BENCH_table1.json" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg ->
      Fmt.epr
        "FATAL: perf gate has no committed BENCH_table1.json (%s) — \
         generate one with `dune exec bench/main.exe -- table1` and commit \
         it.@."
        msg;
      exit 1
    | json -> (
      match field "workloads" (Json_min.parse json) with
      | Some (Json_min.Obj ws) -> ws
      | Some _ | None -> []
      | exception Json_min.Parse_error msg ->
        Fmt.epr "FATAL: the committed BENCH_table1.json does not parse: %s@."
          msg;
        exit 1)
  in
  let missing, regressed, differing =
    List.fold_left
      (fun (missing, regressed, differing) e ->
        let measured =
          field e.le_name (Json_min.parse ("{" ^ e.le_json ^ "}"))
          |> Option.value ~default:Json_min.Null
        in
        match List.assoc_opt e.le_name committed with
        | None ->
          Fmt.pr "  perf gate %-10s not in the committed artifact@." e.le_name;
          (e.le_name :: missing, regressed, differing)
        | Some c ->
          let committed_slowdown =
            match field "slowdown" c with Some (Json_min.Num v) -> v | _ -> nan
          in
          let limit = committed_slowdown *. gate_tolerance in
          let slower = not (e.le_slowdown <= limit) in
          let diffs = List.rev (ledger_diff e.le_name c measured []) in
          Fmt.pr "  perf gate %-10s %.2fx vs committed %.2fx (limit %.2fx)%s%s@."
            e.le_name e.le_slowdown committed_slowdown limit
            (if slower then "  REGRESSION" else "")
            (match diffs with
            | [] -> ", ledger identical"
            | _ -> Printf.sprintf ", %d ledger fields differ" (List.length diffs));
          List.iter
            (fun (path, was, now) ->
              Fmt.pr "    %s: committed %s, re-measured %s@." path was now)
            diffs;
          ( missing,
            (if slower then e.le_name :: regressed else regressed),
            if diffs = [] then differing else e.le_name :: differing ))
      ([], [], []) entries
  in
  let names l = String.concat ", " (List.rev l) in
  if missing <> [] then
    Fmt.epr
      "FATAL: the committed BENCH_table1.json has no entry for: %s.  \
       Refresh it (`dune exec bench/main.exe -- table1`) and commit it.@."
      (names missing);
  if regressed <> [] then
    Fmt.epr "FATAL: record slowdown regressed >%.0f%% on: %s.@."
      ((gate_tolerance -. 1.) *. 100.)
      (names regressed);
  if differing <> [] then
    Fmt.epr
      "FATAL: the ledger differs from the committed BENCH_table1.json on: \
       %s (fields above).  The ledger is on the virtual clock and repeats \
       exactly, so any difference is a change of mechanism or cost.@."
      (names differing);
  if regressed <> [] || differing <> [] then
    Fmt.epr
      "If the change is intentional, refresh the artifact (`dune exec \
       bench/main.exe -- table1`), commit BENCH_table1.json and give the \
       reason.@.";
  if missing <> [] || regressed <> [] || differing <> [] then exit 1

let table1_ledger ~smoke () =
  Fmt.pr "@.== Table 1 ledger: record slowdown, per-stage attribution ==@.";
  let entries = List.map ledger_measure (workloads ()) in
  if smoke then perf_gate entries
  else begin
    let oc = open_out "BENCH_table1.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\"smoke\":%b,\"min_coverage_pct\":%.0f,\"workloads\":{%s}}\n"
          smoke min_coverage_pct
          (String.concat "," (List.map (fun e -> e.le_json) entries)));
    Fmt.pr "(wrote BENCH_table1.json: slowdown + attribution per workload)@."
  end

let table1_full () =
  Fmt.pr "@.== Table 1: run-time overhead (paper Table 1) ==@.";
  Fmt.pr
    "%-10s | %9s | %7s %7s | %6s | %9s %9s | %8s | %10s@."
    "workload" "baseline" "record" "replay" "1core" "rec-noInt" "rep-noInt"
    "rec-noCl" "DBI-null";
  List.iter
    (fun r ->
      let x v = Fmt.str "%.2fx" v in
      Fmt.pr "%-10s | %7.3fms | %7s %7s | %6s | %9s %9s | %8s | %10s@."
        r.w.Workload.name
        (float_of_int r.base.Workload.wall_time /. 1e6)
        (x (overhead r (rec_time r.full)))
        (x (overhead r (rep_time r.full_rep)))
        (x (overhead r r.single.Workload.wall_time))
        (x (overhead r (rec_time r.noi)))
        (x (overhead r (rep_time r.noi_rep)))
        (x (overhead r (rec_time r.noc)))
        (if r.dbi.Instrument.crashed then "crash"
         else x (overhead r r.dbi.Instrument.time)))
    (Lazy.force rows);
  Fmt.pr
    "(octane rows are score-based as in the paper; baseline is virtual \
     milliseconds)@.";
  emit_telemetry_json ()

(* `table1 --smoke` keeps only the ledger (the full table forces every
   configuration of every workload — too heavy for runtest). *)
let table1 ~smoke () =
  if not smoke then table1_full ();
  table1_ledger ~smoke ()

let bar width v vmax =
  let n = int_of_float (v /. vmax *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

let fig4 () =
  Fmt.pr "@.== Figure 4: overhead excluding make ==@.";
  let rs =
    List.filter (fun r -> r.w.Workload.name <> "make") (Lazy.force rows)
  in
  let vmax = 2.5 in
  List.iter
    (fun r ->
      let rec_ = overhead r (rec_time r.full) in
      let rep = overhead r (rep_time r.full_rep) in
      Fmt.pr "%-10s record %5.2fx |%-25s|@." r.w.Workload.name rec_
        (bar 25 rec_ vmax);
      Fmt.pr "%-10s replay %5.2fx |%-25s|@." "" rep (bar 25 rep vmax))
    rs

let fig5 () =
  Fmt.pr "@.== Figure 5: impact of optimizations on recording ==@.";
  Fmt.pr "%-10s %12s %12s %12s@." "workload" "record" "no-cloning"
    "no-intercept";
  List.iter
    (fun r ->
      Fmt.pr "%-10s %11.2fx %11.2fx %11.2fx@." r.w.Workload.name
        (overhead r (rec_time r.full))
        (overhead r (rec_time r.noc))
        (overhead r (rec_time r.noi)))
    (Lazy.force rows);
  Fmt.pr
    "(in-process interception produces the large drop; block cloning \
     matters for cp)@."

let fig6 () =
  Fmt.pr "@.== Figure 6: rr recording vs DynamoRio-null ==@.";
  Fmt.pr "%-10s %12s %12s@." "workload" "rr-record" "DBI-null";
  List.iter
    (fun r ->
      Fmt.pr "%-10s %11.2fx %12s@." r.w.Workload.name
        (overhead r (rec_time r.full))
        (if r.dbi.Instrument.crashed then "crash"
         else Fmt.str "%.2fx" (overhead r r.dbi.Instrument.time)))
    (Lazy.force rows)

(* Virtual seconds: the cost model's unit is a virtual nanosecond. *)
let vsec t = float_of_int t /. 1e9

let table2 () =
  Fmt.pr "@.== Table 2: trace storage (paper Table 2) ==@.";
  Fmt.pr "%-10s %16s %10s %16s %14s@." "workload" "compressed MB/s"
    "deflate" "cloned MB/s" "(cloned MB)";
  List.iter
    (fun r ->
      let st = Trace.stats r.full.Workload.trace in
      let dur = vsec r.base.Workload.wall_time in
      let mb b = float_of_int b /. 1048576. in
      Fmt.pr "%-10s %16.2f %9.2fx %16.2f %14.2f@." r.w.Workload.name
        (mb st.Trace.compressed_bytes /. dur)
        (Compress.ratio ~original:st.Trace.raw_bytes
           ~compressed:st.Trace.compressed_bytes)
        (mb st.Trace.cloned_bytes /. dur)
        (mb st.Trace.cloned_bytes))
    (Lazy.force rows);
  Fmt.pr
    "(virtual-time rates: compare across workloads, not with the paper's \
     wall-clock rates)@."

let table3 () =
  Fmt.pr "@.== Table 3 / Figure 7: peak memory (PSS, KiB) ==@.";
  Fmt.pr "%-10s %10s %10s %10s %10s@." "workload" "baseline" "record"
    "replay" "1core";
  List.iter
    (fun r ->
      Fmt.pr "%-10s %10.0f %10.0f %10.0f %10.0f@." r.w.Workload.name
        (r.base.Workload.peak_pss /. 1024.)
        (r.full.Workload.rec_peak_pss /. 1024.)
        (r.full_rep.Workload.rep_peak_pss /. 1024.)
        (r.single.Workload.peak_pss /. 1024.))
    (Lazy.force rows);
  Fmt.pr
    "(htmltest replay drops because the harness is not replayed; \
     recording adds scratch+buffer pages)@."

(* ---- ablations (design choices DESIGN.md calls out) ------------------ *)

let checkpoint_bench () =
  Fmt.pr "@.== Ablation: checkpoint cost (paper §6.1) ==@.";
  let w = Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 256 } () in
  let recd, _ = Workload.record w in
  (* Advance halfway, then measure host time per snapshot. *)
  let n = Trace.n_events recd.Workload.trace in
  let halfway () =
    let r = Replayer.start recd.Workload.trace in
    for _ = 1 to n / 2 do
      ignore (Replayer.step r)
    done;
    r
  in
  let r = halfway () in
  let live_pages =
    List.fold_left
      (fun acc p ->
        if p.Task.exit_code = None then
          acc + Addr_space.page_count p.Task.space
        else acc)
      0
      (Kernel.all_procs (Replayer.kernel r))
  in
  (* A session's first snapshot forks every live space; a later one
     reuses the fork of each space nothing changed since. *)
  let timed_snapshot r =
    let t0 = Sys.time () in
    let snap = Replayer.snapshot r in
    (snap, Sys.time () -. t0)
  in
  let mean_of runs f =
    let total = ref 0. in
    for _ = 1 to runs do
      total := !total +. f ()
    done;
    !total /. float_of_int runs
  in
  let fork_s = mean_of 50 (fun () -> snd (timed_snapshot (halfway ()))) in
  let first, _ = timed_snapshot r in
  let reuse_s = mean_of 200 (fun () -> snd (timed_snapshot r)) in
  Fmt.pr
    "address space: %d pages (%d KiB); snapshot: %.3f ms host time when it \
     forks every space, %.3f ms when it reuses every fork (COW: no page \
     copies)@."
    live_pages (live_pages * 4) (fork_s *. 1000.) (reuse_s *. 1000.);
  (* Restoring must reproduce identical state. *)
  let r2 = Replayer.restore_exn recd.Workload.trace first in
  while not (Replayer.at_end r2) do
    ignore (Replayer.step r2)
  done;
  Fmt.pr "restore + replay-to-end from a checkpoint: OK@."

let sysemu_ablation () =
  Fmt.pr
    "@.== Ablation: breakpoint fast path vs SYSEMU replay (paper \
     §2.3.7) ==@.";
  let w = Wl_cp.make () in
  let recd, _ =
    Workload.record ~opts:(Recorder.make_opts ~intercept:false ()) w
  in
  let bp, _ = Workload.replay recd in
  let se, _ =
    Workload.replay
      ~opts:(Replayer.make_opts ~sysemu_all:true ())
      recd
  in
  Fmt.pr "cp replay (no-intercept trace): breakpoint=%d  sysemu=%d  (%.2fx)@."
    (rep_time bp) (rep_time se)
    (float_of_int (rep_time se) /. float_of_int (rep_time bp))

let compression_ablation () =
  Fmt.pr "@.== Ablation: trace compression on/off (paper §2.7) ==@.";
  let w = Wl_samba.make () in
  let on, _ = Workload.record w in
  let off, _ =
    Workload.record ~opts:(Recorder.make_opts ~compress:false ()) w
  in
  let son = Trace.stats on.Workload.trace in
  let soff = Trace.stats off.Workload.trace in
  Fmt.pr "sambatest general trace data: %d B compressed vs %d B raw (%.2fx)@."
    son.Trace.compressed_bytes soff.Trace.compressed_bytes
    (float_of_int soff.Trace.compressed_bytes
    /. float_of_int son.Trace.compressed_bytes)

let chaos_ablation () =
  Fmt.pr "@.== Ablation: chaos mode (paper §8) ==@.";
  (* A racy program: exit status depends on schedule.  Chaos mode's
     randomized priorities/timeslices surface the rare schedule. *)
  let build _k b =
    let module G = Guest in
    let ( @. ) = List.append in
    let cell = G.bss b 8 in
    let child_stack = G.bss b 4096 + 4096 in
    G.emit b
      (G.sys_clone_thread ~child_sp:(G.imm child_stack)
      @. [ Asm.jz 0 "child" ]
      @. G.compute_loop b ~n:3000
      @. [ Asm.movi 9 cell; Asm.movi 10 1; Asm.store 10 9 0 ]
      @. G.compute_loop b ~n:3000
      @. [ Asm.movi 9 cell; Asm.load 11 9 0; Asm.movr 1 11 ]
      @. G.sc Sysno.exit_group [ G.reg 1 ]
      @. [ Asm.label "child" ]
      @. G.compute_loop b ~n:3000
      @. [ Asm.movi 9 cell; Asm.movi 10 2; Asm.store 10 9 0 ]
      @. G.sys_exit 0)
  in
  let record_status ~chaos ~seed =
    let setup k =
      Vfs.mkdir_p (Kernel.vfs k) "/bin";
      let b = Guest.create () in
      build k b;
      Kernel.install_image k ~path:"/bin/racy" (Guest.build b ~name:"racy" ())
    in
    let opts =
      (Recorder.make_opts ~chaos ~seed ~timeslice_rcbs:2_000 ())
    in
    let _, stats, _ = Recorder.record ~opts ~setup ~exe:"/bin/racy" () in
    stats.Recorder.exit_status
  in
  let count chaos =
    let hits = ref 0 in
    for seed = 1 to 30 do
      if record_status ~chaos ~seed = Some 2 then incr hits
    done;
    !hits
  in
  let normal = count false and chaos = count true in
  Fmt.pr
    "racy outcome (child write last) seen in %d/30 default schedules vs \
     %d/30 chaos schedules@."
    normal chaos

let scratch_ablation () =
  Fmt.pr "@.== Ablation: scratch buffers on/off (paper §2.3.1) ==@.";
  (* "We actually have no evidence that the races prevented by scratch
     buffers occur in practice, and it might be worth trying to eliminate
     scratch buffers": with one-thread-at-a-time scheduling, recording
     cost and replay fidelity are unchanged without them. *)
  let w = Wl_samba.make () in
  let with_scratch, _ = Workload.record w in
  let without, _ =
    Workload.record ~opts:(Recorder.make_opts ~scratch:false ()) w
  in
  let rep, _ = Workload.replay without in
  Fmt.pr
    "sambatest record: %d with scratch vs %d without (%.3fx); replay      without scratch: exit=%a@."
    with_scratch.Workload.rec_stats.Recorder.wall_time
    without.Workload.rec_stats.Recorder.wall_time
    (float_of_int without.Workload.rec_stats.Recorder.wall_time
    /. float_of_int with_scratch.Workload.rec_stats.Recorder.wall_time)
    Fmt.(option int)
    rep.Workload.rep_stats.Replayer.exit_status

let skid_ablation () =
  Fmt.pr "@.== Ablation: PMU interrupt skid (paper §2.4.3) ==@.";
  Fmt.pr
    "interrupts are programmed %d RCBs early; max hardware skid %d; \
     replay finishes with breakpoints/single-steps@."
    (Pmu.max_skid + 6) Pmu.max_skid

let ablations () =
  checkpoint_bench ();
  sysemu_ablation ();
  compression_ablation ();
  chaos_ablation ();
  scratch_ablation ();
  skid_ablation ()

(* Host seconds of [f ()] — the serve bench times the host, not the
   cost model. *)
let host_time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---- serve: heavy-traffic server recording + per-connection shards --

   The deployability scenario of a server under load: one recording of
   the multi-process serve workload (fork-per-connection workers, mixed
   request sizes, slow clients, injected errors), every frame tagged
   live by the connection tracker, then split into standalone
   per-connection trace files, reopened like any saved trace.  The
   payoff measured is time-to-first-replay: reaching one connection's
   last request through its shard vs through the whole trace.  Gates:
   every request is served, the shard reaches the target in >= 5x fewer
   frames (>= 2x under --smoke's 8 connections), and the shard replay's
   worker and client state at the target frame is byte-identical to the
   full-trace replay's. *)
let serve_bench ~smoke () =
  let conns = if smoke then 8 else 32 in
  let requests = if smoke then 8 else 32 in
  let min_frame_ratio = if smoke then 2. else 5. in
  let fail fmt = Fmt.kstr (fun m -> Fmt.epr "serve: %s@." m; exit 1) fmt in
  Fmt.pr "@.== Served traffic: per-connection trace shards ==@.";
  let w =
    Wl_serve.make
      ~params:{ Wl_serve.default with Wl_serve.conns; requests }
      ()
  in
  let (trace, stats, _k), record_s =
    host_time (fun () ->
        Recorder.record ~setup:w.Workload.setup ~exe:w.Workload.exe ())
  in
  let ct = Conn_track.derive trace in
  if stats.Recorder.exit_status <> Some 0 then
    fail "serve exited %a" Fmt.(Dump.option int) stats.Recorder.exit_status;
  let served = Conn_track.requests ct in
  if served < conns * requests then
    fail "served %d requests, want >= %d" served (conns * requests);
  let tags = Conn_track.tags ct in
  let infos = Conn_track.connections ct in
  if List.length infos <> conns then
    fail "tracked %d connections, want %d" (List.length infos) conns;
  let path = Filename.temp_file "rr_serve" ".trace" in
  Trace.save_exn trace path;
  let trace_bytes = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  let bytes_per_request = float_of_int trace_bytes /. float_of_int served in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rr_serve.%d" (Unix.getpid ()))
  in
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  let shards, split_s =
    host_time (fun () -> Shard.split ~dir ~base:"serve" ~tags trace)
  in
  let shards =
    match shards with
    | Ok r -> r
    | Error e -> fail "split: %a" Trace.pp_error e
  in
  (* Time-to-first-replay: the middle connection's last owned frame,
     reached through its shard vs through the whole trace. *)
  let target = List.nth infos (conns / 2) in
  let c = target.Conn_track.conn in
  let i_last = ref (-1) in
  Array.iteri (fun k t -> if t = c then i_last := k) tags;
  (* the target frame's position among the frames the shard keeps *)
  let j_last = ref (-1) in
  for k = 0 to !i_last do
    if tags.(k) = 0 || tags.(k) = c then incr j_last
  done;
  let shard =
    match List.find_opt (fun s -> s.Shard.si_conn = c) shards with
    | None -> fail "no shard for conn %d" c
    | Some s -> (
      match Trace.open_ s.Shard.si_path with
      | Ok t -> t
      | Error e -> fail "open conn %d: %a" c Trace.pp_error e)
  in
  let replay_to t upto =
    let r = Replayer.start t in
    while Replayer.cursor_index r <= upto && not (Replayer.at_end r) do
      ignore (Replayer.step r)
    done;
    r
  in
  let r_shard, shard_s = host_time (fun () -> replay_to shard !j_last) in
  let r_full, full_s = host_time (fun () -> replay_to trace !i_last) in
  let frame_ratio =
    float_of_int (!i_last + 1) /. float_of_int (!j_last + 1)
  in
  let speedup = full_s /. Float.max shard_s 1e-9 in
  let digest r tid =
    match Kernel.find_task (Replayer.kernel r) tid with
    | None -> fail "task %d missing at the target frame" tid
    | Some t ->
      (Checksum.space t.Task.cpu.Cpu.space, Array.copy t.Task.cpu.Cpu.regs)
  in
  let identical =
    digest r_shard target.Conn_track.worker_tid
    = digest r_full target.Conn_track.worker_tid
    && digest r_shard target.Conn_track.client_tid
       = digest r_full target.Conn_track.client_tid
  in
  if not identical then
    fail "shard replay state differs from the full trace at conn %d" c;
  if frame_ratio < min_frame_ratio then
    fail "targeted replay reaches conn %d in only %.1fx fewer frames, want \
          >= %.0fx"
      c frame_ratio min_frame_ratio;
  Fmt.pr "served %d requests over %d connections in %.3fs (%.0f req/s host)@."
    served conns record_s
    (float_of_int served /. max 1e-6 record_s);
  Fmt.pr "trace: %d frames, %d B (%.1f B/request); %d shards in %.3fs@."
    (Trace.n_events trace) trace_bytes bytes_per_request (List.length shards)
    split_s;
  Fmt.pr
    "time-to-first-replay (conn %d, frame %d): full %.4fs vs shard %.4fs — \
     %.1fx faster, %.1fx fewer frames, state identical@."
    c !i_last full_s shard_s speedup frame_ratio;
  (* The smoke (wired into runtest) never overwrites the committed
     artifact; only a full run refreshes it. *)
  if not smoke then begin
    let oc = open_out "BENCH_serve.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\"smoke\":%b,\"conns\":%d,\"requests_per_conn\":%d,\"served\":%d,\n\
          \ \"record_s\":%.6f,\"req_per_s\":%.1f,\"frames\":%d,\"trace_bytes\":%d,\n\
          \ \"bytes_per_request\":%.2f,\"shards\":%d,\"split_s\":%.6f,\n\
          \ \"ttfr\":{\"conn\":%d,\"full_frames\":%d,\"shard_frames\":%d,\n\
          \ \"frame_ratio\":%.2f,\"full_s\":%.6f,\"shard_s\":%.6f,\n\
          \ \"speedup\":%.2f,\"state_identical\":true}}\n"
          smoke conns requests served record_s
          (float_of_int served /. max 1e-6 record_s)
          (Trace.n_events trace) trace_bytes bytes_per_request
          (List.length shards) split_s c (!i_last + 1) (!j_last + 1)
          frame_ratio full_s shard_s speedup);
    Fmt.pr "(wrote BENCH_serve.json)@."
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let args = List.filter (fun a -> a <> "--smoke") args in
  let artifacts =
    [ ("table1", table1 ~smoke);
      ("table2", table2);
      ("table3", table3);
      ("fig4", fig4);
      ("fig5", fig5);
      ("fig6", fig6);
      ("fig7", table3);
      ("ablation", ablations);
      ("serve", serve_bench ~smoke) ]
  in
  match args with
  | [] ->
    Fmt.pr "rr-repro benchmark harness — regenerating all paper artifacts@.";
    table1 ~smoke ();
    fig4 ();
    fig5 ();
    fig6 ();
    table2 ();
    table3 ();
    ablations ();
    serve_bench ~smoke ()
  | names ->
    List.iter
      (fun n ->
        match List.assoc_opt n artifacts with
        | Some f -> f ()
        | None ->
          Fmt.epr "unknown artifact %s (have: %s)@." n
            (String.concat ", " (List.map fst artifacts));
          exit 1)
      names
