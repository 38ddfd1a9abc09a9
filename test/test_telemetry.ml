(* The telemetry layer (lib/obs): registry semantics, the virtual
   clock, the event ring, sinks, snapshot diffs, JSON rendering — and
   end-to-end: a record+replay session populates the expected
   counters/spans. *)

module Tm = Telemetry

let find_counter snap name =
  match List.assoc_opt name snap.Tm.snap_counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %s not in snapshot" name

let find_span snap name =
  match List.assoc_opt name snap.Tm.snap_spans with
  | Some s -> s
  | None -> Alcotest.failf "span %s not in snapshot" name

let test_counter_registry () =
  Tm.reset ();
  let a = Tm.counter "t.a" in
  let a' = Tm.counter "t.a" in
  Tm.incr a;
  Tm.add a' 41;
  Alcotest.(check int) "same handle" 42 (Tm.counter_value a);
  (* reset zeroes values but keeps handles usable *)
  Tm.reset ();
  Alcotest.(check int) "reset to zero" 0 (Tm.counter_value a);
  Tm.incr a;
  Alcotest.(check int) "handle survives reset" 1 (Tm.counter_value a')

let test_gauge_and_histogram () =
  Tm.reset ();
  let g = Tm.gauge "t.g" in
  Tm.set_gauge g 7;
  Tm.set_gauge g 3;
  Alcotest.(check int) "gauge keeps last" 3 (Tm.gauge_value g);
  let h = Tm.histogram "t.h" in
  List.iter (Tm.observe h) [ 1; 2; 3; 100; 100 ];
  let snap = Tm.snapshot () in
  let hs = List.assoc "t.h" snap.Tm.snap_histograms in
  Alcotest.(check int) "count" 5 hs.Tm.h_count;
  Alcotest.(check int) "sum" 206 hs.Tm.h_sum;
  Alcotest.(check bool) "only non-empty buckets" true
    (List.for_all (fun (_, c) -> c > 0) hs.Tm.h_buckets)

let test_span_clock () =
  Tm.reset ();
  let sp = Tm.span "t.phase" in
  (* no clock installed: zero-duration, still counted *)
  Tm.timed sp (fun () -> ());
  Alcotest.(check int) "counted without clock" 1 (Tm.span_count sp);
  let now = ref 0 in
  Tm.set_clock (fun () -> !now);
  Tm.timed sp (fun () -> now := !now + 500);
  Tm.clear_clock ();
  let s = find_span (Tm.snapshot ()) "t.phase" in
  Alcotest.(check int) "total" 500 s.Tm.s_total_ns;
  Alcotest.(check int) "max" 500 s.Tm.s_max_ns;
  (* exception safety: the span records even when the thunk raises *)
  (try Tm.timed sp (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raised thunk still counted" 3 (Tm.span_count sp);
  (* each span duration also feeds the <name>.ns histogram *)
  let snap = Tm.snapshot () in
  let hs = List.assoc "t.phase.ns" snap.Tm.snap_histograms in
  Alcotest.(check int) "span feeds histogram" 3 hs.Tm.h_count

let test_ring_wraps () =
  Tm.reset ();
  for i = 0 to Tm.ring_capacity + 9 do
    Tm.note ~tid:i ~kind:"t.e" (string_of_int i)
  done;
  let evs = Tm.recent () in
  Alcotest.(check int) "capped at capacity" Tm.ring_capacity (List.length evs);
  let seqs = List.map (fun e -> e.Tm.seq) evs in
  Alcotest.(check int) "oldest first" 10 (List.hd seqs);
  Alcotest.(check int) "newest last" (Tm.ring_capacity + 9)
    (List.nth seqs (Tm.ring_capacity - 1));
  Alcotest.(check bool) "monotone" true
    (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]))

let test_memory_sink () =
  Tm.reset ();
  Tm.set_sink Tm.Memory;
  Tm.note ~kind:"a" "1";
  Tm.note ~kind:"b" "2";
  let evs = Tm.memory_events () in
  Alcotest.(check (list string)) "all events, oldest first" [ "a"; "b" ]
    (List.map (fun e -> e.Tm.kind) evs);
  Tm.set_sink Tm.Null;
  Alcotest.(check int) "switching sinks clears the buffer" 0
    (List.length (Tm.memory_events ()))

let test_jsonl_sink () =
  Tm.reset ();
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Tm.set_sink (Tm.Jsonl path);
  Tm.note ~tid:3 ~frame:7 ~kind:"t.j" "detail \"quoted\"";
  Tm.note ~kind:"t.k" "";
  Tm.set_sink Tm.Null (* closes the channel *);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let l = List.hd lines in
  Alcotest.(check bool) "escaped JSON" true
    (String.length l > 0 && l.[0] = '{')

(* Regression: the Jsonl sink flushes after every note, so a tail -f /
   crashed-recorder post-mortem sees each event as soon as it is
   emitted — without closing or switching the sink. *)
let test_jsonl_flushes_per_note () =
  Tm.reset ();
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Tm.set_sink (Tm.Jsonl path);
  Tm.note ~kind:"t.f1" "first";
  Tm.note ~kind:"t.f2" "second";
  let read_lines () =
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    List.rev !lines
  in
  (* the channel is still open: both lines must already be on disk *)
  let lines = read_lines () in
  Alcotest.(check int) "visible before close" 2 (List.length lines);
  Tm.note ~kind:"t.f3" "third";
  Alcotest.(check int) "and after each further note" 3
    (List.length (read_lines ()));
  Tm.set_sink Tm.Null;
  Sys.remove path

let test_hist_quantiles () =
  Tm.reset ();
  let h = Tm.histogram "t.q" in
  (* 100 samples 1..100: log2 buckets, interpolated quantiles *)
  for i = 1 to 100 do
    Tm.observe h i
  done;
  let snap = Tm.snapshot () in
  let hs = List.assoc "t.q" snap.Tm.snap_histograms in
  let p50 = Tm.hist_quantile hs 0.50 in
  let p90 = Tm.hist_quantile hs 0.90 in
  let p99 = Tm.hist_quantile hs 0.99 in
  Alcotest.(check bool) "ordered" true (0. <= p50 && p50 <= p90 && p90 <= p99);
  (* bucket resolution is a power of two: accept the enclosing bucket *)
  Alcotest.(check bool) "p50 in its bucket" true (p50 >= 32. && p50 <= 63.);
  Alcotest.(check bool) "p99 in its bucket" true (p99 >= 64. && p99 <= 127.);
  Alcotest.(check bool) "p99 below the max bound" true (p99 <= 127.);
  (* monotone in q and clamped at the edges *)
  Alcotest.(check bool) "q=0 at or below p50" true (Tm.hist_quantile hs 0. <= p50);
  Alcotest.(check bool) "q=1 at the top" true (Tm.hist_quantile hs 1. >= p99);
  (* empty histogram: all quantiles are zero *)
  let e = Tm.histogram "t.q.empty" in
  ignore e;
  let hs0 = List.assoc "t.q.empty" (Tm.snapshot ()).Tm.snap_histograms in
  Alcotest.(check (float 0.0)) "empty -> 0" 0. (Tm.hist_quantile hs0 0.99);
  (* a single sample answers that sample's bucket for every q *)
  let h1 = Tm.histogram "t.q.one" in
  Tm.observe h1 5;
  let hs1 = List.assoc "t.q.one" (Tm.snapshot ()).Tm.snap_histograms in
  Alcotest.(check (float 0.0)) "single sample, q-independent"
    (Tm.hist_quantile hs1 0.1)
    (Tm.hist_quantile hs1 0.9)

let test_since_diff () =
  Tm.reset ();
  let c = Tm.counter "t.d" in
  let sp = Tm.span "t.dspan" in
  Tm.add c 10;
  Tm.span_add sp 100;
  let base = Tm.snapshot () in
  Tm.add c 5;
  Tm.span_add sp 30;
  let diff = Tm.since base in
  Alcotest.(check int) "counter diff" 5 (find_counter diff "t.d");
  let s = find_span diff "t.dspan" in
  Alcotest.(check int) "span count diff" 1 s.Tm.s_count;
  Alcotest.(check int) "span total diff" 30 s.Tm.s_total_ns

let test_json_shape () =
  Tm.reset ();
  Tm.incr (Tm.counter "t.json");
  Tm.note ~kind:"t.ev" "x";
  let j = Tm.snapshot_to_json (Tm.snapshot ()) in
  List.iter
    (fun key ->
      let re = Printf.sprintf "\"%s\"" key in
      let found =
        let rec search i =
          if i + String.length re > String.length j then false
          else if String.sub j i (String.length re) = re then true
          else search (i + 1)
        in
        search 0
      in
      Alcotest.(check bool) (key ^ " present") true found)
    [ "counters"; "gauges"; "histograms"; "spans"; "events"; "t.json"; "t.ev" ]

(* End-to-end: record+replay a workload and check the layers reported. *)
let test_record_replay_populates () =
  Tm.reset ();
  let w = Wl_samba.make () in
  let recd, _ = Workload.record w in
  let rep, _ = Workload.replay recd in
  let rt = recd.Workload.rec_stats.Recorder.telemetry in
  Alcotest.(check bool) "syscallbuf.hit > 0" true
    (find_counter rt "syscallbuf.hit" > 0);
  Alcotest.(check bool) "syscallbuf.miss > 0" true
    (find_counter rt "syscallbuf.miss" > 0);
  Alcotest.(check bool) "record.frames > 0" true
    (find_counter rt "record.frames" > 0);
  Alcotest.(check bool) "record.syscall span ran" true
    ((find_span rt "record.syscall").Tm.s_count > 0);
  let pt = rep.Workload.rep_stats.Replayer.telemetry in
  Alcotest.(check bool) "replay.frame span ran" true
    ((find_span pt "replay.frame").Tm.s_count > 0);
  Alcotest.(check bool) "chunk LRU active" true
    (find_counter pt "trace.chunk.hit" + find_counter pt "trace.chunk.miss" > 0);
  (* the recorder's snapshot must not leak replay work into [rt] *)
  Alcotest.(check int) "recording saw no replay frames" 0
    (find_span rt "replay.frame").Tm.s_count;
  (* trace stats expose the reader-side LRU *)
  let ts = Trace.stats recd.Workload.trace in
  Alcotest.(check bool) "lru counts populated" true
    (ts.Trace.lru_hits + ts.Trace.lru_misses > 0)

(* Two domains hammering one registry: counters, histograms and the
   event ring must neither lose updates nor crash. *)
let test_domain_hammer () =
  Tm.reset ();
  let c = Tm.counter "hammer.c" in
  let h = Tm.histogram "hammer.h" in
  let iters = 10_000 in
  let work () =
    for i = 1 to iters do
      Tm.incr c;
      Tm.observe h i;
      if i mod 1000 = 0 then Tm.note ~kind:"hammer" "tick"
    done
  in
  let a = Domain.spawn work and b = Domain.spawn work in
  Domain.join a;
  Domain.join b;
  Alcotest.(check int) "no lost counter increments" (2 * iters)
    (Tm.counter_value c);
  let snap = Tm.snapshot () in
  let hs = List.assoc "hammer.h" snap.Tm.snap_histograms in
  Alcotest.(check int) "no lost observations" (2 * iters) hs.Tm.h_count;
  Alcotest.(check int) "histogram sum exact" (2 * (iters * (iters + 1) / 2))
    hs.Tm.h_sum;
  Alcotest.(check bool) "ring survived concurrent notes" true
    (List.length (Tm.recent ()) > 0)

let suites =
  [ ( "telemetry",
      [ Alcotest.test_case "counter registry + reset" `Quick
          test_counter_registry;
        Alcotest.test_case "gauge + histogram" `Quick test_gauge_and_histogram;
        Alcotest.test_case "span + virtual clock" `Quick test_span_clock;
        Alcotest.test_case "ring wraps at capacity" `Quick test_ring_wraps;
        Alcotest.test_case "memory sink" `Quick test_memory_sink;
        Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
        Alcotest.test_case "jsonl flushes per note" `Quick
          test_jsonl_flushes_per_note;
        Alcotest.test_case "histogram quantiles" `Quick test_hist_quantiles;
        Alcotest.test_case "since diff" `Quick test_since_diff;
        Alcotest.test_case "json shape" `Quick test_json_shape;
        Alcotest.test_case "record+replay populates" `Quick
          test_record_replay_populates;
        Alcotest.test_case "two-domain hammer" `Quick test_domain_hammer ] ) ]
