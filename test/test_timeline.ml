(* The timeline tracer (lib/obs): scope nesting, lanes, exception
   safety, Chrome trace-event export invariants (every B balanced by a
   matching E, parseable JSON) on hand-written programs and on a real
   recording, the per-stage attribution ledger, and sessions that close
   their scope and clock on every exit. *)

module Tl = Timeline

(* Every test drives the virtual clock by hand so results are exact. *)
let with_clock f =
  let now = ref 0 in
  Tl.set_virtual_clock (fun () -> !now);
  Fun.protect ~finally:Tl.clear_virtual_clock (fun () -> f now)

let stop_and_events () =
  Tl.stop ();
  Tl.events ()

(* ---- nesting and attribution ---------------------------------------- *)

let test_nesting_and_attribution () =
  with_clock @@ fun now ->
  Tl.start ();
  Tl.begin_scope "record.session";
  now := 100;
  Tl.scope "record.setup" (fun () -> now := 300);
  Tl.scope "kern.run" (fun () ->
      now := 500;
      Tl.scope "record.flush" (fun () -> now := 600);
      now := 800);
  now := 1000;
  Tl.end_scope "record.session";
  ignore (stop_and_events ());
  let s = Tl.attribution () in
  (* total = the session root's inclusive time, not the raw span *)
  Alcotest.(check int) "window is the session" 1000 s.Tl.at_total_ns;
  let self name =
    match List.find_opt (fun st -> st.Tl.st_name = name) s.Tl.at_stages with
    | Some st -> st.Tl.st_self_ns
    | None -> Alcotest.failf "stage %s missing" name
  in
  Alcotest.(check int) "setup self" 200 (self "record.setup");
  (* kern.run inclusive 300..800 minus the nested flush (500..600) *)
  Alcotest.(check int) "kern.run self" 400 (self "kern.run");
  Alcotest.(check int) "flush self" 100 (self "record.flush");
  Alcotest.(check bool) "session is not a stage" true
    (not (List.exists (fun st -> st.Tl.st_name = "record.session") s.Tl.at_stages));
  (* 0..100 and 800..1000 ran directly under the session root *)
  Alcotest.(check int) "untracked" 300 s.Tl.at_untracked_ns;
  Alcotest.(check int) "covered + untracked = total" s.Tl.at_total_ns
    (s.Tl.at_covered_ns + s.Tl.at_untracked_ns)

(* A task lane's kern.run is its own root in the merged tree but runs
   inside the lane-0 session: its share is of the session window, not
   of the session plus itself. *)
let test_flamegraph_shares_of_window () =
  with_clock @@ fun now ->
  Tl.start ();
  Tl.begin_scope "record.session";
  now := 200;
  Tl.scope ~lane:7 "kern.run" (fun () -> now := 600);
  now := 1000;
  Tl.end_scope "record.session";
  Tl.stop ();
  let out = Fmt.str "%a" Tl.pp_flamegraph () in
  let share name =
    let row l =
      List.filter (( <> ) "") (String.split_on_char ' ' (String.trim l))
    in
    match
      List.find_opt
        (fun l -> match row l with n :: _ -> n = name | [] -> false)
        (String.split_on_char '\n' out)
    with
    | Some l -> List.nth (row l) 1
    | None -> Alcotest.failf "no %s row in:\n%s" name out
  in
  Alcotest.(check string) "session is the whole window" "100.0%"
    (share "record.session");
  Alcotest.(check string) "task-lane scope reads its true share" "40.0%"
    (share "kern.run")

let test_exception_safety () =
  with_clock @@ fun now ->
  Tl.start ();
  (try
     Tl.scope "record.stop" (fun () ->
         now := 50;
         failwith "boom")
   with Failure _ -> ());
  (* the frame closed on the way out: a further end_scope has nothing
     to close and must be counted as a mismatch, not crash *)
  Tl.end_scope "record.stop";
  (* A timed span closes its scope the same way, and still counts the
     span and its time. *)
  let sp = Telemetry.span "test.raises" in
  let n0 = Telemetry.span_count sp in
  (try
     Telemetry.timed sp (fun () ->
         now := 80;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "raising span counted" (n0 + 1)
    (Telemetry.span_count sp);
  let evs = stop_and_events () in
  let kinds = List.map (fun e -> e.Tl.ev_kind) evs in
  Alcotest.(check bool) "B then E emitted, twice" true
    (kinds = [ Tl.B; Tl.E; Tl.B; Tl.E ]);
  Alcotest.(check int) "stray end counted" 1 (Tl.mismatches ())

let test_mismatched_name_closes_frame () =
  with_clock @@ fun now ->
  Tl.start ();
  Tl.begin_scope "kern.run";
  now := 10;
  Tl.end_scope "trace.deflate";
  let evs = stop_and_events () in
  (match evs with
  | [ b; e ] ->
    Alcotest.(check string) "E carries the frame's own name" "kern.run"
      e.Tl.ev_name;
    Alcotest.(check int) "same lane" b.Tl.ev_lane e.Tl.ev_lane
  | _ -> Alcotest.fail "expected exactly B and E");
  Alcotest.(check int) "mismatch counted" 1 (Tl.mismatches ())

let test_overflow_drops_counted () =
  with_clock @@ fun _now ->
  (* 16 is the smallest buffer [start] will allocate *)
  Tl.start ~capacity:16 ();
  for _ = 1 to 40 do
    Tl.instant "kern.sched_switch"
  done;
  ignore (stop_and_events ());
  Alcotest.(check int) "buffer capped" 16 (List.length (Tl.events ()));
  Alcotest.(check int) "drops counted" 24 (Tl.dropped ())

(* ---- export invariants ----------------------------------------------- *)

(* Walk a parsed Chrome document: per-tid stack discipline — every B is
   closed by an E with the same name, nothing left open.  Returns what
   the walk saw: events, lanes with a non-metadata event, the [cat] of
   every B, and the deepest nesting on any lane. *)
type walk = {
  w_events : int;
  w_lanes : int list;
  w_cats : string list;
  w_depth : int;
}

let check_balanced json =
  let root = Json_min.parse json in
  let top = match root with Json_min.Obj m -> m | _ -> Alcotest.fail "not an object" in
  let evs =
    match List.assoc_opt "traceEvents" top with
    | Some (Json_min.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let lanes = ref [] and cats = ref [] and depth = ref 0 in
  let str m k =
    match List.assoc_opt k m with Some (Json_min.Str s) -> s | _ -> "" in
  let num m k =
    match List.assoc_opt k m with
    | Some (Json_min.Num f) -> int_of_float f
    | _ -> Alcotest.failf "event missing numeric %s" k
  in
  List.iter
    (fun ev ->
      let m = match ev with Json_min.Obj m -> m | _ -> Alcotest.fail "event not an object" in
      if str m "ph" <> "M" then lanes := num m "tid" :: !lanes;
      match str m "ph" with
      | "B" ->
        let tid = num m "tid" in
        let st = str m "name" :: Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        Hashtbl.replace stacks tid st;
        cats := str m "cat" :: !cats;
        depth := max !depth (List.length st)
      | "E" -> (
        let tid = num m "tid" in
        match Hashtbl.find_opt stacks tid with
        | Some (top :: rest) ->
          Alcotest.(check string) "E matches innermost B" top (str m "name");
          Hashtbl.replace stacks tid rest
        | _ -> Alcotest.failf "E %S on tid %d with empty stack" (str m "name") tid)
      | _ -> ())
    evs;
  Hashtbl.iter
    (fun tid st ->
      if st <> [] then
        Alcotest.failf "tid %d left %d scopes open" tid (List.length st))
    stacks;
  { w_events = List.length evs;
    w_lanes = List.sort_uniq compare !lanes;
    w_cats = List.sort_uniq compare !cats;
    w_depth = !depth }

let test_export_synthesizes_close () =
  with_clock @@ fun now ->
  Tl.start ();
  Tl.begin_scope "record.session";
  now := 10;
  Tl.begin_scope "kern.run";
  now := 25;
  Tl.stop ();
  (* two scopes still open: the export must synthesise their E events *)
  ignore (check_balanced (Tl.to_chrome_json ()));
  (* rebalance the real stack for the tests that follow *)
  Tl.end_scope "kern.run";
  Tl.end_scope "record.session"

(* Random scope programs: whatever we emit, the export parses and every
   B has a matching E in stack order. *)
let names = [| "kern.run"; "record.stop"; "trace.deflate"; "replay.frame" |]

let gen_program =
  (* ops: 0..3 begin names.(i), 4 end, 5 instant *)
  QCheck2.Gen.(list_size (int_bound 60) (int_bound 5))

let prop_export_balanced ops =
  with_clock @@ fun now ->
  Tl.start ();
  let depth = ref 0 in
  List.iter
    (fun op ->
      now := !now + 7;
      if op < 4 then begin
        Tl.begin_scope names.(op);
        incr depth
      end
      else if op = 4 then begin
        (* close something (possibly nothing: exercises the mismatch
           path, which must still never unbalance the export) *)
        Tl.end_scope names.(op mod 4);
        if !depth > 0 then decr depth
      end
      else Tl.instant "kern.sched_switch")
    ops;
  Tl.stop ();
  let n = (check_balanced (Tl.to_chrome_json ())).w_events in
  (* drain the stack so the next iteration starts clean *)
  while !depth > 0 do
    Tl.end_scope "cleanup";
    decr depth
  done;
  n >= 0

let test_export_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"chrome export always balanced" ~count:100
       gen_program prop_export_balanced)

(* A real recording exports a balanced document whose scopes come from
   the kern, rrtrace and rr layers, nest, and spread over the supervisor
   lane and at least one task lane.  An exporter that put every E on
   lane 0 fails the balance walk here. *)
let test_recording_exports_balanced () =
  Tl.start ();
  ignore (Workload.record (Wl_samba.make ()));
  Tl.stop ();
  let w = check_balanced (Tl.to_chrome_json ()) in
  List.iter
    (fun layer ->
      Alcotest.(check bool) ("scopes from " ^ layer) true
        (List.mem layer w.w_cats))
    [ "kern"; "rrtrace"; "rr" ];
  Alcotest.(check bool) ">= 2 lanes" true (List.length w.w_lanes >= 2);
  Alcotest.(check bool) "nested scopes" true (w.w_depth >= 2)

(* ---- sessions --------------------------------------------------------- *)

(* Every B in the raw buffer has its E on the same lane.  The export
   would synthesise a missing close, so only the raw events show it. *)
let check_raw_balanced evs =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let stack lane = Option.value ~default:[] (Hashtbl.find_opt stacks lane) in
  List.iter
    (fun { Tl.ev_kind; ev_name; ev_lane; _ } ->
      match (ev_kind, stack ev_lane) with
      | Tl.B, st -> Hashtbl.replace stacks ev_lane (ev_name :: st)
      | Tl.E, _ :: st -> Hashtbl.replace stacks ev_lane st
      | Tl.E, [] | Tl.I, _ -> ())
    evs;
  Hashtbl.iter
    (fun lane st ->
      if st <> [] then
        Alcotest.failf "lane %d left open: %s" lane (String.concat ", " st))
    stacks

(* A session closes what it opened on every exit.  A recording whose
   root executable is missing fails after its journal writer exists:
   the writer is closed and the session scope ends.  A replay whose
   [on_frame] raises ends its session scope too, and both clear the
   virtual clock they installed (setup moves the recording's clock off
   0, so a clock left installed would read non-zero). *)
let test_sessions_close_on_failure () =
  Tl.start ();
  let path = Filename.temp_file "session" ".trace" in
  let io = Io.file_writer path in
  (match
     Recorder.run
       ~opts:(Recorder.make_opts ~sink:(Recorder.Sink_io io) ())
       ~setup:(fun k -> k.Kernel.clock <- 1_000)
       ~exe:"/bin/missing" ()
   with
  | _ -> Alcotest.fail "recording a missing executable succeeded"
  | exception Vfs.Error _ -> ());
  Sys.remove path;
  Alcotest.(check bool) "journal writer closed" true
    (match Io.write io "x" with () -> false | exception Io.Io_error _ -> true);
  Alcotest.(check int) "record clock cleared" 0 (Tl.now ());
  let recd, _ =
    Workload.record (Wl_cp.make ~params:{ Wl_cp.files = 2; file_kb = 64 } ())
  in
  (match
     Replayer.replay ~on_frame:(fun _ -> failwith "on_frame") recd.Workload.trace
   with
  | _ -> Alcotest.fail "replay ignored a raising on_frame"
  | exception Failure _ -> ());
  Alcotest.(check int) "replay clock cleared" 0 (Tl.now ());
  Tl.stop ();
  check_raw_balanced (Tl.events ())

(* Incremental sessions install no clock: a replayer session runs on
   none unless its caller installs one, and the debugger installs the
   session's clock for each operation and clears it on every exit, so a
   session dropped between steps leaves no clock behind. *)
let test_incremental_sessions_leave_no_clock () =
  let recd, _ = Workload.record (Wl_cp.make ()) in
  let trace = recd.Workload.trace in
  let r = Replayer.start trace in
  for _ = 1 to 5 do
    ignore (Replayer.step r)
  done;
  Alcotest.(check int) "replayer session: no clock" 0 (Tl.now ());
  let frame_ns () =
    match List.assoc_opt "replay.frame" (Telemetry.snapshot ()).snap_spans with
    | Some s -> s.Telemetry.s_total_ns
    | None -> 0
  in
  let ns0 = frame_ns () in
  let d = Debugger.create trace in
  for _ = 1 to 5 do
    ignore (Debugger.step d)
  done;
  Alcotest.(check int) "debugger steps: no clock" 0 (Tl.now ());
  Alcotest.(check bool) "the steps ran on the session's clock" true
    (frame_ns () > ns0);
  Debugger.seek d 2;
  Alcotest.(check int) "debugger seek: no clock" 0 (Tl.now ());
  (match Debugger.Query.seek_to_frame d 4 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Debugger.Query.error_to_string e));
  Alcotest.(check int) "debugger query: no clock" 0 (Tl.now ())

let suites =
  [ ( "timeline",
      [ Alcotest.test_case "nesting + attribution ledger" `Quick
          test_nesting_and_attribution;
        Alcotest.test_case "flamegraph shares are of the window" `Quick
          test_flamegraph_shares_of_window;
        Alcotest.test_case "scope closes on exception" `Quick
          test_exception_safety;
        Alcotest.test_case "mismatched end closes frame" `Quick
          test_mismatched_name_closes_frame;
        Alcotest.test_case "overflow drops are counted" `Quick
          test_overflow_drops_counted;
        Alcotest.test_case "export synthesizes E for open scopes" `Quick
          test_export_synthesizes_close;
        test_export_property;
        Alcotest.test_case "recording exports balanced and nested" `Quick
          test_recording_exports_balanced;
        Alcotest.test_case "sessions close on every exit" `Quick
          test_sessions_close_on_failure;
        Alcotest.test_case "incremental sessions leave no clock" `Quick
          test_incremental_sessions_leave_no_clock ] ) ]
