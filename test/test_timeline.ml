(* The timeline tracer (lib/obs): scope nesting, lanes, exception
   safety, concurrent emission from spawned domains, Chrome trace-event
   export invariants (every B balanced by a matching E, parseable
   JSON), and the per-stage attribution ledger. *)

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
  let evs = stop_and_events () in
  let kinds = List.map (fun e -> e.Tl.ev_kind) evs in
  Alcotest.(check bool) "B then E emitted" true (kinds = [ Tl.B; Tl.E ]);
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
   closed by an E with the same name, nothing left open. *)
let check_balanced json =
  let root = Json_min.parse json in
  let top = match root with Json_min.Obj m -> m | _ -> Alcotest.fail "not an object" in
  let evs =
    match List.assoc_opt "traceEvents" top with
    | Some (Json_min.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
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
      match str m "ph" with
      | "B" ->
        let tid = num m "tid" in
        let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
        Hashtbl.replace stacks tid (str m "name" :: st)
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
  List.length evs

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
  (* rebalance the real per-domain stack for the tests that follow *)
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
  let n = check_balanced (Tl.to_chrome_json ()) in
  (* drain the domain stack so the next iteration starts clean *)
  while !depth > 0 do
    Tl.end_scope "cleanup";
    decr depth
  done;
  n >= 0

let test_export_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"chrome export always balanced" ~count:100
       gen_program prop_export_balanced)

(* ---- concurrency ------------------------------------------------------ *)

(* Two domains hammering scopes concurrently with the supervisor:
   per-domain stacks must keep each domain's B/E properly nested in the
   export, off the supervisor's lane, with zero mismatches. *)
let test_two_domain_hammer () =
  with_clock @@ fun now ->
  Tl.start ~capacity:(1 lsl 16) ();
  let work () =
    for i = 1 to 500 do
      Tl.scope "trace.deflate" (fun () ->
          Tl.scope "trace.store" (fun () -> ());
          if i mod 50 = 0 then Tl.instant "kern.sched_switch")
    done
  in
  let a = Domain.spawn work and b = Domain.spawn work in
  for _ = 1 to 200 do
    now := !now + 3;
    Tl.scope "record.stop" (fun () -> ())
  done;
  Domain.join a;
  Domain.join b;
  Tl.stop ();
  Alcotest.(check int) "no mismatches" 0 (Tl.mismatches ());
  Alcotest.(check int) "no drops" 0 (Tl.dropped ());
  ignore (check_balanced (Tl.to_chrome_json ()));
  let lanes =
    List.sort_uniq compare (List.map (fun e -> e.Tl.ev_lane) (Tl.events ()))
  in
  (* The supervisor stays on lane 0 and each spawned domain records on
     its own default lane, [10_000 + domain id].  Domain ids are never
     reused, so this holds on any core count and any interleaving. *)
  let domain_lane d = 10_000 + (Domain.get_id d :> int) in
  Alcotest.(check (list int)) "lane 0 plus one lane per domain"
    (List.sort compare [ 0; domain_lane a; domain_lane b ])
    lanes;
  let deflates =
    List.length
      (List.filter
         (fun e -> e.Tl.ev_kind = Tl.B && e.Tl.ev_name = "trace.deflate")
         (Tl.events ()))
  in
  Alcotest.(check int) "every deflate scope recorded" 1000 deflates

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
        Alcotest.test_case "two-domain hammer stays nested" `Quick
          test_two_domain_hammer ] ) ]
