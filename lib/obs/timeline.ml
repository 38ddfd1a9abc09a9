(* Timeline tracing (see timeline.mli for the contract).

   Hot-path design: one preallocated event array and one write cursor.
   Emitting an event is a clock read, a cursor bump and a slot write.
   When the buffer fills, events are counted as dropped instead of
   growing it; the exporter closes any scope whose end fell off the
   buffer, so exports are always well formed.

   Scope nesting is tracked on one stack of open frames, beside one
   current lane.  A frame remembers the lane it *began* on, so a scope
   that outlives a lane switch still closes on its opening lane —
   per-lane begin/end streams therefore always nest properly (a subset
   of a properly nested interval family is itself properly nested). *)

type kind = B | E | I

type event = {
  ev_kind : kind;
  ev_name : string;
  ev_lane : int;
  ev_vts : int; (* virtual ns (cost model) *)
  ev_hts : int; (* host ns, 0 when no host clock installed *)
}

(* ---- clocks ---------------------------------------------------------- *)

let no_clock () = 0
let vclock = ref no_clock
let hclock = ref no_clock
let set_virtual_clock f = vclock := f
let clear_virtual_clock () = vclock := no_clock
let now () = !vclock ()
let set_host_clock f = hclock := f
let clear_host_clock () = hclock := no_clock

(* ---- the bounded buffer ---------------------------------------------- *)

let dummy =
  { ev_kind = I; ev_name = ""; ev_lane = -1; ev_vts = 0; ev_hts = 0 }

let default_capacity = 1 lsl 18

let buf = ref [||]
let cursor = ref 0
let on = ref false
let dropped_n = ref 0
let mismatch_n = ref 0

let enabled () = !on

let start ?(capacity = default_capacity) () =
  buf := Array.make (max 16 capacity) dummy;
  dropped_n := 0;
  mismatch_n := 0;
  cursor := 0;
  on := true

let stop () = on := false

let dropped () = !dropped_n
let mismatches () = !mismatch_n

(* Returns whether the event landed in the buffer. *)
let push ev =
  let b = !buf in
  if !cursor < Array.length b then begin
    b.(!cursor) <- ev;
    incr cursor;
    true
  end
  else begin
    incr dropped_n;
    false
  end

let events () = Array.to_list (Array.sub !buf 0 !cursor)

(* ---- lanes ----------------------------------------------------------- *)

(* Lane 0 is the supervisor ("main"); kernel tasks report on their tid. *)
let lane_name lane =
  if lane = 0 then "main" else Printf.sprintf "task-%d" lane

type frame = { f_name : string; f_lane : int; f_emitted : bool }

let current_lane = ref 0
let stack : frame list ref = ref []
let set_lane lane = current_lane := lane

(* ---- recording ------------------------------------------------------- *)

let begin_scope ?(lane = !current_lane) name =
  let emitted =
    !on
    && push
         { ev_kind = B; ev_name = name; ev_lane = lane; ev_vts = !vclock ();
           ev_hts = !hclock () }
  in
  stack := { f_name = name; f_lane = lane; f_emitted = emitted } :: !stack

let end_scope name =
  match !stack with
  | [] -> if !on then incr mismatch_n
  | f :: rest ->
    stack := rest;
    if f.f_name <> name then incr mismatch_n;
    (* The end event carries the frame's own name and opening lane, so a
       mismatched or lane-switched close still pairs with its begin. *)
    if f.f_emitted then
      ignore
        (push
           { ev_kind = E; ev_name = f.f_name; ev_lane = f.f_lane;
             ev_vts = !vclock (); ev_hts = !hclock () })

(* Closes the scope on every exit without building a [Fun.protect]
   closure per call. *)
let scope ?lane name f =
  begin_scope ?lane name;
  match f () with
  | v ->
    end_scope name;
    v
  | exception e ->
    end_scope name;
    raise e

let instant ?(lane = !current_lane) name =
  if !on then begin
    ignore
      (push
         { ev_kind = I; ev_name = name; ev_lane = lane; ev_vts = !vclock ();
           ev_hts = !hclock () })
  end

(* ---- layer mapping --------------------------------------------------- *)

(* Scope names follow the <layer>.<verb> convention (telemetry.mli); the
   first dotted segment maps onto the library that owns it, which
   becomes the Chrome "cat" field. *)
let layer_of name =
  let seg =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match seg with
  | "kern" -> "kern"
  | "trace" | "salvage" | "reader" | "io" | "compress" -> "rrtrace"
  | "record" | "replay" | "index" | "sched" | "syscallbuf" | "task" -> "rr"
  | "gdb" -> "gdbstub"
  | s -> s

(* ---- Chrome trace-event export --------------------------------------- *)

(* One JSON object per event, ph in {B, E, i}, ts in microseconds of
   virtual time, host ns in args.  Per-lane timestamps are clamped
   monotone (each session restarts the virtual clock, so a lane that
   two sessions share would otherwise step back), and any scope still
   open at the end of the buffer — a killed session, or an end event
   that fell off the bounded buffer — is closed at the final timestamp
   so every B has a matching E. *)
let to_chrome_json () =
  let evs = events () in
  let b = Buffer.create 65536 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":%d,\"mismatches\":%d},\"traceEvents\":["
       (dropped ()) (mismatches ()));
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b s
  in
  (* Thread-name metadata for every lane that appears. *)
  let seen_lanes = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if not (Hashtbl.mem seen_lanes e.ev_lane) then begin
        Hashtbl.replace seen_lanes e.ev_lane ();
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
             e.ev_lane
             (Json_min.escape (lane_name e.ev_lane)))
      end)
    evs;
  let last_ts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let max_ts = ref 0 in
  let clamp lane ts =
    let ts =
      match Hashtbl.find_opt last_ts lane with
      | Some prev -> max prev ts
      | None -> ts
    in
    Hashtbl.replace last_ts lane ts;
    if ts > !max_ts then max_ts := ts;
    ts
  in
  let usec ts = Printf.sprintf "%.3f" (float_of_int ts /. 1e3) in
  let common ~ph ~lane ~ts name =
    Printf.sprintf
      "{\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"cat\":\"%s\",\"name\":\"%s\""
      ph lane (usec ts)
      (Json_min.escape (layer_of name))
      (Json_min.escape name)
  in
  (* Per-lane open-scope stacks, to synthesize missing ends. *)
  let open_stacks : (int, string list) Hashtbl.t = Hashtbl.create 16 in
  let stack lane = Option.value ~default:[] (Hashtbl.find_opt open_stacks lane) in
  List.iter
    (fun e ->
      let ts = clamp e.ev_lane e.ev_vts in
      match e.ev_kind with
      | B ->
        Hashtbl.replace open_stacks e.ev_lane (e.ev_name :: stack e.ev_lane);
        emit
          (common ~ph:"B" ~lane:e.ev_lane ~ts e.ev_name
          ^ Printf.sprintf ",\"args\":{\"host_ns\":%d}}" e.ev_hts)
      | E ->
        (match stack e.ev_lane with
        | _ :: rest -> Hashtbl.replace open_stacks e.ev_lane rest
        | [] -> ());
        emit
          (common ~ph:"E" ~lane:e.ev_lane ~ts e.ev_name
          ^ Printf.sprintf ",\"args\":{\"host_ns\":%d}}" e.ev_hts)
      | I ->
        emit (common ~ph:"i" ~lane:e.ev_lane ~ts e.ev_name ^ ",\"s\":\"t\"}"))
    evs;
  (* Close whatever is still open, innermost first. *)
  Hashtbl.iter
    (fun lane names ->
      List.iter
        (fun name -> emit (common ~ph:"E" ~lane ~ts:!max_ts name ^ "}"))
        names)
    open_stacks;
  Buffer.add_string b "]}";
  Buffer.contents b

let export path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_chrome_json ());
      output_char oc '\n')

(* ---- aggregation: the merged scope tree ------------------------------ *)

type node = {
  n_name : string;
  mutable n_count : int;
  mutable n_total_ns : int; (* inclusive *)
  n_kids : (string, node) Hashtbl.t;
}

let new_node n_name =
  { n_name; n_count = 0; n_total_ns = 0; n_kids = Hashtbl.create 4 }

let node_child parent name =
  match Hashtbl.find_opt parent.n_kids name with
  | Some n -> n
  | None ->
    let n = new_node name in
    Hashtbl.replace parent.n_kids name n;
    n

let node_children n =
  Hashtbl.fold (fun _ c acc -> c :: acc) n.n_kids []
  |> List.sort (fun a b ->
         match compare b.n_total_ns a.n_total_ns with
         | 0 -> compare a.n_name b.n_name
         | c -> c)

let node_self n =
  let kids = Hashtbl.fold (fun _ c acc -> acc + c.n_total_ns) n.n_kids 0 in
  max 0 (n.n_total_ns - kids)

(* Replay the event stream through per-lane stacks, merging identical
   paths (across lanes and across repetitions) into one tree under a
   synthetic root.  Scopes left open by buffer truncation are closed at
   the last timestamp seen. *)
let tree () =
  let evs = events () in
  let root = new_node "" in
  let stacks : (int, (node * int) list) Hashtbl.t = Hashtbl.create 16 in
  let stack lane = Option.value ~default:[] (Hashtbl.find_opt stacks lane) in
  let max_ts = ref 0 in
  List.iter
    (fun e ->
      if e.ev_vts > !max_ts then max_ts := e.ev_vts;
      match e.ev_kind with
      | B ->
        let parent =
          match stack e.ev_lane with (n, _) :: _ -> n | [] -> root
        in
        let n = node_child parent e.ev_name in
        Hashtbl.replace stacks e.ev_lane ((n, e.ev_vts) :: stack e.ev_lane)
      | E -> (
        match stack e.ev_lane with
        | (n, t0) :: rest ->
          n.n_count <- n.n_count + 1;
          n.n_total_ns <- n.n_total_ns + max 0 (e.ev_vts - t0);
          Hashtbl.replace stacks e.ev_lane rest
        | [] -> ())
      | I -> ())
    evs;
  Hashtbl.iter
    (fun _ open_frames ->
      List.iter
        (fun (n, t0) ->
          n.n_count <- n.n_count + 1;
          n.n_total_ns <- n.n_total_ns + max 0 (!max_ts - t0))
        open_frames)
    stacks;
  root

(* ---- the per-stage attribution ledger -------------------------------- *)

type stage = { st_name : string; st_self_ns : int; st_count : int }

type summary = {
  at_total_ns : int;
  at_covered_ns : int;
  at_stages : stage list;
  at_untracked_ns : int;
}

let is_session name = String.length name > 8 && Filename.check_suffix name ".session"

(* The measurement window: [*.session] roots are the window itself, not
   a stage.  It is the sum of session durations when any were recorded
   (each session runs its own virtual clock from ~0, so summing — not
   spanning — is what keeps a combined record+replay buffer honest),
   falling back to the raw virtual-time span of the buffer when no
   session scope exists. *)
let window_ns root =
  let session_total =
    Hashtbl.fold
      (fun name n acc -> if is_session name then acc + n.n_total_ns else acc)
      root.n_kids 0
  in
  if session_total > 0 then session_total
  else begin
    let evs = events () in
    let min_ts, max_ts =
      List.fold_left
        (fun (lo, hi) e -> (min lo e.ev_vts, max hi e.ev_vts))
        (max_int, 0) evs
    in
    if min_ts = max_int then 0 else max 0 (max_ts - min_ts)
  end

(* Stages are *self* times grouped by scope name over the whole merged
   tree — time attributed to exactly one stage, so stages sum to the
   instrumented fraction of the window. *)
let attribution () =
  let root = tree () in
  let total = window_ns root in
  let selfs : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  let rec walk n =
    if n.n_name <> "" && not (is_session n.n_name) then begin
      let s, c =
        Option.value ~default:(0, 0) (Hashtbl.find_opt selfs n.n_name)
      in
      Hashtbl.replace selfs n.n_name (s + node_self n, c + n.n_count)
    end;
    Hashtbl.iter (fun _ c -> walk c) n.n_kids
  in
  walk root;
  let stages =
    Hashtbl.fold
      (fun st_name (st_self_ns, st_count) acc ->
        if st_self_ns > 0 || st_count > 0 then
          { st_name; st_self_ns; st_count } :: acc
        else acc)
      selfs []
    |> List.sort (fun a b ->
           match compare b.st_self_ns a.st_self_ns with
           | 0 -> compare a.st_name b.st_name
           | c -> c)
  in
  let covered = List.fold_left (fun acc s -> acc + s.st_self_ns) 0 stages in
  { at_total_ns = total;
    at_covered_ns = covered;
    at_stages = stages;
    at_untracked_ns = max 0 (total - covered) }

let pct ~total v =
  if total <= 0 then 0. else 100. *. float_of_int v /. float_of_int total

(* ---- rendering ------------------------------------------------------- *)

(* Shares are of the attribution ledger's window, not of the sum of the
   roots: a task lane's [kern.run] root runs inside the lane-0 session,
   so summing the roots would count that time twice. *)
let pp_flamegraph ppf () =
  let root = tree () in
  let total = window_ns root in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "%-44s %7s %14s %8s@," "scope" "share" "total ns" "count";
  let rec render depth n =
    Fmt.pf ppf "%s%-*s %6.1f%% %14d %8d@,"
      (String.make (2 * depth) ' ')
      (max 1 (44 - (2 * depth)))
      n.n_name
      (pct ~total n.n_total_ns)
      n.n_total_ns n.n_count;
    List.iter (render (depth + 1)) (node_children n)
  in
  List.iter (render 0) (node_children root);
  Fmt.pf ppf "@]"

let pp_attribution ppf () =
  let a = attribution () in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "%-44s %7s %14s %8s@," "stage" "share" "self ns" "count";
  List.iter
    (fun s ->
      Fmt.pf ppf "%-44s %6.1f%% %14d %8d@," s.st_name
        (pct ~total:a.at_total_ns s.st_self_ns)
        s.st_self_ns s.st_count)
    a.at_stages;
  Fmt.pf ppf "%-44s %6.1f%% %14d@," "(untracked)"
    (pct ~total:a.at_total_ns a.at_untracked_ns)
    a.at_untracked_ns;
  Fmt.pf ppf "total window: %d virtual ns, %.1f%% attributed@," a.at_total_ns
    (pct ~total:a.at_total_ns a.at_covered_ns);
  Fmt.pf ppf "@]"

let attribution_to_json a =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"total_ns\":%d,\"covered_ns\":%d,\"covered_pct\":%.2f,\"stages\":{"
       a.at_total_ns a.at_covered_ns
       (pct ~total:a.at_total_ns a.at_covered_ns));
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":{\"self_ns\":%d,\"pct\":%.2f,\"count\":%d}"
           (Json_min.escape s.st_name)
           s.st_self_ns
           (pct ~total:a.at_total_ns s.st_self_ns)
           s.st_count))
    a.at_stages;
  Buffer.add_string b
    (Printf.sprintf "},\"untracked_ns\":%d}" a.at_untracked_ns);
  Buffer.contents b
