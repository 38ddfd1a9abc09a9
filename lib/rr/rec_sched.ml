(* The recorder's scheduler (paper §2.2).

   One task at a time; strict priorities with round-robin among equals;
   preemption budgets expressed in RCBs (the recorder programs the PMU
   interrupt for the budget).  Chaos mode (paper §8) perturbs priorities
   and timeslices randomly to surface races that the default deterministic
   schedule would hide — the randomness flows from the recording kernel's
   entropy, and every decision is recorded as a sched event, so replay is
   unaffected. *)

type t = {
  mutable order : int list; (* round-robin order of tids *)
  base_timeslice_rcbs : int;
  chaos : bool;
  entropy : Entropy.t;
  chaos_prio : (int, int) Hashtbl.t;
  mutable picks_until_reshuffle : int;
}

let create ?(timeslice_rcbs = 50_000) ?(chaos = false) ~seed () =
  { order = [];
    base_timeslice_rcbs = timeslice_rcbs;
    chaos;
    entropy = Entropy.create seed;
    chaos_prio = Hashtbl.create 8;
    picks_until_reshuffle = 0 }

let add_task t tid = if not (List.mem tid t.order) then t.order <- t.order @ [ tid ]

(* Move a tid to the front of the round-robin order: the next pick in
   its priority class chooses it. *)
let prefer t tid =
  if List.mem tid t.order then
    t.order <- tid :: List.filter (fun x -> x <> tid) t.order

let remove_task t tid =
  t.order <- List.filter (fun x -> x <> tid) t.order;
  Hashtbl.remove t.chaos_prio tid

let effective_priority t tid base =
  if t.chaos then
    match Hashtbl.find t.chaos_prio tid with
    | p -> p
    | exception Not_found -> base
  else base

let tm_pick = Telemetry.counter "sched.pick"
let tm_reshuffle = Telemetry.counter "sched.reshuffle"

let reshuffle t =
  Telemetry.incr tm_reshuffle;
  Hashtbl.reset t.chaos_prio;
  List.iter
    (fun tid ->
      if Entropy.bool t.entropy then
        Hashtbl.replace t.chaos_prio tid (Entropy.range t.entropy (-2) 2))
    t.order;
  t.picks_until_reshuffle <- Entropy.range t.entropy 3 10

(* The first runnable tid in [order] with the best (lowest) effective
   priority. *)
let rec best_runnable t ~runnable ~priority ~found best best_p = function
  | [] -> if found then Some best else None
  | tid :: rest ->
    if runnable tid then
      let p = effective_priority t tid (priority tid) in
      if (not found) || p < best_p then
        best_runnable t ~runnable ~priority ~found:true tid p rest
      else best_runnable t ~runnable ~priority ~found best best_p rest
    else best_runnable t ~runnable ~priority ~found best best_p rest

(* Pick the next task: the runnable task with the best (lowest) effective
   priority, round-robin within that class.  Rotates the picked task to
   the back of the order. *)
let pick t ~runnable ~priority =
  if t.chaos then begin
    t.picks_until_reshuffle <- t.picks_until_reshuffle - 1;
    if t.picks_until_reshuffle <= 0 then reshuffle t
  end;
  match best_runnable t ~runnable ~priority ~found:false 0 0 t.order with
  | None -> None
  | Some tid ->
    t.order <- List.filter (fun x -> x <> tid) t.order @ [ tid ];
    Telemetry.incr tm_pick;
    Some tid

let timeslice t =
  if t.chaos then
    (* Log-uniform-ish slices: mostly short, occasionally long. *)
    let scale = 1 lsl Entropy.range t.entropy 0 6 in
    max 500 (t.base_timeslice_rcbs / scale)
  else t.base_timeslice_rcbs
