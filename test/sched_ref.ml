(* The list-based scheduling decisions that [Kernel.scan_tasks] and
   [Rec_sched.pick]'s single pass replaced, kept so that tests can
   demand the same choices.  Every decision rebuilds lists over every
   task: the kernel's from [Kernel.all_tasks], the recorder's from the
   round-robin order. *)

module K = Kernel
module T = Task

let live_tasks k = List.filter T.is_alive (K.all_tasks k)

(* [Kernel.wake_task] on a sleeper: it waits on no queue. *)
let wake_sleepers k =
  List.iter
    (fun t ->
      match t.T.state with
      | T.Blocked (T.W_sleep d) when d <= k.K.clock ->
        t.T.last_wake <- k.K.clock;
        t.T.state <- T.Runnable
      | T.Blocked _ | T.Runnable | T.Stopped | T.Dead -> ())
    (K.all_tasks k)

let sleeper_deadlines live =
  List.filter_map
    (fun t ->
      match t.T.state with
      | T.Blocked (T.W_sleep d) -> Some d
      | T.Blocked _ | T.Runnable | T.Stopped | T.Dead -> None)
    live

type wait_decision =
  | All_dead
  | Run of int (* tid *)
  | Sleep_until of int
  | Deadlocked of int list

(* One round of [Kernel.wait] after its stop queue came up empty. *)
let wait_decision k =
  wake_sleepers k;
  let live = live_tasks k in
  if live = [] then All_dead
  else
    match List.find_opt (fun t -> t.T.state = T.Runnable) live with
    | Some t -> Run t.T.tid
    | None -> (
      match sleeper_deadlines live with
      | [] -> Deadlocked (List.map (fun t -> t.T.tid) live)
      | d :: rest -> Sleep_until (List.fold_left min d rest))

let eligible t core =
  t.T.state = T.Runnable && (t.T.affinity = -1 || t.T.affinity = core)

(* [Kernel.run_baseline]'s choice of core, after [wake_sleepers]. *)
let baseline_core k ~core_clock =
  let has_eligible core =
    List.exists (fun t -> eligible t core) (live_tasks k)
  in
  let best_core = ref None in
  for c = 0 to Array.length core_clock - 1 do
    if has_eligible c then
      match !best_core with
      | Some b when core_clock.(b) <= core_clock.(c) -> ()
      | Some _ | None -> best_core := Some c
  done;
  !best_core

(* [Kernel.run_baseline]'s pick on [core], with its cursor already
   advanced to [cursor]. *)
let baseline_pick k ~core ~cursor =
  let cands =
    List.filter (fun t -> eligible t core) (live_tasks k)
    |> List.sort (fun a b ->
           match compare a.T.priority b.T.priority with
           | 0 -> compare a.T.tid b.T.tid
           | c -> c)
  in
  match cands with
  | [] -> None
  | first :: _ ->
    let group = List.filter (fun t -> t.T.priority = first.T.priority) cands in
    Some (List.nth group (cursor mod List.length group))

(* [Rec_sched.pick] with its candidate list and fold. *)
let reshuffle (t : Rec_sched.t) =
  Hashtbl.reset t.chaos_prio;
  List.iter
    (fun tid ->
      if Entropy.bool t.entropy then
        Hashtbl.replace t.chaos_prio tid (Entropy.range t.entropy (-2) 2))
    t.order;
  t.picks_until_reshuffle <- Entropy.range t.entropy 3 10

let effective_priority (t : Rec_sched.t) tid base =
  if t.chaos then
    match Hashtbl.find_opt t.chaos_prio tid with Some p -> p | None -> base
  else base

let pick (t : Rec_sched.t) ~runnable ~priority =
  if t.chaos then begin
    t.picks_until_reshuffle <- t.picks_until_reshuffle - 1;
    if t.picks_until_reshuffle <= 0 then reshuffle t
  end;
  let candidates = List.filter runnable t.order in
  let best =
    List.fold_left
      (fun acc tid ->
        let p = effective_priority t tid (priority tid) in
        match acc with Some (_, bp) when bp <= p -> acc | _ -> Some (tid, p))
      None candidates
  in
  match best with
  | None -> None
  | Some (tid, _) ->
    t.order <- List.filter (fun x -> x <> tid) t.order @ [ tid ];
    Some tid
