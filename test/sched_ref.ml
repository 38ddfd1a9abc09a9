(* The list-based scheduling decisions that [Kernel.scan_tasks] and
   [Rec_sched.pick]'s single pass replaced, kept so that tests can
   demand the same choices.  Every decision rebuilds lists over every
   task.  The kernel's decisions read a plain [Hashtbl] that a test
   builds by the same inserts and removals it makes on the kernel, so
   their visiting order owes nothing to the kernel's own array.  The
   recorder's keep their round-robin order as a list of their own. *)

module T = Task

(* ---- the kernel's decisions ---------------------------------------- *)

(* A task table as the kernel's holds it, at the kernel's initial size. *)
let tasks () : (int, T.t) Hashtbl.t = Hashtbl.create 64

(* Every task, the last visited first, as [Hashtbl.fold] conses. *)
let all_tasks tbl = Hashtbl.fold (fun _ t acc -> t :: acc) tbl []

let live_tasks tbl = List.filter T.is_alive (all_tasks tbl)

(* [Kernel.wake_task] on a sleeper: it waits on no queue. *)
let wake_sleepers tbl ~clock =
  List.iter
    (fun t ->
      match t.T.state with
      | T.Blocked (T.W_sleep d) when d <= clock ->
        t.T.last_wake <- clock;
        t.T.state <- T.Runnable
      | T.Blocked _ | T.Runnable | T.Stopped | T.Dead -> ())
    (all_tasks tbl)

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
let wait_decision tbl ~clock =
  wake_sleepers tbl ~clock;
  let live = live_tasks tbl in
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
let baseline_core tbl ~core_clock =
  let has_eligible core =
    List.exists (fun t -> eligible t core) (live_tasks tbl)
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
let baseline_pick tbl ~core ~cursor =
  let cands =
    List.filter (fun t -> eligible t core) (live_tasks tbl)
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

(* ---- the recorder's pick ------------------------------------------- *)

(* [Rec_sched.t] as a list, seeded like [Rec_sched.create]. *)
type sched = {
  mutable order : int list; (* round-robin order of tids *)
  chaos : bool;
  entropy : Entropy.t;
  chaos_prio : (int, int) Hashtbl.t;
  mutable picks_until_reshuffle : int;
}

let sched ~chaos ~seed =
  { order = [];
    chaos;
    entropy = Entropy.create seed;
    chaos_prio = Hashtbl.create 8;
    picks_until_reshuffle = 0 }

let add_task t tid =
  if not (List.mem tid t.order) then t.order <- t.order @ [ tid ]

let prefer t tid =
  if List.mem tid t.order then
    t.order <- tid :: List.filter (fun x -> x <> tid) t.order

let remove_task t tid =
  t.order <- List.filter (fun x -> x <> tid) t.order;
  Hashtbl.remove t.chaos_prio tid

let reshuffle t =
  Hashtbl.reset t.chaos_prio;
  List.iter
    (fun tid ->
      if Entropy.bool t.entropy then
        Hashtbl.replace t.chaos_prio tid (Entropy.range t.entropy (-2) 2))
    t.order;
  t.picks_until_reshuffle <- Entropy.range t.entropy 3 10

let effective_priority t tid base =
  if t.chaos then
    match Hashtbl.find_opt t.chaos_prio tid with Some p -> p | None -> base
  else base

(* [Rec_sched.pick] with its candidate list and fold. *)
let pick t ~runnable ~priority =
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
