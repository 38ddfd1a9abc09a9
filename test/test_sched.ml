(* Tests for the recorder's scheduler: strict priorities, round-robin
   fairness, chaos-mode behavior (paper §2.2, §8). *)

let always _ = true

let test_round_robin_rotation () =
  let s = Rec_sched.create ~seed:1 () in
  List.iter (Rec_sched.add_task s) [ 1; 2; 3 ];
  let picks =
    List.init 6 (fun _ ->
        match Rec_sched.pick s ~runnable:always ~priority:(fun _ -> 0) with
        | Some t -> t
        | None -> -1)
  in
  Alcotest.(check (list int)) "fair rotation" [ 1; 2; 3; 1; 2; 3 ] picks

let test_priorities_strict () =
  let s = Rec_sched.create ~seed:1 () in
  List.iter (Rec_sched.add_task s) [ 1; 2; 3 ];
  (* task 2 has the best (lowest) priority: it always wins. *)
  let prio = function 2 -> -1 | _ -> 0 in
  for _ = 1 to 5 do
    Alcotest.(check (option int)) "highest priority wins" (Some 2)
      (Rec_sched.pick s ~runnable:always ~priority:prio)
  done

let test_priority_class_round_robin () =
  let s = Rec_sched.create ~seed:1 () in
  List.iter (Rec_sched.add_task s) [ 1; 2; 3 ];
  (* 1 and 3 share the best priority; 2 is worse and never runs. *)
  let prio = function 2 -> 5 | _ -> 0 in
  let picks =
    List.init 4 (fun _ ->
        Option.get (Rec_sched.pick s ~runnable:always ~priority:prio))
  in
  Alcotest.(check bool) "2 starved by betters" true
    (not (List.mem 2 picks));
  Alcotest.(check bool) "both 1 and 3 run" true
    (List.mem 1 picks && List.mem 3 picks)

let test_runnable_filter () =
  let s = Rec_sched.create ~seed:1 () in
  List.iter (Rec_sched.add_task s) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "only runnable considered" (Some 2)
    (Rec_sched.pick s ~runnable:(fun t -> t = 2) ~priority:(fun _ -> 0));
  Alcotest.(check (option int)) "none runnable" None
    (Rec_sched.pick s ~runnable:(fun _ -> false) ~priority:(fun _ -> 0))

let test_remove_task () =
  let s = Rec_sched.create ~seed:1 () in
  List.iter (Rec_sched.add_task s) [ 1; 2 ];
  Rec_sched.remove_task s 1;
  for _ = 1 to 3 do
    Alcotest.(check (option int)) "removed task never picked" (Some 2)
      (Rec_sched.pick s ~runnable:always ~priority:(fun _ -> 0))
  done

let test_default_timeslice_constant () =
  let s = Rec_sched.create ~timeslice_rcbs:1234 ~seed:1 () in
  for _ = 1 to 10 do
    Alcotest.(check int) "non-chaos slices are fixed" 1234
      (Rec_sched.timeslice s)
  done

let qcheck_chaos_timeslice_bounds =
  QCheck.Test.make ~name:"chaos timeslices stay within bounds" ~count:200
    QCheck.(pair (int_range 1 1000) (int_range 1000 100_000))
    (fun (seed, base) ->
      let s = Rec_sched.create ~timeslice_rcbs:base ~chaos:true ~seed () in
      List.for_all
        (fun _ ->
          let ts = Rec_sched.timeslice s in
          ts >= 500 && ts <= base)
        (List.init 20 Fun.id))

let qcheck_chaos_deterministic =
  QCheck.Test.make ~name:"chaos decisions deterministic per seed" ~count:50
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let run () =
        let s = Rec_sched.create ~chaos:true ~seed () in
        List.iter (Rec_sched.add_task s) [ 1; 2; 3; 4 ];
        List.init 30 (fun _ ->
            ( Option.value ~default:(-1)
                (Rec_sched.pick s ~runnable:always ~priority:(fun _ -> 0)),
              Rec_sched.timeslice s ))
      in
      run () = run ())

let qcheck_pick_total =
  QCheck.Test.make ~name:"pick always returns a runnable task" ~count:200
    QCheck.(pair small_int (list_of_size Gen.(1 -- 8) (int_bound 20)))
    (fun (seed, tids) ->
      let s = Rec_sched.create ~chaos:(seed mod 2 = 0) ~seed () in
      List.iter (Rec_sched.add_task s) tids;
      match Rec_sched.pick s ~runnable:always ~priority:(fun t -> t mod 3) with
      | Some t -> List.mem t tids
      | None -> tids = [])

(* ---- fork storms (the serve workload's accept loop) ------------------
   A fork-per-connection server is a storm of clones: every fork adds
   the child and prefers it (rr's child-runs-first policy), parents park
   in wait4, and the run queue fills with blocked tasks.  The scheduler
   must keep choosing the fresh child first and never deadlock while
   the queue drains. *)

let qcheck_fork_storm_child_first =
  QCheck.Test.make ~name:"fork storm: preferred child always picked first"
    ~count:200
    QCheck.(pair small_int (list_of_size Gen.(1 -- 30) (int_bound 1000)))
    (fun (seed, forks) ->
      let s = Rec_sched.create ~seed () in
      Rec_sched.add_task s 0;
      let next = ref 1 in
      List.for_all
        (fun _ ->
          (* a fork from some existing task: add + prefer the child *)
          let child = !next in
          incr next;
          Rec_sched.add_task s child;
          Rec_sched.prefer s child;
          (* everyone runnable, equal priority: the child runs first *)
          match
            Rec_sched.pick s ~runnable:always ~priority:(fun _ -> 0)
          with
          | Some t -> t = child
          | None -> false)
        forks)

let qcheck_fork_burst_lifo =
  QCheck.Test.make
    ~name:"nested fork burst runs children newest-first" ~count:200
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, burst) ->
      (* nested forks: each fresh child immediately forks its own child
         before anyone is scheduled, so prefers stack up — the picks
         must then come newest-first (each prefer moved its child to
         the front). *)
      let s = Rec_sched.create ~seed () in
      Rec_sched.add_task s 0;
      let children = List.init burst (fun i -> i + 1) in
      List.iter
        (fun c ->
          Rec_sched.add_task s c;
          Rec_sched.prefer s c)
        children;
      let picks =
        List.init burst (fun _ ->
            Option.get
              (Rec_sched.pick s ~runnable:always ~priority:(fun _ -> 0)))
      in
      picks = List.rev children)

let qcheck_fork_storm_parked_parents =
  QCheck.Test.make
    ~name:"parked parents never deadlock a full run queue" ~count:200
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      (* a chain of nested forks: each parent parks in wait4 right
         after preferring its child, so the queue fills with blocked
         tasks and exactly one task is runnable at a time.  Scheduling
         must reach it both while the storm builds and while it
         drains (each exit unparks the waiting parent). *)
      let s = Rec_sched.create ~chaos:(seed mod 2 = 0) ~seed () in
      Rec_sched.add_task s 0;
      let parked = Hashtbl.create 8 in
      let runnable t = not (Hashtbl.mem parked t) in
      let ok = ref true in
      for child = 1 to n do
        Rec_sched.add_task s child;
        Rec_sched.prefer s child;
        Hashtbl.replace parked (child - 1) ();
        match Rec_sched.pick s ~runnable ~priority:(fun _ -> 0) with
        | Some t -> if t <> child then ok := false
        | None -> ok := false
      done;
      for child = n downto 1 do
        Rec_sched.remove_task s child;
        Hashtbl.remove parked (child - 1);
        match Rec_sched.pick s ~runnable ~priority:(fun _ -> 0) with
        | Some t -> if Hashtbl.mem parked t then ok := false
        | None -> ok := false
      done;
      !ok)

(* ---- every decision equals its list-based reference ------------------
   [Kernel.scan_tasks] and [Rec_sched.pick] make each scheduling decision
   in one pass; test/sched_ref.ml keeps the list-based code they
   replaced.  Task tables are built by random clones, restore-style
   inserts and reaps through the kernel's API, with decisions in
   between, so the [Hashtbl] visiting order that breaks [wait]'s ties
   includes deletions and resizes.  The same operations build the
   reference's plain [Hashtbl] of twin tasks, which its decisions read in
   their own visiting order. *)

module K = Kernel
module T = Task

type task_state =
  | S_runnable
  | S_stopped
  | S_dead
  | S_sleep of int (* deadline minus clock *)
  | S_waiting (* blocked with no deadline *)

type table_op =
  | Put of { tid : int; st : task_state; prio : int; aff : int }
    (* a checkpoint restore's insert, which may replace the tid *)
  | Clone of { tid : int; st : task_state; prio : int; aff : int }
  | Reap of int
  | Decide (* one round of [wait] *)

type table = {
  clock : int;
  ops : table_op list;
  core_clock : int array;
  cursor : int;
}

let pp_state = function
  | S_runnable -> "R"
  | S_stopped -> "T"
  | S_dead -> "X"
  | S_sleep d -> Printf.sprintf "S%+d" d
  | S_waiting -> "W"

let pp_table tb =
  Printf.sprintf "clock %d, cores [%s], cursor %d: %s" tb.clock
    (String.concat ";" (Array.to_list (Array.map string_of_int tb.core_clock)))
    tb.cursor
    (String.concat " "
       (List.map
          (function
            | Put { tid; st; prio; aff } ->
              Printf.sprintf "+%d:%s/p%d/a%d" tid (pp_state st) prio aff
            | Clone { tid; st; prio; aff } ->
              Printf.sprintf "c%d:%s/p%d/a%d" tid (pp_state st) prio aff
            | Reap tid -> Printf.sprintf "-%d" tid
            | Decide -> "?")
          tb.ops))

let gen_table =
  let open QCheck.Gen in
  let* cores = int_range 1 4 in
  let* span = oneofl [ 4; 16; 64; 200 ] in
  let* n_ops = int_range 0 (2 * span) in
  let st =
    frequency
      [ (4, return S_runnable); (1, return S_stopped); (1, return S_dead);
        (3, map (fun d -> S_sleep d) (int_range (-3) 3));
        (1, return S_waiting) ]
  in
  (* affinity [cores] names no core: such a task never runs *)
  let aff = frequency [ (3, return (-1)); (2, int_range 0 cores) ] in
  let task make =
    map
      (fun (tid, st, prio, aff) -> make tid st prio aff)
      (quad (int_bound (span - 1)) st (int_range (-2) 2) aff)
  in
  let put = task (fun tid st prio aff -> Put { tid; st; prio; aff }) in
  let clone = task (fun tid st prio aff -> Clone { tid; st; prio; aff }) in
  let reap = map (fun tid -> Reap tid) (int_bound (span - 1)) in
  let op =
    frequency [ (2, put); (2, clone); (1, reap); (1, return Decide) ]
  in
  let* ops = list_repeat n_ops op in
  let* clock = int_range 0 10_000 in
  let* core_clock = array_repeat cores (int_range 0 4) in
  let* cursor = int_range 1 1_000 in
  return { clock; ops; core_clock; cursor }

let arb_table = QCheck.make ~print:pp_table gen_table

(* A kernel and the reference's table, kept in step. *)
type twins = {
  k : K.t;
  parent : T.t; (* every clone's parent; not in the table *)
  reference : (int, T.t) Hashtbl.t;
}

let make_twins tb =
  let k = K.create ~seed:1 () in
  k.K.clock <- tb.clock;
  let space = Addr_space.create ~id:1 in
  let proc = T.make_process ~pid:1 ~parent:0 ~space in
  let parent = T.make_task ~tid:1 ~proc ~cpu:(Cpu.create ~space) in
  { k; parent; reference = Sched_ref.tasks () }

(* Give the kernel's task [t] its drawn state and put a twin of it in
   the reference. *)
let settle tw t ~st ~prio ~aff =
  t.T.state <-
    (match st with
    | S_runnable -> T.Runnable
    | S_stopped -> T.Stopped
    | S_dead -> T.Dead
    | S_sleep d -> T.Blocked (T.W_sleep (tw.k.K.clock + d))
    | S_waiting -> T.Blocked (T.W_child (-1)));
  t.T.priority <- prio;
  t.T.affinity <- aff;
  let space = tw.parent.T.proc.T.space in
  let twin =
    T.make_task ~tid:t.T.tid ~proc:tw.parent.T.proc ~cpu:(Cpu.create ~space)
  in
  twin.T.state <- t.T.state;
  twin.T.priority <- prio;
  twin.T.affinity <- aff;
  twin.T.last_wake <- t.T.last_wake;
  Hashtbl.replace tw.reference t.T.tid twin

let apply tw = function
  | Put { tid; st; prio; aff } ->
    let space = tw.parent.T.proc.T.space in
    let t =
      T.make_task ~tid:(100 + tid) ~proc:tw.parent.T.proc
        ~cpu:(Cpu.create ~space)
    in
    settle tw t ~st ~prio ~aff;
    K.add_task tw.k t
  | Clone { tid; st; prio; aff } ->
    let t =
      K.do_clone tw.k tw.parent
        ~flags:(Sysno.clone_vm lor Sysno.clone_thread)
        ~child_sp:0 ~tid:(100 + tid) ()
    in
    settle tw t ~st ~prio ~aff
  | Reap tid ->
    K.remove_task tw.k (100 + tid);
    Hashtbl.remove tw.reference (100 + tid)
  | Decide -> ()

(* Every task's state and wake time, by tid. *)
let task_states tasks =
  List.sort compare
    (List.map (fun t -> (t.T.tid, t.T.state, t.T.last_wake)) tasks)

(* [Kernel.wait]'s round on the scan, in [Sched_ref.wait_decision]'s
   terms. *)
let wait_decision k =
  let s = K.scan_tasks k in
  if s.K.n_live = 0 then Sched_ref.All_dead
  else if s.K.n_runnable > 0 then Sched_ref.Run (K.wait_pick s).T.tid
  else if s.K.n_sleeping > 0 then Sched_ref.Sleep_until s.K.next_wake
  else
    Sched_ref.Deadlocked
      (List.filter_map
         (fun t -> if T.is_alive t then Some t.T.tid else None)
         (K.all_tasks k))

(* One round on both sides; a sleep moves the clock to its deadline. *)
let decide tw =
  let d = wait_decision tw.k in
  let d' = Sched_ref.wait_decision tw.reference ~clock:tw.k.K.clock in
  (match d with
  | Sched_ref.Sleep_until at -> tw.k.K.clock <- at
  | Sched_ref.All_dead | Sched_ref.Run _ | Sched_ref.Deadlocked _ -> ());
  d = d'
  && task_states (K.all_tasks tw.k)
     = task_states (Sched_ref.all_tasks tw.reference)

let qcheck_wait_matches_reference =
  QCheck.Test.make ~name:"wait decides as the list-based reference"
    ~count:300 arb_table (fun tb ->
      let tw = make_twins tb in
      List.for_all
        (fun op ->
          apply tw op;
          match op with
          | Decide -> decide tw
          | Put _ | Clone _ | Reap _ -> true)
        tb.ops
      (* and two more rounds, so a sleep is followed by its wake *)
      && decide tw
      && decide tw)

let qcheck_baseline_matches_reference =
  QCheck.Test.make ~name:"run_baseline picks as the list-based reference"
    ~count:300 arb_table (fun tb ->
      let tw = make_twins tb in
      List.iter (apply tw) tb.ops;
      let k = tw.k in
      let s = K.scan_tasks k in
      Sched_ref.wake_sleepers tw.reference ~clock:k.K.clock;
      let core_clock = tb.core_clock in
      let core = K.baseline_core s ~core_clock in
      let pick =
        if core < 0 then None
        else Some (K.baseline_pick s ~core ~cursor:tb.cursor).T.tid
      in
      let core' = Sched_ref.baseline_core tw.reference ~core_clock in
      let pick' =
        Option.bind core' (fun core ->
            Option.map
              (fun t -> t.T.tid)
              (Sched_ref.baseline_pick tw.reference ~core ~cursor:tb.cursor))
      in
      task_states (K.all_tasks k)
      = task_states (Sched_ref.all_tasks tw.reference)
      && (if core < 0 then None else Some core) = core'
      && pick = pick')

(* The words [f ()] allocates, less what measuring costs. *)
let words f =
  let count f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  int_of_float (count f -. count ignore)

(* Once the scan's array has grown, a decision is a walk over arrays: the
   kernel's pass and pick over 64 tasks in every state allocate nothing,
   and the recorder's pick over 64 tids allocates only its [Some]. *)
let test_decisions_allocate_nothing () =
  let k = K.create ~seed:1 () in
  let space = Addr_space.create ~id:1 in
  let proc = T.make_process ~pid:1 ~parent:0 ~space in
  for i = 0 to 63 do
    let t = T.make_task ~tid:(100 + i) ~proc ~cpu:(Cpu.create ~space) in
    t.T.state <-
      (match i mod 4 with
      | 0 -> T.Runnable
      | 1 -> T.Blocked (T.W_sleep (k.K.clock + 1_000 * (i + 1)))
      | 2 -> T.Stopped
      | _ -> T.Blocked (T.W_child (-1)));
    K.add_task k t
  done;
  let decide () = ignore (K.wait_pick (K.scan_tasks k)) in
  decide ();
  Alcotest.(check int) "scan_tasks + wait_pick over 64 tasks" 0 (words decide);
  let s = Rec_sched.create ~seed:1 () in
  for tid = 0 to 63 do
    Rec_sched.add_task s tid
  done;
  let runnable tid = tid mod 3 = 0 and priority tid = tid mod 5 in
  let pick () = ignore (Rec_sched.pick s ~runnable ~priority) in
  pick ();
  let w = words pick in
  Alcotest.(check bool)
    (Printf.sprintf "Rec_sched.pick over 64 tids: %d words, at most 2" w)
    true (w <= 2)

type sched_op =
  | Add of int
  | Prefer of int
  | Remove of int
  | Pick of bool array * int array (* runnable and priority, by tid *)

let n_tids = 12

let gen_sched_ops =
  let open QCheck.Gen in
  let tid = int_bound (n_tids - 1) in
  let pick =
    map2
      (fun r p -> Pick (r, p))
      (array_repeat n_tids (frequency [ (3, return true); (1, return false) ]))
      (array_repeat n_tids (int_range (-2) 2))
  in
  pair small_nat
    (list_size (int_range 0 80)
       (frequency
          [ (3, map (fun t -> Add t) tid); (1, map (fun t -> Prefer t) tid);
            (1, map (fun t -> Remove t) tid); (4, pick) ]))

let pp_sched_ops (seed, ops) =
  Printf.sprintf "seed %d: %s" seed
    (String.concat " "
       (List.map
          (function
            | Add t -> Printf.sprintf "+%d" t
            | Prefer t -> Printf.sprintf "^%d" t
            | Remove t -> Printf.sprintf "-%d" t
            | Pick (r, p) ->
              Printf.sprintf "pick[%s]"
                (String.concat ","
                   (List.init n_tids (fun i ->
                        if r.(i) then string_of_int p.(i) else "_"))))
          ops))

let qcheck_pick_matches_reference ~chaos =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "pick (%s) equals the list-based reference"
         (if chaos then "chaos" else "no chaos"))
    ~count:300
    (QCheck.make ~print:pp_sched_ops gen_sched_ops)
    (fun (seed, ops) ->
      let s = Rec_sched.create ~chaos ~seed ()
      and s' = Sched_ref.sched ~chaos ~seed in
      List.for_all
        (fun op ->
          (match op with
          | Add t ->
            Rec_sched.add_task s t;
            Sched_ref.add_task s' t;
            true
          | Prefer t ->
            Rec_sched.prefer s t;
            Sched_ref.prefer s' t;
            true
          | Remove t ->
            Rec_sched.remove_task s t;
            Sched_ref.remove_task s' t;
            true
          | Pick (r, p) ->
            let runnable t = r.(t) and priority t = p.(t) in
            Rec_sched.pick s ~runnable ~priority
            = Sched_ref.pick s' ~runnable ~priority)
          && Rec_sched.order s = s'.Sched_ref.order)
        ops)

let suites =
  [ ( "rr.sched",
      [ Alcotest.test_case "round-robin rotation" `Quick
          test_round_robin_rotation;
        Alcotest.test_case "strict priorities" `Quick test_priorities_strict;
        Alcotest.test_case "round-robin within class" `Quick
          test_priority_class_round_robin;
        Alcotest.test_case "runnable filter" `Quick test_runnable_filter;
        Alcotest.test_case "remove task" `Quick test_remove_task;
        Alcotest.test_case "fixed timeslice" `Quick
          test_default_timeslice_constant;
        QCheck_alcotest.to_alcotest qcheck_chaos_timeslice_bounds;
        QCheck_alcotest.to_alcotest qcheck_chaos_deterministic;
        QCheck_alcotest.to_alcotest qcheck_pick_total;
        QCheck_alcotest.to_alcotest qcheck_fork_storm_child_first;
        QCheck_alcotest.to_alcotest qcheck_fork_burst_lifo;
        QCheck_alcotest.to_alcotest qcheck_fork_storm_parked_parents;
        QCheck_alcotest.to_alcotest qcheck_wait_matches_reference;
        QCheck_alcotest.to_alcotest qcheck_baseline_matches_reference;
        Alcotest.test_case "scheduling decisions allocate nothing" `Quick
          test_decisions_allocate_nothing;
        QCheck_alcotest.to_alcotest
          (qcheck_pick_matches_reference ~chaos:false);
        QCheck_alcotest.to_alcotest
          (qcheck_pick_matches_reference ~chaos:true) ] ) ]
