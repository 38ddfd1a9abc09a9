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
   replaced.  Task tables are built by random inserts and removals, so
   the [Hashtbl] visiting order that breaks [wait]'s ties includes
   deletions, and the same operations build the twin table each side
   decides on. *)

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
  | Drop of int

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
            | Drop tid -> Printf.sprintf "-%d" tid)
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
  let put =
    map
      (fun (tid, st, prio, aff) -> Put { tid; st; prio; aff })
      (quad (int_bound (span - 1)) st (int_range (-2) 2) aff)
  in
  let drop = map (fun tid -> Drop tid) (int_bound (span - 1)) in
  let op = frequency [ (3, put); (1, drop) ] in
  let* ops = list_repeat n_ops op in
  let* clock = int_range 0 10_000 in
  let* core_clock = array_repeat cores (int_range 0 4) in
  let* cursor = int_range 1 1_000 in
  return { clock; ops; core_clock; cursor }

let arb_table = QCheck.make ~print:pp_table gen_table

let kernel_of tb =
  let k = K.create ~seed:1 () in
  k.K.clock <- tb.clock;
  let space = Addr_space.create ~id:1 in
  let proc = T.make_process ~pid:1 ~parent:0 ~space in
  List.iter
    (function
      | Put { tid; st; prio; aff } ->
        let t = T.make_task ~tid:(100 + tid) ~proc ~cpu:(Cpu.create ~space) in
        t.T.state <-
          (match st with
          | S_runnable -> T.Runnable
          | S_stopped -> T.Stopped
          | S_dead -> T.Dead
          | S_sleep d -> T.Blocked (T.W_sleep (tb.clock + d))
          | S_waiting -> T.Blocked (T.W_child (-1)));
        t.T.priority <- prio;
        t.T.affinity <- aff;
        Hashtbl.replace k.K.tasks t.T.tid t
      | Drop tid -> Hashtbl.remove k.K.tasks (100 + tid))
    tb.ops;
  k

(* Every task's state and wake time, by tid. *)
let task_states k =
  List.sort compare
    (List.map (fun t -> (t.T.tid, t.T.state, t.T.last_wake)) (K.all_tasks k))

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

let qcheck_wait_matches_reference =
  QCheck.Test.make ~name:"wait decides as the list-based reference"
    ~count:300 arb_table (fun tb ->
      let k = kernel_of tb and k' = kernel_of tb in
      (* a second round after the clock jumps to the next deadline *)
      let rec rounds n =
        let d = wait_decision k and d' = Sched_ref.wait_decision k' in
        d = d'
        && task_states k = task_states k'
        &&
        match d with
        | Sched_ref.Sleep_until at when n > 0 ->
          k.K.clock <- at;
          k'.K.clock <- at;
          rounds (n - 1)
        | _ -> true
      in
      rounds 1)

let qcheck_baseline_matches_reference =
  QCheck.Test.make ~name:"run_baseline picks as the list-based reference"
    ~count:300 arb_table (fun tb ->
      let k = kernel_of tb and k' = kernel_of tb in
      let s = K.scan_tasks k in
      Sched_ref.wake_sleepers k';
      let core_clock = tb.core_clock in
      let core = K.baseline_core s ~core_clock in
      let pick =
        if core < 0 then None
        else Some (K.baseline_pick s ~core ~cursor:tb.cursor).T.tid
      in
      let core' = Sched_ref.baseline_core k' ~core_clock in
      let pick' =
        Option.bind core' (fun core ->
            Option.map
              (fun t -> t.T.tid)
              (Sched_ref.baseline_pick k' ~core ~cursor:tb.cursor))
      in
      task_states k = task_states k'
      && (if core < 0 then None else Some core) = core'
      && pick = pick')

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
      and s' = Rec_sched.create ~chaos ~seed () in
      List.for_all
        (fun op ->
          (match op with
          | Add t ->
            Rec_sched.add_task s t;
            Rec_sched.add_task s' t
          | Prefer t ->
            Rec_sched.prefer s t;
            Rec_sched.prefer s' t
          | Remove t ->
            Rec_sched.remove_task s t;
            Rec_sched.remove_task s' t
          | Pick _ -> ());
          match op with
          | Pick (r, p) ->
            let runnable t = r.(t) and priority t = p.(t) in
            Rec_sched.pick s ~runnable ~priority
            = Sched_ref.pick s' ~runnable ~priority
            && s.Rec_sched.order = s'.Rec_sched.order
          | Add _ | Prefer _ | Remove _ -> true)
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
        QCheck_alcotest.to_alcotest
          (qcheck_pick_matches_reference ~chaos:false);
        QCheck_alcotest.to_alcotest
          (qcheck_pick_matches_reference ~chaos:true) ] ) ]
