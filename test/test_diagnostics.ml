(* The emergency debugger (paper §6.2): Diagnostics.dump must render
   every task's registers and stop status, include the telemetry event
   ring's tail after a failure, and survive degenerate kernels. *)

module K = Kernel
module T = Task

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else go (i + 1)
  in
  nl = 0 || go 0

let check_contains what hay needle =
  Alcotest.(check bool) (what ^ ": dump mentions " ^ needle) true
    (contains hay needle)

(* A fresh kernel with no tasks must still produce a well-formed dump. *)
let test_empty_kernel () =
  Telemetry.reset ();
  let k = K.create ~seed:3 () in
  let d = Diagnostics.dump k in
  check_contains "empty" d "=== emergency state dump";
  check_contains "empty" d "=== end dump ===";
  Alcotest.(check bool) "no tasks listed" false (contains d "task ");
  (* an empty ring renders no telemetry section *)
  Alcotest.(check bool) "no event section" false
    (contains d "--- telemetry:")

(* Mid-replay, the dump lists every live task: tid, registers, stop
   status, pc and address-space shape. *)
let test_tasks_rendered () =
  Telemetry.reset ();
  let recd, _ = Workload.record (Wl_cp.make ()) in
  let r = Replayer.start recd.Workload.trace in
  for _ = 1 to 12 do
    if not (Replayer.at_end r) then ignore (Replayer.step r)
  done;
  let k = Replayer.kernel r in
  let d = Diagnostics.dump ~msg:"mid-replay probe" k in
  check_contains "tasks" d "mid-replay probe";
  let tasks = K.all_tasks k in
  Alcotest.(check bool) "kernel has live tasks" true (tasks <> []);
  List.iter
    (fun (t : T.t) ->
      check_contains "tasks" d (Printf.sprintf "task %d (pid %d" t.T.tid
                                  t.T.proc.T.pid))
    tasks;
  check_contains "tasks" d "regs:";
  check_contains "tasks" d "pc=";
  check_contains "tasks" d "regions"

(* A cp recording with its first frame that [tamper] changes changed. *)
let tampered_cp ~intercept tamper =
  let opts = { Recorder.default_opts with Recorder.intercept } in
  let recd, _ = Workload.record ~opts (Wl_cp.make ()) in
  let tampered = ref false in
  let trace =
    Trace.map_frames
      (fun _ e ->
        match tamper e with
        | Some e when not !tampered ->
          tampered := true;
          e
        | Some _ | None -> e)
      recd.Workload.trace
  in
  Alcotest.(check bool) "found a frame to tamper" true !tampered;
  trace

(* A syscall frame's recorded registers. *)
let tamper_regs = function
  | Event.E_syscall ({ regs_after; _ } as sc) ->
    let regs_after = Array.copy regs_after in
    regs_after.(3) <- regs_after.(3) + 987654;
    Some (Event.E_syscall { sc with regs_after })
  | _ -> None

(* A buffered record's syscall number, which the interception hook
   checks against the call it runs. *)
let tamper_buffered = function
  | Event.E_buf_flush ({ records = br :: rest; _ } as f) ->
    Some
      (Event.E_buf_flush
         { f with records = { br with Event.br_nr = Sysno.getppid } :: rest })
  | _ -> None

(* After a divergence the dump carries the event ring's tail — the
   frames leading up to the failure — whether a frame's registers
   disagree or the syscallbuf's next record is another call. *)
let test_divergence_dump_has_ring () =
  List.iter
    (fun (what, intercept, tamper) ->
      Telemetry.reset ();
      let r = Replayer.start (tampered_cp ~intercept tamper) in
      let diverged = ref false in
      (try
         while not (Replayer.at_end r) do
           ignore (Replayer.step r)
         done
       with Replayer.Divergence _ -> diverged := true);
      Alcotest.(check bool) (what ^ ": tampered trace diverged") true !diverged;
      let d = Diagnostics.dump (Replayer.kernel r) in
      check_contains what d "--- telemetry: last";
      (* every replayed frame left a ring event; at least one must be a
         numbered entry with its frame index *)
      check_contains what d "#";
      check_contains what d "frame=")
    [ ("registers", false, tamper_regs);
      ("buffered record", true, tamper_buffered) ]

let suites =
  [ ( "diagnostics",
      [ Alcotest.test_case "empty kernel" `Quick test_empty_kernel;
        Alcotest.test_case "tasks rendered" `Quick test_tasks_rendered;
        Alcotest.test_case "divergence dump has ring tail" `Quick
          test_divergence_dump_has_ring ] ) ]
