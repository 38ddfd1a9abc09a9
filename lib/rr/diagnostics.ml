(* The emergency debugger (paper §6.2): when recording or replay fails,
   dump enough tracee state to diagnose the problem in the field —
   register and memory state, stop status, pending signals, counters.
   (Real rr starts a gdb server; we render a report.) *)

module A = Addr_space
module T = Task
module K = Kernel

let pp_state ppf (t : T.t) =
  match t.T.state with
  | T.Runnable -> Fmt.string ppf "runnable"
  | T.Dead -> Fmt.pf ppf "dead(status=%d)" t.T.exit_status
  | T.Stopped -> (
    match t.T.last_stop with
    | Some stop -> Fmt.pf ppf "stopped(%a)" T.pp_stop stop
    | None -> Fmt.string ppf "parked")
  | T.Blocked cond ->
    let c =
      match cond with
      | T.W_pipe_read _ -> "pipe-read"
      | T.W_pipe_write _ -> "pipe-write"
      | T.W_sock_read _ -> "sock-read"
      | T.W_futex (_, a) -> Printf.sprintf "futex@%#x" a
      | T.W_child pid -> Printf.sprintf "wait4(%d)" pid
      | T.W_sleep d -> Printf.sprintf "sleep-until(%d)" d
      | T.W_poll qs -> Printf.sprintf "poll(%d objects)" (List.length qs)
    in
    Fmt.pf ppf "blocked(%s%s)" c
      (match t.T.in_syscall with
      | Some ss -> ", in " ^ Sysno.name ss.T.nr
      | None -> "")

let pp_task ppf (t : T.t) =
  Fmt.pf ppf "task %d (pid %d, %s): %a@," t.T.tid t.T.proc.T.pid
    t.T.proc.T.cmd pp_state t;
  Fmt.pf ppf "  pc=%#x rcb=%d insns=%d core=%d mask=%#x@," t.T.cpu.Cpu.pc
    t.T.cpu.Cpu.pmu.Pmu.rcb t.T.cpu.Cpu.pmu.Pmu.insns t.T.cpu.Cpu.core
    t.T.sigmask;
  Fmt.pf ppf "  regs:";
  Array.iteri
    (fun i v -> if v <> 0 then Fmt.pf ppf " r%d=%#x" i v)
    t.T.cpu.Cpu.regs;
  Fmt.pf ppf "@,";
  (match A.text_get t.T.cpu.Cpu.space t.T.cpu.Cpu.pc with
  | Some insn -> Fmt.pf ppf "  insn at pc: %a@," Insn.pp insn
  | None -> Fmt.pf ppf "  no instruction at pc@,");
  if t.T.pending <> [] then
    Fmt.pf ppf "  pending: %a@," (Fmt.list ~sep:Fmt.sp Signals.pp_info) t.T.pending;
  let regions = List.length (A.regions t.T.cpu.Cpu.space) in
  Fmt.pf ppf "  space #%d: %d regions, %d pages, %d text slots@,"
    t.T.cpu.Cpu.space.A.id regions
    (A.page_count t.T.cpu.Cpu.space)
    (A.text_count t.T.cpu.Cpu.space)

let pp ppf (k : K.t) =
  Fmt.pf ppf "@[<v>=== emergency state dump (paper §6.2) ===@,";
  Fmt.pf ppf "clock=%d syscalls=%d stops=%d execs=%d stop-queue=[%a]@,"
    (K.now k) k.K.syscall_count k.K.trace_stop_count k.K.exec_count
    Fmt.(list ~sep:comma int)
    k.K.stop_queue;
  List.iter (pp_task ppf)
    (List.sort (fun a b -> compare a.T.tid b.T.tid) (K.all_tasks k));
  (* What led up to the failure: the telemetry event ring's tail. *)
  (match Telemetry.recent () with
  | [] -> ()
  | events ->
    Fmt.pf ppf "--- telemetry: last %d events ---@," (List.length events);
    List.iter (fun e -> Fmt.pf ppf "  %a@," Telemetry.pp_event e) events);
  Fmt.pf ppf "=== end dump ===@]"

let dump ?(msg = "") k =
  Fmt.str "%s%s%a" msg (if msg = "" then "" else "\n") pp k
