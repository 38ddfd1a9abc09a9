(* The simulated kernel.

   Owns tasks, processes, the VFS, channels, futexes, virtual time and the
   ptrace state machine.  Supervisors (the rr recorder and replayer, or
   the baseline multicore runner) drive it through [resume]/[wait] or
   [run_slice].

   The user/kernel interface implemented here is the recording boundary
   of the paper (§2.1): syscall results, signal timing and scheduling are
   the only nondeterministic inputs a correct recorder needs to capture.
   Consequently this module is where all of those are generated. *)

module A = Addr_space
module T = Task

let src = Logs.Src.create "kern" ~doc:"simulated kernel"

module Log = (val Logs.src_log src : Logs.LOG)

(* What one pass over the task table found (see [scan_tasks]).  Kept in
   [t] and refilled in place, so a scheduling decision allocates nothing
   per task. *)
type scan = {
  mutable runnable : T.t array; (* slots [0, n_runnable), visiting order *)
  mutable n_runnable : int;
  mutable n_live : int;
  mutable n_sleeping : int; (* live tasks blocked in W_sleep *)
  mutable next_wake : int; (* their earliest deadline *)
  mutable members : T.t array; (* [baseline_pick]'s scratch *)
}

(* The task table.  [tbl] is the authority: its [Hashtbl] visiting order
   breaks [wait]'s ties (see [wait_pick]) and orders [all_tasks], so
   every recorded schedule and the exit frames of a death scan depend on
   it.  [order] holds [tbl]'s tasks in that order, rebuilt whenever a
   task is added or removed, so a scheduling pass walks an array instead
   of running [Hashtbl.iter] and its closure over the buckets. *)
type tasks = {
  tbl : (int, T.t) Hashtbl.t;
  mutable order : T.t array;
}

type t = {
  tasks : tasks;
  procs : (int, T.process) Hashtbl.t;
  vfs : Vfs.t;
  entropy : Entropy.t;
  cost : Cost.t;
  mutable clock : int;
  mutable next_id : int;
  mutable next_space_id : int;
  mutable next_obj_id : int;
  mutable tsc : int;
  ports : (int, Chan.sock) Hashtbl.t;
  futexes : (int * int, Chan.waitq) Hashtbl.t;
  filter_registry : (int, Bpf.program) Hashtbl.t;
  perf_events : (int, Perf_event.t) Hashtbl.t;
  mutable stop_queue : int list; (* tids newly entered ptrace-stop *)
  hooks : (int, t -> T.t -> unit) Hashtbl.t;
  mutable spurious_desched_period : int; (* 0 = never *)
  mutable insns_retired : int; (* global, for stats *)
  mutable syscall_count : int;
  mutable trace_stop_count : int; (* ptrace stops delivered *)
  mutable exec_count : int; (* images loaded (spawn + execve) *)
  mutable deaths : int; (* tasks [kill_task] has killed *)
  scan : scan;
}

type wait_outcome =
  | Stopped_task of T.t * T.ptrace_stop
  | All_dead
  | Deadlocked of int list

let create ~seed () =
  { tasks = { tbl = Hashtbl.create 64; order = [||] };
    procs = Hashtbl.create 32;
    vfs = Vfs.create ();
    entropy = Entropy.create seed;
    cost = Cost.default;
    clock = 0;
    next_id = 100;
    next_space_id = 1;
    next_obj_id = 1;
    tsc = 1_000_000;
    ports = Hashtbl.create 8;
    futexes = Hashtbl.create 32;
    filter_registry = Hashtbl.create 8;
    perf_events = Hashtbl.create 8;
    stop_queue = [];
    hooks = Hashtbl.create 8;
    spurious_desched_period = 64;
    insns_retired = 0;
    syscall_count = 0;
    trace_stop_count = 0;
    exec_count = 0;
    deaths = 0;
    scan =
      { runnable = [||]; n_runnable = 0; n_live = 0; n_sleeping = 0;
        next_wake = 0; members = [||] } }

let charge k units = k.clock <- k.clock + units

let now k = k.clock

let tm_ptrace_stop = Telemetry.counter "kern.ptrace_stop"
let tm_syscall = Telemetry.counter "kern.syscall"
let tm_sched_switch = Telemetry.counter "kern.sched_switch"

let alloc_id k =
  let id = k.next_id in
  k.next_id <- id + 1;
  id

(* Allocate a specific id (replay mirrors recorded tids). *)
let reserve_id k id = if id >= k.next_id then k.next_id <- id + 1

let alloc_obj_id k =
  let id = k.next_obj_id in
  k.next_obj_id <- id + 1;
  id

let alloc_space k =
  let id = k.next_space_id in
  k.next_space_id <- id + 1;
  A.create ~id

let find_task k tid = Hashtbl.find_opt k.tasks.tbl tid

let task_exn k tid =
  match find_task k tid with
  | Some t -> t
  | None -> Fmt.invalid_arg "no such task %d" tid

(* Refill [order] in [tbl]'s visiting order.  A checkpoint restore adds
   its tasks one at a time, so this allocates the array alone. *)
let reorder ts =
  let n = Hashtbl.length ts.tbl and i = ref 0 in
  ts.order <- [||];
  Hashtbl.iter
    (fun _ t ->
      if !i = 0 then ts.order <- Array.make n t;
      ts.order.(!i) <- t;
      incr i)
    ts.tbl

let add_task k t =
  Hashtbl.replace k.tasks.tbl t.T.tid t;
  reorder k.tasks

let remove_task k tid =
  Hashtbl.remove k.tasks.tbl tid;
  reorder k.tasks

(* Last visited first, as [Hashtbl.fold] conses. *)
let all_tasks k = Array.fold_left (fun acc t -> t :: acc) [] k.tasks.order

let all_procs k = Hashtbl.fold (fun _ p acc -> p :: acc) k.procs []

let vfs k = k.vfs

let set_hook k n fn = Hashtbl.replace k.hooks n fn

let register_filter k id prog = Hashtbl.replace k.filter_registry id prog

(* The TSC advances with virtual time plus drift that user space cannot
   predict: reading it un-recorded is a real divergence. *)
let read_tsc k =
  k.tsc <- k.tsc + k.clock + Entropy.range k.entropy 1 40;
  k.tsc

let cpu_env k =
  { Cpu.rdtsc = (fun () -> read_tsc k);
    rdrand = (fun () -> Entropy.bits k.entropy) }

(* ------------------------------------------------------------------ *)
(* User-memory access with EFAULT semantics.                           *)

exception Efault

let uread k task addr len =
  ignore k;
  try A.read_bytes task.T.cpu.Cpu.space addr len
  with A.Segv _ -> raise Efault

let uwrite k task addr data =
  ignore k;
  try A.write_bytes task.T.cpu.Cpu.space addr data
  with A.Segv _ -> raise Efault

(* Copy [data] out as far as the caller's mappings allow, as Linux's
   copy_to_user does, and count the bytes written before the first
   fault.  A fault at the first byte is [Efault]. *)
let uwrite_prefix k task addr data =
  ignore k;
  match A.write_bytes task.T.cpu.Cpu.space addr data with
  | () -> Bytes.length data
  | exception A.Segv { addr = at; _ } ->
    if at = addr then raise Efault else at - addr

(* Whether a syscall's whole output [addr, addr + len) is mapped
   writable.  stat, pipe and getcwd check it before any effect, so one
   that would fault returns -EFAULT having written and changed
   nothing. *)
let uwritable task addr len = A.writable task.T.cpu.Cpu.space addr len

let uread_u64 k task addr =
  ignore k;
  try A.read_u64 task.T.cpu.Cpu.space addr with A.Segv _ -> raise Efault

(* A u64 output is all-or-nothing: one that would straddle into an
   unwritable page is [Efault] before any byte lands, so a negative
   result leaves no bytes for the recorder to miss. *)
let uwrite_u64 k task addr v =
  ignore k;
  if not (uwritable task addr 8) then raise Efault;
  try A.write_u64 task.T.cpu.Cpu.space addr v with A.Segv _ -> raise Efault

(* ------------------------------------------------------------------ *)
(* Ptrace-stop plumbing.                                               *)

let enter_stop k task stop =
  assert task.T.traced;
  task.T.state <- T.Stopped;
  task.T.last_stop <- Some stop;
  k.trace_stop_count <- k.trace_stop_count + 1;
  Telemetry.incr tm_ptrace_stop;
  Timeline.instant ~lane:task.T.tid "kern.ptrace_stop";
  charge k (Cost.ptrace_stop k.cost);
  k.stop_queue <- k.stop_queue @ [ task.T.tid ]

(* ------------------------------------------------------------------ *)
(* Wait queues and blocking.                                           *)

let waitq_of_cond k = function
  | T.W_pipe_read p -> Some p.Chan.read_wait
  | T.W_pipe_write p -> Some p.Chan.write_wait
  | T.W_sock_read s -> Some s.Chan.sock_wait
  | T.W_futex (sid, addr) -> (
    match Hashtbl.find_opt k.futexes (sid, addr) with
    | Some q -> Some q
    | None ->
      let q = Chan.waitq () in
      Hashtbl.replace k.futexes (sid, addr) q;
      Some q)
  | T.W_child pid -> (
    match Hashtbl.find_opt k.procs pid with
    | Some parent -> Some parent.T.child_wait
    | None -> None)
  | T.W_sleep _ -> None
  | T.W_poll _ -> None (* handled by the multi-queue paths below *)

let wake_task k task =
  match task.T.state with
  | T.Blocked cond ->
    (match cond with
    | T.W_poll queues -> List.iter (fun q -> Chan.dequeue q task.T.tid) queues
    | T.W_pipe_read _ | T.W_pipe_write _ | T.W_sock_read _ | T.W_futex _
    | T.W_child _ | T.W_sleep _ -> (
      match waitq_of_cond k cond with
      | Some q -> Chan.dequeue q task.T.tid
      | None -> ()));
    (* The waking event happened "now": the task cannot run on any core
       at an earlier virtual time. *)
    task.T.last_wake <- k.clock;
    task.T.state <- T.Runnable
  | T.Runnable | T.Stopped | T.Dead -> ()

let wake_queue k q =
  List.iter
    (fun tid -> match find_task k tid with Some t -> wake_task k t | None -> ())
    (Chan.take_all q)

let wake_queue_n k q n =
  let woken = ref 0 in
  let rec loop () =
    if !woken < n then
      match q.Chan.waiters with
      | [] -> ()
      | tid :: rest ->
        q.Chan.waiters <- rest;
        (match find_task k tid with
        | Some t ->
          wake_task k t;
          incr woken
        | None -> ());
        loop ()
  in
  loop ();
  !woken

(* ------------------------------------------------------------------ *)
(* Signal machinery.                                                   *)

let sigframe_words = 18 (* 16 regs + pc + mask *)

(* Interrupt a task blocked in a syscall: the syscall result becomes the
   restart sentinel and the syscall is remembered for the kernel restart
   machinery (paper §2.3.10). *)
let interrupt_blocked_syscall k task =
  match task.T.state with
  | T.Blocked _ -> (
    wake_task k task;
    match task.T.in_syscall with
    | Some ss ->
      task.T.in_syscall <- None;
      task.T.cpu.Cpu.regs.(0) <- -Errno.erestartsys;
      task.T.restart <- Some ss;
      task.T.restart_wanted <- true;
      (* Linux delivers the syscall-exit-stop (with the restart sentinel)
         before the signal-delivery-stop. *)
      if task.T.traced && task.T.want_exit_stop then begin
        task.T.want_exit_stop <- false;
        enter_stop k task (T.Stop_syscall_exit (ss, -Errno.erestartsys))
      end
    | None -> ())
  | T.Runnable | T.Stopped | T.Dead -> ()

let deliverable task info =
  info.Signals.signo = Signals.sigkill
  || not (Signals.mem task.T.sigmask info.Signals.signo)

let has_deliverable_signal task =
  List.exists (deliverable task) task.T.pending
  || List.exists (deliverable task) task.T.proc.T.shared_pending

(* Remove and return the next deliverable signal, task-directed first. *)
let take_signal task =
  let rec split acc = function
    | [] -> None
    | i :: rest ->
      if deliverable task i then Some (i, List.rev_append acc rest)
      else split (i :: acc) rest
  in
  match split [] task.T.pending with
  | Some (i, rest) ->
    task.T.pending <- rest;
    Some i
  | None -> (
    match split [] task.T.proc.T.shared_pending with
    | Some (i, rest) ->
      task.T.proc.T.shared_pending <- rest;
      Some i
    | None -> None)

let rec post_signal k task info =
  if T.is_alive task then begin
    task.T.pending <- task.T.pending @ [ info ];
    if deliverable task info then begin
      (match task.T.state with
      | T.Blocked _ -> interrupt_blocked_syscall k task
      | T.Runnable | T.Stopped | T.Dead -> ());
      Pmu.add_noise task.T.cpu.Cpu.pmu k.entropy
    end
  end

and post_process_signal k proc info =
  (* Process-directed: any thread with the signal unmasked may take it. *)
  let threads = List.filter_map (find_task k) proc.T.threads in
  let live = List.filter T.is_alive threads in
  match List.find_opt (fun t -> deliverable t info) live with
  | Some t -> post_signal k t info
  | None -> proc.T.shared_pending <- proc.T.shared_pending @ [ info ]

(* Process death: mark every thread dead, release resources, notify the
   parent. *)
and kill_process k proc status =
  if proc.T.exit_code = None then begin
    proc.T.exit_code <- Some status;
    List.iter
      (fun tid ->
        match find_task k tid with
        | Some t when T.is_alive t -> kill_task k t status
        | Some _ | None -> ())
      proc.T.threads
  end

and kill_task k task status =
  (match task.T.state with
  | T.Blocked _ -> wake_task k task
  | T.Runnable | T.Stopped | T.Dead -> ());
  task.T.state <- T.Dead;
  task.T.exit_status <- status;
  k.deaths <- k.deaths + 1;
  k.stop_queue <- List.filter (fun tid -> tid <> task.T.tid) k.stop_queue;
  let proc = task.T.proc in
  let alive_siblings =
    List.exists
      (fun tid ->
        match find_task k tid with Some t -> T.is_alive t | None -> false)
      proc.T.threads
  in
  if not alive_siblings then begin
    if proc.T.exit_code = None then proc.T.exit_code <- Some status;
    (* Close the process's fds: drop pipe-end refcounts and wake peers. *)
    Hashtbl.iter (fun _ e -> close_fd_entry k e) proc.T.fdtab.T.fds;
    Hashtbl.reset proc.T.fdtab.T.fds;
    A.release proc.T.space;
    (match Hashtbl.find_opt k.procs proc.T.parent with
    | Some parent ->
      wake_queue k parent.T.child_wait;
      post_process_signal k parent
        (Signals.make_info Signals.sigchld (Signals.User task.T.tid))
    | None -> ())
  end

and close_fd_entry k e =
  match e.T.obj with
  | T.F_pipe_r p ->
    p.Chan.readers <- p.Chan.readers - 1;
    if p.Chan.readers = 0 then wake_queue k p.Chan.write_wait
  | T.F_pipe_w p ->
    p.Chan.writers <- p.Chan.writers - 1;
    if p.Chan.writers = 0 then wake_queue k p.Chan.read_wait
  | T.F_sock s -> (
    match s.Chan.port with
    | Some port -> Hashtbl.remove k.ports port
    | None -> ())
  | T.F_perf ev -> Perf_event.disable ev
  | T.F_reg _ -> ()

(* Linux's syscall-restart mechanism (paper §2.3.10): back the program
   counter up to the instruction that issued the syscall and restore the
   syscall-number register, so it re-executes — visibly to a ptrace
   supervisor, which sees a brand-new syscall entry.  The rewind targets
   [pc - 1], not [ss.site]: a syscall issued by the interception library
   (through the RR page's untraced or traced-fallback instruction) has a
   synthetic [ss.site] with no stub continuation after it — the
   instruction to re-execute is the patched hook the program ran. *)
let restart_by_rewind task =
  if task.T.restart_wanted then
    match task.T.restart with
    | Some ss ->
      task.T.cpu.Cpu.pc <- task.T.cpu.Cpu.pc - 1;
      task.T.cpu.Cpu.regs.(0) <- ss.T.nr;
      task.T.restart <- None;
      task.T.restart_wanted <- false
    | None -> task.T.restart_wanted <- false

(* Really deliver a signal to user space: run the handler, or apply the
   default disposition.  [forced] marks synchronous faults, which are
   fatal when masked or ignored (paper §2.3.9's quirky edge case). *)
let really_deliver k task info =
  let signo = info.Signals.signo in
  let action = task.T.proc.T.sighand.(signo) in
  let forced = info.Signals.origin = Signals.Fault in
  let blocked = Signals.mem task.T.sigmask signo in
  match action.Signals.disposition with
  | Signals.Handler h when not blocked ->
    (* Decide restart-vs-EINTR before building the frame, so sigreturn
       restores the right syscall result. *)
    if task.T.restart_wanted then
      if action.Signals.flags land Signals.sa_restart = 0 then begin
        task.T.cpu.Cpu.regs.(0) <- -Errno.eintr;
        task.T.restart_wanted <- false;
        task.T.restart <- None
      end;
    let cpu = task.T.cpu in
    let frame_base = cpu.Cpu.regs.(Insn.reg_sp) - (sigframe_words * 8) in
    (try
       for i = 0 to 15 do
         A.write_u64 cpu.Cpu.space (frame_base + (8 * i)) cpu.Cpu.regs.(i)
       done;
       A.write_u64 cpu.Cpu.space (frame_base + 128) cpu.Cpu.pc;
       A.write_u64 cpu.Cpu.space (frame_base + 136) task.T.sigmask;
       cpu.Cpu.regs.(Insn.reg_sp) <- frame_base;
       cpu.Cpu.regs.(1) <- signo;
       cpu.Cpu.regs.(2) <- frame_base;
       cpu.Cpu.pc <- h;
       let extra =
         if action.Signals.flags land Signals.sa_nodefer <> 0 then
           action.Signals.mask
         else Signals.add action.Signals.mask signo
       in
       task.T.sigmask <- Signals.union task.T.sigmask extra;
       if action.Signals.flags land Signals.sa_resethand <> 0 then
         task.T.proc.T.sighand.(signo) <- Signals.default_action;
       task.T.sig_frames <- frame_base :: task.T.sig_frames;
       (* Entering the handler abandons the restart until sigreturn. *)
       task.T.restart_wanted <- false
     with A.Segv _ ->
       (* Can't build the frame: fatal, like a stack overflow. *)
       kill_process k task.T.proc (256 + Signals.sigsegv))
  | Signals.Handler _ (* blocked: only reachable for forced faults *) ->
    kill_process k task.T.proc (256 + signo)
  | Signals.Ignore ->
    if forced then kill_process k task.T.proc (256 + signo)
    else restart_by_rewind task
  | Signals.Default -> (
    match Signals.default_effect signo with
    | Signals.Term -> kill_process k task.T.proc (256 + signo)
    | Signals.Ign -> restart_by_rewind task
    | Signals.Stop | Signals.Cont -> () (* group-stop: not modeled *))

(* Check for pending signals before returning to user code.  For traced
   tasks this produces the signal-delivery-stop; the supervisor decides
   the signal's fate at resume.  Returns true when the task stopped or
   died. *)
let check_signals k task =
  if not (T.is_alive task) then true
  else if not (has_deliverable_signal task) then false
  else
    match take_signal task with
    | None -> false
    | Some info ->
      if task.T.traced then begin
        enter_stop k task (T.Stop_signal info);
        true
      end
      else begin
        really_deliver k task info;
        not (T.is_alive task) || task.T.state <> T.Runnable
      end

(* ------------------------------------------------------------------ *)
(* Syscall implementation.                                             *)

type outcome =
  | Done of int (* result value; negative = -errno *)
  | Block of T.wait_cond
  | Divert (* control flow already handled (exit, exec, sigreturn) *)

let vfs_result f = try Done (f ()) with Vfs.Error e -> Done (-e)

(* Read a NUL-terminated guest string (capped). *)
let uread_str k task addr =
  let buf = Buffer.create 32 in
  let rec loop a =
    let byte = Bytes.get (uread k task a 1) 0 in
    if byte = '\000' then Buffer.contents buf
    else begin
      Buffer.add_char buf byte;
      if Buffer.length buf > 4096 then raise Efault else loop (a + 1)
    end
  in
  loop addr

let abs_path task path =
  if String.length path > 0 && path.[0] = '/' then path
  else task.T.proc.T.cwd ^ "/" ^ path

let fd_or_ebadf task fd f =
  match T.find_fd task fd with None -> Done (-Errno.ebadf) | Some e -> f e

(* read(2).  A copy-out that faults part way returns the bytes it
   delivered, and the file position or the pipe moves by that many; one
   that faults at its first byte is -EFAULT and consumes nothing.  A
   datagram is taken whole, so a fault there drops it with -EFAULT, as
   Linux's UDP receive does. *)
let sys_read k task args =
  let fd = args.(0) and buf = args.(1) and len = args.(2) in
  if len < 0 then Done (-Errno.einval)
  else
    fd_or_ebadf task fd (fun e ->
        match e.T.obj with
        | T.F_reg { reg; _ } ->
          let n =
            uwrite_prefix k task buf (Vfs.read k.vfs reg ~off:e.T.pos ~len)
          in
          e.T.pos <- e.T.pos + n;
          charge k (Cost.bytes_cost k.cost n);
          Done n
        | T.F_pipe_r p ->
          if Chan.pipe_readable p then begin
            if Buffer.length p.Chan.buf = 0 then Done 0 (* EOF: no writers *)
            else begin
              let n = uwrite_prefix k task buf (Chan.pipe_peek p len) in
              Chan.pipe_drop p n;
              wake_queue k p.Chan.write_wait;
              charge k (Cost.bytes_cost k.cost n);
              Done n
            end
          end
          else if e.T.fl land Sysno.o_nonblock <> 0 then Done (-Errno.eagain)
          else Block (T.W_pipe_read p)
        | T.F_sock s ->
          if Chan.sock_readable s then begin
            let dg = Chan.sock_take s in
            let n = min len (Bytes.length dg.Chan.payload) in
            uwrite k task buf (Bytes.sub dg.Chan.payload 0 n);
            charge k (Cost.bytes_cost k.cost n);
            Done n
          end
          else if e.T.fl land Sysno.o_nonblock <> 0 then Done (-Errno.eagain)
          else Block (T.W_sock_read s)
        | T.F_pipe_w _ | T.F_perf _ -> Done (-Errno.einval))

(* write(2) *)
let sys_write k task args =
  let fd = args.(0) and buf = args.(1) and len = args.(2) in
  if len < 0 then Done (-Errno.einval)
  else
    fd_or_ebadf task fd (fun e ->
        match e.T.obj with
        | T.F_reg { reg; _ } ->
          let data = uread k task buf len in
          let off =
            if e.T.fl land Sysno.o_append <> 0 then Vfs.file_size reg
            else e.T.pos
          in
          let n = Vfs.write k.vfs reg ~off data in
          e.T.pos <- off + n;
          charge k (Cost.bytes_cost k.cost n);
          Done n
        | T.F_pipe_w p ->
          if p.Chan.readers = 0 then begin
            post_signal k task
              (Signals.make_info Signals.sigpipe (Signals.User task.T.tid));
            Done (-Errno.epipe)
          end
          else if Chan.pipe_writable p then begin
            let data = uread k task buf len in
            let n = Chan.pipe_write p data in
            wake_queue k p.Chan.read_wait;
            charge k (Cost.bytes_cost k.cost n);
            Done n
          end
          else if e.T.fl land Sysno.o_nonblock <> 0 then Done (-Errno.eagain)
          else Block (T.W_pipe_write p)
        | T.F_sock _ | T.F_pipe_r _ | T.F_perf _ -> Done (-Errno.einval))

let sys_openat k task args =
  let path = abs_path task (uread_str k task args.(1)) in
  let flags = args.(2) in
  charge k k.cost.Cost.open_cost;
  vfs_result (fun () ->
      let reg =
        Vfs.open_file k.vfs path
          ~creat:(flags land Sysno.o_creat <> 0)
          ~trunc:(flags land Sysno.o_trunc <> 0)
      in
      T.add_fd task (T.F_reg { reg; path }) ~fl:flags)

let sys_stat k task args =
  let path = abs_path task (uread_str k task args.(0)) in
  let buf = args.(1) in
  charge k k.cost.Cost.stat_cost;
  vfs_result (fun () ->
      let node = Vfs.resolve k.vfs path in
      let size, blocks =
        match node.Vfs.kind with
        | Vfs.Reg r ->
          (Vfs.file_size r, (Vfs.file_size r + Vfs.block_size - 1) / Vfs.block_size)
        | Vfs.Dir _ -> (0, 0)
      in
      if not (uwritable task buf 32) then -Errno.efault
      else begin
        uwrite_u64 k task buf size;
        uwrite_u64 k task (buf + 8) node.Vfs.ino;
        uwrite_u64 k task (buf + 16) node.Vfs.nlink;
        uwrite_u64 k task (buf + 24) blocks;
        0
      end)

let sys_lseek _k task args =
  fd_or_ebadf task args.(0) (fun e ->
      match e.T.obj with
      | T.F_reg { reg; _ } ->
        let base =
          if args.(2) = Sysno.seek_set then 0
          else if args.(2) = Sysno.seek_cur then e.T.pos
          else Vfs.file_size reg
        in
        let pos = base + args.(1) in
        if pos < 0 then Done (-Errno.einval)
        else begin
          e.T.pos <- pos;
          Done pos
        end
      | T.F_pipe_r _ | T.F_pipe_w _ | T.F_sock _ | T.F_perf _ ->
        Done (-Errno.espipe))

(* mmap flags (simulator-local encoding) *)
let map_anon = 1
let map_shared = 2
let map_fixed = 4

let sys_mmap k task args =
  let addr = args.(0)
  and len = args.(1)
  and prot = args.(2)
  and flags = args.(3)
  and fd = args.(4)
  and off = args.(5) in
  if len <= 0 then Done (-Errno.einval)
  else begin
    let space = task.T.cpu.Cpu.space in
    let shared = flags land map_shared <> 0 in
    let base =
      if flags land map_fixed <> 0 then addr else A.find_map_addr space len
    in
    let npages = (len + Mem.page_size - 1) / Mem.page_size in
    charge k (npages * k.cost.Cost.mmap_page);
    try
      if flags land map_anon <> 0 then
        Done (A.map space ~addr:base ~len ~prot ~shared ())
      else
        fd_or_ebadf task fd (fun e ->
            match e.T.obj with
            | T.F_reg { reg; path } ->
              let a =
                A.map space ~addr:base ~len ~prot ~shared
                  ~kind:(A.File_backed { path; file_off = off })
                  ()
              in
              let data = Vfs.read k.vfs reg ~off ~len in
              A.write_bytes ~force:true space a data;
              charge k (Cost.bytes_cost k.cost (Bytes.length data));
              Done a
            | T.F_pipe_r _ | T.F_pipe_w _ | T.F_sock _ | T.F_perf _ ->
              Done (-Errno.ebadf))
    with Invalid_argument _ -> Done (-Errno.einval)
  end

let sys_munmap _k task args =
  let space = task.T.cpu.Cpu.space in
  A.unmap space ~addr:args.(0) ~len:args.(1);
  Done 0

let sys_mprotect _k task args =
  A.protect task.T.cpu.Cpu.space ~addr:args.(0) ~len:args.(1) ~prot:args.(2);
  Done 0

let sys_futex k task args =
  let addr = args.(0) and op = args.(1) and v = args.(2) in
  charge k k.cost.Cost.futex_cost;
  if op = Sysno.futex_wait then begin
    let cur = uread_u64 k task addr in
    if cur <> v then Done (-Errno.eagain)
    else Block (T.W_futex (task.T.cpu.Cpu.space.A.id, addr))
  end
  else if op = Sysno.futex_wake then begin
    let key = (task.T.cpu.Cpu.space.A.id, addr) in
    match Hashtbl.find_opt k.futexes key with
    | None -> Done 0
    | Some q -> Done (wake_queue_n k q v)
  end
  else Done (-Errno.einval)

(* An fds array that would fault opens nothing, as Linux's pipe2
   releases both ends when its copy-out fails. *)
let sys_pipe k task args =
  if not (uwritable task args.(0) 16) then Done (-Errno.efault)
  else begin
    let p = Chan.make_pipe ~id:(alloc_obj_id k) () in
    let rfd = T.add_fd task (T.F_pipe_r p) ~fl:0 in
    let wfd = T.add_fd task (T.F_pipe_w p) ~fl:0 in
    uwrite_u64 k task args.(0) rfd;
    uwrite_u64 k task (args.(0) + 8) wfd;
    Done 0
  end

let sys_nanosleep k _task args =
  (* args.(5) caches the absolute deadline across re-attempts after
     wakeups, mirroring how Linux keeps restart state in the kernel. *)
  if args.(5) = 0 then args.(5) <- now k + max 0 args.(0);
  if now k >= args.(5) then Done 0 else Block (T.W_sleep args.(5))

let sys_kill k task args =
  let pid = args.(0) and signo = args.(1) in
  match Hashtbl.find_opt k.procs pid with
  | None -> Done (-Errno.esrch)
  | Some proc ->
    if signo <> 0 then
      post_process_signal k proc
        (Signals.make_info signo (Signals.User task.T.tid));
    Done 0

let sys_tgkill k task args =
  let tid = args.(1) and signo = args.(2) in
  match find_task k tid with
  | None -> Done (-Errno.esrch)
  | Some target ->
    if signo <> 0 then
      post_signal k target (Signals.make_info signo (Signals.User task.T.tid));
    Done 0

let sys_rt_sigaction _k task args =
  let signo = args.(0) in
  if signo < 1 || signo > Signals.max_signal || signo = Signals.sigkill then
    Done (-Errno.einval)
  else begin
    let disposition =
      if args.(1) = 0 then Signals.Default
      else if args.(1) = 1 then Signals.Ignore
      else Signals.Handler args.(1)
    in
    task.T.proc.T.sighand.(signo) <-
      { Signals.disposition; mask = args.(2); flags = args.(3) };
    Done 0
  end

let sys_rt_sigprocmask k task args =
  let how = args.(0) and set = args.(1) and old_addr = args.(2) in
  if old_addr <> 0 then uwrite_u64 k task old_addr task.T.sigmask;
  let protected = Signals.add Signals.empty_set Signals.sigkill in
  let set = set land lnot protected in
  (if how = Signals.sig_block then
     task.T.sigmask <- Signals.union task.T.sigmask set
   else if how = Signals.sig_unblock then
     task.T.sigmask <- task.T.sigmask land lnot set
   else task.T.sigmask <- set);
  Done 0

let sys_rt_sigreturn k task _args =
  match task.T.sig_frames with
  | [] ->
    kill_process k task.T.proc (256 + Signals.sigsegv);
    Divert
  | frame :: rest -> (
    task.T.sig_frames <- rest;
    let cpu = task.T.cpu in
    try
      for i = 0 to 15 do
        cpu.Cpu.regs.(i) <- A.read_u64 cpu.Cpu.space (frame + (8 * i))
      done;
      cpu.Cpu.pc <- A.read_u64 cpu.Cpu.space (frame + 128);
      task.T.sigmask <- A.read_u64 cpu.Cpu.space (frame + 136);
      cpu.Cpu.regs.(Insn.reg_sp) <- frame + (sigframe_words * 8);
      (* Kernel restart machinery (paper §2.3.10): rewind to the
         instruction that issued the syscall so it re-executes.  As in
         [restart_by_rewind], the target is the pc the frame saved minus
         one — for a hook-issued syscall that is the patched site, not
         the RR page's synthetic [ss.site]. *)
      (if cpu.Cpu.regs.(0) = -Errno.erestartsys then
         match task.T.restart with
         | Some ss ->
           cpu.Cpu.pc <- cpu.Cpu.pc - 1;
           cpu.Cpu.regs.(0) <- ss.T.nr;
           task.T.restart <- None
         | None -> ());
      Divert
    with A.Segv _ ->
      kill_process k task.T.proc (256 + Signals.sigsegv);
      Divert)

(* getrandom(2).  Like read, a copy-out that faults part way returns
   the bytes it delivered, and one that faults at its first byte is
   -EFAULT. *)
let sys_getrandom k task args =
  let buf = args.(0) and len = args.(1) in
  let data = Bytes.init (max 0 len) (fun _ -> Char.chr (Entropy.byte k.entropy)) in
  let n = uwrite_prefix k task buf data in
  charge k (Cost.bytes_cost k.cost n);
  Done n

let sys_sched_setaffinity k task args =
  let tid = args.(0) and core = args.(1) in
  let target = if tid = 0 then Some task else find_task k tid in
  match target with
  | None -> Done (-Errno.esrch)
  | Some t ->
    t.T.affinity <- core;
    Done 0

let sys_prctl _k task args =
  if args.(0) = Sysno.pr_set_tsc then begin
    task.T.cpu.Cpu.tsc_trap <- args.(1) = Sysno.pr_tsc_sigsegv;
    Done 0
  end
  else Done (-Errno.einval)

let sys_seccomp k task args =
  if args.(0) <> Sysno.seccomp_set_mode_filter then Done (-Errno.einval)
  else
    match Hashtbl.find_opt k.filter_registry args.(2) with
    | None -> Done (-Errno.einval)
    | Some prog ->
      task.T.seccomp <- prog :: task.T.seccomp;
      Done 0

let sys_perf_event_open k task args =
  let kind = args.(0) and tid = args.(1) and signo = args.(2) in
  if kind <> 0 then Done (-Errno.einval)
  else
    let target = if tid = 0 then task.T.tid else tid in
    let ev = Perf_event.create ~id:(alloc_obj_id k) ~target_tid:target
        Perf_event.Context_switches
    in
    if signo <> 0 then Perf_event.set_signal ev signo;
    Hashtbl.replace k.perf_events ev.Perf_event.id ev;
    Done (T.add_fd task (T.F_perf ev) ~fl:0)

let sys_ioctl k task args =
  fd_or_ebadf task args.(0) (fun e ->
      match (e.T.obj, args.(1)) with
      | T.F_perf ev, req when req = Sysno.perf_ioc_enable ->
        Perf_event.enable ev;
        (match find_task k ev.Perf_event.target_tid with
        | Some t -> t.T.desched <- Some ev
        | None -> ());
        Done 0
      | T.F_perf ev, req when req = Sysno.perf_ioc_disable ->
        Perf_event.disable ev;
        Done 0
      | T.F_reg { reg = dst; _ }, req when req = Sysno.ficlone ->
        fd_or_ebadf task args.(2) (fun src_e ->
            match src_e.T.obj with
            | T.F_reg { reg = src; _ } ->
              charge k
                (k.cost.Cost.clone_block
                * ((Vfs.file_size src / Vfs.block_size) + 1));
              ignore
                (Vfs.clone_range k.vfs ~src ~src_off:0 ~dst ~dst_off:0
                   ~len:(Vfs.file_size src));
              Done 0
            | T.F_pipe_r _ | T.F_pipe_w _ | T.F_sock _ | T.F_perf _ ->
              Done (-Errno.ebadf))
      | (T.F_reg _ | T.F_pipe_r _ | T.F_pipe_w _ | T.F_sock _ | T.F_perf _), _
        ->
        (* Unknown ioctl: the recorder's syscall model rejects these
           loudly (paper §2.3.6); the kernel itself just says EINVAL. *)
        Done (-Errno.einval))

let sys_socket k task _args =
  let s = Chan.make_sock ~id:(alloc_obj_id k) in
  Done (T.add_fd task (T.F_sock s) ~fl:0)

let sys_bind k task args =
  fd_or_ebadf task args.(0) (fun e ->
      match e.T.obj with
      | T.F_sock s ->
        let port = args.(1) in
        if Hashtbl.mem k.ports port then Done (-Errno.eaddrinuse)
        else begin
          s.Chan.port <- Some port;
          Hashtbl.replace k.ports port s;
          Done 0
        end
      | T.F_reg _ | T.F_pipe_r _ | T.F_pipe_w _ | T.F_perf _ ->
        Done (-Errno.ebadf))

let sys_sendto k task args =
  fd_or_ebadf task args.(0) (fun e ->
      match e.T.obj with
      | T.F_sock s -> (
        let buf = args.(1) and len = args.(2) and port = args.(3) in
        match Hashtbl.find_opt k.ports port with
        | None -> Done (-Errno.econnrefused)
        | Some dst ->
          let payload = uread k task buf len in
          let src_port = match s.Chan.port with Some p -> p | None -> 0 in
          Chan.sock_deliver dst { Chan.payload; src_port };
          wake_queue k dst.Chan.sock_wait;
          charge k (Cost.bytes_cost k.cost len);
          Done len)
      | T.F_reg _ | T.F_pipe_r _ | T.F_pipe_w _ | T.F_perf _ ->
        Done (-Errno.ebadf))

(* The payload and the address slot are all-or-nothing: one that
   would fault is -EFAULT before any byte lands, and the datagram stays
   queued, so a negative result leaves no effect for the recorder to
   miss. *)
let sys_recvfrom k task args =
  fd_or_ebadf task args.(0) (fun e ->
      match e.T.obj with
      | T.F_sock s ->
        if Chan.sock_readable s then begin
          let dg = Queue.peek s.Chan.rx in
          let n = min args.(2) (Bytes.length dg.Chan.payload) in
          if
            not
              (uwritable task args.(1) n
              && (args.(3) = 0 || uwritable task args.(3) 8))
          then Done (-Errno.efault)
          else begin
            ignore (Chan.sock_take s);
            uwrite k task args.(1) (Bytes.sub dg.Chan.payload 0 n);
            if args.(3) <> 0 then uwrite_u64 k task args.(3) dg.Chan.src_port;
            charge k (Cost.bytes_cost k.cost n);
            Done n
          end
        end
        else if e.T.fl land Sysno.o_nonblock <> 0 then Done (-Errno.eagain)
        else Block (T.W_sock_read s)
      | T.F_reg _ | T.F_pipe_r _ | T.F_pipe_w _ | T.F_perf _ ->
        Done (-Errno.ebadf))

let sys_dup _k task args =
  fd_or_ebadf task args.(0) (fun e ->
      (match e.T.obj with
      | T.F_pipe_r p -> p.Chan.readers <- p.Chan.readers + 1
      | T.F_pipe_w p -> p.Chan.writers <- p.Chan.writers + 1
      | T.F_reg _ | T.F_sock _ | T.F_perf _ -> ());
      let tab = task.T.proc.T.fdtab in
      let rec lowest fd =
        if Hashtbl.mem tab.T.fds fd then lowest (fd + 1) else fd
      in
      let fd = lowest 3 in
      if fd >= tab.T.next_fd then tab.T.next_fd <- fd + 1;
      Hashtbl.replace tab.T.fds fd e;
      Done fd)

let sys_close k task args =
  fd_or_ebadf task args.(0) (fun e ->
      close_fd_entry k e;
      T.remove_fd task args.(0);
      Done 0)

let sys_getcwd k task args =
  let cwd = task.T.proc.T.cwd in
  let len = String.length cwd + 1 in
  if len > args.(1) then Done (-Errno.erange)
  else if not (uwritable task args.(0) len) then Done (-Errno.efault)
  else begin
    uwrite k task args.(0) (Bytes.of_string (cwd ^ "\000"));
    Done len
  end

let sys_chdir k task args =
  let path = abs_path task (uread_str k task args.(0)) in
  vfs_result (fun () ->
      match (Vfs.resolve k.vfs path).Vfs.kind with
      | Vfs.Dir _ ->
        task.T.proc.T.cwd <- path;
        0
      | Vfs.Reg _ -> -Errno.enotdir)

(* ------------------------------------------------------------------ *)
(* Process lifecycle: clone / execve / exit / wait4.                   *)

(* Create a child task.  Used by the clone syscall and, with [?tid], by
   the replayer to mirror recorded tids. *)
let do_clone k parent ~flags ~child_sp ?tid () =
  charge k k.cost.Cost.fork_cost;
  let tid =
    match tid with
    | Some t ->
      reserve_id k t;
      t
    | None -> alloc_id k
  in
  let thread = flags land Sysno.clone_thread <> 0 in
  let proc =
    if thread then parent.T.proc
    else begin
      let space = A.fork parent.T.proc.T.space ~id:k.next_space_id in
      k.next_space_id <- k.next_space_id + 1;
      let p = T.make_process ~pid:tid ~parent:parent.T.proc.T.pid ~space in
      p.T.fdtab <- T.fdtab_copy parent.T.proc.T.fdtab;
      (* fork duplicates every fd: bump pipe end refcounts *)
      Hashtbl.iter
        (fun _ e ->
          match e.T.obj with
          | T.F_pipe_r pi -> pi.Chan.readers <- pi.Chan.readers + 1
          | T.F_pipe_w pi -> pi.Chan.writers <- pi.Chan.writers + 1
          | T.F_reg _ | T.F_sock _ | T.F_perf _ -> ())
        p.T.fdtab.T.fds;
      Array.blit parent.T.proc.T.sighand 0 p.T.sighand 0
        (Array.length p.T.sighand);
      p.T.cwd <- parent.T.proc.T.cwd;
      p.T.cmd <- parent.T.proc.T.cmd;
      parent.T.proc.T.children <- tid :: parent.T.proc.T.children;
      Hashtbl.replace k.procs tid p;
      p
    end
  in
  let cpu = Cpu.create ~space:proc.T.space in
  Array.blit parent.T.cpu.Cpu.regs 0 cpu.Cpu.regs 0 Insn.num_regs;
  cpu.Cpu.pc <- parent.T.cpu.Cpu.pc;
  cpu.Cpu.tsc_trap <- parent.T.cpu.Cpu.tsc_trap;
  cpu.Cpu.regs.(0) <- 0;
  if child_sp <> 0 then cpu.Cpu.regs.(Insn.reg_sp) <- child_sp;
  let child = T.make_task ~tid ~proc ~cpu in
  child.T.sigmask <- parent.T.sigmask;
  child.T.affinity <- parent.T.affinity;
  child.T.priority <- parent.T.priority;
  child.T.seccomp <- parent.T.seccomp;
  child.T.vdso_enabled <- parent.T.vdso_enabled;
  child.T.tick_born <- now k;
  proc.T.threads <- proc.T.threads @ [ tid ];
  add_task k child;
  if parent.T.traced then begin
    (* Auto-attach, like rr's PTRACE_O_TRACECLONE: the child is born in a
       ptrace-stop so the recorder can set it up before it runs. *)
    child.T.traced <- true;
    enter_stop k child (T.Stop_clone parent.T.tid)
  end;
  child

let sys_clone k task args =
  let child = do_clone k task ~flags:args.(0) ~child_sp:args.(1) () in
  Done child.T.tid

(* Replace the process image.  Returns an errno on failure; on success
   control does not return to the old program. *)
let do_execve k task path =
  match Vfs.resolve_opt k.vfs path with
  | None -> Some Errno.enoent
  | Some node -> (
    match node.Vfs.kind with
    | Vfs.Dir _ -> Some Errno.eisdir
    | Vfs.Reg reg -> (
      match Vfs.get_image reg with
      | None -> Some Errno.eacces
      | Some img ->
        charge k k.cost.Cost.exec_cost;
        k.exec_count <- k.exec_count + 1;
        (* Other threads are destroyed by exec. *)
        List.iter
          (fun tid ->
            if tid <> task.T.tid then
              match find_task k tid with
              | Some t when T.is_alive t -> kill_task k t 0
              | Some _ | None -> ())
          task.T.proc.T.threads;
        task.T.proc.T.threads <- [ task.T.tid ];
        A.release task.T.proc.T.space;
        let space = alloc_space k in
        Image.load img space;
        task.T.proc.T.space <- space;
        task.T.cpu.Cpu.space <- space;
        Array.fill task.T.cpu.Cpu.regs 0 Insn.num_regs 0;
        task.T.cpu.Cpu.regs.(Insn.reg_sp) <- A.stack_top;
        task.T.cpu.Cpu.pc <- img.Image.entry;
        Array.fill task.T.proc.T.sighand 0
          (Array.length task.T.proc.T.sighand)
          Signals.default_action;
        task.T.sig_frames <- [];
        task.T.pending <- [];
        task.T.restart <- None;
        task.T.restart_wanted <- false;
        task.T.vdso_enabled <- true;
        task.T.proc.T.cmd <- img.Image.name;
        None))

let sys_execve k task args =
  let path = abs_path task (uread_str k task args.(0)) in
  match do_execve k task path with
  | Some e -> Done (-e)
  | None ->
    if task.T.traced then enter_stop k task T.Stop_exec;
    Divert

let sys_exit k task args ~group =
  let status = args.(0) land 0xff in
  if task.T.traced then begin
    task.T.exit_status <- status;
    task.T.exit_is_group <- group;
    enter_stop k task (T.Stop_exit status);
    Divert
  end
  else begin
    if group then kill_process k task.T.proc status
    else kill_task k task status;
    Divert
  end

let wnohang = 1

let sys_wait4 k task args =
  let want_pid = args.(0) and status_addr = args.(1) and options = args.(2) in
  let proc = task.T.proc in
  let candidates =
    List.filter_map (Hashtbl.find_opt k.procs) proc.T.children
  in
  let matching =
    List.filter
      (fun c -> want_pid = -1 || c.T.pid = want_pid)
      candidates
  in
  if matching = [] then Done (-Errno.echild)
  else
    match
      List.find_opt
        (fun c -> c.T.exit_code <> None && not c.T.reaped)
        matching
    with
    | Some zombie ->
      zombie.T.reaped <- true;
      proc.T.children <-
        List.filter (fun pid -> pid <> zombie.T.pid) proc.T.children;
      Hashtbl.remove k.procs zombie.T.pid;
      List.iter (remove_task k) zombie.T.threads;
      (match zombie.T.exit_code with
      | Some st -> if status_addr <> 0 then uwrite_u64 k task status_addr st
      | None -> ());
      Done zombie.T.pid
    | None ->
      if options land wnohang <> 0 then Done 0
      else Block (T.W_child proc.T.pid)

let sys_unlink k task args =
  let path = abs_path task (uread_str k task args.(0)) in
  vfs_result (fun () -> Vfs.unlink k.vfs path; 0)

let sys_mkdir k task args =
  let path = abs_path task (uread_str k task args.(0)) in
  vfs_result (fun () -> Vfs.mkdir k.vfs path; 0)

let sys_rename k task args =
  let src_path = abs_path task (uread_str k task args.(0)) in
  let dst_path = abs_path task (uread_str k task args.(1)) in
  vfs_result (fun () -> Vfs.rename k.vfs ~src_path ~dst_path; 0)

let sys_link k task args =
  let src_path = abs_path task (uread_str k task args.(0)) in
  let dst_path = abs_path task (uread_str k task args.(1)) in
  vfs_result (fun () -> Vfs.link k.vfs ~src_path ~dst_path; 0)

let sys_ftruncate k task args =
  fd_or_ebadf task args.(0) (fun e ->
      match e.T.obj with
      | T.F_reg { reg; _ } ->
        Vfs.truncate k.vfs reg args.(1);
        Done 0
      | T.F_pipe_r _ | T.F_pipe_w _ | T.F_sock _ | T.F_perf _ ->
        Done (-Errno.einval))

let sys_time k task args =
  let t = now k in
  if args.(0) <> 0 then uwrite_u64 k task args.(0) t;
  Done (t land max_int)

(* poll(2): the guest passes an array of { fd(8) events(8) revents(8) }
   triples.  Returns the number of ready entries, writing revents; blocks
   on every referenced object at once when nothing is ready.

   revents land in guest memory only on a completion with ready > 0: a
   scan that ends in Block or a zero result leaves the array untouched.
   The recorder's output model promises exactly this ("writes bounded by
   result semantics"), so the kernel must not write more than the model
   records — a poll that returns 0 with dirty revents would replay
   differently than it recorded. *)
let sys_poll k task args =
  let pfds = args.(0) and nfds = args.(1) in
  if nfds < 0 || nfds > 64 then Done (-Errno.einval)
  else begin
    let entry i =
      let base = pfds + (24 * i) in
      (uread_u64 k task base, uread_u64 k task (base + 8))
    and revents_addr i = pfds + (24 * i) + 16 in
    let staged = Array.make (max nfds 1) 0 in
    let ready = ref 0 in
    let queues = ref [] in
    for i = 0 to nfds - 1 do
      let fd, events = entry i in
      let revents =
        match T.find_fd task fd with
        | None -> Sysno.pollerr
        | Some e -> (
          match e.T.obj with
          | T.F_pipe_r p ->
            (if Chan.pipe_readable p && events land Sysno.pollin <> 0 then
               Sysno.pollin
             else 0)
            lor (if p.Chan.writers = 0 then Sysno.pollhup else 0)
          | T.F_pipe_w p ->
            (if Chan.pipe_writable p && events land Sysno.pollout <> 0 then
               Sysno.pollout
             else 0)
            lor (if p.Chan.readers = 0 then Sysno.pollerr else 0)
          | T.F_sock s ->
            (if Chan.sock_readable s && events land Sysno.pollin <> 0 then
               Sysno.pollin
             else 0)
            lor (if events land Sysno.pollout <> 0 then Sysno.pollout else 0)
          | T.F_reg _ ->
            (events land Sysno.pollin) lor (events land Sysno.pollout)
          | T.F_perf _ -> 0)
      in
      staged.(i) <- revents;
      if revents <> 0 then incr ready;
      (* collect the wait queues we would park on *)
      (match T.find_fd task fd with
      | Some { T.obj = T.F_pipe_r p; _ } when events land Sysno.pollin <> 0 ->
        queues := p.Chan.read_wait :: !queues
      | Some { T.obj = T.F_pipe_w p; _ } when events land Sysno.pollout <> 0 ->
        queues := p.Chan.write_wait :: !queues
      | Some { T.obj = T.F_sock s; _ } when events land Sysno.pollin <> 0 ->
        queues := s.Chan.sock_wait :: !queues
      | Some _ | None -> ())
    done;
    if !ready > 0 then begin
      (* All revents or none: the recorder keeps no bytes of a
         negative result. *)
      for i = 0 to nfds - 1 do
        if not (uwritable task (revents_addr i) 8) then raise Efault
      done;
      for i = 0 to nfds - 1 do
        uwrite_u64 k task (revents_addr i) staged.(i)
      done;
      Done !ready
    end
    else if !queues = [] then Done 0 (* nothing pollable: like timeout 0 *)
    else Block (T.W_poll !queues)
  end

(* The system call table proper. *)
let do_syscall k task (ss : T.saved_syscall) =
  let args = ss.T.args in
  k.syscall_count <- k.syscall_count + 1;
  Telemetry.incr tm_syscall;
  try
    let n = ss.T.nr in
    if n = Sysno.read then sys_read k task args
    else if n = Sysno.write then sys_write k task args
    else if n = Sysno.openat then sys_openat k task args
    else if n = Sysno.close then sys_close k task args
    else if n = Sysno.stat then sys_stat k task args
    else if n = Sysno.lseek then sys_lseek k task args
    else if n = Sysno.mmap then sys_mmap k task args
    else if n = Sysno.munmap then sys_munmap k task args
    else if n = Sysno.mprotect then sys_mprotect k task args
    else if n = Sysno.exit then sys_exit k task args ~group:false
    else if n = Sysno.exit_group then sys_exit k task args ~group:true
    else if n = Sysno.clone then sys_clone k task args
    else if n = Sysno.execve then sys_execve k task args
    else if n = Sysno.wait4 then sys_wait4 k task args
    else if n = Sysno.getpid then Done task.T.proc.T.pid
    else if n = Sysno.gettid then Done task.T.tid
    else if n = Sysno.getppid then Done task.T.proc.T.parent
    else if n = Sysno.gettimeofday || n = Sysno.clock_gettime then
      sys_time k task args
    else if n = Sysno.nanosleep then sys_nanosleep k task args
    else if n = Sysno.sched_yield then Done 0
    else if n = Sysno.futex then sys_futex k task args
    else if n = Sysno.pipe then sys_pipe k task args
    else if n = Sysno.kill then sys_kill k task args
    else if n = Sysno.tgkill then sys_tgkill k task args
    else if n = Sysno.rt_sigaction then sys_rt_sigaction k task args
    else if n = Sysno.rt_sigprocmask then sys_rt_sigprocmask k task args
    else if n = Sysno.rt_sigreturn then sys_rt_sigreturn k task args
    else if n = Sysno.getrandom then sys_getrandom k task args
    else if n = Sysno.sched_setaffinity then sys_sched_setaffinity k task args
    else if n = Sysno.prctl then sys_prctl k task args
    else if n = Sysno.seccomp then sys_seccomp k task args
    else if n = Sysno.perf_event_open then sys_perf_event_open k task args
    else if n = Sysno.ioctl then sys_ioctl k task args
    else if n = Sysno.socket then sys_socket k task args
    else if n = Sysno.bind then sys_bind k task args
    else if n = Sysno.sendto then sys_sendto k task args
    else if n = Sysno.recvfrom then sys_recvfrom k task args
    else if n = Sysno.unlink then sys_unlink k task args
    else if n = Sysno.mkdir then sys_mkdir k task args
    else if n = Sysno.rename then sys_rename k task args
    else if n = Sysno.link then sys_link k task args
    else if n = Sysno.dup then sys_dup k task args
    else if n = Sysno.ftruncate then sys_ftruncate k task args
    else if n = Sysno.getcwd then sys_getcwd k task args
    else if n = Sysno.chdir then sys_chdir k task args
    else if n = Sysno.fsync then Done 0
    else if n = Sysno.readlink then Done (-Errno.einval)
    else if n = Sysno.sigaltstack then Done 0
    else if n = Sysno.set_tid_address then Done task.T.tid
    else if n = Sysno.poll then sys_poll k task args
    else if n = Sysno.ptrace then Done (-Errno.enosys)
    else Done (-Errno.enosys)
  with Efault -> Done (-Errno.efault)

(* ------------------------------------------------------------------ *)
(* Syscall entry, blocking, completion.                                *)

(* Evaluate the task's seccomp filters.  Precedence follows Linux:
   numerically smaller actions win (KILL < TRAP < ERRNO < TRACE < ALLOW). *)
let eval_seccomp task ~nr ~args ~ip =
  List.fold_left
    (fun acc prog ->
      let r =
        try Bpf.run prog { Bpf.nr; arch = 0xc0de; ip; args }
        with Bpf.Bad_program _ -> Bpf.ret_kill
      in
      min acc r)
    Bpf.ret_allow task.T.seccomp

let block_task k task ss cond =
  task.T.state <- T.Blocked cond;
  task.T.in_syscall <- Some ss;
  (match cond with
  | T.W_poll queues -> List.iter (fun q -> Chan.enqueue q task.T.tid) queues
  | T.W_pipe_read _ | T.W_pipe_write _ | T.W_sock_read _ | T.W_futex _
  | T.W_child _ | T.W_sleep _ -> (
    match waitq_of_cond k cond with
    | Some q -> Chan.enqueue q task.T.tid
    | None -> ()));
  (* Deschedule: an armed perf context-switch event signals the task,
     which immediately interrupts the just-blocked syscall (paper §3.3). *)
  match task.T.desched with
  | Some ev -> (
    match Perf_event.on_deschedule ev with
    | Some signo -> post_signal k task (Signals.make_info signo Signals.Desched)
    | None -> ())
  | None -> ()

let finish_syscall k task ss result =
  task.T.in_syscall <- None;
  task.T.cpu.Cpu.regs.(0) <- result;
  if task.T.traced && task.T.want_exit_stop then begin
    task.T.want_exit_stop <- false;
    enter_stop k task (T.Stop_syscall_exit (ss, result))
  end

(* Execute (or re-execute after wakeup) a syscall body. *)
let perform_syscall k task ss =
  charge k k.cost.Cost.syscall_base;
  match do_syscall k task ss with
  | Done r ->
    finish_syscall k task ss r;
    (* A spurious desched can fire even though the syscall completed
       without blocking (paper §3.3 "spurious SWITCHES can occur at any
       point"). *)
    (match task.T.desched with
    | Some ev
      when ev.Perf_event.enabled
           && k.spurious_desched_period > 0
           && Entropy.int k.entropy k.spurious_desched_period = 0 -> (
      match ev.Perf_event.signal_on_overflow with
      | Some signo ->
        post_signal k task (Signals.make_info signo Signals.Desched)
      | None -> ())
    | Some _ | None -> ())
  | Block cond -> block_task k task ss cond
  | Divert -> ()

let attempt_completion k task ss =
  match do_syscall k task ss with
  | Done r -> finish_syscall k task ss r
  | Block cond -> block_task k task ss cond
  | Divert -> ()

(* A syscall instruction was executed (or the restart machinery re-enters
   one).  [ip] is the address of the syscall instruction for seccomp. *)
let enter_syscall k task ss ~ip =
  let action = eval_seccomp task ~nr:ss.T.nr ~args:ss.T.args ~ip in
  let act = Bpf.action_of action in
  if act = Bpf.ret_allow then begin
    if
      task.T.traced
      && (task.T.resume = T.R_sysemu || task.T.resume = T.R_sysemu_single)
    then
      (* SYSEMU stop: the syscall is suppressed at entry; however the
         supervisor later resumes, the kernel will not run it. *)
      enter_stop k task (T.Stop_syscall_entry ss)
    else if task.T.traced && task.T.resume = T.R_syscall then begin
      task.T.in_entry_stop <- Some ss;
      enter_stop k task (T.Stop_syscall_entry ss)
    end
    else begin
      (* Direct execution (untraced, or traced under R_cont): no exit
         stop is owed for this syscall. *)
      task.T.want_exit_stop <- false;
      perform_syscall k task ss
    end
  end
  else if act = Bpf.action_of Bpf.ret_trace then begin
    if task.T.traced then begin
      task.T.in_entry_stop <- Some ss;
      enter_stop k task (T.Stop_seccomp ss)
    end
    else begin
      Log.err (fun m ->
          m "task %d: SECCOMP_RET_TRACE with no tracer; killing" task.T.tid);
      kill_process k task.T.proc (256 + Signals.sigsys)
    end
  end
  else if act = Bpf.action_of (Bpf.ret_errno 0) then
    finish_syscall k task ss (-Bpf.errno_of action)
  else if act = Bpf.action_of Bpf.ret_trap then
    post_signal k task (Signals.make_info Signals.sigsys Signals.Fault)
  else kill_process k task.T.proc (256 + Signals.sigsys)

(* vdso fast path: some read-only time syscalls never enter the kernel
   (paper §2.5); the recorder disables this per task. *)
let vdso_call k task nr args =
  ignore nr;
  charge k k.cost.Cost.vdso_call;
  let t = now k in
  (try if args.(0) <> 0 then uwrite_u64 k task args.(0) t with Efault -> ());
  task.T.cpu.Cpu.regs.(0) <- t land max_int

(* ------------------------------------------------------------------ *)
(* Running one task.                                                   *)

let build_saved_syscall task ~site =
  let regs = task.T.cpu.Cpu.regs in
  { T.nr = regs.(0);
    args = Array.init 6 (fun i -> regs.(i + 1));
    site;
    entry_regs = Cpu.copy_regs task.T.cpu }

let fault_signal = function
  | Cpu.F_segv { addr; access } ->
    ignore access;
    Signals.make_info ~fault_addr:addr Signals.sigsegv Signals.Fault
  | Cpu.F_ill _ -> Signals.make_info Signals.sigill Signals.Fault
  | Cpu.F_div _ -> Signals.make_info Signals.sigfpe Signals.Fault

let default_slice = 4096

(* Run one scheduling slice of a Runnable task. *)
let run_slice k task ~fuel =
  if task.T.state = T.Runnable then
    match task.T.in_syscall with
    | Some ss when has_deliverable_signal task ->
      (* A signal arrived while the task slept in this syscall: the
         syscall is interrupted with the restart sentinel (and the
         supervisor sees its exit stop) before the signal is delivered. *)
      task.T.in_syscall <- None;
      task.T.cpu.Cpu.regs.(0) <- -Errno.erestartsys;
      task.T.restart <- Some ss;
      task.T.restart_wanted <- true;
      if task.T.traced && task.T.want_exit_stop then begin
        task.T.want_exit_stop <- false;
        enter_stop k task (T.Stop_syscall_exit (ss, -Errno.erestartsys))
      end
      else ignore (check_signals k task)
    | Some _ | None ->
    if check_signals k task then ()
    else
      match task.T.in_syscall with
      | Some ss -> attempt_completion k task ss
      | None ->
        if task.T.restart_wanted && task.T.restart <> None then begin
          match task.T.restart with
          | Some ss ->
            task.T.restart_wanted <- false;
            task.T.restart <- None;
            (* Linux re-executes the syscall instruction; the supervisor
               observes a brand-new syscall entry (paper §2.3.10). *)
            enter_syscall k task ss ~ip:ss.T.site
          | None -> ()
        end
        else begin
          task.T.restart_wanted <- false;
          let stop, steps = Cpu.run (cpu_env k) task.T.cpu ~fuel in
          charge k (steps * k.cost.Cost.insn);
          k.insns_retired <- k.insns_retired + steps;
          match stop with
          | None -> () (* timeslice exhausted *)
          | Some Cpu.Stop_syscall ->
            let site = task.T.cpu.Cpu.pc - 1 in
            let nr = task.T.cpu.Cpu.regs.(0) in
            if
              task.T.vdso_enabled
              && (nr = Sysno.gettimeofday || nr = Sysno.clock_gettime)
            then
              vdso_call k task nr
                (Array.init 6 (fun i -> task.T.cpu.Cpu.regs.(i + 1)))
            else enter_syscall k task (build_saved_syscall task ~site) ~ip:site
          | Some (Cpu.Stop_hook n) -> (
            match Hashtbl.find_opt k.hooks n with
            | Some fn -> fn k task
            | None ->
              post_signal k task (Signals.make_info Signals.sigill Signals.Fault))
          | Some Cpu.Stop_pmu ->
            post_signal k task (Signals.make_info Signals.sigpreempt Signals.Preempt)
          | Some Cpu.Stop_singlestep ->
            task.T.cpu.Cpu.single_step <- false;
            if task.T.traced then enter_stop k task T.Stop_singlestep
          | Some Cpu.Stop_bkpt ->
            if task.T.traced then
              enter_stop k task
                (T.Stop_signal (Signals.make_info Signals.sigtrap Signals.Bkpt))
            else kill_process k task.T.proc (256 + Signals.sigtrap)
          | Some (Cpu.Stop_tsc r) ->
            if task.T.traced then
              enter_stop k task
                (T.Stop_signal
                   (Signals.make_info Signals.sigsegv (Signals.Tsc_trap r)))
            else kill_process k task.T.proc (256 + Signals.sigsegv)
          | Some (Cpu.Stop_fault f) -> post_signal k task (fault_signal f)
        end

(* ------------------------------------------------------------------ *)
(* Supervisor interface (ptrace).                                      *)

(* Resume a task from a ptrace-stop.  [sig_] is the signal to deliver
   when resuming from a signal-delivery-stop (None = suppress).

   [elide], valid when resuming from a syscall entry/seccomp stop with
   [R_syscall], asks the kernel to skip the matching exit stop if the
   syscall completes synchronously (paper §3.4: the supervisor already
   recorded the frame at the entry stop).  If the syscall blocks
   instead, the exit stop is re-armed — the supervisor's pre-computed
   frame was provisional and it falls back to the classic two-stop
   protocol when the completion finally surfaces. *)
let resume k task how ?sig_ ?(elide = false) () =
  if task.T.state <> T.Stopped then
    Fmt.invalid_arg "resume: task %d not stopped" task.T.tid;
  let stop = task.T.last_stop in
  task.T.last_stop <- None;
  task.T.resume <- how;
  task.T.cpu.Cpu.single_step <-
    (how = T.R_singlestep || how = T.R_sysemu_single);
  match stop with
  | Some (T.Stop_exit status) ->
    if task.T.exit_is_group then kill_process k task.T.proc status
    else kill_task k task status
  | Some (T.Stop_signal _) -> (
    task.T.state <- T.Runnable;
    match sig_ with
    | Some info -> really_deliver k task info
    | None -> () (* signal suppressed by the supervisor *))
  | Some (T.Stop_seccomp _) | Some (T.Stop_syscall_entry _) -> (
    task.T.state <- T.Runnable;
    match task.T.in_entry_stop with
    | None ->
      (* SYSEMU stop: the syscall was suppressed at entry; nothing to
         perform, execution continues after the instruction. *)
      ()
    | Some ss -> (
      task.T.in_entry_stop <- None;
      match how with
      | T.R_sysemu | T.R_sysemu_single ->
        (* Supervisor chose to suppress at a regular entry stop. *)
        ()
      | T.R_cont | T.R_syscall | T.R_singlestep ->
        if elide && how = T.R_syscall then begin
          task.T.want_exit_stop <- false;
          perform_syscall k task ss;
          match task.T.state with
          | T.Blocked _ ->
            (* Did not complete at the entry stop: fall back to the
               two-stop protocol so the supervisor sees the eventual
               completion. *)
            task.T.want_exit_stop <- true
          | T.Runnable | T.Stopped | T.Dead ->
            (* Completed (or died) with no exit stop owed.  Drop the
               R_syscall resume request so the task does not take a
               spurious entry stop at its next ALLOW-listed syscall. *)
            task.T.resume <- T.R_cont
        end
        else begin
          task.T.want_exit_stop <- (how = T.R_syscall);
          perform_syscall k task ss
        end))
  | Some T.Stop_exec | Some (T.Stop_clone _) | Some (T.Stop_syscall_exit _)
  | Some T.Stop_singlestep | None ->
    task.T.state <- T.Runnable

(* Supervisor-requested stop of a runnable task (used by the recorder to
   park a task that completed kernel work while another task holds the
   single-core schedule). *)
let park k task =
  ignore k;
  if task.T.state = T.Runnable then begin
    task.T.state <- T.Stopped;
    task.T.last_stop <- None
  end

(* ------------------------------------------------------------------ *)
(* Scheduling decisions.                                               *)

let push_runnable s t =
  let n = s.n_runnable in
  if n = Array.length s.runnable then begin
    let grown = Array.make (max 16 (2 * n)) t in
    Array.blit s.runnable 0 grown 0 n;
    s.runnable <- grown
  end;
  s.runnable.(n) <- t;
  s.n_runnable <- n + 1

(* The one pass over the task table behind every scheduling decision of
   [wait] and [run_baseline]: wake each sleeper whose deadline has
   passed, count the live tasks, note the earliest deadline still
   pending, and collect the runnable tasks in [Hashtbl] visiting order.
   Waking a sleeper changes that task alone, so classifying each task
   right after its own wake sees what a wake-everyone-first pass would. *)
let scan_tasks k =
  let s = k.scan in
  s.n_runnable <- 0;
  s.n_live <- 0;
  s.n_sleeping <- 0;
  let order = k.tasks.order in
  for i = 0 to Array.length order - 1 do
    let t = order.(i) in
    (match t.T.state with
    | T.Blocked (T.W_sleep d) when d <= k.clock -> wake_task k t
    | T.Blocked _ | T.Runnable | T.Stopped | T.Dead -> ());
    match t.T.state with
    | T.Dead -> ()
    | T.Runnable ->
      s.n_live <- s.n_live + 1;
      push_runnable s t
    | T.Blocked (T.W_sleep d) ->
      s.n_live <- s.n_live + 1;
      if s.n_sleeping = 0 || d < s.next_wake then s.next_wake <- d;
      s.n_sleeping <- s.n_sleeping + 1
    | T.Blocked _ | T.Stopped -> s.n_live <- s.n_live + 1
  done;
  s

(* The task [wait] runs: the runnable task [all_tasks] lists first,
   which is the last runnable task the pass visited.  Most recording
   decisions see several runnable tasks, so this rule shapes every
   recorded schedule; it is visiting order, not lowest tid.  Requires
   [s.n_runnable > 0]. *)
let wait_pick s = s.runnable.(s.n_runnable - 1)

let runs_on t core = t.T.affinity = -1 || t.T.affinity = core

(* Whether a runnable task in slot [i] or later may run on [core]. *)
let rec runnable_on s core i =
  i < s.n_runnable && (runs_on s.runnable.(i) core || runnable_on s core (i + 1))

(* The core [run_baseline] fills next: the earliest core clock among the
   cores some runnable task may run on, ties to the lowest index; -1 if
   no task is runnable. *)
let baseline_core s ~core_clock =
  let best = ref (-1) in
  for c = 0 to Array.length core_clock - 1 do
    if (!best < 0 || core_clock.(c) < core_clock.(!best)) && runnable_on s c 0
    then best := c
  done;
  !best

(* The task with the [rank]-th smallest tid among slots [0, n) of [a],
   whose tids are distinct, by Hoare's selection: each round partitions
   the slots still in play around the middle one's tid, in place, and
   keeps the side holding [rank]. *)
let select_by_tid a n rank =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2).T.tid in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i).T.tid < pivot do incr i done;
      while a.(!j).T.tid > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    (* Slots up to [j] hold smaller tids than slots from [i]; one slot
       between them holds the pivot. *)
    if rank <= !j then hi := !j
    else if rank >= !i then lo := !i
    else begin
      lo := rank;
      hi := rank
    end
  done;
  a.(rank)

(* The task [run_baseline] runs on [core]: strict priorities (lowest
   value first), then round-robin over the best class in ascending tid
   order, taking its [cursor mod size]-th task.  One pass gathers the
   best class seen so far into [s.members], then a selection finds the
   rank, so a pick is linear in the runnable tasks and allocates nothing
   once the scratch array has grown.  Requires [baseline_core] to have
   chosen [core]. *)
let baseline_pick s ~core ~cursor =
  if Array.length s.members < s.n_runnable then
    s.members <- Array.make (Array.length s.runnable) s.runnable.(0);
  let prio = ref max_int and size = ref 0 in
  for i = 0 to s.n_runnable - 1 do
    let t = s.runnable.(i) in
    if runs_on t core && t.T.priority <= !prio then begin
      if t.T.priority < !prio then begin
        prio := t.T.priority;
        size := 0
      end;
      s.members.(!size) <- t;
      incr size
    end
  done;
  select_by_tid s.members !size (cursor mod !size)

let next_stopped k =
  let rec pop () =
    match k.stop_queue with
    | [] -> None
    | tid :: rest -> (
      k.stop_queue <- rest;
      match find_task k tid with
      | Some t when t.T.state = T.Stopped -> (
        match t.T.last_stop with
        | Some stop -> Some (t, stop)
        | None -> pop ())
      | Some _ | None -> pop ())
  in
  pop ()

(* Run the world until some traced task enters a ptrace-stop. *)
let rec wait k =
  match next_stopped k with
  | Some (t, stop) -> Stopped_task (t, stop)
  | None ->
    let s = scan_tasks k in
    if s.n_live = 0 then All_dead
    else if s.n_runnable > 0 then begin
      let t = wait_pick s in
      (* Guest execution shows up on the running task's lane. *)
      Timeline.set_lane t.T.tid;
      Timeline.scope "kern.run" (fun () -> run_slice k t ~fuel:default_slice);
      Timeline.set_lane 0;
      wait k
    end
    else if s.n_sleeping > 0 then begin
      (* The next pass wakes the sleepers due at the new time. *)
      k.clock <- max k.clock s.next_wake;
      wait k
    end
    else
      (* Everyone is blocked for good or sitting in a ptrace-stop the
         supervisor has already consumed: nothing will ever happen. *)
      Deadlocked
        (Array.fold_left
           (fun acc t -> if T.is_alive t then t.T.tid :: acc else acc)
           [] k.tasks.order)

(* ------------------------------------------------------------------ *)
(* Spawning and supervisor conveniences.                               *)

let install_image k ~path img =
  (match Vfs.resolve_opt k.vfs path with
  | Some _ -> ()
  | None ->
    let reg = Vfs.create_file k.vfs path in
    (* Give the "binary" real bytes so trace hard-linking/cloning has
       something to share. *)
    let size = Image.byte_size img in
    let filler = Bytes.init (max 64 size) (fun i -> Char.chr (i land 0xff)) in
    ignore (Vfs.write k.vfs reg ~off:0 filler));
  let reg = Vfs.lookup_reg k.vfs path in
  Vfs.set_image reg img

let spawn k ~path ?(traced = false) ?tid () =
  let node = Vfs.resolve k.vfs path in
  let img =
    match node.Vfs.kind with
    | Vfs.Reg reg -> (
      match Vfs.get_image reg with
      | Some img -> img
      | None -> Fmt.invalid_arg "spawn: %s is not executable" path)
    | Vfs.Dir _ -> Fmt.invalid_arg "spawn: %s is a directory" path
  in
  let pid =
    match tid with
    | Some t ->
      reserve_id k t;
      t
    | None -> alloc_id k
  in
  let space = alloc_space k in
  Image.load img space;
  let proc = T.make_process ~pid ~parent:0 ~space in
  proc.T.cmd <- img.Image.name;
  Hashtbl.replace k.procs pid proc;
  let cpu = Cpu.create ~space in
  cpu.Cpu.pc <- img.Image.entry;
  cpu.Cpu.regs.(Insn.reg_sp) <- A.stack_top;
  let task = T.make_task ~tid:pid ~proc ~cpu in
  task.T.tick_born <- now k;
  proc.T.threads <- [ pid ];
  add_task k task;
  charge k k.cost.Cost.exec_cost;
  k.exec_count <- k.exec_count + 1;
  if traced then begin
    task.T.traced <- true;
    enter_stop k task T.Stop_exec
  end;
  task

(* Map memory in a tracee on the supervisor's behalf — rr does this by
   running a syscall in tracee context (paper §2.3.3), so we charge the
   equivalent of a remote traced syscall. *)
let supervisor_map k task ~len ~prot ~kind ?(shared = false) ?addr () =
  charge k (Cost.ptrace_stop k.cost + k.cost.Cost.syscall_base);
  let space = task.T.cpu.Cpu.space in
  let addr = match addr with Some a -> a | None -> A.find_map_addr space len in
  A.map space ~addr ~len ~prot ~kind ~shared ()

let getregs task = Cpu.copy_regs task.T.cpu

(* Perform an untraced syscall on behalf of the interception library
   (the syscallbuf hook).  [ip] must be the untraced-instruction address
   so the recorder's seccomp filter allows it. *)
let untraced_syscall k task ~nr ~args ~ip =
  let ss =
    { T.nr; args = Array.copy args; site = ip; entry_regs = getregs task }
  in
  let action = eval_seccomp task ~nr ~args ~ip in
  if Bpf.action_of action <> Bpf.ret_allow then `Denied
  else begin
    charge k k.cost.Cost.syscall_base;
    match do_syscall k task ss with
    | Done r -> `Done r
    | Block cond ->
      block_task k task ss cond;
      `Blocked
    | Divert -> `Done 0
  end

(* ------------------------------------------------------------------ *)
(* Baseline multicore execution (no tracing).                          *)

type run_stats = {
  mutable wall_time : int;
  mutable deadlocked : bool;
}

(* Discrete-event multicore scheduler: per-core clocks, round-robin
   within priority, affinity honored.  Used for the paper's "baseline"
   and "single core" configurations. *)
let run_baseline k ~cores ?(sample_every = 0) ?(on_sample = fun _ -> ()) () =
  if cores < 1 then invalid_arg "run_baseline";
  let core_clock = Array.make cores k.clock in
  let last_on_core = Array.make cores (-1) in
  let rr_cursor = ref 0 in
  (* Causality: a task cannot start on a core earlier than its own last
     execution finished (idle cores fast-forward to the task's time). *)
  let task_time : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let stats = { wall_time = 0; deadlocked = false } in
  let next_sample = ref sample_every in
  let finished = ref false in
  while not !finished do
    let s = scan_tasks k in
    if s.n_live = 0 then finished := true
    else begin
      (* Choose the earliest core that has work, then pick once. *)
      let c = baseline_core s ~core_clock in
      if c >= 0 then begin
        incr rr_cursor;
        let t = baseline_pick s ~core:c ~cursor:!rr_cursor in
        let watermark =
          match Hashtbl.find_opt task_time t.T.tid with
          | Some tm -> max tm t.T.last_wake
          | None -> max t.T.tick_born t.T.last_wake
        in
        k.clock <- max core_clock.(c) watermark;
        t.T.cpu.Cpu.core <- c;
        (* A kernel-level context switch is only paid when the core picks
           up a different task. *)
        if last_on_core.(c) <> t.T.tid then begin
          charge k k.cost.Cost.sched_switch;
          Telemetry.incr tm_sched_switch;
          Timeline.instant ~lane:t.T.tid "kern.sched_switch";
          last_on_core.(c) <- t.T.tid
        end;
        run_slice k t ~fuel:k.cost.Cost.timeslice_insns;
        Hashtbl.replace task_time t.T.tid k.clock;
        core_clock.(c) <- k.clock;
        let maxclock = Array.fold_left max 0 core_clock in
        if sample_every > 0 && maxclock >= !next_sample then begin
          next_sample := maxclock + sample_every;
          on_sample maxclock
        end
      end
      else if s.n_sleeping = 0 then begin
        (* Deadlock: every live task is blocked with no timeout.  Sync
           the kernel clock (and hence wall_time) to the furthest core
           *at detection time* — the cost model's answer for how long
           the run took — rather than leaving whatever clock the last
           slice happened to set. *)
        let maxclock = Array.fold_left max k.clock core_clock in
        k.clock <- maxclock;
        stats.wall_time <- maxclock;
        stats.deadlocked <- true;
        Telemetry.note ~kind:"kern.deadlock"
          (Fmt.str "%d tasks blocked at t=%d" s.n_live maxclock);
        finished := true
      end
      else begin
        (* No runnable task anywhere: advance to the next sleeper. *)
        let target = s.next_wake in
        k.clock <- max k.clock target;
        Array.iteri (fun i c -> core_clock.(i) <- max c target) core_clock
      end
    end
  done;
  let maxclock = Array.fold_left max k.clock core_clock in
  k.clock <- maxclock;
  stats.wall_time <- maxclock;
  stats

(* Total PSS over all live processes, in bytes (paper §4.5). *)
let total_pss k =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc p ->
      if p.T.exit_code = None && not (Hashtbl.mem seen p.T.space.A.id) then begin
        Hashtbl.replace seen p.T.space.A.id ();
        acc +. A.pss p.T.space
      end
      else acc)
    0. (all_procs k)
