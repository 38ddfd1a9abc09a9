(* The rr replayer (paper §2.3.7–§2.3.9, §3.8).

   Replays a {!Trace} against a *fresh* simulated kernel with different
   entropy: no files are opened, no signals are delivered, no real
   syscalls run except the address-space operations that must be
   re-performed.  User-space memory, registers and control flow are
   reproduced exactly; every applied frame cross-checks the tracee state
   and raises {!Divergence} on mismatch.

   Mechanics per frame kind:
   - syscalls: software breakpoint at the recorded syscall site, run to
     it, apply recorded registers and memory effects, skip the
     instruction (one stop per syscall, §2.3.7); sites in run-time-written
     code fall back to the SYSEMU-style path;
   - async events (signals, preemptions): program the PMU interrupt
     *early* (the interrupt skids, §2.4.3), then breakpoint/single-step
     until RCB count, registers and the extra stack word all match;
   - buffered syscalls: refill the guest trace buffer from flush frames;
     the interception hook replays results with identical control flow. *)

module A = Addr_space
module T = Task
module K = Kernel
module E = Event

let src = Logs.Src.create "rr.replay"

module Log = (val Logs.src_log src : Logs.LOG)

exception Divergence of string

let diverged fmt = Fmt.kstr (fun s -> raise (Divergence s)) fmt

type opts = {
  check_regs : bool; (* cross-check registers at every frame *)
  sysemu_all : bool; (* ablation: replay every syscall via SYSEMU *)
}

let default_opts = { check_regs = true; sysemu_all = false }

let make_opts ?(check_regs = default_opts.check_regs)
    ?(sysemu_all = default_opts.sysemu_all) () =
  { check_regs; sysemu_all }

(* The replay kernel's entropy seed, deliberately different from the
   recording's. *)
let seed = 424242

type t = {
  k : K.t;
  trace : Trace.t;
  cursor : Trace.Reader.cursor; (* position in the chunk-indexed trace *)
  opts : opts;
  rts : (int, Snapshot.extras) Hashtbl.t;
  locals : Syscallbuf.locals; (* the thread-locals swap (§3.6) *)
  mutable root_tid : int;
  mutable installed : (string * string) list; (* exe path, trace image *)
  reuse : Snapshot.reuse; (* what the next checkpoint may reuse *)
  tm_base : Telemetry.snapshot; (* registry state at session start *)
}

let tm_bp_syscall = Telemetry.counter "replay.bp_syscall"
let tm_sysemu_syscall = Telemetry.counter "replay.sysemu_syscall"
let tm_singlestep = Telemetry.counter "replay.singlestep"
let tm_pmu_interrupt = Telemetry.counter "replay.pmu_interrupt"
let tm_span_frame = Telemetry.span "replay.frame"
let tm_span_point = Telemetry.span "replay.point"

let cursor_index r = Trace.Reader.pos r.cursor
let kernel r = r.k

type stats = {
  wall_time : int;
  events_applied : int;
  n_ptrace_stops : int;
  exit_status : int option;
  telemetry : Telemetry.snapshot;
}

let get_rt r tid =
  match Hashtbl.find_opt r.rts tid with
  | Some st -> st
  | None ->
    let st = Snapshot.extras () in
    Hashtbl.replace r.rts tid st;
    st

let task r tid =
  match K.find_task r.k tid with
  | Some t -> t
  | None -> diverged "no replay task %d" tid

let capture_regs task : E.regs =
  let a = Array.make 17 0 in
  Array.blit task.T.cpu.Cpu.regs 0 a 0 16;
  a.(E.pc_slot) <- task.T.cpu.Cpu.pc;
  a

let apply_regs task (regs : E.regs) =
  Array.blit regs 0 task.T.cpu.Cpu.regs 0 16;
  task.T.cpu.Cpu.pc <- regs.(E.pc_slot)

let apply_writes task writes =
  List.iter
    (fun w ->
      A.write_sub ~force:true task.T.cpu.Cpu.space w.E.addr w.E.data 0
        (String.length w.E.data))
    writes

let check_pc r task expected what =
  if r.opts.check_regs && task.T.cpu.Cpu.pc <> expected then
    diverged "%s: pc %#x, recorded %#x (task %d, event %d)" what
      task.T.cpu.Cpu.pc expected task.T.tid (cursor_index r)

(* ---- driving a single task ------------------------------------------ *)

(* Resume [t] (if parked) and run the world until the next ptrace stop,
   which must belong to [t]. *)
let rec run_until_stop r t =
  if t.T.state = T.Stopped then begin
    Syscallbuf.switch_locals r.locals r.k t;
    let st = get_rt r t.T.tid in
    let how = st.next_resume in
    st.next_resume <- T.R_cont;
    K.resume r.k t how ()
  end;
  match K.wait r.k with
  | K.Stopped_task (t', stop) -> (
    match stop with
    | T.Stop_signal { Signals.origin = Signals.User _; _ } ->
      (* A kernel-generated signal (e.g. SIGCHLD from a replayed exit):
         replay never delivers real signals (§2.3.9) — the recorded
         delivery, if any, is its own frame.  Suppress and continue. *)
      K.resume r.k t' T.R_cont ();
      if t'.T.tid <> t.T.tid then K.park r.k t';
      run_until_stop r t
    | _ ->
      if t'.T.tid <> t.T.tid then
        diverged "unexpected stop %a from task %d while replaying task %d"
          T.pp_stop stop t'.T.tid t.T.tid;
      stop)
  | K.All_dead -> diverged "task %d died before its next frame" t.T.tid
  | K.Deadlocked _ -> diverged "replay deadlocked while running task %d" t.T.tid

(* Run [t] to the recorded syscall site and return with the site
   un-executed.  Fast path: software breakpoint, one stop (§2.3.7).
   Writable-code path: let the syscall trap through seccomp and suppress
   it (SYSEMU, §2.3.7's fallback). *)
(* Slow-path syscall replay: the site can't take a breakpoint — either
   it lives in run-time-written code (§2.3.7), or it is the interception
   library's traced fallback in the RR page, reached through the kernel
   rather than by executing the site. *)
let syscall_slow_path r ~site ~writable_site =
  writable_site || r.opts.sysemu_all || site >= Layout.rr_page_text

(* Special frames (clone, mmap) derive the syscall site from the
   recorded post-syscall pc.  When that site was (eagerly) patched, the
   instruction there is the interception hook, not a syscall: at replay
   the hook must actually execute — it charges the same deterministic
   PMU costs it charged at record — and then falls back to a traced
   syscall through the RR page.  Redirecting the expected site to the
   fallback instruction routes {!run_to_syscall} onto its seccomp slow
   path, which lets the tracee run through the hook. *)
let effective_syscall_site t ~site =
  match A.text_get t.T.cpu.Cpu.space site with
  | Some (Insn.Hook _) -> Layout.traced_fallback_insn
  | Some _ | None -> site

let run_to_syscall r t ~nr ~site ~writable_site =
  K.charge r.k r.k.K.cost.Cost.replay_syscall_work;
  if syscall_slow_path r ~site ~writable_site then begin
    match run_until_stop r t with
    | T.Stop_seccomp ss | T.Stop_syscall_entry ss ->
      if ss.T.nr <> nr then
        diverged "expected syscall %s, tracee did %s (event %d)"
          (Sysno.name nr) (Sysno.name ss.T.nr) (cursor_index r);
      if ss.T.site <> site then
        diverged "syscall site %#x, recorded %#x" ss.T.site site;
      (* Suppress the syscall on the way out. *)
      (get_rt r t.T.tid).next_resume <- T.R_sysemu;
      Telemetry.incr tm_sysemu_syscall;
      (* Extra supervisor work for the slow path. *)
      K.charge r.k r.k.K.cost.Cost.supervisor_work
    | stop -> diverged "expected syscall entry, got %a" T.pp_stop stop
  end
  else begin
    A.bp_set t.T.cpu.Cpu.space site;
    (match run_until_stop r t with
    | T.Stop_signal { Signals.origin = Signals.Bkpt; _ } ->
      A.bp_clear t.T.cpu.Cpu.space site;
      Telemetry.incr tm_bp_syscall;
      check_pc r t site "syscall breakpoint"
    | stop ->
      A.bp_clear t.T.cpu.Cpu.space site;
      diverged "expected breakpoint at syscall site %#x, got %a" site
        T.pp_stop stop);
    ()
  end

(* Run [t] to an asynchronous execution point: program the interrupt
   early, then breakpoint (or single-step through run-time-generated
   code) until RCB + registers + stack word match (§2.4). *)
let interrupt_slack = Pmu.max_skid + 6

let point_matches t (point : E.exec_point) =
  t.T.cpu.Cpu.pmu.Pmu.rcb = point.E.rcb
  && capture_regs t = point.E.point_regs
  &&
  let extra =
    try
      A.read_u64 ~force:true t.T.cpu.Cpu.space t.T.cpu.Cpu.regs.(Insn.reg_sp)
    with A.Segv _ -> 0
  in
  extra = point.E.stack_extra

let run_to_point_inner r t (point : E.exec_point) =
  let target = point.E.rcb in
  let pc_target = point.E.point_regs.(E.pc_slot) in
  let cur = t.T.cpu.Cpu.pmu.Pmu.rcb in
  if cur > target then
    diverged "rcb overshoot: at %d, target %d (task %d, event %d)" cur target
      t.T.tid (cursor_index r);
  (* Phase 1: coarse approach on the PMU interrupt, programmed early
     because it fires late (§2.4.3). *)
  if cur < target - interrupt_slack then begin
    Pmu.program_interrupt t.T.cpu.Cpu.pmu
      ~target:(target - interrupt_slack)
      ~skid:(Entropy.range r.k.K.entropy 0 Pmu.max_skid);
    match run_until_stop r t with
    | T.Stop_signal { Signals.origin = Signals.Preempt | Signals.Fault; _ } ->
      Pmu.clear_interrupt t.T.cpu.Cpu.pmu;
      Telemetry.incr tm_pmu_interrupt;
      if t.T.cpu.Cpu.pmu.Pmu.rcb > target then
        diverged "interrupt skidded past the target point (rcb %d > %d)"
          t.T.cpu.Cpu.pmu.Pmu.rcb target
    | stop -> diverged "expected PMU interrupt, got %a" T.pp_stop stop
  end;
  (* Phase 2: precise approach — "repeatedly run to the breakpoint until
     the RCB count and the general-purpose register values match"
     (§2.4.3).  When the tracee sits exactly on the breakpointed address
     without matching yet, step over it (remove, single-step, reinsert),
     as any breakpoint-based debugger must. *)
  if not (point_matches t point) then begin
    let stepping = A.text_was_written t.T.cpu.Cpu.space pc_target in
    if not stepping then A.bp_set t.T.cpu.Cpu.space pc_target;
    let arrived = ref false in
    while not !arrived do
      Telemetry.incr tm_singlestep;
      let at_bp = (not stepping) && t.T.cpu.Cpu.pc = pc_target in
      if at_bp then A.bp_clear t.T.cpu.Cpu.space pc_target;
      (get_rt r t.T.tid).next_resume <-
        (if stepping || at_bp then T.R_singlestep else T.R_cont);
      (match run_until_stop r t with
      | T.Stop_signal { Signals.origin = Signals.Bkpt | Signals.Fault; _ }
      | T.Stop_singlestep ->
        (* Faults re-occur deterministically during replay; the recorded
           signal frame is the one being applied at this very point. *)
        ()
      | stop -> diverged "while stepping to point: %a" T.pp_stop stop);
      if at_bp then A.bp_set t.T.cpu.Cpu.space pc_target;
      if t.T.cpu.Cpu.pmu.Pmu.rcb > target then
        diverged
          "ran past execution point (rcb %d > %d, pc %#x, task %d, event %d)"
          t.T.cpu.Cpu.pmu.Pmu.rcb target t.T.cpu.Cpu.pc t.T.tid (cursor_index r);
      if point_matches t point then arrived := true
    done;
    if not stepping then A.bp_clear t.T.cpu.Cpu.space pc_target
  end

let run_to_point r t point =
  Telemetry.timed tm_span_point (fun () -> run_to_point_inner r t point)

(* ---- frame handlers --------------------------------------------------- *)

let setup_replay_task r t ~scratch ~buf =
  Syscallbuf.inject_rr_page r.k t;
  if t.T.seccomp = [] then
    t.T.seccomp <- [ Bpf.rr_filter ~untraced_ip:Layout.untraced_syscall_insn ];
  ignore
    (Syscallbuf.setup_task r.locals r.k t ~scratch ~buf ~is_replay:true);
  t.T.vdso_enabled <- false;
  t.T.cpu.Cpu.tsc_trap <- true;
  t.T.affinity <- 0

(* Replaying an exec is expensive: exec a stub, tear down every mapping,
   recreate the recorded ones (paper §2.3.8) — a long run of remote
   syscalls in tracee context. *)
let exec_replay_cost k =
  K.charge k (120 * (Cost.ptrace_stop k.K.cost + k.K.cost.Cost.syscall_base))

let on_exec r ~tid ~image_ref ~regs_after =
  let img = Trace.image r.trace image_ref in
  exec_replay_cost r.k;
  match K.find_task r.k tid with
  | None ->
    (* The root task's initial exec: install and spawn. *)
    let path = "/replay_exe/" ^ image_ref in
    Vfs.mkdir_p (K.vfs r.k) "/replay_exe";
    Vfs.mkdir_p (K.vfs r.k) ("/replay_exe/" ^ Filename.dirname image_ref);
    K.install_image r.k ~path img;
    r.installed <- (path, image_ref) :: r.installed;
    let t = K.spawn r.k ~path ~traced:true ~tid () in
    r.root_tid <- tid;
    (match K.wait r.k with
    | K.Stopped_task (t', T.Stop_exec) when t'.T.tid = tid -> ()
    | _ -> diverged "expected initial exec stop");
    if r.opts.check_regs && capture_regs t <> regs_after then
      diverged "initial exec registers differ";
    ()
  | Some t ->
    (* An execve by an existing task: run it to the syscall, install the
       trace image at the path the tracee names, and perform it. *)
    let stop = run_until_stop r t in
    (match stop with
    | T.Stop_seccomp ss when ss.T.nr = Sysno.execve ->
      let addr = ss.T.args.(0) in
      let rec read_str a acc =
        let c = A.read_u8 ~force:true t.T.cpu.Cpu.space a in
        if c = 0 then String.concat "" (List.rev acc)
        else read_str (a + 1) (String.make 1 (Char.chr c) :: acc)
      in
      let p = read_str addr [] in
      let path =
        if String.length p > 0 && p.[0] = '/' then p
        else t.T.proc.T.cwd ^ "/" ^ p
      in
      (match Vfs.resolve_opt (K.vfs r.k) path with
      | Some _ -> ()
      | None ->
        Vfs.mkdir_p (K.vfs r.k) (Filename.dirname path);
        K.install_image r.k ~path img;
        r.installed <- (path, image_ref) :: r.installed);
      K.resume r.k t T.R_syscall ();
      (match K.wait r.k with
      | K.Stopped_task (t', T.Stop_exec) when t'.T.tid = tid -> ()
      | _ -> diverged "expected exec stop after execve")
    | s -> diverged "expected execve entry, got %a" T.pp_stop s);
    if r.opts.check_regs && capture_regs t <> regs_after then
      diverged "exec registers differ (task %d)" tid

(* Cross-check the tracee registers against the recorded post-syscall
   registers: everything except the result register must already agree
   when the tracee arrives at the syscall site (the kernel only writes
   r0).  This is what catches corrupted traces and replay divergence. *)
let verify_arrival r t (regs_after : E.regs) ~pc_delta =
  if r.opts.check_regs then begin
    for i = 1 to 15 do
      if t.T.cpu.Cpu.regs.(i) <> regs_after.(i) then
        diverged "register r%d = %d, recorded %d (task %d, event %d)" i
          t.T.cpu.Cpu.regs.(i) regs_after.(i) t.T.tid (cursor_index r)
    done;
    if t.T.cpu.Cpu.pc + pc_delta <> regs_after.(E.pc_slot) then
      diverged "pc %#x(+%d), recorded %#x (task %d, event %d)"
        t.T.cpu.Cpu.pc pc_delta
        regs_after.(E.pc_slot)
        t.T.tid (cursor_index r)
  end

(* The entry half of a blocking syscall (see E_syscall_enter): run the
   task to the syscall and park it "inside the kernel". *)
let on_syscall_enter r ~tid ~nr ~site ~writable_site ~via_abort =
  let t = task r tid in
  let st = get_rt r tid in
  if via_abort then begin
    match run_until_stop r t with
    | T.Stop_signal { Signals.origin = Signals.Desched; _ } ->
      st.in_blocked_syscall <- true
    | stop -> diverged "expected syscallbuf abort stop, got %a" T.pp_stop stop
  end
  else begin
    run_to_syscall r t ~nr ~site ~writable_site;
    st.in_blocked_syscall <- true
  end

let on_syscall r ~tid ~nr ~site ~writable_site ~via_abort ~regs_after ~writes
    ~kind =
  let t = task r tid in
  let st = get_rt r tid in
  if st.in_blocked_syscall then begin
    (* Entry already replayed by the E_syscall_enter frame; the kernel
       work happened "off screen" — just apply the recorded effects. *)
    st.in_blocked_syscall <- false;
    ignore (nr, site, writable_site, kind);
    apply_writes t writes;
    apply_regs t regs_after
  end
  else if via_abort then begin
    (* The interception hook stops the task when it reaches the recorded
       abort marker (§3.3); no breakpoint is involved. *)
    match run_until_stop r t with
    | T.Stop_signal { Signals.origin = Signals.Desched; _ } ->
      verify_arrival r t regs_after ~pc_delta:0;
      apply_writes t writes;
      apply_regs t regs_after
    | stop -> diverged "expected syscallbuf abort stop, got %a" T.pp_stop stop
  end
  else begin
    run_to_syscall r t ~nr ~site ~writable_site;
    (* sigreturn rewrites every register; there is nothing to cross-check
       at arrival. *)
    if nr <> Sysno.rt_sigreturn then
      verify_arrival r t regs_after
        ~pc_delta:(if syscall_slow_path r ~site ~writable_site then 0 else 1);
    (* Re-perform address-space operations (§2.3.8); everything else is
       pure emulation. *)
    (match kind with
    | E.K_perform ->
      let args = Array.init 6 (fun i -> t.T.cpu.Cpu.regs.(i + 1)) in
      if nr = Sysno.munmap then
        A.unmap t.T.cpu.Cpu.space ~addr:args.(0) ~len:args.(1)
      else if nr = Sysno.mprotect then
        A.protect t.T.cpu.Cpu.space ~addr:args.(0) ~len:args.(1)
          ~prot:args.(2)
    | E.K_emulate -> ());
    apply_writes t writes;
    apply_regs t regs_after
  end

let on_clone r ~parent ~child ~flags ~child_sp ~parent_regs_after ~child_regs =
  let p = task r parent in
  (* The clone syscall site is derivable from the recorded registers. *)
  let site = effective_syscall_site p ~site:(parent_regs_after.(E.pc_slot) - 1) in
  run_to_syscall r p ~nr:Sysno.clone ~site
    ~writable_site:(A.text_was_written p.T.cpu.Cpu.space site);
  let c = K.do_clone r.k p ~flags ~child_sp ~tid:child () in
  (* Consume the child's birth stop; it stays parked until its frames. *)
  (match K.next_stopped r.k with
  | Some (c', T.Stop_clone _) when c'.T.tid = child -> ()
  | Some (_, stop) -> diverged "expected clone stop, got %a" T.pp_stop stop
  | None -> diverged "missing clone stop for task %d" child);
  apply_regs p parent_regs_after;
  apply_regs c child_regs;
  if r.opts.check_regs && c.T.cpu.Cpu.regs.(0) <> 0 then
    diverged "clone child r0 not zero"

let on_mmap r ~tid ~addr ~len ~prot ~shared ~source ~regs_after =
  let t = task r tid in
  let site = effective_syscall_site t ~site:(regs_after.(E.pc_slot) - 1) in
  run_to_syscall r t ~nr:Sysno.mmap ~site
    ~writable_site:(A.text_was_written t.T.cpu.Cpu.space site);
  (* MAP_FIXED recreation of the recorded mapping (§2.3.8). *)
  let sp = t.T.cpu.Cpu.space in
  if not (A.overlaps sp ~addr ~len) then
    ignore (A.map sp ~addr ~len ~prot ~shared ());
  (match source with
  | E.Src_zero -> ()
  | E.Src_trace_file path ->
    let data = Trace.file_sub r.trace path ~off:0 ~len in
    A.write_sub ~force:true sp addr data 0 (String.length data)
  | E.Src_inline data ->
    A.write_sub ~force:true sp addr data 0 (min (String.length data) len));
  apply_regs t regs_after

let on_signal r ~tid ~signo ~point ~disposition =
  let t = task r tid in
  run_to_point r t point;
  ignore signo;
  match disposition with
  | E.Sr_handler { frame_addr; frame_data; regs_after; mask_after } ->
    (* §2.3.9: no real signal is delivered; write the recorded frame and
       registers. *)
    A.write_sub ~force:true t.T.cpu.Cpu.space frame_addr frame_data 0
      (String.length frame_data);
    apply_regs t regs_after;
    t.T.sigmask <- mask_after;
    t.T.sig_frames <- frame_addr :: t.T.sig_frames
  | E.Sr_fatal status -> K.kill_process r.k t.T.proc status
  | E.Sr_ignored regs_after ->
    (* No handler ran, but the kernel may have rewound for a restart. *)
    apply_regs t regs_after

let on_insn_trap r ~tid ~reg ~value =
  let t = task r tid in
  match run_until_stop r t with
  | T.Stop_signal { Signals.origin = Signals.Tsc_trap reg'; _ } ->
    if reg' <> reg then diverged "TSC trap register mismatch";
    t.T.cpu.Cpu.regs.(reg) <- value
  | stop -> diverged "expected TSC trap, got %a" T.pp_stop stop

let on_exit r ~tid ~status =
  match K.find_task r.k tid with
  | None -> ()
  | Some t when not (T.is_alive t) ->
    if t.T.exit_status <> status && status <> 0 then
      Log.warn (fun m ->
          m "task %d exit status %d, recorded %d" tid t.T.exit_status status)
  | Some t when (get_rt r tid).in_blocked_syscall ->
    (* Died while blocked in a syscall (killed by exit_group or a fatal
       signal elsewhere): it never runs again. *)
    K.kill_task r.k t status
  | Some t -> (
    (* Run it into its exit syscall and let it really die. *)
    match run_until_stop r t with
    | T.Stop_seccomp ss
      when ss.T.nr = Sysno.exit || ss.T.nr = Sysno.exit_group -> (
      K.resume r.k t T.R_syscall ();
      match K.wait r.k with
      | K.Stopped_task (t', T.Stop_exit st') when t'.T.tid = tid ->
        if st' <> status then
          diverged "exit status %d, recorded %d (task %d)" st' status tid;
        K.resume r.k t T.R_cont ()
      | _ -> diverged "expected exit event for task %d" tid)
    | stop -> diverged "expected exit syscall, got %a" T.pp_stop stop)

(* ---- the main loop ---------------------------------------------------- *)

let apply_frame r e =
  (* Every frame lands in the event ring: an emergency dump after a
     divergence shows the last ring_capacity frames that led up to it. *)
  Telemetry.note ~tid:(E.tid_of e) ~frame:(cursor_index r)
    ~kind:(E.kind_name e) "";
  (* Frame application reports on the frame's task lane. *)
  Timeline.set_lane (E.tid_of e);
  Fun.protect ~finally:(fun () -> Timeline.set_lane 0) @@ fun () ->
  Telemetry.timed tm_span_frame @@ fun () ->
  (match e with
  | E.E_exec { tid; image_ref; regs_after } -> on_exec r ~tid ~image_ref ~regs_after
  | E.E_rr_setup { tid; scratch; buf; _ } ->
    setup_replay_task r (task r tid) ~scratch ~buf
  | E.E_patch { tid; site } -> Syscallbuf.patch_site (task r tid) ~site
  | E.E_buf_flush { tid; records } ->
    Queue.push records (get_rt r tid).batches
  | E.E_syscall { tid; nr; site; writable_site; via_abort; regs_after; writes; kind }
    ->
    on_syscall r ~tid ~nr ~site ~writable_site ~via_abort ~regs_after ~writes
      ~kind
  | E.E_clone { parent; child; flags; child_sp; parent_regs_after; child_regs }
    ->
    on_clone r ~parent ~child ~flags ~child_sp ~parent_regs_after ~child_regs
  | E.E_mmap { tid; addr; len; prot; shared; source; regs_after } ->
    on_mmap r ~tid ~addr ~len ~prot ~shared ~source ~regs_after
  | E.E_signal { tid; signo; point; disposition } ->
    on_signal r ~tid ~signo ~point ~disposition
  | E.E_syscall_enter { tid; nr; site; writable_site; via_abort } ->
    on_syscall_enter r ~tid ~nr ~site ~writable_site ~via_abort
  | E.E_sched { tid; point } -> run_to_point r (task r tid) point
  | E.E_insn_trap { tid; reg; value } -> on_insn_trap r ~tid ~reg ~value
  | E.E_exit { tid; status } -> on_exit r ~tid ~status
  | E.E_checksum { tid; value } -> (
    match K.find_task r.k tid with
    | Some t when T.is_alive t ->
      let now = Checksum.space t.T.cpu.Cpu.space in
      if now <> value then
        diverged
          "memory checksum mismatch for task %d at event %d (%#x vs \
           recorded %#x)"
          tid (cursor_index r) now value
    | Some _ | None -> ()))

(* Patched RDRAND sites stop so the E_insn_trap frame supplies the
   recorded value (same protocol as trapped RDTSC). *)
let install_rdrand_hooks k =
  for reg = 0 to Insn.num_regs - 1 do
    K.set_hook k
      (Syscallbuf.rdrand_hook_of_reg reg)
      (fun k task ->
        K.enter_stop k task
          (T.Stop_signal (Signals.make_info Signals.sigsegv (Signals.Tsc_trap reg))))
  done

(* A buffer that runs dry, or a record of another call, is a
   divergence at the frame being applied. *)
let install_hook r k =
  let hook =
    Syscallbuf.hook
      (Syscallbuf.Replay
         { fetch_clone =
             (fun cref ->
               Trace.file_sub r.trace cref.E.cr_path ~off:cref.E.cr_off
                 ~len:cref.E.cr_len);
           refill =
             (fun t ->
               let st = get_rt r t.T.tid in
               if Queue.is_empty st.batches then None
               else Some (Queue.pop st.batches)) })
  in
  K.set_hook k Syscallbuf.hook_number (fun k t ->
      try hook k t
      with Syscallbuf.Replay_mismatch msg ->
        diverged "%s (event %d)" msg (cursor_index r))

(* A session at [frame] of [trace], around a fresh kernel. *)
let session ~opts ~frame trace =
  let cursor = Trace.Reader.open_ trace in
  Trace.Reader.seek cursor frame;
  let k = K.create ~seed () in
  let r =
    { k;
      trace;
      opts;
      rts = Hashtbl.create 16;
      locals = Syscallbuf.locals ();
      cursor;
      root_tid = 0;
      installed = [];
      reuse = Snapshot.reuse ();
      tm_base = Telemetry.snapshot () }
  in
  install_hook r k;
  install_rdrand_hooks k;
  r

let start trace = session ~opts:default_opts ~frame:0 trace

let at_end r = Trace.Reader.at_end r.cursor

(* Apply the next frame; returns it.  The cursor advances only after the
   frame applies cleanly, so divergence reports carry its index. *)
let step r =
  match Trace.Reader.peek r.cursor with
  | None -> invalid_arg "Replayer.step: at end of trace"
  | Some e ->
    apply_frame r e;
    Trace.Reader.seek r.cursor (cursor_index r + 1);
    e

let stats_of r =
  let exit_status =
    match Hashtbl.find_opt r.k.K.procs r.root_tid with
    | Some p -> p.T.exit_code
    | None -> None
  in
  { wall_time = K.now r.k;
    events_applied = cursor_index r;
    n_ptrace_stops = r.k.K.trace_stop_count;
    exit_status;
    telemetry = Telemetry.since r.tm_base }

let replay ?(opts = default_opts) ?(on_frame = fun (_ : K.t) -> ()) trace =
  let r = session ~opts ~frame:0 trace in
  (* The session's one bracket: on every exit the root scope closes,
     then the session's clock is cleared. *)
  Timeline.set_virtual_clock (fun () -> K.now r.k);
  Fun.protect ~finally:Timeline.clear_virtual_clock @@ fun () ->
  Timeline.scope "replay.session" @@ fun () ->
  (try
     while not (at_end r) do
       ignore (step r);
       on_frame r.k
     done
   with Divergence _ as exn ->
     (* The emergency debugger (§6.2): dump the replay state next to the
        divergence report. *)
     Log.err (fun m ->
         m "replay diverged at frame %d:@,%a" (cursor_index r) Diagnostics.pp r.k);
     raise exn);
  (stats_of r, r.k)

(* ---- checkpoints (paper §6.1): the session's glue to {!Snapshot} ---- *)

let snapshot r =
  Snapshot.capture r.reuse r.k r.locals ~extras:(get_rt r)
    ~frame:(cursor_index r) ~root:r.root_tid ~installed:r.installed r.trace

let restore trace snap =
  match Snapshot.check trace snap with
  | Some e -> Error e
  | None ->
    let r = session ~opts:default_opts ~frame:(Snapshot.frame snap) trace in
    r.root_tid <- Snapshot.root snap;
    r.installed <- Snapshot.installed snap;
    Snapshot.restore snap r.reuse r.k r.locals ~extras:(get_rt r) trace;
    Ok r

let restore_exn trace snap =
  match restore trace snap with
  | Ok r -> r
  | Error e -> raise (Snapshot.Restore_error e)
