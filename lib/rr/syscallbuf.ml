(* In-process system-call interception (paper §3).

   The interception "library" lives at the patched syscall sites: the
   recorder rewrites a site's [Syscall] instruction into a [Hook] call,
   and this module implements what the injected library does when the
   hook runs — in guest context, against guest state (thread-locals page,
   trace buffer pages), with fixed deterministic RCB/instruction charges
   so recording and replay expose identical counter trajectories (§3.8).

   Record mode: perform the *untraced* syscall (allowed by the seccomp
   filter because the supervisor passes the untraced-instruction address),
   write a record into the guest trace buffer, copy outputs to their real
   destination.  Blocking syscalls arm the desched perf event first; if
   the syscall blocks, the desched signal interrupts it and the recorder
   converts it to a traced syscall (§3.3), marked here with an abort
   record.

   Replay mode: the untraced syscall becomes a no-op; results come out of
   the trace buffer, which the replayer refilled from the flush frame. *)

module A = Addr_space
module T = Task
module K = Kernel

let src = Logs.Src.create "rr.syscallbuf"

module Log = (val Logs.src_log src : Logs.LOG)

type mode =
  | Record of {
      clone_read : K.t -> T.t -> fd:int -> len:int -> Event.clone_ref option;
          (* §3.9: try to snapshot a large file read by block cloning;
             returns where in the trace the blocks went. *)
      extra_writes :
        K.t -> T.t -> nr:int -> args:int array -> result:int ->
        Event.mem_write list;
          (* Supervisor-maintained guest state (the fd-cloneability
             bitmap): already written to guest memory by the callback;
             the hook appends them to the record so replay reapplies
             them. *)
    }
  | Replay of {
      fetch_clone : Event.clone_ref -> string;
          (* The clone's bytes, at most [cr_len] of them, in a string
             of their own. *)
      refill : T.t -> Event.buf_record list option;
          (* Pull the next recorded flush batch when the guest buffer is
             exhausted; batches arrive in trace order. *)
    }

(* Caps, mirroring rr's pragmatics. *)
let max_buffered_data = 8192
let clone_threshold = 4096

let space task = task.T.cpu.Cpu.space

let read_tl task off = A.read_u64 ~force:true (space task) (Layout.thread_locals_page + off)

let write_tl task off v =
  A.write_u64 ~force:true (space task) (Layout.thread_locals_page + off) v

let read_hdr task buf off = A.read_u64 ~force:true (space task) (buf + off)
let write_hdr task buf off v = A.write_u64 ~force:true (space task) (buf + off) v

(* ---- guest record serialization ----------------------------------- *)
(* Record: nr(8) result(8) flags(8) nwrites(8)
           { addr(8) len(8) data(padded to 8) }*
           [ cr_off(8) cr_addr(8) cr_len(8) when flags&2 ] *)

let flag_aborted = 1
let flag_cloned = 2

let round8 n = (n + 7) land lnot 7

let write_record task buf ~off br =
  let sp = space task in
  let flags =
    (if br.Event.br_aborted then flag_aborted else 0)
    lor match br.Event.br_clone with Some _ -> flag_cloned | None -> 0
  in
  A.write_u64 ~force:true sp (buf + off) br.Event.br_nr;
  A.write_u64 ~force:true sp (buf + off + 8) br.Event.br_result;
  A.write_u64 ~force:true sp (buf + off + 16) flags;
  A.write_u64 ~force:true sp (buf + off + 24) (List.length br.Event.br_writes);
  let cur = ref (off + 32) in
  List.iter
    (fun w ->
      A.write_u64 ~force:true sp (buf + !cur) w.Event.addr;
      A.write_u64 ~force:true sp (buf + !cur + 8) (String.length w.Event.data);
      A.write_sub ~force:true sp (buf + !cur + 16) w.Event.data 0
        (String.length w.Event.data);
      cur := !cur + 16 + round8 (String.length w.Event.data))
    br.Event.br_writes;
  (match br.Event.br_clone with
  | Some c ->
    A.write_u64 ~force:true sp (buf + !cur) c.Event.cr_off;
    A.write_u64 ~force:true sp (buf + !cur + 8) c.Event.cr_addr;
    A.write_u64 ~force:true sp (buf + !cur + 16) c.Event.cr_len;
    cur := !cur + 24
  | None -> ());
  !cur - off

(* The task's cloned-data trace file (§3.9).  The guest buffer stores
   no paths, so a clone record gets its task's; only clone records
   build the string. *)
let cloned_path task = Printf.sprintf "cloned/%d" task.T.tid

let read_record task buf ~off =
  let sp = space task in
  let br_nr = A.read_u64 ~force:true sp (buf + off) in
  let br_result = A.read_u64 ~force:true sp (buf + off + 8) in
  let flags = A.read_u64 ~force:true sp (buf + off + 16) in
  let nwrites = A.read_u64 ~force:true sp (buf + off + 24) in
  let cur = ref (off + 32) in
  let br_writes = ref [] in
  for _ = 1 to nwrites do
    let addr = A.read_u64 ~force:true sp (buf + !cur) in
    let len = A.read_u64 ~force:true sp (buf + !cur + 8) in
    let data = Bytes.to_string (A.read_bytes ~force:true sp (buf + !cur + 16) len) in
    br_writes := { Event.addr; data } :: !br_writes;
    cur := !cur + 16 + round8 len
  done;
  let br_clone =
    if flags land flag_cloned <> 0 then begin
      let cr_off = A.read_u64 ~force:true sp (buf + !cur) in
      let cr_addr = A.read_u64 ~force:true sp (buf + !cur + 8) in
      let cr_len = A.read_u64 ~force:true sp (buf + !cur + 16) in
      cur := !cur + 24;
      Some { Event.cr_path = cloned_path task; cr_off; cr_addr; cr_len }
    end
    else None
  in
  ( { Event.br_nr;
      br_result;
      br_writes = List.rev !br_writes;
      br_clone;
      br_aborted = flags land flag_aborted <> 0 },
    !cur - off )

(* Parse all records currently in the buffer (the recorder's flush). *)
let parse_all task =
  let buf = read_tl task Layout.tl_buf_ptr in
  if buf = 0 then []
  else begin
    let fill = read_hdr task buf Layout.sb_fill in
    let rec go off acc =
      if off >= fill then List.rev acc
      else
        let r, sz = read_record task buf ~off:(Layout.sb_hdr_size + off) in
        go (off + sz) (r :: acc)
    in
    go 0 []
  end

let reset task =
  let buf = read_tl task Layout.tl_buf_ptr in
  if buf <> 0 then begin
    write_hdr task buf Layout.sb_fill 0;
    write_hdr task buf Layout.sb_read_cursor 0
  end

(* The replayer refills the buffer from a flush frame. *)
let load_records task records =
  let buf = read_tl task Layout.tl_buf_ptr in
  assert (buf <> 0);
  let off = ref 0 in
  List.iter
    (fun br ->
      let sz = write_record task buf ~off:(Layout.sb_hdr_size + !off) br in
      off := !off + sz)
    records;
  write_hdr task buf Layout.sb_fill !off;
  write_hdr task buf Layout.sb_read_cursor 0

let buffer_fill task =
  let buf = read_tl task Layout.tl_buf_ptr in
  if buf = 0 then 0 else read_hdr task buf Layout.sb_fill

(* Append a record in record mode. *)
let append_record task br =
  let buf = read_tl task Layout.tl_buf_ptr in
  let fill = read_hdr task buf Layout.sb_fill in
  let sz = write_record task buf ~off:(Layout.sb_hdr_size + fill) br in
  write_hdr task buf Layout.sb_fill (fill + sz)

(* ---- deterministic PMU charges ------------------------------------ *)

let charge_hook task =
  let pmu = task.T.cpu.Cpu.pmu in
  pmu.Pmu.rcb <- pmu.Pmu.rcb + Layout.hook_rcb_cost;
  pmu.Pmu.insns <- pmu.Pmu.insns + Layout.hook_insn_cost

let charge_desched_arm task =
  let pmu = task.T.cpu.Cpu.pmu in
  pmu.Pmu.rcb <- pmu.Pmu.rcb + Layout.hook_desched_arm_rcb;
  pmu.Pmu.insns <- pmu.Pmu.insns + Layout.hook_desched_arm_insns

(* Static may-block rule: must be identical in record and replay, so it
   cannot consult the fd table (which replay does not maintain). *)
let statically_may_block ~nr =
  nr = Sysno.read || nr = Sysno.write || nr = Sysno.recvfrom
  || nr = Sysno.futex || nr = Sysno.wait4 || nr = Sysno.poll

(* Fall back to a traced syscall through the RR page's traced-fallback
   instruction: the seccomp filter will TRACE it and the recorder handles
   it like any other syscall. *)
let tm_hit = Telemetry.counter "syscallbuf.hit"
let tm_fallback = Telemetry.counter "syscallbuf.fallback"
let tm_replay_hit = Telemetry.counter "syscallbuf.replay_hit"
let tm_widened_hit = Telemetry.counter "syscallbuf.widened_hit"

let traced_fallback k task =
  Telemetry.incr tm_fallback;
  Timeline.instant ~lane:task.T.tid "syscallbuf.fallback";
  let regs = task.T.cpu.Cpu.regs in
  let ss =
    { T.nr = regs.(0);
      args = Array.init 6 (fun i -> regs.(i + 1));
      site = Layout.traced_fallback_insn;
      entry_regs = Cpu.copy_regs task.T.cpu }
  in
  K.enter_syscall k task ss ~ip:Layout.traced_fallback_insn

exception Replay_mismatch of string

(* The hook body.  Runs when a patched site executes. *)
let hook mode k task =
  charge_hook task;
  let regs = task.T.cpu.Cpu.regs in
  let nr = regs.(0) in
  let args = Array.init 6 (fun i -> regs.(i + 1)) in
  let locked = read_tl task Layout.tl_locked in
  let buf = read_tl task Layout.tl_buf_ptr in
  let buf_size = read_tl task Layout.tl_buf_size in
  let fill = if buf = 0 then 0 else read_hdr task buf Layout.sb_fill in
  let room = buf_size - Layout.sb_hdr_size - fill in
  let outs = Syscall_model.buffered_outputs ~nr ~args in
  let data_len_bound =
    List.fold_left (fun a o -> a + o.Syscall_model.bo_len) 0 outs
  in
  (* Block-cloning intent (§3.9) must be decided from guest-visible state
     only, so record and replay agree: the fd bitmap says whether the fd
     is a cloneable regular file. *)
  let fd_cloneable =
    args.(0) >= 0 && args.(0) < 64 && buf <> 0
    && A.read_u64 ~force:true (space task)
         (Layout.globals_page + Layout.gl_fd_bitmap)
       land (1 lsl args.(0))
       <> 0
  in
  let clone_intent =
    nr = Sysno.read && args.(2) >= clone_threshold && fd_cloneable
  in
  let buffered_data = if clone_intent then 0 else data_len_bound in
  (* Room slack: record header + clone ref + per-output write headers
     and padding.  Guest-static, so record and replay fall back at the
     same call. *)
  let slack = 64 + (24 * List.length outs) in
  (* An output range that is not mapped writable throughout takes the
     traced path, where the kernel's own answer to a faulting copy-out
     (a short count, or -EFAULT) is recorded.  Replay maps the same
     pages, so it falls back at the same call. *)
  let writable o =
    A.writable (space task)
      args.(o.Syscall_model.bo_arg)
      o.Syscall_model.bo_len
  in
  if
    locked <> 0 || buf = 0
    || not (Syscall_model.bufferable ~nr)
    || buffered_data > max_buffered_data
    || room < slack + buffered_data
    || not (List.for_all writable outs)
  then traced_fallback k task
  else begin
    write_tl task Layout.tl_locked 1;
    let may_block = statically_may_block ~nr in
    if may_block then charge_desched_arm task;
    match mode with
    | Record { clone_read; extra_writes } -> (
      (* Arm the desched event around the possibly-blocking syscall. *)
      if may_block then begin
        match task.T.desched with
        | Some ev -> Perf_event.enable ev
        | None -> ()
      end;
      (* §3.9 fast path: snapshot a big file read by cloning. *)
      let clone =
        if clone_intent then clone_read k task ~fd:args.(0) ~len:args.(2)
        else None
      in
      match clone with
      | Some cref -> (
        (* Perform the untraced read into its real destination; data is
           snapshotted by the clone, not the buffer. *)
        match K.untraced_syscall k task ~nr ~args ~ip:Layout.untraced_syscall_insn with
        | `Done r ->
          let cref = { cref with Event.cr_addr = args.(1); cr_len = max r 0 } in
          append_record task
            { Event.br_nr = nr;
              br_result = r;
              br_writes = extra_writes k task ~nr ~args ~result:r;
              br_clone = Some cref;
              br_aborted = false };
          (match task.T.desched with
          | Some ev -> Perf_event.disable ev
          | None -> ());
          Telemetry.incr tm_hit;
          Timeline.instant ~lane:task.T.tid "syscallbuf.hit";
          regs.(0) <- r;
          write_tl task Layout.tl_locked 0
        | `Blocked -> () (* file reads don't block; unreachable *)
        | `Denied -> failwith "syscallbuf: untraced syscall denied")
      | None -> (
        (* Redirect every output pointer into the trace buffer (§3.8),
           laying the areas out sequentially past the record slack.
           Copy-in arguments (poll's pollfd array) are staged into the
           buffer first so the kernel reads them from there. *)
        let data_area = buf + Layout.sb_hdr_size + fill + slack in
        let perform_args = Array.copy args in
        let redirects =
          let off = ref 0 in
          List.map
            (fun o ->
              let dst = data_area + !off in
              off := !off + round8 o.Syscall_model.bo_len;
              if o.Syscall_model.bo_copy_in then
                A.write_bytes ~force:true (space task) dst
                  (A.read_bytes ~force:true (space task)
                     args.(o.Syscall_model.bo_arg)
                     o.Syscall_model.bo_len);
              perform_args.(o.Syscall_model.bo_arg) <- dst;
              (args.(o.Syscall_model.bo_arg), dst, o.Syscall_model.bo_len))
            outs
        in
        match
          K.untraced_syscall k task ~nr ~args:perform_args
            ~ip:Layout.untraced_syscall_insn
        with
        | `Done r ->
          (* The model, not per-nr special cases, decides what the
             kernel wrote.  Outputs that landed in a redirected area
             are copied out to their real destination; outputs the
             kernel wrote directly (unredirected pointers) are read
             back in place.  Either way the bytes go into the record
             so replay reapplies them. *)
          let writes =
            if r < 0 then []
            else
              Syscall_model.outputs ~nr ~args ~result:r
              |> List.filter_map (fun { Syscall_model.out_addr; out_len } ->
                     if out_len <= 0 || out_addr = 0 then None
                     else begin
                       let data =
                         match
                           List.find_opt
                             (fun (orig, _, len) ->
                               orig <> 0 && out_addr >= orig
                               && out_addr + out_len <= orig + len)
                             redirects
                         with
                         | Some (orig, dst, _) ->
                           let d =
                             Bytes.unsafe_to_string
                               (A.read_bytes ~force:true (space task)
                                  (dst + (out_addr - orig))
                                  out_len)
                           in
                           A.write_bytes ~force:true (space task) out_addr
                             (Bytes.unsafe_of_string d);
                           d
                         | None ->
                           Bytes.unsafe_to_string
                             (A.read_bytes ~force:true (space task) out_addr
                                out_len)
                       in
                       Some { Event.addr = out_addr; data }
                     end)
          in
          append_record task
            { Event.br_nr = nr;
              br_result = r;
              br_writes = writes @ extra_writes k task ~nr ~args ~result:r;
              br_clone = None;
              br_aborted = false };
          (match task.T.desched with
          | Some ev -> Perf_event.disable ev
          | None -> ());
          Telemetry.incr tm_hit;
          if not (Syscall_model.original_wrapper ~nr) then
            Telemetry.incr tm_widened_hit;
          Timeline.instant ~lane:task.T.tid "syscallbuf.hit";
          regs.(0) <- r;
          write_tl task Layout.tl_locked 0
        | `Blocked ->
          (* The desched event fires; the recorder finishes the dance
             (abort record, traced restart, unlock). *)
          ()
        | `Denied -> failwith "syscallbuf: untraced syscall denied"))
    | Replay { fetch_clone; refill } ->
      let cursor = read_hdr task buf Layout.sb_read_cursor in
      let fill = read_hdr task buf Layout.sb_fill in
      let cursor =
        if cursor < fill then cursor
        else begin
          (* Exhausted: load the next recorded flush batch. *)
          match refill task with
          | Some records ->
            load_records task records;
            0
          | None ->
            raise
              (Replay_mismatch
                 (Printf.sprintf
                    "syscallbuf replay: task %d buffer underrun at %s"
                    task.T.tid (Sysno.name nr)))
        end
      in
      let br, sz = read_record task buf ~off:(Layout.sb_hdr_size + cursor) in
      write_hdr task buf Layout.sb_read_cursor (cursor + sz);
      if br.Event.br_nr <> nr then
        raise
          (Replay_mismatch
             (Printf.sprintf
                "syscallbuf replay divergence: recorded %s, got %s (task %d)"
                (Sysno.name br.Event.br_nr) (Sysno.name nr) task.T.tid));
      if br.Event.br_aborted then begin
        (* Recording aborted to a traced syscall here; hand control to
           the replayer to apply the via-abort syscall frame. *)
        write_tl task Layout.tl_locked 0;
        K.enter_stop k task
          (T.Stop_signal (Signals.make_info Signals.sigdesched Signals.Desched))
      end
      else begin
        (* The untraced syscall is a no-op during replay; results come
           from the buffer. *)
        List.iter
          (fun w ->
            A.write_sub ~force:true (space task) w.Event.addr w.Event.data 0
              (String.length w.Event.data))
          br.Event.br_writes;
        (match br.Event.br_clone with
        | Some cref ->
          let data = fetch_clone cref in
          A.write_sub ~force:true (space task) cref.Event.cr_addr data 0
            (String.length data)
        | None -> ());
        Telemetry.incr tm_replay_hit;
        regs.(0) <- br.Event.br_result;
        write_tl task Layout.tl_locked 0
      end
  end

(* ---- injection ----------------------------------------------------- *)

let hook_number = 1

(* Build the RR page and the thread-locals page in a fresh address space
   (paper: "immediately after each execve we map a page of memory at a
   fixed address").  The data pages for scratch and the trace buffer are
   mapped per task by the recorder. *)
let inject_rr_page k task =
  let sp = space task in
  A.text_set sp Layout.untraced_syscall_insn Insn.Syscall;
  A.text_set sp Layout.traced_fallback_insn Insn.Syscall;
  if A.find_region sp Layout.thread_locals_page = None then
    ignore
      (K.supervisor_map k task ~len:Layout.thread_locals_size ~prot:Mem.prot_rw
         ~kind:A.Thread_locals ~addr:Layout.thread_locals_page ());
  if A.find_region sp Layout.globals_page = None then
    ignore
      (K.supervisor_map k task ~len:Layout.globals_size ~prot:Mem.prot_rw
         ~kind:A.Rr_page ~addr:Layout.globals_page ())

(* Thread-locals contents are swapped on context switches because threads
   of one process share the page (paper §3.6).  [owner] names, per space
   id, the thread whose locals the page holds; [saved] keeps each
   thread's as it last left the page. *)
type locals = {
  owner : (int, int) Hashtbl.t;
  saved : (int, Codec.slice) Hashtbl.t;
}

let locals () = { owner = Hashtbl.create 8; saved = Hashtbl.create 16 }

let has_locals task =
  A.find_region (space task) Layout.thread_locals_page <> None

(* A copy of the page, in a string of its own. *)
let save_locals task =
  Codec.whole
    (Bytes.unsafe_to_string
       (A.read_bytes ~force:true (space task) Layout.thread_locals_page
          Layout.thread_locals_size))

(* Before [task] takes its space's page, the locals of the thread that
   holds it are saved, if that is a live sibling. *)
let save_owner l k task owner =
  if owner <> task.T.tid then
    match K.find_task k owner with
    | Some o when T.is_alive o -> Hashtbl.replace l.saved owner (save_locals o)
    | Some _ | None -> ()

let switch_locals l k task =
  if has_locals task then begin
    let sid = (space task).A.id in
    match Hashtbl.find_opt l.owner sid with
    | Some owner when owner = task.T.tid -> ()
    | Some owner ->
      save_owner l k task owner;
      (* Saved locals are read where they lie: a decoded checkpoint's
         are a view of its blob. *)
      (match Hashtbl.find_opt l.saved task.T.tid with
      | Some s when s.Codec.len > 0 ->
        A.write_sub ~force:true (space task) Layout.thread_locals_page s.str
          s.pos s.len
      | Some _ | None -> ());
      Hashtbl.replace l.owner sid task.T.tid
    | None -> Hashtbl.replace l.owner sid task.T.tid
  end

(* Map a task's scratch and trace-buffer pages at explicit addresses and
   initialize its thread-locals, keeping a sibling's.  The recorder picks
   addresses by slot; the replayer passes the recorded addresses so
   layouts agree. *)
let setup_task l k task ~scratch ~buf ~is_replay =
  let sp = space task in
  Option.iter (save_owner l k task) (Hashtbl.find_opt l.owner sp.A.id);
  if A.find_region sp scratch = None then
    ignore
      (K.supervisor_map k task ~len:Layout.scratch_size ~prot:Mem.prot_rw
         ~kind:A.Scratch ~addr:scratch ());
  if A.find_region sp buf = None then
    ignore
      (K.supervisor_map k task ~len:Layout.syscallbuf_size ~prot:Mem.prot_rw
         ~kind:A.Scratch ~addr:buf ());
  write_tl task Layout.tl_locked 0;
  write_tl task Layout.tl_scratch_ptr scratch;
  write_tl task Layout.tl_buf_ptr buf;
  write_tl task Layout.tl_buf_size Layout.syscallbuf_size;
  write_tl task Layout.tl_tid task.T.tid;
  write_hdr task buf Layout.sb_fill 0;
  write_hdr task buf Layout.sb_read_cursor 0;
  write_hdr task buf Layout.sb_is_replay (if is_replay then 1 else 0);
  write_hdr task buf Layout.sb_abort_commit 0;
  Hashtbl.replace l.saved task.T.tid (save_locals task);
  Hashtbl.replace l.owner sp.A.id task.T.tid;
  (scratch, buf)

(* Is the following instruction a shape the interception library's stubs
   know (paper §3.1: "frequently executed system call instructions are
   followed by a few known, fixed instruction sequences")?  Straight-line
   data instructions qualify; control transfers and the exotic
   instructions do not, leaving a realistic residue of unpatchable
   sites. *)
let patchable_follower = function
  | None -> false
  | Some insn -> (
    match insn with
    | Insn.Jcc _ (* result check, e.g. jge r0, 0 *)
    | Insn.Mov _ (* save result / set up next call *)
    | Insn.Alu _
    | Insn.Load _ | Insn.Store _ | Insn.Load8 _ | Insn.Store8 _
    | Insn.Push _ | Insn.Pop _
    | Insn.Nop | Insn.Pause
    | Insn.Ret ->
      true
    | Insn.Jmp _ | Insn.Call _ | Insn.Callr _ | Insn.Syscall | Insn.Rdtsc _
    | Insn.Rdrand _ | Insn.Cpuid_core _ | Insn.Cas _ | Insn.Emit _
    | Insn.Hook _ | Insn.Halt ->
      false)

(* Decide whether a syscall site can be patched to call the interception
   library (§3.1): known follower shape, static code, not the RR page. *)
let can_patch task ~site =
  let sp = space task in
  site < Layout.rr_page_text
  && (not (A.text_was_written sp site))
  && patchable_follower (A.text_get sp (site + 1))

(* RDRAND sites are patched to reg-encoding hooks (paper §2.6: "RR
   patches that explicitly"): hook 0x200+r emulates RDRAND into r. *)
let rdrand_hook_base = 0x200

let rdrand_hook_of_reg r = rdrand_hook_base lor r

let is_rdrand_hook n = n land lnot 0xf = rdrand_hook_base

let reg_of_rdrand_hook n = n land 0xf

(* Patch a site according to what lives there; both the recorder and the
   replayer apply the same transformation, so E_patch frames only carry
   the address. *)
let patch_site task ~site =
  match A.text_get (space task) site with
  | Some Insn.Syscall -> A.text_set (space task) site (Insn.Hook hook_number)
  | Some (Insn.Rdrand r) ->
    A.text_set (space task) site (Insn.Hook (rdrand_hook_of_reg r))
  | Some insn ->
    Fmt.invalid_arg "patch_site: unpatchable %a at %#x" Insn.pp insn site
  | None -> Fmt.invalid_arg "patch_site: no instruction at %#x" site

(* Scan a freshly exec'd image for RDRAND instructions; returns the sites
   (the recorder patches them and records patch frames). *)
let find_rdrand_sites task =
  A.text_fold
    (fun addr insn acc ->
      match insn with Insn.Rdrand _ -> addr :: acc | _ -> acc)
    (space task) []
  |> List.rev

(* Scan a freshly exec'd image for patchable syscall sites, for eager
   patching at exec time (§3.2): patching up front means the first
   execution of each site never takes the patch-time ptrace stop.  The
   syscall number at a site is only known at run time, but that is
   fine: the hook falls back to a traced syscall for anything it
   cannot buffer, so patching is always safe when the follower shape
   is. *)
let find_syscall_sites task =
  A.text_fold
    (fun addr insn acc ->
      match insn with
      | Insn.Syscall when can_patch task ~site:addr -> addr :: acc
      | _ -> acc)
    (space task) []
  |> List.rev
