(* Checkpoints of a whole replay (paper §6.1): capture, restore and the
   durable blob codec.  Restoring builds a fresh kernel around the
   snapshot's copy-on-write pages — the mechanism behind rr's reverse
   execution.

   Most spaces are not written between two checkpoints, so a snapshot
   forks only those that were: [reuse.forks] keeps, per space id, the
   last fork of a live space and the space's generation then, and a
   space that is physically the same, at the same generation and maps
   no [MAP_SHARED] region reuses that fork.  A space with shared frames
   always forks again, with the others of its snapshot, so they alias
   one copy of each shared frame.  Snapshot spaces are never written
   (a restore forks them), so one fork serves every snapshot that
   reuses it.  Likewise a process's handler table and a task's
   registers are copied only when a slot has changed since the last
   snapshot took them ([reuse.sighands], [reuse.regs]); a restore,
   which only reads them, seeds all three with its snapshot's. *)

module A = Addr_space
module T = Task
module K = Kernel
module E = Event
module Pool = Trace_index.Pool

type extras = {
  batches : E.buf_record list Queue.t;
  mutable next_resume : T.resume_how;
  mutable in_blocked_syscall : bool;
}

let extras () =
  { batches = Queue.create (); next_resume = T.R_cont;
    in_blocked_syscall = false }

(* Where a checkpoint fork's space lies encoded against [pool]: [len]
   bytes of [blob] from [at].  A blob that names the fork again copies
   them instead of encoding the space again ([put_space]). *)
type encoded = {
  mutable pool : Pool.t option;
  mutable blob : string;
  mutable at : int;
  mutable len : int;
}

let encoded () = { pool = None; blob = ""; at = 0; len = 0 }

(* A live space's last checkpoint fork, which still equals the space
   while it is the same space at the same generation and maps no
   [MAP_SHARED] region ([checkpoint_fork]). *)
type fork = { live : A.t; gen : int; copy : A.t; encoded : encoded }

type reuse = {
  mutable forks : (int, fork) Hashtbl.t; (* space id -> last fork *)
  mutable sighands : (int * Signals.action array) list;
      (* pid, the handler table the last snapshot took *)
  regs : (int, int array) Hashtbl.t; (* tid -> the registers it took *)
}

let reuse () =
  { forks = Hashtbl.create 16; sighands = []; regs = Hashtbl.create 16 }

let tm_ckpt_save = Telemetry.counter "replay.checkpoint_save"
let tm_ckpt_restore = Telemetry.counter "replay.checkpoint_restore"
let tm_ckpt_fork = Telemetry.counter "replay.checkpoint_fork"
let tm_ckpt_reuse = Telemetry.counter "replay.checkpoint_reuse"

let maps_shared (a : A.t) =
  List.exists (fun (g : A.region) -> g.A.shared) (A.regions a)

(* The handler table the last snapshot took for [pid], or [||]. *)
let rec sighand_of pid = function
  | (p, h) :: rest -> if p = pid then h else sighand_of pid rest
  | [] -> [||]

(* [prev] if each of its slots is physically [live]'s, else a copy of
   [live].  One function per element type, and no bounds checks once
   the lengths agree: a polymorphic or checked loop took longer than
   the copy it saves. *)
let reuse_actions (prev : Signals.action array) live =
  let n = Array.length live and i = ref 0 in
  if Array.length prev = n then
    while !i < n && Array.unsafe_get prev !i == Array.unsafe_get live !i do
      incr i
    done
  else i := -1;
  if !i = n then prev else Array.copy live

let reuse_regs (prev : int array) live =
  let n = Array.length live and i = ref 0 in
  if Array.length prev = n then
    while !i < n && Array.unsafe_get prev !i = Array.unsafe_get live !i do
      incr i
    done
  else i := -1;
  if !i = n then prev else Array.copy live

let checkpoint_fork reuse forks copies (a : A.t) =
  let f =
    match Hashtbl.find_opt reuse.forks a.A.id with
    | Some f when f.live == a && f.gen = a.A.generation && not (maps_shared a)
      ->
      Telemetry.incr tm_ckpt_reuse;
      f
    | Some _ | None ->
      Telemetry.incr tm_ckpt_fork;
      { live = a;
        gen = a.A.generation;
        copy = A.fork_checkpoint copies a ~id:a.A.id;
        encoded = encoded () }
  in
  Hashtbl.replace forks a.A.id f;
  f

type snap_task = {
  sn_tid : int;
  sn_pid : int;
  sn_regs : int array;
  sn_pc : int;
  sn_rcb : int;
  sn_insns : int;
  sn_branches : int;
  sn_sigmask : int;
  sn_frames : int list;
  sn_dead : bool;
  sn_status : int;
  sn_seccomp : Bpf.program list;
  sn_tsc : bool;
  sn_batches : E.buf_record list list;
  sn_locals : Codec.slice; (* a decoded snapshot's lie in its blob *)
  sn_next_resume : T.resume_how;
  sn_in_blocked : bool;
  (* Scheduler time bounds: without them a restored task may be deemed
     runnable earlier than in the linear replay, skewing the clock. *)
  sn_tick_born : int;
  sn_last_wake : int;
  (* Task-directed signals queued but not yet delivered (e.g. SIGCHLDs
     awaiting the parent's next wait4): dropping them changes how the
     following frames replay. *)
  sn_pending : Signals.info list;
}

type snap_proc = {
  sp_pid : int;
  sp_parent : int;
  sp_space : A.t; (* a checkpoint fork taken at snapshot time *)
  sp_encoded : encoded; (* the fork's *)
  sp_threads : int list;
  sp_exit : int option;
  sp_reaped : bool;
  sp_cwd : string;
  sp_cmd : string;
  sp_children : int list;
  sp_owner : int option; (* the thread whose locals its page holds *)
  sp_shared_pending : Signals.info list;
  sp_sighand : Signals.action array; (* indexed by signo *)
}

type t = {
  snap_idx : int;
  snap_root : int;
  snap_procs : snap_proc list;
  snap_tasks : snap_task list;
  snap_installed : (string * string) list; (* exe path, trace image *)
  snap_clock : int;
  (* PRNG position and TSC base: restored so post-checkpoint entropy
     draws (PMU interrupt skid, TSC drift) continue the exact sequence a
     linear replay would see — otherwise the virtual clock of a restored
     session drifts from a from-zero replay's. *)
  snap_entropy : int64;
  snap_ktsc : int;
  (* Identity of the trace this snapshot was taken against, so restore
     can reject a mismatched (or salvaged-shorter) trace instead of
     replaying garbage. *)
  snap_trace_events : int;
  snap_trace_chunks : int;
  snap_trace_exe : string;
}

let no_locals = Codec.whole ""

(* Every live task must be parked at an event boundary. *)
let capture reuse k (locals : Syscallbuf.locals) ~extras ~frame ~root
    ~installed trace =
  Telemetry.incr tm_ckpt_save;
  Timeline.scope "replay.ckpt_save" @@ fun () ->
  let copies = A.shared_copies () in
  (* Rebuilt on every snapshot, so dead processes and their spaces drop
     out. *)
  let forks = Hashtbl.create 16 and sighands = ref [] in
  let procs =
    List.filter_map
      (fun (p : T.process) ->
        if p.T.exit_code <> None && p.T.reaped then None
        else begin
          let sighand =
            reuse_actions (sighand_of p.T.pid reuse.sighands) p.T.sighand
          in
          sighands := (p.T.pid, sighand) :: !sighands;
          let sp_space, sp_encoded =
            if p.T.exit_code = None then
              let f = checkpoint_fork reuse forks copies p.T.space in
              (f.copy, f.encoded)
            else (A.create ~id:p.T.space.A.id, encoded ())
          in
          Some
            { sp_pid = p.T.pid;
              sp_parent = p.T.parent;
              sp_space;
              sp_encoded;
              sp_threads = p.T.threads;
              sp_exit = p.T.exit_code;
              sp_reaped = p.T.reaped;
              sp_cwd = p.T.cwd;
              sp_cmd = p.T.cmd;
              sp_children = p.T.children;
              sp_owner = Hashtbl.find_opt locals.owner p.T.space.A.id;
              sp_shared_pending = p.T.shared_pending;
              sp_sighand = sighand }
        end)
      (K.all_procs k)
  in
  reuse.forks <- forks;
  reuse.sighands <- !sighands;
  let tasks =
    List.map
      (fun (t : T.t) ->
        let tid = t.T.tid in
        let x = extras tid in
        let prev = Option.value ~default:[||] (Hashtbl.find_opt reuse.regs tid) in
        let regs = reuse_regs prev t.T.cpu.Cpu.regs in
        if regs != prev then Hashtbl.replace reuse.regs tid regs;
        { sn_tid = tid;
          sn_pid = t.T.proc.T.pid;
          sn_regs = regs;
          sn_pc = t.T.cpu.Cpu.pc;
          sn_rcb = t.T.cpu.Cpu.pmu.Pmu.rcb;
          sn_insns = t.T.cpu.Cpu.pmu.Pmu.insns;
          sn_branches = t.T.cpu.Cpu.pmu.Pmu.branches;
          sn_sigmask = t.T.sigmask;
          sn_frames = t.T.sig_frames;
          sn_dead = not (T.is_alive t);
          sn_status = t.T.exit_status;
          sn_seccomp = t.T.seccomp;
          sn_tsc = t.T.cpu.Cpu.tsc_trap;
          sn_batches = List.of_seq (Queue.to_seq x.batches);
          sn_locals =
            Option.value ~default:no_locals (Hashtbl.find_opt locals.saved tid);
          sn_next_resume = x.next_resume;
          sn_in_blocked = x.in_blocked_syscall;
          sn_tick_born = t.T.tick_born;
          sn_last_wake = t.T.last_wake;
          sn_pending = t.T.pending })
      (K.all_tasks k)
  in
  { snap_idx = frame;
    snap_root = root;
    snap_procs = procs;
    snap_tasks = tasks;
    snap_installed = installed;
    snap_clock = K.now k;
    snap_entropy = Entropy.state k.K.entropy;
    snap_ktsc = k.K.tsc;
    snap_trace_events = Trace.n_events trace;
    snap_trace_chunks = Array.length (Trace.chunk_index trace);
    snap_trace_exe = Trace.initial_exe trace }

let frame snap = snap.snap_idx
let root snap = snap.snap_root
let installed snap = snap.snap_installed

type restore_error = {
  re_field : string;
  re_snapshot : string;
  re_trace : string;
}

exception Restore_error of restore_error

let restore_error_to_string e =
  Printf.sprintf
    "snapshot does not match trace: %s is %s in the snapshot, %s in the \
     trace"
    e.re_field e.re_snapshot e.re_trace

(* The snapshot must have been taken against this very trace: a
   different recording, or a salvaged prefix shorter than the
   checkpoint, is detected before any state is rebuilt. *)
let check trace snap =
  let mismatch field snapshot trace =
    Some { re_field = field; re_snapshot = snapshot; re_trace = trace }
  in
  let absent (_, image) =
    match Trace.image trace image with
    | _ -> None
    | exception Invalid_argument _ -> mismatch "image" image "absent"
  in
  if snap.snap_trace_exe <> Trace.initial_exe trace then
    mismatch "initial exe" snap.snap_trace_exe (Trace.initial_exe trace)
  else if snap.snap_trace_chunks <> Array.length (Trace.chunk_index trace)
  then
    mismatch "chunk count"
      (string_of_int snap.snap_trace_chunks)
      (string_of_int (Array.length (Trace.chunk_index trace)))
  else if snap.snap_trace_events <> Trace.n_events trace then
    mismatch "event count"
      (string_of_int snap.snap_trace_events)
      (string_of_int (Trace.n_events trace))
  else List.find_map absent snap.snap_installed

let restore snap reuse k (locals : Syscallbuf.locals) ~extras trace =
  Telemetry.incr tm_ckpt_restore;
  Telemetry.note ~frame:snap.snap_idx ~kind:"replay.checkpoint_restore" "";
  Timeline.scope "replay.ckpt_restore" @@ fun () ->
  List.iter
    (fun (path, image) ->
      Vfs.mkdir_p (K.vfs k) (Filename.dirname path);
      K.install_image k ~path (Trace.image trace image))
    snap.snap_installed;
  k.K.clock <- snap.snap_clock;
  Entropy.set_state k.K.entropy snap.snap_entropy;
  k.K.tsc <- snap.snap_ktsc;
  (* Processes first (spaces forked again, shared frames copied again,
     so the snapshot stays immutable and reusable).  Each space starts
     equal to the snapshot space it was forked from, which the next
     snapshot may reuse. *)
  let copies = A.shared_copies () in
  List.iter
    (fun sp ->
      K.reserve_id k sp.sp_pid;
      let space = A.fork_checkpoint copies sp.sp_space ~id:sp.sp_space.A.id in
      Hashtbl.replace reuse.forks space.A.id
        { live = space;
          gen = space.A.generation;
          copy = sp.sp_space;
          encoded = sp.sp_encoded };
      let p = T.make_process ~pid:sp.sp_pid ~parent:sp.sp_parent ~space in
      p.T.threads <- sp.sp_threads;
      p.T.exit_code <- sp.sp_exit;
      p.T.reaped <- sp.sp_reaped;
      p.T.cwd <- sp.sp_cwd;
      p.T.cmd <- sp.sp_cmd;
      p.T.children <- sp.sp_children;
      p.T.shared_pending <- sp.sp_shared_pending;
      Array.blit sp.sp_sighand 0 p.T.sighand 0
        (min (Array.length sp.sp_sighand) (Array.length p.T.sighand));
      reuse.sighands <- (sp.sp_pid, sp.sp_sighand) :: reuse.sighands;
      Hashtbl.replace k.K.procs sp.sp_pid p;
      Option.iter (Hashtbl.replace locals.owner space.A.id) sp.sp_owner)
    snap.snap_procs;
  List.iter
    (fun sn ->
      match Hashtbl.find_opt k.K.procs sn.sn_pid with
      | None -> () (* reaped process: its tasks are gone *)
      | Some proc ->
        K.reserve_id k sn.sn_tid;
        let cpu = Cpu.create ~space:proc.T.space in
        Array.blit sn.sn_regs 0 cpu.Cpu.regs 0 Insn.num_regs;
        cpu.Cpu.pc <- sn.sn_pc;
        cpu.Cpu.pmu.Pmu.rcb <- sn.sn_rcb;
        cpu.Cpu.pmu.Pmu.insns <- sn.sn_insns;
        cpu.Cpu.pmu.Pmu.branches <- sn.sn_branches;
        cpu.Cpu.tsc_trap <- sn.sn_tsc;
        let t = T.make_task ~tid:sn.sn_tid ~proc ~cpu in
        t.T.sigmask <- sn.sn_sigmask;
        t.T.sig_frames <- sn.sn_frames;
        t.T.seccomp <- sn.sn_seccomp;
        t.T.traced <- true;
        t.T.vdso_enabled <- false;
        t.T.affinity <- 0;
        if sn.sn_dead then begin
          t.T.state <- T.Dead;
          t.T.exit_status <- sn.sn_status
        end
        else t.T.state <- T.Stopped;
        K.add_task k t;
        let x = extras sn.sn_tid in
        List.iter (fun b -> Queue.push b x.batches) sn.sn_batches;
        x.next_resume <- sn.sn_next_resume;
        x.in_blocked_syscall <- sn.sn_in_blocked;
        Hashtbl.replace reuse.regs sn.sn_tid sn.sn_regs;
        if sn.sn_locals.Codec.len > 0 then
          Hashtbl.replace locals.saved sn.sn_tid sn.sn_locals;
        t.T.tick_born <- sn.sn_tick_born;
        t.T.last_wake <- sn.sn_last_wake;
        t.T.pending <- sn.sn_pending)
    snap.snap_tasks

(* ---- durable blobs ---------------------------------------------------

   Durable checkpoints: a snapshot flattened to bytes so the trace can
   carry it ('K' records) and a *future process* can restore without
   replaying from frame 0.  A blob holds fields only: every frame's
   bytes, task's locals and text run is an entry of the index's pool
   ([Trace_index.Pool]), which the blob names by id, so the checkpoints
   of one index store each distinct window once; the images a snapshot
   installed are named by their path in the trace.  A space's mappings
   are written as its own page table holds them, ascending, and decode
   straight into the two arrays a space keeps (page indexes, frames), so
   neither side sorts or hashes a mapping.  Decoding attaches all
   mappings of one frame ([Page_table]) to one [Mem.page] whose [refs]
   counts them, so the first write through any of them copies it,
   exactly like a COW fork.  Equal private frames merge, so a restored
   space can have a lower PSS than the live one had; shared frames never
   merge.  A blob of another version, or one naming an entry the pool
   lacks, raises [Codec.Corrupt] (the debugger's [index.fallback] path)
   until [rr_cli index] rebuilds the index. *)

let snapshot_codec_version = 3

let put_bpf_insn b (i : Bpf.insn) =
  let open Bpf in
  let jump tag (k, t, f) =
    Codec.put_uvarint b tag; Codec.put_int b k; Codec.put_int b t;
    Codec.put_int b f
  in
  match i with
  | Ld_abs n -> Codec.put_uvarint b 0; Codec.put_int b n
  | Ld_imm n -> Codec.put_uvarint b 1; Codec.put_int b n
  | Ldx_imm n -> Codec.put_uvarint b 2; Codec.put_int b n
  | Tax -> Codec.put_uvarint b 3
  | Txa -> Codec.put_uvarint b 4
  | St n -> Codec.put_uvarint b 5; Codec.put_int b n
  | Ldm n -> Codec.put_uvarint b 6; Codec.put_int b n
  | Alu_and n -> Codec.put_uvarint b 7; Codec.put_int b n
  | Alu_or n -> Codec.put_uvarint b 8; Codec.put_int b n
  | Alu_add n -> Codec.put_uvarint b 9; Codec.put_int b n
  | Jmp n -> Codec.put_uvarint b 10; Codec.put_int b n
  | Jeq (k, t, f) -> jump 11 (k, t, f)
  | Jgt (k, t, f) -> jump 12 (k, t, f)
  | Jge (k, t, f) -> jump 13 (k, t, f)
  | Jset (k, t, f) -> jump 14 (k, t, f)
  | Ret n -> Codec.put_uvarint b 15; Codec.put_int b n
  | Ret_a -> Codec.put_uvarint b 16

let get_bpf_insn s : Bpf.insn =
  let open Bpf in
  match Codec.get_uvarint s with
  | 0 -> Ld_abs (Codec.get_int s)
  | 1 -> Ld_imm (Codec.get_int s)
  | 2 -> Ldx_imm (Codec.get_int s)
  | 3 -> Tax
  | 4 -> Txa
  | 5 -> St (Codec.get_int s)
  | 6 -> Ldm (Codec.get_int s)
  | 7 -> Alu_and (Codec.get_int s)
  | 8 -> Alu_or (Codec.get_int s)
  | 9 -> Alu_add (Codec.get_int s)
  | 10 -> Jmp (Codec.get_int s)
  | (11 | 12 | 13 | 14) as tag -> (
    let k = Codec.get_int s in
    let t = Codec.get_int s in
    let f = Codec.get_int s in
    match tag with
    | 11 -> Jeq (k, t, f)
    | 12 -> Jgt (k, t, f)
    | 13 -> Jge (k, t, f)
    | _ -> Jset (k, t, f))
  | 15 -> Ret (Codec.get_int s)
  | 16 -> Ret_a
  | n -> raise (Codec.Corrupt (Printf.sprintf "bpf insn tag %d" n))

let put_resume b (r : T.resume_how) =
  Codec.put_uvarint b
    (match r with
    | T.R_cont -> 0
    | T.R_syscall -> 1
    | T.R_singlestep -> 2
    | T.R_sysemu -> 3
    | T.R_sysemu_single -> 4)

let get_resume s : T.resume_how =
  match Codec.get_uvarint s with
  | 0 -> T.R_cont
  | 1 -> T.R_syscall
  | 2 -> T.R_singlestep
  | 3 -> T.R_sysemu
  | 4 -> T.R_sysemu_single
  | n -> raise (Codec.Corrupt (Printf.sprintf "resume tag %d" n))

let put_region b (r : A.region) =
  Codec.put_int b r.A.start;
  Codec.put_int b r.A.len;
  Codec.put_int b r.A.prot;
  (match r.A.kind with
  | A.Anon -> Codec.put_uvarint b 0
  | A.Stack -> Codec.put_uvarint b 1
  | A.File_backed { path; file_off } ->
    Codec.put_uvarint b 2;
    Codec.put_string b path;
    Codec.put_int b file_off
  | A.Scratch -> Codec.put_uvarint b 3
  | A.Rr_page -> Codec.put_uvarint b 4
  | A.Thread_locals -> Codec.put_uvarint b 5);
  Codec.put_bool b r.A.shared

let get_region s : A.region =
  let start = Codec.get_int s in
  let len = Codec.get_int s in
  let prot = Codec.get_int s in
  let kind =
    match Codec.get_uvarint s with
    | 0 -> A.Anon
    | 1 -> A.Stack
    | 2 ->
      let path = Codec.get_string s in
      let file_off = Codec.get_int s in
      A.File_backed { path; file_off }
    | 3 -> A.Scratch
    | 4 -> A.Rr_page
    | 5 -> A.Thread_locals
    | n -> raise (Codec.Corrupt (Printf.sprintf "region kind tag %d" n))
  in
  let shared = Codec.get_bool s in
  { A.start; len; prot; kind; shared }

(* How a space names its frames.  A private frame of a prot in 0..7 is
   named by its content: its mapping's code is 2u + 1, with u its prot
   plus 8 times 1 + the pool id of its 4096 bytes, or plus 8 times 0
   when it is all zero.  Equal private frames are one frame, whichever
   spaces and addresses map them: a write copies before it lands, so
   merging cannot be observed.  A space's section therefore depends on
   its own frames alone, and a checkpoint fork that a later snapshot
   reuses encodes to the same bytes ([encoded]).

   Any other frame is an entry of the blob's page table, and its code
   is 2e, e the entry.  A [MAP_SHARED] frame keeps its physical
   identity and is never merged: a write lands in place, so two shared
   frames with equal bytes must stay two entries, which name one pool
   id.  An entry is the frame's flags, prot and, unless it is all zero,
   its pool id.

   A decoded frame borrows its 4 KB from the pool ([Mem.borrow]), and
   only a frame written after a restore copies them. *)
module Page_table = struct
  let flag_shared = 1
  let flag_zero = 2

  type t = {
    pool : Pool.t;
    shareds : int Mem.Identity.t;
    mutable rev_entries : (int * int * int) list; (* flags, prot, pool id *)
    mutable next : int;
    mutable named : bool; (* a code named an entry since it was cleared *)
  }

  let create pool =
    { pool; shareds = Mem.Identity.create (); rev_entries = []; next = 0;
      named = false }

  (* -1 for an all-zero frame. *)
  let pool_id t (p : Mem.page) =
    if Mem.is_zero p then -1
    else
      Pool.intern t.pool
        { Codec.str = Bytes.unsafe_to_string p.Mem.bytes;
          pos = p.Mem.off;
          len = Mem.page_size }

  let add t (p : Mem.page) =
    let id = t.next and w = pool_id t p in
    let flags =
      (if p.Mem.shared then flag_shared else 0)
      lor if w < 0 then flag_zero else 0
    in
    t.next <- id + 1;
    t.rev_entries <- (flags, p.Mem.prot, w) :: t.rev_entries;
    id

  let code t (p : Mem.page) =
    let prot = p.Mem.prot in
    if p.Mem.shared then begin
      t.named <- true;
      2 * Mem.Identity.find_or_add t.shareds p (fun () -> add t p)
    end
    else if prot land lnot 7 <> 0 then begin
      t.named <- true;
      2 * add t p
    end
    else (2 * (((pool_id t p + 1) lsl 3) lor prot)) + 1

  let put b t =
    Codec.put_uvarint b t.next;
    List.iter
      (fun (flags, prot, w) ->
        Codec.put_uvarint b flags;
        Codec.put_int b prot;
        if w >= 0 then Codec.put_uvarint b w)
      (List.rev t.rev_entries)

  (* [refs] starts at 0: every mapping increfs.  A zero frame maps the
     shared zero buffer and any other borrows its bytes where they lie
     in the pool, so a frame costs a record, not 4 KB. *)
  let frame pool ~prot ~shared w =
    if w < 0 then begin
      let p = Mem.fresh_page ~prot ~shared in
      Mem.decref p;
      p
    end
    else begin
      let w = Pool.get pool w in
      if w.len <> Mem.page_size then
        raise (Codec.Corrupt "snapshot: a frame's window is not a page");
      Mem.borrow ~prot ~shared w.str ~off:w.pos
    end

  let get pool s =
    Codec.get_array s (fun s ->
        let flags = Codec.get_uvarint s in
        if flags land lnot (flag_shared lor flag_zero) <> 0 then
          raise
            (Codec.Corrupt (Printf.sprintf "snapshot: page flags %d" flags));
        let prot = Codec.get_int s in
        let shared = flags land flag_shared <> 0 in
        frame pool ~prot ~shared
          (if flags land flag_zero <> 0 then -1 else Codec.get_uvarint s))
end

(* What an encode works in, kept from one encode to the next so that an
   encode allocates about its blob and the pool entries it adds: the
   blob's head (fields and page table) and body (procs and tasks), one
   text run and the bytes the pool reads it from, the text runs of the
   blob so far, and the spaces whose sections the blob holds ([put_space]).
   The program runs in one domain and an encode starts no other, so one
   of each serves every encode. *)
type scratch = {
  head : Buffer.t;
  body : Buffer.t;
  run : Buffer.t;
  mutable run_bytes : Bytes.t;
  runs : (int, (A.text_page * int) list) Hashtbl.t; (* key -> page, id *)
  mutable sections : (encoded * int * int) list; (* at in [body], len *)
}

let scratch =
  { head = Buffer.create 4096; body = Buffer.create 4096;
    run = Buffer.create 4096; run_bytes = Bytes.create 4096;
    runs = Hashtbl.create 32; sections = [] }

(* A space's text section is the pool ids of its text runs, one per
   non-empty text page in ascending key order: the page's last address,
   then its (address, instruction) entries in address order, so that
   decoding sizes the page's window once.  A run holds absolute
   addresses, so its bytes do not depend on the runs beside it, and the
   spaces of one snapshot share most of their pages copy-on-write:
   [scratch.runs] encodes each run once per blob, by page key and
   physical page. *)
let text_run pool key page =
  let known =
    match Hashtbl.find scratch.runs key with l -> l | exception Not_found -> []
  in
  match List.assq page known with
  | id -> id
  | exception Not_found ->
    let b = scratch.run
    and last = A.text_page_fold (fun addr _ _ -> addr) page (-1) in
    Buffer.clear b;
    Codec.put_int b last;
    A.text_page_fold
      (fun addr insn () ->
        Codec.put_int b addr;
        Image_codec.put_insn b insn)
      page ();
    let len = Buffer.length b in
    if Bytes.length scratch.run_bytes < len then
      scratch.run_bytes <- Bytes.create (2 * len);
    Buffer.blit b 0 scratch.run_bytes 0 len;
    let id =
      if last < 0 then -1
      else
        Pool.intern pool
          { Codec.str = Bytes.unsafe_to_string scratch.run_bytes; pos = 0; len }
    in
    Hashtbl.replace scratch.runs key ((page, id) :: known);
    id

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let put_keys b tbl =
  if Hashtbl.length tbl = 0 then Codec.put_uvarint b 0
  else Codec.put_list b Codec.put_int (sorted_keys tbl)

(* Mappings are (page index, code) in the space's own ascending index
   order, each index as its distance from the previous one: a run of
   zero pages costs two bytes a page. *)
let encode_space table b (a : A.t) =
  Codec.put_int b a.A.id;
  Codec.put_int b a.A.mmap_cursor;
  Codec.put_list b put_region a.A.regions;
  Codec.put_uvarint b (A.page_count a);
  ignore
    (A.fold_pages
       (fun idx p prev ->
         Codec.put_uvarint b (idx - prev - 1);
         Codec.put_uvarint b (Page_table.code table p);
         idx)
       a (-1));
  let text =
    A.text_fold_pages
      (fun key page ids ->
        let id = text_run table.Page_table.pool key page in
        if id < 0 then ids else id :: ids)
      a []
  in
  Codec.put_list b Codec.put_uvarint (List.rev text);
  put_keys b a.A.written_text;
  put_keys b a.A.breakpoints

(* A section that names no entry of the blob's page table is kept with
   the fork it encodes, as a window of the blob ([encode] notes where
   once the blob exists). *)
let put_space table b (e : encoded) (a : A.t) =
  match e.pool with
  | Some pool when pool == table.Page_table.pool ->
    Buffer.add_substring b e.blob e.at e.len
  | Some _ | None ->
    let at = Buffer.length b in
    table.Page_table.named <- false;
    encode_space table b a;
    if not table.Page_table.named then
      scratch.sections <- (e, at, Buffer.length b - at) :: scratch.sections

(* What the spaces of one blob share while it decodes: the pool, the
   page table, and each distinct text section decoded so far, by its
   bytes (its runs' ids).  A space whose text section is one of those
   adopts that space's pages copy-on-write instead of decoding them
   again. *)
type decoding = {
  blob : string;
  pool : Pool.t;
  pages : Mem.page array; (* the page table's entries *)
  zeros : Mem.page option array; (* prot -> the private zero frame *)
  privates : (int, Mem.page) Hashtbl.t; (* code -> a private frame *)
  texts : (string, A.t) Hashtbl.t;
}

let frame_of_code d code =
  if code land 1 = 0 then begin
    if code lsr 1 >= Array.length d.pages then
      raise (Codec.Corrupt "snapshot: page entry out of range");
    d.pages.(code lsr 1)
  end
  else
    let u = code lsr 1 in
    match
      if u < Array.length d.zeros then d.zeros.(u)
      else Hashtbl.find_opt d.privates code
    with
    | Some p -> p
    | None ->
      let p =
        Page_table.frame d.pool ~prot:(u land 7) ~shared:false ((u lsr 3) - 1)
      in
      if u < Array.length d.zeros then d.zeros.(u) <- Some p
      else Hashtbl.add d.privates code p;
      p

let get_text d s a =
  let at = Codec.pos s in
  let runs =
    Codec.get_list s (fun s -> Pool.get d.pool (Codec.get_uvarint s))
  in
  let key = String.sub d.blob at (Codec.pos s - at) in
  match Hashtbl.find d.texts key with
  | from -> A.text_share a ~from
  | exception Not_found ->
    List.iter
      (fun (run : Codec.slice) ->
        let r = Codec.source ~pos:run.pos ~len:run.len run.str in
        let last = Codec.get_int r in
        let addr = ref (Codec.get_int r) in
        let page a = a asr A.text_page_bits in
        if !addr > last || page !addr <> page last then
          raise (Codec.Corrupt "snapshot: text run span");
        A.text_reserve a ~lo:!addr ~last;
        A.text_set a !addr (Image_codec.get_insn r);
        while not (Codec.eof r) do
          addr := Codec.get_int r;
          A.text_set a !addr (Image_codec.get_insn r)
        done;
        if !addr <> last then raise (Codec.Corrupt "snapshot: text run span"))
      runs;
    Hashtbl.add d.texts key a

let get_space d s : A.t =
  let id = Codec.get_int s in
  let mmap_cursor = Codec.get_int s in
  let regions = Codec.get_list s get_region in
  let n_pages = Codec.get_count s in
  let idxs = Array.make n_pages 0 and frames = ref [||] in
  for i = 0 to n_pages - 1 do
    let prev = if i = 0 then -1 else idxs.(i - 1) in
    let idx = prev + 1 + Codec.get_uvarint s in
    if idx <= prev then raise (Codec.Corrupt "snapshot: page index order");
    idxs.(i) <- idx;
    let p = frame_of_code d (Codec.get_uvarint s) in
    if i = 0 then frames := Array.make n_pages p else !frames.(i) <- p
  done;
  let a = A.create ~id in
  get_text d s a;
  let written_text = Codec.get_list s Codec.get_int in
  let breakpoints = Codec.get_list s Codec.get_int in
  A.fill a ~mmap_cursor ~regions ~idxs ~frames:!frames ~written_text
    ~breakpoints;
  a

let put_sig_info b (i : Signals.info) =
  Codec.put_int b i.Signals.signo;
  (match i.Signals.origin with
  | Signals.User tid -> Codec.put_uvarint b 0; Codec.put_int b tid
  | Signals.Fault -> Codec.put_uvarint b 1
  | Signals.Tsc_trap r -> Codec.put_uvarint b 2; Codec.put_int b r
  | Signals.Desched -> Codec.put_uvarint b 3
  | Signals.Preempt -> Codec.put_uvarint b 4
  | Signals.Bkpt -> Codec.put_uvarint b 5
  | Signals.Step -> Codec.put_uvarint b 6);
  Codec.put_int b i.Signals.fault_addr

let get_sig_info s =
  let signo = Codec.get_int s in
  let origin =
    match Codec.get_uvarint s with
    | 0 -> Signals.User (Codec.get_int s)
    | 1 -> Signals.Fault
    | 2 -> Signals.Tsc_trap (Codec.get_int s)
    | 3 -> Signals.Desched
    | 4 -> Signals.Preempt
    | 5 -> Signals.Bkpt
    | 6 -> Signals.Step
    | n -> raise (Codec.Corrupt (Printf.sprintf "signal origin tag %d" n))
  in
  let fault_addr = Codec.get_int s in
  Signals.make_info ~fault_addr signo origin

let put_sig_action b (a : Signals.action) =
  (match a.Signals.disposition with
  | Signals.Default -> Codec.put_uvarint b 0
  | Signals.Ignore -> Codec.put_uvarint b 1
  | Signals.Handler addr -> Codec.put_uvarint b 2; Codec.put_int b addr);
  Codec.put_int b a.Signals.mask;
  Codec.put_int b a.Signals.flags

let get_sig_action s =
  let disposition =
    match Codec.get_uvarint s with
    | 0 -> Signals.Default
    | 1 -> Signals.Ignore
    | 2 -> Signals.Handler (Codec.get_int s)
    | n -> raise (Codec.Corrupt (Printf.sprintf "disposition tag %d" n))
  in
  let mask = Codec.get_int s in
  let flags = Codec.get_int s in
  let dflt = Signals.default_action in
  match disposition with
  | Signals.Default when mask = dflt.Signals.mask && flags = dflt.Signals.flags
    ->
    dflt
  | _ -> { Signals.disposition; mask; flags }

let put_snap_proc table b sp =
  Codec.put_int b sp.sp_pid;
  Codec.put_int b sp.sp_parent;
  put_space table b sp.sp_encoded sp.sp_space;
  Codec.put_list b Codec.put_int sp.sp_threads;
  (match sp.sp_exit with
  | None -> Codec.put_uvarint b 0
  | Some st ->
    Codec.put_uvarint b 1;
    Codec.put_int b st);
  Codec.put_bool b sp.sp_reaped;
  Codec.put_string b sp.sp_cwd;
  Codec.put_string b sp.sp_cmd;
  Codec.put_list b Codec.put_int sp.sp_children;
  (match sp.sp_owner with
  | None -> Codec.put_uvarint b 0
  | Some tid ->
    Codec.put_uvarint b 1;
    Codec.put_int b tid);
  Codec.put_list b put_sig_info sp.sp_shared_pending;
  Codec.put_array b put_sig_action sp.sp_sighand

let get_snap_proc d s =
  let sp_pid = Codec.get_int s in
  let sp_parent = Codec.get_int s in
  let sp_space = get_space d s in
  let sp_threads = Codec.get_list s Codec.get_int in
  let sp_exit =
    match Codec.get_uvarint s with
    | 0 -> None
    | 1 -> Some (Codec.get_int s)
    | n -> raise (Codec.Corrupt (Printf.sprintf "exit tag %d" n))
  in
  let sp_reaped = Codec.get_bool s in
  let sp_cwd = Codec.get_string s in
  let sp_cmd = Codec.get_string s in
  let sp_children = Codec.get_list s Codec.get_int in
  let sp_owner =
    match Codec.get_uvarint s with
    | 0 -> None
    | 1 -> Some (Codec.get_int s)
    | n -> raise (Codec.Corrupt (Printf.sprintf "owner tag %d" n))
  in
  let sp_shared_pending = Codec.get_list s get_sig_info in
  let sp_sighand = Codec.get_array s get_sig_action in
  { sp_pid; sp_parent; sp_space; sp_encoded = encoded (); sp_threads;
    sp_exit; sp_reaped; sp_cwd;
    sp_cmd; sp_children; sp_owner; sp_shared_pending; sp_sighand }

(* A task's locals are 0 when it has none, else 1 + their pool id. *)
let put_snap_task pool b sn =
  Codec.put_int b sn.sn_tid;
  Codec.put_int b sn.sn_pid;
  Codec.put_array b Codec.put_int sn.sn_regs;
  Codec.put_int b sn.sn_pc;
  Codec.put_int b sn.sn_rcb;
  Codec.put_int b sn.sn_insns;
  Codec.put_int b sn.sn_branches;
  Codec.put_int b sn.sn_sigmask;
  Codec.put_list b Codec.put_int sn.sn_frames;
  Codec.put_bool b sn.sn_dead;
  Codec.put_int b sn.sn_status;
  Codec.put_list b
    (fun b prog -> Codec.put_array b put_bpf_insn prog)
    sn.sn_seccomp;
  Codec.put_bool b sn.sn_tsc;
  Codec.put_list b
    (fun b batch -> Codec.put_list b E.put_buf_record batch)
    sn.sn_batches;
  Codec.put_uvarint b
    (if sn.sn_locals.Codec.len = 0 then 0
     else 1 + Pool.intern pool sn.sn_locals);
  put_resume b sn.sn_next_resume;
  Codec.put_bool b sn.sn_in_blocked;
  Codec.put_int b sn.sn_tick_born;
  Codec.put_int b sn.sn_last_wake;
  Codec.put_list b put_sig_info sn.sn_pending

let get_snap_task pool s =
  let sn_tid = Codec.get_int s in
  let sn_pid = Codec.get_int s in
  let sn_regs = Codec.get_array s Codec.get_int in
  let sn_pc = Codec.get_int s in
  let sn_rcb = Codec.get_int s in
  let sn_insns = Codec.get_int s in
  let sn_branches = Codec.get_int s in
  let sn_sigmask = Codec.get_int s in
  let sn_frames = Codec.get_list s Codec.get_int in
  let sn_dead = Codec.get_bool s in
  let sn_status = Codec.get_int s in
  let sn_seccomp =
    Codec.get_list s (fun s -> Codec.get_array s get_bpf_insn)
  in
  let sn_tsc = Codec.get_bool s in
  let sn_batches =
    Codec.get_list s (fun s -> Codec.get_list s E.get_buf_record)
  in
  let sn_locals =
    match Codec.get_uvarint s with
    | 0 -> no_locals
    | id -> Pool.get pool (id - 1)
  in
  let sn_next_resume = get_resume s in
  let sn_in_blocked = Codec.get_bool s in
  let sn_tick_born = Codec.get_int s in
  let sn_last_wake = Codec.get_int s in
  let sn_pending = Codec.get_list s get_sig_info in
  { sn_tid; sn_pid; sn_regs; sn_pc; sn_rcb; sn_insns; sn_branches;
    sn_sigmask; sn_frames; sn_dead; sn_status; sn_seccomp; sn_tsc;
    sn_batches; sn_locals; sn_next_resume; sn_in_blocked; sn_tick_born;
    sn_last_wake; sn_pending }

let encode pool snap =
  let b = scratch.head and body = scratch.body in
  Buffer.clear b;
  Buffer.clear body;
  Hashtbl.clear scratch.runs;
  scratch.sections <- [];
  Codec.put_uvarint b snapshot_codec_version;
  (* The frame, then the frames applied, which every session keeps
     equal to it. *)
  Codec.put_uvarint b snap.snap_idx;
  Codec.put_uvarint b snap.snap_idx;
  Codec.put_int b snap.snap_root;
  Codec.put_int b snap.snap_clock;
  let eb = Bytes.create 8 in
  Bytes.set_int64_le eb 0 snap.snap_entropy;
  Codec.put_bytes b eb;
  Codec.put_int b snap.snap_ktsc;
  Codec.put_uvarint b snap.snap_trace_events;
  Codec.put_uvarint b snap.snap_trace_chunks;
  Codec.put_string b snap.snap_trace_exe;
  Codec.put_list b
    (fun b (path, image) ->
      Codec.put_string b path;
      Codec.put_string b image)
    snap.snap_installed;
  (* Entry ids are assigned while the procs are encoded, and the page
     table goes first so that decoding is one pass: it ends the head,
     the procs and tasks make the body, and the blob is assembled once,
     at its final length. *)
  let table = Page_table.create pool in
  Codec.put_uvarint body (List.length snap.snap_procs);
  List.iter (put_snap_proc table body) snap.snap_procs;
  Codec.put_uvarint body (List.length snap.snap_tasks);
  List.iter (put_snap_task pool body) snap.snap_tasks;
  Page_table.put b table;
  let head = Buffer.length b in
  let blob = Bytes.create (head + Buffer.length body) in
  Buffer.blit b 0 blob 0 head;
  Buffer.blit body 0 blob head (Buffer.length body);
  let blob = Bytes.unsafe_to_string blob in
  List.iter
    (fun ((e : encoded), at, len) ->
      e.pool <- Some pool;
      e.blob <- blob;
      e.at <- head + at;
      e.len <- len)
    scratch.sections;
  scratch.sections <- [];
  blob

let decode pool (blob : Codec.slice) =
  let s = Codec.source ~pos:blob.pos ~len:blob.len blob.str in
  let v = Codec.get_uvarint s in
  if v <> snapshot_codec_version then
    raise (Codec.Corrupt (Printf.sprintf "snapshot codec version %d" v));
  let snap_idx = Codec.get_uvarint s in
  ignore (Codec.get_uvarint s : int);
  let snap_root = Codec.get_int s in
  let snap_clock = Codec.get_int s in
  let eb = Codec.get_bytes s in
  if Bytes.length eb <> 8 then
    raise (Codec.Corrupt "snapshot: bad entropy state");
  let snap_entropy = Bytes.get_int64_le eb 0 in
  let snap_ktsc = Codec.get_int s in
  let snap_trace_events = Codec.get_uvarint s in
  let snap_trace_chunks = Codec.get_uvarint s in
  let snap_trace_exe = Codec.get_string s in
  let snap_installed =
    Codec.get_list s (fun s ->
        let path = Codec.get_string s in
        (path, Codec.get_string s))
  in
  let d =
    { blob = blob.str; pool; pages = Page_table.get pool s;
      zeros = Array.make 8 None; privates = Hashtbl.create 16;
      texts = Hashtbl.create 8 }
  in
  let snap_procs = Codec.get_list s (get_snap_proc d) in
  let snap_tasks = Codec.get_list s (get_snap_task pool) in
  if not (Codec.eof s) then
    raise (Codec.Corrupt "snapshot: trailing bytes");
  { snap_idx; snap_root; snap_procs; snap_tasks;
    snap_installed; snap_clock; snap_entropy; snap_ktsc;
    snap_trace_events; snap_trace_chunks;
    snap_trace_exe }

