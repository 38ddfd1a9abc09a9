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

type extras = {
  batches : E.buf_record list Queue.t;
  mutable next_resume : T.resume_how;
  mutable in_blocked_syscall : bool;
}

let extras () =
  { batches = Queue.create (); next_resume = T.R_cont;
    in_blocked_syscall = false }

(* A live space's last checkpoint fork, which still equals the space
   while it is the same space at the same generation and maps no
   [MAP_SHARED] region ([checkpoint_fork]). *)
type fork = { live : A.t; gen : int; copy : A.t }

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
        copy = A.fork_checkpoint copies a ~id:a.A.id }
  in
  Hashtbl.replace forks a.A.id f;
  f.copy

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
  snap_installed : (string * Image.t) list;
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
          Some
            { sp_pid = p.T.pid;
              sp_parent = p.T.parent;
              sp_space =
                (if p.T.exit_code = None then
                   checkpoint_fork reuse forks copies p.T.space
                 else A.create ~id:p.T.space.A.id);
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
  else None

let restore snap reuse k (locals : Syscallbuf.locals) ~extras =
  Telemetry.incr tm_ckpt_restore;
  Telemetry.note ~frame:snap.snap_idx ~kind:"replay.checkpoint_restore" "";
  Timeline.scope "replay.ckpt_restore" @@ fun () ->
  List.iter
    (fun (path, img) ->
      Vfs.mkdir_p (K.vfs k) (Filename.dirname path);
      K.install_image k ~path img)
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
        { live = space; gen = space.A.generation; copy = sp.sp_space };
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
   replaying from frame 0.  Each blob stands alone: its page table is
   content-addressed within the blob (see [Page_table]), and every space
   maps page indexes to table entries.  A space's mappings are written
   as its own page table holds them, ascending, and decode straight into
   the two arrays a space keeps (page indexes, frames), so neither side
   sorts or hashes a mapping.  Decoding attaches all mappings of an
   entry to one frame whose [refs] counts them, so the first write
   through any of them copies it, exactly like a COW fork.  Equal
   private frames merge, so a restored space can have a lower PSS than
   the live one had; shared frames never merge.  A blob of another
   version raises [Codec.Corrupt] (the debugger's [index.fallback]
   path) until [rr_cli index] rebuilds the index. *)

let snapshot_codec_version = 2

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

(* A part of a blob being encoded.  Fields go to [fields]; a large
   payload (a frame's bytes, a text run, a task's locals) stays where it
   lies, noted with the length [fields] had when it came, and is copied
   only into the blob.  Nothing writes a payload while its blob is
   encoded. *)
type section = {
  fields : Codec.sink;
  mutable payloads : (int * Codec.slice) list; (* newest first *)
  mutable payload_bytes : int;
}

let section () = { fields = Codec.sink (); payloads = []; payload_bytes = 0 }

(* A short payload costs less copied into [fields] than noted. *)
let put_payload sec (v : Codec.slice) =
  if v.len < 256 then Buffer.add_substring sec.fields v.str v.pos v.len
  else begin
    sec.payloads <- (Buffer.length sec.fields, v) :: sec.payloads;
    sec.payload_bytes <- sec.payload_bytes + v.len
  end

let section_length sec = Buffer.length sec.fields + sec.payload_bytes

(* Copies [sec] into [dst] from [pos]; returns the position after it. *)
let blit_section sec dst pos =
  let pos = ref pos and from = ref 0 in
  let fields upto =
    Buffer.blit sec.fields !from dst !pos (upto - !from);
    pos := !pos + upto - !from;
    from := upto
  in
  List.iter
    (fun (at, (v : Codec.slice)) ->
      fields at;
      Bytes.blit_string v.str v.pos dst !pos v.len;
      pos := !pos + v.len)
    (List.rev sec.payloads);
  fields (Buffer.length sec.fields);
  !pos

(* The page table of one blob.  An entry is a frame's flags, prot and,
   unless it is all zero, its 4096 bytes:
   - a private frame is keyed by its prot and its bytes, so equal
     private frames are one entry, whichever spaces and addresses map
     them: a write copies before it lands, so merging cannot be
     observed.  The key carries the hash of the frame's 4 KB window, so
     a first sight hashes the window once; a frame decoded from a blob
     borrows its window from the whole trace, which must not be hashed
     or compared;
   - an all-zero private frame is keyed by prot alone and its entry
     carries the zero flag instead of the bytes;
   - a [MAP_SHARED] frame keeps its physical identity and is never
     merged: a write lands in place, so two shared frames with equal
     bytes must stay two frames.
   A decoded entry borrows its 4 KB from the blob ([Mem.borrow]), and
   only a frame written after a restore copies them. *)
module Page_table = struct
  let flag_shared = 1
  let flag_zero = 2

  type key = { prot : Mem.prot; frame : Mem.page; hash : int }

  module Privates = Hashtbl.Make (struct
    type t = key

    let equal a b = a.prot = b.prot && Mem.equal_bytes a.frame b.frame
    let hash k = k.hash
  end)

  (* [zeros.(prot)] is the entry of the all-zero private frame of
     [prot], or -1.  A zero frame of a prot beyond the array is keyed in
     [privates] by its bytes, which only the zero frames of that prot
     equal. *)
  type t = {
    zeros : int array;
    privates : int Privates.t;
    shareds : int Mem.Identity.t;
    mutable rev_entries : (Mem.page * bool) list; (* frame, all zero *)
    mutable next : int;
  }

  let create () =
    { zeros = Array.make 8 (-1);
      privates = Privates.create 64;
      shareds = Mem.Identity.create ();
      rev_entries = [];
      next = 0 }

  let add t p ~zero =
    let id = t.next in
    t.next <- id + 1;
    t.rev_entries <- (p, zero) :: t.rev_entries;
    id

  let id_of t (p : Mem.page) =
    if p.Mem.shared then
      Mem.Identity.find_or_add t.shareds p (fun () ->
          add t p ~zero:(Mem.is_zero p))
    else begin
      let zero = Mem.is_zero p and prot = p.Mem.prot in
      if zero && prot >= 0 && prot < Array.length t.zeros then begin
        if t.zeros.(prot) < 0 then t.zeros.(prot) <- add t p ~zero;
        t.zeros.(prot)
      end
      else begin
        let key = { prot; frame = p; hash = Mem.hash p } in
        match Privates.find t.privates key with
        | id -> id
        | exception Not_found ->
          let id = add t p ~zero in
          Privates.add t.privates key id;
          id
      end
    end

  let put sec t =
    let b = sec.fields in
    Codec.put_uvarint b t.next;
    List.iter
      (fun ((p : Mem.page), zero) ->
        Codec.put_uvarint b
          ((if p.Mem.shared then flag_shared else 0)
          lor if zero then flag_zero else 0);
        Codec.put_int b p.Mem.prot;
        if not zero then
          put_payload sec
            { Codec.str = Bytes.unsafe_to_string p.Mem.bytes;
              pos = p.Mem.off;
              len = Mem.page_size })
      (List.rev t.rev_entries)

  (* [refs] starts at 0: every mapping increfs.  A zero entry maps the
     shared zero buffer and any other entry borrows its bytes where they
     lie in [blob], so an entry costs a frame record, not 4 KB. *)
  let get (blob : Codec.slice) s =
    Codec.get_array s (fun s ->
        let flags = Codec.get_uvarint s in
        if flags land lnot (flag_shared lor flag_zero) <> 0 then
          raise
            (Codec.Corrupt (Printf.sprintf "snapshot: page flags %d" flags));
        let prot = Codec.get_int s in
        let shared = flags land flag_shared <> 0 in
        if flags land flag_zero <> 0 then begin
          let p = Mem.fresh_page ~prot ~shared in
          Mem.decref p;
          p
        end
        else begin
          let off = Codec.pos s in
          Codec.skip s Mem.page_size;
          Mem.borrow ~prot ~shared blob.str ~off
        end)
end

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

(* A space's text section is its instruction count, then one run per
   text page in ascending key order: the page's (address, instruction)
   entries in address order.  A run holds absolute addresses, so its
   bytes do not depend on the runs beside it, and the spaces of one
   snapshot share most of their pages copy-on-write: [text_runs]
   encodes each run once per blob, by page key and physical page. *)
type text_run = {
  page : A.text_page;
  count : int;
  run : Codec.slice;
}

type text_runs = {
  by_key : (int, text_run list) Hashtbl.t;
  scratch : Buffer.t;
}

let text_runs () = { by_key = Hashtbl.create 32; scratch = Buffer.create 4096 }

let rec known_run page = function
  | r :: rest -> if r.page == page then r else known_run page rest
  | [] -> raise Not_found

let text_run runs key page =
  let known =
    match Hashtbl.find runs.by_key key with l -> l | exception Not_found -> []
  in
  match known_run page known with
  | r -> r
  | exception Not_found ->
    let b = runs.scratch in
    Buffer.clear b;
    let count =
      A.text_page_fold
        (fun addr insn n ->
          Codec.put_int b addr;
          Image_codec.put_insn b insn;
          n + 1)
        page 0
    in
    let r = { page; count; run = Codec.whole (Buffer.contents b) } in
    Hashtbl.replace runs.by_key key (r :: known);
    r

(* Mappings are (page index, entry id) in the space's own ascending
   index order, each index as its distance from the previous one: a run
   of pages costs about two bytes a page. *)
let put_space table runs sec (a : A.t) =
  let b = sec.fields in
  Codec.put_int b a.A.id;
  Codec.put_int b a.A.mmap_cursor;
  Codec.put_list b put_region a.A.regions;
  Codec.put_uvarint b (A.page_count a);
  ignore
    (A.fold_pages
       (fun idx p prev ->
         Codec.put_uvarint b (idx - prev - 1);
         Codec.put_uvarint b (Page_table.id_of table p);
         idx)
       a (-1));
  let text =
    A.text_fold_pages (fun key page acc -> text_run runs key page :: acc) a []
  in
  Codec.put_uvarint b (List.fold_left (fun n r -> n + r.count) 0 text);
  List.iter (fun r -> put_payload sec r.run) (List.rev text);
  Codec.put_list b Codec.put_int (sorted_keys a.A.written_text);
  Codec.put_list b Codec.put_int (sorted_keys a.A.breakpoints)

(* What the spaces of one blob share while it decodes: the page table,
   and the text sections decoded last.  A space whose text section is
   byte-for-byte one of those adopts that space's pages copy-on-write
   instead of decoding them again.  The encoding is self-delimiting, so
   equal bytes decode to equal text, and a mismatch shows within the
   shorter of the two sections: with a bounded candidate list, a forged
   blob cannot make the comparisons quadratic.  Offsets are into
   [blob.str], and a comparison stops at the blob's end, not the
   string's. *)
type decoding = {
  blob : Codec.slice;
  pages : Mem.page array;
  mutable texts : (int * int * A.t) list; (* offset, length, decoded by *)
}

let text_candidates = 4

(* The section at [a] ends before [b], so only [b]'s end needs a check. *)
let same_bytes (blob : Codec.slice) a b len =
  b + len <= blob.pos + blob.len && Compress.match_len blob.str a b len = len

let get_text d s a =
  let at = Codec.pos s in
  match
    List.find_opt (fun (off, len, _) -> same_bytes d.blob off at len) d.texts
  with
  | Some (_, len, from) ->
    A.text_share a ~from;
    Codec.skip s len
  | None ->
    let n_text = Codec.get_count s in
    for _ = 1 to n_text do
      let addr = Codec.get_int s in
      A.text_set a addr (Image_codec.get_insn s)
    done;
    d.texts <-
      List.filteri
        (fun i _ -> i < text_candidates)
        ((at, Codec.pos s - at, a) :: d.texts)

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
    let pid = Codec.get_uvarint s in
    if pid < 0 || pid >= Array.length d.pages then
      raise (Codec.Corrupt "snapshot: page id out of range");
    if i = 0 then frames := Array.make n_pages d.pages.(pid)
    else !frames.(i) <- d.pages.(pid)
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

(* Actions are immutable, so every slot holding the default triple, most
   of a handler table's 65, decodes to [Signals.default_action] itself
   and allocates nothing. *)
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

let put_snap_proc table runs sec sp =
  let b = sec.fields in
  Codec.put_int b sp.sp_pid;
  Codec.put_int b sp.sp_parent;
  put_space table runs sec sp.sp_space;
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
  { sp_pid; sp_parent; sp_space; sp_threads; sp_exit; sp_reaped; sp_cwd;
    sp_cmd; sp_children; sp_owner; sp_shared_pending; sp_sighand }

let put_snap_task sec sn =
  let b = sec.fields in
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
  Codec.put_uvarint b sn.sn_locals.Codec.len;
  put_payload sec sn.sn_locals;
  put_resume b sn.sn_next_resume;
  Codec.put_bool b sn.sn_in_blocked;
  Codec.put_int b sn.sn_tick_born;
  Codec.put_int b sn.sn_last_wake;
  Codec.put_list b put_sig_info sn.sn_pending

let get_snap_task s =
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
  let sn_locals = Codec.get_slice s in
  let sn_next_resume = get_resume s in
  let sn_in_blocked = Codec.get_bool s in
  let sn_tick_born = Codec.get_int s in
  let sn_last_wake = Codec.get_int s in
  let sn_pending = Codec.get_list s get_sig_info in
  { sn_tid; sn_pid; sn_regs; sn_pc; sn_rcb; sn_insns; sn_branches;
    sn_sigmask; sn_frames; sn_dead; sn_status; sn_seccomp; sn_tsc;
    sn_batches; sn_locals; sn_next_resume; sn_in_blocked; sn_tick_born;
    sn_last_wake; sn_pending }

let encode snap =
  let head = section () in
  let b = head.fields in
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
    (fun b (path, img) ->
      Codec.put_string b path;
      Image_codec.put_image b img)
    snap.snap_installed;
  (* Entry ids are assigned while the procs are encoded, and the page
     table goes first so that decoding is one pass: it ends [head], the
     procs and tasks make [body], and the blob is assembled once, at
     its final length. *)
  let table = Page_table.create () and runs = text_runs () in
  let body = section () in
  Codec.put_uvarint body.fields (List.length snap.snap_procs);
  List.iter (put_snap_proc table runs body) snap.snap_procs;
  Codec.put_uvarint body.fields (List.length snap.snap_tasks);
  List.iter (put_snap_task body) snap.snap_tasks;
  Page_table.put head table;
  let blob = Bytes.create (section_length head + section_length body) in
  ignore (blit_section body blob (blit_section head blob 0));
  Bytes.unsafe_to_string blob

let decode (blob : Codec.slice) =
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
        let img = Image_codec.get_image s in
        (path, img))
  in
  let d = { blob; pages = Page_table.get blob s; texts = [] } in
  let snap_procs = Codec.get_list s (get_snap_proc d) in
  let snap_tasks = Codec.get_list s get_snap_task in
  if not (Codec.eof s) then
    raise (Codec.Corrupt "snapshot: trailing bytes");
  { snap_idx; snap_root; snap_procs; snap_tasks;
    snap_installed; snap_clock; snap_entropy; snap_ktsc;
    snap_trace_events; snap_trace_chunks;
    snap_trace_exe }

