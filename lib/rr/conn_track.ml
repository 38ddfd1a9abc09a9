(* Connection tracking over the recorded event stream (DESIGN.md §4k).

   Pure observation: the tracker folds over the frames of a recorded
   trace and assigns each frame to the connection owning its task.  All
   connection-key derivation — reading datagram source ports out of
   recvfrom frames — lives here and nowhere else (check_format.sh). *)

module E = Event

let tm_frames_tagged = Telemetry.counter "shard.frames_tagged"
let tm_requests = Telemetry.counter "serve.requests"

type conn_state = {
  cs_conn : int;
  cs_client_port : int;
  mutable cs_client_tid : int;
  mutable cs_worker_tid : int;
  mutable cs_frames : int;
  mutable cs_requests : int;
}

type info = {
  conn : int;
  client_port : int;
  client_tid : int;
  worker_tid : int;
  frames : int;
  requests : int;
}

type t = {
  own_port : (int, int) Hashtbl.t; (* tid -> port it bound *)
  port_task : (int, int) Hashtbl.t; (* port -> binding tid *)
  conn_of : (int, int) Hashtbl.t; (* tid -> connection id *)
  port_conn : (int, int) Hashtbl.t; (* client port -> connection id *)
  pending : (int, int) Hashtbl.t; (* tid -> conn its next fork inherits *)
  conns : (int, conn_state) Hashtbl.t;
  untagged : (int, int list ref) Hashtbl.t;
      (* tid -> control-tagged frame indices, for retroactive retag *)
  mutable next_id : int;
  mutable tag_arr : int array;
  mutable n : int;
}

let create () =
  { own_port = Hashtbl.create 16;
    port_task = Hashtbl.create 16;
    conn_of = Hashtbl.create 16;
    port_conn = Hashtbl.create 16;
    pending = Hashtbl.create 4;
    conns = Hashtbl.create 16;
    untagged = Hashtbl.create 16;
    next_id = 1;
    tag_arr = Array.make 256 0;
    n = 0 }

let conn_of t tid = Option.value ~default:0 (Hashtbl.find_opt t.conn_of tid)

(* Recorded source-address writes are 8 bytes, little-endian. *)
let le64 s =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  !v

(* The peer's port out of a traced recvfrom frame: the kernel wrote it
   as a u64 at the src-address argument (r4), and the recorder logged
   that write verbatim. *)
let src_of_traced ~regs_after ~writes =
  let src_addr = regs_after.(4) in
  if regs_after.(0) < 0 || src_addr = 0 then None
  else
    List.find_map
      (fun { E.addr; data } ->
        if addr = src_addr && String.length data = 8 then Some (le64 data)
        else None)
      writes

(* Buffered recvfrom records carry no registers; the src-address write
   is the trailing 8-byte write of the record (payloads are never 8
   bytes in the serve workload, and non-datagram buffered reads have no
   trailing u64 companion write). *)
let src_of_buffered (br : E.buf_record) =
  if br.E.br_aborted || br.E.br_result < 0 then None
  else
    List.fold_left
      (fun acc { E.data; _ } ->
        if String.length data = 8 then Some (le64 data) else acc)
      None br.E.br_writes

let note_bind t ~tid ~port =
  Hashtbl.replace t.own_port tid port;
  Hashtbl.replace t.port_task port tid

(* Retroactively move one frame from control to [conn]. *)
let retag t i conn cs =
  if t.tag_arr.(i) = 0 then begin
    t.tag_arr.(i) <- conn;
    cs.cs_frames <- cs.cs_frames + 1;
    Telemetry.incr tm_frames_tagged
  end

(* A task just assigned to [conn] retroactively owns its earlier
   control-tagged frames: they ran on this task alone, and a shard that
   drops them never schedules the task at all — so no other
   connection's shard needs them.  The clone frame that created the
   task is NOT retagged: it executes on the (shared) parent, whose
   replayed frame stream must stay intact in every shard.  Likewise
   frames of still-shared tasks — the accept loop, the load generator —
   are never retagged. *)
let adopt_task t ~tid ~conn cs =
  match Hashtbl.find_opt t.untagged tid with
  | Some idxs ->
    List.iter (fun i -> retag t i conn cs) !idxs;
    Hashtbl.remove t.untagged tid
  | None -> ()

(* A recvfrom observed on task [tid] with source port [src]. *)
let note_recv t ~tid ~src =
  if src <> 0 then begin
    match Hashtbl.find_opt t.conn_of tid with
    | Some c ->
      (* Connection traffic; worker-side receives are the requests. *)
      (match Hashtbl.find_opt t.conns c with
      | Some cs when cs.cs_worker_tid = tid ->
        cs.cs_requests <- cs.cs_requests + 1;
        Telemetry.incr tm_requests
      | _ -> ())
    | None ->
      if not (Hashtbl.mem t.port_conn src) then begin
        (* Accept event: a control task heard from a never-seen peer
           port.  Open the connection, arm the accept loop's next fork
           to inherit it, and retroactively assign the peer task. *)
        let c = t.next_id in
        t.next_id <- c + 1;
        Hashtbl.replace t.port_conn src c;
        let cs =
          { cs_conn = c; cs_client_port = src; cs_client_tid = -1;
            cs_worker_tid = -1; cs_frames = 0; cs_requests = 0 }
        in
        Hashtbl.replace t.conns c cs;
        Hashtbl.replace t.pending tid c;
        match Hashtbl.find_opt t.port_task src with
        | Some client ->
          Hashtbl.replace t.conn_of client c;
          cs.cs_client_tid <- client;
          adopt_task t ~tid:client ~conn:c cs
        | None -> ()
      end
  end

let note_clone t ~parent ~child =
  match Hashtbl.find_opt t.conn_of parent with
  | Some c -> Hashtbl.replace t.conn_of child c
  | None -> (
    match Hashtbl.find_opt t.pending parent with
    | Some c ->
      Hashtbl.remove t.pending parent;
      Hashtbl.replace t.conn_of child c;
      (match Hashtbl.find_opt t.conns c with
      | Some cs -> cs.cs_worker_tid <- child
      | None -> ())
    | None -> ())

let push_tag t tag =
  if t.n = Array.length t.tag_arr then begin
    let bigger = Array.make (2 * t.n) 0 in
    Array.blit t.tag_arr 0 bigger 0 t.n;
    t.tag_arr <- bigger
  end;
  t.tag_arr.(t.n) <- tag;
  t.n <- t.n + 1;
  if tag <> 0 then begin
    Telemetry.incr tm_frames_tagged;
    match Hashtbl.find_opt t.conns tag with
    | Some cs -> cs.cs_frames <- cs.cs_frames + 1
    | None -> ()
  end

let observe t e =
  (* The tag reflects ownership on entry to the frame — except that a
     task adopted by a connection (the client at accept time, the worker
     at its clone) retroactively takes its earlier frames with it; see
     [adopt_task].  The accept recvfrom itself stays a control frame:
     it runs on the shared accept-loop task. *)
  let tid = E.tid_of e in
  push_tag t (conn_of t tid);
  (if t.tag_arr.(t.n - 1) = 0 then
     let idxs =
       match Hashtbl.find_opt t.untagged tid with
       | Some r -> r
       | None ->
         let r = ref [] in
         Hashtbl.replace t.untagged tid r;
         r
     in
     idxs := (t.n - 1) :: !idxs);
  match e with
  | E.E_syscall { tid; nr; regs_after; writes; _ } ->
    if nr = Sysno.bind && regs_after.(0) = 0 then
      note_bind t ~tid ~port:regs_after.(2)
    else if nr = Sysno.recvfrom then (
      match src_of_traced ~regs_after ~writes with
      | Some src -> note_recv t ~tid ~src
      | None -> ())
  | E.E_buf_flush { tid; records } ->
    List.iter
      (fun br ->
        if br.E.br_nr = Sysno.recvfrom then
          match src_of_buffered br with
          | Some src -> note_recv t ~tid ~src
          | None -> ())
      records
  | E.E_clone { parent; child; _ } -> note_clone t ~parent ~child
  | _ -> ()

let tags t = Array.sub t.tag_arr 0 t.n

let connections t =
  Hashtbl.fold (fun _ cs acc -> cs :: acc) t.conns []
  |> List.sort (fun a b -> compare a.cs_conn b.cs_conn)
  |> List.map (fun cs ->
         { conn = cs.cs_conn; client_port = cs.cs_client_port;
           client_tid = cs.cs_client_tid; worker_tid = cs.cs_worker_tid;
           frames = cs.cs_frames; requests = cs.cs_requests })

let requests t =
  Hashtbl.fold (fun _ cs acc -> acc + cs.cs_requests) t.conns 0

let derive trace =
  let t = create () in
  Trace.Reader.iter (fun _ e -> observe t e) trace;
  t
