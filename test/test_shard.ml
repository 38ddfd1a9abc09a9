(* Tests for per-connection shards (DESIGN.md §4k): the serve workload,
   its frames tagged by the connection tracker, splits into one trace
   file per connection, and each file replays its connection's tasks
   exactly as the full trace does. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected trace error: %a" Trace.pp_error e

(* A fresh directory under the temp dir, removed with its files. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "rr_shard" "" in
  let rm_rf () =
    Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:rm_rf (fun () -> f dir)

(* One task's registers and address-space digest (scratch and rr-private
   pages excluded by Checksum.space): the replayed state a shard must
   reproduce exactly. *)
let task_digest k tid =
  match Kernel.find_task k tid with
  | None -> None
  | Some t ->
    Some (Checksum.space t.Task.cpu.Cpu.space, Array.copy t.Task.cpu.Cpu.regs)

let replay_to trace upto =
  let r = Replayer.start trace in
  while Replayer.cursor_index r <= upto && not (Replayer.at_end r) do
    ignore (Replayer.step r)
  done;
  r

let moved base name =
  List.assoc name (Telemetry.since base).Telemetry.snap_counters

let test_shards_replay_their_connections () =
  with_temp_dir @@ fun dir ->
  let w =
    Wl_serve.make
      ~params:{ Wl_serve.default with Wl_serve.conns = 4; requests = 6 }
      ()
  in
  let trace, (_ : Recorder.stats), (_ : Kernel.t) =
    Recorder.record ~setup:w.Workload.setup ~exe:w.Workload.exe ()
  in
  let base = Telemetry.snapshot () in
  let ct = Conn_track.derive trace in
  let tags = Conn_track.tags ct in
  Alcotest.(check (pair int int))
    "serve.requests and shard.frames_tagged moved"
    (24, Array.fold_left (fun n t -> if t <> 0 then n + 1 else n) 0 tags)
    (moved base "serve.requests", moved base "shard.frames_tagged");
  let conns = Conn_track.connections ct in
  Alcotest.(check int) "connections" 4 (List.length conns);
  Alcotest.(check int) "requests" 24 (Conn_track.requests ct);
  List.iter
    (fun (i : Conn_track.info) ->
      if i.Conn_track.client_tid < 0 || i.Conn_track.worker_tid < 0 then
        Alcotest.failf "connection %d misses its client or worker task"
          i.Conn_track.conn)
    conns;
  let base = Telemetry.snapshot () in
  let shards = ok (Shard.split ~dir ~base:"serve" ~tags trace) in
  Alcotest.(check int) "shard.shards_written moved" 4
    (moved base "shard.shards_written");
  Alcotest.(check (list (pair int string)))
    "one file per connection, in connection order"
    (List.map
       (fun (i : Conn_track.info) ->
         let c = i.Conn_track.conn in
         (c, Printf.sprintf "serve.conn-%04d.trace" c))
       conns)
    (List.map
       (fun (s : Shard.info) -> (s.Shard.si_conn, Filename.basename s.si_path))
       shards);
  Alcotest.(check (list string)) "nothing else in the directory"
    (List.map (fun (s : Shard.info) -> Filename.basename s.si_path) shards)
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  (* Each connection's mid-stream frame, and its worker's and client's
     state there in one pass of the full trace (ascending targets). *)
  let targets =
    List.map
      (fun (i : Conn_track.info) ->
        let own = ref [] in
        Array.iteri
          (fun k t -> if t = i.Conn_track.conn then own := k :: !own)
          tags;
        let own = Array.of_list (List.rev !own) in
        if Array.length own = 0 then
          Alcotest.failf "connection %d owns no frames" i.Conn_track.conn;
        (own.(Array.length own / 2), i))
      conns
    |> List.sort compare
  in
  let full = Replayer.start trace in
  List.iter
    (fun (i_star, (i : Conn_track.info)) ->
      while Replayer.cursor_index full <= i_star do
        ignore (Replayer.step full)
      done;
      let c = i.Conn_track.conn in
      let k = Replayer.kernel full in
      let want_worker = task_digest k i.Conn_track.worker_tid in
      let want_client = task_digest k i.Conn_track.client_tid in
      let info = List.find (fun s -> s.Shard.si_conn = c) shards in
      let shard = ok (Trace.open_ info.Shard.si_path) in
      if Trace.n_events shard >= Trace.n_events trace then
        Alcotest.failf "conn %d: the shard did not shrink (%d >= %d frames)" c
          (Trace.n_events shard) (Trace.n_events trace);
      Alcotest.(check (pair int int))
        (Printf.sprintf "conn %d: frames and own frames" c)
        (info.Shard.si_frames, i.Conn_track.frames)
        (Trace.n_events shard, info.Shard.si_own_frames);
      let extracted, kept = Shard.extract ~tags ~conn:c trace in
      if Trace.Reader.to_array extracted <> Trace.Reader.to_array shard then
        Alcotest.failf
          "conn %d: the extracted shard differs from the saved one" c;
      (* The shard keeps the control frames and the connection's own:
         [i_star] is its [j_star]th frame. *)
      let j_star = ref (-1) in
      for k = 0 to i_star do
        if tags.(k) = 0 || tags.(k) = c then incr j_star
      done;
      Alcotest.(check int)
        (Printf.sprintf "conn %d: extract maps the shard frame back" c)
        i_star kept.(!j_star);
      let r = replay_to shard !j_star in
      let k = Replayer.kernel r in
      if task_digest k i.Conn_track.worker_tid <> want_worker then
        Alcotest.failf
          "conn %d: the worker's state differs from the full replay" c;
      if task_digest k i.Conn_track.client_tid <> want_client then
        Alcotest.failf
          "conn %d: the client's state differs from the full replay" c;
      match Replayer.replay shard with
      | (_ : Replayer.stats * Kernel.t) -> ()
      | exception Replayer.Divergence m ->
        Alcotest.failf "conn %d: the shard diverges: %s" c m)
    targets

let suites =
  [ ( "rr.shard",
      [ Alcotest.test_case "shards replay their connections" `Quick
          test_shards_replay_their_connections ] ) ]
