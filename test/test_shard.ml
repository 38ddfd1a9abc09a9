(* Tests for per-connection shards (DESIGN.md §4k): the serve workload,
   its frames tagged by the connection tracker, splits, through a
   repository, into one sub-trace per connection, and each sub-trace
   replays its connection's tasks exactly as the full trace does. *)

let ok = Test_repo.ok

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
  Test_repo.with_temp_repo @@ fun _dir repo ->
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
  let (_ : Repo.store_result) =
    ok (Repo.store_trace repo ~name:"serve" trace)
  in
  let base = Telemetry.snapshot () in
  let res = ok (Shard.split ~repo ~base:"serve" ~tags trace) in
  Alcotest.(check (pair int int))
    "shard.shards_written and shard.bytes_shared moved"
    (4, res.Shard.total_shared_bytes)
    (moved base "shard.shards_written", moved base "shard.bytes_shared");
  Alcotest.(check bool)
    "shards share bytes with the trace" true
    (res.Shard.total_shared_bytes > 0);
  if ok (Shard.list repo ~base:"serve") <> res.Shard.shards then
    Alcotest.fail "the shard catalog does not round-trip";
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
      let shard = ok (Shard.load repo ~base:"serve" ~conn:c) in
      if Trace.n_events shard >= Trace.n_events trace then
        Alcotest.failf "conn %d: the shard did not shrink (%d >= %d frames)" c
          (Trace.n_events shard) (Trace.n_events trace);
      let extracted, kept = Shard.extract ~tags ~conn:c trace in
      if Trace.Reader.to_array extracted <> Trace.Reader.to_array shard then
        Alcotest.failf
          "conn %d: the extracted shard differs from the stored one" c;
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
