(* Per-connection trace shards (DESIGN.md §4k).

   Splitting is a single reader pass feeding one writer per connection:
   control frames (tag 0) go to every writer, tagged frames to their
   connection's.  Each finished shard is saved as its own trace file. *)

let tm_shards = Telemetry.counter "shard.shards_written"

type info = {
  si_conn : int;
  si_path : string;
  si_frames : int;
  si_own_frames : int;
}

let shard_path ~dir ~base ~conn =
  Filename.concat dir (Printf.sprintf "%s.conn-%04d.trace" base conn)

let check_tags ~tags trace =
  if Array.length tags <> Trace.n_events trace then
    invalid_arg
      (Printf.sprintf "Shard: %d tags for a %d-frame trace"
         (Array.length tags) (Trace.n_events trace))

(* A fresh writer inheriting the source trace's framing, preloaded with
   its images and file snapshots (shards reference them by path exactly
   as the full trace does). *)
let shard_writer trace =
  let w =
    Trace.Writer.create ~compress:(Trace.compressed trace)
      ~initial_exe:(Trace.initial_exe trace) ()
  in
  List.iter
    (fun (path, img) -> Trace.Writer.add_image w ~path img)
    (Trace.images trace);
  List.iter
    (fun (path, data) -> Trace.Writer.add_file w ~path ~cloned:true data)
    (Trace.files trace);
  w

(* The one filter both [extract] and [split] apply: a shard keeps the
   control frames and its own connection's. *)
let keeps ~conn tag = tag = 0 || tag = conn

let extract ~tags ~conn trace =
  if conn <= 0 then invalid_arg "Shard.extract: conn must be positive";
  check_tags ~tags trace;
  let w = shard_writer trace in
  let kept = ref [] in
  Trace.Reader.iter
    (fun i e ->
      if keeps ~conn tags.(i) then begin
        ignore (Trace.Writer.event w e);
        kept := i :: !kept
      end)
    trace;
  (Trace.Writer.finish w, Array.of_list (List.rev !kept))

(* ---- split ------------------------------------------------------------ *)

let conn_ids ?only tags =
  match only with
  | Some c -> if c > 0 && Array.exists (fun t -> t = c) tags then [ c ] else []
  | None ->
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun t -> if t > 0 && not (Hashtbl.mem seen t) then Hashtbl.add seen t ())
      tags;
    List.sort compare (Hashtbl.fold (fun c () acc -> c :: acc) seen [])

let split ?only ~dir ~base ~tags trace =
  check_tags ~tags trace;
  match Io.mkdir_if_missing dir with
  | exception Io.Io_error e -> Error (Trace.Io e)
  | () ->
    let conns = conn_ids ?only tags in
    (* One writer per connection, fed by a single pass. *)
    let writers =
      List.map (fun c -> (c, shard_writer trace, ref 0, ref 0)) conns
    in
    Trace.Reader.iter
      (fun i e ->
        let tag = tags.(i) in
        List.iter
          (fun (c, w, frames, own) ->
            if keeps ~conn:c tag then begin
              ignore (Trace.Writer.event w e);
              incr frames;
              if tag = c then incr own
            end)
          writers)
      trace;
    let rec save acc = function
      | [] -> Ok (List.rev acc)
      | (c, w, frames, own) :: rest -> (
        let path = shard_path ~dir ~base ~conn:c in
        match Trace.save (Trace.Writer.finish w) path with
        | Error e -> Error e
        | Ok () ->
          Telemetry.incr tm_shards;
          let inf =
            { si_conn = c; si_path = path; si_frames = !frames;
              si_own_frames = !own }
          in
          save (inf :: acc) rest)
    in
    save [] writers
