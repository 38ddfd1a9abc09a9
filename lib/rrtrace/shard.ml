(* Per-connection trace shards (DESIGN.md §4k).

   Splitting is a single reader pass feeding one writer per connection:
   control frames (tag 0) go to every writer, tagged frames to their
   connection's.  The shards land in a content-addressed Repo, so the
   parts every shard repeats — the executable image, file snapshots,
   chunks that happen to hold only control frames — are stored once. *)

let tm_shards = Telemetry.counter "shard.shards_written"
let tm_bytes_shared = Telemetry.counter "shard.bytes_shared"

type info = {
  si_conn : int;
  si_name : string;
  si_frames : int;
  si_own_frames : int;
  si_new_bytes : int;
  si_shared_bytes : int;
}

type result_ = {
  base : string;
  shards : info list;
  total_new_bytes : int;
  total_shared_bytes : int;
}

let shard_name ~base ~conn = Printf.sprintf "%s.conn-%04d" base conn

let check_tags ~tags trace =
  if Array.length tags <> Trace.n_events trace then
    invalid_arg
      (Printf.sprintf "Shard: %d tags for a %d-frame trace"
         (Array.length tags) (Trace.n_events trace))

(* A fresh writer inheriting the source trace's framing, preloaded with
   its images and file snapshots (shards reference them by path exactly
   as the full trace does; the repo dedups the bytes). *)
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
  let n = ref 0 in
  Trace.Reader.iter
    (fun i e ->
      if keeps ~conn tags.(i) then begin
        ignore (Trace.Writer.event w e);
        kept := i :: !kept;
        incr n
      end)
    trace;
  (Trace.Writer.finish w, Array.of_list (List.rev !kept))

(* ---- catalog ----------------------------------------------------------

   <repo>/shards/<base>: one text line per shard, deterministic order.
   The repo's manifests stay the single source of truth for GC; the
   catalog is derived listing data and can be regenerated by split. *)

let catalog_magic = "RRSHARD1"

let shards_dir repo = Filename.concat (Repo.path repo) "shards"
let catalog_path repo ~base = Filename.concat (shards_dir repo) base

let encode_catalog ~base shards =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %s\n" catalog_magic base);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %d %d %d %d\n" s.si_conn s.si_name s.si_frames
           s.si_own_frames s.si_new_bytes s.si_shared_bytes))
    shards;
  Buffer.contents b

let decode_catalog ~base data =
  let corrupt detail =
    Error (Repo.Manifest_corrupt { name = base; detail })
  in
  match String.split_on_char '\n' data with
  | header :: lines ->
    if header <> Printf.sprintf "%s %s" catalog_magic base then
      corrupt "bad shard catalog header"
    else begin
      let shards =
        List.filter_map
          (fun line ->
            if line = "" then None
            else
              match String.split_on_char ' ' line with
              | [ c; name; f; own; nb; sb ] -> (
                try
                  Some
                    { si_conn = int_of_string c; si_name = name;
                      si_frames = int_of_string f;
                      si_own_frames = int_of_string own;
                      si_new_bytes = int_of_string nb;
                      si_shared_bytes = int_of_string sb }
                with Failure _ -> None)
              | _ -> None)
          lines
      in
      if shards = [] then corrupt "empty shard catalog" else Ok shards
    end
  | [] -> corrupt "empty shard catalog"

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

let split ?only ~repo ~base ~tags trace =
  check_tags ~tags trace;
  let conns = conn_ids ?only tags in
  (* One writer per connection, fed by a single pass. *)
  let writers = List.map (fun c -> (c, shard_writer trace, ref 0, ref 0)) conns in
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
  let rec store acc = function
    | [] -> Ok (List.rev acc)
    | (c, w, frames, own) :: rest -> (
      let shard = Trace.Writer.finish w in
      let name = shard_name ~base ~conn:c in
      match Repo.store_trace repo ~name shard with
      | Error e -> Error e
      | Ok sr ->
        Telemetry.incr tm_shards;
        Telemetry.add tm_bytes_shared sr.Repo.shared_bytes;
        let inf =
          { si_conn = c; si_name = name; si_frames = !frames;
            si_own_frames = !own; si_new_bytes = sr.Repo.new_bytes;
            si_shared_bytes = sr.Repo.shared_bytes }
        in
        store (inf :: acc) rest)
  in
  match store [] writers with
  | Error e -> Error e
  | Ok shards -> (
    match
      Io.mkdir_if_missing (shards_dir repo);
      let wr = Io.file_writer (catalog_path repo ~base) in
      Io.write wr (encode_catalog ~base shards);
      Io.close_writer wr
    with
    | () ->
      let total_new =
        List.fold_left (fun a s -> a + s.si_new_bytes) 0 shards
      in
      let total_shared =
        List.fold_left (fun a s -> a + s.si_shared_bytes) 0 shards
      in
      Ok
        { base; shards; total_new_bytes = total_new;
          total_shared_bytes = total_shared }
    | exception Io.Io_error e -> Error (Repo.Io e))

let list repo ~base =
  let p = catalog_path repo ~base in
  if not (Sys.file_exists p) then
    Error (Repo.Manifest_corrupt { name = base; detail = "no shard catalog" })
  else
    match Io.read_all (Io.file_reader p) with
    | data -> decode_catalog ~base data
    | exception Io.Io_error e -> Error (Repo.Io e)

let load repo ~base ~conn = Repo.load_trace repo ~name:(shard_name ~base ~conn)
