(** Per-connection trace shards (DESIGN.md §4k).

    A recorded server trace demuxes into one sub-trace per connection:
    shard [c] keeps the control frames (tag 0 — the root, accept loop
    and load generator, shared by every shard) plus the frames tagged
    [c] (the connection's worker and client).  Each shard is a
    standalone replayable {!Trace.t}: filtering whole tasks keeps every
    included task's frame subsequence complete, and replay tolerates
    tasks that are still alive when the (filtered) trace ends.

    Tags come from outside — this module never parses frames for
    connection keys (that derivation is confined to the recorder-side
    tracker; see check_format.sh).  [tags.(i)] is frame [i]'s owning
    connection, 0 for control.

    Shards of one base trace live in a content-addressed {!Repo} as
    manifests named [<base>.conn-NNNN]; their chunks, images and file
    blocks dedup against the full trace and each other (the executable
    image and control-heavy chunks are stored once).  A catalog file
    under [<repo>/shards/<base>] lists them for {!list}.

    Telemetry: [shard.shards_written], [shard.bytes_shared] (bytes a
    shard deduplicated against objects already in the repo). *)

type info = {
  si_conn : int;
  si_name : string; (** manifest name in the repo *)
  si_frames : int; (** frames in the shard (control + own) *)
  si_own_frames : int; (** frames tagged with this connection *)
  si_new_bytes : int; (** object bytes this shard newly stored *)
  si_shared_bytes : int; (** object bytes deduped against the repo *)
}

type result_ = {
  base : string;
  shards : info list; (** in connection order *)
  total_new_bytes : int;
  total_shared_bytes : int;
}

val extract : tags:int array -> conn:int -> Trace.t -> Trace.t * int array
(** Build one shard in memory: the filtered trace plus, for each shard
    frame, the index of the original frame it came from (the
    corresponding-frame map targeted replay uses).  Raises
    [Invalid_argument] if [tags] does not cover the trace or [conn <=
    0]. *)

val split :
  ?only:int ->
  repo:Repo.t ->
  base:string ->
  tags:int array ->
  Trace.t ->
  (result_, Repo.error) result
(** Demux the trace into per-connection shards (every connection id
    appearing in [tags], or just [only]) and store each in the repo,
    writing the catalog.  One pass over the trace feeds all shard
    writers. *)

val list : Repo.t -> base:string -> (info list, Repo.error) result
(** Read the catalog written by {!split}. *)

val load : Repo.t -> base:string -> conn:int -> (Trace.t, Repo.error) result
(** Open one shard as a standalone trace. *)
