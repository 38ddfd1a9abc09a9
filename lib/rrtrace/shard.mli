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

    {!split} saves each shard as its own trace file, which
    {!Trace.open_} reopens like any other.

    Telemetry: [shard.shards_written]. *)

type info = {
  si_conn : int;
  si_path : string; (** the shard's trace file *)
  si_frames : int; (** frames in the shard (control + own) *)
  si_own_frames : int; (** frames tagged with this connection *)
}

val extract : tags:int array -> conn:int -> Trace.t -> Trace.t * int array
(** Build one shard in memory: the filtered trace plus, for each shard
    frame, the index of the original frame it came from (the
    corresponding-frame map targeted replay uses).  Raises
    [Invalid_argument] if [tags] does not cover the trace or [conn <=
    0]. *)

val split :
  ?only:int ->
  dir:string ->
  base:string ->
  tags:int array ->
  Trace.t ->
  (info list, Trace.error) result
(** Demux the trace into per-connection shards (every connection id
    appearing in [tags], or just [only]) and save each with
    {!Trace.save} to [<dir>/<base>.conn-NNNN.trace], creating [dir] if
    it is missing.  One pass over the trace feeds all shard writers.
    The shards come back in connection order. *)
