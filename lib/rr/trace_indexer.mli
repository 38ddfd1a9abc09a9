(** One-shot construction of a {!Trace_index.t}: a single forward replay
    with the {!Addr_space} write observer installed, collecting the
    per-pc, per-page and virtual-clock tables plus durable checkpoint
    blobs ({!Snapshot.encode}) every [checkpoint_every] frames
    and at both ends of the trace, all encoded against one pool.

    Telemetry: counts [index.build], times [index.build_time], and
    counts the blobs' bytes in [index.encoded_bytes]; each encode is a
    [index.encode] timeline scope. *)

val build_and_attach : ?checkpoint_every:int -> Trace.t -> Trace_index.t
(** Replay [trace] start to end, build its index and attach it with
    {!Trace.set_index} — persist with {!Trace.save}.  [checkpoint_every]
    (clamped to ≥ 1) defaults to roughly n/64, about 64 durable
    checkpoints a trace.  Raises {!Replayer.Divergence} if the trace
    does not replay. *)
