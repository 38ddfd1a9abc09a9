(** Content-addressed trace repository (DESIGN.md §4j).

    A repository is a directory holding every trace's constituent parts
    — sealed chunks, executable images, cloned-file blocks — as
    content-addressed objects under [objects/], plus one manifest per
    trace under [traces/] referencing the objects by key.  N recordings
    of similar workloads share their common blocks: storing the same
    chunk twice costs one object and one manifest entry.

    Keys are [crc32-length] over the object's bytes (printed
    ["%08x-%x"]), which makes the store self-verifying: loading an
    object re-derives its key and a mismatch is a typed
    {!Object_corrupt} — bit rot never silently reaches a replay.

    GC is refcounted from the manifests (the source of truth): [gc]
    recounts references, rewrites the [refs] ledger, and sweeps objects
    with zero references.  A crash mid-gc leaves orphan objects or a
    stale ledger, never a broken trace — the next [gc] repairs both.

    Every entry point is result-typed; a damaged repository is a value
    to inspect.  Nothing locks: recordings that share a handle (the
    fleet harness) run one after another, and a lock would order
    nothing between processes anyway.

    Telemetry: [repo.objects_stored], [repo.objects_shared] (a store
    that found its object already present), [repo.bytes_stored],
    [repo.bytes_deduped], [repo.gc_swept]. *)

type t

type error =
  | Not_a_repo of { path : string; detail : string }
  | Object_missing of { key : string }
  | Object_corrupt of { key : string; detail : string }
      (** the object's bytes no longer match its content address *)
  | Manifest_corrupt of { name : string; detail : string }
  | Trace of Trace.error
      (** the parts were intact but did not assemble into a valid trace *)
  | Io of Io.error

exception Repo_error of error

val pp_error : error Fmt.t
val error_to_string : error -> string

val init : string -> (t, error) result
(** Create (or open) a repository at the directory: [objects/],
    [traces/] and the format marker are created if missing.  Succeeds
    on an existing repository. *)

val open_ : string -> (t, error) result
(** Open an existing repository; {!Not_a_repo} if the directory or its
    marker is missing. *)

val path : t -> string

type store_result = {
  new_objects : int;
  shared_objects : int; (** objects that were already present *)
  new_bytes : int;
  shared_bytes : int; (** bytes deduplicated against the store *)
}

val store_trace : t -> name:string -> Trace.t -> (store_result, error) result
(** Store every part of the trace content-addressed and write the
    manifest [traces/<name>] atomically (tmp + rename): {!Trace.to_sink}
    into {!sink}, so a stored trace and a streamed recording write the
    same objects and manifest.  Re-storing under an existing name
    replaces that manifest. *)

val load_trace : t -> name:string -> (Trace.t, error) result
(** Rebuild a trace from its manifest: every referenced object is
    loaded and verified against its key, file blocks are reassembled,
    and the parts go through {!Trace.of_parts} — so a loaded trace
    satisfies the same invariants as a freshly recorded one. *)

val list : t -> string list
(** Manifest names, sorted. *)

type trace_info = {
  ti_frames : int;
  ti_chunks : int;
  ti_bytes : int; (** sum of referenced object sizes (logical bytes) *)
}

val list_info : t -> ((string * trace_info) list, error) result
(** {!list} with per-trace totals read from the manifests — the
    deterministic, diff-able listing [rr_cli repo ls] prints. *)

val delete_trace : t -> name:string -> (unit, error) result
(** Remove a manifest.  Objects it referenced stay until the next
    {!gc}. *)

type gc_stats = {
  live_objects : int;
  swept_objects : int;
  swept_bytes : int;
}

val gc : ?on_sweep:(string -> unit) -> t -> (gc_stats, error) result
(** Mark from every manifest, rewrite the [refs] ledger, sweep
    unreferenced objects (and stale temp files).  Refuses to sweep —
    returning {!Manifest_corrupt} — if any manifest fails to parse, so
    a damaged manifest can never cause live objects to be collected.
    [on_sweep] is a test hook invoked with each key before its object
    is removed; raising from it simulates a crash mid-gc. *)

type stats = {
  n_traces : int;
  n_objects : int;
  object_bytes : int; (** physical bytes under [objects/] *)
  manifest_bytes : int;
  logical_bytes : int; (** sum of referenced object sizes, with repeats *)
  shared_objects : int; (** objects referenced more than once *)
}

val stats : t -> (stats, error) result
(** [logical_bytes /. object_bytes] is the dedup ratio the fleet bench
    reports. *)

val pp_stats : stats Fmt.t

val sink : t -> name:string -> Trace.Sink.t
(** A recording sink that stores sealed chunks and images
    content-addressed {e as they stream out of the recorder} and writes
    the manifest at commit.  A recording killed mid-run leaves orphan
    objects (reclaimed by {!gc}) and no manifest — never a half-written
    trace.  Raises {!Repo_error} for an invalid trace name. *)

val verify : t -> (unit, error) result
(** Load and verify every trace in the repository; the first damaged
    part surfaces as its typed error. *)
