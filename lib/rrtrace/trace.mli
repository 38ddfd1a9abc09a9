(** Chunk-indexed trace store.

    General frame data is serialized and deflate-compressed in chunks —
    the "all other trace data" stream of paper §2.7/Table 2.  Memory-
    mapped executables and block-cloned file data bypass the compressor:
    they are snapshotted by hard-link/FICLONE-style cloning and accounted
    separately.

    A trace holds only the stored chunk stream plus a per-chunk index;
    frames are never held decoded in bulk.  All frame access goes
    through {!Reader}, which inflates one chunk at a time behind a small
    LRU, so opening a trace is O(index) and a seek costs
    O(log n_chunks + one chunk decode).  Opening copies no stored
    payload: chunks, files and checkpoint blobs stay slices of the
    bytes read.

    The store is single-domain: {!Writer} deflates each chunk inline
    as it seals it, and {!Reader} inflates on demand (DESIGN.md §4d).

    One stream out, one assembler in: a trace leaves only through a
    {!Sink} — from a {!Writer} while recording, through the file sink
    once finished ({!save}) — and every trace, whether recorded,
    loaded, salvaged, snapshotted from a ring or rewritten, is
    assembled from the same events by the same code.

    {b Durability} (DESIGN.md §4e): persistence flows through the
    pluggable {!Io} layer.  The on-disk format is a stream of
    CRC32-guarded records committed by a trailing footer; a {!Writer}
    given a file [?sink] ({!Sink.of_io}) streams the trace
    incrementally while recording, so a writer killed mid-record
    leaves a salvageable prefix; and
    {!salvage} recovers the longest verifiable chunk prefix of a
    damaged file.  Loading and salvaging return typed {!error}s — a
    damaged trace is a value to inspect, never a crash. *)

type stats = {
  mutable n_events : int;
  mutable raw_bytes : int;
  mutable compressed_bytes : int;
  mutable cloned_blocks : int;
  mutable cloned_bytes : int;
  mutable copied_file_bytes : int; (* bytes copied when cloning is off *)
  mutable n_chunks : int;
  mutable n_buffered_syscalls : int;
  mutable n_traced_syscalls : int;
}

type chunk_info = {
  first_frame : int; (** trace index of the chunk's first frame *)
  n_frames : int;
  byte_offset : int; (** offset into the concatenated chunk stream *)
  stored_len : int; (** stored (compressed) size in bytes *)
  kinds : int; (** OR of {!Event.kind_bit} over the chunk's frames *)
  crc32 : int; (** CRC-32 of the stored bytes *)
}

type t

(** {1 Errors}

    Everything that can be wrong with a trace file, as data.  The
    result-returning entry points ({!open_}, {!save},
    {!salvage}) never raise on bad input; the [_exn] wrappers and the
    lazy {!Reader} decode paths raise {!Format_error} carrying the same
    value. *)

type error =
  | Truncated of { path : string; detail : string }
      (** the file ends before its structure does (including a missing
          commit footer: the writer was killed before [finish]) *)
  | Bad_magic of { path : string }  (** not an rr trace file at all *)
  | Version_skew of { path : string; found : int; expected : int }
      (** readable magic, unreadable version (an older container or
          header version, or a future one) *)
  | Chunk_crc of int
      (** chunk [i]'s stored bytes fail their CRC — bit rot, torn
          write, or tampering; the index pinpoints the damaged chunk *)
  | Corrupt of { path : string; detail : string }
      (** structurally invalid: mis-framed record, index inconsistency,
          undecodable frame data *)
  | Io of Io.error  (** the byte layer itself failed (open/read/write) *)

exception Format_error of error
(** Raised by the [_exn] entry points, and by {!Reader} accessors when
    a lazily decoded chunk turns out corrupt (laziness defers chunk
    payload validation from open to first access; stored-byte CRCs are
    checked at open). *)

val pp_error : error Fmt.t
val error_to_string : error -> string

(** {1 Sinks}

    A {!Sink.t} is the one place frames, chunks, images and file
    snapshots leave a {!Writer}.  Two implementations exist: the
    streaming file journal ({!Sink.of_io}) and the bounded in-memory
    flight-recorder ring ({!ring_sink}).  Events arrive in trace-stream
    order — header first, every image and file delta before the first
    chunk referencing it, a stats journal mark every few chunks — so a
    sink persisting events as they arrive reproduces the record stream,
    and any prefix it persists is salvageable. *)

module Sink : sig
  type t

  val of_io : Io.writer -> t
  (** The streaming file sink — the incremental journal.  Its commit
      ({!Writer.finish}) writes the trailer and footer and closes the
      writer, so the footer's presence proves completion; a sink killed
      at any byte leaves a salvageable prefix. *)
end

type ring
(** A bounded in-memory flight-recorder sink: at most [chunks] resident
    chunks, dropped oldest-first in whole journal-watermark groups, so
    the retained window always starts just past a 'J' mark.  Header,
    images and file snapshots are always retained.  Telemetry:
    [ring.dropped_chunks] (counter), [ring.resident_bytes] (gauge). *)

type ring_report = {
  rr_base_frame : int; (** trace index of the window's first frame *)
  rr_chunks : int;
  rr_frames : int;
  rr_dropped_chunks : int;
  rr_dropped_frames : int;
  rr_resident_bytes : int;
}

val ring : chunks:int -> ring
(** A fresh ring with a budget of [max 1 chunks] resident chunks.  The
    handle is caller-owned: it outlives a recording killed mid-run, so
    the window can still be dumped afterwards. *)

val ring_sink : ring -> Sink.t

val ring_trace : ring -> t * ring_report
(** Snapshot the retained window as a standalone trace: chunk indexes
    rebased to frame 0, per-chunk CRCs minted, images and files copied.
    The window replays from its own frame 0 only when nothing was
    dropped ([rr_base_frame = 0]); a truncated window is still
    decodable, saveable and salvageable (DESIGN.md §4j). *)

val pp_ring_report : ring_report Fmt.t

module Writer : sig
  type w

  val create :
    ?compress:bool ->
    ?chunk_limit:int ->
    ?sink:Sink.t ->
    initial_exe:string ->
    unit ->
    w
  (** [chunk_limit] (default 64 KiB) is the pending-buffer size that
      triggers a chunk flush — with its index entry — as frames stream
      in; tests shrink it to force multi-chunk traces from small
      workloads.  Each sealed chunk is deflated there and then.

      With [sink], the trace streams to that sink {e while
      being recorded}: images and file snapshots always precede the
      chunks that reference them, and a stats journal mark lands every
      few chunks — so killing the writer at any byte leaves a prefix
      that {!salvage} can recover and replay (file sink) or a live ring
      window ({!ring_sink}).  {!finish} commits the sink; for a
      bounded sink it returns the sink's own result (the ring window).
      Sink IO failures surface as {!Io.Io_error} from the writer
      operation that hit them. *)

  val event : w -> Event.t -> int
  (** Append one frame; returns its serialized size (cost charging). *)

  val add_image : w -> path:string -> Image.t -> unit
  (** Snapshot an executable by hard link/clone: accounting only. *)

  val add_file : w -> path:string -> cloned:bool -> string -> unit
  (** [add_file w ~path ~cloned data] snapshots a whole file under a
      fresh [path].  [cloned] says whether the bytes were cloned (free,
      counted in [cloned_bytes]/[cloned_blocks]) or copied (counted in
      [copied_file_bytes]).  A journaling writer streams the file as
      one ['D'] record, from offset 0, before the next chunk.  Raises
      [Invalid_argument] if [path] was already added. *)

  val append_file :
    w -> path:string -> cloned:bool -> off:int -> string -> unit
  (** [append_file w ~path ~cloned ~off data] writes [data] at [off] of
      a file that only grows — the per-task cloned-data file of paper
      §3.9, which starts empty.  Bytes between the file's current end
      and [off] are zero-filled.  Only the growth is accounted, as in
      {!add_file}.  The cost is proportional to the bytes added: the
      file is a growing buffer that becomes a string once, in
      {!finish}, and a journaling writer streams only the bytes past
      what it already streamed.  Raises [Invalid_argument] if [off] is
      below the file's current length. *)

  val finish : w -> t

  val abort : w -> unit
  (** Release the writer without committing: close the sink (for the
      file sink, the journal fd a killed recording used to leak).  Idempotent; safe after a failed
      {!finish}; never raises.  Call exactly one of {!finish} or
      [abort]. *)
end

(** Cursor-based frame access — the only way to read frames. *)
module Reader : sig
  type cursor
  (** A position in a trace.  Cursors are cheap; all cursors over one
      trace share its chunk LRU. *)

  val open_ : t -> cursor
  val pos : cursor -> int
  val at_end : cursor -> bool

  val peek : cursor -> Event.t option
  (** The frame at the cursor, without advancing. *)

  val next : cursor -> Event.t
  (** The frame at the cursor, advancing past it.  Raises
      [Invalid_argument] at end of trace. *)

  val seek : cursor -> int -> unit
  (** [seek c i] repositions to frame [i] (0 ≤ i ≤ length; positioning
      at [length] leaves the cursor at end).  Decoding happens at the
      next access, not here. *)

  val frame : t -> int -> Event.t
  (** Random access to one frame: binary-search the chunk index, decode
      (or LRU-hit) the covering chunk. *)

  val fold : (int -> Event.t -> 'a -> 'a) -> t -> 'a -> 'a
  (** Fold over every frame in order, decoding one chunk at a time. *)

  val iter : (int -> Event.t -> unit) -> t -> unit

  val to_array : t -> Event.t array
  (** Decode the whole trace into a fresh array — for tests and tools
      that genuinely need bulk access; replay does not. *)

  val find_from :
    ?kind_mask:int -> t -> int -> (Event.t -> bool) -> int option
  (** [find_from t i p] is the first frame index ≥ [i] satisfying [p].
      With [kind_mask] (an OR of {!Event.kind_bit}), chunks whose kind
      summary misses the mask are skipped without being inflated. *)

  val rfind_before :
    ?kind_mask:int -> t -> int -> (Event.t -> bool) -> int option
  (** [rfind_before t i p] is the last frame index < [i] satisfying
      [p]. *)
end

val n_events : t -> int
val stats : t -> stats
val chunk_index : t -> chunk_info array

val decoded_chunks : t -> int
(** Number of chunks inflated+decoded so far (LRU misses) — lets tests
    verify that loading and partial reads stay lazy.  The
    [trace.chunk.hit]/[miss]/[evict] telemetry counters count the LRU's
    traffic over every trace. *)

val initial_exe : t -> string
(** The executable the recording started under. *)

val compressed : t -> bool
(** Whether the trace's chunks are stored deflated. *)

val image : t -> string -> Image.t
(** Raises [Invalid_argument] for unknown paths. *)

val file_sub : t -> string -> off:int -> len:int -> string
(** [file_sub t path ~off ~len] copies the bytes of file [path] from
    [off], [len] of them or as many as the file holds past [off]: the
    one copy a reader makes, since a loaded trace keeps each file where
    it lies in the bytes read.  Raises [Invalid_argument] for an
    unknown path or an [off] outside the file. *)

val images : t -> (string * Image.t) list
(** Every snapshotted executable image, sorted by trace path. *)

val files : t -> (string * string) list
(** Every snapshotted file, sorted by trace path; a loaded trace's
    files are copied out. *)

val chunk_stored : t -> int -> string
(** Chunk [i]'s stored (possibly deflated) bytes, as its ['C'] record
    carries them; a copy when they lie in a loaded file's bytes. *)

val index : t -> Trace_index.t option
(** The trace's sidecar index, if one was built (or loaded from 'P',
    'W' and 'K' records).  Derived data: queries must work without
    it. *)

val set_index : t -> Trace_index.t -> unit
(** Attach a sidecar index; persisted by {!save}.  Raises
    [Invalid_argument] if the index does not cover exactly the trace's
    frames. *)

val map_frames : (int -> Event.t -> Event.t) -> t -> t
(** Rewrite every frame through [f], preserving chunk boundaries and
    rebuilding the index (per-chunk CRCs included).  A trace-surgery
    device for tests and tools (e.g. tamper injection for divergence
    checks). *)

(** {1 Persistence}

    The on-disk format is a stream of self-delimiting records — each
    [tag, length, payload, crc32(tag, payload)] — between an 8-byte
    magic ["RRTRACE3"] and a 16-byte commit footer (trailer offset +
    ["RRCOMMIT"]).  The leading header record carries format version
    4: chunks delta-code register images ({!Event.ectx}).  Images and
    file snapshots precede the chunks that reference them; the trailer
    repeats the full chunk index with per-chunk CRCs; the footer is
    written last, so its presence proves the writer finished.  The
    older ["RRTRACE1"] and ["RRTRACE2"] containers and any header
    version but 4 (3 was plain register arrays) report
    {!Version_skew}; any other magic is {!Bad_magic}. *)

val save : t -> string -> (unit, error) result
val save_exn : t -> string -> unit

val save_io : t -> Io.writer -> (unit, error) result
(** Persist through an arbitrary {!Io.writer} (fault injection, in-
    memory buffers): the header, the images and files by path, each
    file whole from offset 0, then the chunks in order, into
    {!Sink.of_io}, with the sidecar index records before the trailer.
    The writer is closed in all cases. *)

val open_ : string -> (t, error) result
(** Open a saved trace: verify the commit footer, scan and CRC-check
    every record with the scanner {!salvage} uses, demand that it finds
    no damage and ends at the trailer the footer points to, and
    cross-check that trailer against the chunks scanned — without
    inflating any chunk. *)

val open_io : Io.reader -> (t, error) result

val open_exn : string -> t
(** {!open_}, raising {!Format_error} instead of returning [Error]. *)

(** {1 Salvage} *)

type salvage_report = {
  sr_path : string;
  sr_total_bytes : int;
  sr_valid_bytes : int; (** prefix that scanned as CRC-valid records *)
  sr_chunks_recovered : int;
  sr_frames_recovered : int;
  sr_chunks_lost : int option; (** [None]: total unknown (no trailer) *)
  sr_frames_lost : int option;
  sr_files_recovered : int;
  sr_images_recovered : int;
  sr_committed : bool; (** the commit footer was present and valid *)
  sr_damage : string option; (** [None]: the file was fully intact *)
}

val pp_salvage_report : salvage_report Fmt.t

val salvage : string -> (t * salvage_report, error) result
(** Recover the longest verifiable prefix of a damaged (or healthy)
    trace: scan records until the first CRC failure or framing error,
    then decode-verify the recovered chunks and drop everything from
    the first undecodable one.  The returned trace is replayable — the
    record ordering invariant guarantees any prefix carries the images
    and file snapshots its chunks reference — and the report says
    exactly what was lost.  Errors only when nothing is recoverable
    (unreadable file, foreign magic, no surviving header). *)

val salvage_io : Io.reader -> (t * salvage_report, error) result

val pp_stats : stats Fmt.t
