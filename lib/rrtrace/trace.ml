(* Chunk-indexed trace store: writer, cursor reader, persistence.

   General frame data is serialized ({!Event}) and deflate-compressed in
   chunks — the "all other trace data" stream of paper §2.7/Table 2.
   Memory-mapped executables and block-cloned file data are *not* run
   through the compressor: they are cloned (hard-link/FICLONE style) and
   accounted separately, which is exactly what makes rr traces cheap.

   Unlike a decoded event array, the store keeps only the compressed
   chunks plus a per-chunk index {first_frame; n_frames; byte_offset;
   kinds; crc32}.  Frames are decoded one chunk at a time on demand
   through {!Reader}, with a small LRU of decoded chunks, so memory
   stays proportional to one chunk and a seek costs O(log n_chunks) —
   the property the debugger's checkpoint/reverse-execution substrate
   (paper §6.1) leans on.  Stored chunks, files and checkpoint blobs
   stay where they were read: a loaded trace holds each as a slice of
   the one string its file was read into, so opening it copies no
   payload (see "payloads where they lie").

   The store is single-domain: the writer deflates each chunk inline as
   it seals it, and the reader inflates on demand.  Real rr hides its
   deflate cost on spare cores (§2.7); here chunks are small enough that
   worker domains lost to the serial path (DESIGN.md §4d).

   One stream, one assembler: a trace leaves only as {!Sink} events —
   from the {!Writer} while recording, from {!save} once finished — and
   every [t] is built by feeding such events to an {!assembly}, whether
   they come from the writer, a file, a ring or a rewrite.

   Durability (paper §2.7 "deployability" read as: a trace must survive
   the process that wrote it): all persistence flows through the
   pluggable {!Io} layer; the on-disk format is a CRC-guarded record
   stream with a commit footer, optionally journaled incrementally
   during recording, and {!salvage} recovers the longest verifiable
   chunk prefix of a damaged file.  See DESIGN.md §4e. *)

type stats = {
  mutable n_events : int;
  mutable raw_bytes : int; (* frame bytes before compression *)
  mutable compressed_bytes : int;
  mutable cloned_blocks : int; (* 4 KiB blocks snapshotted by cloning *)
  mutable cloned_bytes : int; (* bytes snapshotted by cloning/hard links *)
  mutable copied_file_bytes : int; (* file bytes copied (cloning disabled) *)
  mutable n_chunks : int;
  mutable n_buffered_syscalls : int; (* syscalls recorded via syscallbuf *)
  mutable n_traced_syscalls : int;
}

let new_stats () =
  { n_events = 0;
    raw_bytes = 0;
    compressed_bytes = 0;
    cloned_blocks = 0;
    cloned_bytes = 0;
    copied_file_bytes = 0;
    n_chunks = 0;
    n_buffered_syscalls = 0;
    n_traced_syscalls = 0 }

let copy_stats s = { s with n_events = s.n_events }

let tm_chunk_hit = Telemetry.counter "trace.chunk.hit"
let tm_chunk_miss = Telemetry.counter "trace.chunk.miss"
let tm_chunk_evict = Telemetry.counter "trace.chunk.evict"
let tm_chunk_flush = Telemetry.counter "trace.chunk.flush"
let tm_deflate_ratio = Telemetry.histogram "trace.deflate.ratio_pct"
let tm_deflate = Telemetry.span "trace.deflate"
let tm_inflate = Telemetry.span "trace.inflate"
let tm_crc_fail = Telemetry.counter "trace.crc_fail"
let tm_salvage_runs = Telemetry.counter "salvage.runs"
let tm_salvage_chunks = Telemetry.counter "salvage.chunks_recovered"
let tm_salvage_frames = Telemetry.counter "salvage.frames_recovered"
let tm_salvage_lost = Telemetry.counter "salvage.bytes_lost"
let tm_ring_dropped = Telemetry.counter "ring.dropped_chunks"
let tm_ring_resident = Telemetry.gauge "ring.resident_bytes"

(* ---- typed errors ---------------------------------------------------- *)

type error =
  | Truncated of { path : string; detail : string }
  | Bad_magic of { path : string }
  | Version_skew of { path : string; found : int; expected : int }
  | Chunk_crc of int
  | Corrupt of { path : string; detail : string }
  | Io of Io.error

exception Format_error of error

(* The header record's version field.  Version 4 chunks delta-code
   register images ({!Event}); any other version, including 3 (plain
   register arrays), is a {!Version_skew}. *)
let format_version = 4

let pp_error ppf = function
  | Truncated { path; detail } ->
    Fmt.pf ppf "%s: truncated trace file (%s)" path detail
  | Bad_magic { path } -> Fmt.pf ppf "%s: not an rr trace file (bad magic)" path
  | Version_skew { path; found; expected } ->
    Fmt.pf ppf "%s: trace format version %d, this build reads %d" path found
      expected
  | Chunk_crc i -> Fmt.pf ppf "chunk %d failed CRC verification" i
  | Corrupt { path; detail } -> Fmt.pf ppf "%s: corrupt trace file (%s)" path detail
  | Io e -> Io.pp_error ppf e

let error_to_string e = Fmt.str "%a" pp_error e

(* ---- payloads where they lie -------------------------------------------

   Every stored payload, a chunk, a file or a checkpoint blob, is a
   slice: [len] bytes of [str] from [pos].  A trace read from a file
   keeps each as a slice of the one string the file was read into, so
   opening a trace copies no payload, saving writes each slice where it
   lies, and a reader copies only the bytes it uses ({!file_sub}). *)
type slice = Codec.slice = { str : string; pos : int; len : int }

let whole = Codec.whole
let slice_string = Codec.slice_string

type chunk_info = {
  first_frame : int;
  n_frames : int;
  byte_offset : int; (* into the concatenated stored-chunk stream *)
  stored_len : int;
  kinds : int; (* OR of Event.kind_bit for every frame in the chunk *)
  crc32 : int; (* CRC-32 of the stored bytes *)
}

type t = {
  index : chunk_info array;
  chunks : slice array; (* stored (possibly deflated) chunk bytes *)
  compressed : bool;
  images : (string, Image.t Lazy.t) Hashtbl.t;
      (* trace path -> executable image; a loaded one decodes at first
         use *)
  files : (string, slice) Hashtbl.t; (* trace path -> snapshotted bytes *)
  stats : stats;
  initial_exe : string;
  origin : string; (* path the trace was loaded from, for error context *)
  (* LRU of decoded chunks, shared by every cursor over this trace; MRU
     first.  [chunk_decodes] counts cache misses — the number of chunks
     actually inflated+decoded, which tests use to prove laziness. *)
  mutable cache : (int * Event.t array) list;
  mutable chunk_decodes : int;
  mutable sidecar : Trace_index.t option; (* derived index, if built *)
}

let make_t ~origin ~index ~chunks ~compressed ~images ~files ~stats
    ~initial_exe =
  { index;
    chunks;
    compressed;
    images;
    files;
    stats;
    initial_exe;
    origin;
    cache = [];
    chunk_decodes = 0;
    sidecar = None }

let default_chunk_limit = 1 lsl 16
let cache_slots = 8

(* ---- file snapshots rebuilt from deltas -------------------------------

   A file snapshot travels as 'D' deltas: bytes that replace the file
   from an offset, in practice a suffix appended at its current length.
   Every assembled trace ({!assembly}) keeps its files here, so a file
   grown by k appends costs its final size once, not k times.  A file
   that arrives in one piece (what {!save} writes) keeps that piece
   where it lies; the first append moves it into a buffer. *)
module File_deltas = struct
  type file = Whole of slice | Growing of Buffer.t
  type t = (string, file) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let file_length = function
    | Whole s -> s.len
    | Growing b -> Buffer.length b

  let length t path =
    match Hashtbl.find_opt t path with Some f -> file_length f | None -> 0

  let apply t ~path ~offset data =
    let past_end () =
      raise (Codec.Corrupt "file delta offset past current length")
    in
    match Hashtbl.find_opt t path with
    | _ when offset = 0 -> Hashtbl.replace t path (Whole data)
    | None -> past_end ()
    | Some f when offset < 0 || offset > file_length f -> past_end ()
    | Some (Growing b) ->
      Buffer.truncate b offset;
      Buffer.add_substring b data.str data.pos data.len
    | Some (Whole s) ->
      let b = Buffer.create (2 * (offset + data.len)) in
      Buffer.add_substring b s.str s.pos offset;
      Buffer.add_substring b data.str data.pos data.len;
      Hashtbl.replace t path (Growing b)

  (* Bytes of [path] from [off] to its end. *)
  let suffix t path off =
    match Hashtbl.find t path with
    | Whole s -> { s with pos = s.pos + off; len = s.len - off }
    | Growing b -> whole (Buffer.sub b off (Buffer.length b - off))

  let paths t =
    Hashtbl.fold (fun p _ acc -> p :: acc) t [] |> List.sort compare

  let slices t = List.map (fun p -> (p, suffix t p 0)) (paths t)

  let to_table t =
    let out = Hashtbl.create (Hashtbl.length t) in
    Hashtbl.iter (fun p _ -> Hashtbl.replace out p (suffix t p 0)) t;
    out
end

(* ---- record stream ---------------------------------------------------

   The file is a stream of self-delimiting records between an 8-byte
   magic and a 16-byte commit footer:

     magic "RRTRACE3"                              8 bytes
     record*                                       see below
     trailer record ('T')
     footer: trailer offset (8 bytes LE) + "RRCOMMIT"

   Each record is

     tag                  1 byte
     payload length       uvarint
     payload              bytes
     crc32(tag, payload)  4 bytes LE

   Tags: 'H' header (version, compressed, initial exe) — always first;
   'I' snapshotted image; 'D' file delta (path, offset, suffix bytes);
   'C' chunk (first_frame, n_frames, kinds, then the stored bytes);
   'J' journal (a stats snapshot, written every few chunks by a
   journaling writer); 'T' trailer (final stats + the chunk index with
   per-chunk CRCs).

   The CRC does not cover the length varint: a corrupted length either
   lands on a mis-framed record whose CRC then fails, or runs past the
   region being scanned — both are detected.

   Ordering invariant: every 'I' and 'D' record precedes the first 'C'
   record whose frames reference it.  That is what makes a salvaged
   prefix *replayable*, not merely decodable: any prefix of the record
   stream carries the images and file snapshots its chunks need.

   Only the file sink ({!Sink.of_io}) writes these records, and its
   commit writes the trailer and footer last, so the footer's presence
   is the commit point — a reader that finds "RRCOMMIT" at EOF knows the
   writer ran to completion; anything else is salvage territory. *)

let magic = "RRTRACE3"
let footer_magic = "RRCOMMIT"

(* How many chunks a journaling writer streams between 'J' records. *)
let journal_interval = 4

let tag_header = 'H'
let tag_image = 'I'
let tag_file = 'D'
let tag_chunk = 'C'
let tag_journal = 'J'
let tag_trailer = 'T'
let tag_index = 'P' (* sidecar index tables (Trace_index meta) *)
let tag_index_cp = 'K' (* one durable checkpoint blob *)
let tag_pool = 'W' (* one window of the checkpoints' pool *)

(* Write one record, its payload the fields [fill] puts followed by
   [tail]: a large trailing field (a chunk's stored bytes, a file
   delta's data, a checkpoint blob) is written and CRC'd where it lies,
   never copied into the buffer. *)
let write_record io ~tag ?(tail = whole "") fill =
  let b = Codec.sink () in (* chunk-lifecycle *)
  fill b;
  let head = Buffer.contents b in
  let tag_s = String.make 1 tag in
  Io.write io tag_s;
  let lb = Codec.sink () in (* chunk-lifecycle *)
  Codec.put_uvarint lb (String.length head + tail.len);
  Io.write io (Buffer.contents lb);
  Io.write io head;
  if tail.len > 0 then Io.write_sub io tail.str ~pos:tail.pos ~len:tail.len;
  let crc = Crc32.string ~crc:(Crc32.string tag_s) head in
  let crc = Crc32.update crc tail.str ~pos:tail.pos ~len:tail.len in
  let cb = Bytes.create 4 in (* chunk-lifecycle *)
  Bytes.set_int32_le cb 0 (Int32.of_int crc);
  Io.write io (Bytes.to_string cb)

let put_stats b s =
  List.iter (Codec.put_uvarint b)
    [ s.n_events; s.raw_bytes; s.compressed_bytes; s.cloned_blocks;
      s.cloned_bytes; s.copied_file_bytes; s.n_chunks;
      s.n_buffered_syscalls; s.n_traced_syscalls ]

let get_stats s =
  let g () = Codec.get_uvarint s in
  let n_events = g () in
  let raw_bytes = g () in
  let compressed_bytes = g () in
  let cloned_blocks = g () in
  let cloned_bytes = g () in
  let copied_file_bytes = g () in
  let n_chunks = g () in
  let n_buffered_syscalls = g () in
  let n_traced_syscalls = g () in
  { n_events; raw_bytes; compressed_bytes; cloned_blocks; cloned_bytes;
    copied_file_bytes; n_chunks; n_buffered_syscalls; n_traced_syscalls }

let put_chunk_info b ci =
  Codec.put_uvarint b ci.first_frame;
  Codec.put_uvarint b ci.n_frames;
  Codec.put_uvarint b ci.byte_offset;
  Codec.put_uvarint b ci.stored_len;
  Codec.put_uvarint b ci.kinds;
  Codec.put_uvarint b ci.crc32

let get_chunk_info s =
  let first_frame = Codec.get_uvarint s in
  let n_frames = Codec.get_uvarint s in
  let byte_offset = Codec.get_uvarint s in
  let stored_len = Codec.get_uvarint s in
  let kinds = Codec.get_uvarint s in
  let crc32 = Codec.get_uvarint s in
  { first_frame; n_frames; byte_offset; stored_len; kinds; crc32 }

(* ---- sinks -----------------------------------------------------------

   A {!Sink.t} is the one place frames, chunks, images and file
   snapshots leave a {!Writer}, or a finished trace ({!save}): the
   streaming file journal and the bounded in-memory flight-recorder
   ring both implement the same five-event interface.
   Events arrive in trace-stream order — header first, every image and
   file delta before the first chunk that references it, a stats
   journal mark every few chunks — so a sink that persists events as
   they arrive reproduces exactly the record stream, and any prefix
   it manages to persist is salvageable. *)

type trace = t
(* Alias so submodules defining their own [t] can still name the trace
   type. *)

module Sink = struct
  type event =
    | Header of { compressed : bool; initial_exe : string }
    | Image of { path : string; img : Image.t Lazy.t }
    | File_delta of { path : string; offset : int; data : slice }
    | Chunk of { first_frame : int; n_frames : int; kinds : int; stored : slice }
    | Journal of stats

  type t = {
    sk_put : event -> unit;
    sk_commit : stats -> chunk_info array -> unit;
    sk_close : unit -> unit; (* abort: release resources, commit nothing *)
    sk_result : (unit -> trace) option;
        (* a bounded sink builds the result; the writer keeps no chunk
           bytes for it *)
  }

  (* The streaming file sink — exactly the incremental journal.  The
     magic and header go out on the first event, every image/file/chunk
     record as it arrives, and [commit] writes the trailer and footer
     before closing the writer: a sink killed at any byte leaves a
     salvageable prefix. *)
  let of_io io =
    let put = function
      | Header { compressed; initial_exe } ->
        Io.write io magic;
        write_record io ~tag:tag_header (fun b ->
            Codec.put_uvarint b format_version;
            Codec.put_bool b compressed;
            Codec.put_string b initial_exe)
      | Image { path; img } ->
        write_record io ~tag:tag_image (fun b ->
            Codec.put_string b path;
            Image_codec.put_image b (Lazy.force img))
      | File_delta { path; offset; data } ->
        write_record io ~tag:tag_file ~tail:data (fun b ->
            Codec.put_string b path;
            Codec.put_uvarint b offset;
            Codec.put_uvarint b data.len)
      | Chunk { first_frame; n_frames; kinds; stored } ->
        write_record io ~tag:tag_chunk ~tail:stored (fun b ->
            List.iter (Codec.put_uvarint b) [ first_frame; n_frames; kinds ])
      | Journal stats ->
        write_record io ~tag:tag_journal (fun b -> put_stats b stats)
    in
    let commit stats index =
      let trailer_off = Io.written io in
      write_record io ~tag:tag_trailer (fun b ->
          put_stats b stats;
          Codec.put_list b put_chunk_info (Array.to_list index));
      let footer = Bytes.create 16 in (* chunk-lifecycle *)
      Bytes.set_int64_le footer 0 (Int64.of_int trailer_off);
      Bytes.blit_string footer_magic 0 footer 8 8;
      Io.write io (Bytes.to_string footer);
      Io.close_writer io
    in
    let close () = try Io.close_writer io with Io.Io_error _ -> () in
    { sk_put = put; sk_commit = commit; sk_close = close; sk_result = None }
end

(* ---- assembly ----------------------------------------------------------

   The one way into a {!t}: the writer, the loader, salvage, the ring
   and {!map_frames} each feed {!Sink.event}s to an assembly and take
   the trace from {!assembled}.  [assemble] is the only code that
   checks chunk contiguity and computes a chunk's byte offset and
   CRC-32. *)

type assembly = {
  mutable as_header : (bool * string) option; (* compressed, initial_exe *)
  mutable as_chunks : (chunk_info * slice) list; (* reversed *)
  mutable as_n : int; (* chunks so far *)
  mutable as_frames : int; (* frames they cover *)
  mutable as_off : int; (* their stored bytes *)
  as_images : (string, Image.t Lazy.t) Hashtbl.t;
  as_files : File_deltas.t;
  mutable as_journals : stats list; (* newest first *)
}

let assembly () =
  { as_header = None;
    as_chunks = [];
    as_n = 0;
    as_frames = 0;
    as_off = 0;
    as_images = Hashtbl.create 8;
    as_files = File_deltas.create ();
    as_journals = [] }

(* Take one event.  Raises [Codec.Corrupt] on a chunk that does not
   start where the frames so far end or holds no frame, and on a file
   delta past the end of its file. *)
let assemble a = function
  | Sink.Header { compressed; initial_exe } ->
    a.as_header <- Some (compressed, initial_exe)
  | Sink.Image { path; img } -> Hashtbl.replace a.as_images path img
  | Sink.File_delta { path; offset; data } ->
    File_deltas.apply a.as_files ~path ~offset data
  | Sink.Chunk { first_frame; n_frames; kinds; stored } ->
    if first_frame <> a.as_frames then
      raise (Codec.Corrupt (Fmt.str "chunk index gap at frame %d" a.as_frames));
    if n_frames <= 0 then raise (Codec.Corrupt "empty chunk record");
    let ci =
      { first_frame;
        n_frames;
        byte_offset = a.as_off;
        stored_len = stored.len;
        kinds;
        crc32 = Crc32.sub stored.str ~pos:stored.pos ~len:stored.len }
    in
    a.as_chunks <- (ci, stored) :: a.as_chunks;
    a.as_n <- a.as_n + 1;
    a.as_frames <- a.as_frames + n_frames;
    a.as_off <- a.as_off + stored.len
  | Sink.Journal stats -> a.as_journals <- copy_stats stats :: a.as_journals

let assembled_index a = Array.of_list (List.rev_map fst a.as_chunks)

(* The trace of the first [keep] chunks (all by default): accounting
   from [stats], the frame, chunk and stored-byte counts from the kept
   chunks themselves. *)
let assembled ?(origin = "<memory>") ?keep a stats =
  let chunks = Array.of_list (List.rev a.as_chunks) in
  let chunks =
    match keep with Some k -> Array.sub chunks 0 k | None -> chunks
  in
  let index = Array.map fst chunks in
  let stats = copy_stats stats in
  stats.n_events <- Array.fold_left (fun n ci -> n + ci.n_frames) 0 index;
  stats.n_chunks <- Array.length index;
  stats.compressed_bytes <-
    Array.fold_left (fun n ci -> n + ci.stored_len) 0 index;
  let compressed, initial_exe = Option.value a.as_header ~default:(true, "") in
  make_t ~origin ~index ~chunks:(Array.map snd chunks) ~compressed
    ~images:a.as_images ~files:(File_deltas.to_table a.as_files) ~stats
    ~initial_exe

(* ---- flight-recorder ring --------------------------------------------

   A bounded in-memory sink: at most [budget] resident chunks, dropped
   oldest-first in whole journal-watermark groups (every chunk between
   two 'J' marks shares a group), so the retained window always starts
   right after a journal mark and the stats snapshot paired with it is
   never newer than the chunks it describes.  Header, images and file
   snapshots are always retained — they are tiny next to the chunk
   stream and every retained chunk may reference them — which is what
   makes the dumped window decodable on its own. *)

type ring_entry = {
  re_first : int;
  re_n : int;
  re_kinds : int;
  re_stored : slice;
  re_group : int; (* journal-watermark group the chunk belongs to *)
}

type ring = {
  r_budget : int; (* max resident chunks *)
  r_q : ring_entry Queue.t; (* oldest first *)
  mutable r_bytes : int; (* resident stored bytes *)
  mutable r_dropped_chunks : int;
  mutable r_dropped_frames : int;
  mutable r_group : int; (* current (still-open) watermark group *)
  r_parts : assembly; (* header, images and files; never chunks *)
  mutable r_stats : stats option; (* newest journaled stats snapshot *)
}

type ring_report = {
  rr_base_frame : int; (* trace index of the window's first frame *)
  rr_chunks : int;
  rr_frames : int;
  rr_dropped_chunks : int;
  rr_dropped_frames : int;
  rr_resident_bytes : int;
}

let pp_ring_report ppf r =
  Fmt.pf ppf
    "ring: %d chunks (%d frames) resident (%d bytes) from frame %d; dropped \
     %d chunks (%d frames)"
    r.rr_chunks r.rr_frames r.rr_resident_bytes r.rr_base_frame
    r.rr_dropped_chunks r.rr_dropped_frames

let ring ~chunks =
  { r_budget = max 1 chunks;
    r_q = Queue.create ();
    r_bytes = 0;
    r_dropped_chunks = 0;
    r_dropped_frames = 0;
    r_group = 0;
    r_parts = assembly ();
    r_stats = None }

let ring_drop_front r =
  let e = Queue.pop r.r_q in
  r.r_bytes <- r.r_bytes - e.re_stored.len;
  r.r_dropped_chunks <- r.r_dropped_chunks + 1;
  r.r_dropped_frames <- r.r_dropped_frames + e.re_n;
  Telemetry.incr tm_ring_dropped

let ring_put r = function
  | (Sink.Header _ | Sink.Image _ | Sink.File_delta _) as ev ->
    assemble r.r_parts ev
  | Sink.Chunk { first_frame; n_frames; kinds; stored } ->
    Queue.push
      { re_first = first_frame;
        re_n = n_frames;
        re_kinds = kinds;
        re_stored = stored;
        re_group = r.r_group }
      r.r_q;
    r.r_bytes <- r.r_bytes + stored.len;
    (* Drop-oldest, whole watermark groups at a time.  Degenerate case:
       if the budget is smaller than one group, chunks of the open group
       drop singly — alignment is best-effort there. *)
    while Queue.length r.r_q > r.r_budget do
      let g = (Queue.peek r.r_q).re_group in
      if g = r.r_group then ring_drop_front r
      else
        while
          (not (Queue.is_empty r.r_q)) && (Queue.peek r.r_q).re_group = g
        do
          ring_drop_front r
        done
    done;
    Telemetry.set_gauge tm_ring_resident r.r_bytes
  | Sink.Journal stats ->
    r.r_stats <- Some (copy_stats stats);
    r.r_group <- r.r_group + 1

(* Snapshot the retained window as a standalone trace: chunks rebased
   to frame 0 (the loader's contiguity invariant), images and files
   copied.  The window replays from its own frame 0 only when nothing
   was dropped ([rr_base_frame = 0]); a truncated window is still
   decodable, saveable and salvageable — DESIGN.md §4j spells out the
   limitation. *)
let ring_trace r =
  let a = assembly () in
  let parts = r.r_parts in
  Option.iter
    (fun (compressed, initial_exe) ->
      assemble a (Sink.Header { compressed; initial_exe }))
    parts.as_header;
  Hashtbl.iter (fun path img -> assemble a (Sink.Image { path; img }))
    parts.as_images;
  List.iter
    (fun (path, data) ->
      assemble a (Sink.File_delta { path; offset = 0; data }))
    (File_deltas.slices parts.as_files);
  let base = match Queue.peek_opt r.r_q with Some e -> e.re_first | None -> 0 in
  Queue.iter
    (fun e ->
      assemble a
        (Sink.Chunk
           { first_frame = e.re_first - base;
             n_frames = e.re_n;
             kinds = e.re_kinds;
             stored = e.re_stored }))
    r.r_q;
  let stats = Option.value r.r_stats ~default:(new_stats ()) in
  let t = assembled ~origin:"<ring>" a stats in
  ( t,
    { rr_base_frame = base;
      rr_chunks = a.as_n;
      rr_frames = a.as_frames;
      rr_dropped_chunks = r.r_dropped_chunks;
      rr_dropped_frames = r.r_dropped_frames;
      rr_resident_bytes = r.r_bytes } )

let ring_sink r =
  { Sink.sk_put = ring_put r;
    sk_commit = (fun stats _index -> r.r_stats <- Some (copy_stats stats));
    sk_close = (fun () -> ());
    sk_result = Some (fun () -> fst (ring_trace r)) }

module Writer = struct
  (* Incremental-sink state: the trace streams to [s_sink] *while it is
     being recorded*, so a writer killed mid-record leaves a salvageable
     record-stream prefix (file sink) or a live ring window (ring sink)
     instead of nothing.  Files only grow, so [j_marks] keeps the length
     of every file snapshot already streamed, and the growing per-task
     cloned-data files emit suffix deltas rather than full rewrites. *)
  type sstate = {
    s_sink : Sink.t;
    mutable j_since_mark : int; (* chunks streamed since the last mark *)
    j_marks : (string, int) Hashtbl.t; (* path -> streamed length *)
  }

  type w = {
    parts : assembly; (* header, images, files; chunks unless bounded *)
    mutable pending : Codec.sink;
    ectx : Event.ectx; (* frame codec state, reset at chunk boundaries *)
    mutable pending_frames : int;
    mutable pending_kinds : int;
    chunk_limit : int;
    stats : stats;
    compress : bool;
    sink : sstate option;
    bounded : bool; (* bounded sink: stored chunk bytes are not kept *)
    mutable closed : bool; (* finish or abort already ran *)
  }

  let create ?(compress = true) ?(chunk_limit = default_chunk_limit) ?sink
      ~initial_exe () =
    let header = Sink.Header { compressed = compress; initial_exe } in
    let parts = assembly () in
    assemble parts header;
    let sink =
      Option.map
        (fun s ->
          s.Sink.sk_put header;
          { s_sink = s; j_since_mark = 0; j_marks = Hashtbl.create 8 })
        sink
    in
    { parts;
      pending = Codec.sink (); (* chunk-lifecycle *)
      ectx = Event.ectx ();
      pending_frames = 0;
      pending_kinds = 0;
      chunk_limit;
      stats = new_stats ();
      compress;
      sink;
      bounded =
        (match sink with
        | Some { s_sink = { Sink.sk_result = Some _; _ }; _ } -> true
        | Some _ | None -> false);
      closed = false }

  (* Stream every file snapshot that is new or grew since its mark: the
     bytes past the mark, so a new file (even an empty one) goes out
     whole from offset 0.  Runs before each chunk event so any persisted
     prefix satisfies the ordering invariant (chunks never reference
     file state the stream has not shown). *)
  let journal_files w j =
    let files = w.parts.as_files in
    List.iter
      (fun path ->
        let len = File_deltas.length files path in
        match Hashtbl.find_opt j.j_marks path with
        | Some streamed when streamed = len -> ()
        | mark ->
          let offset = Option.value mark ~default:0 in
          let data = File_deltas.suffix files path offset in
          j.s_sink.Sink.sk_put (Sink.File_delta { path; offset; data });
          Hashtbl.replace j.j_marks path len)
      (File_deltas.paths files)

  (* Seal the pending frames as one chunk: deflate it, account
     compression, assemble it and — with a sink — stream it out behind
     its file deltas.  A bounded sink owns the chunk bytes from here on;
     the writer does not assemble them. *)
  let flush_chunk w =
    if w.pending_frames > 0 then begin
      let raw = Buffer.contents w.pending in
      Buffer.clear w.pending;
      (* Delta state must not leak across the chunk boundary — the
         decoder starts every chunk from a fresh context. *)
      Event.reset_ectx w.ectx;
      Telemetry.incr tm_chunk_flush;
      let stored =
        if w.compress then
          Telemetry.timed tm_deflate (fun () -> Compress.deflate raw)
        else Timeline.scope "trace.store" (fun () -> raw)
      in
      let stored_len = String.length stored in
      w.stats.n_chunks <- w.stats.n_chunks + 1;
      w.stats.compressed_bytes <- w.stats.compressed_bytes + stored_len;
      (* Every frame encodes at least its tag byte, so [raw] is not
         empty. *)
      Telemetry.observe tm_deflate_ratio (stored_len * 100 / String.length raw);
      let chunk =
        Sink.Chunk
          { first_frame = w.stats.n_events - w.pending_frames;
            n_frames = w.pending_frames;
            kinds = w.pending_kinds;
            stored = whole stored }
      in
      w.pending_frames <- 0;
      w.pending_kinds <- 0;
      if not w.bounded then assemble w.parts chunk;
      match w.sink with
      | None -> ()
      | Some j ->
        journal_files w j;
        j.s_sink.Sink.sk_put chunk;
        j.j_since_mark <- j.j_since_mark + 1;
        if j.j_since_mark >= journal_interval then begin
          j.s_sink.Sink.sk_put (Sink.Journal w.stats);
          j.j_since_mark <- 0
        end
    end

  (* Append one frame; returns the serialized size (for cost charging). *)
  let event w e =
    w.stats.n_events <- w.stats.n_events + 1;
    w.pending_frames <- w.pending_frames + 1;
    w.pending_kinds <- w.pending_kinds lor Event.kind_bit e;
    let before = Buffer.length w.pending in
    Event.encode w.ectx w.pending e;
    let sz = Buffer.length w.pending - before in
    w.stats.raw_bytes <- w.stats.raw_bytes + sz;
    (match e with
    | Event.E_buf_flush { records; _ } ->
      w.stats.n_buffered_syscalls <-
        w.stats.n_buffered_syscalls + List.length records
    | Event.E_syscall _ ->
      w.stats.n_traced_syscalls <- w.stats.n_traced_syscalls + 1
    | Event.E_clone _ | Event.E_exec _ | Event.E_mmap _ | Event.E_signal _
    | Event.E_sched _ | Event.E_insn_trap _ | Event.E_patch _
    | Event.E_exit _ | Event.E_rr_setup _ | Event.E_syscall_enter _
    | Event.E_checksum _ ->
      ());
    if Buffer.length w.pending >= w.chunk_limit then flush_chunk w;
    sz

  (* Snapshot an executable image into the trace (hard link / clone):
     costs no data copying, only accounting.  A journaling writer
     streams the image immediately — before any chunk can reference
     it. *)
  let add_image w ~path img =
    if not (Hashtbl.mem w.parts.as_images path) then begin
      let image = Sink.Image { path; img = Lazy.from_val img } in
      assemble w.parts image;
      let size = Image.byte_size img in
      w.stats.cloned_bytes <- w.stats.cloned_bytes + size;
      w.stats.cloned_blocks <-
        w.stats.cloned_blocks + ((size + 4095) / 4096);
      match w.sink with
      | Some j -> j.s_sink.Sink.sk_put image
      | None -> ()
    end

  (* [cloned] distinguishes free COW clones from real copies (the
     no-cloning configuration of Table 1); either way only the growth
     is accounted. *)
  let account_growth w ~cloned delta =
    if cloned then begin
      w.stats.cloned_bytes <- w.stats.cloned_bytes + delta;
      w.stats.cloned_blocks <- w.stats.cloned_blocks + ((delta + 4095) / 4096)
    end
    else w.stats.copied_file_bytes <- w.stats.copied_file_bytes + delta

  (* Snapshot a whole file under a fresh path. *)
  let add_file w ~path ~cloned data =
    if Hashtbl.mem w.parts.as_files path then
      Fmt.invalid_arg "Trace.Writer.add_file: %s already added" path;
    File_deltas.apply w.parts.as_files ~path ~offset:0 (whole data);
    account_growth w ~cloned (String.length data)

  (* Write [data] at [off] of a file that only grows (the per-task
     cloned-data file), zero-filling any gap past its current end. *)
  let append_file w ~path ~cloned ~off data =
    let files = w.parts.as_files in
    let len = File_deltas.length files path in
    if off < len then
      Fmt.invalid_arg "Trace.Writer.append_file: %s: offset %d below length %d"
        path off len;
    if off > len then
      File_deltas.apply files ~path ~offset:len
        (whole (String.make (off - len) '\000'));
    File_deltas.apply files ~path ~offset:off (whole data);
    account_growth w ~cloned (off + String.length data - len)

  (* Seal the last chunk and — with a sink — commit: final file deltas,
     then the sink's own commit step (trailer + footer + close for the
     file sink).  A sink IO failure propagates as {!Io.Io_error} (the
     recorder wraps it in its own typed error), and whatever prefix
     reached the sink is salvage input.  A bounded sink supplies the
     resulting trace — the retained ring window — since the writer kept
     no chunk bytes. *)
  let finish w =
    Timeline.scope "trace.commit" @@ fun () ->
    flush_chunk w;
    let result =
      match w.sink with
      | None -> None
      | Some j ->
        journal_files w j;
        j.s_sink.Sink.sk_commit w.stats (assembled_index w.parts);
        j.s_sink.Sink.sk_result
    in
    w.closed <- true;
    match result with Some r -> r () | None -> assembled w.parts w.stats

  (* Release a writer without committing: close the sink (for the file
     sink, the journal fd — the leak a killed recording used to leave
     behind).  Idempotent, and safe after a failed [finish]; never
     raises on sink close errors, because abort runs on error paths. *)
  let abort w =
    if not w.closed then begin
      w.closed <- true;
      match w.sink with
      | Some j -> (try j.s_sink.Sink.sk_close () with _ -> ())
      | None -> ()
    end
end

let n_events t = t.stats.n_events

let stats t = t.stats

let chunk_index t = t.index

let decoded_chunks t = t.chunk_decodes

let initial_exe t = t.initial_exe

let compressed t = t.compressed

let index t = t.sidecar

let set_index t ix =
  if Trace_index.n_events ix <> t.stats.n_events then
    Fmt.invalid_arg "Trace.set_index: index covers %d frames, trace has %d"
      (Trace_index.n_events ix) t.stats.n_events;
  t.sidecar <- Some ix

let image t path =
  match Hashtbl.find_opt t.images path with
  | Some img -> Lazy.force img
  | None -> Fmt.invalid_arg "trace: no image %s" path

(* The one copy a reader of a file makes: its bytes from [off], [len] of
   them or as many as the file holds past [off]. *)
let file_sub t path ~off ~len =
  match Hashtbl.find_opt t.files path with
  | Some s when off >= 0 && off <= s.len ->
    String.sub s.str (s.pos + off) (min len (s.len - off))
  | Some _ -> Fmt.invalid_arg "trace: offset %d outside file %s" off path
  | None -> Fmt.invalid_arg "trace: no file %s" path

(* ---- chunk decoding (the only path from stored bytes to frames) ----- *)

let decode_chunk ~origin ~compressed ~idx ci { str; pos; len } =
  if Crc32.sub str ~pos ~len <> ci.crc32 then begin
    Telemetry.incr tm_crc_fail;
    raise (Format_error (Chunk_crc idx))
  end;
  try
    let s =
      if compressed then
        Codec.source
          (Telemetry.timed tm_inflate (fun () ->
               Compress.inflate_sub str ~pos ~len))
      else Codec.source ~pos ~len str
    in
    let ectx = Event.ectx () in
    let out = Array.make ci.n_frames Event.(E_exit { tid = 0; status = 0 }) in
    for i = 0 to ci.n_frames - 1 do
      out.(i) <- Event.decode ectx s
    done;
    if not (Codec.eof s) then
      raise (Codec.Corrupt "trailing bytes after last frame");
    out
  with
  | Compress.Corrupt msg | Codec.Corrupt msg ->
    raise
      (Format_error
         (Corrupt
            { path = origin;
              detail =
                Fmt.str "corrupt chunk %d at frame %d: %s" idx ci.first_frame
                  msg }))

(* Fetch chunk [ci_idx] decoded, through the LRU. *)
let chunk_frames t ci_idx =
  match List.assoc_opt ci_idx t.cache with
  | Some frames ->
    (* move to front *)
    Telemetry.incr tm_chunk_hit;
    t.cache <- (ci_idx, frames) :: List.remove_assoc ci_idx t.cache;
    frames
  | None ->
    let frames =
      decode_chunk ~origin:t.origin ~compressed:t.compressed ~idx:ci_idx
        t.index.(ci_idx) t.chunks.(ci_idx)
    in
    t.chunk_decodes <- t.chunk_decodes + 1;
    Telemetry.incr tm_chunk_miss;
    t.cache <- (ci_idx, frames) :: t.cache;
    if List.length t.cache > cache_slots then begin
      Telemetry.incr tm_chunk_evict;
      t.cache <- List.filteri (fun i _ -> i < cache_slots) t.cache
    end;
    frames

(* Binary search: the chunk containing frame [i]. *)
let chunk_of_frame t i =
  let lo = ref 0 and hi = ref (Array.length t.index - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.index.(mid).first_frame <= i then lo := mid else hi := mid - 1
  done;
  !lo

module Reader = struct
  type cursor = { t : t; mutable pos : int }

  let open_ t = { t; pos = 0 }

  let pos c = c.pos
  let at_end c = c.pos >= n_events c.t

  let seek c i =
    if i < 0 || i > n_events c.t then
      Fmt.invalid_arg "Trace.Reader.seek: %d out of range [0,%d]" i
        (n_events c.t);
    c.pos <- i

  let frame t i =
    if i < 0 || i >= n_events t then
      Fmt.invalid_arg "Trace.Reader.frame: %d out of range [0,%d)" i
        (n_events t);
    let ci_idx = chunk_of_frame t i in
    (chunk_frames t ci_idx).(i - t.index.(ci_idx).first_frame)

  let peek c = if at_end c then None else Some (frame c.t c.pos)

  let next c =
    match peek c with
    | None -> invalid_arg "Trace.Reader.next: at end of trace"
    | Some e ->
      c.pos <- c.pos + 1;
      e

  (* Fold over every frame of the trace, one chunk at a time.  Chunks
     pass through the LRU, so a whole-trace fold costs one decode per
     chunk and holds at most [cache_slots] of them. *)
  let fold f t acc =
    let acc = ref acc in
    Array.iteri
      (fun ci_idx ci ->
        let frames = chunk_frames t ci_idx in
        Array.iteri (fun j e -> acc := f (ci.first_frame + j) e !acc) frames)
      t.index;
    !acc

  let iter f t = fold (fun i e () -> f i e) t ()

  let to_array t =
    Array.init (n_events t) (fun i -> frame t i)

  (* Frame searches.  [kind_mask], when given, lets the index skip whole
     chunks containing no frame of the wanted kinds — those chunks are
     never inflated. *)
  let chunk_may_match ci = function
    | None -> true
    | Some mask -> ci.kinds land mask <> 0

  let find_from ?kind_mask t from p =
    let n = n_events t in
    let from = max from 0 in
    if from >= n then None
    else begin
      let result = ref None in
      let ci_idx = ref (chunk_of_frame t from) in
      while !result = None && !ci_idx < Array.length t.index do
        let ci = t.index.(!ci_idx) in
        if chunk_may_match ci kind_mask then begin
          let frames = chunk_frames t !ci_idx in
          let j = ref (max 0 (from - ci.first_frame)) in
          while !result = None && !j < ci.n_frames do
            if p frames.(!j) then result := Some (ci.first_frame + !j);
            incr j
          done
        end;
        incr ci_idx
      done;
      !result
    end

  let rfind_before ?kind_mask t before p =
    let n = n_events t in
    let start = min (before - 1) (n - 1) in
    if start < 0 then None
    else begin
      let result = ref None in
      let ci_idx = ref (chunk_of_frame t start) in
      while !result = None && !ci_idx >= 0 do
        let ci = t.index.(!ci_idx) in
        if chunk_may_match ci kind_mask then begin
          let frames = chunk_frames t !ci_idx in
          let j = ref (min (ci.n_frames - 1) (start - ci.first_frame)) in
          while !result = None && !j >= 0 do
            if p frames.(!j) then result := Some (ci.first_frame + !j);
            decr j
          done
        end;
        decr ci_idx
      done;
      !result
    end
end

(* ---- parts access ------------------------------------------------------ *)

let chunk_stored t i = slice_string t.chunks.(i)

let image_entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.images []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let images t = List.map (fun (k, v) -> (k, Lazy.force v)) (image_entries t)

let file_slices t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.files []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let files t = List.map (fun (p, s) -> (p, slice_string s)) (file_slices t)

(* ---- the way out --------------------------------------------------------

   A finished trace leaves as the events a recording sends: the header,
   the images and files by path — each file whole from offset 0 — then
   the chunks in order.  [chunk] may rewrite each chunk on its way. *)
let events ?(chunk = fun _ ci stored ->
    Sink.Chunk
      { first_frame = ci.first_frame;
        n_frames = ci.n_frames;
        kinds = ci.kinds;
        stored }) t put =
  put (Sink.Header { compressed = t.compressed; initial_exe = t.initial_exe });
  List.iter
    (fun (path, img) -> put (Sink.Image { path; img }))
    (image_entries t);
  List.iter
    (fun (path, data) -> put (Sink.File_delta { path; offset = 0; data }))
    (file_slices t);
  Array.iteri (fun i ci -> put (chunk i ci t.chunks.(i))) t.index

(* Send [t] through [sink] and commit it, [before_commit] running
   between the last chunk and the commit.  On any failure the sink is
   closed and the exception re-raised. *)
let send ~before_commit t sink =
  try
    events t sink.Sink.sk_put;
    before_commit ();
    sink.Sink.sk_commit t.stats t.index
  with e ->
    (try sink.Sink.sk_close () with _ -> ());
    raise e

(* Rebuild the chunk stream with every frame rewritten by [f], keeping
   chunk boundaries.  A testing/tooling device (trace surgery, tamper
   injection); stats carry over with the frame-stream byte counts
   recomputed. *)
let map_frames f t =
  let a = assembly () in
  let raw_bytes = ref 0 in
  let ectx = Event.ectx () in
  let rewrite idx ci stored =
    let frames =
      decode_chunk ~origin:t.origin ~compressed:t.compressed ~idx ci stored
    in
    let kinds = ref 0 in
    let b = Codec.sink () in (* chunk-lifecycle *)
    Event.reset_ectx ectx;
    Array.iteri
      (fun j e ->
        let e' = f (ci.first_frame + j) e in
        kinds := !kinds lor Event.kind_bit e';
        Event.encode ectx b e')
      frames;
    let raw = Buffer.contents b in
    raw_bytes := !raw_bytes + String.length raw;
    Sink.Chunk
      { first_frame = ci.first_frame;
        n_frames = ci.n_frames;
        kinds = !kinds;
        stored = whole (if t.compressed then Compress.deflate raw else raw) }
  in
  events ~chunk:rewrite t (assemble a);
  assembled a { t.stats with raw_bytes = !raw_bytes }

(* ---- saving ---------------------------------------------------------- *)

(* The file sink fed as a recording would feed it, with the sidecar
   index records between the last chunk and the trailer: each is
   independently CRC'd, so a corrupt index drops on salvage while every
   chunk before it survives. *)
let save_io t io =
  Timeline.scope "trace.save" @@ fun () ->
  let sidecar () =
    Option.iter
      (fun ix ->
        write_record io ~tag:tag_index (fun b -> Trace_index.put_meta b ix);
        let put tag n tail =
          write_record io ~tag ~tail (fun b -> Trace_index.put_head b n tail)
        in
        Trace_index.records ix ~pool:(put tag_pool)
          ~checkpoint:(put tag_index_cp))
      t.sidecar
  in
  match send ~before_commit:sidecar t (Sink.of_io io) with
  | () -> Ok ()
  | exception Io.Io_error e -> Error (Io e)

let save t path =
  match Io.file_writer path with
  | io -> save_io t io
  | exception Io.Io_error e -> Error (Io e)

let save_exn t path =
  match save t path with Ok () -> () | Error e -> raise (Format_error e)

(* ---- loading --------------------------------------------------------- *)

(* What a scan has read so far: the records a recording sends, in an
   assembly; the trailer with its offset; the sidecar index records. *)
type scan = {
  sc_parts : assembly;
  mutable sc_at : int; (* offset of the record being applied *)
  mutable sc_trailer : (int * stats * chunk_info list) option;
  mutable sc_index : Trace_index.t option;
  sc_loading : Trace_index.loading; (* pool and checkpoint records *)
  mutable sc_images : (slice * Image.t Lazy.t) list;
      (* each distinct image payload so far *)
  mutable sc_body : int; (* the payload of [parse_record]'s last record: *)
  mutable sc_len : int; (* its offset and length *)
}

(* One parsed record attempt.  [R_short] covers both genuine truncation
   and a corrupted length varint that points past the scan region —
   indistinguishable without the CRC, and treated the same way by both
   the strict and lax paths. *)
type rec_result =
  | R_ok (* the payload is [sc_len] bytes at [sc_body], the CRC after it *)
  | R_short
  | R_bad_crc of char
  | R_bad of string

let parse_record sc data ~limit pos =
  if pos >= limit then R_short
  else begin
    let tag = data.[pos] in
    (* The payload length, a uvarint read in place. *)
    let p = ref (pos + 1) and shift = ref 0 and len = ref 0
    and more = ref true in
    while !more && !p < limit && !shift <= 62 do
      let b = Char.code data.[!p] in
      len := !len lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr p;
      more := b land 0x80 <> 0
    done;
    let body = !p and len = !len in
    if !more && !p >= limit then R_short
    else if !more then R_bad "record length varint too long"
    else if len < 0 then R_bad "record length out of range"
    else if len > limit - body - 4 then R_short
    else begin
      let crc = Crc32.sub data ~pos ~len:1 in
      let crc = Crc32.update crc data ~pos:body ~len in
      if Int32.of_int crc <> String.get_int32_le data (body + len) then begin
        Telemetry.incr tm_crc_fail;
        R_bad_crc tag
      end
      else begin
        sc.sc_body <- body;
        sc.sc_len <- len;
        R_ok
      end
    end
  end

let consumed s v =
  if not (Codec.eof s) then raise (Codec.Corrupt "trailing record bytes");
  v

(* An image is checked at open and decoded at first use, once for
   every path that holds its bytes: a build's many execs of one binary
   clone it under as many paths, and images are immutable. *)
let rec loaded_image sc data (payload : slice) = function
  | (p, img) :: rest ->
    if Codec.slice_equal p payload then img
    else loaded_image sc data payload rest
  | [] ->
    let source () = Codec.source ~pos:payload.pos ~len:payload.len data in
    let s = source () in
    Image_codec.check_image s;
    consumed s ();
    let img = lazy (Image_codec.get_image (source ())) in
    sc.sc_images <- (payload, img) :: sc.sc_images;
    img

let event sc s ev = assemble sc.sc_parts (consumed s ev)

(* Apply one CRC-valid record, its payload read where it lies in the
   file.  Raises [Codec.Corrupt] on a malformed payload and
   {!Format_error} on version skew. *)
let apply_record sc ~path tag data ~body ~len =
  let s = Codec.source_at data ~pos:body ~len in
  if tag = tag_header then begin
    let version = Codec.get_uvarint s in
    if version <> format_version then
      raise
        (Format_error
           (Version_skew { path; found = version; expected = format_version }));
    let compressed = Codec.get_bool s in
    let initial_exe = Codec.get_string s in
    event sc s (Sink.Header { compressed; initial_exe })
  end
  else if tag = tag_image then begin
    let path = Codec.get_string s in
    let img = loaded_image sc data (Codec.rest s) sc.sc_images in
    event sc s (Sink.Image { path; img })
  end
  else if tag = tag_file then begin
    let path = Codec.get_string s in
    let offset = Codec.get_uvarint s in
    event sc s (Sink.File_delta { path; offset; data = Codec.get_slice s })
  end
  else if tag = tag_chunk then begin
    let first_frame = Codec.get_uvarint s in
    let n_frames = Codec.get_uvarint s in
    let kinds = Codec.get_uvarint s in
    event sc s
      (Sink.Chunk { first_frame; n_frames; kinds; stored = Codec.rest s })
  end
  else if tag = tag_journal then event sc s (Sink.Journal (get_stats s))
  else if tag = tag_trailer then begin
    let stats = get_stats s in
    let index = Codec.get_list s get_chunk_info in
    sc.sc_trailer <- consumed s (Some (sc.sc_at, stats, index))
  end
  else if tag = tag_index then
    sc.sc_index <- consumed s (Trace_index.get_meta s)
  else if tag = tag_index_cp then Trace_index.load_checkpoint sc.sc_loading s
  else if tag = tag_pool then Trace_index.load_entry sc.sc_loading s
  else raise (Codec.Corrupt (Fmt.str "unknown record tag %C" tag))

let corrupt ~path detail = Corrupt { path; detail }

(* The one record-scanning loop, for {!open_} and {!salvage}: apply the
   records from byte 8 up to [limit] until the first damage.  Returns
   the scan, the offset its good records reach and the damage: a chunk
   record failing its CRC is {!Chunk_crc} with its ordinal, a header of
   another version {!Version_skew}, anything else {!Corrupt}. *)
let scan_records ~path data ~limit =
  let sc =
    { sc_parts = assembly ();
      sc_at = 8;
      sc_trailer = None;
      sc_index = None;
      sc_loading = Trace_index.loading ();
      sc_images = [];
      sc_body = 0;
      sc_len = 0 }
  in
  let rec go pos =
    if pos >= limit then (sc, pos, None)
    else
      match parse_record sc data ~limit pos with
      | R_ok -> (
        sc.sc_at <- pos;
        let body = sc.sc_body and len = sc.sc_len in
        match apply_record sc ~path data.[pos] data ~body ~len with
        | () -> go (body + len + 4)
        | exception Codec.Corrupt msg -> (sc, pos, Some (corrupt ~path msg))
        | exception Format_error e -> (sc, pos, Some e))
      | R_short -> (sc, pos, Some (corrupt ~path "truncated record"))
      | R_bad_crc tag when tag = tag_chunk ->
        (sc, pos, Some (Chunk_crc sc.sc_parts.as_n))
      | R_bad_crc tag ->
        (sc, pos, Some (corrupt ~path (Fmt.str "record %C failed CRC" tag)))
      | R_bad msg -> (sc, pos, Some (corrupt ~path msg))
  in
  go 8

(* Attach a scanned sidecar to a built trace, if it covers exactly the
   frames the trace carries.  A mismatched index (a salvage kept fewer
   chunks than the index describes) is silently dropped: the index is
   derived data and scans still answer. *)
let attach_scanned_index sc t =
  match sc.sc_index with
  | Some ix when Trace_index.n_events ix = t.stats.n_events ->
    Trace_index.attach ix sc.sc_loading ~upto:t.stats.n_events;
    t.sidecar <- Some ix
  | Some _ | None -> ()

(* Where the commit footer says the trailer starts. *)
let trailer_offset ~path data =
  let file_len = String.length data in
  if file_len < 8 + 16 then
    Error (Truncated { path; detail = "no room for header and footer" })
  else if String.sub data (file_len - 8) 8 <> footer_magic then
    Error
      (Truncated
         { path; detail = "missing commit footer (writer did not finish)" })
  else
    let toff = Int64.to_int (String.get_int64_le data (file_len - 16)) in
    if toff < 8 || toff > file_len - 16 then
      Error (corrupt ~path "trailer offset out of bounds")
    else Ok toff

(* Strict load: the footer must commit the file, every record must be
   CRC-valid, the last one must be the trailer the footer points at, and
   the trailer must agree field for field with the chunks scanned.  No
   chunk is inflated — frame-level validation stays lazy — but every
   stored byte is CRC-covered by its record, so bit rot is caught here,
   not at first access. *)
let load_bytes ~path data =
  let exception Stop of error in
  let fail fmt = Fmt.kstr (fun d -> raise (Stop (corrupt ~path d))) fmt in
  try
    let toff =
      match trailer_offset ~path data with Ok o -> o | Error e -> raise (Stop e)
    in
    let limit = String.length data - 16 in
    let sc, _, damage = scan_records ~path data ~limit in
    Option.iter (fun e -> raise (Stop e)) damage;
    let a = sc.sc_parts in
    if a.as_header = None then fail "missing header record";
    let stats, tindex =
      match sc.sc_trailer with
      | Some (at, stats, tindex) when at = toff && sc.sc_at = toff ->
        (stats, Array.of_list tindex)
      | Some _ -> fail "the footer does not point at the last record"
      | None -> fail "missing trailer record"
    in
    let scanned = assembled_index a in
    if Array.length tindex <> a.as_n then
      fail "trailer indexes %d chunks, stream has %d" (Array.length tindex)
        a.as_n;
    Array.iteri
      (fun i ti ->
        if ti.crc32 <> scanned.(i).crc32 then begin
          Telemetry.incr tm_crc_fail;
          raise (Stop (Chunk_crc i))
        end;
        if ti <> scanned.(i) then
          fail "trailer disagrees with stream on chunk %d" i)
      tindex;
    if stats.n_events <> a.as_frames then
      fail "stream covers %d frames, stats claim %d" a.as_frames
        stats.n_events;
    if stats.n_chunks <> a.as_n then
      fail "stream has %d chunks, stats claim %d" a.as_n stats.n_chunks;
    (match sc.sc_index with
    | Some ix when Trace_index.n_events ix <> stats.n_events ->
      fail "index covers %d frames, trace has %d" (Trace_index.n_events ix)
        stats.n_events
    | Some _ | None -> ());
    let t = assembled ~origin:path a stats in
    attach_scanned_index sc t;
    Ok t
  with Stop e -> Error e

(* Dispatch on the 8-byte magic, for both open and salvage: the older
   RRTRACE1 and RRTRACE2 containers are version skew, not garbage. *)
let with_magic ~path data k =
  let skew found =
    Error (Version_skew { path; found; expected = format_version })
  in
  if String.length data < 8 then
    Error (Truncated { path; detail = "shorter than the magic" })
  else
    match String.sub data 0 8 with
    | m when m = magic -> k ()
    | "RRTRACE1" -> skew 1
    | "RRTRACE2" -> skew 2
    | _ -> Error (Bad_magic { path })

let open_io r =
  match Io.read_all r with
  | data ->
    let path = Io.reader_path r in
    with_magic ~path data (fun () -> load_bytes ~path data)
  | exception Io.Io_error e -> Error (Io e)

let open_ path = open_io (Io.file_reader path)

let open_exn path =
  match open_ path with Ok t -> t | Error e -> raise (Format_error e)

(* ---- salvage --------------------------------------------------------- *)

type salvage_report = {
  sr_path : string;
  sr_total_bytes : int;
  sr_valid_bytes : int; (* prefix that scanned as CRC-valid records *)
  sr_chunks_recovered : int;
  sr_frames_recovered : int;
  sr_chunks_lost : int option; (* None: total unknown (no trailer found) *)
  sr_frames_lost : int option;
  sr_files_recovered : int;
  sr_images_recovered : int;
  sr_committed : bool; (* the commit footer was present and valid *)
  sr_damage : string option; (* None: nothing wrong with the file *)
}

let pp_salvage_report ppf r =
  Fmt.pf ppf
    "%s: %d/%d bytes valid, recovered %d chunks (%d frames), %d files, %d \
     images;%s%s%s"
    r.sr_path r.sr_valid_bytes r.sr_total_bytes r.sr_chunks_recovered
    r.sr_frames_recovered r.sr_files_recovered r.sr_images_recovered
    (match r.sr_chunks_lost with
    | Some c ->
      Fmt.str " lost %d chunks (%s frames);" c
        (match r.sr_frames_lost with Some f -> string_of_int f | None -> "?")
    | None -> " loss unknown (no trailer);")
    (if r.sr_committed then " committed" else " uncommitted")
    (match r.sr_damage with
    | Some d -> Fmt.str "; damage: %s" d
    | None -> "; intact")

(* Lax scan + decode-verify: recover the longest prefix of the record
   stream that is CRC-valid, well-formed *and* whose chunks actually
   inflate and decode.  Everything past the first damage — or the first
   undecodable chunk — is reported lost, never silently included. *)
let salvage_bytes ~path data =
  let file_len = String.length data in
  let committed = Result.is_ok (trailer_offset ~path data) in
  (* With a valid footer the last 16 bytes are framing, not records. *)
  let limit = if committed then file_len - 16 else file_len in
  let sc, valid_bytes, damage = scan_records ~path data ~limit in
  let a = sc.sc_parts in
  let damage_at = function
    | Corrupt { detail; _ } -> Fmt.str "byte %d: %s" valid_bytes detail
    | Chunk_crc _ ->
      Fmt.str "byte %d: record %C failed CRC" valid_bytes tag_chunk
    | e -> Fmt.str "byte %d: %s" valid_bytes (error_to_string e)
  in
  match (a.as_header, damage) with
  | None, Some (Version_skew _ as e) -> Error e
  | None, _ ->
    (* Nothing before the first chunk survived: unrecoverable. *)
    Error
      (corrupt ~path
         (Fmt.str "header record unrecoverable (%s)"
            (match damage with Some e -> damage_at e | None -> "empty stream")))
  | Some (compressed, _), _ ->
    let damage = ref (Option.map damage_at damage) in
    (* Decode-verify: keep the longest chunk prefix that inflates and
       decodes. *)
    let rec verified i = function
      | [] -> i
      | (ci, stored) :: rest -> (
        match decode_chunk ~origin:path ~compressed ~idx:i ci stored with
        | _ -> verified (i + 1) rest
        | exception Format_error e ->
          if !damage = None then
            damage := Some (Fmt.str "chunk %d: %s" i (error_to_string e));
          i)
    in
    let n_kept = verified 0 (List.rev a.as_chunks) in
    (* Final stats: structural fields recomputed from the kept prefix;
       accounting fields (raw/cloned/copied/syscall counts) from the
       best stats snapshot not newer than the salvage point — the
       trailer if everything survived, else the newest journal whose
       chunk count the kept prefix still covers. *)
    let base =
      match sc.sc_trailer with
      | Some (_, ts, _) when !damage = None && n_kept = a.as_n -> Some ts
      | _ -> List.find_opt (fun js -> js.n_chunks <= n_kept) a.as_journals
    in
    let t =
      assembled ~origin:path ~keep:n_kept a
        (Option.value base ~default:(new_stats ()))
    in
    attach_scanned_index sc t;
    let frames_recovered = t.stats.n_events in
    let chunks_lost, frames_lost =
      match sc.sc_trailer with
      | Some (_, ts, _) ->
        (Some (ts.n_chunks - n_kept), Some (ts.n_events - frames_recovered))
      | None when !damage = None ->
        (* Clean scan to EOF but no trailer: the writer died before the
           commit — the stream itself is all there is. *)
        (Some (a.as_n - n_kept), Some (a.as_frames - frames_recovered))
      | None -> (None, None)
    in
    let report =
      { sr_path = path;
        sr_total_bytes = file_len;
        sr_valid_bytes = valid_bytes;
        sr_chunks_recovered = n_kept;
        sr_frames_recovered = frames_recovered;
        sr_chunks_lost = chunks_lost;
        sr_frames_lost = frames_lost;
        sr_files_recovered = Hashtbl.length t.files;
        sr_images_recovered = Hashtbl.length t.images;
        sr_committed = committed;
        sr_damage = !damage }
    in
    Telemetry.add tm_salvage_chunks n_kept;
    Telemetry.add tm_salvage_frames frames_recovered;
    Telemetry.add tm_salvage_lost (max 0 (file_len - valid_bytes));
    Ok (t, report)

let salvage_io r =
  Telemetry.incr tm_salvage_runs;
  match Io.read_all r with
  | data ->
    let path = Io.reader_path r in
    with_magic ~path data (fun () -> salvage_bytes ~path data)
  | exception Io.Io_error e -> Error (Io e)

let salvage path = salvage_io (Io.file_reader path)

let pp_stats ppf s =
  Fmt.pf ppf
    "events=%d raw=%dB compressed=%dB (%.2fx) cloned=%dB (%d blocks) \
     copied=%dB buffered-syscalls=%d traced-syscalls=%d"
    s.n_events s.raw_bytes s.compressed_bytes
    (Compress.ratio ~original:s.raw_bytes ~compressed:s.compressed_bytes)
    s.cloned_bytes s.cloned_blocks s.copied_file_bytes s.n_buffered_syscalls
    s.n_traced_syscalls
