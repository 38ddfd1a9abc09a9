(** Unified telemetry: a process-wide registry of named counters, gauges,
    histograms and spans, plus a fixed-size ring of the last N structured
    events.

    This is the observability substrate of the reproduction (paper §6.2:
    diagnosing failures in the field needs the machinery built in, and
    §7's evaluation needs overhead attributable to tracing, syscallbuf,
    scratch and compression).  Every layer — kernel, trace store,
    recorder, replayer — reports through here; the CLI (`rr_cli stats`),
    the bench harness and {!Diagnostics.dump} render it.

    Conventions:
    - metric names are dotted [<layer>.<noun>[_<unit>]], e.g.
      [syscallbuf.hit], [record.scratch_bytes], [trace.chunk.evict];
    - spans are phases, [<layer>.<verb>], e.g. [record.syscall],
      [replay.seek], [trace.inflate]; each span owns a latency histogram
      registered as [<name>.ns];
    - the GDB stub ([lib/gdbstub]) reports as the [gdb] layer:
      [gdb.packets] (RSP packets served), [gdb.reverse_seeks] (reverse
      continue/step resolutions and checkpoint restarts), and the
      [gdb.cmd] span timing every command dispatch;
    - the flight-recorder ring reports as the [ring] layer:
      [ring.dropped_chunks] and the [ring.resident_bytes] gauge (window
      memory cost);
    - all durations are *virtual* nanoseconds from the cost model, read
      through {!Timeline.now}, the one virtual clock that the recorder
      and replayer install with {!Timeline.set_virtual_clock} (no
      wall-clock dependency, so telemetry never perturbs determinism);
    - {!Timeline} scopes reuse the span namespace: every {!timed} span
      doubles as a timeline scope of the same dotted [<layer>.<verb>]
      name, and {!note} mirrors each event as a timeline instant on the
      task's lane.  Scope names introduced directly via [Timeline.scope]
      must follow the same dotted convention ([tools/check_format.sh]
      lints this); [<layer>.session] is reserved for whole-phase roots.

    The registry is process-global and survives {!reset}: handles stay
    valid, only values are zeroed.  All operations on the hot path are
    O(1) updates of plain mutable fields.  The program is single-domain
    ([tools/check_format.sh] rejects domains, atomics and mutexes under
    [lib/]), so nothing here locks. *)

(** {1 Metrics} *)

type counter
type gauge
type histogram
type span

val counter : string -> counter
(** Find or register the counter [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

val histogram : string -> histogram
(** Log2-bucketed distribution of non-negative integers (virtual-ns
    latencies, ratios, sizes): bucket [i] counts values in
    [\[2{^i-1}, 2{^i})]. *)

val observe : histogram -> int -> unit

val span : string -> span
(** A timed scope keyed by phase.  Also registers the histogram
    [<name>.ns] which every recorded duration feeds. *)

val span_add : span -> int -> unit
(** Record one completed pass of the span lasting [ns] virtual ns. *)

val span_count : span -> int

val timed : span -> (unit -> 'a) -> 'a
(** Run the thunk inside the span, charging the elapsed virtual ns read
    from {!Timeline.now} (zero-duration counts when no clock is set).
    Exception-safe: the span is recorded even if the thunk raises. *)

(** {1 The event ring} *)

type event = {
  seq : int; (** global sequence number, from 0 *)
  tid : int; (** task id, or -1 *)
  frame : int; (** trace frame index, or -1 *)
  kind : string;
  detail : string;
}

val ring_capacity : int
(** The ring keeps the last [ring_capacity] events (currently 64). *)

val note : ?tid:int -> ?frame:int -> kind:string -> string -> unit
(** Append a structured event to the ring, overwriting the oldest once
    the ring is full. *)

val recent : unit -> event list
(** The ring's contents, oldest first — at most {!ring_capacity}. *)

(** {1 Snapshots} *)

type span_stat = { s_count : int; s_total_ns : int; s_max_ns : int }

type hist_stat = {
  h_count : int;
  h_sum : int;
  h_buckets : (int * int) list;
      (** (inclusive upper bound, count), non-empty buckets only *)
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * int) list;
  snap_histograms : (string * hist_stat) list;
  snap_spans : (string * span_stat) list;
  snap_events : event list; (** the ring tail at snapshot time *)
}
(** An immutable copy of the registry; every section is sorted by name. *)

val snapshot : unit -> snapshot

val hist_quantile : hist_stat -> float -> float
(** [hist_quantile h q] estimates the [q]-quantile (0 ≤ q ≤ 1) from the
    log2 buckets: walk the cumulative counts to the target rank, then
    interpolate linearly inside the bucket's value range.  Exact to
    within a factor of 2 (the bucket width); monotone in [q]; [0.] on an
    empty histogram.  Works on {!since}-diffed stats too. *)

val since : snapshot -> snapshot
(** [since base] is the current snapshot minus [base]: counters, span
    counts/totals and histogram buckets subtract; gauges and span maxima
    take their current values; events are the current ring tail.  This
    is how per-run telemetry is carved out of the process-global
    registry (e.g. the snapshots embedded in [Recorder.stats]). *)

val reset : unit -> unit
(** Zero every registered metric and empty the ring.  Registered handles
    remain valid. *)

(** {1 Rendering} *)

val pp_event : event Fmt.t

val pp : snapshot Fmt.t
(** Human-readable table: counters, gauges, spans (count/total/max/avg),
    histogram buckets, then the event tail. *)

val snapshot_to_json : snapshot -> string
(** A single JSON object: [{"counters":{..},"gauges":{..},
    "histograms":{..},"spans":{..},"events":[..]}].  Each histogram
    carries derived [p50]/[p90]/[p99] estimates (from {!hist_quantile})
    alongside its raw buckets.  Hand-rolled, dependency-free, with full
    string escaping. *)
