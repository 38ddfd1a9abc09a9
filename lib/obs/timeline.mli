(** Hierarchical timed-scope tracing with Chrome trace-event export.

    Where {!Telemetry} answers "how many / how long in aggregate",
    [Timeline] answers "when, under what, and on which task": begin/end
    scope events carrying both the virtual cost-model clock and an
    optional host clock, nested on one stack of open scopes, laid out
    in per-task {e lanes} keyed by guest tid, plus instant markers.
    Events land in one bounded buffer; recording is off by default and
    every emit point is one flag check when disabled.

    Naming convention: scope and instant names are dotted
    [<layer>.<verb>] (["kern.run"], ["trace.deflate"], ["record.stop"])
    — the first segment maps to the owning library and becomes the
    Chrome [cat] field.  [<layer>.session] names are reserved for
    whole-phase root scopes and are excluded from stage attribution.

    The program is single-domain, so nothing here locks; exports are
    offline and read the buffer as {!stop} left it. *)

(** {1 Lifecycle} *)

val start : ?capacity:int -> unit -> unit
(** Reset and enable recording into a fresh buffer of [capacity] events
    (default 2^18).  Events beyond capacity are dropped and counted. *)

val stop : unit -> unit
(** Disable recording.  The buffer is kept for export. *)

val enabled : unit -> bool

val dropped : unit -> int
(** Events lost to buffer overflow since {!start}. *)

val mismatches : unit -> int
(** Unbalanced {!end_scope} calls (no open frame, or name differing
    from the innermost open frame) observed while enabled. *)

(** {1 Clocks}

    Timestamps are nanoseconds.  The virtual clock is the cost-model
    clock: [Recorder.record] and [Replayer.replay] install their
    kernel's clock at start and clear it on every exit, and an
    incremental replay ([Replayer.start], [Replayer.restore]) installs
    it for its caller to clear.  It is the one clock that decides what
    "now" means, for timeline events and for [Telemetry.timed] spans
    alike.  The host clock is wall-time, installed by profiling
    front-ends.  Both default to a constant [0]. *)

val set_virtual_clock : (unit -> int) -> unit
val clear_virtual_clock : unit -> unit

val now : unit -> int
(** The installed virtual clock's reading, [0] when none is set. *)

val set_host_clock : (unit -> int) -> unit
val clear_host_clock : unit -> unit

(** {1 Lanes}

    A lane is a Chrome "thread" row: lane 0 is the supervisor and kernel
    tasks use their guest tid.  New events inherit the current lane. *)

val set_lane : int -> unit
(** Switch the current lane. *)

(** {1 Recording} *)

val begin_scope : ?lane:int -> string -> unit
(** Open a scope (in [lane], default the current lane).  Must be
    balanced by {!end_scope} with the same name; the pair becomes a
    [B]/[E] interval nested under the innermost open scope.  Scope
    frames are tracked even while disabled, so a scope open across
    {!start} or {!stop} never unbalances the export. *)

val end_scope : string -> unit
(** Close the innermost open scope.  A [name] mismatch closes the frame
    anyway (emitting the frame's own name on its opening lane) and
    increments {!mismatches}. *)

val scope : ?lane:int -> string -> (unit -> 'a) -> 'a
(** [scope name f] runs [f] inside a [name] scope, closing it on normal
    return {e and} on exception. *)

val instant : ?lane:int -> string -> unit
(** A zero-duration marker (Chrome [i] event). *)

(** {1 Export} *)

type kind = B | E | I

type event = {
  ev_kind : kind;
  ev_name : string;
  ev_lane : int;
  ev_vts : int;  (** virtual ns *)
  ev_hts : int;  (** host ns; 0 without a host clock *)
}

val events : unit -> event list
(** Recorded events in buffer order. *)

val to_chrome_json : unit -> string
(** The buffer as a Chrome trace-event document: an object with
    [traceEvents] (metadata thread names per lane, then [B]/[E]/[i]
    events with [ts] in µs of virtual time and host ns in [args]) plus
    [otherData] carrying drop/mismatch counts.  Per-lane timestamps are
    clamped monotone and scopes still open at the end of the buffer are
    synthesised closed, so every [B] has a matching [E]. *)

val export : string -> unit
(** Write {!to_chrome_json} to a file. *)

(** {1 Aggregation} *)

type stage = {
  st_name : string;
  st_self_ns : int;  (** self time: total minus instrumented children *)
  st_count : int;
}

type summary = {
  at_total_ns : int;  (** virtual-time window spanned by the buffer *)
  at_covered_ns : int;  (** sum of stage self times *)
  at_stages : stage list;  (** sorted by descending self time *)
  at_untracked_ns : int;  (** window minus covered *)
}

val attribution : unit -> summary
(** The paper-style per-stage ledger: replay the buffer through
    per-lane stacks into a merged scope tree, then charge each scope
    name its {e self} time (so stages partition the instrumented time
    and percentages are additive).  [*.session] roots are treated as
    the measurement window, not a stage. *)

val attribution_to_json : summary -> string

val pp_flamegraph : Format.formatter -> unit -> unit
(** Self-contained text flamegraph: the merged scope tree with share,
    inclusive ns and count per node.  Shares are of the same window
    {!attribution} uses, so a session root reads 100%. *)

val pp_attribution : Format.formatter -> unit -> unit
(** The attribution ledger as a text table. *)
