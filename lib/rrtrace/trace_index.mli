(** Persistent sidecar indexes for time travel (paper §2.7: derived
    artifacts stored alongside the trace so later sessions need not
    recompute them).

    An index answers three questions in O(log n) that otherwise need an
    O(n) scan or a full replay:

    - {b per-pc}: the latest frame before a point whose recorded
      registers land on a given pc ([prev_exec] — the [bc] breakpoint
      scan);
    - {b per-address}: which frames may have written a byte range
      ([write_candidates] — reverse-watchpoint resolution).  Candidates
      are page-granular and a deliberate {e superset}: frames with
      unbounded effects (exec, clone, performed syscalls) are always
      candidates, and the debugger verifies each candidate by sampling
      so indexed answers stay byte-identical to scan-based ones;
    - {b per-time}: the frame position whose virtual-clock reading is
      the latest not exceeding T ([frame_of_time] — seek_to_time).

    It also carries durable checkpoints ({!Snapshot} blobs) so a freshly
    reopened trace seeks in O(delta) without replaying from frame 0.
    The blobs name their frames' bytes, task-locals windows and text
    runs in one {!Pool} of byte windows shared by every checkpoint of
    the index, so each distinct window is stored once.

    The index is derived data: traces remain fully usable without one,
    and a corrupt index record is dropped on salvage while the frame
    stream stays readable. *)

(** Content-addressed byte windows, numbered in the order they are
    first added. *)
module Pool : sig
  type t

  val create : unit -> t
  val length : t -> int

  val bytes : t -> int
  (** The entries' total length. *)

  val intern : t -> Codec.slice -> int
  (** The id of the entry holding the window's bytes (a hash, then a
      comparison with the entry), added on first sight as a copy, so an
      entry's bytes never change whatever becomes of the window. *)

  val add : t -> Codec.slice -> unit
  (** Loader hook: append the next entry where it lies, without looking
      for an equal one. *)

  val get : t -> int -> Codec.slice
  (** Raises {!Codec.Corrupt} when the pool has no such entry. *)
end

type t

val n_events : t -> int
(** Number of frames the index covers; must equal the trace's. *)

(* ----- queries ----------------------------------------------------- *)

val prev_exec : t -> pc:int -> before:int -> int option
(** Latest frame [f < before] whose {!Event.frame_pc} is [pc]. *)

val write_candidates : t -> addr:int -> len:int -> before:int -> int list
(** Frames [f < before] that may have changed bytes in
    [addr, addr+len), newest first.  A superset by design — verify each
    by sampling. *)

val frame_of_time : t -> int -> int option
(** Largest position [p] whose virtual-clock reading is [<= t]; [None]
    if even position 0 is later than [t]. *)

val clock_at : t -> int -> int
(** Virtual-clock reading at position [p] (0 <= p <= n_events). *)

val nearest_checkpoint : t -> int -> (int * Codec.slice) option
(** Greatest durable checkpoint [(frame, blob)] with [frame <= target].
    A loaded trace's blobs lie in the bytes its file was read into. *)

val checkpoints : t -> (int * Codec.slice) array
(** All durable checkpoints, ascending by frame. *)

val pool : t -> Pool.t
(** The windows the checkpoint blobs name. *)

(* ----- building ---------------------------------------------------- *)

type builder

val builder : clock0:int -> pool:Pool.t -> builder
(** [clock0] is the virtual-clock reading at position 0 (after replay
    setup, before any frame); the checkpoints noted name entries of
    [pool], which becomes the index's. *)

val note_frame : builder -> Event.t -> pages:int list -> clock:int -> unit
(** Record the next frame in order: the event, the page indexes its
    application wrote (from the {!Addr_space} write observer), and the
    virtual clock after applying it. *)

val note_checkpoint : builder -> frame:int -> blob:string -> unit
(** Attach a durable checkpoint image restoring to position [frame],
    encoded against the builder's pool as it stands. *)

val finish : builder -> t

val set_checkpoints :
  t -> pool:Pool.t -> (int * Codec.slice * int) list -> unit
(** Replace the pool, and the durable checkpoints with
    [(frame, blob, upto)]s in any order (kept sorted by frame, stably);
    [upto] is how many pool entries precede the checkpoint's record. *)

val records :
  t -> pool:(int -> Codec.slice -> unit) ->
  checkpoint:(int -> Codec.slice -> unit) -> unit
(** The pool entries and checkpoints in the order they are saved: by
    frame, each checkpoint after the entries that precede its record
    ([pool id window], [checkpoint frame blob]). *)

(* ----- codec -------------------------------------------------------- *)

val put_meta : Codec.sink -> t -> unit
(** The index tables {e without} checkpoints or pool entries (those
    travel as their own records so one corrupt blob never takes down
    the whole index). *)

val get_meta : Codec.source -> t option
(** [None] for the tables of another index version, which a loader
    drops with the checkpoints: the index is derived data, and
    [rr_cli index] builds it again.  Raises {!Codec.Corrupt} on
    malformed input.  The tables are read through here, building
    nothing, and decoded where they lie at the first query. *)

val put_head : Codec.sink -> int -> Codec.slice -> unit
(** A checkpoint record's fields before its blob, or a pool record's
    before its window: the frame or id, and the length of the bytes the
    caller then writes without a copy. *)

type loading
(** The pool and checkpoint records a loader has read so far. *)

val loading : unit -> loading

val load_entry : loading -> Codec.source -> unit
(** Read a pool record's payload, its window where it lies.  Raises
    {!Codec.Corrupt} on a malformed payload or an id out of order, and
    then keeps nothing of it. *)

val load_checkpoint : loading -> Codec.source -> unit
(** Read a checkpoint record's payload, its blob where it lies, noting
    how many pool records precede it.  Raises {!Codec.Corrupt} on a
    malformed payload, and then keeps nothing of it. *)

val attach : t -> loading -> upto:int -> unit
(** {!set_checkpoints} with what was loaded, keeping the checkpoints at
    frames up to [upto]. *)
