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

    It also carries durable checkpoint images (opaque blobs encoded by
    the replayer) so a freshly reopened trace seeks in O(delta) without
    replaying from frame 0.

    The index is derived data: traces remain fully usable without one,
    and a corrupt index record is dropped on salvage while the frame
    stream stays readable. *)

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

(* ----- building ---------------------------------------------------- *)

type builder

val builder : clock0:int -> builder
(** [clock0] is the virtual-clock reading at position 0 (after replay
    setup, before any frame). *)

val note_frame : builder -> Event.t -> pages:int list -> clock:int -> unit
(** Record the next frame in order: the event, the page indexes its
    application wrote (from the {!Addr_space} write observer), and the
    virtual clock after applying it. *)

val note_checkpoint : builder -> frame:int -> blob:string -> unit
(** Attach a durable checkpoint image restoring to position [frame]. *)

val finish : builder -> t

val set_checkpoints : t -> (int * Codec.slice) list -> unit
(** Loader hook: replace the durable checkpoints with [(frame, blob)]s
    read from their own records, in any order. *)

(* ----- codec -------------------------------------------------------- *)

val put_meta : Codec.sink -> t -> unit
(** The index tables {e without} checkpoints (those travel as their own
    records so one corrupt blob never takes down the whole index). *)

val get_meta : Codec.source -> t
(** Raises {!Codec.Corrupt} on malformed input. *)

val put_checkpoint_head : Codec.sink -> frame:int -> blob:Codec.slice -> unit
(** A checkpoint record's fields before the blob: the blob's bytes
    follow them, written by the caller without a copy. *)

val get_checkpoint : Codec.source -> int * Codec.slice
(** A checkpoint record's frame and blob, the blob where it lies in the
    source's string. *)
