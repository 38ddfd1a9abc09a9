(** Host-entropy source: the single fountain of nondeterminism in the
    simulated machine.  Record and replay runs are seeded differently, so
    any entropy that leaks into user-space state un-recorded shows up as a
    replay divergence. *)

type t

val create : int -> t
(** [create seed] makes an independent generator. *)

val bits : t -> int
(** A nonnegative pseudo-random int (61 bits). *)

val int : t -> int -> int
(** [int t bound] is in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val range : t -> int -> int -> int
(** [range t lo hi] is in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val byte : t -> int
(** In [\[0, 255\]]. *)

val state : t -> int64
(** The raw generator state, for checkpoint snapshots. *)

val set_state : t -> int64 -> unit
(** Restore a state captured with {!state}: the generator resumes the
    exact draw sequence from that point. *)
