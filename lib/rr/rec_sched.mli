(** The recorder's scheduler (paper §2.2): one task at a time, strict
    priorities, round-robin among equals, preemption budgets in RCBs.
    Chaos mode (paper §8) perturbs priorities and timeslices randomly to
    surface races; its randomness comes from recording-side entropy, and
    every decision is recorded, so replay is unaffected. *)

type t = {
  mutable order : int list; (* round-robin order of tids *)
  base_timeslice_rcbs : int;
  chaos : bool;
  entropy : Entropy.t;
  chaos_prio : (int, int) Hashtbl.t;
  mutable picks_until_reshuffle : int;
}

val create : ?timeslice_rcbs:int -> ?chaos:bool -> seed:int -> unit -> t

val add_task : t -> int -> unit
(** Register a tid at the back of the round-robin order. *)

val prefer : t -> int -> unit
(** Move a tid to the front of the round-robin order so the next pick in
    its priority class chooses it (used to run a fresh clone child
    first). *)

val remove_task : t -> int -> unit

val pick : t -> runnable:(int -> bool) -> priority:(int -> int) -> int option
(** Choose the next task among [runnable] tids: best (lowest) effective
    priority, round-robin within the class.  Rotates the chosen task to
    the back. *)

val timeslice : t -> int
(** The RCB budget for the next slice (randomized under chaos). *)
