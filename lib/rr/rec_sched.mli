(** The recorder's scheduler (paper §2.2): one task at a time, strict
    priorities, round-robin among equals, preemption budgets in RCBs.
    Chaos mode (paper §8) perturbs priorities and timeslices randomly to
    surface races; its randomness comes from recording-side entropy, and
    every decision is recorded, so replay is unaffected. *)

type t

val create : ?timeslice_rcbs:int -> ?chaos:bool -> seed:int -> unit -> t

val add_task : t -> int -> unit
(** Register a tid at the back of the round-robin order. *)

val prefer : t -> int -> unit
(** Move a tid to the front of the round-robin order so the next pick in
    its priority class chooses it (used to run a fresh clone child
    first). *)

val remove_task : t -> int -> unit

val order : t -> int list
(** The round-robin order, front first. *)

val pick : t -> runnable:(int -> bool) -> priority:(int -> int) -> int option
(** Choose the next task among [runnable] tids: best (lowest) effective
    priority, round-robin within the class, ties to the first in the
    order.  Rotates the chosen task to the back.  Asks [runnable] of
    every tid in order, and [priority] of a tid only right after
    [runnable] accepted it.  Allocates only its [Some]. *)

val timeslice : t -> int
(** The RCB budget for the next slice (randomized under chaos). *)
