(** Per-task performance counters.  Only [rcb] is deterministic; the
    others pick up noise from interrupts, and the overflow interrupt
    skids past the programmed count — the constraints that shape rr's
    async-event design (paper §2.4). *)

type interrupt = { target : int; mutable skid : int; mutable primed : bool }

type t = {
  mutable rcb : int;
  mutable insns : int;
  mutable branches : int;
  mutable interrupt : interrupt option;
}

val create : unit -> t

val max_skid : int
(** Upper bound on interrupt skid, in instructions. *)

val program_interrupt : t -> target:int -> skid:int -> unit
(** Fire an interrupt [skid] instructions after [rcb] reaches [target]. *)

val clear_interrupt : t -> unit

val ticks_from : t -> int
(** The RCB count from which {!tick_interrupt} can change anything:
    [max_int] with no interrupt programmed, [min_int] once it is
    primed, else its target.  A tick while [rcb] is below it returns
    false and changes nothing, so the interpreter skips it. *)

val tick_interrupt : t -> bool
(** Advance the interrupt state machine by one retired instruction;
    true when the interrupt fires. *)

val add_noise : t -> Entropy.t -> unit
(** Pollute the nondeterministic counters (interrupt/fault noise). *)

val snapshot : t -> int * int * int
(** [(rcb, insns, branches)]. *)
