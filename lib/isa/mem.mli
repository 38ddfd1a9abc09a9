(** Physical page frames with copy-on-write reference counting. *)

val page_size : int

type prot = int

val prot_r : prot
val prot_w : prot
val prot_rw : prot

type page = {
  mutable bytes : Bytes.t;
  mutable refs : int;
  mutable prot : prot;
  mutable shared : bool;
}

val fresh_page : ?prot:prot -> ?shared:bool -> unit -> page
val page_index : int -> int
val page_offset : int -> int
val incref : page -> unit
val decref : page -> unit

val unshare : page -> page
(** Copy a COW page for the caller; other mappers keep the original. *)

val is_zero : page -> bool
(** Every byte of the frame is zero. *)

(** Frames keyed by physical identity.  A frame's contents must not
    change while it is a key. *)
module Identity : sig
  type 'a t

  val create : unit -> 'a t

  val find_or_add : 'a t -> page -> (unit -> 'a) -> 'a
  (** The value bound to this very frame, made by [make] and bound on
      first sight. *)
end

val get_u8 : page -> int -> int
val set_u8 : page -> int -> int -> unit
