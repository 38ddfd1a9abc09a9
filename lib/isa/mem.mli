(** Physical page frames with copy-on-write reference counting.  Every
    frame that has never been written maps one immutable all-zero
    buffer; {!own} gives a frame its own bytes before its first write. *)

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

val fresh_page : prot:prot -> shared:bool -> page
(** A zero frame with one mapper.  It holds the shared zero buffer until
    {!own}. *)

val page_index : int -> int
val page_offset : int -> int
val incref : page -> unit
val decref : page -> unit

val copy : page -> page
(** A new frame with the same contents, prot and sharing, and no
    mappers ([refs = 0]).  A zero frame's copy shares the zero buffer. *)

val unshare : page -> page
(** Copy a COW page for the caller; other mappers keep the original. *)

val own : page -> unit
(** Give a frame its own bytes if it still maps the shared zero buffer.
    Call it on every frame about to be written, after breaking COW. *)

val is_zero : page -> bool
(** Every byte of the frame is zero.  Constant time for a frame that
    still maps the zero buffer. *)

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
(** Only on a frame that {!own} has seen since its last COW break. *)
