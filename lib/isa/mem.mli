(** Physical page frames with copy-on-write reference counting.  A
    frame's bytes are a 4 KB window of a buffer.  A frame that {!own}
    has not seen borrows that window from an immutable source other
    frames may map too: one all-zero buffer for a frame never written,
    or the string a checkpoint blob was read into ({!borrow}). *)

val page_size : int

type prot = int

val prot_r : prot
val prot_w : prot
val prot_rw : prot

type page = {
  mutable bytes : Bytes.t;
  mutable off : int; (* the window starts at [off] *)
  mutable borrowed : bool; (* [bytes] is an immutable source *)
  mutable refs : int;
  mutable prot : prot;
  mutable shared : bool;
}
(** Only this module assigns [bytes], [off] or [borrowed], or writes
    into [bytes] (tools/check_format.sh). *)

val fresh_page : prot:prot -> shared:bool -> page
(** A zero frame with one mapper.  It borrows the shared zero buffer
    until {!own}. *)

val borrow : prot:prot -> shared:bool -> string -> off:int -> page
(** A frame with no mappers ([refs = 0]) whose bytes are the
    [page_size] bytes of the string from [off], copied only at {!own}.
    The string must never change.  Raises [Invalid_argument] if the
    window is not within it. *)

val page_index : int -> int
val page_offset : int -> int
val incref : page -> unit
val decref : page -> unit

val copy : page -> page
(** A new frame with the same contents, prot and sharing, and no
    mappers ([refs = 0]).  A borrowing frame's copy borrows the same
    window. *)

val unshare : page -> page
(** Copy a COW page for the caller; other mappers keep the original. *)

val own : page -> unit
(** Give a borrowing frame its own copy of its window.  Call it on every
    frame about to be written, after breaking COW. *)

val is_zero : page -> bool
(** Every byte of the frame is zero.  Constant time for a frame that
    still maps the zero buffer. *)

val equal_bytes : page -> page -> bool
(** The two frames' windows hold the same bytes. *)

val hash : page -> int
(** A hash of the frame's window, non-negative; frames with equal bytes
    hash alike. *)

(** Frames keyed by physical identity.  A frame's contents must not
    change while it is a key. *)
module Identity : sig
  type 'a t

  val create : unit -> 'a t

  val find_or_add : 'a t -> page -> (unit -> 'a) -> 'a
  (** The value bound to this very frame, made by [make] and bound on
      first sight. *)
end

(** {2 Byte access}

    Offsets are within the frame.  The writers are only for a frame
    that {!own} has seen since its last COW break. *)

val get_u8 : page -> int -> int
val set_u8 : page -> int -> int -> unit
val get_u64 : page -> int -> int
val set_u64 : page -> int -> int -> unit

val blit_out : page -> int -> bytes -> int -> int -> unit
(** [blit_out p off dst dst_off len] *)

val blit_in : string -> int -> page -> int -> int -> unit
(** [blit_in src src_off p off len] *)
