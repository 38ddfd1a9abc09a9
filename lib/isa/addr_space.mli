(** Guest address spaces: byte-addressed COW data pages plus a
    word-addressed, paged text map (Harvard simplification; DESIGN.md
    §6). *)

type access = Read | Write | Exec

exception Segv of { addr : int; access : access }

type kind =
  | Anon
  | Stack
  | File_backed of { path : string; file_off : int }
  | Scratch
  | Rr_page
  | Thread_locals

type region = {
  start : int;
  len : int;
  prot : Mem.prot;
  kind : kind;
  shared : bool;
}

type text
(** The paged text map and its one-page fetch cache.  Only this module
    knows the layout: read it through [text_get], [text_fold] and
    [text_count]. *)

type t = {
  id : int;
  pages : (int, Mem.page) Hashtbl.t;
  text : text;
  written_text : (int, unit) Hashtbl.t;
  breakpoints : (int, unit) Hashtbl.t;
  mutable regions : region list;
  mutable mmap_cursor : int;
}

val mmap_base : int
val stack_top : int

val create : id:int -> t

val regions : t -> region list
val find_region : t -> int -> region option
val overlaps : t -> addr:int -> len:int -> bool

val map :
  t -> addr:int -> len:int -> prot:Mem.prot -> ?kind:kind -> ?shared:bool ->
  unit -> int
(** Map pages eagerly; returns the page-aligned start address.  Raises
    [Invalid_argument] on overlap. *)

val find_map_addr : t -> int -> int
(** A free address for an [len]-byte mapping. *)

val unmap : t -> addr:int -> len:int -> unit
val unmap_all : t -> unit
val protect : t -> addr:int -> len:int -> prot:Mem.prot -> unit

val set_write_observer : (t -> addr:int -> len:int -> unit) -> unit
val clear_write_observer : unit -> unit
(** A process-global hook invoked before every data write (all byte
    stores funnel through it, including [force] writes).  The trace
    indexer installs one during its replay pass to learn which pages
    each frame touches; leave it unset otherwise. *)

val read_u8 : ?force:bool -> t -> int -> int
val write_u8 : ?force:bool -> t -> int -> int -> unit
val read_u64 : ?force:bool -> t -> int -> int
val write_u64 : ?force:bool -> t -> int -> int -> unit
val read_bytes : ?force:bool -> t -> int -> int -> bytes
val write_bytes : ?force:bool -> t -> int -> bytes -> unit
(** Data accessors.  [force] bypasses protection checks (kernel and
    supervisor accesses).  All raise {!Segv} on unmapped addresses. *)

val loaded_insns : int ref
(** Global count of instructions loaded by [text_load] (program images),
    for instrumentation cost models. *)

val text_get : t -> int -> Insn.t option
(** The instruction fetch.  It neither hashes nor allocates while it
    stays on the page of the previous fetch. *)

val text_set : t -> int -> Insn.t -> unit
(** Writes the slot in place: the next [text_get] of [addr] sees it. *)

val text_load : t -> base:int -> Insn.t array -> unit

val text_fold : (int -> Insn.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over every instruction, in ascending address order. *)

val text_count : t -> int
(** The number of addresses holding an instruction. *)

val text_write : t -> int -> Insn.t -> unit
(** A {e run-time} code write ([Emit]): also marks the address in
    [written_text]. *)

val text_was_written : t -> int -> bool

val bp_set : t -> int -> unit
val bp_clear : t -> int -> unit
val bp_is_set : t -> int -> bool
val bp_any : t -> bool
(** Constant time: the interpreter probes [bp_is_set] only when true. *)

val fork : t -> id:int -> t
(** Process fork: COW-share every private frame and alias every
    [MAP_SHARED] one.  Text pages are copied, so text writes on either
    side stay private. *)

type shared_copies
(** One checkpoint's copies of [MAP_SHARED] frames. *)

val shared_copies : unit -> shared_copies

val fork_checkpoint : shared_copies -> t -> id:int -> t
(** A checkpoint's fork, the basis of cheap checkpoints: like {!fork}
    for private frames, but each [MAP_SHARED] frame is replaced by a
    copy made once per [shared_copies], so the spaces forked with one
    table alias each other's copies and never the source's frames. *)

val release : t -> unit

val pss : t -> float
(** Proportional set size in bytes (each frame counts size/refs). *)

val mapped_bytes : t -> int
