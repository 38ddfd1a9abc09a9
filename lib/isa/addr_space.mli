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
(** The paged text map.  Pages are copy-on-write between forks: each
    records the stamp of the one map that may write it in place.  Read
    it through [text_page], [text_get], [text_fold_pages], [text_fold]
    and [text_count]. *)

type text_page = private {
  page_stamp : int;
  page_base : int;
  page_words : int array;
  page_insns : Insn.t array;
}
(** One text page's window: slot [i] of both arrays is address
    [page_base + i], for the [Array.length page_words] addresses of the
    window, all of them on the page.  [page_words.(i)] is the slot's
    word, 0 for an empty slot, and [page_insns.(i)] its instruction
    ([Halt] in an empty slot).  Only lib/isa reads these fields
    (tools/check_format.sh holds the rest of the tree to it); the
    interpreter dispatches on the words. *)

type page_table
(** The mapped data frames by page index.  Read it through
    [page_count], [find_page] and [fold_pages]. *)

type t = {
  id : int;
  pages : page_table;
  mutable text : text;
  written_text : (int, unit) Hashtbl.t;
  breakpoints : (int, unit) Hashtbl.t;
  mutable regions : region list;
  mutable mmap_cursor : int;
  mutable generation : int;
      (** Moves on every change to the space's pages, protections, data
          bytes, text, written text, breakpoints, regions or mmap cursor:
          data writes move it once per pass through the write gate,
          which {!hold_page} makes once for every write it lets through
          for the rest of a run.  A space that maps no [MAP_SHARED] frame and
          whose generation has not moved since {!fork_checkpoint} forked
          it still equals that fork.  Only this module changes a field
          of [t]; tools/check_format.sh holds the rest of lib/ to it. *)
}

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

val page_count : t -> int
(** The number of mapped data pages. *)

val find_page : t -> int -> Mem.page option
(** The frame mapped at page index [idx] ([Mem.page_index] of an
    address in it). *)

val fold_pages : (int -> Mem.page -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over every mapped frame with its page index, in ascending
    index order. *)

val unmap : t -> addr:int -> len:int -> unit
val unmap_all : t -> unit
val protect : t -> addr:int -> len:int -> prot:Mem.prot -> unit

val set_write_observer : (t -> addr:int -> len:int -> unit) -> unit
val clear_write_observer : unit -> unit
(** A process-global hook told of every data write before it lands
    (all byte stores funnel through it, including [force] writes),
    except those the interpreter retires through a {!hold_page} write
    hold, which tells it of the whole page once.  The trace indexer
    installs one during its replay pass to learn which pages each frame
    touches; leave it unset otherwise. *)

val writable : t -> int -> int -> bool
(** [writable t addr len]: whether every byte of [addr, addr + len) is
    mapped writable, so a write there without [force] cannot fault.  The
    kernel checks a syscall's whole output with it before any effect,
    and the syscallbuf checks the outputs it would redirect. *)

val hold_page : t -> int -> write:bool -> Mem.page
(** The frame mapped at [addr]'s page, for {!Cpu.run} to hold until the
    end of the run and retire u64 accesses that lie wholly on the page
    against it.  A read hold checks [prot_r].  A write hold tells the
    write observer of the whole page, then passes the write gate once:
    it checks [prot_w], breaks COW sharing, gives the frame its own
    bytes and moves the generation.  Raises {!Segv} as an access would.
    Only lib/isa calls it (tools/check_format.sh): what the interpreter
    writes through the frame is not observed or counted again. *)

val read_u8 : ?force:bool -> t -> int -> int
val write_u8 : ?force:bool -> t -> int -> int -> unit
val read_u64 : ?force:bool -> t -> int -> int
val write_u64 : ?force:bool -> t -> int -> int -> unit
val read_bytes : ?force:bool -> t -> int -> int -> bytes
val write_bytes : ?force:bool -> t -> int -> bytes -> unit
val write_sub : ?force:bool -> t -> int -> string -> int -> int -> unit
(** Data accessors.  [force] bypasses protection checks (kernel and
    supervisor accesses).  All raise {!Segv} on unmapped addresses.
    [write_sub t addr s pos len] writes the [len] bytes of [s] from
    [pos], and raises [Invalid_argument] if they are not within [s]. *)

val loaded_insns : int ref
(** Global count of instructions loaded by [text_load] (program images),
    for instrumentation cost models. *)

val text_page_bits : int
(** A text page holds the [1 lsl text_page_bits] addresses that share
    [addr asr text_page_bits]. *)

val text_tag : Insn.t -> int
(** The tag of the word {!text_set} stores for an instruction (the
    word's low 6 bits): it names the instruction with its ALU op or
    condition and its operand kind, or is {!text_tag_general}.
    addr_space.ml's header has the word's layout. *)

val text_tag_general : int
(** The tag of every instruction a word cannot hold, which the
    interpreter runs from the instruction array: byte loads and stores,
    [Cas], stops, [Emit], the nondeterministic instructions, and any
    other with a register outside 0-15, a value too wide for its field,
    or a [Div] or [Rem] by [Imm 0]. *)

val text_page : t -> int -> text_page
(** The page holding [addr].  Where no page holds [addr], a page with
    an empty window.  Allocates nothing.  Its arrays are the space's
    own, good until the next [text_set] of the page: a write to a page
    shared with a fork, or outside the page's window, lands in a copy. *)

val text_get : t -> int -> Insn.t option
(** The instruction at [addr], through {!text_page}. *)

val text_set : t -> int -> Insn.t -> unit
(** Writes the slot: the next [text_page] or [text_get] of [addr] sees
    it, and no other space does.  The first write to a page shared with
    a fork copies the page; a write outside the page's window copies it
    into a window of at least twice the length, never past the page. *)

val text_load : t -> base:int -> Insn.t array -> unit
(** {!text_set} of each instruction at [base + i], with each page's
    window sized once, to the code it takes. *)

val text_reserve : t -> lo:int -> last:int -> unit
(** Size the window of the page holding [lo] and [last], which must be
    one page, to take both, as {!text_load} does: {!text_set}s between
    them then do not regrow it. *)

val text_fold_pages : (int -> text_page -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over every text page in ascending key order, with its key
    ([addr asr text_page_bits]).  A page shared with a fork is the same
    page, physically, in both spaces until one of them writes it. *)

val text_page_fold : (int -> Insn.t -> 'a -> 'a) -> text_page -> 'a -> 'a
(** Folds over a page's instructions, in ascending address order. *)

val text_fold : (int -> Insn.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over every instruction, in ascending address order. *)

val text_count : t -> int
(** The number of addresses holding an instruction. *)

val text_write : t -> int -> Insn.t -> unit
(** A {e run-time} code write ([Emit]): also marks the address in
    [written_text]. *)

val text_was_written : t -> int -> bool

val text_share : t -> from:t -> unit
(** Replace [t]'s text with [from]'s, sharing every page copy-on-write
    as {!fork} does.  [written_text] and breakpoints are not touched. *)

val bp_set : t -> int -> unit
val bp_clear : t -> int -> unit
val bp_is_set : t -> int -> bool
val bp_any : t -> bool
(** Constant time: the interpreter probes [bp_is_set] only when true. *)

val fork : t -> id:int -> t
(** Process fork: COW-share every private frame and alias every
    [MAP_SHARED] one.  Text pages are shared copy-on-write, so text
    writes on either side stay private.  Copies no bytes. *)

type shared_copies
(** One checkpoint's copies of [MAP_SHARED] frames. *)

val shared_copies : unit -> shared_copies

val fork_checkpoint : shared_copies -> t -> id:int -> t
(** A checkpoint's fork, the basis of cheap checkpoints: like {!fork}
    for private frames, but each [MAP_SHARED] frame is replaced by a
    copy made once per [shared_copies], so the spaces forked with one
    table alias each other's copies and never the source's frames. *)

val fill :
  t -> mmap_cursor:int -> regions:region list -> idxs:int array ->
  frames:Mem.page array -> written_text:int list -> breakpoints:int list ->
  unit
(** A snapshot decoder's way to build a space: after {!create} and the
    text, set the mmap cursor and regions, map [frames.(i)] at page index
    [idxs.(i)] with one more [refs], and mark the written-text addresses
    and breakpoints.  [idxs] must ascend strictly; the space keeps both
    arrays, so the caller must not write them afterwards.  Raises
    [Invalid_argument] if their lengths differ. *)

val release : t -> unit

val pss : t -> float
(** Proportional set size in bytes (each frame counts size/refs). *)
