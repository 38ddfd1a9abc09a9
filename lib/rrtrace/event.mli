(** Trace frames: one constructor per kind of nondeterministic input
    crossing the recording boundary (paper §2.1) — syscall results and
    memory effects, asynchronous-event execution points (RCB + registers
    + a word of stack, §2.4.1), signal-handler frames (§2.3.9),
    address-space events replay must re-perform (§2.3.8), syscall-site
    patches (§3.1), syscallbuf flushes (§3) and memory checksums (§6.2).

    [regs] is the 16 general-purpose registers with the program counter
    appended (17 slots, see {!pc_slot}). *)

type regs = int array

val pc_slot : int

type exec_point = { rcb : int; point_regs : regs; stack_extra : int }
(** A unique execution point: deterministic retired-conditional-branch
    count, full registers, and one word of stack for the pathological
    same-registers case (paper §2.4.1). *)

type mem_write = { addr : int; data : string }

type syscall_kind =
  | K_emulate (** replay applies recorded effects; nothing executes *)
  | K_perform (** replay re-executes it (munmap, mprotect) *)

type sig_disposition =
  | Sr_handler of {
      frame_addr : int;
      frame_data : string;
      regs_after : regs;
      mask_after : int;
    }
  | Sr_fatal of int
  | Sr_ignored of regs
      (** no handler ran; registers after the kernel's restart rewind *)

type mmap_source =
  | Src_zero
  | Src_trace_file of string (** path in the trace's cloned-file store *)
  | Src_inline of string

type clone_ref = {
  cr_path : string; (** per-thread cloned-data file in the trace (§3.9) *)
  cr_off : int;
  cr_addr : int;
  cr_len : int;
}

type buf_record = {
  br_nr : int;
  br_result : int;
  br_writes : mem_write list;
  br_clone : clone_ref option;
  br_aborted : bool; (** desched fired; completed as a traced syscall *)
}

type t =
  | E_syscall of {
      tid : int;
      nr : int;
      site : int;
      writable_site : bool; (** replay must not breakpoint here (§2.3.7) *)
      via_abort : bool; (** reached through a desched abort (§3.3) *)
      regs_after : regs;
      writes : mem_write list;
      kind : syscall_kind;
    }
  | E_clone of {
      parent : int;
      child : int;
      flags : int;
      child_sp : int;
      parent_regs_after : regs;
      child_regs : regs;
    }
  | E_exec of { tid : int; image_ref : string; regs_after : regs }
  | E_mmap of {
      tid : int;
      addr : int;
      len : int;
      prot : int;
      shared : bool;
      source : mmap_source;
      regs_after : regs;
    }
  | E_signal of {
      tid : int;
      signo : int;
      point : exec_point;
      disposition : sig_disposition;
    }
  | E_sched of { tid : int; point : exec_point }
  | E_insn_trap of { tid : int; reg : int; value : int }
  | E_patch of { tid : int; site : int }
  | E_buf_flush of { tid : int; records : buf_record list }
  | E_syscall_enter of {
      tid : int;
      nr : int;
      site : int;
      writable_site : bool;
      via_abort : bool;
    }
      (** the task entered a syscall that then blocked; other tasks'
          frames may precede its completion frame *)
  | E_checksum of { tid : int; value : int }
  | E_exit of { tid : int; status : int }
  | E_rr_setup of {
      tid : int;
      rr_page : int;
      locals : int;
      scratch : int;
      buf : int;
      buf_len : int;
    }

val tid_of : t -> int

val frame_pc : t -> int option
(** The program counter a frame's recorded registers land on — the
    breakpoint-match key for the debugger and the per-pc trace index.
    [None] for frames with no register image (flushes, patches,
    bookkeeping). *)

(** {1 Frame codec}

    Register images are delta-coded against the same task's previous
    image within the chunk: a 17-bit change mask plus one zigzag delta
    per changed slot.  Both directions thread an {!ectx}, which carries
    the per-task delta state; {!reset_ectx} at every chunk boundary
    keeps chunks independently decodable. *)

type ectx

val ectx : unit -> ectx
(** A fresh codec context. *)

val reset_ectx : ectx -> unit

val encode : ectx -> Codec.sink -> t -> unit
val decode : ectx -> Codec.source -> t

val put_buf_record : Codec.sink -> buf_record -> unit
val get_buf_record : Codec.source -> buf_record
(** Syscallbuf record codec, exposed for checkpoint serialization
    (pending flush batches are part of a snapshot). *)

val kind_bit : t -> int
(** One bit per frame constructor, [1 lsl] its encode tag; chunk-index
    kind summaries are ORs of these. *)

val kind_name : t -> string
val pp : t Fmt.t
