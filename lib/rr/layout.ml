(* Fixed addresses of the structures rr injects into every tracee.

   The "RR page" (paper §2.3.5) sits at the same address in every address
   space, immediately after each exec, so the recorder's seccomp filter
   can key on the untraced-instruction address and so patched code can
   reach the interception entry points from anywhere. *)

(* Text addresses (instruction slots). *)
let rr_page_text = 0x7000_0000

let untraced_syscall_insn = rr_page_text
(* The "privileged"/untraced syscall instruction: the recorder's seccomp
   filter allows syscalls whose PC is exactly here. *)

let traced_fallback_insn = rr_page_text + 1
(* A syscall instruction the interception library jumps to when it must
   fall back to a traced syscall. *)

(* Data addresses. *)
let thread_locals_page = 0x7000_1000
let thread_locals_size = 4096

(* Thread-locals layout (offsets into the page; paper §3.6). *)
let tl_locked = 0 (* reentry guard (§3.5) *)
let tl_scratch_ptr = 8
let tl_buf_ptr = 16
let tl_buf_size = 24
let tl_tid = 40

(* The "preload globals" page: per-address-space state of the
   interception library that is shared by all threads (unlike the
   thread-locals page, whose contents are swapped per thread). *)
let globals_page = 0x7000_2000
let globals_size = 4096

let gl_fd_bitmap = 0
(* One bit per fd (0..63): set when the fd refers to a cloneable regular
   file.  Maintained by the recorder at open/close exits through
   *recorded* memory writes, so the interception library makes identical
   block-cloning decisions during record and replay (rr tracks fds in its
   preload library the same way, §3.9). *)

(* Per-task slot areas are interleaved: each 256 KiB slot holds the
   scratch area in its lower half and the trace buffer in its upper half,
   so any number of tasks stays collision-free below the stacks. *)
let slot_base = 0x7100_0000
let slot_stride = 0x4_0000

let scratch_base = slot_base
let scratch_size = 64 * 1024
let scratch_stride = slot_stride

let syscallbuf_base = slot_base + 0x2_0000
let syscallbuf_size = 64 * 1024
let syscallbuf_stride = slot_stride

(* Syscallbuf header layout (offsets into the buffer; §3.8).
   Records follow the header:
     nr(8) result(8) aborted(8) nwrites(8) { addr(8) len(8) data(pad 8) }* *)
let sb_fill = 0 (* bytes of records present *)
let sb_read_cursor = 8 (* replay: consumption offset *)
let sb_is_replay = 16 (* the conditional-move discriminator (§3.8) *)
let sb_abort_commit = 24 (* recorder tells the lib to drop the record *)
let sb_hdr_size = 32

(* Per-task slot assignment: the recorder hands out slot indices. *)
let scratch_for ~slot = scratch_base + (slot * scratch_stride)
let syscallbuf_for ~slot = syscallbuf_base + (slot * syscallbuf_stride)

(* Deterministic RCB/instruction charges for the interception library, so
   recording and replay expose identical counter trajectories (§3.8's
   conditional-move discipline).  Values are arbitrary but fixed. *)
let hook_rcb_cost = 6
let hook_insn_cost = 32
let hook_desched_arm_rcb = 2
let hook_desched_arm_insns = 10
