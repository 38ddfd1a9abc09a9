(** Fixed addresses of the structures rr injects into every tracee: the
    RR page with the untraced/traced syscall instructions (paper §2.3.5),
    the thread-locals page (§3.6), the preload-globals page, and per-task
    scratch (§2.3.1) and trace-buffer (§3) areas. *)

val rr_page_text : int

val untraced_syscall_insn : int
(** The "privileged" instruction: the recorder's seccomp filter allows
    syscalls whose PC is exactly here. *)

val traced_fallback_insn : int
(** Where the interception library goes for a deliberate traced syscall. *)

val thread_locals_page : int
val thread_locals_size : int
val tl_locked : int
val tl_scratch_ptr : int
val tl_buf_ptr : int
val tl_buf_size : int
val tl_tid : int

val globals_page : int
val globals_size : int

val gl_fd_bitmap : int
(** One bit per fd < 64: cloneable regular file, maintained through
    recorded writes so record and replay agree (§3.9). *)

val slot_base : int
val slot_stride : int
val scratch_size : int
val syscallbuf_size : int

val sb_fill : int
val sb_read_cursor : int
val sb_is_replay : int
val sb_abort_commit : int
val sb_hdr_size : int

val scratch_for : slot:int -> int
val syscallbuf_for : slot:int -> int

(** Deterministic PMU charges for the interception library, identical in
    record and replay (§3.8's conditional-move discipline). *)

val hook_rcb_cost : int
val hook_insn_cost : int
val hook_desched_arm_rcb : int
val hook_desched_arm_insns : int
