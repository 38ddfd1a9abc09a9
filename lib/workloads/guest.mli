(** Guest program builder: a thin "libc" for writing workload programs.
    Accumulates code and initialized data, provides syscall wrappers
    following the register convention (r0 = nr/result, r1..r6 = args),
    and assembles everything into an {!Image.t}.

    Register etiquette for generated code: r0..r6 are syscall/scratch
    (also clobbered by {!compute_loop}), r7..r12 are workload locals,
    r13 is the thread pointer, r15 the stack pointer. *)

type t

val create : ?data_base:int -> ?text_base:int -> unit -> t

val emit : t -> Asm.item list -> unit
(** Append code. *)

val fresh_label : t -> string -> string

val bss : t -> int -> int
(** Reserve zeroed data; returns its address. *)

val str : t -> string -> int
(** Install a NUL-terminated string constant; returns its address. *)

val blob : t -> string -> int

val sc : int -> Insn.operand list -> Asm.item list
(** A syscall with operand arguments; result lands in r0. *)

val imm : int -> Insn.operand
val reg : Insn.reg -> Insn.operand

(** {2 Common wrappers} *)

val sys_exit_group : int -> Asm.item list
val sys_exit : int -> Asm.item list
val sys_open : t -> path:string -> flags:int -> Asm.item list
val sys_close : Insn.operand -> Asm.item list

val sys_read :
  fd:Insn.operand -> buf:Insn.operand -> len:Insn.operand -> Asm.item list

val sys_write :
  fd:Insn.operand -> buf:Insn.operand -> len:Insn.operand -> Asm.item list

val sys_pipe : fds_addr:int -> Asm.item list
val sys_gettimeofday : buf:int -> Asm.item list
val sys_nanosleep : ns:Insn.operand -> Asm.item list
val sys_clone_thread : child_sp:Insn.operand -> Asm.item list
val sys_fork : Asm.item list
val sys_execve : t -> path:string -> Asm.item list
val sys_wait4 : pid:Insn.operand -> status_addr:Insn.operand -> Asm.item list
val sys_futex : addr:Insn.operand -> op:int -> v:Insn.operand -> Asm.item list
val sys_kill : pid:Insn.operand -> signo:int -> Asm.item list

val sys_tgkill :
  pid:Insn.operand -> tid:Insn.operand -> signo:int -> Asm.item list

val sys_sigaction :
  signo:int -> handler:Insn.operand -> mask:int -> flags:int -> Asm.item list

val sys_sigprocmask : how:int -> set:Insn.operand -> Asm.item list
val sys_sigreturn : Asm.item list
val sys_socket : Asm.item list
val sys_bind : fd:Insn.operand -> port:Insn.operand -> Asm.item list

val sys_sendto :
  fd:Insn.operand -> buf:Insn.operand -> len:Insn.operand ->
  port:Insn.operand -> Asm.item list

val sys_recvfrom :
  fd:Insn.operand -> buf:Insn.operand -> len:Insn.operand -> src_addr:Insn.operand ->
  Asm.item list

val sys_mmap : len:Insn.operand -> prot:int -> flags:int -> Asm.item list

val compute_loop : t -> n:int -> Asm.item list
(** [n] iterations of busy work; one RCB per iteration; clobbers r5/r6
    only. *)

val check_ok : t -> Asm.item list
(** exit_group(77) when r0 < 0 — the classic result-check follower that
    keeps syscall sites patchable (paper §3.1). *)

val build :
  t -> name:string -> ?extra_data:int -> ?stack_size:int -> unit -> Image.t
