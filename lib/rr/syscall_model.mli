(** The system-call model (paper §2.3.6): for every supported syscall,
    which user memory it writes, whether it can block, whether the
    interception library may fast-path it, and how replay must treat it.
    Unknown syscalls raise {!Unsupported} with the syscall name, making
    the recorder fail loudly rather than record garbage. *)

exception Unsupported of string

type output = { out_addr : int; out_len : int }

val outputs : nr:int -> args:int array -> result:int -> output list
(** Memory written by a completed syscall, given its entry arguments and
    result.  Raises {!Unsupported} for syscalls outside the model. *)

val original_wrapper : nr:int -> bool
(** The interception library's original wrappers (paper §3.1), a
    subset of {!bufferable}; the [syscallbuf.widened_hit] counter counts
    the buffered calls outside it. *)

val bufferable : nr:int -> bool
(** The interception library's fast-path set (paper §3.1). *)

type buffered_out = { bo_arg : int; bo_len : int; bo_copy_in : bool }
(** One output pointer a buffered syscall redirects into the trace
    buffer: argument index, bytes to reserve, and whether the kernel
    also reads the pointed-to memory (poll's pollfd array), requiring a
    copy-in before the untraced call. *)

val buffered_outputs : nr:int -> args:int array -> buffered_out list
(** The output pointers a buffered syscall redirects into the trace
    buffer, per §3.8.  NULL-pointer and zero-length outputs are already
    filtered out. *)

val elidable : nr:int -> args:int array -> bool
(** Can the recorder skip the syscall-exit ptrace stop (§3.4)?  True
    when a successful completion provably writes no user memory, so the
    frame can be pre-computed and recorded at the seccomp/entry stop. *)

val replay_performs : nr:int -> bool
(** Syscalls whose effects replay must re-perform rather than emulate:
    address-space operations (paper §2.3.8). *)

val scratch_redirect : Task.t -> nr:int -> args:int array -> (int * int) option
(** For traced blocking syscalls: (argument index, length) of the output
    buffer to detour through scratch memory (paper §2.3.1).  A buffer
    not mapped writable throughout is not redirected, so the kernel's
    short count or -EFAULT is what the recorder sees. *)
