(* The system-call model (paper §2.3.6).

   For every syscall the recorder supports, this module answers:
   - which user memory does it write, given entry args and the result?
   - can it block (so outputs must detour through scratch buffers and the
     desched event must be armed on the buffered path)?
   - may the interception library handle it without a trap?
   - how must replay treat it (emulate, or re-perform for address-space
     effects)?

   Unknown syscalls make the recorder fail loudly with the syscall name —
   the paper's "unsupported system calls produce a message clearly
   identifying the problem" behavior. *)

module T = Task

exception Unsupported of string

type output = { out_addr : int; out_len : int }

(* Memory written by a completed syscall.  [args] are the entry arguments
   (post any supervisor rewriting), [result] the return value. *)
let outputs ~nr ~(args : int array) ~result : output list =
  if result < 0 then []
  else if nr = Sysno.read || nr = Sysno.recvfrom then
    let buf = { out_addr = args.(1); out_len = result } in
    if nr = Sysno.recvfrom && args.(3) <> 0 then
      [ buf; { out_addr = args.(3); out_len = 8 } ]
    else [ buf ]
  else if nr = Sysno.stat then [ { out_addr = args.(1); out_len = 32 } ]
  else if nr = Sysno.pipe then [ { out_addr = args.(0); out_len = 16 } ]
  else if nr = Sysno.getcwd then [ { out_addr = args.(0); out_len = result } ]
  else if nr = Sysno.wait4 then
    (* The kernel stores a status only when it actually reaped a child
       (result > 0); a WNOHANG miss (result = 0) leaves *status alone. *)
    if args.(1) <> 0 && result > 0 then
      [ { out_addr = args.(1); out_len = 8 } ]
    else []
  else if nr = Sysno.gettimeofday || nr = Sysno.clock_gettime then
    if args.(0) <> 0 then [ { out_addr = args.(0); out_len = 8 } ] else []
  else if nr = Sysno.getrandom then [ { out_addr = args.(0); out_len = result } ]
  else if nr = Sysno.rt_sigprocmask then
    if args.(2) <> 0 then [ { out_addr = args.(2); out_len = 8 } ] else []
  else if nr = Sysno.poll then
    (* revents slots of every entry — but only when the kernel wrote
       them: a poll that timed out (result = 0) writes no user memory,
       so recording all-nfds slots unconditionally would capture (and
       replay) bytes the kernel never touched. *)
    if result > 0 then
      List.init args.(1) (fun i ->
          { out_addr = args.(0) + (24 * i) + 16; out_len = 8 })
    else []
  else if
    nr = Sysno.write || nr = Sysno.openat || nr = Sysno.close
    || nr = Sysno.lseek || nr = Sysno.mmap || nr = Sysno.munmap
    || nr = Sysno.mprotect || nr = Sysno.exit || nr = Sysno.exit_group
    || nr = Sysno.clone || nr = Sysno.execve || nr = Sysno.getpid
    || nr = Sysno.gettid || nr = Sysno.getppid || nr = Sysno.nanosleep
    || nr = Sysno.sched_yield || nr = Sysno.futex || nr = Sysno.kill
    || nr = Sysno.tgkill || nr = Sysno.rt_sigaction || nr = Sysno.rt_sigreturn
    || nr = Sysno.sched_setaffinity || nr = Sysno.prctl || nr = Sysno.seccomp
    || nr = Sysno.perf_event_open || nr = Sysno.ioctl || nr = Sysno.socket
    || nr = Sysno.bind || nr = Sysno.sendto || nr = Sysno.unlink
    || nr = Sysno.mkdir || nr = Sysno.rename || nr = Sysno.link
    || nr = Sysno.dup || nr = Sysno.ftruncate || nr = Sysno.chdir
    || nr = Sysno.fsync || nr = Sysno.readlink || nr = Sysno.sigaltstack
    || nr = Sysno.set_tid_address || nr = Sysno.ptrace
  then []
  else raise (Unsupported (Sysno.name nr))

(* Can this call sleep in the kernel?  [task] lets us inspect the fd —
   reads from regular files never block, reads from pipes/sockets can. *)
let may_block task ~nr ~(args : int array) =
  if nr = Sysno.read then
    match T.find_fd task args.(0) with
    | Some { T.obj = T.F_reg _; _ } | None -> false
    | Some { T.obj = T.F_pipe_r _ | T.F_pipe_w _ | T.F_sock _ | T.F_perf _; _ }
      ->
      true
  else if nr = Sysno.write then begin
    match T.find_fd task args.(0) with
    | Some { T.obj = T.F_pipe_w _; _ } -> true
    | Some _ | None -> false
  end
  else
    nr = Sysno.recvfrom || nr = Sysno.wait4 || nr = Sysno.futex
    || nr = Sysno.nanosleep || nr = Sysno.poll

(* The interception library's original wrappers (paper §3.1: "it only
   contains wrappers for the most common system calls").  Only the
   [syscallbuf.widened_hit] counter tells them apart from the rest of
   [bufferable]. *)
let original_wrapper ~nr =
  nr = Sysno.read || nr = Sysno.write || nr = Sysno.lseek
  || nr = Sysno.getpid || nr = Sysno.gettid || nr = Sysno.gettimeofday
  || nr = Sysno.clock_gettime || nr = Sysno.recvfrom || nr = Sysno.sendto
  || nr = Sysno.futex || nr = Sysno.sched_yield || nr = Sysno.openat
  || nr = Sysno.close || nr = Sysno.stat

(* The fast-path set: the original wrappers plus the set the paper's
   library grew to over time, every hot call the workloads make that
   the buffer-redirect protocol can express. *)
let bufferable ~nr =
  original_wrapper ~nr || nr = Sysno.getcwd || nr = Sysno.getrandom
  || nr = Sysno.pipe || nr = Sysno.poll || nr = Sysno.wait4
  || nr = Sysno.dup || nr = Sysno.unlink || nr = Sysno.mkdir
  || nr = Sysno.fsync || nr = Sysno.readlink || nr = Sysno.getppid
  || nr = Sysno.chdir || nr = Sysno.ftruncate

(* One output pointer a buffered syscall redirects into the trace
   buffer (§3.8).  [bo_copy_in] marks arguments the kernel also reads
   (poll's pollfd array carries fds/events in), which must be staged
   into the buffer before the untraced call runs. *)
type buffered_out = { bo_arg : int; bo_len : int; bo_copy_in : bool }

(* Which buffered syscalls redirect output pointers into the trace
   buffer, and how many bytes each needs reserved. *)
let buffered_outputs ~nr ~(args : int array) : buffered_out list =
  let out bo_arg bo_len = { bo_arg; bo_len; bo_copy_in = false } in
  let outs =
    if nr = Sysno.read then [ out 1 args.(2) ]
    else if nr = Sysno.recvfrom then [ out 1 args.(2); out 3 8 ]
    else if nr = Sysno.stat then [ out 1 32 ]
    else if nr = Sysno.getcwd then [ out 0 args.(1) ]
    else if nr = Sysno.getrandom then [ out 0 args.(1) ]
    else if nr = Sysno.pipe then [ out 0 16 ]
    else if nr = Sysno.gettimeofday || nr = Sysno.clock_gettime then
      [ out 0 8 ]
    else if nr = Sysno.wait4 then [ out 1 8 ]
    else if nr = Sysno.poll then
      [ { bo_arg = 0; bo_len = 24 * args.(1); bo_copy_in = true } ]
    else []
  in
  (* NULL pointers (wait4 (…, NULL, …), clock_gettime (…, NULL)) are
     never redirected: the kernel writes nothing through them. *)
  List.filter (fun o -> args.(o.bo_arg) <> 0 && o.bo_len > 0) outs

(* Syscalls whose effects replay must re-perform rather than emulate:
   address-space operations (mmap is handled by its own event kind). *)
let replay_performs ~nr = nr = Sysno.munmap || nr = Sysno.mprotect

(* Events with their own trace frame kinds. *)
let is_special ~nr =
  nr = Sysno.clone || nr = Sysno.execve || nr = Sysno.mmap || nr = Sysno.exit
  || nr = Sysno.exit_group

(* Can the recorder skip the syscall-exit ptrace stop (§3.4)?  True
   when a successful completion provably writes no user memory, so the
   whole frame can be computed and recorded at the seccomp/entry stop.
   Specials have their own frame kinds; sigreturn rewrites the whole
   register file at the exit stop; ptrace is emulated by the
   supervisor.  The probe uses [result = 1]: every modeled syscall
   that writes memory on success reports at least one output for a
   positive result (stat/pipe-style calls report them for any
   [result >= 0]). *)
let elidable ~nr ~(args : int array) =
  (not (is_special ~nr))
  && nr <> Sysno.rt_sigreturn
  && nr <> Sysno.ptrace
  &&
  match outputs ~nr ~args ~result:1 with
  | [] -> true
  | _ :: _ -> false
  | exception Unsupported _ -> false

(* Traced blocking syscalls whose output buffer must detour through
   scratch memory (§2.3.1): (arg index, length-from-args).  A buffer not
   mapped writable throughout stays where it is, so the kernel's own
   answer to a faulting copy-out (a short count, or -EFAULT) is the one
   recorded. *)
let scratch_redirect task ~nr ~(args : int array) =
  if
    (nr = Sysno.read || nr = Sysno.recvfrom)
    && may_block task ~nr ~args
    && Addr_space.writable task.T.cpu.Cpu.space args.(1) args.(2)
  then Some (1, args.(2))
  else None
