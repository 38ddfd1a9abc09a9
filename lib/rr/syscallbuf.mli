(** In-process system-call interception (paper §3).

    The recorder rewrites hot syscall sites into [Hook] calls; this
    module implements what the injected interception library does when a
    hook runs — in guest context, against guest state (the thread-locals
    page and the per-task trace-buffer pages), with fixed deterministic
    RCB/instruction charges so recording and replay expose identical
    counter trajectories (§3.8).

    Record mode performs the {e untraced} syscall (permitted by the
    seccomp filter because the supervisor supplies the untraced
    instruction's address), appends a record to the guest trace buffer
    and copies outputs to their destination; possibly-blocking calls arm
    the desched perf event first (§3.3).  Replay mode turns the untraced
    syscall into a no-op and takes results out of the buffer, which the
    replayer refilled from flush frames. *)

type mode =
  | Record of {
      clone_read :
        Kernel.t -> Task.t -> fd:int -> len:int -> Event.clone_ref option;
          (** §3.9: snapshot a large file read by block cloning. *)
      extra_writes :
        Kernel.t -> Task.t -> nr:int -> args:int array -> result:int ->
        Event.mem_write list;
          (** Supervisor-maintained guest state (the fd bitmap), already
              written to guest memory; appended to the record so replay
              reapplies it. *)
    }
  | Replay of {
      fetch_clone : Event.clone_ref -> string;
      refill : Task.t -> Event.buf_record list option;
          (** Next recorded flush batch when the buffer runs dry. *)
    }

val hook_number : int
(** The hook id patched over syscall instructions. *)

exception Replay_mismatch of string
(** Replay mode: the task's buffer ran dry, or its next record is
    another call than the one running.  The replayer reports it as a
    divergence. *)

val hook : mode -> Kernel.t -> Task.t -> unit
(** The interception library body, to be registered with
    {!Kernel.set_hook}. *)

(** {2 Injection and patching} *)

val inject_rr_page : Kernel.t -> Task.t -> unit
(** Map the RR page (untraced + traced-fallback syscall instructions),
    the thread-locals page and the preload-globals page at their fixed
    addresses (paper §2.3.5). *)

type locals = {
  owner : (int, int) Hashtbl.t;
      (** space id -> the thread whose locals its page holds *)
  saved : (int, Codec.slice) Hashtbl.t;
      (** tid -> its locals as it last left the page *)
}
(** The thread-locals swap state (paper §3.6) of a recording or a
    replay: threads of one process share the page, so its contents are
    swapped when another thread of the space runs.  Checkpoints
    ({!Snapshot}) save and restore it. *)

val locals : unit -> locals

val setup_task :
  locals -> Kernel.t -> Task.t -> scratch:int -> buf:int -> is_replay:bool ->
  int * int
(** Map a task's scratch and trace-buffer pages at the given addresses
    and initialize its thread-locals, saving first those of a live
    sibling that held the page; returns [(scratch, buf)]. *)

val can_patch : Task.t -> site:int -> bool
(** §3.1: is the following instruction one of the known stub shapes, is
    the code static, is the site outside the RR page? *)

val patch_site : Task.t -> site:int -> unit
(** Rewrite the instruction at [site] into its hook: [Syscall] becomes
    the interception entry, [Rdrand r] becomes an emulation hook.  Both
    recorder and replayer apply the same transformation. *)

val find_rdrand_sites : Task.t -> int list
(** RDRAND instructions in the task's text (paper §2.6). *)

val find_syscall_sites : Task.t -> int list
(** Patchable syscall sites in the task's text, for eager patching at
    exec time (§3.2): patched up front, a site's first execution never
    takes the patch-time ptrace stop. *)

val rdrand_hook_of_reg : int -> int
val is_rdrand_hook : int -> bool
val reg_of_rdrand_hook : int -> int

(** {2 Guest trace-buffer access (the recorder's flush, the replayer's
    refill)} *)

val buffer_fill : Task.t -> int
val parse_all : Task.t -> Event.buf_record list
val reset : Task.t -> unit
val load_records : Task.t -> Event.buf_record list -> unit
val append_record : Task.t -> Event.buf_record -> unit

val cloned_path : Task.t -> string
(** The task's cloned-data trace file, [cloned/TID] (§3.9): the path of
    its clone records. *)

(** {2 Thread-locals swapping (paper §3.6)} *)

val has_locals : Task.t -> bool
(** Whether the task's space maps the thread-locals page. *)

val switch_locals : locals -> Kernel.t -> Task.t -> unit
(** Give [task] its space's page before it runs user code: a live
    sibling's locals are saved and [task]'s written back. *)
