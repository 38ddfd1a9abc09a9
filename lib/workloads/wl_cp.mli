(** The `cp` workload (paper §4.1): single-threaded duplication of a file
    tree — syscall-dense, almost no user computation, large block-aligned
    reads where the recorder's block-cloning fast path (§3.9) carries the
    whole cost. *)

type params = { files : int; file_kb : int }

val make : ?params:params -> unit -> Workload.t
