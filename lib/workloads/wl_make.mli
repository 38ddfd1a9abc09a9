(** The `make -j8` workload (paper §4.1): waves of short-lived compiler
    processes fork+exec'd in parallel, with serial dependency/link work
    between waves.  The single-core restriction and per-process setup
    before the interception library pays off make this the most expensive
    workload to record (paper §4.3). *)

type params = {
  jobs : int; (* parallelism: -j *)
  compiles : int; (* total cc invocations *)
  src_kb : int;
  compile_work : int; (* compute iterations per compile *)
}

val make : ?params:params -> unit -> Workload.t
