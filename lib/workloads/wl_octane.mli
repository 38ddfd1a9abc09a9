(** The `octane` workload (paper §4.1): CPU-intensive, multi-threaded
    compute inside a JIT-style runtime that re-emits code as it "warms
    up" — plus GC-like heap churn.  Score-based reporting (§4.2); the
    code churn is what crashes the DBI null tool (Figure 6). *)

type params = {
  threads : int; (* including the main thread *)
  iters : int; (* emit/run cycles for the main thread *)
  calls_per_emit : int;
  crunch : int;
}

val default : params

val make : ?params:params -> unit -> Workload.t
