(** The `htmltest` workload (paper §4.1): a browser process driven over
    datagram IPC by a test harness that is *excluded from recording*
    (spawned untraced by [setup], as the paper runs mochitest outside
    rr).  The browser mixes layout-ish computation, JIT churn, file reads
    and IPC. *)

type params = {
  tests : int;
  layout_work : int; (* browser compute per test *)
  harness_work : int; (* harness compute per test *)
  jit_every : int; (* re-emit code every N tests *)
}

val make : ?params:params -> unit -> Workload.t
