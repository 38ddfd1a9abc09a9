(** Benchmark workloads (paper §4.1): a root executable plus the
    filesystem/process environment it needs.  The same workload runs
    four ways — baseline (untraced, [cores]-way parallel), single-core,
    recorded, replayed.  [setup] may spawn {e untraced} helper processes,
    which is how htmltest's harness stays outside the recording. *)

type t = {
  name : string;
  exe : string;
  setup : Kernel.t -> unit;
  cores : int; (* baseline parallelism *)
  score_based : bool; (* octane reports score ratios (paper §4.2) *)
}

type run_result = {
  wall_time : int; (* virtual ns *)
  peak_pss : float; (* bytes, sampled every ~10 virtual ms (§4.5) *)
  exit_status : int option;
  kernel : Kernel.t;
}

val baseline : ?cores:int -> ?seed:int -> t -> run_result

type recorded = {
  trace : Trace.t;
  rec_stats : Recorder.stats;
  rec_peak_pss : float;
}

val record : ?opts:Recorder.opts -> t -> recorded * Kernel.t

type replayed = { rep_stats : Replayer.stats; rep_peak_pss : float }

val replay : ?opts:Replayer.opts -> recorded -> replayed * Kernel.t
