(** A dynamic-binary-instrumentation "null tool" cost model (the paper's
    DynamoRio-null comparison, §4.2/Figure 6): per-process engine
    startup and code translation, a per-instruction dispatch overhead,
    and a steep penalty for run-time code writes — with an outright
    crash past a code-churn threshold, as DynamoRio exhibited on
    octane. *)

type result = {
  time : int; (* virtual ns; max_int when crashed *)
  crashed : bool;
  base_time : int;
  translated_insns : int;
  jit_writes : int;
}

val run : ?cores:int -> Workload.t -> result
