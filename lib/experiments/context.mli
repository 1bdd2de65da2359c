(** Shared experiment context: the machine configuration and the
    per-workload timing triple (CPU / naive MIC / optimized MIC) that
    Figures 1, 10 and 11 are built from. *)

val cfg : Machine.Config.t

type timing = {
  w : Workloads.Workload.t;
  cpu_s : float;
  naive_s : float;
  opt_s : float;
}

val timing : Workloads.Workload.t -> timing
val all_timings : unit -> timing list

val streaming_pair : Workloads.Workload.t -> Comp.variant * Comp.variant
(** (baseline, streamed) variants for Figures 12/13.  For merged
    benchmarks, streaming means overlapping the merged offload's
    up-front transfer, matching how the optimizations compose. *)

val streaming_benchmarks : unit -> Workloads.Workload.t list
val merging_benchmarks : unit -> Workloads.Workload.t list
val shared_benchmarks : unit -> Workloads.Workload.t list
