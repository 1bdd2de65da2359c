(** Shared experiment context: machine configuration and the per-
    workload timing triple (CPU / naive MIC / optimized MIC) that
    Figures 1, 10 and 11 are built from. *)

let cfg = Machine.Config.paper_default

type timing = {
  w : Workloads.Workload.t;
  cpu_s : float;
  naive_s : float;
  opt_s : float;
}

let timing w =
  {
    w;
    cpu_s = Comp.simulate ~cfg w Comp.Cpu_parallel;
    naive_s = Comp.simulate ~cfg w Comp.Mic_naive;
    opt_s = Comp.simulate ~cfg w Comp.Mic_optimized;
  }

let all_timings () = List.map timing Workloads.Registry.all

(** Streaming variants for one workload, used by Figures 12/13: the
    baseline and the streamed plan it is compared against.  For merged
    benchmarks (streamcluster, CG) streaming means overlapping the
    merged offload's up-front transfer, matching how the optimizations
    compose in the paper. *)
let streaming_pair (w : Workloads.Workload.t) =
  let a = Comp.analyze w in
  let open Runtime.Plan in
  if a.Comp.merging then
    ( Comp.Mic_with (merged ~streamed:false (), w.shape),
      Comp.Mic_with (merged ~streamed:true (), w.shape) )
  else
    ( Comp.Mic_with (Naive_offload, w.shape),
      Comp.Mic_with (streamed ~nblocks:Comp.default_nblocks ~persistent:true (), w.shape)
    )

(** The five benchmarks data streaming benefits (Table II). *)
let streaming_benchmarks () =
  List.filter
    (fun (w : Workloads.Workload.t) ->
      (Comp.analyze w).Comp.streaming && not w.manual_streaming)
    Workloads.Registry.all

let merging_benchmarks () =
  List.filter
    (fun w -> (Comp.analyze w).Comp.merging)
    Workloads.Registry.all

let shared_benchmarks () =
  List.filter
    (fun w -> (Comp.analyze w).Comp.shared_memory)
    Workloads.Registry.all
