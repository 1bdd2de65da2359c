(** COMP: compiler optimizations for manycore processors.

    The top-level driver tying the front end, the analyses, the three
    source-to-source optimizations (data streaming, regularization,
    shared memory for pointer-based structures) and the machine
    simulator together.

    {1 Typical use}

    {[
      let prog = Minic.Parser.program_of_string_exn source in
      let optimized, report = Comp.optimize prog in
      print_string (Minic.Pretty.program_to_string optimized);
      (* timing on the simulated host + MIC *)
      let w = Workloads.Registry.find_exn "blackscholes" in
      let t = Comp.simulate w Comp.Mic_optimized in
      Printf.printf "%.3f s\n" t
    ]} *)

(** {1 Source-to-source optimization} *)

(** What the pass pipeline did to a program. *)
type applied = {
  offloads_inserted : int;  (** Apricot-style offload insertion *)
  shared_rewritten : int;
      (** pointer-based offloads rewritten to translated DMA *)
  regularized : (string * Transforms.Regularize.kind) list;
  merged : int;  (** offload-merging sites rewritten *)
  streamed : int;  (** loops rewritten for data streaming *)
  streamed_regions : Transforms.Streaming.info list;
      (** the analysis of each of those loops, in program order *)
  vectorized : int;  (** loops annotated [omp simd] *)
  resident : int;
      (** transfers elided or hoisted by the inter-offload residency
          pass *)
}

let pp_applied fmt a =
  let kind_name = function
    | Transforms.Regularize.Reorder -> "reorder"
    | Transforms.Regularize.Split -> "split"
    | Transforms.Regularize.Soa -> "soa"
  in
  Format.fprintf fmt
    "offloads inserted: %d; shared rewritten: %d; regularized: [%s]; \
     merged: %d; streamed: %d; vectorized: %d; resident: %d"
    a.offloads_inserted a.shared_rewritten
    (String.concat ", "
       (List.map (fun (f, k) -> f ^ ":" ^ kind_name k) a.regularized))
    a.merged a.streamed a.vectorized a.resident

(** Pipeline passes, in their fixed order. *)
type pass =
  | Insert_offload
  | Shared_memory
  | Regularization
  | Merge_offloads
  | Data_streaming
  | Vectorization

let all_passes =
  [
    Insert_offload; Shared_memory; Regularization; Merge_offloads;
    Data_streaming; Vectorization;
  ]

let pass_name = function
  | Insert_offload -> "insert-offload"
  | Shared_memory -> "shared-memory"
  | Regularization -> "regularization"
  | Merge_offloads -> "merge-offloads"
  | Data_streaming -> "data-streaming"
  | Vectorization -> "vectorization"

let pass_of_name n =
  List.find_opt (fun p -> String.equal (pass_name p) n) all_passes

(** Run the pass pipeline:
    offload insertion -> shared memory -> regularization -> offload
    merging -> data streaming -> vectorization.  The order matters:
    regularization enables streaming (Section IV), merging must see the
    individual offloads before streaming rewrites them, and the shared-
    memory rewrite must pull pointer-bearing arrays out of the clauses
    before streaming could slice them.  [passes] restricts the pipeline
    (the relative order is always the fixed one above). *)
let optimize ?opt ?obs ?(residency = false) ?(passes = all_passes)
    ?(nblocks = 10) ?(memory = Transforms.Streaming.Double_buffered) prog =
  (* generated names restart per program: a rewrite is a pure function
     of its input, whichever domain runs it and in whatever order *)
  Transforms.Util.reset_fresh ();
  (* the classic mid-end runs first so the paper's source-to-source
     passes see cleaned-up code (folded bounds, hoisted invariants) *)
  let prog =
    match opt with
    | None -> prog
    | Some mid -> Opt.run ?obs ~passes:mid prog
  in
  let on p = List.mem p passes in
  let run p f prog = if on p then f prog else (prog, 0) in
  let prog, offloads_inserted =
    run Insert_offload Transforms.Insert_offload.transform_all prog
  in
  let prog, shared_rewritten =
    run Shared_memory Transforms.Shared_mem.transform_all prog
  in
  let prog, regularized =
    if on Regularization then Transforms.Regularize.transform_all prog
    else (prog, [])
  in
  let prog, merged =
    run Merge_offloads Transforms.Merge_offload.transform_all prog
  in
  let prog, streamed_regions =
    if on Data_streaming then
      Transforms.Streaming.transform_all ~nblocks ~memory prog
    else (prog, [])
  in
  let prog, vectorized =
    run Vectorization Transforms.Vectorize.transform_all prog
  in
  (* residency runs last: it must see the offload/transfer structure
     the other rewrites leave behind (streamed offloads carry signals
     and are refused per-region rather than hidden from it) *)
  let prog, resident =
    if residency then Residency.transform ?obs prog else (prog, 0)
  in
  ( prog,
    {
      offloads_inserted;
      shared_rewritten;
      regularized;
      merged;
      streamed = List.length streamed_regions;
      streamed_regions;
      vectorized;
      resident;
    } )

(** {1 Applicability analysis (Table II)} *)

(** Which optimizations apply to a workload, as decided by the real
    analyses running on its kernel source (except the shared-memory
    mechanism, which is an allocation-site property carried by the
    workload's shape). *)
type applicability = {
  streaming : bool;
  merging : bool;
  regularization : Transforms.Regularize.kind list;
  shared_memory : bool;
}

let analyze (w : Workloads.Workload.t) =
  let prog = Workloads.Workload.program w in
  let regions = Analysis.Offload_regions.offloaded prog in
  let streaming =
    (not w.manual_streaming)
    && List.exists (Transforms.Streaming.applicable prog) regions
  in
  let merging = Transforms.Merge_offload.applicable prog in
  let regularization =
    List.concat_map (Transforms.Regularize.applicable_kinds prog) regions
    |> List.sort_uniq compare
  in
  let shared_memory =
    Workloads.Workload.has_shared w
    || List.exists (Transforms.Shared_mem.applicable prog) regions
  in
  { streaming; merging; regularization; shared_memory }

(** {1 Simulation} *)

type variant =
  | Cpu_parallel  (** the original multicore OpenMP version *)
  | Mic_naive  (** pragmas added, nothing else (Figure 1) *)
  | Mic_optimized  (** all applicable COMP optimizations *)
  | Mic_with of Runtime.Plan.strategy * Runtime.Plan.shape
      (** explicit strategy/shape, for ablations *)

let default_nblocks = 20
let default_seg_bytes = 256 * 1024 * 1024
(* the paper observes 256 MB granularity improves ferret by 7.81x *)

(** The execution strategy a variant uses for a workload.  Returns the
    strategy and the shape it runs against (regularization changes the
    shape: packed transfers, different kernel behaviour). *)
let plan_of_variant (w : Workloads.Workload.t) (a : applicability) variant :
    Runtime.Plan.strategy * Runtime.Plan.shape =
  let open Runtime in
  match variant with
  | Mic_with (s, shape) -> (s, shape)
  | Cpu_parallel -> (Plan.Host_parallel, w.shape)
  | Mic_naive ->
      if a.shared_memory then (Plan.Shared_myo, w.shape)
      else if w.manual_streaming then
        (* dedup: the original port already streams by hand *)
        (Plan.streamed ~nblocks:default_nblocks ~persistent:false (), w.shape)
      else (Plan.Naive_offload, w.shape)
  | Mic_optimized ->
      if a.shared_memory then
        (Plan.Shared_segbuf { seg_bytes = default_seg_bytes }, w.shape)
      else
        let shape, repack =
          match (a.regularization, w.regularized) with
          | _ :: _, Some r -> (r.reg_shape, Some r.repack)
          | _ -> (w.shape, None)
        in
        if w.manual_streaming then
          (Plan.streamed ~nblocks:default_nblocks ~persistent:false (), shape)
        else if a.merging then
          (Plan.merged ~streamed:a.streaming ~nblocks:default_nblocks (), shape)
        else if a.streaming then
          ( Plan.streamed ~nblocks:default_nblocks ~persistent:true ?repack (),
            shape )
        else if a.regularization <> [] then (Plan.Naive_offload, shape)
        else (Plan.Naive_offload, w.shape)

(** Whole-application time of a variant on the simulated machine. *)
let simulate ?obs ?(cfg = Machine.Config.paper_default)
    (w : Workloads.Workload.t) variant =
  let a = analyze w in
  let strategy, shape = plan_of_variant w a variant in
  Runtime.Schedule_gen.total_time ?obs cfg shape strategy

(** Whole-application time with device death absorbed: like
    {!simulate}, but when [cfg.fault] kills the device and the policy
    allows CPU fallback, the returned record carries the recovered
    makespan instead of escaping with {!Fault.Device_dead}. *)
let simulate_recovered ?obs ?(cfg = Machine.Config.paper_default)
    (w : Workloads.Workload.t) variant =
  let a = analyze w in
  let strategy, shape = plan_of_variant w a variant in
  let r = Runtime.Schedule_gen.schedule_recovered ?obs cfg shape strategy in
  let time =
    shape.Runtime.Plan.host_serial_s +. r.Machine.Engine.result.makespan
  in
  (time, r)

(** Full schedule of a variant, for tracing/Gantt output.  With [?obs],
    every counter/span the runtime and engine record lands in the given
    sink. *)
let schedule ?obs ?(cfg = Machine.Config.paper_default)
    (w : Workloads.Workload.t) variant =
  let a = analyze w in
  let strategy, shape = plan_of_variant w a variant in
  Runtime.Schedule_gen.schedule ?obs cfg shape strategy

(** Device memory footprint of a variant (Figure 13). *)
let device_bytes (w : Workloads.Workload.t) variant =
  let a = analyze w in
  let strategy, shape = plan_of_variant w a variant in
  Runtime.Mem_usage.device_bytes shape strategy

(** {1 Diagnostics} *)

(** Human-readable, per-region account of what the compiler decided
    and why — the [compc analyze] output. *)
let explain prog =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let regions = Analysis.Offload_regions.of_program prog in
  if regions = [] then add "no parallel or offloaded regions found\n";
  List.iter
    (fun (r : Analysis.Offload_regions.region) ->
      add "region %s#%d (loop over %s):\n" r.func r.ordinal r.loop.index;
      (match r.spec with
      | Some spec ->
          add "  offloaded to mic:%d (%d in, %d out, %d inout clauses)\n"
            spec.target (List.length spec.ins) (List.length spec.outs)
            (List.length spec.inouts)
      | None ->
          let violations = Analysis.Depend.check r.loop in
          if violations = [] then
            add "  candidate for offload insertion (provably parallel)\n"
          else
            add "  not offloadable: %s\n"
              (String.concat "; "
                 (List.map
                    (Format.asprintf "%a" Analysis.Depend.pp_violation)
                    violations)));
      (match Transforms.Streaming.analyze prog r with
      | Ok info ->
          add "  data streaming: applicable (%d arrays, %d streamed)\n"
            (List.length info.Transforms.Streaming.arrays)
            (List.length
               (List.filter
                  (fun (a : Transforms.Streaming.arr_info) -> a.coeff >= 1)
                  info.Transforms.Streaming.arrays))
      | Error e ->
          add "  data streaming: not applicable (%s)\n"
            (Format.asprintf "%a" Transforms.Streaming.pp_failure e));
      if Transforms.Shared_mem.applicable prog r then
        add
          "  shared memory: pointer-based clauses; rewriting to \
           preallocated translated DMA\n";
      let kinds = Transforms.Regularize.applicable_kinds prog r in
      if kinds = [] then add "  regularization: nothing to regularize\n"
      else
        add "  regularization: %s\n"
          (String.concat ", "
             (List.map
                (function
                  | Transforms.Regularize.Reorder -> "array reordering"
                  | Transforms.Regularize.Split -> "loop splitting"
                  | Transforms.Regularize.Soa -> "AoS-to-SoA")
                kinds));
      match Transforms.Vectorize.check r.loop with
      | Ok () -> add "  vectorization: legal (512-bit SIMD usable)\n"
      | Error b ->
          add "  vectorization: blocked (%s)\n"
            (Format.asprintf "%a" Transforms.Vectorize.pp_blocker b))
    regions;
  let sites = Transforms.Merge_offload.sites prog in
  List.iter
    (fun (s : Transforms.Merge_offload.site) ->
      add "merge site in %s: %d offloads inside one sequential loop\n"
        s.func (List.length s.specs))
    sites;
  Buffer.contents buf
