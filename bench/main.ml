(** Benchmark harness on the simulated clock.

    Running this executable regenerates every table and figure of the
    paper's evaluation section (Section VI) from the simulator, then
    prints the ablation studies DESIGN.md calls out, the per-workload
    observability profiles and the sensitivity sweeps.  Host-clock
    timing of the compiler itself lives in [benchmark/].

    Usage: [dune exec bench/main.exe] (everything), or pass experiment
    names ([fig1 fig4 table2 fig10 fig11 fig12 fig13 fig14 fig15
    table3 sensitivity ablations profile faults check residency degrade
    tune]).

    The sweep modes ([profile], [faults], [check], [residency],
    [degrade], [tune]) run their independent per-workload /
    per-fault-point tasks on a domain pool ([--jobs N], [COMP_JOBS],
    default [Domain.recommended_domain_count]).  Each task writes into
    a private buffer and a private {!Obs.t} sink; buffers are printed
    and sinks merged in submission order, so stdout and JSON are
    byte-identical at any [--jobs]. *)

let cfg = Machine.Config.paper_default

(* Pool width for the sweep modes, settable with --jobs N. *)
let jobs : int option ref = ref None

let pmap f xs = Parallel.map ?jobs:!jobs f xs

(* {1 Ablations} *)

(* Block-count sweep: the Section III-B model against the event-driven
   simulator, on blackscholes. *)
let ablation_blocks () =
  let w = Workloads.Registry.find_exn "blackscholes" in
  let shape = w.Workloads.Workload.shape in
  let d =
    Machine.Cost.transfer_time cfg Machine.Cost.H2d
      ~bytes:shape.Runtime.Plan.bytes_in
  in
  let c =
    Machine.Cost.mic_time cfg shape.Runtime.Plan.kernel
      ~iters:shape.Runtime.Plan.iters
  in
  let params =
    {
      Transforms.Block_size.transfer_s = d;
      compute_s = c;
      launch_s = Machine.Cost.launch_time cfg;
    }
  in
  let rows =
    List.map
      (fun n ->
        let model = Transforms.Block_size.streamed_time params ~nblocks:n in
        let sim =
          Runtime.Schedule_gen.region_time cfg shape
            (Runtime.Plan.streamed ~nblocks:n ~persistent:false ())
        in
        [
          string_of_int n;
          Printf.sprintf "%.4f" model;
          Printf.sprintf "%.4f" sim;
          Printf.sprintf "%.2f" (Transforms.Block_size.speedup params ~nblocks:n);
        ])
      [ 1; 2; 5; 10; 20; 40; 50; 100 ]
  in
  Experiments.Tables.print
    ~title:
      (Printf.sprintf
         "Ablation: block count on blackscholes (model optimum N*=%d)"
         (Transforms.Block_size.optimal_blocks params))
    ~header:[ "N"; "model T(N) s"; "simulated s"; "model speedup" ]
    rows

(* Thread reuse: per-block launch versus one persistent kernel fed by
   COI signals, across block counts. *)
let ablation_thread_reuse () =
  let w = Workloads.Registry.find_exn "kmeans" in
  let shape = w.Workloads.Workload.shape in
  let rows =
    List.map
      (fun n ->
        let t p =
          Runtime.Schedule_gen.region_time cfg shape
            (Runtime.Plan.streamed ~nblocks:n ~persistent:p ())
        in
        [
          string_of_int n;
          Printf.sprintf "%.4f" (t false);
          Printf.sprintf "%.4f" (t true);
          Printf.sprintf "%.2f" (t false /. t true);
        ])
      [ 5; 10; 20; 50 ]
  in
  Experiments.Tables.print
    ~title:"Ablation: thread reuse (kmeans, launch per block vs signals)"
    ~header:[ "N"; "relaunch s"; "persistent s"; "gain" ]
    rows

(* Segment size for the shared-memory mechanism (the paper observes
   256 MB granularity gives ferret its 7.81x). *)
let ablation_seg_size () =
  let w = Workloads.Registry.find_exn "ferret" in
  let shape = w.Workloads.Workload.shape in
  let myo = Runtime.Schedule_gen.region_time cfg shape Runtime.Plan.Shared_myo in
  let rows =
    List.map
      (fun mb ->
        let t =
          Runtime.Schedule_gen.region_time cfg shape
            (Runtime.Plan.Shared_segbuf { seg_bytes = mb * 1024 * 1024 })
        in
        [ string_of_int mb; Printf.sprintf "%.4f" t;
          Printf.sprintf "%.2f" (myo /. t) ])
      [ 1; 4; 16; 64; 256 ]
  in
  Experiments.Tables.print
    ~title:
      (Printf.sprintf
         "Ablation: segment size for ferret (MYO baseline %.4f s)" myo)
    ~header:[ "seg MB"; "segbuf s"; "speedup over MYO" ]
    rows

(* Launch-overhead sensitivity of offload merging. *)
let ablation_launch_overhead () =
  let w = Workloads.Registry.find_exn "streamcluster" in
  let shape = w.Workloads.Workload.shape in
  let rows =
    List.map
      (fun k ->
        let cfg =
          {
            cfg with
            Machine.Config.mic =
              { cfg.Machine.Config.mic with launch_overhead_s = k };
          }
        in
        let naive =
          Runtime.Schedule_gen.region_time cfg shape Runtime.Plan.Naive_offload
        in
        let merged =
          Runtime.Schedule_gen.region_time cfg shape (Runtime.Plan.merged ())
        in
        [
          Printf.sprintf "%.0f us" (k *. 1e6);
          Printf.sprintf "%.3f" naive;
          Printf.sprintf "%.3f" merged;
          Printf.sprintf "%.1f" (naive /. merged);
        ])
      [ 1e-5; 1e-4; 1e-3; 5e-3 ]
  in
  Experiments.Tables.print
    ~title:"Ablation: merging gain vs kernel-launch overhead (streamcluster)"
    ~header:[ "K"; "naive s"; "merged s"; "merging gain" ]
    rows

(* Double-buffering: time cost vs memory saved, nn. *)
let ablation_double_buffer () =
  let w = Workloads.Registry.find_exn "nn" in
  let shape = w.Workloads.Workload.shape in
  let rows =
    List.map
      (fun n ->
        let t db =
          Runtime.Schedule_gen.region_time cfg shape
            (Runtime.Plan.streamed ~nblocks:n ~double_buffered:db ())
        in
        let mem db =
          Runtime.Mem_usage.relative shape
            (Runtime.Plan.streamed ~nblocks:n ~double_buffered:db ())
        in
        [
          string_of_int n;
          Printf.sprintf "%.4f" (t false);
          Printf.sprintf "%.4f" (t true);
          Printf.sprintf "%.0f%%" (100. *. mem false);
          Printf.sprintf "%.0f%%" (100. *. mem true);
        ])
      [ 5; 10; 20; 50 ]
  in
  Experiments.Tables.print
    ~title:"Ablation: double buffering on nn (time vs device memory)"
    ~header:[ "N"; "full-buf s"; "dbuf s"; "full-buf mem"; "dbuf mem" ]
    rows

(* Execution-driven validation: replay the miniature blackscholes
   kernel (original, streamed, merged-style variants) and check that
   the schedule reconstructed from the actual generated code shows the
   same ordering as the shape-based model. *)
let ablation_replay () =
  let params =
    { Runtime.Replay.bytes_per_cell = 2e6; seconds_per_stmt = 2e-5 }
  in
  let rcfg =
    { cfg with Machine.Config.mic = { cfg.Machine.Config.mic with launch_overhead_s = 1e-4 } }
  in
  let prog =
    Minic.Parser.program_of_string_exn
      (Workloads.Registry.find_exn "blackscholes").source
  in
  let region = List.hd (Analysis.Offload_regions.offloaded prog) in
  let events p =
    match Minic.Interp.run p with
    | Ok o -> o.Minic.Interp.events
    | Error e -> failwith e
  in
  let row label p =
    let evs = events p in
    let r = Runtime.Replay.schedule ~params rcfg evs in
    let kernels =
      List.length
        (List.filter
           (function Minic.Interp.Ev_kernel _ -> true | _ -> false)
           evs)
    in
    [ label; string_of_int kernels; Printf.sprintf "%.4f" r.Machine.Engine.makespan ]
  in
  let streamed n =
    Result.get_ok (Transforms.Streaming.transform ~nblocks:n prog region)
  in
  Experiments.Tables.print
    ~title:
      "Ablation: execution-driven replay of blackscholes"
    ~header:[ "variant"; "kernel launches"; "replayed makespan s" ]
    [
      row "original offload" prog;
      row "streamed, 4 blocks" (streamed 4);
      row "streamed, 8 blocks" (streamed 8);
      row "streamed, 8 blocks, double-buffered"
        (Result.get_ok
           (Transforms.Streaming.transform ~nblocks:8
              ~memory:Transforms.Streaming.Double_buffered prog region));
    ]

let ablations () =
  ablation_blocks ();
  ablation_thread_reuse ();
  ablation_seg_size ();
  ablation_launch_overhead ();
  ablation_double_buffer ();
  ablation_replay ()

(* {1 Observability profiles} *)

(* Per-workload runtime counter blocks: what the instrumented runtime
   actually did while simulating the optimized variant — launches,
   signals, faults, DMA bytes — next to the per-phase time breakdown.
   One JSON line per workload for machine consumption. *)
let profile_workloads =
  [ "blackscholes"; "streamcluster"; "ferret"; "kmeans" ]

(* One workload's profile section, rendered into a string on whichever
   domain picks the task up; its sink is private to the task. *)
let profile_section name =
  let w = Workloads.Registry.find_exn name in
  let obs = Obs.create () in
  let r = Comp.schedule ~obs w Comp.Mic_optimized in
  Printf.sprintf "\n-- %s (%s) --\n%sjson: %s\n" w.Workloads.Workload.name
    w.Workloads.Workload.input_desc
    (Format.asprintf "%a" (Machine.Trace.pp_profile ~obs) r)
    (Obs.Json.to_string (Machine.Trace.profile_json ~obs r))

let profile () =
  Printf.printf "\n== Workload profiles (optimized variant, runtime counters) ==\n";
  List.iter print_string (pmap profile_section profile_workloads)

(* {1 Fault sweep} *)

(* Robustness sweep: the optimized variant of each workload under a
   grid of deterministic fault plans, with recovery on.  The JSON line
   keeps the profile schema and only *adds* a "fault_sweep" key, so
   existing consumers keep parsing. *)
let fault_sweep_specs () =
  List.map
    (fun s ->
      match Fault.parse s with
      | Ok v -> (s, v)
      | Error e ->
          failwith ("fault sweep spec " ^ s ^ ": " ^ Fault.error_message e))
    [
      "xfer=0.05,seed=1";
      "xfer=0.2,seed=2";
      "xfer@0*2,seed=3";
      "reset@0.001,seed=4";
      "kill@3,dead-after=1,seed=5";
    ]

let fault_workloads = [ "blackscholes"; "streamcluster"; "kmeans" ]

(* The sweep's task grid, flattened: one clean-profile task per
   workload plus one task per (workload, fault point).  Results merge
   per workload in submission order, so the report is byte-identical
   to the sequential one at any pool width. *)
type fault_task_result =
  | Fr_clean of Obs.t * Machine.Engine.result * float
  | Fr_point of { label : string; time_s : float; fellback : bool }

let faults_mode () =
  Printf.printf "\n== Fault sweep (optimized variant, recovery on) ==\n";
  let specs = fault_sweep_specs () in
  let tasks =
    List.concat_map
      (fun name ->
        let w = Workloads.Registry.find_exn name in
        (fun () ->
          let obs = Obs.create () in
          let r_clean = Comp.schedule ~obs w Comp.Mic_optimized in
          Fr_clean (obs, r_clean, Comp.simulate w Comp.Mic_optimized))
        :: List.map
             (fun (label, spec) () ->
               let fcfg = Machine.Config.with_faults cfg spec in
               let t, rec_ =
                 Comp.simulate_recovered ~cfg:fcfg w Comp.Mic_optimized
               in
               Fr_point
                 {
                   label;
                   time_s = t;
                   fellback = rec_.Machine.Engine.died_at <> None;
                 })
             specs)
      fault_workloads
  in
  let results = pmap (fun task -> task ()) tasks in
  (* regroup: each workload owns 1 + |specs| consecutive results *)
  let stride = 1 + List.length specs in
  List.iteri
    (fun wi name ->
      let w = Workloads.Registry.find_exn name in
      let obs, r_clean, clean =
        match List.nth results (wi * stride) with
        | Fr_clean (o, r, c) -> (o, r, c)
        | Fr_point _ -> assert false
      in
      Printf.printf "\n-- %s (clean %.4f s) --\n" w.Workloads.Workload.name
        clean;
      let rows =
        List.mapi
          (fun si _ ->
            match List.nth results ((wi * stride) + 1 + si) with
            | Fr_point { label; time_s = t; fellback } ->
                Printf.printf "  %-26s %10.4f s (%+6.1f%%)%s\n" label t
                  (100. *. (t -. clean) /. clean)
                  (if fellback then "  [cpu fallback]" else "");
                Obs.Json.Obj
                  [
                    ("spec", Obs.Json.String label);
                    ("time_s", Obs.Json.Float t);
                    ("fellback", Obs.Json.Bool fellback);
                  ]
            | Fr_clean _ -> assert false)
          specs
      in
      let json =
        match Machine.Trace.profile_json ~obs r_clean with
        | Obs.Json.Obj fields ->
            Obs.Json.Obj
              (fields
              @ [
                  ("clean_s", Obs.Json.Float clean);
                  ("fault_sweep", Obs.Json.List rows);
                ])
        | j -> j
      in
      Printf.printf "json: %s\n" (Obs.Json.to_string json))
    fault_workloads

(* Differential + metamorphic validation sweep over the whole workload
   registry: every transform on every workload's kernel model must be
   observationally equivalent (or inapplicable), and every (shape,
   strategy) plan must respect the cost model's own invariants. *)
(* One registry row of the differential check: every transform on one
   workload's kernel model, fully independent of the other rows. *)
let check_row (w : Workloads.Workload.t) =
  let prog = Workloads.Workload.program w in
  let buf = Buffer.create 256 in
  let row_failures = ref 0 in
  let cells =
    List.map
      (fun (r : Check.report) ->
        if r.sites = 0 then "-"
        else if Check.verdict_ok r.transform r.verdict then
          Printf.sprintf "ok(%d)" r.sites
        else begin
          incr row_failures;
          Printf.bprintf buf "%s/%s: %s\n" w.name
            (Check.transform_name r.transform)
            (Check.verdict_str r.verdict);
          "FAIL"
        end)
      (Check.check_program prog)
  in
  Printf.bprintf buf "%-14s %s\n" w.name
    (String.concat " " (List.map (Printf.sprintf "%-12s") cells));
  (Buffer.contents buf, !row_failures)

let check_mode () =
  let failures = ref 0 in
  Printf.printf "== Differential check: workload kernel models ==\n";
  Printf.printf "%-14s %s\n" "benchmark"
    (String.concat " "
       (List.map
          (fun t -> Printf.sprintf "%-12s" (Check.transform_name t))
          Check.all_transforms));
  List.iter
    (fun (section, n) ->
      print_string section;
      failures := !failures + n)
    (pmap check_row Workloads.Registry.all);
  Printf.printf "\n== Metamorphic check: plan invariants ==\n";
  let strategies =
    [
      Runtime.Plan.Host_parallel;
      Runtime.Plan.Naive_offload;
      Runtime.Plan.streamed ~nblocks:10 ();
      Runtime.Plan.streamed ~nblocks:20 ~double_buffered:true ();
      Runtime.Plan.streamed ~nblocks:40 ~persistent:true
        ~repack:{ Runtime.Plan.repack_s_per_block = 1e-4; pipelined = true }
        ();
      Runtime.Plan.merged ();
      Runtime.Plan.merged ~streamed:true ~nblocks:20 ();
      Runtime.Plan.Shared_myo;
      Runtime.Plan.Shared_segbuf { seg_bytes = 16 * 1024 * 1024 };
    ]
  in
  let plans = ref 0 in
  List.iter
    (fun (section, n, nplans) ->
      print_string section;
      failures := !failures + n;
      plans := !plans + nplans)
    (pmap
       (fun (w : Workloads.Workload.t) ->
         let buf = Buffer.create 64 in
         let n = ref 0 in
         List.iter
           (fun strat ->
             match Check.Metamorphic.check_plan w.shape strat with
             | Ok () -> ()
             | Error e ->
                 incr n;
                 Printf.bprintf buf "%s under %s: %s\n" w.name
                   (Runtime.Plan.strategy_name strat)
                   e)
           strategies;
         (Buffer.contents buf, !n, List.length strategies))
       Workloads.Registry.all);
  Printf.printf "%d plans checked\n" !plans;
  Printf.printf "\n== Metamorphic check: block-count model ==\n";
  let params = ref 0 in
  List.iter
    (fun d ->
      List.iter
        (fun c ->
          List.iter
            (fun k ->
              incr params;
              let p =
                {
                  Transforms.Block_size.transfer_s = d;
                  compute_s = c;
                  launch_s = k;
                }
              in
              match Check.Metamorphic.check_block_model p with
              | Ok () -> ()
              | Error e ->
                  incr failures;
                  Printf.printf "D=%g C=%g K=%g: %s\n" d c k e)
            [ 1e-4; 1e-3; 1e-2 ])
        [ 0.; 0.05; 0.5; 5. ])
    [ 0.01; 0.1; 1.; 10. ];
  Printf.printf "%d parameter points checked\n" !params;
  if !failures > 0 then begin
    Printf.printf "\n%d FAILURES\n" !failures;
    exit 1
  end
  else Printf.printf "\nall checks passed\n"

(* Where residency, degrade and tune record their JSON
   (--bench-out FILE). *)
let bench_out : string option ref = ref None

(* {1 Residency payoff: bytes moved and makespan, A/B over the registry} *)

(* One registry row: the workload's kernel model run plain and with the
   inter-offload residency rewrite, compared on actual cells moved
   (interpreter stats) and replayed makespan (machine model).  Pure per
   row, so the sweep parallelizes with byte-identical output. *)
let residency_row (w : Workloads.Workload.t) =
  let prog = Workloads.Workload.program w in
  let r = Check.check_residency prog in
  let bpc = Runtime.Replay.default_params.Runtime.Replay.bytes_per_cell in
  let makespan p =
    match Minic.Compile_eval.run_compiled p with
    | Error _ -> Float.nan
    | Ok o ->
        (Runtime.Replay.schedule cfg o.Minic.Interp.events)
          .Machine.Engine.makespan
  in
  let prog', _ = Check.apply Check.Residency prog in
  let mk0 = makespan prog and mk1 = makespan prog' in
  let bytes cells = float_of_int cells *. bpc in
  let b0, b1 =
    if r.Check.rr_sites > 0 then
      ( bytes (r.Check.rr_orig_h2d + r.Check.rr_orig_d2h),
        bytes (r.Check.rr_res_h2d + r.Check.rr_res_d2h) )
    else
      (* inapplicable: both sides are the plain program's traffic *)
      let b =
        match Minic.Compile_eval.run_compiled prog with
        | Error _ -> Float.nan
        | Ok o ->
            bytes
              (o.Minic.Interp.stats.Minic.Interp.cells_h2d
             + o.Minic.Interp.stats.Minic.Interp.cells_d2h)
      in
      (b, b)
  in
  (w.name, r, b0, b1, mk0, mk1)

let residency_mode () =
  Printf.printf "== Residency payoff: bytes moved and makespan, A/B ==\n";
  Printf.printf "  %-14s %6s %6s %12s %12s %8s %11s %11s %8s\n" "workload"
    "sites" "hoists" "bytes" "resident" "moved" "makespan s" "resident s"
    "speedup";
  let rows = pmap residency_row Workloads.Registry.all in
  let failures = ref 0 in
  List.iter
    (fun (name, (r : Check.residency_report), b0, b1, mk0, mk1) ->
      if not (Check.residency_ok r) then begin
        incr failures;
        Printf.printf "  %-14s FAILED: %s\n" name
          (match r.Check.rr_contract with
          | Some m -> m
          | None -> Check.verdict_str r.Check.rr_verdict)
      end
      else
        Printf.printf "  %-14s %6d %6d %12.0f %12.0f %7.1f%% %11.6f %11.6f %7.2fx\n"
          name r.Check.rr_sites r.Check.rr_hoists b0 b1
          (if b0 > 0. then 100. *. b1 /. b0 else 100.)
          mk0 mk1
          (if mk1 > 0. then mk0 /. mk1 else 1.))
    rows;
  let row_json (name, (r : Check.residency_report), b0, b1, mk0, mk1) =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String name);
        ("sites", Obs.Json.Int r.Check.rr_sites);
        ("hoists", Obs.Json.Int r.Check.rr_hoists);
        ("bytes_moved", Obs.Json.Float b0);
        ("bytes_moved_resident", Obs.Json.Float b1);
        ("makespan_s", Obs.Json.Float mk0);
        ("makespan_resident_s", Obs.Json.Float mk1);
      ]
  in
  let improved =
    List.length (List.filter (fun (_, _, b0, b1, _, _) -> b1 < b0) rows)
  in
  Printf.printf "  %-24s %d / %d workloads move fewer bytes\n" "improved"
    improved (List.length rows);
  let json =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "residency");
        ("improved", Obs.Json.Int improved);
        ("workloads", Obs.Json.List (List.map row_json rows));
      ]
  in
  Printf.printf "json: %s\n" (Obs.Json.to_string json);
  if !failures > 0 then begin
    Printf.eprintf "residency: %d contract failure(s)\n" !failures;
    exit 1
  end;
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Obs.Json.to_string json);
          output_char oc '\n'))
    !bench_out

(* {1 Graceful degradation: dead-device sweep over the registry} *)

(* The tentpole's headline experiment: every registry workload on a
   4-device x 2-stream machine, with 0..N of the devices killed on
   first contact ([devN:kill@0,dead-after=1]).  Blocks assigned to a
   dead device migrate to the survivors; with every device dead the
   host runs the remainder.  Records makespan, wire bytes (including
   migration re-pays) and the recovery counters per point; the sweep
   asserts the degradation contract — makespan monotonically
   non-decreasing in the dead-device count, block conservation at
   every point, host fallback engaged only with all N dead. *)
let degrade_devices = 4
let degrade_streams = 2

let degrade_spec ~dead =
  let s =
    String.concat ","
      ("seed=7" :: "dead-after=1"
      :: List.init dead (fun d -> Printf.sprintf "dev%d:kill@0" d))
  in
  match Fault.parse s with
  | Ok v -> v
  | Error e -> failwith ("degrade spec " ^ s ^ ": " ^ Fault.error_message e)

(* One (workload, dead-count) cell: interpret, cut the trace into
   blocks, place them under the killing plan.  Pure, so the grid
   parallelizes with byte-identical output. *)
let degrade_cell (w : Workloads.Workload.t) ~dead =
  let prog = Workloads.Workload.program w in
  match Minic.Compile_eval.run_compiled prog with
  | Error e -> failwith ("degrade: " ^ w.name ^ ": " ^ e)
  | Ok o ->
      let dcfg =
        Machine.Config.with_faults
          (Machine.Config.with_devices cfg ~devices:degrade_devices
             ~streams:degrade_streams)
          (degrade_spec ~dead)
      in
      let obs = Obs.create () in
      let m = Runtime.Migrate.schedule ~obs dcfg o.Minic.Interp.events in
      (m, Obs.count obs "fault.resident_repaid")

let degrade_mode () =
  Printf.printf
    "== Graceful degradation: dead-device sweep (%d devices x %d streams) ==\n"
    degrade_devices degrade_streams;
  let deads = List.init (degrade_devices + 1) Fun.id in
  let tasks =
    List.concat_map
      (fun (w : Workloads.Workload.t) ->
        List.map (fun dead () -> degrade_cell w ~dead) deads)
      Workloads.Registry.all
  in
  let results = pmap (fun task -> task ()) tasks in
  let stride = List.length deads in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.printf "  FAILED: %s\n" msg)
      fmt
  in
  let workload_json =
    List.mapi
      (fun wi (w : Workloads.Workload.t) ->
        Printf.printf "\n-- %s --\n" w.Workloads.Workload.name;
        let cells =
          List.map (fun k -> List.nth results ((wi * stride) + k)) deads
        in
        let blocks =
          match cells with
          | (m, _) :: _ -> List.length m.Runtime.Migrate.m_placements
          | [] -> 0
        in
        let prev = ref 0. in
        let points =
          List.map2
            (fun dead ((m : Runtime.Migrate.outcome), repaid) ->
              let mk = m.m_result.Machine.Engine.makespan in
              Printf.printf
                "  dead %d: makespan %.6f s, %11.0f bytes moved, %d \
                 migrated, %d device%s died%s\n"
                dead mk m.m_bytes_moved m.m_migrated
                (List.length m.m_dead)
                (if List.length m.m_dead = 1 then "" else "s")
                (if m.m_fellback then "  [host fallback]" else "");
              (* the degradation contract, point by point *)
              (match Check.migration_conserved ~blocks m with
              | Some msg -> fail "%s dead=%d: %s" w.name dead msg
              | None -> ());
              if mk < !prev -. 1e-9 then
                fail "%s dead=%d: makespan %.6f s < %.6f s at dead=%d"
                  w.name dead mk !prev (dead - 1);
              prev := mk;
              if m.m_fellback <> (dead = degrade_devices) then
                fail "%s dead=%d: host fallback %s" w.name dead
                  (if m.m_fellback then "engaged with survivors left"
                   else "missing with every device dead");
              if dead > 0 && blocks > 0 && m.m_migrated = 0 then
                fail "%s dead=%d: no block migrated" w.name dead;
              Obs.Json.Obj
                [
                  ("dead", Obs.Json.Int dead);
                  ("makespan_s", Obs.Json.Float mk);
                  ("bytes_moved", Obs.Json.Float m.m_bytes_moved);
                  ("migrated_blocks", Obs.Json.Int m.m_migrated);
                  ("dead_devices", Obs.Json.Int (List.length m.m_dead));
                  ("resident_repaid", Obs.Json.Int repaid);
                  ("fellback", Obs.Json.Bool m.m_fellback);
                ])
            deads cells
        in
        Obs.Json.Obj
          [
            ("name", Obs.Json.String w.Workloads.Workload.name);
            ("blocks", Obs.Json.Int blocks);
            ("points", Obs.Json.List points);
          ])
      Workloads.Registry.all
  in
  let json =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "degrade");
        ("devices", Obs.Json.Int degrade_devices);
        ("streams", Obs.Json.Int degrade_streams);
        ("contract_failures", Obs.Json.Int !failures);
        ("workloads", Obs.Json.List workload_json);
      ]
  in
  Printf.printf "\njson: %s\n" (Obs.Json.to_string json);
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Obs.Json.to_string json);
          output_char oc '\n'))
    !bench_out;
  if !failures > 0 then begin
    Printf.eprintf "degrade: %d contract failure(s)\n" !failures;
    exit 1
  end
  else Printf.printf "degradation contract holds at every point\n"

(* {1 Auto-tune: per-workload best-config sweep over a fixed fleet} *)

(* The tentpole's headline experiment: search the (devices, streams,
   nblocks) space for every registry workload on the degrade-mode
   fleet and record the replayed-makespan speedup of the tuned point
   over the default (1 device, 1 stream, default block count).  The
   default point always competes, so per-workload speedup is >= 1.0
   by construction; what the sweep must demonstrate is that several
   workloads improve *past noise* — there is no timing noise here
   (the makespans are simulated), so improved means > 1.001x. *)
let tune_devices = 4
let tune_streams = 2

let tune_mode () =
  Printf.printf "== Auto-tune: registry sweep over a %d-device x %d-stream \
                 fleet ==\n"
    tune_devices tune_streams;
  let obs = Obs.create () in
  let cache = Tune.Cache.create ~obs () in
  let bcache = Transforms.Block_size.Cache.create ~obs () in
  Printf.printf "  %-14s %-33s %12s %12s %8s %9s %7s\n" "workload"
    "best config" "makespan" "default" "speedup" "explored" "pruned";
  (* outer loop sequential: each search fans its own candidates out
     over the pool, and nested pools would oversubscribe *)
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let pre =
          Tune.prepare ~obs ~block_cache:bcache ~max_devices:tune_devices
            ~max_streams:tune_streams w
        in
        let rep = Tune.run ?jobs:!jobs ~obs ~cache pre in
        let sp = Tune.speedup rep in
        Printf.printf "  %-14s %-33s %12.6f %12.6f %7.2fx %9d %7d\n" w.name
          (Tune.config_to_string rep.Tune.r_best.Tune.pt_config)
          rep.Tune.r_best.Tune.pt_makespan
          rep.Tune.r_default.Tune.pt_makespan sp rep.Tune.r_explored
          rep.Tune.r_pruned;
        (w.name, rep, sp))
      Workloads.Registry.all
  in
  let n = List.length rows in
  let geomean =
    exp
      (List.fold_left (fun acc (_, _, sp) -> acc +. log sp) 0. rows
      /. float_of_int n)
  in
  let improved =
    List.length (List.filter (fun (_, _, sp) -> sp > 1.001) rows)
  in
  Printf.printf "  geomean speedup %.2fx; %d/%d workloads improved; \
                 tune.explored=%d tune.pruned=%d tune.block_cache.hits=%d\n"
    geomean improved n
    (Obs.count obs "tune.explored")
    (Obs.count obs "tune.pruned")
    (Obs.count obs "tune.block_cache.hits");
  let row_json (name, rep, sp) =
    Obs.Json.Obj
      [
        ("name", Obs.Json.String name);
        ( "best",
          Obs.Json.String (Tune.config_to_string rep.Tune.r_best.Tune.pt_config)
        );
        ("best_makespan_s", Obs.Json.Float rep.Tune.r_best.Tune.pt_makespan);
        ( "default_makespan_s",
          Obs.Json.Float rep.Tune.r_default.Tune.pt_makespan );
        ("speedup", Obs.Json.Float sp);
        ("explored", Obs.Json.Int rep.Tune.r_explored);
        ("pruned", Obs.Json.Int rep.Tune.r_pruned);
      ]
  in
  let json =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "tune");
        ("devices", Obs.Json.Int tune_devices);
        ("streams", Obs.Json.Int tune_streams);
        ("geomean_speedup", Obs.Json.Float geomean);
        ("improved", Obs.Json.Int improved);
        ("workloads", Obs.Json.List (List.map row_json rows));
      ]
  in
  Printf.printf "json: %s\n" (Obs.Json.to_string json);
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Obs.Json.to_string json);
          output_char oc '\n'))
    !bench_out;
  let failures = ref 0 in
  if geomean < 1.0 then begin
    Printf.eprintf "tune: geomean speedup %.3f < 1.0\n" geomean;
    incr failures
  end;
  if improved < 3 then begin
    Printf.eprintf "tune: only %d workload(s) improved past noise\n" improved;
    incr failures
  end;
  if !failures > 0 then begin
    Printf.eprintf "tune: %d contract failure(s)\n" !failures;
    exit 1
  end
  else Printf.printf "tuning contract holds\n"

(* [--jobs N] / [--jobs=N] anywhere on the command line sets the sweep
   width; everything else is an experiment name.  Output is identical
   at any width, so --jobs never needs quoting in expected-output
   tests. *)
let parse_jobs args =
  let set v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> jobs := Some n
    | _ ->
        Printf.eprintf "bench: --jobs expects a positive integer, got %s\n" v;
        exit 2
  in
  let rec go acc = function
    | [] -> List.rev acc
    | "--jobs" :: v :: rest ->
        set v;
        go acc rest
    | [ "--jobs" ] ->
        Printf.eprintf "bench: --jobs expects an argument\n";
        exit 2
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs="
      ->
        set (String.sub arg 7 (String.length arg - 7));
        go acc rest
    | "--bench-out" :: v :: rest ->
        bench_out := Some v;
        go acc rest
    | [ "--bench-out" ] ->
        Printf.eprintf "bench: --bench-out expects a file name\n";
        exit 2
    | arg :: rest -> go (arg :: acc) rest
  in
  go [] args

let () =
  let args = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  let run_named = function
    | "ablations" -> ablations ()
    | "profile" -> profile ()
    | "faults" -> faults_mode ()
    | "check" -> check_mode ()
    | "residency" -> residency_mode ()
    | "degrade" -> degrade_mode ()
    | "tune" -> tune_mode ()
    | name -> (
        match List.assoc_opt name Experiments.All.by_name with
        | Some f -> f ()
        | None ->
            Printf.eprintf
              "unknown experiment %s; known: %s ablations profile faults \
               check residency degrade tune\n"
              name
              (String.concat " " Experiments.All.names);
            exit 1)
  in
  match args with
  | [] ->
      Experiments.All.print_all ();
      ablations ();
      profile ();
      Experiments.Sensitivity.print ()
  | names -> List.iter run_named names
