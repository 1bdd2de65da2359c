(** compc — the COMP command-line driver.

    Subcommands:
    - [parse FILE]      parse + typecheck a MiniC file, print the AST-
                        round-tripped source
    - [optimize FILE]   run the full pass pipeline, print the rewritten
                        source and a pass report
    - [run FILE]        interpret a MiniC program on the dual-space
                        reference interpreter
    - [simulate NAME]   time a benchmark's variants on the machine model
                        and print the schedule
    - [report [EXP]]    print the paper's tables/figures
    - [list]            list benchmark models

    Top-level option:
    - [--profile FILE [-o STATS.json]]  interpret FILE, replay its
      offload trace on the machine model, and print the observability
      profile (per-phase breakdown, counters); [-o] also exports JSON *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Minic.Parser.program_of_string (read_file path) with
  | Ok prog -> (
      match Minic.Typecheck.check_program prog with
      | Ok _ -> Ok prog
      | Error e -> Error (Printf.sprintf "%s: type error: %s" path e))
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* Usage and input-parse failures in our own code: message on stderr,
   exit 2 — one convention across every subcommand.  (Cmdliner's own
   flag/argument errors exit 124; runtime failures exit 1; an
   unrecoverable device death exits 3.) *)
let exit_cli_error = 2

let die_usage msg =
  prerr_endline msg;
  exit exit_cli_error

let or_die = function Ok v -> v | Error msg -> die_usage msg

(* a runtime error in the input program: message on stderr, exit 1 *)
let die_runtime msg =
  Printf.eprintf "runtime error: %s\n" msg;
  exit 1

let or_die_runtime = function Ok v -> v | Error msg -> die_runtime msg

(* a streamed program with no blocks divides by zero when it runs *)
let check_nblocks ~cmd n =
  if n < 1 then
    die_usage (Printf.sprintf "%s: --nblocks must be at least 1 (got %d)" cmd n)

(* --- --faults SPEC (shared by --profile and check) --- *)

let fault_conv =
  let parse s =
    match Fault.parse s with
    | Ok spec -> Ok spec
    | Error e -> Error (`Msg (Fault.error_message e))
  in
  let print fmt s = Format.pp_print_string fmt (Fault.to_string s) in
  Arg.conv ~docv:"SPEC" (parse, print)

let faults_arg =
  Arg.(
    value
    & opt fault_conv Fault.none
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject a deterministic fault plan: comma-separated $(b,seed=N), \
           $(b,xfer=P) (per-attempt transfer CRC-failure probability), \
           $(b,xfer@I) / $(b,xfer@I*K) (force K failures at transfer I), \
           $(b,kill@I) (transfer I fails every attempt), $(b,drop@TAG) / \
           $(b,delay@TAG:SECS) (COI signal faults), $(b,reset@T) (device \
           reset at time T), $(b,myo-stall=P:SECS), and recovery-policy \
           overrides $(b,retries=N), $(b,backoff=BASE:CEIL), $(b,timeout=T), \
           $(b,dead-after=N), $(b,fallback)/$(b,no-fallback), \
           $(b,slowdown=F), $(b,reset-cost=S).  A clause prefixed \
           $(b,devN:) (e.g. $(b,dev1:kill@0)) applies only to device N \
           of a multi-device run; unprefixed fault clauses apply to every \
           device, and policy/seed clauses are always global")

(* exit code for a device declared dead with no CPU fallback; with
   --devices N this means EVERY device died (migration exhausted) *)
let exit_device_dead = 3

(* --- --machine SPEC / --devices N / --streams K (the device fleet;
   shared by run, check and tune) --- *)

let machine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "machine" ] ~docv:"SPEC"
        ~doc:
          "Describe the device fleet: comma-separated $(b,devices=N), \
           $(b,streams=K), and per-device heterogeneity refinements \
           $(b,devN:cores=F) / $(b,devN:bw=F), where F scales the named \
           card's compute throughput / PCIe link bandwidth relative to the \
           paper machine.  A bare $(b,cores=)/$(b,bw=) clause continues the \
           last $(b,devN:) prefix, so $(b,dev1:cores=0.5,bw=0.75) refines \
           device 1 twice.  Mutually exclusive with \
           $(b,--devices)/$(b,--streams)")

(* The fleet the flags name, or a usage error (exit 2): [--machine]
   excludes [--devices]/[--streams], and no count may be below 1.
   [default] is the count an absent flag stands for; [none] documents
   it in --help. *)
let fleet_term ~cmd ~default ?none ~devices_doc ~streams_doc machine =
  let count = Arg.(opt (some' ?none int) None) in
  let resolve devices streams machine =
    if machine <> None && (devices <> None || streams <> None) then
      die_usage
        (cmd ^ ": --machine and --devices/--streams are mutually exclusive");
    let fleet =
      match machine with
      | Some spec -> (
          match Machine.Fleet.parse spec with
          | Ok f -> f
          | Error e -> die_usage (Machine.Fleet.error_message e))
      | None ->
          {
            Machine.Fleet.f_devices = Option.value devices ~default;
            f_streams = Option.value streams ~default;
            f_scales = [];
          }
    in
    if fleet.Machine.Fleet.f_devices < 1 || fleet.Machine.Fleet.f_streams < 1
    then die_usage (cmd ^ ": --devices and --streams must be at least 1");
    fleet
  in
  Term.(
    const resolve
    $ Arg.(value & count & info [ "devices" ] ~docv:"N" ~doc:devices_doc)
    $ Arg.(value & count & info [ "streams" ] ~docv:"K" ~doc:streams_doc)
    $ machine)

(* run and check: absent counts mean one card with one stream *)
let grid_term ~cmd machine =
  fleet_term ~cmd ~default:1 ~none:1
    ~devices_doc:
      "Number of identical MIC cards, each with its own PCIe link. With \
       $(b,--faults), a device declared dead has its remaining blocks \
       migrated to the survivors; the host CPU runs the rest only once every \
       device is dead"
    ~streams_doc:
      "Concurrent streams per device: cores are partitioned evenly across \
       the streams of a device, which contend for its one PCIe link"
    machine

(* --- --jobs N (the domain-pool width; shared by check, tune and
   serve) --- *)

let jobs_arg ~pool_for ~invariant =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Domain-pool width for %s (default: $(b,COMP_JOBS) if set, else \
              the recommended domain count). %s at any width"
             pool_for invariant))

(* --- --fuel N (the statement budget; shared by run and check) --- *)

let fuel_arg ~doc = Arg.(value & opt int 10_000_000 & info [ "fuel" ] ~doc)

(* --- --eval ENGINE (shared by run, check and --profile) --- *)

let engine_conv =
  let parse s =
    match Minic.Interp.engine_of_string s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown engine %S (expected reference or compiled)"
                s))
  in
  let print fmt e = Format.pp_print_string fmt (Minic.Interp.engine_name e) in
  Arg.conv ~docv:"ENGINE" (parse, print)

let eval_arg =
  Arg.(
    value
    & opt engine_conv Minic.Interp.Compiled
    & info [ "eval" ] ~docv:"ENGINE"
        ~doc:
          "Evaluator: $(b,compiled) (default: the closure-compiling fast \
           evaluator) or $(b,reference) (the tree-walking interpreter). The \
           two are observationally identical — same output, stats, event \
           trace, and fuel accounting — so this only trades speed for \
           directness when debugging the evaluators themselves")

(* --- -O / --passes / --report (the lib/opt mid-end; shared by
   optimize, run and check) --- *)

let midend_flag ~doc = Arg.(value & flag & info [ "O" ] ~doc)

let midend_passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ] ~docv:"PASSES"
        ~doc:
          "Comma-separated subset of mid-end passes to run, in pipeline \
           order (implies $(b,-O)): inline, fold, licm, cse, strength, dce")

let midend_report_flag =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Print the mid-end's per-pass $(b,opt.<pass>.fired) / \
           $(b,opt.<pass>.blocked.<reason>) counter table to stderr \
           (implies $(b,-O))")

let midend_pass_list names =
  List.map
    (fun n ->
      match Opt.pass_of_name (String.trim n) with
      | Some p -> p
      | None ->
          die_usage
            (Printf.sprintf "unknown optimizer pass %s (known: %s)" n
               (String.concat ", " Opt.pass_names)))
    (String.split_on_char ',' names)

(* [Some passes] when any of -O / --passes / --report asks for the
   mid-end. *)
let midend ~o ~passes ~report =
  if o || passes <> None || report then
    Some
      (match passes with
      | None -> Opt.all_passes
      | Some s -> midend_pass_list s)
  else None

(* --- --residency (the inter-offload data-residency pass; shared by
   optimize, run and check) --- *)

let residency_flag ~doc = Arg.(value & flag & info [ "residency" ] ~doc)

(* --- parse --- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let parse_cmd =
  let run file =
    let prog = or_die (load file) in
    print_string (Minic.Pretty.program_to_string prog)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and typecheck a MiniC file")
    Term.(const run $ file_arg)

(* --- optimize --- *)

let optimize_cmd =
  let nblocks =
    Arg.(value & opt int 10 & info [ "nblocks"; "n" ] ~doc:"Streaming block count")
  in
  let full_buffers =
    Arg.(
      value & flag
      & info [ "full-buffers" ]
          ~doc:"Use full-size device buffers instead of double buffering")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"PASSES"
          ~doc:
            "Comma-separated subset of passes to run (insert-offload, \
             shared-memory, regularization, merge-offloads, \
             data-streaming, vectorization)")
  in
  let o =
    midend_flag
      ~doc:
        "Run the classic optimizer mid-end (inline, fold, licm, cse, \
         strength, dce) before the source-to-source pipeline"
  in
  let residency =
    residency_flag
      ~doc:
        "Run the inter-offload data-residency pass after the pipeline: \
         elide in()/inout() transfers whose sections are already \
         device-resident and hoist loop-invariant transfers.  With \
         $(b,--report), print the residency/clause counter table (and \
         $(b,--report) then no longer implies $(b,-O) on its own)"
  in
  let auto =
    Arg.(
      value & flag
      & info [ "auto" ]
          ~doc:
            "Auto-tune the streaming block count before optimizing: \
             simulate the pipeline's lowering at each candidate count on \
             the paper machine and use the makespan-optimal one \
             (overrides $(b,--nblocks); the chosen point is reported on \
             stderr)")
  in
  let run file nblocks full only o mpasses report residency auto =
    check_nblocks ~cmd:"optimize" nblocks;
    let prog = or_die (load file) in
    let memory =
      if full then Transforms.Streaming.Full
      else Transforms.Streaming.Double_buffered
    in
    let nblocks =
      if not auto then nblocks
      else begin
        let pre =
          or_die_runtime
            (Tune.prepare_program ~max_devices:1 ~max_streams:1 ~name:file
               prog)
        in
        let rep = Tune.run pre in
        Printf.eprintf
          "// auto-tuned: nblocks=%d (makespan %.6f s vs %.6f s at \
           nblocks=%d; explored %d, pruned %d)\n"
          rep.Tune.r_best.Tune.pt_config.Tune.nblocks
          rep.Tune.r_best.Tune.pt_makespan rep.Tune.r_default.Tune.pt_makespan
          Comp.default_nblocks rep.Tune.r_explored rep.Tune.r_pruned;
        rep.Tune.r_best.Tune.pt_config.Tune.nblocks
      end
    in
    let passes =
      match only with
      | None -> Comp.all_passes
      | Some names ->
          List.map
            (fun n ->
              match Comp.pass_of_name (String.trim n) with
              | Some p -> p
              | None ->
                  die_usage
                    (Printf.sprintf "unknown pass %s (known: %s)" n
                       (String.concat ", "
                          (List.map Comp.pass_name Comp.all_passes))))
            (String.split_on_char ',' names)
    in
    let obs = if report then Some (Obs.create ()) else None in
    let opt = midend ~o ~passes:mpasses ~report:(report && not residency) in
    let prog', applied =
      Comp.optimize ?opt ?obs ~residency ~passes ~nblocks ~memory prog
    in
    (if report then
       match obs with
       | Some s when opt <> None -> Printf.eprintf "%s\n" (Opt.report s)
       | _ -> ());
    (if report && residency then
       match obs with
       | Some s -> Printf.eprintf "%s\n" (Residency.report s)
       | None -> ());
    Format.eprintf "// %a@." Comp.pp_applied applied;
    print_string (Minic.Pretty.program_to_string prog')
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Apply the COMP source-to-source optimizations to a MiniC file")
    Term.(
      const run $ file_arg $ nblocks $ full_buffers $ only $ o
      $ midend_passes_arg $ midend_report_flag $ residency $ auto)

(* --- run --- *)

let run_cmd =
  let optimize_first =
    midend_flag
      ~doc:
        "Optimize before running — the classic mid-end, then the COMP \
         source-to-source pipeline (checks the rewrites too)"
  in
  let replay =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "After running, replay the offload event trace on the machine \
             model and print the reconstructed schedule (execution-driven \
             timing)")
  in
  let residency =
    residency_flag
      ~doc:
        "Apply the inter-offload data-residency pass before running (the \
         elided transfers show up in the stats line); with \
         $(b,--report), print its counter table"
  in
  let auto =
    Arg.(
      value & flag
      & info [ "auto" ]
          ~doc:
            "Auto-tune the offload configuration before running: search \
             (devices, streams, nblocks) up to the caps given by \
             $(b,--devices)/$(b,--streams) (or $(b,--machine)), optimize \
             at the winning block count, and run on the winning grid.  \
             The search sees the program the COMP pipeline would lower \
             (after the mid-end under $(b,-O)), not the $(b,--residency) \
             rewrite, which still runs after the pipeline.  The tuned \
             point is reported on stderr")
  in
  let run file fuel o mpasses report replay engine residency faults fleet auto
      =
    let prog = or_die (load file) in
    let obs = if report then Some (Obs.create ()) else None in
    let mid = midend ~o ~passes:mpasses ~report:(report && not residency) in
    let prog =
      match mid with Some mid -> Opt.run ?obs ~passes:mid prog | None -> prog
    in
    (if mid <> None then
       Option.iter (fun s -> Printf.eprintf "%s\n" (Opt.report s)) obs);
    (* --auto tunes the program the COMP pipeline would lower, so the
       pipeline below runs once, at the tuned block count *)
    let faulted =
      Machine.Config.with_faults Machine.Config.paper_default faults
    in
    let tuned =
      if not auto then None
      else begin
        let base =
          Machine.Config.with_scales faulted fleet.Machine.Fleet.f_scales
        in
        let pre =
          or_die_runtime
            (Tune.prepare_program ~base
               ~max_devices:fleet.Machine.Fleet.f_devices
               ~max_streams:fleet.Machine.Fleet.f_streams ~name:file prog)
        in
        Some (Tune.run pre)
      end
    in
    let prog =
      if mid = None && not auto then prog
      else
        fst
          (Comp.optimize
             ?nblocks:
               (Option.map
                  (fun rep -> rep.Tune.r_best.Tune.pt_config.Tune.nblocks)
                  tuned)
             prog)
    in
    let prog =
      if residency then fst (Residency.transform ?obs prog) else prog
    in
    (if residency then
       Option.iter (fun s -> Printf.eprintf "%s\n" (Residency.report s)) obs);
    let fleet =
      match tuned with
      | None -> fleet
      | Some rep ->
          let c = rep.Tune.r_best.Tune.pt_config in
          Printf.eprintf
            "// auto-tuned: %s (makespan %.6f s vs %.6f s default, %.2fx; \
             explored %d, pruned %d)\n"
            (Tune.config_to_string c) rep.Tune.r_best.Tune.pt_makespan
            rep.Tune.r_default.Tune.pt_makespan (Tune.speedup rep)
            rep.Tune.r_explored rep.Tune.r_pruned;
          { fleet with f_devices = c.Tune.devices; f_streams = c.Tune.streams }
    in
    match Minic.Compile_eval.run ~engine ~fuel prog with
    | Ok o ->
        print_string o.Minic.Interp.output;
        Printf.eprintf
          "// offloads=%d transfers=%d cells h2d=%d d2h=%d mic-alloc=%d\n"
          o.stats.Minic.Interp.offloads o.stats.Minic.Interp.transfers
          o.stats.Minic.Interp.cells_h2d o.stats.Minic.Interp.cells_d2h
          o.stats.Minic.Interp.mic_alloc_cells;
        if fleet <> Machine.Fleet.default || not (Fault.is_none faults)
        then begin
          (* The multi-device path: cut the trace into blocks and place
             them over every (device, stream) unit; device deaths
             migrate the remainder to the survivors.  The summary and
             the fault.* counters go to stderr so program output stays
             byte-identical. *)
          let cfg = Machine.Fleet.apply faulted fleet in
          let { Machine.Fleet.f_devices = devices; f_streams = streams; _ } =
            fleet
          in
          let mobs = Obs.create () in
          match
            Runtime.Migrate.schedule ~obs:mobs cfg o.Minic.Interp.events
          with
          | exception Fault.Device_dead { dev; at; failures } ->
              Printf.eprintf
                "fault: device %d declared dead at %.6f s after %d failed \
                 attempts; every device is dead and the policy has no CPU \
                 fallback\n"
                dev at failures;
              exit exit_device_dead
          | m ->
              List.iter
                (fun (d, at) ->
                  Printf.eprintf "// device %d declared dead at %.6f s\n" d at)
                m.Runtime.Migrate.m_dead;
              if m.Runtime.Migrate.m_fellback then
                Printf.eprintf
                  "// every device dead: remaining blocks ran on the host \
                   CPU\n";
              Printf.eprintf
                "// migrated schedule: %d block%s on %d device%s x %d \
                 stream%s, makespan %.6f s\n"
                (List.length m.Runtime.Migrate.m_placements)
                (if List.length m.Runtime.Migrate.m_placements = 1 then ""
                 else "s")
                devices
                (if devices = 1 then "" else "s")
                streams
                (if streams = 1 then "" else "s")
                m.Runtime.Migrate.m_result.Machine.Engine.makespan;
              Printf.eprintf
                "// fault.migrated_blocks=%d fault.dead_devices=%d \
                 fault.resident_repaid=%d\n"
                (Obs.count mobs "fault.migrated_blocks")
                (Obs.count mobs "fault.dead_devices")
                (Obs.count mobs "fault.resident_repaid");
              if replay then begin
                let r = m.Runtime.Migrate.m_result in
                prerr_string (Machine.Trace.gantt ~width:64 r);
                Format.eprintf "%a" Machine.Trace.pp_summary r
              end
        end
        else if replay then begin
          let r =
            Runtime.Replay.schedule Machine.Config.paper_default
              o.Minic.Interp.events
          in
          Printf.eprintf "// replayed schedule (1 cell = %.0f KB):\n"
            (Runtime.Replay.default_params.Runtime.Replay.bytes_per_cell
           /. 1024.);
          prerr_string (Machine.Trace.gantt ~width:64 r);
          Format.eprintf "%a" Machine.Trace.pp_summary r
        end
    | Error e -> die_runtime e
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a MiniC program (dual-space reference)")
    Term.(
      const run $ file_arg
      $ fuel_arg ~doc:"Statement budget"
      $ optimize_first $ midend_passes_arg $ midend_report_flag $ replay
      $ eval_arg $ residency $ faults_arg
      $ grid_term ~cmd:"run" machine_arg
      $ auto)

(* --- simulate --- *)

let bench_arg =
  Arg.(
    required
    & pos 0 (some (Arg.enum (List.map (fun n -> (n, n)) Workloads.Registry.names))) None
    & info [] ~docv:"BENCHMARK")

let simulate_cmd =
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print a text Gantt chart")
  in
  let run name gantt =
    let w = Workloads.Registry.find_exn name in
    let variants =
      [
        ("cpu", Comp.Cpu_parallel);
        ("mic-naive", Comp.Mic_naive);
        ("mic-optimized", Comp.Mic_optimized);
      ]
    in
    List.iter
      (fun (label, v) ->
        let t = Comp.simulate w v in
        Printf.printf "%-14s %10.4f s\n" label t;
        if gantt && v <> Comp.Cpu_parallel then begin
          let s = Comp.schedule w v in
          print_string (Machine.Trace.gantt s);
          Format.printf "%a" Machine.Trace.pp_summary s
        end)
      variants
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Time a benchmark's variants on the simulated host + MIC")
    Term.(const run $ bench_arg $ gantt)

(* --- report --- *)

let report_cmd =
  let exp =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:"One of fig1 fig4 table2 fig10 fig11 fig12 fig13 fig14 fig15 \
                table3; omit for all")
  in
  let run exp =
    match exp with
    | None -> Experiments.All.print_all ()
    | Some name -> (
        match List.assoc_opt name Experiments.All.by_name with
        | Some f -> f ()
        | None ->
            die_usage
              (Printf.sprintf "unknown experiment %s (known: %s)" name
                 (String.concat " " Experiments.All.names)))
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ exp)

(* --- analyze --- *)

let analyze_cmd =
  let bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"NAME"
          ~doc:"Analyze a bundled benchmark model instead of a file")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run bench file =
    let prog =
      match (bench, file) with
      | Some name, _ -> (
          (* find, not find_exn: an unknown name must be a usage error,
             not an escaping Not_found *)
          match Workloads.Registry.find name with
          | Some w -> Workloads.Workload.program w
          | None ->
              die_usage
                (Printf.sprintf "unknown benchmark %s (known: %s)" name
                   (String.concat " " Workloads.Registry.names)))
      | None, Some f -> or_die (load f)
      | None, None -> die_usage "analyze: need FILE or --bench NAME"
    in
    print_string (Comp.explain prog)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Explain, per region, which optimizations apply and why")
    Term.(const run $ bench $ file)

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Workload.t) ->
        let a = Comp.analyze w in
        let opts =
          List.filter_map Fun.id
            [
              (if a.Comp.streaming then Some "streaming" else None);
              (if a.Comp.merging then Some "merging" else None);
              (if a.Comp.regularization <> [] then Some "regularization"
               else None);
              (if a.Comp.shared_memory then Some "shared-memory" else None);
            ]
        in
        Printf.printf "%-14s %-8s %-28s [%s]\n" w.name w.suite w.input_desc
          (String.concat ", " opts))
      Workloads.Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List benchmark models and applicable optimizations")
    Term.(const run $ const ())

(* --- check --- *)

let check_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let transform =
    let tconv =
      Arg.enum
        (("all", None)
        :: List.map
             (fun t -> (Check.transform_name t, Some t))
             Check.all_transforms)
    in
    Arg.(
      value & opt tconv None
      & info [ "transform" ] ~docv:"T"
          ~doc:
            "Transform(s) to validate: all, streaming, regularize, merge, \
             soa, or shared")
  in
  let runs =
    Arg.(
      value & opt int 0
      & info [ "runs" ] ~docv:"N"
          ~doc:
            "Also check $(docv) generated program instances per pattern \
             family (deterministic from --seed)")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed")
  in
  let nblocks =
    Arg.(value & opt int 4 & info [ "nblocks" ] ~doc:"Streaming block count")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-bug" ]
          ~doc:
            "Deliberately corrupt every rewrite (off-by-one in the first \
             offload assignment); the harness must catch it — exit 1 means \
             caught, exit 2 means it slipped through")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"DIR"
          ~doc:
            "Append minimized diverging programs to $(docv) (e.g. \
             test/corpus/regressions) for deterministic replay")
  in
  let o =
    midend_flag
      ~doc:
        "Also validate the classic optimizer mid-end on every checked \
         program: the optimized program must behave identically to the \
         original under the same differential oracle.  Silent on success, \
         so the report is byte-identical with and without $(b,-O)"
  in
  let residency =
    residency_flag
      ~doc:
        "Additionally hold the residency rewrite to its stats contract \
         against the non-resident oracle: same outputs, same d2h cells \
         and offload count, transfer events at most oracle + hoists, \
         h2d no worse without hoists"
  in
  let run file transform runs seed nblocks fuel inject record faults jobs
      engine o mpasses residency fleet =
    check_nblocks ~cmd:"check" nblocks;
    let txfs =
      match transform with None -> Check.all_transforms | Some t -> [ t ]
    in
    let failures = ref 0 in
    let applicable_total = ref 0 in
    let dumped : (Check.transform, unit) Hashtbl.t = Hashtbl.create 8 in
    let opt_passes = midend ~o ~passes:mpasses ~report:false in
    (* The mid-end oracle: the optimizer may not change behaviour, so
       only [Equal] (and identical pre-existing failure) is acceptable —
       in particular an optimized program must not "fix" a program that
       trapped.  Verdict computation is pure and runs inside the
       parallel tasks; printing replays on the calling domain. *)
    let opt_verdict prog =
      Option.map
        (fun mid -> Check.equiv ~engine ~fuel prog (Opt.run ~passes:mid prog))
        opt_passes
    in
    let opt_ok = function
      | Check.Equal | Check.Both_failed _ -> true
      | _ -> false
    in
    let handle_opt ~what v =
      match v with
      | Some v when not (opt_ok v) ->
          incr failures;
          Printf.printf "  %-11s FAILED on %s: %s\n" "optimizer" what
            (Check.verdict_str v)
      | _ -> ()
    in
    (* The residency stats contract (only with --residency): printed
       after the transform listing, silent when nothing was elided. *)
    let handle_residency ~what (r : Check.residency_report option) =
      match r with
      | None -> ()
      | Some r when r.Check.rr_sites = 0 -> ()
      | Some r ->
          if Check.residency_ok r then
            Printf.printf
              "  %-11s contract ok: h2d %d->%d cells, d2h %d cells, %d \
               hoist%s\n"
              "residency" r.Check.rr_orig_h2d r.Check.rr_res_h2d
              r.Check.rr_res_d2h r.Check.rr_hoists
              (if r.Check.rr_hoists = 1 then "" else "s")
          else begin
            incr failures;
            Printf.printf "  %-11s contract FAILED on %s: %s\n" "residency"
              what
              (match r.Check.rr_contract with
              | Some m -> m
              | None -> Check.verdict_str r.Check.rr_verdict)
          end
    in
    let residency_report prog =
      if residency then Some (Check.check_residency ~engine ~fuel prog)
      else None
    in
    (* The migration oracle (only with --devices/--streams): the
       multi-device recovered run must compute the same thing as the
       clean single-device one, conserve blocks, and finish. *)
    let migrate = fleet <> Machine.Fleet.default in
    let migrated_report prog =
      if migrate then
        Some
          (Check.check_migrated ~engine ~fuel
             ~devices:fleet.Machine.Fleet.f_devices
             ~streams:fleet.Machine.Fleet.f_streams ~spec:faults prog)
      else None
    in
    let migrate_failed ~what r =
      incr failures;
      Printf.printf "  %-11s FAILED on %s: %s\n" "migrate" what
        (if r.Check.mg_died then
           "every device died and the policy has no CPU fallback"
         else
           match r.Check.mg_conservation with
           | Some m -> m
           | None -> Check.verdict_str r.Check.mg_verdict)
    in
    (* One failed transform verdict: the FAILED line, then, on the first
       divergence per transform, the minimized counterexample, printed
       and (with --record) recorded.  [on] ends the FAILED line's
       label, and [source] names the program in the recorded note. *)
    let transform_failed ~what ~on ~source ~prog txf verdict =
      incr failures;
      let name = Check.transform_name txf in
      Printf.printf "  %-11s FAILED%s: %s\n" name on
        (Check.verdict_str verdict);
      match verdict with
      | Check.Diverged _ when not (Hashtbl.mem dumped txf) ->
          Hashtbl.add dumped txf ();
          let minimized =
            Check.minimize_diverging ~engine ~fuel ~nblocks ~inject txf prog
          in
          Printf.printf "minimized counterexample (%s, %s):\n%s" name what
            (Minic.Pretty.program_to_string minimized);
          Option.iter
            (fun dir ->
              let note =
                Printf.sprintf "minimized counterexample: transform=%s %s%s"
                  name source
                  (if inject then " (injected bug)" else "")
              in
              match Check.Corpus.record ~dir ~note minimized with
              | path -> Printf.printf "recorded: %s\n" path
              | exception Sys_error e ->
                  die_usage
                    (Printf.sprintf "check: cannot record to %s: %s" dir e))
            record
      | _ -> ()
    in
    (match file with
    | Some f ->
        let prog = or_die (load f) in
        Printf.printf "%s:\n" f;
        handle_opt ~what:f (opt_verdict prog);
        if Fault.is_none faults then
          List.iter
            (fun (r : Check.report) ->
              let name = Check.transform_name r.transform in
              if r.sites = 0 then Printf.printf "  %-11s not applicable\n" name
              else begin
                incr applicable_total;
                if Check.verdict_ok r.transform r.verdict then
                  Printf.printf "  %-11s %s (%d site%s)\n" name
                    (match r.verdict with
                    | Check.Orig_failed _ ->
                        "enabled (original fails without it)"
                    | Check.Both_failed _ -> "both fail (pre-existing)"
                    | _ -> "equivalent")
                    r.sites
                    (if r.sites = 1 then "" else "s")
                else
                  transform_failed ~what:f ~on:"" ~source:("source=" ^ f)
                    ~prog r.transform r.verdict
              end)
            (Check.check_program ~engine ~fuel ~nblocks ~inject
               ~transforms:txfs prog)
        else begin
          (* differential oracle under an injected fault plan: the
             rewrite must stay equivalent AND the faulted replay must
             recover (retries / timeouts / CPU fallback) *)
          Printf.printf "  fault plan: %s\n" (Fault.to_string faults);
          List.iter
            (fun (r : Check.faulted_report) ->
              let name = Check.transform_name r.Check.f_transform in
              if r.Check.f_sites = 0 then
                Printf.printf "  %-11s not applicable\n" name
              else begin
                incr applicable_total;
                if Check.faulted_ok r then
                  Printf.printf
                    "  %-11s equivalent; recovered%s (clean %.6f s -> \
                     faulted %.6f s)\n"
                    name
                    (if r.Check.f_fellback then " on the CPU" else "")
                    r.Check.f_clean_s r.Check.f_faulted_s
                else begin
                  incr failures;
                  Printf.printf "  %-11s FAILED under faults: %s\n" name
                    (if r.Check.f_died then
                       "device died and the policy has no CPU fallback"
                     else Check.verdict_str r.Check.f_verdict)
                end
              end)
            (Check.check_faulted ~engine ~fuel ~nblocks ~transforms:txfs
               ~spec:faults prog)
        end;
        handle_residency ~what:f (residency_report prog);
        Option.iter
          (fun r ->
            if Check.migrated_ok r then
              Printf.printf
                "  %-11s conserved: %d block%s, %d migrated, %d dead (clean \
                 %.6f s -> recovered %.6f s%s)\n"
                "migrate" r.Check.mg_blocks
                (if r.Check.mg_blocks = 1 then "" else "s")
                r.Check.mg_migrated
                (List.length r.Check.mg_dead)
                r.Check.mg_clean_s r.Check.mg_faulted_s
                (if r.Check.mg_fellback then ", host fallback" else "")
            else migrate_failed ~what:f r)
          (migrated_report prog)
    | None -> ());
    if runs > 0 then begin
      (* Generation and every oracle run inside the sweep's pool tasks;
         printing, the counters, minimization and recording replay here,
         on the calling domain, in submission order, so the report is
         byte-identical at any --jobs width. *)
      let swept =
        try
          Check.sweep ?jobs ~engine ~fuel ~nblocks ~inject ~transforms:txfs
            ~runs ~seed
            ~extra:(fun prog ->
              (opt_verdict prog, residency_report prog, migrated_report prog))
            ()
        with Failure msg ->
          prerr_endline msg;
          exit 1
      in
      (* per-transform (checked, applicable, failures) counters, and
         the migration oracle's totals *)
      let stats = Hashtbl.create 8 in
      let bump txf dc da dd =
        let c, a, d =
          Option.value (Hashtbl.find_opt stats txf) ~default:(0, 0, 0)
        in
        Hashtbl.replace stats txf (c + dc, a + da, d + dd)
      in
      let mig_checked = ref 0
      and mig_migrated = ref 0
      and mig_deaths = ref 0
      and mig_failures = ref 0 in
      List.iter
        (fun (s : _ Check.swept) ->
          let what = s.Check.sw_what in
          let opt_v, res_v, mig_v = s.Check.sw_extra in
          handle_opt ~what opt_v;
          handle_residency ~what res_v;
          Option.iter
            (fun r ->
              incr mig_checked;
              mig_migrated := !mig_migrated + r.Check.mg_migrated;
              mig_deaths := !mig_deaths + List.length r.Check.mg_dead;
              if not (Check.migrated_ok r) then begin
                incr mig_failures;
                migrate_failed ~what r
              end)
            mig_v;
          List.iter
            (fun (r : Check.report) ->
              (match
                 Check.expected_applicable s.Check.sw_pattern r.transform
               with
              | Some b when b <> (r.sites > 0) ->
                  incr failures;
                  bump r.transform 1 0 1;
                  Printf.printf "  %-11s FAILED: expected %sapplicable on %s\n"
                    (Check.transform_name r.transform)
                    (if b then "" else "NOT ")
                    what
              | _ -> bump r.transform 1 0 0);
              if r.sites > 0 then begin
                incr applicable_total;
                bump r.transform 0 1 0;
                if not (Check.verdict_ok r.transform r.verdict) then begin
                  bump r.transform 0 0 1;
                  transform_failed ~what ~on:(" on " ^ what) ~source:what
                    ~prog:s.Check.sw_prog r.transform r.verdict
                end
              end)
            s.Check.sw_reports)
        swept;
      List.iter
        (fun txf ->
          match Hashtbl.find_opt stats txf with
          | Some (checked, applicable, failed) ->
              Printf.printf
                "%-11s checked %d instances, %d applicable, %d failures\n"
                (Check.transform_name txf)
                checked applicable failed
          | None -> ())
        txfs;
      if migrate then
        Printf.printf
          "%-11s checked %d instances, %d blocks migrated, %d device \
           deaths, %d failures\n"
          "migrate" !mig_checked !mig_migrated !mig_deaths !mig_failures
    end;
    if file = None && runs = 0 then
      die_usage "check: need FILE and/or --runs N";
    if inject then
      if !failures > 0 then begin
        Printf.printf "injected bug caught (%d finding%s)\n" !failures
          (if !failures = 1 then "" else "s");
        exit 1
      end
      else if !applicable_total > 0 then begin
        prerr_endline "injected bug was NOT caught by the oracle";
        exit 2
      end
      else begin
        prerr_endline "inject-bug: no transform was applicable";
        exit 2
      end
    else if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differentially validate the COMP transforms: run original and \
          transformed programs on the reference interpreter and compare \
          output, return value, and final global state")
    Term.(
      const run $ file $ transform $ runs $ seed $ nblocks
      $ fuel_arg ~doc:"Interpreter statement budget per run"
      $ inject $ record $ faults_arg
      $ jobs_arg ~pool_for:"the --runs sweep"
          ~invariant:"Output and exit code are identical"
      $ eval_arg $ o $ midend_passes_arg $ residency
      $ grid_term ~cmd:"check" (Term.const None))

(* --- tune --- *)

let tune_cmd =
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Tune every workload in the registry")
  in
  let mode =
    Arg.(
      value & opt string "auto"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Search mode: $(b,auto) (exhaustive for small grids, hill \
             climbing beyond), $(b,exhaustive), or $(b,hill)")
  in
  let run names all fleet mode jobs =
    let mode =
      match mode with
      | "auto" -> Tune.Auto
      | "exhaustive" -> Tune.Exhaustive
      | "hill" -> Tune.Hill
      | m ->
          die_usage
            (Printf.sprintf "unknown mode %s (known: auto exhaustive hill)" m)
    in
    let names = if all then Workloads.Registry.names else names in
    if names = [] then
      die_usage
        (Printf.sprintf
           "tune: name at least one workload or pass --all (known: %s)"
           (String.concat " " Workloads.Registry.names));
    let wls =
      List.map
        (fun n ->
          match Workloads.Registry.find n with
          | Some w -> w
          | None ->
              die_usage
                (Printf.sprintf "unknown workload %s (known: %s)" n
                   (String.concat " " Workloads.Registry.names)))
        names
    in
    let obs = Obs.create () in
    let cache = Tune.Cache.create ~obs () in
    let bcache = Transforms.Block_size.Cache.create ~obs () in
    let base =
      Machine.Config.with_scales Machine.Config.paper_default
        fleet.Machine.Fleet.f_scales
    in
    Printf.printf "auto-tune: devices<=%d streams<=%d%s\n"
      fleet.Machine.Fleet.f_devices fleet.Machine.Fleet.f_streams
      (match Machine.Fleet.scale_clauses fleet with
      | [] -> ""
      | cs -> " " ^ String.concat "," cs);
    Printf.printf "  %-14s %-33s %12s %12s %8s %9s %7s\n" "workload"
      "best config" "makespan" "default" "speedup" "explored" "pruned";
    List.iter
      (fun (w : Workloads.Workload.t) ->
        let pre =
          Tune.prepare ~base ~obs ~block_cache:bcache
            ~max_devices:fleet.Machine.Fleet.f_devices
            ~max_streams:fleet.Machine.Fleet.f_streams w
        in
        let rep = Tune.run ?jobs ~obs ~cache ~mode pre in
        Printf.printf "  %-14s %-33s %12.6f %12.6f %7.2fx %9d %7d\n"
          w.Workloads.Workload.name
          (Tune.config_to_string rep.Tune.r_best.Tune.pt_config)
          rep.Tune.r_best.Tune.pt_makespan rep.Tune.r_default.Tune.pt_makespan
          (Tune.speedup rep) rep.Tune.r_explored rep.Tune.r_pruned)
      wls;
    Printf.printf
      "tune.explored=%d tune.pruned=%d tune.cache.hits=%d \
       tune.cache.misses=%d tune.block_cache.hits=%d \
       tune.block_cache.misses=%d\n"
      (Obs.count obs "tune.explored")
      (Obs.count obs "tune.pruned")
      (Obs.count obs "tune.cache.hits")
      (Obs.count obs "tune.cache.misses")
      (Obs.count obs "tune.block_cache.hits")
      (Obs.count obs "tune.block_cache.misses")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the (devices, streams, nblocks) space for each workload's \
          makespan-optimal offload configuration, over an optionally \
          heterogeneous device fleet")
    Term.(
      const run $ names_arg $ all
      $ fleet_term ~cmd:"tune" ~default:2
          ~devices_doc:
            "Largest device count to search (default 2); mutually exclusive \
             with $(b,--machine)"
          ~streams_doc:
            "Largest per-device stream count to search (default 2); mutually \
             exclusive with $(b,--machine)"
          machine_arg
      $ mode
      $ jobs_arg ~pool_for:"candidate evaluation"
          ~invariant:"The report is byte-identical")

(* --- serve --- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix-domain socket at $(docv) instead of stdin; \
             one connection at a time, state (compile cache, stats) kept \
             across connections")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:
            "Client mode: send stdin's request lines to the server at \
             $(docv) and print its response lines (retries while the \
             server starts up). Requests are sent whenever stdin pauses \
             and responses printed whenever the server pauses, so an \
             interactive session is answered line by line")
  in
  let batch =
    Arg.(
      value & opt int Serve.default_config.Serve.batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Dispatch queued requests to the pool in batches of at most \
             $(docv): at $(docv) requests, at a stats or shutdown \
             request, at end of input, and whenever input pauses. A \
             regular file never pauses, so its batches are fixed; \
             $(b,--jobs) never decides a cut")
  in
  let max_fuel =
    Arg.(
      value & opt int Serve.default_config.Serve.max_fuel
      & info [ "max-fuel" ] ~docv:"N"
          ~doc:
            "Per-request interpreter statement budget ceiling (at least 1)")
  in
  let max_time =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-time" ] ~docv:"SECONDS"
          ~doc:
            "Per-request wall budget, converted to fuel at 2,000,000 \
             statements per second; positive and finite. A budget worth \
             more than $(b,--max-fuel) leaves $(b,--max-fuel)")
  in
  let run socket connect jobs batch max_fuel max_time =
    if batch < 1 then
      die_usage
        (Printf.sprintf "serve: --batch must be at least 1 (got %d)" batch);
    if max_fuel < 1 then
      die_usage
        (Printf.sprintf "serve: --max-fuel must be at least 1 (got %d)"
           max_fuel);
    Option.iter
      (fun s ->
        if not (Float.is_finite s && s > 0.) then
          die_usage
            (Printf.sprintf
               "serve: --max-time must be a positive, finite number of \
                seconds (got %g)"
               s))
      max_time;
    match connect with
    | Some path ->
        if socket <> None then
          die_usage "serve: --socket and --connect are mutually exclusive";
        Result.iter_error
          (fun msg ->
            prerr_endline ("serve: " ^ msg);
            exit 1)
          (Serve.client ~path stdin stdout)
    | None -> (
        let config =
          {
            Serve.jobs;
            batch;
            max_fuel;
            max_time;
            timings = false;
          }
        in
        let t = Serve.create ~config () in
        match socket with
        | Some path -> Serve.serve_socket t ~path
        | None -> Serve.serve_stdin t)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run compc as a long-lived JSONL request daemon: one JSON \
          request per line (optimize/run/check/simulate/stats/shutdown), \
          one JSON response per line, with per-request budgets and a \
          request-shared compile cache")
    Term.(
      const run $ socket $ connect
      $ jobs_arg ~pool_for:"request execution"
          ~invariant:
            "For a given sequence of batch cuts (see $(b,--batch)), the \
             response stream is byte-identical"
      $ batch $ max_fuel $ max_time)

(* --- --profile (top-level) --- *)

let profile_run ~faults ~engine file out =
  let prog = or_die (load file) in
  let obs = Obs.create () in
  match Minic.Compile_eval.run ~engine prog with
  | Error e -> die_runtime e
  | Ok o ->
      let cfg = Machine.Config.with_faults Machine.Config.paper_default faults in
      let r =
        match
          Runtime.Replay.schedule_recovered ~obs cfg o.Minic.Interp.events
        with
        | rec_ ->
            (match rec_.Machine.Engine.died_at with
            | Some at ->
                Printf.printf
                  "// device declared dead at %.6f s; recovered on the CPU\n"
                  at
            | None -> ());
            rec_.Machine.Engine.result
        | exception Fault.Device_dead { dev = _; at; failures } ->
            Printf.eprintf
              "fault: device declared dead at %.6f s after %d failed \
               attempts (no CPU fallback in policy)\n"
              at failures;
            exit exit_device_dead
      in
      Format.printf "%a" (Machine.Trace.pp_profile ~obs) r;
      Option.iter
        (fun path ->
          match open_out path with
          | exception Sys_error e ->
              die_usage ("cannot write profile: " ^ e)
          | oc ->
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  output_string oc
                    (Obs.Json.to_string (Machine.Trace.profile_json ~obs r));
                  output_char oc '\n'))
        out

let default_term =
  let profile =
    Arg.(
      value
      & opt (some file) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Interpret a MiniC file, replay its offload trace on the machine \
             model, and print the observability profile: per-phase breakdown \
             (h2d/d2h/kernel/...), resource utilization, and runtime \
             counters")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"STATS.json"
          ~doc:"With $(b,--profile), also write the profile as JSON to $(docv)")
  in
  let run profile out faults engine =
    match profile with
    | Some file -> `Ok (profile_run ~faults ~engine file out)
    | None -> `Help (`Pager, None)
  in
  Term.(ret (const run $ profile $ out $ faults_arg $ eval_arg))

let () =
  let doc = "COMP: compiler optimizations for manycore processors" in
  exit
    (Cmd.eval
       (Cmd.group ~default:default_term (Cmd.info "compc" ~doc)
          [
            parse_cmd; optimize_cmd; run_cmd; simulate_cmd; report_cmd;
            analyze_cmd; list_cmd; check_cmd; tune_cmd; serve_cmd;
          ]))
