(* The auto-tuner: fleet-spec grammar, search determinism and
   optimality invariants, heterogeneous placement, the memoized
   block-size chooser, and parity of the tuner's two fast paths
   (makespan-only replay, lower-once preparation) with the work they
   replaced. *)

open Helpers
module Config = Machine.Config
module Fleet = Machine.Fleet
module Block_size = Transforms.Block_size

let fleet_ok spec =
  match Fleet.parse spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "%S: %s" spec (Fleet.error_message e)

let fleet_err spec ~sub =
  match Fleet.parse spec with
  | Ok f -> Alcotest.failf "%S: expected error, got %S" spec (Fleet.to_string f)
  | Error e ->
      let msg = Fleet.error_message e in
      if not (contains ~sub msg) then
        Alcotest.failf "%S: error %S lacks %S" spec msg sub

(* ------------------------------------------------------------------ *)
(* Fleet spec grammar                                                 *)
(* ------------------------------------------------------------------ *)

let test_fleet_parse () =
  let f = fleet_ok "devices=2,streams=4,dev1:cores=0.5,bw=0.75" in
  Alcotest.(check int) "devices" 2 f.Fleet.f_devices;
  Alcotest.(check int) "streams" 4 f.Fleet.f_streams;
  (match f.Fleet.f_scales with
  | [ (1, s) ] ->
      Alcotest.(check (float 0.)) "cores" 0.5 s.Config.sc_cores;
      (* the bare bw= clause sticks to the preceding dev1: prefix *)
      Alcotest.(check (float 0.)) "bw" 0.75 s.Config.sc_bw
  | _ -> Alcotest.fail "expected exactly one scale, for device 1");
  let g = fleet_ok "" in
  Alcotest.(check int) "empty spec devices" 1 g.Fleet.f_devices;
  Alcotest.(check int) "empty spec streams" 1 g.Fleet.f_streams;
  (* devN: out of order with devices= still applies *)
  let h = fleet_ok "dev0:bw=0.25,devices=3" in
  Alcotest.(check int) "devices after scale" 3 h.Fleet.f_devices;
  Alcotest.(check (float 0.))
    "bw scale" 0.25
    (List.assoc 0 h.Fleet.f_scales).Config.sc_bw

let test_fleet_roundtrip () =
  List.iter
    (fun spec ->
      let f = fleet_ok spec in
      let f' = fleet_ok (Fleet.to_string f) in
      if f <> f' then
        Alcotest.failf "%S: round-trip %S parsed differently" spec
          (Fleet.to_string f))
    [
      "devices=2,streams=4,dev1:cores=0.5,bw=0.75";
      "devices=1,streams=1";
      "devices=4,streams=2,dev0:cores=0.5,dev2:bw=0.1,dev3:cores=2,bw=3";
      "";
    ]

let test_fleet_errors () =
  fleet_err "devices=0" ~sub:"positive integer";
  fleet_err "devices=two" ~sub:"positive integer";
  fleet_err "streams=-1" ~sub:"positive integer";
  fleet_err "devices=2,dev5:cores=0.5" ~sub:"out of range";
  fleet_err "dev0:cores=-1" ~sub:"finite and positive";
  fleet_err "dev0:cores=nan" ~sub:"finite and positive";
  fleet_err "cores=0.5" ~sub:"devN: prefix";
  fleet_err "dev0:volts=3" ~sub:"cores=F or bw=F";
  fleet_err "devices=2,,streams=2" ~sub:"empty clause";
  fleet_err "frobnicate=1" ~sub:"unknown clause"

let test_fleet_apply () =
  let f = fleet_ok "devices=3,streams=2,dev1:cores=0.5" in
  let cfg = Fleet.apply Config.paper_default f in
  Alcotest.(check int) "devices" 3 cfg.Config.devices;
  Alcotest.(check int) "streams" 2 cfg.Config.streams;
  Alcotest.(check bool) "heterogeneous" false (Config.homogeneous cfg);
  Alcotest.(check (float 0.))
    "scaled device" 0.5
    (Config.scale_for cfg 1).Config.sc_cores;
  Alcotest.(check (float 0.))
    "unscaled device defaults to unit" 1.0
    (Config.scale_for cfg 0).Config.sc_cores

(* ------------------------------------------------------------------ *)
(* Search engine                                                      *)
(* ------------------------------------------------------------------ *)

let check_report name (a : Tune.report) (b : Tune.report) =
  Alcotest.(check string)
    (name ^ ": best config")
    (Tune.config_to_string a.Tune.r_best.Tune.pt_config)
    (Tune.config_to_string b.Tune.r_best.Tune.pt_config);
  Alcotest.(check (float 0.))
    (name ^ ": best makespan")
    a.Tune.r_best.Tune.pt_makespan b.Tune.r_best.Tune.pt_makespan;
  Alcotest.(check int) (name ^ ": explored") a.Tune.r_explored b.Tune.r_explored;
  Alcotest.(check int) (name ^ ": pruned") a.Tune.r_pruned b.Tune.r_pruned;
  Alcotest.(check int)
    (name ^ ": point count")
    (List.length a.Tune.r_points)
    (List.length b.Tune.r_points);
  List.iter2
    (fun (p : Tune.point) (q : Tune.point) ->
      Alcotest.(check string)
        (name ^ ": point config")
        (Tune.config_to_string p.Tune.pt_config)
        (Tune.config_to_string q.Tune.pt_config);
      Alcotest.(check (float 0.))
        (name ^ ": point makespan")
        p.Tune.pt_makespan q.Tune.pt_makespan)
    a.Tune.r_points b.Tune.r_points

let prepared ?base ?(max_devices = 2) ?(max_streams = 2) name =
  let w = Workloads.Registry.find_exn name in
  Tune.prepare ?base ~max_devices ~max_streams w

let test_jobs_determinism () =
  let pre = prepared "blackscholes" in
  let r1 = Tune.run ~jobs:1 pre in
  let r2 = Tune.run ~jobs:2 pre in
  check_report "jobs 1 vs 2" r1 r2

let test_tiebreak_lexicographic () =
  (* constant eval: every point ties, so the winner must be the
     lexicographically smallest config — never an artifact of
     submission or completion order *)
  let sp = Tune.space ~nblocks:[ 4; 2 ] ~max_devices:3 ~max_streams:2 () in
  let r =
    Tune.search ~jobs:2 sp
      ~eval:(fun _ -> 1.0)
      ~keyfn:(fun c -> Tune.config_to_string c)
  in
  Alcotest.(check string)
    "lex-smallest wins the tie" "devices=1,streams=1,nblocks=2"
    (Tune.config_to_string r.Tune.r_best.Tune.pt_config)

let test_shared_key_dedup () =
  (* all configs alias one simulation key: a single evaluation, the
     rest answered from the memo *)
  let sp = Tune.space ~nblocks:[ 10 ] ~max_devices:2 ~max_streams:2 () in
  let evals = ref 0 in
  let r =
    Tune.search sp
      ~eval:(fun _ ->
        incr evals;
        2.0)
      ~keyfn:(fun _ -> "same")
  in
  Alcotest.(check int) "one simulator call" 1 !evals;
  Alcotest.(check int) "explored counts evaluations" 1 r.Tune.r_explored;
  Alcotest.(check bool) "the rest are pruned" true (r.Tune.r_pruned > 0)

let test_default_always_evaluated () =
  let pre = prepared "kmeans" in
  let r = Tune.run pre in
  Alcotest.(check bool)
    "best no worse than default" true
    (r.Tune.r_best.Tune.pt_makespan <= r.Tune.r_default.Tune.pt_makespan);
  Alcotest.(check bool) "speedup >= 1" true (Tune.speedup r >= 1.0)

let test_more_devices_no_worse () =
  (* widening the fleet can only grow the search space, and the best
     point of a superset space is never worse *)
  let best name ~max_devices =
    let pre = prepared name ~max_devices ~max_streams:2 in
    (Tune.run pre).Tune.r_best.Tune.pt_makespan
  in
  List.iter
    (fun name ->
      let b1 = best name ~max_devices:1 in
      let b2 = best name ~max_devices:2 in
      if b2 > b1 then
        Alcotest.failf "%s: 2-device best %.9f worse than 1-device %.9f" name
          b2 b1)
    [ "blackscholes"; "kmeans" ]

let test_hetero_avoids_slow_device () =
  (* device 1 is 20x slower in both compute and transfer: the tuned
     placement must not spread onto it *)
  let base =
    Config.with_scales Config.paper_default
      [ (1, { Config.sc_cores = 0.05; sc_bw = 0.05 }) ]
  in
  let pre = prepared "blackscholes" ~base ~max_devices:2 ~max_streams:2 in
  let r = Tune.run pre in
  Alcotest.(check int)
    "tuner stays off the slow device" 1 r.Tune.r_best.Tune.pt_config.Tune.devices

(* ------------------------------------------------------------------ *)
(* Heterogeneous replay                                               *)
(* ------------------------------------------------------------------ *)

(* the program's event trace; fails the test on a runtime error *)
let events_of name prog =
  match Minic.Compile_eval.run_compiled prog with
  | Ok r -> r.Minic.Interp.events
  | Error e -> Alcotest.failf "%s: %s" name e

let trace_of name =
  let w = Workloads.Registry.find_exn name in
  events_of name (fst (Comp.optimize (Workloads.Workload.program w)))

let test_unit_scales_bitwise_neutral () =
  (* explicit all-1.0 scales must replay bit-identically to no scales
     at all: the homogeneous fast path is exact, not approximate *)
  let events = trace_of "blackscholes" in
  let cfg = Config.with_devices Config.paper_default ~devices:2 ~streams:2 in
  let scaled =
    Config.with_scales cfg
      [ (0, Config.unit_scale); (1, Config.unit_scale) ]
  in
  Alcotest.(check (float 0.))
    "identical makespan" (Runtime.Migrate.makespan cfg events)
    (Runtime.Migrate.makespan scaled events)

let test_slow_scales_hurt () =
  let events = trace_of "blackscholes" in
  let cfg = Config.with_devices Config.paper_default ~devices:1 ~streams:1 in
  let slow scales = Config.with_scales cfg scales in
  let base = Runtime.Migrate.makespan cfg events in
  let slow_cores =
    Runtime.Migrate.makespan
      (slow [ (0, { Config.sc_cores = 0.25; sc_bw = 1.0 }) ])
      events
  in
  let slow_bw =
    Runtime.Migrate.makespan
      (slow [ (0, { Config.sc_cores = 1.0; sc_bw = 0.25 }) ])
      events
  in
  Alcotest.(check bool) "slower cores slow the replay" true (slow_cores > base);
  Alcotest.(check bool) "slower link slows the replay" true (slow_bw > base)

(* ------------------------------------------------------------------ *)
(* Memoized block-size chooser                                        *)
(* ------------------------------------------------------------------ *)

let test_block_cache_parity () =
  let params =
    [
      { Block_size.transfer_s = 0.2; compute_s = 0.1; launch_s = 0.001 };
      { Block_size.transfer_s = 0.01; compute_s = 0.5; launch_s = 0.0001 };
      { Block_size.transfer_s = 1.0; compute_s = 0.0; launch_s = 0.01 };
    ]
  in
  let cache = Block_size.Cache.create () in
  List.iteri
    (fun i p ->
      let key = Printf.sprintf "machine|shape%d" i in
      (* twice: the second answer comes from the table *)
      for _ = 1 to 2 do
        Alcotest.(check int)
          (key ^ ": memoized == unmemoized")
          (Block_size.choose p)
          (Block_size.Cache.choose cache ~key p)
      done;
      let cands = [ 10; 20; 40; 50 ] in
      Alcotest.(check int)
        (key ^ ": with candidates")
        (Block_size.choose ~candidates:cands p)
        (Block_size.Cache.choose cache ~key ~candidates:cands p))
    params;
  Alcotest.(check int)
    "distinct (key, candidates) pairs memoized" 6
    (Block_size.Cache.size cache)

let counter obs name = List.assoc_opt name (Obs.counters obs)

let test_block_cache_counters () =
  let obs = Obs.create () in
  let cache = Block_size.Cache.create ~obs () in
  let p = { Block_size.transfer_s = 0.2; compute_s = 0.1; launch_s = 0.001 } in
  ignore (Block_size.Cache.choose cache ~key:"k" p);
  ignore (Block_size.Cache.choose cache ~key:"k" p);
  ignore (Block_size.Cache.choose cache ~key:"k2" p);
  Alcotest.(check (option int))
    "hits" (Some 1)
    (counter obs "tune.block_cache.hits");
  Alcotest.(check (option int))
    "misses" (Some 2)
    (counter obs "tune.block_cache.misses")

let test_tune_cache_shared () =
  (* a shared cross-search cache turns the second identical search
     into pure hits: zero fresh simulator evaluations *)
  let obs = Obs.create () in
  let cache = Tune.Cache.create ~obs () in
  let pre = prepared "kmeans" in
  let r1 = Tune.run ~obs ~cache pre in
  let r2 = Tune.run ~obs ~cache pre in
  Alcotest.(check string)
    "cached rerun picks the same winner"
    (Tune.config_to_string r1.Tune.r_best.Tune.pt_config)
    (Tune.config_to_string r2.Tune.r_best.Tune.pt_config);
  Alcotest.(check (float 0.))
    "cached rerun reproduces the makespan" r1.Tune.r_best.Tune.pt_makespan
    r2.Tune.r_best.Tune.pt_makespan;
  Alcotest.(check int) "second search simulates nothing" 0 r2.Tune.r_explored;
  match counter obs "tune.cache.hits" with
  | Some h when h >= r1.Tune.r_explored -> ()
  | h ->
      Alcotest.failf "expected >= %d cache hits, got %s" r1.Tune.r_explored
        (match h with Some h -> string_of_int h | None -> "none")

(* ------------------------------------------------------------------ *)
(* Parity: Migrate.makespan against Migrate.schedule                  *)
(* ------------------------------------------------------------------ *)

(* the benchmark's two fleets *)
let bench_fleets =
  [
    "devices=4,streams=2";
    "devices=4,streams=2,dev1:cores=0.5,bw=0.5,dev3:cores=0.25,bw=0.25";
  ]

let fault_ok spec =
  match Fault.parse spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "%S: %s" spec (Fault.error_message e)

let obs_json o = Obs.Json.to_string (Obs.to_json o)

(* one entry point's verdict on a machine and trace: the makespan's
   bits, or the device death it raised, plus everything it recorded *)
let verdict f =
  let obs = Obs.create () in
  let v =
    match f ~obs with
    | m -> Ok (Int64.bits_of_float m)
    | exception Fault.Device_dead { dev; at; failures } ->
        Error (dev, Int64.bits_of_float at, failures)
  in
  (v, obs_json obs)

let test_makespan_parity () =
  let evals = ref 0 and deaths = ref 0 and repaid = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      (* a residency-lowered trace too: its nocopy inputs are what a
         placement on another device re-pays *)
      let resident =
        events_of name
          (fst (Comp.optimize ~residency:true (Workloads.Workload.program w)))
      in
      List.iter
        (fun fleet_spec ->
          let fleet = fleet_ok fleet_spec in
          let base =
            Config.with_scales Config.paper_default fleet.Fleet.f_scales
          in
          let pre =
            Tune.prepare ~base ~max_devices:fleet.Fleet.f_devices
              ~max_streams:fleet.Fleet.f_streams w
          in
          let traces =
            List.map
              (fun (nb, t) -> (Printf.sprintf "nb%d" nb, pre.Tune.p_traces.(t)))
              pre.Tune.p_trace_of_nblocks
            @ [ ("residency", resident) ]
          in
          List.iter
            (fun fault_spec ->
              let cfg = Config.with_faults base (fault_ok fault_spec) in
              List.iter
                (fun devices ->
                  List.iter
                    (fun streams ->
                      List.iter
                        (fun (trace, events) ->
                          let cfg = Config.with_devices cfg ~devices ~streams in
                          let s, s_obs =
                            verdict (fun ~obs ->
                                (Runtime.Migrate.schedule ~obs cfg events)
                                  .Runtime.Migrate.m_result
                                  .Machine.Engine.makespan)
                          in
                          let m, m_obs =
                            verdict (fun ~obs ->
                                Runtime.Migrate.makespan ~obs cfg events)
                          in
                          let where =
                            Printf.sprintf "%s on %s, faults %S, d%d s%d %s" name
                              fleet_spec fault_spec devices streams trace
                          in
                          if s <> m then
                            Alcotest.failf "%s: makespan differs from schedule"
                              where;
                          if s_obs <> m_obs then
                            Alcotest.failf "%s: obs differ:\n%s\n%s" where s_obs
                              m_obs;
                          incr evals;
                          if Result.is_error s then incr deaths;
                          if contains ~sub:"fault.resident_repaid" s_obs then
                            incr repaid)
                        traces)
                    pre.Tune.p_space.Tune.sp_streams)
                pre.Tune.p_space.Tune.sp_devices)
            [
              "";
              "seed=3,xfer=0.1";
              "dev0:kill@0,dead-after=1";
              "kill@0,dead-after=1";
              "kill@0,dead-after=1,no-fallback";
            ])
        bench_fleets)
    Workloads.Registry.all;
  (* 12 workloads x 2 fleets x 5 fault specs x 4x2 devices and streams
     x (11 block counts + the residency trace) *)
  Alcotest.(check int) "grid points" (12 * 2 * 5 * 8 * 12) !evals;
  (* no-fallback with every device killed: every point dies, in both *)
  Alcotest.(check int) "device deaths" (12 * 2 * 8 * 12) !deaths;
  Alcotest.(check bool) "some placements re-pay resident inputs" true
    (!repaid > 0)

(* ------------------------------------------------------------------ *)
(* Parity: Tune.prepare_program against optimize-and-print            *)
(* ------------------------------------------------------------------ *)

(* The preparation [Tune.prepare_program] replaced, kept as its
   reference: optimize and pretty-print at every candidate count,
   dedupe on the printed text, trace each distinct program once (the
   first runtime error, in candidate order, ends it), and seed the
   hill search from the default trace's most expensive block. *)
let reference_prepare ~base prog =
  let sp = Tune.space ~max_devices:1 ~max_streams:1 () in
  let texts = Hashtbl.create 16 in
  let traces = ref [] in
  let exception Failed of string in
  match
    List.map
      (fun nb ->
        let optimized, _ = Comp.optimize ~nblocks:nb prog in
        let text = Minic.Pretty.program_to_string optimized in
        match Hashtbl.find_opt texts text with
        | Some idx -> (nb, idx)
        | None -> (
            match Minic.Compile_eval.run_compiled optimized with
            | Error e -> raise (Failed e)
            | Ok o ->
                let idx = Hashtbl.length texts in
                Hashtbl.add texts text idx;
                traces := o.Minic.Interp.events :: !traces;
                (nb, idx)))
      sp.Tune.sp_nblocks
  with
  | exception Failed e -> Error e
  | map ->
      let traces = Array.of_list (List.rev !traces) in
      let params = Runtime.Replay.default_params in
      let bytes cells =
        float_of_int cells *. params.Runtime.Replay.bytes_per_cell
      in
      let seed =
        List.fold_left
          (fun acc (b : Runtime.Migrate.block) ->
            let n =
              Block_size.choose ~candidates:sp.Tune.sp_nblocks
                {
                  Block_size.transfer_s =
                    Machine.Cost.transfer_time base Machine.Cost.H2d
                      ~bytes:(bytes (b.blk_h2d_cells + b.blk_resident_cells))
                    +. Machine.Cost.transfer_time base Machine.Cost.D2h
                         ~bytes:(bytes b.blk_d2h_cells);
                  compute_s =
                    float_of_int b.blk_work
                    *. params.Runtime.Replay.seconds_per_stmt;
                  launch_s = Machine.Cost.launch_time base;
                }
            in
            match acc with
            | Some (work, _) when work >= b.blk_work -> acc
            | _ -> Some (b.blk_work, n))
          None
          (Runtime.Migrate.blocks_of_events
             traces.(List.assoc Comp.default_nblocks map))
      in
      Ok
        ( traces,
          map,
          match seed with None -> Comp.default_nblocks | Some (_, n) -> n )

let test_prepare_parity () =
  let base = Config.paper_default in
  let streamable = ref 0 and single = ref 0 and failed = ref 0 in
  let check name prog =
    match
      ( reference_prepare ~base prog,
        Tune.prepare_program ~base ~max_devices:1 ~max_streams:1 ~name prog )
    with
    | Ok (traces, map, seed), Ok pre ->
        Alcotest.(check (list (pair int int)))
          (name ^ ": trace of nblocks") map pre.Tune.p_trace_of_nblocks;
        Alcotest.(check int) (name ^ ": seed") seed pre.Tune.p_seed_nblocks;
        if traces <> pre.Tune.p_traces then
          Alcotest.failf "%s: traces differ from the reference" name;
        if Array.length traces > 1 then incr streamable else incr single
    | Error e, Error e' ->
        Alcotest.(check string) (name ^ ": error") e e';
        incr failed
    | Ok _, Error e -> Alcotest.failf "%s: reference ran, prepare: %s" name e
    | Error e, Ok _ -> Alcotest.failf "%s: prepare ran, reference: %s" name e
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      check w.Workloads.Workload.name (Workloads.Workload.program w))
    Workloads.Registry.all;
  List.iter
    (fun pat ->
      for seed = 1 to 6 do
        check
          (Printf.sprintf "%s seed %d" (Check.Genprog.pattern_name pat) seed)
          (parse (Check.Genprog.generate pat ~seed))
      done)
    Check.Genprog.all_patterns;
  (* a program that fails at run time is an [Error], never an exception *)
  check "undefined read"
    (parse
       "int main(void) { int a[4]; int s = 0; for (i = 0; i < 8; i++) { s = s \
        + a[i]; } print_int(s); return 0; }");
  (* every branch ran: programs with and without a streaming site, and
     one that fails *)
  Alcotest.(check bool) "some programs stream" true (!streamable > 0);
  Alcotest.(check bool) "some programs do not" true (!single > 0);
  Alcotest.(check int) "failing programs" 1 !failed

let suite =
  [
    tc "fleet spec parses devices, streams, sticky devN: scales"
      test_fleet_parse;
    tc "fleet spec round-trips through to_string" test_fleet_roundtrip;
    tc "malformed fleet specs are typed errors" test_fleet_errors;
    tc "fleet installs into the machine config" test_fleet_apply;
    tc "search is deterministic across --jobs widths" test_jobs_determinism;
    tc "ties break by lexicographic config order" test_tiebreak_lexicographic;
    tc "configs sharing a simulation key share one evaluation"
      test_shared_key_dedup;
    tc "tuned point never loses to the default" test_default_always_evaluated;
    tc "adding a device never worsens the best makespan"
      test_more_devices_no_worse;
    tc "tuner avoids a 20x-slower device" test_hetero_avoids_slow_device;
    tc "unit scales replay bit-identically to no scales"
      test_unit_scales_bitwise_neutral;
    tc "slower cores or link never speed up a replay" test_slow_scales_hurt;
    tc "memoized block-size choice equals unmemoized" test_block_cache_parity;
    tc "block cache counts hits and misses" test_block_cache_counters;
    tc "shared tune cache answers a repeat search without simulating"
      test_tune_cache_shared;
    tc "makespan equals schedule's, bit for bit, with equal counters"
      test_makespan_parity;
    tc "prepare equals the optimize-and-print reference" test_prepare_parity;
  ]
