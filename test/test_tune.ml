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

(* Valid specs: [devices=]/[streams=] clauses, [devN:] scale clauses
   and bare [cores=]/[bw=] clauses that stick to the last prefix, with
   finite positive factors: short decimals, exactly 1.0, long decimal
   mantissas, and random bit patterns (52-bit mantissas, binary
   exponents from subnormal to the largest finite). *)
let gen_factor =
  let open QCheck.Gen in
  let bits =
    map2
      (fun e m ->
        Int64.float_of_bits
          (Int64.logor (Int64.shift_left (Int64.of_int e) 52) m))
      (int_range 0 2046)
      (map Int64.of_int (int_bound ((1 lsl 30) - 1)) >>= fun hi ->
       map
         (fun lo -> Int64.logor (Int64.shift_left hi 22) (Int64.of_int lo))
         (int_bound ((1 lsl 22) - 1)))
  in
  let x =
    frequency
      [
        (2, oneofl [ 0.5; 0.75; 0.05; 2.; 3.; 1.; 1e6; 1e-5 ]);
        ( 2,
          map2
            (fun m e -> float_of_int m *. (10. ** float_of_int e))
            (int_range 1 99_999_999) (int_range (-12) 12) );
        (3, bits);
      ]
  in
  (* a zero bit pattern is 0.0, not positive *)
  map (fun x -> if x > 0. && Float.is_finite x then x else 0.25) x

let gen_fleet_spec =
  let open QCheck.Gen in
  int_range 1 6 >>= fun devices ->
  let factor =
    map2
      (fun x fmt -> fmt x)
      gen_factor
      (oneofl [ Printf.sprintf "%.17g"; Printf.sprintf "%g"; Printf.sprintf "%h" ])
  in
  let axis = oneofl [ "cores"; "bw" ] in
  let scale =
    map3
      (fun d (a, f) bare ->
        Printf.sprintf "dev%d:%s=%s" d a f
        :: List.map (fun (a, f) -> Printf.sprintf "%s=%s" a f) bare)
      (int_bound (devices - 1))
      (pair axis factor)
      (list_size (int_bound 2) (pair axis factor))
  in
  map3
    (fun streams scales devices_first ->
      let grid =
        Printf.sprintf "devices=%d" devices
        :: Option.to_list (Option.map (Printf.sprintf "streams=%d") streams)
      in
      let scales = List.concat scales in
      String.concat ","
        (if devices_first then grid @ scales else scales @ grid))
    (opt (int_range 1 8))
    (list_size (int_bound 4) scale)
    bool

let fleet_round_trips spec =
  match Fleet.parse spec with
  | Error e ->
      QCheck.Test.fail_reportf "generated spec %S rejected: %s" spec
        (Fleet.error_message e)
  | Ok f -> (
      let printed = Fleet.to_string f in
      match Fleet.parse printed with
      | Ok f' when f' = f -> true
      | Ok f' ->
          QCheck.Test.fail_reportf "%S printed as %S, which reads back as %S"
            spec printed (Fleet.to_string f')
      | Error e ->
          QCheck.Test.fail_reportf "%S printed as %S, rejected: %s" spec
            printed (Fleet.error_message e))

(* a valid spec with one character truncated, overwritten, inserted or
   deleted, or a string of grammar-ish garbage *)
let gen_bad_fleet_spec =
  let open QCheck.Gen in
  let alphabet = "devicsrtamobw=:,.0123456789-+eExpna " in
  let char =
    frequency
      [
        (4, map (String.get alphabet) (int_bound (String.length alphabet - 1)));
        (1, map Char.chr (int_range 0 255));
      ]
  in
  let mutate spec =
    let n = String.length spec in
    if n = 0 then return spec
    else
      frequency
        [
          (1, map (fun k -> String.sub spec 0 k) (int_bound (n - 1)));
          ( 2,
            map2
              (fun k c -> String.mapi (fun i x -> if i = k then c else x) spec)
              (int_bound (n - 1))
              char );
          ( 2,
            map2
              (fun k c ->
                String.sub spec 0 k ^ String.make 1 c
                ^ String.sub spec k (n - k))
              (int_bound n) char );
          ( 1,
            map
              (fun k ->
                String.sub spec 0 k ^ String.sub spec (k + 1) (n - k - 1))
              (int_bound (n - 1)) );
        ]
  in
  frequency
    [
      (3, gen_fleet_spec >>= mutate);
      (1, string_size ~gen:char (int_range 0 40));
    ]

(* never an exception: an error is typed and names a token; a spec
   that still parses is a valid fleet that round-trips *)
let fleet_parse_total spec =
  match Fleet.parse spec with
  | exception ex ->
      QCheck.Test.fail_reportf "%S raised %s" spec (Printexc.to_string ex)
  | Error e ->
      contains ~sub:e.Fleet.reason (Fleet.error_message e)
      || QCheck.Test.fail_reportf "%S: untyped error %S" spec
           (Fleet.error_message e)
  | Ok f ->
      (f.Fleet.f_devices >= 1 && f.Fleet.f_streams >= 1
      && List.for_all
           (fun (d, (s : Config.scale)) ->
             d >= 0 && d < f.Fleet.f_devices
             && List.for_all
                  (fun x -> Float.is_finite x && x > 0.)
                  [ s.Config.sc_cores; s.Config.sc_bw ])
           f.Fleet.f_scales
      || QCheck.Test.fail_reportf "%S parsed to the invalid fleet %S" spec
           (Fleet.to_string f))
      && Fleet.parse (Fleet.to_string f) = Ok f

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
      ~keyfn:(fun c ->
        (((c.Tune.devices * 100) + c.Tune.streams) * 100) + c.Tune.nblocks)
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
      ~keyfn:(fun _ -> 0)
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
   dedupe on the printed text, execute each distinct program once for
   its trace (the first runtime error, in candidate order, ends it),
   and seed the hill search from the default trace's most expensive
   block.  A streamed program runs at every count. *)
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

(* a streamable loop in a program that declares its own [nblk__] *)
let own_nblk_src =
  {|int main(void) {
  int n = 8;
  int nblk__ = 3;
  float a[8];
  float b[8];
  for (i = 0; i < n; i++) { a[i] = (float)(i + nblk__); }
  #pragma offload target(mic:0) in(a[0:n]) out(b[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
  for (i = 0; i < n; i++) { print_float(b[i]); }
  return 0;
}|}

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
  (* two streamed regions: every candidate re-blocks both *)
  check "two regions" (parse (Gen.two_region_program ~n:12 ~seed:3));
  (* a program with its own [nblk__] is never streamed, so it takes the
     single-trace path, as the reference finds every count lowers to one
     program *)
  let own = parse own_nblk_src in
  Alcotest.(check int)
    "own nblk__: streamed" 0
    (snd (Comp.optimize own)).Comp.streamed;
  check "own nblk__" own;
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

(* The benchmark's 24 cases (12 workloads on its two fleets): the
   prepared record equals the execute-every-count reference's, whether
   the workload's traces were derived (blackscholes, kmeans and nn) or
   its one program ran *)
let test_prepare_bench_cases () =
  let derived = ref 0 in
  List.iter
    (fun spec ->
      let fleet = fleet_ok spec in
      let base = Config.with_scales Config.paper_default fleet.Fleet.f_scales in
      List.iter
        (fun (w : Workloads.Workload.t) ->
          let name = w.Workloads.Workload.name ^ " on " ^ spec in
          let obs = Obs.create () in
          let pre =
            Tune.prepare ~base ~obs ~max_devices:fleet.Fleet.f_devices
              ~max_streams:fleet.Fleet.f_streams w
          in
          derived := !derived + Obs.count obs "tune.traces.derived";
          match reference_prepare ~base (Workloads.Workload.program w) with
          | Error e -> Alcotest.failf "%s: the reference fails: %s" name e
          | Ok (traces, map, seed) ->
              Alcotest.(check (list (pair int int)))
                (name ^ ": trace of nblocks") map pre.Tune.p_trace_of_nblocks;
              Alcotest.(check int) (name ^ ": seed") seed pre.Tune.p_seed_nblocks;
              if traces <> pre.Tune.p_traces then
                Alcotest.failf "%s: traces differ from the reference" name;
              if
                pre.Tune.p_space
                <> Tune.space ~max_devices:fleet.Fleet.f_devices
                     ~max_streams:fleet.Fleet.f_streams ()
              then Alcotest.failf "%s: space differs" name)
        Workloads.Registry.all)
    bench_fleets;
  (* three streamed workloads, two fleets, ten derived counts each *)
  Alcotest.(check int) "derived traces" (3 * 2 * 10) !derived

(* ------------------------------------------------------------------ *)
(* Parity: Streaming.reblock against lowering at the count            *)
(* ------------------------------------------------------------------ *)

let read path = In_channel.with_open_bin path In_channel.input_all

let corpus_programs ?(dirs = [ "corpus"; "corpus/regressions" ]) () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter_map (fun f ->
             if Filename.check_suffix f ".mc" then
               let path = Filename.concat dir f in
               Some (path, parse (read path))
             else None))
    dirs

(* [reblock ~nblocks:n] of the lowering at every count [m] is the
   lowering at [n]; returns the streamed region count (0 when the
   program does not stream) *)
let check_reblock name prog =
  let nblocks =
    (Tune.space ~max_devices:1 ~max_streams:1 ()).Tune.sp_nblocks
  in
  List.fold_left
    (fun regions (layout, memory) ->
      let lowered =
        List.map (fun nb -> (nb, Comp.optimize ~memory ~nblocks:nb prog)) nblocks
      in
      match
        List.sort_uniq compare
          (List.map (fun (_, (_, a)) -> a.Comp.streamed) lowered)
      with
      | [ 0 ] -> regions
      | [ k ] ->
          List.iter
            (fun (m, (from, _)) ->
              List.iter
                (fun (n, (want, _)) ->
                  if
                    not
                      (Minic.Ast.equal_program
                         (Transforms.Streaming.reblock ~nblocks:n from)
                         want)
                  then
                    Alcotest.failf
                      "%s (%s): reblock %d -> %d differs from lowering at %d"
                      name layout m n n)
                lowered)
            lowered;
          regions + k
      | _ -> Alcotest.failf "%s (%s): streamed count depends on nblocks" name layout)
    0
    [
      ("full", Transforms.Streaming.Full);
      ("double-buffered", Transforms.Streaming.Double_buffered);
    ]

let test_reblock_identity () =
  let streamed = ref 0 in
  let check name prog =
    if check_reblock name prog > 0 then incr streamed
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      check w.Workloads.Workload.name (Workloads.Workload.program w))
    Workloads.Registry.all;
  List.iter (fun (path, prog) -> check path prog) (corpus_programs ());
  List.iter
    (fun pat ->
      for seed = 1 to 8 do
        check
          (Printf.sprintf "%s seed %d" (Check.Genprog.pattern_name pat) seed)
          (parse (Check.Genprog.generate pat ~seed))
      done)
    Check.Genprog.all_patterns;
  (* both declarations of a two-region program are re-blocked, in
     each layout *)
  Alcotest.(check int)
    "two regions, two layouts" 4
    (check_reblock "two regions" (parse (Gen.two_region_program ~n:12 ~seed:3)));
  Alcotest.(check bool) "many programs stream" true (!streamed >= 20)

(* ------------------------------------------------------------------ *)
(* Parity: Tune.search against its string-keyed predecessor           *)
(* ------------------------------------------------------------------ *)

(* The search [Tune.search] replaced, kept as its reference: string
   keys computed twice per config, a polymorphic config table, and
   [best] and the points re-read from that table.  Its cross-search
   cache is a string table counting into the same [tune.cache.*]
   names. *)
module Ref_cache = struct
  type t = { tbl : (string, float) Hashtbl.t; obs : Obs.t }

  let create obs = { tbl = Hashtbl.create 16; obs }

  let find c k =
    match Hashtbl.find_opt c.tbl k with
    | Some v ->
        Obs.incr c.obs "tune.cache.hits";
        Some v
    | None ->
        Obs.incr c.obs "tune.cache.misses";
        None

  let add c k v = Hashtbl.replace c.tbl k v
end

let reference_search ~obs ?cache ?(cache_prefix = "") ~mode ~seeds
    (sp : Tune.space) ~(eval : Tune.config -> float)
    ~(keyfn : Tune.config -> string) : Tune.report =
  let open Tune in
  let cmp a b =
    compare (a.devices, a.streams, a.nblocks) (b.devices, b.streams, b.nblocks)
  in
  let bump ~by name = if by > 0 then Obs.incr ~by obs name in
  let explored = ref 0 and pruned = ref 0 in
  let memo : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let lookup k =
    match Hashtbl.find_opt memo k with
    | Some v -> Some v
    | None -> (
        match cache with
        | None -> None
        | Some c -> (
            match Ref_cache.find c (cache_prefix ^ k) with
            | Some v ->
                Hashtbl.add memo k v;
                Some v
            | None -> None))
  in
  let store k v =
    Hashtbl.replace memo k v;
    match cache with
    | None -> ()
    | Some c -> Ref_cache.add c (cache_prefix ^ k) v
  in
  let evaluated : (config, float) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let record c m =
    if not (Hashtbl.mem evaluated c) then begin
      Hashtbl.add evaluated c m;
      order := c :: !order
    end
  in
  let evaluate configs =
    let requested = ref 0 in
    let missing = ref [] in
    let batch_keys : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun c ->
        if not (Hashtbl.mem evaluated c) then begin
          incr requested;
          let k = keyfn c in
          if (not (Hashtbl.mem batch_keys k)) && Option.is_none (lookup k)
          then begin
            Hashtbl.add batch_keys k ();
            missing := (c, k) :: !missing
          end
        end)
      configs;
    let missing = List.rev !missing in
    List.iter (fun (c, k) -> store k (eval c)) missing;
    let n = List.length missing in
    explored := !explored + n;
    pruned := !pruned + (!requested - n);
    bump ~by:n "tune.explored";
    bump ~by:(!requested - n) "tune.pruned";
    List.iter
      (fun c ->
        if not (Hashtbl.mem evaluated c) then
          record c (Hashtbl.find memo (keyfn c)))
      configs
  in
  let best () =
    List.fold_left
      (fun acc c ->
        let m = Hashtbl.find evaluated c in
        match acc with
        | None -> Some { pt_config = c; pt_makespan = m }
        | Some b ->
            if m < b.pt_makespan || (m = b.pt_makespan && cmp c b.pt_config < 0)
            then Some { pt_config = c; pt_makespan = m }
            else Some b)
      None (List.rev !order)
    |> Option.get
  in
  (match mode with
  | Auto -> assert false
  | Exhaustive ->
      evaluate
        (default_config
        :: List.concat_map
             (fun d ->
               List.concat_map
                 (fun s ->
                   List.map
                     (fun n -> { devices = d; streams = s; nblocks = n })
                     sp.sp_nblocks)
                 sp.sp_streams)
             sp.sp_devices)
  | Hill ->
      evaluate (default_config :: seeds);
      let dims =
        [
          ((fun b d -> { b with devices = d }), sp.sp_devices);
          ((fun b s -> { b with streams = s }), sp.sp_streams);
          ((fun b n -> { b with nblocks = n }), sp.sp_nblocks);
        ]
      in
      let rounds = ref 0 and continue = ref true in
      while !continue && !rounds < 32 do
        incr rounds;
        let before = (best ()).pt_config in
        List.iter
          (fun (set, vals) -> evaluate (List.map (set (best ()).pt_config) vals))
          dims;
        continue := cmp (best ()).pt_config before <> 0
      done);
  {
    r_default =
      {
        pt_config = default_config;
        pt_makespan = Hashtbl.find evaluated default_config;
      };
    r_best = best ();
    r_explored = !explored;
    r_pruned = !pruned;
    r_points =
      List.sort
        (fun a b -> cmp a.pt_config b.pt_config)
        (List.rev_map
           (fun c -> { pt_config = c; pt_makespan = Hashtbl.find evaluated c })
           !order);
  }

(* one generated search: a grid, a tie-heavy makespan table, a keyfn
   aliasing configs through moduli, hill seeds, a mode, a pool width,
   and whether the search runs twice through one shared cache *)
type search_case = {
  max_devices : int;
  max_streams : int;
  counts : int list;
  values : float array;
  moduli : int * int * int;
  seeds : (int * int * int) list;
  hill : bool;
  shared : bool;
  jobs : int;
}

let search_case_gen =
  let open QCheck.Gen in
  let* max_devices = int_range 1 5 in
  let* max_streams = int_range 1 3 in
  let* counts = list_size (int_range 1 12) (int_range 1 64) in
  let* values = array_size (int_range 1 3) (oneofl [ 0.5; 1.0; 2.0; 3.0 ]) in
  let* moduli = triple (int_range 1 6) (int_range 1 4) (int_range 1 16) in
  let* seeds =
    list_size (int_range 0 3)
      (triple (int_range 1 max_devices) (int_range 1 max_streams)
         (oneofl (Comp.default_nblocks :: counts)))
  in
  let* hill = bool in
  let* shared = bool in
  let+ jobs = int_range 1 2 in
  { max_devices; max_streams; counts; values; moduli; seeds; hill; shared; jobs }

let print_search_case c =
  let md, ms, mn = c.moduli in
  Printf.sprintf
    "devices<=%d streams<=%d counts=[%s] values=[%s] moduli=(%d,%d,%d) \
     seeds=[%s] hill=%b shared=%b jobs=%d"
    c.max_devices c.max_streams
    (String.concat ";" (List.map string_of_int c.counts))
    (String.concat ";" (Array.to_list (Array.map string_of_float c.values)))
    md ms mn
    (String.concat ";"
       (List.map (fun (d, s, n) -> Printf.sprintf "%d,%d,%d" d s n) c.seeds))
    c.hill c.shared c.jobs

let search_parity c =
  let sp =
    Tune.space ~nblocks:c.counts ~max_devices:c.max_devices
      ~max_streams:c.max_streams ()
  in
  let md, ms, mn = c.moduli in
  let key (x : Tune.config) =
    ((((x.Tune.devices mod md) * 10) + (x.Tune.streams mod ms)) * 100)
    + (x.Tune.nblocks mod mn)
  in
  let eval (x : Tune.config) =
    c.values.(((x.Tune.devices * 7) + (x.Tune.streams * 3) + x.Tune.nblocks)
              mod Array.length c.values)
  in
  let seeds =
    List.map
      (fun (d, s, n) -> { Tune.devices = d; streams = s; nblocks = n })
      c.seeds
  in
  let mode = if c.hill then Tune.Hill else Tune.Exhaustive in
  let obs = Obs.create () and ref_obs = Obs.create () in
  let cache = if c.shared then Some (Tune.Cache.create ~obs ()) else None in
  let ref_cache = if c.shared then Some (Ref_cache.create ref_obs) else None in
  for _ = 1 to if c.shared then 2 else 1 do
    let got =
      Tune.search ~jobs:c.jobs ~obs ?cache ~cache_prefix:"w|m" ~mode ~seeds sp
        ~eval ~keyfn:key
    in
    let want =
      reference_search ~obs:ref_obs ?cache:ref_cache ~cache_prefix:"w|m|"
        ~mode ~seeds sp ~eval ~keyfn:(fun x -> string_of_int (key x))
    in
    check_report "search parity" want got;
    Alcotest.(check (float 0.))
      "default makespan" want.Tune.r_default.Tune.pt_makespan
      got.Tune.r_default.Tune.pt_makespan
  done;
  let tune_counters o =
    List.filter
      (fun (n, _) -> String.starts_with ~prefix:"tune." n)
      (Obs.counters o)
  in
  Alcotest.(check (list (pair string int)))
    "tune.* counters" (tune_counters ref_obs) (tune_counters obs);
  true

let suite =
  [
    tc "fleet spec parses devices, streams, sticky devN: scales"
      test_fleet_parse;
    tc "fleet spec round-trips through to_string" test_fleet_roundtrip;
    tc "malformed fleet specs are typed errors" test_fleet_errors;
    prop "fleet specs round-trip through to_string, factors exactly"
      ~count:300
      (QCheck.make ~print:Fun.id gen_fleet_spec)
      fleet_round_trips;
    prop "mutated and garbage fleet specs parse or fail typed, never raise"
      ~count:300
      (QCheck.make ~print:(Printf.sprintf "%S") gen_bad_fleet_spec)
      fleet_parse_total;
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
    tc "prepare equals the reference on the benchmark's 24 cases"
      test_prepare_bench_cases;
    tc "reblock equals lowering at the count, in both layouts"
      test_reblock_identity;
    prop "search equals its string-keyed reference" ~count:200
      (QCheck.make ~print:print_search_case search_case_gen)
      search_parity;
  ]
