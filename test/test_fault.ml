(* Fault-model runtime: injected PCIe/COI/device failures with retry,
   timeout, and CPU-fallback recovery. *)

open Helpers
open Runtime

let cfg = Machine.Config.paper_default

let parse_ok s =
  match Fault.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "parse %S: %s" s (Fault.error_message e)

(* n sequential h2d transfers of [dur] seconds each, chained *)
let chain_tasks n dur =
  let b = Machine.Task.builder () in
  let prev = ref [] in
  for i = 0 to n - 1 do
    let id =
      Machine.Task.add b ~deps:!prev
        ~label:(Printf.sprintf "xfer%d" i)
        ~resource:(Machine.Task.Pcie_h2d 0) ~kind:Obs.H2d ~bytes:1e6
        ~duration:dur ()
    in
    prev := [ id ]
  done;
  Machine.Task.tasks b

let events_simple =
  [
    Minic.Interp.Ev_transfer { h2d_cells = 10; d2h_cells = 0; signal = None };
    Minic.Interp.Ev_kernel { work = 100; wait = None };
    Minic.Interp.Ev_transfer { h2d_cells = 0; d2h_cells = 10; signal = None };
  ]

let events_signalled =
  [
    Minic.Interp.Ev_transfer { h2d_cells = 10; d2h_cells = 0; signal = Some 1 };
    Minic.Interp.Ev_kernel { work = 100; wait = Some 1 };
    Minic.Interp.Ev_transfer { h2d_cells = 0; d2h_cells = 10; signal = None };
  ]

(* tag 1 signalled, then tag 2, then tag 1 again; each kernel joins its
   transfer before the host issues the next, so every signal lies on
   the critical path *)
let events_resignalled =
  let signalled tag =
    [
      Minic.Interp.Ev_transfer
        { h2d_cells = 10; d2h_cells = 0; signal = Some tag };
      Minic.Interp.Ev_kernel { work = 100; wait = Some tag };
    ]
  in
  signalled 1 @ signalled 2 @ signalled 1
  @ [
      Minic.Interp.Ev_transfer
        { h2d_cells = 0; d2h_cells = 10; signal = None };
    ]

(* a replay under [spec]: its makespan and the sink it counted into *)
let replay_faulted spec events =
  let obs = Obs.create () in
  let r =
    Replay.schedule ~obs (Machine.Config.with_faults cfg (parse_ok spec))
      events
  in
  (r.Machine.Engine.makespan, obs)

let suite =
  [
    (* --- spec grammar --- *)
    tc "parse/to_string round-trips" (fun () ->
        let s =
          "seed=9,xfer=0.25,xfer@3,xfer@5*2,kill@7,drop@1,delay@2:0.001,\
           reset@0.5,myo-stall=0.1:0.002,retries=4,backoff=0.0002:0.01,\
           timeout=0.02,dead-after=2,no-fallback,slowdown=8,reset-cost=0.1"
        in
        let spec = parse_ok s in
        Alcotest.(check int) "seed" 9 spec.Fault.seed;
        Alcotest.(check bool) "kill" true (List.mem 7 spec.Fault.kill);
        Alcotest.(check int) "retries" 4 spec.Fault.policy.Fault.max_retries;
        Alcotest.(check bool)
          "no-fallback" false spec.Fault.policy.Fault.cpu_fallback;
        let spec' = parse_ok (Fault.to_string spec) in
        Alcotest.(check bool) "round-trip" true (spec = spec'));
    tc "parse rejects junk with a typed error naming the token" (fun () ->
        List.iter
          (fun (s, tok) ->
            match Fault.parse s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error e ->
                Alcotest.(check string)
                  (Printf.sprintf "offending token of %S" s)
                  tok e.Fault.token;
                Alcotest.(check bool)
                  (Printf.sprintf "message for %S quotes the token" s)
                  true
                  (contains ~sub:tok (Fault.error_message e)))
          [
            ("xfer", "xfer");
            ("xfer=2", "xfer=2");
            ("kill@x", "kill@x");
            ("frobnicate=1", "frobnicate=1");
            ("delay@1", "delay@1");
            ("xfer=-1", "xfer=-1");
            (* a bad clause buried in a good spec is still pinpointed *)
            ("xfer=0.1,junk!,kill@2", "junk!");
            (* policy/seed clauses are global: rejected under devN: *)
            ("dev1:seed=3", "dev1:seed=3");
            ("kill@0,dev2:retries=9", "dev2:retries=9");
            (* bad sub-clause errors name the full prefixed token *)
            ("dev0:kill@x", "dev0:kill@x");
          ]);
    prop "fault spec grammar round-trips through to_string" ~count:300
      (QCheck.make ~print:Fun.id
         QCheck.Gen.(
           let base_clause =
             oneof
               [
                 map (Printf.sprintf "seed=%d") (int_range 1 99);
                 map (Printf.sprintf "xfer=0.%02d") (int_range 1 99);
                 map (Printf.sprintf "xfer@%d") (int_range 0 9);
                 map2
                   (Printf.sprintf "xfer@%d*%d")
                   (int_range 0 9) (int_range 1 3);
                 map (Printf.sprintf "kill@%d") (int_range 0 9);
                 map (Printf.sprintf "drop@%d") (int_range 0 9);
                 map2
                   (Printf.sprintf "delay@%d:0.00%d")
                   (int_range 0 9) (int_range 1 9);
                 map (Printf.sprintf "reset@0.%02d") (int_range 1 99);
                 map2
                   (Printf.sprintf "myo-stall=0.%d:0.00%d")
                   (int_range 1 9) (int_range 1 9);
                 map (Printf.sprintf "retries=%d") (int_range 0 5);
                 map (Printf.sprintf "dead-after=%d") (int_range 1 4);
                 return "no-fallback";
               ]
           in
           let dev_clause =
             map2
               (Printf.sprintf "dev%d:%s")
               (int_range 0 3)
               (oneof
                  [
                    map (Printf.sprintf "xfer=0.%02d") (int_range 1 99);
                    map (Printf.sprintf "xfer@%d") (int_range 0 9);
                    map (Printf.sprintf "kill@%d") (int_range 0 9);
                    map (Printf.sprintf "drop@%d") (int_range 0 9);
                    map (Printf.sprintf "reset@0.%02d") (int_range 1 99);
                  ])
           in
           map2
             (fun bs ds -> String.concat "," (bs @ ds))
             (list_size (int_range 0 4) base_clause)
             (list_size (int_range 0 4) dev_clause)))
      (fun s ->
        match Fault.parse s with
        | Error e ->
            QCheck.Test.fail_reportf "generated spec %S rejected: %s" s
              (Fault.error_message e)
        | Ok spec -> (
            let printed = Fault.to_string spec in
            match Fault.parse printed with
            | Error e ->
                QCheck.Test.fail_reportf "printed spec %S rejected: %s"
                  printed (Fault.error_message e)
            | Ok spec' -> spec = spec'));
    prop "specs with long mantissas and extreme exponents print exactly"
      ~count:300
      (QCheck.make
         ~print:(fun s -> Fault.to_string s)
         QCheck.Gen.(
           (* a full 53-bit mantissa, and exponents from subnormal to
              near overflow (probabilities stay at or below 1) *)
           let mantissa = float_range 0.5 1.0 in
           let scaled lo hi = map2 Float.ldexp mantissa (int_range lo hi) in
           let secs = oneof [ float_bound_exclusive 1.0; scaled (-1070) 1020 ] in
           let prob =
             map
               (fun p -> if p > 0. then p else 0.5)
               (oneof [ float_bound_exclusive 1.0; scaled (-1070) 0 ])
           in
           let* seed = int_range 0 99 in
           let* xfer_prob = oneof [ return 0.; prob ] in
           let* delay_signals = list_size (int_range 0 2) (pair (int_range 0 9) secs) in
           let* reset_at = opt secs in
           let* myo_stall_prob, myo_stall_s =
             oneof [ return (0., 0.); pair prob secs ]
           in
           let* backoff_base_s = secs and* backoff_ceiling_s = secs in
           let* wait_timeout_s = secs and* fallback_slowdown = secs in
           let* reset_recovery_s = secs in
           let* devs =
             oneof
               [
                 return [];
                 map2
                   (fun xfer_prob reset_at ->
                     [ (1, { Fault.none with xfer_prob; reset_at }) ])
                   prob (opt secs);
               ]
           in
           return
             {
               Fault.none with
               seed;
               xfer_prob;
               delay_signals;
               reset_at;
               myo_stall_prob;
               myo_stall_s;
               policy =
                 {
                   Fault.default_policy with
                   backoff_base_s;
                   backoff_ceiling_s;
                   wait_timeout_s;
                   fallback_slowdown;
                   reset_recovery_s;
                 };
               devs;
             }))
      (fun spec -> Fault.parse (Fault.to_string spec) = Ok spec);
    tc "devN: clauses refine only their device" (fun () ->
        let spec = parse_ok "seed=3,xfer@1,dev1:kill@0,dev2:xfer=0.5" in
        Alcotest.(check int) "devices mentioned" 3
          (Fault.devices_mentioned spec);
        let s0 = Fault.spec_for_dev spec 0 in
        let s1 = Fault.spec_for_dev spec 1 in
        let s2 = Fault.spec_for_dev spec 2 in
        Alcotest.(check (list int)) "dev0 not killed" [] s0.Fault.kill;
        Alcotest.(check bool) "dev1 killed" true (List.mem 0 s1.Fault.kill);
        Alcotest.(check bool)
          "base clause applies to dev1 too" true
          (List.mem_assoc 1 s1.Fault.xfer_fail);
        Alcotest.(check (float 1e-12)) "dev2 xfer prob" 0.5 s2.Fault.xfer_prob;
        Alcotest.(check (float 1e-12))
          "dev0 keeps no probability" 0. s0.Fault.xfer_prob;
        let spec' = parse_ok (Fault.to_string spec) in
        Alcotest.(check bool) "devN: round-trip" true (spec = spec'));
    tc "empty spec is none" (fun () ->
        Alcotest.(check bool) "none" true (Fault.is_none (parse_ok ""));
        Alcotest.(check bool) "not none" false (Fault.is_none (parse_ok "xfer=0.5")));
    (* --- determinism --- *)
    tc "draws are deterministic per (seed, index)" (fun () ->
        let spec = parse_ok "xfer=0.3,seed=11" in
        let outcomes plan =
          List.init 50 (fun _ -> (Fault.next_transfer plan).Fault.xr_failures)
        in
        let a = outcomes (Fault.plan spec) in
        let b = outcomes (Fault.plan spec) in
        Alcotest.(check (list int)) "same seed, same faults" a b;
        let c = outcomes (Fault.plan (parse_ok "xfer=0.3,seed=12")) in
        Alcotest.(check bool) "different seed differs" true (a <> c));
    (* --- signal fates --- *)
    tc "each drop/delay clause is consumed once" (fun () ->
        let plan = Fault.plan (parse_ok "drop@3,delay@5:2.5") in
        let fate tag =
          match Fault.signal_fate plan ~tag with
          | Fault.Deliver -> "deliver"
          | Fault.Dropped -> "dropped"
          | Fault.Delayed d -> Printf.sprintf "delayed %g" d
        in
        Alcotest.(check (list string))
          "fates in order"
          [ "dropped"; "deliver"; "delayed 2.5"; "deliver"; "deliver" ]
          (List.map fate [ 3; 3; 5; 5; 4 ]));
    (* --- engine retry/recovery --- *)
    tc "single-block fault: only that block retransfers" (fun () ->
        let dur = 1e-3 in
        let tasks = chain_tasks 5 dur in
        let clean = (Machine.Engine.schedule tasks).Machine.Engine.makespan in
        let obs = Obs.create () in
        let spec = parse_ok "xfer@2" in
        let fleet = Fault.fleet ~obs ~devices:1 spec in
        let r = Machine.Engine.schedule ~obs ~faults:fleet tasks in
        Alcotest.(check int) "one retry" 1 (Obs.count obs "fault.retries");
        Alcotest.(check int) "one injection" 1 (Obs.count obs "fault.injected");
        (* a synthetic recovery task shows up as its own Retry phase *)
        let retry_spans =
          List.filter
            (fun (p : Machine.Engine.placed) ->
              p.Machine.Engine.task.Machine.Task.kind = Some Obs.Retry)
            r.Machine.Engine.placed
        in
        Alcotest.(check int) "one recovery span" 1 (List.length retry_spans);
        (* recovery retransfers one block (plus backoff), not the lot *)
        let p = spec.Fault.policy in
        let bound = clean +. dur +. p.Fault.backoff_ceiling_s in
        Alcotest.(check bool)
          (Printf.sprintf "makespan %.6f in (%.6f, %.6f]"
             r.Machine.Engine.makespan clean bound)
          true
          (r.Machine.Engine.makespan > clean
          && r.Machine.Engine.makespan <= bound +. 1e-12));
    prop "k forced faults cost between 0 and k*(block + backoff ceiling)"
      ~count:60
      QCheck.(
        pair
          (int_range 1 8)
          (small_list (pair (int_range 0 7) (int_range 1 3))))
      (fun (n, faults) ->
        (* distinct indices within range, failure counts <= max_retries
           so no round is exhausted and no reset is taken *)
        let faults =
          List.sort_uniq
            (fun (a, _) (b, _) -> compare a b)
            (List.filter (fun (i, _) -> i < n) faults)
        in
        let dur = 2e-4 in
        let tasks = chain_tasks n dur in
        let clean = (Machine.Engine.schedule tasks).Machine.Engine.makespan in
        let spec =
          { (parse_ok "") with Fault.xfer_fail = faults; seed = 99 }
        in
        let fleet = Fault.fleet ~devices:1 spec in
        let faulted =
          (Machine.Engine.schedule ~faults:fleet tasks).Machine.Engine.makespan
        in
        let k = List.fold_left (fun acc (_, f) -> acc + f) 0 faults in
        let ceiling = spec.Fault.policy.Fault.backoff_ceiling_s in
        faulted >= clean -. 1e-12
        && faulted
           <= clean +. (float_of_int k *. (dur +. ceiling)) +. 1e-12);
    tc "killed transfer exhausts retries and declares the device dead"
      (fun () ->
        let tasks = chain_tasks 3 1e-3 in
        let fleet = Fault.fleet ~devices:1 (parse_ok "kill@1,dead-after=1") in
        match Machine.Engine.schedule ~faults:fleet tasks with
        | exception Fault.Device_dead { failures; _ } ->
            (* max_retries + 1 attempts in the exhausted round *)
            Alcotest.(check int) "attempts" 4 failures
        | _ -> Alcotest.fail "expected Device_dead");
    tc "resets recover until dead-after rounds are exhausted" (fun () ->
        let tasks = chain_tasks 1 1e-3 in
        let obs = Obs.create () in
        (* retries=0: every failed attempt exhausts its round; the first
           two rounds each pay a reset, the third kills the device *)
        let fleet =
          Fault.fleet ~obs ~devices:1 (parse_ok "xfer@0*2,retries=0,dead-after=3")
        in
        let r = Machine.Engine.schedule ~obs ~faults:fleet tasks in
        Alcotest.(check int) "two resets" 2 (Obs.count obs "fault.resets");
        Alcotest.(check bool)
          "reset recovery time in makespan" true
          (r.Machine.Engine.makespan >= 2. *. 5e-2));
    (* --- one-shot reset is per plan instance, never per spec --- *)
    tc "each plan instance owns its one-shot reset" (fun () ->
        let spec = parse_ok "reset@0.5" in
        let p1 = Fault.plan spec and p2 = Fault.plan spec in
        (match Fault.take_reset p1 ~start:0. ~stop:1. with
        | Some (at, cost) ->
            Alcotest.(check (float 1e-12)) "p1 reset time" 0.5 at;
            Alcotest.(check bool) "positive recovery cost" true (cost > 0.)
        | None -> Alcotest.fail "p1 missed its reset");
        (match Fault.take_reset p1 ~start:0. ~stop:1. with
        | None -> ()
        | Some _ -> Alcotest.fail "p1's reset must be one-shot");
        (* the spec is immutable: p2's reset was not consumed by p1 *)
        match Fault.take_reset p2 ~start:0. ~stop:1. with
        | Some (at, _) ->
            Alcotest.(check (float 1e-12)) "p2 observes its own reset" 0.5 at
        | None -> Alcotest.fail "p2's reset was stolen by p1");
    tc "two engines sharing a spec each observe their own reset" (fun () ->
        (* regression: when reset consumption lived in the spec, the
           second of two runs sharing it sailed through unfaulted *)
        let spec = parse_ok "reset@0.0005" in
        let mk () =
          let b = Machine.Task.builder () in
          ignore
            (Machine.Task.add b ~label:"k"
               ~resource:(Machine.Task.Mic_exec (0, 0))
               ~kind:Obs.Kernel ~duration:1e-3 ());
          Machine.Task.tasks b
        in
        let clean = (Machine.Engine.schedule (mk ())).Machine.Engine.makespan in
        let faulted () =
          (Machine.Engine.schedule
             ~faults:(Fault.fleet ~devices:1 spec)
             (mk ()))
            .Machine.Engine.makespan
        in
        let m1 = faulted () in
        let m2 = faulted () in
        Alcotest.(check bool) "first engine pays the reset" true (m1 > clean);
        Alcotest.(check (float 1e-12)) "second engine pays it too" m1 m2);
    (* --- replay-level recovery --- *)
    tc "device death falls back to the CPU and completes" (fun () ->
        let spec = parse_ok "kill@0,dead-after=1" in
        let fcfg = Machine.Config.with_faults cfg spec in
        let r = Replay.schedule_recovered fcfg events_simple in
        Alcotest.(check bool) "fell back" true (r.Machine.Engine.died_at <> None);
        Alcotest.(check bool)
          "completed with positive makespan" true
          (r.Machine.Engine.result.makespan > 0.));
    tc "no-fallback policy re-raises the death" (fun () ->
        let spec = parse_ok "kill@0,dead-after=1,no-fallback" in
        let fcfg = Machine.Config.with_faults cfg spec in
        match Replay.schedule_recovered fcfg events_simple with
        | exception Fault.Device_dead _ -> ()
        | _ -> Alcotest.fail "expected Device_dead to escape");
    tc "dropped replay signal burns the timeout, then completes" (fun () ->
        let clean =
          (Replay.schedule cfg events_signalled).Machine.Engine.makespan
        in
        let spec = parse_ok "drop@1,timeout=0.01" in
        let fcfg = Machine.Config.with_faults cfg spec in
        let r = Replay.schedule fcfg events_signalled in
        Alcotest.(check bool)
          "timeout adds delay" true
          (r.Machine.Engine.makespan >= clean +. 0.01 -. 1e-12));
    tc "delayed replay signal stalls the waiter by the delay" (fun () ->
        let clean =
          (Replay.schedule cfg events_signalled).Machine.Engine.makespan
        in
        let fcfg = Machine.Config.with_faults cfg (parse_ok "delay@1:0.25") in
        let r = Replay.schedule fcfg events_signalled in
        Alcotest.(check (float 1e-12))
          "makespan grows by the delay" (clean +. 0.25)
          r.Machine.Engine.makespan);
    tc "dropped replay signal burns exactly the policy's timeout" (fun () ->
        let clean =
          (Replay.schedule cfg events_signalled).Machine.Engine.makespan
        in
        List.iter
          (fun t ->
            let m, obs =
              replay_faulted (Printf.sprintf "drop@1,timeout=%g" t)
                events_signalled
            in
            Alcotest.(check (float 1e-12))
              (Printf.sprintf "waited %g s" t) (clean +. t) m;
            Alcotest.(check int) "one timeout" 1
              (Obs.count obs "fault.timeouts"))
          [ 0.01; 0.25; 2. ]);
    tc "a re-signal after a dropped signal is delivered on time" (fun () ->
        let clean =
          (Replay.schedule cfg events_resignalled).Machine.Engine.makespan
        in
        let m, obs = replay_faulted "drop@1,timeout=0.25" events_resignalled in
        Alcotest.(check (float 1e-12))
          "only the first wait on tag 1 times out" (clean +. 0.25) m;
        Alcotest.(check int) "one timeout" 1 (Obs.count obs "fault.timeouts"));
    tc "a delay stalls only the first signal on its own tag" (fun () ->
        let clean =
          (Replay.schedule cfg events_resignalled).Machine.Engine.makespan
        in
        List.iter
          (fun (spec, extra) ->
            let m, _ = replay_faulted spec events_resignalled in
            Alcotest.(check (float 1e-12)) spec (clean +. extra) m)
          [ ("delay@1:0.25", 0.25); ("delay@2:0.5", 0.5); ("delay@3:0.25", 0.) ]);
    tc "recovery time is charged to the makespan (strategy layer)"
      (fun () ->
        let w = Workloads.Registry.find_exn "blackscholes" in
        let clean = Comp.simulate w Comp.Mic_optimized in
        let fcfg =
          Machine.Config.with_faults cfg (parse_ok "xfer@1,seed=5")
        in
        let t, r = Comp.simulate_recovered ~cfg:fcfg w Comp.Mic_optimized in
        Alcotest.(check bool) "no fallback needed" true
          (r.Machine.Engine.died_at = None);
        Alcotest.(check bool) "slower than clean" true (t > clean);
        Alcotest.(check bool)
          "cheaper than a second full run" true
          (t < 2. *. clean));
    tc "strategy-layer device death falls back to the CPU" (fun () ->
        let w = Workloads.Registry.find_exn "blackscholes" in
        let fcfg =
          Machine.Config.with_faults cfg
            (parse_ok "kill@3,dead-after=1,seed=5")
        in
        let _, r = Comp.simulate_recovered ~cfg:fcfg w Comp.Mic_optimized in
        Alcotest.(check bool) "died" true (r.Machine.Engine.died_at <> None);
        (* pinned: a refactor of the recovery ladder must keep the
           recovered makespan bit for bit *)
        Alcotest.(check int64)
          "recovered makespan bits" 0x3fac47954ba456c6L
          (Int64.bits_of_float r.Machine.Engine.result.makespan));
    tc "strategy-layer death without fallback escapes" (fun () ->
        let w = Workloads.Registry.find_exn "blackscholes" in
        let fcfg =
          Machine.Config.with_faults cfg
            (parse_ok "kill@3,dead-after=1,seed=5,no-fallback")
        in
        match Comp.simulate_recovered ~cfg:fcfg w Comp.Mic_optimized with
        | exception Fault.Device_dead _ -> ()
        | _ -> Alcotest.fail "expected Device_dead to escape");
    (* --- MYO stalls --- *)
    tc "page-service stalls are injected and timed" (fun () ->
        let spec = parse_ok "myo-stall=1:0.005" in
        let plan = Fault.plan spec in
        let t = Myo.create ~plan cfg.Machine.Config.myo in
        let addr = Result.get_ok (Myo.alloc t 4096) in
        ignore (Myo.touch t ~addr ~len:4096);
        let st = Myo.stats t in
        Alcotest.(check int) "one stall" 1 st.Myo.stalls;
        Alcotest.(check (float 1e-12)) "stall time" 0.005 st.Myo.stall_s;
        let without = Myo.create cfg.Machine.Config.myo in
        let addr' = Result.get_ok (Myo.alloc without 4096) in
        ignore (Myo.touch without ~addr:addr' ~len:4096);
        Alcotest.(check bool)
          "stall lands in fault_time" true
          (Myo.fault_time cfg t > Myo.fault_time cfg without));
    (* --- segmented-buffer DMA retries --- *)
    tc "segment DMA retries only the failed segment" (fun () ->
        let seg_bytes = 64 lsl 20 in
        let shape =
          {
            Plan.default_shape with
            Plan.bytes_in = 0.;
            shared =
              Some
                {
                  Plan.default_shared with
                  Plan.shared_bytes = 4 * seg_bytes;
                  shared_allocs = 100;
                };
          }
        in
        let strat = Plan.Shared_segbuf { seg_bytes } in
        let clean = Schedule_gen.region_time cfg shape strat in
        let obs = Obs.create () in
        let spec = parse_ok "xfer@1" in
        let m =
          Schedule_gen.region_time ~obs
            (Machine.Config.with_faults cfg spec)
            shape strat
        in
        Alcotest.(check int) "one retry" 1 (Obs.count obs "fault.retries");
        (* one segment moves again (plus backoff), not the structure *)
        let seg =
          Machine.Cost.transfer_time cfg Machine.Cost.H2d
            ~bytes:(float_of_int seg_bytes)
        in
        let bound = clean +. seg +. spec.Fault.policy.Fault.backoff_ceiling_s in
        Alcotest.(check bool)
          (Printf.sprintf "makespan %.6f in (%.6f, %.6f]" m clean bound)
          true
          (m > clean +. seg -. 1e-12 && m <= bound +. 1e-12));
    (* --- differential check under faults --- *)
    tc "faulted replay still matches the oracle" (fun () ->
        let prog =
          parse
            (Workloads.Registry.find_exn "blackscholes").Workloads.Workload
              .source
        in
        let spec = parse_ok "xfer=0.3,drop@0,seed=3" in
        List.iter
          (fun (r : Check.faulted_report) ->
            if r.Check.f_sites > 0 then
              Alcotest.(check bool)
                (Printf.sprintf "%s recovers equivalent"
                   (Check.transform_name r.Check.f_transform))
                true (Check.faulted_ok r))
          (Check.check_faulted ~spec prog));
    (* --- recorded regression fixture --- *)
    tc "fixture: dropped signal on a streamed program recovers via timeout"
      (fun () ->
        (* reg_db421a658c07.mc is a streamed saxpy carrying explicit
           signal/wait pragmas; dropping tag 0 must convert the wait into
           a recoverable timeout, not a deadlock or a stale delivery. *)
        let src =
          In_channel.with_open_text
            "corpus/regressions/reg_db421a658c07.mc" In_channel.input_all
        in
        let events = (run_ok src).Minic.Interp.events in
        let obs = Obs.create () in
        let clean = (Replay.schedule cfg events).Machine.Engine.makespan in
        let fcfg = Machine.Config.with_faults cfg (parse_ok "drop@0,seed=7") in
        let r = Replay.schedule_recovered ~obs fcfg events in
        Alcotest.(check bool) "no fallback needed" true
          (r.Machine.Engine.died_at = None);
        Alcotest.(check int) "one wait timed out" 1
          (Obs.count obs "fault.timeouts");
        Alcotest.(check bool)
          "timeout charged but bounded" true
          (let m = r.Machine.Engine.result.makespan in
           m >= clean && m <= clean +. 0.1));
  ]
