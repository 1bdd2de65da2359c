(* Inter-offload data residency (lib/residency): the legality corpus
   — one fixture per invalidation reason, each refusal counted — the
   positive hoist/elide fixture, the interaction with the fault model
   (a device reset re-charges exactly the elided cells), the
   metamorphic relations, and differential validation over the
   generator families under both engines. *)

open Helpers

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus name = read (Filename.concat "corpus" name)

let typed src =
  let prog = parse src in
  (match Minic.Typecheck.check_program prog with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "typecheck: %s" e);
  prog

let engines = [ Minic.Interp.Reference; Minic.Interp.Compiled ]

(* The residency oracle: rewritten and original must be
   indistinguishable (output, return value, final globals) under both
   engines. *)
let assert_equiv name prog prog' =
  List.iter
    (fun engine ->
      match Check.equiv ~engine prog prog' with
      | Check.Equal | Check.Both_failed _ -> ()
      | v ->
          Alcotest.failf "%s [%s]: residency changed behaviour: %s\n%s" name
            (Minic.Interp.engine_name engine)
            (Check.verdict_str v)
            (Minic.Pretty.program_to_string prog'))
    engines

let transform_counted prog =
  let obs = Obs.create () in
  let prog', sites = Residency.transform ~obs prog in
  (prog', sites, obs)

let elides obs =
  Obs.count obs "residency.elide.in" + Obs.count obs "residency.elide.inout"

(* One legality fixture: the rewrite must elide nothing, count the
   named reason at least [times] times, and preserve behaviour. *)
let refusal ~file ~reason ~times =
  tc (Printf.sprintf "residency refuses on %s" file) (fun () ->
      let prog = typed (corpus file) in
      let prog', _, obs = transform_counted prog in
      Alcotest.(check int) "nothing elided" 0 (elides obs);
      Alcotest.(check int) "no hoists" 0 (Obs.count obs "residency.hoist");
      let n = Obs.count obs reason in
      if n < times then
        Alcotest.failf "expected %s >= %d, got %d; report:\n%s" reason times n
          (Residency.report obs);
      assert_equiv file prog prog')

let run_compiled prog =
  match Minic.Compile_eval.run ~engine:Minic.Interp.Compiled prog with
  | Ok o -> o
  | Error e -> Alcotest.failf "run: %s" e

let resident_cells (o : Minic.Interp.outcome) =
  List.fold_left
    (fun acc e ->
      match e with Minic.Interp.Ev_resident { cells } -> acc + cells | _ -> acc)
    0 o.Minic.Interp.events

let metamorphic name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

let parse_gen pat seed = parse (Check.Genprog.generate pat ~seed)

let suite =
  [
    (* --- the legality corpus: one counted reason per fixture --- *)
    refusal ~file:"res_hostwrite.mc" ~reason:"residency.invalidate.host_write"
      ~times:1;
    refusal ~file:"res_aliased.mc" ~reason:"residency.refuse.aliased_section"
      ~times:1;
    refusal ~file:"res_underdecl.mc" ~reason:"residency.refuse.under_declared"
      ~times:2;
    (* --- the positive fixture: loop-invariant transfers hoist --- *)
    tc "res_reset_midloop hoists both transfers and elides every \
        iteration's copies"
      (fun () ->
        let prog = typed (corpus "res_reset_midloop.mc") in
        let prog', sites, obs = transform_counted prog in
        Alcotest.(check int) "sites" 4 sites;
        Alcotest.(check int) "elided in()" 1 (Obs.count obs "residency.elide.in");
        Alcotest.(check int)
          "elided inout()" 1
          (Obs.count obs "residency.elide.inout");
        Alcotest.(check int) "hoists" 2 (Obs.count obs "residency.hoist");
        assert_equiv "res_reset_midloop" prog prog';
        let a = run_compiled prog and b = run_compiled prog' in
        Alcotest.(check int) "h2d cells drop 3x" 12 b.stats.cells_h2d;
        Alcotest.(check int) "oracle h2d" 36 a.stats.cells_h2d;
        Alcotest.(check int)
          "copy-backs survive" a.stats.cells_d2h b.stats.cells_d2h;
        Alcotest.(check int) "offload count unchanged" a.stats.offloads
          b.stats.offloads;
        (* every elided kernel depends on 12 untransferred device
           cells: x[0:8] + y[0:4] *)
        Alcotest.(check int) "resident cells" 36 (resident_cells b);
        Alcotest.(check int) "oracle has none" 0 (resident_cells a));
    tc "check_residency accepts the positive fixture" (fun () ->
        let r = Check.check_residency (typed (corpus "res_reset_midloop.mc")) in
        if not (Check.residency_ok r) then
          Alcotest.failf "contract: %s"
            (Option.value r.Check.rr_contract ~default:"verdict");
        Alcotest.(check bool)
          "h2d reduced" true
          (r.Check.rr_res_h2d < r.Check.rr_orig_h2d);
        Alcotest.(check int) "d2h equal" r.Check.rr_orig_d2h r.Check.rr_res_d2h);
    (* --- regression: facts must not survive a while body that can
       exit early (the break path skips the re-establishing offload) --- *)
    tc "break inside while kills loop-exit facts" (fun () ->
        let src =
          {|
int main(void) {
  int n = 4;
  int a[4];
  int s[1];
  int t[1];
  int c = 3;
  for (i = 0; i < n; i++) {
    a[i] = i + 1;
  }
  s[0] = 0;
  while (c > 0) {
    a[0] = a[0] + 1;
    if (c == 1) {
      break;
    }
    #pragma offload target(mic:0) in(a[0:n]) inout(s[0:1])
    {
      s[0] = s[0] + a[0];
    }
    c = c - 1;
  }
  #pragma offload target(mic:0) in(a[0:n]) inout(t[0:1])
  {
    t[0] = a[0] + a[3];
  }
  print_int(s[0]);
  print_int(t[0]);
  return 0;
}
|}
        in
        let prog = typed src in
        let prog', _, obs = transform_counted prog in
        Alcotest.(check int) "nothing elided" 0 (elides obs);
        assert_equiv "break-in-while" prog prog');
    (* --- fault interaction: a reset during an elided kernel
       re-charges exactly the cells the kernel relied on --- *)
    tc "reset re-transfers exactly the resident set" (fun () ->
        let prog = typed (corpus "res_reset_midloop.mc") in
        let prog', _, _ = transform_counted prog in
        let events = (run_compiled prog').events in
        let cfg = Machine.Config.paper_default in
        let clean = Runtime.Replay.schedule cfg events in
        let kernel =
          match
            List.filter
              (fun (p : Machine.Engine.placed) ->
                p.task.Machine.Task.reset_xfer_s > 0.)
              clean.Machine.Engine.placed
          with
          | k :: _ -> k
          | [] -> Alcotest.fail "no kernel carries a reset re-transfer cost"
        in
        (* the obligation is priced as one h2d of the 12 elided cells *)
        let bytes =
          12. *. Runtime.Replay.default_params.Runtime.Replay.bytes_per_cell
        in
        let expected = Machine.Cost.transfer_time cfg Machine.Cost.H2d ~bytes in
        Alcotest.(check bool)
          "reset_xfer_s = price of the live set" true
          (float_close kernel.task.Machine.Task.reset_xfer_s expected);
        (* reset mid-kernel: recovery pays the re-transfer *)
        let at = (kernel.start +. kernel.finish) /. 2. in
        let spec =
          match Fault.parse (Printf.sprintf "reset@%.9f" at) with
          | Ok s -> s
          | Error e -> Alcotest.failf "fault spec: %s" (Fault.error_message e)
        in
        let obs = Obs.create () in
        let fcfg = Machine.Config.with_faults cfg spec in
        let faulted = Runtime.Replay.schedule ~obs fcfg events in
        Alcotest.(check int)
          "one resident re-transfer" 1
          (Obs.count obs "residency.reset_retransfers");
        Alcotest.(check bool)
          "recovery includes the re-transfer" true
          (faulted.Machine.Engine.makespan
          >= clean.Machine.Engine.makespan +. expected -. 1e-12));
    tc "device death after elision still falls back to the CPU" (fun () ->
        let prog = typed (corpus "res_reset_midloop.mc") in
        let prog', _, _ = transform_counted prog in
        let events = (run_compiled prog').events in
        let spec =
          match Fault.parse "kill@0,dead-after=1" with
          | Ok s -> s
          | Error e -> Alcotest.failf "fault spec: %s" (Fault.error_message e)
        in
        let fcfg = Machine.Config.with_faults Machine.Config.paper_default spec in
        let r = Runtime.Replay.schedule_recovered fcfg events in
        Alcotest.(check bool) "fell back" true (r.Machine.Engine.died_at <> None);
        Alcotest.(check bool)
          "completed" true
          (r.Machine.Engine.result.makespan > 0.));
    (* --- metamorphic relations --- *)
    tc "pragma widening preserves the contract (corpus)" (fun () ->
        List.iter
          (fun file ->
            metamorphic file
              (Check.check_residency_widened (typed (corpus file))))
          [
            "res_hostwrite.mc";
            "res_aliased.mc";
            "res_underdecl.mc";
            "res_reset_midloop.mc";
            "fig06_streamcluster.mc";
          ]);
    tc "inserted host write restores transfers (corpus)" (fun () ->
        List.iter
          (fun file ->
            metamorphic file
              (Check.check_residency_hostwrite (typed (corpus file))))
          [
            "res_hostwrite.mc";
            "res_aliased.mc";
            "res_underdecl.mc";
            "res_reset_midloop.mc";
            "fig06_streamcluster.mc";
          ]);
    tc "host write into the elision chain forces the transfer back"
      (fun () ->
        (* the positive fixture elides in(x); writing x inside the
           t-loop must bring its per-iteration transfer back *)
        let prog = typed (corpus "res_reset_midloop.mc") in
        let mutated =
          match Check.insert_host_write prog with
          | Some p -> p
          | None -> Alcotest.fail "no insertion site found"
        in
        let _, _, obs0 = transform_counted prog in
        let mutated', _, obs1 = transform_counted mutated in
        Alcotest.(check bool)
          "fewer elisions" true
          (elides obs1 < elides obs0);
        Alcotest.(check bool)
          "invalidation counted" true
          (Obs.count obs1 "residency.invalidate.host_write" >= 1);
        assert_equiv "host-write-chain" mutated mutated');
    (* --- differential validation over the generator families --- *)
    prop "check_residency holds over the generator families" ~count:60
      QCheck.(
        make
          Gen.(pair (oneofl Check.Genprog.all_patterns) (int_bound 999)))
      (fun (pat, seed) ->
        let prog = parse_gen pat seed in
        List.for_all
          (fun engine ->
            let r = Check.check_residency ~engine prog in
            Check.residency_ok r
            ||
            (Printf.eprintf "pattern %s seed %d [%s]: %s\n"
               (Check.Genprog.pattern_name pat)
               seed
               (Minic.Interp.engine_name engine)
               (Option.value r.Check.rr_contract
                  ~default:(Check.verdict_str r.Check.rr_verdict));
             false))
          engines);
    prop "metamorphic relations hold over the generator families" ~count:40
      QCheck.(
        make
          Gen.(pair (oneofl Check.Genprog.all_patterns) (int_bound 999)))
      (fun (pat, seed) ->
        let prog = parse_gen pat seed in
        match
          ( Check.check_residency_widened prog,
            Check.check_residency_hostwrite prog )
        with
        | Ok (), Ok () -> true
        | Error m, _ | _, Error m ->
            Printf.eprintf "pattern %s seed %d: %s\n"
              (Check.Genprog.pattern_name pat)
              seed m;
            false);
    tc "multi-offload family actually exercises elision" (fun () ->
        (* the applicability table pins Multi_offload as residency-
           applicable; make sure the rewrite really fires there *)
        let hits = ref 0 in
        for seed = 0 to 9 do
          let _, sites, _ =
            transform_counted (parse_gen Check.Genprog.Multi_offload seed)
          in
          if sites > 0 then incr hits
        done;
        Alcotest.(check bool) "fires on most seeds" true (!hits >= 5));
  ]
