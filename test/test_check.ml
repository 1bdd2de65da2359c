(* The differential harness itself: oracle verdicts, generator
   well-formedness, the expected-applicability truth table, shrinking,
   corpus recording, fault injection, and the metamorphic cost-model
   checks. *)

open Helpers

let parse_gen pat seed = parse (Check.Genprog.generate pat ~seed)

let arb_instance =
  QCheck.make
    ~print:(fun (p, s) ->
      Printf.sprintf "%s seed=%d\n%s"
        (Check.Genprog.pattern_name p)
        s
        (Check.Genprog.generate p ~seed:s))
    QCheck.Gen.(pair (oneofl Check.Genprog.all_patterns) (int_bound 999))

(* {1 Oracle verdicts} *)

let oracle_tests =
  [
    tc "identical programs are Equal" (fun () ->
        let p = parse "int main(void) { print_int(7); return 0; }" in
        match Check.equiv p p with
        | Check.Equal -> ()
        | v -> Alcotest.failf "expected Equal, got %s" (Check.verdict_str v));
    tc "first differing output line is reported" (fun () ->
        let a =
          parse "int main(void) { print_int(1); print_int(2); return 0; }"
        in
        let b =
          parse "int main(void) { print_int(1); print_int(3); return 0; }"
        in
        match Check.equiv a b with
        | Check.Diverged (Check.Output_line { line; orig; transformed }) ->
            Alcotest.(check int) "line" 2 line;
            Alcotest.(check string) "orig" "2" orig;
            Alcotest.(check string) "transformed" "3" transformed
        | v -> Alcotest.failf "expected output divergence, got %s"
                 (Check.verdict_str v));
    tc "missing trailing output is a divergence" (fun () ->
        let a =
          parse "int main(void) { print_int(1); print_int(2); return 0; }"
        in
        let b = parse "int main(void) { print_int(1); return 0; }" in
        match Check.equiv a b with
        | Check.Diverged (Check.Output_line { line = 2; orig = "2"; _ }) -> ()
        | v -> Alcotest.failf "expected output divergence, got %s"
                 (Check.verdict_str v));
    tc "return values are compared" (fun () ->
        let a = parse "int main(void) { return 0; }" in
        let b = parse "int main(void) { return 1; }" in
        match Check.equiv a b with
        | Check.Diverged (Check.Return_value { orig = "0"; transformed = "1" })
          ->
            ()
        | v -> Alcotest.failf "expected return divergence, got %s"
                 (Check.verdict_str v));
    tc "final global storage is compared" (fun () ->
        let a = parse "int g[2];\nint main(void) { g[1] = 5; return 0; }" in
        let b = parse "int g[2];\nint main(void) { g[1] = 6; return 0; }" in
        match Check.equiv a b with
        | Check.Diverged (Check.Global_cell { name = "g"; cell = 1; _ }) -> ()
        | v -> Alcotest.failf "expected global divergence, got %s"
                 (Check.verdict_str v));
    tc "undefined original cells constrain nothing" (fun () ->
        let a = parse "int g[2];\nint main(void) { return 0; }" in
        let b = parse "int g[2];\nint main(void) { g[0] = 9; return 0; }" in
        match Check.equiv a b with
        | Check.Equal -> ()
        | v -> Alcotest.failf "expected Equal (Vundef wildcard), got %s"
                 (Check.verdict_str v));
    tc "ill-typed transformed program is Transform_failed" (fun () ->
        let a = parse "int main(void) { return 0; }" in
        let b = parse "int main(void) { return x; }" in
        match Check.equiv a b with
        | Check.Transform_failed e ->
            Alcotest.(check bool) "mentions type error" true
              (contains ~sub:"type error" e)
        | v -> Alcotest.failf "expected Transform_failed, got %s"
                 (Check.verdict_str v));
    tc "original-only failure is ok only for shared" (fun () ->
        let a = parse "int main(void) { int a[2]; return a[5]; }" in
        let b = parse "int main(void) { return 0; }" in
        match Check.equiv a b with
        | Check.Orig_failed _ as v ->
            Alcotest.(check bool) "shared accepts" true
              (Check.verdict_ok Check.Shared v);
            Alcotest.(check bool) "streaming rejects" false
              (Check.verdict_ok Check.Streaming v)
        | v -> Alcotest.failf "expected Orig_failed, got %s"
                 (Check.verdict_str v));
  ]

(* {1 The whole-program generator} *)

let gen_tests =
  [
    prop "generated programs parse, typecheck, and run" ~count:120
      arb_instance (fun (pat, seed) ->
        let src = Check.Genprog.generate pat ~seed in
        match parse_result src with
        | Error e -> QCheck.Test.fail_reportf "parse error: %s" e
        | Ok prog -> (
            match Minic.Typecheck.check_program prog with
            | Error e -> QCheck.Test.fail_reportf "type error: %s" e
            | Ok _ -> (
                match Minic.Interp.run ~fuel:10_000_000 prog with
                | Ok _ -> true
                | Error e ->
                    (* the chain pattern's buddy-deref variant crashes by
                       design (host pointers on the device) — but then the
                       shared-memory lowering must rescue it *)
                    let rescued () =
                      let prog', sites = Check.apply Check.Shared prog in
                      sites > 0
                      && Result.is_ok (Minic.Interp.run ~fuel:10_000_000 prog')
                    in
                    (pat = Check.Genprog.Chain && rescued ())
                    || QCheck.Test.fail_reportf "runtime error: %s" e)));
    prop "generation is deterministic in the seed" ~count:40 arb_instance
      (fun (pat, seed) ->
        String.equal
          (Check.Genprog.generate pat ~seed)
          (Check.Genprog.generate pat ~seed));
    prop "patterns hit their expected-applicability table" ~count:120
      arb_instance (fun (pat, seed) ->
        let prog = parse_gen pat seed in
        List.for_all
          (fun txf ->
            match Check.expected_applicable pat txf with
            | None -> true
            | Some expected ->
                let got = Check.applicable txf prog in
                got = expected
                || QCheck.Test.fail_reportf "%s: expected applicable=%b, got %b"
                     (Check.transform_name txf) expected got)
          Check.all_transforms);
  ]

(* {1 The differential property: every transform on every pattern} *)

let diff_tests =
  [
    prop "every transform preserves observable behaviour" ~count:60
      arb_instance (fun (pat, seed) ->
        let prog = parse_gen pat seed in
        List.for_all
          (fun (r : Check.report) ->
            Check.verdict_ok r.transform r.verdict
            || QCheck.Test.fail_reportf "%s (%d sites): %s"
                 (Check.transform_name r.transform)
                 r.sites
                 (Check.verdict_str r.verdict))
          (Check.check_program prog));
    tc "check_program equals per-transform apply then equiv" (fun () ->
        (* the oracle's definition: each transform applied alone, its
           rewrite judged by [equiv] against a fresh run of the
           original *)
        let by_definition ~engine ~inject p =
          List.map
            (fun txf ->
              let p', sites = Check.apply txf p in
              if sites = 0 then
                { Check.transform = txf; sites; verdict = Check.Equal }
              else
                let p' = if inject then Check.Inject.corrupt p' else p' in
                { Check.transform = txf; sites; verdict = Check.equiv ~engine p p' })
            Check.all_transforms
        in
        List.iter
          (fun pat ->
            for seed = 0 to 3 do
              let p = parse_gen pat seed in
              List.iter
                (fun (engine, inject) ->
                  if
                    Check.check_program ~engine ~inject p
                    <> by_definition ~engine ~inject p
                  then
                    Alcotest.failf "%s seed=%d engine=%s inject=%b differs"
                      (Check.Genprog.pattern_name pat)
                      seed
                      (match engine with
                      | Minic.Interp.Compiled -> "compiled"
                      | Minic.Interp.Reference -> "reference")
                      inject)
                [
                  (Minic.Interp.Compiled, false);
                  (Minic.Interp.Compiled, true);
                  (Minic.Interp.Reference, false);
                  (Minic.Interp.Reference, true);
                ]
            done)
          Check.Genprog.all_patterns);
  ]

(* {1 Fault injection and shrinking} *)

let inject_tests =
  [
    tc "corrupt changes the program" (fun () ->
        let p = parse_gen Check.Genprog.Dense 0 in
        Alcotest.(check bool) "differs" false
          (Minic.Ast.equal_program p (Check.Inject.corrupt p)));
    tc "injected fault is caught by the oracle" (fun () ->
        let prog = parse_gen Check.Genprog.Dense 0 in
        match
          Check.check_program ~inject:true ~transforms:[ Check.Streaming ] prog
        with
        | [ { verdict = Check.Diverged _; _ } ] -> ()
        | [ r ] ->
            Alcotest.failf "expected divergence, got %s"
              (Check.verdict_str r.verdict)
        | _ -> Alcotest.fail "expected one report");
    tc "minimized counterexample still diverges and is no larger" (fun () ->
        let prog = parse_gen Check.Genprog.Dense 0 in
        let small =
          Check.minimize_diverging ~inject:true Check.Streaming prog
        in
        Alcotest.(check bool) "still diverges" true
          (Check.diverges ~inject:true Check.Streaming small);
        Alcotest.(check bool) "no larger" true
          (Check.Shrink.count_stmts small <= Check.Shrink.count_stmts prog));
  ]

let shrink_tests =
  [
    prop "delete_nth strictly shrinks in-range candidates" ~count:60
      arb_instance (fun (pat, seed) ->
        let prog = parse_gen pat seed in
        let n = Check.Shrink.count_stmts prog in
        n = 0
        || List.for_all
             (fun k ->
               Check.Shrink.count_stmts (Check.Shrink.delete_nth prog k) < n)
             [ 0; n / 2; n - 1 ]);
    prop "delete_nth out of range is the identity" ~count:40 arb_instance
      (fun (pat, seed) ->
        let prog = parse_gen pat seed in
        Minic.Ast.equal_program prog
          (Check.Shrink.delete_nth prog (Check.Shrink.count_stmts prog)));
    prop "replace_lit v->v is the identity" ~count:40 arb_instance
      (fun (pat, seed) ->
        let prog = parse_gen pat seed in
        List.for_all
          (fun v ->
            Minic.Ast.equal_program prog (Check.Shrink.replace_lit prog v v))
          (Check.Shrink.int_literals prog));
  ]

(* {1 Corpus recording} *)

let corpus_tests =
  [
    tc "record writes once and replays" (fun () ->
        let dir = Filename.temp_dir "comp_check" "corpus" in
        let prog = parse_gen Check.Genprog.Dense 3 in
        let p1 = Check.Corpus.record ~dir ~note:"unit test" prog in
        let p2 = Check.Corpus.record ~dir prog in
        Alcotest.(check string) "idempotent path" p1 p2;
        (match Check.Corpus.entries ~dir with
        | [ e ] -> Alcotest.(check string) "listed" p1 e
        | es -> Alcotest.failf "expected 1 entry, got %d" (List.length es));
        let replayed = parse (In_channel.with_open_text p1 In_channel.input_all) in
        Alcotest.(check bool) "round-trips" true
          (Minic.Ast.equal_program prog replayed));
    tc "entries of a missing directory is empty" (fun () ->
        Alcotest.(check (list string)) "empty" []
          (Check.Corpus.entries ~dir:"/nonexistent/comp_check"));
  ]

(* {1 Metamorphic cost-model checks} *)

let arb_block_params =
  QCheck.make
    ~print:(fun (p : Transforms.Block_size.params) ->
      Printf.sprintf "D=%g C=%g K=%g" p.transfer_s p.compute_s p.launch_s)
    QCheck.Gen.(
      let* d = float_range 0.001 10. in
      let* c = float_range 0. 5. in
      let* k = float_range 0.00001 0.1 in
      return { Transforms.Block_size.transfer_s = d; compute_s = c; launch_s = k })

let metamorphic_tests =
  [
    prop "schedules conserve bytes and respect pipelining bounds" ~count:150
      Gen.arb_plan (fun (shape, strat) ->
        match Check.Metamorphic.check_plan shape strat with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_report e);
    prop "block-count model is internally consistent" ~count:150
      arb_block_params (fun p ->
        match Check.Metamorphic.check_block_model p with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_report e);
  ]

let suite =
  oracle_tests @ gen_tests @ diff_tests @ inject_tests @ shrink_tests
  @ corpus_tests @ metamorphic_tests
