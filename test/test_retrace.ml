(* Re-tracing: one profiled run of a streamed lowering at 4 blocks
   derives the trace and fuel of every other block count
   (Transforms.Streaming.retrace).  The contract is checked against
   executing each re-blocked lowering, over the registry, the example
   and corpus programs, the cram inputs and the generator families;
   each refusal reason is shown to send Tune.prepare down the
   execute-every-count path, with the same result. *)

open Helpers
module St = Transforms.Streaming

(* every default candidate, and counts the candidates skip: odd, prime
   and far past most iteration counts *)
let counts = Tune.default_nblocks_candidates @ [ 3; 7; 64 ]

let refusal r = Format.asprintf "%a" St.pp_refusal r

(* The contract on one program: [retrace] vouches for every count, and
   executing [reblock ~nblocks:n] gives its events and fuel.  Returns
   the number of regions the lowering streamed. *)
let check_contract ?memory name prog =
  let lowered, applied = Comp.optimize ?memory prog in
  if applied.Comp.streamed = 0 then 0
  else
    match St.retrace applied.Comp.streamed_regions lowered ~nblocks:counts with
    | Error r -> Alcotest.failf "%s: refused: %s" name (refusal r)
    | Ok traces ->
        List.iter
          (fun (r : St.retraced) ->
            let n = r.St.rt_nblocks in
            match
              Minic.Compile_eval.run_compiled (St.reblock ~nblocks:n lowered)
            with
            | Error e ->
                Alcotest.failf "%s: derived %d blocks, but the run fails: %s"
                  name n e
            | Ok o ->
                if o.Minic.Interp.events <> r.St.rt_events then
                  Alcotest.failf "%s: the events at %d blocks differ" name n;
                if o.Minic.Interp.work <> r.St.rt_work then
                  Alcotest.failf "%s: fuel at %d blocks: ran %d, derived %d"
                    name n o.Minic.Interp.work r.St.rt_work)
          traces;
        applied.Comp.streamed

let test_contract_files () =
  let streamed = ref 0 in
  let check name prog =
    List.iter
      (fun memory -> streamed := !streamed + check_contract ~memory name prog)
      [ St.Full; St.Double_buffered ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      check w.Workloads.Workload.name (Workloads.Workload.program w))
    Workloads.Registry.all;
  List.iter
    (fun (path, prog) -> check path prog)
    (Test_tune.corpus_programs
       ~dirs:[ "../examples/mc"; "corpus"; "corpus/regressions"; "cli.t" ]
       ());
  check "two regions" (parse (Gen.two_region_program ~n:12 ~seed:3));
  (* in both layouts: blackscholes, kmeans and nn, the figure programs
     and the cram inputs that stream *)
  Alcotest.(check bool) "many regions stream" true (!streamed >= 40)

let arb_generated =
  QCheck.make
    ~print:(fun (p, s) ->
      Printf.sprintf "%s seed=%d\n%s"
        (Check.Genprog.pattern_name p)
        s
        (Check.Genprog.generate p ~seed:s))
    QCheck.Gen.(pair (oneofl Check.Genprog.all_patterns) (int_bound 9999))

(* ------------------------------------------------------------------ *)
(* Refusals                                                           *)
(* ------------------------------------------------------------------ *)

(* [Tune.prepare_program] equals the execute-every-count reference, and
   the derivation refused for [reason] *)
let prepare_refuses ~reason name src =
  let prog = parse src in
  let lowered, applied = Comp.optimize prog in
  Alcotest.(check bool) (name ^ ": streams") true (applied.Comp.streamed > 0);
  (match
     St.retrace applied.Comp.streamed_regions lowered
       ~nblocks:Tune.default_nblocks_candidates
   with
  | Ok _ -> Alcotest.failf "%s: expected a refusal" name
  | Error r -> Alcotest.(check string) (name ^ ": reason") reason (St.refusal_name r));
  let obs = Obs.create () in
  let base = Machine.Config.paper_default in
  (match
     ( Test_tune.reference_prepare ~base prog,
       Tune.prepare_program ~base ~obs ~max_devices:1 ~max_streams:1 ~name prog )
   with
  | Ok (traces, map, seed), Ok pre ->
      Alcotest.(check (list (pair int int)))
        (name ^ ": trace of nblocks") map pre.Tune.p_trace_of_nblocks;
      Alcotest.(check int) (name ^ ": seed") seed pre.Tune.p_seed_nblocks;
      if traces <> pre.Tune.p_traces then
        Alcotest.failf "%s: traces differ from the reference" name;
      Alcotest.(check int)
        (name ^ ": every count ran")
        (List.length Tune.default_nblocks_candidates)
        (Obs.count obs "tune.traces.executed")
  | Error e, Error e' -> Alcotest.(check string) (name ^ ": error") e e'
  | Ok _, Error e -> Alcotest.failf "%s: reference ran, prepare: %s" name e
  | Error e, Ok _ -> Alcotest.failf "%s: prepare ran, reference: %s" name e);
  Alcotest.(check int) (name ^ ": counted") 1
    (Obs.count obs ("tune.retrace.refused." ^ reason));
  Alcotest.(check int) (name ^ ": nothing derived") 0
    (Obs.count obs "tune.traces.derived")

(* one streamable loop [b = f(a)] over [n] elements, with [before] and
   [body] spliced in *)
let saxpy ?(n = 8) ?(init = true) ?(before = "") ?(body = "") () =
  Printf.sprintf
    {|int main(void) {
  int n = %d;
  float a[8];
  float b[8];
  %s
  %s
  #pragma offload target(mic:0) in(a[0:n]) out(b[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) {
    b[i] = a[i] * 2.0;
    %s
  }
  for (i = 0; i < n; i++) { print_float(b[i]); }
  return 0;
}|}
    n
    (if init then "for (i = 0; i < 8; i++) { a[i] = (float)i; b[i] = 0.0; }"
     else "")
    before body

let test_refuse_run_failed () =
  (* the kernel reads [a] before anything wrote it *)
  prepare_refuses ~reason:"run_failed" "undefined input" (saxpy ~init:false ())

let test_refuse_ambiguous () =
  (* two regions stream [a] alone; the host print between them keeps
     offload merging from fusing them *)
  prepare_refuses ~reason:"ambiguous" "two regions, one input"
    {|int main(void) {
  int n = 8;
  float a[8];
  float b[8];
  float c[8];
  for (i = 0; i < n; i++) { a[i] = (float)i; }
  #pragma offload target(mic:0) in(a[0:n]) out(b[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
  print_float(b[1]);
  #pragma offload target(mic:0) in(a[0:n]) out(c[0:n])
  #pragma omp parallel for
  for (i = 0; i < n; i++) { c[i] = a[i] + 1.0; }
  print_float(c[1]);
  return 0;
}|}

let test_refuse_unrecognised () =
  (* a hand-written signal-0 transfer of the streamed input looks like
     an instance's start, but no block pattern follows it *)
  prepare_refuses ~reason:"unrecognised" "own signal 0"
    (saxpy
       ~before:
         "#pragma offload_transfer target(mic:0) in(a[0:n]) signal(0)\n\
         \  #pragma offload_wait target(mic:0) wait(0)"
       ());
  (* a loop that writes its own index runs other iterations than its
     block bounds name *)
  prepare_refuses ~reason:"unrecognised" "index written"
    (saxpy ~body:"if (i > 100) { i = i + 1; }" ())

let test_refuse_empty () =
  prepare_refuses ~reason:"empty" "no iterations" (saxpy ~n:0 ())

(* a profile whose slices contradict the model: no run produces one
   (the 4 blocks always pin where a slice ends, or leave every slice of
   every count empty), so a real run is doctored *)
let test_refuse_unobservable_end () =
  let prog = parse (saxpy ()) in
  let lowered, applied = Comp.optimize prog in
  match
    Minic.Compile_eval.run_profiled
      (St.reblock ~nblocks:St.retrace_nblocks lowered)
  with
  | Error e -> Alcotest.failf "profiled run: %s" e
  | Ok (o, dets) ->
      let open Minic.Interp in
      (* block 0 moves nothing, though its neighbours move their slices *)
      let empty_first = ref true in
      let events =
        List.map
          (function
            | Ev_transfer ({ signal = Some 0; _ } as t) when !empty_first ->
                empty_first := false;
                Ev_transfer { t with h2d_cells = 0 }
            | ev -> ev)
          o.events
      in
      let first = ref true in
      let details =
        List.map2
          (fun ev d ->
            match ev with
            | Ev_transfer { signal = Some 0; _ } when !first ->
                first := false;
                { d with d_sections = List.map (fun (a, _) -> (a, 0)) d.d_sections }
            | _ -> d)
          o.events dets
      in
      match
        St.derive applied.Comp.streamed_regions { o with events } details
          ~nblocks:[ 1; 8 ]
      with
      | Error (St.Unobservable_end a) ->
          Alcotest.(check string) "array" "a" a
      | Error r -> Alcotest.failf "refused for another reason: %s" (refusal r)
      | Ok _ -> Alcotest.fail "a contradictory profile was derived from"

(* the derived fuel decides which counts run out, exactly where the
   runs do *)
let test_refuse_fuel () =
  let prog = parse (Gen.two_region_program ~n:12 ~seed:3) in
  let lowered, applied = Comp.optimize prog in
  let regions = applied.Comp.streamed_regions in
  let work n =
    match Minic.Compile_eval.run_compiled (St.reblock ~nblocks:n lowered) with
    | Ok o -> o.Minic.Interp.work
    | Error e -> Alcotest.failf "%d blocks: %s" n e
  in
  let refused = ref 0 and derived = ref 0 in
  List.iter
    (fun fuel ->
      List.iter
        (fun n ->
          let ran =
            Minic.Compile_eval.run_compiled ~fuel (St.reblock ~nblocks:n lowered)
          in
          match (St.retrace ~fuel regions lowered ~nblocks:[ n ], ran) with
          | Ok [ r ], Ok o ->
              incr derived;
              Alcotest.(check int) "fuel" o.Minic.Interp.work r.St.rt_work
          | Error (St.Fuel_exhausted m), Error e ->
              incr refused;
              Alcotest.(check int) "count" n m;
              Alcotest.(check string) "run" "out of fuel" e
          | Ok _, Error e ->
              Alcotest.failf "fuel %d, %d blocks: derived, but the run: %s" fuel
                n e
          | Error r, Ok _ ->
              Alcotest.failf "fuel %d, %d blocks: the run completes, refused: %s"
                fuel n (refusal r)
          | _ -> Alcotest.fail "one count, one trace")
        counts)
    (* at the budget a run burns its last unit and stops; one above, it
       completes *)
    [ work 20; work 20 + 1; work 64 + 1 ];
  Alcotest.(check bool) "some counts refused" true (!refused > 0);
  Alcotest.(check bool) "some derived" true (!derived > 0);
  (* a budget below the profiled run is that run's failure *)
  match St.retrace ~fuel:(work 4) regions lowered ~nblocks:[ 1 ] with
  | Error (St.Run_failed "out of fuel") -> ()
  | _ -> Alcotest.fail "expected the 4-block run to run out"

(* ------------------------------------------------------------------ *)
(* One compile per streamed preparation                               *)
(* ------------------------------------------------------------------ *)

let test_one_compile () =
  let results =
    Domain.join
      (Domain.spawn (fun () ->
           List.map
             (fun name ->
               let obs = Obs.create () in
               let before = Minic.Compile_eval.compile_count () in
               ignore
                 (Tune.prepare ~obs ~max_devices:4 ~max_streams:2
                    (Workloads.Registry.find_exn name));
               ( name,
                 Minic.Compile_eval.compile_count () - before,
                 Obs.count obs "tune.traces.executed",
                 Obs.count obs "tune.traces.derived" ))
             [ "blackscholes"; "kmeans"; "nn" ]))
  in
  List.iter
    (fun (name, compiles, executed, derived) ->
      Alcotest.(check int) (name ^ ": compiles") 1 compiles;
      Alcotest.(check int) (name ^ ": executed traces") 1 executed;
      Alcotest.(check int) (name ^ ": derived traces") 10 derived)
    results

let suite =
  [
    tc "derived traces equal executed ones: registry, examples, corpus"
      test_contract_files;
    prop "derived traces equal executed ones: generated programs" ~count:200
      arb_generated (fun (pat, seed) ->
        ignore
          (check_contract
             (Printf.sprintf "%s seed %d" (Check.Genprog.pattern_name pat) seed)
             (parse (Check.Genprog.generate pat ~seed)));
        true);
    tc "a failed profiled run refuses; prepare runs every count"
      test_refuse_run_failed;
    tc "regions streaming the same inputs refuse" test_refuse_ambiguous;
    tc "an unrecognised instance refuses" test_refuse_unrecognised;
    tc "an empty iteration space refuses" test_refuse_empty;
    tc "a contradictory slice end refuses" test_refuse_unobservable_end;
    tc "derived fuel refuses exactly the counts that run out"
      test_refuse_fuel;
    tc "a streamed prepare compiles once and derives 10 traces"
      test_one_compile;
  ]
