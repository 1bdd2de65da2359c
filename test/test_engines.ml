(* Engine equivalence: the compiled evaluator (Minic.Compile_eval) must
   be observationally identical to the reference interpreter — output,
   return value, globals snapshot, stats, event trace, fuel accounting,
   and error messages, at the same evaluation points.

   The differential harness (lib/check) runs the compiled engine by
   default, so any gap here would silently change what `compc check`
   verifies.  This suite pins the contract with the 12-family generator,
   the registry workloads, their transformed variants, and a bank of
   error-path programs. *)

open Helpers
module I = Minic.Interp
module CE = Minic.Compile_eval

(* Full-outcome equality.  [compare] (not [=]) for value-carrying
   fields, so NaN floats in globals/ret compare equal under the same
   total order for both engines. *)
let outcome_mismatch (a : I.outcome) (b : I.outcome) =
  if not (String.equal a.output b.output) then
    Some (Printf.sprintf "output %S vs %S" a.output b.output)
  else if compare a.ret b.ret <> 0 then Some "return value differs"
  else if compare a.globals b.globals <> 0 then Some "globals differ"
  else if a.stats <> b.stats then Some "stats differ"
  else if a.events <> b.events then Some "events differ"
  else if a.work <> b.work then
    Some (Printf.sprintf "work %d vs %d" a.work b.work)
  else None

let agree ?fuel name prog =
  let r = I.run ?fuel prog in
  let c = CE.run_compiled ?fuel prog in
  match (r, c) with
  | Ok ro, Ok co -> (
      match outcome_mismatch ro co with
      | None -> ()
      | Some why -> Alcotest.failf "%s: engines disagree: %s" name why)
  | Error re, Error ce ->
      Alcotest.(check string) (name ^ ": same error") re ce
  | Ok _, Error ce ->
      Alcotest.failf "%s: reference ok, compiled failed: %s" name ce
  | Error re, Ok _ ->
      Alcotest.failf "%s: reference failed (%s), compiled ok" name re

let agree_src ?fuel name src = agree ?fuel name (parse src)

(* Pinned generator seeds: enough to hit every family's idioms without
   turning tier-1 into a fuzz run (the @fuzz alias covers volume). *)
let gen_seeds = [ 1; 2; 3 ]

let generated_cases =
  List.concat_map
    (fun pat ->
      List.map
        (fun seed ->
          let name =
            Printf.sprintf "%s/seed=%d" (Check.Genprog.pattern_name pat) seed
          in
          tc ("generated " ^ name) (fun () ->
              agree_src name (Check.Genprog.generate pat ~seed)))
        gen_seeds)
    Check.Genprog.all_patterns

(* The same programs after each transform: offload/transfer-heavy
   rewrites (streaming's chunked transfers, merge's fused regions) are
   where the two engines' event traces could plausibly drift. *)
let transformed_cases =
  List.concat_map
    (fun pat ->
      List.concat_map
        (fun txf ->
          List.filter_map
            (fun seed ->
              let prog = parse (Check.Genprog.generate pat ~seed) in
              let prog', sites = Check.apply txf prog in
              if sites = 0 then None
              else
                let name =
                  Printf.sprintf "%s(%s)/seed=%d"
                    (Check.transform_name txf)
                    (Check.Genprog.pattern_name pat)
                    seed
                in
                Some
                  (tc ("transformed " ^ name) (fun () -> agree name prog')))
            [ 1; 2 ])
        Check.all_transforms)
    Check.Genprog.all_patterns

let workload_cases =
  List.map
    (fun w ->
      let name = w.Workloads.Workload.name in
      tc ("workload " ^ name) (fun () ->
          agree name (Workloads.Workload.program w)))
    Workloads.Registry.all

(* The per-event profile: both engines record the same details beside
   the same outcome, and profiling changes no outcome.  Each program
   runs as written (offload clauses), through the pipeline with
   residency (nocopy, resident events), and as the 4-block lowering
   the re-tracer profiles (the streamed pattern). *)
let profile_agree ?fuel name prog =
  let plain = CE.run_compiled ?fuel prog in
  match (I.run_profiled ?fuel prog, CE.run_profiled ?fuel prog) with
  | Ok (ro, rd), Ok (co, cd) ->
      (match outcome_mismatch ro co with
      | None -> ()
      | Some why -> Alcotest.failf "%s: profiled engines disagree: %s" name why);
      (match plain with
      | Ok po when outcome_mismatch po co = None -> ()
      | _ -> Alcotest.failf "%s: profiling changed the outcome" name);
      if List.length rd <> List.length ro.events then
        Alcotest.failf "%s: %d details for %d events" name (List.length rd)
          (List.length ro.events);
      if rd <> cd then Alcotest.failf "%s: the engines' details differ" name;
      rd
  | Error re, Error ce ->
      Alcotest.(check string) (name ^ ": same error") re ce;
      (match plain with
      | Error pe -> Alcotest.(check string) (name ^ ": unprofiled error") pe ce
      | Ok _ -> Alcotest.failf "%s: profiling made the run fail" name);
      []
  | Ok _, Error ce ->
      Alcotest.failf "%s: reference ok, compiled failed: %s" name ce
  | Error re, Ok _ ->
      Alcotest.failf "%s: reference failed (%s), compiled ok" name re

let test_profile_parity () =
  let loops = ref 0 and sections = ref 0 in
  let check name prog =
    let variants =
      [
        (name, prog);
        (name ^ " residency", fst (Comp.optimize ~residency:true prog));
        ( name ^ " at 4 blocks",
          Transforms.Streaming.reblock ~nblocks:4 (fst (Comp.optimize prog)) );
      ]
    in
    List.iter
      (fun (name, prog) ->
        List.iter
          (fun (d : I.detail) ->
            if Option.is_some d.d_loop then incr loops;
            if d.d_sections <> [] then incr sections)
          (profile_agree name prog))
      variants
  in
  List.iter
    (fun pat ->
      List.iter
        (fun seed ->
          check
            (Printf.sprintf "%s/seed=%d" (Check.Genprog.pattern_name pat) seed)
            (parse (Check.Genprog.generate pat ~seed)))
        gen_seeds)
    Check.Genprog.all_patterns;
  List.iter
    (fun w -> check w.Workloads.Workload.name (Workloads.Workload.program w))
    Workloads.Registry.all;
  Alcotest.(check bool) "kernel loops recorded" true (!loops > 100);
  Alcotest.(check bool) "transfer sections recorded" true (!sections > 100)

(* Error paths: every message must be byte-identical and raised at the
   same point.  The two cases the issue pins by name come first. *)
let error_sources =
  [
    ( "mic-space-violation: untransferred array",
      {|int main(void) {
          int n = 2;
          float a[2];
          float b[2];
          a[0] = 1.0;
          a[1] = 2.0;
          #pragma offload target(mic:0) out(b[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i++) { b[i] = a[i]; }
          return 0;
        }|} );
    ( "mic-space-violation: host scalar write",
      {|int main(void) {
          int n = 2;
          float b[2];
          int acc = 0;
          #pragma offload target(mic:0) out(b[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i++) {
            b[i] = 0.0;
            acc = i;
          }
          return acc;
        }|} );
    ( "in() clause unbound",
      {|int main(void) {
          int n = 2;
          float b[2];
          #pragma offload target(mic:0) in(a[0:n]) out(b[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i++) { b[i] = 0.0; }
          return 0;
        }|} );
    ( "offload_transfer in() unbound",
      "int main(void) {\n\
       #pragma offload_transfer target(mic:0) in(ghost[0:4])\n\
       return 0; }" );
    ( "into() unbound",
      {|int main(void) {
          float a[4];
          for (i = 0; i < 4; i++) { a[i] = 0.0; }
          #pragma offload_transfer target(mic:0) in(a[0:4] : into(d[0:4]))
          return 0;
        }|} );
    ( "out() before any in()",
      {|int main(void) {
          float a[2];
          a[0] = 1.0;
          #pragma offload_transfer target(mic:0) out(a[0:2])
          return 0;
        }|} );
    ( "negative section length",
      {|int main(void) {
          float a[4];
          int n = 0 - 2;
          #pragma offload_transfer target(mic:0) in(a[0:n])
          return 0;
        }|} );
    ("division by zero", "int main(void) { int z = 0; return 1 / z; }");
    ("modulo by zero", "int main(void) { int z = 0; return 1 % z; }");
    ("mod on floats", "int main(void) { float x = 1.0; return x % 2; }");
    ("undefined value", "int main(void) { int x; return x + 1; }");
    ("unbound variable", "int main(void) { return y; }");
    ("unknown function", "int main(void) { return nope(3); }");
    ("indexing non-array", "int main(void) { int x = 1; return x[0]; }");
    ("no main", "int f(void) { return 0; }");
    ( "unknown struct",
      "int main(void) { struct t y; return 0; }" );
    ( "break outside loop in function",
      "int f(void) { break; return 0; } int main(void) { return f(); }" );
    ( "control flow escaped offload",
      {|int main(void) {
          float b[2];
          while (true) {
            #pragma offload target(mic:0) out(b[0:2])
            break;
          }
          return 0;
        }|} );
    ( "out-of-fuel infinite loop",
      "int main(void) { while (true) { int x = 0; } return 0; }" );
    ( "load out of bounds",
      "int main(void) { int a[2]; return a[5]; }" );
  ]

(* Programs in which [main] calls itself, at a budget small enough for
   unbounded recursion to run out of fuel in milliseconds.  Only
   [main]'s entry activation sees the globals; the compiled engine
   compiles the globals-free copy on the first recursive call. *)
let recursive_main_fuel = 100_000

let recursive_main_sources =
  [
    ( "recursive main reads a global",
      "int g = 1; int main(void) { print_int(g); return main(); }" );
    ("unbounded recursive main", "int main(void) { return main(); }");
  ]

let error_cases =
  List.map
    (fun (name, src) -> tc ("error parity: " ^ name) (fun () ->
         agree_src name src))
    error_sources
  @ List.map
      (fun (name, src) ->
        tc ("error parity: " ^ name) (fun () ->
            agree_src ~fuel:recursive_main_fuel name src))
      recursive_main_sources

(* Timeout fuel parity: stepping the fuel budget one unit at a time
   across a program with loops, calls, pragmas, and an offload must
   flip from Error "out of fuel" to Ok at the same budget, with equal
   partial output traces invisible (no outcome on error) and equal
   [work] once both complete — i.e. both engines burn fuel at exactly
   the same points. *)
let fuel_parity_src =
  {|int f(int n) {
      int s = 0;
      for (i = 0; i < n; i++) { s += i; }
      return s;
    }
    int main(void) {
      int t = 0;
      float b[3];
      while (t < 4) {
        t = t + 1;
        print_int(f(t));
      }
      #pragma offload target(mic:0) out(b[0:3])
      #pragma omp parallel for
      for (i = 0; i < 3; i++) { b[i] = (float)i; }
      return t;
    }|}

let suite =
  generated_cases @ transformed_cases @ workload_cases @ error_cases
  @ [
      tc "profiled runs agree, detail for detail" test_profile_parity;
      tc "profiled error parity" (fun () ->
          (* a smaller budget: the infinite loop need not burn 10M *)
          List.iter
            (fun (name, src) ->
              ignore (profile_agree ~fuel:100_000 name (parse src)))
            (error_sources @ recursive_main_sources));
      tc "timeout fuel parity, one unit at a time" (fun () ->
          let prog = parse fuel_parity_src in
          for fuel = 2 to 150 do
            agree ~fuel (Printf.sprintf "fuel=%d" fuel) prog
          done);
      (* satellite 1 regression: duplicate definitions keep first-wins
         semantics under the Hashtbl-backed name tables, in both
         engines.  Built as an AST because the parser path isn't the
         interesting one here. *)
      tc "duplicate definitions resolve first-wins" (fun () ->
          let open Minic.Ast in
          let f ret_val =
            Gfunc
              {
                ret = Tint;
                fname = "f";
                params = [];
                body = [ Sreturn (Some (Int_lit ret_val)) ];
              }
          in
          let s2 = Gstruct { sname = "s"; sfields = [ (Tint, "a"); (Tint, "b") ] } in
          let s1 = Gstruct { sname = "s"; sfields = [ (Tint, "a") ] } in
          let main =
            Gfunc
              {
                ret = Tint;
                fname = "main";
                params = [];
                body =
                  [
                    Sdecl (Tstruct "s", "x", None);
                    Sassign (Field (Var "x", "b"), Int_lit 3);
                    Sexpr
                      (Call
                         ( "print_int",
                           [
                             Binop
                               ( Add,
                                 Binop (Add, Call ("f", []), Var "g"),
                                 Field (Var "x", "b") );
                           ] ));
                    Sreturn (Some (Field (Var "x", "b")));
                  ];
              }
          in
          let prog =
            [
              s2; s1;  (* two-field struct first: x.b must exist *)
              f 1; f 2;
              Gvar (Tint, "g", Some (Int_lit 10));
              Gvar (Tint, "g", Some (Int_lit 20));
              main;
            ]
          in
          (match I.run prog with
          | Ok o ->
              Alcotest.(check string) "first f, first g, 2-field s" "14\n"
                o.I.output;
              Alcotest.(check bool) "ret" true (compare o.I.ret (I.Vint 3) = 0)
          | Error e -> Alcotest.failf "reference failed: %s" e);
          agree "duplicate definitions" prog);
      (* the compiled-program cache: N runs of one AST compile once *)
      tc "cache compiles a program once per domain" (fun () ->
          let prog = parse "int main(void) { print_int(7); return 0; }" in
          let before = CE.compile_count () in
          for _ = 1 to 5 do
            match CE.run_compiled prog with
            | Ok o -> Alcotest.(check string) "output" "7\n" o.I.output
            | Error e -> Alcotest.failf "compiled run failed: %s" e
          done;
          Alcotest.(check int) "one compilation" (before + 1)
            (CE.compile_count ()));
      (* engine selector dispatches to the reference when asked *)
      tc "run ?engine escape hatch" (fun () ->
          let prog = parse "int main(void) { print_int(1); return 0; }" in
          match
            ( CE.run ~engine:I.Reference prog,
              CE.run ~engine:I.Compiled prog )
          with
          | Ok a, Ok b -> (
              match outcome_mismatch a b with
              | None -> ()
              | Some why -> Alcotest.failf "engines disagree: %s" why)
          | _ -> Alcotest.fail "both engines should succeed");
      (* the [i < n] fast path: a for loop bounded by a local variable
         takes a dedicated compiled route (single scope lookup); its
         observable behaviour must stay identical to the reference on
         the plain case, when the bound is written inside the body, and
         when the bound is a parameter rather than a local *)
      tc "for-loop variable bound (fast path)" (fun () ->
          agree_src "var-bound loop"
            {|int main(void) {
                int n = 5;
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + i; }
                print_int(s);
                return s;
              }|});
      tc "for-loop variable bound mutated in body" (fun () ->
          agree_src "mutated bound"
            {|int main(void) {
                int n = 8;
                int s = 0;
                for (int i = 0; i < n; i++) {
                  s = s + 1;
                  if (i == 2) { n = 4; }
                }
                print_int(s);
                print_int(n);
                return 0;
              }|});
      tc "for-loop parameter bound" (fun () ->
          agree_src "param bound"
            {|int count(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + 2; }
                return s;
              }
              int main(void) {
                print_int(count(6));
                return 0;
              }|});
      tc "for-loop variable bound fuel parity" (fun () ->
          agree_src ~fuel:40 "var-bound fuel"
            {|int main(void) {
                int n = 1000;
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + i; }
                return s;
              }|});
    ]
