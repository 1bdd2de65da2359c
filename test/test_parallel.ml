(* The domain pool and the Obs sink merge it relies on.

   The contract under test is determinism: results in submission
   order at any pool width, the lowest-index exception, width-
   independent seed derivation, and per-task sinks that merge back
   into exactly the sequential profile. *)

open Helpers

let squares n = List.init n (fun i -> i * i)

(* A task mix with deliberately uneven cost, so completion order
   differs from submission order whenever domains really interleave. *)
let uneven i =
  let rec burn acc k = if k = 0 then acc else burn ((acc * 31) + k) (k - 1) in
  burn i ((i * 7919 mod 1000) + 1)

let obs_json o = Obs.Json.to_string (Obs.to_json o)

(* Build a sink from a replayable script: counters, observations, and
   a couple of spans keyed off a seed. *)
let scripted_sink seed =
  let o = Obs.create () in
  let st = Random.State.make [| seed |] in
  for _ = 1 to 1 + Random.State.int st 8 do
    let name = [| "a"; "b"; "c" |].(Random.State.int st 3) in
    Obs.incr ~by:(1 + Random.State.int st 5) o name;
    Obs.observe o name (Random.State.float st 100.)
  done;
  let t = Random.State.float st 10. in
  Obs.span ~bytes:(Random.State.float st 1e6) o Obs.H2d ~label:"x" ~start:t
    ~stop:(t +. 1.);
  o

let suite =
  [
    tc "results come back in submission order" (fun () ->
        Alcotest.(check (list int))
          "squares" (squares 100)
          (Parallel.run ~jobs:4 100 (fun i -> i * i)));
    tc "jobs=1 equals jobs=4 on uneven work" (fun () ->
        Alcotest.(check (list int))
          "same results"
          (Parallel.run ~jobs:1 64 uneven)
          (Parallel.run ~jobs:4 64 uneven));
    tc "map follows input order" (fun () ->
        let xs = List.init 50 (fun i -> 49 - i) in
        Alcotest.(check (list int))
          "map" (List.map succ xs)
          (Parallel.map ~jobs:3 succ xs));
    tc "zero tasks" (fun () ->
        Alcotest.(check (list int)) "empty" [] (Parallel.run ~jobs:4 0 uneven));
    tc "negative task count rejected" (fun () ->
        match Parallel.run ~jobs:2 (-1) uneven with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    tc "lowest failing index wins, whatever the width" (fun () ->
        List.iter
          (fun jobs ->
            (match
               Parallel.run ~jobs 32 (fun i ->
                   if i mod 5 = 2 then failwith (string_of_int i) else i)
             with
            | exception Failure s ->
                Alcotest.(check string)
                  (Printf.sprintf "jobs=%d" jobs)
                  "2" s
            | _ -> Alcotest.fail "expected Failure");
            (* the helpers that ran the raising tasks serve the next run *)
            Alcotest.(check (list int))
              (Printf.sprintf "next run at jobs=%d" jobs)
              (squares 32)
              (Parallel.run ~jobs 32 (fun i -> i * i)))
          [ 1; 2; 4; 8 ]);
    tc "helpers are reused across calls" (fun () ->
        (* no call in this test binary is wider than 8 or the default
           width, so the caller plus the helpers ever spawned are at
           most [widest] domains, however many calls are made *)
        let widest = max 8 (Parallel.default_jobs ()) in
        let ids = Hashtbl.create 16 in
        for _ = 1 to 50 do
          List.iter
            (fun id -> Hashtbl.replace ids id ())
            (Parallel.run ~jobs:2 8 (fun _ -> (Domain.self () :> int)))
        done;
        Alcotest.(check bool)
          (Printf.sprintf "%d distinct domains over 50 calls"
             (Hashtbl.length ids))
          true
          (Hashtbl.length ids <= widest));
    tc "nested calls return the right lists" (fun () ->
        let inner i = List.init 5 (fun j -> (10 * i) + j) in
        List.iter
          (fun outer ->
            Alcotest.(check (list (list int)))
              (Printf.sprintf "outer jobs=%d" outer)
              (List.init 6 inner)
              (Parallel.run ~jobs:outer 6 (fun i ->
                   Parallel.run ~jobs:3 5 (fun j -> (10 * i) + j))))
          [ 2; 4 ]);
    tc "concurrent callers on two domains" (fun () ->
        let caller k () =
          let bad = ref 0 in
          for c = 1 to 500 do
            if
              Parallel.run ~jobs:2 8 (fun i -> (k * i) + c)
              <> List.init 8 (fun i -> (k * i) + c)
            then incr bad
          done;
          !bad
        in
        let a = Domain.spawn (caller 3) and b = Domain.spawn (caller 5) in
        Alcotest.(check (pair int int))
          "wrong results" (0, 0)
          (Domain.join a, Domain.join b));
    tc "COMP_JOBS sets the default width" (fun () ->
        Unix.putenv "COMP_JOBS" "3";
        Alcotest.(check int) "set" 3 (Parallel.default_jobs ());
        Unix.putenv "COMP_JOBS" "0";
        Alcotest.(check bool)
          "non-positive ignored" true
          (Parallel.default_jobs () >= 1);
        Unix.putenv "COMP_JOBS" "nope";
        Alcotest.(check bool)
          "garbage ignored" true
          (Parallel.default_jobs () >= 1);
        Unix.putenv "COMP_JOBS" "");
    tc "jobs_of clamps to at least one" (fun () ->
        Alcotest.(check int) "Some 0" 1 (Parallel.jobs_of (Some 0));
        Alcotest.(check int) "Some -5" 1 (Parallel.jobs_of (Some (-5)));
        Alcotest.(check int) "Some 7" 7 (Parallel.jobs_of (Some 7)));
    tc "derive_seed: non-negative and distinct" (fun () ->
        (* non-negative implies it fits the 62 bits the .mli promises:
           OCaml's max_int is 2^62 - 1 *)
        let seen = Hashtbl.create 4096 in
        List.iter
          (fun root ->
            for i = 0 to 999 do
              let s = Parallel.derive_seed ~root i in
              if s < 0 then Alcotest.failf "negative seed %d" s;
              if Hashtbl.mem seen s then
                Alcotest.failf "seed collision at root=%d i=%d" root i;
              Hashtbl.add seen s ()
            done)
          [ 0; 1; 7; 413 ]);
    prop "pool result equals List.init for arbitrary sizes" ~count:50
      QCheck.(pair (int_bound 200) (int_bound 7))
      (fun (n, j) ->
        Parallel.run ~jobs:(j + 1) n uneven = List.init n uneven);
    (* {1 Obs.merge} *)
    tc "merge conserves counters, histograms, and spans" (fun () ->
        let a = scripted_sink 1 and b = scripted_sink 2 in
        let total o name = Obs.count o name in
        let expect_a = total a "a" + total b "a" in
        let span_total = Obs.span_count a + Obs.span_count b in
        let spans_b = Obs.spans b in
        Obs.merge a b;
        Alcotest.(check int) "counter a" expect_a (Obs.count a "a");
        Alcotest.(check int) "spans" span_total (Obs.span_count a);
        (* b's spans sit after a's existing ones in oldest-first view
           only if a merged later; here b was merged into a, so a's
           own spans come first *)
        let merged = Obs.spans a in
        let tail =
          List.filteri (fun i _ -> i >= List.length merged - List.length spans_b)
            merged
        in
        Alcotest.(check int)
          "src spans preserved in order" 0
          (compare tail spans_b));
    tc "merge from an empty sink is the identity" (fun () ->
        let a = scripted_sink 3 in
        let before = obs_json a in
        Obs.merge a (Obs.create ());
        Alcotest.(check string) "unchanged" before (obs_json a);
        (* and empty-histogram neutrality: merging a sink whose
           histogram has no samples must not drag min to 0 *)
        let c = Obs.create () in
        Obs.observe c "a" 5.0;
        let d = Obs.create () in
        Obs.merge c d;
        match Obs.histogram c "a" with
        | Some h -> Alcotest.(check (float 1e-12)) "min intact" 5.0 h.Obs.h_min
        | None -> Alcotest.fail "histogram lost");
    tc "merge rejects a source with open spans" (fun () ->
        let a = Obs.create () and b = Obs.create () in
        ignore (Obs.span_begin b Obs.Kernel ~label:"open" ~start:0.);
        match Obs.merge a b with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
    prop "merge is associative" ~count:100
      QCheck.(triple small_nat small_nat small_nat)
      (fun (x, y, z) ->
        let mk = scripted_sink in
        let l = mk x and r = mk x in
        (* left fold: (l <- y) <- z *)
        Obs.merge l (mk y);
        Obs.merge l (mk z);
        (* right fold: yz = y <- z, then r <- yz *)
        let yz = mk y in
        Obs.merge yz (mk z);
        Obs.merge r yz;
        obs_json l = obs_json r && Obs.spans l = Obs.spans r);
    prop "merge aggregates are commutative" ~count:100
      QCheck.(pair small_nat small_nat)
      (fun (x, y) ->
        let ab = scripted_sink x and ba = scripted_sink y in
        Obs.merge ab (scripted_sink y);
        Obs.merge ba (scripted_sink x);
        (* json covers counters, per-kind totals, histogram summaries;
           span *order* is deliberately not commutative *)
        obs_json ab = obs_json ba);
    tc "per-task sinks merged in order equal the sequential sink" (fun () ->
        let ws =
          List.filteri (fun i _ -> i < 4) Workloads.Registry.all
        in
        let seq = Obs.create () in
        List.iter
          (fun w -> ignore (Comp.schedule ~obs:seq w Comp.Mic_optimized))
          ws;
        let merged = Obs.create () in
        List.iter
          (fun o -> Obs.merge merged o)
          (Parallel.map ~jobs:4
             (fun w ->
               let obs = Obs.create () in
               ignore (Comp.schedule ~obs w Comp.Mic_optimized);
               obs)
             ws);
        Alcotest.(check string)
          "profiles identical" (obs_json seq) (obs_json merged);
        Alcotest.(check int)
          "span streams identical" 0
          (compare (Obs.spans seq) (Obs.spans merged)));
    (* {1 Compiled-engine cache under domains} *)
    tc "compile cache is per-domain and coherent under the pool" (fun () ->
        (* every domain compiles the program at most once no matter how
           many tasks it runs, and compiled results equal the reference
           at any pool width *)
        let prog =
          Minic.Parser.program_of_string_exn
            "int main(void) { int s = 0; for (i = 0; i < 40; i++) { s = s \
             + i * i; } return s; }"
        in
        let expect =
          match Minic.Interp.run prog with
          | Ok o -> o.Minic.Interp.ret
          | Error e -> Alcotest.failf "reference failed: %s" e
        in
        let outcomes =
          Parallel.run ~jobs:4 16 (fun _ ->
              let before = Minic.Compile_eval.compile_count () in
              let r =
                match Minic.Compile_eval.run_compiled prog with
                | Ok o -> o.Minic.Interp.ret
                | Error e -> Alcotest.failf "compiled failed: %s" e
              in
              let after = Minic.Compile_eval.compile_count () in
              (r, after - before))
        in
        List.iter
          (fun (r, compiles) ->
            Alcotest.(check bool) "same return" true (compare expect r = 0);
            (* this task observed its own domain's counter: it grew by
               at most one compile (zero when a pool mate or an earlier
               task on the same domain already filled the cache) *)
            Alcotest.(check bool)
              "at most one compile per task" true
              (compiles <= 1))
          outcomes);
  ]
