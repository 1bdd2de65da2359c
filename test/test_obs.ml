open Helpers
module P = Runtime.Plan

let cfg = Machine.Config.paper_default

(* Minimal recursive-descent JSON syntax checker — there is no JSON
   parser in the dependency set, and the point is exactly that the
   hand-rolled encoder emits valid syntax for arbitrary profiles. *)
let json_ok (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let adv () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        adv ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some x when x = c ->
        adv ();
        true
    | _ -> false
  in
  let lit w =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (
      pos := !pos + l;
      true)
    else false
  in
  let string_rest () =
    (* after the opening quote *)
    let rec go () =
      match peek () with
      | None -> false
      | Some '"' ->
          adv ();
          true
      | Some '\\' ->
          adv ();
          if peek () = None then false
          else (
            adv ();
            go ())
      | Some _ ->
          adv ();
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when numchar c -> true | _ -> false do
      adv ()
    done;
    !pos > start
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        adv ();
        obj_first ()
    | Some '[' ->
        adv ();
        arr_first ()
    | Some '"' ->
        adv ();
        string_rest ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | Some 'n' -> lit "null"
    | _ -> false
  and pair () =
    expect '"' && string_rest () && expect ':' && value ()
  and obj_first () =
    skip_ws ();
    match peek () with
    | Some '}' ->
        adv ();
        true
    | _ -> pair () && obj_rest ()
  and obj_rest () =
    skip_ws ();
    match peek () with
    | Some '}' ->
        adv ();
        true
    | Some ',' ->
        adv ();
        pair () && obj_rest ()
    | _ -> false
  and arr_first () =
    skip_ws ();
    match peek () with
    | Some ']' ->
        adv ();
        true
    | _ -> value () && arr_rest ()
  and arr_rest () =
    skip_ws ();
    match peek () with
    | Some ']' ->
        adv ();
        true
    | Some ',' ->
        adv ();
        value () && arr_rest ()
    | _ -> false
  in
  let ok = value () in
  skip_ws ();
  ok && !pos = n

let close a b =
  Float.abs (a -. b)
  <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let obs_json o = Obs.Json.to_string (Obs.to_json o)

(* A replayable sink whose every float is a small multiple of 1/4, so
   sums are exact in any order and aggregates can be compared bit for
   bit whichever way [merge] and [absorb] associate them. *)
let dyadic_sink seed =
  let o = Obs.create () in
  let st = Random.State.make [| seed |] in
  let quarter n = float_of_int (Random.State.int st n) /. 4. in
  for _ = 1 to 1 + Random.State.int st 6 do
    let name = [| "a"; "b"; "c" |].(Random.State.int st 3) in
    Obs.incr ~by:(1 + Random.State.int st 5) o name;
    Obs.observe o name (quarter 400)
  done;
  for _ = 0 to Random.State.int st 5 do
    let kind = List.nth Obs.all_kinds (Random.State.int st 4) in
    let start = quarter 40 in
    Obs.span ~bytes:(quarter 4000) o kind ~label:"s" ~start
      ~stop:(start +. quarter 8)
  done;
  o

(* The reference per-kind fold over a sink's spans: newest first, from
   zero. *)
let reference_by_kind o =
  List.filter_map
    (fun k ->
      let s =
        List.fold_left
          (fun (acc : Obs.kind_stat) sp ->
            if sp.Obs.span_kind = k then
              {
                Obs.ks_count = acc.Obs.ks_count + 1;
                ks_bytes = acc.Obs.ks_bytes +. sp.Obs.span_bytes;
                ks_seconds =
                  acc.Obs.ks_seconds
                  +. (sp.Obs.span_stop -. sp.Obs.span_start);
              }
            else acc)
          { Obs.ks_count = 0; ks_bytes = 0.; ks_seconds = 0. }
          (List.rev (Obs.spans o))
      in
      if s.Obs.ks_count = 0 then None else Some (k, s))
    Obs.all_kinds

let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_stats =
  List.equal (fun (k, (a : Obs.kind_stat)) (k', (b : Obs.kind_stat)) ->
      k = k'
      && a.Obs.ks_count = b.Obs.ks_count
      && same_bits a.Obs.ks_bytes b.Obs.ks_bytes
      && same_bits a.Obs.ks_seconds b.Obs.ks_seconds)

let suite =
  [
    tc "counters accumulate and list sorted" (fun () ->
        let o = Obs.create () in
        Obs.incr o "b";
        Obs.incr ~by:4 o "a";
        Obs.add o "a" 2;
        Alcotest.(check int) "a" 6 (Obs.count o "a");
        Alcotest.(check int) "b" 1 (Obs.count o "b");
        Alcotest.(check int) "absent" 0 (Obs.count o "zzz");
        Alcotest.(check (list (pair string int)))
          "sorted"
          [ ("a", 6); ("b", 1) ]
          (Obs.counters o));
    tc "histogram tracks count/total/min/max" (fun () ->
        let o = Obs.create () in
        List.iter (Obs.observe o "x") [ 1.0; 3.0; 2.0 ];
        match Obs.histogram o "x" with
        | None -> Alcotest.fail "missing histogram"
        | Some h ->
            Alcotest.(check int) "count" 3 h.Obs.h_count;
            Alcotest.(check (float 1e-12)) "total" 6.0 h.Obs.h_total;
            Alcotest.(check (float 1e-12)) "min" 1.0 h.Obs.h_min;
            Alcotest.(check (float 1e-12)) "max" 3.0 h.Obs.h_max;
            Alcotest.(check (float 1e-12)) "mean" 2.0 (Obs.mean h));
    tc "histogram min is the first sample, not zero" (fun () ->
        (* regression guard: a zero-initialized running minimum would
           report 0 for any all-positive sample stream *)
        let o = Obs.create () in
        Obs.observe o "lat" 3.5;
        match Obs.histogram o "lat" with
        | None -> Alcotest.fail "missing histogram"
        | Some h ->
            Alcotest.(check (float 1e-12)) "min" 3.5 h.Obs.h_min;
            Alcotest.(check (float 1e-12)) "max" 3.5 h.Obs.h_max);
    tc "span begin/end round-trips" (fun () ->
        let o = Obs.create () in
        let id = Obs.span_begin ~bytes:7. o Obs.H2d ~label:"t" ~start:1.0 in
        Alcotest.(check (list (pair string string)))
          "open" [ ("h2d", "t") ]
          (List.map
             (fun (k, l) -> (Obs.kind_name k, l))
             (Obs.unclosed o));
        Obs.span_end o id ~stop:2.5;
        Alcotest.(check int) "closed" 0 (List.length (Obs.unclosed o));
        match Obs.spans o with
        | [ sp ] ->
            Alcotest.(check (float 1e-12)) "start" 1.0 sp.Obs.span_start;
            Alcotest.(check (float 1e-12)) "stop" 2.5 sp.Obs.span_stop;
            Alcotest.(check (float 1e-12)) "bytes" 7. sp.Obs.span_bytes
        | l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
    tc "ending an unknown span is rejected" (fun () ->
        let o = Obs.create () in
        match Obs.span_end o 42 ~stop:1.0 with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected invalid_arg");
    tc "kind names round-trip" (fun () ->
        List.iter
          (fun k ->
            match Obs.kind_of_name (Obs.kind_name k) with
            | Some k' when k' = k -> ()
            | _ -> Alcotest.failf "kind %s" (Obs.kind_name k))
          Obs.all_kinds);
    tc "json escapes and non-finite floats" (fun () ->
        let j =
          Obs.Json.(
            Obj
              [
                ("q", String "a\"b\\c\nd");
                ("nan", Float Float.nan);
                ("inf", Float Float.infinity);
              ])
        in
        let s = Obs.Json.to_string j in
        Alcotest.(check bool) "valid" true (json_ok s);
        Alcotest.(check bool) "nan is null" true (contains ~sub:"null" s);
        Alcotest.(check bool)
          "escaped quote" true
          (contains ~sub:{|a\"b|} s));
    tc "json parser round-trips the encoder" (fun () ->
        let j =
          Obs.Json.(
            Obj
              [
                ("s", String "a\"b\\c\nd\te");
                ("i", Int (-42));
                ("f", Float 1.5);
                ("big", Float 1.23456789e20);
                ("b", Bool true);
                ("nil", Null);
                ("l", List [ Int 1; Obj [ ("x", Int 2) ]; List [] ]);
                ("empty", Obj []);
              ])
        in
        let s = Obs.Json.to_string j in
        match Obs.Json.of_string s with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok j' ->
            Alcotest.(check bool) "tree equal" true (j = j');
            Alcotest.(check string)
              "reprint equal" s
              (Obs.Json.to_string j'));
    tc "json parser accepts whitespace and escapes" (fun () ->
        match
          Obs.Json.of_string
            " { \"k\" : [ 1 , 2.5 , \"\\u0041\\n\" , true , null ] } "
        with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok j ->
            Alcotest.(check bool)
              "tree" true
              Obs.Json.(
                j
                = Obj
                    [
                      ( "k",
                        List
                          [ Int 1; Float 2.5; String "A\n"; Bool true; Null ]
                      );
                    ]));
    tc "json parser rejects malformed input" (fun () ->
        List.iter
          (fun s ->
            match Obs.Json.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted malformed %S" s)
          [
            "";
            "{";
            "{\"a\":}";
            "[1,]";
            "nul";
            "\"unterminated";
            "{\"a\":1} trailing";
            "{'a':1}";
            "+5";
          ]);
    tc "json member looks up object fields" (fun () ->
        let j = Obs.Json.(Obj [ ("a", Int 1); ("b", String "x") ]) in
        Alcotest.(check bool)
          "hit" true
          (Obs.Json.member "b" j = Some (Obs.Json.String "x"));
        Alcotest.(check bool) "miss" true (Obs.Json.member "c" j = None);
        Alcotest.(check bool)
          "non-object" true
          (Obs.Json.member "a" (Obs.Json.Int 3) = None));
    prop "merge is absorb plus the span prepend" ~count:200
      QCheck.(pair small_nat small_nat)
      (fun (x, y) ->
        let merged = dyadic_sink x and absorbed = dyadic_sink x in
        Obs.merge merged (dyadic_sink y);
        Obs.absorb absorbed (dyadic_sink y);
        (* same counters, histograms and per-kind totals ... *)
        obs_json merged = obs_json absorbed
        && same_stats (Obs.by_kind merged) (Obs.by_kind absorbed)
        (* ... and only merge keeps the source's spans, newest last *)
        && Obs.spans merged
           = Obs.spans (dyadic_sink x) @ Obs.spans (dyadic_sink y)
        && Obs.spans absorbed = Obs.spans (dyadic_sink x)
        && Obs.span_count absorbed = Obs.span_count (dyadic_sink x));
    prop "absorbed totals survive absorb and merge chains" ~count:100
      QCheck.(triple small_nat small_nat small_nat)
      (fun (x, y, z) ->
        (* reference: every source merged, spans kept *)
        let all = Obs.create () in
        List.iter (fun s -> Obs.merge all (dyadic_sink s)) [ x; y; z ];
        (* an absorbing sink, absorbed again, then merged *)
        let inner = Obs.create () in
        Obs.absorb inner (dyadic_sink x);
        Obs.absorb inner (dyadic_sink y);
        let outer = Obs.create () in
        Obs.absorb outer inner;
        let top = Obs.create () in
        Obs.merge top outer;
        Obs.merge top (dyadic_sink z);
        obs_json all = obs_json top
        && same_stats (Obs.by_kind all) (Obs.by_kind top)
        && Obs.span_count inner = 0
        && Obs.span_count outer = 0
        && Obs.spans top = Obs.spans (dyadic_sink z)
        && Obs.count_of_kind top Obs.H2d = Obs.count_of_kind all Obs.H2d
        && same_bits
             (Obs.seconds_of_kind top Obs.Kernel)
             (Obs.seconds_of_kind all Obs.Kernel)
        && same_bits
             (Obs.bytes_of_kind top Obs.D2h)
             (Obs.bytes_of_kind all Obs.D2h));
    prop "a sink that never absorbed folds its spans as before" ~count:80
      Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        ignore (Runtime.Schedule_gen.schedule ~obs cfg shape strat);
        let expected = reference_by_kind obs in
        let kinds_json =
          Obs.Json.List
            (List.map
               (fun (k, (s : Obs.kind_stat)) ->
                 Obs.Json.Obj
                   [
                     ("kind", Obs.Json.String (Obs.kind_name k));
                     ("count", Obs.Json.Int s.Obs.ks_count);
                     ("bytes", Obs.Json.Float s.Obs.ks_bytes);
                     ("seconds", Obs.Json.Float s.Obs.ks_seconds);
                   ])
               expected)
        in
        same_stats (Obs.by_kind obs) expected
        && Obs.Json.member "kinds" (Obs.to_json obs) = Some kinds_json);
    tc "absorb rejects open spans; reset drops absorbed totals" (fun () ->
        let a = Obs.create () and b = Obs.create () in
        ignore (Obs.span_begin b Obs.Kernel ~label:"open" ~start:0.);
        (match Obs.absorb a b with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
        Obs.absorb a (dyadic_sink 5);
        Alcotest.(check bool)
          "absorbed something" true
          (Obs.by_kind a <> [] && Obs.span_count a = 0);
        Obs.reset a;
        Alcotest.(check string)
          "reset is a fresh sink" (obs_json (Obs.create ())) (obs_json a));
    prop "h2d/d2h/fault bytes conserved between plan and spans" ~count:150
      Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        ignore (Runtime.Schedule_gen.schedule ~obs cfg shape strat);
        let d = P.declared_transfers cfg shape strat in
        close (Obs.bytes_of_kind obs Obs.H2d) d.P.h2d_bytes
        && close (Obs.bytes_of_kind obs Obs.D2h) d.P.d2h_bytes
        && close (Obs.bytes_of_kind obs Obs.Page_fault) d.P.fault_bytes);
    prop "every span that starts also stops" ~count:100 Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        ignore (Runtime.Schedule_gen.schedule ~obs cfg shape strat);
        Obs.unclosed obs = [] && Obs.span_count obs > 0);
    prop "span clock never runs backwards" ~count:100 Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        ignore (Runtime.Schedule_gen.schedule ~obs cfg shape strat);
        List.for_all
          (fun sp -> sp.Obs.span_stop >= sp.Obs.span_start)
          (Obs.spans obs));
    prop "profile json is valid for any generated schedule" ~count:80
      Gen.arb_plan
      (fun (shape, strat) ->
        let obs = Obs.create () in
        let r = Runtime.Schedule_gen.schedule ~obs cfg shape strat in
        json_ok
          (Obs.Json.to_string (Machine.Trace.profile_json ~obs r)));
    prop "replayed programs close their spans too" ~count:30
      Gen.arb_size_seed
      (fun (n, seed) ->
        let prog =
          Minic.Parser.program_of_string_exn
            (Gen.streamable_program ~n ~seed)
        in
        let obs = Obs.create () in
        ignore (Runtime.Replay.of_program ~obs prog);
        Obs.unclosed obs = [] && Obs.count obs "runtime.launches" > 0);
  ]
