open Helpers

(** Coverage for the small supporting pieces: the table renderer, the
    trace helpers, plan names, pass selection, and the task builder. *)

let suite =
  [
    tc "table renderer aligns and separates" (fun () ->
        let s =
          Experiments.Tables.render
            ~align:[ Experiments.Tables.L; Experiments.Tables.R ]
            ~header:[ "name"; "value" ]
            [ [ "a"; "1.0" ]; [ "longer"; "23.45" ] ]
        in
        Alcotest.(check bool) "header" true (contains ~sub:"| name " s);
        Alcotest.(check bool) "separator" true (contains ~sub:"|---" s);
        Alcotest.(check bool)
          "right-aligned numbers" true
          (contains ~sub:"|   1.0 |" s));
    tc "averages" (fun () ->
        Alcotest.(check (float 1e-12))
          "mean" 2.0
          (Experiments.Tables.average [ 1.0; 2.0; 3.0 ]);
        Alcotest.(check (float 0.)) "empty" 0. (Experiments.Tables.average []));
    tc "trace top_tasks returns the longest first" (fun () ->
        let open Machine in
        let b = Task.builder () in
        let _ = Task.add b ~label:"short" ~resource:Task.Cpu_exec ~duration:0.1 () in
        let _ = Task.add b ~label:"long" ~resource:(Task.Mic_exec (0, 0)) ~duration:5.0 () in
        let _ = Task.add b ~label:"mid" ~resource:(Task.Pcie_h2d 0) ~duration:1.0 () in
        let r = Engine.schedule (Task.tasks b) in
        match Trace.top_tasks ~n:2 r with
        | [ a; b' ] ->
            Alcotest.(check string) "longest" "long" a.task.Task.label;
            Alcotest.(check string) "second" "mid" b'.task.Task.label
        | _ -> Alcotest.fail "expected two tasks");
    tc "task builder clamps negative durations" (fun () ->
        let open Machine in
        let b = Task.builder () in
        let _ =
          Task.add b ~label:"neg" ~resource:Task.Cpu_exec ~duration:(-1.0) ()
        in
        match Task.tasks b with
        | [ t ] -> Alcotest.(check (float 0.)) "clamped" 0. t.Task.duration
        | _ -> Alcotest.fail "one task expected");
    tc "strategy names are distinctive" (fun () ->
        let open Runtime.Plan in
        let names =
          List.map strategy_name
            [
              Host_parallel;
              Naive_offload;
              streamed ();
              streamed ~persistent:true ();
              streamed ~double_buffered:false ();
              merged ();
              merged ~streamed:true ();
              Shared_myo;
              Shared_segbuf { seg_bytes = 1 };
            ]
        in
        Alcotest.(check int)
          "all distinct"
          (List.length names)
          (List.length (List.sort_uniq compare names)));
    tc "pass names round-trip" (fun () ->
        List.iter
          (fun p ->
            match Comp.pass_of_name (Comp.pass_name p) with
            | Some p' -> Alcotest.(check bool) "same" true (p = p')
            | None -> Alcotest.failf "%s not found" (Comp.pass_name p))
          Comp.all_passes;
        Alcotest.(check bool)
          "unknown rejected" true
          (Comp.pass_of_name "nonsense" = None));
    tc "selective pipeline respects the subset" (fun () ->
        let prog = parse (Gen.gather_program ~n:8 ~m:20 ~seed:1) in
        let _, a =
          Comp.optimize ~passes:[ Comp.Data_streaming ] prog
        in
        Alcotest.(check int) "no reorder" 0 (List.length a.Comp.regularized);
        Alcotest.(check int) "nothing streamed (gather)" 0 a.Comp.streamed;
        let _, a2 =
          Comp.optimize
            ~passes:[ Comp.Regularization; Comp.Data_streaming ]
            prog
        in
        Alcotest.(check int) "reorder then stream" 1 a2.Comp.streamed);
    tc "resource names cover all resources" (fun () ->
        let open Machine in
        Alcotest.(check (list string))
          "names" [ "cpu"; "mic"; "h2d"; "d2h" ]
          (List.map Task.resource_name Task.base_resources);
        (* non-zero device/stream indices are spelled out *)
        Alcotest.(check (list string))
          "multi-device names" [ "mic1.2"; "h2d1"; "d2h1" ]
          (List.map Task.resource_name
             [ Task.Mic_exec (1, 2); Task.Pcie_h2d 1; Task.Pcie_d2h 1 ]));
    tc "gantt clamps to width" (fun () ->
        let open Machine in
        let b = Task.builder () in
        let _ =
          Task.add b ~label:"t" ~resource:(Task.Mic_exec (0, 0)) ~duration:1.0 ()
        in
        let g = Trace.gantt ~width:10 (Engine.schedule (Task.tasks b)) in
        List.iter
          (fun line ->
            if String.length line > 0 then
              Alcotest.(check bool)
                "line short enough" true
                (String.length line <= 20))
          (String.split_on_char '\n' g));
  ]
