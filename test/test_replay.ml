open Helpers

(** Execution-driven replay: the streamed program's event trace must
    reconstruct a schedule that overlaps transfer with compute, while
    the naive program's trace is a serial chain. *)

(* cheap launches: the replay tests probe pipeline structure, not the
   launch-overhead effect (that is the thread-reuse ablation's job) *)
let cfg =
  let base = Machine.Config.paper_default in
  {
    base with
    Machine.Config.mic =
      { base.Machine.Config.mic with launch_overhead_s = 1e-4 };
  }

(* transfer-heavy replay scale so the overlap matters *)
let params =
  { Runtime.Replay.bytes_per_cell = 1e6; seconds_per_stmt = 2e-5 }

let events prog =
  (Result.get_ok (Minic.Interp.run prog)).Minic.Interp.events

let streamed_of prog =
  let region = first_offloaded prog in
  Result.get_ok (Transforms.Streaming.transform ~nblocks:5 prog region)

let async ~cells tag =
  Minic.Interp.Ev_transfer { h2d_cells = cells; d2h_cells = 0; signal = Some tag }

let kernel ?wait work = Minic.Interp.Ev_kernel { work; wait }

(* the placed task the replay labelled [label] *)
let placed_of (r : Machine.Engine.result) label =
  match
    List.find_opt
      (fun (p : Machine.Engine.placed) -> p.task.Machine.Task.label = label)
      r.placed
  with
  | Some p -> p
  | None -> Alcotest.failf "no task %s in the replay" label

let suite =
  [
    tc "naive trace is in -> kernel -> out" (fun () ->
        let prog = parse (Gen.streamable_program ~n:20 ~seed:1) in
        match events prog with
        | [
         Minic.Interp.Ev_transfer { h2d_cells = 40; d2h_cells = 0; signal = None };
         Minic.Interp.Ev_kernel { wait = None; _ };
         Minic.Interp.Ev_transfer { h2d_cells = 0; d2h_cells = 20; signal = None };
        ] ->
            ()
        | evs -> Alcotest.failf "unexpected trace of %d events" (List.length evs));
    tc "streamed trace carries signals, waits, per-block kernels" (fun () ->
        let prog = parse (Gen.streamable_program ~n:20 ~seed:1) in
        let evs = events (streamed_of prog) in
        let count f = List.length (List.filter f evs) in
        Alcotest.(check int)
          "five kernels" 5
          (count (function Minic.Interp.Ev_kernel _ -> true | _ -> false));
        Alcotest.(check int)
          "five waits" 5
          (count (function Minic.Interp.Ev_wait _ -> true | _ -> false));
        Alcotest.(check int)
          "five signalled transfers" 5
          (count (function
            | Minic.Interp.Ev_transfer { signal = Some _; _ } -> true
            | _ -> false)));
    tc "naive replay time is the serial sum" (fun () ->
        let prog = parse (Gen.streamable_program ~n:20 ~seed:2) in
        let evs = events prog in
        let r = Runtime.Replay.schedule ~params cfg evs in
        let total =
          List.fold_left
            (fun acc (p : Machine.Engine.placed) ->
              acc +. p.task.Machine.Task.duration)
            0. r.placed
        in
        Alcotest.(check bool)
          "no overlap" true
          (float_close ~eps:1e-6 r.makespan total));
    tc "the streamed program's replay overlaps (Figure 5(d) from code)"
      (fun () ->
        let prog = parse (Gen.streamable_program ~n:40 ~seed:3) in
        let naive = Runtime.Replay.makespan ~params cfg (events prog) in
        let streamed_prog = streamed_of prog in
        let streamed =
          Runtime.Replay.makespan ~params cfg (events streamed_prog)
        in
        Alcotest.(check bool)
          (Printf.sprintf "streamed %.4f < naive %.4f" streamed naive)
          true (streamed < naive);
        (* and it is a real overlap, not just smaller tasks: the
           streamed makespan is below the serial sum of its own tasks *)
        let r = Runtime.Replay.schedule ~params cfg (events streamed_prog) in
        let total =
          List.fold_left
            (fun acc (p : Machine.Engine.placed) ->
              acc +. p.task.Machine.Task.duration)
            0. r.placed
        in
        Alcotest.(check bool)
          (Printf.sprintf "overlap: makespan %.4f < serial %.4f" r.makespan
             total)
          true
          (r.makespan < total *. 0.95));
    tc "merged program replays fewer launches" (fun () ->
        let src =
          {|int main(void) {
              int n = 8;
              float a[8];
              for (i = 0; i < n; i++) { a[i] = 1.0; }
              for (it = 0; it < 4; it++) {
                #pragma offload target(mic:0) inout(a[0:n])
                #pragma omp parallel for
                for (i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
                #pragma offload target(mic:0) inout(a[0:n])
                #pragma omp parallel for
                for (i = 0; i < n; i++) { a[i] = a[i] * 1.5; }
              }
              print_float(a[0]);
              return 0;
            }|}
        in
        let prog = parse src in
        let merged, _ = Transforms.Merge_offload.transform_all prog in
        let kernels p =
          List.length
            (List.filter
               (function Minic.Interp.Ev_kernel _ -> true | _ -> false)
               (events p))
        in
        Alcotest.(check int) "eight kernels before" 8 (kernels prog);
        Alcotest.(check int) "one kernel after" 1 (kernels merged);
        let t0 = Runtime.Replay.makespan ~params cfg (events prog) in
        let t1 = Runtime.Replay.makespan ~params cfg (events merged) in
        Alcotest.(check bool)
          (Printf.sprintf "merged replay %.4f < naive %.4f" t1 t0)
          true (t1 < t0));
    tc "translated pointer DMAs appear in the trace" (fun () ->
        let prog =
          parse
            {|struct node {
                int v;
                struct node* next;
              };
              int main(void) {
                int n = 6;
                struct node nodes[6];
                int sum[1];
                for (i = 0; i < n; i++) {
                  nodes[i].v = i;
                  nodes[i].next = &nodes[(i + 1) % 6];
                }
                struct node* nodes_mic = (struct node*)mic_malloc(12);
                #pragma offload_transfer target(mic:0) in(nodes[0:n] : into(nodes_mic[0:n])) translate(nodes)
                #pragma offload target(mic:0) out(sum[0:1])
                {
                  struct node* p = nodes_mic;
                  int acc = 0;
                  for (k = 0; k < 6; k++) {
                    acc = acc + p->v;
                    p = p->next;
                  }
                  sum[0] = acc;
                }
                print_int(sum[0]);
                return 0;
              }|}
        in
        let evs = events prog in
        (* one 12-cell structure DMA, one kernel, one 1-cell result *)
        (match evs with
        | [
         Minic.Interp.Ev_transfer { h2d_cells = 12; signal = None; _ };
         Minic.Interp.Ev_kernel _;
         Minic.Interp.Ev_transfer { d2h_cells = 1; _ };
        ] ->
            ()
        | _ -> Alcotest.failf "unexpected trace (%d events)" (List.length evs));
        let r = Runtime.Replay.schedule ~params cfg evs in
        Alcotest.(check bool) "schedules" true (r.makespan > 0.));
    tc "a wait resumes at the later of the wait and the signal" (fun () ->
        (* the host runs kernel#1 while transfer#0 is in flight; the
           kernel after wait(1) starts when both are done, whichever
           finishes last *)
        let resume ~cells ~work =
          let r =
            Runtime.Replay.schedule ~params cfg
              [ async ~cells 1; kernel work; Minic.Interp.Ev_wait 1; kernel 1 ]
          in
          let x = (placed_of r "xfer#0").finish
          and k = (placed_of r "kernel#1").finish in
          Alcotest.(check (float 1e-12))
            "resumes at the later finish" (Float.max x k)
            (placed_of r "kernel#3").start;
          x > k
        in
        Alcotest.(check bool) "signal later than the wait" true
          (resume ~cells:100 ~work:1);
        Alcotest.(check bool) "wait later than the signal" false
          (resume ~cells:1 ~work:100_000));
    tc "a reused tag joins its newest transfer" (fun () ->
        let obs = Obs.create () in
        let r =
          Runtime.Replay.schedule ~obs ~params cfg
            [
              async ~cells:1 7; Minic.Interp.Ev_wait 7; async ~cells:50 7;
              kernel ~wait:7 10;
            ]
        in
        let first = placed_of r "xfer#0" and second = placed_of r "xfer#2" in
        Alcotest.(check bool) "issued after the first wait" true
          (second.start >= first.finish);
        Alcotest.(check (float 1e-12))
          "the kernel joins the second transfer" second.finish
          (placed_of r "kernel#3").start;
        Alcotest.(check int) "signals" 2 (Obs.count obs "replay.signals");
        Alcotest.(check int) "waits" 2 (Obs.count obs "replay.waits"));
    tc "unmatched waits are surfaced" (fun () ->
        match
          Runtime.Replay.tasks cfg [ Minic.Interp.Ev_wait 42 ]
        with
        | exception Runtime.Replay.Unmatched_wait 42 -> ()
        | _ -> Alcotest.fail "expected Unmatched_wait");
    prop "replay never beats the critical path" ~count:30
      Gen.arb_size_seed_blocks (fun (n, seed, blocks) ->
        let prog = parse (Gen.streamable_program ~n ~seed) in
        let region = first_offloaded prog in
        match Transforms.Streaming.transform ~nblocks:blocks prog region with
        | Error _ -> false
        | Ok prog' ->
            let tasks = Runtime.Replay.tasks ~params cfg (events prog') in
            Machine.Engine.makespan tasks
            >= Machine.Engine.critical_path tasks -. 1e-9);
  ]
