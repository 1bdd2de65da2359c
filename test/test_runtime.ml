open Helpers
open Runtime

let cfg = Machine.Config.paper_default

(* a transfer-heavy shape where streaming must pay off *)
let balanced_shape =
  {
    Plan.default_shape with
    Plan.iters = 10_000_000;
    kernel =
      { Machine.Cost.default_kernel with flops_per_iter = 200.; mic_derate = 0.2 };
    bytes_in = 2e8;
    bytes_out = 4e7;
  }

let time = Schedule_gen.region_time cfg

(* Shared_segbuf: a shape whose only input is [shared_bytes] of
   pointer-based structures built by [allocs] allocations *)
let segbuf_shape ?(allocs = 100) shared_bytes =
  {
    balanced_shape with
    Plan.bytes_in = 0.;
    shared =
      Some
        {
          Plan.default_shared with
          Plan.shared_bytes;
          shared_allocs = allocs;
          objects_touched = 10_000;
        };
  }

let segs_of ~shared ~seg = max 1 ((shared + seg - 1) / seg)

let placed_labelled prefix (r : Machine.Engine.result) =
  List.filter
    (fun (p : Machine.Engine.placed) ->
      String.starts_with ~prefix p.task.Machine.Task.label)
    r.placed

(* the segment DMAs of a segbuf schedule, in segment order *)
let seg_dmas ?obs shape seg_bytes =
  let r =
    Schedule_gen.schedule ?obs cfg shape (Plan.Shared_segbuf { seg_bytes })
  in
  List.sort
    (fun (a : Machine.Engine.placed) b ->
      compare a.task.Machine.Task.id b.task.Machine.Task.id)
    (placed_labelled "dma seg" r)

(* shared sizes around segment boundaries: k whole segments plus none,
   one byte, all but one byte, or any remainder *)
let arb_segmented =
  QCheck.make
    ~print:(fun (shared, seg) -> Printf.sprintf "shared=%d seg=%d" shared seg)
    QCheck.Gen.(
      int_range 1 (4 lsl 20) >>= fun seg ->
      int_range 0 40 >>= fun k ->
      oneof [ return 0; return 1; return (seg - 1); int_range 0 (seg - 1) ]
      >>= fun r -> return ((k * seg) + r, seg))

let suite =
  [
    tc "streaming beats the naive offload on balanced shapes" (fun () ->
        let naive = time balanced_shape Plan.Naive_offload in
        let streamed = time balanced_shape (Plan.streamed ()) in
        Alcotest.(check bool)
          (Printf.sprintf "%.4f < %.4f" streamed naive)
          true (streamed < naive));
    tc "streamed time lower-bounded by transfer and compute" (fun () ->
        let streamed = time balanced_shape (Plan.streamed ()) in
        let d =
          Machine.Cost.transfer_time cfg Machine.Cost.H2d
            ~bytes:balanced_shape.Plan.bytes_in
        in
        let c =
          Machine.Cost.mic_time cfg balanced_shape.Plan.kernel
            ~iters:balanced_shape.Plan.iters
        in
        Alcotest.(check bool) "lb" true (streamed >= Float.max d c *. 0.99));
    tc "persistent kernels beat per-block launches" (fun () ->
        let p0 = time balanced_shape (Plan.streamed ~nblocks:50 ~persistent:false ()) in
        let p1 = time balanced_shape (Plan.streamed ~nblocks:50 ~persistent:true ()) in
        Alcotest.(check bool) "reuse faster" true (p1 < p0));
    tc "double buffering costs little time" (fun () ->
        let t_full = time balanced_shape (Plan.streamed ~double_buffered:false ()) in
        let t_dbuf = time balanced_shape (Plan.streamed ~double_buffered:true ()) in
        Alcotest.(check bool)
          "within 25%" true
          (t_dbuf <= t_full *. 1.25));
    tc "pipelined repack overlaps, serial repack does not" (fun () ->
        let repack p = { Plan.repack_s_per_block = 0.002; pipelined = p } in
        let t_pipe =
          time balanced_shape (Plan.streamed ~repack:(repack true) ())
        in
        let t_serial =
          time balanced_shape (Plan.streamed ~repack:(repack false) ())
        in
        Alcotest.(check bool) "pipelined faster" true (t_pipe < t_serial));
    tc "merging collapses launches" (fun () ->
        let shape =
          {
            balanced_shape with
            Plan.bytes_in = 2e7;
            outer_repeats = 50;
            inner_offloads = 3;
            iters = 100_000;
          }
        in
        let naive = time shape Plan.Naive_offload in
        let merged = time shape (Plan.merged ()) in
        Alcotest.(check bool)
          (Printf.sprintf "merged %.4f < naive %.4f" merged naive)
          true (merged < naive /. 4.));
    tc "streamed merged transfer overlaps the first chunks" (fun () ->
        let shape =
          { balanced_shape with Plan.outer_repeats = 40; bytes_in = 2e8 }
        in
        let plain = time shape (Plan.merged ~streamed:false ()) in
        let streamed = time shape (Plan.merged ~streamed:true ()) in
        Alcotest.(check bool) "overlap helps" true (streamed < plain));
    tc "glue runs slower on the device after merging" (fun () ->
        let shape = { balanced_shape with Plan.outer_repeats = 10; host_glue_s = 0.01 } in
        let with_glue = time shape (Plan.merged ()) in
        let without = time { shape with Plan.host_glue_s = 0. } (Plan.merged ()) in
        (* 10 iterations x 10 ms of glue, 8x slower on device *)
        Alcotest.(check bool)
          "glue contributes ~0.8s" true
          (with_glue -. without > 0.7));
    tc "segbuf transfer beats myo faulting" (fun () ->
        let shared =
          {
            Plan.default_shared with
            Plan.shared_bytes = 100 * 1024 * 1024;
            shared_allocs = 1000;
            objects_touched = 1_000_000;
          }
        in
        let shape =
          { balanced_shape with Plan.shared = Some shared; bytes_in = 0. }
        in
        let myo = time shape Plan.Shared_myo in
        let seg = time shape (Plan.Shared_segbuf { seg_bytes = 256 lsl 20 }) in
        Alcotest.(check bool)
          (Printf.sprintf "segbuf %.4f < myo %.4f" seg myo)
          true (seg < myo));
    prop "segbuf plan moves one DMA per segment" ~count:80 arb_segmented
      (fun (shared, seg) ->
        List.length (seg_dmas (segbuf_shape shared) seg)
        = segs_of ~shared ~seg);
    prop "segment DMAs carry whole segments but the last" ~count:80
      arb_segmented (fun (shared, seg) ->
        let n = segs_of ~shared ~seg in
        let expected =
          List.init n (fun i ->
              float_of_int
                (if i < n - 1 then seg else shared - ((n - 1) * seg)))
        in
        List.map
          (fun (p : Machine.Engine.placed) -> p.task.Machine.Task.bytes)
          (seg_dmas (segbuf_shape shared) seg)
        = expected);
    tc "segbuf counters feed the obs sink" (fun () ->
        let seg = 1 lsl 20 in
        let obs = Obs.create () in
        ignore (seg_dmas ~obs (segbuf_shape ~allocs:37 ((3 * seg) + 1)) seg);
        Alcotest.(check int) "segments" 4 (Obs.count obs "runtime.seg_allocs");
        Alcotest.(check int)
          "allocations" 37
          (Obs.count obs "runtime.segbuf_allocs");
        Alcotest.(check int) "one launch" 1 (Obs.count obs "runtime.launches"));
    tc "segbuf allocation time follows the allocation count" (fun () ->
        (* Table III's dynamic column: ferret's 80,298 allocations each
           cost the host a bump-pointer step before the DMAs start *)
        let strat = Plan.Shared_segbuf { seg_bytes = 256 lsl 20 } in
        let alloc_s allocs =
          match
            placed_labelled "segbuf allocs"
              (Schedule_gen.schedule cfg
                 (segbuf_shape ~allocs (100 lsl 20))
                 strat)
          with
          | [ p ] -> p.task.Machine.Task.duration
          | _ -> Alcotest.fail "expected one allocation task"
        in
        let a = alloc_s 80_298 in
        Alcotest.(check bool) "costs time" true (a > 0.);
        Alcotest.(check (float 1e-15)) "linear" (2. *. a) (alloc_s 160_596);
        Alcotest.(check (float 1e-12))
          "on the critical path" a
          (time (segbuf_shape ~allocs:80_298 (100 lsl 20)) strat
          -. time (segbuf_shape ~allocs:0 (100 lsl 20)) strat));
    tc "the segbuf kernel starts when the last segment lands" (fun () ->
        let seg = 16 lsl 20 in
        let r =
          Schedule_gen.schedule cfg
            (segbuf_shape ((5 * seg) + 7))
            (Plan.Shared_segbuf { seg_bytes = seg })
        in
        let landed =
          List.fold_left
            (fun acc (p : Machine.Engine.placed) -> Float.max acc p.finish)
            0.
            (placed_labelled "dma seg" r)
        in
        match placed_labelled "kernel" r with
        | [ k ] ->
            Alcotest.(check (float 1e-12)) "starts at the last landing"
              landed k.start
        | _ -> Alcotest.fail "expected one kernel");
    prop "smaller segments never shorten the segbuf schedule" ~count:60
      arb_segmented (fun (shared, seg) ->
        let t s =
          time (segbuf_shape shared) (Plan.Shared_segbuf { seg_bytes = s })
        in
        t (max 1 (seg / 2)) >= t seg -. 1e-12);
    prop "Myo.segbuf_time is the segbuf plan's DMA time" ~count:60
      arb_segmented (fun (shared, seg) ->
        shared = 0
        || float_close
             (Myo.segbuf_time cfg ~bytes:shared ~seg_bytes:seg)
             (List.fold_left
                (fun acc (p : Machine.Engine.placed) ->
                  acc +. p.task.Machine.Task.duration)
                0.
                (seg_dmas (segbuf_shape shared) seg)));
    tc "myo cost grows with touched fraction and rounds" (fun () ->
        let shared frac rounds =
          {
            Plan.default_shared with
            Plan.shared_bytes = 50 * 1024 * 1024;
            shared_allocs = 10;
            myo_touched_frac = frac;
            myo_rounds = rounds;
          }
        in
        let t frac rounds =
          time
            { balanced_shape with Plan.shared = Some (shared frac rounds) }
            Plan.Shared_myo
        in
        Alcotest.(check bool) "frac" true (t 0.2 1 < t 1.0 1);
        Alcotest.(check bool) "rounds" true (t 1.0 1 < t 1.0 3));
    tc "total time adds the serial part" (fun () ->
        let shape = { balanced_shape with Plan.host_serial_s = 1.0 } in
        let region = Schedule_gen.region_time cfg shape Plan.Naive_offload in
        let total = Schedule_gen.total_time cfg shape Plan.Naive_offload in
        Alcotest.(check (float 1e-9)) "serial added" (region +. 1.0) total);
    (* Mem_usage *)
    tc "double-buffered footprint is ~3 blocks" (fun () ->
        let s = { balanced_shape with Plan.invariant_bytes = 0. } in
        let naive = Mem_usage.device_bytes s Plan.Naive_offload in
        let streamed =
          Mem_usage.device_bytes s (Plan.streamed ~nblocks:20 ())
        in
        Alcotest.(check bool)
          "more than 80% saved" true
          (streamed < 0.2 *. naive));
    tc "full-buffer streaming saves nothing" (fun () ->
        let s = balanced_shape in
        Alcotest.(check (float 1e-6))
          "same" 1.0
          (Mem_usage.relative s (Plan.streamed ~double_buffered:false ())));
    tc "footprint fits check against the 8 GB wall" (fun () ->
        Alcotest.(check bool) "7 GB fits" true (Mem_usage.fits cfg 7e9);
        Alcotest.(check bool) "9 GB does not" false (Mem_usage.fits cfg 9e9));
    prop "segbuf footprint is the whole segments covering the shared data"
      ~count:80 arb_segmented (fun (shared, seg) ->
        let bytes =
          Mem_usage.device_bytes (segbuf_shape shared)
            (Plan.Shared_segbuf { seg_bytes = seg })
        in
        bytes = float_of_int (segs_of ~shared ~seg * seg)
        && bytes >= float_of_int shared
        && bytes < float_of_int (max shared 1 + seg));
    tc "MYO needs the shared bytes; without shared data, the working set"
      (fun () ->
        let s = segbuf_shape (40 lsl 20) in
        Alcotest.(check (float 0.)) "myo" (float_of_int (40 lsl 20))
          (Mem_usage.device_bytes s Plan.Shared_myo);
        let plain = { balanced_shape with Plan.shared = None } in
        let whole = Mem_usage.device_bytes plain Plan.Naive_offload in
        Alcotest.(check (float 0.)) "myo, no shared data" whole
          (Mem_usage.device_bytes plain Plan.Shared_myo);
        Alcotest.(check (float 0.)) "segbuf, no shared data" whole
          (Mem_usage.device_bytes plain
             (Plan.Shared_segbuf { seg_bytes = 1 lsl 20 })));
    prop "more blocks, smaller footprint" ~count:50
      QCheck.(int_range 2 100)
      (fun n ->
        Mem_usage.device_bytes balanced_shape (Plan.streamed ~nblocks:(n + 1) ())
        <= Mem_usage.device_bytes balanced_shape (Plan.streamed ~nblocks:n ())
           +. 1e-9);
    prop "streaming never loses badly to naive" ~count:60
      QCheck.(pair (int_range 1 200) (int_range 1 50))
      (fun (mb, blocks) ->
        let shape =
          {
            balanced_shape with
            Plan.bytes_in = float_of_int mb *. 1e6;
            bytes_out = 1e6;
          }
        in
        let naive = time shape Plan.Naive_offload in
        let streamed =
          time shape (Plan.streamed ~nblocks:blocks ~persistent:true ())
        in
        (* small blocks can pay extra latency, never more than 20% *)
        streamed <= naive *. 1.2);
  ]
