open Helpers
module St = Transforms.Streaming

let transform_exn ?nblocks ?memory prog =
  let region = first_offloaded prog in
  match St.transform ?nblocks ?memory prog region with
  | Ok p -> p
  | Error e -> Alcotest.failf "streaming failed: %a" St.pp_failure e

let expect_failure name src pred =
  tc name (fun () ->
      let prog = parse src in
      let region = first_offloaded prog in
      match St.analyze prog region with
      | Ok _ -> Alcotest.fail "expected streaming to be rejected"
      | Error e ->
          Alcotest.(check bool)
            (Format.asprintf "failure is %a" St.pp_failure e)
            true (pred e))

let corpus name =
  parse (In_channel.with_open_bin (Filename.concat "corpus" name) In_channel.input_all)

let suite =
  [
    tc "a region whose program uses a name the rewrite declares is refused"
      (fun () ->
        (* the three captures: a block-loop scalar read as written, the
           same scalar grown before the loop, and a double-buffered
           device-buffer name (the pipeline's layout); each must keep
           its output through the pipeline in both layouts *)
        List.iter
          (fun (file, name) ->
            let prog = corpus file in
            (match St.analyze prog (first_offloaded prog) with
            | Error (St.Name_clash v) ->
                Alcotest.(check string) (file ^ ": clashing name") name v
            | Error e -> Alcotest.failf "%s: refused for %a" file St.pp_failure e
            | Ok _ -> Alcotest.failf "%s: streaming accepted the region" file);
            List.iter
              (fun memory ->
                let prog', applied = Comp.optimize ~memory prog in
                Alcotest.(check int) (file ^ ": streamed") 0 applied.Comp.streamed;
                check_semantics_preserved ~name:file prog prog';
                check_semantics_preserved ~name:(file ^ " -O") prog
                  (fst (Comp.optimize ~opt:Opt.all_passes ~memory prog)))
              [ St.Full; St.Double_buffered ])
          [
            ("st_clash_bsize.mc", "bsize__");
            ("st_clash_bsize_grown.mc", "bsize__");
            ("st_clash_mic1.mc", "a_mic1");
          ]);
    tc "a name clash is reported only after every other check" (fun () ->
        (* an already-streamed program declares every reserved name, yet
           its offloads keep the reason they had before the check *)
        let prog = corpus "regressions/reg_db421a658c07.mc" in
        List.iter
          (fun region ->
            match St.analyze prog region with
            | Error St.No_streamed_input -> ()
            | Error e -> Alcotest.failf "refused for %a" St.pp_failure e
            | Ok _ -> Alcotest.fail "streaming accepted the region")
          (Analysis.Offload_regions.offloaded prog));
    tc "both regions of a two-region program stream" (fun () ->
        (* the names are collected from the input, so the first
           rewrite's declarations do not refuse the second region *)
        let prog = parse (Gen.two_region_program ~n:12 ~seed:3) in
        List.iter
          (fun memory ->
            let prog', streamed = St.transform_all ~nblocks:3 ~memory prog in
            Alcotest.(check int) "regions streamed" 2 (List.length streamed);
            check_semantics_preserved ~name:"two regions" prog prog')
          [ St.Full; St.Double_buffered ]);
    tc "blackscholes-style loop streams and preserves semantics" (fun () ->
        let src = Gen.streamable_program ~n:23 ~seed:1 in
        let prog = parse src in
        check_semantics_preserved ~name:"full"
          prog
          (transform_exn ~nblocks:4 prog);
        check_semantics_preserved ~name:"double-buffered" prog
          (transform_exn ~nblocks:4 ~memory:St.Double_buffered prog));
    tc "streamed program launches one kernel per block" (fun () ->
        let prog = parse (Gen.streamable_program ~n:20 ~seed:2) in
        let prog' = transform_exn ~nblocks:5 prog in
        match Minic.Interp.run prog' with
        | Ok o ->
            Alcotest.(check int) "offloads" 5 o.stats.Minic.Interp.offloads
        | Error e -> Alcotest.fail e);
    tc "streaming moves the same data in more transfers" (fun () ->
        let prog = parse (Gen.streamable_program ~n:24 ~seed:3) in
        let o0 = Result.get_ok (Minic.Interp.run prog) in
        let prog' = transform_exn ~nblocks:4 prog in
        let o1 = Result.get_ok (Minic.Interp.run prog') in
        Alcotest.(check int)
          "same h2d volume" o0.stats.Minic.Interp.cells_h2d
          o1.stats.Minic.Interp.cells_h2d;
        Alcotest.(check bool)
          "more transfer operations" true
          (o1.stats.Minic.Interp.transfers > o0.stats.Minic.Interp.transfers));
    tc "double buffering allocates less device memory" (fun () ->
        let prog = parse (Gen.streamable_program ~n:40 ~seed:4) in
        let full = transform_exn ~nblocks:8 prog in
        let dbuf = transform_exn ~nblocks:8 ~memory:St.Double_buffered prog in
        let cells p =
          (Result.get_ok (Minic.Interp.run p)).Minic.Interp.stats
            .Minic.Interp.mic_alloc_cells
        in
        Alcotest.(check bool)
          (Printf.sprintf "dbuf %d < full %d" (cells dbuf) (cells full))
          true
          (cells dbuf < cells full));
    tc "stencil halos stay correct when streamed" (fun () ->
        let src = Gen.stencil_program ~n:31 ~seed:5 in
        let prog = parse src in
        check_semantics_preserved ~name:"stencil full" prog
          (transform_exn ~nblocks:4 prog);
        check_semantics_preserved ~name:"stencil dbuf" prog
          (transform_exn ~nblocks:4 ~memory:St.Double_buffered prog));
    tc "strided access streams with stride slices" (fun () ->
        let src =
          {|int main(void) {
              int n = 10;
              float a[30];
              float out[10];
              for (i = 0; i < 30; i++) { a[i] = (float)i; }
              #pragma offload target(mic:0) in(a[0:30]) out(out[0:n])
              #pragma omp parallel for
              for (i = 0; i < n; i++) {
                out[i] = a[3 * i] + a[3 * i + 1];
              }
              for (i = 0; i < n; i++) { print_float(out[i]); }
              return 0;
            }|}
        in
        let prog = parse src in
        check_semantics_preserved ~name:"strided" prog
          (transform_exn ~nblocks:3 prog);
        check_semantics_preserved ~name:"strided dbuf" prog
          (transform_exn ~nblocks:3 ~memory:St.Double_buffered prog));
    tc "invariant lookup tables transferred up-front" (fun () ->
        let src =
          {|int main(void) {
              int n = 12;
              float a[12];
              float lut[4];
              float out[12];
              for (i = 0; i < n; i++) { a[i] = (float)i; }
              for (i = 0; i < 4; i++) { lut[i] = (float)i * 10.0; }
              #pragma offload target(mic:0) in(a[0:n], lut[0:4]) out(out[0:n])
              #pragma omp parallel for
              for (i = 0; i < n; i++) {
                out[i] = a[i] + lut[2];
              }
              for (i = 0; i < n; i++) { print_float(out[i]); }
              return 0;
            }|}
        in
        let prog = parse src in
        check_semantics_preserved ~name:"invariant" prog
          (transform_exn ~nblocks:4 prog));
    tc "inout arrays stream both directions" (fun () ->
        let src =
          {|int main(void) {
              int n = 15;
              float a[15];
              for (i = 0; i < n; i++) { a[i] = (float)i; }
              #pragma offload target(mic:0) inout(a[0:n])
              #pragma omp parallel for
              for (i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
              for (i = 0; i < n; i++) { print_float(a[i]); }
              return 0;
            }|}
        in
        let prog = parse src in
        check_semantics_preserved ~name:"inout" prog
          (transform_exn ~nblocks:4 prog);
        check_semantics_preserved ~name:"inout dbuf" prog
          (transform_exn ~nblocks:4 ~memory:St.Double_buffered prog));
    tc "nonzero lower bound preserved" (fun () ->
        let src =
          {|int main(void) {
              int n = 17;
              float a[17];
              float out[17];
              for (i = 0; i < n; i++) { a[i] = (float)i; out[i] = 0.0; }
              #pragma offload target(mic:0) in(a[0:n]) inout(out[0:n])
              #pragma omp parallel for
              for (i = 3; i < n; i++) { out[i] = a[i] * 2.0; }
              for (i = 0; i < n; i++) { print_float(out[i]); }
              return 0;
            }|}
        in
        let prog = parse src in
        check_semantics_preserved ~name:"lo=3 full" prog
          (transform_exn ~nblocks:4 prog);
        check_semantics_preserved ~name:"lo=3 dbuf" prog
          (transform_exn ~nblocks:4 ~memory:St.Double_buffered prog));
    tc "more blocks than iterations still works" (fun () ->
        let prog = parse (Gen.streamable_program ~n:3 ~seed:11) in
        check_semantics_preserved ~name:"tiny full" prog
          (transform_exn ~nblocks:8 prog);
        check_semantics_preserved ~name:"tiny dbuf" prog
          (transform_exn ~nblocks:8 ~memory:St.Double_buffered prog));
    tc "expression upper bounds preserved" (fun () ->
        let src =
          {|int main(void) {
              int n = 20;
              int half = 10;
              float a[20];
              float out[20];
              for (i = 0; i < n; i++) { a[i] = (float)i; out[i] = 0.0; }
              #pragma offload target(mic:0) in(a[0:n]) inout(out[0:n])
              #pragma omp parallel for
              for (i = 0; i < half + 5; i++) { out[i] = a[i] + 1.0; }
              for (i = 0; i < n; i++) { print_float(out[i]); }
              return 0;
            }|}
        in
        let prog = parse src in
        check_semantics_preserved ~name:"expr-hi full" prog
          (transform_exn ~nblocks:4 prog);
        check_semantics_preserved ~name:"expr-hi dbuf" prog
          (transform_exn ~nblocks:4 ~memory:St.Double_buffered prog));
    tc "partial writes under a full out() clause copy device garbage"
      (fun () ->
        (* LEO semantics: out(x[0:n]) copies the whole section back even
           if the kernel only wrote part of it.  The dual-space
           interpreter surfaces the resulting undefined reads instead of
           silently keeping host values. *)
        let src =
          {|int main(void) {
              int n = 8;
              float a[8];
              float out[8];
              for (i = 0; i < n; i++) { a[i] = (float)i; out[i] = 0.0; }
              #pragma offload target(mic:0) in(a[0:n]) out(out[0:n])
              #pragma omp parallel for
              for (i = 3; i < n; i++) { out[i] = a[i]; }
              for (i = 0; i < n; i++) { print_float(out[i]); }
              return 0;
            }|}
        in
        match Minic.Interp.run (parse src) with
        | Error msg ->
            Alcotest.(check bool)
              "undefined surfaced" true
              (contains ~sub:"undefined" msg)
        | Ok _ -> Alcotest.fail "expected an undefined-value error");
    (* legality rejections *)
    expect_failure "gather access rejected"
      {|int main(void) {
          int n = 4;
          float a[16];
          int b[4];
          float c[4];
          #pragma offload target(mic:0) in(a[0:16], b[0:n]) out(c[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i++) { c[i] = a[b[i]]; }
          return 0;
        }|}
      (function St.Non_affine "a" -> true | _ -> false);
    expect_failure "non-unit step rejected"
      {|int main(void) {
          int n = 8;
          float a[8];
          #pragma offload target(mic:0) inout(a[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i += 2) { a[i] = 0.0; }
          return 0;
        }|}
      (function St.Nonunit_step -> true | _ -> false);
    expect_failure "variable-coefficient access rejected"
      {|int main(void) {
          int n = 4;
          int w = 4;
          float a[16];
          float c[4];
          #pragma offload target(mic:0) in(a[0:16]) out(c[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i++) { c[i] = a[i * w]; }
          return 0;
        }|}
      (function St.Non_affine "a" -> true | _ -> false);
    expect_failure "non-constant offset rejected"
      {|int main(void) {
          int n = 4;
          int k = 2;
          float a[16];
          float c[4];
          #pragma offload target(mic:0) in(a[0:16]) out(c[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i++) { c[i] = a[i + k]; }
          return 0;
        }|}
      (function St.Nonconst_offset "a" -> true | _ -> false);
    expect_failure "mixed strides rejected"
      {|int main(void) {
          int n = 4;
          float a[16];
          float c[4];
          #pragma offload target(mic:0) in(a[0:16]) out(c[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i++) { c[i] = a[i] + a[2 * i]; }
          return 0;
        }|}
      (function St.Mixed_coeff "a" -> true | _ -> false);
    expect_failure "no streamable input rejected"
      {|int main(void) {
          int n = 4;
          float lut[4];
          float c[4];
          #pragma offload target(mic:0) in(lut[0:4]) out(c[0:n])
          #pragma omp parallel for
          for (i = 0; i < n; i++) { c[i] = lut[1]; }
          return 0;
        }|}
      (function St.No_streamed_input -> true | _ -> false);
    (* property: streaming preserves semantics across random sizes,
       seeds and block counts, in both memory modes *)
    prop "semantics preserved (full buffers)" ~count:40
      Gen.arb_size_seed_blocks (fun (n, seed, blocks) ->
        let prog = parse (Gen.streamable_program ~n ~seed) in
        let region = first_offloaded prog in
        match St.transform ~nblocks:blocks prog region with
        | Error _ -> false
        | Ok prog' ->
            String.equal
              (Minic.Interp.run_output prog)
              (Minic.Interp.run_output prog'));
    prop "semantics preserved (double buffered)" ~count:40
      Gen.arb_size_seed_blocks (fun (n, seed, blocks) ->
        let prog = parse (Gen.streamable_program ~n ~seed) in
        let region = first_offloaded prog in
        match
          St.transform ~nblocks:blocks ~memory:St.Double_buffered prog region
        with
        | Error _ -> false
        | Ok prog' ->
            String.equal
              (Minic.Interp.run_output prog)
              (Minic.Interp.run_output prog'));
    prop "inout semantics preserved when streamed (random)" ~count:30
      Gen.arb_size_seed_blocks (fun (n, seed, blocks) ->
        let prog = parse (Gen.inout_program ~n ~seed) in
        let region = first_offloaded prog in
        match
          St.transform ~nblocks:blocks ~memory:St.Double_buffered prog region
        with
        | Error _ -> false
        | Ok prog' ->
            String.equal
              (Minic.Interp.run_output prog)
              (Minic.Interp.run_output prog'));
    prop "stencil semantics preserved when streamed" ~count:30
      Gen.arb_size_seed_blocks (fun (n, seed, blocks) ->
        QCheck.assume (n > blocks);
        let prog = parse (Gen.stencil_program ~n ~seed) in
        let region = first_offloaded prog in
        match
          St.transform ~nblocks:blocks ~memory:St.Double_buffered prog region
        with
        | Error _ -> false
        | Ok prog' ->
            String.equal
              (Minic.Interp.run_output prog)
              (Minic.Interp.run_output prog'));
  ]
