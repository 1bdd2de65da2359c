(* Test runner: one alcotest binary covering every library. *)

let () =
  Alcotest.run "comp"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("pretty", Test_pretty.suite);
      ("typecheck", Test_typecheck.suite);
      ("interp", Test_interp.suite);
      ("analysis", Test_analysis.suite);
      ("block-size", Test_block_size.suite);
      ("streaming", Test_streaming.suite);
      ("merge-offload", Test_merge.suite);
      ("regularize", Test_regularize.suite);
      ("insert-offload", Test_insert_offload.suite);
      ("vectorize", Test_vectorize.suite);
      ("comp-driver", Test_comp.suite);
      ("pipeline", Test_pipeline.suite);
      ("paper-corpus", Test_corpus.suite);
      ("misc", Test_misc.suite);
      ("replay", Test_replay.suite);
      ("fuzz", Test_fuzz.suite);
      ("engine", Test_engine.suite);
      ("interp-engines", Test_engines.suite);
      ("obs", Test_obs.suite);
      ("parallel", Test_parallel.suite);
      ("cost", Test_cost.suite);
      ("runtime", Test_runtime.suite);
      ("shared-lang", Test_shared_lang.suite);
      ("shared-mem", Test_shared_mem.suite);
      ("myo", Test_myo.suite);
      ("fault", Test_fault.suite);
      ("migrate", Test_migrate.suite);
      ("check", Test_check.suite);
      ("opt", Test_opt.suite);
      ("residency", Test_residency.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("serve", Test_serve.suite);
      ("tune", Test_tune.suite);
      ("retrace", Test_retrace.suite);
    ]
