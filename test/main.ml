(* Test entry point: all suites, one per library. *)

let () =
  Alcotest.run "olayout"
    [
      Test_util.suite;
      Test_metrics.suite;
      Test_ir.suite;
      Test_placement.suite;
      Test_layout.suite;
      Test_profile.suite;
      Test_exec.suite;
      Test_cachesim.suite;
      Test_stackdist.suite;
      Test_memsim.suite;
      Test_diag.suite;
      Test_db.suite;
      Test_codegen.suite;
      Test_oltp.suite;
      Test_perf.suite;
      Test_harness.suite;
      Test_telemetry.suite;
      Test_timeline.suite;
      Test_explain.suite;
      Test_drift.suite;
      Test_relayout.suite;
      Test_par.suite;
      Test_regress.suite;
      Test_front.suite;
      Test_properties.suite;
    ]
