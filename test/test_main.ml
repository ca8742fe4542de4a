let () =
  Alcotest.run "shift"
    (Test_isa.suites @ Test_mem.suites @ Test_machine.suites @ Test_ir.suites
   @ Test_compiler.suites @ Test_runtime.suites @ Test_policy.suites
   @ Test_os.suites @ Test_session.suites @ Test_engine.suites @ Test_attacks.suites @ Test_workloads.suites @ Test_features.suites @ Test_speculation.suites @ Test_parse.suites @ Test_timing.suites @ Test_analysis.suites @ Test_random.suites @ Test_sources.suites @ Test_smp.suites @ Test_misc.suites @ Test_results.suites
   @ Test_procs.suites
   @ Test_flowtrace.suites @ Test_snapshot.suites @ Test_serve.suites
   @ Test_snapshot_codec.suites @ Test_superblock.suites @ Test_tracking.suites
   @ Test_leak.suites @ Test_link.suites @ Test_case_cache.suites @ Test_export.suites)
