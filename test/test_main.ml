let () =
  Alcotest.run "warpcc"
    (Test_w2.suites @ Test_inline.suites @ Test_ir.suites @ Test_ifconv.suites
    @ Test_irverify.suites @ Test_warp.suites @ Test_netsim.suites
    @ Test_driver.suites @ Test_parallel.suites @ Test_faults.suites
    @ Test_sched.suites @ Test_spec.suites @ Test_depan.suites
    @ Test_absint.suites @ Test_fuzz.suites @ Test_stats.suites
    @ Test_trace.suites @ Test_critpath.suites @ Test_cache.suites
    @ Test_modan.suites @ Test_lintfix.suites @ Test_digraph.suites
    @ Test_ast.suites @ Test_frontend.suites @ Test_edges.suites
    @ Test_json.suites)
