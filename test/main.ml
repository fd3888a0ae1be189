let () =
  Alcotest.run "oqec"
    [
      ("base", Test_base.suite);
      ("circuit", Test_circuit.suite);
      ("qasm", Test_qasm.suite);
      ("dd", Test_dd.suite);
      ("decompose", Test_decompose.suite);
      ("zx", Test_zx.suite);
      ("zx-worklist", Test_zx_worklist.suite);
      ("bench-fmt", Test_bench_fmt.suite);
      ("compile", Test_compile.suite);
      ("workloads", Test_workloads.suite);
      ("qcec", Test_qcec.suite);
      ("prepare", Test_prepare.suite);
      ("regressions", Test_regressions.suite);
      ("stab", Test_stab.suite);
      ("extract", Test_extract.suite);
      ("differential", Test_differential.suite);
      ("portfolio", Test_portfolio.suite);
      ("engine", Test_engine.suite);
      ("misc", Test_misc.suite);
      ("fuzz", Test_fuzz.suite);
      ("phase-symbolic", Test_phase_symbolic.suite);
      ("param-checker", Test_param_checker.suite);
      ("qasm-roundtrip", Test_qasm_roundtrip.suite);
      ("compile-fuzz", Test_compile_fuzz.suite);
      ("cert", Test_cert.suite);
      ("dd-arena", Test_dd_arena.suite);
      ("dd-schemes", Test_dd_schemes.suite);
      ("server", Test_server.suite);
      ("reentrancy", Test_reentrancy.suite);
    ]
