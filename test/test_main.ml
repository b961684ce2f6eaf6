(* Suite names are stable aliases matching their test_<name>.ml files:
   the @check-fast dune alias (and `make check-fast`) selects the
   sub-second suites by name regex, so renaming one silently changes
   what CI's fast gate runs — don't.  docs/TESTING.md documents the
   fast/slow split. *)
let () =
  Alcotest.run "cluster_replication"
    [
      ("machine", Test_machine.suite);
      ("ddg", Test_ddg.suite);
      ("mii", Test_mii.suite);
      ("sched", Test_sched.suite);
      ("pseudo", Test_pseudo.suite);
      ("spill", Test_spill.suite);
      ("driver", Test_driver.suite);
      ("regalloc", Test_regalloc.suite);
      ("replication", Test_replication.suite);
      ("sim", Test_sim.suite);
      ("kernels", Test_kernels.suite);
      ("codegen", Test_codegen.suite);
      ("regsim", Test_regsim.suite);
      ("workload", Test_workload.suite);
      ("unroll", Test_unroll.suite);
      ("acyclic", Test_acyclic.suite);
      ("metrics", Test_metrics.suite);
      ("store", Test_store.suite);
      ("serve", Test_serve.suite);
      ("robustness", Test_robustness.suite);
      ("faults", Test_faults.suite);
      ("sched_error", Test_sched_error.suite);
      ("json", Test_json.suite);
      ("check", Test_check.suite);
      ("model", Test_model.suite);
      ("sat", Test_sat.suite);
      ("exact", Test_exact.suite);
      ("misc", Test_misc.suite);
      ("export", Test_export.suite);
      ("props", Props.suite);
    ]
