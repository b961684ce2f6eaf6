(* Simulator: static checker and lockstep executor. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let config4c = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64
let unified = Machine.Config.unified ~registers:64

let schedule config g =
  match Sched.Driver.schedule_loop config g with
  | Ok o -> o
  | Error e -> Alcotest.failf "driver: %s" (Sched.Sched_error.to_string e)

let test_checker_accepts_good () =
  List.iter
    (fun g ->
      List.iter
        (fun config ->
          let o = schedule config g in
          match Sim.Checker.check o.Sched.Driver.schedule with
          | Ok () -> ()
          | Error es -> Alcotest.failf "violations: %s" (String.concat "; " es))
        [ config4c; unified ])
    [
      Ddg.Examples.figure3 ();
      Ddg.Examples.tiny_chain ~n:6 ();
      Ddg.Examples.with_recurrence ();
    ]

let corrupt o f =
  let s = o.Sched.Driver.schedule in
  let cycles = Array.copy s.Sched.Schedule.cycles in
  f cycles;
  { s with Sched.Schedule.cycles }

let test_checker_catches_dependence_violation () =
  let g = Ddg.Examples.tiny_chain ~n:4 () in
  let o = schedule unified g in
  (* move the chain's last node to cycle 0: its input is not ready *)
  let bad = corrupt o (fun c -> c.(3) <- 0) in
  check bool "caught" true (Result.is_error (Sim.Checker.check bad))

let test_checker_catches_fu_oversubscription () =
  let g = Ddg.Examples.figure3 () in
  let o = schedule config4c g in
  (* squeeze every node into cycle 0 of cluster assignments: FU conflicts *)
  let bad = corrupt o (fun c -> Array.fill c 0 (Array.length c) 0) in
  check bool "caught" true (Result.is_error (Sim.Checker.check bad))

let test_checker_register_toggle () =
  (* tiny register file: the checker flags pressure unless disabled *)
  let tight = Machine.Config.custom ~clusters:1 ~buses:0 ~bus_latency:0
      ~registers:1 ~fus_per_cluster:(4, 4, 4) in
  let g = Ddg.Examples.tiny_chain ~n:6 () in
  match Sched.Driver.schedule_loop ~latency0:true tight g with
  | Error _ -> () (* driver may fail for pressure; also fine *)
  | Ok o ->
      let r = Sim.Checker.check ~registers:false o.Sched.Driver.schedule in
      check bool "passes without register check" true (Result.is_ok r)

let test_lockstep_counts () =
  let g = Ddg.Examples.figure3 () in
  let o = schedule config4c g in
  let s = o.Sched.Driver.schedule in
  let counts = Sim.Lockstep.run_exn s ~iterations:100 in
  let n = Ddg.Graph.n_nodes (Sched.Schedule.route s).Sched.Route.graph in
  check int "cycles = (N-1+SC)*II"
    ((100 - 1 + Sched.Schedule.stage_count s) * s.Sched.Schedule.ii)
    counts.Sim.Lockstep.cycles;
  check int "dynamic ops" (100 * n) counts.Sim.Lockstep.dynamic_ops;
  check int "copies"
    (100 * Sched.Route.n_copies (Sched.Schedule.route s))
    counts.Sim.Lockstep.dynamic_copies;
  check int "useful default"
    (100 * (n - Sched.Route.n_copies (Sched.Schedule.route s)))
    counts.Sim.Lockstep.useful_ops;
  check bool "explicit prefix bounded" true
    (counts.Sim.Lockstep.explicit_iterations <= 100)

let test_lockstep_useful_override () =
  let g = Ddg.Examples.tiny_chain ~n:3 () in
  let o = schedule unified g in
  let c =
    Sim.Lockstep.run_exn ~useful_per_iteration:2 o.Sched.Driver.schedule
      ~iterations:10
  in
  check int "useful overridden" 20 c.Sim.Lockstep.useful_ops

let test_lockstep_rejects_bad_schedule () =
  let g = Ddg.Examples.tiny_chain ~n:4 () in
  let o = schedule unified g in
  let bad = corrupt o (fun c -> c.(3) <- 0) in
  check bool "execution fails" true
    (Result.is_error (Sim.Lockstep.run bad ~iterations:8))

(* A node without an issue cycle (what the fault catalog's
   lose-issue-cycle leaves) or on a cluster the machine lacks, and an II
   below 1, are an [Error] in the checker's words — not an index or
   division exception. *)
let test_lockstep_names_misplaced_node () =
  let g = Ddg.Examples.tiny_chain ~n:4 () in
  let o = schedule unified g in
  let lost = corrupt o (fun c -> c.(0) <- -1) in
  check (Alcotest.result Alcotest.reject Alcotest.string) "no issue cycle"
    (Error "node t0 has no issue cycle")
    (Sim.Lockstep.run lost ~iterations:8);
  let s = o.Sched.Driver.schedule in
  let route = Sched.Schedule.route s in
  let assign = Array.copy route.Sched.Route.assign in
  assign.(2) <- 1;
  let stray =
    { s with Sched.Schedule.routing = Routed { route with Sched.Route.assign } }
  in
  check (Alcotest.result Alcotest.reject Alcotest.string) "bogus cluster"
    (Error "node t2 assigned to bogus cluster 1")
    (Sim.Lockstep.run stray ~iterations:8);
  check (Alcotest.result Alcotest.reject Alcotest.string) "II 0"
    (Error "II 0 < 1")
    (Sim.Lockstep.run { s with Sched.Schedule.ii = 0 } ~iterations:8)

(* The checker sizes its per-slot tables by the II and takes cycles
   modulo it, so an II below 1 is its whole answer, not a division or
   allocation exception. *)
let test_checker_rejects_ii_below_one ii () =
  let g = Ddg.Examples.tiny_chain ~n:4 () in
  let s = (schedule unified g).Sched.Driver.schedule in
  check
    (Alcotest.result Alcotest.unit (Alcotest.list Alcotest.string))
    (Printf.sprintf "II %d" ii)
    (Error [ Printf.sprintf "II %d < 1" ii ])
    (Sim.Checker.check { s with Sched.Schedule.ii })

let test_lockstep_one_iteration () =
  let g = Ddg.Examples.tiny_chain ~n:4 () in
  let o = schedule unified g in
  let c = Sim.Lockstep.run_exn o.Sched.Driver.schedule ~iterations:1 in
  check int "one iteration"
    (Sched.Schedule.stage_count o.Sched.Driver.schedule
     * o.Sched.Driver.schedule.Sched.Schedule.ii)
    c.Sim.Lockstep.cycles;
  check bool "rejects zero iterations" true
    (Result.is_error (Sim.Lockstep.run o.Sched.Driver.schedule ~iterations:0))

let test_lockstep_matches_analytic_on_replicated () =
  let g = Ddg.Examples.figure3 () in
  let config =
    Machine.Config.custom ~clusters:4 ~buses:1 ~bus_latency:1 ~registers:64
      ~fus_per_cluster:(4, 0, 0)
  in
  let tr, _ = Replication.Replicate.transform () in
  match Sched.Driver.schedule_loop ~transform:tr config g with
  | Error e -> Alcotest.failf "driver: %s" (Sched.Sched_error.to_string e)
  | Ok o ->
      let s = o.Sched.Driver.schedule in
      let c =
        Sim.Lockstep.run_exn ~useful_per_iteration:14 s ~iterations:50
      in
      check int "analytic texec"
        (Sched.Schedule.execution_cycles s ~iterations:50)
        c.Sim.Lockstep.cycles;
      check int "useful counts originals only" (50 * 14)
        c.Sim.Lockstep.useful_ops

let suite =
  [
    Alcotest.test_case "checker accepts good schedules" `Quick
      test_checker_accepts_good;
    Alcotest.test_case "checker catches dependence violation" `Quick
      test_checker_catches_dependence_violation;
    Alcotest.test_case "checker catches fu oversubscription" `Quick
      test_checker_catches_fu_oversubscription;
    Alcotest.test_case "checker register toggle" `Quick
      test_checker_register_toggle;
    Alcotest.test_case "lockstep counts" `Quick test_lockstep_counts;
    Alcotest.test_case "lockstep useful override" `Quick
      test_lockstep_useful_override;
    Alcotest.test_case "lockstep rejects bad schedule" `Quick
      test_lockstep_rejects_bad_schedule;
    Alcotest.test_case "lockstep names a misplaced node" `Quick
      test_lockstep_names_misplaced_node;
    Alcotest.test_case "checker rejects II 0" `Quick
      (test_checker_rejects_ii_below_one 0);
    Alcotest.test_case "checker rejects II -1" `Quick
      (test_checker_rejects_ii_below_one (-1));
    Alcotest.test_case "lockstep one iteration" `Quick
      test_lockstep_one_iteration;
    Alcotest.test_case "lockstep matches analytic on replicated" `Quick
      test_lockstep_matches_analytic_on_replicated;
  ]
