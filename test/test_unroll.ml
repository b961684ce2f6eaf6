(* Loop unrolling transform. *)

open Ddg

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_factor_one_is_identity () =
  let g = Examples.with_recurrence () in
  let g' = Workload.Unroll.unroll g ~factor:1 in
  check bool "physically same" true (g == g')

let test_sizes () =
  let g = Examples.figure3 () in
  let g2 = Workload.Unroll.unroll g ~factor:2 in
  check int "nodes doubled" (2 * Graph.n_nodes g) (Graph.n_nodes g2);
  check int "edges doubled" (2 * Array.length (Graph.edges g))
    (Array.length (Graph.edges g2));
  let g4 = Workload.Unroll.unroll g ~factor:4 in
  check int "nodes x4" (4 * Graph.n_nodes g) (Graph.n_nodes g4)

let test_recurrence_distances () =
  (* a self-edge of distance 1 becomes a cross-copy chain that closes
     once per unrolled iteration: the recurrence-per-result rate is
     unchanged, so RecMII scales with the factor *)
  let g = Examples.with_recurrence () in
  let rec_1 = Mii.rec_mii g in
  let g2 = Workload.Unroll.unroll g ~factor:2 in
  check int "rec mii doubles" (2 * rec_1) (Mii.rec_mii g2);
  (* and the unified resource bound scales the same way, so per-result
     cost stays flat *)
  let unified = Machine.Config.unified ~registers:64 in
  check bool "res mii scales" true
    (Mii.res_mii unified g2 >= Mii.res_mii unified g)

let test_unrolled_loop_schedulable () =
  let loops = Workload.Generator.generate (Workload.Benchmark.find "turb3d") in
  let l = List.hd loops in
  let l2 = Workload.Unroll.unrolled_loop l ~factor:2 in
  check bool "id suffixed" true
    (String.length l2.Workload.Generator.id
    > String.length l.Workload.Generator.id);
  check bool "trip halved (rounded up)" true
    (l2.Workload.Generator.trip = (l.Workload.Generator.trip + 1) / 2);
  let config = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64 in
  match Sched.Driver.schedule_loop config l2.Workload.Generator.graph with
  | Ok o -> Sim.Checker.check_exn o.Sched.Driver.schedule
  | Error e -> Alcotest.failf "unrolled loop failed: %s" (Sched.Sched_error.to_string e)

let test_unroll_reduces_comm_rate () =
  (* the headline claim: per original iteration, the unrolled loop
     communicates less, because whole copies can live in one cluster *)
  let g = Examples.figure3 () in
  let config = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64 in
  let comm_rate g factor =
    match Sched.Driver.schedule_loop config g with
    | Ok o ->
        float_of_int o.Sched.Driver.n_comms /. float_of_int factor
    | Error e -> Alcotest.failf "driver: %s" (Sched.Sched_error.to_string e)
  in
  let base = comm_rate g 1 in
  let unrolled = comm_rate (Workload.Unroll.unroll g ~factor:4) 4 in
  check bool "per-iteration comms not higher" true (unrolled <= base +. 1e-9)

let test_invalid_factor () =
  check bool "rejects" true
    (try ignore (Workload.Unroll.unroll (Examples.tiny_chain ()) ~factor:0); false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "factor one identity" `Quick test_factor_one_is_identity;
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "recurrence distances" `Quick test_recurrence_distances;
    Alcotest.test_case "unrolled loop schedulable" `Quick
      test_unrolled_loop_schedulable;
    Alcotest.test_case "unroll reduces comm rate" `Quick
      test_unroll_reduces_comm_rate;
    Alcotest.test_case "invalid factor" `Quick test_invalid_factor;
  ]
