(* Acyclic list scheduling and its replication post-pass (Section 6
   extension). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let config3c =
  Machine.Config.custom ~clusters:3 ~buses:1 ~bus_latency:1 ~registers:60
    ~fus_per_cluster:(2, 1, 1)

let config4c = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64
let unified = Machine.Config.unified ~registers:64

(* drop loop-carried edges from a workload loop to get a realistic
   acyclic block *)
let acyclic_of g =
  let b = Ddg.Graph.Builder.create ~name:(Ddg.Graph.name g ^ ".acyclic") () in
  List.iter
    (fun v ->
      ignore
        (Ddg.Graph.Builder.add b ~label:(Ddg.Graph.label g v)
           (Ddg.Graph.op g v)))
    (Ddg.Graph.nodes g);
  Array.iter
    (fun e ->
      if e.Ddg.Graph.distance = 0 then
        match e.Ddg.Graph.kind with
        | Ddg.Graph.Reg ->
            Ddg.Graph.Builder.depend b ~latency:e.Ddg.Graph.latency
              ~src:e.Ddg.Graph.src ~dst:e.Ddg.Graph.dst
        | Ddg.Graph.Mem ->
            Ddg.Graph.Builder.mem_depend b ~src:e.Ddg.Graph.src
              ~dst:e.Ddg.Graph.dst)
    (Ddg.Graph.edges g);
  Ddg.Graph.Builder.build b

let test_schedules_chain () =
  let g = Ddg.Examples.tiny_chain ~n:5 () in
  match Sched.Listsched.schedule_auto unified g with
  | Error e -> Alcotest.failf "listsched: %s" e
  | Ok s ->
      check int "chain makespan = path length" 5 s.Sched.Listsched.makespan;
      check bool "verifies" true
        (Result.is_ok (Sched.Listsched.verify unified s))

let test_rejects_loop_carried () =
  let g = Ddg.Examples.with_recurrence () in
  check bool "raises" true
    (try ignore (Sched.Listsched.schedule_auto unified g); false
     with Invalid_argument _ -> true)

let test_resource_serialization () =
  (* 6 independent fp ops on a machine with 1 fp unit: makespan covers
     six sequential issues *)
  let b = Ddg.Graph.Builder.create () in
  for _ = 1 to 6 do
    ignore (Ddg.Graph.Builder.add b Machine.Opclass.Fp_arith)
  done;
  let g = Ddg.Graph.Builder.build b in
  let one_fp =
    Machine.Config.custom ~clusters:1 ~buses:0 ~bus_latency:0 ~registers:64
      ~fus_per_cluster:(0, 1, 0)
  in
  match Sched.Listsched.schedule_auto one_fp g with
  | Error e -> Alcotest.failf "listsched: %s" e
  | Ok s ->
      (* last issue at cycle 5, fp latency 3 *)
      check int "serialized" 8 s.Sched.Listsched.makespan

let test_figure11_schedules () =
  let g = Ddg.Examples.figure11 () in
  match Sched.Listsched.schedule_auto config3c g with
  | Error e -> Alcotest.failf "listsched: %s" e
  | Ok s ->
      check bool "verifies" true
        (Result.is_ok (Sched.Listsched.verify config3c s))

let test_workload_blocks_schedule_and_verify () =
  let rec take k = function
    | [] -> [] | _ when k = 0 -> [] | x :: tl -> x :: take (k - 1) tl
  in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let g = acyclic_of l.graph in
      List.iter
        (fun config ->
          match Sched.Listsched.schedule_auto config g with
          | Error e -> Alcotest.failf "%s: %s" l.id e
          | Ok s -> (
              match Sched.Listsched.verify config s with
              | Ok () -> ()
              | Error es ->
                  Alcotest.failf "%s: %s" l.id (String.concat "; " es)))
        [ unified; config4c; config3c ])
    (take 6 (Workload.Generator.generate (Workload.Benchmark.find "swim")))

let test_acyclic_replication_improves_or_keeps () =
  let rec take k = function
    | [] -> [] | _ when k = 0 -> [] | x :: tl -> x :: take (k - 1) tl
  in
  let improved_any = ref false in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let g = acyclic_of l.graph in
      match Replication.Acyclic.improve config4c g with
      | Error e -> Alcotest.failf "%s: %s" l.id e
      | Ok r ->
          let b = r.Replication.Acyclic.baseline.Sched.Listsched.makespan in
          let i = r.Replication.Acyclic.improved.Sched.Listsched.makespan in
          check bool "never longer" true (i <= b);
          if i < b then improved_any := true;
          check bool "improved verifies" true
            (Result.is_ok
               (Sched.Listsched.verify config4c r.Replication.Acyclic.improved));
          if r.Replication.Acyclic.rounds = 0 then
            check int "no replicas when no rounds" 0
              r.Replication.Acyclic.replicas_added)
    (take 12 (Workload.Generator.generate (Workload.Benchmark.find "tomcatv")));
  (* across a dozen communication-heavy blocks the pass should win at
     least once - otherwise it is a no-op and something broke *)
  check bool "improves at least one block" true !improved_any

let suite =
  [
    Alcotest.test_case "schedules chain" `Quick test_schedules_chain;
    Alcotest.test_case "rejects loop carried" `Quick test_rejects_loop_carried;
    Alcotest.test_case "resource serialization" `Quick
      test_resource_serialization;
    Alcotest.test_case "figure11 schedules" `Quick test_figure11_schedules;
    Alcotest.test_case "workload blocks schedule+verify" `Quick
      test_workload_blocks_schedule_and_verify;
    Alcotest.test_case "acyclic replication improves or keeps" `Quick
      test_acyclic_replication_improves_or_keeps;
  ]
