(* Spill-code insertion under register pressure. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let tight32 = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:32

let rec take k = function
  | [] -> [] | _ when k = 0 -> [] | x :: tl -> x :: take (k - 1) tl

let test_rewrite_inserts_pair () =
  (* craft a pressure case: schedule on a roomy machine, then ask the
     rewriter to spill as if the file were tiny *)
  let l = List.hd (Workload.Generator.generate (Workload.Benchmark.find "fpppp")) in
  let g = l.Workload.Generator.graph in
  let roomy = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:256 in
  match Sched.Driver.schedule_loop roomy g with
  | Error e -> Alcotest.failf "driver: %s" (Sched.Sched_error.to_string e)
  | Ok o -> (
      let assign =
        Array.sub
          (Sched.Schedule.route o.Sched.Driver.schedule).Sched.Route.assign 0
          (Ddg.Graph.n_nodes o.Sched.Driver.graph)
      in
      match
        Sched.Spill.rewrite tight32 o.Sched.Driver.schedule
          ~graph:o.Sched.Driver.graph ~assign
      with
      | None -> () (* pressure may genuinely be low; fine *)
      | Some (g', assign') ->
          check int "two new nodes" (Ddg.Graph.n_nodes o.Sched.Driver.graph + 2)
            (Ddg.Graph.n_nodes g');
          check int "assign covers" (Ddg.Graph.n_nodes g')
            (Array.length assign');
          (* a store and a load were appended *)
          let n = Ddg.Graph.n_nodes g' in
          check bool "store appended" true (Ddg.Graph.is_store g' (n - 2));
          check bool "reload appended" true
            (Ddg.Graph.op g' (n - 1) = Machine.Opclass.Load))

let test_spiller_reduces_ii_on_tight_machine () =
  (* across pressure-heavy loops, spilling should never lose to pure II
     escalation, and should win somewhere *)
  let loops = take 12 (Workload.Generator.generate (Workload.Benchmark.find "fpppp")) in
  let won = ref 0 in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let plain = Sched.Driver.schedule_loop tight32 l.graph in
      let spilled =
        Sched.Driver.schedule_loop ~spiller:Sched.Spill.spiller tight32 l.graph
      in
      match (plain, spilled) with
      | Ok p, Ok s ->
          Sim.Checker.check_exn s.Sched.Driver.schedule;
          if s.Sched.Driver.ii < p.Sched.Driver.ii then incr won
      | Error _, Ok s ->
          (* spilling rescued an unschedulable loop *)
          Sim.Checker.check_exn s.Sched.Driver.schedule;
          incr won
      | _, Error _ -> ())
    loops;
  check bool "spilling wins at least once" true (!won > 0)

let test_spilled_schedules_simulate () =
  let loops = take 6 (Workload.Generator.generate (Workload.Benchmark.find "fpppp")) in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      match
        Sched.Driver.schedule_loop ~spiller:Sched.Spill.spiller tight32 l.graph
      with
      | Error _ -> ()
      | Ok o ->
          let c =
            Sim.Lockstep.run_exn
              ~useful_per_iteration:(Ddg.Graph.n_nodes l.graph)
              o.Sched.Driver.schedule ~iterations:20
          in
          check bool "simulates" true (c.Sim.Lockstep.cycles > 0))
    loops

let suite =
  [
    Alcotest.test_case "rewrite inserts store/reload" `Quick
      test_rewrite_inserts_pair;
    Alcotest.test_case "spiller reduces ii on tight machine" `Quick
      test_spiller_reduces_ii_on_tight_machine;
    Alcotest.test_case "spilled schedules simulate" `Quick
      test_spilled_schedules_simulate;
  ]
