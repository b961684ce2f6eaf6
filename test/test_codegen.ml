(* Code emission. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let contains sub s =
  let ls = String.length sub and le = String.length s in
  let rec go i = i + ls <= le && (String.sub s i ls = sub || go (i + 1)) in
  go 0

let config4c = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64

let schedule config g =
  match Sched.Driver.schedule_loop config g with
  | Ok o -> o.Sched.Driver.schedule
  | Error e -> Alcotest.failf "driver: %s" (Sched.Sched_error.to_string e)

let test_kernel_symbolic () =
  let s = schedule config4c (Ddg.Examples.figure3 ()) in
  let text = Sim.Codegen.kernel s in
  check bool "has labels" true (contains "L0:" text);
  check bool "mentions every node" true
    (List.for_all
       (fun v ->
         contains (Ddg.Graph.label (Sched.Schedule.route s).Sched.Route.graph v)
           text)
       (Ddg.Graph.nodes (Sched.Schedule.route s).Sched.Route.graph));
  (* the figure3 schedule on 4 clusters needs the bus *)
  if Sched.Route.n_copies (Sched.Schedule.route s) > 0 then
    check bool "bus transfers shown" true (contains "copy.bus" text)

let test_kernel_with_registers () =
  let s = schedule config4c (Ddg.Examples.figure3 ()) in
  let alloc = Sched.Regalloc.allocate_exn s in
  let text = Sim.Codegen.kernel ~alloc s in
  check bool "register operands" true (contains "r0" text);
  check bool "assignment arrows" true (contains "<- " text)

let test_pipeline_phases () =
  let s = schedule config4c (Ddg.Examples.tiny_chain ~n:6 ()) in
  let text = Sim.Codegen.pipeline s ~iterations:6 in
  check bool "prologue" true (contains "[prologue]" text);
  check bool "kernel" true (contains "[kernel" text);
  (* count issue lines: every dynamic op appears exactly once *)
  let issues =
    String.split_on_char '\n' text
    |> List.concat_map (fun l -> String.split_on_char '[' l)
    |> List.filter (fun tok -> contains "]@c" ("[" ^ tok))
  in
  (* every dynamic op (copies included) appears exactly once *)
  check int "dynamic ops"
    (6 * Ddg.Graph.n_nodes (Sched.Schedule.route s).Sched.Route.graph)
    (List.length issues)

let test_pipeline_guards () =
  let s = schedule config4c (Ddg.Examples.tiny_chain ~n:3 ()) in
  check bool "rejects zero iterations" true
    (try ignore (Sim.Codegen.pipeline s ~iterations:0); false
     with Invalid_argument _ -> true);
  check bool "rejects huge traces" true
    (try ignore (Sim.Codegen.pipeline s ~iterations:1_000_000); false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "kernel symbolic" `Quick test_kernel_symbolic;
    Alcotest.test_case "kernel with registers" `Quick
      test_kernel_with_registers;
    Alcotest.test_case "pipeline phases" `Quick test_pipeline_phases;
    Alcotest.test_case "pipeline guards" `Quick test_pipeline_guards;
  ]
