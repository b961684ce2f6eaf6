(* Workload: deterministic RNG, benchmark profiles, loop generation. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_rng_deterministic () =
  let a = Workload.Rng.create 42 and b = Workload.Rng.create 42 in
  for _ = 1 to 100 do
    check int "same stream" (Workload.Rng.int a 1000) (Workload.Rng.int b 1000)
  done;
  let c = Workload.Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Workload.Rng.int a 1000 <> Workload.Rng.int c 1000 then differs := true
  done;
  check bool "different seeds differ" true !differs

let test_rng_ranges () =
  let r = Workload.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Workload.Rng.int r 10 in
    check bool "in range" true (v >= 0 && v < 10);
    let w = Workload.Rng.range r 5 9 in
    check bool "range inclusive" true (w >= 5 && w <= 9);
    let f = Workload.Rng.float r in
    check bool "unit float" true (f >= 0. && f < 1.)
  done;
  check int "range single" 4 (Workload.Rng.range r 4 4);
  check bool "int rejects" true
    (try ignore (Workload.Rng.int r 0); false with Invalid_argument _ -> true);
  check bool "pick rejects empty" true
    (try ignore (Workload.Rng.pick r ([] : int list)); false
     with Invalid_argument _ -> true)

let test_rng_chance_extremes () =
  let r = Workload.Rng.create 3 in
  for _ = 1 to 50 do
    check bool "p=0 never" false (Workload.Rng.chance r 0.);
    check bool "p=1 always" true (Workload.Rng.chance r 1.)
  done

let test_benchmarks_total () =
  check int "678 loops" 678 Workload.Benchmark.total_loops;
  check int "ten benchmarks" 10 (List.length Workload.Benchmark.all);
  check bool "find" true
    ((Workload.Benchmark.find "MGRID").Workload.Benchmark.name = "mgrid");
  check bool "find missing" true
    (try ignore (Workload.Benchmark.find "gcc"); false
     with Not_found -> true)

let test_suite_shape () =
  let loops = Workload.Generator.suite () in
  check int "678 generated" 678 (List.length loops);
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let p = Workload.Benchmark.find l.benchmark in
      let n = Ddg.Graph.n_nodes l.graph in
      check bool "positive nodes" true (n > 0);
      check bool "trip in profile range" true
        (l.trip >= fst p.Workload.Benchmark.trip
        && l.trip <= snd p.Workload.Benchmark.trip);
      check bool "visits in profile range" true
        (l.visits >= fst p.Workload.Benchmark.visits
        && l.visits <= snd p.Workload.Benchmark.visits);
      check bool "weight positive" true (Workload.Generator.dynamic_weight l > 0))
    loops

let test_generation_deterministic () =
  let a = Workload.Generator.suite () in
  let b = Workload.Generator.suite () in
  List.iter2
    (fun (x : Workload.Generator.loop) (y : Workload.Generator.loop) ->
      check bool "same id" true (x.id = y.id);
      check int "same size" (Ddg.Graph.n_nodes x.graph)
        (Ddg.Graph.n_nodes y.graph);
      check int "same edges"
        (Array.length (Ddg.Graph.edges x.graph))
        (Array.length (Ddg.Graph.edges y.graph));
      check int "same trip" x.trip y.trip)
    a b

let test_loops_have_memory_and_fp () =
  List.iter
    (fun (l : Workload.Generator.loop) ->
      check bool "has mem ops" true
        (Ddg.Graph.n_ops_of_kind l.graph Machine.Fu.Mem > 0);
      check bool "has fp ops" true
        (Ddg.Graph.n_ops_of_kind l.graph Machine.Fu.Fp > 0);
      check bool "has int ops" true
        (Ddg.Graph.n_ops_of_kind l.graph Machine.Fu.Int > 0))
    (Workload.Generator.generate (Workload.Benchmark.find "hydro2d"))

let test_applu_low_trip () =
  List.iter
    (fun (l : Workload.Generator.loop) ->
      check bool "applu trips tiny" true (l.trip <= 6))
    (Workload.Generator.generate (Workload.Benchmark.find "applu"))

let test_loops_modulo_schedulable () =
  (* every generated loop must schedule on the unified machine at a
     finite II — the suite is the paper's "loops that can be modulo
     scheduled" *)
  let unified = Machine.Config.unified ~registers:64 in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      match Sched.Driver.schedule_loop unified l.graph with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" l.id (Sched.Sched_error.to_string e))
    (Workload.Generator.generate (Workload.Benchmark.find "tomcatv"))

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng chance extremes" `Quick test_rng_chance_extremes;
    Alcotest.test_case "benchmark totals" `Quick test_benchmarks_total;
    Alcotest.test_case "suite shape" `Quick test_suite_shape;
    Alcotest.test_case "generation deterministic" `Quick
      test_generation_deterministic;
    Alcotest.test_case "loops have all op kinds" `Quick
      test_loops_have_memory_and_fp;
    Alcotest.test_case "applu low trip" `Quick test_applu_low_trip;
    Alcotest.test_case "loops modulo schedulable" `Quick
      test_loops_modulo_schedulable;
  ]
