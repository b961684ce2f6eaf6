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

(* A digest of everything a generated loop carries: id, benchmark, trip,
   visits, graph name, labels and structure. *)
let suite_digest loops =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let g = l.graph in
      Printf.bprintf b "%s|%s|%d|%d|%s|%s|%s\n" l.id l.benchmark l.trip
        l.visits (Ddg.Graph.name g)
        (String.concat "," (List.map (Ddg.Graph.label g) (Ddg.Graph.nodes g)))
        (Ddg.Graph.structural_encoding g))
    loops;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The suite with every benchmark profile's seed offset by [k], as the
   benchmark's seeded inputs draw it. *)
let offset_suite k =
  List.concat_map
    (fun (b : Workload.Benchmark.t) ->
      Workload.Generator.generate
        { b with Workload.Benchmark.seed = b.Workload.Benchmark.seed + k })
    Workload.Benchmark.all

(* Generation is pinned to the loops it has always produced: a change
   to the random stream, the labels or the loop ids that moves one
   byte of one loop changes these digests, and with them every figure. *)
let test_suite_digest_pinned () =
  check Alcotest.string "committed suite" "9cb06d46367472dde65d8aeb10fdcbfc"
    (suite_digest (Workload.Generator.suite ()));
  check Alcotest.string "seed-1 suite" "29138766936d2905833ae05e6fbbdae6"
    (suite_digest (offset_suite 1))

type draw =
  | Int of int
  | Range of int * int
  | Float
  | Chance of float
  | Pick of int
  | Split of bool  (* continue on the child, or draw once from it *)

let print_draw = function
  | Int n -> Printf.sprintf "int %d" n
  | Range (lo, hi) -> Printf.sprintf "range %d %d" lo hi
  | Float -> "float"
  | Chance p -> Printf.sprintf "chance %h" p
  | Pick k -> Printf.sprintf "pick of %d" k
  | Split child ->
      Printf.sprintf "split (%s)" (if child then "child" else "draw")

let draws_arb =
  let open QCheck.Gen in
  let draw =
    frequency
      [
        ( 3,
          map
            (fun n -> Int (1 + (n land (max_int lsr 1))))
            (oneof [ small_nat; int ]) );
        ( 2,
          map2
            (fun lo w -> Range (lo, lo + w))
            (int_range (-1000) 1000) small_nat );
        (2, return Float);
        (2, map (fun p -> Chance p) (float_bound_inclusive 1.));
        (2, map (fun k -> Pick k) (int_range 1 8));
        (1, map (fun child -> Split child) bool);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(pair int (list print_draw))
    (pair int (list_size (int_range 0 80) draw))

(* The unboxed generator draws the very stream of the boxed one it
   replaced, for any seed and any sequence of draws. *)
let prop_rng_matches_reference =
  QCheck.Test.make ~name:"Rng stream equals SplitMix64" ~count:300 draws_arb
    (fun (seed, draws) ->
      let module R = Workload.Rng in
      let module S = Reference.Rng in
      let rec go a b = function
        | [] -> true
        | d :: rest -> (
            match d with
            | Int n -> R.int a n = S.int b n && go a b rest
            | Range (lo, hi) ->
                R.range a lo hi = S.range b lo hi && go a b rest
            | Float -> R.float a = S.float b && go a b rest
            | Chance p -> R.chance a p = S.chance b p && go a b rest
            | Pick k ->
                let l = List.init k Fun.id in
                R.pick a l = S.pick b l && go a b rest
            | Split true -> go (R.split a) (S.split b) rest
            | Split false ->
                R.int (R.split a) 1000 = S.int (S.split b) 1000 && go a b rest)
      in
      go (R.create seed) (S.create seed) draws)

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
    Alcotest.test_case "suite digest pinned" `Quick test_suite_digest_pinned;
    QCheck_alcotest.to_alcotest prop_rng_matches_reference;
    Alcotest.test_case "loops have all op kinds" `Quick
      test_loops_have_memory_and_fp;
    Alcotest.test_case "applu low trip" `Quick test_applu_low_trip;
    Alcotest.test_case "loops modulo schedulable" `Quick
      test_loops_modulo_schedulable;
  ]
