(* Tests of the benchmark's own code: the percentile rule, due-time
   accounting on synthetic timestamps, and one planted bad output per
   workload that must show as failed_frac > 0. *)

open Perfbench

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  Alcotest.(check bool) "p99 of 999 withheld" true
    (Stats.percentile 99. (ints 999) = None);
  (match Stats.percentile 99. (ints 1000) with
  | Some p ->
      check_float "p99 of 1..1000 is the 990th" 990. p.Stats.value;
      Alcotest.(check int) "sample count" 1000 p.Stats.n
  | None -> Alcotest.fail "p99 of 1000 samples withheld");
  Alcotest.(check bool) "p50 of 19 withheld" true
    (Stats.percentile 50. (ints 19) = None);
  (match Stats.percentile 50. (List.rev (ints 20)) with
  | Some p -> check_float "p50 of 20, order-free" 10. p.Stats.value
  | None -> Alcotest.fail "p50 of 20 samples withheld");
  Alcotest.(check int) "p99 needs 1000" 1000 (Stats.samples_needed 99.);
  Alcotest.(check int) "p50 needs 20" 20 (Stats.samples_needed 50.)

let test_median () =
  check_float "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

(* ------------------------------------------------------------------ *)
(* Due-time accounting                                                 *)
(* ------------------------------------------------------------------ *)

let test_latency_from_due () =
  (* the generator ran 0.5 s late; the user still waited 0.6 s *)
  let s = { Stats.due = 1.0; sent = 1.5; replied = 1.6 } in
  check_float "latency counts from due" 0.6 (Stats.latency s);
  check_float "lateness" 0.5 (Stats.lateness s)

let stream ~reply n =
  List.init n (fun i ->
      let due = float_of_int i *. 0.001 in
      { Stats.due; sent = due; replied = reply i due })

let test_backlog () =
  Alcotest.(check bool) "steady service keeps the backlog flat" false
    (Stats.backlog_grows (stream ~reply:(fun _ due -> due +. 0.005) 400));
  (* one reply every 2 ms against one request every 1 ms *)
  Alcotest.(check bool) "a server at half the offered rate falls behind" true
    (Stats.backlog_grows
       (stream ~reply:(fun i _ -> 0.002 *. float_of_int (i + 1)) 400))

let test_arrivals () =
  let loops = List.filteri (fun i _ -> i mod 50 = 0) (Inputs.suite ~seed:0) in
  let arrivals seed = Array.map (fun l -> l.Serve_wl.u) (Serve_wl.stream ~seed ~n:2000 loops) in
  Alcotest.(check bool) "same seed, same arrivals" true (arrivals 4 = arrivals 4);
  Alcotest.(check bool) "other seed, other arrivals" true (arrivals 4 <> arrivals 5);
  (* unit-rate arrivals: burst lines share an instant, so the span is a
     little under one time unit per line *)
  let a = arrivals 4 in
  let span = a.(Array.length a - 1) in
  Alcotest.(check bool) "mean gap near one" true (span > 1700. && span < 2100.)

(* ------------------------------------------------------------------ *)
(* Planted faults                                                      *)
(* ------------------------------------------------------------------ *)

let config = Inputs.config "4c1b2l64r"

let loops () =
  List.filteri (fun i _ -> i mod 113 = 0) (Inputs.suite ~seed:0)

(* The first catalog corruption that applies to [s]. *)
let corrupt s =
  match List.find_map (fun (f : Sim.Faults.injection) -> f.apply s) Sim.Faults.catalog with
  | Some bad -> bad
  | None -> Alcotest.fail "no catalog corruption applies"

let failed_frac ~attempted ~failed =
  let out = Out.create () in
  Out.count out ~attempted ~failed;
  Out.failed_frac out

let test_figures_cold_fault () =
  let runs = Metrics.Experiment.run_suite Metrics.Experiment.Replication config (loops ()) in
  let n, bad = Figures_wl.validate_runs runs in
  Alcotest.(check int) "clean runs validate" 0 (List.length bad);
  let planted =
    List.mapi
      (fun i (r : Metrics.Experiment.loop_run) ->
        if i > 0 then r
        else
          { r with outcome = { r.outcome with schedule = corrupt r.outcome.schedule } })
      runs
  in
  let _, bad = Figures_wl.validate_runs planted in
  Alcotest.(check bool) "planted schedule fails" true
    (failed_frac ~attempted:n ~failed:(List.length bad) > 0.)

let test_figures_warm_fault () =
  let cold = "=== fig7 ===\nIPC 4.61\n" in
  Alcotest.(check bool) "identical warm pass" true
    (Figures_wl.warm_ok ~cold ~text:cold ~misses:0);
  let planted = "=== fig7 ===\nIPC 4.62\n" in
  let failed =
    List.length
      (List.filter not
         [ Figures_wl.warm_ok ~cold ~text:planted ~misses:0;
           Figures_wl.warm_ok ~cold ~text:cold ~misses:1 ])
  in
  Alcotest.(check bool) "byte change and store miss both fail" true
    (failed = 2 && failed_frac ~attempted:2 ~failed > 0.)

let serve_run lines reply =
  let n = Array.length lines in
  {
    Serve_wl.lines;
    due = Array.make n 0.;
    sent = Array.make n 0.;
    replied = Array.make n 0.;
    reply = Array.mapi reply lines;
  }

let test_serve_fault () =
  let lines = Serve_wl.stream ~seed:3 ~n:6 (loops ()) in
  let refs = Serve_wl.references lines in
  let exact = serve_run lines (fun _ l -> Serve_wl.expected refs l) in
  Alcotest.(check int) "exact replies pass" 0 (Serve_wl.failures refs exact);
  let planted =
    serve_run lines (fun i l ->
        let r = Serve_wl.expected refs l in
        if i = 0 then String.sub r 0 (String.length r - 1) ^ " }" else r)
  in
  let shed =
    serve_run lines (fun i l ->
        if i = 1 then
          Printf.sprintf {|{"id":"%s","status":"overloaded","reason":"queue-full"}|}
            (List.hd l.Serve_wl.ids)
        else Serve_wl.expected refs l)
  in
  let attempted = Serve_wl.((shares lines).n_req) in
  List.iter
    (fun (what, run) ->
      Alcotest.(check bool) what true
        (failed_frac ~attempted ~failed:(Serve_wl.failures refs run) > 0.))
    [ ("altered reply fails", planted); ("overloaded reply fails", shed) ]

let test_exact_gap_fault () =
  let loop = Workload.Generator.random ~seed:7 ~nodes:6 () in
  match Gap_wl.run_loop config loop with
  | None -> Alcotest.fail "heuristic gave up on a 6-node loop"
  | Some row ->
      Alcotest.(check (list string)) "clean witness" [] (Gap_wl.check row).issues;
      let witness = Option.map corrupt row.witness in
      let planted = [ { row with witness }; { row with verdict = Proven (row.heur_ii + 1) } ] in
      let failed =
        List.length (List.filter (fun r -> (Gap_wl.check r).Gap_wl.issues <> []) planted)
      in
      Alcotest.(check int) "bad witness and II above heuristic both fail" 2 failed;
      Alcotest.(check bool) "failed_frac" true (failed_frac ~attempted:2 ~failed > 0.)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "latency from due time" `Quick test_latency_from_due;
          Alcotest.test_case "backlog growth" `Quick test_backlog;
          Alcotest.test_case "seeded arrivals" `Quick test_arrivals;
        ] );
      ( "perfbench faults",
        [
          Alcotest.test_case "figures-cold" `Quick test_figures_cold_fault;
          Alcotest.test_case "figures-warm" `Quick test_figures_warm_fault;
          Alcotest.test_case "serve-open" `Quick test_serve_fault;
          Alcotest.test_case "exact-gap" `Quick test_exact_gap_fault;
        ] );
    ]
