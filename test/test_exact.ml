(* Differential tests for the exact SAT backend (Sched.Exact): on small
   loops the oracle must never do worse than the heuristic driver, every
   decoded witness must survive the two independent checkers
   (Check.Validate and the lockstep simulator), and its optimality
   claims must withstand two refutation probes — the heuristic schedule
   planted as a witness at its own II (so `Unsat there indicts the
   encoder, not the loop), and the exact witness squeezed to II-1, which
   Validate must reject wherever the UNSAT certificate at II-1 was
   honest. *)

open Ddg

(* Best heuristic outcome over the baseline and replication drivers —
   the "heuristic II" the gap report compares against. *)
let heuristic config g =
  let base = Sched.Driver.schedule_loop config g in
  let tf, _ = Replication.Replicate.transform () in
  let repl = Sched.Driver.schedule_loop ~transform:tf config g in
  match (base, repl) with
  | Ok a, Ok b -> Some (if b.Sched.Driver.ii <= a.Sched.Driver.ii then b else a)
  | Ok a, Error _ -> Some a
  | Error _, Ok b -> Some b
  | Error _, Error _ -> None

let check_witness ~name ~original (s : Sched.Schedule.t) ~ii =
  Alcotest.(check int) (name ^ ": witness II") ii s.Sched.Schedule.ii;
  (match Check.Validate.run ~original s with
  | Ok () -> ()
  | Error issues ->
      Alcotest.failf "%s: exact witness rejected by Validate: %s" name
        (String.concat "; " (Check.Validate.to_strings issues)));
  let iterations = 4 in
  match
    Sim.Lockstep.run
      ~useful_per_iteration:(Graph.n_nodes original)
      s ~iterations
  with
  | Error msg ->
      Alcotest.failf "%s: lockstep rejected exact witness: %s" name msg
  | Ok counts ->
      Alcotest.(check int)
        (name ^ ": lockstep cycles match the claimed II")
        (Sched.Schedule.execution_cycles s ~iterations)
        counts.Sim.Lockstep.cycles

(* One full differential case.  Returns [true] when conclusive: the
   heuristic scheduled the loop and the oracle reached a verdict. *)
let check_case ~name config g =
  match heuristic config g with
  | None -> false
  | Some o -> (
      let heur_ii = o.Sched.Driver.ii in
      (* a horizon past the heuristic schedule keeps its witness inside
         the search space, so `Unsat at heur_ii is impossible *)
      let horizon =
        Sched.Schedule.length o.Sched.Driver.schedule + heur_ii + 2
      in
      match
        Sched.Exact.minimum_ii ~horizon ~max_ii:heur_ii ~max_cegar:40 config
          g
      with
      | Ok f ->
          if f.Sched.Exact.f_ii > heur_ii then
            Alcotest.failf "%s: exact II %d exceeds heuristic II %d" name
              f.Sched.Exact.f_ii heur_ii;
          check_witness ~name ~original:g f.Sched.Exact.f_schedule
            ~ii:f.Sched.Exact.f_ii;
          (* certificate spot-check: if the level below the witness was
             refuted, the witness squeezed to II-1 must not validate *)
          (if f.Sched.Exact.f_proven && f.Sched.Exact.f_ii > 1 then
             let squeezed =
               {
                 f.Sched.Exact.f_schedule with
                 Sched.Schedule.ii = f.Sched.Exact.f_ii - 1;
               }
             in
             match Check.Validate.run ~original:g squeezed with
             | Ok () ->
                 Alcotest.failf
                   "%s: UNSAT certificate at II %d refuted — the witness \
                    itself validates there"
                   name
                   (f.Sched.Exact.f_ii - 1)
             | Error _ -> ());
          true
      | Error e ->
          (* no witness up to the heuristic II: the planted heuristic
             witness makes `Unsat at heur_ii an encoder bug; `Unknown is
             merely inconclusive *)
          (match Sched.Exact.solve_at ~horizon config g ~ii:heur_ii with
          | `Unsat ->
              Alcotest.failf
                "%s: exact refutes II %d where the heuristic planted a \
                 witness (walk said %s)"
                name heur_ii
                (Sched.Sched_error.to_string e)
          | `Sat _ | `Unknown -> ());
          false)

(* ---- known optima ------------------------------------------------ *)

(* Loops whose optimum is known by hand: three independent integer adds
   on a unified machine schedule at II = 1; a multiply-add recurrence of
   total latency 3 over distance 1 forces II = 3.  Both must be found
   AND proven. *)
let test_known_optima () =
  let b = Graph.Builder.create ~name:"tiny" () in
  for _ = 1 to 3 do
    ignore (Graph.Builder.add b Machine.Opclass.Int_arith)
  done;
  let g = Graph.Builder.build b in
  let config = Machine.Config.unified ~registers:64 in
  (match Sched.Exact.minimum_ii config g with
  | Ok f ->
      Alcotest.(check int) "independent adds reach II=1" 1
        f.Sched.Exact.f_ii;
      Alcotest.(check bool) "and the optimum is proven" true
        f.Sched.Exact.f_proven;
      check_witness ~name:"tiny" ~original:g f.Sched.Exact.f_schedule ~ii:1
  | Error e ->
      Alcotest.failf "tiny loop failed: %s" (Sched.Sched_error.to_string e));
  let b = Graph.Builder.create ~name:"recur" () in
  let u = Graph.Builder.add b ~label:"U" Machine.Opclass.Int_mul in
  let v = Graph.Builder.add b ~label:"V" Machine.Opclass.Int_arith in
  Graph.Builder.depend b ~src:u ~dst:v;
  Graph.Builder.depend b ~distance:1 ~src:v ~dst:u;
  let g = Graph.Builder.build b in
  match Sched.Exact.minimum_ii config g with
  | Ok f ->
      Alcotest.(check int) "lat-3 recurrence forces II=3" 3
        f.Sched.Exact.f_ii;
      Alcotest.(check bool) "proven at the recurrence bound" true
        f.Sched.Exact.f_proven;
      check_witness ~name:"recur" ~original:g f.Sched.Exact.f_schedule ~ii:3
  | Error e ->
      Alcotest.failf "recur loop failed: %s" (Sched.Sched_error.to_string e)

(* The budget hook must degrade to the driver's Timeout class. *)
let test_budget_timeout () =
  let loop, config, _ = Check.Fuzz.case_of_seed ~seed:1 ~nodes:8 in
  let budget = Sched.Budget.make ~max_attempts:0 () in
  match
    Sched.Exact.minimum_ii ~budget config loop.Workload.Generator.graph
  with
  | Error (Sched.Sched_error.Timeout t) ->
      Alcotest.(check int) "no attempts were spent" 0 t.attempts
  | Ok _ -> Alcotest.fail "zero-attempt budget still found a schedule"
  | Error e ->
      Alcotest.failf "expected timeout, got %s"
        (Sched.Sched_error.to_string e)

(* Monotonicity in the replication dimension: allowing replicas can
   only widen the schedule space, never shrink it. *)
let test_replicate_dimension () =
  let loop, _, _ = Check.Fuzz.case_of_seed ~seed:7 ~nodes:10 in
  let g = loop.Workload.Generator.graph in
  let config =
    Machine.Config.make ~clusters:2 ~buses:1 ~bus_latency:2 ~registers:64
  in
  match
    ( Sched.Exact.minimum_ii ~replicate:false ~max_ii:40 config g,
      Sched.Exact.minimum_ii ~replicate:true ~max_ii:40 config g )
  with
  | Ok base, Ok repl ->
      Alcotest.(check bool) "replication never raises the exact II" true
        (repl.Sched.Exact.f_ii <= base.Sched.Exact.f_ii)
  | _ -> Alcotest.fail "exact failed to schedule the replication probe"

(* ---- differential sweeps ----------------------------------------- *)

let test_fuzz_differential () =
  let cases = List.init 20 (fun i -> (3 * i, 4 + (i mod 11))) in
  let conclusive = ref 0 in
  List.iter
    (fun (seed, nodes) ->
      let loop, config, _mode = Check.Fuzz.case_of_seed ~seed ~nodes in
      let name =
        Printf.sprintf "fuzz seed=%d nodes=%d config=%s" seed nodes
          (Machine.Config.name config)
      in
      if check_case ~name config loop.Workload.Generator.graph then
        incr conclusive)
    cases;
  if !conclusive < 10 then
    Alcotest.failf "only %d/20 fuzz cases were conclusive" !conclusive

let test_suite_differential () =
  (* the generated evaluation suite bottoms out at 16 nodes *)
  let small =
    List.filter
      (fun l -> Graph.n_nodes l.Workload.Generator.graph <= 18)
      (Workload.Generator.suite ())
  in
  let cases = List.filteri (fun i _ -> i < 8) small in
  Alcotest.(check bool) "suite has small loops" true (List.length cases > 0);
  let conclusive = ref 0 in
  List.iteri
    (fun i l ->
      let clusters = if i mod 2 = 0 then 4 else 2 in
      let config =
        Machine.Config.make ~clusters ~buses:1 ~bus_latency:2 ~registers:64
      in
      let name =
        Printf.sprintf "suite %s config=%s" l.Workload.Generator.id
          (Machine.Config.name config)
      in
      if check_case ~name config l.Workload.Generator.graph then
        incr conclusive)
    cases;
  if !conclusive < List.length cases / 2 then
    Alcotest.failf "only %d/%d suite cases were conclusive" !conclusive
      (List.length cases);
  (* The first six of those loops on 4c1b2l64r at a fixed conflict cap,
     pinned: heuristic II, exact II, proven bit and note, and for a
     witness the solver's conflict and propagation counts, which pin
     the SAT search itself step for step.  Neither the heuristic nor
     the SAT core reads a clock, so these hold exactly on any host. *)
  let config = Option.get (Machine.Config.of_name "4c1b2l64r") in
  let rows =
    List.map
      (fun (l : Workload.Generator.loop) ->
        let g = l.Workload.Generator.graph in
        let o =
          match heuristic config g with
          | Some o -> o
          | None -> Alcotest.failf "%s: heuristic gave up" l.id
        in
        let heur_ii = o.Sched.Driver.ii in
        let horizon =
          Sched.Schedule.length o.Sched.Driver.schedule + heur_ii + 2
        in
        match
          Sched.Exact.minimum_ii ~horizon ~max_ii:heur_ii
            ~max_conflicts:20_000 ~max_cegar:40 config g
        with
        | Ok f ->
            check_witness ~name:l.id ~original:g f.Sched.Exact.f_schedule
              ~ii:f.Sched.Exact.f_ii;
            Printf.sprintf
              "%s heur=%d exact=%d proven=%b (exact) conflicts=%d \
               propagations=%d"
              l.id heur_ii f.Sched.Exact.f_ii f.Sched.Exact.f_proven
              f.Sched.Exact.f_stats.Sched.Exact.s_conflicts
              f.Sched.Exact.f_stats.Sched.Exact.s_propagations
        | Error e ->
            Printf.sprintf "%s heur=%d exact=%d proven=false (%s)" l.id
              heur_ii heur_ii
              (Sched.Sched_error.class_name e))
      (List.filteri (fun i _ -> i < 6) small)
  in
  Alcotest.(check (list string))
    "pinned gap rows"
    [
      "apsi.56 heur=4 exact=4 proven=false (exact) conflicts=2094 \
       propagations=2628215";
      "apsi.59 heur=3 exact=3 proven=true (exact) conflicts=3280 \
       propagations=2259349";
      "apsi.63 heur=4 exact=3 proven=true (exact) conflicts=3016 \
       propagations=2353672";
      "apsi.86 heur=3 exact=3 proven=false (escalation-cap)";
      "apsi.92 heur=4 exact=3 proven=true (exact) conflicts=10403 \
       propagations=7972908";
      "apsi.98 heur=3 exact=3 proven=true (exact) conflicts=2493 \
       propagations=1575149";
    ]
    rows

(* The solver keeps its scratch and model buffers per instance, so
   exact walks on parallel domains (as `repro gap --jobs N` runs them)
   must not disturb each other: every answer and every solver counter
   matches the sequential run's. *)
let test_domains () =
  let cases =
    List.init 6 (fun i ->
        let loop, config, _ =
          Check.Fuzz.case_of_seed ~seed:(5 * i) ~nodes:(8 + i)
        in
        (config, loop.Workload.Generator.graph))
  in
  let walk (config, g) =
    match Sched.Exact.minimum_ii ~max_conflicts:200 config g with
    | Ok f ->
        let s = f.Sched.Exact.f_stats in
        Printf.sprintf
          "ii=%d proven=%b vars=%d conflicts=%d propagations=%d cegar=%d \
           levels=%d"
          f.Sched.Exact.f_ii f.Sched.Exact.f_proven s.Sched.Exact.s_vars
          s.Sched.Exact.s_conflicts s.Sched.Exact.s_propagations
          s.Sched.Exact.s_cegar_rounds s.Sched.Exact.s_levels
    | Error e -> Sched.Sched_error.class_name e
  in
  let sequential = List.map walk cases in
  Alcotest.(check bool) "some walk searched" true
    (List.exists (String.starts_with ~prefix:"ii=") sequential);
  Alcotest.(check (list string))
    "two domains answer as one" sequential
    (Metrics.Pool.map ~jobs:2 walk cases)

let suite =
  [
    Alcotest.test_case "known optima are found and proven" `Quick
      test_known_optima;
    Alcotest.test_case "budget degrades to Timeout" `Quick
      test_budget_timeout;
    Alcotest.test_case "replication dimension is monotone" `Quick
      test_replicate_dimension;
    Alcotest.test_case "differential vs heuristic (fuzz cases)" `Slow
      test_fuzz_differential;
    Alcotest.test_case "differential vs heuristic (suite loops)" `Slow
      test_suite_differential;
    Alcotest.test_case "one solver per domain" `Quick test_domains;
  ]
