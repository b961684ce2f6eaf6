(* The per-attempt scheduling kernels — SCCs, SMS ordering, placement and
   the lockstep simulator — against the list-based references in
   [Reference], and their minor allocation per call. *)

open Ddg

let check = Alcotest.check
let bool = Alcotest.bool
let config = Option.get (Machine.Config.of_name "4c1b2l64r")

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let quick_loops =
  lazy
    (List.concat_map
       (fun b -> take 2 (Workload.Generator.generate b))
       Workload.Benchmark.all)

let ints l = String.concat " " (List.map string_of_int l)

(* The first few IIs the placement loop orders a routed graph at. *)
let first_iis g =
  let lo = Mii.rec_mii g in
  [ lo; lo + 1; lo + 2 ]

(* Orders, components and component MIIs equal the reference's. *)
let same_ordering ~what g ii =
  let got = Sched.Ordering.order g ~ii in
  let want = Reference.order g ~ii in
  if got <> want then
    Alcotest.failf "%s at II %d: order [%s], reference [%s]" what ii
      (ints got) (ints want);
  if Mii.feasible_ii g ii then begin
    let with_analysis =
      Sched.Ordering.order ~analysis:(Analysis.compute g ~ii) g ~ii
    in
    if with_analysis <> want then
      Alcotest.failf "%s at II %d: order given the analysis differs" what ii
  end

let same_components ~what g =
  let got = Scc.groups g in
  if got <> Reference.scc_groups g then
    Alcotest.failf "%s: components differ from the reference" what;
  List.iter
    (fun c ->
      let a = Scc.rec_mii_of g c and b = Reference.rec_mii_of g c in
      if a <> b then
        Alcotest.failf "%s: component [%s] rec_mii %d, reference %d" what
          (ints c) a b)
    got

(* The routed graph of a loop's final schedule on [config]. *)
let routed_graph config g =
  match Sched.Driver.schedule_loop config g with
  | Ok o -> Some (Sched.Schedule.route o.Sched.Driver.schedule)
  | Error _ -> None

let test_ordering_suite () =
  let compared = ref 0 in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      match routed_graph config l.graph with
      | None -> ()
      | Some route ->
          let rg = route.Sched.Route.graph in
          same_components ~what:l.id rg;
          List.iter
            (fun ii ->
              same_ordering ~what:l.id rg ii;
              incr compared)
            (first_iis rg))
    (Workload.Generator.suite ());
  check bool "most suite loops compared" true (!compared >= 3 * 600)

(* Fuzz-drawn bodies routed through an arbitrary partition, at their
   first feasible IIs and at II 1, where the ordering falls back to the
   recurrence MII for its analysis. *)
let prop_ordering_fuzz =
  QCheck.Test.make ~name:"ordering equals the list reference on fuzz graphs"
    ~count:300
    QCheck.(pair (int_range 0 100000) (int_range 2 48))
    (fun (seed, nodes) ->
      let loop, config, _ = Check.Fuzz.case_of_seed ~seed ~nodes in
      let g = loop.Workload.Generator.graph in
      let clusters = config.Machine.Config.clusters in
      let assign = Array.init (Graph.n_nodes g) (fun v -> v mod clusters) in
      let what = Printf.sprintf "fuzz seed %d nodes %d" seed nodes in
      same_components ~what g;
      List.iter (same_ordering ~what g) (1 :: first_iis g);
      (match Sched.Route.build config g ~assign with
      | route ->
          let rg = route.Sched.Route.graph in
          same_components ~what rg;
          List.iter (same_ordering ~what rg) (1 :: first_iis rg)
      | exception Sched.Sched_error.E _ -> ());
      true)

(* ---------------- lockstep ---------------- *)

let show = function
  | Error e -> "Error " ^ e
  | Ok (c : Sim.Lockstep.counts) ->
      Printf.sprintf "Ok cycles=%d ops=%d copies=%d useful=%d explicit=%d"
        c.cycles c.dynamic_ops c.dynamic_copies c.useful_ops
        c.explicit_iterations

let same_lockstep ~what ?useful_per_iteration s ~iterations =
  let got = Sim.Lockstep.run ?useful_per_iteration s ~iterations in
  let want = Reference.lockstep ?useful_per_iteration s ~iterations in
  if got <> want then
    Alcotest.failf "%s, %d iterations: %s, reference %s" what iterations
      (show got) (show want);
  got

let lockstep_configs =
  [
    config;
    Option.get (Machine.Config.of_name "2c2b4l64r");
    Machine.Config.with_copy_int_slot
      (Machine.Config.make ~clusters:4 ~buses:2 ~bus_latency:2 ~registers:64);
    Machine.Config.unified ~registers:64;
  ]

(* Every quick loop in both modes on four machines, at one, three and a
   hundred iterations; each schedule again under every fault-catalog
   corruption and under three seeded reissues of one to three nodes, so
   first errors of every kind are compared. *)
let test_lockstep_differential () =
  let rng = Workload.Rng.create 25 in
  let errors = ref 0 and oks = ref 0 in
  let count = function Ok _ -> incr oks | Error _ -> incr errors in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      List.iter
        (fun config ->
          List.iter
            (fun repl ->
              let transform =
                if repl then Some (fst (Replication.Replicate.transform ()))
                else None
              in
              match Sched.Driver.schedule_loop ?transform config l.graph with
              | Error _ -> ()
              | Ok o ->
                  let s = o.Sched.Driver.schedule in
                  let useful_per_iteration = Graph.n_nodes l.graph in
                  let what =
                    Printf.sprintf "%s on %s%s" l.id
                      (Machine.Config.name config)
                      (if repl then " (repl)" else "")
                  in
                  List.iter
                    (fun iterations ->
                      count
                        (same_lockstep ~what ~useful_per_iteration s
                           ~iterations))
                    [ 1; 3; 100 ];
                  List.iter
                    (fun (inj : Sim.Faults.injection) ->
                      match inj.apply s with
                      | None -> ()
                      | Some bad ->
                          count
                            (same_lockstep ~what:(what ^ " " ^ inj.name) bad
                               ~iterations:100))
                    Sim.Faults.catalog;
                  let n = Array.length s.Sched.Schedule.cycles in
                  let span = Sched.Schedule.length s + s.Sched.Schedule.ii in
                  for k = 1 to 3 do
                    let cycles = Array.copy s.Sched.Schedule.cycles in
                    for _ = 1 to k do
                      cycles.(Workload.Rng.int rng n) <-
                        Workload.Rng.int rng span
                    done;
                    count
                      (same_lockstep
                         ~what:(Printf.sprintf "%s reissue %d" what k)
                         { s with Sched.Schedule.cycles }
                         ~iterations:100)
                  done)
            [ false; true ])
        lockstep_configs)
    (Lazy.force quick_loops);
  check bool "clean runs compared" true (!oks > 100);
  check bool "rejected runs compared" true (!errors > 100)

(* ---------------- allocation per call ---------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  let after = Gc.minor_words () in
  ignore (Sys.opaque_identity r);
  int_of_float (after -. before)

(* Words per call of each kernel on the quick loops' final schedules at
   4c1b2l64r, against budgets linear in nodes plus edges (plus the
   explicit prefix's horizon for the simulator).  Like every allocation
   test here this is a count, not a timing.  The budgets sit two to five
   times above what the kernels allocate, and the list references, which
   allocate per node visited and per event, must exceed them: SCCs 21
   to 25 words per node and edge, the ordering 92 to 165, the simulator
   14,876 to 37,936 words a run. *)
let test_allocation_budgets () =
  let within ~what ~words ~budget =
    if words > budget then
      Alcotest.failf "%s allocates %d words, budget %d" what words budget
  in
  let beyond ~what ~words ~budget =
    if words <= budget then
      Alcotest.failf "%s reference allocates %d words, within budget %d" what
        words budget
  in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      match Sched.Driver.schedule_loop config l.graph with
      | Error _ -> ()
      | Ok o ->
          let s = o.Sched.Driver.schedule in
          let route = Sched.Schedule.route s in
          let rg = route.Sched.Route.graph in
          let ii = s.Sched.Schedule.ii in
          let size = Graph.n_nodes rg + Array.length (Graph.edges rg) in
          let what kernel = Printf.sprintf "%s: %s" l.id kernel in
          let budget = (12 * size) + 100 in
          within ~what:(what "Scc.groups") ~budget
            ~words:(minor_words (fun () -> Scc.groups rg));
          beyond ~what:(what "Scc.groups") ~budget
            ~words:(minor_words (fun () -> Reference.scc_groups rg));
          let analysis = Analysis.compute rg ~ii in
          let order_words =
            minor_words (fun () -> Sched.Ordering.order ~analysis rg ~ii)
          in
          let budget = (32 * size) + 200 in
          within ~what:(what "Ordering.order") ~budget ~words:order_words;
          beyond ~what:(what "Ordering.order") ~budget
            ~words:(minor_words (fun () -> Reference.order rg ~ii));
          (* The placement loop alone: what [try_schedule] allocates beyond
             its analysis, its ordering and its reservation table. *)
          let place_words =
            minor_words (fun () -> Sched.Place.try_schedule config route ~ii)
            - minor_words (fun () -> Analysis.compute rg ~ii)
            - order_words
            - minor_words (fun () -> Sched.Mrt.create config ~ii)
          in
          within ~what:(what "placement loop") ~words:place_words
            ~budget:((8 * size) + 100);
          let sc = Sched.Schedule.stage_count s in
          let horizon =
            ((min 100 ((2 * sc) + 4) - 1) * ii) + Sched.Schedule.length s
          in
          let budget = (4 * size) + horizon + 100 in
          within ~what:(what "Lockstep.run") ~budget
            ~words:(minor_words (fun () -> Sim.Lockstep.run s ~iterations:100));
          beyond ~what:(what "Lockstep.run") ~budget
            ~words:
              (minor_words (fun () -> Reference.lockstep s ~iterations:100)))
    (Lazy.force quick_loops)

let suite =
  [
    Alcotest.test_case "ordering equals the list reference on the suite"
      `Slow test_ordering_suite;
    QCheck_alcotest.to_alcotest prop_ordering_fuzz;
    Alcotest.test_case "lockstep equals the agenda reference" `Quick
      test_lockstep_differential;
    Alcotest.test_case "kernels allocate within budget" `Quick
      test_allocation_budgets;
  ]
