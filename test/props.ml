(* Property-based tests (qcheck): random loop bodies and machine
   configurations drive the core invariants end-to-end — every schedule
   the system emits must satisfy the machine checker, replication must
   remove exactly the communication it targets, and the analytic and
   simulated cycle counts must agree. *)

open Ddg

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* A random loop body in the style of compiled code: a DAG of typed ops
   with optional loop-carried self-recurrences.  Built from a seed so
   failures are reproducible from the printed counterexample. *)
let graph_of_seed seed =
  let rng = Workload.Rng.create seed in
  let b = Graph.Builder.create ~name:(Printf.sprintf "rand%d" seed) () in
  let n = Workload.Rng.range rng 3 24 in
  let producers = ref [] in
  (* producers: value-producing node ids *)
  for _ = 0 to n - 1 do
    let r = Workload.Rng.float rng in
    let op =
      if r < 0.18 then Machine.Opclass.Load
      else if r < 0.28 && !producers <> [] then Machine.Opclass.Store
      else if r < 0.5 then Machine.Opclass.Int_arith
      else if r < 0.56 then Machine.Opclass.Int_mul
      else if r < 0.85 then Machine.Opclass.Fp_arith
      else if r < 0.97 then Machine.Opclass.Fp_mul
      else Machine.Opclass.Fp_div
    in
    let id = Graph.Builder.add b op in
    let n_inputs =
      match op with
      | Machine.Opclass.Store -> 1 + Workload.Rng.int rng 2
      | Machine.Opclass.Load -> Workload.Rng.int rng 2
      | _ -> Workload.Rng.int rng 3
    in
    for _ = 1 to n_inputs do
      if !producers <> [] then
        let src = Workload.Rng.pick rng !producers in
        Graph.Builder.depend b ~src ~dst:id
    done;
    (* occasional loop-carried self-dependence *)
    if (not (Machine.Opclass.is_store op)) && Workload.Rng.chance rng 0.15
    then
      Graph.Builder.depend b ~distance:(1 + Workload.Rng.int rng 2) ~src:id
        ~dst:id;
    if not (Machine.Opclass.is_store op) then producers := id :: !producers
  done;
  Graph.Builder.build b

let configs =
  Machine.Config.unified ~registers:64
  :: Machine.Config.unified ~registers:32
  :: Machine.Config.heterogeneous ~buses:1 ~bus_latency:2 ~registers:60
       ~clusters:[ (2, 0, 2); (1, 2, 1); (1, 2, 1) ]
  :: Machine.Config.with_copy_int_slot
       (Machine.Config.make ~clusters:4 ~buses:2 ~bus_latency:2 ~registers:64)
  :: Machine.Config.paper_configs

let config_of_index i = List.nth configs (i mod List.length configs)

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 100000)

let pair_arb =
  QCheck.make
    ~print:(fun (s, c) ->
      Printf.sprintf "seed=%d config=%s" s
        (Machine.Config.name (config_of_index c)))
    QCheck.Gen.(pair (0 -- 100000) (0 -- 20))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_mii_boundary =
  QCheck.Test.make ~name:"rec_mii is the feasibility boundary" ~count:200
    seed_arb (fun seed ->
      let g = graph_of_seed seed in
      let r = Mii.rec_mii g in
      Mii.feasible_ii g r && (r = 1 || not (Mii.feasible_ii g (r - 1))))

let prop_analysis_windows =
  QCheck.Test.make ~name:"asap <= alap and slack >= 0" ~count:200 seed_arb
    (fun seed ->
      let g = graph_of_seed seed in
      let ii = max (Mii.rec_mii g) 1 in
      let a = Analysis.compute g ~ii in
      List.for_all (fun v -> Analysis.asap a v <= Analysis.alap a v)
        (Graph.nodes g)
      && Array.for_all (fun e -> Analysis.slack a e >= 0) (Graph.edges g)
      && List.for_all
           (fun v ->
             Analysis.asap a v + Analysis.height a v
             <= Analysis.critical_path a)
           (Graph.nodes g))

let prop_scc_partition =
  QCheck.Test.make ~name:"SCCs partition the node set" ~count:200 seed_arb
    (fun seed ->
      let g = graph_of_seed seed in
      let members =
        List.concat_map (fun c -> c.Scc.members) (Scc.compute g)
      in
      List.sort_uniq compare members = Graph.nodes g
      && List.length members = Graph.n_nodes g)

let prop_ordering_is_permutation =
  QCheck.Test.make ~name:"SMS ordering is a permutation" ~count:200 seed_arb
    (fun seed ->
      let g = graph_of_seed seed in
      let ii = max 2 (Mii.rec_mii g) in
      let order = Sched.Ordering.order g ~ii in
      List.sort compare order = Graph.nodes g)

let prop_partition_valid =
  QCheck.Test.make ~name:"initial partition is valid" ~count:150 pair_arb
    (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      let ii = Mii.mii config g in
      Sched.Partition.is_valid config (Sched.Partition.initial config g ~ii))

let prop_schedules_are_legal =
  QCheck.Test.make ~name:"every emitted schedule passes the checker"
    ~count:120 pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      match Sched.Driver.schedule_loop config g with
      | Error _ -> QCheck.assume_fail ()
      | Ok o -> Result.is_ok (Sim.Checker.check o.Sched.Driver.schedule))

let prop_replicated_schedules_are_legal =
  QCheck.Test.make
    ~name:"every replicated schedule passes the checker" ~count:120 pair_arb
    (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      let tr, _ = Replication.Replicate.transform () in
      match Sched.Driver.schedule_loop ~transform:tr config g with
      | Error _ -> QCheck.assume_fail ()
      | Ok o -> Result.is_ok (Sim.Checker.check o.Sched.Driver.schedule))

let prop_replication_never_raises_ii =
  QCheck.Test.make ~name:"replication never raises the final II" ~count:100
    pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      let tr, _ = Replication.Replicate.transform () in
      match
        ( Sched.Driver.schedule_loop config g,
          Sched.Driver.schedule_loop ~transform:tr config g )
      with
      | Ok b, Ok r -> r.Sched.Driver.ii <= b.Sched.Driver.ii
      | _ -> QCheck.assume_fail ())

let prop_subgraph_removes_exactly_one_comm =
  QCheck.Test.make
    ~name:"replicating S_com removes exactly that communication" ~count:150
    pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      if config.Machine.Config.clusters = 1 then QCheck.assume_fail ()
      else begin
        let ii = Mii.mii config g in
        let assign = Sched.Partition.initial config g ~ii in
        let state = Replication.State.create config g ~assign in
        match Replication.State.comms state with
        | [] -> QCheck.assume_fail ()
        | com :: _ ->
            let before = Replication.State.comms state in
            let s = Replication.Subgraph.compute state com in
            List.iter
              (fun (v, cs) ->
                Replication.State.Iset.iter
                  (fun c ->
                    Replication.State.add_instance state ~node:v ~cluster:c)
                  cs)
              s.Replication.Subgraph.additions;
            List.iter
              (fun v ->
                Replication.State.remove_instance state ~node:v
                  ~cluster:(Replication.State.home state v))
              s.Replication.Subgraph.removable;
            let after = Replication.State.comms state in
            (not (List.mem com after))
            && List.sort compare after
               = List.sort compare (List.filter (fun v -> v <> com) before)
      end)

let prop_materialized_graph_consistent =
  QCheck.Test.make ~name:"materialization preserves communication count"
    ~count:120 pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      if config.Machine.Config.clusters = 1 then QCheck.assume_fail ()
      else begin
        let ii = Mii.mii config g in
        let assign = Sched.Partition.initial config g ~ii in
        match Replication.Replicate.run config g ~assign ~ii with
        | None -> QCheck.assume_fail ()
        | Some o ->
            let st = o.Replication.Replicate.stats in
            Sched.Comm.count o.Replication.Replicate.graph
              ~assign:o.Replication.Replicate.assign
            = st.Replication.Replicate.comms_before
              - st.Replication.Replicate.comms_removed
            && Array.length o.Replication.Replicate.assign
               = Graph.n_nodes o.Replication.Replicate.graph
      end)

let prop_lockstep_matches_analytic =
  QCheck.Test.make ~name:"simulated cycles equal (N-1+SC)*II" ~count:80
    pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      match Sched.Driver.schedule_loop config g with
      | Error _ -> QCheck.assume_fail ()
      | Ok o -> (
          let s = o.Sched.Driver.schedule in
          match Sim.Lockstep.run s ~iterations:37 with
          | Error _ -> false
          | Ok c ->
              c.Sim.Lockstep.cycles
              = Sched.Schedule.execution_cycles s ~iterations:37))

let prop_route_localizes_edges =
  QCheck.Test.make ~name:"routing leaves no cross-cluster value edge"
    ~count:150 pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      if config.Machine.Config.clusters = 1 then QCheck.assume_fail ()
      else begin
        let ii = Mii.mii config g in
        let assign = Sched.Partition.initial config g ~ii in
        let route = Sched.Route.build config g ~assign in
        let rg = route.Sched.Route.graph in
        Array.for_all
          (fun e ->
            e.Graph.kind <> Graph.Reg
            || route.Sched.Route.assign.(e.Graph.src)
               = route.Sched.Route.assign.(e.Graph.dst)
            || Sched.Route.is_copy route e.Graph.src)
          (Graph.edges rg)
      end)

let prop_regalloc_verifies =
  QCheck.Test.make ~name:"allocations pass independent verification"
    ~count:80 pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      match Sched.Driver.schedule_loop config g with
      | Error _ -> QCheck.assume_fail ()
      | Ok o -> (
          match Sched.Regalloc.allocate o.Sched.Driver.schedule with
          | Error _ -> QCheck.assume_fail ()
          | Ok alloc ->
              Result.is_ok
                (Sched.Regalloc.verify o.Sched.Driver.schedule alloc)
              && Result.is_ok
                   (Sim.Regsim.run o.Sched.Driver.schedule alloc
                      ~iterations:20)))

let acyclic_of_seed seed =
  let g = graph_of_seed seed in
  let b = Graph.Builder.create () in
  List.iter
    (fun v -> ignore (Graph.Builder.add b (Graph.op g v)))
    (Graph.nodes g);
  Array.iter
    (fun e ->
      if e.Graph.distance = 0 then
        match e.Graph.kind with
        | Graph.Reg ->
            Graph.Builder.depend b ~latency:e.Graph.latency ~src:e.Graph.src
              ~dst:e.Graph.dst
        | Graph.Mem ->
            Graph.Builder.mem_depend b ~src:e.Graph.src ~dst:e.Graph.dst)
    (Graph.edges g);
  Graph.Builder.build b

let prop_listsched_legal =
  QCheck.Test.make ~name:"acyclic schedules verify" ~count:120 pair_arb
    (fun (seed, ci) ->
      let g = acyclic_of_seed seed in
      let config = config_of_index ci in
      match Sched.Listsched.schedule_auto config g with
      | Error _ -> QCheck.assume_fail ()
      | Ok s -> Result.is_ok (Sched.Listsched.verify config s))

let prop_unroll_preserves_work =
  QCheck.Test.make ~name:"unrolling preserves per-result work" ~count:100
    seed_arb (fun seed ->
      let g = graph_of_seed seed in
      let g2 = Workload.Unroll.unroll g ~factor:3 in
      Graph.n_nodes g2 = 3 * Graph.n_nodes g
      && Array.length (Graph.edges g2) = 3 * Array.length (Graph.edges g))

let prop_spill_rewrite_shape =
  QCheck.Test.make ~name:"spill rewrites keep graph well-formed" ~count:60
    pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      match Sched.Driver.schedule_loop config g with
      | Error _ -> QCheck.assume_fail ()
      | Ok o -> (
          (* ask for a spill against a tiny register budget *)
          let tiny =
            Machine.Config.custom ~clusters:config.Machine.Config.clusters
              ~buses:(max 1 config.Machine.Config.buses)
              ~bus_latency:(max 1 config.Machine.Config.bus_latency)
              ~registers:config.Machine.Config.clusters
              ~fus_per_cluster:(4, 4, 4)
          in
          let assign =
            Array.sub
              (Sched.Schedule.route o.Sched.Driver.schedule).Sched.Route.assign
              0
              (Graph.n_nodes o.Sched.Driver.graph)
          in
          match
            Sched.Spill.rewrite tiny o.Sched.Driver.schedule
              ~graph:o.Sched.Driver.graph ~assign
          with
          | None -> QCheck.assume_fail ()
          | Some (g', assign') ->
              Graph.n_nodes g' = Graph.n_nodes o.Sched.Driver.graph + 2
              && Array.length assign' = Graph.n_nodes g'
              && Array.length (Graph.edges g')
                 = Array.length (Graph.edges o.Sched.Driver.graph) + 2))

let prop_spiller_never_raises_ii =
  QCheck.Test.make ~name:"the spiller never raises the final II" ~count:60
    pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      match
        ( Sched.Driver.schedule_loop config g,
          Sched.Driver.schedule_loop ~spiller:Sched.Spill.spiller config g )
      with
      | Ok plain, Ok spilled ->
          spilled.Sched.Driver.ii <= plain.Sched.Driver.ii
          && Result.is_ok (Sim.Checker.check spilled.Sched.Driver.schedule)
      | Error _, Ok spilled ->
          Result.is_ok (Sim.Checker.check spilled.Sched.Driver.schedule)
      | _ -> QCheck.assume_fail ())

(* The incremental subgraph cache must be observably identical to
   recomputing every candidate from scratch each greedy round: same
   subgraphs in the same order, same final replication state. *)
let canonical_subgraph (s : Replication.Subgraph.t) =
  ( s.Replication.Subgraph.com,
    s.Replication.Subgraph.members,
    List.map
      (fun (v, cs) -> (v, Replication.State.Iset.elements cs))
      s.Replication.Subgraph.additions,
    s.Replication.Subgraph.removable )

let prop_cached_select_matches_oracle =
  QCheck.Test.make
    ~name:"cached subgraph selection equals the recompute oracle" ~count:100
    pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      if config.Machine.Config.clusters = 1 then QCheck.assume_fail ()
      else begin
        let ii = Mii.mii config g in
        let assign = Sched.Partition.initial config g ~ii in
        let outcome heuristic cache =
          let state = Replication.State.create config g ~assign in
          let extra = Replication.State.extra_coms state ~ii in
          if extra = 0 then None
          else
            let picked =
              Replication.Replicate.select ~heuristic ~cache state ~ii ~extra
            in
            Some
              ( Option.map (List.map canonical_subgraph) picked,
                List.sort compare (Replication.State.comms state) )
        in
        let agree heuristic =
          match (outcome heuristic true, outcome heuristic false) with
          | None, None -> true
          | a, b -> a = b
        in
        match
          Replication.State.extra_coms
            (Replication.State.create config g ~assign)
            ~ii
        with
        | 0 -> QCheck.assume_fail ()
        | _ ->
            List.for_all agree
              [
                Replication.Replicate.Lowest_weight;
                Replication.Replicate.First_come;
                Replication.Replicate.Fewest_added;
              ]
      end)

(* The adjacency views precomputed by [Graph.Builder.build] must match
   their original filter-based definitions: [succs]/[preds] hold the
   edge array's own records, filtered by endpoint, in array order.  A
   node no memory edge leaves or enters shares its list instead of
   copying it. *)
let prop_precomputed_adjacency =
  QCheck.Test.make ~name:"precomputed adjacency matches filtered edges"
    ~count:200 seed_arb (fun seed ->
      let g = graph_of_seed seed in
      let edges = Array.to_list (Graph.edges g) in
      let is_reg e = e.Graph.kind = Graph.Reg in
      List.for_all
        (fun v ->
          let shared view all =
            (not (List.for_all is_reg (all g v))) || view g v == all g v
          in
          List.equal ( == ) (Graph.succs g v)
            (List.filter (fun e -> e.Graph.src = v) edges)
          && List.equal ( == ) (Graph.preds g v)
               (List.filter (fun e -> e.Graph.dst = v) edges)
          && Graph.reg_succs g v = List.filter is_reg (Graph.succs g v)
          && Graph.reg_preds g v = List.filter is_reg (Graph.preds g v)
          && shared Graph.reg_succs Graph.succs
          && shared Graph.reg_preds Graph.preds)
        (Graph.nodes g))

let prop_generated_suite_schedulable =
  QCheck.Test.make ~name:"workload loops schedule on all paper configs"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 677))
    (fun idx ->
      let loops = Workload.Generator.suite () in
      let l = List.nth loops idx in
      List.for_all
        (fun config ->
          match Sched.Driver.schedule_loop config l.Workload.Generator.graph with
          | Ok o -> Result.is_ok (Sim.Checker.check o.Sched.Driver.schedule)
          | Error _ -> false)
        Machine.Config.fig1_configs)

(* The O(1) circular-interval overlap test must agree with the
   definitional slot-by-slot scan over the II modulo slots. *)
let interval ~start_cycle ~end_cycle =
  {
    Sched.Regalloc.producer = 0;
    cluster = 0;
    start_cycle;
    end_cycle;
    instances = 1;
    registers = [];
  }

let slots_overlap_scan ii (a : Sched.Regalloc.interval)
    (b : Sched.Regalloc.interval) =
  let covered (itv : Sched.Regalloc.interval) =
    let s = Array.make ii false in
    for c = itv.Sched.Regalloc.start_cycle
        to itv.Sched.Regalloc.end_cycle - 1 do
      s.(c mod ii) <- true
    done;
    s
  in
  let sa = covered a and sb = covered b in
  let hit = ref false in
  for i = 0 to ii - 1 do
    if sa.(i) && sb.(i) then hit := true
  done;
  !hit

let prop_slots_overlap =
  QCheck.Test.make ~name:"O(1) slot overlap equals the slot scan" ~count:1000
    seed_arb (fun seed ->
      let rng = Workload.Rng.create seed in
      let ii = Workload.Rng.range rng 1 12 in
      let mk () =
        let s = Workload.Rng.int rng 50 in
        let len = 1 + Workload.Rng.int rng 40 in
        interval ~start_cycle:s ~end_cycle:(s + len)
      in
      let a = mk () in
      let b = mk () in
      Sched.Regalloc.slots_overlap ii a b = slots_overlap_scan ii a b)

(* ------------------------------------------------------------------ *)
(* Escalation-trace sweeps                                             *)
(* ------------------------------------------------------------------ *)

(* schedule_sweep answers a register family from one recorded trace; it
   must be observably identical to scheduling every member from scratch
   — same II, same cause attribution, same placement, same error text. *)
let canon_result = function
  | Ok (o : Sched.Driver.outcome) ->
      Ok
        ( o.Sched.Driver.mii,
          o.Sched.Driver.ii,
          List.sort compare o.Sched.Driver.increments,
          o.Sched.Driver.n_comms,
          Array.to_list o.Sched.Driver.assign,
          Array.to_list o.Sched.Driver.schedule.Sched.Schedule.cycles,
          Array.to_list o.Sched.Driver.schedule.Sched.Schedule.buses,
          Machine.Config.name o.Sched.Driver.schedule.Sched.Schedule.config )
  | Error e -> Error e

let reg_family ci =
  let clusters, buses, bus_latency =
    match ci mod 4 with
    | 0 -> (2, 1, 1)
    | 1 -> (4, 1, 2)
    | 2 -> (4, 2, 2)
    | _ -> (2, 1, 3)
  in
  List.map
    (fun registers ->
      Machine.Config.make ~clusters ~buses ~bus_latency ~registers)
    [ 16; 32; 64; 128 ]

let prop_sweep_matches_oracle =
  QCheck.Test.make
    ~name:"schedule_sweep equals independent schedule_loop calls" ~count:60
    pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let configs = reg_family ci in
      let swept = Sched.Driver.schedule_sweep configs g in
      List.for_all2
        (fun c (c', r) ->
          c == c'
          && canon_result r = canon_result (Sched.Driver.schedule_loop c g))
        configs swept)

let prop_sweep_replication_matches_oracle =
  QCheck.Test.make
    ~name:"replication sweeps equal independent replication runs" ~count:40
    pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let configs = reg_family ci in
      let tr, _ = Replication.Replicate.transform () in
      let swept = Sched.Driver.schedule_sweep ~transform:tr configs g in
      List.for_all2
        (fun c (_, r) ->
          let tr', _ = Replication.Replicate.transform () in
          canon_result r
          = canon_result (Sched.Driver.schedule_loop ~transform:tr' c g))
        configs swept)

let prop_sweep_spiller_matches_oracle =
  QCheck.Test.make
    ~name:"spiller sweeps equal independent spiller runs" ~count:40 pair_arb
    (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let configs = reg_family ci in
      let swept =
        Sched.Driver.schedule_sweep
          ~spiller_for:(fun _ -> Some Sched.Spill.spiller)
          configs g
      in
      List.for_all2
        (fun c (_, r) ->
          canon_result r
          = canon_result
              (Sched.Driver.schedule_loop ~spiller:Sched.Spill.spiller c g))
        configs swept)

(* ------------------------------------------------------------------ *)
(* Attempt budgets                                                      *)
(* ------------------------------------------------------------------ *)

(* One attempt is one II level, spent before the level runs: a k-attempt
   budget leaves a walk that succeeds within its first k levels
   untouched, and stops every other walk at level mii + k having spent
   exactly k attempts. *)
let prop_attempt_cap =
  QCheck.Test.make ~name:"an attempt cap of k stops the walk at mii + k"
    ~count:40 pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      let mii = Ddg.Mii.mii config g in
      let free = Sched.Driver.schedule_loop config g in
      List.for_all
        (fun k ->
          let budget = Sched.Budget.make ~max_attempts:k () in
          match (free, Sched.Driver.schedule_loop ~budget config g) with
          | Ok o, capped when o.Sched.Driver.ii - mii < k ->
              canon_result capped = canon_result free
          | _, Error (Sched.Sched_error.Timeout { at_ii; attempts; _ }) ->
              at_ii = mii + k && attempts = k
          | _ -> false)
        [ 1; 2; 3; 5 ])

let prop_shared_hierarchy_equals_fresh =
  QCheck.Test.make
    ~name:"a shared partition hierarchy changes nothing but the work"
    ~count:40 pair_arb (fun (seed, ci) ->
      let g = graph_of_seed seed in
      let config = config_of_index ci in
      let hier = Sched.Driver.hierarchy config g in
      let tr_shared, _ = Replication.Replicate.transform () in
      let tr_fresh, _ = Replication.Replicate.transform () in
      canon_result (Sched.Driver.schedule_loop ~hier config g)
      = canon_result (Sched.Driver.schedule_loop config g)
      && canon_result
           (Sched.Driver.schedule_loop ~transform:tr_shared ~hier config g)
         = canon_result
             (Sched.Driver.schedule_loop ~transform:tr_fresh config g))

(* ------------------------------------------------------------------ *)
(* Modulo reservation table bitset rows                                *)
(* ------------------------------------------------------------------ *)

(* The MRT answers availability probes from bitset occupancy rows; a
   shadow model answering the same probes by definitional slot counting
   must never disagree, across random interleavings of reservations. *)
let prop_mrt_bitset_matches_scan =
  QCheck.Test.make ~name:"MRT bitset occupancy equals the slot-count scan"
    ~count:300 seed_arb (fun seed ->
      let rng = Workload.Rng.create seed in
      let config =
        config_of_index (Workload.Rng.int rng (List.length configs))
      in
      let ii = Workload.Rng.range rng 1 9 in
      let mrt = Sched.Mrt.create config ~ii in
      let clusters = config.Machine.Config.clusters in
      let lat = max 1 config.Machine.Config.bus_latency in
      (* Shadow: per-slot busy counts, definitional arithmetic only. *)
      let fu_busy =
        Array.init clusters (fun _ ->
            Array.init Machine.Fu.count (fun _ -> Array.make ii 0))
      in
      let bus_busy =
        Array.init config.Machine.Config.buses (fun _ -> Array.make ii false)
      in
      let slot cycle =
        let m = cycle mod ii in
        if m < 0 then m + ii else m
      in
      let scan_fu ~cluster ~kind ~cycle =
        fu_busy.(cluster).(Machine.Fu.index kind).(slot cycle)
        < Machine.Config.fus config ~cluster kind
      in
      let scan_bus ~bus ~cycle =
        lat <= ii
        && List.for_all
             (fun k -> not bus_busy.(bus).(slot (cycle + k)))
             (List.init lat Fun.id)
      in
      let scan_find_bus ~cycle =
        let rec go b =
          if b >= config.Machine.Config.buses then None
          else if scan_bus ~bus:b ~cycle then Some b
          else go (b + 1)
        in
        go 0
      in
      let steps = 40 in
      let ok = ref true in
      for _ = 1 to steps do
        let cycle = Workload.Rng.int rng 60 - 20 in
        if Workload.Rng.chance rng 0.7 then begin
          let cluster = Workload.Rng.int rng clusters in
          let kind =
            List.nth Machine.Fu.all
              (Workload.Rng.int rng (List.length Machine.Fu.all))
          in
          let avail = Sched.Mrt.fu_available mrt ~cluster ~kind ~cycle in
          if avail <> scan_fu ~cluster ~kind ~cycle then ok := false;
          if avail then begin
            Sched.Mrt.reserve_fu mrt ~cluster ~kind ~cycle;
            let s = slot cycle in
            let k = Machine.Fu.index kind in
            fu_busy.(cluster).(k).(s) <- fu_busy.(cluster).(k).(s) + 1
          end
        end
        else begin
          let found = Sched.Mrt.find_bus mrt ~cycle in
          if found <> scan_find_bus ~cycle then ok := false;
          match found with
          | Some bus ->
              Sched.Mrt.reserve_bus mrt ~bus ~cycle;
              for k = 0 to lat - 1 do
                bus_busy.(bus).(slot (cycle + k)) <- true
              done
          | None -> ()
        end
      done;
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mii_boundary;
      prop_analysis_windows;
      prop_scc_partition;
      prop_ordering_is_permutation;
      prop_partition_valid;
      prop_schedules_are_legal;
      prop_replicated_schedules_are_legal;
      prop_replication_never_raises_ii;
      prop_subgraph_removes_exactly_one_comm;
      prop_materialized_graph_consistent;
      prop_lockstep_matches_analytic;
      prop_route_localizes_edges;
      prop_regalloc_verifies;
      prop_listsched_legal;
      prop_unroll_preserves_work;
      prop_spill_rewrite_shape;
      prop_spiller_never_raises_ii;
      prop_cached_select_matches_oracle;
      prop_precomputed_adjacency;
      prop_generated_suite_schedulable;
      prop_slots_overlap;
      prop_sweep_matches_oracle;
      prop_sweep_replication_matches_oracle;
      prop_sweep_spiller_matches_oracle;
      prop_attempt_cap;
      prop_shared_hierarchy_equals_fresh;
      prop_mrt_bitset_matches_scan;
    ]
