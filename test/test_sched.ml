(* Scheduler substrate: matching, partitioning, communications, routing,
   MRT, ordering, placement, register pressure, driver. *)

open Ddg

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let config4c = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64
let config2c = Machine.Config.make ~clusters:2 ~buses:1 ~bus_latency:2 ~registers:64
let unified = Machine.Config.unified ~registers:64

(* ---------------- matching ---------------- *)

let test_matching_greedy () =
  let edges =
    [
      { Sched.Matching.u = 0; v = 1; weight = 10 };
      { Sched.Matching.u = 1; v = 2; weight = 5 };
      { Sched.Matching.u = 2; v = 3; weight = 10 };
      { Sched.Matching.u = 0; v = 3; weight = 1 };
    ]
  in
  let pairs = Sched.Matching.greedy ~n:4 edges in
  check (Alcotest.list (Alcotest.pair int int)) "heavy edges matched"
    [ (0, 1); (2, 3) ] (List.sort compare pairs);
  let partner = Sched.Matching.matched_array ~n:4 pairs in
  check int "partner of 0" 1 partner.(0);
  check int "partner of 3" 2 partner.(3)

let test_matching_ignores_bad_edges () =
  let edges =
    [
      { Sched.Matching.u = 0; v = 0; weight = 99 };
      { Sched.Matching.u = 1; v = 2; weight = 0 };
      { Sched.Matching.u = 1; v = 2; weight = -5 };
    ]
  in
  check int "nothing matched" 0
    (List.length (Sched.Matching.greedy ~n:3 edges))

let test_matching_deterministic () =
  let edges =
    [
      { Sched.Matching.u = 0; v = 1; weight = 5 };
      { Sched.Matching.u = 2; v = 3; weight = 5 };
      { Sched.Matching.u = 1; v = 2; weight = 5 };
    ]
  in
  let a = Sched.Matching.greedy ~n:4 edges in
  let b = Sched.Matching.greedy ~n:4 (List.rev edges) in
  check bool "order independent" true (List.sort compare a = List.sort compare b)

(* ---------------- communications ---------------- *)

let test_comm_fig3 () =
  let g = Examples.figure3 () in
  let assign = Examples.figure3_partition g in
  check int "three comms" 3 (Sched.Comm.count g ~assign);
  let d = Graph.find_label g "D" and e = Graph.find_label g "E" in
  check (Alcotest.list int) "D needed in cluster 4" [ 3 ]
    (Sched.Comm.consumer_clusters g ~assign d);
  check (Alcotest.list int) "E needed in clusters 2,4" [ 1; 3 ]
    (Sched.Comm.consumer_clusters g ~assign e)

let test_comm_extra () =
  let g = Examples.figure3 () in
  let assign = Examples.figure3_partition g in
  let custom =
    Machine.Config.custom ~clusters:4 ~buses:1 ~bus_latency:1 ~registers:64
      ~fus_per_cluster:(4, 0, 0)
  in
  (* paper's example: II=2, one 1-cycle bus -> bus_coms=2, extra=1 *)
  check int "extra at II=2" 1 (Sched.Comm.extra custom g ~assign ~ii:2);
  check int "extra at II=3" 0 (Sched.Comm.extra custom g ~assign ~ii:3)

let test_min_ii_for_bus () =
  check int "zero comms" 1 (Sched.Comm.min_ii_for_bus config4c ~n_comms:0);
  (* 1 bus, 2-cycle latency: 3 comms need II >= 6 *)
  check int "3 comms" 6 (Sched.Comm.min_ii_for_bus config4c ~n_comms:3);
  check int "unified" 1 (Sched.Comm.min_ii_for_bus unified ~n_comms:42)

let test_mem_edges_never_communicate () =
  let b = Graph.Builder.create () in
  let st = Graph.Builder.add b Machine.Opclass.Store in
  let ld = Graph.Builder.add b Machine.Opclass.Load in
  let iv = Graph.Builder.add b Machine.Opclass.Int_arith in
  Graph.Builder.depend b ~src:iv ~dst:ld;
  Graph.Builder.depend b ~src:iv ~dst:st;
  Graph.Builder.mem_depend b ~src:st ~dst:ld;
  let g = Graph.Builder.build b in
  (* store and load in different clusters: the mem edge costs nothing,
     only iv's value (used in both) communicates. *)
  let assign = [| 0; 1; 0 |] in
  check (Alcotest.list int) "only iv" [ iv ]
    (Sched.Comm.producers g ~assign)

(* ---------------- partition ---------------- *)

let test_partition_valid_and_capacity () =
  let g = Examples.figure3 () in
  List.iter
    (fun config ->
      let ii = Ddg.Mii.mii config g in
      let assign = Sched.Partition.initial config g ~ii in
      check bool "valid" true (Sched.Partition.is_valid config assign))
    [ config4c; config2c; unified ]

let test_partition_unified_all_zero () =
  let g = Examples.figure3 () in
  let assign = Sched.Partition.initial unified g ~ii:2 in
  check bool "all zero" true (Array.for_all (fun c -> c = 0) assign)

let test_refine_does_not_mutate () =
  let g = Examples.figure3 () in
  let assign = Sched.Partition.initial config4c g ~ii:3 in
  let copy = Array.copy assign in
  ignore (Sched.Partition.refine config4c g ~ii:4 assign);
  check bool "input untouched" true (assign = copy)

let test_refine_improves_or_keeps () =
  let g = Examples.figure3 () in
  let rec_ii = Mii.rec_mii g in
  let before = Array.make (Graph.n_nodes g) 0 in
  (* everything in cluster 0 is capacity-infeasible at ii=2; refinement
     must spread it. *)
  let after = Sched.Partition.refine config4c g ~ii:4 before in
  let est_b = Sched.Pseudo.estimate ~rec_ii config4c g ~assign:before ~ii:4 in
  let est_a = Sched.Pseudo.estimate ~rec_ii config4c g ~assign:after ~ii:4 in
  check bool "not worse" true (Sched.Pseudo.compare est_a est_b <= 0)

(* ---------------- routing ---------------- *)

let test_route_fig3 () =
  let g = Examples.figure3 () in
  let assign = Examples.figure3_partition g in
  let route = Sched.Route.build config4c g ~assign in
  check int "three copies" 3 (Sched.Route.n_copies route);
  check int "originals preserved" (Graph.n_nodes g) route.Sched.Route.n_original;
  (* copies sit in the producer's cluster *)
  let d = Graph.find_label g "D" in
  let cp_d = Graph.find_label route.Sched.Route.graph "cp_D" in
  check bool "copy is copy" true (Sched.Route.is_copy route cp_d);
  check int "copy cluster = producer cluster" assign.(d)
    route.Sched.Route.assign.(cp_d);
  check int "copy_of" d route.Sched.Route.copy_of.(cp_d);
  (* after routing, every register edge is intra-cluster except
     copy->consumer *)
  Array.iter
    (fun e ->
      if e.Graph.kind = Graph.Reg then
        let cu = route.Sched.Route.assign.(e.Graph.src) in
        let cv = route.Sched.Route.assign.(e.Graph.dst) in
        if cu <> cv then
          check bool "cross edge from copy" true
            (Sched.Route.is_copy route e.Graph.src))
    (Graph.edges route.Sched.Route.graph)

let test_route_copy_edge_latencies () =
  let g = Examples.figure3 () in
  let assign = Examples.figure3_partition g in
  let route = Sched.Route.build config4c g ~assign in
  let rg = route.Sched.Route.graph in
  let cp_e = Graph.find_label rg "cp_E" in
  List.iter
    (fun e -> check int "bus latency" 2 e.Graph.latency)
    (Graph.reg_succs rg cp_e);
  let route0 = Sched.Route.build ~latency0:true config4c g ~assign in
  let rg0 = route0.Sched.Route.graph in
  let cp_e0 = Graph.find_label rg0 "cp_E" in
  List.iter
    (fun e -> check int "latency0" 0 e.Graph.latency)
    (Graph.reg_succs rg0 cp_e0)

(* A routed graph copies one fact per communication and no more: the
   edges it keeps unchanged (memory edges and same-cluster register
   edges, the ones between original nodes) are the source's records
   themselves, and the route costs at most 12 words per routed node and
   edge beyond its source. *)
let test_route_shares_edges () =
  let config =
    Machine.Config.make ~clusters:4 ~buses:2 ~bus_latency:4 ~registers:64
  in
  let words x = Obj.reachable_words (Obj.repr x) in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let g = l.graph in
      let n = Graph.n_nodes g in
      let assign = Array.init n (fun v -> v mod 4) in
      let route = Sched.Route.build config g ~assign in
      let rg = route.Sched.Route.graph in
      let kept =
        List.filter
          (fun e ->
            e.Graph.kind = Graph.Mem
            || assign.(e.Graph.src) = assign.(e.Graph.dst))
          (Array.to_list (Graph.edges g))
      in
      let between_originals =
        List.filter
          (fun e -> e.Graph.src < n && e.Graph.dst < n)
          (Array.to_list (Graph.edges rg))
      in
      check bool (l.id ^ " shares its kept edges") true
        (List.length kept = List.length between_originals
        && List.for_all2 ( == ) kept between_originals);
      let beyond = words (route, g) - words g in
      let bound = 12 * (Graph.n_nodes rg + Array.length (Graph.edges rg)) in
      if beyond > bound then
        Alcotest.failf "%s: route takes %d words beyond its source, bound %d"
          l.id beyond bound)
    (Workload.Generator.suite ())

(* ---------------- MRT ---------------- *)

let test_mrt_fu () =
  let mrt = Sched.Mrt.create config4c ~ii:3 in
  check bool "free" true
    (Sched.Mrt.fu_available mrt ~cluster:0 ~kind:Machine.Fu.Int ~cycle:5);
  Sched.Mrt.reserve_fu mrt ~cluster:0 ~kind:Machine.Fu.Int ~cycle:5;
  (* 4c has one int unit: slot 5 mod 3 = 2 is now full at any congruent
     cycle *)
  check bool "congruent cycle busy" false
    (Sched.Mrt.fu_available mrt ~cluster:0 ~kind:Machine.Fu.Int ~cycle:2);
  check bool "other slot free" true
    (Sched.Mrt.fu_available mrt ~cluster:0 ~kind:Machine.Fu.Int ~cycle:3);
  check bool "other cluster free" true
    (Sched.Mrt.fu_available mrt ~cluster:1 ~kind:Machine.Fu.Int ~cycle:2);
  check bool "double reserve raises" true
    (try
       Sched.Mrt.reserve_fu mrt ~cluster:0 ~kind:Machine.Fu.Int ~cycle:8;
       false
     with Invalid_argument _ -> true)

let test_mrt_negative_cycles () =
  let mrt = Sched.Mrt.create config4c ~ii:4 in
  Sched.Mrt.reserve_fu mrt ~cluster:0 ~kind:Machine.Fu.Fp ~cycle:(-9);
  (* -9 mod 4 = 3 *)
  check bool "floor mod" false
    (Sched.Mrt.fu_available mrt ~cluster:0 ~kind:Machine.Fu.Fp ~cycle:3)

let test_mrt_bus () =
  (* bus latency 2: a transfer holds a bus for 2 consecutive slots *)
  let mrt = Sched.Mrt.create config4c ~ii:4 in
  (match Sched.Mrt.find_bus mrt ~cycle:0 with
  | Some b -> Sched.Mrt.reserve_bus mrt ~bus:b ~cycle:0
  | None -> Alcotest.fail "bus expected");
  check bool "overlapping start busy" true (Sched.Mrt.find_bus mrt ~cycle:1 = None);
  check bool "slot 3 would wrap into 0" true
    (Sched.Mrt.find_bus mrt ~cycle:3 = None);
  check bool "slot 2 free" true (Sched.Mrt.find_bus mrt ~cycle:2 <> None)

let test_mrt_bus_too_long () =
  (* a transfer longer than the II can never fit *)
  let mrt = Sched.Mrt.create config4c ~ii:1 in
  check bool "no slot" true (Sched.Mrt.find_bus mrt ~cycle:0 = None)

(* ---------------- ordering ---------------- *)

let test_ordering_permutation () =
  let g = Examples.figure3 () in
  let order = Sched.Ordering.order g ~ii:2 in
  check int "covers all" (Graph.n_nodes g) (List.length order);
  check int "distinct" (Graph.n_nodes g)
    (List.length (List.sort_uniq compare order))

let test_ordering_recurrence_first () =
  let g = Examples.with_recurrence () in
  let order = Sched.Ordering.order g ~ii:4 in
  let pos v = Option.get (List.find_index (fun x -> x = v) order) in
  let acc = Graph.find_label g "acc" in
  let st = Graph.find_label g "st" in
  check bool "recurrence before its sink" true (pos acc < pos st)

(* ---------------- placement + driver ---------------- *)

let schedule_ok config g =
  match Sched.Driver.schedule_loop config g with
  | Ok o -> o
  | Error e -> Alcotest.failf "driver: %s" (Sched.Sched_error.to_string e)

let test_schedule_chain_unified () =
  let g = Examples.tiny_chain ~n:4 () in
  let o = schedule_ok unified g in
  check int "ii=mii" o.Sched.Driver.mii o.Sched.Driver.ii;
  check int "no comms" 0 o.Sched.Driver.n_comms;
  Sim.Checker.check_exn o.Sched.Driver.schedule

let test_schedule_respects_recurrence () =
  let g = Examples.with_recurrence () in
  let o = schedule_ok config4c g in
  check bool "ii >= rec mii" true (o.Sched.Driver.ii >= Mii.rec_mii g);
  Sim.Checker.check_exn o.Sched.Driver.schedule

let test_driver_attribution_sums () =
  let g = Examples.figure3 () in
  let o = schedule_ok config4c g in
  let total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 o.Sched.Driver.increments
  in
  check int "increments sum to ii - mii" (o.Sched.Driver.ii - o.Sched.Driver.mii)
    total

let test_driver_unified_beats_clustered () =
  let g = Examples.figure3 () in
  let u = schedule_ok unified g in
  let c = schedule_ok config4c g in
  check bool "unified ii <= clustered ii" true
    (u.Sched.Driver.ii <= c.Sched.Driver.ii)

let test_schedule_length_and_sc () =
  let g = Examples.tiny_chain ~n:5 () in
  let o = schedule_ok unified g in
  let s = o.Sched.Driver.schedule in
  check int "length 5 (chain of 1-cycle ops)" 5 (Sched.Schedule.length s);
  check int "sc" ((5 + s.Sched.Schedule.ii - 1) / s.Sched.Schedule.ii)
    (Sched.Schedule.stage_count s);
  check int "texec" ((10 - 1 + Sched.Schedule.stage_count s) * s.Sched.Schedule.ii)
    (Sched.Schedule.execution_cycles s ~iterations:10)

let test_heterogeneous_end_to_end () =
  (* an address cluster (int+mem heavy) next to two fp clusters: the
     paper's "easily extended to heterogeneous clusters" claim, driven
     through partition -> replication -> placement -> checker *)
  let config =
    Machine.Config.heterogeneous ~buses:1 ~bus_latency:2 ~registers:60
      ~clusters:[ (2, 0, 2); (1, 2, 1); (1, 2, 1) ]
  in
  List.iter
    (fun g ->
      let tr, _ = Replication.Replicate.transform () in
      match Sched.Driver.schedule_loop ~transform:tr config g with
      | Ok o -> Sim.Checker.check_exn o.Sched.Driver.schedule
      | Error e -> Alcotest.failf "heterogeneous: %s" (Sched.Sched_error.to_string e))
    [
      Examples.figure3 ();
      Examples.with_recurrence ();
      (List.nth
         (Workload.Generator.generate (Workload.Benchmark.find "wave5"))
         0)
        .Workload.Generator.graph;
    ]

(* ---------------- escalation traces ---------------- *)

(* Everything a caller can observe about a driver result. *)
let canon = function
  | Ok (o : Sched.Driver.outcome) ->
      Ok
        ( o.mii,
          o.ii,
          List.sort compare o.increments,
          o.n_comms,
          Array.to_list o.assign,
          Array.to_list o.schedule.Sched.Schedule.cycles,
          Array.to_list o.schedule.Sched.Schedule.buses,
          Machine.Config.name o.schedule.Sched.Schedule.config )
  | Error e -> Error (Sched.Sched_error.to_string e)

(* A trace answers its register family only: a machine with other buses
   or another bus latency is partitioned and routed differently, so
   replay refuses it, while roomier and tighter register files replay
   to exactly what [schedule_loop] returns. *)
let test_trace_register_family_only () =
  let make buses bus_latency registers =
    Machine.Config.make ~clusters:4 ~buses ~bus_latency ~registers
  in
  let graphs =
    Examples.figure3 ()
    :: List.map
         (fun b ->
           (List.hd (Workload.Generator.generate (Workload.Benchmark.find b)))
             .Workload.Generator.graph)
         [ "tomcatv"; "swim"; "applu"; "wave5" ]
  in
  List.iter
    (fun g ->
      List.iter
        (fun replicate ->
          let hook () =
            if replicate then Some (fst (Replication.Replicate.transform ()))
            else None
          in
          let transform = hook () in
          let trace = Sched.Driver.Trace.record ?transform (make 1 2 64) g in
          List.iter
            (fun other ->
              match Sched.Driver.Trace.replay ?transform trace other with
              | exception Invalid_argument _ -> ()
              | _ ->
                  Alcotest.failf "replay answered %s from a 4c1b2l64r trace"
                    (Machine.Config.name other))
            [ make 2 2 64; make 1 4 64 ];
          List.iter
            (fun member ->
              let replayed, _ = Sched.Driver.Trace.replay ?transform trace member in
              check bool
                (Machine.Config.name member ^ " replay equals schedule_loop")
                true
                (canon replayed
                = canon
                    (Sched.Driver.schedule_loop ?transform:(hook ()) member g)))
            [ make 1 2 32; make 1 2 128 ])
        [ false; true ])
    graphs

(* A trace keeps a register-rejected attempt as its MaxLive, cycle and
   bus arrays only, its success unrouted, and each distinct array once.
   wave5.80 at 4c1b2l32r climbs several register-rejected levels whose
   attempts replication rewrote.  A routed graph costs tens of words per
   node and an int array one word, so a level that kept a routed graph
   would cost at least the result's routed graph again, while a level of
   arrays stays under a quarter of it; the success level, measured
   against the same walk cut one level short by an attempt budget, costs
   its transformed graph and under a quarter of a routed graph more.
   tomcatv.0 at 4c1b2l8r walks until the stationarity cut concludes it:
   its last 12 levels repeat the 13th-last, and each costs fewer words
   than the loop's partition array would alone.  The replays that need
   the rejected placements — promotion at 64 and 128 registers, spill
   rounds at 32 — rebuild them, and must still equal [schedule_loop],
   replication statistics included. *)
let test_trace_stays_lean () =
  let make registers =
    Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers
  in
  let budget k = Sched.Budget.make ~max_attempts:k () in
  let words x = Obj.reachable_words (Obj.repr x) in
  let g =
    (List.nth (Workload.Generator.generate (Workload.Benchmark.find "wave5")) 80)
      .Workload.Generator.graph
  in
  let transform, stats = Replication.Replicate.transform () in
  let trace = Sched.Driver.Trace.record ~transform (make 32) g in
  let recorded_stats = !stats in
  let result = Sched.Driver.Trace.result trace in
  let o =
    match result with
    | Ok o -> o
    | Error e -> Alcotest.failf "record: %s" (Sched.Sched_error.to_string e)
  in
  check bool "several register-rejected levels" true
    (List.assoc Sched.Driver.Registers o.Sched.Driver.increments >= 3);
  check bool "the recorded result holds no routed graph" true
    (match o.Sched.Driver.schedule.Sched.Schedule.routing with
    | Sched.Schedule.Unrouted _ -> true
    | Sched.Schedule.Routed _ -> false);
  let levels = o.Sched.Driver.ii - o.Sched.Driver.mii + 1 in
  let beyond = words (trace, result, g) - words (result, g) in
  let route_words = words (Sched.Schedule.route o.Sched.Driver.schedule) in
  check bool
    (Printf.sprintf "%d words over %d levels (routed graph: %d words)" beyond
       levels route_words)
    true
    (4 * beyond <= levels * route_words);
  let short =
    Sched.Driver.Trace.record
      ~transform:(fst (Replication.Replicate.transform ()))
      ~budget:(budget (levels - 1))
      (make 32) g
  in
  let success =
    words (trace, g) - words (short, g, o.Sched.Driver.graph)
  in
  check bool
    (Printf.sprintf "success level: %d words beyond its graph" success)
    true
    (4 * success <= route_words);
  let stationary =
    (List.hd (Workload.Generator.generate (Workload.Benchmark.find "tomcatv")))
      .Workload.Generator.graph
  in
  let tight = make 8 in
  let walk ?budget () = Sched.Driver.Trace.record ?budget tight stationary in
  let full = walk () in
  let cap_levels =
    match Sched.Driver.Trace.result full with
    | Error (Sched.Sched_error.Escalation_cap { mii; cap }) -> cap - mii + 1
    | _ -> Alcotest.fail "tomcatv.0 at 4c1b2l8r no longer walks to the cap"
  in
  (* The levels the walk records: the least attempt budget it finishes
     within. *)
  let finishes k =
    match Sched.Driver.Trace.result (walk ~budget:(budget k) ()) with
    | Error (Sched.Sched_error.Timeout _) -> false
    | _ -> true
  in
  let rec least lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if finishes mid then least lo mid else least mid hi
  in
  let walked = least 0 cap_levels in
  let repeated =
    words (full, stationary)
    - words (walk ~budget:(budget (walked - 12)) (), stationary)
  in
  let partition = Ddg.Graph.n_nodes stationary + 1 in
  check bool
    (Printf.sprintf "12 repeated levels of %d: %d words (partition: %d)"
       walked repeated partition)
    true
    (repeated < 12 * partition);
  List.iter
    (fun (registers, spiller) ->
      let member = make registers in
      let name = Machine.Config.name member in
      let replayed, basis =
        Sched.Driver.Trace.replay ~transform ?spiller trace member
      in
      let replayed_stats =
        match basis with `Pure -> recorded_stats | `Hook | `Live -> !stats
      in
      let transform', direct_stats = Replication.Replicate.transform () in
      let direct =
        Sched.Driver.schedule_loop ~transform:transform' ?spiller member g
      in
      check bool (name ^ " finishes on a rebuilt placement") true
        (basis = `Hook);
      check bool (name ^ " replay equals schedule_loop") true
        (canon replayed = canon direct);
      check bool (name ^ " replication statistics") true
        (replayed_stats = !direct_stats))
    [ (64, None); (128, None); (32, Some Sched.Spill.spiller) ]

(* Every attempt routes its own graph, held by exact counts: a
   baseline walk builds exactly one routed graph per bus-feasible
   attempt, which a spy transform that rewrites nothing counts.  No
   attempt reuses another's route, and none builds its own twice. *)
let test_route_built_once_per_attempt () =
  let config = Option.get (Machine.Config.of_name "4c1b2l32r") in
  let loops =
    List.concat_map
      (fun b -> List.filteri (fun i _ -> i < 2) (Workload.Generator.generate b))
      Workload.Benchmark.all
  in
  Sched.Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Sched.Profile.set_enabled false) @@ fun () ->
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let attempts = ref 0 in
      let spy config g ~assign ~ii =
        if Sched.Comm.extra config g ~assign ~ii = 0 then incr attempts;
        None
      in
      let before = Sched.Profile.events Sched.Profile.Route_built in
      ignore (Sched.Driver.schedule_loop ~transform:spy config l.graph);
      let built = Sched.Profile.events Sched.Profile.Route_built - before in
      check int (l.id ^ " routed graphs built") !attempts built)
    loops

(* ---------------- register pressure ---------------- *)

let test_regpressure_chain () =
  let g = Examples.tiny_chain ~n:3 () in
  let o = schedule_ok unified g in
  let p = Sched.Regpressure.max_pressure o.Sched.Driver.schedule in
  (* a chain keeps only a handful of values alive (at II=1 each value
     overlaps its own next-iteration instances) *)
  check bool "small pressure" true (p >= 1 && p <= 6)

let test_regpressure_long_lifetime () =
  (* one producer with a distance-2 consumer: its value spans >= 2 IIs *)
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add b Machine.Opclass.Int_arith in
  let y = Graph.Builder.add b Machine.Opclass.Int_arith in
  Graph.Builder.depend b ~distance:2 ~src:x ~dst:y;
  Graph.Builder.depend b ~distance:1 ~src:x ~dst:x;
  let g = Graph.Builder.build b in
  let o = schedule_ok unified g in
  check bool "overlapping instances need >= 2 regs" true
    (Sched.Regpressure.max_pressure o.Sched.Driver.schedule >= 2)

let suite =
  [
    Alcotest.test_case "matching greedy" `Quick test_matching_greedy;
    Alcotest.test_case "matching ignores bad edges" `Quick
      test_matching_ignores_bad_edges;
    Alcotest.test_case "matching deterministic" `Quick
      test_matching_deterministic;
    Alcotest.test_case "comm fig3" `Quick test_comm_fig3;
    Alcotest.test_case "comm extra" `Quick test_comm_extra;
    Alcotest.test_case "min ii for bus" `Quick test_min_ii_for_bus;
    Alcotest.test_case "mem edges never communicate" `Quick
      test_mem_edges_never_communicate;
    Alcotest.test_case "partition valid" `Quick
      test_partition_valid_and_capacity;
    Alcotest.test_case "partition unified" `Quick
      test_partition_unified_all_zero;
    Alcotest.test_case "refine does not mutate" `Quick
      test_refine_does_not_mutate;
    Alcotest.test_case "refine improves or keeps" `Quick
      test_refine_improves_or_keeps;
    Alcotest.test_case "route fig3" `Quick test_route_fig3;
    Alcotest.test_case "route copy latencies" `Quick
      test_route_copy_edge_latencies;
    Alcotest.test_case "route shares kept edges" `Quick
      test_route_shares_edges;
    Alcotest.test_case "mrt fu" `Quick test_mrt_fu;
    Alcotest.test_case "mrt negative cycles" `Quick test_mrt_negative_cycles;
    Alcotest.test_case "mrt bus" `Quick test_mrt_bus;
    Alcotest.test_case "mrt bus too long" `Quick test_mrt_bus_too_long;
    Alcotest.test_case "ordering permutation" `Quick
      test_ordering_permutation;
    Alcotest.test_case "ordering recurrence first" `Quick
      test_ordering_recurrence_first;
    Alcotest.test_case "schedule chain unified" `Quick
      test_schedule_chain_unified;
    Alcotest.test_case "schedule respects recurrence" `Quick
      test_schedule_respects_recurrence;
    Alcotest.test_case "driver attribution sums" `Quick
      test_driver_attribution_sums;
    Alcotest.test_case "unified beats clustered" `Quick
      test_driver_unified_beats_clustered;
    Alcotest.test_case "schedule length and sc" `Quick
      test_schedule_length_and_sc;
    Alcotest.test_case "heterogeneous end to end" `Quick
      test_heterogeneous_end_to_end;
    Alcotest.test_case "trace answers its register family only" `Quick
      test_trace_register_family_only;
    Alcotest.test_case "trace keeps rejected attempts lean" `Quick
      test_trace_stays_lean;
    Alcotest.test_case "route built once per bus-feasible attempt" `Quick
      test_route_built_once_per_attempt;
    Alcotest.test_case "regpressure chain" `Quick test_regpressure_chain;
    Alcotest.test_case "regpressure long lifetime" `Quick
      test_regpressure_long_lifetime;
  ]
