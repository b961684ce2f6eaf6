(* Metrics: IPC accounting, aggregation, tables, and the experiment
   figures on a small deterministic subset of the workload. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let config = Option.get (Machine.Config.of_name "4c1b2l64r")

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let small_loops =
  lazy
    (List.concat_map
       (fun b -> take 2 (Workload.Generator.generate b))
       Workload.Benchmark.all)

let small_suite = lazy (Metrics.Suite.create ~loops:(Lazy.force small_loops) ())

let test_hmean () =
  check (Alcotest.float 1e-9) "constant" 2. (Metrics.Experiment.hmean [ 2.; 2.; 2. ]);
  check (Alcotest.float 1e-9) "two values" (4. /. 3.)
    (Metrics.Experiment.hmean [ 1.; 2. ]);
  check (Alcotest.float 1e-9) "empty" 0. (Metrics.Experiment.hmean []);
  check bool "hmean <= amean" true
    (Metrics.Experiment.hmean [ 1.; 9. ] <= 5.)

let test_table_render () =
  let t =
    Metrics.Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy"; "22" ] ]
  in
  let lines = String.split_on_char '\n' t in
  check int "5 lines (incl trailing empty)" 5 (List.length lines);
  (* all rows same width *)
  (match lines with
  | h :: sep :: rest ->
      List.iter
        (fun l ->
          if l <> "" then check int "width" (String.length h) (String.length l))
        (sep :: rest)
  | _ -> Alcotest.fail "unexpected shape");
  check Alcotest.string "pct" "25.0%" (Metrics.Table.pct 0.25);
  check Alcotest.string "f2" "1.50" (Metrics.Table.f2 1.5);
  check Alcotest.string "bar full" "#####" (Metrics.Table.bar ~width:5 1. 1.);
  check Alcotest.string "bar empty" "" (Metrics.Table.bar ~width:5 0. 1.)

let test_run_loop_modes () =
  let l = List.hd (Lazy.force small_loops) in
  List.iter
    (fun mode ->
      match Metrics.Experiment.run_loop mode config l with
      | Ok r ->
          check bool "cycles positive" true (r.counts.Sim.Lockstep.cycles > 0);
          check bool "useful positive" true
            (r.counts.Sim.Lockstep.useful_ops > 0)
      | Error e -> Alcotest.failf "mode failed: %s" (Sched.Sched_error.to_string e))
    Metrics.Experiment.
      [ Baseline; Replication; Replication_latency0; Macro_replication;
        Replication_length ]

let test_ipc_weighted () =
  let runs =
    Metrics.Experiment.run_suite Metrics.Experiment.Baseline config
      (take 4 (Lazy.force small_loops))
  in
  let ipc = Metrics.Experiment.ipc runs in
  check bool "ipc in (0, 12]" true (ipc > 0. && ipc <= 12.);
  check bool "weighted mean ii >= 1" true
    (Metrics.Experiment.weighted_mean_ii runs >= 1.)

let test_suite_caching () =
  let suite = Lazy.force small_suite in
  let a = Metrics.Suite.runs suite Metrics.Experiment.Baseline config in
  let b = Metrics.Suite.runs suite Metrics.Experiment.Baseline config in
  check bool "cached (physically equal)" true (a == b);
  check int "benchmark groups" 10
    (List.length (Metrics.Suite.benchmark_runs suite Metrics.Experiment.Baseline config))

let test_replication_beats_baseline () =
  let suite = Lazy.force small_suite in
  let base = Metrics.Suite.runs suite Metrics.Experiment.Baseline config in
  let repl = Metrics.Suite.runs suite Metrics.Experiment.Replication config in
  (* per loop, the replication driver never ends with a larger II *)
  List.iter2
    (fun (b : Metrics.Experiment.loop_run) (r : Metrics.Experiment.loop_run) ->
      check bool
        (Printf.sprintf "%s ii" b.loop.Workload.Generator.id)
        true
        (r.outcome.Sched.Driver.ii <= b.outcome.Sched.Driver.ii))
    base repl;
  check bool "aggregate ipc not worse" true
    (Metrics.Experiment.ipc repl >= Metrics.Experiment.ipc base)

let test_fig1_fractions () =
  let suite = Lazy.force small_suite in
  List.iter
    (fun (r : Metrics.Figures.fig1_row) ->
      let total = r.f1_bus +. r.f1_recurrence +. r.f1_registers in
      check bool "fractions sum to 0 or 1" true
        (total = 0. || abs_float (total -. 1.) < 1e-9);
      check bool "bus dominates" true
        (r.f1_bus >= r.f1_recurrence && r.f1_bus >= r.f1_registers))
    (Metrics.Figures.fig1_data suite)

let test_fig7_shape () =
  let suite = Lazy.force small_suite in
  let panels = Metrics.Figures.fig7_data suite in
  check int "six panels" 6 (List.length panels);
  List.iter
    (fun (p : Metrics.Figures.fig7_panel) ->
      check int "ten benchmarks" 10 (List.length p.cells);
      check bool "replication hmean not worse" true
        (p.hmean_repl >= p.hmean_base -. 1e-9))
    panels

let test_fig8_unified_is_best () =
  let suite = Lazy.force small_suite in
  match Metrics.Figures.fig8_data suite with
  | unified :: clustered ->
      List.iter
        (fun (r : Metrics.Figures.fig8_row) ->
          check bool "unified upper bound" true
            (unified.Metrics.Figures.f8_base >= r.Metrics.Figures.f8_base -. 1e-9))
        clustered
  | [] -> Alcotest.fail "no fig8 data"

let test_fig9_reduction_nonnegative () =
  let suite = Lazy.force small_suite in
  List.iter
    (fun (r : Metrics.Figures.fig9_row) ->
      check bool "replication never raises the II" true
        (r.reduction >= -1e-9))
    (Metrics.Figures.fig9_data suite)

let test_fig10_int_dominates () =
  let suite = Lazy.force small_suite in
  let rows = Metrics.Figures.fig10_data suite in
  (* the paper's observation: integer ops are the most replicated kind;
     check it in aggregate over the 4-cluster configurations *)
  let agg f =
    List.fold_left (fun acc (r : Metrics.Figures.fig10_row) -> acc +. f r) 0. rows
  in
  check bool "int >= fp" true
    (agg (fun r -> r.added_int) >= agg (fun r -> r.added_fp));
  check bool "int >= mem" true
    (agg (fun r -> r.added_int) >= agg (fun r -> r.added_mem))

let test_fig12_upper_bound () =
  let suite = Lazy.force small_suite in
  List.iter
    (fun (r : Metrics.Figures.fig12_row) ->
      check bool "latency-0 is an upper bound" true
        (r.ipc_latency0 >= r.ipc_repl -. 1e-9))
    (Metrics.Figures.fig12_data suite)

let test_sec4_sane () =
  let suite = Lazy.force small_suite in
  let s = Metrics.Figures.sec4_data suite in
  check bool "fraction in [0,1]" true
    (s.comms_removed_frac >= 0. && s.comms_removed_frac <= 1.);
  check bool "small subgraphs" true
    (s.instrs_per_removed_comm >= 1. && s.instrs_per_removed_comm < 6.)

let test_sec52_macro_not_better () =
  let suite = Lazy.force small_suite in
  List.iter
    (fun (r : Metrics.Figures.sec52_row) ->
      check bool "macro never beats minimal subgraphs" true
        (r.ipc_macro <= r.ipc_subgraph +. 1e-9);
      check bool "macro removes no more comms" true
        (r.removed_macro <= r.removed_subgraph))
    (Metrics.Figures.sec52_data suite)

let test_figures_render () =
  (* every renderer produces non-empty text without raising *)
  let suite = Lazy.force small_suite in
  List.iter
    (fun (id, render) ->
      check bool (id ^ " non-empty") true (String.length (render ()) > 40))
    (Metrics.Figures.all suite)

(* ------------------------------------------------------------------ *)
(* Register-family sweeps                                              *)
(* ------------------------------------------------------------------ *)

let sec4_family =
  List.map
    (fun registers ->
      Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers)
    [ 32; 64; 128 ]

(* Everything a figure can observe about a run, and the replication
   statistics a replayed member reports. *)
let canon_run (r : Metrics.Experiment.loop_run) =
  ( r.loop.Workload.Generator.id,
    r.outcome.Sched.Driver.mii,
    r.outcome.Sched.Driver.ii,
    List.sort compare r.outcome.Sched.Driver.increments,
    r.outcome.Sched.Driver.n_comms,
    Array.to_list r.outcome.Sched.Driver.assign,
    Array.to_list r.outcome.Sched.Driver.schedule.Sched.Schedule.cycles,
    Array.to_list r.outcome.Sched.Driver.schedule.Sched.Schedule.buses,
    Machine.Config.name
      r.outcome.Sched.Driver.schedule.Sched.Schedule.config,
    r.repl_stats,
    r.counts.Sim.Lockstep.cycles,
    r.counts.Sim.Lockstep.useful_ops )

let unrouted (r : Metrics.Experiment.loop_run) =
  match r.outcome.Sched.Driver.schedule.Sched.Schedule.routing with
  | Sched.Schedule.Unrouted _ -> true
  | Sched.Schedule.Routed _ -> false

let with_store_dir f =
  let dir = Filename.temp_dir "metrics_store" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Runs computed apart share their values by exact content: every run
   the suite keeps holds the one graph and the one partition of its
   content, whichever mode, machine or register-family replay produced
   it, and no routed graph; runs with equal cycle arrays, bus arrays or
   increments hold one of each; and a run that kept its loop's graph
   untransformed holds the loop's own graph.  The key is the sharing
   rule itself — the graph's structure, name and labels, and the
   partition.  Held on a cold suite over a store, and on a suite the
   saved store serves, each on one domain and on two: on two, the
   pool's workers share each run as they finish it, through one locked
   table. *)
let test_cached_runs_shared () =
  let graph_key g =
    ( Ddg.Graph.structural_encoding g,
      Ddg.Graph.name g,
      List.map (Ddg.Graph.label g) (Ddg.Graph.nodes g) )
  in
  let key (r : Metrics.Experiment.loop_run) =
    ( graph_key r.outcome.Sched.Driver.graph,
      Array.to_list r.outcome.Sched.Driver.assign )
  in
  let check_shared side suite =
    ignore (Metrics.Figures.fig7 suite);
    ignore (Metrics.Figures.sec4_regs suite);
    let first = Hashtbl.create 1024 in
    let shared = ref 0 in
    let one_of what tbl content v =
      match Hashtbl.find_opt tbl content with
      | None -> Hashtbl.add tbl content v
      | Some v0 -> check bool what true (v0 == v)
    in
    let cycles = Hashtbl.create 1024
    and buses = Hashtbl.create 1024
    and increments = Hashtbl.create 64 in
    let own_graph = ref 0 in
    List.iter
      (fun mode ->
        List.iter
          (fun config ->
            List.iter
              (fun (r : Metrics.Experiment.loop_run) ->
                let what =
                  Printf.sprintf "%s: %s %s %s" side
                    r.loop.Workload.Generator.id
                    (Metrics.Experiment.mode_tag mode)
                    (Machine.Config.name config)
                in
                check bool (what ^ " holds no routed graph") true (unrouted r);
                let o = r.outcome and s = r.outcome.Sched.Driver.schedule in
                one_of (what ^ " shares its cycles") cycles
                  (Array.to_list s.Sched.Schedule.cycles) s.Sched.Schedule.cycles;
                one_of (what ^ " shares its buses") buses
                  (Array.to_list s.Sched.Schedule.buses) s.Sched.Schedule.buses;
                one_of (what ^ " shares its increments") increments
                  o.Sched.Driver.increments o.Sched.Driver.increments;
                let lg = r.loop.Workload.Generator.graph in
                if graph_key o.Sched.Driver.graph = graph_key lg then begin
                  incr own_graph;
                  check bool (what ^ " holds its loop's own graph") true
                    (o.Sched.Driver.graph == lg)
                end;
                match Hashtbl.find_opt first (key r) with
                | None -> Hashtbl.add first (key r) r
                | Some (r0 : Metrics.Experiment.loop_run) ->
                    incr shared;
                    check bool (what ^ " shares its graph") true
                      (r0.outcome.Sched.Driver.graph
                      == r.outcome.Sched.Driver.graph);
                    check bool (what ^ " shares its partition") true
                      (r0.outcome.Sched.Driver.assign
                      == r.outcome.Sched.Driver.assign))
              (Metrics.Suite.runs suite mode config))
          (Machine.Config.paper_configs @ sec4_family))
      [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ];
    check bool (side ^ ": some runs share a key") true (!shared > 0);
    check bool (side ^ ": some runs keep their loop's graph") true
      (!own_graph > 0)
  in
  let loops = Lazy.force small_loops in
  List.iter
    (fun jobs ->
      with_store_dir @@ fun dir ->
      let side what = Printf.sprintf "%s (jobs %d)" what jobs in
      let store = Metrics.Store.create ~dir () in
      check_shared (side "cold") (Metrics.Suite.create ~loops ~jobs ~store ());
      Metrics.Store.save store;
      let store = Metrics.Store.create ~dir () in
      check_shared (side "served")
        (Metrics.Suite.create ~loops ~jobs ~store ());
      check int
        (side "the served suite computed nothing")
        0 (Metrics.Store.stats store).Metrics.Store.misses)
    [ 1; 2 ]

(* A share table keys a graph by its whole content: a graph that
   differs from the base in exactly one thing (its name, one label, one
   op, one edge's latency, distance or kind, or the order of two edges)
   is kept apart from it and from every other such graph, and a
   structural copy of any of them returns the first one built. *)
let test_share_keys_graphs_by_content () =
  let module G = Ddg.Graph in
  let edge ?(latency = 1) ?(distance = 0) ?(kind = G.Reg) src dst =
    { G.src; dst; latency; distance; kind }
  in
  let ops = Machine.Opclass.[ Load; Fp_arith; Fp_mul; Store ] in
  let labels = [ "ld"; "add"; "mul"; "st" ] in
  let edges =
    [
      edge ~latency:2 0 1;
      edge ~latency:3 1 2;
      edge ~latency:6 2 3;
      edge ~latency:2 0 3;
      edge ~distance:1 ~kind:G.Mem 3 0;
    ]
  in
  let build ?(name = "base") ?(labels = labels) ?(ops = ops) ?(edges = edges)
      () =
    let b = G.Builder.create ~name () in
    List.iter2 (fun label op -> ignore (G.Builder.add b ~label op)) labels ops;
    List.iter (G.Builder.edge b) edges;
    G.Builder.build b
  in
  let set i x l = List.mapi (fun j y -> if i = j then x else y) l in
  let variants =
    [
      ("base", fun () -> build ());
      ("name", fun () -> build ~name:"other" ());
      ("one label", fun () -> build ~labels:(set 2 "mul2" labels) ());
      ("one op", fun () -> build ~ops:(set 2 Machine.Opclass.Fp_div ops) ());
      ( "one latency",
        fun () -> build ~edges:(set 1 (edge ~latency:4 1 2) edges) () );
      ( "one distance",
        fun () ->
          build ~edges:(set 2 (edge ~latency:6 ~distance:1 2 3) edges) () );
      ( "one kind",
        fun () ->
          build ~edges:(set 3 (edge ~latency:2 ~kind:G.Mem 0 3) edges) () );
      ( "two edges' order",
        fun () ->
          build
            ~edges:(set 0 (List.nth edges 1) (set 1 (List.nth edges 0) edges))
            () );
    ]
  in
  let share = Metrics.Share.create () in
  let firsts =
    List.map
      (fun (what, make) ->
        let g = make () in
        check bool (what ^ ": kept apart") true
          (Metrics.Share.graph share g == g);
        (what, make, g))
      variants
  in
  List.iter
    (fun (what, make, g) ->
      check bool (what ^ ": a copy returns the first") true
        (Metrics.Share.graph share (make ()) == g))
    firsts

(* Everything a run's routed graph is: its graph's structure, name and
   labels, and its routing arrays. *)
let route_content (r : Metrics.Experiment.loop_run) =
  let route = Sched.Schedule.route r.outcome.Sched.Driver.schedule in
  let g = route.Sched.Route.graph in
  ( ( Ddg.Graph.structural_encoding g,
      Ddg.Graph.name g,
      List.map (Ddg.Graph.label g) (Ddg.Graph.nodes g) ),
    ( Array.to_list route.Sched.Route.assign,
      Array.to_list route.Sched.Route.copy_of,
      route.Sched.Route.n_original ) )

(* A kept schedule routes exactly as it was scheduled, the identity the
   unrouted form rests on: a freshly computed run carries its routed
   graph, and once kept (through a share table, or by a suite's spill
   pass) it holds none, and [Schedule.route] rebuilds the same one from
   the kept graph, partition and latency-0 flag.  Held in every
   scheduling mode on machines of both cluster counts and both bus
   latencies, for a derived length run and for a spill pass. *)
let test_kept_schedule_routes_as_scheduled () =
  let loops = take 6 (Lazy.force small_loops) in
  let same what (fresh : Metrics.Experiment.loop_run) kept =
    check bool (what ^ " was computed routed") false (unrouted fresh);
    check bool (what ^ " is kept unrouted") true (unrouted kept);
    check bool (what ^ " routes as scheduled") true
      (route_content fresh = route_content kept)
  in
  let share = Metrics.Share.create () in
  let kept_runs = ref 0 in
  let keep what fresh =
    let kept = Metrics.Share.run share fresh in
    same what fresh kept;
    incr kept_runs;
    kept
  in
  List.iter
    (fun name ->
      let config = Option.get (Machine.Config.of_name name) in
      List.iter
        (fun (l : Workload.Generator.loop) ->
          List.iter
            (fun mode ->
              match Metrics.Experiment.run_loop mode config l with
              | Error _ -> ()
              | Ok fresh -> (
                  let what =
                    Printf.sprintf "%s %s %s" l.id
                      (Metrics.Experiment.mode_tag mode) name
                  in
                  let kept = keep what fresh in
                  if mode = Metrics.Experiment.Replication then
                    match Metrics.Experiment.lengthen_run kept with
                    | Ok lengthened ->
                        ignore (keep (what ^ " lengthened") lengthened)
                    | Error e ->
                        Alcotest.failf "%s: lengthen: %s" what
                          (Sched.Sched_error.to_string e)))
            Metrics.Experiment.
              [
                Baseline; Replication; Replication_latency0; Macro_replication;
              ])
        loops)
    [ "4c1b2l64r"; "4c2b4l64r"; "2c2b4l64r" ];
  check bool "runs were kept" true (!kept_runs > 0);
  let config = List.hd sec4_family in
  let suite = Metrics.Suite.create ~loops () in
  let kept =
    Metrics.Suite.spill_runs suite Metrics.Experiment.Baseline config
  in
  let fresh =
    List.filter_map
      (fun l ->
        Result.to_option
          (Metrics.Experiment.run_with ~spiller:Sched.Spill.spiller
             ~transform:None ~stats_ref:(ref None) config l))
      loops
  in
  check bool "some loops spill-schedule" true (fresh <> []);
  check int "spill run count" (List.length fresh) (List.length kept);
  List.iter2
    (fun (f : Metrics.Experiment.loop_run) k ->
      same (f.loop.Workload.Generator.id ^ " spilled") f k)
    fresh kept

(* Trace-replayed sweeps must be observably identical to running every
   family member from scratch, at any pool size. *)
let test_sweep_runs_match_direct () =
  let loops = take 10 (Lazy.force small_loops) in
  List.iter
    (fun jobs ->
      let suite = Metrics.Suite.create ~loops ~jobs () in
      List.iter
        (fun mode ->
          List.iter
            (fun (config, runs) ->
              let direct = Metrics.Experiment.run_suite mode config loops in
              check int
                (Printf.sprintf "jobs=%d %s run count" jobs
                   (Machine.Config.name config))
                (List.length direct) (List.length runs);
              List.iter2
                (fun a b ->
                  check bool
                    (Printf.sprintf "jobs=%d %s run equal" jobs
                       (Machine.Config.name config))
                    true
                    (canon_run a = canon_run b))
                direct runs)
            (Metrics.Suite.sweep_runs suite mode sec4_family))
        [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ])
    [ 1; 2 ]

let test_spill_runs_match_direct () =
  let loops = take 10 (Lazy.force small_loops) in
  let config = List.hd sec4_family in
  List.iter
    (fun jobs ->
      let suite = Metrics.Suite.create ~loops ~jobs () in
      List.iter
        (fun mode ->
          let swept = Metrics.Suite.spill_runs suite mode config in
          let direct =
            List.filter_map
              (fun l ->
                let transform, stats_ref =
                  match mode with
                  | Metrics.Experiment.Baseline -> (None, ref None)
                  | _ ->
                      let t, r = Replication.Replicate.transform () in
                      (Some t, r)
                in
                match
                  Metrics.Experiment.run_with ~mode
                    ~spiller:Sched.Spill.spiller ~transform ~stats_ref
                    config l
                with
                | Ok r -> Some r
                | Error _ -> None)
              loops
          in
          check int
            (Printf.sprintf "jobs=%d spill run count" jobs)
            (List.length direct) (List.length swept);
          List.iter2
            (fun a b ->
              check bool
                (Printf.sprintf "jobs=%d spill run equal" jobs)
                true
                (canon_run a = canon_run b))
            direct swept)
        [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ])
    [ 1; 2 ]

(* One sweep over three bus/latency families of one cluster/unit
   structure: no trace answers a member of another bus/latency family
   ({!Sched.Driver.Trace.replay} refuses one), so each member is
   answered by its own family's recording.  Results must be observably
   identical to direct sweeps, at any pool size — jobs=8 clamps to the
   machine but must not change a byte either way. *)
let bus_latency_families =
  List.map
    (fun (buses, bus_latency) ->
      Machine.Config.make ~clusters:4 ~buses ~bus_latency ~registers:64)
    [ (1, 2); (2, 2); (2, 4) ]

let test_bus_latency_sweeps_match_direct () =
  let loops = take 10 (Lazy.force small_loops) in
  List.iter
    (fun jobs ->
      let suite = Metrics.Suite.create ~loops ~jobs () in
      List.iter
        (fun mode ->
          List.iter
            (fun (config, runs) ->
              let direct = Metrics.Experiment.run_suite mode config loops in
              check int
                (Printf.sprintf "jobs=%d %s run count" jobs
                   (Machine.Config.name config))
                (List.length direct) (List.length runs);
              List.iter2
                (fun a b ->
                  check bool
                    (Printf.sprintf "jobs=%d %s run equal" jobs
                       (Machine.Config.name config))
                    true
                    (canon_run a = canon_run b))
                direct runs)
            (Metrics.Suite.sweep_runs suite mode bus_latency_families))
        [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ])
    [ 1; 8 ]

(* The stricter-member re-record: sweeping one member at a time, a roomy
   member records first, then a tighter register file arrives — the
   family re-records there.  One sweep over the whole family, in the
   same order, records at its strictest member at once.  Either way
   every member (including one answered before a re-record) must equal
   its direct run. *)
let test_rerecord_at_stricter_member () =
  let loops = take 10 (Lazy.force small_loops) in
  let family order =
    List.map
      (fun registers ->
        Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers)
      order
  in
  let sweep suite mode configs ~per_member =
    if per_member then
      List.concat_map
        (fun c -> Metrics.Suite.sweep_runs suite mode [ c ])
        configs
    else Metrics.Suite.sweep_runs suite mode configs
  in
  List.iter
    (fun (order, per_member) ->
      let suite = Metrics.Suite.create ~loops () in
      List.iter
        (fun mode ->
          List.iter
            (fun (config, runs) ->
              let direct = Metrics.Experiment.run_suite mode config loops in
              List.iter2
                (fun a b ->
                  check bool
                    (Printf.sprintf "%s after re-record equal"
                       (Machine.Config.name config))
                    true
                    (canon_run a = canon_run b))
                direct runs)
            (sweep suite mode (family order) ~per_member);
          (* the spill sweep replays whatever trace the re-record left *)
          ignore
            (Metrics.Suite.spill_runs suite mode
               (List.hd (family [ 32 ]))))
        [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ])
    (List.concat_map
       (fun order -> [ (order, true); (order, false) ])
       [ [ 64; 32; 128 ]; [ 128; 64; 32 ] ])

(* Display names are not injective: a custom homogeneous machine with
   other unit counts prints the default machine's name.  One suite asked
   for both must answer each exactly as a fresh suite does. *)
let test_runs_keyed_by_full_config () =
  let loops = Lazy.force small_loops in
  let custom =
    Machine.Config.custom ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64
      ~fus_per_cluster:(1, 1, 2)
  in
  check Alcotest.string "the names collide" (Machine.Config.name config)
    (Machine.Config.name custom);
  let shared = Metrics.Suite.create ~loops () in
  List.iter
    (fun c ->
      let fresh = Metrics.Suite.create ~loops () in
      let runs s =
        List.map canon_run
          (Metrics.Suite.runs s Metrics.Experiment.Baseline c)
      in
      check bool
        (Machine.Config.cache_key c ^ " equals its fresh-suite runs")
        true
        (runs shared = runs fresh))
    [ config; custom ]

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let xs = List.init 100 Fun.id in
  let f x = (2 * x) + 1 in
  let expect = List.map f xs in
  List.iter
    (fun jobs ->
      check (Alcotest.list int)
        (Printf.sprintf "map order at jobs=%d" jobs)
        expect
        (Metrics.Pool.map ~jobs f xs))
    [ 1; 2; 3; 8 ];
  check (Alcotest.list int) "empty input" []
    (Metrics.Pool.map ~jobs:4 f []);
  check (Alcotest.list int) "more jobs than items" [ 1; 3 ]
    (Metrics.Pool.map ~jobs:16 f [ 0; 1 ])

let test_pool_filter_map () =
  let xs = List.init 50 Fun.id in
  let f x = if x mod 3 = 0 then Some (x * x) else None in
  let expect = List.filter_map f xs in
  List.iter
    (fun jobs ->
      check (Alcotest.list int)
        (Printf.sprintf "filter_map at jobs=%d" jobs)
        expect
        (Metrics.Pool.filter_map ~jobs f xs))
    [ 1; 2; 4 ]

exception Boom of int

let test_pool_exception () =
  (* the first failure in input order propagates, at any parallelism,
     wrapped so the item index and original exception survive *)
  List.iter
    (fun jobs ->
      match
        Metrics.Pool.map ~jobs
          (fun x -> if x >= 7 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Fault" jobs
      | exception Metrics.Pool.Fault { index; exn = Boom x; _ } ->
          check int (Printf.sprintf "jobs=%d first failure" jobs) 7 x;
          check int (Printf.sprintf "jobs=%d fault index" jobs) 7 index
      | exception e ->
          Alcotest.failf "jobs=%d: unexpected %s" jobs (Printexc.to_string e))
    [ 1; 2; 4 ]

(* The serve engine's one dispatch path, at width 0 (jobs run on the
   caller, inside [submit]) and width 2.  Jobs go in reverse, so a
   job's submission index is not its value. *)
let test_pool_service () =
  let module S = Metrics.Pool.Service in
  List.iter
    (fun workers ->
      let at what = Printf.sprintf "%s (width %d)" what workers in
      let ran = Atomic.make 0 and fired = Atomic.make 0 in
      let svc =
        S.create
          ~on_result:(fun () -> Atomic.incr fired)
          ~workers
          (fun _ x ->
            Atomic.incr ran;
            if x = 3 then raise (Boom x) else 10 * x)
      in
      let jobs = List.init 8 (fun i -> 7 - i) in
      List.iteri
        (fun i x ->
          S.submit svc x;
          if workers = 0 then begin
            check int (at "the job ran inside submit") (i + 1) (Atomic.get ran);
            check bool (at "wait returns at once, with a result") true
              (S.wait svc)
          end)
        jobs;
      S.shutdown svc;
      S.shutdown svc;
      let results =
        List.sort (fun (a, _) (b, _) -> compare a b) (S.poll svc)
      in
      check (Alcotest.list int)
        (at "every job comes back once, with its own job")
        (List.init 8 Fun.id) (List.map fst results);
      List.iter
        (fun (x, res) ->
          match res with
          | Ok v -> check int (at "a job's own result") (10 * x) v
          | Error { Metrics.Pool.index; exn = Boom b; _ } ->
              check int (at "the raising job") 3 b;
              check int (at "its fault carries the submission index") 4 index
          | Error f ->
              Alcotest.failf "unexpected fault %s" (Printexc.to_string f.exn))
        results;
      check int (at "on_result fires once per job") 8 (Atomic.get fired);
      check bool (at "wait with nothing in flight returns at once") false
        (S.wait svc);
      match S.submit svc 0 with
      | () -> Alcotest.failf "width %d: submit after shutdown accepted" workers
      | exception Invalid_argument _ -> ())
    [ 0; 2 ]

let test_pool_default_jobs () =
  check bool "default_jobs positive" true (Metrics.Pool.default_jobs () >= 1)

let test_pool_clamp () =
  let d = Metrics.Pool.default_jobs () in
  check int "clamp from below" 1 (Metrics.Pool.clamp_jobs 0);
  check int "clamp from below (negative)" 1 (Metrics.Pool.clamp_jobs (-3));
  check int "clamp from above" d (Metrics.Pool.clamp_jobs (d + 100));
  check int "identity inside the range" 1 (Metrics.Pool.clamp_jobs 1)

(* Phase timers under the pool: every worker's local counters must merge
   into the global totals when the domains join, so the reported time is
   the sum over all participants — not just the orchestrator's share. *)
let test_profile_merge_across_domains () =
  Sched.Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Sched.Profile.set_enabled false)
    (fun () ->
      let busy _ =
        Sched.Profile.time Sched.Profile.Partition (fun () ->
            let t0 = Unix.gettimeofday () in
            while Unix.gettimeofday () -. t0 < 0.02 do
              ignore (Sys.opaque_identity 1)
            done)
      in
      ignore (Metrics.Pool.map ~jobs:2 busy [ 0; 1; 2; 3 ]);
      let total = Sched.Profile.seconds Sched.Profile.Partition in
      check bool "worker phase time merged on join" true (total >= 0.06))

(* The suite's hierarchy views, held by exact counts: after a plain
   pass at 4c1b2l64r, a plain pass over another member of its register
   family and a replication pass on the same machine find every
   partition they ask for in the views the first pass filled, so they
   compute none.  Counts have no spread, unlike the time they save. *)
let test_hierarchy_views_compute_once () =
  let suite = Metrics.Suite.create ~loops:(Lazy.force small_loops) () in
  let computed mode name =
    let config = Option.get (Machine.Config.of_name name) in
    let before = Sched.Profile.events Sched.Profile.Partition_computed in
    ignore (Metrics.Suite.runs suite mode config);
    Sched.Profile.events Sched.Profile.Partition_computed - before
  in
  Sched.Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Sched.Profile.set_enabled false) @@ fun () ->
  let first = computed Metrics.Experiment.Baseline "4c1b2l64r" in
  check bool
    (Printf.sprintf "base 4c1b2l64r computes partitions (%d)" first)
    true (first > 0);
  check int "base 4c1b2l128r computes none" 0
    (computed Metrics.Experiment.Baseline "4c1b2l128r");
  check int "repl 4c1b2l64r computes none" 0
    (computed Metrics.Experiment.Replication "4c1b2l64r")

(* Views over one skeleton hold each distinct partition once: the
   suite's way of building them (one skeleton per structure and graph
   digest, one view per loop, buses and latency), walked by the base
   and the replication run over every loop at two machines of one
   structure.  Beyond the skeletons, the graphs and the machines, the
   views then keep only their memo tables, about 14 words per computed
   partition; views holding arrays of their own keep about 65. *)
let test_hierarchy_memos_shared () =
  let loops = Lazy.force small_loops in
  let configs =
    List.map (fun n -> Option.get (Machine.Config.of_name n))
      [ "4c1b2l64r"; "4c2b4l64r" ]
  in
  let skels = Hashtbl.create 32 in
  let skel_of config (l : Workload.Generator.loop) =
    let digest = Ddg.Graph.digest l.graph in
    match Hashtbl.find_opt skels digest with
    | Some s -> s
    | None ->
        let s =
          Sched.Partition.Hier.skeleton (Sched.Driver.hierarchy config l.graph)
        in
        Hashtbl.replace skels digest s;
        s
  in
  Sched.Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Sched.Profile.set_enabled false) @@ fun () ->
  let before = Sched.Profile.events Sched.Profile.Partition_computed in
  let views =
    List.concat_map
      (fun config ->
        List.map
          (fun (l : Workload.Generator.loop) ->
            let hier =
              Sched.Partition.Hier.view (skel_of config l) ~graph:l.graph config
            in
            List.iter
              (fun mode ->
                ignore (Metrics.Experiment.run_loop ~hier mode config l))
              Metrics.Experiment.[ Baseline; Replication ];
            hier)
          loops)
      configs
  in
  let computed =
    Sched.Profile.events Sched.Profile.Partition_computed - before
  in
  let held =
    ( Hashtbl.fold (fun _ s acc -> s :: acc) skels [],
      List.map (fun (l : Workload.Generator.loop) -> l.graph) loops,
      configs )
  in
  let beyond =
    Obj.reachable_words (Obj.repr (views, held))
    - Obj.reachable_words (Obj.repr held)
  in
  check bool (Printf.sprintf "partitions were computed (%d)" computed) true
    (computed > 100);
  if beyond > 24 * computed then
    Alcotest.failf
      "views hold %d words beyond their skeletons for %d computed partitions"
      beyond computed

let suite =
  [
    Alcotest.test_case "pool map order" `Quick test_pool_map_order;
    Alcotest.test_case "pool filter_map" `Quick test_pool_filter_map;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "pool service" `Quick test_pool_service;
    Alcotest.test_case "pool default jobs" `Quick test_pool_default_jobs;
    Alcotest.test_case "pool clamp" `Quick test_pool_clamp;
    Alcotest.test_case "profile merge across domains" `Quick
      test_profile_merge_across_domains;
    Alcotest.test_case "hmean" `Quick test_hmean;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "run_loop all modes" `Quick test_run_loop_modes;
    Alcotest.test_case "ipc weighted" `Quick test_ipc_weighted;
    Alcotest.test_case "suite caching" `Quick test_suite_caching;
    Alcotest.test_case "hierarchy views compute once" `Quick
      test_hierarchy_views_compute_once;
    Alcotest.test_case "hierarchy memos share partitions" `Quick
      test_hierarchy_memos_shared;
    Alcotest.test_case "replication beats baseline" `Slow
      test_replication_beats_baseline;
    Alcotest.test_case "fig1 fractions" `Slow test_fig1_fractions;
    Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
    Alcotest.test_case "fig8 unified best" `Slow test_fig8_unified_is_best;
    Alcotest.test_case "fig9 reduction" `Slow test_fig9_reduction_nonnegative;
    Alcotest.test_case "fig10 int dominates" `Slow test_fig10_int_dominates;
    Alcotest.test_case "fig12 upper bound" `Slow test_fig12_upper_bound;
    Alcotest.test_case "sec4 sane" `Slow test_sec4_sane;
    Alcotest.test_case "sec52 macro not better" `Slow
      test_sec52_macro_not_better;
    Alcotest.test_case "figures render" `Slow test_figures_render;
    Alcotest.test_case "sweep runs match direct" `Slow
      test_sweep_runs_match_direct;
    Alcotest.test_case "spill runs match direct" `Slow
      test_spill_runs_match_direct;
    Alcotest.test_case "bus and latency sweeps match direct" `Slow
      test_bus_latency_sweeps_match_direct;
    Alcotest.test_case "re-record at stricter member" `Slow
      test_rerecord_at_stricter_member;
    Alcotest.test_case "runs keyed by the full config" `Slow
      test_runs_keyed_by_full_config;
    Alcotest.test_case "cached runs are shared" `Slow test_cached_runs_shared;
    Alcotest.test_case "share keys graphs by content" `Quick
      test_share_keys_graphs_by_content;
    Alcotest.test_case "a kept schedule routes exactly as it was scheduled"
      `Quick test_kept_schedule_routes_as_scheduled;
  ]
