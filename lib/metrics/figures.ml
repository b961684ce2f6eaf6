let cfg = Machine.Config.of_name
let get name = Option.get (cfg name)

let unified64 = Machine.Config.unified ~registers:64

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let resources =
    Table.render
      ~header:[ "Resources"; "2-cluster"; "4-cluster" ]
      [
        [ "INT/cluster"; "2"; "1" ];
        [ "FP/cluster"; "2"; "1" ];
        [ "MEM/cluster"; "2"; "1" ];
      ]
  in
  let latencies =
    Table.render
      ~header:[ "Latencies"; "INT"; "FP" ]
      [
        [ "MEM"; "2"; "2" ];
        [ "ARITH"; "1"; "3" ];
        [ "MUL/ABS"; "2"; "6" ];
        [ "DIV/SQRT"; "6"; "18" ];
      ]
  in
  "Table 1: Clustered VLIW configurations.\n" ^ resources ^ "\n" ^ latencies

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

type fig1_row = {
  f1_config : string;
  f1_bus : float;
  f1_recurrence : float;
  f1_registers : float;
}

let fig1_data suite =
  List.map
    (fun config ->
      let runs = Suite.runs suite Experiment.Baseline config in
      let total = ref 0 and bus = ref 0 and recur = ref 0 and regs = ref 0 in
      List.iter
        (fun (r : Experiment.loop_run) ->
          List.iter
            (fun (cause, n) ->
              total := !total + n;
              match cause with
              | Sched.Driver.Bus -> bus := !bus + n
              | Sched.Driver.Recurrence -> recur := !recur + n
              | Sched.Driver.Registers -> regs := !regs + n)
            r.outcome.Sched.Driver.increments)
        runs;
      let frac n = if !total = 0 then 0. else float_of_int n /. float_of_int !total in
      {
        f1_config = Machine.Config.name config;
        f1_bus = frac !bus;
        f1_recurrence = frac !recur;
        f1_registers = frac !regs;
      })
    Machine.Config.fig1_configs

let fig1 suite =
  let rows =
    List.map
      (fun r ->
        [ r.f1_config; Table.pct r.f1_bus; Table.pct r.f1_recurrence;
          Table.pct r.f1_registers ])
      (fig1_data suite)
  in
  "Figure 1: Causes for increasing the II (fraction of II increments\n\
   beyond MII, baseline scheduler).  Paper: bus 70-90%, recurrences\n\
   2-4%, registers the rest.\n"
  ^ Table.render ~header:[ "config"; "bus"; "recurrences"; "registers" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

type fig7_cell = { benchmark : string; base_ipc : float; repl_ipc : float }

type fig7_panel = {
  f7_config : string;
  cells : fig7_cell list;
  hmean_base : float;
  hmean_repl : float;
}

let panel suite config =
  let base = Suite.benchmark_runs suite Experiment.Baseline config in
  let repl = Suite.benchmark_runs suite Experiment.Replication config in
  let cells =
    List.map2
      (fun (name, b) (_, r) ->
        { benchmark = name; base_ipc = Experiment.ipc b;
          repl_ipc = Experiment.ipc r })
      base repl
  in
  {
    f7_config = Machine.Config.name config;
    cells;
    hmean_base = Experiment.hmean (List.map (fun c -> c.base_ipc) cells);
    hmean_repl = Experiment.hmean (List.map (fun c -> c.repl_ipc) cells);
  }

let fig7_data suite = List.map (panel suite) Machine.Config.paper_configs

let fig7 suite =
  let render p =
    let rows =
      List.map
        (fun c ->
          [
            c.benchmark;
            Table.f2 c.base_ipc;
            Table.f2 c.repl_ipc;
            Printf.sprintf "%+.0f%%" (100. *. (c.repl_ipc /. c.base_ipc -. 1.));
          ])
        p.cells
      @ [
          [
            "HMEAN";
            Table.f2 p.hmean_base;
            Table.f2 p.hmean_repl;
            Printf.sprintf "%+.0f%%"
              (100. *. (p.hmean_repl /. p.hmean_base -. 1.));
          ];
        ]
    in
    Printf.sprintf "-- %s --\n%s" p.f7_config
      (Table.render ~header:[ "benchmark"; "baseline"; "replication"; "gain" ]
         rows)
  in
  "Figure 7: Performance results (IPC).  Paper: replication wins\n\
   everywhere; ~+25% average on 4c2b4l64r, up to +70% (su2cor).\n\n"
  ^ String.concat "\n" (List.map render (fig7_data suite))

(* ------------------------------------------------------------------ *)
(* Figure 8                                                            *)
(* ------------------------------------------------------------------ *)

type fig8_row = { machine : string; f8_base : float; f8_repl : float }

let fig8_configs =
  [ unified64; get "2c1b2l64r"; get "4c1b2l64r"; get "4c2b2l64r" ]

let fig8_data suite =
  let mgrid mode config =
    Experiment.ipc
      (List.assoc "mgrid" (Suite.benchmark_runs suite mode config))
  in
  List.map
    (fun config ->
      {
        machine = Machine.Config.name config;
        f8_base = mgrid Experiment.Baseline config;
        f8_repl =
          (if config.Machine.Config.clusters = 1 then
             mgrid Experiment.Baseline config
           else mgrid Experiment.Replication config);
      })
    fig8_configs

let fig8 suite =
  let data = fig8_data suite in
  let maxv = List.fold_left (fun a r -> max a r.f8_base) 0. data in
  let rows =
    List.map
      (fun r ->
        [ r.machine; Table.f2 r.f8_base; Table.f2 r.f8_repl;
          Table.bar ~width:30 r.f8_base maxv ])
      data
  in
  "Figure 8: IPC for mgrid.  Paper: the clustered baselines sit close\n\
   to the unified upper bound, so replication has little to gain.\n"
  ^ Table.render ~header:[ "machine"; "baseline"; "replication"; "" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 9                                                            *)
(* ------------------------------------------------------------------ *)

type fig9_row = {
  f9_config : string;
  base_ii : float;
  repl_ii : float;
  reduction : float;
}

let fig9_data suite =
  List.map
    (fun config ->
      let applu mode =
        List.assoc "applu" (Suite.benchmark_runs suite mode config)
      in
      let base_ii = Experiment.weighted_mean_ii (applu Experiment.Baseline) in
      let repl_ii =
        Experiment.weighted_mean_ii (applu Experiment.Replication)
      in
      {
        f9_config = Machine.Config.name config;
        base_ii;
        repl_ii;
        reduction = (if base_ii = 0. then 0. else 1. -. (repl_ii /. base_ii));
      })
    Machine.Config.fig1_configs

let fig9 suite =
  let rows =
    List.map
      (fun r ->
        [ r.f9_config; Table.f2 r.base_ii; Table.f2 r.repl_ii;
          Table.pct r.reduction ])
      (fig9_data suite)
  in
  "Figure 9: Reduction of the II for applu.  Paper: 10-20% depending on\n\
   the configuration (yet little IPC gain - applu's loops run ~4\n\
   iterations, so the prologue dominates).\n"
  ^ Table.render ~header:[ "config"; "baseline II"; "replication II"; "reduction" ]
      rows

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)
(* ------------------------------------------------------------------ *)

type fig10_row = {
  f10_config : string;
  added_mem : float;
  added_int : float;
  added_fp : float;
}

let fig10_data suite =
  List.map
    (fun config ->
      let runs = Suite.runs suite Experiment.Replication config in
      let useful = ref 0. in
      let added = Array.make Machine.Fu.count 0. in
      List.iter
        (fun (r : Experiment.loop_run) ->
          let w = float_of_int r.loop.Workload.Generator.visits in
          useful :=
            !useful +. (w *. float_of_int r.counts.Sim.Lockstep.useful_ops);
          match r.repl_stats with
          | None -> ()
          | Some st ->
              let dyn = w *. float_of_int r.loop.Workload.Generator.trip in
              Array.iteri
                (fun k a ->
                  let net =
                    a - st.Replication.Replicate.removed_by_kind.(k)
                  in
                  added.(k) <- added.(k) +. (dyn *. float_of_int net))
                st.Replication.Replicate.added_by_kind)
        runs;
      let frac k =
        if !useful = 0. then 0.
        else added.(Machine.Fu.index k) /. !useful
      in
      {
        f10_config = Machine.Config.name config;
        added_mem = frac Machine.Fu.Mem;
        added_int = frac Machine.Fu.Int;
        added_fp = frac Machine.Fu.Fp;
      })
    Machine.Config.paper_configs

let fig10 suite =
  let rows =
    List.map
      (fun r ->
        [
          r.f10_config;
          Table.pct r.added_mem;
          Table.pct r.added_int;
          Table.pct r.added_fp;
          Table.pct (r.added_mem +. r.added_int +. r.added_fp);
        ])
      (fig10_data suite)
  in
  "Figure 10: Dynamic instructions added by replication, per kind.\n\
   Paper: below ~5% total for most configurations, integer ops the\n\
   most common replicated kind.\n"
  ^ Table.render ~header:[ "config"; "mem"; "int"; "fp"; "total" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 12                                                           *)
(* ------------------------------------------------------------------ *)

type fig12_row = {
  f12_config : string;
  ipc_repl : float;
  ipc_latency0 : float;
}

let hmean_ipc suite mode config =
  Experiment.hmean
    (List.map
       (fun (_, rs) -> Experiment.ipc rs)
       (Suite.benchmark_runs suite mode config))

(* The latency-0 bound is evaluated the way the paper describes: the
   partition, replication and II of the normal run are kept (the effect
   of communications on the II is "considered"), and only the schedule
   length is recomputed with zero-latency buses.  This makes the bound a
   true per-loop upper bound. *)
let latency0_ipc config runs =
  let num, den =
    List.fold_left
      (fun (n, d) (r : Experiment.loop_run) ->
        let o = r.Experiment.outcome in
        let normal_cycles = r.counts.Sim.Lockstep.cycles in
        let cycles =
          if config.Machine.Config.clusters = 1 then normal_cycles
          else begin
            let route =
              Sched.Route.build ~latency0:true config o.Sched.Driver.graph
                ~assign:o.Sched.Driver.assign
            in
            match
              Sched.Place.try_schedule config route ~ii:o.Sched.Driver.ii
            with
            | Ok s ->
                let trip = r.loop.Workload.Generator.trip in
                min normal_cycles (Sched.Schedule.execution_cycles s ~iterations:trip)
            | Error _ -> normal_cycles
          end
        in
        let v = float_of_int r.loop.Workload.Generator.visits in
        ( n +. (v *. float_of_int r.counts.Sim.Lockstep.useful_ops),
          d +. (v *. float_of_int cycles) ))
      (0., 0.) runs
  in
  if den = 0. then 0. else num /. den

let fig12_data suite =
  List.map
    (fun config ->
      let groups = Suite.benchmark_runs suite Experiment.Replication config in
      {
        f12_config = Machine.Config.name config;
        ipc_repl = hmean_ipc suite Experiment.Replication config;
        ipc_latency0 =
          Experiment.hmean
            (List.map (fun (_, rs) -> latency0_ipc config rs) groups);
      })
    Machine.Config.paper_configs

let fig12 suite =
  let rows =
    List.map
      (fun r ->
        [
          r.f12_config;
          Table.f2 r.ipc_repl;
          Table.f2 r.ipc_latency0;
          Printf.sprintf "%+.1f%%"
            (100. *. (r.ipc_latency0 /. r.ipc_repl -. 1.));
        ])
      (fig12_data suite)
  in
  "Figure 12: Potential benefit of removing communications from the\n\
   critical path (zero-latency buses during scheduling).  Paper: ~1%\n\
   for 4-cluster configs, near zero for 2-cluster - replicating to\n\
   shorten the schedule is not worth much.\n"
  ^ Table.render
      ~header:[ "config"; "replication"; "latency-0 bound"; "headroom" ]
      rows

(* ------------------------------------------------------------------ *)
(* Section 4 statistics                                                *)
(* ------------------------------------------------------------------ *)

type sec4_stats = {
  s4_config : string;
  comms_removed_frac : float;
  instrs_per_removed_comm : float;
}

let sec4_data suite =
  let config = get "4c1b2l64r" in
  let repl = Suite.runs suite Experiment.Replication config in
  (* The paper's statistic is about what the pass does to its input: of
     the communications present when replication ran, how many did it
     replace?  Loops where replication never triggered (the partition
     already fit the bus) contribute their final communications to the
     denominator with nothing removed. *)
  let before, removed, added =
    List.fold_left
      (fun (b, rm, ad) (r : Experiment.loop_run) ->
        match r.repl_stats with
        | None -> (b + r.outcome.Sched.Driver.n_comms, rm, ad)
        | Some st ->
            ( b + st.Replication.Replicate.comms_before,
              rm + st.Replication.Replicate.comms_removed,
              ad + st.Replication.Replicate.added_instances ))
      (0, 0, 0) repl
  in
  {
    s4_config = Machine.Config.name config;
    comms_removed_frac =
      (if before = 0 then 0. else float_of_int removed /. float_of_int before);
    instrs_per_removed_comm =
      (if removed = 0 then 0. else float_of_int added /. float_of_int removed);
  }

let sec4 suite =
  let s = sec4_data suite in
  Printf.sprintf
    "Section 4 statistics (%s):\n\
    \  communications removed by replication: %s   (paper: ~36%%)\n\
    \  instructions replicated per removed communication: %.2f   (paper: ~2.1)\n"
    s.s4_config (Table.pct s.comms_removed_frac) s.instrs_per_removed_comm

type sec4_regs_row = {
  registers : int;
  r_hmean_base : float;
  r_hmean_repl : float;
}

(* The machines of the register-sensitivity study: identical but for the
   register-file size, so the suite can answer all three from one
   escalation trace per loop (Suite.sweep_runs). *)
let sec4_regs_family =
  List.map
    (fun regs ->
      Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:regs)
    [ 32; 64; 128 ]

let sec4_regs_data suite =
  List.iter
    (fun mode -> ignore (Suite.sweep_runs suite mode sec4_regs_family))
    [ Experiment.Baseline; Experiment.Replication ];
  List.map
    (fun (config : Machine.Config.t) ->
      {
        registers = config.Machine.Config.total_registers;
        r_hmean_base = hmean_ipc suite Experiment.Baseline config;
        r_hmean_repl = hmean_ipc suite Experiment.Replication config;
      })
    sec4_regs_family

(* extension row: the 32-register machine again, but with spill code
   instead of pure II escalation on register overflow *)
let sec4_regs_spill_row suite =
  let config =
    Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:32
  in
  (* Answered from the same traces as the 32-register rows above: a
     replay only goes live (and pays for rescheduling) on loops where
     the spiller actually has registers to spill. *)
  let run mode =
    Experiment.hmean
      (List.filter_map
         (fun (_, rs) -> if rs = [] then None else Some (Experiment.ipc rs))
         (Experiment.group_by_benchmark (Suite.spill_runs suite mode config)))
  in
  let base = run Experiment.Baseline in
  let repl = run Experiment.Replication in
  [
    "4c1b2l32r+spill";
    Table.f2 base;
    Table.f2 repl;
    Printf.sprintf "%+.0f%%" (100. *. (repl /. base -. 1.));
  ]

let sec4_regs suite =
  (* data rows first: the family records its traces at its strictest
     member, 32 registers, and the spill row then replays them there *)
  let data_rows =
    List.map
      (fun r ->
        [
          Printf.sprintf "4c1b2l%dr" r.registers;
          Table.f2 r.r_hmean_base;
          Table.f2 r.r_hmean_repl;
          Printf.sprintf "%+.0f%%"
            (100. *. (r.r_hmean_repl /. r.r_hmean_base -. 1.));
        ])
      (sec4_regs_data suite)
  in
  let rows = data_rows @ [ sec4_regs_spill_row suite ] in
  "Section 4, register sensitivity: 32/64/128 registers give similar\n\
   results (paper's claim).  The +spill row is our extension: splitting\n\
   over-long live ranges through the shared memory instead of raising\n\
   the II.\n"
  ^ Table.render ~header:[ "config"; "baseline"; "replication"; "gain" ] rows

(* ------------------------------------------------------------------ *)
(* Section 5                                                           *)
(* ------------------------------------------------------------------ *)

type sec51_row = {
  s51_config : string;
  ipc_normal : float;
  ipc_length : float;
}

let sec51_data suite =
  List.map
    (fun config ->
      {
        s51_config = Machine.Config.name config;
        ipc_normal = hmean_ipc suite Experiment.Replication config;
        ipc_length = hmean_ipc suite Experiment.Replication_length config;
      })
    [ get "4c1b2l64r"; get "4c2b2l64r" ]

let sec51 suite =
  let rows =
    List.map
      (fun r ->
        [
          r.s51_config;
          Table.f2 r.ipc_normal;
          Table.f2 r.ipc_length;
          Printf.sprintf "%+.2f%%"
            (100. *. (r.ipc_length /. r.ipc_normal -. 1.));
        ])
      (sec51_data suite)
  in
  "Section 5.1: replicating to reduce the schedule length (post-pass on\n\
   critical-path communications).  Paper: minor benefit overall.\n"
  ^ Table.render
      ~header:[ "config"; "replication"; "+length pass"; "delta" ]
      rows

type sec52_row = {
  s52_config : string;
  ipc_subgraph : float;
  ipc_macro : float;
  added_subgraph : float;
      (** average instructions replicated per removed communication *)
  added_macro : float;
  removed_subgraph : int;  (** communications removed across the suite *)
  removed_macro : int;
}

let replication_cost suite mode config =
  let runs = Suite.runs suite mode config in
  let added = ref 0 and removed = ref 0 in
  List.iter
    (fun (r : Experiment.loop_run) ->
      match r.repl_stats with
      | None -> ()
      | Some st ->
          added := !added + st.Replication.Replicate.added_instances;
          removed := !removed + st.Replication.Replicate.comms_removed)
    runs;
  let per_comm =
    if !removed = 0 then 0. else float_of_int !added /. float_of_int !removed
  in
  (per_comm, !removed)

let sec52_data suite =
  List.map
    (fun config ->
      let sub_cost, sub_removed =
        replication_cost suite Experiment.Replication config
      in
      let mac_cost, mac_removed =
        replication_cost suite Experiment.Macro_replication config
      in
      {
        s52_config = Machine.Config.name config;
        ipc_subgraph = hmean_ipc suite Experiment.Replication config;
        ipc_macro = hmean_ipc suite Experiment.Macro_replication config;
        added_subgraph = sub_cost;
        added_macro = mac_cost;
        removed_subgraph = sub_removed;
        removed_macro = mac_removed;
      })
    [ get "4c1b2l64r"; get "4c2b4l64r" ]

let sec52 suite =
  let rows =
    List.map
      (fun r ->
        [
          r.s52_config;
          Table.f2 r.ipc_subgraph;
          Table.f2 r.ipc_macro;
          Printf.sprintf "%.2f (%d coms)" r.added_subgraph r.removed_subgraph;
          Printf.sprintf "%.2f (%d coms)" r.added_macro r.removed_macro;
        ])
      (sec52_data suite)
  in
  "Section 5.2: replicating macro-nodes (full ancestor cones) instead of\n\
   minimal subgraphs.  Paper: 'the results were not good' - macro-nodes\n\
   replicate more instructions per removed communication and often do\n\
   not fit at all, so fewer communications get removed and IPC drops.\n"
  ^ Table.render
      ~header:
        [ "config"; "IPC subgraph"; "IPC macro"; "instrs/comm subgraph";
          "instrs/comm macro" ]
      rows

let all suite =
  [
    ("table1", table1);
    ("fig1", fun () -> fig1 suite);
    ("fig7", fun () -> fig7 suite);
    ("fig8", fun () -> fig8 suite);
    ("fig9", fun () -> fig9 suite);
    ("fig10", fun () -> fig10 suite);
    ("fig12", fun () -> fig12 suite);
    ("sec4_stats", fun () -> sec4 suite);
    ("sec4_regs", fun () -> sec4_regs suite);
    ("sec51_length", fun () -> sec51 suite);
    ("sec52_macro", fun () -> sec52 suite);
  ]
