(* Command-line driver for the reproduction.

   repro figures   - regenerate the paper's tables and figures
   repro ablate    - design-choice ablations of the replication heuristic
   repro extensions - unrolling, acyclic blocks and cross-path copies
   repro loop      - schedule one workload loop and show everything
   repro suite     - fault-isolated per-benchmark IPC table (resumable via --cache)
   repro faults    - run the fault-injection catalog against the checker
   repro workload  - describe the synthetic 678-loop suite
   repro example   - walk through the paper's Figure-3 worked example
   repro gap       - heuristic-vs-exact optimality gap report (SAT oracle)
   repro serve     - long-running scheduling service on a Unix socket
   repro client    - talk to a running serve daemon

   Scheduling failures exit with the stable per-class codes of
   Sched.Sched_error.exit_code and print one structured line on stderr:
   "repro: error class=<tag> <message>". *)

open Cmdliner

let report_error ?ctx (e : Sched.Sched_error.t) =
  Printf.eprintf "repro: error class=%s%s %s\n%!"
    (Sched.Sched_error.class_name e)
    (match ctx with None -> "" | Some c -> " " ^ c)
    (Sched.Sched_error.to_string e)

let die ?ctx (e : Sched.Sched_error.t) =
  report_error ?ctx e;
  exit (Sched.Sched_error.exit_code e)

let config_conv =
  let parse s =
    match Machine.Config.of_name s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "bad configuration name: %s" s))
  in
  Arg.conv (parse, Machine.Config.pp)

(* The paper's reference machine: the default configuration, and the
   one ablations and extensions run on. *)
let reference_config = Option.get (Machine.Config.of_name "4c1b2l64r")

let config_arg =
  let doc =
    "Machine configuration, paper-style (e.g. 4c2b4l64r, unified64r)."
  in
  Arg.(
    value & opt config_conv reference_config
    & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let quick_arg =
  let doc = "Use only two loops per benchmark (fast smoke run)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let loops_of ~quick =
  if quick then
    List.concat_map
      (fun b -> take 2 (Workload.Generator.generate b))
      Workload.Benchmark.all
  else Workload.Generator.suite ()

(* ------------------------------------------------------------------ *)
(* figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures quick only csv =
  let suite = Metrics.Suite.create ~loops:(loops_of ~quick) () in
  let wanted id = match only with [] -> true | ids -> List.mem id ids in
  List.iter
    (fun (id, render) ->
      if wanted id then Printf.printf "=== %s ===\n%s\n%!" id (render ()))
    (Metrics.Figures.all suite);
  match csv with
  | Some dir ->
      let files = Metrics.Csv.write_all suite ~dir in
      Printf.printf "CSV written: %s\n" (String.concat ", " files)
  | None -> ()

let figures_cmd =
  let only =
    Arg.(
      value & opt (list string) []
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Comma-separated experiment ids (fig7, sec4_stats, ...).")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also export the figure data as CSV files into $(docv).")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const figures $ quick_arg $ only $ csv)

(* ------------------------------------------------------------------ *)
(* ablate / extensions: beyond the paper's figures                     *)
(* ------------------------------------------------------------------ *)

(* One loop under a fresh instance of an optional transform: a hook's
   stats ref must not be shared between domains. *)
let run_variant ~transform config l =
  let transform, stats_ref =
    match transform with
    | Some make ->
        let t, r = make () in
        (Some t, r)
    | None -> (None, ref None)
  in
  Metrics.Experiment.run_with ~transform ~stats_ref config l

(* The figures' aggregate: the harmonic mean of per-benchmark IPC over
   the benchmarks that kept a run. *)
let hmean_ipc runs =
  Metrics.Experiment.hmean
    (List.filter_map
       (fun (_, rs) ->
         if rs = [] then None else Some (Metrics.Experiment.ipc rs))
       (Metrics.Experiment.group_by_benchmark runs))

let ablate quick =
  let jobs = Metrics.Pool.default_jobs () in
  let loops = loops_of ~quick in
  let config = reference_config in
  let row (name, make) =
    let runs =
      Metrics.Pool.map ~jobs
        (fun l ->
          match run_variant ~transform:(Some make) config l with
          | Ok r -> r
          | Error e -> failwith (Sched.Sched_error.to_string e))
        loops
    in
    let added =
      List.fold_left
        (fun acc (r : Metrics.Experiment.loop_run) ->
          match r.repl_stats with
          | Some st -> acc + st.Replication.Replicate.added_instances
          | None -> acc)
        0 runs
    in
    [ name; Metrics.Table.f2 (hmean_ipc runs); string_of_int added ]
  in
  let variants =
    Replication.
      [
        ("paper (lowest weight)", fun () -> Replicate.transform ());
        ( "first feasible",
          fun () -> Replicate.transform ~heuristic:Replicate.First_come () );
        ( "fewest added instrs",
          fun () -> Replicate.transform ~heuristic:Replicate.Fewest_added ()
        );
        ( "no sharing discount",
          fun () -> Replicate.transform ~share_discount:false () );
        ( "no removable credit",
          fun () -> Replicate.transform ~removable_credit:false () );
        ("macro-node cones (s5.2)", fun () -> Macro.transform ());
      ]
  in
  Printf.printf "Ablations of the replication heuristic on %s:\n\n"
    (Machine.Config.name config);
  print_string
    (Metrics.Table.render
       ~header:[ "variant"; "HMEAN IPC"; "static replicas" ]
       (List.map row variants))

let ablate_cmd =
  Cmd.v
    (Cmd.info "ablate"
       ~doc:
         "HMEAN IPC and static replicas of the replication heuristic's \
          design-choice variants on 4c1b2l64r.")
    Term.(const ablate $ quick_arg)

(* A loop body as straight-line code: its intra-iteration edges only. *)
let acyclic_of g =
  let b = Ddg.Graph.Builder.create ~name:(Ddg.Graph.name g ^ ".a") () in
  List.iter
    (fun v ->
      ignore
        (Ddg.Graph.Builder.add b ~label:(Ddg.Graph.label g v)
           (Ddg.Graph.op g v)))
    (Ddg.Graph.nodes g);
  List.iter
    (fun (e : Ddg.Graph.edge) ->
      if e.distance = 0 then
        match e.kind with
        | Ddg.Graph.Reg ->
            Ddg.Graph.Builder.depend b ~latency:e.latency ~src:e.src
              ~dst:e.dst
        | Ddg.Graph.Mem -> Ddg.Graph.Builder.mem_depend b ~src:e.src ~dst:e.dst)
    (Ddg.Graph.edges g);
  Ddg.Graph.Builder.build b

let extensions quick =
  let jobs = Metrics.Pool.default_jobs () in
  (* unrolling multiplies the body; keep the evaluation affordable *)
  let loops = if quick then loops_of ~quick else take 200 (loops_of ~quick) in
  let config = reference_config in
  let replicate = Some (fun () -> Replication.Replicate.transform ()) in
  let unroll l = Workload.Unroll.unrolled_loop l ~factor:2 in
  let evaluate name prepare transform =
    let per_loop =
      Metrics.Pool.filter_map ~jobs
        (fun l ->
          match run_variant ~transform config (prepare l) with
          | Ok r ->
              let sched = r.Metrics.Experiment.outcome.Sched.Driver.schedule in
              Some
                ( r,
                  Ddg.Graph.n_nodes
                    sched.Sched.Schedule.route.Sched.Route.graph )
          | Error _ -> None)
        loops
    in
    let kernel_ops = List.fold_left (fun acc (_, n) -> acc + n) 0 per_loop in
    [
      name;
      Metrics.Table.f2 (hmean_ipc (List.rev_map fst per_loop));
      string_of_int kernel_ops;
    ]
  in
  Printf.printf
    "Extension: unrolling vs replication on %s (%d loops).\n\
     Unrolling also removes communications but multiplies the kernel,\n\
     which is what the paper's DSP context cannot afford (Section 6).\n\n"
    (Machine.Config.name config) (List.length loops);
  let rows =
    [
      evaluate "baseline" Fun.id None;
      evaluate "replication" Fun.id replicate;
      evaluate "unroll x2" unroll None;
      evaluate "unroll x2 + replication" unroll replicate;
    ]
  in
  print_string
    (Metrics.Table.render
       ~header:[ "scheme"; "HMEAN IPC"; "static kernel ops" ]
       rows);
  (* acyclic blocks (Section 6: "can also be applied") *)
  let blocks = take 120 loops in
  let spans =
    Metrics.Pool.filter_map ~jobs
      (fun (l : Workload.Generator.loop) ->
        match Replication.Acyclic.improve config (acyclic_of l.graph) with
        | Error _ -> None
        | Ok r ->
            Some
              ( r.Replication.Acyclic.baseline.Sched.Listsched.makespan,
                r.Replication.Acyclic.improved.Sched.Listsched.makespan ))
      blocks
  in
  let base_span = List.fold_left (fun acc (b, _) -> acc + b) 0 spans in
  let repl_span = List.fold_left (fun acc (_, i) -> acc + i) 0 spans in
  let improved = List.length (List.filter (fun (b, i) -> i < b) spans) in
  Printf.printf
    "\nAcyclic blocks (loop bodies as straight-line code, %d blocks):\n\
    \  total makespan %d -> %d cycles (%.1f%% shorter), %d blocks improved\n"
    (List.length blocks) base_span repl_span
    (100.
    *. (1. -. (float_of_int repl_span /. float_of_int (max 1 base_span))))
    improved;
  (* cross-path copies: transfers steal an int issue slot *)
  let sample = take 120 loops in
  let hmean_of cfg transform =
    hmean_ipc
      (Metrics.Pool.filter_map ~jobs
         (fun l -> Result.to_option (run_variant ~transform cfg l))
         sample)
  in
  Printf.printf
    "\nCross-path copies (a transfer also issues through an integer unit\n\
     of the producer cluster, as on machines without dedicated bus ports):\n\n";
  print_string
    (Metrics.Table.render
       ~header:[ "machine"; "baseline"; "replication"; "gain" ]
       (List.map
          (fun cfg ->
            let b = hmean_of cfg None and r = hmean_of cfg replicate in
            [
              Machine.Config.name cfg;
              Metrics.Table.f2 b;
              Metrics.Table.f2 r;
              Printf.sprintf "%+.0f%%" (100. *. ((r /. b) -. 1.));
            ])
          [ config; Machine.Config.with_copy_int_slot config ]))

let extensions_cmd =
  Cmd.v
    (Cmd.info "extensions"
       ~doc:
         "Beyond the paper on 4c1b2l64r: loop unrolling against \
          replication, replication on acyclic blocks, and transfers that \
          also take an integer issue slot.")
    Term.(const extensions $ quick_arg)

(* ------------------------------------------------------------------ *)
(* loop                                                                *)
(* ------------------------------------------------------------------ *)

let show_loop config benchmark index replicate dot kernel asm trace =
  let loops = Workload.Generator.generate (Workload.Benchmark.find benchmark) in
  let loop =
    try List.nth loops index
    with _ -> failwith (Printf.sprintf "%s has %d loops" benchmark (List.length loops))
  in
  let g = loop.Workload.Generator.graph in
  Format.printf "%a@." Ddg.Graph.pp_stats g;
  Printf.printf "trip=%d visits=%d mii=%d (res %d, rec %d)\n" loop.trip
    loop.visits (Ddg.Mii.mii config g)
    (Ddg.Mii.res_mii config g) (Ddg.Mii.rec_mii g);
  (match dot with
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Ddg.Graph.to_dot g));
      Printf.printf "DOT written to %s\n" path
  | None -> ());
  let mode =
    if replicate then Metrics.Experiment.Replication
    else Metrics.Experiment.Baseline
  in
  match Metrics.Experiment.run_loop mode config loop with
  | Error e -> die ~ctx:("loop=" ^ loop.Workload.Generator.id) e
  | Ok r ->
      let o = r.Metrics.Experiment.outcome in
      Printf.printf "scheduled: ii=%d (mii %d), length=%d, SC=%d, comms=%d\n"
        o.Sched.Driver.ii o.Sched.Driver.mii
        (Sched.Schedule.length o.Sched.Driver.schedule)
        (Sched.Schedule.stage_count o.Sched.Driver.schedule)
        o.Sched.Driver.n_comms;
      (match r.Metrics.Experiment.repl_stats with
      | Some st ->
          Printf.printf
            "replication: %d of %d comms removed, %d replicas added, %d originals removed\n"
            st.Replication.Replicate.comms_removed
            st.Replication.Replicate.comms_before
            st.Replication.Replicate.added_instances
            st.Replication.Replicate.removed_instances
      | None -> ());
      Printf.printf "one visit: %d cycles for %d useful ops -> IPC %.2f\n"
        r.counts.Sim.Lockstep.cycles r.counts.Sim.Lockstep.useful_ops
        (float_of_int r.counts.Sim.Lockstep.useful_ops
        /. float_of_int r.counts.Sim.Lockstep.cycles);
      if kernel then
        Format.printf "%a@." Sched.Schedule.pp o.Sched.Driver.schedule;
      if asm then begin
        let alloc =
          match Sched.Regalloc.allocate o.Sched.Driver.schedule with
          | Ok a ->
              Printf.printf
                "registers used per cluster: %s\n"
                (String.concat ", "
                   (Array.to_list
                      (Array.map string_of_int
                         a.Sched.Regalloc.used_per_cluster)));
              Some a
          | Error e ->
              Printf.printf "; register allocation failed: %s\n"
                (Sched.Sched_error.to_string e);
              None
        in
        print_string (Sim.Codegen.kernel ?alloc o.Sched.Driver.schedule)
      end;
      (match trace with
      | Some n when n > 0 ->
          print_string (Sim.Codegen.pipeline o.Sched.Driver.schedule ~iterations:n)
      | _ -> ())

let loop_cmd =
  let benchmark =
    Arg.(
      value & opt string "tomcatv"
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let index =
    Arg.(value & opt int 0 & info [ "i"; "index" ] ~docv:"N" ~doc:"Loop index.")
  in
  let replicate =
    Arg.(value & flag & info [ "r"; "replicate" ] ~doc:"Enable replication.")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the DDG in GraphViz format.")
  in
  let kernel =
    Arg.(value & flag & info [ "kernel" ] ~doc:"Print the kernel schedule.")
  in
  let asm =
    Arg.(
      value & flag
      & info [ "asm" ]
          ~doc:"Emit the kernel as assembly with allocated registers.")
  in
  let trace =
    Arg.(
      value & opt (some int) None
      & info [ "trace" ] ~docv:"N"
          ~doc:"Print the flat pipelined trace for N iterations.")
  in
  Cmd.v
    (Cmd.info "loop" ~doc:"Schedule one workload loop and show the result.")
    Term.(
      const show_loop $ config_arg $ benchmark $ index $ replicate $ dot
      $ kernel $ asm $ trace)

(* ------------------------------------------------------------------ *)
(* suite                                                               *)
(* ------------------------------------------------------------------ *)

(* The pool silently clamps to the recommended domain count; surface the
   clamp here so a `--jobs 8` on a small machine isn't mistaken for an
   eight-way run. *)
let effective_jobs jobs =
  let e = Metrics.Pool.clamp_jobs jobs in
  Metrics.Log.clamp_warning ~requested:jobs ~effective:e;
  e

let suite_run config quick jobs strict retry poison budget cache =
  let jobs = effective_jobs jobs in
  let loops = loops_of ~quick in
  (* The store reports to stderr only: stdout stays byte-identical
     between cold, warm and resumed runs (the CI cache-equality gate
     compares them). *)
  let store = Option.map (fun dir -> Metrics.Store.create ~dir ()) cache in
  (* Retries are spaced by a jittered exponential backoff so a resource
     blip on a loaded machine is not retried straight back into. *)
  let backoff = if retry then Some (Metrics.Backoff.make ()) else None in
  let outcome =
    Metrics.Robust.run ~jobs ~retry ?backoff ~poison ?budget_s:budget ?store
      ~modes:[ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ]
      config loops
  in
  (match store with
  | None -> ()
  | Some s ->
      Metrics.Store.save s;
      let st = Metrics.Store.stats s in
      Metrics.Log.cache_stats ~hits:st.Metrics.Store.hits
        ~misses:st.Metrics.Store.misses ~bytes_read:st.Metrics.Store.bytes_read
        ~bytes_written:st.Metrics.Store.bytes_written
        ~tables_saved:st.Metrics.Store.tables_saved
        ~tables_skipped:st.Metrics.Store.tables_skipped);
  print_string
    (Metrics.Robust.ipc_table config outcome.Metrics.Robust.o_runs);
  let quarantined = outcome.Metrics.Robust.o_quarantined in
  List.iter
    (fun (tag, (q : Metrics.Experiment.quarantined)) ->
      report_error
        ~ctx:
          (Printf.sprintf "mode=%s loop=%s%s" tag
             q.Metrics.Experiment.q_loop.Workload.Generator.id
             (if q.Metrics.Experiment.q_retried then " retried=yes" else ""))
        q.Metrics.Experiment.q_error)
    quarantined;
  if quarantined <> [] then begin
    Printf.printf "quarantined %d loop run%s — partial results above\n"
      (List.length quarantined)
      (if List.length quarantined = 1 then "" else "s");
    if strict then
      exit
        (Sched.Sched_error.exit_code
           (snd (List.hd quarantined)).Metrics.Experiment.q_error)
  end

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (default 1).")

let suite_cmd =
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit nonzero if any loop was quarantined.")
  in
  let retry =
    Arg.(
      value & flag
      & info [ "retry" ]
          ~doc:"Re-run quarantined loops once, sequentially.")
  in
  let poison =
    Arg.(
      value & opt (list string) []
      & info [ "poison" ] ~docv:"IDS"
          ~doc:
            "Inject a fault into the named loops (testing the quarantine \
             machinery).")
  in
  let budget =
    Arg.(
      value & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per loop escalation; expiry quarantines the \
             loop as a timeout.")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed schedule store: answer loops already solved \
             under this scheduler version from $(docv) (byte-identical to a \
             cold run) and persist everything this run computes.  A rerun \
             over the same $(docv) resumes: only quarantined and new loops \
             are computed.  Hit/miss statistics go to stderr.")
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Fault-isolated per-benchmark IPC for one configuration, \
          resumable through the schedule store (--cache).")
    Term.(
      const suite_run $ config_arg $ quick_arg $ jobs_arg $ strict $ retry
      $ poison $ budget $ cache)

(* ------------------------------------------------------------------ *)
(* faults: the fault-injection catalog against the checker             *)
(* ------------------------------------------------------------------ *)

let faults_run config quick =
  let loops = loops_of ~quick in
  let best = Hashtbl.create 16 in
  let rank = function
    | Sim.Faults.Detected _ -> 3
    | Sim.Faults.Misnamed _ -> 2
    | Sim.Faults.Missed -> 1
    | Sim.Faults.Not_applicable -> 0
  in
  let note inj loop sched verdict =
    match Hashtbl.find_opt best inj.Sim.Faults.name with
    | Some (old, _, _, _) when rank old >= rank verdict -> ()
    | _ -> Hashtbl.replace best inj.Sim.Faults.name (verdict, inj, loop, sched)
  in
  let all_detected () =
    List.for_all
      (fun inj ->
        match Hashtbl.find_opt best inj.Sim.Faults.name with
        | Some (Sim.Faults.Detected _, _, _, _) -> true
        | _ -> false)
      Sim.Faults.catalog
  in
  (* Walk loops in both modes until every corruption has been caught red-
     handed at least once; replication adds the copy-rich schedules the
     bus faults need. *)
  let modes = [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ] in
  (try
     List.iter
       (fun (l : Workload.Generator.loop) ->
         List.iter
           (fun mode ->
             match Metrics.Experiment.run_loop mode config l with
             | Error _ -> ()
             | Ok r ->
                 let sched = r.Metrics.Experiment.outcome.Sched.Driver.schedule in
                 List.iter
                   (fun inj -> note inj l.id sched (Sim.Faults.verify sched inj))
                   Sim.Faults.catalog)
           modes;
         if all_detected () then raise Exit)
       loops
   with Exit -> ());
  let ok = ref true in
  (* calibrate the independent oracle on the same corruption: it must
     reject the schedule and name the rule the catalog declares *)
  let oracle_verdict inj sched =
    match inj.Sim.Faults.apply sched with
    | None -> "oracle: n/a"
    | Some bad -> (
        match Check.Validate.run bad with
        | Ok () ->
            ok := false;
            "ORACLE MISSED"
        | Error issues ->
            let rules = Check.Validate.distinct_rules issues in
            if List.mem inj.Sim.Faults.v_rule rules then
              Printf.sprintf "oracle: %s" inj.Sim.Faults.v_rule
            else begin
              ok := false;
              Printf.sprintf "ORACLE MISNAMED [%s] wanted %s"
                (String.concat "; " rules) inj.Sim.Faults.v_rule
            end)
  in
  List.iter
    (fun inj ->
      let name = inj.Sim.Faults.name in
      match Hashtbl.find_opt best name with
      | Some (Sim.Faults.Detected es, _, loop, sched) ->
          let named =
            List.find (fun e -> Metrics.Experiment.contains e ~sub:inj.Sim.Faults.expect) es
          in
          Printf.printf "detected   %-18s on %-12s -> %s | %s\n" name loop
            named (oracle_verdict inj sched)
      | Some (Sim.Faults.Misnamed es, _, loop, _) ->
          ok := false;
          Printf.printf "MISNAMED   %-18s on %-12s -> %s\n" name loop
            (String.concat "; " es)
      | Some (Sim.Faults.Missed, _, loop, _) ->
          ok := false;
          Printf.printf "MISSED     %-18s on %-12s -> checker said Ok\n" name
            loop
      | Some (Sim.Faults.Not_applicable, _, _, _) | None ->
          ok := false;
          Printf.printf "UNTESTED   %-18s -> no schedule had the ingredient\n"
            name)
    Sim.Faults.catalog;
  if !ok then
    Printf.printf
      "all %d corruptions detected and named by both checker and oracle\n"
      (List.length Sim.Faults.catalog)
  else begin
    Printf.eprintf "repro: error class=checker-violation fault catalog not fully detected\n";
    exit 20
  end

let faults_cmd =
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Corrupt checker-clean schedules with the fault-injection catalog \
          and verify the legality checker names every corruption.")
    Term.(const faults_run $ config_arg $ quick_arg)

(* ------------------------------------------------------------------ *)
(* validate: the independent oracle over real suite schedules          *)
(* ------------------------------------------------------------------ *)

let validate_run config quick jobs =
  let jobs = effective_jobs jobs in
  let loops = loops_of ~quick in
  let issues = ref 0 in
  let checked = ref 0 in
  List.iter
    (fun mode ->
      let runs = Metrics.Experiment.run_suite ~jobs mode config loops in
      List.iter
        (fun (r : Metrics.Experiment.loop_run) ->
          incr checked;
          match
            Check.Validate.run ~original:r.loop.Workload.Generator.graph
              r.outcome.Sched.Driver.schedule
          with
          | Ok () -> ()
          | Error is ->
              incr issues;
              List.iter
                (Printf.printf "INVALID %s %s: %s\n"
                   (Metrics.Experiment.mode_tag mode)
                   r.loop.Workload.Generator.id)
                (Check.Validate.to_strings is))
        runs)
    [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ];
  if !issues = 0 then
    Printf.printf "validated %d schedules on %s: all clean\n" !checked
      (Machine.Config.name config)
  else begin
    Printf.eprintf
      "repro: error class=checker-violation %d invalid schedules\n" !issues;
    exit 20
  end

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Schedule the workload suite (baseline and replication) and \
          re-verify every emitted schedule with the independent oracle in \
          Check.Validate — no code shared with the scheduler or the \
          simulator's checker.")
    Term.(const validate_run $ config_arg $ quick_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* fuzz: random DDGs through the whole pipeline                        *)
(* ------------------------------------------------------------------ *)

let fuzz_run iters seed corpus replay =
  match replay with
  | Some path ->
      let results = Check.Fuzz.replay ~corpus:path in
      let still = ref 0 in
      List.iter
        (fun ((f : Check.Fuzz.failure), verdict) ->
          match verdict with
          | None ->
              Printf.printf
                "stale         seed=%d nodes=%d (recorded gen=%S, current \
                 %S) — not replayed\n"
                f.f_seed f.f_nodes f.f_gen Workload.Generator.version
          | Some (Check.Fuzz.Failed f') ->
              incr still;
              Printf.printf "still-failing seed=%d nodes=%d rule=%s %s\n"
                f'.f_seed f'.f_nodes f'.f_rule f'.f_detail
          | Some Check.Fuzz.Scheduled ->
              Printf.printf "fixed         seed=%d nodes=%d (was rule=%s)\n"
                f.f_seed f.f_nodes f.f_rule
          | Some (Check.Fuzz.Gave_up cls) ->
              Printf.printf "gave-up       seed=%d nodes=%d class=%s (was rule=%s)\n"
                f.f_seed f.f_nodes cls f.f_rule)
        results;
      if results = [] then Printf.printf "corpus %s is empty\n" path;
      if !still > 0 then begin
        Printf.eprintf
          "repro: error class=checker-violation %d corpus failures still \
           reproduce\n"
          !still;
        exit 20
      end
  | None ->
      let s = Check.Fuzz.run ?corpus ~iters ~seed () in
      List.iter print_endline (Check.Fuzz.summary_lines s);
      if s.Check.Fuzz.failures <> [] then begin
        Printf.eprintf "repro: error class=checker-violation %d fuzz failures\n"
          (List.length s.Check.Fuzz.failures);
        exit 20
      end

let fuzz_cmd =
  let iters =
    Arg.(
      value & opt int 200
      & info [ "n"; "iters" ] ~docv:"N" ~doc:"Random cases to run.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Master seed.")
  in
  let corpus =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:
            "Write shrunk failures to $(docv) as JSON lines (atomically; an \
             empty file means a clean run).")
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Instead of fuzzing, re-run every failure recorded in $(docv) \
             at its recorded (seed, nodes) and report which still \
             reproduce.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the scheduling pipeline with seeded random loop bodies: \
          generate, schedule, validate with the independent oracle, \
          execute in lockstep; shrink and record failures.")
    Term.(const fuzz_run $ iters $ seed $ corpus $ replay)

(* ------------------------------------------------------------------ *)
(* benchmark: per-loop detail                                          *)
(* ------------------------------------------------------------------ *)

let benchmark_report config name =
  let loops = Workload.Generator.generate (Workload.Benchmark.find name) in
  let rows =
    List.map
      (fun (l : Workload.Generator.loop) ->
        let cell mode =
          match Metrics.Experiment.run_loop mode config l with
          | Ok r ->
              (r.Metrics.Experiment.outcome.Sched.Driver.ii,
               r.Metrics.Experiment.outcome.Sched.Driver.n_comms)
          | Error _ -> (-1, -1)
        in
        let bii, bcomms = cell Metrics.Experiment.Baseline in
        let rii, rcomms = cell Metrics.Experiment.Replication in
        [
          l.id;
          string_of_int (Ddg.Graph.n_nodes l.graph);
          string_of_int l.trip;
          string_of_int (Ddg.Mii.mii config l.graph);
          string_of_int bii;
          string_of_int rii;
          string_of_int bcomms;
          string_of_int rcomms;
        ])
      loops
  in
  Printf.printf "%s on %s (%d loops)\n\n" name (Machine.Config.name config)
    (List.length loops);
  print_string
    (Metrics.Table.render
       ~header:
         [ "loop"; "nodes"; "trip"; "MII"; "II base"; "II repl";
           "coms base"; "coms repl" ]
       rows)

let benchmark_cmd =
  let bench_name =
    Arg.(
      value & opt string "tomcatv"
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  Cmd.v
    (Cmd.info "benchmark"
       ~doc:"Per-loop schedule details for one benchmark.")
    Term.(const benchmark_report $ config_arg $ bench_name)

(* ------------------------------------------------------------------ *)
(* workload                                                            *)
(* ------------------------------------------------------------------ *)

let workload_describe () =
  let rows =
    List.map
      (fun (b : Workload.Benchmark.t) ->
        let loops = Workload.Generator.generate b in
        let sizes =
          List.map (fun l -> Ddg.Graph.n_nodes l.Workload.Generator.graph) loops
        in
        let avg =
          float_of_int (List.fold_left ( + ) 0 sizes)
          /. float_of_int (List.length sizes)
        in
        let avg_trip =
          float_of_int
            (List.fold_left (fun a l -> a + l.Workload.Generator.trip) 0 loops)
          /. float_of_int (List.length loops)
        in
        [
          b.name;
          string_of_int b.n_loops;
          Printf.sprintf "%.1f" avg;
          string_of_int (List.fold_left min max_int sizes);
          string_of_int (List.fold_left max 0 sizes);
          Printf.sprintf "%.0f" avg_trip;
        ])
      Workload.Benchmark.all
  in
  print_string
    (Metrics.Table.render
       ~header:[ "benchmark"; "loops"; "avg nodes"; "min"; "max"; "avg trip" ]
       rows);
  Printf.printf "total loops: %d\n" Workload.Benchmark.total_loops

let workload_cmd =
  Cmd.v
    (Cmd.info "workload" ~doc:"Describe the synthetic loop suite.")
    Term.(const workload_describe $ const ())

(* ------------------------------------------------------------------ *)
(* serve / client: the long-running scheduling service                 *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/repro-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_run socket cache queue_bound budget budget_attempts retries workers
    poison =
  let limits =
    {
      Metrics.Serve.queue_bound;
      budget_s = budget;
      budget_attempts;
      retries;
      workers = max 0 workers;
    }
  in
  exit (Metrics.Serve.serve_unix ~limits ~poison ?store_dir:cache ~socket ())

let serve_cmd =
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Persist the schedule store under $(docv): entries survive \
             restarts and are served warm.  A corrupt table file is \
             quarantined at startup, not fatal.")
  in
  let queue_bound =
    Arg.(
      value & opt int 64
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Admitted-but-unanswered requests beyond which new requests \
             are shed with an overloaded reply.")
  in
  let budget =
    Arg.(
      value & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Default wall-clock budget per request (a request's own \
             budget_s field overrides); expiry degrades the reply to a \
             timeout class.")
  in
  let budget_attempts =
    Arg.(
      value & opt (some int) None
      & info [ "budget-attempts" ] ~docv:"N"
          ~doc:"Default escalation-attempt budget per request.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-attempts (with exponential backoff) before a faulting \
             request is convicted and its key poisoned.")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains computing cache misses off the select loop \
             (health, stats and cache hits keep answering while misses \
             compute; identical in-flight requests coalesce onto one \
             computation).  0 computes every miss inline — the \
             byte-identical reference.")
  in
  let poison =
    Arg.(
      value & opt (list string) []
      & info [ "poison" ] ~docv:"IDS"
          ~doc:
            "Inject a fault into schedule requests for the named loop ids \
             (testing the per-request quarantine).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling service: a Unix-socket daemon answering \
          schedule requests from the content-addressed store, with \
          batching, request coalescing, worker-domain miss compute, \
          backpressure, per-request budgets, retry with backoff, poison \
          quarantine and clean SIGTERM drain.")
    Term.(
      const serve_run $ socket_arg $ cache $ queue_bound $ budget
      $ budget_attempts $ retries $ workers $ poison)

let client_requests config mode benchmark indices repeat budget_s
    budget_attempts evict =
  let loops = Workload.Generator.generate (Workload.Benchmark.find benchmark) in
  let picked =
    List.map
      (fun i ->
        try List.nth loops i
        with _ ->
          failwith
            (Printf.sprintf "%s has %d loops" benchmark (List.length loops)))
      indices
  in
  List.concat_map
    (fun (l : Workload.Generator.loop) ->
      List.init repeat (fun k ->
          let id = Printf.sprintf "%s#%d" l.Workload.Generator.id k in
          if evict then Metrics.Serve.evict_request ~id ~mode ~config l
          else
            Metrics.Serve.request ~id ?budget_s ?budget_attempts ~mode ~config
              l))
    picked

let client_direct config mode benchmark indices repeat budget_s budget_attempts
    =
  let loops = Workload.Generator.generate (Workload.Benchmark.find benchmark) in
  List.concat_map
    (fun i ->
      let l = List.nth loops i in
      List.init repeat (fun k ->
          let id = Printf.sprintf "%s#%d" l.Workload.Generator.id k in
          Metrics.Serve.direct_reply ~id ?budget_s ?budget_attempts ~mode
            ~config l))
    indices

let client_exchange ~socket ~timeout_s lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "repro: error class=server cannot connect to %s: %s\n%!"
        socket (Unix.error_message e);
      exit 22
  | () -> ());
  List.iter
    (fun line ->
      let b = Bytes.of_string (line ^ "\n") in
      let n = Bytes.length b in
      let rec send off =
        if off < n then
          match Unix.write fd b off (n - off) with
          | w -> send (off + w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
      in
      send 0)
    lines;
  (* Read one reply per request; tolerate an early EOF (the daemon may
     be draining) and a deadline (so CI cannot hang on a stuck daemon). *)
  let deadline = Unix.gettimeofday () +. timeout_s in
  let expected = List.length lines in
  let got = ref 0 in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  while (not !eof) && !got < expected do
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then begin
      Printf.eprintf "repro: error class=server reply timeout after %gs\n%!"
        timeout_s;
      exit 22
    end;
    match Unix.select [ fd ] [] [] remaining with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | 0 -> eof := true
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            let s = Buffer.contents buf in
            (match String.rindex_opt s '\n' with
            | None -> ()
            | Some last ->
                Buffer.clear buf;
                Buffer.add_string buf
                  (String.sub s (last + 1) (String.length s - last - 1));
                List.iter
                  (fun line ->
                    if not (String.equal line "") then begin
                      incr got;
                      print_endline line
                    end)
                  (String.split_on_char '\n' (String.sub s 0 last))))
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !eof && !got < expected then
    Printf.eprintf "repro: daemon closed after %d of %d replies (draining?)\n%!"
      !got expected

(* Open-loop burst load generator: send every request line up front,
   timestamp reply-line arrivals, and print one JSON summary instead of
   the replies.  A batch reply line accounts for one latency sample per
   element (the batch completes as a unit). *)
let client_bench ~socket ~timeout_s lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "repro: error class=server cannot connect to %s: %s\n%!"
        socket (Unix.error_message e);
      exit 22
  | () -> ());
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun line ->
      let b = Bytes.of_string (line ^ "\n") in
      let n = Bytes.length b in
      let rec send off =
        if off < n then
          match Unix.write fd b off (n - off) with
          | w -> send (off + w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
      in
      send 0)
    lines;
  let deadline = t0 +. timeout_s in
  let expected = List.length lines in
  let got = ref 0 in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  let samples = ref [] in
  (* latency ms, one per request *)
  let last = ref t0 in
  while (not !eof) && !got < expected do
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then begin
      Printf.eprintf "repro: error class=server reply timeout after %gs\n%!"
        timeout_s;
      exit 22
    end;
    match Unix.select [ fd ] [] [] remaining with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | 0 -> eof := true
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            let s = Buffer.contents buf in
            (match String.rindex_opt s '\n' with
            | None -> ()
            | Some last_nl ->
                Buffer.clear buf;
                Buffer.add_string buf
                  (String.sub s (last_nl + 1)
                     (String.length s - last_nl - 1));
                List.iter
                  (fun line ->
                    if not (String.equal line "") then begin
                      incr got;
                      let t = Unix.gettimeofday () in
                      last := t;
                      let count =
                        match Metrics.Json.parse line with
                        | Metrics.Json.List els -> List.length els
                        | _ -> 1
                        | exception Metrics.Json.Bad _ -> 1
                      in
                      let ms = (t -. t0) *. 1000. in
                      for _ = 1 to count do
                        samples := ms :: !samples
                      done
                    end)
                  (String.split_on_char '\n' (String.sub s 0 last_nl))))
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !eof && !got < expected then
    Printf.eprintf "repro: daemon closed after %d of %d replies (draining?)\n%!"
      !got expected;
  let lat = Array.of_list !samples in
  Array.sort compare lat;
  let percentile p =
    let n = Array.length lat in
    if n = 0 then 0.
    else lat.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. p) +. 0.5)))
  in
  let requests = Array.length lat in
  let seconds = !last -. t0 in
  let r3 f = Float.round (f *. 1000.) /. 1000. in
  print_endline
    (Metrics.Json.print
       (Metrics.Json.Obj
          [
            ("requests", Metrics.Json.Num (float_of_int requests));
            ("reply_lines", Metrics.Json.Num (float_of_int !got));
            ("seconds", Metrics.Json.Num (r3 seconds));
            ( "rps",
              Metrics.Json.Num
                (if seconds > 0. then r3 (float_of_int requests /. seconds)
                 else 0.) );
            ("p50_ms", Metrics.Json.Num (r3 (percentile 0.5)));
            ("p95_ms", Metrics.Json.Num (r3 (percentile 0.95)));
          ]))

let mode_conv =
  let parse s =
    match Metrics.Experiment.mode_of_tag s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "bad mode tag: %s" s))
  in
  Arg.conv
    (parse, fun ppf m -> Format.pp_print_string ppf (Metrics.Experiment.mode_tag m))

let client_run socket local config mode benchmark indices repeat budget_s
    budget_attempts evict health stats raw batch bench timeout_s =
  if local then
    List.iter print_endline
      (client_direct config mode benchmark indices repeat budget_s
         budget_attempts)
  else begin
    let built =
      match raw with
      | Some line -> [ line ]
      | None ->
          if indices = [] then []
          else
            client_requests config mode benchmark indices repeat budget_s
              budget_attempts evict
    in
    (* --batch folds the schedule/evict requests into one atomically
       admitted array line; health/stats stay their own lines *)
    let built =
      if batch && built <> [] then [ Metrics.Serve.batch_request built ]
      else built
    in
    let lines =
      built
      @ (if health then [ Metrics.Serve.health_request () ] else [])
      @ if stats then [ Metrics.Serve.stats_request () ] else []
    in
    if lines = [] then
      Printf.eprintf "repro: client has nothing to send (see --loops)\n%!"
    else if bench then client_bench ~socket ~timeout_s lines
    else client_exchange ~socket ~timeout_s lines
  end

let client_cmd =
  let local =
    Arg.(
      value & flag
      & info [ "local" ]
          ~doc:
            "Do not contact a daemon: print the reference replies computed \
             inline ($(b,Serve.direct_reply)) — the equality gate diffs \
             these against daemon replies.")
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Metrics.Experiment.Baseline
      & info [ "mode" ] ~docv:"TAG"
          ~doc:"Mode tag: base, repl, repl0, macro, repllen.")
  in
  let benchmark =
    Arg.(
      value & opt string "tomcatv"
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let indices =
    Arg.(
      value
      & opt (list int) [ 0 ]
      & info [ "loops" ] ~docv:"INDICES"
          ~doc:"Comma-separated loop indices within the benchmark.")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Send each request N times (load/overload testing).")
  in
  let budget_s =
    Arg.(
      value & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Per-request wall budget field.")
  in
  let budget_attempts =
    Arg.(
      value & opt (some int) None
      & info [ "budget-attempts" ] ~docv:"N"
          ~doc:
            "Per-request escalation-attempt budget field (0 degrades every \
             miss to a timeout reply).")
  in
  let evict =
    Arg.(
      value & flag
      & info [ "evict" ]
          ~doc:"Send evict requests for the selected loops instead.")
  in
  let health =
    Arg.(value & flag & info [ "health" ] ~doc:"Append a health request.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Append a stats request.")
  in
  let raw =
    Arg.(
      value & opt (some string) None
      & info [ "raw" ] ~docv:"LINE"
          ~doc:
            "Send $(docv) verbatim instead of building schedule requests \
             (testing the bad-request path).")
  in
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Send the built schedule/evict requests as one atomically \
             admitted JSON array line; the reply is one array line whose \
             elements are byte-identical to standalone replies.")
  in
  let bench =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Open-loop burst mode: send every request up front, then print \
             one JSON summary (requests, seconds, rps, p50_ms, p95_ms) \
             instead of the reply lines.")
  in
  let timeout_s =
    Arg.(
      value & opt float 60.
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Give up waiting for replies after $(docv) seconds.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running repro serve daemon: send schedule, evict, \
          health and stats requests and print one reply line each; or \
          print the inline reference replies with --local.")
    Term.(
      const client_run $ socket_arg $ local $ config_arg $ mode $ benchmark
      $ indices $ repeat $ budget_s $ budget_attempts $ evict $ health $ stats
      $ raw $ batch $ bench $ timeout_s)

(* ------------------------------------------------------------------ *)
(* example: the paper's Figure 3 walkthrough                           *)
(* ------------------------------------------------------------------ *)

let example () =
  let g = Ddg.Examples.figure3 () in
  let config =
    Machine.Config.custom ~clusters:4 ~buses:1 ~bus_latency:1 ~registers:64
      ~fus_per_cluster:(4, 0, 0)
  in
  let assign = Ddg.Examples.figure3_partition g in
  let state = Replication.State.create config g ~assign in
  Printf.printf
    "Figure 3 of the paper: 14 instructions partitioned over 4 clusters\n\
     (4 universal units each), one 1-cycle bus, II = 2.\n\n";
  Printf.printf "communications: %s  (bus fits 2 -> extra_coms = %d)\n\n"
    (String.concat ", "
       (List.map (Ddg.Graph.label g) (Replication.State.comms state)))
    (Replication.State.extra_coms state ~ii:2);
  let subs =
    List.map (Replication.Subgraph.compute state)
      (Replication.State.comms state)
  in
  List.iter
    (fun (s : Replication.Subgraph.t) ->
      let w = Replication.Weight.subgraph_weight state ~ii:2 ~all:subs s in
      Printf.printf "  S_%s = {%s}  removable={%s}  weight = %.4f (%g/16)\n"
        (Ddg.Graph.label g s.com)
        (String.concat ","
           (List.map (Ddg.Graph.label g) s.Replication.Subgraph.members))
        (String.concat ","
           (List.map (Ddg.Graph.label g) s.Replication.Subgraph.removable))
        w (w *. 16.))
    subs;
  Printf.printf
    "\nThe paper's own arithmetic: weight(S_D) = 49/16, weight(S_J) = 40/16;\n\
     S_E is the cheapest and is replicated into clusters 2 and 4, stranding\n\
     the original E.  After the update (Section 3.4):\n\n";
  (match Replication.Replicate.select state ~ii:2 ~extra:1 with
  | Some [ s ] ->
      Printf.printf "  replicated S_%s (%d instances added)\n"
        (Ddg.Graph.label g s.Replication.Subgraph.com)
        (Replication.Subgraph.n_added_instances s)
  | _ -> ());
  let s_d =
    Replication.Subgraph.compute state (Ddg.Graph.find_label g "D")
  in
  let s_j =
    Replication.Subgraph.compute state (Ddg.Graph.find_label g "J")
  in
  Printf.printf "  S_D = {%s}  now targets clusters {%s}, removable={%s}\n"
    (String.concat "," (List.map (Ddg.Graph.label g) s_d.members))
    (String.concat ","
       (List.map string_of_int
          (Replication.State.Iset.elements
             (Replication.State.needing state (Ddg.Graph.find_label g "D")))))
    (String.concat "," (List.map (Ddg.Graph.label g) s_d.removable));
  Printf.printf "  S_J = {%s}\n"
    (String.concat "," (List.map (Ddg.Graph.label g) s_j.members));
  Printf.printf "\nScheduling the transformed loop:\n";
  let tr, _ = Replication.Replicate.transform () in
  match Sched.Driver.schedule_loop ~transform:tr config g with
  | Ok o ->
      Printf.printf "  II = %d (MII %d), length = %d, comms = %d\n"
        o.Sched.Driver.ii o.Sched.Driver.mii
        (Sched.Schedule.length o.Sched.Driver.schedule)
        o.Sched.Driver.n_comms
  | Error e -> Printf.printf "  failed: %s\n" (Sched.Sched_error.to_string e)

let example_cmd =
  Cmd.v
    (Cmd.info "example" ~doc:"Walk through the paper's worked example.")
    Term.(const example $ const ())

(* ------------------------------------------------------------------ *)
(* gap: heuristic vs exact optimality oracle                           *)
(* ------------------------------------------------------------------ *)

type gap_row = {
  gr_id : string;
  gr_nodes : int;
  gr_mii : int;
  gr_heur : int;
  gr_exact : int;
  gr_proven : bool;
  gr_note : string;
  gr_seconds : float;
}

let best_heuristic config g =
  let base = Sched.Driver.schedule_loop config g in
  let tf, _ = Replication.Replicate.transform () in
  let repl = Sched.Driver.schedule_loop ~transform:tf config g in
  match (base, repl) with
  | Ok a, Ok b -> Some (if b.Sched.Driver.ii <= a.Sched.Driver.ii then b else a)
  | Ok a, Error _ -> Some a
  | Error _, Ok b -> Some b
  | Error _, Error _ -> None

(* Cross-check a schedule the gap report is about to stand on: the
   independent validator plus the lockstep simulator.  Any complaint is
   a scheduler or oracle bug, never data. *)
let crosscheck ~original s =
  let issues =
    match Check.Validate.run ~original s with
    | Ok () -> []
    | Error issues -> Check.Validate.to_strings issues
  in
  let iterations = 4 in
  match Sim.Lockstep.run ~useful_per_iteration:(Ddg.Graph.n_nodes original)
          s ~iterations
  with
  | Error msg -> issues @ [ "lockstep: " ^ msg ]
  | Ok counts ->
      if counts.Sim.Lockstep.cycles
         <> Sched.Schedule.execution_cycles s ~iterations
      then issues @ [ "lockstep: cycle count disagrees with Texec" ]
      else issues

let gap_row config budget_s (loop : Workload.Generator.loop) =
  let g = loop.Workload.Generator.graph in
  let t0 = Unix.gettimeofday () in
  match best_heuristic config g with
  | None -> Ok None (* the heuristic cannot schedule this loop: data *)
  | Some o ->
      let heur_ii = o.Sched.Driver.ii in
      let horizon =
        Sched.Schedule.length o.Sched.Driver.schedule + heur_ii + 2
      in
      let budget = Sched.Budget.make ~wall_seconds:budget_s () in
      let row exact proven note schedule =
        match crosscheck ~original:g schedule with
        | [] ->
            Ok
              (Some
                 {
                   gr_id = loop.Workload.Generator.id;
                   gr_nodes = Ddg.Graph.n_nodes g;
                   gr_mii = Ddg.Mii.mii config g;
                   gr_heur = heur_ii;
                   gr_exact = exact;
                   gr_proven = proven;
                   gr_note = note;
                   gr_seconds = Unix.gettimeofday () -. t0;
                 })
        | issues ->
            Error (loop.Workload.Generator.id, note, issues)
      in
      (match
         Sched.Exact.minimum_ii ~horizon ~budget ~max_ii:heur_ii
           ~max_cegar:40 config g
       with
      | Ok f ->
          row f.Sched.Exact.f_ii f.Sched.Exact.f_proven "exact"
            f.Sched.Exact.f_schedule
      | Error e ->
          (* the oracle reached no verdict at or below the heuristic II
             within the budget: the heuristic schedule itself is the
             best witness in hand, and nothing is proven *)
          row heur_ii false
            (Sched.Sched_error.class_name e)
            o.Sched.Driver.schedule)

let gap config max_nodes budget_s quick fuzz limit jobs =
  let loops =
    match fuzz with
    | Some n ->
        List.init (max 0 n) (fun i ->
            Workload.Generator.random ~seed:i
              ~nodes:(4 + (i mod (max 1 (max_nodes - 3))))
              ())
    | None ->
        List.filter
          (fun l -> Ddg.Graph.n_nodes l.Workload.Generator.graph <= max_nodes)
          (loops_of ~quick)
  in
  let loops =
    match limit with Some n -> take n loops | None -> loops
  in
  let results = Metrics.Pool.map ?jobs (gap_row config budget_s) loops in
  let rows = ref [] and violations = ref [] and skipped = ref 0 in
  List.iter
    (function
      | Ok None -> incr skipped
      | Ok (Some r) -> rows := r :: !rows
      | Error v -> violations := v :: !violations)
    results;
  let rows = List.rev !rows in
  List.iter
    (fun r ->
      print_endline
        (Metrics.Json.print
           (Metrics.Json.Obj
              [
                ("id", Metrics.Json.Str r.gr_id);
                ("nodes", Metrics.Json.Num (float_of_int r.gr_nodes));
                ("mii", Metrics.Json.Num (float_of_int r.gr_mii));
                ("heuristic_ii", Metrics.Json.Num (float_of_int r.gr_heur));
                ("exact_ii", Metrics.Json.Num (float_of_int r.gr_exact));
                ( "gap",
                  Metrics.Json.Num (float_of_int (r.gr_heur - r.gr_exact)) );
                ("proven", Metrics.Json.Bool r.gr_proven);
                ("note", Metrics.Json.Str r.gr_note);
                ("seconds", Metrics.Json.Num r.gr_seconds);
              ])))
    rows;
  let n = List.length rows in
  let proven = List.length (List.filter (fun r -> r.gr_proven) rows) in
  let positive =
    List.length (List.filter (fun r -> r.gr_heur > r.gr_exact) rows)
  in
  let total_gap =
    List.fold_left (fun a r -> a + r.gr_heur - r.gr_exact) 0 rows
  in
  Printf.printf
    "gap: %d loops (%d skipped), %d proven optimal, %d with positive gap, \
     total gap %d\n"
    n !skipped proven positive total_gap;
  match !violations with
  | [] -> ()
  | vs ->
      List.iter
        (fun (id, note, issues) ->
          Printf.eprintf "repro: gap witness rejected loop=%s (%s): %s\n" id
            note (String.concat "; " issues))
        vs;
      die
        (Sched.Sched_error.Checker_violation
           (List.concat_map (fun (_, _, i) -> i) vs))

let gap_cmd =
  let max_nodes =
    Arg.(
      value & opt int 30
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Only run loops with at most $(docv) nodes (default 30).")
  in
  let budget =
    Arg.(
      value & opt float 10.0
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per loop for the exact walk; on \
             exhaustion the loop falls back to the heuristic witness \
             with proven=false (default 10).")
  in
  let fuzz =
    Arg.(
      value & opt (some int) None
      & info [ "fuzz" ] ~docv:"N"
          ~doc:
            "Use $(docv) fuzz-generator loops (seeds 0..N-1) instead \
             of the evaluation suite — the suite's smallest loops have \
             16 nodes, so this is the only way to exercise tiny \
             bodies.")
  in
  let limit =
    Arg.(
      value & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Stop after the first $(docv) loops.")
  in
  let jobs =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"J" ~doc:"Worker domains (default: cores).")
  in
  Cmd.v
    (Cmd.info "gap"
       ~doc:
         "Compare the heuristic scheduler against the exact SAT oracle: \
          per-loop heuristic II, exact II, gap and proven bit as JSON \
          lines.  Every witness is revalidated by Check.Validate and \
          the lockstep simulator; a rejection exits with the \
          checker-violation code.")
    Term.(
      const gap $ config_arg $ max_nodes $ budget $ quick_arg $ fuzz $ limit
      $ jobs)

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Instruction Replication for Clustered \
         Microarchitectures' (MICRO-36, 2003)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd; ablate_cmd; extensions_cmd; loop_cmd; suite_cmd;
            faults_cmd; validate_cmd;
            fuzz_cmd; gap_cmd; benchmark_cmd; workload_cmd; example_cmd;
            serve_cmd; client_cmd;
          ]))
