type mode =
  | Baseline
  | Replication
  | Replication_latency0
  | Macro_replication
  | Replication_length

let mode_tag = function
  | Baseline -> "base"
  | Replication -> "repl"
  | Replication_latency0 -> "repl0"
  | Macro_replication -> "macro"
  | Replication_length -> "repllen"

let mode_of_tag = function
  | "base" -> Some Baseline
  | "repl" -> Some Replication
  | "repl0" -> Some Replication_latency0
  | "macro" -> Some Macro_replication
  | "repllen" -> Some Replication_length
  | _ -> None

type loop_run = {
  loop : Workload.Generator.loop;
  mode : mode;
  outcome : Sched.Driver.outcome;
  repl_stats : Replication.Replicate.stats option;
  counts : Sim.Lockstep.counts;
}

let unrouted (r : loop_run) =
  let o = r.outcome in
  match o.schedule.routing with
  | Sched.Schedule.Unrouted _ -> r
  | Sched.Schedule.Routed _ ->
      let schedule =
        Sched.Schedule.unrouted
          ~latency0:(r.mode = Replication_latency0)
          ~graph:o.graph ~assign:o.assign o.schedule
      in
      { r with outcome = { o with schedule } }

(* Substring search shared by the fault-injection assertions and the
   test/tooling layers (the stdlib has no [String.contains_s]). *)
let contains s ~sub =
  let ls = String.length sub and n = String.length s in
  if ls = 0 then true
  else begin
    let c0 = sub.[0] in
    let rec from i =
      if i + ls > n then false
      else
        match String.index_from_opt s i c0 with
        | None -> false
        | Some j ->
            (j + ls <= n && String.sub s j ls = sub) || from (j + 1)
    in
    from 0
  end

(* Schedule -> check -> simulate; everything after the driver returns.
   Failures are classified: a checker rejection is a
   [Checker_violation], a simulator rejection an [Internal] — both bug
   classes, never data. *)
let finish_run ~mode ~latency0 ~stats (loop : Workload.Generator.loop)
    (outcome : Sched.Driver.outcome) =
  let schedule = Sched.Schedule.routed outcome.schedule in
  match Sim.Checker.check ~registers:(not latency0) schedule with
  | Error es -> Error (Sched.Sched_error.Checker_violation es)
  | Ok () -> (
      let useful = Ddg.Graph.n_nodes loop.graph in
      match
        Sim.Lockstep.run ~useful_per_iteration:useful schedule
          ~iterations:loop.trip
      with
      | Error e -> Error (Sched.Sched_error.Internal ("simulation: " ^ e))
      | Ok counts -> Ok { loop; mode; outcome; repl_stats = stats; counts })

let run_with ?(mode = Baseline) ?(latency0 = false) ?(length_pass = false)
    ?spiller ?budget ?hier ~transform ~stats_ref config
    (loop : Workload.Generator.loop) =
  let scheduled =
    Sched.Driver.schedule_loop ?transform ~latency0 ?spiller ?budget ?hier
      config loop.graph
  in
  let scheduled =
    match scheduled with
    | Ok o when length_pass ->
        let o', _ = Replication.Length_opt.improve config o in
        Ok o'
    | _ -> scheduled
  in
  match scheduled with
  | Error e -> Error e
  | Ok outcome -> finish_run ~mode ~latency0 ~stats:!stats_ref loop outcome

let transform_of_mode = function
  | Baseline -> (None, ref None)
  | Replication | Replication_latency0 | Replication_length ->
      let t, r = Replication.Replicate.transform () in
      (Some t, r)
  | Macro_replication ->
      let t, r = Replication.Macro.transform () in
      (Some t, r)

let run_loop ?budget ?hier mode config loop =
  let transform, stats_ref = transform_of_mode mode in
  run_with ~mode ~latency0:(mode = Replication_latency0)
    ~length_pass:(mode = Replication_length) ?budget ?hier ~transform
    ~stats_ref config loop

exception Illegal of string

(* A schedule that exists but breaks the machine rules is a bug and must
   explode; a loop the scheduler gives up on (e.g. at 8 registers per
   cluster) is data and is skipped, as the paper skips loops that cannot
   be modulo scheduled. *)
let error_is_bug = Sched.Sched_error.is_bug

let illegal ~id e = Illegal (id ^ ": " ^ Sched.Sched_error.to_string e)

let keep_or_raise ~id = function
  | Ok r -> Some r
  | Error e -> if error_is_bug e then raise (illegal ~id e) else None

let run_suite ?(jobs = 1) mode config loops =
  Pool.filter_map ~jobs
    (fun (l : Workload.Generator.loop) ->
      keep_or_raise ~id:l.id (run_loop mode config l))
    loops

(* ------------------------------------------------------------------ *)
(* Fault-isolated suite runs: quarantine instead of crash               *)
(* ------------------------------------------------------------------ *)

type quarantined = {
  q_loop : Workload.Generator.loop;
  q_error : Sched.Sched_error.t;
  q_backtrace : string;  (* "" unless an exception was captured *)
  q_retried : bool;
}

type isolated = {
  iso_runs : loop_run list;
  iso_quarantined : quarantined list;
  iso_skipped : (Workload.Generator.loop * Sched.Sched_error.t) list;
}

exception Injected_fault of string

let () =
  Printexc.register_printer (function
    | Injected_fault id -> Some ("injected fault on loop " ^ id)
    | _ -> None)

let run_suite_isolated ?(jobs = 1) ?(retry = false) ?(retries = 1) ?backoff
    ?(poison = []) ?budget_s mode config loops =
  let retries = max 1 retries in
  (* Immediate retries by default (the historical behaviour); callers
     that retry against transient faults install a {!Backoff} so the
     k-th retry of a loop waits the capped exponential delay first. *)
  let backoff = match backoff with Some b -> b | None -> Backoff.none () in
  let budget () =
    Option.map (fun s -> Sched.Budget.make ~wall_seconds:s ()) budget_s
  in
  let attempt (l : Workload.Generator.loop) =
    if List.mem l.id poison then raise (Injected_fault l.id);
    run_loop ?budget:(budget ()) mode config l
  in
  let classify ~retried l outcome =
    match outcome with
    | Ok (Ok r) -> `Run r
    | Ok (Error e) ->
        if Sched.Sched_error.is_give_up e then `Skip (l, e)
        else
          `Quarantine
            { q_loop = l; q_error = e; q_backtrace = ""; q_retried = retried }
    | Error (f : Pool.fault) ->
        `Quarantine
          {
            q_loop = l;
            q_error = Sched.Sched_error.Internal (Printexc.to_string f.Pool.exn);
            q_backtrace = f.Pool.backtrace;
            q_retried = retried;
          }
  in
  let first_pass =
    List.map2
      (fun l r -> classify ~retried:false l r)
      loops
      (Pool.map_result ~jobs attempt loops)
  in
  (* Optionally re-run quarantined loops sequentially, [retries] times,
     pausing per the backoff before each attempt: a failure that does
     not reproduce in isolation (e.g. a resource blip on a loaded
     machine) is promoted back to a result; a deterministic one stays
     quarantined, now marked as retried. *)
  let entries =
    if not retry then first_pass
    else
      List.map
        (function
          | `Quarantine q ->
              let l = q.q_loop in
              let run_once k =
                Backoff.pause backoff ~attempt:k;
                let outcome =
                  match attempt l with
                  | r -> Ok r
                  | exception e ->
                      Error
                        {
                          Pool.index = 0;
                          exn = e;
                          backtrace = Printexc.get_backtrace ();
                        }
                in
                classify ~retried:true l outcome
              in
              let rec go k =
                match run_once k with
                | `Quarantine _ when k + 1 < retries -> go (k + 1)
                | final -> final
              in
              go 0
          | other -> other)
        first_pass
  in
  {
    iso_runs =
      List.filter_map (function `Run r -> Some r | _ -> None) entries;
    iso_quarantined =
      List.filter_map (function `Quarantine q -> Some q | _ -> None) entries;
    iso_skipped =
      List.filter_map (function `Skip s -> Some s | _ -> None) entries;
  }

(* ------------------------------------------------------------------ *)
(* Register-family sweeps over an escalation trace                      *)
(* ------------------------------------------------------------------ *)

type traced = {
  tr_loop : Workload.Generator.loop;
  tr_mode : mode;
  tr_trace : Sched.Driver.Trace.t;
  tr_transform : Sched.Driver.transform option;
  tr_stats0 : Replication.Replicate.stats option;
      (* stats of the recording run's final attempt: also the stats of
         any replay answered purely from the trace *)
  tr_stats_ref : Replication.Replicate.stats option ref;
}

let traced_loop tr = tr.tr_loop

let record_trace ?hier mode config loop =
  (match mode with
  | Baseline | Replication | Macro_replication -> ()
  | Replication_latency0 | Replication_length ->
      invalid_arg "Experiment.record_trace: mode is not register-sweepable");
  let transform, stats_ref = transform_of_mode mode in
  let trace =
    Sched.Driver.Trace.record ?transform ?hier config
      loop.Workload.Generator.graph
  in
  {
    tr_loop = loop;
    tr_mode = mode;
    tr_trace = trace;
    tr_transform = transform;
    tr_stats0 = !stats_ref;
    tr_stats_ref = stats_ref;
  }

let replay_traced ?spiller ?hier tr config =
  let result, basis =
    match tr.tr_transform with
    | None -> Sched.Driver.Trace.replay ?spiller ?hier tr.tr_trace config
    | Some t ->
        Sched.Driver.Trace.replay ~transform:t ?spiller ?hier tr.tr_trace
          config
  in
  (* A walk that finished on a rebuilt placement or live last invoked
     the member's transform at its finishing attempt, so the hook's
     last-run stats describe this member; one that finished on the
     recorded success reuses the recording's final attempt, whose stats
     were captured at record time (a failed rebuild may have run the
     hook since). *)
  let stats =
    match basis with
    | `Pure -> tr.tr_stats0
    | `Hook | `Live -> !(tr.tr_stats_ref)
  in
  match result with
  | Error e -> Error e
  | Ok outcome ->
      finish_run ~mode:tr.tr_mode ~latency0:false ~stats tr.tr_loop outcome

(* [Replication_length] is [Replication] plus a post-hoc, II-preserving
   schedule-length pass on the successful outcome ({!run_with}'s
   [length_pass]); its run over a loop is therefore derivable from an
   existing replication run of the same configuration without touching
   the scheduler at all. *)
let lengthen_run (r : loop_run) =
  if r.mode <> Replication then
    invalid_arg "Experiment.lengthen_run: not a replication run";
  let o = r.outcome in
  let config = o.Sched.Driver.schedule.Sched.Schedule.config in
  let o', _ =
    Replication.Length_opt.improve config
      { o with schedule = Sched.Schedule.routed o.schedule }
  in
  finish_run ~mode:Replication_length ~latency0:false ~stats:r.repl_stats
    r.loop o'

let ipc runs =
  let num, den =
    List.fold_left
      (fun (n, d) r ->
        let v = float_of_int r.loop.Workload.Generator.visits in
        ( n +. (v *. float_of_int r.counts.Sim.Lockstep.useful_ops),
          d +. (v *. float_of_int r.counts.Sim.Lockstep.cycles) ))
      (0., 0.) runs
  in
  if den = 0. then 0. else num /. den

let hmean = function
  | [] -> 0.
  | xs ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left (fun acc x -> acc +. (1. /. x)) 0. xs in
      n /. s

let ii_of r = r.outcome.Sched.Driver.ii

let weighted_mean_ii runs =
  let num, den =
    List.fold_left
      (fun (n, d) r ->
        let w =
          float_of_int (Workload.Generator.dynamic_weight r.loop)
        in
        (n +. (w *. float_of_int (ii_of r)), d +. w))
      (0., 0.) runs
  in
  if den = 0. then 0. else num /. den

let group_by_benchmark runs =
  List.map
    (fun (b : Workload.Benchmark.t) ->
      ( b.name,
        List.filter
          (fun r -> String.equal r.loop.Workload.Generator.benchmark b.name)
          runs ))
    Workload.Benchmark.all
