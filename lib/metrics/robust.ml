(* Checkpointed, fault-isolated suite runs.

   [run] drives {!Experiment.run_suite_isolated} over a list of modes,
   optionally answering already-finished loops from a resume manifest,
   and produces a fresh {!Checkpoint.t} of everything it knows.  Entries
   are emitted in canonical order — modes in the order given, loops in
   input order — regardless of how the reused/fresh split interleaved,
   so a resumed run's tables are byte-identical to a fresh run's (the
   IPC folds see the same terms in the same order). *)

type outcome = {
  o_checkpoint : Checkpoint.t;
  o_quarantined : (string * Experiment.quarantined) list;
      (* mode tag, live quarantine record (backtrace included) *)
  o_computed : int;  (* loops actually attempted this run *)
  o_reused : int;  (* entries answered from the resume manifest *)
  o_cache_hits : int;  (* entries answered from the schedule store *)
}

let run ?(jobs = 1) ?(retry = false) ?retries ?backoff ?(poison = [])
    ?budget_s ?resume ?store ~modes config
    (loops : Workload.Generator.loop list) =
  (* A wall-clock budget makes results time-dependent: such runs neither
     consult nor feed the store, so cached entries stay budget-free. *)
  let store = if budget_s <> None then None else store in
  let computed = ref 0 and reused = ref 0 and cache_hits = ref 0 in
  let quarantined = ref [] in
  let entries =
    List.concat_map
      (fun mode ->
        let tag = Experiment.mode_tag mode in
        let statuses = Hashtbl.create (List.length loops) in
        (* Done and Skipped entries are settled facts; a Quarantined
           entry records a fault worth retrying, so it is recomputed. *)
        List.iter
          (fun (l : Workload.Generator.loop) ->
            match resume with
            | None -> ()
            | Some cp -> (
                match Checkpoint.find cp ~mode:tag ~loop:l.id with
                | Some ((Checkpoint.Done _ | Checkpoint.Skipped _) as st) ->
                    incr reused;
                    Hashtbl.replace statuses l.id st
                | Some (Checkpoint.Quarantined _) | None -> ()))
          loops;
        (* The schedule store answers like a resume manifest, except it
           carries the full run (so the summary is recomputed, not
           trusted).  Poisoned loops bypass it: the injected fault must
           actually fire. *)
        (match store with
        | None -> ()
        | Some s ->
            List.iter
              (fun (l : Workload.Generator.loop) ->
                if
                  (not (Hashtbl.mem statuses l.id))
                  && not (List.mem l.id poison)
                then
                  match Store.lookup s ~mode ~config l with
                  | Store.Miss -> ()
                  | Store.Hit r ->
                      incr cache_hits;
                      Hashtbl.replace statuses l.id
                        (Checkpoint.Done (Checkpoint.summary_of_run r))
                  | Store.Hit_give_up (cls, _) ->
                      incr cache_hits;
                      Hashtbl.replace statuses l.id (Checkpoint.Skipped cls))
              loops);
        let fresh =
          List.filter
            (fun (l : Workload.Generator.loop) ->
              not (Hashtbl.mem statuses l.id))
            loops
        in
        computed := !computed + List.length fresh;
        if fresh <> [] then begin
          let iso =
            Experiment.run_suite_isolated ~jobs ~retry ?retries ?backoff
              ~poison ?budget_s mode config fresh
          in
          List.iter
            (fun (r : Experiment.loop_run) ->
              (match store with
              | Some s
                when not (List.mem r.Experiment.loop.Workload.Generator.id poison)
                ->
                  Store.record s ~mode ~config r.Experiment.loop (Ok r)
              | _ -> ());
              Hashtbl.replace statuses r.loop.Workload.Generator.id
                (Checkpoint.Done (Checkpoint.summary_of_run r)))
            iso.Experiment.iso_runs;
          List.iter
            (fun ((l : Workload.Generator.loop), e) ->
              (match store with
              | Some s when not (List.mem l.id poison) ->
                  Store.record s ~mode ~config l (Error e)
              | _ -> ());
              Hashtbl.replace statuses l.id
                (Checkpoint.Skipped (Sched.Sched_error.class_name e)))
            iso.Experiment.iso_skipped;
          List.iter
            (fun (q : Experiment.quarantined) ->
              quarantined := (tag, q) :: !quarantined;
              Hashtbl.replace statuses q.Experiment.q_loop.Workload.Generator.id
                (Checkpoint.Quarantined
                   ( Sched.Sched_error.class_name q.Experiment.q_error,
                     Sched.Sched_error.to_string q.Experiment.q_error )))
            iso.Experiment.iso_quarantined
        end;
        List.filter_map
          (fun (l : Workload.Generator.loop) ->
            Option.map
              (fun st ->
                { Checkpoint.e_mode = tag; e_loop = l.id; e_status = st })
              (Hashtbl.find_opt statuses l.id))
          loops)
      modes
  in
  {
    o_checkpoint = Checkpoint.create ~config:(Machine.Config.name config) entries;
    o_quarantined = List.rev !quarantined;
    o_computed = !computed;
    o_reused = !reused;
    o_cache_hits = !cache_hits;
  }

let summaries outcome ~mode =
  List.filter_map
    (fun (e : Checkpoint.entry) ->
      if String.equal e.Checkpoint.e_mode mode then
        match e.Checkpoint.e_status with
        | Checkpoint.Done s -> Some s
        | _ -> None
      else None)
    outcome.o_checkpoint.Checkpoint.entries

(* Exactly the table [repro suite] has always printed, rendered from
   summaries so fresh and resumed runs produce the same bytes. *)
let ipc_table config ~base ~repl =
  let rows =
    List.map
      (fun (b : Workload.Benchmark.t) ->
        let pick ss =
          List.filter
            (fun (s : Checkpoint.summary) ->
              String.equal s.Checkpoint.s_benchmark b.name)
            ss
        in
        let bi = Checkpoint.ipc (pick base) and ri = Checkpoint.ipc (pick repl) in
        [
          b.name;
          Table.f2 bi;
          Table.f2 ri;
          Printf.sprintf "%+.0f%%" (100. *. ((ri /. bi) -. 1.));
        ])
      Workload.Benchmark.all
  in
  Printf.sprintf "%s\n%s"
    (Machine.Config.name config)
    (Table.render ~header:[ "benchmark"; "baseline"; "replication"; "gain" ] rows)
