(* Resumable, fault-isolated suite runs.

   [run] looks every (mode, loop) up in the schedule store, drives
   {!Experiment.run_suite_isolated} over the misses, and records the
   fresh results back.  Runs are emitted in canonical order — modes in
   the order given, loops in input order — however the hit/miss split
   interleaved, so a resumed run's tables are byte-identical to a fresh
   run's (the IPC folds see the same terms in the same order). *)

type outcome = {
  o_runs : Experiment.loop_run list;
  o_quarantined : (string * Experiment.quarantined) list;
      (* mode tag, live quarantine record (backtrace included) *)
  o_computed : int;  (* loops actually attempted this run *)
  o_cache_hits : int;  (* entries answered from the schedule store *)
}

let run ?(jobs = 1) ?(retry = false) ?retries ?backoff ?(poison = [])
    ?budget_s ?store ~modes config (loops : Workload.Generator.loop list) =
  let computed = ref 0 and cache_hits = ref 0 in
  let quarantined = ref [] in
  let runs =
    List.concat_map
      (fun mode ->
        (* Poisoned loops bypass the store: the injected fault must
           actually fire. *)
        let answers =
          List.map
            (fun (l : Workload.Generator.loop) ->
              match store with
              | Some s when not (List.mem l.id poison) ->
                  (l, Store.lookup s ~mode ~config l)
              | _ -> (l, Store.Miss))
            loops
        in
        let misses =
          List.filter_map
            (function l, Store.Miss -> Some l | _, _ -> None)
            answers
        in
        cache_hits := !cache_hits + List.length loops - List.length misses;
        computed := !computed + List.length misses;
        let fresh = Hashtbl.create (List.length misses) in
        if misses <> [] then begin
          let iso =
            Experiment.run_suite_isolated ~jobs ~retry ?retries ?backoff
              ~poison ?budget_s mode config misses
          in
          List.iter
            (fun (r : Experiment.loop_run) ->
              Option.iter
                (fun s -> Store.record s ~mode ~config r.loop (Ok r))
                store;
              Hashtbl.replace fresh r.loop.Workload.Generator.id r)
            iso.Experiment.iso_runs;
          List.iter
            (fun (l, e) ->
              Option.iter (fun s -> Store.record s ~mode ~config l (Error e)) store)
            iso.Experiment.iso_skipped;
          let tag = Experiment.mode_tag mode in
          quarantined :=
            !quarantined
            @ List.map (fun q -> (tag, q)) iso.Experiment.iso_quarantined
        end;
        List.filter_map
          (fun ((l : Workload.Generator.loop), answer) ->
            match answer with
            | Store.Hit r -> Some r
            | Store.Hit_give_up _ -> None
            | Store.Miss -> Hashtbl.find_opt fresh l.id)
          answers)
      modes
  in
  {
    o_runs = runs;
    o_quarantined = !quarantined;
    o_computed = !computed;
    o_cache_hits = !cache_hits;
  }

let ipc_table config runs =
  let rows =
    List.map
      (fun (b : Workload.Benchmark.t) ->
        let ipc mode =
          match
            List.filter
              (fun (r : Experiment.loop_run) ->
                r.mode = mode
                && String.equal r.loop.Workload.Generator.benchmark b.name)
              runs
          with
          | [] -> None
          | mine -> Some (Experiment.ipc mine)
        in
        let bi = ipc Experiment.Baseline and ri = ipc Experiment.Replication in
        let cell = Option.fold ~none:"n/a" ~some:Table.f2 in
        [
          b.name;
          cell bi;
          cell ri;
          (match (bi, ri) with
          | Some bi, Some ri -> Printf.sprintf "%+.0f%%" (100. *. ((ri /. bi) -. 1.))
          | _ -> "n/a");
        ])
      Workload.Benchmark.all
  in
  Printf.sprintf "%s\n%s"
    (Machine.Config.name config)
    (Table.render ~header:[ "benchmark"; "baseline"; "replication"; "gain" ] rows)
