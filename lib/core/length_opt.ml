open Ddg
module Iset = State.Iset

type stats = { attempts : int; applied : int; cycles_saved : int }

(* Copy->consumer edges with zero slack in the routed schedule: the
   communications whose bus latency sits on the critical path. *)
let critical_comm_edges (outcome : Sched.Driver.outcome) =
  let sched = outcome.Sched.Driver.schedule in
  let route = Sched.Schedule.route sched in
  let rg = route.Sched.Route.graph in
  let ii = sched.Sched.Schedule.ii in
  let analysis = Analysis.compute rg ~ii in
  List.filter_map
    (fun e ->
      if
        e.Graph.kind = Graph.Reg
        && Sched.Route.is_copy route e.Graph.src
        && Analysis.slack analysis e = 0
      then
        let producer = route.Sched.Route.copy_of.(e.Graph.src) in
        let cluster = route.Sched.Route.assign.(e.Graph.dst) in
        Some (producer, cluster)
      else None)
    (Array.to_list (Graph.edges rg))
  |> List.sort_uniq Stdlib.compare

let try_one config (outcome : Sched.Driver.outcome) (producer, cluster) =
  let g = outcome.Sched.Driver.graph in
  let assign = outcome.Sched.Driver.assign in
  let ii = outcome.Sched.Driver.ii in
  let state = State.create config g ~assign in
  if not (State.has_comm state producer) then None
  else if Iset.mem cluster (State.placement state producer) then None
  else begin
    let s =
      Subgraph.compute_for state ~clusters:(Iset.singleton cluster) producer
    in
    if not (Subgraph.feasible state ~ii s) then None
    else begin
      List.iter
        (fun (v, cs) ->
          Iset.iter
            (fun c -> State.add_instance state ~node:v ~cluster:c)
            cs)
        s.Subgraph.additions;
      List.iter
        (fun v ->
          State.remove_instance state ~node:v
            ~cluster:(State.home state v))
        s.Subgraph.removable;
      let o = Replicate.materialize state ~base:g Replicate.empty_stats in
      let route =
        Sched.Route.build config o.Replicate.graph ~assign:o.Replicate.assign
      in
      if not (Mii.feasible_ii route.Sched.Route.graph ii) then None
      else
        match Sched.Place.try_schedule config route ~ii with
        | Error _ -> None
        | Ok schedule ->
            if not (Sched.Regpressure.ok schedule) then None
            else
              Some
                {
                  outcome with
                  Sched.Driver.schedule;
                  graph = o.Replicate.graph;
                  assign = o.Replicate.assign;
                  n_comms = Sched.Route.n_copies route;
                }
    end
  end

let improve config outcome =
  let rec go outcome attempts applied saved budget =
    if budget = 0 then (outcome, { attempts; applied; cycles_saved = saved })
    else begin
      let len = Sched.Schedule.length outcome.Sched.Driver.schedule in
      let candidates = critical_comm_edges outcome in
      let improved =
        List.fold_left
          (fun acc cand ->
            match acc with
            | Some _ -> acc
            | None -> (
                match try_one config outcome cand with
                | Some o
                  when Sched.Schedule.length o.Sched.Driver.schedule < len ->
                    Some o
                | _ -> None))
          None candidates
      in
      let attempts = attempts + List.length candidates in
      match improved with
      | None -> (outcome, { attempts; applied; cycles_saved = saved })
      | Some o ->
          let gain = len - Sched.Schedule.length o.Sched.Driver.schedule in
          go o attempts (applied + 1) (saved + gain) (budget - 1)
    end
  in
  go outcome 0 0 0 8
