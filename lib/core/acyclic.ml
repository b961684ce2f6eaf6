open Ddg
module Iset = State.Iset

type t = {
  baseline : Sched.Listsched.t;
  improved : Sched.Listsched.t;
  replicas_added : int;
  rounds : int;
}

(* copy->consumer edges with no slack in the scheduled block *)
let critical_copies (sched : Sched.Listsched.t) =
  let route = sched.Sched.Listsched.route in
  let rg = route.Sched.Route.graph in
  let cycles = sched.Sched.Listsched.cycles in
  List.filter_map
    (fun e ->
      if
        e.Graph.kind = Graph.Reg
        && Sched.Route.is_copy route e.Graph.src
        && cycles.(e.Graph.src) + e.Graph.latency = cycles.(e.Graph.dst)
      then
        Some
          ( route.Sched.Route.copy_of.(e.Graph.src),
            route.Sched.Route.assign.(e.Graph.dst) )
      else None)
    (Array.to_list (Graph.edges rg))
  |> List.sort_uniq Stdlib.compare

(* capacity sanity for acyclic replication: the consuming cluster must
   keep at least as many ops per unit kind as the current makespan can
   absorb; a window of the makespan is a generous bound *)
let feasible config state ~window (s : Subgraph.t) =
  let g = State.graph state in
  let extra = Hashtbl.create 8 in
  List.iter
    (fun (v, cs) ->
      match Machine.Opclass.fu_kind (Graph.op g v) with
      | Some k ->
          Iset.iter
            (fun c ->
              let key = (c, Machine.Fu.index k) in
              Hashtbl.replace extra key
                (1 + Option.value ~default:0 (Hashtbl.find_opt extra key)))
            cs
      | None -> ())
    s.Subgraph.additions;
  Hashtbl.fold
    (fun (c, k) added ok ->
      ok
      && State.usage state ~cluster:c ~kind:(Machine.Fu.of_index k) + added
         <= Machine.Config.fus config ~cluster:c (Machine.Fu.of_index k)
            * window)
    extra true

let improve config g =
  match Sched.Listsched.schedule_auto config g with
  | Error e -> Error e
  | Ok baseline ->
      let assign0 =
        Array.sub baseline.Sched.Listsched.route.Sched.Route.assign 0
          (Graph.n_nodes g)
      in
      let rec go current_g current_assign best added rounds budget =
        if budget = 0 then Ok { baseline; improved = best; replicas_added = added; rounds }
        else begin
          let candidates = critical_copies best in
          let state = State.create config current_g ~assign:current_assign in
          let attempt (producer, cluster) =
            if not (State.has_comm state producer) then None
            else if Iset.mem cluster (State.placement state producer) then None
            else begin
              let s =
                Subgraph.compute_for state
                  ~clusters:(Iset.singleton cluster) producer
              in
              let window = best.Sched.Listsched.makespan + 1 in
              if not (feasible config state ~window s) then None
              else begin
                let hyp = State.copy state in
                List.iter
                  (fun (v, cs) ->
                    Iset.iter
                      (fun c -> State.add_instance hyp ~node:v ~cluster:c)
                      cs)
                  s.Subgraph.additions;
                List.iter
                  (fun v ->
                    State.remove_instance hyp ~node:v
                      ~cluster:(State.home hyp v))
                  s.Subgraph.removable;
                let o =
                  Replicate.materialize hyp ~base:current_g
                    Replicate.empty_stats
                in
                match
                  Sched.Listsched.schedule config o.Replicate.graph
                    ~assign:o.Replicate.assign
                with
                | Error _ -> None
                | Ok sched ->
                    if
                      sched.Sched.Listsched.makespan
                      < best.Sched.Listsched.makespan
                    then
                      Some
                        ( o.Replicate.graph,
                          o.Replicate.assign,
                          sched,
                          Subgraph.n_added_instances s )
                    else None
              end
            end
          in
          let found =
            List.fold_left
              (fun acc cand ->
                match acc with Some _ -> acc | None -> attempt cand)
              None candidates
          in
          match found with
          | None ->
              Ok { baseline; improved = best; replicas_added = added; rounds }
          | Some (g', a', sched, n_added) ->
              go g' a' sched (added + n_added) (rounds + 1) (budget - 1)
        end
      in
      go g assign0 baseline 0 0 8
