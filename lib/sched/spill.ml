open Ddg

(* live ranges of original (non-copy) values, with their latest consumer *)
type range = {
  producer : int;
  cluster : int;
  lifetime : int;
  latest_consumer : int;
  latest_use : int;
}

let ranges_of (sched : Schedule.t) =
  let route = Schedule.route sched in
  let g = route.Route.graph in
  let ii = sched.Schedule.ii in
  let cycles = sched.Schedule.cycles in
  List.filter_map
    (fun v ->
      if Route.is_copy route v || Graph.is_store g v then None
      else begin
        let uses =
          List.map
            (fun e ->
              (e.Graph.dst, cycles.(e.Graph.dst) + (ii * e.Graph.distance)))
            (Graph.reg_succs g v)
        in
        match uses with
        | [] -> None
        | _ ->
            let latest_consumer, latest_use =
              List.fold_left
                (fun ((_, bu) as best) ((_, u) as cand) ->
                  if u > bu then cand else best)
                (List.hd uses) (List.tl uses)
            in
            Some
              {
                producer = v;
                cluster = route.Route.assign.(v);
                lifetime = latest_use - cycles.(v);
                latest_consumer;
                latest_use;
              }
      end)
    (Graph.nodes g)

let rewrite config (sched : Schedule.t) ~graph ~assign =
  let route = Schedule.route sched in
  let limit = Machine.Config.registers_per_cluster config in
  let pressure = Regpressure.per_cluster sched in
  (* worst offending cluster *)
  let worst = ref (-1) in
  Array.iteri
    (fun c p ->
      if p > limit && (!worst = -1 || p > pressure.(!worst)) then worst := c)
    pressure;
  if !worst = -1 then None
  else begin
    let spill_overhead =
      Machine.Opclass.latency Machine.Opclass.Store
      + Machine.Opclass.latency Machine.Opclass.Load
    in
    let candidates =
      ranges_of sched
      |> List.filter (fun r ->
             r.cluster = !worst
             && r.producer < Graph.n_nodes graph (* original node *)
             && (not (Route.is_copy route r.latest_consumer))
             && r.latest_consumer < Graph.n_nodes graph
             && r.lifetime > 2 * spill_overhead)
      |> List.sort (fun a b -> compare b.lifetime a.lifetime)
    in
    match candidates with
    | [] -> None
    | r :: _ ->
        (* rebuild the graph with a store/reload pair splitting the
           range towards the latest consumer *)
        let b = Graph.Builder.create ~name:(Graph.name graph ^ "+spill") () in
        List.iter
          (fun v ->
            ignore
              (Graph.Builder.add b ~label:(Graph.label graph v)
                 (Graph.op graph v)))
          (Graph.nodes graph);
        let s =
          Graph.Builder.add b
            ~label:(Printf.sprintf "sp_%s" (Graph.label graph r.producer))
            Machine.Opclass.Store
        in
        let l =
          Graph.Builder.add b
            ~label:(Printf.sprintf "rl_%s" (Graph.label graph r.producer))
            Machine.Opclass.Load
        in
        (* the latest consumer now reads the reload; earlier consumers
           keep the register value.  Only the first matching edge moves
           (a consumer using the value twice keeps its other read). *)
        let moved = ref None in
        Array.iter
          (fun e ->
            if
              e.Graph.kind = Graph.Reg
              && !moved = None
              && e.Graph.src = r.producer
              && e.Graph.dst = r.latest_consumer
            then begin
              moved := Some e.Graph.distance;
              (* the consumer now reads the reload, same iteration *)
              Graph.Builder.depend b
                ~latency:(Machine.Opclass.latency Machine.Opclass.Load)
                ~src:l ~dst:e.Graph.dst
            end
            else Graph.Builder.edge b e)
          (Graph.edges graph);
        match !moved with
        | None -> None
        | Some moved_distance ->
          (* the reload of iteration [i] reads what the store of
             iteration [i - d] wrote *)
          Graph.Builder.depend b ~src:r.producer ~dst:s;
          Graph.Builder.mem_depend b ~distance:moved_distance ~src:s ~dst:l;
          let g' = Graph.Builder.build b in
          let assign' = Array.make (Graph.n_nodes g') 0 in
          Array.blit assign 0 assign' 0 (Array.length assign);
          assign'.(s) <- assign.(r.producer);
          assign'.(l) <- assign.(r.latest_consumer);
          Some (g', assign')
  end

let spiller config sched ~graph ~assign = rewrite config sched ~graph ~assign
