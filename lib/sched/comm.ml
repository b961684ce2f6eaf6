open Ddg

let consumer_clusters g ~assign v =
  let own = assign.(v) in
  Graph.reg_succs g v
  |> List.filter_map (fun e ->
         let c = assign.(e.Graph.dst) in
         if c <> own then Some c else None)
  |> List.sort_uniq Stdlib.compare

let producers g ~assign =
  Graph.nodes g
  |> List.filter (fun v -> consumer_clusters g ~assign v <> [])

(* [count] is the inner loop of the pseudo-schedule estimate (evaluated
   once per candidate move of the refinement hill-climb): a node
   communicates iff any consumer lives elsewhere, no need to collect the
   cluster set. *)
let count g ~assign =
  let n = ref 0 in
  for v = 0 to Graph.n_nodes g - 1 do
    let own = assign.(v) in
    if
      List.exists (fun e -> assign.(e.Graph.dst) <> own) (Graph.reg_succs g v)
    then incr n
  done;
  !n

let extra config g ~assign ~ii =
  let nof_coms = count g ~assign in
  let bus_coms = Machine.Config.bus_capacity_per_ii config ~ii in
  if bus_coms = max_int then 0 else max 0 (nof_coms - bus_coms)

let min_ii_for_bus config ~n_comms =
  if n_comms = 0 || config.Machine.Config.clusters = 1 then 1
  else
    let buses = config.Machine.Config.buses in
    let lat = config.Machine.Config.bus_latency in
    (* capacity (ii) = ii / lat * buses >= n_comms *)
    let transfers_per_bus = (n_comms + buses - 1) / buses in
    transfers_per_bus * lat
