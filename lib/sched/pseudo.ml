open Ddg

type estimate = {
  ii_induced : int;
  n_comms : int;
  length : int;
  imbalance : int;
}

let cluster_res_ii config g ~assign =
  let clusters = config.Machine.Config.clusters in
  let counts = Array.make_matrix clusters Machine.Fu.count 0 in
  for v = 0 to Graph.n_nodes g - 1 do
    match Machine.Opclass.fu_kind (Graph.op g v) with
    | Some k ->
        let c = assign.(v) in
        counts.(c).(Machine.Fu.index k) <- counts.(c).(Machine.Fu.index k) + 1
    | None -> ()
  done;
  let bound = ref 1 in
  for c = 0 to clusters - 1 do
    List.iter
      (fun k ->
        let units = Machine.Config.fus config ~cluster:c k in
        let ops = counts.(c).(Machine.Fu.index k) in
        if ops > 0 then
          if units = 0 then
            (* an operation in a cluster with no unit of its kind can
               never execute: poison the estimate *)
            bound := max !bound (max_int / 4)
          else bound := max !bound ((ops + units - 1) / units))
      Machine.Fu.all
  done;
  !bound

let cluster_loads config g ~assign =
  let loads = Array.make config.Machine.Config.clusters 0 in
  for v = 0 to Graph.n_nodes g - 1 do
    loads.(assign.(v)) <- loads.(assign.(v)) + 1
  done;
  loads

(* Critical path when every cut register edge pays one bus latency (the
   copy occupies the bus for bus_lat cycles before the consumer cluster
   sees the value). *)
let length_with_cuts config g ~assign ~ii =
  let n = Graph.n_nodes g in
  if n = 0 then 0
  else begin
    let bus_lat = config.Machine.Config.bus_latency in
    let dist = Array.make n 0 in
    let finish = Array.make n 0 in
    let weight e =
      let cut =
        e.Graph.kind = Graph.Reg && assign.(e.Graph.src) <> assign.(e.Graph.dst)
      in
      e.Graph.latency
      + (if cut then bus_lat else 0)
      - (ii * e.Graph.distance)
    in
    let edges = Graph.edges g in
    let m = Array.length edges in
    let changed = ref true in
    let pass = ref 0 in
    while !changed && !pass <= n + 1 do
      changed := false;
      for i = 0 to m - 1 do
        let e = Array.unsafe_get edges i in
        let w = weight e in
        if dist.(e.Graph.src) + w > dist.(e.Graph.dst) then begin
          dist.(e.Graph.dst) <- dist.(e.Graph.src) + w;
          changed := true
        end
      done;
      incr pass
    done;
    (* If ii is below what the cut latencies require the fixpoint may not
       settle; the caller passes a feasible ii, but guard anyway. *)
    for v = 0 to n - 1 do
      let lat =
        match Graph.op g v with
        | op when Machine.Opclass.equal op Machine.Opclass.Copy ->
            config.Machine.Config.bus_latency
        | op -> Machine.Opclass.latency op
      in
      finish.(v) <- dist.(v) + lat
    done;
    Array.fold_left max 0 finish
  end

let estimate ?rec_ii config g ~assign ~ii =
  let n_comms = Comm.count g ~assign in
  let bus_ii = Comm.min_ii_for_bus config ~n_comms in
  let res_ii = cluster_res_ii config g ~assign in
  let rec_ii = match rec_ii with Some r -> r | None -> Mii.rec_mii g in
  let ii_induced = max (max bus_ii res_ii) rec_ii in
  let safe_ii = max ii (max ii_induced 1) in
  let length = length_with_cuts config g ~assign ~ii:safe_ii in
  let loads = cluster_loads config g ~assign in
  let imbalance =
    Array.fold_left max 0 loads - Array.fold_left min max_int loads
  in
  { ii_induced; n_comms; length; imbalance }

let compare a b =
  match Stdlib.compare a.ii_induced b.ii_induced with
  | 0 -> (
      match Stdlib.compare a.n_comms b.n_comms with
      | 0 -> (
          match Stdlib.compare a.length b.length with
          | 0 -> Stdlib.compare a.imbalance b.imbalance
          | c -> c)
      | c -> c)
  | c -> c

(* Lazy evaluation against an incumbent, for the refinement hill-climb:
   [compare] orders by (ii_induced, n_comms) before length, so the
   pseudo-schedule fixpoint — the expensive part — is only run when the
   cheap prefix does not already lose.  [`Cut] zeroes ii_induced and
   length, so it never needs the fixpoint at all.  Decisions and the
   returned estimate are identical to running {!estimate} and
   {!compare}. *)
let improves ?rec_ii ?(metric = `Pseudo) config g ~assign ~ii ~best =
  let n_comms = Comm.count g ~assign in
  match metric with
  | `Cut ->
      let loads = cluster_loads config g ~assign in
      let imbalance =
        Array.fold_left max 0 loads - Array.fold_left min max_int loads
      in
      let est = { ii_induced = 0; n_comms; length = 0; imbalance } in
      if compare est best < 0 then Some est else None
  | `Pseudo ->
      let bus_ii = Comm.min_ii_for_bus config ~n_comms in
      let res_ii = cluster_res_ii config g ~assign in
      let rec_ii = match rec_ii with Some r -> r | None -> Mii.rec_mii g in
      let ii_induced = max (max bus_ii res_ii) rec_ii in
      if
        ii_induced > best.ii_induced
        || (ii_induced = best.ii_induced && n_comms > best.n_comms)
      then None
      else begin
        let safe_ii = max ii (max ii_induced 1) in
        let length = length_with_cuts config g ~assign ~ii:safe_ii in
        let loads = cluster_loads config g ~assign in
        let imbalance =
          Array.fold_left max 0 loads - Array.fold_left min max_int loads
        in
        let est = { ii_induced; n_comms; length; imbalance } in
        if compare est best < 0 then Some est else None
      end
