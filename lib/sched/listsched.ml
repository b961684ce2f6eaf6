open Ddg

type t = {
  route : Route.t;
  cycles : int array;
  makespan : int;
}

let check_acyclic g =
  if Array.exists (fun e -> e.Graph.distance > 0) (Graph.edges g) then
    invalid_arg "Listsched: loop-carried dependence in acyclic code"

let latency_of config g v =
  match Graph.op g v with
  | op when Machine.Opclass.equal op Machine.Opclass.Copy ->
      config.Machine.Config.bus_latency
  | op -> Machine.Opclass.latency op

(* height-priority list scheduling over the routed block *)
let schedule config g ~assign =
  check_acyclic g;
  let route = Route.build config g ~assign in
  let rg = route.Route.graph in
  let n = Graph.n_nodes rg in
  if n = 0 then Ok { route; cycles = [||]; makespan = 0 }
  else begin
    let analysis = Analysis.compute rg ~ii:1 in
    (* big enough horizon: every op serialized *)
    let horizon =
      List.fold_left
        (fun acc v -> acc + latency_of config rg v)
        1 (Graph.nodes rg)
    in
    let fu_busy =
      Array.init config.Machine.Config.clusters (fun _ ->
          Array.init Machine.Fu.count (fun _ -> Array.make horizon 0))
    in
    let bus_busy =
      Array.init (max 1 config.Machine.Config.buses) (fun _ ->
          Array.make (horizon + config.Machine.Config.bus_latency + 1) false)
    in
    let cycles = Array.make n (-1) in
    let placed = Array.make n false in
    (* priority: greater height first (critical path first) *)
    let order =
      List.sort
        (fun a b ->
          compare
            (Analysis.height analysis b, a)
            (Analysis.height analysis a, b))
        (Graph.nodes rg)
    in
    let unplaced_preds v =
      List.exists (fun e -> not placed.(e.Graph.src)) (Graph.preds rg v)
    in
    let ready_time v =
      List.fold_left
        (fun acc e -> max acc (cycles.(e.Graph.src) + e.Graph.latency))
        0 (Graph.preds rg v)
    in
    let place v =
      let t0 = ready_time v in
      if Route.is_copy route v then begin
        let lat = max 1 config.Machine.Config.bus_latency in
        let fits b t =
          let rec go i = i >= lat || ((not bus_busy.(b).(t + i)) && go (i + 1)) in
          go 0
        in
        let rec find t =
          let rec try_bus b =
            if b >= config.Machine.Config.buses then None
            else if fits b t then Some b
            else try_bus (b + 1)
          in
          match try_bus 0 with
          | Some b -> (t, b)
          | None -> find (t + 1)
        in
        let t, b = find t0 in
        for i = 0 to lat - 1 do
          bus_busy.(b).(t + i) <- true
        done;
        cycles.(v) <- t;
        placed.(v) <- true
      end
      else begin
        match Machine.Opclass.fu_kind (Graph.op rg v) with
        | None -> assert false
        | Some kind ->
            let c = route.Route.assign.(v) in
            let k = Machine.Fu.index kind in
            let cap = Machine.Config.fus config ~cluster:c kind in
            if cap = 0 then
              failwith
                (Printf.sprintf
                   "Listsched: %s assigned to cluster %d with no %s unit"
                   (Graph.label rg v) c (Machine.Fu.to_string kind));
            let rec find t =
              if t >= horizon then horizon - 1
              else if fu_busy.(c).(k).(t) < cap then t
              else find (t + 1)
            in
            let t = find t0 in
            fu_busy.(c).(k).(t) <- fu_busy.(c).(k).(t) + 1;
            cycles.(v) <- t;
            placed.(v) <- true
      end
    in
    (* repeatedly place the highest-priority ready node *)
    let remaining = ref n in
    while !remaining > 0 do
      let next =
        List.find_opt (fun v -> (not placed.(v)) && not (unplaced_preds v)) order
      in
      match next with
      | Some v ->
          place v;
          decr remaining
      | None -> failwith "Listsched: no ready node (cycle in acyclic block?)"
    done;
    let makespan =
      List.fold_left
        (fun acc v -> max acc (cycles.(v) + latency_of config rg v))
        0 (Graph.nodes rg)
    in
    Ok { route; cycles; makespan }
  end

let schedule_auto config g =
  check_acyclic g;
  (* Partition capacity window: the balanced schedule-length lower bound
     (the busiest unit kind spread over the whole machine).  A window as
     long as the critical path would let the partitioner collapse the
     block into one cluster and serialize it; this window forces the
     spread an acyclic scheduler wants, and the partitioner's usual
     objective then minimizes the communications that spread costs. *)
  let window =
    List.fold_left
      (fun acc k ->
        let ops = Graph.n_ops_of_kind g k in
        let units = max 1 (Machine.Config.total_fus config k) in
        max acc ((ops + units - 1) / units))
      1 Machine.Fu.all
  in
  let assign = Partition.initial config g ~ii:window in
  schedule config g ~assign

let verify config t =
  let rg = t.route.Route.graph in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iter
    (fun e ->
      if t.cycles.(e.Graph.src) + e.Graph.latency > t.cycles.(e.Graph.dst)
      then
        err "dependence %s->%s violated"
          (Graph.label rg e.Graph.src)
          (Graph.label rg e.Graph.dst))
    (Graph.edges rg);
  let span = t.makespan + 1 + config.Machine.Config.bus_latency in
  let fu =
    Array.init config.Machine.Config.clusters (fun _ ->
        Array.init Machine.Fu.count (fun _ -> Array.make span 0))
  in
  let bus = Array.make span 0 in
  List.iter
    (fun v ->
      if Route.is_copy t.route v then
        for i = 0 to max 1 config.Machine.Config.bus_latency - 1 do
          bus.(t.cycles.(v) + i) <- bus.(t.cycles.(v) + i) + 1
        done
      else
        match Machine.Opclass.fu_kind (Graph.op rg v) with
        | Some k ->
            let c = t.route.Route.assign.(v) in
            let i = Machine.Fu.index k in
            fu.(c).(i).(t.cycles.(v)) <- fu.(c).(i).(t.cycles.(v)) + 1
        | None -> ())
    (Graph.nodes rg);
  for c = 0 to config.Machine.Config.clusters - 1 do
    List.iter
      (fun k ->
        Array.iteri
          (fun cyc used ->
            if used > Machine.Config.fus config ~cluster:c k then
              err "cluster %d %s oversubscribed at %d" c
                (Machine.Fu.to_string k) cyc)
          fu.(c).(Machine.Fu.index k))
      Machine.Fu.all
  done;
  Array.iteri
    (fun cyc used ->
      if used > config.Machine.Config.buses then
        err "buses oversubscribed at %d" cyc)
    bus;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
