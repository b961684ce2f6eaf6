open Ddg

(* The checks of a schedule whose II is at least 1: every per-slot table
   below is sized by the II and indexed modulo it. *)
let check_slots ~registers (sched : Sched.Schedule.t) =
  let config = sched.Sched.Schedule.config in
  let route = Sched.Schedule.route sched in
  let g = route.Sched.Route.graph in
  let ii = sched.Sched.Schedule.ii in
  let cycles = sched.Sched.Schedule.cycles in
  let buses = sched.Sched.Schedule.buses in
  let n = Graph.n_nodes g in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Nodes whose placement is already known to be nonsense are excluded
     from the resource accounting below, so the checker stays total — it
     reports the placement error instead of crashing on an array index. *)
  let unsound = ref false in
  let sound v =
    cycles.(v) >= 0
    && route.Sched.Route.assign.(v) >= 0
    && route.Sched.Route.assign.(v) < config.Machine.Config.clusters
  in
  (* Placement sanity. *)
  for v = 0 to n - 1 do
    if cycles.(v) < 0 then begin
      unsound := true;
      err "node %s has no issue cycle" (Graph.label g v)
    end;
    let c = route.Sched.Route.assign.(v) in
    if c < 0 || c >= config.Machine.Config.clusters then begin
      unsound := true;
      err "node %s assigned to bogus cluster %d" (Graph.label g v) c
    end;
    let is_copy = Sched.Route.is_copy route v in
    if is_copy && (buses.(v) < 0 || buses.(v) >= config.Machine.Config.buses)
    then err "copy %s has bogus bus %d" (Graph.label g v) buses.(v);
    if (not is_copy) && buses.(v) <> -1 then
      err "non-copy %s carries bus %d" (Graph.label g v) buses.(v)
  done;
  (* Dependences. *)
  Array.iter
    (fun e ->
      let lhs = cycles.(e.Graph.src) + e.Graph.latency in
      let rhs = cycles.(e.Graph.dst) + (ii * e.Graph.distance) in
      if lhs > rhs then
        err "dependence %s->%s violated: %d + %d > %d + %d*%d"
          (Graph.label g e.Graph.src)
          (Graph.label g e.Graph.dst)
          cycles.(e.Graph.src) e.Graph.latency
          cycles.(e.Graph.dst) ii e.Graph.distance)
    (Graph.edges g);
  (* Functional units. *)
  let fu = Array.init config.Machine.Config.clusters (fun _ ->
      Array.init Machine.Fu.count (fun _ -> Array.make ii 0))
  in
  for v = 0 to n - 1 do
    if sound v then
      match Machine.Opclass.fu_kind (Graph.op g v) with
      | Some k ->
          let c = route.Sched.Route.assign.(v) in
          let s = cycles.(v) mod ii in
          let i = Machine.Fu.index k in
          fu.(c).(i).(s) <- fu.(c).(i).(s) + 1
      | None ->
          (* copies consume an integer slot on cross-path machines *)
          if config.Machine.Config.copy_uses_int_slot then begin
            let c = route.Sched.Route.assign.(v) in
            let s = cycles.(v) mod ii in
            let i = Machine.Fu.index Machine.Fu.Int in
            fu.(c).(i).(s) <- fu.(c).(i).(s) + 1
          end
  done;
  for c = 0 to config.Machine.Config.clusters - 1 do
    List.iter
      (fun k ->
        let cap = Machine.Config.fus config ~cluster:c k in
        Array.iteri
          (fun s used ->
            if used > cap then
              err "cluster %d: %d %s ops in slot %d but only %d units" c used
                (Machine.Fu.to_string k) s cap)
          fu.(c).(Machine.Fu.index k))
      Machine.Fu.all
  done;
  (* Buses: a transfer owns its bus for bus_latency consecutive slots. *)
  if config.Machine.Config.buses > 0 then begin
    let bus_busy =
      Array.init config.Machine.Config.buses (fun _ -> Array.make ii 0)
    in
    for v = 0 to n - 1 do
      if
        Sched.Route.is_copy route v
        && sound v
        && buses.(v) >= 0
        && buses.(v) < config.Machine.Config.buses
      then
        for i = 0 to max 1 config.Machine.Config.bus_latency - 1 do
          let s = (cycles.(v) + i) mod ii in
          bus_busy.(buses.(v)).(s) <- bus_busy.(buses.(v)).(s) + 1
        done
    done;
    Array.iteri
      (fun b slots ->
        Array.iteri
          (fun s used ->
            if used > 1 then
              err "bus %d oversubscribed at slot %d (%d transfers)" b s used)
          slots)
      bus_busy
  end;
  (* Registers.  The live-range analysis indexes by consumer cluster and
     issue cycle, so it only runs on a structurally sound placement —
     when [unsound] the placement errors above already condemn the
     schedule. *)
  if registers && not !unsound then begin
    let limit = Machine.Config.registers_per_cluster config in
    Array.iteri
      (fun c pressure ->
        if pressure > limit then
          err "cluster %d: MaxLive %d exceeds %d registers" c pressure limit)
      (Sched.Regpressure.per_cluster sched)
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let check ?(registers = true) (sched : Sched.Schedule.t) =
  let ii = sched.Sched.Schedule.ii in
  if ii < 1 then Error [ Printf.sprintf "II %d < 1" ii ]
  else check_slots ~registers sched

let check_exn ?registers sched =
  match check ?registers sched with
  | Ok () -> ()
  | Error es -> failwith (String.concat "; " es)
