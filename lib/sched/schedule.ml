type routing =
  | Routed of Route.t
  | Unrouted of { graph : Ddg.Graph.t; assign : int array; latency0 : bool }

type t = {
  config : Machine.Config.t;
  routing : routing;
  ii : int;
  cycles : int array;
  buses : int array;
}

let route t =
  match t.routing with
  | Routed r -> r
  | Unrouted { graph; assign; latency0 } ->
      Route.build ~latency0 t.config graph ~assign

let routed t =
  match t.routing with
  | Routed _ -> t
  | Unrouted _ -> { t with routing = Routed (route t) }

let unrouted ~latency0 ~graph ~assign t =
  { t with routing = Unrouted { graph; assign; latency0 } }

let length t =
  if Array.length t.cycles = 0 then 0
  else 1 + Array.fold_left max 0 t.cycles

let stage_count t =
  let len = length t in
  if len = 0 then 1 else (len + t.ii - 1) / t.ii

let stage t v = t.cycles.(v) / t.ii
let modulo_slot t v = t.cycles.(v) mod t.ii

let execution_cycles t ~iterations =
  if iterations < 1 then invalid_arg "Schedule.execution_cycles: N < 1";
  (iterations - 1 + stage_count t) * t.ii

let pp ppf t =
  let route = route t in
  let g = route.Route.graph in
  Format.fprintf ppf "II=%d length=%d SC=%d@." t.ii (length t) (stage_count t);
  for s = 0 to t.ii - 1 do
    Format.fprintf ppf "  slot %2d:" s;
    Array.iteri
      (fun v cyc ->
        if cyc mod t.ii = s then
          Format.fprintf ppf " %s@c%d[%d]" (Ddg.Graph.label g v)
            route.Route.assign.(v) (cyc / t.ii))
      t.cycles;
    Format.fprintf ppf "@."
  done
