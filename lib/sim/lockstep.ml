open Ddg

type counts = {
  cycles : int;
  iterations : int;
  dynamic_ops : int;
  dynamic_copies : int;
  useful_ops : int;
  explicit_iterations : int;
}

let run ?useful_per_iteration (sched : Sched.Schedule.t) ~iterations =
  if iterations < 1 then Error "iterations < 1"
  else begin
    let config = sched.Sched.Schedule.config in
    let route = Sched.Schedule.route sched in
    let g = route.Sched.Route.graph in
    let ii = sched.Sched.Schedule.ii in
    let cycles_of = sched.Sched.Schedule.cycles in
    let buses_of = sched.Sched.Schedule.buses in
    let n = Graph.n_nodes g in
    let sc = Sched.Schedule.stage_count sched in
    (* Execute explicitly until every stage overlaps every other: after
       [sc] iterations the pipeline is in steady state; run a couple more
       kernel repetitions, then trust periodicity. *)
    let explicit_iters = min iterations ((2 * sc) + 4) in
    let horizon = ((explicit_iters - 1) * ii) + Sched.Schedule.length sched in
    let latency_of v =
      match Graph.op g v with
      | op when Machine.Opclass.equal op Machine.Opclass.Copy ->
          config.Machine.Config.bus_latency
      | op -> Machine.Opclass.latency op
    in
    let issue_of iter v = (iter * ii) + cycles_of.(v) in
    let error = ref None in
    let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
    (* Resource meters per absolute cycle within the horizon. *)
    let fu_use =
      Array.init config.Machine.Config.clusters (fun _ ->
          Array.init Machine.Fu.count (fun _ -> Array.make (horizon + 1) 0))
    in
    let bus_use =
      Array.init (max 1 config.Machine.Config.buses) (fun _ ->
          Array.make (horizon + 2 + config.Machine.Config.bus_latency) 0)
    in
    (* Issue order: by absolute cycle. *)
    let agenda =
      List.concat_map
        (fun iter ->
          List.map (fun v -> (issue_of iter v, iter, v)) (Graph.nodes g))
        (List.init explicit_iters Fun.id)
      |> List.sort Stdlib.compare
    in
    List.iter
      (fun (cycle, iter, v) ->
        if !error = None then begin
          (* Operand readiness. *)
          List.iter
            (fun e ->
              let src_iter = iter - e.Graph.distance in
              if src_iter >= 0 && e.Graph.kind = Graph.Reg then begin
                let ready =
                  issue_of src_iter e.Graph.src + e.Graph.latency
                in
                if ready > cycle then
                  fail
                    "iteration %d: %s issues at %d but %s (it %d) ready at %d"
                    iter (Graph.label g v) cycle
                    (Graph.label g e.Graph.src)
                    src_iter ready
              end)
            (Graph.preds g v);
          (* Resource accounting. *)
          (if Sched.Route.is_copy route v then begin
             let b = buses_of.(v) in
             if b < 0 || b >= config.Machine.Config.buses then
               fail "copy %s without a bus" (Graph.label g v)
             else begin
               for i = 0 to max 1 config.Machine.Config.bus_latency - 1 do
                 bus_use.(b).(cycle + i) <- bus_use.(b).(cycle + i) + 1;
                 if bus_use.(b).(cycle + i) > 1 then
                   fail "bus %d collision at cycle %d" b (cycle + i)
               done;
               if config.Machine.Config.copy_uses_int_slot then begin
                 let c = route.Sched.Route.assign.(v) in
                 let i = Machine.Fu.index Machine.Fu.Int in
                 fu_use.(c).(i).(cycle) <- fu_use.(c).(i).(cycle) + 1;
                 if
                   fu_use.(c).(i).(cycle)
                   > Machine.Config.fus config ~cluster:c Machine.Fu.Int
                 then
                   fail "cluster %d int slot oversubscribed by copy at %d" c
                     cycle
               end
             end
           end
           else
             match Machine.Opclass.fu_kind (Graph.op g v) with
             | Some k ->
                 let c = route.Sched.Route.assign.(v) in
                 let i = Machine.Fu.index k in
                 fu_use.(c).(i).(cycle) <- fu_use.(c).(i).(cycle) + 1;
                 if fu_use.(c).(i).(cycle) > Machine.Config.fus config ~cluster:c k
                 then
                   fail "cluster %d %s units oversubscribed at cycle %d" c
                     (Machine.Fu.to_string k) cycle
             | None -> fail "node %s has no execution resource" (Graph.label g v));
          if !error = None then ignore (latency_of v)
        end)
      agenda;
    match !error with
    | Some e -> Error e
    | None ->
        let n_copies = Sched.Route.n_copies route in
        let useful =
          match useful_per_iteration with
          | Some u -> u
          | None -> n - n_copies
        in
        let total_cycles = (iterations - 1 + sc) * ii in
        Ok
            {
              cycles = total_cycles;
              iterations;
              dynamic_ops = iterations * n;
              dynamic_copies = iterations * n_copies;
              useful_ops = iterations * useful;
              explicit_iterations = explicit_iters;
            }
  end

let run_exn ?useful_per_iteration sched ~iterations =
  match run ?useful_per_iteration sched ~iterations with
  | Ok c -> c
  | Error e -> failwith e
