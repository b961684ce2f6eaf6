open Ddg

type counts = {
  cycles : int;
  iterations : int;
  dynamic_ops : int;
  dynamic_copies : int;
  useful_ops : int;
  explicit_iterations : int;
}

(* The first node with a negative issue cycle or a cluster the machine
   does not have, named in {!Checker}'s words.  Checked before anything
   is sized by either, so a corrupt schedule gets an [Error], not an
   index exception. *)
let misplaced config route g cycles =
  let n = Graph.n_nodes g in
  let rec go v =
    if v >= n then None
    else
      let c = route.Sched.Route.assign.(v) in
      if cycles.(v) < 0 then
        Some (Printf.sprintf "node %s has no issue cycle" (Graph.label g v))
      else if c < 0 || c >= config.Machine.Config.clusters then
        Some
          (Printf.sprintf "node %s assigned to bogus cluster %d"
             (Graph.label g v) c)
      else go (v + 1)
  in
  go 0

let run ?useful_per_iteration (sched : Sched.Schedule.t) ~iterations =
  if iterations < 1 then Error "iterations < 1"
  else if sched.Sched.Schedule.ii < 1 then
    Error (Printf.sprintf "II %d < 1" sched.Sched.Schedule.ii)
  else begin
    let config = sched.Sched.Schedule.config in
    let route = Sched.Schedule.route sched in
    let g = route.Sched.Route.graph in
    let cycles_of = sched.Sched.Schedule.cycles in
    match misplaced config route g cycles_of with
    | Some e -> Error e
    | None -> (
        let ii = sched.Sched.Schedule.ii in
        let buses_of = sched.Sched.Schedule.buses in
        let n = Graph.n_nodes g in
        let sc = Sched.Schedule.stage_count sched in
        (* Execute explicitly until every stage overlaps every other:
           after [sc] iterations the pipeline is in steady state; run a
           couple more kernel repetitions, then trust periodicity. *)
        let explicit_iters = min iterations ((2 * sc) + 4) in
        let last_kernel = Sched.Schedule.length sched - 1 in
        let horizon = ((explicit_iters - 1) * ii) + last_kernel + 1 in
        (* Counting sort of the nodes by kernel cycle: [by_cycle] lists
           the nodes issuing at kernel cycle [k], ascending, from
           [first.(k)] to [first.(k + 1) - 1]. *)
        let first = Array.make (last_kernel + 2) 0 in
        Array.iter (fun k -> first.(k) <- first.(k) + 1) cycles_of;
        for k = 1 to last_kernel do
          first.(k) <- first.(k) + first.(k - 1)
        done;
        first.(last_kernel + 1) <- n;
        let by_cycle = Array.make n 0 in
        for v = n - 1 downto 0 do
          let k = cycles_of.(v) in
          first.(k) <- first.(k) - 1;
          by_cycle.(first.(k)) <- v
        done;
        let exception Fault of string in
        let fail fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt in
        (* Resource meters.  An operation occupies its unit in its issue
           cycle only, so the unit meters cover the current cycle; a
           transfer holds its bus for [bus_lat] cycles, so each bus meter
           is a ring over the next [bus_lat] cycles. *)
        let fu_use =
          Array.make (config.Machine.Config.clusters * Machine.Fu.count) 0
        in
        let n_buses = config.Machine.Config.buses in
        let bus_lat = max 1 config.Machine.Config.bus_latency in
        let bus_use = Array.make (max 1 n_buses * bus_lat) 0 in
        let rec check_operands iter v cycle = function
          | [] -> ()
          | e :: rest ->
              let src_iter = iter - e.Graph.distance in
              if src_iter >= 0 && e.Graph.kind = Graph.Reg then begin
                let ready =
                  (src_iter * ii) + cycles_of.(e.Graph.src) + e.Graph.latency
                in
                if ready > cycle then
                  fail
                    "iteration %d: %s issues at %d but %s (it %d) ready at %d"
                    iter (Graph.label g v) cycle
                    (Graph.label g e.Graph.src)
                    src_iter ready
              end;
              check_operands iter v cycle rest
        in
        let use_fu c k =
          let slot = (c * Machine.Fu.count) + Machine.Fu.index k in
          fu_use.(slot) <- fu_use.(slot) + 1;
          fu_use.(slot) > Machine.Config.fus config ~cluster:c k
        in
        let issue iter v cycle =
          check_operands iter v cycle (Graph.preds g v);
          let c = route.Sched.Route.assign.(v) in
          if Sched.Route.is_copy route v then begin
            let b = buses_of.(v) in
            if b < 0 || b >= n_buses then
              fail "copy %s without a bus" (Graph.label g v);
            for i = 0 to bus_lat - 1 do
              let slot = (b * bus_lat) + ((cycle + i) mod bus_lat) in
              bus_use.(slot) <- bus_use.(slot) + 1;
              if bus_use.(slot) > 1 then
                fail "bus %d collision at cycle %d" b (cycle + i)
            done;
            if
              config.Machine.Config.copy_uses_int_slot
              && use_fu c Machine.Fu.Int
            then
              fail "cluster %d int slot oversubscribed by copy at %d" c cycle
          end
          else
            match Machine.Opclass.fu_kind (Graph.op g v) with
            | Some k ->
                if use_fu c k then
                  fail "cluster %d %s units oversubscribed at cycle %d" c
                    (Machine.Fu.to_string k) cycle
            | None -> fail "node %s has no execution resource" (Graph.label g v)
        in
        (* Issue order: by absolute cycle, then iteration, then node — the
           order of sorted (cycle, iteration, node) triples. *)
        try
          for cycle = 0 to horizon - 1 do
            Array.fill fu_use 0 (Array.length fu_use) 0;
            let retired = (cycle + bus_lat - 1) mod bus_lat in
            for b = 0 to n_buses - 1 do
              bus_use.((b * bus_lat) + retired) <- 0
            done;
            for iter = 0 to min (explicit_iters - 1) (cycle / ii) do
              let k = cycle - (iter * ii) in
              if k <= last_kernel then
                for j = first.(k) to first.(k + 1) - 1 do
                  issue iter by_cycle.(j) cycle
                done
            done
          done;
          let n_copies = Sched.Route.n_copies route in
          let useful =
            match useful_per_iteration with
            | Some u -> u
            | None -> n - n_copies
          in
          (* The remaining iterations are accounted analytically. *)
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
        with Fault e -> Error e)
  end

let run_exn ?useful_per_iteration sched ~iterations =
  match run ?useful_per_iteration sched ~iterations with
  | Ok c -> c
  | Error e -> failwith e
