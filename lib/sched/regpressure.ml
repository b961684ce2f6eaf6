open Ddg

(* Live ranges: a non-copy value lives in its own cluster from issue to
   the last local use; a copy's value lives in every consuming cluster
   from its arrival (issue + bus latency) to the last use there.  Stores
   and copies of nothing produce no range.

   The ranges are accumulated straight into per-slot occupancy counters:
   this runs once per placed schedule at every escalation level (and
   once per spill round), so the intermediate range list a previous
   version built here — one tuple and one cons per value per level —
   was the Regalloc phase's top allocation site in the register-sweep
   profile (profile_gc), with the boxed pressure matrix and a per-node
   touched-cluster list close behind.  One flat [clusters * ii] block,
   written in place, replaces all three. *)
let per_cluster sched =
  let route = Schedule.route sched in
  let g = route.Route.graph in
  let config = sched.Schedule.config in
  let ii = sched.Schedule.ii in
  let cycles = sched.Schedule.cycles in
  let clusters = config.Machine.Config.clusters in
  let slots = Array.make (clusters * ii) 0 in
  (* A lifetime spanning k * II overlaps itself k times (modulo variable
     expansion), which walking the full [def, last) range counts
     naturally: each wrap bumps the same slot again. *)
  let add cluster def last =
    if last > def then
      for cyc = def to last - 1 do
        let s = (cluster * ii) + (cyc mod ii) in
        slots.(s) <- slots.(s) + 1
      done
  in
  (* Latest use per consuming cluster, kept in a scratch array (clusters
     are few, so resetting by sweep beats tracking touched ones). *)
  let latest = Array.make clusters min_int in
  List.iter
    (fun v ->
      List.iter
        (fun e ->
          let w = e.Graph.dst in
          let use = cycles.(w) + (ii * e.Graph.distance) in
          let c = route.Route.assign.(w) in
          if use > latest.(c) then latest.(c) <- use)
        (Graph.reg_succs g v);
      (if Route.is_copy route v then
         (* Value materializes in each consuming cluster when the bus
            transfer completes — the routed graph's edge latency (0 in the
            Section-5.1 latency-0 mode). *)
         let transfer =
           match Graph.succs g v with
           | e :: _ -> e.Graph.latency
           | [] -> config.Machine.Config.bus_latency
         in
         let arrival = cycles.(v) + transfer in
         for c = 0 to clusters - 1 do
           if latest.(c) <> min_int then add c arrival (latest.(c) + 1)
         done
       else if not (Graph.is_store g v) then begin
         (* All consumers of a non-copy node are local after routing. *)
         let def = cycles.(v) in
         let last = ref def in
         for c = 0 to clusters - 1 do
           if latest.(c) > !last then last := latest.(c)
         done;
         add route.Route.assign.(v) def (!last + 1)
       end);
      for c = 0 to clusters - 1 do
        latest.(c) <- min_int
      done)
    (Graph.nodes g);
  Array.init clusters (fun c ->
      let m = ref 0 in
      for s = 0 to ii - 1 do
        let occ = slots.((c * ii) + s) in
        if occ > !m then m := occ
      done;
      !m)

let max_per_cluster = per_cluster

let max_pressure sched = Array.fold_left max 0 (per_cluster sched)

let fits ~limit pressure = Array.for_all (fun p -> p <= limit) pressure

let ok sched =
  let limit =
    Machine.Config.registers_per_cluster sched.Schedule.config
  in
  fits ~limit (per_cluster sched)
