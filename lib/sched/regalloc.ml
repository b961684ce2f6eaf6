open Ddg

type interval = {
  producer : int;
  cluster : int;
  start_cycle : int;
  end_cycle : int;
  instances : int;
  registers : int list;
}

type t = {
  intervals : interval list;
  used_per_cluster : int array;
}

(* Live ranges per cluster, mirroring Regpressure's model: a value is a
   (cluster, def, end) triple; copies materialize one value per consumer
   cluster. *)
let raw_intervals (sched : Schedule.t) =
  let route = Schedule.route sched in
  let g = route.Route.graph in
  let ii = sched.Schedule.ii in
  let cycles = sched.Schedule.cycles in
  let acc = ref [] in
  List.iter
    (fun v ->
      let uses_by_cluster = Hashtbl.create 4 in
      List.iter
        (fun e ->
          if e.Graph.kind = Graph.Reg then begin
            let w = e.Graph.dst in
            let use = cycles.(w) + (ii * e.Graph.distance) in
            let c = route.Route.assign.(w) in
            let prev =
              try Hashtbl.find uses_by_cluster c with Not_found -> min_int
            in
            Hashtbl.replace uses_by_cluster c (max prev use)
          end)
        (Graph.succs g v);
      let add cluster def last =
        if last + 1 > def then
          acc :=
            {
              producer = v;
              cluster;
              start_cycle = def;
              end_cycle = last + 1;
              instances = ((last + 1 - def) + ii - 1) / ii;
              registers = [];
            }
            :: !acc
      in
      if Route.is_copy route v then begin
        let transfer =
          match Graph.succs g v with
          | e :: _ -> e.Graph.latency
          | [] -> sched.Schedule.config.Machine.Config.bus_latency
        in
        Hashtbl.iter
          (fun c last -> add c (cycles.(v) + transfer) last)
          uses_by_cluster
      end
      else if not (Graph.is_store g v) then begin
        let def = cycles.(v) in
        let last =
          Hashtbl.fold (fun _ l a -> max l a) uses_by_cluster def
        in
        add route.Route.assign.(v) def last
      end)
    (Graph.nodes g);
  List.rev !acc

(* Does the modulo footprint of interval [a] overlap that of [b]?  A
   lifetime of length >= II covers every slot; otherwise it covers the
   cyclic range [start mod II, end mod II). *)
let footprint ii itv =
  if itv.end_cycle - itv.start_cycle >= ii then `All
  else begin
    let s = itv.start_cycle mod ii and e = itv.end_cycle mod ii in
    `Range (s, e) (* wraps when e <= s *)
  end

let slots_overlap ii a b =
  match (footprint ii a, footprint ii b) with
  | `All, _ | _, `All -> true
  | `Range (s1, e1), `Range (s2, e2) ->
      (* Two non-empty arcs shorter than the circle intersect iff one
         contains the other's start — O(1) instead of scanning the II
         slots. *)
      let covers (s, e) x = if s < e then x >= s && x < e else x >= s || x < e in
      covers (s1, e1) s2 || covers (s2, e2) s1

(* Two values interfere when their modulo footprints overlap — with MVE
   each occupies [instances] registers, so interference is at the level
   of the whole expanded group; we allocate [instances] distinct
   registers per value, greedy first-fit (kernel unrolling renames per
   stage, so the registers need not be contiguous). *)
let allocate (sched : Schedule.t) =
  let config = sched.Schedule.config in
  let ii = sched.Schedule.ii in
  let limit = Machine.Config.registers_per_cluster config in
  let intervals = raw_intervals sched in
  let by_cluster = Hashtbl.create 8 in
  List.iter
    (fun itv ->
      let l = try Hashtbl.find by_cluster itv.cluster with Not_found -> [] in
      Hashtbl.replace by_cluster itv.cluster (itv :: l))
    intervals;
  let out = ref [] in
  let used = Array.make config.Machine.Config.clusters 0 in
  let failure = ref None in
  Hashtbl.iter
    (fun cluster itvs ->
      if !failure = None then begin
        (* Values alive for a whole II (they conflict with everything)
           first, then by definition cycle: circular-arc colouring gets
           close to the clique bound when the full arcs are pinned before
           the partial ones. *)
        let span itv = itv.end_cycle - itv.start_cycle >= ii in
        let itvs =
          List.sort
            (fun a b ->
              match (span b, span a) with
              | true, false -> 1
              | false, true -> -1
              | _ -> compare a.start_cycle b.start_cycle)
            itvs
        in
        let assigned = ref [] in
        List.iter
          (fun itv ->
            if !failure = None then begin
              let conflicts r =
                List.exists
                  (fun other ->
                    List.mem r other.registers
                    && slots_overlap ii itv other)
                  !assigned
              in
              (* first [instances] conflict-free registers *)
              let rec collect r acc need =
                if need = 0 then Some (List.rev acc)
                else if r >= limit then None
                else if conflicts r then collect (r + 1) acc need
                else collect (r + 1) (r :: acc) (need - 1)
              in
              match collect 0 [] itv.instances with
              | None ->
                  failure :=
                    Some
                      (Sched_error.Register_pressure
                         { cluster; needed = itv.instances; limit })
              | Some regs ->
                  let itv = { itv with registers = regs } in
                  assigned := itv :: !assigned;
                  List.iter
                    (fun r -> used.(cluster) <- max used.(cluster) (r + 1))
                    regs;
                  out := itv :: !out
            end)
          itvs
      end)
    by_cluster;
  match !failure with
  | Some err -> Error err
  | None -> Ok { intervals = List.rev !out; used_per_cluster = used }

let allocate_exn sched =
  match allocate sched with
  | Ok t -> t
  | Error e -> failwith (Sched_error.to_string e)

let verify (sched : Schedule.t) t =
  let ii = sched.Schedule.ii in
  let errors = ref [] in
  let rec pairs = function
    | [] -> ()
    | itv :: rest ->
        List.iter
          (fun other ->
            if itv.cluster = other.cluster && slots_overlap ii itv other
            then
              List.iter
                (fun r ->
                  if List.mem r other.registers then
                    errors :=
                      Printf.sprintf
                        "register %d of cluster %d assigned to live nodes %d \
                         and %d"
                        r itv.cluster itv.producer other.producer
                      :: !errors)
                itv.registers)
          rest;
        pairs rest
  in
  pairs t.intervals;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
