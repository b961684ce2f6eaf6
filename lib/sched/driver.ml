(* Bump whenever a change could alter any schedule, error class or
   statistic the driver produces: on-disk entries of the
   content-addressed schedule store are keyed on this string, so stale
   results self-invalidate instead of surviving a scheduler change. *)
let version = "sched-7"

type cause = Bus | Recurrence | Registers

type outcome = {
  schedule : Schedule.t;
  graph : Ddg.Graph.t;
  assign : int array;
  mii : int;
  ii : int;
  increments : (cause * int) list;
  n_comms : int;
}

type transform =
  Machine.Config.t ->
  Ddg.Graph.t ->
  assign:int array ->
  ii:int ->
  (Ddg.Graph.t * int array) option

type spiller =
  Machine.Config.t ->
  Schedule.t ->
  graph:Ddg.Graph.t ->
  assign:int array ->
  (Ddg.Graph.t * int array) option

(* ------------------------------------------------------------------ *)
(* The escalation engine                                               *)
(* ------------------------------------------------------------------ *)

(* A successful placement: everything [finish] needs, plus the MaxLive
   vector the register check judges. *)
type placed = {
  p_schedule : Schedule.t;
  p_graph : Ddg.Graph.t;
  p_assign : int array;
  p_pressure : int array;  (* MaxLive per cluster; [||] in latency0 mode *)
}

(* What an attempt keeps of the placement the register check finally
   rejected: its MaxLive, its cycle array, and how many spill rounds ran
   before it.  The stationarity check below compares these across
   levels. *)
type rejected = {
  r_pressure : int array;
  r_cycles : int array;
  r_rounds : int;
}

type attempt_result =
  | Placed of placed
  | Failed of cause  (** bus or recurrence *)
  | Rejected of rejected
      (** placed, but MaxLive exceeded the register file *)

type counters = {
  mutable c_bus : int;
  mutable c_recur : int;
  mutable c_regs : int;
}

let bump cs = function
  | Bus -> cs.c_bus <- cs.c_bus + 1
  | Recurrence -> cs.c_recur <- cs.c_recur + 1
  | Registers -> cs.c_regs <- cs.c_regs + 1

let finish ~mii ~counters p ii =
  Ok
    {
      schedule = p.p_schedule;
      graph = p.p_graph;
      assign = p.p_assign;
      mii;
      ii;
      increments =
        [
          (Bus, counters.c_bus);
          (Recurrence, counters.c_recur);
          (Registers, counters.c_regs);
        ];
      n_comms = Route.n_copies (Schedule.route p.p_schedule);
    }

let max_spill_rounds = 4

(* One spill round splits one live range: it removes at most one value
   from a cluster's peak window, so a summed per-cluster excess beyond
   the remaining rounds cannot be spilled down to the limit. *)
let spillable ~limit pressure spills_left =
  spills_left > 0
  && Array.fold_left (fun acc p -> acc + max 0 (p - limit)) 0 pressure
     <= spills_left

(* Bus check, routing, placement and the register check of one graph
   at a fixed II.  The copies are added afresh at every attempt (Section
   2.3.2): the routed graph is a pure function of the graph, the
   partition, the latency-0 flag and the bus latency, so no attempt
   keeps one for another — a route kept across levels lived long
   enough to reach the major heap (docs/ALGORITHMS.md, "The route
   cache rule"). *)
let rec place ~latency0 ?spiller config ~ii g' assign' spills_left =
  if Comm.extra config g' ~assign:assign' ~ii > 0 then Failed Bus
  else begin
    let routed = Route.build ~latency0 config g' ~assign:assign' in
    if not (Ddg.Mii.feasible_ii routed.Route.graph ii) then
      (* Copies stretched a recurrence beyond the current II: the bus
         latency is to blame (the plain graph is feasible at
         ii >= mii). *)
      Failed Bus
    else
      match Place.try_schedule config routed ~ii with
      | Error f -> Failed (if f.Place.copy_involved then Bus else Recurrence)
      | Ok schedule ->
          (* The latency-0 upper-bound schedule is knowingly wrong
             (Section 5.1); register feasibility is not enforced on
             it. *)
          let pressure =
            if latency0 then [||]
            else
              Profile.time Profile.Regalloc (fun () ->
                  Regpressure.max_per_cluster schedule)
          in
          settle ~latency0 ?spiller config ~ii
            {
              p_schedule = schedule;
              p_graph = g';
              p_assign = assign';
              p_pressure = pressure;
            }
            spills_left
  end

(* The register check that ends a placement, with spill-and-retry: an
   overflowing placement is handed to the spiller and the rewrite
   re-placed at the same II while rounds remain and the excess is still
   spillable (else the attempt escalates — saving 4 rewrite-route-place
   rounds per level on hopelessly overflowing loops). *)
and settle ~latency0 ?spiller config ~ii p spills_left =
  let limit = Machine.Config.registers_per_cluster config in
  if latency0 || Array.for_all (fun x -> x <= limit) p.p_pressure then
    Placed p
  else
    let fail () =
      Rejected
        {
          r_pressure = p.p_pressure;
          r_cycles = p.p_schedule.Schedule.cycles;
          r_rounds = max_spill_rounds - spills_left;
        }
    in
    match spiller with
    | Some f when spillable ~limit p.p_pressure spills_left -> (
        match
          Profile.time Profile.Regalloc (fun () ->
              f config p.p_schedule ~graph:p.p_graph ~assign:p.p_assign)
        with
        | Some (g'', a'') ->
            place ~latency0 ?spiller config ~ii g'' a'' (spills_left - 1)
        | None -> fail ())
    | _ -> fail ()

(* One full attempt — transform hook, bus check, routing, placement,
   register check (with optional spill-and-retry) — at a fixed II and
   partition. *)
let try_once ?transform ~latency0 ?spiller config g ~ii ~assign =
  let g', assign' =
    match transform with
    | None -> (g, assign)
    | Some f ->
        Option.value ~default:(g, assign)
          (Profile.time Profile.Replication (fun () -> f config g ~assign ~ii))
  in
  place ~latency0 ?spiller config ~ii g' assign' max_spill_rounds

(* The escalation loop visits every II from the MII up, but a loop the
   register file simply cannot hold keeps producing the exact same
   failure: the partitioner has settled, placement no longer wraps
   around the (now huge) II, MaxLive is constant, and nothing in the
   remaining walk to the cap can change.  After this many consecutive
   levels with identical partitions and identical register-failure
   signatures (both for the refined lineage and the from-scratch second
   chance), the escalation concludes the cap failure immediately instead
   of re-scheduling the same loop a hundred more times.  Any difference
   at all — a bus or recurrence failure, a changed partition, a changed
   placement or pressure vector — resets the count. *)
let stationary_limit = 12

(* Signature of a register-caused failure: the rejected placement's
   MaxLive and cycles, and how many spill rounds ran.  Only register
   failures qualify (bus and recurrence failures genuinely depend on the
   II and do resolve as it grows). *)
let reg_sig = function
  | Rejected r -> Some (r.r_pressure, r.r_cycles, r.r_rounds)
  | Placed _ | Failed _ -> None

(* Level signature for the stationarity check: the lineage partition and
   its rejection, plus the fresh partition and its rejection when a
   second chance ran. *)
let level_sig ~assign lineage fresh_try =
  match reg_sig lineage with
  | None -> None
  | Some ls -> (
      match fresh_try with
      | None -> Some (assign, ls, None)
      | Some (fresh, r) ->
          Option.map (fun fs -> (assign, ls, Some (fresh, fs))) (reg_sig r))

(* The Figure-2 escalation loop, from the MII and the hierarchy's
   initial partition.  [budget] is spent before every level runs; both
   the cap and the stationarity cut report the same
   {!Sched_error.Escalation_cap} (the cut is an early conclusion of the
   walk-to-cap failure). *)
let escalate ?transform ~latency0 ?spiller ?budget config g ~hier ~mii ~cap =
  let counters = { c_bus = 0; c_recur = 0; c_regs = 0 } in
  let give_up () = Error (Sched_error.Escalation_cap { mii; cap }) in
  let try_once ~ii ~assign =
    try_once ?transform ~latency0 ?spiller config g ~ii ~assign
  in
  let rec walk ~streak ~prev_sig ii assign =
    if ii > cap then give_up ()
    else
      match budget with
      | Some b when not (Budget.spend b) ->
          Error
            (Sched_error.Timeout
               {
                 at_ii = ii;
                 attempts = Budget.attempts b;
                 elapsed_s = Budget.elapsed b;
               })
      | _ -> (
          let lineage = try_once ~ii ~assign in
          (* The from-scratch second chance, only when the lineage
             failed and the fresh partition differs. *)
          let fresh_try =
            match lineage with
            | Placed _ -> None
            | Failed _ | Rejected _ ->
                let f = Partition.Hier.initial hier ~ii in
                if f <> assign then Some (f, try_once ~ii ~assign:f) else None
          in
          match (lineage, fresh_try) with
          | Placed p, _ | _, Some (_, Placed p) -> finish ~mii ~counters p ii
          | (Failed _ | Rejected _), _ ->
              bump counters
                (match lineage with Failed c -> c | _ -> Registers);
              let here = level_sig ~assign lineage fresh_try in
              let streak =
                if here <> None && here = prev_sig then streak + 1 else 0
              in
              if streak >= stationary_limit then give_up ()
              else
                let ii = ii + 1 in
                walk ~streak ~prev_sig:here ii
                  (Partition.Hier.refine hier ~ii assign))
  in
  walk ~streak:0 ~prev_sig:None mii (Partition.Hier.initial hier ~ii:mii)

let default_cap mii = (16 * mii) + 64

(* Fault isolation around the whole pipeline: a typed {!Sched_error.E}
   (e.g. routing on a machine without buses) becomes its payload, any
   other exception — a raising transform hook, a scheduler bug — is
   captured as a classified [Internal] instead of tearing down the
   caller.  Out_of_memory is re-raised: nothing sensible can continue
   after it. *)
let guard f =
  try f () with
  | Sched_error.E err -> Error err
  | Out_of_memory -> raise Out_of_memory
  | exn -> Error (Sched_error.Internal (Printexc.to_string exn))

let hierarchy config g =
  let rec_mii = Ddg.Mii.rec_mii g in
  let mii = max (Ddg.Mii.res_mii config g) rec_mii in
  Partition.Hier.create ~rec_mii config g ~base_ii:mii

let schedule_loop ?transform ?max_ii ?(latency0 = false) ?spiller ?budget
    ?hier config g =
  (* rec_mii of the original graph is reused by every partition call of
     the escalation loop; compute the binary search once. *)
  let rec_mii =
    match hier with
    | Some h -> Partition.Hier.rec_mii h
    | None -> Ddg.Mii.rec_mii g
  in
  let mii = max (Ddg.Mii.res_mii config g) rec_mii in
  let cap = match max_ii with Some m -> m | None -> default_cap mii in
  if cap < mii then Error (Sched_error.Infeasible_partition { mii; cap })
  else begin
    (* A shared hierarchy must match what {!hierarchy} would build for
       this very call: partitions are pure in (config, graph, II), so
       any mismatch would silently change results instead of reusing
       them.  The register file is exempt — the partitioner never reads
       it, so one view serves a whole register family
       ({!Machine.Config.partition_compatible}). *)
    (match hier with
    | Some h
      when Partition.Hier.graph h != g
           || Partition.Hier.base_ii h <> mii
           || not
                (Machine.Config.partition_compatible
                   (Partition.Hier.config h) config) ->
        invalid_arg "Driver.schedule_loop: hierarchy from another loop"
    | _ -> ());
    guard (fun () ->
        let hier =
          match hier with
          | Some h -> h
          | None -> Partition.Hier.create ~rec_mii config g ~base_ii:mii
        in
        escalate ?transform ~latency0 ?spiller ?budget config g ~hier ~mii
          ~cap)
  end
