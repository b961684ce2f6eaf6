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

(* A successful placement carries everything [finish] needs plus the
   MaxLive vector, so a trace replay can re-judge the same schedule
   against a smaller register file without rescheduling. *)
type placed = {
  p_schedule : Schedule.t;
  p_graph : Ddg.Graph.t;
  p_assign : int array;
  p_pressure : int array;  (* MaxLive per cluster; [||] in latency0 mode *)
}

(* How an attempt ended.  [Rejected] keeps the placement the register
   check finally rejected and how many spill rounds ran before it: a
   trace member with a larger register file than the recording admits
   exactly that placement, so the replay can promote it to the member's
   success without rescheduling, and the stationarity check below
   compares consecutive levels' rejections. *)
type attempt_result =
  | Placed of placed
  | Failed of cause  (** bus or recurrence *)
  | Rejected of { placed : placed; rounds : int }
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
      n_comms = Route.n_copies p.p_schedule.Schedule.route;
    }

(* ------------------------------------------------------------------ *)
(* Route reuse across II levels                                        *)
(* ------------------------------------------------------------------ *)

(* Consecutive levels of one escalation frequently retry the same
   (graph, partition) pair — the partitioner settles long before a
   register-capped walk gives up — and [Route.build] does not read the
   II at all, so the routed graph is cached per escalation, keyed by
   graph identity and partition content.  The recurrence-feasibility
   check on the routed graph *is* II-dependent, but monotone (a longer
   period only loosens recurrences), so each entry caches its known
   feasibility frontier and the Bellman-Ford re-runs only inside the
   unknown gap.  Each escalation owns its cache, so it needs no lock. *)
type route_entry = {
  re_graph : Ddg.Graph.t;  (* physical identity key *)
  re_assign : int array;
  re_route : Route.t;
  mutable re_feas : int;  (* smallest II known feasible *)
  mutable re_infeas : int;  (* largest II known infeasible *)
}

let route_cache_cap = 8

(* [rc] holds the entries newest first. *)
let route_for (rc : route_entry list ref) ~latency0 config g ~assign =
  match
    List.find_opt (fun e -> e.re_graph == g && e.re_assign = assign) !rc
  with
  | Some e -> e
  | None ->
      let entry =
        {
          re_graph = g;
          re_assign = Array.copy assign;
          re_route = Route.build ~latency0 config g ~assign;
          re_feas = max_int;
          re_infeas = min_int;
        }
      in
      rc := entry :: List.filteri (fun i _ -> i < route_cache_cap - 1) !rc;
      entry

let route_feasible entry ~ii =
  if ii >= entry.re_feas then true
  else if ii <= entry.re_infeas then false
  else begin
    let b = Ddg.Mii.feasible_ii entry.re_route.Route.graph ii in
    if b then entry.re_feas <- ii else entry.re_infeas <- ii;
    b
  end

(* One full attempt — transform hook, bus check, routing, placement,
   register check (with optional spill-and-retry) — at a fixed II and
   partition. *)
let try_once ?transform ~latency0 ?spiller ~reuse ~rcache config g ~ii
    ~assign =
  let g0', assign0' =
    match transform with
    | None -> (g, assign)
    | Some f -> (
        match
          Profile.time Profile.Replication (fun () ->
              f config g ~assign ~ii)
        with
        | Some (g', a') -> (g', a')
        | None -> (g, assign))
  in
  let limit = Machine.Config.registers_per_cluster config in
  let rec route_and_place g' assign' spills_left =
    if Comm.extra config g' ~assign:assign' ~ii > 0 then Failed Bus
    else begin
      (* Only the graph the attempt started from goes through the route
         cache: consecutive levels retry it with settled partitions, so
         it hits.  Spill rounds rewrite the graph every time — caching
         those routes can never hit and only churns the cache (and keeps
         dead routed graphs alive across the escalation). *)
      let cached = reuse && spills_left = 4 in
      let route, feasible =
        if cached then begin
          let entry = route_for rcache ~latency0 config g' ~assign:assign' in
          (entry.re_route, fun () -> route_feasible entry ~ii)
        end
        else begin
          let route = Route.build ~latency0 config g' ~assign:assign' in
          (route, fun () -> Ddg.Mii.feasible_ii route.Route.graph ii)
        end
      in
      if not (feasible ()) then
        (* Copies stretched a recurrence beyond the current II: the bus
           latency is to blame (the plain graph is feasible at
           ii >= mii). *)
        Failed Bus
      else
        match Place.try_schedule config route ~ii with
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
            let placed =
              {
                p_schedule = schedule;
                p_graph = g';
                p_assign = assign';
                p_pressure = pressure;
              }
            in
            if latency0 || Array.for_all (fun p -> p <= limit) pressure then
              Placed placed
            else begin
              let fail () = Rejected { placed; rounds = 4 - spills_left } in
              (* One spill round splits one live range: it removes at
                 most one value from a cluster's peak window, so a
                 summed per-cluster excess beyond the remaining rounds
                 cannot be spilled down to the limit — skip the rounds
                 and escalate (saves 4 rewrite-route-place rounds per
                 level on hopelessly overflowing loops). *)
              let excess =
                Array.fold_left
                  (fun acc p -> acc + max 0 (p - limit))
                  0 pressure
              in
              match spiller with
              | Some f when spills_left > 0 && excess <= spills_left -> (
                  match
                    Profile.time Profile.Regalloc (fun () ->
                        f config schedule ~graph:g' ~assign:assign')
                  with
                  | Some (g'', a'') -> route_and_place g'' a'' (spills_left - 1)
                  | None -> fail ())
              | _ -> fail ()
            end
    end
  in
  route_and_place g0' assign0' 4

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
  | Rejected { placed; rounds } ->
      Some (placed.p_pressure, placed.p_schedule.Schedule.cycles, rounds)
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

(* One II level of the escalation as the recorder sees it: the refined
   lineage attempt and, when the lineage failed and a from-scratch
   partition differed, the second-chance attempt. *)
type level = {
  l_ii : int;
  l_assign : int array;  (* lineage partition the level started from *)
  l_lineage : attempt_result;
  l_fresh : (int array * attempt_result) option;
      (* the from-scratch partition and its attempt; [None] when the
         lineage attempt succeeded, or when the fresh partition was
         identical to the lineage one (no second try) *)
}

(* The Figure-2 escalation loop from an arbitrary (ii, assign) state.
   [on_level] observes every II level tried, for trace recording.
   [budget] is spent before every level runs; both the cap and the
   stationarity cut report the same {!Sched_error.Escalation_cap} (the
   cut is an early conclusion of the walk-to-cap failure, so direct runs
   and trace replays — which may cut at different IIs — stay observably
   equal). *)
let escalate ?transform ?(latency0 = false) ?spiller ?on_level ?budget
    ?(reuse = true) config g ~hier ~mii ~cap ~counters ii0 assign0 =
  let give_up () = Error (Sched_error.Escalation_cap { mii; cap }) in
  let rcache = ref [] in
  let try_once ~ii ~assign =
    try_once ?transform ~latency0 ?spiller ~reuse ~rcache config g ~ii ~assign
  in
  (* [reuse = false] reproduces the pre-hierarchy walk for A/B
     benchmarking: every fresh partition re-coarsens from scratch at the
     level's II and nothing is routed through the cache. *)
  let fresh_at ii =
    if reuse then Partition.Hier.initial hier ~ii
    else
      Partition.initial ~rec_mii:(Partition.Hier.rec_mii hier) config g ~ii
  in
  let refine_to ~ii assign =
    if reuse then Partition.Hier.refine hier ~ii assign
    else
      Partition.refine ~rec_mii:(Partition.Hier.rec_mii hier) config g ~ii
        assign
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
                let f = fresh_at ii in
                if f <> assign then Some (f, try_once ~ii ~assign:f) else None
          in
          (match on_level with
          | Some observe ->
              observe
                {
                  l_ii = ii;
                  l_assign = assign;
                  l_lineage = lineage;
                  l_fresh = fresh_try;
                }
          | None -> ());
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
                walk ~streak ~prev_sig:here ii (refine_to ~ii assign))
  in
  walk ~streak:0 ~prev_sig:None ii0 assign0

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
    ?reuse ?hier config g =
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
    let counters = { c_bus = 0; c_recur = 0; c_regs = 0 } in
    guard (fun () ->
        let hier =
          match hier with
          | Some h -> h
          | None -> Partition.Hier.create ~rec_mii config g ~base_ii:mii
        in
        escalate ?transform ~latency0 ?spiller ?budget ?reuse config g ~hier
          ~mii ~cap ~counters mii
          (Partition.Hier.initial hier ~ii:mii))
  end

(* ------------------------------------------------------------------ *)
(* Escalation traces: schedule once, answer a register family           *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type t = {
    t_config : Machine.Config.t;
    t_graph : Ddg.Graph.t;
    t_rec_mii : int;
    t_mii : int;
    t_cap : int;
    t_levels : level list;  (* in escalation order, MII upward *)
    t_result : (outcome, Sched_error.t) result;
  }

  type basis = [ `Pure | `Hook | `Live ]

  let config t = t.t_config
  let result t = t.t_result

  let record ?transform ?max_ii ?budget ?hier config g =
    let rec_mii =
      match hier with
      | Some h -> Partition.Hier.rec_mii h
      | None -> Ddg.Mii.rec_mii g
    in
    let mii = max (Ddg.Mii.res_mii config g) rec_mii in
    (match hier with
    | Some h
      when Partition.Hier.graph h != g
           || Partition.Hier.base_ii h <> mii
           || not
                (Machine.Config.partition_compatible
                   (Partition.Hier.config h) config) ->
        invalid_arg "Driver.Trace.record: hierarchy from another loop"
    | _ -> ());
    let cap = match max_ii with Some m -> m | None -> default_cap mii in
    let counters = { c_bus = 0; c_recur = 0; c_regs = 0 } in
    let levels = ref [] in
    let result =
      if cap < mii then Error (Sched_error.Infeasible_partition { mii; cap })
      else
        guard (fun () ->
            let hier =
              match hier with
              | Some h -> h
              | None -> Partition.Hier.create ~rec_mii config g ~base_ii:mii
            in
            escalate ?transform
              ~on_level:(fun l -> levels := l :: !levels)
              ?budget config g ~hier ~mii ~cap ~counters mii
              (Partition.Hier.initial hier ~ii:mii))
    in
    {
      t_config = config;
      t_graph = g;
      t_rec_mii = rec_mii;
      t_mii = mii;
      t_cap = cap;
      t_levels = List.rev !levels;
      t_result = result;
    }

  (* Everything except the register-file size matches: partitioning,
     routing and placement only look at these fields, so every recorded
     attempt is valid verbatim for the whole family. *)
  let same_family = Machine.Config.partition_compatible

  let replay ?transform ?spiller ?hier t config =
    if not (same_family t.t_config config) then
      invalid_arg "Driver.Trace.replay: config outside the recorded family";
    let g = t.t_graph in
    (match hier with
    | Some h
      when Partition.Hier.graph h != g
           || Partition.Hier.base_ii h <> t.t_mii
           || not
                (Machine.Config.partition_compatible
                   (Partition.Hier.config h) config) ->
        invalid_arg "Driver.Trace.replay: hierarchy from another loop"
    | _ -> ());
    let limit = Machine.Config.registers_per_cluster config in
    let counters = { c_bus = 0; c_recur = 0; c_regs = 0 } in
    let live = ref false in
    let hook = ref false in
    (* A live continuation must stand exactly where a from-scratch run
       would: its hierarchy is seeded at the trace's MII, so the fresh
       partitions it derives match a direct [schedule_loop]'s.  Creation
       is cheap (the skeleton computes itself on first use), so pure
       replays pay nothing. *)
    let hier =
      match hier with
      | Some h -> h
      | None ->
          Partition.Hier.create ~rec_mii:t.t_rec_mii config g ~base_ii:t.t_mii
    in
    let go_live ii assign =
      live := true;
      escalate ?transform ?spiller config g ~hier ~mii:t.t_mii ~cap:t.t_cap
        ~counters ii assign
    in
    let refit p =
      { p with p_schedule = { p.p_schedule with Schedule.config } }
    in
    (* Restore the transform hook's internal state (e.g. the replication
       pass's last-run stats) to what a direct member run's final
       invocation would have left: the member finishes at this level
       from [pre], while the recording's own final invocation happened
       at a later level. *)
    let rehook ~pre ~ii =
      match transform with
      | Some f ->
          ignore
            (Profile.time Profile.Replication (fun () ->
                 f config g ~assign:pre ~ii));
          hook := true
      | None -> ()
    in
    (* Judge a recorded attempt under this register file.  [`Fit]: the
       member run produces exactly this placement — either the recorded
       schedule is within the limit, or (promotion, [promoted = true])
       the recording rejected it only because its own file was smaller
       and the member's admits it.  [`Fail c]: the attempt fails here
       too, with the same cause — recorded bus/recurrence failures are
       register-invariant, and a rejected placement's pressure exceeds
       the member limit too.  [`Spill p]: the member overflows on
       placement [p] and a spiller is installed — [p] is exactly the
       placement a direct member run reaches, so the member's
       spill-and-retry rounds run live from it ([spill_rounds] below). *)
    let judge result =
      let fit p ~promoted =
        if Array.for_all (fun x -> x <= limit) p.p_pressure then
          `Fit (p, promoted)
        else if spiller = None then `Fail Registers
        else `Spill p
      in
      match result with
      | Placed p -> fit p ~promoted:false
      | Rejected { placed; _ } -> fit placed ~promoted:true
      | Failed c -> `Fail c
    in
    (* The member's spill-and-retry rounds, live, from a recorded
       placement its file rejects — exactly [try_once]'s rounds: the
       spiller rewrites, the rewrite is bus-checked, routed (uncached,
       as in a direct run's spill rounds) and re-placed at the same II,
       at most 4 rounds.  A fitting round ends the member's walk at this
       II.  Exhaustion — or a declining spiller — fails the attempt with
       the final round's cause; spill rewrites never survive an attempt,
       so the recorded continuation applies again afterwards. *)
    let spilled = ref false in
    let spill_rounds ~ii p0 =
      let f = Option.get spiller in
      (* same hopelessness gate as [try_once]: a round removes at most
         one value from a cluster's peak *)
      let excess (p : placed) =
        Array.fold_left (fun acc x -> acc + max 0 (x - limit)) 0 p.p_pressure
      in
      let rec go (p : placed) spills_left =
        if spills_left <= 0 || excess p > spills_left then `Fail Registers
        else begin
          spilled := true;
          match
            Profile.time Profile.Regalloc (fun () ->
                f config p.p_schedule ~graph:p.p_graph ~assign:p.p_assign)
          with
          | None -> `Fail Registers
          | Some (g'', a'') ->
              if Comm.extra config g'' ~assign:a'' ~ii > 0 then `Fail Bus
              else
                let route = Route.build ~latency0:false config g'' ~assign:a'' in
                if not (Ddg.Mii.feasible_ii route.Route.graph ii) then
                  `Fail Bus
                else (
                  match Place.try_schedule config route ~ii with
                  | Error pf ->
                      `Fail
                        (if pf.Place.copy_involved then Bus else Recurrence)
                  | Ok schedule ->
                      let pressure =
                        Profile.time Profile.Regalloc (fun () ->
                            Regpressure.max_per_cluster schedule)
                      in
                      let p' =
                        {
                          p_schedule = schedule;
                          p_graph = g'';
                          p_assign = a'';
                          p_pressure = pressure;
                        }
                      in
                      if Array.for_all (fun x -> x <= limit) pressure then
                        `Placed p'
                      else go p' (spills_left - 1))
        end
      in
      go p0 4
    in
    (* Judge, then settle any [`Spill] live: a fitting spill round is a
       success at this II that the recording (spiller-less) walked past —
       finished like a promoted fit, re-invoking the member transform
       there; an exhausted sequence is this attempt's failure, with the
       final round's cause. *)
    let resolve ~ii result =
      match judge result with
      | `Spill p -> (
          match spill_rounds ~ii p with
          | `Placed p' -> `Fit (p', true)
          | `Fail c -> `Fail c)
      | (`Fit _ | `Fail _) as r -> r
    in
    (* A promoted fit ends the member's walk at an attempt the recording
       walked past: re-run the member's transform there so hook state
       matches a direct run. *)
    let finish_fit ~pre ~promoted ii p =
      if promoted then rehook ~pre ~ii;
      finish ~mii:t.t_mii ~counters (refit p) ii
    in
    let rec walk = function
      | [] ->
          (* No level was ever attempted: the cap sat below the MII. *)
          Error
            (Sched_error.Infeasible_partition { mii = t.t_mii; cap = t.t_cap })
      | level :: rest -> (
          let continue_failed cause =
            bump counters cause;
            match rest with
            | _ :: _ -> walk rest
            | [] -> (
                (* Trace dry: the recording stopped at this II.  If it
                   concluded the walk-to-cap failure, so does every
                   family member: attempts are mechanically identical
                   across register counts, every rejected placement was
                   already judged against this member's limit, and the
                   stationarity signatures that cut the recording cut
                   the member at the same level — unless spill rounds
                   ran, whose rewrites could rescue levels beyond the
                   trace.  Otherwise resume the live loop exactly where
                   a from-scratch run would stand: next II, refined
                   lineage partition. *)
                match t.t_result with
                | Error (Sched_error.Escalation_cap _ as e) when not !spilled
                  ->
                    Error e
                | _ ->
                    let ii = level.l_ii + 1 in
                    go_live ii (Partition.Hier.refine hier ~ii level.l_assign))
          in
          match resolve ~ii:level.l_ii level.l_lineage with
          | `Fit (p, promoted) ->
              finish_fit ~pre:level.l_assign ~promoted level.l_ii p
          | `Fail cause -> (
              match level.l_fresh with
              | Some (fa, fr) -> (
                  match resolve ~ii:level.l_ii fr with
                  | `Fit (p, promoted) ->
                      finish_fit ~pre:fa ~promoted level.l_ii p
                  | `Fail _ -> continue_failed cause)
              | None -> (
                  (* The recording never tried a fresh partition here:
                     either its lineage attempt succeeded (so the oracle's
                     behaviour past the register check is unrecorded —
                     explore it live), or the fresh partition was
                     identical to the lineage one (then a live run skips
                     it too). *)
                  match level.l_lineage with
                  | Placed _ -> go_live level.l_ii level.l_assign
                  | Failed _ | Rejected _ -> continue_failed cause)))
    in
    (* Same fault isolation as a direct run: replays must stay
       observably equal to [schedule_loop], failures included. *)
    let result = guard (fun () -> walk t.t_levels) in
    let basis : basis =
      if !live then `Live else if !hook then `Hook else `Pure
    in
    (result, basis)
end

let schedule_sweep ?transform ?max_ii ?budget ?spiller_for configs g =
  match configs with
  | [] -> []
  | c0 :: _ ->
      let permissive =
        List.fold_left
          (fun best c ->
            if
              c.Machine.Config.total_registers
              > best.Machine.Config.total_registers
            then c
            else best)
          c0 configs
      in
      let trace = Trace.record ?transform ?max_ii ?budget permissive g in
      List.map
        (fun c ->
          let spiller =
            match spiller_for with None -> None | Some f -> f c
          in
          let result, _live = Trace.replay ?transform ?spiller trace c in
          (c, result))
        configs
