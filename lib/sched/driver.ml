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

(* What an attempt keeps of the placement the register check finally
   rejected: its MaxLive, its cycle and bus arrays, and how many spill
   rounds ran before it.  The stationarity check below compares these
   across levels, and a trace member with a larger register file may
   admit the placement: replay then rebuilds it from the attempt's
   transform and [Route.build] around these arrays. *)
type rejected = {
  r_pressure : int array;
  r_cycles : int array;
  r_buses : int array;
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
      n_comms = Route.n_copies p.p_schedule.Schedule.route;
    }

(* ------------------------------------------------------------------ *)
(* Route reuse across II levels                                        *)
(* ------------------------------------------------------------------ *)

(* Consecutive levels of one escalation frequently retry the same
   partition of the untransformed graph — the partitioner settles long
   before a register-capped walk gives up — and [Route.build] does not
   read the II at all, so the routed graph is cached per escalation,
   keyed by partition content.  A transformed or spilled graph is a
   fresh object at every attempt, so its route could never be found
   again: it bypasses the cache rather than keep dead routed graphs
   alive across the escalation.  The recurrence-feasibility check on
   the routed graph *is* II-dependent, but monotone (a longer period
   only loosens recurrences), so each entry caches its known feasibility
   frontier and the Bellman-Ford re-runs only inside the unknown gap.
   Each escalation owns its cache, so it needs no lock. *)
type route_entry = {
  re_assign : int array;
  re_route : Route.t;
  mutable re_feas : int;  (* smallest II known feasible *)
  mutable re_infeas : int;  (* largest II known infeasible *)
}

let route_cache_cap = 8

(* [rc] holds the entries newest first. *)
let route_for (rc : route_entry list ref) ~latency0 config g ~assign =
  match List.find_opt (fun e -> e.re_assign = assign) !rc with
  | Some e -> e
  | None ->
      let entry =
        {
          re_assign = Array.copy assign;
          re_route = Route.build ~latency0 config g ~assign;
          re_feas = max_int;
          re_infeas = min_int;
        }
      in
      rc := entry :: List.filteri (fun i _ -> i < route_cache_cap - 1) !rc;
      entry

let route_feasible entry ii =
  if ii >= entry.re_feas then true
  else if ii <= entry.re_infeas then false
  else begin
    let b = Ddg.Mii.feasible_ii entry.re_route.Route.graph ii in
    if b then entry.re_feas <- ii else entry.re_infeas <- ii;
    b
  end

(* An uncached route and its recurrence-feasibility test. *)
let route_uncached ~latency0 config g' assign' =
  let route = Route.build ~latency0 config g' ~assign:assign' in
  (route, Ddg.Mii.feasible_ii route.Route.graph)

(* The transform hook at one attempt: the graph and partition the
   attempt schedules. *)
let transformed ?transform config g ~assign ~ii =
  match transform with
  | None -> (g, assign)
  | Some f -> (
      match
        Profile.time Profile.Replication (fun () -> f config g ~assign ~ii)
      with
      | Some (g', a') -> (g', a')
      | None -> (g, assign))

let max_spill_rounds = 4

(* One spill round splits one live range: it removes at most one value
   from a cluster's peak window, so a summed per-cluster excess beyond
   the remaining rounds cannot be spilled down to the limit. *)
let spillable ~limit pressure spills_left =
  spills_left > 0
  && Array.fold_left (fun acc p -> acc + max 0 (p - limit)) 0 pressure
     <= spills_left

(* Bus check, routing, placement and the register check of one graph
   at a fixed II.  [route] supplies the routed graph and its
   recurrence-feasibility test. *)
let rec place ~latency0 ?spiller ~route config ~ii g' assign' spills_left =
  if Comm.extra config g' ~assign:assign' ~ii > 0 then Failed Bus
  else begin
    let routed, feasible = route g' assign' in
    if not (feasible ii) then
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
          settle ~latency0 ?spiller ~route config ~ii
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
and settle ~latency0 ?spiller ~route config ~ii p spills_left =
  let limit = Machine.Config.registers_per_cluster config in
  if latency0 || Array.for_all (fun x -> x <= limit) p.p_pressure then
    Placed p
  else
    let fail () =
      Rejected
        {
          r_pressure = p.p_pressure;
          r_cycles = p.p_schedule.Schedule.cycles;
          r_buses = p.p_schedule.Schedule.buses;
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
            place ~latency0 ?spiller ~route config ~ii g'' a''
              (spills_left - 1)
        | None -> fail ())
    | _ -> fail ()

(* One full attempt — transform hook, bus check, routing, placement,
   register check (with optional spill-and-retry) — at a fixed II and
   partition.  Only the untransformed graph goes through the route
   cache (see above). *)
let try_once ?transform ~latency0 ?spiller ~rcache config g ~ii ~assign =
  let g', assign' = transformed ?transform config g ~assign ~ii in
  let route g' assign' =
    if g' == g then
      let entry = route_for rcache ~latency0 config g ~assign:assign' in
      (entry.re_route, route_feasible entry)
    else route_uncached ~latency0 config g' assign'
  in
  place ~latency0 ?spiller ~route config ~ii g' assign' max_spill_rounds

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
    config g ~hier ~mii ~cap ~counters ii0 assign0 =
  let give_up () = Error (Sched_error.Escalation_cap { mii; cap }) in
  let rcache = ref [] in
  let try_once ~ii ~assign =
    try_once ?transform ~latency0 ?spiller ~rcache config g ~ii ~assign
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
                walk ~streak ~prev_sig:here ii
                  (Partition.Hier.refine hier ~ii assign))
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
    let counters = { c_bus = 0; c_recur = 0; c_regs = 0 } in
    guard (fun () ->
        let hier =
          match hier with
          | Some h -> h
          | None -> Partition.Hier.create ~rec_mii config g ~base_ii:mii
        in
        escalate ?transform ~latency0 ?spiller ?budget config g ~hier ~mii
          ~cap ~counters mii
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
    (* Set where the walk finishes (see {!basis}). *)
    let basis = ref `Pure in
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
    (* Whether any spill round ran: its rewrites could rescue levels
       beyond the trace (see [continue_failed] below). *)
    let spilled = ref false in
    let spiller =
      Option.map
        (fun f config s ~graph ~assign ->
          spilled := true;
          f config s ~graph ~assign)
        spiller
    in
    let go_live ii assign =
      basis := `Live;
      escalate ?transform ?spiller config g ~hier ~mii:t.t_mii ~cap:t.t_cap
        ~counters ii assign
    in
    let finish_at b ii p =
      basis := b;
      finish ~mii:t.t_mii ~counters p ii
    in
    (* The placement a direct member run reaches at a recorded rejected
       attempt from partition [pre]: the member's transform runs there
       exactly as in a direct run (which also leaves the hook's state
       describing this attempt), the result is re-routed, and the
       recorded arrays are reattached.  Placement never reads the
       register file, so no placement search runs again.  Recordings
       carry no spiller, so a recorded rejection is always the attempt's
       first placement. *)
    let rebuild ~ii ~pre r =
      let g', assign' = transformed ?transform config g ~assign:pre ~ii in
      {
        p_schedule =
          {
            Schedule.config;
            route = Route.build config g' ~assign:assign';
            ii;
            cycles = r.r_cycles;
            buses = r.r_buses;
          };
        p_graph = g';
        p_assign = assign';
        p_pressure = r.r_pressure;
      }
    in
    (* Judge a recorded attempt under this register file, as a direct
       member run would end it: [`Fit (p, b)] — the walk finishes here
       with placement [p] on basis [b]; [`Fail c] — the attempt fails
       here too, with cause [c].  Bus and recurrence failures are
       register-invariant.  A recorded placement — the success, or a
       rejection the member's file admits (promotion) or may spill down
       to it — goes through the member's register check and spill
       rounds, the very step [try_once] ends with.  Spill rewrites never
       survive a failed attempt, so the recorded continuation still
       applies afterwards. *)
    let judge ~ii ~pre result =
      let settled b p =
        match
          settle ~latency0:false ?spiller
            ~route:(route_uncached ~latency0:false config)
            config ~ii p max_spill_rounds
        with
        | Placed p -> `Fit (p, b)
        | Failed c -> `Fail c
        | Rejected _ -> `Fail Registers
      in
      match result with
      | Failed c -> `Fail c
      | Placed p ->
          settled `Pure
            { p with p_schedule = { p.p_schedule with Schedule.config } }
      | Rejected r ->
          if
            Array.for_all (fun x -> x <= limit) r.r_pressure
            || (spiller <> None
               && spillable ~limit r.r_pressure max_spill_rounds)
          then settled `Hook (rebuild ~ii ~pre r)
          else `Fail Registers
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
          match judge ~ii:level.l_ii ~pre:level.l_assign level.l_lineage with
          | `Fit (p, b) -> finish_at b level.l_ii p
          | `Fail cause -> (
              match level.l_fresh with
              | Some (fa, fr) -> (
                  match judge ~ii:level.l_ii ~pre:fa fr with
                  | `Fit (p, b) -> finish_at b level.l_ii p
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
    (result, !basis)
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
