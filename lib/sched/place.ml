open Ddg

type reason = Window_closed | Fu_busy | Bus_busy

type failure = { node : int; reason : reason; copy_involved : bool }

let try_schedule config route ~ii =
  let g = route.Route.graph in
  let n = Graph.n_nodes g in
  (* The slack analysis and the node ordering are one profiling phase;
     the placement loop below is another (they nest under no common
     wrapper, so the profile reports them exclusively). *)
  let analysis, order =
    Profile.time Profile.Ordering (fun () ->
        let analysis = Analysis.compute g ~ii in
        (analysis, Ordering.order ~analysis g ~ii))
  in
  Profile.time Profile.Placement @@ fun () ->
  let mrt = Mrt.create config ~ii in
  let cycles = Array.make n 0 in
  let buses = Array.make n (-1) in
  (* Cycles may be negative during placement, so an explicit flag tracks
     which nodes have been placed. *)
  let placed = Array.make n false in
  let scheduled v = placed.(v) in
  let exception Fail of failure in
  let neighbour_is_copy v =
    List.exists (fun e -> Route.is_copy route e.Graph.src && scheduled e.Graph.src)
      (Graph.preds g v)
    || List.exists
         (fun e -> Route.is_copy route e.Graph.dst && scheduled e.Graph.dst)
         (Graph.succs g v)
  in
  let fail v reason =
    raise (Fail { node = v; reason;
                  copy_involved = Route.is_copy route v || neighbour_is_copy v })
  in
  (* Issue [v] in [cluster] at [cyc] if its unit (and, for a copy, a
     bus) is free there.  This and the scans below are defined once per
     call, not once per node. *)
  let try_at v cluster cyc =
    if Route.is_copy route v then begin
      (* On machines with copy_uses_int_slot, the transfer also issues
         through an integer unit of the producer's cluster. *)
      let needs_int = config.Machine.Config.copy_uses_int_slot in
      let int_ok =
        (not needs_int)
        || Mrt.fu_available mrt ~cluster ~kind:Machine.Fu.Int ~cycle:cyc
      in
      if not int_ok then false
      else
        match Mrt.find_bus mrt ~cycle:cyc with
        | Some b ->
            if needs_int then
              Mrt.reserve_fu mrt ~cluster ~kind:Machine.Fu.Int ~cycle:cyc;
            Mrt.reserve_bus mrt ~bus:b ~cycle:cyc;
            cycles.(v) <- cyc;
            placed.(v) <- true;
            buses.(v) <- b;
            true
        | None -> false
    end
    else begin
      match Machine.Opclass.fu_kind (Graph.op g v) with
      | None -> assert false (* only copies lack a functional unit *)
      | Some kind ->
          if Mrt.fu_available mrt ~cluster ~kind ~cycle:cyc then begin
            Mrt.reserve_fu mrt ~cluster ~kind ~cycle:cyc;
            cycles.(v) <- cyc;
            placed.(v) <- true;
            true
          end
          else false
    end
  in
  (* Cycles may be negative during placement (SMS schedules relative to
     whatever was placed first and normalizes at the end); the modulo
     reservation table uses floor-mod, so slots stay consistent. *)
  let rec scan_up v cluster c until =
    c <= until && (try_at v cluster c || scan_up v cluster (c + 1) until)
  in
  let rec scan_down v cluster c until =
    c >= until && (try_at v cluster c || scan_down v cluster (c - 1) until)
  in
  (* The dependence window: the latest cycle a placed predecessor allows
     ([min_int] while none is placed) and the earliest a placed successor
     allows ([max_int] while none is). *)
  let rec early_bound early = function
    | [] -> early
    | e :: rest ->
        let u = e.Graph.src in
        let early =
          if scheduled u then
            let bound = cycles.(u) + e.latency - (ii * e.distance) in
            if bound > early then bound else early
          else early
        in
        early_bound early rest
  in
  let rec late_bound late = function
    | [] -> late
    | e :: rest ->
        let w = e.Graph.dst in
        let late =
          if scheduled w then
            let bound = cycles.(w) - e.latency + (ii * e.distance) in
            if bound < late then bound else late
          else late
        in
        late_bound late rest
  in
  let busy_reason v = if Route.is_copy route v then Bus_busy else Fu_busy in
  let place v =
    let cluster = route.Route.assign.(v) in
    let early = early_bound min_int (Graph.preds g v) in
    let late = late_bound max_int (Graph.succs g v) in
    match (early > min_int, late < max_int) with
    | false, false ->
        let start = Analysis.asap analysis v in
        if not (scan_up v cluster start (start + ii - 1)) then
          fail v (busy_reason v)
    | true, false ->
        if not (scan_up v cluster early (early + ii - 1)) then
          fail v (busy_reason v)
    | false, true ->
        if not (scan_down v cluster late (late - ii + 1)) then
          fail v (busy_reason v)
    | true, true ->
        if early > late then fail v Window_closed
        else if not (scan_up v cluster early (min late (early + ii - 1))) then
          fail v (busy_reason v)
  in
  try
    List.iter place order;
    assert (Array.for_all Fun.id placed || n = 0);
    (* Normalize: shift the whole schedule so the first issue is cycle 0.
       A uniform shift preserves every dependence and merely rotates the
       modulo reservation pattern. *)
    let mn = Array.fold_left min max_int cycles in
    let mn = if n = 0 then 0 else mn in
    if mn <> 0 then
      Array.iteri (fun v c -> cycles.(v) <- c - mn) cycles;
    Ok { Schedule.config; routing = Routed route; ii; cycles; buses }
  with Fail f -> Error f
