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
  let place v =
    let cluster = route.Route.assign.(v) in
    let early = ref None and late = ref None in
    List.iter
      (fun e ->
        let u = e.Graph.src in
        if scheduled u then begin
          let bound = cycles.(u) + e.latency - (ii * e.distance) in
          early :=
            Some (match !early with None -> bound | Some b -> max b bound)
        end)
      (Graph.preds g v);
    List.iter
      (fun e ->
        let w = e.Graph.dst in
        if scheduled w then begin
          let bound = cycles.(w) - e.latency + (ii * e.distance) in
          late := Some (match !late with None -> bound | Some b -> min b bound)
        end)
      (Graph.succs g v);
    let try_at cyc =
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
    let scan_up from until =
      let rec go c = c <= until && (try_at c || go (c + 1)) in
      go from
    in
    let scan_down from until =
      let rec go c = c >= until && (try_at c || go (c - 1)) in
      go from
    in
    let busy_reason () =
      if Route.is_copy route v then Bus_busy else Fu_busy
    in
    match (!early, !late) with
    | None, None ->
        let start = Analysis.asap analysis v in
        if not (scan_up start (start + ii - 1)) then fail v (busy_reason ())
    | Some e, None ->
        if not (scan_up e (e + ii - 1)) then fail v (busy_reason ())
    | None, Some l ->
        if not (scan_down l (l - ii + 1)) then fail v (busy_reason ())
    | Some e, Some l ->
        if e > l then fail v Window_closed
        else if not (scan_up e (min l (e + ii - 1))) then
          fail v (busy_reason ())
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
    Ok { Schedule.config; route; ii; cycles; buses }
  with Fail f -> Error f
