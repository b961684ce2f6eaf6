open Ddg

(* Reachability over all dependence edges (any distance): one bool row
   per node, computed lazily.  The placement driver re-orders the routed
   graph at every II attempt, so this runs thousands of times per suite;
   rows are Bytes, and only recurrence-set members ever need one —
   graphs with fewer than two recurrences compute none at all. *)
let reach_rows g step_of far_end =
  let n = Graph.n_nodes g in
  let rows = Array.make n None in
  fun v ->
    match rows.(v) with
    | Some row -> row
    | None ->
        let seen = Bytes.make n '\000' in
        let queue = Queue.create () in
        Queue.add v queue;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          List.iter
            (fun e ->
              let w = far_end e in
              if Bytes.unsafe_get seen w = '\000' then begin
                Bytes.unsafe_set seen w '\001';
                Queue.add w queue
              end)
            (step_of u)
        done;
        rows.(v) <- Some seen;
        seen

let descendants g = reach_rows g (Graph.succs g) (fun e -> e.Graph.dst)
let ancestors g = reach_rows g (Graph.preds g) (fun e -> e.Graph.src)

let union into row =
  let n = Bytes.length into in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get row i = '\001' then Bytes.unsafe_set into i '\001'
  done

let order ?analysis g ~ii =
  let n = Graph.n_nodes g in
  if n = 0 then []
  else begin
    (* analysis at max ii (rec_mii g), without the rec_mii binary search:
       when ii is already feasible the max is ii itself, which is the
       common case (the driver only places at feasible IIs).  A caller
       that already holds [Analysis.compute g ~ii] passes it in — its
       existence proves feasibility. *)
    let analysis =
      match analysis with
      | Some a -> a
      | None ->
          let analysis_ii =
            if Mii.feasible_ii g ii then ii else Mii.rec_mii g
          in
          Analysis.compute g ~ii:analysis_ii
    in
    let desc_row = descendants g in
    let anc_row = ancestors g in
    (* Build the SMS node sets: recurrences by decreasing RecMII, each
       extended with the nodes lying on paths from/to the already grouped
       nodes; one final set with everything else.  RecMII only breaks
       ties between recurrences, so it is not computed when there are
       fewer than two. *)
    let nontrivial = function
      | [ v ] -> List.exists (fun e -> e.Graph.dst = v) (Graph.succs g v)
      | _ -> true
    in
    let recurrences =
      match List.filter nontrivial (Scc.groups g) with
      | ([] | [ _ ]) as recs -> recs
      | recs ->
          List.map (fun c -> (Scc.rec_mii_of g c, c)) recs
          |> List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare b a)
          |> List.map snd
    in
    let grouped = Array.make n false in
    let rev_sets = ref [] in
    (* A node v joins the current recurrence's set when it lies on a path
       between an earlier set and this one, in either direction:

         exists p in previous, m in members.
           (p ->* v && v ->* m) || (m ->* v && v ->* p)

       p and m are quantified independently in each disjunct, so the test
       factors into four reachability bitsets — from/to any previous node
       (accumulated across sets) and from/to any member — and needs BFS
       rows only for set members, never for the candidates.  Rows of a
       finished set are folded in lazily ([pending]): a graph whose last
       recurrence is reached never pays for them. *)
    let from_prev = Bytes.make n '\000' in
    let to_prev = Bytes.make n '\000' in
    let pending = ref [] in
    List.iter
      (fun c ->
        let members = List.filter (fun v -> not grouped.(v)) c in
        if members <> [] then begin
          let path_nodes =
            if !rev_sets = [] then []  (* no previous set: nothing to pull *)
            else begin
              List.iter
                (fun p ->
                  union from_prev (desc_row p);
                  union to_prev (anc_row p))
                !pending;
              pending := [];
              let in_members = Array.make n false in
              List.iter (fun v -> in_members.(v) <- true) members;
              let from_mem = Bytes.make n '\000' in
              let to_mem = Bytes.make n '\000' in
              List.iter
                (fun m ->
                  union from_mem (desc_row m);
                  union to_mem (anc_row m))
                members;
              let on_path v =
                (not grouped.(v))
                && (not in_members.(v))
                && ((Bytes.get from_prev v = '\001'
                    && Bytes.get to_mem v = '\001')
                   || (Bytes.get from_mem v = '\001'
                      && Bytes.get to_prev v = '\001'))
              in
              List.filter on_path (Graph.nodes g)
            end
          in
          let set = members @ path_nodes in
          List.iter (fun v -> grouped.(v) <- true) set;
          pending := set;
          rev_sets := set :: !rev_sets
        end)
      recurrences;
    let rest = List.filter (fun v -> not grouped.(v)) (Graph.nodes g) in
    let sets =
      List.rev_append !rev_sets (if rest = [] then [] else [ rest ])
    in
    (* Ordering phase: alternate bottom-up (pick max depth) and top-down
       (pick max height) sweeps, seeding each sweep with the neighbours of
       the nodes ordered so far. *)
    let ordered = Array.make n false in
    let out = ref [] in
    let emit v =
      if not ordered.(v) then begin
        ordered.(v) <- true;
        out := v :: !out
      end
    in
    (* Max pick under (primary, -mobility, -v): the [-v] tiebreak makes
       keys distinct, so any representation of the candidate set selects
       the same node — compared unboxed here, this is the sweep's inner
       loop. *)
    let pick_best candidates primary =
      List.fold_left
        (fun best v ->
          match best with
          | None -> Some v
          | Some b ->
              let pv = primary v and pb = primary b in
              if
                pv > pb
                || (pv = pb
                   &&
                   let mv = Analysis.mobility analysis v
                   and mb = Analysis.mobility analysis b in
                   mv < mb || (mv = mb && v < b))
              then Some v
              else Some b)
        None candidates
    in
    let in_set = Array.make n false in
    let preds_in v =
      List.filter_map
        (fun e ->
          let u = e.Graph.src in
          if in_set.(u) && not ordered.(u) then Some u else None)
        (Graph.preds g v)
    in
    let succs_in v =
      List.filter_map
        (fun e ->
          let w = e.Graph.dst in
          if in_set.(w) && not ordered.(w) then Some w else None)
        (Graph.succs g v)
    in
    let in_frontier = Array.make n false in
    let handle_set set =
      List.iter (fun v -> in_set.(v) <- true) set;
      let remaining () = List.filter (fun v -> not ordered.(v)) set in
      (* Seed: predecessors of already-ordered nodes in this set (schedule
         bottom-up towards them), else successors (top-down), else the
         node with the lowest ASAP. *)
      let rec drive () =
        match remaining () with
        | [] -> ()
        | rem ->
            let already = !out in
            let pred_seed = List.concat_map preds_in already in
            let succ_seed =
              if pred_seed <> [] then []
              else List.concat_map succs_in already
            in
            let mode, seed =
              if pred_seed <> [] then (`Bottom_up, pred_seed)
              else if succ_seed <> [] then (`Top_down, succ_seed)
              else
                let v =
                  List.fold_left
                    (fun best v ->
                      match best with
                      | None -> Some v
                      | Some b ->
                          let av = Analysis.asap analysis v
                          and ab = Analysis.asap analysis b in
                          if av < ab || (av = ab && v < b) then Some v
                          else Some b)
                    None rem
                  |> Option.get
                in
                (`Top_down, [ v ])
            in
            let primary =
              match mode with
              | `Top_down -> Analysis.height analysis
              | `Bottom_up -> Analysis.depth analysis
            in
            (* The frontier is a duplicate-free list of unordered nodes,
               maintained with a membership flag; picking is by maximal
               key, so list order is irrelevant. *)
            let frontier = ref [] in
            let push v =
              if not (ordered.(v) || in_frontier.(v)) then begin
                in_frontier.(v) <- true;
                frontier := v :: !frontier
              end
            in
            List.iter push seed;
            while !frontier <> [] do
              let v = Option.get (pick_best !frontier primary) in
              emit v;
              in_frontier.(v) <- false;
              frontier := List.filter (fun u -> u <> v) !frontier;
              let next =
                match mode with
                | `Top_down -> succs_in v
                | `Bottom_up -> preds_in v
              in
              List.iter push next
            done;
            drive ()
      in
      drive ();
      List.iter (fun v -> in_set.(v) <- false) set
    in
    List.iter handle_set sets;
    (* Safety: any node the sweeps missed (isolated nodes). *)
    List.iter emit (Graph.nodes g);
    List.rev !out
  end
