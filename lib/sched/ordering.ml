open Ddg

(* The placement driver re-orders the routed graph at every II attempt,
   so this runs tens of thousands of times per suite: one call allocates
   its result list and O(n) words of int arrays and byte sets, nothing
   per node visited or per candidate compared. *)

let far_end ~fwd e = if fwd then e.Graph.dst else e.Graph.src [@@inline]
let edges_of g ~fwd v = if fwd then Graph.succs g v else Graph.preds g v

(* Push onto [stack] (from [sp]) the far end of every edge in [edges] not
   yet marked in [seen], marking it; returns the new stack top. *)
let rec push_unseen ~fwd seen stack sp = function
  | [] -> sp
  | e :: rest ->
      let w = far_end ~fwd e in
      if Bytes.unsafe_get seen w = '\000' then begin
        Bytes.unsafe_set seen w '\001';
        stack.(sp) <- w;
        push_unseen ~fwd seen stack (sp + 1) rest
      end
      else push_unseen ~fwd seen stack sp rest

(* Mark in [seen] every node reachable from [v] over at least one
   dependence edge of any distance: along successors when [fwd], along
   predecessors otherwise.  A marked node is not entered again, which is
   exact because callers grow [seen] only by whole reachability sets:
   whatever a marked node reaches is marked already.  [stack] holds at
   least [n_nodes g] entries. *)
let mark_reach g ~fwd seen stack v =
  let sp = ref (push_unseen ~fwd seen stack 0 (edges_of g ~fwd v)) in
  while !sp > 0 do
    decr sp;
    let u = stack.(!sp) in
    sp := push_unseen ~fwd seen stack !sp (edges_of g ~fwd u)
  done

let rec has_edge_to v = function
  | [] -> false
  | e :: rest -> e.Graph.dst = v || has_edge_to v rest

let marked row v = Bytes.unsafe_get row v = '\001' [@@inline]

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
    (* Build the SMS node sets: recurrences by decreasing RecMII, each
       extended with the nodes lying on paths from/to the already grouped
       nodes; one final set with everything else.  RecMII only breaks
       ties between recurrences, so it is not computed when there are
       fewer than two. *)
    let nontrivial = function
      | [ v ] -> has_edge_to v (Graph.succs g v)
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
    (* The sets lie back to back in [sets]: set [i] is
       [sets.(bounds.(i)) .. sets.(bounds.(i + 1) - 1)]. *)
    let sets = Array.make n 0 in
    let bounds = Array.make (n + 1) 0 in
    let n_sets = ref 0 in
    let len = ref 0 in
    let grouped = Bytes.make n '\000' in
    let close_set () =
      incr n_sets;
      bounds.(!n_sets) <- !len
    in
    let rec add_ungrouped = function
      | [] -> ()
      | v :: rest ->
          if not (marked grouped v) then begin
            Bytes.unsafe_set grouped v '\001';
            sets.(!len) <- v;
            incr len
          end;
          add_ungrouped rest
    in
    (* A node v joins the current recurrence's set when it lies on a path
       between an earlier set and this one, in either direction:

         exists p in previous, m in members.
           (p ->* v && v ->* m) || (m ->* v && v ->* p)

       p and m are quantified independently in each disjunct, so the test
       factors into four reachability sets — from/to any previous node
       (grown by each finished set, once the next set needs it) and
       from/to any member — each one search from all its sources at once.
       Graphs with fewer than two recurrence sets search nothing. *)
    let from_prev = Bytes.make n '\000' in
    let to_prev = Bytes.make n '\000' in
    let from_mem = Bytes.make n '\000' in
    let to_mem = Bytes.make n '\000' in
    let stack = Array.make n 0 in
    let mark_from seen_fwd seen_bwd lo hi =
      for i = lo to hi - 1 do
        mark_reach g ~fwd:true seen_fwd stack sets.(i);
        mark_reach g ~fwd:false seen_bwd stack sets.(i)
      done
    in
    List.iter
      (fun c ->
        let start = !len in
        add_ungrouped c;
        if !len > start then begin
          if !n_sets > 0 then begin
            mark_from from_prev to_prev bounds.(!n_sets - 1) start;
            Bytes.fill from_mem 0 n '\000';
            Bytes.fill to_mem 0 n '\000';
            mark_from from_mem to_mem start !len;
            for v = 0 to n - 1 do
              if
                (not (marked grouped v))
                && ((marked from_prev v && marked to_mem v)
                   || (marked from_mem v && marked to_prev v))
              then begin
                Bytes.unsafe_set grouped v '\001';
                sets.(!len) <- v;
                incr len
              end
            done
          end;
          close_set ()
        end)
      recurrences;
    let start = !len in
    for v = 0 to n - 1 do
      if not (marked grouped v) then begin
        sets.(!len) <- v;
        incr len
      end
    done;
    if !len > start then close_set ();
    (* Ordering phase: alternate bottom-up (pick max depth) and top-down
       (pick max height) sweeps, seeding each sweep with the neighbours of
       the nodes ordered so far. *)
    let ordered = Bytes.make n '\000' in
    let out = Array.make n 0 in
    let n_out = ref 0 in
    let emit v =
      if not (marked ordered v) then begin
        Bytes.unsafe_set ordered v '\001';
        out.(!n_out) <- v;
        incr n_out
      end
    in
    let in_set = Bytes.make n '\000' in
    (* The frontier is a duplicate-free array of unordered nodes of the
       current set, with a membership flag. *)
    let frontier = Array.make n 0 in
    let n_front = ref 0 in
    let in_frontier = Bytes.make n '\000' in
    let push v =
      if not (marked ordered v || marked in_frontier v) then begin
        Bytes.unsafe_set in_frontier v '\001';
        frontier.(!n_front) <- v;
        incr n_front
      end
    in
    (* Push the unordered set members at the far ends of [edges]. *)
    let rec push_near ~fwd = function
      | [] -> ()
      | e :: rest ->
          let u = far_end ~fwd e in
          if marked in_set u then push u;
          push_near ~fwd rest
    in
    (* Max pick under (primary, -mobility, -v): the [-v] tiebreak makes
       keys distinct, so the frontier's order does not matter — compared
       unboxed here, this is the sweep's inner loop. *)
    let primary ~top_down v =
      if top_down then Analysis.height analysis v else Analysis.depth analysis v
    in
    let pick_best ~top_down =
      let best = ref 0 in
      for i = 1 to !n_front - 1 do
        let v = frontier.(i) and b = frontier.(!best) in
        let pv = primary ~top_down v and pb = primary ~top_down b in
        if
          pv > pb
          || (pv = pb
             &&
             let mv = Analysis.mobility analysis v
             and mb = Analysis.mobility analysis b in
             mv < mb || (mv = mb && v < b))
        then best := i
      done;
      !best
    in
    let any_unordered lo hi =
      let found = ref false in
      for i = lo to hi - 1 do
        if not (marked ordered sets.(i)) then found := true
      done;
      !found
    in
    let lowest_asap lo hi =
      let best = ref (-1) in
      for i = lo to hi - 1 do
        let v = sets.(i) in
        if not (marked ordered v) then
          if !best < 0 then best := v
          else begin
            let b = !best in
            let av = Analysis.asap analysis v
            and ab = Analysis.asap analysis b in
            if av < ab || (av = ab && v < b) then best := v
          end
      done;
      !best
    in
    (* Seed: predecessors of already-ordered nodes in this set (schedule
       bottom-up towards them), else successors (top-down), else the
       node with the lowest ASAP. *)
    let rec drive lo hi =
      if any_unordered lo hi then begin
        for i = 0 to !n_out - 1 do
          push_near ~fwd:false (Graph.preds g out.(i))
        done;
        (* No predecessor seeds: sweep top-down from successor seeds. *)
        let top_down = !n_front = 0 in
        if top_down then begin
          for i = 0 to !n_out - 1 do
            push_near ~fwd:true (Graph.succs g out.(i))
          done;
          if !n_front = 0 then push (lowest_asap lo hi)
        end;
        while !n_front > 0 do
          let i = pick_best ~top_down in
          let v = frontier.(i) in
          decr n_front;
          frontier.(i) <- frontier.(!n_front);
          Bytes.unsafe_set in_frontier v '\000';
          emit v;
          push_near ~fwd:top_down (edges_of g ~fwd:top_down v)
        done;
        drive lo hi
      end
    in
    for s = 0 to !n_sets - 1 do
      let lo = bounds.(s) and hi = bounds.(s + 1) in
      for i = lo to hi - 1 do
        Bytes.unsafe_set in_set sets.(i) '\001'
      done;
      drive lo hi;
      for i = lo to hi - 1 do
        Bytes.unsafe_set in_set sets.(i) '\000'
      done
    done;
    (* Safety: any node the sweeps missed (isolated nodes). *)
    for v = 0 to n - 1 do
      emit v
    done;
    let rec to_list i acc =
      if i < 0 then acc else to_list (i - 1) (out.(i) :: acc)
    in
    to_list (n - 1) []
  end
