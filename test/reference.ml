(* List-based reference versions of the scheduling kernels that were
   rewritten to allocate only their result and O(n) scratch per call:
   the SMS node ordering with the Tarjan pass and recurrence MII it
   relies on, and the lockstep simulator's sorted agenda.  They are the
   straightforward renderings the array kernels replaced, kept here so
   the differential tests in [test_kernels.ml] can require equal
   results. *)

open Ddg

(* ---------------- strongly connected components ---------------- *)

(* Recursive Tarjan over successor lists.  Components come out in
   emission order (reverse topological order of the condensation),
   members ascending. *)
let scc_groups g =
  let n = Graph.n_nodes g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun e ->
        let w = e.Graph.dst in
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (Graph.succs g v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  List.map (List.sort Stdlib.compare) (List.rev !components)

(* Smallest II with no positive cycle in the subgraph [members] induce. *)
let subset_rec_mii g members =
  let in_set = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_set v ()) members;
  let edges =
    List.filter
      (fun e ->
        Hashtbl.mem in_set e.Graph.src && Hashtbl.mem in_set e.Graph.dst)
      (Array.to_list (Graph.edges g))
  in
  if edges = [] then 1
  else begin
    let ids = Array.of_list members in
    let remap = Hashtbl.create 16 in
    Array.iteri (fun i v -> Hashtbl.replace remap v i) ids;
    let n = Array.length ids in
    let has_positive_cycle ii =
      let dist = Array.make n 0 in
      let changed = ref true in
      let pass = ref 0 in
      while !changed && !pass <= n do
        changed := false;
        List.iter
          (fun e ->
            let s = Hashtbl.find remap e.Graph.src in
            let d = Hashtbl.find remap e.Graph.dst in
            let w = e.Graph.latency - (ii * e.Graph.distance) in
            if dist.(s) + w > dist.(d) then begin
              dist.(d) <- dist.(s) + w;
              changed := true
            end)
          edges;
        incr pass
      done;
      !changed
    in
    let hi =
      List.fold_left (fun acc e -> acc + max 1 e.Graph.latency) 1 edges
    in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if has_positive_cycle mid then search (mid + 1) hi else search lo mid
    in
    search 1 hi
  end

let rec_mii_of g = function
  | [ v ] when not (List.exists (fun e -> e.Graph.dst = v) (Graph.succs g v))
    ->
      1
  | members -> subset_rec_mii g members

(* ---------------- SMS ordering ---------------- *)

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
              if Bytes.get seen w = '\000' then begin
                Bytes.set seen w '\001';
                Queue.add w queue
              end)
            (step_of u)
        done;
        rows.(v) <- Some seen;
        seen

let union into row =
  Bytes.iteri (fun i c -> if c = '\001' then Bytes.set into i '\001') row

let order g ~ii =
  let n = Graph.n_nodes g in
  if n = 0 then []
  else begin
    let analysis =
      Analysis.compute g
        ~ii:(if Mii.feasible_ii g ii then ii else Mii.rec_mii g)
    in
    let desc_row = reach_rows g (Graph.succs g) (fun e -> e.Graph.dst) in
    let anc_row = reach_rows g (Graph.preds g) (fun e -> e.Graph.src) in
    let nontrivial = function
      | [ v ] -> List.exists (fun e -> e.Graph.dst = v) (Graph.succs g v)
      | _ -> true
    in
    let recurrences =
      match List.filter nontrivial (scc_groups g) with
      | ([] | [ _ ]) as recs -> recs
      | recs ->
          List.map (fun c -> (rec_mii_of g c, c)) recs
          |> List.stable_sort (fun (a, _) (b, _) -> Stdlib.compare b a)
          |> List.map snd
    in
    let grouped = Array.make n false in
    let rev_sets = ref [] in
    let from_prev = Bytes.make n '\000' in
    let to_prev = Bytes.make n '\000' in
    let pending = ref [] in
    List.iter
      (fun c ->
        let members = List.filter (fun v -> not grouped.(v)) c in
        if members <> [] then begin
          let path_nodes =
            if !rev_sets = [] then []
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
    let ordered = Array.make n false in
    let out = ref [] in
    let emit v =
      if not ordered.(v) then begin
        ordered.(v) <- true;
        out := v :: !out
      end
    in
    let pick_best candidates primary =
      List.fold_left
        (fun best v ->
          match best with
          | None -> Some v
          | Some b ->
              let key u = (primary u, - Analysis.mobility analysis u, - u) in
              if compare (key v) (key b) > 0 then Some v else Some b)
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
                let lowest =
                  List.fold_left
                    (fun best v ->
                      match best with
                      | None -> Some v
                      | Some b ->
                          if
                            compare
                              (Analysis.asap analysis v, v)
                              (Analysis.asap analysis b, b)
                            < 0
                          then Some v
                          else Some b)
                    None rem
                in
                (`Top_down, [ Option.get lowest ])
            in
            let primary =
              match mode with
              | `Top_down -> Analysis.height analysis
              | `Bottom_up -> Analysis.depth analysis
            in
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
              List.iter push
                (match mode with
                | `Top_down -> succs_in v
                | `Bottom_up -> preds_in v)
            done;
            drive ()
      in
      drive ();
      List.iter (fun v -> in_set.(v) <- false) set
    in
    List.iter handle_set sets;
    List.iter emit (Graph.nodes g);
    List.rev !out
  end

(* ---------------- lockstep agenda ---------------- *)

(* Every (cycle, iteration, node) issue event of the explicit prefix,
   sorted, checked one after the other against meters sized for the
   whole horizon.  The checks in front are the simulator's own: an II
   below 1, a node without an issue cycle or on a cluster the machine
   lacks is an error before any event runs. *)
let lockstep ?useful_per_iteration (sched : Sched.Schedule.t) ~iterations :
    (Sim.Lockstep.counts, string) result =
  let config = sched.Sched.Schedule.config in
  let route = Sched.Schedule.route sched in
  let g = route.Sched.Route.graph in
  let cycles_of = sched.Sched.Schedule.cycles in
  let n = Graph.n_nodes g in
  let misplaced =
    List.find_map
      (fun v ->
        let c = route.Sched.Route.assign.(v) in
        if cycles_of.(v) < 0 then
          Some (Printf.sprintf "node %s has no issue cycle" (Graph.label g v))
        else if c < 0 || c >= config.Machine.Config.clusters then
          Some
            (Printf.sprintf "node %s assigned to bogus cluster %d"
               (Graph.label g v) c)
        else None)
      (Graph.nodes g)
  in
  if iterations < 1 then Error "iterations < 1"
  else if sched.Sched.Schedule.ii < 1 then
    Error (Printf.sprintf "II %d < 1" sched.Sched.Schedule.ii)
  else
    match misplaced with
    | Some e -> Error e
    | None -> (
        let ii = sched.Sched.Schedule.ii in
        let buses_of = sched.Sched.Schedule.buses in
        let sc = Sched.Schedule.stage_count sched in
        let explicit_iters = min iterations ((2 * sc) + 4) in
        let horizon =
          ((explicit_iters - 1) * ii) + Sched.Schedule.length sched
        in
        let issue_of iter v = (iter * ii) + cycles_of.(v) in
        let error = ref None in
        let fail fmt =
          Printf.ksprintf
            (fun s -> if !error = None then error := Some s)
            fmt
        in
        let fu_use =
          Array.init config.Machine.Config.clusters (fun _ ->
              Array.init Machine.Fu.count (fun _ ->
                  Array.make (horizon + 1) 0))
        in
        let bus_use =
          Array.init (max 1 config.Machine.Config.buses) (fun _ ->
              Array.make (horizon + 2 + config.Machine.Config.bus_latency) 0)
        in
        let agenda =
          List.concat_map
            (fun iter ->
              List.map (fun v -> (issue_of iter v, iter, v)) (Graph.nodes g))
            (List.init explicit_iters Fun.id)
          |> List.sort Stdlib.compare
        in
        List.iter
          (fun (cycle, iter, v) ->
            if !error = None then begin
              List.iter
                (fun e ->
                  let src_iter = iter - e.Graph.distance in
                  if src_iter >= 0 && e.Graph.kind = Graph.Reg then begin
                    let ready =
                      issue_of src_iter e.Graph.src + e.Graph.latency
                    in
                    if ready > cycle then
                      fail
                        "iteration %d: %s issues at %d but %s (it %d) ready \
                         at %d"
                        iter (Graph.label g v) cycle
                        (Graph.label g e.Graph.src)
                        src_iter ready
                  end)
                (Graph.preds g v);
              if Sched.Route.is_copy route v then begin
                let b = buses_of.(v) in
                if b < 0 || b >= config.Machine.Config.buses then
                  fail "copy %s without a bus" (Graph.label g v)
                else begin
                  for i = 0 to max 1 config.Machine.Config.bus_latency - 1 do
                    bus_use.(b).(cycle + i) <- bus_use.(b).(cycle + i) + 1;
                    if bus_use.(b).(cycle + i) > 1 then
                      fail "bus %d collision at cycle %d" b (cycle + i)
                  done;
                  if config.Machine.Config.copy_uses_int_slot then begin
                    let c = route.Sched.Route.assign.(v) in
                    let i = Machine.Fu.index Machine.Fu.Int in
                    fu_use.(c).(i).(cycle) <- fu_use.(c).(i).(cycle) + 1;
                    if
                      fu_use.(c).(i).(cycle)
                      > Machine.Config.fus config ~cluster:c Machine.Fu.Int
                    then
                      fail "cluster %d int slot oversubscribed by copy at %d"
                        c cycle
                  end
                end
              end
              else
                match Machine.Opclass.fu_kind (Graph.op g v) with
                | Some k ->
                    let c = route.Sched.Route.assign.(v) in
                    let i = Machine.Fu.index k in
                    fu_use.(c).(i).(cycle) <- fu_use.(c).(i).(cycle) + 1;
                    if
                      fu_use.(c).(i).(cycle)
                      > Machine.Config.fus config ~cluster:c k
                    then
                      fail "cluster %d %s units oversubscribed at cycle %d" c
                        (Machine.Fu.to_string k) cycle
                | None ->
                    fail "node %s has no execution resource" (Graph.label g v)
            end)
          agenda;
        match !error with
        | Some e -> Error e
        | None ->
            let n_copies = Sched.Route.n_copies route in
            let useful =
              Option.value useful_per_iteration ~default:(n - n_copies)
            in
            Ok
              {
                Sim.Lockstep.cycles = (iterations - 1 + sc) * ii;
                iterations;
                dynamic_ops = iterations * n;
                dynamic_copies = iterations * n_copies;
                useful_ops = iterations * useful;
                explicit_iterations = explicit_iters;
              })

(* ---------------- SplitMix64 ---------------- *)

(* The workload generator's random stream as first written: the state
   in a mutable [int64] field, boxed afresh on every draw. *)
module Rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L
  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t n =
    if n <= 0 then invalid_arg "Rng.int: n <= 0";
    let v = Int64.to_int (next t) land max_int in
    v mod n

  let range t lo hi =
    if hi < lo then invalid_arg "Rng.range: hi < lo";
    lo + int t (hi - lo + 1)

  let float t =
    let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
    v /. 9007199254740992.0

  let chance t p = float t < p

  let pick t = function
    | [] -> invalid_arg "Rng.pick: empty list"
    | l -> List.nth l (int t (List.length l))

  let split t = { state = next t }
end
