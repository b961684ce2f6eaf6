type component = { members : int list; rec_mii : int }

(* Tarjan's algorithm, iterative to be safe on deep graphs. *)
let tarjan g =
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
  (* Tarjan emits components in reverse topological order; restore it. *)
  List.rev !components

(* Recurrence MII of a node subset: smallest II with no positive cycle in
   the induced subgraph. *)
let subset_rec_mii g members =
  let in_set = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_set v ()) members;
  let edges =
    List.filter
      (fun e ->
        Hashtbl.mem in_set e.Graph.src && Hashtbl.mem in_set e.Graph.dst)
      (Graph.edges g)
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

let is_trivial g = function
  | [ v ] ->
      not
        (List.exists
           (fun e -> e.Graph.dst = v)
           (Graph.succs g v))
  | _ -> false

let groups g = List.map (List.sort Stdlib.compare) (tarjan g)

let rec_mii_of g members =
  if is_trivial g members then 1 else subset_rec_mii g members

let compute g =
  let raw = groups g in
  let make members = { members; rec_mii = rec_mii_of g members } in
  let comps = List.map make raw in
  let recs, trivial =
    List.partition (fun c -> not (is_trivial g c.members)) comps
  in
  let recs =
    List.stable_sort (fun a b -> Stdlib.compare b.rec_mii a.rec_mii) recs
  in
  recs @ trivial

let recurrences g =
  List.filter (fun c -> not (is_trivial g c.members)) (compute g)

let component_of g =
  let comps = compute g in
  let arr = Array.make (Graph.n_nodes g) 0 in
  List.iteri
    (fun i c -> List.iter (fun v -> arr.(v) <- i) c.members)
    comps;
  arr
