type component = { members : int list; rec_mii : int }

(* Tarjan's algorithm, iterative to be safe on deep graphs.  The DFS
   path and the component stack are int arrays, and [cursor] holds each
   path node's successors still to explore, so a call allocates O(n)
   words and no closure per node.  A visited node is on the component
   stack exactly while its [comp] is still -1.  Returns each node's
   component number, in Tarjan's emission order (reverse topological
   order of the condensation), and the number of components. *)
let tarjan g =
  let n = Graph.n_nodes g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let path = Array.make n 0 in
  let depth = ref 0 in
  let cursor = Array.make n [] in
  let next_index = ref 0 in
  let n_comps = ref 0 in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    path.(!depth) <- v;
    incr depth;
    cursor.(v) <- Graph.succs g v
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !depth > 0 do
        let v = path.(!depth - 1) in
        match cursor.(v) with
        | e :: rest ->
            cursor.(v) <- rest;
            let w = e.Graph.dst in
            if index.(w) < 0 then visit w
            else if comp.(w) < 0 && index.(w) < lowlink.(v) then
              lowlink.(v) <- index.(w)
        | [] ->
            decr depth;
            if lowlink.(v) = index.(v) then begin
              let popping = ref true in
              while !popping do
                decr sp;
                let w = stack.(!sp) in
                comp.(w) <- !n_comps;
                popping := w <> v
              done;
              incr n_comps
            end;
            if !depth > 0 then begin
              let u = path.(!depth - 1) in
              if lowlink.(v) < lowlink.(u) then lowlink.(u) <- lowlink.(v)
            end
      done
    end
  done;
  (comp, !n_comps)

(* Position of [v] in the ascending [ids.(lo) .. ids.(hi - 1)], or -1. *)
let rec position ids v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let u = ids.(mid) in
    if u = v then mid
    else if u < v then position ids v (mid + 1) hi
    else position ids v lo mid

(* Write the edges of [edges], leaving the member ranked [src], that end
   inside [ids] into [es] from [at], four ints each (source and
   destination ranks, latency, distance); returns the next free
   position. *)
let rec induced ids ~src es at = function
  | [] -> at
  | e :: rest ->
      let d = position ids e.Graph.dst 0 (Array.length ids) in
      if d < 0 then induced ids ~src es at rest
      else begin
        es.(at) <- src;
        es.(at + 1) <- d;
        es.(at + 2) <- e.Graph.latency;
        es.(at + 3) <- e.Graph.distance;
        induced ids ~src es (at + 4) rest
      end

(* Recurrence MII of a node subset: smallest II with no positive cycle in
   the induced subgraph.  Members are numbered by their rank and the
   induced edges copied into one int array, so a call allocates in the
   size of the subset and its out-edges, not of the graph, and the
   binary search's Bellman-Ford passes allocate nothing. *)
let subset_rec_mii g members =
  let ids = Array.of_list members in
  Array.sort Int.compare ids;
  let k = Array.length ids in
  let out_edges =
    Array.fold_left (fun acc u -> acc + List.length (Graph.succs g u)) 0 ids
  in
  let es = Array.make (4 * out_edges) 0 in
  let len = ref 0 in
  for i = 0 to k - 1 do
    len := induced ids ~src:i es !len (Graph.succs g ids.(i))
  done;
  let m = !len / 4 in
  if m = 0 then 1
  else begin
    let dist = Array.make k 0 in
    let has_positive_cycle ii =
      Array.fill dist 0 k 0;
      let changed = ref true in
      let pass = ref 0 in
      while !changed && !pass <= k do
        changed := false;
        for i = 0 to m - 1 do
          let s = es.(4 * i) and d = es.((4 * i) + 1) in
          let w = es.((4 * i) + 2) - (ii * es.((4 * i) + 3)) in
          if dist.(s) + w > dist.(d) then begin
            dist.(d) <- dist.(s) + w;
            changed := true
          end
        done;
        incr pass
      done;
      !changed
    in
    let hi = ref 1 in
    for i = 0 to m - 1 do
      hi := !hi + max 1 es.((4 * i) + 2)
    done;
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if has_positive_cycle mid then search (mid + 1) hi else search lo mid
    in
    search 1 !hi
  end

let is_trivial g = function
  | [ v ] ->
      not
        (List.exists
           (fun e -> e.Graph.dst = v)
           (Graph.succs g v))
  | _ -> false

(* Members come out ascending without a sort: nodes are consed onto
   their component's list from the highest id down. *)
let groups g =
  let comp, k = tarjan g in
  let members = Array.make k [] in
  for v = Graph.n_nodes g - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  Array.to_list members

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
