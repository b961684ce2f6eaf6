let res_mii config g =
  let bound kind =
    let ops = Graph.n_ops_of_kind g kind in
    let units = Machine.Config.total_fus config kind in
    if ops = 0 then 1 else (ops + units - 1) / units
  in
  List.fold_left (fun acc k -> max acc (bound k)) 1 Machine.Fu.all

(* Longest-path relaxation from all nodes at distance 0; a relaxation that
   still succeeds after [n] full passes proves a positive-weight cycle. *)
let has_positive_cycle g ii =
  let n = Graph.n_nodes g in
  if n = 0 then false
  else begin
    let dist = Array.make n 0 in
    let edges = Graph.edges g in
    let m = Array.length edges in
    let changed = ref true in
    let pass = ref 0 in
    while !changed && !pass <= n do
      changed := false;
      for i = 0 to m - 1 do
        let e = Array.unsafe_get edges i in
        let w = e.Graph.latency - (ii * e.Graph.distance) in
        if dist.(e.Graph.src) + w > dist.(e.Graph.dst) then begin
          dist.(e.Graph.dst) <- dist.(e.Graph.src) + w;
          changed := true
        end
      done;
      incr pass
    done;
    !changed
  end

let feasible_ii g ii = not (has_positive_cycle g ii)

let rec_mii g =
  let total_latency =
    Array.fold_left (fun acc e -> acc + max 1 e.Graph.latency) 1 (Graph.edges g)
  in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if feasible_ii g mid then search lo mid else search (mid + 1) hi
  in
  search 1 total_latency

let mii config g = max (res_mii config g) (rec_mii g)
