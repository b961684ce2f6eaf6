type t = {
  graph : Graph.t;
  ii : int;
  asap_ : int array;
  alap_ : int array;
  height_ : int array;
  cp : int;
}

(* Longest-path fixpoint.  With a feasible II there is no positive cycle,
   so Bellman-Ford-style relaxation converges within n passes. *)
let fixpoint n edges weight_of relaxes =
  let dist = Array.make n 0 in
  let m = Array.length edges in
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass <= n + 1 do
    changed := false;
    for i = 0 to m - 1 do
      let e = Array.unsafe_get edges i in
      let w = weight_of e in
      if relaxes dist e w then changed := true
    done;
    incr pass
  done;
  if !changed then
    invalid_arg "Graph.Analysis.compute: ii violates a recurrence";
  dist

let compute graph ~ii =
  if ii < 1 then invalid_arg "Graph.Analysis.compute: ii < 1";
  let n = Graph.n_nodes graph in
  let edges = Graph.edges graph in
  let weight e = e.Graph.latency - (ii * e.Graph.distance) in
  let asap_ =
    fixpoint n edges weight (fun dist e w ->
        if dist.(e.Graph.src) + w > dist.(e.Graph.dst) then begin
          dist.(e.Graph.dst) <- dist.(e.Graph.src) + w;
          true
        end
        else false)
  in
  (* Height: longest path to any sink, propagating backwards. *)
  let height_ =
    fixpoint n edges weight (fun dist e w ->
        if dist.(e.Graph.dst) + w > dist.(e.Graph.src) then begin
          dist.(e.Graph.src) <- dist.(e.Graph.dst) + w;
          true
        end
        else false)
  in
  (* The critical path passes through the node maximizing asap + height. *)
  let cp = ref 0 in
  Array.iteri (fun i a -> cp := max !cp (a + height_.(i))) asap_;
  let cp = !cp in
  let alap_ = Array.map (fun h -> cp - h) height_ in
  { graph; ii; asap_; alap_; height_; cp }

let asap t i = t.asap_.(i)
let alap t i = t.alap_.(i)
let depth t i = t.asap_.(i)
let height t i = t.height_.(i)
let critical_path t = t.cp

let slack t (e : Graph.edge) =
  let s =
    t.alap_.(e.dst) - (t.asap_.(e.src) + e.latency) + (t.ii * e.distance)
  in
  max 0 s

let mobility t i = t.alap_.(i) - t.asap_.(i)

let edge_weight t (e : Graph.edge) =
  match e.kind with
  | Graph.Mem -> 0
  | Graph.Reg ->
      (* Tight edges (small slack) must not be cut: give them the weight of
         the whole critical path; every extra cycle of slack forgives one
         unit.  Floor of 1 keeps the matching aware of all register edges. *)
      max 1 (t.cp + 1 - slack t e)

let on_critical_path t i = mobility t i = 0
