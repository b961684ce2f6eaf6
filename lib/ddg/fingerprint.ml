(* Canonical, renumbering-invariant DDG fingerprints.

   The fingerprint is a Weisfeiler–Lehman colour refinement over the
   dependence graph: every node starts from the hash of its operation
   class, then repeatedly absorbs the multiset of its incident edges —
   direction, latency, distance, kind and the neighbour's current colour
   — each round sorting the incident signatures so the result is
   independent of edge insertion order.  Refinement stops when a round
   no longer increases the number of distinct colours (or after 2n
   rounds, the classical bound).  The final fingerprint hashes the
   sorted node-colour multiset together with the sorted edge relation
   expressed in colours, so two isomorphic graphs — equal up to node
   renumbering and label/name differences — always fingerprint
   identically, while the per-edge latency/distance/kind payload keeps
   structurally distinct graphs apart in practice.

   WL refinement is a sound but incomplete isomorphism test: distinct
   graphs can collide.  Consumers that need exactness (the schedule
   store) therefore pair the fingerprint with the full
   {!Graph.structural_encoding} and compare that byte string before
   trusting a fingerprint match. *)

let kind_char = function Graph.Reg -> 'r' | Graph.Mem -> 'm'

(* Signature of one edge as seen from one endpoint: direction tag,
   latency, distance, kind, then the far endpoint's current colour. *)
let incident_sig dir (e : Graph.edge) color =
  Printf.sprintf "%c%d.%d%c%s" dir e.latency e.distance (kind_char e.kind)
    color

let refine g colors =
  let n = Graph.n_nodes g in
  let next = Array.make n "" in
  for v = 0 to n - 1 do
    let ins =
      List.map (fun (e : Graph.edge) -> incident_sig 'i' e colors.(e.src))
        (Graph.preds g v)
    and outs =
      List.map (fun (e : Graph.edge) -> incident_sig 'o' e colors.(e.dst))
        (Graph.succs g v)
    in
    let sigs = List.sort String.compare (ins @ outs) in
    next.(v) <- Digest.string (String.concat "|" (colors.(v) :: sigs))
  done;
  next

let distinct colors =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun c -> Hashtbl.replace tbl c ()) colors;
  Hashtbl.length tbl

let canonical g =
  let n = Graph.n_nodes g in
  if n = 0 then Digest.to_hex (Digest.string "empty")
  else begin
    let colors =
      ref
        (Array.init n (fun v ->
             Digest.string (Machine.Opclass.to_string (Graph.op g v))))
    in
    (* Refine to the fixpoint of the partition-size sequence: one round
       minimum, at most 2n (each productive round splits a class). *)
    let classes = ref (distinct !colors) in
    let rounds = ref 0 in
    let continue = ref true in
    while !continue && !rounds < (2 * n) + 1 do
      incr rounds;
      let next = refine g !colors in
      let classes' = distinct next in
      colors := next;
      if classes' <= !classes && !rounds > 1 then continue := false
      else classes := classes'
    done;
    let node_colors =
      List.sort String.compare (Array.to_list !colors)
    in
    let edge_sigs =
      List.sort String.compare
        (Array.to_list
           (Array.map
              (fun (e : Graph.edge) ->
                Printf.sprintf "%s>%s:%d.%d%c" !colors.(e.src) !colors.(e.dst)
                  e.latency e.distance (kind_char e.kind))
              (Graph.edges g)))
    in
    Digest.to_hex
      (Digest.string
         (String.concat "#"
            (string_of_int n :: (node_colors @ ("&" :: edge_sigs)))))
  end

let equal_structure a b =
  String.equal (Graph.structural_encoding a) (Graph.structural_encoding b)
