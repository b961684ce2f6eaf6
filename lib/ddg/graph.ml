type edge_kind = Reg | Mem

type edge = {
  src : int;
  dst : int;
  latency : int;
  distance : int;
  kind : edge_kind;
}

type t = {
  graph_name : string;
  ops : Machine.Opclass.t array;
  labels : string array;
  all_edges : edge list;
  edge_arr : edge array;  (* same edges, for allocation-free fixpoints *)
  succ : edge list array;
  pred : edge list array;
  (* register-only views, precomputed at build time: the replication
     subgraph BFS, communication counting and routing query these on
     every node of every round.  A [succ]/[pred] list without memory
     edges is shared here, not copied. *)
  reg_succ : edge list array;
  reg_pred : edge list array;
}

let n_nodes t = Array.length t.ops
let op t i = t.ops.(i)
let label t i = t.labels.(i)
let edges t = t.all_edges
let edge_array t = t.edge_arr
let succs t i = t.succ.(i)
let preds t i = t.pred.(i)
let reg_succs t i = t.reg_succ.(i)
let reg_preds t i = t.reg_pred.(i)

let is_store t i = Machine.Opclass.is_store t.ops.(i)

let nodes t = List.init (n_nodes t) Fun.id

let n_ops_of_kind t kind =
  Array.fold_left
    (fun acc o ->
      match Machine.Opclass.fu_kind o with
      | Some k when Machine.Fu.equal k kind -> acc + 1
      | _ -> acc)
    0 t.ops

let find_label t lbl =
  let n = n_nodes t in
  let rec go i =
    if i >= n then raise Not_found
    else if String.equal t.labels.(i) lbl then i
    else go (i + 1)
  in
  go 0

let name t = t.graph_name

(* Canonical digest of the scheduling-relevant structure: operation
   classes per node id and every edge with its latency, distance and
   kind, in insertion order.  Names and labels are excluded — two loops
   that differ only in naming schedule identically, and the digest is
   the sharing key for cross-loop artifacts (partition skeletons). *)
let structural_encoding t =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int (n_nodes t));
  Array.iter
    (fun op ->
      Buffer.add_char b ';';
      Buffer.add_string b (Machine.Opclass.to_string op))
    t.ops;
  List.iter
    (fun e ->
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int e.src);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.dst);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.latency);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.distance);
      Buffer.add_char b (match e.kind with Reg -> 'r' | Mem -> 'm'))
    t.all_edges;
  Buffer.contents b

let digest t = Digest.string (structural_encoding t)

(* Excel-style base-26 label: 0 -> "A", 25 -> "Z", 26 -> "AA". *)
let default_label i =
  let rec go i acc =
    let acc = String.make 1 (Char.chr (Char.code 'A' + (i mod 26))) ^ acc in
    if i < 26 then acc else go ((i / 26) - 1) acc
  in
  go i ""

module Builder = struct
  (* Nodes live in a doubling array so [op_of] — consulted by every
     [depend] call — is O(1); a list would make graph construction
     quadratic, which the materialized replicated graphs hit hard. *)
  type building = {
    bname : string;
    mutable node_arr : (Machine.Opclass.t * string) array;
    mutable count : int;
    mutable rev_edges : edge list;
  }

  type t = building

  let dummy = (Machine.Opclass.Int_arith, "")

  let create ?(name = "") () =
    { bname = name; node_arr = Array.make 16 dummy; count = 0; rev_edges = [] }

  let add b ?label opc =
    let id = b.count in
    if id = Array.length b.node_arr then begin
      let bigger = Array.make (2 * id) dummy in
      Array.blit b.node_arr 0 bigger 0 id;
      b.node_arr <- bigger
    end;
    let lbl = match label with Some l -> l | None -> default_label id in
    b.node_arr.(id) <- (opc, lbl);
    b.count <- b.count + 1;
    id

  let check_id b i what =
    if i < 0 || i >= b.count then
      invalid_arg (Printf.sprintf "Ddg.Builder: unknown %s node %d" what i)

  let op_of b i = fst b.node_arr.(i)

  (* Every edge enters through here, so a graph holds only edges that
     pass these checks however they were added. *)
  let edge b e =
    check_id b e.src "src";
    check_id b e.dst "dst";
    if e.distance < 0 then invalid_arg "Ddg.Builder: negative distance";
    if e.latency < 0 then invalid_arg "Ddg.Builder: negative latency";
    (match e.kind with
    | Reg ->
        if Machine.Opclass.is_store (op_of b e.src) then
          invalid_arg "Ddg.Builder: a store produces no register value"
    | Mem ->
        if
          (not (Machine.Opclass.is_memory (op_of b e.src)))
          || not (Machine.Opclass.is_memory (op_of b e.dst))
        then
          invalid_arg
            "Ddg.Builder: both ends of a memory edge must be memory \
             operations");
    b.rev_edges <- e :: b.rev_edges

  let depend ?(distance = 0) ?latency b ~src ~dst =
    check_id b src "src";
    let latency =
      match latency with
      | Some l -> l
      | None -> Machine.Opclass.latency (op_of b src)
    in
    edge b { src; dst; latency; distance; kind = Reg }

  let mem_depend ?(distance = 0) b ~src ~dst =
    edge b { src; dst; latency = 1; distance; kind = Mem }

  (* Kahn's algorithm on distance-0 edges; a leftover node means a
     zero-distance cycle, which no execution order could satisfy. *)
  let acyclic_same_iteration n edges =
    let indeg = Array.make n 0 in
    let out = Array.make n [] in
    List.iter
      (fun e ->
        if e.distance = 0 then begin
          indeg.(e.dst) <- indeg.(e.dst) + 1;
          out.(e.src) <- e.dst :: out.(e.src)
        end)
      edges;
    let queue = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
    let seen = ref 0 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      incr seen;
      List.iter
        (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Queue.add v queue)
        out.(u)
    done;
    !seen = n

  let build b =
    let pairs = Array.sub b.node_arr 0 b.count in
    let ops = Array.map fst pairs in
    let labels = Array.map snd pairs in
    let all_edges = List.rev b.rev_edges in
    let n = Array.length ops in
    if not (acyclic_same_iteration n all_edges) then
      invalid_arg "Ddg.Builder.build: zero-distance dependence cycle";
    let succ = Array.make n [] in
    let pred = Array.make n [] in
    List.iter
      (fun e ->
        succ.(e.src) <- e :: succ.(e.src);
        pred.(e.dst) <- e :: pred.(e.dst))
      all_edges;
    Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
    Array.iteri (fun i l -> pred.(i) <- List.rev l) pred;
    let regs es =
      if List.for_all (fun e -> e.kind = Reg) es then es
      else List.filter (fun e -> e.kind = Reg) es
    in
    {
      graph_name = b.bname;
      ops;
      labels;
      all_edges;
      edge_arr = Array.of_list all_edges;
      succ;
      pred;
      reg_succ = Array.map regs succ;
      reg_pred = Array.map regs pred;
    }
end

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph ddg {\n  node [shape=box];\n";
  for i = 0 to n_nodes t - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\\n%s\"];\n" i t.labels.(i)
         (Machine.Opclass.to_string t.ops.(i)))
  done;
  List.iter
    (fun e ->
      let style =
        match (e.kind, e.distance) with
        | Mem, _ -> " [style=dotted]"
        | Reg, 0 -> ""
        | Reg, d -> Printf.sprintf " [style=dashed,label=\"d=%d\"]" d
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d%s;\n" e.src e.dst style))
    t.all_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_stats ppf t =
  let count k = n_ops_of_kind t k in
  Format.fprintf ppf "%s: %d nodes (%d int, %d fp, %d mem), %d edges"
    (if String.equal t.graph_name "" then "<ddg>" else t.graph_name)
    (n_nodes t) (count Machine.Fu.Int) (count Machine.Fu.Fp)
    (count Machine.Fu.Mem)
    (List.length t.all_edges)
