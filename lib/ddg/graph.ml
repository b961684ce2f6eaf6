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
  edges : edge array;  (* insertion order *)
  succ : edge list array;
  pred : edge list array;
  (* register-only views, precomputed at build time: the replication
     subgraph BFS, communication counting and routing query these on
     every node of every round.  A graph without memory edges shares
     [succ] and [pred] themselves; otherwise each list without a memory
     edge is shared, not copied. *)
  reg_succ : edge list array;
  reg_pred : edge list array;
}

let n_nodes t = Array.length t.ops
let op t i = t.ops.(i)
let label t i = t.labels.(i)
let edges t = t.edges
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
  Array.iter
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
    t.edges;
  Buffer.contents b

let digest t = Digest.string (structural_encoding t)

(* Excel-style base-26 label: 0 -> "A", 25 -> "Z", 26 -> "AA". *)
let base26_label i =
  let rec go i acc =
    let acc = String.make 1 (Char.chr (Char.code 'A' + (i mod 26))) ^ acc in
    if i < 26 then acc else go ((i / 26) - 1) acc
  in
  go i ""

(* Every graph labels its first nodes alike, so the labels of small ids
   are built once and shared (strings are immutable). *)
let small_labels = Array.init 256 base26_label

let default_label i =
  if i >= 0 && i < Array.length small_labels then small_labels.(i)
  else base26_label i

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

  (* Kahn's algorithm on the distance-0 edges of the finished [succ]
     lists, queued in an int array: a node never queued means a
     zero-distance cycle, which no execution order could satisfy. *)
  let acyclic_same_iteration edges succ =
    let n = Array.length succ in
    let indeg = Array.make n 0 in
    Array.iter
      (fun e -> if e.distance = 0 then indeg.(e.dst) <- indeg.(e.dst) + 1)
      edges;
    let queue = Array.make n 0 in
    let tail = ref 0 in
    let push v =
      queue.(!tail) <- v;
      incr tail
    in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then push v
    done;
    let rec release = function
      | [] -> ()
      | e :: rest ->
          if e.distance = 0 then begin
            indeg.(e.dst) <- indeg.(e.dst) - 1;
            if indeg.(e.dst) = 0 then push e.dst
          end;
          release rest
    in
    let head = ref 0 in
    while !head < !tail do
      release succ.(queue.(!head));
      incr head
    done;
    !tail = n

  let build b =
    let n = b.count in
    let ops = Array.init n (fun i -> fst b.node_arr.(i)) in
    let labels = Array.init n (fun i -> snd b.node_arr.(i)) in
    let succ = Array.make n [] in
    let pred = Array.make n [] in
    (* The builder's list is newest first: filling the array from its
       end, and consing onto [succ]/[pred] in list order, leaves all
       three in insertion order. *)
    let edges =
      match b.rev_edges with
      | [] -> [||]
      | newest :: _ as rev ->
          let m = List.length rev in
          let edges = Array.make m newest in
          List.iteri
            (fun i e ->
              edges.(m - 1 - i) <- e;
              succ.(e.src) <- e :: succ.(e.src);
              pred.(e.dst) <- e :: pred.(e.dst))
            rev;
          edges
    in
    if not (acyclic_same_iteration edges succ) then
      invalid_arg "Ddg.Builder.build: zero-distance dependence cycle";
    let reg_succ, reg_pred =
      if Array.for_all (fun e -> e.kind = Reg) edges then (succ, pred)
      else
        let regs es =
          if List.for_all (fun e -> e.kind = Reg) es then es
          else List.filter (fun e -> e.kind = Reg) es
        in
        (Array.map regs succ, Array.map regs pred)
    in
    { graph_name = b.bname; ops; labels; edges; succ; pred; reg_succ; reg_pred }
end

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph ddg {\n  node [shape=box];\n";
  for i = 0 to n_nodes t - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\\n%s\"];\n" i t.labels.(i)
         (Machine.Opclass.to_string t.ops.(i)))
  done;
  Array.iter
    (fun e ->
      let style =
        match (e.kind, e.distance) with
        | Mem, _ -> " [style=dotted]"
        | Reg, 0 -> ""
        | Reg, d -> Printf.sprintf " [style=dashed,label=\"d=%d\"]" d
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d%s;\n" e.src e.dst style))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_stats ppf t =
  let count k = n_ops_of_kind t k in
  Format.fprintf ppf "%s: %d nodes (%d int, %d fp, %d mem), %d edges"
    (if String.equal t.graph_name "" then "<ddg>" else t.graph_name)
    (n_nodes t) (count Machine.Fu.Int) (count Machine.Fu.Fp)
    (count Machine.Fu.Mem)
    (Array.length t.edges)
