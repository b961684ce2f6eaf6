(* DDG construction, accessors, validation, MII, analysis, SCCs. *)

open Ddg

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk_simple () =
  (* ld -> add -> st, plus an induction. *)
  let b = Graph.Builder.create ~name:"simple" () in
  let ld = Graph.Builder.add b ~label:"ld" Machine.Opclass.Load in
  let add = Graph.Builder.add b ~label:"add" Machine.Opclass.Fp_arith in
  let st = Graph.Builder.add b ~label:"st" Machine.Opclass.Store in
  let iv = Graph.Builder.add b ~label:"iv" Machine.Opclass.Int_arith in
  Graph.Builder.depend b ~src:ld ~dst:add;
  Graph.Builder.depend b ~src:add ~dst:st;
  Graph.Builder.depend b ~src:iv ~dst:ld;
  Graph.Builder.depend b ~distance:1 ~src:iv ~dst:iv;
  (Graph.Builder.build b, ld, add, st, iv)

let test_builder_basics () =
  let g, ld, add, st, iv = mk_simple () in
  check int "nodes" 4 (Graph.n_nodes g);
  check int "edges" 4 (Array.length (Graph.edges g));
  check bool "op" true (Graph.op g ld = Machine.Opclass.Load);
  check bool "store" true (Graph.is_store g st);
  check int "find_label" add (Graph.find_label g "add");
  check bool "missing label" true
    (try ignore (Graph.find_label g "zzz"); false with Not_found -> true);
  let dsts es = List.map (fun e -> e.Graph.dst) es in
  let srcs es = List.map (fun e -> e.Graph.src) es in
  check (Alcotest.list int) "consumers of ld" [ add ]
    (dsts (Graph.reg_succs g ld));
  check (Alcotest.list int) "producers of add" [ ld ]
    (srcs (Graph.reg_preds g add));
  check (Alcotest.list int) "self consumer" (List.sort compare [ iv; ld ])
    (List.sort compare (dsts (Graph.reg_succs g iv)))

let test_edge_latency_from_table1 () =
  let g, ld, _, _, _ = mk_simple () in
  let e = List.hd (Graph.reg_succs g ld) in
  check int "load latency" 2 e.Graph.latency

let test_latency_override () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add b Machine.Opclass.Int_arith in
  let c = Graph.Builder.add b Machine.Opclass.Int_arith in
  Graph.Builder.depend b ~latency:7 ~src:a ~dst:c;
  let g = Graph.Builder.build b in
  check int "override" 7 (Graph.edges g).(0).Graph.latency

let test_builder_rejects () =
  let b = Graph.Builder.create () in
  let st = Graph.Builder.add b Machine.Opclass.Store in
  let x = Graph.Builder.add b Machine.Opclass.Int_arith in
  let bad f = try f (); false with Invalid_argument _ -> true in
  check bool "store produces no value" true
    (bad (fun () -> Graph.Builder.depend b ~src:st ~dst:x));
  check bool "unknown node" true
    (bad (fun () -> Graph.Builder.depend b ~src:9 ~dst:x));
  check bool "negative distance" true
    (bad (fun () -> Graph.Builder.depend b ~distance:(-1) ~src:x ~dst:x));
  check bool "mem dep needs memory ops" true
    (bad (fun () -> Graph.Builder.mem_depend b ~src:x ~dst:st))

(* [Builder.edge] adds a record as it is, so it must refuse every edge
   [depend] or [mem_depend] would refuse, and accept the ones they make. *)
let test_builder_edge_checks () =
  let b = Graph.Builder.create () in
  let st = Graph.Builder.add b Machine.Opclass.Store in
  let ld = Graph.Builder.add b Machine.Opclass.Load in
  let x = Graph.Builder.add b Machine.Opclass.Int_arith in
  let reg =
    { Graph.src = x; dst = ld; latency = 1; distance = 0; kind = Reg }
  in
  let mem = { reg with src = st; kind = Mem } in
  let bad e =
    try Graph.Builder.edge b e; false with Invalid_argument _ -> true
  in
  List.iter
    (fun (what, e) -> check bool what true (bad e))
    [
      ("unknown src", { reg with src = 9 });
      ("unknown dst", { reg with dst = -1 });
      ("negative distance", { reg with distance = -1 });
      ("negative latency", { reg with latency = -1 });
      ("register edge out of a store", { reg with src = st });
      ("memory edge from a non-memory op", { mem with src = x });
      ("memory edge to a non-memory op", { mem with dst = x });
      ("negative memory distance", { mem with distance = -1 });
    ];
  Graph.Builder.edge b reg;
  Graph.Builder.edge b mem;
  let g = Graph.Builder.build b in
  check bool "records added as they are" true
    (match Graph.edges g with [| r; m |] -> r == reg && m == mem | _ -> false)

(* Each DDG fact is stored once: a node no memory edge touches shares
   its register views with [succs]/[preds], and a whole graph costs at
   most 12 words per node and edge (the edge record itself is 6). *)
let test_one_copy_per_fact () =
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let g = l.graph in
      let is_mem e = e.Graph.kind = Graph.Mem in
      for v = 0 to Graph.n_nodes g - 1 do
        if
          not
            (List.exists is_mem (Graph.succs g v)
            || List.exists is_mem (Graph.preds g v))
        then
          check bool
            (Printf.sprintf "%s node %d shares its lists" l.id v)
            true
            (Graph.reg_succs g v == Graph.succs g v
            && Graph.reg_preds g v == Graph.preds g v)
      done;
      let words = Obj.reachable_words (Obj.repr g) in
      let bound = 12 * (Graph.n_nodes g + Array.length (Graph.edges g)) in
      if words > bound then
        Alcotest.failf "%s: %d words, bound %d" l.id words bound)
    (Workload.Generator.suite ())

let test_zero_distance_cycle_rejected () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add b Machine.Opclass.Int_arith in
  let y = Graph.Builder.add b Machine.Opclass.Int_arith in
  Graph.Builder.depend b ~src:x ~dst:y;
  Graph.Builder.depend b ~src:y ~dst:x;
  check bool "cycle rejected" true
    (try ignore (Graph.Builder.build b); false
     with Invalid_argument _ -> true)

let test_loop_carried_cycle_allowed () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add b Machine.Opclass.Int_arith in
  let y = Graph.Builder.add b Machine.Opclass.Int_arith in
  Graph.Builder.depend b ~src:x ~dst:y;
  Graph.Builder.depend b ~distance:1 ~src:y ~dst:x;
  check int "built" 2 (Graph.n_nodes (Graph.Builder.build b))

let test_ops_of_kind () =
  let g, _, _, _, _ = mk_simple () in
  check int "mem ops" 2 (Graph.n_ops_of_kind g Machine.Fu.Mem);
  check int "fp ops" 1 (Graph.n_ops_of_kind g Machine.Fu.Fp);
  check int "int ops" 1 (Graph.n_ops_of_kind g Machine.Fu.Int)

let test_dot_export () =
  let g, _, _, _, _ = mk_simple () in
  let dot = Graph.to_dot g in
  check bool "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  (* dashed loop-carried edge rendered *)
  let contains sub s =
    let ls = String.length sub and le = String.length s in
    let rec go i = i + ls <= le && (String.sub s i ls = sub || go (i + 1)) in
    go 0
  in
  check bool "dashed" true (contains "dashed" dot)

let test_figure3_shape () =
  let g = Examples.figure3 () in
  check int "14 nodes" 14 (Graph.n_nodes g);
  let assign = Examples.figure3_partition g in
  (* The exact communications of the paper's example. *)
  let coms =
    Sched.Comm.producers g ~assign |> List.map (Graph.label g)
  in
  check (Alcotest.list Alcotest.string) "comms D E J" [ "D"; "E"; "J" ] coms

(* ---------------- canonical fingerprints (Fingerprint) ------------- *)

(* Rebuild [g] with node ids renumbered by [perm] (perm.(old) = new). *)
let permuted g perm =
  let n = Graph.n_nodes g in
  let inv = Array.make n 0 in
  Array.iteri (fun old_id new_id -> inv.(new_id) <- old_id) perm;
  let b = Graph.Builder.create ~name:(Graph.name g) () in
  Array.iter
    (fun old_id ->
      ignore
        (Graph.Builder.add b ~label:(Graph.label g old_id)
           (Graph.op g old_id)))
    inv;
  Array.iter
    (fun (e : Graph.edge) ->
      let src = perm.(e.Graph.src) and dst = perm.(e.Graph.dst) in
      match e.Graph.kind with
      | Graph.Mem ->
          Graph.Builder.mem_depend b ~distance:e.Graph.distance ~src ~dst
      | Graph.Reg ->
          Graph.Builder.depend b ~latency:e.Graph.latency
            ~distance:e.Graph.distance ~src ~dst)
    (Graph.edges g);
  Graph.Builder.build b

let shuffle_perm rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Workload.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Rebuild [g] node-for-node, transforming each edge with [edge]. *)
let rebuilt g ~edge =
  let b = Graph.Builder.create () in
  List.iter
    (fun v -> ignore (Graph.Builder.add b (Graph.op g v)))
    (Graph.nodes g);
  Array.iteri
    (fun i (e : Graph.edge) ->
      let e = edge i e in
      match e.Graph.kind with
      | Graph.Mem ->
          Graph.Builder.mem_depend b ~distance:e.Graph.distance ~src:e.Graph.src
            ~dst:e.Graph.dst
      | Graph.Reg ->
          Graph.Builder.depend b ~latency:e.Graph.latency
            ~distance:e.Graph.distance ~src:e.Graph.src ~dst:e.Graph.dst)
    (Graph.edges g);
  Graph.Builder.build b

let test_fingerprint_permutation_invariant () =
  let rng = Workload.Rng.create 0xf19e5 in
  for seed = 0 to 19 do
    let g =
      (Workload.Generator.random ~seed ()).Workload.Generator.graph
    in
    let n = Graph.n_nodes g in
    let fp = Fingerprint.canonical g in
    let rev = Array.init n (fun i -> n - 1 - i) in
    List.iter
      (fun perm ->
        check bool "renumbering keeps the fingerprint" true
          (String.equal fp (Fingerprint.canonical (permuted g perm))))
      [ rev; shuffle_perm rng n ]
  done

let test_fingerprint_discriminates () =
  let corpus =
    List.init 40 (fun seed ->
        (Workload.Generator.random ~seed ()).Workload.Generator.graph)
  in
  (* Soundness (the direction the schedule store relies on): graphs
     with equal structural encodings must fingerprint identically. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if
            String.equal
              (Graph.structural_encoding a)
              (Graph.structural_encoding b)
          then
            check bool "equal structure, equal fingerprint" true
              (String.equal (Fingerprint.canonical a)
                 (Fingerprint.canonical b)))
        corpus)
    corpus;
  (* Discrimination sanity: the fuzz corpus should not pile up on a few
     fingerprint buckets. *)
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun g -> Hashtbl.replace distinct (Fingerprint.canonical g) ())
    corpus;
  check bool "fuzz corpus spreads over fingerprints" true
    (Hashtbl.length distinct >= 35);
  List.iter
    (fun g ->
      check bool "deep equality is reflexive" true
        (Fingerprint.equal_structure g g))
    corpus

let test_fingerprint_sensitive () =
  let g = (Workload.Generator.random ~seed:7 ()).Workload.Generator.graph in
  let fp = Fingerprint.canonical g in
  check bool "identity rebuild round-trips" true
    (String.equal fp (Fingerprint.canonical (rebuilt g ~edge:(fun _ e -> e))));
  (* Find a register edge to perturb (every generated loop has one). *)
  let victim =
    let rec first i = function
      | [] -> -1
      | (e : Graph.edge) :: tl ->
          if e.Graph.kind = Graph.Reg then i else first (i + 1) tl
    in
    first 0 (Array.to_list (Graph.edges g))
  in
  check bool "corpus loop has a register edge" true (victim >= 0);
  let bump_latency i (e : Graph.edge) =
    if i = victim then { e with Graph.latency = e.Graph.latency + 1 } else e
  in
  let bump_distance i (e : Graph.edge) =
    if i = victim then { e with Graph.distance = e.Graph.distance + 1 } else e
  in
  check bool "latency change changes the fingerprint" false
    (String.equal fp (Fingerprint.canonical (rebuilt g ~edge:bump_latency)));
  check bool "distance change changes the fingerprint" false
    (String.equal fp (Fingerprint.canonical (rebuilt g ~edge:bump_distance)));
  let empty = Graph.Builder.build (Graph.Builder.create ()) in
  check bool "empty graph is stable" true
    (String.equal (Fingerprint.canonical empty) (Fingerprint.canonical empty));
  check bool "empty differs from non-empty" false
    (String.equal fp (Fingerprint.canonical empty))

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "edge latency from Table 1" `Quick
      test_edge_latency_from_table1;
    Alcotest.test_case "latency override" `Quick test_latency_override;
    Alcotest.test_case "builder rejects" `Quick test_builder_rejects;
    Alcotest.test_case "builder edge checks" `Quick test_builder_edge_checks;
    Alcotest.test_case "one copy per fact" `Quick test_one_copy_per_fact;
    Alcotest.test_case "zero-distance cycle rejected" `Quick
      test_zero_distance_cycle_rejected;
    Alcotest.test_case "loop-carried cycle allowed" `Quick
      test_loop_carried_cycle_allowed;
    Alcotest.test_case "ops of kind" `Quick test_ops_of_kind;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "figure3 shape" `Quick test_figure3_shape;
    Alcotest.test_case "fingerprint permutation invariance" `Quick
      test_fingerprint_permutation_invariant;
    Alcotest.test_case "fingerprint discrimination" `Quick
      test_fingerprint_discriminates;
    Alcotest.test_case "fingerprint sensitivity" `Quick
      test_fingerprint_sensitive;
  ]
