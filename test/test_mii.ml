(* MII bounds, timing analysis, SCCs. *)

open Ddg

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let config4c = Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64
let unified = Machine.Config.unified ~registers:64

let test_res_mii () =
  (* 9 fp ops on 4 fp units total -> ceil(9/4) = 3. *)
  let b = Graph.Builder.create () in
  for _ = 1 to 9 do
    ignore (Graph.Builder.add b Machine.Opclass.Fp_arith)
  done;
  let g = Graph.Builder.build b in
  check int "unified res" 3 (Mii.res_mii unified g);
  check int "4c res" 3 (Mii.res_mii config4c g)

let test_rec_mii_chain () =
  (* fp chain of 2 (latency 3 each) closed at distance 1 -> RecMII 6. *)
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add b Machine.Opclass.Fp_arith in
  let y = Graph.Builder.add b Machine.Opclass.Fp_arith in
  Graph.Builder.depend b ~src:x ~dst:y;
  Graph.Builder.depend b ~distance:1 ~src:y ~dst:x;
  let g = Graph.Builder.build b in
  check int "rec mii" 6 (Mii.rec_mii g);
  check bool "feasible at 6" true (Mii.feasible_ii g 6);
  check bool "infeasible at 5" false (Mii.feasible_ii g 5)

let test_rec_mii_distance2 () =
  (* same cycle but distance 2 -> ceil(6/2) = 3. *)
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add b Machine.Opclass.Fp_arith in
  let y = Graph.Builder.add b Machine.Opclass.Fp_arith in
  Graph.Builder.depend b ~src:x ~dst:y;
  Graph.Builder.depend b ~distance:2 ~src:y ~dst:x;
  let g = Graph.Builder.build b in
  check int "rec mii" 3 (Mii.rec_mii g)

let test_acyclic_rec_mii_is_1 () =
  let g = Examples.tiny_chain ~n:6 () in
  check int "no recurrence" 1 (Mii.rec_mii g)

let test_mii_is_max () =
  let g = Examples.with_recurrence () in
  check int "mii = max(res, rec)"
    (max (Mii.res_mii config4c g) (Mii.rec_mii g))
    (Mii.mii config4c g);
  (* the example's fp self-recurrence has latency 3 *)
  check int "rec = 3" 3 (Mii.rec_mii g)

let test_analysis_chain () =
  let g = Examples.tiny_chain ~n:4 () in
  let a = Analysis.compute g ~ii:1 in
  (* int_arith latency 1, chain of 4: asap 0,1,2,3 *)
  check int "asap head" 0 (Analysis.asap a 0);
  check int "asap tail" 3 (Analysis.asap a 3);
  check int "critical path" 3 (Analysis.critical_path a);
  check int "alap head" 0 (Analysis.alap a 0);
  check int "mobility on chain" 0 (Analysis.mobility a 2);
  check bool "all on critical path" true
    (List.for_all (Analysis.on_critical_path a) (Graph.nodes g))

let test_analysis_slack () =
  (* diamond: a -> (b | c) -> d where b is fp (lat 3), c is int (lat 1):
     the c edge has slack 2. *)
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add b Machine.Opclass.Int_arith in
  let f = Graph.Builder.add b Machine.Opclass.Fp_arith in
  let c = Graph.Builder.add b Machine.Opclass.Int_arith in
  let d = Graph.Builder.add b Machine.Opclass.Fp_arith in
  Graph.Builder.depend b ~src:a ~dst:f;
  Graph.Builder.depend b ~src:a ~dst:c;
  Graph.Builder.depend b ~src:f ~dst:d;
  Graph.Builder.depend b ~src:c ~dst:d;
  let g = Graph.Builder.build b in
  let an = Analysis.compute g ~ii:4 in
  let edge_cd =
    Option.get
      (Array.find_opt
         (fun e -> e.Graph.src = c && e.Graph.dst = d)
         (Graph.edges g))
  in
  let edge_fd =
    Option.get
      (Array.find_opt
         (fun e -> e.Graph.src = f && e.Graph.dst = d)
         (Graph.edges g))
  in
  check int "tight edge slack" 0 (Analysis.slack an edge_fd);
  check int "loose edge slack" 2 (Analysis.slack an edge_cd);
  check bool "tight edge weighs more" true
    (Analysis.edge_weight an edge_fd > Analysis.edge_weight an edge_cd)

let test_analysis_rejects_infeasible_ii () =
  let g = Examples.with_recurrence () in
  check bool "raises" true
    (try ignore (Analysis.compute g ~ii:1); false
     with Invalid_argument _ -> true)

let test_scc () =
  let g = Examples.with_recurrence () in
  let recs = Scc.recurrences g in
  (* acc self-loop and inc self-loop *)
  check int "two recurrences" 2 (List.length recs);
  let rec_miis = List.map (fun c -> c.Scc.rec_mii) recs in
  check (Alcotest.list int) "sorted desc" [ 3; 1 ] rec_miis;
  let comps = Scc.compute g in
  let covered = List.concat_map (fun c -> c.Scc.members) comps in
  check int "partition covers all" (Graph.n_nodes g)
    (List.length (List.sort_uniq compare covered))

let test_scc_multi_node () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add b Machine.Opclass.Fp_arith in
  let y = Graph.Builder.add b Machine.Opclass.Fp_mul in
  let z = Graph.Builder.add b Machine.Opclass.Int_arith in
  Graph.Builder.depend b ~src:x ~dst:y;
  Graph.Builder.depend b ~distance:1 ~src:y ~dst:x;
  Graph.Builder.depend b ~src:y ~dst:z;
  let g = Graph.Builder.build b in
  let recs = Scc.recurrences g in
  check int "one recurrence" 1 (List.length recs);
  check (Alcotest.list int) "members" [ x; y ] (List.hd recs).Scc.members;
  (* 3 + 6 over distance 1 *)
  check int "cycle mii" 9 (List.hd recs).Scc.rec_mii;
  let comp_of = Scc.component_of g in
  check bool "x,y same comp" true (comp_of.(x) = comp_of.(y));
  check bool "z elsewhere" true (comp_of.(z) <> comp_of.(x))

let suite =
  [
    Alcotest.test_case "res mii" `Quick test_res_mii;
    Alcotest.test_case "rec mii chain" `Quick test_rec_mii_chain;
    Alcotest.test_case "rec mii distance 2" `Quick test_rec_mii_distance2;
    Alcotest.test_case "acyclic rec mii" `Quick test_acyclic_rec_mii_is_1;
    Alcotest.test_case "mii is max of bounds" `Quick test_mii_is_max;
    Alcotest.test_case "analysis chain" `Quick test_analysis_chain;
    Alcotest.test_case "analysis slack" `Quick test_analysis_slack;
    Alcotest.test_case "analysis rejects bad ii" `Quick
      test_analysis_rejects_infeasible_ii;
    Alcotest.test_case "scc recurrences" `Quick test_scc;
    Alcotest.test_case "scc multi node" `Quick test_scc_multi_node;
  ]
