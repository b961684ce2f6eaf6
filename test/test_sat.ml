(* Property tests for the CDCL core (Sched.Sat), cross-checked against
   a deliberately naive DPLL reference implemented right here — the two
   share nothing but the CNF.  Random 3-CNF instances are small enough
   (≤ 12 variables) that the reference's exponential worst case never
   bites. *)

(* ---- naive DPLL reference -------------------------------------- *)

exception Conflict

(* assignment: asg.(v) = 0 undef / 1 true / -1 false, 1-based vars *)
let lit_val asg l =
  let a = asg.(abs l) in
  if a = 0 then 0 else if (l > 0) = (a > 0) then 1 else -1

(* Unit-propagation to fixpoint over plain clause lists; raises
   [Conflict] on an all-false clause.  Mutates [asg]. *)
let unit_prop asg clauses =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        if not (List.exists (fun l -> lit_val asg l = 1) c) then
          match List.filter (fun l -> lit_val asg l = 0) c with
          | [] -> raise Conflict
          | [ l ] ->
              asg.(abs l) <- (if l > 0 then 1 else -1);
              changed := true
          | _ -> ())
      clauses
  done

let rec dpll nv clauses asg =
  match unit_prop asg clauses with
  | exception Conflict -> None
  | () ->
      let v = ref 0 in
      for i = nv downto 1 do
        if asg.(i) = 0 then v := i
      done;
      if !v = 0 then Some (Array.copy asg)
      else
        let branch b =
          let a = Array.copy asg in
          a.(!v) <- b;
          dpll nv clauses a
        in
        (match branch 1 with Some m -> Some m | None -> branch (-1))

let naive_solve nv clauses = dpll nv clauses (Array.make (nv + 1) 0)

let satisfies asg clauses =
  List.for_all (fun c -> List.exists (fun l -> lit_val asg l = 1) c) clauses

(* ---- CDCL under test ------------------------------------------- *)

let cdcl_solve ?assumptions nv clauses =
  let s = Sched.Sat.create () in
  for _ = 1 to nv do
    ignore (Sched.Sat.new_var s)
  done;
  List.iter (Sched.Sat.add_clause s) clauses;
  let r = Sched.Sat.solve ?assumptions s in
  (s, r)

let model_of s nv =
  Array.init (nv + 1) (fun v ->
      if v = 0 then 0 else if Sched.Sat.value s v then 1 else -1)

(* ---- random 3-CNF ---------------------------------------------- *)

let cnf_gen =
  QCheck.Gen.(
    let* nv = 3 -- 12 in
    let* nc = 1 -- 50 in
    let lit = map2 (fun v sign -> if sign then v else -v) (1 -- nv) bool in
    let clause = list_size (1 -- 3) lit in
    let+ cs = list_size (return nc) clause in
    (nv, cs))

let cnf_string cs =
  String.concat " & "
    (List.map
       (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
       cs)

let cnf_print (nv, cs) = Printf.sprintf "nv=%d cnf=%s" nv (cnf_string cs)

let cnf_arb = QCheck.make ~print:cnf_print cnf_gen

(* ---- properties ------------------------------------------------- *)

let prop_agreement =
  QCheck.Test.make ~name:"CDCL agrees with naive DPLL on sat/unsat"
    ~count:500 cnf_arb (fun (nv, cs) ->
      let _, r = cdcl_solve nv cs in
      let reference = naive_solve nv cs in
      match (r, reference) with
      | Sched.Sat.Sat, Some _ | Sched.Sat.Unsat, None -> true
      | Sched.Sat.Unknown, _ ->
          QCheck.Test.fail_reportf "solver returned Unknown unbudgeted"
      | Sched.Sat.Sat, None ->
          QCheck.Test.fail_reportf "CDCL says Sat, reference says Unsat"
      | Sched.Sat.Unsat, Some _ ->
          QCheck.Test.fail_reportf "CDCL says Unsat, reference says Sat")

let prop_model_satisfies =
  QCheck.Test.make ~name:"CDCL models satisfy every clause" ~count:500
    cnf_arb (fun (nv, cs) ->
      let s, r = cdcl_solve nv cs in
      match r with
      | Sched.Sat.Sat ->
          let m = model_of s nv in
          satisfies m cs
          || QCheck.Test.fail_reportf "model does not satisfy the CNF"
      | _ -> QCheck.assume_fail ())

(* Literals forced by unit propagation alone are logical consequences:
   any model the solver returns must contain them, and a UP-level
   conflict must mean Unsat. *)
let prop_unit_fixpoint =
  QCheck.Test.make ~name:"models extend the unit-propagation fixpoint"
    ~count:500 cnf_arb (fun (nv, cs) ->
      let asg = Array.make (nv + 1) 0 in
      match unit_prop asg cs with
      | exception Conflict ->
          let _, r = cdcl_solve nv cs in
          r = Sched.Sat.Unsat
          || QCheck.Test.fail_reportf "UP-refutable CNF not Unsat"
      | () -> (
          let s, r = cdcl_solve nv cs in
          match r with
          | Sched.Sat.Sat ->
              let m = model_of s nv in
              (try
                 for v = 1 to nv do
                   if asg.(v) <> 0 && asg.(v) <> m.(v) then raise Exit
                 done;
                 true
               with Exit ->
                 QCheck.Test.fail_reportf
                   "model contradicts a unit-propagated literal")
          | _ -> true))

(* Every learned clause must be implied by the original CNF: appending
   its negation (as unit clauses) must leave the CNF unsatisfiable. *)
let prop_learned_redundant =
  QCheck.Test.make ~name:"learned clauses are implied by the CNF"
    ~count:200 cnf_arb (fun (nv, cs) ->
      let s, _ = cdcl_solve nv cs in
      let learned = Sched.Sat.learned_clauses s in
      List.for_all
        (fun c ->
          let negated = List.map (fun l -> [ -l ]) c in
          match naive_solve nv (cs @ negated) with
          | None -> true
          | Some _ ->
              QCheck.Test.fail_reportf "learned clause %s is not implied"
                (String.concat "|" (List.map string_of_int c)))
        learned)

(* Assumptions: the same solver instance must answer Sat or Unsat per
   call without poisoning its clause set — the incremental pattern
   Exact relies on for II levels. *)
let test_assumptions () =
  let s = Sched.Sat.create () in
  let x = Sched.Sat.new_var s in
  let y = Sched.Sat.new_var s in
  Sched.Sat.add_clause s [ x; y ];
  Sched.Sat.add_clause s [ -x; y ];
  Alcotest.(check bool) "assume ~y -> unsat" true
    (Sched.Sat.solve ~assumptions:[ -y ] s = Sched.Sat.Unsat);
  Alcotest.(check bool) "still ok" true (Sched.Sat.ok s);
  Alcotest.(check bool) "assume y -> sat" true
    (Sched.Sat.solve ~assumptions:[ y ] s = Sched.Sat.Sat);
  Alcotest.(check bool) "y true in model" true (Sched.Sat.value s y);
  Alcotest.(check bool) "unconstrained -> sat" true
    (Sched.Sat.solve s = Sched.Sat.Sat);
  (* the guard-literal pattern: clause group retractable by selector *)
  let g = Sched.Sat.new_var s in
  Sched.Sat.add_clause s [ -g; -y ];
  Alcotest.(check bool) "guard on -> unsat" true
    (Sched.Sat.solve ~assumptions:[ g ] s = Sched.Sat.Unsat);
  Alcotest.(check bool) "guard off -> sat" true
    (Sched.Sat.solve ~assumptions:[ -g ] s = Sched.Sat.Sat)

(* Pigeonhole PHP(6,5): 6 pigeons, 5 holes — classic UNSAT regression
   that exercises learning and restarts well beyond unit propagation. *)
let test_pigeonhole () =
  let pigeons = 6 and holes = 5 in
  let s = Sched.Sat.create () in
  let var = Array.make_matrix pigeons holes 0 in
  for p = 0 to pigeons - 1 do
    for h = 0 to holes - 1 do
      var.(p).(h) <- Sched.Sat.new_var s
    done
  done;
  for p = 0 to pigeons - 1 do
    Sched.Sat.add_clause s
      (List.init holes (fun h -> var.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sched.Sat.add_clause s [ -var.(p1).(h); -var.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "PHP(6,5) unsat" true
    (Sched.Sat.solve s = Sched.Sat.Unsat);
  Alcotest.(check bool) "conflicts were needed" true
    (Sched.Sat.n_conflicts s > 0)

let test_trivia () =
  let s = Sched.Sat.create () in
  Alcotest.(check bool) "empty CNF sat" true
    (Sched.Sat.solve s = Sched.Sat.Sat);
  let x = Sched.Sat.new_var s in
  Sched.Sat.add_clause s [ x ];
  Sched.Sat.add_clause s [ -x ];
  Alcotest.(check bool) "x & -x kills the solver" false (Sched.Sat.ok s);
  Alcotest.(check bool) "and stays unsat" true
    (Sched.Sat.solve s = Sched.Sat.Unsat)

let test_budget () =
  (* a hard instance under a one-conflict budget must answer Unknown *)
  let pigeons = 8 and holes = 7 in
  let s = Sched.Sat.create () in
  let var = Array.make_matrix pigeons holes 0 in
  for p = 0 to pigeons - 1 do
    for h = 0 to holes - 1 do
      var.(p).(h) <- Sched.Sat.new_var s
    done
  done;
  for p = 0 to pigeons - 1 do
    Sched.Sat.add_clause s (List.init holes (fun h -> var.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sched.Sat.add_clause s [ -var.(p1).(h); -var.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "budget exhaustion is Unknown" true
    (Sched.Sat.solve ~max_conflicts:1 s = Sched.Sat.Unknown)

(* ---- retiring guarded layers ------------------------------------ *)

(* Random 3-clauses over variables [1 .. nv], from a fixed seed. *)
let random_3cnf st nv count =
  List.init count (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + Random.State.int st nv in
          if Random.State.bool st then v else -v))

(* A retired layer gives its memory back.  A base CNF plus one guarded
   layer ten times its size is solved under the guard until lemmas are
   learned, then retired: the solver must come back near the size of a
   solver that only ever held the base CNF over the same variables.
   Kept under a unit clause instead, as before retiring existed, the
   solver reads 5.4 times that size; retired it reads 1.6, mostly the
   clause array's grown capacity. *)
let test_retire_releases () =
  let nv = 300 in
  let st = Random.State.make [| 21 |] in
  let base = random_3cnf st nv 900 in
  let layer = random_3cnf st nv 6_000 in
  let solver_with_base () =
    let s = Sched.Sat.create () in
    for _ = 1 to nv + 1 do
      ignore (Sched.Sat.new_var s)
    done;
    List.iter (Sched.Sat.add_clause s) base;
    s
  in
  let s = solver_with_base () in
  let g = nv + 1 in
  List.iter (fun c -> Sched.Sat.add_clause s (-g :: c)) layer;
  ignore (Sched.Sat.solve ~assumptions:[ g ] ~max_conflicts:200 s);
  let guarded () =
    List.filter (List.mem (-g)) (Sched.Sat.learned_clauses s)
  in
  Alcotest.(check bool) "the layer taught lemmas that keep -g" true
    (guarded () <> []);
  Sched.Sat.retire s g;
  Alcotest.(check bool) "still satisfiable" true (Sched.Sat.ok s);
  Alcotest.(check (list (list int))) "no lemma keeps -g" [] (guarded ());
  let words x = Obj.reachable_words (Obj.repr x) in
  let ratio =
    float_of_int (words s) /. float_of_int (words (solver_with_base ()))
  in
  if ratio > 2.5 then
    Alcotest.failf "retired solver is %.2f times a base-only solver" ratio;
  (* the base CNF still holds after the sweep *)
  match Sched.Sat.solve s with
  | Sched.Sat.Sat ->
      let m = model_of s nv in
      Alcotest.(check bool) "model satisfies the base" true (satisfies m base)
  | _ -> ()

(* A base CNF, then up to four guarded layers, random units before
   each.  Every layer is solved under its guard and then retired; each
   answer must agree with the reference on base ∧ units ∧ layer, and
   each model must satisfy that conjunction; a last unguarded solve
   answers for base ∧ units alone.  The base has no unit clauses and
   stays sparse, so it is mostly satisfiable and the units put
   root-false literals into clauses that must survive every sweep. *)
let layers_gen =
  QCheck.Gen.(
    let* nv = 4 -- 12 in
    let lit = map2 (fun v sign -> if sign then v else -v) (1 -- nv) bool in
    let* base = list_size (0 -- (2 * nv)) (list_size (2 -- 3) lit) in
    let+ layers =
      list_size (1 -- 4)
        (pair
           (list_size (0 -- 2) lit)
           (list_size (1 -- 10) (list_size (1 -- 3) lit)))
    in
    (nv, base, layers))

let layers_print (nv, base, layers) =
  Printf.sprintf "nv=%d base=%s%s" nv (cnf_string base)
    (String.concat ""
       (List.map
          (fun (units, layer) ->
            Printf.sprintf " ; units=%s layer=%s"
              (String.concat "," (List.map string_of_int units))
              (cnf_string layer))
          layers))

(* The solver's answer for [cnf] (over variables [1 .. nv]) against the
   reference, the model checked on [Sat]. *)
let agrees s nv cnf what r =
  match (r, naive_solve nv cnf) with
  | Sched.Sat.Sat, Some _ ->
      satisfies (model_of s nv) cnf
      || QCheck.Test.fail_reportf "model does not satisfy %s" what
  | Sched.Sat.Unsat, None -> true
  | Sched.Sat.Unknown, _ ->
      QCheck.Test.fail_reportf "solver returned Unknown unbudgeted"
  | Sched.Sat.Sat, None ->
      QCheck.Test.fail_reportf "Sat for %s, reference Unsat" what
  | Sched.Sat.Unsat, Some _ ->
      QCheck.Test.fail_reportf "Unsat for %s, reference Sat" what

let prop_retire_agreement =
  QCheck.Test.make ~name:"retired layers leave every later answer right"
    ~count:300
    (QCheck.make ~print:layers_print layers_gen)
    (fun (nv, base, layers) ->
      let s = Sched.Sat.create () in
      for _ = 1 to nv do
        ignore (Sched.Sat.new_var s)
      done;
      List.iter (Sched.Sat.add_clause s) base;
      let units = ref [] in
      List.for_all
        (fun (us, layer) ->
          List.iter (fun u -> Sched.Sat.add_clause s [ u ]) us;
          units := List.map (fun u -> [ u ]) us @ !units;
          let g = Sched.Sat.new_var s in
          List.iter (fun c -> Sched.Sat.add_clause s (-g :: c)) layer;
          let r = Sched.Sat.solve ~assumptions:[ g ] s in
          let ok =
            agrees s nv (base @ !units @ layer)
              (Printf.sprintf "layer %d" g) r
          in
          Sched.Sat.retire s g;
          ok)
        layers
      && agrees s nv (base @ !units) "base and units" (Sched.Sat.solve s))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_agreement;
    QCheck_alcotest.to_alcotest prop_model_satisfies;
    QCheck_alcotest.to_alcotest prop_unit_fixpoint;
    QCheck_alcotest.to_alcotest prop_learned_redundant;
    QCheck_alcotest.to_alcotest prop_retire_agreement;
    Alcotest.test_case "assumptions and guard literals" `Quick
      test_assumptions;
    Alcotest.test_case "pigeonhole PHP(6,5) unsat" `Quick test_pigeonhole;
    Alcotest.test_case "trivial cases" `Quick test_trivia;
    Alcotest.test_case "conflict budget yields Unknown" `Quick test_budget;
    Alcotest.test_case "retired layers are released" `Quick
      test_retire_releases;
  ]
