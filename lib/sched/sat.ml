(* Incremental CDCL: two-watched literals, 1UIP learning, VSIDS + phase
   saving, Luby restarts, assumption prefixes.  See sat.mli for the
   external contract.

   Internally variables are 0-based and a literal is [2v] (positive) or
   [2v+1] (negative), so negation is [lxor 1] and the variable is
   [lsr 1].  External literals are the usual nonzero ints. *)

type ivec = { mutable a : int array; mutable n : int }

let iv_make () = { a = Array.make 8 0; n = 0 }

let iv_push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type result = Sat | Unsat | Unknown

type t = {
  (* clause store: [clauses] owns every live clause (original and
     learned); [learnts] lists the indices that were learned.  Watched
     literals live in slots 0 and 1 of each clause array.  [retire]
     compacts the store, renumbering the survivors in order. *)
  mutable clauses : int array array;
  mutable n_clauses : int;
  learnts : ivec;
  (* per-literal watcher lists, indexed by internal literal: clause
     indices [watch_a.(l).(0 .. watch_n.(l)-1)] *)
  mutable watch_a : int array array;
  mutable watch_n : int array;
  (* per-variable state *)
  mutable nv : int;           (* variables allocated *)
  mutable assigns : int array;  (* 0 undef / 1 true / -1 false *)
  mutable level : int array;
  mutable reason : int array;   (* clause index, -1 for decisions *)
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase; default false *)
  mutable seen : bool array;      (* scratch for analyze *)
  (* trail *)
  mutable trail : int array;  (* internal literals in assignment order *)
  mutable trail_n : int;
  trail_lim : ivec;           (* trail_n at each decision *)
  mutable qhead : int;
  (* heuristics *)
  mutable var_inc : float;
  mutable heap : int array;   (* binary max-heap of vars by activity *)
  mutable heap_n : int;
  mutable heap_idx : int array;  (* position in heap, -1 if absent *)
  (* status / stats *)
  mutable ok : bool;
  mutable model : int array;  (* reused across answers *)
  mutable model_n : int;      (* variables in the last model *)
  lits : ivec;                (* [add_clause] scratch *)
  mutable conflicts : int;
  mutable propagations : int;
}

let create () =
  {
    clauses = Array.make 16 [||];
    n_clauses = 0;
    learnts = iv_make ();
    watch_a = Array.make 16 [||];
    watch_n = Array.make 16 0;
    nv = 0;
    assigns = Array.make 8 0;
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    polarity = Array.make 8 false;
    seen = Array.make 8 false;
    trail = Array.make 8 0;
    trail_n = 0;
    trail_lim = iv_make ();
    qhead = 0;
    var_inc = 1.0;
    heap = Array.make 8 0;
    heap_n = 0;
    heap_idx = Array.make 8 (-1);
    ok = true;
    model = [||];
    model_n = 0;
    lits = iv_make ();
    conflicts = 0;
    propagations = 0;
  }

let n_vars t = t.nv
let ok t = t.ok
let n_conflicts t = t.conflicts
let n_learned t = t.learnts.n
let n_propagations t = t.propagations

(* -- growth ------------------------------------------------------- *)

let grow_int a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_var_capacity t =
  let cap = Array.length t.assigns in
  if t.nv = cap then begin
    let cap' = 2 * cap in
    t.assigns <- grow_int t.assigns cap' 0;
    t.level <- grow_int t.level cap' 0;
    t.reason <- grow_int t.reason cap' (-1);
    t.heap_idx <- grow_int t.heap_idx cap' (-1);
    t.heap <- grow_int t.heap cap' 0;
    t.trail <- grow_int t.trail cap' 0;
    (let b = Array.make cap' 0.0 in
     Array.blit t.activity 0 b 0 cap;
     t.activity <- b);
    (let b = Array.make cap' false in
     Array.blit t.polarity 0 b 0 cap;
     t.polarity <- b);
    (let b = Array.make cap' false in
     Array.blit t.seen 0 b 0 cap;
     t.seen <- b);
    t.watch_a <-
      (let b = Array.make (2 * cap') [||] in
       Array.blit t.watch_a 0 b 0 (2 * cap);
       b);
    t.watch_n <- grow_int t.watch_n (2 * cap') 0
  end

(* A literal's watch vector starts empty and allocates on its first
   watch: most literals of an encoding are watched by a handful of
   clauses, many by none. *)
let watch t l ci =
  let n = t.watch_n.(l) in
  let a = t.watch_a.(l) in
  if n = Array.length a then begin
    let b = Array.make (max 2 (2 * n)) 0 in
    Array.blit a 0 b 0 n;
    t.watch_a.(l) <- b
  end;
  t.watch_a.(l).(n) <- ci;
  t.watch_n.(l) <- n + 1

(* -- activity heap (max-heap on activity) ------------------------- *)

let heap_lt t u v = t.activity.(u) > t.activity.(v)

let heap_sift_up t i0 =
  let i = ref i0 in
  let x = t.heap.(!i) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    heap_lt t x t.heap.(p)
  do
    let p = (!i - 1) / 2 in
    t.heap.(!i) <- t.heap.(p);
    t.heap_idx.(t.heap.(p)) <- !i;
    i := p
  done;
  t.heap.(!i) <- x;
  t.heap_idx.(x) <- !i

let heap_sift_down t i0 =
  let i = ref i0 in
  let x = t.heap.(!i) in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.heap_n then continue := false
    else begin
      let c =
        if l + 1 < t.heap_n && heap_lt t t.heap.(l + 1) t.heap.(l) then l + 1
        else l
      in
      if heap_lt t t.heap.(c) x then begin
        t.heap.(!i) <- t.heap.(c);
        t.heap_idx.(t.heap.(!i)) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  t.heap.(!i) <- x;
  t.heap_idx.(x) <- !i

let heap_insert t v =
  if t.heap_idx.(v) < 0 then begin
    t.heap.(t.heap_n) <- v;
    t.heap_idx.(v) <- t.heap_n;
    t.heap_n <- t.heap_n + 1;
    heap_sift_up t (t.heap_n - 1)
  end

let heap_pop t =
  let x = t.heap.(0) in
  t.heap_n <- t.heap_n - 1;
  t.heap_idx.(x) <- -1;
  if t.heap_n > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_n);
    t.heap_idx.(t.heap.(0)) <- 0;
    heap_sift_down t 0
  end;
  x

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for u = 0 to t.nv - 1 do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_idx.(v) >= 0 then heap_sift_up t t.heap_idx.(v)

let var_decay t = t.var_inc <- t.var_inc /. 0.95

(* -- assignment --------------------------------------------------- *)

let lit_value t l =
  let a = t.assigns.(l lsr 1) in
  if l land 1 = 0 then a else -a

let decision_level t = t.trail_lim.n

let enqueue t l reason =
  let v = l lsr 1 in
  t.assigns.(v) <- (if l land 1 = 0 then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.trail.(t.trail_n) <- l;
  t.trail_n <- t.trail_n + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.a.(lvl) in
    for i = t.trail_n - 1 downto bound do
      let v = t.trail.(i) lsr 1 in
      t.polarity.(v) <- t.assigns.(v) = 1;
      t.assigns.(v) <- 0;
      heap_insert t v
    done;
    t.trail_n <- bound;
    t.qhead <- bound;
    t.trail_lim.n <- lvl
  end

let new_decision_level t = iv_push t.trail_lim t.trail_n

(* -- propagation -------------------------------------------------- *)

(* Returns the index of a conflicting clause, or -1. *)
let propagate t =
  let confl = ref (-1) in
  while !confl < 0 && t.qhead < t.trail_n do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let fl = p lxor 1 in
    let wa = t.watch_a.(fl) and wn = t.watch_n.(fl) in
    let i = ref 0 and j = ref 0 in
    while !i < wn do
      let ci = wa.(!i) in
      incr i;
      let c = t.clauses.(ci) in
      if c.(0) = fl then begin
        c.(0) <- c.(1);
        c.(1) <- fl
      end;
      let first = c.(0) in
      if lit_value t first = 1 then begin
        (* clause already satisfied; keep the watch *)
        wa.(!j) <- ci;
        incr j
      end
      else begin
        let len = Array.length c in
        let k = ref 2 in
        let found = ref false in
        while (not !found) && !k < len do
          if lit_value t c.(!k) <> -1 then begin
            c.(1) <- c.(!k);
            c.(!k) <- fl;
            watch t c.(1) ci;
            found := true
          end
          else incr k
        done;
        if not !found then begin
          (* unit or conflicting under the current assignment *)
          wa.(!j) <- ci;
          incr j;
          if lit_value t first = -1 then begin
            confl := ci;
            t.qhead <- t.trail_n;
            while !i < wn do
              wa.(!j) <- wa.(!i);
              incr i;
              incr j
            done
          end
          else enqueue t first ci
        end
      end
    done;
    t.watch_n.(fl) <- !j
  done;
  !confl

(* -- conflict analysis (first UIP) -------------------------------- *)

(* Returns (learned clause with the asserting literal first, backjump
   level). *)
let analyze t confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (t.trail_n - 1) in
  let ci = ref confl in
  let continue = ref true in
  while !continue do
    let c = t.clauses.(!ci) in
    let start = if !p < 0 then 0 else 1 in
    for k = start to Array.length c - 1 do
      let q = c.(k) in
      let v = q lsr 1 in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        var_bump t v;
        t.seen.(v) <- true;
        if t.level.(v) >= decision_level t then incr path
        else learnt := q :: !learnt
      end
    done;
    while not t.seen.(t.trail.(!idx) lsr 1) do
      decr idx
    done;
    p := t.trail.(!idx);
    decr idx;
    t.seen.(!p lsr 1) <- false;
    decr path;
    if !path <= 0 then continue := false
    else ci := t.reason.(!p lsr 1)
  done;
  let body = !learnt in
  List.iter (fun q -> t.seen.(q lsr 1) <- false) body;
  let blevel =
    List.fold_left (fun m q -> max m t.level.(q lsr 1)) 0 body
  in
  let n = List.length body in
  let c = Array.make (n + 1) 0 in
  c.(0) <- !p lxor 1;
  (* place one literal of the backjump level in the second watch slot *)
  let rest =
    List.sort
      (fun a b -> compare t.level.(b lsr 1) t.level.(a lsr 1))
      body
  in
  List.iteri (fun k q -> c.(k + 1) <- q) rest;
  (c, blevel)

(* -- clause store -------------------------------------------------- *)

let push_clause t c =
  if t.n_clauses = Array.length t.clauses then begin
    let b = Array.make (2 * t.n_clauses) [||] in
    Array.blit t.clauses 0 b 0 t.n_clauses;
    t.clauses <- b
  end;
  t.clauses.(t.n_clauses) <- c;
  t.n_clauses <- t.n_clauses + 1;
  t.n_clauses - 1

let attach t ci =
  let c = t.clauses.(ci) in
  watch t c.(0) ci;
  watch t c.(1) ci

let new_var t =
  ensure_var_capacity t;
  let v = t.nv in
  t.nv <- t.nv + 1;
  heap_insert t v;
  v + 1

let internal_of_lit t e =
  let v = abs e - 1 in
  if e = 0 || v >= t.nv then invalid_arg "Sat.add_clause: bad literal";
  if e > 0 then 2 * v else (2 * v) + 1

let external_of_lit l =
  let v = (l lsr 1) + 1 in
  if l land 1 = 0 then v else -v

(* In-place heapsort of [a.(0 .. n-1)], ascending; top-level helpers,
   so sorting allocates no closure. *)
let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let rec sift (a : int array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      swap a i c;
      sift a c len
    end
  end

let sort_prefix a n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for e = n - 1 downto 1 do
    swap a 0 e;
    sift a 0 e
  done

let rec intake t buf = function
  | [] -> ()
  | e :: rest ->
      iv_push buf (internal_of_lit t e);
      intake t buf rest

(* The clause is normalised in the solver's scratch vector — sorted
   ascending by internal literal, deduplicated, root-false literals
   dropped — so the only allocation is the stored clause itself. *)
let add_clause t lits =
  if t.ok then begin
    assert (decision_level t = 0);
    let buf = t.lits in
    buf.n <- 0;
    intake t buf lits;
    let a = buf.a in
    sort_prefix a buf.n;
    let n = ref 0 in
    for i = 0 to buf.n - 1 do
      if !n = 0 || a.(i) <> a.(!n - 1) then begin
        a.(!n) <- a.(i);
        incr n
      end
    done;
    (* sorted: a literal and its negation are adjacent (2v, 2v+1) *)
    let taut = ref false in
    for i = 0 to !n - 2 do
      if a.(i) lxor 1 = a.(i + 1) then taut := true
    done;
    if not !taut then begin
      (* root-level simplification *)
      let m = ref 0 and sat = ref false in
      for i = 0 to !n - 1 do
        match lit_value t a.(i) with
        | -1 -> ()
        | v ->
            if v = 1 then sat := true;
            a.(!m) <- a.(i);
            incr m
      done;
      if not !sat then
        match !m with
        | 0 -> t.ok <- false
        | 1 ->
            enqueue t a.(0) (-1);
            if propagate t >= 0 then t.ok <- false
        | m ->
            let ci = push_clause t (Array.sub a 0 m) in
            attach t ci
    end
  end

let rec root_true t (c : int array) i =
  i < Array.length c && (lit_value t c.(i) = 1 || root_true t c (i + 1))

(* Compact the clause store to the clauses no root literal satisfies,
   renumbering the survivors in order, and drop the rest from every
   watch list and from [learnts].  A root-satisfied clause can never
   become unit or conflicting, so the search from here on is the one
   it would have been with the clause kept. *)
let sweep t =
  let remap = Array.make t.n_clauses (-1) in
  let kept = ref 0 in
  for ci = 0 to t.n_clauses - 1 do
    let c = t.clauses.(ci) in
    if not (root_true t c 0) then begin
      t.clauses.(!kept) <- c;
      remap.(ci) <- !kept;
      incr kept
    end
  done;
  Array.fill t.clauses !kept (t.n_clauses - !kept) [||];
  t.n_clauses <- !kept;
  let renumber a n =
    let j = ref 0 in
    for i = 0 to n - 1 do
      let ci = remap.(a.(i)) in
      if ci >= 0 then begin
        a.(!j) <- ci;
        incr j
      end
    done;
    !j
  in
  (* a vector the sweep emptied is released, and one left at most a
     quarter full is cut to twice its count, so a retired layer also
     gives back the room its watches took *)
  for l = 0 to (2 * t.nv) - 1 do
    let a = t.watch_a.(l) in
    let n = renumber a t.watch_n.(l) in
    t.watch_n.(l) <- n;
    if n = 0 then t.watch_a.(l) <- [||]
    else if Array.length a >= 4 * n then t.watch_a.(l) <- Array.sub a 0 (2 * n)
  done;
  t.learnts.n <- renumber t.learnts.a t.learnts.n;
  (* only root assignments remain, and analysis never reads their
     reasons; remapping keeps every index valid all the same *)
  for v = 0 to t.nv - 1 do
    if t.reason.(v) >= 0 then t.reason.(v) <- remap.(t.reason.(v))
  done

let retire t s =
  add_clause t [ -s ];
  if t.ok then sweep t

let learned_clauses t =
  let out = ref [] in
  for i = t.learnts.n - 1 downto 0 do
    let c = t.clauses.(t.learnts.a.(i)) in
    out := Array.to_list (Array.map external_of_lit c) :: !out
  done;
  !out

(* -- search -------------------------------------------------------- *)

let luby i =
  (* Luby restart sequence, 0-based: 1 1 2 1 1 2 4 1 1 2 ... *)
  let size = ref 1 and seq = ref 0 in
  while !size < i + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref i in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

exception Done of result

let solve ?(assumptions = []) ?max_conflicts ?interrupt t =
  if not t.ok then Unsat
  else begin
    let assum = Array.of_list (List.map (internal_of_lit t) assumptions) in
    let n_assum = Array.length assum in
    let start_conflicts = t.conflicts in
    let over_budget () =
      match max_conflicts with
      | Some m -> t.conflicts - start_conflicts >= m
      | None -> false
    in
    let interrupted () =
      match interrupt with Some f -> f () | None -> false
    in
    let result =
      try
        if propagate t >= 0 then begin
          t.ok <- false;
          raise (Done Unsat)
        end;
        let restart = ref 0 in
        while true do
          let budget = 100 * luby !restart in
          incr restart;
          let local = ref 0 in
          let restarting = ref false in
          while not !restarting do
            let confl = propagate t in
            if confl >= 0 then begin
              t.conflicts <- t.conflicts + 1;
              incr local;
              if decision_level t = 0 then begin
                t.ok <- false;
                raise (Done Unsat)
              end;
              let c, blevel = analyze t confl in
              cancel_until t blevel;
              if Array.length c = 1 then begin
                (* asserting unit: root fact *)
                cancel_until t 0;
                if lit_value t c.(0) = -1 then begin
                  t.ok <- false;
                  raise (Done Unsat)
                end
                else if lit_value t c.(0) = 0 then enqueue t c.(0) (-1)
              end
              else begin
                let ci = push_clause t c in
                iv_push t.learnts ci;
                attach t ci;
                enqueue t c.(0) ci
              end;
              var_decay t;
              if t.conflicts land 255 = 0 && interrupted () then
                raise (Done Unknown);
              if over_budget () then raise (Done Unknown);
              if !local >= budget then restarting := true
            end
            else if decision_level t < n_assum then begin
              (* place the next assumption *)
              let a = assum.(decision_level t) in
              match lit_value t a with
              | 1 -> new_decision_level t
              | -1 -> raise (Done Unsat)
              | _ ->
                  new_decision_level t;
                  enqueue t a (-1)
            end
            else begin
              (* pick a branching variable *)
              let v = ref (-1) in
              while !v < 0 && t.heap_n > 0 do
                let u = heap_pop t in
                if t.assigns.(u) = 0 then v := u
              done;
              if !v < 0 then begin
                (* full model *)
                if Array.length t.model < t.nv then
                  t.model <- Array.make (Array.length t.assigns) 0;
                Array.blit t.assigns 0 t.model 0 t.nv;
                t.model_n <- t.nv;
                raise (Done Sat)
              end;
              new_decision_level t;
              let l =
                if t.polarity.(!v) then 2 * !v else (2 * !v) + 1
              in
              enqueue t l (-1)
            end
          done;
          cancel_until t 0
        done;
        Unknown (* unreachable *)
      with Done r -> r
    in
    cancel_until t 0;
    result
  end

let value t v =
  if v >= 1 && v <= t.model_n then t.model.(v - 1) = 1
  else false
