open Ddg
open Machine

(* Bump whenever generation changes in a way that could alter the loop a
   given (seed, nodes) pair denotes — op mix, dependence wiring, profile
   randomisation, Rng stream consumption order.  Recorded fuzz corpora
   carry this tag and self-invalidate when it no longer matches
   (Check.Fuzz.stale). *)
let version = "gen-1"

type loop = {
  id : string;
  benchmark : string;
  graph : Graph.t;
  trip : int;
  visits : int;
}

(* A value-producing node we can use as an operand, tagged with the
   strand it belongs to (strands matter only for Separable shapes). *)
type value = { node : int; strand : int }

let fp_op rng =
  let r = Rng.float rng in
  if r < 0.62 then Opclass.Fp_arith
  else if r < 0.97 then Opclass.Fp_mul
  else Opclass.Fp_div

let int_op rng =
  if Rng.chance rng 0.12 then Opclass.Int_mul else Opclass.Int_arith

let generate_loop (p : Benchmark.t) rng index =
  let id = Printf.sprintf "%s.%d" p.name index in
  let b = Graph.Builder.create ~name:id () in
  let add op = Graph.Builder.add b op in
  let dep ?distance src dst = Graph.Builder.depend b ?distance ~src ~dst in
  let lo, hi = p.nodes in
  let n = Rng.range rng lo hi in
  let n_mem = max 2 (int_of_float (float_of_int n *. p.mem_frac)) in
  let n_fp = max 2 (int_of_float (float_of_int n *. p.fp_frac)) in
  let n_loads = max 1 (n_mem * 2 / 3) in
  let n_stores = max 1 (n_mem - n_loads) in
  let strands = Rng.range rng (fst p.strands) (snd p.strands) in
  let strand_of i = i mod strands in

  (* Induction variables: loop-carried integer adds.  They are the roots
     of all address arithmetic. *)
  let int_count = ref 0 in
  let n_ind = if Rng.chance rng 0.5 then 2 else 1 in
  let inductions =
    List.init n_ind (fun i ->
        let v = add Opclass.Int_arith in
        incr int_count;
        dep ~distance:1 v v;
        { node = v; strand = i mod strands })
  in
  (* Address chains: shared integer arithmetic at the top of the DDG —
     the prime replication candidates.  Each chain serves several memory
     operations (profile's addr_sharing). *)
  let sh_lo, sh_hi = p.addr_sharing in
  let n_chains =
    max 1 ((n_mem + sh_lo - 1) / max 1 ((sh_lo + sh_hi) / 2))
  in
  let addr_chains =
    List.init n_chains (fun i ->
        let root = Rng.pick rng inductions in
        let len =
          let r = Rng.float rng in
          if r < 0.45 then 1 else if r < 0.85 then 2 else 3
        in
        let rec build prev k =
          if k = 0 then prev
          else begin
            let v = add (int_op rng) in
            incr int_count;
            dep prev.node v;
            build { node = v; strand = i mod strands } (k - 1)
          end
        in
        build root len)
  in
  let chain_for_strand s =
    match List.filter (fun c -> c.strand = s) addr_chains with
    | [] -> Rng.pick rng addr_chains
    | own -> Rng.pick rng own
  in
  (* Loads. *)
  let loads =
    List.init n_loads (fun i ->
        let s = strand_of i in
        let addr = chain_for_strand s in
        let v = add Opclass.Load in
        dep addr.node v;
        { node = v; strand = s })
  in
  (* Floating-point expression graph. *)
  let values_by_strand = Array.make strands [] in
  List.iter
    (fun l -> values_by_strand.(l.strand) <- l :: values_by_strand.(l.strand))
    loads;
  let all_values = ref loads in
  (* Locality: a compiler-generated expression tree mostly combines
     values produced nearby (the head of the strand list); entanglement
     is the probability of reaching anywhere in the body instead, which
     is what forces a partition to communicate. *)
  let window = 3 in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  let pick_operand s =
    let local = values_by_strand.(s) in
    let cross = Rng.chance rng p.fp_entangle in
    match (local, cross) with
    | _ :: _, false -> Rng.pick rng (take window local)
    | _ -> Rng.pick rng !all_values
  in
  let fp_nodes =
    List.init n_fp (fun i ->
        let s = strand_of i in
        let op = fp_op rng in
        let v = add op in
        let a = pick_operand s in
        dep a.node v;
        if Rng.chance rng 0.65 then begin
          let b_ = pick_operand s in
          if b_.node <> a.node then dep b_.node v
        end;
        let value = { node = v; strand = s } in
        values_by_strand.(s) <- value :: values_by_strand.(s);
        all_values := value :: !all_values;
        value)
  in
  (* Optional loop-carried fp recurrence: a cycle of fp ops whose result
     feeds back into its first operation one iteration later. *)
  if Rng.chance rng p.recurrence_prob then begin
    let rl_lo, rl_hi = p.recurrence_len in
    let len = Rng.range rng rl_lo rl_hi in
    let seed_load = Rng.pick rng loads in
    let first = add Opclass.Fp_arith in
    dep seed_load.node first;
    let rec extend prev k acc =
      if k = 0 then (prev, acc)
      else begin
        let v = add Opclass.Fp_arith in
        dep prev v;
        extend v (k - 1) (v :: acc)
      end
    in
    let last, _ = extend first (len - 1) [ first ] in
    dep ~distance:1 last first;
    let value = { node = last; strand = seed_load.strand } in
    values_by_strand.(value.strand) <- value :: values_by_strand.(value.strand);
    all_values := value :: !all_values
  end;
  (* Stores: a late fp value plus an address. *)
  (* Stores write back freshly computed values: pick among the most
     recent results of the strand so the partitioner can colocate the
     store with its producer (the address chain is the cross-cluster
     tension, as in real code). *)
  let late_fp s =
    let candidates =
      match List.filter (fun v -> v.strand = s) fp_nodes with
      | [] -> take window (List.rev fp_nodes)
      | own -> take window own
    in
    match candidates with [] -> Rng.pick rng loads | l -> Rng.pick rng l
  in
  for i = 0 to n_stores - 1 do
    let s = strand_of i in
    let v = add Opclass.Store in
    let data = late_fp s in
    let addr = chain_for_strand s in
    dep data.node v;
    dep addr.node v
  done;
  (* Loop-overhead integer work (compares, second-order IV updates):
     sinks that consume integer issue slots without producing
     communicated values, as real loop bookkeeping does. *)
  let n_int_target = max 0 (n - n_mem - n_fp) in
  for _ = !int_count + 1 to n_int_target do
    let v = add (int_op rng) in
    incr int_count;
    let src = Rng.pick rng inductions in
    dep src.node v
  done;
  let trip = Rng.range rng (fst p.trip) (snd p.trip) in
  let visits = Rng.range rng (fst p.visits) (snd p.visits) in
  {
    id;
    benchmark = p.name;
    graph = Graph.Builder.build b;
    trip;
    visits;
  }

let generate p =
  let rng = Rng.create p.Benchmark.seed in
  List.init p.Benchmark.n_loops (fun i ->
      generate_loop p (Rng.split rng) i)

(* A profile randomised from the seed, for the fuzzer: the structural
   knobs sweep a wider envelope than the ten SPECfp95 profiles (more
   entanglement, denser recurrences, memory-heavy bodies) while reusing
   exactly the same loop-body construction. *)
let random ~seed ?nodes () =
  let rng = Rng.create (seed lxor 0x5deece66d) in
  let span lo w = (lo + Rng.int rng w, lo + w + Rng.int rng w) in
  let shape =
    Rng.pick rng [ Benchmark.Entangled; Benchmark.Separable; Benchmark.Mixed ]
  in
  let p =
    {
      Benchmark.name = Printf.sprintf "fuzz%d" seed;
      n_loops = 1;
      nodes = (match nodes with Some n -> (n, n) | None -> span 6 11);
      mem_frac = 0.1 +. (0.3 *. Rng.float rng);
      fp_frac = 0.15 +. (0.4 *. Rng.float rng);
      shape;
      strands = span 1 2;
      addr_sharing = span 1 2;
      fp_entangle = 0.7 *. Rng.float rng;
      recurrence_prob = 0.8 *. Rng.float rng;
      recurrence_len = span 2 2;
      trip = span 2 40;
      visits = span 1 12;
      seed;
    }
  in
  generate_loop p (Rng.split rng) 0

let suite () = List.concat_map generate Benchmark.all

let dynamic_weight l = l.visits * l.trip
