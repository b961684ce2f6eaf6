open Ddg

type t = int array

(* ------------------------------------------------------------------ *)
(* Tables keyed by int arrays                                          *)
(* ------------------------------------------------------------------ *)

(* The whole content, mixed once at the end: [Hashtbl.hash] reads at
   most ten meaningful words, so arrays agreeing on their first nine
   entries would share one bucket. *)
let hash_ints (a : int array) =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := (!h * 31) + Array.unsafe_get a i
  done;
  Hashtbl.hash !h

let equal_ints (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

module Ints = Hashtbl.Make (struct
  type t = int array

  let equal = equal_ints
  let hash = hash_ints
end)

module Ints_at = Hashtbl.Make (struct
  type t = int * int array

  let equal (i, a) (j, b) = i = j && equal_ints a b
  let hash (i, a) = Hashtbl.hash ((hash_ints a * 31) + i)
end)

(* ------------------------------------------------------------------ *)
(* Coarsening                                                          *)
(* ------------------------------------------------------------------ *)

(* A macro-node: how many original nodes it holds, and its per-kind op
   counts so capacity checks are O(1). *)
type macro = { size : int; kind_count : int array }

let macro_of_node g v =
  let kind_count = Array.make Machine.Fu.count 0 in
  (match Machine.Opclass.fu_kind (Graph.op g v) with
  | Some k -> kind_count.(Machine.Fu.index k) <- 1
  | None -> ());
  { size = 1; kind_count }

let merge_macro a b =
  {
    size = a.size + b.size;
    kind_count = Array.init Machine.Fu.count (fun i ->
        a.kind_count.(i) + b.kind_count.(i));
  }

(* Two macro-nodes are contractible if at least one cluster could hold
   their merge at this II (on heterogeneous machines, the roomiest
   cluster decides). *)
let fits config ~ii a b =
  List.for_all
    (fun k ->
      let units = Machine.Config.max_cluster_fus config k in
      let i = Machine.Fu.index k in
      a.kind_count.(i) + b.kind_count.(i) <= units * ii)
    Machine.Fu.all

(* Edges between macro-nodes, weights accumulated. *)
let macro_edges g analysis macro_of =
  let table = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      let mu = macro_of.(e.Graph.src) and mv = macro_of.(e.Graph.dst) in
      if mu <> mv then begin
        let key = (min mu mv, max mu mv) in
        let w = Analysis.edge_weight analysis e in
        let prev = try Hashtbl.find table key with Not_found -> 0 in
        Hashtbl.replace table key (prev + w)
      end)
    (Graph.edges g);
  Hashtbl.fold
    (fun (u, v) weight acc -> { Matching.u; v; weight } :: acc)
    table []

(* One coarsening level: match macro-nodes along heavy edges and contract
   the pairs that still fit a cluster.  Returns [None] when no pair could
   be contracted (coarsening has stalled). *)
let coarsen_level config ~ii g analysis macros macro_of =
  let n = Array.length macros in
  let edges = macro_edges g analysis macro_of in
  let pairs = Matching.greedy ~n edges in
  let contractible =
    List.filter
      (fun (u, v) -> fits config ~ii macros.(u) macros.(v))
      pairs
  in
  if contractible = [] then None
  else begin
    let partner = Matching.matched_array ~n contractible in
    (* Give each surviving macro a dense new id. *)
    let new_id = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if new_id.(i) = -1 then begin
        new_id.(i) <- !next;
        if partner.(i) >= 0 then new_id.(partner.(i)) <- !next;
        incr next
      end
    done;
    let merged = Array.make !next None in
    for i = 0 to n - 1 do
      let id = new_id.(i) in
      merged.(id) <-
        (match merged.(id) with
        | None -> Some macros.(i)
        | Some m -> Some (merge_macro m macros.(i)))
    done;
    let macros' =
      Array.map
        (function Some m -> m | None -> assert false)
        merged
    in
    let macro_of' = Array.map (fun m -> new_id.(m)) macro_of in
    Some (macros', macro_of')
  end

(* ------------------------------------------------------------------ *)
(* Assignment of macro-nodes to clusters                               *)
(* ------------------------------------------------------------------ *)

let assign_macros config g analysis ~ii macros macro_of =
  let clusters = config.Machine.Config.clusters in
  let n_macros = Array.length macros in
  let cluster_of_macro = Array.make n_macros (-1) in
  let cluster_count = Array.make_matrix clusters Machine.Fu.count 0 in
  let cluster_load = Array.make clusters 0 in
  (* A macro only fits a cluster whose functional units can still absorb
     its operations at the current II. *)
  let fits_cluster m c =
    List.for_all
      (fun k ->
        let i = Machine.Fu.index k in
        cluster_count.(c).(i) + macros.(m).kind_count.(i)
        <= Machine.Config.fus config ~cluster:c k * ii)
      Machine.Fu.all
  in
  (* Connection weight between a macro and each cluster, from edges whose
     other endpoint is already placed. *)
  let connection m =
    let conn = Array.make clusters 0 in
    Array.iter
      (fun e ->
        let mu = macro_of.(e.Graph.src) and mv = macro_of.(e.Graph.dst) in
        let other =
          if mu = m && mv <> m then Some mv
          else if mv = m && mu <> m then Some mu
          else None
        in
        match other with
        | Some o when cluster_of_macro.(o) >= 0 ->
            let w = Analysis.edge_weight analysis e in
            conn.(cluster_of_macro.(o)) <- conn.(cluster_of_macro.(o)) + w
        | _ -> ())
      (Graph.edges g);
    conn
  in
  let size m = macros.(m).size in
  let order =
    List.sort
      (fun a b -> Stdlib.compare (size b, a) (size a, b))
      (List.init n_macros Fun.id)
  in
  List.iter
    (fun m ->
      let conn = connection m in
      let pick ~require_fit =
        let best = ref (-1) in
        let best_key = ref (min_int, min_int) in
        for c = 0 to clusters - 1 do
          if (not require_fit) || fits_cluster m c then begin
            (* Prefer strong connections, then light load. *)
            let key = (conn.(c), -cluster_load.(c)) in
            if key > !best_key then begin
              best_key := key;
              best := c
            end
          end
        done;
        !best
      in
      let c =
        match pick ~require_fit:true with
        | -1 ->
            (* Nothing fits within the II window: fall back to the
               least-loaded cluster that at least owns a unit of every
               kind the macro needs (the driver will raise the II); a
               cluster with no such unit could never execute the ops. *)
            let executable c =
              List.for_all
                (fun k ->
                  macros.(m).kind_count.(Machine.Fu.index k) = 0
                  || Machine.Config.fus config ~cluster:c k > 0)
                Machine.Fu.all
            in
            let least = ref (-1) in
            for c = 0 to clusters - 1 do
              if
                executable c
                && (!least = -1 || cluster_load.(c) < cluster_load.(!least))
              then least := c
            done;
            if !least = -1 then 0 else !least
        | c -> c
      in
      cluster_of_macro.(m) <- c;
      cluster_load.(c) <- cluster_load.(c) + size m;
      Array.iteri
        (fun i k -> cluster_count.(c).(i) <- cluster_count.(c).(i) + k)
        macros.(m).kind_count)
    order;
  cluster_of_macro

(* ------------------------------------------------------------------ *)
(* Refinement                                                          *)
(* ------------------------------------------------------------------ *)

let refine_impl ?(metric = `Pseudo) ?rec_mii config g ~ii assign =
  let clusters = config.Machine.Config.clusters in
  if clusters = 1 then Array.copy assign
  else begin
    let n = Graph.n_nodes g in
    let assign = Array.copy assign in
    let rec_ii =
      match rec_mii with Some r -> r | None -> Mii.rec_mii g
    in
    (* Per-cluster operation counts by unit kind, so capacity at the
       current II stays a hard constraint during hill-climbing. *)
    let counts = Array.make_matrix clusters Machine.Fu.count 0 in
    for v = 0 to n - 1 do
      match Machine.Opclass.fu_kind (Graph.op g v) with
      | Some k ->
          let i = Machine.Fu.index k in
          counts.(assign.(v)).(i) <- counts.(assign.(v)).(i) + 1
      | None -> ()
    done;
    let kind_of v = Machine.Opclass.fu_kind (Graph.op g v) in
    let room_for v c =
      match kind_of v with
      | None -> true
      | Some k ->
          counts.(c).(Machine.Fu.index k)
          < Machine.Config.fus config ~cluster:c k * ii
    in
    let move v ~from ~to_ =
      assign.(v) <- to_;
      match kind_of v with
      | None -> ()
      | Some k ->
          let i = Machine.Fu.index k in
          counts.(from).(i) <- counts.(from).(i) - 1;
          counts.(to_).(i) <- counts.(to_).(i) + 1
    in
    let estimate assign =
      let e = Pseudo.estimate ~rec_ii config g ~assign ~ii in
      match metric with
      | `Pseudo -> e
      | `Cut ->
          (* Ablation: ignore the pseudo-schedule terms, keep only the
             raw communication count and balance. *)
          { e with Pseudo.ii_induced = 0; length = 0 }
    in
    let best_est = ref (estimate assign) in
    let improves assign =
      Pseudo.improves ~rec_ii ~metric config g ~assign ~ii ~best:!best_est
    in
    (* Only nodes on the partition boundary (incident to a cut register
       edge) can reduce communications; restricting moves to them keeps a
       refinement pass cheap, as in KL/FM-style refiners. *)
    let boundary v =
      List.exists
        (fun e ->
          e.Graph.kind = Graph.Reg
          && assign.(e.Graph.src) <> assign.(e.Graph.dst))
        (Graph.preds g v @ Graph.succs g v)
    in
    let improved = ref true in
    let passes = ref 0 in
    while !improved && !passes < 3 do
      improved := false;
      incr passes;
      for v = 0 to n - 1 do
        if boundary v then begin
        let home = assign.(v) in
        let best_c = ref home in
        for c = 0 to clusters - 1 do
          if c <> home && room_for v c then begin
            assign.(v) <- c;
            match improves assign with
            | Some est ->
                best_est := est;
                best_c := c;
                improved := true
            | None -> ()
          end
        done;
        assign.(v) <- home;
        if !best_c <> home then move v ~from:home ~to_:!best_c
        end
      done
    done;
    assign
  end

let refine ?metric config g ~ii assign =
  Profile.time Profile.Partition (fun () ->
      refine_impl ?metric config g ~ii assign)

(* ------------------------------------------------------------------ *)
(* The coarsening hierarchy as a reusable artifact                     *)
(* ------------------------------------------------------------------ *)

module Hier = struct
  type coarse = { hl_macros : macro array; hl_macro_of : int array }

  (* The config-blind part of a hierarchy: the slack analysis and the
     coarsening levels.  Contraction capacity ([fits]) reads only the
     roomiest cluster's unit counts and {!assign_macros} is run per
     view, so one skeleton serves every machine sharing the
     cluster/unit structure — bus counts, bus latencies and register
     files may all differ.  The skeleton also holds the one copy of
     each distinct partition its views' memos keep ([s_arrays]): views
     for different buses and latencies mostly compute equal
     partitions.  A mutex guards the memo state: loops with identical
     DDGs may share one skeleton across pool domains within one
     parallel sweep.  Everything memoized is deterministic, so the lock
     only prevents torn state, never changes results. *)
  type skel = {
    s_config : Machine.Config.t;  (* structure donor: clusters + units *)
    s_graph : Graph.t;
    s_rec_mii : int;
    s_base_ii : int;
    s_trivial : bool;  (* unified machine or empty graph *)
    s_lock : Mutex.t;
    (* Analysis and base coarsening are computed on the first
       from-scratch partition request, not at creation: a suite creates
       a pass's views on its calling domain, and the work then falls to
       the pool worker that first schedules the loop.  Options rather
       than [Lazy.t]: forcing a lazy from two domains is a race. *)
    mutable s_analysis : Analysis.t option;  (* at [max base_ii rec_mii] *)
    mutable s_base : coarse option;  (* coarsest level at [base_ii] *)
    s_coarse : (int, coarse) Hashtbl.t;  (* continued coarsening per II *)
    s_arrays : int array Ints.t;  (* every view memo's arrays, by content *)
  }

  (* A per-configuration view of a skeleton.  Assignment and refinement
     read the configuration up to the register file (the pseudo-schedule
     estimate depends on buses and latency, never on registers), so
     their memos live here and a view may serve a whole register family
     across sequential passes.  A view is used by one domain at a time
     — the suite hands each loop to a single worker per pass — so the
     memo tables are unlocked; only the skeleton underneath, which
     holds the arrays they map to, is shared. *)
  type t = {
    h_skel : skel;
    h_config : Machine.Config.t;
    h_graph : Graph.t;
        (* the graph this view serves: physically the loop's own, and
           structurally identical to [s_graph] (same canonical digest),
           so skeleton artifacts — index arrays over node ids — apply
           verbatim *)
    h_init : (int, int array) Hashtbl.t;  (* memoized {!initial} per II *)
    h_refine : int array Ints_at.t;
        (* memoized {!refine} per (II, input partition).  The escalation's
           lineage chain is a pure function of the II — the walk refines
           the previous level's partition regardless of why the attempt
           failed — so two walks sharing a hierarchy (e.g. the base and
           the replication run over the same loop) ask for identical
           refinements level for level. *)
  }

  (* Contract along heavy edges until as many macro-nodes as clusters
     remain or no pair fits a cluster at this II. *)
  let coarsen_to config ~ii g analysis macros0 macro_of0 =
    let clusters = config.Machine.Config.clusters in
    let macros = ref macros0 and macro_of = ref macro_of0 in
    let continue_ = ref true in
    while !continue_ && Array.length !macros > clusters do
      match coarsen_level config ~ii g analysis !macros !macro_of with
      | Some (m, mo) ->
          macros := m;
          macro_of := mo
      | None -> continue_ := false
    done;
    { hl_macros = !macros; hl_macro_of = !macro_of }

  let create_skel ?rec_mii config g ~base_ii =
    let n = Graph.n_nodes g in
    let trivial = config.Machine.Config.clusters = 1 || n = 0 in
    let rec_mii =
      match rec_mii with
      | Some r -> r
      | None -> if trivial then 0 else Mii.rec_mii g
    in
    {
      s_config = config;
      s_graph = g;
      s_rec_mii = rec_mii;
      s_base_ii = base_ii;
      s_trivial = trivial;
      s_lock = Mutex.create ();
      s_analysis = None;
      s_base = None;
      s_coarse = Hashtbl.create 8;
      s_arrays = Ints.create 16;
    }

  (* Callers hold [s_lock]. *)
  let analysis_unlocked s =
    match s.s_analysis with
    | Some a -> a
    | None ->
        let a =
          Analysis.compute s.s_graph ~ii:(max s.s_base_ii s.s_rec_mii)
        in
        s.s_analysis <- Some a;
        a

  let base_unlocked s =
    match s.s_base with
    | Some b -> b
    | None ->
        let n = Graph.n_nodes s.s_graph in
        let b =
          coarsen_to s.s_config ~ii:s.s_base_ii s.s_graph
            (analysis_unlocked s)
            (Array.init n (fun v -> macro_of_node s.s_graph v))
            (Array.init n Fun.id)
        in
        s.s_base <- Some b;
        b

  let same_structure (a : Machine.Config.t) (b : Machine.Config.t) =
    a.Machine.Config.clusters = b.Machine.Config.clusters
    && a.Machine.Config.fu_matrix = b.Machine.Config.fu_matrix

  let view skel ?graph config =
    if not (same_structure skel.s_config config) then
      invalid_arg "Partition.Hier.view: cluster structure differs";
    let graph = match graph with Some g -> g | None -> skel.s_graph in
    if Graph.n_nodes graph <> Graph.n_nodes skel.s_graph then
      invalid_arg "Partition.Hier.view: graph differs from the skeleton's";
    {
      h_skel = skel;
      h_config = config;
      h_graph = graph;
      h_init = Hashtbl.create 8;
      h_refine = Ints_at.create 8;
    }

  let create ?rec_mii config g ~base_ii =
    view (create_skel ?rec_mii config g ~base_ii) config

  let skeleton t = t.h_skel
  let base_ii t = t.h_skel.s_base_ii
  let rec_mii t = t.h_skel.s_rec_mii
  let graph t = t.h_graph
  let config t = t.h_config

  (* The coarsest level at [ii]: at the base II it is the cached base
     level; above it, coarsening *continues* from the base level (the
     capacity test only loosens as the II grows, so every base merge
     stays legal and further pairs may fit).  Each continuation starts
     from the base level, never from a neighbouring II's continuation,
     so the result is a function of the II alone — independent of the
     order the escalation queries it in, and of which view asked
     first. *)
  let coarsest_and_analysis s ~ii =
    Mutex.protect s.s_lock (fun () ->
        let analysis = analysis_unlocked s in
        let base = base_unlocked s in
        let lvl =
          if ii <= s.s_base_ii then base
          else
            match Hashtbl.find_opt s.s_coarse ii with
            | Some l -> l
            | None ->
                let l =
                  coarsen_to s.s_config ~ii s.s_graph analysis
                    base.hl_macros base.hl_macro_of
                in
                Hashtbl.replace s.s_coarse ii l;
                l
        in
        (lvl, analysis))

  (* The skeleton's array equal to [a], which [a] (a copy of it with
     [~copy]) becomes the first time: what a view memoizes is held once
     per skeleton, whichever view computed it. *)
  let intern ?(copy = false) s a =
    Mutex.protect s.s_lock (fun () ->
        match Ints.find_opt s.s_arrays a with
        | Some b -> b
        | None ->
            let b = if copy then Array.copy a else a in
            Ints.add s.s_arrays b b;
            b)

  let initial t ~ii =
    Profile.time Profile.Partition (fun () ->
        if t.h_skel.s_trivial then Array.make (Graph.n_nodes t.h_graph) 0
        else
          let memo =
            match Hashtbl.find_opt t.h_init ii with
            | Some a -> a
            | None ->
                Profile.count Profile.Partition_computed;
                let lvl, analysis = coarsest_and_analysis t.h_skel ~ii in
                let cluster_of_macro =
                  assign_macros t.h_config t.h_graph analysis ~ii
                    lvl.hl_macros lvl.hl_macro_of
                in
                let assign =
                  Array.map (fun m -> cluster_of_macro.(m)) lvl.hl_macro_of
                in
                let assign =
                  intern t.h_skel
                    (refine_impl ~rec_mii:t.h_skel.s_rec_mii t.h_config
                       t.h_graph ~ii assign)
                in
                Hashtbl.replace t.h_init ii assign;
                assign
          in
          (* Callers own their copy: the memo must stay pristine. *)
          Array.copy memo)

  let refine t ~ii assign =
    Profile.time Profile.Partition (fun () ->
        if t.h_skel.s_trivial then Array.copy assign
        else
          let memo =
            match Ints_at.find_opt t.h_refine (ii, assign) with
            | Some a -> a
            | None ->
                Profile.count Profile.Partition_computed;
                let refined =
                  intern t.h_skel
                    (refine_impl ~rec_mii:t.h_skel.s_rec_mii t.h_config
                       t.h_graph ~ii assign)
                in
                (* The key is the skeleton's copy: callers own their
                   input array and may hand it on elsewhere. *)
                Ints_at.replace t.h_refine
                  (ii, intern ~copy:true t.h_skel assign)
                  refined;
                refined
          in
          Array.copy memo)
end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* A one-shot hierarchy seeded at the requested II reproduces the
   original coarsen-assign-refine pipeline exactly (same analysis II,
   same coarsening walk from singletons, same assignment and
   refinement). *)
let initial config g ~ii =
  Hier.initial (Hier.create config g ~base_ii:ii) ~ii

let is_valid config assign =
  Array.for_all
    (fun c -> c >= 0 && c < config.Machine.Config.clusters)
    assign

let cut_weight g analysis assign =
  Array.fold_left
    (fun acc e ->
      if
        e.Graph.kind = Graph.Reg
        && assign.(e.Graph.src) <> assign.(e.Graph.dst)
      then acc + Analysis.edge_weight analysis e
      else acc)
    0 (Graph.edges g)
