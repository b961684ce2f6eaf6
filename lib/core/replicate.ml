open Ddg
module Iset = State.Iset

type stats = {
  comms_before : int;
  comms_removed : int;
  added_instances : int;
  added_by_kind : int array;
  removed_instances : int;
  removed_by_kind : int array;
  subgraph_sizes : int list;
}

let empty_stats =
  {
    comms_before = 0;
    comms_removed = 0;
    added_instances = 0;
    added_by_kind = Array.make Machine.Fu.count 0;
    removed_instances = 0;
    removed_by_kind = Array.make Machine.Fu.count 0;
    subgraph_sizes = [];
  }

type outcome = {
  graph : Graph.t;
  assign : int array;
  originals : int array;
  is_replica : bool array;
  stats : stats;
}

let apply state (s : Subgraph.t) =
  List.iter
    (fun (v, cs) ->
      Iset.iter (fun c -> State.add_instance state ~node:v ~cluster:c) cs)
    s.Subgraph.additions;
  List.iter
    (fun v -> State.remove_instance state ~node:v ~cluster:(State.home state v))
    s.Subgraph.removable

type heuristic = Lowest_weight | First_come | Fewest_added

(* The greedy loop's "update subgraphs" step (Section 3.4), incremental:
   one computed subgraph is kept per pending communication, tagged with
   the exact set of placements the computation read (State.traced).
   Applying the chosen subgraph changes only the placements of its added
   and removed instances, so a cached entry stays valid — and is reused
   verbatim — unless its read set intersects those nodes. *)
let select ?(heuristic = Lowest_weight) ?(share_discount = true)
    ?(removable_credit = true) ?(cache = true) state ~ii ~extra =
  let tbl : (int, Subgraph.t * Iset.t) Hashtbl.t = Hashtbl.create 64 in
  let subgraph_of com =
    if not cache then Subgraph.compute state com
    else
      match Hashtbl.find_opt tbl com with
      | Some (s, _) -> s
      | None ->
          let s, reads =
            State.traced state (fun () -> Subgraph.compute state com)
          in
          Hashtbl.replace tbl com (s, reads);
          s
  in
  let invalidate (applied : Subgraph.t) =
    Hashtbl.remove tbl applied.Subgraph.com;
    let touched =
      List.fold_left
        (fun acc (v, _) -> Iset.add v acc)
        (Iset.of_list applied.Subgraph.removable)
        applied.Subgraph.additions
    in
    let stale =
      Hashtbl.fold
        (fun com (_, reads) acc ->
          if Iset.disjoint reads touched then acc else com :: acc)
        tbl []
    in
    List.iter (Hashtbl.remove tbl) stale
  in
  let rec go remaining acc =
    if remaining = 0 then Some (List.rev acc)
    else begin
      let candidates = List.map subgraph_of (State.comms state) in
      let feasible =
        List.filter (Subgraph.feasible state ~ii) candidates
      in
      match feasible with
      | [] -> None
      | first :: _ ->
          let key =
            match heuristic with
            | Lowest_weight ->
                let shares =
                  if share_discount then Some (Weight.shares_of candidates)
                  else None
                in
                fun (s : Subgraph.t) ->
                  Weight.subgraph_weight ~share_discount ~removable_credit
                    ?shares state ~ii ~all:candidates s
            | First_come -> fun _ -> 0. (* keep scan order: the first feasible *)
            | Fewest_added ->
                fun s -> float_of_int (Subgraph.n_added_instances s)
          in
          let s =
            match heuristic with
            | First_come -> first
            | _ ->
                let best =
                  List.fold_left
                    (fun best s ->
                      let w = key s in
                      match best with
                      | None -> Some (s, w)
                      | Some (_, bw) when w < bw -> Some (s, w)
                      | Some _ -> best)
                    None feasible
                in
                fst (Option.get best)
          in
          apply state s;
          if cache then invalidate s;
          go (remaining - 1) (s :: acc)
    end
  in
  go extra []

(* ------------------------------------------------------------------ *)
(* Materialization                                                      *)
(* ------------------------------------------------------------------ *)

let materialize state ~base stats =
  let g = State.graph state in
  let n = Graph.n_nodes g in
  assert (Graph.n_nodes base = n);
  let b = Graph.Builder.create ~name:(Graph.name base ^ "+repl") () in
  let inst_id = Hashtbl.create 64 in
  let rev_assign = ref [] in
  let rev_orig = ref [] in
  let rev_replica = ref [] in
  for v = 0 to n - 1 do
    let home = State.home state v in
    Iset.iter
      (fun c ->
        let label =
          if c = home then Graph.label g v
          else Printf.sprintf "%s'%d" (Graph.label g v) c
        in
        let id = Graph.Builder.add b ~label (Graph.op g v) in
        Hashtbl.replace inst_id (v, c) id;
        rev_assign := c :: !rev_assign;
        rev_orig := v :: !rev_orig;
        rev_replica := (c <> home) :: !rev_replica)
      (State.placement state v)
  done;
  (* The instance that feeds the bus when a value still crosses clusters:
     the home instance if alive, else any live instance (the home can only
     be dead when the value no longer needs the bus, but be safe). *)
  let producer_instance v =
    let p = State.placement state v in
    let home = State.home state v in
    let c = if Iset.mem home p then home else Iset.min_elt p in
    Hashtbl.find inst_id (v, c)
  in
  Array.iter
    (fun e ->
      let u = e.Graph.src and v = e.Graph.dst in
      match e.Graph.kind with
      | Graph.Mem ->
          (* Order every instance pair: replicated loads must still obey
             the memory dependences of their original. *)
          Iset.iter
            (fun cu ->
              Iset.iter
                (fun cv ->
                  Graph.Builder.mem_depend b ~distance:e.Graph.distance
                    ~src:(Hashtbl.find inst_id (u, cu))
                    ~dst:(Hashtbl.find inst_id (v, cv)))
                (State.placement state v))
            (State.placement state u)
      | Graph.Reg ->
          Iset.iter
            (fun cv ->
              let src =
                if State.is_placed state u cv then
                  Hashtbl.find inst_id (u, cv)
                else producer_instance u
              in
              Graph.Builder.depend b ~distance:e.Graph.distance
                ~latency:e.Graph.latency ~src
                ~dst:(Hashtbl.find inst_id (v, cv)))
            (State.placement state v))
    (Graph.edges g);
  {
    graph = Graph.Builder.build b;
    assign = Array.of_list (List.rev !rev_assign);
    originals = Array.of_list (List.rev !rev_orig);
    is_replica = Array.of_list (List.rev !rev_replica);
    stats;
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

let kind_histogram g nodes =
  let h = Array.make Machine.Fu.count 0 in
  List.iter
    (fun v ->
      match Machine.Opclass.fu_kind (Graph.op g v) with
      | Some k -> h.(Machine.Fu.index k) <- h.(Machine.Fu.index k) + 1
      | None -> ())
    nodes;
  h

let stats_of_subgraphs g ~comms_before subgraphs =
  let added =
    List.concat_map
      (fun (s : Subgraph.t) ->
        List.concat_map
          (fun (v, cs) -> List.map (fun _ -> v) (Iset.elements cs))
          s.Subgraph.additions)
      subgraphs
  in
  let removed =
    List.concat_map (fun (s : Subgraph.t) -> s.Subgraph.removable) subgraphs
  in
  {
    comms_before;
    comms_removed = List.length subgraphs;
    added_instances = List.length added;
    added_by_kind = kind_histogram g added;
    removed_instances = List.length removed;
    removed_by_kind = kind_histogram g removed;
    subgraph_sizes =
      List.map (fun (s : Subgraph.t) -> List.length s.Subgraph.members)
        subgraphs;
  }

let run ?heuristic ?share_discount ?removable_credit config g ~assign ~ii =
  if config.Machine.Config.clusters = 1 then None
  else begin
    let state = State.create config g ~assign in
    let extra = State.extra_coms state ~ii in
    if extra = 0 then None
    else begin
      let comms_before = State.n_comms state in
      match select ?heuristic ?share_discount ?removable_credit state ~ii ~extra with
      | None -> None
      | Some subgraphs ->
          let stats = stats_of_subgraphs g ~comms_before subgraphs in
          Some (materialize state ~base:g stats)
    end
  end

let transform ?heuristic ?share_discount ?removable_credit () =
  let last = ref None in
  let f config g ~assign ~ii =
    match run ?heuristic ?share_discount ?removable_credit config g ~assign ~ii with
    | None ->
        last := None;
        None
    | Some o ->
        last := Some o.stats;
        Some (o.graph, o.assign)
  in
  (f, last)
