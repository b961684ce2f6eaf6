module Iset = Set.Make (Int)
open Ddg

type t = {
  config_ : Machine.Config.t;
  graph_ : Graph.t;
  home_ : int array;
  placement_ : Iset.t array;
  (* usage_.(cluster).(fu index): live instances per unit kind, kept
     incrementally so weight computation is O(1) per lookup *)
  usage_ : int array array;
  (* When set, every node whose placement is consulted is recorded here.
     The incremental subgraph cache uses the recorded read set as the
     exact invalidation footprint of a cached computation: placements are
     the only mutable inputs, so a cached result stays valid until a
     placement it read changes. *)
  mutable trace_ : (int, unit) Hashtbl.t option;
}

let record t v =
  match t.trace_ with None -> () | Some h -> Hashtbl.replace h v ()

let kind_index g v =
  match Machine.Opclass.fu_kind (Graph.op g v) with
  | Some k -> Some (Machine.Fu.index k)
  | None -> None

let create config_ graph_ ~assign =
  let n = Graph.n_nodes graph_ in
  if Array.length assign <> n then
    invalid_arg "State.create: assign length mismatch";
  Array.iteri
    (fun v c ->
      if c < 0 || c >= config_.Machine.Config.clusters then
        invalid_arg
          (Printf.sprintf "State.create: node %d assigned to bogus cluster %d"
             v c))
    assign;
  let home_ = Array.copy assign in
  let placement_ = Array.map Iset.singleton home_ in
  let usage_ =
    Array.init config_.Machine.Config.clusters (fun _ ->
        Array.make Machine.Fu.count 0)
  in
  for v = 0 to n - 1 do
    match kind_index graph_ v with
    | Some k -> usage_.(home_.(v)).(k) <- usage_.(home_.(v)).(k) + 1
    | None -> ()
  done;
  { config_; graph_; home_; placement_; usage_; trace_ = None }

let copy t =
  {
    t with
    placement_ = Array.copy t.placement_;
    usage_ = Array.map Array.copy t.usage_;
  }

let config t = t.config_
let graph t = t.graph_
let home t v = t.home_.(v)

let placement t v =
  record t v;
  t.placement_.(v)

let is_placed t v c =
  record t v;
  Iset.mem c t.placement_.(v)

let needing t v =
  record t v;
  let where_consumed =
    List.fold_left
      (fun acc e ->
        let u = e.Graph.dst in
        record t u;
        Iset.union acc t.placement_.(u))
      Iset.empty
      (Graph.reg_succs t.graph_ v)
  in
  Iset.diff where_consumed t.placement_.(v)

let has_comm t v = not (Iset.is_empty (needing t v))

let comms t =
  List.filter (fun v -> has_comm t v) (Graph.nodes t.graph_)

let n_comms t = List.length (comms t)

let extra_coms t ~ii =
  let cap = Machine.Config.bus_capacity_per_ii t.config_ ~ii in
  if cap = max_int then 0 else max 0 (n_comms t - cap)

let usage t ~cluster ~kind = t.usage_.(cluster).(Machine.Fu.index kind)

let add_instance t ~node ~cluster =
  if not (Iset.mem cluster t.placement_.(node)) then begin
    t.placement_.(node) <- Iset.add cluster t.placement_.(node);
    match kind_index t.graph_ node with
    | Some k -> t.usage_.(cluster).(k) <- t.usage_.(cluster).(k) + 1
    | None -> ()
  end

let remove_instance t ~node ~cluster =
  if Iset.mem cluster t.placement_.(node) then begin
    t.placement_.(node) <- Iset.remove cluster t.placement_.(node);
    match kind_index t.graph_ node with
    | Some k -> t.usage_.(cluster).(k) <- t.usage_.(cluster).(k) - 1
    | None -> ()
  end

let n_instances t =
  Array.fold_left (fun acc s -> acc + Iset.cardinal s) 0 t.placement_

let traced t f =
  let tbl = Hashtbl.create 32 in
  let saved = t.trace_ in
  t.trace_ <- Some tbl;
  let finish () = t.trace_ <- saved in
  match f () with
  | v ->
      finish ();
      (v, Hashtbl.fold (fun k () acc -> Iset.add k acc) tbl Iset.empty)
  | exception e ->
      finish ();
      raise e
