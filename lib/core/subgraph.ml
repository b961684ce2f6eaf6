open Ddg
module Iset = State.Iset

type t = {
  com : int;
  members : int list;
  additions : (int * Iset.t) list;
  removable : int list;
}

(* Figure 4: walk register parents, stopping at values that are already
   communicated (available in every cluster via the bus). *)
let members_of state com =
  let g = State.graph state in
  let in_subgraph = Hashtbl.create 8 in
  Hashtbl.replace in_subgraph com ();
  let candidates = Queue.create () in
  let push_parents v =
    List.iter
      (fun e ->
        if e.Graph.kind = Graph.Reg then Queue.add e.Graph.src candidates)
      (Graph.preds g v)
  in
  push_parents com;
  while not (Queue.is_empty candidates) do
    let v = Queue.pop candidates in
    if (not (State.has_comm state v)) && not (Hashtbl.mem in_subgraph v)
    then begin
      (* Stores cannot appear here: they have no register consumers. *)
      Hashtbl.replace in_subgraph v ();
      push_parents v
    end
  done;
  Hashtbl.fold (fun v () acc -> v :: acc) in_subgraph []
  |> List.sort Stdlib.compare

(* Figure 5 against a hypothetical state: [com]'s communication is gone
   and the additions are in place.  A home instance dies when it is not a
   store, it no longer feeds a bus transfer, and no cluster-local
   consumer instance survives. *)
let stranded_hypothetical hyp ~com =
  let g = State.graph hyp in
  let removable = Hashtbl.create 8 in
  let blocked_by_consumer v h =
    List.exists
      (fun e ->
        let w = e.Graph.dst in
        Iset.mem h (State.placement hyp w)
        && not (Hashtbl.mem removable w && State.home hyp w = h))
      (Graph.reg_succs g v)
  in
  let try_mark v =
    let h = State.home hyp v in
    (not (Hashtbl.mem removable v))
    && Iset.mem h (State.placement hyp v)
    && (not (Graph.is_store g v))
    && Iset.is_empty (State.needing hyp v)
    && not (blocked_by_consumer v h)
  in
  let queue = Queue.create () in
  Queue.add com queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if try_mark v then begin
      Hashtbl.replace removable v ();
      (* Same-cluster register parents may have lost their last local
         consumer. *)
      List.iter
        (fun e ->
          if
            e.Graph.kind = Graph.Reg
            && State.home hyp e.Graph.src = State.home hyp v
          then Queue.add e.Graph.src queue)
        (Graph.preds g v)
    end
  done;
  Hashtbl.fold (fun v () acc -> v :: acc) removable []
  |> List.sort Stdlib.compare

let stranded state ~additions ~com =
  let hyp = State.copy state in
  List.iter
    (fun (v, clusters) ->
      Iset.iter (fun c -> State.add_instance hyp ~node:v ~cluster:c) clusters)
    additions;
  stranded_hypothetical hyp ~com

let compute_for state ~clusters com =
  let targets = Iset.inter clusters (State.needing state com) in
  if Iset.is_empty targets then
    invalid_arg "Subgraph.compute_for: no needing cluster selected";
  let members = members_of state com in
  let additions =
    List.filter_map
      (fun v ->
        let missing = Iset.diff targets (State.placement state v) in
        if Iset.is_empty missing then None else Some (v, missing))
      members
  in
  let removable = stranded state ~additions ~com in
  { com; members; additions; removable }

let compute state com =
  let targets = State.needing state com in
  if Iset.is_empty targets then
    invalid_arg "Subgraph.compute: node needs no communication";
  let members = members_of state com in
  let additions =
    List.filter_map
      (fun v ->
        let missing = Iset.diff targets (State.placement state v) in
        if Iset.is_empty missing then None else Some (v, missing))
      members
  in
  let removable = stranded state ~additions ~com in
  { com; members; additions; removable }

let n_added_instances t =
  List.fold_left (fun acc (_, s) -> acc + Iset.cardinal s) 0 t.additions

let feasible state ~ii t =
  let config = State.config state in
  let clusters = config.Machine.Config.clusters in
  let g = State.graph state in
  (* extra instances per (cluster, kind), minus the removable credit *)
  let delta = Array.make_matrix clusters Machine.Fu.count 0 in
  let bump v c sign =
    match Machine.Opclass.fu_kind (Graph.op g v) with
    | Some k ->
        let i = Machine.Fu.index k in
        delta.(c).(i) <- delta.(c).(i) + sign
    | None -> ()
  in
  List.iter
    (fun (v, cs) -> Iset.iter (fun c -> bump v c 1) cs)
    t.additions;
  List.iter (fun v -> bump v (State.home state v) (-1)) t.removable;
  let ok = ref true in
  for c = 0 to clusters - 1 do
    List.iter
      (fun kind ->
        let have = State.usage state ~cluster:c ~kind in
        let cap = Machine.Config.fus config ~cluster:c kind * ii in
        if have + delta.(c).(Machine.Fu.index kind) > cap then ok := false)
      Machine.Fu.all
  done;
  !ok
