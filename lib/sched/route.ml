open Ddg

type t = {
  graph : Graph.t;
  assign : int array;
  n_original : int;
  copy_of : int array;
}

let build ?(latency0 = false) config g ~assign =
  Profile.count Profile.Route_built;
  Profile.time Profile.Placement @@ fun () ->
  let n = Graph.n_nodes g in
  (* latency0: the Section-5.1 upper-bound experiment — copies still
     occupy the bus (the II effect of communications is kept) but deliver
     instantly, so communications cannot stretch the schedule length. *)
  let bus_lat = if latency0 then 0 else Machine.Config.copy_latency config in
  let needs_copy = Comm.producers g ~assign in
  if needs_copy <> [] && config.Machine.Config.buses = 0 then
    raise
      (Sched_error.E
         (Sched_error.Bus_saturation
            { communications = List.length needs_copy; buses = 0 }));
  let b = Graph.Builder.create ~name:(Graph.name g ^ "+copies") () in
  (* Original nodes keep their ids because they are added first, in
     order. *)
  for v = 0 to n - 1 do
    ignore (Graph.Builder.add b ~label:(Graph.label g v) (Graph.op g v))
  done;
  let copy_id = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let id =
        Graph.Builder.add b
          ~label:("cp_" ^ Graph.label g v)
          Machine.Opclass.Copy
      in
      Hashtbl.replace copy_id v id)
    needs_copy;
  (* The copy reads the producer's result as a normal consumer. *)
  List.iter
    (fun v ->
      Graph.Builder.depend b ~src:v ~dst:(Hashtbl.find copy_id v))
    needs_copy;
  (* Memory edges and same-cluster register edges are kept unchanged, so
     the routed graph shares their records with [g]. *)
  List.iter
    (fun e ->
      if
        e.Graph.kind = Graph.Reg
        && assign.(e.Graph.src) <> assign.(e.Graph.dst)
      then
        (* The consumer sees the value [bus_lat] cycles after the copy
           issues. *)
        Graph.Builder.depend b ~distance:e.Graph.distance ~latency:bus_lat
          ~src:(Hashtbl.find copy_id e.Graph.src)
          ~dst:e.Graph.dst
      else Graph.Builder.edge b e)
    (Graph.edges g);
  let graph = Graph.Builder.build b in
  let total = Graph.n_nodes graph in
  let assign' = Array.make total 0 in
  Array.blit assign 0 assign' 0 n;
  let copy_of = Array.make total (-1) in
  Hashtbl.iter
    (fun v id ->
      assign'.(id) <- assign.(v);
      copy_of.(id) <- v)
    copy_id;
  { graph; assign = assign'; n_original = n; copy_of }

let n_copies t = Graph.n_nodes t.graph - t.n_original
let is_copy t v = t.copy_of.(v) >= 0
