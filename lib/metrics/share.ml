module G = Ddg.Graph

type t = {
  strings : (string, string) Hashtbl.t;
  graphs : (string * string * string array, int * G.t) Hashtbl.t;
      (* (structural encoding, name, labels) -> (insertion rank, graph);
         the rank stands for the graph in the route key *)
  routes :
    (int * int array * bool * int * bool, int array * Sched.Route.t) Hashtbl.t;
      (* (graph rank, partition, latency0, copy latency, no buses) *)
}

let create () =
  {
    strings = Hashtbl.create 256;
    graphs = Hashtbl.create 256;
    routes = Hashtbl.create 256;
  }

(* The table's earlier value for this exact content, or [make ()],
   which becomes that value for later lookups. *)
let intern tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl key v;
      v

let string t s = intern t.strings s (fun () -> s)

let graph t g =
  let labels = Array.of_list (List.map (G.label g) (G.nodes g)) in
  let key = (string t (G.structural_encoding g), G.name g, labels) in
  intern t.graphs key (fun () -> (Hashtbl.length t.graphs, g))

let route t ~latency0 config g ~assign build =
  let rank, g = graph t g in
  let key =
    ( rank, assign, latency0, Machine.Config.copy_latency config,
      config.Machine.Config.buses = 0 )
  in
  let assign, route = intern t.routes key (fun () -> (assign, build g)) in
  (g, assign, route)

let run t (r : Experiment.loop_run) =
  let o = r.outcome in
  let s = o.Sched.Driver.schedule in
  let graph, assign, route =
    route t
      ~latency0:(r.mode = Experiment.Replication_latency0)
      s.Sched.Schedule.config o.graph ~assign:o.assign
      (fun _ -> s.route)
  in
  { r with outcome = { o with graph; assign; schedule = { s with route } } }
