module G = Ddg.Graph

type t = {
  strings : (string, string) Hashtbl.t;
  graphs : (string * string * string array, int * G.t) Hashtbl.t;
      (* (structural encoding, name, labels) -> (insertion rank, graph);
         the rank stands for the graph in the partition key *)
  partitions : (int * int array, int array) Hashtbl.t;
      (* (graph rank, partition) *)
}

let create () =
  {
    strings = Hashtbl.create 256;
    graphs = Hashtbl.create 256;
    partitions = Hashtbl.create 256;
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

let partition t g ~assign =
  let labels = Array.of_list (List.map (G.label g) (G.nodes g)) in
  let key = (string t (G.structural_encoding g), G.name g, labels) in
  let rank, g = intern t.graphs key (fun () -> (Hashtbl.length t.graphs, g)) in
  (g, intern t.partitions (rank, assign) (fun () -> assign))

let run t (r : Experiment.loop_run) =
  let o = r.outcome in
  let graph, assign = partition t o.graph ~assign:o.assign in
  let schedule =
    Sched.Schedule.unrouted
      ~latency0:(r.mode = Experiment.Replication_latency0)
      ~graph ~assign o.schedule
  in
  { r with outcome = { o with graph; assign; schedule } }
