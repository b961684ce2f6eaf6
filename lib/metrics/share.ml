module G = Ddg.Graph
module Ints = Sched.Partition.Ints
module Ints_at = Sched.Partition.Ints_at

(* A list hashed by its whole content, as the int arrays are. *)
module Increments = Hashtbl.Make (struct
  type t = (Sched.Driver.cause * int) list

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 64
end)

type t = {
  strings : (string, string) Hashtbl.t;
  graphs : (string * string * string array, int * G.t) Hashtbl.t;
      (* (structural encoding, name, labels) -> (insertion rank, graph);
         the rank stands for the graph in the partition key *)
  partitions : int array Ints_at.t;  (* (graph rank, partition) *)
  arrays : int array Ints.t;  (* schedules' cycle and bus arrays *)
  increments : (Sched.Driver.cause * int) list Increments.t;
}

let create () =
  {
    strings = Hashtbl.create 256;
    graphs = Hashtbl.create 256;
    partitions = Ints_at.create 256;
    arrays = Ints.create 256;
    increments = Increments.create 64;
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

let ranked t g =
  let labels = Array.of_list (List.map (G.label g) (G.nodes g)) in
  let key = (string t (G.structural_encoding g), G.name g, labels) in
  intern t.graphs key (fun () -> (Hashtbl.length t.graphs, g))

let graph t g = snd (ranked t g)

let partition t g ~assign =
  let rank, g = ranked t g in
  match Ints_at.find_opt t.partitions (rank, assign) with
  | Some a -> (g, a)
  | None ->
      Ints_at.add t.partitions (rank, assign) assign;
      (g, assign)

let ints t a =
  match Ints.find_opt t.arrays a with
  | Some b -> b
  | None ->
      Ints.add t.arrays a a;
      a

let increments t l =
  match Increments.find_opt t.increments l with
  | Some l -> l
  | None ->
      Increments.add t.increments l l;
      l

let run t (r : Experiment.loop_run) =
  let o = r.outcome in
  let graph, assign = partition t o.graph ~assign:o.assign in
  let schedule =
    Sched.Schedule.unrouted
      ~latency0:(r.mode = Experiment.Replication_latency0)
      ~graph ~assign
      {
        o.schedule with
        cycles = ints t o.schedule.cycles;
        buses = ints t o.schedule.buses;
      }
  in
  let increments = increments t o.increments in
  { r with outcome = { o with graph; assign; schedule; increments } }
