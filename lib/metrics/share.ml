module G = Ddg.Graph
module Ints = Sched.Partition.Ints
module Ints_at = Sched.Partition.Ints_at

(* A list hashed by its whole content, as the int arrays are. *)
module Increments = Hashtbl.Make (struct
  type t = (Sched.Driver.cause * int) list

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 64
end)

(* A graph keyed by its content, read in place: equal exactly when the
   names, operation classes, labels and edges (every field, in order)
   are.  The hash mixes all of that but the labels, so no key is built
   and none is kept beside the graph. *)
module Graphs = Hashtbl.Make (struct
  type t = G.t

  let same_edge (a : G.edge) (b : G.edge) =
    a.src = b.src && a.dst = b.dst && a.latency = b.latency
    && a.distance = b.distance && a.kind = b.kind

  let equal g h =
    g == h
    || String.equal (G.name g) (G.name h)
       && G.n_nodes g = G.n_nodes h
       && (let rec same_nodes i =
             i = G.n_nodes g
             || G.op g i = G.op h i
                && String.equal (G.label g i) (G.label h i)
                && same_nodes (i + 1)
           in
           same_nodes 0)
       &&
       let e = G.edges g and f = G.edges h in
       Array.length e = Array.length f && Array.for_all2 same_edge e f

  let mix h x = (h * 65599) + x

  let hash g =
    let h = ref (mix (Hashtbl.hash (G.name g)) (G.n_nodes g)) in
    for i = 0 to G.n_nodes g - 1 do
      h := mix !h (Hashtbl.hash (G.op g i))
    done;
    Array.iter
      (fun (e : G.edge) ->
        h :=
          mix
            (mix (mix (mix (mix !h e.src) e.dst) e.latency) e.distance)
            (match e.kind with G.Reg -> 0 | G.Mem -> 1))
      (G.edges g);
    Hashtbl.hash !h
end)

type t = {
  lock : Mutex.t;  (* taken once per public call *)
  strings : (string, string) Hashtbl.t;
  graphs : (int * G.t) Graphs.t;
      (* graph -> (insertion rank, the table's equal graph); the rank
         stands for the graph in the partition key *)
  partitions : int array Ints_at.t;  (* (graph rank, partition) *)
  arrays : int array Ints.t;  (* schedules' cycle and bus arrays *)
  increments : (Sched.Driver.cause * int) list Increments.t;
}

let create () =
  {
    lock = Mutex.create ();
    strings = Hashtbl.create 256;
    graphs = Graphs.create 256;
    partitions = Ints_at.create 256;
    arrays = Ints.create 256;
    increments = Increments.create 64;
  }

(* The [_unlocked] helpers and [ranked] run under the lock, which each
   public function below takes once. *)
let ranked t g =
  match Graphs.find_opt t.graphs g with
  | Some v -> v
  | None ->
      let v = (Graphs.length t.graphs, g) in
      Graphs.add t.graphs g v;
      v

let partition_unlocked t g ~assign =
  let rank, g = ranked t g in
  match Ints_at.find_opt t.partitions (rank, assign) with
  | Some a -> (g, a)
  | None ->
      Ints_at.add t.partitions (rank, assign) assign;
      (g, assign)

let ints_unlocked t a =
  match Ints.find_opt t.arrays a with
  | Some b -> b
  | None ->
      Ints.add t.arrays a a;
      a

let increments_unlocked t l =
  match Increments.find_opt t.increments l with
  | Some l -> l
  | None ->
      Increments.add t.increments l l;
      l

let string t s =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.strings s with
  | Some s -> s
  | None ->
      Hashtbl.add t.strings s s;
      s

let graph t g = Mutex.protect t.lock (fun () -> snd (ranked t g))

let partition t g ~assign =
  Mutex.protect t.lock (fun () -> partition_unlocked t g ~assign)

let ints t a = Mutex.protect t.lock (fun () -> ints_unlocked t a)
let increments t l = Mutex.protect t.lock (fun () -> increments_unlocked t l)

let run t (r : Experiment.loop_run) =
  let o = r.outcome in
  let graph, assign, cycles, buses, increments =
    Mutex.protect t.lock @@ fun () ->
    let graph, assign = partition_unlocked t o.graph ~assign:o.assign in
    ( graph,
      assign,
      ints_unlocked t o.schedule.cycles,
      ints_unlocked t o.schedule.buses,
      increments_unlocked t o.increments )
  in
  let schedule =
    Sched.Schedule.unrouted
      ~latency0:(r.mode = Experiment.Replication_latency0)
      ~graph ~assign
      { o.schedule with cycles; buses }
  in
  { r with outcome = { o with graph; assign; schedule; increments } }
