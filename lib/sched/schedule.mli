(** A complete modulo schedule of a routed loop body.

    Every routed node (original instructions plus copies) has an issue
    cycle in the flat schedule of one iteration; the kernel repeats every
    II cycles, so the modulo slot of a node is [cycle mod ii] and its
    stage is [cycle / ii].  Copies also record the bus they use.

    The routed graph is a pure function of the transformed graph, its
    partition, the latency-0 flag and the machine ({!Route.build}), so a
    schedule comes in two forms that read the same:
    - [Routed]: a schedule the scheduler has just built carries its
      routed graph.  Placement, the register check, spill rounds, the
      checker and the simulator read it on the hot path.
    - [Unrouted]: a schedule kept after its run finished (the suite's
      run cache, the schedule store) holds the transformed graph, its
      partition and the latency-0 flag instead, and {!route} rebuilds
      the routed graph on each read.
    Read the routed graph through {!route} only. *)

type routing =
  | Routed of Route.t
  | Unrouted of { graph : Ddg.Graph.t; assign : int array; latency0 : bool }
      (** [Route.build ~latency0 config graph ~assign] is the route *)

type t = {
  config : Machine.Config.t;
  routing : routing;
  ii : int;
  cycles : int array;      (** issue cycle of each routed node *)
  buses : int array;       (** bus of each copy node; [-1] otherwise *)
}

val route : t -> Route.t
(** The routed graph: the one a [Routed] schedule carries, or a fresh
    {!Route.build} for an [Unrouted] one. *)

val routed : t -> t
(** The schedule carrying its routed graph: [t] itself when it does,
    else [t] with its route rebuilt once, for a reader that reads it
    several times. *)

val unrouted :
  latency0:bool -> graph:Ddg.Graph.t -> assign:int array -> t -> t
(** [t] holding [graph], [assign] and [latency0] instead of its routed
    graph, for keeping.  [t]'s route must be
    [Route.build ~latency0 t.config graph ~assign]. *)

val length : t -> int
(** Schedule length of one iteration: last issue cycle + 1 (Section 2.2's
    [length]). *)

val stage_count : t -> int
(** [SC = ceil (length / ii)]. *)

val stage : t -> int -> int
val modulo_slot : t -> int -> int

val execution_cycles : t -> iterations:int -> int
(** [Texec = (N - 1 + SC) * II] (Section 2.2).  [iterations >= 1]. *)

val pp : Format.formatter -> t -> unit
(** Kernel listing: one line per modulo slot, nodes grouped by cluster. *)
