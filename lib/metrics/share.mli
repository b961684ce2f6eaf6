(** Scheduling values shared by exact content.

    A figure pass holds the same loops under many machines, modes and
    register families, and runs that were computed apart often carry
    equal but distinct values: the baseline and replication runs of a
    loop that replication never rewrote hold the same graph under the
    same partition, and a decoded store table repeats the graphs of
    every other table.  A share table keeps one value per distinct
    content, and every run that passes through it is rebuilt around
    those values.

    Identity is exact content only; no digest alone decides it:
    - a graph is keyed by itself: two graphs are one when their names,
      operation classes, node labels and edges (every field, in
      insertion order) are equal.  Its hash mixes all of that but the
      labels, read in place, so the table builds no key for a lookup
      and keeps nothing beside the graph (no structural encoding, no
      copy of its labels);
    - a partition is keyed by that graph and its content;
    - a schedule's cycle and bus arrays, and an outcome's increments,
      by their content alone.
    Int arrays hash by their whole content ({!Sched.Partition.Ints}).

    The table holds no routed graph.  A run comes out with its schedule
    unrouted ({!Sched.Schedule.unrouted}): its routed graph is
    [Route.build] of the table's graph and partition, rebuilt by each
    reader of {!Sched.Schedule.route}.

    Sharing is safe because graphs and partitions are never mutated in
    place ({!Sim.Faults} clones a schedule before corrupting it);
    callers must keep it that way.  A table only grows.  It is
    domain-safe: each call below takes the table's one lock once, so a
    {!Suite}'s pool workers share each run as they finish it.  Which of
    two equal values a table keeps may then depend on the workers'
    timing; being equal, no output can tell. *)

type t

val create : unit -> t

val string : t -> string -> string
(** The table's string equal to this one (this one, the first time). *)

val graph : t -> Ddg.Graph.t -> Ddg.Graph.t
(** The table's graph equal to this one (this one, the first time).
    A {!Suite} over a store passes its own loops' graphs through the
    store's table first, so a run decoded for an untransformed loop
    holds the loop's own graph. *)

val partition :
  t -> Ddg.Graph.t -> assign:int array -> Ddg.Graph.t * int array
(** [partition t g ~assign] is the table's graph equal to [g] and its
    partition of that graph equal to [assign]. *)

val ints : t -> int array -> int array
(** The table's schedule array (cycles or buses) equal to this one
    (this one, the first time).  {!run} and {!Store}'s decoding pass
    every schedule's arrays through it. *)

val increments :
  t -> (Sched.Driver.cause * int) list -> (Sched.Driver.cause * int) list
(** The table's increments equal to these (these, the first time). *)

val run : t -> Experiment.loop_run -> Experiment.loop_run
(** The run with its outcome's graph and partition replaced by the
    table's ({!partition}), its schedule's cycle and bus arrays and its
    increments by the table's equal ones, and its schedule unrouted
    around the graph and partition, with the latency-0 flag exactly in
    [Replication_latency0] mode: a run's route is [Route.build] of its
    graph and partition. *)
