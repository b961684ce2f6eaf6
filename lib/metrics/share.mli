(** Scheduling values shared by exact content.

    A figure pass holds the same loops under many machines, modes and
    register families, and runs that were computed apart often carry
    equal but distinct values: the baseline and replication runs of a
    loop that replication never rewrote route the same graph under the
    same partition, and a decoded store table repeats the graphs of
    every other table.  A share table keeps one value per distinct
    content, and every run that passes through it is rebuilt around
    those values.

    Identity is exact content only; no digest alone decides it:
    - a graph is keyed by its {!Ddg.Graph.structural_encoding}, its name
      and its node labels;
    - a routed graph and its partition are keyed by that graph, the
      partition, and exactly what {!Sched.Route.build} reads besides
      them: the latency-0 flag, {!Machine.Config.copy_latency} and
      whether the machine has no buses.

    Sharing is safe because graphs, partitions and routed graphs are
    never mutated in place ({!Sim.Faults} clones a schedule before
    corrupting it); callers must keep it that way.  A table only grows,
    and is not domain-safe: use it from one domain. *)

type t

val create : unit -> t

val string : t -> string -> string
(** The table's string equal to this one (this one, the first time). *)

val route :
  t ->
  latency0:bool ->
  Machine.Config.t ->
  Ddg.Graph.t ->
  assign:int array ->
  (Ddg.Graph.t -> Sched.Route.t) ->
  Ddg.Graph.t * int array * Sched.Route.t
(** [route t ~latency0 config g ~assign build] is the table's graph
    equal to [g], its partition equal to [assign], and its routed graph
    for the two.  [build] runs only when that routed content is new; it
    receives the table's graph and must return what
    [Sched.Route.build ~latency0 config] returns for it under
    [assign]. *)

val run : t -> Experiment.loop_run -> Experiment.loop_run
(** The run with its outcome's graph, partition and routed graph
    replaced by the table's ({!route}, with the run's own routed graph
    as the new content: a run's route is [Route.build] of its graph and
    partition, latency-0 exactly in [Replication_latency0] mode). *)
