(** The scheduling driver — Figure 2 of the paper.

    Starting at II = MII: partition the DDG, check that the implied
    communications fit the buses, schedule, check register pressure; on
    any failure increase the II, refine the partition and retry.  Each II
    increment is attributed to the cause that triggered it — the data
    behind Figure 1.

    A [transform] hook runs after partitioning and before the bus check;
    the replication pass plugs in there, rewriting the graph and the
    partition (adding replicas, dropping dead originals) to eliminate the
    excess communications at the current II. *)

val version : string
(** Scheduler behaviour version.  Bumped whenever a change could alter
    any schedule, error class or statistic the driver produces; the
    on-disk tier of the content-addressed schedule store
    ({!Metrics.Store}) keys its entries on it, so results cached by an
    older scheduler self-invalidate. *)

type cause =
  | Bus          (** more communications than bus slots, a copy without a
                     bus slot, or a copy-stretched dependence *)
  | Recurrence   (** a dependence window closed with no copy involved *)
  | Registers    (** MaxLive exceeded a cluster's register file *)

type outcome = {
  schedule : Schedule.t;
  graph : Ddg.Graph.t;    (** final graph (transformed if a hook ran) *)
  assign : int array;     (** final partition of [graph] *)
  mii : int;
  ii : int;
  increments : (cause * int) list;
      (** II increments beyond MII, bucketed by cause; the sum is
          [ii - mii] *)
  n_comms : int;          (** communications in the final schedule *)
}

type transform =
  Machine.Config.t ->
  Ddg.Graph.t ->
  assign:int array ->
  ii:int ->
  (Ddg.Graph.t * int array) option
(** Returns the rewritten graph and its partition, or [None] to proceed
    unchanged. *)

type spiller =
  Machine.Config.t ->
  Schedule.t ->
  graph:Ddg.Graph.t ->
  assign:int array ->
  (Ddg.Graph.t * int array) option
(** Called when a schedule exists but exceeds a register file, with that
    schedule; may split a live range with spill code (see {!Spill}) and
    return the rewritten graph for a same-II retry (bounded at 4 rounds
    per II). *)

val hierarchy : Machine.Config.t -> Ddg.Graph.t -> Partition.Hier.t
(** The partition hierarchy {!schedule_loop} would build internally for
    this (config, graph) pair — seeded at the loop's MII with its
    recurrence MII precomputed.  Build one and pass it as [?hier] to
    several [schedule_loop] calls over the {e same} graph (e.g. the
    plain run and the replication run of one loop, or the members of a
    register family, whose register files the partitioner never
    reads): partitioning is a pure function of (config, graph, II), so
    the second walk re-derives its from-scratch partitions and lineage
    refinements from the hierarchy's memo tables instead of recomputing
    them, with results identical to unshared calls.  The hierarchy is
    not domain-safe; share it across sequential calls only. *)

val schedule_loop :
  ?transform:transform ->
  ?max_ii:int ->
  ?latency0:bool ->
  ?spiller:spiller ->
  ?budget:Budget.t ->
  ?hier:Partition.Hier.t ->
  Machine.Config.t ->
  Ddg.Graph.t ->
  (outcome, Sched_error.t) result
(** [max_ii] caps the escalation (default [16 * mii + 64]); exceeding it
    returns [Error Escalation_cap] — in practice only pathological
    inputs do — and a cap below the MII returns
    [Error Infeasible_partition] without attempting anything.  A walk
    that repeats one register rejection (same partitions, MaxLive,
    cycles and spill rounds) for 12 consecutive levels cannot change
    before the cap, so it returns that same [Escalation_cap] at once
    (the stationarity cut).
    [latency0] routes communications with zero consumer latency (the
    Section-5.1 upper bound; see {!Route.build}).  [budget] bounds the
    escalation in wall-clock time and attempts; when it expires before
    any feasible schedule was found the result is a classified
    [Error Timeout] (a success is returned the moment it is found, so a
    budget never discards one).  One attempt is one II level, spent
    before the level runs: a budget of [k] attempts stops a walk still
    unfinished after [k] levels with
    [Timeout { at_ii = mii + k; attempts = k }].  The whole pipeline is
    fault-isolated: a raising transform hook or an internal scheduler
    exception surfaces as [Error Internal] rather than an exception
    (only [Out_of_memory] propagates).

    [hier] shares a partition hierarchy built by {!hierarchy} across
    calls over the same graph; omitted, each call builds its own.
    @raise Invalid_argument when [hier] was built for a different
    graph. *)
