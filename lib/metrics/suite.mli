(** Memoized experiment runner.

    All figures draw on the same (config, mode) sweeps — Figure 7's runs
    also feed Figure 10 and the Section-4 statistics — so the suite caches
    every sweep it executes.  One [t] is shared by a whole report run.

    Beyond result memoization the suite shares work {e across}
    configurations:

    - Register sweeps ({!sweep_runs}, {!spill_runs}) record escalation
      traces ({!Experiment.record_trace}): one trace set per register
      family — machines equal in everything but the register file —
      recorded at the strictest member still missing, and replayed
      verbatim for every member ({!Sched.Driver.Trace.replay}, both
      register directions).  A member with a {e stricter} register file
      than its family's recording re-records there instead (its walks
      run deeper than the trace, and replaying them live would be repaid
      by every later pass), replacing the set with the longer trace.
      Plain sweeps ({!runs}) never record or replay; machines differing
      in buses or bus latency share no trace.
    - Partition coarsening hierarchies are shared through config-blind
      {e skeletons} keyed by machine structure and canonical DDG digest
      ({!Ddg.Graph.digest}), so a loop's hierarchy — and that of every
      structurally identical loop — is built once per suite rather than
      once per (loop, config, mode).  On top of the skeletons, the
      per-loop hierarchy {e views} (which memoize partition refinements)
      are themselves cached per (loop, buses, latency, structure) — the
      partitioner never reads the register file or the mode
      ({!Machine.Config.partition_compatible}), so every pass over a
      register family re-refines only levels no earlier pass visited.

    Both reuses are exact: replayed results, traces and error classes are
    byte-identical to direct sweeps (pinned by the property suite).

    A third, cross-run layer sits in front of both: when the suite holds
    a content-addressed schedule {!Store}, every sweep first asks it for
    the whole (mode, config) result set — served only when {e every}
    loop answers with a cached success or a recorded give-up — and
    every pass the suite does run feeds its per-loop results (successes
    and give-ups alike) back into the store.  A register sweep asks for
    each member before it records anything, so a warm sweep schedules
    nothing.  Store hits are byte-identical to cold runs by construction
    (the store returns the very payload a cold run produced, or a
    pure-function reconstruction of it from the disk tier).
    [Replication_length] sweeps bypass the store: they are derived from
    the replication runs without scheduling.

    Runs computed apart often hold equal values: the two modes of a loop
    replication never rewrote, machines with the same copy latency, the
    members of a register family.  So every run a pass computes — direct,
    replayed, spilled or lengthened — goes through a {!Share} table
    where it is finished, in the pool item that computed it (a
    lengthened run, on the calling domain), and comes out holding the
    table's one graph, partition, cycle array, bus array and increments
    for its content, and no routed graph.  A duplicate therefore dies
    young with its item instead of surviving, and being promoted, until
    the whole pass is done.  With a store the table is the store's own,
    so decoded runs share with computed ones; {!create} passes the
    suite's loops' graphs through it first, so a run that kept its
    loop's graph untransformed holds the loop's own graph, decoded or
    computed. *)

type t

val create :
  ?loops:Workload.Generator.loop list ->
  ?jobs:int ->
  ?store:Store.t ->
  unit ->
  t
(** Defaults to the full 678-loop suite.  [jobs] (default 1) is the
    number of domains each uncached sweep runs on ({!Pool}); the caches
    and skeleton store are only touched by the calling domain (per-loop
    hierarchy views are built before work is handed to the pool, and a
    view reaches at most one worker per pass), and the workers reach
    only the domain-safe {!Share} table.  [store] installs a
    content-addressed schedule store consulted before, and fed by, every
    sweep (the suite only touches it on the calling domain; remember to
    {!Store.save} it afterwards when it has a disk tier). *)

val runs :
  t -> Experiment.mode -> Machine.Config.t -> Experiment.loop_run list
(** Cached sweep of every loop under the mode and configuration.

    On a miss in both the run cache and the store, [Replication_length]
    runs are derived from the cached [Replication] runs of the same
    configuration without touching the scheduler
    ({!Experiment.lengthen_run}); every other mode schedules each loop
    directly ({!Experiment.run_loop}).  Never records or replays a
    trace, though it returns what an earlier register sweep cached. *)

val sweep_runs :
  t ->
  Experiment.mode ->
  Machine.Config.t list ->
  (Machine.Config.t * Experiment.loop_run list) list
(** {!runs} for every member, in input order — the suite's only trace
    recorder for plain runs.  Members the run cache or the store answers
    are taken first.  The rest are grouped by register family; each
    family records one trace set at its strictest missing member (or
    reuses a recording at least that strict) and replays it for every
    missing member, roomier ones by promotion.  A register family
    therefore costs one scheduling pass, and members of different
    bus/latency families are each answered by their own.
    [Replication_latency0] (its routing flag is outside the trace
    contract) and [Replication_length] sweep member by member through
    {!runs}. *)

val spill_runs :
  t ->
  Experiment.mode ->
  Machine.Config.t ->
  Experiment.loop_run list
(** Like a {!runs} sweep with {!Sched.Spill.spiller} installed, answered
    from the family's recorded traces (get-or-record at this
    configuration, re-recording for a stricter register file like
    {!sweep_runs}): spill-and-retry rounds run in place on recorded
    levels whose placement overflows this member
    ({!Sched.Driver.Trace.replay}), so only loops that actually overflow
    — and among those only levels where spilling could help — pay for
    rescheduling.  Not stored in the plain-runs cache; in the schedule
    store it lives under the ["spill"] variant, keyed apart from the
    plain runs. *)

val benchmark_runs :
  t ->
  Experiment.mode ->
  Machine.Config.t ->
  (string * Experiment.loop_run list) list
(** The same runs grouped per benchmark. *)

val benchmark_loops : t -> string -> Workload.Generator.loop list
