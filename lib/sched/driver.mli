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
    plain run and the replication run of one loop): partitioning is a
    pure function of (config, graph, II), so the second walk re-derives
    its from-scratch partitions and lineage refinements from the
    hierarchy's memo tables instead of recomputing them, with results
    identical to unshared calls.  The hierarchy is not domain-safe;
    share it across sequential calls only. *)

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
    [Error Infeasible_partition] without attempting anything.
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

(** {1 Escalation traces}

    Of the whole pipeline, only the register check at the end of a
    successful placement reads the register-file size: partitioning,
    replication, routing and placement depend on clusters, units, buses
    and latencies alone.  Sweeping register configurations (the Section-4
    sensitivity experiment) therefore repeats identical escalation work
    per register count.  A {!Trace} records every attempt of one
    escalation run; any member of the same register family — a machine
    equal to the recording one in everything but the register file —
    can then be answered by re-judging the recorded attempts, falling
    back to live escalation — resumed mid-trace, not from MII — only
    where a live run would genuinely diverge.

    Members reuse recorded attempts verbatim, in both directions: a
    tighter file re-judges each placement's MaxLive, a roomier one
    additionally {e promotes} a recorded register rejection whose
    pressure it admits into the success a direct run would have found.
    A trace keeps a rejection lean — its MaxLive, cycle and bus arrays —
    and rebuilds the placement only for a member that promotes it or
    spills it.  Machines that differ in buses or bus latency are outside
    the family: partitioning and routing read those fields, so no
    recorded attempt answers them and {!Trace.replay} refuses them. *)

module Trace : sig
  type t

  type basis = [ `Pure | `Hook | `Live ]
  (** Where a replay's walk finished, and so which [transform] hook
      state (e.g. the replication pass's last-run statistics) describes
      the member's direct run:
      - [`Pure] — on the recorded success, as recorded or after member
        spill rounds from it: the recording's final attempt, so the
        state the {e recording} left applies.  The replay may have
        invoked the hook since, on attempts that then failed, so the
        hook's current state does not.
      - [`Hook] — on a rebuilt rejection, promoted or spilled down to
        the member's file: the member's transform ran at that very
        attempt last, so the hook's current state applies.
      - [`Live] — in live fallback; the hook's current state applies
        likewise. *)

  val record :
    ?transform:transform ->
    ?max_ii:int ->
    ?budget:Budget.t ->
    ?hier:Partition.Hier.t ->
    Machine.Config.t ->
    Ddg.Graph.t ->
    t
  (** Run the escalation loop at [config] — any member of the register
      family; recorded at the strictest one, every roomier member
      replays dry — recording every attempt: the II, the partition it
      started from, and the outcome.  The one successful placement is
      kept whole with its MaxLive per cluster; a placement the register
      check rejected keeps only its MaxLive, cycle and bus arrays; a bus
      or recurrence failure keeps its cause.  [hier] as in
      {!schedule_loop} — the recording run draws its partitions from
      the shared hierarchy.
      @raise Invalid_argument if [hier] was built for another loop or
      configuration. *)

  val result : t -> (outcome, Sched_error.t) result
  (** The recording run's own outcome (what {!schedule_loop} would have
      returned at the recording configuration). *)

  val config : t -> Machine.Config.t

  val same_family : Machine.Config.t -> Machine.Config.t -> bool
  (** Equal in everything but the register file
      ({!Machine.Config.partition_compatible}): the members whose
      recorded attempts apply verbatim up to the register check. *)

  val replay :
    ?transform:transform ->
    ?spiller:spiller ->
    ?hier:Partition.Hier.t ->
    t ->
    Machine.Config.t ->
    (outcome, Sched_error.t) result * basis
  (** [replay t config] answers [config] from the trace; the result is
      exactly what [schedule_loop] with the same hooks would return (the
      property suite checks outcome equality).  A recorded rejection the
      member needs — to promote it, or to spill it — is rebuilt: the
      member's [transform] runs at that attempt exactly as in a direct
      run, the result is routed with {!Route.build}, and the recorded
      arrays are reattached; no placement search runs again.  A
      [spiller] is applied in place: a recorded level whose placement
      overflows the member's register file runs the direct driver's own
      spill-and-retry step right there, and a failed sequence resumes
      the recorded continuation — spill rewrites never survive an
      attempt, so the remaining levels still apply.  [`Live] means the
      replay fell back to live scheduling because the trace ran dry
      without a transferable conclusion.  [transform] must be the hook
      the trace was recorded with, applied at the member configuration.
      [hier] — the member's own hierarchy (it must be built for [config]
      over the trace's graph) — seeds any live fallback; omitted, one is
      created.
      @raise Invalid_argument if [config] is not in the recording's
      {!same_family}, or [hier] mismatches. *)
end

val schedule_sweep :
  ?transform:transform ->
  ?max_ii:int ->
  ?budget:Budget.t ->
  ?spiller_for:(Machine.Config.t -> spiller option) ->
  Machine.Config.t list ->
  Ddg.Graph.t ->
  (Machine.Config.t * (outcome, Sched_error.t) result) list
(** [schedule_sweep configs g] schedules [g] for every member of a
    register family — configurations identical up to the register count —
    by recording one {!Trace} at the most permissive member and replaying
    it for each.  Results (in input order) are the ones the independent
    [schedule_loop] calls would produce.  [spiller_for] selects a spiller
    per member (spill rounds run in place on overflowing recorded
    levels; see {!Trace.replay}).
    @raise Invalid_argument if [configs] span more than one register
    family. *)
