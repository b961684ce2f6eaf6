(** Exact modulo scheduling by SAT: the optimality oracle.

    For a fixed initiation interval, scheduling a routed loop on a
    clustered machine is a finite decision problem: pick, for every
    original operation, one or more cluster instances and an issue cycle
    each; optionally one broadcast copy per producing instance; and a
    supplier (local instance or bus copy) for every register operand of
    every instance.  This module encodes that decision problem into CNF
    for the {!Sat} core and decodes a satisfying assignment back into a
    {!Schedule.t}.

    The encoding mirrors the {!Check.Validate} rule set — issue and
    functional-unit occupancy per modulo slot, bus windows of
    [bus_latency] consecutive slots, committed-II dependences
    [cycle(u) + lat <= cycle(v) + ii*d], copy sourcing and timing,
    store non-replication, value supply per operand — but is derived
    independently, straight from {!Machine.Config} and {!Ddg.Graph}.
    Register pressure is enforced lazily (CEGAR): models are decoded and
    measured with {!Regpressure}; each overfull cluster of a rejected
    model contributes one blocking clause over that cluster's canonical
    placement/copy literals and the solver is re-run.  To keep the
    refinement convergent, each level is explored through a
    schedule-length ladder (tight lengths first), so blocking clauses
    bite inside a small space instead of diverging across the whole
    horizon.  Decoded schedules are therefore real witnesses — they must
    (and in the test suite, do) pass both Check.Validate and the
    lockstep simulator.

    Incrementality: {!minimum_ii} keeps one solver across II levels.
    II-independent structure (instance ladders, supply selectors,
    distance-0 timing) is emitted once; the clauses that depend on the
    II (modulo occupancy, loop-carried timing, register-pressure blocks)
    are guarded by a fresh per-level selector literal that is assumed
    during the level's solve calls and retired ({!Sat.retire}) when the
    level is left behind, refuted or not: the level's clauses and the
    lemmas that depend on it are dropped, and every other lemma carries
    over.

    The schedule space is bounded by a {e horizon} [H]: issue cycles
    range over [0 .. H-1].  [`Unsat] therefore means "no schedule of
    length <= H at this II".  Callers who own a heuristic schedule
    should pass a horizon at least its length so the heuristic witness
    stays inside the space; the default is the serial upper bound (sum
    of latencies), which always admits some schedule. *)

type stats = {
  s_vars : int;          (** SAT variables allocated *)
  s_conflicts : int;     (** conflicts over all levels *)
  s_propagations : int;
  s_cegar_rounds : int;  (** register-pressure refinement rounds *)
  s_levels : int;        (** II levels attempted *)
}

val solve_at :
  ?replicate:bool ->
  ?horizon:int ->
  ?max_conflicts:int ->
  ?max_cegar:int ->
  Machine.Config.t ->
  Ddg.Graph.t ->
  ii:int ->
  [ `Sat of Schedule.t | `Unsat | `Unknown ]
(** Decision problem at one II.  [replicate] (default [true]) allows
    replicable operations more than one cluster instance (Section-3
    replication); with [false] every operation gets exactly one.
    [`Sat s] is a decoded witness with [s.ii = ii].  [`Unsat]: no
    schedule within the horizon.  [`Unknown]: [max_conflicts] (default
    unlimited; it caps each solve call, as in {!minimum_ii}) or
    [max_cegar] (default 24 pressure-refinement rounds) exhausted. *)

type found = {
  f_ii : int;  (** II of the witness *)
  f_mii : int;
  f_proven : bool;
      (** every level in [mii, f_ii) was refuted UNSAT — [f_ii] is the
          optimum within the horizon.  [false] when some lower level
          returned [`Unknown]. *)
  f_schedule : Schedule.t;
  f_stats : stats;
}

val minimum_ii :
  ?replicate:bool ->
  ?horizon:int ->
  ?budget:Budget.t ->
  ?max_conflicts:int ->
  ?max_cegar:int ->
  ?max_ii:int ->
  Machine.Config.t ->
  Ddg.Graph.t ->
  (found, Sched_error.t) result
(** Walk II upward from [Mii.mii], reusing the solver across levels as
    described above.  [budget] is spent once per level ({!Budget.spend}
    before the level runs) and additionally probed in flight
    ({!Budget.expired}) between SAT rounds and inside the solver's
    conflict loop, so a wall deadline aborts a stuck level within
    fractions of a second; exhaustion returns the driver's
    [Sched_error.Timeout] class with the level reached.  [max_ii]
    (default [mii + 64]) bounds the walk; exceeding it returns
    [Escalation_cap].  [max_conflicts] bounds every solve call, not each
    level: a level makes one call per rung of its schedule-length
    ladder and one more per CEGAR round.  A call over the cap makes its
    level read [`Unknown]: the walk continues and the eventual witness
    is just no longer proven optimal. *)
