(** Running the paper's experiments: scheduling a loop (baseline or with
    replication), simulating it, and aggregating per-benchmark IPC.

    IPC follows the paper's accounting: the useful work of a loop
    iteration is its original instruction count — copies and replicas
    execute but do not count as progress — and each loop contributes with
    its profiled weight, [visits * Texec] cycles for [visits * trip *
    useful] instructions.

    Every runner reports failures as {!Sched.Sched_error.t}: give-up
    classes (infeasible partition, escalation cap, register pressure, bus
    saturation) are data and may be skipped; bug classes (checker
    violation, internal) must explode.  See {!Sched.Sched_error.is_bug}
    and docs/ROBUSTNESS.md. *)

type mode =
  | Baseline           (** the state-of-the-art scheduler alone *)
  | Replication        (** with the Section-3 replication pass *)
  | Replication_latency0
      (** replication scheduled as if buses delivered instantly — the
          Section-5.1 upper bound of Figure 12 *)
  | Macro_replication  (** the Section-5.2 macro-node alternative *)
  | Replication_length
      (** replication plus the Section-5.1 schedule-length post-pass *)

val mode_tag : mode -> string
(** Stable short tag ("base", "repl", "repl0", "macro", "repllen") used
    in store table names and the serve protocol. *)

val mode_of_tag : string -> mode option
(** Inverse of {!mode_tag} ([None] on an unknown tag) — the serve
    daemon's request decoder and other wire layers resolve mode tags
    through this. *)

type loop_run = {
  loop : Workload.Generator.loop;
  mode : mode;
  outcome : Sched.Driver.outcome;
  repl_stats : Replication.Replicate.stats option;
      (** present when replication actually ran on the final schedule *)
  counts : Sim.Lockstep.counts;  (** one visit of the loop, simulated *)
}

val unrouted : loop_run -> loop_run
(** The run as a holder keeps it once it has finished: its schedule
    unrouted ({!Sched.Schedule.unrouted}) around the outcome's own graph
    and partition, latency-0 exactly in [Replication_latency0] mode; the
    run itself when it holds no routed graph already.  {!run_loop} and
    the other runners return their runs routed. *)

val run_loop :
  ?budget:Sched.Budget.t ->
  ?hier:Sched.Partition.Hier.t ->
  mode ->
  Machine.Config.t ->
  Workload.Generator.loop ->
  (loop_run, Sched.Sched_error.t) result
(** Schedule, verify with {!Sim.Checker}, execute with {!Sim.Lockstep}.
    A legality violation is [Error (Checker_violation _)], a simulator
    rejection [Error (Internal _)] — the harness treats both as bugs,
    not data.  [budget] bounds the escalation and [hier] shares a
    partition hierarchy, both as in {!Sched.Driver.schedule_loop};
    [hier] must be a view for this very configuration over this loop's
    graph. *)

val run_with :
  ?mode:mode ->
  ?latency0:bool ->
  ?length_pass:bool ->
  ?spiller:Sched.Driver.spiller ->
  ?budget:Sched.Budget.t ->
  ?hier:Sched.Partition.Hier.t ->
  transform:Sched.Driver.transform option ->
  stats_ref:Replication.Replicate.stats option ref ->
  Machine.Config.t ->
  Workload.Generator.loop ->
  (loop_run, Sched.Sched_error.t) result
(** Generalized runner for custom transforms — [repro ablate] and
    [repro extensions] plug replication variants in here.  [mode] only
    tags the result. *)

exception Illegal of string

val contains : string -> sub:string -> bool
(** Plain substring search (the stdlib has none); shared by the
    fault-injection assertions, the suite's sweep replays, and tooling. *)

val error_is_bug : Sched.Sched_error.t -> bool
(** Alias of {!Sched.Sched_error.is_bug}: true for classes that must
    {!Illegal}-explode, false for loops the scheduler merely gives up on
    (skippable data). *)

val illegal : id:string -> Sched.Sched_error.t -> exn
(** The {!Illegal} exception for a bug-class error on loop [id]. *)

val keep_or_raise :
  id:string -> (loop_run, Sched.Sched_error.t) result -> loop_run option
(** [Some run] on success, [None] on a give-up class, raises {!Illegal}
    on a bug class — the skip policy shared by {!run_suite} and the
    sweep replays. *)

val run_suite :
  ?jobs:int ->
  mode ->
  Machine.Config.t ->
  Workload.Generator.loop list ->
  loop_run list
(** Runs every loop, on up to [jobs] domains (default 1, sequential;
    loops are independent, so results are identical at any [jobs]).
    Loops the scheduler gives up on (possible at very small register
    files) are skipped — the paper likewise reports only loops it can
    modulo schedule.  A schedule that fails the legality checker or the
    simulator raises {!Illegal}: that is a bug, not data. *)

(** {1 Fault-isolated suite runs}

    {!run_suite} is fail-fast: one bug takes the whole run down.  The
    isolated variant quarantines instead — each loop's failure is
    captured where it happens (see {!Pool.map_result}) and reported with
    the partial results, so one poisoned loop cannot destroy an
    hour-long sweep. *)

type quarantined = {
  q_loop : Workload.Generator.loop;
  q_error : Sched.Sched_error.t;
  q_backtrace : string;
      (** backtrace of the captured exception; [""] when the failure was
          a classified [Error], not a raise *)
  q_retried : bool;  (** the failure survived a sequential retry *)
}

type isolated = {
  iso_runs : loop_run list;
  iso_quarantined : quarantined list;
  iso_skipped : (Workload.Generator.loop * Sched.Sched_error.t) list;
}

exception Injected_fault of string
(** Raised inside the worker for loops named in [poison] — the
    fault-injection hook used by tests and [repro suite --poison]. *)

val run_suite_isolated :
  ?jobs:int ->
  ?retry:bool ->
  ?retries:int ->
  ?backoff:Backoff.t ->
  ?poison:string list ->
  ?budget_s:float ->
  mode ->
  Machine.Config.t ->
  Workload.Generator.loop list ->
  isolated
(** Like {!run_suite}, but faults are quarantined, not raised: bug-class
    errors and worker exceptions land in [iso_quarantined] (with the
    captured backtrace when there is one), give-up classes in
    [iso_skipped], successes in [iso_runs] — all in input order within
    each bucket.  [retry] re-runs each quarantined loop sequentially, up
    to [retries] times (default 1), and promotes it back on success;
    each retry attempt [k] first waits [Backoff.pause backoff
    ~attempt:k] (default {!Backoff.none}: immediate retries, the
    historical behaviour).  [poison] injects a deliberate
    {!Injected_fault} into the named loops.  [budget_s] bounds each
    loop's escalation wall-clock; expiry quarantines the loop as
    [Timeout]. *)

(** {1 Register-family sweeps}

    The Section-4 register-sensitivity experiment runs the same loops on
    machines that differ only in register-file size.  Since only the
    driver's terminal register check reads that size, one recorded
    escalation trace ({!Sched.Driver.Trace}) answers the whole family:
    record once (the suite records at the strictest member), replay per
    member. *)

type traced
(** A loop's escalation trace plus the transform instance and replication
    stats needed to replay it faithfully. *)

val traced_loop : traced -> Workload.Generator.loop

val record_trace :
  ?hier:Sched.Partition.Hier.t ->
  mode ->
  Machine.Config.t ->
  Workload.Generator.loop ->
  traced
(** Record the escalation trace of a loop at [config] (any member of
    the register family).  Only [Baseline],
    [Replication] and [Macro_replication] are register-sweepable.
    [hier] as in {!run_loop}.
    @raise Invalid_argument on the latency-0 and length-pass modes. *)

val replay_traced :
  ?spiller:Sched.Driver.spiller ->
  ?hier:Sched.Partition.Hier.t ->
  traced ->
  Machine.Config.t ->
  (loop_run, Sched.Sched_error.t) result
(** Answer one family member from the trace — checker and simulator
    included, exactly as {!run_loop} would have produced (the test suite
    pins the equality).  The member may differ from the recording in its
    register file only ({!Sched.Driver.Trace.replay}).  Replication
    statistics follow the replay's {!Sched.Driver.Trace.basis}: the
    recording's final statistics when the walk finished on the recorded
    success, the hook's current ones when it finished on a rebuilt
    placement (whose rebuild ran the member's transform) or live, so
    they describe the member's own run either way.  With [spiller], a
    recorded level whose placement overflows the member runs its spill
    rounds in place.
    [hier] — the member's hierarchy view — seeds live fallback.
    @raise Invalid_argument if [config] is outside the trace's register
    family. *)

val lengthen_run : loop_run -> (loop_run, Sched.Sched_error.t) result
(** Derive the [Replication_length] run of a loop from its
    [Replication] run of the same configuration: the length mode is the
    replication schedule plus the II-preserving {!Replication.Length_opt}
    post-pass, so no scheduling happens at all — checker and simulator
    re-run on the lengthened schedule exactly as a direct
    [run_loop Replication_length] would.
    @raise Invalid_argument if the run is not a [Replication] one. *)

(** {1 Aggregation} *)

val ipc : loop_run list -> float
(** Weighted IPC over a set of runs:
    [sum (visits * trip * useful) / sum (visits * Texec)]. *)

val hmean : float list -> float
(** Harmonic mean (the paper's HMEAN bars). *)

val ii_of : loop_run -> int
val weighted_mean_ii : loop_run list -> float
(** Average II weighted by dynamic execution (for Figure 9). *)

val group_by_benchmark :
  loop_run list -> (string * loop_run list) list
(** In {!Workload.Benchmark.all} order. *)
