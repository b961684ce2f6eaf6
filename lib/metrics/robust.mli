(** Resumable, fault-isolated suite runs: the engine behind
    [repro suite].

    {!run} answers each (mode, loop) from the content-addressed schedule
    store first, then executes the misses with per-loop fault isolation
    (one poisoned loop is quarantined instead of destroying the run) and
    records what they produced back into the store.  Resume is therefore
    just a rerun over the same store directory: finished loops and
    give-ups are hits, only quarantined and new loops are recomputed.
    Runs come back in canonical order (modes as given, loops in input
    order), so fresh and resumed runs render byte-identical tables. *)

type outcome = {
  o_runs : Experiment.loop_run list;
      (** every finished run, stored or fresh, in canonical order *)
  o_quarantined : (string * Experiment.quarantined) list;
      (** (mode tag, record) for every loop quarantined this run, with
          captured backtraces; never stored, so a rerun retries them *)
  o_computed : int;  (** loops actually attempted this run *)
  o_cache_hits : int;  (** entries answered from the schedule store *)
}

val run :
  ?jobs:int ->
  ?retry:bool ->
  ?retries:int ->
  ?backoff:Backoff.t ->
  ?poison:string list ->
  ?budget_s:float ->
  ?store:Store.t ->
  modes:Experiment.mode list ->
  Machine.Config.t ->
  Workload.Generator.loop list ->
  outcome
(** All optional knobs but [store] are forwarded to
    {!Experiment.run_suite_isolated}.  [store] answers loops ahead of
    any scheduling — a cached success is a finished run, a cached
    give-up is skipped — and absorbs every fresh result under
    {!Store.record}'s policy, which keeps successes and give-ups and
    drops timeouts and bug-class errors.  A [budget_s] can only turn a
    walk into a timeout, so budgeted runs use the store like any other.
    Poisoned loops bypass the lookup so injected faults always fire.
    Callers own the {!Store.save}. *)

val ipc_table : Machine.Config.t -> Experiment.loop_run list -> string
(** The per-benchmark baseline/replication/gain table of a run list such
    as [o_runs]: the [Baseline] and the [Replication] runs of each
    benchmark, each side folded with {!Experiment.ipc}.  A benchmark
    with no finished runs on one side prints [n/a] for that side's IPC
    and for the gain. *)
