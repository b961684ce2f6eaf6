(** Checkpointed, fault-isolated suite runs: the engine behind
    [repro suite].

    {!run} executes the suite with per-loop fault isolation (one
    poisoned loop is quarantined instead of destroying the run), saves
    everything it learned into a {!Checkpoint.t}, and can resume from a
    previous manifest — finished loops are answered from disk, only
    quarantined and missing loops are recomputed.  Entry order is
    canonical (modes as given, loops in input order), so fresh and
    resumed runs render byte-identical tables. *)

type outcome = {
  o_checkpoint : Checkpoint.t;
      (** complete state of this run — feed it to {!Checkpoint.save} *)
  o_quarantined : (string * Experiment.quarantined) list;
      (** (mode tag, record) for every loop quarantined {e this} run,
          with captured backtraces; reused manifest entries keep their
          quarantine in the checkpoint only *)
  o_computed : int;  (** loops actually attempted this run *)
  o_reused : int;  (** entries answered from the resume manifest *)
  o_cache_hits : int;
      (** entries answered from the schedule store ([?store]) *)
}

val run :
  ?jobs:int ->
  ?retry:bool ->
  ?retries:int ->
  ?backoff:Backoff.t ->
  ?poison:string list ->
  ?budget_s:float ->
  ?resume:Checkpoint.t ->
  ?store:Store.t ->
  modes:Experiment.mode list ->
  Machine.Config.t ->
  Workload.Generator.loop list ->
  outcome
(** All optional knobs are forwarded to
    {!Experiment.run_suite_isolated}.  [resume] supplies a previously
    saved manifest; its [Done] and [Skipped] entries are trusted,
    [Quarantined] entries are retried.  [store] answers unresumed loops
    from the content-addressed schedule store ahead of any scheduling —
    a cached success becomes a recomputed [Done] summary, a cached
    give-up becomes [Skipped] — and absorbs every fresh success and
    give-up this run computes (quarantines are never cached).  Poisoned
    loops bypass the store so injected faults actually fire, and a
    [budget_s] run ignores [store] entirely: budgeted results are
    wall-clock-dependent, cached entries must not be.  Callers own the
    {!Store.save}. *)

val summaries : outcome -> mode:string -> Checkpoint.summary list
(** [Done] summaries for one mode tag, in canonical loop order. *)

val ipc_table :
  Machine.Config.t ->
  base:Checkpoint.summary list ->
  repl:Checkpoint.summary list ->
  string
(** The per-benchmark baseline/replication/gain table, rendered from
    summaries with the same arithmetic as {!Experiment.ipc}. *)
