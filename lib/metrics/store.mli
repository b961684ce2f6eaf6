(** Content-addressed schedule store — cross-section and cross-run
    memoization of finished {!Experiment.loop_run}s.

    A store maps (canonical DDG fingerprint × injective machine-config
    key × trip count), per (mode, variant) table, to either a finished
    run or a recorded give-up classification.  The fingerprint is
    {!Ddg.Fingerprint.canonical}; every fingerprint match is confirmed
    against the full {!Ddg.Graph.structural_encoding} before it is
    served, so a {!Hit} guarantees the scheduler would have seen
    byte-identical input and the returned payload is exactly what the
    cold run produced.  The config half is {!Machine.Config.cache_key}.

    Two tiers: the in-memory tables (always), plus an optional on-disk
    tier under [dir] — one JSON file per (mode/variant, config) table,
    loaded lazily on the table's first lookup and written atomically by
    {!save}.  Files are versioned with a format number and
    {!Sched.Driver.version}; entries written by a different scheduler
    version are ignored wholesale, so stale caches self-invalidate
    instead of serving outdated schedules.  A file that cannot even be
    read or parsed — a torn write, a truncation — is {e quarantined}:
    renamed to [<file>.corrupt] with one ["[repro] store:"] warning on
    stderr, and the run continues cold on that table instead of
    surfacing a load failure.

    A file's header (format, scheduler version, group, config) comes
    before its entries, and a load decodes the entries one at a time as
    the parser reads them ({!Json.fold_member}), never building a tree of
    the whole file.  An entry is decoded only under a current header
    read before it, and the decoded entries join the table only after
    the whole file has parsed: a file torn inside its entries is
    quarantined with none of them served, and a file whose header comes
    after its entries is stale.

    Values decoded from disk are shared store-wide by exact content,
    through the store's {!Share} table: every table's entries for one
    graph (same name, operation classes, labels and edges) hold one
    decoded graph, and one partition array per distinct partition of
    it.  Hits from different tables may therefore return physically
    equal [graph] and [assign] values, which callers must never mutate
    in place.  Neither tier holds a routed graph: every entry's schedule
    is unrouted ({!Sched.Schedule.unrouted}), whether decoded or
    {!record}ed, and {!Sched.Schedule.route} rebuilds it.  Each entry
    still passes its own shape check — its cycle and bus arrays hold one
    slot per node of the graph routing would build, and its II is at
    least 1 and at least its MII — and a malformed entry is dropped
    alone.

    Caching policy: successful runs and give-up errors
    ({!Sched.Sched_error.is_give_up}) are recorded; [Timeout] results
    are wall-clock-dependent and bug-class errors must surface, so
    {!record} silently drops both.  This is the only record policy:
    results computed under a budget are recorded like any other (a
    budget can only turn a walk into a [Timeout]), and a quarantined
    loop is never stored, which is what lets a rerun over the same
    directory resume a suite run ({!Robust}).  Consumers ({!Suite},
    {!Robust}) fall through to the normal scheduling path on {!Miss} —
    hits must be byte-identical to cold runs, which the equality tests
    and the CI cache-equality gate pin.

    A store instance is not domain-safe: consult it from the
    orchestrating domain only (the {!Suite}/{!Robust} integration does;
    pool workers never see it, only its domain-safe {!share} table).
    Its table files are read through one buffer per store, reused from
    file to file.  All traffic is mirrored into the
    always-on counters of {!Sched.Profile}. *)

type t

type answer =
  | Hit of Experiment.loop_run
      (** Cached success, with the [loop] field rebound to the querying
          loop (id/benchmark/visits are outside the key). *)
  | Hit_give_up of string * string
      (** Cached give-up: {!Sched.Sched_error.class_name} and the
          rendered message of the original error. *)
  | Miss

type stats = {
  hits : int;
  misses : int;
  bytes_read : int;    (** disk-tier bytes loaded *)
  bytes_written : int; (** disk-tier bytes saved *)
  tables_saved : int;   (** dirty tables written by {!save} calls *)
  tables_skipped : int; (** clean tables {!save} did not rewrite *)
}

val create : ?dir:string -> unit -> t
(** Memory-only when [dir] is omitted.  [dir] need not exist yet; it is
    created by the first {!save}. *)

val share : t -> Share.t
(** The table the disk tier decodes into; a {!Suite} over this store
    shares the runs it computes through it as well. *)

val lookup :
  t ->
  mode:Experiment.mode ->
  ?variant:string ->
  config:Machine.Config.t ->
  Workload.Generator.loop ->
  answer
(** [variant] separates result families computed under the same mode
    but different hooks — {!Suite.spill_runs} uses ["spill"]; the
    default [""] is the plain run table. *)

val record :
  t ->
  mode:Experiment.mode ->
  ?variant:string ->
  config:Machine.Config.t ->
  Workload.Generator.loop ->
  (Experiment.loop_run, Sched.Sched_error.t) result ->
  unit
(** First write wins (determinism makes re-writes identical); timeouts
    and bug-class errors are never recorded.  A run is kept with its
    schedule unrouted. *)

val evict :
  t ->
  mode:Experiment.mode ->
  ?variant:string ->
  config:Machine.Config.t ->
  Workload.Generator.loop ->
  unit
(** Drop the entry for this key if present (both tiers: the table is
    marked dirty, so the next {!save} rewrites the file without it). *)

val save : t -> unit
(** Write every dirty table of the disk tier (atomic per file:
    temp-file + rename).  A table untouched since its last load or save
    is skipped, not rewritten — repeated drains and warm all-hit
    shutdowns cost zero disk writes; the {!stats}
    [tables_saved]/[tables_skipped] counters record both sides.  No-op
    for memory-only stores. *)

val stats : t -> stats
(** Counters since {!create}, for this store instance.  The global
    cross-store view lives in {!Sched.Profile.cache_counters}. *)

(** The store's DDG wire codec, shared with the serve daemon's request
    protocol ({!Serve}) so a graph travels the socket in exactly the
    bytes the disk tier uses. *)
module Graph_json : sig
  val encode : Ddg.Graph.t -> Json.t

  val decode : Json.t -> Ddg.Graph.t
  (** @raise Json.Bad on a malformed graph object, including one the
      graph builder refuses (an edge to a node that does not exist, a
      negative latency or distance, a zero-distance cycle). *)
end

(** The parts of the store's run codec that the serve daemon's replies
    reuse, so a reply field and the stored field are one encoding. *)
module Run_json : sig
  val counts : Sim.Lockstep.counts -> Json.t
  (** The lockstep simulation counts, one integer member per field. *)

  val increments : Sched.Driver.outcome -> Json.t
  (** The II increments summed per cause:
      [{"bus":b,"recurrence":r,"registers":g}]. *)

  val stats : Replication.Replicate.stats -> Json.t
  (** The replication pass's statistics, one member per field in
      declaration order; a serve reply keeps its four totals. *)
end
