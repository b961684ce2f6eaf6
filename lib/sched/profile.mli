(** Per-phase wall-clock and allocation accounting for the scheduling
    pipeline, plus exact counts of the work the reuse layers exist to
    save.

    Off by default; {!time} then costs one flag read per call.  When
    enabled, every outermost entry into an instrumented phase adds its
    wall-clock time and Gc minor/major word deltas to domain-local
    counters; domains merge their counters into the global totals with
    {!flush} — [Metrics.Pool] workers flush on exit, and
    {!seconds}/{!alloc_words} flush the calling domain — so parallel runs
    report the sum over every participating domain.  Re-entering the
    phase currently running on this domain is not double-counted.

    The cache counters at the bottom are always on (they track the
    content-addressed schedule store, {!Metrics.Store}, which is
    consulted outside the hot scheduling path). *)

type phase = Partition | Ordering | Placement | Regalloc | Replication

val phases : phase list
(** In reporting order. *)

val name : phase -> string

val set_enabled : bool -> unit
(** Enabling also {!reset}s the counters. *)

val reset : unit -> unit
(** Zero the global totals and the calling domain's local counters.
    (Other domains' unflushed counters are untouched; reset between,
    not during, parallel runs.) *)

val time : phase -> (unit -> 'a) -> 'a
(** [time p f] runs [f], charging its wall-clock time to [p] when
    profiling is enabled (and [p] is not already running on this
    domain). *)

val flush : unit -> unit
(** Merge the calling domain's local counters into the global totals.
    Every domain that ran instrumented phases must flush before it is
    joined, or its share is lost; the {!Metrics.Pool} workers do. *)

val seconds : phase -> float
(** Accumulated seconds since the last {!reset}, over every flushed
    domain plus the calling one (implies a {!flush}). *)

val alloc_words : phase -> int * int
(** Accumulated [(minor, major)] Gc words allocated during the phase
    since the last {!reset}, over every flushed domain plus the calling
    one (implies a {!flush}).  Includes the sampling overhead, a few
    words per outermost phase entry. *)

(** {1 Work counters}

    Counted only while profiling is enabled, like the phase timers
    (otherwise one flag read per event), over every domain, and zeroed
    by {!reset}.  A count has no spread, so tests hold the reuse layers
    to exact numbers with it where a timing would be noise. *)

type event =
  | Partition_computed
      (** a {!Partition.Hier.initial} or {!Partition.Hier.refine} memo
          miss: a partition coarsened or refined from scratch *)
  | Route_built
      (** a {!Route.build} call: one routed graph built, by the
          scheduler or rebuilt for a reader of a kept schedule
          ({!Schedule.route} on an [Unrouted] one) *)

val count : event -> unit

val events : event -> int
(** Events counted since the last {!reset}. *)

(** {1 Schedule-store counters}

    Always on, global (the store runs on the orchestrating domain).
    Zeroed by {!reset}. *)

val cache_hit : unit -> unit
val cache_miss : unit -> unit

val cache_io : read:int -> written:int -> unit
(** Add bytes moved to/from the on-disk tier. *)

val cache_counters : unit -> (string * int) list
(** [("hits", _); ("misses", _); ("bytes_read", _); ("bytes_written", _)]. *)
