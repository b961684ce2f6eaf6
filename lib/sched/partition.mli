(** Multilevel DDG partitioning (Section 2.3.1).

    Assigns every node of the loop DDG to a cluster.  The strategy follows
    the base scheduler [Aletà et al., MICRO'01 / PACT'02]:

    + {b Coarsening}: edges are weighted by the impact that adding a bus
      latency to them would have on execution time (slack-based,
      {!Ddg.Analysis.edge_weight}); a greedy maximum-weight matching groups
      the endpoints of heavy edges into macro-nodes, repeatedly, until as
      many macro-nodes as clusters remain.  A pair is only contracted when
      the merged macro-node still fits a cluster's functional units at the
      current II, so the induced partition is always schedulable
      resource-wise.
    + {b Assignment}: remaining macro-nodes are placed on clusters largest
      first, each onto the cluster where its connection weight is highest
      among those with room (falling back to the least-loaded cluster).
    + {b Refinement}: hill-climbing node moves guided by the
      pseudo-schedule metric ({!Pseudo.estimate}); the best improving move
      is applied until a pass yields no improvement.

    A partition is an [int array] mapping node id to cluster number. *)

type t = int array

val initial : Machine.Config.t -> Ddg.Graph.t -> ii:int -> t
(** Coarsen, assign and refine at the given II.  For a unified machine the
    result is all zeros.  Equivalent to a one-shot {!Hier.initial} on a
    hierarchy seeded at [ii]. *)

(** The coarsening hierarchy as a reusable artifact.

    The escalation driver asks for a from-scratch partition at every II
    level it visits; rebuilding the multilevel coarsening from
    singletons each time repeats the dominant share of the work, because
    the walk only moves the II upward and the capacity test a merge must
    pass ({i fits some cluster at this II}) only loosens as the II
    grows.  A hierarchy captures one escalation's reusable state: the
    slack analysis and the coarsest level at the base II.  A fresh
    partition at a higher II then {e continues} coarsening from the
    cached level (every cached merge is still legal) instead of
    restarting from singletons, and both per-II continuations and
    finished partitions are memoized, so the escalation's second-chance
    partitions — recomputed at every failed level — cost one
    assign-and-refine after the first visit, and repeated visits are
    array copies.

    Not domain-safe: query a hierarchy from one domain at a time. *)
module Hier : sig
  type partition := t

  type t

  type skel
  (** The configuration-blind part of a hierarchy: slack analysis and
      the coarsening levels.  Contraction capacity reads only the
      cluster/unit structure, so one skeleton serves every machine
      sharing it — bus counts, bus latencies and register files may all
      differ — and, keyed by canonical DDG digest, every loop with a
      structurally identical graph.  Internally mutex-guarded: views
      over one skeleton may run concurrently on pool domains. *)

  val create :
    ?rec_mii:int -> Machine.Config.t -> Ddg.Graph.t -> base_ii:int -> t
  (** Analyse and coarsen at [base_ii] (the escalation's MII).
      [rec_mii], when known (the scheduling driver computes it once per
      loop), spares the binary search of {!Ddg.Mii.rec_mii}.  Equivalent
      to a {!view} over a private fresh skeleton. *)

  val skeleton : t -> skel
  (** The skeleton underneath this view, shareable via {!view}. *)

  val view : skel -> ?graph:Ddg.Graph.t -> Machine.Config.t -> t
  (** A view of [skel] for [config], which must have the skeleton's
      cluster/unit structure (checked; [Invalid_argument] otherwise).
      [graph], when given, becomes the view's {!graph} — the loop's own
      graph object, which must be structurally identical to the
      skeleton's (same canonical digest; only the node count is
      checked) so that skeleton artifacts, index arrays over node ids,
      apply verbatim.  Views are cheap: assignment/refinement memos
      start empty, analysis and coarsening are shared.  A view itself
      is single-domain; only the skeleton may be shared. *)

  val config : t -> Machine.Config.t
  (** The configuration this view assigns and refines for. *)

  val base_ii : t -> int

  val rec_mii : t -> int
  (** The recurrence-constrained MII the hierarchy was created with (or
      computed itself). *)

  val graph : t -> Ddg.Graph.t
  (** The graph the hierarchy was built over (physical identity is the
      sharing contract: {!Sched.Driver.schedule_loop} accepts an external
      hierarchy only for the very graph it is scheduling). *)

  val initial : t -> ii:int -> partition
  (** The from-scratch partition at [ii >= base_ii].  At [ii = base_ii]
      this is exactly {!val:initial} at the same II; above it, coarsening
      resumes from the cached base level.  Results are memoized per II
      and returned as fresh copies; the result for a given II does not
      depend on the order of queries. *)

  val refine : t -> ii:int -> partition -> partition
  (** {!val:refine} with the hierarchy's [rec_mii] (lineage refinement
      along the escalation).  Memoized per [(ii, partition)] and returned
      as a fresh copy: the escalation's lineage chain is a pure function
      of the II, so walks sharing a hierarchy — the plain and the
      transformed run over one loop — re-refine from the cache instead of
      re-running the hill-climb. *)
end

val refine :
  ?metric:[ `Pseudo | `Cut ] ->
  Machine.Config.t ->
  Ddg.Graph.t ->
  ii:int ->
  t ->
  t
(** Improve an existing partition at a (typically increased) II.  Returns
    a new array; the input is not mutated.  [`Pseudo] (default) compares
    candidate partitions with the pseudo-schedule estimate, the paper's
    refinement metric; [`Cut] is the ablation that only minimizes the
    communication count and load imbalance. *)

val is_valid : Machine.Config.t -> t -> bool
(** Every assignment within [0, clusters). *)

val cut_weight : Ddg.Graph.t -> Ddg.Analysis.t -> t -> int
(** Sum of {!Ddg.Analysis.edge_weight} over register edges whose endpoints
    sit in different clusters (diagnostic). *)
