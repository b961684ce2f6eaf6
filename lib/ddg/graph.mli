(** Data-dependence graphs of innermost-loop bodies.

    A DDG node is one operation of the loop body; an edge [u -> v] means
    that [v] depends on [u].  Register edges carry the value produced by
    [u]; memory edges only order accesses to the centralized memory
    hierarchy (a store and a dependent load need no inter-cluster
    communication, Section 3.1).  Every edge has an iteration [distance]:
    [distance = 0] is an intra-iteration dependence, [distance = d > 0]
    means iteration [i + d] of [v] depends on iteration [i] of [u]
    (loop-carried; these close the recurrences that bound the II from
    below).

    Graphs are immutable after construction; use {!Builder} to create
    them.  Node ids are dense, [0 .. n_nodes - 1]. *)

type edge_kind =
  | Reg  (** register data dependence: the consumer reads the producer's
             result and a cross-cluster placement costs a communication *)
  | Mem  (** memory ordering dependence through the shared memory: never
             costs a communication *)

type edge = {
  src : int;
  dst : int;
  latency : int;   (** cycles before the result may be consumed *)
  distance : int;  (** iteration distance; [0] = same iteration *)
  kind : edge_kind;
}

type t

(** {1 Accessors} *)

val n_nodes : t -> int
val op : t -> int -> Machine.Opclass.t
val label : t -> int -> string
(** Short human-readable name of a node (e.g. ["A"], ["load3"]). *)

val edges : t -> edge array
(** All edges, in insertion order: the graph's one edge store itself,
    not a copy, so callers must not mutate it.  {!succs} and {!preds}
    hold the same records. *)

val succs : t -> int -> edge list
val preds : t -> int -> edge list

val reg_succs : t -> int -> edge list
(** Outgoing register edges only.  Precomputed at build time; O(1).
    When no memory edge leaves the node this is the {!succs} list
    itself ([==]), not a copy. *)

val reg_preds : t -> int -> edge list
(** Incoming register edges only, likewise: the {!preds} list itself
    when no memory edge enters the node. *)

val is_store : t -> int -> bool

val nodes : t -> int list
(** [0 .. n_nodes - 1], built afresh on each call: loops that run once
    per candidate move iterate [0 .. n_nodes - 1] instead. *)

val n_ops_of_kind : t -> Machine.Fu.kind -> int
(** Number of nodes executing on the given functional-unit kind. *)

val find_label : t -> string -> int
(** Node id with the given label.  @raise Not_found if absent. *)

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : ?name:string -> unit -> t

  val add : t -> ?label:string -> Machine.Opclass.t -> int
  (** Add a node, returning its id.  The default label is the id printed
      in base 26 (["A"], ["B"], ...). *)

  val depend :
    ?distance:int -> ?latency:int -> t -> src:int -> dst:int -> unit
  (** Add a register dependence [src -> dst]; the latency defaults to the
      Table-1 latency of [src]'s operation class.  [latency] overrides it —
      the scheduler uses this for edges whose producer is an inter-cluster
      copy, whose latency is the configuration's bus latency.  Default
      [distance] is [0].
      @raise Invalid_argument if either id is unknown, if [distance] or
      [latency] is negative, or if [src] is a store (stores produce no
      register value). *)

  val mem_depend : ?distance:int -> t -> src:int -> dst:int -> unit
  (** Add a memory ordering dependence; both endpoints must be memory
      operations.  Latency 1 (the consumer may not access memory until the
      cycle after the producer issues). *)

  val edge : t -> edge -> unit
  (** Add an existing edge record itself, not a copy: a graph derived
      from another (the routed graph, a spill rewrite) shares the edges
      it keeps unchanged with its source.  The record must pass the
      checks {!depend} and {!mem_depend} make.
      @raise Invalid_argument if either id is unknown, if the distance
      or latency is negative, if a [Reg] edge leaves a store, or if a
      [Mem] edge has an endpoint that is not a memory operation. *)

  val build : t -> graph
  (** Finalize.  @raise Invalid_argument if the intra-iteration subgraph
      (edges with [distance = 0]) has a cycle — such a loop body cannot
      execute. *)
end

val name : t -> string
(** Name given at {!Builder.create} time (for reports); [""] if none. *)

val structural_encoding : t -> string
(** The exact byte string {!digest} hashes: node count, operation
    classes per id, and every edge (endpoints, latency, distance, kind)
    in insertion order.  Names and labels are excluded.  Two graphs with
    equal encodings are indistinguishable to the scheduler — equality of
    encodings is the deep-equality fallback behind the fingerprints in
    {!Fingerprint} and the entry check of the content-addressed schedule
    store. *)

val digest : t -> string
(** [Digest.string (structural_encoding t)].  Names and labels are
    excluded: two graphs with equal digests schedule identically under
    every configuration, which makes the digest the sharing key for
    cross-loop artifacts (partition skeletons). *)

(** {1 Export} *)

val to_dot : t -> string
(** GraphViz rendering; loop-carried edges are dashed, memory edges are
    dotted. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: node count and operation mix. *)
