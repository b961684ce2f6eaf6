(** Strongly connected components of a DDG — its recurrences.

    A non-trivial SCC (more than one node, or a node with a self edge) is a
    recurrence: a dependence cycle closed by loop-carried edges.  The SMS
    node ordering schedules recurrences first, most critical (highest
    recurrence MII) first. *)

type component = {
  members : int list;  (** node ids, ascending *)
  rec_mii : int;       (** smallest II satisfying every cycle inside the
                           component; 1 for trivial components *)
}

val groups : Graph.t -> int list list
(** Raw SCCs in the order Tarjan's algorithm emits them, a reverse
    topological order of the condensation (a component comes after every
    component it reaches), members ascending — no per-component
    recurrence MII.  The cheap entry point for callers that only need
    the partition (the MII of a component costs a binary search over
    Bellman-Ford passes).  Allocates its result and O(n) words of
    scratch: the walk is iterative over int arrays. *)

val rec_mii_of : Graph.t -> int list -> int
(** Recurrence MII of one component of {!groups}: smallest II satisfying
    every cycle inside it; 1 for trivial components.  Allocates in the
    size of the component and its members' out-edges, not of the
    graph. *)

val compute : Graph.t -> component list
(** All SCCs (Tarjan), non-trivial recurrences first in decreasing
    [rec_mii] order, then trivial components in {!groups}' order. *)

val recurrences : Graph.t -> component list
(** Only the non-trivial components, decreasing [rec_mii]. *)

val component_of : Graph.t -> int array
(** [component_of g] maps each node to the index of its component in
    [compute g]'s list. *)
