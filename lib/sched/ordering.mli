(** Swing-modulo-scheduling node ordering [Llosa et al., PACT'96].

    The base scheduler sorts DDG nodes before placement (Section 2.3.2
    cites SMS).  SMS orders nodes so that (a) recurrences are handled
    first, most critical first, and (b) every node is placed while at
    least one neighbour is already scheduled, alternating bottom-up and
    top-down sweeps, so the placement window stays tight and lifetimes
    short.

    Node sets are the strongly connected components sorted by decreasing
    recurrence MII; nodes on dependence paths between already-ordered sets
    and the next recurrence are pulled in with that recurrence, and the
    remaining nodes form the final set — a faithful rendering of the SMS
    grouping. *)

val order : ?analysis:Ddg.Analysis.t -> Ddg.Graph.t -> ii:int -> int list
(** A permutation of the node ids in scheduling order.  [analysis], when
    supplied, must be [Analysis.compute g ~ii] — passing it spares the
    ordering its own timing fixpoint (the placement loop computes one
    anyway).  The placement loop orders the routed graph at every II
    attempt, so a call allocates only its result and O(n) words of int
    arrays and byte sets (plus {!Ddg.Scc.groups}' and, with two or more
    recurrences, {!Ddg.Scc.rec_mii_of}'s), nothing per node visited or
    per candidate compared. *)
