(** Macro-node replication — the Section-5.2 alternative.

    Instead of replicating the minimal subgraph of one communication, this
    variant replicates whole {e macro-nodes} from the partitioner's
    coarsening hierarchy, attacking several communications at once.  The
    paper reports that it performs poorly: "too many unnecessary
    instructions were replicated when replicating macro-nodes", and
    resource conflicts mean only small replications are beneficial.  We
    implement it so the comparison can be reproduced (the [sec52_macro]
    figure and [repro ablate]).

    The macro-node of a communicated value is approximated by the full
    ancestor cone within its home cluster (no stopping at communicated
    parents — that stopping rule is exactly the minimality the Section-3
    subgraphs have and macro-nodes lack). *)

val transform : unit -> Sched.Driver.transform * Replicate.stats option ref
(** Drop-in replacement for {!Replicate.transform} using macro-node
    replication; same stats contract. *)

val cone : State.t -> int -> int list
(** The replicated set for a communication: every non-store register
    ancestor in the producer's home cluster, plus the producer
    (exposed for tests). *)
