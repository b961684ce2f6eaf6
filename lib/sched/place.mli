(** Placement: assigning issue cycles to the nodes of a routed graph.

    Implements the scheduling step of Section 2.3.2: nodes are visited in
    SMS order and each is placed in its partition's cluster, as close as
    possible to its already-scheduled predecessors and successors (to keep
    lifetimes, and thus register pressure, low).  There is no
    backtracking: when a node has no feasible slot, placement fails and
    the driver increases the II. *)

type reason =
  | Window_closed  (** dependence window is empty at this II *)
  | Fu_busy        (** every candidate slot's functional unit was taken *)
  | Bus_busy       (** no bus free for the copy in any candidate slot *)

type failure = {
  node : int;
  reason : reason;
  copy_involved : bool;
      (** the failing node is a copy or its window was constrained by a
          copy — the paper attributes such failures to the bus *)
}

val try_schedule :
  Machine.Config.t -> Route.t -> ii:int -> (Schedule.t, failure) result
(** Requires [ii] to satisfy the routed graph's recurrences
    ({!Ddg.Mii.feasible_ii}); the driver checks this beforehand. *)
