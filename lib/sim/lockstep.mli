(** Lockstep execution of a software-pipelined loop.

    Executes the modulo schedule cycle by cycle, the way the clustered
    VLIW machine would: all clusters advance together; iteration [i]
    enters the pipeline at cycle [i * II]; the prologue fills the [SC]
    stages, the kernel repeats, the epilogue drains.  Every dynamic
    operation is checked as it issues — operands ready (producers of the
    right earlier iteration have completed), a functional unit of the
    right kind available in the op's cluster, a bus available for each
    copy — so a buggy schedule cannot execute to completion.

    Long-running loops are executed explicitly until the pipeline has
    demonstrably reached its steady state (every modulo slot exercised
    with all stages overlapping).  Over that explicit prefix the
    simulator checks operand readiness and, per absolute cycle,
    functional-unit and bus occupancy.  The remaining iterations are not
    executed, and the total cycle count is analytic,
    [Texec = (N - 1 + SC) * II]; nothing compares it with the prefix.

    An II below 1, a node with a negative issue cycle and a node on a
    cluster the machine does not have are reported before anything
    executes, in {!Checker}'s words.
    The prefix is walked cycle by cycle from a counting sort of the
    nodes by kernel cycle, so a run allocates its result and scratch
    linear in the nodes, the clusters and the kernel length, never a
    record per issue event. *)

type counts = {
  cycles : int;            (** total execution cycles, [(N-1+SC)*II] *)
  iterations : int;
  dynamic_ops : int;       (** all operations issued, copies included *)
  dynamic_copies : int;    (** bus transfers issued *)
  useful_ops : int;
      (** operations excluding copies and replicas — one per original
          instruction per iteration (what IPC counts) *)
  explicit_iterations : int;
      (** how many iterations were executed instruction-by-instruction *)
}

val run :
  ?useful_per_iteration:int ->
  Sched.Schedule.t ->
  iterations:int ->
  (counts, string) result
(** [useful_per_iteration] defaults to the number of non-copy nodes in
    the routed graph; when the schedule comes from a replicated graph,
    pass the original instruction count so replicas are not counted as
    useful work.  An [Error] names the first violation in issue order:
    by absolute cycle, then iteration, then node id. *)

val run_exn :
  ?useful_per_iteration:int -> Sched.Schedule.t -> iterations:int -> counts
