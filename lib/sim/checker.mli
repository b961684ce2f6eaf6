(** Static legality checker for modulo schedules.

    Verifies everything the clustered VLIW machine would enforce in
    hardware:

    - every dependence is satisfied:
      [cycle src + latency <= cycle dst + II * distance];
    - no functional-unit kind is oversubscribed in any cluster at any
      modulo slot;
    - every copy holds a specific bus for [bus_latency] consecutive slots
      and no two transfers overlap on the same bus;
    - copies and only copies carry a bus number;
    - register pressure fits every cluster's register file.

    Used by tests, by the simulator before executing, and as a
    property-check on everything the scheduler emits. *)

val check : ?registers:bool -> Sched.Schedule.t -> (unit, string list) result
(** [Ok ()] or the complete list of violations, human-readable.  An II
    below 1 is reported alone: every other check is per modulo slot.
    [registers:false] skips the MaxLive constraint — used for the
    Section-5.1 latency-0 upper-bound schedules, which the paper
    declares "obviously wrong" and exempts from feasibility. *)

val check_exn : ?registers:bool -> Sched.Schedule.t -> unit
(** @raise Failure with the violations joined, if any. *)
