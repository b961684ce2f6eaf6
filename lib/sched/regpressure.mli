(** Register pressure (MaxLive) of a modulo schedule.

    Each value — produced by an instruction or delivered into a cluster by
    a copy — occupies a register from its definition until its last use.
    With software pipelining a lifetime longer than the II overlaps itself,
    requiring one register per live overlapping instance (modulo variable
    expansion).  MaxLive of a cluster is the maximum, over the II modulo
    slots, of simultaneously live values; when it exceeds the cluster's
    register file, the schedule is rejected and the II increased (the
    "Registers" cause of Figure 1). *)

val per_cluster : Schedule.t -> int array
(** MaxLive of every cluster. *)

val max_per_cluster : Schedule.t -> int array
(** Alias of {!per_cluster}, named for its role in the driver's
    register check: the vector is computed once per placed schedule,
    judged against the register file, and compared across levels by the
    stationarity cut. *)

val fits : limit:int -> int array -> bool
(** [fits ~limit pressure]: every cluster within [limit] registers. *)

val max_pressure : Schedule.t -> int

val ok : Schedule.t -> bool
(** All clusters within [registers_per_cluster]. *)
