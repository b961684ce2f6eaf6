(** The paper's tables and figures, regenerated.

    Each experiment has a [_data] accessor returning plain records (used
    by the test-suite to assert the qualitative claims) and a renderer
    returning the report text.  All of them draw from one shared
    {!Suite.t} so sweeps are computed once. *)

(** {1 Table 1 — machine configurations} *)

val table1 : unit -> string

(** {1 Figure 1 — causes for increasing the II (baseline)} *)

type fig1_row = {
  f1_config : string;
  f1_bus : float;         (** fraction of II increments due to the bus *)
  f1_recurrence : float;
  f1_registers : float;
}

val fig1_data : Suite.t -> fig1_row list
val fig1 : Suite.t -> string

(** {1 Figure 7 — IPC, baseline vs replication, six configurations} *)

type fig7_cell = { benchmark : string; base_ipc : float; repl_ipc : float }

type fig7_panel = {
  f7_config : string;
  cells : fig7_cell list;
  hmean_base : float;
  hmean_repl : float;
}

val fig7_data : Suite.t -> fig7_panel list
val fig7 : Suite.t -> string

(** {1 Figure 8 — mgrid vs the unified machine} *)

type fig8_row = { machine : string; f8_base : float; f8_repl : float }

val fig8_data : Suite.t -> fig8_row list
val fig8 : Suite.t -> string

(** {1 Figure 9 — applu II reduction} *)

type fig9_row = {
  f9_config : string;
  base_ii : float;   (** dynamically weighted mean II, baseline *)
  repl_ii : float;
  reduction : float; (** [1 - repl/base] *)
}

val fig9_data : Suite.t -> fig9_row list
val fig9 : Suite.t -> string

(** {1 Figure 10 — instructions added by replication} *)

type fig10_row = {
  f10_config : string;
  added_mem : float;  (** dynamic added / dynamic useful, per kind *)
  added_int : float;
  added_fp : float;
}

val fig10_data : Suite.t -> fig10_row list
val fig10 : Suite.t -> string

(** {1 Figure 12 — latency-0 upper bound for length-oriented replication} *)

type fig12_row = {
  f12_config : string;
  ipc_repl : float;     (** HMEAN IPC, normal replication *)
  ipc_latency0 : float; (** HMEAN IPC with zero-latency buses *)
}

val fig12_data : Suite.t -> fig12_row list
val fig12 : Suite.t -> string

(** {1 Section 4 text statistics} *)

type sec4_stats = {
  s4_config : string;
  comms_removed_frac : float;   (** paper: ~36% on 4c1b2l64r *)
  instrs_per_removed_comm : float;  (** paper: ~2.1 *)
}

val sec4_data : Suite.t -> sec4_stats
val sec4 : Suite.t -> string

type sec4_regs_row = {
  registers : int;
  r_hmean_base : float;
  r_hmean_repl : float;
}

val sec4_regs_data : Suite.t -> sec4_regs_row list
val sec4_regs : Suite.t -> string

(** {1 Section 5 experiments} *)

type sec51_row = {
  s51_config : string;
  ipc_normal : float;
  ipc_length : float;  (** with the schedule-length post-pass *)
}

val sec51_data : Suite.t -> sec51_row list
val sec51 : Suite.t -> string

type sec52_row = {
  s52_config : string;
  ipc_subgraph : float;   (** Section-3 minimal subgraphs *)
  ipc_macro : float;      (** Section-5.2 macro-node cones *)
  added_subgraph : float;
      (** instructions replicated per removed communication *)
  added_macro : float;
  removed_subgraph : int; (** communications removed across the suite *)
  removed_macro : int;
}

val sec52_data : Suite.t -> sec52_row list
val sec52 : Suite.t -> string

(** {1 Everything} *)

val all : Suite.t -> (string * (unit -> string)) list
(** [(experiment id, renderer)] for every artifact above, in paper
    order.  Nothing is scheduled until a renderer is called, and then
    only the sweeps its artifact reads. *)
