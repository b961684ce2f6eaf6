(** A self-contained incremental CDCL SAT core.

    No external solver: this is the classic conflict-driven clause
    learning architecture — two-watched-literal propagation, first-UIP
    conflict analysis with clause learning and non-chronological
    backjumping, VSIDS-style activity decisions with phase saving, and
    Luby restarts — in a few hundred lines of OCaml, sized for the
    scheduling encodings of {!Exact} (tens of thousands of variables).

    The solver is {e incremental}: clauses may be added between [solve]
    calls, and each call may pass {e assumptions} — literals held true
    for that call only.  Guarding a clause group with a fresh selector
    variable [s] (emit [¬s ∨ C] and assume [s]) gives retractable
    constraint layers; clauses learned from one layer keep [¬s] and
    deactivate with it, while layer-independent lemmas transfer to every
    later call.  {!retire} ends a layer for good and releases its
    clauses.  {!Exact} uses exactly this to reuse work across II
    levels.

    A clause leaves the solver only through {!retire}, and only once a
    root-level assignment satisfies it: such a clause can never again
    become unit or conflicting, so dropping it changes no later answer,
    model, lemma or statistic.

    Literals are nonzero ints: [v] for variable [v] true, [-v] for
    false.  Variables come from {!new_var} and are 1-based. *)

type t

type result =
  | Sat      (** a model was found; read it with {!value} *)
  | Unsat    (** unsatisfiable under the given assumptions *)
  | Unknown  (** conflict budget exhausted or interrupted *)

val create : unit -> t

val new_var : t -> int
(** Fresh variable, 1-based. *)

val n_vars : t -> int

val add_clause : t -> int list -> unit
(** Add a clause over existing variables.  Tautologies are dropped,
    duplicate and root-false literals removed; the empty clause makes
    the solver permanently unsatisfiable.  Only legal at decision level
    0, i.e. outside [solve] — which is the only time user code runs. *)

val retire : t -> int -> unit
(** [retire t s] ends the clause layer guarded by selector [s]: it
    asserts [¬s] at the root, as [add_clause t [ -s ]] does, then drops
    every clause and learned clause that a root-level assignment
    satisfies — the layer's clauses, the lemmas that kept [¬s], and any
    other clause satisfied at the root — from the clause store and the
    watch lists.  The surviving watches keep their order, so the search
    from here on is step for step the one that would follow
    [add_clause t [ -s ]].  Same legality as {!add_clause}. *)

val solve :
  ?assumptions:int list ->
  ?max_conflicts:int ->
  ?interrupt:(unit -> bool) ->
  t ->
  result
(** Search for a model extending [assumptions].  [max_conflicts] bounds
    the conflicts of this call ([Unknown] when exceeded); [interrupt] is
    polled every few hundred conflicts and aborts with [Unknown] when it
    returns [true].  The solver always returns at decision level 0, so
    further [add_clause]/[solve] calls are legal afterwards. *)

val value : t -> int -> bool
(** Model value of a variable after [Sat] (unassigned-in-model variables,
    and variables created since, read [false]).  The solver keeps one
    model buffer and overwrites it at each [Sat] answer; the value is
    meaningless after [Unsat]/[Unknown]. *)

val ok : t -> bool
(** [false] once the clause set is unsatisfiable outright (no
    assumptions needed); [solve] then returns [Unsat] immediately. *)

val n_conflicts : t -> int
(** Conflicts over the solver's lifetime. *)

val n_learned : t -> int
(** Learned clauses currently stored: those learned so far, less the
    ones {!retire} dropped. *)

val n_propagations : t -> int

val learned_clauses : t -> int list list
(** The learned clauses currently stored (see {!n_learned}), as
    external-literal lists.
    Every one is a logical consequence of the clauses added so far —
    the property-test suite holds the solver to that. *)
