(** Stateful model-based testing of the driver / suite / store API.

    A random {e command sequence} — schedule one loop, run the
    fault-isolated suite, poison a loop, save the suite's schedule
    store, resume from it, sweep a register family, inject an exhausted
    budget — is executed against the real system while a tiny in-memory
    fake tracks what the system has {e promised}: the status signature
    every (mode, loop) pair has ever produced, the outcome signature of
    every (loop, register-count) pair whether it came from a direct
    schedule or a trace replay, the rendered IPC table of a clean full
    run, and how many healthy entries the last and the saved suite run
    left in their stores.  After every command the real response is
    checked against the fake (postconditions: determinism of
    re-observations, hit counts on resume, byte-identical tables,
    quarantine classes, timeout classification, disk round-trips).

    A failing sequence is shrunk to a locally minimal one by greedy
    command removal, re-validating the sequence's preconditions on the
    fake before each re-run — the fakes-and-shrinking structure of
    model-based PBT harnesses.

    [sabotage] hooks let the test suite prove the harness catches real
    divergences: a named, deliberate lie on the real side (e.g. dropping
    the budget from the timeout command) must produce a counterexample
    that shrinks to the one lying command. *)

type cmd =
  | Run_loop of { mode : int; loop : int }
      (** schedule + verify + simulate one loop; [mode] indexes
          [base; repl] *)
  | Budget_timeout of { mode : int; loop : int }
      (** same, under a zero-attempt budget: must classify [Timeout] *)
  | Run_suite of { jobs : int }
      (** fault-isolated full suite run over a fresh schedule store in
          a directory of its own *)
  | Poison of { loop : int }
      (** the same with an injected fault: the victim must be
          quarantined as ["internal"] in every mode, everyone else
          unaffected *)
  | Save  (** {!Metrics.Store.save} the last suite run's store *)
  | Resume
      (** suite run over a fresh store on the directory of the last
          [Save]: healthy entries are hits, the rest recomputed, nothing
          quarantined, table byte-identical to a clean run *)
  | Schedule_direct of { loop : int; regs : int }
      (** bare [Driver.schedule_loop] at a register count *)
  | Sweep of { loop : int; regs : int list }
      (** [Driver.schedule_sweep] over the register family: each
          member's outcome must match whatever a direct schedule of the
          same (loop, regs) observed, before or after *)
  | Cache_probe of { mode : int; loop : int }
      (** run one loop, record it into the content-addressed schedule
          store ({!Metrics.Store}), and look it straight back up: the
          hit must carry a signature identical to the direct run (and
          to every earlier observation of the pair) *)
  | Cache_evict of { mode : int; loop : int }
      (** evict the pair's store entry: the next lookup must miss, and
          recomputing the loop must still match the model's history *)
  | Serve_request of { mode : int; loop : int }
      (** one schedule request through an in-memory serve engine
          ({!Metrics.Serve.handle}): the reply bytes must equal
          {!Metrics.Serve.direct_reply} of the same (mode, loop), as
          memoized by the fake on first use — cold misses, warm hits
          and post-restart disk hits are all held to the same bytes *)
  | Serve_evict of { mode : int; loop : int }
      (** evict through the serve engine: the ack is fixed bytes, and a
          later [Serve_request] of the pair must recompute to exactly
          the memoized reply *)
  | Serve_restart
      (** persist the engine's disk tier and replace the engine with a
          fresh one over the same directory — warm replies afterwards
          must still match the memoized bytes *)
  | Serve_burst of { reqs : (int * int) list }
      (** concurrent pipelined clients: admit every request before
          pumping ({!Metrics.Serve.pump_wait}) until all are answered,
          then require one reply per request in admission order (by
          sequence number), each byte-identical to the direct run —
          identical requests in one burst coalesce *)
  | Serve_concurrent of { mode : int; loop : int; n : int }
      (** a batched burst of [n] identical requests (distinct ids)
          through a second engine backed by a one-domain worker pool:
          the reply must be one array line whose elements each equal the
          per-id direct run byte-for-byte, and the stats counters must
          show the burst coalescing onto exactly one computation the
          first time a (mode, loop) pair is seen — all store hits
          afterwards *)
  | Exact_gap of { mode : int; loop : int }
      (** run the heuristic driver and the exact oracle
          ({!Sched.Exact.minimum_ii}, conflict-capped so the outcome is
          deterministic) on the same loop: the gap must be non-negative
          — the heuristic schedule is a witness inside the oracle's
          horizon, so an exact II above the heuristic II is a lie — and
          the full observation (both IIs and the proven bit) must be
          identical on every re-observation of the pair *)

val cmd_to_string : cmd -> string

val valid : cmd list -> bool
(** Precondition check for a whole sequence ([Save] needs a suite run,
    [Resume] a saved store, indices in range) — generation always
    produces valid sequences; shrinking re-validates candidates. *)

val gen_cmds : Workload.Rng.t -> len:int -> cmd list
(** Random valid sequence of [len] commands. *)

type failure = {
  x_index : int;  (** position of the failing command *)
  x_cmd : cmd;
  x_msg : string;  (** which postcondition broke, and how *)
}

val run_cmds : ?sabotage:string -> cmd list -> (unit, failure) result
(** Execute a sequence against the real system and the fake.  Each call
    builds a fresh environment (loops, config, temp store directories).
    [sabotage] (for tests of the harness itself): ["ignore-budget"]
    silently drops the budget from [Budget_timeout] on the real side;
    ["serve-starve"] staples a zero-attempt budget to every serve
    request, so the first cold miss degrades to a timeout reply instead
    of the direct-run bytes; ["coalesce-lie"] makes the concurrent
    engine appear to stamp the leader's rendered reply on every
    coalesced waiter instead of rendering each with its own id;
    ["gap-lie"] makes [Exact_gap] report an exact II one above the
    heuristic II — a negative gap the postcondition must refuse;
    ["resume-cold"] makes [Resume] run over a memory-only store, as if
    the saved directory were lost, so no saved entry can hit. *)

type counterexample = {
  c_seed : int;
  c_cmds : cmd list;   (** as generated *)
  c_shrunk : cmd list; (** locally minimal *)
  c_msg : string;
}

val minimize : fails:(cmd list -> bool) -> cmd list -> cmd list
(** Greedy removal to a locally minimal failing sequence; candidates
    must stay {!valid}. *)

val check :
  ?sabotage:string -> seeds:int list -> len:int -> unit ->
  counterexample option
(** Run one generated sequence per seed; on the first failure, shrink
    and report.  [None] means every sequence passed. *)
