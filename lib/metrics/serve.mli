(** The resilient scheduling service behind [repro serve] — a
    long-running daemon answering schedule requests over newline-delimited
    JSON, backed by the content-addressed {!Store}.

    {2 Shape}

    The module is two layers:

    {ul
    {- The {e engine} ({!t}): a deterministic, socket-free request
       processor.  Wire lines are admitted into a bounded queue of
       {e entries} (a JSON array line is one entry with many request
       slots, admitted atomically); {!pump} classifies admitted slots,
       coalesces identical in-flight misses, dispatches fresh misses to
       a {!Pool.Service} — a synchronous one at [workers = 0], a pool of
       worker domains otherwise — and returns finished reply lines.  Every
       effectful dependency — clock, sleep, logging — enters through the
       {!Io} seam, so the whole degradation ladder (overload shedding,
       budget timeouts, retry/backoff, poison quarantine, drain) is
       unit-testable with fakes and never sleeps in tests.}
    {- {!serve_unix}: a Unix-domain-socket select loop on top, owning
       accept/read/write, a self-pipe waking the loop on worker
       completions, SIGTERM/SIGINT drain and the final {!Store.save}.}}

    {2 Wire protocol}

    One JSON value per line, both directions (see docs/SERVING.md for
    the full field tables).  A request line is either one object
    carrying an ["op"] — ["schedule"] (mode tag + config name + inlined
    DDG + trip), ["health"], ["stats"], ["evict"] — or an array of such
    objects: a {e batch}, admitted atomically (all elements or none)
    and answered as one array line whose elements are byte-identical to
    the standalone replies in request order.  Replies always carry the
    request's ["id"] (when one could be parsed) and a ["status"]:
    ["ok"], ["give-up"], ["degraded"] (over budget), ["fault"],
    ["poisoned"], ["overloaded"], ["bad-request"].

    {2 Determinism and the equality gate}

    A successful reply is a pure function of (mode, config, DDG, trip):
    cache hits are fingerprint-confirmed ({!Store.lookup}), and replies
    deliberately exclude anything wall-clock- or provenance-dependent
    (no elapsed times, no hit/miss marker, timeouts reply with class
    only).  Hence the CI serve gate: cold daemon, warm daemon,
    restarted daemon and [--workers N] daemon replies are
    byte-identical to {!direct_reply}, which computes the same answer
    in the caller with no store at all.

    {2 Coalescing}

    Identical in-flight requests — same conviction key (mode x config
    cache key x structural DDG encoding x trip) and the same request
    budget fields — collapse onto one computation; every waiter's reply
    renders with its own request id,
    so coalesced replies are byte-identical to sequential ones.  Only
    the [stats] counters can tell the difference: [coalesced] counts
    attached waiters, [computes] counts computations actually started.
    A computation stays in flight until a {!pump} integrates its
    result, so identical slots classified in one pump coalesce at every
    worker count, [workers = 0] included.

    {2 Degradation ladder}

    {ul
    {- Queue full or draining → immediate ["overloaded"] reply; the
       request is never admitted.  A batch needs room for all its
       elements or it is shed whole (one array line of ["overloaded"]
       elements).}
    {- Per-request {!Sched.Budget} expiry → ["degraded"] with class
       ["timeout"]; never cached, never retried.}
    {- A raise or bug-class error → up to [retries] sequential
       re-attempts spaced by {!Backoff} (each worker retries its own
       jobs with its own backoff); if it still fails the request is
       answered ["fault"] and its key is {e poisoned}: subsequent
       identical requests answer ["poisoned"] without touching the
       scheduler.  One crashing request convicts only itself.}
    {- Corrupt request line → ["bad-request"]; corrupt on-disk store
       file → quarantined by {!Store} at load, daemon boots cold.}} *)

(** The effect seam: every way the engine touches the world outside its
    own state.  {!real} for the daemon, recording fakes for tests. *)
module Io : sig
  type t = {
    now : unit -> float;  (** seconds; feeds {!Sched.Budget}'s clock *)
    sleep : float -> unit;  (** feeds {!Backoff}'s pauses *)
    log : string -> unit;  (** one operational line, no trailing [\n] *)
  }

  val real : unit -> t
  (** [Unix.gettimeofday], [Unix.sleepf], and {!Log.line}. *)

  val silent : unit -> t
  (** Real clock, real sleep, logging dropped — for tests that only
      assert replies. *)
end

type limits = {
  queue_bound : int;
      (** admitted-but-unresolved request slots beyond which admission
          sheds (default 64); a batch counts one slot per element *)
  budget_s : float option;
      (** default per-request wall budget; a request's own [budget_s]
          field overrides (default [None], unlimited) *)
  budget_attempts : int option;  (** likewise for escalation attempts *)
  retries : int;
      (** re-attempts after a transient fault before convicting
          (default 2) *)
  workers : int;
      (** worker domains for miss computation (default 0: every miss
          computes on the engine's own domain, at submission) *)
}

val default_limits : limits

type t
(** A serve engine.  Owner-side calls ({!offer}, {!pump}, {!handle}, …)
    must come from one domain only (the select loop does); at
    [workers >= 1] computations run on pool domains and funnel back
    through {!pump}. *)

val create :
  ?io:Io.t ->
  ?limits:limits ->
  ?backoff:(int -> Backoff.t) ->
  ?poison:string list ->
  ?store_dir:string ->
  ?on_result:(unit -> unit) ->
  unit ->
  t
(** [io] defaults to {!Io.real}.  [backoff i] builds worker [i]'s
    private backoff, which spaces its transient-fault retries (default
    [Backoff.make ~seed:(i + 1) ~sleep:io.sleep ()] — a {!Backoff.t} is
    single-owner); at [workers = 0], worker 0 is the engine's own
    domain.  [poison] names loop ids whose schedule requests raise
    {!Experiment.Injected_fault} inside the computation — the
    fault-injection hook [repro serve --poison] exposes.  [store_dir]
    enables the disk tier: entries persisted by {!save} are served warm
    after a restart; a corrupt table file is quarantined at load
    ({!Store}), not fatal.  [on_result] fires after each computation
    finishes, on the domain that ran it — the daemon's select-loop
    wake-up ({!Pool.Service.create}). *)

val handle : t -> string -> string
(** Process one request line and return its reply line: the line is
    admitted without the queue bound (even while draining), then the
    engine is pumped until that entry is answered.  Other admitted
    entries advance too, but their replies stay for {!pump}.  A batch
    line answers one array line.  Never raises: malformed input answers
    ["bad-request"], a crashing computation answers ["fault"]. *)

val offer : t -> string -> string option
(** Admit a request line into the bounded queue: [None] = admitted (its
    reply line comes out of {!pump}); [Some reply] = shed — not enough
    queue room for the line's slots, or the engine is draining — and
    [reply] is the ["overloaded"] line to send back immediately. *)

val pump : t -> (int * string) list
(** Make progress without blocking: integrate finished worker results,
    classify admitted slots (answering what needs no computation,
    coalescing identical in-flight misses, dispatching fresh misses),
    and return the reply lines of entries that completed, as
    [(seq, reply_line)] in admission order; [seq] counts admissions
    from 0.  At [workers = 0] one call resolves everything admitted. *)

val pump_wait : t -> (int * string) list
(** {!pump}, but if nothing completed and unresolved entries remain,
    block on the worker funnel and pump again — for tests and in-process
    drivers; the daemon waits in [select] on its self-pipe instead. *)

val pending : t -> int
(** Admitted request slots not yet resolved (classification pending or
    computation in flight). *)

val busy : t -> bool
(** Whether any admitted entry has not yet been collected — the drain
    loop runs until [not (busy t)]. *)

val begin_drain : t -> unit
(** Stop admitting ({!offer} sheds everything); already-admitted
    requests still run to completion.  Idempotent. *)

val draining : t -> bool

val save : t -> unit
(** Persist the store's disk tier ({!Store.save}); no-op without
    [store_dir]. *)

val shutdown : t -> unit
(** Join the worker pool ({!Pool.Service.shutdown}): in-flight and
    queued computations finish first and remain integrable by {!pump}.
    Idempotent. *)

(** {1 Client-side codecs}

    Builders for request lines and the inline reference answer; [repro
    client] and the tests share them so both ends of the wire agree on
    the bytes. *)

val request :
  ?id:string ->
  ?budget_s:float ->
  ?budget_attempts:int ->
  mode:Experiment.mode ->
  config:Machine.Config.t ->
  Workload.Generator.loop ->
  string
(** The ["schedule"] request line for one loop.  [id] defaults to the
    loop id. *)

val batch_request : string list -> string
(** Combine request lines (as built by {!request} and friends) into one
    atomically-admitted batch line.  The reply is one array line whose
    elements are byte-identical to the standalone replies, in order. *)

val health_request : ?id:string -> unit -> string

val stats_request : ?id:string -> unit -> string

val evict_request :
  ?id:string ->
  mode:Experiment.mode ->
  config:Machine.Config.t ->
  Workload.Generator.loop ->
  string

val direct_reply :
  ?id:string ->
  ?budget_s:float ->
  ?budget_attempts:int ->
  mode:Experiment.mode ->
  config:Machine.Config.t ->
  Workload.Generator.loop ->
  string
(** The reply a daemon must produce for {!request} with the same
    arguments, computed in the caller with no store, no queue, no pool
    and no retries — the reference side of the serve equality gate
    ([repro client --local]). *)

(** {1 The daemon} *)

val serve_unix :
  ?limits:limits ->
  ?poison:string list ->
  ?store_dir:string ->
  socket:string ->
  unit ->
  int
(** Run the daemon, with {!Io.real} and the default backoffs, on a
    Unix-domain stream socket at [socket] (a stale socket file is
    unlinked first) until SIGTERM/SIGINT, then drain:
    admitted requests finish (worker computations included) and their
    replies flush, new work is shed, the worker pool is joined, the
    store is saved atomically, and the process result is [0].  Replies
    are delivered in admission order per client; across clients they
    interleave as computations finish, so health/stats/hit requests
    answer while misses compute.  Setup failures (e.g. the socket path
    cannot be bound) log one line and return
    {!Sched.Sched_error.exit_code} of a [Server] error (22).  SIGPIPE
    is ignored; a client that disconnects early loses only its own
    replies. *)
