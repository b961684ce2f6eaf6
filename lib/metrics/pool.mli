(** A fixed-size domain pool with a chunked work queue (OCaml 5 stdlib
    [Domain]/[Atomic], no external dependencies).

    The experiment suite is embarrassingly parallel — every loop is
    scheduled and simulated independently — so the pool only offers
    order-preserving bulk maps.  Worker functions must not share mutable
    state; everything in the scheduling pipeline is pure per loop.

    Failures are isolated per item: an application that raises never
    takes the other items down.  {!map_result} reports each item's fault
    to the caller; {!map} re-raises the first fault in input order as
    {!Fault}, preserving the failing item's index, the original
    exception and its backtrace (a bare re-raise after the domain join
    used to lose all three). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val clamp_jobs : int -> int
(** [clamp_jobs j] is the job count a request for [j] domains actually
    runs on: at least 1 and at most {!default_jobs} — the clamp every
    bulk map applies.  Callers that report a job count should report
    this, not the request. *)

type fault = {
  index : int;        (** position of the failing item in the input *)
  exn : exn;          (** the original exception *)
  backtrace : string; (** its backtrace, printed ([""] when recording
                          is off) *)
}

exception Fault of fault
(** What {!map} and {!filter_map} re-raise on a worker failure.  A
    printer is registered, so an uncaught [Fault] still names the item
    and the original exception. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs] domains
    ([default_jobs ()] when omitted; clamped to the input size and to
    {!default_jobs} — domains beyond the core count only add minor-GC
    synchronization overhead).  Results keep input order.  An effective
    job count of 1 runs sequentially in the calling domain.  If any
    application raises, the first fault in input order is re-raised as
    {!Fault} after all domains have joined — identically in the
    sequential and parallel paths. *)

val map_result :
  ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, fault) result list
(** Like {!map}, but no application failure escapes: each item's result
    is [Ok] or its captured fault, in input order.  The suite runner
    builds quarantine on this. *)

val filter_map : ?jobs:int -> ('a -> 'b option) -> 'a list -> 'b list
(** [filter_map ~jobs f xs] is [List.filter_map f xs] with the
    applications of [f] distributed like {!map}. *)

(** A persistent worker-domain pool with a result funnel.

    Where the bulk maps above run one batch and join, a [Service.t]
    stays up: the owner submits jobs as they arrive and polls finished
    results back, interleaved with its other work.  The serve daemon
    ({!Serve.serve_unix}) dispatches every cache miss here, so at
    [workers >= 1] health, stats and cache-hit requests keep answering
    while misses compute.

    Results come back in completion order, not submission order — each
    carries its original job so the owner can re-associate.  Job
    failures are captured as {!fault}s in the funnel (with the job's
    submission index), never re-raised inside a domain.  All functions
    are safe to call from the owning domain; [submit] after [shutdown]
    raises [Invalid_argument]. *)
module Service : sig
  type ('a, 'b) t
  (** A pool computing ['b] results from ['a] jobs. *)

  val create :
    ?on_result:(unit -> unit) ->
    workers:int ->
    (int -> 'a -> 'b) ->
    ('a, 'b) t
  (** [create ~workers f] spawns [workers] domains, each running
      [f worker_index job] under the pool's worker wrapper (enlarged
      minor heap; profile flush at domain exit).  At [workers <= 0] it
      spawns none: {!submit} runs [f 0 job] on the caller, under the
      same fault capture, and the result waits in the funnel like any
      other.  [on_result] fires after every completion, outside the
      pool lock and on the domain that ran the job — it must be
      async-safe cheap (the daemon writes one byte to a self-pipe to
      wake its [select]). *)

  val submit : ('a, 'b) t -> 'a -> unit
  (** Enqueue a job.  Never blocks on other jobs (the queue is
      unbounded — the daemon's admission bound is upstream); at width 0
      the job has run, and its result is pollable, when [submit]
      returns. *)

  val poll : ('a, 'b) t -> ('a * ('b, fault) result) list
  (** Drain all finished results, in completion order.  Never blocks. *)

  val has_results : ('a, 'b) t -> bool
  (** Whether {!poll} would return a non-empty list. *)

  val wait : ('a, 'b) t -> bool
  (** Block until the funnel has a result or nothing is in flight;
      [true] iff results are available.  Owner-side only; never blocks
      at width 0. *)

  val shutdown : ('a, 'b) t -> unit
  (** Stop accepting work, let workers finish jobs already queued, and
      join every domain.  Idempotent.  Results of those final jobs
      remain pollable after the join. *)
end
