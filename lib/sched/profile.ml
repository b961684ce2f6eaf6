(* Per-phase wall-clock and allocation accounting for the scheduling
   pipeline.

   Each domain accumulates into its own domain-local counters (no
   contention in the hot path) and merges them into the global totals
   when it leaves a pool — {!flush}, called by [Metrics.Pool] workers on
   exit and by {!seconds}/{!alloc_words} for the calling domain — so
   parallel suite runs report the sum over every domain, not just the
   reader's share.  Accounting is inclusive per outermost entry: a phase
   nested inside itself (e.g. the partitioner's refinement calling back
   into a partition entry point) is not double-counted, which a
   domain-local current-phase mark detects.  Time spent in a *different*
   phase nested under an instrumented one is charged to both; the only
   such nesting in the pipeline is the ordering pass inside placement,
   which is split at the call site instead.

   Alongside the timers each phase tracks Gc minor/major words allocated
   during its outermost entries ([Gc.quick_stat] deltas, so a phase's
   words include the sampling overhead — a few words per entry — and
   words allocated by a differently-phased nested region, mirroring the
   timer semantics).  The work counters are plain atomics: an event is
   one increment, rare next to the work it stands for.  The cache
   hit/miss/byte counters at the bottom are global and always on: the
   content-addressed schedule store ([Metrics.Store]) is consulted from
   the orchestrating domain only, so plain atomics suffice and no
   domain-local buffering is needed. *)

type phase = Partition | Ordering | Placement | Regalloc | Replication

let phases = [ Partition; Ordering; Placement; Regalloc; Replication ]

let index = function
  | Partition -> 0
  | Ordering -> 1
  | Placement -> 2
  | Regalloc -> 3
  | Replication -> 4

let name = function
  | Partition -> "partition"
  | Ordering -> "ordering"
  | Placement -> "placement"
  | Regalloc -> "regalloc"
  | Replication -> "replication"

let n_phases = List.length phases

(* Merged nanoseconds and allocated words per phase, across every
   flushed domain. *)
let acc = Array.init n_phases (fun _ -> Atomic.make 0)
let acc_minor = Array.init n_phases (fun _ -> Atomic.make 0)
let acc_major = Array.init n_phases (fun _ -> Atomic.make 0)
let enabled = ref false

(* Domain-local state: the phase currently running on this domain (to
   suppress nested re-entry) and this domain's unflushed counters. *)
type local = {
  mutable cur : int;
  ns : int array;
  minor : int array;
  major : int array;
}

let local : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        cur = -1;
        ns = Array.make n_phases 0;
        minor = Array.make n_phases 0;
        major = Array.make n_phases 0;
      })

type event = Partition_computed | Route_built

let event_index = function Partition_computed -> 0 | Route_built -> 1
let event_counts = Array.init 2 (fun _ -> Atomic.make 0)

(* Always-on global counters for the content-addressed schedule store. *)
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0
let cache_read = Atomic.make 0
let cache_written = Atomic.make 0

let reset () =
  Array.iter (fun a -> Atomic.set a 0) acc;
  Array.iter (fun a -> Atomic.set a 0) acc_minor;
  Array.iter (fun a -> Atomic.set a 0) acc_major;
  Array.iter (fun a -> Atomic.set a 0) event_counts;
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0;
  Atomic.set cache_read 0;
  Atomic.set cache_written 0;
  let l = Domain.DLS.get local in
  Array.fill l.ns 0 n_phases 0;
  Array.fill l.minor 0 n_phases 0;
  Array.fill l.major 0 n_phases 0

let set_enabled on =
  if on then reset ();
  enabled := on

let flush () =
  let l = Domain.DLS.get local in
  for i = 0 to n_phases - 1 do
    if l.ns.(i) <> 0 then begin
      ignore (Atomic.fetch_and_add acc.(i) l.ns.(i));
      l.ns.(i) <- 0
    end;
    if l.minor.(i) <> 0 then begin
      ignore (Atomic.fetch_and_add acc_minor.(i) l.minor.(i));
      l.minor.(i) <- 0
    end;
    if l.major.(i) <> 0 then begin
      ignore (Atomic.fetch_and_add acc_major.(i) l.major.(i));
      l.major.(i) <- 0
    end
  done

let time phase f =
  if not !enabled then f ()
  else begin
    let i = index phase in
    let l = Domain.DLS.get local in
    if l.cur = i then f ()
    else begin
      let outer = l.cur in
      l.cur <- i;
      let g0 = Gc.quick_stat () in
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Unix.gettimeofday () -. t0 in
          let g1 = Gc.quick_stat () in
          l.ns.(i) <- l.ns.(i) + int_of_float (dt *. 1e9);
          l.minor.(i) <-
            l.minor.(i) + int_of_float (g1.minor_words -. g0.minor_words);
          l.major.(i) <-
            l.major.(i) + int_of_float (g1.major_words -. g0.major_words);
          l.cur <- outer)
        f
    end
  end

let seconds phase =
  flush ();
  float_of_int (Atomic.get acc.(index phase)) /. 1e9

let alloc_words phase =
  flush ();
  let i = index phase in
  (Atomic.get acc_minor.(i), Atomic.get acc_major.(i))

let count e = if !enabled then Atomic.incr event_counts.(event_index e)
let events e = Atomic.get event_counts.(event_index e)

let cache_hit () = ignore (Atomic.fetch_and_add cache_hits 1)
let cache_miss () = ignore (Atomic.fetch_and_add cache_misses 1)

let cache_io ~read ~written =
  if read <> 0 then ignore (Atomic.fetch_and_add cache_read read);
  if written <> 0 then ignore (Atomic.fetch_and_add cache_written written)

let cache_counters () =
  [
    ("hits", Atomic.get cache_hits);
    ("misses", Atomic.get cache_misses);
    ("bytes_read", Atomic.get cache_read);
    ("bytes_written", Atomic.get cache_written);
  ]
