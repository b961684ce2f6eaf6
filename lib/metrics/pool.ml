(* Fixed-size domain pool (OCaml 5 stdlib only).

   Work is a chunked queue over an input array: workers claim contiguous
   index ranges with a single atomic fetch-and-add, so contention is one
   atomic operation per chunk rather than per item, while chunks small
   enough (at most [n / (jobs * chunk_divisor)]) keep the tail balanced
   when item costs vary by orders of magnitude, as loop schedules do.

   Each worker writes only its own claimed cells of the result array, so
   there are no data races; the caller reads the array after joining
   every domain.

   Exceptions are captured per item, with the raw backtrace, where they
   happen — never re-raised inside a worker.  [map_result] hands the
   per-item faults to the caller (the suite's quarantine machinery);
   [map] re-raises the first fault in input order, wrapped in {!Fault}
   so the failing item's index and backtrace survive the domain join. *)

let chunk_divisor = 8

(* Chunks are additionally capped so an 8-domain run over a few hundred
   items still re-balances its tail: with heavy-tailed item costs one
   oversized chunk can serialize the end of the run (docs/ALGORITHMS.md,
   "Pool scaling"). *)
let max_chunk = 24

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let clamp_jobs j = max 1 (min j (default_jobs ()))

(* Every spawned worker runs under this wrapper: a larger minor heap
   (minor collections are stop-the-world synchronizations across all
   domains in OCaml 5, so fewer of them is what makes the 2->8 domain
   curve scale) and a profile flush on the way out, so per-phase timers
   accumulated on this domain are merged before the join. *)
let worker_minor_words = 1 lsl 21

let in_worker f =
  (try
     let g = Gc.get () in
     if g.Gc.minor_heap_size < worker_minor_words then
       Gc.set { g with Gc.minor_heap_size = worker_minor_words }
   with _ -> ());
  Fun.protect ~finally:Sched.Profile.flush f

(* Backtrace recording is per domain, and a spawned domain does not
   inherit the spawner's setting: carry it over, so a captured fault has
   its backtrace whichever domain ran the item. *)
let spawn_worker f =
  let backtraces = Printexc.backtrace_status () in
  Domain.spawn (fun () ->
      Printexc.record_backtrace backtraces;
      f ())

type fault = { index : int; exn : exn; backtrace : string }

exception Fault of fault

let () =
  Printexc.register_printer (function
    | Fault f ->
        Some
          (Printf.sprintf "Pool.Fault(item %d: %s)%s" f.index
             (Printexc.to_string f.exn)
             (if f.backtrace = "" then ""
              else "\nOriginal backtrace:\n" ^ f.backtrace))
    | _ -> None)

(* The one-domain path: a plain loop on the calling domain.  When
   [clamp_jobs] clamps a request to 1 (single-core hosts, or a request
   of 1), the pool must behave exactly like no pool at all — no domain
   spawns, no chunk queue, no worker Gc resizing, no atomic traffic —
   so a clamped "parallel" run carries zero orchestration overhead over
   the sequential one. *)
let run_sequential eval n =
  for i = 0 to n - 1 do
    eval i
  done

(* More domains than the machine has cores buys nothing for this
   CPU-bound work and costs real time in minor-GC synchronization, so
   an explicit [jobs] is capped at the recommended domain count. *)
let run_domains eval ~jobs n =
  let chunk = max 1 (min max_chunk (n / (jobs * chunk_divisor))) in
  let next = Atomic.make 0 in
  let worker () =
    in_worker @@ fun () ->
    let rec go () =
      let start = Atomic.fetch_and_add next chunk in
      if start < n then begin
        let stop = min n (start + chunk) in
        for i = start to stop - 1 do
          eval i
        done;
        go ()
      end
    in
    go ()
  in
  let domains = List.init (jobs - 1) (fun _ -> spawn_worker worker) in
  worker ();
  List.iter Domain.join domains

(* Apply [f] to every element, capturing per-item failures with their
   raw backtraces (kept raw so a re-raise can preserve them). *)
let run_all ?jobs f input =
  let n = Array.length input in
  let jobs =
    match jobs with
    | Some j -> max 1 (min (clamp_jobs j) n)
    | None -> min (default_jobs ()) n
  in
  let results :
      ('b, exn * Printexc.raw_backtrace) result option array =
    Array.make n None
  in
  let eval i =
    results.(i) <-
      Some
        (match f input.(i) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  if jobs <= 1 then run_sequential eval n else run_domains eval ~jobs n;
  results

let fault_of index (e, raw) =
  { index; exn = e; backtrace = Printexc.raw_backtrace_to_string raw }

let map_result ?jobs f xs =
  let input = Array.of_list xs in
  let results = run_all ?jobs f input in
  List.mapi
    (fun i _ ->
      match results.(i) with
      | Some (Ok v) -> Ok v
      | Some (Error err) -> Error (fault_of i err)
      | None -> assert false)
    xs

let map ?jobs f xs =
  let input = Array.of_list xs in
  let results = run_all ?jobs f input in
  (* Re-raise the first failure in input order, as sequential List.map
     would have surfaced it — wrapped so the item index and the original
     backtrace survive the join. *)
  Array.iteri
    (fun i cell ->
      match cell with
      | Some (Error ((_, raw) as err)) ->
          Printexc.raise_with_backtrace (Fault (fault_of i err)) raw
      | Some (Ok _) | None -> ())
    results;
  Array.to_list
    (Array.map
       (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
       results)

let filter_map ?jobs f xs = List.filter_map Fun.id (map ?jobs f xs)

(* ------------------------------------------------------------------ *)
(* Service: a persistent worker-domain pool with a result funnel       *)
(* ------------------------------------------------------------------ *)

(* Unlike the bulk maps above, a [Service.t] outlives any one batch of
   work: the serve daemon submits cache misses as they arrive and polls
   finished results back on its select loop, so cheap requests keep
   answering while expensive ones compute.  Jobs and results move
   through two mutex-guarded queues; [on_result] fires outside the lock
   after every completion so the owner can wake its event loop (the
   daemon writes a self-pipe byte).  Worker failures are captured as
   {!fault}s in the funnel, never re-raised inside a domain. *)
module Service = struct
  type ('a, 'b) t = {
    m : Mutex.t;
    work : Condition.t;  (* signalled on submit and on shutdown *)
    idle : Condition.t;  (* signalled on every completion *)
    jobs : (int * 'a) Queue.t;
    results : ('a * ('b, fault) result) Queue.t;
    mutable submitted : int;
    mutable completed : int;
    mutable stopping : bool;
    mutable domains : unit Domain.t list;
    width : int;
    on_result : unit -> unit;
  }

  let create ?(on_result = fun () -> ()) ~workers f =
    let width = max 1 workers in
    let t =
      {
        m = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        jobs = Queue.create ();
        results = Queue.create ();
        submitted = 0;
        completed = 0;
        stopping = false;
        domains = [];
        width;
        on_result;
      }
    in
    let body widx () =
      let rec loop () =
        Mutex.lock t.m;
        while (not t.stopping) && Queue.is_empty t.jobs do
          Condition.wait t.work t.m
        done;
        match Queue.take_opt t.jobs with
        | None ->
            (* stopping with an empty queue: exit *)
            Mutex.unlock t.m
        | Some (ix, job) ->
            Mutex.unlock t.m;
            let res =
              match f widx job with
              | v -> Ok v
              | exception e ->
                  Error
                    {
                      index = ix;
                      exn = e;
                      backtrace =
                        Printexc.raw_backtrace_to_string
                          (Printexc.get_raw_backtrace ());
                    }
            in
            Mutex.lock t.m;
            Queue.add (job, res) t.results;
            t.completed <- t.completed + 1;
            Condition.broadcast t.idle;
            Mutex.unlock t.m;
            t.on_result ();
            loop ()
      in
      loop ()
    in
    t.domains <-
      List.init width (fun i ->
          spawn_worker (fun () -> in_worker (body i)));
    t

  let width t = t.width

  let submit t job =
    Mutex.lock t.m;
    if t.stopping then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.Service.submit: service is shut down"
    end
    else begin
      Queue.add (t.submitted, job) t.jobs;
      t.submitted <- t.submitted + 1;
      Condition.signal t.work;
      Mutex.unlock t.m
    end

  let poll t =
    Mutex.lock t.m;
    let out =
      Queue.fold (fun acc r -> r :: acc) [] t.results |> List.rev
    in
    Queue.clear t.results;
    Mutex.unlock t.m;
    out

  let in_flight t =
    Mutex.lock t.m;
    let n = t.submitted - t.completed in
    Mutex.unlock t.m;
    n

  let has_results t =
    Mutex.lock t.m;
    let b = not (Queue.is_empty t.results) in
    Mutex.unlock t.m;
    b

  (* Block until a result is pollable or nothing is in flight; [true]
     iff the funnel has results.  The owner's "nothing else to do"
     path — never called from a worker. *)
  let wait t =
    Mutex.lock t.m;
    while Queue.is_empty t.results && t.submitted > t.completed do
      Condition.wait t.idle t.m
    done;
    let b = not (Queue.is_empty t.results) in
    Mutex.unlock t.m;
    b

  let shutdown t =
    Mutex.lock t.m;
    if not t.stopping then begin
      t.stopping <- true;
      Condition.broadcast t.work
    end;
    Mutex.unlock t.m;
    List.iter Domain.join t.domains;
    t.domains <- []
end
