(* The serve engine ({!Metrics.Serve}): reply equality against the
   inline reference through every service path (cold, warm, post-evict,
   post-restart disk tier), the degradation ladder (overload shedding at
   the queue bound, budget timeouts, bad requests, fault + poison
   quarantine), the retry/backoff schedule under a recording fake sleep,
   drain semantics, and the health/stats counters.  All engine-level:
   no sockets, no real sleeps, no wall-clock dependence. *)

open Alcotest

let config = Option.get (Machine.Config.of_name "4c1b2l64r")
let base = Option.get (Metrics.Experiment.mode_of_tag "base")
let repl = Option.get (Metrics.Experiment.mode_of_tag "repl")

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let loops =
  lazy (take 5 (Workload.Generator.generate (Workload.Benchmark.find "tomcatv")))

let loop i = List.nth (Lazy.force loops) i

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_test_%d_%d" (Unix.getpid ()) !counter)

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> remove_dir dir) (fun () -> f dir)

(* every test drives a silent engine with a no-wait backoff unless it
   is specifically about the backoff schedule *)
let engine ?limits ?backoff ?poison ?store_dir () =
  let backoff =
    match backoff with Some b -> b | None -> Metrics.Backoff.none ()
  in
  Metrics.Serve.create
    ~io:(Metrics.Serve.Io.silent ())
    ?limits
    ~backoff:(fun _ -> backoff)
    ?poison ?store_dir ()

(* an engine of [workers] domains (0: the engine's own), silent, with a
   no-wait backoff per worker and a queue wide enough for batch bursts *)
let worker_engine ?(workers = 1) ?(queue_bound = 256) ?poison () =
  let limits =
    { Metrics.Serve.default_limits with workers; queue_bound }
  in
  Metrics.Serve.create
    ~io:(Metrics.Serve.Io.silent ())
    ~limits
    ~backoff:(fun _ -> Metrics.Backoff.none ())
    ?poison ()

(* pump (blocking on the worker funnel as needed) until every admitted
   entry has been collected; replies accumulate in completion order *)
let run_to_completion t =
  let out = ref [] in
  while Metrics.Serve.busy t do
    out := !out @ Metrics.Serve.pump_wait t
  done;
  !out

let in_admission_order replies =
  List.sort (fun (a, _) (b, _) -> compare a b) replies |> List.map snd

let request ?id ?budget_s ?budget_attempts ~mode i =
  Metrics.Serve.request ?id ?budget_s ?budget_attempts ~mode ~config (loop i)

let direct ?id ?budget_s ?budget_attempts ~mode i =
  Metrics.Serve.direct_reply ?id ?budget_s ?budget_attempts ~mode ~config
    (loop i)

let field name reply = Metrics.Json.(member name (parse reply))
let status reply = Metrics.Json.to_str (field "status" reply)
let count name reply = Metrics.Json.to_int (field name reply)

(* ------------------------------------------------------------------ *)
(* Reply equality: cold, warm, evict, restart                           *)
(* ------------------------------------------------------------------ *)

let test_cold_warm_equal_direct () =
  let t = engine () in
  List.iter
    (fun mode ->
      List.iter
        (fun i ->
          let reference = direct ~mode i in
          check string "cold reply equals direct" reference
            (Metrics.Serve.handle t (request ~mode i));
          check string "warm reply equals cold" reference
            (Metrics.Serve.handle t (request ~mode i)))
        [ 0; 1 ])
    [ base; repl ]

(* The daemon records each run it computes as it was computed, routed;
   the store's memory tier keeps it unrouted, and rebuilds the same
   routed graph on read.  Replies served from that tier stay
   byte-equal to the inline reference. *)
let test_memory_tier_keeps_runs_unrouted () =
  let routing (r : Metrics.Experiment.loop_run) =
    match r.outcome.Sched.Driver.schedule.Sched.Schedule.routing with
    | Sched.Schedule.Routed _ -> "routed"
    | Sched.Schedule.Unrouted _ -> "unrouted"
  in
  let routed_graph (r : Metrics.Experiment.loop_run) =
    let route = Sched.Schedule.route r.outcome.Sched.Driver.schedule in
    let g = route.Sched.Route.graph in
    ( Ddg.Graph.structural_encoding g,
      List.map (Ddg.Graph.label g) (Ddg.Graph.nodes g),
      Array.to_list route.Sched.Route.assign )
  in
  let store = Metrics.Store.create () in
  let t = engine () in
  List.iter
    (fun mode ->
      List.iter
        (fun i ->
          match Metrics.Experiment.run_loop mode config (loop i) with
          | Error e -> failf "run: %s" (Sched.Sched_error.to_string e)
          | Ok r -> (
              check string "computed" "routed" (routing r);
              Metrics.Store.record store ~mode ~config (loop i) (Ok r);
              (match Metrics.Store.lookup store ~mode ~config (loop i) with
              | Metrics.Store.Hit kept ->
                  check string "kept" "unrouted" (routing kept);
                  check bool "kept run routes as computed" true
                    (routed_graph kept = routed_graph r)
              | Metrics.Store.Hit_give_up _ | Metrics.Store.Miss ->
                  fail "recorded run not served");
              let reference = direct ~mode i in
              check string "cold reply equals direct" reference
                (Metrics.Serve.handle t (request ~mode i));
              check string "reply from the memory tier equals direct"
                reference
                (Metrics.Serve.handle t (request ~mode i))))
        [ 2; 3 ])
    [ base; repl ]

let test_evict_then_recompute () =
  let t = engine () in
  let cold = Metrics.Serve.handle t (request ~mode:repl 0) in
  check string "evict acks with fixed bytes"
    (Metrics.Json.print
       (Metrics.Json.Obj
          [
            ("id", Metrics.Json.Str "e");
            ("status", Metrics.Json.Str "ok");
            ("role", Metrics.Json.Str "evict");
          ]))
    (Metrics.Serve.handle t
       (Metrics.Serve.evict_request ~id:"e" ~mode:repl ~config (loop 0)));
  check string "recompute after evict equals cold" cold
    (Metrics.Serve.handle t (request ~mode:repl 0));
  let stats = Metrics.Serve.handle t (Metrics.Serve.stats_request ()) in
  check int "one eviction counted" 1 (count "evictions" stats);
  check int "evicted entry recomputed as a miss" 2 (count "misses" stats)

let test_restart_serves_disk_tier () =
  with_dir @@ fun dir ->
  let t1 = engine ~store_dir:dir () in
  let cold =
    List.map (fun i -> Metrics.Serve.handle t1 (request ~mode:repl i)) [ 0; 1 ]
  in
  Metrics.Serve.save t1;
  let t2 = engine ~store_dir:dir () in
  let warm =
    List.map (fun i -> Metrics.Serve.handle t2 (request ~mode:repl i)) [ 0; 1 ]
  in
  check (list string) "restarted replies byte-identical" cold warm;
  let stats = Metrics.Serve.handle t2 (Metrics.Serve.stats_request ()) in
  check int "restarted engine recomputed nothing" 0 (count "misses" stats);
  check int "restarted engine served from the store" 2 (count "hits" stats)

(* ------------------------------------------------------------------ *)
(* Backpressure and drain                                               *)
(* ------------------------------------------------------------------ *)

let test_queue_bound_sheds () =
  let limits = { Metrics.Serve.default_limits with queue_bound = 2 } in
  let t = engine ~limits () in
  let lines = List.map (fun i -> request ~mode:base i) [ 0; 1; 2 ] in
  (match List.map (Metrics.Serve.offer t) lines with
  | [ None; None; Some shed ] ->
      check string "excess load answered overloaded" "overloaded" (status shed);
      check string "shed reply carries the request id" (loop 2).Workload.Generator.id
        (Metrics.Json.to_str (field "id" shed))
  | _ -> failf "queue bound 2 did not admit exactly 2 of 3");
  check int "pending counts the admitted requests" 2 (Metrics.Serve.pending t);
  (* [handle] admits past the bound and answers its own line alone,
     leaving the admitted entries for the pump *)
  check string "handle answers past a full queue" (direct ~mode:base 2)
    (Metrics.Serve.handle t (List.nth lines 2));
  check bool "handle leaves the admitted entries queued" true
    (Metrics.Serve.busy t);
  (* admission order is reply order, by sequence number, and queued
     service still matches the inline reference *)
  check
    (list (pair int string))
    "pump answers the admitted entries in admission order"
    [ (0, direct ~mode:base 0); (1, direct ~mode:base 1) ]
    (run_to_completion t);
  check int "nothing pending after the pump" 0 (Metrics.Serve.pending t);
  (* the shed made room: the queue admits again *)
  check bool "freed queue admits again" true
    (Metrics.Serve.offer t (List.nth lines 2) = None)

let test_drain_sheds_but_finishes_admitted () =
  let t = engine () in
  let line = request ~mode:base 0 in
  check bool "pre-drain offer admitted" true (Metrics.Serve.offer t line = None);
  check bool "not draining yet" false (Metrics.Serve.draining t);
  Metrics.Serve.begin_drain t;
  check bool "draining" true (Metrics.Serve.draining t);
  (match Metrics.Serve.offer t (request ~mode:base 1) with
  | Some shed -> check string "drain sheds new work" "overloaded" (status shed)
  | None -> failf "draining engine admitted new work");
  check (list string) "admitted request still finishes across the drain"
    [ direct ~mode:base 0 ]
    (in_admission_order (run_to_completion t))

(* ------------------------------------------------------------------ *)
(* Degradation: budgets, bad requests, faults, poison                   *)
(* ------------------------------------------------------------------ *)

let test_budget_degrades_to_timeout () =
  let t = engine () in
  let reply = Metrics.Serve.handle t (request ~budget_attempts:0 ~mode:repl 2) in
  check string "over-budget request degrades" "degraded" (status reply);
  check string "degradation class is timeout" "timeout"
    (Metrics.Json.to_str (field "class" reply));
  check string "timeout replies are wall-clock-free, hence reproducible"
    (direct ~budget_attempts:0 ~mode:repl 2) reply;
  (* a server-default budget degrades the same way *)
  let strict =
    engine
      ~limits:
        { Metrics.Serve.default_limits with budget_attempts = Some 0 }
      ()
  in
  check string "server-wide budget default applies" "degraded"
    (status (Metrics.Serve.handle strict (request ~mode:repl 2)));
  (* timeouts are never cached: lifting the budget recomputes a full
     reply equal to the reference *)
  check string "lifting the budget recovers the real answer"
    (direct ~mode:repl 2)
    (Metrics.Serve.handle t (request ~mode:repl 2))

let test_bad_requests () =
  let t = engine () in
  List.iter
    (fun line ->
      check string
        (Printf.sprintf "%S answers bad-request" line)
        "bad-request"
        (status (Metrics.Serve.handle t line)))
    [
      "";
      "not json at all";
      "{\"op\":\"schedule\",\"id\":\"torn";
      "{\"op\":\"no-such-op\",\"id\":\"x\"}";
      "{\"op\":\"schedule\",\"id\":\"x\",\"mode\":\"warp\",\"config\":\"4c1b2l64r\"}";
    ];
  let reply =
    Metrics.Serve.handle t "{\"op\":\"no-such-op\",\"id\":\"keepme\"}"
  in
  check string "a parseable id survives into the reply" "keepme"
    (Metrics.Json.to_str (field "id" reply));
  (* Loop fields no loop can have are the request's fault, not the
     scheduler's: each answers bad-request under its own id, however
     often it is sent, and is never convicted. *)
  let open Metrics.Json in
  let patch_loop id f =
    match parse (request ~id ~mode:base 0) with
    | Obj fields ->
        print
          (Obj
             (List.map
                (function
                  | "loop", Obj loop -> ("loop", Obj (f loop)) | field -> field)
                fields))
    | _ -> failf "a request is not an object"
  in
  let set k v loop =
    List.map (fun (k', v') -> (k', if k' = k then v else v')) loop
  in
  let edges f loop =
    match List.assoc "graph" loop with
    | Obj graph ->
        let edges = to_list (List.assoc "edges" graph) in
        set "graph" (Obj (set "edges" (List (f edges)) graph)) loop
    | _ -> failf "a request graph is not an object"
  in
  let to_nowhere = List [ Num 0.; Num 999.; Num 1.; Num 0.; Str "r" ] in
  let first_latency lat = function
    | List [ s; d; _; dist; (Str "r" as k) ] :: rest ->
        List [ s; d; Num lat; dist; k ] :: rest
    | _ -> failf "the request graph has no leading register edge"
  in
  List.iter
    (fun (id, f) ->
      let line = patch_loop id f in
      List.iter
        (fun _ ->
          let reply = Metrics.Serve.handle t line in
          check string (id ^ " answers bad-request") "bad-request"
            (status reply);
          check string (id ^ " keeps its id") id (to_str (field "id" reply)))
        [ 1; 2 ])
    [
      ("trip-1e300", set "trip" (Num 1e300));
      ("trip-0", set "trip" (Num 0.));
      ("trip-negative", set "trip" (Num (-1.)));
      ("edge-to-nowhere", edges (List.cons to_nowhere));
      ("negative-latency", edges (first_latency (-1.)));
    ];
  let stats = Metrics.Serve.handle t (Metrics.Serve.stats_request ()) in
  check int "no bad loop counted as a fault" 0 (count "faults" stats);
  check int "no bad loop convicted" 0 (count "poisoned" stats);
  (* bad lines hurt only themselves *)
  check string "the engine still serves after bad input"
    (direct ~mode:base 0)
    (Metrics.Serve.handle t (request ~mode:base 0))

let test_fault_retries_backoff_then_poisons () =
  let slept = ref [] in
  let backoff =
    Metrics.Backoff.make ~base_s:0.05 ~factor:2.0 ~jitter:0.0
      ~sleep:(fun d -> slept := d :: !slept)
      ()
  in
  let victim = (loop 3).Workload.Generator.id in
  let t = engine ~backoff ~poison:[ victim ] () in
  let fault = Metrics.Serve.handle t (request ~mode:base 3) in
  check string "crashing request answers fault" "fault" (status fault);
  (* default limits allow 2 retries: attempts 0 and 1 each paused by the
     exact jitter-free exponential before conviction *)
  check (list (float 1e-9)) "retry pauses follow the backoff schedule"
    [ 0.05; 0.1 ] (List.rev !slept);
  let again = Metrics.Serve.handle t (request ~mode:base 3) in
  check string "repeat offender is quarantined" "poisoned" (status again);
  check (list (float 1e-9)) "quarantine never re-runs, so never sleeps"
    [ 0.05; 0.1 ] (List.rev !slept);
  (* conviction is per-key: the same loop under another mode crashes on
     its own (fault, not poisoned), and healthy loops are untouched *)
  check string "other keys convict independently" "fault"
    (status (Metrics.Serve.handle t (request ~mode:repl 3)));
  check string "healthy request unaffected by the quarantine"
    (direct ~mode:base 0)
    (Metrics.Serve.handle t (request ~mode:base 0));
  let stats = Metrics.Serve.handle t (Metrics.Serve.stats_request ()) in
  check int "both convictions counted" 2 (count "faults" stats);
  check int "quarantined answer counted" 1 (count "poisoned" stats);
  check int "every retry counted" 4 (count "retries" stats)

(* ------------------------------------------------------------------ *)
(* Health and stats                                                     *)
(* ------------------------------------------------------------------ *)

let test_health () =
  let t = engine () in
  let reply = Metrics.Serve.handle t (Metrics.Serve.health_request ~id:"h" ()) in
  check string "health is ok" "ok" (status reply);
  check string "health names its role" "health"
    (Metrics.Json.to_str (field "role" reply));
  check string "health echoes the id" "h"
    (Metrics.Json.to_str (field "id" reply));
  check int "nothing pending" 0 (count "pending" reply);
  check bool "not draining" false
    (Metrics.Json.parse reply |> Metrics.Json.member "draining"
     = Metrics.Json.Bool true);
  check string "health pins the scheduler version" Sched.Driver.version
    (Metrics.Json.to_str (field "version" reply))

let test_stats_counters () =
  let t = engine () in
  ignore (Metrics.Serve.handle t (request ~mode:base 0));
  ignore (Metrics.Serve.handle t (request ~mode:base 0));
  ignore (Metrics.Serve.handle t "garbage");
  ignore (Metrics.Serve.handle t (request ~budget_attempts:0 ~mode:base 1));
  let reply = Metrics.Serve.handle t (Metrics.Serve.stats_request ()) in
  check string "stats is ok" "ok" (status reply);
  (* served = answered with a full schedule; the timed-out request is
     counted under timeouts (and its store miss under misses) instead *)
  check int "served counts full answers" 2 (count "served" reply);
  check int "one warm hit" 1 (count "hits" reply);
  check int "cold and timed-out requests both missed" 2 (count "misses" reply);
  check int "one timeout" 1 (count "timeouts" reply);
  check int "one bad request" 1 (count "bad_requests" reply);
  check int "no faults" 0 (count "faults" reply);
  let store = field "store" reply in
  check int "store hit counter agrees" 1
    (Metrics.Json.to_int (Metrics.Json.member "hits" store))

(* ------------------------------------------------------------------ *)
(* Batching, coalescing and the worker pool                             *)
(* ------------------------------------------------------------------ *)

(* At every worker count, the engine's own domain included: identical
   slots classified in one pump share one computation. *)
let test_batch_coalesces_to_one_compute () =
  let n = 100 in
  List.iter
    (fun workers ->
      let t = worker_engine ~workers () in
      Fun.protect ~finally:(fun () -> Metrics.Serve.shutdown t) @@ fun () ->
      let at what = Printf.sprintf "%s (workers %d)" what workers in
      let batch =
        Metrics.Serve.batch_request
          (List.init n (fun _ -> request ~mode:repl 0))
      in
      check bool (at "batch admitted atomically") true
        (Metrics.Serve.offer t batch = None);
      (match run_to_completion t with
      | [ (_, reply) ] ->
          check string
            (at "burst replies byte-identical to the inline reference")
            (Metrics.Serve.batch_request
               (List.init n (fun _ -> direct ~mode:repl 0)))
            reply
      | rs -> failf "batch answered %d lines, wanted 1" (List.length rs));
      let stats = Metrics.Serve.handle t (Metrics.Serve.stats_request ()) in
      check int (at "exactly one computation ran") 1 (count "computes" stats);
      check int (at "every other request coalesced onto it") (n - 1)
        (count "coalesced" stats);
      check int (at "no request was a store hit") 0 (count "hits" stats);
      check int (at "every slot was a store miss") n (count "misses" stats);
      check int (at "one batch admitted") 1 (count "batches" stats);
      check int (at "every waiter was served") n (count "served" stats))
    [ 0; 1 ]

let test_worker_counts_agree_bytewise () =
  let victims = List.map (fun i -> (loop i).Workload.Generator.id) [ 3; 4 ] in
  (* mixed workload: two plain misses, a poisoned crasher, a budget
     timeout, a batch line repeating a second crasher and one pairing a
     zero-attempt budget with a plain request for the same loop — then a
     second wave re-hitting all three degradation outcomes once the
     first wave's convictions have settled *)
  let repeated_crash =
    Metrics.Serve.batch_request [ request ~mode:base 4; request ~mode:base 4 ]
  and mixed_budgets =
    Metrics.Serve.batch_request
      [ request ~budget_attempts:0 ~mode:base 2; request ~mode:base 2 ]
  in
  let wave1 () =
    [
      request ~mode:repl 0;
      request ~mode:repl 1;
      request ~mode:base 3;
      request ~budget_attempts:0 ~mode:repl 2;
      repeated_crash;
      mixed_budgets;
    ]
  and wave2 () =
    [
      request ~mode:repl 0;
      request ~mode:base 3;
      request ~budget_attempts:0 ~mode:repl 2;
    ]
  in
  let run workers =
    let t = worker_engine ~workers ~poison:victims () in
    Fun.protect ~finally:(fun () -> Metrics.Serve.shutdown t) @@ fun () ->
    let wave lines =
      List.iter
        (fun l ->
          match Metrics.Serve.offer t l with
          | None -> ()
          | Some shed -> failf "request shed unexpectedly: %s" shed)
        lines;
      in_admission_order (run_to_completion t)
    in
    wave (wave1 ()) @ wave (wave2 ())
  in
  let reference = run 0 in
  (* the repeat coalesces onto the first crash, at workers 0 too: both
     elements answer the one computation's fault *)
  check (list string) "a repeated crash in one batch faults twice"
    [ "fault"; "fault" ]
    (List.map
       (fun el -> Metrics.Json.(to_str (member "status" el)))
       (Metrics.Json.to_list (Metrics.Json.parse (List.nth reference 4))));
  (* a request never shares a computation run under another budget *)
  check string "each budget answers its own direct reply"
    (Metrics.Serve.batch_request
       [ direct ~budget_attempts:0 ~mode:base 2; direct ~mode:base 2 ])
    (List.nth reference 5);
  List.iter
    (fun w ->
      check (list string)
        (Printf.sprintf "--workers %d replies byte-equal workers 0" w)
        reference (run w))
    [ 1; 4 ]

let test_drain_finishes_worker_inflight () =
  let t = worker_engine ~workers:2 () in
  Fun.protect ~finally:(fun () -> Metrics.Serve.shutdown t) @@ fun () ->
  let lines = [ request ~mode:repl 0; request ~mode:repl 1 ] in
  List.iter
    (fun l ->
      check bool "pre-drain offer admitted" true
        (Metrics.Serve.offer t l = None))
    lines;
  Metrics.Serve.begin_drain t;
  check (list string) "admitted misses finish across the drain"
    [ direct ~mode:repl 0; direct ~mode:repl 1 ]
    (in_admission_order (run_to_completion t));
  match Metrics.Serve.offer t (request ~mode:repl 2) with
  | Some shed ->
      check string "draining sheds new work" "overloaded" (status shed)
  | None -> failf "draining engine admitted new work"

let suite =
  [
    test_case "cold and warm replies equal the inline reference" `Slow
      test_cold_warm_equal_direct;
    test_case "the memory tier keeps runs unrouted" `Quick
      test_memory_tier_keeps_runs_unrouted;
    test_case "evict acks and recomputes to the same bytes" `Quick
      test_evict_then_recompute;
    test_case "restart serves the disk tier byte-identically" `Quick
      test_restart_serves_disk_tier;
    test_case "queue bound sheds, admission order is reply order" `Quick
      test_queue_bound_sheds;
    test_case "drain sheds new work, finishes admitted work" `Quick
      test_drain_sheds_but_finishes_admitted;
    test_case "budget expiry degrades to a timeout reply" `Quick
      test_budget_degrades_to_timeout;
    test_case "bad requests answer bad-request and hurt only themselves"
      `Quick test_bad_requests;
    test_case "faults retry on the backoff schedule, then poison" `Quick
      test_fault_retries_backoff_then_poisons;
    test_case "health reply" `Quick test_health;
    test_case "stats counters" `Quick test_stats_counters;
    test_case "a batched burst coalesces onto one computation" `Quick
      test_batch_coalesces_to_one_compute;
    test_case "worker counts 0/1/4 answer byte-identically" `Slow
      test_worker_counts_agree_bytewise;
    test_case "drain finishes worker in-flight computations" `Quick
      test_drain_finishes_worker_inflight;
  ]
