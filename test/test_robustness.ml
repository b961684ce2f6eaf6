(* The fault-isolation layer: pool fault capture, escalation budgets,
   error classification, quarantine, and resume through the schedule
   store. *)

open Alcotest

let config4c = Option.get (Machine.Config.of_name "4c1b2l64r")

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let tomcatv_loops =
  lazy (take 4 (Workload.Generator.generate (Workload.Benchmark.find "tomcatv")))

(* ------------------------------------------------------------------ *)
(* Pool fault capture                                                   *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_pool_fault_metadata () =
  Printexc.record_backtrace true;
  List.iter
    (fun jobs ->
      match
        Metrics.Pool.map ~jobs
          (fun x -> if x mod 5 = 3 then raise (Boom x) else x)
          (List.init 16 Fun.id)
      with
      | _ -> failf "jobs=%d: expected Fault" jobs
      | exception Metrics.Pool.Fault f ->
          check int (Printf.sprintf "jobs=%d index" jobs) 3 f.Metrics.Pool.index;
          (match f.Metrics.Pool.exn with
          | Boom 3 -> ()
          | e -> failf "jobs=%d: wrong exn %s" jobs (Printexc.to_string e));
          check bool
            (Printf.sprintf "jobs=%d backtrace captured" jobs)
            true
            (String.length f.Metrics.Pool.backtrace > 0))
    [ 1; 2 ]

let test_pool_map_result () =
  List.iter
    (fun jobs ->
      let results =
        Metrics.Pool.map_result ~jobs
          (fun x -> if x mod 2 = 0 then x * 10 else raise (Boom x))
          [ 0; 1; 2; 3 ]
      in
      match results with
      | [ Ok 0; Error f1; Ok 20; Error f3 ] ->
          check int "first fault index" 1 f1.Metrics.Pool.index;
          check int "second fault index" 3 f3.Metrics.Pool.index
      | _ -> failf "jobs=%d: unexpected shape" jobs)
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Budgets                                                              *)
(* ------------------------------------------------------------------ *)

let test_budget_attempts () =
  let g = Ddg.Examples.figure3 () in
  let budget = Sched.Budget.make ~max_attempts:0 () in
  match Sched.Driver.schedule_loop ~budget config4c g with
  | Ok _ -> fail "expected timeout"
  | Error (Sched.Sched_error.Timeout { at_ii; attempts; _ }) ->
      check int "stopped before the first attempt" 0 attempts;
      check bool "at the MII level" true (at_ii >= 1)
  | Error e -> failf "unexpected class %s" (Sched.Sched_error.class_name e)

let test_budget_fake_clock () =
  (* an injected clock that jumps 10 s per reading trips a 5 s budget at
     the first level, deterministically *)
  let t = ref 0. in
  let clock () =
    t := !t +. 10.;
    !t
  in
  let budget = Sched.Budget.make ~wall_seconds:5. ~clock () in
  let g = Ddg.Examples.figure3 () in
  match Sched.Driver.schedule_loop ~budget config4c g with
  | Ok _ -> fail "expected timeout"
  | Error (Sched.Sched_error.Timeout { elapsed_s; _ }) ->
      check bool "elapsed measured" true (elapsed_s > 5.)
  | Error e -> failf "unexpected class %s" (Sched.Sched_error.class_name e)

let test_budget_generous_is_ok () =
  let g = Ddg.Examples.figure3 () in
  let budget = Sched.Budget.make ~wall_seconds:3600. ~max_attempts:10_000 () in
  match Sched.Driver.schedule_loop ~budget config4c g with
  | Ok _ -> ()
  | Error e -> failf "unexpected failure: %s" (Sched.Sched_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Error classification                                                 *)
(* ------------------------------------------------------------------ *)

let test_internal_from_raising_transform () =
  let g = Ddg.Examples.figure3 () in
  let bomb _config _g ~assign:_ ~ii:_ = failwith "kaboom" in
  match Sched.Driver.schedule_loop ~transform:bomb config4c g with
  | Ok _ -> fail "expected failure"
  | Error (Sched.Sched_error.Internal msg) ->
      check bool "carries the message" true
        (Metrics.Experiment.contains msg ~sub:"kaboom")
  | Error e -> failf "unexpected class %s" (Sched.Sched_error.class_name e)

let test_exit_codes_stable () =
  let open Sched.Sched_error in
  List.iter
    (fun (e, code, bug, give_up) ->
      check int (class_name e ^ " exit code") code (exit_code e);
      check bool (class_name e ^ " is_bug") bug (is_bug e);
      check bool (class_name e ^ " is_give_up") give_up (is_give_up e))
    [
      (Infeasible_partition { mii = 4; cap = 2 }, 10, false, true);
      (Escalation_cap { mii = 4; cap = 8 }, 11, false, true);
      (Register_pressure { cluster = 0; needed = 9; limit = 8 }, 12, false, true);
      (Bus_saturation { communications = 3; buses = 0 }, 13, false, true);
      (Timeout { at_ii = 5; attempts = 2; elapsed_s = 1.5 }, 14, false, false);
      (Checker_violation [ "x" ], 20, true, false);
      (Internal "x", 21, true, false);
    ]

(* ------------------------------------------------------------------ *)
(* Quarantine                                                           *)
(* ------------------------------------------------------------------ *)

let test_quarantine_poisoned_loop () =
  let loops = Lazy.force tomcatv_loops in
  let victim = (List.nth loops 1).Workload.Generator.id in
  List.iter
    (fun jobs ->
      let iso =
        Metrics.Experiment.run_suite_isolated ~jobs ~poison:[ victim ]
          Metrics.Experiment.Baseline config4c loops
      in
      check int
        (Printf.sprintf "jobs=%d quarantined" jobs)
        1
        (List.length iso.Metrics.Experiment.iso_quarantined);
      let q = List.hd iso.Metrics.Experiment.iso_quarantined in
      check string
        (Printf.sprintf "jobs=%d victim named" jobs)
        victim q.Metrics.Experiment.q_loop.Workload.Generator.id;
      check string
        (Printf.sprintf "jobs=%d class" jobs)
        "internal"
        (Sched.Sched_error.class_name q.Metrics.Experiment.q_error);
      check bool
        (Printf.sprintf "jobs=%d not retried" jobs)
        false q.Metrics.Experiment.q_retried;
      check int
        (Printf.sprintf "jobs=%d partial results" jobs)
        (List.length loops - 1)
        (List.length iso.Metrics.Experiment.iso_runs))
    [ 1; 2 ]

let test_quarantine_retry_marks () =
  let loops = Lazy.force tomcatv_loops in
  let victim = (List.nth loops 0).Workload.Generator.id in
  let iso =
    Metrics.Experiment.run_suite_isolated ~retry:true ~poison:[ victim ]
      Metrics.Experiment.Baseline config4c loops
  in
  match iso.Metrics.Experiment.iso_quarantined with
  | [ q ] ->
      check bool "survived the retry" true q.Metrics.Experiment.q_retried
  | qs -> failf "expected one quarantined loop, got %d" (List.length qs)

(* ------------------------------------------------------------------ *)
(* Backoff                                                              *)
(* ------------------------------------------------------------------ *)

(* With jitter disabled the delay is exactly the capped exponential,
   and [pause] feeds each one to the injected sleep — the whole
   schedule asserted against a recording fake, no real waiting. *)
let test_backoff_exact_schedule () =
  let slept = ref [] in
  let b =
    Metrics.Backoff.make ~base_s:0.1 ~factor:2.0 ~max_s:0.5 ~jitter:0.0
      ~sleep:(fun d -> slept := d :: !slept)
      ()
  in
  List.iter (fun k -> Metrics.Backoff.pause b ~attempt:k) [ 0; 1; 2; 3; 4 ];
  check
    (list (float 1e-9))
    "capped exponential schedule"
    [ 0.1; 0.2; 0.4; 0.5; 0.5 ]
    (List.rev !slept)

let test_backoff_jitter_deterministic_and_bounded () =
  let delays seed =
    let b = Metrics.Backoff.make ~base_s:0.1 ~factor:2.0 ~max_s:2.0
        ~jitter:0.5 ~seed ~sleep:(fun _ -> ()) ()
    in
    List.map (fun k -> Metrics.Backoff.delay b ~attempt:k) [ 0; 1; 2; 3 ]
  in
  check (list (float 1e-9)) "same seed, same delays" (delays 7) (delays 7);
  check bool "different seed decorrelates" true (delays 7 <> delays 8);
  List.iteri
    (fun k d ->
      let full = 0.1 *. (2.0 ** float_of_int k) in
      check bool
        (Printf.sprintf "attempt %d jittered into [d/2, d]" k)
        true
        (d >= (full /. 2.) -. 1e-9 && d <= full +. 1e-9))
    (delays 7)

let test_backoff_none_never_sleeps () =
  let b = Metrics.Backoff.none () in
  List.iter
    (fun k ->
      check (float 0.) "delay is zero" 0. (Metrics.Backoff.delay b ~attempt:k);
      (* pause skips a zero sleep entirely, so nothing can block *)
      Metrics.Backoff.pause b ~attempt:k)
    [ 0; 1; 5 ]

(* The suite runner's retry path threads the backoff through: a loop
   that keeps crashing is re-attempted [retries] times, each attempt
   spaced by the exact schedule, then quarantined with the retry mark. *)
let test_suite_retry_threads_backoff () =
  let loops = Lazy.force tomcatv_loops in
  let victim = (List.nth loops 0).Workload.Generator.id in
  let slept = ref [] in
  let backoff =
    Metrics.Backoff.make ~base_s:0.05 ~factor:2.0 ~jitter:0.0
      ~sleep:(fun d -> slept := d :: !slept)
      ()
  in
  let iso =
    Metrics.Experiment.run_suite_isolated ~retry:true ~retries:3 ~backoff
      ~poison:[ victim ] Metrics.Experiment.Baseline config4c loops
  in
  (match iso.Metrics.Experiment.iso_quarantined with
  | [ q ] ->
      check string "victim still quarantined" victim
        q.Metrics.Experiment.q_loop.Workload.Generator.id;
      check bool "marked retried" true q.Metrics.Experiment.q_retried
  | qs -> failf "expected one quarantined loop, got %d" (List.length qs));
  check
    (list (float 1e-9))
    "three attempts paced by the backoff schedule"
    [ 0.05; 0.1; 0.2 ]
    (List.rev !slept)

(* ------------------------------------------------------------------ *)
(* Resume through the schedule store                                    *)
(* ------------------------------------------------------------------ *)

let modes = [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ]

let table_of (outcome : Metrics.Robust.outcome) =
  Metrics.Robust.ipc_table config4c outcome.o_runs

let with_store_dir f =
  let dir = Filename.temp_dir "robust_store" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_resume_completes_without_recompute () =
  let loops = Lazy.force tomcatv_loops in
  let victim = (List.nth loops 2).Workload.Generator.id in
  with_store_dir (fun dir ->
      let store = Metrics.Store.create ~dir () in
      let poisoned =
        Metrics.Robust.run ~poison:[ victim ] ~store ~modes config4c loops
      in
      (* the poisoned run names the victim once per mode *)
      check (list string) "victim quarantined in every mode" [ "base"; "repl" ]
        (List.map fst poisoned.o_quarantined);
      List.iter
        (fun (mode, (q : Metrics.Experiment.quarantined)) ->
          check string (mode ^ " victim") victim q.q_loop.Workload.Generator.id;
          check string (mode ^ " class") "internal"
            (Sched.Sched_error.class_name q.q_error);
          check bool
            (mode ^ " quarantine names the victim")
            true
            (Metrics.Experiment.contains
               (Sched.Sched_error.to_string q.q_error)
               ~sub:victim))
        poisoned.o_quarantined;
      check int "poisoned run computed everything" (2 * List.length loops)
        poisoned.o_computed;
      Metrics.Store.save store;
      (* resume over the saved directory (victim healthy again): only
         the quarantined entries are recomputed, and the tables come out
         byte-identical to a fresh healthy run *)
      let resumed =
        Metrics.Robust.run ~store:(Metrics.Store.create ~dir ()) ~modes
          config4c loops
      in
      check int "resume recomputed only the victim" 2 resumed.o_computed;
      check int "resume hit the rest"
        (2 * (List.length loops - 1))
        resumed.o_cache_hits;
      check int "resume quarantined nothing" 0
        (List.length resumed.o_quarantined);
      let fresh = Metrics.Robust.run ~modes config4c loops in
      check string "byte-identical tables" (table_of fresh) (table_of resumed))

(* A budget can only turn a walk into a timeout, so a budgeted run reads
   and fills the store like any other; the timeouts themselves are
   dropped by the store's record policy. *)
let test_budget_runs_use_the_store () =
  let loops = Lazy.force tomcatv_loops in
  let n = 2 * List.length loops in
  let store = Metrics.Store.create () in
  let budgeted =
    Metrics.Robust.run ~budget_s:3600. ~store ~modes config4c loops
  in
  check int "generous budget computed everything" n budgeted.o_computed;
  check int "generous budget quarantined nothing" 0
    (List.length budgeted.o_quarantined);
  let warm = Metrics.Robust.run ~store ~modes config4c loops in
  check int "unbudgeted rerun is all hits" n warm.o_cache_hits;
  check int "unbudgeted rerun computes nothing" 0 warm.o_computed;
  check string "byte-identical tables" (table_of budgeted) (table_of warm);
  let store = Metrics.Store.create () in
  let starved = Metrics.Robust.run ~budget_s:0. ~store ~modes config4c loops in
  check (list string) "zero budget times every loop out"
    (List.init n (fun _ -> "timeout"))
    (List.map
       (fun (_, (q : Metrics.Experiment.quarantined)) ->
         Sched.Sched_error.class_name q.q_error)
       starved.o_quarantined);
  let after = Metrics.Robust.run ~store ~modes config4c loops in
  check int "zero budget recorded nothing" 0 after.o_cache_hits

(* A benchmark with no finished runs on one side has no IPC there: its
   cells and its gain read n/a, never 0.00 and a nan or inf gain. *)
let test_ipc_table_without_runs () =
  let loops = Lazy.force tomcatv_loops in
  let base =
    Metrics.Experiment.run_suite Metrics.Experiment.Baseline config4c loops
  and repl =
    Metrics.Experiment.run_suite Metrics.Experiment.Replication config4c loops
  in
  let rows table =
    match String.split_on_char '\n' table with
    | _config :: _header :: _rule :: rows ->
        List.map
          (fun row ->
            List.filter (( <> ) "") (String.split_on_char ' ' row))
          (List.filter (( <> ) "") rows)
    | _ -> failf "malformed table %S" table
  in
  let expect ~tomcatv =
    List.map
      (fun (b : Workload.Benchmark.t) ->
        if b.name = "tomcatv" then tomcatv else [ b.name; "n/a"; "n/a"; "n/a" ])
      Workload.Benchmark.all
  in
  let ipc runs = Metrics.Table.f2 (Metrics.Experiment.ipc runs) in
  check (list (list string)) "both sides empty"
    (expect ~tomcatv:[ "tomcatv"; "n/a"; "n/a"; "n/a" ])
    (rows (Metrics.Robust.ipc_table config4c []));
  check (list (list string)) "replication side empty"
    (expect ~tomcatv:[ "tomcatv"; ipc base; "n/a"; "n/a" ])
    (rows (Metrics.Robust.ipc_table config4c base));
  check (list (list string)) "baseline side empty"
    (expect ~tomcatv:[ "tomcatv"; "n/a"; ipc repl; "n/a" ])
    (rows (Metrics.Robust.ipc_table config4c repl))

let suite =
  [
    test_case "pool fault metadata" `Quick test_pool_fault_metadata;
    test_case "pool map_result" `Quick test_pool_map_result;
    test_case "budget: attempt ceiling" `Quick test_budget_attempts;
    test_case "budget: injected clock" `Quick test_budget_fake_clock;
    test_case "budget: generous budget is invisible" `Quick
      test_budget_generous_is_ok;
    test_case "internal classification from raising transform" `Quick
      test_internal_from_raising_transform;
    test_case "exit codes and classes are stable" `Quick
      test_exit_codes_stable;
    test_case "poisoned loop is quarantined" `Quick
      test_quarantine_poisoned_loop;
    test_case "retry marks surviving quarantine" `Quick
      test_quarantine_retry_marks;
    test_case "backoff: exact capped-exponential schedule" `Quick
      test_backoff_exact_schedule;
    test_case "backoff: jitter is seeded and bounded" `Quick
      test_backoff_jitter_deterministic_and_bounded;
    test_case "backoff: none never sleeps" `Quick
      test_backoff_none_never_sleeps;
    test_case "suite retry threads the backoff" `Quick
      test_suite_retry_threads_backoff;
    test_case "resume: no recompute, identical tables" `Quick
      test_resume_completes_without_recompute;
    test_case "budget: runs read and fill the store" `Quick
      test_budget_runs_use_the_store;
    test_case "ipc table: n/a for a side without runs" `Quick
      test_ipc_table_without_runs;
  ]
