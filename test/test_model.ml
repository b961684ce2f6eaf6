(* The stateful model-based harness (Check.Model): random command
   sequences over the driver / suite / store API run against the
   real system and the in-memory fake.  Three angles: the real system
   passes; the shrinker is correct on a pure predicate; and a deliberate
   lie on the real side (sabotage) is caught and shrunk to the single
   lying command. *)

open Check.Model
open Alcotest

let failf fmt = Alcotest.failf fmt

let pp_cmds cmds = String.concat "; " (List.map cmd_to_string cmds)

let test_generated_sequences_valid () =
  List.iter
    (fun seed ->
      let cmds = gen_cmds (Workload.Rng.create seed) ~len:30 in
      check int "length" 30 (List.length cmds);
      if not (valid cmds) then failf "invalid generated sequence: %s" (pp_cmds cmds))
    [ 1; 2; 3; 4; 5 ]

(* first seed whose generated sequence satisfies [p] — generation is
   pure, so searching is free and pins coverage deterministically *)
let seed_where ~len p =
  let rec go s =
    if s > 2000 then failf "no seed under 2000 generates the wanted shape"
    else if p (gen_cmds (Workload.Rng.create s) ~len) then s
    else go (s + 1)
  in
  go 0

let test_real_system_passes () =
  (* force the deep path: a full suite run, a poison, a save/resume and
     a register sweep must all appear in the sequences we run *)
  let has p cmds = List.exists p cmds in
  let covering =
    seed_where ~len:10 (fun cmds ->
        has (function Run_suite _ -> true | _ -> false) cmds
        && has (function Resume -> true | _ -> false) cmds)
  in
  let sweeping =
    seed_where ~len:10 (fun cmds ->
        has (function Poison _ -> true | _ -> false) cmds
        && has (function Sweep _ -> true | _ -> false) cmds
        && has (function Schedule_direct _ -> true | _ -> false) cmds)
  in
  match Check.Model.check ~seeds:[ covering; sweeping; 11 ] ~len:10 () with
  | None -> ()
  | Some c ->
      failf "counterexample (seed %d): %s\nshrunk: %s\n%s" c.c_seed
        (pp_cmds c.c_cmds) (pp_cmds c.c_shrunk) c.c_msg

let test_minimize_pure_predicate () =
  (* fails iff the sequence contains both a Poison and a Resume; the
     minimal valid such sequence is Poison; Save; Resume (Save needs a
     suite run, Resume a saved store) *)
  let fails cmds =
    List.exists (function Poison _ -> true | _ -> false) cmds
    && List.exists (function Resume -> true | _ -> false) cmds
  in
  let cmds =
    [
      Run_loop { mode = 0; loop = 1 };
      Run_suite { jobs = 1 };
      Poison { loop = 2 };
      Save;
      Schedule_direct { loop = 0; regs = 32 };
      Resume;
      Run_loop { mode = 1; loop = 0 };
    ]
  in
  if not (valid cmds && fails cmds) then failf "bad fixture";
  let shrunk = minimize ~fails cmds in
  check int "minimal length" 3 (List.length shrunk);
  (match shrunk with
  | [ Poison _; Save; Resume ] -> ()
  | other -> failf "unexpected minimum: %s" (pp_cmds other));
  if not (valid shrunk && fails shrunk) then failf "minimum invalid or passing"

let test_sabotage_caught_and_shrunk () =
  (* find a seed whose sequence includes a Budget_timeout, then lie on
     the real side: the harness must fail and shrink to that command *)
  let rec seed_with_timeout s =
    if s > 500 then failf "no seed generates Budget_timeout?"
    else
      let cmds = gen_cmds (Workload.Rng.create s) ~len:8 in
      if List.exists (function Budget_timeout _ -> true | _ -> false) cmds
      then s
      else seed_with_timeout (s + 1)
  in
  let seed = seed_with_timeout 0 in
  match Check.Model.check ~sabotage:"ignore-budget" ~seeds:[ seed ] ~len:8 () with
  | None -> failf "sabotaged run passed"
  | Some c -> (
      match c.c_shrunk with
      | [ Budget_timeout _ ] -> ()
      | other -> failf "did not shrink to the lying command: %s" (pp_cmds other))

(* Resume through the schedule store with a suite run between the Save
   and the Resume: every suite run writes its own directory, so the
   later run cannot disturb what the Save persisted. *)
let test_resume_fixed_cases () =
  List.iter
    (fun cmds ->
      if not (valid cmds) then failf "bad fixture: %s" (pp_cmds cmds);
      match run_cmds cmds with
      | Ok () -> ()
      | Error f ->
          failf "%s failed at %s: %s" (pp_cmds cmds) (cmd_to_string f.x_cmd)
            f.x_msg)
    [
      [ Run_suite { jobs = 1 }; Save; Run_suite { jobs = 1 }; Resume ];
      [ Poison { loop = 1 }; Save; Run_suite { jobs = 1 }; Resume ];
    ]

let test_resume_cold_caught_and_shrunk () =
  (* the resume-cold lie resumes over a memory-only store, as if the
     saved directory were lost: the hit count must fail and shrink to a
     suite run, its Save and the Resume *)
  let seed =
    seed_where ~len:8 (List.exists (function Resume -> true | _ -> false))
  in
  match Check.Model.check ~sabotage:"resume-cold" ~seeds:[ seed ] ~len:8 () with
  | None -> failf "cold resume passed"
  | Some c -> (
      match c.c_shrunk with
      | [ (Run_suite _ | Poison _); Save; Resume ] -> ()
      | other -> failf "did not shrink to three commands: %s" (pp_cmds other))

(* The serve-engine commands, exercised through a fixed sequence that
   walks every service path: cold request, warm re-request, evict +
   recompute, restart onto the disk tier, a pipelined burst, and the
   second mode — each reply held to the memoized direct-run bytes. *)
let test_serve_commands_pass () =
  let cmds =
    [
      Serve_request { mode = 0; loop = 0 };
      Serve_request { mode = 0; loop = 0 };
      Serve_evict { mode = 0; loop = 0 };
      Serve_request { mode = 0; loop = 0 };
      Serve_restart;
      Serve_request { mode = 0; loop = 0 };
      Serve_burst { reqs = [ (0, 1); (1, 0); (0, 0) ] };
      Serve_request { mode = 1; loop = 1 };
      Serve_restart;
      Serve_burst { reqs = [ (1, 1); (0, 1) ] };
      Serve_concurrent { mode = 0; loop = 2; n = 4 };
      Serve_concurrent { mode = 0; loop = 2; n = 3 };
      Serve_concurrent { mode = 1; loop = 2; n = 2 };
    ]
  in
  if not (valid cmds) then failf "bad fixture";
  match run_cmds cmds with
  | Ok () -> ()
  | Error f -> failf "serve sequence failed at %s: %s" (cmd_to_string f.x_cmd) f.x_msg

let test_serve_sabotage_caught_and_shrunk () =
  (* the serve-starve lie staples a zero-attempt budget to every serve
     request on the real side, so the first cold request degrades to a
     timeout reply instead of the direct-run bytes; the counterexample
     must shrink to a single serve command *)
  let is_serve = function
    | Serve_request _ | Serve_burst _ -> true
    | _ -> false
  in
  let rec seed_with_serve s =
    if s > 500 then failf "no seed generates a serve command?"
    else if List.exists is_serve (gen_cmds (Workload.Rng.create s) ~len:8)
    then s
    else seed_with_serve (s + 1)
  in
  let seed = seed_with_serve 0 in
  match Check.Model.check ~sabotage:"serve-starve" ~seeds:[ seed ] ~len:8 () with
  | None -> failf "sabotaged serve run passed"
  | Some c -> (
      match c.c_shrunk with
      | [ cmd ] when is_serve cmd -> ()
      | other -> failf "did not shrink to one serve command: %s" (pp_cmds other))

let test_coalesce_lie_caught_and_shrunk () =
  (* the coalesce-lie sabotage makes the worker-pool engine appear to
     answer every coalesced waiter with the leader's reply (the leader's
     id stamped on all n elements): the per-id byte equality must fail
     and shrink to one concurrent command *)
  let is_cc = function Serve_concurrent _ -> true | _ -> false in
  let rec seed_with_cc s =
    if s > 2000 then failf "no seed generates Serve_concurrent?"
    else if List.exists is_cc (gen_cmds (Workload.Rng.create s) ~len:8) then s
    else seed_with_cc (s + 1)
  in
  let seed = seed_with_cc 0 in
  match Check.Model.check ~sabotage:"coalesce-lie" ~seeds:[ seed ] ~len:8 () with
  | None -> failf "coalesce-lying run passed"
  | Some c -> (
      match c.c_shrunk with
      | [ Serve_concurrent _ ] -> ()
      | other -> failf "did not shrink to the lying command: %s" (pp_cmds other))

(* The exact-oracle command: a fixed sequence that re-observes the same
   (mode, loop) pair (pinning determinism of both IIs and the proven
   bit), crosses modes on one loop, and interleaves a plain run. *)
let test_exact_gap_commands_pass () =
  let cmds =
    [
      Exact_gap { mode = 0; loop = 0 };
      Exact_gap { mode = 0; loop = 0 };
      Run_loop { mode = 0; loop = 0 };
      Exact_gap { mode = 1; loop = 0 };
      Exact_gap { mode = 0; loop = 1 };
      Exact_gap { mode = 1; loop = 0 };
    ]
  in
  if not (valid cmds) then failf "bad fixture";
  match run_cmds cmds with
  | Ok () -> ()
  | Error f ->
      failf "exact-gap sequence failed at %s: %s" (cmd_to_string f.x_cmd)
        f.x_msg

let test_gap_lie_caught_and_shrunk () =
  (* the gap-lie sabotage reports an exact II one above the heuristic
     II: the non-negative-gap postcondition must fail and shrink to the
     single lying command *)
  let is_gap = function Exact_gap _ -> true | _ -> false in
  let rec seed_with_gap s =
    if s > 2000 then failf "no seed generates Exact_gap?"
    else if List.exists is_gap (gen_cmds (Workload.Rng.create s) ~len:8)
    then s
    else seed_with_gap (s + 1)
  in
  let seed = seed_with_gap 0 in
  match Check.Model.check ~sabotage:"gap-lie" ~seeds:[ seed ] ~len:8 () with
  | None -> failf "gap-lying run passed"
  | Some c -> (
      match c.c_shrunk with
      | [ Exact_gap _ ] -> ()
      | other -> failf "did not shrink to the lying command: %s" (pp_cmds other))

let suite =
  [
    test_case "generated sequences are valid" `Quick
      test_generated_sequences_valid;
    test_case "real system satisfies the model" `Slow test_real_system_passes;
    test_case "minimize reaches the minimal valid sequence" `Quick
      test_minimize_pure_predicate;
    test_case "sabotage is caught and shrunk to one command" `Slow
      test_sabotage_caught_and_shrunk;
    test_case "resume reads the directory of the last save" `Slow
      test_resume_fixed_cases;
    test_case "cold resume is caught and shrunk" `Slow
      test_resume_cold_caught_and_shrunk;
    test_case "serve commands satisfy the model" `Slow
      test_serve_commands_pass;
    test_case "serve sabotage is caught and shrunk" `Slow
      test_serve_sabotage_caught_and_shrunk;
    test_case "coalesce lying is caught and shrunk" `Slow
      test_coalesce_lie_caught_and_shrunk;
    test_case "exact-gap commands satisfy the model" `Slow
      test_exact_gap_commands_pass;
    test_case "gap lying is caught and shrunk" `Slow
      test_gap_lie_caught_and_shrunk;
  ]
