open Workload

type cmd =
  | Run_loop of { mode : int; loop : int }
  | Budget_timeout of { mode : int; loop : int }
  | Run_suite of { jobs : int }
  | Poison of { loop : int }
  | Save
  | Resume
  | Schedule_direct of { loop : int; regs : int }
  | Sweep of { loop : int; regs : int list }
  | Cache_probe of { mode : int; loop : int }
  | Cache_evict of { mode : int; loop : int }
  | Serve_request of { mode : int; loop : int }
  | Serve_evict of { mode : int; loop : int }
  | Serve_restart
  | Serve_burst of { reqs : (int * int) list }
  | Serve_concurrent of { mode : int; loop : int; n : int }
  | Exact_gap of { mode : int; loop : int }

let cmd_to_string = function
  | Run_loop { mode; loop } -> Printf.sprintf "Run_loop(mode=%d,loop=%d)" mode loop
  | Budget_timeout { mode; loop } ->
      Printf.sprintf "Budget_timeout(mode=%d,loop=%d)" mode loop
  | Run_suite { jobs } -> Printf.sprintf "Run_suite(jobs=%d)" jobs
  | Poison { loop } -> Printf.sprintf "Poison(loop=%d)" loop
  | Save -> "Save"
  | Resume -> "Resume"
  | Schedule_direct { loop; regs } ->
      Printf.sprintf "Schedule_direct(loop=%d,regs=%d)" loop regs
  | Sweep { loop; regs } ->
      Printf.sprintf "Sweep(loop=%d,regs=[%s])" loop
        (String.concat ";" (List.map string_of_int regs))
  | Cache_probe { mode; loop } ->
      Printf.sprintf "Cache_probe(mode=%d,loop=%d)" mode loop
  | Cache_evict { mode; loop } ->
      Printf.sprintf "Cache_evict(mode=%d,loop=%d)" mode loop
  | Serve_request { mode; loop } ->
      Printf.sprintf "Serve_request(mode=%d,loop=%d)" mode loop
  | Serve_evict { mode; loop } ->
      Printf.sprintf "Serve_evict(mode=%d,loop=%d)" mode loop
  | Serve_restart -> "Serve_restart"
  | Serve_burst { reqs } ->
      Printf.sprintf "Serve_burst(%s)"
        (String.concat ";"
           (List.map (fun (m, l) -> Printf.sprintf "%d/%d" m l) reqs))
  | Serve_concurrent { mode; loop; n } ->
      Printf.sprintf "Serve_concurrent(mode=%d,loop=%d,n=%d)" mode loop n
  | Exact_gap { mode; loop } ->
      Printf.sprintf "Exact_gap(mode=%d,loop=%d)" mode loop

(* ------------------------------------------------------------------ *)
(* The fixed environment: four tomcatv loops on the paper's reference
   machine, in baseline and replication modes.                         *)
(* ------------------------------------------------------------------ *)

let n_loops = 4
let regs_pool = [ 64; 32; 16; 8 ]
let modes = [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ]
let mode_of = [| Metrics.Experiment.Baseline; Metrics.Experiment.Replication |]

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let base_config =
  Machine.Config.make ~clusters:4 ~buses:1 ~bus_latency:2 ~registers:64

let env_loops =
  lazy
    (Array.of_list
       (take n_loops
          (Workload.Generator.generate (Workload.Benchmark.find "tomcatv"))))

(* ------------------------------------------------------------------ *)
(* The fake: everything the system has promised so far, as signatures  *)
(* ------------------------------------------------------------------ *)

type model = {
  learned : (string * string, string) Hashtbl.t;
      (* (mode tag, loop id) -> status signature *)
  sweeps : (int * int, string) Hashtbl.t;
      (* (loop index, register count) -> outcome signature, shared by
         direct schedules and sweep replays *)
  serve_replies : (int * int, string) Hashtbl.t;
      (* (mode, loop) -> the reply bytes a serve daemon owes this
         request: memoized from Serve.direct_reply on first use, pinned
         forever after — hits, recomputes after evict, and warm replies
         after a restart must all produce exactly these bytes *)
  cc_seen : (int * int, unit) Hashtbl.t;
      (* (mode, loop) pairs the concurrent worker-pool engine has
         already computed: the first burst of a pair must coalesce onto
         exactly one computation, later bursts must be all store hits *)
  mutable table : string option;   (* IPC table of a clean full run *)
  mutable last_healthy : int option;
      (* (mode, loop) entries the last suite run left in its store *)
  mutable saved_healthy : int option;  (* the same, at the last Save *)
}

type env = {
  sabotage : string;
  root : string;  (* temp directory holding every disk tier below *)
  store : Metrics.Store.t;  (* memory-tier schedule store under test *)
  serve_dir : string;  (* disk tier of the serve engine under test *)
  serve_cc : Metrics.Serve.t;
      (* a second engine with a one-domain worker pool (memory-only
         store), driven only by Serve_concurrent *)
  mutable serve : Metrics.Serve.t;
  mutable suite_dirs : int;  (* suite-run store directories handed out *)
  mutable last_run : (Metrics.Store.t * string) option;
      (* store of the last suite run, and its directory *)
  mutable saved_dir : string option;  (* directory of the last Save *)
}

exception Post of string

let post fmt = Printf.ksprintf (fun s -> raise (Post s)) fmt

let observe m ~tag ~id sg =
  match Hashtbl.find_opt m.learned (tag, id) with
  | Some prev when prev <> sg ->
      post "%s/%s diverged from earlier observation: %S, now %S" tag id prev sg
  | _ -> Hashtbl.replace m.learned (tag, id) sg

let observe_sweep m ~loop ~regs sg =
  match Hashtbl.find_opt m.sweeps (loop, regs) with
  | Some prev when prev <> sg ->
      post "loop %d at %d registers diverged: %S, now %S" loop regs prev sg
  | _ -> Hashtbl.replace m.sweeps (loop, regs) sg

let run_sig = function
  | Ok (r : Metrics.Experiment.loop_run) ->
      Printf.sprintf "done ii=%d mii=%d comms=%d cycles=%d useful=%d"
        r.outcome.ii r.outcome.mii r.outcome.n_comms r.counts.cycles
        r.counts.useful_ops
  | Error e when Sched.Sched_error.is_bug e ->
      post "bug-class error: %s" (Sched.Sched_error.to_string e)
  | Error e -> "skipped " ^ Sched.Sched_error.class_name e

let sched_sig = function
  | Ok (o : Sched.Driver.outcome) ->
      Printf.sprintf "ok ii=%d comms=%d" o.ii o.n_comms
  | Error e when Sched.Sched_error.is_bug e ->
      post "bug-class error: %s" (Sched.Sched_error.to_string e)
  | Error e -> "error " ^ Sched.Sched_error.class_name e

(* Every finished run of a suite outcome, observed under its pair. *)
let observe_runs m (o : Metrics.Robust.outcome) =
  List.iter
    (fun (r : Metrics.Experiment.loop_run) ->
      observe m
        ~tag:(Metrics.Experiment.mode_tag r.mode)
        ~id:r.loop.Workload.Generator.id (run_sig (Ok r)))
    o.o_runs

(* Each suite run gets its own store directory, so a later run can
   never disturb what an earlier Save persisted. *)
let suite_store env =
  let dir =
    Filename.concat env.root (Printf.sprintf "suite%d" env.suite_dirs)
  in
  env.suite_dirs <- env.suite_dirs + 1;
  (Metrics.Store.create ~dir (), dir)

(* --- the fake serve daemon's contract ------------------------------ *)

(* Deterministic, never-sleeping engine over the run's disk tier. *)
let fresh_serve ~dir =
  Metrics.Serve.create
    ~io:(Metrics.Serve.Io.silent ())
    ~backoff:(fun _ -> Metrics.Backoff.none ())
    ~store_dir:dir ()

(* The concurrent engine: one worker domain, never-sleeping backoff,
   memory-only store — coalescing behaviour is what Serve_concurrent
   pins, not persistence. *)
let fresh_serve_cc () =
  Metrics.Serve.create
    ~io:(Metrics.Serve.Io.silent ())
    ~limits:{ Metrics.Serve.default_limits with workers = 1; queue_bound = 256 }
    ~backoff:(fun _ -> Metrics.Backoff.none ())
    ()

(* Pump, blocking on the worker funnel as needed, until every admitted
   entry is answered: its [(seq, reply)] pairs in completion order. *)
let rec serve_drain t acc =
  if Metrics.Serve.busy t then serve_drain t (acc @ Metrics.Serve.pump_wait t)
  else acc

(* The "serve-starve" sabotage silently staples a zero-attempt budget
   to every request the harness sends: the first miss then degrades to
   a timeout reply instead of the memoized direct bytes — which the
   postcondition must catch. *)
let serve_request_line env ~mode l =
  let md = mode_of.(mode) in
  if env.sabotage = "serve-starve" then
    Metrics.Serve.request ~budget_attempts:0 ~mode:md ~config:base_config l
  else Metrics.Serve.request ~mode:md ~config:base_config l

let check_serve_reply m ~mode ~loop reply =
  let expect =
    match Hashtbl.find_opt m.serve_replies (mode, loop) with
    | Some e -> e
    | None ->
        let l = (Lazy.force env_loops).(loop) in
        let d =
          Metrics.Serve.direct_reply ~mode:mode_of.(mode) ~config:base_config l
        in
        Hashtbl.replace m.serve_replies (mode, loop) d;
        d
  in
  if reply <> expect then
    post "serve reply diverged from the direct run: wanted %S, got %S" expect
      reply

let serve_one env m ~mode ~loop =
  let l = (Lazy.force env_loops).(loop) in
  let line = serve_request_line env ~mode l in
  check_serve_reply m ~mode ~loop (Metrics.Serve.handle env.serve line)

(* ------------------------------------------------------------------ *)
(* Command execution: real system on the left, fake on the right       *)
(* ------------------------------------------------------------------ *)

let exec env m cmd =
  let loops = Lazy.force env_loops in
  let loop_list = Array.to_list loops in
  let check_table (o : Metrics.Robust.outcome) =
    let t = Metrics.Robust.ipc_table base_config o.o_runs in
    match m.table with
    | Some t0 when t0 <> t -> post "IPC table not byte-identical to earlier run"
    | _ -> m.table <- Some t
  in
  match cmd with
  | Run_loop { mode; loop } ->
      let l = loops.(loop) in
      let sg =
        run_sig (Metrics.Experiment.run_loop mode_of.(mode) base_config l)
      in
      observe m
        ~tag:(Metrics.Experiment.mode_tag mode_of.(mode))
        ~id:l.Workload.Generator.id sg
  | Budget_timeout { mode; loop } ->
      let l = loops.(loop) in
      let budget =
        if env.sabotage = "ignore-budget" then None
        else Some (Sched.Budget.make ~max_attempts:0 ())
      in
      (match Metrics.Experiment.run_loop ?budget mode_of.(mode) base_config l with
      | Error e when Sched.Sched_error.class_name e = "timeout" -> ()
      | Ok _ -> post "zero-attempt budget still produced a schedule"
      | Error e ->
          post "zero-attempt budget classified %s, not timeout"
            (Sched.Sched_error.class_name e))
  | Run_suite { jobs } ->
      let store, dir = suite_store env in
      let o = Metrics.Robust.run ~jobs ~store ~modes base_config loop_list in
      if o.o_cache_hits <> 0 then
        post "fresh run hit %d store entries" o.o_cache_hits;
      if o.o_computed <> 2 * n_loops then
        post "fresh run computed %d of %d" o.o_computed (2 * n_loops);
      if o.o_quarantined <> [] then
        post "clean run quarantined %d loops" (List.length o.o_quarantined);
      observe_runs m o;
      check_table o;
      m.last_healthy <- Some (2 * n_loops);
      env.last_run <- Some (store, dir)
  | Poison { loop } ->
      let victim = loops.(loop).Workload.Generator.id in
      let store, dir = suite_store env in
      let o =
        Metrics.Robust.run ~poison:[ victim ] ~store ~modes base_config
          loop_list
      in
      if List.length o.o_quarantined <> 2 then
        post "poisoned %s: %d quarantines, wanted one per mode" victim
          (List.length o.o_quarantined);
      List.iter
        (fun (tag, (q : Metrics.Experiment.quarantined)) ->
          let cls = Sched.Sched_error.class_name q.q_error in
          if q.q_loop.Workload.Generator.id <> victim || cls <> "internal" then
            post "quarantined %s/%s as %s, wanted only the victim %s" tag
              q.q_loop.Workload.Generator.id cls victim)
        o.o_quarantined;
      observe_runs m o;
      m.last_healthy <- Some ((2 * n_loops) - 2);
      env.last_run <- Some (store, dir)
  | Save -> (
      match (env.last_run, m.last_healthy) with
      | Some (store, dir), Some healthy ->
          Metrics.Store.save store;
          env.saved_dir <- Some dir;
          m.saved_healthy <- Some healthy
      | _ -> post "Save without a suite run (generator bug)")
  | Resume -> (
      match (env.saved_dir, m.saved_healthy) with
      | Some dir, Some healthy ->
          (* The "resume-cold" sabotage resumes over a memory-only store,
             as if the saved directory were lost: nothing can hit. *)
          let store =
            if env.sabotage = "resume-cold" then Metrics.Store.create ()
            else Metrics.Store.create ~dir ()
          in
          let o = Metrics.Robust.run ~store ~modes base_config loop_list in
          if o.o_cache_hits <> healthy then
            post "resume hit %d entries, the saved run held %d healthy"
              o.o_cache_hits healthy;
          if o.o_computed <> (2 * n_loops) - healthy then
            post "resume recomputed %d, wanted %d" o.o_computed
              ((2 * n_loops) - healthy);
          if o.o_quarantined <> [] then
            post "resume quarantined %d loops" (List.length o.o_quarantined);
          observe_runs m o;
          check_table o;
          m.last_healthy <- Some (2 * n_loops);
          env.last_run <- Some (store, dir)
      | _ -> post "Resume without a saved store (generator bug)")
  | Schedule_direct { loop; regs } ->
      let config = Machine.Config.with_registers base_config ~registers:regs in
      let sg =
        sched_sig
          (Sched.Driver.schedule_loop config loops.(loop).Workload.Generator.graph)
      in
      observe_sweep m ~loop ~regs sg
  | Sweep { loop; regs } ->
      let family =
        List.map
          (fun r -> Machine.Config.with_registers base_config ~registers:r)
          regs
      in
      let results =
        Sched.Driver.schedule_sweep family loops.(loop).Workload.Generator.graph
      in
      List.iter2
        (fun r (_, res) -> observe_sweep m ~loop ~regs:r (sched_sig res))
        regs results
  | Cache_probe { mode; loop } ->
      (* Round-trip coherence: a result recorded into the schedule
         store must come back as a hit with an identical signature —
         and the signature must also agree with everything this
         (mode, loop) pair ever promised. *)
      let l = loops.(loop) in
      let md = mode_of.(mode) in
      let tag = Metrics.Experiment.mode_tag md in
      let res = Metrics.Experiment.run_loop md base_config l in
      let sg = run_sig res in
      observe m ~tag ~id:l.Workload.Generator.id sg;
      Metrics.Store.record env.store ~mode:md ~config:base_config l res;
      (* The "drop-record" sabotage silently evicts what was just
         recorded — the harness must notice the broken round-trip. *)
      if env.sabotage = "drop-record" then
        Metrics.Store.evict env.store ~mode:md ~config:base_config l;
      (match Metrics.Store.lookup env.store ~mode:md ~config:base_config l with
      | Metrics.Store.Miss -> post "store missed an entry just recorded"
      | Metrics.Store.Hit r ->
          let sg' = run_sig (Ok r) in
          if sg' <> sg then
            post "cache hit diverged from direct run: %S, now %S" sg sg'
      | Metrics.Store.Hit_give_up (cls, _) ->
          if sg <> "skipped " ^ cls then
            post "cache served give-up %s but the run said %S" cls sg)
  | Cache_evict { mode; loop } ->
      (* Evict coherence: after evicting the key must miss, and the
         recomputed result must still match the model's history (the
         store never becomes a source of truth the system cannot
         rebuild). *)
      let l = loops.(loop) in
      let md = mode_of.(mode) in
      let tag = Metrics.Experiment.mode_tag md in
      Metrics.Store.evict env.store ~mode:md ~config:base_config l;
      (match Metrics.Store.lookup env.store ~mode:md ~config:base_config l with
      | Metrics.Store.Miss -> ()
      | Metrics.Store.Hit _ | Metrics.Store.Hit_give_up _ ->
          post "evicted entry still answered");
      let sg = run_sig (Metrics.Experiment.run_loop md base_config l) in
      observe m ~tag ~id:l.Workload.Generator.id sg
  | Serve_request { mode; loop } -> serve_one env m ~mode ~loop
  | Serve_evict { mode; loop } ->
      (* The ack is fixed bytes; coherence is checked by whatever
         Serve_request comes later — the recompute must reproduce the
         memoized reply exactly, or the store fed the server stale
         data. *)
      let l = loops.(loop) in
      let md = mode_of.(mode) in
      let reply =
        Metrics.Serve.handle env.serve
          (Metrics.Serve.evict_request ~mode:md ~config:base_config l)
      in
      let expect =
        Metrics.Json.print
          (Metrics.Json.Obj
             [
               ("id", Metrics.Json.Str l.Workload.Generator.id);
               ("status", Metrics.Json.Str "ok");
               ("role", Metrics.Json.Str "evict");
             ])
      in
      if reply <> expect then
        post "serve evict ack diverged: wanted %S, got %S" expect reply
  | Serve_restart ->
      (* Persist the disk tier and boot a fresh engine over it: from the
         model's point of view nothing may change — warm replies must
         still be the memoized bytes. *)
      Metrics.Serve.save env.serve;
      env.serve <- fresh_serve ~dir:env.serve_dir
  | Serve_burst { reqs } ->
      (* Concurrent pipelined clients: every request is admitted before
         any is answered, then the engine is pumped until all are.
         Replies must come back in admission order, by sequence number,
         and each must be byte-identical to the direct run, however
         they interleave or coalesce. *)
      List.iter
        (fun (mode, loop) ->
          match
            Metrics.Serve.offer env.serve
              (serve_request_line env ~mode loops.(loop))
          with
          | None -> ()
          | Some _ -> post "burst within the queue bound was shed")
        reqs;
      let replies = serve_drain env.serve [] in
      if List.length replies <> List.length reqs then
        post "burst of %d answered %d lines" (List.length reqs)
          (List.length replies);
      let seqs = List.map fst replies in
      if List.sort compare seqs <> seqs then
        post "replies out of admission order";
      List.iter2
        (fun (mode, loop) (_, reply) -> check_serve_reply m ~mode ~loop reply)
        reqs replies
  | Serve_concurrent { mode; loop; n } ->
      (* A batched burst of n identical requests (distinct ids) through
         the worker-pool engine: one array reply whose elements are each
         byte-identical to the per-id direct run, with counters proving
         the burst coalesced onto one computation the first time and was
         all store hits afterwards. *)
      let l = loops.(loop) in
      let md = mode_of.(mode) in
      let t = env.serve_cc in
      let ids = List.init n (Printf.sprintf "cc%d") in
      let lines =
        List.map
          (fun id -> Metrics.Serve.request ~id ~mode:md ~config:base_config l)
          ids
      in
      let stat name =
        let r = Metrics.Serve.handle t (Metrics.Serve.stats_request ()) in
        Metrics.Json.to_int (Metrics.Json.member name (Metrics.Json.parse r))
      in
      let computes0 = stat "computes"
      and coalesced0 = stat "coalesced"
      and hits0 = stat "hits"
      and misses0 = stat "misses" in
      (match Metrics.Serve.offer t (Metrics.Serve.batch_request lines) with
      | None -> ()
      | Some _ -> post "concurrent burst within the queue bound was shed");
      let reply =
        match serve_drain t [] with
        | [ (_, r) ] -> r
        | rs ->
            post "concurrent burst answered %d lines, wanted 1"
              (List.length rs)
      in
      (* The "coalesce-lie" sabotage simulates a server that stamps the
         leader's rendered reply on every coalesced waiter instead of
         rendering each with its own request id. *)
      let reply =
        if env.sabotage = "coalesce-lie" then
          Metrics.Serve.batch_request
            (List.init n (fun _ ->
                 Metrics.Serve.direct_reply ~id:(List.hd ids) ~mode:md
                   ~config:base_config l))
        else reply
      in
      let expect =
        Metrics.Serve.batch_request
          (List.map
             (fun id ->
               Metrics.Serve.direct_reply ~id ~mode:md ~config:base_config l)
             ids)
      in
      if reply <> expect then
        post "concurrent replies diverged from the per-id direct runs";
      let delta name before wanted =
        let moved = stat name - before in
        if moved <> wanted then
          post "%s moved %d across the burst, wanted %d" name moved wanted
      in
      if Hashtbl.mem m.cc_seen (mode, loop) then begin
        delta "computes" computes0 0;
        delta "coalesced" coalesced0 0;
        delta "hits" hits0 n;
        delta "misses" misses0 0
      end
      else begin
        Hashtbl.replace m.cc_seen (mode, loop) ();
        delta "computes" computes0 1;
        delta "coalesced" coalesced0 (n - 1);
        delta "hits" hits0 0;
        delta "misses" misses0 n
      end
  | Exact_gap { mode; loop } ->
      (* The exact oracle against the heuristic driver on the same
         (mode, loop): the exact II can never exceed the heuristic II
         (the heuristic schedule is itself a witness inside the oracle's
         horizon, so the gap is non-negative by construction — a
         negative gap means the oracle lied), and the whole observation
         must be deterministic across re-runs.  The conflict cap keeps
         every outcome — including Unknown — reproducible: no wall
         clock is consulted anywhere. *)
      let l = loops.(loop) in
      let g = l.Workload.Generator.graph in
      let transform =
        if mode = 1 then Some (fst (Replication.Replicate.transform ()))
        else None
      in
      let tag = "gap/" ^ Metrics.Experiment.mode_tag mode_of.(mode) in
      (match Sched.Driver.schedule_loop ?transform base_config g with
      | Error e when Sched.Sched_error.is_bug e ->
          post "bug-class error: %s" (Sched.Sched_error.to_string e)
      | Error e ->
          observe m ~tag ~id:l.Workload.Generator.id
            ("heur-" ^ Sched.Sched_error.class_name e)
      | Ok o ->
          let heur_ii = o.Sched.Driver.ii in
          let horizon =
            Sched.Schedule.length o.Sched.Driver.schedule + heur_ii + 2
          in
          (* The "gap-lie" sabotage replaces the oracle's verdict with a
             fabricated exact II above the heuristic one — a negative
             gap the postcondition must refuse (the oracle itself is
             not consulted: the lie is in the reporting). *)
          let verdict =
            if env.sabotage = "gap-lie" then Ok (heur_ii + 1, false)
            else
              match
                Sched.Exact.minimum_ii ~replicate:(mode = 1) ~horizon
                  ~max_ii:heur_ii ~max_conflicts:1_000 ~max_cegar:4
                  base_config g
              with
              | Ok f -> Ok (f.Sched.Exact.f_ii, f.Sched.Exact.f_proven)
              | Error e -> Error (Sched.Sched_error.class_name e)
          in
          let sg =
            match verdict with
            | Ok (f_ii, proven) ->
                if f_ii > heur_ii then
                  post "negative gap: exact II %d above heuristic II %d" f_ii
                    heur_ii;
                Printf.sprintf "heur=%d exact=%d proven=%b" heur_ii f_ii
                  proven
            | Error cls -> Printf.sprintf "heur=%d exact-%s" heur_ii cls
          in
          observe m ~tag ~id:l.Workload.Generator.id sg)

(* ------------------------------------------------------------------ *)
(* Generation, preconditions, shrinking                                *)
(* ------------------------------------------------------------------ *)

let gen_cmds rng ~len =
  let has_run = ref false and has_saved = ref false in
  List.init len (fun _ ->
      let rec pick () =
        match Rng.int rng 20 with
        | 0 | 1 | 2 ->
            Run_loop { mode = Rng.int rng 2; loop = Rng.int rng n_loops }
        | 3 -> Budget_timeout { mode = Rng.int rng 2; loop = Rng.int rng n_loops }
        | 4 ->
            has_run := true;
            Run_suite { jobs = 1 + Rng.int rng 2 }
        | 5 ->
            has_run := true;
            Poison { loop = Rng.int rng n_loops }
        | 6 when !has_run ->
            has_saved := true;
            Save
        | 7 when !has_saved -> Resume
        | 8 | 9 ->
            Schedule_direct
              { loop = Rng.int rng n_loops; regs = Rng.pick rng regs_pool }
        | 10 | 11 ->
            let k = 2 + Rng.int rng 3 in
            Sweep
              {
                loop = Rng.int rng n_loops;
                regs = List.filteri (fun i _ -> i < k) regs_pool;
              }
        | 12 -> Cache_probe { mode = Rng.int rng 2; loop = Rng.int rng n_loops }
        | 13 -> Cache_evict { mode = Rng.int rng 2; loop = Rng.int rng n_loops }
        | 14 ->
            Serve_request { mode = Rng.int rng 2; loop = Rng.int rng n_loops }
        | 15 -> Serve_evict { mode = Rng.int rng 2; loop = Rng.int rng n_loops }
        | 16 -> Serve_restart
        | 17 ->
            Serve_burst
              {
                reqs =
                  List.init
                    (2 + Rng.int rng 3)
                    (fun _ -> (Rng.int rng 2, Rng.int rng n_loops));
              }
        | 18 ->
            Serve_concurrent
              {
                mode = Rng.int rng 2;
                loop = Rng.int rng n_loops;
                n = 2 + Rng.int rng 3;
              }
        | 19 -> Exact_gap { mode = Rng.int rng 2; loop = Rng.int rng n_loops }
        | _ -> pick ()
      in
      pick ())

let valid cmds =
  let has_run = ref false and has_saved = ref false in
  let loop_ok l = l >= 0 && l < n_loops in
  List.for_all
    (function
      | Run_loop { mode; loop }
      | Budget_timeout { mode; loop }
      | Cache_probe { mode; loop }
      | Cache_evict { mode; loop }
      | Serve_request { mode; loop }
      | Serve_evict { mode; loop }
      | Exact_gap { mode; loop } ->
          (mode = 0 || mode = 1) && loop_ok loop
      | Serve_restart -> true
      | Serve_burst { reqs } ->
          reqs <> []
          && List.for_all
               (fun (m, l) -> (m = 0 || m = 1) && loop_ok l)
               reqs
      | Serve_concurrent { mode; loop; n } ->
          (mode = 0 || mode = 1) && loop_ok loop && n >= 2
      | Run_suite { jobs } ->
          has_run := true;
          jobs >= 1
      | Poison { loop } ->
          has_run := true;
          loop_ok loop
      | Save ->
          let ok = !has_run in
          if ok then has_saved := true;
          ok
      | Resume -> !has_saved
      | Schedule_direct { loop; regs } -> loop_ok loop && List.mem regs regs_pool
      | Sweep { loop; regs } ->
          loop_ok loop && regs <> []
          && List.for_all (fun r -> List.mem r regs_pool) regs)
    cmds

type failure = { x_index : int; x_cmd : cmd; x_msg : string }

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let run_cmds ?(sabotage = "") cmds =
  let root = Filename.temp_dir "model" "" in
  let serve_dir = Filename.concat root "serve" in
  let env =
    {
      sabotage;
      root;
      store = Metrics.Store.create ();
      serve_dir;
      serve_cc = fresh_serve_cc ();
      serve = fresh_serve ~dir:serve_dir;
      suite_dirs = 0;
      last_run = None;
      saved_dir = None;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Metrics.Serve.shutdown env.serve_cc;
      remove_tree root)
    (fun () ->
      let m =
        {
          learned = Hashtbl.create 16;
          sweeps = Hashtbl.create 16;
          serve_replies = Hashtbl.create 16;
          cc_seen = Hashtbl.create 16;
          table = None;
          last_healthy = None;
          saved_healthy = None;
        }
      in
      let rec go i = function
        | [] -> Ok ()
        | c :: tl -> (
            match exec env m c with
            | () -> go (i + 1) tl
            | exception Post msg -> Error { x_index = i; x_cmd = c; x_msg = msg })
      in
      go 0 cmds)

type counterexample = {
  c_seed : int;
  c_cmds : cmd list;
  c_shrunk : cmd list;
  c_msg : string;
}

let minimize ~fails cmds =
  let rec shrink cmds =
    let n = List.length cmds in
    let rec try_at i =
      if i >= n then cmds
      else
        let cand = List.filteri (fun j _ -> j <> i) cmds in
        if valid cand && fails cand then shrink cand else try_at (i + 1)
    in
    try_at 0
  in
  shrink cmds

let check ?sabotage ~seeds ~len () =
  let rec go = function
    | [] -> None
    | seed :: rest -> (
        let cmds = gen_cmds (Rng.create seed) ~len in
        match run_cmds ?sabotage cmds with
        | Ok () -> go rest
        | Error f ->
            let fails c = Result.is_error (run_cmds ?sabotage c) in
            let shrunk = minimize ~fails cmds in
            let msg =
              match run_cmds ?sabotage shrunk with
              | Error f' -> f'.x_msg
              | Ok () -> f.x_msg
            in
            Some { c_seed = seed; c_cmds = cmds; c_shrunk = shrunk; c_msg = msg })
  in
  go seeds
