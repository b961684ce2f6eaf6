(* Benchmark harness: regenerates every table and figure of the paper
   (default mode), runs the design-choice ablations (--ablate) and times
   the pass's components with Bechamel (--micro).

   Usage:
     dune exec bench/main.exe            # all tables and figures
     dune exec bench/main.exe -- --quick # 2 loops/benchmark smoke run
     dune exec bench/main.exe -- --only fig7,fig10
     dune exec bench/main.exe -- --ablate
     dune exec bench/main.exe -- --extensions
     dune exec bench/main.exe -- --micro
     dune exec bench/main.exe -- --profile
     dune exec bench/main.exe -- --scaling --bench-json BENCH_sched.json
     dune exec bench/main.exe -- --warm --bench-json BENCH_sched.json
     dune exec bench/main.exe -- --serve --bench-json BENCH_sched.json
     dune exec bench/main.exe -- --gap --bench-json BENCH_sched.json
     dune exec bench/main.exe -- --cache /tmp/sched-cache
     dune exec bench/main.exe -- --jobs 4 --bench-json BENCH_sched.json

   --jobs N runs independent loops on N domains (default: the
   recommended domain count; requests beyond it are clamped, with a
   warning, and the payload records the effective count).  --profile
   accumulates per-phase wall time and allocation (minor/major words)
   inside the scheduler (partition / ordering / placement / regalloc /
   replication) and reports both, also into the JSON payload.

   --scaling runs the full figure suite once per requested job count
   in {1, 2, 4, 8} — a fresh suite each time, so nothing is answered
   from a previous run's cache — and records the wall time per point.

   --cache DIR backs the figure suite with the content-addressed
   schedule store ({!Metrics.Store}) persisted in DIR; --warm runs a
   cold pass then a warm pass over the same store and records the
   speedup plus the warm pass's hit/miss counters ("ok" requires zero
   warm misses).  Without --cache, --warm uses a temp directory it
   removes afterwards.

   --bench-json PATH writes the wall times to PATH so successive
   commits can track the perf trajectory; the process exits non-zero
   if any section failed.  The file holds up to five payloads —
   "quick" (written by --quick runs), "full" (written by full figure
   runs, which also measure the hard-loop escalation subset seq vs
   reuse), "scaling" (written by --scaling runs),
   "warm" (written by --warm runs), "serve" (written by --serve
   runs: the engine's coalescing burst, open-loop throughput with
   p50/p95 latency, and the worker-domain scaling curve) and "gap"
   (written by --gap runs: the exact SAT oracle against the heuristic
   on a fixed subset of small suite loops — deterministic IIs gated to
   exact equality, wall time to tolerance) — and a run only overwrites
   its own payload, so each can be refreshed independently. *)

module Json = Metrics.Json

(* The suite retains every run and register-sweep trace, so the major heap
   grows to hundreds of MB and the default GC settings spend a fifth of
   the bench marking it; the orchestrating domain also runs all the
   scheduling work itself whenever the pool clamps to one job, without
   the minor-heap bump {!Metrics.Pool} gives spawned workers.  Trade
   memory for time: a 4M-word minor heap cuts promotion of short-lived
   scheduling structures, and a higher space overhead cuts mark work
   (space_overhead is a property of the shared major heap, so it covers
   pool workers too). *)
let () =
  let g = Gc.get () in
  Gc.set
    {
      g with
      Gc.minor_heap_size = max g.Gc.minor_heap_size (4 * 1024 * 1024);
      space_overhead = max g.Gc.space_overhead 240;
    }

type timing = { t_id : string; t_seconds : float; t_ok : bool }

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

(* ------------------------------------------------------------------ *)
(* Perf trajectory output                                              *)
(* ------------------------------------------------------------------ *)

(* Two-space-indented rendering, so the committed BENCH_sched.json stays
   readable in diffs; [Json.print] is compact. *)
let rec pretty ?(indent = 0) (j : Json.t) =
  let pad n = String.make n ' ' in
  match j with
  | Json.Obj ((_ :: _) as fields) ->
      let body =
        List.map
          (fun (k, v) ->
            Printf.sprintf "%s\"%s\": %s"
              (pad (indent + 2))
              (Json.escape k)
              (pretty ~indent:(indent + 2) v))
          fields
      in
      Printf.sprintf "{\n%s\n%s}" (String.concat ",\n" body) (pad indent)
  | Json.List ((_ :: _) as xs)
    when List.exists (function Json.Obj _ -> true | _ -> false) xs ->
      let body =
        List.map
          (fun v -> pad (indent + 2) ^ pretty ~indent:(indent + 2) v)
          xs
      in
      Printf.sprintf "[\n%s\n%s]" (String.concat ",\n" body) (pad indent)
  | j -> Json.print j

let seconds f = Json.Num (Float.round (f *. 1000.) /. 1000.)

(* Sub-10ms sections (table1, fig9, fig10) round to "seconds": 0 — a
   regression there would hide behind the rounding, so every section
   also records microsecond-resolution milliseconds. *)
let millis f = Json.Num (Float.round (f *. 1e6) /. 1000.)

let cache_json (st : Metrics.Store.stats) =
  let looked = st.Metrics.Store.hits + st.Metrics.Store.misses in
  let rate =
    if looked = 0 then 0.
    else float_of_int st.Metrics.Store.hits /. float_of_int looked
  in
  Json.Obj
    [
      ("hits", Json.Num (float_of_int st.Metrics.Store.hits));
      ("misses", Json.Num (float_of_int st.Metrics.Store.misses));
      ("hit_rate", Json.Num (Float.round (rate *. 1000.) /. 1000.));
      ("bytes_read", Json.Num (float_of_int st.Metrics.Store.bytes_read));
      ("bytes_written", Json.Num (float_of_int st.Metrics.Store.bytes_written));
      ("tables_saved", Json.Num (float_of_int st.Metrics.Store.tables_saved));
      ( "tables_skipped",
        Json.Num (float_of_int st.Metrics.Store.tables_skipped) );
    ]

let payload_json ~mode ~jobs ~jobs_requested ~n_loops ~timings ~total
    ~profile ~profile_gc ~cache ~hard =
  let entry t =
    Json.Obj
      [
        ("id", Json.Str t.t_id);
        ("seconds", seconds t.t_seconds);
        ("ms", millis t.t_seconds);
        ("ok", Json.Bool t.t_ok);
      ]
  in
  Json.Obj
    ([
       ("mode", Json.Str mode);
       (* the job count the pool actually ran on, not the request *)
       ("jobs", Json.Num (float_of_int jobs));
     ]
    @ (if jobs_requested <> jobs then
         [ ("jobs_requested", Json.Num (float_of_int jobs_requested)) ]
       else [])
    @ [
       ("loops", Json.Num (float_of_int n_loops));
       ("total_seconds", seconds total);
       ("sections", Json.List (List.map entry timings));
     ]
    @ (match profile with
      | [] -> []
      | ph ->
          [
            ( "profile",
              Json.Obj (List.map (fun (p, s) -> (p, seconds s)) ph) );
          ])
    @ (match profile_gc with
      | [] -> []
      | ph ->
          [
            ( "profile_gc",
              Json.Obj
                (List.map
                   (fun (p, (minor, major)) ->
                     ( p,
                       Json.Obj
                         [
                           ("minor_words", Json.Num (float_of_int minor));
                           ("major_words", Json.Num (float_of_int major));
                         ] ))
                   ph) );
          ])
    @ (match cache with None -> [] | Some c -> [ ("cache", c) ])
    @ match hard with None -> [] | Some h -> [ ("hard", h) ])

(* Refresh this run's payload ("quick", "full" or "scaling"), keeping
   the others from an existing file so each can be regenerated
   independently. *)
let write_bench_json path ~slot payload =
  let previous =
    if Sys.file_exists path then
      try Some (Json.parse (In_channel.with_open_text path In_channel.input_all))
      with _ -> None
    else None
  in
  let field name =
    if String.equal name slot then [ (name, payload) ]
    else
      match Option.bind previous (Json.member_opt name) with
      | Some j -> [ (name, j) ]
      | None -> []
  in
  let doc =
    Json.Obj
      (("schema", Json.Str "bench_sched/v2")
      :: List.concat_map field
           [ "quick"; "full"; "scaling"; "warm"; "serve"; "gap" ])
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (pretty doc ^ "\n"))

let quick_loops () =
  (* First few loops of each benchmark: enough to exercise every code
     path while keeping a smoke run under a couple of seconds. *)
  List.concat_map
    (fun (b : Workload.Benchmark.t) -> take 2 (Workload.Generator.generate b))
    Workload.Benchmark.all

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let run_figures ~quick ~only ~jobs ?store () =
  let loops = if quick then quick_loops () else Workload.Generator.suite () in
  let suite = Metrics.Suite.create ~loops ~jobs ?store () in
  Printf.printf
    "Instruction Replication for Clustered Microarchitectures (MICRO-36'03)\n\
     reproduction: %d loops, %d benchmarks, %d jobs%s\n\n%!"
    (List.length loops)
    (List.length Workload.Benchmark.all)
    jobs
    (if quick then " [--quick subset]" else "");
  let wanted id =
    match only with None -> true | Some ids -> List.mem id ids
  in
  let timings =
    List.filter_map
      (fun (id, render) ->
        if not (wanted id) then None
        else begin
          let t = Unix.gettimeofday () in
          match render () with
          | text ->
              let dt = Unix.gettimeofday () -. t in
              Printf.printf "=== %s ===\n%s   [%.1fs]\n\n%!" id text dt;
              Some { t_id = id; t_seconds = dt; t_ok = true }
          | exception e ->
              let dt = Unix.gettimeofday () -. t in
              Printf.printf "=== %s ===\nFAILED: %s\n\n%!" id
                (Printexc.to_string e);
              Some { t_id = id; t_seconds = dt; t_ok = false }
        end)
      (Metrics.Figures.all suite)
  in
  (timings, List.length loops, suite)

(* ------------------------------------------------------------------ *)
(* Hard-loop escalation: sequential walk vs reuse                      *)
(* ------------------------------------------------------------------ *)

(* The escalation-reuse machinery (partition hierarchy, route cache)
   only matters on loops whose escalation actually walks: deep II climbs
   and register-capped give-ups.  This section measures exactly that
   subset — the loops whose escalation at a tight register file climbs
   at least [hard_depth] levels or gives up — under two drivers:

     seq    the pre-reuse walk ([reuse:false]): scratch partitions and
            routes at every level
     reuse  the default driver (hierarchy + route cache)

   The subset is deterministic (the classifying pass reproduces the
   default deterministic driver), so successive commits measure the
   same loops; it is capped at [hard_cap] loops — in suite order, so
   still deterministic — to keep the driver comparison a bounded slice
   of the full-bench wall time.

   Classification is answered from the figure suite's cached baseline
   sweep at the same configuration (Section 4 already runs it): a
   loop's final (II, MII) under the shared-hierarchy driver is pinned
   byte-identical to the plain driver by the property suite, and loops
   the sweep dropped are exactly those whose escalation gave up.
   Scheduling 678 loops at a tight register file just to classify them
   would repeat several seconds of the suite's work. *)
let hard_config_name = "4c1b2l32r"
let hard_depth = 16
let hard_cap = 48

let run_hard ~suite () =
  let loops = Metrics.Suite.loops suite in
  let config = Option.get (Machine.Config.of_name hard_config_name) in
  let is_hard =
    let outcomes = Hashtbl.create 1024 in
    List.iter
      (fun (r : Metrics.Experiment.loop_run) ->
        Hashtbl.replace outcomes r.Metrics.Experiment.loop.Workload.Generator.id
          r.Metrics.Experiment.outcome)
      (Metrics.Suite.runs suite Metrics.Experiment.Baseline config);
    fun (l : Workload.Generator.loop) ->
      match Hashtbl.find_opt outcomes l.id with
      | Some o -> o.Sched.Driver.ii - o.Sched.Driver.mii >= hard_depth
      | None -> true
  in
  let all_hard = List.filter is_hard loops in
  let hard = take hard_cap all_hard in
  if List.length all_hard > hard_cap then
    Printf.printf
      "hard loops: measuring the first %d of %d qualifying loops\n%!"
      hard_cap (List.length all_hard);
  (* Base and replication modes, sequentially per variant: the timing
     compares drivers, so nothing else may vary.  The reuse variants
     share one hierarchy across a loop's two runs — partitioning cannot
     see the transform, so the second walk re-refines from the first
     walk's memo tables. *)
  let run_variant schedule_pair =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (l : Workload.Generator.loop) -> schedule_pair l.graph)
      hard;
    Unix.gettimeofday () -. t0
  in
  let pair schedule g =
    ignore (schedule None g : (_, _) result);
    let t, _ = Replication.Replicate.transform () in
    ignore (schedule (Some t) g : (_, _) result)
  in
  let seq =
    run_variant (fun g ->
        pair
          (fun transform g ->
            Sched.Driver.schedule_loop ?transform ~reuse:false config g)
          g)
  in
  let reuse =
    run_variant (fun g ->
        let hier = Sched.Driver.hierarchy config g in
        pair
          (fun transform g ->
            Sched.Driver.schedule_loop ?transform ~hier config g)
          g)
  in
  let speedup = if reuse > 0. then seq /. reuse else 0. in
  Printf.printf
    "=== hard loops ===\n\
     %d loops with escalation depth >= %d (or give-up) at %s\n\
     seq (no reuse): %.2fs   reuse: %.2fs\n\
     reuse speedup over seq: %.2fx\n\n\
     %!"
    (List.length hard) hard_depth hard_config_name seq reuse speedup;
  Json.Obj
    [
      ("config", Json.Str hard_config_name);
      ("min_depth", Json.Num (float_of_int hard_depth));
      ("n_loops", Json.Num (float_of_int (List.length hard)));
      ("seq_seconds", seconds seq);
      ("reuse_seconds", seconds reuse);
      ("speedup", Json.Num (Float.round (speedup *. 100.) /. 100.));
    ]

(* ------------------------------------------------------------------ *)
(* Domain-pool scaling: the figure suite at 1/2/4/8 jobs              *)
(* ------------------------------------------------------------------ *)

let scaling_points = [ 1; 2; 4; 8 ]

let run_scaling ~quick () =
  let points =
    List.map
      (fun requested ->
        let jobs = Metrics.Pool.clamp_jobs requested in
        (* The previous point's suite retains hundreds of MB of runs;
           left in place, that major-heap carryover taxes the next
           point's marking and skews the curve (the 2-job point used to
           read slower than 1 job on a clamped single-core host purely
           from inherited heap).  Compact so every point starts from the
           same heap. *)
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let timings, n_loops, _suite =
          run_figures ~quick ~only:None ~jobs ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        let ok = List.for_all (fun t -> t.t_ok) timings in
        Printf.printf
          "--- scaling point: %d jobs requested, %d effective: %.1fs%s ---\n\n\
           %!"
          requested jobs dt
          (if ok then "" else " [sections FAILED]");
        (requested, jobs, dt, ok, n_loops))
      scaling_points
  in
  let n_loops = match points with (_, _, _, _, n) :: _ -> n | [] -> 0 in
  let ok = List.for_all (fun (_, _, _, ok, _) -> ok) points in
  let payload =
    Json.Obj
      [
        ("mode", Json.Str (if quick then "scaling-quick" else "scaling"));
        ("loops", Json.Num (float_of_int n_loops));
        ( "points",
          Json.List
            (List.map
               (fun (requested, jobs, dt, ok, _) ->
                 Json.Obj
                   (("jobs", Json.Num (float_of_int jobs))
                   :: ((if requested <> jobs then
                          [
                            ( "jobs_requested",
                              Json.Num (float_of_int requested) );
                          ]
                        else [])
                      @ [ ("seconds", seconds dt); ("ok", Json.Bool ok) ])))
               points) );
      ]
  in
  (payload, ok)

(* ------------------------------------------------------------------ *)
(* Warm-cache: cold pass fills the store, warm pass is served from it  *)
(* ------------------------------------------------------------------ *)

let remove_dir dir =
  try
    if Sys.file_exists dir && Sys.is_directory dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  with Sys_error _ -> ()

(* Two figure passes over the same cache directory: a cold pass that
   fills the content-addressed schedule store and a warm pass that must
   be served from it entirely (the payload's [ok] requires zero warm
   misses, so the regression gate catches any scheduling path that
   stopped consulting the store).  Each pass builds its own
   {!Metrics.Store} so the warm pass reads through the disk tier — the
   cross-run path — not the in-memory memo the cold pass populated. *)
let run_warm ~quick ~jobs ~dir () =
  let owned, dir =
    match dir with
    | Some d -> (false, d)
    | None ->
        ( true,
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "bench-cache-%d" (Unix.getpid ())) )
  in
  let pass label =
    let store = Metrics.Store.create ~dir () in
    let t0 = Unix.gettimeofday () in
    let timings, n_loops, _suite =
      run_figures ~quick ~only:None ~jobs ~store ()
    in
    Metrics.Store.save store;
    let dt = Unix.gettimeofday () -. t0 in
    let ok = List.for_all (fun t -> t.t_ok) timings in
    let st = Metrics.Store.stats store in
    (* cache traffic goes to stderr in the shared [repro] one-line
       format; stdout keeps only the human timing line *)
    Metrics.Log.cache_stats ~hits:st.Metrics.Store.hits
      ~misses:st.Metrics.Store.misses ~bytes_read:st.Metrics.Store.bytes_read
      ~bytes_written:st.Metrics.Store.bytes_written
      ~tables_saved:st.Metrics.Store.tables_saved
      ~tables_skipped:st.Metrics.Store.tables_skipped;
    Printf.printf "--- %s pass: %.1fs%s ---\n\n%!" label dt
      (if ok then "" else " [sections FAILED]");
    (dt, ok, n_loops, st)
  in
  let cold_dt, cold_ok, n_loops, _ = pass "cold" in
  (* Same heap-carryover correction as the scaling points: the warm
     pass should not pay for marking the cold pass's retained runs. *)
  Gc.compact ();
  let warm_dt, warm_ok, _, warm_st = pass "warm" in
  if owned then remove_dir dir;
  let speedup = if warm_dt > 0. then cold_dt /. warm_dt else 0. in
  let ok = cold_ok && warm_ok && warm_st.Metrics.Store.misses = 0 in
  Printf.printf "warm speedup over cold: %.2fx%s\n"
    speedup
    (if warm_st.Metrics.Store.misses = 0 then ""
     else
       Printf.sprintf "  [%d warm MISSES — store not fully serving]"
         warm_st.Metrics.Store.misses);
  let payload =
    Json.Obj
      [
        ("mode", Json.Str (if quick then "warm-quick" else "warm"));
        ("loops", Json.Num (float_of_int n_loops));
        ("jobs", Json.Num (float_of_int jobs));
        ("cold_seconds", seconds cold_dt);
        ("warm_seconds", seconds warm_dt);
        ("speedup", Json.Num (Float.round (speedup *. 100.) /. 100.));
        ("cache", cache_json warm_st);
        ("ok", Json.Bool ok);
      ]
  in
  (payload, ok)

(* ------------------------------------------------------------------ *)
(* Serve throughput: coalescing burst + worker scaling                  *)
(* ------------------------------------------------------------------ *)

(* Three measurements over the serve engine (no sockets — the engine is
   the daemon minus the select loop, so the numbers track scheduling
   service capacity, not kernel I/O):

     coalesce   a batched burst of [coalesce_n] identical cold requests
                through a one-worker engine must collapse onto exactly
                one computation and answer bytes identical to the
                inline reference ("ok" requires both)
     latency    an open-loop burst of distinct requests (every loop in
                both modes, admitted upfront) measured per reply as it
                funnels back: requests/sec plus p50/p95 sojourn
     workers    the same burst re-run on fresh engines at 0/1/2/4
                worker domains; every point's replies must be
                byte-identical to the workers=0 inline reference *)

let serve_points = [ 0; 1; 2; 4 ]
let coalesce_n = 100

let run_serve ~quick () =
  let loops =
    take (if quick then 24 else 120) (Workload.Generator.suite ())
  in
  let config = Option.get (Machine.Config.of_name "4c1b2l64r") in
  let base = Option.get (Metrics.Experiment.mode_of_tag "base") in
  let repl = Option.get (Metrics.Experiment.mode_of_tag "repl") in
  let lines =
    List.concat_map
      (fun l ->
        [
          Metrics.Serve.request ~mode:base ~config l;
          Metrics.Serve.request ~mode:repl ~config l;
        ])
      loops
  in
  let n_requests = List.length lines in
  let mk workers =
    Metrics.Serve.create
      ~io:(Metrics.Serve.Io.silent ())
      ~limits:
        {
          Metrics.Serve.default_limits with
          workers;
          queue_bound = max 256 (n_requests + coalesce_n);
        }
      ~backoff:(Metrics.Backoff.none ())
      ~worker_backoff:(fun _ -> Metrics.Backoff.none ())
      ()
  in
  let with_engine workers f =
    let t = mk workers in
    Fun.protect ~finally:(fun () -> Metrics.Serve.shutdown t) (fun () -> f t)
  in
  let stat t name =
    let r = Metrics.Serve.handle t (Metrics.Serve.stats_request ()) in
    Json.to_int (Json.member name (Json.parse r))
  in
  (* -------- coalescing burst -------------------------------------- *)
  let coalesce =
    with_engine 1 @@ fun t ->
    let l = List.hd loops in
    let burst =
      Metrics.Serve.batch_request
        (List.init coalesce_n (fun _ ->
             Metrics.Serve.request ~mode:repl ~config l))
    in
    let expect =
      Metrics.Serve.batch_request
        (List.init coalesce_n (fun _ ->
             Metrics.Serve.direct_reply ~mode:repl ~config l))
    in
    (match Metrics.Serve.offer t burst with
    | None -> ()
    | Some _ -> failwith "serve bench: coalescing burst was shed");
    let rec drain acc =
      if Metrics.Serve.busy t then drain (acc @ Metrics.Serve.pump_wait t)
      else acc
    in
    let equal =
      match drain [] with [ (_, reply) ] -> reply = expect | _ -> false
    in
    let computes = stat t "computes" and coalesced = stat t "coalesced" in
    let rate =
      if computes + coalesced = 0 then 0.
      else float_of_int coalesced /. float_of_int (computes + coalesced)
    in
    let ok = equal && computes = 1 in
    Printf.printf
      "--- coalesce: burst of %d identical requests -> %d computation(s), \
       rate %.3f%s ---\n\
       %!"
      coalesce_n computes rate
      (if ok then "" else " [FAILED]");
    ( ok,
      Json.Obj
        [
          ("burst", Json.Num (float_of_int coalesce_n));
          ("computes", Json.Num (float_of_int computes));
          ("coalesced", Json.Num (float_of_int coalesced));
          ("rate", Json.Num (Float.round (rate *. 1000.) /. 1000.));
          ("ok", Json.Bool ok);
        ] )
  in
  let coalesce_ok, coalesce_json = coalesce in
  (* -------- open-loop burst, per worker count ---------------------- *)
  let run_point workers =
    with_engine workers @@ fun t ->
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun line ->
        match Metrics.Serve.admit t line with
        | Ok _ -> ()
        | Error _ -> failwith "serve bench: open-loop burst was shed")
      lines;
    let replies = ref [] and latencies = ref [] in
    while Metrics.Serve.busy t do
      let finished = Metrics.Serve.pump_wait t in
      let now = Unix.gettimeofday () in
      List.iter
        (fun (seq, reply) ->
          replies := (seq, reply) :: !replies;
          latencies := (now -. t0) :: !latencies)
        finished
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let replies =
      List.sort (fun (a, _) (b, _) -> compare a b) !replies |> List.map snd
    in
    (dt, replies, !latencies)
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.
    else sorted.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. p) +. 0.5)))
  in
  let points =
    List.map
      (fun workers ->
        let dt, replies, latencies = run_point workers in
        let rps = if dt > 0. then float_of_int n_requests /. dt else 0. in
        (workers, dt, rps, replies, latencies))
      serve_points
  in
  let reference =
    match points with (0, _, _, replies, _) :: _ -> replies | _ -> []
  in
  let points =
    List.map
      (fun (workers, dt, rps, replies, latencies) ->
        let ok = replies = reference in
        Printf.printf
          "--- serve point: %d worker(s), %d requests: %.2fs, %.0f req/s%s \
           ---\n\
           %!"
          workers n_requests dt rps
          (if ok then "" else " [replies DIVERGED from workers=0]");
        (workers, dt, rps, latencies, ok))
      points
  in
  let top =
    List.fold_left
      (fun acc (w, dt, rps, lats, _) ->
        match acc with
        | Some (w', _, _, _) when w' >= w -> acc
        | _ -> Some (w, dt, rps, lats))
      None points
  in
  let seconds_top, rps_top, p50, p95 =
    match top with
    | Some (_, dt, rps, lats) ->
        let sorted = Array.of_list lats in
        Array.sort compare sorted;
        (dt, rps, percentile sorted 0.5 *. 1000., percentile sorted 0.95 *. 1000.)
    | None -> (0., 0., 0., 0.)
  in
  let ok = coalesce_ok && List.for_all (fun (_, _, _, _, ok) -> ok) points in
  let payload =
    Json.Obj
      [
        ("mode", Json.Str (if quick then "serve-quick" else "serve"));
        ("requests", Json.Num (float_of_int n_requests));
        ("seconds", seconds seconds_top);
        ("rps", Json.Num (Float.round (rps_top *. 10.) /. 10.));
        ("p50_ms", Json.Num (Float.round (p50 *. 1000.) /. 1000.));
        ("p95_ms", Json.Num (Float.round (p95 *. 1000.) /. 1000.));
        ("coalesce", coalesce_json);
        ( "workers",
          Json.List
            (List.map
               (fun (workers, dt, rps, _, ok) ->
                 Json.Obj
                   [
                     ("workers", Json.Num (float_of_int workers));
                     ("seconds", seconds dt);
                     ("rps", Json.Num (Float.round (rps *. 10.) /. 10.));
                     ("ok", Json.Bool ok);
                   ])
               points) );
        ("ok", Json.Bool ok);
      ]
  in
  (payload, ok)

(* ------------------------------------------------------------------ *)
(* Heuristic-vs-exact gap (--gap)                                      *)
(* ------------------------------------------------------------------ *)

(* A small fixed subset of the suite's smallest loops through the exact
   SAT oracle (Sched.Exact) on the paper's reference machine: per loop,
   the best heuristic II (baseline vs replication), the oracle's II
   under a deterministic conflict cap, and whether the optimum was
   proven.  Everything the payload records except wall time is
   deterministic — heuristic, encoder and SAT core consult no clock and
   no randomness — so the regression gate holds heur/exact/proven to
   exact equality and is tolerant only on seconds.  Every exact witness
   is re-checked by the independent validator; a rejection fails the
   section (ok=false). *)
let run_gap ~quick () =
  let config = Option.get (Machine.Config.of_name "4c1b2l64r") in
  let loops =
    List.filter
      (fun (l : Workload.Generator.loop) ->
        Ddg.Graph.n_nodes l.graph <= 18)
      (Workload.Generator.suite ())
    |> take (if quick then 3 else 6)
  in
  let t0 = Unix.gettimeofday () in
  let ok = ref true in
  let rows =
    List.map
      (fun (l : Workload.Generator.loop) ->
        let g = l.graph in
        let heur =
          let base = Sched.Driver.schedule_loop config g in
          let tf, _ = Replication.Replicate.transform () in
          let repl = Sched.Driver.schedule_loop ~transform:tf config g in
          match (base, repl) with
          | Ok a, Ok b ->
              Some (if b.Sched.Driver.ii <= a.Sched.Driver.ii then b else a)
          | Ok a, Error _ -> Some a
          | Error _, Ok b -> Some b
          | Error _, Error _ -> None
        in
        match heur with
        | None ->
            Json.Obj
              [
                ("id", Json.Str l.id);
                ("nodes", Json.Num (float_of_int (Ddg.Graph.n_nodes g)));
                ("note", Json.Str "heuristic-gave-up");
              ]
        | Some o ->
            let heur_ii = o.Sched.Driver.ii in
            let horizon =
              Sched.Schedule.length o.Sched.Driver.schedule + heur_ii + 2
            in
            let exact_ii, proven, note =
              match
                Sched.Exact.minimum_ii ~horizon ~max_ii:heur_ii
                  ~max_conflicts:20_000 ~max_cegar:40 config g
              with
              | Ok f ->
                  (match
                     Check.Validate.run ~original:g f.Sched.Exact.f_schedule
                   with
                  | Ok () -> ()
                  | Error _ ->
                      ok := false;
                      Printf.printf
                        "--- gap: %s witness REJECTED by the validator ---\n%!"
                        l.id);
                  (f.Sched.Exact.f_ii, f.Sched.Exact.f_proven, "exact")
              | Error e ->
                  (heur_ii, false, Sched.Sched_error.class_name e)
            in
            if exact_ii > heur_ii then begin
              ok := false;
              Printf.printf "--- gap: %s exact II %d ABOVE heuristic %d ---\n%!"
                l.id exact_ii heur_ii
            end;
            Printf.printf "gap %-12s heur=%d exact=%d proven=%b (%s)\n%!" l.id
              heur_ii exact_ii proven note;
            Json.Obj
              [
                ("id", Json.Str l.id);
                ("nodes", Json.Num (float_of_int (Ddg.Graph.n_nodes g)));
                ("heur_ii", Json.Num (float_of_int heur_ii));
                ("exact_ii", Json.Num (float_of_int exact_ii));
                ("gap", Json.Num (float_of_int (heur_ii - exact_ii)));
                ("proven", Json.Bool proven);
                ("note", Json.Str note);
              ])
      loops
  in
  let total = Unix.gettimeofday () -. t0 in
  let int_field name row =
    match Json.member_opt name row with
    | Some (Json.Num n) -> int_of_float n
    | _ -> 0
  in
  let proven_n =
    List.length
      (List.filter (fun r -> Json.member_opt "proven" r = Some (Json.Bool true))
         rows)
  in
  let total_gap = List.fold_left (fun a r -> a + int_field "gap" r) 0 rows in
  Printf.printf "gap: %d loops, %d proven optimal, total gap %d\n%!"
    (List.length rows) proven_n total_gap;
  let payload =
    Json.Obj
      [
        ("mode", Json.Str (if quick then "gap-quick" else "gap"));
        ("loops", Json.Num (float_of_int (List.length rows)));
        ("proven", Json.Num (float_of_int proven_n));
        ("total_gap", Json.Num (float_of_int total_gap));
        ("seconds", seconds total);
        ("rows", Json.List rows);
        ("ok", Json.Bool !ok);
      ]
  in
  (payload, !ok)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let run_ablations ~quick ~jobs =
  let loops = if quick then quick_loops () else Workload.Generator.suite () in
  let config = Option.get (Machine.Config.of_name "4c1b2l64r") in
  let run_variant name transform =
    let runs =
      (* one transform instance per loop: its stats ref must not be
         shared between domains *)
      Metrics.Pool.map ~jobs
        (fun l ->
          let t, stats_ref = transform () in
          match
            Metrics.Experiment.run_with ~transform:(Some t) ~stats_ref config l
          with
          | Ok r -> r
          | Error e -> failwith (Sched.Sched_error.to_string e))
        loops
    in
    let groups = Metrics.Experiment.group_by_benchmark runs in
    let hm =
      Metrics.Experiment.hmean
        (List.map (fun (_, rs) -> Metrics.Experiment.ipc rs) groups)
    in
    let added =
      List.fold_left
        (fun acc (r : Metrics.Experiment.loop_run) ->
          match r.repl_stats with
          | Some st -> acc + st.Replication.Replicate.added_instances
          | None -> acc)
        0 runs
    in
    (name, hm, added)
  in
  let variants =
    [
      ("paper (lowest weight)", fun () -> Replication.Replicate.transform ());
      ( "first feasible",
        fun () ->
          Replication.Replicate.transform
            ~heuristic:Replication.Replicate.First_come () );
      ( "fewest added instrs",
        fun () ->
          Replication.Replicate.transform
            ~heuristic:Replication.Replicate.Fewest_added () );
      ( "no sharing discount",
        fun () -> Replication.Replicate.transform ~share_discount:false () );
      ( "no removable credit",
        fun () -> Replication.Replicate.transform ~removable_credit:false () );
      ("macro-node cones (s5.2)", fun () -> Replication.Macro.transform ());
    ]
  in
  Printf.printf "Ablations of the replication heuristic on %s:\n\n"
    (Machine.Config.name config);
  let rows =
    List.map
      (fun (name, tr) ->
        let name, hm, added = run_variant name tr in
        [ name; Metrics.Table.f2 hm; string_of_int added ])
      variants
  in
  print_string
    (Metrics.Table.render
       ~header:[ "variant"; "HMEAN IPC"; "static replicas" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Extension: loop unrolling vs replication (related work, Section 6)  *)
(* ------------------------------------------------------------------ *)

let run_extensions ~quick ~jobs =
  let loops = if quick then quick_loops () else Workload.Generator.suite () in
  (* unrolling multiplies the body; keep the evaluation affordable *)
  let loops = if quick then loops else take 200 loops in
  let config = Option.get (Machine.Config.of_name "4c1b2l64r") in
  let evaluate name prepare transform =
    let per_loop =
      Metrics.Pool.filter_map ~jobs
        (fun l ->
          let l = prepare l in
          let tr, stats_ref =
            match transform with
            | Some mk -> (let t, r = mk () in (Some t, r))
            | None -> (None, ref None)
          in
          match
            Metrics.Experiment.run_with ~transform:tr ~stats_ref config l
          with
          | Ok r ->
              let sched = r.Metrics.Experiment.outcome.Sched.Driver.schedule in
              let n =
                Ddg.Graph.n_nodes sched.Sched.Schedule.route.Sched.Route.graph
              in
              Some (r, n)
          | Error _ -> None)
        loops
    in
    let runs = List.rev_map fst per_loop in
    let kernel_ops = List.fold_left (fun acc (_, n) -> acc + n) 0 per_loop in
    let groups = Metrics.Experiment.group_by_benchmark runs in
    let hm =
      Metrics.Experiment.hmean
        (List.filter_map
           (fun (_, rs) ->
             if rs = [] then None else Some (Metrics.Experiment.ipc rs))
           groups)
    in
    [ name; Metrics.Table.f2 hm; string_of_int kernel_ops ]
  in
  Printf.printf
    "Extension: unrolling vs replication on %s (%d loops).\n\
     Unrolling also removes communications but multiplies the kernel,\n\
     which is what the paper's DSP context cannot afford (Section 6).\n\n"
    (Machine.Config.name config) (List.length loops);
  let rows =
    [
      evaluate "baseline" Fun.id None;
      evaluate "replication" Fun.id
        (Some (fun () -> Replication.Replicate.transform ()));
      evaluate "unroll x2" (fun l -> Workload.Unroll.unrolled_loop l ~factor:2)
        None;
      evaluate "unroll x2 + replication"
        (fun l -> Workload.Unroll.unrolled_loop l ~factor:2)
        (Some (fun () -> Replication.Replicate.transform ()));
    ]
  in
  print_string
    (Metrics.Table.render
       ~header:[ "scheme"; "HMEAN IPC"; "static kernel ops" ]
       rows);
  (* -------- acyclic blocks (Section 6: "can also be applied") ------ *)
  let acyclic_of g =
    let b = Ddg.Graph.Builder.create ~name:(Ddg.Graph.name g ^ ".a") () in
    List.iter
      (fun v ->
        ignore
          (Ddg.Graph.Builder.add b ~label:(Ddg.Graph.label g v)
             (Ddg.Graph.op g v)))
      (Ddg.Graph.nodes g);
    List.iter
      (fun e ->
        if e.Ddg.Graph.distance = 0 then
          match e.Ddg.Graph.kind with
          | Ddg.Graph.Reg ->
              Ddg.Graph.Builder.depend b ~latency:e.Ddg.Graph.latency
                ~src:e.Ddg.Graph.src ~dst:e.Ddg.Graph.dst
          | Ddg.Graph.Mem ->
              Ddg.Graph.Builder.mem_depend b ~src:e.Ddg.Graph.src
                ~dst:e.Ddg.Graph.dst)
      (Ddg.Graph.edges g);
    Ddg.Graph.Builder.build b
  in
  let blocks = take 120 loops in
  let spans =
    Metrics.Pool.filter_map ~jobs
      (fun (l : Workload.Generator.loop) ->
        match Replication.Acyclic.improve config (acyclic_of l.graph) with
        | Error _ -> None
        | Ok r ->
            Some
              ( r.Replication.Acyclic.baseline.Sched.Listsched.makespan,
                r.Replication.Acyclic.improved.Sched.Listsched.makespan ))
      blocks
  in
  let base_span = ref 0 and repl_span = ref 0 and improved = ref 0 in
  List.iter
    (fun (b, i) ->
      base_span := !base_span + b;
      repl_span := !repl_span + i;
      if i < b then incr improved)
    spans;
  Printf.printf
    "\nAcyclic blocks (loop bodies as straight-line code, %d blocks):\n\
    \  total makespan %d -> %d cycles (%.1f%% shorter), %d blocks improved\n"
    (List.length blocks) !base_span !repl_span
    (100.
    *. (1. -. (float_of_int !repl_span /. float_of_int (max 1 !base_span))))
    !improved;
  (* -------- cross-path copies: transfers steal an int issue slot ---- *)
  let xp = Machine.Config.with_copy_int_slot config in
  let sample = take 120 loops in
  let hmean_of cfg transform =
    let runs =
      Metrics.Pool.filter_map ~jobs
        (fun l ->
          let tr, stats_ref =
            match transform with
            | Some mk ->
                let t, r = mk () in
                (Some t, r)
            | None -> (None, ref None)
          in
          Result.to_option
            (Metrics.Experiment.run_with ~transform:tr ~stats_ref cfg l))
        sample
    in
    Metrics.Experiment.hmean
      (List.filter_map
         (fun (_, rs) ->
           if rs = [] then None else Some (Metrics.Experiment.ipc rs))
         (Metrics.Experiment.group_by_benchmark runs))
  in
  Printf.printf
    "\nCross-path copies (a transfer also issues through an integer unit\n\
     of the producer cluster, as on machines without dedicated bus ports):\n\n";
  print_string
    (Metrics.Table.render
       ~header:[ "machine"; "baseline"; "replication"; "gain" ]
       (List.map
          (fun cfg ->
            let b = hmean_of cfg None in
            let r =
              hmean_of cfg
                (Some (fun () -> Replication.Replicate.transform ()))
            in
            [
              Machine.Config.name cfg;
              Metrics.Table.f2 b;
              Metrics.Table.f2 r;
              Printf.sprintf "%+.0f%%" (100. *. (r /. b -. 1.));
            ])
          [ config; xp ]))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  let open Bechamel in
  let loops = Workload.Generator.generate (Workload.Benchmark.find "tomcatv") in
  let loop = List.hd loops in
  let g = loop.Workload.Generator.graph in
  let config = Option.get (Machine.Config.of_name "4c1b2l64r") in
  let mii = Ddg.Mii.mii config g in
  let assign = Sched.Partition.initial config g ~ii:mii in
  let tests =
    [
      Test.make ~name:"mii" (Staged.stage (fun () -> Ddg.Mii.mii config g));
      Test.make ~name:"partition_initial"
        (Staged.stage (fun () -> Sched.Partition.initial config g ~ii:mii));
      Test.make ~name:"partition_refine"
        (Staged.stage (fun () ->
             Sched.Partition.refine config g ~ii:(mii + 1) assign));
      Test.make ~name:"replication_pass"
        (Staged.stage (fun () ->
             Replication.Replicate.run config g ~assign ~ii:mii));
      Test.make ~name:"schedule_baseline"
        (Staged.stage (fun () -> Sched.Driver.schedule_loop config g));
      Test.make ~name:"schedule_replication"
        (Staged.stage (fun () ->
             let t, _ = Replication.Replicate.transform () in
             Sched.Driver.schedule_loop ~transform:t config g));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Printf.printf "Micro-benchmarks (tomcatv.0, %s):\n\n"
    (Machine.Config.name config);
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-24s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-24s (no estimate)\n%!" name)
        results)
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let has f = List.mem f args in
  let value_of flag =
    let rec find = function
      | f :: v :: _ when String.equal f flag -> Some v
      | _ :: tl -> find tl
      | [] -> None
    in
    find args
  in
  let only = Option.map (String.split_on_char ',') (value_of "--only") in
  let jobs_requested =
    match value_of "--jobs" with
    | None -> Metrics.Pool.default_jobs ()
    | Some v -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> j
        | _ ->
            prerr_endline "bench: --jobs expects a positive integer";
            exit 2)
  in
  let jobs = Metrics.Pool.clamp_jobs jobs_requested in
  Metrics.Log.clamp_warning ~requested:jobs_requested ~effective:jobs;
  let bench_json = value_of "--bench-json" in
  let quick = has "--quick" in
  let profiling = has "--profile" in
  if profiling then Sched.Profile.set_enabled true;
  let t0 = Unix.gettimeofday () in
  let timed id f =
    let t = Unix.gettimeofday () in
    let ok =
      match f () with
      | () -> true
      | exception e ->
          Printf.printf "%s FAILED: %s\n%!" id (Printexc.to_string e);
          false
    in
    [ { t_id = id; t_seconds = Unix.gettimeofday () -. t; t_ok = ok } ]
  in
  let cache_dir = value_of "--cache" in
  if has "--scaling" then begin
    let payload, ok = run_scaling ~quick () in
    Printf.printf "total: %.1fs\n" (Unix.gettimeofday () -. t0);
    (match bench_json with
    | Some path ->
        write_bench_json path ~slot:"scaling" payload;
        Printf.printf "wrote %s\n" path
    | None -> ());
    exit (if ok then 0 else 1)
  end;
  if has "--warm" then begin
    let payload, ok = run_warm ~quick ~jobs ~dir:cache_dir () in
    Printf.printf "total: %.1fs\n" (Unix.gettimeofday () -. t0);
    (match bench_json with
    | Some path ->
        write_bench_json path ~slot:"warm" payload;
        Printf.printf "wrote %s\n" path
    | None -> ());
    exit (if ok then 0 else 1)
  end;
  if has "--serve" then begin
    let payload, ok = run_serve ~quick () in
    Printf.printf "total: %.1fs\n" (Unix.gettimeofday () -. t0);
    (match bench_json with
    | Some path ->
        write_bench_json path ~slot:"serve" payload;
        Printf.printf "wrote %s\n" path
    | None -> ());
    exit (if ok then 0 else 1)
  end;
  if has "--gap" then begin
    let payload, ok = run_gap ~quick () in
    Printf.printf "total: %.1fs\n" (Unix.gettimeofday () -. t0);
    (match bench_json with
    | Some path ->
        write_bench_json path ~slot:"gap" payload;
        Printf.printf "wrote %s\n" path
    | None -> ());
    exit (if ok then 0 else 1)
  end;
  let store = ref None in
  let mode, (timings, n_loops, suite) =
    if has "--micro" then ("micro", (timed "micro" run_micro, 0, None))
    else if has "--ablate" then
      ( "ablate",
        (timed "ablate" (fun () -> run_ablations ~quick ~jobs), 0, None) )
    else if has "--extensions" then
      ( "extensions",
        (timed "extensions" (fun () -> run_extensions ~quick ~jobs), 0, None)
      )
    else begin
      let s = Option.map (fun dir -> Metrics.Store.create ~dir ()) cache_dir in
      store := s;
      let t, n, su = run_figures ~quick ~only ~jobs ?store:s () in
      ("figures", (t, n, Some su))
    end
  in
  (* The hard-loop driver comparison rides along with full figure runs
     (the only mode whose payload the regression gate reads for it),
     classifying its subset from the suite the figures just filled.
     Both timed drivers run on the same post-figures heap, so the
     seq/reuse comparison stays internally fair. *)
  let hard =
    match suite with
    | Some s when (not quick) && only = None -> Some (run_hard ~suite:s ())
    | _ -> None
  in
  let total = Unix.gettimeofday () -. t0 in
  let cache =
    match !store with
    | None -> None
    | Some s ->
        Metrics.Store.save s;
        let st = Metrics.Store.stats s in
        Printf.printf "cache: %d hits, %d misses, %dB read, %dB written\n"
          st.Metrics.Store.hits st.Metrics.Store.misses
          st.Metrics.Store.bytes_read st.Metrics.Store.bytes_written;
        Some (cache_json st)
  in
  let profile = if profiling then Sched.Profile.snapshot () else [] in
  let profile_gc = if profiling then Sched.Profile.alloc_snapshot () else [] in
  if profile <> [] then begin
    Printf.printf "scheduler phase profile:\n";
    List.iter
      (fun (p, s) -> Printf.printf "  %-12s %.2fs\n" p s)
      profile;
    print_newline ()
  end;
  if profile_gc <> [] then begin
    Printf.printf "scheduler phase allocation (Mwords minor / major):\n";
    List.iter
      (fun (p, (minor, major)) ->
        Printf.printf "  %-12s %8.1f / %8.1f\n" p
          (float_of_int minor /. 1e6)
          (float_of_int major /. 1e6))
      profile_gc;
    print_newline ()
  end;
  Printf.printf "total: %.1fs\n" total;
  (match bench_json with
  | Some path ->
      let payload =
        payload_json ~mode ~jobs ~jobs_requested ~n_loops ~timings ~total
          ~profile ~profile_gc ~cache ~hard
      in
      write_bench_json path ~slot:(if quick then "quick" else "full") payload;
      Printf.printf "wrote %s\n" path
  | None -> ());
  if List.exists (fun t -> not t.t_ok) timings then exit 1
