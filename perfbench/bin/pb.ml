(* One workload of the benchmark, in one process.  Prints one JSON line
   on stdout (Out.to_json); perfbench/run.py turns it into the result
   line.  Usage:

     pb.exe WORKLOAD --seed N --seconds S --dir D [--trace] [--repro EXE]

   WORKLOAD is figures-cold, figures-warm, serve-open or exact-gap.
   Two more run as child processes: setup times the input generation,
   and warm-fill fills figures-warm's store.  D is a scratch directory
   for stores, sockets and span files.  With --trace the timed pass
   runs twice, untraced then traced, and the per-layer metrics are
   reported instead of the end-to-end ones. *)

open Perfbench

type args = {
  workload : string;
  seed : int;
  seconds : float;
  dir : string;
  trace : bool;
  repro : string;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.;
        dir = ".perfbench";
        trace = false;
        repro = "_build/default/bin/repro.exe";
      }
  in
  let rec go = function
    | "--seed" :: v :: tl -> a := { !a with seed = int_of_string v }; go tl
    | "--seconds" :: v :: tl -> a := { !a with seconds = float_of_string v }; go tl
    | "--dir" :: v :: tl -> a := { !a with dir = v }; go tl
    | "--repro" :: v :: tl -> a := { !a with repro = v }; go tl
    | "--trace" :: tl -> a := { !a with trace = true }; go tl
    | w :: tl when !a.workload = "" -> a := { !a with workload = w }; go tl
    | [] -> ()
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

let timed f =
  let t = Inputs.now () in
  let x = f () in
  (x, Inputs.now () -. t)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* Run this program on [workload] in a child process, with [seed] and
   directory [dir], and read back its result line. *)
let child a ~workload ~seed ~dir =
  let out_file = Filename.concat a.dir (workload ^ ".json") in
  let fd = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; workload; "--seed"; string_of_int seed; "--dir"; dir |]
          Unix.stdin fd Unix.stderr)
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (workload ^ " failed"));
  let j = Metrics.Json.parse (String.trim (read_file out_file)) in
  Sys.remove out_file;
  j

let metric j name =
  Metrics.Json.to_num
    (Metrics.Json.member "value" (Metrics.Json.member name (Metrics.Json.member "metrics" j)))

(* Set-up is timed this many times and its median reported, in a child
   process of its own, so that the repeats share neither heap nor peak
   memory with the pass.  Each repeat's garbage is collected, untimed,
   before it starts. *)
let setup_repeats = 11

let setup a =
  let out = Out.create () in
  let times =
    List.init setup_repeats (fun _ ->
        Gc.full_major ();
        snd (timed (fun () -> Inputs.suite ~seed:a.seed)))
  in
  Out.set out "setup_s" "s" (Stats.median times);
  out

(* The inputs, and the time it takes to set them up. *)
let generate a ~seed =
  let loops = Inputs.suite ~seed in
  (loops, metric (child a ~workload:"setup" ~seed ~dir:a.dir) "setup_s")

let spans_file a = Filename.concat a.dir (Printf.sprintf "spans-%s-%d.jsonl" a.workload a.seed)

(* The gated figures.  The timed part's CPU and wall times are printed
   beside them, not gated: on a shared host they drift by more than any
   bound could absorb (see perfbench/README.md). *)
let end_to_end out ~setup ~cpu ~wall ~rss ~ipc:(base, repl) ~added ~proven =
  Out.note out "wall_s" (Printf.sprintf "%.3f s" wall);
  Out.note out "cpu_s" (Printf.sprintf "%.3f s" cpu);
  Out.set out "setup_s" "s" setup;
  Out.set out "peak_rss_mb" "MB" rss;
  Out.set out "ok_frac" "ratio" (Out.ok_frac out);
  Out.set out "ipc_base" "IPC" base;
  Out.set out "ipc_repl" "IPC" repl;
  Out.set out "added_instr_pct" "%" added;
  Out.set out "proven_frac" "ratio" proven

(* ------------------------------------------------------------------ *)
(* figures-cold                                                        *)
(* ------------------------------------------------------------------ *)

let check_pass out (p : Figures_wl.pass) =
  let failed = List.filter (fun (part : Figures_wl.part) -> Result.is_error part.text) p.parts in
  Out.count out ~attempted:(List.length p.parts) ~failed:(List.length failed);
  List.iter
    (fun (part : Figures_wl.part) ->
      match part.text with
      | Error e -> Out.note out ("failed." ^ part.id) e
      | Ok _ -> ())
    failed

(* Every Fig. 7 run re-checked by Check.Validate. *)
let validate out suite =
  let (checked, bad), dt = timed (fun () -> Figures_wl.validate suite) in
  Out.count out ~attempted:checked ~failed:(List.length bad);
  List.iteri (fun i b -> if i < 5 then Out.note out (Printf.sprintf "invalid.%d" i) b) bad;
  (checked, dt)

let figures_quality suite =
  ( Figures_wl.ipc suite,
    Figures_wl.added_instr_pct suite,
    Figures_wl.at_mii_frac suite )

let figures_layers out (p : Figures_wl.pass) =
  List.iter
    (fun (part : Figures_wl.part) ->
      Out.set out ("figures." ^ part.id ^ "_s") "s" part.seconds)
    p.parts;
  let rendered = Stats.sum (List.map (fun (part : Figures_wl.part) -> part.seconds) p.parts) in
  Out.set out "figures.unattributed_s" "s" (p.wall -. rendered);
  rendered

let figures_cold a =
  let out = Out.create () in
  let loops, setup = generate a ~seed:a.seed in
  Out.note out "inputs" (Inputs.digest loops);
  let first = Figures_wl.pass loops in
  check_pass out first;
  if not a.trace then begin
    let checked, _ = validate out first.suite in
    Out.note out "validated" (string_of_int checked);
    let ipc, added, proven = figures_quality first.suite in
    let rss = Inputs.peak_rss_mb () in
    end_to_end out ~setup ~cpu:first.cpu ~wall:first.wall ~rss ~ipc ~added ~proven;
    out
  end
  else begin
    let untraced = first.wall in
    let tr = Out.create () in
    tr.Out.attempted <- out.attempted;
    tr.Out.failed <- out.failed;
    Out.set tr "pass.cpu_s" "s" first.cpu;
    let w = Trace.begin_ ~run:(Printf.sprintf "figures-cold/%d" a.seed) in
    let loops, gen = timed (fun () -> Inputs.suite ~seed:a.seed) in
    Out.set tr "workload.generate_s" "s" gen;
    let p = Figures_wl.pass loops in
    check_pass tr p;
    let rendered = figures_layers tr p in
    Trace.profile tr ~sched_total:rendered;
    let checked, dt = validate tr p.suite in
    Out.set tr "check.validate_s" "s" dt;
    Out.set tr "check.schedules" "count" (float_of_int checked);
    Trace.end_ w tr ~overhead:(p.wall -. untraced) ~spans_file:(spans_file a);
    tr
  end

(* ------------------------------------------------------------------ *)
(* figures-warm                                                        *)
(* ------------------------------------------------------------------ *)

let store_dir a = Filename.concat a.dir (Printf.sprintf "store-%d-%d" a.seed (Unix.getpid ()))

(* Set-up, in its own process: the cold pass that fills the store, and
   the store's save.  The cold report goes to [dir].txt. *)
let warm_fill a =
  let out = Out.create () in
  let loops = Inputs.suite ~seed:a.seed in
  let store = Metrics.Store.create ~dir:a.dir () in
  let p = Figures_wl.pass ~store loops in
  check_pass out p;
  let (), save = timed (fun () -> Metrics.Store.save store) in
  let st = Metrics.Store.stats store in
  let oc = open_out_bin (a.dir ^ ".txt") in
  output_string oc (Figures_wl.text p);
  close_out oc;
  Out.set out "store.fill_s" "s" p.wall;
  Out.set out "store.save_s" "s" save;
  Out.set out "store.bytes_written" "bytes" (float_of_int st.bytes_written);
  out

let run_fill a dir =
  let j = child a ~workload:"warm-fill" ~seed:a.seed ~dir in
  let failed = Metrics.Json.to_int (Metrics.Json.member "failed" j) in
  (metric j "store.fill_s", metric j "store.save_s", metric j "store.bytes_written", failed)

(* One warm pass on a fresh store over the filled directory. *)
let warm_pass out loops dir cold_text =
  let store = Metrics.Store.create ~dir () in
  let p = Figures_wl.pass ~store loops in
  check_pass out p;
  let st = Metrics.Store.stats store in
  let ok = Figures_wl.warm_ok ~cold:cold_text ~text:(Figures_wl.text p) ~misses:st.misses in
  Out.count out ~attempted:1 ~failed:(if ok then 0 else 1);
  if not ok then
    Out.note out "warm" (Printf.sprintf "differs from the cold pass, %d misses" st.misses);
  (p, st)

(* Time Store.lookup on a fresh store whose tables are already loaded:
   fingerprint plus confirmation, the per-request cost of a hit. *)
let lookup_us dir loops =
  let store = Metrics.Store.create ~dir () in
  let keys =
    List.concat_map
      (fun config ->
        List.concat_map (fun mode -> List.map (fun l -> (mode, config, l)) loops)
          Figures_wl.modes)
      Machine.Config.paper_configs
  in
  (* a first lookup per table loads it from disk *)
  List.iter
    (fun (mode, config, l) ->
      ignore (Span.within "Metrics.Store.lookup (table load)" (fun () ->
          Metrics.Store.lookup store ~mode ~config l)))
    (List.filteri (fun i _ -> i mod 97 = 0) keys);
  List.filteri (fun i _ -> i mod 7 = 0) keys
  |> List.map (fun (mode, config, l) ->
         let t = Inputs.now () in
         ignore (Span.within "Metrics.Store.lookup" (fun () ->
             Metrics.Store.lookup store ~mode ~config l));
         1e6 *. (Inputs.now () -. t))

let figures_warm a =
  let dir = store_dir a in
  Fun.protect
    ~finally:(fun () ->
      Figures_wl.remove_tree dir;
      if Sys.file_exists (dir ^ ".txt") then Sys.remove (dir ^ ".txt"))
    (fun () ->
      let out = Out.create () in
      (* the fill is set-up, but its wall time is a cold figures pass
         and a save, which drift with the host like wall_s: it is
         reported, not gated (see perfbench/README.md) *)
      let fill_s, save_s, written, fill_failed = run_fill a dir in
      Out.count out ~attempted:11 ~failed:fill_failed;
      let cold_text = read_file (dir ^ ".txt") in
      let loops, setup = generate a ~seed:a.seed in
      Out.note out "inputs" (Inputs.digest loops);
      Out.note out "fill"
        (Printf.sprintf "cold pass %.3f s, Store.save %.3f s of %.0f bytes" fill_s save_s written);
      let first, st = warm_pass out loops dir cold_text in
      if not a.trace then begin
        let ipc, added, proven = figures_quality first.suite in
        let rss = Inputs.peak_rss_mb () in
        Out.note out "warm.hits" (string_of_int st.hits);
        end_to_end out ~setup ~cpu:first.cpu ~wall:first.wall ~rss ~ipc ~added ~proven;
        out
      end
      else begin
        let untraced = first.wall in
        let tr = Out.create () in
        tr.Out.attempted <- out.attempted;
        tr.Out.failed <- out.failed;
        Out.set tr "pass.cpu_s" "s" first.cpu;
        let w = Trace.begin_ ~run:(Printf.sprintf "figures-warm/%d" a.seed) in
        let loops, gen = timed (fun () -> Inputs.suite ~seed:a.seed) in
        Out.set tr "workload.generate_s" "s" gen;
        let p, st = warm_pass tr loops dir cold_text in
        let rendered = figures_layers tr p in
        Trace.profile tr ~sched_total:rendered;
        Out.set tr "store.hits" "count" (float_of_int st.hits);
        Out.set tr "store.misses" "count" (float_of_int st.misses);
        Out.set tr "store.bytes_read" "bytes" (float_of_int st.bytes_read);
        Out.set tr "store.bytes_written" "bytes" written;
        Out.set tr "store.fill_s" "s" fill_s;
        Out.set tr "store.save_s" "s" save_s;
        let _, parse_s = Figures_wl.parse_tables dir in
        Out.set tr "json.parse_s" "s" parse_s;
        let (), fp =
          timed (fun () ->
              List.iter
                (fun (l : Workload.Generator.loop) ->
                  ignore (Span.within "Ddg.Fingerprint.canonical" (fun () ->
                      Ddg.Fingerprint.canonical l.graph)))
                loops)
        in
        Out.set tr "ddg.fingerprint_s" "s" fp;
        Out.pct tr "store.lookup_us_p50" "us" 50. (lookup_us dir loops);
        Trace.end_ w tr ~overhead:(p.wall -. untraced) ~spans_file:(spans_file a);
        tr
      end)

(* ------------------------------------------------------------------ *)
(* serve-open                                                          *)
(* ------------------------------------------------------------------ *)

(* The nominal rate sits far below what the daemon sustains on a 2-core
   host (about 1000-1400 req/s), so p50/p99 measure service plus
   ordinary queueing, and a host pause has to last over 300 ms before
   the daemon's 64-slot queue sheds.  The stream lasts --seconds; at
   12 s it gives a p99 with 20 samples beyond it and, traced, about 1000
   distinct misses.  The rate search's latency limit is 100 ms, not 50:
   the daemon pauses for 40-50 ms about once a second at any load, and
   at 50 ms those pauses alone decided whether a step passed. *)
let nominal_rate = 200.
let nominal_lines a = int_of_float (nominal_rate *. a.seconds)
let search_lines = 1500
let latency_limit_ms = 100.
let search_cap = 8000.
let bisections = 4

let conns () = max 1 (min 2 (Domain.recommended_domain_count ()))

(* What a phase learns about its daemon besides the replies. *)
type daemon_figures = {
  stats : Metrics.Json.t;  (** the [stats] reply after the stream *)
  rss : float;  (** peak resident MB *)
  cpu : float;  (** CPU seconds spent on the stream *)
  daemon : Serve_wl.daemon;
}

(* One open-loop phase on a fresh daemon, warmed up on [warmup]. *)
let phase a ~tag ?gc_report ~warmup ~rate lines starts =
  let d, start_s =
    timed (fun () -> Serve_wl.start ~repro:a.repro ~dir:a.dir ~tag ?gc_report ~warmup ())
  in
  starts := start_s :: !starts;
  Fun.protect ~finally:(fun () -> Serve_wl.stop d) (fun () ->
      let c0 = Inputs.proc_cpu d.pid in
      let run =
        Span.within "repro serve (socket)" (fun () ->
            Serve_wl.drive ~socket:d.socket ~conns:(conns ()) ~rate lines)
      in
      let cpu = Inputs.proc_cpu d.pid -. c0 in
      let stats = Serve_wl.stats d in
      let rss = Inputs.peak_rss_mb ~pid:(string_of_int d.pid) () in
      (run, { stats; rss; cpu; daemon = d }))

let sustains ~rate run =
  let lat = Serve_wl.latencies_ms run in
  let p99 =
    match Stats.percentile 99. lat with
    | Some p -> p.Stats.value
    | None -> List.fold_left Float.max 0. lat
  in
  let missing = List.length (Serve_wl.samples run) - List.length lat in
  let shed = Serve_wl.overloaded run in
  let grows = Stats.backlog_grows (Serve_wl.samples run) in
  let ok = missing = 0 && shed = 0 && p99 <= latency_limit_ms && not grows in
  Printf.eprintf "serve step %.0f req/s: p99 %.1f ms, %d shed, %d missing%s -> %s\n%!"
    rate p99 shed missing (if grows then ", backlog grows" else "")
    (if ok then "sustained" else "not sustained");
  ok

(* Highest offered rate the daemon sustains: from four times the
   nominal rate (whose phase [nominal_ok] already judged), double until
   a step fails, then bisect geometrically. *)
let max_rps a ~warmup lines starts ~nominal_ok on_step =
  (* a step lasts at most about two seconds, so a search that has to
     go below the nominal rate still ends in time *)
  let prefix rate =
    Array.sub lines 0 (min (Array.length lines) (min search_lines (max 200 (int_of_float (2. *. rate)))))
  in
  let attempt rate k =
    let run, _ =
      phase a ~tag:(Printf.sprintf "r%.0f-%d" rate k) ~warmup ~rate (prefix rate) starts
    in
    on_step run;
    sustains ~rate run
  in
  (* a failed step is run once more: one pause of the daemon must not
     decide the search *)
  let step rate = attempt rate 0 || attempt rate 1 in
  let rec grow lo r =
    if r > search_cap then (lo, r)
    else if step r then grow r (r *. 2.)
    else (lo, r)
  in
  let rec shrink r = if r < 50. then (0., r) else if step r then (r, r *. 2.) else shrink (r /. 2.) in
  let lo, hi =
    if nominal_ok then grow nominal_rate (nominal_rate *. 4.)
    else shrink (nominal_rate /. 2.)
  in
  let rec bisect lo hi k =
    if k = 0 || lo = 0. then lo
    else
      let mid = sqrt (lo *. hi) in
      if step mid then bisect mid hi (k - 1) else bisect lo mid (k - 1)
  in
  bisect lo hi bisections

(* First due time to last reply. *)
let makespan (run : Serve_wl.run) =
  Array.fold_left (fun acc t -> if Float.is_nan t then acc else Float.max acc t) 0. run.replied
  -. run.due.(0)

let stat_int j k = float_of_int (Metrics.Json.to_int (Metrics.Json.member k j))

(* The daemon's end-of-run GC report (OCAMLRUNPARAM=v=0x400). *)
let gc_report out log =
  let text = try read_file log with Sys_error _ -> "" in
  let field name =
    let key = name ^ ": " in
    match
      List.find_opt
        (fun l -> String.length l > String.length key && String.sub l 0 (String.length key) = key)
        (String.split_on_char '\n' text)
    with
    | Some l ->
        float_of_string
          (String.trim (String.sub l (String.length key) (String.length l - String.length key)))
    | None -> 0.
  in
  Out.set out "gc.minor_collections" "count" (field "minor_collections");
  Out.set out "gc.major_collections" "count" (field "major_collections");
  Out.set out "gc.promoted_mw" "Mw" (field "promoted_words" /. 1e6);
  Out.set out "gc.top_heap_mb" "MB" (field "top_heap_words" *. float_of_int (Sys.word_size / 8) /. 1e6)

let serve_open a =
  let out = Out.create () in
  let loops, gen = generate a ~seed:a.seed in
  Out.note out "inputs" (Inputs.digest loops);
  let lines = Serve_wl.stream ~seed:a.seed ~n:(nominal_lines a) loops in
  let starts = ref [] in
  let warmup = List.filteri (fun i _ -> i mod 85 = 0) loops in
  let run, nominal = phase a ~tag:"nominal" ~warmup ~rate:nominal_rate lines starts in
  let stats = nominal.stats in
  let refs = Serve_wl.references lines in
  let failed = Serve_wl.failures refs run in
  Out.count out ~attempted:(Array.fold_left (fun acc l -> acc + Serve_wl.requests l) 0 lines) ~failed;
  let shares = Serve_wl.shares lines in
  Out.note out "shares"
    (Printf.sprintf "repeat %.3f burst %.3f batch %.3f of %d requests" shares.repeat
       shares.burst shares.batch shares.n_req);
  let lat = Serve_wl.latencies_ms run in
  let pct p = Option.fold ~none:(-1.) ~some:(fun v -> v.Stats.value) (Stats.percentile p lat) in
  Out.note out "latency"
    (Printf.sprintf "p50_ms %.3f ms, p99_ms %.3f ms over %d samples at %.0f req/s"
       (pct 50.) (pct 99.) (List.length lat) nominal_rate);
  if not a.trace then begin
    (* set-up adds the median of the daemon starts *)
    for i = 2 to setup_repeats do
      let d, start_s =
        timed (fun () ->
            Serve_wl.start ~repro:a.repro ~dir:a.dir ~tag:(Printf.sprintf "start%d" i) ~warmup ())
      in
      starts := start_s :: !starts;
      Serve_wl.stop d
    done;
    let served = Serve_wl.served refs lines in
    Out.note out "daemon"
      (Printf.sprintf "hits %.0f misses %.0f coalesced %.0f overloaded %.0f"
         (stat_int stats "hits") (stat_int stats "misses") (stat_int stats "coalesced")
         (stat_int stats "overloaded"));
    end_to_end out
      ~setup:(gen +. Stats.median !starts)
      ~cpu:nominal.cpu ~wall:(makespan run) ~rss:nominal.rss
      ~ipc:(Serve_wl.ipc served Metrics.Experiment.Baseline, Serve_wl.ipc served Metrics.Experiment.Replication)
      ~added:(Serve_wl.added_pct served) ~proven:(Serve_wl.at_mii_frac served);
    out
  end
  else begin
    let untraced_wall = makespan run in
    (* the rate search: every reply that was not shed must still be exact *)
    let rps =
      max_rps a ~warmup lines starts ~nominal_ok:(sustains ~rate:nominal_rate run) (fun r ->
          Array.iteri
            (fun i l ->
              let reply = r.Serve_wl.reply.(i) in
              if reply <> "" && not (List.mem "overloaded" (Serve_wl.statuses reply)) then
                Out.count out ~attempted:(Serve_wl.requests l)
                  ~failed:(if reply = Serve_wl.expected refs l then 0 else Serve_wl.requests l))
            r.Serve_wl.lines)
    in
    let tr = Out.create () in
    tr.Out.attempted <- out.attempted;
    tr.Out.failed <- out.failed;
    Out.pct tr "serve.p50_ms" "ms" 50. lat;
    Out.pct tr "serve.p99_ms" "ms" 99. lat;
    Out.set tr "serve.max_rps" "req/s" rps;
    Out.set tr "pass.cpu_s" "s" nominal.cpu;
    let w = Trace.begin_ ~run:(Printf.sprintf "serve-open/%d" a.seed) in
    let _, gen = timed (fun () -> Inputs.suite ~seed:a.seed) in
    Out.set tr "workload.generate_s" "s" gen;
    let run, traced =
      phase a ~tag:"traced" ~gc_report:true ~warmup ~rate:nominal_rate lines starts
    in
    let stats = traced.stats in
    gc_report tr traced.daemon.log;
    let failed = Serve_wl.failures refs run in
    Out.count tr ~attempted:0 ~failed;
    List.iter
      (fun (name, key) -> Out.set tr name "count" (stat_int stats key))
      [ ("serve.hits", "hits"); ("serve.misses", "misses"); ("serve.computes", "computes");
        ("serve.coalesced", "coalesced"); ("serve.batches", "batches");
        ("serve.overloaded", "overloaded"); ("serve.timeouts", "timeouts");
        ("serve.faults", "faults") ];
    let store = Metrics.Json.member "store" stats in
    Out.set tr "store.hits" "count" (stat_int store "hits");
    Out.set tr "store.misses" "count" (stat_int store "misses");
    Out.set tr "serve.repeat_share" "ratio" shares.repeat;
    Out.set tr "serve.burst_share" "ratio" shares.burst;
    Out.set tr "serve.batch_share" "ratio" shares.batch;
    let samples = Serve_wl.samples run in
    Out.set tr "serve.latency_samples" "count" (float_of_int (List.length (Serve_wl.answered run)));
    let late = List.map (fun s -> 1000. *. Stats.lateness s) samples in
    Out.pct tr "loadgen.late_ms_p99" "ms" 99. late;
    Out.set tr "loadgen.late_ms_max" "ms" (List.fold_left Float.max 0. late);
    (* service times: the same stream through Serve.handle on a fresh
       in-process engine, one line at a time *)
    let engine = Metrics.Serve.create ~io:(Metrics.Serve.Io.silent ()) () in
    let seen = Hashtbl.create 4096 in
    let service =
      Array.map
        (fun (l : Serve_wl.line) ->
          let hit = List.for_all (fun k -> Hashtbl.mem seen (Serve_wl.key_name k)) l.keys in
          List.iter (fun k -> Hashtbl.replace seen (Serve_wl.key_name k) ()) l.keys;
          let (), dt =
            timed (fun () ->
                ignore (Span.within "Metrics.Serve.handle" (fun () ->
                    Metrics.Serve.handle engine l.text)))
          in
          (hit, 1000. *. dt))
        lines
    in
    let pick want =
      Array.to_list service |> List.filter (fun (h, _) -> h = want) |> List.map snd
    in
    Out.pct tr "serve.service_hit_ms_p50" "ms" 50. (pick true);
    Out.pct tr "serve.service_miss_ms_p50" "ms" 50. (pick false);
    Out.pct tr "serve.service_miss_ms_p99" "ms" 99. (pick false);
    let waits =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i (l : Serve_wl.line) ->
                if Float.is_nan run.replied.(i) then []
                else
                  List.map
                    (fun _ -> (1000. *. (run.replied.(i) -. run.due.(i))) -. snd service.(i))
                    l.keys)
              lines))
    in
    Out.pct tr "serve.wait_ms_p50" "ms" 50. waits;
    Out.pct tr "serve.wait_ms_p99" "ms" 99. waits;
    (* compute vs engine overhead: Experiment.run_loop per distinct miss *)
    let distinct = Hashtbl.create 4096 in
    Array.iter
      (fun (l : Serve_wl.line) ->
        List.iter (fun (k : Serve_wl.key) -> Hashtbl.replace distinct (Serve_wl.key_name k) k) l.keys)
      lines;
    let run_loop =
      Hashtbl.fold
        (fun _ (k : Serve_wl.key) acc ->
          let _, dt =
            timed (fun () ->
                Span.within "Metrics.Experiment.run_loop" (fun () ->
                    Metrics.Experiment.run_loop k.mode k.config k.loop))
          in
          (1000. *. dt) :: acc)
        distinct []
    in
    Out.set tr "experiment.samples" "count" (float_of_int (List.length run_loop));
    Out.pct tr "experiment.run_loop_ms_p50" "ms" 50. run_loop;
    Out.pct tr "experiment.run_loop_ms_p99" "ms" 99. run_loop;
    let fp_loops = Hashtbl.fold (fun _ (k : Serve_wl.key) acc -> k.loop :: acc) distinct [] in
    let (), fp =
      timed (fun () ->
          List.iter
            (fun (l : Workload.Generator.loop) ->
              ignore (Span.within "Ddg.Fingerprint.canonical" (fun () ->
                  Ddg.Fingerprint.canonical l.graph)))
            fp_loops)
    in
    Out.set tr "ddg.fingerprint_s" "s" fp;
    Trace.profile tr
      ~sched_total:(Trace.spans_named "Metrics.Serve.handle" +. Trace.spans_named "Metrics.Experiment.run_loop");
    (* GC figures are the daemon's own, not the generator's *)
    Trace.end_ w tr ~gc:false ~overhead:(makespan run -. untraced_wall)
      ~spans_file:(spans_file a);
    tr
  end

(* ------------------------------------------------------------------ *)
(* exact-gap                                                           *)
(* ------------------------------------------------------------------ *)

let gap_pass config draw = List.filter_map (Gap_wl.run_loop config) draw

let exact_gap a =
  let out = Out.create () in
  let pool, setup = generate a ~seed:0 in
  let draw = Gap_wl.draw pool in
  Out.note out "inputs" (Inputs.digest draw);
  let config = Inputs.config Gap_wl.config_name in
  let c0 = Inputs.cpu () in
  let rows, wall0 = timed (fun () -> gap_pass config draw) in
  let cpu0 = Inputs.cpu () -. c0 in
  let rss = Inputs.peak_rss_mb () in
  let rows = List.map Gap_wl.check rows in
  let bad = List.filter (fun (r : Gap_wl.row) -> r.issues <> []) rows in
  Out.count out ~attempted:(List.length rows) ~failed:(List.length bad);
  List.iteri
    (fun i (r : Gap_wl.row) ->
      if i < 5 then Out.note out ("rejected." ^ r.loop.id) (String.concat "; " r.issues))
    bad;
  let n = List.length rows in
  let proven = List.length (List.filter Gap_wl.proven rows) in
  if not a.trace then begin
    Out.note out "verdicts" (Printf.sprintf "%d loops, %d proven" n proven);
    end_to_end out ~setup ~cpu:cpu0 ~wall:wall0 ~rss
      ~ipc:(Gap_wl.ipc rows (fun r -> r.base), Gap_wl.ipc rows (fun r -> Option.map fst r.repl))
      ~added:(Gap_wl.added_pct rows)
      ~proven:(float_of_int proven /. float_of_int (max 1 n));
    out
  end
  else begin
    let tr = Out.create () in
    tr.Out.attempted <- out.attempted;
    tr.Out.failed <- out.failed;
    Out.set tr "pass.cpu_s" "s" cpu0;
    let w = Trace.begin_ ~run:(Printf.sprintf "exact-gap/%d" a.seed) in
    let _, gen = timed (fun () -> Inputs.suite ~seed:0) in
    Out.set tr "workload.generate_s" "s" gen;
    let traced_rows, wall = timed (fun () -> gap_pass config draw) in
    let heur = Stats.sum (List.map (fun (r : Gap_wl.row) -> r.heur_s) traced_rows) in
    let solve = Stats.sum (List.map (fun (r : Gap_wl.row) -> r.exact_s) traced_rows) in
    Out.set tr "driver.heuristic_s" "s" heur;
    Out.set tr "exact.solve_s" "s" solve;
    Trace.profile tr ~sched_total:heur;
    let sum f =
      float_of_int
        (List.fold_left
           (fun acc (r : Gap_wl.row) -> acc + match r.stats with Some s -> f s | None -> 0)
           0 rows)
    in
    Out.set tr "exact.conflicts" "count" (sum (fun s -> s.Sched.Exact.s_conflicts));
    Out.set tr "exact.propagations" "count" (sum (fun s -> s.Sched.Exact.s_propagations));
    Out.set tr "exact.cegar_rounds" "count" (sum (fun s -> s.Sched.Exact.s_cegar_rounds));
    Out.set tr "exact.levels" "count" (sum (fun s -> s.Sched.Exact.s_levels));
    Out.set tr "exact.vars" "count" (sum (fun s -> s.Sched.Exact.s_vars));
    Out.set tr "exact.props_per_s" "1/s" (sum (fun s -> s.Sched.Exact.s_propagations) /. solve);
    Out.pct tr "exact.verdict_ms_p50" "ms" 50.
      (List.map (fun (r : Gap_wl.row) -> 1000. *. (r.heur_s +. r.exact_s)) traced_rows);
    let count p = float_of_int (List.length (List.filter p rows)) in
    Out.set tr "exact.proven" "count" (float_of_int proven);
    Out.set tr "exact.unproven" "count"
      (count (fun r -> match r.verdict with Gap_wl.Unproven _ -> true | _ -> false));
    Out.set tr "exact.no_verdict" "count" (count (fun r -> r.verdict = Gap_wl.No_verdict));
    Out.set tr "exact.gap_loops" "count"
      (count (fun r ->
           match r.verdict with
           | Gap_wl.Proven ii | Gap_wl.Unproven ii -> ii < r.heur_ii
           | Gap_wl.No_verdict -> false));
    let (_, dt) = timed (fun () -> List.iter (fun r -> ignore (Gap_wl.check r)) traced_rows) in
    Out.set tr "check.validate_s" "s" dt;
    Out.set tr "check.schedules" "count" (count (fun r -> r.witness <> None && r.verdict <> Gap_wl.No_verdict));
    Trace.end_ w tr ~overhead:(wall -. wall0) ~spans_file:(spans_file a);
    tr
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_args () in
  if not (Sys.file_exists a.dir) then Sys.mkdir a.dir 0o755;
  let out =
    match a.workload with
    | "figures-cold" -> figures_cold a
    | "figures-warm" -> figures_warm a
    | "setup" -> setup a
    | "warm-fill" -> warm_fill a
    | "serve-open" -> serve_open a
    | "exact-gap" -> exact_gap a
    | w -> failwith ("unknown workload " ^ w)
  in
  print_endline (Out.to_json out)
