(* Content-addressed schedule store ({!Metrics.Store}): byte-identical
   cache service through both tiers and at any job count, the caching
   policy (timeouts and bugs never recorded, give-ups recorded with
   their class), scheduler-version invalidation of the disk tier,
   eviction, the independent schedule oracle over fully cache-served
   runs, and the always-on profile counters. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let small_loops =
  lazy
    (List.concat_map
       (fun b -> take 2 (Workload.Generator.generate b))
       Workload.Benchmark.all)

let config = Option.get (Machine.Config.of_name "4c1b2l64r")

let render_all ?jobs ?store () =
  let suite =
    Metrics.Suite.create ~loops:(Lazy.force small_loops) ?jobs ?store ()
  in
  List.map (fun (id, render) -> (id, render ())) (Metrics.Figures.all suite)

let renders = Alcotest.(list (pair string string))

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sched_store_test_%d_%d" (Unix.getpid ()) !counter)

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

(* A run every figure needs, served entirely from the in-memory tier on
   the second pass: renders must be byte-identical and the pass must
   add no misses. *)
let test_memory_tier_byte_equal () =
  let store = Metrics.Store.create () in
  let cold = render_all ~store () in
  let after_cold = Metrics.Store.stats store in
  check bool "cold pass recorded misses" true (after_cold.misses > 0);
  let warm = render_all ~store () in
  let after_warm = Metrics.Store.stats store in
  check renders "memory-tier service is byte-identical" cold warm;
  check int "warm pass added no misses" after_cold.misses after_warm.misses;
  check bool "warm pass hit" true (after_warm.hits > after_cold.hits)

(* Same through the disk tier: a fresh store over the saved directory
   must serve the whole figure suite without a single miss, and a
   parallel suite (jobs=8) over yet another fresh store must agree
   byte-for-byte. *)
let test_disk_tier_byte_equal () =
  with_dir @@ fun dir ->
  let s1 = Metrics.Store.create ~dir () in
  let cold = render_all ~store:s1 () in
  Metrics.Store.save s1;
  check bool "disk tier wrote bytes" true
    ((Metrics.Store.stats s1).bytes_written > 0);
  let s2 = Metrics.Store.create ~dir () in
  let warm = render_all ~store:s2 () in
  let st2 = Metrics.Store.stats s2 in
  check renders "disk-tier service is byte-identical" cold warm;
  check int "warm run from disk has zero misses" 0 st2.misses;
  check bool "warm run from disk hit" true (st2.hits > 0);
  check bool "warm run read the disk tier" true (st2.bytes_read > 0);
  let s3 = Metrics.Store.create ~dir () in
  let warm8 = render_all ~jobs:8 ~store:s3 () in
  check renders "cache-served figures at jobs=8" cold warm8;
  check int "jobs=8 warm run has zero misses" 0
    (Metrics.Store.stats s3).misses

(* A register sweep over a warm store must not schedule: every member
   (and the spilled row) asks the store before it runs a pass, so the
   warm Section-4 table charges no word to partitioning or ordering.
   Placement is not checked: the disk tier's decode rebuilds routes
   with [Route.build], which is profiled there. *)
let test_warm_register_sweep_schedules_nothing () =
  with_dir @@ fun dir ->
  let loops = Lazy.force small_loops in
  let cold_store = Metrics.Store.create ~dir () in
  let cold =
    Metrics.Figures.sec4_regs (Metrics.Suite.create ~loops ~store:cold_store ())
  in
  Metrics.Store.save cold_store;
  let warm_store = Metrics.Store.create ~dir () in
  Sched.Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Sched.Profile.set_enabled false) @@ fun () ->
  let warm =
    Metrics.Figures.sec4_regs (Metrics.Suite.create ~loops ~store:warm_store ())
  in
  check Alcotest.string "warm sec4_regs is byte-identical" cold warm;
  check int "warm sweep missed nothing" 0
    (Metrics.Store.stats warm_store).misses;
  List.iter
    (fun phase ->
      check
        Alcotest.(pair int int)
        (Sched.Profile.name phase ^ " words")
        (0, 0)
        (Sched.Profile.alloc_words phase))
    [ Sched.Profile.Partition; Sched.Profile.Ordering ]

(* Rendering one artifact schedules only what it reads: the static
   Table 1 must not touch the suite's store at all. *)
let test_table1_alone_schedules_nothing () =
  let store = Metrics.Store.create () in
  let suite =
    Metrics.Suite.create ~loops:(Lazy.force small_loops) ~store ()
  in
  let render = List.assoc "table1" (Metrics.Figures.all suite) in
  check bool "table1 rendered" true (String.length (render ()) > 0);
  let st = Metrics.Store.stats store in
  check int "no store lookups" 0 (st.hits + st.misses)

(* Every schedule a cache-served sweep returns must satisfy the
   independent oracle, exactly like a direct run's ({!Check.Validate}
   knows nothing about the store). *)
let test_validate_cache_served () =
  with_dir @@ fun dir ->
  let loops = take 8 (Lazy.force small_loops) in
  let populate = Metrics.Store.create ~dir () in
  let cold_suite = Metrics.Suite.create ~loops ~store:populate () in
  List.iter
    (fun mode -> ignore (Metrics.Suite.runs cold_suite mode config))
    [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ];
  Metrics.Store.save populate;
  let serve = Metrics.Store.create ~dir () in
  let warm_suite = Metrics.Suite.create ~loops ~store:serve () in
  List.iter
    (fun mode ->
      let runs = Metrics.Suite.runs warm_suite mode config in
      check bool "cache-served sweep produced runs" true (runs <> []);
      List.iter
        (fun (r : Metrics.Experiment.loop_run) ->
          match
            Check.Validate.run ~original:r.loop.Workload.Generator.graph
              r.outcome.Sched.Driver.schedule
          with
          | Ok () -> ()
          | Error issues ->
              Alcotest.failf "oracle rejects cache-served %s: %s"
                r.loop.Workload.Generator.id
                (String.concat "; " (Check.Validate.to_strings issues)))
        runs)
    [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ];
  check int "oracle pass was fully cache-served" 0
    (Metrics.Store.stats serve).misses

let lookup_is_miss ?(config = config) store l =
  match
    Metrics.Store.lookup store ~mode:Metrics.Experiment.Baseline ~config l
  with
  | Metrics.Store.Miss -> true
  | Metrics.Store.Hit _ | Metrics.Store.Hit_give_up _ -> false

(* Timeouts are wall-clock-dependent and bug-class errors must stay
   loud, so recording either is a silent no-op; give-ups are data and
   come back with their class. *)
let test_record_policy () =
  let l = List.hd (Lazy.force small_loops) in
  let store = Metrics.Store.create () in
  let record err =
    Metrics.Store.record store ~mode:Metrics.Experiment.Baseline ~config l
      (Error err)
  in
  record (Sched.Sched_error.Timeout { at_ii = 3; attempts = 0; elapsed_s = 0.1 });
  check bool "timeout never cached" true (lookup_is_miss store l);
  record (Sched.Sched_error.Internal "boom");
  check bool "bug never cached" true (lookup_is_miss store l);
  record (Sched.Sched_error.Checker_violation [ "bad" ]);
  check bool "checker violation never cached" true (lookup_is_miss store l);
  let give_up = Sched.Sched_error.Escalation_cap { mii = 3; cap = 5 } in
  record give_up;
  (match
     Metrics.Store.lookup store ~mode:Metrics.Experiment.Baseline ~config l
   with
  | Metrics.Store.Hit_give_up (cls, _) ->
      check Alcotest.string "give-up class round-trips"
        (Sched.Sched_error.class_name give_up)
        cls
  | Metrics.Store.Hit _ | Metrics.Store.Miss ->
      Alcotest.fail "give-up was not cached");
  (* A success recorded after the give-up does not displace it (first
     write wins; determinism makes a real conflict impossible). *)
  (match Metrics.Experiment.run_loop Metrics.Experiment.Baseline config l with
  | Ok r ->
      Metrics.Store.record store ~mode:Metrics.Experiment.Baseline ~config l
        (Ok r)
  | Error e -> Alcotest.failf "run failed: %s" (Sched.Sched_error.to_string e));
  match
    Metrics.Store.lookup store ~mode:Metrics.Experiment.Baseline ~config l
  with
  | Metrics.Store.Hit_give_up _ -> ()
  | Metrics.Store.Hit _ | Metrics.Store.Miss ->
      Alcotest.fail "first write did not win"

let record_success store l =
  match Metrics.Experiment.run_loop Metrics.Experiment.Baseline config l with
  | Ok r ->
      Metrics.Store.record store ~mode:Metrics.Experiment.Baseline ~config l
        (Ok r);
      r
  | Error e -> Alcotest.failf "run failed: %s" (Sched.Sched_error.to_string e)

let replace_all ~sub ~by text =
  let ls = String.length sub and lt = String.length text in
  let buf = Buffer.create lt in
  let i = ref 0 in
  while !i <= lt - ls do
    if String.equal (String.sub text !i ls) sub then begin
      Buffer.add_string buf by;
      i := !i + ls
    end
    else begin
      Buffer.add_char buf text.[!i];
      incr i
    end
  done;
  Buffer.add_substring buf text !i (lt - !i);
  Buffer.contents buf

(* A saved file stamped by a different scheduler version must be
   ignored wholesale: stale caches self-invalidate.  So is a file whose
   header members come after its entries: [save] writes the header
   first, and the load decodes an entry only under a header it has
   already read.  Neither file is corrupt, so neither is quarantined. *)
let test_version_invalidation () =
  let stale_version text =
    replace_all ~sub:Sched.Driver.version ~by:"stale-0" text
  and header_last text =
    match Metrics.Json.parse text with
    | Metrics.Json.Obj fields ->
        Metrics.Json.print
          (Metrics.Json.Obj
             (("entries", List.assoc "entries" fields)
             :: List.remove_assoc "entries" fields))
    | _ -> Alcotest.fail "table file is not an object"
  in
  List.iter
    (fun (what, patch) ->
      with_dir @@ fun dir ->
      let l = List.hd (Lazy.force small_loops) in
      let store = Metrics.Store.create ~dir () in
      ignore (record_success store l);
      Metrics.Store.save store;
      let reread = Metrics.Store.create ~dir () in
      check bool "same version serves" false (lookup_is_miss reread l);
      let files = Sys.readdir dir in
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          let text = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (patch text)))
        files;
      let fresh = Metrics.Store.create ~dir () in
      check bool (what ^ ": ignored") true (lookup_is_miss fresh l);
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          check bool (what ^ ": file kept in place") true
            (Sys.file_exists path);
          check bool (what ^ ": not quarantined") false
            (Sys.file_exists (path ^ ".corrupt")))
        files)
    [
      ("other scheduler version", stale_version);
      ("header after the entries", header_last);
    ]

(* A torn table file — hand-truncated mid-JSON, as a crash mid-write or
   disk corruption would leave it — is quarantined at load: renamed to
   <file>.corrupt (warning on stderr), never fatal, and the store
   continues cold with the entries recomputable.  A tear halfway through
   the entries serves none of the entries read before it. *)
let test_corrupt_file_quarantined () =
  let loops = take 8 (Lazy.force small_loops) in
  let mid_entries text =
    let key = "\"entries\":[" in
    let rec start i =
      if String.sub text i (String.length key) = key then i + String.length key
      else start (i + 1)
    in
    let start = start 0 in
    String.sub text 0 (start + ((String.length text - start) / 2))
  in
  List.iter
    (fun (what, tear) ->
      with_dir @@ fun dir ->
      let store = Metrics.Store.create ~dir () in
      List.iter (fun l -> ignore (record_success store l)) loops;
      Metrics.Store.save store;
      let table =
        match
          List.filter
            (fun f -> Filename.check_suffix f ".json")
            (Array.to_list (Sys.readdir dir))
        with
        | [ f ] -> Filename.concat dir f
        | fs ->
            Alcotest.failf "expected one table file, found %d" (List.length fs)
      in
      let text = In_channel.with_open_bin table In_channel.input_all in
      Out_channel.with_open_bin table (fun oc ->
          Out_channel.output_string oc (tear text));
      let reread = Metrics.Store.create ~dir () in
      List.iter
        (fun l ->
          check bool
            (Printf.sprintf "%s: %s answers cold" what l.Workload.Generator.id)
            true (lookup_is_miss reread l))
        loops;
      check bool (what ^ ": torn file renamed aside") false
        (Sys.file_exists table);
      check bool (what ^ ": quarantined to .corrupt") true
        (Sys.file_exists (table ^ ".corrupt"));
      let l = List.hd loops in
      ignore (record_success reread l);
      check bool (what ^ ": recomputed entry answers again") false
        (lookup_is_miss reread l))
    [
      ("cut at byte 40", fun text -> String.sub text 0 40);
      ("cut halfway through the entries", mid_entries);
    ]

(* 4c1b2l64r's register-family sibling: the same routing inputs, a
   smaller register file. *)
let config32 = Option.get (Machine.Config.of_name "4c1b2l32r")

let hit ?(config = config) store l =
  match
    Metrics.Store.lookup store ~mode:Metrics.Experiment.Baseline ~config l
  with
  | Metrics.Store.Hit r -> r
  | Metrics.Store.Hit_give_up _ | Metrics.Store.Miss ->
      Alcotest.failf "%s: no cached run" l.Workload.Generator.id

(* The one table file under [dir] that holds [config]'s table. *)
let table_file dir config =
  let key = Machine.Config.cache_key config in
  let holds f =
    Filename.check_suffix f ".json"
    &&
    let path = Filename.concat dir f in
    let text = In_channel.with_open_bin path In_channel.input_all in
    Metrics.Json.(to_str (member "config" (parse text))) = key
  in
  match List.filter holds (Array.to_list (Sys.readdir dir)) with
  | [ f ] -> Filename.concat dir f
  | fs ->
      Alcotest.failf "expected one table file for %s, found %d" key
        (List.length fs)

(* Record the Baseline runs of [loops] under 4c1b2l64r and 4c1b2l32r in
   a store over [dir] and save it; returns the loops that ran under
   both (the smaller register file makes some give up). *)
let fill_both dir loops =
  let fill = Metrics.Store.create ~dir () in
  let both =
    List.filter
      (fun l ->
        List.for_all
          (fun config ->
            match
              Metrics.Experiment.run_loop Metrics.Experiment.Baseline config l
            with
            | Ok r ->
                Metrics.Store.record fill ~mode:Metrics.Experiment.Baseline
                  ~config l (Ok r);
                true
            | Error _ -> false)
          [ config; config32 ])
      loops
  in
  Metrics.Store.save fill;
  check bool "some loops run under both configurations" true (both <> []);
  both

(* A loop stored under two configurations decodes, in a fresh store
   over the saved directory, to one shared graph, and to one shared
   partition when its partition is the same in both tables. *)
let test_disk_tier_shares_values () =
  with_dir @@ fun dir ->
  let loops = fill_both dir (take 8 (Lazy.force small_loops)) in
  let warm = Metrics.Store.create ~dir () in
  let same_partition = ref 0 in
  List.iter
    (fun l ->
      let a = (hit warm l).Metrics.Experiment.outcome
      and b = (hit ~config:config32 warm l).Metrics.Experiment.outcome in
      let id = l.Workload.Generator.id in
      check bool (id ^ ": one decoded graph") true
        (a.Sched.Driver.graph == b.Sched.Driver.graph);
      if a.Sched.Driver.assign = b.Sched.Driver.assign then begin
        incr same_partition;
        check bool (id ^ ": one partition") true
          (a.Sched.Driver.assign == b.Sched.Driver.assign)
      end)
    loops;
  check bool "some loop keeps its partition across the two tables" true
    (!same_partition > 0)

(* Everything a decoded graph is interned by: name, labels and
   structure. *)
let graph_content g =
  Ddg.Graph.
    (name g, List.map (label g) (nodes g), structural_encoding g)

(* Every run served from the disk tier carries exactly the graph its
   cold run held, and {!Sched.Schedule.route} rebuilds the routed graph
   its own table would build: a latency-0 table never routes as a
   normal one, one bus latency never as another, and sharing never
   hands one graph (or its route) to a twin that differs only in its
   name or only in its labels (each twin runs more iterations, so it is
   an entry of its own). *)
let test_shared_routes_exact () =
  with_dir @@ fun dir ->
  let first = List.hd (Lazy.force small_loops) in
  let twin k field value =
    let open Metrics.Json in
    match Metrics.Store.Graph_json.encode first.graph with
    | Obj fields ->
        let graph =
          Metrics.Store.Graph_json.decode
            (Obj ((field, value) :: List.remove_assoc field fields))
        in
        { first with id = field ^ " twin"; graph; trip = first.trip + k }
    | _ -> Alcotest.fail "graph codec changed shape"
  in
  let relabelled =
    List.map
      (fun v -> Metrics.Json.Str ("t" ^ string_of_int v))
      (Ddg.Graph.nodes first.graph)
  in
  let loops =
    twin 1 "name" (Metrics.Json.Str "twin")
    :: twin 2 "labels" (Metrics.Json.List relabelled)
    :: take 8 (Lazy.force small_loops)
  in
  let cfg name = Option.get (Machine.Config.of_name name) in
  let tables =
    Metrics.Experiment.
      [
        (Replication, config);
        (Replication_latency0, config);
        (Baseline, cfg "4c2b2l64r");
        (Baseline, cfg "4c2b4l64r");
      ]
  in
  let fill = Metrics.Store.create ~dir () in
  let cold =
    List.concat_map
      (fun (mode, config) ->
        List.filter_map
          (fun l ->
            let result = Metrics.Experiment.run_loop mode config l in
            Metrics.Store.record fill ~mode ~config l result;
            Result.to_option result
            |> Option.map (fun (r : Metrics.Experiment.loop_run) ->
                   (mode, config, l, r.outcome)))
          loops)
      tables
  in
  Metrics.Store.save fill;
  check bool "cold runs finished" true (cold <> []);
  let warm = Metrics.Store.create ~dir () in
  let content = Alcotest.(triple string (list string) string) in
  List.iter
    (fun (mode, config, (l : Workload.Generator.loop), cold) ->
      let what =
        Printf.sprintf "%s %s %s" (Metrics.Experiment.mode_tag mode)
          (Machine.Config.name config) l.id
      in
      match Metrics.Store.lookup warm ~mode ~config l with
      | Metrics.Store.Hit r ->
          let o = r.Metrics.Experiment.outcome in
          check content (what ^ ": cold graph")
            (graph_content cold.Sched.Driver.graph)
            (graph_content o.Sched.Driver.graph);
          let own =
            Sched.Route.build
              ~latency0:(mode = Metrics.Experiment.Replication_latency0)
              config o.graph ~assign:o.assign
          in
          check content (what ^ ": own route")
            (graph_content own.Sched.Route.graph)
            (graph_content
               (Sched.Schedule.route o.schedule).Sched.Route.graph)
      | Metrics.Store.Hit_give_up _ | Metrics.Store.Miss ->
          Alcotest.failf "%s: recorded run not served" what)
    cold

(* Sharing leaves the shape check per entry: an entry whose stored
   cycle array does not fit the graph routing would build, or whose
   partition does not cover its graph, is dropped alone.  The same
   loop's entry in the other table, which decodes to the same graph,
   still hits, so do the other entries of its file, and the file is not
   quarantined. *)
let shape_check_drops what misfit =
  with_dir @@ fun dir ->
  let loops = fill_both dir (take 8 (Lazy.force small_loops)) in
  let file = table_file dir config32 in
  let open Metrics.Json in
  let doc = parse (In_channel.with_open_bin file In_channel.input_all) in
  let victim, others =
    match to_list (member "entries" doc) with
    | e :: es -> (e, es)
    | [] -> Alcotest.fail "empty table file"
  in
  check bool "the file holds other entries" true (others <> []);
  let corrupted =
    match (doc, victim) with
    | Obj fields, Obj victim_fields ->
        let victim = Obj (List.map misfit victim_fields) in
        Obj
          (List.map
             (function
               | "entries", _ -> ("entries", List (victim :: others))
               | field -> field)
             fields)
    | _ -> Alcotest.fail "table file is not an object"
  in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (print corrupted));
  let loop_of e =
    List.find
      (fun (l : Workload.Generator.loop) ->
        Ddg.Graph.structural_encoding l.graph = to_str (member "x" e))
      loops
  in
  let warm = Metrics.Store.create ~dir () in
  let l = loop_of victim in
  check bool ("entry with a misfit " ^ what ^ " misses") true
    (lookup_is_miss ~config:config32 warm l);
  check bool "its sibling entry still hits" false (lookup_is_miss warm l);
  List.iter
    (fun e ->
      check bool "the file's other entries still hit" false
        (lookup_is_miss ~config:config32 warm (loop_of e)))
    others;
  check bool "file kept in place" true (Sys.file_exists file);
  check bool "file not quarantined" false (Sys.file_exists (file ^ ".corrupt"))

let test_shape_check_per_entry () =
  List.iter
    (fun (what, misfit) -> shape_check_drops what misfit)
    Metrics.Json.
      [
        ("cycle array", function
          | "cycles", List cs -> ("cycles", List (Num 0. :: cs))
          | field -> field);
        ("partition array", function
          | "assign", List cs -> ("assign", List (cs @ [ Num 0. ]))
          | field -> field);
        ("MII above its II", function
          | "mii", Num _ -> ("mii", Num 1000.)
          | field -> field);
      ]

(* An entry whose II cannot be a schedule's is dropped like any other
   misfit: a suite run over a store ([repro suite --cache DIR]) whose
   first Baseline entry had its II edited to 0 recomputes that loop,
   missing once, and prints what the cold run printed. *)
let test_impossible_ii_dropped () =
  with_dir @@ fun dir ->
  let loops = Lazy.force small_loops in
  let suite store =
    let o =
      Metrics.Robust.run ~store
        ~modes:[ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ]
        config loops
    in
    Metrics.Robust.ipc_table config o.Metrics.Robust.o_runs
  in
  let fill = Metrics.Store.create ~dir () in
  let cold = suite fill in
  Metrics.Store.save fill;
  let file =
    match
      List.filter
        (fun f ->
          String.starts_with ~prefix:"base-" f
          && Filename.check_suffix f ".json")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | fs ->
        Alcotest.failf "expected one Baseline table file, found %d"
          (List.length fs)
  in
  let text = In_channel.with_open_bin file In_channel.input_all in
  let key = "\"ii\":" in
  let rec find i =
    if String.sub text i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while text.[!stop] >= '0' && text.[!stop] <= '9' do
    incr stop
  done;
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc
        (String.sub text 0 start ^ "0"
        ^ String.sub text !stop (String.length text - !stop)));
  let warm = Metrics.Store.create ~dir () in
  check Alcotest.string "the rerun prints the cold output" cold (suite warm);
  check int "only the edited loop missed" 1 (Metrics.Store.stats warm).misses

(* Everything a lookup answers, rendered through the store's own codecs. *)
let answer_content = function
  | Metrics.Store.Miss -> "miss"
  | Metrics.Store.Hit_give_up (cls, msg) -> "give-up " ^ cls ^ ": " ^ msg
  | Metrics.Store.Hit r ->
      let o = r.Metrics.Experiment.outcome in
      let ints a =
        Metrics.Json.List
          (List.map
             (fun i -> Metrics.Json.Num (float_of_int i))
             (Array.to_list a))
      in
      Metrics.Json.(
        print
          (List
             [
               Metrics.Store.Graph_json.encode o.Sched.Driver.graph;
               ints o.Sched.Driver.assign;
               ints [| o.Sched.Driver.ii; o.mii; o.n_comms |];
               Metrics.Store.Run_json.increments o;
               ints o.schedule.Sched.Schedule.cycles;
               ints o.schedule.Sched.Schedule.buses;
               Metrics.Store.Run_json.counts r.counts;
               (match r.repl_stats with
               | None -> Null
               | Some st -> Metrics.Store.Run_json.stats st);
             ]))

(* A store reads every table file into one buffer it reuses.  A table
   read after a longer one answers exactly as it does in a store that
   read it alone.  A torn file read after a longer one is quarantined,
   not parsed on into the longer file's bytes left in the buffer: here
   the longer file is the torn file's own text, whole and then padded,
   so a parse that ran past the torn file's end would read a whole,
   current table and serve it. *)
let test_read_buffer_reused () =
  with_dir @@ fun dir ->
  let loops = take 8 (Lazy.force small_loops) in
  let fill = Metrics.Store.create ~dir () in
  List.iteri
    (fun i l ->
      List.iter
        (fun config ->
          Metrics.Store.record fill ~mode:Metrics.Experiment.Baseline ~config
            l
            (Metrics.Experiment.run_loop Metrics.Experiment.Baseline config l))
        (if i < 2 then [ config; config32 ] else [ config ]))
    loops;
  Metrics.Store.save fill;
  let long = table_file dir config and short = table_file dir config32 in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let write path text =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  in
  let short_text = read short in
  check bool "the first table's file is the longer" true
    (String.length (read long) > String.length short_text);
  let answers store =
    List.map
      (fun l ->
        answer_content
          (Metrics.Store.lookup store ~mode:Metrics.Experiment.Baseline
             ~config:config32 l))
      loops
  in
  let load_long store =
    ignore
      (Metrics.Store.lookup store ~mode:Metrics.Experiment.Baseline ~config
         (List.hd loops))
  in
  let alone = answers (Metrics.Store.create ~dir ()) in
  check bool "the short table serves its entries" true
    (List.exists (fun a -> a <> "miss") alone);
  let after = Metrics.Store.create ~dir () in
  load_long after;
  check
    Alcotest.(list string)
    "a table read after a longer one answers as alone" alone (answers after);
  write long (short_text ^ String.make 64 ' ');
  write short (String.sub short_text 0 (String.length short_text / 2));
  let torn = Metrics.Store.create ~dir () in
  load_long torn;
  List.iteri
    (fun i a ->
      check Alcotest.string
        (Printf.sprintf "torn table: loop %d answers cold" i)
        "miss" a)
    (answers torn);
  check bool "torn file quarantined" true (Sys.file_exists (short ^ ".corrupt"))

(* [save] renders a table one entry at a time; the bytes are still those
   of [Json.print] over the whole document. *)
let test_saved_bytes_are_print () =
  with_dir @@ fun dir ->
  let store = Metrics.Store.create ~dir () in
  List.iter
    (fun l ->
      List.iter
        (fun mode ->
          Metrics.Store.record store ~mode ~config l
            (Metrics.Experiment.run_loop mode config l))
        Metrics.Experiment.[ Baseline; Replication ])
    (take 6 (Lazy.force small_loops));
  Metrics.Store.record store ~mode:Metrics.Experiment.Baseline ~config:config32
    (List.hd (Lazy.force small_loops))
    (Error (Sched.Sched_error.Escalation_cap { mii = 3; cap = 5 }));
  Metrics.Store.save store;
  let files = Sys.readdir dir in
  check int "one file per table" 3 (Array.length files);
  Array.iter
    (fun f ->
      let text =
        In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
      in
      check Alcotest.string (f ^ " is Json.print's bytes")
        Metrics.Json.(print (parse text))
        text)
    files

(* A table file is decoded entry by entry, so the parser's tree of one
   entry dies in the minor heap: loading one 800-entry table (40 loops
   at trips 1..20) promotes a small multiple of what the store keeps.
   A load that first builds the whole file's tree promotes that tree,
   about 15 times what the store keeps.  The ratio shrinks as the minor
   heap grows, so the test pins the default 256k words. *)
let test_table_load_young () =
  let gc = Gc.get () in
  Gc.set { gc with minor_heap_size = 262_144 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  with_dir @@ fun dir ->
  let loops =
    List.concat_map
      (fun b -> take 4 (Workload.Generator.generate b))
      Workload.Benchmark.all
  in
  check int "40 loops" 40 (List.length loops);
  let fill = Metrics.Store.create ~dir () in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      let result =
        Metrics.Experiment.run_loop Metrics.Experiment.Baseline config l
      in
      for trip = 1 to 20 do
        Metrics.Store.record fill ~mode:Metrics.Experiment.Baseline ~config
          { l with trip } result
      done)
    loops;
  Metrics.Store.save fill;
  let warm = Metrics.Store.create ~dir () in
  let l = { (List.hd loops) with trip = 1 } in
  Gc.minor ();
  let before = (Gc.quick_stat ()).promoted_words in
  check bool "the first lookup loads the table and hits" false
    (lookup_is_miss warm l);
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).promoted_words -. before in
  let kept = Obj.reachable_words (Obj.repr warm) in
  if promoted > 4. *. float_of_int kept then
    Alcotest.failf "table load promoted %.0f words, over 4 x the %d it keeps"
      promoted kept

let test_evict () =
  let l = List.hd (Lazy.force small_loops) in
  let store = Metrics.Store.create () in
  let r = record_success store l in
  check bool "recorded entry answers" false (lookup_is_miss store l);
  Metrics.Store.evict store ~mode:Metrics.Experiment.Baseline ~config l;
  check bool "evicted entry misses" true (lookup_is_miss store l);
  Metrics.Store.record store ~mode:Metrics.Experiment.Baseline ~config l
    (Ok r);
  check bool "re-recorded entry answers again" false (lookup_is_miss store l)

(* Dirty-table tracking: a save writes each touched table once; a
   second save with nothing new skips every table, and a fresh store
   over the same directory that only serves hits saves nothing on
   shutdown. *)
let test_save_skips_clean_tables () =
  with_dir @@ fun dir ->
  let l = List.hd (Lazy.force small_loops) in
  let store = Metrics.Store.create ~dir () in
  ignore (record_success store l);
  Metrics.Store.save store;
  let st1 = Metrics.Store.stats store in
  check int "first save wrote the dirty table" 1 st1.tables_saved;
  check int "first save skipped nothing" 0 st1.tables_skipped;
  Metrics.Store.save store;
  let st2 = Metrics.Store.stats store in
  check int "repeated save wrote nothing new" 1 st2.tables_saved;
  check int "repeated save skipped the clean table" 1 st2.tables_skipped;
  check int "repeated save moved no bytes" st1.bytes_written st2.bytes_written;
  (* a new record dirties exactly its own table again *)
  Metrics.Store.record store ~mode:Metrics.Experiment.Replication ~config l
    (Error (Sched.Sched_error.Escalation_cap { mii = 3; cap = 5 }));
  Metrics.Store.save store;
  let st3 = Metrics.Store.stats store in
  check int "the new table saved" 2 st3.tables_saved;
  check int "the untouched table skipped again" 2 st3.tables_skipped;
  (* an all-hit restart saves nothing at shutdown *)
  let warm = Metrics.Store.create ~dir () in
  check bool "warm store answers from disk" false (lookup_is_miss warm l);
  Metrics.Store.save warm;
  let stw = Metrics.Store.stats warm in
  check int "all-hit shutdown rewrote no table" 0 stw.tables_saved;
  check bool "all-hit shutdown skipped its loaded tables" true
    (stw.tables_skipped > 0)

(* The always-on global counters ({!Sched.Profile.cache_counters})
   mirror per-store traffic. *)
let test_profile_counters () =
  let counters () = Sched.Profile.cache_counters () in
  let before = counters () in
  let l = List.hd (Lazy.force small_loops) in
  let store = Metrics.Store.create () in
  check bool "cold lookup misses" true (lookup_is_miss store l);
  ignore (record_success store l);
  check bool "recorded lookup hits" false (lookup_is_miss store l);
  let after = counters () in
  let delta k = List.assoc k after - List.assoc k before in
  check bool "global hit counter advanced" true (delta "hits" >= 1);
  check bool "global miss counter advanced" true (delta "misses" >= 1)

let suite =
  [
    Alcotest.test_case "memory tier byte equality" `Quick
      test_memory_tier_byte_equal;
    Alcotest.test_case "disk tier byte equality (jobs 1 and 8)" `Slow
      test_disk_tier_byte_equal;
    Alcotest.test_case "oracle over cache-served runs" `Slow
      test_validate_cache_served;
    Alcotest.test_case "warm register sweep schedules nothing" `Quick
      test_warm_register_sweep_schedules_nothing;
    Alcotest.test_case "table1 alone schedules nothing" `Quick
      test_table1_alone_schedules_nothing;
    Alcotest.test_case "record policy" `Quick test_record_policy;
    Alcotest.test_case "scheduler-version invalidation" `Quick
      test_version_invalidation;
    Alcotest.test_case "corrupt table file quarantined" `Quick
      test_corrupt_file_quarantined;
    Alcotest.test_case "saved table is Json.print's bytes" `Quick
      test_saved_bytes_are_print;
    Alcotest.test_case "table load keeps its transient young" `Quick
      test_table_load_young;
    Alcotest.test_case "disk tier shares decoded values" `Quick
      test_disk_tier_shares_values;
    Alcotest.test_case "shared routes are each table's own" `Quick
      test_shared_routes_exact;
    Alcotest.test_case "shape check stays per entry" `Quick
      test_shape_check_per_entry;
    Alcotest.test_case "entry with an impossible II is dropped" `Quick
      test_impossible_ii_dropped;
    Alcotest.test_case "one read buffer per store" `Quick
      test_read_buffer_reused;
    Alcotest.test_case "evict" `Quick test_evict;
    Alcotest.test_case "save skips clean tables" `Quick
      test_save_skips_clean_tables;
    Alcotest.test_case "profile cache counters" `Quick test_profile_counters;
  ]
