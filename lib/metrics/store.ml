(* Content-addressed schedule store: (canonical DDG fingerprint ×
   machine config key × trip count) -> finished run.

   Keys.  The graph half of the key is the renumbering-invariant
   {!Ddg.Fingerprint.canonical} hash; because Weisfeiler-Lehman
   refinement is an incomplete isomorphism test — and because the
   scheduler is sensitive to node *order*, so even a true isomorph may
   schedule differently — every fingerprint match is confirmed against
   the full {!Ddg.Graph.structural_encoding} byte string before an
   entry is served.  Isomorphic-but-renumbered graphs therefore
   conservatively miss: a hit guarantees the scheduler would have seen
   byte-identical input.  The machine half is
   {!Machine.Config.cache_key}, injective over every config field
   (display names are not).  The trip count rides along because the
   lockstep simulation counts depend on it.  Mode and spill variant
   select the table, so e.g. "repl" and "repl0" results never mix.

   What is cached.  Successful runs (the full
   {!Experiment.loop_run} payload: scheduling outcome, replication
   statistics, simulation counts) and give-up classifications
   ({!Sched.Sched_error.is_give_up} — capacity failures that are data).
   Timeouts are wall-clock-dependent and bug-class errors must stay
   loud, so neither is ever recorded.

   Tiers.  The in-memory tier holds the OCaml payload values
   themselves — a hit returns the same structured data a cold run
   produced, so byte-identity of downstream tables is trivial — with
   each schedule unrouted: routing is a pure function
   ({!Sched.Route.build}) of the transformed graph and partition the
   payload holds, so {!Sched.Schedule.route} rebuilds the routed graph
   exactly where a reader asks for it, and {!record} drops the routed
   graph of a run handed to it routed.  The optional on-disk tier (one
   JSON file per (group, config) table, written atomically: temp file,
   then rename) stores the same transformed graph and partition, and
   decoding builds no routed graph: it checks each entry's stored
   cycle/bus arrays against the node count routing would produce, one
   per node plus one copy per communication ({!Sched.Comm.count}).
   Files carry a format number and the
   {!Sched.Driver.version} string; a mismatch silently empties the
   table, so entries cached by an older scheduler self-invalidate.
   That header (format, scheduler, group, config) is written before the
   entries, and each entry is rendered into the file's one buffer on its
   own.  Loading reads the entries through {!Json.fold_member}: each is
   decoded as soon as the parser has read it, under a current header
   already read, and its tree dropped, so no tree of a whole file is
   ever built.  Entries join the table only once the whole file has
   parsed: a file torn halfway through its entries serves none of them,
   and a file whose header follows its entries counts as stale.  Each
   store reads its files through one buffer, grown (at least doubling)
   to the largest file read so far, where a whole-file string per table
   would land in the major heap; the parser reads only the current
   file's bytes of it (a torn file is not parsed on into an earlier
   file's tail), and no decoded value aliases it.

   The figure suite stores the same loops under many configurations,
   register families and spill variants, so each store holds one
   {!Share} table for its decoded values: a graph is shared by its
   content (name, operation classes, labels and edges); a partition
   array by that graph and its content; cycle and bus arrays and
   increments by their content; the [x] string by value.  The table
   holds no routed graph.  No digest alone decides identity.  A
   {!Suite} over the store passes its loops' graphs through the same
   table before anything is decoded, and every run it computes before
   recording it, so the memory tier and the disk tier hold one value
   per distinct content, and a decoded untransformed run holds its
   loop's own graph.
   A decoded entry's tree holds no number of its own for the small
   integers ({!Json.fold_member}), so what a minor collection promotes
   of it stays small beside the values the table keeps.

   Counters.  Every lookup/IO updates both the per-store {!stats} and
   the global always-on counters in {!Sched.Profile}. *)

module G = Ddg.Graph

type payload =
  | P_run of
      Sched.Driver.outcome * Replication.Replicate.stats option
      * Sim.Lockstep.counts
  | P_give_up of string * string  (* class name, rendered message *)

type entry = { e_struct : string; e_trip : int; e_pay : payload }

type table = {
  tb_group : string;
  tb_ckey : string;
  tb_config : Machine.Config.t;
  tb_latency0 : bool;
  mutable tb_dirty : bool;
  tb_entries : (string, entry list) Hashtbl.t;  (* fingerprint -> bucket *)
}

type stats = {
  hits : int;
  misses : int;
  bytes_read : int;
  bytes_written : int;
  tables_saved : int;
  tables_skipped : int;
}

type t = {
  dir : string option;
  tables : (string, table) Hashtbl.t;  (* group ^ "\x00" ^ ckey *)
  (* Per-loop fingerprint memo, revalidated by physical graph equality
     so a reused id (the fuzz shrinker) cannot serve a stale hash. *)
  fps : (string, G.t * string * string) Hashtbl.t;
  share : Share.t;
      (* one value per distinct content: decoded entries, and the runs a
         {!Suite} over this store computes (see "Tiers" above) *)
  mutable buf : Bytes.t;
      (* the one read buffer: every table file is read into it, and it
         grows (at least doubling) to the largest file read so far *)
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_read : int;
  mutable s_written : int;
  mutable s_saved : int;
  mutable s_skipped : int;
}

type answer =
  | Hit of Experiment.loop_run
  | Hit_give_up of string * string
  | Miss

let create ?dir () =
  {
    dir;
    tables = Hashtbl.create 32;
    fps = Hashtbl.create 256;
    share = Share.create ();
    buf = Bytes.empty;
    s_hits = 0;
    s_misses = 0;
    s_read = 0;
    s_written = 0;
    s_saved = 0;
    s_skipped = 0;
  }

let share t = t.share

let stats t =
  {
    hits = t.s_hits;
    misses = t.s_misses;
    bytes_read = t.s_read;
    bytes_written = t.s_written;
    tables_saved = t.s_saved;
    tables_skipped = t.s_skipped;
  }

let group_of ~mode ~variant =
  Experiment.mode_tag mode ^ (if variant = "" then "" else "-" ^ variant)

let fingerprint t (loop : Workload.Generator.loop) =
  match Hashtbl.find_opt t.fps loop.id with
  | Some (g, fp, enc) when g == loop.graph -> (fp, enc)
  | _ ->
      let fp = Ddg.Fingerprint.canonical loop.graph in
      let enc = G.structural_encoding loop.graph in
      Hashtbl.replace t.fps loop.id (loop.graph, fp, enc);
      (fp, enc)

(* ------------------------------------------------------------------ *)
(* JSON encoding of entries (disk tier)                                 *)
(* ------------------------------------------------------------------ *)

let format_version = 1

let jint i = Json.Num (float_of_int i)
let jints arr = Json.List (List.map jint (Array.to_list arr))
let jint_list l = Json.List (List.map jint l)

let int_array j = Array.of_list (List.map Json.to_int (Json.to_list j))
let int_list j = List.map Json.to_int (Json.to_list j)

let json_of_graph g =
  Json.Obj
    [
      ("name", Json.Str (G.name g));
      ( "ops",
        Json.List
          (List.map
             (fun v -> Json.Str (Machine.Opclass.to_string (G.op g v)))
             (G.nodes g)) );
      ( "labels",
        Json.List (List.map (fun v -> Json.Str (G.label g v)) (G.nodes g)) );
      ( "edges",
        Json.List
          (Array.to_list
             (Array.map
                (fun (e : G.edge) ->
                  Json.List
                    [
                      jint e.src; jint e.dst; jint e.latency; jint e.distance;
                      Json.Str (match e.kind with G.Reg -> "r" | G.Mem -> "m");
                    ])
                (G.edges g))) );
    ]

let graph_of_json j =
  let b = G.Builder.create ~name:(Json.to_str (Json.member "name" j)) () in
  let ops = Json.to_list (Json.member "ops" j) in
  let labels = Json.to_list (Json.member "labels" j) in
  List.iter2
    (fun o l ->
      match Machine.Opclass.of_string (Json.to_str o) with
      | Some opc -> ignore (G.Builder.add b ~label:(Json.to_str l) opc)
      | None -> raise (Json.Bad "store: unknown opclass"))
    ops labels;
  List.iter
    (fun e ->
      match Json.to_list e with
      | [ s; d; lat; dist; k ] -> (
          let src = Json.to_int s and dst = Json.to_int d in
          let distance = Json.to_int dist in
          match Json.to_str k with
          | "m" -> G.Builder.mem_depend ~distance b ~src ~dst
          | _ -> G.Builder.depend ~distance ~latency:(Json.to_int lat) b ~src ~dst)
      | _ -> raise (Json.Bad "store: bad edge"))
    (Json.to_list (Json.member "edges" j));
  G.Builder.build b

module Graph_json = struct
  let encode = json_of_graph

  (* The builder refuses what no graph may hold (an edge to a node that
     does not exist, a negative latency, a zero-distance cycle); on the
     wire that is a malformed graph object like any other. *)
  let decode j =
    try graph_of_json j with Invalid_argument msg -> raise (Json.Bad msg)
end

let json_of_counts (c : Sim.Lockstep.counts) =
  Json.Obj
    [
      ("cycles", jint c.cycles);
      ("iterations", jint c.iterations);
      ("dynamic_ops", jint c.dynamic_ops);
      ("dynamic_copies", jint c.dynamic_copies);
      ("useful_ops", jint c.useful_ops);
      ("explicit_iterations", jint c.explicit_iterations);
    ]

let counts_of_json j : Sim.Lockstep.counts =
  let f k = Json.to_int (Json.member k j) in
  {
    cycles = f "cycles";
    iterations = f "iterations";
    dynamic_ops = f "dynamic_ops";
    dynamic_copies = f "dynamic_copies";
    useful_ops = f "useful_ops";
    explicit_iterations = f "explicit_iterations";
  }

let json_of_repl_stats (s : Replication.Replicate.stats) =
  Json.Obj
    [
      ("comms_before", jint s.comms_before);
      ("comms_removed", jint s.comms_removed);
      ("added_instances", jint s.added_instances);
      ("added_by_kind", jints s.added_by_kind);
      ("removed_instances", jint s.removed_instances);
      ("removed_by_kind", jints s.removed_by_kind);
      ("subgraph_sizes", jint_list s.subgraph_sizes);
    ]

let repl_stats_of_json j : Replication.Replicate.stats =
  let f k = Json.to_int (Json.member k j) in
  {
    comms_before = f "comms_before";
    comms_removed = f "comms_removed";
    added_instances = f "added_instances";
    added_by_kind = int_array (Json.member "added_by_kind" j);
    removed_instances = f "removed_instances";
    removed_by_kind = int_array (Json.member "removed_by_kind" j);
    subgraph_sizes = int_list (Json.member "subgraph_sizes" j);
  }

(* II increments per cause, summed: the escalation order is not kept. *)
let json_of_increments (o : Sched.Driver.outcome) =
  let bus, recur, regs =
    List.fold_left
      (fun (b, r, g) (cause, n) ->
        match (cause : Sched.Driver.cause) with
        | Sched.Driver.Bus -> (b + n, r, g)
        | Sched.Driver.Recurrence -> (b, r + n, g)
        | Sched.Driver.Registers -> (b, r, g + n))
      (0, 0, 0) o.increments
  in
  Json.Obj
    [ ("bus", jint bus); ("recurrence", jint recur); ("registers", jint regs) ]

module Run_json = struct
  let counts = json_of_counts
  let increments = json_of_increments
  let stats = json_of_repl_stats
end

let json_of_entry fp en =
  let base =
    [ ("fp", Json.Str fp); ("x", Json.Str en.e_struct); ("trip", jint en.e_trip) ]
  in
  match en.e_pay with
  | P_give_up (cls, msg) ->
      Json.Obj
        (base
        @ [
            ("status", Json.Str "give-up");
            ("class", Json.Str cls);
            ("message", Json.Str msg);
          ])
  | P_run (o, st, c) ->
      Json.Obj
        (base
        @ [
            ("status", Json.Str "ok");
            ("graph", json_of_graph o.graph);
            ("assign", jints o.assign);
            ("ii", jint o.ii);
            ("mii", jint o.mii);
            ("increments", json_of_increments o);
            ("n_comms", jint o.n_comms);
            ("cycles", jints o.schedule.cycles);
            ("buses", jints o.schedule.buses);
            ("counts", json_of_counts c);
            ( "stats",
              match st with None -> Json.Null | Some s -> json_of_repl_stats s
            );
          ])

(* Decoding keeps the stored transformed graph and partition, shared
   by content, with the schedule unrouted: [Route.build] is pure, so a
   reader rebuilds the routed graph the cold run held.  The shape check
   reads what [Route.build] would: a partition covers the graph, a
   communication needs a bus, and the routed graph has one node per
   original node plus one copy per communication
   ({!Sched.Comm.count}), the length of the stored cycle and bus
   arrays.  The II must be at least 1 and at least the MII: every
   reader that takes a cycle modulo the II relies on the first, and no
   schedule beats the second.  Any malformed/implausible entry decodes
   to [None] and is simply dropped (a future save rewrites the file). *)
let entry_of_json t ~config ~latency0 j =
  try
    let fp = Json.to_str (Json.member "fp" j) in
    let e_struct = Share.string t.share (Json.to_str (Json.member "x" j)) in
    let e_trip = Json.to_int (Json.member "trip" j) in
    let e_pay =
      match Json.to_str (Json.member "status" j) with
      | "give-up" ->
          P_give_up
            ( Json.to_str (Json.member "class" j),
              Json.to_str (Json.member "message" j) )
      | _ ->
          let graph, assign =
            Share.partition t.share
              (graph_of_json (Json.member "graph" j))
              ~assign:(int_array (Json.member "assign" j))
          in
          let ii = Json.to_int (Json.member "ii" j) in
          let mii = Json.to_int (Json.member "mii" j) in
          let incr = Json.member "increments" j in
          let inc k = Json.to_int (Json.member k incr) in
          let cycles = int_array (Json.member "cycles" j) in
          let buses = int_array (Json.member "buses" j) in
          let n = G.n_nodes graph in
          if ii < 1 || ii < mii then raise (Json.Bad "store: impossible II");
          if Array.length assign <> n then
            raise (Json.Bad "store: partition shape mismatch");
          let comms = Sched.Comm.count graph ~assign in
          if comms > 0 && config.Machine.Config.buses = 0 then
            raise (Json.Bad "store: communication without a bus");
          if Array.length cycles <> n + comms || Array.length buses <> n + comms
          then raise (Json.Bad "store: schedule shape mismatch");
          let schedule =
            {
              Sched.Schedule.config;
              routing = Unrouted { graph; assign; latency0 };
              ii;
              cycles = Share.ints t.share cycles;
              buses = Share.ints t.share buses;
            }
          in
          let outcome =
            {
              Sched.Driver.schedule;
              graph;
              assign;
              mii;
              ii;
              increments =
                Share.increments t.share
                  [
                    (Sched.Driver.Bus, inc "bus");
                    (Sched.Driver.Recurrence, inc "recurrence");
                    (Sched.Driver.Registers, inc "registers");
                  ];
              n_comms = Json.to_int (Json.member "n_comms" j);
            }
          in
          let counts = counts_of_json (Json.member "counts" j) in
          let st =
            match Json.member "stats" j with
            | Json.Null -> None
            | s -> Some (repl_stats_of_json s)
          in
          P_run (outcome, st, counts)
    in
    Some (fp, { e_struct; e_trip; e_pay })
  with _ -> None

(* ------------------------------------------------------------------ *)
(* Tables and the disk tier                                             *)
(* ------------------------------------------------------------------ *)

let file_of t ~group ~ckey =
  match t.dir with
  | None -> None
  | Some dir ->
      let h = Digest.to_hex (Digest.string ckey) in
      Some
        (Filename.concat dir
           (Printf.sprintf "%s-%s.json" group (String.sub h 0 16)))

(* A table file that cannot be read or parsed — a torn write from a
   crashed process, a hand-truncated file, disk corruption — is
   quarantined: renamed aside to <file>.corrupt with one warning line,
   and the run continues cold on that table.  The rename (best-effort)
   keeps the evidence for inspection while guaranteeing the next save
   writes a clean file; a merely *stale* file (version or config
   mismatch after a successful parse) is not corrupt and is left in
   place to be rewritten silently. *)
let quarantine_file path =
  (try Sys.rename path (path ^ ".corrupt") with Sys_error _ -> ());
  Log.line "store: quarantined corrupt table file %s.corrupt (continuing cold)"
    path

(* The members [save] writes before [entries], in order. *)
let header tb =
  [
    ("format", jint format_version);
    ("scheduler", Json.Str Sched.Driver.version);
    ("group", Json.Str tb.tb_group);
    ("config", Json.Str tb.tb_ckey);
  ]

(* Whether a file's header members are [header tb]: this table, in this
   format, from this scheduler.  @raise Json.Bad when one is missing
   before a mismatch is seen. *)
let current tb fields =
  List.for_all (fun (k, v) -> Json.member k (Json.Obj fields) = v) (header tb)

(* The file's bytes, into the first [len] bytes of [t.buf]; returns
   [len]. *)
let read_file t path =
  In_channel.with_open_bin path @@ fun ic ->
  let len = Int64.to_int (In_channel.length ic) in
  if len > Bytes.length t.buf then
    t.buf <- Bytes.create (max len (2 * Bytes.length t.buf));
  match In_channel.really_input ic t.buf 0 len with
  | Some () -> len
  | None -> raise End_of_file

(* Entry by entry, under the header-first rule of "Tiers" above.  The
   parser reads the buffer through a string view that dies with the
   call, and copies every string it returns, so no decoded value
   aliases the buffer the next load writes again. *)
let load_table t tb =
  match file_of t ~group:tb.tb_group ~ckey:tb.tb_ckey with
  | None -> ()
  | Some path when not (Sys.file_exists path) -> ()
  | Some path -> (
      let decode before acc ej =
        if try current tb before with Json.Bad _ -> false then
          match
            entry_of_json t ~config:tb.tb_config ~latency0:tb.tb_latency0 ej
          with
          | None -> acc
          | Some e -> e :: acc
        else acc
      in
      match
        let len = read_file t path in
        t.s_read <- t.s_read + len;
        Sched.Profile.cache_io ~read:len ~written:0;
        Json.fold_member ~len "entries" decode []
          (Bytes.unsafe_to_string t.buf)
      with
      | exception _ -> quarantine_file path
      | decoded, others -> (
          match current tb others with
          | exception Json.Bad _ ->
              (* parsed as JSON but not shaped like a table file *)
              quarantine_file path
          | false -> ()  (* stale or foreign: self-invalidates, file is
                            rewritten on the next save *)
          | true ->
              List.iter
                (fun (fp, en) ->
                  let bucket =
                    Option.value ~default:[] (Hashtbl.find_opt tb.tb_entries fp)
                  in
                  Hashtbl.replace tb.tb_entries fp (en :: bucket))
                (List.rev decoded)))

let table t ~mode ~variant ~config =
  let group = group_of ~mode ~variant in
  let ckey = Machine.Config.cache_key config in
  let key = group ^ "\x00" ^ ckey in
  match Hashtbl.find_opt t.tables key with
  | Some tb -> tb
  | None ->
      let tb =
        {
          tb_group = group;
          tb_ckey = ckey;
          tb_config = config;
          tb_latency0 = (mode = Experiment.Replication_latency0);
          tb_dirty = false;
          tb_entries = Hashtbl.create 256;
        }
      in
      load_table t tb;
      Hashtbl.replace t.tables key tb;
      tb

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let save t =
  match t.dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      Hashtbl.iter
        (fun _ tb ->
          if not tb.tb_dirty then
            (* Clean since its last load or save: a repeated drain (or a
               suite shutdown after a warm, all-hit run) rewrites
               nothing.  Counted so the cache stats line can prove it. *)
            t.s_skipped <- t.s_skipped + 1
          else begin
            match file_of t ~group:tb.tb_group ~ckey:tb.tb_ckey with
            | None -> ()
            | Some path ->
                (* The bytes of [Json.print] of the object [header tb]
                   plus [entries], rendered one entry at a time into one
                   buffer.  The entries come in [Hashtbl.fold] order,
                   last bucket first, each bucket in list order. *)
                let b = Buffer.create 65536 in
                Buffer.add_char b '{';
                List.iter
                  (fun (k, v) ->
                    Json.to_buffer b (Json.Str k);
                    Buffer.add_char b ':';
                    Json.to_buffer b v;
                    Buffer.add_char b ',')
                  (header tb);
                Buffer.add_string b "\"entries\":[";
                let first = ref true in
                List.iter
                  (fun (fp, bucket) ->
                    List.iter
                      (fun en ->
                        if not !first then Buffer.add_char b ',';
                        first := false;
                        Json.to_buffer b (json_of_entry fp en))
                      bucket)
                  (Hashtbl.fold
                     (fun fp bucket acc -> (fp, bucket) :: acc)
                     tb.tb_entries []);
                Buffer.add_string b "]}";
                let tmp = path ^ ".tmp" in
                Out_channel.with_open_bin tmp (fun oc ->
                    Buffer.output_buffer oc b);
                Sys.rename tmp path;
                t.s_written <- t.s_written + Buffer.length b;
                t.s_saved <- t.s_saved + 1;
                Sched.Profile.cache_io ~read:0 ~written:(Buffer.length b);
                tb.tb_dirty <- false
          end)
        t.tables

(* ------------------------------------------------------------------ *)
(* Lookup / record / evict                                              *)
(* ------------------------------------------------------------------ *)

let find_entry tb ~fp ~enc ~trip =
  match Hashtbl.find_opt tb.tb_entries fp with
  | None -> None
  | Some bucket ->
      (* Fingerprint matched: confirm with the deep structural check
         before trusting it. *)
      List.find_opt
        (fun en -> en.e_trip = trip && String.equal en.e_struct enc)
        bucket

let lookup t ~mode ?(variant = "") ~config (loop : Workload.Generator.loop) =
  let tb = table t ~mode ~variant ~config in
  let fp, enc = fingerprint t loop in
  match find_entry tb ~fp ~enc ~trip:loop.trip with
  | None ->
      t.s_misses <- t.s_misses + 1;
      Sched.Profile.cache_miss ();
      Miss
  | Some en -> (
      t.s_hits <- t.s_hits + 1;
      Sched.Profile.cache_hit ();
      match en.e_pay with
      | P_give_up (cls, msg) -> Hit_give_up (cls, msg)
      | P_run (outcome, repl_stats, counts) ->
          (* Rebind the querying loop: id/benchmark/visits are outside
             the key and belong to the caller. *)
          Hit { Experiment.loop; mode; outcome; repl_stats; counts })

let record t ~mode ?(variant = "") ~config (loop : Workload.Generator.loop)
    result =
  let pay =
    match result with
    | Ok r ->
        (* A suite records the runs it has shared, already unrouted; the
           serve daemon the runs it has just computed, routed. *)
        let r = Experiment.unrouted r in
        Some (P_run (r.outcome, r.repl_stats, r.counts))
    | Error e ->
        (* Timeouts are wall-clock-dependent and bugs must stay loud:
           only honest capacity give-ups are cacheable negatives. *)
        if Sched.Sched_error.is_give_up e then
          Some
            (P_give_up
               (Sched.Sched_error.class_name e, Sched.Sched_error.to_string e))
        else None
  in
  match pay with
  | None -> ()
  | Some e_pay ->
      let tb = table t ~mode ~variant ~config in
      let fp, enc = fingerprint t loop in
      if Option.is_none (find_entry tb ~fp ~enc ~trip:loop.trip) then begin
        let bucket =
          Option.value ~default:[] (Hashtbl.find_opt tb.tb_entries fp)
        in
        Hashtbl.replace tb.tb_entries fp
          ({ e_struct = enc; e_trip = loop.trip; e_pay } :: bucket);
        tb.tb_dirty <- true
      end

let evict t ~mode ?(variant = "") ~config (loop : Workload.Generator.loop) =
  let tb = table t ~mode ~variant ~config in
  let fp, enc = fingerprint t loop in
  match Hashtbl.find_opt tb.tb_entries fp with
  | None -> ()
  | Some bucket ->
      let bucket' =
        List.filter
          (fun en ->
            not (en.e_trip = loop.trip && String.equal en.e_struct enc))
          bucket
      in
      if List.length bucket' <> List.length bucket then begin
        (if bucket' = [] then Hashtbl.remove tb.tb_entries fp
         else Hashtbl.replace tb.tb_entries fp bucket');
        tb.tb_dirty <- true
      end
