type t = {
  loops_ : Workload.Generator.loop list;
  cache : (string, Experiment.loop_run list) Hashtbl.t;
  family : (string, Machine.Config.t * Experiment.traced list) Hashtbl.t;
      (* one trace set per (mode, register-blind machine family), filled
         by register sweeps ({!sweep_runs}, {!spill_runs}) only; any
         recording answers every register member — tighter files by
         re-judging, roomier ones by promotion.  The set is re-recorded
         when a member with a *stricter* register file arrives: its
         escalations run deeper than the recording, so replaying them
         live once and keeping the longer trace makes every later pass
         over the family (notably the spill sweep) a dry replay. *)
  skels : (string, Sched.Partition.Hier.skel) Hashtbl.t;
      (* partition skeletons per (machine structure, canonical DDG
         digest) — mode-blind and config-blind, shared by every loop
         with a structurally identical graph *)
  views : (string, Sched.Partition.Hier.t) Hashtbl.t;
      (* hierarchy views per (loop, buses, latency, structure) — the
         full configuration signature partition refinement reads, which
         excludes the register file and the mode.  Reusing the view
         across the passes over a register family (both modes, every
         member, the spill sweep) hands each pass the previous passes'
         memoized refinements: the escalation lineage is a pure function
         of the II, so later walks re-refine nothing on shared levels.
         A view is keyed to one loop, every pass item holds exactly one
         loop, and passes are sequential, so a view still reaches at
         most one pool worker at a time. *)
  digests : (string, string) Hashtbl.t;  (* loop id -> DDG digest *)
  store : Store.t option;
      (* content-addressed schedule store, consulted before any
         scheduling (direct or traced) and fed by every pass; only
         touched on the orchestrating domain *)
  share : Share.t;
      (* every run the suite computes is rebuilt around one graph and
         one routed graph per distinct content before it is kept or
         recorded; the store's own table when there is a store *)
  jobs_ : int;
}

let create ?loops ?(jobs = 1) ?store () =
  let loops_ =
    match loops with Some l -> l | None -> Workload.Generator.suite ()
  in
  {
    loops_;
    cache = Hashtbl.create 32;
    family = Hashtbl.create 8;
    skels = Hashtbl.create 64;
    views = Hashtbl.create 256;
    digests = Hashtbl.create 64;
    store;
    share =
      (match store with Some s -> Store.share s | None -> Share.create ());
    jobs_ = jobs;
  }

let mode_tag = Experiment.mode_tag

(* Keyed on the injective {!Machine.Config.cache_key}: display names
   collide (a custom homogeneous machine prints the default one's). *)
let runs_key mode config =
  mode_tag mode ^ "/" ^ Machine.Config.cache_key config

let units_of (c : Machine.Config.t) =
  let cluster_units r =
    String.concat "." (List.map string_of_int (Array.to_list r))
  in
  String.concat "+"
    (Array.to_list (Array.map cluster_units c.Machine.Config.fu_matrix))
  ^ if c.Machine.Config.copy_uses_int_slot then "+cp" else ""

(* Register-blind identity of a configuration: everything the
   escalation attempts depend on (clusters via the unit matrix, buses,
   latency, copy slot), so machines differing only in register count
   share one trace set. *)
let family_key mode (c : Machine.Config.t) =
  Printf.sprintf "%s/%db%dl[%s]" (mode_tag mode) c.Machine.Config.buses
    c.Machine.Config.bus_latency (units_of c)

(* ------------------------------------------------------------------ *)
(* Shared partition skeletons                                          *)
(* ------------------------------------------------------------------ *)

let digest_of t (l : Workload.Generator.loop) =
  match Hashtbl.find_opt t.digests l.id with
  | Some d -> d
  | None ->
      let d = Ddg.Graph.digest l.graph in
      Hashtbl.replace t.digests l.id d;
      d

(* A per-(loop, config) hierarchy view over the shared skeleton store.
   Skeletons are keyed by (machine structure, canonical DDG digest):
   coarsening reads neither buses, latency, registers nor the mode, so
   one skeleton serves every configuration of a structure and every
   loop whose graph is structurally identical.  The store is touched
   only on the orchestrating domain — callers build the views *before*
   handing work to the pool; concurrent views over one skeleton are
   safe (the skeleton is internally locked). *)
let view_for t config (l : Workload.Generator.loop) =
  let vkey =
    Printf.sprintf "%db%dl[%s]#%s" config.Machine.Config.buses
      config.Machine.Config.bus_latency (units_of config) l.id
  in
  match Hashtbl.find_opt t.views vkey with
  | Some v -> v
  | None ->
      let key = "[" ^ units_of config ^ "]#" ^ digest_of t l in
      let skel =
        match Hashtbl.find_opt t.skels key with
        | Some s -> s
        | None ->
            let s =
              Sched.Partition.Hier.skeleton
                (Sched.Driver.hierarchy config l.graph)
            in
            Hashtbl.replace t.skels key s;
            s
      in
      let v = Sched.Partition.Hier.view skel ~graph:l.graph config in
      Hashtbl.replace t.views vkey v;
      v

(* ------------------------------------------------------------------ *)
(* Pooled passes (views pre-built on the calling domain)               *)
(* ------------------------------------------------------------------ *)

(* Classify a pass's per-loop results on the orchestrating domain:
   share every success's values, record everything into the schedule
   store (it drops timeouts and bugs itself), then keep the successes
   and raise on bugs exactly as {!Experiment.keep_or_raise} always did.
   Running the classification here rather than inside the pool workers
   is what lets give-up errors reach the store instead of dying in the
   worker's [filter_map]. *)
let classify_record t mode ?(variant = "") config pairs =
  let pairs =
    List.map (fun (l, res) -> (l, Result.map (Share.run t.share) res)) pairs
  in
  (match t.store with
  | None -> ()
  | Some s ->
      List.iter
        (fun (l, res) -> Store.record s ~mode ~variant ~config l res)
        pairs);
  List.filter_map
    (fun ((l : Workload.Generator.loop), res) ->
      Experiment.keep_or_raise ~id:l.id res)
    pairs

(* Serve a whole (mode, config) sweep from the schedule store, or
   nothing: either every loop answers (a success or a recorded give-up)
   or the sweep computes cold, as one pass over every loop.  Length runs
   are always derived from the replication runs (cheap, deterministic),
   so they bypass the store entirely. *)
let store_served t mode ?(variant = "") config =
  match t.store with
  | None -> None
  | Some _ when mode = Experiment.Replication_length -> None
  | Some s ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | l :: rest -> (
            match Store.lookup s ~mode ~variant ~config l with
            | Store.Miss -> None
            | Store.Hit r -> go (r :: acc) rest
            | Store.Hit_give_up _ -> go acc rest)
      in
      go [] t.loops_

let direct_runs t mode config =
  let items = List.map (fun l -> (l, view_for t config l)) t.loops_ in
  let pairs =
    Pool.map ~jobs:t.jobs_
      (fun ((l : Workload.Generator.loop), hier) ->
        (l, Experiment.run_loop ~hier mode config l))
      items
  in
  classify_record t mode config pairs

(* Record one trace per loop at [config] for its register family,
   replacing any earlier set of the family. *)
let record_family t mode config =
  let items = List.map (fun l -> (l, view_for t config l)) t.loops_ in
  let trs =
    Pool.map ~jobs:t.jobs_
      (fun (l, hier) -> Experiment.record_trace ~hier mode config l)
      items
  in
  Hashtbl.replace t.family (family_key mode config) (config, trs);
  trs

let replay_all t ?(variant = "") ?spiller mode trs config =
  let items =
    List.map
      (fun tr -> (tr, view_for t config (Experiment.traced_loop tr)))
      trs
  in
  let pairs =
    Pool.map ~jobs:t.jobs_
      (fun (tr, hier) ->
        (Experiment.traced_loop tr, Experiment.replay_traced ?spiller ~hier tr config))
      items
  in
  classify_record t mode ~variant config pairs

(* One trace per loop for [at]'s register family, get-or-record.  A
   recording at [at]'s register count or below answers [at] dry (equal
   count replays verbatim, a stricter recording promotes).  A recording
   with *more* registers would leave [at] a live walk past the trace for
   every register-bound loop — and later passes (the spill sweep) would
   re-walk those same levels — so the family re-records at the stricter
   member instead, replacing the set with the longer trace. *)
let family_traces t mode ~at =
  match Hashtbl.find_opt t.family (family_key mode at) with
  | Some (rc, trs)
    when rc.Machine.Config.total_registers <= at.Machine.Config.total_registers ->
      trs
  | Some _ | None -> record_family t mode at

(* ------------------------------------------------------------------ *)
(* The caching policy                                                  *)
(* ------------------------------------------------------------------ *)

(* Traces pay only inside register sweeps (below): a plain sweep that
   misses the run cache and the store schedules every loop directly. *)
let rec runs t mode config =
  let key = runs_key mode config in
  match Hashtbl.find_opt t.cache key with
  | Some r -> r
  | None ->
      let r =
        match store_served t mode config with
        | Some served -> served
        | None -> (
            match mode with
            | Experiment.Replication_length ->
                List.filter_map
                  (fun (r : Experiment.loop_run) ->
                    Experiment.keep_or_raise
                      ~id:r.Experiment.loop.Workload.Generator.id
                      (Result.map (Share.run t.share)
                         (Experiment.lengthen_run r)))
                  (runs t Experiment.Replication config)
            | Experiment.Baseline | Experiment.Replication
            | Experiment.Replication_latency0 | Experiment.Macro_replication ->
                direct_runs t mode config)
      in
      Hashtbl.replace t.cache key r;
      r

(* Each register family records at its strictest missing member:
   roomier members then replay by promotion, so no replay walks live
   past its trace.  The store is asked first, so a warm sweep records
   nothing.  The latency-0 ablation's routing flag is outside the trace
   contract. *)
let sweep_runs t mode configs =
  (match mode with
  | Experiment.Baseline | Experiment.Replication
  | Experiment.Macro_replication ->
      let cached c = Hashtbl.mem t.cache (runs_key mode c) in
      let keep c r = Hashtbl.replace t.cache (runs_key mode c) r in
      let served c =
        match store_served t mode c with
        | Some r ->
            keep c r;
            true
        | None -> false
      in
      let missing = List.filter (fun c -> not (cached c || served c)) configs in
      List.iter
        (fun c ->
          if not (cached c) then begin
            let members =
              List.filter (Sched.Driver.Trace.same_family c) missing
            in
            let strictest =
              List.fold_left
                (fun (a : Machine.Config.t) (m : Machine.Config.t) ->
                  if m.total_registers < a.total_registers then m else a)
                c members
            in
            let trs = family_traces t mode ~at:strictest in
            List.iter
              (fun m -> if not (cached m) then keep m (replay_all t mode trs m))
              members
          end)
        missing
  | Experiment.Replication_latency0 | Experiment.Replication_length -> ());
  List.map (fun c -> (c, runs t mode c)) configs

let spill_runs t mode config =
  match store_served t mode ~variant:"spill" config with
  | Some served -> served
  | None ->
      replay_all t ~variant:"spill" ~spiller:Sched.Spill.spiller mode
        (family_traces t mode ~at:config)
        config

let benchmark_runs t mode config =
  Experiment.group_by_benchmark (runs t mode config)

let benchmark_loops t name =
  List.filter
    (fun l -> String.equal l.Workload.Generator.benchmark name)
    t.loops_
