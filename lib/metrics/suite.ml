type t = {
  loops_ : Workload.Generator.loop list;
  cache : (string, Experiment.loop_run list) Hashtbl.t;
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
         scheduling and fed by every pass; only touched on the
         orchestrating domain *)
  share : Share.t;
      (* every run the suite computes is rebuilt around one value per
         distinct content (graph, partition, cycle and bus arrays,
         increments), its schedule unrouted, by the pool item that
         computed it; the store's own table when there is a store,
         seeded with the suite's loops' graphs so that a run the store
         decodes for an untransformed loop holds the loop's own graph *)
  jobs_ : int;
}

let create ?loops ?(jobs = 1) ?store () =
  let loops_ =
    match loops with Some l -> l | None -> Workload.Generator.suite ()
  in
  let share =
    match store with Some s -> Store.share s | None -> Share.create ()
  in
  List.iter
    (fun (l : Workload.Generator.loop) -> ignore (Share.graph share l.graph))
    loops_;
  {
    loops_;
    cache = Hashtbl.create 32;
    skels = Hashtbl.create 64;
    views = Hashtbl.create 256;
    digests = Hashtbl.create 64;
    store;
    share;
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
   record everything into the schedule store (it drops timeouts and
   bugs itself), then keep the successes and raise on bugs exactly as
   {!Experiment.keep_or_raise} always did.  Running the classification
   here rather than inside the pool workers is what lets give-up errors
   reach the store instead of dying in the worker's [filter_map]. *)
let classify_record t mode ?(variant = "") config pairs =
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

(* One pass over every loop at [config], on the pool: the scheduler's
   own run of each loop, with [spiller] installed when given.  Its pool
   items hand back their runs already shared ({!Share.run}, which also
   unroutes them): a run that duplicates values the table holds dies
   young with its item, instead of being promoted with the whole pass's
   results before it is shared. *)
let pass t ?variant ?spiller mode config =
  let items = List.map (fun l -> (l, view_for t config l)) t.loops_ in
  let pairs =
    Pool.map ~jobs:t.jobs_
      (fun ((l : Workload.Generator.loop), hier) ->
        ( l,
          Result.map (Share.run t.share)
            (Experiment.run_loop ?spiller ~hier mode config l) ))
      items
  in
  classify_record t mode ?variant config pairs

(* ------------------------------------------------------------------ *)
(* The caching policy                                                  *)
(* ------------------------------------------------------------------ *)

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
                pass t mode config)
      in
      Hashtbl.replace t.cache key r;
      r

let spill_runs t mode config =
  match store_served t mode ~variant:"spill" config with
  | Some served -> served
  | None -> pass t ~variant:"spill" ~spiller:Sched.Spill.spiller mode config

let benchmark_runs t mode config =
  Experiment.group_by_benchmark (runs t mode config)

let benchmark_loops t name =
  List.filter
    (fun l -> String.equal l.Workload.Generator.benchmark name)
    t.loops_
