(* The from-scratch validity oracle.

   Everything here is re-derived: functional-unit and bus occupancy are
   counted in plain integer Hashtbls keyed by (cluster, kind, slot) and
   (bus, slot); dependence latencies come from Machine.Opclass.latency
   and the configuration's bus latency, not from the routed graph's edge
   payloads (an edge carrying a too-small latency is itself a bug this
   oracle must catch); live ranges are rebuilt from the register edges.
   The only thing taken from lib/sched is the data of the schedule
   record — no function of Mrt, Route, Regalloc or Regpressure runs. *)

open Ddg

type issue = { rule : string; detail : string }

let rules =
  [
    "ii-range"; "issue-cycle"; "cluster-range"; "bus-slot"; "phantom-bus";
    "copy-producer"; "cross-edge"; "dependence"; "fu-capacity"; "bus-conflict";
    "register-pressure"; "instance-map"; "replica-cluster"; "store-instances";
    "dead-code"; "value-supply"; "mem-order";
  ]

let to_strings issues =
  List.map (fun i -> Printf.sprintf "%s: %s" i.rule i.detail) issues

let distinct_rules issues =
  List.sort_uniq compare (List.map (fun i -> i.rule) issues)

(* ------------------------------------------------------------------ *)
(* Intrinsic checks: the schedule against the machine                   *)
(* ------------------------------------------------------------------ *)

(* Required result latency of an edge, re-derived.  A hand-authored
   graph may carry a larger latency than the producer's class (an extra
   constraint the schedule must still honour), so the maximum of the
   claimed and the derived latency is enforced. *)
let required_latency ~latency0 ~bus_latency g is_copy (e : Graph.edge) =
  match e.Graph.kind with
  | Graph.Mem -> max e.Graph.latency 1
  | Graph.Reg ->
      let derived =
        if is_copy e.Graph.src then if latency0 then 0 else bus_latency
        else
          match Graph.op g e.Graph.src with
          | Machine.Opclass.Copy -> if latency0 then 0 else bus_latency
          | op -> Machine.Opclass.latency op
      in
      max e.Graph.latency derived

let check_intrinsic ~push ~registers ~latency0 (s : Sched.Schedule.t) =
  let config = s.Sched.Schedule.config in
  let route = Sched.Schedule.route s in
  let g = route.Sched.Route.graph in
  let assign = route.Sched.Route.assign in
  let cycles = s.Sched.Schedule.cycles in
  let buses = s.Sched.Schedule.buses in
  let ii = s.Sched.Schedule.ii in
  let n = Graph.n_nodes g in
  let clusters = config.Machine.Config.clusters in
  let n_buses = config.Machine.Config.buses in
  let bus_latency = config.Machine.Config.bus_latency in
  let is_copy v = route.Sched.Route.copy_of.(v) >= 0 in
  if ii < 1 then push "ii-range" (Printf.sprintf "II %d < 1" ii)
  else begin
    (* Placement sanity; nodes with nonsense placements are excluded
       from the resource accounting so the oracle stays total. *)
    let sound = Array.make n true in
    for v = 0 to n - 1 do
      if cycles.(v) < 0 then begin
        sound.(v) <- false;
        push "issue-cycle"
          (Printf.sprintf "node %s has no issue cycle" (Graph.label g v))
      end;
      if assign.(v) < 0 || assign.(v) >= clusters then begin
        sound.(v) <- false;
        push "cluster-range"
          (Printf.sprintf "node %s sits in nonexistent cluster %d"
             (Graph.label g v) assign.(v))
      end;
      if is_copy v then begin
        if buses.(v) < 0 || buses.(v) >= n_buses then
          push "bus-slot"
            (Printf.sprintf "copy %s has no valid bus (%d of %d)"
               (Graph.label g v) buses.(v) n_buses)
      end
      else if buses.(v) <> -1 then
        push "phantom-bus"
          (Printf.sprintf "non-copy %s claims bus %d" (Graph.label g v)
             buses.(v))
    done;
    (* Copy structure: a copy reads exactly one producer, sits in the
       producer's cluster (it drives the bus from the local register
       file) and serves at least one consumer. *)
    for v = 0 to n - 1 do
      if is_copy v then begin
        (match Graph.reg_preds g v with
        | [ e ] ->
            if
              sound.(v)
              && sound.(e.Graph.src)
              && assign.(e.Graph.src) <> assign.(v)
            then
              push "copy-producer"
                (Printf.sprintf
                   "copy %s sits in cluster %d but its producer %s is in %d"
                   (Graph.label g v) assign.(v)
                   (Graph.label g e.Graph.src)
                   assign.(e.Graph.src))
        | es ->
            push "copy-producer"
              (Printf.sprintf "copy %s reads %d producers, wants exactly 1"
                 (Graph.label g v) (List.length es)));
        if Graph.reg_succs g v = [] then
          push "copy-producer"
            (Printf.sprintf "copy %s transfers a value nobody consumes"
               (Graph.label g v))
      end
    done;
    (* Routing: a register value may only cross clusters on a bus.  Any
       cross-cluster register edge whose source is not a copy means a
       consumer reads a remote register file directly. *)
    Array.iter
      (fun e ->
        let u = e.Graph.src and v = e.Graph.dst in
        if
          e.Graph.kind = Graph.Reg
          && sound.(u) && sound.(v)
          && assign.(u) <> assign.(v)
          && not (is_copy u)
        then
          push "cross-edge"
            (Printf.sprintf
               "%s (cluster %d) feeds %s (cluster %d) without a bus copy"
               (Graph.label g u) assign.(u) (Graph.label g v) assign.(v)))
      (Graph.edges g);
    (* Dependences at the committed II, with re-derived latencies. *)
    Array.iter
      (fun e ->
        let u = e.Graph.src and v = e.Graph.dst in
        if sound.(u) && sound.(v) then begin
          let lat = required_latency ~latency0 ~bus_latency g is_copy e in
          if cycles.(u) + lat > cycles.(v) + (ii * e.Graph.distance) then
            push "dependence"
              (Printf.sprintf
                 "%s@%d needs %d cycles before %s@%d (distance %d, II %d)"
                 (Graph.label g u) cycles.(u) lat (Graph.label g v) cycles.(v)
                 e.Graph.distance ii)
        end)
      (Graph.edges g);
    (* Functional units: count issues per (cluster, kind, modulo slot)
       in a plain map and compare with the machine's capacity. *)
    let fu_used : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
    let book c k s =
      let key = (c, k, s) in
      Hashtbl.replace fu_used key
        (1 + Option.value ~default:0 (Hashtbl.find_opt fu_used key))
    in
    for v = 0 to n - 1 do
      if sound.(v) then begin
        let slot = cycles.(v) mod ii in
        match Machine.Opclass.fu_kind (Graph.op g v) with
        | Some k -> book assign.(v) (Machine.Fu.index k) slot
        | None ->
            (* A copy burns an integer issue slot only on cross-path
               machines; on the paper's machine it lives on the bus. *)
            if config.Machine.Config.copy_uses_int_slot then
              book assign.(v) (Machine.Fu.index Machine.Fu.Int) slot
      end
    done;
    Hashtbl.iter
      (fun (c, k, slot) used ->
        let kind = Machine.Fu.of_index k in
        let cap = Machine.Config.fus config ~cluster:c kind in
        if used > cap then
          push "fu-capacity"
            (Printf.sprintf "cluster %d slot %d issues %d %s ops on %d units"
               c slot used (Machine.Fu.to_string kind) cap))
      fu_used;
    (* Buses: a transfer owns its bus for bus_latency consecutive
       cycles; two transfers may never overlap on one bus. *)
    let bus_used : (int * int, string list) Hashtbl.t = Hashtbl.create 64 in
    for v = 0 to n - 1 do
      if is_copy v && sound.(v) && buses.(v) >= 0 && buses.(v) < n_buses then
        for i = 0 to max 1 bus_latency - 1 do
          let key = (buses.(v), (cycles.(v) + i) mod ii) in
          Hashtbl.replace bus_used key
            (Graph.label g v
            :: Option.value ~default:[] (Hashtbl.find_opt bus_used key))
        done
    done;
    Hashtbl.iter
      (fun (b, slot) users ->
        if List.length users > 1 then
          push "bus-conflict"
            (Printf.sprintf "bus %d slot %d carries %s" b slot
               (String.concat "+" (List.rev users))))
      bus_used;
    (* Register pressure, from scratch: a value occupies a register in a
       cluster from its definition (for a bus transfer: its arrival)
       until one cycle past its last local use; overlapping pipeline
       stages stack, so a range is painted cycle by cycle onto the
       modulo slots.  Only meaningful on a structurally sound placement
       — when anything above condemned a node, the errors stand on
       their own. *)
    if registers && Array.for_all Fun.id sound then begin
      let limit = Machine.Config.registers_per_cluster config in
      let pressure = Array.make (clusters * ii) 0 in
      let paint c lo hi =
        for cyc = lo to hi - 1 do
          let i = (c * ii) + (cyc mod ii) in
          pressure.(i) <- pressure.(i) + 1
        done
      in
      for v = 0 to n - 1 do
        if not (Graph.is_store g v) then begin
          let latest : (int, int) Hashtbl.t = Hashtbl.create 4 in
          List.iter
            (fun e ->
              let use = cycles.(e.Graph.dst) + (ii * e.Graph.distance) in
              let c = assign.(e.Graph.dst) in
              match Hashtbl.find_opt latest c with
              | Some u when u >= use -> ()
              | _ -> Hashtbl.replace latest c use)
            (Graph.reg_succs g v);
          if is_copy v then begin
            (* The transferred value materialises in every consuming
               cluster when the bus delivers it. *)
            let arrival =
              cycles.(v) + if latency0 then 0 else bus_latency
            in
            Hashtbl.iter
              (fun c last -> if last + 1 > arrival then paint c arrival (last + 1))
              latest
          end
          else begin
            let def = cycles.(v) in
            let last = Hashtbl.fold (fun _ u acc -> max acc u) latest def in
            paint assign.(v) def (last + 1)
          end
        end
      done;
      for c = 0 to clusters - 1 do
        let maxlive = ref 0 in
        for slot = 0 to ii - 1 do
          if pressure.((c * ii) + slot) > !maxlive then
            maxlive := pressure.((c * ii) + slot)
        done;
        if !maxlive > limit then
          push "register-pressure"
            (Printf.sprintf "cluster %d holds %d live values on %d registers"
               c !maxlive limit)
      done
    end
  end

(* ------------------------------------------------------------------ *)
(* Replication semantics: the schedule against the original loop        *)
(* ------------------------------------------------------------------ *)

(* Materialisation labels a replica of "X" placed in cluster 2 as
   "X'2"; surviving originals keep their label.  Copies are recognised
   from the route data, never from labels. *)
let split_replica label =
  match String.rindex_opt label '\'' with
  | None -> (label, None)
  | Some i ->
      let base = String.sub label 0 i in
      let suffix = String.sub label (i + 1) (String.length label - i - 1) in
      if
        base <> "" && suffix <> ""
        && String.for_all (fun c -> c >= '0' && c <= '9') suffix
      then (base, Some (int_of_string suffix))
      else (label, None)

let check_replication ~push ~original (s : Sched.Schedule.t) =
  let route = Sched.Schedule.route s in
  let g = route.Sched.Route.graph in
  let assign = route.Sched.Route.assign in
  let clusters = s.Sched.Schedule.config.Machine.Config.clusters in
  let n = Graph.n_nodes g in
  let og = original in
  let on = Graph.n_nodes og in
  let is_copy v = route.Sched.Route.copy_of.(v) >= 0 in
  (* Original labels must identify nodes for the mapping to exist. *)
  let by_label = Hashtbl.create on in
  let ambiguous = ref false in
  for v = 0 to on - 1 do
    let l = Graph.label og v in
    if Hashtbl.mem by_label l then ambiguous := true
    else Hashtbl.replace by_label l v
  done;
  if !ambiguous then
    push "instance-map" "original labels are not distinct; cannot relate"
  else begin
    (* Map every scheduled non-copy node back to its original. *)
    let orig_of = Array.make n (-1) in
    let instances = Array.make on [] in
    for f = 0 to n - 1 do
      if not (is_copy f) then begin
        let label = Graph.label g f in
        let base, replica_cluster = split_replica label in
        match Hashtbl.find_opt by_label base with
        | None ->
            push "instance-map"
              (Printf.sprintf "instance %s descends from no original" label)
        | Some ov ->
            if not (Machine.Opclass.equal (Graph.op g f) (Graph.op og ov))
            then
              push "instance-map"
                (Printf.sprintf "instance %s executes %s, original %s is %s"
                   label
                   (Machine.Opclass.to_string (Graph.op g f))
                   base
                   (Machine.Opclass.to_string (Graph.op og ov)))
            else begin
              orig_of.(f) <- ov;
              instances.(ov) <- f :: instances.(ov);
              match replica_cluster with
              | Some c
                when assign.(f) >= 0 && assign.(f) < clusters
                     && c <> assign.(f) ->
                  push "replica-cluster"
                    (Printf.sprintf "replica %s is assigned to cluster %d"
                       label assign.(f))
              | _ -> ()
            end
      end
    done;
    (* Stores are never replicated (the memory hierarchy is centralized)
       and never removable. *)
    for ov = 0 to on - 1 do
      if Graph.is_store og ov then begin
        let k = List.length instances.(ov) in
        if k <> 1 then
          push "store-instances"
            (Printf.sprintf "store %s has %d instances, wants exactly 1"
               (Graph.label og ov) k)
      end
    done;
    (* Dead-code removal soundness: an original with no surviving
       instance must be genuinely dead — no live consumer instance still
       wants its value. *)
    for ov = 0 to on - 1 do
      if instances.(ov) = [] && not (Graph.is_store og ov) then
        List.iter
          (fun e ->
            if instances.(e.Graph.dst) <> [] then
              push "dead-code"
                (Printf.sprintf
                   "removed %s still feeds live instruction %s"
                   (Graph.label og ov)
                   (Graph.label og e.Graph.dst)))
          (Graph.reg_succs og ov)
    done;
    (* Subgraph closure / value supply: every instance must read each of
       its original operands from a producer instance in its own cluster
       or from a bus copy fed by some producer instance — never from
       nowhere, never from a remote register file. *)
    let supplied fv (e : Graph.edge) =
      let u = e.Graph.src in
      List.exists
        (fun (e' : Graph.edge) ->
          e'.Graph.distance = e.Graph.distance
          &&
          let sx = e'.Graph.src in
          if is_copy sx then
            let p = route.Sched.Route.copy_of.(sx) in
            p >= 0 && p < n && orig_of.(p) = u
          else orig_of.(sx) = u && assign.(sx) = assign.(fv))
        (Graph.reg_preds g fv)
    in
    for fv = 0 to n - 1 do
      if (not (is_copy fv)) && orig_of.(fv) >= 0 then
        List.iter
          (fun (e : Graph.edge) ->
            if not (supplied fv e) then
              push "value-supply"
                (Printf.sprintf
                   "instance %s (cluster %d) reads %s from neither a local \
                    instance nor a routed copy"
                   (Graph.label g fv) assign.(fv)
                   (Graph.label og e.Graph.src)))
          (Graph.reg_preds og orig_of.(fv))
    done;
    (* Memory ordering: every instance pair of an ordered original pair
       must still be ordered (replicated loads obey their original's
       memory dependences). *)
    Array.iter
      (fun (e : Graph.edge) ->
        if e.Graph.kind = Graph.Mem then
          List.iter
            (fun fu ->
              List.iter
                (fun fv ->
                  let ordered =
                    List.exists
                      (fun (e' : Graph.edge) ->
                        e'.Graph.kind = Graph.Mem
                        && e'.Graph.src = fu
                        && e'.Graph.distance = e.Graph.distance)
                      (Graph.preds g fv)
                  in
                  if not ordered then
                    push "mem-order"
                      (Printf.sprintf
                         "memory order %s -> %s lost between instances %s \
                          and %s"
                         (Graph.label og e.Graph.src)
                         (Graph.label og e.Graph.dst)
                         (Graph.label g fu) (Graph.label g fv)))
                instances.(e.Graph.dst))
            instances.(e.Graph.src))
      (Graph.edges og)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let run ?original ?(registers = true) ?(latency0 = false)
    (s : Sched.Schedule.t) =
  let s = Sched.Schedule.routed s in
  let issues = ref [] in
  let push rule detail = issues := { rule; detail } :: !issues in
  check_intrinsic ~push ~registers ~latency0 s;
  (match original with
  | Some og -> check_replication ~push ~original:og s
  | None -> ());
  match List.rev !issues with [] -> Ok () | es -> Error es
