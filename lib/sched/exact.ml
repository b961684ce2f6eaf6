(* Exact modulo scheduling as incremental SAT — see exact.mli for the
   model.  Shapes of the encoding:

     q.(v).(k).(c)    instance of original [v] in cluster [k] issues at
                      cycle [c] (0 below the node's ASAP bound = absent)
     dq.(v).(k).(c)   ladder: "issued at some cycle <= c"; doubles as
                      at-most-one over cycles and, at [c = H-1], as the
                      instance-presence literal
     w.(v).(k).(b).(c) broadcast copy of instance (v,k) on bus [b] at [c]
     wany/dcp          same OR/ladder structure for the copy
     sel_loc.(e).(k)   consumer instances in cluster [k] read edge [e]
                      from the local producer instance
     sel_cp.(e).(k).(ks) ... from the copy of the producer instance in
                      cluster [ks]

   Everything II-independent (ladders, cardinality, supply structure,
   distance-0 timing) is emitted once at construction; modulo occupancy
   and loop-carried timing are re-emitted per II level under a guard
   literal. *)

open Ddg

type stats = {
  s_vars : int;
  s_conflicts : int;
  s_propagations : int;
  s_cegar_rounds : int;
  s_levels : int;
}

let req_latency g (e : Graph.edge) =
  match e.Graph.kind with
  | Graph.Mem -> max e.Graph.latency 1
  | Graph.Reg ->
      max e.Graph.latency (Machine.Opclass.latency (Graph.op g e.Graph.src))

(* Longest path over distance-0 edges with required latencies: a sound
   lower bound on every instance's issue cycle (supply through a copy is
   never earlier than the direct chain). *)
let asap_cycles g =
  let n = Graph.n_nodes g in
  let asap = Array.make n 0 in
  let edges = Graph.edges g in
  for _ = 1 to n do
    Array.iter
      (fun (e : Graph.edge) ->
        if e.Graph.distance = 0 then begin
          let lo = asap.(e.Graph.src) + req_latency g e in
          if lo > asap.(e.Graph.dst) then asap.(e.Graph.dst) <- lo
        end)
      edges
  done;
  asap

let default_horizon config g =
  (* serial one-cluster schedule bound, plus copy slack for machines
     where an operation class may exist in no cluster of its own *)
  let n = Graph.n_nodes g in
  let total = ref 1 in
  for v = 0 to n - 1 do
    let lat = Machine.Opclass.latency (Graph.op g v) in
    total := !total + max 1 lat;
    if config.Machine.Config.clusters > 1 && config.Machine.Config.buses > 0
    then total := !total + lat + config.Machine.Config.bus_latency
  done;
  !total

type enc = {
  sat : Sat.t;
  config : Machine.Config.t;
  g : Graph.t;
  h : int;
  n : int;
  clusters : int;
  buses : int;
  bus_lat : int;
  asap : int array;
  latv : int array;
  q : int array array array;
  dq : int array array array;
  has_copy : bool array;
  copy0 : int array;  (* earliest copy cycle of v: asap + latency *)
  w : int array array array array;
  wany : int array array array;
  dcp : int array array array;
  reg_edges : Graph.edge array;
  sel_loc : int array array;
  sel_cp : int array array array;
  len_guards : (int, int) Hashtbl.t;
      (* schedule-length bound L -> guard literal enforcing it *)
  mutable cegar_rounds : int;
  mutable levels : int;
}

let cl enc lits = Sat.add_clause enc.sat lits

(* presence literal of instance (v,k) *)
let pres enc v k = enc.dq.(v).(k).(enc.h - 1)

(* copy-presence literal of (v,k); 0 when v has no copy vars *)
let cpres enc v k = if enc.has_copy.(v) then enc.dcp.(v).(k).(enc.h - 1) else 0

(* "issued at some cycle <= c", clamped: None = constant false *)
let dq_at enc v k c =
  if c < enc.asap.(v) then None else Some enc.dq.(v).(k).(min c (enc.h - 1))

let dcp_at enc v k c =
  if c < enc.copy0.(v) then None else Some enc.dcp.(v).(k).(min c (enc.h - 1))

(* Sinz sequential counter, every clause prefixed with [guard] (a
   literal list, [] for unguarded). *)
let at_most enc ~guard lits cap =
  let xs = Array.of_list lits in
  let n = Array.length xs in
  if n > cap then
    if cap = 0 then Array.iter (fun x -> cl enc (guard @ [ -x ])) xs
    else begin
      let s = Array.make_matrix (n - 1) cap 0 in
      for i = 0 to n - 2 do
        for j = 0 to cap - 1 do
          s.(i).(j) <- Sat.new_var enc.sat
        done
      done;
      for i = 0 to n - 2 do
        cl enc (guard @ [ -xs.(i); s.(i).(0) ]);
        if i > 0 then begin
          cl enc (guard @ [ -s.(i - 1).(0); s.(i).(0) ]);
          for j = 1 to cap - 1 do
            cl enc (guard @ [ -xs.(i); -s.(i - 1).(j - 1); s.(i).(j) ]);
            cl enc (guard @ [ -s.(i - 1).(j); s.(i).(j) ])
          done
        end
      done;
      for i = 1 to n - 1 do
        cl enc (guard @ [ -xs.(i); -s.(i - 1).(cap - 1) ])
      done
    end

(* ---------------------------------------------------------------- *)
(* Shared (II-independent) encoding                                   *)
(* ---------------------------------------------------------------- *)

let make_enc ?(replicate = true) ?horizon config g =
  let n = Graph.n_nodes g in
  let clusters = config.Machine.Config.clusters in
  let buses = config.Machine.Config.buses in
  let bus_lat = config.Machine.Config.bus_latency in
  let sat = Sat.create () in
  let asap = asap_cycles g in
  (* every node needs at least one legal issue cycle inside the horizon *)
  let min_h = 2 + Array.fold_left max 0 asap in
  let h =
    match horizon with
    | Some h -> max h min_h
    | None -> max (default_horizon config g) min_h
  in
  let latv =
    Array.init n (fun v -> Machine.Opclass.latency (Graph.op g v))
  in
  let has_copy =
    Array.init n (fun v ->
        clusters > 1 && buses > 0 && Graph.reg_succs g v <> [])
  in
  let copy0 = Array.init n (fun v -> asap.(v) + latv.(v)) in
  let zero3 () = Array.init n (fun _ -> [||]) in
  let enc =
    {
      sat;
      config;
      g;
      h;
      n;
      clusters;
      buses;
      bus_lat;
      asap;
      latv;
      q = Array.init n (fun _ -> Array.make_matrix clusters 0 0);
      dq = Array.init n (fun _ -> Array.make_matrix clusters 0 0);
      has_copy;
      copy0;
      w = Array.init n (fun _ -> [||]);
      wany = zero3 ();
      dcp = zero3 ();
      reg_edges =
        Array.of_seq
          (Seq.filter
             (fun (e : Graph.edge) -> e.Graph.kind = Graph.Reg)
             (Array.to_seq (Graph.edges g)));
      sel_loc = [||];
      sel_cp = [||];
      len_guards = Hashtbl.create 8;
      cegar_rounds = 0;
      levels = 0;
    }
  in
  (* instance placement vars + issue ladder per (v, k) *)
  for v = 0 to n - 1 do
    let qv = Array.make_matrix clusters h 0 in
    let dqv = Array.make_matrix clusters h 0 in
    for k = 0 to clusters - 1 do
      for c = asap.(v) to h - 1 do
        qv.(k).(c) <- Sat.new_var sat;
        dqv.(k).(c) <- Sat.new_var sat
      done
    done;
    enc.q.(v) <- qv;
    enc.dq.(v) <- dqv;
    for k = 0 to clusters - 1 do
      for c = asap.(v) to h - 1 do
        cl enc [ -qv.(k).(c); dqv.(k).(c) ];
        if c = asap.(v) then cl enc [ -dqv.(k).(c); qv.(k).(c) ]
        else begin
          cl enc [ -dqv.(k).(c - 1); dqv.(k).(c) ];
          cl enc [ -qv.(k).(c); -dqv.(k).(c - 1) ];
          cl enc [ -dqv.(k).(c); qv.(k).(c); dqv.(k).(c - 1) ]
        end
      done
    done;
    (* every original has an instance somewhere; non-replicable
       operations (stores, or everything in baseline mode) have exactly
       one *)
    cl enc (List.init clusters (fun k -> pres enc v k));
    let may_replicate =
      replicate && Machine.Opclass.replicable (Graph.op g v)
    in
    if not may_replicate then
      for k1 = 0 to clusters - 1 do
        for k2 = k1 + 1 to clusters - 1 do
          cl enc [ -pres enc v k1; -pres enc v k2 ]
        done
      done
  done;
  (* copy vars: one broadcast per instance, on one bus, sourced from
     the local instance's value *)
  for v = 0 to n - 1 do
    if has_copy.(v) then begin
      let wv =
        Array.init clusters (fun _ -> Array.make_matrix buses h 0)
      in
      let wanyv = Array.make_matrix clusters h 0 in
      let dcpv = Array.make_matrix clusters h 0 in
      for k = 0 to clusters - 1 do
        for c = copy0.(v) to h - 1 do
          for b = 0 to buses - 1 do
            wv.(k).(b).(c) <- Sat.new_var sat
          done;
          wanyv.(k).(c) <- Sat.new_var sat;
          dcpv.(k).(c) <- Sat.new_var sat
        done
      done;
      enc.w.(v) <- wv;
      enc.wany.(v) <- wanyv;
      enc.dcp.(v) <- dcpv;
      for k = 0 to clusters - 1 do
        for c = copy0.(v) to h - 1 do
          (* wany <-> some bus *)
          cl enc
            (-wanyv.(k).(c)
            :: List.init buses (fun b -> wv.(k).(b).(c)));
          for b = 0 to buses - 1 do
            cl enc [ -wv.(k).(b).(c); wanyv.(k).(c) ]
          done;
          (* issue ladder over copy cycles (at most one broadcast) *)
          cl enc [ -wanyv.(k).(c); dcpv.(k).(c) ];
          if c = copy0.(v) then cl enc [ -dcpv.(k).(c); wanyv.(k).(c) ]
          else begin
            cl enc [ -dcpv.(k).(c - 1); dcpv.(k).(c) ];
            cl enc [ -wanyv.(k).(c); -dcpv.(k).(c - 1) ];
            cl enc [ -dcpv.(k).(c); wanyv.(k).(c); dcpv.(k).(c - 1) ]
          end;
          (* the copy reads its producer's value *)
          match dq_at enc v k (c - latv.(v)) with
          | None -> cl enc [ -wanyv.(k).(c) ]
          | Some d -> cl enc [ -wanyv.(k).(c); d ]
        done
      done
    end
  done;
  (* supply selectors per register edge and consumer cluster, with
     distance-0 timing (II-independent) *)
  let ne = Array.length enc.reg_edges in
  let sel_loc = Array.make_matrix ne clusters 0 in
  let sel_cp =
    Array.init ne (fun _ -> Array.make_matrix clusters clusters 0)
  in
  let enc = { enc with sel_loc; sel_cp } in
  for i = 0 to ne - 1 do
    let e = enc.reg_edges.(i) in
    let u = e.Graph.src and v = e.Graph.dst in
    let le = req_latency g e in
    for k = 0 to clusters - 1 do
      let sl = Sat.new_var sat in
      sel_loc.(i).(k) <- sl;
      cl enc [ -sl; pres enc u k ];
      let cps = ref [] in
      for ks = 0 to clusters - 1 do
        if ks <> k && has_copy.(u) then begin
          let sc = Sat.new_var sat in
          sel_cp.(i).(k).(ks) <- sc;
          cl enc [ -sc; cpres enc u ks ];
          cps := sc :: !cps
        end
      done;
      (* an instance of the consumer must pick a supplier for this
         operand *)
      cl enc (-pres enc v k :: sl :: !cps);
      if e.Graph.distance = 0 then begin
        for c = asap.(v) to h - 1 do
          (match dq_at enc u k (c - le) with
          | None -> cl enc [ -sl; -enc.q.(v).(k).(c) ]
          | Some d -> cl enc [ -sl; -enc.q.(v).(k).(c); d ]);
          for ks = 0 to clusters - 1 do
            let sc = sel_cp.(i).(k).(ks) in
            if sc <> 0 then
              match dcp_at enc u ks (c - bus_lat) with
              | None -> cl enc [ -sc; -enc.q.(v).(k).(c) ]
              | Some d -> cl enc [ -sc; -enc.q.(v).(k).(c); d ]
          done
        done
      end
    done
  done;
  (* distance-0 memory ordering: cycle(u) + 1 <= cycle(v), every
     instance pair *)
  Array.iter
    (fun (e : Graph.edge) ->
      if e.Graph.kind = Graph.Mem && e.Graph.distance = 0 then
        let u = e.Graph.src and v = e.Graph.dst in
        for k1 = 0 to clusters - 1 do
          for k2 = 0 to clusters - 1 do
            for c = asap.(u) to h - 1 do
              match dq_at enc v k2 c with
              | None -> ()
              | Some d -> cl enc [ -enc.q.(u).(k1).(c); -d ]
            done
          done
        done)
    (Graph.edges g);
  enc

(* ---------------------------------------------------------------- *)
(* Per-II guarded encoding                                            *)
(* ---------------------------------------------------------------- *)

let encode_level enc ~ii =
  if ii < 1 then invalid_arg "Sched.Exact: ii must be >= 1";
  enc.levels <- enc.levels + 1;
  let gv = Sat.new_var enc.sat in
  let guard = [ -gv ] in
  let h = enc.h in
  (* loop-carried register timing *)
  for i = 0 to Array.length enc.reg_edges - 1 do
    let e = enc.reg_edges.(i) in
    if e.Graph.distance > 0 then begin
      let u = e.Graph.src and v = e.Graph.dst in
      let le = req_latency enc.g e in
      let shift = (ii * e.Graph.distance) - le in
      let shift_cp = (ii * e.Graph.distance) - enc.bus_lat in
      for k = 0 to enc.clusters - 1 do
        let sl = enc.sel_loc.(i).(k) in
        for c = enc.asap.(v) to h - 1 do
          if c + shift < h - 1 then (
            match dq_at enc u k (c + shift) with
            | None -> cl enc (guard @ [ -sl; -enc.q.(v).(k).(c) ])
            | Some d -> cl enc (guard @ [ -sl; -enc.q.(v).(k).(c); d ]));
          for ks = 0 to enc.clusters - 1 do
            let sc = enc.sel_cp.(i).(k).(ks) in
            if sc <> 0 && c + shift_cp < h - 1 then
              match dcp_at enc u ks (c + shift_cp) with
              | None -> cl enc (guard @ [ -sc; -enc.q.(v).(k).(c) ])
              | Some d -> cl enc (guard @ [ -sc; -enc.q.(v).(k).(c); d ])
          done
        done
      done
    end
  done;
  (* loop-carried memory ordering: cycle(u) + 1 <= cycle(v) + ii*d *)
  Array.iter
    (fun (e : Graph.edge) ->
      if e.Graph.kind = Graph.Mem && e.Graph.distance > 0 then begin
        let u = e.Graph.src and v = e.Graph.dst in
        let d = ii * e.Graph.distance in
        for k1 = 0 to enc.clusters - 1 do
          for k2 = 0 to enc.clusters - 1 do
            for c = enc.asap.(u) to h - 1 do
              match dq_at enc v k2 (c - d) with
              | None -> ()
              | Some dd -> cl enc (guard @ [ -enc.q.(u).(k1).(c); -dd ])
            done
          done
        done
      end)
    (Graph.edges enc.g);
  (* functional-unit occupancy per (cluster, kind, modulo slot) *)
  for k = 0 to enc.clusters - 1 do
    for fi = 0 to Machine.Fu.count - 1 do
      let kind = Machine.Fu.of_index fi in
      let cap = Machine.Config.fus enc.config ~cluster:k kind in
      for m = 0 to ii - 1 do
        let lits = ref [] in
        for v = 0 to enc.n - 1 do
          if Machine.Opclass.fu_kind (Graph.op enc.g v) = Some kind then
            for c = enc.asap.(v) to h - 1 do
              if c mod ii = m then lits := enc.q.(v).(k).(c) :: !lits
            done;
          (* TI-style cross paths: the broadcast also burns an integer
             issue slot in the producer's cluster *)
          if
            kind = Machine.Fu.Int
            && enc.config.Machine.Config.copy_uses_int_slot
            && enc.has_copy.(v)
          then
            for c = enc.copy0.(v) to h - 1 do
              if c mod ii = m then lits := enc.wany.(v).(k).(c) :: !lits
            done
        done;
        at_most enc ~guard !lits cap
      done
    done
  done;
  (* bus occupancy: a broadcast holds its bus for bus_latency
     consecutive modulo slots *)
  if enc.buses > 0 then begin
    let win = max 1 enc.bus_lat in
    for b = 0 to enc.buses - 1 do
      for m = 0 to ii - 1 do
        let lits = ref [] in
        for v = 0 to enc.n - 1 do
          if enc.has_copy.(v) then
            for k = 0 to enc.clusters - 1 do
              for c = enc.copy0.(v) to h - 1 do
                (* multiplicity matters: when bus_latency > ii the
                   window wraps the kernel and the transfer meets its
                   own next-iteration occupancy — such a transfer is
                   impossible outright *)
                let times = ref 0 in
                for x = 0 to win - 1 do
                  if (c + x) mod ii = m then incr times
                done;
                if !times >= 2 then cl enc (guard @ [ -enc.w.(v).(k).(b).(c) ])
                else if !times = 1 then
                  lits := enc.w.(v).(k).(b).(c) :: !lits
              done
            done
        done;
        at_most enc ~guard !lits 1
      done
    done
  end;
  gv

(* ---------------------------------------------------------------- *)
(* Decoding a model into a Schedule.t                                 *)
(* ---------------------------------------------------------------- *)

let decode enc ~ii =
  let tru x = x <> 0 && Sat.value enc.sat x in
  let n = enc.n and clusters = enc.clusters and g = enc.g in
  (* Support of the decoded schedule, split for the CEGAR blocking
     clauses: [gsup] holds the literals that pin the keep-set and the
     supplier choices (the presence pattern and the kept consumers'
     selectors) — any model agreeing on them decodes to the same shape;
     [csup.(k)] holds the cycle/bus literals that, together with
     [gsup], determine the register pressure of cluster [k].  Blocking
     [gsup @ csup.(k)] for an overfull cluster therefore excludes every
     model whose decode reproduces that cluster's overflow, however the
     other clusters are rearranged. *)
  let gsup = ref [] in
  let csup = Array.make clusters [] in
  let lit_of x = if tru x then x else -x in
  let addg x = if x <> 0 then gsup := lit_of x :: !gsup in
  let addc k x = if x <> 0 then csup.(k) <- lit_of x :: csup.(k) in
  (* instance issue cycles *)
  let icycle = Array.make_matrix n clusters (-1) in
  for v = 0 to n - 1 do
    for k = 0 to clusters - 1 do
      for c = enc.asap.(v) to enc.h - 1 do
        if icycle.(v).(k) < 0 && tru enc.q.(v).(k).(c) then
          icycle.(v).(k) <- c
      done;
      addg (pres enc v k)
    done
  done;
  (* earliest broadcast per instance, and its bus *)
  let ccycle = Array.make_matrix n clusters (-1) in
  let cbus = Array.make_matrix n clusters (-1) in
  for v = 0 to n - 1 do
    if enc.has_copy.(v) then
      for k = 0 to clusters - 1 do
        for c = enc.copy0.(v) to enc.h - 1 do
          if ccycle.(v).(k) < 0 && tru enc.wany.(v).(k).(c) then begin
            ccycle.(v).(k) <- c;
            for b = enc.buses - 1 downto 0 do
              if tru enc.w.(v).(k).(b).(c) then cbus.(v).(k) <- b
            done
          end
        done;
        addg (cpres enc v k)
      done
  done;
  (* supplier of (edge i, consumer cluster k): prefer the local
     instance, else the first selected copy *)
  let edge_index = Hashtbl.create 16 in
  Array.iteri (fun i e -> Hashtbl.replace edge_index e i) enc.reg_edges;
  let supplier i k =
    let e = enc.reg_edges.(i) in
    let u = e.Graph.src in
    if tru enc.sel_loc.(i).(k) && icycle.(u).(k) >= 0 then `Local
    else begin
      let found = ref `None in
      for ks = clusters - 1 downto 0 do
        if tru enc.sel_cp.(i).(k).(ks) && ccycle.(u).(ks) >= 0 then
          found := `Copy ks
      done;
      match !found with
      | `None when icycle.(u).(k) >= 0 -> `Local
      | f -> f
    end
  in
  (* garbage-collect: keep the lowest-cluster instance of every
     original (it wears the plain label), then close over chosen
     suppliers *)
  let keep = Array.make_matrix n clusters false in
  let copy_used = Array.make_matrix n clusters false in
  let stack = ref [] in
  let mark v k =
    if not keep.(v).(k) then begin
      keep.(v).(k) <- true;
      stack := (v, k) :: !stack
    end
  in
  for v = 0 to n - 1 do
    let first = ref (-1) in
    for k = clusters - 1 downto 0 do
      if icycle.(v).(k) >= 0 then first := k
    done;
    if !first < 0 then failwith "Sched.Exact: model lost an instance";
    mark v !first
  done;
  while !stack <> [] do
    let v, k =
      match !stack with x :: rest -> stack := rest; x | [] -> assert false
    in
    List.iter
      (fun (e : Graph.edge) ->
        let i = Hashtbl.find edge_index e in
        match supplier i k with
        | `Local -> mark e.Graph.src k
        | `Copy ks ->
            copy_used.(e.Graph.src).(ks) <- true;
            mark e.Graph.src ks
        | `None -> failwith "Sched.Exact: unsupplied operand in model")
      (Graph.reg_preds g v)
  done;
  (* the rest of the support: kept instances' issue cycles bind the
     pressure of their own cluster; a used copy's cycle and bus bind
     the producer cluster (the local read ends a lifetime there) and
     every consumer cluster it supplies (the arrival starts one);
     the kept consumers' selectors pin the supplier choices *)
  let copy_sup v ks k =
    addc k enc.wany.(v).(ks).(ccycle.(v).(ks));
    for b = 0 to enc.buses - 1 do
      addc k enc.w.(v).(ks).(b).(ccycle.(v).(ks))
    done
  in
  for v = 0 to n - 1 do
    for ks = 0 to clusters - 1 do
      if copy_used.(v).(ks) then copy_sup v ks ks
    done
  done;
  for v = 0 to n - 1 do
    for k = 0 to clusters - 1 do
      if keep.(v).(k) then begin
        addc k enc.q.(v).(k).(icycle.(v).(k));
        List.iter
          (fun (e : Graph.edge) ->
            let i = Hashtbl.find edge_index e in
            addg enc.sel_loc.(i).(k);
            for ks = 0 to clusters - 1 do
              addg enc.sel_cp.(i).(k).(ks)
            done;
            match supplier i k with
            | `Copy ks -> copy_sup e.Graph.src ks k
            | `Local | `None -> ())
          (Graph.reg_preds g v)
      end
    done
  done;
  (* build the routed graph: instances first (lowest cluster of each
     original keeps the plain label), then the used copies *)
  let b = Graph.Builder.create ~name:(Graph.name g ^ "+exact") () in
  let inst_id = Array.make_matrix n clusters (-1) in
  let ids = ref [] in
  for v = 0 to n - 1 do
    let primary = ref true in
    for k = 0 to clusters - 1 do
      if keep.(v).(k) then begin
        let label =
          if !primary then Graph.label g v
          else Graph.label g v ^ "'" ^ string_of_int k
        in
        primary := false;
        let id = Graph.Builder.add b ~label (Graph.op g v) in
        inst_id.(v).(k) <- id;
        ids := (id, k, icycle.(v).(k), -1, -1) :: !ids
      end
    done
  done;
  let copy_id = Array.make_matrix n clusters (-1) in
  for v = 0 to n - 1 do
    for ks = 0 to clusters - 1 do
      if copy_used.(v).(ks) then begin
        let label = "cp_" ^ Graph.label g v ^ string_of_int ks in
        let id = Graph.Builder.add b ~label Machine.Opclass.Copy in
        copy_id.(v).(ks) <- id;
        ids :=
          (id, ks, ccycle.(v).(ks), inst_id.(v).(ks), cbus.(v).(ks))
          :: !ids;
        (* the copy reads the local instance's value *)
        Graph.Builder.depend b ~src:inst_id.(v).(ks) ~dst:id
      end
    done
  done;
  (* value edges via the chosen suppliers *)
  for v = 0 to n - 1 do
    for k = 0 to clusters - 1 do
      if keep.(v).(k) then
        List.iter
          (fun (e : Graph.edge) ->
            let i = Hashtbl.find edge_index e in
            let u = e.Graph.src in
            match supplier i k with
            | `Local ->
                Graph.Builder.depend b ~latency:e.Graph.latency
                  ~distance:e.Graph.distance ~src:inst_id.(u).(k)
                  ~dst:inst_id.(v).(k)
            | `Copy ks ->
                Graph.Builder.depend b ~latency:enc.bus_lat
                  ~distance:e.Graph.distance ~src:copy_id.(u).(ks)
                  ~dst:inst_id.(v).(k)
            | `None -> assert false)
          (Graph.reg_preds g v)
    done
  done;
  (* memory ordering between every kept instance pair *)
  Array.iter
    (fun (e : Graph.edge) ->
      if e.Graph.kind = Graph.Mem then
        for k1 = 0 to clusters - 1 do
          if keep.(e.Graph.src).(k1) then
            for k2 = 0 to clusters - 1 do
              if keep.(e.Graph.dst).(k2) then
                Graph.Builder.mem_depend b ~distance:e.Graph.distance
                  ~src:inst_id.(e.Graph.src).(k1)
                  ~dst:inst_id.(e.Graph.dst).(k2)
            done
        done)
    (Graph.edges g);
  let routed = Graph.Builder.build b in
  let total = Graph.n_nodes routed in
  let assign = Array.make total 0 in
  let cycles = Array.make total 0 in
  let buses = Array.make total (-1) in
  let copy_of = Array.make total (-1) in
  let n_original = ref 0 in
  List.iter
    (fun (id, k, cyc, cof, bus) ->
      assign.(id) <- k;
      cycles.(id) <- cyc;
      copy_of.(id) <- cof;
      buses.(id) <- bus;
      if cof < 0 then incr n_original)
    !ids;
  let route =
    { Route.graph = routed; assign; n_original = !n_original; copy_of }
  in
  ( { Schedule.config = enc.config; routing = Routed route; ii; cycles; buses },
    !gsup,
    csup )

(* ---------------------------------------------------------------- *)
(* CEGAR over register pressure                                       *)
(* ---------------------------------------------------------------- *)

(* Exclude every model that reproduces an overfull cluster: one clause
   per offending cluster, flipping at least one literal of the
   projection that determines its pressure (see the support comments in
   [decode]).  Sound — any model agreeing on the projection decodes to
   the same keep-set, cycles and suppliers in that cluster, hence the
   same overflow — and far more general than snapshot blocking, which
   would re-enumerate rearrangements of the healthy clusters. *)
let block_overfull enc ~guard ~gsup ~csup ~pressure ~limit =
  Array.iteri
    (fun k p ->
      if p > limit then
        cl enc
          (-guard
          :: List.rev_map (fun l -> -l) (List.rev_append csup.(k) gsup)))
    pressure

(* Guard literal bounding the schedule length: under it every present
   instance (and broadcast) must issue before cycle [l].  The bound is
   II-independent, so its clauses are emitted once and the guard is
   reused across levels. *)
let len_guard enc l =
  match Hashtbl.find_opt enc.len_guards l with
  | Some lg -> lg
  | None ->
      let lg = Sat.new_var enc.sat in
      for v = 0 to enc.n - 1 do
        for k = 0 to enc.clusters - 1 do
          (match dq_at enc v k (l - 1) with
          | None -> cl enc [ -lg; -pres enc v k ]
          | Some d ->
              if d <> pres enc v k then cl enc [ -lg; -pres enc v k; d ]);
          if enc.has_copy.(v) then
            match dcp_at enc v k (l - 1) with
            | None -> cl enc [ -lg; -cpres enc v k ]
            | Some d ->
                if d <> cpres enc v k then
                  cl enc [ -lg; -cpres enc v k; d ]
        done
      done;
      Hashtbl.add enc.len_guards l lg;
      lg

(* One II level.  The schedule space is swept from a tight length bound
   to the full horizon: a naked solve over a generous horizon happily
   scatters issues across it, and the resulting lifetimes overflow the
   register file in ways the one-model-at-a-time CEGAR loop can never
   block its way out of.  Compact schedules have compact lifetimes, so
   pressure-feasible witnesses live at the tight end; `Unsat is only
   concluded from the unrestricted solve, so the level's verdict is
   unchanged by the sweep. *)
let solve_level enc ~ii ~guard ?max_conflicts ?(stop = fun () -> false)
    ~max_cegar () =
  let limit = Machine.Config.registers_per_cluster enc.config in
  let lmin = 1 + Array.fold_left max 0 enc.asap in
  let lengths =
    let rec grow slack acc =
      let l = lmin + slack in
      if l >= enc.h then List.rev (None :: acc)
      else grow (max 1 (slack * 2)) (Some l :: acc)
    in
    grow 0 []
  in
  let rounds = ref 0 in
  let rec attempt = function
    | [] -> assert false
    | a :: rest ->
        let assumptions =
          match a with
          | Some l -> [ guard; len_guard enc l ]
          | None -> [ guard ]
        in
        let rec go () =
          if stop () then `Unknown
          else
          match
            Sat.solve ~assumptions ?max_conflicts ~interrupt:stop enc.sat
          with
          | Sat.Unknown -> `Unknown
          | Sat.Unsat -> if rest = [] then `Unsat else attempt rest
          | Sat.Sat ->
              let s, gsup, csup = decode enc ~ii in
              let pressure = Regpressure.max_per_cluster s in
              if Regpressure.fits ~limit pressure then `Sat s
              else if !rounds >= max_cegar then
                if rest = [] then `Unknown else attempt [ None ]
              else begin
                incr rounds;
                enc.cegar_rounds <- enc.cegar_rounds + 1;
                block_overfull enc ~guard ~gsup ~csup ~pressure ~limit;
                go ()
              end
        in
        go ()
  in
  attempt lengths

let stats_of enc =
  {
    s_vars = Sat.n_vars enc.sat;
    s_conflicts = Sat.n_conflicts enc.sat;
    s_propagations = Sat.n_propagations enc.sat;
    s_cegar_rounds = enc.cegar_rounds;
    s_levels = enc.levels;
  }

(* ---------------------------------------------------------------- *)
(* Entry points                                                       *)
(* ---------------------------------------------------------------- *)

let solve_at ?replicate ?horizon ?max_conflicts ?(max_cegar = 24) config g
    ~ii =
  let enc = make_enc ?replicate ?horizon config g in
  let guard = encode_level enc ~ii in
  solve_level enc ~ii ~guard ?max_conflicts ~max_cegar ()

type found = {
  f_ii : int;
  f_mii : int;
  f_proven : bool;
  f_schedule : Schedule.t;
  f_stats : stats;
}

let minimum_ii ?replicate ?horizon ?budget ?max_conflicts ?(max_cegar = 24)
    ?max_ii config g =
  let mii = Mii.mii config g in
  let cap = match max_ii with Some m -> m | None -> mii + 64 in
  let enc = make_enc ?replicate ?horizon config g in
  let spend () =
    match budget with Some b -> Budget.spend b | None -> true
  in
  (* in-flight abort: one II level can burn arbitrary time in the
     CEGAR/length-ladder loop, so the deadline is polled between SAT
     rounds too, not just between levels *)
  let stop () =
    match budget with Some b -> Budget.expired b | None -> false
  in
  let timeout at_ii =
    match budget with
    | Some b ->
        Sched_error.Timeout
          {
            at_ii;
            attempts = Budget.attempts b;
            elapsed_s = Budget.elapsed b;
          }
    | None -> assert false
  in
  let rec walk ii proven =
    if ii > cap then Error (Sched_error.Escalation_cap { mii; cap })
    else if not (spend ()) then Error (timeout ii)
    else begin
      let guard = encode_level enc ~ii in
      match solve_level enc ~ii ~guard ?max_conflicts ~stop ~max_cegar () with
      | `Sat s ->
          Ok
            {
              f_ii = ii;
              f_mii = mii;
              f_proven = proven;
              f_schedule = s;
              f_stats = stats_of enc;
            }
      | `Unsat ->
          Sat.retire enc.sat guard;
          walk (ii + 1) proven
      | `Unknown ->
          Sat.retire enc.sat guard;
          walk (ii + 1) false
    end
  in
  walk mii true
