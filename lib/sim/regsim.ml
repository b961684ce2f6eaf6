open Ddg

type report = { iterations : int; reads_checked : int; writes : int }

type event =
  | Write of { time : int; node : int; iter : int }
  | Read of { time : int; node : int; iter : int }

let time_of = function Write { time; _ } -> time | Read { time; _ } -> time
(* writes land before reads in the same cycle: a bus transfer may arrive
   exactly when its consumer issues *)
let phase_of = function Write _ -> 0 | Read _ -> 1

let run (sched : Sched.Schedule.t) (alloc : Sched.Regalloc.t) ~iterations =
  if iterations < 1 then Error "iterations < 1"
  else begin
    let route = Sched.Schedule.route sched in
    let g = route.Sched.Route.graph in
    let ii = sched.Sched.Schedule.ii in
    let cycles = sched.Sched.Schedule.cycles in
    let explicit = min iterations 256 in
    (* interval lookup: (producer, cluster) -> interval *)
    let itv_tbl = Hashtbl.create 64 in
    List.iter
      (fun itv ->
        Hashtbl.replace itv_tbl
          (itv.Sched.Regalloc.producer, itv.Sched.Regalloc.cluster)
          itv)
      alloc.Sched.Regalloc.intervals;
    let interval_for ~producer ~consumer_cluster =
      if Sched.Route.is_copy route producer then
        Hashtbl.find_opt itv_tbl (producer, consumer_cluster)
      else
        Hashtbl.find_opt itv_tbl
          (producer, route.Sched.Route.assign.(producer))
    in
    let reg_of itv iter =
      let regs = itv.Sched.Regalloc.registers in
      List.nth regs (iter mod List.length regs)
    in
    (* register files: (cluster, reg) -> (producer, iter) *)
    let file = Hashtbl.create 256 in
    let reads = ref 0 and writes = ref 0 in
    let error = ref None in
    let fail fmt =
      Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt
    in
    let def_time v iter =
      let issue = (iter * ii) + cycles.(v) in
      if Sched.Route.is_copy route v then
        issue
        + (match Graph.reg_succs g v with
          | e :: _ -> e.Graph.latency
          | [] -> sched.Sched.Schedule.config.Machine.Config.bus_latency)
      else issue
    in
    let events =
      List.concat_map
        (fun iter ->
          List.concat_map
            (fun v ->
              let reads =
                if Graph.reg_preds g v = [] then []
                else [ Read { time = (iter * ii) + cycles.(v); node = v; iter } ]
              in
              let writes =
                if Graph.is_store g v then []
                else [ Write { time = def_time v iter; node = v; iter } ]
              in
              reads @ writes)
            (Graph.nodes g))
        (List.init explicit Fun.id)
      |> List.sort (fun a b ->
             compare (time_of a, phase_of a) (time_of b, phase_of b))
    in
    List.iter
      (fun ev ->
        if !error = None then
          match ev with
          | Write { node = v; iter; _ } ->
              (* a value lives once per consuming cluster (copies) or in
                 its own cluster *)
              List.iter
                (fun itv ->
                  if itv.Sched.Regalloc.producer = v then begin
                    let r = reg_of itv iter in
                    Hashtbl.replace file (itv.Sched.Regalloc.cluster, r)
                      (v, iter);
                    incr writes
                  end)
                alloc.Sched.Regalloc.intervals
          | Read { node = v; iter; time } ->
              List.iter
                (fun e ->
                  let u = e.Graph.src in
                  let src_iter = iter - e.Graph.distance in
                  if src_iter >= 0 then begin
                    let cluster = route.Sched.Route.assign.(v) in
                    match interval_for ~producer:u ~consumer_cluster:cluster
                    with
                    | None ->
                        fail "no interval for producer %s used by %s"
                          (Graph.label g u) (Graph.label g v)
                    | Some itv ->
                        let r = reg_of itv src_iter in
                        (match
                           Hashtbl.find_opt file
                             (itv.Sched.Regalloc.cluster, r)
                         with
                        | Some (p, i) when p = u && i = src_iter ->
                            incr reads
                        | Some (p, i) ->
                            fail
                              "cycle %d: %s[i%d] read r%d of cluster %d \
                               expecting %s[i%d] but found %s[i%d]"
                              time (Graph.label g v) iter r
                              itv.Sched.Regalloc.cluster (Graph.label g u)
                              src_iter (Graph.label g p) i
                        | None ->
                            fail
                              "cycle %d: %s[i%d] read empty r%d of cluster %d \
                               (wanted %s[i%d])"
                              time (Graph.label g v) iter r
                              itv.Sched.Regalloc.cluster (Graph.label g u)
                              src_iter)
                  end)
                (Graph.reg_preds g v))
      events;
    match !error with
    | Some e -> Error e
    | None ->
        Ok { iterations = explicit; reads_checked = !reads; writes = !writes }
  end

let run_exn sched alloc ~iterations =
  match run sched alloc ~iterations with
  | Ok r -> r
  | Error e -> failwith e
