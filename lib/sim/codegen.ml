open Ddg

let dest_of alloc ~producer ~cluster =
  match alloc with
  | None -> None
  | Some a ->
      List.find_opt
        (fun itv ->
          itv.Sched.Regalloc.producer = producer
          && itv.Sched.Regalloc.cluster = cluster)
        a.Sched.Regalloc.intervals

let reg_string itv =
  match itv.Sched.Regalloc.registers with
  | [] -> "r?"
  | [ r ] -> Printf.sprintf "r%d" r
  | r :: _ ->
      Printf.sprintf "r%d(+%d)" r (List.length itv.Sched.Regalloc.registers - 1)

let op_string ?alloc (sched : Sched.Schedule.t) v =
  let route = Sched.Schedule.route sched in
  let g = route.Sched.Route.graph in
  let cluster = route.Sched.Route.assign.(v) in
  let sources =
    Graph.reg_preds g v
    |> List.map (fun e ->
           let u = e.Graph.src in
           let tag =
             if Sched.Route.is_copy route u then "bus:" else ""
           in
           match
             dest_of alloc ~producer:u
               ~cluster:
                 (if Sched.Route.is_copy route u then cluster
                  else route.Sched.Route.assign.(u))
           with
           | Some itv -> tag ^ reg_string itv
           | None -> tag ^ Graph.label g u)
    |> String.concat ", "
  in
  let dest =
    if Graph.is_store g v then ""
    else
      match dest_of alloc ~producer:v ~cluster with
      | Some itv -> reg_string itv ^ " <- "
      | None ->
          if alloc = None then Graph.label g v ^ " <- " else ""
  in
  let mnemonic =
    if Sched.Route.is_copy route v then
      Printf.sprintf "copy.bus%d" sched.Sched.Schedule.buses.(v)
    else Machine.Opclass.to_string (Graph.op g v)
  in
  Printf.sprintf "%s%s %s%s" dest mnemonic
    (Graph.label g v)
    (if sources = "" then "" else Printf.sprintf " (%s)" sources)

let kernel ?alloc (sched : Sched.Schedule.t) =
  let config = sched.Sched.Schedule.config in
  let route = Sched.Schedule.route sched in
  let g = route.Sched.Route.graph in
  let ii = sched.Sched.Schedule.ii in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "; kernel: II=%d length=%d stages=%d machine=%s\n" ii
       (Sched.Schedule.length sched)
       (Sched.Schedule.stage_count sched)
       (Machine.Config.name config));
  for slot = 0 to ii - 1 do
    Buffer.add_string buf (Printf.sprintf "L%d:\n" slot);
    for c = 0 to config.Machine.Config.clusters - 1 do
      let ops =
        List.filter
          (fun v ->
            sched.Sched.Schedule.cycles.(v) mod ii = slot
            && route.Sched.Route.assign.(v) = c
            && not (Sched.Route.is_copy route v))
          (Graph.nodes g)
      in
      if ops <> [] then begin
        Buffer.add_string buf (Printf.sprintf "  c%d: " c);
        Buffer.add_string buf
          (String.concat " | "
             (List.map
                (fun v ->
                  Printf.sprintf "%s ;stage %d" (op_string ?alloc sched v)
                    (Sched.Schedule.stage sched v))
                ops));
        Buffer.add_char buf '\n'
      end
    done;
    let copies =
      List.filter
        (fun v ->
          Sched.Route.is_copy route v
          && sched.Sched.Schedule.cycles.(v) mod ii = slot)
        (Graph.nodes g)
    in
    List.iter
      (fun v ->
        Buffer.add_string buf
          (Printf.sprintf "  bus: %s ;stage %d\n" (op_string ?alloc sched v)
             (Sched.Schedule.stage sched v)))
      copies
  done;
  Buffer.contents buf

let pipeline (sched : Sched.Schedule.t) ~iterations =
  if iterations < 1 then invalid_arg "Codegen.pipeline: iterations < 1";
  let route = Sched.Schedule.route sched in
  let g = route.Sched.Route.graph in
  let ii = sched.Sched.Schedule.ii in
  let sc = Sched.Schedule.stage_count sched in
  let total = (iterations - 1 + sc) * ii in
  if total > 10000 then invalid_arg "Codegen.pipeline: trace too long";
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "; %d iterations, II=%d, SC=%d: %d cycles (prologue %d, epilogue %d)\n"
       iterations ii sc total
       ((sc - 1) * ii)
       ((sc - 1) * ii));
  for cycle = 0 to total - 1 do
    let issued =
      List.concat_map
        (fun iter ->
          List.filter_map
            (fun v ->
              if (iter * ii) + sched.Sched.Schedule.cycles.(v) = cycle then
                Some (v, iter)
              else None)
            (Graph.nodes g))
        (List.init iterations Fun.id)
    in
    if issued <> [] then begin
      let phase =
        if cycle < (sc - 1) * ii then "prologue"
        else if cycle >= (iterations * ii) then "epilogue"
        else "kernel"
      in
      Buffer.add_string buf (Printf.sprintf "%5d [%-8s]" cycle phase);
      List.iter
        (fun (v, iter) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s[i%d]@c%d" (Graph.label g v) iter
               route.Sched.Route.assign.(v)))
        issued;
      Buffer.add_char buf '\n'
    end
  done;
  Buffer.contents buf
