open Ddg

let unroll g ~factor =
  if factor < 1 then invalid_arg "Unroll.unroll: factor < 1";
  if factor = 1 then g
  else begin
    let n = Graph.n_nodes g in
    let b =
      Graph.Builder.create
        ~name:(Printf.sprintf "%sx%d" (Graph.name g) factor)
        ()
    in
    (* copy k of node v gets id k*n + v: Builder ids are sequential *)
    let id k v = (k * n) + v in
    for k = 0 to factor - 1 do
      List.iter
        (fun v ->
          let label = Printf.sprintf "%s.%d" (Graph.label g v) k in
          let got = Graph.Builder.add b ~label (Graph.op g v) in
          assert (got = id k v))
        (Graph.nodes g)
    done;
    Array.iter
      (fun e ->
        for k = 0 to factor - 1 do
          (* iteration k + d of the original loop is copy (k+d) mod U of
             unrolled iteration (k+d) / U *)
          let target = k + e.Graph.distance in
          let k' = target mod factor in
          let distance = target / factor in
          let src = id k e.Graph.src and dst = id k' e.Graph.dst in
          match e.Graph.kind with
          | Graph.Reg ->
              Graph.Builder.depend b ~distance ~latency:e.Graph.latency ~src
                ~dst
          | Graph.Mem -> Graph.Builder.mem_depend b ~distance ~src ~dst
        done)
      (Graph.edges g);
    Graph.Builder.build b
  end

let unrolled_loop (l : Generator.loop) ~factor =
  {
    l with
    Generator.id = Printf.sprintf "%sx%d" l.Generator.id factor;
    graph = unroll l.Generator.graph ~factor;
    trip = max 1 ((l.Generator.trip + factor - 1) / factor);
  }
