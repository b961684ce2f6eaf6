(* serve-open: open-loop seeded traffic into a real `repro serve`
   daemon.  One generator process (this one) sends over at most [nproc]
   connections; every request is timed from its due time, not from when
   it actually went out, so a late generator cannot hide queueing. *)

module Serve = Metrics.Serve

type key = {
  loop : Workload.Generator.loop;
  config : Machine.Config.t;
  mode : Metrics.Experiment.mode;
}

let key_name k =
  Printf.sprintf "%s|%s|%s" k.loop.id
    (Machine.Config.name k.config)
    (Metrics.Experiment.mode_tag k.mode)

type kind = Single | Burst | Batch

type line = {
  kind : kind;
  keys : key list;  (** one per request in the line *)
  ids : string list;
  text : string;  (** the wire line, without its newline *)
  u : float;  (** arrival time of a unit-rate stream *)
  repeats : int;  (** requests whose key appeared earlier in the stream *)
}

let requests l = List.length l.keys

(* ------------------------------------------------------------------ *)
(* The seeded stream                                                   *)
(* ------------------------------------------------------------------ *)

let repeat_p = 0.5
let burst_p = 0.005
let batch_p = 0.01
let batch_size = 4

(* The order fresh keys take their loops in: each benchmark's loops in
   a seeded order, interleaved in proportion to the benchmarks' sizes,
   so any prefix samples every benchmark evenly. *)
let loop_order ~rng loops =
  let by_bench = Hashtbl.create 16 in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      Hashtbl.replace by_bench l.benchmark
        ((Random.State.bits rng, l)
        :: Option.value ~default:[] (Hashtbl.find_opt by_bench l.benchmark)))
    loops;
  Hashtbl.fold
    (fun _ ls acc ->
      let n = float_of_int (List.length ls) in
      List.sort compare ls
      |> List.mapi (fun i (_, l) -> ((float_of_int i +. 0.5) /. n, l.Workload.Generator.id, l))
      |> List.rev_append acc)
    by_bench []
  |> List.sort (fun (a, x, _) (b, y, _) -> compare (a, x) (b, y))
  |> List.map (fun (_, _, l) -> l)
  |> Array.of_list

(* [n] lines over the seeded keys: loops x the six paper configurations
   x {base, repl}.  About half the requests repeat an earlier key; a
   few percent of the lines are bursts of one fresh key sent as
   identical lines at the same instant (they coalesce in the daemon),
   and a few percent are batch lines of [batch_size] requests.  Fresh
   keys take their loops in [loop_order] and cycle through the twelve
   configuration x mode pairs, so every stream covers the benchmarks and
   the configurations evenly. *)
let stream ~seed ~n loops =
  let rng = Inputs.rng ~seed ~salt:1 in
  let loops = loop_order ~rng loops in
  let configs = Array.of_list Machine.Config.paper_configs in
  let modes = [| Metrics.Experiment.Baseline; Metrics.Experiment.Replication |] in
  (* the k-th fresh key; a repeat picks one of the fresh keys that
     earlier lines already carried *)
  let key k =
    {
      loop = loops.(k mod Array.length loops);
      config = configs.(k mod Array.length configs);
      mode = modes.(k / Array.length configs mod 2);
    }
  in
  let issued = ref 0 and sent = ref 0 in
  let fresh () =
    incr issued;
    key (!issued - 1)
  in
  let pick () =
    if !sent > 0 && Random.State.float rng 1.0 < repeat_p then
      key (Random.State.int rng !sent)
    else fresh ()
  in
  let seen = Hashtbl.create 4096 in
  let next_id = ref 0 in
  let request k =
    let id = string_of_int !next_id in
    incr next_id;
    (id, Serve.request ~id ~mode:k.mode ~config:k.config k.loop)
  in
  let make kind keys u =
    let repeats =
      List.length (List.filter (fun k -> Hashtbl.mem seen (key_name k)) keys)
    in
    let reqs = List.map request keys in
    List.iter (fun k -> Hashtbl.replace seen (key_name k) ()) keys;
    sent := !issued;
    let text =
      match kind with
      | Batch -> Serve.batch_request (List.map snd reqs)
      | Single | Burst -> snd (List.hd reqs)
    in
    { kind; keys; ids = List.map fst reqs; text; u; repeats }
  in
  let t = ref 0. in
  let rec go acc count =
    if count >= n then List.rev acc
    else begin
      t := !t -. log (1. -. Random.State.float rng 1.0);
      let r = Random.State.float rng 1.0 in
      if r < burst_p then begin
        let k = fresh () in
        let copies = 4 + Random.State.int rng 5 in
        let lines = List.init copies (fun _ -> make Burst [ k ] !t) in
        go (List.rev_append lines acc) (count + copies)
      end
      else if r < burst_p +. batch_p then
        go (make Batch (List.init batch_size (fun _ -> pick ())) !t :: acc)
          (count + 1)
      else go (make Single [ pick () ] !t :: acc) (count + 1)
    end
  in
  Array.of_list (go [] 0)

type shares = { repeat : float; burst : float; batch : float; n_req : int }

let shares lines =
  let tot = ref 0 and rep = ref 0 and bur = ref 0 and bat = ref 0 in
  Array.iter
    (fun l ->
      let k = requests l in
      tot := !tot + k;
      rep := !rep + l.repeats;
      (match l.kind with
      | Burst -> bur := !bur + k
      | Batch -> bat := !bat + k
      | Single -> ()))
    lines;
  let f x = float_of_int x /. float_of_int (max 1 !tot) in
  { repeat = f !rep; burst = f !bur; batch = f !bat; n_req = !tot }

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string; log : string }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

(* One request line, one reply line, on a fresh connection. *)
let exchange ?(timeout = 10.) socket line =
  match connect socket with
  | None -> None
  | Some fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let s = line ^ "\n" in
          let rec send off =
            if off < String.length s then
              send (off + Unix.write_substring fd s off (String.length s - off))
          in
          send 0;
          let deadline = Inputs.now () +. timeout in
          let buf = Buffer.create 1024 and chunk = Bytes.create 65536 in
          let rec recv () =
            match String.index_opt (Buffer.contents buf) '\n' with
            | Some i -> Some (String.sub (Buffer.contents buf) 0 i)
            | None ->
                let left = deadline -. Inputs.now () in
                if left <= 0. then None
                else
                  let r, _, _ = Unix.select [ fd ] [] [] left in
                  if r = [] then None
                  else
                    let k = Unix.read fd chunk 0 (Bytes.length chunk) in
                    if k = 0 then None
                    else begin
                      Buffer.add_subbytes buf chunk 0 k;
                      recv ()
                    end
          in
          recv ())

(* The configuration warm-up requests use: no stream key has it, so
   warming up changes no hit or miss of the measured stream. *)
let warmup_config = "4c1b2l32r"

(* Start `repro serve --workers 1` with default limits and a memory
   store, wait until it answers [health], then send [warmup] loops as
   schedule requests one at a time, so the worker domain has started and
   computed before the first measured request.  The environment is
   passed through, except that [gc_report] asks the OCaml runtime for
   its end-of-run GC summary (OCAMLRUNPARAM=v=0x400, reporting only). *)
let start ~repro ~dir ~tag ?(gc_report = false) ~warmup () =
  let socket = Filename.concat dir (Printf.sprintf "s%d-%s.sock" (Unix.getpid ()) tag) in
  let log = Filename.concat dir (Printf.sprintf "daemon-%d-%s.log" (Unix.getpid ()) tag) in
  let env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.length kv >= 13 && String.sub kv 0 13 = "OCAMLRUNPARAM"))
  in
  let env = if gc_report then "OCAMLRUNPARAM=v=0x400" :: env else env in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process_env repro
          [| repro; "serve"; "--workers"; "1"; "--socket"; socket |]
          (Array.of_list env) Unix.stdin fd fd)
  in
  let d = { pid; socket; log } in
  let deadline = Inputs.now () +. 30. in
  let rec wait () =
    match exchange ~timeout:1. socket (Serve.health_request ~id:"health" ()) with
    | Some _ ->
        let config = Inputs.config warmup_config in
        List.iter
          (fun loop ->
            let line =
              Serve.request ~id:"warmup" ~mode:Metrics.Experiment.Replication ~config loop
            in
            if exchange socket line = None then failwith "repro serve did not warm up")
          warmup;
        d
    | None ->
        if Inputs.now () > deadline then failwith "repro serve did not answer health"
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
  in
  wait ()

let stats d =
  match exchange d.socket (Serve.stats_request ~id:"stats" ()) with
  | Some s -> Metrics.Json.parse s
  | None -> failwith "repro serve did not answer stats"

(* SIGTERM, then wait for the drain; SIGKILL if it hangs. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Inputs.now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Inputs.now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  if Sys.file_exists d.socket then Sys.remove d.socket

(* ------------------------------------------------------------------ *)
(* Driving a stream                                                    *)
(* ------------------------------------------------------------------ *)

type run = {
  lines : line array;
  due : float array;
  sent : float array;
  replied : float array;  (** nan when no reply arrived *)
  reply : string array;  (** "" when no reply arrived *)
}

(* The id a reply line opens with: [{"id":"..."] or, for a batch,
   [[{"id":"..."]. *)
let reply_id s =
  let key = "\"id\":\"" in
  let k = String.length key in
  let rec find i =
    if i + k > String.length s then None
    else if String.sub s i k = key then
      match String.index_from_opt s (i + k) '"' with
      | Some j -> Some (String.sub s (i + k) (j - i - k))
      | None -> None
    else find (i + 1)
  in
  find 0

(* Send [lines] at [rate] requests per second over [conns] connections
   (round-robin by line), due times starting 50 ms from now, and collect
   every reply; stop waiting 10 s after the last due time. *)
let drive ~socket ~conns ~rate lines =
  let lead = 0.05 and drain = 10. in
  let n = Array.length lines in
  let per_line =
    float_of_int (Array.fold_left (fun a l -> a + requests l) 0 lines)
    /. float_of_int (max 1 n)
  in
  let scale = per_line /. rate in
  let t0 = Inputs.now () +. lead in
  let due = Array.map (fun l -> t0 +. (l.u -. lines.(0).u) *. scale) lines in
  let sent = Array.make n nan and replied = Array.make n nan in
  let reply = Array.make n "" in
  let fds =
    Array.init conns (fun _ ->
        match connect socket with
        | Some fd -> fd
        | None -> failwith "cannot connect to repro serve")
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Unix.close fds)
    (fun () ->
      Array.iter Unix.set_nonblock fds;
      let index = Hashtbl.create n in
      Array.iteri (fun i l -> Hashtbl.replace index (List.hd l.ids) i) lines;
      let pending = Array.init conns (fun _ -> Queue.create ()) in
      let inbuf = Array.init conns (fun _ -> Buffer.create 65536) in
      let chunk = Bytes.create 65536 in
      let next = ref 0 and got = ref 0 in
      let deadline = due.(n - 1) +. drain in
      let flush c =
        let q = pending.(c) in
        let rec go () =
          if not (Queue.is_empty q) then begin
            let i, s, off = Queue.peek q in
            match
              Unix.single_write_substring fds.(c) s !off
                (String.length s - !off)
            with
            | w ->
                off := !off + w;
                if !off = String.length s then begin
                  ignore (Queue.pop q);
                  sent.(i) <- Inputs.now ();
                  go ()
                end
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ()
          end
        in
        go ()
      in
      let take c =
        let b = inbuf.(c) in
        let s = Buffer.contents b in
        let rec lines_from start =
          match String.index_from_opt s start '\n' with
          | None -> start
          | Some j ->
              let line = String.sub s start (j - start) in
              (match Option.bind (reply_id line) (Hashtbl.find_opt index) with
              | Some i when Float.is_nan replied.(i) ->
                  replied.(i) <- Inputs.now ();
                  reply.(i) <- line;
                  incr got
              | _ -> ());
              lines_from (j + 1)
        in
        let consumed = lines_from 0 in
        Buffer.clear b;
        Buffer.add_substring b s consumed (String.length s - consumed)
      in
      while !got < n && Inputs.now () < deadline do
        let now = Inputs.now () in
        while !next < n && due.(!next) <= now do
          let c = !next mod conns in
          Queue.push (!next, lines.(!next).text ^ "\n", ref 0) pending.(c);
          incr next
        done;
        Array.iteri (fun c _ -> flush c) fds;
        let timeout =
          if !next < n then Float.min 0.05 (Float.max 0. (due.(!next) -. Inputs.now ()))
          else 0.05
        in
        let wr =
          List.filteri (fun c _ -> not (Queue.is_empty pending.(c)))
            (Array.to_list fds)
        in
        match Unix.select (Array.to_list fds) wr [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | r, _, _ ->
            Array.iteri
              (fun c fd ->
                if List.mem fd r then
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | k when k > 0 ->
                      Buffer.add_subbytes inbuf.(c) chunk 0 k;
                      take c
                  | _ -> ()
                  | exception
                      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                      ())
              fds
      done;
      { lines; due; sent; replied; reply })

(* Per-request samples: a batch's requests share their line's times. *)
let samples run =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun i l ->
            List.map
              (fun _ ->
                { Stats.due = run.due.(i); sent = run.sent.(i); replied = run.replied.(i) })
              l.keys)
          run.lines))

let answered run = List.filter (fun s -> not (Float.is_nan s.Stats.replied)) (samples run)

let latencies_ms run = List.map (fun s -> 1000. *. Stats.latency s) (answered run)

let statuses s =
  let key = "\"status\":\"" in
  let k = String.length key in
  let rec find i acc =
    if i + k > String.length s then List.rev acc
    else if String.sub s i k = key then
      let j = String.index_from s (i + k) '"' in
      find (j + 1) (String.sub s (i + k) (j - i - k) :: acc)
    else find (i + 1) acc
  in
  find 0 []

let overloaded run =
  Array.fold_left
    (fun acc r ->
      acc + List.length (List.filter (( = ) "overloaded") (statuses r)))
    0 run.reply

(* ------------------------------------------------------------------ *)
(* Correctness: every reply byte-equal to Serve.direct_reply           *)
(* ------------------------------------------------------------------ *)

(* The inline reference for every distinct key, rendered once with a
   placeholder id and re-keyed per request. *)
let references lines =
  let tbl = Hashtbl.create 1024 in
  Array.iter
    (fun l ->
      List.iter
        (fun k ->
          let name = key_name k in
          if not (Hashtbl.mem tbl name) then
            Hashtbl.add tbl name
              (Span.within "Metrics.Serve.direct_reply" (fun () ->
                   Serve.direct_reply ~id:"_" ~mode:k.mode ~config:k.config
                     k.loop)))
        l.keys)
    lines;
  tbl

let with_id reference id =
  let prefix = "{\"id\":\"_\"" in
  let p = String.length prefix in
  assert (String.sub reference 0 p = prefix);
  Printf.sprintf "{\"id\":\"%s\"%s" id
    (String.sub reference p (String.length reference - p))

let expected refs l =
  let one k id = with_id (Hashtbl.find refs (key_name k)) id in
  match l.kind with
  | Batch -> "[" ^ String.concat "," (List.map2 one l.keys l.ids) ^ "]"
  | Single | Burst -> one (List.hd l.keys) (List.hd l.ids)

(* Requests whose reply is missing, not byte-equal to the reference, or
   anything but [ok] (overloaded, degraded, fault, poisoned,
   bad-request).  Give-ups are [ok]-class data: the reference gives up
   too, and byte equality covers them. *)
let failures refs run =
  let failed = ref 0 in
  Array.iteri
    (fun i l ->
      let r = run.reply.(i) in
      if r <> expected refs l then failed := !failed + requests l)
    run.lines;
  !failed

(* ------------------------------------------------------------------ *)
(* Quality of what was served                                          *)
(* ------------------------------------------------------------------ *)

type served = {
  s_key : key;
  ii : int;
  mii : int;
  added : int;  (** replicas added minus originals removed, per iteration *)
}

let num j k = Metrics.Json.to_int (Metrics.Json.member k j)

(* The ok schedule replies of [refs], one per distinct key. *)
let served refs lines =
  let keys = Hashtbl.create 1024 in
  Array.iter
    (fun l -> List.iter (fun k -> Hashtbl.replace keys (key_name k) k) l.keys)
    lines;
  Hashtbl.fold
    (fun name k acc ->
      let j = Metrics.Json.parse (Hashtbl.find refs name) in
      match Metrics.Json.member "status" j with
      | Metrics.Json.Str "ok" ->
          let added =
            match Metrics.Json.member "stats" j with
            | Metrics.Json.Null -> 0
            | st -> num st "added_instances" - num st "removed_instances"
          in
          { s_key = k; ii = num j "ii"; mii = num j "mii"; added } :: acc
      | _ -> acc)
    keys []

(* Served schedules are weighted per schedule, not by their loops'
   profiled visits: a stream samples about a thousand keys, and a few
   heavily visited loops would otherwise decide the figure. *)
let useful s = float_of_int (Ddg.Graph.n_nodes s.s_key.loop.graph)

(* Geometric mean over the configurations of the steady-state IPC of
   the served schedules in [mode]: useful instructions per iteration
   over II, summed over the schedules. *)
let ipc served mode =
  let per_config =
    List.filter_map
      (fun config ->
        let rs =
          List.filter
            (fun s ->
              s.s_key.mode = mode && Machine.Config.equal s.s_key.config config)
            served
        in
        let ii = Stats.sum (List.map (fun s -> float_of_int s.ii) rs) in
        if ii > 0. then Some (Stats.sum (List.map useful rs) /. ii) else None)
      Machine.Config.paper_configs
  in
  Stats.geomean per_config

(* Instructions replication adds per useful instruction, per
   iteration, over the served repl schedules. *)
let added_pct served =
  let rs = List.filter (fun s -> s.s_key.mode = Metrics.Experiment.Replication) served in
  100.
  *. Stats.sum (List.map (fun s -> float_of_int s.added) rs)
  /. Stats.sum (List.map useful rs)

let at_mii_frac served =
  float_of_int (List.length (List.filter (fun s -> s.ii = s.mii) served))
  /. float_of_int (max 1 (List.length served))
