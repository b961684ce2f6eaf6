(* The serve engine and its Unix-socket daemon.  See serve.mli for the
   protocol and the degradation ladder; the engine half is deliberately
   socket-free and effect-injected so every failure mode is exercised by
   plain unit tests with fake clocks and recording sleeps.

   Since the batched rework the engine is a small state machine over
   admitted *entries* (one per wire line; a JSON array line is one entry
   with many slots).  Slots move Todo -> Waiting -> Done: classification
   answers what it can immediately (health, stats, cache hits, poisoned
   keys), coalesces identical in-flight misses onto one computation, and
   dispatches fresh misses to a {!Pool.Service} — synchronous at
   workers = 0 — whose results funnel back through {!pump}. *)

module Io = struct
  type t = {
    now : unit -> float;
    sleep : float -> unit;
    log : string -> unit;
  }

  let real () =
    {
      now = Unix.gettimeofday;
      sleep = Unix.sleepf;
      log = (fun s -> Log.line "serve: %s" s);
    }

  let silent () =
    { now = Unix.gettimeofday; sleep = Unix.sleepf; log = ignore }
end

type limits = {
  queue_bound : int;
  budget_s : float option;
  budget_attempts : int option;
  retries : int;
  workers : int;
}

let default_limits =
  {
    queue_bound = 64;
    budget_s = None;
    budget_attempts = None;
    retries = 2;
    workers = 0;
  }

type counters = {
  mutable served : int;
  mutable hits : int;
  mutable misses : int;
  mutable give_ups : int;
  mutable timeouts : int;
  mutable faults : int;
  mutable poisoned : int;
  mutable overloaded : int;
  mutable bad_requests : int;
  mutable evictions : int;
  mutable retries_used : int;
  mutable coalesced : int;
  mutable computes : int;
  mutable batches : int;
}

(* ------------------------------------------------------------------ *)
(* Reply encoding                                                      *)
(*                                                                     *)
(* Every field here must be a pure function of the request key: no     *)
(* elapsed times, no hit/miss provenance.  The serve equality gate     *)
(* diffs these bytes across cold, warm and restarted daemons, across   *)
(* worker counts, and against [direct_reply].                          *)
(* ------------------------------------------------------------------ *)

let jint n = Json.Num (float_of_int n)
let jints a = Json.List (Array.to_list (Array.map jint a))

(* The reply carries the store's replication stats cut to their four
   totals, in the store's order. *)
let reply_stats =
  [ "comms_before"; "comms_removed"; "added_instances"; "removed_instances" ]

let project keys = function
  | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> List.mem k keys) fields)
  | j -> j

let with_id id fields = Json.Obj (("id", Json.Str id) :: fields)

let ok_json ~id (r : Experiment.loop_run) =
  let o = r.outcome in
  with_id id
    [
      ("status", Json.Str "ok");
      ("loop", Json.Str r.loop.Workload.Generator.id);
      ("mode", Json.Str (Experiment.mode_tag r.mode));
      ("ii", jint o.ii);
      ("mii", jint o.mii);
      ("n_comms", jint o.n_comms);
      ("increments", Store.Run_json.increments o);
      ("cycles", jints o.schedule.Sched.Schedule.cycles);
      ("buses", jints o.schedule.Sched.Schedule.buses);
      ("counts", Store.Run_json.counts r.counts);
      ( "stats",
        match r.repl_stats with
        | None -> Json.Null
        | Some s -> project reply_stats (Store.Run_json.stats s) );
    ]

(* A give-up, fault or poisoned reply: the status, then the error's
   class and message. *)
let class_json ~id status ~cls ~msg =
  with_id id
    [
      ("status", Json.Str status);
      ("class", Json.Str cls);
      ("message", Json.Str msg);
    ]

(* A timeout is the one result that depends on the wall clock; its reply
   carries the class alone so a degraded answer is still deterministic
   bytes. *)
let degraded_json ~id =
  with_id id [ ("status", Json.Str "degraded"); ("class", Json.Str "timeout") ]

let error_json ~id (e : Sched.Sched_error.t) =
  let cls = Sched.Sched_error.class_name e in
  if Sched.Sched_error.is_give_up e then
    class_json ~id "give-up" ~cls ~msg:(Sched.Sched_error.to_string e)
  else if String.equal cls "timeout" then degraded_json ~id
  else class_json ~id "fault" ~cls ~msg:(Sched.Sched_error.to_string e)

let bad_json ~id msg =
  with_id id [ ("status", Json.Str "bad-request"); ("message", Json.Str msg) ]

let overloaded_json ~id ~reason =
  with_id id [ ("status", Json.Str "overloaded"); ("reason", Json.Str reason) ]

(* ------------------------------------------------------------------ *)
(* Request decoding                                                    *)
(* ------------------------------------------------------------------ *)

let opt_field conv k j =
  match Json.member_opt k j with
  | None | Some Json.Null -> None
  | Some v -> Some (conv v)

let id_of j =
  match Json.member_opt "id" j with Some (Json.Str s) -> s | _ -> ""

type decoded = {
  d_mode : Experiment.mode;
  d_config : Machine.Config.t;
  d_loop : Workload.Generator.loop;
  d_budget_s : float option;
  d_budget_attempts : int option;
}

let decode_schedule j =
  let tag = Json.to_str (Json.member "mode" j) in
  let d_mode =
    match Experiment.mode_of_tag tag with
    | Some m -> m
    | None -> raise (Json.Bad ("unknown mode tag: " ^ tag))
  in
  let cname = Json.to_str (Json.member "config" j) in
  let d_config =
    match Machine.Config.of_name cname with
    | Some c -> c
    | None -> raise (Json.Bad ("unknown configuration: " ^ cname))
  in
  let lj = Json.member "loop" j in
  let trip = Json.to_int (Json.member "trip" lj) in
  (* the simulation runs [trip] iterations, so it needs at least one *)
  if trip < 1 then raise (Json.Bad "trip must be at least 1");
  let d_loop =
    {
      Workload.Generator.id = Json.to_str (Json.member "id" lj);
      benchmark =
        Option.value (opt_field Json.to_str "benchmark" lj) ~default:"adhoc";
      graph = Store.Graph_json.decode (Json.member "graph" lj);
      trip;
      visits = Option.value (opt_field Json.to_int "visits" lj) ~default:1;
    }
  in
  {
    d_mode;
    d_config;
    d_loop;
    d_budget_s = opt_field Json.to_num "budget_s" j;
    d_budget_attempts = opt_field Json.to_int "budget_attempts" j;
  }

(* ------------------------------------------------------------------ *)
(* The compute path                                                    *)
(* ------------------------------------------------------------------ *)

(* Conviction key of a schedule request: what the scheduler would
   actually see.  Same mode + config + graph bytes + trip -> same key,
   whatever the loop is called; coalescing also needs the budget
   ([wait_key]). *)
let conviction_key ~mode ~config (l : Workload.Generator.loop) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Experiment.mode_tag mode;
            Machine.Config.cache_key config;
            Ddg.Graph.structural_encoding l.Workload.Generator.graph;
            string_of_int l.Workload.Generator.trip;
          ]))

let make_budget ~now ?budget_s ?budget_attempts () =
  match (budget_s, budget_attempts) with
  | None, None -> None
  | _ ->
      Some
        (Sched.Budget.make ?wall_seconds:budget_s ?max_attempts:budget_attempts
           ~clock:now ())

let attempt_once ~now ?budget_s ?budget_attempts ~poison ~mode ~config loop =
  try
    if List.mem loop.Workload.Generator.id poison then
      raise (Experiment.Injected_fault loop.Workload.Generator.id);
    Experiment.run_loop
      ?budget:(make_budget ~now ?budget_s ?budget_attempts ())
      mode config loop
  with e -> Error (Sched.Sched_error.Internal (Printexc.to_string e))

(* Transient = a raise or a bug-class error: worth retrying, spaced by
   the backoff.  Give-ups are facts and timeouts would just burn the
   budget again; neither retries.  This function carries no engine
   state: it is the pool's job, run by whichever worker takes it (the
   engine's own domain at workers = 0) with that worker's backoff, and
   backoff schedules never reach a reply. *)
type outcome = {
  o_result : (Experiment.loop_run, Sched.Sched_error.t) result;
  o_retries : int;
}

let compute_with ~now ~backoff ~(limits : limits) ~poison (d : decoded) =
  (* the request's own budget fields override the server-wide defaults *)
  let first a b = match a with Some _ -> a | None -> b in
  let budget_s = first d.d_budget_s limits.budget_s in
  let budget_attempts = first d.d_budget_attempts limits.budget_attempts in
  let attempt () =
    attempt_once ~now ?budget_s ?budget_attempts ~poison ~mode:d.d_mode
      ~config:d.d_config d.d_loop
  in
  let rec go k =
    match attempt () with
    | Error e when Sched.Sched_error.is_bug e && k < limits.retries ->
        Backoff.pause backoff ~attempt:k;
        go (k + 1)
    | o_result -> { o_result; o_retries = k }
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

(* What the pool computes: the conviction key travels with the decoded
   request so the funnel can find every waiter. *)
type job = { jb_key : string; jb_d : decoded }

(* Two misses share one computation only under the same conviction key
   and request budget, which decides whether it may time out. *)
let wait_key key (d : decoded) =
  Printf.sprintf "%s/%s/%s" key
    (Option.fold ~none:"-" ~some:(Printf.sprintf "%h") d.d_budget_s)
    (Option.fold ~none:"-" ~some:string_of_int d.d_budget_attempts)

type payload = P_obj of Json.t | P_bad of string

type slot_state =
  | Todo of payload  (** admitted, not yet classified *)
  | Waiting of { w_id : string; w_key : string }
      (** a computation for [w_key] is in flight; the reply renders with
          this slot's own [w_id] when the result funnels back *)
  | Done of string  (** the reply line (or array element) bytes *)

type slot = { mutable s_state : slot_state }

(* One wire line.  A JSON array line is a batch: admitted atomically,
   answered as one array line whose elements are byte-identical to the
   standalone replies. *)
type entry = {
  e_seq : int;
  e_batch : bool;
  e_slots : slot array;
}

type t = {
  io : Io.t;
  limits : limits;
  store : Store.t;
  mutable entries : entry list;  (* admission order, oldest first *)
  mutable seq : int;
  mutable n_todo : int;  (* slots awaiting classification *)
  mutable n_wait : int;  (* slots waiting on an in-flight computation *)
  inflight : (string, unit) Hashtbl.t;  (* wait keys computing now *)
  service : (job, outcome) Pool.Service.t;
  poisoned_keys : (string, string * string) Hashtbl.t;
      (* conviction key -> (error class, rendered message) *)
  c : counters;
  mutable is_draining : bool;
}

let create ?io ?limits ?backoff ?(poison = []) ?store_dir ?on_result () =
  let io = match io with Some io -> io | None -> Io.real () in
  let limits = Option.value limits ~default:default_limits in
  let backoff =
    Option.value backoff ~default:(fun i ->
        Backoff.make ~seed:(i + 1) ~sleep:io.Io.sleep ())
  in
  (* One backoff per worker: a Backoff.t is single-owner, and worker [i]
     only ever runs on its own domain (worker 0 is the engine's own
     domain at workers = 0). *)
  let backoffs = Array.init (max 1 limits.workers) backoff in
  let service =
    Pool.Service.create ?on_result ~workers:limits.workers
      (fun widx (jb : job) ->
        compute_with ~now:io.Io.now ~backoff:backoffs.(widx) ~limits ~poison
          jb.jb_d)
  in
  {
    io;
    limits;
    store = Store.create ?dir:store_dir ();
    entries = [];
    seq = 0;
    n_todo = 0;
    n_wait = 0;
    inflight = Hashtbl.create 16;
    service;
    poisoned_keys = Hashtbl.create 16;
    c =
      {
        served = 0;
        hits = 0;
        misses = 0;
        give_ups = 0;
        timeouts = 0;
        faults = 0;
        poisoned = 0;
        overloaded = 0;
        bad_requests = 0;
        evictions = 0;
        retries_used = 0;
        coalesced = 0;
        computes = 0;
        batches = 0;
      };
    is_draining = false;
  }

let pending t = t.n_todo + t.n_wait
let busy t = t.entries <> []

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

(* Render one terminal schedule result as this waiter's reply.  Counters
   here count *delivered replies* (each coalesced waiter gets one); the
   once-per-computation effects live in [settle_result]. *)
let render_result t ~id result =
  match result with
  | Ok r ->
      t.c.served <- t.c.served + 1;
      ok_json ~id r
  | Error e when Sched.Sched_error.is_give_up e ->
      t.c.give_ups <- t.c.give_ups + 1;
      error_json ~id e
  | Error e when String.equal (Sched.Sched_error.class_name e) "timeout" ->
      t.c.timeouts <- t.c.timeouts + 1;
      error_json ~id e
  | Error e ->
      t.c.faults <- t.c.faults + 1;
      error_json ~id e

(* Once per computation, whoever ran it: record cacheable facts, convict
   survivors of the retry ladder. *)
let settle_result t ~key (d : decoded) result =
  match result with
  | Ok r ->
      Store.record t.store ~mode:d.d_mode ~config:d.d_config d.d_loop (Ok r)
  | Error e when Sched.Sched_error.is_give_up e ->
      Store.record t.store ~mode:d.d_mode ~config:d.d_config d.d_loop (Error e)
  | Error e when String.equal (Sched.Sched_error.class_name e) "timeout" -> ()
  | Error e ->
      (* A fault that survived every retry convicts its own key — and
         only its own key: the next identical request answers "poisoned"
         without touching the scheduler, every other request is
         unaffected. *)
      Hashtbl.replace t.poisoned_keys key
        (Sched.Sched_error.class_name e, Sched.Sched_error.to_string e);
      t.io.Io.log
        (Printf.sprintf "fault: loop %s quarantined (%s)"
           d.d_loop.Workload.Generator.id
           (Sched.Sched_error.class_name e))

let evict_reply t ~id j =
  let d = decode_schedule j in
  Store.evict t.store ~mode:d.d_mode ~config:d.d_config d.d_loop;
  Hashtbl.remove t.poisoned_keys
    (conviction_key ~mode:d.d_mode ~config:d.d_config d.d_loop);
  t.c.evictions <- t.c.evictions + 1;
  with_id id [ ("status", Json.Str "ok"); ("role", Json.Str "evict") ]

let health_json t ~id =
  with_id id
    [
      ("status", Json.Str "ok");
      ("role", Json.Str "health");
      ("pending", jint (pending t));
      ("draining", Json.Bool t.is_draining);
      ("workers", jint t.limits.workers);
      ("version", Json.Str Sched.Driver.version);
    ]

let stats_json t ~id =
  let s = Store.stats t.store in
  with_id id
    [
      ("status", Json.Str "ok");
      ("role", Json.Str "stats");
      ("served", jint t.c.served);
      ("hits", jint t.c.hits);
      ("misses", jint t.c.misses);
      ("give_ups", jint t.c.give_ups);
      ("timeouts", jint t.c.timeouts);
      ("faults", jint t.c.faults);
      ("poisoned", jint t.c.poisoned);
      ("overloaded", jint t.c.overloaded);
      ("bad_requests", jint t.c.bad_requests);
      ("evictions", jint t.c.evictions);
      ("retries", jint t.c.retries_used);
      ("coalesced", jint t.c.coalesced);
      ("computes", jint t.c.computes);
      ("batches", jint t.c.batches);
      ("workers", jint t.limits.workers);
      ("pending", jint (pending t));
      ( "store",
        Json.Obj
          [
            ("hits", jint s.Store.hits);
            ("misses", jint s.Store.misses);
            ("read", jint s.Store.bytes_read);
            ("written", jint s.Store.bytes_written);
            ("saved", jint s.Store.tables_saved);
            ("skipped", jint s.Store.tables_skipped);
          ] );
    ]

let bad t ~id msg =
  t.c.bad_requests <- t.c.bad_requests + 1;
  bad_json ~id msg

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* Decide one schedule slot.  A fresh miss is submitted to the pool; a
   miss with the same wait key as a computation not yet integrated — at
   workers = 0, one submitted earlier in the same pump — coalesces onto
   it. *)
let classify_schedule t ~id j slot =
  let d = decode_schedule j in
  let key = conviction_key ~mode:d.d_mode ~config:d.d_config d.d_loop in
  let wkey = wait_key key d in
  match Hashtbl.find_opt t.poisoned_keys key with
  | Some (cls, msg) ->
      t.c.poisoned <- t.c.poisoned + 1;
      slot.s_state <- Done (Json.print (class_json ~id "poisoned" ~cls ~msg))
  | None -> (
      if Hashtbl.mem t.inflight wkey then begin
        (* identical request already computing: attach, don't recompute *)
        t.c.misses <- t.c.misses + 1;
        t.c.coalesced <- t.c.coalesced + 1;
        t.n_wait <- t.n_wait + 1;
        slot.s_state <- Waiting { w_id = id; w_key = wkey }
      end
      else
        match
          Store.lookup t.store ~mode:d.d_mode ~config:d.d_config d.d_loop
        with
        | Store.Hit r ->
            t.c.hits <- t.c.hits + 1;
            t.c.served <- t.c.served + 1;
            slot.s_state <- Done (Json.print (ok_json ~id r))
        | Store.Hit_give_up (cls, msg) ->
            t.c.hits <- t.c.hits + 1;
            t.c.give_ups <- t.c.give_ups + 1;
            slot.s_state <-
              Done (Json.print (class_json ~id "give-up" ~cls ~msg))
        | Store.Miss ->
            t.c.misses <- t.c.misses + 1;
            t.c.computes <- t.c.computes + 1;
            Hashtbl.add t.inflight wkey ();
            Pool.Service.submit t.service { jb_key = key; jb_d = d };
            t.n_wait <- t.n_wait + 1;
            slot.s_state <- Waiting { w_id = id; w_key = wkey })

let classify_slot t payload slot =
  match payload with
  | P_bad msg -> slot.s_state <- Done (Json.print (bad t ~id:"" msg))
  | P_obj j -> (
      let id = id_of j in
      match
        match Json.member_opt "op" j with
        | Some (Json.Str op) -> Ok op
        | _ -> Error "missing op field"
      with
      | Error msg -> slot.s_state <- Done (Json.print (bad t ~id msg))
      | Ok "health" -> slot.s_state <- Done (Json.print (health_json t ~id))
      | Ok "stats" -> slot.s_state <- Done (Json.print (stats_json t ~id))
      | Ok "evict" ->
          slot.s_state <-
            Done
              (Json.print
                 (try evict_reply t ~id j
                  with Json.Bad msg -> bad t ~id msg))
      | Ok "schedule" -> (
          try classify_schedule t ~id j slot
          with Json.Bad msg -> slot.s_state <- Done (Json.print (bad t ~id msg))
          )
      | Ok op ->
          slot.s_state <- Done (Json.print (bad t ~id ("unknown op: " ^ op))))

(* Never raises and never kills the engine: a failure anywhere in
   classification — decoder bug, scheduler explosion outside the retry
   path — is converted into a fault reply for this one slot. *)
let classify_guarded t payload slot =
  try classify_slot t payload slot
  with e ->
    t.c.faults <- t.c.faults + 1;
    slot.s_state <-
      Done
        (Json.print
           (class_json ~id:"" "fault" ~cls:"internal"
              ~msg:(Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

type parsed = L_bad of string | L_obj of Json.t | L_batch of Json.t list

let parse_line line =
  match Json.parse line with
  | exception Json.Bad msg -> L_bad msg
  | Json.List els -> L_batch els
  | j -> L_obj j

let shed_parsed t p ~reason =
  let one id =
    t.c.overloaded <- t.c.overloaded + 1;
    Json.print (overloaded_json ~id ~reason)
  in
  let safe_id j = try id_of j with Json.Bad _ -> "" in
  match p with
  | L_bad _ -> one ""
  | L_obj j -> one (safe_id j)
  | L_batch els ->
      (* a shed batch is shed atomically: every element is refused *)
      "[" ^ String.concat "," (List.map (fun j -> one (safe_id j)) els) ^ "]"

let enqueue t p =
  let payloads, batch =
    match p with
    | L_bad msg -> ([ P_bad msg ], false)
    | L_obj j -> ([ P_obj j ], false)
    | L_batch els ->
        t.c.batches <- t.c.batches + 1;
        (List.map (fun j -> P_obj j) els, true)
  in
  let e =
    {
      e_seq = t.seq;
      e_batch = batch;
      e_slots =
        Array.of_list (List.map (fun p -> { s_state = Todo p }) payloads);
    }
  in
  t.seq <- t.seq + 1;
  t.n_todo <- t.n_todo + Array.length e.e_slots;
  t.entries <- t.entries @ [ e ];
  e

let admit t line =
  let p = parse_line line in
  if t.is_draining then Error (shed_parsed t p ~reason:"draining")
  else
    let n = match p with L_batch els -> List.length els | _ -> 1 in
    if pending t + n > t.limits.queue_bound then
      Error (shed_parsed t p ~reason:"queue-full")
    else Ok (enqueue t p).e_seq

let offer t line =
  match admit t line with Error shed -> Some shed | Ok _ -> None

(* ------------------------------------------------------------------ *)
(* The pump: funnel, classification, collection                        *)
(* ------------------------------------------------------------------ *)

(* Drain finished worker results into the engine: settle each
   computation once, then fulfil every waiter on its key — rendered per
   slot with the slot's own id, so a coalesced reply is byte-identical
   to the reply the waiter would have received alone. *)
let integrate t =
  List.iter
    (fun ((jb : job), res) ->
      let wkey = wait_key jb.jb_key jb.jb_d in
      Hashtbl.remove t.inflight wkey;
      let result =
        match res with
        | Ok (o : outcome) ->
            t.c.retries_used <- t.c.retries_used + o.o_retries;
            o.o_result
        | Error (f : Pool.fault) ->
            (* the job itself crashed outside the retry ladder: same
               taxonomy as a raise inside an attempt *)
            Error (Sched.Sched_error.Internal (Printexc.to_string f.Pool.exn))
      in
      settle_result t ~key:jb.jb_key jb.jb_d result;
      List.iter
        (fun e ->
          Array.iter
            (fun slot ->
              match slot.s_state with
              | Waiting w when String.equal w.w_key wkey ->
                  t.n_wait <- t.n_wait - 1;
                  slot.s_state <-
                    Done (Json.print (render_result t ~id:w.w_id result))
              | _ -> ())
            e.e_slots)
        t.entries)
    (Pool.Service.poll t.service)

let classify_pending t =
  List.iter
    (fun e ->
      Array.iter
        (fun slot ->
          match slot.s_state with
          | Todo payload ->
              t.n_todo <- t.n_todo - 1;
              classify_guarded t payload slot
          | Waiting _ | Done _ -> ())
        e.e_slots)
    t.entries

let entry_done e =
  Array.for_all
    (fun s -> match s.s_state with Done _ -> true | _ -> false)
    e.e_slots

let entry_reply e =
  let texts =
    Array.to_list
      (Array.map
         (fun s -> match s.s_state with Done r -> r | _ -> assert false)
         e.e_slots)
  in
  if e.e_batch then "[" ^ String.concat "," texts ^ "]"
  else match texts with [ r ] -> r | _ -> assert false

let collect t =
  let ready, rest = List.partition entry_done t.entries in
  t.entries <- rest;
  List.map (fun e -> (e.e_seq, entry_reply e)) ready

(* Integrate, classify, integrate again: results that landed while
   classifying — every one at workers = 0 — flush without waiting for
   the next call. *)
let advance t =
  integrate t;
  classify_pending t;
  integrate t

let pump t =
  advance t;
  collect t

let needs_pump t =
  t.n_todo > 0
  || Pool.Service.has_results t.service
  || List.exists entry_done t.entries

(* A slot can only be Waiting while its computation is in flight or its
   result sits in the funnel, so an unresolved engine always has
   something to wait on; fail loud rather than spin. *)
let await t =
  if not (Pool.Service.wait t.service) then
    failwith "Serve: unresolved requests with nothing in flight"

let rec pump_wait t =
  match pump t with
  | [] when busy t ->
      await t;
      pump_wait t
  | out -> out

let handle t line =
  let e = enqueue t (parse_line line) in
  advance t;
  while not (entry_done e) do
    await t;
    advance t
  done;
  t.entries <- List.filter (fun e' -> e' != e) t.entries;
  entry_reply e

let begin_drain t =
  if not t.is_draining then begin
    t.is_draining <- true;
    t.io.Io.log
      (Printf.sprintf "drain: shedding new work, %d request(s) in flight"
         (pending t))
  end

let draining t = t.is_draining
let save t = Store.save t.store
let shutdown t = Pool.Service.shutdown t.service

(* ------------------------------------------------------------------ *)
(* Client-side codecs                                                  *)
(* ------------------------------------------------------------------ *)

let request_json ~op ?budget_s ?budget_attempts ~id ~mode ~config
    (l : Workload.Generator.loop) =
  Json.Obj
    (("op", Json.Str op) :: ("id", Json.Str id)
     :: ("mode", Json.Str (Experiment.mode_tag mode))
     :: ("config", Json.Str (Machine.Config.name config))
     :: ( "loop",
          Json.Obj
            [
              ("id", Json.Str l.Workload.Generator.id);
              ("benchmark", Json.Str l.Workload.Generator.benchmark);
              ("trip", jint l.Workload.Generator.trip);
              ("visits", jint l.Workload.Generator.visits);
              ("graph", Store.Graph_json.encode l.Workload.Generator.graph);
            ] )
     ::
     (match budget_s with
     | None -> []
     | Some s -> [ ("budget_s", Json.Num s) ])
    @
    match budget_attempts with
    | None -> []
    | Some n -> [ ("budget_attempts", jint n) ])

let request ?id ?budget_s ?budget_attempts ~mode ~config
    (l : Workload.Generator.loop) =
  let id = Option.value id ~default:l.Workload.Generator.id in
  Json.print
    (request_json ~op:"schedule" ?budget_s ?budget_attempts ~id ~mode ~config l)

let batch_request lines = "[" ^ String.concat "," lines ^ "]"

let health_request ?(id = "health") () =
  Json.print (Json.Obj [ ("op", Json.Str "health"); ("id", Json.Str id) ])

let stats_request ?(id = "stats") () =
  Json.print (Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Str id) ])

let evict_request ?id ~mode ~config (l : Workload.Generator.loop) =
  let id = Option.value id ~default:l.Workload.Generator.id in
  Json.print (request_json ~op:"evict" ~id ~mode ~config l)

let direct_reply ?id ?budget_s ?budget_attempts ~mode ~config
    (l : Workload.Generator.loop) =
  let id = Option.value id ~default:l.Workload.Generator.id in
  let result =
    attempt_once ~now:Unix.gettimeofday ?budget_s ?budget_attempts ~poison:[]
      ~mode ~config l
  in
  Json.print
    (match result with Ok r -> ok_json ~id r | Error e -> error_json ~id e)

(* ------------------------------------------------------------------ *)
(* The Unix-socket daemon                                              *)
(* ------------------------------------------------------------------ *)

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) ->
          (* a client that went away loses only its own replies *)
          ()
  in
  go 0

(* Complete lines out of a client's input buffer; the tail (no newline
   yet) stays buffered. *)
let drain_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear buf;
      Buffer.add_string buf
        (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)

(* Per-connection state: [cl_waiting] is the FIFO of admitted entry
   sequence numbers this client is owed replies for.  Replies are
   delivered in admission order *per client* — so any single pipelined
   client sees exactly the workers = 0 byte stream — while independent
   clients' replies interleave as their computations finish (a health
   probe is never stuck behind another connection's miss). *)
type client = {
  cl_fd : Unix.file_descr;
  cl_buf : Buffer.t;
  cl_waiting : int Queue.t;
}

let serve_unix ?limits ?poison ?store_dir ~socket () =
  (* self-pipe: worker completions wake the select loop immediately *)
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let wake = Bytes.make 1 '!' in
  let on_result () =
    (* a full pipe already holds a wake-up; dropping the byte is fine *)
    try ignore (Unix.write pipe_w wake 0 1) with Unix.Unix_error _ -> ()
  in
  let t = create ?limits ?poison ?store_dir ~on_result () in
  let io = t.io in
  let fail msg =
    let e = Sched.Sched_error.Server msg in
    io.Io.log (Sched.Sched_error.to_string e);
    Sched.Sched_error.exit_code e
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (try if Sys.file_exists socket then Sys.remove socket
   with Sys_error _ -> ());
  match
    let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind lfd (Unix.ADDR_UNIX socket);
    Unix.listen lfd 64;
    lfd
  with
  | exception Unix.Unix_error (e, _, _) ->
      shutdown t;
      fail
        (Printf.sprintf "cannot bind socket %s: %s" socket
           (Unix.error_message e))
  | lfd ->
      io.Io.log (Printf.sprintf "listening on %s" socket);
      if t.limits.workers > 0 then
        io.Io.log
          (Printf.sprintf "worker pool: %d domain(s)" t.limits.workers);
      let clients = ref [] in
      (* entry seq -> owning client, and finished replies not yet
         writable because an earlier reply of the same client is still
         computing *)
      let owners : (int, client) Hashtbl.t = Hashtbl.create 64 in
      let unsent : (int, string) Hashtbl.t = Hashtbl.create 64 in
      let chunk = Bytes.create 65536 in
      let drain_pipe () =
        let rec go () =
          match Unix.read pipe_r chunk 0 256 with
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (_, _, _) -> ()
          | 0 -> ()
          | _ -> go ()
        in
        go ()
      in
      let close_client c =
        clients := List.filter (fun c' -> c' != c) !clients;
        Queue.iter
          (fun seq ->
            Hashtbl.remove owners seq;
            Hashtbl.remove unsent seq)
          c.cl_waiting;
        Queue.clear c.cl_waiting;
        try Unix.close c.cl_fd with Unix.Unix_error _ -> ()
      in
      let read_client c =
        match Unix.read c.cl_fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (_, _, _) -> close_client c
        | 0 -> close_client c
        | n ->
            Buffer.add_subbytes c.cl_buf chunk 0 n;
            List.iter
              (fun line ->
                if not (String.equal line "") then
                  match admit t line with
                  | Error shed -> write_line c.cl_fd shed
                  | Ok seq ->
                      Queue.add seq c.cl_waiting;
                      Hashtbl.replace owners seq c)
              (drain_lines c.cl_buf)
      in
      let dispatch (seq, reply) =
        match Hashtbl.find_opt owners seq with
        | Some _ -> Hashtbl.replace unsent seq reply
        | None -> () (* the client disconnected; drop its reply *)
      in
      let rec flush_client c =
        match Queue.peek_opt c.cl_waiting with
        | Some seq -> (
            match Hashtbl.find_opt unsent seq with
            | Some reply ->
                ignore (Queue.pop c.cl_waiting);
                Hashtbl.remove unsent seq;
                Hashtbl.remove owners seq;
                write_line c.cl_fd reply;
                flush_client c
            | None -> ())
        | None -> ()
      in
      let running = ref true in
      while !running do
        if !stop then begin_drain t;
        if t.is_draining && not (busy t) then running := false
        else begin
          let rds =
            (if t.is_draining then [] else [ lfd ])
            @ (pipe_r :: List.map (fun c -> c.cl_fd) !clients)
          in
          let timeout = if needs_pump t then 0. else 0.25 in
          (match Unix.select rds [] [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
              if List.memq pipe_r ready then drain_pipe ();
              if List.memq lfd ready then begin
                match Unix.accept lfd with
                | exception Unix.Unix_error (_, _, _) -> ()
                | cfd, _ ->
                    clients :=
                      {
                        cl_fd = cfd;
                        cl_buf = Buffer.create 256;
                        cl_waiting = Queue.create ();
                      }
                      :: !clients
              end;
              List.iter
                (fun c -> if List.memq c.cl_fd ready then read_client c)
                !clients);
          List.iter dispatch (pump t);
          List.iter flush_client !clients
        end
      done;
      shutdown t;
      save t;
      List.iter (fun c -> try Unix.close c.cl_fd with _ -> ()) !clients;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.close pipe_r with Unix.Unix_error _ -> ());
      (try Unix.close pipe_w with Unix.Unix_error _ -> ());
      (try Sys.remove socket with Sys_error _ -> ());
      io.Io.log "drained: store saved, exiting cleanly";
      0
