(* Fault injection against the legality checker.

   Each catalog entry corrupts one invariant of a finished schedule —
   the same invariants {!Checker.check} enforces — and names the
   substring the checker must produce for it.  Running the catalog over
   checker-clean schedules proves the checker actually guards every rule
   the scheduler relies on: a corruption the checker misses is a hole in
   the safety net, not a scheduling bug.

   Corruptions never mutate the input schedule: the mutable arrays (and,
   for the cluster fault, the route) are copied first. *)

open Ddg

type injection = {
  name : string;
  descr : string;
  expect : string;  (* substring Checker.check must name *)
  v_rule : string;  (* rule Check.Validate must report *)
  apply : Sched.Schedule.t -> Sched.Schedule.t option;
}

type verdict =
  | Not_applicable  (* the schedule lacks the ingredient to corrupt *)
  | Missed  (* corrupted, but the checker said Ok — a checker hole *)
  | Misnamed of string list  (* detected, but not as [expect] *)
  | Detected of string list

let clone (s : Sched.Schedule.t) =
  {
    s with
    Sched.Schedule.cycles = Array.copy s.Sched.Schedule.cycles;
    buses = Array.copy s.Sched.Schedule.buses;
  }

(* A [Routed] clone whose route owns its cluster array. *)
let clone_route (s : Sched.Schedule.t) =
  let s = clone s in
  let route = Sched.Schedule.route s in
  {
    s with
    Sched.Schedule.routing =
      Routed
        { route with Sched.Route.assign = Array.copy route.Sched.Route.assign };
  }

let n_nodes (s : Sched.Schedule.t) =
  Graph.n_nodes (Sched.Schedule.route s).Sched.Route.graph

let find_node s p =
  let n = n_nodes s in
  let rec go v = if v >= n then None else if p v then Some v else go (v + 1) in
  go 0

let is_copy (s : Sched.Schedule.t) v =
  Sched.Route.is_copy (Sched.Schedule.route s) v

(* Every placed copy, i.e. every bus transfer the schedule claims. *)
let placed_copies (s : Sched.Schedule.t) =
  let rec go v acc =
    if v < 0 then acc
    else
      go (v - 1)
        (if is_copy s v && s.Sched.Schedule.buses.(v) >= 0 then v :: acc
         else acc)
  in
  go (n_nodes s - 1) []

let drop_bus_slot =
  {
    name = "drop-bus-slot";
    descr = "erase the bus assignment of one copy node";
    expect = "bogus bus";
    v_rule = "bus-slot";
    apply =
      (fun s ->
        match placed_copies s with
        | [] -> None
        | v :: _ ->
            let s = clone s in
            s.Sched.Schedule.buses.(v) <- -1;
            Some s);
  }

let phantom_bus =
  {
    name = "phantom-bus";
    descr = "give a non-copy instruction a bus slot";
    expect = "carries bus";
    v_rule = "phantom-bus";
    apply =
      (fun s ->
        match find_node s (fun v -> not (is_copy s v)) with
        | None -> None
        | Some v ->
            let s = clone s in
            s.Sched.Schedule.buses.(v) <- 0;
            Some s);
  }

let bogus_cluster =
  {
    name = "bogus-cluster";
    descr = "assign a node to a cluster the machine does not have";
    expect = "bogus cluster";
    v_rule = "cluster-range";
    apply =
      (fun s ->
        if n_nodes s = 0 then None
        else begin
          let s = clone_route s in
          (Sched.Schedule.route s).Sched.Route.assign.(0) <-
            s.Sched.Schedule.config.Machine.Config.clusters;
          Some s
        end);
  }

let break_dependence =
  {
    name = "break-dependence";
    descr = "issue a producer too late for one of its dependences";
    expect = "violated";
    v_rule = "dependence";
    apply =
      (fun s ->
        let g = (Sched.Schedule.route s).Sched.Route.graph in
        (* A self-dependence moves with its own producer, so only an
           edge between distinct nodes can be violated by reissuing the
           producer. *)
        match
          Array.find_opt
            (fun e -> e.Graph.src <> e.Graph.dst)
            (Graph.edges g)
        with
        | None -> None
        | Some e ->
            let s = clone s in
            let ii = s.Sched.Schedule.ii in
            let cycles = s.Sched.Schedule.cycles in
            (* Smallest violating issue cycle that is still >= 0, so the
               only new error is the dependence one. *)
            let target =
              ref
                (cycles.(e.Graph.dst)
                + (ii * e.Graph.distance)
                - e.Graph.latency + 1)
            in
            while !target < 0 do
              target := !target + ii
            done;
            cycles.(e.Graph.src) <- !target;
            Some s);
  }

let oversubscribe_fu =
  {
    name = "oversubscribe-fu";
    descr = "pile more same-kind ops into one modulo slot than the cluster has units";
    expect = "but only";
    v_rule = "fu-capacity";
    apply =
      (fun s ->
        let config = s.Sched.Schedule.config in
        let route = Sched.Schedule.route s in
        let g = route.Sched.Route.graph in
        let assign = route.Sched.Route.assign in
        let n = n_nodes s in
        let candidates c k =
          let rec go v acc =
            if v >= n then List.rev acc
            else
              go (v + 1)
                (if
                   s.Sched.Schedule.cycles.(v) >= 0
                   && assign.(v) = c
                   && Machine.Opclass.fu_kind (Graph.op g v) = Some k
                 then v :: acc
                 else acc)
          in
          go 0 []
        in
        let found = ref None in
        for c = 0 to config.Machine.Config.clusters - 1 do
          List.iter
            (fun k ->
              if !found = None then begin
                let cap = Machine.Config.fus config ~cluster:c k in
                let vs = candidates c k in
                if cap >= 1 && List.length vs > cap then
                  found := Some (cap, vs)
              end)
            Machine.Fu.all
        done;
        match !found with
        | None -> None
        | Some (cap, v0 :: rest) ->
            let s = clone s in
            let slot0 = s.Sched.Schedule.cycles.(v0) in
            (* [rest] has at least [cap] members; moving the first [cap]
               onto [v0]'s cycle puts cap+1 same-kind ops in one slot. *)
            List.iteri
              (fun i v ->
                if i < cap then s.Sched.Schedule.cycles.(v) <- slot0)
              rest;
            Some s
        | Some (_, []) -> None);
  }

let double_book_bus =
  {
    name = "double-book-bus";
    descr = "schedule two transfers on the same bus in the same slot";
    expect = "oversubscribed";
    v_rule = "bus-conflict";
    apply =
      (fun s ->
        if s.Sched.Schedule.config.Machine.Config.buses = 0 then None
        else
          match placed_copies s with
          | v1 :: v2 :: _ ->
              let s = clone s in
              s.Sched.Schedule.buses.(v2) <- s.Sched.Schedule.buses.(v1);
              s.Sched.Schedule.cycles.(v2) <- s.Sched.Schedule.cycles.(v1);
              Some s
          | _ -> None);
  }

let starve_registers =
  {
    name = "starve-registers";
    descr = "shrink the register file below the schedule's MaxLive";
    expect = "MaxLive";
    v_rule = "register-pressure";
    apply =
      (fun s ->
        let config = s.Sched.Schedule.config in
        if Sched.Regpressure.max_pressure s <= 1 then None
        else
          Some
            {
              s with
              Sched.Schedule.config =
                Machine.Config.with_registers config
                  ~registers:config.Machine.Config.clusters;
            });
  }

let lose_issue_cycle =
  {
    name = "lose-issue-cycle";
    descr = "forget the issue cycle of a node";
    expect = "no issue cycle";
    v_rule = "issue-cycle";
    apply =
      (fun s ->
        if n_nodes s = 0 then None
        else begin
          let s = clone s in
          s.Sched.Schedule.cycles.(0) <- -1;
          Some s
        end);
  }

let catalog =
  [
    drop_bus_slot;
    phantom_bus;
    bogus_cluster;
    break_dependence;
    oversubscribe_fu;
    double_book_bus;
    starve_registers;
    lose_issue_cycle;
  ]

let contains s ~sub =
  let ls = String.length sub and n = String.length s in
  if ls = 0 then true
  else begin
    let rec from i =
      if i + ls > n then false
      else String.sub s i ls = sub || from (i + 1)
    in
    from 0
  end

let verify ?registers sched inj =
  match inj.apply sched with
  | None -> Not_applicable
  | Some bad -> (
      match Checker.check ?registers bad with
      | Ok () -> Missed
      | Error es ->
          if List.exists (fun e -> contains e ~sub:inj.expect) es then
            Detected es
          else Misnamed es)
