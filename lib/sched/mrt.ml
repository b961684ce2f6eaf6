(* Occupancy is tracked two ways: exact per-slot unit counts (needed by
   [fu_slack_slots] and to know when a slot fills up), and bitset rows
   with one bit per modulo slot — set when the slot can no longer accept
   a reservation.  Availability probes are then a single bit test, and a
   bus-latency window check is at most two masked word comparisons
   instead of a per-slot scan. *)

(* Bits per word: low [word_bits] bits of an OCaml int. *)
let word_bits = 62

type row = int array (* ceil (ii / word_bits) words, bit = slot busy/full *)

type t = {
  config : Machine.Config.t;
  ii_ : int;
  (* fu.(cluster).(kind).(slot) = units busy *)
  fu : int array array array;
  (* fu_full.(cluster).(kind): bit set when every unit in the slot is
     busy (a zero-capacity kind starts with every bit set) *)
  fu_full : row array array;
  (* bus.(b): bit set when the bus is busy in the slot *)
  bus : row array;
}

let words_for ii = (ii + word_bits - 1) / word_bits

let bit_set (r : row) i = r.(i / word_bits) lsr (i mod word_bits) land 1 = 1
[@@inline]

let set_bit (r : row) i =
  r.(i / word_bits) <- r.(i / word_bits) lor (1 lsl (i mod word_bits))
[@@inline]

(* Are bits [s, fin) of [r] all clear?  [fin] must not exceed the row's
   slot count (wraparound is the caller's business).  Placement probes
   this for every candidate cycle of a copy, so it takes its bounds as
   arguments rather than allocating a closure over them. *)
let rec clear_until (r : row) s fin =
  s >= fin
  ||
  let wi = s / word_bits and bi = s mod word_bits in
  let take = min (word_bits - bi) (fin - s) in
  let mask = ((1 lsl take) - 1) lsl bi in
  r.(wi) land mask = 0 && clear_until r (s + take) fin

let range_clear (r : row) s len = clear_until r s (s + len)

let set_range (r : row) s len =
  let fin = s + len in
  let rec go s =
    if s < fin then begin
      let wi = s / word_bits and bi = s mod word_bits in
      let take = min (word_bits - bi) (fin - s) in
      r.(wi) <- r.(wi) lor (((1 lsl take) - 1) lsl bi);
      go (s + take)
    end
  in
  go s

let create config ~ii =
  if ii < 1 then invalid_arg "Mrt.create: ii < 1";
  let clusters = config.Machine.Config.clusters in
  let words = words_for ii in
  let full_row () =
    (* Every slot marked full: kinds with no unit in the cluster can
       never accept a reservation. *)
    let r = Array.make words 0 in
    set_range r 0 ii;
    r
  in
  {
    config;
    ii_ = ii;
    fu =
      Array.init clusters (fun _ ->
          Array.init Machine.Fu.count (fun _ -> Array.make ii 0));
    fu_full =
      Array.init clusters (fun cluster ->
          Array.init Machine.Fu.count (fun k ->
              if
                Machine.Config.fus config ~cluster
                  (Machine.Fu.of_index k) > 0
              then Array.make words 0
              else full_row ()));
    bus =
      Array.init config.Machine.Config.buses (fun _ -> Array.make words 0);
  }

let ii t = t.ii_

(* Floor-mod: placement cycles may be arbitrarily negative before the
   final normalization shift. *)
let slot t cycle =
  let m = cycle mod t.ii_ in
  if m < 0 then m + t.ii_ else m
[@@inline]

let fu_available t ~cluster ~kind ~cycle =
  not (bit_set t.fu_full.(cluster).(Machine.Fu.index kind) (slot t cycle))

let reserve_fu t ~cluster ~kind ~cycle =
  if not (fu_available t ~cluster ~kind ~cycle) then
    invalid_arg "Mrt.reserve_fu: no unit free";
  let k = Machine.Fu.index kind in
  let s = slot t cycle in
  let busy = t.fu.(cluster).(k).(s) + 1 in
  t.fu.(cluster).(k).(s) <- busy;
  if busy >= Machine.Config.fus t.config ~cluster kind then
    set_bit t.fu_full.(cluster).(k) s

let bus_free_at t ~bus ~cycle =
  let lat = max 1 t.config.Machine.Config.bus_latency in
  (* A transfer longer than the II can never fit: it would overlap
     itself. *)
  lat <= t.ii_
  &&
  let s = slot t cycle in
  let row = t.bus.(bus) in
  if s + lat <= t.ii_ then range_clear row s lat
  else range_clear row s (t.ii_ - s) && range_clear row 0 (s + lat - t.ii_)

let rec first_free_bus t ~cycle b =
  if b >= Array.length t.bus then None
  else if bus_free_at t ~bus:b ~cycle then Some b
  else first_free_bus t ~cycle (b + 1)

let find_bus t ~cycle = first_free_bus t ~cycle 0

let reserve_bus t ~bus ~cycle =
  if not (bus_free_at t ~bus ~cycle) then
    invalid_arg "Mrt.reserve_bus: bus busy";
  let lat = max 1 t.config.Machine.Config.bus_latency in
  let s = slot t cycle in
  let row = t.bus.(bus) in
  if s + lat <= t.ii_ then set_range row s lat
  else begin
    set_range row s (t.ii_ - s);
    set_range row 0 (s + lat - t.ii_)
  end

let fu_slack_slots t ~cluster ~kind =
  let k = Machine.Fu.index kind in
  let cap = Machine.Config.fus t.config ~cluster kind in
  Array.fold_left (fun acc busy -> acc + (cap - busy)) 0 t.fu.(cluster).(k)
