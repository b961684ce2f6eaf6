(* Order statistics and open-loop accounting for the benchmark.

   Percentiles are nearest-rank and carry their sample count.  A
   percentile is only reported when at least [min_beyond] samples lie
   strictly beyond it: a p99 over fewer than 1000 samples is a maximum
   in disguise, so it is withheld instead of printed. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of the [p]-th percentile among [n] samples. *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

type pct = { value : float; n : int }

let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let k = rank ~n p in
    if n - k >= min_beyond then Some { value = a.(k - 1); n } else None

(* Smallest sample count for which [percentile p] reports. *)
let samples_needed p =
  let rec go n = if n - rank ~n p >= min_beyond then n else go (n + 1) in
  go 1

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

let geomean = function
  | [] -> nan
  | xs ->
      exp (sum (List.map log xs) /. float_of_int (List.length xs))

let mean = function
  | [] -> nan
  | xs -> sum xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Open-loop accounting                                                *)
(* ------------------------------------------------------------------ *)

(* One request of an open-loop stream.  [due] is when the schedule says
   it should go out, [sent] when the generator actually wrote it and
   [replied] when its reply line arrived.  Latency is measured from the
   due time, so a generator that falls behind cannot hide queueing by
   sending late (coordinated omission). *)
type sample = { due : float; sent : float; replied : float }

let latency s = s.replied -. s.due
let lateness s = s.sent -. s.due

(* Requests due at or before [s.due] whose reply had not arrived by
   then, [s] excluded: the backlog [s] found when it fell due. *)
let backlog_at samples s =
  List.fold_left
    (fun acc o ->
      if o.due <= s.due && o.replied > s.due && o != s then acc + 1 else acc)
    0 samples

(* The backlog grows when the requests in the last quarter of the
   stream (by due time) find, on average, more than twice the backlog
   of the first quarter plus two requests.  A stable server keeps its
   backlog bounded; an overloaded one accumulates it linearly. *)
let backlog_grows samples =
  let a = Array.of_list samples in
  Array.sort (fun x y -> Float.compare x.due y.due) a;
  let n = Array.length a in
  if n < 8 then false
  else
    let q = n / 4 in
    let all = Array.to_list a in
    let avg lo hi =
      let tot = ref 0 in
      for i = lo to hi - 1 do
        tot := !tot + backlog_at all a.(i)
      done;
      float_of_int !tot /. float_of_int (hi - lo)
    in
    avg (n - q) n > (2. *. avg 0 q) +. 2.
