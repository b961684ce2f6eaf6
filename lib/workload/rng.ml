(* The SplitMix64 state lives unboxed in 8 bytes: a draw reads,
   advances and writes it back without allocating an [int64] box. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: n <= 0";
  let v = Int64.to_int (next t) land max_int in
  v mod n

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let chance t p = float t < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let split t = of_state (next t)
