(* The result one workload process hands back to the runner: metrics by
   name with their units, operation counts, and free-form notes, printed
   as one JSON line with every digit of every value. *)

type t = {
  values : (string, float * string) Hashtbl.t;
  mutable order : string list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable notes : (string * string) list;
}

let create () =
  { values = Hashtbl.create 128; order = []; attempted = 0; failed = 0; notes = [] }

let set t name unit v =
  if not (Hashtbl.mem t.values name) then t.order <- name :: t.order;
  Hashtbl.replace t.values name (v, unit)

let note t k v = t.notes <- (k, v) :: t.notes

let count t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let failed_frac t = float_of_int t.failed /. float_of_int (max 1 t.attempted)
let ok_frac t = 1. -. failed_frac t

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let to_json t =
  let metrics =
    List.rev_map
      (fun k ->
        let v, u = Hashtbl.find t.values k in
        Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" k (num v) u)
      t.order
  in
  let notes =
    List.rev_map
      (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" k (Metrics.Json.escape v))
      t.notes
  in
  Printf.sprintf
    "{\"attempted\":%d,\"failed\":%d,\"metrics\":{%s},\"notes\":{%s}}"
    t.attempted t.failed
    (String.concat "," metrics)
    (String.concat "," notes)

(* A percentile under the sample-count rule, or -1 when too few samples
   lie beyond it (the note records the count). *)
let pct t name unit p xs =
  match Stats.percentile p xs with
  | Some { Stats.value; _ } -> set t name unit value
  | None ->
      set t name unit (-1.);
      note t name (Printf.sprintf "withheld: %d samples" (List.length xs))
