(* Spans around the calls the benchmark makes into the program.

   Off by default: [within] then costs one flag read.  When enabled,
   every call records a span with its name, start, end, parent span and
   run id.  Spans stay in memory until [write] dumps them as JSON lines.
   Only the orchestrating domain records spans. *)

type t = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  run : string;
}

let enabled = ref false
let run_id = ref ""
let finished : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let start ~run =
  enabled := true;
  run_id := run;
  finished := [];
  open_ids := [];
  next_id := 0

let stop () = enabled := false

let within name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        open_ids := List.tl !open_ids;
        finished :=
          { id; name; start; stop; parent; run = !run_id } :: !finished)
      f
  end

let spans () = List.rev !finished
let duration s = s.stop -. s.start

(* Self time of every span: its duration minus its children's. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* Summed self time per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  tbl

let total_named spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. spans

(* Wall time the root spans cover. *)
let covered spans =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
    0. spans

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"run\":\"%s\"}"
    s.id (String.escaped s.name) s.start s.stop s.parent (String.escaped s.run)

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun s -> output_string oc (to_json s ^ "\n")) spans)
