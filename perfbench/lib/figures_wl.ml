(* figures-cold and figures-warm: `repro figures` on a fresh
   Metrics.Suite, every artifact rendered and timed separately in paper
   order, so each renderer pays for the sweeps it triggers first. *)

let renderers suite =
  let open Metrics.Figures in
  [
    ("table1", fun () -> table1 ());
    ("fig1", fun () -> fig1 suite);
    ("fig7", fun () -> fig7 suite);
    ("fig8", fun () -> fig8 suite);
    ("fig9", fun () -> fig9 suite);
    ("fig10", fun () -> fig10 suite);
    ("fig12", fun () -> fig12 suite);
    ("sec4_stats", fun () -> sec4 suite);
    ("sec4_regs", fun () -> sec4_regs suite);
    ("sec51_length", fun () -> sec51 suite);
    ("sec52_macro", fun () -> sec52 suite);
  ]

type part = {
  id : string;
  text : (string, string) result;  (** rendered text, or the exception *)
  seconds : float;
  done_at : float;  (** seconds since the pass started *)
}

type pass = {
  parts : part list;
  wall : float;
  cpu : float;  (** CPU seconds of the pass *)
  suite : Metrics.Suite.t;
}

let pass ?store loops =
  let t0 = Inputs.now () and c0 = Inputs.cpu () in
  let suite =
    Span.within "Metrics.Suite.create" (fun () ->
        Metrics.Suite.create ~loops ?store ())
  in
  let parts =
    List.map
      (fun (id, render) ->
        let t = Inputs.now () in
        let text =
          match Span.within ("Metrics.Figures." ^ id) render with
          | s -> Ok s
          | exception e -> Error (Printexc.to_string e)
        in
        let now = Inputs.now () in
        { id; text; seconds = now -. t; done_at = now -. t0 })
      (renderers suite)
  in
  { parts; wall = Inputs.now () -. t0; cpu = Inputs.cpu () -. c0; suite }

(* The report exactly as `repro figures` prints it. *)
let text p =
  String.concat ""
    (List.map
       (fun part ->
         match part.text with
         | Ok s -> Printf.sprintf "=== %s ===\n%s\n" part.id s
         | Error e -> Printf.sprintf "=== %s ===\nFAILED: %s\n" part.id e)
       p.parts)

let modes = [ Metrics.Experiment.Baseline; Metrics.Experiment.Replication ]

(* Every Baseline and Replication run of the six Figure-7
   configurations (cached by the pass, so this reads, not schedules). *)
let fig7_runs suite =
  List.concat_map
    (fun config ->
      List.concat_map
        (fun mode -> Metrics.Suite.runs suite mode config)
        modes)
    Machine.Config.paper_configs

(* Re-check runs with the independent oracle; returns the number of
   runs checked and the complaints. *)
let validate_runs runs =
  let bad =
    List.filter_map
      (fun (r : Metrics.Experiment.loop_run) ->
        match
          Span.within "Check.Validate.run" (fun () ->
              Check.Validate.run ~original:r.loop.graph
                r.outcome.Sched.Driver.schedule)
        with
        | Ok () -> None
        | Error is ->
            Some
              (Printf.sprintf "%s %s: %s"
                 (Metrics.Experiment.mode_tag r.mode)
                 r.loop.id
                 (String.concat "; " (Check.Validate.to_strings is))))
      runs
  in
  (List.length runs, bad)

let validate suite = validate_runs (fig7_runs suite)

(* A warm pass is correct when its report is byte-identical to the cold
   pass's and the store answered every lookup. *)
let warm_ok ~cold ~text ~misses = String.equal text cold && misses = 0

(* Schedule quality, read back from the cached sweeps. *)
let ipc suite =
  let panels = Metrics.Figures.fig7_data suite in
  ( Stats.geomean (List.map (fun p -> p.Metrics.Figures.hmean_base) panels),
    Stats.geomean (List.map (fun p -> p.Metrics.Figures.hmean_repl) panels) )

let added_instr_pct suite =
  Stats.mean
    (List.map
       (fun r ->
         100.
         *. (r.Metrics.Figures.added_mem +. r.Metrics.Figures.added_int
           +. r.Metrics.Figures.added_fp))
       (Metrics.Figures.fig10_data suite))

(* Share of the Figure-7 runs scheduled at their MII: a lower bound
   met, so the II is optimal without any search. *)
let at_mii_frac suite =
  let runs = fig7_runs suite in
  let hit =
    List.filter
      (fun (r : Metrics.Experiment.loop_run) ->
        r.outcome.Sched.Driver.ii = r.outcome.Sched.Driver.mii)
      runs
  in
  float_of_int (List.length hit) /. float_of_int (max 1 (List.length runs))

(* Every table file of a store directory parsed with Metrics.Json. *)
let parse_tables dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  let t0 = Inputs.now () in
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      ignore (Span.within "Metrics.Json.parse" (fun () -> Metrics.Json.parse s)))
    files;
  (List.length files, Inputs.now () -. t0)

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end
