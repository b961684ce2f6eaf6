(* Seeded inputs.  Seed 0 is the committed 678-loop suite; any other
   seed offsets every benchmark profile's generator seed, so the suite
   keeps its shape (ten programs, 678 loops) but every loop body is
   redrawn.  The same seed also drives the serve stream and the
   exact-gap draw, through [rng]. *)

let suite ~seed =
  Span.within "Workload.Generator.generate" (fun () ->
      List.concat_map
        (fun (b : Workload.Benchmark.t) ->
          Workload.Generator.generate
            { b with Workload.Benchmark.seed = b.Workload.Benchmark.seed + seed })
        Workload.Benchmark.all)

(* A digest over everything a loop contributes to a run: id, structure,
   trip and visit counts. *)
let digest loops =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (l : Workload.Generator.loop) ->
      Printf.bprintf b "%s|%d|%d|%s\n" l.id l.trip l.visits
        (Ddg.Graph.structural_encoding l.graph))
    loops;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rng ~seed ~salt = Random.State.make [| 0x5eed; seed; salt |]

let config name =
  match Machine.Config.of_name name with
  | Some c -> c
  | None -> invalid_arg ("unknown configuration " ^ name)

(* Peak resident set of a process, from /proc (Linux), in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> nan
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d kB"
                    (fun kb -> float_of_int kb /. 1024.)
                else go ()
          in
          go ())

let now = Unix.gettimeofday

(* CPU seconds (user + system) this process has used, all domains. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds another process has used, from /proc (Linux, in clock
   ticks of 1/100 s). *)
let proc_cpu pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* the fields after the parenthesised command name start at field 3;
     utime and stime are fields 14 and 15 *)
  let i = String.rindex line ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub line i (String.length line - i))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.
