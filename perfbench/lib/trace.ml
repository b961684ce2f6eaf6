(* The traced half of a run: spans and Sched.Profile switched on around
   a second copy of the timed pass, read back into per-layer metrics. *)

type window = { t0 : float; gc0 : Gc.stat }

let begin_ ~run =
  Gc.compact ();
  Span.start ~run;
  Sched.Profile.set_enabled true;
  { t0 = Inputs.now (); gc0 = Gc.quick_stat () }

let spans_named name = Span.total_named (Span.spans ()) name

(* Scheduler phases from Sched.Profile; [sched_total] is the time spent
   in the spans that ran the scheduler, so [sched.other_s] is what
   they spent outside the five phases. *)
let profile out ~sched_total =
  let phases = ref 0. in
  List.iter
    (fun p ->
      let name = Sched.Profile.name p in
      let s = Sched.Profile.seconds p in
      phases := !phases +. s;
      Out.set out ("sched." ^ name ^ "_s") "s" s;
      Out.set out ("sched." ^ name ^ "_minor_mw") "Mw"
        (float_of_int (fst (Sched.Profile.alloc_words p)) /. 1e6))
    Sched.Profile.phases;
  Out.set out "sched.other_s" "s" (sched_total -. !phases)

let gc_deltas out (g0 : Gc.stat) (g1 : Gc.stat) =
  Out.set out "gc.minor_collections" "count"
    (float_of_int (g1.minor_collections - g0.minor_collections));
  Out.set out "gc.major_collections" "count"
    (float_of_int (g1.major_collections - g0.major_collections));
  Out.set out "gc.promoted_mw" "Mw" ((g1.promoted_words -. g0.promoted_words) /. 1e6);
  Out.set out "gc.top_heap_mb" "MB"
    (float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1e6)

(* Close the window: GC deltas (unless [gc] is false), the unattributed
   share (window time no root span covers), the tracing overhead, the
   spans written to [spans_file], and the spans with the most self
   time. *)
let end_ ?(gc = true) w out ~overhead ~spans_file =
  let t1 = Inputs.now () in
  if gc then gc_deltas out w.gc0 (Gc.quick_stat ());
  Sched.Profile.set_enabled false;
  Span.stop ();
  let spans = Span.spans () in
  let covered = Span.covered spans in
  Out.set out "trace.unattributed_frac" "ratio"
    (Float.max 0. (1. -. (covered /. (t1 -. w.t0))));
  Out.set out "trace.overhead_s" "s" overhead;
  Span.write spans_file spans;
  Out.note out "spans" (Filename.basename spans_file);
  let self = Hashtbl.fold (fun k v acc -> (v, k) :: acc) (Span.self_by_name spans) [] in
  Out.note out "self"
    (String.concat "; "
       (List.filteri (fun i _ -> i < 8)
          (List.map (fun (v, k) -> Printf.sprintf "%s %.3f s" k v)
             (List.sort (fun a b -> compare b a) self))))
