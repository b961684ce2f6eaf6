(* One shared stderr line format for operational diagnostics, so the
   CLI and the daemon do not drift apart and CI can scrape a single
   stable prefix. *)

let line fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "[repro] %s\n%!" s) fmt

let clamp_warning ~requested ~effective =
  if requested <> effective then
    line "jobs: %d clamped to %d (the recommended domain count of this machine)"
      requested effective

let cache_stats ~hits ~misses ~bytes_read ~bytes_written ~tables_saved
    ~tables_skipped =
  line "cache: hits=%d misses=%d read=%dB written=%dB saved=%d skipped=%d"
    hits misses bytes_read bytes_written tables_saved tables_skipped
