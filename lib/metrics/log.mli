(** Shared one-line stderr diagnostics for the CLI tools.

    Every operational stderr line the tools emit — job-clamp warnings,
    schedule-store statistics, the serve daemon's lifecycle notes —
    goes through {!line}, so [bin/repro] and the daemon all print the
    same ["[repro] "]-prefixed single-line format and CI
    log scraping matches one pattern instead of three dialects.
    (Structured {e error} lines keep their own
    ["repro: error class=..."] contract; this module is for
    informational lines only.) *)

val line : ('a, unit, string, unit) format4 -> 'a
(** [line fmt ...] prints ["[repro] <formatted>\n"] to stderr and
    flushes.  The payload must not contain newlines. *)

val clamp_warning : requested:int -> effective:int -> unit
(** The shared jobs-clamp warning; prints nothing when
    [requested = effective]. *)

val cache_stats :
  hits:int ->
  misses:int ->
  bytes_read:int ->
  bytes_written:int ->
  tables_saved:int ->
  tables_skipped:int ->
  unit
(** The shared schedule-store statistics line:
    ["[repro] cache: hits=H misses=M read=RB written=WB saved=S skipped=K"]
    — the [make check-cache] gate greps ["misses=0 "] out of it, and the
    save-skip gate greps [" saved=0 "] out of a warm run's line (a clean
    table is never rewritten). *)
