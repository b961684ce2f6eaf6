#!/bin/sh
# The serve gate: drive a real `repro serve` daemon through the whole
# degradation ladder and pin the equality contract.
#
#   1. cold daemon replies == `repro client --local` reference bytes
#   2. warm daemon replies == cold replies (in-memory tier)
#   3. over-budget request degrades to a timeout-class reply
#   4. corrupt request JSON answers bad-request (and only hurts itself)
#   5. a poisoned (crashing) request answers fault once, poisoned after
#   6. queue bound sheds excess load with overloaded replies
#   7. SIGTERM drains cleanly: store saved, socket removed, exit 0
#   8. restarted daemon serves the persisted entries warm (stats
#      misses=0) with byte-identical replies
#   9. a torn on-disk table file is quarantined at startup and the
#      daemon still boots and answers (cold)
#  10. a --workers 4 daemon answers the whole degradation ladder
#      (schedule / timeout / fault / poisoned) byte-identically to the
#      workers-0 replies above
#  11. a batched burst of identical requests coalesces onto exactly one
#      computation (stats computes=1, coalesced=99) with replies
#      byte-identical to the inline reference, at the default width and
#      at --workers 4, and a SIGTERM landing mid-burst still drains
#      cleanly
#
# Fault classes covered: torn disk write (9), worker crash (5, 10),
# over-budget request (3, 10), corrupt request JSON (4), signal during
# in-flight worker computation (11).
set -eu

DIR=$(mktemp -d /tmp/check_serve.XXXXXX)
SOCK="$DIR/serve.sock"
CACHE="$DIR/cache"
REPRO="dune exec --no-build bin/repro.exe --"
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
  echo "check-serve: FAIL: $1" >&2
  [ -f "$DIR/daemon.log" ] && sed 's/^/  daemon: /' "$DIR/daemon.log" >&2
  exit 1
}

start_daemon() {
  # shellcheck disable=SC2086
  $REPRO serve --socket "$SOCK" --cache "$CACHE" $1 2>>"$DIR/daemon.log" &
  DAEMON_PID=$!
  for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on startup"
    sleep 0.2
  done
  fail "daemon never created $SOCK"
}

# SIGTERM the daemon and require the stable clean-drain exit code (0).
stop_daemon() {
  kill -TERM "$DAEMON_PID"
  st=0
  wait "$DAEMON_PID" || st=$?
  DAEMON_PID=""
  [ "$st" -eq 0 ] || fail "daemon exited $st after SIGTERM, wanted 0"
}

dune build bin/repro.exe

# --- 1. cold == direct reference ------------------------------------
start_daemon "--poison tomcatv.3"
$REPRO client --local -b tomcatv --loops 0,1 --mode repl > "$DIR/direct.txt"
$REPRO client --socket "$SOCK" -b tomcatv --loops 0,1 --mode repl > "$DIR/cold.txt"
diff "$DIR/direct.txt" "$DIR/cold.txt" || fail "cold daemon replies differ from direct runs"

# --- 2. warm == cold -------------------------------------------------
$REPRO client --socket "$SOCK" -b tomcatv --loops 0,1 --mode repl > "$DIR/warm.txt"
diff "$DIR/cold.txt" "$DIR/warm.txt" || fail "warm replies differ from cold"

# --- 3. over-budget request degrades to timeout ----------------------
$REPRO client --socket "$SOCK" -b tomcatv --loops 2 --budget-attempts 0 > "$DIR/budget.txt"
grep -q '"status":"degraded","class":"timeout"' "$DIR/budget.txt" \
  || fail "over-budget request did not degrade to a timeout reply"

# --- 4. corrupt request JSON -----------------------------------------
$REPRO client --socket "$SOCK" --raw '{"op":"schedule","id":"torn' > "$DIR/bad.txt"
grep -q '"status":"bad-request"' "$DIR/bad.txt" || fail "corrupt JSON not answered bad-request"

# --- 5. poisoned request: fault once, quarantined after --------------
$REPRO client --socket "$SOCK" -b tomcatv --loops 3 > "$DIR/fault1.txt"
grep -q '"status":"fault"' "$DIR/fault1.txt" || fail "injected crash not answered as fault"
$REPRO client --socket "$SOCK" -b tomcatv --loops 3 > "$DIR/fault2.txt"
grep -q '"status":"poisoned"' "$DIR/fault2.txt" || fail "repeated crash not quarantined"
# ...and an unrelated request still works (the crash convicted only itself)
$REPRO client --socket "$SOCK" -b tomcatv --loops 0 --mode repl > "$DIR/after_fault.txt"
head -1 "$DIR/cold.txt" > "$DIR/cold_first.txt"
diff "$DIR/cold_first.txt" "$DIR/after_fault.txt" || fail "healthy request disturbed by quarantine"

# --- 7. SIGTERM mid-load drains cleanly ------------------------------
# A client is mid-conversation when the signal lands: admitted requests
# still finish (their replies flush), anything later is shed, the store
# is saved and the exit code is 0.
$REPRO client --socket "$SOCK" -b swim --loops 0,1,2 --mode repl > "$DIR/drain_client.txt" &
CLIENT_PID=$!
sleep 0.3
stop_daemon
wait "$CLIENT_PID" || fail "client failed across the drain"
grep -q "drained: store saved" "$DIR/daemon.log" || fail "no clean-drain log line"
[ -S "$SOCK" ] && fail "socket file survived the drain"
ls "$CACHE"/*.json >/dev/null 2>&1 || fail "store not persisted on drain"

# --- 6. queue bound sheds load (tiny bound, pipelined burst) ---------
: > "$DIR/daemon.log"
start_daemon "--queue-bound 1"
$REPRO client --socket "$SOCK" -b tomcatv --loops 4 --repeat 6 > "$DIR/burst.txt"
grep -q '"status":"overloaded"' "$DIR/burst.txt" || fail "burst beyond queue bound not shed"
# the bound admitted at least one request, so not everything was shed
grep -qv '"status":"overloaded"' "$DIR/burst.txt" || fail "queue bound shed every request"

# --- 8. restart serves persisted entries warm ------------------------
stop_daemon
: > "$DIR/daemon.log"
start_daemon ""
$REPRO client --socket "$SOCK" -b tomcatv --loops 0,1 --mode repl > "$DIR/restart.txt"
diff "$DIR/cold.txt" "$DIR/restart.txt" || fail "restarted daemon replies differ from cold"
$REPRO client --socket "$SOCK" --loops "" --stats > "$DIR/stats.txt"
grep -q '"misses":0' "$DIR/stats.txt" || fail "restarted daemon recomputed instead of serving warm"
stop_daemon

# --- 9. torn table file quarantined, daemon boots cold ---------------
TABLE=$(ls "$CACHE"/repl-*.json | head -1)
head -c 40 "$TABLE" > "$TABLE.torn" && mv "$TABLE.torn" "$TABLE"
: > "$DIR/daemon.log"
start_daemon ""
$REPRO client --socket "$SOCK" -b tomcatv --loops 0 --mode repl > "$DIR/torn.txt"
head -1 "$DIR/cold.txt" > "$DIR/cold_first.txt"
diff "$DIR/cold_first.txt" "$DIR/torn.txt" || fail "cold recompute after torn file differs"
grep -q "quarantined corrupt table file" "$DIR/daemon.log" || fail "torn file not quarantined"
ls "$CACHE"/*.corrupt >/dev/null 2>&1 || fail "no .corrupt quarantine file"
stop_daemon

# --- 10. worker pool: --workers 4 byte-identical to workers 0 --------
# A fresh cache so every schedule request is a genuine miss computed on
# a worker domain, then the whole ladder re-held to the workers-0 bytes
# captured above: full replies, the timeout degrade, the fault and the
# quarantine.
CACHE="$DIR/cache_workers"
: > "$DIR/daemon.log"
start_daemon "--poison tomcatv.3 --workers 4 --queue-bound 256"
grep -q "worker pool: 4 domain(s)" "$DIR/daemon.log" || fail "daemon did not start its worker pool"
$REPRO client --socket "$SOCK" -b tomcatv --loops 0,1 --mode repl > "$DIR/workers.txt"
diff "$DIR/cold.txt" "$DIR/workers.txt" || fail "--workers 4 replies differ from workers-0"
$REPRO client --socket "$SOCK" -b tomcatv --loops 2 --budget-attempts 0 > "$DIR/workers_budget.txt"
diff "$DIR/budget.txt" "$DIR/workers_budget.txt" || fail "--workers 4 timeout reply differs"
$REPRO client --socket "$SOCK" -b tomcatv --loops 3 > "$DIR/workers_fault.txt"
diff "$DIR/fault1.txt" "$DIR/workers_fault.txt" || fail "--workers 4 fault reply differs"
$REPRO client --socket "$SOCK" -b tomcatv --loops 3 > "$DIR/workers_poisoned.txt"
diff "$DIR/fault2.txt" "$DIR/workers_poisoned.txt" || fail "--workers 4 poisoned reply differs"
$REPRO client --socket "$SOCK" --loops "" --stats > "$DIR/workers_stats.txt"
grep -q '"workers":4' "$DIR/workers_stats.txt" || fail "stats does not report the worker count"
stop_daemon

# --- 11. batched burst coalesces, SIGTERM mid-burst drains -----------
# 100 identical cold requests in one atomically-admitted batch line, on
# a fresh cache: exactly one computation runs, the other 99 coalesce
# onto it, and the one array reply is byte-identical to 100 inline
# reference replies.  Run at the default width (misses compute on the
# daemon's own domain) and at --workers 4; the second daemon stays up.
$REPRO client --local -b tomcatv --loops 2 --mode repl --repeat 100 > "$DIR/burst_direct.txt"
printf '[%s]\n' "$(paste -sd, "$DIR/burst_direct.txt")" > "$DIR/burst_expect.txt"
burst_check() {
  CACHE="$DIR/cache_batch_$1"
  : > "$DIR/daemon.log"
  start_daemon "$2 --queue-bound 256"
  $REPRO client --socket "$SOCK" -b tomcatv --loops 2 --mode repl --batch --repeat 100 > "$DIR/burst_batch.txt"
  [ "$(wc -l < "$DIR/burst_batch.txt")" -eq 1 ] || fail "$1: batch did not answer one array line"
  diff "$DIR/burst_expect.txt" "$DIR/burst_batch.txt" || fail "$1: batched burst replies differ from the inline reference"
  $REPRO client --socket "$SOCK" --loops "" --stats > "$DIR/burst_stats.txt"
  grep -q '"computes":1' "$DIR/burst_stats.txt" || fail "$1: burst of 100 ran more than one computation"
  grep -q '"coalesced":99' "$DIR/burst_stats.txt" || fail "$1: burst of 100 did not coalesce 99 requests"
}
burst_check default ""
stop_daemon
burst_check workers4 "--workers 4"
# SIGTERM lands while a fresh batch is still computing on the workers:
# the admitted batch finishes, its reply flushes, the daemon exits 0.
$REPRO client --socket "$SOCK" -b swim --loops 3,4 --mode repl --batch --repeat 10 > "$DIR/drain_batch.txt" &
CLIENT_PID=$!
sleep 0.3
stop_daemon
wait "$CLIENT_PID" || fail "batch client failed across the drain"
[ "$(wc -l < "$DIR/drain_batch.txt")" -eq 1 ] || fail "mid-drain batch lost its reply"
grep -q "drained: store saved" "$DIR/daemon.log" || fail "no clean-drain log line after mid-burst SIGTERM"

echo "check-serve: all serve-gate checks passed"
