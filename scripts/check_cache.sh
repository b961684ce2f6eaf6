#!/bin/sh
# The cache-equality gate: the schedule store must be invisible in
# stdout (its hit/miss line goes to stderr).  Each step fills a fresh
# store directory and reruns the quick suite over it; every stdout must
# be byte-identical to an uncached clean run.
#
#   1. cold/warm: the warm rerun must not miss once;
#   2. resume: the fill poisons tomcatv.1, whose quarantined runs are
#      never stored, so the rerun computes exactly those two (misses=2);
#   3. budget: results computed under --budget are stored like any
#      other, so the unbudgeted warm rerun must not miss once.
#
# Every file goes into one fresh directory per run, removed on exit.
set -eu

DIR=$(mktemp -d "${TMPDIR:-/tmp}/check_cache.XXXXXX")
trap 'rm -rf "$DIR"' EXIT
REPRO="dune exec bin/repro.exe --"

fail() {
  echo "check-cache: FAIL: $1" >&2
  exit 1
}

# run NAME [FLAGS...]: the quick suite over the store $DIR/cache, stdout
# to $DIR/NAME.txt, stderr (the cache line) to $DIR/NAME.err
run() {
  name=$1
  shift
  $REPRO suite --quick --cache "$DIR/cache" "$@" \
    > "$DIR/$name.txt" 2> "$DIR/$name.err"
}

# same NAME: NAME's stdout equals the uncached run's
same() {
  cmp "$DIR/clean.txt" "$DIR/$1.txt" || fail "$1 differs from the uncached run"
}

# misses NAME N: NAME's cache line counts N misses
misses() {
  grep -q "misses=$2 " "$DIR/$1.err" || fail "$1 did not miss exactly $2 times"
}

$REPRO suite --quick > "$DIR/clean.txt"

run cold
run warm
same cold
same warm
misses warm 0

rm -rf "$DIR/cache"
run poisoned --poison tomcatv.1
run resumed
same resumed
misses resumed 2

rm -rf "$DIR/cache"
run budget --budget 60
run budget_warm
same budget
same budget_warm
misses budget_warm 0
