#!/bin/sh
# The figure-order gate: the order in which the artifacts first request
# their sweeps must never change a byte.  The quick report rendered
# whole must equal the concatenation of every artifact rendered alone
# (`--only <id>`, ids taken from the whole report's `=== id ===` lines),
# each alone on a fresh suite that records and caches only what that
# artifact reads.  Both reports go into one fresh directory per run,
# removed on exit.
set -eu

DIR=$(mktemp -d "${TMPDIR:-/tmp}/check_figures.XXXXXX")
trap 'rm -rf "$DIR"' EXIT
REPRO="dune exec bin/repro.exe --"

$REPRO figures --quick > "$DIR/all.txt"
: > "$DIR/each.txt"
for id in $(sed -n 's/^=== \(.*\) ===$/\1/p' "$DIR/all.txt"); do
  $REPRO figures --quick --only "$id" >> "$DIR/each.txt"
done
cmp "$DIR/all.txt" "$DIR/each.txt"
