#!/bin/sh
# The committed-output gate: what the repository commits as command
# output must be what the commands print today.  `tables` diffs a fresh
# `repro ablate` and `repro extensions` against ablate_output.txt and
# extensions_output.txt (which EXPERIMENTS.md cites); `csv` diffs a full
# `repro figures --csv` against the plot-ready CSVs under data/.  With
# no argument both run.  Every output goes into one fresh directory per
# run, removed on exit.
set -eu

DIR=$(mktemp -d "${TMPDIR:-/tmp}/check_outputs.XXXXXX")
trap 'rm -rf "$DIR"' EXIT
REPRO="dune exec bin/repro.exe --"

tables() {
  $REPRO ablate > "$DIR/ablate.txt"
  $REPRO extensions > "$DIR/extensions.txt"
  diff ablate_output.txt "$DIR/ablate.txt"
  diff extensions_output.txt "$DIR/extensions.txt"
}

csv() {
  $REPRO figures --csv "$DIR/figure_csv" > /dev/null
  diff -r data "$DIR/figure_csv"
}

case "${1:-all}" in
  tables) tables ;;
  csv) csv ;;
  all)
    tables
    csv
    ;;
  *)
    echo "usage: sh scripts/check_outputs.sh [tables|csv]" >&2
    exit 2
    ;;
esac
