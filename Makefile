# Convenience entry points; everything is plain dune underneath.

.PHONY: all check check-fast test check-faults fuzz-smoke validate-quick \
  check-cache check-figures check-serve check-exact check-outputs clean

all:
	dune build

# Tier-1 gate: full build plus the complete test suite.
check:
	dune build
	dune runtest

test: check

# Sub-second inner-loop gate: only the fast suites, selected by stable
# name (docs/TESTING.md).
check-fast:
	dune build @check-fast

# Fault-injection gate: corrupt checker-clean schedules with every
# catalog entry and require both the legality checker and the
# independent oracle (Check.Validate) to name each one
# (docs/ROBUSTNESS.md, docs/TESTING.md).  Exits non-zero on any miss.
check-faults:
	dune exec bin/repro.exe -- faults --quick

# Fuzz gate: 200 random DDGs through generate -> schedule -> validate
# -> lockstep-simulate at a fixed seed; deterministic, exits 20 on any
# failure (docs/TESTING.md).
fuzz-smoke:
	dune exec bin/repro.exe -- fuzz --iters 200 --seed 42

# Oracle gate: run the quick suite and re-validate every emitted
# schedule with the independent oracle.
validate-quick:
	dune exec bin/repro.exe -- validate --quick

# Cache-equality gate: the schedule store must be invisible in stdout.
# Fills fresh store directories three ways (plain, a poisoned fill then
# a resume, a budgeted fill) and requires every rerun's stdout to equal
# an uncached run's (scripts/check_cache.sh; one mktemp -d per run).
check-cache:
	sh scripts/check_cache.sh

# Figure-order gate: the quick report rendered whole must equal the
# concatenation of every artifact rendered alone with `--only <id>`
# (scripts/check_figures.sh; one mktemp -d per run).
check-figures:
	sh scripts/check_figures.sh

# Serve gate: a real `repro serve` daemon driven through the whole
# degradation ladder — cold/warm/restart replies byte-identical to
# direct runs, overload shedding at the queue bound, budget timeouts,
# bad-request, poison quarantine, torn-table-file recovery and a clean
# SIGTERM drain (scripts/check_serve.sh; see docs/SERVING.md).
check-serve:
	sh scripts/check_serve.sh

# Exact-oracle gate: a fast heuristic-vs-exact gap run over fuzz-drawn
# small loops (the generated suite bottoms out at 16 nodes, so the
# fuzz generator supplies the tiny bodies), each exact witness
# re-verified by Check.Validate and the lockstep simulator; exits 20
# on any checker violation, including a negative gap
# (docs/TESTING.md).
check-exact:
	dune exec bin/repro.exe -- gap --fuzz 12 --budget 5

# Committed-output gate: a fresh `repro ablate` and `repro extensions`
# must equal ablate_output.txt and extensions_output.txt, and a full
# `repro figures --csv` must equal data/ (scripts/check_outputs.sh; one
# mktemp -d per run; `tables` or `csv` runs one half).
check-outputs:
	sh scripts/check_outputs.sh

clean:
	dune clean
