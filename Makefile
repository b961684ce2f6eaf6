# Convenience entry points; everything is plain dune underneath.

.PHONY: all check check-fast test check-faults fuzz-smoke validate-quick \
  check-cache check-figures check-serve check-exact bench bench-smoke bench-scaling \
  bench-warm bench-serve bench-gap bench-diff clean

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

# Cache-equality gate: the schedule store must be invisible in stdout
# (its hit/miss line goes to stderr).  Each step fills a fresh store
# directory and reruns the quick suite over it; every stdout must be
# byte-identical to an uncached clean run.
#  - cold/warm: the warm rerun must not miss once;
#  - resume: the fill poisons tomcatv.1, whose quarantined runs are never
#    stored, so the rerun computes exactly those two (misses=2);
#  - budget: results computed under --budget are stored like any other,
#    so the unbudgeted warm rerun must not miss once.
check-cache:
	dune exec bin/repro.exe -- suite --quick > /tmp/suite_clean.txt
	rm -rf /tmp/sched_cache_gate
	dune exec bin/repro.exe -- suite --quick --cache /tmp/sched_cache_gate \
	  > /tmp/suite_cold.txt 2> /tmp/suite_cold_err.txt
	dune exec bin/repro.exe -- suite --quick --cache /tmp/sched_cache_gate \
	  > /tmp/suite_warm.txt 2> /tmp/suite_warm_err.txt
	cmp /tmp/suite_clean.txt /tmp/suite_cold.txt
	cmp /tmp/suite_clean.txt /tmp/suite_warm.txt
	grep -q "misses=0 " /tmp/suite_warm_err.txt
	rm -rf /tmp/sched_cache_gate
	dune exec bin/repro.exe -- suite --quick --cache /tmp/sched_cache_gate \
	  --poison tomcatv.1 > /tmp/suite_poisoned.txt 2> /tmp/suite_poisoned_err.txt
	dune exec bin/repro.exe -- suite --quick --cache /tmp/sched_cache_gate \
	  > /tmp/suite_resumed.txt 2> /tmp/suite_resumed_err.txt
	cmp /tmp/suite_clean.txt /tmp/suite_resumed.txt
	grep -q "misses=2 " /tmp/suite_resumed_err.txt
	rm -rf /tmp/sched_cache_gate
	dune exec bin/repro.exe -- suite --quick --cache /tmp/sched_cache_gate \
	  --budget 60 > /tmp/suite_budget.txt 2> /tmp/suite_budget_err.txt
	dune exec bin/repro.exe -- suite --quick --cache /tmp/sched_cache_gate \
	  > /tmp/suite_budget_warm.txt 2> /tmp/suite_budget_warm_err.txt
	cmp /tmp/suite_clean.txt /tmp/suite_budget.txt
	cmp /tmp/suite_clean.txt /tmp/suite_budget_warm.txt
	grep -q "misses=0 " /tmp/suite_budget_warm_err.txt
	rm -rf /tmp/sched_cache_gate

# Figure-order gate: the order in which the artifacts first request
# their sweeps must never change a byte.  The quick report rendered
# whole must equal the concatenation of every artifact rendered alone
# (`--only <id>`, ids taken from the whole report's `=== id ===` lines),
# each alone on a fresh suite that records and caches only what that
# artifact reads.
check-figures:
	dune exec bin/repro.exe -- figures --quick > /tmp/figures_all.txt
	rm -f /tmp/figures_each.txt
	for id in $$(sed -n 's/^=== \(.*\) ===$$/\1/p' /tmp/figures_all.txt); do \
	  dune exec bin/repro.exe -- figures --quick --only $$id \
	    >> /tmp/figures_each.txt || exit 1; \
	done
	cmp /tmp/figures_all.txt /tmp/figures_each.txt

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

# Full benchmark run (all 678 loops; takes a while).  Requests 8 jobs;
# the harness clamps to the machine's recommended domain count and
# records both numbers in the payload.
bench:
	dune exec bench/main.exe -- --jobs 8 --bench-json BENCH_sched.json

# Domain-pool scaling: the full figure suite once per job count in
# {1, 2, 4, 8} (each clamped to the machine), a fresh suite per point so
# nothing is answered from a previous point's cache.  Refreshes only the
# "scaling" payload of BENCH_sched.json.
bench-scaling:
	dune exec bench/main.exe -- --scaling --bench-json BENCH_sched.json

# Warm-cache benchmark: the full figure suite cold (filling the
# content-addressed schedule store) then warm (served from it), into
# the "warm" payload of BENCH_sched.json; ok requires zero warm misses.
bench-warm:
	dune exec bench/main.exe -- --warm --bench-json BENCH_sched.json

# Serving benchmark: the figure suite's requests driven through the
# in-process serve engine at worker counts {0, 1, 2, 4} (each point a
# fresh engine and store, workers-0 the inline reference every other
# point must match byte-for-byte), plus a 100-identical-request
# coalescing burst; refreshes only the "serve" payload of
# BENCH_sched.json.  ok requires byte equality at every point and the
# burst collapsing onto exactly one computation.
bench-serve:
	dune exec bench/main.exe -- --serve --bench-json BENCH_sched.json

# Heuristic-vs-exact gap benchmark: the exact SAT oracle over a fixed
# subset of the suite's smallest loops, into the "gap" payload of
# BENCH_sched.json.  Every value except wall time is deterministic, so
# the diff gate holds the recorded IIs and proven bits to exact
# equality.
bench-gap:
	dune exec bench/main.exe -- --gap --bench-json BENCH_sched.json

# Quick smoke run on the deterministic small subset; writes the same
# per-section timing JSON.  Exits non-zero if any section fails.
bench-smoke:
	dune exec bench/main.exe -- --quick --jobs 2 --bench-json BENCH_sched.json

# Regression gate: re-run the quick benchmark and compare against the
# committed BENCH_sched.json with bench/diff.exe — every payload
# ("quick"/"full"/"scaling"/"warm"/"serve"/"gap") present in both files is
# checked (total wall time within 25%, no section newly failing,
# hard-loop reuse speedup kept, scaling's highest-job point within
# tolerance, warm speedup and hit rate kept, serve throughput and
# coalesce rate kept).  A quick re-run only refreshes the "quick"
# payload, so the committed "full", "scaling", "warm" and "serve"
# numbers ride along untouched and uncompared.
bench-diff:
	rm -f /tmp/bench_new.json
	dune exec bench/main.exe -- --quick --jobs 2 --bench-json /tmp/bench_new.json
	dune exec bench/diff.exe -- BENCH_sched.json /tmp/bench_new.json

clean:
	dune clean
