#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `repro` and the workload program (perfbench/bin/pb.exe) with dune,
runs the workload in a child process and prints a human summary followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Exits non-zero, printing no result, when
the checkout, the build or the workload fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

SCRATCH = ".perfbench"
REPRO = "_build/default/bin/repro.exe"
WORKLOAD_EXE = "_build/default/perfbench/bin/pb.exe"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "bin/repro.ml", "perfbench/bin/pb.ml"):
        if not os.path.exists(need):
            die(f"not the root of a checkout of the repository (no {need})")
    # --cache=disabled keeps the build's writes inside the checkout
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "./bin/repro.exe",
           "./perfbench/bin/pb.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not installed")
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if done.returncode != 0:
        die("build failed", 1)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_workload(args, run_dir):
    cmd = [WORKLOAD_EXE, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--dir", run_dir, "--repro", REPRO]
    if args.trace:
        cmd.append("--trace")
    # the program is measured as shipped: no GC settings from the caller
    env = {k: v for k, v in os.environ.items() if k != "OCAMLRUNPARAM"}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)

    def stop(signum, _frame):
        kill_group(proc.pid)
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        # pb.exe stops its daemons itself; this only catches strays
        kill_group(proc.pid)
    if proc.returncode != 0:
        die(f"{args.workload} exited with code {proc.returncode}", 1)
    lines = out.decode().strip().splitlines()
    if not lines:
        die(f"{args.workload} printed no result", 1)
    return json.loads(lines[-1])


def result(spec, raw, trace):
    """The result line.  Every workload reports every end-to-end metric;
    a per-layer metric of a layer the workload does not exercise is 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    for name in raw["metrics"]:
        if name not in names:
            die(f"{WORKLOAD_EXE} reported {name}, which BENCHMARK.json does not list", 1)
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None and trace:
            got = {"value": 0, "unit": m["unit"]}
        if got is None or got["value"] is None:
            die(f"{WORKLOAD_EXE} did not report {m['name']}", 1)
        if got["unit"] != m["unit"]:
            die(f"{m['name']} reported in {got['unit']}, expected {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted, failed = raw["attempted"], raw["failed"]
    return {
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def summary(args, res, raw):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in sorted(raw.get("notes", {}).items()):
        print(f"  {key}: {value}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'failed_frac':32s} {frac:14.6g} ratio  ({res['failed']} of {res['attempted']})")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        die("no BENCHMARK.json in the current directory")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    build()
    run_dir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        raw = run_workload(args, run_dir)
        for name in os.listdir(run_dir):
            if name.startswith("spans-"):
                os.replace(os.path.join(run_dir, name), os.path.join(SCRATCH, name))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    res = result(spec, raw, args.trace)
    summary(args, res, raw)
    print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
