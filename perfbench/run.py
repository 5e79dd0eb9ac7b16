#!/usr/bin/env python3
"""TPC-B benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds perfbench/bench.exe with
dune, then runs each workload run in a fresh OCaml process:

  --trace 0  one full run (set-up, measured transactions, checkpoint,
             crash and recovery, cold key-order scan, checks) and two
             set-up-only runs, six when set-up is cheap; prints the
             end-to-end metrics, with setup_s the median of the set-ups.
  --trace 1  one untraced and one traced full run; prints the per-layer
             metrics of the traced run, and the tracing overhead as the
             difference of the two runs' host_s. Spans and the event ring
             are written under .perfbench/.

Metric names and units come from BENCHMARK.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Any consistency or durability violation makes the command fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUPS = 3  # set-ups per untraced invocation; setup_s is their median
CHEAP_SETUPS = 7  # set-ups when the first took under CHEAP_SETUP_S
CHEAP_SETUP_S = 2.0
BUDGET_S = 170.0  # the runs after the build must end within this
OUT_DIR = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def child(args, deadline):
    """Run bench.exe once; return its result object (its last line)."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before " + " ".join(args))
    try:
        proc = subprocess.run(
            [EXE] + args,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=left,
        )
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        fail("no result from: " + " ".join(args))
    if proc.returncode != 0 and result.get("correct", True):
        sys.stderr.write(proc.stderr)
        fail("exit code %d from: %s" % (proc.returncode, " ".join(args)))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + a.workload)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    build()
    deadline = time.monotonic() + BUDGET_S
    run = ["--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds)]
    full = child(run, deadline)
    values = dict(full["end_to_end"])
    if a.trace:
        traced = child(run + ["--trace", "1", "--out", OUT_DIR], deadline)
        values = dict(traced["per_layer"])
        values["trace.overhead_s"] = (traced["end_to_end"]["host_s"]
                                      - full["end_to_end"]["host_s"])
        values["txn.samples"] = traced["samples"]
        values["host.run_s"] = full["end_to_end"]["host_s"]
        results = [full, traced]
    else:
        n = CHEAP_SETUPS if values["setup_s"] < CHEAP_SETUP_S else SETUPS
        setups = [values["setup_s"]] + [
            child(run + ["--setup-only"], deadline)["setup_s"]
            for _ in range(n - 1)]
        values["setup_s"] = statistics.median(setups)
        results = [full]

    correct = all(r["correct"] for r in results)
    for r in results:
        for v in r["violations"]:
            print("VIOLATION: " + v)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("metric %s was not produced" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print("%s  seed %d  %d commits of %d attempts, %d failed"
          % (a.workload, a.seed, full["commits"], full["attempted"],
             full["failed"]))
    for name, m in metrics.items():
        note = ""
        if name.startswith("txn_p"):
            note = "  (exact, over %d samples)" % full["samples"]
        print("  %-36s %16.6f %s%s" % (name, m["value"], m["unit"], note))
    print(json.dumps({
        "correct": correct,
        "attempted": full["attempted"],
        "failed": full["failed"]
        + sum(len(r["violations"]) for r in results[1:]),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
