#!/usr/bin/env python3
"""Build and run one workload of the vizcache end-to-end benchmark.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is two directories above this file.
The first call configures and builds `bench_e2e` (Release) under
`.bench_build/` at the root; later calls rebuild only what changed. The
benchmark's own output is relayed, and the last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every `end_to_end` metric of BENCHMARK.json when --trace is 0, and
every `per_layer` metric when it is 1. A per-layer count or fraction of a
layer the workload never reaches is reported as 0; a missing timing is an
error. Exit status: 0 when the run was correct, 1 when a check failed, 2
when the benchmark could not be built or run (no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
TIME_UNITS = {"s", "ms", "us", "ns"}
RUN_TIMEOUT_S = 170


def die(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"vizcache sources not found under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("building bench_e2e failed: " + " ".join(cmd))


def select_metrics(spec: dict, result: dict, trace: int) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    out = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if trace and m["unit"] not in TIME_UNITS:
                got = {"value": 0, "unit": m["unit"]}
            else:
                die(f"{result['workload']} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            die(f"{m['name']} is in {got['unit']}, BENCHMARK.json says "
                f"{m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload}")
    build()

    cmd = [BINARY, f"workload={args.workload}", f"seed={args.seed}",
           f"seconds={args.seconds}", f"trace={args.trace}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} ran longer than {RUN_TIMEOUT_S} s")
    results = []
    for line in proc.stdout.splitlines():
        print(line)
        if line.startswith("RESULT "):
            results.append(json.loads(line[len("RESULT "):]))
    if not results:
        die(f"bench_e2e exited {proc.returncode} without a result")
    result = results[-1]
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select_metrics(spec, result, args.trace),
    }), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
