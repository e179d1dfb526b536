#!/usr/bin/env python3
"""Hold the end-to-end benchmark's exact metrics to a committed fixture.

    python3 bench/check_e2e_exact.py BENCH_E2E [--update]

Runs `BENCH_E2E workload=all size=smoke seed=7` and compares every metric
it marks exact (simulated times, counts and fractions of single-threaded
work) with bench/e2e_exact.txt by compare.py's exact rule: each must read
identically, and none may be missing on either side. Wall-clock metrics
are not compared. With --update the fixture is rewritten from the run
instead; do that only for a change that moves an exact metric on purpose.

Exit status: 0 when every exact metric matches (or the fixture was
written), 1 on any difference, 2 when the benchmark could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "e2e"))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree

import compare  # noqa: E402

FIXTURE = os.path.join(HERE, "e2e_exact.txt")
ARGS = ["workload=all", "size=smoke", "seed=7"]
HEADER = ("# Exact metrics of `bench_e2e " + " ".join(ARGS) + "`: one RESULT\n"
          "# line per workload that has any. Checked, and rewritten with\n"
          "# --update, by bench/check_e2e_exact.py.\n")
RUN_TIMEOUT_S = 120


def exact_runs(text: str) -> list[dict]:
    """The RESULT lines of one bench_e2e output that carry exact metrics,
    cut to those metrics and to the fields compare.py keys them by."""
    runs = []
    for line in text.splitlines():
        if not line.startswith("RESULT "):
            continue
        r = json.loads(line[len("RESULT "):])
        exact = {k: m for k, m in r["metrics"].items() if m.get("exact")}
        if exact:
            runs.append({"workload": r["workload"], "seed": r["seed"],
                         "seconds": r["seconds"], "size": r.get("size"),
                         "correct": r["correct"], "metrics": exact})
    return runs


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench_e2e")
    ap.add_argument("--update", action="store_true")
    args = ap.parse_args(argv)
    try:
        proc = subprocess.run([args.bench_e2e, *ARGS], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"check_e2e_exact: {e}", file=sys.stderr)
        return 2
    fresh = exact_runs(proc.stdout)
    if proc.returncode != 0 or not fresh:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"check_e2e_exact: bench_e2e exited {proc.returncode}",
              file=sys.stderr)
        return 2

    if args.update:
        with open(FIXTURE, "w") as f:
            f.write(HEADER)
            for r in fresh:
                f.write("RESULT " + json.dumps(r) + "\n")
        print(f"wrote {sum(len(r['metrics']) for r in fresh)} exact metrics "
              f"to {FIXTURE}")
        return 0

    # With only exact metrics on both sides, every row compare.py makes is
    # an exact one; anything but exact-ok is a failure.
    rows = compare.compare(compare.load_runs([FIXTURE]), fresh,
                           {"end_to_end": []})
    for r in rows:
        print(f"{r.workload:14} {r.metric:32} {r.status:9} fixture={r.base!r} "
              f"run={r.head!r}")
    bad = [r for r in rows if r.status != "exact-ok"]
    print(f"{len(rows)} exact metrics, {len(bad)} differ from {FIXTURE}")
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
