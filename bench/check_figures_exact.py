#!/usr/bin/env python3
"""Hold every figure and ablation bench's CSV to a committed fixture.

    python3 bench/check_figures_exact.py BENCH_DIR [--update]

Runs each `BENCH_DIR/bench_<name> quick=1` in a fresh temporary directory
and compares the `bench_<name>.csv` it writes, byte for byte, with
bench/figures_exact/<name>.csv. Every cell those binaries write comes from
the simulated clock, counts and seeded paths, so any difference is a moved
number. With --update the fixtures are rewritten from the runs instead; do
that only for a change that moves a figure on purpose.

Exit status: 0 when every CSV matches (or the fixtures were written), 1 on
any difference or missing fixture, 2 when a benchmark could not be run.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "figures_exact")
NAMES = (
    "table1_datasets", "fig7_sampling", "fig9_blocksize", "fig11_radius",
    "fig12_paths", "fig13_latency", "ablation_sigma", "ablation_policies",
    "ablation_vicinal", "ablation_query", "ablation_temporal",
    "ablation_parallel", "ablation_lod", "ablation_streamline",
    "ablation_importance",
)
ARGS = ["quick=1"]
RUN_TIMEOUT_S = 120
DIFF_LINES = 20


def run_bench(bench_dir: str, name: str) -> bytes | None:
    """The CSV one quick run of bench_<name> writes, or None when the run
    failed (its output is echoed to stderr)."""
    exe = os.path.join(bench_dir, "bench_" + name)
    with tempfile.TemporaryDirectory(prefix="figures_exact_") as tmp:
        try:
            proc = subprocess.run([exe, *ARGS], cwd=tmp, capture_output=True,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"check_figures_exact: {name}: {e}", file=sys.stderr)
            return None
        csv = os.path.join(tmp, "bench_" + name + ".csv")
        if proc.returncode != 0 or not os.path.exists(csv):
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"check_figures_exact: bench_{name} exited "
                  f"{proc.returncode}", file=sys.stderr)
            return None
        with open(csv, "rb") as f:
            return f.read()


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench_dir")
    ap.add_argument("--update", action="store_true")
    args = ap.parse_args(argv)

    fresh = {}
    for name in NAMES:
        csv = run_bench(args.bench_dir, name)
        if csv is None:
            return 2
        fresh[name] = csv

    if args.update:
        os.makedirs(FIXTURES, exist_ok=True)
        for name, csv in fresh.items():
            with open(os.path.join(FIXTURES, name + ".csv"), "wb") as f:
                f.write(csv)
        print(f"wrote {len(fresh)} fixtures to {FIXTURES}")
        return 0

    bad = 0
    for name, csv in fresh.items():
        path = os.path.join(FIXTURES, name + ".csv")
        if not os.path.exists(path):
            print(f"{name:22} MISSING   no fixture {path}")
            bad += 1
            continue
        with open(path, "rb") as f:
            want = f.read()
        if csv == want:
            print(f"{name:22} exact-ok  {len(csv.splitlines())} lines")
            continue
        bad += 1
        print(f"{name:22} MISMATCH")
        diff = difflib.unified_diff(
            want.decode(errors="replace").splitlines(),
            csv.decode(errors="replace").splitlines(),
            "fixture", "run", lineterm="")
        for line in list(diff)[:DIFF_LINES]:
            print("    " + line)
    print(f"{len(fresh)} figure CSVs, {bad} differ from {FIXTURES}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
