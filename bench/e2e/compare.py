#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs metric by metric.

    python3 bench/e2e/compare.py --base a1.txt a2.txt ... --head b1.txt ...

Each file is the captured standard output of `bench_e2e` or `run.py`; every
`RESULT {...}` line in it is one run of one workload. For each workload and
metric present on both sides:

  exact      metrics bench_e2e marks exact (simulated, single-threaded)
             must read identically on both sides for every seed and size
             they share; any difference is MISMATCH.
  bounded    end_to_end metrics of BENCHMARK.json, and each workload's
             tail metrics in WORKLOAD_GATES: the head median may be
             worse than the base median by at most the metric's bound. When
             either side's interquartile range exceeds the bound the pair
             is UNRESOLVED, unless every head run beats every base run.
  info       every other metric (`wall.*` included): medians and change,
             not gated.

An exact or bounded metric that one side prints and the other does not is
MISSING; a run that reported correct=false is INCORRECT. Exit status: 0
when no pair is REGRESSED, UNRESOLVED, MISMATCH, MISSING or INCORRECT; 1
otherwise; 2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
FAILING = {"REGRESSED", "UNRESOLVED", "MISMATCH", "MISSING", "INCORRECT"}


def _gate(name: str) -> dict:
    return {"name": name, "unit": "ms", "better": "lower", "bound": 0.10}


# Tail latency, gated per workload at the percentile it is reported at: p90
# of paths (replay) and frames (render), p99 of steps and fetches (sessions,
# wire). Every workload prints every end_to_end metric of BENCHMARK.json, so
# per-workload bounds live here (README.md, "Bounds"). The in-process
# fetch_p50_ms of sessions, a few microseconds, is not gated: its median
# moves by more than 10% between runs of one seed.
WORKLOAD_GATES = {
    "replay_local": [_gate("step_p90_ms")],
    "replay_jumpy": [_gate("step_p90_ms")],
    "sessions": [_gate("step_p99_ms"), _gate("fetch_p99_ms")],
    "wire": [_gate("step_p99_ms"), _gate("fetch_p50_ms"),
             _gate("fetch_p99_ms")],
    "render": [_gate("step_p90_ms")],
}


def load_runs(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.startswith("RESULT "):
                    runs.append(json.loads(line[len("RESULT "):]))
    return runs


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 below two runs).

    Quartiles are the inclusive ones: with five runs they are the 2nd and
    4th values, so one run caught in a slow phase of the host does not set
    the range on its own."""
    if len(values) < 2 or min(values) == max(values):
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else float("inf")


@dataclass
class Row:
    workload: str
    metric: str
    status: str
    base: float | None = None
    head: float | None = None
    change: float | None = None  # signed share of the base median
    base_spread: float | None = None
    head_spread: float | None = None
    bound: float | None = None


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def _exact_row(base: list[dict], head: list[dict], workload: str,
               metric: str) -> Row:
    def by_input(runs):
        out: dict[tuple, set] = {}
        for r in runs:
            if r["workload"] == workload and metric in r["metrics"]:
                key = (r["seed"], r["seconds"], r.get("size"))
                out.setdefault(key, set()).add(r["metrics"][metric]["value"])
        return out
    b, h = by_input(base), by_input(head)
    shared = sorted(set(b) & set(h))
    row = Row(workload, metric, "exact-ok")
    if not shared:
        row.status = "info"  # no seed in common: nothing to hold exact
    elif any(len(b[k] | h[k]) != 1 for k in shared):
        row.status = "MISMATCH"
    row.base = statistics.median(_values(base, workload, metric))
    row.head = statistics.median(_values(head, workload, metric))
    return row


def compare(base: list[dict], head: list[dict], spec: dict) -> list[Row]:
    rows = []
    for side in (base, head):
        for r in side:
            if not r["correct"]:
                rows.append(Row(r["workload"], "correct", "INCORRECT"))
    workloads = sorted({r["workload"] for r in base} |
                       {r["workload"] for r in head})
    for w in workloads:
        bounded = {m["name"]: m for m in
                   WORKLOAD_GATES.get(w, []) + spec["end_to_end"]}
        names: dict[str, bool] = {}
        for r in base + head:
            if r["workload"] == w:
                for name, m in r["metrics"].items():
                    names[name] = names.get(name, False) or bool(m.get("exact"))
        for name, exact in names.items():
            bv, hv = _values(base, w, name), _values(head, w, name)
            if not bv or not hv:
                if name in bounded or exact:
                    rows.append(Row(w, name, "MISSING"))
                continue
            if exact:
                rows.append(_exact_row(base, head, w, name))
                continue
            row = Row(w, name, "info", statistics.median(bv),
                      statistics.median(hv), None, spread(bv), spread(hv))
            if row.base:
                row.change = (row.head - row.base) / abs(row.base)
            if name in bounded:
                m = bounded[name]
                row.bound = m["bound"]
                lower = m["better"] == "lower"
                worse = (row.change or 0.0) * (1 if lower else -1)
                head_wins = (max(hv) < min(bv)) if lower else \
                    (min(hv) > max(bv))
                if max(row.base_spread, row.head_spread) > row.bound:
                    row.status = "improved" if head_wins else "UNRESOLVED"
                elif worse > row.bound:
                    row.status = "REGRESSED"
                elif worse < -row.bound:
                    row.status = "improved"
                else:
                    row.status = "ok"
            rows.append(row)
    return rows


def _fmt(v: float | None, pct: bool = False) -> str:
    if v is None:
        return "-"
    return f"{v * 100:+.1f}%" if pct else f"{v:.6g}"


def print_rows(rows: list[Row]) -> None:
    print(f"{'workload':14} {'metric':32} {'status':10} {'base':>12} "
          f"{'head':>12} {'change':>8} {'spread b/h':>15} {'bound':>6}")
    for r in rows:
        spreads = "-" if r.base_spread is None else \
            f"{r.base_spread:.3f}/{r.head_spread:.3f}"
        bound = "-" if r.bound is None else f"{r.bound:.2f}"
        print(f"{r.workload:14} {r.metric:32} {r.status:10} {_fmt(r.base):>12} "
              f"{_fmt(r.head):>12} {_fmt(r.change, True):>8} {spreads:>15} "
              f"{bound:>6}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args(argv)
    try:
        with open(args.benchmark) as f:
            spec = json.load(f)
        base, head = load_runs(args.base), load_runs(args.head)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    if not base or not head:
        print("compare.py: no RESULT lines on one side", file=sys.stderr)
        return 2
    rows = compare(base, head, spec)
    print_rows(rows)
    failing = [r for r in rows if r.status in FAILING]
    print(f"{len(rows)} pairs, {len(failing)} failing")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
