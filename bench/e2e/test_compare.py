#!/usr/bin/env python3
"""Tests of compare.py over the fixture result sets in fixtures/, and of
the shape of the repository's BENCHMARK.json.

    python3 bench/e2e/test_compare.py

The fixture head differs from the base in one way per metric: setup_s and
steps_per_s worsen within their bounds, step_p50_ms regresses by ~30%,
step_p90_ms is too noisy to resolve, peak_rss_mb improves, the exact
core.sim_step_ms drifts, and the exact storage.dram_hit_rate holds.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")
SPEC = os.path.join(FIXTURES, "benchmark.json")


def fixture_set(side: str) -> list[str]:
    return sorted(glob.glob(os.path.join(FIXTURES, f"{side}_*.txt")))


def run_main(base: list[str], head: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = compare.main(["--base", *base, "--head", *head,
                             "--benchmark", SPEC])
    return code, out.getvalue()


class CompareTest(unittest.TestCase):
    def statuses(self, base: str, head: str) -> dict[str, str]:
        with open(SPEC) as f:
            spec = json.load(f)
        rows = compare.compare(compare.load_runs(fixture_set(base)),
                               compare.load_runs(fixture_set(head)), spec)
        return {r.metric: r.status for r in rows}

    def test_a_set_against_itself_passes(self):
        self.assertEqual(self.statuses("base", "base"), {
            "setup_s": "ok", "steps_per_s": "ok", "step_p50_ms": "ok",
            "step_p90_ms": "ok", "peak_rss_mb": "ok",
            "core.sim_step_ms": "exact-ok", "storage.dram_hit_rate": "exact-ok",
            "core.visible_blocks_us_p50": "info"})
        code, _ = run_main(fixture_set("base"), fixture_set("base"))
        self.assertEqual(code, 0)

    def test_each_rule_applies_to_its_metric(self):
        self.assertEqual(self.statuses("base", "head"), {
            "setup_s": "ok", "steps_per_s": "ok", "step_p50_ms": "REGRESSED",
            "step_p90_ms": "UNRESOLVED", "peak_rss_mb": "improved",
            "core.sim_step_ms": "MISMATCH", "storage.dram_hit_rate": "exact-ok",
            "core.visible_blocks_us_p50": "info"})
        code, text = run_main(fixture_set("base"), fixture_set("head"))
        self.assertEqual(code, 1)
        self.assertIn("3 failing", text)

    def test_a_gated_or_exact_metric_missing_on_one_side_fails(self):
        for name in ("step_p50_ms", "core.sim_step_ms"):
            base = compare.load_runs(fixture_set("base"))
            head = compare.load_runs(fixture_set("base"))
            for run in head:
                del run["metrics"][name]
            with open(SPEC) as f:
                rows = compare.compare(base, head, json.load(f))
            self.assertIn((name, "MISSING"),
                          [(r.metric, r.status) for r in rows])

    def test_serving_only_metrics_are_gated_on_their_workloads(self):
        base = compare.load_runs(fixture_set("base"))
        head = compare.load_runs(fixture_set("base"))
        for runs, value in ((base, 1.0), (head, 1.3)):
            for run in runs:
                run["metrics"]["fetch_p50_ms"] = {"value": value, "unit": "ms"}
        with open(SPEC) as f:
            spec = json.load(f)
        for workload, status in (("wire", "REGRESSED"), ("sessions", "info")):
            for run in base + head:
                run["workload"] = workload
            rows = compare.compare(base, head, spec)
            self.assertIn(("fetch_p50_ms", status),
                          [(r.metric, r.status) for r in rows])

    def test_an_incorrect_run_fails(self):
        base = compare.load_runs(fixture_set("base"))
        head = compare.load_runs(fixture_set("base"))
        head[0]["correct"] = False
        with open(SPEC) as f:
            rows = compare.compare(base, head, json.load(f))
        self.assertIn("INCORRECT", [r.status for r in rows])


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json keeps the shape the benchmark runner relies on."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def setUp(self):
        with open(os.path.join(compare.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_keys_and_limits(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["bench/e2e"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in s[key]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, self.NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], {"lower", "higher"})

    def test_bounds_are_fixed(self):
        """Set-up time may worsen by 15%, every other gated metric by 10%.
        A metric that cannot repeat within its bound gets longer fixed work
        or is dropped; its bound is never loosened."""
        gates = [m for ms in compare.WORKLOAD_GATES.values() for m in ms]
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"] + gates}
        self.assertEqual(bounds.pop("setup_s"), 0.15)
        self.assertEqual(set(bounds.values()), {0.10})


if __name__ == "__main__":
    unittest.main()
