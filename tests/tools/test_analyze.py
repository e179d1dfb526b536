#!/usr/bin/env python3
"""Self-tests for tools/analyze and the tokenizer-backed tools/lint.py.

Each fixture tree under fixtures/ seeds specific violations on specific
lines (or is the clean twin of one that does); the tests assert every check
fires exactly where seeded, that clean trees exit 0, and that the driver's
exit codes distinguish findings (1) from tool errors (2).

Run directly (python3 tests/tools/test_analyze.py) or via ctest -L tools.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIXTURES = os.path.join(HERE, "fixtures")
ANALYZE = [sys.executable, os.path.join(REPO, "tools", "analyze", "analyze.py")]
LINT = [sys.executable, os.path.join(REPO, "tools", "lint.py")]
# Fixture trees pin their own hot-path entries (or none): the built-in
# registry names real vizcache functions that no fixture defines.
EMPTY_REGISTRY = os.path.join(FIXTURES, "empty_hot_registry.json")

sys.path.insert(0, os.path.join(REPO, "tools", "analyze"))

_FINDING_RE = re.compile(r"^(.*?):(\d+): \[([a-z-]+)\]")


def run_analyze(*args):
    return subprocess.run(ANALYZE + list(args), capture_output=True, text=True)


def analyze_fixture(name, *extra, registry=EMPTY_REGISTRY):
    return run_analyze("src", "--root", os.path.join(FIXTURES, name),
                       "--hot-registry", registry, *extra)


def fixture_registry(name, filename="hot_registry.json"):
    return os.path.join(FIXTURES, name, filename)


def findings_of(proc):
    out = set()
    for line in proc.stdout.splitlines():
        m = _FINDING_RE.match(line)
        if m:
            out.add((m.group(1), int(m.group(2)), m.group(3)))
    return out


class IncludeGraphTest(unittest.TestCase):
    def test_seeded_layering_violations(self):
        proc = analyze_fixture("layering_bad")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(findings_of(proc), {
            ("src/util/bad_upward.hpp", 2, "include-layering"),
            # service including net is upward too: net is the TOP library
            # layer, nothing below it may reach into it.
            ("src/service/uplink.hpp", 2, "include-layering"),
            ("src/geom/a.hpp", 2, "include-cycle"),
        })

    def test_clean_twin_passes(self):
        proc = analyze_fixture("layering_good")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(findings_of(proc), set())

    def test_dot_and_json_artifacts(self):
        with tempfile.TemporaryDirectory() as tmp:
            dot = os.path.join(tmp, "g.dot")
            js = os.path.join(tmp, "g.json")
            proc = analyze_fixture("layering_bad", "--dot", dot, "--json", js)
            self.assertEqual(proc.returncode, 1)
            with open(dot, encoding="utf-8") as f:
                dot_text = f.read()
            self.assertIn("digraph includes", dot_text)
            self.assertIn('"src/util/bad_upward.hpp" -> "src/core/engine.hpp"',
                          dot_text)
            with open(js, encoding="utf-8") as f:
                payload = json.load(f)
            self.assertIn("src/geom/a.hpp", payload["files"])
            checks = {v["check"] for v in payload["violations"]}
            self.assertEqual(checks, {"include-layering", "include-cycle"})


class LockGraphTest(unittest.TestCase):
    def test_seeded_lock_violations(self):
        proc = analyze_fixture("locks_bad")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(findings_of(proc), {
            ("src/util/worker.cpp", 12, "lock-held-call"),
            # re-acquiring mutex_ via submit() is also a self-loop in the
            # lock-order graph: a self-deadlock for a non-recursive mutex
            ("src/util/worker.cpp", 12, "lock-order-cycle"),
            ("src/util/worker.cpp", 17, "lock-blocking"),
            ("src/util/worker.cpp", 22, "lock-foreign-wait"),
            ("src/util/worker.hpp", 18, "lock-unguarded-field"),
        })

    def test_clean_twin_passes(self):
        # The twin exercises the two sanctioned shapes: calling a locking
        # function after the MutexLock scope closes, and CondVar::wait on
        # the held mutex itself.
        proc = analyze_fixture("locks_good")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(findings_of(proc), set())


class TransitiveLockTest(unittest.TestCase):
    def test_indirect_violations_fire_with_chain(self):
        proc = analyze_fixture("locks_transitive_bad")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(findings_of(proc), {
            ("src/util/worker.cpp", 13, "lock-held-call"),
            ("src/util/worker.cpp", 20, "lock-blocking"),
        })
        # The full route to the indirect acquisition is printed.
        self.assertIn("Worker::outer -> Worker::helper -> Worker::locker",
                      proc.stdout)

    def test_clean_twin_passes(self):
        # Same helpers, but called after the MutexLock scope closes.
        proc = analyze_fixture("locks_transitive_good")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(findings_of(proc), set())


class LockOrderTest(unittest.TestCase):
    def test_inverted_order_is_a_cycle_with_witnesses(self):
        # lock-held-call at both nesting sites is suppressed in the fixture,
        # proving order edges are recorded even for suppressed sites.
        proc = analyze_fixture("lock_order_bad")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(findings_of(proc), {
            ("src/util/ab.cpp", 12, "lock-order-cycle"),
        })
        self.assertIn("Alpha::mutex_ -> Beta::mutex_ -> Alpha::mutex_",
                      proc.stdout)
        self.assertIn("src/util/ab.cpp:19", proc.stdout)  # second witness

    def test_one_way_nesting_stays_silent(self):
        proc = analyze_fixture("lock_order_good")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(findings_of(proc), set())

    def test_lock_order_artifacts(self):
        with tempfile.TemporaryDirectory() as tmp:
            dot = os.path.join(tmp, "lo.dot")
            js = os.path.join(tmp, "lo.json")
            proc = analyze_fixture("lock_order_bad", "--lock-order-dot", dot,
                                   "--lock-order-json", js)
            self.assertEqual(proc.returncode, 1)
            with open(dot, encoding="utf-8") as f:
                dot_text = f.read()
            self.assertIn('"Alpha::mutex_" -> "Beta::mutex_"', dot_text)
            with open(js, encoding="utf-8") as f:
                payload = json.load(f)
            edges = {(e["held"], e["acquired"]) for e in payload["edges"]}
            self.assertEqual(edges, {("Alpha::mutex_", "Beta::mutex_"),
                                     ("Beta::mutex_", "Alpha::mutex_")})
            self.assertEqual(len(payload["cycles"]), 1)


class HotPathTest(unittest.TestCase):
    def test_seeded_hot_path_violations(self):
        proc = analyze_fixture("hot_path_bad",
                               registry=fixture_registry("hot_path_bad"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(findings_of(proc), {
            ("src/util/render.cpp", 10, "hot-path-alloc"),
            ("src/util/render.cpp", 15, "hot-path-io"),
            ("src/util/render.cpp", 16, "hot-path-throw"),
            ("src/util/render.cpp", 17, "hot-path-block"),
            ("src/util/render.cpp", 24, "hot-path-alloc"),
        })
        # The transitive allocation reports the route from the entry point.
        self.assertIn("render_row -> helper_alloc", proc.stdout)

    def test_clean_twin_with_justified_alloc_passes(self):
        proc = analyze_fixture("hot_path_good",
                               registry=fixture_registry("hot_path_good"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(findings_of(proc), set())

    def test_registry_rot_is_a_finding(self):
        proc = analyze_fixture(
            "hot_path_good",
            registry=fixture_registry("hot_path_good",
                                      "missing_registry.json"))
        self.assertEqual(proc.returncode, 1, proc.stderr)
        findings = findings_of(proc)
        self.assertIn(("missing_registry.json", 1, "hot-path-missing-entry"),
                      findings)

    def test_malformed_registry_is_a_tool_error(self):
        proc = analyze_fixture(
            "hot_path_good",
            registry=fixture_registry("hot_path_good",
                                      "malformed_registry.json"))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("entries", proc.stderr)


class JsonFormatTest(unittest.TestCase):
    def test_schema_and_chain(self):
        proc = analyze_fixture("locks_transitive_bad", "--format", "json")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        payload = json.loads(proc.stdout)
        self.assertEqual(payload["version"], 1)
        self.assertEqual(payload["summary"]["active"], 2)
        by_check = {f["check"]: f for f in payload["findings"]}
        held = by_check["lock-held-call"]
        self.assertEqual(held["file"], "src/util/worker.cpp")
        self.assertEqual(held["line"], 13)
        self.assertFalse(held["suppressed"])
        self.assertEqual(held["chain"], ["Worker::outer", "Worker::helper",
                                         "Worker::locker"])

    def test_suppressed_findings_are_reported_as_such(self):
        proc = analyze_fixture("lock_order_good", "--format", "json")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        payload = json.loads(proc.stdout)
        self.assertEqual(payload["summary"]["active"], 0)
        self.assertEqual(payload["summary"]["suppressed"], 1)
        sup = [f for f in payload["findings"] if f["suppressed"]]
        self.assertEqual(len(sup), 1)
        self.assertEqual(sup[0]["check"], "lock-held-call")
        used = [s for s in payload["suppressions"] if s["used"]]
        self.assertEqual(len(used), 1)


class CallGraphArtifactTest(unittest.TestCase):
    def test_call_graph_dot_and_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            dot = os.path.join(tmp, "cg.dot")
            js = os.path.join(tmp, "cg.json")
            proc = analyze_fixture("locks_transitive_bad", "--call-dot", dot,
                                   "--call-json", js)
            self.assertEqual(proc.returncode, 1)
            with open(dot, encoding="utf-8") as f:
                dot_text = f.read()
            self.assertIn('"Worker::outer" -> "Worker::helper"', dot_text)
            with open(js, encoding="utf-8") as f:
                payload = json.load(f)
            nodes = payload["nodes"]
            self.assertIn("Worker::other_mutex_",
                          nodes["Worker::outer"]["locks"])
            self.assertTrue(nodes["Worker::napper"]["blocks"])
            edges = {(e["from"], e["to"]) for e in payload["edges"]}
            self.assertIn(("Worker::helper", "Worker::locker"), edges)


class SourceCacheTest(unittest.TestCase):
    def test_each_file_read_and_tokenized_once(self):
        from cpptok import SourceCache
        cache = SourceCache()
        path = os.path.join(FIXTURES, "locks_bad", "src", "util",
                            "worker.cpp")
        text = cache.text(path)
        toks = cache.tokens(path)
        lines = cache.lines(path)
        for _ in range(3):
            self.assertIs(cache.text(path), text)
            self.assertIs(cache.tokens(path), toks)
            self.assertIs(cache.lines(path), lines)
        self.assertEqual(cache.reads, 1)

    def test_driver_reads_each_file_once(self):
        # Five passes share one cache: the OK line counts physical reads,
        # which must equal the file count, not a multiple of it.
        proc = analyze_fixture("locks_good")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("(3 files, 0 suppression(s), 3 file reads; passes:",
                      proc.stderr)


class SuppressionTest(unittest.TestCase):
    def test_justified_allow_suppresses(self):
        proc = analyze_fixture("suppress_ok")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_allow_without_justification_is_a_finding(self):
        proc = analyze_fixture("suppress_bad")
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(findings_of(proc), {
            ("src/util/worker.hpp", 10, "bad-suppression"),
            # the malformed allow must NOT suppress the underlying finding
            ("src/util/worker.hpp", 11, "lock-unguarded-field"),
        })

    def test_unmatched_allow_is_stale(self):
        proc = analyze_fixture("suppress_stale")
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(findings_of(proc), {
            ("src/util/worker.hpp", 9, "stale-suppression"),
        })


class DriverTest(unittest.TestCase):
    def test_missing_tree_is_a_tool_error(self):
        proc = run_analyze("no_such_tree", "--root", FIXTURES)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("error", proc.stderr)

    def test_real_tree_is_clean(self):
        proc = subprocess.run(ANALYZE + ["src", "bench", "examples", "tests"],
                              cwd=REPO, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + proc.stderr)


class LifetimeTest(unittest.TestCase):
    """The lifetime pass: every seeded defect fires on its line, and every
    sanctioned pattern in the clean twin is proven exempt."""

    def test_seeded_lifetime_violations(self):
        proc = analyze_fixture("lifetime_bad")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(findings_of(proc), {
            # direct sink: this / named ref / default-ref / raw pointer
            ("src/util/defer.cpp", 15, "escaping-ref-capture"),
            ("src/util/defer.cpp", 16, "escaping-ref-capture"),
            ("src/util/defer.cpp", 17, "escaping-ref-capture"),
            # transitive sink: enqueue() forwards into ThreadPool::submit
            ("src/util/defer.cpp", 18, "escaping-ref-capture"),
            ("src/util/defer.cpp", 19, "escaping-ref-capture"),
            # std::thread assigned to a field with no join proof
            ("src/util/defer.cpp", 23, "escaping-ref-capture"),
            ("src/util/defer.cpp", 28, "dangling-return"),
            ("src/util/defer.cpp", 33, "dangling-return"),
            ("src/util/defer.cpp", 39, "use-after-move"),
            ("src/util/defer.hpp", 34, "view-field"),
        })

    def test_transitive_sink_is_named_in_message(self):
        proc = analyze_fixture("lifetime_bad")
        wrapped = [l for l in proc.stdout.splitlines()
                   if l.startswith("src/util/defer.cpp:18:")]
        self.assertEqual(len(wrapped), 1, proc.stdout)
        self.assertIn("Runner::enqueue", wrapped[0])
        self.assertIn("ThreadPool::submit", wrapped[0])

    def test_join_in_destructor_patterns_are_exempt(self):
        # lifetime_good holds: dtor->stop()->join/shutdown (proof b),
        # pool declared last (proof a), a joined local thread, value
        # captures, move-then-reassign, and one justified allow.
        proc = analyze_fixture("lifetime_good")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("1 suppression(s)", proc.stderr)

    def test_stale_lifetime_allow_is_flagged(self):
        proc = analyze_fixture("lifetime_suppress_stale")
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(findings_of(proc), {
            ("src/util/noop.hpp", 5, "stale-suppression"),
        })


class SarifFormatTest(unittest.TestCase):
    def _load(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stderr)
        doc = json.loads(proc.stdout)
        self.assertEqual(doc["version"], "2.1.0")
        return doc["runs"][0]

    def test_findings_become_sarif_results(self):
        run = self._load(analyze_fixture("lifetime_bad",
                                         "--format", "sarif"))
        self.assertEqual(run["tool"]["driver"]["name"], "vizcache-analyze")
        results = run["results"]
        self.assertEqual(len(results), 10)
        by_rule = {}
        for r in results:
            by_rule.setdefault(r["ruleId"], []).append(r)
            self.assertEqual(r["level"], "error")
            loc = r["locations"][0]["physicalLocation"]
            self.assertTrue(loc["artifactLocation"]["uri"]
                            .startswith("src/util/defer."))
            self.assertGreater(loc["region"]["startLine"], 0)
        self.assertEqual(set(by_rule), {"escaping-ref-capture",
                                        "dangling-return",
                                        "use-after-move", "view-field"})
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        self.assertEqual(rule_ids, set(by_rule))

    def test_suppressed_findings_are_marked_in_source(self):
        # --sarif FILE alongside the normal text output
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.sarif")
            proc = analyze_fixture("lifetime_good", "--sarif", out)
            self.assertEqual(proc.returncode, 0,
                             proc.stdout + proc.stderr)
            with open(out, encoding="utf-8") as f:
                run = json.load(f)["runs"][0]
        suppressed = [r for r in run["results"] if r.get("suppressions")]
        self.assertEqual(len(suppressed), 1)
        self.assertEqual(suppressed[0]["ruleId"], "escaping-ref-capture")
        self.assertEqual(suppressed[0]["level"], "warning")
        self.assertEqual(suppressed[0]["suppressions"][0]["kind"],
                         "inSource")


class ParallelDriverTest(unittest.TestCase):
    def test_jobs_matches_serial_findings(self):
        serial = analyze_fixture("lifetime_bad", "--format", "json")
        parallel = analyze_fixture("lifetime_bad", "--format", "json",
                                   "--jobs", "4")
        self.assertEqual(parallel.returncode, serial.returncode)
        self.assertEqual(json.loads(parallel.stdout),
                         json.loads(serial.stdout))

    def test_jobs_reads_each_file_once(self):
        # the prewarm step must keep the shared cache single-read even
        # when passes run concurrently
        proc = analyze_fixture("locks_good", "--jobs", "4")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("3 file reads; passes:", proc.stderr)

    def test_invalid_jobs_is_a_tool_error(self):
        proc = analyze_fixture("locks_good", "--jobs", "0")
        self.assertEqual(proc.returncode, 2)


class MetricsContractTest(unittest.TestCase):
    TOOL = [sys.executable,
            os.path.join(REPO, "tools", "check_metrics_contract.py")]

    def test_real_tree_is_in_sync(self):
        proc = subprocess.run(self.TOOL, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("in sync with the snapshot contract", proc.stdout)

    def test_drift_fixture_fails_both_directions(self):
        proc = subprocess.run(
            self.TOOL + ["--root",
                         os.path.join(FIXTURES, "metrics_contract_drift")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        # direction 2: registered but never asserted
        self.assertIn("'bogus.name' is registered", proc.stderr)
        # direction 1: asserted but no longer registered
        self.assertIn("is asserted by check_metrics_snapshot.py but "
                      "never registered", proc.stderr)
        # direction 3: the escape hatch itself goes stale
        self.assertIn("matches no registration", proc.stderr)

    def test_report_spelling_counts_in_both_directions(self):
        # report_metrics writes `out.add_counter(prefix + ".hits", ...)`:
        # that suffix covers the asserted cache.*.hits (direction 1), and a
        # full add_counter literal must be asserted like a registration
        # (direction 2).
        proc = subprocess.run(
            self.TOOL + ["--root",
                         os.path.join(FIXTURES, "metrics_contract_report")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertNotIn("'cache.dram.hits' is asserted", proc.stderr)
        self.assertIn("'cache.dram.misses' is asserted", proc.stderr)
        self.assertIn("'fixture.total' is registered", proc.stderr)

    def test_missing_tree_is_a_tool_error(self):
        proc = subprocess.run(self.TOOL + ["--src", "no_such_dir"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)


class LintTokenizerTest(unittest.TestCase):
    """The lint port onto cpptok must not fire on literals or comments."""

    def _run_lint(self, source):
        tmp = tempfile.mkdtemp(prefix="lint-fixture-")
        try:
            with open(os.path.join(tmp, "probe.cpp"), "w",
                      encoding="utf-8") as f:
                f.write(source)
            return subprocess.run(LINT + [tmp], capture_output=True,
                                  text=True)
        finally:
            for name in os.listdir(tmp):
                os.remove(os.path.join(tmp, name))
            os.rmdir(tmp)

    def test_literals_and_comments_do_not_fire(self):
        proc = self._run_lint(
            'static const char* a = "never delete this";\n'
            'static const char* b = R"(std::cout << new int;)";\n'
            "// a comment mentioning std::mutex and printf(\n"
            "/* new delete std::cerr */\n")
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_real_violations_still_fire(self):
        proc = self._run_lint(
            "int* leak() { return new int; }\n"
            "void log_it() { std::cout << 1; }\n")
        self.assertEqual(proc.returncode, 1)
        checks = {m.group(3) for m in map(_FINDING_RE.match,
                                          proc.stdout.splitlines()) if m}
        self.assertEqual(checks, {"naked-new", "console-io"})

    def test_deleted_special_members_allowed(self):
        proc = self._run_lint(
            "struct NoCopy {\n"
            "  NoCopy(const NoCopy&) = delete;\n"
            "  NoCopy& operator=(const NoCopy&) = delete;\n"
            "};\n")
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
