"""Hot-path discipline: no allocation, I/O, throw, or blocking on the
latency-critical entry points.

The paper's interactivity argument is an end-to-end latency budget: the
render inner loop and the per-frame fetch/step path must not hide a heap
allocation, a console write, or a blocking primitive behind three calls.
This pass walks the transitive callees (call_graph.py, src/ only) of a
*declared registry* of hot entry points and reports:

  hot-path-alloc          operator new, make_unique/make_shared, growing
                          container ops (push_back/emplace/resize/...)
  hot-path-io             console or file I/O (streams, printf, stream
                          method calls on stream-typed fields)
  hot-path-throw          a `throw` expression (includes rethrow)
  hot-path-block          sleeps, CondVar waits, thread joins
  hot-path-missing-entry  a registry entry that matches no call-graph node
                          — the registry cannot rot silently when an entry
                          point is renamed

Leaf Mutex acquisition is *not* a violation: short critical sections are
the concurrency design (DESIGN.md), and lock_graph.py polices what happens
under them. By-design allocation/I-O sites (e.g. the store read at the
bottom of a demand fetch) carry `// analyze: allow(check): justification`
— the suppression marks exactly where the hot path is allowed to touch
the allocator or the device.

`boundaries` in the registry name vetted fan-out points (with a mandatory
justification) where traversal stops: ThreadPool::parallel_for's own
bookkeeping allocates once per frame by design, while the per-row work it
runs is still scanned — lambdas are lexically part of the enclosing body.

The default registry below covers today's hot set; --hot-registry FILE
(JSON, same shape) replaces it, which is also how the fixture self-tests
pin their own entries. Extend the default list in-place when new hot
entry points land (SIMD raycaster, src/net serving loop).
"""

from __future__ import annotations

import json

from include_graph import Finding
import lock_graph as lg
import call_graph as cgm

DEFAULT_CHECKS = ("hot-path-alloc", "hot-path-io", "hot-path-throw",
                  "hot-path-block")

DEFAULT_REGISTRY = {
    "entries": [
        {"function": "raycast",
         "why": "scalar reference render path, the golden oracle of "
                "raycast_packet: its per-sample sampler loop stays as "
                "clean as the path it checks"},
        {"function": "raycast_packet",
         "why": "SIMD packet render path: per-sample vector loop plus the "
                "per-lane scalar segment walk"},
        {"function": "MemoryHierarchy::fetch",
         "why": "demand fetch on the frame critical path"},
        {"function": "MemoryHierarchy::prefetch",
         "why": "speculative fetch shares the fetch machinery"},
        {"function": "BlockService::step",
         "why": "per-frame admission/eviction step of the shared service"},
        {"function": "algorithm1_step",
         "why": "Algorithm 1's per-view step that every pipeline and the "
                "service run: the per-block visible fetch loop and the "
                "budgeted prefetch pass, through the hierarchy port"},
        {"function": "SharedHierarchy::fetch",
         "why": "single-block fetch: the in-hold read and the claim/wait "
                "path that every shared-hierarchy fetch shares"},
        {"function": "SharedHierarchy::fetch_all",
         "why": "a service step's visible walk: the per-block loop runs "
                "inside one hold of the shared-hierarchy lock, misses "
                "included, so nothing in it may allocate or block"},
        {"function": "SharedHierarchy::fetch_block",
         "why": "the FETCH verb's path: its epoch and its read in one hold "
                "of the shared-hierarchy lock"},
        {"function": "AsyncPrefetcher::get_blocking",
         "why": "demand path through the prefetcher"},
    ],
    "boundaries": {
        "ThreadPool::parallel_for":
            "vetted fan-out point: one ParallelForState allocation and a "
            "completion wait per call, amortized across the whole frame; "
            "the per-row work runs in the caller's lambda, which is still "
            "scanned",
    },
}

# Incremental growth ops only: one-shot pre-sizing (reserve/resize before a
# fill) is the sanctioned idiom this check pushes call sites toward, so it
# is deliberately NOT flagged.
GROW_OPS = {"push_back", "emplace_back", "push_front", "emplace",
            "try_emplace"}
PRINTF_LIKE = {"printf", "fprintf", "puts", "fputs", "fopen", "fwrite",
               "fread"}


def load_registry(path: str | None):
    """Load a registry JSON, or the built-in default. Raises ValueError on
    a malformed file (analyze.py maps that to exit 2, not a finding)."""
    if path is None:
        return DEFAULT_REGISTRY
    with open(path, encoding="utf-8") as f:
        reg = json.load(f)
    if not isinstance(reg, dict) or not isinstance(reg.get("entries"), list):
        raise ValueError(f"hot-path registry {path}: expected an object "
                         "with an 'entries' list")
    for entry in reg["entries"]:
        if not isinstance(entry, dict) or "function" not in entry:
            raise ValueError(f"hot-path registry {path}: every entry needs "
                             "a 'function' key")
    boundaries = reg.get("boundaries", {})
    if not isinstance(boundaries, dict):
        raise ValueError(f"hot-path registry {path}: 'boundaries' must map "
                         "function -> justification")
    for fn, why in boundaries.items():
        if not str(why).strip():
            raise ValueError(f"hot-path registry {path}: boundary '{fn}' "
                             "needs a justification")
    return reg


# --------------------------------------------------------------------------
# Per-function facts
# --------------------------------------------------------------------------

def _body_facts(body: lg.FuncBody, model: lg.Model) -> list[tuple]:
    """(file, line, check, message) facts local to one body."""
    facts: list[tuple] = []
    cls = model.classes.get(body.cls) if body.cls else None
    toks = body.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[i + 1].text if i + 1 < n else ""
        prev = toks[i - 1].text if i > 0 else ""
        if t.text == "throw":
            facts.append((body.file, t.line, "hot-path-throw",
                          "`throw` on the hot path — report failure via "
                          "status/optional instead"))
            continue
        if t.text == "new" and prev != "=":
            facts.append((body.file, t.line, "hot-path-alloc",
                          "operator new on the hot path"))
            continue
        if t.text in ("make_unique", "make_shared") and nxt in ("(", "<"):
            facts.append((body.file, t.line, "hot-path-alloc",
                          f"heap allocation (std::{t.text})"))
            continue
        if t.text in GROW_OPS and nxt == "(" and prev in (".", "->"):
            recv = toks[i - 2].text if i >= 2 else "?"
            facts.append((body.file, t.line, "hot-path-alloc",
                          f"container growth ({recv}.{t.text}) may "
                          "reallocate — pre-reserve or hoist the buffer"))
            continue
        if t.text in ("cout", "cerr") and prev == "::" and i >= 2 \
                and toks[i - 2].text == "std":
            facts.append((body.file, t.line, "hot-path-io",
                          f"console I/O (std::{t.text})"))
            continue
        if t.text in PRINTF_LIKE and nxt == "(":
            facts.append((body.file, t.line, "hot-path-io",
                          f"I/O call ({t.text})"))
            continue
        if t.text in lg.STREAM_TYPES:
            facts.append((body.file, t.line, "hot-path-io",
                          f"file stream (std::{t.text}) on the hot path"))
            continue
        if t.text in lg.FILE_IO_METHODS and nxt == "(" and prev in (".", "->"):
            recv = toks[i - 2].text if i >= 2 else ""
            fields = ([cls.fields[recv]] if cls and recv in (cls.fields or {})
                      else model.field_index.get(recv, []))
            if any(any(ti in lg.STREAM_TYPES for ti in f.type_ids)
                   for f in fields):
                facts.append((body.file, t.line, "hot-path-io",
                              f"file I/O ({recv}.{t.text})"))
            continue
        if t.text in lg.SLEEP_NAMES and nxt == "(":
            facts.append((body.file, t.line, "hot-path-block",
                          f"sleep ({t.text}) on the hot path"))
            continue
        if t.text == "wait" and nxt == "(" and prev in (".", "->"):
            recv = toks[i - 2].text if i >= 2 else ""
            fields = ([cls.fields[recv]] if cls and recv in (cls.fields or {})
                      else model.field_index.get(recv, []))
            if any(f.is_condvar for f in fields):
                facts.append((body.file, t.line, "hot-path-block",
                              f"CondVar wait ({recv}.wait)"))
            continue
        if t.text in lg.JOIN_METHODS and nxt == "(" and prev in (".", "->"):
            recv = toks[i - 2].text if i >= 2 else "?"
            facts.append((body.file, t.line, "hot-path-block",
                          f"thread join ({recv}.join)"))
            continue
    return facts


# --------------------------------------------------------------------------
# Traversal
# --------------------------------------------------------------------------

def check_hot_paths(model: lg.Model, cg: cgm.CallGraph, registry,
                    anchor: str) -> list[Finding]:
    """BFS the call graph from each registry entry; report every fact in
    the reachable set. `anchor` is the repo-relative path findings about
    the registry itself (missing entries) attach to."""
    findings: list[Finding] = []
    boundaries = registry.get("boundaries", {})
    facts_cache: dict[str, list[tuple]] = {}
    reported: set[tuple] = set()

    def node_facts(qual: str) -> list[tuple]:
        cached = facts_cache.get(qual)
        if cached is None:
            cached = []
            for body in cg.nodes.get(qual, ()):
                cached.extend(_body_facts(body, model))
            facts_cache[qual] = cached
        return cached

    for entry in registry.get("entries", []):
        fn = entry["function"]
        checks = set(entry.get("checks", DEFAULT_CHECKS))
        if fn not in cg.nodes:
            findings.append(Finding(
                anchor, 1, "hot-path-missing-entry",
                f"hot-path registry entry '{fn}' matches no function in "
                "the call graph — the entry point was renamed or removed; "
                "update the registry"))
            continue
        parent: dict[str, str | None] = {fn: None}
        queue = [fn]
        while queue:
            q = queue.pop(0)
            chain: list[str] = []
            c: str | None = q
            while c is not None:
                chain.append(c)
                c = parent[c]
            chain.reverse()
            for (file, line, check, msg) in node_facts(q):
                if check not in checks:
                    continue
                key = (file, line, check)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(Finding(
                    file, line, check,
                    f"{msg} — hot path {' -> '.join(chain)} "
                    f"({entry.get('why', 'registered hot entry')})",
                    chain=tuple(chain)))
            for e in cg.edges.get(q, ()):
                if e.target in parent or e.target in boundaries:
                    continue
                if e.target not in cg.nodes:
                    continue  # decl-only or out-of-scope override
                parent[e.target] = q
                queue.append(e.target)
    return findings
