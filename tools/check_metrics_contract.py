#!/usr/bin/env python3
"""Metrics contract: registered instrument names vs. snapshot assertions.

check_metrics_snapshot.py asserts that benchmark snapshots contain a
fixed set of instrument names. Nothing used to tie those strings to the
names the C++ actually registers — rename a counter on one side and the
snapshot check silently stops covering it. This tool closes the loop by
extracting every `counter("...")` / `gauge("...")` / `histogram("...")`
registration literal from src/, and every `add_counter("...")` /
`add_gauge("...")` a stats struct's report_metrics writes into a snapshot,
and diffing them against the union of the name lists
check_metrics_snapshot.py asserts across all modes (default, --app-aware,
--service, --net). Drift in either direction fails:

  direction 1  an asserted name with no matching registration in src/ —
               the snapshot check would always fail (or the name was
               renamed in C++ only)
  direction 2  a registered full-literal name that no snapshot mode
               asserts and that is not in KNOWN_UNASSERTED below — new
               instruments must either join a snapshot contract or be
               explicitly recorded as unasserted, so coverage cannot rot

Component-prefixed names (`out.add_counter(prefix + ".hits", ...)`) are
matched by suffix for direction 1; they are exempt from direction 2
because the set of prefixes is a runtime property (each cache level, each
hierarchy's reporter names its own). That is the documented
under-approximation: a composed name can only drift via its suffix.

Exit status: 0 in sync, 1 drift, 2 tool error (missing tree, bad flags).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_metrics_snapshot as snap  # noqa: E402

# Registered in src/ but deliberately not asserted by any snapshot mode.
# Every entry needs a reason — this list is the contract's escape hatch
# and is itself checked for staleness (direction 3).
KNOWN_UNASSERTED = {
    "pipeline.workers":
        "configuration echo (worker count), not a behavior signal",
    "pipeline.lookup_seconds":
        "sub-phase timing; the asserted io/render/total gauges cover the "
        "latency contract",
    "pipeline.prefetch_seconds":
        "sub-phase timing, same reason as pipeline.lookup_seconds",
    "pipeline.fetch_speedup":
        "derived convenience ratio of asserted gauges",
    "service.preload.blocks":
        "preload is an optional warm-start; bench runs assert the "
        "prefetch/demand split instead",
    "service.preload.scanned":
        "same preload warm-start accounting as service.preload.blocks",
}

_KINDS = ("counter", "gauge", "histogram")
# A registry registers `kind(...)`; a report_metrics writes `add_kind(...)`.
_KIND = r'\b(?:add_)?(counter|gauge|histogram)'
# `kind ( "name" ` — \s* crosses newlines (multi-line registration calls).
_FULL_RE = re.compile(_KIND + r'\s*\(\s*"([^"]+)"')
# `kind ( prefix + ".suffix"` — component-prefixed registration.
_COMPOSED_RE = re.compile(
    _KIND + r'\s*\(\s*[A-Za-z_][A-Za-z0-9_]*\s*\+\s*"(\.[^"]+)"')


def _strip_comments(text: str) -> str:
    """Remove //... and /*...*/ (newlines kept) but PRESERVE string
    literal contents — the names live inside the strings, so cpptok's
    payload-dropping tokenizer and scrub() are both unusable here."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                break
            out.append("".join(ch for ch in text[i:j + 2] if ch == "\n"))
            i = j + 2
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def extract_registrations(src_root: str):
    """(full, suffixes): full[kind][name] -> [file:line, ...];
    suffixes[kind] -> set of composed '.suffix' strings."""
    full: dict[str, dict[str, list[str]]] = {k: {} for k in _KINDS}
    suffixes: dict[str, set[str]] = {k: set() for k in _KINDS}
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for name in sorted(filenames):
            if os.path.splitext(name)[1] not in (".hpp", ".cpp"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = _strip_comments(f.read())
            for m in _FULL_RE.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                full[m.group(1)].setdefault(m.group(2), []).append(
                    f"{path}:{line}")
            for m in _COMPOSED_RE.finditer(text):
                suffixes[m.group(1)].add(m.group(2))
    return full, suffixes


def asserted_names() -> dict[str, set[str]]:
    """Union of the names check_metrics_snapshot.py asserts, per kind,
    across every mode."""
    return {
        "counter": set(
            snap.REQUIRED_COUNTERS + snap.APP_AWARE_NONZERO_COUNTERS
            + snap.SERVICE_REQUIRED_COUNTERS + snap.SERVICE_NONZERO_COUNTERS
            + snap.NET_REQUIRED_COUNTERS + snap.NET_NONZERO_COUNTERS),
        "gauge": set(
            snap.REQUIRED_GAUGES + snap.SERVICE_REQUIRED_GAUGES
            + snap.NET_ZERO_GAUGES),
        "histogram": set(
            snap.REQUIRED_HISTOGRAMS + snap.SERVICE_REQUIRED_HISTOGRAMS),
    }


def check(src_root: str) -> list[str]:
    full, suffixes = extract_registrations(src_root)
    asserted = asserted_names()
    problems: list[str] = []

    # direction 1: every asserted name must have a registration
    for kind in _KINDS:
        for name in sorted(asserted[kind]):
            if name in full[kind]:
                continue
            if any(name.endswith(s) for s in suffixes[kind]):
                continue
            problems.append(
                f"{kind} '{name}' is asserted by check_metrics_snapshot.py "
                f"but never registered under {src_root}/ — renamed or "
                "removed in C++ without updating the snapshot contract")

    # direction 2: every registered full literal must be asserted (or
    # recorded in KNOWN_UNASSERTED with a reason)
    for kind in _KINDS:
        for name, locs in sorted(full[kind].items()):
            if name in asserted[kind] or name in KNOWN_UNASSERTED:
                continue
            problems.append(
                f"{kind} '{name}' is registered ({locs[0]}) but not "
                "asserted by any check_metrics_snapshot.py mode — add it "
                "to a snapshot list or to KNOWN_UNASSERTED in "
                "check_metrics_contract.py with a reason")

    # direction 3: KNOWN_UNASSERTED may not rot either
    all_registered = {n for kind in _KINDS for n in full[kind]}
    all_asserted = {n for kind in _KINDS for n in asserted[kind]}
    for name in sorted(KNOWN_UNASSERTED):
        if name not in all_registered:
            problems.append(
                f"KNOWN_UNASSERTED entry '{name}' matches no registration "
                f"under {src_root}/ — remove the stale entry")
        elif name in all_asserted:
            problems.append(
                f"KNOWN_UNASSERTED entry '{name}' is now asserted by "
                "check_metrics_snapshot.py — remove the redundant entry")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        help="repository root (default: the checkout this tool lives in)")
    parser.add_argument(
        "--src", default="src",
        help="source subtree to scan for registrations (default: src)")
    args = parser.parse_args(argv)

    src_root = os.path.join(args.root, args.src)
    if not os.path.isdir(src_root):
        print(f"check_metrics_contract: error: no such tree: {src_root}",
              file=sys.stderr)
        return 2

    problems = check(src_root)
    for p in problems:
        print(f"check_metrics_contract: {p}", file=sys.stderr)
    if not problems:
        nfull = sum(
            len(v) for v in extract_registrations(src_root)[0].values())
        print(f"check_metrics_contract: ok ({nfull} registered names in "
              "sync with the snapshot contract)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
