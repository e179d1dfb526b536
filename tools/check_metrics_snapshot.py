#!/usr/bin/env python3
"""Validate a vizcache metrics-snapshot JSON artifact.

CI runs the fig13 bench in quick mode, and ctest runs the serving demos
(multi_user_demo, net_demo); each exported `*.metrics.json` goes through
this script: a snapshot that silently lost one of the load-bearing
instruments (a report_metrics call or a snapshot hook dropped, a name
renamed on one side only) fails the build instead of producing an empty
dashboard.

Usage:
  check_metrics_snapshot.py snapshot.json [--app-aware | --service | --net]

`--app-aware` additionally requires the prefetch-side instruments to be
present AND non-zero (an app-aware run that never prefetched is a bug).

`--service` validates a BlockService snapshot instead (multi_user_demo):
the `service.*` instruments must be present and, because that run drives
overlapping sessions, the coalesced-read counters must be non-zero
(overlapping sessions that never coalesced a read is a bug).

`--net` validates a NetServer snapshot (net_demo): the `net.*` instruments
must be present, the scenario counters (malformed frames, backpressure
drops, coalesced reads) must be non-zero because the demo stages those
scenarios deterministically, and the active-connection / active-session
gauges must have returned to zero (a leaked connection or session is a
bug).

Exit status 0 when the snapshot is complete, 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

# Instruments every pipeline run must export, whatever the policy.
REQUIRED_COUNTERS = [
    "cache.dram.hits",
    "cache.dram.misses",
    "cache.ssd.hits",
    "cache.ssd.misses",
    "hierarchy.demand.requests",
    "hierarchy.demand.backing_reads",
    "hierarchy.demand.backing_bytes",
    "hierarchy.prefetch.backing_reads",
    "pipeline.steps",
]
REQUIRED_GAUGES = [
    "pipeline.io_seconds",
    "pipeline.render_seconds",
    "pipeline.total_seconds",
    "pipeline.fast_miss_rate",
]
REQUIRED_HISTOGRAMS = [
    "pipeline.step.total_seconds",
]

# Extra requirements for an app-aware (OPT) run: these must be non-zero.
APP_AWARE_NONZERO_COUNTERS = [
    "hierarchy.prefetch.requests",
]

# Instruments a BlockService run must export (multi_user_demo).
SERVICE_REQUIRED_COUNTERS = [
    "cache.dram.hits",
    "cache.dram.misses",
    "service.sessions.opened",
    "service.sessions.closed",
    "service.sessions.rejected",
    "service.steps",
    "service.demand.requests",
    "service.demand.fast_misses",
    "service.demand.coalesced_hits",
    "service.prefetch.blocks",
    "service.prefetch.shed",
    "service.prefetch.suppressed",
    "service.hierarchy.demand.requests",
    "service.hierarchy.demand.backing_reads",
    "service.hierarchy.coalescer.claims",
    "service.hierarchy.coalescer.completions",
    "service.hierarchy.coalescer.coalesced_waits",
]
SERVICE_REQUIRED_GAUGES = [
    "service.sessions.active",
]
SERVICE_REQUIRED_HISTOGRAMS = [
    "service.step.sim_seconds",
]

# Service runs drive OVERLAPPING sessions; sharing must actually happen.
SERVICE_NONZERO_COUNTERS = [
    "service.demand.coalesced_hits",
    "service.hierarchy.coalescer.coalesced_waits",
]

# Instruments a NetServer run must export (net_demo). The demo stages the
# hostile scenarios deterministically, so the scenario counters must have
# actually fired — a zero means the scenario silently stopped exercising the
# path it exists to cover.
NET_REQUIRED_COUNTERS = [
    "net.connections.accepted",
    "net.connections.closed",
    "net.connections.rejected",
    "net.frames.received",
    "net.frames.sent",
    "net.bytes.read",
    "net.bytes.written",
    "net.errors.malformed",
    "net.backpressure.closed",
]
NET_NONZERO_COUNTERS = [
    "net.connections.accepted",
    "net.frames.received",
    "net.frames.sent",
    "net.errors.malformed",
    "net.backpressure.closed",
    "service.demand.coalesced_hits",
]
# After a clean shutdown nothing may still be live.
NET_ZERO_GAUGES = [
    "net.connections.active",
    "service.sessions.active",
]


def check_net(snapshot: dict) -> list[str]:
    problems: list[str] = []
    counters = snapshot["counters"]
    for name in NET_REQUIRED_COUNTERS:
        if name not in counters:
            problems.append(f"missing counter: {name}")
    for name in NET_NONZERO_COUNTERS:
        if counters.get(name) == 0:
            problems.append(f"net run but counter is zero: {name}")
    for name in NET_ZERO_GAUGES:
        value = snapshot["gauges"].get(name)
        if value is None:
            problems.append(f"missing gauge: {name}")
        elif value != 0:
            problems.append(f"leaked after shutdown: {name} = {value}")
    accepted = counters.get("net.connections.accepted")
    closed = counters.get("net.connections.closed")
    if accepted is not None and closed is not None and accepted != closed:
        problems.append(
            f"connection leak: {accepted} accepted vs {closed} closed")
    return problems


def check_service(snapshot: dict) -> list[str]:
    problems: list[str] = []
    counters = snapshot["counters"]
    for name in SERVICE_REQUIRED_COUNTERS:
        if name not in counters:
            problems.append(f"missing counter: {name}")
    for name in SERVICE_REQUIRED_GAUGES:
        if name not in snapshot["gauges"]:
            problems.append(f"missing gauge: {name}")
    for name in SERVICE_REQUIRED_HISTOGRAMS:
        hist = snapshot["histograms"].get(name)
        if hist is None:
            problems.append(f"missing histogram: {name}")
        elif not isinstance(hist.get("buckets"), dict) or "count" not in hist:
            problems.append(f"malformed histogram: {name}")
    for name in SERVICE_NONZERO_COUNTERS:
        if counters.get(name) == 0:
            problems.append(
                f"overlapping-session run but counter is zero: {name}")
    claims = counters.get("service.hierarchy.coalescer.claims")
    completions = counters.get("service.hierarchy.coalescer.completions")
    if claims is not None and completions is not None and claims != completions:
        problems.append(
            f"coalescer leaked claims: {claims} claims vs "
            f"{completions} completions")
    return problems


def check(snapshot: dict, app_aware: bool, service: bool,
          net: bool = False) -> list[str]:
    problems: list[str] = []
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            problems.append(f"missing or malformed section: {section}")
    if problems:
        return problems

    if net:
        return check_net(snapshot)
    if service:
        return check_service(snapshot)

    counters = snapshot["counters"]
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            problems.append(f"missing counter: {name}")
    for name in REQUIRED_GAUGES:
        if name not in snapshot["gauges"]:
            problems.append(f"missing gauge: {name}")
    for name in REQUIRED_HISTOGRAMS:
        hist = snapshot["histograms"].get(name)
        if hist is None:
            problems.append(f"missing histogram: {name}")
        elif not isinstance(hist.get("buckets"), dict) or "count" not in hist:
            problems.append(f"malformed histogram: {name}")

    if app_aware:
        for name in APP_AWARE_NONZERO_COUNTERS:
            value = counters.get(name)
            if value is None:
                problems.append(f"missing counter: {name}")
            elif value == 0:
                problems.append(f"app-aware run but counter is zero: {name}")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("snapshot", help="path to a *.metrics.json artifact")
    parser.add_argument(
        "--app-aware",
        action="store_true",
        help="require non-zero prefetch instruments (OPT runs)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="validate a BlockService snapshot (service.* instruments, "
        "non-zero coalesced-read counters)",
    )
    parser.add_argument(
        "--net",
        action="store_true",
        help="validate a NetServer snapshot (net.* instruments, non-zero "
        "scenario counters, gauges back at zero)",
    )
    args = parser.parse_args(argv)
    if sum([args.app_aware, args.service, args.net]) > 1:
        parser.error("--app-aware, --service and --net are mutually "
                     "exclusive")

    try:
        with open(args.snapshot, encoding="utf-8") as f:
            snapshot = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_metrics_snapshot: cannot read {args.snapshot}: {e}",
              file=sys.stderr)
        return 1

    problems = check(snapshot, args.app_aware, args.service,
                     args.net)
    for p in problems:
        print(f"check_metrics_snapshot: {args.snapshot}: {p}", file=sys.stderr)
    if not problems:
        print(f"check_metrics_snapshot: {args.snapshot}: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
