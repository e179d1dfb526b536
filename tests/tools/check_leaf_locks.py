#!/usr/bin/env python3
"""Leaf-lock rule on the real tree: the lock-order graph has no edge.

DESIGN.md says every vizcache mutex is a leaf lock: no code path acquires
two of them at once. The analyzer's lock-graph pass reports lock-order
cycles; this check is stricter and fails on any edge of the graph it writes
with --lock-order-json (one lock acquired, directly or through calls, while
another is held), printing each edge with its call chain.

Run directly (python3 tests/tools/check_leaf_locks.py) or via ctest -L tools.
Exit status: 0 no edge, 1 edges, 2 the analyzer failed.
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
ANALYZE = os.path.join(REPO, "tools", "analyze", "analyze.py")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "lock_order.json")
        proc = subprocess.run(
            [sys.executable, ANALYZE, "--root", REPO,
             "--lock-order-json", graph],
            capture_output=True, text=True)
        if proc.returncode == 2 or not os.path.exists(graph):
            sys.stderr.write(proc.stdout + proc.stderr)
            return 2
        with open(graph, encoding="utf-8") as f:
            edges = json.load(f)["edges"]
    for e in edges:
        print(f"{e['file']}:{e['line']}: {e['acquired']} acquired while "
              f"{e['held']} is held, via {' -> '.join(e['via'])}")
    if edges:
        print(f"check_leaf_locks: {len(edges)} lock-order edge(s); every "
              "lock must be a leaf", file=sys.stderr)
        return 1
    print("check_leaf_locks: ok (the lock-order graph has no edges)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
