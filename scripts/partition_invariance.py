#!/usr/bin/env python
"""Check that no query result depends on the partition count.

Every keyed exchange takes P from ``partition.partition_count()``.  This
script runs ``driver_check.py`` twice, in fresh processes on a 4-CPU Ray
cluster, with ``partition_count`` pinned to 1 and to 7, and diffs the
(query, result digest) pairs of the two runs:

    python scripts/partition_invariance.py                  # sf0.01, ~10 min
    python scripts/partition_invariance.py SF_DIR           # another scale factor

The cluster has 4 CPUs because on 1 or 2, Ray Data 2.49's hash joins
(the lineitem ⋈ orders queries) hang whatever ``num_partitions`` they
get — a read task holds a CPU while the join's aggregator actors and
the other side's read wait for theirs.

Exit codes: 0 the pairs are identical, 1 they differ, 2 a run aborted
or hung before its ``FAILURES:`` line (Ray core aborts happen on small
boxes; rerun).
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys

PS = (1, 7)
# pin P in every cesium_ray module that bound the name, then run
_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import driver_check
import cesium_ray.stages.partition
p = int(sys.argv[3])
for name, mod in list(sys.modules.items()):
    if name.startswith("cesium_ray") and hasattr(mod, "partition_count"):
        mod.partition_count = lambda: p
driver_check.main(sys.argv[2], None, 4)
"""


def pairs(out: str) -> list[str] | None:
    """Sorted "query digest" lines of one driver_check.py stdout, or
    None when it never printed its ``FAILURES:`` line."""
    if "FAILURES:" not in out:
        return None
    return sorted(" ".join(line.split()[:2]) for line in out.splitlines()
                  if line.startswith("  "))


def run(sf: str, p: int) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        return subprocess.run([sys.executable, "-c", _RUN, here, sf, str(p)],
                              capture_output=True, text=True, timeout=3600).stdout
    except subprocess.TimeoutExpired:
        return ""  # a hung run has no summary line: reported as aborted


def main(sf="/root/testdata/sf0.01"):
    a, b = (pairs(run(sf, p)) for p in PS)
    if a is None or b is None:
        print("a run printed no FAILURES: line: aborted, rerun")
        sys.exit(2)
    diff = list(difflib.unified_diff(a, b, f"P = {PS[0]}", f"P = {PS[1]}",
                                     lineterm="", n=0))
    print("\n".join(diff) or f"{len(a)} (query, digest) pairs identical")
    sys.exit(1 if diff else 0)


if __name__ == "__main__":
    main(*sys.argv[1:])
