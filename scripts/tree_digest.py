#!/usr/bin/env python
"""Print ``sha256  relpath`` for every flagship product file under
OUT_ROOT, sorted by path, so that two output trees compare with one
``diff``:

    python scripts/tree_digest.py OUT_A > a.txt
    python scripts/tree_digest.py OUT_B > b.txt
    diff a.txt b.txt

Products: ``tier=*`` (rollup tiers and ``raw``), ``gapfilled_*``,
``chunks``, ``features`` and ``features_ls``.  The manifest is left
out: it holds timings and pids.
"""

from __future__ import annotations

import glob
import hashlib
import os
import sys

PRODUCTS = ("tier=*", "gapfilled_*", "chunks", "features", "features_ls")


def tree_digest(root: str) -> list[tuple[str, str]]:
    """(sha256, path relative to ``root``) of every product file, sorted
    by path."""
    files = set()
    for pat in PRODUCTS:
        for top in glob.glob(os.path.join(root, pat)):
            for d, _, names in os.walk(top):
                files.update(os.path.join(d, n) for n in names)
    out = []
    for f in sorted(files):
        with open(f, "rb") as fh:
            out.append((hashlib.sha256(fh.read()).hexdigest(), os.path.relpath(f, root)))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    for digest, rel in tree_digest(argv[0]):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
