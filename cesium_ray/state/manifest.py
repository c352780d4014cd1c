"""Checkpoint / resume manifests + retention sweep (SURVEY.md §2.9 G5/G7).

Resumable-output contract (BASELINE.json north_rule "resume from
per-partition checkpoints with lineage + metrics manifests"):

  * every output product is laid out as
    ``<root>/<product>/part=<id>/…parquet`` — one directory per hash
    partition, written atomically (tmp file + rename);
  * next to it, ``<root>/_manifest/<product>/part=<id>.json`` records
    the input fingerprint, rows in/out, checksum and state;
  * a re-run recomputes a partition only when its fingerprint changed
    or its manifest is missing/not-done; finished partitions are
    skipped idempotently (SURVEY.md §2.6 O2 — partition-level
    idempotence instead of a dedup shuffle).

Retention (G5): tier outputs are partitioned ``tier=<t>/date=<YYYY-MM-DD>``;
``retention_sweep`` deletes date partitions older than the tier's
window relative to a supplied ``now`` (never wall-clock — determinism).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, asdict
from datetime import datetime, timedelta

import numpy as np
import pandas as pd

DEFAULT_RETENTION = {"raw": "7d", "1m": "30d", "1h": "365d", "1d": None}


def partition_fingerprint(df: pd.DataFrame, key_cols=None) -> str:
    """Order-insensitive deterministic fingerprint of a partition's
    input rows.  Hashes ALL columns by default (a re-run whose input
    changed only in ts/text/value for the same keys MUST recompute —
    key-only hashing silently kept stale outputs), combined with a
    multiset-safe reducer: sum mod 2⁶⁴ AND xor of row hashes plus row
    count (plain XOR cancels pair-swaps of equal multiplicity)."""
    cols = list(df.columns) if key_cols is None else [c for c in key_cols if c in df.columns]
    s = np.uint64(0)
    x = np.uint64(0)
    if cols:
        hh = pd.util.hash_pandas_object(df[list(cols)], index=False).to_numpy()
        with np.errstate(over="ignore"):
            s = hh.sum(dtype=np.uint64)
            x = np.bitwise_xor.reduce(hh)
    return f"{len(df)}-{int(s):016x}-{int(x):016x}"


@dataclass
class ManifestRow:
    partition_id: str
    input_fingerprint: str
    rows_in: int
    rows_out: int
    checksum: str
    state: str  # pending | done


class Manifest:
    """Per-product manifest directory; safe for concurrent writers
    because each partition writes its own file atomically."""

    def __init__(self, root: str, product: str):
        self.dir = os.path.join(root, "_manifest", product)
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, part_id: str) -> str:
        return os.path.join(self.dir, f"part={part_id}.json")

    def get(self, part_id: str) -> ManifestRow | None:
        p = self._path(part_id)
        if not os.path.exists(p):
            return None
        try:
            with open(p) as f:
                return ManifestRow(**json.load(f))
        except (json.JSONDecodeError, TypeError, KeyError):
            # a corrupt/truncated manifest (crash mid-write, external
            # damage) means "not done" — recompute the partition
            # idempotently instead of failing the job
            return None

    def is_done(self, part_id: str, fingerprint: str) -> bool:
        row = self.get(part_id)
        return row is not None and row.state == "done" and row.input_fingerprint == fingerprint

    def mark(self, row: ManifestRow):
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(asdict(row), f)
        os.replace(tmp, self._path(row.partition_id))

    def rows(self) -> pd.DataFrame:
        out = []
        for fn in sorted(os.listdir(self.dir)):
            if fn.endswith(".json"):
                with open(os.path.join(self.dir, fn)) as f:
                    out.append(json.load(f))
        return pd.DataFrame(out)


def _parse_window(w: str | None) -> timedelta | None:
    if w is None:
        return None
    unit = w[-1]
    n = int(w[:-1])
    return timedelta(**{{"d": "days", "h": "hours"}[unit]: n})


def retention_sweep(
    root: str, now: datetime, policy: dict[str, str | None] | None = None
) -> list[str]:
    """Delete expired ``tier=<t>/date=<YYYY-MM-DD>`` partitions under
    ``root``.  Returns deleted paths.  ``now`` must be supplied by the
    caller (no wall-clock reads — deterministic + testable)."""
    policy = policy if policy is not None else DEFAULT_RETENTION
    deleted = []
    for tier, window in policy.items():
        td = _parse_window(window)
        if td is None:
            continue
        tier_dir = os.path.join(root, f"tier={tier}")
        if not os.path.isdir(tier_dir):
            continue
        cutoff = (now - td).date()
        for d in sorted(os.listdir(tier_dir)):
            if not d.startswith("date="):
                continue
            try:
                day = datetime.strptime(d[5:], "%Y-%m-%d").date()
            except ValueError:
                continue
            if day < cutoff:
                path = os.path.join(tier_dir, d)
                shutil.rmtree(path)
                deleted.append(path)
    return deleted
