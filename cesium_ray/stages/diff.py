"""Dataset diff / anti-entropy (SURVEY §2.12 X62).

Compare two keyed datasets (e.g. a rollup tier before and after a
backfill, or two pipeline versions' outputs) and emit one row per
divergent key: present only on one side, or present on both with
differing values.  The verification primitive behind "did the rerun
reproduce the table bit-for-bit, and if not, where".

Shape: tag each side map-side, union (no data movement), ONE key-hash
exchange co-locates both sides' rows for a key, and a vectorized
per-partition outer merge classifies — matching keys with equal values
produce NO output, so the result is sized by the drift, not the data.
Assumes keys are unique within each side (the rollup-table contract).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .partition import group_apply


def dataset_diff(
    a: ray.data.Dataset,
    b: ray.data.Dataset,
    key: str,
    vals: list,
) -> ray.data.Dataset:
    """Rows ``(key, status)`` with status ∈ {'only_a', 'only_b',
    'mismatch'} for every key where the sides disagree; equal rows are
    dropped inside the partition.  Values compare by equality with
    NaN == NaN (both-missing is equal)."""

    def tag(side: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = df[[key, *vals]].copy()
            out["_side"] = np.full(len(df), side, dtype=np.int8)
            return out
        return fn

    u = a.map_batches(tag(0), batch_format="pandas").union(
        b.map_batches(tag(1), batch_format="pandas"))

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["_side"] == 0]
        right = df[df["_side"] == 1]
        m = left.merge(right, on=key, how="outer", suffixes=("_a", "_b"),
                       indicator=True)
        status = np.where(
            m["_merge"].to_numpy() == "left_only", "only_a",
            np.where(m["_merge"].to_numpy() == "right_only", "only_b",
                     "match"))
        both = status == "match"
        if both.any():
            neq = np.zeros(len(m), dtype=bool)
            for v in vals:
                x = m[f"{v}_a"].to_numpy()
                y = m[f"{v}_b"].to_numpy()
                if x.dtype.kind == "f" or y.dtype.kind == "f":
                    x = x.astype(np.float64)
                    y = y.astype(np.float64)
                    neq |= ~((x == y) | (np.isnan(x) & np.isnan(y)))
                else:
                    neq |= x != y
            status = np.where(both & neq, "mismatch", status)
        keep = status != "match"
        return pd.DataFrame({
            key: m[key].to_numpy()[keep],
            "status": pd.Series(status[keep], dtype=object),
        })

    return group_apply(u, classify, key=key)
