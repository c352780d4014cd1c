"""Interval union / merge (gaps-and-islands over VARIABLE-length
intervals) — the generalization of gap sessionization (window.py) to
intervals whose durations differ per row, where "merged" means
overlapping-or-touching (next.start ≤ running max end).

Distributed shape: ONE hash exchange on the key (group_apply), then a
vectorized per-partition kernel: sort by (key, start, end, order), a
segmented Hillis-Steele scan (log₂ n vector passes) for the running
max end — a plain cummax is wrong because islands must not leak
across keys — then reduceat aggregation per island.  Timestamps stay
int64 microseconds throughout, so the SQL twin (max() OVER ... ROWS
UNBOUNDED PRECEDING AND 1 PRECEDING + a flag-sum island id) is
bit-identical.

Partitioning assumption: all rows of one key hash to one partition.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .partition import group_apply


def _segmented_cummax(x: np.ndarray, seg_start: np.ndarray) -> np.ndarray:
    """Inclusive running max of ``x`` that resets at every True in
    ``seg_start`` — Hillis-Steele doubling, log₂ n passes, no Python
    loop over rows."""
    m = x.astype(np.int64, copy=True)
    f = seg_start.astype(bool).copy()
    n = len(m)
    shift = 1
    while shift < n:
        take = ~f[shift:]
        np.maximum(m[shift:], np.where(take, m[:-shift], m[shift:]),
                   out=m[shift:])
        f[shift:] |= f[:-shift]
        shift <<= 1
    return m


def merge_intervals(
    ds: ray.data.Dataset,
    key: str = "user_id",
    start_col: str = "start_us",
    end_col: str = "end_us",
    order_col: str = "event_id",
) -> ray.data.Dataset:
    """Union overlapping-or-touching [start, end] intervals per key.
    Emits one row per merged island: (key, start_us, end_us,
    n_intervals) with start = min start, end = max end — contiguous by
    construction."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, start_col, end_col, order_col],
                            kind="mergesort")
        g = df[key].to_numpy()
        s = df[start_col].to_numpy(np.int64)
        e = df[end_col].to_numpy(np.int64)
        new_key = np.r_[True, g[1:] != g[:-1]]
        run_max = _segmented_cummax(e, new_key)
        # island starts strictly after everything seen so far in-key
        island = new_key.copy()
        island[1:] |= (~new_key[1:]) & (s[1:] > run_max[:-1])
        heads = np.flatnonzero(island)
        return pd.DataFrame({
            key: g[heads],
            start_col: s[heads],
            end_col: np.maximum.reduceat(e, heads) if len(heads) else e[:0],
            "n_intervals": (np.r_[heads[1:], len(g)] - heads).astype(np.int64),
        })

    return group_apply(ds, fn, key=key)
