"""Monitoring-timeseries operators Ray Data lacks natively:
PromQL-style counter rate (reset-aware ``increase``/``rate``) and
min-max downsampling (the rollup real TSDBs keep for rendering).

Both ride the engine's one wide primitive (``group_apply`` conv-hash
exchange) with fully vectorized per-partition kernels, and both are
defined in exact integer space (values are quantized k/100 doubles)
so every emitted number is bit-reproducible by a SQL oracle.

counter_rate semantics (PromQL ``increase``): per series ordered by
(ts, id), a negative delta is a counter reset — the counter restarted
at 0 and climbed to the current value, so the current value (not the
delta) is the contribution.  ``rate`` divides by the observed span.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .partition import group_apply


def counter_rate(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    order_col: str = "event_id",
) -> ray.data.Dataset:
    """Per series: ``n_resets``, ``total_increase`` (reset-aware), and
    ``rate_per_sec`` over the observed span (NaN for a single point)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col, order_col], kind="mergesort")
        k = np.rint(df[val_col].to_numpy(np.float64) * 100.0).astype(np.int64)
        tus = df[ts_col].to_numpy("datetime64[us]").view(np.int64)
        g = df[key].to_numpy()
        new = np.r_[True, g[1:] != g[:-1]]
        d = np.diff(k, prepend=np.int64(0))
        contrib = np.where(d >= 0, d, k)   # reset → counter restarted at 0
        contrib[new] = 0                   # first point of each series
        resets = (~new) & (d < 0)
        gid = np.cumsum(new) - 1
        n = int(gid[-1]) + 1 if len(gid) else 0
        inc_k = np.bincount(gid, weights=contrib, minlength=n).astype(np.int64)
        n_resets = np.bincount(gid[resets], minlength=n).astype(np.int64)
        t_min = np.minimum.reduceat(tus, np.flatnonzero(new))
        t_max = np.maximum.reduceat(tus, np.flatnonzero(new))
        dur = (t_max - t_min) / 1000000.0
        inc = (inc_k.astype(np.float64)) / 100.0
        rate = np.where(dur > 0.0, inc / np.where(dur > 0.0, dur, 1.0), np.nan)
        return pd.DataFrame({
            key: g[new],
            "n_resets": n_resets,
            "total_increase": inc,
            "rate_per_sec": rate,
        })

    return group_apply(ds, fn, key=key)


def minmax_downsample(
    ds: ray.data.Dataset,
    bucket_s: int = 3600,
    key: str = "user_id",
    ts_col: str = "ts",
    val_col: str = "value",
    order_col: str = "event_id",
) -> ray.data.Dataset:
    """Per (series, time bucket) keep the min-value and the max-value
    ROWS (ties → earliest (ts, order)); a one-point bucket yields both
    kinds for the same source row.  This is the rollup TSDBs retain
    for lossless-envelope rendering."""
    step = np.int64(bucket_s) * 1_000_000

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        tus = df[ts_col].to_numpy("datetime64[us]").view(np.int64)
        df = df.assign(_b=(tus // step) * step)
        asc = df.sort_values([key, "_b", val_col, ts_col, order_col],
                             ascending=[True, True, True, True, True],
                             kind="mergesort").drop_duplicates([key, "_b"])
        desc = df.sort_values([key, "_b", val_col, ts_col, order_col],
                              ascending=[True, True, False, True, True],
                              kind="mergesort").drop_duplicates([key, "_b"])
        out = pd.concat([asc.assign(kind="min"), desc.assign(kind="max")])
        out = out[[key, "_b", "kind", ts_col, order_col, val_col]]
        out = out.rename(columns={"_b": "bucket_us"})
        return out.reset_index(drop=True)

    return group_apply(ds, fn, key=key)
