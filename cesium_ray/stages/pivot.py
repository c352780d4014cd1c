"""Pivot aggregation: long (key, category, value) → one wide row per
key with per-category count / exact-sum columns.

Scale shape: a map-side COMBINER first (per-batch groupby collapses
each batch to ≤ keys×categories partial rows — the exchange carries
partials, never raw events), then one hash exchange on the key and a
vectorized widen per partition.  Exact sums via int64 on
``round(v·scale)`` (order-independent across partials), mirroring the
SQL oracle's ``sum(CAST(round(v*scale) AS BIGINT)) FILTER (...)``.

The category domain is an explicit argument (dictionary-style column):
output schema must be static; unseen categories yield 0-count columns,
all-null value groups yield NaN sums like SQL's NULL.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .partition import group_apply


def pivot_aggregate(
    ds: ray.data.Dataset,
    key: str = "user_id",
    col: str = "event_type",
    categories: tuple = (),
    value: str = "value",
    value_scale: int = 100,
) -> ray.data.Dataset:
    cats = tuple(categories)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value].to_numpy(dtype=np.float64)
        ok = ~np.isnan(v)
        iv = np.zeros(len(v), dtype=np.int64)
        iv[ok] = np.round(v[ok] * value_scale).astype(np.int64)
        g = pd.DataFrame({key: df[key].to_numpy(), col: df[col].to_numpy(),
                          "cnt": np.ones(len(df), dtype=np.int64),
                          "ivsum": iv, "vcnt": ok.astype(np.int64)})
        return g.groupby([key, col], as_index=False).sum()

    partials = ds.map_batches(partial, batch_format="pandas")

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            out = {key: pd.Series(dtype="int64")}
            for t in cats:
                out[f"{t}_cnt"] = pd.Series(dtype="int64")
                out[f"{t}_vsum"] = pd.Series(dtype="float64")
            return pd.DataFrame(out)
        g = df.groupby([key, col], as_index=False).sum()
        keys = np.sort(g[key].unique())
        out = pd.DataFrame({key: keys})
        for t in cats:
            sub = g[g[col] == t].set_index(key)
            cnt = sub["cnt"].reindex(keys).fillna(0).astype(np.int64)
            ivs = sub["ivsum"].reindex(keys)
            vcnt = sub["vcnt"].reindex(keys).fillna(0)
            vsum = ivs.to_numpy(dtype=np.float64) / float(value_scale)
            vsum = np.where(vcnt.to_numpy() == 0, np.nan, vsum)
            out[f"{t}_cnt"] = cnt.to_numpy()
            out[f"{t}_vsum"] = vsum
        return out

    return group_apply(partials, widen, key=key)


def melt(
    ds: ray.data.Dataset,
    id_cols: list,
    value_cols: list,
    var_col: str = "measure",
    val_col: str = "value_k",
) -> ray.data.Dataset:
    """UNPIVOT — the wide→long inverse of ``pivot_aggregate``: each
    input row yields one output row per entry of ``value_cols``, with
    the measure name in ``var_col`` and its k/100-quantized int64
    value in ``val_col`` (nulls dropped, SQL-UNION-ALL semantics).
    Stateless per-batch ``pd.melt`` — embarrassingly parallel, no
    exchange; output is len(value_cols)× the input rows."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        long = df[list(id_cols) + list(value_cols)].melt(
            id_vars=list(id_cols), var_name=var_col, value_name="_v")
        long = long[long["_v"].notna()].reset_index(drop=True)
        long[val_col] = np.rint(
            long["_v"].to_numpy(np.float64) * 100.0).astype(np.int64)
        return long.drop(columns=["_v"])

    return ds.map_batches(fn, batch_format="pandas")
