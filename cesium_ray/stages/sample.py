"""Deterministic stratified sampling — up to ``n`` rows per key,
chosen by a seeded LCG hash of the row id (O3-adjacent: sampling whose
result is reproducible across processes AND expressible in SQL, unlike
``Dataset.random_sample``).

Order within a key is ``(lcg(id), id)``; the hash stays inside
[0, 2^31) so the identical arithmetic runs overflow-free as BIGINT in
the DuckDB oracle (``(id*1103515245 + 12345) % 2147483648``).

Distributed shape: ONE hash exchange on the key, vectorized rank
kernel per partition (lexsort + per-key positional rank — no per-key
Python).  Partitioning assumption: all rows of one key hash to one
partition.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .partition import group_apply

_LCG_A = 1103515245
_LCG_C = 12345
_LCG_M = 2147483648  # 2^31


def lcg_hash(ids: np.ndarray) -> np.ndarray:
    """The sampling order key: BIGINT-safe for ids < ~8.4e9 (the
    multiply peaks below 2^63); testdata ids are far below that."""
    return (ids.astype(np.int64) * _LCG_A + _LCG_C) % _LCG_M


def stratified_sample_pandas(
    df: pd.DataFrame,
    by: str = "user_id",
    id_col: str = "event_id",
    n_per_key: int = 5,
) -> pd.DataFrame:
    if not len(df):
        return df
    key = df[by].to_numpy()
    ids = df[id_col].to_numpy()
    h = lcg_hash(ids)
    order = np.lexsort((ids, h, key))
    k = key[order]
    first = np.r_[True, k[1:] != k[:-1]]
    kstarts = np.flatnonzero(first)
    kcounts = np.diff(np.r_[kstarts, len(k)])
    rank = np.arange(len(k)) - np.repeat(kstarts, kcounts) + 1
    keep = order[rank <= n_per_key]
    out = df.iloc[keep].copy()
    out["sample_rank"] = rank[rank <= n_per_key]
    return out.reset_index(drop=True)


def stratified_sample(
    ds: ray.data.Dataset,
    by: str = "user_id",
    id_col: str = "event_id",
    n_per_key: int = 5,
) -> ray.data.Dataset:
    return group_apply(
        ds,
        lambda df: stratified_sample_pandas(df, by=by, id_col=id_col,
                                            n_per_key=n_per_key),
        key=by,
    )


def priority_sample(
    ds: ray.data.Dataset,
    k: int = 50,
    id_col: str = "event_id",
    weight_expr_col: str = "value",
    extra_cols: tuple = ("user_id",),
) -> pd.DataFrame:
    """Deterministic weighted sampling WITHOUT replacement via
    priority sampling (Duffield–Lund–Thorup): each row gets priority
    ``pri = w · 2³² / h`` where ``h = (id·2654435761) mod 2³² + 1`` is
    the Knuth arithmetic hash (content-derived — partition-order
    independent and resume-stable, like the engine's Bernoulli
    sampler) and ``w = |round(value·100)| + 1`` is the integer weight;
    the sample is the top-``k`` by ``(pri DESC, id)``, and
    ``w_est = max(w, τ)`` with τ = the (k+1)-th priority is the
    classic unbiased subset-sum estimator.

    Every compared/emitted number is one IEEE multiply + one IEEE
    divide of exactly-representable integers (w·2³² ≤ 2⁵³ for
    w ≤ 2·10⁶) — no transcendental whose libm could diverge from
    DuckDB — so the selected set AND the estimator are bit-equal in
    the SQL twin.

    Scale shape: per-batch partial top-(k+1) (each block emits ≤ k+1
    rows), driver merges blocks·(k+1) rows once.  No exchange."""

    cols = [id_col, *extra_cols, weight_expr_col]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        h = ((ids.astype(np.uint64) * np.uint64(2654435761))
             % np.uint64(1 << 32) + np.uint64(1)).astype(np.float64)
        w = (np.abs(np.rint(df[weight_expr_col].to_numpy(np.float64)
                            * 100.0).astype(np.int64)) + 1)
        pri = w.astype(np.float64) * 4294967296.0 / h
        out = pd.DataFrame({id_col: ids, "w": w, "pri": pri})
        for c in extra_cols:
            out[c] = df[c].to_numpy()
        return (out.sort_values(["pri", id_col],
                                ascending=[False, True])
                .head(k + 1))

    parts = (ds.select_columns(cols)
             .map_batches(partial, batch_format="pandas")
             .to_pandas())
    top = (parts.sort_values(["pri", id_col], ascending=[False, True])
           .head(k + 1).reset_index(drop=True))
    tau = float(top["pri"].iloc[k]) if len(top) > k else 0.0
    out = top.head(k).copy()
    out["w_est"] = np.maximum(out["w"].to_numpy(np.float64), tau)
    return out[[id_col, *extra_cols, "w", "pri", "w_est"]]


def priority_sample_per_key(
    ds: ray.data.Dataset,
    k: int = 3,
    key: str = "user_id",
    id_col: str = "event_id",
    weight_expr_col: str = "value",
) -> pd.DataFrame:
    """Weighted sampling without replacement PER KEY — ``k`` rows per
    key under the same deterministic priority ``w·2³²/h`` as
    ``priority_sample`` (IEEE mul+div of exact ints, SQL-mirrorable).

    Map-side combine: each block keeps its top-``k`` per key (cells),
    ONE key exchange finalizes — the driver receives ≤ keys·k rows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(np.int64)
        h = ((ids.astype(np.uint64) * np.uint64(2654435761))
             % np.uint64(1 << 32) + np.uint64(1)).astype(np.float64)
        w = (np.abs(np.rint(df[weight_expr_col].to_numpy(np.float64)
                            * 100.0).astype(np.int64)) + 1)
        out = pd.DataFrame({key: df[key].to_numpy(np.int64),
                            id_col: ids, "w": w,
                            "pri": w.astype(np.float64)
                            * 4294967296.0 / h})
        return (out.sort_values([key, "pri", id_col],
                                ascending=[True, False, True],
                                kind="mergesort")
                .groupby(key).head(k).reset_index(drop=True))

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        df = df.sort_values([key, "pri", id_col],
                            ascending=[True, False, True],
                            kind="mergesort")
        out = df.groupby(key).head(k).reset_index(drop=True)
        out["rank"] = out.groupby(key).cumcount().to_numpy(np.int64) + 1
        return out
    got = group_apply(
        ds.select_columns([key, id_col, weight_expr_col]).map_batches(
            partial, batch_format="pandas"),
        finalize, key=key).to_pandas()
    return (got.sort_values([key, "rank"]).reset_index(drop=True))
