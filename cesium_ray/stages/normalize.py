"""Input normalizer M1/M2 + channel derivation (SURVEY.md §2.2).

``normalize_turns`` is a stateless zero-copy-Arrow ``map_batches``
transform: casts ``ts`` to timestamp[us], adds ``text_len`` =
utf8_length(text) (the second measurement channel), validates column
presence.  Per-series time ordering (M2 — the text-equality invariant
ordering key (conv_id, turn_idx)) is enforced inside the grouped
stages, never assumed of input file order (SURVEY §2.11).

``derive_points`` = hash-partitioned groupby on conv_id (G1) +
vectorized latency/channel derivation (oracle/rollup.py::
derive_channels_pandas — shared kernel, parity by construction).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..oracle.rollup import derive_channels_pandas
from .partition import group_apply


def normalize_batch(batch: pa.Table) -> pa.Table:
    cols = set(batch.column_names)
    if "ts" not in cols or "conv_id" not in cols:
        raise ValueError(f"turns batch missing required columns: {batch.column_names}")
    if batch["ts"].type != pa.timestamp("us"):
        batch = batch.set_column(
            batch.schema.get_field_index("ts"),
            "ts",
            batch["ts"].cast(pa.timestamp("us")),
        )
    if "text" in cols and "text_len" not in cols:
        # int32, not float64: text_len rides the conv exchange in the
        # flagship — half the shuffled bytes; kernels upcast on use
        batch = batch.append_column(
            "text_len", pc.cast(pc.utf8_length(batch["text"]), pa.int32())
        )
    return batch


def normalize_turns(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(normalize_batch, batch_format="pyarrow", zero_copy_batch=True)


def derive_points(
    turns: ray.data.Dataset,
    by: str = "conv_id",
    order=("turn_idx",),
    **kw,
) -> ray.data.Dataset:
    """turns → long-format SERIES_POINTS (channels: turn_latency,
    text_len[, value]).  One conv_id-keyed hash shuffle."""
    keep = [by, *order, "ts"] + (
        ["text"] if "text" in turns.columns() else []
    ) + (["value"] if "value" in turns.columns() else [])
    pruned = turns.select_columns(list(dict.fromkeys(keep)))
    return group_apply(
        pruned,
        lambda df: derive_channels_pandas(df, by=by, order=order),
        key=by,
        **kw,
    )


def union_by_name(
    a: ray.data.Dataset, b: ray.data.Dataset
) -> ray.data.Dataset:
    """Schema-evolution-safe union (SQL ``UNION ALL BY NAME``):
    aligns both sides to the union of their column sets — columns
    missing on a side surface as nulls — so a pipeline can ingest old
    and new partition layouts in one pass.  Column order: left's
    columns, then right-only columns.  Note pandas represents a
    missing int column as NaN (float) — downstream casts decide the
    final type, as with any schema migration."""
    import pandas as pd

    ca = list(a.schema().names)
    cb = list(b.schema().names)
    cols = ca + [c for c in cb if c not in ca]

    def align(df: pd.DataFrame) -> pd.DataFrame:
        return df.reindex(columns=cols)

    return (a.map_batches(align, batch_format="pandas")
            .union(b.map_batches(align, batch_format="pandas")))


def minmax_scale_per_key(
    ds: ray.data.Dataset,
    key: str = "user_id",
    id_col: str = "event_id",
    val_col: str = "value",
) -> ray.data.Dataset:
    """Per-key min-max feature scaling WITHOUT shuffling rows: pass 1
    reduces each block to its (key, min, max) cells (one tiny
    key-keyed cell exchange), the per-key extrema broadcast via
    ``ray.put``, and pass 2 is a stateless map emitting
    ``(x − min)/(max − min)`` — constant keys scale to NULL (SQL
    NULLIF semantics).  All arithmetic in k-quantized int space until
    the one mirrored float division."""
    import numpy as np
    import pandas as pd
    import ray as _ray

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        k = np.rint(df[val_col].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        g = (pd.DataFrame({key: df[key], "k": k})
             .groupby(key, as_index=False)
             .agg(lo=("k", "min"), hi=("k", "max")))
        for c in ("lo", "hi"):
            g[c] = g[c].astype(np.int64)
        return g

    ext = group_apply(
        ds.select_columns([key, val_col]).map_batches(
            cells, batch_format="pandas"),
        lambda df: df.groupby(key, as_index=False).agg(
            lo=("lo", "min"), hi=("hi", "max")),
        key=key,
        batch_format="pandas").to_pandas()
    keys = ext[key].to_numpy(np.int64)
    order = np.argsort(keys)
    ref = _ray.put((keys[order],
                    ext["lo"].to_numpy(np.int64)[order],
                    ext["hi"].to_numpy(np.int64)[order]))

    def scale(df: pd.DataFrame) -> pd.DataFrame:
        ks, lo, hi = _ray.get(ref)
        u = df[key].to_numpy(np.int64)
        pos = np.searchsorted(ks, u)
        x = np.rint(df[val_col].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        span = (hi[pos] - lo[pos]).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = (x - lo[pos]).astype(np.float64) / span
        s[span == 0] = np.nan
        return pd.DataFrame({key: u,
                             id_col: df[id_col].to_numpy(np.int64),
                             "scaled": s})

    return ds.select_columns([key, id_col, val_col]).map_batches(
        scale, batch_format="pandas")


def quantile_transform_global(
    ds: ray.data.Dataset,
    id_col: str = "event_id",
    val_col: str = "value",
) -> ray.data.Dataset:
    """Global quantile (rank) transform — SQL ``percent_rank() OVER
    (ORDER BY value)`` semantics, tie-aware: each row maps to
    (rows strictly below)/(n − 1) — the preprocessing step that makes
    a feature uniform-distributed.

    Rows never shuffle: pass 1 reduces blocks to distinct
    k-quantized-value cells with counts (one value-keyed cell
    exchange, bounded by DISTINCT values, not rows); the driver
    prefix-sums the sorted cells and broadcasts the (value → below)
    table; pass 2 is a stateless searchsorted map."""
    import numpy as np
    import pandas as pd
    import ray as _ray

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        k = np.rint(df[val_col].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        g = pd.DataFrame({"k": k}).groupby("k", as_index=False).size()
        g["size"] = g["size"].astype(np.int64)
        return g.rename(columns={"size": "c"})

    merged = group_apply(
        ds.select_columns([val_col]).map_batches(
            cells, batch_format="pandas"),
        lambda df: df.groupby("k", as_index=False)["c"].sum(),
        key="k",
        batch_format="pandas").to_pandas().sort_values("k")
    ks = merged["k"].to_numpy(np.int64)
    cnt = merged["c"].to_numpy(np.int64)
    below = np.r_[np.int64(0), np.cumsum(cnt)[:-1]]
    n = int(cnt.sum())
    ref = _ray.put((ks, below, n))

    def rank_map(df: pd.DataFrame) -> pd.DataFrame:
        kv, bl, total = _ray.get(ref)
        x = np.rint(df[val_col].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        pos = np.searchsorted(kv, x)
        if total <= 1:
            # SQL percent_rank() is 0 on a single-row input; avoid 0/0
            pct = np.zeros(len(x), np.float64)
        else:
            pct = bl[pos].astype(np.float64) / np.float64(total - 1)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            "value_k": x,
            "pct_rank": pct,
        })

    return ds.select_columns([id_col, val_col]).map_batches(
        rank_map, batch_format="pandas")


def target_encode_loo(
    ds: ray.data.Dataset,
    cat_col: str = "event_type",
    id_col: str = "event_id",
    val_col: str = "value",
) -> ray.data.Dataset:
    """Leave-one-out target encoding — the category-to-number feature
    transform that avoids self-leakage: each row gets
    ``(Σ_cat − x_row)/(n_cat − 1)`` (NULL for singleton categories).
    Exact int64 category sums via one tiny cell exchange (bounded by
    the alphabet), broadcast, then a stateless map — rows never
    shuffle; one mirrored float expression."""
    import numpy as np
    import pandas as pd
    import ray as _ray

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        k = np.rint(df[val_col].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        g = (pd.DataFrame({cat_col: df[cat_col], "k": k})
             .groupby(cat_col, as_index=False)
             .agg(s=("k", "sum"), n=("k", "size")))
        for c in ("s", "n"):
            g[c] = g[c].astype(np.int64)
        return g

    ext = group_apply(
        ds.select_columns([cat_col, val_col]).map_batches(
            cells, batch_format="pandas"),
        lambda df: df.groupby(cat_col, as_index=False).agg(
            s=("s", "sum"), n=("n", "sum")),
        key=cat_col,
        batch_format="pandas").to_pandas().sort_values(cat_col)
    ref = _ray.put((ext[cat_col].to_numpy(object),
                    ext["s"].to_numpy(np.int64),
                    ext["n"].to_numpy(np.int64)))

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        cats, s, n = _ray.get(ref)
        idx = pd.Series(np.arange(len(cats)), index=cats)
        pos = idx[df[cat_col].to_numpy(object)].to_numpy(np.int64)
        x = np.rint(df[val_col].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        denom = (n[pos] - 1).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            enc = ((s[pos] - x).astype(np.float64) / denom) / 100.0
        enc[n[pos] == 1] = np.nan
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            cat_col: df[cat_col].to_numpy(object),
            "loo_mean": enc,
        })

    return ds.select_columns([id_col, cat_col, val_col]).map_batches(
        encode, batch_format="pandas")


def zscore_scale_per_key(
    ds: ray.data.Dataset,
    key: str = "user_id",
    id_col: str = "event_id",
    val_col: str = "value",
) -> ray.data.Dataset:
    """Per-key standard (z-score) scaling — the third scaler next to
    min-max and quantile: ``(x − μ)/σ`` with population σ from exact
    int64 (n, Σx, Σx²) cells; zero-variance keys scale to NULL.
    Same cells-broadcast two-pass shape (rows never shuffle); the
    float expression ``(x/100 − mean)/sd`` with
    ``mean = (S/n)/100``, ``sd = sqrt(q/n − (S/n)·(S/n))/100``
    mirrors the SQL twin op-for-op."""
    import numpy as np
    import pandas as pd
    import ray as _ray

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        k = np.rint(df[val_col].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        g = (pd.DataFrame({key: df[key], "k": k, "kk": k * k})
             .groupby(key, as_index=False)
             .agg(n=("k", "size"), s=("k", "sum"), q=("kk", "sum")))
        for c in ("n", "s", "q"):
            g[c] = g[c].astype(np.int64)
        return g

    ext = group_apply(
        ds.select_columns([key, val_col]).map_batches(
            cells, batch_format="pandas"),
        lambda df: df.groupby(key, as_index=False).agg(
            n=("n", "sum"), s=("s", "sum"), q=("q", "sum")),
        key=key,
        batch_format="pandas").to_pandas().sort_values(key)
    ks = ext[key].to_numpy(np.int64)
    nf = ext["n"].to_numpy(np.int64).astype(np.float64)
    sf = ext["s"].to_numpy(np.int64).astype(np.float64)
    qf = ext["q"].to_numpy(np.int64).astype(np.float64)
    mean = (sf / nf) / 100.0
    sd = np.sqrt(qf / nf - (sf / nf) * (sf / nf)) / 100.0
    ref = _ray.put((ks, mean, sd))

    def scale(df: pd.DataFrame) -> pd.DataFrame:
        kk, mu, sg = _ray.get(ref)
        u = df[key].to_numpy(np.int64)
        pos = np.searchsorted(kk, u)
        xf = (np.rint(df[val_col].to_numpy(np.float64) * 100.0)
              .astype(np.int64).astype(np.float64)) / 100.0
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (xf - mu[pos]) / sg[pos]
        z[sg[pos] == 0.0] = np.nan
        return pd.DataFrame({key: u,
                             id_col: df[id_col].to_numpy(np.int64),
                             "z": z})

    return ds.select_columns([key, id_col, val_col]).map_batches(
        scale, batch_format="pandas")


def one_hot_encode(
    ds: ray.data.Dataset,
    cat_col: str = "event_type",
    id_col: str = "event_id",
) -> ray.data.Dataset:
    """One-hot encoding of a bounded-alphabet categorical: one int64
    indicator column per category (``oh_<value>``, sorted category
    order — deterministic schema).  The alphabet comes from a
    distinct-cell pass (bounded by the alphabet, not rows), then a
    stateless vectorized map — rows never shuffle.  Guard: raises if
    the alphabet exceeds ``MAX_ONE_HOT`` (wide schemas belong to the
    hashing trick, not one-hot)."""
    import numpy as np
    import pandas as pd
    import ray as _ray

    MAX_ONE_HOT = 256

    def distinct_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({cat_col: df[cat_col].unique()})

    alphabet = np.sort(
        ds.select_columns([cat_col])
        .map_batches(distinct_partial, batch_format="pandas")
        .to_pandas()[cat_col].unique())
    if len(alphabet) > MAX_ONE_HOT:
        raise ValueError(
            f"alphabet {len(alphabet)} > {MAX_ONE_HOT}: use feature "
            "hashing for open-ended categoricals")
    ref = _ray.put(alphabet)

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        cats = _ray.get(ref)
        out = {id_col: df[id_col].to_numpy(np.int64)}
        v = df[cat_col].to_numpy(object)
        for c in cats:
            out[f"oh_{c}"] = (v == c).astype(np.int64)
        return pd.DataFrame(out)

    return ds.select_columns([id_col, cat_col]).map_batches(
        encode, batch_format="pandas")
