"""Sketch-accelerated EXACT operators: Misra-Gries heavy hitters with
an exact recount pass, and a Bloom-prefiltered semi-join.

Both follow the same scale pattern — an approximate, mergeable,
broadcast-size summary bounds the candidate set, then one exact pass
over only the candidates produces a provably exact answer:

- heavy_hitters: two streaming map passes; the only exchanges are
  tiny keyed pre-combines of summary cells (never raw rows).  Pass 1
  compresses each block to a Misra-Gries summary (≤ capacity entries,
  error ≤ n_block/(cap+1)); merged summaries keep every item with true
  frequency ≥ threshold (capacity is sized 2/threshold_frac so the
  summed error stays under threshold/2).  Pass 2 recounts ONLY the
  candidates via a broadcast id set + per-block bincount partials.
  Both passes reduce their block partials through an id-keyed
  pre-combine so the driver receives ≤ distinct-candidate rows, not
  blocks × capacity.

- bloom_semi_join: the small side becomes a bit array (~10 bits/key
  vs 64+ for the raw keys — the broadcastable form at 10⁹ keys); the
  big side drops non-members map-side (no false negatives), and a
  real hash join on the survivors removes the ~1% false positives, so
  the output is the exact semi-join with the exchange shrunk to the
  match fraction.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .partition import group_apply, partition_count


# ---------------------------------------------------------------- MG

def _mg_compress(ids: np.ndarray, counts: np.ndarray, capacity: int):
    """Misra-Gries compression of exact (id, count) pairs: subtract
    the (capacity+1)-th largest count from all, keep positives.  The
    subtracted amount d satisfies d·(capacity+1) ≤ Σcounts, giving the
    classic error bound."""
    if len(ids) <= capacity:
        return ids, counts
    order = np.argsort(counts, kind="stable")[::-1]
    d = counts[order[capacity]]
    keep = counts > d
    return ids[keep], counts[keep] - d


def heavy_hitters(
    ds: ray.data.Dataset,
    col: str = "user_id",
    threshold_frac: float = 0.008,
) -> pd.DataFrame:
    """EXACT set of items occurring in ≥ ``threshold_frac`` of rows,
    with exact counts — via mergeable Misra-Gries candidate summaries
    plus a broadcast recount.  Returns (col, n) for items with
    n ≥ ceil(threshold_frac · total_rows)."""
    capacity = int(np.ceil(2.0 / threshold_frac))

    def summarize(tbl: pa.Table) -> pa.Table:
        v = tbl[col].to_numpy(zero_copy_only=False)
        ids, counts = np.unique(v, return_counts=True)
        cids, ccounts = _mg_compress(ids, counts.astype(np.int64), capacity)
        if len(cids) == 0 and len(ids):
            # fully-uniform block compressed to nothing — keep one id at
            # residual 0 so the block's row count still reaches the driver
            cids, ccounts = ids[:1], np.zeros(1, np.int64)
        block_n = np.zeros(len(cids), np.int64)
        if len(block_n):
            block_n[0] = len(v)  # first summary row carries the block size
        return pa.table({
            col: pa.array(cids),
            "_residual": pa.array(ccounts, pa.int64()),
            "_block_n": pa.array(block_n),
        })

    # keyed pre-combine: the driver receives ≤ distinct surviving ids,
    # never blocks × capacity summary rows (residuals and block sizes
    # are plain sums, so MG merge semantics are unchanged)
    parts = group_apply(
        ds.map_batches(summarize, batch_format="pyarrow"),
        lambda df: df.groupby(col, as_index=False)[
            ["_residual", "_block_n"]].sum(),
        key=col).to_pandas()
    if "_block_n" not in parts.columns:  # zero input blocks
        return pd.DataFrame({col: np.array([], np.int64),
                             "n": np.zeros(0, np.int64)})
    total = int(parts["_block_n"].sum())
    thresh = int(np.ceil(threshold_frac * total))
    merged = parts.groupby(col, as_index=False)["_residual"].sum()
    # merged summary error < total·threshold_frac/2 < thresh, so every
    # true heavy hitter has a positive merged residual → candidates
    cand = np.sort(merged[col].to_numpy())
    if len(cand) == 0:  # empty input dataset
        return pd.DataFrame({col: cand, "n": np.zeros(0, np.int64)})
    cand_ref = ray.put(cand)

    def recount(tbl: pa.Table) -> pa.Table:
        c = ray.get(cand_ref)
        v = tbl[col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(c, v)
        pos[pos >= len(c)] = 0
        hit = c[pos] == v
        n = np.bincount(pos[hit], minlength=len(c)).astype(np.int64)
        nz = np.flatnonzero(n)  # absent candidate ≡ count 0 < thresh
        return pa.table({col: pa.array(c[nz]),
                         "_n": pa.array(n[nz], pa.int64())})

    counts = (group_apply(
        ds.map_batches(recount, batch_format="pyarrow"),
        lambda df: df.groupby(col, as_index=False)["_n"].sum(),
        key=col).to_pandas()
        .groupby(col, as_index=False)["_n"].sum())
    out = counts[counts["_n"] >= thresh].rename(columns={"_n": "n"})
    return out.sort_values(col).reset_index(drop=True)


# ------------------------------------------------------------- Bloom

_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """64-bit avalanche — the one shared splitmix64 (dedup.py)."""
    from .dedup import _splitmix64

    return _splitmix64(x.astype(np.uint64))


class BloomFilter:
    """Packed-uint64 Bloom filter with double hashing; build and probe
    are fully vectorized.  ~10 bits/key at k=7 → ~1% false positives;
    never a false negative."""

    def __init__(self, n_keys: int, bits_per_key: int = 10, k: int = 7):
        self.m = np.uint64(max(64, n_keys * bits_per_key))
        self.k = k
        self.words = np.zeros((int(self.m) + 63) // 64, np.uint64)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        u = keys.astype(np.int64).view(np.uint64)
        h1 = _mix64(u)
        h2 = _mix64(u ^ _MIX2) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return (h1[None, :] + i * h2[None, :]) % self.m  # (k, n)

    def add(self, keys: np.ndarray) -> None:
        pos = self._positions(keys).ravel()
        np.bitwise_or.at(self.words, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(0, bool)
        pos = self._positions(keys)
        bits = (self.words[(pos >> np.uint64(6)).astype(np.int64)]
                >> (pos & np.uint64(63))) & np.uint64(1)
        return bits.all(axis=0)


def bloom_semi_join(
    big: ray.data.Dataset,
    keys: np.ndarray,
    col: str = "user_id",
    _verify: str = "join",
) -> ray.data.Dataset:
    """Exact semi-join of ``big`` against a key set, with a broadcast
    Bloom prefilter shrinking the verify join's input to roughly the
    true match fraction.  ``_verify="join"`` runs a real hash join on
    the survivors (the at-scale path); ``"none"`` returns the bloom
    survivors (supersets output by ≤ FP rate — for tests)."""
    keys = np.unique(np.asarray(keys))  # a key SET: dedup so the
    # verify join cannot fan out duplicated matches
    bloom = BloomFilter(len(keys))
    bloom.add(keys)
    bloom_ref = ray.put(bloom)

    def prefilter(tbl: pa.Table) -> pa.Table:
        b = ray.get(bloom_ref)
        v = tbl[col].to_numpy(zero_copy_only=False)
        return tbl.filter(pa.array(b.contains(v)))

    survivors = big.map_batches(prefilter, batch_format="pyarrow")
    if _verify == "none":
        return survivors
    right = ray.data.from_pandas(pd.DataFrame({col: keys}))
    return survivors.join(right, "inner", num_partitions=partition_count(),
                          on=(col,))


# -------------------------------------------------- windowed top-k

def topk_per_window(
    ds: ray.data.Dataset,
    k: int = 3,
    bucket_s: int = 86400,
    key: str = "user_id",
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Exact top-k hottest keys per time bucket (count desc, key asc
    tie-break).  Map-side partial counts compress each block to its
    distinct (bucket, key) cells BEFORE the exchange, so the shuffle
    carries cells, not rows; one bucket-keyed exchange then merges
    partials and ranks — the bucket count bounds reduce fan-in."""

    step = np.int64(bucket_s) * 1_000_000

    def partial(tbl: pa.Table) -> pa.Table:
        tus = tbl[ts_col].to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").view(np.int64)
        b = (tus // step) * step
        v = tbl[key].to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({"bucket_us": pa.array([], pa.int64()),
                             key: tbl[key].slice(0, 0),
                             "_cnt": pa.array([], pa.int64())})
        # dtype-agnostic cell compression (string keys included):
        # factorize BOTH axes, pack codes into one overflow-safe int64
        kv, code = np.unique(v, return_inverse=True)
        bv, bcode = np.unique(b, return_inverse=True)
        cell = bcode * np.int64(len(kv)) + code
        uc, counts = np.unique(cell, return_counts=True)
        return pa.table({
            "bucket_us": pa.array(bv[uc // len(kv)], pa.int64()),
            key: pa.array(kv[uc % len(kv)]),
            "_cnt": pa.array(counts.astype(np.int64), pa.int64()),
        })

    def rank(df: pd.DataFrame) -> pd.DataFrame:
        m = df.groupby(["bucket_us", key], as_index=False)["_cnt"].sum()
        m = m.sort_values(["bucket_us", "_cnt", key],
                          ascending=[True, False, True], kind="mergesort")
        m["rank"] = m.groupby("bucket_us").cumcount() + 1
        out = m[m["rank"] <= k].rename(columns={"_cnt": "n"})
        return out.reset_index(drop=True)

    cells = ds.map_batches(partial, batch_format="pyarrow")
    return group_apply(cells, rank, key="bucket_us")


def topk_per_group(
    ds: ray.data.Dataset,
    key: str = "user_id",
    value: str = "value",
    order: str = "event_id",
    k: int = 3,
) -> ray.data.Dataset:
    """Exact top-k rows by ``value`` within each key (ties by ``order``
    ascending; null values excluded, SQL-style).  Map-side partial
    top-k per key prunes every block to ≤k rows per key present, so
    the one hash exchange carries at most k × keys-per-block rows —
    never the full table.  Final per-partition rank after the
    exchange assigns rk 1..k."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[value].notna()]
        df = df.sort_values([key, value, order],
                            ascending=[True, False, True],
                            kind="mergesort")
        return df.groupby(key).head(k)

    pruned = ds.map_batches(partial, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, value, order],
                            ascending=[True, False, True],
                            kind="mergesort")
        out = df.groupby(key).head(k).copy()
        out["rk"] = (out.groupby(key).cumcount() + 1).astype(np.int64)
        return out.reset_index(drop=True)

    return group_apply(pruned, final, key=key)


def bloom_build_distributed(
    ds: ray.data.Dataset,
    col: str,
    n_keys: int,
    bits_per_key: int = 10,
    k: int = 7,
) -> BloomFilter:
    """Distributed BloomFilter build over a Dataset column — the
    at-scale sibling of ``BloomFilter.add`` (which needs the key
    array on the driver).  Map-side: each block hashes its DISTINCT
    keys and emits its set words as (word_idx, bits) cells; one tiny
    word-keyed exchange ORs them; the driver receives ≤ m/64 rows —
    bounded by the FILTER size, never by corpus or block count.
    Bit-identical to a driver-side ``add`` of the same key set
    (parity pytest), so the result plugs straight into
    ``bloom_semi_join``'s broadcast probe."""

    proto = BloomFilter(n_keys, bits_per_key=bits_per_key, k=k)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = np.unique(df[col].to_numpy(np.int64))
        if not len(keys):
            return pd.DataFrame({"w": pd.Series(dtype="int64"),
                                 "bits": pd.Series(dtype="int64")})
        pos = proto._positions(keys).ravel()
        words = (pos >> np.uint64(6)).astype(np.int64)
        masks = np.uint64(1) << (pos & np.uint64(63))
        g = (pd.DataFrame({"w": words, "m": masks.astype(np.int64)})
             .groupby("w", as_index=False)["m"]
             .agg(lambda s: np.int64(np.bitwise_or.reduce(
                 s.to_numpy().astype(np.uint64)).astype(np.uint64))))
        return g.rename(columns={"m": "bits"})

    cells = ds.select_columns([col]).map_batches(
        partial, batch_format="pandas")
    merged = group_apply(
        cells,
        lambda df: df.groupby("w", as_index=False)["bits"].agg(
            lambda s: np.int64(np.bitwise_or.reduce(
                s.to_numpy().astype(np.uint64)).astype(np.uint64))),
        key="w",
    ).to_pandas()
    if len(merged):
        proto.words[merged["w"].to_numpy(np.int64)] = \
            merged["bits"].to_numpy().astype(np.uint64)
    return proto
