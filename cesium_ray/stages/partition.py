"""Hash partitioning (SURVEY.md §2.9 G1/G6).

The engine's one wide primitive: add a deterministic ``_part`` column
(stable hash of the key, mod P) in a stateless ``map_batches``, then
``groupby('_part').map_groups(fn)`` where ``fn`` is VECTORIZED pandas
over the whole partition — so the number of per-group Python calls is
P (``partition_count``: one per cluster CPU, at least 8), not the
number of conversations (billions at spec scale).  Hot-conversation
salting (G6) is expressed by including the tier bucket in the partition
key where semantics allow (rollups: each (conv, channel, bucket) group
stays intact within one partition, so exact quantiles survive — SURVEY
§7 hard-part (a)).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _stable_hash(arr: np.ndarray) -> np.ndarray:
    """Deterministic cross-process uint64 hash of a key array
    (pandas' siphash with its fixed default key)."""
    return pd.util.hash_array(arr, categorize=False)


def partition_count() -> int:
    """P for every keyed exchange: one partition per CPU of the running
    cluster, and at least 8.  A ``map_groups`` call holds its whole
    partition, so the floor keeps it to 1/8 of the keyed input on small
    clusters: on one CPU a 4M-row ``rolling_rows_avg`` peaked at 856 MB
    per worker at P = 8 and 1,717 MB at P = 1.  No operator takes P;
    results do not depend on it (``scripts/partition_invariance.py``)."""
    return max(8, int(ray.cluster_resources().get("CPU", 1)))


def lpt_assignment(
    keys: np.ndarray, costs: np.ndarray, num_partitions: int
) -> dict:
    """Longest-Processing-Time greedy: assign each key (sorted by
    descending cost) to the currently least-loaded partition.
    Returns {key: part}.  Classic 4/3-approximation to makespan —
    used to place the few COST-DOMINANT keys (e.g. Lomb-Scargle-hot
    conversations); the long cold tail keeps hash placement, so the
    assignment dict stays bounded by skew, not corpus size.  Equal
    costs go in key order, so the placement depends only on the
    (key, cost) pairs, not on the order the caller found them in (a
    keyed count returns them in an order that depends on P)."""
    import heapq

    order = np.lexsort((np.asarray(keys).astype(str),
                        -np.asarray(costs, dtype=np.float64)))
    out = {}
    heap = [(0.0, p) for p in range(num_partitions)]
    heapq.heapify(heap)
    for i in order:
        load, p = heapq.heappop(heap)
        out[keys[i]] = p
        heapq.heappush(heap, (load + float(costs[i]), p))
    return out


def with_partition(
    ds: ray.data.Dataset,
    num_partitions: int,
    key: str = "conv_id",
    salt_tier_s: int | None = None,
    dict_cols: tuple = (),
    override: dict | None = None,
) -> ray.data.Dataset:
    """Add ``_part = hash(key [, floor(ts, salt_tier)]) % P``.

    With ``salt_tier_s`` set, the partition key includes the tier
    bucket: a hot conversation's buckets spread over all partitions
    while every (key, bucket) group stays whole.

    ``dict_cols``: string columns to dictionary-encode in the same
    pass (AFTER hashing) — e.g. ``conv_id`` shrinks from ~17 B/row to
    ~2 B/row through the all-to-all exchange; Arrow unifies the
    per-block dictionaries on concat and pandas sees a Categorical
    (derive_channel_arrays has a codes fast path).

    ``override``: {key: part} for cost-dominant keys (LPT-balanced —
    see ``lpt_assignment``); everything else keeps hash placement.
    The dict is shipped ONCE via ray.put and must stay skew-bounded
    (hot keys only), never corpus-proportional."""
    ov_ref = None
    if override:
        ov_keys = np.sort(np.asarray(list(override.keys()), dtype=str))
        ov_parts = np.asarray(
            [override[k] for k in ov_keys], dtype=np.int32)
        ov_ref = ray.put((ov_keys, ov_parts))

    def add_part(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        h = _stable_hash(np.asarray(k))
        if salt_tier_s is not None:
            ts_us = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            step = np.int64(salt_tier_s) * 1_000_000
            h = h ^ _stable_hash((ts_us // step) * step)
        part = (h % np.uint64(num_partitions)).astype(np.int32)
        if ov_ref is not None:
            ov_keys, ov_parts = ray.get(ov_ref)
            ks = k.astype(str)
            pos = np.clip(np.searchsorted(ov_keys, ks), 0,
                          len(ov_keys) - 1)
            hit = ov_keys[pos] == ks
            part[hit] = ov_parts[pos[hit]]
        for c in dict_cols:
            i = batch.schema.get_field_index(c)
            if i >= 0 and pa.types.is_string(batch.schema.field(i).type):
                batch = batch.set_column(i, c, pc.dictionary_encode(batch[c]))
        return batch.append_column("_part", pa.array(part, pa.int32()))

    return ds.map_batches(add_part, batch_format="pyarrow")


def group_apply(
    ds: ray.data.Dataset,
    fn,
    key: str = "conv_id",
    salt_tier_s: int | None = None,
    batch_format: str = "pandas",
    **map_groups_kw,
) -> ray.data.Dataset:
    """Hash-partition by ``key`` into ``partition_count()`` partitions
    and run ``fn(partition) -> block`` once per partition (vectorized
    inside).  ``batch_format="pyarrow"`` hands ``fn`` the partition as
    a ``pa.Table`` (no pandas conversion — int-with-null columns keep
    their Arrow types instead of float64-roundtripping)."""
    P = partition_count()
    parted = with_partition(ds, P, key=key, salt_tier_s=salt_tier_s)

    if isinstance(fn, type):  # callable class → actor pool
        wrapped = fn
        if "concurrency" not in map_groups_kw:
            # AUTOSCALING pool (ncpu//2, ncpu): a fixed pool of ncpu
            # actors would reserve every CPU and deadlock the upstream
            # shuffle on small clusters; half-size min starts the stage
            # wide immediately while leaving CPUs for the exchange
            hi = max(1, min(P, int(ray.cluster_resources().get("CPU", 1))))
            map_groups_kw["concurrency"] = (max(1, hi // 2), hi)
    elif batch_format == "pyarrow":
        def wrapped(tbl: pa.Table) -> pa.Table:
            return fn(tbl.drop_columns(["_part"]))
    else:
        def wrapped(df: pd.DataFrame) -> pd.DataFrame:
            return fn(df.drop(columns=["_part"]))

    return parted.groupby("_part").map_groups(
        wrapped, batch_format=batch_format, **map_groups_kw
    )


_DAY_US = np.int64(86_400_000_000)


def zorder_key(
    ids: np.ndarray, ts_us: np.ndarray, bits: int = 8
) -> np.ndarray:
    """Morton (Z-order) key interleaving the low ``bits`` of the key
    id with the low ``bits`` of the epoch day — the multi-dimensional
    clustering key (Delta/Iceberg ``ZORDER BY`` semantics): sorting by
    it co-locates rows that are close in BOTH dimensions, so a
    (key-range × time-range) predicate touches O(√cells) contiguous
    runs instead of scanning one full dimension.  id bits land in even
    positions, day bits in odd."""
    a = (np.asarray(ids, np.int64) % (1 << bits)).astype(np.int64)
    b = ((np.asarray(ts_us, np.int64) // _DAY_US)
         % (1 << bits)).astype(np.int64)
    z = np.zeros(len(a), np.int64)
    for k in range(bits):
        z |= ((a >> k) & 1) << (2 * k)
        z |= ((b >> k) & 1) << (2 * k + 1)
    return z


def zorder_sort(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    bits: int = 8,
    out_col: str = "zkey",
) -> ray.data.Dataset:
    """Attach the Morton key and range-sort the dataset by it — the
    write-layout optimization stage: downstream partitioned Parquet
    written in this order carries per-file (key, day) zonemaps that
    prune 2-D box predicates.  One all-to-all (the sort) — the same
    exchange budget as any layout rewrite; run it once per
    compaction, not per query."""

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[key].to_numpy(np.int64)
        tus = df[ts_col].to_numpy("datetime64[us]").view(np.int64)
        df = df.copy()
        df[out_col] = zorder_key(ids, tus, bits)
        return df

    return ds.map_batches(attach, batch_format="pandas").sort(out_col)
