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

Exchange once per file: when ``group_apply`` is handed a bare Parquet
read (``_bare_parquet_read``), it keeps the keyed partitions of all
the file's columns in the object store and runs later calls over the
same files, key and P as one ``map_batches`` over them, with no read
and no exchange (``_keyed_partitions``).  Many operators over one
events table then share a single exchange, as the flagship's products
share one partition visit.

The per-key kernel frame: a kernel that ``group_apply`` runs on a
partition sorts it once with ``Segments`` (key, then time order) and
reduces each key's rows with its methods; the operator hands the
result dataset to ``collect_sorted``, which types an empty result and
orders a non-empty one.  ``group_apply`` never calls a kernel on zero
rows, so kernels carry no empty branch.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..schema import EVENT_ID, TS, USER_ID


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


def _bare_parquet_read(ds: ray.data.Dataset):
    """``(filesystem, paths, columns)`` when ``ds`` is a bare Parquet
    read, else None.  Bare: ``ray.data.read_parquet`` of files,
    optionally narrowed by ``columns=`` or one ``select_columns``, with
    no map, filter, limit, schema, read options, path columns
    (``include_paths``, hive ``k=v`` directories) or block UDF.
    ``columns`` is None when every file column is read.  The one place
    that looks inside a Ray Data plan."""
    from ray.data._internal.datasource.parquet_datasource import (
        ParquetDatasource)
    from ray.data._internal.logical.operators.map_operator import Project
    from ray.data.datasource.partitioning import PathPartitionParser

    op, cols = ds._logical_plan.dag, None
    if isinstance(op, Project):
        if op.cols is None or op.cols_rename or op.exprs:
            return None
        op, cols = op.input_dependencies[0], op.cols
    src = getattr(op, "_datasource", None)
    if (op.input_dependencies or not isinstance(src, ParquetDatasource)
            or src._block_udf is not None or src._read_schema is not None
            or src._include_paths
            or any(v is not None for v in src._to_batches_kwargs.values())):
        return None
    if src._partitioning is not None:
        parse = PathPartitionParser(src._partitioning)
        if any(parse(p) for p in src._pq_paths):
            return None
    return src._filesystem, list(src._pq_paths), cols or src._data_columns


@ray.remote
def _split_block(block: pa.Table, key: str, P: int, nb: int):
    """Tag one read block with ``_part``, sort it by ``_part`` (stable)
    and cut it into ``nb`` tables; table b holds partitions
    [b·P/nb, (b+1)·P/nb).  Ray Data reads an empty file as blocks with
    no columns, which give empty tables."""
    part = np.zeros(0, np.int32)
    if block.num_rows:
        part = (_stable_hash(block[key].to_numpy(zero_copy_only=False))
                % np.uint64(P)).astype(np.int32)
    order = np.argsort(part, kind="stable")
    tbl = block.append_column("_part", pa.array(part)).take(order)
    cut = np.searchsorted(part[order], [b * P // nb for b in range(nb + 1)])
    out = tuple(tbl.slice(a, b - a) for a, b in zip(cut[:-1], cut[1:]))
    return out if nb > 1 else out[0]


@ray.remote
def _concat_parts(*pieces: pa.Table) -> pa.Table:
    tbl = pa.concat_tables(pieces, promote_options="permissive")
    return tbl.take(np.argsort(tbl["_part"].to_numpy(), kind="stable"))


def _build_keyed(fs, paths: list, key: str, P: int):
    """Read every column of ``paths`` and hash-partition the rows by
    ``key`` into P partitions, materialized as one block per cluster
    CPU (at most P), each holding whole partitions sorted by ``_part``.
    Within a partition rows keep their read order."""
    nb = max(1, min(P, int(ray.cluster_resources().get("CPU", 1))))
    reads = ray.data.read_parquet(paths, filesystem=fs).to_arrow_refs()
    split = _split_block.options(num_returns=nb)
    pieces = [split.remote(r, key, P, nb) for r in reads]
    pieces = [ps if nb > 1 else [ps] for ps in pieces]
    blocks = (pieces[0] if len(pieces) == 1 else
              [_concat_parts.remote(*ps) for ps in zip(*pieces)])
    return ray.data.from_arrow_refs(list(blocks))


# keyed partitions of bare Parquet reads: (files, key, P) → (dataset,
# bytes), least recently used first; emptied when the Ray session changes
_KEYED: OrderedDict = OrderedDict()
_KEYED_SESSION: list = [None]


def _keyed_partitions(fs, paths: list, key: str, P: int):
    """The kept keyed partitions of ``paths`` (built on first use), or
    None when the files alone exceed the budget (``group_apply`` has the
    rule).  A rewrite that keeps a file's size within the filesystem's
    timestamp granularity is not seen.  A new Ray session (node id, job
    id; a fresh local cluster can reuse the job id) empties the cache,
    since its object refs died with the old one."""
    ctx = ray.get_runtime_context()
    session = (ctx.get_node_id(), ctx.get_job_id())
    if _KEYED_SESSION[0] != session:
        _KEYED.clear()
        _KEYED_SESSION[0] = session
    infos = fs.get_file_info(paths)
    fp = (tuple((i.path, i.size, i.mtime_ns) for i in infos), key, P)
    if fp in _KEYED:
        _KEYED.move_to_end(fp)
        return _KEYED[fp][0]
    budget = int(ray.cluster_resources().get("object_store_memory", 0)) // 4
    if sum(i.size for i in infos) > budget:
        return None
    keyed = _build_keyed(fs, paths, key, P)
    nbytes = keyed.size_bytes()
    if nbytes <= budget:
        while _KEYED and sum(n for _, n in _KEYED.values()) + nbytes > budget:
            _KEYED.popitem(last=False)
        _KEYED[fp] = (keyed, nbytes)
    return keyed


def _map_partitions(keyed, fn, cols, batch_format: str, map_batches_kw):
    """Run ``fn`` once per partition of ``keyed`` (``_build_keyed``):
    one ``map_batches`` over whole blocks, each split at its ``_part``
    boundaries.  ``fn`` sees ``cols`` (every column when None), converted
    as ``map_groups`` converts a group."""
    from ray.data.block import BlockAccessor

    def per_block(tbl: pa.Table):
        part = tbl["_part"].to_numpy()
        if not len(part):
            return
        tbl = tbl.select(cols) if cols else tbl.drop_columns(["_part"])
        cut = np.r_[0, np.flatnonzero(part[1:] != part[:-1]) + 1, len(part)]
        for a, b in zip(cut[:-1], cut[1:]):
            acc = BlockAccessor.for_block(tbl.slice(a, b - a))
            yield fn(acc.to_batch_format(batch_format))

    return keyed.map_batches(per_block, batch_size=None,
                             batch_format="pyarrow", **map_batches_kw)


def group_apply(
    ds: ray.data.Dataset,
    fn,
    key: str = "conv_id",
    salt_tier_s: int | None = None,
    batch_format: str = "pandas",
    **map_groups_kw,
) -> ray.data.Dataset:
    """Hash-partition by ``key`` into ``partition_count()`` partitions
    and run ``fn(partition) -> block`` once per non-empty partition
    (vectorized inside).  ``fn`` never sees zero rows: ``map_groups``
    finds no group in an empty block, and ``_map_partitions`` skips
    one; an operator that must answer for an empty input types its
    empty result on the driver (``collect_sorted``), so a kernel has
    no zero-row branch.  ``batch_format="pyarrow"`` hands ``fn`` the
    partition as a ``pa.Table`` (no pandas conversion — int-with-null
    columns keep their Arrow types instead of float64-roundtripping).

    When ``ds`` is a bare Parquet read (``_bare_parquet_read``: files
    read with at most a column subset) and ``fn`` is a function with no
    ``salt_tier_s``, the exchange is reused.  The first call over the
    files at this ``key`` and P (the build) reads every column, runs
    one exchange and keeps the keyed partitions in the object store;
    later calls project their columns and run ``fn`` on each kept
    partition, with no read and no exchange.  Kept partitions are found
    by each file's (path, size, mtime_ns), ``key``, P and the Ray
    session.  The least recently used are evicted to keep the cache
    under a quarter of the cluster's ``object_store_memory``, and a
    table larger than that is used once and not kept.  A one-off query
    pays the build, which reads columns it may not need.  Any other
    input, or a callable class, takes the exchange every time."""
    P = partition_count()
    if not isinstance(fn, type) and salt_tier_s is None:
        bare = _bare_parquet_read(ds)
        keyed = bare and _keyed_partitions(bare[0], bare[1], key, P)
        if keyed is not None:
            return _map_partitions(keyed, fn, bare[2], batch_format,
                                   map_groups_kw)
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


class Segments:
    """One sort of a partition into per-key segments: rows ordered by
    ``key``, then by the ``order`` columns (default (ts, event_id)).
    Keys are factorized in value order, so segments come out ascending
    by key.  ``order`` entries are column names (``ts`` is read as
    int64 µs) or arrays aligned with the frame's rows; the sort is
    stable, so ``order=()`` keeps each key's rows in frame order.

    ``perm`` maps sorted rows to frame rows; ``codes`` is the sorted
    segment code of each row; ``starts``/``ends`` bound each segment,
    ``n`` counts its rows and ``keys`` holds its key value.  The
    reductions take arrays in sorted order (as indexing returns them)
    and give one value per segment; ``same`` and ``diff`` give one
    value per row, masking pairs of rows that cross a segment edge."""

    def __init__(self, df: pd.DataFrame, key: str = USER_ID,
                 order: tuple = (TS, EVENT_ID)):
        codes, uniq = pd.factorize(df[key], sort=True)
        self._df = df
        self.perm = np.lexsort(
            [self._column(c) for c in reversed(order)] + [codes])
        self.codes = codes[self.perm]
        self.starts = np.flatnonzero(
            np.r_[True, self.codes[1:] != self.codes[:-1]])
        self.ends = np.r_[self.starts[1:], len(self.codes)]
        self.n = (self.ends - self.starts).astype(np.int64)
        self.keys = np.asarray(uniq)[self.codes[self.starts]]

    def _column(self, c) -> np.ndarray:
        if not isinstance(c, str):
            return np.asarray(c)
        if c == TS:
            return self._df[TS].to_numpy("datetime64[us]").view(np.int64)
        return self._df[c].to_numpy()

    def __getitem__(self, c) -> np.ndarray:
        """Column ``c`` (a name or a row-aligned array) in sorted order."""
        return self._column(c)[self.perm]

    @property
    def gid(self) -> np.ndarray:
        """Segment id (0, 1, …) of every sorted row."""
        return np.repeat(np.arange(len(self.starts)), self.n)

    @property
    def pos(self) -> np.ndarray:
        """0-based position of every sorted row within its segment."""
        return np.arange(len(self.codes)) - np.repeat(self.starts, self.n)

    def same(self, lag: int = 1) -> np.ndarray:
        """True where sorted row i and row i − lag are in one segment."""
        out = np.zeros(len(self.codes), bool)
        out[lag:] = self.codes[lag:] == self.codes[:-lag]
        return out

    def diff(self, a: np.ndarray, lag: int = 1) -> np.ndarray:
        """a[i] − a[i − lag] where both rows are in one segment, else 0."""
        out = np.zeros_like(a)
        out[lag:] = a[lag:] - a[:-lag]
        return np.where(self.same(lag), out, 0)

    def sum(self, a: np.ndarray) -> np.ndarray:
        return np.add.reduceat(a, self.starts)

    def min(self, a: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(a, self.starts)

    def max(self, a: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(a, self.starts)

    def first(self, a: np.ndarray) -> np.ndarray:
        return a[self.starts]

    def last(self, a: np.ndarray) -> np.ndarray:
        return a[self.ends - 1]


def empty_frame(dtypes: dict) -> pd.DataFrame:
    """Zero rows with ``dtypes``' column names and dtypes."""
    return pd.DataFrame({c: pd.Series(dtype=d) for c, d in dtypes.items()})


def collect_sorted(res: ray.data.Dataset, dtypes: dict,
                   by=USER_ID) -> pd.DataFrame:
    """The driver-side tail of a per-key operator: ``res`` (what its
    ``group_apply`` returned) as one frame ordered by ``by``, or
    ``empty_frame(dtypes)`` when it holds no rows.  It takes the dataset
    rather than calling ``group_apply``: traces charge kernel time to
    the module that calls ``group_apply``."""
    out = res.to_pandas()
    if out.empty:
        return empty_frame(dtypes)
    return out.sort_values(by, kind="mergesort").reset_index(drop=True)


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
