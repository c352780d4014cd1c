"""``group_apply`` reuses the keyed partitions of a bare Parquet read.

The first call over a file (at one key and P) builds the partitions of
every column once; later calls run ``fn`` over them with no read and no
exchange.  Results must equal the exchange path's, and anything that
is not a bare read must take the exchange."""

import os

import numpy as np
import pandas as pd
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from cesium_ray.pipelines.extra_queries import EXTRA_QUERIES
from cesium_ray.stages import partition
from perfbench.workloads import TsdbOps


@pytest.fixture(scope="module")
def sf(tmp_path_factory):
    """A small ``tsdb_ops`` events table (200 users)."""
    wl = TsdbOps(str(tmp_path_factory.mktemp("tsdb")), seed=3, scale=0.1)
    wl.prepare()
    return wl.sf


@pytest.fixture
def builds(monkeypatch):
    """Count ``_build_keyed`` calls; start from an empty cache."""
    n = []
    orig = partition._build_keyed

    def counted(*a, **kw):
        n.append(a[1])
        return orig(*a, **kw)

    monkeypatch.setattr(partition, "_build_keyed", counted)
    partition._KEYED.clear()
    return n


def _write(path, seed, n=600, nusers=30):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame({
        "user_id": rng.integers(0, nusers, n).astype(np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 10 ** 6, n), unit="s"),
        "value": rng.normal(size=n).round(3),
    })
    df.to_parquet(path, index=False)
    return df


def _apply(ds):
    """One row per partition: its first user, row and user counts and
    value sum."""
    def sizes(df):   # nested, so workers get it by value
        return pd.DataFrame({"user_id": [int(df["user_id"].iloc[0])],
                             "n": [len(df)],
                             "users": [df["user_id"].nunique()],
                             "s": [df["value"].sum()]})

    return (partition.group_apply(ds, sizes, key="user_id").to_pandas()
            .sort_values("user_id").reset_index(drop=True))


@pytest.mark.parametrize("name", TsdbOps.OPS)
def test_ops_equal_reuse_and_exchange(monkeypatch, builds, sf, name):
    reuse = EXTRA_QUERIES[name](sf)
    again = EXTRA_QUERIES[name](sf)
    assert len(builds) == 1
    monkeypatch.setattr(
        ray.data, "read_parquet",
        lambda path, columns=None: ray.data.from_arrow(
            pq.read_table(path, columns=columns)))
    exchange = EXTRA_QUERIES[name](sf)
    assert len(builds) == 1
    assert len(exchange), name
    pd.testing.assert_frame_equal(reuse, exchange, check_exact=True)
    pd.testing.assert_frame_equal(again, exchange, check_exact=True)


def test_three_calls_build_once(builds, tmp_path):
    path = str(tmp_path / "events.parquet")
    _write(path, 1)
    outs = [_apply(ray.data.read_parquet(path, columns=cols))
            for cols in (None, ["user_id", "value"], ["value", "user_id"])]
    assert len(builds) == 1
    for out in outs[1:]:
        pd.testing.assert_frame_equal(out, outs[0], check_exact=True)
    assert outs[0]["n"].sum() == 600


def test_empty_file(monkeypatch, builds, tmp_path):
    """``fn`` never sees zero rows on the reuse path: not for an empty
    file, and not for the empty partitions of a 3-key file at P = 8."""
    monkeypatch.setattr(partition, "partition_count", lambda: 8)

    def nonempty(df):
        assert len(df) > 0
        return pd.DataFrame({"rows": [len(df)]})

    path = str(tmp_path / "empty.parquet")
    _write(path, 9).head(0).to_parquet(path, index=False)
    got = partition.group_apply(ray.data.read_parquet(path), nonempty,
                                key="user_id").to_pandas()
    assert len(builds) == 1 and len(got) == 0
    path = str(tmp_path / "three.parquet")
    df = _write(path, 9, nusers=3)
    got = partition.group_apply(ray.data.read_parquet(path), nonempty,
                                key="user_id").to_pandas()
    parts = np.unique(partition._stable_hash(df["user_id"].unique())
                      % np.uint64(8))
    assert len(builds) == 2 and len(got) == len(parts) < 8
    assert got["rows"].sum() == len(df)


def test_columns_are_projected(builds, tmp_path):
    path = str(tmp_path / "events.parquet")
    _write(path, 2)

    def names(ds):
        return set(partition.group_apply(
            ds, lambda df: pd.DataFrame({"c": [",".join(df.columns)]}),
            key="user_id").to_pandas()["c"])

    read = ray.data.read_parquet
    assert names(read(path)) == {"user_id,event_id,ts,value"}
    assert names(read(path, columns=["ts", "user_id"])) == {"ts,user_id"}
    assert names(read(path, columns=["ts", "user_id", "value"])
                 .select_columns(["value", "user_id"])) == {"value,user_id"}
    assert len(builds) == 1


def test_rewrite_rebuilds(builds, tmp_path):
    path = str(tmp_path / "events.parquet")
    _write(path, 3)
    first = _apply(ray.data.read_parquet(path))
    want = _write(path, 4, n=900)
    second = _apply(ray.data.read_parquet(path))
    assert len(builds) == 2
    assert first["n"].sum() == 600 and second["n"].sum() == 900
    assert np.isclose(second["s"].sum(), want["value"].sum())


def test_partition_count_change_rebuilds(monkeypatch, builds, tmp_path):
    path = str(tmp_path / "events.parquet")
    _write(path, 5)
    at = {}
    for p in (3, 5, 3):
        monkeypatch.setattr(partition, "partition_count", lambda: p)
        at[p] = _apply(ray.data.read_parquet(path))
        assert len(at[p]) == p
    assert len(builds) == 2
    assert at[3]["n"].sum() == at[5]["n"].sum() == 600


def test_ray_restart_rebuilds(builds, tmp_path):
    path = str(tmp_path / "events.parquet")
    _write(path, 6)
    before = _apply(ray.data.read_parquet(path))
    ray.shutdown()
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    after = _apply(ray.data.read_parquet(path))
    assert len(builds) == 2
    pd.testing.assert_frame_equal(before, after, check_exact=True)


def _hive(tmp_path):
    root = tmp_path / "hive"
    dfs = []
    for d in ("a", "b"):
        os.makedirs(root / f"day={d}")
        dfs.append(_write(str(root / f"day={d}" / "part.parquet"), ord(d)))
    return str(root), pd.concat(dfs)


@pytest.mark.parametrize("kind", ["mapped", "filtered", "read_filter",
                                  "limited", "hive"])
def test_non_bare_inputs_take_the_exchange(builds, tmp_path, kind):
    path = str(tmp_path / "events.parquet")
    df = _write(path, 7)
    ds = ray.data.read_parquet(path)
    if kind == "mapped":
        ds = ds.map_batches(lambda b: b, batch_format="pyarrow")
    elif kind == "filtered":
        ds = ds.filter(lambda r: r["user_id"] % 2 == 0)
        df = df[df["user_id"] % 2 == 0]
    elif kind == "read_filter":
        ds = ray.data.read_parquet(path, filter=pds.field("user_id") < 10)
        df = df[df["user_id"] < 10]
    elif kind == "limited":
        ds = ds.limit(100)
        df = df.head(100)
    else:
        root, df = _hive(tmp_path)
        ds = ray.data.read_parquet(root)
    assert partition._bare_parquet_read(ds) is None
    got = _apply(ds)
    assert not builds
    assert got["n"].sum() == len(df)
    assert np.isclose(got["s"].sum(), df["value"].sum())


def test_whole_partitions_with_tiny_blocks(builds, tmp_path):
    """Tiny blocks split the read into many blocks; each partition must
    still reach ``fn`` whole and once."""
    path = str(tmp_path / "events.parquet")
    df = _write(path, 8, n=3000, nusers=200)
    ctx = ray.data.DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1024
    try:
        parts = partition.group_apply(
            ray.data.read_parquet(path),
            lambda d: pd.DataFrame({"users": [sorted(set(d["user_id"]))],
                                    "n": [len(d)]}),
            key="user_id").to_pandas()
    finally:
        ctx.target_max_block_size = old
    assert len(builds) == 1
    users = [u for us in parts["users"] for u in us]
    assert len(users) == len(set(users)) == df["user_id"].nunique()
    assert parts["n"].sum() == len(df)
    assert len(parts) == partition.partition_count()


@pytest.mark.parametrize("p", [1, 3])
def test_bare_read_uses_partition_count(monkeypatch, builds, tmp_path, p):
    path = str(tmp_path / "k.parquet")
    pd.DataFrame({"k": range(40)}).to_parquet(path, index=False)
    monkeypatch.setattr(partition, "partition_count", lambda: p)
    parts = partition.group_apply(
        ray.data.read_parquet(path), lambda df: pd.DataFrame({"n": [len(df)]}),
        key="k").to_pandas()
    assert len(builds) == 1
    assert len(parts) == p and parts["n"].sum() == 40


def test_cache_evicts_to_budget(monkeypatch, builds, tmp_path):
    """Least recently used entries go first; a table over the budget is
    used once and not kept."""
    paths = [str(tmp_path / f"e{i}.parquet") for i in range(3)]
    for i, path in enumerate(paths):
        _write(path, 10 + i)
    _apply(ray.data.read_parquet(paths[0]))
    (nbytes,) = [n for _, n in partition._KEYED.values()]
    partition._KEYED.clear()
    builds.clear()
    store = ray.cluster_resources()

    def budget(b):   # the cache gets a quarter of the object store
        monkeypatch.setattr(ray, "cluster_resources", lambda: {
            **store, "object_store_memory": 4 * b})

    budget(int(2.5 * nbytes))
    for path in (paths[0], paths[1], paths[0], paths[2]):   # 0 is a hit
        _apply(ray.data.read_parquet(path))
    assert builds == [[paths[0]], [paths[1]], [paths[2]]]
    assert [fp[0][0][0] for fp in partition._KEYED] == [paths[0], paths[2]]

    partition._KEYED.clear()
    budget(nbytes - 1)
    assert os.path.getsize(paths[1]) < nbytes - 1
    once = _apply(ray.data.read_parquet(paths[1]))
    assert len(builds) == 4 and not partition._KEYED
    assert once["n"].sum() == 600
