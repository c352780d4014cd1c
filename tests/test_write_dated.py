"""Per-date tier writes (pipelines/flagship.py::_write_dated): the
Arrow sort-and-slice writer must produce the same files, byte for byte,
as the pandas ``groupby(dt.date)`` writer it replaced, and its sweep
must remove this partition's stale dates and orphaned ``.tmp`` files."""

import glob
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from cesium_ray.pipelines import run_flagship
from cesium_ray.pipelines.flagship import PartitionProcessor
from cesium_ray.stages.normalize import normalize_batch


def _groupby_write_dated(df, root, tier, pid, time_col):
    """The replaced writer, kept as the oracle: one pandas group and one
    pandas → Arrow conversion per date."""
    n = 0
    for day, grp in df.groupby(df[time_col].dt.date, sort=True):
        path = os.path.join(root, f"tier={tier}", f"date={day}", f"part-{pid}.parquet")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        table = pa.Table.from_pandas(grp.reset_index(drop=True), preserve_index=False)
        pq.write_table(table, path)
        n += len(grp)
    return n


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _digests(root):
    return {os.path.relpath(f, root): _sha256(f)
            for f in glob.glob(os.path.join(root, "tier=*", "date=*", "*"))}


def _assert_parity(df, tmp_path, time_col="bucket"):
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    n_old = _groupby_write_dated(df, old, "1h", "00003", time_col)
    n_new = PartitionProcessor(out_root=new)._write_dated(df, "1h", "00003", time_col)
    assert n_new == n_old
    assert _digests(new) == _digests(old)
    return _digests(new)


def _frame(buckets):
    ts = pd.to_datetime(pd.Series(buckets)).astype("datetime64[us]")
    rng = np.random.default_rng(0)
    return pd.DataFrame({
        "conv_id": [f"c{i % 3}" for i in range(len(ts))],
        "channel": "text_len",
        "bucket": ts,
        "count": np.arange(len(ts), dtype=np.int64),
        "mean": rng.normal(size=len(ts)),
    })


def test_out_of_date_order(tmp_path):
    df = _frame(["2024-03-02 05:00", "2024-03-01 23:00", "2024-03-02 01:00",
                 "2024-02-28 00:00", "2024-03-01 00:00", "2024-03-02 00:00"])
    files = _assert_parity(df, tmp_path)
    assert len(files) == 3


def test_single_date(tmp_path):
    df = _frame(["2024-03-01 03:00", "2024-03-01 01:00", "2024-03-01 02:00"])
    assert list(_assert_parity(df, tmp_path)) == ["tier=1h/date=2024-03-01/part-00003.parquet"]


def test_nat_rows_dropped(tmp_path):
    df = _frame(["2024-03-02 00:00", None, "2024-03-01 00:00", None, "2024-03-02 09:00"])
    files = _assert_parity(df, tmp_path)
    assert len(files) == 2 and not any("NaT" in f for f in files)
    assert PartitionProcessor(out_root=str(tmp_path / "n"))._write_dated(
        df, "1h", "00003", "bucket") == 3


def test_empty_frame(tmp_path):
    assert _assert_parity(_frame([]), tmp_path) == {}


def test_every_tier_and_raw(tiny_turns, tmp_path):
    """A whole partition with ``write_points=True``: every tier file and
    every raw points file matches the oracle writer's."""
    part = normalize_batch(tiny_turns).to_pandas()
    keep = [c for c in ["conv_id", "turn_idx", "ts", "text_len", "value"] if c in part]
    part = part[keep].assign(_part=7)
    written = {}

    class Recording(PartitionProcessor):
        def _write_dated(self, df, tier, pid, time_col):
            written[tier] = _groupby_write_dated(df, str(tmp_path / "old"), tier, pid, time_col)
            return super()._write_dated(df, tier, pid, time_col)

    new = str(tmp_path / "new")
    Recording(out_root=new, write_points=True, codec=False, gapfill_tier=None,
              resume=False)(part)
    assert set(written) == {"raw", "1m", "1h", "1d"}
    old_files, new_files = _digests(str(tmp_path / "old")), _digests(new)
    assert new_files == old_files
    assert {f.split("/")[0] for f in new_files} == {
        "tier=raw", "tier=1m", "tier=1h", "tier=1d"}


def test_sweep_only_touches_own_partition(tmp_path):
    root = str(tmp_path)
    proc = PartitionProcessor(out_root=root)
    df = _frame(["2024-03-01 00:00", "2024-03-02 00:00"])
    proc._write_dated(df, "1h", "00000", "bucket")
    proc._write_dated(df, "1h", "00001", "bucket")
    other_tmp = os.path.join(root, "tier=1h", "date=2024-03-01", "part-00001.parquet.tmp")
    own_tmp = os.path.join(root, "tier=1h", "date=2024-03-02", "part-00000.parquet.tmp")
    for p in (other_tmp, own_tmp):
        with open(p, "wb") as f:
            f.write(b"partial")
    before = _digests(root)
    # partition 0 recomputes onto one date: its other date and its .tmp go
    proc._write_dated(df.iloc[:1], "1h", "00000", "bucket")
    after = _digests(root)
    assert set(before) - set(after) == {
        "tier=1h/date=2024-03-02/part-00000.parquet",
        "tier=1h/date=2024-03-02/part-00000.parquet.tmp"}
    assert {f: d for f, d in before.items() if "part-00001" in f} == {
        f: d for f, d in after.items() if "part-00001" in f}


def test_rerun_sweeps_orphaned_tmp(tiny_turns, tmp_path):
    """A kill between the tmp write and the rename leaves a
    ``part-<pid>.parquet.tmp``.  If the next run of that partition does
    not write that date (its input changed), the sweep removes the
    orphan, and every finished file stays."""
    out = str(tmp_path / "o")
    kw = dict(num_partitions=2, features=None, codec=False, gapfill_tier=None,
              resume=False)
    run_flagship(ray.data.from_arrow(tiny_turns), out, **kw)
    before = _digests(out)
    orphan = os.path.join(out, "tier=1h", "date=2000-01-01", "part-00000.parquet.tmp")
    os.makedirs(os.path.dirname(orphan))
    with open(orphan, "wb") as f:
        f.write(b"partial")
    run_flagship(ray.data.from_arrow(tiny_turns), out, **kw)
    assert not os.path.exists(orphan)
    assert _digests(out) == before
