"""Rollup kernel + Ray stage parity tests (FIXTURES.md F5): engine
tier points must be bit-equal to the oracle after sorting by
(conv_id, channel, bucket); DuckDB cross-check of the exact-quantile
semantics."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data

from cesium_ray.oracle.rollup import (
    bucket_floor_us,
    derive_channels_pandas,
    rollup_pandas,
)
from cesium_ray.stages import derive_points, rollup_points, rollup_turns


def test_bucket_floor():
    us = np.array([0, 59_999_999, 60_000_000, 61_000_000], dtype=np.int64)
    np.testing.assert_array_equal(
        bucket_floor_us(us, 60), [0, 0, 60_000_000, 60_000_000]
    )


def test_derive_channels_latency(tiny_turns):
    pts = derive_channels_pandas(tiny_turns.to_pandas())
    lat = pts[pts.channel == "turn_latency"]
    # first turn of each conv: NaN latency
    assert lat[lat.turn_idx == 0]["value"].isna().all()
    # all other latencies present and non-negative (ts monotone per synth)
    rest = lat[lat.turn_idx > 0]["value"]
    assert rest.notna().all() and (rest >= 0).all()


def test_rollup_quantiles_exact(tiny_points):
    """p50/p99 use the duck_quantile lerp (bit-equal to DuckDB
    quantile_cont); p50 must also equal np.quantile (the two formulas
    coincide at p=0.5), and p99 within 1 ulp of np.quantile."""
    from cesium_ray.oracle.rollup import duck_quantile

    r = rollup_pandas(tiny_points, "1h")
    df = tiny_points.copy()
    ts_us = df["ts"].to_numpy("datetime64[us]").astype("int64")
    df["bucket"] = bucket_floor_us(ts_us, 3600).astype("datetime64[us]")
    for _, row in r.sample(min(50, len(r)), random_state=0).iterrows():
        grp = df[
            (df.conv_id == row.conv_id)
            & (df.channel == row.channel)
            & (df.bucket == row.bucket)
        ]["value"].dropna()
        if len(grp):
            s = np.sort(grp.to_numpy())
            assert row.p50 == duck_quantile(s, 0.5)
            assert row.p50 == np.quantile(grp, 0.5, method="linear")
            assert row.p99 == duck_quantile(s, 0.99)
            np.testing.assert_allclose(row.p99, np.quantile(grp, 0.99), rtol=1e-15)
            assert row.cnt == len(grp)
            assert row.vmin == grp.min() and row.vmax == grp.max()


def test_rollup_against_duckdb(tiny_points):
    r = rollup_pandas(tiny_points, "1m").reset_index(drop=True)
    con = duckdb.connect()
    con.register("pts", tiny_points)
    want = con.sql(
        """
        SELECT conv_id, channel, date_trunc('minute', ts) AS bucket,
               count(value) AS cnt,
               count(*) - count(value) AS count_null,
               sum(value) AS vsum, avg(value) AS vmean,
               min(value) AS vmin, max(value) AS vmax,
               quantile_cont(value, 0.5) AS p50,
               quantile_cont(value, 0.99) AS p99
        FROM pts GROUP BY 1,2,3 ORDER BY 1,2,3
        """
    ).df()
    assert len(want) == len(r)
    for col in ["cnt", "count_null"]:
        np.testing.assert_array_equal(r[col].to_numpy(), want[col].to_numpy())
    for col in ["vsum", "vmean", "vmin", "vmax"]:
        np.testing.assert_allclose(
            r[col].to_numpy(), want[col].to_numpy(), rtol=1e-9, equal_nan=True
        )
    for col in ["p50", "p99"]:  # duck_quantile lerp → bit-equal to DuckDB
        got, exp = r[col].to_numpy(), want[col].to_numpy()
        assert np.all((got == exp) | (np.isnan(got) & np.isnan(exp)))


@pytest.mark.parametrize("tier", ["1m", "1h", "1d"])
def test_ray_rollup_bit_equal_oracle(tiny_turns, tier):
    ds = ray.data.from_arrow(tiny_turns)
    got = (
        rollup_turns(ds, tier)
        .to_pandas()
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    oracle = (
        rollup_pandas(derive_channels_pandas(tiny_turns.to_pandas()), tier)
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, oracle, check_exact=True)


def test_salted_rollup_points_bit_equal(tiny_turns):
    """Salt-by-bucket partitioning must not change a single tier point
    (SURVEY §7 hard-part (a))."""
    pts_ds = derive_points(ray.data.from_arrow(tiny_turns))
    got = (
        rollup_points(pts_ds, "1m", salt=True)
        .to_pandas()
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    oracle = (
        rollup_pandas(derive_channels_pandas(tiny_turns.to_pandas()), "1m")
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, oracle, check_exact=True)


def test_reaggregate_cascade_matches_direct(tiny_points):
    """1h→1d cascade equals the direct 1d rollup on the re-aggregable
    columns (quantiles intentionally absent from the cascade)."""
    from cesium_ray.oracle.rollup import reaggregate_pandas

    hourly = rollup_pandas(tiny_points, "1h")
    cascaded = (
        reaggregate_pandas(hourly, "1d")
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    direct = (
        rollup_pandas(tiny_points, "1d")
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    assert len(cascaded) == len(direct)
    np.testing.assert_array_equal(cascaded.cnt, direct.cnt)
    np.testing.assert_array_equal(cascaded.count_null, direct.count_null)
    for col in ["vsum", "vmean", "vmin", "vmax"]:
        np.testing.assert_allclose(
            cascaded[col], direct[col], rtol=1e-9, equal_nan=True
        )
    assert "p50" not in cascaded.columns  # not re-aggregable


def test_fused_sort_matches_lexsort():
    """_fused_sort must reproduce np.lexsort((minor, codes)) exactly —
    including negative codes, duplicate pairs (stability), and the
    overflow fallback returning None."""
    from cesium_ray.oracle.rollup import _fused_sort

    rng = np.random.default_rng(7)
    for n in (0, 1, 5, 1000):
        codes = rng.integers(-1, 40, n)
        minor = rng.integers(-100, 100, n)
        got = _fused_sort(codes, minor)
        assert got is not None
        np.testing.assert_array_equal(got, np.lexsort((minor, codes)))
    # overflow guard: span * ncode >= 2^62 → fallback
    codes = np.array([0, 1 << 40], dtype=np.int64)
    minor = np.array([0, 1 << 40], dtype=np.int64)
    assert _fused_sort(codes, minor) is None
    # non-integer minor → fallback
    assert _fused_sort(np.array([0, 1]), np.array([0.5, 1.5])) is None
    # uint64 minor above 2^63 must not wrap
    codes = np.array([1, 0, 1, 0], dtype=np.int64)
    minor = np.array([2**63 + 5, 2**63 + 9, 2**63 + 1, 2**63 + 2],
                     dtype=np.uint64)
    got = _fused_sort(codes, minor)
    np.testing.assert_array_equal(got, [3, 1, 2, 0])


@pytest.mark.parametrize("tier", ["1m", "1h", "1d"])
def test_rollup_arrays_fused_gid_bit_equal(tiny_turns, tier):
    """The fused-(conv,bucket)-gid rollup_arrays path must stay
    bit-equal to rollup_pandas over derive_channels_pandas (shared
    _grouped_stats contract) — the exact-parity gate for the 2-key
    sort optimization."""
    from cesium_ray.oracle.rollup import (
        derive_channel_arrays,
        rollup_arrays,
    )

    df = tiny_turns.to_pandas()
    codes, uniques, ts_us, tidx, channels = derive_channel_arrays(df)
    got = (
        rollup_arrays(codes, uniques, ts_us, channels, tier)
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    oracle = (
        rollup_pandas(derive_channels_pandas(df), tier)
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, oracle, check_exact=True)
