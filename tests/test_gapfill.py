"""Gap-fill tests G2 (FIXTURES.md F5: deliberate gaps > 1 bucket)."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from cesium_ray.oracle.gapfill import gapfill_group, gapfill_pandas
from cesium_ray.stages import gapfill_points


def _mk_points(ts_minutes, values, conv="c1", channel="v"):
    base = np.datetime64("2026-01-01T00:00:00", "us")
    return pd.DataFrame(
        {
            "conv_id": conv,
            "channel": channel,
            "ts": [base + np.timedelta64(int(m * 60e6), "us") for m in ts_minutes],
            "value": np.asarray(values, dtype=np.float64),
            "turn_idx": np.arange(len(values), dtype=np.int32),
        }
    )


def test_locf_fills_gap():
    pts = _mk_points([0, 1, 5], [10.0, 20.0, 50.0])
    out = gapfill_pandas(pts, "1m", "locf")
    assert len(out) == 6  # dense 1m grid from minute 0..5
    assert list(out.fill_method) == ["observed", "observed", "locf", "locf", "locf", "observed"]
    np.testing.assert_allclose(out.value, [10, 20, 20, 20, 20, 50])


def test_linear_interpolation():
    pts = _mk_points([0, 4], [0.0, 40.0])
    out = gapfill_pandas(pts, "1m", "linear")
    np.testing.assert_allclose(out.value, [0, 10, 20, 30, 40])
    assert list(out.fill_method) == ["observed", "linear", "linear", "linear", "observed"]


def test_bucket_mean_is_observed_value():
    # two points in the same minute → observed grid value is their mean
    pts = _mk_points([0.0, 0.5, 2.0], [1.0, 3.0, 5.0])
    out = gapfill_pandas(pts, "1m", "locf")
    np.testing.assert_allclose(out.value, [2.0, 2.0, 5.0])


def test_nan_values_contribute_nothing():
    pts = _mk_points([0, 1, 2], [np.nan, 7.0, np.nan])
    out = gapfill_pandas(pts, "1m", "locf")
    assert len(out) == 1
    assert out.value.iloc[0] == 7.0


def test_all_nan_series_empty():
    g, v, f = gapfill_group(np.array([0, 60_000_000], dtype=np.int64),
                            np.array([np.nan, np.nan]), "1m")
    assert len(g) == 0


def test_ray_stage_matches_oracle(tiny_points):
    got = (
        gapfill_points(ray.data.from_pandas(tiny_points), "1m", "locf")
        .to_pandas()
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    want = (
        gapfill_pandas(tiny_points, "1m", "locf")
        .sort_values(["conv_id", "channel", "bucket"], kind="mergesort")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_exact=True)
