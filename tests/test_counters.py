"""counter_rate (PromQL reset semantics) + minmax_downsample."""

import numpy as np
import pandas as pd
import ray.data


def _ts(us):
    return pd.Timestamp(1_700_000_000_000_000 + us, unit="us")


def test_counter_rate_resets(ray_session):
    from cesium_ray.stages.counters import counter_rate

    rows = [
        # u1: 1.00 -> 3.50 -> 0.50 (reset, +0.50) -> 2.00 (+1.50)
        (1, 0, 0, 1.00), (1, 1, 1_000_000, 3.50),
        (1, 2, 2_000_000, 0.50), (1, 3, 3_000_000, 2.00),
        # u2: single point -> increase 0, rate NaN
        (2, 4, 0, 9.99),
        # u3: monotone, no resets
        (3, 5, 0, 1.00), (3, 6, 4_000_000, 1.25),
    ]
    df = pd.DataFrame({
        "user_id": np.array([r[0] for r in rows], dtype=np.int64),
        "event_id": np.array([r[1] for r in rows], dtype=np.int64),
        "ts": [_ts(r[2]) for r in rows],
        "value": [r[3] for r in rows],
    })
    out = (counter_rate(ray.data.from_pandas(df))
           .to_pandas().set_index("user_id").sort_index())
    assert out.loc[1, "n_resets"] == 1
    assert out.loc[1, "total_increase"] == 2.5 + 0.5 + 1.5
    assert out.loc[1, "rate_per_sec"] == 4.5 / 3.0
    assert out.loc[2, "n_resets"] == 0 and out.loc[2, "total_increase"] == 0.0
    assert np.isnan(out.loc[2, "rate_per_sec"])
    assert out.loc[3, "n_resets"] == 0
    assert out.loc[3, "total_increase"] == 0.25
    assert out.loc[3, "rate_per_sec"] == 0.25 / 4.0


def test_minmax_downsample_ties_and_single(ray_session):
    from cesium_ray.stages.counters import minmax_downsample

    rows = [
        # u1 bucket 0: duplicate min value 1.0 at ts 0 (id 0) and ts 1s
        # (id 1) -> min picks (ts 0, id 0); max is 5.0
        (1, 0, 0, 1.0), (1, 1, 1_000_000, 1.0), (1, 2, 2_000_000, 5.0),
        # u1 bucket 1: single point -> BOTH kinds emitted for it
        (1, 3, 3_600_000_000, 2.0),
    ]
    df = pd.DataFrame({
        "user_id": np.array([r[0] for r in rows], dtype=np.int64),
        "event_id": np.array([r[1] for r in rows], dtype=np.int64),
        "ts": [_ts(r[2]) for r in rows],
        "value": [r[3] for r in rows],
    })
    out = (minmax_downsample(ray.data.from_pandas(df), bucket_s=3600).to_pandas()
           .sort_values(["bucket_us", "kind"]).reset_index(drop=True))
    b0 = out[out["bucket_us"] == out["bucket_us"].min()]
    assert b0[b0["kind"] == "min"]["event_id"].tolist() == [0]
    assert b0[b0["kind"] == "max"]["event_id"].tolist() == [2]
    b1 = out[out["bucket_us"] != out["bucket_us"].min()]
    assert sorted(b1["kind"]) == ["max", "min"]
    assert set(b1["event_id"]) == {3}
