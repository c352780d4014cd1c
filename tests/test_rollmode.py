"""Unit tests for the batch-5 operators: ROWS-window moving average
(stages/window.py), per-group mode / co-occurrence / grouping-sets
rollup (stages/analytics.py), and top-k per group (stages/heavy.py) —
each vs brute-force pandas truth."""

import numpy as np
import pandas as pd
import ray.data


def _events(seed=11, n=3000, nusers=30):
    rng = np.random.default_rng(seed)
    v = np.round(rng.random(n) * 300.0 - 20.0, 2)
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, nusers, n),
        "event_type": rng.choice(["a", "b", "c", "d"], n),
        "value": np.where(rng.random(n) < 0.07, np.nan, v),
        "ts": pd.to_datetime(
            rng.integers(0, 4 * 86400, n) * 10**6, unit="us"
        ).astype("datetime64[us]"),
    })


def test_rolling_rows_avg_bruteforce(ray_session):
    from cesium_ray.stages.window import rolling_rows_avg

    ev = _events()
    got = (rolling_rows_avg(ray.data.from_pandas(ev).repartition(6),
                            n=5)
           .to_pandas().sort_values(["user_id", "event_id"])
           .reset_index(drop=True))
    s = ev.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    cnt = (s.groupby("user_id")["value"]
           .rolling(5, min_periods=1).count().to_numpy(np.int64))
    # exact int-space rolling sum, mirroring the engine
    cents = pd.Series(
        np.where(s["value"].isna(), 0.0,
                 np.round(s["value"].to_numpy() * 100)),
        index=s.index)
    rsum = (cents.groupby(s["user_id"])
            .rolling(5, min_periods=1).sum().to_numpy())
    avg = np.where(cnt > 0, (rsum / 100) / np.maximum(cnt, 1), np.nan)
    want = (pd.DataFrame({
        "user_id": s["user_id"].to_numpy(),
        "event_id": s["event_id"].to_numpy(),
        "roll_cnt": cnt, "roll_avg": avg,
    }).sort_values(["user_id", "event_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


def test_group_mode_ties(ray_session):
    from cesium_ray.stages.analytics import group_mode

    ev = pd.DataFrame({
        "user_id": [1, 1, 1, 1, 2, 2, 3],
        "event_type": ["b", "a", "a", "b", "z", "z", "q"],
    })
    got = (group_mode(ray.data.from_pandas(ev).repartition(3))
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    # user 1: tie a=2/b=2 → "a"; user 2: z=2; user 3: q=1
    assert got["mode_event_type"].tolist() == ["a", "z", "q"]
    assert got["n"].tolist() == [2, 2, 1]


def test_topk_per_group_bruteforce(ray_session):
    from cesium_ray.stages.heavy import topk_per_group

    ev = _events(seed=23)
    got = (topk_per_group(ray.data.from_pandas(ev).repartition(7),
                          k=3)
           .to_pandas()[["user_id", "rk", "event_id", "value"]]
           .sort_values(["user_id", "rk"]).reset_index(drop=True))
    d = ev[ev["value"].notna()].sort_values(
        ["user_id", "value", "event_id"],
        ascending=[True, False, True], kind="mergesort")
    want = d.groupby("user_id").head(3).copy()
    want["rk"] = (want.groupby("user_id").cumcount() + 1).astype(np.int64)
    want = (want[["user_id", "rk", "event_id", "value"]]
            .sort_values(["user_id", "rk"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


def test_grouping_sets_levels_consistent(ray_session):
    from cesium_ray.stages.analytics import grouping_sets_rollup

    ev = _events(seed=31)
    out = grouping_sets_rollup(ray.data.from_pandas(ev).repartition(5))
    fine = out[out["event_type"].notna() & out["bucket_us"].notna()]
    by_dim = out[out["event_type"].notna() & out["bucket_us"].isna()]
    by_day = out[out["event_type"].isna() & out["bucket_us"].notna()]
    total = out[out["event_type"].isna() & out["bucket_us"].isna()]
    assert len(total) == 1 and int(total["n"].iloc[0]) == len(ev)
    assert int(fine["n"].sum()) == len(ev)
    assert int(by_dim["n"].sum()) == len(ev)
    assert int(by_day["n"].sum()) == len(ev)
    # exact-sum consistency across levels (int-space, so == is safe)
    s_total = float(total["sum_value"].iloc[0])
    assert abs(fine["sum_value"].sum() - s_total) < 1e-9
    v = ev["value"].to_numpy()
    truth = np.round(v[~np.isnan(v)] * 100).astype(np.int64).sum() / 100
    assert s_total == truth


def test_cooccurrence_bruteforce(ray_session):
    from cesium_ray.stages.analytics import cooccurrence_pairs

    ev = _events(seed=41, nusers=12)
    got = cooccurrence_pairs(ray.data.from_pandas(ev).repartition(5))
    cells = ev[["user_id", "event_type"]].drop_duplicates()
    m = cells.merge(cells, on="user_id", suffixes=("_a", "_b"))
    m = m[m["event_type_a"] < m["event_type_b"]]
    want = (m.groupby(["event_type_a", "event_type_b"], as_index=False)
            .size().rename(columns={"size": "n_keys",
                                    "event_type_a": "type_a",
                                    "event_type_b": "type_b"})
            .sort_values(["type_a", "type_b"]).reset_index(drop=True))
    assert got.shape == want.shape
    for c in want.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
