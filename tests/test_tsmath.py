"""TSDB math stage (stages/tsmath.py): OHLC, time-weighted average,
z-score anomalies, diurnal profile, trend correlation — distributed
paths vs brute-force pandas/DuckDB ground truth."""

import duckdb
import numpy as np
import pandas as pd
import ray.data


def _events(seed=0, n=4000, nkeys=20):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, nkeys, n),
        "ts": pd.to_datetime(
            rng.integers(0, 5 * 86400, n) * 10**6, unit="us"
        ).astype("datetime64[us]"),
        "value": np.round(rng.gamma(2.0, 25.0, n), 2),
    })


def test_ohlc_matches_duckdb(ray_session):
    from cesium_ray.stages.tsmath import ohlc_rollup

    ev = _events()
    got = (ohlc_rollup(ray.data.from_pandas(ev).repartition(6),
                       bucket_s=3600)
           .to_pandas().sort_values(["user_id", "bucket_us"])
           .reset_index(drop=True))
    want = duckdb.sql("""
        SELECT user_id,
               (epoch_us(ts) // 3600000000) * 3600000000 AS bucket_us,
               first(value ORDER BY ts, event_id) AS open,
               max(value) AS high, min(value) AS low,
               last(value ORDER BY ts, event_id) AS close,
               count(*) AS n
        FROM ev GROUP BY 1, 2 ORDER BY 1, 2
    """).df()
    for c in ["user_id", "bucket_us", "open", "high", "low", "close", "n"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_twa_single_point_and_ties(ray_session):
    from cesium_ray.stages.tsmath import time_weighted_avg

    ev = pd.DataFrame({
        "event_id": [0, 1, 2, 3, 4],
        "user_id": [1, 2, 2, 2, 3],
        "ts": pd.to_datetime(
            [0, 0, 600 * 10**6, 600 * 10**6, 5 * 10**6], unit="us"
        ).astype("datetime64[us]"),
        "value": [7.25, 10.0, 20.0, 30.0, 4.0],
    })
    got = (time_weighted_avg(ray.data.from_pandas(ev), bucket_s=86400)
           .to_pandas().set_index("user_id"))
    # single point → plain value; zero-span bucket → mean
    assert got.loc[1, "twa"] == 7.25
    assert got.loc[3, "twa"] == 4.0
    # user 2: 10.0 holds 600s, then 20.0 for 0s (tie), 30.0 ends →
    # TWA = (1000*600e6 + 2000*0) / (600e6*100) = 10.0
    assert got.loc[2, "twa"] == 10.0
    assert got.loc[2, "span_us"] == 600 * 10**6


def test_twa_matches_duckdb(ray_session):
    from cesium_ray.stages.tsmath import time_weighted_avg

    ev = _events(seed=3)
    got = (time_weighted_avg(ray.data.from_pandas(ev).repartition(4),
                             bucket_s=86400)
           .to_pandas().sort_values(["user_id", "bucket_us"])
           .reset_index(drop=True))
    want = duckdb.sql("""
        WITH o AS (
          SELECT user_id,
                 (epoch_us(ts) // 86400000000) * 86400000000 AS bucket_us,
                 CAST(round(value * 100) AS BIGINT) AS k,
                 epoch_us(ts) AS tus,
                 lead(epoch_us(ts)) OVER (
                   PARTITION BY user_id, epoch_us(ts) // 86400000000
                   ORDER BY ts, event_id) AS next_tus
          FROM ev)
        SELECT user_id, bucket_us,
               CASE WHEN sum(coalesce(next_tus - tus, 0)) > 0
               THEN CAST(sum(k * coalesce(next_tus - tus, 0)) AS DOUBLE)
                    / (CAST(sum(coalesce(next_tus - tus, 0)) AS DOUBLE) * 100.0)
               ELSE CAST(sum(k) AS DOUBLE) / (CAST(count(*) AS DOUBLE) * 100.0)
               END AS twa
        FROM o GROUP BY 1, 2 ORDER BY 1, 2
    """).df()
    assert (got["twa"].to_numpy() == want["twa"].to_numpy()).all()


def test_zscore_flags_planted_outliers(ray_session):
    from cesium_ray.stages.tsmath import zscore_anomalies

    rng = np.random.default_rng(1)
    n = 2000
    ev = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 10, n),
        "value": np.round(rng.normal(100, 5, n), 2),
    })
    planted = [5, 777, 1500]
    ev.loc[planted, "value"] = 500.0
    got = (zscore_anomalies(ray.data.from_pandas(ev).repartition(4),
                            thresh=2.5).to_pandas())
    assert set(planted) <= set(got["event_id"])
    # brute force per user
    for uid, g in ev.groupby("user_id"):
        k = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        mu, sd = k.mean(), k.std()
        want_ids = g["event_id"].to_numpy()[np.abs((k - mu) / sd) > 2.5]
        got_ids = got.loc[got["user_id"] == uid, "event_id"].to_numpy()
        assert set(want_ids) == set(got_ids)


def test_zscore_constant_series_flags_nothing(ray_session):
    from cesium_ray.stages.tsmath import zscore_anomalies

    ev = pd.DataFrame({"event_id": [0, 1, 2], "user_id": [1, 1, 1],
                       "value": [5.0, 5.0, 5.0]})
    got = zscore_anomalies(ray.data.from_pandas(ev)).to_pandas()
    assert len(got) == 0


def test_diurnal_profile_exact(ray_session):
    from cesium_ray.stages.tsmath import diurnal_profile

    ev = _events(seed=7).assign(
        event_type=np.random.default_rng(7).choice(["a", "b"], 4000))
    got = (diurnal_profile(ray.data.from_pandas(ev).repartition(8))
           .sort_values(["event_type", "hour"]).reset_index(drop=True))
    tus = ev["ts"].to_numpy("datetime64[us]").view(np.int64)
    ev2 = ev.assign(hour=(tus // 3600000000) % 24,
                    k=np.rint(ev["value"] * 100).astype(np.int64))
    want = (ev2.groupby(["event_type", "hour"], as_index=False)
            .agg(n=("k", "size"), sk=("k", "sum")))
    assert (got["n"].to_numpy() == want["n"].to_numpy()).all()
    assert np.allclose(got["mean_value"], want["sk"] / (want["n"] * 100.0),
                       rtol=0, atol=0)


def test_trend_corr_recovers_monotone_trend(ray_session):
    from cesium_ray.stages.tsmath import trend_corr

    n = 500
    ts = pd.to_datetime(np.arange(n) * 60 * 10**6, unit="us").astype(
        "datetime64[us]")
    ev = pd.concat([
        pd.DataFrame({"user_id": 1, "ts": ts,
                      "value": np.round(np.linspace(1, 50, n), 2)}),
        pd.DataFrame({"user_id": 2, "ts": ts,
                      "value": np.round(np.linspace(50, 1, n), 2)}),
        pd.DataFrame({"user_id": 3, "ts": ts[:1], "value": [5.0]}),
    ])
    got = (trend_corr(ray.data.from_pandas(ev))
           .to_pandas().set_index("user_id"))
    assert got.loc[1, "trend_r"] > 0.999
    assert got.loc[2, "trend_r"] < -0.999
    assert np.isnan(got.loc[3, "trend_r"])
    # vs numpy corrcoef on a noisy series
    rng = np.random.default_rng(5)
    noisy = pd.DataFrame({
        "user_id": 9,
        "ts": ts,
        "value": np.round(np.linspace(0, 20, n) + rng.normal(0, 5, n), 2)})
    got9 = trend_corr(ray.data.from_pandas(noisy)).to_pandas()
    k = np.rint(noisy["value"].to_numpy() * 100)
    y = np.arange(n) * 60.0
    assert abs(got9["trend_r"].iloc[0] - np.corrcoef(k, y)[0, 1]) < 1e-9


def test_irate_reset_and_single_point(ray_session):
    from cesium_ray.stages.tsmath import irate

    ev = pd.DataFrame({
        "event_id": [0, 1, 2, 3, 4],
        "user_id": [1, 1, 2, 2, 3],
        "ts": pd.to_datetime([0, 10 * 10**6, 0, 5 * 10**6, 0],
                             unit="us").astype("datetime64[us]"),
        "value": [10.0, 14.0, 50.0, 20.0, 9.0],
    })
    got = (irate(ray.data.from_pandas(ev)) .to_pandas().set_index("user_id"))
    assert got.loc[1, "irate_per_sec"] == (14.0 - 10.0) / 10.0
    # counter reset: contribution is the current value
    assert got.loc[2, "irate_per_sec"] == 20.0 / 5.0
    assert np.isnan(got.loc[3, "irate_per_sec"])


def test_ewma_matches_pandas_ewm(ray_session):
    from cesium_ray.stages.tsmath import ewma_last

    rng = np.random.default_rng(9)
    frames = []
    for uid, n in [(1, 1), (2, 2), (3, 50), (4, 500)]:
        frames.append(pd.DataFrame({
            "user_id": uid,
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(np.arange(n) * 10**6,
                                 unit="us").astype("datetime64[us]"),
            "value": np.round(rng.gamma(2, 20, n), 2),
        }))
    ev = pd.concat(frames, ignore_index=True)
    got = (ewma_last(ray.data.from_pandas(ev).repartition(3), alpha=0.3)
           .to_pandas().set_index("user_id"))
    for uid, g in ev.groupby("user_id"):
        want = g.sort_values("event_id")["value"].ewm(
            alpha=0.3, adjust=False).mean().iloc[-1]
        assert abs(got.loc[uid, "ewma"] - want) < 1e-9, uid
    assert got.loc[1, "ewma"] == ev.loc[ev["user_id"] == 1, "value"].iloc[0]


def test_scd2_history_bruteforce(ray_session):
    """SCD2 validity intervals match a per-key brute force: runs of
    equal attr become versions with [valid_from, next-run-start) and
    NULL valid_to on the current version."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.tsmath import scd2_history

    rng = np.random.default_rng(11)
    n = 1200
    df = pd.DataFrame({
        "user_id": rng.integers(0, 25, n),
        "event_id": np.arange(n, dtype=np.int64),
        "event_type": rng.choice(["a", "b", "c"], n),
        "ts": pd.to_datetime(rng.integers(0, 10**6, n), unit="s"),
    })
    got = scd2_history(ray.data.from_pandas(df).repartition(4))
    rows = []
    for u, g in df.sort_values(["user_id", "ts", "event_id"],
                               kind="mergesort").groupby("user_id"):
        runs, prev = [], None
        for _, r in g.iterrows():
            if prev is None or r.event_type != prev:
                runs.append([r.event_type, r.ts])
            prev = r.event_type
        for i, (a, vf) in enumerate(runs):
            vt = runs[i + 1][1] if i + 1 < len(runs) else pd.NaT
            rows.append((u, a, vf, vt, i + 1, i + 1 == len(runs)))
    want = pd.DataFrame(rows, columns=[
        "user_id", "event_type", "valid_from", "valid_to",
        "version_no", "is_current"])
    want["valid_from"] = want["valid_from"].astype("datetime64[us]")
    want["valid_to"] = want["valid_to"].astype("datetime64[us]")
    want["version_no"] = want["version_no"].astype("int64")
    want = want.sort_values(["user_id", "version_no"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    # invariants: per key, versions chain (valid_to == next valid_from)
    for u, g in got.groupby("user_id"):
        assert g.is_current.sum() == 1 and bool(g.is_current.iloc[-1])
        assert (g.valid_to.iloc[:-1].to_numpy()
                == g.valid_from.iloc[1:].to_numpy()).all()


def test_theilsen_trend_bruteforce(ray_session):
    """Theil–Sen slope matches the textbook definition (median of all
    pairwise slopes over distinct-ts pairs) and is robust to an
    injected outlier that flips the least-squares fit."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.tsmath import theilsen_trend

    rng = np.random.default_rng(2)
    rows = []
    for u in range(6):
        n = int(rng.integers(5, 40))
        t = np.sort(rng.choice(10**6, n, replace=False))
        v = 0.5 * t / 1e3 + rng.normal(0, 1, n)
        if u == 0:
            v[-1] += 1e7  # massive outlier
        for i in range(n):
            rows.append((u, len(rows), v[i],
                         pd.Timestamp(t[i] * 1000, unit="us")))
    df = pd.DataFrame(rows, columns=["user_id", "event_id", "value", "ts"])
    got = theilsen_trend(ray.data.from_pandas(df).repartition(3)).set_index("user_id")
    for u, g in df.groupby("user_id"):
        t = g["ts"].to_numpy("datetime64[us]").view(np.int64)
        v = g["value"].to_numpy(np.float64)
        iu, ju = np.triu_indices(len(g), k=1)
        ok = t[ju] > t[iu]
        slopes = (v[ju] - v[iu])[ok] / ((t[ju] - t[iu])[ok] / 1e6)
        assert got.loc[u, "n_pairs"] == len(slopes)
        assert got.loc[u, "ts_slope_per_s"] == np.median(slopes)
    # robustness: the outlier user's slope stays near the true 0.5/s
    # (least squares on the same data is blown to ~1e3x by the spike)
    assert abs(got.loc[0, "ts_slope_per_s"] - 0.5) < 0.05


def test_mann_kendall_bruteforce(ray_session):
    """S, tie-corrected variance and Z match the textbook definitions;
    a strictly increasing series gets the maximal S."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.tsmath import mann_kendall

    rng = np.random.default_rng(4)
    rows = []
    for u in range(5):
        n = int(rng.integers(5, 30))
        t = np.sort(rng.choice(10**6, n, replace=False))
        v = (np.arange(n, dtype=float) / 100.0 if u == 0
             else np.round(rng.normal(10, 2, n), 2))
        for i in range(n):
            rows.append((u, len(rows), v[i],
                         pd.Timestamp(t[i] * 1000, unit="us")))
    df = pd.DataFrame(rows, columns=["user_id", "event_id", "value", "ts"])
    got = mann_kendall(ray.data.from_pandas(df).repartition(3)).set_index("user_id")
    for u, g in df.sort_values(["user_id", "ts", "event_id"]).groupby("user_id"):
        vq = np.rint(g["value"].to_numpy(np.float64) * 100).astype(np.int64)
        n = len(vq)
        iu, ju = np.triu_indices(n, k=1)
        S = int(np.sign(vq[ju] - vq[iu]).sum())
        _, t = np.unique(vq, return_counts=True)
        var18 = n * (n - 1) * (2 * n + 5) - int(
            (t * (t - 1) * (2 * t + 5)).sum())
        assert got.loc[u, "s_stat"] == S
        assert got.loc[u, "var_s18"] == var18
        if var18 and S != 0:
            want_z = (S - np.sign(S)) / np.sqrt(var18 / 18.0)
            assert abs(got.loc[u, "z_stat"] - want_z) < 1e-6
    # strictly increasing user: S = n(n-1)/2, strongly positive Z
    n0 = (df.user_id == 0).sum()
    assert got.loc[0, "s_stat"] == n0 * (n0 - 1) // 2
    assert got.loc[0, "z_stat"] > 3.0


def test_gini_coefficient_known_answers(ray_session):
    """Uniform counts -> 0; extreme concentration -> near 1; matches
    the closed form on a hand case."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import gini_coefficient

    def build(counts):
        rows = []
        for u, c in enumerate(counts):
            rows += [(u,)] * c
        return ray.data.from_pandas(
            pd.DataFrame(rows, columns=["user_id"])).repartition(3)

    uni = gini_coefficient(build([10] * 8))
    assert uni["gini"].iloc[0] == 0.0
    conc = gini_coefficient(build([1, 1, 1, 197]))
    assert conc["gini"].iloc[0] > 0.7
    hand = gini_coefficient(build([1, 2, 3, 4]))
    # closed form: sum((2i-n-1)x)/ (n*sum) = (-3*1 -1*2 +1*3 +3*4)/(4*10)
    assert hand["gini"].iloc[0] == 10 / 40


def test_trimmed_mean_bruteforce(ray_session):
    """Band membership uses the exact quantile_cont-equivalent edges;
    a fat outlier moves mean_all but barely the trimmed mean."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.oracle.rollup import duck_quantile
    from cesium_ray.stages.tsmath import trimmed_mean

    rng = np.random.default_rng(12)
    rows = []
    for u in range(8):
        n = int(rng.integers(10, 60))
        v = np.round(rng.normal(20, 4, n), 2)
        if u == 0:
            v[0] = 5000.0
        rows += [(u, x) for x in v]
    df = pd.DataFrame(rows, columns=["user_id", "value"])
    got = trimmed_mean(ray.data.from_pandas(df).repartition(3)).set_index("user_id")
    for u, g in df.groupby("user_id"):
        vq = np.sort(np.rint(g["value"].to_numpy() * 100).astype(np.int64))
        lo = duck_quantile(vq.astype(float), 0.1)
        hi = duck_quantile(vq.astype(float), 0.9)
        keep = vq[(vq >= lo) & (vq <= hi)]
        assert got.loc[u, "n_kept"] == len(keep)
        assert got.loc[u, "trimmed_mean"] == \
            float(int(keep.sum())) / len(keep) / 100.0
    assert got.loc[0, "mean_all"] > got.loc[0, "trimmed_mean"] + 1.0


def test_robust_anomalies_bruteforce(ray_session):
    """Modified z-score counts match the textbook definition; an
    injected spike is flagged while mean/sigma-based z would also move
    the threshold."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.oracle.rollup import duck_quantile
    from cesium_ray.stages.tsmath import robust_anomalies

    rng = np.random.default_rng(13)
    rows = []
    for u in range(6):
        v = np.round(rng.normal(30, 2, int(rng.integers(15, 50))), 2)
        if u == 0:
            v[3] = 900.0
        rows += [(u, x) for x in v]
    df = pd.DataFrame(rows, columns=["user_id", "value"])
    got = robust_anomalies(ray.data.from_pandas(df).repartition(3)).set_index("user_id")
    for u, g in df.groupby("user_id"):
        vk = np.rint(g["value"].to_numpy() * 100).astype(np.int64).astype(float)
        med = duck_quantile(np.sort(vk), 0.5)
        mad = duck_quantile(np.sort(np.abs(vk - med)), 0.5)
        want = int((np.abs(0.6745 * (vk - med) / mad) > 3.5).sum()) if mad else 0
        assert got.loc[u, "n_anomalies"] == want
    assert got.loc[0, "n_anomalies"] >= 1


def test_spearman_trend_bruteforce(ray_session):
    """Matches scipy-style tie-averaged Spearman computed by hand;
    +1 / -1 on monotone series."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.tsmath import spearman_trend

    rng = np.random.default_rng(15)
    rows = []
    for u in range(5):
        n = int(rng.integers(8, 40))
        t = np.sort(rng.choice(10**6, n, replace=False))
        if u == 0:
            v = np.arange(n) / 10.0       # perfectly increasing
        elif u == 1:
            v = -np.arange(n) / 10.0      # perfectly decreasing
        else:
            v = np.round(rng.normal(5, 1, n), 1)  # ties likely
        for i in range(n):
            rows.append((u, len(rows), v[i],
                         pd.Timestamp(t[i] * 1000, unit="us")))
    df = pd.DataFrame(rows, columns=["user_id", "event_id", "value", "ts"])
    got = spearman_trend(ray.data.from_pandas(df).repartition(3)).set_index("user_id")
    assert got.loc[0, "spearman"] == 1.0
    assert got.loc[1, "spearman"] == -1.0
    for u, g in df.groupby("user_id"):
        vq = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        t = g["ts"].to_numpy("datetime64[us]").view(np.int64)

        def dr(x):
            order = np.argsort(x, kind="mergesort")
            xs = x[order]
            st = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
            en = np.r_[st[1:], len(xs)]
            d = np.empty(len(xs), np.int64)
            for s, e in zip(st, en):
                d[s:e] = s + 1 + e
            out = np.empty(len(xs), np.int64)
            out[order] = d
            return out

        rx, ry = dr(t).astype(float), dr(vq).astype(float)
        want = np.corrcoef(rx, ry)[0, 1]
        assert abs(got.loc[u, "spearman"] - want) < 1e-9


def test_cusum_alarms_reflection_identity(ray_session):
    """The vectorized closed form equals the sequential clamped
    recurrence; an injected level shift raises alarms."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.tsmath import cusum_alarms

    rng = np.random.default_rng(16)
    rows = []
    for u in range(5):
        n = int(rng.integers(20, 80))
        v = rng.normal(10, 1, n)
        if u == 0:
            v[n // 2:] += 60.0  # level shift -> sustained drift
        t = np.sort(rng.choice(10**6, n, replace=False))
        for i in range(n):
            rows.append((u, len(rows), round(float(v[i]), 2),
                         pd.Timestamp(t[i] * 1000, unit="us")))
    df = pd.DataFrame(rows, columns=["user_id", "event_id", "value", "ts"])
    got = cusum_alarms(ray.data.from_pandas(df).repartition(3)).set_index("user_id")
    for u, g in df.sort_values(["user_id", "ts", "event_id"]).groupby("user_id"):
        vq = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        n = len(vq)
        d = vq * n - int(vq.sum()) - 100 * n
        s, mx, alarms = 0, 0, 0
        for x in d:
            s = max(0, s + int(x))
            mx = max(mx, s)
            alarms += s > 2000 * n
        assert got.loc[u, "max_cusum_scaled"] == mx
        assert got.loc[u, "n_alarms"] == alarms
    assert got.loc[0, "n_alarms"] > 0
