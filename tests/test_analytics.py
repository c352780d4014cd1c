"""Cohort retention and funnel analytics (stages/analytics.py) vs
brute-force pandas ground truth."""

import numpy as np
import pandas as pd
import ray.data

_DAY_US = 86_400_000_000


def _events(seed=0, n=5000, nusers=60, span_days=20):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "user_id": rng.integers(0, nusers, n),
        "event_type": rng.choice(
            ["signup", "click", "purchase", "view"], n,
            p=[0.1, 0.4, 0.1, 0.4]),
        "ts": pd.to_datetime(
            rng.integers(0, span_days * 86400, n) * 10**6, unit="us"
        ).astype("datetime64[us]"),
    })


def test_cohort_retention_bruteforce(ray_session):
    from cesium_ray.stages.analytics import cohort_retention

    ev = _events()
    got = (cohort_retention(ray.data.from_pandas(ev).repartition(6))
           .sort_values(["cohort_day", "age_days"])
           .reset_index(drop=True))
    day = ev["ts"].to_numpy("datetime64[us]").view(np.int64) // _DAY_US
    e2 = ev.assign(day=day)
    first = e2.groupby("user_id")["day"].min().rename("cohort_day")
    cells = (e2.join(first, on="user_id")
             .assign(age_days=lambda d: d["day"] - d["cohort_day"])
             [["user_id", "cohort_day", "age_days"]].drop_duplicates())
    want = (cells.groupby(["cohort_day", "age_days"], as_index=False)
            .size().rename(columns={"size": "n_users"})
            .sort_values(["cohort_day", "age_days"]).reset_index(drop=True))
    assert got.shape == want.shape
    for c in want.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def _brute_funnel(ev, steps):
    reached = []
    for uid, g in ev.groupby("user_id"):
        tus = g["ts"].to_numpy("datetime64[us]").view(np.int64)
        et = g["event_type"].to_numpy()
        prev = -(2**62)
        depth = 0
        for s in steps:
            cand = tus[(et == s) & (tus > prev)]
            if len(cand) == 0:
                break
            prev = cand.min()
            depth += 1
        reached.append(depth)
    reached = np.array(reached)
    return [int((reached >= i).sum()) for i in range(1, len(steps) + 1)]


def test_funnel_bruteforce(ray_session):
    from cesium_ray.stages.analytics import funnel_steps

    ev = _events(seed=3)
    steps = ("signup", "click", "purchase")
    got = funnel_steps(ray.data.from_pandas(ev).repartition(7), steps=steps)
    want = _brute_funnel(ev, steps)
    assert list(got["n_users"]) == want
    # monotone non-increasing by construction
    assert (np.diff(got["n_users"].to_numpy()) <= 0).all()


def test_funnel_strict_order_semantics(ray_session):
    from cesium_ray.stages.analytics import funnel_steps

    # user 1: click BEFORE signup only → must not reach step 2;
    # user 2: full ordered funnel; user 3: click at the SAME us as
    # signup (strict > excludes it)
    ev = pd.DataFrame({
        "user_id": [1, 1, 2, 2, 2, 3, 3],
        "event_type": ["click", "signup", "signup", "click", "purchase",
                       "signup", "click"],
        "ts": pd.to_datetime(
            [100, 200, 10, 20, 30, 50, 50], unit="s"
        ).astype("datetime64[us]"),
    })
    got = funnel_steps(ray.data.from_pandas(ev))
    assert list(got["n_users"]) == [3, 1, 1]


def test_distinct_per_window_bruteforce(ray_session):
    from cesium_ray.stages.analytics import distinct_per_window

    ev = _events(seed=5)
    got = (distinct_per_window(ray.data.from_pandas(ev).repartition(6),
                               bucket_s=86400)
           .to_pandas().sort_values("bucket_us").reset_index(drop=True))
    day = (ev["ts"].to_numpy("datetime64[us]").view(np.int64)
           // _DAY_US) * _DAY_US
    want = (ev.assign(bucket_us=day)
            .groupby("bucket_us")["user_id"].nunique()
            .reset_index(name="n_users"))
    assert (got["bucket_us"].to_numpy() == want["bucket_us"].to_numpy()).all()
    assert (got["n_users"].to_numpy() == want["n_users"].to_numpy()).all()


def test_percent_rank_ties_and_single(ray_session):
    import duckdb

    from cesium_ray.stages.analytics import percent_rank_in_group

    rng = np.random.default_rng(6)
    ev = pd.DataFrame({
        "user_id": rng.integers(0, 15, 1500),
        "event_id": np.arange(1500, dtype=np.int64),
        "value": np.round(rng.integers(0, 30, 1500) / 2.0, 1),  # many ties
    })
    ev.loc[len(ev)] = [99, 9999, 5.0]  # single-row group → pr 0
    got = (percent_rank_in_group(ray.data.from_pandas(ev).repartition(5))
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    want = duckdb.sql("""
        SELECT event_id,
               percent_rank() OVER (PARTITION BY user_id ORDER BY value) AS pr
        FROM ev ORDER BY event_id
    """).df()
    assert np.allclose(got["pr"].to_numpy(), want["pr"].to_numpy(),
                       rtol=0, atol=0)
    assert got.loc[got["event_id"] == 9999, "pr"].iloc[0] == 0.0


def test_touch_attribution_bruteforce(ray_session):
    """First/last-touch credits match a per-conversion brute force
    (lookback window, strict before, ts+event_id tie order)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import touch_attribution

    rng = np.random.default_rng(5)
    n = 1500
    df = pd.DataFrame({
        "user_id": rng.integers(0, 30, n),
        "event_id": np.arange(n, dtype=np.int64),
        "event_type": rng.choice(["ad", "email", "social", "buy"], n,
                                 p=[0.3, 0.3, 0.3, 0.1]),
        "ts": pd.to_datetime(rng.integers(0, 20 * 86400, n), unit="s"),
    })
    look = 7 * 86400
    got = touch_attribution(
        ray.data.from_pandas(df).repartition(4), conversion="buy",
        lookback_s=look,
    ).set_index("event_type")
    fs, ls, nconv = {}, {}, 0
    s = df.sort_values(["ts", "event_id"], kind="mergesort")
    for u, g in s.groupby("user_id"):
        touches = g[g.event_type != "buy"]
        for _, c in g[g.event_type == "buy"].iterrows():
            w = touches[(touches.ts < c.ts)
                        & (touches.ts >= c.ts - pd.Timedelta(seconds=look))]
            if not len(w):
                continue
            nconv += 1
            fs[w.iloc[0].event_type] = fs.get(w.iloc[0].event_type, 0) + 1
            ls[w.iloc[-1].event_type] = ls.get(w.iloc[-1].event_type, 0) + 1
    for ch in set(fs) | set(ls):
        assert got.loc[ch, "first_touch"] == fs.get(ch, 0)
        assert got.loc[ch, "last_touch"] == ls.get(ch, 0)
    assert (got["n_conversions"] == nconv).all()
    assert got["first_touch"].sum() == got["last_touch"].sum() == nconv


def test_psi_drift_properties(ray_session):
    """PSI ~ 0 on a stationary stream; large under a mean shift in the
    second half; per-bin counts partition both halves."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import psi_drift

    rng = np.random.default_rng(8)
    n = 4000
    ts = pd.to_datetime(np.arange(n) * 1000, unit="s")

    def run(vals):
        df = pd.DataFrame({"value": np.round(vals, 2), "ts": ts})
        return psi_drift(ray.data.from_pandas(df).repartition(4))

    stat = run(rng.normal(50, 5, n))
    assert stat["psi"].iloc[0] < 0.05
    shifted = np.r_[rng.normal(50, 5, n // 2), rng.normal(80, 5, n - n // 2)]
    drift = run(shifted)
    assert drift["psi"].iloc[0] > 0.5
    assert drift["c_ref"].sum() == drift["n_ref"].iloc[0]
    assert drift["c_cur"].sum() == drift["n_cur"].iloc[0]
    assert drift["c_ref"].sum() + drift["c_cur"].sum() == n


def test_record_highs_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import record_highs

    rng = np.random.default_rng(9)
    n = 800
    df = pd.DataFrame({
        "user_id": rng.integers(0, 20, n),
        "event_id": np.arange(n, dtype=np.int64),
        "value": np.round(rng.normal(10, 3, n), 2),
        "ts": pd.to_datetime(rng.integers(0, 10**6, n), unit="s"),
    })
    got = record_highs(ray.data.from_pandas(df).repartition(3)).set_index("user_id")
    for u, g in df.sort_values(["ts", "event_id"]).groupby("user_id"):
        vq = np.rint(g["value"].to_numpy() * 100).astype(np.int64)
        best, rec = None, 0
        for x in vq:
            if best is None or x > best:
                rec += 1
                best = int(x) if best is None else max(best, int(x))
            best = max(best, int(x))
        assert got.loc[u, "n_records"] == rec
        assert got.loc[u, "final_max"] == vq.max() / 100.0


def test_k_anonymity_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import k_anonymity

    rng = np.random.default_rng(10)
    n = 2000
    df = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], n, p=[0.6, 0.39, 0.01]),
        "b": rng.integers(0, 4, n),
    })
    got = k_anonymity(ray.data.from_pandas(df).repartition(3),
                      quasi_cols=("a", "b"), k=25)
    sizes = df.groupby(["a", "b"]).size()
    assert got["n_classes"].iloc[0] == len(sizes)
    assert got["n_rows"].iloc[0] == n
    assert got["min_class_size"].iloc[0] == sizes.min()
    assert got["n_risky_classes"].iloc[0] == (sizes < 25).sum()
    assert got["n_risky_rows"].iloc[0] == sizes[sizes < 25].sum()
    assert got["risky_row_share"].iloc[0] == sizes[sizes < 25].sum() / n


def test_kaplan_meier_bruteforce(ray_session):
    """KM curve matches the textbook product-limit estimator on a
    hand-built cohort with censoring."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import kaplan_meier

    rows = []
    # user: (signup_s, purchase_s or None); global max at 1000s
    spec = {0: (0, 10), 1: (0, 10), 2: (5, 25), 3: (0, None),
            4: (10, 40), 5: (0, None), 6: (20, 30)}
    for u, (s, p) in spec.items():
        rows.append((u, "signup", s))
        if p is not None:
            rows.append((u, "purchase", p))
    rows.append((0, "view", 1000))  # sets the global censor time
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "t"])
    df["ts"] = pd.to_datetime(df["t"], unit="s")
    got = kaplan_meier(ray.data.from_pandas(
        df[["user_id", "event_type", "ts"]]).repartition(3))
    # durations: 10,10,20,1000c,30,1000c,10 -> event times 10,20,30
    km = got.set_index(got["duration_us"] // 10**6)
    assert list(km.index) == [10, 20, 30]
    assert km.loc[10, "n_risk"] == 7 and km.loc[10, "n_events"] == 3
    s10 = 1 - 3 / 7
    assert abs(km.loc[10, "survival"] - s10) < 1e-9
    assert km.loc[20, "n_risk"] == 4 and km.loc[20, "n_events"] == 1
    s20 = s10 * (1 - 1 / 4)
    assert abs(km.loc[20, "survival"] - s20) < 1e-9
    assert km.loc[30, "n_risk"] == 3 and km.loc[30, "n_events"] == 1
    assert abs(km.loc[30, "survival"] - s20 * (1 - 1 / 3)) < 1e-9


def test_kaplan_meier_censor_from_nonsignup_key(ray_session):
    """Global censor time must come from ALL events — including keys
    with no signup (oracle's mx CTE).  Repro: late-signup censored
    user + a signup-less user holding the latest event ⇒ the censored
    duration uses that later time, and both users are at risk at the
    observed event time."""
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import kaplan_meier

    rows = [
        (1, "signup", 0), (1, "purchase", 50),   # observed dur=50
        (2, "signup", 40),                        # censored
        (3, "view", 200),                         # no signup; global max
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "t"])
    df["ts"] = pd.to_datetime(df["t"], unit="s")
    got = kaplan_meier(ray.data.from_pandas(
        df[["user_id", "event_type", "ts"]]).repartition(2))
    km = got.set_index(got["duration_us"] // 10**6)
    # user 2's censored duration = 200-40 = 160 >= 50, so n_risk=2
    assert list(km.index) == [50]
    assert km.loc[50, "n_risk"] == 2 and km.loc[50, "n_events"] == 1
    assert abs(km.loc[50, "survival"] - 0.5) < 1e-12


def _loop_survival_cells(df):
    """Per-key loop oracle for the survival kernel's partition cells."""
    out = []
    for uid, g in df.groupby("user_id", observed=True):
        tus = g["ts"].to_numpy("datetime64[us]").view(np.int64)
        et = g["event_type"].to_numpy()
        st = tus[et == "signup"]
        if not len(st):
            out.append((int(uid), -1, -1, int(tus.max())))
            continue
        t0 = int(st.min())
        ev = tus[(et == "purchase") & (tus > t0)]
        out.append((int(uid), t0, int(ev.min()) if len(ev) else -1,
                    int(tus.max())))
    return pd.DataFrame(out, columns=["user_id", "t0", "tp", "tmax"])


def _loop_survival_closings(kid, dur, obs):
    """Per-event-time rescan oracle: KM rows, RMST area and log-rank
    (O−E, V), each float op in the engine's order."""
    grp_a = kid % 2 == 0
    rows, logsum, acc, s_prev, t_prev = [], 0.0, 0.0, 1.0, 0
    ome, var = 0.0, 0.0
    for t in np.unique(dur[obs]):
        at = dur >= t
        n_t, n1 = int(at.sum()), int((at & grp_a).sum())
        dmask = obs & (dur == t)
        d_t, d1 = int(dmask.sum()), int((dmask & grp_a).sum())
        acc = acc + s_prev * float(int(t) - t_prev)
        logsum += float(np.log(1.0 - float(d_t) / n_t)) \
            if d_t < n_t else float("-inf")
        s_prev, t_prev = float(np.exp(logsum)), int(t)
        rows.append((int(t), n_t, d_t, s_prev))
        if n_t >= 2:
            ome = ome + (float(d1) - float(n1) * float(d_t) / float(n_t))
            var = var + (float(n1) * float(n_t - n1) * float(d_t)
                         * float(n_t - d_t)
                         / (float(n_t) * float(n_t) * float(n_t - 1)))
    return rows, acc + s_prev * float(int(dur.max()) - t_prev), ome, var


def test_survival_kernel_matches_loops(monkeypatch):
    """Ray-free: the survival family's sort + reduceat partition cells
    equal the per-key loop's frame, and the searchsorted event counts
    give the old per-event-time loop's KM/RMST/log-rank floats
    exactly (==, not close)."""
    from cesium_ray.stages import analytics

    def frame(rows):
        df = pd.DataFrame(rows, columns=["user_id", "event_type", "t"])
        df["ts"] = pd.to_datetime(df["t"], unit="s")
        return df[["user_id", "event_type", "ts"]]

    cases = [
        [(2, "signup", 10), (1, "view", 500), (2, "purchase", 20)],
        [(3, "signup", 100), (3, "purchase", 100)],        # at t0: not after
        [(4, "purchase", 5), (4, "purchase", 8), (4, "signup", 50)],
        [(5, "signup", 30), (5, "signup", 10), (5, "purchase", 20),
         (5, "signup", 60)],                               # earliest wins
        [(6, "signup", 0), (6, "purchase", 70), (6, "purchase", 40),
         (6, "purchase", 90), (6, "view", 95)],
        [(7, "signup", 3)],                                # single row
    ]
    cases.append([r for c in cases for r in c][::-1])
    for rows in cases:
        df = frame(rows)
        got = analytics._survival_cells(df, "user_id", "event_type", "ts",
                                        "signup", "purchase")
        assert got.equals(_loop_survival_cells(df)), rows

    rng = np.random.default_rng(7)
    n = 400
    kid = np.arange(n, dtype=np.int64)
    dur = rng.integers(1, 60, n).astype(np.int64) * 10**6   # many ties
    obs = rng.random(n) < 0.6
    dur[:2], obs[:2] = 30 * 10**6, [True, False]   # censored at an event
    dur[2], obs[2] = 10**9, True                   # lone tail: n_t = 1
    monkeypatch.setattr(analytics, "_survival_durations",
                        lambda *a: (kid, dur, obs))
    rows, r, ome, var = _loop_survival_closings(kid, dur, obs)
    km = analytics.kaplan_meier(None)
    assert list(km.itertuples(index=False, name=None)) == rows
    assert km["survival"].iloc[-1] == 0.0
    rm = analytics.rmst(None)
    assert rm["rmst_days"].iloc[0] == r / 86400000000.0
    assert rm["rmst_share"].iloc[0] == r / float(dur.max())
    lr = analytics.logrank_test(None)
    assert lr["o_minus_e"].iloc[0] == ome
    assert lr["z_stat"].iloc[0] == ome / float(np.sqrt(var))


def test_zipf_exponent_recovers_alpha(ray_session):
    """CSN estimator recovers the generating exponent on synthetic
    Zipf counts within sampling tolerance."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import zipf_exponent

    rng = np.random.default_rng(14)
    counts = rng.zipf(2.0, 3000)
    counts = counts[counts < 10**5]
    rows = np.repeat(np.arange(len(counts)), counts)
    got = zipf_exponent(ray.data.from_pandas(
        pd.DataFrame({"user_id": rows})).repartition(4))
    assert got["n_keys"].iloc[0] == len(counts)
    assert got["x_min"].iloc[0] == counts.min()
    # the continuous-MLE approximation is biased high for discrete
    # data at xmin=1 (CSN 2009 §3.4) — tolerance covers that bias
    assert abs(got["alpha"].iloc[0] - 2.0) < 0.3


def test_chi_square_independence_known(ray_session):
    """chi2 ~ 0 for an independent table; large for a dependent one;
    matches the closed form on a hand case."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import chi_square_independence

    def run(df):
        return chi_square_independence(
            ray.data.from_pandas(df).repartition(3),
            col_a="a", col_b="b")

    # perfectly independent 2x2: counts 10 each
    ind = pd.DataFrame([("x", 0)] * 10 + [("x", 1)] * 10
                       + [("y", 0)] * 10 + [("y", 1)] * 10,
                       columns=["a", "b"])
    out = run(ind)
    assert out["chi2"].iloc[0] == 0.0
    assert out["dof"].iloc[0] == 1
    # fully dependent: x->0, y->1
    dep = pd.DataFrame([("x", 0)] * 20 + [("y", 1)] * 20,
                       columns=["a", "b"])
    out2 = run(dep)
    assert abs(out2["chi2"].iloc[0] - 40.0) < 1e-9  # = N for 2x2 perfect


def test_auc_mann_whitney_bruteforce(ray_session):
    """AUC matches the pairwise definition (ties count 1/2) and hits
    the known extremes on separable data."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import auc_mann_whitney

    rng = np.random.default_rng(17)

    def run(scores, labels):
        df = pd.DataFrame({
            "event_type": np.where(labels, "purchase", "view"),
            "value": scores})
        return auc_mann_whitney(ray.data.from_pandas(df).repartition(3))

    # separable: positives all higher -> AUC 1
    s = np.r_[np.full(30, 9.0), np.full(50, 1.0)]
    y = np.r_[np.ones(30, bool), np.zeros(50, bool)]
    assert run(s, y)["auc"].iloc[0] == 1.0
    # random scores: brute-force pairwise comparison
    s = np.round(rng.normal(5, 2, 300), 1)
    y = rng.random(300) < 0.3
    got = run(s, y)["auc"].iloc[0]
    sq = np.rint(s * 100).astype(np.int64)
    pos, neg = sq[y], sq[~y]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    want = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert abs(got - want) < 1e-12


def test_benford_digits_known(ray_session):
    """Exponential-ish data follows Benford closely; uniform data in
    [100, 200) concentrates on digit 1 and fails the fit."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import benford_digits

    rng = np.random.default_rng(18)

    def run(vals):
        return benford_digits(ray.data.from_pandas(
            pd.DataFrame({"value": vals})).repartition(3))

    ben = run(np.round(np.exp(rng.uniform(0, 12, 5000)) / 100.0, 2))
    # digit-1 share near log10(2) ~ 0.301
    assert abs(ben.set_index("digit").loc[1, "share"] - 0.301) < 0.03
    uni = run(np.round(rng.uniform(1.0, 2.0, 3000), 2))
    assert uni.set_index("digit").loc[1, "share"] > 0.95
    assert uni["chi2"].iloc[0] > ben["chi2"].iloc[0]


def test_runs_test_bruteforce(ray_session):
    """Runs count matches brute force; an alternating sequence gets a
    large positive z, a sorted one a large negative z."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import runs_test

    rows = []
    alt = [1.0 if i % 2 == 0 else 9.0 for i in range(40)]
    srt = sorted(np.linspace(1, 9, 40))
    for u, vals in [(0, alt), (1, srt)]:
        for i, v in enumerate(vals):
            rows.append((u, len(rows), float(v),
                         pd.Timestamp(i * 1000, unit="s")))
    df = pd.DataFrame(rows, columns=["user_id", "event_id", "value", "ts"])
    got = runs_test(ray.data.from_pandas(df).repartition(3)).set_index("user_id")
    assert got.loc[0, "n_runs"] == 40    # perfect alternation
    assert got.loc[0, "z_runs"] > 5
    assert got.loc[1, "n_runs"] == 2     # one switch
    assert got.loc[1, "z_runs"] < -5


def test_ks_drift_properties(ray_session):
    """KS ~ 0 on a stationary stream, large on a shifted second half;
    exact numerator matches a brute-force ECDF comparison."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import ks_drift

    rng = np.random.default_rng(19)
    n = 3000
    ts = pd.to_datetime(np.arange(n) * 1000, unit="s")

    def run(vals):
        return ks_drift(ray.data.from_pandas(pd.DataFrame(
            {"value": np.round(vals, 2), "ts": ts})).repartition(4))

    stat = run(rng.normal(50, 5, n))
    assert stat["ks_d"].iloc[0] < 0.06
    drift = run(np.r_[rng.normal(50, 5, n // 2),
                      rng.normal(60, 5, n - n // 2)])
    assert drift["ks_d"].iloc[0] > 0.5
    # brute force on the drifted case
    v = np.rint(np.round(np.r_[rng.normal(50, 5, 10),
                               rng.normal(60, 5, 10)], 2) * 100)
    got = ks_drift(ray.data.from_pandas(pd.DataFrame({
        "value": v / 100.0,
        "ts": pd.to_datetime(np.arange(20) * 1000, unit="s"),
    })).repartition(2))
    a, b = v[:10], v[10:]
    supp = np.unique(v)
    f1 = np.array([(a <= s).sum() for s in supp])
    f2 = np.array([(b <= s).sum() for s in supp])
    want = np.abs(f1 * 10 - f2 * 10).max()
    assert got["d_num"].iloc[0] == want


def test_bootstrap_mean_ci_properties(ray_session):
    """CI brackets the sample mean, tightens with n, and the
    deterministic resampling is reproducible across runs."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.analytics import bootstrap_mean_ci

    rng = np.random.default_rng(20)
    rows = []
    for u, n in [(0, 20), (1, 500)]:
        for v in np.round(rng.normal(50, 10, n), 2):
            rows.append((u, v))
    df = pd.DataFrame(rows, columns=["user_id", "value"])

    def run():
        return bootstrap_mean_ci(
            ray.data.from_pandas(df).repartition(3), n_boot=200).set_index("user_id")

    a, b = run(), run()
    pd.testing.assert_frame_equal(a, b)   # deterministic
    for u in (0, 1):
        assert a.loc[u, "ci_lo"] <= a.loc[u, "mean_all"] <= a.loc[u, "ci_hi"]
    w0 = a.loc[0, "ci_hi"] - a.loc[0, "ci_lo"]
    w1 = a.loc[1, "ci_hi"] - a.loc[1, "ci_lo"]
    assert w1 < w0  # more data -> tighter interval


def test_jarque_bera_bruteforce(ray_session):
    from cesium_ray.stages.analytics import jarque_bera

    ev = _events(seed=93, n=4000, nusers=25)
    rng = np.random.default_rng(94)
    ev["value"] = np.round(rng.normal(20, 5, len(ev)), 2)
    ev["event_id"] = np.arange(len(ev), dtype=np.int64)
    got = jarque_bera(ray.data.from_pandas(ev).repartition(6))
    for uid, g in ev.groupby("user_id"):
        v = g["value"].to_numpy(np.float64)
        n = len(v)
        mu = np.rint(v * 100).sum() / 100.0 / n
        d = v - mu
        m2, m3, m4 = (d**2).mean(), (d**3).mean(), (d**4).mean()
        g1, g2 = m3 / m2**1.5, m4 / m2**2
        jb = n / 6.0 * (g1 * g1 + 0.25 * (g2 - 3.0) ** 2)
        row = got[got["user_id"] == uid]
        assert len(row) == 1 and int(row["n"].iloc[0]) == n
        assert abs(row["skew_g1"].iloc[0] - g1) < 1e-9
        assert abs(row["kurt_g2"].iloc[0] - g2) < 1e-9
        assert abs(row["jb"].iloc[0] - jb) < 1e-7, uid
    # Gaussian data: most JB stats should be small (< 10)
    assert (got["jb"] < 10).mean() > 0.7


def test_welch_ttest_bruteforce(ray_session):
    from cesium_ray.stages.analytics import welch_ttest

    ev = _events(seed=95, n=5000, nusers=25, span_days=30)
    rng = np.random.default_rng(96)
    ev["value"] = np.round(rng.uniform(1, 80, len(ev)), 2)
    got = welch_ttest(ray.data.from_pandas(ev).repartition(6))
    day = ev["ts"].to_numpy("datetime64[us]").view("int64") // (
        86400 * 10**6)
    ev["_we"] = np.isin((day + 4) % 7, [0, 6])
    for uid, g in ev.groupby("user_id"):
        a = np.rint(g.loc[~g["_we"], "value"].to_numpy() * 100)
        b = np.rint(g.loc[g["_we"], "value"].to_numpy() * 100)
        row = got[got["user_id"] == uid]
        if len(a) < 2 or len(b) < 2:
            assert len(row) == 0
            continue
        v1, v2 = a.var(ddof=1), b.var(ddof=1)
        w1, w2 = v1 / len(a), v2 / len(b)
        t = (a.mean() - b.mean()) / 100.0 / np.sqrt(w1 + w2)
        dfw = (w1 + w2) ** 2 / (w1**2 / (len(a) - 1)
                                + w2**2 / (len(b) - 1))
        assert len(row) == 1
        assert int(row["n_wd"].iloc[0]) == len(a)
        assert int(row["n_we"].iloc[0]) == len(b)
        assert abs(row["mean_wd"].iloc[0] - a.mean() / 100.0) < 1e-9
        assert abs(row["t_stat"].iloc[0] - t) < 1e-9, uid
        assert abs(row["df_w"].iloc[0] - dfw) < 1e-7, uid
    # same uniform distribution on both sides: |t| mostly small
    assert (got["t_stat"].abs() < 3).mean() > 0.8


def test_theil_index_bruteforce(ray_session):
    from cesium_ray.stages.analytics import theil_index

    ev = _events(seed=431, n=4000, nusers=40)
    got = theil_index(ray.data.from_pandas(ev).repartition(6))
    c = ev.groupby("user_id").size().to_numpy(np.float64)
    mu = c.mean()
    want = ((c / c.sum()) * np.log(c / mu)).sum()
    assert len(got) == 1
    assert int(got["n_users"].iloc[0]) == len(c)
    assert int(got["total"].iloc[0]) == int(c.sum())
    assert abs(got["theil"].iloc[0] - want) < 1e-9
    # perfectly even traffic: T = 0
    even = pd.DataFrame({"user_id": np.repeat(np.arange(10), 7)})
    out = theil_index(ray.data.from_pandas(even))
    assert abs(out["theil"].iloc[0]) < 1e-12


def test_rising_keys_bruteforce(ray_session):
    from cesium_ray.stages.analytics import rising_keys

    ev = _events(seed=461, n=3000, nusers=20)
    got = rising_keys(ray.data.from_pandas(ev).repartition(6))
    t = ev["ts"].to_numpy("datetime64[us]").view(np.int64)
    mid = (int(t.min()) + int(t.max())) // 2
    second = t > mid
    c1 = ev.loc[~second].groupby("user_id").size()
    c2 = ev.loc[second].groupby("user_id").size()
    t1, t2 = int(c1.sum()), int(c2.sum())
    for uid in np.union1d(c1.index, c2.index):
        a, b = int(c1.get(uid, 0)), int(c2.get(uid, 0))
        score = b * t1 - a * t2
        row = got[got["user_id"] == uid]
        if score == 0:
            assert len(row) == 0
            continue
        assert len(row) == 1
        assert (int(row["c1"].iloc[0]), int(row["c2"].iloc[0])) \
            == (a, b)
        assert int(row["score"].iloc[0]) == score
        assert abs(row["share_delta"].iloc[0]
                   - (b / t2 - a / t1)) < 1e-12, uid
    # planted riser: all events in the second half -> max positive
    # score relative to its volume
    base = pd.DataFrame({
        "event_id": np.arange(100, dtype=np.int64),
        "user_id": np.repeat(np.arange(2), 50).astype(np.int64),
        "ts": pd.to_datetime(
            np.r_[np.arange(50), 100 + np.arange(50)] * 10**6,
            unit="us").astype("datetime64[us]")})
    out = rising_keys(ray.data.from_pandas(base))
    s = out.set_index("user_id")
    assert s.loc[1, "score"] > 0 > s.loc[0, "score"]
    assert abs(s.loc[1, "share_delta"] - 1.0) < 1e-12
