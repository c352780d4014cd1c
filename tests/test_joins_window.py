"""As-of join (stages/joins.py) and RANGE-window aggregate
(stages/window.py): both distributed paths vs pandas/DuckDB ground
truth."""

import duckdb
import numpy as np
import pandas as pd
import ray.data


def _fixture(seed=0, nl=3000, nr=300, nkeys=25):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame({
        "event_id": np.arange(nl),
        "user_id": rng.integers(0, nkeys, nl),
        "ts": pd.to_datetime(rng.integers(0, 10**6, nl) * 10**6,
                             unit="us").astype("datetime64[us]"),
        "value": np.round(rng.normal(50, 10, nl), 2),
    })
    right = (pd.DataFrame({
        "user_id": rng.integers(0, nkeys, nr),
        "ts": pd.to_datetime(rng.integers(0, 10**6, nr) * 10**6,
                             unit="us").astype("datetime64[us]"),
        "cnt": rng.integers(1, 100, nr).astype("int64"),
    }).drop_duplicates(["user_id", "ts"]).reset_index(drop=True))
    return left, right


def _want_asof(left, right):
    lt = left.sort_values("ts", kind="mergesort")
    rt = right.sort_values("ts", kind="mergesort").copy()
    rt["ts_r"] = rt["ts"]
    w = pd.merge_asof(lt, rt, on="ts", by="user_id", direction="backward")
    return (w[w["ts_r"].notna()].sort_values("event_id")
            .reset_index(drop=True))


def test_asof_join_partitioned_matches_merge_asof(ray_session):
    left, right = _fixture()
    want = _want_asof(left, right)
    from cesium_ray.stages.joins import asof_join

    got = asof_join(
        ray.data.from_pandas(left).repartition(6),
        ray.data.from_pandas(right).repartition(3),
        by="user_id", left_on="ts", right_on="ts", right_vals=("cnt",),
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["event_id"].to_numpy() == want["event_id"].to_numpy()).all()
    assert (got["cnt"].to_numpy() == want["cnt"].to_numpy().astype(np.int64)).all()
    assert (got["ts_r"].to_numpy() == want["ts_r"].to_numpy()).all()
    assert got["cnt"].dtype == np.int64 and got["event_id"].dtype == np.int64


def test_asof_join_broadcast_matches_partitioned(ray_session):
    left, right = _fixture(seed=3)
    want = _want_asof(left, right)
    from cesium_ray.stages.joins import asof_join_broadcast

    got = asof_join_broadcast(
        ray.data.from_pandas(left).repartition(6), right,
        by="user_id", left_on="ts", right_on="ts", right_vals=("cnt",),
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["cnt"].to_numpy() == want["cnt"].to_numpy().astype(np.int64)).all()
    assert (got["ts_r"].to_numpy() == want["ts_r"].to_numpy()).all()


def test_asof_left_keeps_unmatched(ray_session):
    left, right = _fixture(seed=5, nl=500, nr=40)
    from cesium_ray.stages.joins import asof_join

    got = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        by="user_id", left_on="ts", right_on="ts", right_vals=("cnt",),
        how="left",
    ).to_pandas()
    assert len(got) == len(left)


def test_window_range_agg_matches_duckdb(ray_session):
    left, _ = _fixture(seed=9, nl=4000)
    # plant some null values so count(*) vs count(value) differ
    left.loc[left.index % 17 == 0, "value"] = np.nan
    from cesium_ray.stages.window import windowed_aggregate

    got = windowed_aggregate(
        ray.data.from_pandas(left).repartition(6),
        by="user_id", on="ts", value="value", window_s=120,
        value_scale=100,
    ).to_pandas().sort_values("event_id").reset_index(drop=True)

    con = duckdb.connect()
    con.register("t", left)
    want = con.sql("""
        SELECT event_id,
          count(*) OVER w AS w_cnt,
          count(value) OVER w AS w_vcnt,
          CAST(sum(CAST(round(value*100) AS BIGINT)) OVER w AS DOUBLE)/100.0
            AS w_vsum
        FROM t
        WINDOW w AS (PARTITION BY user_id ORDER BY ts
                     RANGE BETWEEN INTERVAL 2 MINUTES PRECEDING
                     AND CURRENT ROW)
        ORDER BY event_id
    """).df()
    assert len(got) == len(want)
    assert (got.w_cnt.to_numpy() == want.w_cnt.to_numpy()).all()
    assert (got.w_vcnt.to_numpy() == want.w_vcnt.to_numpy()).all()
    g, w = got.w_vsum.to_numpy(), want.w_vsum.to_numpy()
    nan = np.isnan(w)
    assert (np.isnan(g) == nan).all() and (g[~nan] == w[~nan]).all()


def test_window_peers_included(ray_session):
    """Rows with the exact same (key, ts) are mutual peers — each sees
    the other in its frame (RANGE semantics, not ROWS)."""
    df = pd.DataFrame({
        "event_id": [0, 1, 2],
        "user_id": [1, 1, 1],
        "ts": pd.to_datetime([10**6, 10**6, 2 * 10**6],
                             unit="us").astype("datetime64[us]"),
        "value": [1.0, 2.0, 4.0],
    })
    from cesium_ray.stages.window import window_range_agg_pandas

    out = window_range_agg_pandas(df, window_s=10, value_scale=100)
    out = out.sort_values("event_id").reset_index(drop=True)
    assert out.w_cnt.tolist() == [2, 2, 3]
    assert out.w_vsum.tolist() == [3.0, 3.0, 7.0]


def test_sessionize_gap_semantics(ray_session):
    """Sessions split strictly on gap > threshold (µs-exact): a gap of
    exactly the threshold stays in-session."""
    import pandas as pd

    base = 10**12
    df = pd.DataFrame({
        "event_id": np.arange(5),
        "user_id": [1, 1, 1, 2, 2],
        "ts": pd.to_datetime(
            [base, base + 60_000_000, base + 60_000_000 + 1800_000_000,
             base, base + 1800_000_001], unit="us").astype("datetime64[us]"),
    })
    from cesium_ray.stages.window import sessionize

    out = sessionize(ray.data.from_pandas(df), gap_s=1800).to_pandas()
    out = out.sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    # user 1: gap of exactly 1800s does NOT split -> one session of 3
    u1 = out[out.user_id == 1]
    assert len(u1) == 1 and u1.n_events.iloc[0] == 3
    # user 2: gap of 1800s + 1µs splits -> two singleton sessions
    u2 = out[out.user_id == 2]
    assert len(u2) == 2 and (u2.n_events == 1).all()
    assert (u2.duration_us == 0).all()


def test_stratified_sample_deterministic(ray_session, monkeypatch):
    import pandas as pd

    rng = np.random.default_rng(2)
    df = pd.DataFrame({
        "event_id": np.arange(2000),
        "user_id": rng.integers(0, 20, 2000),
        "ts": pd.to_datetime(np.arange(2000) * 10**6,
                             unit="us").astype("datetime64[us]"),
        "value": np.round(rng.normal(0, 1, 2000), 2),
    })
    from cesium_ray.stages import partition
    from cesium_ray.stages.sample import lcg_hash, stratified_sample

    # the same rows at P = 4 and P = 8
    monkeypatch.setattr(partition, "partition_count", lambda: 4)
    a = stratified_sample(ray.data.from_pandas(df), n_per_key=3).to_pandas()
    monkeypatch.setattr(partition, "partition_count", lambda: 8)
    b = stratified_sample(ray.data.from_pandas(df), n_per_key=3).to_pandas()
    key = ["user_id", "sample_rank"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert (a["event_id"].to_numpy() == b["event_id"].to_numpy()).all()
    assert a.groupby("user_id").size().max() <= 3
    # rank-1 row per user is the LCG-min row of that user
    for u, grp in df.groupby("user_id"):
        h = lcg_hash(grp.event_id.to_numpy())
        best = grp.event_id.to_numpy()[np.lexsort((grp.event_id, h))][0]
        got = a[(a.user_id == u) & (a.sample_rank == 1)].event_id.iloc[0]
        assert got == best


def test_asof_join_string_keys(ray_session):
    """by-column may be a string key (conv_id-style)."""
    import pandas as pd

    left = pd.DataFrame({
        "event_id": np.arange(6),
        "conv": ["a", "a", "b", "b", "c", "c"],
        "ts": pd.to_datetime([5, 15, 5, 15, 5, 15],
                             unit="s").astype("datetime64[us]"),
    })
    right = pd.DataFrame({
        "conv": ["a", "b"],
        "ts": pd.to_datetime([10, 4], unit="s").astype("datetime64[us]"),
        "tag": np.array([100, 200], dtype="int64"),
    })
    from cesium_ray.stages.joins import asof_join

    got = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        by="conv", left_on="ts", right_on="ts", right_vals=("tag",),
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    # a@5 has no match; a@15 -> 100; b@5, b@15 -> 200; c -> none
    assert got.event_id.tolist() == [1, 2, 3]
    assert got.tag.tolist() == [100, 200, 200]


def test_range_join_broadcast_overlapping(ray_session):
    """Overlapping intervals produce one row per (row, interval); rows
    outside every interval are dropped; [start, end) bounds exact."""
    import pandas as pd

    left = pd.DataFrame({
        "event_id": np.arange(4),
        "ts": pd.to_datetime([5, 10, 14, 20], unit="s").astype("datetime64[us]"),
    })
    iv = pd.DataFrame({
        "start": pd.to_datetime([4, 9], unit="s").astype("datetime64[us]"),
        "end": pd.to_datetime([11, 15], unit="s").astype("datetime64[us]"),
        "tag": np.array([1, 2], dtype="int64"),
    })
    from cesium_ray.stages.joins import range_join_broadcast

    got = range_join_broadcast(
        ray.data.from_pandas(left), iv, on="ts",
        start_col="start", end_col="end", carry=("tag",),
    ).to_pandas().sort_values(["event_id", "tag_w"]).reset_index(drop=True)
    # ts=5 -> iv1; ts=10 -> both; ts=14 -> iv2; ts=20 -> none
    assert list(zip(got.event_id, got.tag_w)) == [(0, 1), (1, 1), (1, 2), (2, 2)]


def test_pivot_aggregate_combiner(ray_session):
    """Pivot: unseen categories give zero counts + NaN sums; partials
    combine across batches exactly."""
    import pandas as pd

    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2, 2],
        "event_type": ["a", "a", "b", "b", "b"],
        "value": [1.25, 2.25, np.nan, 4.0, 5.5],
    })
    from cesium_ray.stages.pivot import pivot_aggregate

    out = pivot_aggregate(
        ray.data.from_pandas(df).repartition(3),
        key="user_id", col="event_type", categories=("a", "b", "c"),
        value="value", value_scale=100,
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    assert out.a_cnt.tolist() == [2, 0]
    assert out.b_cnt.tolist() == [1, 2]
    assert out.c_cnt.tolist() == [0, 0]
    assert out.a_vsum.tolist()[0] == 3.5
    assert np.isnan(out.a_vsum.iloc[1])
    assert np.isnan(out.b_vsum.iloc[0])  # only-null value group -> NaN
    assert out.b_vsum.iloc[1] == 9.5
    assert np.isnan(out.c_vsum).all()


def test_histogram_quantile_bound(ray_session):
    """Sketch quantiles land within one bin width of the exact
    quantile; partials merge across blocks; nulls skipped."""
    import pandas as pd

    rng = np.random.default_rng(4)
    v = np.round(rng.gamma(2.0, 25.0, 20000), 2)
    v[::31] = np.nan
    df = pd.DataFrame({"value": v})
    from cesium_ray.stages.sketch import histogram_quantile

    out = histogram_quantile(
        ray.data.from_pandas(df).repartition(7),
        value="value", lo=0.0, hi=1000.0, n_bins=20000, qs=(0.5, 0.99))
    ok = v[~np.isnan(v)]
    assert out.total_cnt[0] == len(ok)
    w = out.bin_width[0]
    for q, c in ((0.5, "p50_edge"), (0.99, "p99_edge")):
        exact = np.quantile(ok, q)
        assert abs(out[c][0] - exact) <= w + 1e-9, (c, out[c][0], exact)


def test_interval_overlap_bruteforce(ray_session):
    """interval_overlap_broadcast vs an O(n·m) loop: closed-interval
    overlap pairs with exact overlap_us, including zero-length left
    intervals (single-event sessions) and touching endpoints."""
    from cesium_ray.stages.joins import interval_overlap_broadcast

    rng = np.random.default_rng(11)
    n = 400
    ss = rng.integers(0, 10**7, n)
    se = ss + rng.integers(0, 5 * 10**5, n)
    se[::17] = ss[::17]  # zero-length intervals
    left = pd.DataFrame({
        "sid": np.arange(n, dtype=np.int64),
        "session_start": ss.astype("datetime64[us]"),
        "session_end": se.astype("datetime64[us]"),
    })
    m = 25
    ws = rng.integers(0, 10**7, m)
    we = ws + rng.integers(0, 3 * 10**5, m)
    iv = pd.DataFrame({
        "start": ws.astype("datetime64[us]"),
        "end": we.astype("datetime64[us]"),
        "tag": np.arange(m, dtype=np.int64),
    })
    got = interval_overlap_broadcast(
        ray.data.from_pandas(left).repartition(5), iv,
        left_start="session_start", left_end="session_end",
        carry=("tag",),
    ).to_pandas().sort_values(["sid", "tag_w"]).reset_index(drop=True)
    rows = []
    for i in range(n):
        for j in range(m):
            if ws[j] <= se[i] and we[j] >= ss[i]:
                rows.append((i, j, min(se[i], we[j]) - max(ss[i], ws[j])))
    want = pd.DataFrame(rows, columns=["sid", "tag", "ov"]) \
        .sort_values(["sid", "tag"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert got["sid"].tolist() == want["sid"].tolist()
    assert got["tag_w"].tolist() == want["tag"].tolist()
    assert got["overlap_us"].tolist() == want["ov"].tolist()
    assert (got["overlap_us"] >= 0).all()


def test_interval_join_partitioned_bruteforce(ray_session):
    """Large×large bucketed interval join vs an O(n·m) loop: pairs
    spanning multiple shared buckets must appear exactly once (the
    overlap-start-bucket dedupe rule), overlap_us exact."""
    from cesium_ray.stages.joins import interval_join_partitioned

    rng = np.random.default_rng(17)
    bucket_s = 3600
    span_us = 50 * 3600 * 10**6
    nl, nr = 300, 200
    ls = rng.integers(0, span_us, nl)
    le = ls + rng.integers(0, 8 * 3600 * 10**6, nl)  # up to 8 buckets
    rs = rng.integers(0, span_us, nr)
    re_ = rs + rng.integers(0, 5 * 3600 * 10**6, nr)
    left = pd.DataFrame({"lid": np.arange(nl, dtype=np.int64),
                         "grp": np.zeros(nl, dtype=np.int64),
                         "s_us": ls, "e_us": le})
    right = pd.DataFrame({"rid": np.arange(nr, dtype=np.int64),
                          "tag": np.ones(nr, dtype=np.int64),
                          "s_us": rs, "e_us": re_})
    got = interval_join_partitioned(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(3),
        bucket_s=bucket_s,
        left_cols=("lid", "grp"), right_cols=("rid", "tag"),
    ).to_pandas()
    got["l_lid"] = got["l_lid"].astype(np.int64)
    got["r_rid"] = got["r_rid"].astype(np.int64)
    got = got.sort_values(["l_lid", "r_rid"]).reset_index(drop=True)
    rows = []
    for i in range(nl):
        for j in range(nr):
            if rs[j] <= le[i] and re_[j] >= ls[i]:
                rows.append((i, j, min(le[i], re_[j]) - max(ls[i], rs[j])))
    want = pd.DataFrame(rows, columns=["lid", "rid", "ov"]) \
        .sort_values(["lid", "rid"]).reset_index(drop=True)
    assert len(got) == len(want), (len(got), len(want))
    assert not got.duplicated(["l_lid", "r_rid"]).any(), "pair dupes"
    assert got["l_lid"].tolist() == want["lid"].tolist()
    assert got["r_rid"].tolist() == want["rid"].tolist()
    assert got["overlap_us"].tolist() == want["ov"].tolist()
