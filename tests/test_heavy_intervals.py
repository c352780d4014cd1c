"""Sketch-accelerated exact operators (stages/heavy.py) and interval
union (stages/intervals.py) vs brute-force ground truth."""

import numpy as np
import pandas as pd
import ray.data


def test_heavy_hitters_exact_on_skewed_keys(ray_session):
    from cesium_ray.stages.heavy import heavy_hitters

    rng = np.random.default_rng(0)
    # Zipf-ish: a few heavy keys over a long uniform tail
    vals = np.r_[
        np.repeat([1, 2, 3], [500, 300, 150]),
        rng.integers(100, 5000, 4000),
    ]
    rng.shuffle(vals)
    df = pd.DataFrame({"user_id": vals.astype(np.int64)})
    got = heavy_hitters(ray.data.from_pandas(df).repartition(9),
                        threshold_frac=0.02)
    n = len(df)
    thresh = int(np.ceil(0.02 * n))
    vc = df["user_id"].value_counts()
    want = vc[vc >= thresh].sort_index()
    assert list(got["user_id"]) == list(want.index)
    assert list(got["n"]) == list(want.values)


def test_heavy_hitters_uniform_blocks_keep_block_counts(ray_session):
    from cesium_ray.stages.heavy import heavy_hitters

    # every block fully uniform → MG compresses to nothing; the block
    # marker row must still deliver total n so the threshold is right
    df = pd.DataFrame({"user_id": np.arange(2000, dtype=np.int64) % 400})
    got = heavy_hitters(ray.data.from_pandas(df).repartition(8),
                        threshold_frac=0.9)
    assert len(got) == 0  # nobody has 90% of rows — and no crash


def test_mg_compress_error_bound():
    from cesium_ray.stages.heavy import _mg_compress

    rng = np.random.default_rng(1)
    counts = rng.integers(1, 1000, 500).astype(np.int64)
    ids = np.arange(500)
    cid, cc = _mg_compress(ids, counts.copy(), 50)
    assert len(cid) <= 50 or (counts > counts[np.argsort(counts)[::-1][50]]).sum() == len(cid)
    # residual understates by the same d for every survivor
    lookup = dict(zip(cid, cc))
    d = None
    for i, c in zip(ids, counts):
        if i in lookup:
            if d is None:
                d = c - lookup[i]
            assert c - lookup[i] == d
            assert lookup[i] > 0


def test_bloom_no_false_negatives_and_low_fp(ray_session):
    from cesium_ray.stages.heavy import BloomFilter

    rng = np.random.default_rng(2)
    members = rng.choice(10**9, 20000, replace=False).astype(np.int64)
    bloom = BloomFilter(len(members))
    bloom.add(members)
    assert bloom.contains(members).all()
    probe = rng.choice(10**9, 50000, replace=False).astype(np.int64)
    outside = np.setdiff1d(probe, members)
    fp = bloom.contains(outside).mean()
    assert fp < 0.03, fp


def test_bloom_semi_join_exact(ray_session):
    from cesium_ray.stages.heavy import bloom_semi_join

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "event_id": np.arange(5000, dtype=np.int64),
        "user_id": rng.integers(0, 1000, 5000),
    })
    keys = np.unique(rng.integers(0, 1000, 80)).astype(np.int64)
    got = (bloom_semi_join(ray.data.from_pandas(df).repartition(6), keys)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    want = (df[df["user_id"].isin(keys)]
            .sort_values("event_id").reset_index(drop=True))
    assert (got["event_id"].to_numpy() == want["event_id"].to_numpy()).all()


def _brute_merge(df):
    rows = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["start_us", "end_us", "event_id"])
        cur_s = cur_e = None
        n = 0
        for _, r in g.iterrows():
            if cur_s is None:
                cur_s, cur_e, n = r.start_us, r.end_us, 1
            elif r.start_us <= cur_e:
                cur_e = max(cur_e, r.end_us)
                n += 1
            else:
                rows.append((uid, cur_s, cur_e, n))
                cur_s, cur_e, n = r.start_us, r.end_us, 1
        if cur_s is not None:
            rows.append((uid, cur_s, cur_e, n))
    return (pd.DataFrame(rows, columns=["user_id", "start_us", "end_us",
                                        "n_intervals"])
            .sort_values(["user_id", "start_us"]).reset_index(drop=True))


def test_merge_intervals_matches_bruteforce(ray_session):
    from cesium_ray.stages.intervals import merge_intervals

    rng = np.random.default_rng(4)
    n = 3000
    start = rng.integers(0, 10**6, n)
    df = pd.DataFrame({
        "user_id": rng.integers(0, 30, n),
        "event_id": np.arange(n, dtype=np.int64),
        "start_us": start,
        "end_us": start + rng.integers(1, 5000, n),
    })
    got = (merge_intervals(ray.data.from_pandas(df).repartition(5))
           .to_pandas().sort_values(["user_id", "start_us"])
           .reset_index(drop=True))
    want = _brute_merge(df)
    assert got.shape == want.shape
    for c in want.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_segmented_cummax_resets_at_boundaries():
    from cesium_ray.stages.intervals import _segmented_cummax

    rng = np.random.default_rng(5)
    x = rng.integers(0, 1000, 777).astype(np.int64)
    seg = rng.random(777) < 0.05
    seg[0] = True
    got = _segmented_cummax(x, seg)
    run = x[0]
    for i in range(len(x)):
        run = x[i] if seg[i] else max(run, x[i])
        assert got[i] == run


def test_topk_per_window_bruteforce(ray_session):
    from cesium_ray.stages.heavy import topk_per_window

    rng = np.random.default_rng(6)
    n = 6000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 40, n),
        "ts": pd.to_datetime(rng.integers(0, 3 * 86400, n) * 10**6,
                             unit="us").astype("datetime64[us]"),
    })
    got = (topk_per_window(ray.data.from_pandas(df).repartition(7), k=3,
                           bucket_s=86400)
           .to_pandas().sort_values(["bucket_us", "rank"])
           .reset_index(drop=True))
    tus = df["ts"].to_numpy("datetime64[us]").view(np.int64)
    c = (df.assign(bucket_us=(tus // 86400000000) * 86400000000)
         .groupby(["bucket_us", "user_id"], as_index=False).size()
         .rename(columns={"size": "n"}))
    c = c.sort_values(["bucket_us", "n", "user_id"],
                      ascending=[True, False, True], kind="mergesort")
    c["rank"] = c.groupby("bucket_us").cumcount() + 1
    want = c[c["rank"] <= 3].reset_index(drop=True)
    for col in ["bucket_us", "user_id", "n", "rank"]:
        assert (got[col].to_numpy() == want[col].to_numpy()).all(), col


def test_hll_error_across_cardinalities(ray_session):
    from cesium_ray.stages.sketch import hll_distinct

    rng = np.random.default_rng(7)
    for true_n in (50, 1000, 40000):
        keys = rng.choice(10**12, true_n, replace=False).astype(np.int64)
        vals = np.repeat(keys, 3)  # duplicates must not inflate
        rng.shuffle(vals)
        est = hll_distinct(
            ray.data.from_pandas(pd.DataFrame({"user_id": vals}))
            .repartition(6))
        assert abs(est - true_n) / true_n < 0.06, (true_n, est)


def test_hll_registers_mergeable():
    from cesium_ray.stages.sketch import _hll_registers, hll_estimate

    rng = np.random.default_rng(8)
    keys = rng.choice(10**12, 30000, replace=False).astype(np.int64)
    whole = _hll_registers(keys)
    shard_merge = np.maximum.reduce(
        [_hll_registers(s) for s in np.array_split(keys, 7)])
    assert (whole == shard_merge).all()
    assert hll_estimate(whole) == hll_estimate(shard_merge)


def test_topk_per_window_string_keys(ray_session):
    from cesium_ray.stages.heavy import topk_per_window

    rng = np.random.default_rng(10)
    n = 2000
    df = pd.DataFrame({
        "user_id": np.array([f"conv-{i:04d}" for i in
                             rng.integers(0, 25, n)], dtype=object),
        "ts": pd.to_datetime(rng.integers(0, 2 * 86400, n) * 10**6,
                             unit="us").astype("datetime64[us]"),
    })
    got = (topk_per_window(ray.data.from_pandas(df).repartition(5), k=2,
                           bucket_s=86400)
           .to_pandas().sort_values(["bucket_us", "rank"])
           .reset_index(drop=True))
    tus = df["ts"].to_numpy("datetime64[us]").view(np.int64)
    c = (df.assign(bucket_us=(tus // 86400000000) * 86400000000)
         .groupby(["bucket_us", "user_id"], as_index=False).size()
         .rename(columns={"size": "n"}))
    c = c.sort_values(["bucket_us", "n", "user_id"],
                      ascending=[True, False, True], kind="mergesort")
    c["rank"] = c.groupby("bucket_us").cumcount() + 1
    want = c[c["rank"] <= 2].reset_index(drop=True)
    for col in ["bucket_us", "user_id", "n", "rank"]:
        assert (got[col].to_numpy() == want[col].to_numpy()).all(), col


def test_bloom_semi_join_duplicate_keys_no_fanout(ray_session):
    from cesium_ray.stages.heavy import bloom_semi_join

    df = pd.DataFrame({"event_id": np.arange(10, dtype=np.int64),
                       "user_id": np.repeat([1, 2], 5).astype(np.int64)})
    got = (bloom_semi_join(ray.data.from_pandas(df),
                           np.array([1, 1, 1], np.int64))
           .to_pandas())
    assert len(got) == 5  # semi-join semantics: no duplicate fan-out
    assert sorted(got["event_id"]) == [0, 1, 2, 3, 4]


def test_heavy_hitters_empty_input(ray_session):
    from cesium_ray.stages.heavy import heavy_hitters

    df = pd.DataFrame({"user_id": np.array([], np.int64)})
    got = heavy_hitters(ray.data.from_pandas(df), threshold_frac=0.01)
    assert len(got) == 0
    assert list(got.columns) == ["user_id", "n"]


def test_bloom_build_distributed_parity(ray_session):
    """Distributed word-cell build is bit-identical to a driver-side
    BloomFilter.add of the same key set, and the result probes
    correctly through bloom_semi_join's prefilter path."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.heavy import BloomFilter, bloom_build_distributed

    rng = np.random.default_rng(6)
    keys = np.unique(rng.integers(0, 10_000, 700).astype(np.int64))
    df = pd.DataFrame({"user_id": np.repeat(keys, 3)})  # dups across rows
    ds = ray.data.from_pandas(df).repartition(5)
    dist = bloom_build_distributed(ds, "user_id", n_keys=len(keys))
    ref = BloomFilter(len(keys))
    ref.add(keys)
    np.testing.assert_array_equal(dist.words, ref.words)
    probe = np.arange(12_000, dtype=np.int64)
    got = dist.contains(probe)
    assert got[np.isin(probe, keys)].all()          # no false negatives
    fp = got[~np.isin(probe, keys)].mean()
    assert fp < 0.05                                # ~1% expected at 10 bits/key
