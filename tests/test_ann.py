"""Similarity-search tests: exact brute-force baseline + LSH scale
path over the embeddings table."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from cesium_ray.stages.ann import brute_force_topk, lsh_topk

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def emb():
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    pdf = ds.to_pandas()
    X = np.stack(pdf["embedding"].to_numpy()).astype(np.float64)
    return ds, pdf, X


def _exact_topk(X, ids, Q, qids, k=5):
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Xn @ Qn.T
    out = []
    for j, qid in enumerate(qids):
        s = sims[:, j].copy()
        mask = ids != qid
        order = np.lexsort((ids[mask], -s[mask]))[:k]
        out.append(set(ids[mask][order]))
    return out


def test_brute_force_matches_numpy(emb):
    ds, pdf, X = emb
    qids = pdf["vec_id"].to_numpy()[:3]
    Q = X[:3]
    got = brute_force_topk(ds, Q, qids, k=5)
    want = _exact_topk(X, pdf["vec_id"].to_numpy(), Q, qids, k=5)
    for j, qid in enumerate(qids):
        got_set = set(got[got.query_id == qid]["vec_id"])
        assert got_set == want[j], f"query {qid}"


def test_lsh_recall_reasonable(emb):
    ds, pdf, X = emb
    qids = pdf["vec_id"].to_numpy()[:5]
    Q = X[:5]
    exact = _exact_topk(X, pdf["vec_id"].to_numpy(), Q, qids, k=5)
    # testdata embeddings are near-random (weak neighbor structure):
    # use short signatures + many tables so collision probability for
    # sim≈0.3 neighbors stays high (bits=4, tables=16 → ~0.85)
    got = lsh_topk(ds, Q, qids, k=5, n_tables=16, n_bits=4)
    hits = total = 0
    for j, qid in enumerate(qids):
        got_set = set(got[got.query_id == qid]["vec_id"])
        hits += len(got_set & exact[j])
        total += len(exact[j])
    recall = hits / total
    assert recall >= 0.5, f"LSH recall too low: {recall}"


def test_lsh_deterministic(emb):
    ds, pdf, X = emb
    qids = pdf["vec_id"].to_numpy()[:2]
    a = lsh_topk(ds, X[:2], qids, k=3)
    b = lsh_topk(ds, X[:2], qids, k=3)
    pd.testing.assert_frame_equal(a, b)


def test_ivf_recall_and_determinism(emb):
    from cesium_ray.stages.ann import ivf_topk

    ds, pdf, X = emb
    qids = pdf["vec_id"].to_numpy()[:4]
    Q = X[:4]
    got1 = ivf_topk(ds, Q, qids, k=5, n_centroids=16, n_probe=4, seed=7)
    got2 = ivf_topk(ds, Q, qids, k=5, n_centroids=16, n_probe=4, seed=7)
    pd.testing.assert_frame_equal(
        got1.reset_index(drop=True), got2.reset_index(drop=True)
    )
    want = _exact_topk(X, pdf["vec_id"].to_numpy(), Q, qids, k=5)
    hits = total = 0
    for j, qid in enumerate(qids):
        got_set = set(got1[got1.query_id == qid]["vec_id"])
        hits += len(got_set & want[j])
        total += len(want[j])
    assert hits / total >= 0.5, f"IVF recall too low: {hits}/{total}"
    # probing ALL centroids must recover the exact top-k
    full = ivf_topk(ds, Q, qids, k=5, n_centroids=16, n_probe=16, seed=7)
    for j, qid in enumerate(qids):
        assert set(full[full.query_id == qid]["vec_id"]) == want[j]


def test_kmeans_distributed_matches_reference(ray_session):
    """Distributed Lloyd's must match a single-process reference run
    (same deterministic contract) on assignments and near-bitwise
    centroids."""
    import ray.data

    from cesium_ray.stages.ann import kmeans_distributed

    rng = np.random.default_rng(31)
    n, d, k, iters = 600, 16, 5, 4
    X = rng.normal(size=(n, d))
    X[:200] += 4.0
    X[200:400] -= 4.0
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": [row for row in X]})
    got = kmeans_distributed(
        ray.data.from_pandas(df).repartition(6), k=k, n_iter=iters)

    # single-process reference (identical contract)
    C = X[:k].copy()
    for _ in range(iters):
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        a = np.argmin(d2, axis=1)
        for c in range(k):
            if (a == c).any():
                C[c] = X[a == c].mean(axis=0)
    d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    a = np.argmin(d2, axis=1)
    sizes = np.bincount(a, minlength=k)
    inert = np.zeros(k)
    for c in range(k):
        inert[c] = d2[a == c, c].sum()

    assert (got["size"].to_numpy() == sizes).all()
    assert np.allclose(got["inertia"], inert, rtol=1e-9)
    assert np.allclose(got["centroid_norm"],
                       np.sqrt((C * C).sum(axis=1)), rtol=1e-9)


def test_pca_power_matches_eigh(ray_session):
    """Top component from distributed power iteration must match
    numpy's dense eigendecomposition (direction, eigenvalue, and
    explained ratio) on data with a dominant axis."""
    import ray.data

    from cesium_ray.stages.ann import pca_power

    rng = np.random.default_rng(97)
    n, d = 800, 12
    base = rng.normal(size=(n, d))
    base[:, 3] *= 6.0          # dominant variance direction
    base += rng.normal(size=(1, d)) * 2.0
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": [r for r in base]})
    got = pca_power(ray.data.from_pandas(df).repartition(6), n_iter=40)
    Xc = base - base.mean(axis=0)
    cov = (Xc.T @ Xc) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    v_true = evecs[:, -1]
    if v_true[np.argmax(np.abs(v_true))] < 0:
        v_true = -v_true
    v_got = got["loading"].to_numpy()
    assert abs(float(v_got @ v_true)) > 1 - 1e-9
    assert np.allclose(v_got, v_true, atol=1e-6)
    assert abs(got["eigenvalue"].iloc[0] - evals[-1]) / evals[-1] < 1e-9
    assert abs(got["explained_ratio"].iloc[0]
               - evals[-1] / evals.sum()) < 1e-9
    assert np.isclose(np.linalg.norm(v_got), 1.0)


def test_mmr_rerank_properties(ray_session):
    """MMR greedy: step 1 is the pure-relevance argmax; every later
    pick maximizes lam*rel - (1-lam)*max-sim-to-selected among the
    remaining candidates (brute-force re-check); picks are distinct."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.ann import _normalize, _stack, mmr_rerank

    rng = np.random.default_rng(3)
    n, d = 80, 16
    X = rng.normal(size=(n, d))
    X[10] = X[5] * 1.7             # a near-duplicate pair
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                       "embedding": list(X)})
    ds = ray.data.from_pandas(df).repartition(4)
    q = X[0]
    out = mmr_rerank(ds, q, 0, k=6, lam=0.5, n_candidates=25)
    assert len(out) == 6 and out["vec_id"].is_unique
    # brute-force replay
    Xn = _normalize(X)
    rel_all = Xn @ (q / np.linalg.norm(q))
    cand = np.argsort(-rel_all, kind="stable")
    cand = np.array([c for c in cand if c != 0][:25])
    rel = rel_all[cand]
    pair = Xn[cand] @ Xn[cand].T
    sel = []
    for step in range(6):
        scores = np.where(
            np.isin(np.arange(len(cand)), sel), -np.inf,
            rel if not sel else 0.5 * rel - 0.5 * pair[:, sel].max(axis=1))
        j = int(np.argmax(scores))  # ties: lowest index = lowest id order
        assert out.iloc[step]["vec_id"] == cand[j]
        sel.append(j)


def test_class_separation_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from cesium_ray.stages.ann import class_separation

    rng = np.random.default_rng(61)
    # three well-separated gaussian blobs + one wide blob
    centers = {0: (5.0, 0.3), 1: (-5.0, 0.3), 2: (0.0, 3.0)}
    rows = []
    for lb, (mu, sd) in centers.items():
        for _ in range(40):
            rows.append((lb, (mu + sd * rng.standard_normal(8)
                              ).astype(np.float32)))
    df = pd.DataFrame({"label": np.asarray([r[0] for r in rows],
                                           dtype=np.int32),
                       "embedding": [r[1] for r in rows]})
    got = class_separation(ray.data.from_pandas(df).repartition(5))
    assert got["label"].tolist() == [0, 1, 2]
    for lb, (mu, sd) in centers.items():
        m = np.stack([r[1].astype(np.float64) for r in rows
                      if r[0] == lb])
        cen = m.mean(axis=0)
        wss = ((m - cen) ** 2).sum()
        row = got[got["label"] == lb]
        assert int(row["n"].iloc[0]) == 40
        assert abs(row["wss"].iloc[0] - wss) < 1e-6, lb
        assert abs(row["mu_norm"].iloc[0]
                   - np.linalg.norm(cen)) < 1e-9, lb
    g = np.stack([r[1].astype(np.float64) for r in rows]).mean(axis=0)
    for lb in centers:
        m = np.stack([r[1].astype(np.float64) for r in rows
                      if r[0] == lb])
        want = np.linalg.norm(m.mean(axis=0) - g)
        assert abs(got.set_index("label").loc[lb, "dist_global"]
                   - want) < 1e-9
    # the tight separated blobs sit far from the global centroid and
    # have small WSS; the wide central blob is the opposite
    t = got.set_index("label")
    assert t.loc[2, "wss"] > 5 * max(t.loc[0, "wss"], t.loc[1, "wss"])
    assert min(t.loc[0, "dist_global"], t.loc[1, "dist_global"]) \
        > 3 * t.loc[2, "dist_global"]


def test_dim_variance_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data
    from cesium_ray.stages.ann import dim_variance

    rng = np.random.default_rng(71)
    m = rng.standard_normal((120, 6)).astype(np.float32)
    m[:, 2] = 0.5          # dead dimension
    m[:, 5] *= 3.0         # hot dimension
    df = pd.DataFrame({"embedding": [row for row in m]})
    got = dim_variance(ray.data.from_pandas(df).repartition(5))
    assert got["dim"].tolist() == [1, 2, 3, 4, 5, 6]
    md = m.astype(np.float64)
    assert np.allclose(got["mean"], md.mean(axis=0), atol=1e-9)
    assert np.allclose(got["var"],
                       md.var(axis=0), atol=1e-9)
    assert got["dead"].tolist() == [False, False, True, False,
                                    False, False]
    assert got["var"].idxmax() == 5
