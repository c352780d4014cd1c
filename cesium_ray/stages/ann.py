"""Approximate-nearest-neighbor search over an embedding column
(training-data pipeline op).

Two paths, same result schema ``(query_id, vec_id, sim)``:

  * ``brute_force_topk`` — the exact baseline: broadcast the
    normalized query matrix (``ray.put`` once), per-batch numpy
    matmul in ``map_batches``, driver-side top-k merge of per-batch
    candidates (each batch already reduces to ≤ k rows per query).
  * ``lsh_topk`` — the scale path: random-hyperplane LSH.  A
    signature stage hashes every vector into ``n_tables`` bucket ids
    (stateful actor pool: the projection matrix is built once per
    actor from a fixed seed); candidates co-locate via a bucket
    groupby; exact cosine re-ranking happens inside each bucket, and a
    final per-query groupby keeps the global top-k.  Only vectors
    sharing a bucket with the query are scored — at scale this is the
    difference between scanning 100 TB and scanning the collision set.

Determinism: projections are seeded; ties broken by vec_id.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from .partition import group_apply


def _normalize(X: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(X, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return X / n


def _stack(col) -> np.ndarray:
    """Embedding cells → (n, d) float64 matrix.  Fast path for the
    common Ray pandas-batch layout (object column of equal-length
    ndarrays): ONE concatenate + ONE cast, instead of a per-row
    ``np.asarray(v, float64)`` copy each."""
    vals = col.to_numpy() if hasattr(col, "to_numpy") else list(col)
    n = len(vals)
    if n and isinstance(vals[0], np.ndarray) and vals[0].ndim == 1:
        d = len(vals[0])
        flat = np.concatenate(vals)
        if flat.size == n * d:
            return flat.astype(np.float64, copy=False).reshape(n, d)
    return np.stack([np.asarray(v, dtype=np.float64) for v in vals])


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids,
    k: int = 5,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_self: bool = True,
) -> pd.DataFrame:
    """Exact cosine top-k: one broadcast of the query matrix, one
    streaming pass over the corpus."""
    Qn = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids)
    ref = ray.put((qids, Qn))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        ids, qn = ray.get(ref)
        X = _normalize(_stack(df[emb_col]))
        sims = X @ qn.T
        vid = df[id_col].to_numpy()
        frames = []
        for j, qid in enumerate(ids):
            s = sims[:, j]
            order = np.lexsort((vid, -s))[: k + 1]  # per-batch partial top-k
            frames.append(pd.DataFrame({"query_id": qid, "vec_id": vid[order], "sim": s[order]}))
        return pd.concat(frames, ignore_index=True)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["query_id", "sim", "vec_id"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return df.groupby("query_id").head(k + 1).reset_index(drop=True)

    cand = group_apply(
        ds.map_batches(score, batch_format="pandas"), prune,
        key="query_id").to_pandas()
    if exclude_self:
        cand = cand[cand.query_id != cand.vec_id]
    return (
        cand.sort_values(["query_id", "sim", "vec_id"], ascending=[True, False, True],
                         kind="mergesort")
        .groupby("query_id", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )


def _kmeans_fit(X: np.ndarray, n_centroids: int, seed: int, n_iter: int = 10) -> np.ndarray:
    """Seeded Lloyd's k-means on a (sampled) matrix — the IVF coarse
    quantizer.  Pure NumPy, deterministic; empty clusters re-seeded
    from the farthest points."""
    rng = np.random.default_rng(seed)
    n = len(X)
    C = X[rng.choice(n, size=min(n_centroids, n), replace=False)].copy()
    for _ in range(n_iter):
        # points × centroids × dim bounds the broadcast tensor — at
        # 10k×64×64 it is a 327 MB alloc PER ITERATION (measured 26 s
        # of page faults); the gemm form is O(points·dim·centroids)
        # flops with no giant intermediate
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1) \
            if len(X) * len(C) * X.shape[1] < 2_000_000 \
            else (X**2).sum(1)[:, None] - 2 * X @ C.T + (C**2).sum(1)[None, :]
        assign = d2.argmin(1)
        for ci in range(len(C)):
            members = X[assign == ci]
            if len(members):
                C[ci] = members.mean(0)
            else:  # re-seed an empty cluster at the worst-served point
                C[ci] = X[d2.min(1).argmax()]
    return C


def ivf_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids,
    k: int = 5,
    n_centroids: int = 64,
    n_probe: int = 4,
    seed: int = 7,
    train_sample: int = 10_000,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_self: bool = True,
) -> pd.DataFrame:
    """IVF-style ANN: a seeded k-means coarse quantizer (trained once
    on a bounded sample), queries probe their ``n_probe`` nearest
    centroids, exact cosine re-rank inside the probed lists only.

    One-shot shape (this function): assign + probe-scan fused in ONE
    streaming ``map_batches`` pass — each batch assigns its rows to
    centroids, scores only the rows whose centroid some query probes
    against exactly those queries, and emits a per-batch partial top-k
    (≤ k+1 rows per (query, batch)).  NO corpus exchange: the only
    data movement is the tiny top-k partials.  Compute is the IVF win
    (scan fraction ≈ n_probe / n_centroids of each batch); a persisted
    inverted-list index (hash-partition by centroid once, reuse across
    many query rounds) only pays off when the same corpus serves many
    query batches — that variant is the bucket-grouped ``group_apply``
    this code used before and is deliberately not the default."""
    Q = np.asarray(queries, dtype=np.float64)
    qids = np.asarray(query_ids)
    sample = ds.select_columns([emb_col]).limit(train_sample).to_pandas()
    Xs = _normalize(_stack(sample[emb_col]))
    C = _kmeans_fit(Xs, n_centroids, seed)
    Cn = _normalize(C)
    Qn = _normalize(Q)
    # queries → probed centroid set
    q_cent = np.argsort(-(Qn @ Cn.T), axis=1)[:, :n_probe]
    probe: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for c in q_cent[qi]:
            probe.setdefault(int(c), []).append(qi)
    ref = ray.put((Cn, probe, qids, Qn))

    _EMPTY = {"query_id": pd.Series(dtype="int64"),
              "vec_id": pd.Series(dtype="int64"),
              "sim": pd.Series(dtype="float64")}

    def assign_scan(df: pd.DataFrame) -> pd.DataFrame:
        cn, probe_, qids_, qn = ray.get(ref)
        X = _normalize(_stack(df[emb_col]))
        cid = (X @ cn.T).argmax(1)
        vid = df[id_col].to_numpy()
        order_c = np.argsort(cid, kind="stable")
        cs = cid[order_c]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        ends = np.r_[starts[1:], len(cs)]
        q_out, v_out, s_out = [], [], []
        for s, e in zip(starts, ends):
            qidx = probe_.get(int(cs[s]))
            if not qidx:
                continue  # unprobed list: rows never scored or shipped
            rows = order_c[s:e]
            sims = X[rows] @ qn[qidx].T
            v = vid[rows]
            for j, qi in enumerate(qidx):
                sc = sims[:, j]
                top = np.lexsort((v, -sc))[: k + 1]
                q_out.append(np.full(len(top), qids_[qi], dtype=np.int64))
                v_out.append(v[top])
                s_out.append(sc[top])
        if not q_out:
            return pd.DataFrame(_EMPTY)
        return pd.DataFrame({"query_id": np.concatenate(q_out),
                             "vec_id": np.concatenate(v_out),
                             "sim": np.concatenate(s_out)})

    cand = ds.select_columns([id_col, emb_col]).map_batches(
        assign_scan, batch_format="pandas"
    ).to_pandas()
    if exclude_self:
        cand = cand[cand.query_id != cand.vec_id]
    cand = cand.drop_duplicates(["query_id", "vec_id"])
    return (
        cand.sort_values(["query_id", "sim", "vec_id"], ascending=[True, False, True],
                         kind="mergesort")
        .groupby("query_id", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )


class LshSigner:
    """Actor-pool signature stage: seeded random hyperplanes built once
    per actor; emits one (bucket, vec_id, embedding) row per table.

    ``keep_buckets`` (optional sorted int64 array): emit ONLY rows
    landing in these buckets — for query-driven search the probed
    bucket set is tiny, so the shuffle carries just the collision
    candidates instead of the full corpus ×n_tables."""

    def __init__(self, dim: int, n_tables: int = 8, n_bits: int = 10, seed: int = 7,
                 id_col: str = "vec_id", emb_col: str = "embedding",
                 keep_buckets=None):
        rng = np.random.default_rng(seed)
        self.planes = rng.normal(size=(n_tables, n_bits, dim))
        self.pows = (1 << np.arange(n_bits)).astype(np.int64)
        self.n_tables = n_tables
        self.id_col = id_col
        self.emb_col = emb_col
        self.keep_buckets = (
            np.sort(np.asarray(list(keep_buckets), dtype=np.int64))
            if keep_buckets is not None else None
        )

    def signatures(self, X: np.ndarray) -> np.ndarray:
        """(n, n_tables) int64 bucket ids."""
        out = np.empty((len(X), self.n_tables), dtype=np.int64)
        for t in range(self.n_tables):
            bits = (X @ self.planes[t].T) > 0
            out[:, t] = bits @ self.pows + t * (1 << 20)  # table-disjoint ids
        return out

    def __call__(self, df: pd.DataFrame):
        import pyarrow as pa

        X = _stack(df[self.emb_col])
        sig = self.signatures(X)
        buckets = sig.reshape(-1, order="F")
        ids = np.tile(df[self.id_col].to_numpy(), self.n_tables)
        src = np.tile(np.arange(len(df)), self.n_tables)
        if self.keep_buckets is not None:
            if len(self.keep_buckets) == 0:
                mask = np.zeros(len(buckets), dtype=bool)
            else:
                pos = np.minimum(np.searchsorted(self.keep_buckets, buckets),
                                 len(self.keep_buckets) - 1)
                mask = self.keep_buckets[pos] == buckets
            buckets, ids, src = buckets[mask], ids[mask], src[mask]
        # explicit Arrow schema: filtered batches can be tiny/empty, and
        # pandas object-of-ndarray columns don't survive the shuffle's
        # block merging with a stable type.  The list column is built
        # from one flat gather (X[src]) — no per-row Python.
        d = X.shape[1] if X.ndim == 2 else 0
        emb_arr = pa.ListArray.from_arrays(
            pa.array(np.arange(len(src) + 1, dtype=np.int32) * d),
            pa.array(X[src].ravel(), pa.float64()),
        )
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int64()),
                self.id_col: pa.array(ids),
                self.emb_col: emb_arr,
            }
        )


def lsh_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids,
    k: int = 5,
    dim: int | None = None,
    n_tables: int = 8,
    n_bits: int = 10,
    seed: int = 7,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_self: bool = True,
) -> pd.DataFrame:
    """LSH-bucketed cosine top-k (the 100-TB path: score only bucket
    collisions).  Recall < 1 by construction; raise n_tables for more."""
    Q = np.asarray(queries, dtype=np.float64)
    if dim is None:
        dim = Q.shape[1]
    signer = LshSigner(dim, n_tables, n_bits, seed, id_col, emb_col)
    q_sigs = signer.signatures(Q)  # (nq, n_tables)
    Qn = _normalize(Q)
    qids = np.asarray(query_ids)
    # bucket → list of query indexes that probe it
    probe: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for b in q_sigs[qi]:
            probe.setdefault(int(b), []).append(qi)
    ref = ray.put((probe, qids, Qn))

    # only rows landing in a PROBED bucket enter the shuffle — the
    # collision candidates, not the corpus ×n_tables
    sigs = ds.select_columns([id_col, emb_col]).map_batches(
        LshSigner(dim, n_tables, n_bits, seed, id_col, emb_col,
                  keep_buckets=list(probe)),
        batch_format="pandas",
    )

    def bucket_scan(df: pd.DataFrame) -> pd.DataFrame:
        probe_, qids_, qn = ray.get(ref)
        frames = []
        for b, grp in df.groupby("bucket", sort=False):
            qidx = probe_.get(int(b))
            if not qidx:
                continue
            X = _normalize(_stack(grp[emb_col]))
            vid = grp[id_col].to_numpy()
            sims = X @ qn[qidx].T
            for j, qi in enumerate(qidx):
                s = sims[:, j]
                order = np.lexsort((vid, -s))[: k + 1]
                frames.append(pd.DataFrame(
                    {"query_id": qids_[qi], "vec_id": vid[order], "sim": s[order]}
                ))
        if not frames:
            return pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                                 "vec_id": pd.Series(dtype="int64"),
                                 "sim": pd.Series(dtype="float64")})
        return pd.concat(frames, ignore_index=True)

    cand = group_apply(sigs, bucket_scan, key="bucket").to_pandas()
    if exclude_self:
        cand = cand[cand.query_id != cand.vec_id]
    cand = cand.drop_duplicates(["query_id", "vec_id"])
    return (
        cand.sort_values(["query_id", "sim", "vec_id"], ascending=[True, False, True],
                         kind="mergesort")
        .groupby("query_id", as_index=False)
        .head(k)
        .reset_index(drop=True)
    )


def kmeans_distributed(
    ds: ray.data.Dataset,
    k: int = 8,
    n_iter: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Distributed Lloyd's k-means over an embedding column — the
    corpus-clustering / IVF-index-training primitive as a first-class
    operator (the driver-side ``_kmeans_fit`` trains on a bounded
    sample; this trains on the FULL dataset).

    Deterministic contract: init = the embeddings of the ``k``
    smallest ``id_col`` values; squared-Euclidean assignment with
    argmin ties → smallest cluster id; exactly ``n_iter`` update
    rounds; an empty cluster keeps its previous centroid.

    Scale shape: centroids are broadcast via ``ray.put`` once per
    round; each batch emits ≤ k partial rows (count, Σvec, Σ‖x−c‖²)
    — a map-side combine, so the driver sees blocks×k cells, never
    vectors; assignment is one (batch × k) gemm.  Inertia is asserted
    non-increasing across rounds (Lloyd's invariant) — a wrong
    assignment or update trips it."""

    def init_c() -> np.ndarray:
        # k smallest ids via per-batch partial top-k (no global sort:
        # each block emits <=k rows, the driver merges blocks*k rows)
        def smallest(df: pd.DataFrame) -> pd.DataFrame:
            return df.nsmallest(k, id_col)[[id_col, vec_col]]

        head = (
            ds.map_batches(smallest, batch_format="pandas")
            .to_pandas()
            .nsmallest(k, id_col)
            .sort_values(id_col)
        )
        return _stack(head[vec_col])

    C = init_c()
    inertias = []
    for rnd in range(n_iter + 1):        # last round: measure only
        ref = ray.put(C)

        def partials(df: pd.DataFrame) -> pd.DataFrame:
            Cb = ray.get(ref)
            X = _stack(df[vec_col])
            # ‖x−c‖² = ‖x‖² − 2x·c + ‖c‖²; argmin over c drops ‖x‖²
            d2 = -2.0 * (X @ Cb.T) + (Cb * Cb).sum(axis=1)[None, :]
            a = np.argmin(d2, axis=1)
            inert = d2[np.arange(len(X)), a] + (X * X).sum(axis=1)
            rows = []
            for c in np.unique(a):
                m = a == c
                rows.append((int(c), int(m.sum()), X[m].sum(axis=0),
                             float(inert[m].sum())))
            return pd.DataFrame(rows, columns=["cid", "cnt", "vsum",
                                               "inert"])

        p = ds.map_batches(partials, batch_format="pandas").to_pandas()
        agg_cnt = np.zeros(k, np.int64)
        agg_sum = np.zeros_like(C)
        agg_in = 0.0
        for cid, g in p.groupby("cid"):
            agg_cnt[cid] = g["cnt"].sum()
            agg_sum[cid] = np.sum(np.stack(g["vsum"].to_numpy()), axis=0)
            agg_in += g["inert"].sum()
        inertias.append(agg_in)
        if rnd < n_iter:                 # final round measures only
            nz = agg_cnt > 0
            C = C.copy()
            C[nz] = agg_sum[nz] / agg_cnt[nz, None]
    # Lloyd's invariant: inertia never increases round over round
    for a, b in zip(inertias, inertias[1:]):
        assert b <= a * (1 + 1e-12), (a, b)
    return pd.DataFrame({
        "cluster_id": np.arange(k, dtype=np.int64),
        "size": agg_cnt,
        "inertia": _per_cluster_inertia(p, k),
        "centroid_norm": np.sqrt((C * C).sum(axis=1)),
    })


def _per_cluster_inertia(p: pd.DataFrame, k: int) -> np.ndarray:
    out = np.zeros(k, np.float64)
    for cid, g in p.groupby("cid"):
        out[cid] = g["inert"].sum()
    return out


def pca_power(
    ds: ray.data.Dataset,
    n_iter: int = 30,
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Distributed top-principal-component fit via covariance-free
    power iteration: the d×d covariance is never materialized — each
    round broadcasts the current direction v and every block emits
    ONE d-vector partial Σ xᵢ(xᵢᵀv) plus scalar partials (n, Σx,
    Σ‖x‖²), so the exchange carries blocks·(d+3) numbers regardless
    of corpus size.  Centered update (mean-shift applied driver-side,
    exact algebra: Cov·v ∝ Σx(xᵀv) − μ(Σxᵀv) − (Σx)(μᵀv) + n·μ(μᵀv)).

    Deterministic contract: v₀ = e₀; exactly ``n_iter`` normalized
    rounds; sign fixed so the largest-|loading| component is
    positive.  Returns per-dimension loadings plus the Rayleigh
    eigenvalue and explained-variance ratio (both sample-variance,
    n−1)."""

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        X = _stack(df[vec_col])
        return pd.DataFrame({
            "n": [np.int64(len(X))],
            "sx": [X.sum(axis=0)],
            "ss": [float((X * X).sum())],
        })

    st = ds.map_batches(stat_partial, batch_format="pandas").to_pandas()
    n = int(st["n"].sum())
    sx = np.sum(np.stack(st["sx"].to_numpy()), axis=0)
    ss = float(st["ss"].sum())
    d = len(sx)
    mu = sx / n
    total_var = (ss - n * float(mu @ mu)) / (n - 1)

    v = np.zeros(d)
    v[0] = 1.0
    lam = 0.0
    for _ in range(n_iter):
        ref = ray.put(v)

        def mat_partial(df: pd.DataFrame) -> pd.DataFrame:
            vb = ray.get(ref)
            X = _stack(df[vec_col])
            p = X @ vb
            return pd.DataFrame({
                "xxv": [X.T @ p],
                "sxv": [float(p.sum())],
            })

        p = ds.map_batches(mat_partial, batch_format="pandas").to_pandas()
        xxv = np.sum(np.stack(p["xxv"].to_numpy()), axis=0)
        sxv = float(p["sxv"].sum())
        w = xxv - mu * sxv - sx * float(mu @ v) + n * mu * float(mu @ v)
        lam = float(v @ w) / (n - 1)
        v = w / np.linalg.norm(w)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return pd.DataFrame({
        "dim": np.arange(d, dtype=np.int64),
        "loading": v,
        "eigenvalue": np.full(d, lam),
        "explained_ratio": np.full(d, lam / total_var),
    })


def mmr_rerank(
    ds: ray.data.Dataset,
    query_vec: np.ndarray,
    query_id,
    k: int = 5,
    lam: float = 0.5,
    n_candidates: int = 30,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pd.DataFrame:
    """Maximal Marginal Relevance diversified top-k (Carbonell &
    Goldstein 1998): candidates come from the DISTRIBUTED exact
    cosine pass (broadcast query, per-batch partial top-k); the
    greedy re-rank then runs on the candidate set only — bounded by
    ``n_candidates``, never corpus-sized.  Step 1 picks pure
    relevance; step i maximizes λ·rel − (1−λ)·max-sim-to-selected
    (ties by id).  The retrieval-diversity primitive for dedup-aware
    sampling of training examples."""
    cand = brute_force_topk(
        ds, np.asarray([query_vec]), [query_id], k=n_candidates,
        id_col=id_col, emb_col=emb_col, exclude_self=True,
    ).sort_values(["sim", id_col], ascending=[False, True])
    cids = cand[id_col].to_numpy()
    rel = cand["sim"].to_numpy(np.float64)
    id_ref = ray.put(np.sort(cids))

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        want = ray.get(id_ref)
        v = df[id_col].to_numpy()
        pos = np.clip(np.searchsorted(want, v), 0, len(want) - 1)
        return df[want[pos] == v]

    cvec = (ds.map_batches(pick, batch_format="pandas").to_pandas()
            .set_index(id_col).loc[cids][emb_col])
    X = _normalize(_stack(cvec))
    pair = X @ X.T
    sel: list[int] = []
    rows = []
    for step in range(1, min(k, len(cids)) + 1):
        best = None
        for j, c in enumerate(cids):
            if j in sel:
                continue
            if not sel:
                score = rel[j]
            else:
                score = lam * rel[j] - (1 - lam) * pair[j, sel].max()
            if best is None or score > best[0] or (
                    score == best[0] and c < best[1]):
                best = (score, c, j)
        rows.append((step, int(best[1]), float(rel[best[2]]),
                     float(best[0])))
        sel.append(best[2])
    return pd.DataFrame(rows, columns=["rank", id_col, "rel",
                                       "mmr_score"])


def class_separation(
    ds: ray.data.Dataset,
    label_col: str = "label",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Per-class embedding-space separation diagnostics: for each
    label c with n_c vectors, the within-class sum of squares
    WSS_c = Σ‖x‖² − ‖Σx‖²/n_c, the centroid norm ‖μ_c‖ and the
    centroid's distance to the GLOBAL centroid ‖μ_c − μ‖ — the
    building blocks of Calinski–Harabasz / Fisher separation scores,
    used as the embedding-quality gate after training-data curation
    (labels collapsing onto the global centroid, or WSS ≫ between-
    class distances, flag a useless embedding column).

    Distributed shape: one ``map_batches`` reduces each block to
    ≤ |labels| partial rows (n, Σ‖x‖², per-dim Σx) — a constant-size
    cell independent of block size — combined on the driver (the
    label alphabet is broadcast-small by assumption).  float32 →
    float64 widening is exact on both sides; the moment sums and
    closings are mirrored float expressions (round-6 robust)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({label_col: pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64"),
                                 "q": pd.Series(dtype="float64"),
                                 "svec": pd.Series(dtype=object)})
        lab, uniq = pd.factorize(df[label_col])
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in df[vec_col]])
        nk = len(uniq)
        n = np.bincount(lab, minlength=nk).astype(np.int64)
        q = np.bincount(lab, weights=(m * m).sum(axis=1),
                        minlength=nk)
        svec = np.zeros((nk, m.shape[1]))
        np.add.at(svec, lab, m)
        return pd.DataFrame({
            label_col: np.asarray(uniq, dtype=np.int64),
            "n": n, "q": q, "svec": [row for row in svec]})

    parts = ds.select_columns([label_col, vec_col]).map_batches(
        partial, batch_format="pandas").to_pandas()
    cols = {label_col: pd.Series(dtype="int64"),
            "n": pd.Series(dtype="int64"),
            "wss": pd.Series(dtype="float64"),
            "mu_norm": pd.Series(dtype="float64"),
            "dist_global": pd.Series(dtype="float64")}
    if parts.empty:
        return pd.DataFrame(cols)
    agg = {}
    for _, r in parts.iterrows():
        lb = int(r[label_col])
        if lb not in agg:
            agg[lb] = [0, 0.0, np.zeros(len(r["svec"]))]
        agg[lb][0] += int(r["n"])
        agg[lb][1] += float(r["q"])
        agg[lb][2] = agg[lb][2] + np.asarray(r["svec"])
    gvec = np.sum([v[2] for v in agg.values()], axis=0)
    gn = float(sum(v[0] for v in agg.values()))
    rows = []
    for lb in sorted(agg):
        n, q, svec = agg[lb]
        nf = float(n)
        ssn = float((svec * svec).sum())
        wss = q - ssn / nf
        mu_norm = np.sqrt(ssn) / nf
        dvec = svec / nf - gvec / gn
        dist = np.sqrt(float((dvec * dvec).sum()))
        rows.append((lb, n, wss, mu_norm, dist))
    return pd.DataFrame(rows, columns=list(cols))


def dim_variance(
    ds: ray.data.Dataset,
    vec_col: str = "embedding",
    dead_eps: float = 1e-6,
) -> pd.DataFrame:
    """Per-DIMENSION embedding moment profile: mean, population
    variance and a dead-dimension flag (var < ``dead_eps``) for each
    coordinate — the standard whitening / collapsed-dimension
    diagnostic run before indexing an embedding column (dead or
    near-constant dims waste index bits and distort cosine
    distances).

    One ``map_batches`` reduces each block to a single (per-dim Σx,
    Σx², n) partial row — constant size regardless of block size —
    combined on the driver.  float32 → float64 widening is exact;
    mean/var close in mirrored float expressions; the dead flag
    compares the SAME mirrored var on both sides."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"n": pd.Series(dtype="int64"),
                                 "s": pd.Series(dtype=object),
                                 "q": pd.Series(dtype=object)})
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in df[vec_col]])
        return pd.DataFrame({"n": [len(m)], "s": [m.sum(axis=0)],
                             "q": [(m * m).sum(axis=0)]})

    parts = ds.select_columns([vec_col]).map_batches(
        partial, batch_format="pandas").to_pandas()
    cols = {"dim": pd.Series(dtype="int64"),
            "mean": pd.Series(dtype="float64"),
            "var": pd.Series(dtype="float64"),
            "dead": pd.Series(dtype="bool")}
    if parts.empty:
        return pd.DataFrame(cols)
    n = int(parts["n"].sum())
    s = np.sum([np.asarray(v) for v in parts["s"]], axis=0)
    q = np.sum([np.asarray(v) for v in parts["q"]], axis=0)
    nf = float(n)
    mean = s / nf
    var = q / nf - mean * mean
    return pd.DataFrame({"dim": np.arange(1, len(s) + 1,
                                          dtype=np.int64),
                         "mean": mean, "var": var,
                         "dead": var < dead_eps})


def centroid_cosine(
    ds: ray.data.Dataset,
    label_col: str = "label",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Pairwise class-centroid geometry: for every label pair
    (a < b), the cosine similarity and Euclidean distance between
    class centroids — the confusability map that complements
    class_separation's per-class spreads (two labels with
    near-parallel centroids AND large WSS are the ones a classifier
    will mix up).

    Same distributed shape as class_separation: each block reduces
    to ≤ |labels| partial rows (n, per-dim Σx), driver-side combine,
    |labels|²/2 closings on centroid vectors.  float32 → float64
    widening is exact both sides; the dim sums and closings are
    mirrored float expressions (round-6 robust)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({label_col: pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64"),
                                 "svec": pd.Series(dtype=object)})
        lab, uniq = pd.factorize(df[label_col])
        m = np.stack([np.asarray(v, dtype=np.float64)
                      for v in df[vec_col]])
        nk = len(uniq)
        n = np.bincount(lab, minlength=nk).astype(np.int64)
        svec = np.zeros((nk, m.shape[1]))
        np.add.at(svec, lab, m)
        return pd.DataFrame({
            label_col: np.asarray(uniq, dtype=np.int64),
            "n": n, "svec": [row for row in svec]})

    parts = ds.select_columns([label_col, vec_col]).map_batches(
        partial, batch_format="pandas").to_pandas()
    cols = {"label_a": pd.Series(dtype="int64"),
            "label_b": pd.Series(dtype="int64"),
            "n_a": pd.Series(dtype="int64"),
            "n_b": pd.Series(dtype="int64"),
            "cosine": pd.Series(dtype="float64"),
            "dist": pd.Series(dtype="float64")}
    if parts.empty:
        return pd.DataFrame(cols)
    agg = {}
    for _, row in parts.iterrows():
        lb = int(row[label_col])
        n0, s0 = agg.get(lb, (0, None))
        v = np.asarray(row["svec"], np.float64)
        agg[lb] = (n0 + int(row["n"]),
                   v if s0 is None else s0 + v)
    labels = sorted(agg)
    rows = []
    for i, la in enumerate(labels):
        na, sa = agg[la]
        ca = sa / float(na)
        for lb_ in labels[i + 1:]:
            nb, sb = agg[lb_]
            cb = sb / float(nb)
            num = float(np.sum(ca * cb))
            qa = float(np.sum(ca * ca))
            qb = float(np.sum(cb * cb))
            if qa <= 0 or qb <= 0:
                continue
            cos = num / (np.sqrt(qa) * np.sqrt(qb))
            dist = float(np.sqrt(np.sum((ca - cb) * (ca - cb))))
            rows.append((np.int64(la), np.int64(lb_), np.int64(na),
                         np.int64(nb), cos, dist))
    if not rows:
        return pd.DataFrame(cols)
    return pd.DataFrame(rows, columns=list(cols))


def rrf_fuse(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids,
    k_retrieve: int = 200,
    top: int = 20,
    c: int = 60,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pd.DataFrame:
    """Reciprocal-rank fusion (Cormack et al., SIGIR 2009) of the
    retrieved top-``k_retrieve`` lists of several query vectors:
    fused(d) = Σ_q 1/(c + rank_q(d)) over the lists d appears in —
    the standard way to combine rankings without score calibration
    (complements mmr_rerank, which diversifies ONE list; this
    merges several).

    Retrieval is brute_force_topk's broadcast-matmul partial top-k
    (only ≤ k_retrieve+1 rows per query per partition move), ranks
    are exact ints under the (sim desc, id) tie-break, and each
    fused score is a FIXED-ORDER small sum of 1/(c+r) terms — no
    float aggregation, so the SQL twin reproduces the ordering
    bit-for-bit.  Items absent from a list contribute 0 (rank
    column 0), per standard retrieved-list RRF."""
    lists = brute_force_topk(ds, queries, query_ids,
                             k=k_retrieve, id_col=id_col,
                             emb_col=emb_col, exclude_self=False)
    qids = list(np.asarray(query_ids))
    fused = None
    for i, qid in enumerate(qids):
        li = lists[lists["query_id"] == qid] \
            .sort_values(["sim", id_col],
                         ascending=[False, True],
                         kind="mergesort").reset_index(drop=True)
        li = pd.DataFrame({id_col: li[id_col].to_numpy(),
                           f"rank_{i}": np.arange(
                               1, len(li) + 1, dtype=np.int64)})
        fused = li if fused is None else fused.merge(
            li, on=id_col, how="outer")
    for i in range(len(qids)):
        fused[f"rank_{i}"] = fused[f"rank_{i}"].fillna(0) \
            .astype(np.int64)
    score = np.zeros(len(fused), np.float64)
    for i in range(len(qids)):       # fixed q-order sum
        r = fused[f"rank_{i}"].to_numpy(np.float64)
        score = score + np.where(
            r > 0, 1.0 / (float(c) + r), 0.0)
    fused["rrf_score"] = score
    out = fused.sort_values(["rrf_score", id_col],
                            ascending=[False, True],
                            kind="mergesort").head(top)
    return out.reset_index(drop=True)
