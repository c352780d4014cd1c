"""Mergeable quantile sketch: fixed-bin histogram quantiles.

At 100 TB an exact global quantile needs the grouped values
co-located; this sketch needs ONE streaming pass and ships only
``n_bins`` int64 partial counts per batch — error is bounded by the
bin width, and the result is a deterministic function of the bin
counts, so (unlike t-digest/KLL) the SQL oracle reproduces it bit-for-
bit with the same binning arithmetic.

Semantics (both sides): non-null values clamp into
``bin = min(max(floor((v − lo)/w), 0), n_bins − 1)`` with
``w = (hi − lo)/n_bins``; the q-quantile is the LOWER EDGE of the bin
containing the ``ceil(q · total)``-th smallest value (1-based).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data


def histogram_quantile(
    ds: ray.data.Dataset,
    value: str = "value",
    lo: float = 0.0,
    hi: float = 200.0,
    n_bins: int = 4000,
    qs: tuple = (0.5, 0.99),
) -> pd.DataFrame:
    """One-row frame: ``total_cnt``, ``bin_width``, and one
    ``p<q>_edge`` column per requested quantile."""
    w = (hi - lo) / n_bins

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value].to_numpy(dtype=np.float64)
        v = v[~np.isnan(v)]
        b = np.clip(np.floor((v - lo) / w).astype(np.int64), 0, n_bins - 1)
        counts = np.bincount(b, minlength=n_bins)
        nz = np.flatnonzero(counts)  # sparse partials: nonzero bins only
        return pd.DataFrame({"bin": nz.astype(np.int64),
                             "cnt": counts[nz].astype(np.int64)})

    # per-batch sparse partials merge through ONE bin-keyed hash
    # exchange (group_apply — Ray's own groupby stalls on tens of
    # thousands of groups in 2.49), so the driver only ever reads the
    # ≤ n_bins merged rows, independent of batch count
    from .partition import group_apply

    merged = group_apply(
        ds.map_batches(partial, batch_format="pandas"),
        lambda df: df.groupby("bin", as_index=False)["cnt"].sum(),
        key="bin",
    ).to_pandas()
    agg = merged.set_index("bin")["cnt"]
    counts = agg.reindex(np.arange(n_bins), fill_value=0).to_numpy(np.int64)
    total = int(counts.sum())
    cum = np.cumsum(counts)
    out = {"total_cnt": np.array([total], dtype=np.int64),
           "bin_width": np.array([w], dtype=np.float64)}
    for q in qs:
        if total:
            r = max(int(np.ceil(q * total)), 1)
            b = int(np.searchsorted(cum, r, side="left"))
            edge = lo + b * w
        else:
            # empty input: SQL oracle's min(bin) subquery yields NULL —
            # emit NaN (pandas' NULL) so engine and oracle hash-match
            edge = np.nan
        out[f"p{int(round(q * 100))}_edge"] = np.array(
            [edge], dtype=np.float64)
    return pd.DataFrame(out)


# ------------------------------------------------------- HyperLogLog

_HLL_P = 12  # 4096 registers → ~1.6% standard error


def _hll_mix64(x: np.ndarray) -> np.ndarray:
    """64-bit avalanche — the one shared splitmix64 (dedup.py)."""
    from .dedup import _splitmix64

    return _splitmix64(x.astype(np.uint64))


def _hll_registers(keys: np.ndarray, p: int = _HLL_P) -> np.ndarray:
    """Dense register array (max leading-zero rank per bucket) for one
    block of int64 keys — fully vectorized."""
    m = 1 << p
    h = _hll_mix64(keys.astype(np.int64).view(np.uint64))
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad low bits
    # rank = leading zeros of `rest` + 1, in [1, 64-p+1]
    rank = np.zeros(len(h), np.int64)
    cur = rest
    for shift in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - shift))
        rank[mask] += shift
        with np.errstate(over="ignore"):
            cur = np.where(mask, cur << np.uint64(shift), cur)
    rank += 1
    out = np.zeros(m, np.int64)
    np.maximum.at(out, reg, rank)
    return out


def hll_estimate(registers: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction — deterministic given the merged registers."""
    m = len(registers)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -registers.astype(np.float64)))
    zeros = int((registers == 0).sum())
    if est <= 2.5 * m and zeros:
        return m * np.log(m / zeros)
    return float(est)


def hll_distinct(
    ds: ray.data.Dataset,
    col: str = "user_id",
    p: int = _HLL_P,
) -> float:
    """Approximate COUNT DISTINCT in one streaming pass: each block
    reduces to its nonzero (register, rank) pairs (≤ 2^p rows, usually
    far fewer), merged by max — the mergeable-sketch property that
    makes this a constant-size exchange at any input scale."""
    import pyarrow as pa

    def partial(tbl: pa.Table) -> pa.Table:
        regs = _hll_registers(tbl[col].to_numpy(zero_copy_only=False), p)
        nz = np.flatnonzero(regs)
        return pa.table({"reg": pa.array(nz, pa.int64()),
                         "rank": pa.array(regs[nz], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    merged = np.zeros(1 << p, np.int64)
    if len(parts):
        np.maximum.at(merged, parts["reg"].to_numpy(),
                      parts["rank"].to_numpy())
    return hll_estimate(merged)


def grouped_histogram(
    ds: ray.data.Dataset,
    group_col: str = "event_type",
    value: str = "value",
    lo: float = 0.0,
    hi: float = 200.0,
    n_bins: int = 40,
) -> pd.DataFrame:
    """Exact per-group value histogram with the same clamped-bin
    arithmetic as ``histogram_quantile``.  Map-side partial combine:
    each block reduces to its nonzero (group, bin) cells, so the final
    merge sees groups × bins rows regardless of input size.  Returns
    (group, bin, lo_edge, n) for nonzero bins."""
    w = (hi - lo) / n_bins

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[value].to_numpy(np.float64)
        ok = ~np.isnan(v)
        b = np.clip(np.floor((v[ok] - lo) / w).astype(np.int64), 0, n_bins - 1)
        gv, gc = np.unique(df[group_col].to_numpy()[ok], return_inverse=True)
        cell = gc * n_bins + b
        cnt = np.bincount(cell, minlength=len(gv) * n_bins)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({
            group_col: gv[nz // n_bins],
            "bin": (nz % n_bins).astype(np.int64),
            "_n": cnt[nz].astype(np.int64),
        })

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby([group_col, "bin"], as_index=False)["_n"].sum()
    out["lo_edge"] = lo + out["bin"].to_numpy(np.float64) * w
    out = out.rename(columns={"_n": "n"})
    return (out[[group_col, "bin", "lo_edge", "n"]]
            .sort_values([group_col, "bin"]).reset_index(drop=True))


def kmv_distinct(
    ds: ray.data.Dataset,
    col: str = "user_id",
    k: int = 256,
) -> pd.DataFrame:
    """KMV (k-minimum-values) distinct-count sketch: keep the ``k``
    smallest DISTINCT arithmetic-hash values of ``col``; estimate
    D ≈ (k−1)·2³² / h_k (Bar-Yossef et al.).  Unlike HLL (whose
    mixing constants SQL cannot reproduce) the KMV sketch under the
    engine's Knuth hash is EXACTLY SQL-expressible, so the sketch
    content AND the estimate are hash-checkable — a driver-verified
    approximate-distinct.

    Mergeable map-side partial: each block emits its ≤ k smallest
    distinct hashes (k·8 B per block); merging is distinct-union +
    ``k``-smallest — associative and order-free.  If fewer than ``k``
    distinct hashes exist the estimate is the exact count."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = np.unique(
            (df[col].to_numpy(np.int64).astype(np.uint64)
             * np.uint64(2654435761)) % np.uint64(1 << 32))
        return pd.DataFrame({"hv": h[:k].astype(np.int64)})

    merged = np.unique(
        ds.select_columns([col])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()["hv"].to_numpy(np.int64))
    n_hashes = min(len(merged), k)
    if len(merged) >= k:
        kth = int(merged[k - 1])
        est = ((float(k) - 1.0) * 4294967296.0) / float(kth)
    else:
        kth = int(merged[-1]) if len(merged) else 0
        est = float(len(merged))
    return pd.DataFrame({
        "n_hashes": np.array([n_hashes], np.int64),
        "kth_hash": np.array([kth], np.int64),
        "est_distinct": np.array([est], np.float64),
    })


_CMS_SALTS = (2654435761, 2246822519, 3266489917, 668265263)


def cms_build(
    ds: ray.data.Dataset,
    col: str = "user_id",
    width: int = 1024,
    depth: int = 4,
) -> np.ndarray:
    """Count-Min sketch build: a (depth × width) int64 counter matrix
    under ``depth`` fixed multiplicative hashes — the mergeable
    approximate-counter (point queries overestimate, never
    underestimate).  Deterministic public constants, so every counter
    and therefore every estimate is exactly SQL-expressible.

    Map-side combine: each block reduces to its own d×w partial
    (one flat bincount per hash row, d·w·8 B = 32 KB per block — the
    CM merge is elementwise sum, associative).  The driver sums
    blocks·(d·w) ints; at very large block counts the same partials
    tree-reduce through a bucket-keyed exchange unchanged."""
    salts = np.array(_CMS_SALTS[:depth], dtype=np.uint64)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df[col].to_numpy(np.int64).astype(np.uint64)
        flat = np.zeros(depth * width, np.int64)
        for j in range(depth):
            b = ((k * salts[j]) % np.uint64(1 << 32)) % np.uint64(width)
            flat[j * width:(j + 1) * width] = np.bincount(
                b.astype(np.int64), minlength=width)
        return pd.DataFrame({"flat": [flat]})

    parts = (ds.select_columns([col])
             .map_batches(partial, batch_format="pandas").to_pandas())
    return np.sum(np.stack(parts["flat"].to_numpy()),
                  axis=0).reshape(depth, width)


def cms_estimate(sketch: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Point-query the CM sketch: est(k) = min over rows of the
    counter at that row's hash bucket.  Guaranteed ≥ the true count."""
    depth, width = sketch.shape
    salts = np.array(_CMS_SALTS[:depth], dtype=np.uint64)
    k = np.asarray(keys, np.int64).astype(np.uint64)
    est = None
    for j in range(depth):
        b = ((k * salts[j]) % np.uint64(1 << 32)) % np.uint64(width)
        row = sketch[j][b.astype(np.int64)]
        est = row if est is None else np.minimum(est, row)
    return est.astype(np.int64)


def cms_join_cardinality(
    a: ray.data.Dataset,
    b: ray.data.Dataset,
    col: str = "user_id",
    width: int = 1024,
    depth: int = 4,
) -> pd.DataFrame:
    """Equi-join cardinality estimation WITHOUT running the join —
    the planner primitive: |A ⋈ B| on ``col`` is estimated as
    min over hash rows of ⟨CM_A[j], CM_B[j]⟩ (the classic
    AMS/CM inner-product bound, an overestimate, never under).
    Each side costs one streaming sketch build; the estimate is a
    d-way min of 1024-term integer dot products — exactly
    SQL-expressible under the fixed hashes."""
    sa = cms_build(a, col=col, width=width, depth=depth)
    sb = cms_build(b, col=col, width=width, depth=depth)
    prods = (sa * sb).sum(axis=1)
    return pd.DataFrame({
        "est_join_rows": np.array([int(prods.min())], np.int64),
        "n_left": np.array([int(sa[0].sum())], np.int64),
        "n_right": np.array([int(sb[0].sum())], np.int64),
    })


_AMS_P = 2147483647                       # 2^31 − 1, Mersenne
_AMS_A = [3571, 7919, 12553, 17389, 23431, 29443, 37199, 43063,
          50021]
_AMS_B = [1471, 2971, 4523, 6037, 7919, 9461, 11087, 12743, 14407]


def ams_f2(
    ds: ray.data.Dataset,
    key: str = "user_id",
) -> pd.DataFrame:
    """AMS (Alon–Matias–Szegedy) F₂ sketch over the key-frequency
    vector: nine ±1 sign rows s_r(u) = 1 − 2·(((a_r·u + b_r) mod
    p) mod 2) (pairwise-independent linear hashes — a documented
    simplification of the paper's 4-wise BCH construction; the
    median across rows still concentrates on real key
    distributions), each row's Z_r = Σ_events s_r(u) is one exact
    int64 map-side sum, and F̂₂ = median(Z_r²).  The exact
    F₂ = Σ_u c_u² rides along through per-key count cells so the
    output carries its own relative error — the sketch is the
    scale path (9 counters per partition, no exchange), the exact
    path is the validation twin."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        u = df[key].to_numpy(np.int64)
        out = {"n": np.array([len(u)], np.int64)}
        for r in range(9):
            h = (_AMS_A[r] * u + _AMS_B[r]) % _AMS_P
            s = 1 - 2 * (h % 2)
            out[f"z{r}"] = np.array([int(s.sum())], np.int64)
        return pd.DataFrame(out)

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key, as_index=False).size()
        return g.rename(columns={"size": "c"})

    zs = ds.select_columns([key]).map_batches(
        partial, batch_format="pandas").to_pandas().sum()
    counts = ds.select_columns([key]).map_batches(
        count_partial, batch_format="pandas").to_pandas() \
        .groupby(key, as_index=False)["c"].sum()
    cols = {"n_events": pd.Series(dtype="int64"),
            "n_keys": pd.Series(dtype="int64"),
            "f2_exact": pd.Series(dtype="int64"),
            "f2_ams": pd.Series(dtype="float64"),
            "rel_err": pd.Series(dtype="float64")}
    if len(counts) == 0:
        return pd.DataFrame(cols)
    c = counts["c"].to_numpy(np.int64)
    f2 = int((c * c).sum())
    z2 = np.array([int(zs[f"z{r}"]) ** 2 for r in range(9)],
                  np.int64)
    est = float(np.median(z2))
    return pd.DataFrame({
        "n_events": np.array([int(zs["n"])], np.int64),
        "n_keys": np.array([len(c)], np.int64),
        "f2_exact": np.array([f2], np.int64),
        "f2_ams": [est],
        "rel_err": [abs(est - float(f2)) / float(f2)]})


def kmv_jaccard(
    ds: ray.data.Dataset,
    type_col: str = "event_type",
    key: str = "user_id",
    type_a: str = "click",
    type_b: str = "view",
    k: int = 256,
) -> pd.DataFrame:
    """KMV set-similarity sketch between two key sets (the users who
    ever fired ``type_a`` vs ``type_b``): Jaccard ≈ |{k smallest
    hashes of A∪B} ∩ A ∩ B| / k' (Bar-Yossef/Beyer k-min-wise
    estimator) under the same Knuth hash as kmv_distinct, so the
    sketch AND the estimate are exactly SQL-expressible.  The exact
    Jaccard rides along from the same distinct-key cells, so the
    output carries its own error — the sketch is the scale path
    (two k·8 B sketches, no key exchange beyond the distinct
    partial), the exact path the validation twin."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df[type_col].to_numpy(object)
        u = df[key].to_numpy(np.int64)
        out = []
        for side, tt in (("a", type_a), ("b", type_b)):
            uu = np.unique(u[t == tt])
            h = np.unique((uu.astype(np.uint64)
                           * np.uint64(2654435761))
                          % np.uint64(1 << 32))
            # full distinct cells (not h[:k]): the k-min sketch alone
            # would survive per-batch truncation, but the exact-
            # Jaccard validation twin needs every distinct hash
            out.append(pd.DataFrame({
                "side": side, "hv": h.astype(np.int64)}))
        return pd.concat(out, ignore_index=True)

    parts = ds.select_columns([type_col, key]).map_batches(
        partial, batch_format="pandas").to_pandas()
    cols = {"k_used": pd.Series(dtype="int64"),
            "n_a": pd.Series(dtype="int64"),
            "n_b": pd.Series(dtype="int64"),
            "jaccard_kmv": pd.Series(dtype="float64"),
            "jaccard_exact": pd.Series(dtype="float64")}
    ha = np.unique(parts.loc[parts["side"] == "a", "hv"]
                   .to_numpy(np.int64))
    hb = np.unique(parts.loc[parts["side"] == "b", "hv"]
                   .to_numpy(np.int64))
    if not len(ha) or not len(hb):
        return pd.DataFrame(cols)
    # the Knuth multiplicative hash is injective mod 2^32 on 32-bit
    # keys, so distinct hashes == distinct keys and the exact
    # Jaccard can be read from the full hash sets
    inter = np.intersect1d(ha, hb)
    union = len(ha) + len(hb) - len(inter)
    exact = float(len(inter)) / float(union)
    hu = np.union1d(ha, hb)
    kk = min(k, len(hu))
    topu = hu[:kk]
    both = np.intersect1d(topu, inter)
    est = float(len(both)) / float(kk)
    return pd.DataFrame({
        "k_used": np.array([kk], np.int64),
        "n_a": np.array([len(ha)], np.int64),
        "n_b": np.array([len(hb)], np.int64),
        "jaccard_kmv": [est],
        "jaccard_exact": [exact]})
