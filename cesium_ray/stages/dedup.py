"""Deduplication stages (training-data pipeline ops).

All flavors follow the same Ray-Data shape: vectorized per-batch
signature computation (``map_batches``) → hash-keyed ``groupby`` so
candidates co-locate → per-group verification.  No driver-side loops.

  * ``exact_dedup``        — hash-partition + per-group first.
  * ``minhash_lsh_dedup``  — shingle → minhash → band → bucket groupby
                             → verified Jaccard pairs.
  * ``simhash``            — 64-bit SimHash per doc (near-dup by
                             Hamming distance on band buckets).
  * ``ngram_jaccard``      — exact n-gram Jaccard for candidate pairs.
  * ``fingerprint``        — 64-bit rolling/content hash per doc.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import ray.data

from .partition import group_apply, partition_count

_PRIME = np.uint64((1 << 61) - 1)


def stable_hash64(data) -> int:
    """Deterministic cross-process 64-bit hash (Python's builtin
    ``hash()`` is salted per process — unusable across Ray workers)."""
    if isinstance(data, str):
        data = data.encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def exact_dedup(
    ds: ray.data.Dataset, key: str = "text", id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Keep the minimum-id row per distinct ``key`` value (O2-style
    hash-partitioned groupby; same content always lands in one
    partition)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(id_col, kind="mergesort").groupby(
            key, as_index=False, sort=False
        ).first()

    return group_apply(ds, fn, key=key)


def _char_shingles(text: str, k: int = 5) -> set:
    if len(text) < k:
        return {text}
    return {text[i : i + k] for i in range(len(text) - k + 1)}


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — deterministic 64-bit mixing
    of numeric shingle keys (cross-process safe: pure arithmetic)."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _window_hashes(texts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All k-byte-window hash64s for a batch of texts, flat, plus the
    per-doc window counts.  Numeric end-to-end: utf-8 bytes → sliding
    windows → injective base-256 uint64 keys (k ≤ 8) → splitmix64.
    No per-shingle Python strings and no per-doc numpy passes: all
    docs concatenate into one byte array (short docs zero-padded to k,
    exactly like the old per-doc pad), the base-256 key rolls over the
    whole array in k shifted-add passes, and per-doc window starts
    gather out the windows that don't span doc boundaries.  Duplicates
    are kept (the minhash MIN is multiset-invariant, so dedup is
    unnecessary)."""
    n = len(texts)
    empty = np.array([], dtype=np.uint64)
    if n == 0:
        return empty, np.zeros(0, dtype=np.int64)
    enc = [str(t).encode() for t in texts]
    if any(len(e) < k for e in enc):
        enc = [e if len(e) >= k else e.ljust(k, b"\0") for e in enc]
    lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=n)
    bb = np.frombuffer(b"".join(enc), dtype=np.uint8)
    counts = lens - k + 1
    m = len(bb) - k + 1
    h = np.zeros(m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h = h * np.uint64(256) + bb[j : m + j]
    doc_starts = np.r_[0, np.cumsum(lens)[:-1]]
    idx = (np.repeat(doc_starts, counts)
           + np.arange(counts.sum()) - np.repeat(
               np.r_[0, np.cumsum(counts)[:-1]], counts))
    return _splitmix64(h[idx]) & np.uint64(0x7FFFFFFFFFFFFFFF), counts


class MinHasher:
    """Actor-pool batch stage: permutation coefficients built once per
    actor (T-style stateful setup).  Fully vectorized: one numeric
    window-hash pass over the whole batch, then per-doc lane minima —
    no per-doc signature loop (the round-1 kernel hashed Python string
    shingles per doc).

    ``scheme="oph"`` (default, the 100-TB path) is One-Permutation
    Hashing (Li, Owen & Zhang, NIPS 2012): each window hash is assigned
    to one of ``num_perm`` bins by its high bits and the signature is
    the per-bin minimum — ONE pass over the windows (argsort +
    minimum.reduceat) instead of num_perm modmul passes (~10× less
    compute at num_perm=64).  Empty bins are filled by rotation
    densification (Shrivastava & Li, ICML 2014): borrow the nearest
    filled bin to the right (circular), salted by the borrow distance,
    which preserves lane-collision probability ≈ Jaccard.

    ``scheme="perm"`` is the classic k-independent-permutations kernel
    (kept as the reference estimator)."""

    # cap the (num_perm × windows) working set per inner block
    _BLOCK_WINDOWS = 2_000_000

    def __init__(self, num_perm: int = 64, k: int = 5, seed: int = 7,
                 text_col: str = "text", id_col: str = "doc_id",
                 scheme: str = "oph"):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, int(_PRIME), num_perm, dtype=np.uint64)
        self.b = rng.integers(0, int(_PRIME), num_perm, dtype=np.uint64)
        if scheme == "oph" and num_perm & (num_perm - 1):
            raise ValueError("oph scheme needs a power-of-two num_perm")
        self.num_perm = num_perm
        self.k = k
        self.text_col = text_col
        self.id_col = id_col
        self.scheme = scheme

    def _sigs_perm(self, texts) -> np.ndarray:
        hv, counts = _window_hashes(texts, self.k)
        n = len(counts)
        out = np.empty((n, self.num_perm), dtype=np.uint64)
        # process runs of docs whose total windows fit the block cap
        starts_all = np.r_[0, np.cumsum(counts)]
        d0 = 0
        while d0 < n:
            d1 = d0 + 1
            while d1 < n and starts_all[d1 + 1] - starts_all[d0] <= self._BLOCK_WINDOWS:
                d1 += 1
            seg = hv[starts_all[d0]: starts_all[d1]]
            seg_starts = (starts_all[d0:d1] - starts_all[d0]).astype(np.int64)
            with np.errstate(over="ignore"):
                for p in range(self.num_perm):
                    m = (self.a[p] * seg + self.b[p]) % _PRIME
                    out[d0:d1, p] = np.minimum.reduceat(m, seg_starts)
            d0 = d1
        return out

    def _sigs_oph(self, texts) -> np.ndarray:
        hv, counts = _window_hashes(texts, self.k)
        n = len(counts)
        P = self.num_perm
        pbits = P.bit_length() - 1
        EMPTY = np.uint64(0xFFFFFFFFFFFFFFFF)
        sig = np.full((n, P), EMPTY, dtype=np.uint64)
        if len(hv):
            # bin by high hash bits (top bit is zeroed by the 63-bit
            # mask in _window_hashes, so use bits [62, 62-pbits))
            bins = (hv >> np.uint64(62 - pbits)) & np.uint64(P - 1)
            doc = np.repeat(np.arange(n, dtype=np.int64), counts)
            key = doc * P + bins.astype(np.int64)
            order = np.argsort(key, kind="stable")
            ks = key[order]
            starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
            sig.reshape(-1)[ks[starts]] = np.minimum.reduceat(hv[order], starts)
        # rotation densification: nearest filled bin rightward, circular
        filled = sig != EMPTY
        none_at_all = ~filled.any(axis=1)
        cols = np.arange(2 * P, dtype=np.int64)
        A = np.where(np.concatenate([filled, filled], axis=1), cols, 4 * P)
        B = np.minimum.accumulate(A[:, ::-1], axis=1)[:, ::-1][:, :P]
        B = np.minimum(B, 2 * P - 1)  # all-empty docs: clamp the gather
        dist = (B - cols[:P]).astype(np.uint64)
        borrowed = np.take_along_axis(
            np.concatenate([sig, sig], axis=1), B, axis=1)
        with np.errstate(over="ignore"):
            dense = np.where(
                filled, sig,
                borrowed + dist * np.uint64(0x9E3779B97F4A7C15))
        dense[none_at_all] = 0  # empty text: all-zero signature
        return dense

    def _sigs(self, texts) -> np.ndarray:
        if self.scheme == "oph":
            return self._sigs_oph(texts)
        return self._sigs_perm(texts)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        sigs = self._sigs(list(df[self.text_col]))
        out = pd.DataFrame({self.id_col: df[self.id_col].to_numpy()})
        out["sig"] = [s.tobytes() for s in sigs]
        return out


def _band_hashes(sig_mat: np.ndarray, bands: int, rows_per_band: int) -> np.ndarray:
    """(n, num_perm) uint64 signatures → (n, bands) uint64 band hashes
    (vectorized FNV-1a over the band's lanes — deterministic, no
    per-row hashing loop)."""
    n = len(sig_mat)
    out = np.empty((n, bands), dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for b in range(bands):
            h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
            for lane in range(rows_per_band):
                h = (h ^ sig_mat[:, b * rows_per_band + lane]) * prime
            out[:, b] = h
    return out


def minhash_lsh_dedup(
    ds: ray.data.Dataset,
    num_perm: int = 64,
    bands: int = 16,
    k: int = 5,
    jaccard_threshold: float = 0.7,
    text_col: str = "text",
    id_col: str = "doc_id",
    concurrency=None,
    max_bucket: int = 1024,
) -> ray.data.Dataset:
    """MinHash+LSH near-dup: per-doc signatures (actor pool) → NARROW
    band rows ``(doc_id, band_id, band_hash)`` (24 bytes — round 1
    shipped the full num_perm·8-byte signature into every band row,
    ≈16× shuffle volume) → bucket groupby → vectorized candidate-pair
    enumeration → signatures fetched back by two hash joins on the
    (small) pair set → vectorized Jaccard estimate.

    Degenerate buckets (> ``max_bucket`` members — e.g. a boilerplate
    band shared by millions of docs) are star-linked to their min id:
    O(B) pairs instead of O(B²), with the same transitive keeper
    outcome for dedup purposes.

    Returns a dataset of ``(doc_id, dup_of, est_jaccard)`` pairs
    (doc_id > dup_of) whose estimated Jaccard ≥ threshold."""
    sigs, pairs = _lsh_candidates(
        ds, num_perm=num_perm, bands=bands, k=k, text_col=text_col,
        id_col=id_col, concurrency=concurrency, max_bucket=max_bucket)
    return _verify_estimate(sigs, pairs, num_perm, jaccard_threshold, id_col)


def _lsh_candidates(
    ds: ray.data.Dataset,
    num_perm: int,
    bands: int,
    k: int,
    text_col: str,
    id_col: str,
    concurrency,
    max_bucket: int,
):
    """Shared LSH candidate generation: signatures (materialized once)
    + globally-deduped candidate ``(a, b)`` pair dataset (a < b)."""
    rows_per_band = num_perm // bands
    # elastic task pool: the hasher's state (two num_perm coefficient
    # arrays) costs microseconds to build, so a width-capped actor
    # pool only adds ramp-up latency (measured 3-4× on cold clusters)
    mh = MinHasher(num_perm=num_perm, k=k, text_col=text_col, id_col=id_col)
    kw = {"concurrency": concurrency} if concurrency else {}
    sigs = ds.select_columns([id_col, text_col]).map_batches(
        mh, batch_format="pandas", **kw
    )
    # the signature table feeds multiple consumers (band explode +
    # verify joins): materialize once — num_perm·8 B/doc in the object
    # store (spillable) — instead of re-running the shingle/minhash
    # pass per consumer (measured 4× the whole pipeline otherwise)
    sigs = sigs.materialize()

    def explode_bands(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        if n == 0:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "band_id": pd.Series(dtype="int64"),
                                 "band_hash": pd.Series(dtype="uint64")})
        sig_mat = np.frombuffer(b"".join(df["sig"]), dtype=np.uint64).reshape(n, num_perm)
        bh = _band_hashes(sig_mat, bands, rows_per_band)
        return pd.DataFrame(
            {
                id_col: np.repeat(df[id_col].to_numpy(), bands),
                "band_id": np.tile(np.arange(bands, dtype=np.int64), n),
                "band_hash": bh.reshape(-1),
            }
        )

    exploded = sigs.map_batches(explode_bands, batch_format="pandas")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                              "b": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        d = df.sort_values(["band_id", "band_hash", id_col], kind="mergesort")
        bid = d["band_id"].to_numpy()
        bh = d["band_hash"].to_numpy()
        ids = d[id_col].to_numpy()
        change = np.r_[True, (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])]
        starts = np.flatnonzero(change)
        ends = np.r_[starts[1:], len(d)]
        # singletons dominate — drop them before the Python loop so it
        # only visits true collision buckets
        keep = (ends - starts) >= 2
        A, B = [], []
        for s, e in zip(starts[keep], ends[keep]):
            sz = e - s
            g = ids[s:e]
            if sz > max_bucket:
                A.append(np.full(sz - 1, g[0]))
                B.append(g[1:])
            else:
                iu, ju = np.triu_indices(sz, k=1)
                A.append(g[iu])
                B.append(g[ju])
        if not A:
            return empty
        out = pd.DataFrame({"a": np.concatenate(A), "b": np.concatenate(B)})
        return out.drop_duplicates(["a", "b"])

    pairs = group_apply(exploded, bucket_pairs, key="band_hash")
    # global pair dedup across bands (same pair collides in several bands)
    pairs = group_apply(pairs, lambda df: df.drop_duplicates(["a", "b"]),
                        key="a")
    pairs = pairs.materialize()  # small candidate set, read by both joins
    return sigs, pairs


def attach_pair_payload(
    items: ray.data.Dataset,
    pairs: ray.data.Dataset,
    id_col: str = "doc_id",
    payload_col: str = "text",
    out_a: str = "text_a",
    out_b: str = "text_b",
    empty="",
) -> ray.data.Dataset:
    """Attach both members' ``payload_col`` to candidate pairs
    ``(a, b)`` → ``(a, b, out_a, out_b)`` with NO driver
    materialization and NO broadcast pool: each pair emits two
    half-rows keyed by its member ids, the item table is co-hashed by
    id into the SAME single exchange (the inner merge drops
    non-candidate items inside each partition), then the two halves
    are re-joined on the pair key — that second exchange is bounded
    by the candidate set, never the corpus.  The corpus payload
    crosses exactly one hash exchange and nothing is pulled to the
    driver, so a high-dup-rate crawl cannot blow a driver-side pool.
    (A keyed co-group ``pd.merge`` stands in for ``Dataset.join``:
    Ray 2.49's hash join rejects the schema-less empty blocks that
    ``map_groups`` emits for empty partitions.)"""

    def halves(df: pd.DataFrame) -> pd.DataFrame:
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        n = len(df)
        return pd.DataFrame({
            "k": np.concatenate([a, b]),
            "pa": np.concatenate([a, a]),
            "pb": np.concatenate([b, b]),
            "side": np.repeat(np.array([0, 1], np.int64), n),
            payload_col: np.full(2 * n, empty, dtype=object),
            "_is_doc": np.zeros(2 * n, dtype=bool),
        })

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "k": df[id_col].to_numpy(np.int64),
            "pa": np.full(n, -1, np.int64),
            "pb": np.full(n, -1, np.int64),
            "side": np.full(n, -1, np.int64),
            payload_col: df[payload_col].to_numpy(object),
            "_is_doc": np.ones(n, dtype=bool),
        })

    u = (items.select_columns([id_col, payload_col])
         .map_batches(doc_rows, batch_format="pandas")
         .union(pairs.map_batches(halves, batch_format="pandas")))

    def merge_k(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["_is_doc"]]
        p = df[~df["_is_doc"]]
        return p[["k", "pa", "pb", "side"]].merge(
            d[["k", payload_col]].drop_duplicates("k"),
            on="k", how="inner")[["pa", "pb", "side", payload_col]]

    g1 = group_apply(u, merge_k, key="k")

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        s0 = (df[df["side"] == 0][["pa", "pb", payload_col]]
              .rename(columns={payload_col: out_a}))
        s1 = (df[df["side"] == 1][["pa", "pb", payload_col]]
              .rename(columns={payload_col: out_b}))
        m = s0.merge(s1, on=["pa", "pb"], how="inner")
        return m.rename(columns={"pa": "a", "pb": "b"})

    return group_apply(g1, pivot, key="pa")


def _verify_estimate(sigs, pairs, num_perm, jaccard_threshold, id_col):
    """Signature-estimate verification of LSH candidate pairs: both
    members' signatures are attached by the distributed
    ``attach_pair_payload`` co-group — one corpus-sig exchange, one
    candidate-bounded exchange, no driver pull, no broadcast pool."""
    j = attach_pair_payload(sigs, pairs, id_col=id_col,
                            payload_col="sig", out_a="sig_a",
                            out_b="sig_b", empty=b"")

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "dup_of": pd.Series(dtype="int64"),
                                 "est_jaccard": pd.Series(dtype="float64")})
        A = np.frombuffer(b"".join(df["sig_a"]), dtype=np.uint64).reshape(len(df), num_perm)
        B = np.frombuffer(b"".join(df["sig_b"]), dtype=np.uint64).reshape(len(df), num_perm)
        est = (A == B).mean(axis=1)
        out = pd.DataFrame(
            {id_col: df["b"].to_numpy(), "dup_of": df["a"].to_numpy(), "est_jaccard": est}
        )
        return out[out.est_jaccard >= jaccard_threshold]

    verified = j.map_batches(estimate, batch_format="pandas")

    # keep min dup_of per doc
    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["dup_of", "est_jaccard"]).groupby(
            id_col, as_index=False
        ).first()

    return group_apply(verified, final, key=id_col)


def attach_pair_texts(
    pairs: ray.data.Dataset,
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Attach both documents' texts to a candidate pair set
    ``(a, b)`` → ``(a, b, text_a, text_b)`` via the distributed
    ``attach_pair_payload`` co-group: one corpus-text exchange, one
    candidate-bounded exchange, no driver materialization of pairs
    and no broadcast id/text pool."""
    return attach_pair_payload(ds, pairs, id_col=id_col,
                               payload_col=text_col, out_a="text_a",
                               out_b="text_b", empty="")


def lsh_exact_near_dup(
    ds: ray.data.Dataset,
    k: int = 5,
    jaccard_threshold: float = 0.7,
    num_perm: int = 64,
    bands: int = 32,
    text_col: str = "text",
    id_col: str = "doc_id",
    concurrency=None,
    max_bucket: int = 1024,
) -> ray.data.Dataset:
    """Exact-verified near-dup pairs: LSH proposes candidates, exact
    char-``k``-gram Jaccard (the ``ngram_jaccard`` kernel) keeps pairs
    ≥ threshold.  With the default r=2 rows/band × 32 bands the
    per-pair miss probability at s=0.7 is (1−0.7²)³² ≈ 4e-10, so the
    result equals the full O(n²) enumeration — which is what the SQL
    oracle computes — making BOTH recall and precision driver-checked
    (the estimate-based ``minhash_lsh_dedup`` stays rows-only).

    Texts are attached to the (small) candidate pair set by the same
    two keyed co-group merges the signature verify uses — only
    candidate docs' texts enter the exchanges, never the corpus.
    Returns ``(id_a < id_b, jaccard)``."""
    _, pairs = _lsh_candidates(
        ds, num_perm=num_perm, bands=bands, k=k, text_col=text_col,
        id_col=id_col, concurrency=concurrency, max_bucket=max_bucket)
    j = attach_pair_texts(pairs, ds, id_col=id_col, text_col=text_col)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "jaccard": pd.Series(dtype="float64")})
        jac = np.fromiter(
            (ngram_jaccard(a_, b_, k)
             for a_, b_ in zip(df["text_a"], df["text_b"])),
            dtype=np.float64, count=len(df))
        out = pd.DataFrame({"id_a": df["a"].to_numpy(np.int64),
                            "id_b": df["b"].to_numpy(np.int64),
                            "jaccard": jac})
        return out[out.jaccard >= jaccard_threshold]

    return j.map_batches(verify, batch_format="pandas")


_BIT_IDX = np.arange(64, dtype=np.uint64)

# numeric tokenizer tables: ASCII lowercase + ASCII whitespace classes
_LOWER_TAB = np.arange(256, dtype=np.uint8)
_LOWER_TAB[65:91] += 32
_WS_TAB = np.zeros(256, dtype=bool)
_WS_TAB[[9, 10, 11, 12, 13, 32]] = True

_POW31 = np.array([1], dtype=np.uint64)


def _pow31(upto: int) -> np.ndarray:
    """31^k mod 2^64 for k in [0, upto] (cached, grown geometrically)."""
    global _POW31
    if len(_POW31) <= upto:
        m = max(upto + 1, 2 * len(_POW31))
        with np.errstate(over="ignore"):
            p = np.multiply.accumulate(np.full(m, 31, dtype=np.uint64))
        _POW31 = np.concatenate([[np.uint64(1)], p])
    return _POW31


def _hash_token_bytes(bb: np.ndarray, tstarts: np.ndarray,
                      lens: np.ndarray) -> np.ndarray:
    """Polynomial token hash over concatenated token bytes: for a token
    of length L, sum(byte_i · 31^(L−1−i)) mod 2^64, splitmix64-finalized
    (the raw polynomial's high bits are too regular for SimHash votes)."""
    pos = np.arange(len(bb), dtype=np.int64) - np.repeat(tstarts, lens)
    exp = np.repeat(lens, lens) - 1 - pos
    with np.errstate(over="ignore"):
        h = np.add.reduceat(bb.astype(np.uint64) * _pow31(int(exp.max(initial=0)))[exp],
                            tstarts)
    return _splitmix64(h)


def _doc_token_hashes(texts) -> tuple[np.ndarray, np.ndarray]:
    """Whitespace tokenization + token hashing with NO per-token Python
    strings and NO per-doc numpy passes: all docs are joined with a
    newline separator (whitespace, so tokens never span docs), then ONE
    utf-8 → ASCII-lowercase table pass, ONE non-whitespace-run
    tokenize, ONE segmented polynomial hash; tokens map back to docs by
    searchsorted on doc byte offsets.  Returns (flat token hash64s in
    doc order, per-doc token counts)."""
    n = len(texts)
    if n == 0:
        return np.array([], dtype=np.uint64), np.zeros(0, dtype=np.int64)
    enc = [str(t).encode() for t in texts]
    b = _LOWER_TAB[np.frombuffer(b"\n".join(enc), dtype=np.uint8)]
    blens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=n)
    doc_starts = np.r_[0, np.cumsum(blens + 1)[:-1]]
    nonws = ~_WS_TAB[b]
    if not nonws.any():
        return np.array([], dtype=np.uint64), np.zeros(n, dtype=np.int64)
    starts_mask = nonws & np.r_[True, ~nonws[:-1]]
    tok_pos = np.flatnonzero(starts_mask)
    tidv = (np.cumsum(starts_mask) - 1)[nonws]
    bb = b[nonws]
    tstarts = np.flatnonzero(np.r_[True, tidv[1:] != tidv[:-1]])
    lens = np.diff(np.r_[tstarts, len(bb)])
    h = _hash_token_bytes(bb, tstarts, lens)
    doc_of = np.searchsorted(doc_starts, tok_pos, side="right") - 1
    counts = np.bincount(doc_of, minlength=n).astype(np.int64)
    return h, counts


# unpackbits column j ↔ uint64 bit position (little-endian bytes, MSB-
# first within each byte); weights make the reconstruction bit-identical
# to the old `(hs >> i) & 1` formulation
_UNPACK_W = np.uint64(1) << np.uint64(
    8 * (np.arange(64) // 8) + 7 - (np.arange(64) % 8))
_SIMHASH_CHUNK_TOKENS = 1_000_000  # 64 MB unpacked bit matrix


def _simhash_from_hashes(hs: np.ndarray, doc_starts: np.ndarray,
                         doc_counts: np.ndarray) -> np.ndarray:
    """Token hashes (flat uint64) + per-doc boundaries → per-doc
    simhash.  Bits come from ``np.unpackbits`` (uint8 — 64 B/token vs
    512 B for an int64 matrix), processed in ~1M-token chunks aligned
    to doc boundaries so batch memory stays bounded regardless of
    batch size; per-doc bit sums via one reduceat per chunk."""
    n = len(doc_counts)
    if len(hs) == 0:
        return np.zeros(n, dtype=np.uint64)
    sums = np.zeros((n, 64), dtype=np.int64)
    hdocs = np.flatnonzero(doc_counts > 0)
    doc_ends = doc_starts + doc_counts
    i = 0
    while i < len(hdocs):
        tok0 = doc_starts[hdocs[i]]
        # widest doc range whose tokens fit the chunk (≥1 doc always)
        j = int(np.searchsorted(doc_ends[hdocs[i:]],
                                tok0 + _SIMHASH_CHUNK_TOKENS, "right")) + i
        j = max(j, i + 1)
        d = hdocs[i:j]
        chunk = np.ascontiguousarray(hs[tok0:doc_ends[d[-1]]])
        bits = np.unpackbits(chunk.view(np.uint8).reshape(-1, 8), axis=1)
        sums[d] = np.add.reduceat(bits, doc_starts[d] - tok0, axis=0,
                                  dtype=np.int64)
        i = j
    acc = 2 * sums - doc_counts[:, None]  # (+1/−1 vote totals)
    return ((acc > 0).astype(np.uint64)
            * _UNPACK_W[None, :]).sum(axis=1, dtype=np.uint64)


def simhash64(tokens: list) -> int:
    """64-bit SimHash over a token list (polynomial byte hash per
    token, same kernel as ``simhash_stage``'s tokenizer — a doc whose
    lowercased whitespace-split tokens equal ``tokens`` gets the same
    simhash from the stage)."""
    if not tokens:
        return 0
    enc = [str(t).encode() for t in tokens]
    bb = np.frombuffer(b"".join(enc), dtype=np.uint8)
    lens = np.array([len(e) for e in enc], dtype=np.int64)
    keep = lens > 0
    if not keep.any():
        return 0
    tstarts = np.r_[0, np.cumsum(lens)[:-1]][keep]
    hs = _hash_token_bytes(bb, tstarts, lens[keep])
    return int(_simhash_from_hashes(
        hs, np.array([0]), np.array([len(hs)]))[0])


def simhash_stage(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Batch-vectorized, string-free: byte-level tokenize + segmented
    polynomial hash over the whole batch (_doc_token_hashes — no
    per-token Python strings), reduceat per doc."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        hs, counts = _doc_token_hashes(list(df[text_col]))
        starts = np.r_[0, np.cumsum(counts)[:-1]]
        return pd.DataFrame(
            {
                id_col: df[id_col].to_numpy(),
                "simhash": _simhash_from_hashes(hs, starts, counts),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(fn, batch_format="pandas")


def ngram_jaccard(a: str, b: str, k: int = 5) -> float:
    """Exact character n-gram Jaccard (verification kernel)."""
    sa, sb = _char_shingles(a, k), _char_shingles(b, k)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def embedding_near_dup(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    n_tables: int = 8,
    n_bits: int = 8,
    seed: int = 7,
    exact: bool = True,
) -> ray.data.Dataset:
    """Embedding-cosine near-duplicate pairs ``(id_a < id_b, sim)``
    with cosine ≥ threshold.

    ``exact=True`` (the oracle-checkable baseline): broadcast the
    corpus in CHUNKS — the driver streams ``iter_batches`` (one chunk
    resident at a time, never the whole table), ``ray.put``s each
    normalized (ids, matrix) chunk, and the scoring pass matmuls every
    batch against each chunk ref (zero-copy reads from the object
    store, which spills as needed).  O(n²/P) compute, no driver-side
    full materialization; correct while the normalized corpus fits the
    cluster-wide object store (10⁶×256-d float32 ≈ 1 GB; beyond that
    use ``exact=False``).

    ``exact=False`` (the 100-TB path): LSH-bucket co-location (random
    hyperplanes, seeded per actor) and exact re-ranking inside each
    bucket — recall < 1 by construction, scored pairs only among
    bucket collisions."""
    import ray as _ray

    if exact:
        import pandas as _pd
        from .ann import _stack

        def _norm_chunk(df: _pd.DataFrame):
            X = _stack(df[emb_col])
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            return df[id_col].to_numpy().copy(), X / norms

        chunk_refs = [
            _ray.put(_norm_chunk(chunk))
            for chunk in ds.select_columns([id_col, emb_col]).iter_batches(
                batch_size=65536, batch_format="pandas")
        ]

        def score(df: _pd.DataFrame) -> _pd.DataFrame:
            B = _stack(df[emb_col])
            bn = np.linalg.norm(B, axis=1, keepdims=True)
            bn[bn == 0] = 1.0
            Bn = B / bn
            bid = df[id_col].to_numpy()
            frames = []
            for cref in chunk_refs:
                all_ids, xn = _ray.get(cref)  # zero-copy local read
                sims = Bn @ xn.T  # (batch, chunk)
                hit_b, hit_a = np.nonzero(sims >= threshold)
                a, b = bid[hit_b], all_ids[hit_a]
                keep = a < b  # each unordered pair once, self excluded
                frames.append(_pd.DataFrame(
                    {"id_a": a[keep].astype(np.int64),
                     "id_b": b[keep].astype(np.int64),
                     "sim": sims[hit_b, hit_a][keep].astype(np.float64)}))
            if not frames:
                return _pd.DataFrame({"id_a": _pd.Series(dtype="int64"),
                                      "id_b": _pd.Series(dtype="int64"),
                                      "sim": _pd.Series(dtype="float64")})
            return _pd.concat(frames, ignore_index=True)

        return ds.select_columns([id_col, emb_col]).map_batches(
            score, batch_format="pandas"
        )

    from .ann import LshSigner

    dim = len(ds.take(1)[0][emb_col])
    sigs = ds.select_columns([id_col, emb_col]).map_batches(
        LshSigner,
        batch_format="pandas",
        fn_constructor_kwargs={
            "dim": dim, "n_tables": n_tables, "n_bits": n_bits, "seed": seed,
            "id_col": id_col, "emb_col": emb_col,
        },
        concurrency=(1, 8),
    )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, grp in df.groupby("bucket", sort=False):
            if len(grp) < 2:
                continue
            g = grp.sort_values(id_col, kind="mergesort")
            from .ann import _stack
            X = _stack(g[emb_col])
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            Xn = X / norms
            sims = Xn @ Xn.T
            ids = g[id_col].to_numpy()
            iu, ju = np.triu_indices(len(ids), k=1)
            hit = sims[iu, ju] >= threshold
            for i, j, s in zip(ids[iu[hit]], ids[ju[hit]], sims[iu[hit], ju[hit]]):
                out.append((int(i), int(j), float(s)))
        if not out:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "sim": pd.Series(dtype="float64")})
        return pd.DataFrame(out, columns=["id_a", "id_b", "sim"]).drop_duplicates(
            ["id_a", "id_b"]
        )

    pairs = group_apply(sigs, bucket_pairs, key="bucket")
    return group_apply(pairs, lambda df: df.drop_duplicates(["id_a", "id_b"]),
                       key="id_a")


_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)
_AB_DTYPE = [("a", "<u8"), ("b", "<u8")]


def _batch_cp_gram_table(texts, k: int):
    """Distinct dual-64-bit code-point ``k``-gram hashes for a batch of
    texts in ONE vectorized pass: returns ``(doc_row_idx int64, grams
    structured (a, b))`` sorted by (doc, gram), one row per DISTINCT
    gram per doc.  A doc shorter than ``k`` code points contributes its
    whole text as its single gram (``substring(text, 1, k)`` semantics —
    matches ``_char_shingles`` and the SQL oracles; the length is folded
    into the hash so short grams never alias full k-windows)."""
    from .components import _B1, _B1_INV, _B2, _B2_INV, _window_poly_hash

    n = len(texts)
    if n == 0:
        return np.zeros(0, np.int64), np.empty(0, dtype=_AB_DTYPE)
    enc = [str(t).encode("utf-32-le") for t in texts]
    lens = np.fromiter((len(e) >> 2 for e in enc), np.int64, count=n)
    cp = np.frombuffer(b"".join(enc), dtype=np.uint32).astype(np.uint64)
    n_g = np.maximum(lens - (k - 1), 1)
    doc_starts = np.r_[0, np.cumsum(lens)[:-1]]
    gram_off = np.r_[0, np.cumsum(n_g)[:-1]]
    starts = (np.repeat(doc_starts, n_g)
              + np.arange(int(n_g.sum())) - np.repeat(gram_off, n_g))
    wl = np.minimum(np.repeat(lens, n_g), k)
    h1 = _window_poly_hash(cp, starts, wl, _B1, _B1_INV)
    h2 = _window_poly_hash(cp, starts, wl, _B2, _B2_INV)
    rows = np.empty(len(h1), dtype=[("d", "<i8"), ("a", "<u8"), ("b", "<u8")])
    rows["d"] = np.repeat(np.arange(n, dtype=np.int64), n_g)
    rows["a"], rows["b"] = h1, h2
    rows = np.unique(rows)
    g = np.empty(len(rows), dtype=_AB_DTYPE)
    g["a"], g["b"] = rows["a"], rows["b"]
    return rows["d"].astype(np.int64), g


def gram_jaccard_topk(
    ds: ray.data.Dataset,
    query_texts: dict,
    k: int = 5,
    topk: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Exact character-``k``-gram Jaccard similarity search, fully
    batch-vectorized: the broadcast query gram sets are sorted dual-hash
    arrays; each batch computes ONE whole-batch gram table
    (``_batch_cp_gram_table``) and per-query membership is a
    ``searchsorted`` + per-doc ``bincount`` — no per-row Python.  Only
    the per-batch top-``topk`` rows per query leave each batch.
    Jaccard = |∩| / |∪| of exact ints (bit-equal to the SQL oracle;
    dual-64-bit gram identity ≈ string identity at ~2⁻¹²⁸)."""
    qids = sorted(query_texts)
    qd, qg = _batch_cp_gram_table([query_texts[q] for q in qids], k)
    qsets = [qg[qd == i] for i in range(len(qids))]
    qsizes = np.array([len(s) for s in qsets], dtype=np.int64)
    ref = ray.put((qids, qsets, qsizes))
    empty = pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                          id_col: pd.Series(dtype="int64"),
                          "jaccard": pd.Series(dtype="float64")})

    def score(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return empty.copy()
        qids_, qsets_, qsizes_ = ray.get(ref)
        d, g = _batch_cp_gram_table(list(df[text_col]), k)
        sizes = np.bincount(d, minlength=len(df))
        ids = df[id_col].to_numpy(np.int64)
        res = []
        for qi, (qid, qs) in enumerate(zip(qids_, qsets_)):
            if not len(qs):
                continue
            pos = np.searchsorted(qs, g)
            hit = pos < len(qs)
            hit[hit] = qs[pos[hit]] == g[hit]
            inter = np.bincount(d[hit], minlength=len(df))
            cand = np.flatnonzero((inter > 0) & (ids != qid))
            if not len(cand):
                continue
            jac = inter[cand] / (sizes[cand] + qsizes_[qi] - inter[cand])
            res.append(pd.DataFrame({"query_id": np.int64(qid),
                                     id_col: ids[cand], "jaccard": jac}))
        if not res:
            return empty.copy()
        r = pd.concat(res, ignore_index=True)
        return (
            r.sort_values(["query_id", "jaccard", id_col],
                          ascending=[True, False, True], kind="mergesort")
            .groupby("query_id", as_index=False)
            .head(topk)
        )

    return ds.map_batches(score, batch_format="pandas")


def _lgram_hash_set(cp: np.ndarray, L: int) -> np.ndarray:
    """Distinct dual-64-bit hashes of every ``L``-code-point window of
    one document, as a structured (u8, u8) array sorted for set ops."""
    from .components import _B1, _B1_INV, _B2, _B2_INV, _window_poly_hash

    if len(cp) < L:
        return np.empty(0, dtype=[("a", "<u8"), ("b", "<u8")])
    starts = np.arange(len(cp) - L + 1, dtype=np.int64)
    wl = np.full(len(starts), L, dtype=np.int64)
    h1 = _window_poly_hash(cp, starts, wl, _B1, _B1_INV)
    h2 = _window_poly_hash(cp, starts, wl, _B2, _B2_INV)
    out = np.empty(len(h1), dtype=[("a", "<u8"), ("b", "<u8")])
    out["a"], out["b"] = h1, h2
    return np.unique(out)


def substring_dup_pairs(
    ds: ray.data.Dataset,
    min_len: int = 50,
    window: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_docs: int = 100_000,
) -> ray.data.Dataset:
    """Substring (suffix-window) dedup: pairs of documents sharing a
    common substring of ≥ ``min_len`` characters, with the count of
    distinct shared ``min_len``-grams — the training-data dedup flavor
    of Lee et al. 2021 ("Deduplicating Training Data Makes Language
    Models Better"), expressed Ray-Data-first instead of via a global
    suffix array.

    Candidates: winnowing (Schleimer et al., SIGMOD 2003) over
    ``k``-gram Rabin-Karp hashes with ``k = min_len − window + 1`` —
    each length-``window`` run of gram hashes contributes its minimum,
    so any shared run of ≥ k + window − 1 = min_len chars shares a
    selected fingerprint (recall 1 by the winnowing guarantee, hash
    ties aside at ~2⁻⁶⁴), at ~2/(window+1) of full gram density.  The
    sliding minima are computed batch-vectorized: docs' gram hashes
    concatenate with ``window−1`` sentinel MAX values between docs,
    forward window-min F then backward window-MAX-of-F B are
    2(window−1) shifted minimum/maximum passes, and position i is
    selected iff ``h[i] == B[i]`` (≡ some covering window's min is
    h[i]; doc-boundary windows are effectively truncated, selecting a
    superset of standard winnowing — recall preserved).

    Verification: candidate pairs get texts attached (broadcast
    semi-join — only candidate texts move) and the exact count of
    distinct shared ``min_len``-gram dual hashes is computed per pair;
    pairs with count ≥ 1 are returned.  Output matches the SQL
    ``min_len``-gram self-join exactly (dual-64-bit hash equality ≡
    string equality at ~2⁻¹²⁸, the repo's content-hash convention).

    ``max_docs`` caps the per-fingerprint bucket fan-out (candidate
    pairs per bucket is O(B²)); buckets above it are DROPPED, which
    sacrifices recall on boilerplate shared by huge doc sets — leave
    at the default for oracle-exact runs on corpora without such
    grams.  Returns ``(id_a < id_b, n_shared)``."""
    from .components import _B1, _B1_INV, _B2, _B2_INV, _window_poly_hash

    k = min_len - window + 1
    w = window

    def fingerprints(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              "h1": pd.Series(dtype="uint64"),
                              "h2": pd.Series(dtype="uint64")})
        texts = [str(t) for t in df[text_col]]
        ids = df[id_col].to_numpy(np.int64)
        enc = [t.encode("utf-32-le") for t in texts]
        lens = np.fromiter((len(e) >> 2 for e in enc), dtype=np.int64,
                           count=len(enc))
        keep = lens >= min_len  # shorter docs have no min_len-gram
        if not keep.any():
            return empty
        enc = [e for e, kp in zip(enc, keep) if kp]
        ids, lens = ids[keep], lens[keep]
        cp = np.frombuffer(b"".join(enc), dtype=np.uint32).astype(np.uint64)
        n_grams = lens - (k - 1)
        doc_starts = np.r_[0, np.cumsum(lens)[:-1]]
        gram_off = np.r_[0, np.cumsum(n_grams)[:-1]]
        starts = (np.repeat(doc_starts, n_grams)
                  + np.arange(n_grams.sum()) - np.repeat(gram_off, n_grams))
        wl = np.full(len(starts), k, dtype=np.int64)
        h1 = _window_poly_hash(cp, starts, wl, _B1, _B1_INV)
        h2 = _window_poly_hash(cp, starts, wl, _B2, _B2_INV)
        # pad with w-1 sentinels between docs so no window-min crosses
        # a doc boundary
        nd = len(lens)
        pad_off = gram_off + (w - 1) * np.arange(nd)
        pad_len = int(n_grams.sum() + (w - 1) * nd)
        pos = (np.repeat(pad_off, n_grams)
               + np.arange(n_grams.sum()) - np.repeat(gram_off, n_grams))
        ph = np.full(pad_len, _U64_MAX, dtype=np.uint64)
        ph[pos] = h1
        F = ph.copy()
        for sh in range(1, w):
            np.minimum(F[:-sh], ph[sh:], out=F[:-sh])
        # i is selected iff SOME window covering i has min == h[i];
        # every covering window's min is ≤ h[i], so that is h[i] ==
        # max over covering windows' mins (backward window-MAX of F)
        B = F.copy()
        for sh in range(1, w):
            np.maximum(B[sh:], F[:-sh], out=B[sh:])
        sel = ph[pos] == B[pos]
        out = pd.DataFrame({
            id_col: np.repeat(ids, n_grams)[sel],
            "h1": h1[sel], "h2": h2[sel],
        })
        return out.drop_duplicates([id_col, "h1", "h2"])

    fps = ds.select_columns([id_col, text_col]).map_batches(
        fingerprints, batch_format="pandas")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                              "b": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        d = df.sort_values(["h1", "h2", id_col], kind="mergesort")
        a1, a2 = d["h1"].to_numpy(), d["h2"].to_numpy()
        ids = d[id_col].to_numpy()
        change = np.r_[True, (a1[1:] != a1[:-1]) | (a2[1:] != a2[:-1])]
        starts = np.flatnonzero(change)
        ends = np.r_[starts[1:], len(d)]
        sizes = ends - starts
        keep = (sizes >= 2) & (sizes <= max_docs)
        A, B = [], []
        for s, e in zip(starts[keep], ends[keep]):
            g = ids[s:e]
            iu, ju = np.triu_indices(e - s, k=1)
            A.append(g[iu])
            B.append(g[ju])
        if not A:
            return empty
        out = pd.DataFrame({"a": np.concatenate(A), "b": np.concatenate(B)})
        out = out[out.a != out.b]  # same doc twice in a bucket: skip
        return out.drop_duplicates(["a", "b"])

    pairs = group_apply(fps, bucket_pairs, key="h1")
    pairs = group_apply(pairs, lambda df: df.drop_duplicates(["a", "b"]),
                        key="a")
    j = attach_pair_texts(pairs, ds, id_col=id_col, text_col=text_col)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "n_shared": pd.Series(dtype="int64")})
        # gram-hash sets are recomputed per distinct doc once per batch
        cache: dict = {}

        def gset(i, t):
            if i not in cache:
                cp = np.frombuffer(
                    str(t).encode("utf-32-le"), dtype=np.uint32
                ).astype(np.uint64)
                cache[i] = _lgram_hash_set(cp, min_len)
            return cache[i]

        ns = np.fromiter(
            (len(np.intersect1d(gset(a_, ta), gset(b_, tb),
                                assume_unique=True))
             for a_, b_, ta, tb in zip(df["a"], df["b"],
                                       df["text_a"], df["text_b"])),
            dtype=np.int64, count=len(df))
        out = pd.DataFrame({"id_a": df["a"].to_numpy(np.int64),
                            "id_b": df["b"].to_numpy(np.int64),
                            "n_shared": ns})
        return out[out.n_shared > 0]

    return j.map_batches(verify, batch_format="pandas")


def content_hash64(texts: list) -> np.ndarray:
    """Whole-document content hash: base-31 polynomial over the raw
    utf-8 bytes mod 2^64, splitmix64-finalized (same arithmetic family
    as the SimHash token hash).  Pure 64-bit integer math, so a SQL
    oracle reproduces it exactly with the HUGEINT mulmod recipe —
    unlike the old blake2b ``stable_hash64`` it replaced here.
    Batch-vectorized: one concatenated byte pass + one reduceat."""
    enc = [t if isinstance(t, bytes) else str(t).encode() for t in texts]
    n = len(enc)
    out = np.full(n, _splitmix64(np.zeros(1, np.uint64))[0], dtype=np.uint64)
    lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=n)
    ne = np.flatnonzero(lens > 0)
    if len(ne) == 0:
        return out
    bb = np.frombuffer(b"".join(enc), dtype=np.uint8)
    tstarts = np.r_[0, np.cumsum(lens)[:-1]][ne]
    out[ne] = _hash_token_bytes(bb, tstarts, lens[ne])
    return out


def fingerprint_stage(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id",
    window: int = 8,
) -> ray.data.Dataset:
    """Document fingerprint: min rolling-hash over ``window``-byte
    windows (winnowing-style) + full content hash (``content_hash64``
    — SQL-mirrorable splitmix64-finalized polynomial).  The rolling
    hash is batch-vectorized: long docs concatenate into one byte
    array, the window hash accumulates in ``window`` shifted-add
    passes, and the per-doc minimum falls out of one
    ``minimum.reduceat`` — no per-doc numpy passes (bit-identical to
    the old per-doc kernel).

    COLLISION GUARANTEE (weaker than cryptographic): the content hash
    is a base-31 polynomial mod 2^64 with a splitmix64 finalizer — a
    bijection of the polynomial, so collisions are exactly the
    polynomial's.  Polynomial collisions are constructible, so an
    adversarial corpus can force two distinct documents onto one
    fingerprint; on natural data the expected collision rate is the
    birthday bound (~n²/2^65).  This trade buys SQL-oracle exactness
    (DuckDB reproduces the hash bit-for-bit).  For dedup where
    adversarial inputs matter, use ``dedup_exact`` (blake2b
    ``stable_hash64``) instead; this stage is the oracle-checked
    fingerprint path."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        texts = [str(t).encode() for t in df[text_col]]
        chs = content_hash64(texts)
        lens = np.fromiter((len(b) for b in texts), dtype=np.int64,
                           count=len(texts))
        fps = chs.copy()  # docs with ≤window bytes: fp = content hash
        long = np.flatnonzero(lens > window)
        if len(long):
            ll = lens[long]
            bu = np.frombuffer(
                b"".join(texts[i] for i in long), dtype=np.uint8
            ).astype(np.uint64)
            pw = np.uint64(31) ** np.arange(window, dtype=np.uint64)
            m = len(bu) - window + 1
            h = np.zeros(m, dtype=np.uint64)
            with np.errstate(over="ignore"):
                for j in range(window):
                    h += bu[j : m + j] * pw[j]
            counts = ll - window + 1
            bstarts = np.r_[0, np.cumsum(counts)[:-1]]
            idx = (np.repeat(np.r_[0, np.cumsum(ll)[:-1]], counts)
                   + np.arange(counts.sum()) - np.repeat(bstarts, counts))
            fps[long] = np.minimum.reduceat(h[idx], bstarts)
        return pd.DataFrame(
            {id_col: df[id_col].to_numpy(), "min_fingerprint": fps, "content_hash": chs}
        )

    return ds.select_columns([id_col, text_col]).map_batches(fn, batch_format="pandas")


def edit1_pairs(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    prefix_len: int = 16,
    max_bucket: int = 10_000,
) -> pd.DataFrame:
    """Edit-distance-≤1 similarity join (SymSpell-style deletion
    neighborhoods): pairs of ids whose ``prefix_len``-char key is
    equal or one edit (insert/delete/substitute) apart.

    Blocking: each key emits itself plus its single-deletion variants
    (L+1 rows); any ED≤1 pair shares ≥1 variant (substitution at i
    shares the delete-at-i variant; indel pairs contain one another's
    variants), so recall is 1.  One variant-keyed exchange co-locates
    candidates; per bucket, pairs are verified with the exact ED≤1
    predicate — same-length pairs by a vectorized byte-matrix mismatch
    count, off-by-one-length pairs by a one-deletion walk over the
    (drift-sized) survivors only.  Buckets above ``max_bucket`` are
    dropped (boilerplate guard, mirroring substring_dup_pairs).
    Returns (id_a < id_b, dist) distinct pairs."""

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        s = df[text_col].astype(str).str.slice(0, prefix_len)
        ids = df[id_col].to_numpy(np.int64)
        frames = [pd.DataFrame({"variant": s.to_numpy(object),
                                id_col: ids, "s": s.to_numpy(object)})]
        # vectorized across docs; the loop is over the ≤ prefix_len
        # deletion positions, not the rows
        for j in range(prefix_len):
            v = (s.str.slice(0, j) + s.str.slice(j + 1)).to_numpy(object)
            frames.append(pd.DataFrame({"variant": v, id_col: ids,
                                        "s": s.to_numpy(object)}))
        return pd.concat(frames, ignore_index=True)

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["variant", id_col])
        sizes = d.groupby("variant")["variant"].transform("size")
        d = d[sizes <= max_bucket]
        m = d.merge(d, on="variant", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        m = m.drop_duplicates([f"{id_col}_a", f"{id_col}_b"])
        return pd.DataFrame({
            "a": m[f"{id_col}_a"].to_numpy(np.int64),
            "b": m[f"{id_col}_b"].to_numpy(np.int64),
            "sa": m["s_a"].to_numpy(object),
            "sb": m["s_b"].to_numpy(object),
        })

    cand = group_apply(ds.map_batches(variants, batch_format="pandas"),
                       bucket_pairs, key="variant").to_pandas()
    if cand.empty:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "dist": pd.Series(dtype="int64")})
    cand = cand.drop_duplicates(["a", "b"]).reset_index(drop=True)

    sa, sb = cand["sa"].to_numpy(object), cand["sb"].to_numpy(object)
    la = np.fromiter((len(x) for x in sa), np.int64, len(sa))
    lb = np.fromiter((len(x) for x in sb), np.int64, len(sb))
    dist = np.full(len(cand), 2, np.int64)  # 2 = "too far"
    # same length: vectorized positional mismatch count over a padded
    # byte matrix (keys are prefixes of bounded length)
    eqlen = la == lb
    if eqlen.any():
        idx = np.flatnonzero(eqlen)
        pad = int(max(la[idx].max(), 1))
        A = np.frombuffer("".join(x.ljust(pad, "\0") for x in sa[idx])
                          .encode("utf-32-le"), np.uint32).reshape(-1, pad)
        B = np.frombuffer("".join(x.ljust(pad, "\0") for x in sb[idx])
                          .encode("utf-32-le"), np.uint32).reshape(-1, pad)
        mm = (A != B).sum(axis=1)
        dist[idx[mm == 0]] = 0
        dist[idx[mm == 1]] = 1
    # off-by-one length: exact one-deletion check on survivors only
    off1 = np.abs(la - lb) == 1
    for i in np.flatnonzero(off1):
        lo, hi = (sa[i], sb[i]) if la[i] < lb[i] else (sb[i], sa[i])
        j = 0
        while j < len(lo) and lo[j] == hi[j]:
            j += 1
        if hi[:j] + hi[j + 1:] == lo:
            dist[i] = 1
    keep = dist <= 1
    out = pd.DataFrame({"id_a": cand["a"].to_numpy(np.int64)[keep],
                        "id_b": cand["b"].to_numpy(np.int64)[keep],
                        "dist": dist[keep]})
    return (out.sort_values(["id_a", "id_b"]).reset_index(drop=True))


def similarity_join(
    ds: ray.data.Dataset,
    threshold: float = 0.7,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """EXACT token-set Jaccard similarity self-join via prefix
    filtering (PPJoin-lite): two docs with Jaccard ≥ t MUST share at
    least one token among each one's ``len − ⌈t·len⌉ + 1`` globally
    RAREST tokens, so only prefix-token collisions become candidates
    — the exact-similarity complement to the probabilistic MinHash
    path (recall 1 by construction, no signatures).

    Shape: (1) token-df build (one token-keyed exchange) → broadcast
    rarity ranking; (2) per-block prefix emit — each doc contributes
    its ≤ prefix tokens, NOT its full set; (3) token-keyed candidate
    exchange with the Jaccard length filter (t·|A| ≤ |B|) applied
    inside each bucket before any pair leaves; (4) exact verify in a
    bucketed co-group: pairs land in bucket ``min(a,b) % P``, member
    texts are routed to exactly the buckets that need them, token
    sets rebuilt per bucket inside ``map_groups`` — no driver pull,
    no broadcast pool.  Returns (id_a < id_b, inter, uni, jac ≥ t)."""
    import math

    from .pack import _TOKEN_RE

    def tok_sets(df: pd.DataFrame) -> pd.Series:
        return (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE).map(lambda t: sorted(set(t))))

    # ---- pass 1: global token rarity (df ASC, token) ----
    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = tok_sets(df).explode().dropna()
        if ex.empty:
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 "df": pd.Series(dtype="int64")})
        vc = ex.value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(object),
                             "df": vc.to_numpy(np.int64)})
    dft = group_apply(
        ds.select_columns([text_col]).map_batches(
            df_partial, batch_format="pandas"),
        lambda df: df.groupby("token", as_index=False,
                              sort=False)["df"].sum(),
        key="token",
    ).to_pandas().sort_values(["df", "token"]).reset_index(drop=True)
    rank = pd.Series(np.arange(len(dft)), index=dft["token"])
    rank_ref = ray.put(rank)

    # ---- pass 2: prefix emit ----
    def prefix_emit(df: pd.DataFrame) -> pd.DataFrame:
        rk = ray.get(rank_ref)
        df = df.reset_index(drop=True)
        s = tok_sets(df)
        ex = s.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 id_col: pd.Series(dtype="int64"),
                                 "dl": pd.Series(dtype="int64")})
        drow = ex.index.to_numpy(np.int64)
        toks = ex.to_numpy(object)
        rkv = rk.reindex(toks).to_numpy(np.int64)
        dl = s.map(len).to_numpy(np.int64)
        # positional rank of each token within its doc's rarity order
        perm = np.lexsort((rkv, drow))
        dr = drow[perm]
        pos = (np.arange(len(dr))
               - np.flatnonzero(np.r_[True, dr[1:] != dr[:-1]])[
                   np.cumsum(np.r_[True, dr[1:] != dr[:-1]]) - 1])
        n_doc = dl[dr]
        p = n_doc - np.ceil(threshold * n_doc.astype(np.float64)
                            ).astype(np.int64) + 1
        keep = pos < p
        # ship the integer rarity rank as the bucket key — token
        # strings never enter the candidate exchange
        return pd.DataFrame({
            "tkid": rkv[perm][keep],
            id_col: df[id_col].to_numpy(np.int64)[dr[keep]],
            "dl": n_doc[keep],
            "pos": pos[keep].astype(np.int64),
        })

    pre = ds.select_columns([id_col, text_col]).map_batches(
        prefix_emit, batch_format="pandas")

    # ---- pass 3: candidate pairs inside token buckets ----
    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"a": pd.Series(dtype="int64"),
                "b": pd.Series(dtype="int64")}
        if not len(df):
            return pd.DataFrame(cols)
        out_a, out_b = [], []
        for _, g in df.groupby("tkid", sort=False):
            if len(g) < 2:
                continue
            ids = g[id_col].to_numpy(np.int64)
            dl = g["dl"].to_numpy(np.int64)
            ps = g["pos"].to_numpy(np.int64)
            # sort by length: the Jaccard length filter
            # (t·max ≤ min) confines each row's partners to a
            # contiguous dl window [dl_i, dl_i/t] ahead of it — the
            # enumeration is Σ window sizes, not m²/2
            o = np.lexsort((ids, dl))
            ids, dl, ps = ids[o], dl[o], ps[o]
            hi = np.searchsorted(
                dl, dl.astype(np.float64) / threshold, side="right")
            cnt = hi - np.arange(1, len(dl) + 1)
            cnt[cnt < 0] = 0
            if not cnt.any():
                continue
            ii = np.repeat(np.arange(len(dl)), cnt)
            jj = (np.arange(len(ii))
                  - np.repeat(np.cumsum(cnt) - cnt, cnt)
                  + ii + 1)
            # positional filter (PPJoin): via this token at rarity
            # positions (pi, pj), at most 1 + min(la-pi-1, lb-pj-1)
            # tokens can still overlap; J ≥ t needs
            # inter ≥ ceil(t/(1+t)·(la+lb))
            la, lb = dl[ii], dl[jj]
            ub = 1 + np.minimum(la - ps[ii] - 1, lb - ps[jj] - 1)
            alpha = np.ceil((threshold / (1.0 + threshold))
                            * (la + lb).astype(np.float64))
            okp = ub.astype(np.float64) >= alpha
            if not okp.any():
                continue
            a, b = ids[ii][okp], ids[jj][okp]
            out_a.append(np.minimum(a, b))
            out_b.append(np.maximum(a, b))
        if not out_a:
            return pd.DataFrame(cols)
        return (pd.DataFrame({"a": np.concatenate(out_a),
                              "b": np.concatenate(out_b)})
                .drop_duplicates())

    cand = group_apply(pre, bucket_pairs, key="tkid")
    # global pair dedup (the same pair surfaces under several prefix
    # tokens): identical (a, b) rows hash to one partition under key=a
    cand = group_apply(cand, lambda df: df.drop_duplicates(["a", "b"]),
                       key="a").materialize()

    empty_out = pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                              "id_b": pd.Series(dtype="int64"),
                              "inter": pd.Series(dtype="int64"),
                              "uni": pd.Series(dtype="int64"),
                              "jac": pd.Series(dtype="float64")})
    if cand.count() == 0:
        return empty_out

    # ---- pass 4: exact verify, bucketed co-group — NO driver pull
    # of pairs, NO broadcast set pool: pairs land in bucket
    # ``min(a,b) % P``; each member doc's TEXT is routed to every
    # bucket holding one of its pairs (exchange bounded by the
    # candidate set); token sets are rebuilt once per doc per bucket
    # inside ``map_groups``.  A bucket holds about 1/P of the
    # candidate docs' texts, so at P = 1 one task holds all of them ----
    P = partition_count()

    def demand_rows(df: pd.DataFrame) -> pd.DataFrame:
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        pb = a % P
        out = (pd.DataFrame({"k": np.concatenate([a, b]),
                             "pb": np.concatenate([pb, pb])})
               .drop_duplicates())
        return pd.DataFrame({
            "k": out["k"].to_numpy(np.int64),
            "pb": out["pb"].to_numpy(np.int64),
            text_col: np.full(len(out), "", dtype=object),
            "_is_doc": np.zeros(len(out), dtype=bool)})

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "k": df[id_col].to_numpy(np.int64),
            "pb": np.full(n, -1, np.int64),
            text_col: df[text_col].to_numpy(object),
            "_is_doc": np.ones(n, dtype=bool)})

    u1 = (ds.select_columns([id_col, text_col])
          .map_batches(doc_rows, batch_format="pandas")
          .union(cand.map_batches(demand_rows, batch_format="pandas")))

    def route_texts(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["_is_doc"]]
        dm = df.loc[~df["_is_doc"], ["k", "pb"]].drop_duplicates()
        m = dm.merge(d[["k", text_col]].drop_duplicates("k"),
                     on="k", how="inner")
        return pd.DataFrame({
            "pb": m["pb"].to_numpy(np.int64),
            "a": np.full(len(m), -1, np.int64),
            "b": np.full(len(m), -1, np.int64),
            "k": m["k"].to_numpy(np.int64),
            text_col: m[text_col].to_numpy(object),
            "_is_doc": np.ones(len(m), dtype=bool)})

    texts = group_apply(u1, route_texts, key="k")

    def pair_bucket_rows(df: pd.DataFrame) -> pd.DataFrame:
        a = df["a"].to_numpy(np.int64)
        b = df["b"].to_numpy(np.int64)
        n = len(df)
        return pd.DataFrame({
            "pb": a % P,
            "a": a,
            "b": b,
            "k": np.full(n, -1, np.int64),
            text_col: np.full(n, "", dtype=object),
            "_is_doc": np.zeros(n, dtype=bool)})

    u2 = texts.union(cand.map_batches(pair_bucket_rows,
                                      batch_format="pandas"))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["_is_doc"]].drop_duplicates("k")
        p = df[~df["_is_doc"]]
        if not len(p) or not len(d):
            return empty_out.copy()
        sm = {int(i): frozenset(t)
              for i, t in zip(d["k"], tok_sets(d))}
        A = p["a"].to_numpy(np.int64)
        B = p["b"].to_numpy(np.int64)
        n = len(p)
        inter = np.fromiter(
            (len(sm[int(x)] & sm[int(y)]) for x, y in zip(A, B)),
            np.int64, n)
        la = np.fromiter((len(sm[int(x)]) for x in A), np.int64, n)
        lb = np.fromiter((len(sm[int(y)]) for y in B), np.int64, n)
        uni = la + lb - inter
        jac = inter.astype(np.float64) / uni.astype(np.float64)
        ok = jac >= threshold
        return pd.DataFrame({"id_a": A[ok], "id_b": B[ok],
                             "inter": inter[ok], "uni": uni[ok],
                             "jac": jac[ok]})

    out = group_apply(u2, verify, key="pb").to_pandas()
    return (out.sort_values(["id_a", "id_b"])
            .reset_index(drop=True))
