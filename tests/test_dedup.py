"""Deduplication / text-analysis stage tests (training-data ops)."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from cesium_ray.stages.dedup import (
    exact_dedup,
    fingerprint_stage,
    minhash_lsh_dedup,
    ngram_jaccard,
    simhash64,
    simhash_stage,
)


@pytest.fixture(scope="module")
def docs_ds():
    base = "the quick brown fox jumps over the lazy dog " * 5
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base},  # exact dup of 1
        {"doc_id": 3, "text": base.replace("lazy", "sleepy")},  # near-dup of 1
        {"doc_id": 4, "text": "completely different content about ray data engines " * 5},
        {"doc_id": 5, "text": "another unrelated document talking about parquet files " * 5},
    ]
    return ray.data.from_items(rows)


def test_exact_dedup(docs_ds):
    out = exact_dedup(docs_ds).to_pandas()
    assert len(out) == 4  # 5 docs, one exact dup collapsed
    kept = set(out.doc_id)
    assert 1 in kept and 2 not in kept


def test_minhash_lsh_finds_near_dup(docs_ds):
    pairs = minhash_lsh_dedup(docs_ds, jaccard_threshold=0.5).to_pandas()
    got = {(r.doc_id, r.dup_of) for r in pairs.itertuples()}
    assert (2, 1) in got  # exact dup found
    assert (3, 1) in got  # near dup found
    assert not any(d in (4, 5) for d, _ in got)  # unrelated docs untouched


def test_ngram_jaccard():
    assert ngram_jaccard("abcdef", "abcdef") == 1.0
    assert ngram_jaccard("abcdef", "uvwxyz") == 0.0
    assert 0 < ngram_jaccard("abcdefgh", "abcdefxy") < 1


def test_simhash_properties():
    a = simhash64("the quick brown fox".split())
    b = simhash64("the quick brown fox".split())
    c = simhash64("totally different words here".split())
    assert a == b
    ham_ac = bin(a ^ c).count("1")
    assert ham_ac > 0


def test_simhash_stage_near_dup_closer(docs_ds):
    out = simhash_stage(docs_ds).to_pandas().set_index("doc_id")["simhash"]
    d_near = bin(int(out[1]) ^ int(out[3])).count("1")
    d_far = bin(int(out[1]) ^ int(out[4])).count("1")
    assert d_near < d_far


def test_fingerprint_stage(docs_ds):
    out = fingerprint_stage(docs_ds).to_pandas().set_index("doc_id")
    assert out.loc[1, "content_hash"] == out.loc[2, "content_hash"]
    assert out.loc[1, "content_hash"] != out.loc[4, "content_hash"]
    assert out.loc[1, "min_fingerprint"] == out.loc[2, "min_fingerprint"]


def test_dedup_on_testdata_documents():
    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["doc_id", "text"])
    n = ds.count()
    out = exact_dedup(ds).to_pandas()
    assert len(out) <= n
    # parity with a pandas groupby
    pdf = ds.to_pandas()
    want = pdf.sort_values("doc_id").groupby("text", as_index=False).first()
    assert len(out) == len(want)


def test_synthetic_corpus_planted_dups():
    """generate_documents plants exact+near dups that the dedup
    stages recover; deterministic in seed."""
    import pyarrow as pa

    from cesium_ray.synth import generate_documents

    t1 = generate_documents(400, seed=11)
    t2 = generate_documents(400, seed=11)
    assert t1.equals(t2)
    ds = ray.data.from_arrow(t1)
    kept = exact_dedup(ds).to_pandas()
    assert len(kept) == 400 - 20  # 5% exact dups collapsed
    pairs = minhash_lsh_dedup(ds, jaccard_threshold=0.7).to_pandas()
    # all 20 exact-dup docs and most one-token near-dups found
    assert len(pairs) >= 35
    assert (pairs.est_jaccard >= 0.7).all()


def test_tokenizer_kernels_edge_cases():
    """Batch-vectorized byte kernels: empty batch, empty/whitespace
    docs, docs shorter than the window, unicode bytes — counts line up
    and doc order is preserved."""
    from cesium_ray.stages.dedup import _doc_token_hashes, _window_hashes

    h, c = _doc_token_hashes([])
    assert len(h) == 0 and len(c) == 0
    h, c = _doc_token_hashes(["", "  \t\n", "One two  THREE", "ü ✓"])
    assert c.tolist() == [0, 0, 3, 2] and len(h) == 5
    # case-folding: the tokenizer lowercases ASCII before hashing
    h1, _ = _doc_token_hashes(["ONE TWO"])
    h2, _ = _doc_token_hashes(["one two"])
    assert np.array_equal(h1, h2)

    h, c = _window_hashes([], 5)
    assert len(h) == 0 and len(c) == 0
    h, c = _window_hashes(["", "abc", "abcde", "abcdef"], 5)
    # short docs zero-pad to one window; len>=k docs give len-k+1
    assert c.tolist() == [1, 1, 1, 2] and len(h) == 5
    # same text, same windows, regardless of batch neighbors
    a, _ = _window_hashes(["hello world"], 5)
    b, cb = _window_hashes(["xxxx", "hello world", "yy"], 5)
    assert np.array_equal(a, b[cb[0]:cb[0] + cb[1]])


def test_oph_minhash_estimates_jaccard():
    """One-permutation-hashing signatures: lane-collision rate tracks
    true shingle Jaccard within estimator noise."""
    from cesium_ray.stages.dedup import MinHasher, ngram_jaccard

    rng = np.random.default_rng(5)
    words = ["tok%d" % i for i in range(300)]
    base = " ".join(rng.choice(words, 120))
    docs = [base]
    for frac in (0.05, 0.2, 0.5):
        toks = base.split()
        n_swap = int(len(toks) * frac)
        idx = rng.choice(len(toks), n_swap, replace=False)
        for i in idx:
            toks[i] = "sub%d" % rng.integers(10_000)
        docs.append(" ".join(toks))
    mh = MinHasher(num_perm=128, k=5, seed=7)
    sigs = mh._sigs(docs)
    for i in range(1, len(docs)):
        est = float((sigs[0] == sigs[i]).mean())
        true = ngram_jaccard(docs[0], docs[i], k=5)
        assert abs(est - true) < 0.12, (i, est, true)


def test_simhash_stage_matches_simhash64():
    """The batch stage and the scalar helper share one kernel: a doc's
    stage simhash equals simhash64 of its lowercased token list."""
    from cesium_ray.stages.dedup import simhash64, simhash_stage

    texts = ["The quick brown Fox", "", "one", "a b  c\td"]
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(len(texts)), "text": texts}))
    got = simhash_stage(ds).to_pandas().sort_values("doc_id")
    for t, sh in zip(texts, got["simhash"]):
        assert int(sh) == simhash64(t.lower().split())


def _brute_substring_pairs(texts, ids, L=50):
    def gset(t):
        return {t[i:i + L] for i in range(len(t) - L + 1)} if len(t) >= L else set()

    sets = {i: gset(t) for i, t in zip(ids, texts)}
    out = {}
    for i in ids:
        for j in ids:
            if i < j:
                n = len(sets[i] & sets[j])
                if n:
                    out[(i, j)] = n
    return out


def test_substring_dup_pairs_matches_bruteforce(ray_session):
    """Planted ≥50-char shared runs are found with exact shared-gram
    counts; unrelated and short docs yield nothing."""
    from cesium_ray.stages.dedup import substring_dup_pairs

    rng = np.random.default_rng(3)
    alpha = list("abcdefghij ")

    def rand_text(n):
        return "".join(rng.choice(alpha, n))

    shared80 = rand_text(80)
    shared50 = rand_text(50)  # exactly the guarantee length
    texts = [
        rand_text(200) + shared80 + rand_text(100),
        rand_text(150) + shared80,
        shared50 + rand_text(300),
        rand_text(120) + shared50,
        rand_text(400),
        "short doc",
    ]
    ids = list(range(len(texts)))
    want = _brute_substring_pairs(texts, ids)
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.array(ids, dtype=np.int64),
                      "text": texts}))
    got = substring_dup_pairs(ds, min_len=50, window=8).to_pandas()
    got_map = {(int(r.id_a), int(r.id_b)): int(r.n_shared)
               for r in got.itertuples()}
    assert got_map == want
    assert (0, 1) in got_map and (2, 3) in got_map


def test_substring_winnow_guarantee_many_seeds(ray_session):
    """Recall for a shared run of exactly min_len chars across many
    random placements (the winnowing guarantee's boundary case)."""
    from cesium_ray.stages.dedup import substring_dup_pairs

    rng = np.random.default_rng(11)
    alpha = list("abcdefghijklmnop")
    rows = []
    for s in range(20):
        shared = "".join(rng.choice(alpha, 50))
        pre_a = "".join(rng.choice(alpha, int(rng.integers(0, 200))))
        post_a = "".join(rng.choice(alpha, int(rng.integers(0, 200))))
        pre_b = "".join(rng.choice(alpha, int(rng.integers(0, 200))))
        rows.append((2 * s, pre_a + shared + post_a))
        rows.append((2 * s + 1, pre_b + shared))
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.array([r[0] for r in rows], dtype=np.int64),
         "text": [r[1] for r in rows]}))
    got = substring_dup_pairs(ds, min_len=50, window=8).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(got.id_a, got.id_b)}
    for s in range(20):
        assert (2 * s, 2 * s + 1) in found, f"planted pair {s} missed"


def test_gram_jaccard_topk_matches_bruteforce(ray_session):
    """Vectorized gram_jaccard_topk == per-row Python-set brute force,
    including the short-doc whole-text-gram edge and self-exclusion."""
    from cesium_ray.stages.dedup import _char_shingles, gram_jaccard_topk

    rng = np.random.default_rng(7)
    alpha = list("abcdef ")
    texts = ["".join(rng.choice(alpha, int(rng.integers(3, 120))))
             for _ in range(40)]
    texts[5] = texts[0][:60] + "xyz"  # planted overlap
    texts[9] = "ab"                   # shorter than k
    ids = list(range(100, 140))
    queries = {ids[i]: texts[i] for i in range(3)}

    want = []
    for qid, qt in queries.items():
        sq = _char_shingles(qt, 5)
        for i, t in zip(ids, texts):
            if i == qid:
                continue
            s = _char_shingles(t, 5)
            inter = len(s & sq)
            if inter:
                want.append((qid, i, inter / (len(s) + len(sq) - inter)))
    wdf = (pd.DataFrame(want, columns=["query_id", "doc_id", "jaccard"])
           .sort_values(["query_id", "jaccard", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
           .groupby("query_id", as_index=False).head(3)
           .sort_values(["query_id", "doc_id"]).reset_index(drop=True))

    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.array(ids, dtype=np.int64), "text": texts}))
    got = (gram_jaccard_topk(ds, queries, k=5, topk=3).to_pandas()
           .sort_values(["query_id", "doc_id"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, wdf, check_dtype=False)


def test_decontaminate_planted(ray_session):
    """Benchmark decontamination: a doc containing a copied 8-word run
    from a benchmark doc is flagged with the exact distinct-gram count;
    a 7-word overlap is NOT flagged; n_hits matches brute force."""
    import ray.data

    from cesium_ray.stages.decontam import _gram_strings, decontaminate

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(200)]
    mk = lambda k: " ".join(rng.choice(vocab, size=k))
    bench = [mk(40), mk(35)]
    b_words = bench[0].split()
    docs = [
        mk(30),                                       # clean
        mk(10) + " " + " ".join(b_words[5:13]) + " " + mk(10),   # 8-word copy
        mk(10) + " " + " ".join(b_words[20:27]) + " " + mk(10),  # only 7 words
        bench[1],                                     # verbatim benchmark member
    ]
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(4, dtype=np.int64), "text": docs}))
    out = (decontaminate(ds, bench, n=8).to_pandas()
           .set_index("doc_id").sort_index())

    bgrams = set()
    for t in bench:
        bgrams |= _gram_strings(t, 8)
    for i, t in enumerate(docs):
        want = len(_gram_strings(t, 8) & bgrams)
        assert out.loc[i, "n_hits"] == want, (i, want)
        assert bool(out.loc[i, "contaminated"]) == (want > 0)
    assert not bool(out.loc[0, "contaminated"])
    assert bool(out.loc[1, "contaminated"]) and out.loc[1, "n_hits"] == 1
    assert not bool(out.loc[2, "contaminated"])
    assert bool(out.loc[3, "contaminated"])


def test_vocab_topk_exact(ray_session):
    """Exact global top-k with deterministic tie-break vs brute force."""
    import collections

    import ray.data

    from cesium_ray.stages.pack import vocab_topk

    rng = np.random.default_rng(3)
    vocab = [f"t{i:03d}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(5, 30)))
             for _ in range(60)]
    ds = ray.data.from_pandas(pd.DataFrame({"text": texts}))
    got = vocab_topk(ds, k=10)

    cnt = collections.Counter(w for t in texts for w in t.lower().split())
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["token"], got["cnt"])) == want


def test_pack_sequences_greedy(ray_session):
    """Greedy first-fit parity with a reference walk; oversize doc owns
    a bin; bins reset per group."""
    import ray.data

    from cesium_ray.stages.pack import pack_sequences

    rows = [
        ("s1", 0, 40), ("s1", 1, 50), ("s1", 2, 20),  # bins 0,0,1 (C=100: 40+50=90, +20>100)
        ("s1", 3, 150),                                # oversize -> bin 2
        ("s1", 4, 10),                                 # 150+10>100 -> bin 3
        ("s2", 10, 60), ("s2", 11, 60),                # bins 0,1
    ]
    df = pd.DataFrame({
        "source": [r[0] for r in rows],
        "doc_id": np.array([r[1] for r in rows], dtype=np.int64),
        "text": [" ".join(["w"] * r[2]) for r in rows],
    })
    out = (pack_sequences(ray.data.from_pandas(df), capacity=100).to_pandas()
           .sort_values(["source", "doc_id"]).reset_index(drop=True))
    assert out["token_count"].tolist() == [40, 50, 20, 150, 10, 60, 60]
    assert out["bin"].tolist() == [0, 0, 1, 2, 3, 0, 1]


def test_similarity_join_prefix_filter_complete(ray_session):
    """Prefix-filtered exact Jaccard join must equal the O(n^2)
    brute-force truth (recall 1) on a diverse vocabulary."""
    import itertools

    from cesium_ray.stages.dedup import similarity_join

    rng = np.random.default_rng(1601)
    vocab = [f"w{i}" for i in range(120)]
    docs = []
    for i in range(80):
        base = rng.choice(vocab, rng.integers(5, 25), replace=False)
        docs.append(" ".join(base))
        if i % 4 == 0:  # planted near-dup: drop one token
            docs.append(" ".join(base[:-1]))
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    t = 0.6
    got = similarity_join(ray.data.from_pandas(df).repartition(5), threshold=t)
    sets = {r.doc_id: frozenset(r.text.lower().split())
            for r in df.itertuples()}
    want = []
    for a, b in itertools.combinations(sorted(sets), 2):
        inter = len(sets[a] & sets[b])
        uni = len(sets[a] | sets[b])
        if uni and inter / uni >= t:
            want.append((a, b, inter, uni))
    assert len(got) == len(want), (len(got), len(want))
    wdf = pd.DataFrame(want, columns=["id_a", "id_b", "inter", "uni"])
    for c in wdf.columns:
        assert (got[c].to_numpy() == wdf[c].to_numpy()).all(), c
    assert (got["jac"] >= t).all()
    assert len(got) >= 20  # the planted near-dups are found
