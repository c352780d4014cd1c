"""Unit tests for the batch-4 operators: broadcast anti-join
(stages/joins.py), per-key lifecycle profile (stages/analytics.py),
grouped value histogram (stages/sketch.py), and vocabulary
tokenization (stages/pack.py) — each vs brute-force pandas truth."""

import numpy as np
import pandas as pd
import ray.data


def _events(seed=3, n=4000, nusers=40):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, nusers, n),
        "event_type": rng.choice(["a", "b", "c"], n),
        "value": np.where(rng.random(n) < 0.05, np.nan,
                          rng.random(n) * 250.0 - 10.0),
        "ts": pd.to_datetime(
            rng.integers(0, 5 * 86400, n) * 10**6, unit="us"
        ).astype("datetime64[us]"),
    })


def test_broadcast_anti_join_exact(ray_session):
    from cesium_ray.stages.joins import broadcast_anti_join

    ev = _events()
    drop = np.array([1, 5, 7, 7, 22, 39], np.int64)  # dup key in set
    got = (broadcast_anti_join(
        ray.data.from_pandas(ev).repartition(5), drop)
        .to_pandas().sort_values("event_id").reset_index(drop=True))
    want = (ev[~ev["user_id"].isin(drop)]
            .sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)

    # empty key set keeps everything
    got_all = broadcast_anti_join(
        ray.data.from_pandas(ev), np.array([], np.int64)).count()
    assert got_all == len(ev)


def test_group_profile_bruteforce(ray_session):
    from cesium_ray.stages.analytics import group_profile

    ev = _events(seed=9)
    got = (group_profile(ray.data.from_pandas(ev).repartition(6))
           .to_pandas().sort_values("user_id").reset_index(drop=True))
    s = ev.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    g = s.groupby("user_id")
    span = ((g["ts"].last().to_numpy("datetime64[us]").view(np.int64)
             - g["ts"].first().to_numpy("datetime64[us]").view(np.int64))
            // 1_000_000)
    want = pd.DataFrame({
        "user_id": g.size().index.to_numpy(),
        "n": g.size().to_numpy(np.int64),
        "first_ts": g["ts"].first().to_numpy(),
        "last_ts": g["ts"].last().to_numpy(),
        "first_event_type": g["event_type"].first().to_numpy(),
        "last_event_type": g["event_type"].last().to_numpy(),
        "span_s": span.astype(np.int64),
    })
    pd.testing.assert_frame_equal(got, want)


def test_grouped_histogram_exact(ray_session):
    from cesium_ray.stages.sketch import grouped_histogram

    ev = _events(seed=17)
    got = grouped_histogram(
        ray.data.from_pandas(ev).repartition(7),
        lo=0.0, hi=200.0, n_bins=40)
    v = ev["value"].to_numpy()
    ok = ~np.isnan(v)
    b = np.clip(np.floor(v[ok] / 5.0).astype(np.int64), 0, 39)
    want = (pd.DataFrame({"event_type": ev["event_type"].to_numpy()[ok],
                          "bin": b})
            .groupby(["event_type", "bin"], as_index=False).size()
            .rename(columns={"size": "n"}))
    want["lo_edge"] = want["bin"] * 5.0
    want = (want[["event_type", "bin", "lo_edge", "n"]]
            .sort_values(["event_type", "bin"]).reset_index(drop=True))
    assert got.shape == want.shape
    for c in want.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    # clamped bins: every out-of-range value landed in an edge bin
    assert int(got["n"].sum()) == int(ok.sum())


def test_tokenize_with_vocab_parity(ray_session):
    from cesium_ray.stages.pack import tokenize_with_vocab

    rng = np.random.default_rng(5)
    words = ["the", "cat", "sat", "on", "a", "mat", "rare%d" % 0]
    docs = pd.DataFrame({
        "doc_id": np.arange(50, dtype=np.int64),
        "text": [" ".join(rng.choice(words, rng.integers(1, 12)))
                 for _ in range(50)],
    })
    # doc with double space → empty token survives (string_split parity)
    docs.loc[0, "text"] = "the  cat"
    got = (tokenize_with_vocab(ray.data.from_pandas(docs), vocab_size=4)
           .to_pandas().sort_values(["doc_id", "pos"])
           .reset_index(drop=True))
    tok = docs.assign(token=docs["text"].str.split(" ")).explode("token")
    tok["pos"] = tok.groupby("doc_id").cumcount() + 1
    cnt = tok["token"].value_counts()
    vocab = (pd.DataFrame({"token": cnt.index, "c": cnt.to_numpy()})
             .sort_values(["c", "token"], ascending=[False, True],
                          kind="mergesort").head(4))
    t2i = {t: i + 1 for i, t in enumerate(vocab["token"])}
    want = tok[["doc_id", "pos", "token"]].reset_index(drop=True)
    want["token_id"] = want["token"].map(t2i).astype("Int64")
    assert len(got) == len(want)
    assert (got["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    assert (got["token"].to_numpy() == want["token"].to_numpy()).all()
    gi, wi = got["token_id"], want["token_id"]
    assert (gi.isna().to_numpy() == wi.isna().to_numpy()).all()
    m = ~wi.isna().to_numpy()
    assert (gi.to_numpy()[m] == wi.to_numpy()[m]).all()
    # empty token from the double space is present at doc 0 pos 2
    assert got.loc[(got.doc_id == 0) & (got.pos == 2), "token"].iloc[0] == ""


def test_tfidf_top_terms_bruteforce(ray_session):
    import math

    from cesium_ray.stages.pack import tfidf_top_terms

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "apple banana apple cherry",
            "banana banana cherry",
            "apple cherry cherry date",
            "date egg egg egg",
            "",                      # empty doc: no rows emitted
            "apple",
        ],
    })
    got = tfidf_top_terms(ray.data.from_pandas(docs).repartition(3), top=2)
    # brute force
    toks = {i: t.lower().split() for i, t in zip(docs.doc_id, docs.text)}
    nd = len(docs)
    dfc = {}
    for ts in toks.values():
        for t in set(ts):
            dfc[t] = dfc.get(t, 0) + 1
    rows = []
    for i, ts in toks.items():
        if not ts:
            continue
        tfc = {}
        for t in ts:
            tfc[t] = tfc.get(t, 0) + 1
        ranked = sorted(tfc, key=lambda t: (-tfc[t], dfc[t], t))[:2]
        for rn, t in enumerate(ranked, 1):
            rows.append((i, t, tfc[t], dfc[t], rn,
                         tfc[t] * math.log(nd / dfc[t])))
    want = pd.DataFrame(rows, columns=["doc_id", "term", "tf", "df",
                                       "rn", "tfidf"])
    assert got.shape == want.shape
    for c in ["doc_id", "term", "tf", "df", "rn"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    assert np.allclose(got["tfidf"], want["tfidf"])
    # the empty doc contributed nothing
    assert 4 not in set(got["doc_id"])


def test_type_entropy_bruteforce(ray_session):
    import math

    from cesium_ray.stages.analytics import type_entropy

    ev = pd.DataFrame({
        "user_id": np.array([1, 1, 1, 1, 2, 2, 3], dtype=np.int64),
        "event_type": ["a", "a", "b", "c", "x", "x", "z"],
    })
    got = type_entropy(ray.data.from_pandas(ev).repartition(3))
    # user 1: counts 2,1,1 over n=4 → H = ln4 − (2ln2)/4
    h1 = math.log(4) - (2 * math.log(2)) / 4
    want = pd.DataFrame({
        "user_id": np.array([1, 2, 3], dtype=np.int64),
        "n": np.array([4, 2, 1], dtype=np.int64),
        "n_types": np.array([3, 1, 1], dtype=np.int64),
        "entropy": [h1, 0.0, 0.0],
    })
    assert got.shape == want.shape
    for c in ["user_id", "n", "n_types"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    assert np.allclose(got["entropy"], want["entropy"])
    # entropy bounded by ln(n_types)
    assert (got["entropy"].to_numpy()
            <= np.log(got["n_types"].to_numpy()) + 1e-12).all()


def test_bigram_lm_score_bruteforce(ray_session):
    import math

    from cesium_ray.stages.pack import bigram_lm_score

    docs = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "text": ["the cat sat", "the cat ran", "dog", ""],
    })
    got = bigram_lm_score(ray.data.from_pandas(docs).repartition(2))
    # corpus: unigrams the:2 cat:2 sat:1 ran:1 dog:1 → V=5
    # bigrams: (the,cat):2 (cat,sat):1 (cat,ran):1
    V = 5
    cu = {"the": 2, "cat": 2}
    cb = {("the", "cat"): 2, ("cat", "sat"): 1, ("cat", "ran"): 1}

    def xent(pairs):
        ts = [math.log((cb[p] + 1) / (cu[p[0]] + V)) for p in pairs]
        return -sum(ts) / len(ts)

    want = pd.DataFrame({
        "doc_id": np.array([0, 1], dtype=np.int64),
        "n_bigrams": np.array([2, 2], dtype=np.int64),
        "xent": [xent([("the", "cat"), ("cat", "sat")]),
                 xent([("the", "cat"), ("cat", "ran")])],
    })
    # docs 2 (single token) and 3 (empty) drop out
    assert got.shape == want.shape
    assert (got["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    assert (got["n_bigrams"].to_numpy() == want["n_bigrams"].to_numpy()).all()
    assert np.allclose(got["xent"], want["xent"])


def test_inverted_index_bruteforce(ray_session):
    """Index rows (df, tf, capped postings) must match a pandas
    recompute over the same tokenizer; partition count must not
    matter."""
    import re

    from cesium_ray.stages.pack import _TOKEN_RE, build_inverted_index

    rng = np.random.default_rng(53)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    docs = pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": [" ".join(rng.choice(words, rng.integers(1, 12)))
                 for _ in range(40)],
    })
    got = build_inverted_index(
        ray.data.from_pandas(docs).repartition(5),
        max_postings=3)
    rows = []
    for _, r in docs.iterrows():
        for t in re.findall(_TOKEN_RE, r["text"].lower()):
            rows.append((t, r["doc_id"]))
    flat = pd.DataFrame(rows, columns=["token", "doc_id"])
    cell = flat.groupby(["token", "doc_id"], as_index=False).size()
    for tok, g in cell.groupby("token"):
        row = got[got["token"] == tok]
        assert len(row) == 1
        assert int(row["df"].iloc[0]) == len(g)
        assert int(row["tf"].iloc[0]) == int(g["size"].sum())
        want = ",".join(map(str, sorted(g["doc_id"])[:3]))
        assert row["postings"].iloc[0] == want, tok
    assert len(got) == cell["token"].nunique()


def test_bm25_bruteforce(ray_session):
    """BM25 top-k must match a pandas recompute with the same
    tokenizer, query-term selection, and scoring constants."""
    import math
    import re

    from cesium_ray.stages.pack import _TOKEN_RE, bm25_topk

    rng = np.random.default_rng(67)
    words = ["red", "blue", "green", "cat", "dog", "fish", "sun"]
    docs = pd.DataFrame({
        "doc_id": np.arange(60, dtype=np.int64),
        "text": [" ".join(rng.choice(words, rng.integers(2, 15)))
                 for _ in range(60)],
    })
    top = 10
    got = bm25_topk(ray.data.from_pandas(docs).repartition(5),
                    n_terms=3, top=top)
    toks = {r["doc_id"]: re.findall(_TOKEN_RE, r["text"].lower())
            for _, r in docs.iterrows()}
    df = {}
    for ts in toks.values():
        for t in set(ts):
            df[t] = df.get(t, 0) + 1
    terms = sorted(df, key=lambda t: (-df[t], t))[:3]
    N = len(docs)
    avgdl = sum(len(v) for v in toks.values()) / N
    rows = []
    for d, ts in toks.items():
        dl = len(ts)
        s = 0.0
        tfv = []
        for t in terms:
            tf = ts.count(t)
            tfv.append(tf)
            idf = math.log(((N - df[t]) + 0.5) / (df[t] + 0.5) + 1.0)
            s += idf * ((tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * (dl / avgdl))))
        rows.append((d, dl, *tfv, s))
    want = (pd.DataFrame(rows, columns=["doc_id", "dl", "tf1", "tf2",
                                        "tf3", "score"])
            .sort_values(["score", "doc_id"], ascending=[False, True])
            .head(top).reset_index(drop=True))
    assert (got["doc_id"].to_numpy() == want["doc_id"].to_numpy()).all()
    for c in ["dl", "tf1", "tf2", "tf3"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    assert np.allclose(got["score"], want["score"], rtol=1e-12)


def test_textrank_keywords_properties(ray_session):
    """TextRank: a hub token adjacent to many distinct frequent
    tokens outranks an equally-frequent token with one neighbor;
    ranks sum to ~1 over the full vocab run."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cesium_ray.stages.pack import textrank_keywords

    docs = []
    # 'hub' co-occurs with 12 distinct tokens; 'loner' repeats with
    # only one neighbor at the same total frequency
    for i in range(12):
        docs.append(f"hub tok{i}")
        docs.append("loner mate")
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(len(docs), dtype=np.int64),
         "text": docs})).repartition(3)
    out = textrank_keywords(ds, top_vocab=50, iters=10, k=50)
    r = out.set_index("token")["textrank"]
    assert r["hub"] > r["loner"]
    assert abs(out["textrank"].sum() - 1.0) < 1e-3  # rank mass ~ 1


def test_lexical_diversity_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray
    import re
    from cesium_ray.stages.pack import lexical_diversity

    docs = pd.DataFrame({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": ["the cat sat on the mat",
                 "a a a a",
                 "unique words only here",
                 "",
                 "Mixed CASE mixed case"]})
    got = (lexical_diversity(ray.data.from_pandas(docs))
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == [0, 1, 2, 4]  # empty doc dropped
    for _, row in got.iterrows():
        toks = re.findall(r"[^ \t\n\r\f\v]+",
                          docs.loc[docs["doc_id"] == row["doc_id"],
                                   "text"].iloc[0].lower())
        n = len(toks)
        cnt = pd.Series(toks).value_counts()
        assert int(row["n_tokens"]) == n
        assert int(row["n_types"]) == len(cnt)
        assert abs(row["ttr"] - len(cnt) / n) < 1e-12
        assert abs(row["hapax_ratio"] - (cnt == 1).sum() / n) < 1e-12
        h = np.log(n) - sum(c * np.log(c) for c in cnt) / n
        assert abs(row["token_entropy"] - h) < 1e-12
    # "a a a a": one type, entropy 0, ttr 0.25
    r1 = got[got["doc_id"] == 1].iloc[0]
    assert r1["token_entropy"] == 0.0 and r1["ttr"] == 0.25
    # mixed case folds: 2 types of 4 tokens
    r4 = got[got["doc_id"] == 4].iloc[0]
    assert int(r4["n_types"]) == 2 and r4["hapax_ratio"] == 0.0


def test_pmi_collocations_bruteforce(ray_session):
    import numpy as np
    import pandas as pd
    import ray
    from cesium_ray.stages.pack import pmi_collocations

    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(20)]
    rows = []
    for d in range(200):
        toks = list(rng.choice(vocab, rng.integers(5, 30)))
        if d % 3 == 0:
            toks += ["new", "york"] * 3      # planted collocation
        rows.append(" ".join(toks))
    docs = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64),
                         "text": rows})
    got = pmi_collocations(ray.data.from_pandas(docs).repartition(4),
                           min_count=5)
    # brute force
    from collections import Counter
    un, bg = Counter(), Counter()
    for t in rows:
        toks = t.lower().split()
        un.update(toks)
        bg.update(zip(toks[:-1], toks[1:]))
    nn = sum(un.values())
    want = {k: np.log((c * nn) / (un[k[0]] * un[k[1]]))
            for k, c in bg.items() if c >= 5}
    assert len(got) == len(want)
    for _, r in got.iterrows():
        k = (r["w1"], r["w2"])
        assert k in want
        assert int(r["c_xy"]) == bg[k]
        assert int(r["c_x"]) == un[k[0]] and int(r["c_y"]) == un[k[1]]
        assert abs(r["pmi"] - want[k]) < 1e-9
    # the planted "new york" bigram must be among the highest PMIs
    ny = got[(got["w1"] == "new") & (got["w2"] == "york")]
    assert len(ny) == 1 and ny["pmi"].iloc[0] > got["pmi"].median()


def test_burrows_delta_bruteforce(ray_session):
    import re
    from cesium_ray.stages.pack import burrows_delta, FUNCTION_WORDS

    rng = np.random.default_rng(33)
    filler = ["alpha", "beta", "gamma", "delta", "report", "data"]
    texts = []
    for _ in range(30):
        n = int(rng.integers(20, 60))
        pool = list(FUNCTION_WORDS) + filler
        texts.append(" ".join(rng.choice(pool, n)))
    # planted stylometric outlier: never uses any function word
    texts.append(" ".join(rng.choice(filler, 40)))
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                         "text": texts})
    got = burrows_delta(ray.data.from_pandas(docs).repartition(5))
    assert got["doc_id"].tolist() == list(range(len(texts)))

    # brute-force replication (same per-mille int rates, same order)
    rates = np.zeros((len(texts), len(FUNCTION_WORDS)), np.int64)
    ntok = np.zeros(len(texts), np.int64)
    for d, txt in enumerate(texts):
        toks = re.findall(r"[^ \t\n\r\f\v]+", txt.lower())
        ntok[d] = len(toks)
        for j, w in enumerate(FUNCTION_WORDS):
            rates[d, j] = toks.count(w) * 1000 // len(toks)
    mu = rates.mean(axis=0)
    sig = rates.std(axis=0)
    z = np.where(sig > 0, np.abs(rates - mu) / np.where(sig > 0, sig, 1.0),
                 0.0)
    want = z.mean(axis=1)
    assert np.allclose(got["delta"].to_numpy(), want, atol=1e-9)
    assert (got["n_tokens"].to_numpy() == ntok).all()
    # the planted no-function-word doc is the most atypical
    assert got["delta"].idxmax() == len(texts) - 1


def test_keyness_terms_bruteforce(ray_session):
    import re
    from cesium_ray.stages.pack import keyness_terms

    rng = np.random.default_rng(51)
    filler = ["one", "two", "three", "four", "five", "six"]
    texts = [" ".join(rng.choice(filler, int(rng.integers(20, 40))))
             for _ in range(20)]
    # planted key term: doc 0 is saturated with a corpus-rare token
    texts[0] = texts[0] + " " + " ".join(["zebra"] * 12)
    docs = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                         "text": texts})
    got = keyness_terms(ray.data.from_pandas(docs).repartition(4))
    z = got[(got["doc_id"] == 0) & (got["term"] == "zebra")]
    assert len(z) == 1 and int(z["tf"].iloc[0]) == 12

    # brute-force replication of every reported (doc, term, g2)
    tok = {d: re.findall(r"[^ \t\n\r\f\v]+", t.lower())
           for d, t in enumerate(texts)}
    nn = sum(len(v) for v in tok.values())
    corpus = {}
    for v in tok.values():
        for w in v:
            corpus[w] = corpus.get(w, 0) + 1
    seen = set()
    for d, v in tok.items():
        n1 = len(v)
        for w in set(v):
            a = v.count(w)
            c = corpus[w]
            b, n2 = c - a, nn - n1
            if not a * nn > c * n1:
                continue
            e1 = n1 * c / nn
            e2 = n2 * c / nn
            g2 = 2 * (a * np.log(a / e1)
                      + (b * np.log(b / e2) if b > 0 else 0.0))
            if g2 > 3.84:
                seen.add((d, w))
                row = got[(got["doc_id"] == d) & (got["term"] == w)]
                assert len(row) == 1, (d, w)
                assert abs(row["g2"].iloc[0] - g2) < 1e-9
    assert seen == set(zip(got["doc_id"], got["term"]))


def test_df_histogram_bruteforce(ray_session):
    import re
    from cesium_ray.stages.pack import df_histogram

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["apple banana cherry",
                 "apple banana",
                 "apple date",
                 "egg egg egg",       # in-doc repeats count once
                 "Apple",             # case-folds into apple
                 ""]})
    got = df_histogram(ray.data.from_pandas(docs).repartition(4))
    # dfs: apple 4, banana 2, cherry 1, date 1, egg 1
    want = {1: 3, 2: 1, 4: 1}
    assert dict(zip(got["df"], got["n_terms"])) == want
    assert abs(got["share"].sum() - 1.0) < 1e-12
    # cross-check on a random corpus against a pandas recomputation
    rng = np.random.default_rng(91)
    vocab = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(vocab, int(rng.integers(5, 30))))
             for _ in range(40)]
    docs2 = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64),
                          "text": texts})
    got2 = df_histogram(ray.data.from_pandas(docs2).repartition(5))
    df_count = {}
    for t in texts:
        for w in set(re.findall(r"[^ \t\n\r\f\v]+", t.lower())):
            df_count[w] = df_count.get(w, 0) + 1
    want2 = pd.Series(list(df_count.values())).value_counts()
    assert dict(zip(got2["df"], got2["n_terms"])) \
        == {int(k): int(v) for k, v in want2.items()}


def test_basket_lift_bruteforce(ray_session):
    from cesium_ray.stages.analytics import basket_lift

    ev = _events(seed=91, n=3000, nusers=30)
    ev["event_type"] = np.random.default_rng(92).choice(list("abcde"), len(ev))
    got = basket_lift(ray.data.from_pandas(ev).repartition(6))
    d = ev[["user_id", "event_type"]].drop_duplicates()
    N = d["user_id"].nunique()
    singles = d.groupby("event_type").size()
    m = d.merge(d, on="user_id")
    p = m[m["event_type_x"] < m["event_type_y"]]
    pc = p.groupby(["event_type_x", "event_type_y"]).size()
    assert len(got) == len(pc)
    for (a, b), nboth in pc.items():
        row = got[(got["type_a"] == a) & (got["type_b"] == b)]
        assert len(row) == 1
        na, nb = singles[a], singles[b]
        assert row["n_a"].iloc[0] == na
        assert row["n_b"].iloc[0] == nb
        assert row["n_both"].iloc[0] == nboth
        assert abs(row["support"].iloc[0] - nboth / N) < 1e-12
        assert abs(row["lift"].iloc[0]
                   - nboth * N / (na * nb)) < 1e-12
    # planted association: users take x and y together or neither
    rng = np.random.default_rng(7)
    rows = []
    for u in range(100):
        if u % 2 == 0:
            rows += [(u, "x"), (u, "y")]
        else:
            rows += [(u, "z")]
    pl = pd.DataFrame(rows, columns=["user_id", "event_type"])
    out = basket_lift(ray.data.from_pandas(pl))
    xy = out[(out["type_a"] == "x") & (out["type_b"] == "y")]
    assert abs(xy["lift"].iloc[0] - 2.0) < 1e-12  # 100*50/(50*50)
    assert not ((out["type_a"] == "x")
                & (out["type_b"] == "z")).any()


def test_heaps_law_bruteforce_and_growth(ray_session):
    from cesium_ray.stages.pack import heaps_law

    rng = np.random.default_rng(41)
    # Zipf-ish corpus: doc d draws 20-60 tokens from a power-law vocab
    vocab = np.array([f"w{i}" for i in range(800)])
    pw = 1.0 / np.arange(1, 801) ** 1.1
    pw /= pw.sum()
    docs = pd.DataFrame({
        "doc_id": np.arange(64, dtype=np.int64),
        "text": [" ".join(rng.choice(vocab, rng.integers(20, 61),
                                     p=pw)) for _ in range(64)]})
    got = heaps_law(ray.data.from_pandas(docs).repartition(5))
    assert len(got) == 1
    # brute force
    toks = [d.lower().split() for d in docs["text"]]
    m = np.array([len(t) for t in toks])
    cum = np.cumsum(m)
    nd = len(docs)
    ranks = np.arange(1, 17) * nd // 16
    seen, first = set(), {}
    for d, tt in zip(docs["doc_id"], toks):
        for t in tt:
            if t not in first:
                first[t] = d
    fvals = np.array(sorted(first.values()))
    ckdocs = docs["doc_id"].to_numpy()[ranks - 1]
    v = np.array([(fvals <= cd).sum() for cd in ckdocs])
    assert got["n_docs"].iloc[0] == nd
    assert got["tokens_total"].iloc[0] == m.sum()
    assert got["vocab_total"].iloc[0] == len(first)
    xs, ys = np.log(cum[ranks - 1].astype(float)), np.log(
        v.astype(float))
    sx, sy = xs.sum(), ys.sum()
    sxx, sxy = (xs * xs).sum(), (xs * ys).sum()
    beta = (16 * sxy - sx * sy) / (16 * sxx - sx * sx)
    assert abs(got["beta"].iloc[0] - beta) < 1e-9
    assert 0.2 < beta < 0.95          # sublinear growth for Zipf text
    k = np.exp((sy - beta * sx) / 16)
    assert abs(got["k_coef"].iloc[0] - k) < 1e-6 * k


def test_pareto_concentration_bruteforce(ray_session):
    from cesium_ray.stages.analytics import pareto_concentration

    ev = _events(seed=97, n=5000, nusers=60)
    got = pareto_concentration(ray.data.from_pandas(ev).repartition(6))
    cnt = ev.groupby("user_id").size().reset_index(name="c")
    cnt = cnt.sort_values(["c", "user_id"],
                          ascending=[False, True])
    cs = cnt["c"].cumsum().to_numpy()
    n, total = len(cnt), int(cnt["c"].sum())
    assert len(got) == 5
    for _, row in got.iterrows():
        k = max(1, int(row["pct"]) * n // 100)
        assert row["n_top_keys"] == k
        assert row["top_events"] == cs[k - 1]
        assert abs(row["share"] - cs[k - 1] / total) < 1e-12
    # monotone: larger pct => larger share, and top-50% >> 50% under skew
    sh = got.sort_values("pct")["share"].to_numpy()
    assert (np.diff(sh) >= 0).all()
    # planted extreme skew: one user makes 90% of events
    pl = pd.DataFrame({"user_id": np.r_[np.zeros(900, np.int64),
                                        np.arange(1, 101)]})
    out = pareto_concentration(ray.data.from_pandas(pl))
    assert out[out["pct"] == 1]["share"].iloc[0] == 0.9


def test_vocab_richness_bruteforce(ray_session):
    from cesium_ray.stages.pack import vocab_richness

    rng = np.random.default_rng(51)
    vocab = np.array([f"w{i}" for i in range(300)])
    pw = 1.0 / np.arange(1, 301) ** 1.2
    pw /= pw.sum()
    docs = pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": [" ".join(rng.choice(vocab, 50, p=pw))
                 for _ in range(40)]})
    got = vocab_richness(ray.data.from_pandas(docs).repartition(5))
    allt = " ".join(docs["text"]).lower().split()
    vc = pd.Series(allt).value_counts()
    m = vc.to_numpy()
    n, v = int(m.sum()), len(m)
    assert got["n_tokens"].iloc[0] == n
    assert got["vocab"].iloc[0] == v
    assert got["v1"].iloc[0] == int((m == 1).sum())
    assert got["v2"].iloc[0] == int((m == 2).sum())
    assert abs(got["yule_k"].iloc[0]
               - 1e4 * ((m * m).sum() - n) / (n * n)) < 1e-9
    assert abs(got["simpson_d"].iloc[0]
               - (m * (m - 1)).sum() / (n * (n - 1.0))) < 1e-12
    # a repeated-single-token corpus maximizes concentration
    mono = pd.DataFrame({"doc_id": [0, 1], "text": ["x x x x x", "x x x"]})
    out = vocab_richness(ray.data.from_pandas(mono))
    assert out["vocab"].iloc[0] == 1
    assert abs(out["simpson_d"].iloc[0] - 1.0) < 1e-12


def test_rank_compare_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import rank_compare
    ev = _events(seed=131, n=3000, nusers=30)
    got = rank_compare(ray.data.from_pandas(ev).repartition(6))
    kq = np.rint(ev["value"].to_numpy() * 100)
    ev2 = ev.assign(k=kq)
    ev2 = ev2.dropna(subset=["k"])
    types = sorted(ev2["event_type"].unique())
    import itertools
    for ta, tb in itertools.combinations(types, 2):
        xa = ev2.loc[ev2["event_type"] == ta, "k"].to_numpy()
        xb = ev2.loc[ev2["event_type"] == tb, "k"].to_numpy()
        gt = int((xa[:, None] > xb[None, :]).sum())
        lt = int((xa[:, None] < xb[None, :]).sum())
        eq = int((xa[:, None] == xb[None, :]).sum())
        row = got[(got["type_a"] == ta) & (got["type_b"] == tb)]
        assert len(row) == 1
        assert row["gt_pairs"].iloc[0] == gt
        assert row["lt_pairs"].iloc[0] == lt
        assert row["eq_pairs"].iloc[0] == eq
        assert row["u_twice"].iloc[0] == 2 * gt + eq
        assert abs(row["cliffs_delta"].iloc[0]
                   - (gt - lt) / (len(xa) * len(xb))) < 1e-12
    # planted location shift: type Y stochastically dominates X
    rng = np.random.default_rng(5)
    n = 800
    pl = pd.DataFrame({
        "event_type": np.r_[np.full(n, "X"), np.full(n, "Y")],
        "value": np.r_[np.round(rng.normal(10, 2, n), 2),
                       np.round(rng.normal(14, 2, n), 2)]})
    out = rank_compare(ray.data.from_pandas(pl))
    r = out.iloc[0]
    assert r["type_a"] == "X" and r["type_b"] == "Y"
    assert r["cliffs_delta"] < -0.5      # X mostly below Y
    assert r["z_score"] < -10.0


def test_kruskal_wallis_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import kruskal_wallis

    ev = _events(seed=137, n=2500, nusers=25)
    got = kruskal_wallis(ray.data.from_pandas(ev).repartition(6))
    d = ev.dropna(subset=["value"]).copy()
    d["k"] = np.rint(d["value"] * 100).astype(np.int64)
    d["rank"] = d["k"].rank(method="average")
    n = len(d)
    s2 = 0.0
    for t, g in d.groupby("event_type"):
        row = got[got["event_type"] == t]
        assert len(row) == 1
        assert row["n_i"].iloc[0] == len(g)
        r2 = int(round(2 * g["rank"].sum()))
        assert row["r_twice"].iloc[0] == r2
        s2 += (g["rank"].sum()) ** 2 / len(g)
    h = 12.0 / (n * (n + 1)) * s2 - 3 * (n + 1)
    tk = d.groupby("k").size().to_numpy()
    hc = h / (1 - ((tk ** 3 - tk).sum()) / (n ** 3 - n))
    assert abs(got["h_stat"].iloc[0] - h) < 1e-6
    assert abs(got["h_tie"].iloc[0] - hc) < 1e-6
    # planted: one group shifted far above the rest -> huge H
    rng = np.random.default_rng(9)
    pl = pd.DataFrame({
        "event_type": np.r_[np.full(400, "lo1"), np.full(400, "lo2"),
                            np.full(400, "hi")],
        "value": np.r_[np.round(rng.normal(5, 1, 800), 2),
                       np.round(rng.normal(50, 1, 400), 2)]})
    out = kruskal_wallis(ray.data.from_pandas(pl))
    assert out["h_tie"].iloc[0] > 500.0


def test_activity_corr_pairs_bruteforce_and_sync(ray_session):
    from cesium_ray.stages.analytics import activity_corr_pairs

    ev = _events(seed=141, n=4000, nusers=30)
    got = activity_corr_pairs(ray.data.from_pandas(ev).repartition(6), top_n=8)
    cnt = ev.groupby("user_id").size().reset_index(name="c")
    cnt = cnt.sort_values(["c", "user_id"], ascending=[False, True])
    chosen = sorted(cnt.head(8)["user_id"].tolist())
    sub = ev[ev["user_id"].isin(chosen)].copy()
    sub["hb"] = sub["ts"].astype("datetime64[us]").astype(
        np.int64) // 3_600_000_000
    lo, hi = sub["hb"].min(), sub["hb"].max()
    H = int(hi - lo + 1)
    vecs = {}
    for uid in chosen:
        v = np.zeros(H, np.int64)
        for hb, c in sub[sub["user_id"] == uid].groupby(
                "hb").size().items():
            v[hb - lo] = c
        vecs[uid] = v
    import itertools
    npairs = 0
    for ua, ub in itertools.combinations(chosen, 2):
        x, y = vecs[ua], vecs[ub]
        row = got[(got["user_a"] == ua) & (got["user_b"] == ub)]
        num = H * int((x * y).sum()) - int(x.sum()) * int(y.sum())
        da = H * int((x * x).sum()) - int(x.sum()) ** 2
        db = H * int((y * y).sum()) - int(y.sum()) ** 2
        if da <= 0 or db <= 0:
            assert len(row) == 0
            continue
        npairs += 1
        assert len(row) == 1
        assert row["n_hours"].iloc[0] == H
        assert row["sxy"].iloc[0] == int((x * y).sum())
        assert abs(row["r"].iloc[0] - num / np.sqrt(da * db)) < 1e-9
    assert len(got) == npairs
    # planted sync: two users with identical hourly pattern -> r ~ 1
    hours = np.repeat(np.arange(50), np.tile([5, 1], 25))
    rows = []
    for uid in (101, 102):
        rows.append(pd.DataFrame({
            "user_id": np.full(len(hours), uid, dtype=np.int64),
            "ts": pd.to_datetime(hours * 3_600_000_000, unit="us"
                                 ).astype("datetime64[us]")}))
    pl = pd.concat(rows, ignore_index=True)
    out = activity_corr_pairs(ray.data.from_pandas(pl), top_n=2)
    assert abs(out["r"].iloc[0] - 1.0) < 1e-12


def test_anova_f_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import anova_f

    ev = _events(seed=151, n=2500, nusers=25)
    got = anova_f(ray.data.from_pandas(ev).repartition(6))
    d = ev.dropna(subset=["value"]).copy()
    d["k"] = np.rint(d["value"] * 100).astype(np.int64)
    groups = {t: g["k"].to_numpy(np.float64)
              for t, g in d.groupby("event_type")}
    N = len(d)
    kg = len(groups)
    tsum = sum(x.sum() ** 2 / len(x) for x in groups.values())
    S = d["k"].sum()
    Q = (d["k"] ** 2).sum()
    ssb = tsum - S * S / N
    ssw = Q - tsum
    f = (ssb / (kg - 1)) / (ssw / (N - kg))
    for t, x in groups.items():
        row = got[got["event_type"] == t]
        assert len(row) == 1
        assert row["n_i"].iloc[0] == len(x)
        assert row["s_i"].iloc[0] == int(x.sum())
        assert row["q_i"].iloc[0] == int((x * x).sum())
        assert abs(row["f_stat"].iloc[0] - f) < 1e-6 * max(abs(f), 1)
        assert abs(row["eta_sq"].iloc[0]
                   - ssb / (Q - S * S / N)) < 1e-9
    # planted mean shift in one group -> F explodes
    rng = np.random.default_rng(13)
    pl = pd.DataFrame({
        "event_type": np.r_[np.full(500, "a"), np.full(500, "b"),
                            np.full(500, "c")],
        "value": np.r_[np.round(rng.normal(10, 2, 1000), 2),
                       np.round(rng.normal(30, 2, 500), 2)]})
    out = anova_f(ray.data.from_pandas(pl))
    assert out["f_stat"].iloc[0] > 1000.0
    assert out["eta_sq"].iloc[0] > 0.7


def test_returned_revenue_smoke(ray_session):
    from cesium_ray.pipelines.extra_queries import q_returned_revenue

    out = q_returned_revenue("/root/testdata/sf0.001")
    assert len(out) == 20
    # descending by exact units, revenue = units/1e4
    u = out["rev_units"].to_numpy()
    assert (np.diff(u) <= 0).all()
    assert np.allclose(out["revenue"], u / 1e4)
    assert out["c_name"].notna().all()


def test_cramers_v_bruteforce_and_extremes(ray_session):
    from cesium_ray.stages.analytics import cramers_v

    rng = np.random.default_rng(61)
    n = 2000
    docs = pd.DataFrame({
        "lang": rng.choice(["en", "de", "fr"], n),
        "source": rng.choice([f"s{i}" for i in range(6)], n)})
    got = cramers_v(ray.data.from_pandas(docs).repartition(5),
                    col_a="lang", col_b="source")
    piv = docs.groupby(["lang", "source"]).size().unstack(
        fill_value=0)
    o = piv.to_numpy(float)
    e = o.sum(1)[:, None] * o.sum(0)[None, :] / o.sum()
    chi2 = ((o - e) ** 2 / e).sum()
    assert got["n_rows"].iloc[0] == n
    assert got["dof"].iloc[0] == (3 - 1) * (6 - 1)
    assert abs(got["chi2"].iloc[0] - chi2) < 1e-8
    v = np.sqrt(chi2 / (n * 2))
    assert abs(got["cramers_v"].iloc[0] - v) < 1e-9
    # perfect association: each lang maps to exactly one source
    det = pd.DataFrame({"lang": np.repeat(["en", "de", "fr"], 100)})
    det["source"] = det["lang"].map({"en": "a", "de": "b",
                                     "fr": "c"})
    out = cramers_v(ray.data.from_pandas(det), col_a="lang",
                    col_b="source")
    assert abs(out["cramers_v"].iloc[0] - 1.0) < 1e-12


def test_levene_bf_bruteforce_and_spread(ray_session):
    from cesium_ray.stages.analytics import levene_bf

    ev = _events(seed=163, n=2500, nusers=25)
    got = levene_bf(ray.data.from_pandas(ev).repartition(6))
    d = ev.dropna(subset=["value"]).copy()
    d["k"] = np.rint(d["value"] * 100).astype(np.int64)
    devs = {}
    for t, g in d.groupby("event_type"):
        ks = np.sort(g["k"].to_numpy(np.int64))
        n = len(ks)
        m2 = int(ks[(n - 1) // 2]) + int(ks[n // 2])
        dev = np.abs(2 * ks - m2)
        devs[t] = dev
        row = got[got["event_type"] == t]
        assert len(row) == 1
        assert row["med2"].iloc[0] == m2
        assert row["n_i"].iloc[0] == n
        assert row["s_i"].iloc[0] == int(dev.sum())
        assert row["q_i"].iloc[0] == int((dev * dev).sum())
    N = sum(len(v) for v in devs.values())
    kg = len(devs)
    tsum = sum(v.sum() ** 2 / len(v) for v in devs.values())
    S = sum(v.sum() for v in devs.values())
    Q = sum((v.astype(np.float64) ** 2).sum() for v in devs.values())
    ssb = tsum - S * S / N
    ssw = Q - tsum
    w = (ssb / (kg - 1)) / (ssw / (N - kg))
    assert abs(got["w_stat"].iloc[0] - w) < 1e-6 * max(abs(w), 1)
    # planted heteroscedasticity: one wide group -> W explodes
    rng = np.random.default_rng(17)
    pl = pd.DataFrame({
        "event_type": np.r_[np.full(600, "tight"),
                            np.full(600, "wide")],
        "value": np.r_[np.round(rng.normal(0, 1, 600), 2),
                       np.round(rng.normal(0, 20, 600), 2)]})
    out = levene_bf(ray.data.from_pandas(pl))
    assert out["w_stat"].iloc[0] > 300.0


def test_wilcoxon_shift_bruteforce_and_drift(ray_session):
    from cesium_ray.stages.analytics import wilcoxon_shift

    ev = _events(seed=171, n=3000, nusers=40)
    got = wilcoxon_shift(ray.data.from_pandas(ev).repartition(6))
    tus = ev["ts"].astype("datetime64[us]").astype(np.int64)
    mid = (tus.min() + tus.max()) // 2
    c = ev.assign(second=tus > mid).groupby("user_id")["second"] \
        .agg(c2="sum", n="size")
    d = (c["c2"] - (c["n"] - c["c2"])).to_numpy(np.int64)
    d = d[d != 0]
    m = len(d)
    ad = np.abs(d).astype(np.float64)
    rk = pd.Series(ad).rank(method="average").to_numpy()
    w2p = int(round(2 * rk[d > 0].sum()))
    assert got["m"].iloc[0] == m
    assert got["n_pos"].iloc[0] == int((d > 0).sum())
    assert got["w2_pos"].iloc[0] == w2p
    vals, cnts = np.unique(np.abs(d), return_counts=True)
    st = int((cnts.astype(np.int64) ** 3 - cnts).sum())
    sigma2 = m * (m + 1) * (2 * m + 1) / 24.0 - st / 48.0
    z = (w2p - m * (m + 1) / 2.0) / (2 * np.sqrt(sigma2))
    assert abs(got["z_score"].iloc[0] - z) < 1e-9
    # planted drift: everyone doubles activity in the second half
    rng = np.random.default_rng(19)
    rows = []
    for uid in range(50):
        t1 = rng.integers(0, 43200, 5)
        t2 = rng.integers(43201, 86400, 15)
        ts = np.r_[t1, t2] * 10**6
        rows.append(pd.DataFrame({
            "user_id": np.full(len(ts), uid, dtype=np.int64),
            "ts": pd.to_datetime(ts, unit="us"
                                 ).astype("datetime64[us]")}))
    pl = pd.concat(rows, ignore_index=True)
    # anchor the exact window bounds
    out = wilcoxon_shift(ray.data.from_pandas(pl))
    assert out["n_pos"].iloc[0] > out["n_neg"].iloc[0]
    assert out["z_score"].iloc[0] > 4.0


def test_nation_trade_conservation(ray_session):
    from cesium_ray.pipelines.extra_queries import q_nation_trade
    import duckdb

    sf = "/root/testdata/sf0.001"
    out = q_nation_trade(sf)
    # total across the flow matrix == total revenue units of lineitem
    con = duckdb.connect()
    total = con.sql(
        f"""SELECT CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
            * (100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT)
            FROM read_parquet('{sf}/lineitem.parquet')"""
    ).fetchone()[0]
    assert int(out["rev_units"].sum()) == int(total)
    assert out["supp_nation"].notna().all()
    assert (out.groupby(["supp_nation", "cust_nation", "ship_year"])
            .size() == 1).all()


def test_centroid_cosine_bruteforce_and_geometry(ray_session):
    from cesium_ray.stages.ann import centroid_cosine

    rng = np.random.default_rng(71)
    n, dim = 600, 16
    labels = rng.integers(0, 4, n)
    base = rng.normal(0, 1, (4, dim)) * 5
    vecs = base[labels] + rng.normal(0, 0.5, (n, dim))
    emb = pd.DataFrame({
        "label": labels.astype(np.int32),
        "embedding": [v.astype(np.float32) for v in vecs]})
    got = centroid_cosine(ray.data.from_pandas(emb).repartition(5))
    assert len(got) == 6
    import itertools
    for la, lb in itertools.combinations(range(4), 2):
        ca = vecs[labels == la].astype(np.float64)
        ca = np.stack([v.astype(np.float32) for v in ca]).astype(
            np.float64)
        cb = np.stack([v.astype(np.float32)
                       for v in vecs[labels == lb]]).astype(
            np.float64)
        ma, mb = ca.mean(0), cb.mean(0)
        cos = ma @ mb / (np.linalg.norm(ma) * np.linalg.norm(mb))
        dist = np.linalg.norm(ma - mb)
        row = got[(got["label_a"] == la) & (got["label_b"] == lb)]
        assert len(row) == 1
        assert row["n_a"].iloc[0] == (labels == la).sum()
        assert abs(row["cosine"].iloc[0] - cos) < 1e-9
        assert abs(row["dist"].iloc[0] - dist) < 1e-9
    # identical-direction plant: two labels on the same ray -> cos 1
    m = 100
    pl = pd.DataFrame({
        "label": np.r_[np.zeros(m, np.int32), np.ones(m, np.int32)],
        "embedding": [np.full(8, 1.0, np.float32)] * m
        + [np.full(8, 3.0, np.float32)] * m})
    out = centroid_cosine(ray.data.from_pandas(pl))
    assert abs(out["cosine"].iloc[0] - 1.0) < 1e-12


def test_trigram_entropy_bruteforce_and_determinism(ray_session):
    from cesium_ray.stages.analytics import trigram_entropy

    ev = _events(seed=181, n=2500, nusers=20)
    got = trigram_entropy(ray.data.from_pandas(ev).repartition(6))
    s = ev.sort_values(["user_id", "ts", "event_id"],
                       kind="mergesort")
    tri = {}
    for uid, g in s.groupby("user_id"):
        t = g["event_type"].tolist()
        for i in range(len(t) - 2):
            tri[(t[i], t[i + 1], t[i + 2])] = tri.get(
                (t[i], t[i + 1], t[i + 2]), 0) + 1
    N = sum(tri.values())
    ctx = {}
    for (a, b, c), v in tri.items():
        ctx[(a, b)] = ctx.get((a, b), 0) + v
    h2 = sum(v / N * np.log(ctx[(a, b)] / v)
             for (a, b, c), v in tri.items())
    assert got["n_trigrams"].iloc[0] == N
    assert got["n_cells"].iloc[0] == len(tri)
    assert got["n_contexts"].iloc[0] == len(ctx)
    assert abs(got["h2"].iloc[0] - h2) < 1e-9
    # deterministic order-2 process (c = f(a,b)) has H2 = 0 even
    # though the order-1 mix looks balanced
    seq = []
    state = ("a", "b")
    nxt = {("a", "b"): "c", ("b", "c"): "a", ("c", "a"): "b"}
    for _ in range(600):
        seq.append(state[0])
        state = (state[1], nxt[state])
    det = pd.DataFrame({
        "event_id": np.arange(len(seq), dtype=np.int64),
        "user_id": np.full(len(seq), 1, dtype=np.int64),
        "event_type": seq,
        "ts": pd.to_datetime(np.arange(len(seq)) * 10**6, unit="us"
                             ).astype("datetime64[us]")})
    out = trigram_entropy(ray.data.from_pandas(det))
    assert out["h2"].iloc[0] < 1e-12
    assert abs(out["perplexity"].iloc[0] - 1.0) < 1e-9


def test_median_test_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import median_test

    ev = _events(seed=191, n=2500, nusers=25)
    got = median_test(ray.data.from_pandas(ev).repartition(6))
    d = ev.dropna(subset=["value"]).copy()
    d["k"] = np.rint(d["value"] * 100).astype(np.int64)
    ks = np.sort(d["k"].to_numpy())
    n = len(ks)
    m2 = int(ks[(n - 1) // 2]) + int(ks[n // 2])
    above = d["k"] * 2 > m2
    tab = pd.crosstab(d["event_type"], above)
    for t in tab.index:
        row = got[got["event_type"] == t]
        assert len(row) == 1
        assert row["med2"].iloc[0] == m2
        assert row["n_above"].iloc[0] == tab.loc[t].get(True, 0)
        assert row["n_below"].iloc[0] == tab.loc[t].get(False, 0)
    o = tab.reindex(columns=[True, False]).fillna(0).to_numpy(float)
    e = o.sum(1)[:, None] * o.sum(0)[None, :] / o.sum()
    chi2 = ((o - e) ** 2 / e).sum()
    assert abs(got["chi2"].iloc[0] - chi2) < 1e-8
    # planted: one group entirely above the grand median
    rng = np.random.default_rng(29)
    pl = pd.DataFrame({
        "event_type": np.r_[np.full(600, "lo"), np.full(300, "hi")],
        "value": np.r_[np.round(rng.uniform(0, 10, 600), 2),
                       np.round(rng.uniform(100, 110, 300), 2)]})
    out = median_test(ray.data.from_pandas(pl))
    hi_row = out[out["event_type"] == "hi"]
    assert hi_row["n_below"].iloc[0] == 0
    assert out["chi2"].iloc[0] > 400.0


def test_top_supplier_revenue_consistency(ray_session):
    from cesium_ray.pipelines.extra_queries import (
        q_top_supplier_revenue)
    import duckdb

    sf = "/root/testdata/sf0.001"
    out = q_top_supplier_revenue(sf)
    assert len(out) >= 1
    con = duckdb.connect()
    want = con.sql(f"""
        SELECT max(u) FROM (
          SELECT CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
                 * (100 - CAST(round(l_discount*100) AS BIGINT)))
                 AS BIGINT) AS u
          FROM read_parquet('{sf}/lineitem.parquet')
          WHERE l_shipdate >= TIMESTAMP '1997-01-01'
            AND l_shipdate < TIMESTAMP '1997-04-01'
          GROUP BY l_suppkey)
    """).fetchone()[0]
    assert (out["rev_units"] == int(want)).all()
    assert out["s_name"].notna().all()


def test_bartlett_bruteforce_and_spread(ray_session):
    from cesium_ray.stages.analytics import bartlett_test

    ev = _events(seed=211, n=2600, nusers=20)
    got = bartlett_test(ray.data.from_pandas(ev).repartition(6))
    d = ev.dropna(subset=["value"]).copy()
    d["k"] = np.rint(d["value"] * 100).astype(np.int64)
    groups = {t: g["k"].to_numpy(np.float64)
              for t, g in d.groupby("event_type")}
    vi = {t: x.var(ddof=1) for t, x in groups.items()}
    N = sum(len(x) for x in groups.values())
    kg = len(groups)
    sp2 = sum((len(x) - 1) * vi[t]
              for t, x in groups.items()) / (N - kg)
    tnum = (N - kg) * np.log(sp2) - sum(
        (len(x) - 1) * np.log(vi[t]) for t, x in groups.items())
    corr = 1.0 + (sum(1.0 / (len(x) - 1) for x in groups.values())
                  - 1.0 / (N - kg)) / (3.0 * (kg - 1))
    t_ref = tnum / corr
    for t, x in groups.items():
        row = got[got["event_type"] == t]
        assert len(row) == 1
        assert row["n_i"].iloc[0] == len(x)
        assert abs(row["var_i"].iloc[0] - vi[t]) \
            < 1e-6 * max(vi[t], 1)
        assert abs(row["bartlett_t"].iloc[0] - t_ref) \
            < 1e-6 * max(abs(t_ref), 1)
    # planted heteroscedasticity: one group 10x the spread
    rng = np.random.default_rng(17)
    pl = pd.DataFrame({
        "event_type": np.r_[np.full(600, "a"), np.full(600, "b")],
        "value": np.r_[np.round(rng.normal(0, 1, 600), 2),
                       np.round(rng.normal(0, 10, 600), 2)]})
    out = bartlett_test(ray.data.from_pandas(pl))
    assert out["bartlett_t"].iloc[0] > 500.0
    # equal spreads -> small statistic
    eq = pd.DataFrame({
        "event_type": np.r_[np.full(600, "a"), np.full(600, "b")],
        "value": np.round(rng.normal(0, 5, 1200), 2)})
    out2 = bartlett_test(ray.data.from_pandas(eq))
    assert out2["bartlett_t"].iloc[0] < 10.0


def test_friedman_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import friedman_test

    ev = _events(seed=223, n=3000, nusers=30)
    got = friedman_test(ray.data.from_pandas(ev).repartition(6))
    piv = ev.groupby(["user_id", "event_type"]).size().unstack(
        fill_value=0)
    kg = piv.shape[1]
    n = piv.shape[0]
    ranks = piv.rank(axis=1)              # average ranks, halves
    rsum = ranks.sum(axis=0)
    ssq = float((rsum ** 2).sum())
    chi2 = 12.0 / (n * kg * (kg + 1)) * ssq - 3.0 * n * (kg + 1)
    tie = 0
    for _, rowv in piv.iterrows():
        vc = rowv.value_counts()
        tie += int((vc ** 3 - vc).sum())
    c = 1.0 - tie / (n * (kg ** 3 - kg))
    for t in piv.columns:
        row = got[got["event_type"] == t]
        assert len(row) == 1
        assert row["rank_sum_2x"].iloc[0] == int(2 * rsum[t])
        assert row["n_blocks"].iloc[0] == n
        assert row["tie_term"].iloc[0] == tie
        assert abs(row["chi2_stat"].iloc[0] - chi2) \
            < 1e-6 * max(abs(chi2), 1)
        assert abs(row["chi2_tie"].iloc[0] - chi2 / c) \
            < 1e-6 * max(abs(chi2 / c), 1)
    # planted treatment effect: type "b" always the busiest
    rng = np.random.default_rng(19)
    rows = []
    for uid in range(40):
        for t, lam in [("a", 3), ("b", 40), ("c", 3)]:
            rows += [(uid, t)] * int(1 + rng.poisson(lam))
    pl = pd.DataFrame(rows, columns=["user_id", "event_type"])
    out = friedman_test(ray.data.from_pandas(pl))
    assert out["chi2_tie"].iloc[0] > 40.0


def test_jonckheere_bruteforce_and_trend(ray_session):
    from cesium_ray.stages.analytics import jonckheere_terpstra

    ev = _events(seed=227, n=2200, nusers=20)
    got = jonckheere_terpstra(ray.data.from_pandas(ev)
                              .repartition(6))
    d = ev.dropna(subset=["value"]).copy()
    d["k"] = np.rint(d["value"] * 100).astype(np.int64)
    types = sorted(d["event_type"].unique())
    arrs = [d[d["event_type"] == t]["k"].to_numpy(np.int64)
            for t in types]
    jt2 = 0
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            a, b = arrs[i], arrs[j]
            lt = int((a[:, None] < b[None, :]).sum())
            eqp = int((a[:, None] == b[None, :]).sum())
            jt2 += 2 * lt + eqp
    nj = np.array([len(a) for a in arrs], np.int64)
    N = int(nj.sum())
    cross = (N * N - int((nj * nj).sum())) // 2
    vc = d["k"].value_counts().to_numpy(np.int64)
    t1 = N * (N - 1) * (2 * N + 5) \
        - int((nj * (nj - 1) * (2 * nj + 5)).sum()) \
        - int((vc * (vc - 1) * (2 * vc + 5)).sum())
    var = t1 / 72.0 \
        + float((nj * (nj - 1) * (nj - 2)).sum()) \
        * float((vc * (vc - 1) * (vc - 2)).sum()) \
        / (36.0 * N * (N - 1) * (N - 2)) \
        + float((nj * (nj - 1)).sum()) \
        * float((vc * (vc - 1)).sum()) / (8.0 * N * (N - 1))
    z_ref = (jt2 - cross) / (2.0 * np.sqrt(var))
    assert (got["jt_twice"] == jt2).all()
    assert (got["jt_mean_twice"] == cross).all()
    assert (got["n_total"] == N).all()
    for t, nji in zip(types, nj):
        assert got[got["event_type"] == t]["n_i"].iloc[0] == nji
    assert np.allclose(got["z_score"], z_ref, atol=1e-9)
    # planted ordered trend a < b < c -> large positive z
    rng = np.random.default_rng(23)
    pl = pd.DataFrame({
        "event_type": np.r_[np.full(400, "a"), np.full(400, "b"),
                            np.full(400, "c")],
        "value": np.r_[np.round(rng.normal(0, 2, 400), 2),
                       np.round(rng.normal(5, 2, 400), 2),
                       np.round(rng.normal(10, 2, 400), 2)]})
    out = jonckheere_terpstra(ray.data.from_pandas(pl))
    assert out["z_score"].iloc[0] > 20.0
    # reversed trend -> large negative
    pl2 = pl.assign(event_type=pl["event_type"].map(
        {"a": "c", "b": "b", "c": "a"}))
    out2 = jonckheere_terpstra(ray.data.from_pandas(pl2))
    assert out2["z_score"].iloc[0] < -20.0


def test_order_count_dist_smoke(ray_session):
    import duckdb

    from cesium_ray.pipelines.extra_queries import q_order_count_dist

    sf = "/root/testdata/sf0.001"
    out = q_order_count_dist(sf)
    con = duckdb.connect()
    n_cust = con.sql(
        f"SELECT count(*) FROM read_parquet('{sf}/customer.parquet')"
    ).fetchone()[0]
    n_ord = con.sql(
        f"SELECT count(*) FROM read_parquet('{sf}/orders.parquet')"
    ).fetchone()[0]
    # every customer lands in exactly one bucket; mass adds back up
    assert out["custdist"].sum() == n_cust
    assert (out["c_count"] * out["custdist"]).sum() == n_ord
    assert out["c_count"].is_unique


def test_small_qty_revenue_smoke(ray_session):
    import duckdb

    from cesium_ray.pipelines.extra_queries import q_small_qty_revenue

    sf = "/root/testdata/sf0.001"
    out = q_small_qty_revenue(sf)
    assert len(out) == 1
    want = duckdb.sql(f"""
        WITH pk AS (SELECT p_partkey
                    FROM read_parquet('{sf}/part.parquet')
                    WHERE p_brand = 'Brand#4'),
        l AS (SELECT ln.l_partkey,
                     CAST(round(ln.l_quantity) AS BIGINT) AS q,
                     CAST(round(ln.l_extendedprice*100) AS BIGINT)
                       AS p
              FROM read_parquet('{sf}/lineitem.parquet') ln
              JOIN pk ON ln.l_partkey = pk.p_partkey),
        a AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(q) AS BIGINT) AS s FROM l GROUP BY 1)
        SELECT CAST(coalesce(sum(l.p), 0) AS BIGINT)
        FROM l JOIN a USING (l_partkey) WHERE 5*l.q*a.n < a.s
    """).fetchone()[0]
    assert out["price_units"].iloc[0] == int(want)
    assert abs(out["avg_yearly"].iloc[0]
               - int(want) / 100.0 / 7.0) < 1e-6


def test_large_volume_orders_smoke(ray_session):
    from cesium_ray.pipelines.extra_queries import \
        q_large_volume_orders

    out = q_large_volume_orders("/root/testdata/sf0.001")
    assert (out["sum_qty"] > 150).all()
    u = out["price_units"].to_numpy()
    assert (np.diff(u) <= 0).all()
    assert out["c_name"].notna().all()
    assert out["o_orderkey"].is_unique


def test_market_share_consistency(ray_session):
    from cesium_ray.pipelines.extra_queries import q_market_share
    import duckdb

    sf = "/root/testdata/sf0.001"
    out = q_market_share(sf)
    # target revenue is a subset of total revenue, per year
    assert (out["rev_units_target"] <= out["rev_units_all"]).all()
    assert (out["rev_units_target"] >= 0).all()
    assert ((out["mkt_share"] >= 0) & (out["mkt_share"] <= 1)).all()
    assert out["o_year"].is_unique
    # total across years == PROMO-part revenue of lineitem
    con = duckdb.connect()
    total = con.sql(
        f"""SELECT CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
            * (100 - CAST(round(l_discount*100) AS BIGINT))) AS BIGINT)
            FROM read_parquet('{sf}/lineitem.parquet') ln
            JOIN read_parquet('{sf}/part.parquet') p
              ON ln.l_partkey = p.p_partkey
            WHERE p.p_type = 'PROMO'"""
    ).fetchone()[0]
    assert int(out["rev_units_all"].sum()) == int(total)


def test_product_profit_conservation(ray_session):
    from cesium_ray.pipelines.extra_queries import q_product_profit
    import duckdb

    sf = "/root/testdata/sf0.001"
    out = q_product_profit(sf)
    con = duckdb.connect()
    total = con.sql(
        f"""SELECT CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
            * (100 - CAST(round(l_discount*100) AS BIGINT))
            - 100 * CAST(round(p.p_retailprice*100) AS BIGINT)
              * CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
            FROM read_parquet('{sf}/lineitem.parquet') ln
            JOIN read_parquet('{sf}/part.parquet') p
              ON ln.l_partkey = p.p_partkey
            WHERE p.p_name LIKE '%red%'"""
    ).fetchone()[0]
    assert int(out["profit_units"].sum()) == int(total)
    assert (out.groupby(["nation", "o_year"]).size() == 1).all()
    assert out["nation"].notna().all()


def test_waiting_suppliers_consistency(ray_session):
    from cesium_ray.pipelines.extra_queries import \
        q_waiting_suppliers
    import duckdb

    sf = "/root/testdata/sf0.001"
    out = q_waiting_suppliers(sf)
    # brute-force the sole-late-supplier rule in one SQL pass
    con = duckdb.connect()
    want = con.sql(f"""
        WITH l AS (SELECT l_orderkey ok, l_suppkey sk,
                          max(epoch_us(l_shipdate)) ms
                   FROM read_parquet('{sf}/lineitem.parquet')
                   GROUP BY 1, 2),
        j AS (SELECT l.ok, l.sk,
                     CASE WHEN l.ms > epoch_us(o.o_orderdate)
                                   + CAST(7776000000000 AS BIGINT)
                          THEN 1 ELSE 0 END AS late
              FROM l JOIN read_parquet('{sf}/orders.parquet') o
                ON l.ok = o.o_orderkey),
        f AS (SELECT ok, count(*) n, sum(late) nl FROM j GROUP BY 1)
        SELECT CAST(count(*) AS BIGINT) FROM j JOIN f USING (ok)
        WHERE j.late = 1 AND f.nl = 1 AND f.n >= 2""").fetchone()[0]
    assert int(out["numwait"].sum()) == int(want)
    assert out["s_name"].is_unique and out["s_name"].notna().all()
    assert (out["numwait"] >= 1).all()


def test_dormant_balance_consistency(ray_session):
    from cesium_ray.pipelines.extra_queries import q_dormant_balance
    import duckdb

    sf = "/root/testdata/sf0.001"
    out = q_dormant_balance(sf)
    assert len(out) >= 1  # the dormancy cutoff must select someone
    assert (out["numcust"] >= 1).all()
    assert out["c_mktsegment"].is_unique
    # every selected customer is dormant AND above the segment mean
    con = duckdb.connect()
    n_dormant = con.sql(f"""
        SELECT count(*) FROM read_parquet('{sf}/customer.parquet') c
        WHERE NOT EXISTS (
          SELECT 1 FROM read_parquet('{sf}/orders.parquet') o
          WHERE o.o_custkey = c.c_custkey
            AND o.o_orderdate >= TIMESTAMP '1999-01-01')""") \
        .fetchone()[0]
    assert int(out["numcust"].sum()) <= int(n_dormant)
    assert np.allclose(out["totacctbal"],
                       out["bal_units"].to_numpy(np.int64) / 100.0)


def _halves_events(seed=11, n=6000, nusers=60):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, nusers, n),
        "event_type": rng.choice(
            ["purchase", "error", "view", "click"], n),
        "ts": pd.to_datetime(
            rng.integers(0, 20 * 86400, n) * 10**6, unit="us"
        ).astype("datetime64[us]"),
    })


def test_cochran_q_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import cochran_q

    # sparse: most users miss at least one type in the window, so
    # the Q denominator k·N − ΣR² stays positive
    ev = _halves_events(seed=11, n=900, nusers=220)
    win = 5 * 86400 * 10**6
    got = cochran_q(ray.data.from_pandas(ev).repartition(5), window_us=win)
    # brute force
    tus = ev["ts"].to_numpy("datetime64[us]").astype(np.int64)
    w = ev[tus >= tus.max() - win]
    x = w[["user_id", "event_type"]].drop_duplicates()
    gj = x.groupby("event_type").size().sort_index()
    ri = x.groupby("user_id").size().to_numpy(np.int64)
    k, n, r2 = len(gj), int(ri.sum()), int((ri * ri).sum())
    q = (k - 1.0) * (k * float((gj.to_numpy(np.int64) ** 2).sum())
                     - float(n) * float(n)) \
        / (k * float(n) - float(r2))
    assert list(got["event_type"]) == list(gj.index)
    assert (got["g_count"].to_numpy(np.int64)
            == gj.to_numpy(np.int64)).all()
    assert np.allclose(got["q_stat"], q)
    assert int(got["n_total"].iloc[0]) == n
    # planted signal: one type fired by every user in-window, the
    # rest by almost nobody -> Q explodes vs the uniform corpus
    ev2 = ev.copy()
    ev2["event_type"] = "view"
    late = ev2["ts"] >= ev2["ts"].max() - pd.Timedelta(days=5)
    few = ev2["user_id"] < 3
    ev2.loc[late & few, "event_type"] = "purchase"
    got2 = cochran_q(ray.data.from_pandas(ev2).repartition(5), window_us=win)
    assert got2["q_stat"].iloc[0] > got["q_stat"].iloc[0]


def test_mcnemar_bruteforce_and_drift(ray_session):
    from cesium_ray.stages.analytics import mcnemar_halves

    ev = _halves_events(seed=12)
    got = mcnemar_halves(ray.data.from_pandas(ev).repartition(5))
    tus = ev["ts"].to_numpy("datetime64[us]").astype(np.int64)
    tmid = (int(tus.min()) + int(tus.max())) // 2
    df = ev.assign(
        tus=tus,
        p=(ev["event_type"] == "purchase").astype(int),
        e=(ev["event_type"] == "error").astype(int))
    h1 = df[df["tus"] < tmid].groupby("user_id")[["p", "e"]].sum()
    h2 = df[df["tus"] >= tmid].groupby("user_id")[["p", "e"]].sum()
    allu = df.groupby("user_id").size().index
    x1 = h1.reindex(allu, fill_value=0)
    x2 = h2.reindex(allu, fill_value=0)
    f1 = (x1["p"] > x1["e"]).to_numpy()
    f2 = (x2["p"] > x2["e"]).to_numpy()
    b = int((f1 & ~f2).sum())
    c = int((~f1 & f2).sum())
    assert int(got["n_first_only"].iloc[0]) == b
    assert int(got["n_second_only"].iloc[0]) == c
    assert int(got["n_both"].iloc[0]) == int((f1 & f2).sum())
    assert np.isclose(got["chi2_plain"].iloc[0],
                      (b - c) ** 2 / (b + c))
    # planted drift: purchases only in the second half -> c >> b
    ev3 = ev.copy()
    early = ev3["ts"].to_numpy("datetime64[us]").astype(np.int64) \
        < tmid
    ev3.loc[early & (ev3["event_type"] == "purchase"), "event_type"] = "view"
    got3 = mcnemar_halves(ray.data.from_pandas(ev3).repartition(5))
    assert int(got3["n_first_only"].iloc[0]) == 0
    assert int(got3["n_second_only"].iloc[0]) > 0


def test_sign_test_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import sign_test_halves

    ev = _halves_events(seed=13)
    got = sign_test_halves(ray.data.from_pandas(ev).repartition(5))
    tus = ev["ts"].to_numpy("datetime64[us]").astype(np.int64)
    tmid = (int(tus.min()) + int(tus.max())) // 2
    c1 = ev[tus < tmid].groupby("user_id").size()
    c2 = ev[tus >= tmid].groupby("user_id").size()
    allu = ev.groupby("user_id").size().index
    a = c1.reindex(allu, fill_value=0).to_numpy(np.int64)
    b = c2.reindex(allu, fill_value=0).to_numpy(np.int64)
    p, m = int((b > a).sum()), int((a > b).sum())
    assert int(got["n_plus"].iloc[0]) == p
    assert int(got["n_minus"].iloc[0]) == m
    assert int(got["n_ties"].iloc[0]) == int((a == b).sum())
    n = p + m
    assert np.isclose(got["z_stat"].iloc[0],
                      (2.0 * max(p, m) - n - 1.0) / np.sqrt(n))
    # planted shift: drop 80% of first-half rows -> n_plus dominates
    keep = ~((tus < tmid)
             & (np.arange(len(ev)) % 5 != 0))
    got4 = sign_test_halves(ray.data.from_pandas(ev[keep]).repartition(5))
    assert int(got4["n_plus"].iloc[0]) \
        > int(got4["n_minus"].iloc[0])


def _two_type_events(xvals, yvals):
    n1, n2 = len(xvals), len(yvals)
    return pd.DataFrame({
        "event_type": ["click"] * n1 + ["view"] * n2,
        "value": np.concatenate([xvals, yvals]),
    })


def _pooled_midranks(x, y):
    """doubled midranks + per-value pooled counts, brute force"""
    kx = np.rint(x * 100).astype(np.int64)
    ky = np.rint(y * 100).astype(np.int64)
    pooled = np.concatenate([kx, ky])
    ks, counts = np.unique(pooled, return_counts=True)
    less = np.cumsum(counts) - counts
    d2 = 2 * less + counts + 1
    return kx, ky, ks, counts, d2


def test_cvm_two_sample_bruteforce_and_spread(ray_session):
    from cesium_ray.stages.analytics import cvm_two_sample

    rng = np.random.default_rng(21)
    x = np.round(rng.normal(50, 10, 400), 2)
    y = np.round(rng.normal(50, 10, 300), 2)
    ev = _two_type_events(x, y)
    got = cvm_two_sample(ray.data.from_pandas(ev).repartition(4))
    kx, ky, ks, counts, _ = _pooled_midranks(x, y)
    n, m = len(kx), len(ky)
    CX = np.array([(kx <= k).sum() for k in ks], np.int64)
    CY = np.array([(ky <= k).sum() for k in ks], np.int64)
    D = m * CX - n * CY
    num = int(np.sum(counts * D * D))
    t = num / float((n + m) ** 2 * n * m)
    assert int(got["n_x"].iloc[0]) == n
    assert np.isclose(got["t_stat"].iloc[0], t)
    # planted location shift -> T explodes
    ev2 = _two_type_events(x, y + 30)
    got2 = cvm_two_sample(ray.data.from_pandas(ev2).repartition(4))
    assert got2["t_stat"].iloc[0] > 20 * got["t_stat"].iloc[0]


def test_ansari_bradley_bruteforce_and_scale(ray_session):
    from cesium_ray.stages.analytics import ansari_bradley

    rng = np.random.default_rng(22)
    x = np.round(rng.normal(50, 3, 350), 2)   # tight
    y = np.round(rng.normal(50, 15, 450), 2)  # wide
    ev = _two_type_events(x, y)
    got = ansari_bradley(ray.data.from_pandas(ev).repartition(4))
    kx, ky, ks, counts, d2 = _pooled_midranks(x, y)
    N = len(kx) + len(ky)
    a2 = np.minimum(d2, 2 * (N + 1) - d2)
    cx = np.array([(kx == k).sum() for k in ks], np.int64)
    w2 = int(np.sum(cx * a2))
    s1 = int(np.sum(counts * a2))
    s2 = int(np.sum(counts * a2 * a2))
    nx, ny = len(kx), len(ky)
    z = (N * w2 - nx * s1) / np.sqrt(
        nx * ny * (N * s2 - s1 * s1) / (N - 1))
    assert int(got["w_twice"].iloc[0]) == w2
    assert np.isclose(got["z_stat"].iloc[0], z)
    # tight sample scores high from both ends -> strongly positive z
    assert got["z_stat"].iloc[0] > 3.0


def test_mood_scale_bruteforce_and_scale(ray_session):
    from cesium_ray.stages.analytics import mood_scale

    rng = np.random.default_rng(23)
    x = np.round(rng.normal(50, 3, 350), 2)   # tight
    y = np.round(rng.normal(50, 15, 450), 2)  # wide
    ev = _two_type_events(x, y)
    got = mood_scale(ray.data.from_pandas(ev).repartition(4))
    kx, ky, ks, counts, d2 = _pooled_midranks(x, y)
    N = len(kx) + len(ky)
    e = (d2 - (N + 1)).astype(object)  # python ints: e^4 overflows
    cx = np.array([(kx == k).sum() for k in ks], np.int64)
    t4 = int(sum(int(c) * int(ee) ** 2 for c, ee in zip(cx, e)))
    s1 = int(sum(int(c) * int(ee) ** 2
                 for c, ee in zip(counts, e)))
    s2 = int(sum(int(c) * int(ee) ** 4
                 for c, ee in zip(counts, e)))
    nx, ny = len(kx), len(ky)
    z = float(N * t4 - nx * s1) / np.sqrt(
        float(nx * ny * (N * s2 - s1 * s1)) / (N - 1))
    assert int(got["t_quad"].iloc[0]) == t4
    assert np.isclose(got["z_stat"].iloc[0], z)
    # tight sample has small squared deviations -> strongly negative
    assert got["z_stat"].iloc[0] < -3.0


def test_brunner_munzel_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import brunner_munzel

    rng = np.random.default_rng(61)
    x = np.round(rng.normal(50, 3, 300), 2)
    y = np.round(rng.normal(55, 12, 400), 2)  # shifted AND wider
    ev = _two_type_events(x, y)
    got = brunner_munzel(ray.data.from_pandas(ev).repartition(4))
    # brute force per scipy.stats.brunnermunzel's definition
    kx = np.rint(x * 100).astype(np.int64)
    ky = np.rint(y * 100).astype(np.int64)
    n, m = len(kx), len(ky)
    pooled = np.concatenate([kx, ky])

    def midranks(vals, ref):
        return np.array([(ref < v).sum() + ((ref == v).sum() + 1) / 2
                         for v in vals])

    rc_x = midranks(kx, pooled)
    rc_y = midranks(ky, pooled)
    rx = midranks(kx, kx)
    ry = midranks(ky, ky)
    mbar_x, mbar_y = rc_x.mean(), rc_y.mean()
    sx = ((rc_x - rx - mbar_x + (n + 1) / 2) ** 2).sum() / (n - 1)
    sy = ((rc_y - ry - mbar_y + (m + 1) / 2) ** 2).sum() / (m - 1)
    w = n * m * (mbar_y - mbar_x) / ((n + m) * np.sqrt(n * sx + m * sy))
    p_hat = (np.array([(kx < v).sum() + 0.5 * (kx == v).sum()
                       for v in ky]).sum()) / (n * m)
    assert int(got["n_x"].iloc[0]) == n
    assert np.isclose(got["w_stat"].iloc[0], w)
    assert np.isclose(got["p_hat"].iloc[0], p_hat)
    # y stochastically above x -> p_hat > 1/2, W positive
    assert got["p_hat"].iloc[0] > 0.6
    assert got["w_stat"].iloc[0] > 3.0


def test_cucconi_bruteforce_and_locscale(ray_session):
    from cesium_ray.stages.analytics import cucconi_test

    rng = np.random.default_rng(62)
    x = np.round(rng.normal(50, 8, 350), 2)
    y = np.round(rng.normal(50, 8, 300), 2)
    ev = _two_type_events(x, y)
    got = cucconi_test(ray.data.from_pandas(ev).repartition(4))
    kx, ky, ks, counts, d2 = _pooled_midranks(x, y)
    n, m = len(kx), len(ky)
    N = n + m
    cy = np.array([(ky == k).sum() for k in ks], np.int64)
    s1 = int(np.sum(cy * d2))
    s2 = int(np.sum(cy * d2.astype(object) * d2.astype(object)))
    den = 2.0 * np.sqrt(float(m) * float(n) * (N + 1.0)
                        * (2.0 * N + 1.0) * (8.0 * N + 11.0) / 5.0)
    u = (3 * s2 - 2 * m * (N + 1) * (2 * N + 1)) / den
    v = (3 * s2 - 12 * (N + 1) * s1 + 12 * m * (N + 1) ** 2
         - 2 * m * (N + 1) * (2 * N + 1)) / den
    rho = 2.0 * (N * N - 4.0) / ((2.0 * N + 1.0) * (8.0 * N + 11.0)) - 1.0
    c = (u * u + v * v - 2 * rho * u * v) / (2 * (1 - rho * rho))
    assert np.isclose(got["u_stat"].iloc[0], u)
    assert np.isclose(got["v_stat"].iloc[0], v)
    assert np.isclose(got["c_stat"].iloc[0], c)
    same_c = got["c_stat"].iloc[0]
    # location+scale shift -> C explodes vs the null-ish sample
    ev2 = _two_type_events(x, np.round(rng.normal(58, 20, 300), 2))
    got2 = cucconi_test(ray.data.from_pandas(ev2).repartition(4))
    assert got2["c_stat"].iloc[0] > 10 * max(same_c, 1.0)


def test_dagostino_k2_bruteforce_and_shape(ray_session):
    from cesium_ray.stages.analytics import dagostino_k2

    rng = np.random.default_rng(63)
    norm = np.round(rng.normal(0, 10, 2000), 2)
    skewed = np.round(rng.exponential(10, 2000), 2)
    ev = pd.DataFrame({
        "event_type": ["norm"] * 2000 + ["skew"] * 2000,
        "value": np.concatenate([norm, skewed])})
    got = dagostino_k2(ray.data.from_pandas(ev).repartition(4))
    assert list(got["event_type"]) == ["norm", "skew"]
    # brute force against the same transform ladder on raw moments
    for name, data in [("norm", norm), ("skew", skewed)]:
        k = np.rint(data * 100).astype(np.int64)
        nf = float(len(k))
        m1 = k.sum() / nf
        d = k - m1
        m2 = (d ** 2).mean()
        g1 = (d ** 3).mean() / m2 ** 1.5
        b2 = (d ** 4).mean() / m2 ** 2
        row = got[got["event_type"] == name].iloc[0]
        assert np.isclose(row["skew_g1"], g1, atol=1e-9)
        assert np.isclose(row["kurt_b2"], b2, atol=1e-9)
    nrow = got[got["event_type"] == "norm"].iloc[0]
    srow = got[got["event_type"] == "skew"].iloc[0]
    # normal sample: K2 small; exponential: z_skew huge
    assert nrow["k2_stat"] < 12.0
    assert srow["z_skew"] > 10.0
    assert srow["k2_stat"] > 100.0


def test_cox_stuart_bruteforce_and_trend(ray_session):
    from cesium_ray.stages.analytics import cox_stuart

    rng = np.random.default_rng(64)
    rows = []
    for uid in range(12):
        nn = int(rng.integers(10, 120))
        v = np.round(rng.uniform(-50, 50, nn), 2)
        if uid == 3:
            v = np.round(np.linspace(-40, 40, nn)
                         + rng.normal(0, 1, nn), 2)  # planted trend
        for i in range(nn):
            rows.append((len(rows), uid,
                         np.datetime64(i * 10 ** 6, "us"), v[i]))
    ev = pd.DataFrame(rows, columns=["event_id", "user_id", "ts",
                                     "value"])
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    got = cox_stuart(ray.data.from_pandas(ev).repartition(4))
    for uid, g in ev.groupby("user_id"):
        x = np.rint(g.sort_values(["ts", "event_id"])["value"]
                    .to_numpy() * 100).astype(np.int64)
        nn = len(x)
        half = nn // 2
        c = nn - half
        a, b = x[:half], x[c:c + half]
        plus, minus = int((b > a).sum()), int((b < a).sum())
        row = got[got["user_id"] == uid]
        if plus + minus == 0:
            assert len(row) == 0
            continue
        assert row["n_plus"].iloc[0] == plus
        assert row["n_minus"].iloc[0] == minus
        z = (2 * plus - (plus + minus)) / np.sqrt(plus + minus)
        assert np.isclose(row["z_stat"].iloc[0], z)
    # planted monotone trend -> near-all plus pairs, z large
    trow = got[got["user_id"] == 3]
    assert trow["z_stat"].iloc[0] > 4.0


def test_hodges_lehmann_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import hodges_lehmann

    rng = np.random.default_rng(65)
    x = np.round(rng.normal(50, 5, 150), 2)
    y = np.round(rng.normal(57, 5, 130), 2)  # planted +7 shift
    ev = _two_type_events(x, y)
    got = hodges_lehmann(ray.data.from_pandas(ev).repartition(4))
    # brute force: the actual n*m pairwise-difference multiset
    kx = np.rint(x * 10).astype(np.int64)
    ky = np.rint(y * 10).astype(np.int64)
    diffs = np.sort((ky[:, None] - kx[None, :]).ravel())
    P = len(diffs)
    lo = diffs[(P + 1) // 2 - 1]
    hi = diffs[P // 2]
    assert int(got["hl2"].iloc[0]) == int(lo + hi)
    assert np.isclose(got["hl_shift"].iloc[0], (lo + hi) / 20.0)
    # recovered shift ~ +7
    assert 5.5 < got["hl_shift"].iloc[0] < 8.5
    # null: same distribution -> shift near 0
    ev0 = _two_type_events(x, np.round(rng.normal(50, 5, 130), 2))
    got0 = hodges_lehmann(ray.data.from_pandas(ev0).repartition(4))
    assert abs(got0["hl_shift"].iloc[0]) < 2.0


def test_ams_f2_bruteforce_and_accuracy(ray_session):
    from cesium_ray.stages.sketch import (
        _AMS_A, _AMS_B, _AMS_P, ams_f2)

    rng = np.random.default_rng(66)
    # Zipf-ish key frequencies
    u = rng.zipf(1.6, 4000) % 500
    ev = pd.DataFrame({"user_id": u.astype(np.int64)})
    got = ams_f2(ray.data.from_pandas(ev).repartition(5))
    vals, cnts = np.unique(u, return_counts=True)
    f2 = int((cnts.astype(object) ** 2).sum())
    assert int(got["f2_exact"].iloc[0]) == f2
    assert int(got["n_keys"].iloc[0]) == len(vals)
    # reproduce the sketch serially
    z2 = []
    for r in range(9):
        h = (_AMS_A[r] * u.astype(np.int64) + _AMS_B[r]) % _AMS_P
        s = 1 - 2 * (h % 2)
        z2.append(int(s.sum()) ** 2)
    assert np.isclose(got["f2_ams"].iloc[0], float(np.median(z2)))
    # estimator quality on this corpus: within 4x (median of 9
    # pairwise-independent rows — loose but real bound)
    assert got["rel_err"].iloc[0] < 3.0


def test_page_trend_bruteforce_and_monotone(ray_session):
    from cesium_ray.stages.analytics import page_trend

    rng = np.random.default_rng(67)
    rows = []
    t_us = 0
    # 10 flat users + 6 users whose activity ramps up by quarter
    for uid in range(16):
        rates = [5, 5, 5, 5] if uid < 4 else [1, 4, 9, 16]
        for qtr in range(4):
            for _ in range(int(rng.poisson(rates[qtr])) + 1):
                t = qtr * 1000 + int(rng.integers(0, 1000))
                rows.append((uid, np.datetime64(t * 10**6, "us")))
    ev = pd.DataFrame(rows, columns=["user_id", "ts"])
    ev["ts"] = ev["ts"].astype("datetime64[us]")
    got = page_trend(ray.data.from_pandas(ev).repartition(4),
                     num_quarters=4)
    # brute force with the same integer quarter rule
    tus = ev["ts"].to_numpy("datetime64[us]").view(np.int64)
    t0, t1 = int(tus.min()), int(tus.max())
    qt = np.minimum(3, (tus - t0) * 4 // (t1 - t0 + 1))
    l2 = 0
    b = ev["user_id"].nunique()
    for uid, g in pd.DataFrame({"u": ev["user_id"], "q": qt}) \
            .groupby("u"):
        c = np.bincount(g["q"].to_numpy(), minlength=4)
        less = (c[None, :] < c[:, None]).sum(axis=1)
        eq = (c[None, :] == c[:, None]).sum(axis=1)
        d2 = 2 * less + eq + 1
        l2 += int((d2 * np.arange(1, 5)).sum())
    assert int(got["l2"].iloc[0]) == l2
    mu2 = b * 4 * 25 // 2
    z = (l2 - mu2) / (2.0 * np.sqrt(b * 16.0 * 5.0 * 15.0 / 144.0))
    assert np.isclose(got["z_stat"].iloc[0], z)
    # planted ramp cohort -> strongly positive trend
    assert got["z_stat"].iloc[0] > 2.5
    # all-flat control: |z| small
    ev0 = ev[ev["user_id"] < 4]
    got0 = page_trend(ray.data.from_pandas(ev0.reset_index(drop=True))
                      .repartition(3), num_quarters=4)
    assert abs(got0["z_stat"].iloc[0]) < 2.5


def test_kuiper_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import kuiper_test

    rng = np.random.default_rng(68)
    x = np.round(rng.normal(50, 10, 400), 2)
    y = np.round(rng.normal(50, 10, 350), 2)
    ev = _two_type_events(x, y)
    got = kuiper_test(ray.data.from_pandas(ev).repartition(4))
    kx, ky, ks, counts, _ = _pooled_midranks(x, y)
    n, m = len(kx), len(ky)
    CX = np.array([(kx <= k).sum() for k in ks], np.int64)
    CY = np.array([(ky <= k).sum() for k in ks], np.int64)
    d = m * CX - n * CY
    dp, dm = max(0, int(d.max())), max(0, int(-d.min()))
    assert np.isclose(got["d_plus"].iloc[0], dp / (n * m))
    assert np.isclose(got["d_minus"].iloc[0], dm / (n * m))
    assert np.isclose(got["v_stat"].iloc[0], (dp + dm) / (n * m))
    # a pure scale change moves BOTH tails: each one-sided KS D is
    # half the story, Kuiper adds them
    ev2 = _two_type_events(x, np.round((y - 50) * 3 + 50, 2))
    got2 = kuiper_test(ray.data.from_pandas(ev2).repartition(4))
    assert got2["v_stat"].iloc[0] > 2 * got["v_stat"].iloc[0]
    assert got2["d_plus"].iloc[0] > 0.1
    assert got2["d_minus"].iloc[0] > 0.1


def test_wasserstein1_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import wasserstein1

    rng = np.random.default_rng(69)
    x = np.round(rng.normal(40, 6, 300), 2)
    y = np.round(rng.normal(43, 6, 260), 2)  # planted +3 shift
    ev = _two_type_events(x, y)
    got = wasserstein1(ray.data.from_pandas(ev).repartition(4))
    kx = np.rint(x * 100).astype(np.int64)
    ky = np.rint(y * 100).astype(np.int64)
    # brute force: W1 between empirical distributions via sorted
    # quantile coupling on the common refinement
    ks = np.unique(np.concatenate([kx, ky]))
    n, m = len(kx), len(ky)
    CX = np.array([(kx <= k).sum() for k in ks], np.int64)
    CY = np.array([(ky <= k).sum() for k in ks], np.int64)
    num = sum(int(g) * abs(int(m * cx - n * cy))
              for g, cx, cy in zip(np.diff(ks), CX[:-1], CY[:-1]))
    assert np.isclose(got["w1_dist"].iloc[0], num / (n * m * 100.0))
    # W1 of a location shift ≈ the shift itself
    assert 2.0 < got["w1_dist"].iloc[0] < 4.5


def test_energy_distance_bruteforce_and_null(ray_session):
    from cesium_ray.stages.analytics import energy_distance

    rng = np.random.default_rng(70)
    x = np.round(rng.normal(40, 6, 250), 2)
    y = np.round(rng.normal(46, 9, 220), 2)
    ev = _two_type_events(x, y)
    got = energy_distance(ray.data.from_pandas(ev).repartition(4))
    kx = np.rint(x * 100).astype(np.int64)
    ky = np.rint(y * 100).astype(np.int64)
    # brute force pairwise expectations in value units
    exy = np.abs(kx[:, None] - ky[None, :]).mean() / 100.0
    exx = np.abs(kx[:, None] - kx[None, :]).mean() / 100.0
    eyy = np.abs(ky[:, None] - ky[None, :]).mean() / 100.0
    assert np.isclose(got["e_xy"].iloc[0], exy, rtol=1e-9)
    assert np.isclose(got["e_xx"].iloc[0], exx, rtol=1e-9)
    assert np.isclose(got["e_yy"].iloc[0], eyy, rtol=1e-9)
    assert np.isclose(got["energy_d2"].iloc[0],
                      2 * exy - exx - eyy, rtol=1e-8)
    assert got["energy_d2"].iloc[0] > 0.5  # real separation
    # same distribution -> near zero
    ev0 = _two_type_events(x, np.round(rng.normal(40, 6, 220), 2))
    got0 = energy_distance(ray.data.from_pandas(ev0)
                           .repartition(4))
    assert got0["energy_d2"].iloc[0] < 0.2


def test_lepage_bruteforce_and_components(ray_session):
    from cesium_ray.stages.analytics import (
        ansari_bradley, lepage_test)

    rng = np.random.default_rng(71)
    x = np.round(rng.normal(50, 5, 300), 2)
    y = np.round(rng.normal(54, 11, 280), 2)  # shift AND spread
    ev = _two_type_events(x, y)
    got = lepage_test(ray.data.from_pandas(ev).repartition(4))
    # Wilcoxon component brute force (tie-corrected)
    kx, ky, ks, counts, d2 = _pooled_midranks(x, y)
    n, m = len(kx), len(ky)
    N = n + m
    cx = np.array([(kx == k).sum() for k in ks], np.int64)
    w2 = int(np.sum(cx * d2))
    t3 = int(np.sum(counts.astype(object) ** 3 - counts))
    aa = (N + 1) * N * (N - 1) - t3
    zw = (w2 - n * (N + 1)) / (2.0 * np.sqrt(
        (n * m * aa) / (12 * N * (N - 1))))
    assert np.isclose(got["z_wilcoxon"].iloc[0], zw)
    # Ansari component must equal the standalone stage
    za = ansari_bradley(ray.data.from_pandas(ev)
                        .repartition(4))["z_stat"].iloc[0]
    assert np.isclose(got["z_ansari"].iloc[0], za)
    assert np.isclose(got["lepage_l"].iloc[0],
                      zw * zw + za * za)
    # both moved -> both components large, L very large
    assert abs(got["z_wilcoxon"].iloc[0]) > 3
    assert abs(got["z_ansari"].iloc[0]) > 3
    assert got["lepage_l"].iloc[0] > 25


def test_qte_profile_bruteforce_and_tail_shift(ray_session):
    from cesium_ray.stages.analytics import qte_profile

    rng = np.random.default_rng(72)
    x = np.round(rng.normal(50, 6, 400), 2)
    # right-tail-only treatment: upper half stretched
    y0 = rng.normal(50, 6, 380)
    y = np.round(np.where(y0 > 50, 50 + (y0 - 50) * 2, y0), 2)
    ev = _two_type_events(x, y)
    got = qte_profile(ray.data.from_pandas(ev).repartition(4))
    kx = np.sort(np.rint(x * 100).astype(np.int64))
    ky = np.sort(np.rint(y * 100).astype(np.int64))
    for p, cols_ in ((1, ("q25_x", "q25_y", "qte_25")),
                     (2, ("q50_x", "q50_y", "qte_50")),
                     (3, ("q75_x", "q75_y", "qte_75"))):
        qx = int(kx[(len(kx) * p + 3) // 4 - 1])
        qy = int(ky[(len(ky) * p + 3) // 4 - 1])
        assert int(got[cols_[0]].iloc[0]) == qx
        assert int(got[cols_[1]].iloc[0]) == qy
        assert np.isclose(got[cols_[2]].iloc[0], (qy - qx) / 100.0)
    # tail-only effect: qte_75 >> |qte_25|
    assert got["qte_75"].iloc[0] > 2.0
    assert abs(got["qte_25"].iloc[0]) < 2.0


def test_yuen_trimmed_bruteforce_and_outliers(ray_session):
    from cesium_ray.stages.analytics import yuen_trimmed

    rng = np.random.default_rng(73)
    x = np.round(rng.normal(50, 5, 300), 2)
    y = np.round(rng.normal(53, 5, 280), 2)
    ev = _two_type_events(x, y)
    got = yuen_trimmed(ray.data.from_pandas(ev).repartition(4))

    def side(vals):
        k = np.sort(np.rint(vals * 100).astype(np.int64))
        n = len(k)
        g = n * 20 // 100
        h = n - 2 * g
        t = k[g:n - g]
        wn = k.copy()
        wn[:g] = k[g]
        wn[n - g:] = k[n - g - 1]
        sw, qw = int(wn.sum()), int((wn.astype(object) ** 2).sum())
        ssw = qw - sw * sw / n
        return n, h, int(t.sum()), ssw / (h * (h - 1))

    nx, hx, stx, dx = side(x)
    ny, hy, sty, dy = side(y)
    assert int(got["h_x"].iloc[0]) == hx
    assert np.isclose(got["tmean_x"].iloc[0], stx / hx / 100.0)
    t = (stx / hx - sty / hy) / np.sqrt(dx + dy)
    assert np.isclose(got["yuen_t"].iloc[0], t, rtol=1e-9)
    assert got["yuen_t"].iloc[0] < -4.0  # y above x
    # gross outliers in x barely move the trimmed result
    x2 = x.copy()
    x2[:5] = 10000.0
    got2 = yuen_trimmed(ray.data.from_pandas(
        _two_type_events(x2, y)).repartition(4))
    assert abs(got2["tmean_x"].iloc[0]
               - got["tmean_x"].iloc[0]) < 0.5


def test_hill_tail_bruteforce_and_heaviness(ray_session):
    from cesium_ray.stages.analytics import hill_tail

    rng = np.random.default_rng(74)
    # Pareto(alpha=2) scaled into the value domain
    v = np.round((rng.pareto(2.0, 5000) + 1.0), 2)
    ev = pd.DataFrame({"value": v})
    got = hill_tail(ray.data.from_pandas(ev).repartition(5),
                    tail_k=100)
    k = np.sort(np.rint(v * 100).astype(np.int64))[::-1]
    k = k[k >= 1]
    ref = int(k[100])
    # sequential replay in the same descending-cell order
    ks, cs = np.unique(k, return_counts=True)
    ks, cs = ks[::-1], cs[::-1]
    cum = np.cumsum(cs)
    tc = np.maximum(0, np.minimum(cum, 100)
                    - np.maximum(cum - cs, 0))
    sln = 0.0
    for kv, cc in zip(ks, tc):
        if cc:
            sln += float(cc) * float(np.log(float(kv)))
    hh = (sln - 100.0 * np.log(float(ref))) / 100.0
    assert int(got["x_ref"].iloc[0]) == ref
    assert np.isclose(got["hill_h"].iloc[0], hh)
    # recovered tail index near the true alpha = 2
    assert 1.3 < got["alpha"].iloc[0] < 3.0
    # lighter tail (alpha = 4) -> larger alpha estimate
    v2 = np.round((rng.pareto(4.0, 5000) + 1.0), 2)
    got2 = hill_tail(ray.data.from_pandas(
        pd.DataFrame({"value": v2})).repartition(5), tail_k=100)
    assert got2["alpha"].iloc[0] > got["alpha"].iloc[0]


def test_rmst_bruteforce_and_bounds(ray_session):
    from cesium_ray.stages.analytics import rmst

    rng = np.random.default_rng(75)
    rows = []
    for uid in range(25):
        t0 = int(rng.integers(0, 1000))
        rows.append((uid, "signup", t0))
        if uid % 3 != 0:  # 2/3 convert
            rows.append((uid, "purchase",
                         t0 + int(rng.integers(1, 5000))))
        rows.append((uid, "view", int(rng.integers(5000, 9000))))
    ev = pd.DataFrame(rows, columns=["user_id", "event_type", "t"])
    ev["ts"] = pd.to_datetime(ev["t"] * 10**6, unit="us") \
        .astype("datetime64[us]")
    ev = ev.drop(columns=["t"])
    got = rmst(ray.data.from_pandas(ev).repartition(4))
    # brute force KM + integral
    tmax = int(ev["ts"].to_numpy("datetime64[us]").view(np.int64)
               .max())
    durs, obs = [], []
    for uid, g in ev.groupby("user_id"):
        tus = g["ts"].to_numpy("datetime64[us]").view(np.int64)
        et = g["event_type"].to_numpy()
        t0 = int(tus[et == "signup"].min())
        pv = tus[(et == "purchase") & (tus > t0)]
        if len(pv):
            durs.append(int(pv.min()) - t0)
            obs.append(True)
        else:
            durs.append(tmax - t0)
            obs.append(False)
    durs = np.array(durs); obs = np.array(obs)
    tau = int(durs.max())
    acc, sp, tp, ls = 0.0, 1.0, 0, 0.0
    for t in np.unique(durs[obs]):
        nr = int((durs >= t).sum())
        d = int((durs[obs] == t).sum())
        acc += sp * float(int(t) - tp)
        ls += np.log(1 - d / nr) if d < nr else -np.inf
        sp, tp = float(np.exp(ls)), int(t)
    r = acc + sp * float(tau - tp)
    assert int(got["n_durations"].iloc[0]) == len(durs)
    assert int(got["n_events"].iloc[0]) == int(obs.sum())
    assert int(got["tau_us"].iloc[0]) == tau
    assert np.isclose(got["rmst_days"].iloc[0], r / 86400000000.0)
    assert np.isclose(got["rmst_share"].iloc[0], r / tau)
    # RMST is bounded by the horizon and positive
    assert 0.0 < got["rmst_share"].iloc[0] <= 1.0


def test_gehan_wilcoxon_bruteforce_and_shift(ray_session):
    from cesium_ray.stages.analytics import gehan_wilcoxon

    rng = np.random.default_rng(76)
    rows = []
    for uid in range(40):
        t0 = int(rng.integers(0, 500))
        rows.append((uid, "signup", t0))
        # even cohort converts fast, odd slowly; 1/4 censored
        if rng.random() > 0.25:
            lag = int(rng.integers(1, 1000)) if uid % 2 == 0 \
                else int(rng.integers(2000, 6000))
            rows.append((uid, "purchase", t0 + lag))
        rows.append((uid, "view", 9000 + uid))
    ev = pd.DataFrame(rows, columns=["user_id", "event_type", "t"])
    ev["ts"] = pd.to_datetime(ev["t"] * 10**6, unit="us") \
        .astype("datetime64[us]")
    ev = ev.drop(columns=["t"])
    got = gehan_wilcoxon(ray.data.from_pandas(ev).repartition(4))
    # brute force pairwise definite orderings
    tmax = int(ev["ts"].to_numpy("datetime64[us]").view(np.int64)
               .max())
    subs = []
    for uid, g in ev.groupby("user_id"):
        tus = g["ts"].to_numpy("datetime64[us]").view(np.int64)
        et = g["event_type"].to_numpy()
        t0 = int(tus[et == "signup"].min())
        pv = tus[(et == "purchase") & (tus > t0)]
        if len(pv):
            subs.append((uid, int(pv.min()) - t0, 1))
        else:
            subs.append((uid, tmax - t0, 0))

    def beats(a, b):
        # a outlives b definitively
        return b[2] == 1 and (a[1] > b[1]
                              or (a[1] == b[1] and a[2] == 0))

    G = {}
    for a in subs:
        G[a[0]] = sum(beats(a, b) for b in subs if b is not a) \
            - sum(beats(b, a) for b in subs if b is not a)
    W = sum(G[u] for u, _, _ in subs if u % 2 == 0)
    n = sum(1 for u, _, _ in subs if u % 2 == 0)
    m = len(subs) - n
    N = n + m
    sg2 = sum(g * g for g in G.values())
    z = W / np.sqrt((n * m * sg2) / (N * (N - 1)))
    assert int(got["w_gehan"].iloc[0]) == W
    assert np.isclose(got["z_stat"].iloc[0], z)
    # even cohort converts sooner -> shorter durations -> negative W
    assert got["z_stat"].iloc[0] < -3.0


def test_cuped_bruteforce_and_variance_reduction(ray_session):
    from cesium_ray.stages.analytics import cuped_effect

    rng = np.random.default_rng(77)
    rows = []
    for uid in range(60):
        base = rng.uniform(5, 45)          # user-level level
        for t in range(20):                 # pre period
            rows.append((uid, t * 100,
                         round(base + rng.normal(0, 2), 2)))
        lift = 3.0 if uid % 2 == 1 else 0.0
        for t in range(20):                 # post period
            rows.append((uid, 10**6 + t * 100,
                         round(base + lift + rng.normal(0, 2), 2)))
    ev = pd.DataFrame(rows, columns=["user_id", "t", "value"])
    ev["ts"] = pd.to_datetime(ev["t"] * 10**6, unit="us") \
        .astype("datetime64[us]")
    ev = ev.drop(columns=["t"])
    got = cuped_effect(ray.data.from_pandas(ev).repartition(5))
    # brute force
    tus = ev["ts"].to_numpy("datetime64[us]").view(np.int64)
    tmid = (int(tus.min()) + int(tus.max())) // 2
    k = np.rint(ev["value"].to_numpy() * 100).astype(np.int64)
    df = pd.DataFrame({"u": ev["user_id"], "pre": tus <= tmid,
                       "k": k})
    ux = df[df.pre].groupby("u")["k"].sum()
    uy = df[~df.pre].groupby("u")["k"].sum()
    users = sorted(df["u"].unique())
    x = np.array([int(ux.get(u, 0)) for u in users], object)
    y = np.array([int(uy.get(u, 0)) for u in users], object)
    nu = len(users)
    cxy = nu * int((x * y).sum()) - int(x.sum()) * int(y.sum())
    vx = nu * int((x * x).sum()) - int(x.sum()) ** 2
    vy = nu * int((y * y).sum()) - int(y.sum()) ** 2
    theta = cxy / vx
    t_mask = np.array([u % 2 == 1 for u in users])
    raw = float(y[t_mask].sum()) / t_mask.sum() \
        - float(y[~t_mask].sum()) / (~t_mask).sum()
    rawx = float(x[t_mask].sum()) / t_mask.sum() \
        - float(x[~t_mask].sum()) / (~t_mask).sum()
    assert np.isclose(got["theta"].iloc[0], theta, rtol=1e-9)
    assert np.isclose(got["raw_effect"].iloc[0], raw / 100.0,
                      rtol=1e-9)
    assert np.isclose(got["cuped_effect"].iloc[0],
                      (raw - theta * rawx) / 100.0, rtol=1e-6)
    # planted +3/event lift on 20 post events -> sum effect ~60
    assert 50.0 < got["cuped_effect"].iloc[0] < 75.0
    assert got["rho2"].iloc[0] > 0.8
    # CUPED's whole point: the adjusted effect is closer to the
    # true sum lift (60) than the raw difference, whose user-level
    # base variation dominates at 60 users
    assert abs(got["cuped_effect"].iloc[0] - 60.0) \
        < abs(got["raw_effect"].iloc[0] - 60.0)


def test_did_effect_bruteforce_and_lift(ray_session):
    from cesium_ray.stages.analytics import did_effect

    rng = np.random.default_rng(78)
    rows = []
    for uid in range(40):
        base = rng.uniform(10, 40)
        for t in range(15):                 # pre
            rows.append((uid, t * 100,
                         round(base + rng.normal(0, 1), 2)))
        lift = 5.0 if uid % 2 == 1 else 0.0
        trend = 2.0                          # common shock
        for t in range(15):                 # post
            rows.append((uid, 10**6 + t * 100,
                         round(base + trend + lift
                               + rng.normal(0, 1), 2)))
    ev = pd.DataFrame(rows, columns=["user_id", "t", "value"])
    ev["ts"] = pd.to_datetime(ev["t"] * 10**6, unit="us") \
        .astype("datetime64[us]")
    ev = ev.drop(columns=["t"])
    got = did_effect(ray.data.from_pandas(ev).repartition(4))
    # brute force the 4 cell means
    tus = ev["ts"].to_numpy("datetime64[us]").view(np.int64)
    tmid = (int(tus.min()) + int(tus.max())) // 2
    k = np.rint(ev["value"].to_numpy() * 100).astype(np.int64)
    tr = (ev["user_id"].to_numpy() % 2) == 1
    po = tus > tmid
    m = {}
    for a in (0, 1):
        for b in (0, 1):
            sel = (tr == bool(a)) & (po == bool(b))
            m[(a, b)] = float(int(k[sel].sum())) \
                / float(int(sel.sum())) / 100.0
    did = (m[(1, 1)] - m[(1, 0)]) - (m[(0, 1)] - m[(0, 0)])
    for col, cell in [("mean_pre_c", (0, 0)),
                      ("mean_post_c", (0, 1)),
                      ("mean_pre_t", (1, 0)),
                      ("mean_post_t", (1, 1))]:
        assert np.isclose(got[col].iloc[0], m[cell])
    assert np.isclose(got["did"].iloc[0], did)
    # DiD strips the common +2 shock and recovers the +5 lift
    assert 4.3 < got["did"].iloc[0] < 5.7
    assert got["mean_post_c"].iloc[0] \
        > got["mean_pre_c"].iloc[0] + 1.0  # shock visible raw


def test_sprt_conversion_bruteforce_and_stops(ray_session):
    from cesium_ray.stages.analytics import sprt_conversion

    rng = np.random.default_rng(79)
    # 55% converters: decisively above p1=0.4 -> reject H0 early
    rows = []
    for uid in range(300):
        rows.append((uid, "view"))
        if rng.random() < 0.55:
            rows.append((uid, "purchase"))
    ev = pd.DataFrame(rows, columns=["user_id", "event_type"])
    got = sprt_conversion(ray.data.from_pandas(ev).repartition(4))
    # serial replay
    conv = ev.groupby("user_id")["event_type"] \
        .apply(lambda s: int((s == "purchase").any())) \
        .sort_index().to_numpy()
    la = np.log(0.4 / 0.3)
    lb = np.log(0.6 / 0.7)
    up = np.log(0.95 / 0.05)
    lo = np.log(0.05 / 0.95)
    cc = np.cumsum(conv)
    i = np.arange(1, len(conv) + 1)
    llr = cc * la + (i - cc) * lb
    hit = (llr >= up) | (llr <= lo)
    j = int(np.argmax(hit))
    assert got["decision"].iloc[0] == "reject_h0"
    assert int(got["n_at_decision"].iloc[0]) == int(i[j])
    assert np.isclose(got["llr_final"].iloc[0], llr[j])
    # decided well before the full horizon (sequential win)
    assert int(got["n_at_decision"].iloc[0]) < 200
    # 10% converters -> accept H0
    rows2 = [(u, "purchase" if rng.random() < 0.10 else "view")
             for u in range(300)]
    ev2 = pd.DataFrame(rows2, columns=["user_id", "event_type"])
    got2 = sprt_conversion(ray.data.from_pandas(ev2)
                           .repartition(3))
    assert got2["decision"].iloc[0] == "accept_h0"


def test_mutual_information_bruteforce_and_dependence(ray_session):
    from cesium_ray.stages.analytics import mutual_information

    rng = np.random.default_rng(80)
    n = 4000
    # type depends on hour: 'click' concentrates in hours 0-5
    hrs = rng.integers(0, 24, n)
    typ = np.where((hrs < 6) & (rng.random(n) < 0.8), "click",
                   rng.choice(["view", "buy"], n))
    ev = pd.DataFrame({
        "event_type": typ,
        "ts": pd.to_datetime(hrs * 3600 * 10**6
                             + rng.integers(0, 3.6e9, n).astype(
                                 np.int64), unit="us")
        .astype("datetime64[us]")})
    got = mutual_information(ray.data.from_pandas(ev)
                             .repartition(4))
    # brute force in the same fixed cell order
    df = pd.DataFrame({"a": typ, "b": hrs})
    nn = float(n)
    lnn = np.log(nn)

    def ent(series_counts):
        acc = 0.0
        for c in series_counts:
            acc += float(c) * (lnn - np.log(float(c)))
        return acc / nn

    ha = ent(df.groupby("a").size().sort_index())
    hb = ent(df.groupby("b").size().sort_index())
    hab = ent(df.groupby(["a", "b"]).size().sort_index())
    mi = ha + hb - hab
    assert np.isclose(got["h_a"].iloc[0], ha)
    assert np.isclose(got["h_ab"].iloc[0], hab)
    assert np.isclose(got["mi"].iloc[0], mi)
    assert np.isclose(got["u_a_given_b"].iloc[0], mi / ha)
    # planted dependence -> MI well above the independent case
    assert got["mi"].iloc[0] > 0.1
    # independent control -> MI near 0
    ev0 = ev.copy()
    ev0["event_type"] = rng.permutation(typ)
    got0 = mutual_information(ray.data.from_pandas(ev0)
                              .repartition(4))
    assert got0["mi"].iloc[0] < 0.02


def test_peacock_ks2d_bruteforce_and_joint_shift(ray_session):
    from cesium_ray.stages.analytics import peacock_ks2d

    rng = np.random.default_rng(81)
    n = 1500

    def mk(vals, hrs, types):
        return pd.DataFrame({
            "event_type": types, "value": vals,
            "ts": pd.to_datetime(
                hrs * 3600 * 10**6
                + rng.integers(0, 3.6e9, len(hrs)).astype(np.int64),
                unit="us").astype("datetime64[us]")})

    # same marginals, DIFFERENT joint: x has high values at night,
    # y has high values in the day
    vx = np.round(np.abs(rng.normal(20, 8, n)), 2)
    hx = np.where(vx > 20, rng.integers(0, 12, n),
                  rng.integers(12, 24, n))
    vy = np.round(np.abs(rng.normal(20, 8, n)), 2)
    hy = np.where(vy > 20, rng.integers(12, 24, n),
                  rng.integers(0, 12, n))
    ev = pd.concat([mk(vx, hx, ["click"] * n),
                    mk(vy, hy, ["view"] * n)], ignore_index=True)
    got = peacock_ks2d(ray.data.from_pandas(ev).repartition(4))
    # brute force over the exact grid
    kx = np.rint(vx * 100).astype(np.int64)
    ky = np.rint(vy * 100).astype(np.int64)
    ks = np.unique(np.concatenate([kx, ky]))
    hs = np.unique(np.concatenate([hx, hy]))
    X = np.zeros((len(ks), len(hs)), np.int64)
    Y = np.zeros((len(ks), len(hs)), np.int64)
    for arr, kk, hh in ((X, kx, hx), (Y, ky, hy)):
        for a, b in zip(kk, hh):
            arr[np.searchsorted(ks, a), np.searchsorted(hs, b)] \
                += 1
    best = 0
    for fk in (1, -1):
        for fh in (1, -1):
            CA = X[::fk, ::fh].cumsum(0).cumsum(1)
            CB = Y[::fk, ::fh].cumsum(0).cumsum(1)
            best = max(best, int(np.abs(n * CA - n * CB).max()))
    assert int(got["d_max_nm"].iloc[0]) == best
    assert np.isclose(got["d_stat"].iloc[0], best / (n * n))
    # joint rotation is invisible to the marginals but loud here
    assert got["d_stat"].iloc[0] > 0.3


def test_anderson_darling_2s_bruteforce_and_tails(ray_session):
    from cesium_ray.stages.analytics import anderson_darling_2s

    rng = np.random.default_rng(82)
    x = np.round(rng.normal(50, 8, 350), 2)
    y = np.round(rng.normal(50, 8, 320), 2)
    ev = _two_type_events(x, y)
    got = anderson_darling_2s(ray.data.from_pandas(ev)
                              .repartition(4))
    # brute force: Scholz–Stephens midrank A2akN for k=2
    kx = np.rint(x * 100).astype(np.int64)
    ky = np.rint(y * 100).astype(np.int64)
    ks = np.unique(np.concatenate([kx, ky]))
    n, m = len(kx), len(ky)
    N = n + m
    fx = np.array([(kx == k).sum() for k in ks], np.int64)
    fy = np.array([(ky == k).sum() for k in ks], np.int64)
    cumx = np.cumsum(fx); cumy = np.cumsum(fy)
    ll = fx + fy
    cum = np.cumsum(ll)
    sx = sy = 0.0
    for j in range(len(ks)):
        m2x = 2 * cumx[j] - fx[j]
        m2y = 2 * cumy[j] - fy[j]
        b2 = 2 * cum[j] - ll[j]
        den = int(b2) * (2 * N - int(b2)) - N * int(ll[j])
        if den > 0:
            dx = N * int(m2x) - n * int(b2)
            dy = N * int(m2y) - m * int(b2)
            sx += float(int(ll[j]) * dx * dx) / float(den)
            sy += float(int(ll[j]) * dy * dy) / float(den)
    a2 = (sx / n + sy / m) * (N - 1) / (N * N)
    assert np.isclose(got["a2_stat"].iloc[0], a2)
    # null: A2 ~ 1ish; pure tail inflation (same median/center):
    # AD reacts strongly
    y2 = np.round(np.where(np.abs(y - 50) > 8,
                           50 + (y - 50) * 3, y), 2)
    got2 = anderson_darling_2s(ray.data.from_pandas(
        _two_type_events(x, y2)).repartition(4))
    assert got2["a2_stat"].iloc[0] > 5 * got["a2_stat"].iloc[0]
    assert got2["a2_stat"].iloc[0] > 3.0


def test_two_proportion_bruteforce_and_lift(ray_session):
    from cesium_ray.stages.analytics import two_proportion

    rng = np.random.default_rng(83)
    rows = []
    for uid in range(200):
        p_rate = 0.7 if uid % 2 == 0 else 0.4   # even cohort wins
        for _ in range(10):
            rows.append((uid, "purchase" if rng.random() < p_rate
                         else "error"))
    ev = pd.DataFrame(rows, columns=["user_id", "event_type"])
    got = two_proportion(ray.data.from_pandas(ev).repartition(4))
    flag = ev.assign(p=(ev.event_type == "purchase").astype(int),
                     e=(ev.event_type == "error").astype(int)) \
        .groupby("user_id")[["p", "e"]].sum()
    c = (flag["p"] > flag["e"]).astype(int)
    even = c.index % 2 == 0
    na, nb = int(even.sum()), int((~even).sum())
    ca, cb = int(c[even].sum()), int(c[~even].sum())
    pa, pb = ca / na, cb / nb
    pp = (ca + cb) / (na + nb)
    z = (pa - pb) / np.sqrt(pp * (1 - pp) * (1 / na + 1 / nb))
    assert int(got["conv_a"].iloc[0]) == ca
    assert int(got["conv_b"].iloc[0]) == cb
    assert np.isclose(got["z_stat"].iloc[0], z)
    # Wilson interval brute force for cohort a
    zs = 1.96
    den = 1 + zs * zs / na
    ctr = pa + zs * zs / (2 * na)
    rad = zs * np.sqrt(pa * (1 - pa) / na
                       + zs * zs / (4 * na * na))
    assert np.isclose(got["wilson_lo_a"].iloc[0],
                      (ctr - rad) / den)
    assert np.isclose(got["wilson_hi_a"].iloc[0],
                      (ctr + rad) / den)
    # planted 0.7-vs-0.4 per-event rates separate the cohorts
    assert got["z_stat"].iloc[0] > 4.0
    assert got["wilson_lo_a"].iloc[0] > got["wilson_hi_b"].iloc[0]


def test_lincoln_petersen_bruteforce_and_recovery(ray_session):
    from cesium_ray.stages.analytics import lincoln_petersen

    rng = np.random.default_rng(84)
    # true population 500; each user appears in each half w.p. 0.5
    rows = []
    for uid in range(500):
        if rng.random() < 0.5:
            rows.append((uid, int(rng.integers(0, 1000))))
        if rng.random() < 0.5:
            rows.append((uid, int(rng.integers(2000, 3000))))
    rows.append((9999, 0))       # pin the range ends
    rows.append((9998, 2999))
    ev = pd.DataFrame(rows, columns=["user_id", "t"])
    ev["ts"] = pd.to_datetime(ev["t"] * 10**6, unit="us") \
        .astype("datetime64[us]")
    ev = ev.drop(columns=["t"])
    got = lincoln_petersen(ray.data.from_pandas(ev)
                           .repartition(4))
    tus = ev["ts"].to_numpy("datetime64[us]").view(np.int64)
    tmid = (int(tus.min()) + int(tus.max())) // 2
    fa = ev[tus <= tmid]["user_id"].unique()
    fb = ev[tus > tmid]["user_id"].unique()
    n1, n2 = len(fa), len(fb)
    mb = len(np.intersect1d(fa, fb))
    nhat = (n1 + 1) * (n2 + 1) / (mb + 1) - 1
    assert int(got["n_first"].iloc[0]) == n1
    assert int(got["n_both"].iloc[0]) == mb
    assert np.isclose(got["n_hat"].iloc[0], nhat)
    # estimate recovers the true ~502 population within 20%
    assert 380 < got["n_hat"].iloc[0] < 640


def test_chao1_bruteforce_and_projection(ray_session):
    from cesium_ray.stages.pack import chao1_richness

    rng = np.random.default_rng(85)
    # Zipf vocabulary: many singletons -> chao1 well above V
    words = [f"w{int(w)}" for w in rng.zipf(1.8, 8000)]
    docs = pd.DataFrame({
        "text": [" ".join(words[i:i + 40])
                 for i in range(0, 8000, 40)]})
    got = chao1_richness(ray.data.from_pandas(docs) .repartition(4))
    vals, cnts = np.unique(words, return_counts=True)
    v, v1, v2 = len(vals), int((cnts == 1).sum()), \
        int((cnts == 2).sum())
    n = len(words)
    chao = v + v1 * (v1 - 1) / (2 * (v2 + 1))
    assert int(got["vocab"].iloc[0]) == v
    assert int(got["v1"].iloc[0]) == v1
    assert np.isclose(got["chao1"].iloc[0], chao)
    assert np.isclose(got["unseen_mass"].iloc[0], v1 / n)
    # heavy-singleton corpus -> projection well above observed
    assert got["chao1"].iloc[0] > 1.3 * v
    assert got["unseen_mass"].iloc[0] > 0.005


def test_effect_sizes_bruteforce_and_magnitude(ray_session):
    from cesium_ray.stages.analytics import effect_sizes

    rng = np.random.default_rng(86)
    x = np.round(rng.normal(50, 8, 300), 2)
    y = np.round(rng.normal(58, 8, 280), 2)  # ~1 SD shift
    ev = _two_type_events(x, y)
    got = effect_sizes(ray.data.from_pandas(ev).repartition(4))
    kx = np.rint(x * 100).astype(np.int64)
    ky = np.rint(y * 100).astype(np.int64)
    n, m = len(kx), len(ky)
    ssx = float((kx ** 2).sum()) - float(kx.sum()) ** 2 / n
    ssy = float((ky.astype(object) ** 2).sum()) \
        - float(ky.sum()) ** 2 / m
    sp2 = (ssx + ssy) / (n + m - 2)
    d = (kx.sum() / n - ky.sum() / m) / np.sqrt(sp2)
    g = d * (1 - 3 / (4 * (n + m - 2) - 1))
    gt = sum(int((kx < v).sum()) for v in ky)
    lt = sum(int((kx > v).sum()) for v in ky)
    delta = (gt - lt) / (n * m)
    assert np.isclose(got["cohens_d"].iloc[0], d, rtol=1e-9)
    assert np.isclose(got["hedges_g"].iloc[0], g, rtol=1e-9)
    assert np.isclose(got["cliffs_delta"].iloc[0], delta)
    # ~1 SD planted shift: d ≈ −1, delta strongly positive (y > x)
    assert -1.4 < got["cohens_d"].iloc[0] < -0.6
    assert got["cliffs_delta"].iloc[0] > 0.4


def test_risk_ratios_bruteforce_and_direction(ray_session):
    from cesium_ray.stages.analytics import risk_ratios

    rng = np.random.default_rng(87)
    rows = []
    for uid in range(300):
        p_rate = 0.7 if uid % 2 == 0 else 0.45
        for _ in range(9):
            rows.append((uid, "purchase" if rng.random() < p_rate
                         else "error"))
    ev = pd.DataFrame(rows, columns=["user_id", "event_type"])
    got = risk_ratios(ray.data.from_pandas(ev).repartition(4))
    flag = ev.assign(p=(ev.event_type == "purchase").astype(int),
                     e=(ev.event_type == "error").astype(int)) \
        .groupby("user_id")[["p", "e"]].sum()
    s = (flag["p"] > flag["e"]).astype(int)
    even = s.index % 2 == 0
    a = int((even & (s == 1)).sum()); b = int((even & (s == 0)).sum())
    c = int((~even & (s == 1)).sum()); d = int((~even & (s == 0)).sum())
    orr = a * d / (b * c)
    rr = (a / (a + b)) / (c / (c + d))
    assert int(got["a"].iloc[0]) == a
    assert np.isclose(got["odds_ratio"].iloc[0], orr, rtol=1e-9)
    assert np.isclose(got["rel_risk"].iloc[0], rr, rtol=1e-9)
    # interval arithmetic replay for OR
    se = np.sqrt(1/a + 1/b + 1/c + 1/d)
    assert np.isclose(got["or_lo"].iloc[0],
                      np.exp(np.log(orr) - 1.96 * se), rtol=1e-9)
    # even cohort favored: RR > 1 and its CI excludes 1
    assert got["rel_risk"].iloc[0] > 1.3
    assert got["rr_lo"].iloc[0] > 1.0


def test_logrank_bruteforce_and_separation(ray_session):
    from cesium_ray.stages.analytics import logrank_test

    rng = np.random.default_rng(88)
    rows = []
    for uid in range(80):
        t0 = int(rng.integers(0, 500))
        rows.append((uid, "signup", t0))
        if rng.random() > 0.2:
            lag = int(rng.integers(1, 1200)) if uid % 2 == 0 \
                else int(rng.integers(2500, 6000))
            rows.append((uid, "purchase", t0 + lag))
        rows.append((uid, "view", 9000 + uid))
    ev = pd.DataFrame(rows, columns=["user_id", "event_type", "t"])
    ev["ts"] = pd.to_datetime(ev["t"] * 10**6, unit="us") \
        .astype("datetime64[us]")
    ev = ev.drop(columns=["t"])
    got = logrank_test(ray.data.from_pandas(ev).repartition(4))
    # brute force
    tmax = int(ev["ts"].to_numpy("datetime64[us]").view(np.int64)
               .max())
    durs, obs, grp = [], [], []
    for uid, g in ev.groupby("user_id"):
        tus = g["ts"].to_numpy("datetime64[us]").view(np.int64)
        et = g["event_type"].to_numpy()
        t0 = int(tus[et == "signup"].min())
        pv = tus[(et == "purchase") & (tus > t0)]
        durs.append(int(pv.min()) - t0 if len(pv) else tmax - t0)
        obs.append(bool(len(pv)))
        grp.append(uid % 2 == 0)
    durs = np.array(durs); obs = np.array(obs)
    grp = np.array(grp)
    ome = var = 0.0
    for t in np.unique(durs[obs]):
        at = durs >= t
        n_t = int(at.sum()); n1 = int((at & grp).sum())
        dm = obs & (durs == t)
        d_t = int(dm.sum()); d1 = int((dm & grp).sum())
        if n_t < 2:
            continue
        ome += d1 - n1 * d_t / n_t
        var += (n1 * (n_t - n1) * d_t * (n_t - d_t)
                / (n_t * n_t * (n_t - 1)))
    assert np.isclose(got["o_minus_e"].iloc[0], ome)
    assert np.isclose(got["z_stat"].iloc[0], ome / np.sqrt(var))
    # even cohort converts much sooner -> positive O−E (its
    # deaths come early while its at-risk share is ~half; the
    # late-time tail where only censored A remain pulls the
    # equal-weighted statistic back, unlike gehan's n_t weights)
    assert got["o_minus_e"].iloc[0] > 3.0
    assert got["z_stat"].iloc[0] > 1.8
