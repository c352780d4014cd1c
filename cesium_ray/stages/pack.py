"""Sequence packing + vocabulary building (training-data ops).

``vocab_topk``: exact global top-k token frequencies.  Map-side
partial counts (one ``value_counts`` per batch, so only vocab-sized
``(token, count)`` rows enter the exchange), a token-keyed hash
exchange to sum partials (each token wholly in one partition), then a
per-partition top-k — exact because a token's global count lives in
exactly one partition — and a driver merge of P·k candidate rows.

``pack_sequences``: greedy first-fit packing of documents into fixed
token-capacity context windows, the standard pre-training batching
step.  Deterministic contract (bit-reproducible, SQL-oracle-able):
within each group (``source``), docs are taken in ``doc_id`` order;
``bin`` starts at 0 with ``fill = t_0`` (an oversize doc still owns a
bin), and each next doc starts a new bin iff ``fill + t_i >
capacity``.  Parallelism is per group — the partitioning assumption is
that groups (sources / input shards) outnumber cores at scale; the
within-group walk is inherently sequential (each bin depends on every
earlier size), so it runs as a tight per-group loop over a numpy array
on the worker, O(docs) with trivial per-step work.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from .partition import group_apply

_TOKEN_RE = r"[^ \t\n\r\f\v]+"


def vocab_topk(
    ds: ray.data.Dataset,
    k: int = 50,
    text_col: str = "text",
) -> pd.DataFrame:
    """Top-``k`` most frequent whitespace tokens (lowercased) with
    exact occurrence counts; ties broken by token ascending."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = (df[text_col].astype(str).str.lower()
              .str.findall(_TOKEN_RE).explode().dropna().value_counts())
        return pd.DataFrame({"token": vc.index.to_numpy(object),
                             "cnt": vc.to_numpy(np.int64)})

    def topk_part(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False, sort=False)["cnt"].sum()
        return (g.sort_values(["cnt", "token"], ascending=[False, True],
                              kind="mergesort").head(k))

    cand = group_apply(
        ds.select_columns([text_col]).map_batches(partial, batch_format="pandas"),
        topk_part, key="token",
    ).to_pandas()
    return (cand.sort_values(["cnt", "token"], ascending=[False, True],
                             kind="mergesort").head(k).reset_index(drop=True))


def pack_sequences(
    ds: ray.data.Dataset,
    capacity: int,
    id_col: str = "doc_id",
    group_col: str = "source",
    text_col: str = "text",
) -> ray.data.Dataset:
    """One row per doc: ``token_count`` and the greedy-first-fit
    ``bin`` (0-based per group, docs in ``id_col`` order)."""

    def count_tokens(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            group_col: df[group_col].to_numpy(),
            id_col: df[id_col].to_numpy(),
            "token_count": df[text_col].astype(str)
                .str.count(_TOKEN_RE).to_numpy(np.int64),
        })

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([group_col, id_col], kind="mergesort")
        sizes = df["token_count"].to_numpy(np.int64)
        grp = df[group_col].to_numpy()
        new_grp = np.r_[True, grp[1:] != grp[:-1]]
        bins = np.empty(len(df), dtype=np.int64)
        b, fill = 0, 0
        for i in range(len(df)):  # sequential by construction (greedy)
            if new_grp[i]:
                b, fill = 0, sizes[i]
            elif fill + sizes[i] > capacity:
                b, fill = b + 1, sizes[i]
            else:
                fill += sizes[i]
            bins[i] = b
        out = df[[group_col, id_col, "token_count"]].copy()
        out["bin"] = bins
        return out.reset_index(drop=True)

    counted = ds.select_columns([group_col, id_col, text_col]).map_batches(
        count_tokens, batch_format="pandas")
    return group_apply(counted, pack, key=group_col)


def tokenize_with_vocab(
    ds: ray.data.Dataset,
    vocab_size: int = 100,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Tokenize documents against an exact global vocabulary: plain
    space-split tokens (SQL string_split parity, empties kept), vocab
    = the ``vocab_size`` most frequent tokens (count desc, token asc),
    ids 1..vocab_size in that order; out-of-vocab → null.  Two
    passes: exact map-side token counts → driver top-k (the vocab is
    broadcast-small by construction) → one broadcast tokenize pass
    emitting (doc, 1-based position, token, token_id)."""
    import ray as _ray

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[text_col].astype(str).str.split(" ").explode().value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(object),
                             "cnt": vc.to_numpy(np.int64)})

    # token-keyed pre-combine + per-partition top-k prune: each token's
    # global count lives wholly in one partition, so the global top-k
    # is a subset of the per-partition top-k — the driver receives
    # ≤ partitions × vocab_size rows, never blocks × distinct-tokens
    def combine_prune(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False)["cnt"].sum()
        return (g.sort_values(["cnt", "token"], ascending=[False, True],
                              kind="mergesort").head(vocab_size))

    parts = (group_apply(
        ds.map_batches(counts, batch_format="pandas"), combine_prune,
        key="token").to_pandas()
        .groupby("token", as_index=False)["cnt"].sum())
    vocab = (parts.sort_values(["cnt", "token"], ascending=[False, True],
                               kind="mergesort").head(vocab_size))
    tok2id = dict(zip(vocab["token"], np.arange(1, len(vocab) + 1,
                                                dtype=np.int64)))
    ref = _ray.put(tok2id)

    def tokenize(df: pd.DataFrame) -> pd.DataFrame:
        t2i = _ray.get(ref)
        toks = df[text_col].astype(str).str.split(" ")
        n = toks.str.len().to_numpy(np.int64)
        flat = toks.explode().to_numpy(object)
        pos = (np.arange(int(n.sum()))
               - np.repeat(np.cumsum(n) - n, n) + 1)
        ids = pd.Series(flat).map(t2i).astype("Int64")
        return pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(), n),
            "pos": pos.astype(np.int64),
            "token": flat,
            "token_id": ids.to_numpy(),
        })

    return ds.map_batches(tokenize, batch_format="pandas")


def tfidf_top_terms(
    ds: ray.data.Dataset,
    top: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Per-document TF-IDF: the ``top`` most distinctive tokens per
    doc ranked by (tf DESC, df ASC, token ASC) — the ranking keys are
    all-integer, so rank rows are exact; the score column
    ``tf·ln(N/df)`` mirrors the SQL expression op-for-op (irrational
    values sit far from round-6 boundaries).

    Two-pass shape: (1) document-frequency build — each block reduces
    to its distinct (token → doc-count) partials (a doc's row is whole
    within one block, so per-block distinct is globally correct), a
    token-keyed exchange sums them, and the vocab-sized DF table is
    broadcast once via ``ray.put``; (2) a stateless ``map_batches``
    scores each doc against the broadcast table (searchsorted lookup,
    lexsort rank) — no second shuffle.  Partitioning assumption: the
    vocabulary fits a worker heap (true for word-level vocabs; switch
    to a df-threshold cut for open-ended token spaces)."""

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 "df": pd.Series(dtype="int64")})
        pair = pd.DataFrame({"d": ex.index.to_numpy(), "t": ex.to_numpy()})
        dd = pair.drop_duplicates()
        vc = dd["t"].value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(object),
                             "df": vc.to_numpy(np.int64)})

    def df_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False, sort=False)["df"].sum()
        g["df"] = g["df"].astype(np.int64)
        return g

    df_tbl = group_apply(
        ds.select_columns([text_col]).map_batches(
            df_partial, batch_format="pandas"),
        df_sum, key="token",
    ).to_pandas().sort_values("token", kind="mergesort")
    n_docs = int(ds.count())
    vocab = df_tbl["token"].to_numpy(object)
    dfs = df_tbl["df"].to_numpy(np.int64)
    ref = ray.put((vocab, dfs, n_docs))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        voc, dfv, nd = ray.get(ref)
        df = df.reset_index(drop=True)
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        empty = pd.DataFrame({
            id_col: pd.Series(dtype=df[id_col].dtype),
            "term": pd.Series(dtype=object),
            "tf": pd.Series(dtype="int64"),
            "df": pd.Series(dtype="int64"),
            "rn": pd.Series(dtype="int64"),
            "tfidf": pd.Series(dtype="float64")})
        if ex.empty:
            return empty
        ids = df[id_col].to_numpy()[ex.index.to_numpy()]
        pair = pd.DataFrame({"i": ids, "t": ex.to_numpy()})
        g = pair.groupby(["i", "t"], sort=False).size().reset_index(name="tf")
        di = g["i"].to_numpy()
        dt = g["t"].to_numpy(object)
        tf = g["tf"].to_numpy(np.int64)
        dfx = dfv[np.searchsorted(voc, dt)]
        # rank within doc by (tf DESC, df ASC, token ASC)
        perm = np.lexsort((dt, dfx, -tf, di))
        di, dt, tf, dfx = di[perm], dt[perm], tf[perm], dfx[perm]
        starts = np.flatnonzero(np.r_[True, di[1:] != di[:-1]])
        seg = np.repeat(np.arange(len(starts)),
                        np.diff(np.r_[starts, len(di)]))
        rn = np.arange(len(di)) - starts[seg] + 1
        keep = rn <= top
        tfk = tf[keep].astype(np.float64)
        dfk = dfx[keep].astype(np.int64)
        tfidf = tfk * np.log(np.float64(nd) / dfk.astype(np.float64))
        return pd.DataFrame({
            id_col: di[keep], "term": dt[keep],
            "tf": tf[keep].astype(np.int64), "df": dfk,
            "rn": rn[keep].astype(np.int64), "tfidf": tfidf})

    out = (ds.select_columns([id_col, text_col])
           .map_batches(score, batch_format="pandas").to_pandas())
    if out.empty:
        return out
    return out.sort_values([id_col, "rn"], kind="mergesort").reset_index(drop=True)


def bigram_lm_score(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Per-document add-one-smoothed bigram cross-entropy against the
    corpus's own bigram statistics — the KenLM-style perplexity-proxy
    quality filter of training-data pipelines, self-trained so it
    needs no external model:
        xent(d) = −(1/B) Σ_i ln((c(w_{i−1},w_i)+1) / (c(w_{i−1})+V))
    with GLOBAL bigram/unigram counts c and vocab size V.

    Two-pass shape: (1) block-local bigram+unigram count partials →
    one token-keyed exchange → the model table, integer-coded
    (token→id via the sorted vocab, bigram key = id₁·V+id₂ int64) and
    broadcast once via ``ray.put``; (2) a stateless ``map_batches``
    scores every doc by two ``searchsorted`` lookups per token — no
    second shuffle.  Docs with <2 tokens are dropped.  Partitioning
    assumption: the bigram table fits a worker heap (word-level
    corpora; apply a min-count cut for open-ended token spaces)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"w1": pd.Series(dtype=object),
                                 "w2": pd.Series(dtype=object),
                                 "cnt": pd.Series(dtype="int64")})
        d = ex.index.to_numpy()
        w = ex.to_numpy(object)
        uni = pd.DataFrame({"w1": w, "w2": "", "cnt": 1})
        same = d[1:] == d[:-1]
        bi = pd.DataFrame({"w1": w[:-1][same], "w2": w[1:][same],
                           "cnt": 1})
        both = pd.concat([uni, bi], ignore_index=True)
        return (both.groupby(["w1", "w2"], as_index=False, sort=False)
                ["cnt"].sum())

    def comb(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["w1", "w2"], as_index=False, sort=False)["cnt"].sum()
        g["cnt"] = g["cnt"].astype(np.int64)
        return g

    model = group_apply(
        ds.select_columns([text_col]).map_batches(
            partial, batch_format="pandas"),
        comb, key="w1",
    ).to_pandas()
    is_uni = model["w2"].to_numpy(object) == ""
    uni = model[is_uni].sort_values("w1", kind="mergesort")
    vocab = uni["w1"].to_numpy(object)
    ucnt = uni["cnt"].to_numpy(np.int64)
    V = np.int64(len(vocab))
    bi = model[~is_uni]
    b1 = np.searchsorted(vocab, bi["w1"].to_numpy(object))
    b2 = np.searchsorted(vocab, bi["w2"].to_numpy(object))
    bkey = b1 * V + b2
    order = np.argsort(bkey, kind="mergesort")
    bkey, bcnt = bkey[order], bi["cnt"].to_numpy(np.int64)[order]
    ref = ray.put((vocab, ucnt, bkey, bcnt, V))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        voc, uc, bk, bc, v = ray.get(ref)
        df = df.reset_index(drop=True)
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        empty = pd.DataFrame({
            id_col: pd.Series(dtype=df[id_col].dtype),
            "n_bigrams": pd.Series(dtype="int64"),
            "xent": pd.Series(dtype="float64")})
        if ex.empty:
            return empty
        d = ex.index.to_numpy()
        ids = np.searchsorted(voc, ex.to_numpy(object))
        same = d[1:] == d[:-1]
        if not same.any():
            return empty
        w1, w2, dd = ids[:-1][same], ids[1:][same], d[:-1][same]
        cb = bc[np.searchsorted(bk, w1 * v + w2)].astype(np.float64)
        cu = uc[w1].astype(np.float64)
        term = np.log((cb + 1.0) / (cu + np.float64(v)))
        starts = np.flatnonzero(np.r_[True, dd[1:] != dd[:-1]])
        nb = np.diff(np.r_[starts, len(dd)]).astype(np.int64)
        s = np.add.reduceat(term, starts)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy()[dd[starts]],
            "n_bigrams": nb,
            "xent": -s / nb.astype(np.float64)})

    out = (ds.select_columns([id_col, text_col])
           .map_batches(score, batch_format="pandas").to_pandas())
    if out.empty:
        return out
    return out.sort_values(id_col).reset_index(drop=True)


def build_inverted_index(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_postings: int = 15,
) -> pd.DataFrame:
    """Distributed inverted-index build: token → (document frequency,
    total term frequency, posting list) — the retrieval/BM25 index
    primitive.  Postings are capped at the ``max_postings`` smallest
    doc ids (ascending, comma-joined) so the emitted index row stays
    bounded; df/tf are exact int64, so the whole table is
    bit-reproducible in SQL.

    Scale shape: each block reduces its docs to distinct
    (token, doc, count) cells (a document row is whole within one
    block); ONE token-keyed exchange merges cells; per partition a
    mergesort + reduceat computes df/tf and a positional-rank mask
    selects the capped postings.  The driver receives one row per
    token (the index itself), never raw token occurrences."""

    def cell_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 id_col: pd.Series(dtype="int64"),
                                 "c": pd.Series(dtype="int64")})
        pair = pd.DataFrame({
            "token": ex.to_numpy(object),
            id_col: df[id_col].to_numpy()[ex.index.to_numpy()],
        })
        g = (pair.groupby(["token", id_col], as_index=False).size()
             .rename(columns={"size": "c"}))
        g["c"] = g["c"].astype(np.int64)
        return g

    def per_token(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"token": pd.Series(dtype=object),
                "df": pd.Series(dtype="int64"),
                "tf": pd.Series(dtype="int64"),
                "postings": pd.Series(dtype=object)}
        if not len(df):
            return pd.DataFrame(cols)
        g = (df.groupby(["token", id_col], as_index=False)["c"].sum()
             .sort_values(["token", id_col], kind="mergesort")
             .reset_index(drop=True))
        tok = g["token"].to_numpy(object)
        start = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
        dfc = np.diff(np.r_[start, len(g)]).astype(np.int64)
        tf = np.add.reduceat(g["c"].to_numpy(np.int64), start)
        seg = np.repeat(np.arange(len(start)), dfc)
        rank = np.arange(len(g)) - start[seg]
        sel = g.loc[rank < max_postings]
        posts = (sel.groupby("token", sort=True)[id_col]
                 .agg(lambda s: ",".join(map(str, s))))
        return pd.DataFrame({
            "token": tok[start],
            "df": dfc,
            "tf": tf.astype(np.int64),
            "postings": posts.loc[tok[start]].to_numpy(object),
        })

    cells = ds.select_columns([id_col, text_col]).map_batches(
        cell_partial, batch_format="pandas")
    out = group_apply(cells, per_token, key="token").to_pandas()
    if out.empty:
        return per_token(pd.DataFrame())
    return out.sort_values("token", kind="mergesort").reset_index(drop=True)


def bm25_topk(
    ds: ray.data.Dataset,
    n_terms: int = 3,
    top: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """BM25 retrieval: score every document against the ``n_terms``
    highest-df tokens (the deterministic query — ORDER BY df DESC,
    token) and return the ``top`` hits.  Okapi BM25 with the
    standard (k1, b); idf = ln((N − df + 0.5)/(df + 0.5) + 1).

    Exactness: tf/df/dl are exact ints; the per-term contribution and
    the fixed left-associated 3-term sum mirror the SQL twin
    op-for-op (constants written identically, e.g. ``k1 + 1.0`` both
    sides), so scores are bit-equal and the (score DESC, id) top-k
    agrees (exact duplicate docs tie-break on id).

    Scale shape: pass 1 builds the token-df table through one
    token-keyed exchange plus per-block doc-length partial sums
    (avgdl); the tiny (terms, idf, avgdl) tuple is broadcast; pass 2
    is a stateless scoring ``map_batches`` emitting a partial top-k
    per block — the driver merges blocks·top rows, never doc scores."""
    import math

    def df_len_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        n_tok = int(ex.size)
        if ex.empty:
            out = pd.DataFrame({"token": pd.Series(dtype=object),
                                "df": pd.Series(dtype="int64")})
        else:
            dd = pd.DataFrame({"d": ex.index.to_numpy(),
                               "t": ex.to_numpy()}).drop_duplicates()
            vc = dd["t"].value_counts()
            out = pd.DataFrame({"token": vc.index.to_numpy(object),
                                "df": vc.to_numpy(np.int64)})
        # ship the block's token total as one extra sentinel row
        return pd.concat([out, pd.DataFrame(
            {"token": ["\x00len"], "df": np.int64(n_tok)})],
            ignore_index=True)

    def df_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False, sort=False)["df"].sum()
        g["df"] = g["df"].astype(np.int64)
        return g

    tbl = group_apply(
        ds.select_columns([text_col]).map_batches(
            df_len_partial, batch_format="pandas"),
        df_sum, key="token",
    ).to_pandas()
    total_toks = int(tbl.loc[tbl["token"] == "\x00len", "df"].sum())
    tbl = tbl[tbl["token"] != "\x00len"]
    n_docs = int(ds.count())
    avgdl = float(total_toks) / float(n_docs)
    terms = (tbl.sort_values(["df", "token"], ascending=[False, True])
             .head(n_terms).reset_index(drop=True))
    tlist = terms["token"].tolist()
    idfs = [math.log(((float(n_docs) - float(d)) + 0.5)
                     / (float(d) + 0.5) + 1.0)
            for d in terms["df"]]
    ref = ray.put((tlist, idfs, avgdl, k1, b))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tl, idf, ad, K, B = ray.get(ref)
        df = df.reset_index(drop=True)
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        dl = toks.str.len().to_numpy(np.int64)
        out = pd.DataFrame({id_col: df[id_col].to_numpy(np.int64),
                            "dl": dl})
        norm = K * ((1.0 - B) + B * (dl.astype(np.float64) / ad))
        s = np.zeros(len(df))
        ex = toks.explode().dropna()
        for i, (t, w) in enumerate(zip(tl, idf), start=1):
            tf = np.zeros(len(df), np.int64)
            hit = ex[ex == t]
            if len(hit):
                c = hit.groupby(level=0).size()
                tf[c.index.to_numpy()] = c.to_numpy()
            out[f"tf{i}"] = tf
            tff = tf.astype(np.float64)
            s = s + w * ((tff * (K + 1.0)) / (tff + norm))
        out["score"] = s
        return (out.sort_values(["score", id_col],
                                ascending=[False, True]).head(top))

    parts = ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pandas").to_pandas()
    return (parts.sort_values(["score", id_col],
                              ascending=[False, True])
            .head(top).reset_index(drop=True))


def textrank_keywords(
    ds: ray.data.Dataset,
    text_col: str = "text",
    top_vocab: int = 100,
    damping: float = 0.85,
    iters: int = 10,
    k: int = 20,
) -> pd.DataFrame:
    """TextRank keyword extraction (Mihalcea–Tarau 2004): PageRank
    over the ADJACENT-token co-occurrence graph restricted to the
    corpus's ``top_vocab`` most frequent tokens (``vocab_topk``
    semantics: lowercase whitespace tokens, ties by token).  Directed
    edges both ways per adjacency (= the undirected walk); dangling
    mass redistributed uniformly; FIXED ``iters`` rounds with the
    exact pagerank_types update, so the SQL twin unrolls the same
    chain.  Scale shape: token counts and in-vocab adjacent-pair
    counts reduce map-side to cells through keyed exchanges (bounded
    by vocab², never corpus rows); the rank iteration runs
    driver-side over ≤ top_vocab nodes."""

    vocab = vocab_topk(ds, k=top_vocab, text_col=text_col)
    vtok = np.sort(vocab["token"].to_numpy(object))
    vref = ray.put(vtok)

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        want = ray.get(vref)
        rows_a, rows_b = [], []
        for t in df[text_col].astype(str):
            toks = t.lower().split()
            if len(toks) < 2:
                continue
            a = np.asarray(toks[:-1], dtype=object)
            b = np.asarray(toks[1:], dtype=object)
            pa = np.searchsorted(want, a)
            pb = np.searchsorted(want, b)
            ok = ((np.clip(pa, 0, len(want) - 1) < len(want))
                  & (want[np.clip(pa, 0, len(want) - 1)] == a)
                  & (want[np.clip(pb, 0, len(want) - 1)] == b))
            rows_a.append(a[ok])
            rows_b.append(b[ok])
        if not rows_a:
            return pd.DataFrame({"src": pd.Series(dtype=object),
                                 "dst": pd.Series(dtype=object),
                                 "n": pd.Series(dtype="int64")})
        aa = np.concatenate(rows_a)
        bb = np.concatenate(rows_b)
        g = (pd.DataFrame({"src": np.r_[aa, bb],
                           "dst": np.r_[bb, aa]})
             .groupby(["src", "dst"], as_index=False).size())
        return g.rename(columns={"size": "n"})

    edges = group_apply(
        ds.select_columns([text_col]).map_batches(
            pair_partial, batch_format="pandas"),
        lambda df: df.groupby(["src", "dst"], as_index=False)["n"].sum(),
        key="src",
    ).to_pandas()
    nodes = vtok
    n_nodes = len(nodes)
    if n_nodes == 0:
        return pd.DataFrame({"token": pd.Series(dtype=object),
                             "textrank": pd.Series(dtype="float64")})
    idx = pd.Series(np.arange(n_nodes), index=nodes)
    src = idx[edges["src"].to_numpy()].to_numpy()
    dst = idx[edges["dst"].to_numpy()].to_numpy()
    w = edges["n"].to_numpy(np.int64).astype(np.float64)
    outw = np.zeros(n_nodes)
    np.add.at(outw, src, w)
    r = np.full(n_nodes, 1.0 / n_nodes)
    for _ in range(iters):
        inflow = np.zeros(n_nodes)
        np.add.at(inflow, dst, r[src] * w / outw[src])
        dang = float(r[outw == 0].sum())
        r = (1.0 - damping) / n_nodes + damping * (
            inflow + dang / n_nodes)
    # round BEFORE ranking so float micro-differences (summation
    # order) cannot flip near-ties between engine and oracle; token
    # ascending breaks exact ties deterministically
    rr = np.sign(r) * np.floor(np.abs(r) * 1e6 + 0.5) / 1e6
    out = pd.DataFrame({"token": nodes, "textrank": rr})
    return (out.sort_values(["textrank", "token"],
                            ascending=[False, True], kind="mergesort")
            .head(k).reset_index(drop=True))


def lexical_diversity(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Per-document lexical-diversity profile: exact token count,
    type (distinct-token) count, type-token ratio, hapax-legomenon
    ratio and token Shannon entropy (the type_entropy closing
    expression) over lowercased whitespace tokens — the standard
    repetitiveness / vocabulary-richness quality gates for
    training-corpus curation.

    Embarrassingly parallel: one ``map_batches`` (no exchange);
    per batch one explode + one (row, token) value_counts — no
    per-document Python loop.  All counts exact int64; the three
    ratios close in mirrored float expressions.  Docs with zero
    tokens are dropped on both sides."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        cols = {id_col: pd.Series(dtype="int64"),
                "n_tokens": pd.Series(dtype="int64"),
                "n_types": pd.Series(dtype="int64"),
                "ttr": pd.Series(dtype="float64"),
                "hapax_ratio": pd.Series(dtype="float64"),
                "token_entropy": pd.Series(dtype="float64")}
        if not len(df):
            return pd.DataFrame(cols)
        df = df.reset_index(drop=True)
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if not len(ex):
            return pd.DataFrame(cols)
        pair = pd.DataFrame({"_i": ex.index.to_numpy(np.int64),
                             "_t": ex.to_numpy(object)})
        c = (pair.groupby(["_i", "_t"], sort=False)
             .size().reset_index(name="c"))
        cc = c["c"].to_numpy(np.int64)
        gi = c["_i"].to_numpy(np.int64)
        nk = len(df)
        n = np.bincount(gi, weights=cc, minlength=nk).astype(np.int64)
        types = np.bincount(gi, minlength=nk).astype(np.int64)
        hapax = np.bincount(gi[cc == 1], minlength=nk).astype(np.int64)
        s = np.bincount(gi, weights=cc.astype(np.float64)
                        * np.log(cc.astype(np.float64)), minlength=nk)
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            res = pd.DataFrame({
                id_col: df[id_col].to_numpy(np.int64),
                "n_tokens": n, "n_types": types,
                "ttr": types.astype(np.float64) / nf,
                "hapax_ratio": hapax.astype(np.float64) / nf,
                "token_entropy": np.log(nf) - s / nf})
        return res[res["n_tokens"] >= 1]

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pandas")


def pmi_collocations(
    ds: ray.data.Dataset,
    min_count: int = 5,
    text_col: str = "text",
) -> pd.DataFrame:
    """Corpus-wide PMI collocations: every adjacent lowercased-token
    bigram (within a document, never across) occurring ≥ ``min_count``
    times, scored with pointwise mutual information
    PMI = ln( (c_xy · N) / (c_x · c_y) ),  N = total token count
    — the classic collocation extractor ("new york" scores high, "of
    the" low).

    Scale shape: map-side PARTIAL bigram counts per block (explode +
    within-doc shift, no per-doc loop) → ONE bigram-keyed hash
    exchange summing partials (each bigram's exact global count in
    one partition) → min-count filter shrinks to the candidate set →
    unigram counts for candidate tokens via the vocab_topk partial/
    exchange path → driver merge of the two SMALL filtered sides.
    Counts exact int64; PMI closes in one mirrored cast-first float
    expression.  Output is every qualifying bigram (no float-ranked
    top-k, so ordering can't drift between engine and oracle)."""

    texts = ds.select_columns([text_col])

    def bigram_partial(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"w1": pd.Series(dtype=object),
                "w2": pd.Series(dtype=object),
                "cnt": pd.Series(dtype="int64")}
        if not len(df):
            return pd.DataFrame(cols)
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if not len(ex):
            return pd.DataFrame(cols)
        w1 = ex.to_numpy(object)
        idx = ex.index.to_numpy(np.int64)
        same = np.zeros(len(w1), bool)
        same[:-1] = idx[:-1] == idx[1:]
        w2 = np.roll(w1, -1)
        p = pd.DataFrame({"w1": w1[same], "w2": w2[same]})
        g = p.groupby(["w1", "w2"], sort=False).size()
        out = g.reset_index(name="cnt")
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    def uni_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = (df[text_col].astype(str).str.lower()
              .str.findall(_TOKEN_RE).explode().dropna().value_counts())
        return pd.DataFrame({"tok": vc.index.to_numpy(object),
                             "cnt": vc.to_numpy(np.int64)})

    def sum_bigrams(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["w1", "w2"], as_index=False, sort=False)
             ["cnt"].sum())
        return g[g["cnt"] >= min_count]

    def sum_uni(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("tok", as_index=False, sort=False)
                ["cnt"].sum())

    bi = group_apply(
        texts.map_batches(bigram_partial, batch_format="pandas"),
        sum_bigrams, key="w1",
    ).to_pandas()
    uni_ds = group_apply(
        texts.map_batches(uni_partial, batch_format="pandas"),
        sum_uni, key="tok",
    ).materialize()
    # N via a map-side partial sum; only CANDIDATE tokens' counts are
    # pulled to the driver (bounded by the min-count-filtered bigram
    # set, not by the vocabulary)
    nn = np.int64(uni_ds.map_batches(
        lambda df: pd.DataFrame({"s": [np.int64(df["cnt"].sum())]}),
        batch_format="pandas").to_pandas()["s"].sum())
    cand = set(bi["w1"]) | set(bi["w2"])
    ref = ray.put(cand)

    def keep_cand(df: pd.DataFrame) -> pd.DataFrame:
        cs = ray.get(ref)
        return df[df["tok"].isin(cs)]

    uni = uni_ds.map_batches(keep_cand,
                             batch_format="pandas").to_pandas()
    u = dict(zip(uni["tok"], uni["cnt"].astype(np.int64)))
    if not len(bi):
        return pd.DataFrame({"w1": pd.Series(dtype=object),
                             "w2": pd.Series(dtype=object),
                             "c_xy": pd.Series(dtype="int64"),
                             "c_x": pd.Series(dtype="int64"),
                             "c_y": pd.Series(dtype="int64"),
                             "pmi": pd.Series(dtype="float64")})
    cx = bi["w1"].map(u).to_numpy(np.int64)
    cy = bi["w2"].map(u).to_numpy(np.int64)
    cxy = bi["cnt"].to_numpy(np.int64)
    pmi = np.log((cxy.astype(np.float64) * np.float64(nn))
                 / (cx.astype(np.float64) * cy.astype(np.float64)))
    out = pd.DataFrame({"w1": bi["w1"].to_numpy(object),
                        "w2": bi["w2"].to_numpy(object),
                        "c_xy": cxy, "c_x": cx, "c_y": cy, "pmi": pmi})
    return (out.sort_values(["w1", "w2"], kind="mergesort")
            .reset_index(drop=True))


FUNCTION_WORDS = ("the", "of", "and", "to", "a", "in",
                  "that", "is", "it", "for")


def burrows_delta(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Per-document Burrows' Delta stylometric distance to the corpus
    centroid (Burrows 2002): z-score each document's function-word
    rates against the corpus mean/std, Delta = mean_k |z_dk| — the
    standard authorship / register-shift signal, here a curation
    outlier gate (template-generated or atypical-register docs score
    high).

    Rates are exact per-mille integers v_dk = (count_dk·1000) //
    n_tokens_d over lowercased whitespace tokens; the corpus moments
    per function word (N docs, Σv, Σv²) are exact int64 sums reduced
    on the driver (10 words — a constant-size partial per block, the
    tfidf_top_terms DF-build shape without the exchange) and
    broadcast once via ``ray.put``.  μ_k, σ_k and the per-word terms
    |v−μ|/σ close in mirrored float expressions; zero-variance words
    contribute exactly 0 on both sides, and the K=10 terms are summed
    LEFT-TO-RIGHT in FUNCTION_WORDS order (chained binary adds, not a
    pairwise tree) so the float total is bit-equal to the SQL's
    left-associated ``(((t0+t1)+t2)+…)/10``.  Zero-token docs are
    dropped on both sides.  No shuffle: one partial pass + one
    broadcast scoring pass."""

    words = np.asarray(FUNCTION_WORDS, object)
    kw = len(words)

    def _rates(df: pd.DataFrame):
        """Per-mille int64 rate matrix (rows = docs with ≥1 token)."""
        df = df.reset_index(drop=True)
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if not len(ex):
            return np.zeros(0, np.int64), np.zeros((0, kw), np.int64), \
                np.zeros(0, np.int64)
        gi = ex.index.to_numpy(np.int64)
        n = np.bincount(gi, minlength=len(df)).astype(np.int64)
        keep = np.flatnonzero(n > 0)
        wi = pd.Categorical(ex.to_numpy(object), categories=words).codes
        hit = wi >= 0
        cnt = np.zeros((len(df), kw), np.int64)
        np.add.at(cnt, (gi[hit], wi[hit].astype(np.int64)), 1)
        v = (cnt[keep] * 1000) // n[keep, None]
        return keep, v, n[keep]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        _, v, _ = _rates(df)
        return pd.DataFrame({
            "j": np.arange(kw, dtype=np.int64),
            "nd": np.full(kw, v.shape[0], dtype=np.int64),
            "sv": v.sum(axis=0, dtype=np.int64),
            "sq": (v * v).sum(axis=0, dtype=np.int64)})

    small = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pandas").to_pandas()
    agg = small.groupby("j", sort=True)[["nd", "sv", "sq"]].sum()
    ndf = agg["nd"].to_numpy(np.int64).astype(np.float64)
    svf = agg["sv"].to_numpy(np.int64).astype(np.float64)
    sqf = agg["sq"].to_numpy(np.int64).astype(np.float64)
    mu = svf / ndf
    arg = sqf / ndf - mu * mu
    sig = np.where(arg > 0.0, np.sqrt(np.maximum(arg, 0.0)), 0.0)
    ref = ray.put((mu, sig))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        cols = {id_col: pd.Series(dtype="int64"),
                "n_tokens": pd.Series(dtype="int64"),
                "delta": pd.Series(dtype="float64")}
        if not len(df):
            return pd.DataFrame(cols)
        muv, sgv = ray.get(ref)
        df = df.reset_index(drop=True)
        keep, v, n = _rates(df)
        if not len(keep):
            return pd.DataFrame(cols)
        t = np.where(sgv > 0.0,
                     np.abs(v.astype(np.float64) - muv) / sgv, 0.0)
        acc = t[:, 0]
        for j in range(1, kw):
            acc = acc + t[:, j]
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64)[keep],
            "n_tokens": n, "delta": acc / float(kw)})

    out = ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                             "n_tokens": pd.Series(dtype="int64"),
                             "delta": pd.Series(dtype="float64")})
    return out.sort_values(id_col).reset_index(drop=True)


def keyness_terms(
    ds: ray.data.Dataset,
    g2_min: float = 3.84,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Per-document KEYNESS terms by Dunning's log-likelihood G²
    (Dunning 1993): for term t in doc d with in-doc count a, rest-of-
    corpus count b, doc length n₁ and rest length n₂ (N = n₁ + n₂),
        G² = 2·(a·ln(a/E₁) + b·ln(b/E₂)),  E₁ = n₁·c/N, E₂ = n₂·c/N
    keeping only POSITIVELY key terms (overrepresented in the doc —
    the exact-integer test a·N > c·n₁, no float boundary) with
    G² > ``g2_min`` (default 3.84, the χ²₁ p<0.05 critical value) — the statistically-grounded cousin of
    ``tfidf_top_terms`` (a χ²-class test instead of a heuristic
    score, robust for rare terms).

    Two-pass shape (the tfidf_top_terms DF-build): (1) per-block
    (token → count) partials, one token-keyed exchange, corpus table
    broadcast once via ``ray.put``; (2) a stateless ``map_batches``
    scores each doc (searchsorted lookup) — no second shuffle.  All
    counts are exact int64; G² closes in one mirrored float
    expression, so the threshold cut is identical on both sides.
    Partitioning assumption: the vocabulary fits a worker heap."""

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 "c": pd.Series(dtype="int64")})
        vc = ex.value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(object),
                             "c": vc.to_numpy(np.int64)})

    def tf_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False, sort=False)["c"].sum()
        g["c"] = g["c"].astype(np.int64)
        return g

    ct = group_apply(
        ds.select_columns([text_col]).map_batches(
            tf_partial, batch_format="pandas"),
        tf_sum, key="token",
    ).to_pandas().sort_values("token", kind="mergesort")
    vocab = ct["token"].to_numpy(object)
    cvec = ct["c"].to_numpy(np.int64)
    n_corpus = int(cvec.sum())
    ref = ray.put((vocab, cvec, n_corpus))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        cols = {id_col: pd.Series(dtype="int64"),
                "term": pd.Series(dtype=object),
                "tf": pd.Series(dtype="int64"),
                "g2": pd.Series(dtype="float64")}
        if not len(df):
            return pd.DataFrame(cols)
        voc, cv, nn = ray.get(ref)
        df = df.reset_index(drop=True)
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if not len(ex):
            return pd.DataFrame(cols)
        gi = ex.index.to_numpy(np.int64)
        n1 = np.bincount(gi, minlength=len(df)).astype(np.int64)
        pair = pd.DataFrame({"_i": gi, "_t": ex.to_numpy(object)})
        cdf = (pair.groupby(["_i", "_t"], sort=False)
               .size().reset_index(name="a"))
        ii = cdf["_i"].to_numpy(np.int64)
        a = cdf["a"].to_numpy(np.int64)
        c = cv[np.searchsorted(voc, cdf["_t"].to_numpy(object))]
        b = c - a
        d1 = n1[ii]
        d2 = nn - d1
        # positive-keyness gate in exact int space: a/n1 > c/N
        pos = a * nn > c * d1
        af, bf = a.astype(np.float64), b.astype(np.float64)
        cf = c.astype(np.float64)
        n1f, n2f = d1.astype(np.float64), d2.astype(np.float64)
        nf = float(nn)
        e1 = (n1f * cf) / nf
        e2 = (n2f * cf) / nf
        with np.errstate(invalid="ignore", divide="ignore"):
            t2 = np.where(b > 0, bf * np.log(bf / e2), 0.0)
            g2 = 2.0 * (af * np.log(af / e1) + t2)
        keep = pos & (g2 > g2_min)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64)[ii[keep]],
            "term": cdf["_t"].to_numpy(object)[keep],
            "tf": a[keep], "g2": g2[keep]})

    out = ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                             "term": pd.Series(dtype=object),
                             "tf": pd.Series(dtype="int64"),
                             "g2": pd.Series(dtype="float64")})
    return (out.sort_values([id_col, "term"], kind="mergesort")
            .reset_index(drop=True))


def df_histogram(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> pd.DataFrame:
    """Corpus document-frequency histogram: for each df value k, how
    many distinct terms appear in exactly k documents — the corpus-
    health fingerprint read before dedup/curation (a heavy high-df
    head means boilerplate/templated text; the hapax mass at df = 1
    calibrates shingle-based near-dup thresholds).

    Distributed shape: per-block distinct (token → doc-count)
    partials (a doc is whole within one block, the tfidf DF-build
    invariant), one token-keyed exchange sums them, and each result
    partition reduces to its df value_counts — only |distinct df|
    rows reach the driver.  All counts exact int64; the share column
    closes in one mirrored division."""

    def df_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"token": pd.Series(dtype=object),
                                 "df": pd.Series(dtype="int64")})
        pair = pd.DataFrame({"d": ex.index.to_numpy(),
                             "t": ex.to_numpy()})
        vc = pair.drop_duplicates()["t"].value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(object),
                             "df": vc.to_numpy(np.int64)})

    def hist_cells(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", as_index=False, sort=False)["df"].sum()
        vc = g["df"].value_counts()
        return pd.DataFrame({"df": vc.index.to_numpy(np.int64),
                             "n_terms": vc.to_numpy(np.int64)})

    parts = group_apply(
        ds.select_columns([text_col]).map_batches(
            df_partial, batch_format="pandas"),
        hist_cells, key="token",
    ).to_pandas()
    cols = {"df": pd.Series(dtype="int64"),
            "n_terms": pd.Series(dtype="int64"),
            "share": pd.Series(dtype="float64")}
    if parts.empty:
        return pd.DataFrame(cols)
    agg = parts.groupby("df", as_index=False)["n_terms"].sum()
    tot = float(agg["n_terms"].sum())
    agg["n_terms"] = agg["n_terms"].astype(np.int64)
    agg["share"] = agg["n_terms"].to_numpy(np.int64
                                           ).astype(np.float64) / tot
    return agg.sort_values("df").reset_index(drop=True)


def heaps_law(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_checkpoints: int = 16,
) -> pd.DataFrame:
    """Heaps'-law vocabulary-growth fit V(N) ≈ K·N^β over the corpus
    read in ``id_col`` order: distinct-vocabulary size V and
    cumulative token count N are sampled at ``n_checkpoints`` equally
    spaced document ranks and a log-log OLS over those checkpoints
    yields (β, K) — the sublinearity gauge (β ≈ 0.4–0.6 for natural
    text; β → 1 flags id-like/boilerplate token streams) read before
    sizing vocab-keyed stages.

    Distributed shape: pass A is an embarrassingly-parallel per-doc
    token count (one small row per doc reaches the driver — swap for
    a distributed rank pass beyond ~10⁸ docs); pass B builds per-block
    (term → min doc) partials, one token-keyed exchange reduces to
    global first-doc per term, and each partition then collapses to
    ``n_checkpoints + 1`` bucket counts via searchsorted against the
    broadcast checkpoint doc-ids — vocabulary never reaches the
    driver.  Counts are exact int64; the OLS runs over running float
    sums in checkpoint order, mirrored by the SQL twin's sequential
    window frames."""
    ck = int(n_checkpoints)

    def doc_counts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            "m": df[text_col].astype(str).str.lower()
                 .str.count(_TOKEN_RE).to_numpy(np.int64)})

    percount = ds.select_columns([id_col, text_col]).map_batches(
        doc_counts, batch_format="pandas").to_pandas()
    cols = {"n_docs": pd.Series(dtype="int64"),
            "tokens_total": pd.Series(dtype="int64"),
            "vocab_total": pd.Series(dtype="int64"),
            "beta": pd.Series(dtype="float64"),
            "k_coef": pd.Series(dtype="float64")}
    nd = len(percount)
    if nd < ck:
        return pd.DataFrame(cols)
    percount = percount.sort_values(id_col, kind="mergesort")
    cumtok = np.cumsum(percount["m"].to_numpy(np.int64))
    ranks = np.arange(1, ck + 1, dtype=np.int64) * nd // ck
    ck_docs = percount[id_col].to_numpy()[ranks - 1]
    ck_cum = cumtok[ranks - 1]

    def first_doc_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = (df[text_col].astype(str).str.lower()
                .str.findall(_TOKEN_RE))
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame({"term": pd.Series(dtype=object),
                                 "f": pd.Series(dtype="int64")})
        pair = pd.DataFrame({
            "term": ex.to_numpy(object),
            "f": df[id_col].to_numpy(np.int64)[ex.index.to_numpy()]})
        g = pair.groupby("term", as_index=False, sort=False)["f"].min()
        return g

    cks = np.sort(ck_docs)
    order = np.argsort(ck_docs, kind="stable")

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", observed=True)["f"].min()
        f = g.to_numpy(np.int64)
        # idx = # sorted checkpoints strictly below f; a term counts
        # toward every checkpoint j >= idx (f <= cks[j], ties in)
        idx = np.searchsorted(cks, f, side="left")
        cnt = np.bincount(idx, minlength=len(cks) + 1)
        v_sorted = np.cumsum(cnt)[:len(cks)]
        # undo the sort so bucket i matches checkpoint i
        v = np.empty(len(cks), np.int64)
        v[order] = v_sorted
        return pd.DataFrame({"i": np.arange(len(cks), dtype=np.int64),
                             "v": v,
                             "vocab": np.int64(len(f))})

    parts = group_apply(
        ds.select_columns([id_col, text_col]).map_batches(
            first_doc_partial, batch_format="pandas"),
        bucket_counts, key="term",
    ).to_pandas()
    if parts.empty:
        return pd.DataFrame(cols)
    agg = parts.groupby("i")["v"].sum()
    v = agg.to_numpy(np.int64)
    # one i=0 row per result partition, each carrying that
    # partition's distinct-term count
    vocab_total = int(parts[parts["i"] == 0]["vocab"].sum())
    xs = np.log(ck_cum.astype(np.float64))
    ys = np.log(v.astype(np.float64))
    sx = float(np.cumsum(xs)[-1])
    sy = float(np.cumsum(ys)[-1])
    sxx = float(np.cumsum(xs * xs)[-1])
    sxy = float(np.cumsum(xs * ys)[-1])
    kf = float(ck)
    beta = (kf * sxy - sx * sy) / (kf * sxx - sx * sx)
    k_coef = float(np.exp((sy - beta * sx) / kf))
    return pd.DataFrame({
        "n_docs": [np.int64(nd)],
        "tokens_total": [np.int64(int(cumtok[-1]))],
        "vocab_total": [np.int64(vocab_total)],
        "beta": [beta], "k_coef": [k_coef]})


def vocab_richness(
    ds: ray.data.Dataset,
    text_col: str = "text",
) -> pd.DataFrame:
    """Corpus-level vocabulary-richness indices from the term-
    frequency spectrum (V_m = # terms occurring exactly m times):
    Yule's K = 10⁴·(Σ V_m·m² − N)/N², Simpson's repeat-rate
    D = Σ V_m·m·(m−1)/(N·(N−1)), Sichel's S = V₂/V and the hapax
    share V₁/V — the classic stylometric constants (K and S are
    ~document-length-invariant), the corpus twin of the per-doc
    lexical_diversity profile and the TERM-frequency complement of
    df_histogram's DOC-frequency view.

    Distributed shape: per-block token value_counts partials, ONE
    token-keyed exchange sums them, and each partition reduces to
    constant-size moment cells (Σm, Σm², Σm(m−1), V, V₁, V₂) — only
    six numbers per partition reach the driver.  All sums exact
    int64; the four index closings are mirrored float expressions."""

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = (df[text_col].astype(str).str.lower()
              .str.findall(_TOKEN_RE).explode().dropna()
              .value_counts())
        return pd.DataFrame({"token": vc.index.to_numpy(object),
                             "m": vc.to_numpy(np.int64)})

    def moment_cells(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", observed=True)["m"].sum()
        m = g.to_numpy(np.int64)
        return pd.DataFrame({
            "n": [np.int64(m.sum())],
            "s2": [np.int64((m * m).sum())],
            "sp": [np.int64((m * (m - 1)).sum())],
            "v": [np.int64(len(m))],
            "v1": [np.int64((m == 1).sum())],
            "v2": [np.int64((m == 2).sum())]})

    parts = group_apply(
        ds.select_columns([text_col]).map_batches(
            tf_partial, batch_format="pandas"),
        moment_cells, key="token",
    ).to_pandas()
    cols = {"n_tokens": pd.Series(dtype="int64"),
            "vocab": pd.Series(dtype="int64"),
            "v1": pd.Series(dtype="int64"),
            "v2": pd.Series(dtype="int64"),
            "yule_k": pd.Series(dtype="float64"),
            "simpson_d": pd.Series(dtype="float64"),
            "sichel_s": pd.Series(dtype="float64"),
            "hapax_share": pd.Series(dtype="float64")}
    if parts.empty:
        return pd.DataFrame(cols)
    n = int(parts["n"].sum())
    s2 = int(parts["s2"].sum())
    sp = int(parts["sp"].sum())
    v = int(parts["v"].sum())
    v1 = int(parts["v1"].sum())
    v2 = int(parts["v2"].sum())
    if n < 2 or v == 0:
        return pd.DataFrame(cols)
    nf = float(n)
    return pd.DataFrame({
        "n_tokens": [np.int64(n)], "vocab": [np.int64(v)],
        "v1": [np.int64(v1)], "v2": [np.int64(v2)],
        "yule_k": [10000.0 * float(s2 - n) / (nf * nf)],
        "simpson_d": [float(sp) / (nf * (nf - 1.0))],
        "sichel_s": [float(v2) / float(v)],
        "hapax_share": [float(v1) / float(v)]})


def chao1_richness(
    ds: ray.data.Dataset,
    text_col: str = "text",
) -> pd.DataFrame:
    """Chao1 species-richness projection + Good–Turing unseen mass
    over the corpus vocabulary: Ŝ = V + V₁(V₁−1)/(2(V₂+1))
    (bias-corrected Chao1 — how many word types EXIST, including
    those the corpus hasn't sampled yet) and GT = V₁/N (the
    probability the next token is a new type).  The forward-
    looking complement of vocab_richness's descriptive constants
    and heaps_law's growth fit — the "how much vocabulary is still
    out there" number a curation pipeline sizes dictionaries by.

    Same distributed shape as vocab_richness: per-block token
    value_counts partials, one token-keyed exchange, constant-size
    moment cells; exact int64 V/V₁/V₂/N, two mirrored closings."""

    def tf_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = (df[text_col].astype(str).str.lower()
              .str.findall(_TOKEN_RE).explode().dropna()
              .value_counts())
        return pd.DataFrame({"token": vc.index.to_numpy(object),
                             "m": vc.to_numpy(np.int64)})

    def moment_cells(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("token", observed=True)["m"].sum()
        m = g.to_numpy(np.int64)
        return pd.DataFrame({
            "n": [np.int64(m.sum())],
            "v": [np.int64(len(m))],
            "v1": [np.int64((m == 1).sum())],
            "v2": [np.int64((m == 2).sum())]})

    parts = group_apply(
        ds.select_columns([text_col]).map_batches(
            tf_partial, batch_format="pandas"),
        moment_cells, key="token",
    ).to_pandas()
    cols = {"n_tokens": pd.Series(dtype="int64"),
            "vocab": pd.Series(dtype="int64"),
            "v1": pd.Series(dtype="int64"),
            "v2": pd.Series(dtype="int64"),
            "chao1": pd.Series(dtype="float64"),
            "unseen_mass": pd.Series(dtype="float64")}
    if parts.empty:
        return pd.DataFrame(cols)
    n = int(parts["n"].sum())
    v = int(parts["v"].sum())
    v1 = int(parts["v1"].sum())
    v2 = int(parts["v2"].sum())
    if n == 0:
        return pd.DataFrame(cols)
    chao = float(v) + float(v1 * (v1 - 1)) / (2.0 * float(v2 + 1))
    return pd.DataFrame({
        "n_tokens": np.array([n], np.int64),
        "vocab": np.array([v], np.int64),
        "v1": np.array([v1], np.int64),
        "v2": np.array([v2], np.int64),
        "chao1": [chao],
        "unseen_mass": [float(v1) / float(n)]})
