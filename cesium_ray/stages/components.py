"""Distributed connected components + dup-cluster edge generation.

The missing piece between near-dup PAIRS (minhash_lsh_dedup,
embedding_near_dup) and usable training-data dedup: group pairs into
CLUSTERS and keep one representative per cluster.

``connected_components`` — iterative min-label propagation over an
edge list, expressed entirely in Ray Data exchanges:

  round:  (1) co-group each node's current label with its adjacency
              (ONE hash exchange on node over labels ∪ edges), emit
              ``label(u)`` to every neighbor + to u itself;
          (2) group messages by node (second exchange), new label =
              min(candidates); count label changes.
  stop:   when no label changed (≤ component diameter rounds — near-
          dup clusters have tiny diameters, typically 1–3).

Per-round traffic is O(E + N) message rows — never the corpus; the
labels table is materialized between rounds (node-scale, not
corpus-scale).  Partitioning assumption: a node's messages hash to one
partition; no single node's degree need fit in memory beyond its
message rows.

``rare_shingle_edges`` — deterministic, SQL-reproducible edge set:
two docs are linked iff they share a character ``k``-gram that occurs
in between 2 and ``max_docs`` distinct docs (rare-shingle blocking —
the bucket-groupby shape of substring dedup; the ``max_docs`` cap
bounds pair fan-out per gram, so a stop-phrase shared by a million
docs never explodes into a million² pairs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .partition import group_apply

_MASK64 = (1 << 64) - 1


def _inv64(b: int) -> int:
    """Multiplicative inverse of odd ``b`` mod 2^64 (Newton iteration)."""
    x = b
    for _ in range(6):
        x = (x * (2 - b * x)) & _MASK64
    return x


_B1 = 0x100000001B3          # FNV-1a prime (odd)
_B2 = 0x9E3779B97F4A7C15 | 1  # golden-ratio constant, forced odd
_B1_INV = _inv64(_B1)
_B2_INV = _inv64(_B2)


def _window_poly_hash(cp: np.ndarray, starts: np.ndarray, wlens: np.ndarray,
                      base: int, base_inv: int) -> np.ndarray:
    """Hash of each window ``cp[s : s+L]`` as ``Σ cp[s+j]·base^j`` mod
    2^64, for all (starts, wlens) at once: one weighted-prefix-sum pass
    plus a gather (Rabin-Karp: ``(P[s+L] − P[s]) · base^{−s}``)."""
    n = len(cp)
    with np.errstate(over="ignore"):
        # pw[i] = base^i, ipw[i] = base^{-i} (mod 2^64): cumprod of a
        # [1, b, b, …] fill
        pw = np.full(n, np.uint64(base & _MASK64), dtype=np.uint64)
        ipw = np.full(n, np.uint64(base_inv), dtype=np.uint64)
        if n:
            pw[0] = 1
            ipw[0] = 1
            np.multiply.accumulate(pw, out=pw)
            np.multiply.accumulate(ipw, out=ipw)
        P = np.zeros(n + 1, dtype=np.uint64)
        np.cumsum(cp * pw, out=P[1:])
        h = (P[starts + wlens] - P[starts]) * ipw[starts]
        # fold the window length in so a short doc-gram can never
        # alias a full k-window
        h ^= np.uint64(0x9E3779B97F4A7C15) * wlens.astype(np.uint64)
    return h


def rare_shingle_edges(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 16,
    max_docs: int = 5,
) -> ray.data.Dataset:
    """Edges ``(a, b)`` (a < b, distinct) between docs sharing a rare
    character k-gram.  Gram semantics match SQL ``substr(text, i, k)``
    for ``i in 1..greatest(len-k+1, 1)`` — docs shorter than ``k``
    contribute themselves as their only gram."""

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        # character-exact k-grams WITHOUT shipping gram strings: all
        # docs' code points concatenate (utf-32), ONE prefix-polynomial
        # pass per hash base gives every window hash in O(n) (Rabin-
        # Karp via modular inverse of the base, arithmetic mod 2^64),
        # and the group key becomes (h1, h2, glen) — 28 B/row instead
        # of a k-char string, with two independent 64-bit hashes + the
        # exact length making cross-gram collisions ~2^-128 (same
        # content-hash-equality convention as exact_dedup).  Docs with
        # ≤ k chars contribute themselves as their single gram
        # (matching SQL substr semantics).
        texts = [str(t) for t in df[text_col]]
        if not texts:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "h1": pd.Series(dtype="uint64"),
                                 "h2": pd.Series(dtype="uint64"),
                                 "glen": pd.Series(dtype="int64")})
        enc = [t.encode("utf-32-le") for t in texts]
        lens = np.fromiter((len(e) >> 2 for e in enc), dtype=np.int64,
                           count=len(enc))
        cp = np.frombuffer(b"".join(enc), dtype=np.uint32).astype(np.uint64)
        counts = np.maximum(lens - (k - 1), 1)
        doc_starts = np.r_[0, np.cumsum(lens)[:-1]]
        starts = (np.repeat(doc_starts, counts)
                  + np.arange(counts.sum())
                  - np.repeat(np.r_[0, np.cumsum(counts)[:-1]], counts))
        glen = np.minimum(np.repeat(lens, counts), k)
        h1 = _window_poly_hash(cp, starts, glen, _B1, _B1_INV)
        h2 = _window_poly_hash(cp, starts, glen, _B2, _B2_INV)
        out = pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(np.int64), counts),
            "h1": h1, "h2": h2, "glen": glen,
        })
        # docs are whole rows within a batch → per-batch dedup IS the
        # per-doc list_distinct
        return out.drop_duplicates([id_col, "h1", "h2", "glen"])

    gram_rows = ds.select_columns([id_col, text_col]).map_batches(
        grams, batch_format="pandas")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["h1", "h2", "glen", id_col], kind="mergesort")
        a1 = d["h1"].to_numpy()
        a2 = d["h2"].to_numpy()
        a3 = d["glen"].to_numpy()
        ids = d[id_col].to_numpy()
        change = np.r_[True, (a1[1:] != a1[:-1]) | (a2[1:] != a2[:-1])
                       | (a3[1:] != a3[:-1])]
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
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64")})
        out = pd.DataFrame({"a": np.concatenate(A), "b": np.concatenate(B)})
        return out.drop_duplicates(["a", "b"])

    pairs = group_apply(gram_rows, bucket_pairs, key="h1")
    return group_apply(pairs, lambda df: df.drop_duplicates(["a", "b"]),
                       key="a")


_MSG_SCHEMA = pa.schema([
    pa.field("node", pa.int64()),
    pa.field("other", pa.int64()),   # neighbor (edge rows) / -1
    pa.field("label", pa.int64()),   # current label (label rows) / -1
    pa.field("is_label", pa.uint8()),
])


def _cc_numpy(a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Vectorized small-graph CC: min-label over edges + pointer
    jumping (numpy, O(E·log d))."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = inv[: len(a)], inv[len(a):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        new = lab.copy()
        np.minimum.at(new, ea, lab[eb])
        np.minimum.at(new, eb, lab[ea])
        changed = bool((new != lab).any())
        lab = new
        while True:  # pointer jumping: collapse chains immediately
            nn = lab[lab]
            if (nn == lab).all():
                break
            lab = nn
        if not changed:
            break
    return pd.DataFrame({"node": nodes, "cluster": nodes[lab]})


def connected_components(
    edges_ds: ray.data.Dataset,
    a_col: str = "a",
    b_col: str = "b",
    max_iters: int = 50,
    driver_threshold: int = 2_000_000,
) -> pd.DataFrame:
    """Labels ``(node, cluster)`` with ``cluster`` = min node id in the
    node's connected component.  Only nodes appearing in the edge list
    are returned (callers union in singletons if needed).

    Edge lists up to ``driver_threshold`` rows collapse on the driver
    (vectorized min-label + pointer jumping — dedup edge sets are pair
    lists, orders of magnitude smaller than the corpus, so this is the
    broadcast-small-side rule applied to graphs); larger graphs run the
    distributed label-propagation rounds."""

    def to_sym(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.concatenate([a, b])
        other = np.concatenate([b, a])
        n = len(node)
        return pa.Table.from_arrays(
            [pa.array(node), pa.array(other),
             pa.array(np.full(n, -1, dtype=np.int64)),
             pa.array(np.zeros(n, dtype=np.uint8))],
            schema=_MSG_SCHEMA)

    sym = edges_ds.map_batches(to_sym, batch_format="pyarrow").materialize()
    n_sym = sym.count()
    if n_sym == 0:
        return pd.DataFrame({"node": pd.Series(dtype="int64"),
                             "cluster": pd.Series(dtype="int64")})
    if n_sym <= 2 * driver_threshold:
        ed = sym.select_columns(["node", "other"]).to_pandas()
        return _cc_numpy(ed["node"].to_numpy(np.int64),
                         ed["other"].to_numpy(np.int64))

    def init_labels(batch: pa.Table) -> pa.Table:
        node = np.unique(batch["node"].to_numpy(zero_copy_only=False))
        n = len(node)
        return pa.Table.from_arrays(
            [pa.array(node), pa.array(np.full(n, -1, dtype=np.int64)),
             pa.array(node),
             pa.array(np.ones(n, dtype=np.uint8))],
            schema=_MSG_SCHEMA)

    # batch-level unique is enough: duplicate (node, node) label rows
    # collapse at the first reduce
    labels = sym.map_batches(init_labels, batch_format="pyarrow").materialize()

    def propagate(df: pd.DataFrame) -> pd.DataFrame:
        lab = df[df["is_label"] == 1]
        ed = df[df["is_label"] == 0]
        # per-node current label (min collapses any duplicate rows)
        lmap = lab.groupby("node", sort=False)["label"].min()
        # self message carries the old label (marked), neighbor
        # messages carry this node's label to each neighbor
        self_msgs = pd.DataFrame({
            "node": lmap.index.to_numpy(np.int64),
            "cand": lmap.to_numpy(np.int64),
            "is_self": np.uint8(1),
        })
        if len(ed):
            src_lab = lmap.reindex(ed["node"].to_numpy()).to_numpy(np.int64)
            nbr_msgs = pd.DataFrame({
                "node": ed["other"].to_numpy(np.int64),
                "cand": src_lab,
                "is_self": np.uint8(0),
            })
            return pd.concat([self_msgs, nbr_msgs], ignore_index=True)
        return self_msgs

    def reduce_min(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False)
        new = g["cand"].min()
        old = df[df["is_self"] == 1].set_index("node")["cand"]
        old = old.reindex(new.index)
        return pd.DataFrame({
            "node": new.index.to_numpy(np.int64),
            "label": new.to_numpy(np.int64),
            "changed": (new.to_numpy(np.int64)
                        < old.to_numpy(np.int64)).astype(np.int64),
        })

    def relabel(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.Table.from_arrays(
            [batch["node"].cast(pa.int64()),
             pa.array(np.full(n, -1, dtype=np.int64)),
             batch["label"].cast(pa.int64()),
             pa.array(np.ones(n, dtype=np.uint8))],
            schema=_MSG_SCHEMA)

    changed = None
    for _ in range(max_iters):
        msgs = group_apply(labels.union(sym), propagate, key="node")
        out = group_apply(msgs, reduce_min, key="node").materialize()
        changed = out.sum("changed")
        if not changed:
            break
        labels = out.drop_columns(["changed"]).map_batches(
            relabel, batch_format="pyarrow").materialize()
    if changed:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds "
            f"({changed} labels still changing) — graph diameter exceeds "
            f"max_iters; raise max_iters for this input")
    final = out.drop_columns(["changed"]).to_pandas()
    return (final.rename(columns={"label": "cluster"})
            .sort_values("node").reset_index(drop=True))
