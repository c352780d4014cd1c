"""End-to-end training-data curation pipeline: the composite a corpus
owner actually runs before pre-training — language ID, quality
scoring, exact dedup, and exact-verified near-dup removal fused into
one keep/drop decision per document.

Composition (every stage is an existing ★-checked primitive):

    documents ──┬─ LangId → QualityScorer          (streaming map_batches)
                ├─ exact-dup losers                (one text-keyed exchange)
                └─ LSH → exact-Jaccard pairs → CC  (bucketed; edges ≪ corpus)
                          ↓
        broadcast loser-id sets → per-batch flag attach → keep

Scale shape: the corpus streams through the scoring stages once; the
only exchanges are the text-keyed exact-dedup groupby and the LSH
pipeline's band/bucket exchanges (both hash-partitioned).  The dup
loser id sets are pair-scale (≪ corpus) and ride a single ``ray.put``
broadcast into the final stateless flag pass, so the decision join
never shuffles the corpus.

Determinism: every rule compares exact-int-ratio doubles or int
counts, so the keep flag is bit-reproducible and the whole pipeline
has a SQL oracle (extra_queries._curate_sql)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from ..stages.components import connected_components
from ..stages.dedup import lsh_exact_near_dup
from ..stages.partition import group_apply
from ..stages.text import LangId, QualityScorer

DEFAULT_LANGS = ("en", "de", "fr", "es", "it")


def curate_documents(
    docs: ray.data.Dataset,
    jaccard_threshold: float = 0.7,
    min_tokens: int = 20,
    max_repetition: float = 0.6,
    langs: tuple = DEFAULT_LANGS,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """One row per input document: ``lang_pred``, ``token_count``,
    ``repetition_ratio``, ``is_exact_dup`` (same text as a lower id),
    ``is_near_dup`` (non-minimum member of an exact-Jaccard ≥
    ``jaccard_threshold`` near-dup cluster), and the fused ``keep``
    decision (no dup flag, predicted language in ``langs``, at least
    ``min_tokens`` tokens, repetition ratio ≤ ``max_repetition``)."""
    scored = docs.map_batches(
        LangId, batch_format="pandas", concurrency=(1, 8),
        fn_constructor_kwargs={"text_col": text_col})
    scored = scored.map_batches(
        QualityScorer, batch_format="pandas", concurrency=(1, 8),
        fn_constructor_kwargs={"text_col": text_col})

    def losers(df: pd.DataFrame) -> pd.DataFrame:
        m = df.groupby(text_col)[id_col].transform("min")
        return df.loc[df[id_col] != m, [id_col]]

    ex = group_apply(
        docs.select_columns([id_col, text_col]), losers,
        key=text_col,
    ).to_pandas()

    pairs = lsh_exact_near_dup(
        docs, k=5, jaccard_threshold=jaccard_threshold,
        id_col=id_col, text_col=text_col,
    ).map_batches(
        lambda df: df.rename(columns={"id_a": "a", "id_b": "b"})[["a", "b"]],
        batch_format="pandas")
    lab = connected_components(pairs)
    # zero-dup corpora yield empty frames with no columns — guard both
    ex_ids = (ex[id_col].to_numpy(np.int64) if len(ex)
              else np.empty(0, np.int64))
    nd = (lab.loc[lab["node"] != lab["cluster"], "node"].to_numpy(np.int64)
          if len(lab) else np.empty(0, np.int64))
    flags_ref = ray.put((np.sort(ex_ids), np.sort(nd)))
    lang_ok = frozenset(langs)

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        exa, nda = ray.get(flags_ref)
        ids = df[id_col].to_numpy(np.int64)
        out = df.copy()
        out["is_exact_dup"] = np.isin(ids, exa)
        out["is_near_dup"] = np.isin(ids, nda)
        out["keep"] = (
            ~out["is_exact_dup"].to_numpy()
            & ~out["is_near_dup"].to_numpy()
            & out["lang_pred"].isin(lang_ok).to_numpy()
            & (out["token_count"].to_numpy() >= min_tokens)
            & (out["repetition_ratio"].to_numpy() <= max_repetition)
        )
        return out

    return scored.map_batches(attach, batch_format="pandas")
