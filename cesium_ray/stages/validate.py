"""Declarative data-validation (expectations) over Datasets — the
data-quality gate a production pipeline runs before promoting a
partition: each rule reduces to exact integer (n_checked,
n_violations) counts via map-side partials, so the whole report is
one row per rule and bit-reproducible in SQL.

Rule kinds:
  not_null(col)            — violations = rows with a null col
  unique(col)              — violations = n_rows − n_distinct
  in_range(col, lo, hi)    — violations = non-null rows outside
                             [lo, hi] (k/100-quantized int space)
  references(col, other,
             other_col)    — violations = rows whose col has no match
                             in the other dataset's key set
                             (broadcast-set semi-join; swap in the
                             bloom stage when the key side is huge)

Scale shape: every rule is a streaming pass of map-side partial
counts (no exchange except the distinct rule's cell combine); the
referential rule broadcasts the referenced key set once via
``ray.put`` (dimension-sized side — documented assumption).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from .partition import group_apply


def _counts(parts: pd.DataFrame) -> tuple[int, int]:
    return int(parts["n"].sum()), int(parts["v"].sum())


def run_expectations(
    ds: ray.data.Dataset,
    rules: list[dict],
    refs: dict[str, ray.data.Dataset] | None = None,
) -> pd.DataFrame:
    """Evaluate ``rules`` (dicts with ``kind``, ``col`` and
    kind-specific params; ``name`` optional) against ``ds``; returns
    one row per rule: (rule, n_checked, n_violations, passed)."""
    refs = refs or {}
    rows = []
    for r in rules:
        kind, col = r["kind"], r["col"]
        name = r.get("name", f"{kind}:{col}")
        if kind == "not_null":

            def p_nn(df: pd.DataFrame, c=col) -> pd.DataFrame:
                return pd.DataFrame({
                    "n": [np.int64(len(df))],
                    "v": [np.int64(df[c].isna().sum())]})

            parts = ds.map_batches(p_nn, batch_format="pandas").to_pandas()
            n, v = _counts(parts)
        elif kind == "unique":

            def p_cells(df: pd.DataFrame, c=col) -> pd.DataFrame:
                g = df.groupby(c, as_index=False).size()
                g["size"] = g["size"].astype(np.int64)
                return g.rename(columns={"size": "cnt"})

            cells = group_apply(
                ds.select_columns([col]).map_batches(
                    p_cells, batch_format="pandas"),
                lambda df, c=col: df.groupby(c, as_index=False)[
                    "cnt"].sum(),
                key=col).to_pandas()
            n = int(cells["cnt"].sum())
            v = int(n - len(cells))
        elif kind == "in_range":
            lo = np.int64(round(r["lo"] * 100))
            hi = np.int64(round(r["hi"] * 100))

            def p_rng(df: pd.DataFrame, c=col) -> pd.DataFrame:
                x = df[c].to_numpy(np.float64)
                ok = ~np.isnan(x)
                k = np.rint(x[ok] * 100.0).astype(np.int64)
                return pd.DataFrame({
                    "n": [np.int64(ok.sum())],
                    "v": [np.int64(((k < lo) | (k > hi)).sum())]})

            parts = ds.map_batches(p_rng, batch_format="pandas").to_pandas()
            n, v = _counts(parts)
        elif kind == "references":
            other = refs[r["ref"]]
            # empty blocks lose their schema in Ray 2.49 — guard both
            # column lookups (an empty ref set is legal: every checked
            # row is then a violation)
            kdf = (
                other.select_columns([r["ref_col"]])
                .map_batches(
                    lambda df, rc=r["ref_col"]: pd.DataFrame(
                        {"k": df[rc].unique() if rc in df.columns
                         else np.array([], dtype=np.int64)}),
                    batch_format="pandas")
                .to_pandas())
            keys = (np.unique(kdf["k"].to_numpy(np.int64))
                    if "k" in kdf.columns
                    else np.array([], dtype=np.int64))
            kref = ray.put(keys)

            def p_ref(df: pd.DataFrame, c=col) -> pd.DataFrame:
                want = ray.get(kref)
                x = df[c].to_numpy(np.int64)
                if len(want) == 0:
                    # empty referenced key set: every row violates
                    miss = np.ones(len(x), dtype=bool)
                else:
                    pos = np.clip(np.searchsorted(want, x), 0,
                                  len(want) - 1)
                    miss = want[pos] != x
                return pd.DataFrame({
                    "n": [np.int64(len(x))],
                    "v": [np.int64(miss.sum())]})

            parts = ds.map_batches(p_ref, batch_format="pandas").to_pandas()
            n, v = _counts(parts)
        else:
            raise ValueError(f"unknown expectation kind {kind!r}")
        rows.append((name, n, v, 1 if v == 0 else 0))
    out = pd.DataFrame(rows, columns=["rule", "n_checked",
                                      "n_violations", "passed"])
    for c in ("n_checked", "n_violations", "passed"):
        out[c] = out[c].astype(np.int64)
    return out
