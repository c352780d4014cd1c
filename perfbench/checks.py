"""Correctness oracles, run outside timing.

* Tier rows: every ``tier=<t>`` file the flagship wrote, against
  ``oracle.rollup.rollup_pandas`` on the same turns — exact, NaN-equal.
* Features: a seeded sample of series (always including Lomb-Scargle-hot
  conversations) against direct ``oracle.graphs.compute_features`` calls,
  relative tolerance ``FEATURE_RTOL``, NaN positions identical.
* Tier queries: row count plus an order-insensitive digest, against a
  plain pandas filter of the same tier files.
* Event-table operators: against their DuckDB twins (``EXTRA_ORACLE_SQL``),
  floats within relative ``SQL_RTOL`` (a few ulps: the engine's and
  DuckDB's quantile interpolation can differ in the last bits), NaN-equal,
  everything else exact.
"""

from __future__ import annotations

import glob
import os
import re

import numpy as np
import pandas as pd

FEATURE_RTOL = 1e-9
SQL_RTOL = 1e-12
FEATURE_ATOL = 1e-12
LS_KWARGS = {"day": 86400.0, "ofac": 2.0}

_PART = re.compile(r"part[-=]([^/.]+)")


def _pid(path: str) -> str:
    return _PART.findall(path)[-1]


def flagship_metrics_ok(m: pd.DataFrame, n_turns: int) -> list[bool]:
    """Per returned partition: computed (not skipped) and non-empty.  If
    the partitions together did not see every input turn, all fail.  (A
    hash partition that received no conversation reports nothing.)"""
    whole = int(m["rows_in"].sum()) == n_turns
    return [whole and not bool(s) and int(r) > 0
            for s, r in zip(m["skipped"], m["rows_in"])]


def _read_files(paths: list[str]) -> pd.DataFrame:
    import pyarrow as pa
    import pyarrow.parquet as pq

    if not paths:
        return pd.DataFrame()
    tables, pids = [], []
    for p in paths:
        t = pq.read_table(p, partitioning=None)
        tables.append(t)
        pids.append(np.full(t.num_rows, _pid(p), dtype=object))
    df = pa.concat_tables(tables, promote_options="default").to_pandas()
    df["_pid"] = np.concatenate(pids)
    return df


def _same(a: pd.Series, b: pd.Series, rtol: float = 0.0) -> np.ndarray:
    if a.dtype.kind in "fiu" and b.dtype.kind in "fiu":
        av, bv = a.to_numpy(np.float64), b.to_numpy(np.float64)
        with np.errstate(invalid="ignore"):
            close = np.abs(av - bv) <= rtol * np.abs(bv)
        return (av == bv) | close | (np.isnan(av) & np.isnan(bv))
    if a.dtype.kind == "M" or b.dtype.kind == "M":
        return (a.to_numpy("datetime64[us]") == b.to_numpy("datetime64[us]"))
    return ((a.astype(str).to_numpy() == b.astype(str).to_numpy())
            | (pd.isna(a).to_numpy() & pd.isna(b).to_numpy()))


def tiers_vs_oracle(out_root: str, turns: pd.DataFrame, tiers) -> set[str]:
    """Partition ids with any tier row missing, extra or different from
    the oracle; ``"missing"`` if an oracle row is in no file at all."""
    from cesium_ray.oracle.rollup import derive_channels_pandas, rollup_pandas

    pts = derive_channels_pandas(turns)
    bad: set[str] = set()
    keys = ["conv_id", "channel", "bucket"]
    for tier in tiers:
        want = rollup_pandas(pts, tier)
        got = _read_files(sorted(glob.glob(
            os.path.join(out_root, f"tier={tier}", "date=*", "*.parquet"))))
        if got.empty:
            bad.add("missing")
            continue
        got["conv_id"] = got["conv_id"].astype(str)
        got["bucket"] = got["bucket"].astype("datetime64[us]")
        want = want.assign(bucket=want["bucket"].astype("datetime64[us]"))
        j = want.merge(got, on=keys, how="outer", suffixes=("_w", "_g"),
                       indicator=True)
        bad.update(j.loc[j["_merge"] == "right_only", "_pid"])
        if (j["_merge"] == "left_only").any():
            bad.add("missing")
        both = j[j["_merge"] == "both"]
        cols = [c for c in want.columns if c not in keys]
        ok = np.ones(len(both), dtype=bool)
        for c in cols:
            if f"{c}_g" not in both:
                bad.add("schema")
                continue
            ok &= _same(both[f"{c}_w"], both[f"{c}_g"])
        bad.update(both.loc[~ok, "_pid"])
    return bad


def _series(pts: pd.DataFrame, conv: str, channel: str):
    """The (t, m) a FeatureExtractor builds for one series."""
    s = pts[(pts["conv_id"] == conv) & (pts["channel"] == channel)]
    s = s.sort_values("turn_idx", kind="mergesort")
    ts = s["ts"].to_numpy("datetime64[us]").astype(np.int64)
    m = s["value"].to_numpy(np.float64)
    ok = ~np.isnan(m)
    ts, m = ts[ok], m[ok]
    return (ts - (ts[0] if len(ts) else 0)) / 1e6, m


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    nan_g, nan_w = np.isnan(got), np.isnan(want)
    if not np.array_equal(nan_g, nan_w):
        return False
    g, w = got[~nan_g], want[~nan_w]
    return bool(np.all(np.abs(g - w) <= FEATURE_ATOL + FEATURE_RTOL * np.abs(w)))


def feature_sample(turns: pd.DataFrame, seed: int, ls_min_turns: int,
                   n_hot: int = 2, n_cold: int = 4) -> tuple[list, list]:
    sizes = turns.groupby("conv_id").size()
    rng = np.random.default_rng(seed + 1)
    hot = sorted(sizes[sizes >= ls_min_turns].index)
    cold = sorted(sizes[(sizes < ls_min_turns) & (sizes >= 3)].index)
    pick = lambda xs, k: [xs[i] for i in sorted(rng.choice(len(xs), min(k, len(xs)), replace=False))]
    return pick(hot, n_hot), pick(cold, n_cold)


def features_vs_oracle(out_root: str, turns: pd.DataFrame, seed: int,
                       ls_features: list, ls_min_turns: int) -> set[str]:
    """Partition ids whose sampled feature rows differ from direct
    ``compute_features`` calls."""
    from cesium_ray.oracle.graphs import GENERAL_FEATURES, compute_features
    from cesium_ray.oracle.rollup import derive_channels_pandas

    hot, cold = feature_sample(turns, seed, ls_min_turns)
    sample = set(hot) | set(cold)
    pts = derive_channels_pandas(turns[turns["conv_id"].isin(sample)])
    bad: set[str] = set()
    for product, convs, feats, ls_kw in (
        ("features", hot + cold, list(GENERAL_FEATURES), None),
        ("features_ls", hot, list(ls_features), LS_KWARGS),
    ):
        got = _read_files(sorted(glob.glob(
            os.path.join(out_root, product, "part=*", "*.parquet"))))
        for conv in convs:
            for channel in ("turn_latency", "text_len"):
                row = (got[(got["conv_id"].astype(str) == conv)
                           & (got["channel"] == channel)]
                       if len(got) else got)
                if len(row) != 1:
                    bad.add(f"{product}:{conv}")
                    continue
                t, m = _series(pts, conv, channel)
                want = compute_features(t, m, None, features_to_use=feats,
                                        ls_kwargs=ls_kw)
                g = row[feats].to_numpy(np.float64)[0]
                w = np.array([want[f] for f in feats], dtype=np.float64)
                if not _close(g, w):
                    bad.add(row["_pid"].iloc[0])
    return bad


def frame_digest(df: pd.DataFrame | None) -> tuple[int, int]:
    """(rows, order-insensitive 64-bit digest) of a frame, with time
    columns as int64 µs and dictionary columns as plain values."""
    if df is None or len(df) == 0:
        return 0, 0
    cols = {}
    for c in sorted(df.columns):
        s = df[c]
        if isinstance(s.dtype, pd.CategoricalDtype):
            s = s.astype(str)
        if s.dtype.kind == "M":
            s = pd.Series(s.to_numpy("datetime64[us]").view(np.int64))
        cols[c] = s.reset_index(drop=True)
    h = pd.util.hash_pandas_object(pd.DataFrame(cols), index=False).to_numpy()
    with np.errstate(over="ignore"):
        return len(df), int(h.sum(dtype=np.uint64))


def tier_query_oracle(tree: str, queries: list, tiers) -> dict:
    import pyarrow as pa
    import pyarrow.parquet as pq

    full = {}
    for tier in tiers:
        paths = sorted(glob.glob(os.path.join(tree, f"tier={tier}", "date=*", "*.parquet")))
        full[tier] = pa.concat_tables(
            [pq.read_table(p, partitioning=None) for p in paths]).to_pandas()
    out = {}
    for q in queries:
        tier, lo, hi = q
        df = full[tier]
        b = df["bucket"].to_numpy("datetime64[us]")
        m = (b >= np.datetime64(lo.to_datetime64(), "us")) & (
            b <= np.datetime64(hi.to_datetime64(), "us"))
        out[q] = frame_digest(df[m])
    return out


def events_from_turns(turns: pd.DataFrame) -> pd.DataFrame:
    """Synthetic turns → the ``events`` table the query functions read:
    a conversation is a user, its first turn a ``signup``, a tool turn a
    ``purchase``; value is the text length."""
    etype = turns["role"].to_numpy(object).copy()
    etype[turns["turn_idx"].to_numpy() == 0] = "signup"
    etype[turns["role"].to_numpy(object) == "tool"] = "purchase"
    return pd.DataFrame({
        "event_id": np.arange(len(turns), dtype=np.int64),
        "ts": turns["ts"].astype("datetime64[us]"),
        "user_id": pd.to_numeric(turns["conv_id"].str.slice(5)).astype(np.int64),
        "event_type": etype.astype(str),
        "value": turns["text"].str.len().astype(np.float64),
        "props": pd.Series([None] * len(turns), dtype=object),
    })


def sql_oracles(sf: str, names) -> dict:
    import duckdb

    from cesium_ray.pipelines.extra_queries import EXTRA_ORACLE_SQL

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf}/events.parquet')")
    out = {name: con.sql(EXTRA_ORACLE_SQL[name]).df() for name in names}
    con.close()
    return out


def frames_equal(got, want: pd.DataFrame) -> bool:
    """Same columns and the same multiset of rows, floats within
    ``SQL_RTOL``.  Rows are matched by sorting on the non-float columns
    first, so a last-bit float difference cannot reorder them."""
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    if sorted(got.columns) != sorted(want.columns) or len(got) != len(want):
        return False
    cols = sorted(want.columns, key=lambda c: (want[c].dtype.kind == "f", c))
    g = got[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    w = want[cols].sort_values(cols, kind="mergesort").reset_index(drop=True)
    return all(bool(_same(g[c], w[c], SQL_RTOL).all()) for c in cols)
