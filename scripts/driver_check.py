#!/usr/bin/env python
"""Local simulation of the driver's verify: entry() smoke at sf0.001,
every queries() entry vs its oracle_sql() via DuckDB at sf0.01
(row-count + schema + order-insensitive value comparison).

Every query line also carries the sha256 of the normalized engine
result (second field), rows-only queries included, so two commits'
results compare with one diff:

    python scripts/driver_check.py > a.txt   # at each commit
    diff <(awk '{print $1, $2}' a.txt) <(awk '{print $1, $2}' b.txt)
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd


def norm(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    df = df[cols].copy()
    return df.sort_values(cols, kind="mergesort").reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """sha256 of ``norm(df)``: ``hash_pandas_object`` of the values plus
    the column names and dtypes, since the driver's hasher tells an
    int64 column from a float64 one with equal values."""
    g = norm(df)
    h = hashlib.sha256(
        pd.util.hash_pandas_object(g, index=False).to_numpy().tobytes())
    h.update(repr([(c, str(t)) for c, t in g.dtypes.items()]).encode())
    return h.hexdigest()


def main(sf="/root/testdata/sf0.01", only=None, num_cpus=None):
    import ray

    if num_cpus is None:
        # at least 4 logical CPUs: Ray Data's hash joins and the
        # curate_docs actor pools hang on a 1- or 2-CPU cluster
        num_cpus = max(4, min(16, len(os.sched_getaffinity(0))))
    ray.init(address="local", num_cpus=int(num_cpus),
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    if only is None:
        t0 = time.time()
        m = E.entry()
        print(f"entry(): {len(m)} rows in {time.time()-t0:.1f}s; "
              f"turns={m.rows_in.sum()}, rollup_rows={m.rollup_rows.sum()}")

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")

    Q, S = E.queries(), E.oracle_sql()
    if only is not None:
        want_names = set(only.split(","))
        Q = {k: v for k, v in Q.items() if k in want_names}
    fails = 0
    for name, qfn in Q.items():
        t0 = time.time()
        try:
            got = qfn(sf)
            if not isinstance(got, pd.DataFrame):
                got = got.to_pandas() if hasattr(got, "to_pandas") else pd.DataFrame(got)
            dt = time.time() - t0
            sha = digest(got)
            if name not in S:
                print(f"  {name:24s} {sha} rows-only: {got.shape} in {dt:.1f}s")
                continue
            want = con.sql(S[name]).df()
            g, w = norm(got), norm(want)
            if g.shape != w.shape or list(g.columns) != list(w.columns):
                print(f"  {name:24s} {sha} SHAPE/SCHEMA MISMATCH ray={got.shape} "
                      f"{sorted(got.columns)} sql={want.shape} {sorted(want.columns)}")
                fails += 1
                continue
            bad = []
            dtype_warn = []
            for c in g.columns:
                a, b = g[c], w[c]
                # The driver's hasher is dtype/format-sensitive: an
                # int64 engine column vs a float64 oracle column
                # (e.g. DuckDB HUGEINT from sum(BIGINT) pandas-casts
                # to float64) hash-mismatches even when values are
                # numerically equal.  Treat int-vs-float kind skew as
                # a failure, not a masked astype(float) pass.
                ka, kb = a.dtype.kind, b.dtype.kind
                if ka != kb and {ka, kb} <= {"i", "u", "f", "O"}:
                    dtype_warn.append((c, str(a.dtype), str(b.dtype)))
                if a.dtype.kind == "f" or b.dtype.kind == "f":
                    # EXACT — the driver hashes values, so local green
                    # must mean bit-equal after round6, not "close"
                    av, bv = a.astype(float).to_numpy(), b.astype(float).to_numpy()
                    eq = (av == bv) | (np.isnan(av) & np.isnan(bv))
                else:
                    eq = (a == b) | (pd.isna(a) & pd.isna(b))
                ne = int((~np.asarray(eq)).sum())
                if ne:
                    bad.append((c, ne))
            status = "OK" if not bad else f"VALUE DIFFS {bad}"
            if dtype_warn:
                status += f" DTYPE SKEW {dtype_warn}"
            fails += bool(bad) or bool(dtype_warn)
            print(f"  {name:24s} {sha} {status} {g.shape} in {dt:.1f}s")
        except Exception as e:
            fails += 1
            print(f"  {name:24s} ERROR {type(e).__name__}: {str(e)[:160]}")
    ray.shutdown()
    print("FAILURES:", fails)
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main(*sys.argv[1:])
