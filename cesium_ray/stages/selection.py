"""Distributed exact rank selection (SURVEY §2.12 X59).

Exact ``quantile_cont``-equivalent quantiles of an int64 column WITHOUT
an all-to-all exchange: iterative histogram refinement (the classic
distributed selection algorithm).  Each pass is a map-side partial
bincount — every block reduces to ≤ ranges × n_bins cells — combined
on the driver (a few KB); the candidate range for each needed order
statistic narrows by ~n_bins× per pass, so int64-µs domains resolve in
2–4 scans.  The final pass pulls only the ≤ ``max_exact`` in-range
values.  Compare stages/tsmath.py::interarrival_quantiles, which ships
every value through an attr-keyed exchange and sorts whole groups in
single tasks: at 10¹²-row scale a handful of rescans with KB-sized
exchanges beats one exchange of everything into |alphabet| tasks.

Exactness: the order statistics are exact ints; the final lerp
``a·(1−frac) + b·frac`` is the repo's duck_quantile formula, bit-equal
to DuckDB quantile_cont.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .partition import group_apply


def _precombine(ds: ray.data.Dataset, keys: list) -> pd.DataFrame:
    """Reduce per-block partial cells through one tiny keyed exchange
    so the DRIVER receives ≤ distinct-key rows, never blocks × cells
    (int partials are order-free)."""
    return group_apply(
        ds,
        lambda df: df.groupby(keys, as_index=False).sum(),
        key=keys[0]).to_pandas()


def grouped_rank_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    val_col: str,
    ps: tuple = (0.5, 0.99),
    n_bins: int = 1024,
    max_exact: int = 65536,
    max_passes: int = 12,
) -> pd.DataFrame:
    """Per group (broadcast-small alphabet): count + exact quantiles of
    an int64 value column.  Returns columns (group_col, n, q_0, q_1, …)
    in ``ps`` order.  ``ds`` is scanned 1 (stats) + ~2-4 (refinement)
    + 1 (exact tail) times — callers should pass a materialized
    dataset so the lineage isn't recomputed per scan."""

    # ---- pass 0: per-group count/min/max (map-side cells) ----
    def stats(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(group_col)[val_col].agg(["count", "min", "max"])
        return g.reset_index().rename(
            columns={"count": "_n", "min": "_lo", "max": "_hi"})

    st = (group_apply(
        ds.map_batches(stats, batch_format="pandas"),
        lambda df: df.groupby(group_col, as_index=False).agg(
            _n=("_n", "sum"), _lo=("_lo", "min"), _hi=("_hi", "max")),
        key=group_col).to_pandas())
    if st.empty:
        return pd.DataFrame(
            {group_col: pd.Series(dtype=object),
             "n": pd.Series(dtype="int64"),
             **{f"q_{i}": pd.Series(dtype="float64")
                for i in range(len(ps))}})
    st = st.groupby(group_col).agg(
        n=("_n", "sum"), lo=("_lo", "min"), hi=("_hi", "max"))

    # ---- needed order statistics: rank k (0-based) per (group, p) ----
    # ranges: rid → [group, k, lo, hi, below, cnt_in, resolved_value]
    ranges: dict[int, dict] = {}
    need: dict[tuple, int] = {}  # (group, k) → rid
    targets = []  # (group, p, k_lo, k_hi, frac)
    for grp, row in st.iterrows():
        n = int(row["n"])
        for p in ps:
            pos = (n - 1) * p
            fl = np.floor(pos)
            k0, k1 = int(fl), int(np.ceil(pos))
            targets.append((grp, p, k0, k1, pos - fl))
            for k in {k0, k1}:
                if (grp, k) not in need:
                    rid = len(ranges)
                    need[(grp, k)] = rid
                    ranges[rid] = {
                        "g": grp, "k": k,
                        "lo": int(row["lo"]), "hi": int(row["hi"]),
                        "below": 0, "cnt": n, "val": None,
                    }

    def active_ids():
        return [r for r, d in ranges.items()
                if d["val"] is None and d["cnt"] > max_exact
                and d["hi"] > d["lo"]]

    # ---- refinement passes ----
    for _ in range(max_passes):
        act = active_ids()
        if not act:
            break
        spec = [(r, ranges[r]["g"], ranges[r]["lo"], ranges[r]["hi"],
                 max(1, -(-(ranges[r]["hi"] - ranges[r]["lo"] + 1)
                          // n_bins)))
                for r in act]

        def hist(df: pd.DataFrame, spec=spec) -> pd.DataFrame:
            gv = df[group_col].to_numpy()
            v = df[val_col].to_numpy(np.int64)
            rids, bins, cnts = [], [], []
            for rid, grp, lo, hi, step in spec:  # ≤ groups × |ps| × 2
                m = (gv == grp) & (v >= lo) & (v <= hi)
                if not m.any():
                    continue
                b = (v[m] - lo) // step
                c = np.bincount(b, minlength=n_bins)
                nz = np.flatnonzero(c)
                rids.append(np.full(len(nz), rid, np.int64))
                bins.append(nz.astype(np.int64))
                cnts.append(c[nz].astype(np.int64))
            if not rids:
                return pd.DataFrame({"rid": pd.Series(dtype="int64"),
                                     "bin": pd.Series(dtype="int64"),
                                     "cnt": pd.Series(dtype="int64")})
            return pd.DataFrame({"rid": np.concatenate(rids),
                                 "bin": np.concatenate(bins),
                                 "cnt": np.concatenate(cnts)})

        parts = (_precombine(
            ds.map_batches(hist, batch_format="pandas"), ["rid", "bin"])
            .groupby(["rid", "bin"], as_index=False)["cnt"].sum())
        for rid, grp, lo, hi, step in spec:
            d = ranges[rid]
            sub = parts[parts["rid"] == rid].sort_values("bin")
            cum = sub["cnt"].cumsum().to_numpy()
            want = d["k"] - d["below"]  # rank within [lo, hi]
            j = int(np.searchsorted(cum, want, side="right"))
            b = int(sub["bin"].to_numpy()[j])
            d["below"] += int(cum[j - 1]) if j else 0
            d["cnt"] = int(sub["cnt"].to_numpy()[j])
            d["lo"] = lo + b * step
            d["hi"] = min(hi, lo + (b + 1) * step - 1)

    # ---- final exact pass over the narrowed ranges ----
    act = [r for r, d in ranges.items() if d["val"] is None]
    if act:
        spec = [(r, ranges[r]["g"], ranges[r]["lo"], ranges[r]["hi"])
                for r in act]

        def tail(df: pd.DataFrame, spec=spec) -> pd.DataFrame:
            gv = df[group_col].to_numpy()
            v = df[val_col].to_numpy(np.int64)
            rids, vals = [], []
            for rid, grp, lo, hi in spec:
                m = (gv == grp) & (v >= lo) & (v <= hi)
                if m.any():
                    vals.append(v[m])
                    rids.append(np.full(int(m.sum()), rid, np.int64))
            if not rids:
                return pd.DataFrame({"rid": pd.Series(dtype="int64"),
                                     "v": pd.Series(dtype="int64")})
            return pd.DataFrame({"rid": np.concatenate(rids),
                                 "v": np.concatenate(vals)})

        got = ds.map_batches(tail, batch_format="pandas").to_pandas()
        for rid, *_ in spec:
            d = ranges[rid]
            vv = np.sort(got[got["rid"] == rid]["v"].to_numpy(np.int64))
            d["val"] = int(vv[d["k"] - d["below"]])

    # ---- assemble quantile_cont lerp per (group, p) ----
    rows: dict = {}
    for grp, p, k0, k1, frac in targets:
        a = float(ranges[need[(grp, k0)]]["val"])
        b = float(ranges[need[(grp, k1)]]["val"])
        rows.setdefault(grp, []).append(a * (1 - frac) + b * frac)
    out = pd.DataFrame({
        group_col: pd.Series(list(rows), dtype=object),
        "n": pd.Series([int(st.loc[g, "n"]) for g in rows], dtype="int64"),
        **{f"q_{i}": pd.Series([rows[g][i] for g in rows],
                               dtype="float64")
           for i in range(len(ps))},
    })
    return out.sort_values(group_col).reset_index(drop=True)
