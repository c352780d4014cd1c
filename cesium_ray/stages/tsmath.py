"""TSDB rollup math Ray Data lacks natively: OHLC candlesticks,
time-weighted averages (LOCF integral), population z-score anomaly
flagging, diurnal (hour-of-day) profiles, and per-series trend
correlation.

Every keyed operator here (and in analytics.py and window.py) rides
the engine's one wide primitive (``group_apply``, a key-hash exchange)
inside one per-key kernel frame (stages/partition.py): the kernel sorts
its partition once with ``Segments`` and reduces each key's segment
with its methods or a bincount, and the operator hands the result to
``collect_sorted``.  All are defined in exact integer space — values
are k/100-quantized doubles and timestamps are int64 microseconds — so
every emitted number is bit-reproducible by a DuckDB oracle that
mirrors the same operation order (SURVEY.md §2.12).

Scale notes: each operator performs exactly one hash exchange keyed
on the series id; per-partition work is O(n log n) in the partition,
no driver-side materialization; diurnal_profile is a map-side partial
combine (24×types cells per block) followed by a tiny final groupby.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from ..schema import EVENT_ID, EVENT_TYPE, TS, USER_ID, VALUE
from .partition import Segments, collect_sorted, empty_frame, group_apply

_US = np.int64(1_000_000)


def _quantize(v: np.ndarray) -> np.ndarray:
    """Values are k/100-quantized doubles; work in exact int64 k-space."""
    return np.rint(np.asarray(v, np.float64) * 100.0).astype(np.int64)


def ohlc_rollup(
    ds: ray.data.Dataset,
    bucket_s: int = 3600,
) -> ray.data.Dataset:
    """Per (series, bucket): open/high/low/close/count — the
    candlestick rollup.  Open/close take the first/last row by
    (ts, order); high/low are value extrema.  No float arithmetic, so
    output doubles are the exact source values."""
    step = np.int64(bucket_s) * _US

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        b = (sg[TS] // step) * step
        v = sg[VALUE]
        starts = np.flatnonzero(~sg.same() | np.r_[True, b[1:] != b[:-1]])
        ends = np.r_[starts[1:], len(v)]
        return pd.DataFrame({
            USER_ID: sg[USER_ID][starts],
            "bucket_us": b[starts],
            "open": v[starts],
            "high": np.maximum.reduceat(v, starts),
            "low": np.minimum.reduceat(v, starts),
            "close": v[ends - 1],
            "n": (ends - starts).astype(np.int64),
        })

    return group_apply(ds, fn, key=USER_ID)


def time_weighted_avg(
    ds: ray.data.Dataset,
    bucket_s: int = 86400,
) -> ray.data.Dataset:
    """Per (series, bucket): the LOCF time-weighted average — each
    point holds its value until the next point in the same bucket;
    TWA = Σ v_i·Δt_i / span.  A zero-span bucket (single point or all
    ties) degrades to the plain mean.  Accumulated as Σ k·Δt_us in
    int64 (exact), divided once at the end."""
    step = np.int64(bucket_s) * _US

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        tus = sg[TS]
        b = (tus // step) * step
        k = _quantize(sg[VALUE])
        starts = np.flatnonzero(~sg.same() | np.r_[True, b[1:] != b[:-1]])
        ends = np.r_[starts[1:], len(k)]
        # Δt to the NEXT point inside the same (series, bucket); last
        # point of each bucket contributes 0 (its value ends the span).
        dt = np.r_[tus[1:] - tus[:-1], np.int64(0)]
        dt[ends - 1] = 0
        kdt = np.add.reduceat(k * dt, starts)
        span = np.add.reduceat(dt, starts)
        sk = np.add.reduceat(k, starts)
        counts = ends - starts
        with np.errstate(invalid="ignore", divide="ignore"):
            twa = np.where(
                span > 0,
                kdt.astype(np.float64) / (span.astype(np.float64) * 100.0),
                sk.astype(np.float64) / (counts.astype(np.float64) * 100.0),
            )
        return pd.DataFrame({
            USER_ID: sg[USER_ID][starts],
            "bucket_us": b[starts],
            "twa": twa,
            "span_us": span.astype(np.int64),
            "n": counts.astype(np.int64),
        })

    return group_apply(ds, fn, key=USER_ID)


def zscore_anomalies(
    ds: ray.data.Dataset,
    thresh: float = 2.5,
) -> ray.data.Dataset:
    """Flag rows whose value sits > ``thresh`` population standard
    deviations from the per-series mean.  µ and σ² come from exact
    int64 Σk / Σk² with the float expression mirrored by the SQL twin
    (skk/n − (sk/n)², IEEE-identical); σ = 0 series flag nothing."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=(EVENT_ID,))
        k = _quantize(sg[VALUE])
        gid = sg.gid
        # exact int64 accumulation (reduceat, not float bincount) so
        # the one cast-to-double matches SQL's sum(BIGINT)→DOUBLE even
        # when a series' Σk² exceeds 2^53
        cnt = sg.n.astype(np.float64)
        sk = sg.sum(k).astype(np.float64)
        skk = sg.sum(k * k).astype(np.float64)
        mu = sk / cnt
        var = skk / cnt - (sk / cnt) * (sk / cnt)
        with np.errstate(invalid="ignore", divide="ignore"):
            sigma = np.sqrt(var)
            z = (k - mu[gid]) / sigma[gid]
        keep = (sigma[gid] > 0.0) & (np.abs(z) > thresh)
        return (df[[USER_ID, EVENT_ID, VALUE]].iloc[sg.perm[keep]]
                .assign(z=z[keep]).reset_index(drop=True))

    return group_apply(ds, fn, key=USER_ID)


def diurnal_profile(ds: ray.data.Dataset) -> pd.DataFrame:
    """Mean value and count by (group, UTC hour-of-day) — the seasonal
    baseline profile.  Map-side partial combine: each block reduces to
    ≤ groups×24 cells of exact int sums, so the final exchange carries
    a few hundred rows regardless of input size."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        hour = ((tus // (3600 * _US)) % 24).astype(np.int64)
        k = _quantize(df[VALUE].to_numpy())
        gv, gcode = np.unique(df[EVENT_TYPE].to_numpy(), return_inverse=True)
        cell = gcode * 24 + hour
        ncell = len(gv) * 24
        cnt = np.bincount(cell, minlength=ncell)
        sk = np.bincount(cell, weights=k, minlength=ncell).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({
            EVENT_TYPE: gv[nz // 24],
            "hour": (nz % 24).astype(np.int64),
            "_cnt": cnt[nz].astype(np.int64),
            "_sk": sk[nz],
        })

    # tiny keyed pre-combine so the DRIVER sees ≤ groups×24 cells, not
    # blocks × cells (at 10⁶ input blocks the raw partials would be
    # driver-sized); int sums are order-free so exactness is unchanged
    cells = ds.map_batches(partial, batch_format="pandas")
    parts = group_apply(
        cells,
        lambda df: df.groupby([EVENT_TYPE, "hour"], as_index=False).sum(),
        key=EVENT_TYPE).to_pandas()
    agg = parts.groupby([EVENT_TYPE, "hour"], as_index=False).agg(
        n=("_cnt", "sum"), sk=("_sk", "sum"))
    agg["mean_value"] = agg["sk"].to_numpy(np.float64) / (
        agg["n"].to_numpy(np.float64) * 100.0)
    return agg[[EVENT_TYPE, "hour", "n", "mean_value"]]


def trend_corr(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per series: Pearson correlation between value and elapsed time
    (whole seconds since the series' first point) — the monotone-trend
    detector.  x = k (int), y = Δt_s (int floor): all five sums are
    exact int64; the final expression mirrors the SQL twin so the
    doubles agree bitwise.  Degenerate series (σx·σy = 0, or a single
    point) emit NaN."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=(TS,))
        tus = sg[TS]
        x = _quantize(sg[VALUE])
        y = (tus - sg.min(tus)[sg.gid]) // _US  # whole seconds, exact
        # exact int64 sums via reduceat (sorted runs), one cast each —
        # mirrors SQL sum(BIGINT)→CAST(DOUBLE); per-series bound:
        # Σy² < 2^63 (span_s² × n), comfortably true for µs-era series
        n = sg.n.astype(np.float64)
        sx = sg.sum(x).astype(np.float64)
        sy = sg.sum(y).astype(np.float64)
        sxx = sg.sum(x * x).astype(np.float64)
        syy = sg.sum(y * y).astype(np.float64)
        sxy = sg.sum(x * y).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            denom = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
            r = np.where(denom > 0.0, (n * sxy - sx * sy) / denom, np.nan)
        return pd.DataFrame({USER_ID: sg.keys, "n": sg.n, "trend_r": r})

    return group_apply(ds, fn, key=USER_ID)


def irate(ds: ray.data.Dataset) -> ray.data.Dataset:
    """PromQL ``irate``: instantaneous rate from the LAST TWO samples
    of each series (reset-aware: a negative delta means the counter
    restarted, so the current value is the increase).  Single-point
    series emit NaN.  Pure selection + one exact-int delta, so the
    row_number-based SQL twin is bit-identical."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        tus = sg[TS]
        k = _quantize(sg[VALUE])
        li = sg.ends - 1                     # last row per series
        multi = sg.n > 1                     # series with ≥ 2 points
        pi = li - 1                          # previous row (valid iff multi)
        d = np.where(multi, k[li] - k[np.maximum(pi, 0)], 0)
        inc = np.where(d >= 0, d, k[li])     # reset → current value
        dt_s = np.where(multi, (tus[li] - tus[np.maximum(pi, 0)]), 0) / 1e6
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(multi & (dt_s > 0),
                         (inc.astype(np.float64) / 100.0) / dt_s, np.nan)
        return pd.DataFrame({
            USER_ID: sg.keys,
            "last_ts": sg.last(sg[df[TS].to_numpy()]),
            "irate_per_sec": r,
        })

    return group_apply(ds, fn, key=USER_ID)


def ewma_last(ds: ray.data.Dataset, alpha: float = 0.3) -> ray.data.Dataset:
    """Final EWMA level per series (yᵢ = α·xᵢ + (1−α)·yᵢ₋₁, y₀ = x₀),
    the standard smoothing baseline.  Rows-only vs SQL (the recurrence
    is order-dependent float math), closed-form-tested instead: the
    kernel evaluates y_n = Σ wⱼ xⱼ with wⱼ = α(1−α)^(n−1−j) (w₀ lacks
    the α factor) via one vectorized weight product per series —
    still no per-row Python."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha in (0, 1]")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        v = sg[VALUE]
        gid, counts = sg.gid, sg.n
        # position from the END of each series: n-1-j
        from_end = (counts[gid] - 1) - (np.arange(len(v)) - sg.starts[gid])
        w = alpha * np.power(1.0 - alpha, from_end)
        w[sg.starts] = np.power(1.0 - alpha, counts - 1)  # y0 term
        lvl = np.bincount(gid, weights=w * v, minlength=len(counts))
        return pd.DataFrame({USER_ID: sg.keys, "ewma": lvl, "n": counts})

    return group_apply(ds, fn, key=USER_ID)


def _deltas(df: pd.DataFrame) -> pd.DataFrame:
    """Per-partition kernel: (event_type, int64-µs lead-delta) rows for
    consecutive same-(user_id, event_type) events in (ts, event_id)
    order."""
    ac, auniq = pd.factorize(df[EVENT_TYPE])
    sg = Segments(df, order=(ac, TS, EVENT_ID))
    a, t = sg[ac], sg[TS]
    same = sg.same()[1:] & (a[1:] == a[:-1])
    return pd.DataFrame({EVENT_TYPE: np.asarray(auniq)[a[:-1][same]],
                         "_dt": t[1:][same] - t[:-1][same]})


def interarrival_quantiles_scan(ds: ray.data.Dataset) -> pd.DataFrame:
    """``interarrival_quantiles`` with the 10¹²-row quantile plan:
    the same key-hash delta exchange, then exact per-attr p50/p99 via
    histogram-refinement rank selection
    (stages/selection.py::grouped_rank_quantiles) instead of shipping
    every delta through an attr-keyed exchange into |alphabet| tasks.
    Bit-identical output (same duck_quantile lerp)."""
    from .selection import grouped_rank_quantiles

    d = group_apply(ds, _deltas, key=USER_ID).materialize()
    out = grouped_rank_quantiles(d, EVENT_TYPE, "_dt", ps=(0.5, 0.99))
    out = out.rename(columns={"n": "n_gaps", "q_0": "p50_us",
                              "q_1": "p99_us"})
    # Python round(x, 6), matching interarrival_quantiles' qtl exactly
    out["p50_us"] = [round(float(x), 6) for x in out["p50_us"]]
    out["p99_us"] = [round(float(x), 6) for x in out["p99_us"]]
    return out


def interarrival_quantiles(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per ``event_type``: count and exact p50/p99 of the inter-arrival
    time (µs) between consecutive same-``event_type`` events within each
    key's (ts, order)-sorted stream — lead() deltas, quantile_cont
    lerp (oracle/rollup.py::duck_quantile, bit-equal to DuckDB).

    Two exchanges by design: a key-hash exchange computes every delta
    vectorized (lexsort + shifted diff), emitting (attr, delta) rows;
    an attr-keyed exchange then owns each attr's full delta set for
    the exact global quantile.  Deltas are int64 µs (< 2⁵³, so the
    float64 lerp is exact); the alphabet is broadcast-small but the
    delta sets are not, hence the second exchange instead of a
    driver-side merge.  The attr exchange lands each attr's whole
    delta set in ONE task — fine for sf-scale corpora; at 10¹²-row
    scale use ``interarrival_quantiles_scan`` (histogram-refinement
    rank selection, stages/selection.py), which produces identical
    bits with only map-side partials."""
    from ..oracle.rollup import duck_quantile

    d = group_apply(ds, _deltas, key=USER_ID)

    def qtl(df: pd.DataFrame) -> pd.DataFrame:
        names, ns, p50s, p99s = [], [], [], []
        for a, g in df.groupby(EVENT_TYPE):  # bounded by the event_type alphabet
            v = np.sort(g["_dt"].to_numpy(np.float64))
            names.append(a)
            ns.append(len(v))
            p50s.append(round(duck_quantile(v, 0.5), 6))
            p99s.append(round(duck_quantile(v, 0.99), 6))
        return pd.DataFrame({
            EVENT_TYPE: pd.Series(names, dtype=object),
            "n_gaps": pd.Series(ns, dtype="int64"),
            "p50_us": pd.Series(p50s, dtype="float64"),
            "p99_us": pd.Series(p99s, dtype="float64"),
        })

    return group_apply(d, qtl, key=EVENT_TYPE)


def dwell_time(ds: ray.data.Dataset) -> pd.DataFrame:
    """Time-in-state: total µs spent in each ``event_type`` state, where each
    consecutive pair of a key's (ts, order)-sorted events attributes
    the elapsed time to the EARLIER event's attr (a key's last event
    contributes nothing) — the role/tool time-attribution view of a
    transcript stream.  One key-hash exchange; per partition lexsort +
    shifted diff + bincount by attr code, so each partition reduces to
    ≤ |alphabet| exact-int64 cells before the driver combine."""

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        ac, auniq = pd.factorize(df[EVENT_TYPE])
        sg = Segments(df)
        a, t = sg[ac], sg[TS]
        same = sg.same()[1:]
        src = a[:-1][same]
        dt = (t[1:] - t[:-1])[same]
        na = len(auniq)
        n = np.bincount(src, minlength=na)
        us = np.bincount(src, weights=dt, minlength=na).astype(np.int64)
        nz = np.flatnonzero(n)
        return pd.DataFrame({EVENT_TYPE: np.asarray(auniq)[nz],
                             "_n": n[nz].astype(np.int64),
                             "_us": us[nz]})

    parts = group_apply(ds, cells, key=USER_ID).to_pandas()
    if parts.empty:
        return pd.DataFrame({EVENT_TYPE: pd.Series(dtype=object),
                             "n": pd.Series(dtype="int64"),
                             "total_us": pd.Series(dtype="int64")})
    out = (parts.groupby(EVENT_TYPE, as_index=False)[["_n", "_us"]].sum()
           .rename(columns={"_n": "n", "_us": "total_us"}))
    out["n"] = out["n"].astype(np.int64)
    out["total_us"] = out["total_us"].astype(np.int64)
    return out.sort_values(EVENT_TYPE).reset_index(drop=True)


def weekly_profile(ds: ray.data.Dataset) -> pd.DataFrame:
    """Count + exact mean value by (group, day-of-week, UTC
    hour-of-day) — the 7×24 seasonality grid extending
    diurnal_profile.  dow uses pure epoch arithmetic
    (``(epoch_day + 4) % 7``, 0 = Sunday) so the SQL twin needs no
    engine-specific weekday function.  Map-side partial combine: each
    block reduces to ≤ groups×168 exact-int cells; NaN values are
    excluded from both count and sum (SQL aggregate-skips-NULL
    semantics)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        v = df[VALUE].to_numpy(np.float64)
        ok = ~np.isnan(v)
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)[ok]
        k = _quantize(v[ok])
        day = tus // (86400 * _US)
        dow = ((day + 4) % 7).astype(np.int64)
        hour = ((tus // (3600 * _US)) % 24).astype(np.int64)
        gv, gcode = np.unique(df[EVENT_TYPE].to_numpy()[ok],
                              return_inverse=True)
        cell = (gcode * 7 + dow) * 24 + hour
        ncell = len(gv) * 168
        cnt = np.bincount(cell, minlength=ncell)
        sk = np.bincount(cell, weights=k, minlength=ncell).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pd.DataFrame({
            EVENT_TYPE: gv[nz // 168],
            "dow": ((nz % 168) // 24).astype(np.int64),
            "hour": (nz % 24).astype(np.int64),
            "_cnt": cnt[nz].astype(np.int64),
            "_sk": sk[nz],
        })

    # keyed pre-combine: driver sees ≤ groups×168 cells, never
    # blocks × cells (see diurnal_profile)
    cells = ds.map_batches(partial, batch_format="pandas")
    parts = group_apply(
        cells,
        lambda df: df.groupby([EVENT_TYPE, "dow", "hour"],
                              as_index=False).sum(),
        key=EVENT_TYPE).to_pandas()
    if parts.empty:
        return pd.DataFrame({EVENT_TYPE: pd.Series(dtype=object),
                             "dow": pd.Series(dtype="int64"),
                             "hour": pd.Series(dtype="int64"),
                             "n": pd.Series(dtype="int64"),
                             "mean_value": pd.Series(dtype="float64")})
    agg = parts.groupby([EVENT_TYPE, "dow", "hour"], as_index=False).agg(
        n=("_cnt", "sum"), sk=("_sk", "sum"))
    agg["n"] = agg["n"].astype(np.int64)
    agg["mean_value"] = agg["sk"].to_numpy(np.float64) / (
        agg["n"].to_numpy(np.float64) * 100.0)
    return (agg[[EVENT_TYPE, "dow", "hour", "n", "mean_value"]]
            .sort_values([EVENT_TYPE, "dow", "hour"]).reset_index(drop=True))


def run_stats(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key run-length structure of an attribute stream
    (gaps-and-islands over VALUE changes, complementing
    ``interval_merge``'s time-gap islands): for each key's
    (ts, order)-sorted events, a *run* is a maximal block of
    consecutive equal ``event_type`` values.  Emits per key: event count,
    run count, longest run, first/last attr, and mean run length —
    the turn-taking shape of a transcript (role-alternation
    violations show up as max_run > 1; cesium has no analogue, this
    is axis-B transcript structure per SURVEY.md §2.13).

    One key-hash exchange; a key's rows are whole within its
    partition, so each partition emits FINAL per-key rows (no driver
    combine).  Per partition: one lexsort + boolean diffs +
    ``maximum.reduceat`` over run lengths — no per-row Python.
    """

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "n_runs": "int64",
            "max_run": "int64",
            "first_type": object,
            "last_type": object,
            "mean_run_len": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        ac, auniq = pd.factorize(df[EVENT_TYPE])
        sg = Segments(df)
        k, a = sg.codes, sg[ac]
        run_brk = ~sg.same() | np.r_[True, a[1:] != a[:-1]]
        run_start = np.flatnonzero(run_brk)
        run_len = np.diff(np.r_[run_start, len(k)])
        run_key = k[run_start]
        # runs are key-contiguous (k is sorted): reduceat at each
        # key's first run gives that key's longest run
        first_run = np.flatnonzero(np.r_[True, run_key[1:] != run_key[:-1]])
        max_run = np.maximum.reduceat(run_len, first_run)
        n_runs = np.diff(np.r_[first_run, len(run_len)])
        au = np.asarray(auniq, dtype=object)
        return pd.DataFrame({
            USER_ID: sg.keys,
            "n_events": sg.n,
            "n_runs": n_runs.astype(np.int64),
            "max_run": max_run.astype(np.int64),
            "first_type": au[sg.first(a)],
            "last_type": au[sg.last(a)],
            "mean_run_len": (sg.n.astype(np.float64)
                             / n_runs.astype(np.float64)),
        })

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def time_since_event(ds: ray.data.Dataset, marker: str) -> pd.DataFrame:
    """Conditional LOCF enrichment: for every event, the exact µs
    elapsed since the same key's most recent STRICTLY-EARLIER event of
    type ``marker`` (NaN when none precedes it) — "time since last
    error/checkpoint", the event-aligned counterpart of the grid
    gap-fill's carry-forward.

    One key-hash exchange; per partition one lexsort plus a global
    ``maximum.accumulate`` over marker row indices — the per-key reset
    falls out of comparing the carried index against each row's key
    segment start, no per-key loop."""

    cols = {USER_ID: "int64", EVENT_ID: "int64", "since_us": "float64"}

    def enrich(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        t, m = sg[TS], sg[df[EVENT_TYPE].to_numpy() == marker]
        n = len(t)
        last_mark = np.maximum.accumulate(np.where(m, np.arange(n), -1))
        prior = np.r_[-1, last_mark[:-1]]  # strictly earlier
        valid = prior >= sg.starts[sg.gid]
        since = np.full(n, np.nan)
        since[valid] = (t[valid] - t[prior[valid]]).astype(np.float64)
        return pd.DataFrame({USER_ID: sg[USER_ID],
                             EVENT_ID: sg[EVENT_ID],
                             "since_us": since})

    return collect_sorted(group_apply(ds, enrich, key=USER_ID), cols,
                          by=[USER_ID, EVENT_ID])


def lttb_downsample(ds: ray.data.Dataset, n_out: int = 10) -> pd.DataFrame:
    """Largest-Triangle-Three-Buckets downsampling (Steinarsson 2013),
    the standard shape-preserving visualization reducer, per key:
    keep first and last point; split the interior into ``n_out − 2``
    buckets (arithmetic assignment b = (rn·(n_out−2) − 1) // (n−2));
    per bucket keep the point maximizing the triangle area against
    the previously selected point and the NEXT bucket's average.

    Exactness (the oracle is a per-key recursive CTE): inputs are
    exact integers — x = µs offset from the key's first point, y =
    value cents — and the area comparison uses the count-scaled form
    ``|(xm−xs)·(SY−c·ys) − (SX−c·xs)·(ym−ys)|`` (SX/SY/c = next
    bucket's integer sums/count), so every operand is an
    integer-valued double and each IEEE op rounds identically in
    numpy and SQL; ties break to the smallest rn on both sides.
    Keys with ≤ ``n_out`` points (or n_out < 3) keep every point.

    One key-hash exchange; the per-key bucket walk is a Python loop
    bounded by keys × buckets (n_out ≪ n), with vectorized area
    scoring inside each bucket."""
    if n_out < 3:
        raise ValueError("n_out must be ≥ 3")
    M = n_out - 2

    cols = {USER_ID: "int64", "rn": "int64", "x_us": "int64", "k": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        # null values carry no shape: drop BEFORE rn assignment
        # (mirror: WHERE value IS NOT NULL) — an unfiltered NaN would
        # rint→INT64_MIN and hijack every bucket's area argmax
        ok = ~np.isnan(df[VALUE].to_numpy(np.float64))
        if not ok.all():
            df = df[ok]
            if not len(df):
                return empty_frame(cols)
        sg = Segments(df)
        t, y = sg[TS], _quantize(sg[VALUE])
        out_key, out_rn, out_x, out_y = [], [], [], []
        for s, e, uid in zip(sg.starts, sg.ends, sg.keys):
            n = e - s
            x = (t[s:e] - t[s]).astype(np.float64)  # exact int-valued
            yy = y[s:e].astype(np.float64)
            if n <= n_out:
                sel = np.arange(n)
            else:
                rn_mid = np.arange(1, n - 1)
                b = (rn_mid * M - 1) // (n - 2)
                # bucket integer sums (exact in float64: |Σ| < 2^53)
                sx = np.bincount(b, weights=x[1:n - 1], minlength=M)
                sy = np.bincount(b, weights=yy[1:n - 1], minlength=M)
                cb = np.bincount(b, minlength=M).astype(np.float64)
                edges = np.searchsorted(b, np.arange(M + 1))
                sel_list = [0]
                for bb in range(M):
                    lo, hi = edges[bb] + 1, edges[bb + 1] + 1
                    xm, ym = x[lo:hi], yy[lo:hi]
                    if bb + 1 < M:
                        SX, SY, c = sx[bb + 1], sy[bb + 1], cb[bb + 1]
                    else:
                        SX, SY, c = x[n - 1], yy[n - 1], 1.0
                    xs, ys = x[sel_list[-1]], yy[sel_list[-1]]
                    score = np.abs((xm - xs) * (SY - c * ys)
                                   - (SX - c * xs) * (ym - ys))
                    sel_list.append(lo + int(np.argmax(score)))
                sel_list.append(n - 1)
                sel = np.asarray(sel_list)
            out_key.extend([uid] * len(sel))
            out_rn.extend(sel.tolist())
            out_x.extend(x[sel].astype(np.int64).tolist())
            out_y.extend(y[s:e][sel].tolist())
        return pd.DataFrame({USER_ID: np.asarray(out_key),
                             "rn": np.asarray(out_rn, dtype=np.int64),
                             "x_us": np.asarray(out_x, dtype=np.int64),
                             "k": np.asarray(out_y, dtype=np.int64)})

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols,
                          by=[USER_ID, "rn"])


def linear_trend_per_key(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key OLS trend (slope in value-units/second + intercept) of
    value against time — cesium's ``linear_trend`` as a standalone
    driver-checkable rollup.  All four moment sums (Σx, Σy, Σxy, Σx²)
    accumulate as exact int64 with x = whole-second offsets from the
    key's first point and y = value cents, so the only floats are the
    two mirrored closing expressions
    ``slope = (n·Σxy − Σx·Σy) / (n·Σx² − Σx²·…) / 100`` and the
    intercept — bit-reproducible in SQL.  Zero time spread → NaN.
    NaN values propagate (SQL twin emits NULL for those keys)."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "slope_per_s": "float64",
            "intercept": "float64"}

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=(TS,))
        tus, v = sg[TS], sg[VALUE]
        x = (tus - sg.first(tus)[sg.gid]) // 1_000_000  # whole seconds
        nan = np.isnan(v)
        k = np.zeros(len(v), dtype=np.int64)
        k[~nan] = np.rint(v[~nan] * 100.0).astype(np.int64)
        n = sg.n
        sx, sy, sxy, sxx = sg.sum(x), sg.sum(k), sg.sum(x * k), sg.sum(x * x)
        # int64 products wrap silently past 2^63 — guard in Python
        # ints (the SQL twin would raise a DuckDB overflow instead)
        bound = max(int(n.max()) * int(np.abs(sxy).max()),
                    int(np.abs(sx).max()) * int(np.abs(sy).max()),
                    int(n.max()) * int(sxx.max()),
                    int(np.abs(sx).max()) ** 2)
        if bound >= 2**62:
            raise OverflowError(
                "linear_trend moment products exceed int64 — rescale "
                "x (coarser than seconds) or split oversized keys")
        num = (n * sxy - sx * sy).astype(np.float64)
        den = (n * sxx - sx * sx).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope_cents = num / den
            slope = slope_cents / 100.0
            intercept = (sy.astype(np.float64)
                         - slope_cents * sx.astype(np.float64)) \
                / (n.astype(np.float64) * 100.0)
        bad = sg.max(nan) | (den == 0.0)
        slope[bad] = np.nan
        intercept[bad] = np.nan
        return pd.DataFrame({USER_ID: sg.keys, "n": n,
                             "slope_per_s": slope,
                             "intercept": intercept})

    return collect_sorted(group_apply(ds, fn, key=USER_ID), cols)


def weighted_value_quantiles(ds: ray.data.Dataset) -> pd.DataFrame:
    """Duration-weighted quantiles per ``event_type``: each event's value is
    weighted by the µs until the same key's next event (the dwell
    credit — a key's last event carries no weight), and the weighted
    p50/p90 is the smallest value whose cumulative weight reaches
    half / nine-tenths of the total.  The entire selection is integer
    arithmetic (``2·cumw ≥ W``, ``10·cumw ≥ 9·W`` over cents-keyed
    weight cells) — no float thresholds, so the SQL twin matches
    bit-for-bit; the only floats are the final cents→value divisions.

    Two bounded exchanges (the interarrival pattern): a key-hash
    visit turns events into (attr, cents, Σweight, count) CELLS —
    traffic bounded by attrs × distinct cents, never events — then an
    attr-keyed exchange sorts and cumsums each attr's cells."""

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        t, vv = sg[TS], sg[VALUE]
        same = sg.same()[1:]
        w = (t[1:] - t[:-1])[same]
        y = vv[:-1][same]
        ok = ~np.isnan(y)
        g = pd.DataFrame({
            EVENT_TYPE: sg[EVENT_TYPE][:-1][same][ok],
            "y": np.rint(y[ok] * 100.0).astype(np.int64),
            "_w": w[ok],
            "_c": np.ones(int(ok.sum()), dtype=np.int64),
        })
        return g.groupby([EVENT_TYPE, "y"], as_index=False).sum()

    cols = {EVENT_TYPE: object,
            "n": "int64",
            "total_w_us": "int64",
            "w_p50": "float64",
            "w_p90": "float64"}

    def per_attr(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for a, g in df.groupby(EVENT_TYPE):
            g = (g[["y", "_w", "_c"]].groupby("y", as_index=False)
                 .sum().sort_values("y"))
            wts = g["_w"].to_numpy(np.int64)
            ys = g["y"].to_numpy(np.int64)
            cw = np.cumsum(wts)
            W = int(cw[-1])
            p50 = ys[np.argmax(2 * cw >= W)]
            p90 = ys[np.argmax(10 * cw >= 9 * W)]
            out.append((a, int(g["_c"].sum()), W,
                        p50 / 100.0, p90 / 100.0))
        return pd.DataFrame(out, columns=[EVENT_TYPE, "n", "total_w_us",
                                          "w_p50", "w_p90"])

    cell_ds = group_apply(ds, cells, key=USER_ID)
    out = collect_sorted(group_apply(cell_ds, per_attr, key=EVENT_TYPE),
                         cols, by=EVENT_TYPE)
    return out.astype({"n": np.int64, "total_w_us": np.int64})


def max_drawdown(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key maximum drawdown of the (ts, order)-sorted value
    stream: max over t of (running-peak − value) — the classic
    "largest drop from a prior high" series statistic (here over a
    per-user metric stream; for transcripts, e.g. context-budget
    headroom).  Pure int64 k-space (values are k/100-quantized), so
    the emitted doubles are exact and a running-max window SQL oracle
    reproduces them bit-for-bit.

    One key-hash exchange; per partition one lexsort + a grouped
    cummax (pandas C kernel) + ``maximum.reduceat`` — no per-key
    Python loop."""

    cols = {USER_ID: "int64",
            "max_drawdown": "float64",
            "peak_value": "float64",
            "n_events": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        v = _quantize(sg[VALUE])
        rmax = pd.Series(v).groupby(sg.codes).cummax().to_numpy(np.int64)
        dd = rmax - v                       # int64, ≥ 0
        return pd.DataFrame({
            USER_ID: sg.keys,
            "max_drawdown": sg.max(dd).astype(np.float64) / 100.0,
            "peak_value": sg.max(v).astype(np.float64) / 100.0,
            "n_events": sg.n,
        })

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def longest_streak(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key longest run of consecutive ACTIVE DAYS (gaps-and-
    islands over the distinct-day calendar) plus streak count, active
    day total, and first/last day — the engagement-streak statistic.
    Days are int64 epoch days (µs // 86 400e6): all arithmetic is
    integer, so the SQL mirror (day − row_number grouping) is exact.

    One key-hash exchange; per partition: lexsort, distinct-(key,day)
    mask, boolean streak breaks, ``diff`` of break offsets — fully
    vectorized."""
    day_us = np.int64(86_400) * _US

    cols = {USER_ID: "int64",
            "n_active_days": "int64",
            "n_streaks": "int64",
            "longest_streak": "int64",
            "first_day": "int64",
            "last_day": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        day = df[TS].to_numpy("datetime64[us]").view(np.int64) // day_us
        sg = Segments(df, order=(day,))
        k, d = sg.codes, sg[day]
        keep = ~sg.same() | np.r_[True, d[1:] != d[:-1]]
        k, d = k[keep], d[keep]             # distinct (key, day), sorted
        new_key = np.r_[True, k[1:] != k[:-1]]
        brk = new_key | np.r_[True, d[1:] != d[:-1] + 1]
        run_start = np.flatnonzero(brk)
        run_len = np.diff(np.r_[run_start, len(k)])
        run_key = k[run_start]
        first_run = np.flatnonzero(np.r_[True, run_key[1:] != run_key[:-1]])
        key_start = np.flatnonzero(new_key)
        key_end = np.r_[key_start[1:], len(k)] - 1
        return pd.DataFrame({
            USER_ID: sg.keys,
            "n_active_days": np.diff(np.r_[key_start, len(k)])
                               .astype(np.int64),
            "n_streaks": np.diff(np.r_[first_run, len(run_len)])
                           .astype(np.int64),
            "longest_streak": np.maximum.reduceat(run_len, first_run)
                                .astype(np.int64),
            "first_day": d[key_start].astype(np.int64),
            "last_day": d[key_end].astype(np.int64),
        })

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def burst_detect(ds: ray.data.Dataset, window_s: int = 300) -> pd.DataFrame:
    """Per-key peak burst rate: the maximum number of events inside
    any trailing ``window_s`` window, with SQL RANGE-frame semantics
    (frame = rows whose ts ∈ [ts_i − window, ts_i], INCLUDING all
    ts-peers of row i), plus the earliest window-end timestamp that
    attains the peak.  All counts and timestamps are int64 — exact.

    One key-hash exchange; per partition: one lexsort + TWO global
    ``searchsorted`` calls on a key-offset time axis (each key's
    times are shifted into a disjoint int64 range, so one sorted
    array serves every key) — no per-key loop."""
    win = np.int64(window_s) * _US

    cols = {USER_ID: "int64",
            "max_burst": "int64",
            "burst_ts_us": "int64",
            "n_events": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=(TS,))
        k, t = sg.codes, sg[TS]
        # shift each key's times into a disjoint range: offset by
        # key_code · (span + window + 2) relative to the global min
        t0 = t.min()
        span = np.int64(t.max() - t0) + win + np.int64(2)
        axis = (t - t0) + k.astype(np.int64) * span
        hi = np.searchsorted(axis, axis, side="right")
        lo = np.searchsorted(axis, axis - win, side="left")
        cnt = (hi - lo).astype(np.int64)
        mx = sg.max(cnt)
        # earliest window-end ts attaining the per-key max: t is
        # ascending within each key, so it's the FIRST hit per segment
        hid = np.flatnonzero(cnt == mx[sg.gid])
        _, firsts = np.unique(sg.gid[hid], return_index=True)
        return pd.DataFrame({
            USER_ID: sg.keys,
            "max_burst": mx.astype(np.int64),
            "burst_ts_us": t[hid[firsts]].astype(np.int64),
            "n_events": sg.n,
        })

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def acf_lags(ds: ray.data.Dataset, max_lag: int = 3) -> pd.DataFrame:
    """Per-key sample autocorrelation of the (ts, order)-sorted value
    stream at lags 1..max_lag — the classic serial-dependence feature
    (cesium's periodicity family's cheap cousin; SURVEY §2.7 context).

    acf_L = Σ(x_t−μ)(x_{t−L}−μ) / Σ(x_t−μ)², expanded so every SUM is
    exact int64 k-space (Σx, Σx², Σx_t·x_{t−L}, and the masked head/
    tail sums), then combined in ONE mirrored float expression:
        num = sxy − μ·st − μ·sh + (n−L)·μ·μ ;  den = q − μ·s
    evaluated with identical operation order in the DuckDB oracle, so
    the round-6 outputs are bit-equal (the features_stats/EWMA
    argument).  Keys with n ≤ max_lag or zero variance are dropped on
    both sides.  Int64 bound: Σx² ≤ n·(100·max|v|)² — fine to ~10⁸
    rows/key at |v| ≤ 10⁴.

    One key-hash exchange; per partition one lexsort + shifted
    elementwise products + ``add.reduceat`` — no per-key loop."""

    cols = {USER_ID: "int64",
            "n": "int64"}
    for L in range(1, max_lag + 1):
        cols[f"acf{L}"] = "float64"

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x = _quantize(sg[VALUE])
        n = sg.n
        s = sg.sum(x)
        mu = s.astype(np.float64) / n.astype(np.float64)
        den = sg.sum(x * x).astype(np.float64) - mu * s.astype(np.float64)
        out = {USER_ID: sg.keys, "n": n}
        m = len(x)
        for L in range(1, max_lag + 1):
            valid = sg.same(L)
            prod = np.zeros(m, np.int64)
            prod[L:] = x[L:] * x[:-L]
            head = np.zeros(m, np.int64)
            head[L:] = x[:-L]
            prod[~valid] = 0
            head[~valid] = 0
            tail = np.where(valid, x, np.int64(0))
            sxy, sh, st = sg.sum(prod), sg.sum(head), sg.sum(tail)
            nl = np.maximum(n - L, 0).astype(np.float64)
            num = (sxy.astype(np.float64) - mu * st.astype(np.float64)
                   - mu * sh.astype(np.float64) + nl * mu * mu)
            with np.errstate(invalid="ignore", divide="ignore"):
                out[f"acf{L}"] = num / den
            out[f"acf{L}"] = np.asarray(out[f"acf{L}"], np.float64)
        res = pd.DataFrame(out)
        return res[(res["n"] > max_lag) & (den != 0.0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def changepoint_split(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key single change-point detection: the split of the
    (ts, order)-sorted value stream that maximizes the between-segment
    mean shift — the binary-segmentation primitive (level-shift /
    regime-change detector for latency or volume series).

    The objective is evaluated in EXACT int64 k-space: for a split
    after the ``t``-th row of an ``n``-row key with prefix sum ``sl``
    and total ``s``,

        score(t) = | sl·(n−t) − (s−sl)·t |   (t = 1..n−1)

    which is n_L·n_R·|mean_L − mean_R| scaled by 100 — a pure-integer
    argmax, so the winning split (first-max tie-break on smallest t)
    is bit-reproducible by the SQL twin's ``row_number() OVER (ORDER
    BY score DESC, t)`` with no float comparison anywhere.  The two
    segment means are then combined in one mirrored float expression.
    Int64 bound: |sl|·n ≤ n²·100·max|v| — fine to ~10⁶ rows/key at
    |v| ≤ 10⁴; keys with n < 2 are dropped on both sides.

    One key-hash exchange; per partition one lexsort, one global
    cumsum, and reduceat argmax — no per-key loop."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "split_t": "int64",
            "split_ts_us": "int64",
            "mean_left": "float64",
            "mean_right": "float64",
            "delta": "float64",
            "score": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        t_us, xv, seg = sg[TS], _quantize(sg[VALUE]), sg.gid
        csum = np.cumsum(xv)
        base = np.r_[np.int64(0), csum[sg.starts[1:] - 1]]
        sl = csum - base[seg]                    # prefix sum within key
        s = sg.sum(xv)[seg]                      # key total
        t = sg.pos + 1
        n = sg.n[seg]
        score = np.abs(sl * (n - t) - (s - sl) * t)
        score[t == n] = -1                       # last row: no split
        best = sg.max(score)
        # first index achieving the per-key max (tie -> smallest t)
        idx = np.arange(len(xv), dtype=np.int64)
        win = sg.min(np.where(score == best[seg], idx, np.int64(len(xv))))
        keep = sg.n >= 2
        win = win[keep]
        nw, tw, slw = n[win], t[win], sl[win]
        sw = s[win]
        mean_l = (slw.astype(np.float64) / tw.astype(np.float64)) / 100.0
        mean_r = ((sw - slw).astype(np.float64)
                  / (nw - tw).astype(np.float64)) / 100.0
        return pd.DataFrame({
            USER_ID: sg[USER_ID][win],
            "n": nw,
            "split_t": tw,
            "split_ts_us": t_us[win],
            "mean_left": mean_l,
            "mean_right": mean_r,
            "delta": mean_r - mean_l,
            "score": score[win],
        })

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def seasonal_anomaly(ds: ray.data.Dataset, sigma: float = 3.0) -> pd.DataFrame:
    """Seasonally-adjusted anomaly thresholding: per hour-of-day,
    fit mean/SD from exact int64 k-space sums (pass 1, map-side
    cells), broadcast the tiny 24-row profile, then count values
    beyond mean ± sigma·SD in a stateless second pass — the
    "alert if latency is anomalous FOR THIS TIME OF DAY" primitive
    that a flat z-score gets wrong on diurnal workloads.

    Mirrored float contract: mean = (S/n)/100, SD =
    sqrt(q/n − (S/n)·(S/n))/100, bounds = mean ± sigma·SD; every
    comparison is the identical IEEE expression in the SQL twin, so
    the anomaly COUNTS (ints) hash-match."""

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        h = (tus // np.int64(3_600_000_000)) % np.int64(24)
        x = _quantize(df[VALUE].to_numpy())
        g = (pd.DataFrame({"h": h, "x": x, "xx": x * x})
             .groupby("h", as_index=False)
             .agg(n=("x", "size"), s=("x", "sum"), q=("xx", "sum")))
        for c in g.columns:
            g[c] = g[c].astype(np.int64)
        return g

    prof = (ds.select_columns([TS, VALUE])
            .map_batches(cells, batch_format="pandas")
            .to_pandas().groupby("h", as_index=False).sum())
    n = prof["n"].to_numpy(np.int64)
    s = prof["s"].to_numpy(np.int64)
    q = prof["q"].to_numpy(np.int64)
    nf, sf, qf = (a.astype(np.float64) for a in (n, s, q))
    mean = (sf / nf) / 100.0
    sd = np.sqrt(qf / nf - (sf / nf) * (sf / nf)) / 100.0
    lo = mean - sigma * sd
    hi = mean + sigma * sd
    ref = ray.put((prof["h"].to_numpy(np.int64), lo, hi))

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        hours, lo_, hi_ = ray.get(ref)
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        h = (tus // np.int64(3_600_000_000)) % np.int64(24)
        pos = np.searchsorted(hours, h)
        xf = _quantize(df[VALUE].to_numpy()).astype(np.float64) / 100.0
        out = (xf < lo_[pos]) | (xf > hi_[pos])
        g = (pd.DataFrame({"h": h, "a": out.astype(np.int64)})
             .groupby("h", as_index=False)["a"].sum())
        g["a"] = g["a"].astype(np.int64)
        return g

    anom = (ds.select_columns([TS, VALUE])
            .map_batches(flag, batch_format="pandas")
            .to_pandas().groupby("h", as_index=False)["a"].sum())
    out = pd.DataFrame({
        "hour": prof["h"].to_numpy(np.int64),
        "n": n, "mean": mean, "sd": sd,
        "n_anomalies": anom.set_index("h")["a"]
        .reindex(prof["h"]).fillna(0).to_numpy(np.int64),
    })
    return out.sort_values("hour").reset_index(drop=True)


def scd2_history(ds: ray.data.Dataset) -> pd.DataFrame:
    """Slowly-Changing-Dimension Type-2 history: turn an attribute
    event stream into the warehouse validity-interval table —
    one row per (key, attr-version) with ``valid_from`` (first ts of
    the run), ``valid_to`` (start of the next version, NULL while
    current), 1-based ``version_no`` and ``is_current``.  The CDC
    sibling of ``upsert`` (last-write-wins keeps only the head;
    SCD2 keeps the full history).

    Same partitioning contract as ``run_stats``: one key-hash
    exchange, each key whole inside its partition, one lexsort +
    boolean diffs per partition — no per-row Python."""

    cols = {USER_ID: "int64",
            EVENT_TYPE: object,
            "valid_from": "datetime64[us]",
            "valid_to": "datetime64[us]",
            "version_no": "int64",
            "is_current": bool}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        ac, auniq = pd.factorize(df[EVENT_TYPE])
        sg = Segments(df)
        a, t = sg[ac], sg[TS]
        rs = np.flatnonzero(~sg.same() | np.r_[True, a[1:] != a[:-1]])
        rk, ra, rt = sg[USER_ID][rs], a[rs], t[rs]
        nk = np.r_[True, rk[1:] != rk[:-1]]
        # version_no: 1-based index of the run within its key
        first = np.maximum.accumulate(np.where(nk, np.arange(len(rs)), 0))
        version = np.arange(len(rs)) - first + 1
        nxt_same = np.r_[~nk[1:], False]
        vt = np.full(len(rs), np.iinfo(np.int64).min, dtype=np.int64)
        vt[nxt_same] = np.r_[rt[1:], np.int64(0)][nxt_same]
        valid_to = vt.view("datetime64[us]").copy()
        valid_to[~nxt_same] = np.datetime64("NaT")
        return pd.DataFrame({
            USER_ID: rk.astype(np.int64),
            EVENT_TYPE: np.asarray(auniq)[ra],
            "valid_from": rt.view("datetime64[us]"),
            "valid_to": valid_to,
            "version_no": version.astype(np.int64),
            "is_current": ~nxt_same,
        })

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols,
                          by=[USER_ID, "version_no"])


def theilsen_trend(ds: ray.data.Dataset) -> pd.DataFrame:
    """Theil–Sen robust trend per key: the MEDIAN of all pairwise
    slopes (Δvalue / Δseconds over pairs with distinct timestamps) —
    the outlier-resistant alternative to the least-squares
    ``linear_trend``.  O(n²) pairs per key, capped at 2000 events
    (same documented guard as the cadence pairwise-Δt histogram —
    capped keys report their first 2000 events by
    (ts, order) and ``capped = true``).  One key-hash exchange; pairs
    enumerate vectorized via triu indices; the median is the shared
    ``duck_quantile`` kernel (bit-exact to SQL quantile_cont)."""
    from ..oracle.rollup import duck_quantile

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "n_pairs": "int64",
            "ts_slope_per_s": "float64",
            "capped": bool}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        sg = Segments(df)
        t, v = sg[TS], sg[VALUE]
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            n_all = e - s
            capped = n_all > 2000
            e2 = s + min(n_all, 2000)
            tk, vk = t[s:e2], v[s:e2]
            iu, ju = np.triu_indices(e2 - s, k=1)
            dt_us = tk[ju] - tk[iu]
            ok = dt_us > 0
            slopes = ((vk[ju] - vk[iu])[ok]
                      / (dt_us[ok].astype(np.float64) / 1_000_000.0))
            slopes.sort(kind="mergesort")
            out.append((int(key), np.int64(n_all), np.int64(len(slopes)),
                        float(duck_quantile(slopes, 0.5))
                        if len(slopes) else np.nan,
                        bool(capped)))
        return pd.DataFrame(out, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def mann_kendall(ds: ray.data.Dataset) -> pd.DataFrame:
    """Mann–Kendall trend test per key (the nonparametric companion
    of ``theilsen_trend``): S = Σ_{i<j} sign(v_j − v_i) over the
    time-ordered values, tie-corrected variance
    var = [n(n−1)(2n+5) − Σ_t t(t−1)(2t+5)] / 18, and the standard
    continuity-corrected Z.  S and both variance terms are EXACT
    int64; Z is one mirrored float expression.  Same capped-pairs
    guard and partitioning contract as theilsen_trend."""

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "s_stat": "int64",
            "var_s18": "int64",
            "z_stat": "float64",
            "capped": bool}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        sg = Segments(df)
        # int-space values (the driver data is 2-decimal quantized):
        # sign comparisons in exact int64, like the oracle
        v = _quantize(sg[VALUE])
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            n_all = e - s
            capped = n_all > 2000
            e2 = s + min(n_all, 2000)
            vk = v[s:e2]
            n = len(vk)
            iu, ju = np.triu_indices(n, k=1)
            S = int(np.sign(vk[ju] - vk[iu]).sum())
            _, tcnt = np.unique(vk, return_counts=True)
            var18 = int(n * (n - 1) * (2 * n + 5)
                        - int((tcnt * (tcnt - 1) * (2 * tcnt + 5)).sum()))
            if S > 0:
                z = (S - 1) / np.sqrt(var18 / 18.0) if var18 else 0.0
            elif S < 0:
                z = (S + 1) / np.sqrt(var18 / 18.0) if var18 else 0.0
            else:
                z = 0.0
            out.append((int(key), np.int64(n_all),
                        np.int64(S), np.int64(var18), float(z),
                        bool(capped)))
        return pd.DataFrame(out, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def trimmed_mean(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key trimmed mean: average of the int-quantized values
    inside the key's own [p10, p90] quantile band (inclusive bounds
    from the shared ``duck_quantile`` kernel ≡ quantile_cont, so the
    band edges — and therefore membership — are bit-identical to the
    SQL).  Completes the robust-stats trio with theilsen_trend and
    mann_kendall.  One key-hash exchange; per key one sort + two
    O(1) quantile reads + one masked exact-int sum."""
    from ..oracle.rollup import duck_quantile

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "n_kept": "int64",
            "mean_all": "float64",
            "trimmed_mean": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        sg = Segments(df, order=())
        v = _quantize(sg[VALUE])
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            vk = np.sort(v[s:e], kind="mergesort")
            n = len(vk)
            lo = duck_quantile(vk.astype(np.float64), 0.1)
            hi = duck_quantile(vk.astype(np.float64), 0.9)
            keep = vk[(vk >= lo) & (vk <= hi)]
            out.append((
                int(key), np.int64(n), np.int64(len(keep)),
                float(int(vk.sum())) / n / 100.0,
                float(int(keep.sum())) / len(keep) / 100.0
                if len(keep) else np.nan,
            ))
        return pd.DataFrame(out, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def robust_anomalies(ds: ray.data.Dataset) -> pd.DataFrame:
    """Modified z-score anomaly counts per key (Iglewicz–Hoaglin):
    Mz = 0.6745·(x − median) / MAD with MAD = median(|x − median|) —
    the robust sibling of ``zscore_anomalies`` (one outlier cannot
    drag the threshold the way it drags mean/σ).  Both medians are
    the shared ``duck_quantile`` kernel over int-quantized values, so
    the flag set is bit-identical to the SQL twin; MAD = 0 keys
    report 0 anomalies (constant-valued key)."""
    from ..oracle.rollup import duck_quantile

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "med": "float64",
            "mad": "float64",
            "n_anomalies": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        sg = Segments(df, order=())
        v = _quantize(sg[VALUE])
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            vk = v[s:e].astype(np.float64)
            med = duck_quantile(np.sort(vk, kind="mergesort"), 0.5)
            ad = np.abs(vk - med)
            mad = duck_quantile(np.sort(ad, kind="mergesort"), 0.5)
            if mad > 0:
                mz = 0.6745 * (vk - med) / mad
                n_anom = int((np.abs(mz) > 3.5).sum())
            else:
                n_anom = 0
            out.append((int(key), np.int64(e - s), float(med / 100.0),
                        float(mad / 100.0), np.int64(n_anom)))
        return pd.DataFrame(out, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def spearman_trend(ds: ray.data.Dataset) -> pd.DataFrame:
    """Spearman rank correlation of value against time per key — the
    rank-based trend measure completing the nonparametric family
    (theilsen_trend, mann_kendall).  Tie-averaged ranks are carried
    as DOUBLED int64s (a tie group spanning 1-based positions p..q
    has doubled-average-rank p+q — always an integer), so every sum
    and the Pearson-on-ranks numerator/denominator terms are EXACT
    int64; only the final ratio is float, mirrored in SQL."""

    def _dranks(x: np.ndarray) -> np.ndarray:
        # doubled average ranks, ties averaged (int64-exact)
        order = np.argsort(x, kind="mergesort")
        xs = x[order]
        starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
        ends = np.r_[starts[1:], len(xs)]
        dr = np.empty(len(xs), np.int64)
        for s, e in zip(starts, ends):
            dr[s:e] = (s + 1) + e  # (p + q) with p=s+1, q=e (1-based)
        out = np.empty(len(xs), np.int64)
        out[order] = dr
        return out

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "spearman": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        sg = Segments(df, order=())
        t, v = sg[TS], _quantize(sg[VALUE])
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            n = e - s
            rx = _dranks(t[s:e])
            ry = _dranks(v[s:e])
            sx, sy = int(rx.sum()), int(ry.sum())
            sxy = int((rx * ry).sum())
            sxx = int((rx * rx).sum())
            syy = int((ry * ry).sum())
            num = n * sxy - sx * sy
            dx = n * sxx - sx * sx
            dy = n * syy - sy * sy
            rho = (float(num) / np.sqrt(float(dx) * float(dy))
                   if dx > 0 and dy > 0 else np.nan)
            out.append((int(key), np.int64(n), float(rho)))
        return pd.DataFrame(out, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def cusum_alarms(ds: ray.data.Dataset) -> pd.DataFrame:
    """One-sided tabular CUSUM per key over int-quantized deviations
    from the key's integer mean: the sequential recurrence
    S_i = max(0, S_{i-1} + x_i − k) has the closed form
    S_i = (P_i − k·i) − min_{j≤i}(P_j − k·j) with P the prefix sum
    and j ranging over 0..i — a running min, so the whole statistic
    is ONE vectorized prefix pass (and exactly expressible as a SQL
    window), not a row-at-a-time loop.  Everything is exact int64:
    deviations use x_i·n − Σx (scaled by n to avoid fractional
    means), k and h scale accordingly.  Emits per key: n, the max
    CUSUM (scaled), and the alarm count (S > h·n)."""

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "max_cusum_scaled": "int64",
            "n_alarms": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        sg = Segments(df)
        v = _quantize(sg[VALUE])
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            vk = v[s:e]
            n = len(vk)
            tot = int(vk.sum())
            # scaled deviations: d_i = x_i·n − tot − k·n  (all int64)
            d = vk.astype(np.int64) * n - tot - 100 * n
            p = np.cumsum(d)
            # S_i = P_i − min(P_0..P_i) with P_0 = 0 (inclusive
            # running min — the classic reflection identity for the
            # clamped recurrence max(0, S+d))
            run_min = np.minimum.accumulate(np.r_[np.int64(0), p])[1:]
            su = p - run_min
            alarms = int((su > 2000 * n).sum())
            out.append((int(key), np.int64(n),
                        np.int64(int(su.max()) if n else 0),
                        np.int64(alarms)))
        return pd.DataFrame(out, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)





def variance_ratio(ds: ray.data.Dataset, ks: tuple = (2, 4)) -> pd.DataFrame:
    """Per-key Lo–MacKinlay variance-ratio test statistic: for each
    horizon k, VR(k) = Var(x_{t+k}−x_t) / (k·Var(x_{t+1}−x_t)) over
    overlapping k-step differences of the (ts, order)-sorted stream —
    VR ≈ 1 under a random walk, < 1 under mean reversion, > 1 under
    trending (the classic market-efficiency / drift diagnostic).

    Every difference sum is exact int64 k-space (Σd, Σd² per lag via
    the masked shifted-product trick acf_lags uses); the population
    variances and the ratio are ONE mirrored float expression
    v_L = (q_L − s_L·s_L/n_L)/n_L ;  vr_k = v_k/(k·v_1)
    evaluated in identical operation order by the DuckDB twin, so
    round-6 outputs are bit-equal.  Int64 bound: Σd² ≤ n·(2·100·
    max|v|)² — fine to ~10⁸ rows/key at |v| ≤ 10⁴.  Keys with
    n ≤ max(ks) or v₁ = 0 are dropped on both sides.  One key-hash
    exchange; per partition one lexsort + reduceat per lag."""
    lags = (1,) + tuple(ks)

    cols = {USER_ID: "int64",
            "n": "int64"}
    for L in ks:
        cols[f"vr{L}"] = "float64"

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, n = _quantize(sg[VALUE]), sg.n
        v = {}
        for L in lags:
            d = sg.diff(x, L)
            s = sg.sum(d).astype(np.float64)
            q = sg.sum(d * d).astype(np.float64)
            nl = np.maximum(n - L, 1).astype(np.float64)
            v[L] = (q - s * s / nl) / nl
        out = {USER_ID: sg.keys, "n": n}
        with np.errstate(invalid="ignore", divide="ignore"):
            for L in ks:
                out[f"vr{L}"] = v[L] / (np.float64(L) * v[1])
        res = pd.DataFrame(out)
        return res[(res["n"] > max(ks)) & (v[1] != 0.0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def xcorr_gap(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key cross-correlation between the value channel and the
    interarrival-gap channel of the same (ts, order)-sorted stream:
    r0 = corr(x_t, g_t) (does a large value coincide with a long wait
    before it) and r1 = corr(x_{t−1}, g_t) (does a large value predict
    the NEXT gap), where g_t = (ts_t − ts_{t−1}) in whole seconds
    (int64 floor division by 10⁶, mirrored by SQL ``//``) — the
    two-channel dependence feature for load-shedding analysis.

    All sums are exact int64 (x in k-space ≤ 100·max|v|, g in seconds;
    Σx·g bound n·100·max|v|·max_gap_s — fine to ~10⁶ rows/key at
    |v| ≤ 10⁴ and gaps ≤ 1 year).  Pearson is combined in float with
    every operand cast first (n·Σy² can pass 2⁶³ as an int but casts
    identically on both sides):
        r = (nf·sxyf − sxf·syf)/sqrt((nf·sxxf − sxf²)·(nf·syyf − syf²))
    mirrored op-for-op.  Keys with < 3 events or a zero-variance side
    are dropped on both sides."""

    cols = {USER_ID: "int64",
            "n_pairs": "int64",
            "r0": "float64",
            "r1": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        t, x, n = sg[TS], _quantize(sg[VALUE]), sg.n
        m = len(x)
        valid = sg.same()
        g = sg.diff(t) // 1_000_000
        xc = np.where(valid, x, np.int64(0))    # x_t    (t ≥ 2)
        xp = np.zeros(m, np.int64)
        xp[1:] = x[:-1]
        xp[~valid] = 0                           # x_{t-1}

        def sums(a):
            return sg.sum(a).astype(np.float64)

        nf = (n - 1).astype(np.float64)
        sy, syy = sums(g), sums(g * g)
        out = {USER_ID: sg.keys,
               "n_pairs": (n - 1)}
        deny = nf * syy - sy * sy
        for name, xi in (("r0", xc), ("r1", xp)):
            sx, sxx, sxy = sums(xi), sums(xi * xi), sums(xi * g)
            denx = nf * sxx - sx * sx
            with np.errstate(invalid="ignore", divide="ignore"):
                out[name] = (nf * sxy - sx * sy) / np.sqrt(denx * deny)
            out["_d_" + name] = denx
        res = pd.DataFrame(out)
        res = res[(res["n_pairs"] >= 2) & (deny > 0.0)
                  & (res["_d_r0"] > 0.0) & (res["_d_r1"] > 0.0)]
        return res.drop(columns=["_d_r0", "_d_r1"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def perm_entropy(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key order-3 permutation entropy (Bandt–Pompe 2002): each
    consecutive triple of the (ts, order)-sorted quantized stream is
    mapped to one of 6 ordinal patterns, ties broken by time order
    (rank_i = #{j: x_j < x_i} + #{j < i: x_j = x_i}, a stable
    argsort), and the normalized Shannon entropy of the pattern
    distribution is the complexity score — 0 for monotone series, 1
    for white noise; the standard regularity feature for physiologic /
    latency streams.

    Pattern ranks come from exact integer comparisons on k-space
    values (bit-reproducible by CASE comparisons of SQL lead()
    windows); the entropy closes with the type_entropy expression
    H = (ln(n) − Σc·ln(c)/n) / ln(6)
    from exact int64 pattern counts, mirrored op-for-op.  Keys with
    fewer than 3 events are dropped on both sides."""

    cols = {USER_ID: "int64",
            "n_pat": "int64",
            "pe": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        k, x, starts = sg.codes, _quantize(sg[VALUE]), sg.starts
        m = len(x)
        if m < 3:
            return empty_frame(cols)
        a, b, c = x[:-2], x[1:-1], x[2:]
        valid = (k[:-2] == k[1:-1]) & (k[1:-1] == k[2:])
        # stable ranks: later-position ties rank higher
        r0 = (b < a).astype(np.int64) + (c < a)
        r1 = (a <= b).astype(np.int64) + (c < b)
        r2 = (a <= c).astype(np.int64) + (b <= c)
        code = r0 * 9 + r1 * 3 + r2            # 6 legal codes
        gid = sg.gid
        cell = gid[:-2][valid] * 27 + code[valid]
        cnt = np.bincount(cell, minlength=len(starts) * 27)
        cnt = cnt.reshape(len(starts), 27)
        npat = cnt.sum(axis=1).astype(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            cl = np.where(cnt > 0, cnt * np.log(
                np.maximum(cnt, 1).astype(np.float64)), 0.0)
            h = (np.log(npat.astype(np.float64))
                 - cl.sum(axis=1) / npat.astype(np.float64))
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n_pat": npat,
                            "pe": h / np.log(6.0)})
        return res[res["n_pat"] >= 1]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


_HURST_SIZES = (8, 16, 32)


def hurst_rs(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Hurst exponent by classic rescaled-range (R/S)
    analysis (Hurst 1951; Mandelbrot–Wallis): the (ts, order)-sorted
    stream is chopped into consecutive windows of each size w ∈
    (8, 16, 32); per window the cumulative-deviation range
    R = max(0, max_j Z_j) − min(0, min_j Z_j),  Z_j = Σ_{i≤j}(x_i−x̄)
    is rescaled by the population std, averaged over windows, and the
    Hurst exponent is the OLS slope of ln⟨R/S⟩ against ln w —
    H ≈ 0.5 for a memoryless stream, > 0.5 for long-range-persistent
    load, < 0.5 for mean-reverting load.

    Exactness: Z_j is kept integer as D_j = w·P_j − j·S (P = within-
    window prefix sum, S = window sum, all int64 k-space), so the
    range numerator R_int = max(0,maxD) − min(0,minD) is EXACT; each
    window closes with one mirrored float expression
    rs = (R_int/w) / sqrt((Q − S·S/w)/w)
    and the per-size mean and the 3-point log-log OLS slope
    slope = (np·Σlw·y − Σlw·Σy)/(np·Σlw² − (Σlw)²),  y = ln⟨rs⟩
    are mirrored op-for-op (≤ window-count float terms; ulp-below-
    round6).  Zero-variance windows are dropped; keys must yield ≥ 1
    valid window at EVERY size (so n ≥ 32) on both sides.
    One key-hash exchange; per partition O(n) reduceat per size."""

    cols = {USER_ID: "int64",
            "n": "int64"}
    for w in _HURST_SIZES:
        cols[f"rs{w}"] = "float64"
    cols["hurst"] = "float64"

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        nk = len(starts)
        cs = np.cumsum(x)
        ars = {}
        for w in _HURST_SIZES:
            nwin = n // w                       # windows per key
            tot = int(nwin.sum())
            if tot == 0:
                ars[w] = (np.zeros(nk), np.zeros(nk, np.int64))
                continue
            # start index of every window: key_start + j*w
            wkey = np.repeat(np.arange(nk), nwin)
            off = np.concatenate(
                [np.arange(c) for c in nwin]).astype(np.int64)
            ws = starts[wkey] + off * w
            # per-window S, Q via prefix sums (exact int64)
            base = np.where(ws > 0, cs[ws - 1], 0)
            S = cs[ws + w - 1] - base
            cq = np.cumsum(x * x)
            baseq = np.where(ws > 0, cq[ws - 1], 0)
            Q = cq[ws + w - 1] - baseq
            # D_j = w·P_j − j·S over each window, range via reduceat
            idx = (ws[:, None] + np.arange(w)[None, :]).ravel()
            P = cs[idx].reshape(tot, w) - base[:, None]
            j = np.arange(1, w + 1, dtype=np.int64)[None, :]
            D = np.int64(w) * P - j * S[:, None]
            rint = (np.maximum(D.max(axis=1), 0)
                    - np.minimum(D.min(axis=1), 0))
            wf = np.float64(w)
            m2 = (Q.astype(np.float64)
                  - S.astype(np.float64) * S.astype(np.float64) / wf) / wf
            ok = m2 > 0.0
            with np.errstate(invalid="ignore", divide="ignore"):
                rs = (rint.astype(np.float64) / wf) / np.sqrt(m2)
            ssum = np.bincount(wkey[ok], weights=rs[ok], minlength=nk)
            scnt = np.bincount(wkey[ok], minlength=nk).astype(np.int64)
            with np.errstate(invalid="ignore", divide="ignore"):
                ars[w] = (ssum / scnt.astype(np.float64), scnt)
        keep = np.ones(nk, bool)
        for w in _HURST_SIZES:
            keep &= ars[w][1] >= 1
        out = {USER_ID: sg.keys, "n": n}
        lw = np.array([np.log(np.float64(w)) for w in _HURST_SIZES])
        npts = np.float64(len(_HURST_SIZES))
        slw, slw2 = lw.sum(), (lw * lw).sum()
        sy = np.zeros(nk)
        sxy = np.zeros(nk)
        with np.errstate(invalid="ignore", divide="ignore"):
            for i, w in enumerate(_HURST_SIZES):
                y = np.log(ars[w][0])
                out[f"rs{w}"] = ars[w][0]
                sy = sy + y
                sxy = sxy + lw[i] * y
            out["hurst"] = ((npts * sxy - slw * sy)
                            / (npts * slw2 - slw * slw))
        res = pd.DataFrame(out)
        return res[keep]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def ljung_box(ds: ray.data.Dataset, max_lag: int = 3) -> pd.DataFrame:
    """Per-key Ljung–Box portmanteau whiteness statistic
    Q = n(n+2)·Σ_{k≤L} acf_k²/(n−k) over the (ts, order)-sorted value
    stream — the standard "is anything left after detrending"
    residual-autocorrelation gate, built on exactly the acf_lags
    sufficient statistics (exact int64 lag-product sums, mirrored
    acf_k float expressions) with one additional mirrored closing sum
    in ascending-k order.  Keys with n ≤ max_lag or zero variance are
    dropped on both sides."""
    from .tsmath import acf_lags  # same-module; explicit for grep

    a = acf_lags(ds, max_lag=max_lag)
    nf = a["n"].to_numpy(np.float64)
    q = np.zeros(len(a))
    for L in range(1, max_lag + 1):
        ak = a[f"acf{L}"].to_numpy(np.float64)
        q = q + ak * ak / (nf - np.float64(L))
    out = a[[USER_ID, "n"]].copy()
    out["q_lb"] = nf * (nf + 2.0) * q
    return out.reset_index(drop=True)


def trend_seasonal_strength(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key trend and seasonality strength (the Wang–Hyndman
    tsfeatures pair, on an OLS-trend + hour-of-day-means
    decomposition): with r = x − (α + β·τ) the OLS detrended series
    (τ = seconds since the key's first event) and m_h the per-hour
    mean of r, the remainder is rem = r − m_{h(t)} and
        seasonal_strength = max(0, 1 − Var(rem)/Var(r))
        trend_strength    = max(0, 1 − Var(rem)/Var(x − s_h))
    where s_h is the per-hour mean of x itself — 0 for structureless
    streams, → 1 when the trend / diurnal component explains the
    variance.

    Exactness: every sufficient statistic is an exact int64 sum in
    k-space / whole seconds (n, Σx, Σx², Στ, Στ², Σxτ globally and
    n_h, Σx_h, Στ_h per hour cell — 24 cells/key, a map-side-partial-
    friendly shape), and α, β, every m_h, Σr², the Σn_h·m_h² terms
    and both strengths close in mirrored float expressions (per-hour
    sums have ≤ 24 terms; ulp-below-round6).  Keys with a degenerate
    time axis or zero detrended variance are dropped on both sides."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "trend_strength": "float64",
            "seasonal_strength": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        tus, x, gid, n = sg[TS], _quantize(sg[VALUE]), sg.gid, sg.n
        nk = len(n)
        # τ = whole seconds since the key's first event (int64)
        tau = (tus - sg.min(tus)[gid]) // 1_000_000
        h = (tus // 3_600_000_000) % 24

        def ksum(w):
            """Exact int64 accumulation, float-cast AFTER the sum —
            Στ² can pass 2⁵³, where float-weight accumulation stops
            matching the oracle's exact HUGEINT-then-CAST."""
            return sg.sum(w).astype(np.float64)

        sx, qx = ksum(x), ksum(x * x)
        st, sxt = ksum(tau), ksum(x * tau)
        qt = ksum(tau * tau)
        cell = gid * 24 + h
        nh = np.bincount(cell, minlength=nk * 24).reshape(nk, 24)

        def csum(w):
            acc = np.zeros(nk * 24, np.int64)
            np.add.at(acc, cell, w)
            return acc.reshape(nk, 24).astype(np.float64)

        sxh, sth = csum(x), csum(tau)
        nf = n.astype(np.float64)
        dent = nf * qt - st * st
        with np.errstate(invalid="ignore", divide="ignore"):
            beta = (nf * sxt - sx * st) / dent
            alpha = (sx - beta * st) / nf
            nhf = nh.astype(np.float64)
            mh = (sxh / nhf - alpha[:, None]
                  - beta[:, None] * (sth / nhf))
            m2h = sxh / nhf
            snm = np.where(nh > 0, nhf * mh * mh, 0.0).sum(axis=1)
            snm2 = np.where(nh > 0, nhf * m2h * m2h, 0.0).sum(axis=1)
            sr2 = (qx - 2.0 * alpha * sx - 2.0 * beta * sxt
                   + nf * alpha * alpha + 2.0 * alpha * beta * st
                   + beta * beta * qt)
            varr = sr2 / nf
            varrem = (sr2 - snm) / nf
            vardeseas = (qx - snm2) / nf
            fs = np.maximum(0.0, 1.0 - varrem / varr)
            ft = np.maximum(0.0, 1.0 - varrem / vardeseas)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "trend_strength": ft,
                            "seasonal_strength": fs})
        return res[(dent > 0.0) & (varr > 0.0) & (vardeseas > 0.0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def turning_points(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key turning-points randomness test: count strict local
    extrema of the (ts, order)-sorted stream (x_{t−1} < x_t > x_{t+1}
    or the mirror image) and compare against the i.i.d. expectation
    E[T] = 2(n−2)/3, Var[T] = (16n−29)/90 — the classic
    nonparametric serial-dependence check (z ≪ 0 ⇒ smooth/trending,
    z ≫ 0 ⇒ oscillating).

    The extrema count is EXACT (integer comparisons on k-space
    values; plateau points are not turning points, matching the
    strict-inequality definition); the z-score closes in one
    mirrored float expression
    z = (T − 2·(n−2)/3)/sqrt((16·n − 29)/90).
    Keys with n < 3 are dropped on both sides."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "n_turns": "int64",
            "z_tp": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        k, x, starts, n = sg.codes, _quantize(sg[VALUE]), sg.starts, sg.n
        m = len(x)
        if m < 3:
            return empty_frame(cols)
        a, b, c = x[:-2], x[1:-1], x[2:]
        valid = (k[:-2] == k[1:-1]) & (k[1:-1] == k[2:])
        tp = (((a < b) & (c < b)) | ((b < a) & (b < c))) & valid
        gid = sg.gid
        t = np.bincount(gid[:-2][tp], minlength=len(starts)
                        ).astype(np.int64)
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = ((t.astype(np.float64) - 2.0 * (nf - 2.0) / 3.0)
                 / np.sqrt((16.0 * nf - 29.0) / 90.0))
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "n_turns": t, "z_tp": z})
        return res[res["n"] >= 3]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def ar1_fit(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key AR(1) / discrete Ornstein–Uhlenbeck fit by the moment
    (Yule–Walker) estimator: φ = acf₁ of the (ts, order)-sorted
    stream, innovation variance σ²_ε = (1 − φ²)·Var(x), and the mean-
    reversion half-life −ln 2/ln φ (steps; only for 0 < φ < 1, NULL
    outside) — the lag-1 memory profile behind the QSO damped-random-
    walk model (oracle/qso_model.py) applied to event streams.

    φ reuses the acf_lags exactness recipe (exact int64 lag-product
    sums, one mirrored float expression); σ²_ε and the half-life
    close in mirrored expressions σ² = den/n·(1−φ·φ)/10⁴ (value
    units), hl = −ln(2)/ln(φ).  Keys with n < 3 or zero variance are
    dropped on both sides."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "phi": "float64",
            "sigma2_eps": "float64",
            "half_life": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, n = _quantize(sg[VALUE]), sg.n
        m = len(x)
        s = sg.sum(x).astype(np.float64)
        q = sg.sum(x * x).astype(np.float64)
        nf = n.astype(np.float64)
        mu = s / nf
        den = q - mu * s
        valid = sg.same()
        prod = np.zeros(m, np.int64)
        prod[1:] = x[1:] * x[:-1]
        prod[~valid] = 0
        head = np.zeros(m, np.int64)
        head[1:] = x[:-1]
        head[~valid] = 0
        tail = np.where(valid, x, np.int64(0))
        sxy = sg.sum(prod).astype(np.float64)
        sh = sg.sum(head).astype(np.float64)
        st = sg.sum(tail).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = (sxy - mu * st - mu * sh
                   + (nf - 1.0) * mu * mu) / den
            sig2 = den / nf * (1.0 - phi * phi) / 10000.0
            hl = np.where((phi > 0.0) & (phi < 1.0),
                          -np.log(2.0) / np.log(np.abs(phi)), np.nan)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "phi": phi, "sigma2_eps": sig2,
                            "half_life": hl})
        return res[(res["n"] >= 3) & (den != 0.0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def burstiness(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Goh–Barabási burstiness B = (σ−μ)/(σ+μ) of the
    inter-arrival gaps plus the memory coefficient M = Pearson r of
    consecutive gap pairs (Goh & Barabási 2008, EPL 81) — B → −1 for
    a metronome, 0 for Poisson, → 1 for extreme bursts; M > 0 means
    long gaps follow long gaps.  The human-activity heavy-tail
    diagnostic behind the hot-conversation salting design.

    Gaps are mirrored whole seconds ((Δts µs) // 10⁶, the xcorr_gap
    recipe); every sufficient statistic (Σd, Σd², pair Σa/Σb/Σab/
    Σa²/Σb²) is an exact int64 sum accumulated with ``np.add.at``;
    B and M close in one mirrored float expression each.  Int64
    bound: Σd² ≤ n·span_s² — fine to 10⁶ gaps/key inside a 1-year
    window.  Keys need n ≥ 4 events (≥3 gaps, ≥2 pairs); M is NULL
    when either pair variance is zero, B is NULL when σ+μ = 0.
    One key-hash exchange; no per-row Python."""

    cols = {USER_ID: "int64",
            "n_gaps": "int64",
            "b_burst": "float64",
            "m_memory": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        d = sg.diff(sg[TS]) // 1_000_000            # whole-second gaps
        ng = sg.sum(sg.same().astype(np.int64))
        sd, qd = sg.sum(d), sg.sum(d * d)
        # consecutive gap pairs (a=d_i, b=d_{i+1}) fully within key
        pair = sg.same(2)
        a = np.where(pair, np.r_[0, d[:-1]], 0)
        b = np.where(pair, d, 0)
        npair = sg.sum(pair.astype(np.int64))
        sa, sb, sab = sg.sum(a), sg.sum(b), sg.sum(a * b)
        qa, qb = sg.sum(a * a), sg.sum(b * b)
        ngf = ng.astype(np.float64)
        npf = npair.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = sd.astype(np.float64) / ngf
            sig = np.sqrt(qd.astype(np.float64) / ngf - mu * mu)
            bb = np.where(sig + mu > 0.0,
                          (sig - mu) / (sig + mu), np.nan)
            vx = npf * qa.astype(np.float64) \
                - sa.astype(np.float64) * sa.astype(np.float64)
            vy = npf * qb.astype(np.float64) \
                - sb.astype(np.float64) * sb.astype(np.float64)
            mm = np.where(
                (vx > 0.0) & (vy > 0.0),
                (npf * sab.astype(np.float64)
                 - sa.astype(np.float64) * sb.astype(np.float64))
                / (np.sqrt(vx) * np.sqrt(vy)), np.nan)
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n_gaps": ng, "b_burst": bb,
                            "m_memory": mm})
        return res[(res["n_gaps"] >= 3) & (npair >= 2)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def kendall_tau(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Kendall tau-b rank correlation between value and time
    — the fully nonparametric monotone-trend measure (pairwise
    concordance), completing the trend trio with the parametric OLS
    (linear_trend) and the robust-slope Theil–Sen.

    All pair counts are EXACT integers over the (ts, order)-sorted
    stream: for the n(n−1)/2 ordered pairs i<j, C = #(Δt>0 ∧ Δx>0),
    D = #(Δt>0 ∧ Δx<0), n1 = #(Δx=0) value ties, n2 = #(Δt=0) time
    ties; tau_b = (C−D)/√((n0−n1)(n0−n2)) closes in one mirrored
    float expression.  O(n²) pairs per key, capped at 2000 events
    (the Theil–Sen guard: capped keys report their first
    2000 events).  One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "tau_b": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        t, x = sg[TS], _quantize(sg[VALUE])
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            n_all = int(e - s)
            if n_all < 2:
                continue
            e2 = s + min(n_all, 2000)
            tk, xk = t[s:e2], x[s:e2]
            iu, ju = np.triu_indices(e2 - s, k=1)
            dt = tk[ju] - tk[iu]
            dx = xk[ju] - xk[iu]
            n0 = len(iu)
            c = int(np.count_nonzero((dt > 0) & (dx > 0)))
            dcnt = int(np.count_nonzero((dt > 0) & (dx < 0)))
            n1 = int(np.count_nonzero(dx == 0))
            n2 = int(np.count_nonzero(dt == 0))
            if n0 - n1 <= 0 or n0 - n2 <= 0:
                continue
            tau = (float(c) - float(dcnt)) / np.sqrt(
                (float(n0) - float(n1)) * (float(n0) - float(n2)))
            rows.append((key, e2 - s, tau))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=[USER_ID, "n_events", "tau_b"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def seasonal_naive_mase(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key seasonal-naive forecast backtest on the hourly
    ACTIVITY series: MASE = mean|c_b − c_{b−24}| / mean|c_b − c_{b−1}|
    over the DENSE hourly-count grid [min_hour, max_hour] (missing
    hours count 0) — Hyndman & Koehler's scaled error with the
    daily-seasonal model in the numerator and the naive lag-1 scale
    in the denominator.  MASE < 1 ⇒ the daily cycle genuinely
    predicts activity (the signal the LS features detect, as a
    forecast-accuracy number).

    Counts and both absolute-error sums are exact integers; the only
    float op is the final mirrored (sae/ns)/(nae/nn) ratio.  The
    dense grid is span-bounded (retention window: 1 year ≈ 8.8k
    cells/key), built with one bincount per key — no per-row Python.
    Keys need span > 24 hours and a nonzero naive scale.
    One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n_hours": "int64",
            "mase": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        h = sg[TS] // 3_600_000_000
        rows = []
        m = 24
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            hk = h[s:e]
            mn, mx = int(hk.min()), int(hk.max())
            span = mx - mn + 1
            if span <= m:
                continue
            cnt = np.bincount(hk - mn, minlength=span)
            sae = int(np.abs(cnt[m:] - cnt[:-m]).sum())
            nae = int(np.abs(cnt[1:] - cnt[:-1]).sum())
            if nae == 0:
                continue
            ns, nn = span - m, span - 1
            mase = (float(sae) / float(ns)) / (float(nae) / float(nn))
            rows.append((key, span, mase))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=[USER_ID, "n_hours", "mase"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def pacf_lags(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key PARTIAL autocorrelation at lags 1–3 via the
    Durbin–Levinson recursion closed over the sample ACF — the
    AR-order-identification companion of ``acf_lags`` (PACF cuts off
    at lag p for an AR(p) stream, where the ACF only decays):
        pacf1 = r1
        pacf2 = (r2 − r1²) / (1 − r1²)
        φ21   = r1 − pacf2·r1
        pacf3 = (r3 − φ21·r2 − pacf2·r1) / (1 − φ21·r1 − pacf2·r2)

    r1..r3 are computed from the SAME exact int64 sufficient
    statistics as ``acf_lags`` (Σx, Σx², lag-product and masked
    head/tail sums), and the recursion closes in mirrored float
    expressions evaluated in identical order by the DuckDB oracle —
    round-6 bit-equal.  pacf2/pacf3 are NULL when their denominator
    is exactly zero (r1 = ±1 degenerate streams).  Keys with
    n ≤ 3 or zero variance are dropped on both sides.  One key-hash
    exchange; no per-key Python loop."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "pacf1": "float64",
            "pacf2": "float64",
            "pacf3": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, n = _quantize(sg[VALUE]), sg.n
        s = sg.sum(x)
        q = sg.sum(x * x)
        nf = n.astype(np.float64)
        mu = s.astype(np.float64) / nf
        den = q.astype(np.float64) - mu * s.astype(np.float64)
        m = len(x)
        r = {}
        with np.errstate(invalid="ignore", divide="ignore"):
            for L in (1, 2, 3):
                valid = sg.same(L)
                prod = np.zeros(m, np.int64)
                prod[L:] = x[L:] * x[:-L]
                head = np.zeros(m, np.int64)
                head[L:] = x[:-L]
                prod[~valid] = 0
                head[~valid] = 0
                tail = np.where(valid, x, np.int64(0))
                sxy = sg.sum(prod)
                sh = sg.sum(head)
                st = sg.sum(tail)
                nl = np.maximum(n - L, 0).astype(np.float64)
                r[L] = (sxy.astype(np.float64)
                        - mu * st.astype(np.float64)
                        - mu * sh.astype(np.float64) + nl * mu * mu) / den
            r1, r2, r3 = r[1], r[2], r[3]
            d2 = 1.0 - r1 * r1
            p2 = np.where(d2 != 0.0, (r2 - r1 * r1) / d2, np.nan)
            phi21 = r1 - p2 * r1
            d3 = 1.0 - phi21 * r1 - p2 * r2
            p3 = np.where(d3 != 0.0,
                          (r3 - phi21 * r2 - p2 * r1) / d3, np.nan)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "pacf1": r1, "pacf2": p2, "pacf3": p3})
        return res[(res["n"] > 3) & (den != 0.0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def durbin_watson(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Durbin–Watson serial-correlation statistic of the
    (ts, order)-sorted value stream, DW = Σ(x_t − x_{t−1})² /
    Σ(x_t − x̄)² (≈ 2(1 − acf₁); 2 for white noise, → 0 under
    positive serial correlation, → 4 under negative), plus the
    von Neumann ratio VN = DW·n/(n−1) — the classic mean-square
    successive-difference randomness gate (von Neumann 1941).

    The numerator Σd² is an exact int64 sum (demeaning cancels in
    differences); the denominator is the acf_lags den = Σx² − μ·Σx;
    both close in ONE mirrored float expression each.  Keys need
    n ≥ 2 and nonzero variance.  One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "dw": "float64",
            "vn": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, n = _quantize(sg[VALUE]), sg.n
        s = sg.sum(x)
        q = sg.sum(x * x)
        nf = n.astype(np.float64)
        mu = s.astype(np.float64) / nf
        den = q.astype(np.float64) - mu * s.astype(np.float64)
        d = sg.diff(x)
        sd2 = sg.sum(d * d)
        with np.errstate(invalid="ignore", divide="ignore"):
            dw = sd2.astype(np.float64) / den
            vn = dw * (nf / (nf - 1.0))
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "dw": dw, "vn": vn})
        return res[(res["n"] > 1) & (den != 0.0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def count_dispersion(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key point-process dispersion of the DENSE hourly activity
    grid [min_hour, max_hour] (missing hours count 0): the Fano
    factor F = Var(c)/E(c) (population variance; 1 for Poisson, > 1
    overdispersed/bursty) and the Allan factor
    AF = E[(c_{i+1} − c_i)²] / (2·E[c]) (its successive-difference
    twin, insensitive to slow rate drift) — the windowed-count
    complement of the gap-based ``burstiness`` B.

    Hourly counts, Σc, Σc² and the successive-difference sum Σd² are
    exact integers (one bincount per key, span-bounded by the
    retention window); F and AF each close in one mirrored float
    expression.  Keys need span ≥ 2 hours.  One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n_hours": "int64",
            "fano": "float64",
            "allan": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        h = sg[TS] // 3_600_000_000
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            hk = h[s:e]
            mn, mx = int(hk.min()), int(hk.max())
            span = mx - mn + 1
            if span < 2:
                continue
            cnt = np.bincount(hk - mn, minlength=span)
            sc = int(cnt.sum())
            qc = int((cnt * cnt).sum())
            dd = cnt[1:] - cnt[:-1]
            sad = int((dd * dd).sum())
            nf = float(span)
            muc = float(sc) / nf
            fano = (float(qc) / nf - muc * muc) / muc
            allan = (float(sad) / (nf - 1.0)) / (2.0 * muc)
            rows.append((key, span, fano, allan))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(
            rows, columns=[USER_ID, "n_hours", "fano", "allan"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def sample_entropy(ds: ray.data.Dataset, tolerance: int = 500) -> pd.DataFrame:
    """Per-key sample entropy SampEn(m=1, r) of the (ts, order)-sorted
    value stream (Richman & Moorman 2000): with templates the first
    n−1 points, B = #{i<j : |x_i − x_j| ≤ r} (length-1 matches) and
    A = #{i<j : |x_i − x_j| ≤ r ∧ |x_{i+1} − x_{j+1}| ≤ r} (length-2
    matches), SampEn = −ln(A/B) — low for regular/predictable
    streams, high for irregular ones; the regularity complement of
    ``perm_entropy`` (which sees only ordinal patterns, not scale).

    ``tolerance`` r is in quantized int units (value·100; default 500
    = 5.0 raw units ≈ 0.17σ of the synthetic value stream).  A and B
    are EXACT integer pair counts; SampEn closes in one mirrored
    −ln(A/B).  O(n²) pairs per key, capped at 2000 events (the
    kendall_tau guard — capped keys report their first 2000
    events).  Keys need n ≥ 3 and A, B > 0 (keys with no length-2
    match are dropped on both sides).  One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "b_pairs": "int64",
            "a_pairs": "int64",
            "sampen": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x = _quantize(sg[VALUE])
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            n_all = int(e - s)
            if n_all < 3:
                continue
            e2 = s + min(n_all, 2000)
            xk = x[s:e2]
            nk = e2 - s
            iu, ju = np.triu_indices(nk - 1, k=1)
            m1 = np.abs(xk[iu] - xk[ju]) <= tolerance
            m2 = m1 & (np.abs(xk[iu + 1] - xk[ju + 1]) <= tolerance)
            bp = int(np.count_nonzero(m1))
            ap = int(np.count_nonzero(m2))
            if bp == 0 or ap == 0:
                continue
            rows.append((key, nk, bp, ap,
                         -np.log(float(ap) / float(bp))))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=[USER_ID, "n_events", "b_pairs",
                                           "a_pairs", "sampen"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def peak_rate(ds: ray.data.Dataset, window_s: int = 86400) -> pd.DataFrame:
    """Per-key PEAK sliding-window event rate: the maximum number of
    events falling in ANY half-open window [t, t + window_s) anchored
    at an event — the exact rate-limit / burst-abuse statistic
    (defaults to the rolling-24h peak).  Unlike the fixed-bucket
    rollups, the window slides to every anchor, so a burst straddling
    a bucket boundary can't hide.

    For each key the (sorted) timestamp array is scanned with two
    ``searchsorted`` passes (counts by VALUE range, so duplicate
    timestamps are handled identically to the SQL self-join twin);
    all counts are exact integers — no float anywhere.  O(n log n)
    per key vs the oracle's O(n·k) self-join.  One key-hash
    exchange."""

    cols = {USER_ID: "int64",
            "n_events": "int64",
            "peak_cnt": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=(TS,))
        t = sg[TS]
        w = np.int64(window_s) * 1_000_000
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            tk = t[s:e]
            hi = np.searchsorted(tk, tk + w, side="left")
            lo = np.searchsorted(tk, tk, side="left")
            rows.append((key, e - s, int((hi - lo).max())))
        return pd.DataFrame(rows, columns=[USER_ID, "n_events", "peak_cnt"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def exp_gap_fit(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key exponential fit of the inter-arrival gaps + the
    Kolmogorov–Smirnov distance to that fit: MLE rate λ = n/Σd over
    whole-second gaps, then D = maxᵢ max(i/n − F(d₍ᵢ₎),
    F(d₍ᵢ₎) − (i−1)/n) with F(d) = 1 − e^{−λd} — the direct "are
    arrivals Poisson?" gate (small D ⇒ memoryless traffic; large D +
    high ``burstiness`` B ⇒ heavy-tailed sessions, the salting
    rationale).  D is tie-order-invariant (tied gaps share F, and the
    max over a tie block uses its extreme ranks).

    Gap sums and ranks are exact integers; λ and the KS scan close in
    mirrored float expressions (exp() values sit far from round-6
    boundaries).  Keys need ≥ 3 gaps and Σd > 0.  One key-hash
    exchange; per key one sort + vectorized scan."""

    cols = {USER_ID: "int64",
            "n_gaps": "int64",
            "lam_per_s": "float64",
            "ks_exp": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        t = sg[TS]
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            if e - s < 4:
                continue
            tk = t[s:e]
            d = np.sort((tk[1:] - tk[:-1]) // 1_000_000)
            n = len(d)
            sd = int(d.sum())
            if sd <= 0:
                continue
            nf = float(n)
            lam = nf / float(sd)
            fv = 1.0 - np.exp(-lam * d.astype(np.float64))
            i = np.arange(1, n + 1, dtype=np.float64)
            da = float((i / nf - fv).max())
            db = float((fv - (i - 1.0) / nf).max())
            rows.append((key, n, lam,
                         da if da > db else db))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=[USER_ID, "n_gaps", "lam_per_s",
                                           "ks_exp"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def day_streak(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key longest consecutive-active-day streak: number of
    distinct UTC days with ≥ 1 event and the maximum run of adjacent
    days — the classic engagement/retention "streak" metric
    (gaps-and-islands in SQL terms).

    All integers (day = µs-timestamp // 86 400·10⁶); per key one
    unique+sort + one run-length scan — no float anywhere.  One
    key-hash exchange."""

    cols = {USER_ID: "int64",
            "n_active_days": "int64",
            "max_streak": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        day = df[TS].to_numpy("datetime64[us]").view(np.int64) \
            // 86_400_000_000
        sg = Segments(df, order=(day,))
        d = sg[day]
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            dk = np.unique(d[s:e])
            brk = np.flatnonzero(np.diff(dk) != 1)
            runs = np.diff(np.r_[-1, brk, len(dk) - 1])
            rows.append((key, len(dk), int(runs.max())))
        return pd.DataFrame(rows, columns=[USER_ID, "n_active_days",
                                           "max_streak"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def seasonal_power(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key single-bin Fourier seasonality power on the DENSE
    hourly activity grid: for each period P (hours), the fraction of
    count variance explained by the best-fit sinusoid at frequency
    1/P,  R²_P = 2(C² + S²)/(n·SS)  with demeaned quadrature sums
    C = Σc·cos φ − μΣcos φ, S likewise, φ = 2π((t−t₀) mod P)/P and
    SS = Σ(c−μ)² — the spectral twin of the ANOVA-style
    ``trend_seasonal_strength`` (sensitive to phase-coherent cycles,
    not just hour-of-day level differences).  Defaults probe the
    daily and half-daily harmonics.

    Counts, Σc and Σc² are exact integers; the quadrature sums and
    R² close in mirrored float expressions (cos/sin of the same
    doubles on both sides; round-6 robust).  Keys need span > max(P)
    and SS > 0.  One key-hash exchange; one bincount per key."""

    cols = {USER_ID: "int64",
            "n_hours": "int64"}
    for p in (24, 12):
        cols[f"r2_{p}h"] = "float64"

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        h = sg[TS] // 3_600_000_000
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            hk = h[s:e]
            mn, mx = int(hk.min()), int(hk.max())
            span = mx - mn + 1
            if span <= 24:
                continue
            cnt = np.bincount(hk - mn, minlength=span)
            sc = int(cnt.sum())
            qc = int((cnt * cnt).sum())
            nf = float(span)
            mu = float(sc) / nf
            ss = float(qc) - mu * float(sc)
            if ss <= 0.0:
                continue
            cf = cnt.astype(np.float64)
            t = np.arange(span, dtype=np.int64)
            rec = [key, span]
            for p in (24, 12):
                ph = 2.0 * np.pi * (t % p).astype(np.float64) / float(p)
                co, si = np.cos(ph), np.sin(ph)
                cq = float((cf * co).sum()) - mu * float(co.sum())
                sq = float((cf * si).sum()) - mu * float(si.sum())
                rec.append(2.0 * (cq * cq + sq * sq) / (nf * ss))
            rows.append(tuple(rec))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def haar_energy(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key un-normalized Haar wavelet detail energies of the
    DENSE hourly activity grid: at level ℓ the grid is paired into
    blocks of 2^ℓ hours, dℓ = (sum of left half) − (sum of right
    half), Eℓ = Σ dℓ² — the multiscale burst-texture signature
    (E1 high ⇒ hour-to-hour flicker, E3 high ⇒ 4–8 h session lumps;
    the wavelet complement of ``seasonal_power``'s single-frequency
    view).  The grid is truncated to ⌊span/2^ℓ⌋ whole blocks per
    level, matching the SQL twin's t//2^ℓ grouping.

    Every quantity is an EXACT integer (sums/differences/squares of
    counts — no float anywhere); the relative energy fractions are
    left to the caller.  Keys need span ≥ 2^3 hours.  One
    key-hash exchange; one bincount + vectorized halvings per key."""

    cols = {USER_ID: "int64",
            "n_hours": "int64"}
    for lv in range(1, 3 + 1):
        cols[f"e{lv}"] = "int64"

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        h = sg[TS] // 3_600_000_000
        need = 1 << 3
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            hk = h[s:e]
            mn, mx = int(hk.min()), int(hk.max())
            span = mx - mn + 1
            if span < need:
                continue
            a = np.bincount(hk - mn, minlength=span)
            rec = [key, span]
            for _ in range(3):
                m = len(a) // 2
                left, right = a[:2 * m:2], a[1:2 * m:2]
                d = left - right
                rec.append(int((d * d).sum()))
                a = left + right
            rows.append(tuple(rec))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def gumbel_maxima(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Gumbel (EV-I) moment fit of DAILY BLOCK MAXIMA of the
    hourly activity counts: for each UTC day in the dense day range,
    take the max hourly count (days with no events contribute 0),
    then fit location/scale by the method of moments —
        β = s·√6/π,  μ = m − γ·β  (γ = Euler–Mascheroni)
    — the classical extreme-value capacity-planning fit ("what does a
    99th-percentile peak hour look like?"; Gumbel 1958).

    Block maxima, Σmax and Σmax² are exact integers (one bincount-max
    per key over the dense day grid); m, s, β, μ close in mirrored
    float expressions.  Keys need ≥ 2 days and s > 0.  One key-hash
    exchange."""

    cols = {USER_ID: "int64",
            "n_days": "int64",
            "gum_mu": "float64",
            "gum_beta": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        h = sg[TS] // 3_600_000_000
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            hk = h[s:e]
            dmn, dmx = int(hk.min() // 24), int(hk.max() // 24)
            nd = dmx - dmn + 1
            if nd < 2:
                continue
            hcnt = np.bincount(hk - dmn * 24,
                               minlength=nd * 24).astype(np.int64)
            mx = hcnt[:nd * 24].reshape(nd, 24).max(axis=1)
            sm = int(mx.sum())
            qm = int((mx * mx).sum())
            nf = float(nd)
            m = float(sm) / nf
            var = float(qm) / nf - m * m
            if var <= 0.0:
                continue
            sd = np.sqrt(var)
            beta = sd * np.sqrt(6.0) / np.pi
            mu = m - 0.5772156649015329 * beta
            rows.append((key, nd, mu, beta))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=[USER_ID, "n_days", "gum_mu",
                                           "gum_beta"])

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def gini_values(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Gini mean difference of the value distribution,
    GMD = mean over all pairs of |x_i − x_j| — the robust scale
    statistic that (unlike the Gini coefficient) is well-defined for
    signed values.  Computed exactly via the sorted-prefix identity
    Σ_{i<j}(x₍ⱼ₎ − x₍ᵢ₎) = Σ_i (2i − n − 1)·x₍ᵢ₎ (1-indexed ascending
    order; tie-invariant because a tie block's coefficients sum to a
    constant): the numerator is an EXACT int64 and GMD closes in one
    mirrored division by n(n−1)/2.  O(n log n) vs the oracle's
    identical rank-window sum.  Keys need n ≥ 2.  Int64 bound:
    |num| ≤ n²·max|x| — fine to ~10⁷ rows/key at |v| ≤ 10⁴.
    One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "gmd": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        x = _quantize(df[VALUE].to_numpy())
        sg = Segments(df, order=(x,))
        xs, n = sg[x], sg.n
        coef = 2 * (sg.pos + 1) - np.repeat(n, n) - 1
        num = sg.sum(coef * xs)
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            gmd = num.astype(np.float64) / (nf * (nf - 1.0) / 2.0)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n, "gmd": gmd})
        return res[res["n"] >= 2]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def quartile_cv(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key robust quartile spread from EXACT type-1 order
    statistics: Q1 = x₍⌈n/4⌉₎, Q3 = x₍⌈3n/4⌉₎ (1-indexed ascending,
    tie-invariant by value), IQR = Q3 − Q1 and the coefficient of
    quartile variation CQV = (Q3 − Q1)/(Q3 + Q1) — the outlier-immune
    complement of the mean/std spread features.

    Quartile ranks use integer ceilings ((n+3)//4, (3n+3)//4), the
    order statistics are exact int64 values, and only the final CQV
    ratio is float (NULL when Q3 + Q1 = 0).  Keys need n ≥ 4.
    One key-hash exchange; one lexsort, no per-key loop."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "iqr": "int64",
            "cqv": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        x = _quantize(df[VALUE].to_numpy())
        sg = Segments(df, order=(x,))
        xs, starts, n = sg[x], sg.starts, sg.n
        q1 = xs[starts + (n + 3) // 4 - 1]
        q3 = xs[starts + (3 * n + 3) // 4 - 1]
        iqr = q3 - q1
        den = (q3 + q1).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            cqv = np.where(den != 0.0,
                           iqr.astype(np.float64) / den, np.nan)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n, "iqr": iqr,
                            "cqv": cqv})
        return res[res["n"] >= 4]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def daily_profile_drift(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key daily-rhythm drift: for each ACTIVE day, the KL
    divergence of that day's hour-of-day distribution from the key's
    OVERALL hour-of-day profile, KL_d = Σ_h (c_dh/c_d)·
    ln((c_dh/c_d)/(C_h/C)) over hours with c_dh > 0 (C_h > 0 is then
    guaranteed — the day is a subset), reporting the worst and mean
    day — the "did this conversation/user break their own routine?"
    anomaly gate (routine-break days score high).

    All counts are exact int64 (one fused key×day×hour bincount
    per partition); each KL term and the max/mean closings are
    mirrored float expressions (log terms sit far from round-6
    boundaries).  Keys need ≥ 2 active days.  One key-hash
    exchange; no per-key Python loop."""

    cols = {USER_ID: "int64",
            "n_days": "int64",
            "max_kl": "float64",
            "mean_kl": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        kc, kuniq = pd.factorize(df[USER_ID])
        hb = df[TS].to_numpy("datetime64[us]").view(np.int64) \
            // 3_600_000_000
        day = hb // 24
        hod = (hb % 24).astype(np.int64)
        dcode, _ = pd.factorize(
            kc.astype(np.int64) * (1 << 32) + (day - day.min()))
        nk, ndc = len(kuniq), dcode.max() + 1
        # per (key, hour) overall profile and per-(key,day,hour) cells
        ckh = np.bincount(kc * 24 + hod, minlength=nk * 24)
        ck = np.bincount(kc, minlength=nk).astype(np.int64)
        cdh = np.bincount(dcode * 24 + hod, minlength=ndc * 24)
        cd = np.bincount(dcode, minlength=ndc).astype(np.int64)
        dk = np.zeros(ndc, np.int64)       # key index of each day code
        dk[dcode] = kc
        nz = np.flatnonzero(cdh)
        di = nz // 24
        hh = nz % 24
        p = cdh[nz].astype(np.float64) / cd[di].astype(np.float64)
        q = ckh[dk[di] * 24 + hh].astype(np.float64) \
            / ck[dk[di]].astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            kl = np.bincount(di, weights=p * np.log(p / q),
                             minlength=ndc)
        ndays = np.bincount(dk, minlength=nk).astype(np.int64)
        mx = np.full(nk, -np.inf)
        np.maximum.at(mx, dk, kl)
        sm = np.bincount(dk, weights=kl, minlength=nk)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sm / ndays.astype(np.float64)
        res = pd.DataFrame({USER_ID: np.asarray(kuniq),
                            "n_days": ndays, "max_kl": mx,
                            "mean_kl": mean})
        return res[res["n_days"] >= 2]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def count_acf(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key autocorrelation of the DENSE hourly ACTIVITY series at
    lags 1 and 24: acf_L = Σ(c_t−μ)(c_{t−L}−μ) /
    Σ(c_t−μ)² over the zero-filled hourly count grid — the shift-based
    rhythm detector (acf₂₄ high ⇒ same-hour-tomorrow activity repeats)
    complementing the phase-coherent ``seasonal_power`` and the
    value-stream ``acf_lags``.

    All sufficient statistics (Σc, Σc², lag products, masked
    head/tail sums) are exact int64 over the bincount grid; each acf
    closes in the acf_lags mirrored float expression.  Keys need
    span > max(lag) and nonzero variance.  One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n_hours": "int64"}
    for lg in (1, 24):
        cols[f"cacf{lg}"] = "float64"

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        h = sg[TS] // 3_600_000_000
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            hk = h[s:e]
            mn, mx = int(hk.min()), int(hk.max())
            span = mx - mn + 1
            if span <= 24:
                continue
            c = np.bincount(hk - mn, minlength=span).astype(np.int64)
            sc = int(c.sum())
            qc = int((c * c).sum())
            nf = float(span)
            mu = float(sc) / nf
            den = float(qc) - mu * float(sc)
            if den == 0.0:
                continue
            rec = [key, span]
            for lg in (1, 24):
                sxy = int((c[lg:] * c[:-lg]).sum())
                sh = int(c[:-lg].sum())
                st = int(c[lg:].sum())
                nl = float(span - lg)
                rec.append((float(sxy) - mu * float(st)
                            - mu * float(sh) + nl * mu * mu) / den)
            rows.append(tuple(rec))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def circadian_phase(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key circular statistics of event time-of-day on the 24 h
    circle (Fisher 1993): with angles θ = 2π·tod/86400 s, the
    resultant length R̄ = √(C² + S²)/n (1 = all events at one moment,
    0 = uniform around the clock) and the mean phase hour
    atan2(S, C)·24/2π mapped to [0, 24) — the principled "when does
    this user live?" statistic (unlike the argmax hour, it averages
    correctly across midnight).

    Time-of-day is the exact integer µs remainder; the quadrature
    sums, R̄, and atan2 phase close in mirrored float expressions.
    The phase is reported only when R̄ > 0.01 (NULL otherwise on both
    sides — near-uniform keys have no meaningful phase and atan2
    would amplify last-ulp noise).  One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "resultant": "float64",
            "mean_hour": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        kc, kuniq = pd.factorize(df[USER_ID])
        tod = df[TS].to_numpy("datetime64[us]").view(np.int64) \
            % 86_400_000_000
        ang = 2.0 * np.pi * tod.astype(np.float64) / 86_400_000_000.0
        nk = len(kuniq)
        n = np.bincount(kc, minlength=nk).astype(np.int64)
        cs = np.bincount(kc, weights=np.cos(ang), minlength=nk)
        sn = np.bincount(kc, weights=np.sin(ang), minlength=nk)
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.sqrt(cs * cs + sn * sn) / nf
            ph = np.arctan2(sn, cs) * (24.0 / (2.0 * np.pi))
            ph = np.where(ph < 0.0, ph + 24.0, ph)
            ph = np.where(r > 0.01, ph, np.nan)
        res = pd.DataFrame({USER_ID: np.asarray(kuniq), "n": n,
                            "resultant": r, "mean_hour": ph})
        return res[res["n"] >= 1]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def hour_runs(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key activity run-length profile of the DENSE hourly grid:
    consecutive active hours (≥ 1 event) form active runs, the
    zero-count hours between them idle runs; reports run counts, the
    longest active run, and mean active/idle run lengths — the
    duty-cycle texture of a stream (many short runs = flicker, few
    long runs = sessions), the hour-scale sibling of ``day_streak``.

    All counts are exact integers (one bincount + one boundary scan
    per key); only the two mean-length ratios are float, closed in
    mirrored expressions.  The grid spans [first, last] active hour,
    so it begins and ends active and idle runs are interior.  One
    key-hash exchange."""

    cols = {USER_ID: "int64",
            "n_hours": "int64",
            "active_runs": "int64",
            "max_active_run": "int64",
            "mean_active_run": "float64",
            "mean_idle_run": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        h = sg[TS] // 3_600_000_000
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            hk = h[s:e]
            mn, mx = int(hk.min()), int(hk.max())
            span = mx - mn + 1
            act = np.bincount(hk - mn, minlength=span) > 0
            # run boundaries: state changes
            chg = np.flatnonzero(act[1:] != act[:-1])
            lens = np.diff(np.r_[0, chg + 1, span])
            states = act[np.r_[0, chg + 1]]
            alen = lens[states]
            ilen = lens[~states]
            na, ni = len(alen), len(ilen)
            tot_a = int(alen.sum())
            tot_i = int(ilen.sum())
            mean_a = float(tot_a) / float(na)
            mean_i = float(tot_i) / float(ni) if ni > 0 else np.nan
            rows.append((key, span, na,
                         int(alen.max()), mean_a, mean_i))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=list(cols))

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def lmoments(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key sample L-moments (Hosking 1990): L-scale λ₂ and the
    L-moment ratios L-skewness τ₃ = λ₃/λ₂ and L-kurtosis τ₄ = λ₄/λ₂
    from the probability-weighted moments
        b_r = (1/n)·Σᵢ [C(i−1, r)/C(n−1, r)]·x₍ᵢ₎
        λ₂ = 2b₁ − b₀,  λ₃ = 6b₂ − 6b₁ + b₀,
        λ₄ = 20b₃ − 30b₂ + 12b₁ − b₀
    — the linear-in-order-statistics shape descriptors: far more
    outlier-robust than moment skew/kurtosis (every coefficient is
    bounded), the standard fit in extreme-value practice.

    The binomial-weighted numerators N_r = Σ C(i−1,r)·x₍ᵢ₎ are EXACT
    int64 (tie-invariant: a tie block's weights sum to a constant);
    the λ and τ ratios close in mirrored float expressions with
    denominators n·C(n−1,r).  Int64 bound: C(n−1,3)·|x| ≤ 9·10¹⁸ ⇒
    n ≲ 2.4·10⁵ per key at |x| ≤ 10⁴ (beyond that, lift to float —
    the sandbox keys are ≪ that).  Keys need n ≥ 4 and λ₂ ≠ 0.
    One key-hash exchange; one lexsort, no per-key loop."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "l2": "float64",
            "t3": "float64",
            "t4": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        x = _quantize(df[VALUE].to_numpy())
        sg = Segments(df, order=(x,))
        xs, n, i = sg[x], sg.n, sg.pos
        n0 = sg.sum(xs)
        n1 = sg.sum(i * xs)
        n2 = sg.sum(i * (i - 1) // 2 * xs)
        n3 = sg.sum(i * (i - 1) * (i - 2) // 6 * xs)
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            b0 = n0.astype(np.float64) / nf
            b1 = n1.astype(np.float64) / (nf * (nf - 1.0))
            b2 = n2.astype(np.float64) \
                / (nf * ((nf - 1.0) * (nf - 2.0) / 2.0))
            b3 = n3.astype(np.float64) \
                / (nf * ((nf - 1.0) * (nf - 2.0) * (nf - 3.0) / 6.0))
            l2 = 2.0 * b1 - b0
            l3 = 6.0 * b2 - 6.0 * b1 + b0
            l4 = 20.0 * b3 - 30.0 * b2 + 12.0 * b1 - b0
            t3 = np.where(l2 != 0.0, l3 / l2, np.nan)
            t4 = np.where(l2 != 0.0, l4 / l2, np.nan)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "l2": l2, "t3": t3, "t4": t4})
        return res[(res["n"] >= 4) & (l2 != 0.0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def hjorth_params(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Hjorth parameters (Hjorth 1970) of the (ts, order)-
    sorted value series — the classic EEG time-domain descriptor trio
    reused as a signal-shape profile for event value streams:
        activity   = Var(x)           (value² units)
        mobility   = sqrt(Var(Δx)/Var(x))
        complexity = sqrt(Var(Δ²x)/Var(Δx)) / mobility
    Mobility rises with dominant frequency; complexity is 1 for a
    pure sine and grows with bandwidth.

    All three population variances come from EXACT int64 sums in
    k-space (Σx, Σx² and the same pair over the first and second
    in-key differences, accumulated with np.add.at over group ids —
    the durbin_watson pattern); only the closing expressions are
    float, mirrored operation-for-operation by the SQL twin
    (``mu = Σx/n``, ``den = Σx² − mu·Σx``, ``var = den/n``).
    Activity is descaled k² → value² (/1e4); the two ratios are
    scale-free.  Keys need n ≥ 3, Var(x) > 0 and Var(Δx) > 0.
    One key-hash exchange, one lexsort, no per-key loop."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "activity": "float64",
            "mobility": "float64",
            "complexity": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, n = _quantize(sg[VALUE]), sg.n
        s1 = sg.sum(x)
        s2 = sg.sum(x * x)
        d = sg.diff(x)
        dd = np.where(sg.same(2), sg.diff(d), 0)    # i-2, i-1, i in-key
        sd1, sd2 = sg.sum(d), sg.sum(d * d)
        sdd1, sdd2 = sg.sum(dd), sg.sum(dd * dd)
        nf = n.astype(np.float64)
        nd = nf - 1.0
        ndd = nf - 2.0
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = s1.astype(np.float64) / nf
            vx = (s2.astype(np.float64)
                  - mu * s1.astype(np.float64)) / nf
            mud = sd1.astype(np.float64) / nd
            vd = (sd2.astype(np.float64)
                  - mud * sd1.astype(np.float64)) / nd
            mudd = sdd1.astype(np.float64) / ndd
            vdd = (sdd2.astype(np.float64)
                   - mudd * sdd1.astype(np.float64)) / ndd
            activity = vx / 1e4
            mobility = np.sqrt(vd / vx)
            complexity = np.sqrt(vdd / vd) / mobility
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "activity": activity, "mobility": mobility,
                            "complexity": complexity})
        return res[(n >= 3) & (vx > 0) & (vd > 0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def teager_energy(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Teager–Kaiser energy operator profile (Kaiser 1990):
    Ψᵢ = xᵢ² − xᵢ₋₁·xᵢ₊₁ over the (ts, order)-sorted interior points
    — the instantaneous-energy tracker (for a sampled sine it equals
    A²sin²ω: amplitude × frequency energy in one number) whose
    NEGATIVE excursions flag phase jumps / transients that plain
    variance misses.

    ΣΨ and the negative-Ψ count are EXACT int64 in k-space (one
    vectorized pass over the sorted stream, np.add.at over group
    ids); mean_psi (descaled /1e4) and neg_share are the only float
    closings, mirrored by the SQL twin's lag/lead window.  Keys need
    n ≥ 3.  One key-hash exchange."""

    cols = {USER_ID: "int64",
            "n_psi": "int64",
            "mean_psi": "float64",
            "neg_share": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        if len(x) < 3:
            return empty_frame(cols)
        gid = sg.gid
        same = sg.same()[1:]
        interior = same[1:] & same[:-1]       # i-1, i, i+1 in-key
        psi = x[1:-1] * x[1:-1] - x[:-2] * x[2:]
        sp = np.zeros(len(starts), np.int64)
        neg = np.zeros(len(starts), np.int64)
        gi = gid[1:-1][interior]
        np.add.at(sp, gi, psi[interior])
        np.add.at(neg, gi, (psi[interior] < 0).astype(np.int64))
        npsi = n - 2
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_psi = sp.astype(np.float64) \
                / npsi.astype(np.float64) / 1e4
            neg_share = neg.astype(np.float64) \
                / npsi.astype(np.float64)
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n_psi": npsi, "mean_psi": mean_psi,
                            "neg_share": neg_share})
        return res[n >= 3]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def fractal_dims(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key waveform fractal dimensions of the (ts, order)-sorted
    value stream — the two classic O(n) estimators:
      * Petrosian FD = log10(n) / (log10(n) + log10(n/(n + 0.4·NΔ)))
        with NΔ = # strict sign changes of the first difference;
      * Katz FD = log10(n−1) / (log10(n−1) + log10(D/L)) with path
        length L = Σ|Δx| and extent D = max|xᵢ − x₀|
    — 1.0 for a monotone ramp, rising toward ~1.5+ for noise-like
    streams; the roughness complement to hurst/perm_entropy.

    NΔ, L and D are EXACT int64 in k-space (one vectorized boundary
    scan, np.add.at / np.maximum.at over group ids); the two FD
    closings are the only floats, mirrored term-for-term by the SQL
    twin.  Keys need n ≥ 3, L > 0 and D > 0.  One key-hash
    exchange."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "n_delta": "int64",
            "pfd": "float64",
            "katz_fd": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, n = _quantize(sg[VALUE]), sg.n
        d = sg.diff(x)
        L = sg.sum(np.abs(d))
        # D = max |x_i - x_first|
        D = sg.max(np.abs(x - sg.first(x)[sg.gid]))
        # N_delta: strict sign changes d_i * d_{i+1} < 0, both in-key
        nd = sg.sum((sg.same(2) & (d * np.r_[0, d[:-1]] < 0))
                    .astype(np.int64))
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            lg = np.log10(nf)
            pfd = lg / (lg + np.log10(
                nf / (nf + 0.4 * nd.astype(np.float64))))
            lg1 = np.log10(nf - 1.0)
            katz = lg1 / (lg1 + np.log10(
                D.astype(np.float64) / L.astype(np.float64)))
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "n_delta": nd, "pfd": pfd,
                            "katz_fd": katz})
        return res[(n >= 3) & (L > 0) & (D > 0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def page_hinkley(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key offline Page–Hinkley mean-shift statistics of the
    (ts, order)-sorted value stream: with cumulative deviations
    mₜ = Σᵢ≤ₜ(xᵢ − x̄), PH⁺ = maxₜ(mₜ − minₛ≤ₜ mₛ) detects an upward
    mean shift and PH⁻ = maxₜ(maxₛ≤ₜ mₛ − mₜ) a downward one — the
    classic sequential change detector run retrospectively (δ = 0),
    the directional complement to the CUSUM changepoint locator.

    The whole computation stays in EXACT integer space: cumulating
    cₜ = Σᵢ≤ₜ(n·xᵢ − Σx) = n·Σᵢ≤ₜxᵢ − t·Σx avoids the float mean, so
    the running min/max and the two gaps are exact int64 here and
    exact HUGEINT in the SQL twin's window frames; the only floats
    are the final descalings PH± = PH±int/(n·100).  Int64 bound:
    |cₜ| ≤ 10⁴·n² ⇒ n ≲ 10⁶ per key at |value| ≤ 50 (lift to float
    beyond — sandbox keys are ≪ that).  Keys need n ≥ 2.  One
    key-hash exchange, one lexsort; the running extrema are pandas
    groupby cummin/cummax (C-vectorized), no Python per-key loop."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "ph_up": "float64",
            "ph_down": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        sid = sg.gid
        s1 = sg.sum(x)
        dev = np.repeat(n, n) * x - np.repeat(s1, n)   # n·xᵢ − Σx
        c = np.cumsum(dev)
        carry = np.repeat(np.r_[np.int64(0),
                                c[starts[1:] - 1]], n) \
            if len(starts) > 1 else np.zeros(len(c), np.int64)
        cg = c - carry                                  # per-group cum
        g = pd.Series(cg).groupby(sid)
        rmin = g.cummin().to_numpy()
        rmax = g.cummax().to_numpy()
        up, dn = sg.max(cg - rmin), sg.max(rmax - cg)
        with np.errstate(invalid="ignore", divide="ignore"):
            ph_up = up.astype(np.float64) \
                / (n.astype(np.float64) * 100.0)
            ph_down = dn.astype(np.float64) \
                / (n.astype(np.float64) * 100.0)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "ph_up": ph_up, "ph_down": ph_down})
        return res[n >= 2]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def grubbs_stat(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Grubbs extreme-outlier statistic (Grubbs 1950)
    G = max|xᵢ − x̄| / s with the SAMPLE std s (ddof = 1) — the
    single-most-suspicious-point gate: compare G against the
    t-distribution critical value for the chosen α to declare the
    extremum an outlier.  Also reports the deviation itself in value
    units (max_dev) so downstream thresholds can work in either
    scale.

    Σx and Σx² are EXACT int64 in k-space; x̄, the per-point |x − x̄|
    deviations, s and G are float closings mirrored
    operation-for-operation by the SQL twin (both sides take the max
    over the IDENTICAL float deviation set, so the extremum agrees
    bit-for-bit).  Keys need n ≥ 3 and nonzero variance.  Order-free
    (no sort): one key-hash exchange, np.maximum.at over group
    ids."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "max_dev": "float64",
            "grubbs_g": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        xs, n = _quantize(sg[VALUE]), sg.n
        s1 = sg.sum(xs)
        s2 = sg.sum(xs * xs)
        nf = n.astype(np.float64)
        mu = s1.astype(np.float64) / nf
        gid = sg.gid
        dev = np.abs(xs.astype(np.float64) - mu[gid])
        mx = sg.max(dev)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (s2.astype(np.float64)
                   - mu * s1.astype(np.float64)) / (nf - 1.0)
            g = mx / np.sqrt(var)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "max_dev": mx / 100.0, "grubbs_g": g})
        return res[(n >= 3) & (var > 0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def monotone_runs(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key monotone-run profile of the (ts, order)-sorted value
    stream: classify each successive difference as up/down/flat and
    report the longest up, down and flat runs plus the total number
    of maximal sign runs — the run-texture descriptor (few long runs
    = trending, many short = choppy) complementing turning_points'
    single count, and a pure-INTEGER operator (no float closings at
    all, so the gaps-and-islands SQL twin is trivially exact).

    One key-hash exchange, one lexsort, a vectorized boundary scan —
    no per-key loop.  Keys need n ≥ 2 (at least one difference)."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "longest_up": "int64",
            "longest_down": "int64",
            "longest_flat": "int64",
            "n_runs": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        if len(x) < 2:
            return empty_frame(cols)
        same = sg.same()[1:]
        d = x[1:] - x[:-1]
        sgn = np.sign(d).astype(np.int64)
        # run id over valid diffs only
        vi = np.flatnonzero(same)
        if not len(vi):
            return empty_frame(cols)
        sgv, gv = sgn[vi], sg.gid[1:][vi]
        newrun = np.r_[True, (gv[1:] != gv[:-1])
                       | (sgv[1:] != sgv[:-1])
                       | (vi[1:] != vi[:-1] + 1)]
        rid = np.cumsum(newrun) - 1
        rlen = np.bincount(rid)
        rsign = sgv[np.flatnonzero(newrun)]
        rgrp = gv[np.flatnonzero(newrun)]
        up = np.zeros(len(starts), np.int64)
        dn = np.zeros(len(starts), np.int64)
        fl = np.zeros(len(starts), np.int64)
        nr = np.zeros(len(starts), np.int64)
        np.maximum.at(up, rgrp[rsign == 1], rlen[rsign == 1])
        np.maximum.at(dn, rgrp[rsign == -1], rlen[rsign == -1])
        np.maximum.at(fl, rgrp[rsign == 0], rlen[rsign == 0])
        np.add.at(nr, rgrp, 1)
        res = pd.DataFrame({USER_ID: sg.keys, "n": n,
                            "longest_up": up, "longest_down": dn,
                            "longest_flat": fl, "n_runs": nr})
        return res[n >= 2]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def variogram(ds: ray.data.Dataset) -> pd.DataFrame:
    """Corpus structure function (index-lag semivariogram) of the
    per-key value streams: γ(h) = Σ(x_{i+h} − x_i)² / (2·N_h) over
    all within-key pairs at each index lag h — the astronomy
    first-order structure-function diagnostic (γ flat in h = white
    noise; power-law growth = correlated wander; saturation scale =
    decorrelation time), complementing acf/variance_ratio with a
    robust-to-mean-level view.

    Pair sums and counts are EXACT int64 in k-space (one vectorized
    shift-compare pass per lag h ∈ (1, 2, 4, 8)); the
    γ descale /(2N_h·10⁴) is the only float closing.  One key-hash
    exchange; cells (4 rows per partition) combine driver-side."""

    cols = {"lag": "int64",
            "n_pairs": "int64",
            "ss": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        k, x = sg.codes, _quantize(sg[VALUE])
        rows = []
        for h in (1, 2, 4, 8):
            h = int(h)
            if len(x) <= h:
                rows.append((h, 0, 0))
                continue
            same = k[h:] == k[:-h]
            d = x[h:] - x[:-h]
            rows.append((h, int(same.sum()),
                         int((d[same] * d[same]).sum())))
        return pd.DataFrame(rows, columns=list(cols))

    parts = group_apply(ds, per_key, key=USER_ID).to_pandas()
    cols = {"lag": "int64",
            "n_pairs": "int64",
            "ss": "int64",
            "gamma": "float64"}
    if parts.empty:
        return empty_frame(cols)
    agg = parts.groupby("lag", as_index=False)[["n_pairs",
                                                "ss"]].sum()
    npair = agg["n_pairs"].to_numpy(np.int64)
    ss = agg["ss"].to_numpy(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        gamma = ss.astype(np.float64) \
            / (2.0 * npair.astype(np.float64)) / 1e4
    out = pd.DataFrame({"lag": agg["lag"].to_numpy(np.int64),
                        "n_pairs": npair, "ss": ss, "gamma": gamma})
    return out[out["n_pairs"] > 0].sort_values("lag") \
        .reset_index(drop=True)


def load_factor(ds: ray.data.Dataset) -> pd.DataFrame:
    """Daily peak-to-mean load profile of the whole event stream:
    per UTC day, the event count, the busiest hour's count and the
    load factor peak/(n/24) — the capacity-planning number (1.0 =
    perfectly flat, 24 = everything in one hour) that sizes
    per-stage concurrency against the hot hour rather than the
    daily mean.

    Map-side (day, hour) partial cells (bounded by days×24, never
    by rows) combine driver-side; counts exact int64, the load
    factor is one mirrored float closing."""

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        day = tus // 86_400_000_000
        hour = (tus // 3_600_000_000) % 24
        g = pd.DataFrame({"day": day, "hour": hour}).groupby(
            ["day", "hour"], as_index=False).size()
        return g.rename(columns={"size": "c"})

    parts = ds.select_columns([TS]).map_batches(
        cells, batch_format="pandas").to_pandas()
    cols = {"day": "int64",
            "n_events": "int64",
            "peak_hour_cnt": "int64",
            "load_factor": "float64"}
    if parts.empty:
        return empty_frame(cols)
    agg = parts.groupby(["day", "hour"], as_index=False)["c"].sum()
    per = agg.groupby("day", as_index=False).agg(
        n_events=("c", "sum"), peak_hour_cnt=("c", "max"))
    lf = per["peak_hour_cnt"].to_numpy(np.int64).astype(np.float64) \
        * 24.0 / per["n_events"].to_numpy(np.int64).astype(np.float64)
    out = pd.DataFrame({"day": per["day"].to_numpy(np.int64),
                        "n_events": per["n_events"]
                        .to_numpy(np.int64),
                        "peak_hour_cnt": per["peak_hour_cnt"]
                        .to_numpy(np.int64),
                        "load_factor": lf})
    return out.sort_values("day").reset_index(drop=True)


def time_reversal(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key time-reversal asymmetry of the (ts, order)-sorted
    value stream: the standardized third moment of the first
    differences, trev = (ΣΔ³/n_d) / (ΣΔ²/n_d)^{3/2} — zero for any
    time-reversible process (all linear Gaussian ones), nonzero for
    asymmetric rise/fall dynamics (slow build / fast crash), the
    classic nonlinearity screen the ACF family is blind to.

    ΣΔ² and ΣΔ³ are EXACT int64 in k-space (|Δ|³ ≤ 10¹² per term —
    n ≲ 9·10⁶ per key before overflow; lift to float beyond); the
    standardization is the only float closing, mirrored
    term-for-term.  Keys need n ≥ 2 and ΣΔ² > 0.  One key-hash
    exchange."""

    cols = {USER_ID: "int64",
            "n_diff": "int64",
            "d3_sum": "int64",
            "trev": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, n = _quantize(sg[VALUE]), sg.n
        d = sg.diff(x)
        s2 = sg.sum(d * d)
        s3 = sg.sum(d * d * d)
        nd = (n - 1).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            m2 = s2.astype(np.float64) / nd
            m3 = s3.astype(np.float64) / nd
            trev = m3 / (m2 * np.sqrt(m2))
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n_diff": (n - 1), "d3_sum": s3,
                            "trev": trev})
        return res[(n >= 2) & (s2 > 0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def c3_nonlinearity(ds: ray.data.Dataset, lag: int = 1) -> pd.DataFrame:
    """Per-key c3 nonlinearity statistic (Schreiber & Schmitz 1997):
    c3 = mean(xₜ·xₜ₋ₗ·xₜ₋₂ₗ) over the (ts, order)-sorted stream — a
    third-order cross-moment that vanishes for symmetric linear
    processes; its magnitude screens for multiplicative/threshold
    dynamics (the tsfresh companion to time_reversal, which looks at
    differences where c3 looks at levels).

    The triple-product sum is EXACT int64 in k-space (|x|³ ≤
    1.25·10¹¹ per term ⇒ n ≲ 7·10⁷ per key; lift to float beyond);
    mean descale /(10⁶) value³-units is the only float closing.
    Keys need n > 2·lag.  One key-hash exchange."""
    h = int(lag)

    cols = {USER_ID: "int64",
            "n_terms": "int64",
            "c3_sum": "int64",
            "c3": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x = _quantize(sg[VALUE])
        if len(x) <= 2 * h:
            return empty_frame(cols)
        ok = sg.same(2 * h)
        prod = np.zeros(len(x), np.int64)
        prod[2 * h:] = x[2 * h:] * x[h:-h] * x[:-2 * h]
        s = sg.sum(np.where(ok, prod, 0))
        cnt = sg.sum(ok.astype(np.int64))
        with np.errstate(invalid="ignore", divide="ignore"):
            c3 = s.astype(np.float64) / cnt.astype(np.float64) / 1e6
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n_terms": cnt, "c3_sum": s, "c3": c3})
        return res[cnt > 0]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def energy_chunks(ds: ray.data.Dataset, n_chunks: int = 8) -> pd.DataFrame:
    """Per-key energy-ratio-by-chunks profile: the (ts, order)-sorted
    stream is cut into ``n_chunks`` equal index ranges and each
    chunk reports its share of the key's total energy Σx² — the
    within-series nonstationarity fingerprint (a flat profile is
    stationary; energy piling into late chunks flags ramp-up), the
    level-domain sibling of trend_seasonal.

    Chunk assignment is pure integer (chunk = rank₀·C // n, the SQL
    row_number mirror); Σx² per chunk is EXACT int64; the share is
    the only float closing.  One key-hash exchange, one lexsort."""
    C = int(n_chunks)

    cols = {USER_ID: "int64",
            "chunk": "int64",
            "n_c": "int64",
            "e_sum": "int64",
            "share": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        gid = sg.gid
        rank0 = sg.pos
        chunk = rank0 * C // np.repeat(n, n)
        cell = gid * C + chunk
        e = np.zeros(len(starts) * C, np.int64)
        cnt = np.zeros(len(starts) * C, np.int64)
        np.add.at(e, cell, x * x)
        np.add.at(cnt, cell, 1)
        tot = np.repeat(sg.sum(x * x), C)
        keep = cnt > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            share = e.astype(np.float64) / tot.astype(np.float64)
        res = pd.DataFrame({
            USER_ID: sg.keys[
                np.arange(len(e)) // C],
            "chunk": np.arange(len(e), dtype=np.int64) % C,
            "n_c": cnt, "e_sum": e, "share": share})
        return res[keep & (tot > 0)]

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols,
                          by=[USER_ID, "chunk"])


def binned_entropy(ds: ray.data.Dataset, n_bins: int = 10) -> pd.DataFrame:
    """Per-key binned entropy of the value distribution: each key's
    values drop into ``n_bins`` equal-width bins over the key's OWN
    [min, max] range and H = ln n − (Σ c·ln c)/n over the bin counts
    — the amplitude-diversity score (0 for constant or two-level
    streams, → ln B for uniform wander), the value-domain sibling of
    perm_entropy's ordinal one.

    Binning is pure integer in k-space (bin = (x − min)·B //
    (max − min + 1), always in [0, B)); counts exact int64; H is the
    one mirrored float closing.  Order-free: one key-hash
    exchange, bincount per key segment."""
    B = int(n_bins)

    cols = {USER_ID: "int64",
            "n": "int64",
            "bins_used": "int64",
            "entropy": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        xs, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        gid = sg.gid
        mn = sg.min(xs)
        mx = sg.max(xs)
        width = np.repeat(mx - mn + 1, n)
        b = (xs - np.repeat(mn, n)) * B // width
        cell = gid * B + b
        cnt = np.zeros(len(starts) * B, np.int64)
        np.add.at(cnt, cell, 1)
        cm = cnt.reshape(len(starts), B)
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            cf = cm.astype(np.float64)
            clc = np.where(cm > 0, cf * np.log(
                np.where(cm > 0, cf, 1.0)), 0.0)
            h = np.log(nf) - clc.sum(axis=1) / nf
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n": n,
                            "bins_used": (cm > 0).sum(axis=1)
                            .astype(np.int64),
                            "entropy": h})
        return res

    return collect_sorted(
        group_apply(ds.select_columns([USER_ID, VALUE]), per_key,
                      key=USER_ID), cols)


def psd_profile(ds: ray.data.Dataset, n_freqs: int = 8) -> pd.DataFrame:
    """Per-key low-frequency Fourier power profile of the DENSE
    hourly activity grid: demeaned DFT power at the first
    ``n_freqs`` Fourier frequencies j/n plus the log-log OLS
    spectral slope over those bins — the 1/f^α color of each key's
    activity (slope ≈ 0 white, ≈ −2 random-walk-like), the
    multi-bin generalization of seasonal_power's two fixed
    harmonics.

    Counts on the grid are exact; the trig sums, demeaning
    (c_j = Σc·cos − μ·Σcos, the seasonal_power idiom), powers,
    self-normalized shares and the slope's running sums are
    mirrored float expressions (round-6 robust).  Keys need
    span ≥ 2·n_freqs + 1 and all powers > 0 (else dropped).  One
    key-hash exchange; per-key work O(span·n_freqs)."""
    J = int(n_freqs)

    cols = {USER_ID: "int64",
            "j": "int64",
            "n_hours": "int64",
            "power": "float64",
            "share": "float64",
            "slope": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        h = sg[TS] // 3_600_000_000
        rows = []
        for s, e, key in zip(sg.starts, sg.ends, sg.keys):
            hk = h[s:e]
            mn, mx = int(hk.min()), int(hk.max())
            n = mx - mn + 1
            if n < 2 * J + 1:
                continue
            c = np.bincount(hk - mn, minlength=n).astype(np.int64)
            nf = float(n)
            mu = float(int(c.sum())) / nf
            t = np.arange(n, dtype=np.int64)
            powers = np.empty(J, np.float64)
            for j in range(1, J + 1):
                ang = 2.0 * np.pi * ((t * j) % n).astype(
                    np.float64) / nf
                co, si = np.cos(ang), np.sin(ang)
                cf = c.astype(np.float64)
                cj = float((cf * co).sum()) - mu * float(co.sum())
                sj = float((cf * si).sum()) - mu * float(si.sum())
                powers[j - 1] = cj * cj + sj * sj
            if powers.min() <= 0.0:
                continue
            tot = float(powers.sum())
            lx = np.log(np.arange(1, J + 1, dtype=np.float64))
            ly = np.log(powers)
            sx = float(np.cumsum(lx)[-1])
            sy = float(np.cumsum(ly)[-1])
            sxx = float(np.cumsum(lx * lx)[-1])
            sxy = float(np.cumsum(lx * ly)[-1])
            jf = float(J)
            slope = (jf * sxy - sx * sy) / (jf * sxx - sx * sx)
            for j in range(1, J + 1):
                rows.append((key, j, n,
                             powers[j - 1], powers[j - 1] / tot,
                             slope))
        if not rows:
            return empty_frame(cols)
        return pd.DataFrame(rows, columns=list(cols))

    return collect_sorted(
        group_apply(ds.select_columns([USER_ID, TS]), per_key,
                      key=USER_ID), cols, by=[USER_ID, "j"])


def extreme_locations(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key locations of the extrema in the (ts, order)-sorted
    value stream: first/last 0-based rank of the maximum and of the
    minimum, plus their relative positions rank/n — the tsfresh
    first/last_location_of_maximum/minimum quartet (late maxima =
    still climbing; early maxima + late minima = decaying stream).

    Ranks are pure integers from one lexsort + masked min/max per
    group; the four relative positions are the only float
    closings, mirrored by row_number window twins."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "first_max": "int64",
            "last_max": "int64",
            "first_min": "int64",
            "last_min": "int64",
            "first_max_rel": "float64",
            "last_min_rel": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        gid = sg.gid
        rank0 = sg.pos
        mx = sg.max(x)
        mn = sg.min(x)
        ismax = x == np.repeat(mx, n)
        ismin = x == np.repeat(mn, n)
        BIG = np.int64(2**62)
        fmax = np.full(len(starts), BIG)
        lmax = np.full(len(starts), np.int64(-1))
        fmin = np.full(len(starts), BIG)
        lmin = np.full(len(starts), np.int64(-1))
        np.minimum.at(fmax, gid[ismax], rank0[ismax])
        np.maximum.at(lmax, gid[ismax], rank0[ismax])
        np.minimum.at(fmin, gid[ismin], rank0[ismin])
        np.maximum.at(lmin, gid[ismin], rank0[ismin])
        nf = n.astype(np.float64)
        res = pd.DataFrame({
            USER_ID: sg.keys, "n": n,
            "first_max": fmax, "last_max": lmax,
            "first_min": fmin, "last_min": lmin,
            "first_max_rel": fmax.astype(np.float64) / nf,
            "last_min_rel": lmin.astype(np.float64) / nf})
        return res

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols)


def weibull_gaps(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key Weibull fit of the inter-event gap distribution via
    the closed-form Justus (1978) moment estimator: shape
    k = (σ/μ)^(−1.086) from the gap coefficient of variation, scale
    λ = μ/Γ(1 + 1/k) — k < 1 means bursty/clustered arrivals
    (heavier than exponential), k = 1 recovers exp_gap_fit's
    Poisson case, k > 1 regular/pacemaker streams.  The shape
    completes the gap family: burstiness (one number), exp_gap_fit
    (rate + KS), weibull_gaps (full two-parameter law).

    Gaps are mirrored whole seconds ((Δts µs) // 10⁶, the
    burstiness/xcorr_gap recipe — raw-µs Σd² would overflow int64 on
    multi-hour gaps); gap count and Σd/Σd² travel as EXACT int64
    sums through one keyed exchange; k and the gap CV close in
    mirrored float expressions (the scale λ = μ/Γ(1+1/k) is left to
    the caller: DuckDB's gamma() differs from libm's by 1 ulp, so it
    cannot sit inside a bit-exact oracle column).  Keys need
    n_gaps ≥ 2, nonzero gap variance and μ > 0."""

    cols = {USER_ID: "int64",
            "n_gaps": "int64",
            "mean_gap_s": "float64",
            "gap_cv": "float64",
            "weibull_k": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=(TS,))
        t, n = sg[TS], sg.n
        d = sg.diff(t) // 1_000_000          # whole-second gaps
        s1, s2 = sg.sum(d), sg.sum(d * d)
        ng = (n - 1).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            mu = s1.astype(np.float64) / ng
            var = s2.astype(np.float64) / ng - mu * mu
            cv = np.sqrt(var) / mu
            # exp/ln composition (not **): the proven mirrored-float
            # idiom — DuckDB twin closes as exp(-1.086*ln(cv))
            kk = np.exp(-1.086 * np.log(cv))
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n_gaps": n - 1,
                            "mean_gap_s": mu,
                            "gap_cv": cv, "weibull_k": kk})
        return res[(n >= 3) & (var > 0) & (mu > 0)]

    return collect_sorted(
        group_apply(ds.select_columns([USER_ID, TS]), per_key,
                      key=USER_ID), cols)


def complexity_profile(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key complexity-invariant-distance profile of the (ts,
    order)-sorted value stream: CE = √Σ(Δx)² (the CID complexity
    estimate — how much the curve 'wiggles'), Σ|Δx| and its mean
    (absolute-change energy), and the central mean second
    derivative, which telescopes to
    ((x_{n−1}−x_{n−2}) − (x_1−x_0)) / (2(n−2)) — the net
    acceleration of the stream's endpoints.

    Σ|Δx|, Σ(Δx)² and the telescoped numerator are EXACT int64
    k-space sums through one keyed exchange; cid/mean/msd close in
    mirrored float expressions.  Keys need n ≥ 3.  Int64 bound:
    Σ(Δx)² ≤ n·(2·100·max|v|)² — fine to ~10⁸ rows/key."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "sum_abs_change": "int64",
            "ce_sq": "int64",
            "cid": "float64",
            "mean_abs_change": "float64",
            "msd": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        k, x, starts, n = sg.codes, _quantize(sg[VALUE]), sg.starts, sg.n
        same = sg.same()[1:]
        gid = np.cumsum(np.r_[True, ~same]) - 1
        g1 = gid[1:][same]
        dx = (x[1:] - x[:-1])[same]
        sac = np.zeros(len(starts), np.int64)
        ces = np.zeros(len(starts), np.int64)
        np.add.at(sac, g1, np.abs(dx))
        np.add.at(ces, g1, dx * dx)
        ends = np.r_[starts[1:], len(k)] - 1
        keep = n >= 3
        msd_num = np.zeros(len(starts), np.int64)
        msd_num[keep] = (x[ends[keep]] - x[ends[keep] - 1]
                         - x[starts[keep] + 1] + x[starts[keep]])
        nf = n.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            cid = np.sqrt(ces.astype(np.float64))
            mac = sac.astype(np.float64) / (nf - 1.0)
            msd = msd_num.astype(np.float64) / (2.0 * (nf - 2.0))
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n": n, "sum_abs_change": sac,
                            "ce_sq": ces, "cid": cid,
                            "mean_abs_change": mac, "msd": msd})
        return res[keep]

    return collect_sorted(
        group_apply(
        ds.select_columns([USER_ID, TS, VALUE, EVENT_ID]),
        per_key, key=USER_ID), cols)


def strike_profile(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key mean-relative run structure of the value stream, ALL
    in exact integer space: the above-mean test x_i > mean is
    evaluated as x_i·n > Σx (no float mean ever formed), giving the
    longest strike above / below the mean, the above count, and the
    number of mean crossings (adjacent flips of the strictly-above
    flag) — the tsfresh longest_strike_above_mean /
    number_crossing_m pair done shuffle-once and float-free.

    One keyed exchange; per-partition run-length work is O(n) via
    run-id cumsums; every output column is exact int64, so the
    DuckDB twin (gaps-and-islands) matches bit-for-bit with no
    float closing at all."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "sum_x": "int64",
            "n_above": "int64",
            "longest_above": "int64",
            "longest_below": "int64",
            "n_cross": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        k, x, starts, n = sg.codes, _quantize(sg[VALUE]), sg.starts, sg.n
        S = sg.sum(x)
        n_r = np.repeat(n, n)
        s_r = np.repeat(S, n)
        lhs = x * n_r
        above = lhs > s_r
        below = lhs < s_r
        keybrk = np.r_[True, k[1:] != k[:-1]]

        def longest(mask: np.ndarray) -> np.ndarray:
            brk = keybrk | ~mask
            rid = np.cumsum(brk) - 1
            lens = np.bincount(rid[mask],
                               minlength=rid[-1] + 1 if len(rid)
                               else 0)
            per_pos = np.where(mask, lens[rid], 0)
            return sg.max(per_pos) \
                .astype(np.int64)

        nab = sg.sum(above.astype(np.int64))
        same = ~keybrk[1:]
        gid = np.cumsum(keybrk) - 1
        flips = same & (above[1:] != above[:-1])
        ncross = np.zeros(len(starts), np.int64)
        np.add.at(ncross, gid[1:][flips], 1)
        return pd.DataFrame({USER_ID: sg.keys,
                             "n": n, "sum_x": S,
                             "n_above": nab,
                             "longest_above": longest(above),
                             "longest_below": longest(below),
                             "n_cross": ncross})

    return collect_sorted(
        group_apply(
        ds.select_columns([USER_ID, TS, VALUE, EVENT_ID]),
        per_key, key=USER_ID), cols)


def index_mass_quantile(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key tsfresh index-mass-quantile profile: the smallest
    1-based index i where the running |x| mass reaches q of the
    total, for q ∈ {0.25, 0.5, 0.75} — 'how early does the stream
    concentrate its energy'.  rel_q = i/n near q means evenly
    spread mass; ≪ q means a front-loaded burst.

    The threshold test is all-integer (100·cumsum ≥ q%·total — no
    float mass ever formed), so the three indices are EXACT int64;
    only the rel_* ratios close in mirrored floats.  Keys with zero
    total |x| mass drop on both sides.  One keyed exchange,
    O(n) per-partition cumsums."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "total_abs": "int64",
            "idx_25": "int64",
            "idx_50": "int64",
            "idx_75": "int64",
            "rel_25": "float64",
            "rel_50": "float64",
            "rel_75": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        x, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        a = np.abs(x)
        cs = np.cumsum(a)
        base = np.repeat(np.r_[0, cs[np.r_[starts[1:], len(a)] - 1]
                               [:-1]], n)
        cs = cs - base
        tot = sg.sum(a)
        tot_r = np.repeat(tot, n)
        pos1 = np.arange(len(a), dtype=np.int64) \
            - np.repeat(starts, n) + 1
        big = np.int64(np.iinfo(np.int64).max)
        idx = {}
        for q in (25, 50, 75):
            hit = 100 * cs >= q * tot_r
            masked = np.where(hit, pos1, big)
            idx[q] = sg.min(masked) \
                .astype(np.int64)
        keep = tot > 0
        nf = n.astype(np.float64)
        res = pd.DataFrame({USER_ID: sg.keys,
                            "n": n, "total_abs": tot,
                            "idx_25": idx[25], "idx_50": idx[50],
                            "idx_75": idx[75],
                            "rel_25": idx[25] / nf,
                            "rel_50": idx[50] / nf,
                            "rel_75": idx[75] / nf})
        return res[keep]

    return collect_sorted(
        group_apply(
        ds.select_columns([USER_ID, TS, VALUE, EVENT_ID]),
        per_key, key=USER_ID), cols)


def ratio_beyond_sigma(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key share of points beyond 1σ / 2σ of the key's own mean
    (tsfresh ratio_beyond_r_sigma) — the tail-heaviness screen that
    kurtosis reads as one moment and this reads as two exact counts.

    The σ test never forms a float: |x − μ| > r·σ ⟺
    (n·x − S)² > r²·(n·Q − S²) with S = Σx, Q = Σx² in int64
    k-space (bound: n·Q ≲ 2³¹ rows·k² — far past sandbox scale).
    Counts are exact; the two shares are the only mirrored float
    divisions.  One key-hash exchange, reduceat per key segment."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "n_beyond_1s": "int64",
            "n_beyond_2s": "int64",
            "ratio_1s": "float64",
            "ratio_2s": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df, order=())
        xs, starts, n = _quantize(sg[VALUE]), sg.starts, sg.n
        S = sg.sum(xs)
        Q = sg.sum(xs * xs)
        nn = np.repeat(n, n)
        dev = nn * xs - np.repeat(S, n)
        dev2 = dev * dev
        var_n = np.repeat(n * Q - S * S, n)
        b1 = dev2 > var_n
        b2 = dev2 > 4 * var_n
        seg = sg.gid
        c1 = np.zeros(len(starts), np.int64)
        c2 = np.zeros(len(starts), np.int64)
        np.add.at(c1, seg, b1.astype(np.int64))
        np.add.at(c2, seg, b2.astype(np.int64))
        return pd.DataFrame({
            USER_ID: sg.keys,
            "n": n, "n_beyond_1s": c1, "n_beyond_2s": c2,
            "ratio_1s": c1.astype(np.float64) / n.astype(np.float64),
            "ratio_2s": c2.astype(np.float64)
            / n.astype(np.float64)})

    return collect_sorted(
        group_apply(ds.select_columns([USER_ID, VALUE]), per_key,
                      key=USER_ID), cols)


def reoccurrence_profile(ds: ray.data.Dataset) -> pd.DataFrame:
    """Per-key value-reoccurrence profile (the tsfresh reoccurrence
    quartet in one pass): distinct count, distinct values seen more
    than once, Σ of each reoccurring value counted ONCE
    (sum_of_reoccurring_values) and counted per point
    (sum_of_reoccurring_data_points), plus the two mirrored shares
    (points carrying a reoccurring value / n, distinct / n).
    Separates quantized/clipped streams (heavy reoccurrence) from
    continuous ones — a data-quality screen binned_entropy can't
    express.

    All sums are exact int64 in k-space over (key, k) histogram
    cells; one key-hash exchange."""

    cols = {USER_ID: "int64",
            "n": "int64",
            "n_distinct": "int64",
            "n_reocc_vals": "int64",
            "sum_reocc_vals": "int64",
            "sum_reocc_points": "int64",
            "pct_reocc_points": "float64",
            "distinct_ratio": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({USER_ID: df[USER_ID].to_numpy(),
                          "k": _quantize(df[VALUE].to_numpy())})
        c = g.groupby([USER_ID, "k"], as_index=False).size() \
            .rename(columns={"size": "c"})
        cc = c["c"].to_numpy(np.int64)
        kk = c["k"].to_numpy(np.int64)
        re = cc > 1
        agg = pd.DataFrame({
            USER_ID: c[USER_ID].to_numpy(),
            "one": 1,
            "cnt": cc,
            "rv": re.astype(np.int64),
            "sv": np.where(re, kk, 0),
            "sp": np.where(re, kk * cc, 0),
            "rp": np.where(re, cc, 0)})
        r = agg.groupby(USER_ID, as_index=False).agg(
            n=("cnt", "sum"), n_distinct=("one", "sum"),
            n_reocc_vals=("rv", "sum"),
            sum_reocc_vals=("sv", "sum"),
            sum_reocc_points=("sp", "sum"),
            n_reocc_points=("rp", "sum"))
        nf = r["n"].to_numpy(np.int64).astype(np.float64)
        return pd.DataFrame({
            USER_ID: r[USER_ID].to_numpy(),
            "n": r["n"].to_numpy(np.int64),
            "n_distinct": r["n_distinct"].to_numpy(np.int64),
            "n_reocc_vals": r["n_reocc_vals"].to_numpy(np.int64),
            "sum_reocc_vals": r["sum_reocc_vals"].to_numpy(np.int64),
            "sum_reocc_points":
                r["sum_reocc_points"].to_numpy(np.int64),
            "pct_reocc_points":
                r["n_reocc_points"].to_numpy(np.int64)
                .astype(np.float64) / nf,
            "distinct_ratio":
                r["n_distinct"].to_numpy(np.int64)
                .astype(np.float64) / nf})

    return collect_sorted(
        group_apply(ds.select_columns([USER_ID, VALUE]), per_key,
                      key=USER_ID), cols)


def abs_max_profile(ds: ray.data.Dataset, top_n: int = 5) -> pd.DataFrame:
    """Per-key mean of the ``top_n`` largest |value|s (tsfresh
    mean_n_absolute_max) — the spike-magnitude scale that a plain
    max reads as one point and a mean dilutes.  The top-k multiset
    of |k| values is order-unique, so the integer sum is exact and
    tie-break-free; mean_abs_max = sum/(100·min(top_n, n)) is the
    one mirrored closing (descaled back to value units).  One
    key-hash exchange, lexsorted segments, positional top-k."""

    T = int(top_n)

    cols = {USER_ID: "int64",
            "n": "int64",
            "top_abs_sum": "int64",
            "mean_abs_max": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        ak = np.abs(_quantize(df[VALUE].to_numpy()))
        sg = Segments(df, order=(-ak,))
        n = sg.n
        s = sg.sum(np.where(sg.pos < T, sg[ak], 0))
        denom = np.minimum(n, T).astype(np.float64)
        return pd.DataFrame({
            USER_ID: sg.keys,
            "n": n, "top_abs_sum": s,
            "mean_abs_max": s.astype(np.float64)
            / (100.0 * denom)})

    return collect_sorted(
        group_apply(ds.select_columns([USER_ID, VALUE]), per_key,
                      key=USER_ID), cols)


def number_peaks(ds: ray.data.Dataset, max_support: int = 3) -> pd.DataFrame:
    """Per-key count of peaks at supports 1..max_support (tsfresh
    number_peaks): a point is an s-peak when it is STRICTLY greater
    than all s neighbours on BOTH sides, all within the key's own
    time-ordered series (edge points lacking s neighbours can't be
    peaks — the lag/lead-NULL semantics of the SQL twin).  All
    counts exact int64 in quantized k-space; no float closings.
    One key-hash exchange, shift-mask vectorized per segment."""

    S = int(max_support)
    out_cols = [USER_ID, "n"] + [f"n_peaks_{s}" for s in range(1, S + 1)]

    cols = {c: "int64" for c in out_cols}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        xs, n, pos = _quantize(sg[VALUE]), sg.n, sg.pos
        nn = np.repeat(n, n)
        res = {USER_ID: sg.keys, "n": n}
        ok = np.ones(len(xs), bool)
        for s in range(1, S + 1):
            inb = (pos >= s) & (pos < nn - s)
            gt_l = np.zeros(len(xs), bool)
            gt_r = np.zeros(len(xs), bool)
            gt_l[s:] = xs[s:] > xs[:-s]
            gt_r[:-s] = xs[:-s] > xs[s:]
            ok = ok & inb & gt_l & gt_r
            res[f"n_peaks_{s}"] = sg.sum(ok.astype(np.int64))
        return pd.DataFrame(res)

    return collect_sorted(group_apply(
        ds.select_columns([USER_ID, TS, VALUE, EVENT_ID]),
        per_key, key=USER_ID), cols)


def chunk_trend_profile(
    ds: ray.data.Dataset,
    chunk_len: int = 16,
) -> pd.DataFrame:
    """Per-key aggregated chunked linear trend (tsfresh
    agg_linear_trend): the time-ordered series is cut into
    consecutive FULL chunks of ``chunk_len`` points (trailing
    partial chunk dropped — documented divergence from tsfresh's
    nan-slope partials), an OLS slope is fit per chunk against
    within-chunk index 0..C−1, and the per-key profile reports
    n_chunks, min/max slope and the positive-slope share.

    Slope numerators C·Σ(t·x) − Σt·Σx are exact int64 per chunk
    with a CONSTANT positive denominator C·Σt² − (Σt)², so
    min/max/sign aggregate over exact integers and the only floats
    are the two descaled closings min_num/(den·100), one per
    extremum — no float-sum ordering anywhere."""

    C = int(chunk_len)
    st_sum = C * (C - 1) // 2
    st_sq = (C - 1) * C * (2 * C - 1) // 6
    den = C * st_sq - st_sum * st_sum

    cols = {USER_ID: "int64",
            "n": "int64",
            "n_chunks": "int64",
            "n_pos_slope": "int64",
            "slope_min": "float64",
            "slope_max": "float64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        xs, n, pos, seg = _quantize(sg[VALUE]), sg.n, sg.pos, sg.gid
        chunk = pos // C
        t = pos % C
        full = chunk < np.repeat(n, n) // C
        gid = seg * (1 << 32) + chunk        # (key, chunk) packed
        g = pd.DataFrame({
            "gid": gid[full], "seg": seg[full],
            "sx": xs[full], "stx": t[full] * xs[full]})
        agg = g.groupby("gid", as_index=False).agg(
            seg=("seg", "first"), sx=("sx", "sum"),
            stx=("stx", "sum"))
        num = C * agg["stx"].to_numpy(np.int64) \
            - st_sum * agg["sx"].to_numpy(np.int64)
        per = pd.DataFrame({"seg": agg["seg"].to_numpy(),
                            "num": num,
                            "pos": (num > 0).astype(np.int64)})
        r = per.groupby("seg", as_index=False).agg(
            n_chunks=("num", "size"), n_pos_slope=("pos", "sum"),
            mn=("num", "min"), mx=("num", "max"))
        out = pd.DataFrame({
            USER_ID: sg.keys[r["seg"].to_numpy()],
            "n": n[r["seg"].to_numpy()],
            "n_chunks": r["n_chunks"].to_numpy(np.int64),
            "n_pos_slope": r["n_pos_slope"].to_numpy(np.int64),
            "slope_min": r["mn"].to_numpy(np.int64)
            .astype(np.float64) / (float(den) * 100.0),
            "slope_max": r["mx"].to_numpy(np.int64)
            .astype(np.float64) / (float(den) * 100.0)})
        return out

    return collect_sorted(group_apply(
        ds.select_columns([USER_ID, TS, VALUE, EVENT_ID]),
        per_key, key=USER_ID), cols)


def diebold_mariano(ds: ray.data.Dataset) -> pd.DataFrame:
    """Diebold–Mariano forecast-accuracy comparison between the two
    cheapest one-step forecasters — naive (ŷ_t = x_{t−1}) vs the
    two-point mean (ŷ_t = (x_{t−1}+x_{t−2})/2) — pooled over every
    key's time-ordered series: the backtest-family companion to
    mase_backtest that doesn't just score one forecaster but TESTS
    whether the accuracy gap is significant.

    The squared-loss differential is kept exact by 4-scaling:
    D_t = 4(x_t − x_{t−1})² − (2x_t − x_{t−1} − x_{t−2})² per point
    with both lags in the same key (int64 in k-space); n, S = ΣD
    and Q = ΣD² (Python-int / HUGEINT — D² overflows int64 at
    ~10³ rows) travel as map-side partials, and the h=1 DM closing
    z = (S/n)/√((Q/n − (S/n)²)/n) is the one mirrored float
    expression.  D > 0 ⇔ smoothing beats naive at that point."""

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        xs = _quantize(sg[VALUE])
        i = np.flatnonzero(sg.same(2))
        e1 = xs[i] - xs[i - 1]
        e2 = 2 * xs[i] - xs[i - 1] - xs[i - 2]
        D = 4 * e1 * e1 - e2 * e2
        S = int(D.sum())
        Q = sum(int(d) * int(d) for d in D)
        return pd.DataFrame({"n_pairs": [np.int64(len(i))],
                             "sum_d": [S], "sum_d2": [Q]})

    parts = group_apply(
        ds.select_columns([USER_ID, TS, VALUE, EVENT_ID]),
        per_key, key=USER_ID,
    ).to_pandas()
    cols = {"n_pairs": "int64", "sum_d": "int64", "dm_stat": "float64"}
    if parts.empty:
        return empty_frame(cols)
    n = int(parts["n_pairs"].sum())
    S = sum(int(v) for v in parts["sum_d"])
    Q = sum(int(v) for v in parts["sum_d2"])
    if n < 2:
        return empty_frame(cols)
    nf = float(n)
    dbar = float(S) / nf
    g0 = float(Q) / nf - dbar * dbar
    if g0 <= 0.0:
        return empty_frame(cols)
    z = dbar / np.sqrt(g0 / nf)
    return pd.DataFrame({
        "n_pairs": np.array([n], np.int64),
        "sum_d": np.array([S], np.int64),
        "dm_stat": [z]})


def conformal_interval(
    ds: ray.data.Dataset,
    alpha_pct: int = 10,
) -> pd.DataFrame:
    """Split-conformal calibration of the naive one-step forecaster
    (ŷ_t = x_{t−1}): consecutive-pair absolute residuals
    r = |x_t − x_{t−1}| split by the parity of the later point's
    within-key position — odd positions calibrate, even positions
    test — qhat is the ⌈(n_cal+1)(1−α)⌉-th smallest calibration
    residual (the finite-sample-valid conformal quantile), and the
    output reports the achieved test coverage against the 1−α
    target.  Everything is exact: residuals are int64 k-space,
    both splits travel as bounded residual-histogram cells, qhat
    is one order statistic on the cumulative calibration counts,
    and coverage = n_covered/n_test is the single float closing."""

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        xs = _quantize(sg[VALUE])
        i = np.flatnonzero(sg.same())
        r = np.abs(xs[i] - xs[i - 1])
        is_cal = (sg.pos[i] % 2) == 1   # 1-based pair position odd
        g = pd.DataFrame({"r": r,
                          "cal": is_cal.astype(np.int64),
                          "tst": 1 - is_cal.astype(np.int64)})
        return g.groupby("r", as_index=False).sum()

    hist = group_apply(
        ds.select_columns([USER_ID, TS, VALUE, EVENT_ID]),
        per_key, key=USER_ID,
    ).to_pandas()
    cols = {"n_calib": "int64", "n_test": "int64", "q_rank": "int64",
            "qhat_k": "int64", "n_covered": "int64",
            "coverage": "float64", "target": "float64"}
    if hist.empty:
        return empty_frame(cols)
    hist = hist.groupby("r", as_index=False)[["cal", "tst"]].sum() \
        .sort_values("r").reset_index(drop=True)
    n_cal = int(hist["cal"].sum())
    n_tst = int(hist["tst"].sum())
    if n_cal == 0 or n_tst == 0:
        return empty_frame(cols)
    # ⌈(n_cal+1)(1−α)⌉ in exact non-negative integer arithmetic
    # (sign-free so the SQL twin needn't rely on //'s negative
    # semantics)
    num = (n_cal + 1) * (100 - alpha_pct)
    q_rank = min(num // 100 + (1 if num % 100 else 0), n_cal)
    cum = np.cumsum(hist["cal"].to_numpy(np.int64))
    qhat = int(hist["r"].to_numpy(np.int64)[
        int(np.searchsorted(cum, q_rank))])
    covered = int(hist.loc[hist["r"] <= qhat, "tst"].sum())
    return pd.DataFrame({
        "n_calib": np.array([n_cal], np.int64),
        "n_test": np.array([n_tst], np.int64),
        "q_rank": np.array([q_rank], np.int64),
        "qhat_k": np.array([qhat], np.int64),
        "n_covered": np.array([covered], np.int64),
        "coverage": [float(covered) / float(n_tst)],
        "target": [float(100 - alpha_pct) / 100.0]})


def multi_regression(ds: ray.data.Dataset) -> pd.DataFrame:
    """Exact two-regressor OLS of value on (hour-of-day,
    day-of-week) with intercept, solved by integer Cramer's rule:
    the 3×3 normal-equation matrix and all four determinants are
    EXACT Python ints (HUGEINT oracle — det terms overflow int64
    at ~10⁴ rows), so the coefficients are exact-integer ratios
    and R² one further mirrored expression.  The multivariate
    member of the trend ladder (linear_trend fits one regressor;
    this asks "hour effect controlling for weekday").

    No exchange at all: one map-side moment partial (ten exact
    sums), driver closes."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        h = (tus // 3_600_000_000) % 24
        d = (tus // 86_400_000_000 + 4) % 7   # epoch day 0 = Thu
        y = np.rint(df[VALUE].to_numpy(np.float64) * 100.0) \
            .astype(np.int64)
        return pd.DataFrame({
            "n": [np.int64(len(y))],
            "sh": [int(h.sum())], "sd": [int(d.sum())],
            "shh": [int((h * h).sum())],
            "sdd": [int((d * d).sum())],
            "shd": [int((h * d).sum())],
            "sy": [int(y.sum())],
            "shy": [sum(int(a) * int(b) for a, b in zip(h, y))],
            "sdy": [sum(int(a) * int(b) for a, b in zip(d, y))],
            "syy": [sum(int(b) * int(b) for b in y)]})

    p = ds.select_columns([TS, VALUE]).map_batches(
        partial, batch_format="pandas").to_pandas()
    cols = {"n": "int64",
            "beta0": "float64",
            "beta_hour": "float64",
            "beta_dow": "float64",
            "r2": "float64"}
    if p.empty:
        return empty_frame(cols)
    n = int(p["n"].sum())
    sh = sum(int(v) for v in p["sh"])
    sd = sum(int(v) for v in p["sd"])
    shh = sum(int(v) for v in p["shh"])
    sdd = sum(int(v) for v in p["sdd"])
    shd = sum(int(v) for v in p["shd"])
    sy = sum(int(v) for v in p["sy"])
    shy = sum(int(v) for v in p["shy"])
    sdy = sum(int(v) for v in p["sdy"])
    syy = sum(int(v) for v in p["syy"])
    if n < 4:
        return empty_frame(cols)

    def det3(a, b, c, d_, e, f, g, h_, i):
        return (a * (e * i - f * h_) - b * (d_ * i - f * g)
                + c * (d_ * h_ - e * g))

    da = det3(n, sh, sd, sh, shh, shd, sd, shd, sdd)
    if da == 0:
        return empty_frame(cols)
    d0 = det3(sy, sh, sd, shy, shh, shd, sdy, shd, sdd)
    d1 = det3(n, sy, sd, sh, shy, shd, sd, sdy, sdd)
    d2 = det3(n, sh, sy, sh, shh, shy, sd, shd, sdy)
    b0 = float(d0) / float(da)
    b1 = float(d1) / float(da)
    b2 = float(d2) / float(da)
    sst = float(syy) - float(sy) * float(sy) / float(n)
    if sst <= 0.0:
        return empty_frame(cols)
    ssr = (b0 * float(sy) + b1 * float(shy) + b2 * float(sdy)
           - float(sy) * float(sy) / float(n))
    return pd.DataFrame({
        "n": np.array([n], np.int64),
        "beta0": [b0 / 100.0],
        "beta_hour": [b1 / 100.0],
        "beta_dow": [b2 / 100.0],
        "r2": [ssr / sst]})
