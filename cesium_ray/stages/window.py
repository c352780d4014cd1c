"""Sliding time-range window aggregates (SURVEY.md §2 custom-op rule —
the "windowed aggregate" Ray Data lacks natively).

For each row, aggregate all rows of the same key whose time lies in
``[t − window, t]`` — SQL ``RANGE BETWEEN <window> PRECEDING AND
CURRENT ROW`` semantics (peers with the exact same time are included,
on both ends).

Distributed shape: ONE hash exchange on the key (group_apply), then a
fully vectorized per-partition kernel — sort by (key, t), prefix sums,
and two global ``searchsorted`` calls on a composite ``key·SPAN + t``
integer (the gapfill composite-key trick: SPAN exceeds every per-key
time range plus the window, so a search for ``t − window`` can never
cross into a neighboring key's range).  No per-key Python loop.

Partitioning assumption: all rows of one key hash to one partition.
Exact sums: values quantized at ``1/value_scale`` are summed in int64
(order-independent), mirroring the SQL oracle's
``sum(CAST(round(v*scale) AS BIGINT))``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from ..schema import EVENT_ID, EVENT_TYPE, TS, USER_ID, VALUE
from .partition import Segments, collect_sorted, empty_frame, group_apply


def window_range_agg_pandas(
    df: pd.DataFrame,
    by: str = "user_id",
    on: str = "ts",
    value: str = "value",
    window_s: int = 86400,
    value_scale: int = 100,
) -> pd.DataFrame:
    """Vectorized multi-key RANGE-window aggregate over one partition.
    Returns the input's identifying columns + ``w_cnt`` (rows in
    window), ``w_vcnt`` (non-null values), ``w_vsum`` (exact), and
    ``w_vavg`` (NaN when the window holds no non-null value)."""
    if not len(df):
        out = df.drop(columns=[value], errors="ignore").copy()
        for c, t in [("w_cnt", "int64"), ("w_vcnt", "int64"),
                     ("w_vsum", "float64"), ("w_vavg", "float64")]:
            out[c] = pd.Series(dtype=t)
        return out
    t_us = df[on].to_numpy("datetime64[us]").astype(np.int64)
    codes, _ = pd.factorize(df[by])
    order = np.lexsort((t_us, codes))
    t = t_us[order]
    c = codes[order].astype(np.int64)
    v = df[value].to_numpy(dtype=np.float64)[order]
    w_us = np.int64(window_s) * 1_000_000
    t0 = t.min()
    span = np.int64(t.max() - t0) + w_us + 2
    if (c.max() + 1) * span >= np.iinfo(np.int64).max // 2:
        raise OverflowError("window composite key overflow — shrink "
                            "partition key-count or time span")
    comp = c * span + (t - t0)
    hi = np.searchsorted(comp, comp, side="right")
    lo = np.searchsorted(comp, comp - w_us, side="left")
    ok = ~np.isnan(v)
    iv = np.zeros(len(v), dtype=np.int64)
    iv[ok] = np.round(v[ok] * value_scale).astype(np.int64)
    csum = np.r_[0, np.cumsum(iv)]
    ccnt = np.r_[0, np.cumsum(ok.astype(np.int64))]
    vsum_i = csum[hi] - csum[lo]
    vcnt = ccnt[hi] - ccnt[lo]
    vsum = vsum_i.astype(np.float64) / float(value_scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        vavg = vsum / vcnt
    vsum = np.where(vcnt == 0, np.nan, vsum)
    vavg = np.where(vcnt == 0, np.nan, vavg)
    out = df.iloc[order].drop(columns=[value]).copy()
    out["w_cnt"] = hi - lo
    out["w_vcnt"] = vcnt
    out["w_vsum"] = vsum
    out["w_vavg"] = vavg
    return out.reset_index(drop=True)


def sessionize_pandas(
    df: pd.DataFrame,
    by: str = "user_id",
    on: str = "ts",
    tie_col: str = "event_id",
    gap_s: int = 1800,
) -> pd.DataFrame:
    """Gap-based sessionization, vectorized across all keys in one
    partition: sort by (key, t, tie), break where the µs gap exceeds
    ``gap_s`` (exact integer compare — mirrors the SQL oracle's
    ``date_diff('microsecond', …) > gap·1e6``), per-key session index
    via one global cumsum.  Returns one row per session:
    (key, session_idx, n_events, session_start, session_end,
    duration_us)."""
    if not len(df):
        return pd.DataFrame({
            by: pd.Series(dtype=df[by].dtype if by in df else "int64"),
            "session_idx": pd.Series(dtype="int64"),
            "n_events": pd.Series(dtype="int64"),
            "session_start": pd.Series(dtype="datetime64[us]"),
            "session_end": pd.Series(dtype="datetime64[us]"),
            "duration_us": pd.Series(dtype="int64")})
    t_us = df[on].to_numpy("datetime64[us]").astype(np.int64)
    key = df[by].to_numpy()
    tie = df[tie_col].to_numpy()
    order = np.lexsort((tie, t_us, key))
    k = key[order]
    t = t_us[order]
    first = np.r_[True, k[1:] != k[:-1]]
    gap_us = np.int64(gap_s) * 1_000_000
    brk = first.copy()
    brk[1:] |= (t[1:] - t[:-1]) > gap_us
    cum = np.cumsum(brk.astype(np.int64))
    kstarts = np.flatnonzero(first)
    kcounts = np.diff(np.r_[kstarts, len(k)])
    sidx = cum - np.repeat(cum[kstarts] - 1, kcounts)
    g = pd.DataFrame({by: k, "session_idx": sidx, "_t": t})
    out = g.groupby([by, "session_idx"], as_index=False).agg(
        n_events=("_t", "size"), _start=("_t", "min"), _end=("_t", "max"))
    out["duration_us"] = (out["_end"] - out["_start"]).astype(np.int64)
    out["session_start"] = out["_start"].to_numpy().astype("datetime64[us]")
    out["session_end"] = out["_end"].to_numpy().astype("datetime64[us]")
    return out.drop(columns=["_start", "_end"])


def sessionize(
    ds: ray.data.Dataset,
    by: str = "user_id",
    on: str = "ts",
    tie_col: str = "event_id",
    gap_s: int = 1800,
) -> ray.data.Dataset:
    """Distributed gap-based sessionization: one hash exchange on the
    key, vectorized session kernel per partition."""
    return group_apply(
        ds,
        lambda df: sessionize_pandas(df, by=by, on=on, tie_col=tie_col,
                                     gap_s=gap_s),
        key=by,
    )


def windowed_aggregate(
    ds: ray.data.Dataset,
    by: str = "user_id",
    on: str = "ts",
    value: str = "value",
    window_s: int = 86400,
    value_scale: int = 100,
) -> ray.data.Dataset:
    """Distributed RANGE-window aggregate: hash exchange on ``by``,
    vectorized window kernel per partition."""
    return group_apply(
        ds,
        lambda df: window_range_agg_pandas(
            df, by=by, on=on, value=value,
            window_s=window_s, value_scale=value_scale),
        key=by,
    )


def rolling_rows_avg(ds: ray.data.Dataset, n: int = 5) -> ray.data.Dataset:
    """ROWS-window moving aggregate: for each row, count and average of
    the non-null values among the last ``n`` rows of the same key
    ordered by (``ts``, ``event_id``) — SQL ``ROWS BETWEEN n-1 PRECEDING
    AND CURRENT ROW``.  One hash exchange on the key; per partition a
    single lexsort + int64 prefix-sum difference (no per-key loop).
    Exactness: values quantized at 1/100 accumulate in
    int64 (order-independent), the final float division mirrors the
    SQL oracle's ``CAST(sum AS DOUBLE)/scale/count``."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        v = sg[VALUE].astype(np.float64)
        ok = ~np.isnan(v)
        cents = np.where(ok, np.round(v * 100), 0.0).astype(np.int64)
        psum = np.r_[np.int64(0), np.cumsum(cents)]
        pcnt = np.r_[np.int64(0), np.cumsum(ok.astype(np.int64))]
        idx = np.arange(len(v), dtype=np.int64)
        lo = np.maximum(idx - (n - 1), sg.starts[sg.gid])
        wsum = psum[idx + 1] - psum[lo]
        wcnt = pcnt[idx + 1] - pcnt[lo]
        avg = np.where(
            wcnt > 0,
            (wsum.astype(np.float64) / 100) / np.maximum(wcnt, 1),
            np.nan)
        return pd.DataFrame({
            USER_ID: sg[USER_ID],
            EVENT_ID: sg[EVENT_ID],
            "roll_cnt": wcnt.astype(np.int64),
            "roll_avg": avg,
        })

    return group_apply(ds, fn, key=USER_ID)


def gap_report(
    ds: ray.data.Dataset,
    gap_us_threshold: int = 3_600_000_000,
) -> ray.data.Dataset:
    """Silence-gap detection (the inverse of gapfill): for each key,
    every pair of consecutive events in (``ts``, ``event_id``) order whose
    timestamp delta exceeds the threshold, with the gap's endpoints
    and exact int64-µs width — SQL lead() semantics.  One key-hash
    exchange; per partition a single lexsort + shifted-diff mask, no
    per-key loop."""
    thr = np.int64(gap_us_threshold)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        t = sg[TS]
        delta = t[1:] - t[:-1]
        hit = sg.same()[1:] & (delta > thr)
        return pd.DataFrame({
            USER_ID: sg[USER_ID][:-1][hit],
            "gap_start": t[:-1][hit].view("datetime64[us]"),
            "gap_end": t[1:][hit].view("datetime64[us]"),
            "gap_us": delta[hit],
        })

    return group_apply(ds, fn, key=USER_ID)


def rolling_rows_std(ds: ray.data.Dataset, n: int = 5) -> ray.data.Dataset:
    """ROWS-window rolling volatility: sample standard deviation of the
    non-null values among the last ``n`` rows per key in (``ts``,
    ``event_id``) order.  Same one-exchange prefix-sum shape as
    rolling_rows_avg, with a second int64 prefix over cents² (values
    quantized at 1/scale: |cents| ≤ ~2²⁰ keeps n·cents² « 2⁶³).
    Exactness: the variance float expression
    ``(s2/scale² − (s/scale)·(s/scale)/cnt)/(cnt−1)`` is mirrored
    verbatim by the SQL oracle, clamped at 0 before the sqrt on both
    sides, so outputs are bit-identical.  cnt < 2 → NULL."""
    sc = 100.0
    sc2 = sc * sc

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sg = Segments(df)
        v = sg[VALUE].astype(np.float64)
        ok = ~np.isnan(v)
        cents = np.where(ok, np.round(v * sc), 0.0).astype(np.int64)
        p1 = np.r_[np.int64(0), np.cumsum(cents)]
        p2 = np.r_[np.int64(0), np.cumsum(cents * cents)]
        pc = np.r_[np.int64(0), np.cumsum(ok.astype(np.int64))]
        idx = np.arange(len(v), dtype=np.int64)
        lo = np.maximum(idx - (n - 1), sg.starts[sg.gid])
        s = (p1[idx + 1] - p1[lo]).astype(np.float64)
        s2 = (p2[idx + 1] - p2[lo]).astype(np.float64)
        cnt = pc[idx + 1] - pc[lo]
        cntf = cnt.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            var = (s2 / sc2 - (s / sc) * (s / sc) / cntf) / (cntf - 1.0)
        std = np.sqrt(np.maximum(var, 0.0))
        return pd.DataFrame({
            USER_ID: sg[USER_ID],
            EVENT_ID: sg[EVENT_ID],
            "roll_cnt": cnt,
            "roll_std": np.where(cnt > 1, std, np.nan),
        })

    return group_apply(ds, fn, key=USER_ID)


def sliding_distinct(ds: ray.data.Dataset, window_h: int = 24) -> pd.DataFrame:
    """Sliding-window distinct count: for every hour bucket present in
    the data, the number of distinct keys with ≥1 event in the
    trailing ``window_h``-hour window — the trailing-DAU curve.

    No per-window rescan: map-side distinct (key, hour) cells → one
    key-hash exchange → per partition each key's present hours merge
    into coverage intervals [h, h+W−1] (gap ≤ W−1 merges), emitted as
    ±1 difference-array cells keyed by hour; a driver cumsum over the
    (calendar-bounded) hour axis yields every bucket's exact count.
    The exchange carries interval endpoints (≤ one per key-activity
    run), never events."""
    W = np.int64(window_h)

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        h = tus // 3_600_000_000
        g = pd.DataFrame({"k": df[USER_ID].to_numpy(),
                          "h": h}).drop_duplicates()
        sg = Segments(g, key="k", order=("h",))
        hh = sg["h"]
        # a run breaks when the next present hour starts a disjoint
        # coverage interval: gap > W-1
        brk = ~sg.same() | np.r_[False, (hh[1:] - hh[:-1]) > (W - 1)]
        starts = np.flatnonzero(brk)
        ends = np.r_[starts[1:], len(hh)] - 1
        lo = hh[starts]                # first eval hour covered
        hi = hh[ends] + W              # one past the last covered hour
        out = pd.DataFrame({
            "h": np.r_[lo, hi],
            "d": np.r_[np.ones(len(lo), np.int64),
                       -np.ones(len(hi), np.int64)],
        })
        return out.groupby("h", as_index=False)["d"].sum()

    # distinct map-side first so the exchange carries (key, hour)
    # cells, then per-partition interval deltas
    def distinct_cells(df: pd.DataFrame) -> pd.DataFrame:
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        return pd.DataFrame({USER_ID: df[USER_ID].to_numpy(),
                             TS: df[TS].to_numpy(),
                             }).assign(_h=tus // 3_600_000_000) \
            .drop_duplicates([USER_ID, "_h"])[[USER_ID, TS]]

    pre = ds.map_batches(distinct_cells, batch_format="pandas")
    parts = group_apply(pre, cells, key=USER_ID).to_pandas()
    if parts.empty:
        return pd.DataFrame({"bucket_us": pd.Series(dtype="int64"),
                             "n_users": pd.Series(dtype="int64")})
    deltas = parts.groupby("h", as_index=False)["d"].sum().sort_values("h")
    hs = deltas["h"].to_numpy(np.int64)
    run = np.cumsum(deltas["d"].to_numpy(np.int64))

    # eval grid = hours PRESENT in the data: a calendar-bounded
    # map-side distinct-hour pass
    def hour_cells(df: pd.DataFrame) -> pd.DataFrame:
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        return pd.DataFrame(
            {"h": np.unique(tus // 3_600_000_000).astype(np.int64)})

    present = np.unique(
        ds.map_batches(hour_cells, batch_format="pandas")
        .to_pandas()["h"].to_numpy(np.int64))
    # counts are piecewise-constant between delta hours
    idx = np.searchsorted(hs, present, side="right") - 1
    n = np.where(idx >= 0, run[np.maximum(idx, 0)], 0).astype(np.int64)
    return pd.DataFrame({"bucket_us": present * 3_600_000_000,
                         "n_users": n})


def cooldown_dedup(ds: ray.data.Dataset, cooldown_s: int) -> ray.data.Dataset:
    """Time-conditional duplicate suppression ("alert-storm dedup"):
    keep an event iff the same (key, attr) stream has NO event in the
    strictly-preceding ``cooldown_s`` window — repeats inside the
    window are dropped, the first occurrence after each quiet period
    survives.  The keep test compares against the previous RAW event
    (not the previous survivor): a storm stays suppressed for as long
    as it keeps firing — the usual alerting semantics, and exactly
    SQL's ``lag()`` mirror.

    One key-hash exchange; per partition one lexsort over
    (key, attr, ts, order) + a shifted integer diff — no per-row
    Python.  Emits the surviving rows with ``since_prev_us`` (NaN for
    a stream's first event)."""
    gap_us = np.int64(cooldown_s) * 1_000_000

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        ac, _ = pd.factorize(df[EVENT_TYPE])
        sg = Segments(df, order=(ac, TS, EVENT_ID))
        a, t = sg[ac], sg[TS]
        same = sg.same() & np.r_[False, a[1:] == a[:-1]]
        dt = np.full(len(t), np.nan)
        dt[1:] = (t[1:] - t[:-1]).astype(np.float64)
        dt[~same] = np.nan
        kept = ~same | (np.nan_to_num(dt, nan=np.inf) > gap_us)
        return pd.DataFrame({
            USER_ID: sg[USER_ID][kept],
            EVENT_ID: sg[EVENT_ID][kept],
            EVENT_TYPE: sg[EVENT_TYPE][kept],
            "ts_us": t[kept],
            "since_prev_us": dt[kept],
        })

    return group_apply(ds, keep, key=USER_ID)


def rolling_window_median(
    ds: ray.data.Dataset,
    window_days: int = 7,
) -> pd.DataFrame:
    """Per (key, active day): the EXACT linear-interpolated median of
    all values in the trailing ``window_days``-day window — the
    windowed quantile the rolling avg/std family lacks.  Sorting the
    source doubles and applying the verified quantile_cont lerp
    (oracle/rollup.py::duck_quantile semantics, vectorized per
    segment) makes the output bit-equal to a DuckDB range-join +
    ``quantile_cont`` oracle.

    One key-hash exchange.  Per partition: the active-day table and
    the events are put on a shared key-offset day axis, each event's
    covered output days come from TWO global ``searchsorted`` calls,
    rows are replicated ≤ window_days times (bounded fan-out), and
    per-cell medians come from one lexsort + a vectorized segment
    lerp — no per-key or per-window Python."""
    day_us = np.int64(86_400) * np.int64(1_000_000)
    w = np.int64(window_days)

    cols = {USER_ID: "int64",
            "day": "int64",
            "p50_7d": "float64",
            "n_window": "int64"}

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        kc, kuniq = pd.factorize(df[USER_ID])
        day = (df[TS].to_numpy("datetime64[us]").view(np.int64)
               // day_us)
        v = df[VALUE].to_numpy(np.float64)
        d0 = day.min()
        span = np.int64(day.max() - d0) + w + np.int64(2)
        ax = kc.astype(np.int64) * span + (day - d0)
        # active (key, day) cells, sorted on the shared axis
        act = np.unique(ax)
        lo = np.searchsorted(act, ax)            # first active day ≥ own
        hi = np.searchsorted(act, ax + w)        # first beyond e_day+w−1
        reps = (hi - lo).astype(np.int64)
        # replicate each event into every active-day window it feeds
        ev_idx = np.repeat(np.arange(len(ax)), reps)
        offs = np.arange(reps.sum()) - np.repeat(
            np.cumsum(reps) - reps, reps)
        cell = lo[ev_idx] + offs                 # index into act
        vals = v[ev_idx]
        perm = np.lexsort((vals, cell))
        cell, vals = cell[perm], vals[perm]
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        n = np.diff(np.r_[starts, len(cell)]).astype(np.int64)
        pos = (n - 1) * 0.5
        fl = np.floor(pos)
        frac = pos - fl
        med = (vals[starts + fl.astype(np.int64)] * (1 - frac)
               + vals[starts + np.ceil(pos).astype(np.int64)] * frac)
        out_ax = act[cell[starts]]
        return pd.DataFrame({
            USER_ID: np.asarray(kuniq)[(out_ax // span).astype(np.int64)],
            "day": (out_ax % span + d0).astype(np.int64),
            "p50_7d": med,
            "n_window": n,
        })

    return collect_sorted(group_apply(ds, per_key, key=USER_ID), cols,
                          by=[USER_ID, "day"])


def finalize_windows(
    ds: ray.data.Dataset,
    bucket_s: int = 3600,
    delay_s: int = 300,
    n_arrival_buckets: int = 32,
) -> pd.DataFrame:
    """Streaming window-finalization semantics over a replayed batch:
    rows arrive in ``event_id`` order; the watermark before a row
    is the exclusive running max of event time over all earlier
    arrivals; a row of hour-window ``w`` is LATE (dropped from the
    emitted aggregate) iff the watermark had already passed
    ``w_end + delay`` when it arrived — exactly what a
    watermark-with-allowed-lateness streaming engine would emit.
    Output per window: total rows, late rows, and the emitted
    (on-time-only) k-space value sum — all exact int64.

    Distributed prefix-scan shape (the global running max cannot be
    a per-key kernel): pass 1 reduces each arrival-range bucket to
    its max event time (map-side cells); the driver prefix-maxes the
    ≤ ``n_arrival_buckets`` bucket maxima into exclusive offsets —
    broadcast-small; pass 2 computes each bucket's exclusive local
    cummax merged with its offset and reduces to per-window cells.
    The driver only ever sees buckets + window cells, never rows."""

    bucket_us = np.int64(bucket_s) * 1_000_000
    delay_us = np.int64(delay_s) * 1_000_000
    lo, hi = int(ds.min(EVENT_ID)), int(ds.max(EVENT_ID))
    span = max(hi - lo + 1, 1)
    width = -(-span // n_arrival_buckets)

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_ab"] = ((df[EVENT_ID].to_numpy(np.int64) - lo)
                     // width).astype(np.int64)
        return df

    parted = ds.select_columns([EVENT_ID, TS, VALUE]) \
        .map_batches(add_bucket, batch_format="pandas")

    def bucket_max(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"_ab": pd.Series(dtype="int64"),
                                 "mx": pd.Series(dtype="int64")})
        tus = df[TS].to_numpy("datetime64[us]").view(np.int64)
        g = pd.DataFrame({"_ab": df["_ab"], "mx": tus}).groupby(
            "_ab", as_index=False)["mx"].max()
        return g

    maxima = (parted.map_batches(bucket_max, batch_format="pandas")
              .to_pandas().groupby("_ab")["mx"].max())
    offsets = np.full(n_arrival_buckets, np.iinfo(np.int64).min)
    for ab, mx in maxima.items():
        offsets[int(ab)] = mx
    # exclusive prefix max over bucket order
    excl = np.full(n_arrival_buckets, np.iinfo(np.int64).min)
    run = np.iinfo(np.int64).min
    for i in range(n_arrival_buckets):
        excl[i] = run
        run = max(run, int(offsets[i]) if offsets[i] != np.iinfo(
            np.int64).min else run)
    off_ref = ray.put(excl)

    cols = {"bucket": "int64",
            "n": "int64",
            "n_late": "int64",
            "sum_on_time_k": "int64"}

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(off_ref)
        # a hash partition can hold several arrival buckets — the
        # exclusive cummax resets at bucket boundaries via the
        # key-offset band trick (lateness_report's kernel)
        sg = Segments(df, key="_ab", order=(EVENT_ID,))
        ab, code, tus = sg["_ab"], sg.codes, sg[TS]
        x = np.rint(sg[VALUE].astype(np.float64) * 100.0).astype(np.int64)
        tmin = tus.min()
        tn = tus - tmin
        band = np.int64(tn.max()) + 1
        if (int(code.max()) + 1) * int(band) >= 2**62:
            raise OverflowError("finalize band overflow — raise "
                                "n_arrival_buckets or shrink span")
        shifted = tn + code.astype(np.int64) * band
        run = np.maximum.accumulate(shifted)
        prev = np.r_[np.int64(-1), run[:-1]]
        SENT = np.iinfo(np.int64).min
        local_excl = np.where(
            ~sg.same(), SENT,
            prev - code.astype(np.int64) * band + tmin)
        wm = np.maximum(local_excl, offs[ab])
        w = tus // bucket_us
        late = wm >= (w + 1) * bucket_us + delay_us
        cells = pd.DataFrame({
            "bucket": w, "late": late.astype(np.int64),
            "x_on": np.where(late, np.int64(0), x)})
        g = cells.groupby("bucket", as_index=False).agg(
            n=("late", "size"), n_late=("late", "sum"),
            sum_on_time_k=("x_on", "sum"))
        for c in g.columns:
            g[c] = g[c].astype(np.int64)
        return g

    cells = group_apply(parted, per_bucket, key="_ab").to_pandas()
    if cells.empty:
        return empty_frame(cols)
    out = cells.groupby("bucket", as_index=False).agg(
        n=("n", "sum"), n_late=("n_late", "sum"),
        sum_on_time_k=("sum_on_time_k", "sum"))
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("bucket").reset_index(drop=True)
