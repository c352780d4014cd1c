"""Time-aware joins Ray Data lacks natively (SURVEY.md §2 custom-op
rule: compose map_batches + hash partition + vectorized per-partition
kernels, and document the partitioning assumption).

As-of join: for each left row, attach the single right row with the
greatest ``right_on`` value ≤ the left row's ``left_on`` (per ``by``
key; "backward", exact matches allowed) — the timeseries enrich
primitive (latest dimension state as of event time).

Two paths, one semantics:

  * ``asof_join_broadcast`` — dimension-sized right side: per-key
    sorted arrays built once, shipped via ``ray.put`` (ONE object-store
    copy regardless of task count), per-batch ``searchsorted`` inside
    ``map_batches``.  No shuffle; the left side streams.  The 100-TB
    default whenever the right side fits in memory.
  * ``asof_join`` — both sides large: tag + union into one unified
    Arrow schema, ONE hash exchange on ``by`` (group_apply), then a
    vectorized ``pd.merge_asof`` per partition.  Partitioning
    assumption: all rows of one key hash to one partition; a single
    key's rows must fit partition memory.

Determinism: requires ``right_on`` unique per (by, right_on) pair —
with duplicates ``merge_asof`` keeps the last sorted row; keep the
right side deduplicated for reproducible output.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from .partition import group_apply


def _arrow_schema(ds: ray.data.Dataset) -> pa.Schema:
    """Arrow schema of a Dataset, whether its blocks are Arrow or
    pandas (from_pandas gives a PandasBlockSchema of numpy dtypes)."""
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for n, t in zip(s.names, s.types):
        if isinstance(t, pa.DataType):
            pt = t
        elif t is object or np.dtype(t).kind == "O":
            pt = pa.string()  # pandas object column: string by convention
        else:
            pt = pa.from_numpy_dtype(t)
        fields.append(pa.field(n, pt))
    return pa.schema(fields)


def _as_int_us(arr: np.ndarray) -> np.ndarray:
    """Comparable int64 view of a time/numeric ``on`` column."""
    a = np.asarray(arr)
    if a.dtype.kind == "M":
        return a.astype("datetime64[us]").astype(np.int64)
    return a.astype(np.int64)


def asof_join_broadcast(
    left_ds: ray.data.Dataset,
    right_df: pd.DataFrame,
    by: str = "user_id",
    left_on: str = "ts",
    right_on: str = "ts",
    right_vals: tuple = ("value",),
    how: str = "inner",
) -> ray.data.Dataset:
    """Broadcast as-of join (small right side).  ``right_vals`` columns
    (plus the matched ``right_on`` as ``<right_on>_r``) attach to every
    left row; ``how='inner'`` drops left rows with no match."""
    r = right_df.sort_values([by, right_on], kind="mergesort").reset_index(drop=True)
    rk = r[by].to_numpy()
    uk, starts = np.unique(rk, return_index=True)
    ends = np.r_[starts[1:], len(r)]
    slices = {k: (int(s), int(e)) for k, s, e in zip(uk, starts, ends)}
    times = _as_int_us(r[right_on].to_numpy())
    vals = {c: r[c].to_numpy() for c in right_vals}
    vals[right_on + "_r"] = r[right_on].to_numpy()
    ref = ray.put((slices, times, vals))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        slices_, times_, vals_ = ray.get(ref)
        lt = _as_int_us(df[left_on].to_numpy())
        hit = np.full(len(df), -1, dtype=np.int64)
        codes, uniques = pd.factorize(df[by])
        for ci, kv in enumerate(uniques):
            sl = slices_.get(kv)
            if sl is None:
                continue
            s, e = sl
            m = codes == ci
            pos = np.searchsorted(times_[s:e], lt[m], side="right") - 1
            hit[m] = np.where(pos >= 0, s + pos, -1)
        out = df.copy()
        ok = hit >= 0
        idx = np.where(ok, hit, 0)
        for c, v in vals_.items():
            col = v[idx]
            if not ok.all():
                col = pd.Series(col).where(ok).to_numpy()
            out[c] = col
        if how == "inner":
            out = out[ok]
        return out

    return left_ds.map_batches(fn, batch_format="pandas")


def range_join_broadcast(
    left_ds: ray.data.Dataset,
    intervals: pd.DataFrame,
    on: str = "ts",
    start_col: str = "start",
    end_col: str = "end",
    carry: tuple = (),
) -> ray.data.Dataset:
    """Broadcast range join: one output row per (left row, interval)
    with ``start ≤ on < end`` — intervals may overlap, so a row can
    match several.  The interval table is dimension-sized (alert
    windows, maintenance windows, experiment spans): ship it once via
    ``ray.put`` and test membership vectorized per batch; the left side
    streams with NO shuffle.  ``carry``: interval columns to attach."""
    iv = intervals.reset_index(drop=True)
    starts = _as_int_us(iv[start_col].to_numpy())
    ends = _as_int_us(iv[end_col].to_numpy())
    vals = {c: iv[c].to_numpy() for c in (start_col, *carry)}
    ref = ray.put((starts, ends, vals))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        starts_, ends_, vals_ = ray.get(ref)
        t = _as_int_us(df[on].to_numpy())
        # offline stabbing query: with batch times sorted, each
        # interval's matches are one contiguous run — O((rows + n)·log
        # + hits) instead of a dense rows × n bool matrix
        order = np.argsort(t, kind="stable")
        ts = t[order]
        lo = np.searchsorted(ts, starts_, side="left")
        hi = np.searchsorted(ts, ends_, side="left")
        cnt = hi - lo
        wi = np.repeat(np.arange(len(starts_)), cnt)
        offs = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        ri = order[np.repeat(lo, cnt) + offs]
        keep = np.lexsort((wi, ri))  # (row, interval) order, as nonzero gave
        ri, wi = ri[keep], wi[keep]
        out = df.iloc[ri].reset_index(drop=True)
        for c, v in vals_.items():
            out[c + "_w"] = v[wi]
        return out

    return left_ds.map_batches(fn, batch_format="pandas")


def interval_overlap_broadcast(
    left_ds: ray.data.Dataset,
    intervals: pd.DataFrame,
    left_start: str = "session_start",
    left_end: str = "session_end",
    iv_start: str = "start",
    iv_end: str = "end",
    carry: tuple = (),
) -> ray.data.Dataset:
    """Broadcast interval-OVERLAP join (interval × interval, extending
    ``range_join_broadcast``'s point-in-interval): one output row per
    (left interval, small interval) pair with a non-empty CLOSED
    intersection — ``iv.start ≤ left.end AND iv.end ≥ left.start`` —
    carrying the exact overlap length ``overlap_us =
    min(ends) − max(starts)`` (0 when the intervals merely touch).

    The small side (alert/maintenance/busy windows) ships once via
    ``ray.put``; the left side streams with NO shuffle.  Candidates
    per left row are one contiguous run of the start-sorted windows
    (``start ∈ [left.start − max_len, left.end]``), refined by the
    exact end test — O(rows·log n + hits), no dense rows × n
    matrix."""
    iv = intervals.reset_index(drop=True)
    order = np.argsort(_as_int_us(iv[iv_start].to_numpy()), kind="stable")
    iv = iv.iloc[order].reset_index(drop=True)
    ws = _as_int_us(iv[iv_start].to_numpy())
    we = _as_int_us(iv[iv_end].to_numpy())
    if (we < ws).any():
        raise ValueError("interval end before start in small side")
    max_len = np.int64((we - ws).max()) if len(ws) else np.int64(0)
    vals = {c: iv[c].to_numpy() for c in (iv_start, *carry)}
    ref = ray.put((ws, we, max_len, vals))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ws_, we_, max_len_, vals_ = ray.get(ref)
        ss = _as_int_us(df[left_start].to_numpy())
        se = _as_int_us(df[left_end].to_numpy())
        lo = np.searchsorted(ws_, ss - max_len_, side="left")
        hi = np.searchsorted(ws_, se, side="right")
        cnt = np.maximum(hi - lo, 0)
        ri = np.repeat(np.arange(len(df)), cnt)
        offs = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        wi = np.repeat(lo, cnt) + offs
        keep = we_[wi] >= ss[ri]  # exact end test on the candidate run
        ri, wi = ri[keep], wi[keep]
        out = df.iloc[ri].reset_index(drop=True)
        for c, v in vals_.items():
            out[c + "_w"] = v[wi]
        out["overlap_us"] = (np.minimum(se[ri], we_[wi])
                             - np.maximum(ss[ri], ws_[wi]))
        return out

    return left_ds.map_batches(fn, batch_format="pandas")


def asof_join(
    left_ds: ray.data.Dataset,
    right_ds: ray.data.Dataset,
    by: str = "user_id",
    left_on: str = "ts",
    right_on: str = "ts",
    right_vals: tuple = ("value",),
    how: str = "inner",
) -> ray.data.Dataset:
    """Partitioned as-of join (both sides large): one hash exchange on
    ``by``, per-partition ``pd.merge_asof``.  Output = left columns +
    ``right_vals`` + matched ``<right_on>_r``."""
    # materialize the right side first: schema inspection on a lazy
    # shuffle-produced dataset executes it for the first block, and the
    # union below would re-execute it from scratch — one materialize
    # (the right side is the smaller table by convention) pays once
    right_ds = right_ds.materialize()
    lschema = _arrow_schema(left_ds)
    rschema = _arrow_schema(right_ds)
    left_cols = [n for n in lschema.names]
    on_type = lschema.field(left_on).type
    fields = [pa.field("_on", on_type), pa.field("_side", pa.uint8())]
    fields += [lschema.field(n) for n in left_cols]
    rval_fields = [pa.field(c + "_rv", rschema.field(c).type) for c in right_vals]
    fields += rval_fields
    fields.append(pa.field(right_on + "_r", rschema.field(right_on).type))
    unified = pa.schema(fields)
    if by not in left_cols:
        raise ValueError(f"by column {by!r} missing from left side")

    def tag(side: int, on_col: str, src_names) -> callable:
        def fn(batch: pa.Table) -> pa.Table:
            n = len(batch)
            arrays = []
            for f in unified:
                if f.name == "_on":
                    arrays.append(batch[on_col].cast(f.type))
                elif f.name == "_side":
                    arrays.append(pa.array(np.full(n, side, dtype=np.uint8)))
                elif f.name == right_on + "_r":
                    arrays.append(batch[right_on].cast(f.type) if side == 1
                                  else pa.nulls(n, f.type))
                elif f.name.endswith("_rv") and f.name[:-3] in right_vals and side == 1:
                    arrays.append(batch[f.name[:-3]].cast(f.type))
                elif f.name in src_names and not (side == 1 and f.name != by):
                    arrays.append(batch[f.name].cast(f.type))
                else:
                    arrays.append(pa.nulls(n, f.type))
            return pa.Table.from_arrays(arrays, schema=unified)

        return fn

    lt = left_ds.map_batches(tag(0, left_on, set(left_cols)),
                             batch_format="pyarrow")
    rt = right_ds.map_batches(tag(1, right_on, {by}), batch_format="pyarrow")
    both = lt.union(rt)

    rv_names = [c + "_rv" for c in right_vals] + [right_on + "_r"]

    # integer columns travel the exchange as Arrow nullable ints and
    # land in pandas as Int64/Int32 extension arrays — no float64
    # roundtrip (which silently corrupts ints > 2^53) and ONE stable
    # output schema for every partition regardless of null patterns
    _INT_MAP = {pa.int64(): pd.Int64Dtype(), pa.int32(): pd.Int32Dtype(),
                pa.int16(): pd.Int16Dtype(), pa.uint8(): pd.UInt8Dtype()}

    def fn(tbl: pa.Table) -> pd.DataFrame:
        df = tbl.to_pandas(types_mapper=_INT_MAP.get)
        l = df[df["_side"] == 0]
        r = df[df["_side"] == 1]
        l = l.sort_values("_on", kind="mergesort")
        r = r.sort_values("_on", kind="mergesort")
        out = pd.merge_asof(
            l[[*left_cols, "_on"]],
            r[[by, "_on", *rv_names]],
            on="_on", by=by, direction="backward", allow_exact_matches=True,
        )
        if how == "inner":
            out = out[out[right_on + "_r"].notna()]
        out = out.drop(columns=["_on"])
        out = out.rename(columns={c + "_rv": c for c in right_vals})
        out = out.reset_index(drop=True)
        # rule-based (data-independent) downcast so every partition
        # emits the same schema: inner joins and left-side columns are
        # non-null by construction → plain int64; right values under
        # how="left" may be unmatched → stay nullable Int64.  A null in
        # a supposedly non-null source column raises here (loudly)
        # instead of silently flipping the column to float.
        nullable_int = ("Int64", "Int32", "Int16", "UInt8")
        for c in left_cols:
            if str(out[c].dtype) in nullable_int:
                out[c] = out[c].astype(np.int64)
        if how == "inner":
            for c in [*right_vals, right_on + "_r"]:
                if str(out[c].dtype) in nullable_int:
                    out[c] = out[c].astype(np.int64)
        return out

    return group_apply(both, fn, key=by, batch_format="pyarrow")


def broadcast_anti_join(
    big: ray.data.Dataset,
    keys: np.ndarray,
    col: str = "user_id",
) -> ray.data.Dataset:
    """Exact anti-join: keep rows of ``big`` whose ``col`` is NOT in
    the key set.  The small side broadcasts once (``ray.put`` of a
    sorted array — membership by searchsorted, no per-batch reship, no
    shuffle at all).  Unlike the Bloom prefilter (heavy.py) this needs
    the EXACT set: a Bloom filter cannot prove non-membership."""
    import ray as _ray

    skeys = np.unique(np.asarray(keys))
    ref = _ray.put(skeys)

    def drop_members(tbl: pa.Table) -> pa.Table:
        s = _ray.get(ref)
        v = tbl[col].to_numpy(zero_copy_only=False)
        if len(s) == 0:
            return tbl
        pos = np.searchsorted(s, v)
        pos[pos >= len(s)] = 0
        return tbl.filter(pa.array(~(s[pos] == v)))

    return big.map_batches(drop_members, batch_format="pyarrow")


def interval_join_partitioned(
    left_df_ds,
    right_df_ds,
    bucket_s: int = 21600,
    left_cols: tuple = ("user_id", "session_idx"),
    right_cols: tuple = ("event_type",),
    left_start: str = "s_us",
    left_end: str = "e_us",
    right_start: str = "s_us",
    right_end: str = "e_us",
) -> ray.data.Dataset:
    """Partitioned interval-overlap join for TWO LARGE interval sets
    (the scale path; ``interval_overlap_broadcast`` handles the
    dimension-sized case).  Classic time-bucket replication: each
    interval is replicated to every ``bucket_s``-wide bucket it
    touches, buckets are hash-exchanged, and candidate pairs meet
    inside their bucket.  A pair overlapping several shared buckets is
    emitted EXACTLY ONCE by the dedupe rule: only the bucket
    containing the overlap's start (``max(start_l, start_r)``) emits
    it — no post-shuffle distinct needed.

    Shuffle volume = Σ ceil(len/bucket) per interval; pick bucket_s
    near the typical interval length.  Per bucket the kernel is the
    same start-sorted stabbing refinement as the broadcast path —
    O(n log n + hits), no dense matrix."""
    span = np.int64(bucket_s) * 1_000_000

    def replicate(side: int, start_col, end_col, carry):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            if not len(df):
                return pd.DataFrame({
                    "_bucket": pd.Series(dtype="int64"),
                    "_side": pd.Series(dtype="int8"),
                    "_s": pd.Series(dtype="int64"),
                    "_e": pd.Series(dtype="int64"),
                    **{f"c{i}": pd.Series(dtype=object)
                       for i in range(len(carry))}})
            s = _as_int_us(df[start_col].to_numpy())
            e = _as_int_us(df[end_col].to_numpy())
            b0 = s // span
            b1 = e // span
            cnt = (b1 - b0 + 1).astype(np.int64)
            ri = np.repeat(np.arange(len(df)), cnt)
            offs = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt,
                                                    cnt)
            out = {"_bucket": (b0[ri] + offs).astype(np.int64),
                   "_side": np.full(cnt.sum(), side, dtype=np.int8),
                   "_s": s[ri], "_e": e[ri]}
            # carries ride as strings: the two sides' carry columns
            # share union slots (c0, c1, …) and must agree on Arrow
            # type; callers cast ids back after the join
            for i, c in enumerate(carry):
                out[f"c{i}"] = df[c].astype(str).to_numpy()[ri]
            return pd.DataFrame(out)
        return fn

    lrep = left_df_ds.map_batches(
        replicate(0, left_start, left_end, left_cols),
        batch_format="pandas")
    rrep = right_df_ds.map_batches(
        replicate(1, right_start, right_end, right_cols),
        batch_format="pandas")
    # pad the narrower side so the union schema is stable
    ncl, ncr = len(left_cols), len(right_cols)
    width = max(ncl, ncr)

    def pad(n_have):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            for i in range(n_have, width):
                df[f"c{i}"] = ""  # keep the union slot's Arrow type
            return df
        return fn

    both = lrep.map_batches(pad(ncl), batch_format="pandas").union(
        rrep.map_batches(pad(ncr), batch_format="pandas"))

    out_cols = ([f"l_{c}" for c in left_cols]
                + [f"r_{c}" for c in right_cols])

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            **{c: pd.Series(dtype=object) for c in out_cols},
            "l_s_us": pd.Series(dtype="int64"),
            "r_s_us": pd.Series(dtype="int64"),
            "overlap_us": pd.Series(dtype="int64")})
        if not len(df):
            return empty
        frames = []
        for bkt, g in df.groupby("_bucket", sort=False):
            L = g[g["_side"] == 0]
            R = g[g["_side"] == 1]
            if not len(L) or not len(R):
                continue
            rs = R["_s"].to_numpy(np.int64)
            re_ = R["_e"].to_numpy(np.int64)
            order = np.argsort(rs, kind="stable")
            rs, re_ = rs[order], re_[order]
            Ri = R.index.to_numpy()[order]
            max_len = np.int64((re_ - rs).max())
            ls = L["_s"].to_numpy(np.int64)
            le = L["_e"].to_numpy(np.int64)
            lo = np.searchsorted(rs, ls - max_len, side="left")
            hi = np.searchsorted(rs, le, side="right")
            cnt = np.maximum(hi - lo, 0)
            li = np.repeat(np.arange(len(L)), cnt)
            offs = np.arange(cnt.sum()) - np.repeat(
                np.cumsum(cnt) - cnt, cnt)
            wi = np.repeat(lo, cnt) + offs
            keep = re_[wi] >= ls[li]
            li, wi = li[keep], wi[keep]
            # dedupe: emit only in the bucket holding the overlap start
            ostart = np.maximum(ls[li], rs[wi])
            own = (ostart // span) == bkt
            li, wi = li[own], wi[own]
            if not len(li):
                continue
            rec = {}
            for i, c in enumerate(left_cols):
                rec[f"l_{c}"] = L[f"c{i}"].to_numpy()[li]
            rsel = R.loc[Ri[wi]]
            for i, c in enumerate(right_cols):
                rec[f"r_{c}"] = rsel[f"c{i}"].to_numpy()
            rec["l_s_us"] = ls[li]
            rec["r_s_us"] = rs[wi]
            rec["overlap_us"] = (np.minimum(le[li], re_[wi])
                                 - np.maximum(ls[li], rs[wi]))
            frames.append(pd.DataFrame(rec))
        return pd.concat(frames, ignore_index=True) if frames else empty
    return group_apply(both, join_bucket, key="_bucket")


def upsert(
    base: ray.data.Dataset,
    delta: ray.data.Dataset,
    key: str = "event_id",
) -> ray.data.Dataset:
    """CDC-style last-write-wins upsert: rows in ``delta`` replace
    same-key rows in ``base``; unmatched rows pass through — the
    MERGE-INTO maintenance primitive for the tiered store.  Both
    inputs must share a schema.  Winner per key = highest
    (src, …stable input order), src 1 = delta; with several delta
    rows per key the kernel keeps the LAST in input order
    (row_number DESC semantics).

    ONE key-hash exchange over the tagged union; per partition one
    stable mergesort + last-per-key mask — no per-key loop.  At
    store scale the same kernel runs per partition file, so only
    partitions named in the delta's key range rewrite."""

    def tag(src: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["_src"] = np.int64(src)
            return df
        return fn

    both = (base.map_batches(tag(0), batch_format="pandas")
            .union(delta.map_batches(tag(1), batch_format="pandas")))

    def last_per_key(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        df = df.sort_values([key, "_src"], kind="mergesort")
        k = df[key].to_numpy()
        keep = np.r_[k[1:] != k[:-1], True]
        return df.loc[keep]
    return group_apply(both, last_per_key, key=key)
