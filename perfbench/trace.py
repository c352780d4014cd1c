"""Spans around the benchmark's calls into each cesium_ray layer.

Tracing is installed only in a traced run (``--trace 1``).  It patches
module and class attributes of the library from outside, in the driver
(``install``) and in every Ray worker process (the same ``install`` is the
``worker_process_setup_hook``), so the program itself is unchanged.

A span is (name, start, end, depth, counters).  Spans stay in memory;
a worker appends its buffer to ``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl``
each time its outermost span closes, and the driver reads those files
when the measured loop ends.  Recording is switched on and off by the
presence of ``$PERFBENCH_TRACE_DIR/on``, checked once per outermost span,
so the warm-up before the traced loop records nothing.

A span nested inside a span of the same name records nothing (its time
is already covered), so ``busy`` per name never double counts.

A traced run that cannot collect Ray Data's operator stats fails instead
of reporting 0 for the layers those stats supply.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

ENV_DIR = "PERFBENCH_TRACE_DIR"

_spans: list = []
_stack: list = []
_active = [False]
_driver_pid = [0]


def enabled() -> bool:
    d = os.environ.get(ENV_DIR)
    return bool(d) and os.path.exists(os.path.join(d, "on"))


def _flush():
    d = os.environ.get(ENV_DIR)
    if not d or not _spans or os.getpid() == _driver_pid[0]:
        return
    with open(os.path.join(d, f"spans-{os.getpid()}.jsonl"), "a") as f:
        for s in _spans:
            f.write(json.dumps(s) + "\n")
    _spans.clear()


def record(name: str, t0: float, t1: float, **counters):
    """Add one finished span (used directly for spans the benchmark
    times itself, e.g. executing a tier query)."""
    _spans.append({"name": name, "t0": t0, "t1": t1, "depth": len(_stack),
                   "parent": _stack[-1] if _stack else "", "pid": os.getpid(),
                   **counters})


def traced(name, fn, counters=None, name_of=None):
    """Wrap ``fn`` so each call is a span.  ``counters(args, result)``
    returns extra counts for the span; ``name_of(args)`` picks the span
    name per call."""
    if getattr(fn, "_perfbench_span", None):
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if not _stack:
            _active[0] = enabled()
        if not _active[0]:
            return fn(*args, **kw)
        nm = name_of(args) if name_of else name
        if nm in _stack:
            return fn(*args, **kw)
        _stack.append(nm)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kw)
        finally:
            t1 = time.perf_counter()
            _stack.pop()
        extra = counters(args, out) if counters else {}
        record(nm, t0, t1, **extra)
        if not _stack:
            _flush()
        return out

    wrapper._perfbench_span = True
    return wrapper


_END = object()


def _read_span_name(args, kw) -> str:
    frags = args[6] if len(args) > 6 else kw["serialized_fragments"]
    return ("sources.tiers.read" if "tier=" in frags[0].deserialize().path
            else "sources.read")


def _wrap_read(orig):
    """Ray Data's Parquet read task (``read_fragments``) is a generator.
    Only the time inside its ``next`` is the read: UDFs that Ray fuses
    into the same operator (``normalize_batch``, ``_part`` tagging) run
    between those calls, so they are not counted here.  Reads of a tier
    tree are named ``sources.tiers.read``; every other read is
    ``sources.read``."""
    if getattr(orig, "_perfbench_span", None):
        return orig

    @functools.wraps(orig)
    def read_fragments(*args, **kw):
        it = orig(*args, **kw)
        name = None
        while True:
            on = not _stack and enabled()
            t0 = time.perf_counter()
            batch = next(it, _END)
            if on:
                name = name or _read_span_name(args, kw)
                record(name, t0, time.perf_counter())
                _flush()
            if batch is _END:
                return
            yield batch

    read_fragments._perfbench_span = True
    return read_fragments


class _TagProxy:
    """Stand-in for the Dataset handed to ``with_partition``: its one
    ``map_batches`` call (the ``_part`` tagging UDF) gets a span."""

    def __init__(self, ds):
        self._ds = ds

    def map_batches(self, fn, *a, **kw):
        return self._ds.map_batches(traced("stages.partition.tag", fn), *a, **kw)

    def __getattr__(self, item):
        return getattr(self._ds, item)


_lpt_t0 = [None]


def _caller_module(depth: int = 2) -> str:
    return sys._getframe(depth).f_globals.get("__name__", "")


def _wrap_group_apply(orig):
    """``group_apply`` is called by tsmath/analytics/window (and by the
    flagship's LS size pass).  The per-partition ``fn`` gets a span named
    after the calling module, e.g. ``stages.tsmath.kernel``."""
    if getattr(orig, "_perfbench_span", None):
        return orig

    @functools.wraps(orig)
    def group_apply(ds, fn, *a, **kw):
        mod = _caller_module()
        if mod.endswith("pipelines.flagship") and enabled():
            _lpt_t0[0] = time.perf_counter()
        short = mod.rsplit(".", 1)[-1]
        if short in ("tsmath", "analytics", "window") and not isinstance(fn, type):
            fn = traced(f"stages.{short}.kernel", fn)
        return orig(ds, fn, *a, **kw)

    group_apply._perfbench_span = True
    return group_apply


def _wrap_lpt(orig):
    if getattr(orig, "_perfbench_span", None):
        return orig

    @functools.wraps(orig)
    def lpt_assignment(*a, **kw):
        out = orig(*a, **kw)
        t0, _lpt_t0[0] = _lpt_t0[0], None
        if t0 is not None and enabled():
            # from the size-count group_apply to the LPT placement
            record("stages.partition.lpt", t0, time.perf_counter())
        return out

    lpt_assignment._perfbench_span = True
    return lpt_assignment


def _wrap_with_partition(orig):
    if getattr(orig, "_perfbench_span", None):
        return orig

    @functools.wraps(orig)
    def with_partition(ds, *a, **kw):
        return orig(_TagProxy(ds), *a, **kw)

    with_partition._perfbench_span = True
    return with_partition


def _n2(args, out):
    return {"n2": float(len(args[0])) ** 2}


def _rows(args, out):
    return {"rows": int(len(out))}


def _files(args, out):
    return {"files": 1}


def _payload(args, out):
    n = int(out["payload"].str.len().sum()) if len(out) else 0
    return {"bytes": n}


def install():
    """Patch the library's layer entry points in this process.  Safe to
    call more than once."""
    from ray.data._internal.datasource import parquet_datasource

    from cesium_ray.oracle import graphs
    from cesium_ray.pipelines import flagship
    from cesium_ray.sources import tiers
    from cesium_ray.stages import analytics, normalize, partition, tsmath, window
    from cesium_ray.stages.codec import ChunkCodec
    from cesium_ray.stages.features import FeatureExtractor
    from cesium_ray.state.manifest import Manifest

    normalize.normalize_batch = traced("stages.normalize", normalize.normalize_batch)
    flagship.with_partition = _wrap_with_partition(flagship.with_partition)
    flagship.derive_channel_arrays = traced("oracle.rollup.derive",
                                            flagship.derive_channel_arrays)
    flagship.rollup_arrays = traced("oracle.rollup.rollup", flagship.rollup_arrays, _rows)
    flagship.gapfill_pandas = traced("oracle.gapfill", flagship.gapfill_pandas)
    flagship._atomic_file_write = traced("pipelines.flagship.file",
                                         flagship._atomic_file_write, _files)
    P = flagship.PartitionProcessor
    P._write_dated = traced("pipelines.flagship.write", P._write_dated)
    P.__call__ = traced("pipelines.flagship.partition", P.__call__)
    flagship.partition_fingerprint = traced("state.manifest.fingerprint",
                                            flagship.partition_fingerprint)
    Manifest.mark = traced("state.manifest.mark", Manifest.mark)
    ChunkCodec.__call__ = traced("stages.codec", ChunkCodec.__call__, _payload)
    FeatureExtractor.__call__ = traced(
        "stages.features.general", FeatureExtractor.__call__,
        name_of=lambda a: ("stages.features.ls" if a[0].ls_kwargs
                           else "stages.features.general"))
    graphs.lomb_scargle_model = traced("oracle.lomb_scargle",
                                       graphs.lomb_scargle_model, _n2)
    tiers.read_tier = traced("sources.tiers.plan", tiers.read_tier)
    tiers.file_zonemaps = traced("state.zonemap.footers", tiers.file_zonemaps)
    parquet_datasource.read_fragments = _wrap_read(parquet_datasource.read_fragments)
    partition.lpt_assignment = _wrap_lpt(partition.lpt_assignment)
    for mod in (partition, tsmath, analytics, window):
        mod.group_apply = _wrap_group_apply(mod.group_apply)
    _install_exchange_stats()


_op_stats: list = []
_seen_ops: set = set()
_stats_errors: list = []


def _install_exchange_stats():
    """Keep each finished Ray Data execution's per-operator stats
    (``ds.stats()`` of whatever the library executed; driver side)."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    if getattr(StreamingExecutor.shutdown, "_perfbench_span", None):
        return
    orig = StreamingExecutor.shutdown

    def shutdown(self, *a, **kw):
        out = orig(self, *a, **kw)
        if enabled():
            try:
                st = self._final_stats  # None if the execution never started
                if st is not None:
                    _collect_ops(st.to_summary())
            except Exception as e:  # reported by collect(), never mid-query
                _stats_errors.append(f"{type(e).__name__}: {e}")
        return out

    shutdown._perfbench_span = True
    StreamingExecutor.shutdown = shutdown


def _collect_ops(summary):
    for op in summary.operators_stats:
        key = (op.operator_name, op.earliest_start_time)
        if key in _seen_ops:
            continue
        _seen_ops.add(key)
        _op_stats.append({
            "op": op.operator_name,
            "elapsed_s": float(op.time_total_s or 0.0),
            "busy_s": float((op.wall_time or {}).get("sum", 0.0) or 0.0),
            "out_bytes": int((op.output_size_bytes or {}).get("sum", 0) or 0),
        })
    for p in summary.parents:
        _collect_ops(p)


def start(trace_dir: str):
    """Driver: begin recording into ``trace_dir`` (workers see it through
    the inherited environment)."""
    _driver_pid[0] = os.getpid()
    open(os.path.join(trace_dir, "on"), "w").close()


def stop(trace_dir: str):
    p = os.path.join(trace_dir, "on")
    if os.path.exists(p):
        os.remove(p)


def collect(trace_dir: str) -> tuple[list, list]:
    """All spans (driver + workers) and Ray Data operator stats recorded
    since the last ``collect``; clears both.  Raises if collecting the
    operator stats failed."""
    if _stats_errors:
        raise RuntimeError(f"Ray Data operator stats not collected: {_stats_errors[:3]}")
    spans = list(_spans)
    _spans.clear()
    for fn in sorted(os.listdir(trace_dir)):
        if fn.startswith("spans-") and fn.endswith(".jsonl"):
            path = os.path.join(trace_dir, fn)
            with open(path) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
            os.remove(path)
    ops = list(_op_stats)
    _op_stats.clear()
    return spans, ops


def summarize(spans: list) -> dict:
    """Per span name: calls, busy seconds (sum of durations) and self
    seconds (duration minus the part covered by child spans in the same
    process), plus every counter summed."""
    out: dict = {}
    by_pid: dict = {}
    for s in spans:
        by_pid.setdefault(s["pid"], []).append(s)
    for group in by_pid.values():
        group.sort(key=lambda s: (s["t0"], s["depth"]))
        for i, s in enumerate(group):
            dur = s["t1"] - s["t0"]
            covered, edge = 0.0, s["t0"]
            for c in group[i + 1:]:
                if c["t0"] >= s["t1"]:
                    break
                if c["depth"] != s["depth"] + 1:
                    continue
                lo, hi = max(c["t0"], edge), min(c["t1"], s["t1"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            agg = out.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += dur
            agg["self_s"] += dur - covered
            for k, v in s.items():
                if k not in ("name", "t0", "t1", "depth", "parent", "pid"):
                    agg[k] = agg.get(k, 0) + v
    return out
