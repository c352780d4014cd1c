"""Per-layer metrics of a traced run.

Every value is per loop unit (one ``run_flagship`` call, or one pass over
the query list / operator mix) of the traced loop, so runs that fit a
different number of units in their time stay comparable.  A layer the
workload never calls reports 0.
"""

from __future__ import annotations

import re

import numpy as np

# Ray Data all-to-all operators: the sort-based groupby exchange shows up
# as sub-operators SortSample / SortMap / SortReduce; hash shuffles,
# repartitions and aggregates under their own names.
_EXCHANGE = re.compile(r"^(Sort|Shuffle|RandomShuffle|Repartition|Aggregate|"
                       r"HashShuffle|HashAggregate|Join)")

# (metric, unit, span name, field of trace.summarize); the metrics that
# need more than one span or Ray Data's operator stats are in per_layer.
SPAN_METRICS = [
    ("sources.read_s", "s", "sources.read", "busy_s"),
    ("stages.normalize.busy_s", "s", "stages.normalize", "busy_s"),
    ("stages.partition.tag_s", "s", "stages.partition.tag", "busy_s"),
    ("oracle.rollup.derive_s", "s", "oracle.rollup.derive", "busy_s"),
    ("oracle.rollup.rollup_s", "s", "oracle.rollup.rollup", "busy_s"),
    ("oracle.rollup.rows_out", "count", "oracle.rollup.rollup", "rows"),
    ("pipelines.flagship.files_written", "count", "pipelines.flagship.file", "files"),
    ("state.manifest.mark_s", "s", "state.manifest.mark", "busy_s"),
    ("state.manifest.fingerprint_s", "s", "state.manifest.fingerprint", "busy_s"),
    ("oracle.lomb_scargle.busy_s", "s", "oracle.lomb_scargle", "busy_s"),
    ("oracle.lomb_scargle.calls", "count", "oracle.lomb_scargle", "calls"),
    ("oracle.lomb_scargle.sum_n2", "count", "oracle.lomb_scargle", "n2"),
    ("stages.features.general_s", "s", "stages.features.general", "busy_s"),
    ("oracle.gapfill.busy_s", "s", "oracle.gapfill", "busy_s"),
    ("stages.codec.busy_s", "s", "stages.codec", "busy_s"),
    ("stages.codec.payload_bytes", "B", "stages.codec", "bytes"),
    ("stages.partition.lpt_s", "s", "stages.partition.lpt", "busy_s"),
    ("sources.tiers.plan_s", "s", "sources.tiers.plan", "busy_s"),
    ("state.zonemap.footers_read", "count", "state.zonemap.footers", "calls"),
    ("sources.tiers.exec_s", "s", "sources.tiers.exec", "busy_s"),
    ("stages.tsmath.kernel_s", "s", "stages.tsmath.kernel", "busy_s"),
    ("stages.analytics.kernel_s", "s", "stages.analytics.kernel", "busy_s"),
    ("stages.window.kernel_s", "s", "stages.window.kernel", "busy_s"),
]


def _exchange(ops: list) -> tuple[float, float]:
    """(elapsed s, bytes out of the map side) of the exchange operators."""
    ex = [o for o in ops if _EXCHANGE.match(o["op"])]
    return (sum(o["elapsed_s"] for o in ex),
            sum(o["out_bytes"] for o in ex if o["op"].endswith("Map")))


def per_layer(wl, spans, ops, loop, tloop, env) -> tuple[dict, dict]:
    from perfbench import trace

    units = max(1, tloop["units"])
    table = {k: {f: (v / units if isinstance(v, (int, float)) else v)
                 for f, v in agg.items()}
             for k, agg in trace.summarize(spans).items()}
    out = {}
    for metric, unit, name, field in SPAN_METRICS:
        out[metric] = (float(table.get(name, {}).get(field, 0.0)), unit)
    # writes: tier files go through _write_dated; gap-fill, chunk and
    # feature files are single atomic writes outside it
    write = sum(s["t1"] - s["t0"] for s in spans
                if s["name"] == "pipelines.flagship.write"
                or (s["name"] == "pipelines.flagship.file"
                    and s["parent"] != "pipelines.flagship.write"))
    out["pipelines.flagship.write_s"] = (write / units, "s")
    ex_s, ex_bytes = _exchange(ops)
    out["stages.partition.exchange_s"] = (ex_s / units, "s")
    out["stages.partition.exchange_bytes"] = (ex_bytes / units, "B")
    table["ray_data.operators"] = {
        o: sum(x["elapsed_s"] for x in ops if x["op"] == o) / units
        for o in sorted({x["op"] for x in ops})}

    part = table.get("pipelines.flagship.partition", {}).get("busy_s", 0.0)
    ls = out["oracle.lomb_scargle.busy_s"][0]
    out["oracle.lomb_scargle.partition_share"] = (100.0 * ls / part if part else 0.0, "%")

    # straggler: the program's own per-partition duration_s, untraced loop
    durs = [np.asarray(m["duration_s"], np.float64)
            for m in getattr(wl, "metrics", [])[:loop["units"]]]
    task_max = max((float(d.max()) for d in durs), default=0.0)
    stragg = float(np.mean([d.max() / d.mean() for d in durs if d.mean() > 0])) if durs else 0.0
    out["pipelines.flagship.task_s_max"] = (task_max, "s")
    out["pipelines.flagship.straggler"] = (stragg, "ratio")

    tq = getattr(wl, "tier_queries", None)
    traced_reports = tq.reports[-units * len(tq.queries):] if tq else []
    n_q = max(1, len(traced_reports))
    out["sources.tiers.files_read"] = (sum(r["files_read"] for r in traced_reports) / n_q, "count")
    out["sources.tiers.files_total"] = (sum(r["files_total"] for r in traced_reports) / n_q, "count")

    out["stages.codec.v1_canary_mb_s"] = (env["codec_v1_canary_mb_s"], "MB/s")
    per_unit_untraced = loop["wall_s"] / loop["units"]
    per_unit_traced = tloop["wall_s"] / tloop["units"]
    out["perfbench.trace_overhead_pct"] = (
        100.0 * (per_unit_traced / per_unit_untraced - 1.0), "%")
    return out, table


def format_table(table: dict, units: int) -> str:
    """Human-readable per-layer table (per loop unit)."""
    lines = [f"# per-layer, per unit of the traced loop ({units} units)",
             f"# {'span':34s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}"]
    for name, agg in sorted(table.items()):
        if name == "ray_data.operators":
            continue
        lines.append(f"  {name:34s} {agg['calls']:9.1f} {agg['busy_s']:10.4f} "
                     f"{agg['self_s']:10.4f}")
    lines.append("# Ray Data operators, elapsed s per unit")
    for op, s in table.get("ray_data.operators", {}).items():
        lines.append(f"  {op[:60]:60s} {s:10.4f}")
    return "\n".join(lines)
