"""The three workloads.  Each one is a class with

* ``prepare()``   — benchmark-side inputs from the seed (not timed).  It
  runs in a child process, and only the workload's small attributes
  come back, so the driver's peak memory is not the benchmark's own;
* ``setup()``     — program-written state and warm-up (timed as set-up);
* ``min_units``   — the fewest loop units a run completes;
* ``op_batch()``  — one unit of the closed loop, returning the latencies
  of the queries in it, one ok flag per operation (partition or query),
  the input rows it consumed and the seconds spent consuming them;
* ``check()``     — correctness of everything produced, outside timing;
* ``stats()``     — input statistics for the run record.

A single client drives every loop: the next unit starts only after the
previous one finished (closed loop, one client).
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pandas as pd

from . import checks

# The Lomb-Scargle family minus the second full periodogram scan
# (period_fast) — the same list bench.py uses for flagship_full.
LS_BENCH_FEATURES = [
    "freq1_freq", "freq1_amplitude1", "freq1_amplitude2", "freq1_signif",
    "freq2_freq", "freq2_amplitude1", "freq2_signif",
    "freq3_freq", "freq3_signif",
    "freq_amplitude_ratio_21", "freq_frequency_ratio_21",
    "freq_varrat", "freq_y_offset", "linear_trend", "freq_n_alias",
    "fold2P_slope_10percentile", "fold2P_slope_90percentile",
    "p2p_scatter_2praw", "p2p_scatter_over_mad", "scatter_res_raw",
]

TIERS = ("1m", "1h", "1d")
_FLOOR = {"1m": "min", "1h": "h", "1d": "D"}


def write_corpus(out_dir: str, seed: int, n_gen: int, target_turns: int,
                 shards: int = 8, hot: tuple | None = None, **gen_kw):
    """Seeded turns from ``synth.write_turns``, cut to a fixed size so that
    every seed gives the same amount of work: conversations are taken in
    id order until ``target_turns`` is reached.  With ``hot=(min_turns,
    count)`` exactly ``count`` conversations of at least ``min_turns``
    turns are kept (the first ones by id) and the rest are filled with
    smaller ones.  The seed still decides every size, gap and text."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from cesium_ray.synth import write_turns

    gen = out_dir + "-gen"
    write_turns(gen, n_convs=n_gen, seed=seed, shards=shards, **gen_kw)
    tbl = pq.read_table(gen)
    shutil.rmtree(gen)
    sizes = tbl.group_by("conv_id").aggregate([("turn_idx", "count")]).to_pandas()
    sizes = sizes.sort_values("conv_id").set_index("conv_id")["turn_idx_count"]
    if hot is not None:
        lo, n_hot = hot
        big = sizes[sizes >= lo]
        if len(big) < n_hot:
            raise RuntimeError(f"seed {seed}: {len(big)} conversations of "
                               f">= {lo} turns, need {n_hot}")
        sizes = pd.concat([big.iloc[:n_hot], sizes[sizes < lo]])
    keep = sizes.index[: int(np.searchsorted(sizes.cumsum().to_numpy(), target_turns)) + 1]
    if sizes.loc[keep].sum() < target_turns:
        raise RuntimeError(f"seed {seed}: {sizes.sum()} turns, need {target_turns}")
    tbl = tbl.filter(pc.is_in(tbl["conv_id"], pa.array(sorted(keep))))
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, tbl.num_rows, shards + 1).astype(int)
    for s in range(shards):
        pq.write_table(tbl.slice(bounds[s], bounds[s + 1] - bounds[s]),
                       os.path.join(out_dir, f"turns-{s:04d}.parquet"))


def load_corpus(out_dir: str) -> pd.DataFrame:
    import pyarrow.parquet as pq

    return pq.read_table(out_dir).to_pandas()


class Flagship:
    """``rollup`` and ``full``: repeated ``run_flagship`` calls over one
    seeded Zipf corpus, each into a fresh output root."""

    def __init__(self, work: str, seed: int, full: bool, scale: float = 1.0):
        self.work, self.seed, self.full = work, seed, full
        if full:
            # 12 LS-hot conversations of 1000-1500 turns plus smaller ones
            self.n_gen, self.parts = max(100, int(300 * scale)), 8
            self.target, self.hot = int(24_000 * scale), (1000, max(1, int(12 * scale)))
            self.max_turns = 1500
            self.kw = dict(tiers=TIERS, features="general",
                           ls_features=LS_BENCH_FEATURES, ls_min_turns=1000,
                           balance_ls=True, codec=True, gapfill_tier="1m",
                           resume=False)
        else:
            # Conversations are capped at 300 turns so that turns spread
            # evenly over the 30 days.  With the generator's 2000 cap, ~40
            # giant conversations, each active for a day or two, held most
            # turns, so the rows a tier window held depended on the seed.
            # 2000 generated conversations hold at least 118 k turns for
            # every seed tried (0-1499), so the 100 k cut never runs short.
            self.n_gen, self.parts = max(100, int(2000 * scale)), 8
            self.target, self.hot, self.max_turns = int(100_000 * scale), None, 300
            self.kw = dict(tiers=TIERS, features=None, codec=False,
                           gapfill_tier=None, resume=False)
        self.turns_dir = os.path.join(work, "turns")
        self.calls = 0
        self.min_units = 4 if full else 2
        self.tier_queries = None if full else TierQueries(seed)
        self.labels = ["run_flagship"]
        self.metrics: list[pd.DataFrame] = []
        self.last_out = None

    def prepare(self):
        from cesium_ray.synth import write_turns

        write_corpus(self.turns_dir, self.seed, self.n_gen, self.target,
                     hot=self.hot, max_turns=self.max_turns)
        turns = load_corpus(self.turns_dir)
        self.n_turns = len(turns)
        sizes = turns.groupby("conv_id").size().to_numpy(np.int64)
        hot = sizes[sizes >= 1000].astype(np.float64)
        # LS series of a hot conv: text_len (n points), turn_latency (n - 1)
        self.input_stats = {
            "turns": int(self.n_turns), "conversations": int(len(sizes)),
            "ls_hot_convs": int(len(hot)),
            "ls_sum_n2": float((hot ** 2 + (hot - 1) ** 2).sum()),
            "partitions": self.parts}
        if self.tier_queries:
            self.tier_queries.plan(turns)
            self.labels = self.tier_queries.labels
        self.warm_dir = os.path.join(self.work, "warm")
        write_turns(self.warm_dir, n_convs=max(8, self.n_gen // 30),
                    seed=self.seed + 7919, shards=2, max_turns=self.max_turns)

    def _run(self, src: str, out: str) -> pd.DataFrame:
        import ray.data

        from cesium_ray.pipelines import run_flagship

        return run_flagship(ray.data.read_parquet(src), out,
                            num_partitions=self.parts, **self.kw)

    def setup(self):
        out = os.path.join(self.work, "warm-out")
        self._run(self.warm_dir, out)
        if self.tier_queries:
            self.tier_queries.warm_up(out)
        shutil.rmtree(out, ignore_errors=True)

    def op_batch(self):
        out = os.path.join(self.work, f"out-{self.calls}")
        t0 = time.perf_counter()
        m = self._run(self.turns_dir, out)
        wall = time.perf_counter() - t0
        self.calls += 1
        ok = checks.flagship_metrics_ok(m, self.n_turns)
        if self.last_out:
            shutil.rmtree(self.last_out, ignore_errors=True)
        self.last_out = out
        self.metrics.append(m)
        if self.tier_queries:
            lats = self.tier_queries.run_pass(out)
            return lats, ok + [True] * len(lats), self.n_turns, wall
        return [wall], ok, self.n_turns, wall

    def check(self) -> list[str]:
        """Partition ids whose output disagrees with the oracles, and
        indexes of tier queries whose result does."""
        turns = load_corpus(self.turns_dir)
        bad = checks.tiers_vs_oracle(self.last_out, turns, TIERS)
        if self.tier_queries:
            bad |= set(self.tier_queries.check(self.last_out))
        if self.full:
            bad |= checks.features_vs_oracle(
                self.last_out, turns, self.seed, LS_BENCH_FEATURES,
                ls_min_turns=self.kw["ls_min_turns"])
        return sorted(bad)

    def stats(self) -> dict:
        out = dict(self.input_stats)
        if self.tier_queries:
            out["tier_files"] = len(glob.glob(
                os.path.join(self.last_out, "tier=*", "date=*", "*.parquet")))
            out["queries_per_pass"] = len(self.tier_queries.queries)
        return out

    def corrupt(self):
        """Flip one value in one 1h tier file of the checked output."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        path = sorted(glob.glob(os.path.join(self.last_out, "tier=1h", "date=*",
                                             "*.parquet")))[0]
        t = pq.read_table(path, partitioning=None)
        i = t.schema.get_field_index("cnt")
        n = t.column(i).to_numpy().copy()
        n[0] += 1
        pq.write_table(t.set_column(i, "cnt", pa.array(n, t.schema.field(i).type)), path)


class TierQueries:
    """The read side of ``rollup``: a fixed seeded list of ``read_tier``
    windows, run over each tier tree the loop has just written.  Each
    query is executed to a row count plus an order-insensitive digest."""

    WINDOWS_H = (1, 3, 6, 24, 72)

    def __init__(self, seed: int):
        self.seed = seed
        self.results: list = []
        self.reports: list = []

    def plan(self, turns: pd.DataFrame):
        ts = np.sort(turns["ts"].to_numpy("datetime64[us]"))
        rng = np.random.default_rng(self.seed)
        qs = []
        # every (tier, window length) pair once, centred on noon of the
        # median turn's day and starting on a bucket boundary of the tier,
        # so that every window holds at least one bucket and spans the
        # same dates (1, or 3 for 72 h) whatever the seed.  The number of
        # files a window reads is then fixed too: Ray Data fetches Parquet
        # metadata with remote tasks above 24 files, which made a 72 h
        # window five times slower when it straddled a fourth date.
        anchor = pd.Timestamp(ts[len(ts) // 2]).floor("D") + pd.Timedelta(hours=12)
        for tier in TIERS:
            for h in self.WINDOWS_H:
                start = (anchor - pd.Timedelta(hours=h // 2)).floor(_FLOOR[tier])
                qs.append((tier, start, start + pd.Timedelta(hours=h, microseconds=-1)))
        order = rng.permutation(len(qs))
        self.queries = [qs[i] for i in order]
        self.labels = [f"{t}/{round((hi - lo) / pd.Timedelta(hours=1))}h"
                       for t, lo, hi in self.queries]

    def _execute(self, tree, tier, lo, hi):
        from cesium_ray.sources import tiers as tiers_mod

        from . import trace

        t0 = time.perf_counter()
        ds, rep = tiers_mod.read_tier(tree, tier, lo, hi)
        t1 = time.perf_counter()
        df = ds.to_pandas() if ds is not None else None
        res = checks.frame_digest(df)
        t2 = time.perf_counter()
        if trace.enabled():
            trace.record("sources.tiers.exec", t1, t2)
        return t2 - t0, res, rep

    def warm_up(self, tree: str):
        """The first executions of the read path, one day per tier."""
        for q, label in zip(self.queries, self.labels):
            if label.endswith("/24h"):
                self._execute(tree, *q)

    def run_pass(self, tree: str) -> list[float]:
        lats = []
        for q in self.queries:
            lat, res, rep = self._execute(tree, *q)
            self.results.append((q, res))
            lats.append(lat)
            self.reports.append(rep)
        return lats

    def check(self, tree: str) -> list[str]:
        """Indexes of executed queries whose count or digest disagrees
        with a plain pandas filter of the tier files (every pass wrote
        the same tree, so the last one stands for all)."""
        want = checks.tier_query_oracle(tree, self.queries, TIERS)
        return [f"query-{i}" for i, (q, res) in enumerate(self.results)
                if res != want[q]]


class TsdbOps:
    """``tsdb_ops``: the fixed operator mix below over a many-key event
    table, each through its query function, compared with its DuckDB
    twin."""

    OPS = ("ohlc_1h", "twa_1d", "rolling_avg", "interarrival", "linear_trend",
           "kaplan_meier", "logrank", "gehan", "cohort_retention")

    def __init__(self, work: str, seed: int, scale: float = 1.0):
        self.work, self.seed = work, seed
        self.n_convs = int(2000 * scale)
        self.turns_dir = os.path.join(work, "turns")
        self.sf = os.path.join(work, "sf")
        self.labels = list(self.OPS)
        self.min_units = 3
        self.results: list = []

    def prepare(self):
        from cesium_ray.synth import write_turns

        write_turns(self.turns_dir, n_convs=self.n_convs, seed=self.seed,
                    shards=4, max_turns=40)
        turns = pd.read_parquet(self.turns_dir)
        os.makedirs(self.sf, exist_ok=True)
        events = checks.events_from_turns(turns)
        events.to_parquet(os.path.join(self.sf, "events.parquet"), index=False)
        self.n_events, self.n_keys = len(events), int(events["user_id"].nunique())
        # warm-up table: the first tenth of the users
        self.warm_sf = os.path.join(self.work, "sf-warm")
        os.makedirs(self.warm_sf, exist_ok=True)
        warm = events[events["user_id"] < self.n_convs // 10]
        warm.to_parquet(os.path.join(self.warm_sf, "events.parquet"), index=False)

    @property
    def fns(self) -> list:
        from cesium_ray.pipelines.extra_queries import EXTRA_QUERIES

        return [EXTRA_QUERIES[name] for name in self.OPS]

    def setup(self):
        # warm-up: one pass of the mix on a small table (worker imports,
        # first exchanges)
        for fn in self.fns:
            fn(self.warm_sf)

    def op_batch(self):
        lats = []
        for name, fn in zip(self.OPS, self.fns):
            q0 = time.perf_counter()
            out = fn(self.sf)
            lats.append(time.perf_counter() - q0)
            self.results.append((name, out))
        return lats, [True] * len(lats), self.n_events * len(self.OPS), sum(lats)

    def check(self) -> list[str]:
        want = checks.sql_oracles(self.sf, self.OPS)
        return [f"{i}:{name}" for i, (name, out) in enumerate(self.results)
                if not checks.frames_equal(out, want[name])]

    def corrupt(self):
        name, out = self.results[0]
        out = out.copy()
        col = [c for c in out.columns if out[c].dtype.kind in "if"][-1]
        out.loc[out.index[0], col] = out[col].iloc[0] + 1
        self.results[0] = (name, out)

    def stats(self) -> dict:
        return {"events": int(self.n_events), "keys": self.n_keys,
                "ops_per_cycle": len(self.OPS)}


def make(name: str, work: str, seed: int, scale: float = 1.0):
    if name == "rollup":
        return Flagship(work, seed, full=False, scale=scale)
    if name == "full":
        return Flagship(work, seed, full=True, scale=scale)
    if name == "tsdb_ops":
        return TsdbOps(work, seed, scale=scale)
    raise ValueError(f"unknown workload {name!r}")
