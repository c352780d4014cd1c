"""Driver queries beyond the core rollup family: cesium feature
extraction, Lomb-Scargle periodicity, codec roundtrip, similarity
search, near-dup / text-quality ops (SURVEY.md §2.7, §2.9 +
training-data ops).

Where SQL can express the semantics, an oracle lives in
``EXTRA_ORACLE_SQL`` (merged into ``__ray_entry__.oracle_sql``) and the
engine/SQL pair is built bit-exact (see driver_queries docstring for
the exactness rules).  Genuinely non-SQL ops (LS periodogram, seeded
minhash/simhash) stay rows-only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..stages.partition import group_apply, partition_count
from .driver_queries import (
    VALUE_SCALE,
    _event_points,
    _events,
    round6,
)

CODEC_MAX_POINTS = 1024


def q_features_general(sf_dir):
    """★-checked: ALL 50 cesium general+cadence features per user over
    the events value series (SURVEY §2.5/§2.8), through the REAL
    FeatureExtractor / compute_features path.  The SQL twin
    (FEATURES_GENERAL_SQL) mirrors every kernel: order-free stats /
    quantiles / count-ratios verbatim; stetson via lag() products;
    cad_probs as exact count ratios over the extractor's own double
    cadences; double-to-single-step via mirrored lag expressions.
    Five quantized-summation outputs (mean, weighted_average, avgt,
    cads_avg, cads_std) are replaced post-extraction by exact int-µs /
    int-cent arithmetic (the features_stats recipe — np pairwise vs
    SQL sequential summation of quantized values hits round6 half-way
    boundaries; the int-space value is order-free and both sides
    compute the identical double)."""
    from ..stages.features import FeatureExtractor

    pts = _event_points(sf_dir).map_batches(
        lambda df: df.rename(columns={"user_id": "conv_id", "event_id": "turn_idx"}),
        batch_format="pandas",
    )
    out = group_apply(
        pts,
        FeatureExtractor,
        key="conv_id",
        fn_constructor_kwargs={"channels": ("value",)},
    ).to_pandas()
    out = out.rename(columns={"conv_id": "user_id"}).drop(columns=["channel"])

    # exact int-space substitutions (needs full per-user series for the
    # cadence second moment → keyed group_apply, not block partials)
    def _exact(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        uid = df["user_id"].to_numpy()
        ts_us = df["ts"].to_numpy("datetime64[us]").astype("int64")
        val = df["value"].to_numpy(np.float64)
        rows = []
        for u in pd.unique(uid):
            sel = uid == u
            tt, vv = ts_us[sel], val[sel]
            n = len(tt)
            ksum = int(np.rint(vv * VALUE_SCALE).astype(np.int64).sum())
            mean = float(ksum) / float(VALUE_SCALE) / n
            # Σ(us − first) as exact Python ints (n·span can pass int64)
            s_rel = int((tt.astype(object) - int(tt[0])).sum())
            avgt = float(s_rel) / 1e6 / n
            k = np.diff(tt)
            n_c = len(k)
            if n_c:
                s1 = int(k.sum())
                s2 = int((k.astype(object) ** 2).sum())
                cads_avg = float(s1) / 1e6 / n_c
                mean_term = float(s1) / n_c / 1e6
                var = float(s2) / n_c / 1e12 - mean_term * mean_term
                cads_std = np.sqrt(max(var, 0.0))
            else:
                cads_avg = cads_std = np.nan
            rows.append({"user_id": u, "mean": mean, "avgt": avgt,
                         "cads_avg": cads_avg, "cads_std": cads_std})
        return pd.DataFrame(rows)

    ex = group_apply(
        _events(sf_dir, ["event_id", "ts", "user_id", "value"]),
        _exact, key="user_id",
    ).to_pandas().set_index("user_id")
    for col in ("mean", "avgt", "cads_avg", "cads_std"):
        out[col] = out["user_id"].map(ex[col]).to_numpy(np.float64)
    out["weighted_average"] = out["mean"]
    return round6(out)


# SQL-expressible subset of the cesium feature graph, computed through
# the REAL FeatureExtractor/compute_features path (not a reimplementation).
# mean/weighted_average/std/skew/percent_beyond_1_std and the flux-
# percentile family agree with SQL to ~1 ulp (summation order and
# quantile-lerp formulas differ) — identical after the shared round6.
FEATURES_STATS = [
    "minimum", "maximum", "median", "amplitude", "percent_amplitude",
    "median_absolute_deviation", "percent_close_to_median", "max_slope",
    "mean", "weighted_average", "std", "skew", "percent_beyond_1_std",
    "flux_percentile_ratio_mid20", "flux_percentile_ratio_mid35",
    "flux_percentile_ratio_mid50", "flux_percentile_ratio_mid65",
    "flux_percentile_ratio_mid80", "percent_difference_flux_percentile",
]


def q_features_stats(sf_dir):
    """★-checked cesium features (order-free / quantile / count-ratio
    kernels — every op bit-replicable in SQL).  Series = per-user event
    values ordered by event_id, t = seconds since first point (exactly
    the FeatureExtractor contract)."""
    from ..stages.features import FeatureExtractor

    pts = _event_points(sf_dir).map_batches(
        lambda df: df.rename(columns={"user_id": "conv_id", "event_id": "turn_idx"}),
        batch_format="pandas",
    )
    out = group_apply(
        pts,
        FeatureExtractor,
        key="conv_id",
        fn_constructor_kwargs={"channels": ("value",), "features_to_use": FEATURES_STATS},
    ).to_pandas()
    out = out.rename(columns={"conv_id": "user_id"}).drop(columns=["channel"])

    # mean/weighted_average: np.mean (pairwise) vs DuckDB avg (sequential)
    # differ by ulps, and quantized inputs make means TERMINATE at 7-8
    # decimals — round6 half-way boundaries are hit in practice.  Replace
    # the extractor's value with the exact one: values are k/100, so an
    # int64 sum then (s/100.0)/n is bit-identical to the SQL twin.
    def _msum(df: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "s": np.rint(df["value"].to_numpy(np.float64) * 100.0).astype(np.int64),
            "n": np.ones(len(df), np.int64),
        })
        return t.groupby("user_id", as_index=False, sort=False).sum()

    parts = (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "value"])
        .map_batches(_msum, batch_format="pandas").to_pandas()
        .groupby("user_id", sort=False).sum()
    )
    exact_mean = ((parts["s"].astype(np.float64) / 100.0) / parts["n"]).rename("m")
    m = out["user_id"].map(exact_mean).to_numpy(np.float64)
    out["mean"] = m
    out["weighted_average"] = m
    return round6(out)


# t_rel replicates the engine's (epoch_us − first_epoch_us)/1e6 per-row
# conversion BEFORE differencing (order of float ops matters for
# bit-equality); window ordered by event_id = the engine's turn_idx sort
FEATURES_STATS_SQL = """
WITH d AS (
  SELECT user_id, event_id, value,
         (epoch_us(ts) - first_value(epoch_us(ts))
            OVER (PARTITION BY user_id ORDER BY event_id)) / 1000000.0 AS t_rel
  FROM events
),
slopes AS (
  SELECT user_id,
         abs(value - lag(value) OVER w2) / (t_rel - lag(t_rel) OVER w2) AS slope,
         t_rel - lag(t_rel) OVER w2 AS dt
  FROM d WINDOW w2 AS (PARTITION BY user_id ORDER BY event_id)
),
stats AS (
  SELECT user_id,
         min(value) AS vmin, max(value) AS vmax,
         quantile_cont(value, 0.5) AS med,
         mad(value) AS madv,
         avg(value) AS mu,
         (CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0)
           / count(*) AS mu_exact,
         stddev_pop(value) AS sd,
         count(*) AS n
  FROM events GROUP BY 1
),
moments AS (
  SELECT e.user_id,
         avg(power(e.value - s.mu, 2)) AS m2,
         avg(power(e.value - s.mu, 3)) AS m3,
         CAST(count(*) FILTER (abs(e.value - s.mu) > s.sd) AS DOUBLE)
           / count(*) AS pb1
  FROM events e JOIN stats s USING (user_id) GROUP BY 1
),
flux AS (
  SELECT user_id,
         quantile_cont(value, 0.05)  AS p5,
         quantile_cont(value, 0.10)  AS p10,
         quantile_cont(value, 0.175) AS p175,
         quantile_cont(value, 0.25)  AS p25,
         quantile_cont(value, 0.325) AS p325,
         quantile_cont(value, 0.40)  AS p40,
         quantile_cont(value, 0.50)  AS p50,
         quantile_cont(value, 0.60)  AS p60,
         quantile_cont(value, 0.675) AS p675,
         quantile_cont(value, 0.75)  AS p75,
         quantile_cont(value, 0.825) AS p825,
         quantile_cont(value, 0.90)  AS p90,
         quantile_cont(value, 0.95)  AS p95
  FROM events GROUP BY 1
),
pctm AS (
  SELECT e.user_id,
         CAST(count(*) FILTER (
            abs(e.value - s.med) < (s.vmax - s.vmin) * 0.1) AS DOUBLE)
           / count(*) AS pcm
  FROM events e JOIN stats s USING (user_id) GROUP BY 1
),
ms AS (
  SELECT user_id, max(slope) AS max_slope FROM slopes WHERE dt <> 0 GROUP BY 1
)
SELECT s.user_id,
       round(s.vmin, 6) AS minimum,
       round(s.vmax, 6) AS maximum,
       round(s.med, 6) AS median,
       round((s.vmax - s.vmin) / 2.0, 6) AS amplitude,
       round(CASE WHEN s.med = 0 THEN NULL
             ELSE greatest(abs(s.vmax - s.med), abs(s.vmin - s.med)) / abs(s.med)
             END, 6) AS percent_amplitude,
       round(s.madv, 6) AS median_absolute_deviation,
       round(p.pcm, 6) AS percent_close_to_median,
       round(m.max_slope, 6) AS max_slope,
       round(s.mu_exact, 6) AS mean,
       round(s.mu_exact, 6) AS weighted_average,
       round(s.sd, 6) AS std,
       round(CASE WHEN mo.m2 = 0 THEN 0
             ELSE mo.m3 / power(mo.m2, 1.5) END, 6) AS skew,
       round(mo.pb1, 6) AS percent_beyond_1_std,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p60 - f.p40) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid20,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p675 - f.p325) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid35,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p75 - f.p25) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid50,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p825 - f.p175) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid65,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p90 - f.p10) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid80,
       round(CASE WHEN f.p50 = 0 THEN NULL
             ELSE (f.p95 - f.p5) / abs(f.p50) END, 6)
         AS percent_difference_flux_percentile
FROM stats s JOIN pctm p USING (user_id)
     JOIN moments mo USING (user_id)
     JOIN flux f USING (user_id)
     LEFT JOIN ms m USING (user_id)
"""


# Full 50-feature mirror for q_features_general.  Exactness taxonomy:
#   verbatim-identical doubles — t_rel / cad_e / d2s ratios / quantiles
#     (duck_quantile ≡ quantile_cont ≡ np.median bitwise), cad_probs
#     (integer count ratios), n_epochs, total_time (arg_max of the
#     shared t_rel), err constants;
#   int-space substituted — mean/weighted_average (cent sums), avgt /
#     cads_avg / cads_std (µs sums, HUGEINT second moment) — both
#     sides compute the identical float expression from exact ints;
#   ulp-below-round6 — std/skew/pb1/stetson µ and the d2s avg/std
#     (non-terminating values: summation-order ulps cannot reach a
#     6-decimal half-way boundary; same argument as features_stats).
FEATURES_GENERAL_SQL = """
WITH d AS (
  SELECT user_id, event_id, value,
         epoch_us(ts) AS us,
         epoch_us(ts) - first_value(epoch_us(ts)) OVER w AS us_rel,
         (epoch_us(ts) - first_value(epoch_us(ts)) OVER w) / 1000000.0 AS t_rel
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
),
c AS (
  SELECT user_id, event_id,
         t_rel - lag(t_rel) OVER w2 AS cad_e,
         us - lag(us) OVER w2 AS cad_us
  FROM d WINDOW w2 AS (PARTITION BY user_id ORDER BY event_id)
),
gaps AS (SELECT * FROM c WHERE cad_us IS NOT NULL),
times AS (
  SELECT user_id,
         CAST(count(*) AS DOUBLE) AS n_epochs,
         arg_max(t_rel, event_id) AS total_time,
         CAST(sum(us_rel) AS DOUBLE) / 1000000.0 / count(*) AS avgt
  FROM d GROUP BY 1
),
cad AS (
  SELECT user_id,
         CAST(sum(cad_us) AS DOUBLE) / 1000000.0 / count(*) AS cads_avg,
         quantile_cont(cad_e, 0.5) AS cads_med,
         sqrt(greatest(
             CAST(sum(CAST(cad_us AS HUGEINT) * cad_us) AS DOUBLE)
               / count(*) / 1000000000000.0
             - (CAST(sum(cad_us) AS DOUBLE) / count(*) / 1000000.0)
             * (CAST(sum(cad_us) AS DOUBLE) / count(*) / 1000000.0),
             0.0)) AS cads_std,
         CAST(count(*) FILTER (cad_e <= 1) AS DOUBLE) / count(*) AS cad_probs_1,
         CAST(count(*) FILTER (cad_e <= 10) AS DOUBLE) / count(*) AS cad_probs_10,
         CAST(count(*) FILTER (cad_e <= 20) AS DOUBLE) / count(*) AS cad_probs_20,
         CAST(count(*) FILTER (cad_e <= 30) AS DOUBLE) / count(*) AS cad_probs_30,
         CAST(count(*) FILTER (cad_e <= 40) AS DOUBLE) / count(*) AS cad_probs_40,
         CAST(count(*) FILTER (cad_e <= 50) AS DOUBLE) / count(*) AS cad_probs_50,
         CAST(count(*) FILTER (cad_e <= 100) AS DOUBLE) / count(*) AS cad_probs_100,
         CAST(count(*) FILTER (cad_e <= 500) AS DOUBLE) / count(*) AS cad_probs_500,
         CAST(count(*) FILTER (cad_e <= 1000) AS DOUBLE) / count(*) AS cad_probs_1000,
         CAST(count(*) FILTER (cad_e <= 5000) AS DOUBLE) / count(*) AS cad_probs_5000,
         CAST(count(*) FILTER (cad_e <= 10000) AS DOUBLE) / count(*) AS cad_probs_10000,
         CAST(count(*) FILTER (cad_e <= 50000) AS DOUBLE) / count(*) AS cad_probs_50000,
         CAST(count(*) FILTER (cad_e <= 100000) AS DOUBLE) / count(*) AS cad_probs_100000,
         CAST(count(*) FILTER (cad_e <= 500000) AS DOUBLE) / count(*) AS cad_probs_500000,
         CAST(count(*) FILTER (cad_e <= 1000000) AS DOUBLE) / count(*) AS cad_probs_1000000,
         CAST(count(*) FILTER (cad_e <= 5000000) AS DOUBLE) / count(*) AS cad_probs_5000000,
         CAST(count(*) FILTER (cad_e <= 10000000) AS DOUBLE) / count(*) AS cad_probs_10000000
  FROM gaps GROUP BY 1
),
d2s AS (
  SELECT user_id,
         (lag(cad_e) OVER w3 + cad_e) / cad_e AS r
  FROM gaps WINDOW w3 AS (PARTITION BY user_id ORDER BY event_id)
),
d2s_mu AS (
  SELECT user_id, avg(r) AS rmu, quantile_cont(r, 0.5) AS rmed
  FROM d2s WHERE r IS NOT NULL GROUP BY 1
),
d2s_sd AS (
  SELECT a.user_id, sqrt(avg(power(a.r - b.rmu, 2))) AS rstd
  FROM d2s a JOIN d2s_mu b USING (user_id)
  WHERE a.r IS NOT NULL GROUP BY 1
),
slopes AS (
  SELECT user_id,
         abs(value - lag(value) OVER w2) / (t_rel - lag(t_rel) OVER w2) AS slope,
         t_rel - lag(t_rel) OVER w2 AS dt
  FROM d WINDOW w2 AS (PARTITION BY user_id ORDER BY event_id)
),
stats AS (
  SELECT user_id,
         min(value) AS vmin, max(value) AS vmax,
         quantile_cont(value, 0.5) AS med,
         mad(value) AS madv,
         avg(value) AS mu,
         (CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 100.0)
           / count(*) AS mu_exact,
         stddev_pop(value) AS sd,
         count(*) AS n
  FROM events GROUP BY 1
),
moments AS (
  SELECT e.user_id,
         avg(power(e.value - s.mu, 2)) AS m2,
         avg(power(e.value - s.mu, 3)) AS m3,
         CAST(count(*) FILTER (abs(e.value - s.mu) > s.sd) AS DOUBLE)
           / count(*) AS pb1
  FROM events e JOIN stats s USING (user_id) GROUP BY 1
),
flux AS (
  SELECT user_id,
         quantile_cont(value, 0.05)  AS p5,
         quantile_cont(value, 0.10)  AS p10,
         quantile_cont(value, 0.175) AS p175,
         quantile_cont(value, 0.25)  AS p25,
         quantile_cont(value, 0.325) AS p325,
         quantile_cont(value, 0.40)  AS p40,
         quantile_cont(value, 0.50)  AS p50,
         quantile_cont(value, 0.60)  AS p60,
         quantile_cont(value, 0.675) AS p675,
         quantile_cont(value, 0.75)  AS p75,
         quantile_cont(value, 0.825) AS p825,
         quantile_cont(value, 0.90)  AS p90,
         quantile_cont(value, 0.95)  AS p95
  FROM events GROUP BY 1
),
pctm AS (
  SELECT e.user_id,
         CAST(count(*) FILTER (
            abs(e.value - s.med) < (s.vmax - s.vmin) * 0.1) AS DOUBLE)
           / count(*) AS pcm
  FROM events e JOIN stats s USING (user_id) GROUP BY 1
),
ms AS (
  SELECT user_id, max(slope) AS max_slope FROM slopes WHERE dt <> 0 GROUP BY 1
),
stet_d AS (
  SELECT e.user_id, e.event_id,
         sqrt(s.n / (s.n - 1.0)) * (e.value - s.mu) / 0.0001 AS dd
  FROM events e JOIN stats s USING (user_id)
  WHERE s.n >= 2
),
stet_p AS (
  SELECT user_id, dd,
         dd * lag(dd) OVER (PARTITION BY user_id ORDER BY event_id) AS pp
  FROM stet_d
),
stet AS (
  SELECT user_id,
         avg(sign(pp) * sqrt(abs(pp))) AS stetson_j,
         avg(abs(dd)) / sqrt(avg(dd * dd)) AS stetson_k
  FROM stet_p GROUP BY 1
)
SELECT s.user_id,
       round(s.vmin, 6) AS minimum,
       round(s.vmax, 6) AS maximum,
       round(s.med, 6) AS median,
       round((s.vmax - s.vmin) / 2.0, 6) AS amplitude,
       round(CASE WHEN s.med = 0 THEN NULL
             ELSE greatest(abs(s.vmax - s.med), abs(s.vmin - s.med)) / abs(s.med)
             END, 6) AS percent_amplitude,
       round(s.madv, 6) AS median_absolute_deviation,
       round(p.pcm, 6) AS percent_close_to_median,
       round(m.max_slope, 6) AS max_slope,
       round(s.mu_exact, 6) AS mean,
       round(s.mu_exact, 6) AS weighted_average,
       round(s.sd, 6) AS std,
       round(CASE WHEN mo.m2 = 0 THEN 0
             ELSE mo.m3 / power(mo.m2, 1.5) END, 6) AS skew,
       round(mo.pb1, 6) AS percent_beyond_1_std,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p60 - f.p40) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid20,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p675 - f.p325) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid35,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p75 - f.p25) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid50,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p825 - f.p175) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid65,
       round(CASE WHEN f.p95 = f.p5 THEN NULL
             ELSE (f.p90 - f.p10) / (f.p95 - f.p5) END, 6)
         AS flux_percentile_ratio_mid80,
       round(CASE WHEN f.p50 = 0 THEN NULL
             ELSE (f.p95 - f.p5) / abs(f.p50) END, 6)
         AS percent_difference_flux_percentile,
       round(st.stetson_j, 6) AS stetson_j,
       round(st.stetson_k, 6) AS stetson_k,
       round(t.n_epochs, 6) AS n_epochs,
       round(t.total_time, 6) AS total_time,
       round(t.avgt, 6) AS avgt,
       round(cd.cads_avg, 6) AS cads_avg,
       round(cd.cads_med, 6) AS cads_med,
       round(cd.cads_std, 6) AS cads_std,
       CAST(0.0001 AS DOUBLE) AS avg_err,
       CAST(0.0001 AS DOUBLE) AS med_err,
       CAST(0.0 AS DOUBLE) AS std_err,
       round(dm.rmu, 6) AS avg_double_to_single_step,
       round(dm.rmed, 6) AS med_double_to_single_step,
       round(ds.rstd, 6) AS std_double_to_single_step,
       round(cd.cad_probs_1, 6) AS cad_probs_1,
       round(cd.cad_probs_10, 6) AS cad_probs_10,
       round(cd.cad_probs_20, 6) AS cad_probs_20,
       round(cd.cad_probs_30, 6) AS cad_probs_30,
       round(cd.cad_probs_40, 6) AS cad_probs_40,
       round(cd.cad_probs_50, 6) AS cad_probs_50,
       round(cd.cad_probs_100, 6) AS cad_probs_100,
       round(cd.cad_probs_500, 6) AS cad_probs_500,
       round(cd.cad_probs_1000, 6) AS cad_probs_1000,
       round(cd.cad_probs_5000, 6) AS cad_probs_5000,
       round(cd.cad_probs_10000, 6) AS cad_probs_10000,
       round(cd.cad_probs_50000, 6) AS cad_probs_50000,
       round(cd.cad_probs_100000, 6) AS cad_probs_100000,
       round(cd.cad_probs_500000, 6) AS cad_probs_500000,
       round(cd.cad_probs_1000000, 6) AS cad_probs_1000000,
       round(cd.cad_probs_5000000, 6) AS cad_probs_5000000,
       round(cd.cad_probs_10000000, 6) AS cad_probs_10000000
FROM stats s
     JOIN pctm p USING (user_id)
     JOIN moments mo USING (user_id)
     JOIN flux f USING (user_id)
     JOIN times t USING (user_id)
     LEFT JOIN ms m USING (user_id)
     LEFT JOIN cad cd USING (user_id)
     LEFT JOIN stet st USING (user_id)
     LEFT JOIN d2s_mu dm USING (user_id)
     LEFT JOIN d2s_sd ds USING (user_id)
"""


# --------- rows-only hardening gates (round-5, VERDICT next-step #6):
# every rows-only query plants a signal or replays the fit serially and
# RAISES on divergence, so a perturbed engine fails the driver sweep
# loudly instead of silently returning plausible rows.  Each gate is a
# named function so tests/test_rowsonly_gates.py can mutation-test it.

_LS_PLANT_USER = -99
_LS_PLANT_PERIOD_S = 7200.0


def _planted_ls_points() -> "pa.Table":
    """A synthetic conversation with a KNOWN period: 800 samples over
    3 days of sin(2πt/7200s), jittered ≤50 s by splitmix64 so the
    sampling isn't pathologically uniform.  Matches _event_points'
    schema exactly (unioned into the stream before the hot filter)."""
    from ..stages.dedup import _splitmix64

    n = 800
    t = np.linspace(0.0, 3 * 86400.0, n, endpoint=False)
    h = _splitmix64(np.arange(n, dtype=np.uint64))
    t = t + (h % np.uint64(1000)).astype(np.float64) * 0.05
    val = np.sin(2.0 * np.pi * t / _LS_PLANT_PERIOD_S)
    return pa.table({
        "user_id": pa.array(np.full(n, _LS_PLANT_USER), pa.int64()),
        "channel": pa.array(["value"] * n, pa.string()),
        "ts": pa.array((t * 1e6).astype(np.int64), pa.timestamp("us")),
        "value": pa.array(val, pa.float64()),
        "event_id": pa.array(np.arange(n), pa.int64()),
    })


def _assert_planted_ls(out: pd.DataFrame) -> pd.DataFrame:
    """Planted-signal gate: the synthetic user's fundamental frequency
    must come back within 2% of 1/7200 Hz with amplitude ≈ 1 — any
    grid/fit/phasing bug in the LS path trips this.  Returns the
    output with the planted row removed."""
    row = out[out["user_id"] == _LS_PLANT_USER]
    if len(row) != 1:
        raise AssertionError(
            f"planted LS user missing from output ({len(row)} rows)")
    f = float(row["freq1_freq"].iloc[0])
    expect = 1.0 / _LS_PLANT_PERIOD_S
    if not abs(f - expect) <= 0.02 * expect:
        raise AssertionError(
            f"planted LS frequency not recovered: {f} vs {expect}")
    a = float(row["freq1_amplitude1"].iloc[0])
    if not abs(a - 1.0) <= 0.15:
        raise AssertionError(f"planted LS amplitude not recovered: {a}")
    return out[out["user_id"] != _LS_PLANT_USER].reset_index(drop=True)


def q_features_lomb_scargle(sf_dir):
    """Lomb-Scargle periodicity features (P1–P3) for the 20 hottest
    users (the expensive kernel — bounded fan-out, stated cap).
    Rows-only: the iterative pre-whitening fit is not SQL — hardened
    by the _assert_planted_ls planted-signal gate (a synthetic
    known-period conversation rides the same distributed path and its
    recovered frequency/amplitude are checked in-query)."""
    from ..stages.features import FeatureExtractor

    from .driver_queries import q_top_users

    hot = q_top_users(sf_dir)["user_id"].tolist()[:20]
    hot_ref = ray.put(set(hot) | {_LS_PLANT_USER})

    def keep_hot(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["user_id"].isin(ray.get(hot_ref))]

    pts = (
        _event_points(sf_dir)
        .union(ray.data.from_arrow(_planted_ls_points()))
        .map_batches(keep_hot, batch_format="pandas")
        .map_batches(
            lambda df: df.rename(columns={"user_id": "conv_id", "event_id": "turn_idx"}),
            batch_format="pandas",
        )
    )
    ls_feats = [
        "freq1_freq", "freq1_amplitude1", "freq1_signif", "freq2_freq",
        "freq_varrat", "freq_y_offset", "linear_trend", "period_fast",
    ]
    out = group_apply(
        pts,
        FeatureExtractor,
        key="conv_id",
        fn_constructor_kwargs={
            "channels": ("value",),
            "features_to_use": ls_feats,
            "ls_kwargs": {"day": 86400.0},
        },
    ).to_pandas()
    out = out.rename(columns={"conv_id": "user_id"}).drop(columns=["channel"])
    return round6(_assert_planted_ls(out))


def q_codec_chunks(sf_dir):
    """Gorilla/DoD roundtrip (G3), ★-checked: per-user series are
    chunk-encoded, decoded, verified bit-exact against the SOURCE
    arrays in-stage (ts int equality + value uint64 bit equality —
    round-1's self-compare bug is dead), and the emitted row stats
    (counts, chunking arithmetic, exact decoded sums) are recomputed
    by DuckDB from the raw events table: any decode corruption breaks
    the hash."""
    from ..oracle.codec import decode_chunk_v2, encode_chunk_v2

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = df["ts"].to_numpy("datetime64[us]").astype("int64")
        vals = df["value"].to_numpy(np.float64)
        rows = []
        for u, idx in df.groupby("user_id", sort=False).indices.items():
            tt, vv = ts_us[idx], vals[idx]
            dec_t, dec_v = [], []
            n_chunks = 0
            for s in range(0, len(idx), CODEC_MAX_POINTS):
                t_c, v_c = tt[s : s + CODEC_MAX_POINTS], vv[s : s + CODEC_MAX_POINTS]
                payload = encode_chunk_v2(t_c, v_c)
                dt, dv = decode_chunk_v2(payload, len(t_c))
                # the REAL roundtrip gate: decoded vs SOURCE —
                # explicit raise so the gate survives python -O
                if not np.array_equal(dt, t_c):
                    raise AssertionError("ts roundtrip mismatch")
                if not np.array_equal(dv.view(np.uint64),
                                      v_c.view(np.uint64)):
                    raise AssertionError(
                        "value bit-pattern roundtrip mismatch")
                dec_t.append(dt)
                dec_v.append(dv)
                n_chunks += 1
            dt = np.concatenate(dec_t)
            dv = np.concatenate(dec_v)
            rows.append(
                {
                    "user_id": np.int64(u),
                    "n_points": np.int64(len(dt)),
                    "n_chunks": np.int64(n_chunks),
                    "ts_mod_sum": np.int64((dt % 1_000_000_000).sum()),
                    "v_scaled_sum": np.int64(
                        np.round(dv * VALUE_SCALE).astype(np.int64).sum()
                    ),
                    "v_min": dv.min(),
                    "v_max": dv.max(),
                }
            )
        return pd.DataFrame(rows)

    out = group_apply(_event_points_with_id(sf_dir), fn, key="user_id").to_pandas()
    return round6(out)


def _event_points_with_id(sf_dir):
    from .driver_queries import _events

    return _events(sf_dir, ["event_id", "ts", "user_id", "value"])


CODEC_SQL = f"""
SELECT user_id,
       count(*) AS n_points,
       CAST(ceil(count(*) / {CODEC_MAX_POINTS}.0) AS BIGINT) AS n_chunks,
       CAST(sum(epoch_us(ts) % 1000000000) AS BIGINT) AS ts_mod_sum,
       CAST(sum(CAST(round(value*{VALUE_SCALE}) AS BIGINT)) AS BIGINT) AS v_scaled_sum,
       round(min(value), 6) AS v_min,
       round(max(value), 6) AS v_max
FROM events GROUP BY 1
"""


def q_mmr_rerank(sf_dir):
    """★-checked MMR diversified re-ranking
    (stages/ann.py::mmr_rerank): top-30 cosine candidates for the
    lowest vec_id's vector via the distributed brute-force pass, then
    the greedy λ=0.5 relevance-vs-diversity selection of 5.  The SQL
    twin replays the greedy with a recursive CTE over
    list_cosine_similarity — selection order, relevance and MMR
    scores all match (ties by vec_id both sides)."""
    from ..stages.ann import mmr_rerank

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    head = emb.to_pandas().sort_values("vec_id").iloc[0]
    out = mmr_rerank(emb, np.asarray(head["embedding"], np.float64),
                     int(head["vec_id"]), k=5, lam=0.5, n_candidates=30)
    out["rank"] = out["rank"].astype(np.int64)
    out["vec_id"] = out["vec_id"].astype(np.int64)
    return round6(out)


MMR_SQL = """
WITH RECURSIVE
qv AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e
  FROM embeddings ORDER BY vec_id LIMIT 1
),
cand AS (
  SELECT e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), qv.e)
           AS rel,
         CAST(e.embedding AS DOUBLE[]) AS ev
  FROM embeddings e, qv WHERE e.vec_id <> qv.vec_id
  ORDER BY rel DESC, e.vec_id LIMIT 30
),
pair AS (
  SELECT a.vec_id AS pa, b.vec_id AS pb,
         list_cosine_similarity(a.ev, b.ev) AS sim
  FROM cand a JOIN cand b ON a.vec_id <> b.vec_id
),
sel(step, vid, rel, score, ids) AS (
  (SELECT 1, vec_id, rel, rel, [vec_id] FROM cand
   ORDER BY rel DESC, vec_id LIMIT 1)
  UNION ALL
  SELECT step + 1, nxt.vec_id, nxt.rel, nxt.score,
         list_append(ids, nxt.vec_id)
  FROM sel, LATERAL (
    SELECT c.vec_id, c.rel,
           0.5 * c.rel - 0.5 * (
             SELECT max(p.sim) FROM pair p
             WHERE p.pa = c.vec_id AND list_contains(sel.ids, p.pb)
           ) AS score
    FROM cand c WHERE NOT list_contains(sel.ids, c.vec_id)
    ORDER BY score DESC, c.vec_id LIMIT 1
  ) nxt
  WHERE step < 5
)
SELECT CAST(step AS BIGINT) AS rank, CAST(vid AS BIGINT) AS vec_id,
       round(rel, 6) AS rel, round(score, 6) AS mmr_score
FROM sel ORDER BY rank
"""


def q_knn_cosine(sf_dir):
    """Brute-force cosine top-5 neighbors for the 5 lowest vec_ids via
    ``stages.ann.brute_force_topk`` — broadcast query matrix, per-batch
    matmul with per-batch partial top-k (only ≤ k+1 rows per query
    leave each batch; round-1 shipped the full scored cross-product to
    the driver)."""
    from ..stages.ann import brute_force_topk

    emb, Q, qids = _ann_corpus_queries(sf_dir)
    top = brute_force_topk(emb, Q, qids, k=5)
    top["query_id"] = top["query_id"].astype(np.int64)
    return round6(top.reset_index(drop=True))


KNN_SQL = """
WITH q AS (
  SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings ORDER BY vec_id LIMIT 5
),
scored AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) AS sim
  FROM embeddings e CROSS JOIN q
  WHERE e.vec_id <> q.query_id
),
ranked AS (
  SELECT query_id, vec_id, sim,
         row_number() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) AS rn
  FROM scored
)
SELECT query_id, vec_id, round(sim, 6) AS sim FROM ranked WHERE rn <= 5
"""


def q_jaccard_topk(sf_dir):
    """Exact character-5-gram Jaccard similarity search: broadcast the
    5 lowest doc_ids' gram sets, stream the corpus once keeping the
    top-3 positive-overlap matches per query per batch (fully
    batch-vectorized — dedup.gram_jaccard_topk; Jaccard = |∩|/|∪| is a
    ratio of exact ints → bit-equal to SQL)."""
    from ..stages.dedup import gram_jaccard_topk

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    qdf = docs.sort("doc_id").limit(5).to_pandas()
    queries = {int(r.doc_id): r.text for r in qdf.itertuples()}
    cand = gram_jaccard_topk(docs, queries, k=5, topk=3).to_pandas()
    top = (
        cand.sort_values(["query_id", "jaccard", "doc_id"],
                         ascending=[True, False, True], kind="mergesort")
        .groupby("query_id", as_index=False)
        .head(3)
        .reset_index(drop=True)
    )
    return round6(top)


JACCARD_SQL = """
WITH sh AS (
  SELECT DISTINCT doc_id, substring(text, i, 5) AS g
  FROM (
    SELECT doc_id, text,
           unnest(generate_series(1, greatest(length(text) - 4, 1))) AS i
    FROM documents
  )
),
q AS (SELECT doc_id AS query_id FROM documents ORDER BY doc_id LIMIT 5),
qs AS (SELECT query_id, g FROM sh JOIN q ON sh.doc_id = q.query_id),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
inter AS (
  SELECT qs.query_id, sh.doc_id, count(*) AS i
  FROM qs JOIN sh ON qs.g = sh.g AND sh.doc_id <> qs.query_id
  GROUP BY 1, 2
),
j AS (
  SELECT i.query_id, i.doc_id,
         CAST(i.i AS DOUBLE) / (sq.n + sd.n - i.i) AS jac
  FROM inter i JOIN sizes sq ON sq.doc_id = i.query_id
               JOIN sizes sd ON sd.doc_id = i.doc_id
),
ranked AS (
  SELECT query_id, doc_id, jac,
         row_number() OVER (PARTITION BY query_id ORDER BY jac DESC, doc_id) AS rn
  FROM j
)
SELECT query_id, doc_id, round(jac, 6) AS jaccard FROM ranked WHERE rn <= 3
"""


def q_quality_scores(sf_dir):
    """★-checked text-quality features (QualityScorer actor stage):
    every ratio is exact-int / exact-int, so the engine's vectorized
    regex kernels and the SQL reproduce identical doubles."""
    from ..stages.text import quality_score

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = quality_score(docs).to_pandas()
    return round6(out.sort_values("doc_id").reset_index(drop=True))


QUALITY_SQL = """
WITH t AS (
  SELECT doc_id, text,
         length(text) AS n_chars,
         len(regexp_extract_all(text, '\\S+')) AS token_count
  FROM documents
)
SELECT doc_id, n_chars, token_count,
       round(CASE WHEN token_count = 0 THEN 0.0
             ELSE length(regexp_replace(text, '\\s', '', 'g')) / token_count
             END, 6) AS mean_word_len,
       round(len(regexp_extract_all(text, '[^\\w\\s]')) / greatest(n_chars, 1), 6)
           AS punct_ratio,
       round(len(regexp_extract_all(text, '[A-Za-z]')) / greatest(n_chars, 1), 6)
           AS alpha_ratio,
       round(len(list_filter(regexp_extract_all(lower(text), '\\S+'),
                 x -> x IN ('the','and','of','to','a','in','is','that','it','for')))
             / greatest(token_count, 1), 6) AS stopword_ratio,
       round(1.0 - len(list_distinct(regexp_extract_all(text, '\\S+')))
             / greatest(token_count, 1), 6) AS repetition_ratio
FROM t
"""


def q_minhash_pairs(sf_dir):
    """★-checked MinHash+LSH near-dup pairs over documents: the OPH
    signature chain is pure 64-bit arithmetic (base-256 window keys +
    splitmix64, per-bin min, rotation densification, FNV-1a band
    hashes), so the DuckDB twin (_minhash_pairs_sql) replays the FULL
    signature → band-explode → bucket-groupby → verify pipeline and
    matches every pair and estimate bit-for-bit."""
    from ..stages.dedup import minhash_lsh_dedup

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    pairs = minhash_lsh_dedup(docs, jaccard_threshold=0.5).to_pandas()
    return round6(pairs.sort_values("doc_id").reset_index(drop=True))


def q_minhash_exact_pairs(sf_dir):
    """★-checked near-dup precision+recall: LSH candidates (r=2 rows ×
    32 bands — per-pair miss probability at s=0.7 is (1−0.49)³² ≈
    4e-10, deterministic under the seeded hashes) verified with EXACT
    char-5-gram Jaccard ≥ 0.7.  The oracle enumerates ALL pairs with
    exact Jaccard ≥ 0.7 (full O(n²) SQL), so a hash match proves the
    engine's pair set has precision = recall = 1 on this corpus."""
    from ..stages.dedup import lsh_exact_near_dup

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    pairs = lsh_exact_near_dup(
        docs, k=5, jaccard_threshold=0.7, num_perm=64, bands=32,
    ).to_pandas()
    return round6(
        pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True))


MINHASH_EXACT_SQL = """
WITH sh AS (
  SELECT DISTINCT doc_id, substring(text, i, 5) AS g
  FROM (
    SELECT doc_id, text,
           unnest(generate_series(1, greatest(length(text) - 4, 1))) AS i
    FROM documents
  )
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
inter AS (
  SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
j AS (
  SELECT ia AS id_a, ib AS id_b,
         CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) AS jac
  FROM inter i JOIN sizes sa ON sa.doc_id = i.ia
               JOIN sizes sb ON sb.doc_id = i.ib
)
SELECT id_a, id_b, round(jac, 6) AS jaccard FROM j WHERE jac >= 0.7
"""


def q_substring_dups(sf_dir):
    """★-checked substring dedup: document pairs sharing a common
    substring of ≥ 50 characters, with the count of distinct shared
    50-grams.  Candidates come from winnowed Rabin-Karp fingerprints
    (recall 1 for runs ≥ 50 by the winnowing guarantee), verification
    is the exact dual-hash 50-gram set intersection; the oracle is the
    full 50-gram self-join, so the hash check proves precision AND
    recall on this corpus."""
    from ..stages.dedup import substring_dup_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = substring_dup_pairs(docs, min_len=50, window=8).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


SUBSTRING_SQL = """
WITH g AS (
  SELECT DISTINCT doc_id, substring(text, i, 50) AS g
  FROM (
    SELECT doc_id, text,
           unnest(generate_series(1, length(text) - 49)) AS i
    FROM documents
  )
),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS n_shared
  FROM g a JOIN g b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b, n_shared FROM p
"""


def q_simhash_fingerprint(sf_dir):
    """★-checked SimHash64 + winnowing fingerprint per document.  The
    whole chain is pure 64-bit integer arithmetic — base-31 polynomial
    token/content hashes with a splitmix64 finalizer, per-bit majority
    votes, min rolling 8-byte window hash — so the DuckDB twin
    (_simhash_sql, HUGEINT mulmod recipe) reproduces every column
    bit-for-bit: simhash, min_fingerprint, content_hash, and the
    hamming distance to doc 0's simhash."""
    from ..stages.dedup import fingerprint_stage, simhash_stage

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    sh = simhash_stage(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    fp = fingerprint_stage(docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    out = sh.merge(fp, on="doc_id")
    ref = np.uint64(out.loc[out.doc_id.idxmin(), "simhash"])
    x = out["simhash"].to_numpy(np.uint64) ^ ref
    out["hamming_to_doc0"] = np.array(
        [bin(int(v)).count("1") for v in x], dtype=np.int64
    )
    # uint64 → stable int64 view for parquet/driver friendliness
    for c in ("simhash", "min_fingerprint", "content_hash"):
        out[c] = out[c].to_numpy(np.uint64).astype(np.int64)
    return out


# --- shared 64-bit-arithmetic SQL builders (HUGEINT mulmod recipe:
# split the 64×64 multiply into 32-bit halves so nothing exceeds the
# 128-bit HUGEINT range; same trick as _hll_sql) ---
_M64 = 1 << 64
_SM_C1 = 0x9E3779B97F4A7C15


def _sql_mulmod(a: str, b: int) -> str:
    """SQL for (a * b) mod 2^64 with a a HUGEINT expression, b a
    64-bit constant."""
    B32 = 1 << 32
    blo, bhi = b % B32, b // B32
    return (f"((({a}) % {B32}) * {blo} + "
            f"(((({a}) % {B32}) * {bhi} + (({a}) // {B32}) * {blo})"
            f" % {B32}) * {B32}) % {_M64}")


def _sql_splitmix(col: str, pre: str) -> str:
    """CTE chain {pre}_s1..{pre}_sm adding splitmix64(col) as `h`
    (bit-identical to stages/dedup.py::_splitmix64)."""
    C2 = 0xBF58476D1CE4E5B9
    C3 = 0x94D049BB133111EB
    return f"""
{pre}_s1 AS (SELECT *, (({col} + {_SM_C1}) % {_M64}) AS x0 FROM {pre}),
{pre}_s2 AS (SELECT *, xor(x0, x0 >> 30) AS x1 FROM {pre}_s1),
{pre}_s3 AS (SELECT *, {_sql_mulmod('x1', C2)} AS x2 FROM {pre}_s2),
{pre}_s4 AS (SELECT *, xor(x2, x2 >> 27) AS x3 FROM {pre}_s3),
{pre}_s5 AS (SELECT *, {_sql_mulmod('x3', C3)} AS x4 FROM {pre}_s4),
{pre}_sm AS (SELECT * EXCLUDE (x0,x1,x2,x3,x4), xor(x4, x4 >> 31) AS h
             FROM {pre}_s5)"""


def _sql_signed64(col: str) -> str:
    """uint64-valued HUGEINT expression → signed BIGINT (two's
    complement view, matching numpy's .astype(np.int64))."""
    return (f"CAST(CASE WHEN {col} >= {1 << 63} THEN {col} - {_M64} "
            f"ELSE {col} END AS BIGINT)")


def _simhash_sql() -> str:
    """SQL twin of q_simhash_fingerprint — mirrors stages/dedup.py's
    _doc_token_hashes (ASCII-lower + non-whitespace-run tokenize +
    base-31 polynomial + splitmix64), _simhash_from_hashes (per-bit
    majority), content_hash64 and fingerprint_stage's min rolling
    8-byte window hash, all in HUGEINT arithmetic."""
    M = _M64
    mulmod, splitmix, signed = _sql_mulmod, _sql_splitmix, _sql_signed64

    return f"""
WITH RECURSIVE pow(k, v) AS (
  SELECT 0, CAST(1 AS HUGEINT)
  UNION ALL
  SELECT k + 1, (v * 31) % {M} FROM pow WHERE k < 2047
),
docs AS (SELECT doc_id, text, lower(text) AS lt FROM documents),
toksplit AS (
  SELECT doc_id, regexp_split_to_array(lt, '[ \t\n\x0b\x0c\r]+') AS arr
  FROM docs
),
-- zipped unnests keep the token index, so duplicate tokens vote
-- separately (exactly as the engine's flat token stream does)
tok0 AS (
  SELECT doc_id, unnest(generate_series(1, len(arr))) AS ti,
         unnest(arr) AS tok
  FROM toksplit
),
tok AS (SELECT * FROM tok0 WHERE tok <> ''),
tchars0 AS (
  SELECT doc_id, ti, tok,
         unnest(generate_series(1, length(tok))) AS j
  FROM tok
),
tchars AS (
  SELECT doc_id, ti, CAST(ord(substr(tok, j, 1)) AS HUGEINT) AS b,
         length(tok) - j AS k
  FROM tchars0
),
traw AS (
  SELECT doc_id, ti, sum(b * p.v % {M}) % {M} AS x
  FROM tchars JOIN pow p ON p.k = tchars.k
  GROUP BY doc_id, ti
),
{splitmix('x', 'traw')},
th AS (SELECT doc_id, h FROM traw_sm),
thbits AS (
  SELECT doc_id, h, unnest(generate_series(0, 63)) AS bit FROM th
),
bitsum AS (
  SELECT doc_id, bit,
         sum(CASE WHEN (h >> bit) & 1 = 1 THEN 1 ELSE 0 END) AS ones,
         count(*) AS ntok
  FROM thbits
  GROUP BY doc_id, bit
),
shu AS (
  SELECT doc_id,
         sum(CASE WHEN 2 * ones > ntok
                  THEN (CAST(1 AS HUGEINT) << bit)
                  ELSE CAST(0 AS HUGEINT) END) AS sh_u
  FROM bitsum GROUP BY doc_id
),
-- content hash: RAW bytes (no lowercase), full-length polynomial
cchars0 AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text))) AS i
  FROM docs
),
cchars AS (
  SELECT doc_id, CAST(ord(substr(text, i, 1)) AS HUGEINT) AS b,
         length(text) - i AS k, i
  FROM cchars0
),
craw AS (
  SELECT doc_id, sum(b * p.v % {M}) % {M} AS x
  FROM cchars JOIN pow p ON p.k = cchars.k
  GROUP BY doc_id
),
{splitmix('x', 'craw')},
ch AS (SELECT doc_id, h AS content_u FROM craw_sm),
-- min rolling 8-byte window hash: raw sum, engine applies no finalizer
wh AS (
  SELECT c.doc_id, c.i - p.k AS pos, sum(c.b * p.v) AS whv
  FROM cchars c JOIN pow p ON p.k <= 7 AND c.i - p.k >= 1
  GROUP BY c.doc_id, c.i - p.k
  HAVING count(*) = 8
),
mf AS (SELECT doc_id, min(whv) AS minw FROM wh GROUP BY doc_id),
base AS (
  SELECT d.doc_id, s.sh_u,
         CASE WHEN length(d.text) > 8 THEN m.minw
              ELSE c.content_u END AS fp_u,
         c.content_u
  FROM docs d JOIN shu s USING (doc_id)
       JOIN ch c USING (doc_id) LEFT JOIN mf m USING (doc_id)
),
sgn AS (
  SELECT doc_id,
    {signed('sh_u')} AS simhash,
    {signed('fp_u')} AS min_fingerprint,
    {signed('content_u')} AS content_hash
  FROM base
),
ref AS (SELECT simhash AS r FROM sgn ORDER BY doc_id LIMIT 1)
SELECT s.doc_id, s.simhash, s.min_fingerprint, s.content_hash,
       bit_count(xor(s.simhash, ref.r)) AS hamming_to_doc0
FROM sgn s, ref
ORDER BY s.doc_id
"""


def _minhash_pairs_sql() -> str:
    """SQL twin of q_minhash_pairs — the ENTIRE MinHash+LSH pipeline
    mirrored in DuckDB: 5-byte base-256 window keys + splitmix64 +
    63-bit mask (stages/dedup.py::_window_hashes), One-Permutation
    Hashing with rotation densification (MinHasher._sigs_oph: bin by
    hash bits [62,56), per-bin min, nearest-filled-rightward borrow
    salted by distance), FNV-1a band hashes over 4-lane bands
    (_band_hashes), bucket all-pairs with the >max_bucket star-link
    guard, lane-equality Jaccard estimate ≥ threshold, min-dup_of
    keeper (_verify_estimate).  Constants must track
    minhash_lsh_dedup's defaults (num_perm=64, bands=16, k=5,
    max_bucket=1024) and q_minhash_pairs' threshold=0.5; num_perm /
    bands / k / max_bucket are read from the engine signature so the
    two sides cannot drift."""
    import inspect

    from ..stages.dedup import minhash_lsh_dedup

    dflt = {k: v.default for k, v in
            inspect.signature(minhash_lsh_dedup).parameters.items()}
    M = _M64
    mulmod, splitmix = _sql_mulmod, _sql_splitmix
    C1 = _SM_C1
    FNV_OFF = 0xCBF29CE484222325
    FNV_PRIME = 0x100000001B3
    MASK63 = (1 << 63) - 1
    K, P = dflt["k"], dflt["num_perm"]
    RPB = P // dflt["bands"]
    THRESH, MAX_BUCKET = 0.5, dflt["max_bucket"]
    PBITS = P.bit_length() - 1

    # FNV-1a over the band's RPB lanes, lane order 0..RPB-1
    fnv = f"xor({FNV_OFF}, v0)"
    for lane in range(1, RPB):
        fnv = f"xor({mulmod(fnv, FNV_PRIME)}, v{lane})"
    fnv = mulmod(fnv, FNV_PRIME)
    lane_joins = "\n".join(
        f"  JOIN (SELECT doc_id, band_id, v AS v{j} FROM lanes "
        f"WHERE lane = {j}) l{j} USING (doc_id, band_id)"
        for j in range(1, RPB))

    return f"""
WITH
docs AS (SELECT doc_id, text FROM documents),
cc0 AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text))) AS i
  FROM docs
),
cc AS (
  SELECT doc_id, CAST(ord(substr(text, i, 1)) AS HUGEINT) AS b, i
  FROM cc0
),
-- base-256 injective window key: sum byte[pos+o] * 256^(K-1-o)
wraw AS (
  SELECT c.doc_id, c.i - o.o AS pos,
         sum(c.b * (CAST(1 AS HUGEINT) << (8 * ({K - 1} - o.o)))) AS x
  FROM cc c JOIN (SELECT unnest(generate_series(0, {K - 1})) AS o) o
       ON c.i - o.o >= 1
  GROUP BY c.doc_id, c.i - o.o
  HAVING count(*) = {K}
),
{splitmix('x', 'wraw')},
wh AS (SELECT doc_id, h & {MASK63} AS h FROM wraw_sm),
-- OPH: bin by hash bits [62, 62-{PBITS}), per-bin minimum
binned AS (
  SELECT doc_id, (h >> {62 - PBITS}) & {P - 1} AS bin, min(h) AS v
  FROM wh GROUP BY doc_id, (h >> {62 - PBITS}) & {P - 1}
),
grid AS (
  SELECT d.doc_id, unnest(generate_series(0, {P - 1})) AS bin
  FROM (SELECT DISTINCT doc_id FROM docs) d
),
-- rotation densification: nearest filled bin rightward (circular),
-- borrowed value salted by the borrow distance
nearest AS (
  SELECT g.doc_id, g.bin,
         min((f.bin - g.bin + {P}) % {P}) AS d
  FROM grid g JOIN binned f USING (doc_id)
  WHERE g.bin NOT IN (SELECT bin FROM binned x
                      WHERE x.doc_id = g.doc_id)
  GROUP BY g.doc_id, g.bin
),
dense AS (
  SELECT doc_id, bin, v FROM binned
  UNION ALL
  SELECT n.doc_id, n.bin,
         (f.v + CAST(n.d AS HUGEINT) * {C1}) % {M} AS v
  FROM nearest n JOIN binned f
       ON f.doc_id = n.doc_id AND f.bin = (n.bin + n.d) % {P}
),
-- band hashes: FNV-1a over the band's {RPB} lanes
lanes AS (
  SELECT doc_id, bin // {RPB} AS band_id, bin % {RPB} AS lane, v
  FROM dense
),
bh AS (
  SELECT l0.doc_id, l0.band_id, {fnv} AS band_hash
  FROM (SELECT doc_id, band_id, v AS v0 FROM lanes WHERE lane = 0) l0
{lane_joins}
),
bsz AS (
  SELECT band_id, band_hash, count(*) AS sz, min(doc_id) AS min_id
  FROM bh GROUP BY band_id, band_hash
),
-- bucket pairs: all-pairs in [2, max_bucket], star-link to the min id
-- above max_bucket (the engine's boilerplate-bucket guard)
cand AS (
  SELECT DISTINCT a.doc_id AS a, b.doc_id AS b
  FROM bh a JOIN bh b
       ON a.band_id = b.band_id AND a.band_hash = b.band_hash
          AND a.doc_id < b.doc_id
  JOIN bsz s ON s.band_id = a.band_id AND s.band_hash = a.band_hash
  WHERE s.sz <= {MAX_BUCKET}
  UNION
  SELECT DISTINCT s.min_id AS a, x.doc_id AS b
  FROM bsz s JOIN bh x
       ON x.band_id = s.band_id AND x.band_hash = s.band_hash
          AND x.doc_id > s.min_id
  WHERE s.sz > {MAX_BUCKET}
),
est AS (
  SELECT c.b AS doc_id, c.a AS dup_of,
         sum(CASE WHEN da.v = db.v THEN 1 ELSE 0 END) / {P}.0 AS ej
  FROM cand c
  JOIN dense da ON da.doc_id = c.a
  JOIN dense db ON db.doc_id = c.b AND db.bin = da.bin
  GROUP BY c.b, c.a
),
kept AS (SELECT * FROM est WHERE ej >= {THRESH})
SELECT doc_id, dup_of, round(ej, 6) AS est_jaccard
FROM kept
QUALIFY row_number() OVER (PARTITION BY doc_id
                           ORDER BY dup_of, ej) = 1
ORDER BY doc_id
"""


def q_impute_features(sf_dir):
    """★-checked imputation M4: per-user features via FeatureExtractor,
    max_slope deterministically nulled for user_id % 5 == 0, then
    ``impute_featureset(strategy='median')`` fills with the exact
    median of the surviving values (np.nanmedian ≡ DuckDB
    quantile_cont at p=0.5 bitwise)."""
    from ..stages.features import FeatureExtractor
    from ..stages.impute import impute_featureset

    pts = _event_points(sf_dir).map_batches(
        lambda df: df.rename(columns={"user_id": "conv_id", "event_id": "turn_idx"}),
        batch_format="pandas",
    )
    fset = group_apply(
        pts,
        FeatureExtractor,
        key="conv_id",
        fn_constructor_kwargs={
            "channels": ("value",),
            "features_to_use": ["median", "median_absolute_deviation", "max_slope"],
        },
    )

    def poke_nulls(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        uid = df["conv_id"].astype(np.int64)
        df.loc[(uid % 5 == 0).to_numpy(), "max_slope"] = np.nan
        return df

    fset = fset.map_batches(poke_nulls, batch_format="pandas")
    out = impute_featureset(fset, strategy="median").to_pandas()
    out = out.rename(columns={"conv_id": "user_id"}).drop(columns=["channel"])
    out["user_id"] = out["user_id"].astype(np.int64)
    return round6(out)


IMPUTE_SQL = """
WITH d AS (
  SELECT user_id, value,
         (epoch_us(ts) - first_value(epoch_us(ts))
            OVER (PARTITION BY user_id ORDER BY event_id)) / 1000000.0 AS t_rel,
         event_id
  FROM events
),
slopes AS (
  SELECT user_id,
         abs(value - lag(value) OVER w2) / (t_rel - lag(t_rel) OVER w2) AS slope,
         t_rel - lag(t_rel) OVER w2 AS dt
  FROM d WINDOW w2 AS (PARTITION BY user_id ORDER BY event_id)
),
feats AS (
  SELECT s.user_id,
         s.median,
         s.madv AS median_absolute_deviation,
         CASE WHEN s.user_id % 5 = 0 THEN NULL ELSE m.ms END AS max_slope
  FROM (SELECT user_id, quantile_cont(value, 0.5) AS median,
               mad(value) AS madv
        FROM events GROUP BY 1) s
  LEFT JOIN (SELECT user_id, max(slope) AS ms FROM slopes WHERE dt <> 0
             GROUP BY 1) m USING (user_id)
),
fill AS (SELECT quantile_cont(max_slope, 0.5) AS f FROM feats)
SELECT user_id,
       round(median, 6) AS median,
       round(median_absolute_deviation, 6) AS median_absolute_deviation,
       round(coalesce(max_slope, (SELECT f FROM fill)), 6) AS max_slope
FROM feats
"""


def q_knn_lsh(sf_dir):
    """LSH-bucketed ANN (the 100-TB similarity-search path): seeded
    hyperplanes, bucket-groupby candidate scoring, exact in-bucket
    re-rank.  Deterministic but recall < 1 by construction → rows-only
    (the exact brute-force path is the ★-checked ``knn_cosine``);
    in-query assertion: every LSH hit's similarity must equal the
    brute-force score for that pair."""
    from ..stages.ann import lsh_topk

    emb, Q, qids = _ann_corpus_queries(sf_dir)
    lsh = lsh_topk(emb, Q, qids, k=5, n_tables=8, n_bits=8, seed=7)
    _verify_ann_sims(lsh, sf_dir, Q, qids, "knn_lsh")
    lsh["query_id"] = lsh["query_id"].astype(np.int64)
    return round6(lsh.reset_index(drop=True))


# synthetic embeddings are near-orthogonal (max pairwise cosine ≈0.51)
# — 0.4 yields a meaningful pair set at both test scales.  Residual
# (documented) risk: threshold MEMBERSHIP compares unrounded floats
# computed by different op orders (numpy normalize-then-dot vs DuckDB
# list_cosine_similarity); a pair within ~1 ulp of the threshold could
# flip between engine and oracle.  Accepted: P(|cos−0.4| < 1e-15) is
# negligible and the pairing has been hash-green across every round.
NEAR_DUP_COS_THRESHOLD = 0.4


def _ann_corpus_queries(sf_dir):
    """Shared ANN fixture: the embeddings Dataset plus the query
    matrix = the 5 lowest vec_ids (ONE definition so the brute/LSH/IVF
    variants always answer the same queries)."""
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    qdf = emb.sort("vec_id").limit(5).to_pandas()
    Q = np.stack([np.asarray(v, dtype=np.float64) for v in qdf["embedding"]])
    return emb, Q, qdf["vec_id"].to_numpy()


def _verify_ann_sims(hits: pd.DataFrame, sf_dir: str, Q: np.ndarray,
                     qids, label: str) -> None:
    """Recompute the exact cosine for EVERY returned (query, vec) pair
    from the source parquet (filtered read of just the hit vectors)
    and fail loudly on any disagreement.  Unlike the previous
    merge-vs-brute-force-top-50 check, no hit can dodge verification
    by ranking below the brute cutoff; explicit raise (not assert) so
    the gate survives ``python -O``."""
    import pyarrow.parquet as pq

    from ..stages.ann import _normalize

    ids = np.unique(hits["vec_id"].to_numpy())
    tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", ids.tolist())])
    vid = tbl["vec_id"].to_numpy()
    V = _normalize(np.stack(
        [np.asarray(v, np.float64) for v in tbl["embedding"].to_pylist()]))
    Qn = _normalize(np.asarray(Q, np.float64))
    row = {int(v): i for i, v in enumerate(vid)}
    qrow = {int(q): i for i, q in enumerate(np.asarray(qids))}
    exact = np.einsum(
        "ij,ij->i",
        V[[row[int(v)] for v in hits["vec_id"]]],
        Qn[[qrow[int(q)] for q in hits["query_id"]]])
    if not np.allclose(hits["sim"].to_numpy(), exact, rtol=0, atol=1e-12):
        raise AssertionError(
            f"{label}: a returned similarity diverges from the exact "
            "per-pair recompute")


def q_embedding_near_dup(sf_dir):
    """Embedding-cosine near-duplicate pairs (exact broadcast baseline
    — ★-checked vs a DuckDB self-join; the LSH-bucketed variant is the
    100-TB path, exercised by test_dedup + knn_lsh)."""
    from ..stages.dedup import embedding_near_dup

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    pairs = embedding_near_dup(
        emb, threshold=NEAR_DUP_COS_THRESHOLD, exact=True
    ).to_pandas()
    return round6(pairs.sort_values(["id_a", "id_b"]).reset_index(drop=True))


EMB_NEAR_DUP_SQL = f"""
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb FROM embeddings)
SELECT a.vec_id AS id_a, b.vec_id AS id_b,
       round(list_cosine_similarity(a.emb, b.emb), 6) AS sim
FROM e a JOIN e b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.emb, b.emb) >= {NEAR_DUP_COS_THRESHOLD}
"""


def q_knn_ivf(sf_dir):
    """IVF-bucketed ANN (k-means coarse quantizer + inverted lists,
    n_probe nearest lists scored).  Deterministic (seeded) but
    recall < 1 → rows-only; in-query cross-check: every IVF hit's
    similarity equals the brute-force score for that pair."""
    from ..stages.ann import ivf_topk

    emb, Q, qids = _ann_corpus_queries(sf_dir)
    ivf = ivf_topk(emb, Q, qids, k=5, n_centroids=16, n_probe=4, seed=7)
    _verify_ann_sims(ivf, sf_dir, Q, qids, "knn_ivf")
    ivf["query_id"] = ivf["query_id"].astype(np.int64)
    return round6(ivf.reset_index(drop=True))


def q_multimodal_features(sf_dir):
    """★-checked multimodal plumbing under the driver: documents' text
    bytes stand in for opaque binary payloads (no media libs in this
    container — decode is the documented deterministic stub, now
    splitmix64-arithmetic so the SQL twin reproduces every feature
    value); exercises the pyarrow-native binary column path, the
    actor-pool decode stage, and frame sampling."""
    from ..stages.multimodal import decode_media, frame_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def to_media(b: pa.Table) -> pa.Table:
        payload = pa.array(
            [t.encode() for t in b["text"].to_pylist()], pa.binary()
        )
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "frame_idx": b["doc_id"],
                "payload": payload,
            }
        )

    media = docs.map_batches(to_media, batch_format="pyarrow")
    sampled = frame_sample(media, every_n=10)
    feats = decode_media(sampled, feature_dim=4, batch_size=64).to_pandas()
    feats["n_features"] = feats["features"].map(len).astype(np.int64)
    fm = np.vstack(feats["features"].to_numpy())
    for j in range(4):
        feats[f"f{j}"] = fm[:, j]
    out = feats[["doc_id", "frame_idx", "n_features",
                 "f0", "f1", "f2", "f3"]].sort_values("doc_id")
    return round6(out.reset_index(drop=True))


def q_jpeg_roundtrip(sf_dir):
    """★-checked REAL JPEG path (stages/jpeg.py — baseline sequential
    DCT codec, pure numpy from the public ITU-T T.81 spec): for every
    10th doc_id, build a 32×32 image of 4×4 constant 8×8 tiles whose
    RGB bytes come from splitmix64(doc_id·16 + tile), ENCODE it to a
    real JFIF payload (q=100, optimized Huffman), push payloads
    through the actor-pool decode stage, and emit exact per-channel
    pixel sums/means.  Blocky q=100 content roundtrips byte-exactly
    (all AC quantize to zero — see jpeg.py docstring), so the SQL twin
    computes the expected features analytically from the same
    splitmix64 tile colors: any bitstream/Huffman/DCT bug breaks the
    match."""
    from ..stages.dedup import _splitmix64
    from ..stages.jpeg import encode_jpeg, jpeg_features

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).filter(lambda r: r["doc_id"] % 10 == 0)

    def to_media(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        payloads = []
        for d in ids:
            t = np.arange(16, dtype=np.uint64)
            with np.errstate(over="ignore"):
                h = _splitmix64(np.uint64(d) * np.uint64(16) + t)
            tiles = np.stack([h & np.uint64(255),
                              (h >> np.uint64(8)) & np.uint64(255),
                              (h >> np.uint64(16)) & np.uint64(255)],
                             axis=-1).astype(np.uint8).reshape(4, 4, 3)
            img = np.repeat(np.repeat(tiles, 8, axis=0), 8, axis=1)
            payloads.append(encode_jpeg(img, quality=100))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        })

    media = docs.map_batches(to_media, batch_format="pyarrow",
                             batch_size=64)
    out = jpeg_features(media, batch_size=32).to_pandas()
    out = out.sort_values("doc_id").reset_index(drop=True)
    return round6(out)


def _jpeg_sql() -> str:
    """SQL twin of q_jpeg_roundtrip: the blocky q=100 JPEG roundtrip
    is byte-exact, so the expected features follow analytically from
    the splitmix64 tile colors (each tile contributes 64 pixels)."""
    M = _M64
    splitmix = _sql_splitmix
    return f"""
WITH
docs AS (SELECT doc_id FROM documents WHERE doc_id % 10 = 0),
tiles AS (
  SELECT doc_id, unnest(generate_series(0, 15)) AS t,
         (CAST(doc_id AS HUGEINT) * 16
          + unnest(generate_series(0, 15))) % {M} AS x
  FROM docs
),
{splitmix('x', 'tiles')},
rgb AS (
  SELECT doc_id,
         CAST(h & 255 AS BIGINT) AS r,
         CAST((h >> 8) & 255 AS BIGINT) AS g,
         CAST((h >> 16) & 255 AS BIGINT) AS b
  FROM tiles_sm
)
SELECT doc_id,
       CAST(32 AS BIGINT) AS width, CAST(32 AS BIGINT) AS height,
       CAST(64 * sum(r) AS BIGINT) AS sum_r, CAST(64 * sum(g) AS BIGINT) AS sum_g, CAST(64 * sum(b) AS BIGINT) AS sum_b,
       round(64 * sum(r) / 1024.0, 6) AS mean_r,
       round(64 * sum(g) / 1024.0, 6) AS mean_g,
       round(64 * sum(b) / 1024.0, 6) AS mean_b
FROM rgb GROUP BY doc_id
ORDER BY doc_id
"""


def q_gif_frames(sf_dir):
    """★-checked REAL animated-GIF path (stages/gif.py — variable-width
    LZW codec from the public spec): for every 10th doc_id, build a
    3-frame 16×16 animation whose pixel indices are
    splitmix64(doc·2048 + frame·512 + p) & 255 over a shared
    splitmix64-derived 256-color palette, ENCODE to a real GIF89a
    payload (Netscape loop ext + per-frame GCE), decode through the
    actor-pool frame-explode stage, and emit one row per frame with
    exact channel sums.  GIF is lossless, so the SQL twin computes the
    sums analytically from the same arithmetic — any LZW/bitstream bug
    breaks the match."""
    from ..stages.dedup import _splitmix64
    from ..stages.gif import encode_gif, gif_frame_features

    pal_h = _splitmix64(np.uint64(0xABC) + np.arange(256, dtype=np.uint64))
    palette = np.stack([pal_h & np.uint64(255),
                        (pal_h >> np.uint64(8)) & np.uint64(255),
                        (pal_h >> np.uint64(16)) & np.uint64(255)],
                       axis=-1).astype(np.uint8)

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).filter(lambda r: r["doc_id"] % 10 == 0)

    def to_media(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        payloads = []
        for d in ids:
            p = np.arange(3 * 256, dtype=np.uint64)
            with np.errstate(over="ignore"):
                h = _splitmix64(np.uint64(d) * np.uint64(2048)
                                + (p // 256) * np.uint64(512) + p % 256)
            idx = (h & np.uint64(255)).astype(np.uint8).reshape(3, 16, 16)
            payloads.append(encode_gif(idx, palette))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        })

    media = docs.map_batches(to_media, batch_format="pyarrow",
                             batch_size=64)
    out = gif_frame_features(media, batch_size=32).to_pandas()
    return out.sort_values(["doc_id", "frame_idx"]).reset_index(drop=True)


def _gif_sql() -> str:
    """SQL twin of q_gif_frames: lossless palette-indexed roundtrip →
    per-frame channel sums follow analytically from the splitmix64
    pixel indices joined against the splitmix64 palette."""
    M = _M64
    splitmix = _sql_splitmix
    return f"""
WITH
docs AS (SELECT doc_id FROM documents WHERE doc_id % 10 = 0),
palraw AS (
  SELECT unnest(generate_series(0, 255)) AS i,
         (2748 + unnest(generate_series(0, 255))) % {M} AS x
),
{splitmix('x', 'palraw')},
pal AS (
  SELECT i,
         CAST(h & 255 AS BIGINT) AS pr,
         CAST((h >> 8) & 255 AS BIGINT) AS pg,
         CAST((h >> 16) & 255 AS BIGINT) AS pb
  FROM palraw_sm
),
px0 AS (
  SELECT doc_id, unnest(generate_series(0, 767)) AS p
  FROM docs
),
pxraw AS (
  SELECT doc_id, p // 256 AS frame_idx,
         (CAST(doc_id AS HUGEINT) * 2048
          + (p // 256) * 512 + p % 256) % {M} AS x
  FROM px0
),
{splitmix('x', 'pxraw')},
px AS (
  SELECT doc_id, frame_idx, CAST(h & 255 AS BIGINT) AS idx
  FROM pxraw_sm
)
SELECT px.doc_id, px.frame_idx, CAST(3 AS BIGINT) AS n_frames,
       CAST(sum(pal.pr) AS BIGINT) AS sum_r,
       CAST(sum(pal.pg) AS BIGINT) AS sum_g,
       CAST(sum(pal.pb) AS BIGINT) AS sum_b
FROM px JOIN pal ON pal.i = px.idx
GROUP BY px.doc_id, px.frame_idx
ORDER BY px.doc_id, px.frame_idx
"""


def q_mp3_features(sf_dir):
    """★-checked REAL MP3 path (stages/mp3.py — MPEG-1 Layer III
    spectral codec from the public ISO/IEC 11172-3 spec): for every
    10th doc_id, plant 20 spectral lines per granule (2 frames × 2
    granules) at collision-free positions ``j*28 + h%28`` with signs
    ``1-2*((h>>32)&1)``, h = splitmix64(doc·8192 + frame·2048 +
    granule·1024 + j), ENCODE to a real 128 kbps mono bitstream
    (header + side info + Huffman main data), decode through the
    actor-pool stage, and emit exact integer spectral features.  The
    ±1/global_gain=210 profile requantizes exactly (see mp3.py), so
    the SQL twin computes every value analytically — any header/
    side-info/reservoir/Huffman bug breaks the match."""
    from ..stages.dedup import _splitmix64
    from ..stages.mp3 import encode_mp3, mp3_features

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).filter(lambda r: r["doc_id"] % 10 == 0)

    def to_media(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        payloads = []
        for d in ids:
            spec = np.zeros((2, 2, 576), dtype=np.int64)
            for f in range(2):
                for g in range(2):
                    j = np.arange(20, dtype=np.uint64)
                    with np.errstate(over="ignore"):
                        h = _splitmix64(np.uint64(d) * np.uint64(8192)
                                        + np.uint64(f * 2048)
                                        + np.uint64(g * 1024) + j)
                    pos = (j * np.uint64(28)
                           + (h % np.uint64(28))).astype(np.int64)
                    sign = 1 - 2 * ((h >> np.uint64(32))
                                    & np.uint64(1)).astype(np.int64)
                    spec[f, g, pos] = sign
            payloads.append(encode_mp3(spec))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
        })

    media = docs.map_batches(to_media, batch_format="pyarrow",
                             batch_size=64)
    out = mp3_features(media, batch_size=32).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _mp3_sql() -> str:
    """SQL twin of q_mp3_features: the ±1 spectral roundtrip is exact,
    so n_lines/sum_idx/sum_sign follow analytically from the
    splitmix64 line plan (global line index = frame·1152 + granule·576
    + j·28 + h%28; positions are collision-free by slotting)."""
    M = _M64
    splitmix = _sql_splitmix
    return f"""
WITH
docs AS (SELECT doc_id FROM documents WHERE doc_id % 10 = 0),
cell0 AS (
  SELECT doc_id, unnest(generate_series(0, 79)) AS c FROM docs
),
cells AS (
  SELECT doc_id, c // 40 AS f, (c // 20) % 2 AS g, c % 20 AS j,
         (CAST(doc_id AS HUGEINT) * 8192 + (c // 40) * 2048
          + ((c // 20) % 2) * 1024 + c % 20) % {M} AS x
  FROM cell0
),
{splitmix('x', 'cells')},
lines AS (
  SELECT doc_id,
         f * 1152 + g * 576 + j * 28 + CAST(h % 28 AS BIGINT) AS idx,
         1 - 2 * CAST((h >> 32) & 1 AS BIGINT) AS sgn
  FROM cells_sm
)
SELECT doc_id,
       CAST(2 AS BIGINT) AS n_frames,
       CAST(44100 AS BIGINT) AS samplerate,
       CAST(128 AS BIGINT) AS bitrate_kbps,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(sum(idx) AS BIGINT) AS sum_idx,
       CAST(sum(sgn) AS BIGINT) AS sum_sign
FROM lines GROUP BY doc_id
ORDER BY doc_id
"""


def _multimodal_sql() -> str:
    """SQL twin of q_multimodal_features: frame_sample keeps
    doc_id % 10 == 0; the stub feature is
    splitmix64(content_hash64(payload) + j) / 2^64 with payload = the
    raw text bytes (content_hash64 = splitmix64-finalized base-31
    polynomial, mirrored with the shared HUGEINT builders)."""
    M = _M64
    splitmix = _sql_splitmix
    return f"""
WITH RECURSIVE pow(k, v) AS (
  SELECT 0, CAST(1 AS HUGEINT)
  UNION ALL
  SELECT k + 1, (v * 31) % {M} FROM pow WHERE k < 2047
),
docs AS (
  SELECT doc_id, text FROM documents WHERE doc_id % 10 = 0
),
cchars0 AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text))) AS i
  FROM docs
),
cchars AS (
  SELECT doc_id, CAST(ord(substr(text, i, 1)) AS HUGEINT) AS b,
         length(text) - i AS k
  FROM cchars0
),
craw AS (
  SELECT doc_id, sum(b * p.v % {M}) % {M} AS x
  FROM cchars JOIN pow p ON p.k = cchars.k
  GROUP BY doc_id
),
{splitmix('x', 'craw')},
lanes AS (
  SELECT doc_id, unnest(generate_series(0, 3)) AS j,
         (h + unnest(generate_series(0, 3))) % {M} AS x
  FROM craw_sm
),
{splitmix('x', 'lanes')},
f AS (
  SELECT doc_id, j,
         round(CAST(h AS DOUBLE) / 18446744073709551616.0, 6) AS fv
  FROM lanes_sm
)
SELECT doc_id, doc_id AS frame_idx,
       CAST(4 AS BIGINT) AS n_features,
       max(CASE WHEN j = 0 THEN fv END) AS f0,
       max(CASE WHEN j = 1 THEN fv END) AS f1,
       max(CASE WHEN j = 2 THEN fv END) AS f2,
       max(CASE WHEN j = 3 THEN fv END) AS f3
FROM f GROUP BY doc_id
ORDER BY doc_id
"""


def q_dup_clusters(sf_dir):
    """★-checked dup clustering (stages/components.py): rare-shingle
    blocking edges (docs sharing a 32-char gram seen in 2–3 docs) →
    distributed min-label-propagation connected components → one
    cluster id (= min doc_id of the component) per document, singletons
    included.  The pairs→clusters step every near-dup dedup pipeline
    needs; the oracle reproduces it with a recursive-CTE transitive
    closure."""
    from ..stages.components import connected_components, rare_shingle_edges

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    edges = rare_shingle_edges(docs, k=32, max_docs=3)
    labels = connected_components(edges)
    all_ids = np.sort(
        docs.select_columns(["doc_id"]).to_pandas()["doc_id"].to_numpy()
    )
    out = pd.DataFrame({"doc_id": all_ids})
    lmap = pd.Series(labels["cluster"].to_numpy(),
                     index=labels["node"].to_numpy())
    # assign POSITIONALLY: the doc_id-indexed series must not be
    # label-aligned against out's RangeIndex (only accidentally
    # correct while doc_ids happen to be 0..n-1)
    cl = lmap.reindex(all_ids).to_numpy(np.float64)
    out["cluster"] = np.where(np.isnan(cl), all_ids, cl).astype(np.int64)
    sizes = out.groupby("cluster")["doc_id"].transform("size")
    out["cluster_size"] = sizes.astype(np.int64)
    return out.reset_index(drop=True)


DUP_CLUSTERS_SQL = """
WITH RECURSIVE grams AS (
  SELECT doc_id, unnest(list_distinct(list_transform(
           generate_series(1, greatest(length(text) - 31, 1)),
           i -> substr(text, i, 32)))) AS g
  FROM documents),
rare AS (SELECT g FROM grams GROUP BY g
         HAVING count(DISTINCT doc_id) BETWEEN 2 AND 3),
rd AS (SELECT doc_id, g FROM grams WHERE g IN (SELECT g FROM rare)),
edges AS (SELECT DISTINCT r1.doc_id AS a, r2.doc_id AS b
          FROM rd r1 JOIN rd r2 USING (g) WHERE r1.doc_id < r2.doc_id),
sym AS (SELECT a, b FROM edges UNION SELECT b, a FROM edges),
reach(src, dst) AS (SELECT a, b FROM sym UNION
  SELECT r.src, s.b FROM reach r JOIN sym s ON r.dst = s.a),
labels AS (SELECT src AS doc_id, least(src, min(dst)) AS cluster
           FROM reach GROUP BY src),
lab AS (SELECT d.doc_id, coalesce(l.cluster, d.doc_id) AS cluster
        FROM documents d LEFT JOIN labels l USING (doc_id))
SELECT doc_id, cluster,
       count(*) OVER (PARTITION BY cluster) AS cluster_size
FROM lab
"""


def q_decontaminate(sf_dir):
    """★-checked benchmark decontamination (stages/decontam.py): flag
    corpus docs sharing any word 8-gram with a benchmark set (here the
    deterministic subset doc_id % 50 == 0 — the driver has no separate
    benchmark table).  Benchmark gram hashes + exact gram strings ride
    one broadcast; the corpus streams through a single stateless
    map_batches — no shuffle.  Every hash hit is re-verified against
    the exact gram-string set, so n_hits is collision-free."""
    from ..stages.decontam import decontaminate

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    bench = (docs.map_batches(lambda df: df[df["doc_id"] % 50 == 0],
                              batch_format="pandas")
             .to_pandas().sort_values("doc_id"))
    out = decontaminate(docs, list(bench["text"]), n=8).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


DECONTAM_SQL = """
WITH w AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+') AS toks
  FROM documents
),
dgrams AS (
  SELECT DISTINCT doc_id, array_to_string(toks[i:i+7], ' ') AS gram
  FROM w, LATERAL unnest(generate_series(1, greatest(len(toks) - 7, 0))) AS t(i)
),
bgrams AS (SELECT DISTINCT gram FROM dgrams WHERE doc_id % 50 = 0),
hits AS (
  SELECT g.doc_id, count(*) AS n_hits
  FROM dgrams g JOIN bgrams USING (gram) GROUP BY 1
)
SELECT d.doc_id,
       coalesce(h.n_hits, 0) AS n_hits,
       coalesce(h.n_hits, 0) > 0 AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
"""


def q_counter_rate(sf_dir):
    """★-checked PromQL-style counter rate (stages/counters.py): per
    user series ordered by (ts, event_id), negative deltas are counter
    resets (contribution = current value); increase accumulates in
    exact int space (values are k/100-quantized) so the SQL twin is
    bit-identical."""
    from ..stages.counters import counter_rate

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )
    out = counter_rate(ev).to_pandas()
    return round6(out.sort_values("user_id").reset_index(drop=True))


COUNTER_RATE_SQL = """
WITH o AS (
  SELECT user_id,
         CAST(round(value * 100) AS BIGINT) AS k,
         lag(CAST(round(value * 100) AS BIGINT)) OVER w AS pk,
         epoch_us(ts) AS tus
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
c AS (
  SELECT user_id,
         sum(CASE WHEN pk IS NULL THEN 0
                  WHEN k >= pk THEN k - pk ELSE k END) AS inc_k,
         count(*) FILTER (pk IS NOT NULL AND k < pk) AS n_resets,
         (max(tus) - min(tus)) / 1000000.0 AS duration_s
  FROM o GROUP BY user_id
)
SELECT user_id, n_resets,
       round(CAST(inc_k AS DOUBLE) / 100.0, 6) AS total_increase,
       round(CASE WHEN duration_s > 0.0
             THEN (CAST(inc_k AS DOUBLE) / 100.0) / duration_s
             ELSE NULL END, 6) AS rate_per_sec
FROM c
"""


def q_minmax_downsample(sf_dir):
    """★-checked TSDB min-max downsample (stages/counters.py): per
    (user, 1h bucket) keep the min- and max-value rows, ties to the
    earliest (ts, event_id) — row_number oracle."""
    from ..stages.counters import minmax_downsample

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )
    out = minmax_downsample(ev, bucket_s=3600).to_pandas()
    out["value"] = np.round(out["value"].to_numpy(np.float64), 6)
    return (out.sort_values(["user_id", "bucket_us", "kind"])
            .reset_index(drop=True))


MINMAX_SQL = """
WITH b AS (
  SELECT user_id, event_id, ts, value,
         (epoch_us(ts) // 3600000000) * 3600000000 AS bucket_us,
         row_number() OVER (PARTITION BY user_id,
                            (epoch_us(ts) // 3600000000)
                            ORDER BY value ASC, ts, event_id) AS rn_min,
         row_number() OVER (PARTITION BY user_id,
                            (epoch_us(ts) // 3600000000)
                            ORDER BY value DESC, ts, event_id) AS rn_max
  FROM events
)
SELECT user_id, bucket_us, 'min' AS kind, ts, event_id,
       round(value, 6) AS value
FROM b WHERE rn_min = 1
UNION ALL
SELECT user_id, bucket_us, 'max' AS kind, ts, event_id,
       round(value, 6) AS value
FROM b WHERE rn_max = 1
"""


def q_wav_features(sf_dir):
    """★-checked REAL multimodal path (stages/multimodal.py): each
    user's event values (ordered by event_id, quantized to int16 via
    round(value·100) mod 32768) become a genuine RIFF/WAVE PCM16
    payload; the actor-pool decode stage parses the RIFF chunk walk
    and emits exact integer-space audio features.  The oracle
    recomputes the same features from the source samples in SQL — so
    the binary encode→decode roundtrip itself is driver-verified."""
    from ..stages.multimodal import encode_wav_pcm16, wav_features

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"]
    )

    def to_wav(df: pd.DataFrame) -> pa.Table:
        uids, payloads = [], []
        for uid, g in df.sort_values(["user_id", "event_id"],
                                     kind="mergesort").groupby("user_id"):
            k = np.rint(g["value"].to_numpy(np.float64) * 100.0).astype(np.int64)
            uids.append(int(uid))
            # SIGNED mapping (floored mod): exercises the codec's
            # negative-sample path and makes zero_crossings meaningful
            s16 = ((k + 16384) % 32768 - 16384).astype(np.int16)
            payloads.append(encode_wav_pcm16(s16))
        return pa.table({"user_id": pa.array(uids, pa.int64()),
                         "payload": pa.array(payloads, pa.binary())})

    wavs = group_apply(ev, to_wav, key="user_id")
    out = wav_features(wavs, batch_size=16).to_pandas()
    return round6(out.sort_values("user_id").reset_index(drop=True))


WAV_SQL = """
WITH k AS (
  SELECT user_id, event_id,
         ((CAST(round(value * 100) AS BIGINT) + 16384) % 32768
          + 32768) % 32768 - 16384 AS s
  FROM events
),
lagd AS (
  SELECT user_id, s,
         lag(s) OVER (PARTITION BY user_id ORDER BY event_id) AS ps
  FROM k
)
SELECT user_id,
       count(*) AS n_samples,
       CAST(16000 AS BIGINT) AS sample_rate,
       round(count(*) / 16000.0, 6) AS duration_s,
       max(abs(s)) AS peak,
       round(sqrt(CAST(sum(s * s) AS DOUBLE) / count(*)), 6) AS rms,
       CAST(sum(CASE WHEN ps IS NOT NULL AND ps * s < 0
                THEN 1 ELSE 0 END) AS BIGINT) AS zero_crossings,
       round(CASE WHEN count(*) > 1
             THEN CAST(sum(CASE WHEN ps IS NOT NULL
                           THEN abs(s - ps) ELSE 0 END) AS DOUBLE)
                  / (count(*) - 1)
             ELSE 0.0 END, 6) AS mean_abs_step
FROM lagd GROUP BY user_id
"""


def _encode_user_images(df: pd.DataFrame, encoder) -> pa.Table:
    """Shared pixel synthesis for the image-modality queries (PPM and
    PNG validate against the SAME IMAGE_SQL oracle, so the mapping
    lives in exactly one place): each user's first ⌊n/64⌋·64 event
    values (event_id order) become a 64-wide RGB image with
    r = k mod 256, g = ⌊k/256⌋ mod 256, b = (r+g) mod 256,
    k = round(value·100)."""
    uids, payloads = [], []
    for uid, g in df.sort_values(["user_id", "event_id"],
                                 kind="mergesort").groupby("user_id"):
        k = np.rint(g["value"].to_numpy(np.float64) * 100.0).astype(np.int64)
        h = len(k) // 64
        if h == 0:
            continue
        k = k[:h * 64]
        r = (k % 256).astype(np.uint8)
        gg = ((k // 256) % 256).astype(np.uint8)
        b = ((r.astype(np.int64) + gg) % 256).astype(np.uint8)
        img = np.stack([r, gg, b], axis=1).reshape(h, 64, 3)
        uids.append(int(uid))
        payloads.append(encoder(img))
    return pa.table({"user_id": pa.array(uids, pa.int64()),
                     "payload": pa.array(payloads, pa.binary())})


def q_image_features(sf_dir):
    """★-checked REAL image modality: per-user pixel synthesis
    (_encode_user_images) → P6 PPM payloads; the actor-pool decode
    stage parses the real PPM header + raw RGB bytes and emits exact
    per-channel means the oracle recomputes from the source rows."""
    from ..stages.multimodal import encode_ppm, ppm_features

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"]
    )
    ppms = group_apply(ev, lambda df: _encode_user_images(df, encode_ppm),
                       key="user_id")
    out = ppm_features(ppms, batch_size=16).to_pandas()
    return round6(out.sort_values("user_id").reset_index(drop=True))


def q_png_decode(sf_dir):
    """★-checked REAL compressed-image modality (stages/multimodal.py
    ::decode_png — stdlib-zlib DEFLATE, CRC-checked chunks, all five
    scanline unfilters; the encoder cycles filters 0→4 by row so every
    unfilter path runs): same per-user pixel synthesis as
    `image_features`, but the payloads are spec-valid PNGs.  Decode is
    lossless, so the PPM oracle SQL recomputes the identical means."""
    from ..stages.multimodal import encode_png, png_features

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"]
    )
    pngs = group_apply(
        ev,
        lambda df: _encode_user_images(
            df, lambda img: encode_png(img, filter_type="cycle")),
        key="user_id")
    out = png_features(pngs, batch_size=16).to_pandas()
    return round6(out.sort_values("user_id").reset_index(drop=True))


IMAGE_SQL = """
WITH k AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS k,
         row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS rn
  FROM events
),
sized AS (
  SELECT user_id, (count(*) // 64) * 64 AS keep FROM k GROUP BY user_id
),
px AS (
  SELECT k.user_id, k.k % 256 AS r, (k.k // 256) % 256 AS g,
         (k.k % 256 + (k.k // 256) % 256) % 256 AS b
  FROM k JOIN sized USING (user_id) WHERE k.rn <= sized.keep
)
SELECT user_id,
       CAST(64 AS BIGINT) AS width,
       count(*) // 64 AS height,
       count(*) AS n_pixels,
       round(CAST(sum(r) AS DOUBLE) / count(*), 6) AS mean_r,
       round(CAST(sum(g) AS DOUBLE) / count(*), 6) AS mean_g,
       round(CAST(sum(b) AS DOUBLE) / count(*), 6) AS mean_b
FROM px GROUP BY user_id
"""


def q_vocab_topk(sf_dir):
    """★-checked vocabulary build (stages/pack.py::vocab_topk): exact
    global top-50 token frequencies.  Only per-batch (token, count)
    partials enter the exchange; per-partition top-k is exact because
    the token-keyed hash exchange puts each token's whole count in one
    partition."""
    from ..stages.pack import vocab_topk

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    return vocab_topk(docs, k=50)


VOCAB_SQL = """
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+')) AS token
  FROM documents
)
SELECT token, count(*) AS cnt FROM tok GROUP BY token
ORDER BY cnt DESC, token LIMIT 50
"""


def q_pack_sequences(sf_dir):
    """★-checked greedy sequence packing (stages/pack.py): docs in
    doc_id order per source, first-fit into 256-token windows; the
    deterministic bin walk has a recursive-CTE SQL twin."""
    from ..stages.pack import pack_sequences

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "doc_id", "text"]
    )
    out = pack_sequences(docs, capacity=256).to_pandas()
    return out.sort_values(["source", "doc_id"]).reset_index(drop=True)


PACK_SQL = """
WITH RECURSIVE t AS (
  SELECT source, doc_id,
         len(regexp_extract_all(text, '[^ \t\n\r\f\v]+')) AS token_count,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents
),
p AS (
  SELECT source, doc_id, token_count, rn,
         CAST(0 AS BIGINT) AS bin, token_count AS fill
  FROM t WHERE rn = 1
  UNION ALL
  SELECT t.source, t.doc_id, t.token_count, t.rn,
         CASE WHEN p.fill + t.token_count > 256
              THEN p.bin + 1 ELSE p.bin END,
         CASE WHEN p.fill + t.token_count > 256
              THEN t.token_count ELSE p.fill + t.token_count END
  FROM t JOIN p ON t.source = p.source AND t.rn = p.rn + 1
)
SELECT source, doc_id, token_count, bin FROM p
"""


def q_corpus_stats(sf_dir):
    """★-checked per-source corpus report (the summary every
    training-data run ends with): doc count, total/mean whitespace
    tokens, exact p50/p95 tokens-per-doc.  Token counting streams
    map-side (only (source, token_count) rows reach the exchange —
    the minimal payload, since exact quantiles need every count);
    one source-keyed group_apply computes the aggregates with the
    shared duck_quantile lerp (bit-equal to quantile_cont)."""
    from ..oracle.rollup import duck_quantile

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )

    def toks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "source": df["source"],
            "token_count": df["text"].astype(str).str.count(
                r"[^ \t\n\r\f\v]+").to_numpy(np.int64),
        })

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for src, g in df.groupby("source", sort=False):
            tc = np.sort(g["token_count"].to_numpy(np.int64))
            total = int(tc.sum())
            rows.append({
                "source": src, "n_docs": len(tc), "total_tokens": total,
                "mean_tokens": float(total) / len(tc),
                "p50_tokens": duck_quantile(tc.astype(np.float64), 0.5),
                "p95_tokens": duck_quantile(tc.astype(np.float64), 0.95),
            })
        return pd.DataFrame(rows)

    out = group_apply(docs.map_batches(toks, batch_format="pandas"), agg,
                      key="source").to_pandas()
    return round6(out.sort_values("source").reset_index(drop=True))


CORPUS_STATS_SQL = """
WITH t AS (
  SELECT source, len(regexp_extract_all(text, '\\S+')) AS tc
  FROM documents
)
SELECT source, count(*) AS n_docs,
       CAST(sum(tc) AS BIGINT) AS total_tokens,
       round(CAST(sum(tc) AS DOUBLE) / count(*), 6) AS mean_tokens,
       round(quantile_cont(CAST(tc AS DOUBLE), 0.5), 6) AS p50_tokens,
       round(quantile_cont(CAST(tc AS DOUBLE), 0.95), 6) AS p95_tokens
FROM t GROUP BY source
"""


def q_curate_docs(sf_dir):
    """★-checked end-to-end curation (pipelines/curate.py): language
    ID + quality scoring + exact dedup + exact-verified near-dup
    clustering fused into one keep/drop row per document.  Every rule
    compares exact-int-ratio doubles, so the composite decision is
    bit-reproducible in SQL."""
    from .curate import curate_documents

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = curate_documents(docs).to_pandas()
    out = out[["doc_id", "lang_pred", "token_count", "repetition_ratio",
               "is_exact_dup", "is_near_dup", "keep"]]
    return round6(out.sort_values("doc_id").reset_index(drop=True))


def _curate_sql() -> str:
    """SQL twin of curate_documents: langid scores + quality ratios +
    exact-dup min-per-text + 5-gram Jaccard pairs → recursive-CTE
    transitive closure → min-of-cluster near-dup losers → keep."""
    from ..stages.text import _LANG_PROFILES

    scores = []
    for lang, stop in _LANG_PROFILES.items():
        lst = ", ".join(f"'{w}'" for w in sorted(stop))
        scores.append(
            f"len(list_intersect(list_distinct("
            f"regexp_extract_all(lower(text), '[a-zà-ÿ]+')), [{lst}])) AS s_{lang}"
        )
    en = ", ".join(f"'{w}'" for w in sorted(_LANG_PROFILES["en"]))
    return f"""
WITH RECURSIVE s AS (SELECT doc_id, {", ".join(scores)} FROM documents),
lang AS (
  SELECT doc_id,
         CASE WHEN greatest(s_en, s_de, s_fr, s_es, s_it) = 0 THEN 'und'
              WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es AND s_en >= s_it THEN 'en'
              WHEN s_de >= s_fr AND s_de >= s_es AND s_de >= s_it THEN 'de'
              WHEN s_fr >= s_es AND s_fr >= s_it THEN 'fr'
              WHEN s_es >= s_it THEN 'es'
              ELSE 'it' END AS lang_pred
  FROM s),
q AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\\S+')) AS token_count,
         1.0 - len(list_distinct(regexp_extract_all(text, '\\S+')))
             / greatest(len(regexp_extract_all(text, '\\S+')), 1)
           AS repetition_ratio
  FROM documents),
ed AS (
  SELECT d.doc_id FROM documents d
  JOIN (SELECT text, min(doc_id) AS m FROM documents GROUP BY text) g
    ON d.text = g.text
  WHERE d.doc_id <> g.m),
sh AS (
  SELECT DISTINCT doc_id, substring(text, i, 5) AS g
  FROM (
    SELECT doc_id, text,
           unnest(generate_series(1, greatest(length(text) - 4, 1))) AS i
    FROM documents)),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY 1),
inter AS (
  SELECT a.doc_id AS ia, b.doc_id AS ib, count(*) AS i
  FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2),
j AS (
  SELECT ia AS a, ib AS b
  FROM inter i JOIN sizes sa ON sa.doc_id = i.ia
               JOIN sizes sb ON sb.doc_id = i.ib
  WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= 0.7),
sym AS (SELECT a, b FROM j UNION SELECT b, a FROM j),
reach(src, dst) AS (SELECT a, b FROM sym UNION
  SELECT r.src, s.b FROM reach r JOIN sym s ON r.dst = s.a),
labels AS (SELECT src AS doc_id, least(src, min(dst)) AS cluster
           FROM reach GROUP BY src),
nd AS (SELECT doc_id FROM labels WHERE cluster < doc_id)
SELECT d.doc_id, l.lang_pred, q.token_count,
       round(q.repetition_ratio, 6) AS repetition_ratio,
       (d.doc_id IN (SELECT doc_id FROM ed)) AS is_exact_dup,
       (d.doc_id IN (SELECT doc_id FROM nd)) AS is_near_dup,
       (d.doc_id NOT IN (SELECT doc_id FROM ed)
        AND d.doc_id NOT IN (SELECT doc_id FROM nd)
        AND l.lang_pred IN ('en', 'de', 'fr', 'es', 'it')
        AND q.token_count >= 20
        AND q.repetition_ratio <= 0.6) AS keep
FROM documents d JOIN lang l USING (doc_id) JOIN q USING (doc_id)
"""


def q_ohlc_1h(sf_dir):
    """★-checked OHLC candlestick rollup (stages/tsmath.py): per
    (user, 1h bucket) open/high/low/close/count with (ts, event_id)
    order defining open/close.  Pure row selection — no float math —
    so the engine/SQL doubles are the source values verbatim."""
    from ..stages.tsmath import ohlc_rollup

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )
    out = ohlc_rollup(ev, bucket_s=3600).to_pandas()
    return (out.sort_values(["user_id", "bucket_us"])
            .reset_index(drop=True))


OHLC_SQL = """
SELECT user_id,
       (epoch_us(ts) // 3600000000) * 3600000000 AS bucket_us,
       first(value ORDER BY ts, event_id) AS open,
       max(value) AS high,
       min(value) AS low,
       last(value ORDER BY ts, event_id) AS close,
       count(*) AS n
FROM events
GROUP BY user_id, (epoch_us(ts) // 3600000000) * 3600000000
"""


def q_twa_1d(sf_dir):
    """★-checked LOCF time-weighted average (stages/tsmath.py): per
    (user, 1d bucket) Σ vᵢ·Δtᵢ / span with Δt to the next point in
    the same bucket; zero-span buckets degrade to the plain mean.
    Σ k·Δt_us accumulates in exact int64 so the lead()-window SQL
    twin is bit-identical."""
    from ..stages.tsmath import time_weighted_avg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )
    out = time_weighted_avg(ev, bucket_s=86400).to_pandas()
    out = round6(out, cols=["twa"])
    return (out.sort_values(["user_id", "bucket_us"])
            .reset_index(drop=True))


TWA_SQL = """
WITH o AS (
  SELECT user_id,
         (epoch_us(ts) // 86400000000) * 86400000000 AS bucket_us,
         CAST(round(value * 100) AS BIGINT) AS k,
         epoch_us(ts) AS tus,
         lead(epoch_us(ts)) OVER (
           PARTITION BY user_id, epoch_us(ts) // 86400000000
           ORDER BY ts, event_id) AS next_tus
  FROM events
),
c AS (
  SELECT user_id, bucket_us,
         sum(k * coalesce(next_tus - tus, 0)) AS kdt,
         sum(coalesce(next_tus - tus, 0)) AS span_us,
         sum(k) AS sk,
         count(*) AS n
  FROM o GROUP BY user_id, bucket_us
)
SELECT user_id, bucket_us,
       round(CASE WHEN span_us > 0
             THEN CAST(kdt AS DOUBLE) / (CAST(span_us AS DOUBLE) * 100.0)
             ELSE CAST(sk AS DOUBLE) / (CAST(n AS DOUBLE) * 100.0)
             END, 6) AS twa,
       CAST(span_us AS BIGINT) AS span_us, n
FROM c
"""


def q_zscore_anomalies(sf_dir):
    """★-checked population z-score anomaly flags (stages/tsmath.py):
    rows > 2.5σ from the per-user mean.  µ and σ² from exact int64
    Σk/Σk² with the float expression (skk/n − (sk/n)²) mirrored
    operation-for-operation in the SQL twin."""
    from ..stages.tsmath import zscore_anomalies

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"]
    )
    out = zscore_anomalies(ev, thresh=2.5).to_pandas()
    out = round6(out, cols=["z"])
    return (out.sort_values(["user_id", "event_id"])
            .reset_index(drop=True))


ZSCORE_SQL = """
WITH k AS (
  SELECT user_id, event_id, value,
         CAST(round(value * 100) AS BIGINT) AS kv
  FROM events
),
s AS (
  SELECT user_id,
         CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(kv) AS DOUBLE) AS sk,
         CAST(sum(kv * kv) AS DOUBLE) AS skk
  FROM k GROUP BY user_id
),
z AS (
  SELECT k.user_id, k.event_id, k.value,
         (k.kv - s.sk / s.n) / sqrt(s.skk / s.n - (s.sk / s.n) * (s.sk / s.n)) AS z,
         s.skk / s.n - (s.sk / s.n) * (s.sk / s.n) AS var
  FROM k JOIN s USING (user_id)
)
SELECT user_id, event_id, value, round(z, 6) AS z
FROM z WHERE var > 0 AND abs(z) > 2.5
"""


def q_diurnal_profile(sf_dir):
    """★-checked hour-of-day seasonal profile (stages/tsmath.py):
    mean value + count by (event_type, UTC hour).  Map-side partial
    combine — each block reduces to ≤ types×24 exact-int cells, so
    the exchange carries ~120 rows regardless of input size."""
    from ..stages.tsmath import diurnal_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    out = diurnal_profile(ev)
    out = round6(out, cols=["mean_value"])
    return (out.sort_values(["event_type", "hour"])
            .reset_index(drop=True))


DIURNAL_SQL = """
SELECT event_type,
       (epoch_us(ts) // 3600000000) % 24 AS hour,
       count(*) AS n,
       round(CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE)
             / (CAST(count(*) AS DOUBLE) * 100.0), 6) AS mean_value
FROM events
GROUP BY event_type, (epoch_us(ts) // 3600000000) % 24
"""


def q_trend_corr(sf_dir):
    """★-checked per-series trend correlation (stages/tsmath.py):
    Pearson r between value (k-space int) and elapsed whole seconds
    since the series' first point.  All five sums are exact int64;
    the final double expression mirrors the SQL twin bitwise."""
    from ..stages.tsmath import trend_corr

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    out = trend_corr(ev).to_pandas()
    out = round6(out, cols=["trend_r"])
    return out.sort_values("user_id").reset_index(drop=True)


TREND_CORR_SQL = """
WITH t0 AS (
  SELECT user_id, min(epoch_us(ts)) AS t0 FROM events GROUP BY user_id
),
xy AS (
  SELECT e.user_id,
         CAST(round(e.value * 100) AS BIGINT) AS x,
         (epoch_us(e.ts) - t0.t0) // 1000000 AS y
  FROM events e JOIN t0 USING (user_id)
),
s AS (
  SELECT user_id,
         CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(x) AS DOUBLE) AS sx,
         CAST(sum(y) AS DOUBLE) AS sy,
         CAST(sum(x * x) AS DOUBLE) AS sxx,
         CAST(sum(y * y) AS DOUBLE) AS syy,
         CAST(sum(x * y) AS DOUBLE) AS sxy
  FROM xy GROUP BY user_id
)
SELECT user_id, CAST(n AS BIGINT) AS n,
       round(CASE WHEN sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy) > 0.0
             THEN (n * sxy - sx * sy)
                  / (sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy))
             ELSE NULL END, 6) AS trend_r
FROM s
"""


def q_heavy_hitters(sf_dir):
    """★-checked EXACT heavy hitters (stages/heavy.py): items in
    ≥0.75% of rows via mergeable Misra-Gries block summaries + a
    broadcast exact recount — two streaming passes whose block
    partials reduce through tiny id-keyed pre-combine exchanges.
    The sketch only bounds the candidate set; the output counts are
    exact, so the plain HAVING oracle matches bit-for-bit."""
    from ..stages.heavy import heavy_hitters

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    return heavy_hitters(ev, col="user_id", threshold_frac=0.0075)


HEAVY_SQL = """
SELECT user_id, count(*) AS n
FROM events
GROUP BY user_id
HAVING count(*) >= (SELECT CAST(ceil(count(*) * 0.0075) AS BIGINT) FROM events)
"""


def _hot_user_keys(sf_dir: str, min_events: int = 70) -> np.ndarray:
    """Users with ≥ ``min_events`` total events — the ONE definition
    shared by the semi-join and its documented anti-join complement
    (a threshold drift between them would silently break the
    complement invariant)."""
    counts = (
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
        .groupby("user_id").count().to_pandas()
    )
    return counts.loc[counts["count()"] >= min_events,
                      "user_id"].to_numpy(np.int64)


def q_bloom_semi_join(sf_dir):
    """★-checked Bloom-prefiltered semi-join (stages/heavy.py): keep
    events of users with ≥70 total events.  The broadcast Bloom drops
    non-members map-side (~10 bits/key — the form that still
    broadcasts at 10⁹ keys); a hash join on the survivors removes
    false positives, so the result is the exact semi-join."""
    from ..stages.heavy import bloom_semi_join

    keys = _hot_user_keys(sf_dir)
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type"],
    )
    out = bloom_semi_join(ev, keys, col="user_id").to_pandas()
    return (out.sort_values("event_id").reset_index(drop=True))


BLOOM_SEMI_SQL = """
WITH hot AS (
  SELECT user_id FROM events GROUP BY user_id HAVING count(*) >= 70
)
SELECT e.event_id, e.user_id, e.event_type
FROM events e SEMI JOIN hot USING (user_id)
"""


def q_interval_merge(sf_dir):
    """★-checked variable-length interval union (stages/intervals.py):
    each event opens an interval of (k mod 600 + 60) seconds; merge
    overlapping-or-touching intervals per user via a segmented-scan
    running max.  int64-µs throughout — the windowed gaps-and-islands
    oracle is bit-identical."""
    from ..stages.intervals import merge_intervals

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        tus = df["ts"].to_numpy("datetime64[us]").view(np.int64)
        k = np.rint(df["value"].to_numpy(np.float64) * 100.0).astype(np.int64)
        return pd.DataFrame({
            "user_id": df["user_id"].to_numpy(),
            "event_id": df["event_id"].to_numpy(),
            "start_us": tus,
            "end_us": tus + (k % 600 + 60) * 1_000_000,
        })

    iv = ev.map_batches(derive, batch_format="pandas")
    out = merge_intervals(iv).to_pandas()
    return (out.sort_values(["user_id", "start_us"])
            .reset_index(drop=True))


INTERVAL_MERGE_SQL = """
WITH iv AS (
  SELECT user_id, event_id, epoch_us(ts) AS s,
         epoch_us(ts)
         + (CAST(round(value * 100) AS BIGINT) % 600 + 60) * 1000000 AS e
  FROM events
),
o AS (
  SELECT *, max(e) OVER (PARTITION BY user_id ORDER BY s, e, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
            AS pm
  FROM iv
),
fl AS (
  SELECT *, CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END AS flag
  FROM o
),
isl AS (
  SELECT *, sum(flag) OVER (PARTITION BY user_id ORDER BY s, e, event_id
                            ROWS UNBOUNDED PRECEDING) AS island
  FROM fl
)
SELECT user_id, min(s) AS start_us, max(e) AS end_us,
       count(*) AS n_intervals
FROM isl GROUP BY user_id, island
"""


def q_redact_props(sf_dir):
    """★-checked PII/number redaction (stages/textprep.py): URLs →
    emails → digit runs scrubbed sequentially from events.props with
    per-rule match counts.  Engine regexes run on pyarrow's RE2 — the
    same engine as DuckDB — so clean text and counts match
    byte-for-byte with identical patterns."""
    from ..stages.textprep import redact

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "props"]
    )
    out = redact(ev, col="props", id_col="event_id").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


REDACT_SQL = """
WITH s1 AS (
  SELECT event_id,
         len(regexp_extract_all(props, 'https?://[^ ]+')) AS n_urls,
         regexp_replace(props, 'https?://[^ ]+', '<URL>', 'g') AS t
  FROM events
),
s2 AS (
  SELECT event_id, n_urls,
         len(regexp_extract_all(t, '[A-Za-z0-9_.+-]+@[A-Za-z0-9.-]+')) AS n_emails,
         regexp_replace(t, '[A-Za-z0-9_.+-]+@[A-Za-z0-9.-]+', '<EMAIL>', 'g') AS t
  FROM s1
)
SELECT event_id,
       regexp_replace(t, '[0-9]+', '<NUM>', 'g') AS clean_text,
       n_urls, n_emails,
       len(regexp_extract_all(t, '[0-9]+')) AS n_numbers
FROM s2
"""


def q_chunk_docs(sf_dir):
    """★-checked sliding-window chunking (stages/textprep.py): 120-char
    chunks at stride 90 (25% overlap) per document, one vectorized
    slice pass per chunk index.  The generate_series + substring
    oracle reproduces every chunk byte-for-byte (ASCII corpus:
    codeunits == chars)."""
    from ..stages.textprep import chunk_documents

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = chunk_documents(docs, size=120, stride=90).to_pandas()
    return (out.sort_values(["doc_id", "chunk_idx"])
            .reset_index(drop=True))


CHUNK_SQL = """
WITH e AS (
  SELECT doc_id, text,
         unnest(generate_series(0,
           CAST(ceil(greatest(length(text) - 120, 0) / 90.0) AS BIGINT)))
         AS chunk_idx
  FROM documents
)
SELECT doc_id, chunk_idx,
       substring(text, chunk_idx * 90 + 1, 120) AS chunk_text,
       length(substring(text, chunk_idx * 90 + 1, 120)) AS chunk_len
FROM e
"""


def q_repetition_scores(sf_dir):
    """★-checked in-document repetition signals (stages/textprep.py):
    token/distinct counts, duplicate-token ratio, top-token fraction
    per doc via one whole-batch split + factorize + reduceat.  Split
    semantics mirror SQL string_split (empty tokens kept)."""
    from ..stages.textprep import repetition_score

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = repetition_score(docs).to_pandas()
    out = round6(out, cols=["dup_ratio", "top_token_frac"])
    return out.sort_values("doc_id").reset_index(drop=True)


REPETITION_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w
  FROM documents
),
per AS (
  SELECT doc_id, w, count(*) AS c FROM tok GROUP BY doc_id, w
),
agg AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens,
         count(*) AS n_distinct,
         max(c) AS top
  FROM per GROUP BY doc_id
)
SELECT doc_id, n_tokens, n_distinct,
       round(1.0 - CAST(n_distinct AS DOUBLE) / CAST(n_tokens AS DOUBLE), 6)
         AS dup_ratio,
       round(CAST(top AS DOUBLE) / CAST(n_tokens AS DOUBLE), 6)
         AS top_token_frac
FROM agg
"""


def q_props_extract(sf_dir):
    """★-checked semi-structured projection (stages/textprep.py): pull
    the integer ``k`` out of the JSON props string with one RE2 pass,
    then aggregate per event_type in exact int space."""
    from ..stages.textprep import extract_json_field

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )
    k = extract_json_field(ev, col="props", field="k").to_pandas()
    agg = k.groupby("event_type", as_index=False).agg(
        n=("k", "size"), n_k=("k", "count"), sum_k=("k", "sum"))
    agg["avg_k"] = agg["sum_k"].to_numpy(np.float64) / agg["n_k"].to_numpy(
        np.float64)
    agg = round6(agg, cols=["avg_k"])
    return agg.sort_values("event_type").reset_index(drop=True)


PROPS_SQL = """
WITH k AS (
  SELECT event_type,
         CAST(nullif(regexp_extract(props, '"k": ([0-9]+)', 1), '') AS BIGINT)
           AS kv
  FROM events
)
SELECT event_type, count(*) AS n, count(kv) AS n_k,
       CAST(sum(kv) AS BIGINT) AS sum_k,
       round(CAST(sum(kv) AS DOUBLE) / CAST(count(kv) AS DOUBLE), 6) AS avg_k
FROM k GROUP BY event_type
"""


def q_topk_per_day(sf_dir):
    """★-checked exact top-3 hottest users per day (stages/heavy.py):
    map-side partial counts compress blocks to (bucket, user) cells
    before the one bucket-keyed exchange; ties break to the smaller
    user id, mirrored by the row_number oracle."""
    from ..stages.heavy import topk_per_window

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = topk_per_window(ev, k=3, bucket_s=86400).to_pandas()
    return (out.sort_values(["bucket_us", "rank"])
            .reset_index(drop=True))


TOPK_WINDOW_SQL = """
WITH c AS (
  SELECT (epoch_us(ts) // 86400000000) * 86400000000 AS bucket_us,
         user_id, count(*) AS n
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY bucket_us
                               ORDER BY n DESC, user_id) AS rank
  FROM c
)
SELECT bucket_us, user_id, n, rank FROM r WHERE rank <= 3
"""


def q_hll_distinct(sf_dir):
    """★-checked HyperLogLog distinct-count sketch (stages/sketch.py):
    one streaming pass, blocks reduce to nonzero (register, rank)
    pairs merged by max — constant-size exchange at any scale.  The
    splitmix64 register hash is pure 64-bit arithmetic, so the ENTIRE
    sketch — hash, bucket, leading-zero rank, estimator with linear-
    counting correction — is mirrored in SQL (HLL_SQL: HUGEINT
    mod-2^64 multiply split into 32-bit halves, rank via the same
    6-step shift cascade as the numpy kernel).  The driver hash now
    certifies the estimate bit-for-bit, not just within tolerance;
    the 5% in-query assert is kept as a semantic sanity gate."""
    from ..stages.sketch import hll_distinct

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    est = hll_distinct(ev, col="user_id")
    exact = int(
        ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
        .unique("user_id").__len__()
    )
    rel_err = abs(est - exact) / exact
    if not rel_err < 0.05:  # survives python -O
        raise AssertionError(f"HLL estimate off by {rel_err:.3f}: "
                             f"{est} vs exact {exact}")
    return round6(pd.DataFrame({
        "hll_estimate": [float(est)],
        "exact_distinct": [np.int64(exact)],
        "rel_err": [float(rel_err)],
    }))


def _hll_sql() -> str:
    """SQL twin of stages/sketch.py::hll_distinct — built
    programmatically so the constants stay single-sourced."""
    from ..stages.sketch import _HLL_P

    M = 1 << 64
    B32 = 1 << 32
    C1 = 0x9E3779B97F4A7C15
    C2 = 0xBF58476D1CE4E5B9
    C3 = 0x94D049BB133111EB
    P = _HLL_P
    MREG = 1 << P

    def mulmod(a: str, b: int) -> str:
        blo, bhi = b % B32, b // B32
        return (f"((({a}) % {B32}) * {blo} + "
                f"(((({a}) % {B32}) * {bhi} + (({a}) // {B32}) * {blo})"
                f" % {B32}) * {B32}) % {M}")

    def step(i: int, shift: int, bound: int) -> str:
        return (f"r{i} AS (SELECT reg, CASE WHEN cur{i-1} < {bound} "
                f"THEN ((cur{i-1} << {shift}) % {M}) ELSE cur{i-1} END AS cur{i}, "
                f"rk{i-1} + CASE WHEN cur{i-1} < {bound} THEN {shift} ELSE 0 END"
                f" AS rk{i} FROM r{i-1})")

    steps = ",\n".join(
        step(i, s, 1 << (64 - s))
        for i, s in enumerate((32, 16, 8, 4, 2, 1), start=1))
    return f"""
WITH ids AS (SELECT DISTINCT user_id AS uid FROM events),
s1 AS (SELECT ((CAST(uid AS HUGEINT) + {C1}) % {M}) AS x0 FROM ids),
s2 AS (SELECT xor(x0, x0 >> 30) AS x1 FROM s1),
s3 AS (SELECT {mulmod('x1', C2)} AS x2 FROM s2),
s4 AS (SELECT xor(x2, x2 >> 27) AS x3 FROM s3),
s5 AS (SELECT {mulmod('x3', C3)} AS x4 FROM s4),
s6 AS (SELECT xor(x4, x4 >> 31) AS h FROM s5),
r0 AS (SELECT h >> {64 - P} AS reg,
              ((h << {P}) % {M}) | {MREG - 1} AS cur0, 0 AS rk0 FROM s6),
{steps},
regs AS (SELECT reg, max(rk6 + 1) AS rank FROM r6 GROUP BY 1),
agg AS (SELECT sum(power(2.0, -rank)) AS s_nz, count(*) AS n_nz FROM regs),
raw AS (
  SELECT (0.7213 / (1.0 + 1.079 / {MREG})) * {MREG} * {MREG}
           / (s_nz + ({MREG} - n_nz) * 1.0) AS est,
         {MREG} - n_nz AS zeros
  FROM agg
),
fin AS (
  SELECT CASE WHEN est <= 2.5 * {MREG} AND zeros > 0
              THEN {MREG} * ln({MREG} / CAST(zeros AS DOUBLE))
              ELSE est END AS est
  FROM raw
),
ex AS (SELECT count(DISTINCT user_id) AS exact FROM events)
SELECT round(f.est, 6) AS hll_estimate,
       e.exact AS exact_distinct,
       round(abs(f.est - e.exact) / e.exact, 6) AS rel_err
FROM fin f, ex e
"""


def q_cohort_retention(sf_dir):
    """★-checked retention triangle (stages/analytics.py): distinct
    users active per (first-seen cohort day, age in days).  Users are
    whole within a partition, so map-side cell counts are already
    distinct-user counts; the driver sums cells bounded by days², not
    rows."""
    from ..stages.analytics import cohort_retention

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = cohort_retention(ev)
    return (out.sort_values(["cohort_day", "age_days"])
            .reset_index(drop=True))


COHORT_SQL = """
WITH f AS (
  SELECT user_id, min(epoch_us(ts)) // 86400000000 AS cohort_day
  FROM events GROUP BY user_id
),
c AS (
  SELECT DISTINCT e.user_id, f.cohort_day,
         epoch_us(e.ts) // 86400000000 - f.cohort_day AS age_days
  FROM events e JOIN f USING (user_id)
)
SELECT cohort_day, age_days, count(*) AS n_users
FROM c GROUP BY cohort_day, age_days
"""


def q_attribution(sf_dir):
    """★-checked first/last-touch conversion attribution
    (stages/analytics.py::touch_attribution): every 'purchase' event
    credits the first and the last non-conversion touch in its 7-day
    lookback; credits aggregate per channel.  One key-hash exchange,
    vectorized searchsorted window bounds per user.  Window/tie
    semantics (ts asc, event_id tiebreak; touch strictly before the
    conversion, >= cts - 7d) are mirrored exactly in the windowed
    SQL."""
    from ..stages.analytics import touch_attribution

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    return touch_attribution(ev, conversion="purchase")


ATTRIBUTION_SQL = """
WITH conv AS (
  SELECT user_id, event_id AS cid, ts AS cts
  FROM events WHERE event_type = 'purchase'
),
touch AS (
  SELECT user_id, event_type, ts, event_id
  FROM events WHERE event_type <> 'purchase'
),
win AS (
  SELECT c.user_id, c.cid, t.event_type, t.ts, t.event_id
  FROM conv c JOIN touch t ON t.user_id = c.user_id
   AND t.ts < c.cts AND t.ts >= c.cts - INTERVAL 7 DAY
),
ranked AS (
  SELECT user_id, cid, event_type,
         row_number() OVER (PARTITION BY user_id, cid
                            ORDER BY ts, event_id) AS rf,
         row_number() OVER (PARTITION BY user_id, cid
                            ORDER BY ts DESC, event_id DESC) AS rl
  FROM win
),
f AS (SELECT event_type, CAST(count(*) AS BIGINT) AS first_touch
      FROM ranked WHERE rf = 1 GROUP BY 1),
l AS (SELECT event_type, CAST(count(*) AS BIGINT) AS last_touch
      FROM ranked WHERE rl = 1 GROUP BY 1),
n AS (SELECT CAST(count(*) AS BIGINT) AS n_conversions
      FROM ranked WHERE rf = 1)
SELECT coalesce(f.event_type, l.event_type) AS event_type,
       coalesce(f.first_touch, 0) AS first_touch,
       coalesce(l.last_touch, 0) AS last_touch,
       n.n_conversions
FROM f FULL OUTER JOIN l ON f.event_type = l.event_type, n
ORDER BY 1
"""


def q_funnel(sf_dir):
    """★-checked strict-order funnel (stages/analytics.py): users
    reaching signup → click → purchase, each step strictly after the
    user's earliest completion of the previous one.  Constant number
    of masked min-reduce passes per partition, int64-µs exact."""
    from ..stages.analytics import funnel_steps

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"]
    )
    return funnel_steps(ev, steps=("signup", "click", "purchase"))


FUNNEL_SQL = """
WITH e AS (
  SELECT user_id, event_type, epoch_us(ts) AS tus FROM events
),
s1 AS (
  SELECT user_id, min(tus) AS t FROM e
  WHERE event_type = 'signup' GROUP BY user_id
),
s2 AS (
  SELECT e.user_id, min(e.tus) AS t FROM e JOIN s1 USING (user_id)
  WHERE e.event_type = 'click' AND e.tus > s1.t GROUP BY e.user_id
),
s3 AS (
  SELECT e.user_id, min(e.tus) AS t FROM e JOIN s2 USING (user_id)
  WHERE e.event_type = 'purchase' AND e.tus > s2.t GROUP BY e.user_id
)
SELECT 1 AS step_idx, 'signup' AS step,
       (SELECT count(*) FROM s1) AS n_users
UNION ALL SELECT 2, 'click', (SELECT count(*) FROM s2)
UNION ALL SELECT 3, 'purchase', (SELECT count(*) FROM s3)
"""


def q_irate(sf_dir):
    """★-checked PromQL irate (stages/tsmath.py): instantaneous rate
    from the last two samples per series, reset-aware; single-point
    series emit NaN (SQL NULL).  Pure selection + one exact-int delta,
    so the row_number oracle is bit-identical."""
    from ..stages.tsmath import irate

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )
    out = irate(ev).to_pandas()
    out = round6(out, cols=["irate_per_sec"])
    return out.sort_values("user_id").reset_index(drop=True)


IRATE_SQL = """
WITH o AS (
  SELECT user_id, ts, event_id,
         CAST(round(value * 100) AS BIGINT) AS k,
         epoch_us(ts) AS tus,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
),
l AS (SELECT user_id, ts AS last_ts, k, tus FROM o WHERE rn = 1),
p AS (SELECT user_id, k AS pk, tus AS ptus FROM o WHERE rn = 2)
SELECT l.user_id, l.last_ts,
       round(CASE WHEN p.user_id IS NULL OR l.tus <= p.ptus THEN NULL
             ELSE (CASE WHEN l.k >= p.pk THEN l.k - p.pk ELSE l.k END)
                  / 100.0 / ((l.tus - p.ptus) / 1000000.0)
             END, 6) AS irate_per_sec
FROM l LEFT JOIN p USING (user_id)
"""


def q_ewma(sf_dir):
    """★-checked EWMA smoothing level per series (stages/tsmath.py,
    α=0.3).  The kernel's closed form y_n = Σ wⱼxⱼ (wⱼ =
    α(1−α)^(n−1−j), w₀ without the α factor) is mirrored verbatim in
    SQL via power(); the residual is summation-order +
    libm-vs-numpy-pow ulps at ~1e-13 relative, far below the shared
    round6 granularity (same argument as features_stats' skew).
    NaN-in-series propagates: SQL emits NULL when the group has any
    NULL value, the engine's weighted sum turns NaN."""
    from ..stages.tsmath import ewma_last

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "value"]
    )
    out = ewma_last(ev, alpha=0.3).to_pandas()
    out = round6(out, cols=["ewma"])
    return out.sort_values("user_id").reset_index(drop=True)


EWMA_SQL = """
WITH o AS (
  SELECT user_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events
)
SELECT user_id,
       CASE WHEN count(*) FILTER (WHERE value IS NULL) > 0 THEN NULL
            ELSE round(sum((CASE WHEN rn = 1 THEN power(0.7, n - 1)
                            ELSE 0.3 * power(0.7, n - rn) END) * value), 6)
       END AS ewma,
       CAST(max(n) AS BIGINT) AS n
FROM o GROUP BY user_id
"""


def q_daily_active(sf_dir):
    """★-checked exact distinct-users-per-day (stages/analytics.py):
    blocks reduce to distinct (bucket, user) cells before the one
    bucket-keyed exchange — traffic bounded by buckets × keys."""
    from ..stages.analytics import distinct_per_window

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = distinct_per_window(ev, bucket_s=86400).to_pandas()
    return out.sort_values("bucket_us").reset_index(drop=True)


DAILY_ACTIVE_SQL = """
SELECT (epoch_us(ts) // 86400000000) * 86400000000 AS bucket_us,
       count(DISTINCT user_id) AS n_users
FROM events
GROUP BY (epoch_us(ts) // 86400000000) * 86400000000
"""


def q_value_percent_rank(sf_dir):
    """★-checked tie-aware percent rank within each user's value
    distribution (stages/analytics.py) — SQL percent_rank()
    semantics, (min-rank − 1)/(n − 1) mirrored as one double
    division."""
    from ..stages.analytics import percent_rank_in_group

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"]
    )
    out = percent_rank_in_group(ev).to_pandas()
    out = round6(out, cols=["pr"])
    return (out.sort_values(["user_id", "event_id"])
            .reset_index(drop=True))


PERCENT_RANK_SQL = """
SELECT user_id, event_id, value,
       round(percent_rank() OVER (PARTITION BY user_id ORDER BY value), 6)
         AS pr
FROM events
"""


def q_global_topn(sf_dir):
    """★-checked global total-order top-N (Ray-native distributed
    sort → limit): the 100 highest-value events with deterministic
    (value DESC, event_id ASC) tie-break — the one operator family
    (global sort) the engine otherwise never needs, exercised through
    Ray Data's own range-partitioned sort rather than a bespoke
    kernel."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    # sort by (value desc, event_id asc): Ray's multi-key sort takes
    # one descending flag list
    top = ev.sort(["value", "event_id"], descending=[True, False]).limit(100)
    return top.to_pandas().reset_index(drop=True)


GLOBAL_TOPN_SQL = """
SELECT event_id, user_id, value
FROM events
ORDER BY value DESC, event_id
LIMIT 100
"""


def q_anti_join_cold(sf_dir):
    """★-checked broadcast anti-join (stages/joins.py): events of
    users NOT in the hot set (≥70 events — the exact complement of
    ``bloom_semi_join``).  The exact sorted key array broadcasts once
    via ray.put; membership is searchsorted — no shuffle.  A Bloom
    filter can't serve here: anti-join needs proof of
    NON-membership."""
    from ..stages.joins import broadcast_anti_join

    hot = _hot_user_keys(sf_dir)
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id"]
    )
    out = broadcast_anti_join(ev, hot).to_pandas()
    if out.empty:  # an empty Dataset loses its schema through to_pandas
        out = pd.DataFrame({"event_id": np.array([], np.int64),
                            "user_id": np.array([], np.int64)})
    return out.sort_values("event_id").reset_index(drop=True)


ANTI_JOIN_SQL = """
WITH hot AS (
  SELECT user_id FROM events GROUP BY user_id HAVING count(*) >= 70
)
SELECT e.event_id, e.user_id
FROM events e ANTI JOIN hot USING (user_id)
"""


def q_user_profile(sf_dir):
    """★-checked per-key lifecycle profile (stages/analytics.py):
    count, first/last ts, first/last event_type by (ts, event_id),
    active span in whole seconds — pure selection + int µs division,
    bit-exact vs ordered first/last aggregates."""
    from ..stages.analytics import group_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    out = group_profile(ev).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


USER_PROFILE_SQL = """
SELECT user_id, count(*) AS n,
       min(ts) AS first_ts, max(ts) AS last_ts,
       first(event_type ORDER BY ts, event_id) AS first_event_type,
       last(event_type ORDER BY ts, event_id) AS last_event_type,
       (epoch_us(max(ts)) - epoch_us(min(ts))) // 1000000 AS span_s
FROM events GROUP BY user_id
"""


def q_value_histogram(sf_dir):
    """★-checked per-group value histogram (stages/sketch.py): exact
    counts in 50 clamped bins over [0, 500) per event_type — map-side
    partial combine, the exchange carries groups × bins cells."""
    from ..stages.sketch import grouped_histogram

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    out = grouped_histogram(ev, lo=0.0, hi=500.0, n_bins=50)
    return out.reset_index(drop=True)


VALUE_HIST_SQL = """
WITH b AS (
  SELECT event_type,
         LEAST(GREATEST(CAST(floor(value / 10.0) AS BIGINT), 0), 49) AS bin
  FROM events WHERE value IS NOT NULL
)
SELECT event_type, bin, bin * 10.0 AS lo_edge, count(*) AS n
FROM b GROUP BY event_type, bin
"""


def q_tokenize_vocab(sf_dir):
    """★-checked vocabulary tokenization (stages/pack.py): documents
    split to (doc, 1-based position, token, token_id) against the
    exact global top-100 vocabulary (count desc, token asc; ids are
    the rank); out-of-vocab tokens get null ids.  Split semantics =
    SQL string_split (empties kept)."""
    from ..stages.pack import tokenize_with_vocab

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = tokenize_with_vocab(docs, vocab_size=100).to_pandas()
    return (out.sort_values(["doc_id", "pos"])
            .reset_index(drop=True))


TOKENIZE_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS token,
         generate_subscripts(string_split(text, ' '), 1) AS pos
  FROM documents
),
cnt AS (SELECT token, count(*) AS c FROM tok GROUP BY token),
vocab AS (
  SELECT token, row_number() OVER (ORDER BY c DESC, token) AS token_id
  FROM cnt ORDER BY c DESC, token LIMIT 100
)
SELECT t.doc_id, t.pos, t.token, v.token_id
FROM tok t LEFT JOIN vocab v USING (token)
"""


def q_rolling_avg(sf_dir):
    """★-checked ROWS-window moving average (stages/window.py): count
    and mean of non-null values among the last 5 rows per user ordered
    by (ts, event_id) — SQL ROWS BETWEEN 4 PRECEDING AND CURRENT ROW.
    One exchange; int64 prefix-sum kernel per partition."""
    from ..stages.window import rolling_rows_avg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    out = rolling_rows_avg(ev, n=5).to_pandas()
    return (out.sort_values(["user_id", "event_id"])
            .reset_index(drop=True))


ROLLING_SQL = """
SELECT user_id, event_id,
       count(value) OVER w AS roll_cnt,
       CAST(sum(CAST(round(value*100) AS BIGINT)) OVER w AS DOUBLE)
         / 100.0 / count(value) OVER w AS roll_avg
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
"""


def q_mode_event(sf_dir):
    """★-checked exact per-user modal event type (stages/analytics.py)
    — map-side cell counts, exchange carries cells not rows; ties go
    to the lexicographically smallest type (row_number oracle)."""
    from ..stages.analytics import group_mode

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    out = group_mode(ev).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


MODE_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n
  FROM events GROUP BY user_id, event_type
), r AS (
  SELECT user_id, event_type, n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY n DESC, event_type) AS rk
  FROM c
)
SELECT user_id, event_type AS mode_event_type, n FROM r WHERE rk = 1
"""


def q_topk_per_user(sf_dir):
    """★-checked exact top-3 events by value per user
    (stages/heavy.py): map-side partial top-k prunes blocks to ≤k rows
    per key before the exchange; ties by event_id; nulls excluded."""
    from ..stages.heavy import topk_per_group

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value"],
    )
    out = topk_per_group(ev, k=3).to_pandas()
    return (out[["user_id", "rk", "event_id", "value"]]
            .sort_values(["user_id", "rk"]).reset_index(drop=True))


TOPK_GROUP_SQL = """
WITH r AS (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY value DESC, event_id) AS rk
  FROM events WHERE value IS NOT NULL
)
SELECT user_id, rk, event_id, value FROM r WHERE rk <= 3
"""


def q_grouping_sets(sf_dir):
    """★-checked GROUPING SETS rollup (stages/analytics.py): count +
    exact sum at (event_type, day), (event_type), (day) and grand
    total from ONE input pass over finest-grain int64 cell partials;
    rolled-up dims are NULL, SQL-style."""
    from ..stages.analytics import grouping_sets_rollup

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    return grouping_sets_rollup(ev)


GROUPING_SETS_SQL = """
SELECT event_type,
       (epoch_us(ts) // 86400000000) * 86400000000 AS bucket_us,
       count(*) AS n,
       CAST(sum(CAST(round(value*100) AS BIGINT)) AS DOUBLE)/100.0
         AS sum_value
FROM events
GROUP BY GROUPING SETS ((event_type, bucket_us), (event_type),
                        (bucket_us), ())
"""


def q_cooccurrence(sf_dir):
    """★-checked event-type co-occurrence matrix
    (stages/analytics.py): per unordered type pair, how many users
    exhibit both.  Distinct (user, type) cells → one exchange →
    per-partition self-merge → |alphabet|²-bounded combine."""
    from ..stages.analytics import cooccurrence_pairs

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return cooccurrence_pairs(ev)


COOCCUR_SQL = """
WITH c AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       count(*) AS n_keys
FROM c a JOIN c b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY a.event_type, b.event_type
"""


def q_transitions(sf_dir):
    """★-checked Markov transition counts (stages/analytics.py):
    per ordered pair of consecutive event types within each user's
    (ts, event_id)-sorted stream — SQL lead() oracle."""
    from ..stages.analytics import transition_matrix

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    return transition_matrix(ev)


TRANSITIONS_SQL = """
WITH s AS (
  SELECT event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT event_type AS type_from, nxt AS type_to, count(*) AS n
FROM s WHERE nxt IS NOT NULL
GROUP BY 1, 2
"""


def q_user_growth(sf_dir):
    """★-checked growth accounting (stages/analytics.py): per day the
    number of first-seen users and the cumulative running total —
    min-day cells through one exchange, window-sum oracle."""
    from ..stages.analytics import user_growth

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return user_growth(ev)


USER_GROWTH_SQL = """
WITH f AS (
  SELECT user_id,
         min((epoch_us(ts) // 86400000000) * 86400000000) AS bucket_us
  FROM events GROUP BY 1
),
d AS (SELECT bucket_us, count(*) AS new_users FROM f GROUP BY 1)
SELECT bucket_us, new_users,
       CAST(sum(new_users) OVER (ORDER BY bucket_us) AS BIGINT) AS cum_users
FROM d
"""


def q_gap_report(sf_dir):
    """★-checked silence-gap detection (stages/window.py): consecutive
    same-user event pairs more than 2 h apart, with exact int64-µs gap
    width — lead() oracle; the inverse view of gapfill."""
    from ..stages.window import gap_report

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )
    out = gap_report(ev, gap_us_threshold=7_200_000_000).to_pandas()
    return (out.sort_values(["user_id", "gap_start"])
            .reset_index(drop=True))


GAP_REPORT_SQL = """
WITH s AS (
  SELECT user_id, ts,
         lead(ts) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT user_id, ts AS gap_start, nxt AS gap_end,
       epoch_us(nxt) - epoch_us(ts) AS gap_us
FROM s
WHERE nxt IS NOT NULL AND epoch_us(nxt) - epoch_us(ts) > 7200000000
"""


def q_interarrival(sf_dir):
    """★-checked per-type inter-arrival quantiles (stages/tsmath.py):
    count + exact p50/p99 of the µs delta between consecutive
    same-type events within each user's stream; duck_quantile lerp is
    bit-equal to DuckDB quantile_cont."""
    from ..stages.tsmath import interarrival_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    out = interarrival_quantiles(ev).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


INTERARRIVAL_SQL = """
WITH s AS (
  SELECT event_type, epoch_us(ts) AS t,
         lead(epoch_us(ts)) OVER (PARTITION BY user_id, event_type
                                  ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT event_type, count(*) AS n_gaps,
       round(quantile_cont(CAST(nxt - t AS DOUBLE), 0.5), 6) AS p50_us,
       round(quantile_cont(CAST(nxt - t AS DOUBLE), 0.99), 6) AS p99_us
FROM s WHERE nxt IS NOT NULL
GROUP BY 1
"""


def q_shipping_priority(sf_dir):
    """★-checked TPC-H-Q3-style 3-way join (customer ⋈ orders ⋈
    lineitem): top-10 pre-cutoff orders of BUILDING-segment customers
    by post-cutoff shipped revenue.  The 100-TB plan: lineitem is
    filter-pruned at the read and PRE-AGGREGATED to per-orderkey
    exact-int revenue cells (map-side combine) BEFORE any join;
    the segment-filtered customer key set is broadcast (`ray.put`)
    and orders are semi-join-filtered map-side; the one hash join
    therefore carries cells × qualifying orders, never raw lineitem;
    the final top-10 is per-block partial top-k → driver merge.
    Revenue = Σ price_cents·(100−disc_pct) / 10⁴, exact int64."""
    cutoff = np.datetime64("1998-06-01T00:00:00", "us")

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        lambda df: df[df["c_mktsegment"] == "BUILDING"][["c_custkey"]],
        batch_format="pandas",
    ).to_pandas()
    ckeys = ray.put(np.unique(cust["c_custkey"].to_numpy(np.int64)))

    def li_cells(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"].to_numpy("datetime64[us]") > cutoff]
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64) * 100.0
                    ).astype(np.int64)
        d = np.rint(df["l_discount"].to_numpy(np.float64) * 100.0
                    ).astype(np.int64)
        g = pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                          "_rev": p * (100 - d)})
        return g.groupby("l_orderkey", as_index=False).sum()

    cells = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(li_cells, batch_format="pandas")

    def orders_filter(df: pd.DataFrame) -> pd.DataFrame:
        keep = (df["o_orderdate"].to_numpy("datetime64[us]") < cutoff) & \
            np.isin(df["o_custkey"].to_numpy(np.int64), ray.get(ckeys))
        out = df.loc[keep, ["o_orderkey", "o_orderdate",
                            "o_orderpriority"]]
        # join key named here (Dataset.rename_columns' Project operator
        # rejects pandas blocks on Ray 2.49)
        return out.rename(columns={"o_orderkey": "l_orderkey"})

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(orders_filter, batch_format="pandas")

    # combine lineitem cells to one row per orderkey, then hash join
    rev = group_apply(
        cells,
        lambda df: df.groupby("l_orderkey", as_index=False)["_rev"].sum(),
        key="l_orderkey")
    joined = rev.join(ords, "inner", num_partitions=partition_count(),
                      on=("l_orderkey",))

    def partial_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["_rev", "o_orderdate", "l_orderkey"],
                              ascending=[False, True, True],
                              kind="mergesort").head(10)

    top = (joined.map_batches(partial_top, batch_format="pandas")
           .to_pandas()
           .sort_values(["_rev", "o_orderdate", "l_orderkey"],
                        ascending=[False, True, True], kind="mergesort")
           .head(10).reset_index(drop=True))
    out = pd.DataFrame({
        "l_orderkey": top["l_orderkey"].astype(np.int64),
        "revenue": top["_rev"].to_numpy(np.float64) / 10000.0,
        "o_orderdate": top["o_orderdate"].astype("datetime64[us]"),
        "o_orderpriority": top["o_orderpriority"],
    })
    return round6(out)


SHIPPING_SQL = """
SELECT l_orderkey,
       round(CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
                      * (100 - CAST(round(l_discount*100) AS BIGINT)))
                  AS DOUBLE) / 10000.0, 6) AS revenue,
       o_orderdate, o_orderpriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < TIMESTAMP '1998-06-01'
  AND l_shipdate > TIMESTAMP '1998-06-01'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue DESC, o_orderdate, l_orderkey
LIMIT 10
"""


def q_dataset_diff(sf_dir):
    """★-checked dataset diff / anti-entropy (stages/diff.py): version
    B of the events table drops every event_id % 101 == 0 row
    (→ only_a), perturbs every % 97 == 0 value (→ mismatch), and
    appends shifted copies of % 103 == 0 rows (→ only_b); the diff
    emits exactly the divergent keys.  FULL-OUTER-JOIN oracle; output
    is drift-sized, never data-sized."""
    from ..stages.diff import dataset_diff

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )

    def make_b(df: pd.DataFrame) -> pd.DataFrame:
        eid = df["event_id"].to_numpy(np.int64)
        v = df["value"].to_numpy(np.float64).copy()
        v[eid % 97 == 0] += 1.0
        keep = eid % 101 != 0
        base = pd.DataFrame({"event_id": eid[keep], "value": v[keep]})
        extra_m = eid % 103 == 0
        extra = pd.DataFrame({"event_id": eid[extra_m] + 10_000_000,
                              "value": df["value"].to_numpy()[extra_m]})
        return pd.concat([base, extra], ignore_index=True)

    b = ev.map_batches(make_b, batch_format="pandas")
    out = dataset_diff(ev, b, key="event_id", vals=["value"]).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


DATASET_DIFF_SQL = """
WITH a AS (SELECT event_id, value FROM events),
b AS (
  SELECT event_id,
         CASE WHEN event_id % 97 = 0 THEN value + 1.0 ELSE value END
           AS value
  FROM events WHERE event_id % 101 <> 0
  UNION ALL
  SELECT event_id + 10000000, value FROM events WHERE event_id % 103 = 0
)
SELECT COALESCE(a.event_id, b.event_id) AS event_id,
       CASE WHEN b.event_id IS NULL THEN 'only_a'
            WHEN a.event_id IS NULL THEN 'only_b'
            ELSE 'mismatch' END AS status
FROM a FULL OUTER JOIN b ON a.event_id = b.event_id
WHERE a.event_id IS NULL OR b.event_id IS NULL
   OR a.value IS DISTINCT FROM b.value
"""


def _value_kspace(df: pd.DataFrame) -> pd.DataFrame:
    """NaN-dropped cents projection of events.value with a single
    global group — the shared rank-selection input for the decile and
    global-quantile queries (one definition so their k-space policies
    cannot drift apart)."""
    v = df["value"].to_numpy(np.float64)
    v = v[~np.isnan(v)]
    return pd.DataFrame({
        "g": np.zeros(len(v), np.int64),
        "k": np.rint(v * 100.0).astype(np.int64),
    })


def q_decile_stats(sf_dir):
    """★-checked exact global decile bucketing: the 9 exact decile
    edges come from distributed rank selection
    (stages/selection.py, 100×-int space), every row is then assigned
    bucket = 1 + Σ(v > edge) in one map pass, and per-bucket
    count/min/max reduce map-side.  SQL mirror computes the identical
    quantile_cont edges and indicator sum."""
    from ..stages.selection import grouped_rank_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"]
    )


    d = ev.map_batches(_value_kspace, batch_format="pandas").materialize()
    ps = tuple(i / 10 for i in range(1, 10))
    edges = grouped_rank_quantiles(d, "g", "k", ps=ps)
    evec = np.array([float(edges[f"q_{i}"].iloc[0])
                     for i in range(9)], np.float64)
    eref = ray.put(evec)

    def bucket_cells(df: pd.DataFrame) -> pd.DataFrame:
        e = ray.get(eref)
        k = df["k"].to_numpy(np.int64)
        b = np.searchsorted(e, k.astype(np.float64), side="left") + 1
        g = pd.DataFrame({"bucket": b.astype(np.int64), "k": k})
        return g.groupby("bucket", as_index=False).agg(
            _n=("k", "size"), _lo=("k", "min"), _hi=("k", "max"))

    parts = d.map_batches(bucket_cells, batch_format="pandas").to_pandas()
    agg = parts.groupby("bucket", as_index=False).agg(
        n=("_n", "sum"), lo=("_lo", "min"), hi=("_hi", "max"))
    return round6(pd.DataFrame({
        "bucket": agg["bucket"].astype(np.int64),
        "n": agg["n"].astype(np.int64),
        "min_value": agg["lo"].to_numpy(np.float64) / 100.0,
        "max_value": agg["hi"].to_numpy(np.float64) / 100.0,
    }).sort_values("bucket").reset_index(drop=True))


DECILE_SQL = """
WITH k AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS kv
  FROM events WHERE value IS NOT NULL
),
e AS (
  SELECT quantile_cont(CAST(kv AS DOUBLE), 0.1) AS e1,
         quantile_cont(CAST(kv AS DOUBLE), 0.2) AS e2,
         quantile_cont(CAST(kv AS DOUBLE), 0.3) AS e3,
         quantile_cont(CAST(kv AS DOUBLE), 0.4) AS e4,
         quantile_cont(CAST(kv AS DOUBLE), 0.5) AS e5,
         quantile_cont(CAST(kv AS DOUBLE), 0.6) AS e6,
         quantile_cont(CAST(kv AS DOUBLE), 0.7) AS e7,
         quantile_cont(CAST(kv AS DOUBLE), 0.8) AS e8,
         quantile_cont(CAST(kv AS DOUBLE), 0.9) AS e9
  FROM k
),
assigned AS (
  SELECT kv,
         1 + CAST(kv > e.e1 AS INT) + CAST(kv > e.e2 AS INT)
           + CAST(kv > e.e3 AS INT) + CAST(kv > e.e4 AS INT)
           + CAST(kv > e.e5 AS INT) + CAST(kv > e.e6 AS INT)
           + CAST(kv > e.e7 AS INT) + CAST(kv > e.e8 AS INT)
           + CAST(kv > e.e9 AS INT) AS bucket
  FROM k, e
)
SELECT bucket, count(*) AS n,
       round(min(kv) / 100.0, 6) AS min_value,
       round(max(kv) / 100.0, 6) AS max_value
FROM assigned GROUP BY bucket
"""


def q_edit1_pairs(sf_dir):
    """★-checked edit-distance-≤1 similarity join (stages/dedup.py):
    document pairs whose 16-char text prefix is equal or one edit
    apart, via SymSpell deletion-neighborhood blocking (recall 1) +
    exact verification.  Full O(n²) levenshtein self-join oracle, so
    a hash match proves precision = recall = 1 on this corpus."""
    from ..stages.dedup import edit1_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return edit1_pairs(docs, prefix_len=16)


EDIT1_SQL = """
WITH k AS (SELECT doc_id, substring(text, 1, 16) AS s FROM documents)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
FROM k a JOIN k b ON a.doc_id < b.doc_id
WHERE levenshtein(a.s, b.s) <= 1
"""


def q_sliding_dau(sf_dir):
    """★-checked sliding-window distinct count (stages/window.py):
    trailing-24h distinct users evaluated at every hour present —
    per-user coverage intervals → ±1 difference-array cells → one
    cumsum; the exchange carries activity-run endpoints, never
    events.  Range-join COUNT(DISTINCT) oracle."""
    from ..stages.window import sliding_distinct

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = sliding_distinct(ev, window_h=24)
    return out.sort_values("bucket_us").reset_index(drop=True)


SLIDING_DAU_SQL = """
WITH hrs AS (
  SELECT DISTINCT epoch_us(ts) // 3600000000 AS hb FROM events
),
ev AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 3600000000 AS eh FROM events
)
SELECT hb * 3600000000 AS bucket_us,
       count(DISTINCT user_id) AS n_users
FROM hrs JOIN ev ON ev.eh BETWEEN hrs.hb - 23 AND hrs.hb
GROUP BY 1
"""


def q_session_stats(sf_dir):
    """★-checked per-user session statistics composed on the
    sessionizer kernel (stages/window.py::sessionize_pandas): session
    count, total events, mean session duration (µs) and longest
    session.  ONE exchange: sessionization AND the user-level reduce
    run inside the same group_apply UDF (a user's rows are whole
    within the partition by construction), so only user-level rows
    ever leave a task — never per-session intermediates."""
    from ..stages.window import sessionize_pandas

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        sess = sessionize_pandas(df, gap_s=1800)
        g = sess.groupby("user_id", as_index=False).agg(
            n_sessions=("session_idx", "size"),
            n_events=("n_events", "sum"),
            _tot=("duration_us", "sum"),
            max_dur_us=("duration_us", "max"))
        return pd.DataFrame({
            "user_id": g["user_id"].astype(np.int64),
            "n_sessions": g["n_sessions"].astype(np.int64),
            "n_events": g["n_events"].astype(np.int64),
            "mean_dur_us": (g["_tot"].to_numpy(np.float64)
                            / g["n_sessions"].to_numpy(np.float64)),
            "max_dur_us": g["max_dur_us"].astype(np.int64),
        })

    out = group_apply(ev, fn, key="user_id").to_pandas()
    return round6(out.sort_values("user_id").reset_index(drop=True))


SESSION_STATS_SQL = """
WITH g AS (
  SELECT user_id, ts, event_id,
    CASE WHEN lag(ts) OVER w IS NULL
         OR date_diff('microsecond', lag(ts) OVER w, ts) > 1800000000
         THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (
  SELECT user_id, ts,
    CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_idx
  FROM g),
per AS (
  SELECT user_id, session_idx, count(*) AS n_events,
         date_diff('microsecond', min(ts), max(ts)) AS duration_us
  FROM s GROUP BY 1, 2)
SELECT user_id, count(*) AS n_sessions,
       CAST(sum(n_events) AS BIGINT) AS n_events,
       round(CAST(sum(duration_us) AS DOUBLE) / count(*), 6)
         AS mean_dur_us,
       max(duration_us) AS max_dur_us
FROM per GROUP BY 1
"""


def q_table_profile(sf_dir):
    """★-checked ANALYZE-style column profiler (stages/analytics.py::
    profile_columns): per column of events — row count, null count,
    EXACT distinct count, numeric/time min-max.  Counts and extrema
    are map-side cells (no shuffle); the exact distinct runs one
    distinct-cell exchange per column.  Per-column UNION oracle."""
    from ..stages.analytics import profile_columns

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value", "ts"])
    return profile_columns(ev, {"user_id": "num", "event_type": "str",
                                "value": "num", "ts": "time"})


TABLE_PROFILE_SQL = """
SELECT 'event_type' AS col_name, count(*) AS n,
       count(*) - count(event_type) AS n_null,
       count(DISTINCT event_type) AS n_distinct,
       CAST(NULL AS DOUBLE) AS min_v, CAST(NULL AS DOUBLE) AS max_v
FROM events
UNION ALL
SELECT 'ts', count(*), count(*) - count(ts), count(DISTINCT ts),
       CAST(min(epoch_us(ts)) AS DOUBLE), CAST(max(epoch_us(ts)) AS DOUBLE)
FROM events
UNION ALL
SELECT 'user_id', count(*), count(*) - count(user_id),
       count(DISTINCT user_id),
       CAST(min(user_id) AS DOUBLE), CAST(max(user_id) AS DOUBLE)
FROM events
UNION ALL
SELECT 'value', count(*), count(*) - count(value),
       count(DISTINCT value),
       min(value), max(value)
FROM events
"""


def q_lateness(sf_dir):
    """★-checked out-of-order arrival report (stages/analytics.py::
    lateness_report): per user, events replayed in event_id (arrival)
    order, flagged when event time falls strictly below the running
    event-time max — the watermark-sizing diagnostic for streaming
    ingest.  Conditional-window-max oracle; counts exact int64, the
    fraction a mirrored round-6 division."""
    from ..stages.analytics import lateness_report

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])
    return round6(lateness_report(ev))


LATENESS_SQL = """
WITH o AS (
  SELECT user_id, epoch_us(ts) AS t,
         max(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY event_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS mx
  FROM events
),
f AS (
  SELECT user_id,
         CASE WHEN mx IS NOT NULL AND t < mx THEN 1 ELSE 0 END AS late,
         CASE WHEN mx IS NOT NULL AND t < mx THEN mx - t ELSE 0 END
           AS lateness
  FROM o
)
SELECT user_id, count(*) AS n,
       CAST(sum(late) AS BIGINT) AS n_late,
       CAST(max(lateness) AS BIGINT) AS max_late_us,
       round(CAST(sum(late) AS DOUBLE) / count(*), 6) AS frac_late
FROM f GROUP BY 1
"""


def q_interval_join(sf_dir):
    """★-checked LARGE × LARGE partitioned interval join (stages/
    joins.py::interval_join_partitioned): user sessions (gap 1800 s)
    × per-type activity islands (gap 600 s), overlap pairs with exact
    µs — no broadcast side; both interval sets replicate to 6-hour
    time buckets, pairs meet in-bucket, and the overlap-start-bucket
    rule emits each pair exactly once (no post-shuffle distinct).
    Double-islands inequality-join oracle."""
    from ..stages.joins import interval_join_partitioned
    from ..stages.window import sessionize

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"])

    def to_iv(idx_name):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({
                df.columns[0]: df.iloc[:, 0].to_numpy(),
                idx_name: df["session_idx"].astype(np.int64),
                "s_us": df["session_start"].to_numpy("datetime64[us]")
                          .astype(np.int64),
                "e_us": df["session_end"].to_numpy("datetime64[us]")
                          .astype(np.int64),
            })
            return out
        return fn

    left = sessionize(ev, by="user_id", gap_s=1800) \
        .map_batches(to_iv("session_idx"), batch_format="pandas")
    right = sessionize(ev, by="event_type", gap_s=600) \
        .map_batches(to_iv("island_idx"), batch_format="pandas")
    out = interval_join_partitioned(
        left, right, bucket_s=21600,
        left_cols=("user_id", "session_idx"),
        right_cols=("event_type", "island_idx"),
    ).to_pandas()
    res = pd.DataFrame({
        "user_id": out["l_user_id"].astype(np.int64),
        "session_idx": out["l_session_idx"].astype(np.int64),
        "event_type": out["r_event_type"].to_numpy(),
        "island_idx": out["r_island_idx"].astype(np.int64),
        "s_start_us": out["l_s_us"].astype(np.int64),
        "i_start_us": out["r_s_us"].astype(np.int64),
        "overlap_us": out["overlap_us"].astype(np.int64),
    })
    return (res.sort_values(["user_id", "session_idx", "event_type",
                             "island_idx"]).reset_index(drop=True))


INTERVAL_JOIN_SQL = """
WITH gl AS (
  SELECT user_id, ts, event_id,
    CASE WHEN lag(ts) OVER w IS NULL
         OR date_diff('microsecond', lag(ts) OVER w, ts) > 1800000000
         THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
sl AS (
  SELECT user_id,
    CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS BIGINT)
      AS session_idx, ts
  FROM gl),
pl AS (
  SELECT user_id, session_idx,
         min(epoch_us(ts)) AS s_start_us, max(epoch_us(ts)) AS s_end_us
  FROM sl GROUP BY 1, 2),
gr AS (
  SELECT event_type, ts, event_id,
    CASE WHEN lag(ts) OVER w IS NULL
         OR date_diff('microsecond', lag(ts) OVER w, ts) > 600000000
         THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY event_type ORDER BY ts, event_id)),
sr AS (
  SELECT event_type,
    CAST(sum(brk) OVER (PARTITION BY event_type ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS BIGINT)
      AS island_idx, ts
  FROM gr),
pr AS (
  SELECT event_type, island_idx,
         min(epoch_us(ts)) AS i_start_us, max(epoch_us(ts)) AS i_end_us
  FROM sr GROUP BY 1, 2)
SELECT pl.user_id, pl.session_idx, pr.event_type, pr.island_idx,
       pl.s_start_us, pr.i_start_us,
       least(pl.s_end_us, pr.i_end_us)
         - greatest(pl.s_start_us, pr.i_start_us) AS overlap_us
FROM pl JOIN pr
  ON pr.i_start_us <= pl.s_end_us AND pr.i_end_us >= pl.s_start_us
"""


def q_canon_dedup(sf_dir):
    """★-checked canonicalized exact dedup (stages/text.py::
    canonicalize_text + the O2 hash-partitioned group): documents that
    collapse to the same casefolded / punctuation-stripped /
    whitespace-normalized form — the curation-grade sibling of
    dedup_exact's byte-identity.  lower→regexp_replace→trim oracle
    (explicit ASCII classes keep re and RE2 byte-identical)."""
    from ..stages.text import canonicalize_text

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "canon": canonicalize_text(df["text"])})

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: null-text docs form one canon=NULL group,
        # matching SQL GROUP BY (pandas would silently drop them)
        return df.groupby("canon", as_index=False, dropna=False).agg(
            keeper_id=("doc_id", "min"), n_copies=("doc_id", "count"))

    out = group_apply(docs.map_batches(canon, batch_format="pandas"),
                      fn, key="canon").to_pandas()
    return out.sort_values("keeper_id").reset_index(drop=True)


CANON_DEDUP_SQL = r"""
WITH c AS (
  SELECT doc_id,
         trim(regexp_replace(regexp_replace(lower(text),
                  '[!-/:-@\[-`{-~]', '', 'g'),
                  '[ \t\n\r\f\v]+', ' ', 'g'), ' ') AS canon
  FROM documents
)
SELECT canon, min(doc_id) AS keeper_id, count(*) AS n_copies
FROM c GROUP BY canon
"""


def q_weighted_quantiles(sf_dir):
    """★-checked duration-weighted quantiles (stages/tsmath.py::
    weighted_value_quantiles): per event type, the value-weighted-by-
    dwell-time p50/p90 — the weighted member of the quantile family
    (exact rollup / rank-selection / sketch are unweighted).  Integer
    selection rule (2·cumw ≥ W), cumulative-window oracle."""
    from ..stages.tsmath import weighted_value_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts", "value"])
    return weighted_value_quantiles(ev)


WEIGHTED_Q_SQL = """
WITH s AS (
  SELECT event_type, value,
         lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id)
           - epoch_us(ts) AS w
  FROM events
),
f AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS y, w
  FROM s WHERE w IS NOT NULL AND value IS NOT NULL
),
g AS (
  SELECT event_type, y, sum(w) AS wy, count(*) AS cy
  FROM f GROUP BY 1, 2
),
c AS (
  SELECT event_type, y, wy,
         sum(wy) OVER (PARTITION BY event_type ORDER BY y) AS cw,
         sum(wy) OVER (PARTITION BY event_type) AS tw,
         sum(cy) OVER (PARTITION BY event_type) AS n
  FROM g
)
SELECT event_type,
       CAST(max(n) AS BIGINT) AS n,
       CAST(max(tw) AS BIGINT) AS total_w_us,
       CAST(min(CASE WHEN 2 * cw >= tw THEN y END) AS DOUBLE) / 100.0
         AS w_p50,
       CAST(min(CASE WHEN 10 * cw >= 9 * tw THEN y END) AS DOUBLE) / 100.0
         AS w_p90
FROM c GROUP BY 1
"""


def q_linear_trend(sf_dir):
    """★-checked per-key OLS trend (stages/tsmath.py::
    linear_trend_per_key) — cesium's linear_trend feature as a
    standalone rollup.  Moment sums are exact int64 (whole-second x
    offsets × value cents); only the two closing expressions are
    float, mirrored verbatim in SQL."""
    from ..stages.tsmath import linear_trend_per_key

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    return round6(linear_trend_per_key(ev))


LINEAR_TREND_SQL = """
WITH b AS (
  SELECT user_id,
         (epoch_us(ts) - min(epoch_us(ts))
              OVER (PARTITION BY user_id)) // 1000000 AS x,
         CASE WHEN value IS NULL THEN NULL
              ELSE CAST(round(value * 100) AS BIGINT) END AS y
  FROM events
),
a AS (
  SELECT user_id, count(*) AS n,
         count(*) FILTER (WHERE y IS NULL) AS nn,
         sum(x) AS sx, sum(COALESCE(y, 0)) AS sy,
         sum(x * COALESCE(y, 0)) AS sxy, sum(x * x) AS sxx
  FROM b GROUP BY 1
)
SELECT user_id, n,
  round(CASE WHEN nn > 0 OR n * sxx - sx * sx = 0 THEN NULL
        ELSE (CAST(n * sxy - sx * sy AS DOUBLE)
              / CAST(n * sxx - sx * sx AS DOUBLE)) / 100.0 END, 6)
    AS slope_per_s,
  round(CASE WHEN nn > 0 OR n * sxx - sx * sx = 0 THEN NULL
        ELSE (CAST(sy AS DOUBLE)
              - (CAST(n * sxy - sx * sy AS DOUBLE)
                 / CAST(n * sxx - sx * sx AS DOUBLE))
                * CAST(sx AS DOUBLE))
             / (CAST(n AS DOUBLE) * 100.0) END, 6) AS intercept
FROM a
"""


def q_lttb(sf_dir):
    """★-checked LTTB downsampling (stages/tsmath.py::lttb_downsample,
    n_out=10) — the shape-preserving visualization reducer, driver-
    verified against a per-key RECURSIVE-CTE oracle that walks buckets
    exactly like the kernel.  Bit-exactness: integer inputs (µs
    offsets, cents), count-scaled triangle score
    |(xm−xs)(SY−c·ys) − (SX−c·xs)(ym−ys)| where every operand is an
    integer-valued double and each IEEE op rounds identically in
    numpy and DuckDB; ties break to the smallest rn on both sides."""
    from ..stages.tsmath import lttb_downsample

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"])
    return lttb_downsample(ev, n_out=10)


LTTB_SQL = """
WITH RECURSIVE
base AS (
  SELECT user_id,
         epoch_us(ts) - min(epoch_us(ts))
             OVER (PARTITION BY user_id) AS x,
         CAST(round(value * 100) AS BIGINT) AS y,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) - 1 AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events WHERE value IS NOT NULL
),
small AS (SELECT user_id, rn, x, y FROM base WHERE n <= 10),
big AS (SELECT * FROM base WHERE n > 10),
mid AS (
  SELECT user_id, rn, x, y, (rn * 8 - 1) // (n - 2) AS b
  FROM big WHERE rn >= 1 AND rn <= n - 2
),
avgs AS (
  SELECT user_id, b, CAST(sum(x) AS DOUBLE) AS sx,
         CAST(sum(y) AS DOUBLE) AS sy, CAST(count(*) AS DOUBLE) AS c
  FROM mid GROUP BY 1, 2
),
lastpt AS (SELECT user_id, rn, x, y FROM big WHERE rn = n - 1),
sel AS (
  SELECT user_id, -1 AS b, rn, x, y FROM big WHERE rn = 0
  UNION ALL
  (
   WITH cand AS (
    SELECT m.user_id, m.b, m.rn, m.x, m.y,
           abs(CAST(m.x - s.x AS DOUBLE)
                 * (COALESCE(a.sy, CAST(lp.y AS DOUBLE))
                    - COALESCE(a.c, 1.0) * s.y)
             - (COALESCE(a.sx, CAST(lp.x AS DOUBLE))
                    - COALESCE(a.c, 1.0) * s.x)
                 * CAST(m.y - s.y AS DOUBLE)) AS area
    FROM sel s
    JOIN mid m ON m.user_id = s.user_id AND m.b = s.b + 1
    LEFT JOIN avgs a ON a.user_id = m.user_id AND a.b = m.b + 1
    JOIN lastpt lp ON lp.user_id = m.user_id
   )
   SELECT user_id, b, rn, x, y FROM cand
   QUALIFY row_number() OVER (PARTITION BY user_id, b
                              ORDER BY area DESC, rn) = 1
  )
)
SELECT user_id, rn, x AS x_us, y AS k FROM small
UNION ALL SELECT user_id, rn, x AS x_us, y AS k FROM sel
UNION ALL SELECT user_id, rn, x AS x_us, y AS k FROM lastpt
"""


def q_seq_pattern(sf_dir):
    """★-checked sequence-pattern mining (stages/analytics.py::
    sequence_pattern_count): per user, count of non-overlapping
    'e[cv]*p' motifs (an error, any clicks/views, then a purchase) in
    the first-letter encoding of the ordered event-type stream —
    behavioral shapes funnels (subsequence) and transitions (bigrams)
    cannot express.  string_agg + regexp_extract_all oracle; the
    pattern is backtrack-free so Python-re and RE2 agree on spans."""
    from ..stages.analytics import sequence_pattern_count

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"])
    return sequence_pattern_count(ev, pattern="e[cv]*p")


SEQ_PATTERN_SQL = """
WITH o AS (
  SELECT user_id, substring(event_type, 1, 1) AS ch,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
),
s AS (
  SELECT user_id, string_agg(ch, '' ORDER BY rn) AS seq
  FROM o GROUP BY 1
)
SELECT user_id, CAST(length(seq) AS BIGINT) AS seq_len,
       CAST(len(regexp_extract_all(seq, 'e[cv]*p')) AS BIGINT)
         AS n_matches
FROM s
"""


def q_cooldown_dedup(sf_dir):
    """★-checked time-conditional duplicate suppression (stages/
    window.py::cooldown_dedup): keep an event iff the same
    (user, event_type) stream fired nothing in the strictly-preceding
    hour — alert-storm dedup, the time-windowed member of the dedup
    family (exact/minhash/simhash/substring/edit1 are content-keyed).
    lag()-gap oracle."""
    from ..stages.window import cooldown_dedup

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"])
    out = cooldown_dedup(ev, cooldown_s=3600).to_pandas()
    return (out.sort_values(["user_id", "event_type", "ts_us", "event_id"])
            .reset_index(drop=True))


COOLDOWN_SQL = """
WITH g AS (
  SELECT user_id, event_id, event_type, epoch_us(ts) AS ts_us,
         CAST(epoch_us(ts) - lag(epoch_us(ts))
              OVER (PARTITION BY user_id, event_type
                    ORDER BY ts, event_id) AS DOUBLE) AS since_prev_us
  FROM events
)
SELECT user_id, event_id, event_type, ts_us, since_prev_us
FROM g WHERE since_prev_us IS NULL OR since_prev_us > 3600000000
"""


def q_daily_share(sf_dir):
    """★-checked percent-of-total enrichment (stages/analytics.py::
    share_of_bucket): each event type's share of its UTC day's total
    events — the window-share class (count / sum over bucket).
    Map-side cell combine; window-sum oracle."""
    from ..stages.analytics import share_of_bucket

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    return round6(share_of_bucket(ev, bucket_s=86400))


DAILY_SHARE_SQL = """
WITH c AS (
  SELECT event_type,
         (epoch_us(ts) // 86400000000) * 86400000000 AS bucket_us,
         count(*) AS cnt
  FROM events GROUP BY 1, 2
)
SELECT event_type, bucket_us, cnt,
       round(CAST(cnt AS DOUBLE)
             / CAST(sum(cnt) OVER (PARTITION BY bucket_us) AS DOUBLE), 6)
         AS share
FROM c
"""


def q_time_since(sf_dir):
    """★-checked conditional LOCF enrichment (stages/tsmath.py::
    time_since_event): per event, exact µs since the same user's most
    recent strictly-earlier 'error' event (NULL before the first) —
    the event-aligned carry-forward.  Conditional-window-max oracle
    (ROWS UNBOUNDED PRECEDING TO 1 PRECEDING)."""
    from ..stages.tsmath import time_since_event

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"])
    return time_since_event(ev, marker="error")


TIME_SINCE_SQL = """
SELECT user_id, event_id,
       CAST(epoch_us(ts)
            - max(CASE WHEN event_type = 'error' THEN epoch_us(ts) END)
              OVER (PARTITION BY user_id ORDER BY ts, event_id
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
            AS DOUBLE) AS since_us
FROM events
"""


def q_session_overlap(sf_dir):
    """★-checked interval-OVERLAP join (stages/joins.py::
    interval_overlap_broadcast): user sessions (gap 1800 s) × the 20
    busiest 5-minute windows, one row per overlapping pair with the
    exact closed-interval overlap in µs.  Sessions come from ONE
    user-hash exchange (sessionize_pandas); the window set is built by
    map-side minute-count partials and broadcast, so the session side
    streams through the join with no further shuffle.  Inequality-join
    oracle mirrors the same closed-overlap convention."""
    from ..stages.joins import interval_overlap_broadcast
    from ..stages.window import sessionize_pandas

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])

    def minute_counts(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["ts"].to_numpy("datetime64[us]").astype(np.int64)
             // 60_000_000) * 60_000_000
        g = pd.DataFrame({"m": m}).groupby("m", as_index=False).size()
        return g.rename(columns={"size": "c"})

    # per-block minute partials reduce through an m-keyed exchange
    # (README invariant): the driver receives ≤ distinct-minutes rows
    mc = group_apply(
        ev.map_batches(minute_counts, batch_format="pandas"),
        lambda df: df.groupby("m", as_index=False)["c"].sum(),
        key="m",
    ).to_pandas()
    top = mc.sort_values(["c", "m"], ascending=[False, True],
                         kind="mergesort").head(20)
    iv = pd.DataFrame({
        "start": top["m"].to_numpy().astype("datetime64[us]"),
        "end": (top["m"].to_numpy() + 300_000_000).astype("datetime64[us]"),
        "window_cnt": top["c"].to_numpy(np.int64),
    })
    sess = group_apply(ev, sessionize_pandas, key="user_id")
    out = interval_overlap_broadcast(
        sess, iv, left_start="session_start", left_end="session_end",
        carry=("window_cnt",),
    ).to_pandas()
    res = pd.DataFrame({
        "user_id": out["user_id"].astype(np.int64),
        "session_idx": out["session_idx"].astype(np.int64),
        "s_start_us": out["session_start"].to_numpy("datetime64[us]")
                         .astype(np.int64),
        "s_end_us": out["session_end"].to_numpy("datetime64[us]")
                       .astype(np.int64),
        "window_start_us": out["start_w"].to_numpy("datetime64[us]")
                              .astype(np.int64),
        "window_cnt": out["window_cnt_w"].astype(np.int64),
        "overlap_us": out["overlap_us"].astype(np.int64),
    })
    return (res.sort_values(["user_id", "session_idx", "window_start_us"])
            .reset_index(drop=True))


SESSION_OVERLAP_SQL = """
WITH g AS (
  SELECT user_id, ts, event_id,
    CASE WHEN lag(ts) OVER w IS NULL
         OR date_diff('microsecond', lag(ts) OVER w, ts) > 1800000000
         THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (
  SELECT user_id, ts,
    CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_idx
  FROM g),
per AS (
  SELECT user_id, session_idx,
         min(epoch_us(ts)) AS s_start_us, max(epoch_us(ts)) AS s_end_us
  FROM s GROUP BY 1, 2),
mc AS (
  SELECT (epoch_us(ts) // 60000000) * 60000000 AS m, count(*) AS c
  FROM events GROUP BY 1),
top AS (SELECT m, c FROM mc ORDER BY c DESC, m LIMIT 20)
SELECT user_id, session_idx, s_start_us, s_end_us,
       m AS window_start_us, c AS window_cnt,
       least(s_end_us, m + 300000000) - greatest(s_start_us, m)
         AS overlap_us
FROM per JOIN top ON m <= s_end_us AND m + 300000000 >= s_start_us
"""


def q_trimmed_mean(sf_dir):
    """★-checked per-user trimmed mean
    (stages/tsmath.py::trimmed_mean): mean of the int-quantized values
    inside the user's own [p10, p90] band — band edges from the shared
    duck_quantile kernel, membership and sums exact, the two final
    divisions mirrored."""
    from ..stages.tsmath import trimmed_mean

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return round6(trimmed_mean(ev))


TRIMMED_MEAN_SQL = """
WITH k AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v
  FROM events
),
b AS (
  SELECT user_id, quantile_cont(v, 0.1) AS lo, quantile_cont(v, 0.9) AS hi,
         CAST(count(*) AS BIGINT) AS n_events,
         CAST(sum(v) AS BIGINT) AS sum_all
  FROM k GROUP BY user_id
),
kept AS (
  SELECT k.user_id, CAST(count(*) AS BIGINT) AS n_kept,
         CAST(sum(k.v) AS BIGINT) AS sum_kept
  FROM k JOIN b USING (user_id)
  WHERE k.v >= b.lo AND k.v <= b.hi
  GROUP BY k.user_id
)
SELECT b.user_id, b.n_events, kept.n_kept,
       round(CAST(b.sum_all AS DOUBLE) / b.n_events / 100.0, 6)
         AS mean_all,
       round(CAST(kept.sum_kept AS DOUBLE) / kept.n_kept / 100.0, 6)
         AS trimmed_mean
FROM b JOIN kept USING (user_id)
ORDER BY b.user_id
"""


def q_psi_drift(sf_dir):
    """★-checked Population Stability Index
    (stages/analytics.py::psi_drift): split at the EXACT global median
    timestamp (distributed rank selection ≡ quantile_cont), bin both
    halves by the reference half's value deciles, Laplace-smoothed
    PSI.  One row per bin — counts exact int64, contribution and
    total are the mirrored float expression."""
    from ..stages.analytics import psi_drift

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value", "ts"])
    return round6(psi_drift(ev))


def _psi_sql() -> str:
    n_bins = 10
    qs = [(i + 1) / n_bins for i in range(n_bins - 1)]
    bsel = ", ".join(
        f"quantile_cont(v, {q}) AS b{i}" for i, q in enumerate(qs))
    binexpr = " + ".join(
        f"(CASE WHEN v > b.b{i} THEN 1 ELSE 0 END)"
        for i in range(n_bins - 1))
    return f"""
WITH k AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS v, epoch_us(ts) AS t
  FROM events
),
med AS (SELECT quantile_cont(t, 0.5) AS m FROM k),
b AS (SELECT {bsel} FROM k, med WHERE t <= m),
binned AS (
  SELECT ({binexpr}) AS bin,
         CASE WHEN t <= med.m THEN 0 ELSE 1 END AS side
  FROM k, med, b
),
grid AS (
  SELECT g.bin, s.side
  FROM (SELECT unnest(generate_series(0, {n_bins - 1})) AS bin) g,
       (SELECT unnest([0, 1]) AS side) s
),
cnt AS (
  SELECT grid.bin, grid.side,
         CAST(coalesce(count(binned.bin), 0) AS BIGINT) AS c
  FROM grid LEFT JOIN binned
       ON binned.bin = grid.bin AND binned.side = grid.side
  GROUP BY grid.bin, grid.side
),
piv AS (
  SELECT bin,
         sum(CASE WHEN side = 0 THEN c ELSE 0 END) AS c_ref,
         sum(CASE WHEN side = 1 THEN c ELSE 0 END) AS c_cur
  FROM cnt GROUP BY bin
),
tot AS (
  SELECT CAST(sum(c_ref) AS BIGINT) AS n_ref,
         CAST(sum(c_cur) AS BIGINT) AS n_cur
  FROM piv
),
sh AS (
  SELECT bin, CAST(c_ref AS BIGINT) AS c_ref,
         CAST(c_cur AS BIGINT) AS c_cur, n_ref, n_cur,
         (c_ref + 0.5) / (n_ref + {n_bins / 2.0}) AS p,
         (c_cur + 0.5) / (n_cur + {n_bins / 2.0}) AS q
  FROM piv, tot
),
con AS (
  SELECT bin, c_ref, c_cur, n_ref, n_cur,
         (p - q) * ln(p / q) AS contrib
  FROM sh
)
SELECT bin, c_ref, c_cur, n_ref, n_cur,
       round(contrib, 6) AS contrib,
       round((SELECT sum(contrib) FROM con), 6) AS psi
FROM con ORDER BY bin
"""


def q_bootstrap_ci(sf_dir):
    """★-checked deterministic percentile-bootstrap CI for the
    per-user mean (stages/analytics.py::bootstrap_mean_ci): replicate
    b, draw i = splitmix64(uid·1000003 + b·10007 + i) mod n over the
    user's SORTED value multiset — content-derived resampling the SQL
    replays exactly; replicate means have exact integer numerators
    and the CI bounds share the duck_quantile kernel."""
    from ..stages.analytics import bootstrap_mean_ci

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return round6(bootstrap_mean_ci(ev, n_boot=200))


def _bootstrap_sql(n_boot: int = 200) -> str:
    splitmix = _sql_splitmix
    return f"""
WITH base AS MATERIALIZED (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v,
         CAST(row_number() OVER (PARTITION BY user_id ORDER BY
                                 CAST(round(value * 100) AS BIGINT))
              - 1 AS BIGINT) AS sidx,
         CAST(count(*) OVER (PARTITION BY user_id) AS BIGINT) AS n
  FROM events
),
draws0 AS MATERIALIZED (
  SELECT user_id, n, sidx AS i,
         unnest(generate_series(0, {n_boot - 1})) AS b
  FROM base
),
draws AS MATERIALIZED (
  SELECT user_id, n, b, i,
         (CAST(user_id AS HUGEINT) * 1000003 + b * 10007 + i) AS x
  FROM draws0
),
{splitmix('x', 'draws')},
sel AS (
  SELECT d.user_id, d.b, d.n,
         CAST(d.h % d.n AS BIGINT) AS idx
  FROM draws_sm d
),
means AS MATERIALIZED (
  SELECT sel.user_id, sel.b,
         CAST(sum(k2.v) AS DOUBLE) / max(sel.n) / 100.0 AS m
  FROM sel JOIN base k2
    ON k2.user_id = sel.user_id AND k2.sidx = sel.idx
  GROUP BY sel.user_id, sel.b
),
ci AS (
  SELECT user_id,
         quantile_cont(m, 0.025) AS ci_lo,
         quantile_cont(m, 0.975) AS ci_hi
  FROM means GROUP BY user_id
),
tot AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
         CAST(sum(v) AS DOUBLE) / count(*) / 100.0 AS mean_all
  FROM base GROUP BY user_id
)
SELECT tot.user_id, tot.n_events,
       round(tot.mean_all, 6) AS mean_all,
       round(ci.ci_lo, 6) AS ci_lo,
       round(ci.ci_hi, 6) AS ci_hi
FROM tot JOIN ci USING (user_id)
ORDER BY tot.user_id
"""


def q_ks_drift(sf_dir):
    """★-checked two-sample Kolmogorov–Smirnov drift
    (stages/analytics.py::ks_drift): exact-median time split, exact
    integer numerator max|c₁·n₂ − c₂·n₁| over the quantized support,
    one final mirrored division — the distribution-free companion of
    psi_drift."""
    from ..stages.analytics import ks_drift

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value", "ts"])
    return round6(ks_drift(ev))


KS_DRIFT_SQL = """
WITH k AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS v, epoch_us(ts) AS t
  FROM events
),
med AS (SELECT quantile_cont(t, 0.5) AS m FROM k),
c AS (
  SELECT v,
         CAST(sum(CASE WHEN t <= med.m THEN 1 ELSE 0 END) AS BIGINT)
           AS a,
         CAST(sum(CASE WHEN t > med.m THEN 1 ELSE 0 END) AS BIGINT)
           AS b
  FROM k, med GROUP BY v
),
cum AS (
  SELECT v,
         sum(a) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS c1,
         sum(b) OVER (ORDER BY v ROWS UNBOUNDED PRECEDING) AS c2
  FROM c
),
n AS (
  SELECT CAST(sum(a) AS BIGINT) AS n1, CAST(sum(b) AS BIGINT) AS n2
  FROM c
)
SELECT n.n1 AS n_ref, n.n2 AS n_cur,
       CAST(max(abs(cum.c1 * n.n2 - cum.c2 * n.n1)) AS BIGINT)
         AS d_num,
       round(CAST(max(abs(cum.c1 * n.n2 - cum.c2 * n.n1)) AS DOUBLE)
             / (CAST(n.n1 AS DOUBLE) * n.n2), 6) AS ks_d
FROM cum, n GROUP BY n.n1, n.n2
"""


def q_benford(sf_dir):
    """★-checked Benford first-digit audit
    (stages/analytics.py::benford_digits): leading digit in INT space
    (no float formatting), 9 exact count cells, mirrored expected
    shares and chi²."""
    from ..stages.analytics import benford_digits

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return round6(benford_digits(ev))


BENFORD_SQL = """
WITH v AS (
  SELECT abs(CAST(round(value * 100) AS BIGINT)) AS x
  FROM events
  WHERE abs(CAST(round(value * 100) AS BIGINT)) > 0
),
d AS (
  -- integer-to-string is exact (no float log10, which misfires at
  -- powers of ten); first char of the decimal repr = leading digit
  SELECT CAST(substr(CAST(x AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM v
),
c AS (SELECT digit, CAST(count(*) AS BIGINT) AS observed
      FROM d GROUP BY digit),
grid AS (
  SELECT unnest(generate_series(1, 9)) AS digit
),
n AS (SELECT CAST(sum(observed) AS BIGINT) AS n FROM c),
j AS (
  SELECT grid.digit, coalesce(c.observed, 0) AS observed,
         log10(1.0 + 1.0 / grid.digit) AS expected_share, n.n
  FROM grid LEFT JOIN c USING (digit), n
)
SELECT digit, observed,
       round(CAST(observed AS DOUBLE) / n, 6) AS share,
       round(expected_share, 6) AS expected_share,
       n AS n_values,
       round((SELECT sum(pow(j2.observed - j2.expected_share * j2.n, 2)
                         / (j2.expected_share * j2.n)) FROM j j2), 6)
         AS chi2
FROM j ORDER BY digit
"""


def q_runs_test(sf_dir):
    """★-checked Wald–Wolfowitz runs test
    (stages/tsmath-family, impl in analytics.py::runs_test): runs of
    the above/below-median sign sequence per user; median from the
    shared duck_quantile kernel, counts exact, z mirrored."""
    from ..stages.analytics import runs_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value", "ts"],
    )
    return round6(runs_test(ev))


RUNS_TEST_SQL = """
WITH k AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
),
m AS (SELECT user_id, quantile_cont(v, 0.5) AS med FROM k
      GROUP BY user_id),
s AS (
  SELECT k.user_id, k.rn, (k.v > m.med) AS sgn
  FROM k JOIN m USING (user_id)
  WHERE k.v <> m.med
),
r AS (
  SELECT user_id, sgn,
         lag(sgn) OVER (PARTITION BY user_id ORDER BY rn) AS prev
  FROM s
),
agg AS (
  SELECT user_id,
         CAST(count(*) AS BIGINT) AS n_used,
         CAST(sum(CASE WHEN sgn THEN 1 ELSE 0 END) AS BIGINT) AS np,
         CAST(sum(CASE WHEN sgn THEN 0 ELSE 1 END) AS BIGINT) AS nn,
         CAST(1 + sum(CASE WHEN prev IS NOT NULL AND prev <> sgn
                      THEN 1 ELSE 0 END) AS BIGINT) AS n_runs
  FROM r GROUP BY user_id
),
allk AS (SELECT DISTINCT user_id FROM k)
SELECT allk.user_id,
       coalesce(agg.n_used, 0) AS n_used,
       coalesce(agg.n_runs, 0) AS n_runs,
       round(CASE WHEN agg.n_used >= 2 AND agg.np > 0 AND agg.nn > 0
                   AND 2.0*agg.np*agg.nn*(2.0*agg.np*agg.nn - agg.n_used) > 0
             THEN (agg.n_runs - (2.0*agg.np*agg.nn/agg.n_used + 1.0))
                  / sqrt(2.0*agg.np*agg.nn
                         * (2.0*agg.np*agg.nn - agg.n_used)
                         / (CAST(agg.n_used AS DOUBLE)*agg.n_used
                            * (agg.n_used - 1)))
             END, 6) AS z_runs
FROM allk LEFT JOIN agg USING (user_id)
ORDER BY allk.user_id
"""


def q_textrank(sf_dir):
    """★-checked TextRank keyword extraction
    (stages/pack.py::textrank_keywords): PageRank over adjacent-token
    co-occurrence restricted to the top-100 vocab; fixed 10 rounds of
    the exact pagerank update; ranks rounded to 6 decimals BEFORE the
    top-20 cut on both sides so summation-order float noise cannot
    flip near-ties."""
    from ..stages.pack import textrank_keywords

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return textrank_keywords(docs, top_vocab=100, iters=10, k=20)


def _textrank_sql(iters: int = 10) -> str:
    """SQL twin of q_textrank: tokenize (zipped unnest, engine's
    whitespace class), top-100 vocab, adjacent pairs both directions,
    then the pagerank update unrolled as chained MATERIALIZED CTEs
    (every CTE is referenced twice per round — without
    materialization the inlined chain re-expands exponentially and
    exhausts file descriptors re-scanning the parquet)."""
    step = """
trk_pr{i} AS MATERIALIZED (
  SELECT n2.node,
         (1.0 - 0.85)/trk_nn.nd
         + 0.85*(coalesce(f.inflow, 0.0) + d.dang/trk_nn.nd) AS r
  FROM trk_nodes n2
  CROSS JOIN trk_nn
  LEFT JOIN (
    SELECT e.dst AS node, sum((p.r * e.n) / od.w) AS inflow
    FROM trk_pr{j} p JOIN trk_e e ON e.src = p.node
    JOIN trk_outdeg od ON od.src = p.node
    GROUP BY 1) f ON f.node = n2.node
  CROSS JOIN (
    SELECT coalesce(sum(p.r), 0.0) AS dang
    FROM trk_pr{j} p LEFT JOIN trk_outdeg od ON od.src = p.node
    WHERE od.src IS NULL) d
)"""
    chain = ",".join(step.format(i=i, j=i - 1)
                     for i in range(1, iters + 1))
    return f"""
WITH trk_split AS MATERIALIZED (
  SELECT doc_id,
         regexp_split_to_array(lower(text),
                               '[ \t\n\x0b\x0c\r]+') AS arr
  FROM documents
),
trk_tok AS MATERIALIZED (
  SELECT doc_id, ti, tok FROM (
    SELECT doc_id, unnest(generate_series(1, len(arr))) AS ti,
           unnest(arr) AS tok
    FROM trk_split
  ) WHERE tok <> ''
),
trk_vocab AS MATERIALIZED (
  SELECT tok AS token, count(*) AS cnt FROM trk_tok GROUP BY tok
  ORDER BY cnt DESC, token LIMIT 100
),
trk_adj AS MATERIALIZED (
  SELECT a.tok AS x, b.tok AS y
  FROM trk_tok a JOIN trk_tok b
    ON b.doc_id = a.doc_id AND b.ti = a.ti + 1
  WHERE a.tok IN (SELECT token FROM trk_vocab)
    AND b.tok IN (SELECT token FROM trk_vocab)
),
trk_e AS MATERIALIZED (
  SELECT src, dst, CAST(count(*) AS BIGINT) AS n FROM (
    SELECT x AS src, y AS dst FROM trk_adj
    UNION ALL
    SELECT y AS src, x AS dst FROM trk_adj
  ) GROUP BY 1, 2
),
trk_outdeg AS MATERIALIZED (
  SELECT src, sum(n) AS w FROM trk_e GROUP BY 1
),
trk_nodes AS MATERIALIZED (SELECT token AS node FROM trk_vocab),
trk_nn AS MATERIALIZED (
  SELECT CAST(count(*) AS DOUBLE) AS nd FROM trk_nodes
),
trk_pr0 AS MATERIALIZED (
  SELECT node, 1.0/trk_nn.nd AS r FROM trk_nodes, trk_nn
),
{chain}
SELECT n.node AS token, round(p.r, 6) AS textrank
FROM trk_nodes n JOIN trk_pr{iters} p ON p.node = n.node
ORDER BY round(p.r, 6) DESC, n.node LIMIT 20
"""


def q_auc_score(sf_dir):
    """★-checked ROC-AUC via the Mann–Whitney rank identity
    (stages/analytics.py::auc_mann_whitney): does `value` separate
    purchases from other events?  Tie-averaged ranks as doubled
    int64s make the U statistic exact; one mirrored final ratio."""
    from ..stages.analytics import auc_mann_whitney

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(auc_mann_whitney(ev))


AUC_SQL = """
WITH k AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS s,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y
  FROM events
),
r AS (
  SELECT s, y,
         2 * rank() OVER (ORDER BY s)
           + count(*) OVER (PARTITION BY s) - 1 AS dr
  FROM k
),
agg AS (
  SELECT CAST(sum(y) AS BIGINT) AS n_pos,
         CAST(sum(1 - y) AS BIGINT) AS n_neg,
         CAST(sum(CASE WHEN y = 1 THEN dr ELSE 0 END) AS BIGINT)
           AS r_pos2
  FROM r
)
SELECT n_pos, n_neg,
       r_pos2 - n_pos * (n_pos + 1) AS u2,
       round(CAST(r_pos2 - n_pos * (n_pos + 1) AS DOUBLE)
             / (2.0 * n_pos * n_neg), 6) AS auc
FROM agg
"""


def q_cusum_alarms(sf_dir):
    """★-checked one-sided CUSUM drift alarms
    (stages/tsmath.py::cusum_alarms): the clamped recurrence
    max(0, S + x − k) via the exact reflection identity
    S_i = P_i − min(P_0..P_i) — one int64 prefix pass in the engine,
    one window running-min in SQL; deviations scaled by n so the
    key-mean baseline stays integral."""
    from ..stages.tsmath import cusum_alarms

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value", "ts"],
    )
    return round6(cusum_alarms(ev))


CUSUM_SQL = """
WITH k AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
),
m AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(v) AS BIGINT) AS tot
  FROM k GROUP BY user_id
),
d AS (
  SELECT k.user_id, k.rn, m.n,
         k.v * m.n - m.tot - 100 * m.n AS dev
  FROM k JOIN m USING (user_id)
),
pfx AS (
  SELECT user_id, rn, n,
         sum(dev) OVER (PARTITION BY user_id ORDER BY rn
                        ROWS UNBOUNDED PRECEDING) AS p
  FROM d
),
rm AS (
  SELECT user_id, rn, n, p,
         least(min(p) OVER (PARTITION BY user_id ORDER BY rn
                            ROWS UNBOUNDED PRECEDING), 0) AS run_min
  FROM pfx
),
s AS (
  SELECT user_id, n, p - run_min AS su FROM rm
)
SELECT user_id, max(n) AS n_events,
       CAST(max(su) AS BIGINT) AS max_cusum_scaled,
       CAST(sum(CASE WHEN su > 2000 * n THEN 1 ELSE 0 END) AS BIGINT)
         AS n_alarms
FROM s GROUP BY user_id ORDER BY user_id
"""


def q_spearman_trend(sf_dir):
    """★-checked Spearman rank trend
    (stages/tsmath.py::spearman_trend): tie-averaged ranks as doubled
    int64s make every sufficient statistic exact; the ratio is the
    one mirrored float."""
    from ..stages.tsmath import spearman_trend

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value", "ts"],
    )
    return round6(spearman_trend(ev))


SPEARMAN_SQL = """
WITH k AS (
  SELECT user_id, epoch_us(ts) AS t,
         CAST(round(value * 100) AS BIGINT) AS v
  FROM events
),
r AS (
  SELECT user_id,
         2 * rank() OVER (PARTITION BY user_id ORDER BY t)
           + count(*) OVER (PARTITION BY user_id, t) - 1 AS rx,
         2 * rank() OVER (PARTITION BY user_id ORDER BY v)
           + count(*) OVER (PARTITION BY user_id, v) - 1 AS ry
  FROM k
),
agg AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(rx) AS BIGINT) AS sx,
         CAST(sum(ry) AS BIGINT) AS sy,
         CAST(sum(rx * ry) AS BIGINT) AS sxy,
         CAST(sum(rx * rx) AS BIGINT) AS sxx,
         CAST(sum(ry * ry) AS BIGINT) AS syy
  FROM r GROUP BY user_id
)
SELECT user_id, n AS n_events,
       round(CASE WHEN n * sxx - sx * sx > 0
                   AND n * syy - sy * sy > 0
             THEN CAST(n * sxy - sx * sy AS DOUBLE)
                  / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                         * CAST(n * syy - sy * sy AS DOUBLE))
             END, 6) AS spearman
FROM agg ORDER BY user_id
"""


def q_zipf_exponent(sf_dir):
    """★-checked Zipf/power-law exponent of per-user activity
    (stages/analytics.py::zipf_exponent, Clauset–Shalizi–Newman MLE):
    the quantitative skew check behind hot-key salting/LPT.  Counts
    exact; ln-sum and α mirrored."""
    from ..stages.analytics import zipf_exponent

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return round6(zipf_exponent(ev))


ZIPF_SQL = """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS cnt
  FROM events GROUP BY user_id
),
mn AS (SELECT CAST(min(cnt) AS BIGINT) AS xmin FROM c),
s AS (
  SELECT CAST(count(*) AS BIGINT) AS n_keys,
         sum(ln(CAST(cnt AS DOUBLE) / (mn.xmin - 0.5))) AS ln_sum
  FROM c, mn GROUP BY mn.xmin
)
SELECT s.n_keys, mn.xmin AS x_min,
       round(s.ln_sum, 6) AS ln_sum,
       round(CASE WHEN s.ln_sum > 0 THEN 1.0 + s.n_keys / s.ln_sum
             END, 6) AS alpha
FROM s, mn
"""


def q_chi_square(sf_dir):
    """★-checked Pearson chi-square independence of event_type ×
    hour-of-day (stages/analytics.py::chi_square_independence):
    observed counts exact int64 through one keyed cell exchange,
    expected counts and the statistic mirrored."""
    from ..stages.analytics import chi_square_independence

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        h = (df["ts"].to_numpy("datetime64[us]").view(np.int64)
             // 3_600_000_000) % 24
        return pd.DataFrame({"event_type": df["event_type"].to_numpy(),
                             "hour": h.astype(np.int64)})

    return round6(chi_square_independence(
        ev.map_batches(prep, batch_format="pandas")))


CHI_SQUARE_SQL = """
WITH q AS (
  SELECT event_type AS a,
         (epoch_us(ts) // 3600000000) % 24 AS b
  FROM events
),
o AS (SELECT a, b, CAST(count(*) AS BIGINT) AS o FROM q GROUP BY 1, 2),
rt AS (SELECT a, CAST(sum(o) AS BIGINT) AS r FROM o GROUP BY a),
ct AS (SELECT b, CAST(sum(o) AS BIGINT) AS c FROM o GROUP BY b),
n AS (SELECT CAST(sum(o) AS BIGINT) AS n FROM o),
grid AS (
  SELECT rt.a, ct.b, rt.r, ct.c, n.n,
         coalesce(o.o, 0) AS o
  FROM rt CROSS JOIN ct CROSS JOIN n
  LEFT JOIN o ON o.a = rt.a AND o.b = ct.b
)
SELECT (SELECT n FROM n) AS n_rows,
       (SELECT CAST(count(*) AS BIGINT) FROM rt) AS n_classes_a,
       (SELECT CAST(count(*) AS BIGINT) FROM ct) AS n_classes_b,
       ((SELECT count(*) FROM rt) - 1)
         * ((SELECT count(*) FROM ct) - 1) AS dof,
       round(sum(pow(o - CAST(r AS DOUBLE) * c / n, 2)
                 / (CAST(r AS DOUBLE) * c / n)), 6) AS chi2
FROM grid
"""


def q_kaplan_meier(sf_dir):
    """★-checked Kaplan–Meier time-to-conversion curve
    (stages/analytics.py::kaplan_meier): duration = first signup →
    first later purchase per user, right-censored at the global max
    ts.  Counts exact int64; S(t) computed as exp(running-sum of
    ln(1−d/n)) on BOTH sides so the float path is identical."""
    from ..stages.analytics import kaplan_meier

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])
    return round6(kaplan_meier(ev))


KAPLAN_MEIER_SQL = """
WITH su AS (
  SELECT user_id, min(epoch_us(ts)) AS t0
  FROM events WHERE event_type = 'signup' GROUP BY 1
),
pu AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS tp
  FROM events e JOIN su USING (user_id)
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > su.t0
  GROUP BY 1
),
mx AS (SELECT max(epoch_us(ts)) AS tmax FROM events),
dur AS (
  SELECT su.user_id,
         coalesce(pu.tp, mx.tmax) - su.t0 AS d_us,
         (pu.tp IS NOT NULL) AS ev
  FROM su LEFT JOIN pu USING (user_id), mx
),
evt AS (
  SELECT d_us, CAST(count(*) AS BIGINT) AS d
  FROM dur WHERE ev GROUP BY d_us
),
risk AS (
  SELECT e.d_us, e.d,
         (SELECT CAST(count(*) AS BIGINT) FROM dur
          WHERE dur.d_us >= e.d_us) AS n_risk
  FROM evt e
)
SELECT d_us AS duration_us, n_risk, d AS n_events,
       round(exp(sum(CASE WHEN d >= n_risk
                      THEN CAST('-infinity' AS DOUBLE)
                      ELSE ln(1 - CAST(d AS DOUBLE) / n_risk) END)
                 OVER (ORDER BY d_us
                       ROWS UNBOUNDED PRECEDING)), 6) AS survival
FROM risk ORDER BY duration_us
"""


def q_readability(sf_dir):
    """★-checked Flesch reading-ease (stages/text.py::readability):
    word/sentence/vowel-group counts are exact ints under identical
    regex semantics (Python re vs DuckDB RE2 on these patterns), the
    score is the one mirrored float expression."""
    from ..stages.text import readability

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = readability(docs).to_pandas()
    return round6(out.sort_values("doc_id").reset_index(drop=True))


READABILITY_SQL = """
WITH c AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT)
           AS n_words,
         greatest(CAST(len(regexp_extract_all(text, '[.!?]+'))
                       AS BIGINT), 1) AS n_sentences,
         CAST(len(regexp_extract_all(lower(text), '[aeiouy]+'))
              AS BIGINT) AS n_syllables
  FROM documents
)
SELECT doc_id, n_words, n_sentences, n_syllables,
       round(206.835
             - 1.015 * (CAST(n_words AS DOUBLE) / n_sentences)
             - 84.6 * (CAST(n_syllables AS DOUBLE)
                       / greatest(n_words, 1)), 6) AS flesch
FROM c ORDER BY doc_id
"""


def q_robust_anomalies(sf_dir):
    """★-checked modified-z-score anomalies
    (stages/tsmath.py::robust_anomalies): per-user Iglewicz–Hoaglin
    Mz = 0.6745·(x − median)/MAD over int-quantized values; both
    medians are the shared duck_quantile kernel so the flag set — and
    therefore the counts — are bit-identical to the SQL twin."""
    from ..stages.tsmath import robust_anomalies

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return round6(robust_anomalies(ev))


ROBUST_ANOM_SQL = """
WITH k AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v
  FROM events
),
m AS (
  SELECT user_id, quantile_cont(v, 0.5) AS med,
         CAST(count(*) AS BIGINT) AS n_events
  FROM k GROUP BY user_id
),
a AS (
  SELECT k.user_id, k.v, m.med, abs(k.v - m.med) AS ad
  FROM k JOIN m USING (user_id)
),
md AS (
  SELECT user_id, quantile_cont(ad, 0.5) AS mad FROM a
  GROUP BY user_id
)
SELECT m.user_id, m.n_events,
       round(m.med / 100.0, 6) AS med,
       round(md.mad / 100.0, 6) AS mad,
       CAST(CASE WHEN md.mad > 0 THEN (
         SELECT count(*) FROM a
         WHERE a.user_id = m.user_id
           AND abs(0.6745 * (a.v - a.med) / md.mad) > 3.5
       ) ELSE 0 END AS BIGINT) AS n_anomalies
FROM m JOIN md USING (user_id)
ORDER BY m.user_id
"""


def q_k_anonymity(sf_dir):
    """★-checked k-anonymity audit (stages/analytics.py::k_anonymity):
    quasi-identifiers = (event_type, hour-of-day, value sign bucket);
    classes below k=50 members are re-identification risks.  All
    counts exact int64 through one keyed cell exchange; the risk share
    is the one mirrored division."""
    from ..stages.analytics import k_anonymity

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def quasi(df: pd.DataFrame) -> pd.DataFrame:
        h = (df["ts"].to_numpy("datetime64[us]").view(np.int64)
             // 3_600_000_000) % 24
        vq = np.rint(df["value"].to_numpy(np.float64) * 100.0).astype(
            np.int64)
        return pd.DataFrame({
            "q_type": df["event_type"].to_numpy(),
            "q_hour": h.astype(np.int64),
            "q_band": np.clip(vq // 2500, 0, 3).astype(np.int64),
        })

    return round6(k_anonymity(
        ev.map_batches(quasi, batch_format="pandas"),
        quasi_cols=("q_type", "q_hour", "q_band"), k=50))


K_ANON_SQL = """
WITH q AS (
  SELECT event_type AS q_type,
         (epoch_us(ts) // 3600000000) % 24 AS q_hour,
         least(greatest(CAST(round(value * 100) AS BIGINT) // 2500,
                        0), 3) AS q_band
  FROM events
),
c AS (
  SELECT q_type, q_hour, q_band, CAST(count(*) AS BIGINT) AS cnt
  FROM q GROUP BY 1, 2, 3
)
SELECT CAST(count(*) AS BIGINT) AS n_classes,
       CAST(sum(cnt) AS BIGINT) AS n_rows,
       CAST(min(cnt) AS BIGINT) AS min_class_size,
       CAST(sum(CASE WHEN cnt < 50 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_risky_classes,
       CAST(sum(CASE WHEN cnt < 50 THEN cnt ELSE 0 END) AS BIGINT)
         AS n_risky_rows,
       round(CAST(sum(CASE WHEN cnt < 50 THEN cnt ELSE 0 END)
                  AS DOUBLE) / sum(cnt), 6) AS risky_row_share
FROM c
"""


def q_record_highs(sf_dir):
    """★-checked per-user running-record analysis
    (stages/analytics.py::record_highs): count of events setting a new
    all-time high (strict, int-quantized; first event counts) + final
    max.  Window prefix-max SQL twin."""
    from ..stages.analytics import record_highs

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value", "ts"],
    )
    return round6(record_highs(ev))


RECORD_HIGHS_SQL = """
WITH k AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v,
         max(CAST(round(value * 100) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM events
)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN prev_max IS NULL OR v > prev_max
                THEN 1 ELSE 0 END) AS BIGINT) AS n_records,
       round(max(v) / 100.0, 6) AS final_max
FROM k GROUP BY user_id ORDER BY user_id
"""


def q_gini_activity(sf_dir):
    """★-checked Gini inequality coefficient of per-user event counts
    (stages/analytics.py::gini_coefficient): exact int64 rank-weighted
    numerator over one keyed count exchange; the single final
    division is mirrored.  The skew health-check that motivates the
    engine's hot-key salting and LPT placement."""
    from ..stages.analytics import gini_coefficient

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return round6(gini_coefficient(ev))


GINI_SQL = """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS cnt
  FROM events GROUP BY user_id
),
r AS (
  SELECT cnt,
         CAST(row_number() OVER (ORDER BY cnt, user_id) AS BIGINT) AS i
  FROM c
),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM c),
agg AS (
  SELECT nn.n AS n_keys,
         CAST(sum(cnt) AS BIGINT) AS total_events,
         CAST(sum((2 * i - nn.n - 1) * cnt) AS BIGINT) AS gini_num
  FROM r, nn GROUP BY nn.n
)
SELECT n_keys, total_events, gini_num,
       round(CAST(gini_num AS DOUBLE) / (n_keys * total_events), 6)
         AS gini
FROM agg
"""


def q_mann_kendall(sf_dir):
    """★-checked Mann–Kendall trend test
    (stages/tsmath.py::mann_kendall): per-user S statistic over
    int-quantized values (exact int64 sign sum), tie-corrected
    18·variance (exact int64), continuity-corrected Z (one mirrored
    float expression).  The nonparametric companion of
    theilsen_trend."""
    from ..stages.tsmath import mann_kendall

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value", "ts"],
    )
    return round6(mann_kendall(ev))


MANN_KENDALL_SQL = """
WITH e AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS v,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
),
s AS (
  SELECT a.user_id,
         CAST(sum(CASE WHEN b.v > a.v THEN 1
                       WHEN b.v < a.v THEN -1 ELSE 0 END) AS BIGINT)
           AS s_stat
  FROM e a JOIN e b ON a.user_id = b.user_id AND b.rn > a.rn
  GROUP BY a.user_id
),
ties AS (
  SELECT user_id,
         CAST(sum(t * (t - 1) * (2 * t + 5)) AS BIGINT) AS tie18
  FROM (SELECT user_id, CAST(count(*) AS BIGINT) AS t
        FROM e GROUP BY user_id, v) g
  GROUP BY user_id
),
n AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
      FROM e GROUP BY user_id)
SELECT n.user_id, n.n_events,
       coalesce(s.s_stat, 0) AS s_stat,
       n.n_events * (n.n_events - 1) * (2 * n.n_events + 5)
         - coalesce(ties.tie18, 0) AS var_s18,
       round(CASE
         WHEN coalesce(s.s_stat, 0) = 0 THEN 0.0
         WHEN n.n_events * (n.n_events - 1) * (2 * n.n_events + 5)
              - coalesce(ties.tie18, 0) = 0 THEN 0.0
         WHEN s.s_stat > 0 THEN
           (s.s_stat - 1) / sqrt((n.n_events * (n.n_events - 1)
             * (2 * n.n_events + 5) - coalesce(ties.tie18, 0)) / 18.0)
         ELSE
           (s.s_stat + 1) / sqrt((n.n_events * (n.n_events - 1)
             * (2 * n.n_events + 5) - coalesce(ties.tie18, 0)) / 18.0)
       END, 6) AS z_stat,
       false AS capped
FROM n LEFT JOIN s USING (user_id) LEFT JOIN ties USING (user_id)
ORDER BY n.user_id
"""


def q_theilsen_trend(sf_dir):
    """★-checked Theil–Sen robust trend
    (stages/tsmath.py::theilsen_trend): per-user MEDIAN of all
    pairwise Δvalue/Δseconds slopes (distinct-timestamp pairs) — the
    outlier-resistant sibling of linear_trend.  Engine median is the
    shared duck_quantile kernel, so the SQL quantile_cont(0.5) over
    the self-joined pair slopes is bit-identical; counts are exact
    int64."""
    from ..stages.tsmath import theilsen_trend

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value", "ts"],
    )
    return round6(theilsen_trend(ev))


THEILSEN_SQL = """
WITH e AS (
  SELECT user_id, ts, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
),
p AS (
  SELECT a.user_id,
         (b.value - a.value)
           / (CAST(epoch_us(b.ts) - epoch_us(a.ts) AS DOUBLE)
              / 1000000.0) AS slope
  FROM e a JOIN e b
    ON a.user_id = b.user_id AND b.rn > a.rn
   AND epoch_us(b.ts) > epoch_us(a.ts)
),
agg AS (
  SELECT user_id,
         CAST(count(*) AS BIGINT) AS n_pairs,
         quantile_cont(slope, 0.5) AS med
  FROM p GROUP BY user_id
),
n AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
      FROM events GROUP BY user_id)
SELECT n.user_id, n.n_events,
       coalesce(agg.n_pairs, 0) AS n_pairs,
       round(agg.med, 6) AS ts_slope_per_s,
       false AS capped
FROM n LEFT JOIN agg USING (user_id)
ORDER BY n.user_id
"""


def q_scd2_history(sf_dir):
    """★-checked SCD Type-2 dimension history
    (stages/tsmath.py::scd2_history): each user's event_type stream
    becomes the warehouse validity-interval table — one row per
    attribute version with valid_from / valid_to (NULL while
    current), 1-based version_no and is_current.  The CDC sibling of
    ``upsert`` (last-write-wins keeps the head; SCD2 keeps history).
    int64-µs timestamps end-to-end; LAG/LEAD gaps-and-islands
    oracle."""
    from ..stages.tsmath import scd2_history

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    return scd2_history(ev)


SCD2_SQL = """
WITH o AS (
  SELECT user_id, event_type, ts, event_id,
         lag(event_type) OVER w AS prev_attr
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
chg AS (
  SELECT user_id, event_type, ts, event_id
  FROM o WHERE prev_attr IS NULL OR prev_attr <> event_type
),
runs AS (
  SELECT user_id, event_type, ts AS valid_from,
         lead(ts) OVER w2 AS valid_to,
         CAST(row_number() OVER w2 AS BIGINT) AS version_no,
         (lead(ts) OVER w2 IS NULL) AS is_current
  FROM chg
  WINDOW w2 AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id, event_type, valid_from, valid_to, version_no,
       is_current
FROM runs
ORDER BY user_id, version_no
"""



def q_run_stats(sf_dir):
    """★-checked per-key run-length structure (stages/tsmath.py):
    gaps-and-islands over event_type VALUE changes per user — event
    count, run count, longest same-type run, first/last type, mean
    run length.  All counts are exact int64; the one float is a
    mirrored round-6 division.  Gaps-and-islands
    (lag<>-flag → running sum → per-run count) oracle."""
    from ..stages.tsmath import run_stats

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    return round6(run_stats(ev))


RUN_STATS_SQL = """
WITH o AS (
  SELECT user_id, event_type,
         CASE WHEN lag(event_type) OVER w IS NULL
              OR lag(event_type) OVER w <> event_type
              THEN 1 ELSE 0 END AS brk,
         row_number() OVER w AS rn
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
r AS (
  SELECT user_id, event_type, rn,
         CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY rn
                             ROWS UNBOUNDED PRECEDING) AS BIGINT)
           AS run_id
  FROM o),
per AS (
  SELECT user_id, run_id, count(*) AS run_len FROM r GROUP BY 1, 2),
agg AS (
  SELECT user_id, CAST(sum(run_len) AS BIGINT) AS n_events,
         count(*) AS n_runs, CAST(max(run_len) AS BIGINT) AS max_run
  FROM per GROUP BY 1),
fl AS (
  SELECT user_id, arg_min(event_type, rn) AS first_type,
         arg_max(event_type, rn) AS last_type
  FROM r GROUP BY 1)
SELECT agg.user_id, n_events, n_runs, max_run, first_type, last_type,
       round(CAST(n_events AS DOUBLE) / n_runs, 6) AS mean_run_len
FROM agg JOIN fl ON agg.user_id = fl.user_id
"""


def q_features_stetson(sf_dir):
    """★-checked Stetson variability indices through the REAL
    FeatureExtractor (oracle/common_features.py A14/A15): per user over
    event values in event_id order, J = mean sign(P)·√|P| over
    successive-pair products P of δ = √(n/(n−1))·(m−µ)/e (e is the
    constant DEFAULT_ERROR_VALUE fill), K = mean|δ|/√(mean δ²) — both
    plain aggregates over lag() products, mirrored verbatim in SQL;
    µ's pairwise-vs-sequential summation ulps land below round6
    (same argument as features_stats' skew)."""
    from ..stages.features import FeatureExtractor

    pts = _event_points(sf_dir).map_batches(
        lambda df: df.rename(columns={"user_id": "conv_id",
                                      "event_id": "turn_idx"}),
        batch_format="pandas",
    )
    out = group_apply(
        pts,
        FeatureExtractor,
        key="conv_id",
        fn_constructor_kwargs={"channels": ("value",),
                               "features_to_use": ["stetson_j",
                                                   "stetson_k"]},
    ).to_pandas()
    out = out.rename(columns={"conv_id": "user_id"}).drop(columns=["channel"])
    return round6(out.sort_values("user_id").reset_index(drop=True))


FEATURES_STETSON_SQL = """
WITH s AS (
  SELECT user_id, avg(value) AS mu, count(*) AS n
  FROM events GROUP BY 1
),
d AS (
  SELECT e.user_id, e.event_id,
         sqrt(s.n / (s.n - 1.0)) * (e.value - s.mu) / 0.0001 AS dd
  FROM events e JOIN s USING (user_id)
  WHERE s.n >= 2
),
p AS (
  SELECT user_id, dd,
         dd * lag(dd) OVER (PARTITION BY user_id ORDER BY event_id) AS pp
  FROM d
)
SELECT user_id,
       round(avg(sign(pp) * sqrt(abs(pp))), 6) AS stetson_j,
       round(avg(abs(dd)) / sqrt(avg(dd * dd)), 6) AS stetson_k
FROM p GROUP BY 1
"""


def q_interarrival_scan(sf_dir):
    """★-checked scan-path inter-arrival quantiles
    (stages/selection.py): same output as `interarrival`, but the
    exact per-type p50/p99 come from histogram-refinement rank
    selection — map-side partial bincounts + KB driver combines, no
    attr-keyed exchange — the plan that holds at 10¹² rows.  Shares
    the `interarrival` SQL oracle (bit-identical by construction)."""
    from ..stages.tsmath import interarrival_quantiles_scan

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    out = interarrival_quantiles_scan(ev)
    return out.sort_values("event_type").reset_index(drop=True)


def q_global_quantiles(sf_dir):
    """★-checked EXACT global value quantiles (stages/selection.py):
    p50/p99 of 100×-quantized event values over the whole table via
    histogram-refinement rank selection — the exact counterpart of the
    approximate `sketch_quantiles`, with no all-to-all exchange.
    quantile_cont oracle on the same int space."""
    from ..stages.selection import grouped_rank_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"]
    )


    d = ev.map_batches(_value_kspace, batch_format="pandas").materialize()
    out = grouped_rank_quantiles(d, "g", "k", ps=(0.5, 0.99))
    return round6(pd.DataFrame({
        "n": out["n"].astype(np.int64),
        "p50": out["q_0"].to_numpy() / 100.0,
        "p99": out["q_1"].to_numpy() / 100.0,
    }))


GLOBAL_QUANTILES_SQL = """
WITH k AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS kv
  FROM events WHERE value IS NOT NULL
)
SELECT count(*) AS n,
       round(quantile_cont(CAST(kv AS DOUBLE), 0.5) / 100.0, 6) AS p50,
       round(quantile_cont(CAST(kv AS DOUBLE), 0.99) / 100.0, 6) AS p99
FROM k
"""


def q_rolling_std(sf_dir):
    """★-checked ROWS-window rolling volatility (stages/window.py):
    sample stddev of the last 5 rows per user; int64 cents/cents²
    prefix sums, variance float expression mirrored verbatim by the
    SQL oracle (clamped at 0 before sqrt on both sides)."""
    from ..stages.window import rolling_rows_std

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    out = rolling_rows_std(ev, n=5).to_pandas()
    return (out.sort_values(["user_id", "event_id"])
            .reset_index(drop=True))


ROLLING_STD_SQL = """
WITH w AS (
  SELECT user_id, event_id,
         count(value) OVER win AS cnt,
         sum(CAST(round(value*100) AS BIGINT)) OVER win AS s,
         sum(CAST(round(value*100) AS BIGINT)
             * CAST(round(value*100) AS BIGINT)) OVER win AS s2
  FROM events
  WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
)
SELECT user_id, event_id, cnt AS roll_cnt,
       CASE WHEN cnt > 1 THEN
         sqrt(greatest(
           (CAST(s2 AS DOUBLE)/10000.0
            - (CAST(s AS DOUBLE)/100.0)*(CAST(s AS DOUBLE)/100.0)/cnt)
           / (cnt - 1), 0.0))
       END AS roll_std
FROM w
"""


def q_dwell_time(sf_dir):
    """★-checked time-in-state (stages/tsmath.py): total µs attributed
    to each event type (elapsed time to the user's next event credits
    the earlier event's type) — lead() + exact int64 sum oracle."""
    from ..stages.tsmath import dwell_time

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    return dwell_time(ev)


DWELL_SQL = """
WITH s AS (
  SELECT event_type, epoch_us(ts) AS t,
         lead(epoch_us(ts)) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT event_type, count(*) AS n,
       CAST(sum(nxt - t) AS BIGINT) AS total_us
FROM s WHERE nxt IS NOT NULL
GROUP BY 1
"""


def q_weekly_profile(sf_dir):
    """★-checked 7×24 seasonality grid (stages/tsmath.py): count +
    exact mean value per (event_type, day-of-week, hour); dow is pure
    epoch arithmetic ((epoch_day + 4) % 7) mirrored in SQL."""
    from ..stages.tsmath import weekly_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    )
    return round6(weekly_profile(ev))


WEEKLY_SQL = """
SELECT event_type,
       ((epoch_us(ts) // 86400000000) + 4) % 7 AS dow,
       (epoch_us(ts) // 3600000000) % 24 AS hour,
       count(value) AS n,
       round(CAST(sum(CAST(round(value*100) AS BIGINT)) AS DOUBLE)
             / (count(value) * 100.0), 6) AS mean_value
FROM events WHERE value IS NOT NULL
GROUP BY 1, 2, 3
"""


def q_type_variety(sf_dir):
    """★-checked variety histogram (stages/analytics.py): number of
    users per distinct-event-type count — count(DISTINCT) oracle."""
    from ..stages.analytics import type_variety

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return type_variety(ev)


TYPE_VARIETY_SQL = """
WITH c AS (
  SELECT user_id, count(DISTINCT event_type) AS n_types
  FROM events GROUP BY 1
)
SELECT n_types, count(*) AS n_users FROM c GROUP BY 1
"""


def q_max_drawdown(sf_dir):
    """★-checked per-key maximum drawdown (stages/tsmath.py): largest
    running-peak-minus-value drop over each user's (ts, event_id)-
    sorted value stream, plus peak and event count.  Pure int64
    k-space → running-max window SQL mirror is bit-exact."""
    from ..stages.tsmath import max_drawdown

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(max_drawdown(ev))


MAX_DRAWDOWN_SQL = """
WITH o AS (
  SELECT user_id,
         CAST(round(value*100) AS BIGINT) AS v,
         max(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS UNBOUNDED PRECEDING) AS rmax
  FROM events)
SELECT user_id,
       round(CAST(max(rmax - v) AS DOUBLE)/100.0, 6) AS max_drawdown,
       round(CAST(max(rmax) AS DOUBLE)/100.0, 6) AS peak_value,
       count(*) AS n_events
FROM o GROUP BY 1
"""


def q_longest_streak(sf_dir):
    """★-checked per-key consecutive-active-day streaks
    (stages/tsmath.py): longest streak, streak count, active-day
    total, first/last epoch day — gaps-and-islands
    (day − row_number grouping) oracle, all-integer."""
    from ..stages.tsmath import longest_streak

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return longest_streak(ev)


LONGEST_STREAK_SQL = """
WITH d AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // 86400000000 AS day
  FROM events),
r AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day)
           AS grp
  FROM d),
s AS (
  SELECT user_id, grp, count(*) AS len FROM r GROUP BY 1, 2),
agg AS (
  SELECT user_id, CAST(sum(len) AS BIGINT) AS n_active_days,
         count(*) AS n_streaks, CAST(max(len) AS BIGINT) AS longest_streak
  FROM s GROUP BY 1),
fl AS (
  SELECT user_id, CAST(min(day) AS BIGINT) AS first_day,
         CAST(max(day) AS BIGINT) AS last_day
  FROM d GROUP BY 1)
SELECT agg.user_id, n_active_days, n_streaks, longest_streak,
       first_day, last_day
FROM agg JOIN fl ON agg.user_id = fl.user_id
"""


def q_burst_detect(sf_dir):
    """★-checked per-key peak burst (stages/tsmath.py): max events in
    any trailing 5-minute window (SQL RANGE-frame peer semantics) and
    the earliest window-end µs attaining it — RANGE-window count
    oracle, all-integer."""
    from ..stages.tsmath import burst_detect

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return burst_detect(ev, window_s=300)


BURST_DETECT_SQL = """
WITH o AS (
  SELECT user_id, epoch_us(ts) AS tus,
         count(*) OVER (PARTITION BY user_id ORDER BY epoch_us(ts)
                        RANGE BETWEEN 300000000 PRECEDING
                        AND CURRENT ROW) AS cnt
  FROM events),
m AS (
  SELECT user_id, CAST(max(cnt) AS BIGINT) AS max_burst,
         count(*) AS n_events
  FROM o GROUP BY 1)
SELECT m.user_id, m.max_burst,
       CAST(min(o.tus) AS BIGINT) AS burst_ts_us, m.n_events
FROM o JOIN m ON o.user_id = m.user_id AND o.cnt = m.max_burst
GROUP BY 1, 2, 4
"""


def q_acf(sf_dir):
    """★-checked per-key autocorrelation at lags 1–3
    (stages/tsmath.py): exact int64 lag-product sums combined in a
    float expression mirrored op-for-op by the SQL oracle (lag-window
    sums), round-6 bit-equal."""
    from ..stages.tsmath import acf_lags

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(acf_lags(ev, max_lag=3))


ACF_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT), 1) OVER w AS x1,
         lag(CAST(round(value*100) AS BIGINT), 2) OVER w AS x2,
         lag(CAST(round(value*100) AS BIGINT), 3) OVER w AS x3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (
  SELECT user_id, count(*) AS n, sum(x) AS s, sum(x*x) AS q,
         sum(x*x1) AS sxy1, sum(x1) AS sh1,
         sum(x) FILTER (WHERE x1 IS NOT NULL) AS st1,
         sum(x*x2) AS sxy2, sum(x2) AS sh2,
         sum(x) FILTER (WHERE x2 IS NOT NULL) AS st2,
         sum(x*x3) AS sxy3, sum(x3) AS sh3,
         sum(x) FILTER (WHERE x3 IS NOT NULL) AS st3
  FROM o GROUP BY 1),
m AS (SELECT *, CAST(s AS DOUBLE)/n AS mu,
             CAST(q AS DOUBLE) - (CAST(s AS DOUBLE)/n)*CAST(s AS DOUBLE)
               AS den
      FROM a)
SELECT user_id, n,
  round((CAST(sxy1 AS DOUBLE) - mu*CAST(st1 AS DOUBLE)
         - mu*CAST(sh1 AS DOUBLE) + CAST(n-1 AS DOUBLE)*mu*mu)/den, 6)
    AS acf1,
  round((CAST(sxy2 AS DOUBLE) - mu*CAST(st2 AS DOUBLE)
         - mu*CAST(sh2 AS DOUBLE) + CAST(n-2 AS DOUBLE)*mu*mu)/den, 6)
    AS acf2,
  round((CAST(sxy3 AS DOUBLE) - mu*CAST(st3 AS DOUBLE)
         - mu*CAST(sh3 AS DOUBLE) + CAST(n-3 AS DOUBLE)*mu*mu)/den, 6)
    AS acf3
FROM m WHERE n > 3 AND den <> 0
"""


def q_tfidf_terms(sf_dir):
    """★-checked per-document TF-IDF top terms (stages/pack.py):
    two-pass DF build + broadcast score; integer rank keys
    (tf DESC, df ASC, term ASC) and a mirrored tf·ln(N/df) score."""
    from ..stages.pack import tfidf_top_terms

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(tfidf_top_terms(docs, top=3))


TFIDF_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS term
  FROM documents),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
dft AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
n AS (SELECT count(*) AS nd FROM documents),
r AS (SELECT tf.doc_id, tf.term, tf.tf, dft.df,
             row_number() OVER (PARTITION BY tf.doc_id
                                ORDER BY tf.tf DESC, dft.df ASC,
                                         tf.term ASC) AS rn
      FROM tf JOIN dft USING (term))
SELECT doc_id, term, tf, df, rn,
       round(CAST(tf AS DOUBLE) * ln(CAST(nd AS DOUBLE)/df), 6) AS tfidf
FROM r, n WHERE rn <= 3
"""


def q_local_supplier_volume(sf_dir):
    """★-checked TPC-H-Q5-style 5-way star join: 1996 revenue per
    ASIA nation from lineitems whose supplier and ordering customer
    share the nation.  The 100-TB plan: the three true dimensions
    (region, nation, supplier) are broadcast via one ``ray.put``;
    customer→nation is broadcast as an int array keyed by custkey
    (documented dimension-fits-memory assumption — the scale path is
    one more hash join); orders are date-filtered and dimension-
    enriched map-side; lineitem is pruned at the read, enriched with
    its supplier nation map-side, and PRE-AGGREGATED to
    (orderkey, supp_nation) exact-int cells before the single
    large×large hash join on orderkey; the same-nation filter and the
    final nation groupby run on join output that is already
    cell-sized.  Revenue = Σ price_cents·(100−disc_pct)/10⁴."""
    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1997-01-01", "us")

    region = ray.data.read_parquet(f"{sf_dir}/region.parquet").to_pandas()
    nation = ray.data.read_parquet(f"{sf_dir}/nation.parquet").to_pandas()
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()

    rkey = region.loc[region["r_name"] == "ASIA", "r_regionkey"].iloc[0]
    asia = nation[nation["n_regionkey"] == rkey]
    asia_ids = np.sort(asia["n_nationkey"].to_numpy(np.int64))
    nname = dict(zip(asia["n_nationkey"].astype(np.int64),
                     asia["n_name"]))
    smap_k = np.sort(supp["s_suppkey"].to_numpy(np.int64))
    smap_v = supp.set_index("s_suppkey").loc[smap_k, "s_nationkey"] \
        .to_numpy(np.int64)
    cmap_k = np.sort(cust["c_custkey"].to_numpy(np.int64))
    cmap_v = cust.set_index("c_custkey").loc[cmap_k, "c_nationkey"] \
        .to_numpy(np.int64)
    dims = ray.put((asia_ids, smap_k, smap_v, cmap_k, cmap_v))

    def orders_enrich(df: pd.DataFrame) -> pd.DataFrame:
        aid, _, _, ck, cv = ray.get(dims)
        d = df["o_orderdate"].to_numpy("datetime64[us]")
        df = df[(d >= lo) & (d < hi)]
        cnat = cv[np.searchsorted(ck, df["o_custkey"].to_numpy(np.int64))]
        keep = np.isin(cnat, aid)
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64)[keep],
            "c_nat": cnat[keep]})

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(orders_enrich, batch_format="pandas")

    def li_cells(df: pd.DataFrame) -> pd.DataFrame:
        aid, sk, sv, _, _ = ray.get(dims)
        snat = sv[np.searchsorted(sk, df["l_suppkey"].to_numpy(np.int64))]
        keep = np.isin(snat, aid)
        df = df[keep]
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64) * 100.0
                    ).astype(np.int64)
        dsc = np.rint(df["l_discount"].to_numpy(np.float64) * 100.0
                      ).astype(np.int64)
        g = pd.DataFrame({"l_orderkey": df["l_orderkey"].to_numpy(np.int64),
                          "s_nat": snat[keep], "_rev": p * (100 - dsc)})
        return g.groupby(["l_orderkey", "s_nat"], as_index=False).sum()

    cells = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_cells, batch_format="pandas")

    joined = cells.join(ords, "inner", num_partitions=partition_count(),
                        on=("l_orderkey",))

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["s_nat"].to_numpy() == df["c_nat"].to_numpy()]
        return df.groupby("s_nat", as_index=False)["_rev"].sum()

    agg = (joined.map_batches(per_block, batch_format="pandas")
           .to_pandas().groupby("s_nat", as_index=False)["_rev"].sum())
    agg["n_name"] = agg["s_nat"].map(nname)
    out = pd.DataFrame({
        "n_name": agg["n_name"],
        "revenue": agg["_rev"].to_numpy(np.float64) / 10000.0,
    }).sort_values("revenue", ascending=False).reset_index(drop=True)
    return round6(out)


Q5_SQL = """
SELECT n_name,
       round(CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
                 * (100 - CAST(round(l_discount*100) AS BIGINT)))
             AS DOUBLE)/10000.0, 6) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1996-01-01'
  AND o_orderdate < DATE '1997-01-01'
GROUP BY 1
"""


def q_rolling_median(sf_dir):
    """★-checked trailing-7-day windowed EXACT median per (user,
    active day) (stages/window.py): bounded ≤7× row replication onto
    a key-offset day axis + vectorized segment lerp, bit-equal to the
    DuckDB range-join quantile_cont oracle."""
    from ..stages.window import rolling_window_median

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return round6(rolling_window_median(ev, window_days=7))


ROLLING_MEDIAN_SQL = """
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day
  FROM events)
SELECT d.user_id, d.day,
       round(quantile_cont(e.value, 0.5), 6) AS p50_7d,
       count(*) AS n_window
FROM d JOIN events e
  ON e.user_id = d.user_id
 AND epoch_us(e.ts) // 86400000000 BETWEEN d.day - 6 AND d.day
GROUP BY 1, 2
"""


def q_type_entropy(sf_dir):
    """★-checked per-user event-type Shannon entropy
    (stages/analytics.py): exact int counts, mirrored
    ln(n) − Σc·ln(c)/n closing expression."""
    from ..stages.analytics import type_entropy

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return round6(type_entropy(ev))


TYPE_ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS c
  FROM events GROUP BY 1, 2),
a AS (
  SELECT user_id, CAST(sum(c) AS BIGINT) AS n, count(*) AS n_types,
         sum(CAST(c AS DOUBLE) * ln(CAST(c AS DOUBLE))) AS s
  FROM c GROUP BY 1)
SELECT user_id, n, n_types,
       round(ln(CAST(n AS DOUBLE)) - s / CAST(n AS DOUBLE), 6) AS entropy
FROM a
"""


def q_lm_score(sf_dir):
    """★-checked self-trained bigram LM cross-entropy per document
    (stages/pack.py): corpus bigram/unigram counts broadcast as an
    integer-coded model; per-doc add-one-smoothed xent mirrored
    op-for-op by a positional self-join SQL oracle."""
    from ..stages.pack import bigram_lm_score

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(bigram_lm_score(docs))


LM_SCORE_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+')) AS w,
         generate_subscripts(
           regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'), 1) AS pos
  FROM documents),
bg AS (
  SELECT a.doc_id, a.w AS w1, b.w AS w2
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
bgc AS (SELECT w1, w2, count(*) AS cb FROM bg GROUP BY 1, 2),
ugc AS (SELECT w AS w1, count(*) AS cu FROM tok GROUP BY 1),
v AS (SELECT count(DISTINCT w) AS vs FROM tok),
terms AS (
  SELECT bg.doc_id,
         ln((CAST(cb AS DOUBLE) + 1) / (CAST(cu AS DOUBLE) + vs)) AS t
  FROM bg JOIN bgc USING (w1, w2) JOIN ugc USING (w1), v)
SELECT doc_id, count(*) AS n_bigrams,
       round(-sum(t)/count(*), 6) AS xent
FROM terms GROUP BY 1
"""


_PARITY_MAX_ROWS = 50_000  # serial-replay gates only at test scales


def _assert_kmeans_parity(out: pd.DataFrame, ids: np.ndarray,
                          X: np.ndarray, k: int, n_iter: int) -> None:
    """Serial replay of kmeans_distributed's exact deterministic
    contract (init = k smallest ids; d² = −2X·Cᵀ + ‖c‖², argmin ties →
    smallest cluster; empty keeps previous centroid; n_iter rounds).
    Sizes must match exactly, centroid norms / inertia to 1e-8 — any
    perturbation of the distributed path trips it."""
    order = np.argsort(ids, kind="stable")[:k]  # k smallest ids, ascending
    C = X[order].astype(np.float64).copy()
    cnt = np.zeros(k, np.int64)
    inert_per = np.zeros(k, np.float64)
    for rnd in range(n_iter + 1):
        d2 = -2.0 * (X @ C.T) + (C * C).sum(axis=1)[None, :]
        a = np.argmin(d2, axis=1)
        inert = d2[np.arange(len(X)), a] + (X * X).sum(axis=1)
        cnt = np.bincount(a, minlength=k).astype(np.int64)
        inert_per = np.zeros(k, np.float64)
        np.add.at(inert_per, a, inert)
        if rnd < n_iter:
            nz = cnt > 0
            sums = np.zeros_like(C)
            np.add.at(sums, a, X)
            C = C.copy()
            C[nz] = sums[nz] / cnt[nz, None]
    if not np.array_equal(out["size"].to_numpy(np.int64), cnt):
        raise AssertionError(
            f"kmeans parity: sizes {out['size'].tolist()} != "
            f"{cnt.tolist()}")
    cn = np.sqrt((C * C).sum(axis=1))
    if not np.allclose(out["centroid_norm"].to_numpy(np.float64), cn,
                       rtol=1e-8, atol=1e-8):
        raise AssertionError("kmeans parity: centroid norms diverge")
    if not np.allclose(out["inertia"].to_numpy(np.float64), inert_per,
                       rtol=1e-8, atol=1e-8):
        raise AssertionError("kmeans parity: per-cluster inertia diverges")


def _assert_pca_parity(out: pd.DataFrame, X: np.ndarray,
                       n_iter: int) -> None:
    """Serial replay of pca_power's exact contract (v₀=e₀, centered
    covariance-free update, n_iter normalized rounds, sign fix).
    Loadings to 1e-6, explained ratio to 1e-6 rel."""
    X = X.astype(np.float64)
    n, d = X.shape
    sx = X.sum(axis=0)
    mu = sx / n
    ss = float((X * X).sum())
    total_var = (ss - n * float(mu @ mu)) / (n - 1)
    v = np.zeros(d)
    v[0] = 1.0
    lam = 0.0
    for _ in range(n_iter):
        p = X @ v
        w = (X.T @ p) - mu * float(p.sum()) - sx * float(mu @ v) \
            + n * mu * float(mu @ v)
        lam = float(v @ w) / (n - 1)
        v = w / np.linalg.norm(w)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    if not np.allclose(out["loading"].to_numpy(np.float64), v,
                       rtol=1e-6, atol=1e-6):
        raise AssertionError("pca parity: loadings diverge")
    ratio = float(out["explained_ratio"].iloc[0])
    if not abs(ratio - lam / total_var) <= 1e-6 * max(1e-12, abs(ratio)):
        raise AssertionError(
            f"pca parity: ratio {ratio} vs {lam / total_var}")


def q_pca(sf_dir):
    """Distributed top-principal-component via covariance-free power
    iteration (stages/ann.py::pca_power).  Rows-only: the iterative
    fit is not SQL-expressible; hardened by _assert_pca_parity — a
    bit-level serial replay of the same deterministic contract on the
    pulled corpus (gated to ≤50k rows: test scales), raising on any
    divergence — plus the unit-norm / ratio-bounds invariants."""
    from ..stages.ann import pca_power

    # materialize once: power iteration re-scans the corpus every
    # round — pinning the (small) embedding table in the object store
    # avoids 30 parquet re-reads (at spec scale the corpus streams
    # from storage per round regardless; this is the small-side case)
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    ).materialize()
    out = pca_power(emb, n_iter=30)
    v = out["loading"].to_numpy()
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert 0.0 < out["explained_ratio"].iloc[0] <= 1.0
    if emb.count() <= _PARITY_MAX_ROWS:
        X = np.stack([np.asarray(r, np.float64) for r in
                      emb.to_pandas()["embedding"]])
        _assert_pca_parity(out, X, n_iter=30)
    return round6(out)


def q_kmeans(sf_dir):
    """Distributed Lloyd's k-means over the embeddings table
    (stages/ann.py).  Rows-only: the iterative fit is not
    SQL-expressible; hardened by _assert_kmeans_parity — a serial
    replay of the same deterministic contract on the pulled corpus
    (gated to ≤50k rows: test scales) with exact size comparison —
    plus the in-stage Lloyd inertia-monotonicity assertion and the
    total-size check."""
    from ..stages.ann import kmeans_distributed

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = kmeans_distributed(emb, k=8, n_iter=5)
    assert int(out["size"].sum()) == emb.count()
    if emb.count() <= _PARITY_MAX_ROWS:
        df = emb.to_pandas()
        X = np.stack([np.asarray(r, np.float64) for r in df["embedding"]])
        _assert_kmeans_parity(out, df["vec_id"].to_numpy(), X,
                              k=8, n_iter=5)
    return round6(out)


def q_changepoint(sf_dir):
    """★-checked per-key change-point detection
    (stages/tsmath.py::changepoint_split): the between-segment
    mean-shift argmax is a pure-int64 score (n_L·n_R-scaled), so the
    winning split is bit-reproducible; segment means are one mirrored
    float expression."""
    from ..stages.tsmath import changepoint_split

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(changepoint_split(ev))


CHANGEPOINT_SQL = """
WITH o AS (
  SELECT user_id,
         epoch_us(ts) AS ts_us,
         row_number() OVER w AS t,
         count(*) OVER (PARTITION BY user_id) AS n,
         sum(CAST(round(value*100) AS BIGINT)) OVER w AS sl,
         sum(CAST(round(value*100) AS BIGINT))
             OVER (PARTITION BY user_id) AS s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
sc AS (
  SELECT user_id, n, t, ts_us, sl, s,
         abs(sl*(n - t) - (s - sl)*t) AS score
  FROM o WHERE t < n),
best AS (
  SELECT * FROM sc
  QUALIFY row_number()
      OVER (PARTITION BY user_id ORDER BY score DESC, t) = 1)
SELECT user_id, n, t AS split_t, ts_us AS split_ts_us,
       round((CAST(sl AS DOUBLE) / CAST(t AS DOUBLE)) / 100.0, 6)
           AS mean_left,
       round((CAST(s - sl AS DOUBLE) / CAST(n - t AS DOUBLE)) / 100.0, 6)
           AS mean_right,
       round((CAST(s - sl AS DOUBLE) / CAST(n - t AS DOUBLE)) / 100.0
             - (CAST(sl AS DOUBLE) / CAST(t AS DOUBLE)) / 100.0, 6)
           AS delta,
       -- sum(BIGINT) is HUGEINT in DuckDB and pandas-converts to
       -- float64; the engine emits int64 — cast so both sides hash
       -- as the same integer dtype (driver r03 hash-fail root cause)
       CAST(score AS BIGINT) AS score
FROM best ORDER BY user_id
"""


def q_weighted_sample(sf_dir):
    """★-checked weighted sampling without replacement (priority
    sampling, stages/sample.py::priority_sample): arithmetic-hash
    priorities (IEEE mul+div of exact ints — no transcendental), so
    the selected set and the w_est estimator are bit-reproducible in
    SQL."""
    from ..stages.sample import priority_sample

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "value"],
    )
    return round6(priority_sample(ev, k=50))


WEIGHTED_SAMPLE_SQL = """
WITH p AS (
  SELECT event_id, user_id,
         abs(CAST(round(value*100) AS BIGINT)) + 1 AS w,
         (event_id * 2654435761) % 4294967296 + 1 AS h
  FROM events),
q AS (
  SELECT event_id, user_id, w,
         (CAST(w AS DOUBLE) * 4294967296.0) / CAST(h AS DOUBLE) AS pri
  FROM p),
r AS (
  SELECT *, row_number() OVER (ORDER BY pri DESC, event_id) AS rn
  FROM q),
tau AS (
  SELECT coalesce(max(pri) FILTER (WHERE rn = 51), 0.0) AS tau FROM r)
SELECT event_id, user_id, w, round(pri, 6) AS pri,
       round(greatest(CAST(w AS DOUBLE), tau), 6) AS w_est
FROM r, tau
WHERE rn <= 50
ORDER BY rn
"""


def q_inverted_index(sf_dir):
    """★-checked inverted-index build
    (stages/pack.py::build_inverted_index): token → (df, tf, capped
    posting list) over the documents table, all-integer/string — the
    top-100 tokens by (df DESC, token) are bit-reproducible in SQL."""
    from ..stages.pack import build_inverted_index

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    idx = build_inverted_index(docs, max_postings=15)
    return (idx.sort_values(["df", "token"], ascending=[False, True])
            .head(100).reset_index(drop=True))


INVERTED_INDEX_SQL = r"""
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS token
  FROM documents),
cell AS (SELECT token, doc_id, count(*) AS c FROM tok GROUP BY 1, 2),
ranked AS (
  SELECT token, doc_id,
         row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn
  FROM cell),
posts AS (
  SELECT token,
         string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
           AS postings
  FROM ranked WHERE rn <= 15 GROUP BY token),
agg AS (SELECT token, count(*) AS df,
               CAST(sum(c) AS BIGINT) AS tf
        FROM cell GROUP BY token)
SELECT a.token, a.df, a.tf, p.postings
FROM agg a JOIN posts p USING (token)
ORDER BY a.df DESC, a.token LIMIT 100
"""


def q_pagerank(sf_dir):
    """★-checked PageRank over the event-type transition graph
    (stages/analytics.py::pagerank_types): distributed edge build,
    fixed-10-iteration deterministic update; the SQL twin unrolls the
    identical update as 10 chained CTEs."""
    from ..stages.analytics import pagerank_types

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    return round6(pagerank_types(ev, iters=10))


def _pagerank_sql(iters: int = 10) -> str:
    """The engine's fixed-round update unrolled as chained CTEs —
    each pr{i} is a plain aggregation over pr{i-1} (no recursive-CTE
    aggregation restrictions), every float op mirrored.  Each step reads
    its predecessor twice, so it is MATERIALIZED: inlined, the plan
    doubles per step (2^iters)."""
    step = """
pr{i} AS MATERIALIZED (
  SELECT n2.node,
         (1.0 - 0.85)/nn.nd
         + 0.85*(coalesce(f.inflow, 0.0) + d.dang/nn.nd) AS r
  FROM nodes n2
  CROSS JOIN nn
  LEFT JOIN (
    SELECT e.dst AS node, sum((p.r * e.n) / od.w) AS inflow
    FROM pr{j} p JOIN e ON e.src = p.node
    JOIN outdeg od ON od.src = p.node
    GROUP BY 1) f ON f.node = n2.node
  CROSS JOIN (
    SELECT coalesce(sum(p.r), 0.0) AS dang
    FROM pr{j} p LEFT JOIN outdeg od ON od.src = p.node
    WHERE od.src IS NULL) d
)"""
    chain = ",".join(step.format(i=i, j=i - 1)
                     for i in range(1, iters + 1))
    return f"""
WITH o AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events),
e AS (SELECT event_type AS src, nxt AS dst, count(*) AS n
      FROM o WHERE nxt IS NOT NULL GROUP BY 1, 2),
outdeg AS (SELECT src, sum(n) AS w FROM e GROUP BY 1),
nodes AS (SELECT DISTINCT event_type AS node FROM events),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS nd FROM nodes),
pr0 AS (SELECT node, 1.0/nn.nd AS r FROM nodes, nn),
{chain}
SELECT n.node AS event_type,
       CAST(coalesce(od.w, 0) AS BIGINT) AS out_n,
       round(p.r, 6) AS pagerank
FROM nodes n
JOIN pr{iters} p ON p.node = n.node
LEFT JOIN outdeg od ON od.src = n.node
ORDER BY n.node
"""


PAGERANK_SQL = _pagerank_sql(10)


def q_bm25(sf_dir):
    """★-checked BM25 retrieval (stages/pack.py::bm25_topk): top-20
    docs against the 3 highest-df tokens; tf/df/dl exact ints, one
    mirrored float scoring expression with a fixed left-associated
    3-term sum."""
    from ..stages.pack import bm25_topk

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(bm25_topk(docs, n_terms=3, top=20))


BM25_SQL = r"""
WITH d0 AS (
  SELECT doc_id,
         regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+') AS toks
  FROM documents),
dlt AS (SELECT doc_id, len(toks) AS dl FROM d0),
tok AS (SELECT doc_id, unnest(toks) AS token FROM d0),
dft AS (SELECT token, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS nd FROM documents),
ad AS (SELECT CAST(sum(dl) AS DOUBLE) / (SELECT nd FROM nn) AS avgdl
       FROM dlt),
terms AS (
  SELECT token, df,
         row_number() OVER (ORDER BY df DESC, token) AS rk
  FROM dft QUALIFY rk <= 3),
t1 AS (SELECT token, df FROM terms WHERE rk = 1),
t2 AS (SELECT token, df FROM terms WHERE rk = 2),
t3 AS (SELECT token, df FROM terms WHERE rk = 3),
tfs AS (
  SELECT doc_id,
         count(*) FILTER (WHERE token = (SELECT token FROM t1)) AS tf1,
         count(*) FILTER (WHERE token = (SELECT token FROM t2)) AS tf2,
         count(*) FILTER (WHERE token = (SELECT token FROM t3)) AS tf3
  FROM tok GROUP BY 1),
j AS (
  SELECT l.doc_id, l.dl,
         coalesce(t.tf1, 0) AS tf1, coalesce(t.tf2, 0) AS tf2,
         coalesce(t.tf3, 0) AS tf3
  FROM dlt l LEFT JOIN tfs t USING (doc_id)),
idf AS (
  SELECT
    ln(((nd - (SELECT df FROM t1)) + 0.5)
       / (CAST((SELECT df FROM t1) AS DOUBLE) + 0.5) + 1.0) AS i1,
    ln(((nd - (SELECT df FROM t2)) + 0.5)
       / (CAST((SELECT df FROM t2) AS DOUBLE) + 0.5) + 1.0) AS i2,
    ln(((nd - (SELECT df FROM t3)) + 0.5)
       / (CAST((SELECT df FROM t3) AS DOUBLE) + 0.5) + 1.0) AS i3
  FROM nn),
sc AS (
  SELECT doc_id, dl, tf1, tf2, tf3,
    (i1 * ((CAST(tf1 AS DOUBLE) * (1.2 + 1.0))
           / (CAST(tf1 AS DOUBLE)
              + 1.2*((1.0 - 0.75) + 0.75*(CAST(dl AS DOUBLE)/avgdl))))
     + i2 * ((CAST(tf2 AS DOUBLE) * (1.2 + 1.0))
           / (CAST(tf2 AS DOUBLE)
              + 1.2*((1.0 - 0.75) + 0.75*(CAST(dl AS DOUBLE)/avgdl)))))
     + i3 * ((CAST(tf3 AS DOUBLE) * (1.2 + 1.0))
           / (CAST(tf3 AS DOUBLE)
              + 1.2*((1.0 - 0.75) + 0.75*(CAST(dl AS DOUBLE)/avgdl))))
      AS score
  FROM j, idf, ad)
SELECT doc_id, dl, tf1, tf2, tf3, round(score, 6) AS score
FROM sc
QUALIFY row_number() OVER (ORDER BY score DESC, doc_id) <= 20
ORDER BY score DESC, doc_id
"""


def q_zorder_stats(sf_dir):
    """★-checked Z-order clustering key
    (stages/partition.py::zorder_key): per-Morton-cell row/user/time
    stats, all-integer — the SQL twin recomputes the bit interleave
    with DuckDB bit ops.  The layout stage itself (zorder_sort) is
    pytest-verified for the contiguous-box locality property."""
    from ..stages.partition import zorder_key

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def cell_partial(df: pd.DataFrame) -> pd.DataFrame:
        tus = df["ts"].to_numpy("datetime64[us]").view(np.int64)
        z = zorder_key(df["user_id"].to_numpy(np.int64), tus, bits=4)
        g = (pd.DataFrame({"zkey": z, "user_id": df["user_id"],
                           "tus": tus})
             .groupby(["zkey", "user_id"], as_index=False)
             .agg(c=("tus", "size"), lo=("tus", "min"),
                  hi=("tus", "max")))
        return g

    def per_cell(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({
                "zkey": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "n_users": pd.Series(dtype="int64"),
                "ts_min_us": pd.Series(dtype="int64"),
                "ts_max_us": pd.Series(dtype="int64")})
        g = df.groupby(["zkey", "user_id"], as_index=False).agg(
            c=("c", "sum"), lo=("lo", "min"), hi=("hi", "max"))
        out = g.groupby("zkey", as_index=False).agg(
            n=("c", "sum"), n_users=("user_id", "size"),
            ts_min_us=("lo", "min"), ts_max_us=("hi", "max"))
        for c in out.columns:
            out[c] = out[c].astype(np.int64)
        return out

    cells = ev.map_batches(cell_partial, batch_format="pandas")
    out = group_apply(cells, per_cell, key="zkey").to_pandas()
    return out.sort_values("zkey").reset_index(drop=True)


ZORDER_SQL = """
WITH z AS (
  SELECT user_id, epoch_us(ts) AS tus,
         (user_id % 16) AS a,
         ((epoch_us(ts) // 86400000000) % 16) AS b
  FROM events),
k AS (
  SELECT user_id, tus,
         ((a & 1) << 0) | (((a >> 1) & 1) << 2)
       | (((a >> 2) & 1) << 4) | (((a >> 3) & 1) << 6)
       | ((b & 1) << 1) | (((b >> 1) & 1) << 3)
       | (((b >> 2) & 1) << 5) | (((b >> 3) & 1) << 7) AS zkey
  FROM z)
SELECT zkey, count(*) AS n, count(DISTINCT user_id) AS n_users,
       min(tus) AS ts_min_us, max(tus) AS ts_max_us
FROM k GROUP BY 1 ORDER BY 1
"""


def q_window_finalize(sf_dir):
    """★-checked streaming window-finalization replay
    (stages/window.py::finalize_windows): watermark = exclusive
    global running max of event time in arrival order (distributed
    prefix-scan over arrival-range buckets); a row is late iff the
    watermark passed its window end + allowed lateness before it
    arrived.  All-integer output."""
    from ..stages.window import finalize_windows

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "value"],
    )
    return finalize_windows(ev, bucket_s=3600, delay_s=300,
                            n_arrival_buckets=16)


WINDOW_FINALIZE_SQL = """
WITH o AS (
  SELECT event_id, epoch_us(ts) AS tus,
         CAST(round(value*100) AS BIGINT) AS x,
         epoch_us(ts) // 3600000000 AS w,
         max(epoch_us(ts)) OVER (ORDER BY event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm
  FROM events),
f AS (
  SELECT w, x,
         CASE WHEN wm IS NOT NULL
                   AND wm >= (w + 1) * 3600000000 + 300000000
              THEN 1 ELSE 0 END AS late
  FROM o)
SELECT w AS bucket, count(*) AS n,
       CAST(sum(late) AS BIGINT) AS n_late,
       CAST(coalesce(sum(x) FILTER (WHERE late = 0), 0) AS BIGINT)
         AS sum_on_time_k
FROM f GROUP BY 1 ORDER BY 1
"""


def q_upsert(sf_dir):
    """★-checked last-write-wins upsert (stages/joins.py::upsert):
    a deterministic delta (user_id % 7 == 0 rows, value +1, ts +1h)
    merged over the base with delta-wins semantics; all-integer
    output."""
    from ..stages.joins import upsert

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    def mk_delta(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["user_id"] % 7 == 0].copy()
        df["value"] = df["value"] + 1.0
        df["ts"] = df["ts"] + pd.Timedelta(hours=1)
        return df

    merged = upsert(ev, ev.map_batches(mk_delta, batch_format="pandas"),
                    key="event_id")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].to_numpy(np.int64),
            "user_id": df["user_id"].to_numpy(np.int64),
            "ts_us": df["ts"].to_numpy("datetime64[us]").view(np.int64),
            "value_k": np.rint(df["value"].to_numpy(np.float64)
                               * 100.0).astype(np.int64),
            "src": df["_src"].to_numpy(np.int64),
        })

    out = merged.map_batches(project, batch_format="pandas").to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


UPSERT_SQL = """
WITH delta AS (
  SELECT event_id, user_id, epoch_us(ts) + 3600000000 AS ts_us,
         CAST(round((value + 1.0)*100) AS BIGINT) AS value_k, 1 AS src
  FROM events WHERE user_id % 7 = 0),
base AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         CAST(round(value*100) AS BIGINT) AS value_k, 0 AS src
  FROM events),
u AS (SELECT * FROM base UNION ALL SELECT * FROM delta),
w AS (SELECT *, row_number()
        OVER (PARTITION BY event_id ORDER BY src DESC) AS rn FROM u)
SELECT event_id, user_id, ts_us, value_k, CAST(src AS BIGINT) AS src
FROM w WHERE rn = 1 ORDER BY event_id
"""


def q_stream_digest(sf_dir):
    """★-checked stable-order text digest: per key, the md5 of the
    '|'-joined props stream under (ts, event_id) ordering — the
    north-rule per-turn-text-equality invariant as a driver-verified
    query (any row lost, duplicated, reordered, or byte-modified
    anywhere in the exchange flips the digest).  One key-hash
    exchange; per-partition ordered join + hashlib."""
    import hashlib

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "props"],
    )

    def per_key(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64"),
                                 "digest": pd.Series(dtype=object)})
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        g = df.groupby("user_id", sort=True)["props"]
        joined = g.agg(lambda s: "|".join(s.astype(str)))
        return pd.DataFrame({
            "user_id": joined.index.to_numpy(np.int64),
            "n": g.size().to_numpy(np.int64),
            "digest": [hashlib.md5(t.encode("utf-8")).hexdigest()
                       for t in joined],
        })

    out = group_apply(ev, per_key, key="user_id").to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


STREAM_DIGEST_SQL = """
SELECT user_id, count(*) AS n,
       md5(string_agg(props, '|' ORDER BY ts, event_id)) AS digest
FROM events GROUP BY 1 ORDER BY 1
"""


def q_one_hot(sf_dir):
    """★-checked one-hot encoding
    (stages/normalize.py::one_hot_encode): indicator columns for the
    data-derived alphabet (the generator's fixed five event types —
    same hardcoding precedent as the funnel steps); exact ints."""
    from ..stages.normalize import one_hot_encode

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type"]
    )
    out = one_hot_encode(ev).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True)


ONE_HOT_SQL = """
SELECT event_id,
       CAST(event_type = 'click' AS BIGINT) AS oh_click,
       CAST(event_type = 'error' AS BIGINT) AS oh_error,
       CAST(event_type = 'purchase' AS BIGINT) AS oh_purchase,
       CAST(event_type = 'signup' AS BIGINT) AS oh_signup,
       CAST(event_type = 'view' AS BIGINT) AS oh_view
FROM events ORDER BY event_id
"""


def q_zscore_scale(sf_dir):
    """★-checked per-key z-score scaling
    (stages/normalize.py::zscore_scale_per_key): cells-broadcast
    two-pass, mirrored mean/SD/z expressions, NULL for zero-variance
    keys."""
    from ..stages.normalize import zscore_scale_per_key

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value"],
    )
    out = zscore_scale_per_key(ev).to_pandas()
    return round6(out.sort_values(["user_id", "event_id"])
                  .reset_index(drop=True))


ZSCORE_SCALE_SQL = """
WITH q AS (
  SELECT user_id, event_id,
         CAST(round(value*100) AS BIGINT) AS k
  FROM events),
e AS (SELECT user_id, count(*) AS n, sum(k) AS s, sum(k*k) AS qq
      FROM q GROUP BY 1),
m AS (SELECT user_id,
        (CAST(s AS DOUBLE)/CAST(n AS DOUBLE))/100.0 AS mean,
        sqrt(CAST(qq AS DOUBLE)/CAST(n AS DOUBLE)
             - (CAST(s AS DOUBLE)/CAST(n AS DOUBLE))
               * (CAST(s AS DOUBLE)/CAST(n AS DOUBLE)))/100.0 AS sd
      FROM e)
SELECT q.user_id, q.event_id,
       round((CAST(q.k AS DOUBLE)/100.0 - m.mean)
             / nullif(m.sd, 0.0), 6) AS z
FROM q JOIN m USING (user_id)
ORDER BY q.user_id, q.event_id
"""


def q_target_encode(sf_dir):
    """★-checked leave-one-out target encoding
    (stages/normalize.py::target_encode_loo): exact int64 category
    sums, one mirrored float expression, NULL for singletons."""
    from ..stages.normalize import target_encode_loo

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
    )
    out = target_encode_loo(ev).to_pandas()
    return round6(out.sort_values("event_id").reset_index(drop=True))


TARGET_ENCODE_SQL = """
WITH q AS (
  SELECT event_id, event_type,
         CAST(round(value*100) AS BIGINT) AS k
  FROM events),
c AS (SELECT event_type, sum(k) AS s, count(*) AS n
      FROM q GROUP BY 1)
SELECT q.event_id, q.event_type,
       round((CAST(c.s - q.k AS DOUBLE)
              / nullif(CAST(c.n - 1 AS DOUBLE), 0.0)) / 100.0, 6)
         AS loo_mean
FROM q JOIN c USING (event_type)
ORDER BY q.event_id
"""


def q_quantile_transform(sf_dir):
    """★-checked global quantile transform
    (stages/normalize.py::quantile_transform_global): tie-aware
    percent_rank over the whole value column, rows never shuffled —
    the distinct-value cell table is the only exchange."""
    from ..stages.normalize import quantile_transform_global

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    out = quantile_transform_global(ev).to_pandas()
    return round6(out.sort_values("event_id").reset_index(drop=True))


QUANTILE_TRANSFORM_SQL = """
WITH q AS (
  SELECT event_id, CAST(round(value*100) AS BIGINT) AS value_k
  FROM events),
r AS (
  SELECT event_id, value_k,
         percent_rank() OVER (ORDER BY value_k) AS pr
  FROM q)
SELECT event_id, value_k, round(pr, 6) AS pct_rank
FROM r ORDER BY event_id
"""


def q_minmax_scale(sf_dir):
    """★-checked per-key min-max scaling
    (stages/normalize.py::minmax_scale_per_key): cells-broadcast
    two-pass — rows never shuffle; one mirrored float division,
    NULLIF semantics for constant keys."""
    from ..stages.normalize import minmax_scale_per_key

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value"],
    )
    out = minmax_scale_per_key(ev).to_pandas()
    return round6(out.sort_values(["user_id", "event_id"])
                  .reset_index(drop=True))


MINMAX_SCALE_SQL = """
WITH q AS (
  SELECT user_id, event_id,
         CAST(round(value*100) AS BIGINT) AS k
  FROM events),
e AS (SELECT user_id, min(k) AS lo, max(k) AS hi
      FROM q GROUP BY 1)
SELECT q.user_id, q.event_id,
       round(CAST(q.k - e.lo AS DOUBLE)
             / nullif(CAST(e.hi - e.lo AS DOUBLE), 0.0), 6) AS scaled
FROM q JOIN e USING (user_id)
ORDER BY q.user_id, q.event_id
"""


def q_corr_matrix(sf_dir):
    """★-checked pairwise Pearson correlation matrix over lineitem's
    four measures (stages/analytics.py::corr_matrix): one-pass int64
    sufficient statistics, one mirrored float expression per pair."""
    from ..stages.analytics import corr_matrix

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount",
                 "l_tax"],
    )
    return round6(corr_matrix(li))


CORR_MATRIX_SQL = """
WITH q AS (
  SELECT CAST(round(l_quantity*100) AS BIGINT) AS x0,
         CAST(round(l_extendedprice*1) AS BIGINT) AS x1,
         CAST(round(l_discount*10000) AS BIGINT) AS x2,
         CAST(round(l_tax*10000) AS BIGINT) AS x3
  FROM lineitem),
s AS (SELECT CAST(count(*) AS DOUBLE) AS n,
             CAST(sum(x0) AS DOUBLE) AS s0, CAST(sum(x1) AS DOUBLE) AS s1,
             CAST(sum(x2) AS DOUBLE) AS s2, CAST(sum(x3) AS DOUBLE) AS s3,
             CAST(sum(x0*x0) AS DOUBLE) AS p00, CAST(sum(x0*x1) AS DOUBLE) AS p01,
             CAST(sum(x0*x2) AS DOUBLE) AS p02, CAST(sum(x0*x3) AS DOUBLE) AS p03,
             CAST(sum(x1*x1) AS DOUBLE) AS p11, CAST(sum(x1*x2) AS DOUBLE) AS p12,
             CAST(sum(x1*x3) AS DOUBLE) AS p13, CAST(sum(x2*x2) AS DOUBLE) AS p22,
             CAST(sum(x2*x3) AS DOUBLE) AS p23, CAST(sum(x3*x3) AS DOUBLE) AS p33
      FROM q)
SELECT * FROM (
  SELECT 'l_quantity' AS col_a, 'l_extendedprice' AS col_b,
         round((n*p01 - s0*s1)/(sqrt(n*p00 - s0*s0)*sqrt(n*p11 - s1*s1)), 6) AS r FROM s
  UNION ALL SELECT 'l_quantity', 'l_discount',
         round((n*p02 - s0*s2)/(sqrt(n*p00 - s0*s0)*sqrt(n*p22 - s2*s2)), 6) FROM s
  UNION ALL SELECT 'l_quantity', 'l_tax',
         round((n*p03 - s0*s3)/(sqrt(n*p00 - s0*s0)*sqrt(n*p33 - s3*s3)), 6) FROM s
  UNION ALL SELECT 'l_extendedprice', 'l_discount',
         round((n*p12 - s1*s2)/(sqrt(n*p11 - s1*s1)*sqrt(n*p22 - s2*s2)), 6) FROM s
  UNION ALL SELECT 'l_extendedprice', 'l_tax',
         round((n*p13 - s1*s3)/(sqrt(n*p11 - s1*s1)*sqrt(n*p33 - s3*s3)), 6) FROM s
  UNION ALL SELECT 'l_discount', 'l_tax',
         round((n*p23 - s2*s3)/(sqrt(n*p22 - s2*s2)*sqrt(n*p33 - s3*s3)), 6) FROM s
) ORDER BY col_a, col_b
"""


def q_weighted_sample_per_key(sf_dir):
    """★-checked per-key weighted sampling
    (stages/sample.py::priority_sample_per_key): top-3 priority rows
    per user, same IEEE-exact arithmetic-hash priorities as the
    global sampler."""
    from ..stages.sample import priority_sample_per_key

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value"],
    )
    return round6(priority_sample_per_key(ev, k=3))


WEIGHTED_PER_KEY_SQL = """
WITH p AS (
  SELECT user_id, event_id,
         abs(CAST(round(value*100) AS BIGINT)) + 1 AS w,
         (event_id * 2654435761) % 4294967296 + 1 AS h
  FROM events),
q AS (
  SELECT user_id, event_id, w,
         (CAST(w AS DOUBLE) * 4294967296.0) / CAST(h AS DOUBLE) AS pri
  FROM p),
r AS (
  SELECT *, row_number() OVER (PARTITION BY user_id
                               ORDER BY pri DESC, event_id) AS rank
  FROM q)
SELECT user_id, event_id, w, round(pri, 6) AS pri,
       CAST(rank AS BIGINT) AS rank
FROM r WHERE rank <= 3 ORDER BY user_id, rank
"""


def q_melt(sf_dir):
    """★-checked UNPIVOT (stages/pivot.py::melt): lineitem's four
    measure columns to long form, k-quantized ints — mirrored by a
    UNION ALL oracle."""
    from ..stages.pivot import melt

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"],
    )
    out = melt(li, id_cols=["l_orderkey", "l_linenumber"],
               value_cols=["l_quantity", "l_extendedprice",
                           "l_discount", "l_tax"]).to_pandas()
    return (out.sort_values(["l_orderkey", "l_linenumber", "measure"])
            .reset_index(drop=True))


MELT_SQL = """
SELECT * FROM (
  SELECT l_orderkey, l_linenumber, 'l_quantity' AS measure,
         CAST(round(l_quantity*100) AS BIGINT) AS value_k
  FROM lineitem WHERE l_quantity IS NOT NULL
  UNION ALL
  SELECT l_orderkey, l_linenumber, 'l_extendedprice',
         CAST(round(l_extendedprice*100) AS BIGINT)
  FROM lineitem WHERE l_extendedprice IS NOT NULL
  UNION ALL
  SELECT l_orderkey, l_linenumber, 'l_discount',
         CAST(round(l_discount*100) AS BIGINT)
  FROM lineitem WHERE l_discount IS NOT NULL
  UNION ALL
  SELECT l_orderkey, l_linenumber, 'l_tax',
         CAST(round(l_tax*100) AS BIGINT)
  FROM lineitem WHERE l_tax IS NOT NULL
) ORDER BY l_orderkey, l_linenumber, measure
"""


def q_union_evolve(sf_dir):
    """★-checked schema-evolution union
    (stages/normalize.py::union_by_name): two layouts of the events
    table (one missing `value`, carrying a new `flag` column) union
    by name; per-source row and null counts — exact ints."""
    from ..stages.normalize import union_by_name

    a = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "value"],
    ).map_batches(lambda df: df.assign(src=np.int64(0)),
                  batch_format="pandas")
    b = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id"]
    ).map_batches(
        lambda df: (df[df["user_id"] % 2 == 0]
                    .assign(flag=np.int64(1), src=np.int64(1))),
        batch_format="pandas")
    u = union_by_name(a, b)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("src", as_index=False).agg(
            n=("src", "size"),
            n_value_null=("value", lambda s: s.isna().sum()),
            n_flag_null=("flag", lambda s: s.isna().sum()))
        for c in g.columns:
            g[c] = g[c].astype(np.int64)
        return g

    parts = u.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("src", as_index=False).sum()
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out.sort_values("src").reset_index(drop=True)


UNION_EVOLVE_SQL = """
WITH a AS (SELECT event_id, user_id, value,
                  CAST(NULL AS BIGINT) AS flag, 0 AS src FROM events),
b AS (SELECT event_id, user_id, CAST(NULL AS DOUBLE) AS value,
             1 AS flag, 1 AS src FROM events WHERE user_id % 2 = 0),
u AS (SELECT * FROM a UNION ALL SELECT * FROM b)
SELECT CAST(src AS BIGINT) AS src, count(*) AS n,
       count(*) - count(value) AS n_value_null,
       count(*) - count(flag) AS n_flag_null
FROM u GROUP BY 1 ORDER BY 1
"""


def q_expectations(sf_dir):
    """★-checked data-validation report
    (stages/validate.py::run_expectations): exact per-rule
    (n_checked, n_violations) ints — uniqueness, null, range, and the
    lineitem→orders referential rule."""
    from ..stages.validate import run_expectations

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey"]
    )
    ev_rules = run_expectations(ev, [
        {"kind": "not_null", "col": "value"},
        {"kind": "unique", "col": "event_id"},
        {"kind": "in_range", "col": "value", "lo": 0.0, "hi": 500.0,
         "name": "in_range:value:0..500"},
    ])
    fk = run_expectations(
        li,
        [{"kind": "references", "col": "l_orderkey", "ref": "orders",
          "ref_col": "o_orderkey",
          "name": "references:l_orderkey->o_orderkey"}],
        refs={"orders": orders})
    out = pd.concat([ev_rules, fk], ignore_index=True)
    return out.sort_values("rule").reset_index(drop=True)


EXPECTATIONS_SQL = """
SELECT * FROM (
  SELECT 'not_null:value' AS rule, count(*) AS n_checked,
         count(*) - count(value) AS n_violations,
         CASE WHEN count(*) - count(value) = 0 THEN 1 ELSE 0 END
           AS passed
  FROM events
  UNION ALL
  SELECT 'unique:event_id', count(event_id),
         count(event_id) - count(DISTINCT event_id),
         CASE WHEN count(event_id) = count(DISTINCT event_id)
              THEN 1 ELSE 0 END
  FROM events
  UNION ALL
  SELECT 'in_range:value:0..500', count(value),
         count(*) FILTER (WHERE CAST(round(value*100) AS BIGINT) < 0
                      OR CAST(round(value*100) AS BIGINT) > 50000),
         CASE WHEN count(*) FILTER (
                  WHERE CAST(round(value*100) AS BIGINT) < 0
                     OR CAST(round(value*100) AS BIGINT) > 50000) = 0
              THEN 1 ELSE 0 END
  FROM events
  UNION ALL
  SELECT 'references:l_orderkey->o_orderkey', count(*),
         count(*) FILTER (WHERE o.o_orderkey IS NULL),
         CASE WHEN count(*) FILTER (WHERE o.o_orderkey IS NULL) = 0
              THEN 1 ELSE 0 END
  FROM lineitem l
  LEFT JOIN (SELECT DISTINCT o_orderkey FROM orders) o
    ON l.l_orderkey = o.o_orderkey
) ORDER BY rule
"""


def q_similarity_join(sf_dir):
    """★-checked exact token-set Jaccard self-join via prefix
    filtering (stages/dedup.py::similarity_join): recall 1 by the
    prefix-filtering theorem, verified pairs only; oracle = the full
    all-pairs SQL self-join."""
    from ..stages.dedup import similarity_join

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(similarity_join(docs, threshold=0.7))


SIM_JOIN_SQL = r"""
WITH tok AS (
  SELECT DISTINCT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS token
  FROM documents),
len AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY 1),
iv AS (SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS inter
       FROM tok a JOIN tok b
         ON a.token = b.token AND a.doc_id < b.doc_id
       GROUP BY 1, 2),
j AS (SELECT iv.id_a, iv.id_b, iv.inter,
             la.dl + lb.dl - iv.inter AS uni
      FROM iv JOIN len la ON la.doc_id = iv.id_a
              JOIN len lb ON lb.doc_id = iv.id_b)
SELECT id_a, id_b, inter, uni,
       round(CAST(inter AS DOUBLE)/CAST(uni AS DOUBLE), 6) AS jac
FROM j WHERE CAST(inter AS DOUBLE)/CAST(uni AS DOUBLE) >= 0.7
ORDER BY id_a, id_b
"""


def q_join_cardinality(sf_dir):
    """★-checked join-size estimation without the join
    (stages/sketch.py::cms_join_cardinality): CM-sketch inner-product
    bound vs the exact Σ n_A(u)·n_B(u), with the ≥-exact guarantee
    asserted in-query — the planner primitive."""
    from ..stages.sketch import cms_join_cardinality

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    sub = ev.map_batches(lambda df: df[df["user_id"] % 3 == 0],
                         batch_format="pandas")
    est = cms_join_cardinality(ev, sub, col="user_id")

    def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).size()
        g["size"] = g["size"].astype(np.int64)
        return g.rename(columns={"size": "c"})

    counts = group_apply(
        ev.map_batches(cnt_partial, batch_format="pandas"),
        lambda df: df.groupby("user_id", as_index=False)["c"].sum(),
        key="user_id").to_pandas()
    counts["c"] = counts["c"].astype(np.int64)
    m = counts["user_id"] % 3 == 0
    exact = int((counts.loc[m, "c"] ** 2).sum())
    out = est.copy()
    out["exact_join_rows"] = np.int64(exact)
    assert int(out["est_join_rows"].iloc[0]) >= exact  # CM bound
    return out[["n_left", "n_right", "est_join_rows",
                "exact_join_rows"]]


def _join_card_sql(width=1024) -> str:
    from ..stages.sketch import _CMS_SALTS

    rows = []
    for j, s in enumerate(_CMS_SALTS):
        rows.append(f"""
a{j} AS (SELECT ((user_id * {s}) % 4294967296) % {width} AS b,
         count(*) AS n FROM events GROUP BY 1),
b{j} AS (SELECT ((user_id * {s}) % 4294967296) % {width} AS b,
         count(*) AS n FROM events WHERE user_id % 3 = 0 GROUP BY 1),
p{j} AS (SELECT sum(a{j}.n * b{j}.n) AS ip
         FROM a{j} JOIN b{j} USING (b))""")
    return f"""
WITH {','.join(rows)},
cl AS (SELECT count(*) AS n_left FROM events),
cr AS (SELECT count(*) AS n_right FROM events WHERE user_id % 3 = 0),
ex AS (SELECT CAST(coalesce(sum(c * c), 0) AS BIGINT) AS exact_join_rows
       FROM (SELECT user_id, count(*) AS c FROM events
             WHERE user_id % 3 = 0 GROUP BY 1))
SELECT cl.n_left, cr.n_right,
       -- ip = sum(BIGINT·BIGINT) is HUGEINT → float64 via pandas;
       -- cast to BIGINT to match the engine's int64 (r03 hash-fail)
       CAST(least(p0.ip, p1.ip, p2.ip, p3.ip) AS BIGINT)
           AS est_join_rows,
       ex.exact_join_rows
FROM cl, cr, ex, p0, p1, p2, p3
"""


JOIN_CARD_SQL = _join_card_sql(1024)


def q_transition_pmi(sf_dir):
    """★-checked PMI collocation scores over consecutive event-type
    pairs (stages/analytics.py::transition_pmi): exact int64 counts
    and marginals, one mirrored ln."""
    from ..stages.analytics import transition_pmi

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    return round6(transition_pmi(ev))


PMI_SQL = """
WITH o AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events),
e AS (SELECT event_type AS type_from, nxt AS type_to, count(*) AS n
      FROM o WHERE nxt IS NOT NULL GROUP BY 1, 2),
t AS (SELECT sum(n) AS N FROM e),
r AS (SELECT type_from, sum(n) AS ra FROM e GROUP BY 1),
c AS (SELECT type_to, sum(n) AS cb FROM e GROUP BY 1)
SELECT e.type_from, e.type_to, e.n,
       round(ln(CAST(e.n * t.N AS DOUBLE)
                / CAST(r.ra * c.cb AS DOUBLE)), 6) AS pmi
FROM e
JOIN r USING (type_from)
JOIN c USING (type_to)
CROSS JOIN t
ORDER BY e.type_from, e.type_to
"""


def q_decayed_topk(sf_dir):
    """★-checked time-decayed heavy hitters
    (stages/analytics.py::decayed_topk): per-key Σ 0.5^(age_days)
    anchored at the global max event time; power-sum mirrored (EWMA
    argument), integer tie-break."""
    from ..stages.analytics import decayed_topk

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(decayed_topk(ev, half_life_days=1.0, top=20))


DECAYED_SQL = """
WITH mx AS (SELECT max(epoch_us(ts)) AS tmax FROM events),
w AS (
  SELECT user_id,
         power(0.5, (CAST(tmax AS DOUBLE) - CAST(epoch_us(ts) AS DOUBLE))
                    / 86400000000.0) AS wgt
  FROM events, mx),
a AS (SELECT user_id, count(*) AS n, sum(wgt) AS decayed
      FROM w GROUP BY 1)
SELECT user_id, n, round(decayed, 6) AS decayed
FROM a ORDER BY a.decayed DESC, user_id LIMIT 20
"""


def q_cms_counts(sf_dir):
    """★-checked Count-Min sketch point queries
    (stages/sketch.py::cms_build/cms_estimate): per top-20 user (by
    estimate), the CM estimate vs the exact count plus the
    never-underestimates guarantee bit — all integers, the four
    multiplicative hashes mirrored in SQL."""
    from ..stages.sketch import cms_build, cms_estimate

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    sketch = cms_build(ev, col="user_id", width=1024, depth=4)

    def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False).size()
        g["size"] = g["size"].astype(np.int64)
        return g.rename(columns={"size": "c"})

    exact = group_apply(
        ev.map_batches(cnt_partial, batch_format="pandas"),
        lambda df: df.groupby("user_id", as_index=False)["c"].sum(),
        key="user_id").to_pandas()
    exact["c"] = exact["c"].astype(np.int64)
    est = cms_estimate(sketch, exact["user_id"].to_numpy())
    assert (est >= exact["c"].to_numpy()).all()   # CM guarantee
    out = pd.DataFrame({
        "user_id": exact["user_id"].to_numpy(np.int64),
        "exact_n": exact["c"].to_numpy(np.int64),
        "est_n": est,
    })
    return (out.sort_values(["est_n", "user_id"],
                            ascending=[False, True])
            .head(20).reset_index(drop=True))


def _cms_sql(width=1024) -> str:
    from ..stages.sketch import _CMS_SALTS

    joins, mins = [], []
    for j, s in enumerate(_CMS_SALTS):
        joins.append(
            f"JOIN c{j} ON c{j}.b = ((u.user_id * {s}) % 4294967296)"
            f" % {width}")
        mins.append(f"c{j}.n")
    tables = ",\n".join(
        f"c{j} AS (SELECT ((user_id * {s}) % 4294967296) % {width} AS b,"
        f" count(*) AS n FROM events GROUP BY 1)"
        for j, s in enumerate(_CMS_SALTS))
    return f"""
WITH {tables},
u AS (SELECT user_id, count(*) AS exact_n FROM events GROUP BY 1)
SELECT u.user_id, u.exact_n,
       least({', '.join(mins)}) AS est_n
FROM u
{chr(10).join(joins)}
ORDER BY est_n DESC, u.user_id LIMIT 20
"""


CMS_SQL = _cms_sql(1024)


def q_seasonal_anomaly(sf_dir):
    """★-checked seasonal (hour-of-day) anomaly thresholding
    (stages/tsmath.py::seasonal_anomaly): exact int64 profile sums,
    mirrored mean/SD/bounds expressions, integer anomaly counts."""
    from ..stages.tsmath import seasonal_anomaly

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"]
    )
    return round6(seasonal_anomaly(ev, sigma=3.0))


SEASONAL_ANOMALY_SQL = """
WITH o AS (
  SELECT (epoch_us(ts) // 3600000000) % 24 AS h,
         CAST(round(value*100) AS BIGINT) AS x
  FROM events),
p AS (SELECT h, count(*) AS n, sum(x) AS s, sum(x*x) AS q
      FROM o GROUP BY 1),
m AS (SELECT h, n,
        (CAST(s AS DOUBLE)/CAST(n AS DOUBLE))/100.0 AS mean,
        sqrt(CAST(q AS DOUBLE)/CAST(n AS DOUBLE)
             - (CAST(s AS DOUBLE)/CAST(n AS DOUBLE))
               * (CAST(s AS DOUBLE)/CAST(n AS DOUBLE)))/100.0 AS sd
      FROM p),
f AS (SELECT o.h,
        CASE WHEN CAST(o.x AS DOUBLE)/100.0 < m.mean - 3.0*m.sd
              OR CAST(o.x AS DOUBLE)/100.0 > m.mean + 3.0*m.sd
             THEN 1 ELSE 0 END AS a
      FROM o JOIN m USING (h)),
an AS (SELECT h, CAST(sum(a) AS BIGINT) AS n_anomalies
       FROM f GROUP BY 1)
SELECT m.h AS hour, m.n, round(m.mean, 6) AS mean,
       round(m.sd, 6) AS sd, an.n_anomalies
FROM m JOIN an USING (h) ORDER BY 1
"""


def q_kmv_distinct(sf_dir):
    """★-checked KMV approximate-distinct
    (stages/sketch.py::kmv_distinct): the k-smallest-hash sketch under
    the Knuth arithmetic hash is exactly SQL-expressible, so the
    driver verifies the sketch AND the estimate (the HLL sibling
    hll_distinct is now ★ too via the HUGEINT splitmix64 mirror)."""
    from ..stages.sketch import kmv_distinct

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    return round6(kmv_distinct(ev, col="user_id", k=256))


KMV_SQL = """
WITH h AS (
  SELECT DISTINCT (user_id * 2654435761) % 4294967296 AS hv
  FROM events),
s AS (SELECT hv, row_number() OVER (ORDER BY hv) AS rn FROM h),
topk AS (SELECT hv, rn FROM s WHERE rn <= 256),
agg AS (SELECT count(*) AS n_hashes, coalesce(max(hv), 0) AS kth,
               count(*) FILTER (WHERE rn = 256) AS full_k
        FROM topk)
SELECT n_hashes, kth AS kth_hash,
       round(CASE WHEN full_k = 1
             THEN ((256.0 - 1.0) * 4294967296.0) / CAST(kth AS DOUBLE)
             ELSE CAST(n_hashes AS DOUBLE) END, 6) AS est_distinct
FROM agg
"""



def q_variance_ratio(sf_dir):
    """★-checked per-key Lo–MacKinlay variance ratio at horizons 2
    and 4 (stages/tsmath.py): exact int64 difference sums, mirrored
    v_L=(q−s²/n_L)/n_L and vr_k=v_k/(k·v_1) float expressions."""
    from ..stages.tsmath import variance_ratio

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(variance_ratio(ev, ks=(2, 4)))


VARIANCE_RATIO_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT), 1) OVER w AS x1,
         lag(CAST(round(value*100) AS BIGINT), 2) OVER w AS x2,
         lag(CAST(round(value*100) AS BIGINT), 4) OVER w AS x4
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (
  SELECT user_id, count(*) AS n,
         sum(x - x1) AS s1, sum((x-x1)*(x-x1)) AS q1, count(x1) AS n1,
         sum(x - x2) AS s2, sum((x-x2)*(x-x2)) AS q2, count(x2) AS n2,
         sum(x - x4) AS s4, sum((x-x4)*(x-x4)) AS q4, count(x4) AS n4
  FROM o GROUP BY 1),
v AS (
  SELECT user_id, n,
    (CAST(q1 AS DOUBLE) - CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE)/n1)/n1 AS v1,
    (CAST(q2 AS DOUBLE) - CAST(s2 AS DOUBLE)*CAST(s2 AS DOUBLE)/n2)/n2 AS v2,
    (CAST(q4 AS DOUBLE) - CAST(s4 AS DOUBLE)*CAST(s4 AS DOUBLE)/n4)/n4 AS v4
  FROM a)
SELECT user_id, n,
       round(v2/(2.0*v1), 6) AS vr2,
       round(v4/(4.0*v1), 6) AS vr4
FROM v WHERE n > 4 AND v1 <> 0
"""


def q_xcorr_gap(sf_dir):
    """★-checked per-key value↔interarrival-gap cross-correlation at
    lags 0 and 1 (stages/tsmath.py): exact int64 sums (gap in whole
    seconds via mirrored // 10⁶), Pearson closed in one mirrored
    cast-first float expression."""
    from ..stages.tsmath import xcorr_gap

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(xcorr_gap(ev))


XCORR_GAP_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT)) OVER w AS xp,
         (epoch_us(ts) - lag(epoch_us(ts)) OVER w) // 1000000 AS g
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
p AS (SELECT * FROM o WHERE g IS NOT NULL),
a AS (
  SELECT user_id, count(*) AS npair,
         sum(x) AS sx0, sum(x*x) AS sxx0, sum(x*g) AS sxy0,
         sum(xp) AS sx1, sum(xp*xp) AS sxx1, sum(xp*g) AS sxy1,
         sum(g) AS sy, sum(g*g) AS syy
  FROM p GROUP BY 1),
f AS (
  SELECT user_id, npair, CAST(npair AS DOUBLE) AS nf,
         CAST(sx0 AS DOUBLE) AS sx0f, CAST(sxx0 AS DOUBLE) AS sxx0f,
         CAST(sxy0 AS DOUBLE) AS sxy0f,
         CAST(sx1 AS DOUBLE) AS sx1f, CAST(sxx1 AS DOUBLE) AS sxx1f,
         CAST(sxy1 AS DOUBLE) AS sxy1f,
         CAST(sy AS DOUBLE) AS syf, CAST(syy AS DOUBLE) AS syyf
  FROM a),
d AS (
  SELECT *, nf*sxx0f - sx0f*sx0f AS dx0, nf*sxx1f - sx1f*sx1f AS dx1,
         nf*syyf - syf*syf AS dy
  FROM f)
SELECT user_id, npair AS n_pairs,
       round((nf*sxy0f - sx0f*syf)/sqrt(dx0*dy), 6) AS r0,
       round((nf*sxy1f - sx1f*syf)/sqrt(dx1*dy), 6) AS r1
FROM d WHERE npair >= 2 AND dy > 0 AND dx0 > 0 AND dx1 > 0
"""


def q_perm_entropy(sf_dir):
    """★-checked per-key order-3 permutation entropy
    (stages/tsmath.py): integer ordinal-pattern codes from mirrored
    lead() comparisons, type_entropy closing expression over exact
    pattern counts, normalized by ln 6."""
    from ..stages.tsmath import perm_entropy

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(perm_entropy(ev))


PERM_ENTROPY_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS a,
         lead(CAST(round(value*100) AS BIGINT), 1) OVER w AS b,
         lead(CAST(round(value*100) AS BIGINT), 2) OVER w AS c
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
t AS (
  SELECT user_id,
     (CASE WHEN b < a THEN 1 ELSE 0 END
      + CASE WHEN c < a THEN 1 ELSE 0 END) * 9
   + (CASE WHEN a <= b THEN 1 ELSE 0 END
      + CASE WHEN c < b THEN 1 ELSE 0 END) * 3
   + (CASE WHEN a <= c THEN 1 ELSE 0 END
      + CASE WHEN b <= c THEN 1 ELSE 0 END) AS code
  FROM o WHERE c IS NOT NULL),
cc AS (SELECT user_id, code, count(*) AS c FROM t GROUP BY 1, 2),
ag AS (SELECT user_id, CAST(sum(c) AS BIGINT) AS n_pat,
              sum(CAST(c AS DOUBLE) * ln(CAST(c AS DOUBLE))) AS s
       FROM cc GROUP BY 1)
SELECT user_id, n_pat,
       round((ln(CAST(n_pat AS DOUBLE)) - s/CAST(n_pat AS DOUBLE))
             / ln(6.0), 6) AS pe
FROM ag WHERE n_pat >= 1
"""


def q_hurst(sf_dir):
    """★-checked per-key Hurst exponent by rescaled-range analysis at
    window sizes 8/16/32 (stages/tsmath.py): EXACT integer
    cumulative-deviation ranges D_j = w·P_j − j·S per window, mirrored
    rs/mean/log-log-OLS float expressions (ulp-below-round6 for the
    ≤window-count float sums, the features_stats argument)."""
    from ..stages.tsmath import hurst_rs

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(hurst_rs(ev))


def _hurst_size_cte(w):
    return f"""
win{w} AS (
  SELECT user_id, i // {w} AS wid, i % {w} + 1 AS j, x
  FROM d WHERE i < (n // {w}) * {w}),
pw{w} AS (
  SELECT user_id, wid, j,
         sum(x) OVER (PARTITION BY user_id, wid ORDER BY j) AS p,
         sum(x) OVER (PARTITION BY user_id, wid) AS s,
         sum(x*x) OVER (PARTITION BY user_id, wid) AS q
  FROM win{w}),
ws{w} AS (
  SELECT user_id, wid,
         greatest(max({w}*p - j*s), 0) - least(min({w}*p - j*s), 0)
           AS r_int,
         any_value(s) AS s, any_value(q) AS q
  FROM pw{w} GROUP BY 1, 2),
rs{w} AS (
  SELECT user_id,
         (CAST(r_int AS DOUBLE)/{w}.0)
           / sqrt((CAST(q AS DOUBLE)
                   - CAST(s AS DOUBLE)*CAST(s AS DOUBLE)/{w}.0)/{w}.0)
           AS rsv
  FROM ws{w}
  WHERE (CAST(q AS DOUBLE)
         - CAST(s AS DOUBLE)*CAST(s AS DOUBLE)/{w}.0)/{w}.0 > 0.0),
a{w} AS (
  SELECT user_id, sum(rsv)/count(*) AS y FROM rs{w} GROUP BY 1)"""


HURST_SQL = ("""
WITH d AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) - 1 AS i,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events),
cnt AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
        FROM events GROUP BY 1),"""
 + ",".join(_hurst_size_cte(w) for w in (8, 16, 32)) + """
SELECT cnt.user_id, cnt.n,
       round(a8.y, 6) AS rs8, round(a16.y, 6) AS rs16,
       round(a32.y, 6) AS rs32,
       round((3.0*(ln(8.0)*ln(a8.y) + ln(16.0)*ln(a16.y)
                   + ln(32.0)*ln(a32.y))
              - (ln(8.0) + ln(16.0) + ln(32.0))
                * (ln(a8.y) + ln(a16.y) + ln(a32.y)))
             / (3.0*(ln(8.0)*ln(8.0) + ln(16.0)*ln(16.0)
                     + ln(32.0)*ln(32.0))
                - (ln(8.0) + ln(16.0) + ln(32.0))
                  * (ln(8.0) + ln(16.0) + ln(32.0))), 6) AS hurst
FROM cnt JOIN a8 ON cnt.user_id = a8.user_id
         JOIN a16 ON cnt.user_id = a16.user_id
         JOIN a32 ON cnt.user_id = a32.user_id
""")


def q_jarque_bera(sf_dir):
    """★-checked per-key Jarque–Bera normality statistic
    (stages/analytics.py): exact int-space mean, float central
    moments of the identical double deviations on both sides
    (ulp-below-round6, the features_stats skew argument), mirrored
    g1/g2/JB closing expressions."""
    from ..stages.analytics import jarque_bera

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )
    return round6(jarque_bera(ev))


JARQUE_BERA_SQL = """
WITH s AS (
  SELECT user_id, count(*) AS n,
         (CAST(sum(CAST(round(value*100) AS BIGINT)) AS DOUBLE)/100.0)
           / count(*) AS mu
  FROM events GROUP BY 1),
mo AS (
  SELECT e.user_id,
         avg(power(e.value - s.mu, 2)) AS m2,
         avg(power(e.value - s.mu, 3)) AS m3,
         avg(power(e.value - s.mu, 4)) AS m4
  FROM events e JOIN s USING (user_id) GROUP BY 1),
g AS (
  SELECT s.user_id, s.n, CAST(s.n AS DOUBLE) AS nf,
         mo.m3/power(mo.m2, 1.5) AS g1, mo.m4/(mo.m2*mo.m2) AS g2,
         mo.m2 AS m2
  FROM s JOIN mo ON s.user_id = mo.user_id)
SELECT user_id, n,
       round(g1, 6) AS skew_g1, round(g2, 6) AS kurt_g2,
       round(nf/6.0*(g1*g1 + 0.25*(g2 - 3.0)*(g2 - 3.0)), 6) AS jb
FROM g WHERE n >= 4 AND m2 > 0
"""


def q_welch_ttest(sf_dir):
    """★-checked per-key Welch two-sample t-test, weekday vs weekend
    (stages/analytics.py): locale-free integer epoch-day DOW on both
    sides, exact int64 sums, mirrored variance/t/Satterthwaite-df
    float expressions — fully int-space exact."""
    from ..stages.analytics import welch_ttest

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return round6(welch_ttest(ev))


WELCH_TTEST_SQL = """
WITH b AS (
  SELECT user_id,
         CASE WHEN ((epoch_us(ts) // 86400000000) + 4) % 7 IN (0, 6)
              THEN 1 ELSE 0 END AS we,
         CAST(round(value*100) AS BIGINT) AS x
  FROM events),
a AS (
  SELECT user_id,
         count(*) FILTER (we = 0) AS n1, sum(x) FILTER (we = 0) AS s1,
         sum(x*x) FILTER (we = 0) AS q1,
         count(*) FILTER (we = 1) AS n2, sum(x) FILTER (we = 1) AS s2,
         sum(x*x) FILTER (we = 1) AS q2
  FROM b GROUP BY 1),
f AS (
  SELECT user_id, n1, n2,
         CAST(n1 AS DOUBLE) AS n1f, CAST(n2 AS DOUBLE) AS n2f,
         CAST(s1 AS DOUBLE) AS s1f, CAST(s2 AS DOUBLE) AS s2f,
         CAST(q1 AS DOUBLE) AS q1f, CAST(q2 AS DOUBLE) AS q2f
  FROM a WHERE n1 >= 2 AND n2 >= 2),
v AS (
  SELECT *,
         (q1f - s1f*s1f/n1f)/(n1f - 1.0)/n1f AS w1,
         (q2f - s2f*s2f/n2f)/(n2f - 1.0)/n2f AS w2
  FROM f)
SELECT user_id, n1 AS n_wd, n2 AS n_we,
       round((s1f/n1f)/100.0, 6) AS mean_wd,
       round((s2f/n2f)/100.0, 6) AS mean_we,
       round(((s1f/n1f) - (s2f/n2f))/100.0/sqrt(w1 + w2), 6) AS t_stat,
       round((w1 + w2)*(w1 + w2)
             / (w1*w1/(n1f - 1.0) + w2*w2/(n2f - 1.0)), 6) AS df_w
FROM v WHERE w1 + w2 > 0
"""



def q_ljung_box(sf_dir):
    """★-checked per-key Ljung–Box whiteness statistic at lags 1–3
    (stages/tsmath.py): the acf_lags exact int64 sufficient
    statistics, closed with one mirrored ascending-k sum
    Q = n(n+2)·Σ acf_k²/(n−k)."""
    from ..stages.tsmath import ljung_box

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(ljung_box(ev, max_lag=3))


LJUNG_BOX_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT), 1) OVER w AS x1,
         lag(CAST(round(value*100) AS BIGINT), 2) OVER w AS x2,
         lag(CAST(round(value*100) AS BIGINT), 3) OVER w AS x3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (
  SELECT user_id, count(*) AS n, sum(x) AS s, sum(x*x) AS q,
         sum(x*x1) AS sxy1, sum(x1) AS sh1,
         sum(x) FILTER (WHERE x1 IS NOT NULL) AS st1,
         sum(x*x2) AS sxy2, sum(x2) AS sh2,
         sum(x) FILTER (WHERE x2 IS NOT NULL) AS st2,
         sum(x*x3) AS sxy3, sum(x3) AS sh3,
         sum(x) FILTER (WHERE x3 IS NOT NULL) AS st3
  FROM o GROUP BY 1),
m AS (SELECT *, CAST(s AS DOUBLE)/n AS mu,
             CAST(q AS DOUBLE) - (CAST(s AS DOUBLE)/n)*CAST(s AS DOUBLE)
               AS den
      FROM a),
k AS (
  SELECT user_id, n, CAST(n AS DOUBLE) AS nf,
    (CAST(sxy1 AS DOUBLE) - mu*CAST(st1 AS DOUBLE)
     - mu*CAST(sh1 AS DOUBLE) + CAST(n-1 AS DOUBLE)*mu*mu)/den AS a1,
    (CAST(sxy2 AS DOUBLE) - mu*CAST(st2 AS DOUBLE)
     - mu*CAST(sh2 AS DOUBLE) + CAST(n-2 AS DOUBLE)*mu*mu)/den AS a2,
    (CAST(sxy3 AS DOUBLE) - mu*CAST(st3 AS DOUBLE)
     - mu*CAST(sh3 AS DOUBLE) + CAST(n-3 AS DOUBLE)*mu*mu)/den AS a3
  FROM m WHERE n > 3 AND den <> 0)
SELECT user_id, n,
       round(nf*(nf + 2.0)*(a1*a1/(nf - 1.0) + a2*a2/(nf - 2.0)
                            + a3*a3/(nf - 3.0)), 6) AS q_lb
FROM k
"""


def q_trend_seasonal(sf_dir):
    """★-checked per-key Wang–Hyndman trend/seasonality strengths
    over an OLS-trend + hour-of-day-means decomposition
    (stages/tsmath.py): every sufficient statistic an exact int64 sum
    (cast AFTER summation on both sides), mirrored α/β/mₕ/Σr²/
    strength float expressions."""
    from ..stages.tsmath import trend_seasonal_strength

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return round6(trend_seasonal_strength(ev))


TREND_SEASONAL_SQL = """
WITH b AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         (epoch_us(ts) - min(epoch_us(ts))
            OVER (PARTITION BY user_id)) // 1000000 AS t,
         (epoch_us(ts) // 3600000000) % 24 AS h
  FROM events),
g AS (
  SELECT user_id, count(*) AS n,
         sum(x) AS sx, sum(x*x) AS qx, sum(t) AS st, sum(t*t) AS qt,
         sum(x*t) AS sxt
  FROM b GROUP BY 1),
c AS (
  SELECT user_id, h, count(*) AS nh, sum(x) AS sxh, sum(t) AS sth
  FROM b GROUP BY 1, 2),
p AS (
  SELECT user_id, n, CAST(n AS DOUBLE) AS nf,
         CAST(sx AS DOUBLE) AS sxf, CAST(qx AS DOUBLE) AS qxf,
         CAST(st AS DOUBLE) AS stf, CAST(qt AS DOUBLE) AS qtf,
         CAST(sxt AS DOUBLE) AS sxtf,
         CAST(n AS DOUBLE)*CAST(qt AS DOUBLE)
           - CAST(st AS DOUBLE)*CAST(st AS DOUBLE) AS dent
  FROM g),
ab AS (SELECT *, (nf*sxtf - sxf*stf)/dent AS beta FROM p),
ab2 AS (SELECT *, (sxf - beta*stf)/nf AS alpha FROM ab),
hh AS (
  SELECT c.user_id,
         sum(CAST(c.nh AS DOUBLE)
             * (CAST(c.sxh AS DOUBLE)/CAST(c.nh AS DOUBLE) - ab2.alpha
                - ab2.beta*(CAST(c.sth AS DOUBLE)/CAST(c.nh AS DOUBLE)))
             * (CAST(c.sxh AS DOUBLE)/CAST(c.nh AS DOUBLE) - ab2.alpha
                - ab2.beta*(CAST(c.sth AS DOUBLE)/CAST(c.nh AS DOUBLE))))
           AS snm,
         sum(CAST(c.nh AS DOUBLE)
             * (CAST(c.sxh AS DOUBLE)/CAST(c.nh AS DOUBLE))
             * (CAST(c.sxh AS DOUBLE)/CAST(c.nh AS DOUBLE))) AS snm2
  FROM c JOIN ab2 ON c.user_id = ab2.user_id GROUP BY 1),
f AS (
  SELECT ab2.user_id, ab2.n, ab2.dent,
         ab2.qxf - 2.0*ab2.alpha*ab2.sxf - 2.0*ab2.beta*ab2.sxtf
           + ab2.nf*ab2.alpha*ab2.alpha
           + 2.0*ab2.alpha*ab2.beta*ab2.stf
           + ab2.beta*ab2.beta*ab2.qtf AS sr2,
         hh.snm, hh.snm2, ab2.nf, ab2.qxf
  FROM ab2 JOIN hh ON ab2.user_id = hh.user_id),
v AS (
  SELECT user_id, n, dent, sr2/nf AS varr,
         (sr2 - snm)/nf AS varrem, (qxf - snm2)/nf AS vardeseas
  FROM f)
SELECT user_id, n,
       round(greatest(0.0, 1.0 - varrem/vardeseas), 6)
         AS trend_strength,
       round(greatest(0.0, 1.0 - varrem/varr), 6) AS seasonal_strength
FROM v WHERE dent > 0 AND varr > 0 AND vardeseas > 0
"""



def q_turning_points(sf_dir):
    """★-checked per-key turning-points randomness test
    (stages/tsmath.py): EXACT strict-local-extrema counts from
    integer comparisons, one mirrored i.i.d.-expectation z
    expression."""
    from ..stages.tsmath import turning_points

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(turning_points(ev))


TURNING_POINTS_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT)) OVER w AS xp,
         lead(CAST(round(value*100) AS BIGINT)) OVER w AS xn
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (
  SELECT user_id, count(*) AS n,
         count(*) FILTER (xp IS NOT NULL AND xn IS NOT NULL AND
                          ((xp < x AND xn < x) OR (x < xp AND x < xn)))
           AS t
  FROM o GROUP BY 1)
SELECT user_id, n, t AS n_turns,
       round((CAST(t AS DOUBLE) - 2.0*(CAST(n AS DOUBLE) - 2.0)/3.0)
             / sqrt((16.0*CAST(n AS DOUBLE) - 29.0)/90.0), 6) AS z_tp
FROM a WHERE n >= 3
"""


def q_ar1_fit(sf_dir):
    """★-checked per-key AR(1)/OU moment fit (stages/tsmath.py):
    φ = acf₁ via the acf_lags exact int64 recipe; mirrored innovation
    variance and −ln2/lnφ half-life (NULL outside 0<φ<1)."""
    from ..stages.tsmath import ar1_fit

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(ar1_fit(ev))


AR1_FIT_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT)) OVER w AS x1
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (
  SELECT user_id, count(*) AS n, sum(x) AS s, sum(x*x) AS q,
         sum(x*x1) AS sxy, sum(x1) AS sh,
         sum(x) FILTER (WHERE x1 IS NOT NULL) AS st
  FROM o GROUP BY 1),
m AS (
  SELECT user_id, n, CAST(n AS DOUBLE) AS nf, CAST(s AS DOUBLE)/n AS mu,
         CAST(q AS DOUBLE) - (CAST(s AS DOUBLE)/n)*CAST(s AS DOUBLE)
           AS den,
         CAST(sxy AS DOUBLE) AS sxyf, CAST(sh AS DOUBLE) AS shf,
         CAST(st AS DOUBLE) AS stf
  FROM a),
f AS (
  SELECT user_id, n, nf, den,
         (sxyf - mu*stf - mu*shf + (nf - 1.0)*mu*mu)/den AS phi
  FROM m WHERE n >= 3 AND den <> 0)
SELECT user_id, n,
       round(phi, 6) AS phi,
       round(den/nf*(1.0 - phi*phi)/10000.0, 6) AS sigma2_eps,
       round(CASE WHEN phi > 0.0 AND phi < 1.0
                  THEN -ln(2.0)/ln(abs(phi)) ELSE NULL END, 6)
         AS half_life
FROM f
"""



def q_lexical_diversity(sf_dir):
    """★-checked per-document lexical-diversity profile
    (stages/pack.py): exact token/type/hapax counts over lowercased
    whitespace tokens, mirrored ratio and type_entropy closing
    expressions.  Embarrassingly parallel (no exchange)."""
    from ..stages.pack import lexical_diversity

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = (lexical_diversity(docs).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    return round6(out)


LEXICAL_DIVERSITY_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ 	

]+')) AS t
  FROM documents),
c AS (SELECT doc_id, t, count(*) AS c FROM tok GROUP BY 1, 2),
a AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
         CAST(count(*) AS BIGINT) AS n_types,
         CAST(count(*) FILTER (c = 1) AS BIGINT) AS hapax,
         sum(CAST(c AS DOUBLE) * ln(CAST(c AS DOUBLE))) AS s
  FROM c GROUP BY 1)
SELECT doc_id, n AS n_tokens, n_types,
       round(CAST(n_types AS DOUBLE)/CAST(n AS DOUBLE), 6) AS ttr,
       round(CAST(hapax AS DOUBLE)/CAST(n AS DOUBLE), 6) AS hapax_ratio,
       round(ln(CAST(n AS DOUBLE)) - s/CAST(n AS DOUBLE), 6)
         AS token_entropy
FROM a WHERE n >= 1
"""


def q_pmi_collocations(sf_dir):
    """★-checked corpus PMI collocations (stages/pack.py): map-side
    partial bigram counts → one bigram-keyed exchange → min-count
    filter → candidate-bounded unigram lookup; exact int64 counts,
    one mirrored cast-first ln expression; full qualifying set (no
    float-ranked top-k)."""
    from ..stages.pack import pmi_collocations

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(pmi_collocations(docs, min_count=5))


PMI_COLLOCATIONS_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ 	

]+')) AS w,
         generate_subscripts(
           regexp_extract_all(lower(text), '[^ 	

]+'), 1) AS pos
  FROM documents),
bg AS (
  SELECT a.w AS w1, b.w AS w2
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1),
bgc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c_xy
        FROM bg GROUP BY 1, 2 HAVING count(*) >= 5),
ugc AS (SELECT w, CAST(count(*) AS BIGINT) AS cu FROM tok GROUP BY 1),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM tok)
SELECT bgc.w1, bgc.w2, bgc.c_xy,
       u1.cu AS c_x, u2.cu AS c_y,
       round(ln((CAST(bgc.c_xy AS DOUBLE)*CAST(nn.n AS DOUBLE))
                / (CAST(u1.cu AS DOUBLE)*CAST(u2.cu AS DOUBLE))), 6)
         AS pmi
FROM bgc JOIN ugc u1 ON bgc.w1 = u1.w
         JOIN ugc u2 ON bgc.w2 = u2.w, nn
"""


def q_burstiness(sf_dir):
    """★-checked per-key Goh–Barabási burstiness + memory coefficient
    (stages/tsmath.py): whole-second gaps, exact int64 Σd/Σd² and
    pair sums, mirrored B = (σ−μ)/(σ+μ) and Pearson-M closings."""
    from ..stages.tsmath import burstiness

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(burstiness(ev))


BURSTINESS_SQL = """
WITH o AS (
  SELECT user_id, ts, event_id,
         (epoch_us(ts) - lag(epoch_us(ts)) OVER w) // 1000000 AS d
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
p AS (
  SELECT user_id, d AS a,
         lead(d) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS b
  FROM o WHERE d IS NOT NULL),
g AS (
  SELECT user_id, count(*) AS ng, sum(a) AS sd, sum(a*a) AS qd,
         count(b) AS npair,
         sum(a) FILTER (b IS NOT NULL) AS sa,
         sum(b) AS sb,
         sum(a*b) AS sab,
         sum(a*a) FILTER (b IS NOT NULL) AS qa,
         sum(b*b) AS qb
  FROM p GROUP BY 1),
f AS (
  SELECT user_id, ng, npair,
         CAST(ng AS DOUBLE) AS ngf, CAST(npair AS DOUBLE) AS npf,
         CAST(sd AS DOUBLE) AS sdf, CAST(qd AS DOUBLE) AS qdf,
         CAST(sa AS DOUBLE) AS saf, CAST(sb AS DOUBLE) AS sbf,
         CAST(sab AS DOUBLE) AS sabf, CAST(qa AS DOUBLE) AS qaf,
         CAST(qb AS DOUBLE) AS qbf
  FROM g WHERE ng >= 3 AND npair >= 2),
e AS (
  SELECT user_id, ng, sdf/ngf AS mu,
         sqrt(qdf/ngf - (sdf/ngf)*(sdf/ngf)) AS sig,
         npf*qaf - saf*saf AS vx, npf*qbf - sbf*sbf AS vy,
         npf*sabf - saf*sbf AS cxy
  FROM f)
SELECT user_id, ng AS n_gaps,
       round(CASE WHEN sig + mu > 0 THEN (sig - mu)/(sig + mu) END, 6)
         AS b_burst,
       round(CASE WHEN vx > 0 AND vy > 0
                  THEN cxy/(sqrt(vx)*sqrt(vy)) END, 6) AS m_memory
FROM e
"""


def q_kendall_tau(sf_dir):
    """★-checked per-key Kendall tau-b of value vs time
    (stages/tsmath.py): exact integer concordant/discordant/tie pair
    counts over the (ts, event_id)-ordered stream; one mirrored
    tau-b closing expression; O(n²) self-join oracle."""
    from ..stages.tsmath import kendall_tau

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(kendall_tau(ev))


KENDALL_TAU_SQL = """
WITH b AS (
  SELECT user_id, epoch_us(ts) AS t, event_id AS i,
         CAST(round(value*100) AS BIGINT) AS x
  FROM events),
pr AS (
  SELECT e1.user_id,
         count(*) AS n0,
         count(*) FILTER (e2.t > e1.t AND e2.x > e1.x) AS cc,
         count(*) FILTER (e2.t > e1.t AND e2.x < e1.x) AS dd,
         count(*) FILTER (e2.x = e1.x) AS t1,
         count(*) FILTER (e2.t = e1.t) AS t2
  FROM b e1 JOIN b e2 ON e1.user_id = e2.user_id
       AND (e2.t > e1.t OR (e2.t = e1.t AND e2.i > e1.i))
  GROUP BY 1),
n AS (SELECT user_id, count(*) AS n FROM b GROUP BY 1)
SELECT pr.user_id, n.n AS n_events,
       round((CAST(cc AS DOUBLE) - CAST(dd AS DOUBLE))
             / sqrt((CAST(n0 AS DOUBLE) - CAST(t1 AS DOUBLE))
                    * (CAST(n0 AS DOUBLE) - CAST(t2 AS DOUBLE))), 6)
         AS tau_b
FROM pr JOIN n USING (user_id)
WHERE n0 - t1 > 0 AND n0 - t2 > 0
"""


def q_mase_backtest(sf_dir):
    """★-checked per-key seasonal-naive MASE backtest on the dense
    hourly activity grid (stages/tsmath.py): exact integer counts and
    absolute-error sums, one mirrored (sae/ns)/(nae/nn) ratio;
    generate_series dense-grid oracle."""
    from ..stages.tsmath import seasonal_naive_mase

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(seasonal_naive_mase(ev))


MASE_SQL = """
WITH b AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events),
r AS (SELECT user_id, min(hb) AS mn, max(hb) AS mx FROM b GROUP BY 1),
grid AS (SELECT user_id, unnest(generate_series(mn, mx)) AS h FROM r),
c AS (SELECT user_id, hb, count(*) AS cnt FROM b GROUP BY 1, 2),
g AS (SELECT grid.user_id, grid.h, coalesce(c.cnt, 0) AS cnt
      FROM grid LEFT JOIN c
        ON grid.user_id = c.user_id AND grid.h = c.hb),
w AS (SELECT user_id, cnt,
             lag(cnt, 1) OVER (PARTITION BY user_id ORDER BY h) AS l1,
             lag(cnt, 24) OVER (PARTITION BY user_id ORDER BY h) AS l24
      FROM g),
a AS (SELECT user_id, count(*) AS nh,
             count(*) FILTER (l24 IS NOT NULL) AS ns,
             sum(abs(cnt - l24)) FILTER (l24 IS NOT NULL) AS sae,
             count(*) FILTER (l1 IS NOT NULL) AS nn,
             sum(abs(cnt - l1)) FILTER (l1 IS NOT NULL) AS nae
      FROM w GROUP BY 1)
SELECT user_id, nh AS n_hours,
       round((CAST(sae AS DOUBLE) / CAST(ns AS DOUBLE))
             / (CAST(nae AS DOUBLE) / CAST(nn AS DOUBLE)), 6) AS mase
FROM a WHERE ns > 0 AND nae > 0
"""


def q_pacf(sf_dir):
    """★-checked per-key partial autocorrelation at lags 1–3
    (stages/tsmath.py): Durbin–Levinson recursion closed over the
    acf_lags exact-int sufficient statistics; every float expression
    mirrored op-for-op by the SQL oracle, round-6 bit-equal."""
    from ..stages.tsmath import pacf_lags

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(pacf_lags(ev))


PACF_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT), 1) OVER w AS x1,
         lag(CAST(round(value*100) AS BIGINT), 2) OVER w AS x2,
         lag(CAST(round(value*100) AS BIGINT), 3) OVER w AS x3
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (
  SELECT user_id, count(*) AS n, sum(x) AS s, sum(x*x) AS q,
         sum(x*x1) AS sxy1, sum(x1) AS sh1,
         sum(x) FILTER (WHERE x1 IS NOT NULL) AS st1,
         sum(x*x2) AS sxy2, sum(x2) AS sh2,
         sum(x) FILTER (WHERE x2 IS NOT NULL) AS st2,
         sum(x*x3) AS sxy3, sum(x3) AS sh3,
         sum(x) FILTER (WHERE x3 IS NOT NULL) AS st3
  FROM o GROUP BY 1),
m AS (SELECT *, CAST(s AS DOUBLE)/n AS mu,
             CAST(q AS DOUBLE) - (CAST(s AS DOUBLE)/n)*CAST(s AS DOUBLE)
               AS den
      FROM a),
rr AS (
  SELECT user_id, n, den,
    (CAST(sxy1 AS DOUBLE) - mu*CAST(st1 AS DOUBLE)
     - mu*CAST(sh1 AS DOUBLE) + CAST(n-1 AS DOUBLE)*mu*mu)/den AS r1,
    (CAST(sxy2 AS DOUBLE) - mu*CAST(st2 AS DOUBLE)
     - mu*CAST(sh2 AS DOUBLE) + CAST(n-2 AS DOUBLE)*mu*mu)/den AS r2,
    (CAST(sxy3 AS DOUBLE) - mu*CAST(st3 AS DOUBLE)
     - mu*CAST(sh3 AS DOUBLE) + CAST(n-3 AS DOUBLE)*mu*mu)/den AS r3
  FROM m),
p AS (
  SELECT *, CASE WHEN 1.0 - r1*r1 <> 0
                 THEN (r2 - r1*r1)/(1.0 - r1*r1) END AS p2
  FROM rr),
ph AS (SELECT *, r1 - p2*r1 AS phi21 FROM p),
f AS (SELECT *, 1.0 - phi21*r1 - p2*r2 AS d3 FROM ph)
SELECT user_id, n,
       round(r1, 6) AS pacf1,
       round(p2, 6) AS pacf2,
       round(CASE WHEN d3 <> 0
                  THEN (r3 - phi21*r2 - p2*r1)/d3 END, 6) AS pacf3
FROM f WHERE n > 3 AND den <> 0
"""


def q_durbin_watson(sf_dir):
    """★-checked per-key Durbin–Watson + von Neumann ratio
    (stages/tsmath.py): exact int64 Σd² numerator and the acf den;
    two mirrored float closings."""
    from ..stages.tsmath import durbin_watson

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(durbin_watson(ev))


DURBIN_WATSON_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT)) OVER w AS x1
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (
  SELECT user_id, count(*) AS n, sum(x) AS s, sum(x*x) AS q,
         sum((x-x1)*(x-x1)) AS sd2
  FROM o GROUP BY 1),
m AS (SELECT *, CAST(s AS DOUBLE)/n AS mu FROM a),
e AS (SELECT *, CAST(q AS DOUBLE) - mu*CAST(s AS DOUBLE) AS den FROM m)
SELECT user_id, n,
       round(CAST(sd2 AS DOUBLE)/den, 6) AS dw,
       round((CAST(sd2 AS DOUBLE)/den)
             * (CAST(n AS DOUBLE)/CAST(n-1 AS DOUBLE)), 6) AS vn
FROM e WHERE n > 1 AND den <> 0
"""


def q_count_dispersion(sf_dir):
    """★-checked per-key Fano + Allan factors of the dense hourly
    activity grid (stages/tsmath.py): exact integer count/square/
    successive-difference sums, two mirrored float closings;
    generate_series dense-grid oracle."""
    from ..stages.tsmath import count_dispersion

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(count_dispersion(ev))


COUNT_DISPERSION_SQL = """
WITH b AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events),
r AS (SELECT user_id, min(hb) AS mn, max(hb) AS mx FROM b GROUP BY 1),
grid AS (SELECT user_id, unnest(generate_series(mn, mx)) AS h FROM r),
c AS (SELECT user_id, hb, count(*) AS cnt FROM b GROUP BY 1, 2),
g AS (SELECT grid.user_id, grid.h, coalesce(c.cnt, 0) AS cnt
      FROM grid LEFT JOIN c
        ON grid.user_id = c.user_id AND grid.h = c.hb),
w AS (SELECT user_id, cnt,
             lag(cnt) OVER (PARTITION BY user_id ORDER BY h) AS l1
      FROM g),
a AS (SELECT user_id, count(*) AS n, sum(cnt) AS sc,
             sum(cnt*cnt) AS qc, sum((cnt-l1)*(cnt-l1)) AS sad
      FROM w GROUP BY 1),
m AS (SELECT *, CAST(sc AS DOUBLE)/CAST(n AS DOUBLE) AS muc FROM a)
SELECT user_id, n AS n_hours,
       round((CAST(qc AS DOUBLE)/CAST(n AS DOUBLE) - muc*muc)/muc, 6)
         AS fano,
       round((CAST(sad AS DOUBLE)/CAST(n-1 AS DOUBLE))/(2.0*muc), 6)
         AS allan
FROM m WHERE n >= 2
"""


def q_sample_entropy(sf_dir):
    """★-checked per-key SampEn(m=1, r=500 quant units)
    (stages/tsmath.py): exact integer template-match pair counts A/B
    over the (ts, event_id)-sorted stream, one mirrored −ln(A/B);
    O(n²) self-join oracle."""
    from ..stages.tsmath import sample_entropy

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    return round6(sample_entropy(ev))


SAMPLE_ENTROPY_SQL = """
WITH b AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lead(CAST(round(value*100) AS BIGINT)) OVER w AS xn,
         row_number() OVER w AS rn,
         count(*) OVER (PARTITION BY user_id) AS nk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
t AS (SELECT * FROM b WHERE rn <= nk - 1 AND nk >= 3),
p AS (
  SELECT t1.user_id, max(t1.nk) AS nk,
         count(*) FILTER (abs(t1.x - t2.x) <= 500) AS bp,
         count(*) FILTER (abs(t1.x - t2.x) <= 500
                          AND abs(t1.xn - t2.xn) <= 500) AS ap
  FROM t t1 JOIN t t2
    ON t1.user_id = t2.user_id AND t2.rn > t1.rn
  GROUP BY 1)
SELECT user_id, nk AS n_events, bp AS b_pairs, ap AS a_pairs,
       round(-ln(CAST(ap AS DOUBLE)/CAST(bp AS DOUBLE)), 6) AS sampen
FROM p WHERE bp > 0 AND ap > 0
"""


def q_burrows_delta(sf_dir):
    """★-checked per-document Burrows' Delta stylometric distance
    (stages/pack.py): exact per-mille integer function-word rates,
    exact int corpus moments reduced driver-side and broadcast once,
    left-to-right chained term sum mirrored by the SQL's
    left-associated pivot expression."""
    from ..stages.pack import burrows_delta

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(burrows_delta(docs))


BURROWS_DELTA_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS term
  FROM documents),
dlen AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY 1),
words(w, j) AS (VALUES ('the',0),('of',1),('and',2),('to',3),('a',4),
                       ('in',5),('that',6),('is',7),('it',8),('for',9)),
cnt AS (SELECT doc_id, term AS w, count(*) AS c FROM tok
        WHERE term IN ('the','of','and','to','a',
                       'in','that','is','it','for')
        GROUP BY 1, 2),
v AS (SELECT dlen.doc_id, words.w, words.j, dlen.n,
             coalesce(cnt.c, 0) * 1000 // dlen.n AS v
      FROM dlen CROSS JOIN words
      LEFT JOIN cnt ON cnt.doc_id = dlen.doc_id AND cnt.w = words.w),
st AS (SELECT w, count(*) AS nd, sum(v) AS sv, sum(v*v) AS sq
       FROM v GROUP BY 1),
sg AS (SELECT w,
              CAST(sv AS DOUBLE)/CAST(nd AS DOUBLE) AS mu,
              CAST(sq AS DOUBLE)/CAST(nd AS DOUBLE)
                - (CAST(sv AS DOUBLE)/CAST(nd AS DOUBLE))
                  * (CAST(sv AS DOUBLE)/CAST(nd AS DOUBLE)) AS arg
       FROM st),
sg2 AS (SELECT w, mu,
               CASE WHEN arg > 0 THEN sqrt(arg) ELSE 0.0 END AS sig
        FROM sg),
t AS (SELECT v.doc_id, v.n, v.j,
             CASE WHEN sg2.sig > 0
                  THEN abs(CAST(v.v AS DOUBLE) - sg2.mu)/sg2.sig
                  ELSE 0.0 END AS tt
      FROM v JOIN sg2 USING (w)),
piv AS (SELECT doc_id, max(n) AS n_tokens,
               max(CASE WHEN j=0 THEN tt END) AS t0,
               max(CASE WHEN j=1 THEN tt END) AS t1,
               max(CASE WHEN j=2 THEN tt END) AS t2,
               max(CASE WHEN j=3 THEN tt END) AS t3,
               max(CASE WHEN j=4 THEN tt END) AS t4,
               max(CASE WHEN j=5 THEN tt END) AS t5,
               max(CASE WHEN j=6 THEN tt END) AS t6,
               max(CASE WHEN j=7 THEN tt END) AS t7,
               max(CASE WHEN j=8 THEN tt END) AS t8,
               max(CASE WHEN j=9 THEN tt END) AS t9
        FROM t GROUP BY 1)
SELECT doc_id, n_tokens,
       round((((((((((t0+t1)+t2)+t3)+t4)+t5)+t6)+t7)+t8)+t9)/10.0, 6)
         AS delta
FROM piv
"""


def q_peak_rate(sf_dir):
    """★-checked per-key peak rolling-24h event rate
    (stages/tsmath.py): exact integer sliding-window counts by value
    range (two searchsorted passes) vs the O(n·k) self-join oracle —
    no float anywhere."""
    from ..stages.tsmath import peak_rate

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return peak_rate(ev)


PEAK_RATE_SQL = """
WITH b AS (SELECT user_id, event_id, epoch_us(ts) AS t FROM events),
p AS (
  SELECT b1.user_id, b1.event_id, count(*) AS c
  FROM b b1 JOIN b b2 ON b1.user_id = b2.user_id
       AND b2.t >= b1.t AND b2.t < b1.t + 86400000000
  GROUP BY 1, 2),
n AS (SELECT user_id, count(*) AS n FROM b GROUP BY 1)
SELECT p.user_id, n.n AS n_events, max(p.c) AS peak_cnt
FROM p JOIN n USING (user_id) GROUP BY 1, 2
"""


def q_markov_entropy(sf_dir):
    """★-checked per-key Markov entropy rate over event_type
    (stages/analytics.py): exact int64 transition/from-state counts
    (fused key×from×to bincount), mirrored −Σ(c/T)·ln(c/c_a)."""
    from ..stages.analytics import markov_entropy_rate

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "event_type", "ts"],
    )
    return round6(markov_entropy_rate(ev))


MARKOV_ENTROPY_SQL = """
WITH o AS (
  SELECT user_id, event_type AS a,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS b
  FROM events),
tc AS (SELECT user_id, a, b, count(*) AS c FROM o
       WHERE b IS NOT NULL GROUP BY 1, 2, 3),
ra AS (SELECT user_id, a, sum(c) AS ca FROM tc GROUP BY 1, 2),
tt AS (SELECT user_id, sum(c) AS t FROM tc GROUP BY 1)
SELECT tc.user_id, CAST(tt.t AS BIGINT) AS n_trans,
       round(-(sum(CAST(tc.c AS DOUBLE)
                   * ln(CAST(tc.c AS DOUBLE)/CAST(ra.ca AS DOUBLE))))
             / CAST(tt.t AS DOUBLE), 6) AS entropy_rate
FROM tc JOIN ra USING (user_id, a) JOIN tt USING (user_id)
GROUP BY tc.user_id, tt.t
"""


def q_exp_gap_fit(sf_dir):
    """★-checked per-key exponential interarrival fit + KS distance
    (stages/tsmath.py): exact integer gap sums/ranks, mirrored
    λ = n/Σd and 1−e^{−λd} CDF scan; tie-order-invariant D."""
    from ..stages.tsmath import exp_gap_fit

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"]
    )
    return round6(exp_gap_fit(ev))


EXP_GAP_FIT_SQL = """
WITH o AS (
  SELECT user_id,
         (epoch_us(ts) - lag(epoch_us(ts)) OVER w) // 1000000 AS d
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
g AS (SELECT user_id, d FROM o WHERE d IS NOT NULL),
s AS (SELECT user_id, count(*) AS n, sum(d) AS sd FROM g GROUP BY 1),
r AS (SELECT g.user_id, s.n,
             row_number() OVER (PARTITION BY g.user_id ORDER BY g.d)
               AS i,
             CAST(g.d AS DOUBLE) AS dd, CAST(s.n AS DOUBLE) AS nf,
             CAST(s.n AS DOUBLE)/CAST(s.sd AS DOUBLE) AS lam
      FROM g JOIN s USING (user_id) WHERE s.n >= 3 AND s.sd > 0),
k AS (SELECT user_id, max(n) AS n, max(lam) AS lam,
             max(CAST(i AS DOUBLE)/nf - (1.0 - exp(-lam*dd))) AS da,
             max((1.0 - exp(-lam*dd)) - CAST(i-1 AS DOUBLE)/nf) AS db
      FROM r GROUP BY 1)
SELECT user_id, n AS n_gaps, round(lam, 6) AS lam_per_s,
       round(CASE WHEN da > db THEN da ELSE db END, 6) AS ks_exp
FROM k
"""


def q_promo_share(sf_dir):
    """★-checked TPC-H-Q14-style promo revenue share per ship month:
    the part dimension is broadcast once via ``ray.put`` (promo flag
    looked up by searchsorted), lineitem is pruned at the read and
    reduced to per-batch (month → promo/total int cell) partials —
    ~tens of cells per block — before a tiny driver-side combine.
    Revenue units are exact int cents·(100−disc_pct); the share
    closes in one mirrored 100·promo/total expression."""
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).to_pandas()
    pk = np.sort(part["p_partkey"].to_numpy(np.int64))
    promo = (part.set_index("p_partkey").loc[pk, "p_type"]
             .to_numpy(object) == "PROMO")
    ref = ray.put((pk, promo))

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        k, isp = ray.get(ref)
        flag = isp[np.searchsorted(k, df["l_partkey"].to_numpy(np.int64))]
        mo = (df["l_shipdate"].to_numpy("datetime64[us]")
              .astype("datetime64[M]").astype(np.int64))
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64) * 100.0
                    ).astype(np.int64)
        dsc = np.rint(df["l_discount"].to_numpy(np.float64) * 100.0
                      ).astype(np.int64)
        rev = p * (100 - dsc)
        g = pd.DataFrame({"mo": mo, "promo_rev": np.where(flag, rev, 0),
                          "total_rev": rev})
        return g.groupby("mo", as_index=False).sum()

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    ).map_batches(cells, batch_format="pandas")
    agg = (li.to_pandas().groupby("mo", as_index=False)
           [["promo_rev", "total_rev"]].sum())
    mo = agg["mo"].to_numpy(np.int64)
    out = pd.DataFrame({
        "ym": (1970 + mo // 12) * 100 + (mo % 12 + 1),
        "promo_rev": agg["promo_rev"].to_numpy(np.int64),
        "total_rev": agg["total_rev"].to_numpy(np.int64),
        "promo_share": 100.0
        * agg["promo_rev"].to_numpy(np.int64).astype(np.float64)
        / agg["total_rev"].to_numpy(np.int64).astype(np.float64)})
    return round6(out.sort_values("ym").reset_index(drop=True))


PROMO_SHARE_SQL = """
WITH li AS (
  SELECT year(l_shipdate)*100 + month(l_shipdate) AS ym,
         CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT)) AS rev,
         p_type = 'PROMO' AS isp
  FROM lineitem JOIN part ON l_partkey = p_partkey),
a AS (SELECT ym,
             CAST(sum(CASE WHEN isp THEN rev ELSE 0 END) AS BIGINT)
               AS promo_rev,
             CAST(sum(rev) AS BIGINT) AS total_rev
      FROM li GROUP BY 1)
SELECT ym, promo_rev, total_rev,
       round(100.0 * CAST(promo_rev AS DOUBLE)
             / CAST(total_rev AS DOUBLE), 6) AS promo_share
FROM a
"""


def q_keyness_terms(sf_dir):
    """★-checked per-document Dunning-G² keyness terms
    (stages/pack.py): exact int corpus/doc counts, integer
    positive-keyness gate a·N > c·n₁, one mirrored G² expression so
    the G² > 3.84 (χ²₁ p<0.05) threshold cut is identical on both sides."""
    from ..stages.pack import keyness_terms

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(keyness_terms(docs))


KEYNESS_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS term
  FROM documents),
tf AS (SELECT doc_id, term, count(*) AS a FROM tok GROUP BY 1, 2),
dl AS (SELECT doc_id, count(*) AS n1 FROM tok GROUP BY 1),
ct AS (SELECT term, count(*) AS c FROM tok GROUP BY 1),
tot AS (SELECT count(*) AS nn FROM tok),
e AS (SELECT tf.doc_id, tf.term, tf.a, ct.c - tf.a AS b,
             dl.n1, tot.nn - dl.n1 AS n2, ct.c, tot.nn
      FROM tf JOIN dl USING (doc_id) JOIN ct USING (term), tot),
g AS (SELECT doc_id, term, a, b, c, n1, nn,
             2.0*(CAST(a AS DOUBLE)
                  * ln(CAST(a AS DOUBLE)
                       / ((CAST(n1 AS DOUBLE)*CAST(c AS DOUBLE))
                          / CAST(nn AS DOUBLE)))
                  + CASE WHEN b > 0
                         THEN CAST(b AS DOUBLE)
                              * ln(CAST(b AS DOUBLE)
                                   / ((CAST(n2 AS DOUBLE)
                                       *CAST(c AS DOUBLE))
                                      / CAST(nn AS DOUBLE)))
                         ELSE 0.0 END) AS g2
      FROM e)
SELECT doc_id, term, a AS tf, round(g2, 6) AS g2
FROM g WHERE a*nn > c*n1 AND g2 > 3.84
"""


def q_day_streak(sf_dir):
    """★-checked per-key longest consecutive-active-day streak
    (stages/tsmath.py): all-integer gaps-and-islands, no float."""
    from ..stages.tsmath import day_streak

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return day_streak(ev)


DAY_STREAK_SQL = """
WITH d AS (SELECT DISTINCT user_id,
                  epoch_us(ts) // 86400000000 AS day
           FROM events),
r AS (SELECT user_id, day,
             day - row_number() OVER (PARTITION BY user_id
                                      ORDER BY day) AS grp
      FROM d),
s AS (SELECT user_id, grp, count(*) AS len FROM r GROUP BY 1, 2)
SELECT user_id, CAST(sum(len) AS BIGINT) AS n_active_days,
       max(len) AS max_streak
FROM s GROUP BY 1
"""


def q_seasonal_power(sf_dir):
    """★-checked per-key single-bin Fourier seasonality R² at the
    24h/12h harmonics on the dense hourly grid (stages/tsmath.py):
    exact integer count sums, mirrored demeaned-quadrature float
    closings."""
    from ..stages.tsmath import seasonal_power

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(seasonal_power(ev))


SEASONAL_POWER_SQL = """
WITH b AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events),
r AS (SELECT user_id, min(hb) AS mn, max(hb) AS mx FROM b GROUP BY 1),
grid AS (SELECT user_id, mn,
                unnest(generate_series(mn, mx)) AS h
         FROM r),
c AS (SELECT user_id, hb, count(*) AS cnt FROM b GROUP BY 1, 2),
g AS (SELECT grid.user_id, grid.h - grid.mn AS t,
             coalesce(c.cnt, 0) AS cnt
      FROM grid LEFT JOIN c
        ON grid.user_id = c.user_id AND grid.h = c.hb),
q AS (SELECT user_id,
             cos(2.0*pi()*CAST(t % 24 AS DOUBLE)/24.0) AS co24,
             sin(2.0*pi()*CAST(t % 24 AS DOUBLE)/24.0) AS si24,
             cos(2.0*pi()*CAST(t % 12 AS DOUBLE)/12.0) AS co12,
             sin(2.0*pi()*CAST(t % 12 AS DOUBLE)/12.0) AS si12,
             cnt
      FROM g),
a AS (SELECT user_id, count(*) AS n, sum(cnt) AS sc,
             sum(cnt*cnt) AS qc,
             sum(CAST(cnt AS DOUBLE)*co24) AS cc24, sum(co24) AS sco24,
             sum(CAST(cnt AS DOUBLE)*si24) AS cs24, sum(si24) AS ssi24,
             sum(CAST(cnt AS DOUBLE)*co12) AS cc12, sum(co12) AS sco12,
             sum(CAST(cnt AS DOUBLE)*si12) AS cs12, sum(si12) AS ssi12
      FROM q GROUP BY 1),
m AS (SELECT *, CAST(sc AS DOUBLE)/CAST(n AS DOUBLE) AS mu,
             CAST(n AS DOUBLE) AS nf
      FROM a),
e AS (SELECT *, CAST(qc AS DOUBLE) - mu*CAST(sc AS DOUBLE) AS ss,
             cc24 - mu*sco24 AS c24, cs24 - mu*ssi24 AS s24,
             cc12 - mu*sco12 AS c12, cs12 - mu*ssi12 AS s12
      FROM m)
SELECT user_id, n AS n_hours,
       round(2.0*(c24*c24 + s24*s24)/(nf*ss), 6) AS "r2_24h",
       round(2.0*(c12*c12 + s12*s12)/(nf*ss), 6) AS "r2_12h"
FROM e WHERE n > 24 AND ss > 0
"""


def q_haar_energy(sf_dir):
    """★-checked per-key Haar wavelet detail energies at levels 1–3
    on the dense hourly grid (stages/tsmath.py): every quantity an
    exact integer (pair sums/differences/squares), whole-pair
    truncation matching the SQL t//2 grouping — no float."""
    from ..stages.tsmath import haar_energy

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return haar_energy(ev)


HAAR_SQL = """
WITH b AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events),
r AS (SELECT user_id, min(hb) AS mn, max(hb) AS mx FROM b GROUP BY 1),
grid AS (SELECT user_id, mn, unnest(generate_series(mn, mx)) AS h
         FROM r),
c AS (SELECT user_id, hb, count(*) AS cnt FROM b GROUP BY 1, 2),
g AS (SELECT grid.user_id, grid.h - grid.mn AS t,
             coalesce(c.cnt, 0) AS cnt
      FROM grid LEFT JOIN c
        ON grid.user_id = c.user_id AND grid.h = c.hb),
l1 AS (SELECT user_id, t // 2 AS t2,
              sum(CASE WHEN t % 2 = 0 THEN cnt ELSE -cnt END) AS d,
              sum(cnt) AS a, count(*) AS m
       FROM g GROUP BY 1, 2),
l1f AS (SELECT user_id, t2 AS t, a AS cnt FROM l1 WHERE m = 2),
l2 AS (SELECT user_id, t // 2 AS t2,
              sum(CASE WHEN t % 2 = 0 THEN cnt ELSE -cnt END) AS d,
              sum(cnt) AS a, count(*) AS m
       FROM l1f GROUP BY 1, 2),
l2f AS (SELECT user_id, t2 AS t, a AS cnt FROM l2 WHERE m = 2),
l3 AS (SELECT user_id, t // 2 AS t2,
              sum(CASE WHEN t % 2 = 0 THEN cnt ELSE -cnt END) AS d,
              count(*) AS m
       FROM l2f GROUP BY 1, 2),
n AS (SELECT user_id, count(*) AS nh FROM g GROUP BY 1),
e1 AS (SELECT user_id, CAST(sum(d*d) AS BIGINT) AS e1
       FROM l1 WHERE m = 2 GROUP BY 1),
e2 AS (SELECT user_id, CAST(sum(d*d) AS BIGINT) AS e2
       FROM l2 WHERE m = 2 GROUP BY 1),
e3 AS (SELECT user_id, CAST(sum(d*d) AS BIGINT) AS e3
       FROM l3 WHERE m = 2 GROUP BY 1)
SELECT n.user_id, n.nh AS n_hours, e1.e1, e2.e2, e3.e3
FROM n JOIN e1 USING (user_id) JOIN e2 USING (user_id)
       JOIN e3 USING (user_id)
WHERE n.nh >= 8
"""


def q_gumbel_maxima(sf_dir):
    """★-checked per-key Gumbel moment fit of daily block maxima of
    hourly counts (stages/tsmath.py): exact integer maxima/moments,
    mirrored β = s·√6/π and μ = m − γβ closings."""
    from ..stages.tsmath import gumbel_maxima

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(gumbel_maxima(ev))


GUMBEL_SQL = """
WITH b AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events),
hc AS (SELECT user_id, hb, count(*) AS cnt FROM b GROUP BY 1, 2),
dm AS (SELECT user_id, hb // 24 AS day, max(cnt) AS mx
       FROM hc GROUP BY 1, 2),
r AS (SELECT user_id, min(hb) // 24 AS dmn, max(hb) // 24 AS dmx
      FROM b GROUP BY 1),
grid AS (SELECT user_id, unnest(generate_series(dmn, dmx)) AS day
         FROM r),
g AS (SELECT grid.user_id, coalesce(dm.mx, 0) AS mx
      FROM grid LEFT JOIN dm
        ON grid.user_id = dm.user_id AND grid.day = dm.day),
a AS (SELECT user_id, count(*) AS nd, sum(mx) AS sm,
             sum(mx*mx) AS qm
      FROM g GROUP BY 1),
m AS (SELECT *, CAST(sm AS DOUBLE)/CAST(nd AS DOUBLE) AS mean,
             CAST(qm AS DOUBLE)/CAST(nd AS DOUBLE)
               - (CAST(sm AS DOUBLE)/CAST(nd AS DOUBLE))
                 * (CAST(sm AS DOUBLE)/CAST(nd AS DOUBLE)) AS var
      FROM a)
SELECT user_id, nd AS n_days,
       round(mean - 0.5772156649015329
             * (sqrt(var)*sqrt(6.0)/pi()), 6) AS gum_mu,
       round(sqrt(var)*sqrt(6.0)/pi(), 6) AS gum_beta
FROM m WHERE nd >= 2 AND var > 0
"""


def q_gini_values(sf_dir):
    """★-checked per-key Gini mean difference (stages/tsmath.py):
    exact int64 sorted-prefix pairwise-difference numerator, one
    mirrored division by n(n−1)/2."""
    from ..stages.tsmath import gini_values

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )
    return round6(gini_values(ev))


GINI_VALUES_SQL = """
WITH b AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         row_number() OVER (PARTITION BY user_id ORDER BY
                            CAST(round(value*100) AS BIGINT)) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events),
a AS (SELECT user_id, max(n) AS n,
             CAST(sum((2*rn - n - 1) * x) AS BIGINT) AS num
      FROM b GROUP BY 1)
SELECT user_id, n,
       round(CAST(num AS DOUBLE)
             / (CAST(n AS DOUBLE)*CAST(n-1 AS DOUBLE)/2.0), 6) AS gmd
FROM a WHERE n >= 2
"""


def q_quartile_cv(sf_dir):
    """★-checked per-key exact type-1 quartiles: IQR (int) and the
    coefficient of quartile variation (stages/tsmath.py)."""
    from ..stages.tsmath import quartile_cv

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )
    return round6(quartile_cv(ev))


QUARTILE_CV_SQL = """
WITH b AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         row_number() OVER (PARTITION BY user_id ORDER BY
                            CAST(round(value*100) AS BIGINT)) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events),
q AS (SELECT user_id, max(n) AS n,
             max(CASE WHEN rn = (n+3)//4 THEN x END) AS q1,
             max(CASE WHEN rn = (3*n+3)//4 THEN x END) AS q3
      FROM b GROUP BY 1)
SELECT user_id, n, q3 - q1 AS iqr,
       round(CASE WHEN q3 + q1 <> 0
                  THEN CAST(q3 - q1 AS DOUBLE)
                       / CAST(q3 + q1 AS DOUBLE) END, 6) AS cqv
FROM q WHERE n >= 4
"""


def q_daily_profile_drift(sf_dir):
    """★-checked per-key daily-rhythm KL drift (stages/tsmath.py):
    exact int64 key/day/hour cells, mirrored per-day KL terms and
    max/mean closings."""
    from ..stages.tsmath import daily_profile_drift

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(daily_profile_drift(ev))


DAILY_PROFILE_DRIFT_SQL = """
WITH b AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day,
         (epoch_us(ts) // 3600000000) % 24 AS hod
  FROM events),
cdh AS (SELECT user_id, day, hod, count(*) AS c FROM b GROUP BY 1,2,3),
cd AS (SELECT user_id, day, sum(c) AS cday FROM cdh GROUP BY 1, 2),
ckh AS (SELECT user_id, hod, count(*) AS ch FROM b GROUP BY 1, 2),
ck AS (SELECT user_id, count(*) AS ctot FROM b GROUP BY 1),
t AS (SELECT cdh.user_id, cdh.day,
             (CAST(cdh.c AS DOUBLE)/CAST(cd.cday AS DOUBLE))
             * ln((CAST(cdh.c AS DOUBLE)/CAST(cd.cday AS DOUBLE))
                  / (CAST(ckh.ch AS DOUBLE)
                     /CAST(ck.ctot AS DOUBLE))) AS term
      FROM cdh JOIN cd USING (user_id, day)
               JOIN ckh USING (user_id, hod)
               JOIN ck USING (user_id)),
kl AS (SELECT user_id, day, sum(term) AS kl FROM t GROUP BY 1, 2),
a AS (SELECT user_id, count(*) AS n_days, max(kl) AS max_kl,
             sum(kl) AS skl
      FROM kl GROUP BY 1)
SELECT user_id, n_days, round(max_kl, 6) AS max_kl,
       round(skl / CAST(n_days AS DOUBLE), 6) AS mean_kl
FROM a WHERE n_days >= 2
"""


def q_theil_index(sf_dir):
    """★-checked corpus Theil T inequality of per-user event counts
    (stages/analytics.py): exact int totals + one distributed
    Σc·ln(c) partial, mirrored T = S₁/C − ln(C/U)."""
    from ..stages.analytics import theil_index

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    return round6(theil_index(ev))


THEIL_SQL = """
WITH c AS (SELECT user_id, count(*) AS c FROM events GROUP BY 1),
a AS (SELECT count(*) AS u, CAST(sum(c) AS BIGINT) AS ctot,
             sum(CAST(c AS DOUBLE)*ln(CAST(c AS DOUBLE))) AS s1
      FROM c)
SELECT u AS n_users, ctot AS total,
       round(s1 / CAST(ctot AS DOUBLE)
             - ln(CAST(ctot AS DOUBLE)/CAST(u AS DOUBLE)), 6) AS theil
FROM a WHERE u > 0
"""


def q_count_acf(sf_dir):
    """★-checked per-key activity autocorrelation at lags 1/24 on
    the dense hourly grid (stages/tsmath.py): exact int64 lag-product
    sums, the acf_lags mirrored closing."""
    from ..stages.tsmath import count_acf

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(count_acf(ev))


COUNT_ACF_SQL = """
WITH b AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events),
r AS (SELECT user_id, min(hb) AS mn, max(hb) AS mx FROM b GROUP BY 1),
grid AS (SELECT user_id, unnest(generate_series(mn, mx)) AS h FROM r),
c AS (SELECT user_id, hb, count(*) AS cnt FROM b GROUP BY 1, 2),
g AS (SELECT grid.user_id, grid.h, coalesce(c.cnt, 0) AS cnt
      FROM grid LEFT JOIN c
        ON grid.user_id = c.user_id AND grid.h = c.hb),
w AS (SELECT user_id, cnt,
             lag(cnt, 1) OVER ww AS c1, lag(cnt, 24) OVER ww AS c24
      FROM g WINDOW ww AS (PARTITION BY user_id ORDER BY h)),
a AS (SELECT user_id, count(*) AS n, sum(cnt) AS sc,
             sum(cnt*cnt) AS qc,
             sum(cnt*c1) AS sxy1, sum(c1) AS sh1,
             sum(cnt) FILTER (c1 IS NOT NULL) AS st1,
             sum(cnt*c24) AS sxy24, sum(c24) AS sh24,
             sum(cnt) FILTER (c24 IS NOT NULL) AS st24
      FROM w GROUP BY 1),
m AS (SELECT *, CAST(sc AS DOUBLE)/CAST(n AS DOUBLE) AS mu FROM a),
e AS (SELECT *, CAST(qc AS DOUBLE) - mu*CAST(sc AS DOUBLE) AS den
      FROM m)
SELECT user_id, n AS n_hours,
       round((CAST(sxy1 AS DOUBLE) - mu*CAST(st1 AS DOUBLE)
              - mu*CAST(sh1 AS DOUBLE)
              + CAST(n-1 AS DOUBLE)*mu*mu)/den, 6) AS cacf1,
       round((CAST(sxy24 AS DOUBLE) - mu*CAST(st24 AS DOUBLE)
              - mu*CAST(sh24 AS DOUBLE)
              + CAST(n-24 AS DOUBLE)*mu*mu)/den, 6) AS cacf24
FROM e WHERE n > 24 AND den <> 0
"""


def q_circadian_phase(sf_dir):
    """★-checked per-key circular time-of-day statistics
    (stages/tsmath.py): exact µs time-of-day remainders, mirrored
    quadrature/resultant/atan2-phase closings, R̄ > 0.01 phase gate
    identical on both sides."""
    from ..stages.tsmath import circadian_phase

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(circadian_phase(ev))


CIRCADIAN_SQL = """
WITH b AS (
  SELECT user_id,
         2.0*pi()*CAST(epoch_us(ts) % 86400000000 AS DOUBLE)
           / 86400000000.0 AS ang
  FROM events),
a AS (SELECT user_id, count(*) AS n, sum(cos(ang)) AS cs,
             sum(sin(ang)) AS sn
      FROM b GROUP BY 1),
m AS (SELECT user_id, n,
             sqrt(cs*cs + sn*sn)/CAST(n AS DOUBLE) AS r,
             atan2(sn, cs)*(24.0/(2.0*pi())) AS ph
      FROM a)
SELECT user_id, n, round(r, 6) AS resultant,
       round(CASE WHEN r > 0.01
                  THEN CASE WHEN ph < 0.0 THEN ph + 24.0 ELSE ph END
             END, 6) AS mean_hour
FROM m WHERE n >= 1
"""


def q_class_separation(sf_dir):
    """★-checked per-label embedding separation diagnostics
    (stages/ann.py): constant-size per-block moment partials, exact
    float32→float64 widening, mirrored WSS/centroid closings."""
    from ..stages.ann import class_separation

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    return round6(class_separation(emb))


CLASS_SEPARATION_SQL = """
WITH e AS (SELECT label, CAST(embedding AS DOUBLE[]) AS v
           FROM embeddings),
u AS (SELECT label, generate_subscripts(v, 1) AS d, unnest(v) AS x
      FROM e),
nc AS (SELECT label, count(*) AS n FROM e GROUP BY 1),
qq AS (SELECT label, sum(x*x) AS q FROM u GROUP BY 1),
pc AS (SELECT label, d, sum(x) AS s FROM u GROUP BY 1, 2),
gl AS (SELECT d, sum(s) AS gs FROM pc GROUP BY 1),
gn AS (SELECT CAST(sum(n) AS DOUBLE) AS g FROM nc),
ssn AS (SELECT label, sum(s*s) AS ssn FROM pc GROUP BY 1),
dist AS (SELECT pc.label,
                sum((pc.s/CAST(nc.n AS DOUBLE) - gl.gs/gn.g)
                    * (pc.s/CAST(nc.n AS DOUBLE) - gl.gs/gn.g)) AS dd
         FROM pc JOIN nc USING (label) JOIN gl USING (d), gn
         GROUP BY 1)
SELECT CAST(nc.label AS BIGINT) AS label, nc.n,
       round(qq.q - ssn.ssn/CAST(nc.n AS DOUBLE), 6) AS wss,
       round(sqrt(ssn.ssn)/CAST(nc.n AS DOUBLE), 6) AS mu_norm,
       round(sqrt(dist.dd), 6) AS dist_global
FROM nc JOIN qq USING (label) JOIN ssn USING (label)
        JOIN dist USING (label)
"""


def q_dim_variance(sf_dir):
    """★-checked per-dimension embedding moment profile + dead-dim
    flag (stages/ann.py): one constant-size moment partial per block,
    mirrored mean/var closings."""
    from ..stages.ann import dim_variance

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )
    return round6(dim_variance(emb))


DIM_VARIANCE_SQL = """
WITH e AS (SELECT CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
u AS (SELECT generate_subscripts(v, 1) AS dim, unnest(v) AS x FROM e),
a AS (SELECT dim, count(*) AS n, sum(x) AS s, sum(x*x) AS q
      FROM u GROUP BY 1),
m AS (SELECT dim, s/CAST(n AS DOUBLE) AS mean,
             q/CAST(n AS DOUBLE)
               - (s/CAST(n AS DOUBLE))*(s/CAST(n AS DOUBLE)) AS v
      FROM a)
SELECT dim, round(mean, 6) AS mean, round(v, 6) AS "var",
       v < 0.000001 AS dead
FROM m
"""


def q_rising_keys(sf_dir):
    """★-checked first-half vs second-half traffic-share drift
    (stages/analytics.py): exact integer half counts and the
    float-free cross-multiplied score c₂T₁ − c₁T₂; mirrored
    share_delta attached for human units."""
    from ..stages.analytics import rising_keys

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(rising_keys(ev))


RISING_KEYS_SQL = """
WITH r AS (SELECT min(epoch_us(ts)) AS lo, max(epoch_us(ts)) AS hi
           FROM events),
b AS (SELECT user_id, epoch_us(ts) > (r.lo + r.hi) // 2 AS second
      FROM events, r),
c AS (SELECT user_id,
             count(*) FILTER (NOT second) AS c1,
             count(*) FILTER (second) AS c2
      FROM b GROUP BY 1),
t AS (SELECT CAST(sum(c1) AS BIGINT) AS t1,
             CAST(sum(c2) AS BIGINT) AS t2 FROM c)
SELECT user_id, c1, c2,
       CAST(c2*t1 - c1*t2 AS BIGINT) AS score,
       round(CAST(c2 AS DOUBLE)/CAST(t2 AS DOUBLE)
             - CAST(c1 AS DOUBLE)/CAST(t1 AS DOUBLE), 6)
         AS share_delta
FROM c, t WHERE c2*t1 - c1*t2 <> 0
"""


def q_hour_runs(sf_dir):
    """★-checked per-key active/idle run-length profile of the dense
    hourly grid (stages/tsmath.py): exact integer run counts/lengths,
    two mirrored mean ratios; rn − rs gaps-and-islands twin."""
    from ..stages.tsmath import hour_runs

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(hour_runs(ev))


HOUR_RUNS_SQL = """
WITH b AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hb FROM events),
r AS (SELECT user_id, min(hb) AS mn, max(hb) AS mx FROM b GROUP BY 1),
grid AS (SELECT user_id, unnest(generate_series(mn, mx)) AS h FROM r),
c AS (SELECT user_id, hb, count(*) AS cnt FROM b GROUP BY 1, 2),
g AS (SELECT grid.user_id, grid.h AS t, coalesce(c.cnt, 0) AS cnt
      FROM grid LEFT JOIN c
        ON grid.user_id = c.user_id AND grid.h = c.hb),
st AS (SELECT user_id, t, cnt > 0 AS act,
              row_number() OVER (PARTITION BY user_id ORDER BY t)
                AS rn,
              row_number() OVER (PARTITION BY user_id, cnt > 0
                                 ORDER BY t) AS rs
       FROM g),
runs AS (SELECT user_id, act, rn - rs AS grp, count(*) AS len
         FROM st GROUP BY 1, 2, 3),
a AS (SELECT user_id,
             count(*) FILTER (act) AS na,
             max(len) FILTER (act) AS mxa,
             CAST(sum(len) FILTER (act) AS BIGINT) AS ta,
             count(*) FILTER (NOT act) AS ni,
             CAST(sum(len) FILTER (NOT act) AS BIGINT) AS ti
      FROM runs GROUP BY 1),
n AS (SELECT user_id, count(*) AS nh FROM g GROUP BY 1)
SELECT a.user_id, n.nh AS n_hours, a.na AS active_runs,
       a.mxa AS max_active_run,
       round(CAST(ta AS DOUBLE)/CAST(na AS DOUBLE), 6)
         AS mean_active_run,
       round(CASE WHEN ni > 0
                  THEN CAST(ti AS DOUBLE)/CAST(ni AS DOUBLE) END, 6)
         AS mean_idle_run
FROM a JOIN n USING (user_id)
"""


def q_revenue_leak(sf_dir):
    """★-checked TPC-H-Q6-style forgone-discount revenue: quantity,
    discount-band and ship-year predicates are PUSHED TO THE READ as
    a pyarrow filter expression (row-group/page pruning at the
    scanner — the 100-TB path reads a fraction of the table), then
    one exact-int Σ price_cents·disc_pct cell per batch is combined
    on the driver."""
    import pyarrow.compute as pc

    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1997-01-01", "us")
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount", "l_quantity",
                 "l_shipdate"],
        filter=((pc.field("l_quantity") < 24)
                & (pc.field("l_shipdate") >= lo)
                & (pc.field("l_shipdate") < hi)),
    )

    def cell(df: pd.DataFrame) -> pd.DataFrame:
        d = np.rint(df["l_discount"].to_numpy(np.float64) * 100.0
                    ).astype(np.int64)
        keep = (d >= 5) & (d <= 7)
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64)[keep]
                    * 100.0).astype(np.int64)
        return pd.DataFrame({"n": [int(keep.sum())],
                             "units": [int((p * d[keep]).sum())]})

    parts = li.map_batches(cell, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    units = int(parts["units"].sum())
    return pd.DataFrame({"n_rows": [n], "leak_units": [units],
                         "leak_dollars":
                         [round(float(units) / 10000.0, 6)]})


REVENUE_LEAK_SQL = """
WITH f AS (
  SELECT CAST(round(l_extendedprice*100) AS BIGINT) AS p,
         CAST(round(l_discount*100) AS BIGINT) AS d
  FROM lineitem
  WHERE l_quantity < 24
    AND l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01'
    AND CAST(round(l_discount*100) AS BIGINT) BETWEEN 5 AND 7)
SELECT count(*) AS n_rows, CAST(sum(p*d) AS BIGINT) AS leak_units,
       round(CAST(CAST(sum(p*d) AS BIGINT) AS DOUBLE)/10000.0, 6)
         AS leak_dollars
FROM f
"""


def q_lmoments(sf_dir):
    """★-checked per-key sample L-moments λ₂/τ₃/τ₄
    (stages/tsmath.py): exact int64 binomial-weighted order-statistic
    numerators, mirrored probability-weighted-moment closings."""
    from ..stages.tsmath import lmoments

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )
    return round6(lmoments(ev))


LMOMENTS_SQL = """
WITH b AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         row_number() OVER (PARTITION BY user_id ORDER BY
                            CAST(round(value*100) AS BIGINT)) - 1
           AS i,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events),
a AS (SELECT user_id, max(n) AS n,
             CAST(sum(x) AS BIGINT) AS n0,
             CAST(sum(i*x) AS BIGINT) AS n1,
             CAST(sum((i*(i-1)//2)*x) AS BIGINT) AS n2,
             CAST(sum((i*(i-1)*(i-2)//6)*x) AS BIGINT) AS n3
      FROM b GROUP BY 1),
m AS (SELECT user_id, n, CAST(n AS DOUBLE) AS nf,
             CAST(n0 AS DOUBLE) AS f0, CAST(n1 AS DOUBLE) AS f1,
             CAST(n2 AS DOUBLE) AS f2, CAST(n3 AS DOUBLE) AS f3
      FROM a),
p AS (SELECT user_id, n,
             f0/nf AS b0,
             f1/(nf*(nf-1.0)) AS b1,
             f2/(nf*((nf-1.0)*(nf-2.0)/2.0)) AS b2,
             f3/(nf*((nf-1.0)*(nf-2.0)*(nf-3.0)/6.0)) AS b3
      FROM m),
l AS (SELECT user_id, n, 2.0*b1 - b0 AS l2,
             6.0*b2 - 6.0*b1 + b0 AS l3,
             20.0*b3 - 30.0*b2 + 12.0*b1 - b0 AS l4
      FROM p)
SELECT user_id, n, round(l2, 6) AS l2,
       round(CASE WHEN l2 <> 0 THEN l3/l2 END, 6) AS t3,
       round(CASE WHEN l2 <> 0 THEN l4/l2 END, 6) AS t4
FROM l WHERE n >= 4 AND l2 <> 0
"""


def q_df_histogram(sf_dir):
    """★-checked corpus document-frequency histogram
    (stages/pack.py): per-block distinct-doc partials, token-keyed
    exchange, per-partition df value_counts; exact int counts, one
    mirrored share division."""
    from ..stages.pack import df_histogram

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(df_histogram(docs))


DF_HISTOGRAM_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS term
  FROM documents),
d AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1),
t AS (SELECT count(*) AS v FROM d)
SELECT df, count(*) AS n_terms,
       round(CAST(count(*) AS DOUBLE)/CAST(t.v AS DOUBLE), 6) AS share
FROM d, t GROUP BY df, t.v
"""


def q_hjorth_params(sf_dir):
    """★-checked per-key Hjorth activity/mobility/complexity
    (stages/tsmath.py): exact int64 Σx/Σx² over the value stream and
    its first/second in-key differences, three mirrored float
    variance closings; lag-window twin."""
    from ..stages.tsmath import hjorth_params

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(hjorth_params(ev))


HJORTH_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT)) OVER w AS x1,
         lag(CAST(round(value*100) AS BIGINT), 2) OVER w AS x2
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (
  SELECT user_id, count(*) AS n,
         sum(x) AS s1, sum(x*x) AS s2,
         sum(x - x1) AS sd1, sum((x-x1)*(x-x1)) AS sd2,
         sum(x - 2*x1 + x2) AS sdd1,
         sum((x-2*x1+x2)*(x-2*x1+x2)) AS sdd2
  FROM o GROUP BY 1),
v AS (
  SELECT user_id, n,
         (CAST(s2 AS DOUBLE)
          - (CAST(s1 AS DOUBLE)/n)*CAST(s1 AS DOUBLE)) / n AS vx,
         (CAST(sd2 AS DOUBLE)
          - (CAST(sd1 AS DOUBLE)/(n-1.0))*CAST(sd1 AS DOUBLE))
           / (n-1.0) AS vd,
         (CAST(sdd2 AS DOUBLE)
          - (CAST(sdd1 AS DOUBLE)/(n-2.0))*CAST(sdd1 AS DOUBLE))
           / (n-2.0) AS vdd
  FROM a)
SELECT user_id, n,
       round(vx/10000.0, 6) AS activity,
       round(sqrt(vd/vx), 6) AS mobility,
       round(sqrt(vdd/vd)/sqrt(vd/vx), 6) AS complexity
FROM v WHERE n >= 3 AND vx > 0 AND vd > 0
"""


def q_teager_energy(sf_dir):
    """★-checked per-key Teager–Kaiser energy profile
    (stages/tsmath.py): exact int64 ΣΨ and negative-Ψ counts over
    interior points of the sorted value stream, two mirrored float
    closings; lag/lead-window twin."""
    from ..stages.tsmath import teager_energy

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(teager_energy(ev))


TEAGER_SQL = """
WITH o AS (
  SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
         lag(CAST(round(value*100) AS BIGINT)) OVER w AS xp,
         lead(CAST(round(value*100) AS BIGINT)) OVER w AS xn
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
p AS (SELECT user_id, x*x - xp*xn AS psi FROM o
      WHERE xp IS NOT NULL AND xn IS NOT NULL),
a AS (SELECT user_id, count(*) AS n_psi, sum(psi) AS sp,
             count(*) FILTER (psi < 0) AS neg
      FROM p GROUP BY 1)
SELECT user_id, n_psi,
       round(CAST(sp AS DOUBLE)/n_psi/10000.0, 6) AS mean_psi,
       round(CAST(neg AS DOUBLE)/n_psi, 6) AS neg_share
FROM a WHERE n_psi >= 1
"""


def q_fractal_dims(sf_dir):
    """★-checked per-key Petrosian + Katz fractal dimensions
    (stages/tsmath.py): exact int64 path length / extent / strict
    sign-change counts, two mirrored log10 closings; double-lag
    window twin."""
    from ..stages.tsmath import fractal_dims

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(fractal_dims(ev))


FRACTAL_SQL = """
WITH o AS (
  SELECT user_id, x, lag(x) OVER w AS x1, lag(x, 2) OVER w AS x2,
         first_value(x) OVER w AS x0
  FROM (SELECT user_id, ts, event_id,
               CAST(round(value*100) AS BIGINT) AS x FROM events)
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
a AS (SELECT user_id, count(*) AS n,
             sum(abs(x - x1)) AS L,
             max(abs(x - x0)) AS D,
             count(*) FILTER ((x - x1)*(x1 - x2) < 0) AS nd
      FROM o GROUP BY 1)
SELECT user_id, n, nd AS n_delta,
       round(log10(CAST(n AS DOUBLE))
             / (log10(CAST(n AS DOUBLE))
                + log10(CAST(n AS DOUBLE)
                        / (CAST(n AS DOUBLE) + 0.4*nd))), 6) AS pfd,
       round(log10(n - 1.0)
             / (log10(n - 1.0)
                + log10(CAST(D AS DOUBLE)/CAST(L AS DOUBLE))), 6)
         AS katz_fd
FROM a WHERE n >= 3 AND L > 0 AND D > 0
"""


def q_page_hinkley(sf_dir):
    """★-checked per-key offline Page–Hinkley mean-shift gaps
    (stages/tsmath.py): integer-space cumulative deviations
    n·Σx_i − t·Σx with exact running min/max (HUGEINT window
    frames in the twin), two mirrored descale closings."""
    from ..stages.tsmath import page_hinkley

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(page_hinkley(ev))


PAGE_HINKLEY_SQL = """
WITH o AS (
  SELECT user_id, ts, event_id,
         CAST(round(value*100) AS BIGINT) AS x,
         count(*) OVER (PARTITION BY user_id) AS n,
         sum(CAST(round(value*100) AS BIGINT))
           OVER (PARTITION BY user_id) AS s1
  FROM events),
c AS (SELECT user_id, ts, event_id, n,
             sum(n*x - s1) OVER w AS cum
      FROM o
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING)),
r AS (SELECT user_id, n, cum,
             min(cum) OVER w2 AS rmin,
             max(cum) OVER w2 AS rmax
      FROM c
      WINDOW w2 AS (PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING)),
a AS (SELECT user_id, max(n) AS n,
             max(cum - rmin) AS upi, max(rmax - cum) AS dni
      FROM r GROUP BY 1)
SELECT user_id, n,
       round(CAST(upi AS DOUBLE)/(n*100.0), 6) AS ph_up,
       round(CAST(dni AS DOUBLE)/(n*100.0), 6) AS ph_down
FROM a WHERE n >= 2
"""


def q_grubbs_stat(sf_dir):
    """★-checked per-key Grubbs extreme-outlier statistic
    (stages/tsmath.py): exact int64 Σx/Σx², float max-deviation and
    sample-std closings mirrored over the identical deviation set."""
    from ..stages.tsmath import grubbs_stat

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )
    return round6(grubbs_stat(ev))


GRUBBS_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x FROM events),
a AS (SELECT user_id, count(*) AS n, sum(x) AS s1, sum(x*x) AS s2
      FROM o GROUP BY 1),
m AS (SELECT user_id, n, s1, s2,
             CAST(s1 AS DOUBLE)/n AS mu FROM a),
d AS (SELECT o.user_id,
             max(abs(CAST(o.x AS DOUBLE) - m.mu)) AS mx
      FROM o JOIN m ON o.user_id = m.user_id GROUP BY 1),
v AS (SELECT m.user_id, m.n, d.mx,
             (CAST(m.s2 AS DOUBLE) - m.mu*CAST(m.s1 AS DOUBLE))
               / (m.n - 1.0) AS var
      FROM m JOIN d ON m.user_id = d.user_id)
SELECT user_id, n,
       round(mx/100.0, 6) AS max_dev,
       round(mx/sqrt(var), 6) AS grubbs_g
FROM v WHERE n >= 3 AND var > 0
"""


def q_rfm_segmentation(sf_dir):
    """★-checked RFM customer segmentation (stages/analytics.py):
    exact µs recency / count / k-space monetary per key, integer
    rank-quintile scores with row_number tie-breaks mirrored in the
    twin."""
    from ..stages.analytics import rfm_segmentation

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return round6(rfm_segmentation(ev))


RFM_SQL = """
WITH a AS (SELECT user_id, max(epoch_us(ts)) AS last_t,
                  count(*) AS freq,
                  sum(CAST(round(value*100) AS BIGINT)) AS mon
           FROM events GROUP BY 1),
h AS (SELECT max(last_t) AS hi FROM a),
b AS (SELECT user_id, hi - last_t AS rec, freq, mon FROM a, h),
r AS (SELECT user_id, rec, freq, mon,
             row_number() OVER (ORDER BY rec, user_id) AS rr,
             row_number() OVER (ORDER BY freq DESC, user_id) AS rf,
             row_number() OVER (ORDER BY mon DESC, user_id) AS rm,
             count(*) OVER () AS n
      FROM b)
SELECT user_id, rec AS recency_us, freq,
       round(CAST(mon AS DOUBLE)/100.0, 6) AS monetary,
       5 - (rr - 1)*5 // n AS r_score,
       5 - (rf - 1)*5 // n AS f_score,
       5 - (rm - 1)*5 // n AS m_score,
       100*(5 - (rr - 1)*5 // n) + 10*(5 - (rf - 1)*5 // n)
         + (5 - (rm - 1)*5 // n) AS rfm
FROM r
"""


def q_basket_lift(sf_dir):
    """★-checked users-as-baskets association lift over event-type
    pairs (stages/analytics.py): map-side distinct partials, one
    user-keyed exchange to |items|²-bounded cells, mirrored
    support/lift closings; distinct self-join twin."""
    from ..stages.analytics import basket_lift

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return round6(basket_lift(ev))


BASKET_LIFT_SQL = """
WITH u AS (SELECT DISTINCT user_id, event_type FROM events),
n AS (SELECT count(DISTINCT user_id) AS nu FROM events),
s AS (SELECT event_type, count(*) AS c FROM u GROUP BY 1),
p AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
             count(*) AS n_both
      FROM u a JOIN u b
        ON a.user_id = b.user_id AND a.event_type < b.event_type
      GROUP BY 1, 2)
SELECT type_a, type_b, sa.c AS n_a, sb.c AS n_b, n_both,
       round(CAST(n_both AS DOUBLE)/nu, 6) AS support,
       round(CAST(n_both AS DOUBLE)*nu
             /CAST(sa.c*sb.c AS DOUBLE), 6) AS lift
FROM p, n
JOIN s sa ON sa.event_type = type_a
JOIN s sb ON sb.event_type = type_b
"""


def q_heaps_law(sf_dir):
    """★-checked Heaps'-law vocabulary-growth fit (stages/pack.py):
    exact doc/token/vocab counts at 16 checkpoint ranks, log-log OLS
    over sequential running sums mirrored by window frames."""
    from ..stages.pack import heaps_law

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return round6(heaps_law(docs))


HEAPS_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS term
  FROM documents),
dc AS (SELECT doc_id, count(*) AS m FROM tok GROUP BY 1),
d2 AS (SELECT d.doc_id, coalesce(dc.m, 0) AS m
       FROM documents d LEFT JOIN dc USING (doc_id)),
o AS (SELECT doc_id, m,
             row_number() OVER (ORDER BY doc_id) AS r,
             sum(m) OVER (ORDER BY doc_id
                          ROWS UNBOUNDED PRECEDING) AS cumtok
      FROM d2),
nn AS (SELECT count(*) AS dd, CAST(sum(m) AS BIGINT) AS tt FROM d2),
ck AS (SELECT i, i*dd//16 AS rj
       FROM (SELECT unnest(generate_series(1, 16)) AS i), nn),
cp AS (SELECT ck.i, o.doc_id, o.cumtok
       FROM ck JOIN o ON o.r = ck.rj),
fd AS (SELECT term, min(doc_id) AS f FROM tok GROUP BY 1),
vt AS (SELECT count(*) AS vocab FROM fd),
vj AS (SELECT cp.i, cp.cumtok,
              (SELECT count(*) FROM fd WHERE fd.f <= cp.doc_id) AS v
       FROM cp),
w AS (SELECT i, ln(CAST(cumtok AS DOUBLE)) AS xx,
             ln(CAST(v AS DOUBLE)) AS yy FROM vj),
rs AS (SELECT i, sum(xx) OVER wo AS sx, sum(yy) OVER wo AS sy,
             sum(xx*xx) OVER wo AS sxx, sum(xx*yy) OVER wo AS sxy
       FROM w
       WINDOW wo AS (ORDER BY i ROWS UNBOUNDED PRECEDING)),
f AS (SELECT (16.0*sxy - sx*sy)/(16.0*sxx - sx*sx) AS beta,
             sx, sy FROM rs WHERE i = 16)
SELECT nn.dd AS n_docs, nn.tt AS tokens_total,
       vt.vocab AS vocab_total,
       round(f.beta, 6) AS beta,
       round(exp((f.sy - f.beta*f.sx)/16.0), 6) AS k_coef
FROM nn, vt, f
"""


def q_pareto_concentration(sf_dir):
    """★-checked Lorenz concentration-curve points (top-p% key share
    of events; stages/analytics.py): exact integer cut ranks
    k = max(1, p·N//100) with count-desc/key-asc ordering, one
    mirrored share closing."""
    from ..stages.analytics import pareto_concentration

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    return round6(pareto_concentration(ev))


PARETO_SQL = """
WITH c AS (SELECT user_id, count(*) AS cnt FROM events GROUP BY 1),
r AS (SELECT cnt,
             row_number() OVER (ORDER BY cnt DESC, user_id) AS rn,
             count(*) OVER () AS n,
             sum(cnt) OVER (ORDER BY cnt DESC, user_id
                            ROWS UNBOUNDED PRECEDING) AS cum
      FROM c),
t AS (SELECT CAST(sum(cnt) AS BIGINT) AS total FROM c),
p AS (SELECT unnest([1, 5, 10, 25, 50]) AS pct)
SELECT p.pct, r.rn AS n_top_keys,
       CAST(r.cum AS BIGINT) AS top_events,
       round(CAST(r.cum AS DOUBLE)/CAST(t.total AS DOUBLE), 6)
         AS share
FROM p, t
JOIN r ON r.rn = greatest(1, p.pct * r.n // 100)
"""


def q_vocab_richness(sf_dir):
    """★-checked corpus vocabulary-richness indices (Yule's K,
    Simpson's D, Sichel's S, hapax share; stages/pack.py): exact
    int64 term-frequency moment cells through one token-keyed
    exchange, four mirrored float closings."""
    from ..stages.pack import vocab_richness

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    return round6(vocab_richness(docs))


VOCAB_RICHNESS_SQL = """
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS term
  FROM documents),
c AS (SELECT term, count(*) AS m FROM tok GROUP BY 1),
a AS (SELECT CAST(sum(m) AS BIGINT) AS n,
             CAST(sum(m*m) AS BIGINT) AS s2,
             CAST(sum(m*(m-1)) AS BIGINT) AS sp,
             count(*) AS v,
             count(*) FILTER (m = 1) AS v1,
             count(*) FILTER (m = 2) AS v2
      FROM c)
SELECT n AS n_tokens, v AS vocab, v1, v2,
       round(10000.0*CAST(s2 - n AS DOUBLE)
             /(CAST(n AS DOUBLE)*CAST(n AS DOUBLE)), 6) AS yule_k,
       round(CAST(sp AS DOUBLE)
             /(CAST(n AS DOUBLE)*(n - 1.0)), 6) AS simpson_d,
       round(CAST(v2 AS DOUBLE)/CAST(v AS DOUBLE), 6) AS sichel_s,
       round(CAST(v1 AS DOUBLE)/CAST(v AS DOUBLE), 6) AS hapax_share
FROM a WHERE n >= 2 AND v > 0
"""


def q_monotone_runs(sf_dir):
    """★-checked per-key monotone-run profile (stages/tsmath.py):
    longest up/down/flat runs + run count over successive-difference
    signs — pure integer, rn − rs gaps-and-islands twin."""
    from ..stages.tsmath import monotone_runs

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(monotone_runs(ev))


MONOTONE_RUNS_SQL = """
WITH o AS (SELECT user_id, ts, event_id,
                  CAST(round(value*100) AS BIGINT) AS x FROM events),
d AS (SELECT user_id,
             CASE WHEN x > lag(x) OVER w THEN 1
                  WHEN x < lag(x) OVER w THEN -1 ELSE 0 END AS sg,
             row_number() OVER w AS rn
      FROM o
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
d2 AS (SELECT user_id, sg, rn,
              row_number() OVER (PARTITION BY user_id, sg
                                 ORDER BY rn) AS rs
       FROM d WHERE rn > 1),
runs AS (SELECT user_id, sg, rn - rs AS grp, count(*) AS len
         FROM d2 GROUP BY 1, 2, 3),
a AS (SELECT user_id,
             coalesce(max(len) FILTER (sg = 1), 0) AS longest_up,
             coalesce(max(len) FILTER (sg = -1), 0) AS longest_down,
             coalesce(max(len) FILTER (sg = 0), 0) AS longest_flat,
             count(*) AS n_runs
      FROM runs GROUP BY 1),
n AS (SELECT user_id, count(*) AS n FROM o GROUP BY 1)
SELECT n.user_id, n.n, a.longest_up, a.longest_down,
       a.longest_flat, a.n_runs
FROM n JOIN a ON n.user_id = a.user_id WHERE n.n >= 2
"""


def q_rank_compare(sf_dir):
    """★-checked pairwise Mann–Whitney U + Cliff's delta over all
    event-type pairs (stages/analytics.py): exact int64 histogram-
    cell pair counts and tie term, mirrored z/δ closings."""
    from ..stages.analytics import rank_compare

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return round6(rank_compare(ev))


RANK_COMPARE_SQL = """
WITH q AS (SELECT event_type AS t,
                  CAST(round(value*100) AS BIGINT) AS k FROM events
           WHERE value IS NOT NULL),
c AS (SELECT t, k, count(*) AS c FROM q GROUP BY 1, 2),
ty AS (SELECT DISTINCT t FROM q),
pairs AS (SELECT a.t AS ta, b.t AS tb
          FROM ty a JOIN ty b ON a.t < b.t),
h AS (SELECT p.ta, p.tb, c.k,
             sum(CASE WHEN c.t = p.ta THEN c.c ELSE 0 END) AS ca,
             sum(CASE WHEN c.t = p.tb THEN c.c ELSE 0 END) AS cb
      FROM pairs p JOIN c ON c.t IN (p.ta, p.tb)
      GROUP BY 1, 2, 3),
w AS (SELECT ta, tb, k, ca, cb,
             sum(cb) OVER wo - cb AS cb_less,
             sum(ca) OVER wo - ca AS ca_less
      FROM h
      WINDOW wo AS (PARTITION BY ta, tb ORDER BY k
                    ROWS UNBOUNDED PRECEDING)),
a AS (SELECT ta AS type_a, tb AS type_b,
             CAST(sum(ca) AS BIGINT) AS n_a,
             CAST(sum(cb) AS BIGINT) AS n_b,
             CAST(sum(ca*cb_less) AS BIGINT) AS gt_pairs,
             CAST(sum(cb*ca_less) AS BIGINT) AS lt_pairs,
             CAST(sum(ca*cb) AS BIGINT) AS eq_pairs,
             CAST(sum((ca+cb)*(ca+cb)*(ca+cb) - (ca+cb)) AS BIGINT)
               AS st
      FROM w GROUP BY 1, 2)
SELECT type_a, type_b, n_a, n_b,
       2*gt_pairs + eq_pairs AS u_twice,
       gt_pairs, lt_pairs, eq_pairs,
       round((CAST(2*gt_pairs + eq_pairs AS DOUBLE)
              - CAST(n_a AS DOUBLE)*CAST(n_b AS DOUBLE))
             /(2.0*sqrt((CAST(n_a AS DOUBLE)*CAST(n_b AS DOUBLE)
                         /12.0)
                        *((CAST(n_a + n_b AS DOUBLE) + 1.0)
                          - CAST(st AS DOUBLE)
                            /(CAST(n_a + n_b AS DOUBLE)
                              *(CAST(n_a + n_b AS DOUBLE) - 1.0))))),
             6) AS z_score,
       round(CAST(gt_pairs - lt_pairs AS DOUBLE)
             /(CAST(n_a AS DOUBLE)*CAST(n_b AS DOUBLE)), 6)
         AS cliffs_delta
FROM a WHERE n_a > 0 AND n_b > 0
"""


def q_kruskal_wallis(sf_dir):
    """★-checked Kruskal–Wallis H across all event types
    (stages/analytics.py): exact int64 doubled rank sums per group
    from the global value histogram, mirrored H / tie-corrected H
    closings."""
    from ..stages.analytics import kruskal_wallis

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return round6(kruskal_wallis(ev))


KRUSKAL_SQL = """
WITH q AS (SELECT event_type AS t,
                  CAST(round(value*100) AS BIGINT) AS k FROM events
           WHERE value IS NOT NULL),
c AS (SELECT t, k, count(*) AS c FROM q GROUP BY 1, 2),
g AS (SELECT k, CAST(sum(c) AS BIGINT) AS tk FROM c GROUP BY 1),
w AS (SELECT k, tk,
             sum(tk) OVER (ORDER BY k ROWS UNBOUNDED PRECEDING) - tk
               AS less
      FROM g),
r AS (SELECT c.t, CAST(sum(c.c) AS BIGINT) AS n_i,
             CAST(sum(c.c*(2*w.less + w.tk + 1)) AS BIGINT)
               AS r_twice
      FROM c JOIN w USING (k) GROUP BY 1),
tot AS (SELECT CAST(sum(n_i) AS BIGINT) AS n,
               sum(CAST(r_twice AS DOUBLE)*CAST(r_twice AS DOUBLE)
                   /(4.0*CAST(n_i AS DOUBLE))) AS s2
        FROM r),
tie AS (SELECT CAST(sum(tk*tk*tk - tk) AS BIGINT) AS st FROM g),
h AS (SELECT n,
             12.0/(CAST(n AS DOUBLE)*(CAST(n AS DOUBLE) + 1.0))*s2
               - 3.0*(CAST(n AS DOUBLE) + 1.0) AS hstat,
             st
      FROM tot, tie)
SELECT r.t AS event_type, r.n_i, r.r_twice, h.n AS n_total,
       round(h.hstat, 6) AS h_stat,
       round(h.hstat
             /(1.0 - CAST(h.st AS DOUBLE)
               /(CAST(h.n AS DOUBLE)*CAST(h.n AS DOUBLE)
                 *CAST(h.n AS DOUBLE) - CAST(h.n AS DOUBLE))), 6)
         AS h_tie
FROM r, h
"""


def q_activity_corr_pairs(sf_dir):
    """★-checked pairwise hourly-activity Pearson correlation over
    the top-20 busiest users (stages/analytics.py): exact int64
    co-activity sums on the shared dense grid, one mirrored r
    closing."""
    from ..stages.analytics import activity_corr_pairs

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(activity_corr_pairs(ev))


ACTIVITY_CORR_SQL = """
WITH cnt AS (SELECT user_id, count(*) AS cnt
             FROM events GROUP BY 1),
top AS (SELECT user_id FROM (
          SELECT user_id,
                 row_number() OVER (ORDER BY cnt DESC, user_id) AS rn
          FROM cnt) WHERE rn <= 20),
cell AS (SELECT e.user_id, epoch_us(e.ts)//3600000000 AS hb,
                count(*) AS c
         FROM events e JOIN top USING (user_id) GROUP BY 1, 2),
g AS (SELECT CAST(max(hb) - min(hb) + 1 AS BIGINT) AS h FROM cell),
s AS (SELECT user_id, CAST(sum(c) AS BIGINT) AS s,
             CAST(sum(c*c) AS BIGINT) AS q
      FROM cell GROUP BY 1),
p AS (SELECT a.user_id AS ua, b.user_id AS ub
      FROM top a JOIN top b ON a.user_id < b.user_id),
xy0 AS (SELECT ca.user_id AS ua, cb.user_id AS ub,
               CAST(sum(ca.c*cb.c) AS BIGINT) AS sxy
        FROM cell ca JOIN cell cb
          ON ca.hb = cb.hb AND ca.user_id < cb.user_id
        GROUP BY 1, 2),
f AS (SELECT p.ua, p.ub, coalesce(xy0.sxy, 0) AS sxy
      FROM p LEFT JOIN xy0 ON xy0.ua = p.ua AND xy0.ub = p.ub)
SELECT f.ua AS user_a, f.ub AS user_b, g.h AS n_hours, f.sxy,
       round(CAST(g.h*f.sxy - sa.s*sb.s AS DOUBLE)
             / sqrt(CAST((g.h*sa.q - sa.s*sa.s)
                         *(g.h*sb.q - sb.s*sb.s) AS DOUBLE)), 6)
         AS r
FROM f, g
JOIN s sa ON sa.user_id = f.ua
JOIN s sb ON sb.user_id = f.ub
WHERE (g.h*sa.q - sa.s*sa.s) > 0 AND (g.h*sb.q - sb.s*sb.s) > 0
"""


def q_anova_f(sf_dir):
    """★-checked one-way ANOVA F + η² across event types
    (stages/analytics.py): exact int64 per-group moments, mirrored
    between/within sum-of-squares closings."""
    from ..stages.analytics import anova_f

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return round6(anova_f(ev))


ANOVA_SQL = """
WITH q AS (SELECT event_type AS t,
                  CAST(round(value*100) AS BIGINT) AS k FROM events
           WHERE value IS NOT NULL),
g AS (SELECT t, count(*) AS n_i, CAST(sum(k) AS BIGINT) AS s_i,
             CAST(sum(k*k) AS BIGINT) AS q_i
      FROM q GROUP BY 1),
tot AS (SELECT count(*) AS kg, CAST(sum(n_i) AS BIGINT) AS n,
               CAST(sum(s_i) AS BIGINT) AS s,
               CAST(sum(q_i) AS BIGINT) AS qq,
               sum(CAST(s_i AS DOUBLE)*CAST(s_i AS DOUBLE)
                   /CAST(n_i AS DOUBLE)) AS tsum
        FROM g),
h AS (SELECT kg, n,
             tsum - CAST(s AS DOUBLE)*CAST(s AS DOUBLE)
                      /CAST(n AS DOUBLE) AS ssb,
             CAST(qq AS DOUBLE) - CAST(s AS DOUBLE)*CAST(s AS DOUBLE)
                      /CAST(n AS DOUBLE) AS sst,
             CAST(qq AS DOUBLE) - tsum AS ssw
      FROM tot)
SELECT g.t AS event_type, g.n_i, g.s_i, g.q_i,
       round((h.ssb/(h.kg - 1.0))
             /(h.ssw/(CAST(h.n AS DOUBLE) - h.kg)), 6) AS f_stat,
       round(h.ssb/h.sst, 6) AS eta_sq
FROM g, h WHERE h.kg >= 2 AND h.n > h.kg AND h.ssw > 0 AND h.sst > 0
"""


def q_returned_revenue(sf_dir):
    """★-checked TPC-H-Q10-style lost-revenue ranking: top-20
    customers by returned-item revenue.  Scale shape: lineitem is
    returnflag-filtered at the read and pre-aggregated to exact-int
    per-orderkey revenue cells map-side, the one hash join (orderkey)
    carries cells, custkey re-aggregation is a second cell-sized
    exchange, and customer names attach from the dimension read at
    the end; the integer top-20 (units desc, custkey) is
    deterministic."""
    import pyarrow.compute as pc

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"],
        filter=(pc.field("l_returnflag") == "R"),
    )

    def li_cells(df: pd.DataFrame) -> pd.DataFrame:
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        d = np.rint(df["l_discount"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "_rev": p * (100 - d)})
        return g.groupby("l_orderkey", as_index=False).sum()

    cells = li.map_batches(li_cells, batch_format="pandas")

    def ords_map(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_custkey": df["o_custkey"].to_numpy(np.int64)})

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
    ).map_batches(ords_map, batch_format="pandas")

    rev = group_apply(
        cells,
        lambda df: df.groupby("l_orderkey",
                              as_index=False)["_rev"].sum(),
        key="l_orderkey")
    joined = rev.join(ords, "inner", num_partitions=partition_count(),
                      on=("l_orderkey",))
    per_cust = group_apply(
        joined,
        lambda df: df.groupby("o_custkey",
                              as_index=False)["_rev"].sum(),
        key="o_custkey").to_pandas()
    if per_cust.empty:
        return pd.DataFrame({
            "c_custkey": pd.Series(dtype="int64"),
            "c_name": pd.Series(dtype=object),
            "rev_units": pd.Series(dtype="int64"),
            "revenue": pd.Series(dtype="float64")})
    top = per_cust.sort_values(["_rev", "o_custkey"],
                               ascending=[False, True],
                               kind="mergesort").head(20)
    names = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name"],
    ).to_pandas().set_index("c_custkey")["c_name"]
    out = pd.DataFrame({
        "c_custkey": top["o_custkey"].to_numpy(np.int64),
        "c_name": top["o_custkey"].map(names).to_numpy(object),
        "rev_units": top["_rev"].to_numpy(np.int64),
        "revenue": np.round(top["_rev"].to_numpy(np.int64)
                            .astype(np.float64) / 10000.0, 6)})
    return out.reset_index(drop=True)


RETURNED_REVENUE_SQL = """
WITH f AS (
  SELECT l_orderkey,
         CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT)) AS u
  FROM lineitem WHERE l_returnflag = 'R'),
g AS (SELECT o.o_custkey, CAST(sum(f.u) AS BIGINT) AS units
      FROM f JOIN orders o ON f.l_orderkey = o.o_orderkey
      GROUP BY 1)
SELECT g.o_custkey AS c_custkey, c.c_name,
       g.units AS rev_units,
       round(CAST(g.units AS DOUBLE)/10000.0, 6) AS revenue
FROM g JOIN customer c ON c.c_custkey = g.o_custkey
ORDER BY g.units DESC, g.o_custkey LIMIT 20
"""


def q_cramers_v(sf_dir):
    """★-checked Cramér's V association between document language
    and source (stages/analytics.py): exact int64 contingency cells,
    mirrored full-grid χ² + V closings."""
    from ..stages.analytics import cramers_v

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source"]
    )
    return round6(cramers_v(docs))


CRAMERS_V_SQL = """
WITH o AS (SELECT lang AS a, source AS b,
                  CAST(count(*) AS BIGINT) AS o
           FROM documents GROUP BY 1, 2),
rt AS (SELECT a, CAST(sum(o) AS BIGINT) AS r FROM o GROUP BY a),
ct AS (SELECT b, CAST(sum(o) AS BIGINT) AS c FROM o GROUP BY b),
n AS (SELECT CAST(sum(o) AS BIGINT) AS n FROM o),
grid AS (SELECT rt.a, ct.b, rt.r, ct.c, n.n,
                coalesce(o.o, 0) AS o
         FROM rt CROSS JOIN ct CROSS JOIN n
         LEFT JOIN o ON o.a = rt.a AND o.b = ct.b),
x AS (SELECT (SELECT n FROM n) AS n_rows,
             (SELECT CAST(count(*) AS BIGINT) FROM rt)
               AS n_classes_a,
             (SELECT CAST(count(*) AS BIGINT) FROM ct)
               AS n_classes_b,
             sum(pow(o - CAST(r AS DOUBLE)*c/n, 2)
                 /(CAST(r AS DOUBLE)*c/n)) AS chi2
      FROM grid)
SELECT n_rows, n_classes_a, n_classes_b,
       (n_classes_a - 1)*(n_classes_b - 1) AS dof,
       round(chi2, 6) AS chi2,
       round(sqrt(chi2/(CAST(n_rows AS DOUBLE)
                        *(least(n_classes_a, n_classes_b) - 1.0))),
             6) AS cramers_v
FROM x
"""


def q_levene_bf(sf_dir):
    """★-checked Brown–Forsythe variance-homogeneity W across event
    types (stages/analytics.py): group medians from the value
    histogram in doubled k-space (2·median exact int), |2k − 2med|
    deviation moments exact, one mirrored F-ratio closing."""
    from ..stages.analytics import levene_bf

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return round6(levene_bf(ev))


LEVENE_SQL = """
WITH q AS (SELECT event_type AS t,
                  CAST(round(value*100) AS BIGINT) AS k FROM events
           WHERE value IS NOT NULL),
m AS (SELECT t, CAST(2*median(k) AS BIGINT) AS med2
      FROM q GROUP BY 1),
d AS (SELECT q.t, abs(2*q.k - m.med2) AS dev, m.med2
      FROM q JOIN m ON q.t = m.t),
g AS (SELECT t, max(med2) AS med2, count(*) AS n_i,
             CAST(sum(dev) AS BIGINT) AS s_i,
             CAST(sum(dev*dev) AS BIGINT) AS q_i
      FROM d GROUP BY 1),
tot AS (SELECT count(*) AS kg, CAST(sum(n_i) AS BIGINT) AS n,
               CAST(sum(s_i) AS BIGINT) AS s,
               CAST(sum(q_i) AS BIGINT) AS qq,
               sum(CAST(s_i AS DOUBLE)*CAST(s_i AS DOUBLE)
                   /CAST(n_i AS DOUBLE)) AS tsum
        FROM g),
h AS (SELECT kg, n,
             tsum - CAST(s AS DOUBLE)*CAST(s AS DOUBLE)
                      /CAST(n AS DOUBLE) AS ssb,
             CAST(qq AS DOUBLE) - tsum AS ssw
      FROM tot)
SELECT g.t AS event_type, g.n_i, g.med2, g.s_i, g.q_i,
       round((h.ssb/(h.kg - 1.0))
             /(h.ssw/(CAST(h.n AS DOUBLE) - h.kg)), 6) AS w_stat
FROM g, h WHERE h.kg >= 2 AND h.n > h.kg AND h.ssw > 0
"""


def q_wilcoxon_shift(sf_dir):
    """★-checked Wilcoxon signed-rank corpus activity-shift test
    (stages/analytics.py): paired first/second-half counts per user,
    exact doubled rank sums over the |d| histogram, mirrored
    tie-corrected z."""
    from ..stages.analytics import wilcoxon_shift

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(wilcoxon_shift(ev))


WILCOXON_SQL = """
WITH r AS (SELECT min(epoch_us(ts)) AS lo, max(epoch_us(ts)) AS hi
           FROM events),
c AS (SELECT user_id,
             count(*) FILTER (epoch_us(ts) <= (r.lo + r.hi)//2)
               AS c1,
             count(*) FILTER (epoch_us(ts) > (r.lo + r.hi)//2)
               AS c2
      FROM events, r GROUP BY 1),
d AS (SELECT c2 - c1 AS d, abs(c2 - c1) AS ad FROM c
      WHERE c2 <> c1),
h AS (SELECT ad, CAST(count(*) AS BIGINT) AS t FROM d GROUP BY 1),
w AS (SELECT ad, t,
             sum(t) OVER (ORDER BY ad ROWS UNBOUNDED PRECEDING) - t
               AS less
      FROM h),
pos AS (SELECT CAST(sum(2*w.less + w.t + 1) AS BIGINT) AS w2p
        FROM d JOIN w USING (ad) WHERE d.d > 0),
st AS (SELECT count(*) AS m,
              count(*) FILTER (d > 0) AS np,
              count(*) FILTER (d < 0) AS nn
       FROM d),
tie AS (SELECT CAST(sum(t*t*t - t) AS BIGINT) AS st FROM h)
SELECT st.m, st.np AS n_pos, st.nn AS n_neg,
       coalesce(pos.w2p, 0) AS w2_pos,
       round((CAST(coalesce(pos.w2p, 0) AS DOUBLE)
              - st.m*(st.m + 1.0)/2.0)
             /(2.0*sqrt(st.m*(st.m + 1.0)*(2.0*st.m + 1.0)/24.0
                        - CAST(tie.st AS DOUBLE)/48.0)), 6)
         AS z_score
FROM st, tie, pos WHERE st.m > 0
"""


def q_nation_trade(sf_dir):
    """★-checked TPC-H-Q7-style bilateral trade-flow matrix:
    revenue per (supplier nation, customer nation, ship year).
    Same 100-TB plan as the Q5 star join: supplier→nation and
    customer→nation broadcast once via ray.put, orders enriched
    map-side to (orderkey, cust-nation), lineitem enriched with its
    supplier nation + ship year and PRE-AGGREGATED to exact-int
    (orderkey, supp-nation, year) cells before the single
    large×large orderkey hash join; the flow groupby runs on
    cell-sized join output."""

    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet").to_pandas()
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey"]).to_pandas()
    nname = dict(zip(nation["n_nationkey"].astype(np.int64),
                     nation["n_name"]))
    sk = np.sort(supp["s_suppkey"].to_numpy(np.int64))
    sv = supp.set_index("s_suppkey").loc[sk, "s_nationkey"] \
        .to_numpy(np.int64)
    ck = np.sort(cust["c_custkey"].to_numpy(np.int64))
    cv = cust.set_index("c_custkey").loc[ck, "c_nationkey"] \
        .to_numpy(np.int64)
    dims = ray.put((sk, sv, ck, cv))

    def orders_enrich(df: pd.DataFrame) -> pd.DataFrame:
        _, _, k, v = ray.get(dims)
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "c_nat": v[np.searchsorted(
                k, df["o_custkey"].to_numpy(np.int64))]})

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
    ).map_batches(orders_enrich, batch_format="pandas")

    def li_cells(df: pd.DataFrame) -> pd.DataFrame:
        k, v, _, _ = ray.get(dims)
        snat = v[np.searchsorted(
            k, df["l_suppkey"].to_numpy(np.int64))]
        yr = pd.DatetimeIndex(
            df["l_shipdate"].to_numpy("datetime64[us]")
        ).year.to_numpy(np.int64)
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        d = np.rint(df["l_discount"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "s_nat": snat, "ship_year": yr,
            "units": p * (100 - d)})
        return g.groupby(["l_orderkey", "s_nat", "ship_year"],
                         as_index=False).sum()

    cells = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"],
    ).map_batches(li_cells, batch_format="pandas")

    combined = group_apply(
        cells,
        lambda df: df.groupby(["l_orderkey", "s_nat", "ship_year"],
                              as_index=False)["units"].sum(), key="l_orderkey")
    joined = combined.join(ords, "inner", num_partitions=partition_count(),
                           on=("l_orderkey",))

    def flow_cells(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["s_nat", "c_nat", "ship_year"],
                          as_index=False)["units"].sum()

    flows = joined.map_batches(
        flow_cells, batch_format="pandas").to_pandas()
    if flows.empty:
        return pd.DataFrame({
            "supp_nation": pd.Series(dtype=object),
            "cust_nation": pd.Series(dtype=object),
            "ship_year": pd.Series(dtype="int64"),
            "rev_units": pd.Series(dtype="int64"),
            "revenue": pd.Series(dtype="float64")})
    agg_ = flows.groupby(["s_nat", "c_nat", "ship_year"],
                         as_index=False)["units"].sum()
    out = pd.DataFrame({
        "supp_nation": agg_["s_nat"].map(nname).to_numpy(object),
        "cust_nation": agg_["c_nat"].map(nname).to_numpy(object),
        "ship_year": agg_["ship_year"].to_numpy(np.int64),
        "rev_units": agg_["units"].to_numpy(np.int64),
        "revenue": np.round(agg_["units"].to_numpy(np.int64)
                            .astype(np.float64) / 10000.0, 6)})
    return out.sort_values(
        ["supp_nation", "cust_nation", "ship_year"]
    ).reset_index(drop=True)


NATION_TRADE_SQL = """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       CAST(year(l.l_shipdate) AS BIGINT) AS ship_year,
       CAST(sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
                * (100 - CAST(round(l.l_discount*100) AS BIGINT)))
            AS BIGINT) AS rev_units,
       round(CAST(sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
                      * (100 - CAST(round(l.l_discount*100)
                                    AS BIGINT))) AS DOUBLE)
             /10000.0, 6) AS revenue
FROM lineitem l
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation ns ON s.s_nationkey = ns.n_nationkey
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation nc ON c.c_nationkey = nc.n_nationkey
GROUP BY 1, 2, 3
"""


def q_centroid_cosine(sf_dir):
    """★-checked pairwise class-centroid cosine/distance matrix
    (stages/ann.py): constant-size per-block (n, per-dim Σx)
    partials, mirrored centroid closings."""
    from ..stages.ann import centroid_cosine

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["label", "embedding"],
    )
    return round6(centroid_cosine(emb))


CENTROID_COSINE_SQL = """
WITH e AS (SELECT label, CAST(embedding AS DOUBLE[]) AS v
           FROM embeddings),
u AS (SELECT label, generate_subscripts(v, 1) AS d, unnest(v) AS x
      FROM e),
nc AS (SELECT label, count(*) AS n FROM e GROUP BY 1),
pc AS (SELECT label, d, sum(x) AS s FROM u GROUP BY 1, 2),
c AS (SELECT pc.label, pc.d,
             pc.s/CAST(nc.n AS DOUBLE) AS m
      FROM pc JOIN nc USING (label)),
p AS (SELECT a.label AS la, b.label AS lb
      FROM nc a JOIN nc b ON a.label < b.label),
dots AS (SELECT p.la, p.lb,
                sum(ca.m*cb.m) AS num,
                sum(ca.m*ca.m) AS qa,
                sum(cb.m*cb.m) AS qb,
                sum((ca.m - cb.m)*(ca.m - cb.m)) AS dd
         FROM p JOIN c ca ON ca.label = p.la
                JOIN c cb ON cb.label = p.lb AND cb.d = ca.d
         GROUP BY 1, 2)
SELECT CAST(d.la AS BIGINT) AS label_a,
       CAST(d.lb AS BIGINT) AS label_b,
       na.n AS n_a, nb.n AS n_b,
       round(d.num/(sqrt(d.qa)*sqrt(d.qb)), 6) AS cosine,
       round(sqrt(d.dd), 6) AS dist
FROM dots d
JOIN nc na ON na.label = d.la
JOIN nc nb ON nb.label = d.lb
WHERE d.qa > 0 AND d.qb > 0
"""


def q_trigram_entropy(sf_dir):
    """★-checked corpus order-2 Markov conditional entropy of the
    event-type process (stages/analytics.py): exact int64 trigram
    cells through one key-hash exchange, mirrored H₂/perplexity
    closings."""
    from ..stages.analytics import trigram_entropy

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "ts"],
    )
    return round6(trigram_entropy(ev))


TRIGRAM_ENTROPY_SQL = """
WITH o AS (
  SELECT user_id, event_type AS t,
         lag(event_type) OVER w AS b1,
         lag(event_type, 2) OVER w AS a2
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
g AS (SELECT a2 AS a, b1 AS b, t AS c, count(*) AS cnt
      FROM o WHERE a2 IS NOT NULL GROUP BY 1, 2, 3),
ctx AS (SELECT a, b, CAST(sum(cnt) AS BIGINT) AS nab
        FROM g GROUP BY 1, 2),
n AS (SELECT CAST(sum(cnt) AS BIGINT) AS n FROM g),
h AS (SELECT sum(CAST(g.cnt AS DOUBLE)/n.n
                 * ln(CAST(ctx.nab AS DOUBLE)
                      /CAST(g.cnt AS DOUBLE))) AS h2
      FROM g JOIN ctx USING (a, b), n)
SELECT n.n AS n_trigrams,
       (SELECT CAST(count(*) AS BIGINT) FROM g) AS n_cells,
       (SELECT CAST(count(*) AS BIGINT) FROM ctx) AS n_contexts,
       round(h.h2, 6) AS h2,
       round(exp(h.h2), 6) AS perplexity
FROM n, h
"""


def q_variogram(sf_dir):
    """★-checked corpus structure function γ(h) at index lags
    1/2/4/8 (stages/tsmath.py): exact int64 pair sums per lag, one
    mirrored descale closing."""
    from ..stages.tsmath import variogram

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(variogram(ev))


VARIOGRAM_SQL = """
WITH o AS (SELECT user_id, ts, event_id,
                  CAST(round(value*100) AS BIGINT) AS x FROM events),
l AS (
  SELECT 1 AS lag, x - lag(x, 1)
    OVER (PARTITION BY user_id ORDER BY ts, event_id) AS d FROM o
  UNION ALL
  SELECT 2, x - lag(x, 2)
    OVER (PARTITION BY user_id ORDER BY ts, event_id) FROM o
  UNION ALL
  SELECT 4, x - lag(x, 4)
    OVER (PARTITION BY user_id ORDER BY ts, event_id) FROM o
  UNION ALL
  SELECT 8, x - lag(x, 8)
    OVER (PARTITION BY user_id ORDER BY ts, event_id) FROM o)
SELECT lag, count(*) AS n_pairs,
       CAST(sum(d*d) AS BIGINT) AS ss,
       round(CAST(sum(d*d) AS DOUBLE)/(2.0*count(*))/10000.0, 6)
         AS gamma
FROM l WHERE d IS NOT NULL GROUP BY 1 ORDER BY 1
"""


def q_late_fulfillment(sf_dir):
    """★-checked TPC-H-Q4-style late-fulfillment share by order
    priority: an order is late when ANY lineitem ships more than 90
    days after the order date (max-shipdate cells make the EXISTS a
    plain max).  Map-side exact-µs per-orderkey max cells, one
    orderkey hash join, priority-keyed exact counts."""

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_shipdate"],
    )

    def mx_cells(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "mx": df["l_shipdate"].to_numpy("datetime64[us]")
            .view(np.int64)})
        return g.groupby("l_orderkey", as_index=False).max()

    cells = group_apply(
        li.map_batches(mx_cells, batch_format="pandas"),
        lambda df: df.groupby("l_orderkey", as_index=False)["mx"]
        .max(),
        key="l_orderkey")

    def ords_map(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "odate": df["o_orderdate"].to_numpy("datetime64[us]")
            .view(np.int64),
            "pr": df["o_orderpriority"].to_numpy(object)})

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(ords_map, batch_format="pandas")

    joined = cells.join(ords, "inner", num_partitions=partition_count(),
                        on=("l_orderkey",))

    def pr_cells(df: pd.DataFrame) -> pd.DataFrame:
        late = (df["mx"].to_numpy(np.int64)
                > df["odate"].to_numpy(np.int64)
                + 90 * 86_400_000_000).astype(np.int64)
        g = pd.DataFrame({"pr": df["pr"].to_numpy(object),
                          "n": np.int64(1), "late": late})
        return g.groupby("pr", as_index=False).sum()

    parts = joined.map_batches(
        pr_cells, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({
            "o_orderpriority": pd.Series(dtype=object),
            "n_orders": pd.Series(dtype="int64"),
            "n_late": pd.Series(dtype="int64"),
            "late_share": pd.Series(dtype="float64")})
    agg_ = parts.groupby("pr", as_index=False)[["n", "late"]].sum()
    out = pd.DataFrame({
        "o_orderpriority": agg_["pr"].to_numpy(object),
        "n_orders": agg_["n"].to_numpy(np.int64),
        "n_late": agg_["late"].to_numpy(np.int64),
        "late_share": agg_["late"].to_numpy(np.int64)
        .astype(np.float64)
        / agg_["n"].to_numpy(np.int64).astype(np.float64)})
    return round6(out.sort_values("o_orderpriority")
                  .reset_index(drop=True))


LATE_FULFILLMENT_SQL = """
WITH m AS (SELECT l_orderkey, max(epoch_us(l_shipdate)) AS mx
           FROM lineitem GROUP BY 1),
j AS (SELECT o.o_orderpriority AS pr,
             CASE WHEN m.mx > epoch_us(o.o_orderdate)
                           + 90*86400000000 THEN 1 ELSE 0 END
               AS late
      FROM orders o JOIN m ON m.l_orderkey = o.o_orderkey)
SELECT pr AS o_orderpriority, count(*) AS n_orders,
       CAST(sum(late) AS BIGINT) AS n_late,
       round(CAST(sum(late) AS DOUBLE)/count(*), 6) AS late_share
FROM j GROUP BY 1
"""


def q_banded_revenue(sf_dir):
    """★-checked TPC-H-Q19-style banded revenue: three (brand,
    quantity-band) disjuncts, one row each.  The OR-of-ANDs
    predicate cannot all push to the scanner, so the plan pushes the
    UNION of the quantity bands as the read filter (row-group
    pruning), broadcasts the partkey→brand dimension once via
    ray.put, and resolves the per-band conjunction map-side on
    exact-int cells."""
    import pyarrow.compute as pc
    BANDS = [("Brand#11", 1, 11), ("Brand#22", 10, 20),
             ("Brand#33", 20, 30)]

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).to_pandas()
    pk = np.sort(part["p_partkey"].to_numpy(np.int64))
    pb = part.set_index("p_partkey").loc[pk, "p_brand"] \
        .to_numpy(object)
    dim = ray.put((pk, pb))

    lo = min(b[1] for b in BANDS)
    hi = max(b[2] for b in BANDS)
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice",
                 "l_discount"],
        filter=((pc.field("l_quantity") >= lo)
                & (pc.field("l_quantity") <= hi)),
    )

    def band_cells(df: pd.DataFrame) -> pd.DataFrame:
        k, b = ray.get(dim)
        brand = b[np.searchsorted(
            k, df["l_partkey"].to_numpy(np.int64))]
        q = df["l_quantity"].to_numpy(np.float64)
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        d = np.rint(df["l_discount"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        units = p * (100 - d)
        rows = []
        for name, qlo, qhi in BANDS:
            m = (brand == name) & (q >= qlo) & (q <= qhi)
            rows.append((name, np.int64(qlo), np.int64(qhi),
                         np.int64(int(m.sum())),
                         np.int64(int(units[m].sum()))))
        return pd.DataFrame(rows, columns=["p_brand", "q_lo",
                                           "q_hi", "n", "units"])

    parts = li.map_batches(band_cells,
                           batch_format="pandas").to_pandas()
    agg_ = parts.groupby(["p_brand", "q_lo", "q_hi"],
                         as_index=False)[["n", "units"]].sum()
    out = pd.DataFrame({
        "p_brand": agg_["p_brand"].to_numpy(object),
        "q_lo": agg_["q_lo"].to_numpy(np.int64),
        "q_hi": agg_["q_hi"].to_numpy(np.int64),
        "n_items": agg_["n"].to_numpy(np.int64),
        "rev_units": agg_["units"].to_numpy(np.int64),
        "revenue": np.round(agg_["units"].to_numpy(np.int64)
                            .astype(np.float64) / 10000.0, 6)})
    return out.sort_values("p_brand").reset_index(drop=True)


BANDED_REVENUE_SQL = """
WITH b AS (
  SELECT * FROM (VALUES ('Brand#11', 1, 11), ('Brand#22', 10, 20),
                        ('Brand#33', 20, 30))
    AS t(p_brand, q_lo, q_hi)),
j AS (SELECT p.p_brand, l.l_quantity AS q,
             CAST(round(l.l_extendedprice*100) AS BIGINT)
               * (100 - CAST(round(l.l_discount*100) AS BIGINT))
               AS u
      FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey)
SELECT b.p_brand, CAST(b.q_lo AS BIGINT) AS q_lo,
       CAST(b.q_hi AS BIGINT) AS q_hi,
       count(j.u) AS n_items,
       CAST(coalesce(sum(j.u), 0) AS BIGINT) AS rev_units,
       round(CAST(coalesce(sum(j.u), 0) AS DOUBLE)/10000.0, 6)
         AS revenue
FROM b LEFT JOIN j
  ON j.p_brand = b.p_brand AND j.q >= b.q_lo AND j.q <= b.q_hi
GROUP BY 1, 2, 3
"""


def q_load_factor(sf_dir):
    """★-checked daily peak-to-mean load profile (stages/tsmath.py):
    (day, hour) exact count cells, mirrored peak·24/n closing."""
    from ..stages.tsmath import load_factor

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts"]
    )
    return round6(load_factor(ev))


LOAD_FACTOR_SQL = """
WITH c AS (SELECT epoch_us(ts)//86400000000 AS day,
                  (epoch_us(ts)//3600000000) % 24 AS hour,
                  count(*) AS c
           FROM events GROUP BY 1, 2),
p AS (SELECT day, CAST(sum(c) AS BIGINT) AS n_events,
             CAST(max(c) AS BIGINT) AS peak_hour_cnt
      FROM c GROUP BY 1)
SELECT day, n_events, peak_hour_cnt,
       round(CAST(peak_hour_cnt AS DOUBLE)*24.0
             /CAST(n_events AS DOUBLE), 6) AS load_factor
FROM p
"""


def q_median_test(sf_dir):
    """★-checked Mood's median test across event types
    (stages/analytics.py): grand median exact in doubled k-space,
    above/below counts exact, mirrored k×2 χ² closing."""
    from ..stages.analytics import median_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return round6(median_test(ev))


MEDIAN_TEST_SQL = """
WITH q AS (SELECT event_type AS t,
                  CAST(round(value*100) AS BIGINT) AS k FROM events
           WHERE value IS NOT NULL),
m AS (SELECT CAST(2*median(k) AS BIGINT) AS m2, count(*) AS n
      FROM q),
g AS (SELECT q.t,
             count(*) FILTER (2*q.k > m.m2) AS a,
             count(*) FILTER (2*q.k <= m.m2) AS b
      FROM q, m GROUP BY 1),
t AS (SELECT CAST(sum(a) AS BIGINT) AS ra,
             CAST(sum(b) AS BIGINT) AS rb,
             CAST(sum(a + b) AS BIGINT) AS n FROM g),
x AS (SELECT sum(
        pow(g.a - CAST(g.a + g.b AS DOUBLE)*t.ra/t.n, 2)
          /(CAST(g.a + g.b AS DOUBLE)*t.ra/t.n)
        + pow(g.b - CAST(g.a + g.b AS DOUBLE)*t.rb/t.n, 2)
          /(CAST(g.a + g.b AS DOUBLE)*t.rb/t.n)) AS chi2
      FROM g, t)
SELECT g.t AS event_type, g.a AS n_above, g.b AS n_below,
       m.m2 AS med2, round(x.chi2, 6) AS chi2
FROM g, m, x, t WHERE t.ra > 0 AND t.rb > 0
"""


def q_top_supplier_revenue(sf_dir):
    """★-checked TPC-H-Q15-style top supplier(s): revenue per
    supplier over one quarter, returning every supplier tied at the
    maximum (the classic correlated-max).  Map-side exact-int
    revenue cells keyed on suppkey after a scanner date filter; the
    max and the tie filter run on the cell table; names attach from
    the dimension read."""
    import pyarrow.compute as pc

    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1997-04-01", "us")
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
        filter=((pc.field("l_shipdate") >= lo)
                & (pc.field("l_shipdate") < hi)),
    )

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        d = np.rint(df["l_discount"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        g = pd.DataFrame({
            "l_suppkey": df["l_suppkey"].to_numpy(np.int64),
            "units": p * (100 - d)})
        return g.groupby("l_suppkey", as_index=False).sum()

    per = group_apply(
        li.map_batches(cells, batch_format="pandas"),
        lambda df: df.groupby("l_suppkey",
                              as_index=False)["units"].sum(),
        key="l_suppkey").to_pandas()
    if per.empty:
        return pd.DataFrame({
            "s_suppkey": pd.Series(dtype="int64"),
            "s_name": pd.Series(dtype=object),
            "rev_units": pd.Series(dtype="int64"),
            "revenue": pd.Series(dtype="float64")})
    mx = int(per["units"].max())
    top = per[per["units"] == mx].sort_values("l_suppkey")
    names = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"],
    ).to_pandas().set_index("s_suppkey")["s_name"]
    return pd.DataFrame({
        "s_suppkey": top["l_suppkey"].to_numpy(np.int64),
        "s_name": top["l_suppkey"].map(names).to_numpy(object),
        "rev_units": top["units"].to_numpy(np.int64),
        "revenue": np.round(top["units"].to_numpy(np.int64)
                            .astype(np.float64) / 10000.0, 6)}
    ).reset_index(drop=True)


TOP_SUPPLIER_SQL = """
WITH f AS (
  SELECT l_suppkey,
         CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)
                  * (100 - CAST(round(l_discount*100) AS BIGINT)))
              AS BIGINT) AS units
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate < TIMESTAMP '1997-04-01'
  GROUP BY 1),
m AS (SELECT max(units) AS mx FROM f)
SELECT f.l_suppkey AS s_suppkey, s.s_name,
       f.units AS rev_units,
       round(CAST(f.units AS DOUBLE)/10000.0, 6) AS revenue
FROM f JOIN supplier s ON s.s_suppkey = f.l_suppkey, m
WHERE f.units = m.mx
"""


def q_time_reversal(sf_dir):
    """★-checked per-key time-reversal asymmetry
    (stages/tsmath.py): exact int64 ΣΔ²/ΣΔ³, mirrored
    standardization closing."""
    from ..stages.tsmath import time_reversal

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(time_reversal(ev))


TIME_REVERSAL_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  lag(CAST(round(value*100) AS BIGINT)) OVER w AS x1
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
a AS (SELECT user_id, count(x1) AS nd,
             CAST(sum((x - x1)*(x - x1)) AS BIGINT) AS s2,
             CAST(sum((x - x1)*(x - x1)*(x - x1)) AS BIGINT) AS s3
      FROM o WHERE x1 IS NOT NULL GROUP BY 1)
SELECT user_id, nd AS n_diff, s3 AS d3_sum,
       round((CAST(s3 AS DOUBLE)/nd)
             /((CAST(s2 AS DOUBLE)/nd)
               * sqrt(CAST(s2 AS DOUBLE)/nd)), 6) AS trev
FROM a WHERE s2 > 0
"""


def q_c3_nonlinearity(sf_dir):
    """★-checked per-key c3 third-order cross-moment
    (stages/tsmath.py): exact int64 triple-product sums at lag 1,
    one mirrored mean-descale closing."""
    from ..stages.tsmath import c3_nonlinearity

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(c3_nonlinearity(ev, lag=1))


C3_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  lag(CAST(round(value*100) AS BIGINT)) OVER w AS x1,
                  lag(CAST(round(value*100) AS BIGINT), 2) OVER w
                    AS x2
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
a AS (SELECT user_id, count(x2) AS n_terms,
             CAST(sum(x*x1*x2) AS BIGINT) AS c3_sum
      FROM o WHERE x2 IS NOT NULL GROUP BY 1)
SELECT user_id, n_terms, c3_sum,
       round(CAST(c3_sum AS DOUBLE)/n_terms/1000000.0, 6) AS c3
FROM a WHERE n_terms > 0
"""


def q_energy_chunks(sf_dir):
    """★-checked per-key energy-ratio-by-chunks profile
    (stages/tsmath.py): integer chunk ranks rank₀·8//n, exact Σx²
    per chunk, one mirrored share closing."""
    from ..stages.tsmath import energy_chunks

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(energy_chunks(ev, n_chunks=8))


ENERGY_CHUNKS_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  row_number() OVER w - 1 AS r0,
                  count(*) OVER (PARTITION BY user_id) AS n
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
c AS (SELECT user_id, r0*8//n AS chunk, count(*) AS n_c,
             CAST(sum(x*x) AS BIGINT) AS e_sum
      FROM o GROUP BY 1, 2),
t AS (SELECT user_id, CAST(sum(e_sum) AS BIGINT) AS tot
      FROM c GROUP BY 1)
SELECT c.user_id, c.chunk, c.n_c, c.e_sum,
       round(CAST(c.e_sum AS DOUBLE)/CAST(t.tot AS DOUBLE), 6)
         AS share
FROM c JOIN t USING (user_id) WHERE t.tot > 0
"""


def q_binned_entropy(sf_dir):
    """★-checked per-key binned value entropy (stages/tsmath.py):
    integer equal-width binning over the key's own range, exact bin
    counts, mirrored H closing."""
    from ..stages.tsmath import binned_entropy

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"]
    )
    return round6(binned_entropy(ev, n_bins=10))


BINNED_ENTROPY_SQL = """
WITH q AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x FROM events),
m AS (SELECT user_id, min(x) AS mn, max(x) AS mx,
             CAST(count(*) AS BIGINT) AS n
      FROM q GROUP BY 1),
b AS (SELECT q.user_id, (q.x - m.mn)*10//(m.mx - m.mn + 1) AS bin
      FROM q JOIN m USING (user_id)),
c AS (SELECT user_id, bin, count(*) AS c FROM b GROUP BY 1, 2),
a AS (SELECT user_id, count(*) AS bins_used,
             sum(CAST(c AS DOUBLE)*ln(CAST(c AS DOUBLE))) AS slc,
             CAST(sum(c) AS BIGINT) AS n
      FROM c GROUP BY 1)
SELECT user_id, n, bins_used,
       round(ln(CAST(n AS DOUBLE)) - slc/CAST(n AS DOUBLE), 6)
         AS entropy
FROM a
"""


def q_psd_profile(sf_dir):
    """★-checked per-key low-frequency Fourier power profile +
    spectral slope over the dense hourly grid (stages/tsmath.py):
    seasonal_power demeaning idiom at 8 Fourier bins, running-sum
    OLS slope mirrored by window frames."""
    from ..stages.tsmath import psd_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(psd_profile(ev, n_freqs=8))


PSD_PROFILE_SQL = """
WITH b AS (SELECT user_id, epoch_us(ts)//3600000000 AS hb
           FROM events),
r AS (SELECT user_id, min(hb) AS mn, max(hb) AS mx
      FROM b GROUP BY 1),
grid AS (SELECT user_id, mn, unnest(generate_series(mn, mx)) AS h
         FROM r),
cc AS (SELECT user_id, hb, count(*) AS cnt FROM b GROUP BY 1, 2),
g AS (SELECT grid.user_id, grid.h - grid.mn AS t,
             coalesce(cc.cnt, 0) AS cnt
      FROM grid LEFT JOIN cc
        ON grid.user_id = cc.user_id AND grid.h = cc.hb),
nn AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
              CAST(sum(cnt) AS BIGINT) AS sc
       FROM g GROUP BY 1),
js AS (SELECT unnest(generate_series(1, 8)) AS j),
q AS (SELECT g.user_id, js.j, g.cnt,
             cos(2.0*pi()*CAST((g.t*js.j) % nn.n AS DOUBLE)
                 /CAST(nn.n AS DOUBLE)) AS co,
             sin(2.0*pi()*CAST((g.t*js.j) % nn.n AS DOUBLE)
                 /CAST(nn.n AS DOUBLE)) AS si
      FROM g JOIN nn USING (user_id), js
      WHERE nn.n >= 17),
a AS (SELECT user_id, j,
             sum(CAST(cnt AS DOUBLE)*co) AS ccs, sum(co) AS sco,
             sum(CAST(cnt AS DOUBLE)*si) AS css, sum(si) AS ssi
      FROM q GROUP BY 1, 2),
m AS (SELECT a.*, CAST(nn.sc AS DOUBLE)/CAST(nn.n AS DOUBLE) AS mu,
             nn.n
      FROM a JOIN nn USING (user_id)),
p AS (SELECT user_id, j, n,
             (ccs - mu*sco)*(ccs - mu*sco)
               + (css - mu*ssi)*(css - mu*ssi) AS power
      FROM m),
t2 AS (SELECT user_id, sum(power) AS tot, min(power) AS mnp
       FROM p GROUP BY 1),
w AS (SELECT p.user_id, p.j, p.n, p.power, t2.tot,
             sum(ln(CAST(p.j AS DOUBLE))) OVER wo AS sx,
             sum(ln(p.power)) OVER wo AS sy,
             sum(ln(CAST(p.j AS DOUBLE))
                 *ln(CAST(p.j AS DOUBLE))) OVER wo AS sxx,
             sum(ln(CAST(p.j AS DOUBLE))*ln(p.power)) OVER wo AS sxy
      FROM p JOIN t2 USING (user_id) WHERE t2.mnp > 0
      WINDOW wo AS (PARTITION BY p.user_id ORDER BY p.j
                    ROWS UNBOUNDED PRECEDING)),
s AS (SELECT user_id,
             (8.0*sxy - sx*sy)/(8.0*sxx - sx*sx) AS slope
      FROM w WHERE j = 8)
SELECT w.user_id, w.j, w.n AS n_hours,
       round(w.power, 6) AS power,
       round(w.power/w.tot, 6) AS share,
       round(s.slope, 6) AS slope
FROM w JOIN s USING (user_id)
"""


def q_extreme_locations(sf_dir):
    """★-checked per-key extrema locations (stages/tsmath.py):
    exact 0-based first/last ranks of max and min, two mirrored
    relative-position closings; row_number window twin."""
    from ..stages.tsmath import extreme_locations

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(extreme_locations(ev))


EXTREME_LOC_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  row_number() OVER w - 1 AS r0
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
m AS (SELECT user_id, max(x) AS mx, min(x) AS mn,
             CAST(count(*) AS BIGINT) AS n
      FROM o GROUP BY 1),
a AS (SELECT o.user_id, m.n,
             min(o.r0) FILTER (o.x = m.mx) AS first_max,
             max(o.r0) FILTER (o.x = m.mx) AS last_max,
             min(o.r0) FILTER (o.x = m.mn) AS first_min,
             max(o.r0) FILTER (o.x = m.mn) AS last_min
      FROM o JOIN m USING (user_id) GROUP BY 1, 2)
SELECT user_id, n, first_max, last_max, first_min, last_min,
       round(CAST(first_max AS DOUBLE)/CAST(n AS DOUBLE), 6)
         AS first_max_rel,
       round(CAST(last_min AS DOUBLE)/CAST(n AS DOUBLE), 6)
         AS last_min_rel
FROM a
"""


def q_weibull_gaps(sf_dir):
    """★-checked per-key Weibull moment fit of inter-event gaps
    (stages/tsmath.py): exact int64 whole-second gap sums, Justus
    shape k = cv^-1.086 closed as a mirrored exp/ln expression."""
    from ..stages.tsmath import weibull_gaps

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    return round6(weibull_gaps(ev))


WEIBULL_GAPS_SQL = """
WITH o AS (SELECT user_id, epoch_us(ts) AS t FROM events),
d AS (SELECT user_id,
             (t - lag(t) OVER (PARTITION BY user_id ORDER BY t))
               // 1000000 AS g
      FROM o),
a AS (SELECT user_id,
             CAST(count(g) AS BIGINT) AS n_gaps,
             CAST(sum(g) AS BIGINT) AS s1,
             CAST(sum(g*g) AS BIGINT) AS s2
      FROM d WHERE g IS NOT NULL GROUP BY 1),
f AS (SELECT user_id, n_gaps,
             CAST(s1 AS DOUBLE)/CAST(n_gaps AS DOUBLE) AS mu,
             CAST(s2 AS DOUBLE)/CAST(n_gaps AS DOUBLE)
               - (CAST(s1 AS DOUBLE)/CAST(n_gaps AS DOUBLE))
                 *(CAST(s1 AS DOUBLE)/CAST(n_gaps AS DOUBLE)) AS v
      FROM a WHERE n_gaps >= 2)
SELECT user_id, n_gaps,
       round(mu, 6) AS mean_gap_s,
       round(sqrt(v)/mu, 6) AS gap_cv,
       round(exp(-1.086*ln(sqrt(v)/mu)), 6) AS weibull_k
FROM f WHERE v > 0 AND mu > 0
"""


def q_bartlett(sf_dir):
    """★-checked Bartlett variance-homogeneity test across event
    types (stages/analytics.py): exact int64 per-group moments,
    mirrored ln-variance closing — completes the spread ladder next
    to levene_bf / median_test."""
    from ..stages.analytics import bartlett_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return round6(bartlett_test(ev))


BARTLETT_SQL = """
WITH q AS (SELECT event_type AS t,
                  CAST(round(value*100) AS BIGINT) AS k FROM events
           WHERE value IS NOT NULL),
g AS (SELECT t, CAST(count(*) AS BIGINT) AS n_i,
             CAST(sum(k) AS BIGINT) AS s_i,
             CAST(sum(k*k) AS BIGINT) AS q_i
      FROM q GROUP BY 1 HAVING count(*) >= 2),
v AS (SELECT t, n_i, s_i, q_i,
             (CAST(q_i AS DOUBLE)
              - CAST(s_i AS DOUBLE)*CAST(s_i AS DOUBLE)
                /CAST(n_i AS DOUBLE))/(CAST(n_i AS DOUBLE) - 1.0)
               AS var_i
      FROM g),
f AS (SELECT * FROM v WHERE var_i > 0),
tot AS (SELECT CAST(count(*) AS BIGINT) AS kg,
               CAST(sum(n_i) AS BIGINT) AS n,
               sum((CAST(n_i AS DOUBLE) - 1.0)*var_i) AS sv,
               sum((CAST(n_i AS DOUBLE) - 1.0)*ln(var_i)) AS slv,
               sum(1.0/(CAST(n_i AS DOUBLE) - 1.0)) AS sinv
        FROM f),
h AS (SELECT kg, n,
             ((CAST(n AS DOUBLE) - CAST(kg AS DOUBLE))
              *ln(sv/(CAST(n AS DOUBLE) - CAST(kg AS DOUBLE)))
              - slv)
             /(1.0 + (sinv - 1.0/(CAST(n AS DOUBLE)
                                  - CAST(kg AS DOUBLE)))
                     /(3.0*(CAST(kg AS DOUBLE) - 1.0))) AS t_stat
      FROM tot)
SELECT f.t AS event_type, f.n_i, f.s_i, f.q_i,
       round(f.var_i, 6) AS var_i,
       round(h.t_stat, 6) AS bartlett_t
FROM f, h WHERE h.kg >= 2 AND h.n > h.kg
"""


def q_friedman(sf_dir):
    """★-checked Friedman blocked rank test (stages/analytics.py):
    user blocks × event-type treatments on event counts, exact
    int64 doubled within-block ranks and tie term, mirrored χ²
    closing."""
    from ..stages.analytics import friedman_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return round6(friedman_test(ev))


FRIEDMAN_SQL = """
WITH c AS (SELECT user_id, event_type, count(*) AS cnt
           FROM events GROUP BY 1, 2),
u AS (SELECT DISTINCT user_id FROM events),
t AS (SELECT DISTINCT event_type FROM events),
g AS (SELECT u.user_id, t.event_type, coalesce(c.cnt, 0) AS cnt
      FROM u CROSS JOIN t
      LEFT JOIN c ON c.user_id = u.user_id
                 AND c.event_type = t.event_type),
r AS (SELECT user_id, event_type, cnt,
             2*rank() OVER (PARTITION BY user_id ORDER BY cnt)
               + CAST(count(*) OVER (PARTITION BY user_id, cnt)
                      AS BIGINT) - 1 AS d2,
             CAST(count(*) OVER (PARTITION BY user_id, cnt)
                  AS BIGINT) AS e
      FROM g),
s AS (SELECT event_type, CAST(sum(d2) AS BIGINT) AS s2x
      FROM r GROUP BY 1),
meta AS (SELECT (SELECT CAST(count(*) AS BIGINT) FROM u) AS n,
                (SELECT CAST(count(*) AS BIGINT) FROM t) AS k,
                (SELECT CAST(sum(e*e - 1) AS BIGINT) FROM r)
                  AS tie),
h AS (SELECT n, k, tie,
             3.0*(SELECT sum(CAST(s2x AS DOUBLE)
                             *CAST(s2x AS DOUBLE)) FROM s)
               /(CAST(n AS DOUBLE)*CAST(k AS DOUBLE)
                 *(CAST(k AS DOUBLE) + 1.0))
               - 3.0*CAST(n AS DOUBLE)*(CAST(k AS DOUBLE) + 1.0)
               AS chi2,
             1.0 - CAST(tie AS DOUBLE)
               /(CAST(n AS DOUBLE)
                 *(CAST(k AS DOUBLE)*CAST(k AS DOUBLE)
                   *CAST(k AS DOUBLE) - CAST(k AS DOUBLE)))
               AS corr
      FROM meta)
SELECT s.event_type, s.s2x AS rank_sum_2x, h.n AS n_blocks,
       h.k AS n_types, h.tie AS tie_term,
       round(h.chi2, 6) AS chi2_stat,
       round(h.chi2/h.corr, 6) AS chi2_tie
FROM s, h
WHERE h.n >= 2 AND h.k >= 2
  AND h.tie < h.n*(h.k*h.k*h.k - h.k)
"""


def q_jonckheere(sf_dir):
    """★-checked Jonckheere–Terpstra ordered-alternative trend test
    across event types (stages/analytics.py): exact int64 doubled
    pair statistic + null mean from histogram cells, mirrored
    tie-corrected variance/z closing."""
    from ..stages.analytics import jonckheere_terpstra

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return round6(jonckheere_terpstra(ev))


JONCKHEERE_SQL = """
WITH q AS (SELECT event_type AS t,
                  CAST(round(value*100) AS BIGINT) AS k FROM events
           WHERE value IS NOT NULL),
c AS (SELECT t, k, count(*) AS c FROM q GROUP BY 1, 2),
ty AS (SELECT DISTINCT t FROM q),
pairs AS (SELECT a.t AS ta, b.t AS tb
          FROM ty a JOIN ty b ON a.t < b.t),
h AS (SELECT p.ta, p.tb, c.k,
             sum(CASE WHEN c.t = p.ta THEN c.c ELSE 0 END) AS ca,
             sum(CASE WHEN c.t = p.tb THEN c.c ELSE 0 END) AS cb
      FROM pairs p JOIN c ON c.t IN (p.ta, p.tb)
      GROUP BY 1, 2, 3),
w AS (SELECT ta, tb, k, ca, cb,
             sum(ca) OVER wo - ca AS ca_less
      FROM h
      WINDOW wo AS (PARTITION BY ta, tb ORDER BY k
                    ROWS UNBOUNDED PRECEDING)),
jt AS (SELECT CAST(sum(2*cb*ca_less + ca*cb) AS BIGINT) AS jt2
       FROM w),
gn AS (SELECT t, CAST(sum(c) AS BIGINT) AS n_i FROM c GROUP BY 1),
tk AS (SELECT k, CAST(sum(c) AS BIGINT) AS tc FROM c GROUP BY 1),
tot AS (SELECT CAST(sum(n_i) AS BIGINT) AS n,
               CAST(sum(n_i*n_i) AS BIGINT) AS sn2,
               CAST(sum(n_i*(n_i-1)*(2*n_i+5)) AS BIGINT) AS a1,
               CAST(sum(n_i*(n_i-1)*(n_i-2)) AS BIGINT) AS a2,
               CAST(sum(n_i*(n_i-1)) AS BIGINT) AS a3
        FROM gn),
tt AS (SELECT CAST(sum(tc*(tc-1)*(2*tc+5)) AS BIGINT) AS b1,
              CAST(sum(tc*(tc-1)*(tc-2)) AS BIGINT) AS b2,
              CAST(sum(tc*(tc-1)) AS BIGINT) AS b3
       FROM tk),
v AS (SELECT n, (n*n - sn2)//2 AS cross_pairs,
             (CAST(n*(n-1)*(2*n+5) - a1 - b1 AS DOUBLE)/72.0
              + CAST(a2 AS DOUBLE)*CAST(b2 AS DOUBLE)
                /(36.0*CAST(n AS DOUBLE)*(CAST(n AS DOUBLE)-1.0)
                  *(CAST(n AS DOUBLE)-2.0))
              + CAST(a3 AS DOUBLE)*CAST(b3 AS DOUBLE)
                /(8.0*CAST(n AS DOUBLE)*(CAST(n AS DOUBLE)-1.0)))
               AS var
      FROM tot, tt)
SELECT gn.t AS event_type, gn.n_i, v.n AS n_total,
       jt.jt2 AS jt_twice, v.cross_pairs AS jt_mean_twice,
       round((CAST(jt.jt2 AS DOUBLE)
              - CAST(v.cross_pairs AS DOUBLE))
             /(2.0*sqrt(v.var)), 6) AS z_score
FROM gn, jt, v WHERE v.n >= 3 AND v.var > 0
"""


def q_complexity_profile(sf_dir):
    """★-checked per-key CID complexity + absolute-change energy +
    telescoped mean second derivative (stages/tsmath.py): exact
    int64 Δ-sums, mirrored sqrt/ratio closings."""
    from ..stages.tsmath import complexity_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(complexity_profile(ev))


COMPLEXITY_SQL = """
WITH o AS (SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
                  row_number() OVER w - 1 AS r0
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
d AS (SELECT user_id,
             x - lag(x) OVER (PARTITION BY user_id ORDER BY r0)
               AS dx
      FROM o),
a AS (SELECT user_id, CAST(count(dx) + 1 AS BIGINT) AS n,
             CAST(sum(abs(dx)) AS BIGINT) AS sac,
             CAST(sum(dx*dx) AS BIGINT) AS cesq
      FROM d WHERE dx IS NOT NULL GROUP BY 1),
e AS (SELECT o.user_id,
             CAST(sum(CASE WHEN o.r0 = a.n - 1 THEN o.x ELSE 0 END)
                  - sum(CASE WHEN o.r0 = a.n - 2 THEN o.x
                        ELSE 0 END)
                  - sum(CASE WHEN o.r0 = 1 THEN o.x ELSE 0 END)
                  + sum(CASE WHEN o.r0 = 0 THEN o.x ELSE 0 END)
                  AS BIGINT) AS msd_num
      FROM o JOIN a USING (user_id) GROUP BY 1)
SELECT a.user_id, a.n, a.sac AS sum_abs_change, a.cesq AS ce_sq,
       round(sqrt(CAST(a.cesq AS DOUBLE)), 6) AS cid,
       round(CAST(a.sac AS DOUBLE)/(CAST(a.n AS DOUBLE) - 1.0), 6)
         AS mean_abs_change,
       round(CAST(e.msd_num AS DOUBLE)
             /(2.0*(CAST(a.n AS DOUBLE) - 2.0)), 6) AS msd
FROM a JOIN e USING (user_id) WHERE a.n >= 3
"""


def q_strike_profile(sf_dir):
    """★-checked per-key mean-relative run structure
    (stages/tsmath.py): longest strike above/below the mean and
    mean-crossing count with the above test done as x·n > Σx —
    every output column exact int64, zero float closings."""
    from ..stages.tsmath import strike_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(strike_profile(ev))


STRIKE_SQL = """
WITH o AS (SELECT user_id, CAST(round(value*100) AS BIGINT) AS x,
                  row_number() OVER w - 1 AS r0
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
m AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(x) AS BIGINT) AS s FROM o GROUP BY 1),
f AS (SELECT o.user_id, o.r0,
             CASE WHEN o.x*m.n > m.s THEN 1
                  WHEN o.x*m.n < m.s THEN -1 ELSE 0 END AS flag
      FROM o JOIN m USING (user_id)),
i AS (SELECT user_id, flag, r0,
             r0 - row_number() OVER (PARTITION BY user_id, flag
                                     ORDER BY r0) AS grp
      FROM f),
runs AS (SELECT user_id, flag, grp,
                CAST(count(*) AS BIGINT) AS len
         FROM i GROUP BY 1, 2, 3),
ru AS (SELECT user_id,
              coalesce(max(CASE WHEN flag = 1 THEN len END),
                       0) AS longest_above,
              coalesce(max(CASE WHEN flag = -1 THEN len END),
                       0) AS longest_below
       FROM runs GROUP BY 1),
ab AS (SELECT user_id,
              CAST(sum(CASE WHEN flag = 1 THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_above
       FROM f GROUP BY 1),
cr AS (SELECT user_id,
              CAST(sum(CASE WHEN gt <> pg THEN 1 ELSE 0 END)
                   AS BIGINT) AS n_cross
       FROM (SELECT user_id,
                    CASE WHEN flag = 1 THEN 1 ELSE 0 END AS gt,
                    lag(CASE WHEN flag = 1 THEN 1 ELSE 0 END)
                      OVER (PARTITION BY user_id ORDER BY r0)
                      AS pg
             FROM f)
       WHERE pg IS NOT NULL GROUP BY 1)
SELECT m.user_id, m.n, m.s AS sum_x, ab.n_above,
       ru.longest_above, ru.longest_below,
       coalesce(cr.n_cross, 0) AS n_cross
FROM m JOIN ru USING (user_id) JOIN ab USING (user_id)
LEFT JOIN cr USING (user_id)
"""


def q_index_mass_quantile(sf_dir):
    """★-checked per-key index-mass-quantile profile
    (stages/tsmath.py): earliest index reaching 25/50/75 % of the
    |x| mass via the all-integer 100·cumsum ≥ q·total test;
    mirrored i/n relative closings."""
    from ..stages.tsmath import index_mass_quantile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    return round6(index_mass_quantile(ev))


IMQ_SQL = """
WITH o AS (SELECT user_id,
                  abs(CAST(round(value*100) AS BIGINT)) AS a,
                  row_number() OVER w AS r1
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
c AS (SELECT user_id, r1,
             sum(a) OVER (PARTITION BY user_id ORDER BY r1
                          ROWS UNBOUNDED PRECEDING) AS cs
      FROM o),
m AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(a) AS BIGINT) AS tot FROM o GROUP BY 1),
q AS (SELECT c.user_id,
             CAST(min(CASE WHEN 100*c.cs >= 25*m.tot THEN c.r1
                      END) AS BIGINT) AS idx_25,
             CAST(min(CASE WHEN 100*c.cs >= 50*m.tot THEN c.r1
                      END) AS BIGINT) AS idx_50,
             CAST(min(CASE WHEN 100*c.cs >= 75*m.tot THEN c.r1
                      END) AS BIGINT) AS idx_75
      FROM c JOIN m USING (user_id) GROUP BY 1)
SELECT m.user_id, m.n, m.tot AS total_abs,
       q.idx_25, q.idx_50, q.idx_75,
       round(CAST(q.idx_25 AS DOUBLE)/CAST(m.n AS DOUBLE), 6)
         AS rel_25,
       round(CAST(q.idx_50 AS DOUBLE)/CAST(m.n AS DOUBLE), 6)
         AS rel_50,
       round(CAST(q.idx_75 AS DOUBLE)/CAST(m.n AS DOUBLE), 6)
         AS rel_75
FROM m JOIN q USING (user_id) WHERE m.tot > 0
"""


def q_order_count_dist(sf_dir):
    """★-checked TPC-H-Q13-style order-count distribution: how many
    customers placed exactly k orders, zero included.  Scale shape:
    per-custkey counts are map-side partials through one custkey
    exchange, the count histogram is a SECOND map-side partial
    (bounded by max orders/customer), and only the tiny histogram
    plus one customer-table count reach the driver — no per-customer
    driver pull."""

    def cnt_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    per_cust = group_apply(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey"]
        ).map_batches(cnt_partial, batch_format="pandas"),
        lambda df: df.groupby("o_custkey",
                              as_index=False)["cnt"].sum(),
        key="o_custkey") 
    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("cnt", as_index=False).size()
        return g.rename(columns={"size": "custdist"})

    hist = per_cust.map_batches(
        hist_partial, batch_format="pandas").to_pandas()
    n_cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]).count()
    if hist.empty:
        agg_ = pd.DataFrame({"cnt": pd.Series(dtype="int64"),
                             "custdist": pd.Series(dtype="int64")})
    else:
        agg_ = hist.groupby("cnt", as_index=False)["custdist"].sum()
    zero = int(n_cust) - int(agg_["custdist"].sum())
    if zero > 0:
        agg_ = pd.concat([agg_, pd.DataFrame(
            {"cnt": [0], "custdist": [zero]})], ignore_index=True)
    agg_ = agg_.sort_values("cnt").reset_index(drop=True)
    return pd.DataFrame({
        "c_count": agg_["cnt"].to_numpy(np.int64),
        "custdist": agg_["custdist"].to_numpy(np.int64)})


ORDER_COUNT_DIST_SQL = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (SELECT c.c_custkey,
             CAST(count(o.o_orderkey) AS BIGINT) AS c_count
      FROM customer c
      LEFT JOIN orders o ON c.c_custkey = o.o_custkey
      GROUP BY 1)
GROUP BY 1
"""


def q_small_qty_revenue(sf_dir):
    """★-checked TPC-H-Q17-style small-quantity revenue: average
    yearly revenue lost if sub-20%-of-average-quantity orders of one
    brand's parts were dropped.  The per-part average-quantity gate
    is ALL-INTEGER (5·q·n < Σq — no float average formed).  Scale
    shape: the brand's partkeys broadcast once (1/|brands| of the
    part table), pass 1 computes per-part (n, Σq) cells map-side,
    the tiny per-part table broadcasts back, pass 2 re-filters
    lineitem and reduces price units map-side — two lineitem scans,
    zero large shuffles."""
    brand = "Brand#4"
    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    ).to_pandas()
    pk = np.sort(part.loc[part["p_brand"] == brand, "p_partkey"]
                 .to_numpy(np.int64))
    pk_ref = ray.put(pk)

    def li_cells(df: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(pk_ref)
        lp = df["l_partkey"].to_numpy(np.int64)
        if len(keys):
            idx = np.searchsorted(keys, lp)
            idx[idx >= len(keys)] = 0
            sel = keys[idx] == lp
        else:
            sel = np.zeros(len(lp), bool)
        q = np.rint(df["l_quantity"].to_numpy(np.float64)[sel]) \
            .astype(np.int64)
        g = pd.DataFrame({"l_partkey": lp[sel], "q": q, "one": 1})
        return g.groupby("l_partkey", as_index=False).agg(
            n=("one", "sum"), s=("q", "sum"))

    cells = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity"],
    ).map_batches(li_cells, batch_format="pandas").to_pandas()
    out_cols = {"p_brand": pd.Series(dtype=object),
                "n_parts": pd.Series(dtype="int64"),
                "n_lines": pd.Series(dtype="int64"),
                "price_units": pd.Series(dtype="int64"),
                "avg_yearly": pd.Series(dtype="float64")}
    if cells.empty:
        return pd.DataFrame(out_cols)
    per_part = cells.groupby("l_partkey", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))
    ppk = per_part["l_partkey"].to_numpy(np.int64)
    stats_ref = ray.put((ppk, per_part["n"].to_numpy(np.int64),
                         per_part["s"].to_numpy(np.int64)))

    def li_filter(df: pd.DataFrame) -> pd.DataFrame:
        keys, nn, ss = ray.get(stats_ref)
        lp = df["l_partkey"].to_numpy(np.int64)
        idx = np.searchsorted(keys, lp)
        idx[idx >= len(keys)] = 0
        sel = keys[idx] == lp
        q = np.rint(df["l_quantity"].to_numpy(np.float64)) \
            .astype(np.int64)
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64)
                    * 100.0).astype(np.int64)
        hit = sel & (5 * q * nn[idx] < ss[idx])
        return pd.DataFrame({"n_lines": [int(hit.sum())],
                             "units": [int(p[hit].sum())]})

    parts2 = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    ).map_batches(li_filter, batch_format="pandas").to_pandas()
    units = int(parts2["units"].sum())
    return pd.DataFrame({
        "p_brand": [brand],
        "n_parts": np.array([len(per_part)], np.int64),
        "n_lines": np.array([int(parts2["n_lines"].sum())],
                            np.int64),
        "price_units": np.array([units], np.int64),
        "avg_yearly": [round(float(units) / 100.0 / 7.0, 6)]})


SMALL_QTY_SQL = """
WITH pk AS (SELECT p_partkey FROM part WHERE p_brand = 'Brand#4'),
l AS (SELECT ln.l_partkey,
             CAST(round(ln.l_quantity) AS BIGINT) AS q,
             CAST(round(ln.l_extendedprice*100) AS BIGINT) AS p
      FROM lineitem ln JOIN pk ON ln.l_partkey = pk.p_partkey),
a AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(q) AS BIGINT) AS s FROM l GROUP BY 1),
f AS (SELECT l.p FROM l JOIN a USING (l_partkey)
      WHERE 5*l.q*a.n < a.s)
SELECT 'Brand#4' AS p_brand,
       (SELECT CAST(count(*) AS BIGINT) FROM a) AS n_parts,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(coalesce(sum(p), 0) AS BIGINT) AS price_units,
       round(CAST(coalesce(sum(p), 0) AS DOUBLE)/100.0/7.0, 6)
         AS avg_yearly
FROM f
"""


def q_large_volume_orders(sf_dir):
    """★-checked TPC-H-Q18-style large-volume customers: top-100
    orders by total price among orders whose summed quantity
    exceeds 150.  Scale shape: per-orderkey quantity cells map-side
    → one orderkey exchange → the >150 filter cuts the stream to
    selectivity-bounded survivors BEFORE the orders hash join; only
    survivors reach the driver for the deterministic integer
    top-100 (price units desc, orderkey asc); names attach last."""

    def qty_cells(df: pd.DataFrame) -> pd.DataFrame:
        q = np.rint(df["l_quantity"].to_numpy(np.float64)) \
            .astype(np.int64)
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "sq": q})
        return g.groupby("l_orderkey", as_index=False).sum()

    cells = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_quantity"],
    ).map_batches(qty_cells, batch_format="pandas")

    def reduce_filter(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", as_index=False)["sq"].sum()
        return g[g["sq"] > 150]

    big = group_apply(cells, reduce_filter,
                      key="l_orderkey")

    def ords_map(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_custkey": df["o_custkey"].to_numpy(np.int64),
            "o_orderdate":
                df["o_orderdate"].to_numpy("datetime64[us]"),
            "price_units": np.rint(
                df["o_totalprice"].to_numpy(np.float64) * 100.0
            ).astype(np.int64)})

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_totalprice"],
    ).map_batches(ords_map, batch_format="pandas")
    joined = big.join(ords, "inner", num_partitions=partition_count(),
                      on=("l_orderkey",)).to_pandas()
    cols = {"c_name": pd.Series(dtype=object),
            "o_custkey": pd.Series(dtype="int64"),
            "o_orderkey": pd.Series(dtype="int64"),
            "o_orderdate": pd.Series(dtype="datetime64[us]"),
            "price_units": pd.Series(dtype="int64"),
            "sum_qty": pd.Series(dtype="int64")}
    if joined.empty:
        return pd.DataFrame(cols)
    top = joined.sort_values(["price_units", "l_orderkey"],
                             ascending=[False, True],
                             kind="mergesort").head(100)
    names = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name"],
    ).to_pandas().set_index("c_custkey")["c_name"]
    return pd.DataFrame({
        "c_name": top["o_custkey"].map(names).to_numpy(object),
        "o_custkey": top["o_custkey"].to_numpy(np.int64),
        "o_orderkey": top["l_orderkey"].to_numpy(np.int64),
        "o_orderdate":
            top["o_orderdate"].to_numpy("datetime64[us]"),
        "price_units": top["price_units"].to_numpy(np.int64),
        "sum_qty": top["sq"].to_numpy(np.int64)}) \
        .reset_index(drop=True)


LARGE_VOLUME_SQL = """
WITH t AS (SELECT l_orderkey,
                  CAST(sum(CAST(round(l_quantity) AS BIGINT))
                       AS BIGINT) AS sq
           FROM lineitem GROUP BY 1
           HAVING sum(CAST(round(l_quantity) AS BIGINT)) > 150)
SELECT c.c_name, o.o_custkey, o.o_orderkey, o.o_orderdate,
       CAST(round(o.o_totalprice*100) AS BIGINT) AS price_units,
       t.sq AS sum_qty
FROM t JOIN orders o ON o.o_orderkey = t.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
ORDER BY price_units DESC, o.o_orderkey LIMIT 100
"""


def q_market_share(sf_dir):
    """★-checked TPC-H-Q8-style market share: the yearly revenue
    share held by ASIA-region suppliers for PROMO-type parts.
    Scale shape: the PROMO partkey set and the suppkey→is-ASIA flag
    broadcast once via ray.put (each ≪ fact size); lineitem is
    scanned once, filtered to PROMO parts map-side, and
    PRE-AGGREGATED to exact-int (orderkey, is_target) revenue cells
    before the single large×large orderkey hash join against the
    (orderkey, order-year) projection of orders; the per-year
    share closes over year-sized cells on the driver."""

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    ).to_pandas()
    pk = np.sort(part.loc[part["p_type"] == "PROMO", "p_partkey"]
                 .to_numpy(np.int64))
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet").to_pandas()
    region = ray.data.read_parquet(
        f"{sf_dir}/region.parquet").to_pandas()
    asia = int(region.loc[region["r_name"] == "ASIA",
                          "r_regionkey"].iloc[0])
    asia_nations = set(nation.loc[nation["n_regionkey"] == asia,
                                  "n_nationkey"].astype(np.int64))
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = np.sort(supp["s_suppkey"].to_numpy(np.int64))
    sflag = supp.set_index("s_suppkey").loc[sk, "s_nationkey"] \
        .isin(asia_nations).to_numpy(bool)
    dims = ray.put((pk, sk, sflag))

    def li_cells(df: pd.DataFrame) -> pd.DataFrame:
        keys, s_k, s_f = ray.get(dims)
        lp = df["l_partkey"].to_numpy(np.int64)
        if len(keys):
            idx = np.searchsorted(keys, lp)
            idx[idx >= len(keys)] = 0
            sel = keys[idx] == lp
        else:
            sel = np.zeros(len(lp), bool)
        if not sel.any():
            return pd.DataFrame({
                "l_orderkey": pd.Series(dtype="int64"),
                "is_target": pd.Series(dtype="int64"),
                "units": pd.Series(dtype="int64")})
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64)[sel]
                    * 100.0).astype(np.int64)
        d = np.rint(df["l_discount"].to_numpy(np.float64)[sel]
                    * 100.0).astype(np.int64)
        tgt = s_f[np.searchsorted(
            s_k, df["l_suppkey"].to_numpy(np.int64)[sel])] \
            .astype(np.int64)
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64)[sel],
            "is_target": tgt, "units": p * (100 - d)})
        return g.groupby(["l_orderkey", "is_target"],
                         as_index=False)["units"].sum()

    cells = group_apply(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_partkey", "l_suppkey",
                     "l_extendedprice", "l_discount"],
        ).map_batches(li_cells, batch_format="pandas"),
        lambda df: df.groupby(["l_orderkey", "is_target"],
                              as_index=False)["units"].sum(),
        key="l_orderkey")

    def orders_proj(df: pd.DataFrame) -> pd.DataFrame:
        yr = pd.DatetimeIndex(
            df["o_orderdate"].to_numpy("datetime64[us]")
        ).year.to_numpy(np.int64)
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_year": yr})

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
    ).map_batches(orders_proj, batch_format="pandas")
    joined = cells.join(ords, "inner", num_partitions=partition_count(),
                        on=("l_orderkey",))

    def yr_cells(df: pd.DataFrame) -> pd.DataFrame:
        g = df.copy()
        g["tgt_units"] = g["units"] * g["is_target"]
        return g.groupby("o_year", as_index=False).agg(
            rev_units_all=("units", "sum"),
            rev_units_target=("tgt_units", "sum"))

    yrs = joined.map_batches(
        yr_cells, batch_format="pandas").to_pandas()
    if yrs.empty:
        return pd.DataFrame({
            "o_year": pd.Series(dtype="int64"),
            "rev_units_all": pd.Series(dtype="int64"),
            "rev_units_target": pd.Series(dtype="int64"),
            "mkt_share": pd.Series(dtype="float64")})
    agg_ = yrs.groupby("o_year", as_index=False).sum() \
        .sort_values("o_year").reset_index(drop=True)
    a = agg_["rev_units_all"].to_numpy(np.int64)
    t = agg_["rev_units_target"].to_numpy(np.int64)
    return pd.DataFrame({
        "o_year": agg_["o_year"].to_numpy(np.int64),
        "rev_units_all": a,
        "rev_units_target": t,
        "mkt_share": np.round(
            t.astype(np.float64)
            / np.where(a == 0, 1, a).astype(np.float64), 6)})


MARKET_SHARE_SQL = """
WITH asia AS (
  SELECT n.n_nationkey FROM nation n
  JOIN region r ON n.n_regionkey = r.r_regionkey
  WHERE r.r_name = 'ASIA'),
l AS (
  SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
         CAST(round(ln.l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(ln.l_discount*100) AS BIGINT))
           AS units,
         CASE WHEN s.s_nationkey IN (SELECT n_nationkey FROM asia)
              THEN 1 ELSE 0 END AS tgt
  FROM lineitem ln
  JOIN part p ON ln.l_partkey = p.p_partkey
  JOIN supplier s ON ln.l_suppkey = s.s_suppkey
  JOIN orders o ON ln.l_orderkey = o.o_orderkey
  WHERE p.p_type = 'PROMO')
SELECT o_year,
       CAST(sum(units) AS BIGINT) AS rev_units_all,
       CAST(sum(units*tgt) AS BIGINT) AS rev_units_target,
       round(CAST(sum(units*tgt) AS DOUBLE)
             / CAST(CASE WHEN sum(units) = 0 THEN 1
                         ELSE sum(units) END AS DOUBLE), 6)
         AS mkt_share
FROM l GROUP BY 1
"""


def q_product_profit(sf_dir):
    """★-checked TPC-H-Q9-style product profit by supplier nation
    and order year, for parts whose name contains 'red'.  The
    testdata schema has no partsupp table, so part.p_retailprice
    stands in for ps_supplycost (same join topology, documented
    here and mirrored identically in the oracle): profit units =
    extprice·(100−disc) − 10000·retailprice·qty, all exact int64.
    Scale shape: the matching partkey→retailprice map and
    suppkey→nation map broadcast once; lineitem pre-aggregates to
    (orderkey, nation) profit cells before the one orderkey hash
    join against the (orderkey, year) orders projection."""

    part = ray.data.read_parquet(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_name", "p_retailprice"]
    ).to_pandas()
    sel = part["p_name"].str.contains("red", regex=False)
    pk = np.sort(part.loc[sel, "p_partkey"].to_numpy(np.int64))
    rp = np.rint(part.loc[sel].set_index("p_partkey")
                 .loc[pk, "p_retailprice"].to_numpy(np.float64)
                 * 100.0).astype(np.int64)
    nation = ray.data.read_parquet(
        f"{sf_dir}/nation.parquet").to_pandas()
    nname = dict(zip(nation["n_nationkey"].astype(np.int64),
                     nation["n_name"]))
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    sk = np.sort(supp["s_suppkey"].to_numpy(np.int64))
    sv = supp.set_index("s_suppkey").loc[sk, "s_nationkey"] \
        .to_numpy(np.int64)
    dims = ray.put((pk, rp, sk, sv))

    def li_cells(df: pd.DataFrame) -> pd.DataFrame:
        keys, cost, s_k, s_v = ray.get(dims)
        lp = df["l_partkey"].to_numpy(np.int64)
        if len(keys):
            idx = np.searchsorted(keys, lp)
            idx[idx >= len(keys)] = 0
            hit = keys[idx] == lp
        else:
            hit = np.zeros(len(lp), bool)
        if not hit.any():
            return pd.DataFrame({
                "l_orderkey": pd.Series(dtype="int64"),
                "s_nat": pd.Series(dtype="int64"),
                "profit_units": pd.Series(dtype="int64")})
        p = np.rint(df["l_extendedprice"].to_numpy(np.float64)[hit]
                    * 100.0).astype(np.int64)
        d = np.rint(df["l_discount"].to_numpy(np.float64)[hit]
                    * 100.0).astype(np.int64)
        q = np.rint(df["l_quantity"].to_numpy(np.float64)[hit]) \
            .astype(np.int64)
        prof = p * (100 - d) - 100 * cost[idx[hit]] * q
        snat = s_v[np.searchsorted(
            s_k, df["l_suppkey"].to_numpy(np.int64)[hit])]
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64)[hit],
            "s_nat": snat, "profit_units": prof})
        return g.groupby(["l_orderkey", "s_nat"],
                         as_index=False)["profit_units"].sum()

    cells = group_apply(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_partkey", "l_suppkey",
                     "l_quantity", "l_extendedprice",
                     "l_discount"],
        ).map_batches(li_cells, batch_format="pandas"),
        lambda df: df.groupby(["l_orderkey", "s_nat"],
                              as_index=False)["profit_units"]
        .sum(),
        key="l_orderkey")

    def orders_proj(df: pd.DataFrame) -> pd.DataFrame:
        yr = pd.DatetimeIndex(
            df["o_orderdate"].to_numpy("datetime64[us]")
        ).year.to_numpy(np.int64)
        return pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "o_year": yr})

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
    ).map_batches(orders_proj, batch_format="pandas")
    joined = cells.join(ords, "inner", num_partitions=partition_count(),
                        on=("l_orderkey",))

    prof = joined.map_batches(
        lambda df: df.groupby(["s_nat", "o_year"],
                              as_index=False)["profit_units"]
        .sum(),
        batch_format="pandas").to_pandas()
    if prof.empty:
        return pd.DataFrame({
            "nation": pd.Series(dtype=object),
            "o_year": pd.Series(dtype="int64"),
            "profit_units": pd.Series(dtype="int64"),
            "profit": pd.Series(dtype="float64")})
    agg_ = prof.groupby(["s_nat", "o_year"],
                        as_index=False)["profit_units"].sum()
    u = agg_["profit_units"].to_numpy(np.int64)
    return pd.DataFrame({
        "nation": agg_["s_nat"].map(nname).to_numpy(object),
        "o_year": agg_["o_year"].to_numpy(np.int64),
        "profit_units": u,
        "profit": np.round(u.astype(np.float64) / 10000.0, 6)})


PRODUCT_PROFIT_SQL = """
SELECT n.n_name AS nation,
       CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CAST(round(ln.l_extendedprice*100) AS BIGINT)
                * (100 - CAST(round(ln.l_discount*100) AS BIGINT))
                - 100 * CAST(round(p.p_retailprice*100) AS BIGINT)
                  * CAST(round(ln.l_quantity) AS BIGINT))
            AS BIGINT) AS profit_units,
       round(CAST(sum(CAST(round(ln.l_extendedprice*100)
                           AS BIGINT)
                      * (100 - CAST(round(ln.l_discount*100)
                                    AS BIGINT))
                      - 100 * CAST(round(p.p_retailprice*100)
                                   AS BIGINT)
                        * CAST(round(ln.l_quantity) AS BIGINT))
                  AS DOUBLE) / 10000.0, 6) AS profit
FROM lineitem ln
JOIN part p ON ln.l_partkey = p.p_partkey
JOIN supplier s ON ln.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN orders o ON ln.l_orderkey = o.o_orderkey
WHERE p.p_name LIKE '%red%'
GROUP BY 1, 2
"""


def q_waiting_suppliers(sf_dir):
    """★-checked TPC-H-Q21-style suppliers who kept orders waiting:
    for multi-supplier orders, the supplier who was the ONLY late
    one (late = last ship > order date + 90 days; the testdata has
    no receipt/commit dates, so shipdate lateness stands in —
    documented and mirrored in the oracle).  Scale shape: lineitem
    collapses map-side to (orderkey, suppkey, max_ship) cells, one
    orderkey exchange merges them, the (orderkey, orderdate)
    projection of orders joins once by orderkey, and the
    sole-late-supplier test is a vectorized per-order groupby over
    cell-sized data; only per-supplier counts reach the driver."""

    def li_cells(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "l_orderkey": df["l_orderkey"].to_numpy(np.int64),
            "sk": df["l_suppkey"].to_numpy(np.int64),
            "ms": df["l_shipdate"].to_numpy("datetime64[us]")
            .astype(np.int64)})
        return g.groupby(["l_orderkey", "sk"],
                         as_index=False)["ms"].max()

    cells = group_apply(
        ray.data.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey", "l_suppkey", "l_shipdate"],
        ).map_batches(li_cells, batch_format="pandas"),
        lambda df: df.groupby(["l_orderkey", "sk"],
                              as_index=False)["ms"].max(),
        key="l_orderkey")

    ords = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate"],
    ).map_batches(
        lambda df: pd.DataFrame({
            "l_orderkey": df["o_orderkey"].to_numpy(np.int64),
            "od": df["o_orderdate"].to_numpy("datetime64[us]")
            .astype(np.int64)}),
        batch_format="pandas")
    joined = cells.join(ords, "inner", num_partitions=partition_count(),
                        on=("l_orderkey",))

    LATE_US = 90 * 86400 * 10**6

    def wait_partial(df: pd.DataFrame) -> pd.DataFrame:
        # one orderkey never straddles partitions after the join
        # (both sides are hash-partitioned on it), so the per-order
        # sole-late test is exact inside each output partition
        late = (df["ms"].to_numpy(np.int64)
                > df["od"].to_numpy(np.int64) + LATE_US)
        g = pd.DataFrame({"ok": df["l_orderkey"].to_numpy(np.int64),
                          "sk": df["sk"].to_numpy(np.int64),
                          "late": late.astype(np.int64)})
        per = g.groupby("ok").agg(n=("sk", "size"),
                                  nl=("late", "sum"))
        g = g.join(per, on="ok")
        q = g[(g["late"] == 1) & (g["nl"] == 1) & (g["n"] >= 2)]
        return q.groupby("sk", as_index=False).size() \
            .rename(columns={"size": "numwait"})

    waits = joined.map_batches(
        wait_partial, batch_format="pandas",
        batch_size=None).to_pandas()
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"]).to_pandas()
    if waits.empty:
        return pd.DataFrame({"s_name": pd.Series(dtype=object),
                             "numwait": pd.Series(dtype="int64")})
    agg_ = waits.groupby("sk", as_index=False)["numwait"].sum()
    names = supp.set_index("s_suppkey")["s_name"]
    return pd.DataFrame({
        "s_name": agg_["sk"].map(names).to_numpy(object),
        "numwait": agg_["numwait"].to_numpy(np.int64)}) \
        .sort_values("s_name").reset_index(drop=True)


WAITING_SUPPLIERS_SQL = """
WITH l AS (SELECT l_orderkey AS ok, l_suppkey AS sk,
                  max(epoch_us(l_shipdate)) AS ms
           FROM lineitem GROUP BY 1, 2),
j AS (SELECT l.ok, l.sk,
             CASE WHEN l.ms > epoch_us(o.o_orderdate)
                           + CAST(7776000000000 AS BIGINT)
                  THEN 1 ELSE 0 END AS late
      FROM l JOIN orders o ON l.ok = o.o_orderkey),
f AS (SELECT ok, count(*) AS n, sum(late) AS nl
      FROM j GROUP BY 1),
q AS (SELECT j.sk FROM j JOIN f USING (ok)
      WHERE j.late = 1 AND f.nl = 1 AND f.n >= 2)
SELECT s.s_name, CAST(count(*) AS BIGINT) AS numwait
FROM q JOIN supplier s ON q.sk = s.s_suppkey
GROUP BY 1
"""


def q_dormant_balance(sf_dir):
    """★-checked TPC-H-Q22-style global sales opportunity: per
    market segment (the schema's country-code stand-in), customers
    with above-segment-average positive balance and NO RECENT
    orders (none on/after 1999-01-01 — this testdata has no fully
    orderless customers, so dormancy replaces Q22's never-ordered
    anti-join; same pattern, documented and mirrored in the
    oracle).  The average gate is ALL-INTEGER (bal_units·n >
    Σbal_units over the segment's positive balances — no float
    average formed).  Scale shape: per-segment (n, Σ) gate cells
    reduce map-side (segments are few); the recent-order custkey
    set reduces through a date-pushed scanner read + per-block
    distinct partials and broadcasts sorted via ray.put for a
    searchsorted anti-probe (at 100-TB key cardinality the same
    test runs as a bucketed custkey co-group — stages/joins.py
    documents the swap); only per-segment counts reach the
    driver."""
    import pyarrow.compute as pc

    cutoff = np.datetime64("1999-01-01", "us")
    cust_cols = ["c_custkey", "c_mktsegment", "c_acctbal"]

    def seg_cells(df: pd.DataFrame) -> pd.DataFrame:
        bal = np.rint(df["c_acctbal"].to_numpy(np.float64)
                      * 100.0).astype(np.int64)
        pos = bal > 0
        g = pd.DataFrame({"seg": df["c_mktsegment"].to_numpy(object)[pos],
                          "bal": bal[pos], "one": 1})
        return g.groupby("seg", as_index=False).agg(
            n=("one", "sum"), s=("bal", "sum"))

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=cust_cols)
    segs = cust.map_batches(
        seg_cells, batch_format="pandas").to_pandas()
    segs = segs.groupby("seg", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum"))

    def has_orders_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "k": np.unique(df["o_custkey"].to_numpy(np.int64))})

    hk = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        filter=(pc.field("o_orderdate") >= cutoff),
    ).map_batches(has_orders_partial,
                  batch_format="pandas").to_pandas()
    has_orders = np.unique(hk["k"].to_numpy(np.int64))
    gate = ray.put((has_orders,
                    dict(zip(segs["seg"],
                             zip(segs["n"].astype(np.int64),
                                 segs["s"].astype(np.int64))))))

    def dormant_cells(df: pd.DataFrame) -> pd.DataFrame:
        keys, seg_gate = ray.get(gate)
        ck = df["c_custkey"].to_numpy(np.int64)
        if len(keys):
            idx = np.searchsorted(keys, ck)
            idx[idx >= len(keys)] = 0
            cold = keys[idx] != ck
        else:
            cold = np.ones(len(ck), bool)
        bal = np.rint(df["c_acctbal"].to_numpy(np.float64)
                      * 100.0).astype(np.int64)
        seg = df["c_mktsegment"].to_numpy(object)
        nn = np.array([seg_gate.get(s_, (0, 0))[0] for s_ in seg],
                      np.int64)
        ss = np.array([seg_gate.get(s_, (0, 0))[1] for s_ in seg],
                      np.int64)
        hit = cold & (bal * nn > ss)
        g = pd.DataFrame({"seg": seg[hit], "bal": bal[hit],
                          "one": 1})
        return g.groupby("seg", as_index=False).agg(
            numcust=("one", "sum"), bal_units=("bal", "sum"))

    out = cust.map_batches(
        dormant_cells, batch_format="pandas").to_pandas()
    if out.empty:
        return pd.DataFrame({
            "c_mktsegment": pd.Series(dtype=object),
            "numcust": pd.Series(dtype="int64"),
            "bal_units": pd.Series(dtype="int64"),
            "totacctbal": pd.Series(dtype="float64")})
    agg_ = out.groupby("seg", as_index=False).sum() \
        .sort_values("seg").reset_index(drop=True)
    u = agg_["bal_units"].to_numpy(np.int64)
    return pd.DataFrame({
        "c_mktsegment": agg_["seg"].to_numpy(object),
        "numcust": agg_["numcust"].to_numpy(np.int64),
        "bal_units": u,
        "totacctbal": np.round(u.astype(np.float64) / 100.0, 6)})


DORMANT_BALANCE_SQL = """
WITH pos AS (
  SELECT c_mktsegment AS seg, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(round(c_acctbal*100) AS BIGINT)) AS BIGINT)
           AS s
  FROM customer WHERE round(c_acctbal*100) > 0 GROUP BY 1),
sel AS (
  SELECT c.c_mktsegment AS seg,
         CAST(round(c.c_acctbal*100) AS BIGINT) AS bal
  FROM customer c JOIN pos ON c.c_mktsegment = pos.seg
  WHERE CAST(round(c.c_acctbal*100) AS BIGINT) * pos.n > pos.s
    AND NOT EXISTS (SELECT 1 FROM orders o
                    WHERE o.o_custkey = c.c_custkey
                      AND o.o_orderdate >= TIMESTAMP '1999-01-01'))
SELECT seg AS c_mktsegment,
       CAST(count(*) AS BIGINT) AS numcust,
       CAST(sum(bal) AS BIGINT) AS bal_units,
       round(CAST(sum(bal) AS DOUBLE)/100.0, 6) AS totacctbal
FROM sel GROUP BY 1
"""


def q_cochran_q(sf_dir):
    """★-checked Cochran's Q binary blocked test
    (stages/analytics.py): user blocks × event-type treatments on
    "fired in the trailing 7-day window" indicators — exact int64
    G_j/N/ΣR² moments, one mirrored Q closing.  The k-group
    ladder's binary member next to friedman."""
    from ..stages.analytics import cochran_q

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])
    return round6(cochran_q(ev))


COCHRAN_Q_SQL = """
WITH mx AS (SELECT max(epoch_us(ts)) AS m FROM events),
x AS (SELECT DISTINCT user_id, event_type
      FROM events, mx
      WHERE epoch_us(ts) >= mx.m - CAST(604800000000 AS BIGINT)),
g AS (SELECT event_type, CAST(count(*) AS BIGINT) AS gj
      FROM x GROUP BY 1),
r AS (SELECT user_id, CAST(count(*) AS BIGINT) AS ri
      FROM x GROUP BY 1),
m2 AS (SELECT CAST(sum(ri) AS BIGINT) AS n,
              CAST(sum(ri*ri) AS BIGINT) AS r2,
              CAST(count(*) AS BIGINT) AS nb FROM r),
kk AS (SELECT CAST(count(*) AS BIGINT) AS k,
              CAST(sum(gj*gj) AS BIGINT) AS gg FROM g)
SELECT g.event_type, g.gj AS g_count, m2.nb AS n_blocks,
       kk.k AS n_types, m2.n AS n_total,
       round((CAST(kk.k AS DOUBLE) - 1.0)
             * (CAST(kk.k AS DOUBLE)*CAST(kk.gg AS DOUBLE)
                - CAST(m2.n AS DOUBLE)*CAST(m2.n AS DOUBLE))
             / (CAST(kk.k AS DOUBLE)*CAST(m2.n AS DOUBLE)
                - CAST(m2.r2 AS DOUBLE)), 6) AS q_stat
FROM g, m2, kk
WHERE kk.k >= 2 AND kk.k*m2.n - m2.r2 > 0
"""


def q_mcnemar(sf_dir):
    """★-checked McNemar paired-proportion test
    (stages/analytics.py): per-user "more purchases than errors"
    indicators in the first vs second half of the time range —
    exact 2×2 table, integer-numerator plain and Edwards-corrected
    χ² closings."""
    from ..stages.analytics import mcnemar_halves

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])
    return round6(mcnemar_halves(ev))


MCNEMAR_SQL = """
WITH b AS (SELECT min(epoch_us(ts)) AS mn, max(epoch_us(ts)) AS mx
           FROM events),
f AS (SELECT user_id,
             CASE WHEN sum(CASE WHEN event_type = 'purchase'
                                 AND epoch_us(ts) < (b.mn+b.mx)//2
                                THEN 1 ELSE 0 END)
                     > sum(CASE WHEN event_type = 'error'
                                 AND epoch_us(ts) < (b.mn+b.mx)//2
                                THEN 1 ELSE 0 END)
                  THEN 1 ELSE 0 END AS x1,
             CASE WHEN sum(CASE WHEN event_type = 'purchase'
                                 AND epoch_us(ts) >= (b.mn+b.mx)//2
                                THEN 1 ELSE 0 END)
                     > sum(CASE WHEN event_type = 'error'
                                 AND epoch_us(ts) >= (b.mn+b.mx)//2
                                THEN 1 ELSE 0 END)
                  THEN 1 ELSE 0 END AS x2
      FROM events, b GROUP BY 1),
t AS (SELECT CAST(sum(x1*x2) AS BIGINT) AS a,
             CAST(sum(x1*(1-x2)) AS BIGINT) AS b,
             CAST(sum((1-x1)*x2) AS BIGINT) AS c,
             CAST(sum((1-x1)*(1-x2)) AS BIGINT) AS d
      FROM f)
SELECT a AS n_both, b AS n_first_only, c AS n_second_only,
       d AS n_neither,
       round(CAST((b-c)*(b-c) AS DOUBLE)/CAST(b+c AS DOUBLE), 6)
         AS chi2_plain,
       round(CAST((abs(b-c)-1)*(abs(b-c)-1) AS DOUBLE)
             /CAST(b+c AS DOUBLE), 6) AS chi2_corrected
FROM t WHERE b + c > 0
"""


def q_sign_test(sf_dir):
    """★-checked paired sign test (stages/analytics.py): per-user
    first-half vs second-half event counts, exact plus/minus/tie
    counts, continuity-corrected z closing — the direction-only
    sibling of wilcoxon_shift."""
    from ..stages.analytics import sign_test_halves

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return round6(sign_test_halves(ev))


SIGN_TEST_SQL = """
WITH b AS (SELECT min(epoch_us(ts)) AS mn, max(epoch_us(ts)) AS mx
           FROM events),
f AS (SELECT user_id,
             CAST(sum(CASE WHEN epoch_us(ts) < (b.mn + b.mx)//2
                           THEN 1 ELSE 0 END) AS BIGINT) AS c1,
             CAST(sum(CASE WHEN epoch_us(ts) >= (b.mn + b.mx)//2
                           THEN 1 ELSE 0 END) AS BIGINT) AS c2
      FROM events, b GROUP BY 1),
t AS (SELECT CAST(sum(CASE WHEN c2 > c1 THEN 1 ELSE 0 END)
                  AS BIGINT) AS p,
             CAST(sum(CASE WHEN c1 > c2 THEN 1 ELSE 0 END)
                  AS BIGINT) AS m,
             CAST(sum(CASE WHEN c1 = c2 THEN 1 ELSE 0 END)
                  AS BIGINT) AS t
      FROM f)
SELECT p AS n_plus, m AS n_minus, t AS n_ties,
       round((2.0*CAST(greatest(p, m) AS DOUBLE)
              - CAST(p+m AS DOUBLE) - 1.0)
             / sqrt(CAST(p+m AS DOUBLE)), 6) AS z_stat
FROM t WHERE p + m > 0
"""


_TWO_SAMPLE_HIST_CTE = """
WITH q AS (SELECT CAST(round(value*100) AS BIGINT) AS k,
                  CASE WHEN event_type = 'click' THEN 1 ELSE 0 END
                    AS isx
           FROM events
           WHERE value IS NOT NULL
             AND event_type IN ('click', 'view')),
h AS (SELECT k, CAST(sum(isx) AS BIGINT) AS cx,
             CAST(sum(1 - isx) AS BIGINT) AS cy
      FROM q GROUP BY 1),
w AS (SELECT k, cx, cy,
             sum(cx) OVER (ORDER BY k ROWS UNBOUNDED PRECEDING)
               AS cxc,
             sum(cy) OVER (ORDER BY k ROWS UNBOUNDED PRECEDING)
               AS cyc
      FROM h),
mm AS (SELECT CAST(sum(cx) AS BIGINT) AS n,
              CAST(sum(cy) AS BIGINT) AS m FROM h)
"""


def q_cvm_test(sf_dir):
    """★-checked two-sample Cramér–von Mises EDF test
    (stages/analytics.py): click vs view values, exact int cell
    deviations D_k = M·CX − N·CY accumulated in Python-int /
    HUGEINT, one mirrored closing division."""
    from ..stages.analytics import cvm_two_sample

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(cvm_two_sample(ev))


CVM_SQL = _TWO_SAMPLE_HIST_CTE + """,
s AS (SELECT sum(CAST(cx + cy AS HUGEINT)
                 * (mm.m*cxc - mm.n*cyc)
                 * (mm.m*cxc - mm.n*cyc)) AS num
      FROM w, mm)
SELECT mm.n AS n_x, mm.m AS n_y,
       round(CAST(s.num AS DOUBLE)
             / CAST(CAST(mm.n + mm.m AS HUGEINT)*(mm.n + mm.m)
                    *mm.n*mm.m AS DOUBLE), 6) AS t_stat
FROM s, mm WHERE mm.n > 0 AND mm.m > 0
"""


def q_ansari_bradley(sf_dir):
    """★-checked Ansari–Bradley nonparametric scale test
    (stages/analytics.py): click vs view values, exact doubled
    mid-rank scores from both ends, mirrored tie-corrected z."""
    from ..stages.analytics import ansari_bradley

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(ansari_bradley(ev))


ANSARI_SQL = _TWO_SAMPLE_HIST_CTE + """,
a AS (SELECT cx, cy, cx + cy AS l,
             2*(cxc + cyc) - (cx + cy) + 1 AS d2
      FROM w),
sc AS (SELECT cx, l,
              least(d2, 2*(mm.n + mm.m + 1) - d2) AS a2
       FROM a, mm),
s AS (SELECT CAST(sum(cx*a2) AS BIGINT) AS w2,
             CAST(sum(l*a2) AS BIGINT) AS s1,
             sum(CAST(l AS HUGEINT)*a2*a2) AS s2
      FROM sc)
SELECT mm.n AS n_x, mm.m AS n_y, s.w2 AS w_twice,
       round(CAST((mm.n + mm.m)*s.w2 - mm.n*s.s1 AS DOUBLE)
             / sqrt(CAST(CAST(mm.n AS HUGEINT)*mm.m
                         *(CAST(mm.n + mm.m AS HUGEINT)*s.s2
                           - CAST(s.s1 AS HUGEINT)*s.s1)
                         AS DOUBLE)
                    / CAST(mm.n + mm.m - 1 AS DOUBLE)), 6)
         AS z_stat
FROM s, mm
WHERE mm.n > 0 AND mm.m > 0
  AND CAST(mm.n AS HUGEINT)*mm.m
      *(CAST(mm.n + mm.m AS HUGEINT)*s.s2
        - CAST(s.s1 AS HUGEINT)*s.s1) > 0
"""


def q_mood_scale(sf_dir):
    """★-checked Mood squared-rank scale test
    (stages/analytics.py): click vs view values, exact doubled-rank
    deviations e = d2 − (N+1), T4 = Σcx·e² int64, mirrored
    moment z (S2 = Σl·e⁴ in Python-int / HUGEINT)."""
    from ..stages.analytics import mood_scale

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(mood_scale(ev))


MOOD_SCALE_SQL = _TWO_SAMPLE_HIST_CTE + """,
a AS (SELECT cx, cy, cx + cy AS l,
             2*(cxc + cyc) - (cx + cy) + 1 AS d2
      FROM w),
sc AS (SELECT cx, l, d2 - (mm.n + mm.m + 1) AS e FROM a, mm),
s AS (SELECT CAST(sum(cx*e*e) AS BIGINT) AS t4,
             CAST(sum(l*e*e) AS BIGINT) AS s1,
             sum(CAST(l AS HUGEINT)*e*e*e*e) AS s2
      FROM sc)
SELECT mm.n AS n_x, mm.m AS n_y, s.t4 AS t_quad,
       round(CAST((mm.n + mm.m)*s.t4 - mm.n*s.s1 AS DOUBLE)
             / sqrt(CAST(CAST(mm.n AS HUGEINT)*mm.m
                         *(CAST(mm.n + mm.m AS HUGEINT)*s.s2
                           - CAST(s.s1 AS HUGEINT)*s.s1)
                         AS DOUBLE)
                    / CAST(mm.n + mm.m - 1 AS DOUBLE)), 6)
         AS z_stat
FROM s, mm
WHERE mm.n > 0 AND mm.m > 0
  AND CAST(mm.n AS HUGEINT)*mm.m
      *(CAST(mm.n + mm.m AS HUGEINT)*s.s2
        - CAST(s.s1 AS HUGEINT)*s.s1) > 0
"""


def q_logrank(sf_dir):
    """★-checked log-rank (Mantel–Cox) survival comparison, even
    vs odd cohorts (stages/analytics.py): exact at-risk/death
    counts per event time, ordered E/V accumulation, one z."""
    from ..stages.analytics import logrank_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])
    return round6(logrank_test(ev))


LOGRANK_SQL = """
WITH su AS (
  SELECT user_id, min(epoch_us(ts)) AS t0
  FROM events WHERE event_type = 'signup' GROUP BY 1
),
pu AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS tp
  FROM events e JOIN su USING (user_id)
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > su.t0
  GROUP BY 1
),
mx AS (SELECT max(epoch_us(ts)) AS tmax FROM events),
dur AS (SELECT su.user_id,
               coalesce(pu.tp, mx.tmax) - su.t0 AS d_us,
               (pu.tp IS NOT NULL) AS ev
        FROM su LEFT JOIN pu USING (user_id), mx),
mm AS (SELECT CAST(sum(CASE WHEN user_id % 2 = 0
                       THEN 1 ELSE 0 END) AS BIGINT) AS na,
              CAST(sum(CASE WHEN user_id % 2 = 1
                       THEN 1 ELSE 0 END) AS BIGINT) AS nb
       FROM dur),
evtt AS (SELECT DISTINCT d_us FROM dur WHERE ev),
rk AS (SELECT e.d_us,
              (SELECT CAST(count(*) AS BIGINT) FROM dur
               WHERE dur.d_us >= e.d_us) AS n_t,
              (SELECT CAST(count(*) AS BIGINT) FROM dur
               WHERE dur.d_us >= e.d_us
                 AND user_id % 2 = 0) AS n1,
              (SELECT CAST(count(*) AS BIGINT) FROM dur
               WHERE ev AND dur.d_us = e.d_us) AS d_t,
              (SELECT CAST(count(*) AS BIGINT) FROM dur
               WHERE ev AND dur.d_us = e.d_us
                 AND user_id % 2 = 0) AS d1
       FROM evtt e),
terms AS (SELECT d_us,
                 CAST(d1 AS DOUBLE)
                 - CAST(n1 AS DOUBLE)*CAST(d_t AS DOUBLE)
                   /CAST(n_t AS DOUBLE) AS t_ome,
                 CAST(n1 AS DOUBLE)*CAST(n_t - n1 AS DOUBLE)
                 *CAST(d_t AS DOUBLE)*CAST(n_t - d_t AS DOUBLE)
                 /(CAST(n_t AS DOUBLE)*CAST(n_t AS DOUBLE)
                   *CAST(n_t - 1 AS DOUBLE)) AS t_var
          FROM rk WHERE n_t >= 2),
run AS (SELECT sum(t_ome) OVER (ORDER BY d_us
                                ROWS UNBOUNDED PRECEDING)
                 AS ome,
               sum(t_var) OVER (ORDER BY d_us
                                ROWS UNBOUNDED PRECEDING)
                 AS var,
               row_number() OVER (ORDER BY d_us) AS rn
        FROM terms),
fin AS (SELECT ome, var FROM run ORDER BY rn DESC LIMIT 1)
SELECT mm.na AS n_a, mm.nb AS n_b, round(fin.ome, 6) AS o_minus_e,
       round(fin.ome/sqrt(fin.var), 6) AS z_stat
FROM fin, mm WHERE mm.na > 0 AND mm.nb > 0 AND fin.var > 0.0
"""


def q_multi_regression(sf_dir):
    """★-checked exact two-regressor OLS (value ~ hour + dow)
    (stages/tsmath.py): integer Cramer determinants in
    Python-int/HUGEINT, mirrored β and R² closings."""
    from ..stages.tsmath import multi_regression

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "value"])
    return round6(multi_regression(ev))


MULTI_REG_SQL = """
WITH f AS (SELECT (epoch_us(ts) // 3600000000) % 24 AS h,
                  (epoch_us(ts) // 86400000000 + 4) % 7 AS d,
                  CAST(round(value*100) AS BIGINT) AS y
           FROM events),
mo AS (SELECT CAST(count(*) AS BIGINT) AS n,
              CAST(sum(h) AS BIGINT) AS sh,
              CAST(sum(d) AS BIGINT) AS sd,
              CAST(sum(h*h) AS BIGINT) AS shh,
              CAST(sum(d*d) AS BIGINT) AS sdd,
              CAST(sum(h*d) AS BIGINT) AS shd,
              CAST(sum(y) AS BIGINT) AS sy,
              sum(CAST(h AS HUGEINT)*y) AS shy,
              sum(CAST(d AS HUGEINT)*y) AS sdy,
              sum(CAST(y AS HUGEINT)*y) AS syy
       FROM f),
dt AS (SELECT n, sy, shy, sdy, syy,
              CAST(n AS HUGEINT)*(CAST(shh AS HUGEINT)*sdd
                                  - CAST(shd AS HUGEINT)*shd)
              - CAST(sh AS HUGEINT)*(CAST(sh AS HUGEINT)*sdd
                                     - CAST(shd AS HUGEINT)*sd)
              + CAST(sd AS HUGEINT)*(CAST(sh AS HUGEINT)*shd
                                     - CAST(shh AS HUGEINT)*sd)
                AS da,
              CAST(sy AS HUGEINT)*(CAST(shh AS HUGEINT)*sdd
                                   - CAST(shd AS HUGEINT)*shd)
              - CAST(sh AS HUGEINT)*(CAST(shy AS HUGEINT)*sdd
                                     - CAST(shd AS HUGEINT)*sdy)
              + CAST(sd AS HUGEINT)*(CAST(shy AS HUGEINT)*shd
                                     - CAST(shh AS HUGEINT)*sdy)
                AS d0,
              CAST(n AS HUGEINT)*(CAST(shy AS HUGEINT)*sdd
                                  - CAST(shd AS HUGEINT)*sdy)
              - CAST(sy AS HUGEINT)*(CAST(sh AS HUGEINT)*sdd
                                     - CAST(shd AS HUGEINT)*sd)
              + CAST(sd AS HUGEINT)*(CAST(sh AS HUGEINT)*sdy
                                     - CAST(shy AS HUGEINT)*sd)
                AS d1,
              CAST(n AS HUGEINT)*(CAST(shh AS HUGEINT)*sdy
                                  - CAST(shy AS HUGEINT)*shd)
              - CAST(sh AS HUGEINT)*(CAST(sh AS HUGEINT)*sdy
                                     - CAST(shy AS HUGEINT)*sd)
              + CAST(sy AS HUGEINT)*(CAST(sh AS HUGEINT)*shd
                                     - CAST(shh AS HUGEINT)*sd)
                AS d2
       FROM mo WHERE n >= 4),
cl AS (SELECT n, sy, shy, sdy, syy,
              CAST(d0 AS DOUBLE)/CAST(da AS DOUBLE) AS b0,
              CAST(d1 AS DOUBLE)/CAST(da AS DOUBLE) AS b1,
              CAST(d2 AS DOUBLE)/CAST(da AS DOUBLE) AS b2,
              CAST(syy AS DOUBLE)
              - CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE)
                /CAST(n AS DOUBLE) AS sst
       FROM dt WHERE da <> 0)
SELECT n, round(b0/100.0, 6) AS beta0,
       round(b1/100.0, 6) AS beta_hour,
       round(b2/100.0, 6) AS beta_dow,
       round((b0*CAST(sy AS DOUBLE) + b1*CAST(shy AS DOUBLE)
              + b2*CAST(sdy AS DOUBLE)
              - CAST(sy AS DOUBLE)*CAST(sy AS DOUBLE)
                /CAST(n AS DOUBLE))/sst, 6) AS r2
FROM cl WHERE sst > 0.0
"""


def q_cohen_kappa(sf_dir):
    """★-checked Cohen's κ between labeled lang and the LangId
    heuristic (stages/text.py): exact confusion cells, mirrored
    accuracy and κ closings."""
    from ..stages.text import cohen_kappa_langid

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "text"])
    return round6(cohen_kappa_langid(docs))


def _cohen_kappa_sql() -> str:
    from .driver_queries import _lang_id_sql

    pred = _lang_id_sql().strip()
    return f"""
WITH pred AS ({pred}),
j AS (SELECT d.lang, p.lang_pred
      FROM documents d JOIN pred p USING (doc_id)),
mm AS (SELECT CAST(count(*) AS BIGINT) AS n,
              CAST(sum(CASE WHEN lang = lang_pred
                       THEN 1 ELSE 0 END) AS BIGINT) AS agree
       FROM j),
rc AS (SELECT c AS cls,
              CAST(sum(nr) AS BIGINT) AS r,
              CAST(sum(nc) AS BIGINT) AS cl
       FROM (SELECT lang AS c, CAST(count(*) AS BIGINT) AS nr,
                    0 AS nc
             FROM j GROUP BY 1
             UNION ALL
             SELECT lang_pred AS c, 0, CAST(count(*) AS BIGINT)
             FROM j GROUP BY 1)
       GROUP BY 1),
pe AS (SELECT sum(CAST(r AS HUGEINT)*cl) AS num FROM rc),
cl2 AS (SELECT mm.n, mm.agree,
               CAST(mm.agree AS DOUBLE)/CAST(mm.n AS DOUBLE)
                 AS po,
               CAST(pe.num AS DOUBLE)
               /(CAST(mm.n AS DOUBLE)*CAST(mm.n AS DOUBLE)) AS pe
        FROM mm, pe)
SELECT n AS n_docs, agree AS n_agree, round(po, 6) AS accuracy,
       round((po - pe)/(1.0 - pe), 6) AS kappa
FROM cl2 WHERE pe < 1.0
"""


def q_effect_sizes(sf_dir):
    """★-checked Cohen's d / Hedges' g / Cliff's δ
    (stages/analytics.py): exact moments + exact pair counts,
    three mirrored closings."""
    from ..stages.analytics import effect_sizes

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(effect_sizes(ev))


EFFECT_SIZES_SQL = _TWO_SAMPLE_HIST_CTE + """,
mo AS (SELECT CAST(sum(k*cx) AS BIGINT) AS sx,
              CAST(sum(k*cy) AS BIGINT) AS sy,
              sum(CAST(k AS HUGEINT)*k*cx) AS qx,
              sum(CAST(k AS HUGEINT)*k*cy) AS qy,
              CAST(sum(cx*(cyc - cy)) AS HUGEINT) AS lt,
              CAST(sum(cy*(cxc - cx)) AS HUGEINT) AS gt
       FROM w),
cl AS (SELECT mm.n, mm.m,
              (CAST(mo.sx AS DOUBLE)/CAST(mm.n AS DOUBLE)
               - CAST(mo.sy AS DOUBLE)/CAST(mm.m AS DOUBLE))
              / sqrt(((CAST(mo.qx AS DOUBLE)
                       - CAST(mo.sx AS DOUBLE)
                         *CAST(mo.sx AS DOUBLE)
                         /CAST(mm.n AS DOUBLE))
                      + (CAST(mo.qy AS DOUBLE)
                         - CAST(mo.sy AS DOUBLE)
                           *CAST(mo.sy AS DOUBLE)
                           /CAST(mm.m AS DOUBLE)))
                     / CAST(mm.n + mm.m - 2 AS DOUBLE)) AS d,
              CAST(mo.gt - mo.lt AS DOUBLE)
              / (CAST(mm.n AS DOUBLE)*CAST(mm.m AS DOUBLE))
                AS delta
       FROM mo, mm WHERE mm.n >= 2 AND mm.m >= 2)
SELECT n AS n_x, m AS n_y, round(d, 6) AS cohens_d,
       round(d*(1.0 - 3.0/(4.0*CAST(n + m - 2 AS DOUBLE) - 1.0)),
             6) AS hedges_g,
       round(delta, 6) AS cliffs_delta
FROM cl
"""


def q_risk_ratios(sf_dir):
    """★-checked odds ratio / relative risk with 95 % log
    intervals on the even/odd-cohort 2×2 success table
    (stages/analytics.py): exact cells, mirrored exp/ln
    closings."""
    from ..stages.analytics import risk_ratios

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type"])
    return round6(risk_ratios(ev))


RISK_RATIOS_SQL = """
WITH u AS (SELECT user_id,
                  CASE WHEN sum(CASE WHEN event_type = 'purchase'
                               THEN 1 ELSE 0 END)
                          > sum(CASE WHEN event_type = 'error'
                                THEN 1 ELSE 0 END)
                       THEN 1 ELSE 0 END AS s
           FROM events GROUP BY 1),
t AS (SELECT
  CAST(sum(CASE WHEN user_id % 2 = 0 AND s = 1
           THEN 1 ELSE 0 END) AS BIGINT) AS a,
  CAST(sum(CASE WHEN user_id % 2 = 0 AND s = 0
           THEN 1 ELSE 0 END) AS BIGINT) AS b,
  CAST(sum(CASE WHEN user_id % 2 = 1 AND s = 1
           THEN 1 ELSE 0 END) AS BIGINT) AS c,
  CAST(sum(CASE WHEN user_id % 2 = 1 AND s = 0
           THEN 1 ELSE 0 END) AS BIGINT) AS d
  FROM u),
cl AS (SELECT a, b, c, d,
              (CAST(a AS DOUBLE)*CAST(d AS DOUBLE))
              /(CAST(b AS DOUBLE)*CAST(c AS DOUBLE)) AS orr,
              sqrt(1.0/CAST(a AS DOUBLE) + 1.0/CAST(b AS DOUBLE)
                   + 1.0/CAST(c AS DOUBLE)
                   + 1.0/CAST(d AS DOUBLE)) AS se_or,
              (CAST(a AS DOUBLE)/CAST(a + b AS DOUBLE))
              /(CAST(c AS DOUBLE)/CAST(c + d AS DOUBLE)) AS rr,
              sqrt(1.0/CAST(a AS DOUBLE)
                   - 1.0/CAST(a + b AS DOUBLE)
                   + 1.0/CAST(c AS DOUBLE)
                   - 1.0/CAST(c + d AS DOUBLE)) AS se_rr
       FROM t WHERE least(a, b, c, d) > 0)
SELECT a, b, c, d, round(orr, 6) AS odds_ratio,
       round(exp(ln(orr) - 1.96*se_or), 6) AS or_lo,
       round(exp(ln(orr) + 1.96*se_or), 6) AS or_hi,
       round(rr, 6) AS rel_risk,
       round(exp(ln(rr) - 1.96*se_rr), 6) AS rr_lo,
       round(exp(ln(rr) + 1.96*se_rr), 6) AS rr_hi
FROM cl
"""


def q_two_proportion(sf_dir):
    """★-checked two-proportion z + Wilson 95 % intervals on
    even/odd-cohort conversion (stages/analytics.py): exact
    counts, mirrored z and four Wilson bounds (1.96 literal)."""
    from ..stages.analytics import two_proportion

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type"])
    return round6(two_proportion(ev))


TWO_PROP_SQL = """
WITH u AS (SELECT user_id,
                  CASE WHEN sum(CASE WHEN event_type = 'purchase'
                               THEN 1 ELSE 0 END)
                          > sum(CASE WHEN event_type = 'error'
                                THEN 1 ELSE 0 END)
                       THEN 1 ELSE 0 END AS c
           FROM events GROUP BY 1),
mm AS (SELECT CAST(sum(CASE WHEN user_id % 2 = 0
                       THEN 1 ELSE 0 END) AS BIGINT) AS na,
              CAST(sum(CASE WHEN user_id % 2 = 1
                       THEN 1 ELSE 0 END) AS BIGINT) AS nb,
              CAST(sum(CASE WHEN user_id % 2 = 0
                       THEN c ELSE 0 END) AS BIGINT) AS ca,
              CAST(sum(CASE WHEN user_id % 2 = 1
                       THEN c ELSE 0 END) AS BIGINT) AS cb
       FROM u),
cl AS (SELECT na, nb, ca, cb,
              CAST(ca AS DOUBLE)/CAST(na AS DOUBLE) AS pa,
              CAST(cb AS DOUBLE)/CAST(nb AS DOUBLE) AS pb,
              CAST(ca + cb AS DOUBLE)/CAST(na + nb AS DOUBLE)
                AS pp
       FROM mm WHERE na > 0 AND nb > 0),
wz AS (SELECT na, nb, ca, cb, pa, pb,
              pp*(1.0 - pp)*(1.0/CAST(na AS DOUBLE)
                             + 1.0/CAST(nb AS DOUBLE)) AS se2
       FROM cl)
SELECT na AS n_a, nb AS n_b, ca AS conv_a, cb AS conv_b,
       round((pa - pb)/sqrt(se2), 6) AS z_stat,
       round((pa + 1.96*1.96/(2.0*CAST(na AS DOUBLE))
              - 1.96*sqrt(pa*(1.0 - pa)/CAST(na AS DOUBLE)
                          + 1.96*1.96/(4.0*CAST(na AS DOUBLE)
                                       *CAST(na AS DOUBLE))))
             /(1.0 + 1.96*1.96/CAST(na AS DOUBLE)), 6)
         AS wilson_lo_a,
       round((pa + 1.96*1.96/(2.0*CAST(na AS DOUBLE))
              + 1.96*sqrt(pa*(1.0 - pa)/CAST(na AS DOUBLE)
                          + 1.96*1.96/(4.0*CAST(na AS DOUBLE)
                                       *CAST(na AS DOUBLE))))
             /(1.0 + 1.96*1.96/CAST(na AS DOUBLE)), 6)
         AS wilson_hi_a,
       round((pb + 1.96*1.96/(2.0*CAST(nb AS DOUBLE))
              - 1.96*sqrt(pb*(1.0 - pb)/CAST(nb AS DOUBLE)
                          + 1.96*1.96/(4.0*CAST(nb AS DOUBLE)
                                       *CAST(nb AS DOUBLE))))
             /(1.0 + 1.96*1.96/CAST(nb AS DOUBLE)), 6)
         AS wilson_lo_b,
       round((pb + 1.96*1.96/(2.0*CAST(nb AS DOUBLE))
              + 1.96*sqrt(pb*(1.0 - pb)/CAST(nb AS DOUBLE)
                          + 1.96*1.96/(4.0*CAST(nb AS DOUBLE)
                                       *CAST(nb AS DOUBLE))))
             /(1.0 + 1.96*1.96/CAST(nb AS DOUBLE)), 6)
         AS wilson_hi_b
FROM wz WHERE se2 > 0.0
"""


def q_lincoln_petersen(sf_dir):
    """★-checked Chapman capture–recapture population estimate
    (stages/analytics.py): first/second-half key membership as
    exact cells, mirrored N̂ and variance closings."""
    from ..stages.analytics import lincoln_petersen

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return round6(lincoln_petersen(ev))


LINCOLN_SQL = """
WITH b AS (SELECT min(epoch_us(ts)) AS t0,
                  max(epoch_us(ts)) AS t1 FROM events),
u AS (SELECT user_id,
             max(CASE WHEN epoch_us(ts) <= (b.t0 + b.t1)//2
                 THEN 1 ELSE 0 END) AS a,
             max(CASE WHEN epoch_us(ts) > (b.t0 + b.t1)//2
                 THEN 1 ELSE 0 END) AS s
      FROM events, b GROUP BY 1),
mm AS (SELECT CAST(sum(a) AS BIGINT) AS n1,
              CAST(sum(s) AS BIGINT) AS n2,
              CAST(sum(a*s) AS BIGINT) AS mb
       FROM u)
SELECT n1 AS n_first, n2 AS n_second, mb AS n_both,
       round(CAST((n1 + 1)*(n2 + 1) AS DOUBLE)
             /CAST(mb + 1 AS DOUBLE) - 1.0, 6) AS n_hat,
       round(CAST((n1 + 1)*(n2 + 1) AS DOUBLE)
             *CAST((n1 - mb)*(n2 - mb) AS DOUBLE)
             /(CAST((mb + 1)*(mb + 1) AS DOUBLE)
               *CAST(mb + 2 AS DOUBLE)), 6) AS var_hat
FROM mm WHERE n1 > 0 AND n2 > 0
"""


def q_chao1(sf_dir):
    """★-checked Chao1 vocabulary projection + Good–Turing unseen
    mass (stages/pack.py): exact V/V₁/V₂/N moment cells, two
    mirrored closings."""
    from ..stages.pack import chao1_richness

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"])
    return round6(chao1_richness(docs))


CHAO1_SQL = r"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[^ \t\n\r\f\v]+'))
           AS term
  FROM documents),
c AS (SELECT term, count(*) AS m FROM tok GROUP BY 1),
a AS (SELECT CAST(sum(m) AS BIGINT) AS n,
             CAST(count(*) AS BIGINT) AS v,
             CAST(count(*) FILTER (m = 1) AS BIGINT) AS v1,
             CAST(count(*) FILTER (m = 2) AS BIGINT) AS v2
      FROM c)
SELECT n AS n_tokens, v AS vocab, v1, v2,
       round(CAST(v AS DOUBLE)
             + CAST(v1*(v1 - 1) AS DOUBLE)
               /(2.0*CAST(v2 + 1 AS DOUBLE)), 6) AS chao1,
       round(CAST(v1 AS DOUBLE)/CAST(n AS DOUBLE), 6)
         AS unseen_mass
FROM a WHERE n > 0
"""


def q_anderson_darling(sf_dir):
    """★-checked two-sample Anderson–Darling
    (stages/analytics.py): exact doubled-midrank integer terms,
    ordered per-cell float accumulation, one A² closing."""
    from ..stages.analytics import anderson_darling_2s

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(anderson_darling_2s(ev))


AD2_SQL = _TWO_SAMPLE_HIST_CTE + """,
t AS (SELECT k, cx, cy, cx + cy AS l,
             2*cxc - cx AS m2x, 2*cyc - cy AS m2y,
             2*(cxc + cyc) - (cx + cy) AS b2
      FROM w),
tf AS (SELECT k,
              CASE WHEN b2*(2*(mm.n + mm.m) - b2)
                        - (mm.n + mm.m)*l > 0
                   THEN CAST(CAST(l AS HUGEINT)
                             *((mm.n + mm.m)*CAST(m2x AS HUGEINT)
                               - mm.n*CAST(b2 AS HUGEINT))
                             *((mm.n + mm.m)*CAST(m2x AS HUGEINT)
                               - mm.n*CAST(b2 AS HUGEINT))
                             AS DOUBLE)
                        / CAST(CAST(b2 AS HUGEINT)
                               *(2*(mm.n + mm.m) - b2)
                               - (mm.n + mm.m)*l AS DOUBLE)
                   ELSE 0.0 END AS tx,
              CASE WHEN b2*(2*(mm.n + mm.m) - b2)
                        - (mm.n + mm.m)*l > 0
                   THEN CAST(CAST(l AS HUGEINT)
                             *((mm.n + mm.m)*CAST(m2y AS HUGEINT)
                               - mm.m*CAST(b2 AS HUGEINT))
                             *((mm.n + mm.m)*CAST(m2y AS HUGEINT)
                               - mm.m*CAST(b2 AS HUGEINT))
                             AS DOUBLE)
                        / CAST(CAST(b2 AS HUGEINT)
                               *(2*(mm.n + mm.m) - b2)
                               - (mm.n + mm.m)*l AS DOUBLE)
                   ELSE 0.0 END AS ty
       FROM t, mm),
run AS (SELECT sum(tx) OVER (ORDER BY k
                             ROWS UNBOUNDED PRECEDING) AS ax,
               sum(ty) OVER (ORDER BY k
                             ROWS UNBOUNDED PRECEDING) AS ay,
               row_number() OVER (ORDER BY k) AS rn
        FROM tf),
fin AS (SELECT ax, ay FROM run ORDER BY rn DESC LIMIT 1)
SELECT mm.n AS n_x, mm.m AS n_y,
       round((fin.ax/CAST(mm.n AS DOUBLE)
              + fin.ay/CAST(mm.m AS DOUBLE))
             *CAST(mm.n + mm.m - 1 AS DOUBLE)
             /(CAST(mm.n + mm.m AS DOUBLE)
               *CAST(mm.n + mm.m AS DOUBLE)), 6) AS a2_stat
FROM fin, mm WHERE mm.n > 0 AND mm.m > 0 AND mm.n + mm.m >= 3
"""


def q_mutual_information(sf_dir):
    """★-checked mutual information + Theil's U between event type
    and hour (stages/analytics.py): exact bounded cells, fixed-
    order entropy prefix sums, three mirrored closings."""
    from ..stages.analytics import mutual_information

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    return round6(mutual_information(ev))


MI_SQL = """
WITH f AS (SELECT event_type AS a,
                  (epoch_us(ts) // 3600000000) % 24 AS b
           FROM events),
cab AS (SELECT a, b, CAST(count(*) AS BIGINT) AS c
        FROM f GROUP BY 1, 2),
nn AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM cab),
ha_r AS (SELECT sum(CAST(c AS DOUBLE)
                    *(ln(CAST(nn.n AS DOUBLE))
                      - ln(CAST(c AS DOUBLE))))
                OVER (ORDER BY a ROWS UNBOUNDED PRECEDING) AS r,
                row_number() OVER (ORDER BY a) AS rn
         FROM (SELECT a, CAST(sum(c) AS BIGINT) AS c
               FROM cab GROUP BY 1), nn),
ha AS (SELECT r FROM ha_r ORDER BY rn DESC LIMIT 1),
hb_r AS (SELECT sum(CAST(c AS DOUBLE)
                    *(ln(CAST(nn.n AS DOUBLE))
                      - ln(CAST(c AS DOUBLE))))
                OVER (ORDER BY b ROWS UNBOUNDED PRECEDING) AS r,
                row_number() OVER (ORDER BY b) AS rn
         FROM (SELECT b, CAST(sum(c) AS BIGINT) AS c
               FROM cab GROUP BY 1), nn),
hb AS (SELECT r FROM hb_r ORDER BY rn DESC LIMIT 1),
hab_r AS (SELECT sum(CAST(c AS DOUBLE)
                     *(ln(CAST(nn.n AS DOUBLE))
                       - ln(CAST(c AS DOUBLE))))
                 OVER (ORDER BY a, b ROWS UNBOUNDED PRECEDING)
                   AS r,
                 row_number() OVER (ORDER BY a, b) AS rn
          FROM cab, nn),
hab AS (SELECT r FROM hab_r ORDER BY rn DESC LIMIT 1),
cl AS (SELECT nn.n,
              ha.r/CAST(nn.n AS DOUBLE) AS h_a,
              hb.r/CAST(nn.n AS DOUBLE) AS h_b,
              hab.r/CAST(nn.n AS DOUBLE) AS h_ab
       FROM nn, ha, hb, hab)
SELECT n, round(h_a, 6) AS h_a, round(h_b, 6) AS h_b,
       round(h_ab, 6) AS h_ab,
       round(h_a + h_b - h_ab, 6) AS mi,
       round((h_a + h_b - h_ab)/h_a, 6) AS u_a_given_b,
       round((h_a + h_b - h_ab)/h_b, 6) AS u_b_given_a
FROM cl WHERE h_a > 0.0 AND h_b > 0.0
"""


def q_peacock_ks2d(sf_dir):
    """★-checked Peacock 2-D KS over (value, hour)
    (stages/analytics.py): exact 2-D integer prefix sums in all
    four quadrant orientations, one max deviation closing."""
    from ..stages.analytics import peacock_ks2d

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "value", "ts"])
    return round6(peacock_ks2d(ev))


PEACOCK_SQL = """
WITH q AS (SELECT CAST(round(value*100) AS BIGINT) AS k,
                  (epoch_us(ts) // 3600000000) % 24 AS h,
                  CASE WHEN event_type = 'click' THEN 1 ELSE 0 END
                    AS isx
           FROM events
           WHERE value IS NOT NULL
             AND event_type IN ('click', 'view')),
cells AS (SELECT k, h, CAST(sum(isx) AS BIGINT) AS cx,
                 CAST(sum(1 - isx) AS BIGINT) AS cy
          FROM q GROUP BY 1, 2),
grid AS (SELECT kk.k, hh.h,
                coalesce(c.cx, 0) AS cx, coalesce(c.cy, 0) AS cy
         FROM (SELECT DISTINCT k FROM cells) kk
         CROSS JOIN (SELECT DISTINCT h FROM cells) hh
         LEFT JOIN cells c ON c.k = kk.k AND c.h = hh.h),
mm AS (SELECT CAST(sum(cx) AS BIGINT) AS n,
              CAST(sum(cy) AS BIGINT) AS m FROM cells),
q1 AS (SELECT k, h,
              sum(cx) OVER (PARTITION BY k ORDER BY h ASC
                            ROWS UNBOUNDED PRECEDING) AS rx,
              sum(cy) OVER (PARTITION BY k ORDER BY h ASC
                            ROWS UNBOUNDED PRECEDING) AS ry
       FROM grid),
q1c AS (SELECT sum(rx) OVER (PARTITION BY h ORDER BY k ASC
                             ROWS UNBOUNDED PRECEDING) AS ccx,
               sum(ry) OVER (PARTITION BY h ORDER BY k ASC
                             ROWS UNBOUNDED PRECEDING) AS ccy
        FROM q1),
q2 AS (SELECT k, h,
              sum(cx) OVER (PARTITION BY k ORDER BY h DESC
                            ROWS UNBOUNDED PRECEDING) AS rx,
              sum(cy) OVER (PARTITION BY k ORDER BY h DESC
                            ROWS UNBOUNDED PRECEDING) AS ry
       FROM grid),
q2c AS (SELECT sum(rx) OVER (PARTITION BY h ORDER BY k ASC
                             ROWS UNBOUNDED PRECEDING) AS ccx,
               sum(ry) OVER (PARTITION BY h ORDER BY k ASC
                             ROWS UNBOUNDED PRECEDING) AS ccy
        FROM q2),
q3 AS (SELECT k, h,
              sum(cx) OVER (PARTITION BY k ORDER BY h ASC
                            ROWS UNBOUNDED PRECEDING) AS rx,
              sum(cy) OVER (PARTITION BY k ORDER BY h ASC
                            ROWS UNBOUNDED PRECEDING) AS ry
       FROM grid),
q3c AS (SELECT sum(rx) OVER (PARTITION BY h ORDER BY k DESC
                             ROWS UNBOUNDED PRECEDING) AS ccx,
               sum(ry) OVER (PARTITION BY h ORDER BY k DESC
                             ROWS UNBOUNDED PRECEDING) AS ccy
        FROM q3),
q4 AS (SELECT k, h,
              sum(cx) OVER (PARTITION BY k ORDER BY h DESC
                            ROWS UNBOUNDED PRECEDING) AS rx,
              sum(cy) OVER (PARTITION BY k ORDER BY h DESC
                            ROWS UNBOUNDED PRECEDING) AS ry
       FROM grid),
q4c AS (SELECT sum(rx) OVER (PARTITION BY h ORDER BY k DESC
                             ROWS UNBOUNDED PRECEDING) AS ccx,
               sum(ry) OVER (PARTITION BY h ORDER BY k DESC
                             ROWS UNBOUNDED PRECEDING) AS ccy
        FROM q4),
dall AS (SELECT abs(mm.m*ccx - mm.n*ccy) AS d FROM q1c, mm
         UNION ALL
         SELECT abs(mm.m*ccx - mm.n*ccy) FROM q2c, mm
         UNION ALL
         SELECT abs(mm.m*ccx - mm.n*ccy) FROM q3c, mm
         UNION ALL
         SELECT abs(mm.m*ccx - mm.n*ccy) FROM q4c, mm),
mx AS (SELECT CAST(max(d) AS BIGINT) AS best FROM dall)
SELECT mm.n AS n_x, mm.m AS n_y, mx.best AS d_max_nm,
       round(CAST(mx.best AS DOUBLE)
             / (CAST(mm.n AS DOUBLE)*CAST(mm.m AS DOUBLE)), 6)
         AS d_stat
FROM mm, mx WHERE mm.n > 0 AND mm.m > 0
"""


def q_did(sf_dir):
    """★-checked difference-in-differences on value means
    (stages/analytics.py): four exact (cohort, period) cells, no
    exchange, mirrored mean and DiD closings."""
    from ..stages.analytics import did_effect

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value"])
    return round6(did_effect(ev))


DID_SQL = """
WITH b AS (SELECT min(epoch_us(ts)) AS t0,
                  max(epoch_us(ts)) AS t1 FROM events),
c AS (SELECT CASE WHEN user_id % 2 = 1 THEN 1 ELSE 0 END AS t,
             CASE WHEN epoch_us(ts) > (b.t0 + b.t1)//2
                  THEN 1 ELSE 0 END AS p,
             CAST(round(value*100) AS BIGINT) AS k
      FROM events, b),
g AS (SELECT t, p, CAST(sum(k) AS BIGINT) AS s,
             CAST(count(*) AS BIGINT) AS n
      FROM c GROUP BY 1, 2),
m AS (SELECT
  (SELECT CAST(s AS DOUBLE)/CAST(n AS DOUBLE)/100.0
   FROM g WHERE t = 0 AND p = 0) AS m00,
  (SELECT CAST(s AS DOUBLE)/CAST(n AS DOUBLE)/100.0
   FROM g WHERE t = 0 AND p = 1) AS m01,
  (SELECT CAST(s AS DOUBLE)/CAST(n AS DOUBLE)/100.0
   FROM g WHERE t = 1 AND p = 0) AS m10,
  (SELECT CAST(s AS DOUBLE)/CAST(n AS DOUBLE)/100.0
   FROM g WHERE t = 1 AND p = 1) AS m11)
SELECT round(m00, 6) AS mean_pre_c, round(m01, 6) AS mean_post_c,
       round(m10, 6) AS mean_pre_t, round(m11, 6) AS mean_post_t,
       round((m11 - m10) - (m01 - m00), 6) AS did
FROM m WHERE m00 IS NOT NULL AND m01 IS NOT NULL
  AND m10 IS NOT NULL AND m11 IS NOT NULL
"""


def q_sprt(sf_dir):
    """★-checked Wald SPRT on per-key conversion
    (stages/analytics.py): closed-form LLR per prefix (exact int
    counts × literal ln constants — no float accumulation), first
    boundary crossing in key order."""
    from ..stages.analytics import sprt_conversion

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type"])
    return round6(sprt_conversion(ev))


def _sprt_sql() -> str:
    """SQL twin of sprt_conversion — the four ln constants are
    computed by the SAME numpy expressions the stage uses and
    embedded as exact double literals, so the per-row boundary
    comparisons are bit-identical."""
    p0, p1, alpha, beta = 0.3, 0.4, 0.05, 0.05
    la = float(np.log(p1 / p0))
    lb = float(np.log((1.0 - p1) / (1.0 - p0)))
    up = float(np.log((1.0 - beta) / alpha))
    lo = float(np.log(beta / (1.0 - alpha)))
    return f"""
WITH u AS (SELECT user_id,
                  max(CASE WHEN event_type = 'purchase'
                      THEN 1 ELSE 0 END) AS c
           FROM events GROUP BY 1),
o AS (SELECT user_id, c,
             sum(c) OVER (ORDER BY user_id
                          ROWS UNBOUNDED PRECEDING) AS cc,
             row_number() OVER (ORDER BY user_id) AS i
      FROM u),
l AS (SELECT i, CAST(cc AS DOUBLE)*({la!r})
               + CAST(i - cc AS DOUBLE)*({lb!r}) AS llr
      FROM o),
hit AS (SELECT i, llr,
               CASE WHEN llr >= {up!r} THEN 'reject_h0'
                    ELSE 'accept_h0' END AS dec
        FROM l WHERE llr >= {up!r} OR llr <= {lo!r}
        ORDER BY i LIMIT 1),
mm AS (SELECT CAST(count(*) AS BIGINT) AS nk,
              CAST(sum(c) AS BIGINT) AS nc FROM u),
fin AS (SELECT llr AS lf, i AS nd FROM l
        ORDER BY i DESC LIMIT 1)
SELECT mm.nk AS n_keys, mm.nc AS n_conversions,
       coalesce(hit.dec, 'continue') AS decision,
       CAST(coalesce(hit.i, fin.nd) AS BIGINT) AS n_at_decision,
       round(coalesce(hit.llr, fin.lf), 6) AS llr_final
FROM mm LEFT JOIN hit ON TRUE LEFT JOIN fin ON TRUE
"""


def q_gehan(sf_dir):
    """★-checked Gehan generalized Wilcoxon on censored
    time-to-conversion, even vs odd user cohorts
    (stages/analytics.py): exact definite-ordering scores from
    cumulative (duration, status) counts, HUGEINT ΣG², one z."""
    from ..stages.analytics import gehan_wilcoxon

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])
    return round6(gehan_wilcoxon(ev))


GEHAN_SQL = """
WITH su AS (
  SELECT user_id, min(epoch_us(ts)) AS t0
  FROM events WHERE event_type = 'signup' GROUP BY 1
),
pu AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS tp
  FROM events e JOIN su USING (user_id)
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > su.t0
  GROUP BY 1
),
mx AS (SELECT max(epoch_us(ts)) AS tmax FROM events),
dur AS (SELECT su.user_id,
               coalesce(pu.tp, mx.tmax) - su.t0 AS t,
               CASE WHEN pu.tp IS NOT NULL THEN 1 ELSE 0 END AS o
        FROM su LEFT JOIN pu USING (user_id), mx),
h AS (SELECT t, CAST(count(*) AS BIGINT) AS c_all,
             CAST(sum(o) AS BIGINT) AS c_obs
      FROM dur GROUP BY 1),
w AS (SELECT t, c_all, c_obs,
             sum(c_all) OVER (ORDER BY t
                              ROWS UNBOUNDED PRECEDING)
               AS cum_all,
             sum(c_obs) OVER (ORDER BY t
                              ROWS UNBOUNDED PRECEDING)
               AS cum_obs
      FROM h),
tot AS (SELECT CAST(sum(c_all) AS BIGINT) AS nt FROM h),
g AS (SELECT d.user_id,
             (w.cum_obs - w.c_obs) + (1 - d.o)*w.c_obs
             - d.o*((tot.nt - w.cum_all)
                    + (w.c_all - w.c_obs)) AS gg
      FROM dur d JOIN w ON w.t = d.t, tot),
mm AS (SELECT CAST(sum(CASE WHEN user_id % 2 = 0
                       THEN 1 ELSE 0 END) AS BIGINT) AS n,
              CAST(sum(CASE WHEN user_id % 2 = 1
                       THEN 1 ELSE 0 END) AS BIGINT) AS m
       FROM g),
st AS (SELECT CAST(sum(CASE WHEN user_id % 2 = 0
                       THEN gg ELSE 0 END) AS BIGINT) AS wsum,
              sum(CAST(gg AS HUGEINT)*gg) AS sg2
       FROM g)
SELECT mm.n AS n_a, mm.m AS n_b, st.wsum AS w_gehan,
       round(CAST(st.wsum AS DOUBLE)
             / sqrt(CAST(CAST(mm.n AS HUGEINT)*mm.m*st.sg2
                         AS DOUBLE)
                    / CAST((mm.n + mm.m)
                           *CAST(mm.n + mm.m - 1 AS HUGEINT)
                           AS DOUBLE)), 6) AS z_stat
FROM mm, st
WHERE mm.n > 0 AND mm.m > 0
  AND CAST(mm.n AS HUGEINT)*mm.m*st.sg2 > 0
"""


def q_cuped(sf_dir):
    """★-checked CUPED variance-reduced treatment effect
    (stages/analytics.py): per-user pre/post value sums as exact
    int cells, pooled θ from exact moments, mirrored raw/adjusted
    effect and ρ² closings."""
    from ..stages.analytics import cuped_effect

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "value"])
    return round6(cuped_effect(ev))


CUPED_SQL = """
WITH b AS (SELECT min(epoch_us(ts)) AS t0,
                  max(epoch_us(ts)) AS t1 FROM events),
u AS (SELECT user_id,
             CAST(sum(CASE WHEN epoch_us(ts) <= (b.t0 + b.t1)//2
                      THEN CAST(round(value*100) AS BIGINT)
                      ELSE 0 END) AS BIGINT) AS x,
             CAST(sum(CASE WHEN epoch_us(ts) > (b.t0 + b.t1)//2
                      THEN CAST(round(value*100) AS BIGINT)
                      ELSE 0 END) AS BIGINT) AS y
      FROM events, b GROUP BY 1),
mo AS (SELECT CAST(count(*) AS BIGINT) AS nu,
              CAST(sum(x) AS BIGINT) AS sx,
              CAST(sum(y) AS BIGINT) AS sy,
              sum(CAST(x AS HUGEINT)*y) AS sxy,
              sum(CAST(x AS HUGEINT)*x) AS sx2,
              sum(CAST(y AS HUGEINT)*y) AS sy2,
              CAST(sum(CASE WHEN user_id % 2 = 1
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_t,
              CAST(sum(CASE WHEN user_id % 2 = 1
                       THEN x ELSE 0 END) AS BIGINT) AS sx_t,
              CAST(sum(CASE WHEN user_id % 2 = 1
                       THEN y ELSE 0 END) AS BIGINT) AS sy_t,
              CAST(sum(CASE WHEN user_id % 2 = 0
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_c,
              CAST(sum(CASE WHEN user_id % 2 = 0
                       THEN x ELSE 0 END) AS BIGINT) AS sx_c,
              CAST(sum(CASE WHEN user_id % 2 = 0
                       THEN y ELSE 0 END) AS BIGINT) AS sy_c
       FROM u),
cl AS (SELECT nu, n_t, n_c,
              CAST(nu*sxy - CAST(sx AS HUGEINT)*sy AS DOUBLE)
              / CAST(nu*sx2 - CAST(sx AS HUGEINT)*sx AS DOUBLE)
                AS theta,
              CAST(sy_t AS DOUBLE)/CAST(n_t AS DOUBLE)
              - CAST(sy_c AS DOUBLE)/CAST(n_c AS DOUBLE)
                AS raw_k,
              CAST(sx_t AS DOUBLE)/CAST(n_t AS DOUBLE)
              - CAST(sx_c AS DOUBLE)/CAST(n_c AS DOUBLE)
                AS rawx_k,
              CAST(nu*sxy - CAST(sx AS HUGEINT)*sy AS DOUBLE)
              *CAST(nu*sxy - CAST(sx AS HUGEINT)*sy AS DOUBLE)
              / (CAST(nu*sx2 - CAST(sx AS HUGEINT)*sx AS DOUBLE)
                 *CAST(nu*sy2 - CAST(sy AS HUGEINT)*sy
                       AS DOUBLE)) AS rho2
       FROM mo
       WHERE n_t > 0 AND n_c > 0
         AND nu*sx2 - CAST(sx AS HUGEINT)*sx > 0
         AND nu*sy2 - CAST(sy AS HUGEINT)*sy > 0)
SELECT nu AS n_users, n_t AS n_treat, round(theta, 6) AS theta,
       round(raw_k/100.0, 6) AS raw_effect,
       round((raw_k - theta*rawx_k)/100.0, 6) AS cuped_effect,
       round(rho2, 6) AS rho2
FROM cl
"""


def q_rmst(sf_dir):
    """★-checked restricted mean survival time
    (stages/analytics.py): the kaplan_meier curve integrated to
    the censor horizon with the same ordered-prefix float walk."""
    from ..stages.analytics import rmst

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "ts"])
    return round6(rmst(ev))


RMST_SQL = """
WITH su AS (
  SELECT user_id, min(epoch_us(ts)) AS t0
  FROM events WHERE event_type = 'signup' GROUP BY 1
),
pu AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS tp
  FROM events e JOIN su USING (user_id)
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > su.t0
  GROUP BY 1
),
mx AS (SELECT max(epoch_us(ts)) AS tmax FROM events),
dur AS (
  SELECT su.user_id,
         coalesce(pu.tp, mx.tmax) - su.t0 AS d_us,
         (pu.tp IS NOT NULL) AS ev
  FROM su LEFT JOIN pu USING (user_id), mx
),
evt AS (
  SELECT d_us, CAST(count(*) AS BIGINT) AS d
  FROM dur WHERE ev GROUP BY d_us
),
risk AS (
  SELECT e.d_us, e.d,
         (SELECT CAST(count(*) AS BIGINT) FROM dur
          WHERE dur.d_us >= e.d_us) AS n_risk
  FROM evt e
),
curve AS (
  SELECT d_us,
         exp(sum(CASE WHEN d >= n_risk
                  THEN CAST('-infinity' AS DOUBLE)
                  ELSE ln(1 - CAST(d AS DOUBLE) / n_risk) END)
             OVER (ORDER BY d_us ROWS UNBOUNDED PRECEDING))
           AS surv
  FROM risk
),
ta AS (SELECT CAST(max(d_us) AS BIGINT) AS tau FROM dur),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n_dur,
              CAST(sum(CASE WHEN ev THEN 1 ELSE 0 END) AS BIGINT)
                AS n_ev
       FROM dur),
integ AS (SELECT d_us, surv,
                 lag(surv, 1, 1.0) OVER (ORDER BY d_us) AS sprev,
                 lag(d_us, 1, 0) OVER (ORDER BY d_us) AS tprev
          FROM curve),
run AS (SELECT sum(sprev*CAST(d_us - tprev AS DOUBLE))
               OVER (ORDER BY d_us ROWS UNBOUNDED PRECEDING)
                 AS acc,
               surv, d_us,
               row_number() OVER (ORDER BY d_us) AS rn,
               count(*) OVER () AS cnt
        FROM integ),
fin AS (SELECT acc, surv, d_us FROM run WHERE rn = cnt)
SELECT nn.n_dur AS n_durations, nn.n_ev AS n_events,
       ta.tau AS tau_us,
       round((fin.acc
              + fin.surv*CAST(ta.tau - fin.d_us AS DOUBLE))
             / 86400000000.0, 6) AS rmst_days,
       round((fin.acc
              + fin.surv*CAST(ta.tau - fin.d_us AS DOUBLE))
             / CAST(ta.tau AS DOUBLE), 6) AS rmst_share
FROM nn, ta, fin WHERE ta.tau > 0
"""


def q_yuen_trimmed(sf_dir):
    """★-checked Yuen 20 %-trimmed-mean test
    (stages/analytics.py): exact trimmed-range cell counts and
    winsorized sums, mirrored SSw/d/t closings."""
    from ..stages.analytics import yuen_trimmed

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(yuen_trimmed(ev))


YUEN_SQL = _TWO_SAMPLE_HIST_CTE + """,
gx AS (SELECT mm.n AS n, mm.n//5 AS g,
              mm.n - 2*(mm.n//5) AS h FROM mm),
gy AS (SELECT mm.m AS n, mm.m//5 AS g,
              mm.m - 2*(mm.m//5) AS h FROM mm),
bx AS (SELECT
  (SELECT min(k) FROM w, gx WHERE cxc >= gx.g + 1) AS lo,
  (SELECT min(k) FROM w, gx WHERE cxc >= gx.n - gx.g) AS hi),
yb AS (SELECT
  (SELECT min(k) FROM w, gy WHERE cyc >= gy.g + 1) AS lo,
  (SELECT min(k) FROM w, gy WHERE cyc >= gy.n - gy.g) AS hi),
tx AS (SELECT CAST(sum(k*tc) AS BIGINT) AS st,
              sum(CAST(k AS HUGEINT)*k*tc) AS qt
       FROM (SELECT k, greatest(0, least(cxc, gx.n - gx.g)
                                 - greatest(cxc - cx, gx.g)) AS tc
             FROM w, gx)),
ty AS (SELECT CAST(sum(k*tc) AS BIGINT) AS st,
              sum(CAST(k AS HUGEINT)*k*tc) AS qt
       FROM (SELECT k, greatest(0, least(cyc, gy.n - gy.g)
                                 - greatest(cyc - cy, gy.g)) AS tc
             FROM w, gy)),
sx AS (SELECT gx.n, gx.h, tx.st,
              tx.st + gx.g*(bx.lo + bx.hi) AS sw,
              tx.qt + gx.g*(CAST(bx.lo AS HUGEINT)*bx.lo
                            + CAST(bx.hi AS HUGEINT)*bx.hi) AS qw
       FROM tx, gx, bx),
sy AS (SELECT gy.n, gy.h, ty.st,
              ty.st + gy.g*(yb.lo + yb.hi) AS sw,
              ty.qt + gy.g*(CAST(yb.lo AS HUGEINT)*yb.lo
                            + CAST(yb.hi AS HUGEINT)*yb.hi) AS qw
       FROM ty, gy, yb),
cl AS (SELECT sx.n AS n_x, sy.n AS n_y, sx.h AS h_x,
              sy.h AS h_y,
              CAST(sx.st AS DOUBLE)/CAST(sx.h AS DOUBLE) AS tmx,
              CAST(sy.st AS DOUBLE)/CAST(sy.h AS DOUBLE) AS tmy,
              (CAST(sx.qw AS DOUBLE)
               - CAST(sx.sw AS DOUBLE)*CAST(sx.sw AS DOUBLE)
                 /CAST(sx.n AS DOUBLE))
              /CAST(sx.h*(sx.h - 1) AS DOUBLE) AS dx,
              (CAST(sy.qw AS DOUBLE)
               - CAST(sy.sw AS DOUBLE)*CAST(sy.sw AS DOUBLE)
                 /CAST(sy.n AS DOUBLE))
              /CAST(sy.h*(sy.h - 1) AS DOUBLE) AS dy
       FROM sx, sy WHERE sx.h > 1 AND sy.h > 1)
SELECT n_x, n_y, h_x, h_y, round(tmx/100.0, 6) AS tmean_x,
       round(tmy/100.0, 6) AS tmean_y,
       round((tmx - tmy)/sqrt(dx + dy), 6) AS yuen_t
FROM cl WHERE dx + dy > 0.0
"""


def q_hill_tail(sf_dir):
    """★-checked Hill upper-tail index (stages/analytics.py): top
    100 positive values via exact clipped cells, the ln prefix sum
    accumulated in descending value order (kaplan_meier's ordered-
    window device), mirrored H and α̂ closings."""
    from ..stages.analytics import hill_tail

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"])
    return round6(hill_tail(ev, tail_k=100))


HILL_SQL = """
WITH p AS (SELECT CAST(round(value*100) AS BIGINT) AS k
           FROM events
           WHERE value IS NOT NULL
             AND CAST(round(value*100) AS BIGINT) >= 1),
h AS (SELECT k, CAST(count(*) AS BIGINT) AS c FROM p GROUP BY 1),
mm AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM h),
w AS (SELECT k, c, sum(c) OVER (ORDER BY k DESC
                                ROWS UNBOUNDED PRECEDING) AS cum
      FROM h),
rf AS (SELECT max(k) AS ref FROM w WHERE cum >= 101),
tcc AS (SELECT k, greatest(0, least(cum, 100)
                           - greatest(cum - c, 0)) AS tc
        FROM w),
s AS (SELECT sum(CASE WHEN tc > 0
                 THEN CAST(tc AS DOUBLE)*ln(CAST(k AS DOUBLE))
                 ELSE 0.0 END)
             OVER (ORDER BY k DESC ROWS UNBOUNDED PRECEDING)
               AS run,
             row_number() OVER (ORDER BY k DESC) AS rn
      FROM tcc),
tot AS (SELECT run FROM s ORDER BY rn DESC LIMIT 1),
cl AS (SELECT mm.n, rf.ref,
              (tot.run - 100.0*ln(CAST(rf.ref AS DOUBLE)))/100.0
                AS hh
       FROM mm, rf, tot WHERE mm.n >= 101)
SELECT n AS n_pos, CAST(100 AS BIGINT) AS tail_k, ref AS x_ref,
       round(hh, 6) AS hill_h, round(1.0/hh, 6) AS alpha
FROM cl WHERE hh > 0.0
"""


def q_lepage(sf_dir):
    """★-checked Lepage location–scale omnibus
    (stages/analytics.py): tie-corrected Wilcoxon z + Ansari z
    over the shared histogram, L = z_W² + z_A²."""
    from ..stages.analytics import lepage_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(lepage_test(ev))


LEPAGE_SQL = _TWO_SAMPLE_HIST_CTE + """,
a AS (SELECT cx, cy, cx + cy AS l,
             2*(cxc + cyc) - (cx + cy) + 1 AS r2
      FROM w),
b AS (SELECT cx, l, r2,
             least(r2, 2*(mm.n + mm.m + 1) - r2) AS a2
      FROM a, mm),
s AS (SELECT CAST(sum(cx*r2) AS BIGINT) AS w2,
             sum(CAST(l AS HUGEINT)*l*l - l) AS tie3,
             CAST(sum(cx*a2) AS BIGINT) AS aw2,
             CAST(sum(l*a2) AS BIGINT) AS s1,
             sum(CAST(l AS HUGEINT)*a2*a2) AS s2
      FROM b),
cl AS (SELECT mm.n, mm.m,
              CAST(s.w2 - mm.n*(mm.n + mm.m + 1) AS DOUBLE)
              / (2.0*sqrt(CAST(CAST(mm.n AS HUGEINT)*mm.m
                               *((mm.n + mm.m + 1)
                                 *CAST(mm.n + mm.m AS HUGEINT)
                                 *(mm.n + mm.m - 1) - s.tie3)
                               AS DOUBLE)
                          / CAST(12*(mm.n + mm.m)
                                 *(mm.n + mm.m - 1) AS DOUBLE)))
                AS zw,
              CAST((mm.n + mm.m)*s.aw2 - mm.n*s.s1 AS DOUBLE)
              / sqrt(CAST(CAST(mm.n AS HUGEINT)*mm.m
                          *(CAST(mm.n + mm.m AS HUGEINT)*s.s2
                            - CAST(s.s1 AS HUGEINT)*s.s1)
                          AS DOUBLE)
                     / CAST(mm.n + mm.m - 1 AS DOUBLE)) AS za
       FROM s, mm
       WHERE mm.n > 0 AND mm.m > 0 AND mm.n + mm.m >= 3
         AND (mm.n + mm.m + 1)*CAST(mm.n + mm.m AS HUGEINT)
             *(mm.n + mm.m - 1) - s.tie3 > 0
         AND CAST(mm.n AS HUGEINT)*mm.m
             *(CAST(mm.n + mm.m AS HUGEINT)*s.s2
               - CAST(s.s1 AS HUGEINT)*s.s1) > 0)
SELECT n AS n_x, m AS n_y, round(zw, 6) AS z_wilcoxon,
       round(za, 6) AS z_ansari,
       round(zw*zw + za*za, 6) AS lepage_l
FROM cl
"""


def q_qte_profile(sf_dir):
    """★-checked quantile treatment effects at the quartiles
    (stages/analytics.py): exact type-1 order stats per group,
    descaled quartile differences."""
    from ..stages.analytics import qte_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(qte_profile(ev))


QTE_SQL = _TWO_SAMPLE_HIST_CTE + """,
qq AS (SELECT
  (SELECT min(k) FROM w, mm WHERE cxc >= (mm.n*1 + 3)//4)
    AS q25_x,
  (SELECT min(k) FROM w, mm WHERE cxc >= (mm.n*2 + 3)//4)
    AS q50_x,
  (SELECT min(k) FROM w, mm WHERE cxc >= (mm.n*3 + 3)//4)
    AS q75_x,
  (SELECT min(k) FROM w, mm WHERE cyc >= (mm.m*1 + 3)//4)
    AS q25_y,
  (SELECT min(k) FROM w, mm WHERE cyc >= (mm.m*2 + 3)//4)
    AS q50_y,
  (SELECT min(k) FROM w, mm WHERE cyc >= (mm.m*3 + 3)//4)
    AS q75_y)
SELECT mm.n AS n_x, mm.m AS n_y,
       qq.q25_x, qq.q50_x, qq.q75_x,
       qq.q25_y, qq.q50_y, qq.q75_y,
       round(CAST(qq.q25_y - qq.q25_x AS DOUBLE)/100.0, 6)
         AS qte_25,
       round(CAST(qq.q50_y - qq.q50_x AS DOUBLE)/100.0, 6)
         AS qte_50,
       round(CAST(qq.q75_y - qq.q75_x AS DOUBLE)/100.0, 6)
         AS qte_75
FROM qq, mm WHERE mm.n > 0 AND mm.m > 0
"""


def q_kuiper(sf_dir):
    """★-checked Kuiper two-sample EDF test
    (stages/analytics.py): exact integer cell deviations, two max
    closings, V = D⁺ + D⁻."""
    from ..stages.analytics import kuiper_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(kuiper_test(ev))


KUIPER_SQL = _TWO_SAMPLE_HIST_CTE + """,
dv AS (SELECT mm.m*w.cxc - mm.n*w.cyc AS d FROM w, mm),
ex AS (SELECT greatest(CAST(max(d) AS BIGINT), 0) AS dp,
              greatest(CAST(max(-d) AS BIGINT), 0) AS dm
       FROM dv)
SELECT mm.n AS n_x, mm.m AS n_y,
       round(CAST(ex.dp AS DOUBLE)
             / (CAST(mm.n AS DOUBLE)*CAST(mm.m AS DOUBLE)), 6)
         AS d_plus,
       round(CAST(ex.dm AS DOUBLE)
             / (CAST(mm.n AS DOUBLE)*CAST(mm.m AS DOUBLE)), 6)
         AS d_minus,
       round(CAST(ex.dp + ex.dm AS DOUBLE)
             / (CAST(mm.n AS DOUBLE)*CAST(mm.m AS DOUBLE)), 6)
         AS v_stat
FROM ex, mm WHERE mm.n > 0 AND mm.m > 0
"""


def q_wasserstein1(sf_dir):
    """★-checked 1-D Wasserstein-1 distance
    (stages/analytics.py): exact Σ Δk·|m·CX − n·CY| numerator in
    Python-int/HUGEINT, one descaled closing."""
    from ..stages.analytics import wasserstein1

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(wasserstein1(ev))


WASSERSTEIN_SQL = _TWO_SAMPLE_HIST_CTE + """,
gp AS (SELECT k, cxc, cyc,
              lead(k) OVER (ORDER BY k) - k AS g
       FROM w),
nu AS (SELECT sum(CAST(g AS HUGEINT)
                  * abs(mm.m*gp.cxc - mm.n*gp.cyc)) AS num
       FROM gp, mm WHERE g IS NOT NULL)
SELECT mm.n AS n_x, mm.m AS n_y,
       round(CAST(nu.num AS DOUBLE)
             / (CAST(mm.n AS DOUBLE)*CAST(mm.m AS DOUBLE)*100.0),
             6) AS w1_dist
FROM nu, mm WHERE mm.n > 0 AND mm.m > 0 AND nu.num IS NOT NULL
"""


def q_energy_distance(sf_dir):
    """★-checked Székely–Rizzo energy distance
    (stages/analytics.py): three exact EDF-integral numerators
    over the shared histogram, mirrored E|X−Y|/E|X−X'|/E|Y−Y'|
    and D² closings."""
    from ..stages.analytics import energy_distance

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(energy_distance(ev))


ENERGY_DIST_SQL = _TWO_SAMPLE_HIST_CTE + """,
gp AS (SELECT k, cxc, cyc,
              lead(k) OVER (ORDER BY k) - k AS g
       FROM w),
nu AS (SELECT sum(CAST(g AS HUGEINT)
                  * (gp.cxc*(mm.m - gp.cyc)
                     + gp.cyc*(mm.n - gp.cxc))) AS a,
              sum(CAST(g AS HUGEINT)*2*gp.cxc*(mm.n - gp.cxc))
                AS b,
              sum(CAST(g AS HUGEINT)*2*gp.cyc*(mm.m - gp.cyc))
                AS c
       FROM gp, mm WHERE g IS NOT NULL),
cl AS (SELECT CAST(nu.a AS DOUBLE)
              / (CAST(mm.n AS DOUBLE)*CAST(mm.m AS DOUBLE)*100.0)
                AS exy,
              CAST(nu.b AS DOUBLE)
              / (CAST(mm.n AS DOUBLE)*CAST(mm.n AS DOUBLE)*100.0)
                AS exx,
              CAST(nu.c AS DOUBLE)
              / (CAST(mm.m AS DOUBLE)*CAST(mm.m AS DOUBLE)*100.0)
                AS eyy,
              mm.n, mm.m
       FROM nu, mm
       WHERE mm.n > 0 AND mm.m > 0 AND nu.a IS NOT NULL)
SELECT n AS n_x, m AS n_y, round(exy, 6) AS e_xy,
       round(exx, 6) AS e_xx, round(eyy, 6) AS e_yy,
       round(2.0*exy - exx - eyy, 6) AS energy_d2
FROM cl
"""


def q_hbos_anomalies(sf_dir):
    """★-checked HBOS density anomalies (stages/analytics.py):
    value-bin × hour histograms, exact-integer c_v·c_h rank order,
    mirrored ln display score, top-20."""
    from ..stages.analytics import hbos_anomalies

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "value"])
    return round6(hbos_anomalies(ev, top=20))


HBOS_SQL = """
WITH f AS (SELECT event_id,
                  least(greatest(CAST(round(value*100) AS BIGINT)
                                 + 5000, 0) // 500, 20) AS vbin,
                  (epoch_us(ts) // 3600000000) % 24 AS hour
           FROM events),
cv AS (SELECT vbin, CAST(count(*) AS BIGINT) AS c
       FROM f GROUP BY 1),
chh AS (SELECT hour, CAST(count(*) AS BIGINT) AS c
        FROM f GROUP BY 1),
nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM f),
sc AS (SELECT f.event_id, f.vbin, f.hour,
              cv.c AS c_vbin, chh.c AS c_hour,
              cv.c*chh.c AS prod
       FROM f JOIN cv USING (vbin) JOIN chh USING (hour))
SELECT event_id, vbin, hour, c_vbin, c_hour,
       round((ln(CAST(nn.n AS DOUBLE))
              - ln(CAST(c_vbin AS DOUBLE)))
             + (ln(CAST(nn.n AS DOUBLE))
                - ln(CAST(c_hour AS DOUBLE))), 6) AS hbos_score
FROM sc, nn
QUALIFY row_number() OVER (ORDER BY prod, event_id) <= 20
"""


def q_conformal_interval(sf_dir):
    """★-checked split-conformal calibration of the naive one-step
    forecaster (stages/tsmath.py): parity-split residual
    histograms, exact ⌈(n+1)(1−α)⌉ order-stat qhat, one coverage
    closing."""
    from ..stages.tsmath import conformal_interval

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    return round6(conformal_interval(ev, alpha_pct=10))


CONFORMAL_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  row_number() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) - 1
                    AS p
           FROM events),
pr AS (SELECT abs(b.x - a.x) AS r, b.p AS p
       FROM o a JOIN o b ON b.user_id = a.user_id
                        AND b.p = a.p + 1),
h AS (SELECT r,
             CAST(sum(CASE WHEN p % 2 = 1 THEN 1 ELSE 0 END)
                  AS BIGINT) AS cal,
             CAST(sum(CASE WHEN p % 2 = 0 THEN 1 ELSE 0 END)
                  AS BIGINT) AS tst
      FROM pr GROUP BY 1),
mm AS (SELECT CAST(sum(cal) AS BIGINT) AS n_cal,
              CAST(sum(tst) AS BIGINT) AS n_tst FROM h),
qr AS (SELECT n_cal, n_tst,
              least((n_cal + 1)*90 // 100
                    + CASE WHEN ((n_cal + 1)*90) % 100 = 0
                           THEN 0 ELSE 1 END, n_cal) AS q_rank
       FROM mm),
cu AS (SELECT r, sum(cal) OVER (ORDER BY r
                                ROWS UNBOUNDED PRECEDING) AS cum
       FROM h),
qh AS (SELECT (SELECT min(r) FROM cu
               WHERE cum >= qr.q_rank) AS qhat
       FROM qr),
cov AS (SELECT CAST(sum(tst) AS BIGINT) AS n_covered
        FROM h, qh WHERE h.r <= qh.qhat)
SELECT qr.n_cal AS n_calib, qr.n_tst AS n_test, qr.q_rank,
       qh.qhat AS qhat_k, cov.n_covered,
       round(CAST(cov.n_covered AS DOUBLE)
             / CAST(qr.n_tst AS DOUBLE), 6) AS coverage,
       0.9 AS target
FROM qr, qh, cov WHERE qr.n_cal > 0 AND qr.n_tst > 0
"""


def q_rrf_fuse(sf_dir):
    """★-checked reciprocal-rank fusion (stages/ann.py::rrf_fuse):
    the two lowest vec_ids as query vectors, top-200 retrieved
    lists fused by Σ 1/(60+rank), top-20 by fused score; ranks
    exact ints, each score a fixed-order two-term float."""
    from ..stages.ann import rrf_fuse

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"])
    head = emb.sort("vec_id").limit(2).to_pandas()
    Q = np.stack([np.asarray(v, np.float64)
                  for v in head["embedding"]])
    out = rrf_fuse(emb, Q, head["vec_id"].to_numpy(np.int64),
                   k_retrieve=200, top=20, c=60)
    return round6(out[["vec_id", "rank_0", "rank_1",
                       "rrf_score"]])


RRF_SQL = """
WITH q AS (SELECT vec_id AS query_id,
                  CAST(embedding AS DOUBLE[]) AS qe,
                  row_number() OVER (ORDER BY vec_id) - 1 AS qi
           FROM embeddings ORDER BY vec_id LIMIT 2),
scored AS (SELECT q.qi, e.vec_id,
                  list_cosine_similarity(
                    CAST(e.embedding AS DOUBLE[]), q.qe) AS sim
           FROM embeddings e CROSS JOIN q),
rk AS (SELECT qi, vec_id,
              row_number() OVER (PARTITION BY qi
                                 ORDER BY sim DESC, vec_id) AS rnk
       FROM scored),
tp AS (SELECT * FROM rk WHERE rnk <= 200),
la AS (SELECT vec_id, rnk FROM tp WHERE qi = 0),
lb AS (SELECT vec_id, rnk FROM tp WHERE qi = 1),
fu AS (SELECT coalesce(la.vec_id, lb.vec_id) AS vec_id,
              CAST(coalesce(la.rnk, 0) AS BIGINT) AS rank_0,
              CAST(coalesce(lb.rnk, 0) AS BIGINT) AS rank_1,
              (CASE WHEN la.rnk IS NULL THEN 0.0
                    ELSE 1.0/(60.0 + CAST(la.rnk AS DOUBLE)) END)
              + (CASE WHEN lb.rnk IS NULL THEN 0.0
                      ELSE 1.0/(60.0 + CAST(lb.rnk AS DOUBLE)) END)
                AS rrf_score
       FROM la FULL JOIN lb ON la.vec_id = lb.vec_id)
SELECT vec_id, rank_0, rank_1, round(rrf_score, 6) AS rrf_score
FROM fu
QUALIFY row_number() OVER (ORDER BY rrf_score DESC, vec_id) <= 20
"""


def q_diebold_mariano(sf_dir):
    """★-checked Diebold–Mariano forecast comparison
    (stages/tsmath.py): naive vs two-point-mean one-step
    forecasters pooled over per-key series; exact 4-scaled loss
    differentials, Python-int/HUGEINT Q, one mirrored z."""
    from ..stages.tsmath import diebold_mariano

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    return round6(diebold_mariano(ev))


DIEBOLD_MARIANO_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  lag(CAST(round(value*100) AS BIGINT), 1) OVER w
                    AS x1,
                  lag(CAST(round(value*100) AS BIGINT), 2) OVER w
                    AS x2
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
d AS (SELECT 4*(x - x1)*(x - x1)
             - (2*x - x1 - x2)*(2*x - x1 - x2) AS dd
      FROM o WHERE x1 IS NOT NULL AND x2 IS NOT NULL),
ag AS (SELECT CAST(count(*) AS BIGINT) AS n,
              CAST(sum(dd) AS BIGINT) AS sd,
              sum(CAST(dd AS HUGEINT)*dd) AS q
       FROM d),
cl AS (SELECT n, sd,
              CAST(sd AS DOUBLE)/CAST(n AS DOUBLE) AS dbar,
              CAST(q AS DOUBLE)/CAST(n AS DOUBLE)
                - (CAST(sd AS DOUBLE)/CAST(n AS DOUBLE))
                  *(CAST(sd AS DOUBLE)/CAST(n AS DOUBLE)) AS g0
       FROM ag WHERE n >= 2)
SELECT n AS n_pairs, sd AS sum_d,
       round(dbar/sqrt(g0/CAST(n AS DOUBLE)), 6) AS dm_stat
FROM cl WHERE g0 > 0.0
"""


def q_kmv_jaccard(sf_dir):
    """★-checked KMV set-similarity sketch with exact twin
    (stages/sketch.py): click-users vs view-users under the Knuth
    hash; k-min-wise Jaccard estimate plus the exact Jaccard from
    the same distinct cells."""
    from ..stages.sketch import kmv_jaccard

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_type", "user_id"])
    return round6(kmv_jaccard(ev, k=256))


KMV_JACCARD_SQL = """
WITH ha AS (SELECT DISTINCT
              (CAST(user_id AS UBIGINT)*2654435761)
                % 4294967296 AS hv
            FROM events WHERE event_type = 'click'),
hb AS (SELECT DISTINCT
         (CAST(user_id AS UBIGINT)*2654435761)
           % 4294967296 AS hv
       FROM events WHERE event_type = 'view'),
ix AS (SELECT hv FROM ha INTERSECT SELECT hv FROM hb),
un AS (SELECT hv FROM ha UNION SELECT hv FROM hb),
ks AS (SELECT hv FROM un ORDER BY hv
       LIMIT 256),
bo AS (SELECT count(*) AS c FROM ks
       WHERE hv IN (SELECT hv FROM ix)),
mm AS (SELECT (SELECT CAST(count(*) AS BIGINT) FROM ha) AS n_a,
              (SELECT CAST(count(*) AS BIGINT) FROM hb) AS n_b,
              (SELECT CAST(count(*) AS BIGINT) FROM ix) AS ni,
              (SELECT CAST(count(*) AS BIGINT) FROM un) AS nu,
              (SELECT CAST(count(*) AS BIGINT) FROM ks) AS kk,
              (SELECT CAST(c AS BIGINT) FROM bo) AS nboth)
SELECT kk AS k_used, n_a, n_b,
       round(CAST(nboth AS DOUBLE)/CAST(kk AS DOUBLE), 6)
         AS jaccard_kmv,
       round(CAST(ni AS DOUBLE)/CAST(nu AS DOUBLE), 6)
         AS jaccard_exact
FROM mm WHERE n_a > 0 AND n_b > 0
"""


def q_page_trend(sf_dir):
    """★-checked Page's L ordered-trend test
    (stages/analytics.py): user blocks × four ordered time
    quarters, exact integer quarter assignment / doubled midranks
    / L2, one normal-z closing."""
    from ..stages.analytics import page_trend

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return round6(page_trend(ev, num_quarters=4))


PAGE_TREND_SQL = """
WITH b AS (SELECT min(epoch_us(ts)) AS t0,
                  max(epoch_us(ts)) AS t1 FROM events),
q AS (SELECT user_id,
             least(3, (epoch_us(ts) - b.t0)*4
                      // (b.t1 - b.t0 + 1)) AS qt
      FROM events, b),
c AS (SELECT user_id, qt, CAST(count(*) AS BIGINT) AS c
      FROM q GROUP BY 1, 2),
u AS (SELECT DISTINCT user_id FROM q),
fb AS (SELECT u.user_id, g.qt, coalesce(c.c, 0) AS c
       FROM u CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS qt) g
       LEFT JOIN c ON c.user_id = u.user_id AND c.qt = g.qt),
r AS (SELECT user_id, qt, c,
             2*(rank() OVER (PARTITION BY user_id ORDER BY c) - 1)
               + count(*) OVER (PARTITION BY user_id, c) + 1 AS d2
      FROM fb),
s AS (SELECT CAST(sum((qt + 1)*d2) AS BIGINT) AS l2,
             CAST(count(DISTINCT user_id) AS BIGINT) AS b
      FROM r)
SELECT b AS n_blocks, CAST(4 AS BIGINT) AS n_quarters, l2,
       round(CAST(l2 - b*4*5*5 // 2 AS DOUBLE)
             / (2.0*sqrt(CAST(b AS DOUBLE)*16.0*5.0*15.0/144.0)),
             6) AS z_stat
FROM s
"""


def q_hodges_lehmann(sf_dir):
    """★-checked Hodges–Lehmann shift estimator
    (stages/analytics.py): click vs view; exact integer
    convolution of deci-quantized histograms, doubled-median order
    stats, one /20 closing."""
    from ..stages.analytics import hodges_lehmann

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(hodges_lehmann(ev))


HODGES_LEHMANN_SQL = """
WITH q AS (SELECT CAST(round(value*10) AS BIGINT) AS k,
                  CASE WHEN event_type = 'click' THEN 1 ELSE 0 END
                    AS isx
           FROM events
           WHERE value IS NOT NULL
             AND event_type IN ('click', 'view')),
hx AS (SELECT k, CAST(count(*) AS BIGINT) AS c
       FROM q WHERE isx = 1 GROUP BY 1),
hy AS (SELECT k, CAST(count(*) AS BIGINT) AS c
       FROM q WHERE isx = 0 GROUP BY 1),
d AS (SELECT hy.k - hx.k AS diff,
             CAST(sum(hx.c*hy.c) AS BIGINT) AS cnt
      FROM hx, hy GROUP BY 1),
cu AS (SELECT diff, sum(cnt) OVER (ORDER BY diff
                                   ROWS UNBOUNDED PRECEDING)
         AS cum
       FROM d),
mm AS (SELECT CAST(sum(cnt) AS BIGINT) AS p FROM d),
lo AS (SELECT min(diff) AS v FROM cu, mm
       WHERE cum >= (p + 1) // 2),
hi AS (SELECT min(diff) AS v FROM cu, mm
       WHERE cum >= p // 2 + 1)
SELECT (SELECT CAST(sum(c) AS BIGINT) FROM hx) AS n_x,
       (SELECT CAST(sum(c) AS BIGINT) FROM hy) AS n_y,
       lo.v + hi.v AS hl2,
       round(CAST(lo.v + hi.v AS DOUBLE)/20.0, 6) AS hl_shift
FROM lo, hi
"""


def q_ams_f2(sf_dir):
    """★-checked AMS F₂ sketch with exact-F₂ validation twin
    (stages/sketch.py): nine linear-hash sign rows, exact int64
    Z sums, median-of-squares estimate and its relative error."""
    from ..stages.sketch import ams_f2

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"])
    return round6(ams_f2(ev))


def _ams_sql() -> str:
    """SQL twin of stages/sketch.py::ams_f2 — constants
    single-sourced from the stage module."""
    from ..stages.sketch import _AMS_A, _AMS_B, _AMS_P

    zcols = ",\n       ".join(
        f"CAST(sum(1 - 2*((({_AMS_A[r]}*user_id + {_AMS_B[r]}) "
        f"% {_AMS_P}) % 2)) AS BIGINT) AS z{r}"
        for r in range(9))
    zlist = ", ".join(f"z{r}" for r in range(9))
    return f"""
WITH z AS (SELECT CAST(count(*) AS BIGINT) AS n,
       {zcols}
    FROM events),
cc AS (SELECT user_id, CAST(count(*) AS BIGINT) AS c
       FROM events GROUP BY 1),
f AS (SELECT CAST(count(*) AS BIGINT) AS n_keys,
             CAST(sum(c*c) AS BIGINT) AS f2 FROM cc),
me AS (SELECT CAST(median(v*v) AS DOUBLE) AS est
       FROM (SELECT unnest([{zlist}]) AS v FROM z))
SELECT z.n AS n_events, f.n_keys, f.f2 AS f2_exact,
       round(me.est, 6) AS f2_ams,
       round(abs(me.est - CAST(f.f2 AS DOUBLE))
             / CAST(f.f2 AS DOUBLE), 6) AS rel_err
FROM z, f, me
"""


def q_number_peaks(sf_dir):
    """★-checked tsfresh number_peaks at supports 1/2/3
    (stages/tsmath.py): strict both-side neighbour dominance within
    the key's own time order; exact int counts, no float."""
    from ..stages.tsmath import number_peaks

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    return number_peaks(ev, max_support=3)


NUMBER_PEAKS_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  row_number() OVER w AS r
           FROM events
           WINDOW w AS (PARTITION BY user_id
                        ORDER BY ts, event_id)),
l AS (SELECT user_id, x,
             lag(x, 1) OVER w AS l1, lead(x, 1) OVER w AS d1,
             lag(x, 2) OVER w AS l2, lead(x, 2) OVER w AS d2,
             lag(x, 3) OVER w AS l3, lead(x, 3) OVER w AS d3
      FROM o WINDOW w AS (PARTITION BY user_id ORDER BY r))
SELECT user_id, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CASE WHEN x > l1 AND x > d1
                THEN 1 ELSE 0 END) AS BIGINT) AS n_peaks_1,
       CAST(sum(CASE WHEN x > l1 AND x > d1 AND x > l2 AND x > d2
                THEN 1 ELSE 0 END) AS BIGINT) AS n_peaks_2,
       CAST(sum(CASE WHEN x > l1 AND x > d1 AND x > l2 AND x > d2
                          AND x > l3 AND x > d3
                THEN 1 ELSE 0 END) AS BIGINT) AS n_peaks_3
FROM l GROUP BY 1
"""


def q_chunk_trend(sf_dir):
    """★-checked tsfresh agg_linear_trend profile
    (stages/tsmath.py): OLS slope per full 16-point chunk with
    exact int numerators and a constant denominator, per-key
    min/max/positive-share aggregates."""
    from ..stages.tsmath import chunk_trend_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    return round6(chunk_trend_profile(ev, chunk_len=16))


CHUNK_TREND_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  row_number() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) - 1
                    AS r0
           FROM events),
g AS (SELECT user_id, r0 // 16 AS chunk,
             CAST(sum(x) AS BIGINT) AS sx,
             CAST(sum((r0 % 16)*x) AS BIGINT) AS stx
      FROM o GROUP BY 1, 2 HAVING count(*) = 16),
p AS (SELECT user_id, 16*stx - 120*sx AS num FROM g),
m AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
      FROM o GROUP BY 1)
SELECT m.user_id, m.n, CAST(count(*) AS BIGINT) AS n_chunks,
       CAST(sum(CASE WHEN num > 0 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_pos_slope,
       round(CAST(min(num) AS DOUBLE)/(5440.0*100.0), 6)
         AS slope_min,
       round(CAST(max(num) AS DOUBLE)/(5440.0*100.0), 6)
         AS slope_max
FROM p JOIN m ON m.user_id = p.user_id
GROUP BY 1, 2
"""


def q_brunner_munzel(sf_dir):
    """★-checked Brunner–Munzel heteroscedastic rank test
    (stages/analytics.py): click vs view values; exact doubled
    placements / pooled ranks over the shared value histogram,
    Python-int/HUGEINT variance moments, mirrored p̂ and W."""
    from ..stages.analytics import brunner_munzel

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(brunner_munzel(ev))


BRUNNER_MUNZEL_SQL = _TWO_SAMPLE_HIST_CTE + """,
a AS (SELECT cx, cy,
             2*(cxc + cyc) - (cx + cy) + 1 AS r2,
             2*cyc - cy AS p2x,
             2*cxc - cx AS p2y
      FROM w),
s AS (SELECT CAST(sum(cx*p2x) AS HUGEINT) AS px,
             CAST(sum(cy*p2y) AS HUGEINT) AS py,
             CAST(sum(cx*r2) AS HUGEINT) AS sxr,
             CAST(sum(cy*r2) AS HUGEINT) AS syr
      FROM a),
v AS (SELECT sum(CAST(a.cx AS HUGEINT)
                 * (mm.n*a.p2x - s.px) * (mm.n*a.p2x - s.px))
        AS vx,
             sum(CAST(a.cy AS HUGEINT)
                 * (mm.m*a.p2y - s.py) * (mm.m*a.p2y - s.py))
        AS vy
      FROM a, s, mm)
SELECT mm.n AS n_x, mm.m AS n_y,
       round(CAST(s.py AS DOUBLE)/CAST(2*mm.n*mm.m AS DOUBLE), 6)
         AS p_hat,
       round(CAST(mm.n*s.syr - mm.m*s.sxr AS DOUBLE)
             / (CAST(mm.n + mm.m AS DOUBLE)
                * sqrt(CAST(v.vx AS DOUBLE)
                         / CAST(mm.n*(mm.n - 1) AS DOUBLE)
                       + CAST(v.vy AS DOUBLE)
                         / CAST(mm.m*(mm.m - 1) AS DOUBLE))), 6)
         AS w_stat
FROM s, v, mm
WHERE mm.n >= 2 AND mm.m >= 2 AND (v.vx > 0 OR v.vy > 0)
"""


def q_cucconi(sf_dir):
    """★-checked Cucconi location–scale test
    (stages/analytics.py): exact doubled-midrank S1/S2 moments,
    both-end squared-rank numerators as exact ints, mirrored
    U/V/ρ/C closings."""
    from ..stages.analytics import cucconi_test

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(cucconi_test(ev))


CUCCONI_SQL = _TWO_SAMPLE_HIST_CTE + """,
a AS (SELECT cy, 2*(cxc + cyc) - (cx + cy) + 1 AS r2 FROM w),
s AS (SELECT CAST(sum(cy*r2) AS HUGEINT) AS s1,
             sum(CAST(cy AS HUGEINT)*r2*r2) AS s2
      FROM a),
nn AS (SELECT mm.n, mm.m, mm.n + mm.m AS nt,
              3*s.s2 - 2*CAST(mm.m AS HUGEINT)
                *(mm.n + mm.m + 1)*(2*(mm.n + mm.m) + 1) AS nu_u,
              3*s.s2 - 12*CAST(mm.n + mm.m + 1 AS HUGEINT)*s.s1
                + 12*CAST(mm.m AS HUGEINT)
                  *(mm.n + mm.m + 1)*(mm.n + mm.m + 1)
                - 2*CAST(mm.m AS HUGEINT)
                  *(mm.n + mm.m + 1)*(2*(mm.n + mm.m) + 1) AS nu_v
       FROM s, mm),
uv AS (SELECT n, m,
              CAST(nu_u AS DOUBLE)
              / (2.0*sqrt(CAST(m AS DOUBLE)*CAST(n AS DOUBLE)
                          *CAST(nt + 1 AS DOUBLE)
                          *CAST(2*nt + 1 AS DOUBLE)
                          *CAST(8*nt + 11 AS DOUBLE)/5.0)) AS u,
              CAST(nu_v AS DOUBLE)
              / (2.0*sqrt(CAST(m AS DOUBLE)*CAST(n AS DOUBLE)
                          *CAST(nt + 1 AS DOUBLE)
                          *CAST(2*nt + 1 AS DOUBLE)
                          *CAST(8*nt + 11 AS DOUBLE)/5.0)) AS v,
              2.0*CAST(nt*nt - 4 AS DOUBLE)
              / (CAST(2*nt + 1 AS DOUBLE)*CAST(8*nt + 11 AS DOUBLE))
                - 1.0 AS rho
       FROM nn WHERE n > 0 AND m > 0 AND nt >= 3)
SELECT n AS n_x, m AS n_y, round(u, 6) AS u_stat,
       round(v, 6) AS v_stat,
       round((u*u + v*v - 2.0*rho*u*v)/(2.0*(1.0 - rho*rho)), 6)
         AS c_stat
FROM uv
"""


def q_dagostino_k2(sf_dir):
    """★-checked D'Agostino–Pearson K² omnibus normality test per
    event type (stages/analytics.py): exact HUGEINT power sums
    S1..S4, mirrored D'Agostino-skew / Anscombe–Glynn-kurtosis
    transform ladder (ln/sqrt/cbrt) and K² = z₁² + z₂²."""
    from ..stages.analytics import dagostino_k2

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return round6(dagostino_k2(ev))


DAGOSTINO_SQL = """
WITH q AS (SELECT event_type,
                  CAST(round(value*100) AS BIGINT) AS k
           FROM events WHERE value IS NOT NULL),
s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(k) AS BIGINT) AS s1,
             CAST(sum(k*k) AS BIGINT) AS s2,
             sum(CAST(k AS HUGEINT)*k*k) AS s3,
             sum(CAST(k AS HUGEINT)*k*k*k) AS s4
      FROM q GROUP BY 1 HAVING count(*) >= 20),
mo AS (SELECT event_type, n, CAST(n AS DOUBLE) AS nf,
              CAST(s1 AS DOUBLE)/CAST(n AS DOUBLE) AS m1,
              CAST(s2 AS DOUBLE) AS f2, CAST(s3 AS DOUBLE) AS f3,
              CAST(s4 AS DOUBLE) AS f4
       FROM s),
ce AS (SELECT event_type, n, nf, m1,
              f2/nf - m1*m1 AS m2,
              f3/nf - 3.0*m1*(f2/nf) + 2.0*m1*m1*m1 AS m3,
              f4/nf - 4.0*m1*(f3/nf) + 6.0*m1*m1*(f2/nf)
                - 3.0*m1*m1*m1*m1 AS m4
       FROM mo),
gg AS (SELECT event_type, n, nf,
              m3/(m2*sqrt(m2)) AS g1, m4/(m2*m2) AS b2
       FROM ce WHERE m2 > 0.0),
sk AS (SELECT event_type, n, nf, g1, b2,
              g1*sqrt((nf + 1.0)*(nf + 3.0)/(6.0*(nf - 2.0))) AS y,
              -1.0 + sqrt(2.0*(3.0*(nf*nf + 27.0*nf - 70.0)
                               *(nf + 1.0)*(nf + 3.0)
                               /((nf - 2.0)*(nf + 5.0)*(nf + 7.0)
                                 *(nf + 9.0)) - 1.0)) AS w2
       FROM gg),
z1c AS (SELECT event_type, n, nf, g1, b2,
               (1.0/sqrt(0.5*ln(w2)))
               *ln(y/sqrt(2.0/(w2 - 1.0))
                   + sqrt((y/sqrt(2.0/(w2 - 1.0)))
                          *(y/sqrt(2.0/(w2 - 1.0))) + 1.0)) AS z1
        FROM sk),
ag AS (SELECT event_type, n, nf, g1, b2, z1,
              (b2 - 3.0*(nf - 1.0)/(nf + 1.0))
              /sqrt(24.0*nf*(nf - 2.0)*(nf - 3.0)
                    /((nf + 1.0)*(nf + 1.0)*(nf + 3.0)
                      *(nf + 5.0))) AS xk,
              6.0 + 8.0/(6.0*(nf*nf - 5.0*nf + 2.0)
                         /((nf + 7.0)*(nf + 9.0))
                         *sqrt(6.0*(nf + 3.0)*(nf + 5.0)
                               /(nf*(nf - 2.0)*(nf - 3.0))))
                *(2.0/(6.0*(nf*nf - 5.0*nf + 2.0)
                       /((nf + 7.0)*(nf + 9.0))
                       *sqrt(6.0*(nf + 3.0)*(nf + 5.0)
                             /(nf*(nf - 2.0)*(nf - 3.0))))
                  + sqrt(1.0 + 4.0
                         /((6.0*(nf*nf - 5.0*nf + 2.0)
                            /((nf + 7.0)*(nf + 9.0))
                            *sqrt(6.0*(nf + 3.0)*(nf + 5.0)
                                  /(nf*(nf - 2.0)*(nf - 3.0))))
                           *(6.0*(nf*nf - 5.0*nf + 2.0)
                             /((nf + 7.0)*(nf + 9.0))
                             *sqrt(6.0*(nf + 3.0)*(nf + 5.0)
                                   /(nf*(nf - 2.0)
                                     *(nf - 3.0))))))) AS aa
       FROM z1c),
z2c AS (SELECT event_type, n, g1, b2, z1,
               ((1.0 - 2.0/(9.0*aa))
                - cbrt((1.0 - 2.0/aa)
                       /(1.0 + xk*sqrt(2.0/(aa - 4.0)))))
               *sqrt(4.5*aa) AS z2
        FROM ag)
SELECT event_type, n, round(g1, 6) AS skew_g1,
       round(b2, 6) AS kurt_b2, round(z1, 6) AS z_skew,
       round(z2, 6) AS z_kurt,
       round(z1*z1 + z2*z2, 6) AS k2_stat
FROM z2c
"""


def q_cox_stuart(sf_dir):
    """★-checked Cox–Stuart per-key trend test
    (stages/analytics.py): first-half vs c-shifted pairs, exact
    integer sign counts, one continuity z closing."""
    from ..stages.analytics import cox_stuart

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    return round6(cox_stuart(ev))


COX_STUART_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x,
                  row_number() OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS r
           FROM events),
m AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
      FROM o GROUP BY 1),
p AS (SELECT a.user_id,
             CAST(sum(CASE WHEN b.x > a.x THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_plus,
             CAST(sum(CASE WHEN b.x < a.x THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_minus
      FROM o a JOIN m ON m.user_id = a.user_id
      JOIN o b ON b.user_id = a.user_id
              AND b.r = a.r + (m.n - m.n // 2)
      WHERE a.r <= m.n // 2
      GROUP BY 1)
SELECT m.user_id, m.n, p.n_plus, p.n_minus,
       round(CAST(2*p.n_plus - (p.n_plus + p.n_minus) AS DOUBLE)
             / sqrt(CAST(p.n_plus + p.n_minus AS DOUBLE)), 6)
         AS z_stat
FROM m JOIN p ON p.user_id = m.user_id
WHERE p.n_plus + p.n_minus > 0
"""


def q_ratio_beyond_sigma(sf_dir):
    """★-checked tsfresh-style ratio_beyond_r_sigma profile
    (stages/tsmath.py): per-key share of points beyond 1σ/2σ of the
    key's own mean via the all-integer (n·x−S)² > r²·(n·Q−S²) test;
    mirrored float shares only."""
    from ..stages.tsmath import ratio_beyond_sigma

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return round6(ratio_beyond_sigma(ev))


RATIO_SIGMA_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS x
           FROM events),
m AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(x) AS BIGINT) AS s,
             CAST(sum(x*x) AS BIGINT) AS q
      FROM o GROUP BY 1),
f AS (SELECT o.user_id,
             CAST(m.n*o.x - m.s AS HUGEINT) AS dev,
             CAST(m.n AS HUGEINT)*m.q
               - CAST(m.s AS HUGEINT)*m.s AS vn
      FROM o JOIN m USING (user_id)),
c AS (SELECT user_id,
             CAST(sum(CASE WHEN dev*dev > vn THEN 1 ELSE 0 END)
                  AS BIGINT) AS c1,
             CAST(sum(CASE WHEN dev*dev > 4*vn THEN 1 ELSE 0 END)
                  AS BIGINT) AS c2
      FROM f GROUP BY 1)
SELECT m.user_id, m.n, c.c1 AS n_beyond_1s, c.c2 AS n_beyond_2s,
       round(CAST(c.c1 AS DOUBLE)/CAST(m.n AS DOUBLE), 6)
         AS ratio_1s,
       round(CAST(c.c2 AS DOUBLE)/CAST(m.n AS DOUBLE), 6)
         AS ratio_2s
FROM m JOIN c USING (user_id)
"""


def q_reoccurrence_profile(sf_dir):
    """★-checked tsfresh reoccurrence quartet (stages/tsmath.py):
    per-key distinct count, values seen >1×, Σ reoccurring values
    once / per point — exact int64 over (key, k) histogram cells;
    mirrored shares only."""
    from ..stages.tsmath import reoccurrence_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return round6(reoccurrence_profile(ev))


REOCC_SQL = """
WITH o AS (SELECT user_id,
                  CAST(round(value*100) AS BIGINT) AS k
           FROM events),
g AS (SELECT user_id, k, CAST(count(*) AS BIGINT) AS c
      FROM o GROUP BY 1, 2),
r AS (SELECT user_id,
             CAST(sum(c) AS BIGINT) AS n,
             CAST(count(*) AS BIGINT) AS n_distinct,
             CAST(sum(CASE WHEN c > 1 THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_reocc_vals,
             CAST(sum(CASE WHEN c > 1 THEN k ELSE 0 END)
                  AS BIGINT) AS sum_reocc_vals,
             CAST(sum(CASE WHEN c > 1 THEN k*c ELSE 0 END)
                  AS BIGINT) AS sum_reocc_points,
             CAST(sum(CASE WHEN c > 1 THEN c ELSE 0 END)
                  AS BIGINT) AS n_reocc_points
      FROM g GROUP BY 1)
SELECT user_id, n, n_distinct, n_reocc_vals, sum_reocc_vals,
       sum_reocc_points,
       round(CAST(n_reocc_points AS DOUBLE)/CAST(n AS DOUBLE), 6)
         AS pct_reocc_points,
       round(CAST(n_distinct AS DOUBLE)/CAST(n AS DOUBLE), 6)
         AS distinct_ratio
FROM r
"""


def q_abs_max_profile(sf_dir):
    """★-checked tsfresh mean_n_absolute_max (stages/tsmath.py):
    per-key mean of the 5 largest |value|s; the top-k |k| multiset
    is order-unique so the integer sum is exact, one mirrored
    descaled closing."""
    from ..stages.tsmath import abs_max_profile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "value"])
    return round6(abs_max_profile(ev, top_n=5))


ABS_MAX_SQL = """
WITH o AS (SELECT user_id,
                  abs(CAST(round(value*100) AS BIGINT)) AS a
           FROM events),
rk AS (SELECT user_id, a,
              row_number() OVER (PARTITION BY user_id
                                 ORDER BY a DESC) AS r
       FROM o),
m AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
      FROM o GROUP BY 1),
t AS (SELECT user_id, CAST(sum(a) AS BIGINT) AS s
      FROM rk WHERE r <= 5 GROUP BY 1)
SELECT m.user_id, m.n, t.s AS top_abs_sum,
       round(CAST(t.s AS DOUBLE)/(100.0*least(m.n, 5)), 6)
         AS mean_abs_max
FROM m JOIN t USING (user_id)
"""


EXTRA_QUERIES = {
    "number_peaks": q_number_peaks,
    "chunk_trend": q_chunk_trend,
    "hodges_lehmann": q_hodges_lehmann,
    "ams_f2": q_ams_f2,
    "page_trend": q_page_trend,
    "diebold_mariano": q_diebold_mariano,
    "kmv_jaccard": q_kmv_jaccard,
    "rrf_fuse": q_rrf_fuse,
    "hbos_anomalies": q_hbos_anomalies,
    "conformal_interval": q_conformal_interval,
    "kuiper": q_kuiper,
    "wasserstein1": q_wasserstein1,
    "energy_distance": q_energy_distance,
    "lepage": q_lepage,
    "qte_profile": q_qte_profile,
    "yuen_trimmed": q_yuen_trimmed,
    "hill_tail": q_hill_tail,
    "rmst": q_rmst,
    "gehan": q_gehan,
    "cuped": q_cuped,
    "did": q_did,
    "sprt": q_sprt,
    "mutual_information": q_mutual_information,
    "peacock_ks2d": q_peacock_ks2d,
    "anderson_darling": q_anderson_darling,
    "two_proportion": q_two_proportion,
    "effect_sizes": q_effect_sizes,
    "risk_ratios": q_risk_ratios,
    "multi_regression": q_multi_regression,
    "cohen_kappa": q_cohen_kappa,
    "logrank": q_logrank,
    "lincoln_petersen": q_lincoln_petersen,
    "chao1": q_chao1,
    "brunner_munzel": q_brunner_munzel,
    "cucconi": q_cucconi,
    "dagostino_k2": q_dagostino_k2,
    "cox_stuart": q_cox_stuart,
    "ratio_beyond_sigma": q_ratio_beyond_sigma,
    "reoccurrence_profile": q_reoccurrence_profile,
    "abs_max_profile": q_abs_max_profile,
    "cvm_test": q_cvm_test,
    "ansari_bradley": q_ansari_bradley,
    "mood_scale": q_mood_scale,
    "cochran_q": q_cochran_q,
    "mcnemar": q_mcnemar,
    "sign_test": q_sign_test,
    "waiting_suppliers": q_waiting_suppliers,
    "dormant_balance": q_dormant_balance,
    "market_share": q_market_share,
    "product_profit": q_product_profit,
    "order_count_dist": q_order_count_dist,
    "small_qty_revenue": q_small_qty_revenue,
    "large_volume_orders": q_large_volume_orders,
    "complexity_profile": q_complexity_profile,
    "strike_profile": q_strike_profile,
    "index_mass_quantile": q_index_mass_quantile,
    "bartlett": q_bartlett,
    "friedman": q_friedman,
    "jonckheere": q_jonckheere,
    "weibull_gaps": q_weibull_gaps,
    "psd_profile": q_psd_profile,
    "extreme_locations": q_extreme_locations,
    "energy_chunks": q_energy_chunks,
    "binned_entropy": q_binned_entropy,
    "time_reversal": q_time_reversal,
    "c3_nonlinearity": q_c3_nonlinearity,
    "median_test": q_median_test,
    "top_supplier_revenue": q_top_supplier_revenue,
    "load_factor": q_load_factor,
    "banded_revenue": q_banded_revenue,
    "variogram": q_variogram,
    "late_fulfillment": q_late_fulfillment,
    "centroid_cosine": q_centroid_cosine,
    "trigram_entropy": q_trigram_entropy,
    "wilcoxon_shift": q_wilcoxon_shift,
    "nation_trade": q_nation_trade,
    "cramers_v": q_cramers_v,
    "levene_bf": q_levene_bf,
    "anova_f": q_anova_f,
    "returned_revenue": q_returned_revenue,
    "activity_corr_pairs": q_activity_corr_pairs,
    "kruskal_wallis": q_kruskal_wallis,
    "rank_compare": q_rank_compare,
    "monotone_runs": q_monotone_runs,
    "pareto_concentration": q_pareto_concentration,
    "vocab_richness": q_vocab_richness,
    "basket_lift": q_basket_lift,
    "heaps_law": q_heaps_law,
    "grubbs_stat": q_grubbs_stat,
    "rfm_segmentation": q_rfm_segmentation,
    "fractal_dims": q_fractal_dims,
    "page_hinkley": q_page_hinkley,
    "hjorth_params": q_hjorth_params,
    "teager_energy": q_teager_energy,
    "lmoments": q_lmoments,
    "df_histogram": q_df_histogram,
    "hour_runs": q_hour_runs,
    "revenue_leak": q_revenue_leak,
    "dim_variance": q_dim_variance,
    "rising_keys": q_rising_keys,
    "class_separation": q_class_separation,
    "count_acf": q_count_acf,
    "circadian_phase": q_circadian_phase,
    "gini_values": q_gini_values,
    "quartile_cv": q_quartile_cv,
    "daily_profile_drift": q_daily_profile_drift,
    "theil_index": q_theil_index,
    "haar_energy": q_haar_energy,
    "gumbel_maxima": q_gumbel_maxima,
    "day_streak": q_day_streak,
    "seasonal_power": q_seasonal_power,
    "keyness_terms": q_keyness_terms,
    "exp_gap_fit": q_exp_gap_fit,
    "promo_share": q_promo_share,
    "peak_rate": q_peak_rate,
    "markov_entropy": q_markov_entropy,
    "sample_entropy": q_sample_entropy,
    "burrows_delta": q_burrows_delta,
    "pacf": q_pacf,
    "durbin_watson": q_durbin_watson,
    "count_dispersion": q_count_dispersion,
    "burstiness": q_burstiness,
    "kendall_tau": q_kendall_tau,
    "mase_backtest": q_mase_backtest,
    "lexical_diversity": q_lexical_diversity,
    "pmi_collocations": q_pmi_collocations,
    "turning_points": q_turning_points,
    "ar1_fit": q_ar1_fit,
    "ljung_box": q_ljung_box,
    "trend_seasonal": q_trend_seasonal,
    "variance_ratio": q_variance_ratio,
    "xcorr_gap": q_xcorr_gap,
    "perm_entropy": q_perm_entropy,
    "hurst": q_hurst,
    "jarque_bera": q_jarque_bera,
    "welch_ttest": q_welch_ttest,
    "changepoint": q_changepoint,
    "bm25": q_bm25,
    "zorder_stats": q_zorder_stats,
    "kmv_distinct": q_kmv_distinct,
    "seasonal_anomaly": q_seasonal_anomaly,
    "cms_counts": q_cms_counts,
    "decayed_topk": q_decayed_topk,
    "transition_pmi": q_transition_pmi,
    "join_cardinality": q_join_cardinality,
    "similarity_join": q_similarity_join,
    "expectations": q_expectations,
    "union_evolve": q_union_evolve,
    "melt": q_melt,
    "weighted_sample_per_key": q_weighted_sample_per_key,
    "corr_matrix": q_corr_matrix,
    "minmax_scale": q_minmax_scale,
    "quantile_transform": q_quantile_transform,
    "target_encode": q_target_encode,
    "zscore_scale": q_zscore_scale,
    "one_hot": q_one_hot,
    "stream_digest": q_stream_digest,
    "window_finalize": q_window_finalize,
    "upsert": q_upsert,
    "weighted_sample": q_weighted_sample,
    "inverted_index": q_inverted_index,
    "pagerank": q_pagerank,
    "kmeans": q_kmeans,
    "pca": q_pca,
    "lm_score": q_lm_score,
    "type_entropy": q_type_entropy,
    "rolling_median": q_rolling_median,
    "local_supplier_volume": q_local_supplier_volume,
    "tfidf_terms": q_tfidf_terms,
    "acf": q_acf,
    "max_drawdown": q_max_drawdown,
    "longest_streak": q_longest_streak,
    "burst_detect": q_burst_detect,
    "corpus_stats": q_corpus_stats,
    "decontaminate": q_decontaminate,
    "vocab_topk": q_vocab_topk,
    "pack_sequences": q_pack_sequences,
    "wav_features": q_wav_features,
    "image_features": q_image_features,
    "png_decode": q_png_decode,
    "counter_rate": q_counter_rate,
    "minmax_downsample": q_minmax_downsample,
    "ohlc_1h": q_ohlc_1h,
    "twa_1d": q_twa_1d,
    "zscore_anomalies": q_zscore_anomalies,
    "diurnal_profile": q_diurnal_profile,
    "trend_corr": q_trend_corr,
    "heavy_hitters": q_heavy_hitters,
    "bloom_semi_join": q_bloom_semi_join,
    "interval_merge": q_interval_merge,
    "topk_per_day": q_topk_per_day,
    "hll_distinct": q_hll_distinct,
    "cohort_retention": q_cohort_retention,
    "funnel": q_funnel,
    "irate": q_irate,
    "ewma": q_ewma,
    "daily_active": q_daily_active,
    "value_percent_rank": q_value_percent_rank,
    "global_topn": q_global_topn,
    "anti_join_cold": q_anti_join_cold,
    "user_profile": q_user_profile,
    "value_histogram": q_value_histogram,
    "tokenize_vocab": q_tokenize_vocab,
    "rolling_avg": q_rolling_avg,
    "mode_event": q_mode_event,
    "topk_per_user": q_topk_per_user,
    "grouping_sets": q_grouping_sets,
    "cooccurrence": q_cooccurrence,
    "transitions": q_transitions,
    "user_growth": q_user_growth,
    "gap_report": q_gap_report,
    "interarrival": q_interarrival,
    "interarrival_scan": q_interarrival_scan,
    "global_quantiles": q_global_quantiles,
    "features_stetson": q_features_stetson,
    "shipping_priority": q_shipping_priority,
    "dataset_diff": q_dataset_diff,
    "decile_stats": q_decile_stats,
    "session_stats": q_session_stats,
    "run_stats": q_run_stats,
    "scd2_history": q_scd2_history,
    "attribution": q_attribution,
    "mmr_rerank": q_mmr_rerank,
    "theilsen_trend": q_theilsen_trend,
    "mann_kendall": q_mann_kendall,
    "gini_activity": q_gini_activity,
    "psi_drift": q_psi_drift,
    "trimmed_mean": q_trimmed_mean,
    "record_highs": q_record_highs,
    "k_anonymity": q_k_anonymity,
    "robust_anomalies": q_robust_anomalies,
    "readability": q_readability,
    "kaplan_meier": q_kaplan_meier,
    "zipf_exponent": q_zipf_exponent,
    "chi_square": q_chi_square,
    "spearman_trend": q_spearman_trend,
    "cusum_alarms": q_cusum_alarms,
    "auc_score": q_auc_score,
    "textrank": q_textrank,
    "benford": q_benford,
    "ks_drift": q_ks_drift,
    "bootstrap_ci": q_bootstrap_ci,
    "runs_test": q_runs_test,
    "session_overlap": q_session_overlap,
    "time_since": q_time_since,
    "cooldown_dedup": q_cooldown_dedup,
    "daily_share": q_daily_share,
    "seq_pattern": q_seq_pattern,
    "lttb": q_lttb,
    "linear_trend": q_linear_trend,
    "weighted_quantiles": q_weighted_quantiles,
    "canon_dedup": q_canon_dedup,
    "interval_join": q_interval_join,
    "lateness": q_lateness,
    "table_profile": q_table_profile,
    "sliding_dau": q_sliding_dau,
    "edit1_pairs": q_edit1_pairs,
    "rolling_std": q_rolling_std,
    "dwell_time": q_dwell_time,
    "weekly_profile": q_weekly_profile,
    "type_variety": q_type_variety,
    "redact_props": q_redact_props,
    "chunk_docs": q_chunk_docs,
    "repetition_scores": q_repetition_scores,
    "props_extract": q_props_extract,
    "curate_docs": q_curate_docs,
    "dup_clusters": q_dup_clusters,
    "features_general": q_features_general,
    "features_stats": q_features_stats,
    "features_lomb_scargle": q_features_lomb_scargle,
    "codec_chunks": q_codec_chunks,
    "knn_cosine": q_knn_cosine,
    "jaccard_topk": q_jaccard_topk,
    "quality_scores": q_quality_scores,
    "minhash_pairs": q_minhash_pairs,
    "minhash_exact_pairs": q_minhash_exact_pairs,
    "substring_dups": q_substring_dups,
    "simhash_fingerprint": q_simhash_fingerprint,
    "impute_features": q_impute_features,
    "knn_lsh": q_knn_lsh,
    "knn_ivf": q_knn_ivf,
    "multimodal_features": q_multimodal_features,
    "jpeg_roundtrip": q_jpeg_roundtrip,
    "gif_frames": q_gif_frames,
    "mp3_features": q_mp3_features,
    "embedding_near_dup": q_embedding_near_dup,
}

EXTRA_ORACLE_SQL = {
    "number_peaks": NUMBER_PEAKS_SQL,
    "chunk_trend": CHUNK_TREND_SQL,
    "hodges_lehmann": HODGES_LEHMANN_SQL,
    "ams_f2": _ams_sql(),
    "page_trend": PAGE_TREND_SQL,
    "diebold_mariano": DIEBOLD_MARIANO_SQL,
    "kmv_jaccard": KMV_JACCARD_SQL,
    "rrf_fuse": RRF_SQL,
    "hbos_anomalies": HBOS_SQL,
    "conformal_interval": CONFORMAL_SQL,
    "kuiper": KUIPER_SQL,
    "wasserstein1": WASSERSTEIN_SQL,
    "energy_distance": ENERGY_DIST_SQL,
    "lepage": LEPAGE_SQL,
    "qte_profile": QTE_SQL,
    "yuen_trimmed": YUEN_SQL,
    "hill_tail": HILL_SQL,
    "rmst": RMST_SQL,
    "gehan": GEHAN_SQL,
    "cuped": CUPED_SQL,
    "did": DID_SQL,
    "sprt": _sprt_sql(),
    "mutual_information": MI_SQL,
    "peacock_ks2d": PEACOCK_SQL,
    "anderson_darling": AD2_SQL,
    "two_proportion": TWO_PROP_SQL,
    "effect_sizes": EFFECT_SIZES_SQL,
    "risk_ratios": RISK_RATIOS_SQL,
    "multi_regression": MULTI_REG_SQL,
    "cohen_kappa": _cohen_kappa_sql(),
    "logrank": LOGRANK_SQL,
    "lincoln_petersen": LINCOLN_SQL,
    "chao1": CHAO1_SQL,
    "brunner_munzel": BRUNNER_MUNZEL_SQL,
    "cucconi": CUCCONI_SQL,
    "dagostino_k2": DAGOSTINO_SQL,
    "cox_stuart": COX_STUART_SQL,
    "ratio_beyond_sigma": RATIO_SIGMA_SQL,
    "reoccurrence_profile": REOCC_SQL,
    "abs_max_profile": ABS_MAX_SQL,
    "psd_profile": PSD_PROFILE_SQL,
    "extreme_locations": EXTREME_LOC_SQL,
    "weibull_gaps": WEIBULL_GAPS_SQL,
    "bartlett": BARTLETT_SQL,
    "friedman": FRIEDMAN_SQL,
    "jonckheere": JONCKHEERE_SQL,
    "complexity_profile": COMPLEXITY_SQL,
    "strike_profile": STRIKE_SQL,
    "index_mass_quantile": IMQ_SQL,
    "cvm_test": CVM_SQL,
    "ansari_bradley": ANSARI_SQL,
    "mood_scale": MOOD_SCALE_SQL,
    "cochran_q": COCHRAN_Q_SQL,
    "mcnemar": MCNEMAR_SQL,
    "sign_test": SIGN_TEST_SQL,
    "waiting_suppliers": WAITING_SUPPLIERS_SQL,
    "dormant_balance": DORMANT_BALANCE_SQL,
    "market_share": MARKET_SHARE_SQL,
    "product_profit": PRODUCT_PROFIT_SQL,
    "order_count_dist": ORDER_COUNT_DIST_SQL,
    "small_qty_revenue": SMALL_QTY_SQL,
    "large_volume_orders": LARGE_VOLUME_SQL,
    "energy_chunks": ENERGY_CHUNKS_SQL,
    "binned_entropy": BINNED_ENTROPY_SQL,
    "time_reversal": TIME_REVERSAL_SQL,
    "c3_nonlinearity": C3_SQL,
    "median_test": MEDIAN_TEST_SQL,
    "top_supplier_revenue": TOP_SUPPLIER_SQL,
    "load_factor": LOAD_FACTOR_SQL,
    "banded_revenue": BANDED_REVENUE_SQL,
    "variogram": VARIOGRAM_SQL,
    "late_fulfillment": LATE_FULFILLMENT_SQL,
    "centroid_cosine": CENTROID_COSINE_SQL,
    "trigram_entropy": TRIGRAM_ENTROPY_SQL,
    "wilcoxon_shift": WILCOXON_SQL,
    "nation_trade": NATION_TRADE_SQL,
    "cramers_v": CRAMERS_V_SQL,
    "levene_bf": LEVENE_SQL,
    "anova_f": ANOVA_SQL,
    "returned_revenue": RETURNED_REVENUE_SQL,
    "activity_corr_pairs": ACTIVITY_CORR_SQL,
    "kruskal_wallis": KRUSKAL_SQL,
    "rank_compare": RANK_COMPARE_SQL,
    "monotone_runs": MONOTONE_RUNS_SQL,
    "pareto_concentration": PARETO_SQL,
    "vocab_richness": VOCAB_RICHNESS_SQL,
    "basket_lift": BASKET_LIFT_SQL,
    "heaps_law": HEAPS_SQL,
    "grubbs_stat": GRUBBS_SQL,
    "rfm_segmentation": RFM_SQL,
    "fractal_dims": FRACTAL_SQL,
    "page_hinkley": PAGE_HINKLEY_SQL,
    "hjorth_params": HJORTH_SQL,
    "teager_energy": TEAGER_SQL,
    "lmoments": LMOMENTS_SQL,
    "df_histogram": DF_HISTOGRAM_SQL,
    "hour_runs": HOUR_RUNS_SQL,
    "revenue_leak": REVENUE_LEAK_SQL,
    "dim_variance": DIM_VARIANCE_SQL,
    "rising_keys": RISING_KEYS_SQL,
    "class_separation": CLASS_SEPARATION_SQL,
    "count_acf": COUNT_ACF_SQL,
    "circadian_phase": CIRCADIAN_SQL,
    "gini_values": GINI_VALUES_SQL,
    "quartile_cv": QUARTILE_CV_SQL,
    "daily_profile_drift": DAILY_PROFILE_DRIFT_SQL,
    "theil_index": THEIL_SQL,
    "haar_energy": HAAR_SQL,
    "gumbel_maxima": GUMBEL_SQL,
    "day_streak": DAY_STREAK_SQL,
    "seasonal_power": SEASONAL_POWER_SQL,
    "keyness_terms": KEYNESS_SQL,
    "exp_gap_fit": EXP_GAP_FIT_SQL,
    "promo_share": PROMO_SHARE_SQL,
    "peak_rate": PEAK_RATE_SQL,
    "markov_entropy": MARKOV_ENTROPY_SQL,
    "sample_entropy": SAMPLE_ENTROPY_SQL,
    "burrows_delta": BURROWS_DELTA_SQL,
    "pacf": PACF_SQL,
    "durbin_watson": DURBIN_WATSON_SQL,
    "count_dispersion": COUNT_DISPERSION_SQL,
    "burstiness": BURSTINESS_SQL,
    "kendall_tau": KENDALL_TAU_SQL,
    "mase_backtest": MASE_SQL,
    "lexical_diversity": LEXICAL_DIVERSITY_SQL,
    "pmi_collocations": PMI_COLLOCATIONS_SQL,
    "turning_points": TURNING_POINTS_SQL,
    "ar1_fit": AR1_FIT_SQL,
    "ljung_box": LJUNG_BOX_SQL,
    "trend_seasonal": TREND_SEASONAL_SQL,
    "variance_ratio": VARIANCE_RATIO_SQL,
    "xcorr_gap": XCORR_GAP_SQL,
    "perm_entropy": PERM_ENTROPY_SQL,
    "hurst": HURST_SQL,
    "jarque_bera": JARQUE_BERA_SQL,
    "welch_ttest": WELCH_TTEST_SQL,
    "simhash_fingerprint": _simhash_sql(),
    "minhash_pairs": _minhash_pairs_sql(),
    "multimodal_features": _multimodal_sql(),
    "jpeg_roundtrip": _jpeg_sql(),
    "gif_frames": _gif_sql(),
    "mp3_features": _mp3_sql(),
    "changepoint": CHANGEPOINT_SQL,
    "weighted_sample": WEIGHTED_SAMPLE_SQL,
    "inverted_index": INVERTED_INDEX_SQL,
    "pagerank": PAGERANK_SQL,
    "bm25": BM25_SQL,
    "zorder_stats": ZORDER_SQL,
    "kmv_distinct": KMV_SQL,
    "seasonal_anomaly": SEASONAL_ANOMALY_SQL,
    "cms_counts": CMS_SQL,
    "decayed_topk": DECAYED_SQL,
    "transition_pmi": PMI_SQL,
    "join_cardinality": JOIN_CARD_SQL,
    "similarity_join": SIM_JOIN_SQL,
    "expectations": EXPECTATIONS_SQL,
    "union_evolve": UNION_EVOLVE_SQL,
    "melt": MELT_SQL,
    "weighted_sample_per_key": WEIGHTED_PER_KEY_SQL,
    "corr_matrix": CORR_MATRIX_SQL,
    "minmax_scale": MINMAX_SCALE_SQL,
    "quantile_transform": QUANTILE_TRANSFORM_SQL,
    "target_encode": TARGET_ENCODE_SQL,
    "zscore_scale": ZSCORE_SCALE_SQL,
    "one_hot": ONE_HOT_SQL,
    "stream_digest": STREAM_DIGEST_SQL,
    "window_finalize": WINDOW_FINALIZE_SQL,
    "upsert": UPSERT_SQL,
    "lm_score": LM_SCORE_SQL,
    "type_entropy": TYPE_ENTROPY_SQL,
    "rolling_median": ROLLING_MEDIAN_SQL,
    "local_supplier_volume": Q5_SQL,
    "tfidf_terms": TFIDF_SQL,
    "acf": ACF_SQL,
    "max_drawdown": MAX_DRAWDOWN_SQL,
    "longest_streak": LONGEST_STREAK_SQL,
    "burst_detect": BURST_DETECT_SQL,
    "corpus_stats": CORPUS_STATS_SQL,
    "decontaminate": DECONTAM_SQL,
    "vocab_topk": VOCAB_SQL,
    "pack_sequences": PACK_SQL,
    "wav_features": WAV_SQL,
    "image_features": IMAGE_SQL,
    "png_decode": IMAGE_SQL,
    "counter_rate": COUNTER_RATE_SQL,
    "minmax_downsample": MINMAX_SQL,
    "ohlc_1h": OHLC_SQL,
    "twa_1d": TWA_SQL,
    "zscore_anomalies": ZSCORE_SQL,
    "diurnal_profile": DIURNAL_SQL,
    "trend_corr": TREND_CORR_SQL,
    "heavy_hitters": HEAVY_SQL,
    "bloom_semi_join": BLOOM_SEMI_SQL,
    "interval_merge": INTERVAL_MERGE_SQL,
    "topk_per_day": TOPK_WINDOW_SQL,
    "cohort_retention": COHORT_SQL,
    "funnel": FUNNEL_SQL,
    "irate": IRATE_SQL,
    "daily_active": DAILY_ACTIVE_SQL,
    "value_percent_rank": PERCENT_RANK_SQL,
    "global_topn": GLOBAL_TOPN_SQL,
    "anti_join_cold": ANTI_JOIN_SQL,
    "user_profile": USER_PROFILE_SQL,
    "value_histogram": VALUE_HIST_SQL,
    "tokenize_vocab": TOKENIZE_SQL,
    "rolling_avg": ROLLING_SQL,
    "mode_event": MODE_SQL,
    "topk_per_user": TOPK_GROUP_SQL,
    "grouping_sets": GROUPING_SETS_SQL,
    "cooccurrence": COOCCUR_SQL,
    "transitions": TRANSITIONS_SQL,
    "user_growth": USER_GROWTH_SQL,
    "gap_report": GAP_REPORT_SQL,
    "interarrival": INTERARRIVAL_SQL,
    "interarrival_scan": INTERARRIVAL_SQL,
    "global_quantiles": GLOBAL_QUANTILES_SQL,
    "features_stetson": FEATURES_STETSON_SQL,
    "shipping_priority": SHIPPING_SQL,
    "dataset_diff": DATASET_DIFF_SQL,
    "decile_stats": DECILE_SQL,
    "session_stats": SESSION_STATS_SQL,
    "ewma": EWMA_SQL,
    "run_stats": RUN_STATS_SQL,
    "scd2_history": SCD2_SQL,
    "attribution": ATTRIBUTION_SQL,
    "mmr_rerank": MMR_SQL,
    "theilsen_trend": THEILSEN_SQL,
    "mann_kendall": MANN_KENDALL_SQL,
    "gini_activity": GINI_SQL,
    "psi_drift": _psi_sql(),
    "trimmed_mean": TRIMMED_MEAN_SQL,
    "record_highs": RECORD_HIGHS_SQL,
    "k_anonymity": K_ANON_SQL,
    "robust_anomalies": ROBUST_ANOM_SQL,
    "readability": READABILITY_SQL,
    "kaplan_meier": KAPLAN_MEIER_SQL,
    "zipf_exponent": ZIPF_SQL,
    "chi_square": CHI_SQUARE_SQL,
    "spearman_trend": SPEARMAN_SQL,
    "cusum_alarms": CUSUM_SQL,
    "auc_score": AUC_SQL,
    "textrank": _textrank_sql(),
    "benford": BENFORD_SQL,
    "ks_drift": KS_DRIFT_SQL,
    "bootstrap_ci": _bootstrap_sql(),
    "runs_test": RUNS_TEST_SQL,
    "session_overlap": SESSION_OVERLAP_SQL,
    "time_since": TIME_SINCE_SQL,
    "cooldown_dedup": COOLDOWN_SQL,
    "daily_share": DAILY_SHARE_SQL,
    "seq_pattern": SEQ_PATTERN_SQL,
    "lttb": LTTB_SQL,
    "linear_trend": LINEAR_TREND_SQL,
    "weighted_quantiles": WEIGHTED_Q_SQL,
    "canon_dedup": CANON_DEDUP_SQL,
    "interval_join": INTERVAL_JOIN_SQL,
    "lateness": LATENESS_SQL,
    "table_profile": TABLE_PROFILE_SQL,
    "sliding_dau": SLIDING_DAU_SQL,
    "edit1_pairs": EDIT1_SQL,
    "rolling_std": ROLLING_STD_SQL,
    "dwell_time": DWELL_SQL,
    "weekly_profile": WEEKLY_SQL,
    "type_variety": TYPE_VARIETY_SQL,
    "redact_props": REDACT_SQL,
    "chunk_docs": CHUNK_SQL,
    "repetition_scores": REPETITION_SQL,
    "props_extract": PROPS_SQL,
    "curate_docs": _curate_sql(),
    "dup_clusters": DUP_CLUSTERS_SQL,
    "features_stats": FEATURES_STATS_SQL,
    "features_general": FEATURES_GENERAL_SQL,
    "hll_distinct": _hll_sql(),
    "codec_chunks": CODEC_SQL,
    "knn_cosine": KNN_SQL,
    "jaccard_topk": JACCARD_SQL,
    "minhash_exact_pairs": MINHASH_EXACT_SQL,
    "substring_dups": SUBSTRING_SQL,
    "quality_scores": QUALITY_SQL,
    "impute_features": IMPUTE_SQL,
    "embedding_near_dup": EMB_NEAR_DUP_SQL,
}
