"""Driver-conformance queries over /root/testdata (SURVEY.md §5.2.3).

Each ``q*`` function takes ``sf_dir`` and returns a result whose column
names AND values match the DuckDB oracle SQL in ``ORACLE_SQL`` (driver
compares row-count + schema + order-insensitive value-hash at sf0.01).

Float columns are rounded to 6 decimals on BOTH sides with identical
half-away-from-zero semantics (DuckDB ROUND).  Rounding alone is NOT
enough: testdata values are decimal-quantized (value = k/100,
latency = k_µs/1e6), so true means/sums frequently land EXACTLY on a
.5·1e-6 rounding boundary where a 1-ulp summation-order difference
flips the rounded digit (the round-1 hash failures).  Therefore every
float column here is computed so the pre-round doubles are
bit-identical on both sides:

  * sums/means — exact int64 arithmetic on round(v·scale) (engine)
    vs sum(CAST(round(v*scale) AS BIGINT)) (SQL), then identical
    float divisions;
  * quantiles/median/mad — the shared ``duck_quantile`` lerp,
    verified bit-equal to DuckDB quantile_cont/mad;
  * min/max/ratios — identical primitive ops on identical inputs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..oracle.gapfill import gapfill_pandas
from ..oracle.rollup import duck_quantile, rollup_pandas
from ..schema import EVENT_ID, EVENT_TYPE, TS, USER_ID, VALUE
from ..stages.partition import group_apply, partition_count

EVENT_COLS = [EVENT_ID, TS, USER_ID, EVENT_TYPE, VALUE, "props"]

# events.value is generated with exactly 2 decimals (verified against
# /root/testdata: round(v·100) is integer for every row) → exact int64
# sums at scale 100; derived latencies are integer-µs / 1e6 → scale 1e6
VALUE_SCALE = 100
LATENCY_SCALE = 1_000_000

# SQL fragment: exact mean/sum of a 1/scale-quantized double column —
# the int64 sum is order-independent, the float ops mirror the engine
def _exact_sum_sql(col: str, scale: int) -> str:
    return (f"CAST(sum(CAST(round({col}*{scale}) AS BIGINT)) AS DOUBLE)"
            f"/{scale}.0")


def round6(df: pd.DataFrame, cols=None) -> pd.DataFrame:
    """Half-away-from-zero round to 6 decimals (matches DuckDB ROUND)."""
    if cols is None:
        cols = [c for c in df.columns if df[c].dtype == np.float64]
    for c in cols:
        v = df[c].to_numpy(dtype=np.float64)
        with np.errstate(invalid="ignore"):
            r = np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6
        df[c] = np.where(np.isnan(v), np.nan, r)
    return df


def _events(sf_dir: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=columns or EVENT_COLS)


def _event_points(sf_dir: str) -> ray.data.Dataset:
    """events → points keyed by user_id with channel 'value'."""

    def to_points(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "channel": pa.array(["value"] * len(b), pa.string()),
                "ts": b["ts"],
                "value": b["value"],
                "event_id": b["event_id"],
            }
        )

    return _events(sf_dir, ["event_id", "ts", "user_id", "value"]).map_batches(
        to_points, batch_format="pyarrow"
    )


# ------------------------------------------------------------ rollups
def _rollup_events(sf_dir: str, tier: str) -> pd.DataFrame:
    pts = _event_points(sf_dir)
    out = group_apply(
        pts,
        lambda df: rollup_pandas(
            df, tier, keys=("user_id", "channel"), value_scale=VALUE_SCALE
        ),
        key="user_id",
        salt_tier_s={"1m": 60, "1h": 3600, "1d": 86400}[tier],
    ).to_pandas()
    out = out.drop(columns=["channel"])
    return round6(out)


def q_rollup_1m(sf_dir):
    return _rollup_events(sf_dir, "1m")


def q_rollup_1h(sf_dir):
    return _rollup_events(sf_dir, "1h")


def q_rollup_1d(sf_dir):
    return _rollup_events(sf_dir, "1d")


def _ROLLUP_SQL(unit: str) -> str:
    s = _exact_sum_sql("value", VALUE_SCALE)
    return f"""
    SELECT user_id, date_trunc('{unit}', ts) AS bucket,
           count(value) AS cnt,
           count(*) - count(value) AS count_null,
           round({s}, 6) AS vsum,
           round({s}/count(value), 6) AS vmean,
           round(min(value), 6) AS vmin,
           round(max(value), 6) AS vmax,
           round(quantile_cont(value, 0.5), 6) AS p50,
           round(quantile_cont(value, 0.99), 6) AS p99
    FROM events GROUP BY 1, 2
    """


# -------------------------------------------- inter-event latency rollup
def q_latency_rollup_1h(sf_dir):
    """Per-user inter-event latency (analogue of turn_latency: Δts
    seconds ordered by (ts, event_id); null for the first event),
    rolled up hourly with exact quantiles."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = df["ts"].to_numpy("datetime64[us]").astype("int64")
        uid = df["user_id"].to_numpy()
        lat = np.empty(len(df))
        lat[0] = np.nan
        lat[1:] = (ts_us[1:] - ts_us[:-1]) / 1e6
        lat[np.r_[True, uid[1:] != uid[:-1]]] = np.nan
        pts = pd.DataFrame(
            {"user_id": uid, "channel": "lat", "ts": df["ts"].to_numpy(), "value": lat}
        )
        return rollup_pandas(
            pts, "1h", keys=("user_id", "channel"), value_scale=LATENCY_SCALE
        )

    out = group_apply(
        _events(sf_dir, ["event_id", "ts", "user_id"]),
        fn,
        key="user_id",
    ).to_pandas()
    return round6(out.drop(columns=["channel"]))


LATENCY_SQL = f"""
WITH lat AS (
  SELECT user_id, date_trunc('hour', ts) AS bucket,
         CASE WHEN lag(ts) OVER w IS NULL THEN NULL
              ELSE date_diff('microsecond', lag(ts) OVER w, ts) / 1000000.0 END AS v
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id, bucket,
       count(v) AS cnt, count(*) - count(v) AS count_null,
       round({_exact_sum_sql('v', LATENCY_SCALE)}, 6) AS vsum,
       round({_exact_sum_sql('v', LATENCY_SCALE)}/count(v), 6) AS vmean,
       round(min(v), 6) AS vmin, round(max(v), 6) AS vmax,
       round(quantile_cont(v, 0.5), 6) AS p50,
       round(quantile_cont(v, 0.99), 6) AS p99
FROM lat GROUP BY 1, 2
"""


# ------------------------------------------------------ cadence stats
def q_cadence_stats(sf_dir):
    """Per-user cadence statistics C1/C3 over event times."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = df["ts"].to_numpy("datetime64[us]").astype("int64")
        uid = df["user_id"].to_numpy()
        rows = []
        for u in pd.unique(uid):
            sel = uid == u
            tt = ts_us[sel]
            # diff in integer µs FIRST, then convert — bit-identical to
            # the SQL (epoch_us − lag(epoch_us)) / 1e6
            k = np.diff(tt)  # int64 µs gaps
            c = k / 1e6
            n_c = len(k)
            if n_c:
                s1 = int(k.sum())
                s2 = int((k.astype(object) ** 2).sum())  # exact (k² can pass int64)
                mean_term = float(s1) / n_c / 1e6
                var = float(s2) / n_c / 1e12 - mean_term * mean_term
                cads_avg = float(s1) / 1e6 / n_c
                cads_med = duck_quantile(np.sort(c), 0.5)
                cads_std = np.sqrt(max(var, 0.0))
            else:
                cads_avg = cads_med = cads_std = np.nan
            rows.append(
                {
                    "user_id": u,
                    "n_epochs": np.int64(len(tt)),
                    "total_time": (tt[-1] - tt[0]) / 1e6,
                    "cads_avg": cads_avg,
                    "cads_med": cads_med,
                    "cads_std": cads_std,
                }
            )
        return pd.DataFrame(rows)

    out = group_apply(
        _events(sf_dir, ["event_id", "ts", "user_id"]), fn, key="user_id"
    ).to_pandas()
    return round6(out)


# cads_std: exact-moment formula (Σk²·exact, Σk·exact in µs ints) so
# the pre-round double is bit-identical to the engine's — stddev_pop's
# internal accumulation order would not be
CADENCE_SQL = """
WITH d AS (
  SELECT user_id, ts AS ts_raw,
         epoch_us(ts) - lag(epoch_us(ts)) OVER w AS cad_us,
         (epoch_us(ts) - lag(epoch_us(ts)) OVER w) / 1000000.0 AS cad
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id, count(*) AS n_epochs,
       round((max(epoch_us(ts_raw)) - min(epoch_us(ts_raw))) / 1000000.0, 6) AS total_time,
       round(CAST(sum(cad_us) AS DOUBLE) / 1000000.0 / count(cad_us), 6) AS cads_avg,
       round(quantile_cont(cad, 0.5), 6) AS cads_med,
       round(sqrt(greatest(
           CAST(sum(CAST(cad_us AS HUGEINT) * cad_us) AS DOUBLE)
             / count(cad_us) / 1000000000000.0
           - (CAST(sum(cad_us) AS DOUBLE) / count(cad_us) / 1000000.0)
             * (CAST(sum(cad_us) AS DOUBLE) / count(cad_us) / 1000000.0),
           0.0)), 6) AS cads_std
FROM d GROUP BY 1
"""


# ----------------------------------------------------- common features
def q_amplitude_stats(sf_dir):
    """Per-user amplitude / percentile features (A1/A6/A8/A11-subset)
    over ``value``."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for u, grp in df.groupby("user_id", sort=False):
            v = grp["value"].to_numpy(dtype=np.float64)
            s = np.sort(v)
            p5, p25, p40, p50, p60, p75, p95 = (
                duck_quantile(s, p) for p in (0.05, 0.25, 0.4, 0.5, 0.6, 0.75, 0.95)
            )
            ksum = int(np.round(v * VALUE_SCALE).astype(np.int64).sum())
            rows.append(
                {
                    "user_id": u,
                    "vmean": float(ksum) / VALUE_SCALE / len(v),
                    "vmedian": p50,
                    "amplitude": (v.max() - v.min()) / 2,
                    # DuckDB mad() ≡ quantile_cont(|v − median|, .5)
                    "mad": duck_quantile(np.sort(np.abs(v - p50)), 0.5),
                    "fpr_mid20": (p60 - p40) / (p95 - p5),
                    "fpr_mid50": (p75 - p25) / (p95 - p5),
                }
            )
        return pd.DataFrame(rows)

    out = group_apply(
        _events(sf_dir, ["user_id", "value"]), fn, key="user_id"
    ).to_pandas()
    return round6(out)


AMPLITUDE_SQL = f"""
SELECT user_id,
       round({_exact_sum_sql('value', VALUE_SCALE)}/count(value), 6) AS vmean,
       round(quantile_cont(value, 0.5), 6) AS vmedian,
       round((max(value) - min(value)) / 2, 6) AS amplitude,
       round(mad(value), 6) AS mad,
       round((quantile_cont(value, 0.6) - quantile_cont(value, 0.4))
             / (quantile_cont(value, 0.95) - quantile_cont(value, 0.05)), 6) AS fpr_mid20,
       round((quantile_cont(value, 0.75) - quantile_cont(value, 0.25))
             / (quantile_cont(value, 0.95) - quantile_cont(value, 0.05)), 6) AS fpr_mid50
FROM events GROUP BY 1
"""


def q_max_slope(sf_dir):
    """Per-user max |Δvalue/Δt| (A13) ordered by (ts, event_id)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = df["ts"].to_numpy("datetime64[us]").astype("int64")
        v = df["value"].to_numpy(dtype=np.float64)
        uid = df["user_id"].to_numpy()
        dt = np.diff(ts_us) / 1e6  # integer µs diff first (matches SQL)
        dv = np.abs(np.diff(v))
        same = uid[1:] == uid[:-1]
        ok = same & (dt > 0)
        slopes = pd.DataFrame({"user_id": uid[1:][ok], "s": dv[ok] / dt[ok]})
        return slopes.groupby("user_id", as_index=False)["s"].max().rename(
            columns={"s": "max_slope"}
        )

    out = group_apply(
        _events(sf_dir, ["event_id", "ts", "user_id", "value"]),
        fn, key="user_id",
    ).to_pandas()
    return round6(out)


MAX_SLOPE_SQL = """
WITH d AS (
  SELECT user_id,
         abs(value - lag(value) OVER w)
           / ((epoch_us(ts) - lag(epoch_us(ts)) OVER w) / 1000000.0) AS slope,
         epoch_us(ts) - lag(epoch_us(ts)) OVER w AS dt
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id, round(max(slope), 6) AS max_slope
FROM d WHERE dt > 0 GROUP BY 1
"""


# --------------------------------------------------- top-k / semi-join
def q_top_users(sf_dir):
    """Hot-key detection A18: top 10 users by event count."""
    out = (
        _events(sf_dir, ["user_id"])
        .groupby("user_id")
        .count()
        .rename_columns({"count()": "cnt"})
        .sort(["cnt", "user_id"], descending=[True, False])
        .limit(10)
        .to_pandas()
    )
    return out


TOP_USERS_SQL = """
SELECT user_id, count(*) AS cnt FROM events
GROUP BY 1 ORDER BY cnt DESC, user_id LIMIT 10
"""


def q_semi_join_hot(sf_dir):
    """Semi-join via broadcast key set (J1 derivative): per-type event
    counts restricted to the 5 hottest users."""
    top = set(q_top_users(sf_dir).head(5)["user_id"].tolist())
    ref = ray.put(top)

    def filt(b: pa.Table) -> pa.Table:
        keys = ray.get(ref)
        mask = pc.is_in(b["user_id"], value_set=pa.array(list(keys), pa.int64()))
        return b.filter(mask)

    return (
        _events(sf_dir, ["user_id", "event_type"])
        .map_batches(filt, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .count()
        .rename_columns({"count()": "cnt"})
        .to_pandas()
    )


SEMI_JOIN_SQL = """
WITH top5 AS (
  SELECT user_id FROM events GROUP BY 1
  ORDER BY count(*) DESC, user_id LIMIT 5
)
SELECT user_id, event_type, count(*) AS cnt
FROM events WHERE user_id IN (SELECT user_id FROM top5)
GROUP BY 1, 2
"""


def q_event_type_agg(sf_dir):
    """Native Ray groupby-aggregate path (no custom kernel).  The mean
    rides an exact int64 Sum of round(value·100) — Ray's block-combine
    order can't perturb an integer sum."""
    from ray.data.aggregate import Count, Max, Min, Sum

    def scaled(b: pa.Table) -> pa.Table:
        k = pc.round(pc.multiply(b["value"], pa.scalar(float(VALUE_SCALE))))
        return b.append_column("value_c", pc.cast(k, pa.int64()))

    out = (
        _events(sf_dir, ["event_type", "value"])
        .map_batches(scaled, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="cnt"),
            Sum("value_c", alias_name="ksum"),
            Min("value", alias_name="vmin"),
            Max("value", alias_name="vmax"),
        )
        .to_pandas()
    )
    out["vmean"] = out.pop("ksum").to_numpy(np.float64) / VALUE_SCALE / out["cnt"].to_numpy()
    return round6(out[["event_type", "cnt", "vmean", "vmin", "vmax"]])


EVENT_TYPE_SQL = f"""
SELECT event_type, count(*) AS cnt,
       round({_exact_sum_sql('value', VALUE_SCALE)}/count(*), 6) AS vmean,
       round(min(value), 6) AS vmin,
       round(max(value), 6) AS vmax
FROM events GROUP BY 1
"""


# ------------------------------------------------------------ gap-fill
def q_gapfill_1h_locf(sf_dir):
    """Hourly LOCF gap-fill of per-user mean value (G2)."""
    pts = _event_points(sf_dir)
    out = group_apply(
        pts,
        lambda df: gapfill_pandas(
            df, "1h", "locf", keys=("user_id",), value_scale=VALUE_SCALE
        ),
        key="user_id",
    ).to_pandas()
    return round6(out)


GAPFILL_SQL = f"""
WITH obs AS (
  SELECT user_id, date_trunc('hour', ts) AS b,
         {_exact_sum_sql('value', VALUE_SCALE)}/count(value) AS v
  FROM events GROUP BY 1, 2
),
spans AS (SELECT user_id, min(b) AS b0, max(b) AS b1 FROM obs GROUP BY 1),
grid AS (
  SELECT user_id, unnest(generate_series(b0, b1, INTERVAL 1 HOUR)) AS bucket
  FROM spans
)
SELECT g.user_id, g.bucket,
       round(last_value(o.v IGNORE NULLS) OVER
             (PARTITION BY g.user_id ORDER BY g.bucket
              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 6) AS value,
       CASE WHEN o.v IS NOT NULL THEN 'observed' ELSE 'locf' END AS fill_method
FROM grid g LEFT JOIN obs o ON o.user_id = g.user_id AND o.b = g.bucket
"""


# ------------------------------------------------- documents / text ops
def q_dedup_exact(sf_dir):
    """Exact dedup over documents.text: keeper doc_id + copy count per
    distinct text (hash-partitioned groupby — same text always lands in
    one partition)."""
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("text", as_index=False).agg(
            keeper_id=("doc_id", "min"), n_copies=("doc_id", "count")
        )
        return g

    return group_apply(docs, fn, key="text").to_pandas()


DEDUP_SQL = """
SELECT text, min(doc_id) AS keeper_id, count(*) AS n_copies
FROM documents GROUP BY text
"""


def q_text_stats(sf_dir):
    """Per-document text statistics via the real token-counting stage
    (whitespace tokens + BPE-ish regex pieces — stages/text.py::
    bpe_ish_token_count)."""
    from ..stages.text import bpe_ish_token_count

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    docs = docs.map_batches(
        lambda df: df.assign(n_chars=df["text"].str.len().astype("int64")),
        batch_format="pandas",
    )
    return bpe_ish_token_count(docs).to_pandas()


TEXT_STATS_SQL = """
SELECT doc_id, length(text) AS n_chars,
       len(regexp_extract_all(text, '\\S+')) AS ws_tokens,
       len(regexp_extract_all(text, '\\w+|[^\\w\\s]+')) AS bpe_ish_tokens
FROM documents
"""


def q_lang_id_pred(sf_dir):
    """Language-ID predictions from the LangId actor stage (distinct
    whole-word stopword overlap, first-wins ties) — the heuristic is
    count-based, so SQL reproduces it exactly."""
    from ..stages.text import language_id

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = language_id(docs).to_pandas()
    return out[["doc_id", "lang_pred"]].sort_values("doc_id").reset_index(drop=True)


def _lang_id_sql() -> str:
    from ..stages.text import _LANG_PROFILES

    scores = []
    for lang, stop in _LANG_PROFILES.items():
        lst = ", ".join(f"'{w}'" for w in sorted(stop))
        scores.append(
            f"len(list_intersect(list_distinct("
            f"regexp_extract_all(lower(text), '[a-zà-ÿ]+')), [{lst}])) AS s_{lang}"
        )
    return f"""
WITH s AS (SELECT doc_id, {", ".join(scores)} FROM documents)
SELECT doc_id,
       CASE WHEN greatest(s_en, s_de, s_fr, s_es, s_it) = 0 THEN 'und'
            WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es AND s_en >= s_it THEN 'en'
            WHEN s_de >= s_fr AND s_de >= s_es AND s_de >= s_it THEN 'de'
            WHEN s_fr >= s_es AND s_fr >= s_it THEN 'fr'
            WHEN s_es >= s_it THEN 'es'
            ELSE 'it' END AS lang_pred
FROM s
"""


def q_pricing_summary(sf_dir):
    """TPC-H-Q1-style pricing summary over lineitem — the generic
    wide-table aggregation path: pruned read → vectorized Arrow
    derive (filter + exact int64 scaling of the decimal-quantized
    measures) → native Ray hash-aggregate (map-side partials combine
    before the exchange) → tiny finalize.  Every float is an exact
    int sum ÷ scale [÷ count], bit-equal to the SQL."""
    from ray.data.aggregate import Count, Sum

    cutoff = np.datetime64("2001-09-02T00:00:00", "us").astype("int64")

    def prep(b: pa.Table) -> pa.Table:
        ship = b["l_shipdate"].cast(pa.timestamp("us")).cast(pa.int64())
        b = b.filter(pc.less_equal(ship, pa.scalar(cutoff)))
        price = b["l_extendedprice"]
        disc = b["l_discount"]
        tax = b["l_tax"]
        disc_price = pc.multiply(price, pc.subtract(pa.scalar(1.0), disc))
        charge = pc.multiply(disc_price, pc.add(pa.scalar(1.0), tax))

        def scaled(col, scale):
            return pc.cast(pc.round(pc.multiply(col, pa.scalar(float(scale)))), pa.int64())

        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty_i": scaled(b["l_quantity"], 1),
                "price_c": scaled(price, 100),
                "dp_c": scaled(disc_price, 10_000),
                "ch_c": scaled(charge, 1_000_000),
                "disc_c": scaled(disc, 100),
            }
        )

    cols = ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate"]
    agg = (
        ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=cols)
        .map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_i", alias_name="sq"),
            Sum("price_c", alias_name="sp"),
            Sum("dp_c", alias_name="sdp"),
            Sum("ch_c", alias_name="sch"),
            Sum("disc_c", alias_name="sd"),
            Count(alias_name="count_order"),
        )
        .to_pandas()
    )
    n = agg["count_order"].to_numpy()
    out = pd.DataFrame(
        {
            "l_returnflag": agg["l_returnflag"],
            "l_linestatus": agg["l_linestatus"],
            "sum_qty": agg["sq"].to_numpy(np.float64),
            "sum_base_price": agg["sp"].to_numpy(np.float64) / 100.0,
            "sum_disc_price": agg["sdp"].to_numpy(np.float64) / 10000.0,
            "sum_charge": agg["sch"].to_numpy(np.float64) / 1000000.0,
            "avg_qty": agg["sq"].to_numpy(np.float64) / n,
            "avg_price": agg["sp"].to_numpy(np.float64) / 100.0 / n,
            "avg_disc": agg["sd"].to_numpy(np.float64) / 100.0 / n,
            "count_order": agg["count_order"],
        }
    )
    return round6(out)


PRICING_SQL = """
SELECT l_returnflag, l_linestatus,
       round(CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE), 6) AS sum_qty,
       round(CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS DOUBLE)/100.0, 6)
           AS sum_base_price,
       round(CAST(sum(CAST(round(l_extendedprice*(1-l_discount)*10000) AS BIGINT))
             AS DOUBLE)/10000.0, 6) AS sum_disc_price,
       round(CAST(sum(CAST(round(l_extendedprice*(1-l_discount)*(1+l_tax)*1000000)
             AS BIGINT)) AS DOUBLE)/1000000.0, 6) AS sum_charge,
       round(CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE)/count(*), 6)
           AS avg_qty,
       round(CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS DOUBLE)/100.0
             /count(*), 6) AS avg_price,
       round(CAST(sum(CAST(round(l_discount*100) AS BIGINT)) AS DOUBLE)/100.0
             /count(*), 6) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '2001-09-02 00:00:00'
GROUP BY 1, 2
"""


def q_lang_profile(sf_dir):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    from ray.data.aggregate import Count, Mean

    out = (
        docs.groupby("lang")
        .aggregate(Count(alias_name="cnt"), Mean("n_chars", alias_name="avg_chars"))
        .to_pandas()
    )
    return round6(out)


LANG_SQL = """
SELECT lang, count(*) AS cnt, round(avg(n_chars), 6) AS avg_chars
FROM documents GROUP BY 1
"""


def q_reagg_1d_from_1h(sf_dir):
    """G4 cascade — 1d tier re-aggregated from 1h partials (no raw
    re-read; quantiles intentionally absent: not re-aggregable).
    Salting by the COARSE (1d) bucket keeps both tiers' groups intact
    in one partition, so the cascade is exact and fully distributed."""
    from ..oracle.rollup import reaggregate_pandas

    pts = _event_points(sf_dir)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        hourly = rollup_pandas(
            df, "1h", keys=("user_id", "channel"), value_scale=VALUE_SCALE
        )
        return reaggregate_pandas(
            hourly, "1d", keys=("user_id", "channel"), value_scale=VALUE_SCALE
        )

    out = group_apply(pts, fn, key="user_id", salt_tier_s=86400).to_pandas()
    return round6(out.drop(columns=["channel"]))


# sums CAST to BIGINT (DuckDB types sum(BIGINT) as HUGEINT — round-1
# hash mismatch was exactly this dtype artifact); value sums cascade
# as exact scaled ints, mirroring the engine's value_scale path
REAGG_SQL = f"""
WITH h AS (
  SELECT user_id, date_trunc('hour', ts) AS b,
         count(value) AS cnt, count(*) - count(value) AS cn,
         sum(CAST(round(value*{VALUE_SCALE}) AS BIGINT)) AS ks,
         min(value) AS mn, max(value) AS mx
  FROM events GROUP BY 1, 2
)
SELECT user_id, date_trunc('day', b) AS bucket,
       CAST(sum(cnt) AS BIGINT) AS cnt, CAST(sum(cn) AS BIGINT) AS count_null,
       round(CAST(CAST(sum(ks) AS BIGINT) AS DOUBLE)/{VALUE_SCALE}.0, 6) AS vsum,
       round(CAST(CAST(sum(ks) AS BIGINT) AS DOUBLE)/{VALUE_SCALE}.0
             / CAST(sum(cnt) AS BIGINT), 6) AS vmean,
       round(min(mn), 6) AS vmin, round(max(mx), 6) AS vmax
FROM h GROUP BY 1, 2
"""


def q_join_user_totals(sf_dir):
    """J1 large-side variant: Ray-native hash join (Dataset.join) of
    events against a derived per-user dimension, then a grouped count
    — per (user_id, event_type) with the user's total alongside."""
    ev = _events(sf_dir, ["user_id", "event_type"])
    totals_pdf = (
        _events(sf_dir, ["user_id"])
        .groupby("user_id")
        .count()
        .rename_columns({"count()": "user_total"})
        .to_pandas()
    )
    # re-wrap as a single clean Arrow block: the aggregate output can
    # contain empty schema-less blocks that break the hash-join's key
    # resolution (observed intermittently on Ray 2.49)
    totals = ray.data.from_pandas(totals_pdf)
    joined = ev.join(totals, "inner", num_partitions=partition_count(),
                     on=("user_id",))
    from ray.data.aggregate import Count, Max

    res = (
        joined.groupby(["user_id", "event_type"])
        .aggregate(Count(alias_name="cnt"), Max("user_total", alias_name="user_total"))
        .to_pandas()
    )
    return res


JOIN_SQL = """
WITH totals AS (SELECT user_id, count(*) AS user_total FROM events GROUP BY 1)
SELECT e.user_id, e.event_type, count(*) AS cnt, max(t.user_total) AS user_total
FROM events e JOIN totals t ON e.user_id = t.user_id
GROUP BY 1, 2
"""


def q_hot_key_sample(sf_dir):
    """★-checked O3 — sampling for skew statistics: estimate per-user
    row share from a ~20% Bernoulli sample, report the top-10
    estimated shares.  The sample is an ARITHMETIC-HASH filter
    (Knuth multiplicative: keep iff (event_id·2654435761) mod 2³² <
    0.2·2³²), not a seeded RNG — content-derived membership is
    partition-order-independent and resume-stable at any scale (a
    seeded ``random_sample`` is only stable for one fixed plan), and
    the SQL oracle reproduces it exactly.  Map-side per-block counts
    combine before the driver top-k."""
    ev = _events(sf_dir, ["user_id", "event_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = (df["event_id"].to_numpy(np.int64).astype(np.uint64)
             * np.uint64(2654435761)) % np.uint64(1 << 32)
        keep = h < np.uint64(858993459)  # floor(0.2 * 2^32)
        g = (pd.DataFrame({"user_id": df["user_id"].to_numpy()[keep]})
             .groupby("user_id", as_index=False).size())
        return g.rename(columns={"size": "cnt"})

    cells = ev.map_batches(partial, batch_format="pandas")
    # per-block partials reduce through the keyed exchange (README's
    # no-block-proportional-driver-pulls invariant): the driver
    # receives one row per sampled user, never blocks × users
    counts = group_apply(
        cells,
        lambda df: df.groupby("user_id", as_index=False)["cnt"].sum(),
        key="user_id",
    ).to_pandas()
    total = counts.cnt.sum()
    counts["cnt"] = counts["cnt"].astype(np.int64)
    counts["share"] = counts.cnt / total
    # order by the exact integer cnt, not the derived share: two
    # counts can round to the same 6-decimal share at large totals,
    # and the top-10 boundary must be decided identically both sides
    hot = (
        counts.sort_values(["cnt", "user_id"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )
    return round6(hot)


HOT_SAMPLE_SQL = """
WITH s AS (
  SELECT user_id FROM events
  WHERE (event_id * 2654435761) % 4294967296 < 858993459
),
c AS (SELECT user_id, count(*) AS cnt FROM s GROUP BY 1),
t AS (SELECT sum(cnt) AS total FROM c)
SELECT user_id, cnt,
       round(CAST(cnt AS DOUBLE) / total, 6) AS share
FROM c, t
ORDER BY cnt DESC, user_id
LIMIT 10
"""


def q_distinct_users(sf_dir):
    """A17 — global distinct key universe (manifest planning)."""
    n = len(_events(sf_dir, ["user_id"]).unique("user_id"))
    return pd.DataFrame({"n_users": [np.int64(n)]})


DISTINCT_SQL = "SELECT count(DISTINCT user_id) AS n_users FROM events"


def q_union_backfill(sf_dir):
    """O4 — union of two event slices re-rolled into one daily tier
    (backfill path: old + new data union → re-aggregate)."""
    ev = _events(sf_dir, ["event_id", "ts", "user_id", "value"])

    def split(pred):
        def fn(b: pa.Table) -> pa.Table:
            even = pc.equal(pc.bit_wise_and(b["event_id"], 1), 0)
            return b.filter(even if pred else pc.invert(even))
        return fn

    even_ds = ev.map_batches(split(True), batch_format="pyarrow")
    odd_ds = ev.map_batches(split(False), batch_format="pyarrow")
    merged = even_ds.union(odd_ds)

    def to_points(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "channel": pa.array(["value"] * len(b), pa.string()),
                "ts": b["ts"],
                "value": b["value"],
            }
        )

    pts = merged.map_batches(to_points, batch_format="pyarrow")
    out = group_apply(
        pts,
        lambda df: rollup_pandas(
            df, "1d", keys=("user_id", "channel"), value_scale=VALUE_SCALE
        ),
        key="user_id",
        salt_tier_s=86400,
    ).to_pandas()
    return round6(out.drop(columns=["channel"]))


UNION_SQL = f"""
WITH merged AS (
  SELECT * FROM events WHERE event_id % 2 = 0
  UNION ALL
  SELECT * FROM events WHERE event_id % 2 = 1
)
SELECT user_id, date_trunc('day', ts) AS bucket,
       count(value) AS cnt, count(*) - count(value) AS count_null,
       round({_exact_sum_sql('value', VALUE_SCALE)}, 6) AS vsum,
       round({_exact_sum_sql('value', VALUE_SCALE)}/count(value), 6) AS vmean,
       round(min(value), 6) AS vmin, round(max(value), 6) AS vmax,
       round(quantile_cont(value, 0.5), 6) AS p50,
       round(quantile_cont(value, 0.99), 6) AS p99
FROM merged GROUP BY 1, 2
"""


# ------------------------------------------------------- as-of join ★
def q_asof_enrich(sf_dir):
    """★-checked as-of join (stages/joins.py): every event enriched
    with the most recent fully-completed hourly rollup row for its
    user (bucket ≤ ts − 1h) — the partitioned path (one hash exchange
    + per-partition merge_asof); inner semantics like DuckDB ASOF
    JOIN.  Exact prev_vsum via int64 sums at VALUE_SCALE."""
    import pyarrow.compute as _pc

    from ..stages.joins import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )

    def hourly_fn(df: pd.DataFrame) -> pd.DataFrame:
        b_us = df["ts"].to_numpy("datetime64[us]").astype(np.int64)
        bucket = (b_us // 3_600_000_000) * 3_600_000_000
        v = df["value"].to_numpy(dtype=np.float64)
        ok = ~np.isnan(v)
        iv = np.zeros(len(v), dtype=np.int64)
        iv[ok] = np.round(v[ok] * VALUE_SCALE).astype(np.int64)
        g = pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                          "bucket": bucket, "iv": iv,
                          "ok": ok.astype(np.int64)})
        out = g.groupby(["user_id", "bucket"], as_index=False).agg(
            prev_cnt=("iv", "size"), _ivsum=("iv", "sum"), _vcnt=("ok", "sum"))
        vsum = out["_ivsum"].to_numpy(np.float64) / float(VALUE_SCALE)
        out["prev_vsum"] = np.where(out["_vcnt"].to_numpy() == 0, np.nan, vsum)
        out["bucket"] = out["bucket"].to_numpy().astype("datetime64[us]")
        return out.drop(columns=["_ivsum", "_vcnt"])

    hourly = group_apply(ev, hourly_fn, key="user_id")

    def add_match(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.timestamp("us"))
        mt = _pc.subtract(ts.cast(pa.int64()),
                          pa.scalar(3_600_000_000, pa.int64()))
        return batch.append_column("_match_ts", mt.cast(pa.timestamp("us")))

    left = ev.map_batches(add_match, batch_format="pyarrow")
    joined = asof_join(
        left, hourly, by="user_id", left_on="_match_ts", right_on="bucket",
        right_vals=("prev_cnt", "prev_vsum"), how="inner",
    ).to_pandas()
    out = (joined.drop(columns=["_match_ts"])
           .rename(columns={"bucket_r": "prev_bucket"})
           .sort_values("event_id").reset_index(drop=True))
    return round6(out)


ASOF_SQL = f"""
WITH hourly AS (
  SELECT user_id, date_trunc('hour', ts) AS bucket,
         count(*) AS prev_cnt,
         {_exact_sum_sql('value', VALUE_SCALE)} AS prev_vsum
  FROM events GROUP BY 1, 2)
SELECT e.event_id, e.user_id, e.ts, round(e.value, 6) AS value,
       h.bucket AS prev_bucket, h.prev_cnt,
       round(h.prev_vsum, 6) AS prev_vsum
FROM events e ASOF JOIN hourly h
  ON e.user_id = h.user_id AND h.bucket <= e.ts - INTERVAL 1 HOUR
"""


# ------------------------------------- sliding-window aggregate ★
def q_window_24h(sf_dir):
    """★-checked RANGE-window aggregate (stages/window.py): per event,
    count / non-null count / exact sum / mean over the user's events in
    the trailing 24 h (peers included — SQL RANGE frame semantics).
    One hash exchange, composite-key searchsorted kernel."""
    from ..stages.window import windowed_aggregate

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"],
    )
    out = windowed_aggregate(
        ev, by="user_id", on="ts", value="value",
        window_s=86400, value_scale=VALUE_SCALE,
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    return round6(out)


WINDOW_SQL = """
SELECT event_id, user_id, ts,
  count(*) OVER w AS w_cnt,
  count(value) OVER w AS w_vcnt,
  round(CAST(sum(CAST(round(value*100) AS BIGINT)) OVER w AS DOUBLE)/100.0,
        6) AS w_vsum,
  round(CAST(sum(CAST(round(value*100) AS BIGINT)) OVER w AS DOUBLE)/100.0
        / count(value) OVER w, 6) AS w_vavg
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 24 HOURS PRECEDING AND CURRENT ROW)
"""


# ---------------------------------------------- sessionization ★
def q_sessionize(sf_dir):
    """★-checked gap-based sessionization (stages/window.py): per-user
    sessions split on >30 min inactivity (exact integer-µs gap
    compare), one summary row per session."""
    from ..stages.window import sessionize

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    out = sessionize(ev, by="user_id", on="ts", tie_col="event_id",
                     gap_s=1800).to_pandas()
    return (out.sort_values(["user_id", "session_idx"])
            .reset_index(drop=True))


SESSIONIZE_SQL = """
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
  FROM g)
SELECT user_id, session_idx, count(*) AS n_events,
       min(ts) AS session_start, max(ts) AS session_end,
       date_diff('microsecond', min(ts), max(ts)) AS duration_us
FROM s GROUP BY 1, 2
"""


# ------------------------------------- stratified per-key sample ★
def q_stratified_sample(sf_dir):
    """★-checked deterministic stratified sample (stages/sample.py):
    up to 5 events per user by a seeded LCG hash order — reproducible
    sampling whose oracle is a plain row_number() window."""
    from ..stages.sample import stratified_sample

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "value"])
    out = stratified_sample(ev, by="user_id", id_col="event_id",
                            n_per_key=5).to_pandas()
    out = out.sort_values(["user_id", "sample_rank"]).reset_index(drop=True)
    return round6(out)


STRATIFIED_SQL = """
WITH h AS (
  SELECT user_id, event_id, ts, value,
         (event_id * 1103515245 + 12345) % 2147483648 AS hh
  FROM events),
r AS (
  SELECT user_id, event_id, ts, value,
    row_number() OVER (PARTITION BY user_id ORDER BY hh, event_id)
      AS sample_rank
  FROM h)
SELECT user_id, event_id, ts, round(value, 6) AS value, sample_rank
FROM r WHERE sample_rank <= 5
"""


# ------------------------------------------------ range join ★
def q_range_join_busy(sf_dir):
    """★-checked broadcast range join (stages/joins.py): events falling
    inside the 20 busiest 5-minute windows (windows = top-20 minutes by
    event count, deterministic (count DESC, minute) order; windows
    overlap, so one event can match several).  The window set is built
    by map-side partial counts (combiner before the driver-side top-k —
    distinct minutes ≪ events), then broadcast; the left side streams
    with no shuffle."""
    from ..stages.joins import range_join_broadcast

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])

    def minute_counts(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["ts"].to_numpy("datetime64[us]").astype(np.int64)
             // 60_000_000) * 60_000_000
        g = pd.DataFrame({"m": m}).groupby("m", as_index=False).size()
        return g.rename(columns={"size": "c"})

    # per-block minute partials reduce through an m-keyed exchange
    # before the driver top-k (no block-proportional driver pulls)
    mc = group_apply(
        ev.map_batches(minute_counts, batch_format="pandas"),
        lambda df: df.groupby("m", as_index=False)["c"].sum(),
        key="m",
    ).to_pandas()
    top = mc.sort_values(["c", "m"], ascending=[False, True],
                         kind="mergesort").head(20)
    iv = pd.DataFrame({
        "start": top["m"].to_numpy().astype("datetime64[us]"),
        "end": (top["m"].to_numpy()
                + 300_000_000).astype("datetime64[us]"),
        "window_cnt": top["c"].to_numpy(np.int64),
    })
    out = range_join_broadcast(
        ev, iv, on="ts", start_col="start", end_col="end",
        carry=("window_cnt",),
    ).to_pandas().rename(columns={"start_w": "window_start",
                                  "window_cnt_w": "window_cnt"})
    return (out.sort_values(["event_id", "window_start"])
            .reset_index(drop=True))


RANGE_JOIN_SQL = """
WITH mc AS (
  SELECT date_trunc('minute', ts) AS m, count(*) AS c
  FROM events GROUP BY 1),
topw AS (SELECT m, c FROM mc ORDER BY c DESC, m LIMIT 20)
SELECT e.event_id, e.user_id, e.ts,
       w.m AS window_start, w.c AS window_cnt
FROM events e JOIN topw w
  ON e.ts >= w.m AND e.ts < w.m + INTERVAL 5 MINUTE
"""


# ------------------------------------------------------- pivot ★
_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_pivot_event_types(sf_dir):
    """★-checked pivot (stages/pivot.py): per-user wide row of
    count + exact sum per event_type.  Map-side combiner partials →
    one keyed exchange → vectorized widen."""
    from ..stages.pivot import pivot_aggregate

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type", "value"])
    out = pivot_aggregate(
        ev, key="user_id", col="event_type", categories=_EVENT_TYPES,
        value="value", value_scale=VALUE_SCALE,
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    return round6(out)


def _pivot_sql() -> str:
    cols = []
    for t in _EVENT_TYPES:
        cols.append(f"count(*) FILTER (event_type = '{t}') AS {t}_cnt")
        cols.append(
            "round(CAST(sum(CAST(round(value*100) AS BIGINT)) "
            f"FILTER (event_type = '{t}') AS DOUBLE)/100.0, 6) AS {t}_vsum")
    return ("SELECT user_id, " + ", ".join(cols)
            + " FROM events GROUP BY user_id")


# --------------------------------- histogram quantile sketch ★
def q_sketch_quantiles(sf_dir):
    """★-checked mergeable quantile sketch (stages/sketch.py): global
    p50/p99 of events.value from fixed-bin histogram partials — ONE
    streaming pass, only bin counts cross the wire (the 100-TB
    approximate-quantile path; error ≤ bin_width), result bit-
    reproducible by the same binning arithmetic in SQL."""
    from ..stages.sketch import histogram_quantile

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["value"])
    return histogram_quantile(ev, value="value", lo=0.0, hi=1000.0,
                              n_bins=20000, qs=(0.5, 0.99))


SKETCH_SQL = """
WITH b AS (
  SELECT least(greatest(CAST(floor(value / (1000.0/20000)) AS BIGINT), 0),
               19999) AS bin
  FROM events WHERE value IS NOT NULL),
c AS (SELECT bin, count(*) AS cnt FROM b GROUP BY bin),
cum AS (SELECT bin, CAST(sum(cnt) OVER (ORDER BY bin) AS BIGINT) AS cm
        FROM c),
tot AS (SELECT count(*) AS total FROM b)
SELECT (SELECT total FROM tot) AS total_cnt,
       (1000.0/20000) AS bin_width,
       (SELECT min(bin) FROM cum WHERE cm >= ceil(0.5 * (SELECT total FROM tot)))
         * (1000.0/20000) AS p50_edge,
       (SELECT min(bin) FROM cum WHERE cm >= ceil(0.99 * (SELECT total FROM tot)))
         * (1000.0/20000) AS p99_edge
"""


# --------------------------------------- per-group arg-max ★
def q_latest_event(sf_dir):
    """★-checked per-group arg-max: each user's most recent event row
    (tie on ts broken by larger event_id) — the top-1-per-key idiom as
    one hash exchange + a vectorized first-of-sorted-group kernel."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"])

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"],
                           ascending=[True, False, False],
                           kind="mergesort")
        # drop_duplicates keeps the whole first ROW per key; groupby().first()
        # would splice in the first NON-NULL per column across rows.
        return d.drop_duplicates("user_id", keep="first").reset_index(drop=True)

    out = group_apply(ev, latest, key="user_id"
                      ).to_pandas().sort_values("user_id").reset_index(drop=True)
    return round6(out)


LATEST_SQL = """
SELECT user_id, event_id, ts, event_type, round(value, 6) AS value
FROM (
  SELECT user_id, event_id, ts, event_type, value,
    row_number() OVER (PARTITION BY user_id
                       ORDER BY ts DESC, event_id DESC) AS rn
  FROM events)
WHERE rn = 1
"""


QUERIES = {
    "rollup_1m": q_rollup_1m,
    "rollup_1h": q_rollup_1h,
    "rollup_1d": q_rollup_1d,
    "latency_rollup_1h": q_latency_rollup_1h,
    "cadence_stats": q_cadence_stats,
    "amplitude_stats": q_amplitude_stats,
    "max_slope": q_max_slope,
    "top_users": q_top_users,
    "semi_join_hot": q_semi_join_hot,
    "event_type_agg": q_event_type_agg,
    "gapfill_1h_locf": q_gapfill_1h_locf,
    "reagg_1d_from_1h": q_reagg_1d_from_1h,
    "join_user_totals": q_join_user_totals,
    "hot_key_sample": q_hot_key_sample,
    "distinct_users": q_distinct_users,
    "union_backfill": q_union_backfill,
    "dedup_exact": q_dedup_exact,
    "text_stats": q_text_stats,
    "lang_profile": q_lang_profile,
    "lang_id_pred": q_lang_id_pred,
    "pricing_summary": q_pricing_summary,
    "asof_enrich": q_asof_enrich,
    "window_24h": q_window_24h,
    "sessionize": q_sessionize,
    "stratified_sample": q_stratified_sample,
    "range_join_busy": q_range_join_busy,
    "pivot_event_types": q_pivot_event_types,
    "sketch_quantiles": q_sketch_quantiles,
    "latest_event": q_latest_event,
}

ORACLE_SQL = {
    "rollup_1m": _ROLLUP_SQL("minute"),
    "rollup_1h": _ROLLUP_SQL("hour"),
    "rollup_1d": _ROLLUP_SQL("day"),
    "latency_rollup_1h": LATENCY_SQL,
    "cadence_stats": CADENCE_SQL,
    "amplitude_stats": AMPLITUDE_SQL,
    "max_slope": MAX_SLOPE_SQL,
    "top_users": TOP_USERS_SQL,
    "semi_join_hot": SEMI_JOIN_SQL,
    "event_type_agg": EVENT_TYPE_SQL,
    "gapfill_1h_locf": GAPFILL_SQL,
    "reagg_1d_from_1h": REAGG_SQL,
    "join_user_totals": JOIN_SQL,
    "distinct_users": DISTINCT_SQL,
    "union_backfill": UNION_SQL,
    "dedup_exact": DEDUP_SQL,
    "text_stats": TEXT_STATS_SQL,
    "lang_profile": LANG_SQL,
    "lang_id_pred": _lang_id_sql(),
    "pricing_summary": PRICING_SQL,
    "asof_enrich": ASOF_SQL,
    "window_24h": WINDOW_SQL,
    "sessionize": SESSIONIZE_SQL,
    "stratified_sample": STRATIFIED_SQL,
    "hot_key_sample": HOT_SAMPLE_SQL,
    "range_join_busy": RANGE_JOIN_SQL,
    "pivot_event_types": _pivot_sql(),
    "sketch_quantiles": SKETCH_SQL,
    "latest_event": LATEST_SQL,
}
