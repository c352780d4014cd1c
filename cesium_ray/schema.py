"""Canonical Arrow schemas for every logical table (SURVEY.md §1.2).

The input table shape is authoritative from BASELINE.json (input_hint):
``conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
ts:timestamp[us]``.  Everything downstream is derived.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------- input
TURNS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),  # null unless role == "tool"
        ("ts", pa.timestamp("us")),
    ]
)

# ------------------------------------------------------ driver events
# Column names of the driver's ``events`` table: the one schema every
# stream operator in stages/{tsmath,analytics,window}.py reads.
USER_ID, EVENT_ID, EVENT_TYPE, TS, VALUE = (
    "user_id", "event_id", "event_type", "ts", "value")

# ------------------------------------------------- long-format channels
# One row per (turn, channel).  ``value`` is null for turn_latency at
# turn 0 (no predecessor) — nulls are counted separately in rollups
# (count_null), mirroring cesium's "every feature defined even without
# errors" defaulting philosophy (cesium/time_series.py::TimeSeries).
SERIES_POINTS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("channel", pa.string()),  # "turn_latency" | "text_len"
        ("ts", pa.timestamp("us")),
        ("value", pa.float64()),
        ("turn_idx", pa.int32()),
    ]
)

# ------------------------------------------------------------- rollups
# Continuous-aggregate tiers (BASELINE.json north_star): bucket =
# floor(ts, tier); count/sum/mean/min/max over non-null values;
# p50/p99 = np.quantile(values, [.5, .99], method="linear") — exact,
# never sketched (SURVEY.md §2.5 A16).


def rollup_schema() -> pa.Schema:
    return pa.schema(
        [
            ("conv_id", pa.string()),
            ("channel", pa.string()),
            ("bucket", pa.timestamp("us")),
            ("cnt", pa.int64()),  # non-null values in bucket
            ("count_null", pa.int64()),  # null-latency turns (turn 0)
            ("vsum", pa.float64()),
            ("vmean", pa.float64()),
            ("vmin", pa.float64()),
            ("vmax", pa.float64()),
            ("p50", pa.float64()),
            ("p99", pa.float64()),
        ]
    )


ROLLUP = rollup_schema()

# ------------------------------------------------------------ gap-fill
GAPFILLED = pa.schema(
    [
        ("conv_id", pa.string()),
        ("channel", pa.string()),
        ("bucket", pa.timestamp("us")),
        ("value", pa.float64()),
        ("fill_method", pa.string()),  # observed | locf | linear
    ]
)

# ---------------------------------------------------- compressed chunks
# Gorilla XOR values + delta-of-delta timestamps, one row per
# (conv_id, channel) chunk (SURVEY.md §2.3 T4 / §2.9 G3).
CHUNKS = pa.schema(
    [
        ("conv_id", pa.string()),
        ("channel", pa.string()),
        ("chunk_start", pa.timestamp("us")),
        ("n", pa.int32()),
        ("ts_codec", pa.string()),  # "dod"
        ("val_codec", pa.string()),  # "gorilla"
        ("payload", pa.binary()),
        ("crc", pa.uint32()),
    ]
)

# ------------------------------------------------------------ manifest
MANIFEST = pa.schema(
    [
        ("partition_id", pa.string()),
        ("input_fingerprint", pa.string()),
        ("rows_in", pa.int64()),
        ("rows_out", pa.int64()),
        ("checksum", pa.string()),
        ("state", pa.string()),  # pending | done
        ("updated_at", pa.timestamp("us")),
    ]
)
