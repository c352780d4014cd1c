"""Gap-fill stage G2 (SURVEY.md §2.9) — LOCF / linear onto the tier grid.

Hash-partitioned on conv_id (grid construction is per-series, needs the
whole (conv, channel) series together); vectorized kernel shared with
the oracle (oracle/gapfill.py::gapfill_pandas)."""

from __future__ import annotations

import ray.data

from ..oracle.gapfill import gapfill_pandas
from .partition import group_apply


def gapfill_points(
    points: ray.data.Dataset,
    tier: str = "1m",
    method: str = "locf",
) -> ray.data.Dataset:
    return group_apply(
        points,
        lambda df: gapfill_pandas(df, tier, method),
        key="conv_id",
    )
