"""Continuous-aggregate rollup stage A16/G4/G6 (SURVEY.md §2.5, §2.9).

Two entry points:

  * ``rollup_points(points, tier)`` — rollup of a SERIES_POINTS
    dataset.  Partition key = hash(conv_id) ⊕ hash(bucket) (G6 salting
    by tier bucket): a hot conversation's buckets spread across all
    partitions while every (conv, channel, bucket) group stays whole,
    so the exact p50/p99 (np.quantile linear) survive — never averaged
    across salts (SURVEY §7 hard-part (a)).  Inside each partition the
    aggregation is one vectorized pandas groupby
    (oracle/rollup.py::rollup_pandas — the kernel shared with the
    single-node oracle; tier parity is by construction).

  * ``rollup_turns(turns, tier)`` — fused derive-channels + rollup:
    one conv_id shuffle, then both steps vectorized per partition.
    1h/1d tiers recompute from raw points (not from 1m partials)
    because exact quantiles are not re-aggregable (SURVEY §2.9 G4).
"""

from __future__ import annotations

import pandas as pd
import ray.data

from ..oracle.rollup import TIER_SECONDS, derive_channels_pandas, rollup_pandas
from .partition import group_apply


def rollup_points(
    points: ray.data.Dataset,
    tier: str,
    keys=("conv_id", "channel"),
    salt: bool = True,
) -> ray.data.Dataset:
    tier_s = TIER_SECONDS[tier]
    return group_apply(
        points,
        lambda df: rollup_pandas(df, tier, keys=keys),
        key=keys[0],
        salt_tier_s=tier_s if salt else None,
    )


def rollup_turns(
    turns: ray.data.Dataset,
    tier: str,
    by: str = "conv_id",
    order=("turn_idx",),
) -> ray.data.Dataset:
    """Fused path: derive channels and roll up inside one partition
    visit (single shuffle keyed on conversation)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        pts = derive_channels_pandas(df, by=by, order=order)
        return rollup_pandas(pts, tier)

    keep = [by, *order, "ts"] + (
        ["text"] if "text" in turns.columns() else []
    ) + (["value"] if "value" in turns.columns() else [])
    pruned = turns.select_columns(list(dict.fromkeys(keep)))
    return group_apply(pruned, fn, key=by)
