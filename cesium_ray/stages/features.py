"""Per-series feature extraction stage T1/T2/T3 (SURVEY.md §2.3).

``FeatureExtractor`` is a callable CLASS → Ray actor pool: graph
construction / config parsing happens once per actor in ``__init__``
(cesium's per-call dask-graph build amortized away); ``__call__``
receives one hash partition (many conversations) and loops
conversations × channels, calling the shared oracle kernel
(oracle/graphs.py::compute_features — semantics of
cesium/featurize.py::featurize_single_ts).  Per-series failures yield
NaN rows, never a dead block (cesium raise_exceptions=False).

Time axis: t = seconds since the first point of the series (offset
choice documented; diffs/periods unaffected).  NaN values (turn-0
latency) are dropped per series before feature math.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ..oracle.graphs import GENERAL_FEATURES, compute_features
from .partition import group_apply


class FeatureExtractor:
    def __init__(
        self,
        features_to_use=None,
        custom_functions=None,
        ls_kwargs=None,
        channels=("turn_latency", "text_len"),
        min_points: int = 2,
        raise_exceptions: bool = False,
    ):
        self.features = list(features_to_use) if features_to_use else list(GENERAL_FEATURES)
        self.custom = custom_functions
        from ..oracle.graphs import LS_FEATURES

        needs_ls = bool(set(self.features) & set(LS_FEATURES))
        self.ls_kwargs = (ls_kwargs or {"day": 86400.0}) if needs_ls else None
        self.channels = set(channels) if channels else None
        self.min_points = min_points
        self.raise_exceptions = raise_exceptions

    def _series_row(self, conv_id, channel, t, m, e=None):
        if len(m) < self.min_points:
            vals = {f: float("nan") for f in self.features}
        else:
            vals = compute_features(
                t,
                m,
                e,
                features_to_use=self.features,
                custom_functions=self.custom,
                raise_exceptions=self.raise_exceptions,
                ls_kwargs=self.ls_kwargs,
            )
        return {"conv_id": conv_id, "channel": channel, **vals}

    def __call__(self, part: pd.DataFrame) -> pd.DataFrame:
        if "_part" in part.columns:
            part = part.drop(columns=["_part"])
        part = part.sort_values(["conv_id", "channel", "turn_idx"], kind="mergesort")
        ts_us = part["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
        vals = part["value"].to_numpy(dtype=np.float64)
        rows = []
        for (conv_id, channel), idx in part.groupby(
            ["conv_id", "channel"], sort=False
        ).indices.items():
            if self.channels is not None and channel not in self.channels:
                continue
            tt = ts_us[idx]
            mm = vals[idx]
            ok = ~np.isnan(mm)
            tt, mm = tt[ok], mm[ok]
            t_rel = (tt - (tt[0] if len(tt) else 0)) / 1e6
            rows.append(self._series_row(conv_id, channel, t_rel, mm))
        if not rows:
            return pd.DataFrame(
                columns=["conv_id", "channel", *self.features]
            ).astype({f: "float64" for f in self.features})
        return pd.DataFrame(rows)


def extract_features(
    points: ray.data.Dataset,
    features_to_use=None,
    concurrency=None,
    **extractor_kw,
) -> ray.data.Dataset:
    """SERIES_POINTS → features table (one row per (conv_id, channel))."""
    kw = {}
    if concurrency is not None:
        kw["concurrency"] = kw_concurrency = concurrency  # actor pool size
    return group_apply(
        points,
        FeatureExtractor,
        key="conv_id",
        fn_constructor_kwargs={
            "features_to_use": features_to_use,
            **extractor_kw,
        },
        **kw,
    )
