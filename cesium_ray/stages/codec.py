"""Chunk compression stage T4/G3 (SURVEY.md §2.3, §2.9).

``ChunkCodec`` is an actor-pool ``map_groups`` stage: per
(conv, channel) it sorts by (turn_idx), splits into chunks of
``max_points``, and emits CHUNKS rows with Gorilla-XOR value payloads +
delta-of-delta timestamps (oracle/codec.py v2 columnar-control
layout — bit-exact roundtrip, branch-free vectorized decode).
Value NaNs (turn-0 latency) are preserved bit-exactly by the codec, so
encode∘decode is the identity on the full series.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from ..oracle.codec import crc32, decode_chunk_v2, encode_chunk_v2
from .partition import group_apply


class ChunkCodec:
    def __init__(self, max_points: int = 4096):
        self.max_points = max_points

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
            for s in range(0, len(idx), self.max_points):
                sl = idx[s : s + self.max_points]
                payload = encode_chunk_v2(ts_us[sl], vals[sl])
                rows.append(
                    {
                        "conv_id": conv_id,
                        "channel": channel,
                        "chunk_start": ts_us[sl[0]].astype("datetime64[us]"),
                        "n": np.int32(len(sl)),
                        "ts_codec": "dod2",
                        "val_codec": "gorilla2",
                        "payload": payload,
                        "crc": np.uint32(crc32(payload)),
                    }
                )
        if not rows:
            return pd.DataFrame(
                columns=["conv_id", "channel", "chunk_start", "n", "ts_codec",
                         "val_codec", "payload", "crc"]
            )
        return pd.DataFrame(rows)


def encode_points(
    points: ray.data.Dataset,
    max_points: int = 4096,
    concurrency=None,
) -> ray.data.Dataset:
    kw = {"concurrency": concurrency} if concurrency is not None else {}
    return group_apply(
        points,
        ChunkCodec,
        key="conv_id",
        fn_constructor_kwargs={"max_points": max_points},
        **kw,
    )


def decode_chunks(chunks: ray.data.Dataset) -> ray.data.Dataset:
    """Inverse stage: CHUNKS → SERIES_POINTS (without turn_idx).
    Stateless map_batches; validates CRC per chunk."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for row in df.itertuples(index=False):
            if crc32(row.payload) != row.crc:
                raise ValueError(f"CRC mismatch for {row.conv_id}/{row.channel}")
            ts, vals = decode_chunk_v2(row.payload, int(row.n))
            out.append(
                pd.DataFrame(
                    {
                        "conv_id": row.conv_id,
                        "channel": row.channel,
                        "ts": ts.astype("datetime64[us]"),
                        "value": vals,
                    }
                )
            )
        if not out:
            return pd.DataFrame(columns=["conv_id", "channel", "ts", "value"])
        return pd.concat(out, ignore_index=True)

    return chunks.map_batches(fn, batch_format="pandas")
