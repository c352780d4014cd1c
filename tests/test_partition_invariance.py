"""Query results do not depend on the partition count.

P comes from ``partition.partition_count()``.  These are the operators
that merge per-partition partials on the driver (the ``tsdb_ops`` mix,
per-key sampling), use P as a bucket modulus (the exact near-dup verify
passes) or pass it to Ray Data's hash join, run at P = 1 and P = 3 on
the same table."""

import sys

import pandas as pd
import pytest

import __ray_entry__
from perfbench.workloads import TsdbOps

SF = "/root/testdata/sf0.001"
QUERIES = TsdbOps.OPS + ("minhash_exact_pairs", "weighted_sample_per_key",
                         "similarity_join", "join_user_totals")


def _at_p(monkeypatch, p: int) -> dict:
    # every module that bound the name, not only stages.partition
    for name, mod in list(sys.modules.items()):
        if name.startswith("cesium_ray") and hasattr(mod, "partition_count"):
            monkeypatch.setattr(mod, "partition_count", lambda: p)
    queries, out = __ray_entry__.queries(), {}
    for q in QUERIES:
        got = queries[q](SF)
        if not isinstance(got, pd.DataFrame):
            got = got.to_pandas()
        cols = sorted(got.columns)
        out[q] = (got[cols].sort_values(cols, kind="mergesort")
                  .reset_index(drop=True))
    return out


def test_results_equal_at_p1_and_p3(monkeypatch):
    one = _at_p(monkeypatch, 1)
    three = _at_p(monkeypatch, 3)
    for q in QUERIES:
        assert len(one[q]), q
        pd.testing.assert_frame_equal(one[q], three[q], check_exact=True,
                                      obj=q)


@pytest.mark.parametrize("p", [1, 3])
def test_group_apply_uses_partition_count(monkeypatch, p):
    import ray.data

    from cesium_ray.stages import partition

    monkeypatch.setattr(partition, "partition_count", lambda: p)
    ds = ray.data.from_pandas(pd.DataFrame({"k": range(40)}))
    parts = partition.group_apply(
        ds, lambda df: pd.DataFrame({"n": [len(df)]}), key="k").to_pandas()
    assert len(parts) == p and parts["n"].sum() == 40


def test_lpt_placement_ignores_input_order():
    """Equal costs are placed in key order: the keyed size count hands
    ``lpt_assignment`` its hot keys in an order that depends on P."""
    import numpy as np

    from cesium_ray.stages.partition import lpt_assignment

    keys = np.array([f"c{i}" for i in range(10)], dtype=object)
    costs = np.array([9.0, 4, 4, 4, 1, 4, 9, 4, 1, 4])
    want = lpt_assignment(keys, costs, 4)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(len(keys))
        assert lpt_assignment(keys[perm], costs[perm], 4) == want


def test_flagship_balanced_output_same_at_any_p(monkeypatch, tmp_path):
    """The flagship keeps its own P; the LPT size pass runs at the
    cluster's P, so its tied hot conversations must land on the same
    part files whatever that P is."""
    import glob
    import hashlib
    import os

    import ray.data

    from cesium_ray.pipelines import run_flagship
    from cesium_ray.stages import partition
    from cesium_ray.synth import generate_turns

    turns = generate_turns(60, seed=13, max_turns=300)
    sizes = turns.to_pandas().groupby("conv_id").size()
    assert (sizes == 300).sum() > 1  # ties in the LPT cost

    def tree(p):
        monkeypatch.setattr(partition, "partition_count", lambda: p)
        out = str(tmp_path / f"p{p}")
        run_flagship(ray.data.from_arrow(turns), out, num_partitions=4,
                     tiers=("1d",), features=None, codec=False,
                     gapfill_tier=None, ls_features=["freq1_freq"],
                     ls_min_turns=200, balance_ls=True, resume=False)
        files = glob.glob(os.path.join(out, "tier=1d", "date=*", "*.parquet"))
        return {os.path.relpath(f, out):
                hashlib.sha256(open(f, "rb").read()).hexdigest() for f in files}

    one = tree(1)
    assert one and tree(3) == one
