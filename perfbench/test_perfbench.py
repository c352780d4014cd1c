"""Self-tests for the benchmark at a tiny scale.

    python3 -m pytest perfbench -q -p no:cacheprovider

Each case runs ``perfbench/run.py`` in a subprocess, the way the
benchmark is meant to be run, and reads its last stdout line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rollup", "full", "tsdb_ops")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
           "--scale", "0.05", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, wanted: list):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], float), m["name"]


def test_spec_names_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_correct(workload):
    res = _run(workload, 0)
    _assert_metrics(res, _spec()["end_to_end"])
    assert res["correct"] and res["failed"] == 0
    assert all(v["value"] > 0 for v in res["metrics"].values())


# The layers each workload exists to exercise.  A hook that stops working
# (tracing not installed in the workers, Ray Data stats not collected)
# shows as a 0 here rather than as a quiet 0 in the result line.
EXERCISED = {
    "rollup": ["sources.read_s", "stages.normalize.busy_s", "stages.partition.tag_s",
               "stages.partition.exchange_s", "stages.partition.exchange_bytes",
               "oracle.rollup.derive_s", "oracle.rollup.rollup_s",
               "oracle.rollup.rows_out", "pipelines.flagship.write_s",
               "pipelines.flagship.files_written", "state.manifest.mark_s",
               "state.manifest.fingerprint_s", "sources.tiers.plan_s",
               "state.zonemap.footers_read", "sources.tiers.files_read",
               "sources.tiers.files_total", "sources.tiers.exec_s",
               "pipelines.flagship.task_s_max"],
    "full": ["sources.read_s", "stages.partition.exchange_s",
             "oracle.rollup.rollup_s", "oracle.lomb_scargle.busy_s",
             "oracle.lomb_scargle.calls", "oracle.lomb_scargle.sum_n2",
             "oracle.lomb_scargle.partition_share", "stages.features.general_s",
             "oracle.gapfill.busy_s", "stages.codec.busy_s",
             "stages.codec.payload_bytes", "stages.partition.lpt_s"],
    "tsdb_ops": ["sources.read_s", "stages.tsmath.kernel_s",
                 "stages.analytics.kernel_s", "stages.window.kernel_s",
                 "stages.partition.exchange_s", "stages.partition.exchange_bytes"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_corruption_counted(workload):
    res = _run(workload, 1, "--corrupt")
    _assert_metrics(res, _spec()["per_layer"])
    zero = [m for m in EXERCISED[workload] + ["stages.codec.v1_canary_mb_s"]
            if not res["metrics"][m]["value"] > 0]
    assert not zero, zero
    assert not res["correct"]
    assert res["failed"] >= 1


def test_fails_without_the_library():
    """In a directory holding only the benchmark, a run must fail
    without printing a result."""
    bare = tempfile.mkdtemp(prefix=".pb-bare-", dir=ROOT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rollup",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, env=env)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
