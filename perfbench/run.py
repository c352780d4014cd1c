#!/usr/bin/env python3
"""cesium_ray benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload rollup --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last stdout line is the result
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
is the run record (environment, input statistics, loop details and, with
``--trace 1``, the per-layer table).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
PREPARED = "prepared.pkl"

E2E_UNITS = {"turns_per_s": "1/s", "queries_per_s": "1/s", "query_p50_ms": "ms",
             "query_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("rollup", "full", "tsdb_ops"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size multiplier (self-tests use a tiny one)")
    p.add_argument("--corrupt", action="store_true",
                   help="damage one output before checking (self-tests)")
    p.add_argument("--prepare-only", metavar="DIR",
                   help="only make the inputs under DIR (run in a child process)")
    return p.parse_args(argv)


def prepare(args, work: str):
    """Make the workload's inputs in a child process and return the
    workload with the small state that ``prepare`` left on it.  The big
    frames the generator builds die with the child, so they never count
    in the driver's ``VmHWM``."""
    from perfbench import workloads

    subprocess.run([sys.executable, os.path.abspath(__file__),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "0", "--scale", repr(args.scale),
                    "--prepare-only", work], check=True)
    wl = workloads.make(args.workload, work, args.seed, args.scale)
    with open(os.path.join(work, PREPARED), "rb") as f:
        wl.__dict__.update(pickle.load(f))
    return wl


def prepare_only(args) -> int:
    from perfbench import workloads

    os.makedirs(args.prepare_only, exist_ok=True)
    wl = workloads.make(args.workload, args.prepare_only, args.seed, args.scale)
    wl.prepare()
    with open(os.path.join(args.prepare_only, PREPARED), "wb") as f:
        pickle.dump(vars(wl), f)
    return 0


def codec_canary_mb_s() -> float:
    """``oracle.codec.encode_chunk`` MB/s on bench.py's fixed 200 k-point
    series (seed 0), best of 3 after a warm-up — the codec-v1 drift
    canary recorded with every run."""
    import numpy as np

    from cesium_ray.oracle.codec import encode_chunk

    rng = np.random.default_rng(0)
    n = 200_000
    ts = (np.cumsum(rng.exponential(45e6, n)) + 1e15).astype(np.int64)
    vals = np.round(rng.lognormal(3, 1, n), 1)
    encode_chunk(ts[:1000], vals[:1000])
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        encode_chunk(ts, vals)
        best = min(best, time.perf_counter() - t0)
    return 16 * n / 1e6 / best


def environment() -> dict:
    import numpy
    import pandas
    import pyarrow
    import ray

    from perfbench.harness import RAY_CPUS, nproc

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_count": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "ray_cpus": RAY_CPUS, "cpu": cpu, "python": platform.python_version(),
            "ray": ray.__version__, "numpy": numpy.__version__,
            "pyarrow": pyarrow.__version__, "pandas": pandas.__version__}


def closed_loop(wl, seconds: float) -> dict:
    """Run whole units back to back until ``seconds`` have passed and at
    least ``wl.min_units`` units are done.  Latency percentiles use the
    first ``wl.min_units`` units only, so that every run takes them over
    the same mix of queries."""
    walls, lat, ok, rates = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        unit_lat, unit_ok, rows, rows_s = wl.op_batch()
        walls.append(time.perf_counter() - t0)
        if len(walls) <= wl.min_units:
            lat.extend(unit_lat)
        ok.extend(unit_ok)
        rates.append((rows / rows_s, len(unit_lat) / sum(unit_lat)))
        if time.perf_counter() >= deadline and len(walls) >= wl.min_units:
            break
    return {"units": len(walls), "wall_s": sum(walls), "lat": lat, "ok": ok,
            "rates": rates}


def e2e_metrics(loop: dict, labels: list, setup_s: float, peak_mb: float) -> tuple[dict, dict]:
    from perfbench.harness import median, tail

    lat = loop["lat"]
    pct, tail_v = tail(lat)
    vals = {
        "turns_per_s": median(r[0] for r in loop["rates"]),
        "queries_per_s": median(r[1] for r in loop["rates"]),
        "query_p50_ms": 1000 * median(lat),
        "query_tail_ms": 1000 * tail_v,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    info = {"tail_percentile": pct, "latency_samples": len(lat),
            "units": loop["units"], "measured_s": loop["wall_s"],
            "latencies_ms": [round(1000 * x, 3) for x in lat],
            "median_ms_by_query": {
                name: 1000 * median(lat[i::len(labels)])
                for i, name in enumerate(labels)}}
    return vals, info


def run(args, work: str, ray_dir: str) -> tuple[dict, dict]:
    """Prepare, set up, measure and check one workload; returns the run
    record and the result line."""
    from perfbench import harness, layers, trace

    import cesium_ray  # noqa: F401  (sets allocator env before Ray starts)

    traced = bool(args.trace)
    trace_dir = os.path.join(work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    if traced:
        os.environ[trace.ENV_DIR] = trace_dir
    t_start = time.perf_counter()
    wl = prepare(args, work)
    t_prepared = time.perf_counter()
    env = environment()
    env["codec_v1_canary_mb_s"] = codec_canary_mb_s()
    with harness.RssSampler() as rss:
        ray_s = harness.start_ray(ray_dir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = ray_s + harness.median(setups)
        loop = closed_loop(wl, args.seconds)
        if traced:
            # the same loop again on a fresh Ray whose workers run the
            # tracing hook; the untraced loop above ran with no wrappers
            harness.stop_ray(ray_dir)
            harness.start_ray(ray_dir, setup_hook="perfbench.trace.install")
            trace.install()
            wl.setup()
            trace.start(trace_dir)
            tloop = closed_loop(wl, args.seconds)
            trace.stop(trace_dir)
            spans, ops = trace.collect(trace_dir)
    harness.stop_ray(ray_dir)
    t_measured = time.perf_counter()
    if args.corrupt:
        wl.corrupt()
    bad = wl.check()
    phases = {"prepare_s": t_prepared - t_start,
              "measure_s": t_measured - t_prepared,
              "check_s": time.perf_counter() - t_measured}

    all_ok = loop["ok"] + (tloop["ok"] if traced else [])
    attempted = len(all_ok)
    failed = min(attempted, len(bad) + all_ok.count(False))
    vals, info = e2e_metrics(loop, wl.labels, setup_s, rss.peak_mb)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "input": wl.stats(), "end_to_end": vals, "loop": info,
              "setup": {"ray_s": ray_s, "repeats_s": setups}, "phases": phases,
              "failures": bad[:20], "fail_ratio": failed / attempted}
    if traced:
        per_layer, table = layers.per_layer(wl, spans, ops, loop, tloop, env)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        record["layers"] = table
        record["traced_end_to_end"] = e2e_metrics(tloop, wl.labels, setup_s, rss.peak_mb)[0]
        print(layers.format_table(table, tloop["units"]))
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in vals.items()}
    result = {"correct": not bad and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if args.prepare_only:
        return prepare_only(args)
    base = os.path.join(ROOT, ".pb")
    work = os.path.join(base, f"w-{os.getpid()}")

    from perfbench import harness

    harness.pin_cpus()
    harness.become_subreaper()
    ray_dir = harness.ray_temp_dir(base)
    try:
        record, result = run(args, work, ray_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        harness.stop_ray(ray_dir)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps({"perfbench": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
