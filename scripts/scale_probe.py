"""10x-input scale probe (VERDICT round-4 next-step #2).

Runs the headline pipelines at 10x the standard 2M-turn bench input —
flagship_full + featurize at 20M turns (via bench.py's env knobs, so
the measured code path is IDENTICAL to the recorded benches) and the
curation trio (decontaminate / vocab_topk / pack_sequences) at 1M docs
(10x the 100k bench corpus) — then reports:

- wall seconds + rows/sec for each workload,
- time-vs-rows linearity factors against the recorded 2M / 100k
  numbers passed via --base-full/--base-feat/--base-docs (sec at 1x),
- object-store spill evidence: every ray session's raylet log is
  scanned for spill lines; total spilled bytes and restore counts are
  reported (the pass criterion is "no spill pathology": zero or
  bounded spill with no OOM kills).

Usage:
  python scripts/scale_probe.py [--turns 20000000] [--docs 1000000]
Writes one JSON line to stdout; progress to stderr.
"""
import argparse
import glob
import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = "/tmp/cesium_ray_bench"


def _spill_stats() -> dict:
    """Scan all ray session raylet logs for spill/restore totals."""
    spilled_b = 0
    restored_b = 0
    nlines = 0
    for f in glob.glob("/tmp/ray/session_*/logs/raylet.out*"):
        try:
            txt = open(f, errors="ignore").read()
        except OSError:
            continue
        for m in re.finditer(r"Spilled (\d+) MiB", txt):
            spilled_b = max(spilled_b, int(m.group(1)) * (1 << 20))
            nlines += 1
        for m in re.finditer(r"Restored (\d+) MiB", txt):
            restored_b = max(restored_b, int(m.group(1)) * (1 << 20))
    return {"spilled_bytes": spilled_b, "restored_bytes": restored_b,
            "spill_log_lines": nlines}


def run_turns(n_turns: int) -> dict:
    env = dict(os.environ,
               GRAFT_BENCH_TURNS=str(n_turns),
               GRAFT_BENCH_ONLY="flagship_full,featurize",
               GRAFT_BENCH_WARMUP="0",
               GRAFT_NO_ISOLATE="1")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench.py")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_docs(n_docs: int) -> dict:
    import pyarrow.parquet as pq
    import ray
    import ray.data

    sys.path.insert(0, ROOT)
    import cesium_ray  # noqa: F401  (malloc env before ray.init)
    import pandas as pd
    from cesium_ray.synth import generate_documents
    from cesium_ray.stages.decontam import decontaminate
    from cesium_ray.stages.pack import pack_sequences, vocab_topk

    path = os.path.join(CACHE, f"docs-{n_docs // 1000}k-42")
    if not os.path.exists(os.path.join(path, "_DONE")):
        os.makedirs(path, exist_ok=True)
        tbl = generate_documents(n_docs, seed=42)
        per = max(1, len(tbl) // 64)
        for i, s in enumerate(range(0, len(tbl), per)):
            pq.write_table(
                tbl.slice(s, min(per, len(tbl) - s)),
                os.path.join(path, f"docs-{i:05d}.parquet"))
        open(os.path.join(path, "_DONE"), "w").write("ok")

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    ds = ray.data.read_parquet(path)
    n = ds.count()
    res = {"n_docs": n}

    bench_texts = (ds.map_batches(
        lambda df: df[df["doc_id"] % 500 == 0][["text"]],
        batch_format="pandas").to_pandas()["text"].tolist())
    t0 = time.time()
    hits = decontaminate(ds, bench_texts, n=8).map_batches(
        lambda df: pd.DataFrame({"c": [int(df["contaminated"].sum())]}),
        batch_format="pandas").to_pandas()["c"].sum()
    res["decontaminate_sec"] = round(time.time() - t0, 3)
    res["decontam_flagged"] = int(hits)

    t0 = time.time()
    vocab_topk(ds, k=100)
    res["vocab_topk_sec"] = round(time.time() - t0, 3)

    with_src = ds.map_batches(
        lambda df: df.assign(source=(df["doc_id"] % 64).astype("int64")),
        batch_format="pandas")
    t0 = time.time()
    packed = pack_sequences(with_src, capacity=1024)
    res["packed_rows"] = packed.count()  # count() forces execution
    res["pack_sec"] = round(time.time() - t0, 3)
    ray.shutdown()
    return res


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--turns", type=int, default=20_000_000)
    ap.add_argument("--docs", type=int, default=1_000_000)
    ap.add_argument("--base-full", type=float, default=None,
                    help="flagship_full sec at 2M turns (linearity ref)")
    ap.add_argument("--base-feat", type=float, default=None)
    a = ap.parse_args()

    line = {"metric": "scale_probe", "turns": a.turns, "docs": a.docs}
    print("turns leg...", file=sys.stderr, flush=True)
    tb = run_turns(a.turns)
    line["flagship_full_sec"] = tb["queries"]["flagship_full"]
    line["featurize_sec"] = tb["queries"]["featurize"]
    line["full_turns_per_sec"] = tb["throughput"]["full_turns_per_sec"]
    line["featurize_turns_per_sec"] = tb["throughput"][
        "featurize_turns_per_sec"]
    scale = a.turns / 2_000_000
    if a.base_full:
        line["full_linearity_vs_2m"] = round(
            tb["queries"]["flagship_full"] / (a.base_full * scale), 3)
    if a.base_feat:
        line["featurize_linearity_vs_2m"] = round(
            tb["queries"]["featurize"] / (a.base_feat * scale), 3)
    print("docs leg...", file=sys.stderr, flush=True)
    line.update(run_docs(a.docs))
    line.update(_spill_stats())
    print(json.dumps(line))
