"""The per-query result digest of scripts/driver_check.py: equal for the
same rows in any row or column order, different when a column's dtype
changes (the driver's hasher tells int64 from float64)."""

import importlib.util
import os

import pandas as pd

_SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_SCRIPTS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_ignores_order_but_not_dtype():
    dc = _script("driver_check")
    df = pd.DataFrame({"k": [3, 1, 2, 1], "v": [0.5, 1.5, 2.5, -1.0],
                       "s": ["x", "y", "z", "w"]})
    shuffled = df.iloc[[2, 0, 3, 1]][["s", "v", "k"]]
    assert dc.digest(shuffled) == dc.digest(df)
    assert dc.digest(df.assign(v=[0.5, 1.5, 2.5, -2.0])) != dc.digest(df)
    # all-zero columns hash to the same value bytes in either dtype, so
    # only the dtype list can tell them apart
    ints = pd.DataFrame({"k": [1, 2], "n": [0, 0]})
    floats = ints.astype({"n": "float64"})
    assert (ints["n"] == floats["n"]).all()
    assert dc.digest(ints) != dc.digest(floats)


def test_partition_invariance_pairs():
    pi = _script("partition_invariance")
    run = ("entry(): 3 rows in 1.0s; turns=10, rollup_rows=20\n"
           f"  q2 {'1' * 64} OK (1, 1) in 0.1s\n"
           f"  q1 {'0' * 64} rows-only: (1, 1) in 0.2s\n")
    want = [f"q1 {'0' * 64}", f"q2 {'1' * 64}"]
    assert pi.pairs(run + "FAILURES: 0\n") == want
    assert pi.pairs(run.replace("1" * 64, "2" * 64) + "FAILURES: 0\n") != want
    # a run that died before its summary never counts as a pass
    assert pi.pairs(run) is None
