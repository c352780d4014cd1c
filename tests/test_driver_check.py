"""The per-query result digest of scripts/driver_check.py: equal for the
same rows in any row or column order, different when a column's dtype
changes (the driver's hasher tells int64 from float64)."""

import importlib.util
import os

import pandas as pd

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                     "scripts", "driver_check.py")


def _driver_check():
    spec = importlib.util.spec_from_file_location("driver_check", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_digest_ignores_order_but_not_dtype():
    dc = _driver_check()
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
