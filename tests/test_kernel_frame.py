"""The per-key kernel frame of ``stages/partition.py``.

``Segments`` (one sort of a partition into per-key segments) against a
pandas sort/groupby/shift oracle and a hand-computed fixture;
``group_apply``'s zero-row rule (a kernel never sees an empty
partition); every per-key operator of ``tsmath``/``analytics``/``window``
on an empty events table; and an AST guard that keeps each kernel of
those modules on the shared frame."""

import ast
import inspect
import pathlib

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data

from cesium_ray.stages import analytics, partition, tsmath, window
from cesium_ray.stages.partition import Segments

TS_US = "datetime64[us]"


def _events(seed=0, n=400, nusers=30, singles=5, span_s=2400):
    """Random events with ``ts`` drawn from whole minutes of a
    ``span_s`` window (the default forces ties, broken by
    ``event_id``), ``singles`` one-row keys, an int64 and a float64
    value column."""
    rng = np.random.default_rng(seed)
    uid = np.r_[rng.integers(0, nusers, n), 1000 + np.arange(singles)]
    m = len(uid)
    return pd.DataFrame({
        "user_id": uid.astype(np.int64),
        "event_id": rng.permutation(m).astype(np.int64),
        "event_type": np.array(["signup", "view", "purchase", "click"])[
            rng.integers(0, 4, m)],
        "ts": (pd.Timestamp("2024-01-01") + pd.to_timedelta(
            rng.integers(0, span_s // 60, m) * 60, unit="s")).astype(TS_US),
        "value": rng.normal(10, 3, m).round(2),
        "cnt": rng.integers(-50, 50, m).astype(np.int64),
    })


def _oracle(df, order):
    """pandas' answer for ``Segments(df, order=order)``."""
    s = df.sort_values(["user_id", *order], kind="mergesort")
    g = s.groupby("user_id", sort=True)
    return s, g


@pytest.mark.parametrize("order", [("ts", "event_id"), (), ("value",)])
def test_segments_matches_pandas(order):
    df = _events()
    sg = Segments(df, order=order)
    s, g = _oracle(df, order)
    assert np.array_equal(sg.perm, s.index.to_numpy())
    size = g.size()
    assert np.array_equal(sg.keys, size.index.to_numpy())
    assert np.array_equal(sg.n, size.to_numpy())
    assert sg.n.dtype == np.int64
    assert np.array_equal(sg.starts, np.r_[0, np.cumsum(sg.n)[:-1]])
    assert np.array_equal(sg.ends, np.cumsum(sg.n))
    assert np.array_equal(sg.gid, g.ngroup().to_numpy())
    assert np.array_equal(sg.codes, sg.gid)
    assert np.array_equal(sg.pos, g.cumcount().to_numpy())
    for lag in (1, 2, 3):
        want = (s["user_id"].shift(lag) == s["user_id"]).to_numpy()
        assert np.array_equal(sg.same(lag), want)
    assert np.array_equal(sg["ts"], s["ts"].to_numpy(TS_US).view(np.int64))
    assert np.array_equal(sg["event_type"], s["event_type"].to_numpy())
    extra = np.arange(len(df)) * 7
    assert np.array_equal(sg[extra], extra[s.index.to_numpy()])
    for col in ("cnt", "value"):
        a = sg[col]
        assert a.dtype == df[col].dtype
        want = g[col]
        if col == "cnt":
            assert np.array_equal(sg.sum(a), want.sum().to_numpy())
        else:
            np.testing.assert_allclose(sg.sum(a), want.sum().to_numpy(),
                                       rtol=1e-12)
        assert np.array_equal(sg.min(a), want.min().to_numpy())
        assert np.array_equal(sg.max(a), want.max().to_numpy())
        assert np.array_equal(sg.first(a), want.first().to_numpy())
        assert np.array_equal(sg.last(a), want.last().to_numpy())
        for lag in (1, 2):
            d = sg.diff(a, lag)
            assert d.dtype == a.dtype
            assert np.array_equal(
                d, want.diff(lag).fillna(0).to_numpy().astype(a.dtype))


def test_segments_other_key_and_array_order():
    df = _events(seed=3)
    day = df["ts"].to_numpy(TS_US).view(np.int64) // 86_400_000_000
    sg = Segments(df, key="event_type", order=(-df["cnt"].to_numpy(),))
    s = df.assign(_neg=-df["cnt"]).sort_values(
        ["event_type", "_neg"], kind="mergesort")
    assert np.array_equal(sg.perm, s.index.to_numpy())
    assert list(sg.keys) == sorted(df["event_type"].unique())
    assert np.array_equal(sg[day], day[s.index.to_numpy()])


def test_segments_hand_fixture():
    df = pd.DataFrame({
        "user_id": np.array([2, 1, 2, 1, 3, 2], np.int64),
        "event_id": np.array([10, 11, 12, 13, 14, 15], np.int64),
        "ts": pd.to_datetime([5, 7, 5, 3, 9, 1], unit="s").astype(TS_US),
        "value": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    })
    sg = Segments(df)
    # user 1: (3 s, #13), (7 s, #11); user 2: (1 s, #15), (5 s, #10),
    # (5 s, #12) — the ts tie broken by event_id; user 3: (9 s, #14)
    assert sg.perm.tolist() == [3, 1, 5, 0, 2, 4]
    assert sg.keys.tolist() == [1, 2, 3]
    assert sg.starts.tolist() == [0, 2, 5]
    assert sg.ends.tolist() == [2, 5, 6]
    assert sg.n.tolist() == [2, 3, 1]
    assert sg.codes.tolist() == [0, 0, 1, 1, 1, 2]
    assert sg.gid.tolist() == [0, 0, 1, 1, 1, 2]
    assert sg.pos.tolist() == [0, 1, 0, 1, 2, 0]
    assert sg.same().tolist() == [False, True, False, True, True, False]
    assert sg.same(2).tolist() == [False, False, False, False, True, False]
    assert (sg["ts"] // 10**6).tolist() == [3, 7, 1, 5, 5, 9]
    v = sg["value"]
    assert v.tolist() == [4.0, 2.0, 6.0, 1.0, 3.0, 5.0]
    assert sg.sum(v).tolist() == [6.0, 10.0, 5.0]
    assert sg.min(v).tolist() == [2.0, 1.0, 5.0]
    assert sg.max(v).tolist() == [4.0, 6.0, 5.0]
    assert sg.first(v).tolist() == [4.0, 6.0, 5.0]
    assert sg.last(v).tolist() == [2.0, 3.0, 5.0]
    assert sg.diff(v).tolist() == [0.0, -2.0, 0.0, -5.0, 2.0, 0.0]
    assert sg.diff(v, 2).tolist() == [0.0, 0.0, 0.0, 0.0, -3.0, 0.0]
    # order=() keeps each key's rows in frame order
    assert Segments(df, order=()).perm.tolist() == [1, 3, 0, 2, 5, 4]


def _nonempty():
    """A kernel that must never see zero rows: one row per call.  Built
    in a function so Ray pickles it by value."""
    def fn(df):
        assert len(df) > 0
        return pd.DataFrame({"rows": [len(df)]})
    return fn


def test_group_apply_skips_empty_partitions(monkeypatch):
    """The exchange path with fewer keys than partitions: ``fn`` runs
    once per partition that holds a key, never on the empty ones."""
    monkeypatch.setattr(partition, "partition_count", lambda: 8)
    df = _events(seed=5, nusers=3, singles=0)
    got = partition.group_apply(ray.data.from_pandas(df), _nonempty(),
                                key="user_id").to_pandas()
    keys = df["user_id"].unique()
    parts = np.unique(partition._stable_hash(keys) % np.uint64(8))
    assert len(got) == len(parts) < 8
    assert got["rows"].sum() == len(df)


def test_group_apply_empty_input():
    df = _events().head(0)
    got = partition.group_apply(ray.data.from_pandas(df), _nonempty(),
                                key="user_id").to_pandas()
    assert len(got) == 0


def test_collect_sorted_types_an_empty_result():
    dtypes = {"user_id": "int64", "name": object, "x": "float64"}
    empty = ray.data.from_pandas(pd.DataFrame({"a": [1]})).filter(
        lambda r: False)
    got = partition.collect_sorted(empty, dtypes)
    assert len(got) == 0 and list(got.columns) == list(dtypes)
    assert [str(t) for t in got.dtypes] == ["int64", "object", "float64"]
    rows = ray.data.from_pandas(pd.DataFrame({"user_id": [3, 1, 2],
                                              "x": [0.3, 0.1, 0.2]}))
    got = partition.collect_sorted(rows, dtypes)
    assert got["user_id"].tolist() == [1, 2, 3]
    assert got.index.tolist() == [0, 1, 2]


# every public operator of the three modules whose result is a pandas
# frame with one row per key (or per key and bucket), with the
# arguments it needs beyond the dataset
PER_KEY = {
    tsmath: ["abs_max_profile", "acf_lags", "ar1_fit", "binned_entropy",
             "burst_detect", "burstiness", "c3_nonlinearity",
             "changepoint_split", "chunk_trend_profile", "circadian_phase",
             "complexity_profile", "count_acf", "count_dispersion",
             "cusum_alarms", "daily_profile_drift", "day_streak",
             "durbin_watson", "energy_chunks", "exp_gap_fit",
             "extreme_locations", "fractal_dims", "gini_values",
             "grubbs_stat", "gumbel_maxima", "haar_energy", "hjorth_params",
             "hour_runs", "hurst_rs", "index_mass_quantile", "kendall_tau",
             "linear_trend_per_key", "ljung_box", "lmoments",
             "longest_streak", "lttb_downsample", "mann_kendall",
             "max_drawdown", "monotone_runs", "number_peaks", "pacf_lags",
             "page_hinkley", "peak_rate", "perm_entropy", "psd_profile",
             "quartile_cv", "ratio_beyond_sigma", "reoccurrence_profile",
             "robust_anomalies", "run_stats", "sample_entropy",
             "scd2_history", "seasonal_naive_mase", "seasonal_power",
             "spearman_trend", "strike_profile", "teager_energy",
             "theilsen_trend", "time_reversal", "time_since_event",
             "trend_seasonal_strength", "trimmed_mean", "turning_points",
             "variance_ratio", "weibull_gaps", "xcorr_gap"],
    analytics: ["bootstrap_mean_ci", "cox_stuart", "decayed_topk",
                "jarque_bera", "lateness_report", "markov_entropy_rate",
                "record_highs", "rfm_segmentation", "rising_keys",
                "runs_test", "sequence_pattern_count", "type_entropy",
                "welch_ttest"],
    window: ["rolling_window_median"],
}
ARGS = {"time_since_event": {"marker": "purchase"},
        "sequence_pattern_count": {"pattern": "vp"}}


@pytest.fixture(scope="module")
def events():
    return _events(seed=11, n=1500, nusers=12, singles=2,
                   span_s=60 * 86_400)


@pytest.mark.parametrize("op", [(m, name) for m, names in PER_KEY.items()
                                for name in names],
                         ids=lambda op: f"{op[0].__name__.split('.')[-1]}."
                                        f"{op[1]}")
def test_per_key_operator_on_empty_events(events, op):
    """On a zero-row events table a per-key operator returns zero rows
    with the columns and dtypes it returns on a non-empty one."""
    fn = getattr(*op)
    kw = ARGS.get(op[1], {})
    full = fn(ray.data.from_pandas(events), **kw)
    empty = fn(ray.data.from_pandas(events.head(0)), **kw)
    assert isinstance(empty, pd.DataFrame) and len(empty) == 0
    assert len(full) > 0 and "user_id" in full.columns
    assert list(empty.columns) == list(full.columns)
    assert empty.dtypes.to_dict() == full.dtypes.to_dict()


# kernels that keep their own sort or zero-row branch, with the reason
FRAME_EXEMPT = {
    ("window", "rolling_window_median.per_key"):
        "sorts replicated (window cell, value) pairs, not rows by key",
    ("window", "window_range_agg_pandas"):
        "public pandas function keyed by caller-chosen columns, called "
        "on any frame (tests call it directly)",
    ("window", "sessionize_pandas"):
        "public pandas function keyed by caller-chosen columns, called "
        "on any frame (extra_queries runs it outside group_apply)",
}


def _kernels(tree):
    """{name: FunctionDef} of every function a ``group_apply`` call of
    the module runs: a name (the enclosing operator's nested def, else
    a module-level one), a ``functools.partial`` of one, or a lambda
    that calls one.  Nested kernels are named ``operator.kernel``."""
    top = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    out = {}
    for op in top.values():
        nested = {n.name: n for n in ast.walk(op)
                  if isinstance(n, ast.FunctionDef) and n is not op}
        for node in ast.walk(op):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "group_apply"
                    and len(node.args) > 1):
                continue
            fn = node.args[1]
            if isinstance(fn, ast.Call) and fn.args:   # functools.partial
                fn = fn.args[0]
            if isinstance(fn, ast.Lambda) and isinstance(fn.body,
                                                         ast.Call):
                fn = fn.body.func
            if not isinstance(fn, ast.Name):
                continue
            if fn.id in nested:
                out[f"{op.name}.{fn.id}"] = nested[fn.id]
            elif fn.id in top:
                out[fn.id] = top[fn.id]
    return out


def _zero_row_test(test, arg):
    src = ast.unparse(test)
    return src in (f"not len({arg})", f"len({arg}) == 0", f"{arg}.empty")


@pytest.mark.parametrize("mod", [tsmath, analytics, window],
                         ids=lambda m: m.__name__.split(".")[-1])
def test_kernels_use_the_shared_frame(mod):
    """No ``group_apply`` kernel starts with a zero-row ``if`` or sorts
    with its own ``pd.factorize(df[USER_ID])`` + ``np.lexsort``."""
    name = mod.__name__.split(".")[-1]
    tree = ast.parse(pathlib.Path(inspect.getfile(mod)).read_text())
    kernels = _kernels(tree)
    assert len(kernels) > {"tsmath": 60, "analytics": 20,
                           "window": 5}[name]
    bad = []
    for kname, node in sorted(kernels.items()):
        if (name, kname) in FRAME_EXEMPT:
            continue
        body = [s for s in node.body
                if not (isinstance(s, ast.Expr)
                        and isinstance(s.value, ast.Constant))]
        arg = node.args.args[0].arg
        if body and isinstance(body[0], ast.If) and _zero_row_test(
                body[0].test, arg):
            bad.append(f"{kname}: zero-row branch")
        calls = {ast.unparse(c) for c in ast.walk(node)
                 if isinstance(c, ast.Call)}
        if (any(c.startswith("np.lexsort(") for c in calls)
                and f"pd.factorize({arg}[USER_ID])" in calls):
            bad.append(f"{kname}: own factorize + lexsort")
    assert not bad, bad
    for (m, kname), why in FRAME_EXEMPT.items():
        assert why and (m != name or kname in kernels), kname
