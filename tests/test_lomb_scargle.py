"""Lomb-Scargle recovery tests (SURVEY.md §5.1 — semantics of
cesium/features/tests/test_lomb_scargle.py: recover injected frequency
on regular and irregular grids, amplitude/phase invariances)."""

import numpy as np
import pytest

from cesium_ray.oracle import lomb_scargle as ls
from cesium_ray.oracle.lomb_scargle import lomb_scargle_model, period_fast
from cesium_ray.oracle.graphs import compute_features
from cesium_ray.synth import irregular_random, regular_periodic


def _direct_scan(t, y, w, df, numf, cache=None):
    """The scan by direct sums over the whole grid (the reference)."""
    return ls._gls_periodogram(t, y, w, df * np.arange(1, numf + 1))


def _same(a, b):
    """Bit-equality of LS outputs (dicts, arrays, floats), NaN == NaN."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if a is None or b is None:
        return a is b
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def test_recover_frequency_regular():
    t, m, e = regular_periodic(freq=0.31, n=400, T=100)
    model = lomb_scargle_model(t, m, e)
    assert model["freq"][0] == pytest.approx(0.31, rel=1e-3)


def test_recover_frequency_irregular():
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0, 100, 400))
    m = np.sin(2 * np.pi * 0.57 * t + 0.3) + 0.05 * rng.normal(size=400)
    e = np.full(400, 0.05)
    model = lomb_scargle_model(t, m, e)
    assert model["freq"][0] == pytest.approx(0.57, rel=1e-2)


def test_amplitude_recovery():
    t, m, e = regular_periodic(freq=0.2, n=500, T=100, amplitudes=(2.0,))
    model = lomb_scargle_model(t, m, e)
    assert model["amplitude"][0, 0] == pytest.approx(2.0, rel=5e-2)
    # higher harmonics ~ 0 for a pure sinusoid
    assert model["amplitude"][0, 1] < 0.1


def test_harmonic_amplitudes():
    t, m, e = regular_periodic(freq=0.2, n=500, T=100, amplitudes=(2.0, 0.8))
    model = lomb_scargle_model(t, m, e)
    assert model["amplitude"][0, 0] == pytest.approx(2.0, rel=0.1)
    assert model["amplitude"][0, 1] == pytest.approx(0.8, rel=0.2)


def test_period_fast():
    t, m, _ = regular_periodic(freq=0.25, n=400, T=100)
    assert period_fast(t, m) == pytest.approx(4.0, rel=1e-2)


def test_varrat_small_for_periodic():
    t, m, e = regular_periodic(freq=0.31, n=400, T=100)
    model = lomb_scargle_model(t, m, e)
    assert model["varrat"] < 0.05  # model explains nearly all variance


def test_signif_orders_noise_below_signal():
    t, m, e = regular_periodic(freq=0.31, n=300, T=100)
    sig = lomb_scargle_model(t, m, e)["signif"][0]
    tn, mn, en = irregular_random(seed=0, n=300, T=100)
    noise_sig = lomb_scargle_model(tn, mn, en)["signif"][0]
    assert sig > noise_sig


def test_degenerate_inputs_nan_not_raise(monkeypatch):
    out = lomb_scargle_model(np.array([0.0]), np.array([1.0]), np.array([0.1]))
    assert np.isnan(out["freq"]).all()
    f = compute_features([0.0, 1.0], [1.0, 2.0], [0.1, 0.1],
                         features_to_use=["freq1_freq", "amplitude"])
    assert np.isnan(f["freq1_freq"])
    assert f["amplitude"] == 0.5

    rng = np.random.default_rng(3)
    gaps = rng.exponential(60.0, 50)
    cases = []
    for t0 in (0.0, 1.76e9):
        t = t0 + np.cumsum(gaps) - gaps[0]
        for c in (3.7, 1.0, 0.1):
            cases.append((t, np.full(50, c)))
        # the smallest grid: n = 4 (numf = 8 at ofac 4)
        cases.append((t0 + np.array([0.0, 0.7, 2.9, 6.1]), np.array([1.0, 3.0, 2.0, 5.0])))

    def run():
        return [(lomb_scargle_model(t, m, np.full(len(t), 0.1)),
                 lomb_scargle_model(t, m, np.full(len(t), 0.1), ofac=2.0, day=86400.0),
                 period_fast(t, m)) for t, m in cases]

    got = run()
    for (t, m), (o, _, pf) in zip(cases, got):
        if len(t) == 4:
            continue
        # a constant series: zero scan power, so the grid peak is the
        # first grid point and the fit the first refinement point
        df = ls._freq_grid(t, 4.0)[0]
        assert (o["freq"] == (df + np.linspace(-df, df, 21))[1]).all()
        assert (o["amplitude"] == 0).all() and np.isnan(o["varrat"])
        assert pf == 1.0 / df
    # n = 4, t from 0 and from epoch seconds: the recorded frequencies
    assert got[3][0]["freq"].tolist() == pytest.approx(
        [0.2581967213114754, 0.3278688524590164, 0.27868852459016397], rel=1e-12)
    assert got[7][0]["freq"].tolist() == pytest.approx(
        [0.2581967253481243, 0.3278688575849198, 0.27868852894718177], rel=1e-12)
    assert got[3][2] == pytest.approx(4.066666666666666, rel=1e-12)
    monkeypatch.setattr(ls, "_gls_uniform", _direct_scan)
    assert _same(got, run())


def test_feature_accessors():
    t, m, e = regular_periodic(freq=0.31, n=300, T=100)
    f = compute_features(
        t, m, e,
        features_to_use=["freq1_freq", "freq1_amplitude1", "freq_varrat",
                         "freq_frequency_ratio_21", "freq1_lambda", "linear_trend"],
    )
    assert f["freq1_freq"] == pytest.approx(0.31, rel=1e-3)
    assert f["freq1_amplitude1"] == pytest.approx(1.0, rel=0.05)
    assert f["freq1_lambda"] == 5.0
    assert abs(f["linear_trend"]) < 0.01


def test_subset_skips_expensive_nodes():
    """Requesting only cheap features must not trigger the LS fit
    (cesium graph-pruning semantics, test_graphs.py analogue)."""
    import cesium_ray.oracle.graphs as gr
    called = {"ls": False}
    orig = gr.FEATURE_GRAPH["_ls_model"]
    gr.FEATURE_GRAPH["_ls_model"] = (
        (lambda *a: called.__setitem__("ls", True) or orig[0](*a)),
        *orig[1:],
    )
    try:
        compute_features([0, 1, 2], [1.0, 2.0, 3.0], features_to_use=["median", "cads_avg"])
        assert not called["ls"]
    finally:
        gr.FEATURE_GRAPH["_ls_model"] = orig


def test_custom_functions_both_forms():
    f = compute_features(
        [0, 1, 2], [1.0, 2.0, 4.0],
        features_to_use=["my_range", "double_median"],
        custom_functions={
            "my_range": lambda t, m, e: float(np.ptp(m)),
            "double_median": ((lambda med: 2 * med), "median"),
        },
    )
    assert f["my_range"] == 3.0
    assert f["double_median"] == 4.0


def _scan_input(rng, n, unit_w, t_kind):
    """Seeded scan input: turns seconds apart with hour-long pauses, a
    sinusoid plus noise, and weights summing to 1."""
    gaps = np.where(rng.random(n) < 0.1, rng.exponential(3600.0, n),
                    rng.exponential(20.0, n))
    t = np.cumsum(gaps) - gaps[0]
    if t_kind != "zero":
        t = t + 1.76e9
    if t_kind == "rounded":  # whole seconds: duplicate timestamps
        t = np.round(t)
    y = (np.sin(2 * np.pi * t / rng.uniform(600.0, 20000.0) + rng.uniform(0, 6))
         + rng.normal(size=n))
    w = np.ones(n) if unit_w else rng.uniform(0.2, 1.0, n)
    return t, y, w / w.sum()


@pytest.mark.parametrize("n,seeds", [(4, 40), (5, 40), (8, 20), (50, 4),
                                     (300, 2), (1500, 1), (3000, 1), (25_000, 1)])
def test_scan_matches_direct_sums(n, seeds):
    """The NUFFT scan against the direct sums over the whole grid: the
    same argmax (bar exact ties), and powers within 1e-8 of the peak.
    The reference is evaluated on t − t[0]: on raw epoch seconds the
    direct sums carry phase rounding of their own."""
    rng = np.random.default_rng(n)
    configs = [(ofac, unit_w, kind) for ofac in (2.0, 4.0) for unit_w in (True, False)
               for kind in ("zero", "epoch", "rounded")]
    if n == 25_000:  # MAX_NUMF-capped; one config keeps the reference cheap
        configs = [(2.0, False, "rounded")]
    checked = 0
    for _ in range(seeds):
        for ofac, unit_w, kind in configs:
            t, y, w = _scan_input(rng, n, unit_w, kind)
            freqs = ls._freq_grid(t, ofac)
            if freqs is None:
                continue
            p = ls._gls_uniform(t, y, w, freqs[0], len(freqs))
            ref = ls._gls_periodogram(t - t[0], y, w, freqs)
            assert np.abs(p - ref).max() <= 1e-8 * ref.max()
            top2 = np.sort(ref)[-2:]
            if top2[1] - top2[0] > 1e-12 * top2[1]:
                assert p.argmax() == ref.argmax()
            checked += 1
    assert checked >= seeds * len(configs) // 2


def test_ls_features_match_direct_scan(tmp_path, monkeypatch):
    """Every lomb_scargle_model output and period_fast of LS-hot
    conversations equals the direct-sum scan's, bit for bit."""
    import pyarrow.parquet as pq

    from cesium_ray.constants import DEFAULT_ERROR_VALUE
    from cesium_ray.oracle.rollup import derive_channels_pandas
    from cesium_ray.synth import write_turns

    write_turns(str(tmp_path), n_convs=20, seed=0, shards=1, max_turns=1500)
    turns = pq.read_table(str(tmp_path)).to_pandas()
    sizes = turns.groupby("conv_id").size()
    hot = sorted(sizes[sizes >= 1000].index)
    assert len(hot) >= 2
    pts = derive_channels_pandas(turns[turns["conv_id"].isin(hot)])
    series = []
    for conv in hot:
        for channel in ("turn_latency", "text_len"):
            s = pts[(pts["conv_id"] == conv) & (pts["channel"] == channel)]
            s = s.sort_values("turn_idx", kind="mergesort").dropna(subset=["value"])
            ts = s["ts"].to_numpy("datetime64[us]").astype(np.int64)
            series.append(((ts - ts[0]) / 1e6, s["value"].to_numpy(np.float64)))

    def run():
        out = []
        for t, m in series:
            e = np.full(len(t), DEFAULT_ERROR_VALUE)
            out.append((lomb_scargle_model(t, m, e, ofac=2.0, day=86400.0),
                        lomb_scargle_model(t, m, e), period_fast(t, m)))
        return out

    got = run()
    monkeypatch.setattr(ls, "_gls_uniform", _direct_scan)
    assert _same(got, run())
