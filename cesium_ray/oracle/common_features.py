"""General per-series features A1–A15 (SURVEY.md §2.5).

Semantics follow cesium/features/common_functions.py (symbols cited per
function).  All functions take float64 NumPy arrays and return float64
scalars; NaN on degenerate input rather than raising, mirroring
cesium's ``raise_exceptions=False`` NaN-on-failure behavior
(cesium/featurize.py::featurize_single_ts).

No scipy in this environment: ``skew`` is the biased Fisher g1 moment
formula, identical to ``scipy.stats.skew(m, bias=True)``.
"""

from __future__ import annotations

import numpy as np

# fraction of the (max-min) range used by percent_close_to_median; one
# constant as SURVEY §2.5 A9 requires (semantics of
# cesium/features/common_functions.py::percent_close_to_median).
CLOSE_TO_MEDIAN_WINDOW_FRAC = 0.1


def maximum(m):  # cesium/features/common_functions.py::maximum
    return float(np.max(m))


def minimum(m):  # ::minimum
    return float(np.min(m))


def median(m):  # ::median
    return float(np.median(m))


def mean(m):  # SURVEY §2.5 A2
    return float(np.mean(m))


def weighted_average(m, e):  # ::weighted_average — error-weighted mean
    w = 1.0 / (np.asarray(e, dtype=np.float64) ** 2)
    return float(np.average(m, weights=w))


def std(m):  # ::std — population std, ddof=0
    return float(np.std(m))


def skew(m):  # scipy.stats.skew(m) biased Fisher g1 (SURVEY §2.5 A5)
    m = np.asarray(m, dtype=np.float64)
    mu = m.mean()
    m2 = np.mean((m - mu) ** 2)
    if m2 == 0:
        return 0.0
    m3 = np.mean((m - mu) ** 3)
    return float(m3 / m2**1.5)


def amplitude(m):  # ::amplitude
    return float((np.max(m) - np.min(m)) / 2.0)


def percent_amplitude(m):  # ::percent_amplitude
    med = np.median(m)
    if med == 0:
        return float("nan")
    return float(max(abs(np.max(m) - med), abs(np.min(m) - med)) / abs(med))


def median_absolute_deviation(m):  # ::median_absolute_deviation
    return float(np.median(np.abs(m - np.median(m))))


def percent_close_to_median(m):  # ::percent_close_to_median
    window = (np.max(m) - np.min(m)) * CLOSE_TO_MEDIAN_WINDOW_FRAC
    return float(np.mean(np.abs(m - np.median(m)) < window))


def percent_beyond_1_std(m, e):  # ::percent_beyond_1_std
    wa = weighted_average(m, e)
    return float(np.mean(np.abs(m - wa) > np.std(m)))


_FLUX_QS = [5.0, 10.0, 17.5, 25.0, 32.5, 40.0, 50.0, 60.0, 67.5, 75.0, 82.5, 90.0, 95.0]
_FLUX_IDX = {q: i for i, q in enumerate(_FLUX_QS)}


def flux_percentiles(m):
    """Shared intermediate: ONE percentile pass for the whole flux
    family (each ratio would otherwise re-sort the series)."""
    return np.percentile(m, _FLUX_QS, method="linear")


def flux_percentile_ratio(m, k, pcts=None):  # ::flux_percentile_ratio_mid{k}
    """(P(50+k/2) − P(50−k/2)) / (P95 − P5)  for k ∈ {20,35,50,65,80}."""
    if pcts is None:
        pcts = flux_percentiles(m)
    denom = pcts[_FLUX_IDX[95.0]] - pcts[_FLUX_IDX[5.0]]
    if denom == 0:
        return float("nan")
    return float(
        (pcts[_FLUX_IDX[50 + k / 2]] - pcts[_FLUX_IDX[50 - k / 2]]) / denom
    )


def percent_difference_flux_percentile(m, pcts=None):  # ::percent_difference_flux_percentile
    if pcts is None:
        pcts = flux_percentiles(m)
    med = pcts[_FLUX_IDX[50.0]]
    if med == 0:
        return float("nan")
    return float((pcts[_FLUX_IDX[95.0]] - pcts[_FLUX_IDX[5.0]]) / abs(med))


def max_slope(t, m):  # ::max_slope
    dt = np.diff(t)
    if len(dt) == 0:
        return float("nan")
    ok = dt != 0
    if not ok.any():
        return float("nan")
    return float(np.max(np.abs(np.diff(m)[ok] / dt[ok])))


def _stetson_delta(m, e):
    """δ = sqrt(n/(n−1)) · (m − mean) / e (SURVEY §2.5 A14)."""
    m = np.asarray(m, dtype=np.float64)
    n = len(m)
    if n < 2:
        return None
    return np.sqrt(n / (n - 1.0)) * (m - m.mean()) / np.asarray(e, dtype=np.float64)


def stetson_j(m, e):
    """Stetson (1996) J: mean of sign(P_i)·sqrt(|P_i|), P_i = δ_i·δ_{i+1}
    over successive pairs (SURVEY §2.5 A14 semantics of
    cesium/features/common_functions.py::stetson_j)."""
    d = _stetson_delta(m, e)
    if d is None or len(d) < 2:
        return float("nan")
    p = d[:-1] * d[1:]
    return float(np.mean(np.sign(p) * np.sqrt(np.abs(p))))


def stetson_k(m, e):
    """Stetson K = mean|δ| / sqrt(mean δ²) ≈ 0.798 for Gaussian
    (cesium/features/common_functions.py::stetson_k)."""
    d = _stetson_delta(m, e)
    if d is None:
        return float("nan")
    denom = np.sqrt(np.mean(d**2))
    if denom == 0:
        return float("nan")
    return float(np.mean(np.abs(d)) / denom)
