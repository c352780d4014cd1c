"""Lomb-Scargle family P1–P3 (SURVEY.md §2.7).

Reimplements the *semantics* of cesium/features/lomb_scargle.py::
lomb_scargle_model (generalized floating-mean Lomb-Scargle with
harmonics, iterative pre-whitening over ``nfreq`` frequencies,
``tone_control`` regularization of higher harmonics) as vectorized
NumPy — no Cython.  The reference checkout is absent (SURVEY §0), so
the exact numerical recipe below IS the spec of record; the oracle and
the Ray engine import this same function, so parity holds by
construction (SURVEY §7 hard-part (c)).

Model per selected frequency f (ω = 2πf):

    y(t) ≈ c + Σ_{h=1..nharm} A_h · sin(hωt + φ_h)

fitted by weighted ridge regression with weights w_i = 1/(e_i² +
sys_err²) and penalty λ_h = tone_control · (h² − 1) on the harmonic
coefficients (λ_1 = 0: the fundamental is unpenalized).  Selection
scan uses the 1-harmonic generalized LS periodogram (Zechmeister &
Kürster 2009 normal equations) on the grid f ∈ {df, 2df, …, fmax},
df = 1/(ofac·T),  fmax = 0.5·n/T  (mean Nyquist), numf capped at
MAX_NUMF.  The scan's trig sums come from a non-uniform FFT in
O(n + numf·log numf); the grid points that may hold the maximum are
re-scored by direct sums, so the selected frequency is the direct
sums' argmax (``_gls_uniform``).  A linear trend is fitted (weighted
LS) and removed before the scan; its slope is the ``linear_trend``
feature.
"""

from __future__ import annotations

import numpy as np

MAX_NUMF = 20_000
# frequency-chunk size of _gls_periodogram's direct sums: its ~6
# (chunk × n) float64 temporaries take 1.5 KB per sample.  The fine
# refinement (21 points) and the scan's re-scoring (usually 1 point)
# fit in one chunk.
FREQ_CHUNK = 32


def _weighted_linear_trend(t, m, w):
    """Weighted least-squares slope/intercept of m vs t."""
    W = w.sum()
    tbar = (w * t).sum() / W
    ybar = (w * m).sum() / W
    tt = (w * (t - tbar) ** 2).sum()
    if tt == 0:
        return 0.0, ybar
    slope = (w * (t - tbar) * (m - ybar)).sum() / tt
    return float(slope), float(ybar - slope * tbar)


# Type-1 non-uniform FFT of _gls_uniform (Gaussian gridding, Greengard
# & Lee, SIAM Rev. 46:443, 2004): each sample spreads onto the
# 2·NUFFT_SPREAD nearest points of a mesh at least 2× oversampled over
# the modes it serves.  In mesh steps d the kernel is exp(-π·d²/16),
# e^{-9π} ≈ 5e-13 at the cut, so the trig sums carry ~1e-12 of Σ|c|.
NUFFT_SPREAD = 12
# Exact re-scoring of the fast scan: a fast power p misses the direct
# sum by at most RESCORE_PAD/|D| (D = CC·SS − CS², the trig moments'
# determinant; ~1e-13/|D| measured, so the pad has a 1000× margin).
# Let lo be the largest lower bound p − pad.  Every point whose upper
# bound reaches (1 − RESCORE_RTOL)·lo, or whose pad exceeds
# RESCORE_RTOL·lo, is re-scored by _gls_periodogram: the scan's argmax
# is then that of the direct sums, and every other power is within
# ~1e-9·lo of its direct sum.
RESCORE_PAD = 1e-10
RESCORE_RTOL = 1e-6


def _nufft_geometry(x, K):
    """Spreading plan of a type-1 NUFFT giving modes k = 0..K at sample
    phases ``x`` (radians, ≥ 0).  Modes are centred on k0 = K//2 by
    folding exp(i·k0·x) into the kernel, so the Gaussian deconvolution
    factor stays ≤ e^π for every k."""
    k0 = K // 2
    Mr = 1 << (4 * (K - k0) + 3).bit_length()  # ≥ 2 × (modes + 2)
    u = x * (Mr / (2 * np.pi))  # sample positions in mesh steps
    m0 = np.floor(u)
    lag = np.arange(1 - NUFFT_SPREAD, NUFFT_SPREAD + 1)
    kern = np.exp((-np.pi / 16) * ((u - m0)[:, None] - lag) ** 2)
    kern = kern * np.exp(1j * k0 * x)[:, None]
    idx = ((m0.astype(np.int64)[:, None] + lag) % Mr).ravel()
    kp = np.arange(-k0, K - k0 + 1)
    deconv = 0.25 * np.exp(kp * kp * (16 * np.pi / Mr**2))
    return idx, kern.real.ravel(), kern.imag.ravel(), Mr, kp % Mr, deconv


def _nufft(geom, c):
    """Σ_i c_i·exp(i·k·x_i) for k = 0..K of real strengths ``c``."""
    idx, kre, kim, Mr, at, deconv = geom
    cr = np.repeat(c, 2 * NUFFT_SPREAD)
    mesh = np.bincount(idx, kre * cr, Mr) + 1j * np.bincount(idx, kim * cr, Mr)
    return deconv * (Mr * np.fft.ifft(mesh))[at]


def _gls_uniform(t, y, w, df, numf, cache=None):
    """Fast GLS periodogram on the UNIFORM grid f_j = j·df, j=1..numf.

    Same statistic as ``_gls_periodogram`` (floating-mean χ² reduction,
    weights summing to 1), in O(n + numf·log numf) instead of O(n·numf):

    - double-angle identity: Σw·cos², Σw·sin², Σw·cos·sin at f_j come
      from the FIRST moments (Σw·cos, Σw·sin) at f_{2j}, so only the
      trig sums Σw·e^{ijx} (j ≤ 2·numf) and Σw·(y−Ȳ)·e^{ijx} (j ≤ numf)
      are needed, x = 2π·df·(t − t[0]);
    - both come from one type-1 NUFFT plan (``_nufft_geometry``);
    - the plan and the weight sums depend on (t, w, df) but not y: pass
      a ``cache`` dict to reuse them across pre-whitening iterations;
    - the points that may hold the maximum, or whose fast power is not
      accurate enough (RESCORE_PAD, RESCORE_RTOL), are re-scored by
      ``_gls_periodogram`` on ``t − t[0]``, so the argmax is that of
      the direct sums.
    """
    Y = float((w * y).sum())
    yc = y - Y
    YY = float((w * yc * yc).sum())
    if YY <= 0:
        return np.zeros(numf)
    tz = t - t[0]
    if cache is not None and "cw" in cache:
        geom, cwsw = cache["geom"], cache["cw"]
    else:
        geom = _nufft_geometry((2 * np.pi * df) * tz, 2 * numf)
        cwsw = _nufft(geom, w)
        if cache is not None:
            cache["geom"], cache["cw"] = geom, cwsw
    ydots = _nufft(geom, w * yc)
    j = np.arange(1, numf + 1)
    C = cwsw[j].real
    S = cwsw[j].imag
    c2 = cwsw[2 * j].real
    s2 = cwsw[2 * j].imag
    CC = 0.5 * (1.0 + c2) - C * C
    SS = 0.5 * (1.0 - c2) - S * S
    CS = 0.5 * s2 - C * S
    YC = ydots[j].real
    YS = ydots[j].imag
    D = CC * SS - CS * CS
    with np.errstate(divide="ignore", invalid="ignore"):
        p = (SS * YC**2 + CC * YS**2 - 2 * CS * YC * YS) / (YY * D)
        pad = RESCORE_PAD / np.abs(D)
    p = np.clip(np.where(np.isfinite(p), p, 0.0), 0.0, 1.0)
    lo = (p - pad).max()
    top = np.flatnonzero((p + pad >= (1.0 - RESCORE_RTOL) * lo)
                         | (pad > RESCORE_RTOL * lo))
    p[top] = _gls_periodogram(tz, y, w, df * (top + 1))
    return p


def _gls_periodogram(t, y, w, freqs):
    """Generalized (floating-mean) LS chi²-reduction power at ``freqs``.

    Returns array of power ∈ [0,1] = fractional χ² reduction.
    Weights must sum to 1.  Chunked to bound memory at
    FREQ_CHUNK × n.  The exact reference of ``_gls_uniform``, which
    calls it to re-score its candidates, and the fine-refinement kernel.
    """
    Y = (w * y).sum()
    yc = y - Y
    YY = (w * yc**2).sum()
    if YY <= 0:
        return np.zeros(len(freqs))
    power = np.empty(len(freqs))
    for i in range(0, len(freqs), FREQ_CHUNK):
        om = 2 * np.pi * freqs[i : i + FREQ_CHUNK, None]  # (F,1)
        wt = om * t[None, :]  # (F,n)
        cos = np.cos(wt)
        sin = np.sin(wt)
        C = cos @ w
        S = sin @ w
        CC = (cos * cos) @ w - C * C
        SS = (sin * sin) @ w - S * S
        CS = (cos * sin) @ w - C * S
        YC = cos @ (w * y) - Y * C
        YS = sin @ (w * y) - Y * S
        D = CC * SS - CS * CS
        with np.errstate(divide="ignore", invalid="ignore"):
            p = (SS * YC**2 + CC * YS**2 - 2 * CS * YC * YS) / (YY * D)
        power[i : i + FREQ_CHUNK] = np.where(np.isfinite(p), p, 0.0)
    return np.clip(power, 0.0, 1.0)


def _freq_grid(t, ofac):
    T = t[-1] - t[0]
    n = len(t)
    if T <= 0 or n < 4:
        return None
    df = 1.0 / (ofac * T)
    fmax = 0.5 * n / T
    numf = min(int(fmax / df), MAX_NUMF)
    if numf < 2:
        return None
    return df * np.arange(1, numf + 1)


def _fit_harmonics(t, y, w, f, nharm, tone_control):
    """Ridge-regularized weighted fit of the nharm model at frequency f.

    Returns (coeffs c, sin-coefs s[nharm], cos-coefs k[nharm], chi2,
    model values at t)."""
    om = 2 * np.pi * f
    h = np.arange(1, nharm + 1)
    phase = np.outer(t, h) * om  # (n, nharm)
    X = np.concatenate([np.ones((len(t), 1)), np.sin(phase), np.cos(phase)], axis=1)
    lam = tone_control * (h.astype(np.float64) ** 2 - 1.0)
    penalty = np.concatenate([[0.0], lam, lam])
    XtW = X.T * w
    A = XtW @ X + np.diag(penalty)
    b = XtW @ y
    try:
        beta = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        beta = np.linalg.lstsq(A, b, rcond=None)[0]
    model = X @ beta
    chi2 = float((w * (y - model) ** 2).sum())
    c = float(beta[0])
    s = beta[1 : 1 + nharm]
    k = beta[1 + nharm :]
    return c, s, k, chi2, model


def _wrap_phase(p):
    return (p + np.pi) % (2 * np.pi) - np.pi


def lomb_scargle_model(
    t,
    m,
    e,
    sys_err: float = 0.05,
    nharm: int = 8,
    nfreq: int = 3,
    tone_control: float = 5.0,
    ofac: float = 4.0,
    day: float = 1.0,
):
    """P1 — iterative pre-whitening multi-frequency harmonic LS fit.

    Semantics of cesium/features/lomb_scargle.py::lomb_scargle_model
    (defaults per SURVEY §2.7 P1).  ``day`` is the alias base period in
    the units of ``t`` (1.0 for cesium's day-valued light curves;
    86400.0 for transcript seconds).

    Returns a dict with per-frequency entries and model diagnostics;
    NaN-filled on degenerate input.
    """
    t = np.asarray(t, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    out = {
        "freq": np.full(nfreq, np.nan),
        "amplitude": np.full((nfreq, 4), np.nan),
        "rel_phase": np.full((nfreq, 4), np.nan),
        "signif": np.full(nfreq, np.nan),
        "lambda": float(tone_control),
        "varrat": np.nan,
        "y_offset": np.nan,
        "trend": np.nan,
        "n_alias": np.nan,
        "model": None,
        "resid": None,
    }
    freqs = _freq_grid(t, ofac)
    if freqs is None:
        return out

    w_raw = 1.0 / (e**2 + sys_err**2)
    w = w_raw / w_raw.sum()  # normalized: scan + variance ratios
    # the harmonic fit uses RAW weights so the tone_control ridge
    # penalty is small relative to the normal-equation diagonal
    # (≈ n/(2·(e²+sys_err²))) — matching cesium's unnormalized χ² scale

    slope, intercept = _weighted_linear_trend(t, m, w)
    out["trend"] = slope
    resid = m - (slope * t + intercept)
    raw_var = float((w * (resid - (w * resid).sum()) ** 2).sum())

    df = freqs[0]
    total_model = np.zeros(len(t))
    chi_prev = float((w_raw * (resid - (w * resid).sum()) ** 2).sum())
    n = len(t)

    gls_cache: dict = {}
    for i in range(nfreq):
        power = _gls_uniform(t, resid, w, df, len(freqs), cache=gls_cache)
        j = int(np.argmax(power))
        # fine refinement around the grid peak
        fine = freqs[j] + np.linspace(-df, df, 21)
        fine = fine[fine > 0]
        pfine = _gls_periodogram(t, resid, w, fine)
        fbest = float(fine[int(np.argmax(pfine))])

        c, s, k, chi2, model = _fit_harmonics(t, resid, w_raw, fbest, nharm, tone_control)
        amp = np.hypot(s, k)
        phase = np.arctan2(k, s)  # model term: A·sin(hωt + φ)
        out["freq"][i] = fbest
        out["amplitude"][i, :] = amp[:4]
        rel = _wrap_phase(phase - np.arange(1, nharm + 1) * phase[0])
        out["rel_phase"][i, :] = rel[:4]
        # significance: weighted-χ² reduction of this component, scaled
        # by sqrt(n/2) (documented spec-of-record definition)
        out["signif"][i] = (
            np.sqrt(n / 2.0) * (chi_prev - chi2) / chi_prev if chi_prev > 0 else 0.0
        )
        if i == 0:
            out["y_offset"] = c
            res_var = float((w * (resid - model - (w * (resid - model)).sum()) ** 2).sum())
            out["varrat"] = res_var / raw_var if raw_var > 0 else np.nan
            out["model_freq1"] = {
                "freq": fbest,
                "s": s.copy(),
                "k": k.copy(),
                "c": c,
                "model_at_t": model.copy(),
            }
        total_model = total_model + model
        resid = resid - model
        chi_prev = chi2 if chi2 > 0 else chi_prev

    out["model"] = total_model + slope * t + intercept
    out["resid"] = m - out["model"]
    # n_alias: selected freqs within 1% of an integer multiple of 1/day
    f_day = 1.0 / day
    ratio = out["freq"] / f_day
    out["n_alias"] = float(
        np.sum(np.abs(ratio - np.round(ratio)) < 0.01 * np.maximum(np.round(ratio), 1))
    )
    return out


def period_fast(t, m):
    """P3 — fast periodogram period estimate: 1 / argmax-frequency of the
    uniform-weight floating-mean LS periodogram on the standard grid
    (semantics of cesium/features/lomb_scargle_fast.py::lomb_scargle_fast)."""
    t = np.asarray(t, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    freqs = _freq_grid(t, ofac=4.0)
    if freqs is None:
        return float("nan")
    w = np.full(len(t), 1.0 / len(t))
    power = _gls_uniform(t, m, w, freqs[0], len(freqs))
    return float(1.0 / freqs[int(np.argmax(power))])
