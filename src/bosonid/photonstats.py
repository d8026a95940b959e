"""Photon-count statistics of displaced thermal states.

A single bosonic mode carrying a coherent signal of energy ``e = |alpha|^2``
on top of thermal noise with mean photon number ``N`` produces photon counts
with the Laguerre-form pmf

    p(n | e, N) = (N+1)^{-1} (N/(N+1))^n exp(-e/(N+1)) L_n(-e/(N(N+1)))

(for N > 0; the N = 0 limit is Poisson).  The total count S_k over k
independent modes depends on the per-mode energies only through their sum E,
as the generating function shows:

    G_k(z) = exp(-E (1-z)/(N+1-Nz)) / (N+1-Nz)^k = exp(-lam (1 - z u)) u^k,

u = 1/(N+1-Nz), lam = E/(N+1).  So S_k = J + NB(k+J), J ~ Poisson(lam) and
NB(r) the negative binomial count of failures before the r-th success at
success probability 1/(N+1) (the noncentral negative binomial; Helstrom,
Quantum Detection and Estimation Theory, ch. 5), and its tails are Poisson
mixtures of regularized incomplete betas (DLMF 8.17).

This module provides the single-mode pmf, an exact sampler (one Poisson count
of the summed P-function intensity, which is drawn in law as a scaled
noncentral chi-square after rotating alpha onto one quadrature), the tails of
S_k in log domain, and the detector error bounds: the upper-tail exponent
Lambda, with a numerically optimized Chernoff exponent as its oracle, and the
lower-tail Chernoff bound at a pair's energy ||Delta||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincc, betaln, gammaln, logsumexp

__all__ = [
    "ChannelModel",
    "DetectorSpec",
    "photon_pmf_array",
    "sample_intensity",
    "sample_photon_counts",
    "log_tail_probability",
    "lambda_exponent",
    "analytic_error_bounds",
    "chernoff_upper_exponent",
]

_LOG_TAIL_TOL = math.log(1e-17)
_NORMAL_MIN = np.finfo(float).tiny  # smallest float at full precision
_CF_TERMS = 1000
_SMALL_PARAM = 40  # below this incomplete-beta parameter scipy sums a binomial series
_FLOAT_COUNTS = 2.0**53  # floats resolve single counts below this
# (-1)^k / k for k = 18, ..., 2: x^2/2 - x^3/3 + ... to 17 terms; below
# x = 0.1 the first term left out, x^19/19, is under 1e-18 of the first
_PHI_SERIES = tuple((-1) ** k / k for k in range(18, 1, -1))
# ln j! - (j + 1/2) ln j + j - ln(2 pi)/2 = 1/(12 j) - ..., within 2e-16 from j = 16
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


@dataclass(frozen=True)
class ChannelModel:
    """Bosonic channel with mean thermal photon number ``n_thermal`` >= 0."""

    n_thermal: float

    def __post_init__(self):
        if not 0 <= self.n_thermal < math.inf:
            raise ValueError(f"n_thermal must be finite and >= 0, got {self.n_thermal}")


def _check_delta(delta: float) -> None:
    if not 0 < delta < _FLOAT_COUNTS:
        raise ValueError(f"delta must be finite, > 0 and below 2^53 counts, got {delta}")


@dataclass(frozen=True)
class DetectorSpec:
    """Photon-number threshold detector: accept iff total count <= threshold.

    ``threshold`` is always ``k * (n_thermal + delta)`` < 2^53; use :meth:`make`.
    """

    k: int
    threshold: float

    @classmethod
    def make(cls, delta: float, k: int, channel: ChannelModel) -> "DetectorSpec":
        _check_delta(delta)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        threshold = k * (channel.n_thermal + delta)
        _check_threshold(threshold)
        return cls(k=k, threshold=threshold)


def _check_law(k: int, total_energy: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= total_energy < math.inf:
        raise ValueError(f"energy must be finite and >= 0, got {total_energy}")


def _check_threshold(threshold: float) -> None:
    if not threshold < _FLOAT_COUNTS:
        raise ValueError(f"threshold {threshold} is beyond 2^53 counts, where floats "
                         "no longer resolve single counts")


def _log_poisson(j, lam: float) -> np.ndarray:
    """ln Poi(j; lam) for integers j >= 0 and lam > 0; from j = 16 on, where
    j ln lam - lam - ln j! cancels terms of size j ln j, as (Loader 2000)
    -j phi(lam/j) - ln(2 pi j)/2 - s(j), phi(u) = u - 1 - ln u, s in _STIRLING."""
    j = np.asarray(j, float)
    out = j * math.log(lam) - lam - gammaln(j + 1)
    large = j >= 16
    big = j[large]
    u = lam / big
    stirling = sum(c / big ** (2 * i + 1) for i, c in enumerate(_STIRLING))
    with np.errstate(divide="ignore"):  # where lam / j underflows to 0, -inf is right
        out[large] = -big * (u - 1 - np.log(u)) - 0.5 * np.log(2 * math.pi * big) - stirling
    return out


def _log_nb_tail(a, b, n_thermal: float, upper: bool) -> np.ndarray:
    """ln I_p(a, b) = ln P(NB(a) < b), or ln(1 - I_p(a, b)) if ``upper``, with
    p = 1/(N+1); for N < 1 as 1 - I_c(b, a), c = N/(N+1), so 1 - x is never
    rounded.  Below float range, and where x < 0.01 and a parameter is below
    40 (there scipy sums a binomial series with 1 - x rounded, off by 1e-10 at
    x = 1e-6), scipy's value is redone in logs: x^a (1-x)^b / (a B(a, b)) times
    the continued fraction DLMF 8.17.22 (Lentz's method), for I_x(a, b) if
    x < (a+1)/(a+b+2), else for I_{1-x}(b, a) = 1 - I_x(a, b), where it
    converges in tens of terms and is never near 1, so its complement is precise.
    """
    N, a, b = n_thermal, np.asarray(a, float), np.asarray(b, float)
    x, y, log_x = 1 / (N + 1), N / (N + 1), -math.log1p(N)
    log_y = -math.log1p(1 / N) if N >= 1 else math.log(N) - math.log1p(N)
    if N < 1:
        a, b, x, y, log_x, log_y, upper = b, a, y, x, log_y, log_x, not upper
    value = betaincc(a, b, x) if upper else betainc(a, b, x)
    with np.errstate(divide="ignore"):
        out = np.log(value)
    redo = (value < _NORMAL_MIN) | ((np.minimum(a, b) < _SMALL_PARAM) & (x < 0.01))
    if not redo.any():
        return out
    flip = x >= (a[redo] + 1) / (a[redo] + b[redo] + 2)
    a, b = np.where(flip, b[redo], a[redo]), np.where(flip, a[redo], b[redo])
    x, log_x, log_y = [np.where(flip, *pair) for pair in ((y, x), (log_y, log_x), (log_x, log_y))]
    c, done = np.ones_like(a), np.zeros(a.shape, bool)
    h = d = 1 / (1 - (a + b) * x / (a + 1))
    for m in range(1, _CF_TERMS):
        step = 1.0
        for coeff in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                      -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            with np.errstate(divide="ignore", invalid="ignore"):
                d, c = 1 / (1 + coeff * d), 1 + coeff / c
            step = step * c * d
        # freeze converged entries: past its zero term a terminating one may blow up
        h, done = np.where(done, h, h * step), done | (np.abs(c * d - 1) < 1e-15)
        if done.all():
            break
    else:
        raise RuntimeError("incomplete-beta continued fraction did not converge")
    log_i = a * log_x + b * log_y - np.log(a) - _log_beta(a, b) + np.log(h)
    out[redo] = np.where(flip == upper, log_i, np.log(-np.expm1(log_i)))
    return out


def _log_beta(a, b):
    """ln B(a, b) for integers a, b >= 1; as ln (s-1)! - sum_{i<s} ln(l+i) where
    the smaller, s, is below 40 and `betaln` cancels terms of size l ln l."""
    s, l = np.minimum(a, b), np.maximum(a, b)
    i = np.arange(_SMALL_PARAM)
    rising = np.where(i < s[:, None], np.log(l[:, None] + i), 0).sum(axis=1)
    return np.where(s < _SMALL_PARAM, gammaln(s) - rising, betaln(a, b))


def _log_window_sum(log_term, lo: int, hi: float, peak_hi: int) -> float:
    """ln sum exp(log_term(j)) over integers lo <= j <= hi, for a log-concave
    summand that peaks at or below peak_hi: grids of 65 points narrow in on
    the peak, then a window around it doubles until the terms past each open
    end, falling at least geometrically, sum below 1e-17 of the largest."""
    first, last = lo, peak_hi
    while last - first > 64:
        grid = np.linspace(first, last, 65).round().astype(np.int64)
        best = int(np.argmax(log_term(grid)))
        first, last = int(grid[max(best - 1, 0)]), int(grid[min(best + 1, 64)])

    def rest_negligible(edge, inner, top):
        if edge == -math.inf:
            return True
        step = edge - inner
        return step < 0 and edge + step - math.log(-math.expm1(step)) < top + _LOG_TAIL_TOL

    width = 8 + 8 * math.isqrt(first)  # about 8 Poisson standard deviations
    while True:
        start, stop = max(lo, first - width), min(hi, last + width)
        terms = log_term(np.arange(start, stop + 1))
        top = terms.max()
        if ((start == lo or rest_negligible(terms[0], terms[1], top))
                and (stop == hi or rest_negligible(terms[-1], terms[-2], top))):
            return float(logsumexp(terms))
        width *= 2


def log_tail_probability(
    k: int, total_energy: float, channel: ChannelModel, threshold: float, upper: bool
) -> float:
    """Natural log of P(S_k > threshold) if ``upper``, else of P(S_k <= threshold).

    With S_k = J + NB(k+J) (module docstring), P(S_k <= t) is the Poisson
    mixture sum_j Poi(j; lam) I_{1/(N+1)}(k+j, t-j+1), and P(S_k > t) mixes
    the complements, 1 for j > t; at zero energy only j = 0 is left.  Summed in
    logs over a window of j around the peak, its cost grows as sqrt(lam), not
    with N or t, and tails below float range keep their precision.
    """
    _check_law(k, total_energy)
    _check_threshold(threshold)
    t, N = math.floor(threshold), channel.n_thermal
    lam = total_energy / (N + 1)
    if upper and lam > t + 1:  # P(S_k <= t) <= P(J <= t) < 1/2: its complement is precise
        return math.log1p(-math.exp(log_tail_probability(k, total_energy, channel, t, False)))

    def log_term(j):
        out = _log_poisson(j, lam) if lam > 0 else np.where(j == 0, 0.0, -math.inf)
        if N > 0:  # at N = 0 the count is J
            inner = j <= t
            out[inner] += _log_nb_tail(k + j[inner], t - j[inner] + 1.0, N, upper)
        return out

    lo = t + 1 if upper and N == 0 else 0
    hi = min(math.inf if upper else t, 0 if lam == 0 else math.inf)
    if lo > hi:  # no term: a threshold below 0, or the count is 0 and not above t
        return -math.inf
    peak_hi = t + 1 if upper else min(t, math.ceil(lam))
    return min(_log_window_sum(log_term, lo, hi, max(lo, min(hi, peak_hi))), 0.0)


def photon_pmf_array(nmax: int, energy: float, channel: ChannelModel) -> np.ndarray:
    """pmf p(n | energy, N) for n = 0..nmax: the k = 1 count law.

    With S_1 = J + NB(1+J) (module docstring), p(n) is the mixture
    sum_{j<=n} Poi(j; lam) C(n, j) (N+1)^{-1-j} (N/(N+1))^{n-j},
    lam = e/(N+1), summed in logs from one ln n! table, so no N or energy
    over- or underflows it; at lam = 0 it is geometric, at N = 0 Poisson.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    _check_law(1, energy)
    N = channel.n_thermal
    lam = energy / (N + 1)
    n = np.arange(nmax + 1)
    if N == 0:  # the count is J
        return np.exp(_log_poisson(n, lam)) if lam > 0 else (n == 0).astype(float)
    log_c = -math.log1p(1 / N) if N >= 1 else math.log(N) - math.log1p(N)
    log_geo = n * log_c - math.log1p(N)  # ln P(NB(1) = n)
    if lam == 0:
        return np.exp(log_geo)
    log_fact = gammaln(n + 1.0)  # the one ln n! table
    gap = n - n[:, None]  # n - j in row j
    log_nb = np.where(gap >= 0, (log_geo - log_fact)[np.maximum(gap, 0)], -math.inf)
    # ln Poi(j; lam) - ln j! - j ln(N+1) in row j
    log_j = n * (math.log(lam) - math.log1p(N)) - lam - 2 * log_fact
    terms = log_j[:, None] + log_fact + log_nb
    top = terms.max(axis=0)  # finite: the j = 0 term is
    return np.exp(top + np.log(np.exp(terms - top).sum(axis=0)))


def sample_intensity(
    k: int, energy, variance: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """sum_t |gamma_t|^2 over k modes with gamma_t ~ CN(alpha_t, variance), one
    value per trial, drawn in law from ``energy`` = ||alpha||^2.

    ``energy`` is a scalar shared by ``size`` trials or one value per trial.
    The 2k real quadratures are independent normals of variance v = variance/2
    about the quadratures of alpha.  That law is invariant under rotations of
    R^{2k}, and a rotation that takes alpha onto the first axis keeps the
    norm, so the sum is exactly (sqrt(v) Z + ||alpha||)^2 + v chi^2(2k-1) in
    law, and v chi^2(2k) at zero energy: O(1) draws per trial whatever k.
    This is numpy's own noncentral chi-square construction, written in the
    units of the sum; `rng.noncentral_chisquare` itself would need the
    noncentrality ||alpha||^2 / v, which overflows where variance is subnormal.
    A sum beyond the float range is inf, above every finite threshold.
    """
    half = variance / 2
    with np.errstate(over="ignore"):
        if np.ndim(energy) == 0 and energy == 0:
            return half * rng.chisquare(2 * k, size)
        shifted = rng.normal(np.sqrt(energy), math.sqrt(half), size)
        return shifted * shifted + half * rng.chisquare(2 * k - 1, size)


def sample_photon_counts(
    k: int, energy, channel: ChannelModel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Total photon counts of k displaced thermal modes, one per trial.

    ``energy`` is the total signal energy ||alpha||^2, a scalar shared by
    ``size`` trials or one value per trial; the count law depends on the
    amplitudes only through it.  Each mode's Gaussian P-function draws
    gamma_t ~ CN(alpha_t, N), and photodetection then draws one
    n ~ Poisson(sum_t |gamma_t|^2) per trial, since independent Poisson counts
    sum to a Poisson count of the summed intensity.  The summed intensity
    itself is drawn exactly in law by `sample_intensity`, so this is still
    the P-function-then-photodetection process, at O(1) draws per trial.
    At N = 0 the count is directly Poisson(||alpha||^2).
    """
    N = channel.n_thermal
    if N == 0:
        return rng.poisson(energy, size)
    return rng.poisson(sample_intensity(k, energy, N, rng, size))


def lambda_exponent(delta: float, channel: ChannelModel) -> float:
    """Upper-tail exponent: P(S_k >= k(N+delta)) <= exp(-k * Lambda)."""
    N = channel.n_thermal
    _check_delta(delta)
    if N == 0:
        raise ValueError("lambda_exponent is undefined at n_thermal = 0")
    # Lambda is the KL divergence between geometric laws of means N + delta
    # and N: a log1p(w) - log1p(v), both terms O(delta).  Where w < 1 their
    # leading parts cancel in closed form, a w - v = delta^2 / (N (N+1)
    # (N+delta+1)), and only the small remainders phi(w), phi(v) are summed.
    a, v = N + delta, delta / (N + 1)
    w = delta / N / (N + delta + 1)
    if w < 1:
        return delta / N * v / (N + delta + 1) - a * _phi(w) + _phi(v)
    ratio = delta / N  # overflows where N is subnormal
    log_ratio = math.log1p(ratio) if ratio < math.inf else math.log(a) - math.log(N)
    return a * log_ratio - (a + 1) * math.log1p(v)


def _phi(x: float) -> float:
    """x - log1p(x) for x >= 0, by its alternating series below 0.1."""
    if x >= 0.1:
        return x - math.log1p(x)
    total = 0.0
    for c in _PHI_SERIES:
        total = x * (c + total)
    return x * total


def analytic_error_bounds(
    k: int, delta: float, pair_energy: float, channel: ChannelModel
) -> tuple[float, float]:
    """(lambda1_log, lambda2_log): -k Lambda and, for a pair at
    ||Delta||^2 = ``pair_energy``, the Chernoff bound on ln P(S_k <= k(N+delta))
    at the paper's s = ln(N+1)/(N+delta), capped at 0:
    -||Delta||^2 Theta + k ln((N+1)/(N+1-N r)), r = e^{-s},
    Theta = (1 - r)/(N+1-N r).  The paper drops the second term; the exact
    tail then lies above its bound at 356 of 672 grid points with k up to
    1024, and above this one at none.  At N = 0 no count exceeds the
    threshold, Lambda diverges and lambda1_log is -inf, the exact tail's log."""
    _check_delta(delta)
    if not 0 <= pair_energy < math.inf:
        raise ValueError(f"pair energy must be finite and >= 0, got {pair_energy}")
    N = channel.n_thermal
    # r - 1 in a form that keeps its precision where r rounds to 1 (large N)
    m = math.expm1(-math.log1p(N) / (N + delta))
    theta = -m / (1 - N * m)
    lambda2_log = min(0.0, -pair_energy * theta + k * (math.log1p(N) - math.log1p(-N * m)))
    if N == 0:
        return -math.inf, lambda2_log
    return -k * lambda_exponent(delta, channel), lambda2_log


def chernoff_upper_exponent(delta: float, channel: ChannelModel) -> float:
    """Numerically optimized Chernoff exponent for the zero-energy upper tail.

    Maximizes s(N+delta) + ln(N+1-N e^s) over s in (0, ln((N+1)/N)); agrees
    with :func:`lambda_exponent` analytically and serves as its oracle.
    """
    N = channel.n_thermal
    _check_delta(delta)
    if N == 0:
        raise ValueError("requires n_thermal > 0")
    from scipy.optimize import minimize_scalar

    s_max = math.log((N + 1) / N)

    def neg(s: float) -> float:
        return -(s * (N + delta) + math.log(N + 1 - N * math.exp(s)))

    res = minimize_scalar(
        neg, bounds=(0.0, s_max * (1 - 1e-12)), method="bounded",
        options={"xatol": 1e-13},
    )
    if not res.success:
        raise RuntimeError(f"Chernoff maximization failed: {res.message}")
    if res.x >= s_max * (1 - 1e-9):
        raise RuntimeError("Chernoff maximum not interior to (0, ln((N+1)/N))")
    return -res.fun
