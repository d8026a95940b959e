"""Photon-count statistics of displaced thermal states.

A single bosonic mode carrying a coherent signal of energy ``e = |alpha|^2``
on top of thermal noise with mean photon number ``N`` produces photon counts
with the Laguerre-form pmf

    p(n | e, N) = (N+1)^{-1} (N/(N+1))^n exp(-e/(N+1)) L_n(-e/(N(N+1)))

(for N > 0; the N = 0 limit is Poisson).  The total count over k independent
modes depends on the per-mode energies only through their sum, which is
explicit in the moment generating function

    G_k(z) = exp(-E (1-z)/(N+1-Nz)) / (N+1-Nz)^k,

and its coefficients are the closed-form Laguerre law (the noncentral
negative binomial; Helstrom, Quantum Detection and Estimation Theory, ch. 5)

    p_k(n) = (N+1)^{-k} exp(-E/(N+1)) c^n L_n^{(k-1)}(-E/(N(N+1))),  c = N/(N+1).

This module provides the pmf, the MGF, an exact sampler (one Poisson count of
the summed P-function intensity, which is drawn in law as a scaled noncentral
chi-square after rotating alpha onto one quadrature), the exact total-count
law and its tails in log domain, and the two tail exponents that drive the
identification error bounds, each paired with an independent numerically
optimized Chernoff bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

__all__ = [
    "ChannelModel",
    "DetectorSpec",
    "photon_pmf_array",
    "mgf",
    "sample_intensity",
    "sample_photon_counts",
    "exact_total_pmf",
    "log_tail_probability",
    "lambda_exponent",
    "theta_exponent",
    "chernoff_upper_exponent",
    "chernoff_lower_logbound",
    "theta_lower_logbound",
]

_MASS_TOL = 1e-12
_LOG_TAIL_TOL = math.log(1e-17)
_LN2 = math.log(2)
_HUGE = 2.0**500
_TINY = 2.0**-500
_MAX_COUNT = 1 << 22
_FLOAT_COUNTS = 2.0**53  # floats resolve single counts below this
# (-1)^k / k for k = 18, ..., 2: x^2/2 - x^3/3 + ... to 17 terms; below
# x = 0.1 the first term left out, x^19/19, is under 1e-18 of the first
_PHI_SERIES = tuple((-1) ** k / k for k in range(18, 1, -1))


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

    ``threshold`` is always ``k * (n_thermal + delta)``; use :meth:`make`.
    """

    delta: float
    k: int
    threshold: float

    @classmethod
    def make(cls, delta: float, k: int, channel: ChannelModel) -> "DetectorSpec":
        _check_delta(delta)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return cls(delta=delta, k=k, threshold=k * (channel.n_thermal + delta))


def _check_law(k: int, total_energy: float) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= total_energy < math.inf:
        raise ValueError(f"energy must be finite and >= 0, got {total_energy}")


def _log_pmf_terms(k: int, total_energy: float, channel: ChannelModel):
    """log p_k(n) for n = 0, 1, ..., _MAX_COUNT - 1: the closed-form Laguerre law.

    For N > 0, q_n = c^n L_n^{(k-1)}(x) with c = N/(N+1) and x = -E/(N(N+1))
    follows (n+1) q_{n+1} = c (2n+k-x) q_n - c^2 (n+k-1) q_{n-1}.  With x <= 0
    the subtracted term is less than half the first, so nothing cancels
    (DLMF 18.9).  q is rescaled by exact powers of two, so neither q nor the
    prefactor (N+1)^{-k} e^{-E/(N+1)} over- or underflows at any k.  For N = 0
    the law is Poisson(E).  Asking for more terms raises ValueError.
    """
    N, E = channel.n_thermal, total_energy
    if N == 0:
        log_e = math.log(E) if E > 0 else -math.inf
        yield -E
        for n in range(1, _MAX_COUNT):
            yield -E + n * log_e - math.lgamma(n + 1)
    else:
        c = N / (N + 1)
        x = -E / (N * (N + 1))
        log_amp = -k * math.log1p(N) - E / (N + 1)
        prev, cur, scale = 0.0, 1.0, 0
        for n in range(_MAX_COUNT):
            yield log_amp + scale * _LN2 + math.log(cur)
            prev, cur = cur, (c * (2 * n + k - x) * cur - c * c * (n + k - 1) * prev) / (n + 1)
            if not _TINY < cur < _HUGE:
                e = math.frexp(cur)[1]
                prev, cur, scale = math.ldexp(prev, -e), math.ldexp(cur, -e), scale + e
    raise ValueError(f"photon counts beyond {_MAX_COUNT} are out of range")


def _log_pmf(k: int, total_energy: float, channel: ChannelModel, nmax: int) -> np.ndarray:
    """log p_k(n) for n = 0..nmax."""
    terms = _log_pmf_terms(k, total_energy, channel)
    return np.fromiter(itertools.islice(terms, nmax + 1), float)


def _log_nb_terms(k: int, n_thermal: float, first: int):
    """log p_k(n) for n = first, first + 1, ... at zero energy.

    The law is then negative binomial, p_k(n) = C(n+k-1, n) (N+1)^{-k} c^n.
    The first term is evaluated directly, its binomial coefficient as the
    sum of ln(1 + b/i) for i up to the smaller of n and k-1.  Its pieces are
    logs of size up to n + k that cancel to ln p, so they are summed in
    long double where the platform has it.  The rest follow by the term ratio
    c (n+k)/(n+1), rescaled by exact powers of two as in _log_pmf_terms.  So
    nothing walks up from zero, and the count has no limit.
    """
    ld = np.longdouble
    small, big = sorted((first, k - 1))
    log_binom = np.log1p(ld(big) / np.arange(1, small + 1, dtype=ld)).sum()
    log_amp = float(log_binom - k * np.log1p(ld(n_thermal)) - first * np.log1p(1 / ld(n_thermal)))
    c = n_thermal / (n_thermal + 1)
    cur, scale = 1.0, 0
    for n in itertools.count(first):
        yield log_amp + scale * _LN2 + math.log(cur)
        cur *= c * (n + k) / (n + 1)
        if not _TINY < cur < _HUGE:
            e = math.frexp(cur)[1]
            cur, scale = math.ldexp(cur, -e), scale + e


def _log_pmf_tail(
    k: int, total_energy: float, channel: ChannelModel, first: int, last: float = math.inf
) -> np.ndarray:
    """log p_k(n) for n = first..min(last, stop), where the mass beyond
    ``stop`` is below 1e-17 of the largest of these terms.

    The law is log-concave, so once the terms fall with ratio r the rest of
    the tail after a term p is at most p r / (1 - r).  At zero energy the
    terms start at ``first`` (`_log_nb_terms`); otherwise the recurrence
    runs up from n = 0.
    """
    N = channel.n_thermal
    if total_energy == 0 and N > 0 and first > 0:
        terms = enumerate(_log_nb_terms(k, N, first), first)
    else:
        terms = enumerate(_log_pmf_terms(k, total_energy, channel))
    out, prev, top = [], -math.inf, -math.inf
    for n, lp in terms:
        if n >= first:
            out.append(lp)
            top = max(top, lp)
            d = lp - prev  # log r
            rest = lp + d - math.log(-math.expm1(d)) if d < 0 else math.inf
            if n >= last or lp == -math.inf or rest < top + _LOG_TAIL_TOL:
                return np.array(out)
        prev = lp


def log_tail_probability(
    k: int, total_energy: float, channel: ChannelModel, threshold: float, upper: bool
) -> float:
    """Natural log of P(S_k > threshold) if ``upper``, else of P(S_k <= threshold).

    Both tails are summed term by term by logsumexp over log p_k(n): the
    lower one over n <= threshold, the upper one from the first count above
    it, each until the rest is negligible.  Neither is taken as 1 minus a
    sum, so tails far below float range keep their full relative accuracy.
    """
    _check_law(k, total_energy)
    if not threshold < _FLOAT_COUNTS:
        raise ValueError(f"threshold {threshold} is beyond 2^53 counts, where floats "
                         "no longer resolve single counts")
    t = max(math.floor(threshold), -1)
    if upper:
        log_p = _log_pmf_tail(k, total_energy, channel, t + 1)
    elif t < 0:
        return -math.inf
    else:
        log_p = _log_pmf_tail(k, total_energy, channel, 0, last=t)
    return float(logsumexp(log_p))


def photon_pmf_array(nmax: int, energy: float, channel: ChannelModel) -> np.ndarray:
    """pmf p(n | energy, N) for n = 0..nmax: the k = 1 count law."""
    if nmax < 0:
        raise ValueError(f"nmax must be >= 0, got {nmax}")
    _check_law(1, energy)
    return np.exp(_log_pmf(1, energy, channel, nmax))


def mgf(z: float, total_energy: float, channel: ChannelModel, k: int) -> float:
    """Probability generating function E[z^{S_k}] of the total count over k modes.

    Equals exp(-E (1-z)/(N+1-Nz)) / (N+1-Nz)^k on z < (N+1)/N (any z at N=0).
    """
    if total_energy < 0:
        raise ValueError(f"total_energy must be >= 0, got {total_energy}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    N = channel.n_thermal
    denom = N + 1 - N * z
    if denom <= 0:
        raise ValueError(f"z={z} outside convergence domain z < {(N + 1) / N}")
    return math.exp(-total_energy * (1 - z) / denom) / denom**k


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
    """
    half = variance / 2
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


def exact_total_pmf(
    k: int,
    total_energy: float,
    channel: ChannelModel,
    cutoff: int | None = None,
) -> np.ndarray:
    """Exact distribution of the total count S_k on {0, ..., cutoff}.

    The closed-form Laguerre law, which depends on the per-mode energies only
    through their sum.  With ``cutoff=None`` the support runs until the
    remaining tail is negligible; an explicit cutoff that captures less than
    1 - 1e-12 of the mass is rejected.
    """
    _check_law(k, total_energy)
    if cutoff is None:
        pmf = np.exp(_log_pmf_tail(k, total_energy, channel, 0))
    elif cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    else:
        pmf = np.exp(_log_pmf(k, total_energy, channel, cutoff))
    if pmf.sum() < 1 - _MASS_TOL:
        raise ValueError(f"cutoff={cutoff} captures mass {pmf.sum():.17g} < 1 - 1e-12")
    return pmf


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


def theta_exponent(delta: float, channel: ChannelModel) -> float:
    """Lower-tail exponent: false accepts decay as exp(-||Delta||^2 * Theta)."""
    N = channel.n_thermal
    _check_delta(delta)
    # (1 - r) / (N + 1 - N r) with r = (N+1)^{-1/(N+delta)} = e^u, in a form
    # that keeps its precision where r rounds to 1 (large N)
    em1 = math.expm1(-math.log1p(N) / (N + delta))
    return -em1 / (1 - N * em1)


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


def chernoff_lower_logbound(
    k: int, delta: float, signal_energy: float, channel: ChannelModel
) -> float:
    """Rigorous log Chernoff bound on P(S_k <= k(N+delta)) at given total energy.

    Minimizes s k(N+delta) - k ln(N+1-N e^{-s}) - E (1-e^{-s})/(N+1-N e^{-s})
    over s > 0 and clamps at 0 (the bound never exceeds probability one).
    """
    N = channel.n_thermal
    _check_delta(delta)
    if signal_energy < 0:
        raise ValueError(f"signal_energy must be >= 0, got {signal_energy}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    t = k * (N + delta)
    from scipy.optimize import minimize_scalar

    def obj(s: float) -> float:
        w = math.exp(-s)
        denom = N + 1 - N * w
        return s * t - k * math.log(denom) - signal_energy * (1 - w) / denom

    res = minimize_scalar(
        obj, bounds=(1e-12, 60.0), method="bounded", options={"xatol": 1e-13}
    )
    if not res.success:
        raise RuntimeError(f"Chernoff minimization failed: {res.message}")
    return min(float(res.fun), 0.0)


def theta_lower_logbound(
    signal_energy: float, delta: float, channel: ChannelModel
) -> float:
    """Closed-form variant -signal_energy * Theta(delta, N), for comparison only.

    Reported alongside the rigorous optimized bound; not guaranteed to
    dominate the exact tail in every regime.
    """
    return -signal_energy * theta_exponent(delta, channel)
