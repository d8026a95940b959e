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

This module provides the tails of S_k in log domain, the law's one
implementation (`montecarlo` samples the threshold events, not the count),
and the detector error bounds: the upper-tail exponent Lambda, with the
Chernoff exponent maximized numerically by a golden-section search as its
oracle, and the lower-tail Chernoff bound at a pair's energy ||Delta||^2.
Of scipy it imports `scipy.special` alone, inside the functions that call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RangeError",
    "ChannelModel",
    "DetectorSpec",
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
_GOLDEN = (math.sqrt(5) - 1) / 2  # each golden-section step keeps this share
# (-1)^k / k for k = 18, ..., 2: x^2/2 - x^3/3 + ... to 17 terms; below
# x = 0.1 the first term left out, x^19/19, is under 1e-18 of the first
_PHI_SERIES = tuple((-1) ** k / k for k in range(18, 1, -1))
# ln j! - (j + 1/2) ln j + j - ln(2 pi)/2 = 1/(12 j) - ..., within 2e-16 from j = 16
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


class RangeError(ValueError):
    """An argument out of its range; ``params`` names the parameters at fault."""

    def __init__(self, message: str, *params: str):
        super().__init__(message)
        self.params = params


@dataclass(frozen=True)
class ChannelModel:
    """Bosonic channel with mean thermal photon number ``n_thermal`` >= 0."""

    n_thermal: float

    def __post_init__(self):
        _check_nonnegative("n_thermal", self.n_thermal)


def _check_k(k: int) -> None:
    if k < 1:
        raise RangeError(f"k must be >= 1, got {k}", "k")


def _check_nonnegative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise RangeError(f"{name} must be finite and >= 0, got {value}", name)


def _check_delta(delta: float) -> None:
    if not 0 < delta < _FLOAT_COUNTS:
        raise RangeError(f"delta must be finite, > 0 and below 2^53 counts, got {delta}", "delta")


@dataclass(frozen=True)
class DetectorSpec:
    """Photon-number threshold detector over k >= 1 modes: accept iff total
    count <= threshold, a count 0 <= threshold < 2^53.  :meth:`make` sets it to
    ``k * (n_thermal + delta)``.
    """

    k: int
    threshold: float

    def __post_init__(self):
        _check_k(self.k)
        _check_threshold(self.threshold)
        _check_nonnegative("threshold", self.threshold)

    @classmethod
    def make(cls, delta: float, k: int, channel: ChannelModel) -> "DetectorSpec":
        _check_delta(delta)
        return cls(k=k, threshold=k * (channel.n_thermal + delta))


def _check_law(k: int, total_energy: float) -> None:
    _check_k(k)
    _check_nonnegative("total_energy", total_energy)


def _check_threshold(threshold: float) -> None:
    if not threshold < _FLOAT_COUNTS:
        raise RangeError(f"threshold {threshold} is beyond 2^53 counts, where floats "
                         "no longer resolve single counts", "threshold")


def _log_poisson(j, lam: float) -> np.ndarray:
    """ln Poi(j; lam) for integers j >= 0 and lam > 0; from j = 16 on, where
    j ln lam - lam - ln j! cancels terms of size j ln j, as (Loader 2000)
    -j phi(lam/j) - ln(2 pi j)/2 - s(j), phi(u) = u - 1 - ln u, s in _STIRLING."""
    from scipy.special import gammaln

    j = np.asarray(j, float)
    out = j * math.log(lam) - lam - gammaln(j + 1)
    large = j >= 16
    if not large.any():
        return out
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
    from scipy.special import betainc, betaincc

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
    from scipy.special import betaln, gammaln

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
            return _log_sum_exp(terms, top)
        width *= 2


def _log_sum_exp(terms: np.ndarray, top: float) -> float:
    """ln sum exp(terms) for ``top`` = terms.max(), computed as
    `scipy.special.logsumexp` computes it, to the bit, without its array-API
    overhead: the m terms equal to top apart, ln(1 + s/m) + ln m + top with
    s the sum of exp(term - top) over the rest, each left in its place."""
    if top == -math.inf:  # no mass: top - top would be NaN
        return -math.inf
    at_top = terms == top
    m = float(np.count_nonzero(at_top))
    s = np.exp(np.where(at_top, -math.inf, terms) - top).sum()
    return float(np.log1p(s / m) + np.log(m) + top)


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
    t, N = math.floor(max(threshold, -1)), channel.n_thermal
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


def lambda_exponent(delta: float, channel: ChannelModel) -> float:
    """Upper-tail exponent: P(S_k >= k(N+delta)) <= exp(-k * Lambda)."""
    N = channel.n_thermal
    _check_delta(delta)
    if N == 0:
        raise RangeError("lambda_exponent is undefined at n_thermal = 0", "n_thermal")
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
    _check_nonnegative("pair_energy", pair_energy)
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

    Maximizes the concave s(N+delta) + ln(N+1-N e^s) over s in
    [0, ln((N+1)/N) (1 - 1e-12)] by golden-section search (Kiefer, Proc. AMS
    4, 1953), which reads only values of the function, each step one new
    one, until the bracket is 1e-15 of ln((N+1)/N) wide.  It agrees with
    :func:`lambda_exponent` analytically and serves as its oracle.
    """
    N = channel.n_thermal
    _check_delta(delta)
    if N == 0:
        raise RangeError("requires n_thermal > 0", "n_thermal")
    s_max = math.log1p(1 / N)  # ln((N+1)/N), without rounding (N+1)/N
    if s_max == math.inf:
        raise RangeError(f"requires 1/n_thermal finite, got n_thermal = {N}", "n_thermal")

    def f(s: float) -> float:  # N+1-N e^s as 1 - N (e^s - 1): no rounded N+1
        return s * (N + delta) + math.log1p(-N * math.expm1(s))

    lo, hi = 0.0, s_max * (1 - 1e-12)
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-15 * s_max:  # keep the bracket on the larger value
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    s, value = (x1, f1) if f1 >= f2 else (x2, f2)
    if s >= s_max * (1 - 1e-9):
        raise RuntimeError("Chernoff maximum not interior to (0, ln((N+1)/N))")
    return value
