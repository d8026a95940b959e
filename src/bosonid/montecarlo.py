"""Empirical verification of the identification scheme.

The threshold detector commutes with the displaced number basis, so both
error events reduce to classical total-photon-count thresholds: a first-kind
error is "k thermal modes exceed k(N+delta)", and a second-kind error for the
pair (m, m') is "k displaced thermal modes with amplitudes Delta = alpha_m' -
alpha_m stay at or below k(N+delta)".  Their laws depend on a code only
through k and ||Delta||^2, so the simulators take those numbers; exact tail
masses, Poisson mixtures of incomplete betas summed in log domain
(`photonstats.log_tail_probability`), are the ground truth.  A heterodyne
baseline (ball test on the induced Gaussian channel) is included with its
closed-form chi-square error probabilities.

Every event depends on a trial only through a sum of squared Gaussians: the
summed P-function intensity I of the k modes, or the heterodyne norm
||Delta + w||^2.  `_intensities` draws it at zero energy and at the pair's
energy from one normal and one chi-square per trial, and `_error_rates`
counts both receivers' errors as cuts on those draws: the ball test cuts at
its threshold, the photon counter at one Gamma(t+1) draw.  By the
Poisson-gamma duality (Devroye, Non-Uniform Random Variate Generation, 1986,
ch. X) a Poisson(I) count is at most t exactly when the (t+1)-th arrival of
a unit-rate process, a Gamma(t+1) time, comes after I, so no count is drawn
and an intensity beyond any Poisson sampler's range simply leaves no count
at or below t.
Trials are split into `DEFAULT_CHUNKS` chunks, each drawn from its own
stream seeded by (master seed, chunk index).
The chunks run at the same time, on one thread per CPU the process may use
(at most DEFAULT_CHUNKS); numpy's samplers and ufuncs release the GIL while
they fill large arrays.  Each chunk draws in blocks of at most `_BLOCK`
trials, so memory stays bounded by the workers times a few arrays of _BLOCK
doubles whatever k and the trial count (`sampled_pairs` gathers the sampled
pairs' rows in slices of at most `_GATHER` entries).
Chunk success counts merge by integer summation, so results are
bit-identical for a fixed seed whatever the CPU count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .photonstats import (ChannelModel, DetectorSpec, RangeError, _check_k, _check_law,
                          _check_nonnegative, log_tail_probability)

__all__ = [
    "McEstimate",
    "HeterodyneSpec",
    "estimate_errors",
    "exact_lambda1",
    "exact_lambda2",
    "sampled_pairs",
    "heterodyne_simulate",
    "heterodyne_analytic",
    "wilson_interval",
]

DEFAULT_CHUNKS = 8
_BLOCK = 1 << 16  # trials drawn at once within a chunk
_GATHER = 1 << 16  # row entries gathered at once for per-trial pair energies
# two-sided 99.7% normal quantile, scipy.special.ndtri(1 - (1 - 0.997) / 2)
_WILSON_Z = 2.9677379253417717
# threads that run the chunks: one per CPU this process may use
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1)


@dataclass(frozen=True)
class McEstimate:
    """Successes in a number of trials; the point estimate and its binomial
    standard error follow from the two."""

    successes: int
    trials: int

    @property
    def point(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        return math.sqrt(self.point * (1 - self.point) / self.trials)


@dataclass(frozen=True)
class HeterodyneSpec:
    """Ball-test receiver on the heterodyne output: accept iff ||z - alpha_m||^2 <= threshold.

    noise_variance is the per-mode complex variance; >= 1 (shot-noise floor,
    equal to N+1 under the thermal extension); :meth:`make` sets it and the
    threshold k (N + 1) (1 + delta), which is >= 0 for delta >= -1.
    """

    noise_variance: float
    threshold: float

    def __post_init__(self):
        if not 1 <= self.noise_variance < math.inf:
            raise RangeError("noise_variance must be finite and >= 1 (shot noise), "
                             f"got {self.noise_variance}", "noise_variance")
        _check_nonnegative("threshold", self.threshold)

    @classmethod
    def make(cls, delta: float, k: int, channel: ChannelModel) -> "HeterodyneSpec":
        if not -1 <= delta < math.inf:
            raise RangeError(f"delta must be finite and >= -1, got {delta}", "delta")
        _check_k(k)
        sigma2 = channel.n_thermal + 1  # shot noise plus thermal extension
        return cls(noise_variance=sigma2, threshold=k * sigma2 * (1 + delta))


def wilson_interval(successes: int, trials: int):
    """99.7% Wilson score interval; well behaved in small-probability regimes.
    At 0 or ``trials`` successes the end at the point is exactly 0 or 1,
    where ``center -/+ half`` can round past it."""
    z = _WILSON_Z
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    return low, 1.0 if successes == trials else min(1.0, center + half)


def sampled_pairs(rows):
    """(rng, n) -> ||Delta||^2 of n ordered pairs (send, recv), recv != send,
    drawn uniformly from a code's real (M, 2k) rows of (re, im) pairs, summed
    as `geometry.closest_pair` sums its d^2.  A complex array raises ValueError."""
    if np.iscomplexobj(rows):
        raise ValueError("sampled_pairs takes real rows; pass the (re, im) view of complex ones")
    m, width = rows.shape
    if m < 2:
        raise ValueError("need at least 2 signatures")
    step = max(1, _GATHER // width)  # rows per gather, so memory is O(_GATHER)

    def energies(rng, n):
        send = rng.integers(0, m, size=n)
        recv = rng.integers(0, m - 1, size=n)
        recv += recv >= send  # uniform over ordered pairs with recv != send
        return np.concatenate([
            ((rows[send[i : i + step]] - rows[recv[i : i + step]]) ** 2).sum(axis=1)
            for i in range(0, n, step)
        ])

    return energies


def _intensities(k: int, energy, variance: float, rng: np.random.Generator, n: int):
    """(I_0, I_E): sum_t |gamma_t|^2 over k modes with gamma_t ~ CN(alpha_t,
    variance), drawn in law at ||alpha||^2 = 0 and at ``energy``, a scalar or
    one value per trial, from the same n normals Z and chi^2(2k-1) draws X.

    The 2k real quadratures are independent normals of variance v = variance/2
    about those of alpha.  Their law is invariant under rotations of R^{2k},
    and a rotation that takes alpha onto the first axis keeps the norm, so
    the sum is (sqrt(v) Z + ||alpha||)^2 + v X in law: I_0 = v (Z^2 + X) and
    I_E = I_0 + E + 2 sqrt(v E) Z, which is exactly E where v is 0.  A sum
    beyond the float range is inf, or NaN in I_E, and every comparison
    `_error_rates` makes reads either as above the cut.
    """
    v = variance / 2
    z = rng.normal(size=n)
    with np.errstate(over="ignore", invalid="ignore"):
        i0 = v * (z * z + rng.chisquare(2 * k - 1, n))
        return i0, i0 + energy + 2 * math.sqrt(v) * np.sqrt(energy) * z


def _error_rates(k: int, energy, variance: float, cut, trials: int, seed: int) -> dict:
    """{"lambda1", "lambda2"} as McEstimates: the trials with cut < I_0 and
    with cut >= I_E, for `_intensities`' draws (I_0, I_E) at ``energy`` (a
    float, or a function (rng, n) -> n energies called first on each block's
    stream) and the n cuts cut(rng, n), a scalar or an array.  Chunk i of
    DEFAULT_CHUNKS draws from its own stream, seeded by (seed, i), in blocks of
    at most _BLOCK trials, on min(_WORKERS, DEFAULT_CHUNKS) threads; the sum of
    the integer counts does not depend on which thread ran which.  < and >=,
    rather than <= and >, keep a zero intensity's count at 0 where a drawn cut
    rounds to 0.0, and a NaN I_E reads as above every cut.
    """
    from concurrent.futures import ThreadPoolExecutor  # it loads logging: not on import

    if not callable(energy):
        _check_law(k, energy)
    if trials < 1:
        raise RangeError("trials must be >= 1", "trials")
    base, extra = divmod(trials, DEFAULT_CHUNKS)

    def chunk(i):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        size = base + (1 if i < extra else 0)
        counts = np.zeros(2, dtype=np.int64)
        for start in range(0, size, _BLOCK):
            n = min(_BLOCK, size - start)
            energies = energy(rng, n) if callable(energy) else energy
            i0, ie = _intensities(k, energies, variance, rng, n)
            at = cut(rng, n)
            counts += [np.count_nonzero(at < i0), np.count_nonzero(at >= ie)]
        return counts

    with ThreadPoolExecutor(max_workers=min(_WORKERS, DEFAULT_CHUNKS)) as pool:
        succ1, succ2 = sum(pool.map(chunk, range(DEFAULT_CHUNKS))).tolist()
    return {"lambda1": McEstimate(succ1, trials), "lambda2": McEstimate(succ2, trials)}


def estimate_errors(energy, channel: ChannelModel, detector: DetectorSpec, trials: int,
                    seed: int) -> dict:
    """Both error rates of the threshold detector, on the same draws.

    Returns {"lambda1": ..., "lambda2": ...} as McEstimates.  lambda1 is the
    first-kind rate, the total thermal count above k(N+delta); by unitary
    invariance it is the same for every signature.  lambda2 is the
    second-kind (false-accept) rate: the count of a pair's displaced thermal
    state at most k(N+delta).  It depends only on ||Delta||^2, Delta =
    alpha_m' - alpha_m, and ``energy`` is that float (the worst pair's, say),
    or a function (rng, n) -> n energies such as `sampled_pairs` returns.
    The cut is one Gamma(t+1) arrival time per trial, t = floor(k(N+delta)):
    the count exceeds t iff the arrival comes before the intensity.
    """
    t = math.floor(detector.threshold)
    return _error_rates(detector.k, energy, channel.n_thermal,
                        lambda rng, n: rng.standard_gamma(t + 1, n), trials, seed)


def exact_lambda1(channel: ChannelModel, detector: DetectorSpec) -> float:
    """Exact P(S_k > k(N+delta)) at zero signal energy: the negative binomial
    upper tail, one incomplete beta."""
    return math.exp(
        log_tail_probability(detector.k, 0.0, channel, detector.threshold, upper=True))


def exact_lambda2(delta_vec, channel: ChannelModel, detector: DetectorSpec) -> float:
    """Exact P(S_k <= k(N+delta)) at ||Delta||^2, the summed |entries|^2 of
    ``delta_vec``: Delta in C^k, or its real (re, im) pairs as a code's rows give."""
    energy = float(np.sum(np.abs(np.asarray(delta_vec, dtype=complex)) ** 2))
    return math.exp(
        log_tail_probability(detector.k, energy, channel, detector.threshold, upper=False))


def heterodyne_simulate(k: int, energy: float, spec: HeterodyneSpec, trials: int,
                        seed: int) -> dict:
    """Ball-test errors on the Gaussian channel z = alpha + w.

    Returns {"lambda1": ..., "lambda2": ...} as McEstimates; lambda1 is the
    event ||w||^2 > threshold, lambda2 the event ||Delta + w||^2 <= threshold
    at ``energy`` = ||Delta||^2, a float (the worst pair's, say) or a function
    (rng, n) -> n energies.  With w_t ~ CN(0, noise_variance) the two norms
    are `_intensities`' (I_0, I_E), and the cut is the threshold itself: it
    draws nothing, so the streams are those of the intensities alone.
    """
    return _error_rates(k, energy, spec.noise_variance, lambda rng, n: spec.threshold,
                        trials, seed)


def heterodyne_analytic(k: int, spec: HeterodyneSpec, distance: float) -> dict:
    """Exact ball-test error probabilities from chi-square laws.

    ||w||^2 scaled by 2/noise_variance is central chi-square with 2k degrees
    of freedom; ||Delta + w||^2 is noncentral with noncentrality
    2 distance^2 / noise_variance.  Where scipy's noncentral tail is NaN (from
    a noncentrality of about 1e19 on, and from 1e15 with the threshold near
    it), lambda2 is 0.0 if its upper bound is: ||Delta + w||^2 <= tau needs w's component
    along Delta, N(0, noise_variance/2), at or below sqrt(tau) - distance, so
    lambda2 <= erfc((distance - sqrt(tau)) / sqrt(noise_variance)) / 2.
    Elsewhere a NaN raises ValueError.
    """
    from scipy.special import chndtr, gammaincc

    _check_k(k)
    _check_nonnegative("distance", distance)
    x = 2 * spec.threshold / spec.noise_variance
    nc = 2 * distance**2 / spec.noise_variance
    lambda2 = float(chndtr(x, 2 * k, nc))
    if math.isnan(lambda2):
        shortfall = (distance - math.sqrt(spec.threshold)) / math.sqrt(spec.noise_variance)
        if math.erfc(shortfall) / 2 != 0.0:
            raise ValueError(f"the noncentral chi-square tail at noncentrality {nc:.6g} and "
                             f"threshold {x:.6g} is out of scipy's range")
        lambda2 = 0.0
    return {"lambda1": float(gammaincc(k, x / 2)), "lambda2": lambda2}
