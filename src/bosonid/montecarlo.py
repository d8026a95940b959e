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
summed P-function intensity of the k modes, or the heterodyne norm
||Delta + w||^2.  Both are drawn in law by `photonstats.sample_intensity`, a
scaled noncentral chi-square taken as one normal and one chi-square per
trial, and the photon counts by `photonstats.sample_photon_counts` as one
Poisson count of that intensity.  Trials are split into `DEFAULT_CHUNKS`
chunks, each drawn from its own stream seeded by (master seed, chunk index).
The chunks run at the same time, on one thread per CPU the process may use
(at most DEFAULT_CHUNKS); numpy's samplers and ufuncs release the GIL while
they fill large arrays.  Each chunk draws in blocks of at most `_BLOCK`
trials, so memory stays bounded by the workers times a few arrays of _BLOCK
doubles whatever k and the trial count (`sampled_pairs` gathers the sampled
pairs' signature differences in slices of at most `_GATHER` entries).
Chunk success counts merge by integer summation, so results are
bit-identical for a fixed seed whatever the CPU count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .photonstats import (
    ChannelModel,
    DetectorSpec,
    _check_law,
    log_tail_probability,
    sample_intensity,
    sample_photon_counts,
)

__all__ = [
    "McEstimate",
    "HeterodyneSpec",
    "estimate_lambda1",
    "estimate_lambda2",
    "exact_lambda1",
    "exact_lambda2",
    "sampled_pairs",
    "heterodyne_simulate",
    "heterodyne_analytic",
    "wilson_interval",
]

DEFAULT_CHUNKS = 8
_BLOCK = 1 << 16  # trials drawn at once within a chunk
_GATHER = 1 << 16  # signature entries gathered at once for per-trial pair energies
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
    equal to N+1 under the thermal extension).
    """

    noise_variance: float
    threshold: float

    def __post_init__(self):
        if not 1 <= self.noise_variance < math.inf:
            raise ValueError(
                f"noise_variance must be finite and >= 1 (shot noise), got {self.noise_variance}"
            )
        if not 0 <= self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")


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


def _successes(trials: int, seed: int, count):
    """Sum of count(rng, n) over every block: chunk i of DEFAULT_CHUNKS draws
    from its own stream, seeded by (seed, i), in consecutive blocks of at most
    _BLOCK trials.  The chunks run on min(_WORKERS, DEFAULT_CHUNKS) threads;
    the sum of their integer counts does not depend on which thread ran which."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base, extra = divmod(trials, DEFAULT_CHUNKS)

    def chunk(i):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        size = base + (1 if i < extra else 0)
        return sum(count(rng, min(_BLOCK, size - start)) for start in range(0, size, _BLOCK))

    with ThreadPoolExecutor(max_workers=min(_WORKERS, DEFAULT_CHUNKS)) as pool:
        return sum(pool.map(chunk, range(DEFAULT_CHUNKS)))


def estimate_lambda1(
    channel: ChannelModel, detector: DetectorSpec, trials: int, seed: int
) -> McEstimate:
    """First-kind error rate: total thermal count exceeds k(N+delta).

    By unitary invariance the event is identical for every signature, so the
    code enters only through k.  It is the complement of the second-kind
    event at zero energy, counted on the same draws.
    """
    below = estimate_lambda2(0.0, channel, detector, trials, seed)
    return McEstimate(trials - below.successes, trials)


def sampled_pairs(signatures):
    """(rng, n) -> ||Delta||^2 of n ordered pairs (send, recv), recv != send,
    drawn uniformly from the rows of an (M, k) signature array."""
    m, k = signatures.shape
    if m < 2:
        raise ValueError("need at least 2 signatures")
    step = max(1, _GATHER // k)  # rows per gather, so memory is O(_GATHER)

    def energies(rng, n):
        send = rng.integers(0, m, size=n)
        recv = rng.integers(0, m - 1, size=n)
        recv += recv >= send  # uniform over ordered pairs with recv != send
        return np.concatenate([
            np.sum(np.abs(signatures[send[i : i + step]] - signatures[recv[i : i + step]]) ** 2,
                   axis=1)
            for i in range(0, n, step)
        ])

    return energies


def estimate_lambda2(
    energy, channel: ChannelModel, detector: DetectorSpec, trials: int, seed: int
) -> McEstimate:
    """Second-kind (false-accept) error rate of the threshold detector.

    The event for a pair depends only on ||Delta||^2, Delta = alpha_m' -
    alpha_m: displaced thermal counts of that total energy are at most
    k(N+delta).  ``energy`` is that float (the worst pair's, say), or a
    function (rng, n) -> n energies such as `sampled_pairs` returns, called on
    each block's stream before its counts are drawn.
    """
    if not callable(energy):
        _check_law(detector.k, energy)

    def count(rng, n):
        energies = energy(rng, n) if callable(energy) else energy
        counts = sample_photon_counts(detector.k, energies, channel, rng, n)
        return np.count_nonzero(counts <= detector.threshold)

    return McEstimate(int(_successes(trials, seed, count)), trials)


def exact_lambda1(channel: ChannelModel, detector: DetectorSpec) -> float:
    """Exact P(S_k > k(N+delta)) at zero signal energy: the negative binomial
    upper tail, one incomplete beta."""
    return math.exp(
        log_tail_probability(detector.k, 0.0, channel, detector.threshold, upper=True)
    )


def exact_lambda2(delta_vec, channel: ChannelModel, detector: DetectorSpec) -> float:
    """Exact P(S_k <= k(N+delta)) at per-mode energies |Delta_t|^2; the law
    depends on them only through their sum."""
    energy = float(np.sum(np.abs(np.asarray(delta_vec, dtype=complex)) ** 2))
    return math.exp(
        log_tail_probability(detector.k, energy, channel, detector.threshold, upper=False))


def heterodyne_simulate(
    k: int, energy: float, spec: HeterodyneSpec, trials: int, seed: int
) -> dict:
    """Ball-test errors on the Gaussian channel z = alpha + w.

    Returns {"lambda1": ..., "lambda2_worst": ...} as McEstimates; lambda1 is
    the event ||w||^2 > threshold, lambda2 the event ||Delta + w||^2 <=
    threshold at ``energy`` = ||Delta||^2, the worst pair's.  With
    w_t ~ CN(0, noise_variance), both norms are drawn in law by
    `photonstats.sample_intensity`:
    ||w||^2 = s chi^2(2k) and ||Delta + w||^2 = (sqrt(s) Z + ||Delta||)^2
    + s chi^2(2k-1), with s = noise_variance / 2 per real quadrature.
    """
    _check_law(k, energy)
    var = spec.noise_variance

    def count(rng, n):
        norm1 = sample_intensity(k, 0.0, var, rng, n)
        succ1 = np.count_nonzero(norm1 > spec.threshold)
        norm2 = sample_intensity(k, energy, var, rng, n)
        return np.array([succ1, np.count_nonzero(norm2 <= spec.threshold)])

    succ1, succ2 = _successes(trials, seed, count).tolist()
    return {
        "lambda1": McEstimate(succ1, trials),
        "lambda2_worst": McEstimate(succ2, trials),
    }


def heterodyne_analytic(k: int, spec: HeterodyneSpec, distance: float) -> dict:
    """Exact ball-test error probabilities from chi-square laws.

    ||w||^2 scaled by 2/noise_variance is central chi-square with 2k degrees
    of freedom; ||Delta + w||^2 is noncentral with noncentrality
    2 distance^2 / noise_variance.
    """
    from scipy.special import chndtr, gammaincc

    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= distance < math.inf:
        raise ValueError(f"distance must be finite and >= 0, got {distance}")
    x = 2 * spec.threshold / spec.noise_variance
    nc = 2 * distance**2 / spec.noise_variance
    return {"lambda1": float(gammaincc(k, x / 2)), "lambda2": float(chndtr(x, 2 * k, nc))}
