"""Empirical verification of the identification scheme.

The threshold detector commutes with the displaced number basis, so both
error events reduce to classical total-photon-count thresholds: a first-kind
error is "k thermal modes exceed k(N+delta)", and a second-kind error for the
pair (m, m') is "k displaced thermal modes with amplitudes Delta = alpha_m' -
alpha_m stay at or below k(N+delta)".  The simulators realize exactly those
events; exact tail masses, Poisson mixtures of incomplete betas summed in log
domain (`photonstats.log_tail_probability`), are the ground truth.  A
heterodyne baseline (ball test on the induced Gaussian channel) is included
with its closed-form chi-square error probabilities.

Every event depends on a trial only through a sum of squared Gaussians: the
summed P-function intensity of the k modes, or the heterodyne norm
||Delta + w||^2.  Both are drawn in law by `photonstats.sample_intensity`, a
scaled noncentral chi-square taken as one normal and one chi-square per
trial, and the photon counts by `photonstats.sample_photon_counts` as one
Poisson count of that intensity.  Trials are split into `DEFAULT_CHUNKS`
chunks, drawn one after another from independently seeded streams derived
from (master seed, chunk index); each chunk draws in blocks of at most
`_BLOCK` trials, so memory stays bounded by a few arrays of _BLOCK doubles
whatever k and the trial count (`all_pairs_sampled` gathers the sampled
pairs' signature differences in slices of at most `_GATHER` entries).
Results merge by summation and are bit-identical for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, gammaincc, ndtri

from .photonstats import (
    ChannelModel,
    DetectorSpec,
    log_tail_probability,
    sample_intensity,
    sample_photon_counts,
)
from .scheme import SignatureSet

__all__ = [
    "McEstimate",
    "HeterodyneSpec",
    "estimate_lambda1",
    "estimate_lambda2",
    "exact_lambda1",
    "exact_lambda2",
    "worst_pair_delta",
    "heterodyne_simulate",
    "heterodyne_analytic",
    "wilson_interval",
]

DEFAULT_CHUNKS = 8
_BLOCK = 1 << 16  # trials drawn at once within a chunk
_GATHER = 1 << 16  # signature entries gathered at once for per-trial pair energies
_WILSON_Z = ndtri(1 - (1 - 0.997) / 2)  # two-sided 99.7% normal quantile


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
    """99.7% Wilson score interval; well behaved in small-probability regimes."""
    z = _WILSON_Z
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _blocks(trials: int, seed: int):
    """(rng, n) for every block: chunk i of DEFAULT_CHUNKS draws from its own
    stream, seeded by (seed, i), in consecutive blocks of at most _BLOCK trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base, extra = divmod(trials, DEFAULT_CHUNKS)
    for i in range(DEFAULT_CHUNKS):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        size = base + (1 if i < extra else 0)
        for start in range(0, size, _BLOCK):
            yield rng, min(_BLOCK, size - start)


def estimate_lambda1(
    code: SignatureSet,
    channel: ChannelModel,
    detector: DetectorSpec,
    trials: int,
    seed: int,
) -> McEstimate:
    """First-kind error rate: total thermal count exceeds k(N+delta).

    By unitary invariance the event is identical for every signature, so the
    code enters only through k.
    """
    successes = 0
    for rng, n in _blocks(trials, seed):
        counts = sample_photon_counts(code.k, 0.0, channel, rng, n)
        successes += int(np.count_nonzero(counts > detector.threshold))
    return McEstimate(successes, trials)


def worst_pair_delta(code: SignatureSet) -> np.ndarray:
    """Difference vector of the minimum-distance pair (lowest-index tie-break)."""
    _, i, j = code.closest_pair
    return code.signatures[j] - code.signatures[i]


def estimate_lambda2(
    code: SignatureSet,
    channel: ChannelModel,
    detector: DetectorSpec,
    trials: int,
    seed: int,
    pair_strategy: str = "worst_pair",
) -> McEstimate:
    """Second-kind (false-accept) error rate of the threshold detector.

    The event for a pair depends only on Delta = alpha_m' - alpha_m:
    displaced thermal counts with amplitudes Delta_t total at most k(N+delta).
    worst_pair uses the minimum-distance pair; all_pairs_sampled averages over
    uniformly sampled ordered pairs.
    """
    if pair_strategy not in ("worst_pair", "all_pairs_sampled"):
        raise ValueError(f"unknown pair_strategy {pair_strategy!r}")
    m = len(code)
    if m < 2:
        raise ValueError("need at least 2 signatures")
    sigs = code.signatures
    # the count law depends on Delta only through ||Delta||^2
    energy = code.closest_pair[0] if pair_strategy == "worst_pair" else None
    successes = 0
    for rng, n in _blocks(trials, seed):
        if pair_strategy == "all_pairs_sampled":
            send = rng.integers(0, m, size=n)
            recv = rng.integers(0, m - 1, size=n)
            recv += recv >= send  # uniform over ordered pairs with recv != send
            step = max(1, _GATHER // code.k)  # rows per gather, so memory is O(_GATHER)
            energy = np.concatenate([
                np.sum(np.abs(sigs[send[i : i + step]] - sigs[recv[i : i + step]]) ** 2, axis=1)
                for i in range(0, n, step)
            ])
        counts = sample_photon_counts(code.k, energy, channel, rng, n)
        successes += int(np.count_nonzero(counts <= detector.threshold))
    return McEstimate(successes, trials)


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
    code: SignatureSet,
    spec: HeterodyneSpec,
    trials: int,
    seed: int,
) -> dict:
    """Ball-test errors on the Gaussian channel z = alpha + w.

    Returns {"lambda1": ..., "lambda2_worst": ...} as McEstimates; lambda1 is
    the event ||w||^2 > threshold, lambda2 the worst-pair event
    ||Delta + w||^2 <= threshold.  With w_t ~ CN(0, noise_variance), both
    norms are drawn in law by `photonstats.sample_intensity`:
    ||w||^2 = s chi^2(2k) and ||Delta + w||^2 = (sqrt(s) Z + ||Delta||)^2
    + s chi^2(2k-1), with s = noise_variance / 2 per real quadrature.
    """
    k, var = code.k, spec.noise_variance
    energy = code.closest_pair[0]  # ||Delta||^2 of the worst pair
    succ1 = 0
    succ2 = 0
    for rng, n in _blocks(trials, seed):
        norm1 = sample_intensity(k, 0.0, var, rng, n)
        succ1 += int(np.count_nonzero(norm1 > spec.threshold))
        norm2 = sample_intensity(k, energy, var, rng, n)
        succ2 += int(np.count_nonzero(norm2 <= spec.threshold))
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
    if k < 1:
        raise ValueError("k must be >= 1")
    if distance < 0:
        raise ValueError("distance must be >= 0")
    x = 2 * spec.threshold / spec.noise_variance
    nc = 2 * distance**2 / spec.noise_variance
    return {"lambda1": float(gammaincc(k, x / 2)), "lambda2": float(chndtr(x, 2 * k, nc))}
