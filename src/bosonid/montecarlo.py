"""Empirical verification of the identification scheme.

The threshold detector commutes with the displaced number basis, so both
error events reduce to classical total-photon-count thresholds: a first-kind
error is "k thermal modes exceed k(N+delta)", and a second-kind error for the
pair (m, m') is "k displaced thermal modes with amplitudes Delta = alpha_m' -
alpha_m stay at or below k(N+delta)".  The simulators realize exactly those
events; exact tail masses, summed in log domain over the closed-form Laguerre
law (`photonstats.log_tail_probability`), are the ground truth.  A heterodyne
baseline (ball test on the induced Gaussian channel) is included with its
closed-form chi-square error probabilities.

The photon counts come from one sampler, `photonstats.sample_photon_counts`:
per trial it draws the k modes' Gaussian P-function displacements, then one
Poisson count of their summed intensity.  Trials are split into chunks with
independently seeded streams derived from (master seed, chunk index); each
chunk draws in blocks of at most `_BLOCK` trials, so memory stays bounded by
_BLOCK x k x 2 doubles whatever the trial count.  Results merge by summation
and are bit-identical for a fixed (seed, chunk count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chndtr, gammaincc, ndtri

from .photonstats import ChannelModel, DetectorSpec, log_tail_probability, sample_photon_counts
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


@dataclass(frozen=True)
class McEstimate:
    successes: int
    trials: int
    point: float
    stderr: float
    seed: int


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


def _make_estimate(successes: int, trials: int, seed: int) -> McEstimate:
    p = successes / trials
    return McEstimate(
        successes=successes,
        trials=trials,
        point=p,
        stderr=math.sqrt(p * (1 - p) / trials),
        seed=seed,
    )


def wilson_interval(successes: int, trials: int, confidence: float = 0.997):
    """Wilson score interval; well behaved in small-probability regimes."""
    z = ndtri(1 - (1 - confidence) / 2)
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _blocks(trials: int, seed: int, chunks: int):
    """(rng, n) for every block: chunk i draws from its own stream, seeded by
    (seed, i), in consecutive blocks of at most _BLOCK trials."""
    base, extra = divmod(trials, chunks)
    for i in range(chunks):
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
    chunks: int = DEFAULT_CHUNKS,
) -> McEstimate:
    """First-kind error rate: total thermal count exceeds k(N+delta).

    By unitary invariance the event is identical for every signature, so the
    code enters only through k.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    zeros = np.zeros(code.k, dtype=complex)
    successes = 0
    for rng, n in _blocks(trials, seed, chunks):
        counts = sample_photon_counts(zeros, channel, rng, n)
        successes += int(np.count_nonzero(counts > detector.threshold))
    return _make_estimate(successes, trials, seed)


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
    chunks: int = DEFAULT_CHUNKS,
) -> McEstimate:
    """Second-kind (false-accept) error rate of the threshold detector.

    The event for a pair depends only on Delta = alpha_m' - alpha_m:
    displaced thermal counts with amplitudes Delta_t total at most k(N+delta).
    worst_pair uses the minimum-distance pair; all_pairs_sampled averages over
    uniformly sampled ordered pairs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if pair_strategy not in ("worst_pair", "all_pairs_sampled"):
        raise ValueError(f"unknown pair_strategy {pair_strategy!r}")
    m = len(code)
    if m < 2:
        raise ValueError("need at least 2 signatures")
    sigs = code.signatures
    worst = worst_pair_delta(code) if pair_strategy == "worst_pair" else None
    successes = 0
    for rng, n in _blocks(trials, seed, chunks):
        if worst is None:
            send = rng.integers(0, m, size=n)
            recv = rng.integers(0, m - 1, size=n)
            recv += recv >= send  # uniform over ordered pairs with recv != send
            deltas = sigs[send] - sigs[recv]
        else:
            deltas = worst
        counts = sample_photon_counts(deltas, channel, rng, n)
        successes += int(np.count_nonzero(counts <= detector.threshold))
    return _make_estimate(successes, trials, seed)


def exact_lambda1(channel: ChannelModel, detector: DetectorSpec) -> float:
    """Exact P(S_k > k(N+delta)) at zero signal energy: the negative binomial
    upper tail, summed from the first count above the threshold."""
    return math.exp(
        log_tail_probability(detector.k, 0.0, channel, detector.threshold, upper=True)
    )


def exact_lambda2(delta_vec, channel: ChannelModel, detector: DetectorSpec) -> float:
    """Exact P(S_k <= k(N+delta)) at per-mode energies |Delta_t|^2; the law
    depends on them only through their sum."""
    energy = float(np.sum(np.abs(np.asarray(delta_vec, dtype=complex)) ** 2))
    log_p = log_tail_probability(detector.k, energy, channel, detector.threshold, upper=False)
    return min(1.0, math.exp(log_p))


def heterodyne_simulate(
    code: SignatureSet,
    spec: HeterodyneSpec,
    trials: int,
    seed: int,
    chunks: int = DEFAULT_CHUNKS,
) -> dict:
    """Ball-test errors on the Gaussian channel z = alpha + w.

    Returns {"lambda1": ..., "lambda2_worst": ...} as McEstimates; lambda1 is
    the event ||w||^2 > threshold, lambda2 the worst-pair event
    ||Delta + w||^2 <= threshold.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = code.k
    sigma = math.sqrt(spec.noise_variance / 2)  # per real quadrature
    delta_vec = worst_pair_delta(code)
    succ1 = 0
    succ2 = 0
    for rng, n in _blocks(trials, seed, chunks):
        w = rng.normal(scale=sigma, size=(n, k, 2))
        norm1 = (w**2).sum(axis=(1, 2))
        succ1 += int(np.count_nonzero(norm1 > spec.threshold))
        w = rng.normal(scale=sigma, size=(n, k, 2))
        norm2 = ((delta_vec.real + w[:, :, 0]) ** 2 + (delta_vec.imag + w[:, :, 1]) ** 2).sum(
            axis=1
        )
        succ2 += int(np.count_nonzero(norm2 <= spec.threshold))
    return {
        "lambda1": _make_estimate(succ1, trials, seed),
        "lambda2_worst": _make_estimate(succ2, trials, seed),
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
