"""Reference values computed apart from bosonid.

Nothing here imports bosonid.  The count laws are evaluated in mpmath from
their closed forms, the heterodyne errors from scipy's chi-square functions,
and the packing properties from the points themselves.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import chndtr, gammaincc

mp.mp.dps = 40

# With a free share f, `budget` consecutive rejections have probability
# (1 - f)^budget <= exp(-f budget), below 1e-9 once f > this / budget.
_STOP_RULE_LOG_LEVEL = -math.log(1e-9)


def detector_threshold(k: int, noise: float, delta: float) -> int:
    """Largest accepted total count: floor(k (N + delta))."""
    return math.floor(k * (noise + delta))


def lambda1(k: int, noise: float, delta: float) -> mp.mpf:
    """P(S > t) for the zero-energy count S, a negative binomial law.

    P(S <= t) = I_{1/(N+1)}(k, t+1).  The upper tail is summed term by term
    from t+1, where the terms fall at least geometrically, so no value is
    taken as a difference of numbers near one.
    """
    t = detector_threshold(k, noise, delta)
    q = mp.mpf(noise) / (noise + 1)
    n = t + 1
    term = mp.exp(mp.loggamma(n + k) - mp.loggamma(n + 1) - mp.loggamma(k)
                  + k * mp.log(1 - q) + n * mp.log(q))
    total = mp.mpf(0)
    while term > total * mp.mpf(10) ** -45:
        total += term
        term *= q * (n + k) / (n + 1)
        n += 1
    return total


def lambda2(k: int, noise: float, delta: float, energy: float) -> mp.mpf:
    """P(S <= t) for the count of k modes carrying total energy E.

    The law is the noncentral negative binomial
    p_k(n) = (N+1)^-k e^{-E/(N+1)} c^n L_n^{(k-1)}(-E/(N(N+1))), c = N/(N+1),
    with the Laguerre values from their three-term recurrence at 40 digits.
    """
    t = detector_threshold(k, noise, delta)
    N, E = mp.mpf(noise), mp.mpf(energy)
    c = N / (N + 1)
    x = -E / (N * (N + 1))
    a = k - 1
    prev, cur = mp.mpf(1), 1 + a - x
    cn = c
    total = prev + (cn * cur if t >= 1 else 0)
    for n in range(1, t):
        prev, cur = cur, ((2 * n + 1 + a - x) * cur - (n + a) * prev) / (n + 1)
        cn *= c
        total += cn * cur
    return total * (N + 1) ** (-k) * mp.exp(-E / (N + 1))


def heterodyne(k: int, noise_variance: float, threshold: float, distance2: float):
    """(lambda1, lambda2) of the heterodyne ball test.

    ||w||^2 (2/sigma^2) is chi-square with 2k degrees of freedom, and
    ||Delta + w||^2 (2/sigma^2) is noncentral with noncentrality
    2 ||Delta||^2 / sigma^2.
    """
    x = 2 * threshold / noise_variance
    return (float(gammaincc(k, x / 2)),
            float(chndtr(x, 2 * k, 2 * distance2 / noise_variance)))


def relative_error(got: float, want) -> float:
    want = float(want)
    if want == 0:
        return abs(got)
    return abs(got - want) / abs(want)


def mc_agrees(point: float, p: float, trials: int, sds: float = 6.0) -> bool:
    """A Monte Carlo frequency lies within `sds` binomial deviations of p."""
    sd = math.sqrt(max(p * (1 - p), 0.0) / trials)
    return abs(point - p) <= sds * sd + 1.0 / trials


def min_pairwise_distance(points: np.ndarray, block: int = 256) -> float:
    """Closest-pair distance by blocked direct differences."""
    best = math.inf
    m = points.shape[0]
    for lo in range(0, m - 1, block):
        rows = points[lo:lo + block]
        diff = rows[:, None, :] - points[None, lo + 1:, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        # keep only pairs (i, j) with j > i
        i = np.arange(rows.shape[0])[:, None]
        j = np.arange(d2.shape[1])[None, :]
        d2 = np.where(j >= i, d2, np.inf)
        if d2.size:
            best = min(best, float(d2.min()))
    return math.sqrt(best)


def uniform_ball(dim: int, radius: float, rng: np.random.Generator, size: int):
    g = rng.standard_normal((size, dim))
    g /= np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
    return g * (radius * rng.random(size) ** (1.0 / dim))[:, None]


def free_share(points: np.ndarray, radius: float, separation: float,
               rng: np.random.Generator, samples: int) -> int:
    """Count of fresh uniform samples at distance >= separation from every point."""
    cands = uniform_ball(points.shape[1], radius, rng, samples)
    sep2 = separation * separation
    free = 0
    for lo in range(0, samples, 1024):
        c = cands[lo:lo + 1024]
        d2 = (np.einsum("ij,ij->i", c, c)[:, None] - 2 * c @ points.T
              + np.einsum("ij,ij->i", points, points)[None, :])
        free += int(np.count_nonzero(d2.min(axis=1) >= sep2))
    return free


def packing_failures(points: np.ndarray, k: int, energy: float, rho: float,
                     budget: int, reported_min: float, rng: np.random.Generator,
                     samples: int = 20_000) -> list[str]:
    """Every packing property the benchmark checks; empty when all hold."""
    out = []
    m, dim = points.shape
    if dim != 2 * k:
        return [f"width {dim} != 2k = {2 * k}"]
    norms2 = np.einsum("ij,ij->i", points, points)
    if norms2.max(initial=0.0) > k * energy * (1 + 1e-12):
        out.append(f"squared norm {norms2.max():.17g} > kE = {k * energy}")
    if m < (k * energy / (4 * rho * rho)) ** k:
        out.append(f"M = {m} < (kE/4rho^2)^k = {(k * energy / (4 * rho * rho)) ** k:.3f}")
    dmin = min_pairwise_distance(points)
    if dmin < 2 * rho:
        out.append(f"closest pair {dmin!r} < 2 rho = {2 * rho!r}")
    if relative_error(reported_min, dmin) > 1e-9:
        out.append(f"reported min distance {reported_min!r} != {dmin!r}")
    level = _STOP_RULE_LOG_LEVEL / budget
    free = free_share(points, math.sqrt(k * energy), 2 * rho, rng, samples)
    limit = samples * level + 6 * math.sqrt(samples * level) + 1
    if free > limit:
        out.append(f"{free}/{samples} fresh samples free, more than {limit:.1f} "
                   f"allowed by {budget} consecutive rejections")
    return out


def lattice_code(k: int, energy: float, spacing: float, m: int,
                 rng: np.random.Generator):
    """m points of a rotated, shifted cubic lattice inside the energy ball.

    Returns (points, integer lattice coordinates).  Every pairwise squared
    distance is spacing^2 times an integer, so the closest pair is `spacing`
    whenever two selected points are lattice neighbours.
    """
    dim = 2 * k
    r = math.sqrt(k * energy) / spacing
    shift = rng.random(dim)
    span = np.arange(-math.ceil(r) - 1, math.ceil(r) + 2)
    # enumerate integer points coordinate by coordinate, pruning by norm
    partial = np.zeros((1, 0), dtype=np.int64)
    for axis in range(dim):
        grown = np.concatenate(
            [np.repeat(partial, span.size, axis=0),
             np.tile(span, partial.shape[0])[:, None]], axis=1)
        off = grown + shift[: axis + 1]
        keep = np.einsum("ij,ij->i", off, off) <= r * r * (1 - 1e-9)
        partial = grown[keep]
    if partial.shape[0] < m:
        raise ValueError(f"lattice holds {partial.shape[0]} points, need {m}")
    z = partial[np.sort(rng.choice(partial.shape[0], size=m, replace=False))]
    q, rr = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(rr))
    points = spacing * (z + shift) @ q.T
    return points, z


def lattice_distance_classes(z: np.ndarray) -> np.ndarray:
    """counts[j] = number of unordered pairs at squared lattice distance j."""
    counts = np.zeros(0, dtype=np.int64)
    for i in range(z.shape[0] - 1):
        c = np.bincount(((z[i + 1:] - z[i]) ** 2).sum(axis=1))
        if c.size > counts.size:
            counts = np.pad(counts, (0, c.size - counts.size))
        counts[: c.size] += c
    return counts
