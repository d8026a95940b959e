"""Packings of Euclidean balls in R^d and the metric-entropy bound calculators.

Signatures live in the ball of radius sqrt(k E) in R^{2k} ~ C^k; a pairwise
separation of 2 rho controls the false-accept exponent.  A packing is an
(M, d) array of points.  Maximality of a packing is approximated by a
rejection-budget stopping rule; the volumetric cardinality bounds themselves
are exact and computed in log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "PackingSpec",
    "packing_lower_bound_log",
    "covering_upper_bound_log",
    "sample_uniform_ball",
    "greedy_packing",
    "closest_pair",
]

DEFAULT_REJECTION_BUDGET = 100_000
_PAIR_BLOCK = 256  # rows per block of the closest-pair screen


@dataclass(frozen=True)
class PackingSpec:
    dim: int
    radius: float
    separation: float
    rejection_budget: int = DEFAULT_REJECTION_BUDGET

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and > 0, got {self.radius}")
        if not 0 < self.separation < math.inf:
            raise ValueError(f"separation must be finite and > 0, got {self.separation}")
        if self.rejection_budget < 1:
            raise ValueError("rejection_budget must be >= 1")


def packing_lower_bound_log(dim: int, radius: float, rho: float) -> float:
    """log of the volumetric packing guarantee (radius / (2 rho))^dim."""
    if dim < 1 or radius <= 0 or rho <= 0:
        raise ValueError("dim >= 1, radius > 0, rho > 0 required")
    return dim * math.log(radius / (2 * rho))


def covering_upper_bound_log(dim: int, radius: float, eps: float) -> float:
    """log of the classical covering estimate (1 + 2 radius / eps)^dim."""
    if dim < 1 or radius <= 0 or eps <= 0:
        raise ValueError("dim >= 1, radius > 0, eps > 0 required")
    return dim * math.log1p(2 * radius / eps)


def sample_uniform_ball(
    dim: int, radius: float, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Uniform samples from the closed ball: Gaussian direction, radial u^{1/d}."""
    g = rng.normal(size=(size, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(size) ** (1.0 / dim)
    return g * r[:, None]


def greedy_packing(spec: PackingSpec, rng: np.random.Generator) -> np.ndarray:
    """Sequential rejection sampling of a separated point set in the ball:
    the (M, dim) array of accepted points, in order of acceptance.

    Uniform candidates are accepted when at distance >= separation from every
    accepted point (exact comparison, no slack); stops after
    ``rejection_budget`` consecutive rejections.
    """
    accepted: list[np.ndarray] = []
    consecutive = 0
    batch = 4096
    while consecutive < spec.rejection_budget:
        cands = sample_uniform_ball(spec.dim, spec.radius, rng, batch)
        # min distance of each candidate to the current accepted set
        if accepted:
            mind = cdist(cands, np.array(accepted)).min(axis=1)
        else:
            mind = np.full(batch, math.inf)
        start = 0
        while start < batch:
            ok = np.nonzero(mind[start:] >= spec.separation)[0]
            if ok.size == 0:
                consecutive += batch - start
                break
            j = int(ok[0])
            if consecutive + j >= spec.rejection_budget:
                consecutive = spec.rejection_budget
                break
            new = cands[start + j]
            accepted.append(new)
            consecutive = 0
            start += j + 1
            if start < batch:
                d_new = np.sqrt(((cands[start:] - new) ** 2).sum(axis=1))
                mind[start:] = np.minimum(mind[start:], d_new)
    return np.array(accepted) if accepted else np.zeros((0, spec.dim))


def closest_pair(points) -> tuple[float, int, int]:
    """(squared distance, i, j), i < j, of the closest pair of rows of a real
    or complex array; among equal distances the lowest indices win.

    A screen, then an exact refine.  Row blocks of the centered points are
    screened by |a|^2 + |b|^2 - 2 a.b (one matrix product per block, memory
    block x M).  Every pair whose screened value lies within a rigorous
    float-error slack of the running minimum is recomputed as the sum of
    |a_j - a_i|^2 and ranked by (distance, i, j), so the result is the exact
    minimum of that sum, ties included, whatever the screen's rounding.
    """
    arr = np.asarray(points)
    m = arr.shape[0]
    if m < 2:
        raise ValueError("need at least 2 points")
    x = np.concatenate([arr.real, arr.imag], axis=1) if np.iscomplexobj(arr) else arr
    x = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", x, x)[:, None]
    ones = np.ones_like(sq)
    # one product gives |a|^2 + |b|^2 - 2 a.b: rows (a, |a|^2, 1) by columns (-2 b, 1, |b|^2)
    rows = np.hstack([x, sq, ones])
    cols = np.ascontiguousarray(np.hstack([-2 * x, ones, sq]).T)
    # Screen and refine differ by at most (5 dim + 16) eps max|x|^2 to first
    # order: rounding in the norms and the product, in the centering and in
    # the refine (Higham, Accuracy and Stability of Numerical Algorithms,
    # ch. 3).  So the closest pair screens within twice that of the minimum.
    slack = 12 * (x.shape[1] + 4) * np.finfo(float).eps * float(sq.max())
    best = (math.inf, 0, 1)
    floor = math.inf
    for lo in range(0, m - 1, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, m)
        s = rows[lo:hi] @ cols[:, lo:]
        s[np.tril_indices(hi - lo)] = math.inf  # keep j > i only
        floor = min(floor, float(s.min()))
        near = s <= floor + slack
        if not near.any():
            continue
        i, j = np.divmod(np.flatnonzero(near), s.shape[1])
        i, j = i + lo, j + lo
        d2 = np.sum(np.abs(arr[j] - arr[i]) ** 2, axis=1)
        first = np.lexsort((j, i, d2))[0]
        best = min(best, (float(d2[first]), int(i[first]), int(j[first])))
    return best

