"""Packings of Euclidean balls in R^d, uniform sampling in the ball, and the
exact closest pair.

Signatures live in the ball of radius sqrt(k E) in R^{2k} ~ C^k; a pairwise
separation of 2 rho controls the false-accept exponent.  A packing is an
(M, d) array of points, accepted greedily from uniform candidates until a
rejection budget runs out.

A candidate is rejected as soon as one accepted point lies within the
separation: a witness.  The packing finds witnesses cheaply and leaves every
other decision to the exact distance test.  The accepted points are filed in
the Voronoi cells of pivots, the first few accepted points (one at first, more
as M grows): one array of rows per cell.  Each batch's accepted points are
filed once, after the batch, and every point is refiled only when M changes
the number of pivots.  Each candidate is compared, by one matrix product per
cell, with the points of its nearest pivot's cell, then with those of its
second-nearest.  A screened squared distance below separation^2 minus a
rigorous float-error slack is a real witness.  The few candidates without one
are compared with every accepted point, by one matrix product; those within
the slack of separation^2 get the exact distance, `_distances`.  Within a
batch, the candidates still clear are an index array: its first is accepted,
and only the rest of the array is measured against it by `_distances`, so the
pass does work in proportion to the candidates still clear, not to the batch.
Each candidate is accepted or rejected exactly as by `_distances` to all
accepted points, and the accepted set is the same point for point; the pivots
only decide which cell is scanned first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PackingSpec",
    "sample_uniform_ball",
    "greedy_packing",
    "closest_pair",
]

DEFAULT_REJECTION_BUDGET = 100_000
_BATCH = 4096  # candidates per draw of the packing
_MAX_PIVOTS = 32  # pivots of the packing's witness screen, at most
# multiply-adds up to which OpenBLAS runs a matrix product on one thread (65536 x 4)
_SERIAL_PRODUCT = 1 << 18
# The screens' partial sums of |a|^2 + |b|^2 - 2 a.b are at most (|a| + |b|)^2,
# and closest_pair centers its points, which can double their norms.  For
# points of norm at most MAX_NORM both stay below (4 MAX_NORM)^2, a quarter of
# the largest float: a margin for rounding.
MAX_NORM = math.sqrt(np.finfo(float).max) / 8


@dataclass(frozen=True)
class PackingSpec:
    dim: int
    radius: float
    separation: float
    rejection_budget: int = DEFAULT_REJECTION_BUDGET

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not 0 < self.radius <= MAX_NORM:
            raise ValueError(f"radius must be > 0 and at most {MAX_NORM:.6g}, "
                             f"got {self.radius}")
        # a separation above the diameter 2 radius <= 2 MAX_NORM gives one point
        if not 0 < self.separation <= 2 * MAX_NORM:
            raise ValueError(f"separation must be > 0 and at most {2 * MAX_NORM:.6g}, "
                             f"got {self.separation}")
        if self.rejection_budget < 1:
            raise ValueError("rejection_budget must be >= 1")


def sample_uniform_ball(
    dim: int, radius: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Uniform samples from the closed ball: Gaussian direction, radial u^{1/d}."""
    g = rng.normal(size=(size, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(size) ** (1.0 / dim)
    return g * r[:, None]


def greedy_packing(spec: PackingSpec, rng: np.random.Generator) -> np.ndarray:
    """Sequential rejection sampling of a separated point set in the ball:
    the (M, dim) array of accepted points, in order of acceptance.

    Uniform candidates, drawn in batches of 4096, are accepted when at
    `_distances` >= separation from every accepted point (exact comparison, no
    slack); stops after ``rejection_budget`` consecutive rejections.  The
    pivot-cell witness screen (module docstring) clears each batch: it only
    rejects candidates that have a point within the separation.  The pass then
    keeps the indices of the candidates still clear: it accepts the first and
    keeps those of the rest at `_distances` >= separation from it, until none
    is left or the budget runs out.  A candidate dropped from the indices is
    never tested against the budget; where the test would fire at it, it fires
    at the next one still clear, or the batch's closing count reaches the
    budget.  So the accepted points are a plain scan's.
    """
    screen = _WitnessScreen(spec.dim, spec.separation)
    consecutive = 0
    while consecutive < spec.rejection_budget:
        cands = sample_uniform_ball(spec.dim, spec.radius, rng, _BATCH)
        idx = np.flatnonzero(screen.clear(cands))  # the candidates still clear
        taken, last = [], -1
        # consecutive + i - last - 1 rejections in a row come before i
        while len(idx) and consecutive + int(idx[0]) - last - 1 < spec.rejection_budget:
            i = int(idx[0])
            taken.append(i)
            consecutive, last = 0, i
            idx = idx[1:][_distances(cands[idx[1:]], cands[i]) >= spec.separation]
        consecutive += _BATCH - 1 - last
        screen.extend(cands[taken])
    return screen.points


class _WitnessScreen:
    """The accepted points, filed under their nearest pivot, and the screen
    that tells which candidates lie at distance >= separation from them all."""

    def __init__(self, dim: int, separation: float):
        self.separation = separation
        self.points = np.empty((0, dim))
        self.rows = np.empty((0, dim + 2))  # (-2 a, 1, |a|^2) per accepted point
        self.cells: list[np.ndarray] = []  # the rows filed under each pivot

    def extend(self, points) -> None:
        """Take in one batch's accepted points and file them under their
        nearest pivot; refile every point when M changes the pivot count."""
        if not len(points):
            return
        start = len(self.points)
        self.points = np.vstack([self.points, points])
        self.rows = np.vstack([self.rows, _augmented_rows(self.points[start:])])
        p = _pivot_count(len(self.points))
        if p != len(self.cells):
            start, self.cells = 0, [self.rows[:0]] * p
        cell = np.argmin(self.rows[:p] @ _augmented_cols(self.points[start:]), axis=0)
        new = self.rows[start:]
        self.cells = [np.vstack([rows, new[cell == q]]) for q, rows in enumerate(self.cells)]

    def clear(self, cands: np.ndarray) -> np.ndarray:
        """True exactly where a candidate's `_distances` distance to every
        accepted point is >= separation; with none accepted, every candidate."""
        n, dim = cands.shape
        cols = _augmented_cols(cands)
        # To first order, the screened |c|^2 + |a|^2 - 2 c.a is within
        # (1.5 dim + 2) eps (|c|^2 + |a|^2) of |c - a|^2, and the square of
        # the exact distance within (dim + 4) eps (|c|^2 + |a|^2).  The slack
        # is over four times their sum, so a screened value below sep^2 -
        # slack is an exact distance below sep, and one above sep^2 + slack an
        # exact distance above it.
        slack = _rounding_slack(dim, float(cols[-2].max() + self.rows[:, -1].max(initial=0.0)))
        low, high = self.separation**2 - slack, self.separation**2 + slack
        todo = np.arange(n)
        d2 = self.rows[: len(self.cells)] @ cols
        # the cell of the nearest pivot, then the second-nearest
        for _ in range(min(2, len(self.cells))):
            nearest = d2 == d2.min(axis=0)
            keep = ~self._cell_witness(nearest, cols, low)
            todo, cols, d2 = todo[keep], cols[:, keep], d2[:, keep]
            d2[nearest[:, keep]] = math.inf
        clear = np.zeros(n, dtype=bool)  # False where a cell held a witness
        smin = (self.rows @ cols).min(axis=0, initial=math.inf)
        clear[todo[smin > high]] = True
        for i in todo[(smin >= low) & (smin <= high)]:
            clear[i] = _distances(self.points, cands[i]).min() >= self.separation
        return clear

    def _cell_witness(self, nearest: np.ndarray, cols: np.ndarray, low: float) -> np.ndarray:
        """Which columns have an accepted point at screened squared distance
        below ``low`` in the cell of a pivot marked in ``nearest``."""
        n = cols.shape[1]
        # flat indices p n + i of (pivot, candidate), grouped by pivot
        flat = np.flatnonzero(nearest)
        bounds = np.searchsorted(flat, np.arange(len(self.cells) + 1) * n).tolist()
        idx = flat % n
        grouped = cols[:, idx]
        witness = np.zeros(len(idx), dtype=bool)
        for p, rows in enumerate(self.cells):
            b0, b1 = bounds[p], bounds[p + 1]
            if b1 > b0 and len(rows):
                s = rows @ grouped[:, b0:b1]
                np.less(s.min(axis=0), low, out=witness[b0:b1])
        hit = np.zeros(n, dtype=bool)
        hit[idx[witness]] = True
        return hit


def _distances(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The exact distance of the packing: |a_i - c| for each row a_i of a."""
    return np.sqrt(((a - c) ** 2).sum(axis=1))


def _pivot_count(m: int) -> int:
    """Pivots for m >= 1 accepted points: the power of two nearest
    sqrt(m / 4), at least 1 and at most _MAX_PIVOTS.  A cell pass costs a
    fixed amount per cell plus m / pivots per candidate, least near pivots
    ~ sqrt(m); the factor 1/4 and the cap are the fastest found on 6-, 8- and
    16-dimensional packs of 250 to 4000 points."""
    return min(_MAX_PIVOTS, 2 ** max(0, round(math.log2(m / 4) / 2)))


def _rounding_slack(dim: int, scale: float) -> float:
    """12 (dim + 4) (eps scale + one subnormal spacing): a bound, with a
    margin of two or more, on the rounding of a screened |a|^2 + |b|^2 - 2 a.b
    and of its exact recomputation, where |a|^2 + |b|^2 <= scale (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3).  The subnormal
    term covers results that underflow, where rounding is absolute."""
    finfo = np.finfo(float)
    return 12 * (dim + 4) * (finfo.eps * scale + finfo.smallest_subnormal)


def _augmented_rows(a: np.ndarray) -> np.ndarray:
    """Rows (-2 a, 1, |a|^2); times the columns (c, |c|^2, 1) they give |a - c|^2."""
    sq = np.einsum("ij,ij->i", a, a)[:, None]
    return np.hstack([-2 * a, np.ones_like(sq), sq])


def _augmented_cols(c: np.ndarray) -> np.ndarray:
    """Columns (c, |c|^2, 1), one per row of c."""
    cols = np.empty((c.shape[1] + 2, len(c)))
    cols[:-2], cols[-2], cols[-1] = c.T, np.einsum("ij,ij->i", c, c), 1.0
    return cols


def closest_pair(points) -> tuple[float, int, int]:
    """(squared distance, i, j), i < j, of the closest pair of rows of a real
    or complex array; among equal distances the lowest indices win.

    A screen, then an exact refine.  Row blocks of the centered points are
    screened by |a|^2 + |b|^2 - 2 a.b (one matrix product per block, memory
    block x M).  Every pair whose screened value lies within a rigorous
    float-error slack of the running minimum is recomputed as the sum of
    |a_j - a_i|^2 and ranked by (distance, i, j), so the result is the exact
    minimum of that sum, ties included, whatever the screen's rounding.

    Each block has as many rows as keep its product within _SERIAL_PRODUCT
    multiply-adds, so OpenBLAS runs it on the calling thread.  A product
    handed to its thread pool wakes it, and its idle worker then spins for
    about 0.1 s, taking a CPU from the Monte Carlo threads that `simulate`
    and `heterodyne` start next.  On 2 vCPUs at M = 2500, k = 4, a 10^6-trial
    lambda1 estimate took 76 ms right after 256-row blocks and 39 ms after a
    0.3 s pause.  A single row passes the limit only where (d + 2) M > 2^18,
    d the real dimension (2k for a code: k >= 64 with M > 2016, say); there
    the product may use the pool, which changes the speed, not the result.
    """
    arr = np.asarray(points)
    m = arr.shape[0]
    if m < 2:
        raise ValueError("need at least 2 points")
    x = np.concatenate([arr.real, arr.imag], axis=1) if np.iscomplexobj(arr) else arr
    x = x - x.mean(axis=0)
    # one product gives |a|^2 + |b|^2 - 2 a.b
    rows, cols = _augmented_rows(x), _augmented_cols(x)
    # Screen and refine differ by at most (5 dim + 16) eps max|x|^2 to first
    # order: rounding in the norms and the product, in the centering and in
    # the refine.  So the closest pair screens within twice that of the minimum.
    slack = _rounding_slack(x.shape[1], float(rows[:, -1].max()))
    best = (math.inf, 0, 1)
    floor = math.inf
    lo = 0
    while lo < m - 1:
        hi = min(m, lo + max(1, _SERIAL_PRODUCT // (rows.shape[1] * (m - lo))))
        s = np.matmul(rows[lo:hi], cols[:, lo:])
        s[np.tril_indices(hi - lo)] = math.inf  # keep j > i only
        floor = min(floor, float(s.min()))
        near = s <= floor + slack
        if near.any():
            i, j = np.divmod(np.flatnonzero(near), s.shape[1])
            i, j = i + lo, j + lo
            d2 = np.sum(np.abs(arr[j] - arr[i]) ** 2, axis=1)
            first = np.lexsort((j, i, d2))[0]
            best = min(best, (float(d2[first]), int(i[first]), int(j[first])))
        lo = hi
    return best

