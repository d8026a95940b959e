"""Packings of Euclidean balls in R^d, uniform sampling in the ball, and the
exact closest pair.

Signatures live in the ball of radius sqrt(k E) in R^{2k} ~ C^k; a pairwise
separation of 2 rho controls the false-accept exponent.  A packing is an
(M, d) array of points, accepted greedily from uniform candidates until a
rejection budget runs out.

A candidate is rejected as soon as one accepted point lies within the
separation: a witness.  The packing finds witnesses cheaply and leaves every
other decision to the exact distance test.  The accepted points are filed in
the Voronoi cells of a fixed set of pivots, drawn from a seed of their own
(so the caller's stream is untouched).  Each candidate is compared, by one
matrix product per cell, with the points of its nearest pivot's cell, then
with those of its second-nearest.  A screened squared distance below
separation^2 minus a rigorous float-error slack is a real witness.  The few
candidates without one are compared with every accepted point, by one
matrix product; those within the slack of separation^2 get the exact
`cdist` distance.  So each candidate is accepted or rejected exactly as by a
`cdist` against all accepted points, and the accepted set is the same point
for point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "PackingSpec",
    "sample_uniform_ball",
    "greedy_packing",
    "closest_pair",
]

DEFAULT_REJECTION_BUDGET = 100_000
_PAIR_BLOCK = 256  # rows per block of the closest-pair screen
_BATCH = 4096  # candidates per draw of the packing
_MAX_PIVOTS = 32  # pivots of the packing's witness screen, at most
_PIVOT_SEED = 20260  # the pivots' own stream
_CELL_MIN = 64  # accepted points below which one product against all is cheaper
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
        if not 0 < self.separation < math.inf:
            raise ValueError(f"separation must be finite and > 0, got {self.separation}")
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

    Uniform candidates, drawn in batches of 4096, are accepted when at `cdist`
    distance >= separation from every accepted point (exact comparison, no
    slack); stops after ``rejection_budget`` consecutive rejections.  The
    pivot-cell witness screen (module docstring) only rejects candidates that
    have a point within the separation, and it hands every other one to that
    exact comparison, so the accepted points are those of a plain `cdist` scan.
    """
    screen = _WitnessScreen(spec.dim, spec.radius, spec.separation)
    consecutive = 0
    while consecutive < spec.rejection_budget:
        cands = sample_uniform_ball(spec.dim, spec.radius, rng, _BATCH)
        mind = screen.min_distance(cands)
        start = 0
        while start < _BATCH:
            ok = np.nonzero(mind[start:] >= spec.separation)[0]
            if ok.size == 0:
                consecutive += _BATCH - start
                break
            j = int(ok[0])
            if consecutive + j >= spec.rejection_budget:
                consecutive = spec.rejection_budget
                break
            new = cands[start + j]
            screen.add(new)
            consecutive = 0
            start += j + 1
            if start < _BATCH:
                d_new = np.sqrt(((cands[start:] - new) ** 2).sum(axis=1))
                mind[start:] = np.minimum(mind[start:], d_new)
    return screen.accepted()


class _WitnessScreen:
    """The accepted points, filed under their nearest pivot, and the screen
    that tells which candidates lie at distance >= separation from them all."""

    def __init__(self, dim: int, radius: float, separation: float):
        # pivots uniform in the ball, from a stream of their own
        rng = np.random.default_rng(_PIVOT_SEED)
        g = rng.normal(size=(_MAX_PIVOTS, dim))
        g *= radius * rng.random((_MAX_PIVOTS, 1)) ** (1.0 / dim) / np.linalg.norm(
            g, axis=1, keepdims=True)
        self.pivot_rows = _augmented_rows(g)
        self.sep2 = separation**2
        self.points = np.empty((0, dim))
        self.pending: list[np.ndarray] = []  # added since the last _file
        self.rows = np.empty((0, dim + 2))  # (-2 a, 1, |a|^2) per accepted point
        self.max_sq = 0.0
        self.n_pivots = 0
        self.cells = np.empty(0, dtype=int)  # pivot of each filed point
        self.cell_rows = self.rows  # rows grouped by cell
        self.cell_bounds = [0]

    def add(self, point: np.ndarray) -> None:
        self.pending.append(point)

    def accepted(self) -> np.ndarray:
        self._file()
        return self.points

    def _file(self) -> None:
        """Take in the points added since the last call and file them under
        their nearest pivot; refile all of them when M changes the pivot count."""
        if self.pending:
            new = np.array(self.pending)
            self.pending = []
            rows = _augmented_rows(new)
            self.points = np.vstack([self.points, new])
            self.rows = np.vstack([self.rows, rows])
            self.max_sq = max(self.max_sq, float(rows[:, -1].max()))
        m = len(self.points)
        p = _pivot_count(m)
        start = len(self.cells) if p == self.n_pivots else 0
        if p == 0 or start == m:
            return
        d2 = self.pivot_rows[:p] @ _augmented_cols(self.points[start:])
        self.cells = np.concatenate([self.cells[:start], np.argmin(d2, axis=0)])
        self.n_pivots = p
        order = np.argsort(self.cells, kind="stable")
        self.cell_rows = self.rows[order]
        self.cell_bounds = np.searchsorted(self.cells[order], np.arange(p + 1)).tolist()

    def min_distance(self, cands: np.ndarray) -> np.ndarray:
        """Per candidate, a value that is >= separation exactly where its
        cdist distance to the nearest accepted point is."""
        n, dim = cands.shape
        self._file()
        if not len(self.points):
            return np.full(n, math.inf)
        cols = _augmented_cols(cands)
        # To first order, the screened |c|^2 + |a|^2 - 2 c.a is within
        # (1.5 dim + 2) eps (|c|^2 + |a|^2) of |c - a|^2, and the square of
        # the cdist distance within (dim + 4) eps (|c|^2 + |a|^2).  The slack
        # is over four times their sum, so a screened value below sep^2 -
        # slack is a cdist distance below sep, and one above sep^2 + slack a
        # cdist distance above it.
        slack = _rounding_slack(dim, float(cols[-2].max()) + self.max_sq)
        low, high = self.sep2 - slack, self.sep2 + slack
        mind = np.full(n, -math.inf)  # below separation: a witness rejects it
        todo = np.arange(n)
        if self.n_pivots:
            d2 = self.pivot_rows[: self.n_pivots] @ cols
            for _ in range(2):  # the cell of the nearest pivot, then the second-nearest
                nearest = d2 == d2.min(axis=0)
                keep = ~self._cell_witness(nearest, cols, low)
                todo, cols, d2 = todo[keep], cols[:, keep], d2[:, keep]
                d2[nearest[:, keep]] = math.inf
        if todo.size:
            smin = (self.rows @ cols).min(axis=0)
            mind[todo[smin > high]] = math.inf
            near = todo[(smin >= low) & (smin <= high)]
            if near.size:
                mind[near] = cdist(cands[near], self.points).min(axis=1)
        return mind

    def _cell_witness(self, nearest: np.ndarray, cols: np.ndarray, low: float) -> np.ndarray:
        """Which columns have an accepted point at screened squared distance
        below ``low`` in the cell of a pivot marked in ``nearest``."""
        n = cols.shape[1]
        # flat indices p n + i of (pivot, candidate), grouped by pivot
        flat = np.flatnonzero(nearest)
        bounds = np.searchsorted(flat, np.arange(self.n_pivots + 1) * n).tolist()
        idx = flat % n
        grouped = cols[:, idx]
        witness = np.zeros(len(idx), dtype=bool)
        for p in range(self.n_pivots):
            b0, b1 = bounds[p], bounds[p + 1]
            a0, a1 = self.cell_bounds[p], self.cell_bounds[p + 1]
            if b1 > b0 and a1 > a0:
                s = self.cell_rows[a0:a1] @ grouped[:, b0:b1]
                np.less(s.min(axis=0), low, out=witness[b0:b1])
        hit = np.zeros(n, dtype=bool)
        hit[idx[witness]] = True
        return hit


def _pivot_count(m: int) -> int:
    """Pivots for m accepted points: none below _CELL_MIN, else the power of
    two nearest sqrt(m / 4), at most _MAX_PIVOTS.  A cell pass costs a fixed
    amount per cell plus m / pivots per candidate, least near pivots ~ sqrt(m);
    the factor 1/4 and the cap are the fastest found on 6-, 8- and
    16-dimensional packs of 250 to 4000 points."""
    if m < _CELL_MIN:
        return 0
    return min(_MAX_PIVOTS, 2 ** round(math.log2(m / 4) / 2))


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


def _serial_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, as products of tiles of at most _SERIAL_PRODUCT multiply-adds
    each (unless one row of a times one column of b is more), which OpenBLAS
    runs without waking its thread pool."""
    n, inner = a.shape
    rows = max(1, min(n, _SERIAL_PRODUCT // (2 * inner)))
    cols = max(1, _SERIAL_PRODUCT // (rows * inner))
    out = np.empty((n, b.shape[1]))
    for i in range(0, n, rows):
        for j in range(0, b.shape[1], cols):
            np.matmul(a[i : i + rows], b[:, j : j + cols], out=out[i : i + rows, j : j + cols])
    return out


def closest_pair(points) -> tuple[float, int, int]:
    """(squared distance, i, j), i < j, of the closest pair of rows of a real
    or complex array; among equal distances the lowest indices win.

    A screen, then an exact refine.  Row blocks of the centered points are
    screened by |a|^2 + |b|^2 - 2 a.b (one matrix product per block, memory
    block x M).  Every pair whose screened value lies within a rigorous
    float-error slack of the running minimum is recomputed as the sum of
    |a_j - a_i|^2 and ranked by (distance, i, j), so the result is the exact
    minimum of that sum, ties included, whatever the screen's rounding.

    The products run in tiles small enough that OpenBLAS keeps them on the
    calling thread (`_serial_product`).  Handed whole to its thread pool, a
    256 x 10 x M product wakes it, and its idle worker then spins for about
    0.1 s, taking a CPU from the Monte Carlo threads that `simulate` and
    `heterodyne` start next.  On 2 vCPUs at M = 2500, k = 4, a 10^6-trial
    lambda1 estimate took 76 ms right after an untiled `closest_pair` and
    39 ms after a 0.3 s pause; after the tiled one it takes 39 ms.  Tiling
    costs `closest_pair` itself 11.5 -> 16 ms there (medians of 5).
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
    for lo in range(0, m - 1, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, m)
        s = _serial_product(rows[lo:hi], cols[:, lo:])
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

