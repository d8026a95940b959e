import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from bosonid import geometry as geo
from bosonid import scheme


def reference_greedy_packing(spec, rng):
    """The packing without a witness screen: every candidate's minimum distance
    to the accepted points by `cdist`, then the same sequential accept."""
    accepted = []
    consecutive = 0
    batch = 4096
    while consecutive < spec.rejection_budget:
        cands = geo.sample_uniform_ball(spec.dim, spec.radius, rng, batch)
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


def brute_closest_pair(arr):
    """Double loop over i < j with a strict improvement rule: the lowest
    indices win among equal squared distances."""
    best = (math.inf, 0, 1)
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            d2 = float(np.sum(np.abs(arr[j] - arr[i]) ** 2))
            if d2 < best[0]:
                best = (d2, i, j)
    return best


@st.composite
def point_sets(draw):
    """Real or complex rows: lattice points (ties and duplicates) or floats,
    at a common offset, with the last row possibly a copy of another."""
    m, width = draw(st.integers(2, 30)), draw(st.integers(1, 4))
    elems = draw(st.sampled_from([st.integers(-2, 2), st.floats(-5, 5)]))
    flat = draw(st.lists(elems, min_size=2 * m * width, max_size=2 * m * width))
    # at scale 1e-161 the squared distances are subnormal
    pts = np.array(flat, dtype=float).reshape(m, 2, width) * draw(
        st.sampled_from([0.1, 1.7, 1e-161]))
    pts += draw(st.sampled_from([0.0, -3.0e3, 1.0e6]))
    if draw(st.booleans()):
        pts[-1] = pts[draw(st.integers(0, m - 2))]
    if draw(st.booleans()):
        return pts[:, 0] + 1j * pts[:, 1]
    return pts.reshape(m, 2 * width)


class TestBoundCalculators:
    def test_packing_lower_bound_large_example(self):
        # dim = 2k with k = 4, E = 4: (sqrt(16)/2)^8 = 256
        assert scheme.achievable_users_log(4, 4.0, 1.0) == pytest.approx(math.log(256.0))


class TestGreedyPacking:
    def test_tiny_ball_single_point(self):
        spec = geo.PackingSpec(dim=2, radius=0.4, separation=1.0, rejection_budget=2000)
        pts = geo.greedy_packing(spec, np.random.default_rng(0))
        assert pts.shape == (1, 2)

    def test_volumetric_bound_small_dim(self):
        spec = geo.PackingSpec(dim=2, radius=2.0, separation=1.0, rejection_budget=100_000)
        for seed in range(10):
            pts = geo.greedy_packing(spec, np.random.default_rng(seed))
            assert len(pts) >= 4

    def test_invariants(self):
        spec = geo.PackingSpec(dim=4, radius=1.0, separation=0.5, rejection_budget=100_000)
        pts = geo.greedy_packing(spec, np.random.default_rng(3))
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0)
        assert geo.closest_pair(pts)[0] >= 0.5**2

    @pytest.mark.parametrize("radius,separation", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, 0.0)])
    def test_spec_rejects_non_finite(self, radius, separation):
        with pytest.raises(ValueError):
            geo.PackingSpec(dim=2, radius=radius, separation=separation)

    @pytest.mark.parametrize("separation", [1e200, 2 * geo.MAX_NORM * (1 + 1e-15)])
    def test_spec_rejects_separation_past_diameter_bound(self, separation):
        # separation^2 would overflow in the screen
        with pytest.raises(ValueError, match="separation"):
            geo.PackingSpec(dim=2, radius=1.0, separation=separation)

    def test_separation_at_bound_packs_one_point(self):
        # above the diameter 2 radius every packing is one point; under
        # filterwarnings = error no overflow in the screen goes unnoticed
        spec = geo.PackingSpec(dim=2, radius=1.0, separation=2 * geo.MAX_NORM,
                               rejection_budget=50)
        assert geo.greedy_packing(spec, np.random.default_rng(0)).shape == (1, 2)

    @pytest.mark.parametrize("radius", [1e154, 2 * geo.MAX_NORM])
    def test_spec_rejects_overflowing_radius(self, radius):
        # |c|^2 + |a|^2 - 2 c.a would overflow in the screen
        with pytest.raises(ValueError, match="at most"):
            geo.PackingSpec(dim=2, radius=radius, separation=1.0)
        geo.PackingSpec(dim=2, radius=geo.MAX_NORM, separation=1.0)

    def test_determinism(self):
        spec = geo.PackingSpec(dim=3, radius=1.5, separation=0.7, rejection_budget=5000)
        a = geo.greedy_packing(spec, np.random.default_rng(11))
        b = geo.greedy_packing(spec, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_pack_cover_sandwich(self):
        # a maximal eps-packing is an eps-cover, so counts at separation
        # 2 eps never exceed counts at separation eps
        eps = 0.4
        rng = np.random.default_rng(5)
        wide = geo.greedy_packing(
            geo.PackingSpec(dim=2, radius=1.0, separation=2 * eps, rejection_budget=50_000),
            rng,
        )
        narrow = geo.greedy_packing(
            geo.PackingSpec(dim=2, radius=1.0, separation=eps, rejection_budget=50_000),
            rng,
        )
        assert len(wide) <= len(narrow)


def pack_from(batches, separation, pack=geo.greedy_packing):
    """Pack hand-made candidates: each batch is padded to a full draw by copies
    of the very first candidate, which also fill every later draw; the first
    candidate is accepted, so every copy of it is rejected."""
    first = batches[0][:1]
    draws = iter(batches)

    def sampler(dim, radius, rng, size):
        rows = next(draws, first)
        return np.vstack([rows, np.repeat(first, size - len(rows), axis=0)])

    spec = geo.PackingSpec(dim=first.shape[1], radius=1.0, separation=separation,
                           rejection_budget=10_000)
    with mock.patch.object(geo, "sample_uniform_ball", sampler):
        return pack(spec, np.random.default_rng(0))


class TestWitnessScreen:
    """The screened packing accepts exactly the points of the cdist packing."""

    # M = 10-13 (1 to 2 pivots), 276-329, 145-178 and 137-225 points; then
    # budgets of 1, _BATCH - 1, _BATCH and _BATCH + 1 (M = 1-13), which stop
    # the packing within a batch and at or past its end
    @pytest.mark.parametrize("dim,radius,separation,budget", [
        (2, 2.0, 1.0, 20_000),
        (6, math.sqrt(6.0), 1.2, 60),
        (8, 4.0, 3.0, 1000),
        (16, math.sqrt(32.0), 5.2, 50),
        (2, 2.0, 1.0, 1),
        (2, 2.0, 1.0, 4095),
        (2, 2.0, 1.0, 4096),
        (2, 2.0, 1.0, 4097),
    ])
    def test_matches_reference(self, dim, radius, separation, budget):
        self.assert_matches_reference(geo.PackingSpec(dim, radius, separation, budget),
                                      range(1, 11))

    # M = 1038-1055 (16 pivots) and 2482-2629 (32 pivots): the cells are
    # refiled as M passes 8 -> 16 -> 32 pivots
    @pytest.mark.parametrize("dim,radius,separation,budget", [
        (8, 4.0, 2.2, 300),
        (6, 3.0, 1.0, 100),
    ])
    def test_matches_reference_at_16_and_32_pivots(self, dim, radius, separation, budget):
        self.assert_matches_reference(geo.PackingSpec(dim, radius, separation, budget),
                                      range(1, 4))

    def test_cells_filed_once_per_batch(self):
        # the M = 2629 points of a 32-pivot packing, taken in by batches that
        # pass 4 -> 8 -> 16 -> 32 pivots, are filed as when taken in at once
        spec = geo.PackingSpec(6, 3.0, 1.0, 100)
        points = geo.greedy_packing(spec, np.random.default_rng(1))
        whole = geo._WitnessScreen(spec.dim, spec.separation)
        whole.extend(points)
        screen = geo._WitnessScreen(spec.dim, spec.separation)
        counts = []
        for batch in np.split(points, [40, 90, 120, 200, 400, 700, 1500, 2200, 2400]):
            screen.extend(batch)
            counts.append(len(screen.cells))
            before = self.state(screen)
            screen.extend([])
            after = self.state(screen)
            assert all(np.array_equal(a, b) for a, b in zip(before, after, strict=True))
        assert counts == [4, 4, 4, 8, 8, 16, 16, 32, 32, 32]
        assert np.array_equal(screen.points, points)
        assert [self.row_set(c) for c in screen.cells] == [self.row_set(c) for c in whole.cells]
        # every accepted row sits in exactly one cell, under a nearest pivot:
        # the pivots are the first accepted points
        assert self.row_set(np.vstack(screen.cells)) == self.row_set(screen.rows)
        pivots = screen.points[:len(screen.cells)]
        for p, rows in enumerate(screen.cells):
            to_pivots = cdist(-rows[:, :spec.dim] / 2, pivots)
            assert np.all(to_pivots[:, p] <= to_pivots.min(axis=1) * (1 + 1e-12))

    def test_clear_matches_brute_force(self):
        # A 6-D packing, on a grid of 2^-10 and set in the hyperplane x6 = 0
        # of R^7, is taken in from 1 point to past the 32-pivot count.  The
        # candidates (a, s) lie at exactly s from their point a and farther
        # from every other, and the midpoints of two pivots, lifted off the
        # plane, are at equal distance from both.
        sep = 1.0
        packing = geo.greedy_packing(geo.PackingSpec(6, 3.0, sep, 100), np.random.default_rng(1))
        points = np.hstack([np.round(packing * 2**10) / 2**10, np.zeros((len(packing), 1))])
        rng = np.random.default_rng(2)
        screen = geo._WitnessScreen(7, sep)
        assert screen.clear(points).all()  # M = 0: nothing to be near
        counts = []
        for batch in np.split(points, [1, 2, 3, 7, 15, 40, 63, 64, 65, 150, 500, 1100, 2100]):
            screen.extend(batch)
            counts.append(len(screen.cells))
            accepted, pivots = screen.points, screen.points[:len(screen.cells)]
            near = accepted[rng.integers(len(accepted), size=8)]
            edge = np.vstack([np.hstack([near[:, :6], np.full((8, 1), s)])
                              for s in (sep, -sep, np.nextafter(sep, 0), -np.nextafter(sep, 0))])
            a, b = pivots[:-1], pivots[1:]
            lift = np.sqrt(np.maximum(0.0, sep**2 - np.sum((b - a) ** 2, axis=1) / 4))
            mid = np.vstack([(a + b) / 2, (a + b) / 2 + lift[:, None] * np.eye(7)[6]])
            cands = np.vstack([geo.sample_uniform_ball(7, 3.0, rng, 400), edge, mid])
            brute = np.array([geo._distances(accepted, c) for c in cands])
            dist = brute.min(axis=1)
            inside = np.nextafter(sep, 0)
            assert np.array_equal(dist[400:432], np.repeat([sep, sep, inside, inside], 8))
            pair = np.arange(len(a))
            rows, cols = 432 + np.r_[pair, len(a) + pair], np.r_[pair, pair]
            assert np.array_equal(brute[rows, cols], brute[rows, cols + 1])
            assert np.array_equal(screen.clear(cands), dist >= sep)
        assert counts == [1, 1, 1, 1, 2, 4, 4, 4, 4, 8, 8, 16, 32, 32]

    @staticmethod
    def state(screen):
        return [screen.points.copy(), screen.rows.copy(), *(c.copy() for c in screen.cells)]

    @staticmethod
    def row_set(rows):
        return sorted(map(tuple, rows))

    @staticmethod
    def assert_matches_reference(spec, seeds):
        # the same points, and the generator left where the reference leaves it
        for seed in seeds:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = geo.greedy_packing(spec, rng)
            want = reference_greedy_packing(spec, ref_rng)
            assert np.array_equal(got, want), (spec.dim, seed)
            assert rng.random() == ref_rng.random(), (spec.dim, seed)

    @staticmethod
    def axis_candidates(sep):
        """200 far-apart points with one coordinate 0 each, and candidates
        that differ from one of them in that coordinate alone, by one ulp less
        than the separation (inside) or by exactly the separation (outside)."""
        rng = np.random.default_rng(7)
        z = rng.integers(-3, 4, size=(200, 8))
        axis = np.arange(200) % 8
        z[np.arange(200), axis] = 0
        accepted = 10 * sep * z + rng.random(z.shape)
        accepted[np.arange(200), axis] = 0.0
        assert geo.closest_pair(accepted)[0] > (4 * sep) ** 2
        inside, outside = accepted.copy(), accepted.copy()
        sign = np.where(np.arange(200) % 2, 1.0, -1.0)
        inside[np.arange(200), axis] = sign * np.nextafter(sep, 0)
        outside[np.arange(200), axis] = sign * sep
        return accepted, inside, outside

    def test_exact_separation_is_accepted(self):
        # the screen's rounding, about eps |a|^2, is far above the ulp of sep^2
        sep = 2.6
        accepted, inside, outside = self.axis_candidates(sep)
        batches = [accepted, np.vstack([inside, outside])]
        got = pack_from(batches, sep)
        assert np.array_equal(got, np.vstack([accepted, outside]))
        assert np.array_equal(got, pack_from(batches, sep, reference_greedy_packing))

    def test_subnormal_squares(self):
        # scaled by 2^-526 the squared distances are subnormal, where rounding
        # is absolute, not relative
        sep, scale = 2.6, 2.0**-526
        accepted, inside, outside = self.axis_candidates(sep)
        batches = [accepted * scale, np.vstack([inside, outside]) * scale]
        assert np.array_equal(pack_from(batches, sep * scale),
                              pack_from(batches, sep * scale, reference_greedy_packing))

    def test_integer_lattice(self):
        # {0, 1, 2}^4 at separation 1, then the layer x0 = -1 just inside
        # (rejected) and exactly at (accepted) the separation
        lattice = np.stack(np.meshgrid(*[np.arange(3.0)] * 4, indexing="ij"), -1).reshape(-1, 4)
        layer = lattice[lattice[:, 0] == 0]
        inside, outside = layer.copy(), layer.copy()
        inside[:, 0], outside[:, 0] = -np.nextafter(1.0, 0), -1.0
        batches = [lattice, np.vstack([inside, outside])]
        got = pack_from(batches, 1.0)
        assert np.array_equal(got, np.vstack([lattice, outside]))
        assert np.array_equal(got, pack_from(batches, 1.0, reference_greedy_packing))


class TestGoldenPackings:
    """Packings pinned by the sha256 of their bytes.  The streams of
    `np.random.default_rng` are not fixed across numpy versions (NEP 19):
    these digests hold for numpy 2.4.6."""

    @pytest.mark.parametrize("spec,seed,m,digest", [
        (geo.PackingSpec(8, 4.0, 3.0), 1, 251,
         "fad85c82096f677dca75a380906749963b967d3e5831f3f05bb075ec4768391f"),
        (geo.PackingSpec(8, 4.0, 3.0), 2, 249,
         "0b2308fbabc9ac7923d597f29f09687bab519068e27b02594b46edb8a0c4ec9b"),
        (geo.PackingSpec(8, 4.0, 3.0), 3, 268,
         "dd936dbad9426778677d62bef2324cf7ce223128b3a65ba31af674c7929ad193"),
        (geo.PackingSpec(16, math.sqrt(32.0), 5.2, 5000), 1, 472,
         "4f9f28761b8b9a862bed4d46d5f9e128b0c10199b0e0e08fb27890178d4a78b2"),
    ])
    def test_digest(self, spec, seed, m, digest):
        points = geo.greedy_packing(spec, np.random.default_rng(seed))
        assert points.shape == (m, spec.dim)
        assert hashlib.sha256(points.tobytes()).hexdigest() == digest

    def test_exact_distance_rows(self, monkeypatch):
        # the pass within a batch measures only the candidates still clear:
        # 248985 rows reach `_distances` here, where measuring the whole rest
        # of the batch after each acceptance takes 1286559
        rows = []
        distances = geo._distances

        def spy(a, c):
            rows.append(len(a))
            return distances(a, c)

        monkeypatch.setattr(geo, "_distances", spy)
        spec = geo.PackingSpec(16, math.sqrt(32.0), 5.2, 5000)
        assert len(geo.greedy_packing(spec, np.random.default_rng(1))) == 472
        assert sum(rows) == 248_985 < 300_000


class TestMinPairwiseDistance:
    """The minimum pairwise distance, as the squared length of `closest_pair`."""

    def test_identical_points(self):
        assert geo.closest_pair(np.zeros((2, 3))) == (0.0, 0, 1)

    def test_basis_pair(self):
        assert geo.closest_pair(np.eye(2)) == (2.0, 0, 1)

    def test_fewer_than_two_points_rejected(self):
        with pytest.raises(ValueError):
            geo.closest_pair(np.zeros((1, 2)))

    @given(
        st.lists(
            st.lists(st.floats(-5, 5), min_size=2, max_size=2), min_size=2, max_size=8
        )
    )
    @settings(max_examples=50)
    def test_matches_brute_force(self, rows):
        arr = np.array(rows)
        expected = min(
            float(np.linalg.norm(arr[i] - arr[j]))
            for i in range(len(arr))
            for j in range(i + 1, len(arr))
        )
        assert math.sqrt(geo.closest_pair(arr)[0]) == pytest.approx(expected, rel=1e-12)

    def test_closest_pair_lowest_index_tie_break(self):
        # (0,1), (1,2) and (2,3) are all at distance 1
        pts = np.array([[0.0], [1.0], [2.0], [3.0], [5.0]])
        assert geo.closest_pair(pts) == (1.0, 0, 1)

    def test_closest_pair_complex_rows(self):
        pts = np.array([[0.0, 0.0], [3.0j, 1.0], [1.0 + 1.0j, 0.0]])
        assert geo.closest_pair(pts) == (pytest.approx(2.0), 0, 2)


class TestClosestPairScreen:
    @given(point_sets(), st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, pts, block):
        # small blocks put the pairs of one point set across many blocks: the
        # first has `block` rows, later ones more as fewer columns remain
        dim = pts.shape[1] * (2 if np.iscomplexobj(pts) else 1)
        with mock.patch.object(geo, "_SERIAL_PRODUCT", block * (dim + 2) * len(pts)):
            assert geo.closest_pair(pts) == brute_closest_pair(pts)

    def test_two_points(self):
        pts = np.array([[1.0 + 2.0j, -0.5j], [0.25, 3.0]])
        assert geo.closest_pair(pts) == brute_closest_pair(pts)

    @pytest.mark.parametrize("offset", [0.0, 1.0e6])
    def test_lattice_ties_across_blocks(self, offset):
        # 600 lattice points, 7 blocks, hundreds of pairs tied at the spacing
        z = np.random.default_rng(1).integers(-3, 4, size=(2000, 6))
        pts = np.unique(z, axis=0)[:600] * 1.7 + offset
        rows = []  # the closest partner of each row, lowest index first
        for i in range(len(pts) - 1):
            d2 = np.sum(np.abs(pts[i + 1 :] - pts[i]) ** 2, axis=1)
            j = int(np.argmin(d2))
            rows.append((float(d2[j]), i, i + 1 + j))
        assert geo.closest_pair(pts) == min(rows)


class TestSerialProduct:
    """closest_pair's products, in blocks small enough that OpenBLAS runs each
    on the calling thread."""

    @staticmethod
    def products(monkeypatch, fn, *args):
        """fn(*args) and the multiply-adds of every np.matmul it called."""
        sizes, matmul = [], np.matmul

        def spy(a, b, **kwargs):
            sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "matmul", spy)
            return fn(*args), sizes

    def test_closest_pair_products_are_serial(self, monkeypatch):
        pts = np.random.default_rng(1).normal(size=(2500, 4, 2)).view(complex)[..., 0]
        _, sizes = self.products(monkeypatch, geo.closest_pair, pts)
        assert sizes and max(sizes) <= geo._SERIAL_PRODUCT


class TestClosestPairAtMaxNorm:
    """Points of norm up to geo.MAX_NORM, where the centered screen's partial
    sums come closest to overflow."""

    def test_off_center_cluster(self):
        # 27 points at -R e1 and 3 near +R e1: centering moves those 3 to
        # about 2R, and 2 a.b of two of them to 8 R^2.  At R = 6e153, inside
        # a bound on 4 R^2 alone, the screen overflowed and missed the pair.
        r = geo.MAX_NORM
        rng = np.random.default_rng(0)
        for _ in range(20):
            pts = rng.normal(scale=1e-3 * r, size=(30, 3))
            pts[:27, 0] = -r
            pts[27:, 0] = r * (1 - 1e-3 * rng.random(3))
            pts *= r / np.linalg.norm(pts, axis=1).max()
            assert geo.closest_pair(pts) == brute_closest_pair(pts)

    def test_gaussian_points(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.normal(size=(30, 3))
            pts *= geo.MAX_NORM / np.linalg.norm(pts, axis=1).max()
            assert geo.closest_pair(pts) == brute_closest_pair(pts)


class TestUniformBallSampler:
    def test_mean_radius(self):
        dim, radius = 3, 2.0
        rng = np.random.default_rng(17)
        pts = geo.sample_uniform_ball(dim, radius, rng, 1_000_000)
        r = np.linalg.norm(pts, axis=1)
        expected = dim / (dim + 1) * radius
        sigma = r.std() / math.sqrt(r.size)
        assert abs(r.mean() - expected) < 3 * sigma

    def test_inside_ball(self):
        pts = geo.sample_uniform_ball(5, 1.3, np.random.default_rng(0), 1000)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.3)

