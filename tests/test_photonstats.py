import hashlib
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonid import fockspace, geometry, scheme
from bosonid import montecarlo as mc
from bosonid import photonstats as ps
from bosonid.photonstats import ChannelModel, DetectorSpec


def convolution_pmf(energies, channel, nmax):
    """Independent oracle: the total count of modes carrying ``energies``, by
    convolving the single-mode pmfs on {0, ..., nmax}, each the differences
    of its k = 1 lower tails."""
    total = np.ones(1)
    for e in energies:
        single = np.diff(lower_tails(1, e, channel, nmax), prepend=0.0)
        total = np.convolve(total, single)[: nmax + 1]
    return total


def lower_tails(k, energy, channel, nmax):
    """P(S_k <= n) for n = 0..nmax from the closed-form tails."""
    return np.exp([ps.log_tail_probability(k, energy, channel, n, upper=False)
                   for n in range(nmax + 1)])


def tail_pmf(k, energy, channel, nmax):
    """P(S_k = n) for n = 0..nmax as differences of the closed-form tails: of
    the lower tails while P(S_k <= n) <= 1/2, of the upper tails beyond, so
    that a pmf far below 1 is the difference of two tails of about its size."""
    lower = lower_tails(k, energy, channel, nmax)
    upper = np.exp([ps.log_tail_probability(k, energy, channel, n, upper=True)
                    for n in range(-1, nmax + 1)])
    return np.where(lower <= 0.5, np.diff(lower, prepend=0.0), -np.diff(upper))


def geometric_pmf(n_thermal, nmax):
    """The zero-energy single-mode law: (N+1)^-1 (N/(N+1))^n, n = 0..nmax."""
    return (n_thermal / (n_thermal + 1)) ** np.arange(nmax + 1) / (n_thermal + 1)


def pgf(z, energy, channel, k):
    """Closed-form generating function E[z^{S_k}] of the module docstring."""
    denom = channel.n_thermal + 1 - channel.n_thermal * z
    return math.exp(-energy * (1 - z) / denom) / denom**k


def laguerre_series(n, x):
    """Independent oracle: term-by-term series of L_n(x), summed exactly in
    rationals (in floats its terms, up to ~1e6 at n = 25, cancel)."""
    x = Fraction(x)
    return float(
        sum((-1) ** j * math.comb(n, j) * x**j / math.factorial(j) for j in range(n + 1))
    )


def single_mode_pmf(n, energy, n_thermal):
    """The single-mode law of the module docstring with L_n from the exact
    series: (N+1)^-1 c^n e^{-e/(N+1)} L_n(-e/(N(N+1))), c = N/(N+1)."""
    N = n_thermal
    x = -energy / (N * (N + 1))
    return (N / (N + 1)) ** n * math.exp(-energy / (N + 1)) * laguerre_series(n, x) / (N + 1)


class TestLaguerre:
    """The Laguerre form of the single-mode law, through the closed-form tails."""

    def test_degree_zero(self):
        # L_0 = 1
        got = tail_pmf(1, 3.7, ChannelModel(0.5), 0)[0]
        assert got == pytest.approx(math.exp(-3.7 / 1.5) / 1.5, rel=1e-12)

    def test_degree_one(self):
        # L_1(x) = 1 - x at x = -e/(N(N+1)) = -1
        got = tail_pmf(1, 2.0, ChannelModel(1.0), 1)[1]
        assert got == pytest.approx(0.25 * math.exp(-1.0) * 2.0, rel=1e-12)

    def test_degree_five_matches_series(self):
        got = tail_pmf(1, 0.8, ChannelModel(1.0), 5)[5]
        assert got == pytest.approx(single_mode_pmf(5, 0.8, 1.0), rel=1e-12)

    @given(st.integers(0, 25), st.floats(0, 20), st.floats(0.05, 5))
    def test_matches_series(self, n, energy, n_thermal):
        got = tail_pmf(1, energy, ChannelModel(n_thermal), n)[n]
        assert got == pytest.approx(single_mode_pmf(n, energy, n_thermal), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("energy,n_thermal", [(0.0, 1.0), (2.0, 0.5), (2.0, 0.0)])
    def test_negative_threshold_has_no_mass(self, energy, n_thermal):
        # P(S <= -1) = 0 and P(S > -1) = 1: the degree -1 term of the law is 0
        ch = ChannelModel(n_thermal)
        assert ps.log_tail_probability(1, energy, ch, -1, upper=False) == -math.inf
        assert ps.log_tail_probability(1, energy, ch, -1, upper=True) == 0.0

    @pytest.mark.parametrize("energy,n_thermal", [(0.0, 1.0), (2.0, 0.5), (2.0, 0.0)])
    def test_minus_inf_threshold_has_no_mass(self, energy, n_thermal):
        # every threshold below 0 counts as -1, -inf too, whose floor is no integer
        ch = ChannelModel(n_thermal)
        assert ps.log_tail_probability(1, energy, ch, -math.inf, upper=False) == -math.inf
        assert ps.log_tail_probability(1, energy, ch, -math.inf, upper=True) == 0.0


class TestPmf:
    """The single-mode pmf, as differences of the closed-form tails."""

    def test_zero_energy_is_geometric(self):
        assert tail_pmf(1, 0, ChannelModel(1.0), 7) == pytest.approx(0.5 * 0.5 ** np.arange(8))

    def test_matches_fock_diagonal(self):
        ch = ChannelModel(0.5)
        rho = fockspace.displaced_thermal_density(math.sqrt(2.0), ch, 60)
        assert tail_pmf(1, 2.0, ch, 3)[3] == pytest.approx(rho[3, 3].real, abs=1e-10)

    def test_vacuum_channel_is_poisson(self):
        ch = ChannelModel(0.0)
        assert tail_pmf(1, 3.0, ch, 2)[2] == pytest.approx(math.exp(-3) * 9 / 2)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            ps.log_tail_probability(1, -1.0, ChannelModel(1.0), 0, upper=False)
        with pytest.raises(ValueError, match="k must be >= 1"):  # nor a law of no modes
            ps.log_tail_probability(0, 1.0, ChannelModel(1.0), 0, upper=False)

    @pytest.mark.parametrize("n_thermal", [5e-324, 1e-310])
    def test_subnormal_noise_is_poisson(self, n_thermal):
        # -e/(N(N+1)) overflows: the law is Poisson(e) to float precision
        pmf = tail_pmf(1, 1.0, ChannelModel(n_thermal), 5)
        poisson = [math.exp(-1) / math.factorial(n) for n in range(6)]
        assert pmf == pytest.approx(poisson, rel=1e-14)

    @pytest.mark.parametrize("energy", [0.0, 1e-320, 1e-310])
    @pytest.mark.parametrize("n_thermal", [5e-324, 1e-320, 1e-310])
    def test_subnormal_noise_and_energy(self, energy, n_thermal):
        # the Laguerre recurrence overflowed here: x = -e/(N(N+1)) is huge or
        # not representable; its values are taken in mpmath
        pmf = tail_pmf(1, energy, ChannelModel(n_thermal), 5)
        with mp.workdps(50):
            N, e = mp.mpf(n_thermal), mp.mpf(energy)
            x = -e / (N * (N + 1))
            want = [float((N / (N + 1)) ** n * mp.exp(-e / (N + 1)) * mp.laguerre(n, 0, x)
                          / (N + 1)) for n in range(6)]
        assert pmf.sum() == 1.0
        assert pmf == pytest.approx(want, rel=1e-12, abs=1e-322)  # 20 subnormal steps

    @pytest.mark.parametrize("energy", [0.0, 1.0, 10.0, 50.0])
    @pytest.mark.parametrize("n_thermal", [0.1, 1.0, 5.0])
    def test_normalization(self, energy, n_thermal):
        # the pmf on 0..600 sums to P(S <= 600)
        total = math.exp(ps.log_tail_probability(1, energy, ChannelModel(n_thermal), 600,
                                                 upper=False))
        assert 1 - 1e-10 <= total <= 1 + 1e-12

    @pytest.mark.parametrize("energy,n_thermal", [(0.0, 1.0), (3.0, 0.5), (20.0, 2.0)])
    def test_mean_identity(self, energy, n_thermal):
        # E[S] = sum_{n >= 0} P(S > n), to n = 599 as the pmf to 600 was
        ch = ChannelModel(n_thermal)
        mean = sum(math.exp(ps.log_tail_probability(1, energy, ch, n, upper=True))
                   for n in range(600))
        assert mean == pytest.approx(n_thermal + energy, abs=1e-8)


class TestMgf:
    """The count law against its closed-form generating function `pgf`."""

    def test_normalization_point(self):
        # G(1) = 1: all the mass lies at or below a threshold far past the bulk
        got = ps.log_tail_probability(5, 7.3, ChannelModel(0.8), 1e4, upper=False)
        assert got == pytest.approx(math.log(pgf(1.0, 7.3, ChannelModel(0.8), 5)), abs=1e-15)

    def test_vacuum_probability(self):
        # G(0) = P(S = 0)
        got = ps.log_tail_probability(1, 0.0, ChannelModel(1.0), 0, upper=False)
        assert math.exp(got) == pytest.approx(pgf(0.0, 0.0, ChannelModel(1.0), 1), rel=1e-15)

    def test_matches_pmf_series(self):
        ch = ChannelModel(1.0)
        pmf = np.diff(lower_tails(2, 3.0, ch, 120), prepend=0.0)
        z = 0.5
        series = pmf @ z ** np.arange(pmf.size)
        assert pgf(z, 3.0, ch, 2) == pytest.approx(series, abs=1e-8)

    @pytest.fixture(scope="class")
    def pmf_800(self):
        return tail_pmf(1, 2.0, ChannelModel(1.0), 800)

    @pytest.mark.parametrize("z", [0.0, 0.4, 1.0, 1.5, 1.8])
    def test_matches_pmf_series_grid(self, z, pmf_800):
        # z up to 0.9 (N+1)/N at N = 1; terms summed in log space
        pmf = pmf_800
        if z == 0:
            series = pmf[0]
        else:
            series = np.exp(np.log(pmf) + np.arange(pmf.size) * math.log(z)).sum()
        assert pgf(z, 2.0, ChannelModel(1.0), 1) == pytest.approx(series, rel=1e-8)


def reference_counts(k, energy, channel, rng, size):
    """Total photon counts of k displaced thermal modes, one per trial, drawn
    as the physics has it: each mode's Gaussian P-function draws
    gamma_t ~ CN(alpha_t, N), and photodetection one Poisson count of the
    summed intensity, since independent Poisson counts sum to one.  After a
    rotation of R^{2k} that takes alpha onto the first quadrature, that
    intensity is (sqrt(v) Z + ||alpha||)^2 + v chi^2(2k-1) in law, v = N/2;
    ``energy`` = ||alpha||^2 is a scalar or one value per trial."""
    half = channel.n_thermal / 2
    shifted = rng.normal(np.sqrt(energy), math.sqrt(half), size)
    return rng.poisson(shifted * shifted + half * rng.chisquare(2 * k - 1, size))


class TestSampler:
    """The reference sampler above against the count law, and the tail
    frequencies of `montecarlo.estimate_errors`, which draws no count, at
    several thresholds against the law's lower tails."""

    @pytest.mark.parametrize("k,energy,n_thermal", [
        (1, 0.0, 1.0), (1, 2.5, 1.0), (3, 1.38, 0.5), (3, 1.38, 0.0), (1024, 307.2, 1.0)])
    def test_tail_frequencies_match_lower_tails(self, k, energy, n_thermal):
        # each threshold its own 100k trials; 4 standard errors per frequency
        ch, trials = ChannelModel(n_thermal), 100_000
        mean = k * n_thermal + energy
        sd = math.sqrt(k * n_thermal * (n_thermal + 1) + energy * (2 * n_thermal + 1))
        for t in sorted({max(0, round(mean + z * sd)) for z in (-2, -1, 0, 1, 2)}):
            est = mc.estimate_errors(energy, ch, DetectorSpec(k, float(t)), trials, t)
            below = [math.exp(ps.log_tail_probability(k, e, ch, t, upper=False))
                     for e in (0.0, energy)]
            for got, p in ((est["lambda1"], 1 - below[0]), (est["lambda2"], below[1])):
                assert abs(got.successes - trials * p) <= 4 * math.sqrt(trials * p * (1 - p)), (
                    t, got, p)

    def test_vacuum_degenerate(self):
        rng = np.random.default_rng(0)
        ch = ChannelModel(0.0)
        assert all(reference_counts(1, 0.0, ch, rng, 1)[0] == 0 for _ in range(100))

    def test_total_variation_against_pmf(self):
        ch = ChannelModel(1.0)
        rng = np.random.default_rng(42)
        draws = reference_counts(1, 0.0, ch, rng, 1_000_000)
        pmf = geometric_pmf(1.0, 80)
        counts = np.bincount(draws, minlength=pmf.size)[: pmf.size]
        tv = 0.5 * np.abs(counts / draws.size - pmf).sum()
        assert tv < 0.01

    def test_single_mode_displaced_total_variation(self):
        # k = 1 with energy: the chi-square of the rotated sum has 1 degree of freedom
        ch = ChannelModel(1.0)
        draws = reference_counts(1, 2.5, ch, np.random.default_rng(5), 200_000)
        pmf = np.diff(lower_tails(1, 2.5, ch, 80), prepend=0.0)
        counts = np.bincount(draws, minlength=pmf.size)[: pmf.size]
        assert 0.5 * np.abs(counts / draws.size - pmf).sum() < 0.01

    def test_mean_of_displaced_draws(self):
        ch = ChannelModel(0.5)
        rng = np.random.default_rng(7)
        draws = reference_counts(1, 4.0, ch, rng, 1_000_000)
        # mean N + |alpha|^2, from the first derivative of the MGF at z = 1
        expected = 0.5 + 4.0
        sigma = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 3 * sigma

    K, ENERGY = 3, 1.38  # e.g. amplitudes (1, 0.5i, -0.3 + 0.2i)

    @pytest.mark.parametrize("n_thermal", [0.0, 0.5])
    def test_k_mode_mean_and_variance(self, n_thermal):
        # mean kN + E and variance kN(N+1) + E(2N+1), from the MGF at z = 1
        ch, k, energy = ChannelModel(n_thermal), self.K, self.ENERGY
        draws = reference_counts(k, energy, ch, np.random.default_rng(3), 200_000)
        mean = k * n_thermal + energy
        var = k * n_thermal * (n_thermal + 1) + energy * (2 * n_thermal + 1)
        assert abs(draws.mean() - mean) < 5 * math.sqrt(var / draws.size)
        assert draws.var() == pytest.approx(var, rel=0.03)

    def test_paper_scale_mean_and_variance(self):
        # k = 1024, E = 0.3 k, N = 1: mean kN + E = 1331.2 and variance
        # kN(N+1) + E(2N+1) = 2969.6, each within 5 standard errors; the sample
        # variance's is sqrt((m4 - m2^2) / n)
        k, energy, n_thermal = 1024, 307.2, 1.0
        draws = reference_counts(k, energy, ChannelModel(n_thermal),
                                        np.random.default_rng(9), 100_000)
        mean = k * n_thermal + energy
        var = k * n_thermal * (n_thermal + 1) + energy * (2 * n_thermal + 1)
        centered = draws - draws.mean()
        m2, m4 = np.mean(centered**2), np.mean(centered**4)
        assert abs(draws.mean() - mean) < 5 * math.sqrt(var / draws.size)
        assert abs(m2 - var) < 5 * math.sqrt((m4 - m2**2) / draws.size)

    def test_k_mode_total_variation_against_law(self):
        ch = ChannelModel(1.0)
        draws = reference_counts(self.K, self.ENERGY, ch, np.random.default_rng(8), 200_000)
        pmf = np.diff(lower_tails(self.K, self.ENERGY, ch, 80), prepend=0.0)
        counts = np.bincount(draws, minlength=pmf.size)[: pmf.size]
        assert 0.5 * np.abs(counts / draws.size - pmf).sum() < 0.01

    @pytest.mark.parametrize("n_thermal", [5e-324, 1e-300])
    def test_subnormal_noise(self, n_thermal):
        # the law is Poisson(10) to within N: mean and variance 10
        draws = reference_counts(4, 10.0, ChannelModel(n_thermal),
                                        np.random.default_rng(11), 100_000)
        assert draws.min() >= 0
        assert abs(draws.mean() - 10.0) < 5 * math.sqrt(10.0 / draws.size)

    def test_scalar_and_per_trial_energy_identical(self):
        # one energy per trial, all equal, draws exactly what the shared scalar draws
        ch = ChannelModel(0.7)
        shared = reference_counts(self.K, self.ENERGY, ch, np.random.default_rng(4), 1000)
        per_trial = reference_counts(self.K, np.full(1000, self.ENERGY), ch,
                                            np.random.default_rng(4), 1000)
        assert np.array_equal(shared, per_trial)


class TestExactTotalPmf:
    """The k-mode law through its closed-form tails, against cumulative sums
    of convolved single-mode pmfs."""

    def test_single_mode_geometric(self):
        # P(S_1 <= n) = 1 - 2^-(n+1) at N = 1
        got = lower_tails(1, 0.0, ChannelModel(1.0), 4)
        assert got == pytest.approx([1 - 0.5 ** (n + 1) for n in range(5)], rel=1e-15)

    def test_two_modes_are_self_convolution(self):
        ch = ChannelModel(1.0)
        one = geometric_pmf(1.0, 128)
        conv = np.cumsum(np.convolve(one, one)[:129])
        assert np.max(np.abs(lower_tails(2, 0.0, ch, 128) - conv)) < 1e-14

    def test_split_invariance(self):
        ch = ChannelModel(0.7)
        closed = lower_tails(3, 5.0, ch, 60)
        for split in ([5, 0, 0], [2, 2, 1]):
            conv = np.cumsum(convolution_pmf(split, ch, 60))
            assert np.max(np.abs(closed - conv)) < 1e-12

    @given(
        st.lists(st.floats(0, 4), min_size=2, max_size=4),
        st.floats(0.2, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_split_invariance_random(self, energies, n_thermal):
        ch = ChannelModel(n_thermal)
        k = len(energies)
        closed = lower_tails(k, sum(energies), ch, 60)
        conv = np.cumsum(convolution_pmf(energies, ch, 60))
        assert np.max(np.abs(closed - conv)) < 1e-11

    @pytest.mark.parametrize("k,energy,n_thermal", [(1, 0.0, 1.0), (8, 6.0, 0.5), (64, 20.0, 2.0)])
    def test_tails_are_complementary(self, k, energy, n_thermal):
        ch = ChannelModel(n_thermal)
        thr = k * (n_thermal + 0.5)
        upper = ps.log_tail_probability(k, energy, ch, thr, upper=True)
        lower = ps.log_tail_probability(k, energy, ch, thr, upper=False)
        assert math.exp(upper) + math.exp(lower) == pytest.approx(1.0, abs=1e-13)

    def test_subnormal_energy_does_not_warn(self):
        # lam / j underflowed to 0 in the j >= 16 branch of ln Poi(j; lam),
        # evaluated at j = 0 too, and warned of a log of zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ps.log_tail_probability(2, 5e-324, ChannelModel(0.2), 0, upper=False)
        # ln P(NB(2) = 0) = -2 ln 1.2, as returned while it warned
        assert got == -0.3646431135879093
        assert got == pytest.approx(-2 * math.log(1.2), rel=1e-15)

    @pytest.mark.parametrize("energy", [1e-322, 5e-324])
    def test_subnormal_energy_upper_tail_does_not_warn(self, energy):
        # the upper tail sums j >= 16 only, where lam / j underflows to 0 and
        # ln Poi(j; lam) is -inf, at both ends of its window
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ps.log_tail_probability(2, energy, ChannelModel(0.2), 40, upper=True)
        # the E = 0 value, as returned while it warned
        assert got == -69.90203957410223
        assert got == ps.log_tail_probability(2, 0.0, ChannelModel(0.2), 40, upper=True)

    def test_lower_tail_beyond_count_range(self):
        # the threshold is past 2^22 counts, the bulk of the law is not
        ch = ChannelModel(1.0)
        assert ps.log_tail_probability(3, 5.0, ch, 6e6, upper=False) == pytest.approx(0, abs=1e-15)

    def test_window_of_zero_terms_is_minus_inf(self):
        # at N = 0 the upper tail sums Poisson terms from j = 41 on, all -inf
        # where lam / j underflows; their sum is -inf, not -inf - (-inf) = NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ps.log_tail_probability(2, 5e-324, ChannelModel(0.0), 40, upper=True)
        assert got == -math.inf


class TestLogSumExp:
    """The window sum is `scipy.special.logsumexp`'s algorithm, to the bit."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(2026)
        for size in (1, 2, 7, 8, 9, 30, 129, 700):
            a = rng.normal(-40, 30, size)
            yield a  # one maximum
            tied = a.copy()
            tied[rng.choice(size, min(size, max(2, size // 3)), replace=False)] = a.max()
            yield tied
            holes = a.copy()
            holes[rng.random(size) < 0.3] = -math.inf
            yield holes
            yield np.full(size, -math.inf)

    def test_matches_scipy(self):
        from scipy.special import logsumexp

        for a in self.arrays():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = ps._log_sum_exp(a, a.max())
            assert repr(got) == repr(float(logsumexp(a)))


class TestGoldenTails:
    """Tails pinned by the sha256 of their reprs over a (k, N, E, delta, tail)
    grid.  Special functions and numpy's summation may round differently in
    other versions: this digest holds for numpy 2.4.6 and scipy 1.17.1."""

    def test_digest(self):
        values = [ps.log_tail_probability(k, per_mode * k, ChannelModel(n), k * (n + d), upper)
                  for k in (1, 2, 8, 64, 1024, 4096) for n in (0.0, 0.1, 1.0, 4.0)
                  for per_mode in (0.0, 0.3, 4.0) for d in (0.1, 1.0) for upper in (False, True)]
        digest = hashlib.sha256(repr(values).encode()).hexdigest()
        assert digest == "6bc46b580fddf3e0f69eb21b00ec133d4e79e00bad49ddc865139f6b3de54ba1"


class TestFiniteInputs:
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_channel_rejects(self, value):
        with pytest.raises(ValueError, match="finite"):
            ChannelModel(value)

    @pytest.mark.parametrize("delta,k,match", [
        *[pytest.param(delta, 4, "finite", id=str(delta))
          for delta in (math.inf, math.nan, 0.0, 1e300)],
        pytest.param(1.0, 0, "k must be >= 1", id="k-0"),
    ])
    def test_detector_rejects_delta(self, delta, k, match):
        with pytest.raises(ValueError, match=match):
            ps.DetectorSpec.make(delta, k, ChannelModel(1.0))

    @pytest.mark.parametrize("call,params", [
        pytest.param(lambda: scheme.achievable_users_log(8, 4.0, 100.0), ("rho", "energy"),
                     id="separation"),
        pytest.param(lambda: scheme.build_code(2, 4.0, 100.0, np.random.default_rng(0)),
                     ("rho", "energy"), id="separation-build_code"),
        pytest.param(lambda: scheme.achievable_users_log(8, math.nan, 1.0), ("energy",),
                     id="energy-nan"),
        pytest.param(lambda: scheme.achievable_users_log(8, 1e308, 1.0), ("energy",),
                     id="kE-overflows"),
        pytest.param(lambda: scheme.achievable_users_log(8, 4.0, math.inf), ("rho",), id="rho"),
        *[pytest.param(lambda d=delta_k: scheme.converse_users_log(8, 4.0, d, ChannelModel(1)),
                       ("delta_k",), id=f"delta_k-{delta_k}")
          for delta_k in (0.3, 0.0, math.nan)],
        pytest.param(lambda: geometry.greedy_packing(2, 1e154, 1.0, np.random.default_rng(0)),
                     ("radius",), id="radius"),
        pytest.param(lambda: scheme.build_code(1, 1e308, 1.0, np.random.default_rng(0)),
                     ("radius",), id="radius-build_code"),
        pytest.param(lambda: DetectorSpec.make(1.0, 2, ChannelModel(1e300)), ("threshold",),
                     id="threshold-2^53"),
        *[pytest.param(lambda t=t: mc.HeterodyneSpec(noise_variance=2.0, threshold=t),
                       ("threshold",), id=f"heterodyne-threshold-{t}")
          for t in (-8.0, math.inf, math.nan)],
        *[pytest.param(lambda n=n: ChannelModel(n), ("n_thermal",), id=f"n_thermal-{n}")
          for n in (-0.5, math.inf)],
        pytest.param(lambda: DetectorSpec.make(math.nan, 2, ChannelModel(1.0)), ("delta",),
                     id="delta-detector"),
        # a detector built directly, not by make, meets the same rules
        *[pytest.param(lambda a=args: DetectorSpec(*a), params, id=f"detector-{name}")
          for name, args, params in [("k", (0, 4.0), ("k",)),
                                     ("threshold-2^60", (4, 2.0**60), ("threshold",)),
                                     ("threshold-nan", (4, math.nan), ("threshold",)),
                                     ("threshold-inf", (4, math.inf), ("threshold",)),
                                     ("threshold-negative", (4, -0.5), ("threshold",)),
                                     ("threshold-minus-inf", (4, -math.inf), ("threshold",))]],
        pytest.param(lambda: ps.analytic_error_bounds(8, 1e306, 4.0, ChannelModel(1.0)),
                     ("delta",), id="delta-bounds"),
        # the heterodyne squared radius k (N + 1) (1 + delta) needs delta >= -1
        *[pytest.param(lambda d=delta: mc.HeterodyneSpec.make(d, 4, ChannelModel(1.0)),
                       ("delta",), id=f"delta-heterodyne-{delta}")
          for delta in (-3.0, math.nan, math.inf)],
        pytest.param(lambda: mc.HeterodyneSpec.make(1.0, 0, ChannelModel(1.0)), ("k",),
                     id="k-heterodyne"),
        pytest.param(lambda: mc.HeterodyneSpec.make(1.0, 2, ChannelModel(1e308)),
                     ("threshold",), id="threshold-heterodyne-overflows"),
        # a code's own (k, E, rho), built or loaded, meets build_code's rules
        *[pytest.param(lambda a=args: scheme.SignatureSet(
            *a, rows=np.zeros((0, 2 * max(a[0], 0)))), params,
                       id=f"signature-set-{name}")
          for name, args, params in [("k", (0, 4.0, 1.0), ("k",)),
                                     ("kE", (2, 1e308, 1.0), ("energy",)),
                                     ("E", (2, 0.0, 1.0), ("energy",)),
                                     ("rho", (2, 4.0, 0.0), ("rho",)),
                                     ("rho-nan", (2, 4.0, math.nan), ("rho",))]],
    ])
    def test_range_error_names_its_parameters(self, call, params):
        with pytest.raises(ps.RangeError) as info:
            call()
        assert info.value.params == params
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("upper", [True, False])
    def test_tail_rejects_threshold_beyond_float_counts(self, upper):
        # at 2e300 the logs of successive terms no longer differ in floats
        with pytest.raises(ValueError, match="2\\^53"):
            ps.log_tail_probability(2, 0.0, ChannelModel(1.0), 2e300, upper)


class TestExponents:
    def test_lambda_closed_form(self):
        assert ps.lambda_exponent(1.0, ChannelModel(1.0)) == pytest.approx(
            2 * math.log(2) - 3 * math.log(1.5)
        )

    def test_lambda_vanishes_with_slack(self):
        assert ps.lambda_exponent(1e-9, ChannelModel(1.0)) < 1e-15

    def test_lambda_subnormal_noise(self):
        # (N + delta) / N overflows at N = 2.2e-311
        n_thermal = 2.225073858507e-311
        with mp.workdps(50):
            N = mp.mpf(n_thermal)
            expected = float((N + 1) * mp.log((N + 1) / N) - (N + 2) * mp.log((N + 2) / (N + 1)))
        got = ps.lambda_exponent(1.0, ChannelModel(n_thermal))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_lambda_matches_mpmath_grid(self):
        # 37 x 31 log grid; where delta << N the two terms of Lambda agree to
        # ~35 digits, so the reference carries 110
        worst = 0.0
        for n_thermal in np.logspace(-6, 12, 37):
            for delta in np.logspace(-9, 6, 31):
                with mp.workdps(110):
                    N, d = mp.mpf(float(n_thermal)), mp.mpf(float(delta))
                    expected = float((N + d) * mp.log((N + d) / N)
                                     - (N + d + 1) * mp.log((N + d + 1) / (N + 1)))
                got = ps.lambda_exponent(float(delta), ChannelModel(float(n_thermal)))
                worst = max(worst, abs(got - expected) / expected)
        assert worst < 1e-13

    def test_lambda_positive_where_slack_is_tiny(self):
        # the two O(delta) terms used to cancel to -2.2e-16 here
        assert ps.lambda_exponent(1e-9, ChannelModel(1e7)) > 0

    def test_lambda_rejects_vacuum_channel(self):
        with pytest.raises(ValueError):
            ps.lambda_exponent(1.0, ChannelModel(0.0))
        with pytest.raises(ValueError, match="n_thermal > 0"):  # nor does its oracle
            ps.chernoff_upper_exponent(1.0, ChannelModel(0.0))
        with pytest.raises(ValueError, match="1/n_thermal finite"):  # its bracket is infinite
            ps.chernoff_upper_exponent(1.0, ChannelModel(5e-324))

    @pytest.mark.parametrize("n_thermal", [0.1, 1.0, 37.0, 1e6, 1e300])
    @pytest.mark.parametrize("delta", [1e-3, 1.0, 10.0])
    def test_theta_matches_mpmath(self, n_thermal, delta):
        # Theta = (1 - r)/(N+1-N r), r = (N+1)^{-1/(N+delta)}, read through the
        # lambda2 bound at k = 1 and a pair energy that puts the bound at -3
        # times its k term.  At N = 1e300, r rounds to 1 in floats; 1 - r is
        # about 1e-298, so the reference carries 350 digits
        with mp.workdps(350):
            N, d = mp.mpf(n_thermal), mp.mpf(delta)
            r = (N + 1) ** (-1 / (N + d))
            theta, gap = (1 - r) / (N + 1 - N * r), mp.log((N + 1) / (N + 1 - N * r))
            pair_energy = float(4 * gap / theta)
            want = float(-pair_energy * theta + gap)
        _, got = ps.analytic_error_bounds(1, delta, pair_energy, ChannelModel(n_thermal))
        assert want < 0
        assert got == pytest.approx(want, rel=1e-12)


class TestChernoffOracles:
    GRID = [(d, n) for d in (0.1, 0.5, 1.0, 2.0) for n in (0.2, 0.5, 1.0, 2.0)]

    @pytest.mark.parametrize("delta,n_thermal", GRID)
    def test_upper_exponent_equals_lambda(self, delta, n_thermal):
        ch = ChannelModel(n_thermal)
        assert ps.chernoff_upper_exponent(delta, ch) == pytest.approx(
            ps.lambda_exponent(delta, ch), abs=1e-9
        )

    def test_upper_exponent_small_slack(self):
        ch = ChannelModel(1.0)
        assert ps.chernoff_upper_exponent(0.01, ch) == pytest.approx(
            ps.lambda_exponent(0.01, ch), abs=1e-9
        )

    @pytest.mark.parametrize("delta", [1e-6, 1.0, 1e4])
    @pytest.mark.parametrize("n_thermal", [1e-9, 1.0, 1e6])
    def test_upper_exponent_at_grid_edges(self, delta, n_thermal):
        # Lambda from 5e-25 (N = 1e6, delta = 1e-6) to 2e5 (N = 1e-9, delta = 1e4)
        ch = ChannelModel(n_thermal)
        exact = ps.lambda_exponent(delta, ch)
        tol = dict(rel=1e-12, abs=0) if exact >= 1e-3 else dict(abs=1e-9)
        assert ps.chernoff_upper_exponent(delta, ch) == pytest.approx(exact, **tol)

    @pytest.mark.parametrize("delta,n_thermal", [(1e10, 1.0), (1e15, 1.0), (1e15, 1e-300)])
    def test_maximum_at_bracket_end_raises(self, delta, n_thermal):
        # the maximum, s = ln((N+1)/N) - ln(1 + 1/(N+delta)), lies 1.4e-10 of
        # ln((N+1)/N) below it at (1e10, 1), inside the 1e-9 margin, and past
        # the bracket's end, 1e-12 below it, in the other two cases
        with pytest.raises(RuntimeError, match="not interior"):
            ps.chernoff_upper_exponent(delta, ChannelModel(n_thermal))

    @pytest.mark.parametrize("delta,n_thermal", GRID)
    def test_upper_tail_bound_dominance(self, delta, n_thermal):
        # exact upper-tail mass at zero energy never exceeds exp(-k Lambda)
        ch = ChannelModel(n_thermal)
        lam = ps.lambda_exponent(delta, ch)
        for k in (1, 2, 4, 8, 16):
            # ln P(S_k >= k(N + delta))
            first = math.ceil(k * (n_thermal + delta) - 1e-12)
            assert ps.log_tail_probability(k, 0.0, ch, first - 1, upper=True) <= -k * lam + 1e-9
