import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonid import fockspace
from bosonid import photonstats as ps
from bosonid.photonstats import ChannelModel


def convolution_pmf(energies, channel, nmax):
    """Independent oracle: the total count of modes carrying ``energies``, by
    convolving the single-mode pmfs on {0, ..., nmax}."""
    total = ps.photon_pmf_array(nmax, energies[0], channel)
    for e in energies[1:]:
        total = np.convolve(total, ps.photon_pmf_array(nmax, e, channel))[: nmax + 1]
    return total


def lower_tails(k, energy, channel, nmax):
    """P(S_k <= n) for n = 0..nmax from the closed-form tails."""
    return np.exp([ps.log_tail_probability(k, energy, channel, n, upper=False)
                   for n in range(nmax + 1)])


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
    """The Laguerre form of the single-mode law, through `photon_pmf_array`."""

    def test_degree_zero(self):
        # L_0 = 1
        got = ps.photon_pmf_array(0, 3.7, ChannelModel(0.5))[0]
        assert got == pytest.approx(math.exp(-3.7 / 1.5) / 1.5, rel=1e-12)

    def test_degree_one(self):
        # L_1(x) = 1 - x at x = -e/(N(N+1)) = -1
        got = ps.photon_pmf_array(1, 2.0, ChannelModel(1.0))[1]
        assert got == pytest.approx(0.25 * math.exp(-1.0) * 2.0, rel=1e-12)

    def test_degree_five_matches_series(self):
        got = ps.photon_pmf_array(5, 0.8, ChannelModel(1.0))[5]
        assert got == pytest.approx(single_mode_pmf(5, 0.8, 1.0), rel=1e-12)

    @given(st.integers(0, 25), st.floats(0, 20), st.floats(0.05, 5))
    def test_matches_series(self, n, energy, n_thermal):
        got = ps.photon_pmf_array(n, energy, ChannelModel(n_thermal))[n]
        assert got == pytest.approx(single_mode_pmf(n, energy, n_thermal), rel=1e-9, abs=1e-9)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            ps.photon_pmf_array(-1, 0.0, ChannelModel(1.0))


class TestPmf:
    def test_zero_energy_is_geometric(self):
        ch = ChannelModel(1.0)
        assert ps.photon_pmf_array(0, 0, ch)[0] == pytest.approx(0.5)
        for n in range(8):
            assert ps.photon_pmf_array(n, 0, ch)[n] == pytest.approx(0.5 * 0.5**n)

    def test_matches_fock_diagonal(self):
        ch = ChannelModel(0.5)
        rho = fockspace.displaced_thermal_density(math.sqrt(2.0), ch, 60)
        assert ps.photon_pmf_array(3, 2.0, ch)[3] == pytest.approx(
            rho[3, 3].real, abs=1e-10
        )

    def test_vacuum_channel_is_poisson(self):
        ch = ChannelModel(0.0)
        assert ps.photon_pmf_array(2, 3.0, ch)[2] == pytest.approx(math.exp(-3) * 9 / 2)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            ps.photon_pmf_array(0, -1.0, ChannelModel(1.0))

    @pytest.mark.parametrize("n_thermal", [5e-324, 1e-310])
    def test_subnormal_noise_is_poisson(self, n_thermal):
        # -e/(N(N+1)) overflows: the law is Poisson(e) to float precision
        pmf = ps.photon_pmf_array(5, 1.0, ChannelModel(n_thermal))
        poisson = [math.exp(-1) / math.factorial(n) for n in range(6)]
        assert pmf == pytest.approx(poisson, rel=1e-14)

    @pytest.mark.parametrize("energy", [0.0, 1e-320, 1e-310])
    @pytest.mark.parametrize("n_thermal", [5e-324, 1e-320, 1e-310])
    def test_subnormal_noise_and_energy(self, energy, n_thermal):
        # the Laguerre recurrence overflowed here: x = -e/(N(N+1)) is huge or
        # not representable; its values are taken in mpmath
        pmf = ps.photon_pmf_array(5, energy, ChannelModel(n_thermal))
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
        pmf = ps.photon_pmf_array(600, energy, ChannelModel(n_thermal))
        assert 1 - 1e-10 <= pmf.sum() <= 1 + 1e-12

    @pytest.mark.parametrize("energy,n_thermal", [(0.0, 1.0), (3.0, 0.5), (20.0, 2.0)])
    def test_mean_identity(self, energy, n_thermal):
        pmf = ps.photon_pmf_array(600, energy, ChannelModel(n_thermal))
        mean = np.arange(pmf.size) @ pmf
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

    @pytest.mark.parametrize("z", [0.0, 0.4, 1.0, 1.5, 1.8])
    def test_matches_pmf_series_grid(self, z):
        # z up to 0.9 (N+1)/N at N = 1; terms summed in log space
        ch = ChannelModel(1.0)
        pmf = ps.photon_pmf_array(800, 2.0, ch)
        if z == 0:
            series = pmf[0]
        else:
            series = np.exp(np.log(pmf) + np.arange(pmf.size) * math.log(z)).sum()
        assert pgf(z, 2.0, ch, 1) == pytest.approx(series, rel=1e-8)


class TestSampler:
    def test_vacuum_degenerate(self):
        rng = np.random.default_rng(0)
        ch = ChannelModel(0.0)
        assert all(ps.sample_photon_counts(1, 0.0, ch, rng, 1)[0] == 0 for _ in range(100))

    def test_total_variation_against_pmf(self):
        ch = ChannelModel(1.0)
        rng = np.random.default_rng(42)
        draws = ps.sample_photon_counts(1, 0.0, ch, rng, 1_000_000)
        pmf = ps.photon_pmf_array(80, 0.0, ch)
        counts = np.bincount(draws, minlength=pmf.size)[: pmf.size]
        tv = 0.5 * np.abs(counts / draws.size - pmf).sum()
        assert tv < 0.01

    def test_single_mode_displaced_total_variation(self):
        # k = 1 with energy: the chi-square of the rotated sum has 1 degree of freedom
        ch = ChannelModel(1.0)
        draws = ps.sample_photon_counts(1, 2.5, ch, np.random.default_rng(5), 200_000)
        pmf = ps.photon_pmf_array(80, 2.5, ch)
        counts = np.bincount(draws, minlength=pmf.size)[: pmf.size]
        assert 0.5 * np.abs(counts / draws.size - pmf).sum() < 0.01

    def test_mean_of_displaced_draws(self):
        ch = ChannelModel(0.5)
        rng = np.random.default_rng(7)
        draws = ps.sample_photon_counts(1, 4.0, ch, rng, 1_000_000)
        # mean N + |alpha|^2, from the first derivative of the MGF at z = 1
        expected = 0.5 + 4.0
        sigma = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 3 * sigma

    K, ENERGY = 3, 1.38  # e.g. amplitudes (1, 0.5i, -0.3 + 0.2i)

    @pytest.mark.parametrize("n_thermal", [0.0, 0.5])
    def test_k_mode_mean_and_variance(self, n_thermal):
        # mean kN + E and variance kN(N+1) + E(2N+1), from the MGF at z = 1
        ch, k, energy = ChannelModel(n_thermal), self.K, self.ENERGY
        draws = ps.sample_photon_counts(k, energy, ch, np.random.default_rng(3), 200_000)
        mean = k * n_thermal + energy
        var = k * n_thermal * (n_thermal + 1) + energy * (2 * n_thermal + 1)
        assert abs(draws.mean() - mean) < 5 * math.sqrt(var / draws.size)
        assert draws.var() == pytest.approx(var, rel=0.03)

    def test_paper_scale_mean_and_variance(self):
        # k = 1024, E = 0.3 k, N = 1: mean kN + E = 1331.2 and variance
        # kN(N+1) + E(2N+1) = 2969.6, each within 5 standard errors; the sample
        # variance's is sqrt((m4 - m2^2) / n)
        k, energy, n_thermal = 1024, 307.2, 1.0
        draws = ps.sample_photon_counts(k, energy, ChannelModel(n_thermal),
                                        np.random.default_rng(9), 100_000)
        mean = k * n_thermal + energy
        var = k * n_thermal * (n_thermal + 1) + energy * (2 * n_thermal + 1)
        centered = draws - draws.mean()
        m2, m4 = np.mean(centered**2), np.mean(centered**4)
        assert abs(draws.mean() - mean) < 5 * math.sqrt(var / draws.size)
        assert abs(m2 - var) < 5 * math.sqrt((m4 - m2**2) / draws.size)

    def test_k_mode_total_variation_against_law(self):
        ch = ChannelModel(1.0)
        draws = ps.sample_photon_counts(self.K, self.ENERGY, ch, np.random.default_rng(8), 200_000)
        pmf = np.diff(lower_tails(self.K, self.ENERGY, ch, 80), prepend=0.0)
        counts = np.bincount(draws, minlength=pmf.size)[: pmf.size]
        assert 0.5 * np.abs(counts / draws.size - pmf).sum() < 0.01

    @pytest.mark.parametrize("n_thermal", [5e-324, 1e-300])
    def test_subnormal_noise(self, n_thermal):
        # the law is Poisson(10) to within N: mean and variance 10
        draws = ps.sample_photon_counts(4, 10.0, ChannelModel(n_thermal),
                                        np.random.default_rng(11), 100_000)
        assert draws.min() >= 0
        assert abs(draws.mean() - 10.0) < 5 * math.sqrt(10.0 / draws.size)

    def test_scalar_and_per_trial_energy_identical(self):
        # one energy per trial, all equal, draws exactly what the shared scalar draws
        ch = ChannelModel(0.7)
        shared = ps.sample_photon_counts(self.K, self.ENERGY, ch, np.random.default_rng(4), 1000)
        per_trial = ps.sample_photon_counts(self.K, np.full(1000, self.ENERGY), ch,
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
        one = ps.photon_pmf_array(128, 0.0, ch)
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


class TestFiniteInputs:
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_channel_rejects(self, value):
        with pytest.raises(ValueError, match="finite"):
            ChannelModel(value)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, 1e300])
    def test_detector_rejects_delta(self, delta):
        with pytest.raises(ValueError, match="finite"):
            ps.DetectorSpec.make(delta, 4, ChannelModel(1.0))

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

    def test_theta_closed_form(self):
        expected = (1 - 2**-0.5) / (2 - 2**-0.5)
        assert ps.theta_exponent(1.0, ChannelModel(1.0)) == pytest.approx(expected)

    def test_theta_vacuum_limit_is_zero(self):
        assert ps.theta_exponent(1.0, ChannelModel(0.0)) == 0.0

    @pytest.mark.parametrize("n_thermal", [0.1, 1.0, 37.0, 1e6, 1e300])
    @pytest.mark.parametrize("delta", [1e-3, 1.0, 10.0])
    def test_theta_matches_mpmath(self, n_thermal, delta):
        # at N = 1e300, r = (N+1)^{-1/(N+delta)} rounds to 1 in floats; 1 - r
        # is about 1e-298, so the reference carries 350 digits
        with mp.workdps(350):
            N, d = mp.mpf(n_thermal), mp.mpf(delta)
            r = (N + 1) ** (-1 / (N + d))
            expected = float((1 - r) / (N + 1 - N * r))
        assert ps.theta_exponent(delta, ChannelModel(n_thermal)) == pytest.approx(
            expected, rel=1e-13)

    def test_theta_decreases_with_slack(self):
        # larger slack makes false accepts easier, so the exponent decays to 0
        ch = ChannelModel(1.0)
        vals = [ps.theta_exponent(d, ch) for d in (0.1, 1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(math.log(2) / 1000, rel=1e-2)


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

    @pytest.mark.parametrize("delta,n_thermal", GRID)
    def test_upper_tail_bound_dominance(self, delta, n_thermal):
        # exact upper-tail mass at zero energy never exceeds exp(-k Lambda)
        ch = ChannelModel(n_thermal)
        lam = ps.lambda_exponent(delta, ch)
        for k in (1, 2, 4, 8, 16):
            # ln P(S_k >= k(N + delta))
            first = math.ceil(k * (n_thermal + delta) - 1e-12)
            assert ps.log_tail_probability(k, 0.0, ch, first - 1, upper=True) <= -k * lam + 1e-9
