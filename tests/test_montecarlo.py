import math
import sys
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import chndtr, ndtri
from scipy.stats import binom, chi2, ncx2

from bosonid import geometry
from bosonid import montecarlo as mc
from bosonid import photonstats as ps
from bosonid.photonstats import ChannelModel, DetectorSpec
from test_photonstats import reference_counts

# four k = 2 signatures at squared distances 1, 2.25, 4, 4.25, 4.25 and 5
FOUR_POINTS = np.array([[0, 0], [1, 0], [0, 2j], [1.5, 1 + 1j]], dtype=complex).view(float)


def mp_lambda1(k, noise, delta):
    """P(S > t) of the negative binomial zero-energy count, summed term by term
    in mpmath from t + 1 with binomial coefficients."""
    t = math.floor(k * (noise + delta))
    with mp.workdps(40):
        q = mp.mpf(noise) / (noise + 1)
        n = t + 1
        term = mp.binomial(n + k - 1, n) * (1 - q) ** k * q**n
        total = mp.mpf(0)
        while term > total * mp.mpf(10) ** -30:
            total += term
            term *= q * (n + k) / (n + 1)
            n += 1
        return total


def mp_lambda2(k, noise, delta, energy):
    """P(S <= t) of the noncentral negative binomial count, from mpmath's own
    generalized Laguerre polynomials."""
    t = math.floor(k * (noise + delta))
    with mp.workdps(40):
        n_th, e = mp.mpf(noise), mp.mpf(energy)
        c, x = n_th / (n_th + 1), -e / (n_th * (n_th + 1))
        total = mp.fsum(c**n * mp.laguerre(n, k - 1, x) for n in range(t + 1))
        return total * (n_th + 1) ** (-k) * mp.exp(-e / (n_th + 1))


def mp_laguerre_lower(k, noise, delta, energy):
    """P(S <= t) of the noncentral negative binomial count, its Laguerre-form
    terms summed from n = 0, the polynomials by their three-term recurrence
    (the terms are positive, so 40 digits carry through)."""
    t = math.floor(k * (noise + delta))
    with mp.workdps(40):
        n_th, e = mp.mpf(noise), mp.mpf(energy)
        c, x = n_th / (n_th + 1), -e / (n_th * (n_th + 1))
        prev, cur, total = mp.mpf(0), mp.mpf(1), mp.mpf(0)
        for n in range(t + 1):
            total += cur
            prev, cur = cur, (c * (2 * n + k - x) * cur - c * c * (n + k - 1) * prev) / (n + 1)
        return total * (n_th + 1) ** (-k) * mp.exp(-e / (n_th + 1))


def mp_mixture(k, noise, delta, energy, upper):
    """P(S > t) if upper, else P(S <= t), as the Poisson mixture
    sum_j Poi(j; lam) I_p(k+j, t-j+1), p = 1/(N+1), lam = E/(N+1), with each
    incomplete beta at integer arguments taken as a binomial tail,
    I_p(k+j, t-j+1) = P(B >= k+j) for B ~ Bin(t+k, p), summed in mpmath.
    Past 5e4 trials the pmf of B stops 1e-45 below its peak, which needs
    N >= 1 and a tail that is not itself that small."""
    t = math.floor(k * (noise + delta))
    n = t + k
    with mp.workdps(40):
        p = 1 / (mp.mpf(noise) + 1)
        lam = mp.mpf(energy) * p
        pmf, top, i = [(1 - p) ** n], (1 - p) ** n, 0
        while i < n and not (n > 5e4 and i > n * p + 10 and i > k + 10
                             and pmf[-1] < top * mp.mpf(10) ** -45):
            pmf.append(pmf[-1] * (n - i) / (i + 1) * p / (1 - p))
            top, i = max(top, pmf[-1]), i + 1
        at_least = [mp.mpf(0)] * (len(pmf) + 1)  # at_least[m] = P(B >= m)
        for i in range(len(pmf) - 1, -1, -1):
            at_least[i] = at_least[i + 1] + pmf[i]
        total, poi = mp.mpf(0), mp.exp(-lam)
        for j in range(t + 1):
            below = at_least[k + j] if k + j < len(at_least) else mp.mpf(0)
            total += poi * ((1 - below) if upper else below)
            poi *= lam / (j + 1)
            if j > lam and poi < mp.mpf(10) ** -45:
                break
        if upper and lam > 0:  # P(J > t), where NB(k+J) > t - J always
            total += mp.gammainc(t + 1, 0, lam, regularized=True)
        return total


def assert_log_matches(got, want):
    """Within 1e-12 relative of ``want`` where it is a float, and its log
    within 1e-12 relative below float range."""
    log_want = float(mp.log(want))
    tol = 1e-12 * (1 if log_want > -708 else abs(log_want))
    assert abs(got - log_want) <= tol, (got, log_want)


MP_KS = (128, 256, 1024, 4096)
GRID = [(k, n) for k in (1, 4, 64, 1024, 4096) for n in (1e-12, 0.1, 1.0, 1e3, 1e6, 1e12)]


def exact_binomial_ok(successes, trials, p, confidence=0.997):
    alpha = 1 - confidence
    lo = binom.ppf(alpha / 2, trials, p)
    hi = binom.ppf(1 - alpha / 2, trials, p)
    return lo <= successes <= hi


class TestEstimateLambda1:
    def test_vacuum_channel_never_errs(self):
        ch = ChannelModel(0.0)
        det = DetectorSpec.make(0.5, 4, ch)
        est = mc.estimate_errors(3.0, ch, det, 10_000, 0)
        assert est["lambda1"].point == 0.0

    def test_matches_exact_oracle(self):
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, 8, ch)
        est = mc.estimate_errors(0.0, ch, det, 100_000, 21)["lambda1"]
        exact = mc.exact_lambda1(ch, det)
        assert exact_binomial_ok(est.successes, est.trials, exact)

    def test_below_analytic_bound(self):
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, 8, ch)
        est = mc.estimate_errors(0.0, ch, det, 100_000, 3)["lambda1"]
        bound = math.exp(-8 * ps.lambda_exponent(1.0, ch))
        assert est.point <= bound + 3 * est.stderr

    def test_reproducible(self):
        ch = ChannelModel(0.7)
        det = DetectorSpec.make(1.0, 4, ch)
        a = mc.estimate_errors(2.0, ch, det, 20_000, 99)
        b = mc.estimate_errors(2.0, ch, det, 20_000, 99)
        assert a == b


class TestExactTails:
    @pytest.mark.parametrize("k", MP_KS)
    def test_lambda1_matches_mpmath(self, k):
        ch = ChannelModel(1.0)
        got = mc.exact_lambda1(ch, DetectorSpec.make(1.0, k, ch))
        assert got == pytest.approx(float(mp_lambda1(k, 1.0, 1.0)), rel=1e-10, abs=0)

    def test_lambda1_nonzero_near_float_floor(self):
        ch = ChannelModel(1.0)
        got = mc.exact_lambda1(ch, DetectorSpec.make(1.0, 4096, ch))
        assert got == pytest.approx(4.508e-305, rel=1e-3, abs=0)

    def test_lambda1_log_below_float_range(self):
        # e^-2789 at k = 16384: only its log is representable
        k, ch = 16384, ChannelModel(1.0)
        got = ps.log_tail_probability(k, 0.0, ch, 2.0 * k, upper=True)
        assert got == pytest.approx(float(mp.log(mp_lambda1(k, 1.0, 1.0))), rel=1e-12)

    @pytest.mark.parametrize("k", MP_KS)
    def test_lambda2_matches_mpmath(self, k):
        # quiet channel: total energy 0.3 k puts the threshold deep in the lower tail
        ch = ChannelModel(0.1)
        delta_vec = np.full(k, math.sqrt(0.3)) * np.exp(1j * np.arange(k))
        got = mc.exact_lambda2(delta_vec, ch, DetectorSpec.make(0.1, k, ch))
        want = float(mp_lambda2(k, 0.1, 0.1, 0.3 * k))
        assert got == pytest.approx(want, rel=1e-10, abs=0)

    def test_vacuum_channel_lambda1_is_zero(self):
        ch = ChannelModel(0.0)
        assert mc.exact_lambda1(ch, DetectorSpec.make(1.0, 4, ch)) == 0.0

    @pytest.mark.parametrize("k,noise", GRID)
    def test_lambda1_grid(self, k, noise):
        # term sums where they converge fast (N <= 1), the mixture elsewhere
        got = ps.log_tail_probability(k, 0.0, ChannelModel(noise), k * (noise + 1.0), upper=True)
        want = mp_lambda1(k, noise, 1.0) if noise <= 1 else mp_mixture(k, noise, 1.0, 0.0, True)
        assert_log_matches(got, want)

    @pytest.mark.parametrize("k,energy,noise,delta", [(k, 2.0 * k, n, 1.0) for k, n in GRID] + [
        (4, 16.0, 1e3, 1.0),  # the old Laguerre walk was off by 3.2e-11 here
        (4096, 50.0 * 4096, 10.0, 0.1),  # peaks near j = 0.34 lam, far below lam
    ])
    def test_lambda2_grid(self, k, energy, noise, delta):
        ch = ChannelModel(noise)
        got = ps.log_tail_probability(k, energy, ch, k * (noise + delta), upper=False)
        want = (mp_laguerre_lower(k, noise, delta, energy) if noise <= 1
                else mp_mixture(k, noise, delta, energy, False))
        assert_log_matches(got, want)

    def test_lambda1_log_beyond_count_range(self):
        # threshold 6e6 + 3 > 2^22: the tail starts there, with no walk from zero
        ch = ChannelModel(1.0)
        got = ps.log_tail_probability(3, 0.0, ch, 3 * (1.0 + 2e6), upper=True)
        assert got == pytest.approx(float(mp.log(mp_lambda1(3, 1.0, 2e6))), rel=1e-12)


class TestEstimateLambda2:
    def test_matches_exact_oracle(self):
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, 4, ch)
        est = mc.estimate_errors(8.0, ch, det, 100_000, 12)["lambda2"]
        exact = mc.exact_lambda2(np.full(4, math.sqrt(2)), ch, det)  # ||Delta||^2 = 8
        assert exact_binomial_ok(est.successes, est.trials, exact)

    def test_all_pairs_sampled(self):
        ch = ChannelModel(1.0)
        sigs = np.array([[0, 0], [1.5, 1.5]], dtype=complex)
        det = DetectorSpec.make(1.0, 2, ch)
        est = mc.estimate_errors(mc.sampled_pairs(sigs.view(float)), ch, det, 2000, 5)["lambda2"]
        # with only one pair this must agree with the worst-pair target
        exact = mc.exact_lambda2(sigs[1] - sigs[0], ch, det)
        assert exact_binomial_ok(est.successes, est.trials, exact)

    def test_all_pairs_sampled_unequal_distances(self):
        # the pair average is far from the worst pair's (squared distance 1),
        # so only the sampled average passes
        sigs = FOUR_POINTS
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, 2, ch)
        pairs = [(s, r) for s in range(4) for r in range(4) if s != r]
        mean = sum(mc.exact_lambda2(sigs[s] - sigs[r], ch, det) for s, r in pairs) / len(pairs)
        worst = mc.exact_lambda2(sigs[1] - sigs[0], ch, det)
        trials = 40_000
        assert worst - mean > 10 * math.sqrt(mean * (1 - mean) / trials)
        est = mc.estimate_errors(mc.sampled_pairs(sigs), ch, det, trials, 6)["lambda2"]
        assert exact_binomial_ok(est.successes, est.trials, mean)

    def test_sampled_pair_energy_is_the_closest_pair_d2(self):
        # summed over (re, im) as closest_pair sums it; |Delta|^2 of the
        # complex entries is 3.999999999999999 here
        sigs = np.array([[1.073 - 2.246j], [2.3530166780457646 - 0.7092640747595296j]])
        d2 = geometry.closest_pair(sigs.view(float))
        assert d2 == 4.0
        pairs = mc.sampled_pairs(sigs.view(float))
        assert pairs(np.random.default_rng(0), 10).tolist() == [d2] * 10

    def test_sampled_pairs_refuses_complex_arrays(self):
        with pytest.raises(ValueError, match="real rows"):
            mc.sampled_pairs(FOUR_POINTS.view(complex))

    def test_sampled_pairs_needs_two_signatures(self):
        with pytest.raises(ValueError, match="2 signatures"):
            mc.sampled_pairs(FOUR_POINTS[:1])

    def test_paper_scale_block_length(self):
        # k = 1024 at N = delta = 1 and ||Delta||^2 = k: the threshold 2k is
        # the law's mean, so lambda2 is near 1/2
        start = time.perf_counter()
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, 1024, ch)
        est = mc.estimate_errors(1024.0, ch, det, 100_000, 13)["lambda2"]
        exact = mc.exact_lambda2(np.ones(1024), ch, det)
        assert 0.3 < exact < 0.7
        assert exact_binomial_ok(est.successes, est.trials, exact)
        assert time.perf_counter() - start < 1.0

    def test_permutation_invariance_of_exact_target(self):
        ch = ChannelModel(0.5)
        det = DetectorSpec.make(1.0, 3, ch)
        delta = np.array([1.0, 0.5j, -0.3 + 0.2j])
        a = mc.exact_lambda2(delta, ch, det)
        b = mc.exact_lambda2(delta[[2, 0, 1]], ch, det)
        assert a == pytest.approx(b, abs=1e-12)


class TestHeterodyne:
    def test_huge_threshold_never_rejects(self):
        spec = mc.HeterodyneSpec(noise_variance=1.0, threshold=1e9)
        out = mc.heterodyne_simulate(2, 2.0, spec, 5000, 0)
        assert out["lambda1"].point == 0.0

    def test_lambda1_matches_chi_square(self):
        k = 2
        spec = mc.HeterodyneSpec(noise_variance=1.0, threshold=4.0)
        out = mc.heterodyne_simulate(k, 2.0, spec, 200_000, 8)
        p = chi2.sf(2 * spec.threshold / spec.noise_variance, 2 * k)
        assert exact_binomial_ok(out["lambda1"].successes, out["lambda1"].trials, p)

    def test_lambda2_matches_noncentral_chi_square(self):
        k, energy = 2, 4.5  # worst-pair distance 1.5 sqrt(2)
        spec = mc.HeterodyneSpec(noise_variance=1.0, threshold=4.0)
        out = mc.heterodyne_simulate(k, energy, spec, 200_000, 8)
        nc = 2 * energy / spec.noise_variance
        p = ncx2.cdf(2 * spec.threshold / spec.noise_variance, 2 * k, nc)
        assert exact_binomial_ok(out["lambda2"].successes, out["lambda2"].trials, p)

    def test_analytic_trivial_cases(self):
        spec = mc.HeterodyneSpec(noise_variance=1.0, threshold=0.0)
        assert mc.heterodyne_analytic(3, spec, 1.0)["lambda1"] == 1.0
        spec = mc.HeterodyneSpec(noise_variance=1.0, threshold=5.0)
        out = mc.heterodyne_analytic(3, spec, 0.0)
        assert out["lambda2"] == pytest.approx(1 - out["lambda1"], abs=1e-10)

    @pytest.mark.parametrize("k,tau,dist,sigma2", [(1, 2.0, 1.5, 1.0), (4, 10.0, 2.0, 1.5)])
    def test_analytic_matches_scipy(self, k, tau, dist, sigma2):
        spec = mc.HeterodyneSpec(noise_variance=sigma2, threshold=tau)
        out = mc.heterodyne_analytic(k, spec, dist)
        x = 2 * tau / sigma2
        assert out["lambda1"] == pytest.approx(chi2.sf(x, 2 * k), abs=1e-10)
        assert out["lambda2"] == pytest.approx(
            ncx2.cdf(x, 2 * k, 2 * dist**2 / sigma2), abs=1e-9
        )

    def test_analytic_lambda1_far_tail(self):
        # tau = k sigma^2 (1 + delta), the CLI default, at k = 256
        k, sigma2 = 256, 2.0
        spec = mc.HeterodyneSpec(noise_variance=sigma2, threshold=k * sigma2 * 2)
        want = float(mp.gammainc(k, spec.threshold / sigma2, mp.inf, regularized=True))
        got = mc.heterodyne_analytic(k, spec, 1.0)["lambda1"]
        assert got == pytest.approx(want, rel=1e-10, abs=0)
        assert got == pytest.approx(1.895e-36, rel=1e-3, abs=0)

    def test_analytic_lambda2_huge_noncentrality(self):
        # noncentrality 2 d^2 / sigma^2 = 1e6
        k, sigma2 = 4, 2.0
        spec = mc.HeterodyneSpec(noise_variance=sigma2, threshold=1e6)
        out = mc.heterodyne_analytic(k, spec, 1e3)
        x = 2 * spec.threshold / sigma2
        assert out["lambda2"] == pytest.approx(ncx2.cdf(x, 2 * k, 1e6), rel=1e-10)
        assert 0.4 < out["lambda2"] < 0.6

    def test_analytic_lambda2_beyond_scipy_range(self):
        # noncentrality 5e37: chndtr is NaN, and the bound
        # erfc((distance - sqrt(tau)) / sigma) / 2 is 0.0 in float
        spec = mc.HeterodyneSpec(noise_variance=1.0, threshold=4.0)
        assert math.isnan(chndtr(8.0, 2, 5e37))
        assert mc.heterodyne_analytic(1, spec, 5e18)["lambda2"] == 0.0

    def test_analytic_nan_with_a_bound_above_zero_raises(self):
        # tau = distance^2: chndtr is NaN at noncentrality 2e16, and lambda2 is near 1/2
        distance = 1e8
        spec = mc.HeterodyneSpec(noise_variance=1.0, threshold=distance**2)
        assert math.isnan(chndtr(2e16, 2, 2e16))
        with pytest.raises(ValueError, match="out of scipy's range"):
            mc.heterodyne_analytic(1, spec, distance)

    def test_shot_noise_floor_enforced(self):
        with pytest.raises(ValueError):
            mc.HeterodyneSpec(noise_variance=0.5, threshold=1.0)

    def test_make_sets_the_thermal_variance_and_radius(self):
        spec = mc.HeterodyneSpec.make(0.5, 4, ChannelModel(1.5))
        assert spec == mc.HeterodyneSpec(noise_variance=2.5, threshold=4 * 2.5 * 1.5)
        assert mc.HeterodyneSpec.make(-1.0, 4, ChannelModel(1.5)).threshold == 0.0


SPEC = mc.HeterodyneSpec(noise_variance=2.0, threshold=4.0)


@pytest.mark.parametrize("name,call,value", [
    *[pytest.param(name, call, value, id=f"{label}-{value}") for name, call, label in [
        ("energy", lambda e: mc.heterodyne_simulate(2, e, SPEC, 1000, 1), "heterodyne_simulate"),
        ("distance", lambda d: mc.heterodyne_analytic(2, SPEC, d), "heterodyne_analytic"),
        ("energy", lambda e: mc.estimate_errors(
            e, ChannelModel(1.0), DetectorSpec.make(1.0, 2, ChannelModel(1.0)), 1000, 1),
         "estimate_errors"),
        ("threshold", lambda t: mc.HeterodyneSpec(noise_variance=2.0, threshold=t),
         "heterodyne_spec"),
    ] for value in (math.nan, -1.0, math.inf)],
    pytest.param("trials", lambda n: mc.heterodyne_simulate(2, 1.0, SPEC, n, 1), 0,
                 id="trials-0"),
    pytest.param("k must be", lambda k: mc.heterodyne_analytic(k, SPEC, 1.0), 0,
                 id="heterodyne_analytic_k-0"),
])
def test_monte_carlo_rejects_bad_energy(name, call, value):
    with pytest.raises(ValueError, match=name):
        call(value)


class TestPoissonGammaDuality:
    """A Poisson(I) count is at most t exactly when the (t+1)-th arrival of a
    unit-rate process comes after I: sum_{j<=t} Poi(j; I) = Q(t+1, I), the
    regularized upper incomplete gamma.  Checked in mpmath at 40 digits with
    the Poisson side summed term by term; scipy's pdtr would check nothing,
    since it is computed from gammaincc."""

    @pytest.mark.parametrize("t", [0, 1, 7, 100, 1000, 10_000])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5])
    def test_partial_sum_is_upper_gamma(self, t, ratio):
        with mp.workdps(40):
            lam = mp.mpf(ratio) * (t + 1)
            term, total = mp.exp(-lam), mp.mpf(0)
            for j in range(t + 1):
                total += term
                term *= lam / (j + 1)
            want = mp.gammainc(t + 1, lam, mp.inf, regularized=True)
            assert abs(total - want) <= mp.mpf(10) ** -35 * want


@pytest.mark.parametrize("k,energy,noise,delta", [
    (1, 2.0, 1.0, 1.0), (3, 2.0, 0.0, 1.0), (4, 4.0, 0.5, 0.5), (64, 64.0, 1.0, 0.25)])
def test_estimate_errors_matches_reference_sampler(k, energy, noise, delta):
    # two samples of 2e5 trials: the kernel's arrival times against Poisson
    # counts of the P-function intensity, within 4 standard errors of their
    # difference
    ch, trials = ChannelModel(noise), 200_000
    det = DetectorSpec.make(delta, k, ch)
    est = mc.estimate_errors(energy, ch, det, trials, 7)
    rng = np.random.default_rng(7)
    reference = (np.count_nonzero(reference_counts(k, 0.0, ch, rng, trials) > det.threshold),
                 np.count_nonzero(reference_counts(k, energy, ch, rng, trials) <= det.threshold))
    for got, ref in zip((est["lambda1"].successes, est["lambda2"].successes), reference):
        pooled = (got + ref) / (2 * trials)
        assert abs(got - ref) <= 4 * math.sqrt(2 * trials * pooled * (1 - pooled)), (got, ref)


class TestWilsonInterval:
    def test_z_is_scipys_quantile(self):
        # a literal, so that importing montecarlo loads no scipy; exactly
        # scipy's value, so that the Wilson columns stay byte for byte
        assert mc._WILSON_Z == float(ndtri(1 - (1 - 0.997) / 2))

    def test_contains_point(self):
        lo, hi = mc.wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_degenerate_counts(self):
        # center - half rounds above 0 at 871 of these n, center + half below
        # 1 at 6204 (from n = 19 on)
        for n in range(1, 20_001):
            lo, hi = mc.wilson_interval(0, n)
            assert lo == 0.0 and hi > 0, n
            lo, hi = mc.wilson_interval(n, n)
            assert hi == 1.0 and lo < 1, n

    @given(st.integers(1, 10**9).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
    def test_holds_point(self, counts):
        successes, trials = counts
        lo, hi = mc.wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0


class TestBlocks:
    """Each chunk draws in blocks of at most mc._BLOCK trials."""

    TRIALS, BLOCK = 20_000, 700  # chunks of 2500 trials, 4 blocks each

    def runs(self):
        ch = ChannelModel(1.0)
        sigs = np.array([[0, 0], [1.5, 1.5]], dtype=complex)  # ||Delta||^2 = 4.5
        det = DetectorSpec.make(1.0, 2, ch)
        spec = mc.HeterodyneSpec(noise_variance=2.0, threshold=6.0)
        het = mc.heterodyne_simulate(2, 4.5, spec, self.TRIALS, 3)
        worst = mc.estimate_errors(4.5, ch, det, self.TRIALS, 2)
        sampled = mc.estimate_errors(mc.sampled_pairs(sigs.view(float)), ch, det, self.TRIALS, 2)
        exact1 = mc.exact_lambda1(ch, det)
        exact2 = mc.exact_lambda2(sigs[1] - sigs[0], ch, det)
        return {
            "worst_pair1": (worst["lambda1"], exact1),
            "worst_pair2": (worst["lambda2"], exact2),
            "all_pairs1": (sampled["lambda1"], exact1),
            "all_pairs2": (sampled["lambda2"], exact2),
            # 2 ||.||^2 / noise_variance: chi-square with 4 degrees of freedom,
            # noncentral by 2 ||Delta||^2 / noise_variance = 4.5 for lambda2
            "heterodyne1": (het["lambda1"], chi2.sf(6.0, 4)),
            "heterodyne2": (het["lambda2"], ncx2.cdf(6.0, 4, 4.5)),
        }

    def test_blocked_runs_reproducible_and_correct(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK", self.BLOCK)
        first, again = self.runs(), self.runs()
        assert first == again
        for est, exact in first.values():
            assert abs(est.point - exact) <= 6 * math.sqrt(exact * (1 - exact) / est.trials)

    def test_chunk_in_one_block_draws_as_unblocked(self, monkeypatch):
        default = self.runs()
        monkeypatch.setattr(mc, "_BLOCK", self.TRIALS // mc.DEFAULT_CHUNKS)
        assert self.runs() == default

    def test_block_memory_does_not_grow_with_k(self, monkeypatch):
        # one full block per chunk at k = 64: 2^16 x 64 complex amplitudes
        # would be 64 MB.  With every chunk active, each worker thread holds
        # one block's arrays at a time.
        k = 64
        sigs = np.random.default_rng(0).normal(size=(20, k)) + 0j
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, k, ch)
        spec = mc.HeterodyneSpec(noise_variance=2.0, threshold=4.0 * k)
        for chunks in (1, mc.DEFAULT_CHUNKS):
            monkeypatch.setattr(mc, "DEFAULT_CHUNKS", chunks)
            trials = chunks * mc._BLOCK
            for run in (
                lambda: mc.estimate_errors(2.0 * k, ch, det, trials, 1),
                lambda: mc.estimate_errors(mc.sampled_pairs(sigs.view(float)), ch, det, trials, 1),
                lambda: mc.heterodyne_simulate(k, 2.0 * k, spec, trials, 1),
            ):
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 16 * 2**20 * min(mc._WORKERS, chunks)

    def test_pair_energies_gathered_in_slices(self, monkeypatch):
        # 7 entries per gather is 1 row of a k = 2 code per slice: the same
        # per-trial energies, so the same estimate
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, 2, ch)

        def run():
            return mc.estimate_errors(mc.sampled_pairs(FOUR_POINTS), ch, det, 5000, 4)

        default = run()
        monkeypatch.setattr(mc, "_GATHER", 7)
        assert run() == default


class TestWorkers:
    """The chunks run on up to mc._WORKERS threads; the thread count changes
    no result, also where some chunks have no trials."""

    @pytest.mark.parametrize("trials", [*range(1, mc.DEFAULT_CHUNKS), 20_001])
    def test_results_do_not_depend_on_worker_count(self, trials, monkeypatch):
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, 2, ch)
        spec = mc.HeterodyneSpec(noise_variance=2.0, threshold=6.0)

        def runs():
            return (mc.estimate_errors(1.0, ch, det, trials, 2),
                    mc.estimate_errors(mc.sampled_pairs(FOUR_POINTS), ch, det, trials, 3),
                    mc.heterodyne_simulate(2, 1.0, spec, trials, 4))

        monkeypatch.setattr(mc, "_WORKERS", 1)
        serial = runs()
        # a thread per chunk, switching as often as the interpreter can
        monkeypatch.setattr(mc, "_WORKERS", mc.DEFAULT_CHUNKS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = runs()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestManySeeds:
    """Mean z-score of 40 independent runs, each of 1e5 trials, against the
    exact value: about N(0, 1/40) if unbiased, so +-0.5 is about 3 s.e.
    A single fixed seed cannot show a bias of this size."""

    SEEDS, TRIALS = range(40), 100_000

    def mean_z(self, successes, p):
        sd = math.sqrt(self.TRIALS * p * (1 - p))
        return float(np.mean([(s - self.TRIALS * p) / sd for s in successes]))

    def test_lambda2_unbiased(self):
        # k = 4, N = delta = 1, ||Delta||^2 = 4
        ch = ChannelModel(1.0)
        det = DetectorSpec.make(1.0, 4, ch)
        p = mc.exact_lambda2(np.ones(4), ch, det)
        runs = [mc.estimate_errors(4.0, ch, det, self.TRIALS, s)["lambda2"] for s in self.SEEDS]
        assert abs(self.mean_z([r.successes for r in runs], p)) < 0.5

    @pytest.mark.parametrize("k", [1, 4, 1024, 4096])
    @pytest.mark.parametrize("noise", [0.0, 5e-324, 0.1, 1.0, 4.0])
    def test_estimate_errors_unbiased(self, k, noise):
        # the threshold k(N + delta) about a standard deviation above the
        # zero-energy count's mean kN, and the count's mean kN + E at energy
        # E about one above the threshold, so that neither rate is small
        ch = ChannelModel(noise)
        var = noise * (noise + 1)
        delta = math.sqrt((var + 1) / k)
        energy = k * delta + math.sqrt(k * (delta + var))
        det = DetectorSpec.make(delta, k, ch)
        exact = (mc.exact_lambda1(ch, det), math.exp(
            ps.log_tail_probability(k, energy, ch, det.threshold, upper=False)))
        runs = [mc.estimate_errors(energy, ch, det, self.TRIALS, s) for s in self.SEEDS]
        for name, p in zip(("lambda1", "lambda2"), exact):
            successes = [r[name].successes for r in runs]
            if p == 0:  # N = 0, and N = 5e-324, where v = N/2 rounds to 0
                assert not any(successes)
            else:
                assert abs(self.mean_z(successes, p)) < 0.5, name

    def test_heterodyne_lambda2_unbiased(self):
        # the same pair at per-mode variance N + 1 = 2 and the CLI's default
        # threshold k sigma^2 (1 + delta) = 16
        spec = mc.HeterodyneSpec(noise_variance=2.0, threshold=16.0)
        p = float(chndtr(2 * 16.0 / 2.0, 8, 2 * 4.0 / 2.0))
        runs = [mc.heterodyne_simulate(4, 4.0, spec, self.TRIALS, s) for s in self.SEEDS]
        assert abs(self.mean_z([r["lambda2"].successes for r in runs], p)) < 0.5


class TestGoldenStreams:
    """Success counts at fixed seeds, recorded when one gamma arrival time per
    trial replaced the Poisson count: the streams are part of the
    determinism contract, so a change to any of these integers must be
    announced."""

    TRIALS = 20_000
    # N: (lambda1, worst pair, sampled pairs, heterodyne lambda1, heterodyne lambda2)
    GOLDEN = {0.0: (0, 18458, 7617, 341, 18324), 1.0: (2202, 15298, 9669, 3956, 13752)}

    @pytest.mark.parametrize("noise", sorted(GOLDEN))
    def test_successes(self, noise):
        ch = ChannelModel(noise)
        det = DetectorSpec.make(1.0, 2, ch)
        spec = mc.HeterodyneSpec(noise_variance=noise + 1, threshold=6.0)
        worst = 1.0  # ||Delta||^2 of FOUR_POINTS' closest pair
        het = mc.heterodyne_simulate(2, worst, spec, self.TRIALS, 5)
        pairs = mc.sampled_pairs(FOUR_POINTS)
        at_worst = mc.estimate_errors(worst, ch, det, self.TRIALS, 2)
        got = (at_worst["lambda1"].successes, at_worst["lambda2"].successes,
               mc.estimate_errors(pairs, ch, det, self.TRIALS, 3)["lambda2"].successes,
               het["lambda1"].successes, het["lambda2"].successes)
        assert got == self.GOLDEN[noise]
