import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import pdtrc

from bosonid import fockspace as fs
from bosonid import photonstats as ps
from bosonid.photonstats import ChannelModel

amplitudes = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


class TestThermalDensity:
    # the thermal state is the displaced one at alpha = 0, where D(0) = I exactly
    def test_vacuum(self):
        mat = fs.displaced_thermal_density(0.0, ChannelModel(0.0), 4)
        assert np.allclose(mat, np.diag([1, 0, 0, 0]))

    def test_geometric_entries(self):
        mat = fs.displaced_thermal_density(0.0, ChannelModel(1.0), 2)
        assert np.allclose(np.diag(mat).real, [0.5, 0.25])

    def test_trace_at_large_cutoff(self):
        mat = fs.displaced_thermal_density(0.0, ChannelModel(1.0), 60)
        assert np.trace(mat).real >= 1 - 1e-18


class TestDisplacementMatrix:
    def test_zero_displacement_is_identity(self, monkeypatch):
        # D(0) = I is returned as is, so the thermal state needs no Laguerre value either
        def refuse(*args):
            raise AssertionError("eval_genlaguerre called at alpha = 0")

        monkeypatch.setattr("scipy.special.eval_genlaguerre", refuse)
        for cutoff in (1, 12, 60):
            assert np.array_equal(fs.displacement_matrix(0, cutoff), np.eye(cutoff))
            n = np.arange(cutoff)
            for noise in (0.0, 1.0):  # exact in floats: 0^0 = 1, and powers of 1/2
                mat = fs.displaced_thermal_density(0.0, ChannelModel(noise), cutoff)
                assert np.array_equal(mat, np.diag(noise**n / (noise + 1) ** (n + 1)))

    def test_tiny_amplitude_is_not_zero(self):
        # |alpha|^2 = 1e-340 underflows to 0.0, but D(alpha) is not I: <1|D|0> = alpha
        element = fs.displacement_matrix(1e-170, 5)[1, 0]
        assert abs(element - 1e-170) <= 1e-12 * 1e-170

    def test_column_zero_is_coherent_state(self):
        for alpha, cutoff in ((1.0, 40), (3.0, 700)):
            mat = fs.displacement_matrix(alpha, cutoff)
            expected = fs.coherent_state_vector(alpha, cutoff)
            assert np.max(np.abs(mat[:, 0] - expected)) < 1e-12

    def test_large_cutoff_stays_finite(self):
        # |alpha|^699 = 3^699 exceeds the largest double; every warning fails
        # a test, so an overflow before the factorials scale it would too
        mat = fs.displacement_matrix(3.0, 700)
        assert np.all(np.isfinite(mat))
        prod = mat @ mat.conj().T
        assert np.max(np.abs(prod[:500, :500] - np.eye(500))) < 1e-11

    def test_inverse_product_on_interior_block(self):
        # truncation degrades the rows near the cutoff; the interior block
        # (cutoff minus a spreading margin) is clean
        alpha = 0.7 + 0.2j
        prod = (
            fs.displacement_matrix(alpha, 50)
            @ fs.displacement_matrix(-alpha, 50)
        )
        block = 30
        assert np.max(np.abs(prod[:block, :block] - np.eye(block))) < 1e-8

    def test_unitarity_within_deficit_margin(self):
        # the row-m spreading width grows like 2|alpha| sqrt(m), so the clean
        # block shrinks with the displacement magnitude
        for alpha, block in ((0.5, 40), (1.0 + 1.0j, 25), (2.0, 20)):
            mat = fs.displacement_matrix(alpha, 60)
            prod = mat @ mat.conj().T
            dev = np.max(np.abs(prod[:block, :block] - np.eye(block)))
            deficit = pdtrc(60 - 1, abs(alpha) ** 2)  # mass of D(alpha)|0> beyond the cutoff
            assert dev < max(10 * deficit, 1e-8)

    def test_rejects_oversized_amplitude(self):
        with pytest.raises(ValueError):
            fs.displacement_matrix(6.0, 20)


HALF = np.diag([0.5, 0.5]).astype(complex)


def displaced_thermal_at_n1(amplitude, cutoff):
    return fs.displaced_thermal_density(amplitude, ChannelModel(1.0), cutoff)


@pytest.mark.parametrize("call,args,match", [
    *[pytest.param(build, (amplitude, cutoff), None, id=f"{amplitude}-{cutoff}-{build.__name__}")
      # 1e200: |alpha|^2 beyond the largest float
      for amplitude, cutoff in [(math.nan, 10), (math.inf, 10), (complex(1.0, math.nan), 10),
                                (1.0, 0), (1.0, -3), (1e200, 10), (0.0, 0), (0.0, -3)]
      for build in (fs.coherent_state_vector, fs.displacement_matrix, displaced_thermal_at_n1)],
    # the numeric distances take density matrices of one cutoff
    pytest.param(fs.fidelity_numeric, (np.ones((2, 3)), HALF), "square", id="non_square"),
    pytest.param(fs.trace_distance_numeric, (HALF, np.array([[0.5, 0.5], [0, 0.5]])),
                 "Hermitian", id="non_hermitian"),
    pytest.param(fs.fidelity_numeric, (HALF, np.eye(3) / 3), "cutoff", id="cutoff_mismatch"),
    pytest.param(fs.fidelity_numeric, (HALF, np.diag([1.5, -0.5])), "not PSD",
                 id="sigma_not_psd"),
])
def test_fock_builders_reject_invalid_input(call, args, match):
    with pytest.raises(ValueError, match=match):
        call(*args)


class TestDisplacedThermal:
    def test_zero_amplitude_is_thermal(self):
        ch = ChannelModel(1.0)
        a = fs.displaced_thermal_density(0.0, ch, 40)
        b = np.diag(0.5 ** np.arange(1, 41))  # N^n / (N+1)^{n+1} at N = 1
        assert np.max(np.abs(a - b)) < 1e-14

    def test_zero_amplitude_vacuum_noise_is_vacuum_projector(self):
        for cutoff in (1, 4, 60):
            vacuum = np.zeros((cutoff, cutoff))
            vacuum[0, 0] = 1.0
            mat = fs.displaced_thermal_density(0.0, ChannelModel(0.0), cutoff)
            assert np.array_equal(mat, vacuum)

    def test_vacuum_noise_gives_coherent_projector(self):
        mat = fs.displaced_thermal_density(1.2, ChannelModel(0.0), 50)
        vec = fs.coherent_state_vector(1.2, 50)
        assert np.max(np.abs(mat - np.outer(vec, vec.conj()))) < 1e-8

    def test_diagonal_matches_pmf(self):
        ch = ChannelModel(0.5)
        mat = fs.displaced_thermal_density(1.0, ch, 60)
        cdf = np.exp([ps.log_tail_probability(1, 1.0, ch, n, upper=False) for n in range(31)])
        pmf = np.diff(cdf, prepend=0.0)
        assert np.max(np.abs(np.diag(mat).real[:31] - pmf)) < 1e-9


def log_zero_count(k, energy, channel):
    """ln P(S_k = 0) at total energy ``energy``: the production tail at t = 0."""
    return ps.log_tail_probability(k, energy, channel, 0, upper=False)


class TestOverlap:
    # <beta| S_N(alpha) |beta> is P(S_1 = 0) at energy |alpha - beta|^2
    def test_pure_self_overlap(self):
        assert math.exp(log_zero_count(1, 0.0, ChannelModel(0.0))) == 1.0

    def test_thermal_self_overlap(self):
        res = math.exp(log_zero_count(1, 0.0, ChannelModel(1.0)))
        assert res == pytest.approx(0.5)

    def test_matches_fock_numeric(self):
        ch = ChannelModel(1.0)
        alpha, beta = 0.5, 0.5 + math.sqrt(2)
        rho = fs.displaced_thermal_density(alpha, ch, 60)
        vec = fs.coherent_state_vector(beta, 60)
        numeric = float((vec.conj() @ rho @ vec).real)
        res = math.exp(log_zero_count(1, abs(alpha - beta) ** 2, ch))
        assert res == pytest.approx(0.5 * math.exp(-1))
        assert numeric == pytest.approx(res, abs=1e-8)

    @given(
        st.lists(amplitudes, min_size=1, max_size=4),
        st.floats(0.05, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_below_bound_with_exact_ratio(self, alphas, n_thermal):
        # ln P(S_k = 0) = -k ln(N+1) - ||alpha - beta||^2 / (N+1), ||alpha - beta||^2 = 0.09 k
        ch = ChannelModel(n_thermal)
        betas = [a + 0.3 for a in alphas]
        res = log_zero_count(len(alphas), sum(abs(a - b) ** 2 for a, b in zip(alphas, betas)), ch)
        log_bound = -0.09 * len(alphas) / (n_thermal + 1)
        assert res <= log_bound
        assert res == pytest.approx(log_bound - len(alphas) * math.log(n_thermal + 1), rel=1e-12)


class TestFidelity:
    def test_self_fidelity(self):
        rho = fs.displaced_thermal_density(0.8, ChannelModel(0.5), 60)
        f = fs.fidelity_numeric(rho, rho)
        deficit = 1 - np.trace(rho).real
        assert f == pytest.approx(1.0, abs=10 * max(deficit, 1e-12))

    def test_pure_state_overlap(self):
        vac = np.zeros((40, 40), dtype=complex)
        vac[0, 0] = 1.0
        vec = fs.coherent_state_vector(1.3, 40)
        coh = np.outer(vec, vec.conj())
        assert fs.fidelity_numeric(vac, coh) == pytest.approx(math.exp(-1.69), abs=1e-10)

    def test_displaced_thermal_closed_form(self):
        ch = ChannelModel(0.5)
        f = fs.fidelity_numeric(
            fs.displaced_thermal_density(0.0, ch, 60),
            fs.displaced_thermal_density(1.0, ch, 60),
        )
        assert f == pytest.approx(math.exp(-0.5), abs=1e-10)

    def test_symmetry_and_range(self):
        ch = ChannelModel(1.0)
        r1 = fs.displaced_thermal_density(0.3 + 0.4j, ch, 50)
        r2 = fs.displaced_thermal_density(-0.5, ch, 50)
        f12 = fs.fidelity_numeric(r1, r2)
        f21 = fs.fidelity_numeric(r2, r1)
        assert f12 == pytest.approx(f21, abs=1e-10)
        assert 0 <= f12 <= 1 + 1e-10

    def test_product_structure_two_modes(self):
        # F of a two-mode product equals the product of per-mode fidelities,
        # exp(-||alpha - beta||^2 / (2N+1)) at alpha = (0, 0), beta = (1, 1)
        ch = ChannelModel(1.0)
        closed = math.exp(-2 / 3)
        per_mode = fs.fidelity_numeric(
            fs.displaced_thermal_density(0.0, ch, 60),
            fs.displaced_thermal_density(1.0, ch, 60),
        )
        assert per_mode**2 == pytest.approx(closed, abs=1e-10)

    def test_rejects_non_psd(self):
        bad = np.diag([1.0, -0.5]).astype(complex)
        good = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            fs.fidelity_numeric(bad, good)


class TestFuchsVanDeGraaf:
    @pytest.mark.parametrize(
        "alpha,beta,n_thermal",
        [(0.0, 1.2, 1.0), (0.5j, -0.5, 0.3), (1.0, -1.0, 0.7), (0.2 + 0.3j, 1.5, 1.0)],
    )
    def test_chain(self, alpha, beta, n_thermal):
        ch = ChannelModel(n_thermal)
        r1 = fs.displaced_thermal_density(alpha, ch, 60)
        r2 = fs.displaced_thermal_density(beta, ch, 60)
        f = fs.fidelity_numeric(r1, r2)
        t = fs.trace_distance_numeric(r1, r2)
        assert (1 - math.sqrt(f)) ** 2 <= t**2 + 1e-6
        assert t**2 <= 1 - f + 1e-6
