import math

import mpmath as mp
import numpy as np
import pytest

from bosonid import photonstats as ps
from bosonid import scheme
from bosonid.photonstats import ChannelModel


class TestBuildCode:
    def test_precondition_boundary(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            scheme.build_code(1, 4.0, 1.01, rng)
        # rho = 1.0 sits exactly on the boundary 2 rho = sqrt(kE)
        scheme.build_code(1, 4.0, 1.0, rng, rejection_budget=1000)

    def test_cardinality_guarantee(self):
        # volumetric bound (kE / 4 rho^2)^k = 4 at k = 1, E = 4, rho = 0.5
        for seed in range(10):
            code = scheme.build_code(
                1, 4.0, 0.5, np.random.default_rng(seed), rejection_budget=50_000
            )
            assert len(code) >= 4

    def test_invariants(self):
        code = scheme.build_code(3, 2.0, 0.6, np.random.default_rng(5), rejection_budget=20_000)
        assert code.min_distance >= 2 * 0.6
        assert np.all(code.energies() <= 3 * 2.0)
        pts = np.column_stack([code.signatures.real, code.signatures.imag])
        assert code.signatures.shape[1] == 3
        assert pts.shape[1] == 6


class TestSignatureSet:
    def test_single_signature_min_distance_is_inf(self):
        code = scheme.SignatureSet(k=2, energy_budget=4.0, rho=1.0,
                                   signatures=np.zeros((1, 2), dtype=complex))
        assert code.min_distance == math.inf

    def test_rejects_norms_beyond_screen_range(self):
        # 30 Gaussian points of scale 1e154 in R^3: squared norms near 1e308,
        # where the closest-pair screen overflows
        pts = np.random.default_rng(0).normal(scale=1e154, size=(30, 3))
        with pytest.raises(ValueError, match="at most"):
            scheme.SignatureSet(k=3, energy_budget=1.0, rho=1.0, signatures=pts + 0j)

    def test_min_distance_is_closest_pair_length(self):
        code = scheme.SignatureSet(k=1, energy_budget=4.0, rho=0.5,
                                   signatures=np.array([[0], [3j], [1 + 1j]]))
        assert code.min_distance == pytest.approx(math.sqrt(2))
        assert code.closest_pair[1:] == (0, 2)


class TestAchievableUsersLog:
    def test_closed_form_value(self):
        assert scheme.achievable_users_log(4, 4.0, 1.0) == pytest.approx(4 * math.log(4))

    def test_boundary_is_zero(self):
        k, energy = 3, 2.0
        rho = math.sqrt(k * energy) / 2
        assert scheme.achievable_users_log(k, energy, rho) == pytest.approx(0.0)

    def test_small_example(self):
        assert scheme.achievable_users_log(2, 1.0, 0.25) == pytest.approx(2 * math.log(8))

    def test_precondition(self):
        with pytest.raises(ValueError):
            scheme.achievable_users_log(1, 1.0, 0.51)

    @pytest.mark.parametrize("energy,rho", [
        (math.nan, 1.0), (math.inf, 1.0), (4.0, math.nan), (4.0, math.inf), (4.0, 0.0),
        (1e308, 1.0)])  # 8 * 1e308 overflows
    def test_rejects_non_finite(self, energy, rho):
        with pytest.raises(ValueError):
            scheme.achievable_users_log(8, energy, rho)

    def test_tiny_rho_stays_finite(self):
        # rho^2 underflows to 0 here; the log is still k ln(kE / (4 rho^2))
        got = scheme.achievable_users_log(2, 4.0, 1e-200)
        assert got == pytest.approx(2 * (math.log(8) - 2 * math.log(2e-200)), rel=1e-15)


class TestAnalyticErrorBounds:
    def test_values(self):
        # N = delta = 1: r = 2^{-1/2}, Theta = (1 - r)/(2 - r), and the
        # Chernoff bound adds k ln(2/(2 - r)) to -||Delta||^2 Theta
        ch = ChannelModel(1.0)
        lambda1_log, lambda2_log = ps.analytic_error_bounds(10, 1.0, 4.0, ch)
        assert lambda1_log == pytest.approx(-10 * math.log(32 / 27))
        assert lambda2_log == 0.0  # -0.906 + 4.362: vacuous
        _, lambda2_log = ps.analytic_error_bounds(1, 1.0, 16.0, ch)
        theta = (1 - 2**-0.5) / (2 - 2**-0.5)
        assert lambda2_log == pytest.approx(-16 * theta + math.log(2 / (2 - 2**-0.5)))
        assert lambda2_log < -3

    @pytest.mark.parametrize("noise,rho2", [(1e6, 1e8), (1e300, 1e304)])
    def test_lambda2_matches_mpmath_at_huge_noise(self, noise, rho2):
        # r = (N+1)^{-1/(N+delta)} rounds to 1 in floats; 350 digits resolve 1 - r
        k, delta = 8, 1.0
        with mp.workdps(350):
            N = mp.mpf(noise)
            r = (N + 1) ** (-1 / (N + delta))
            want = float(-4 * rho2 * (1 - r) / (N + 1 - N * r)
                         + k * mp.log((N + 1) / (N + 1 - N * r)))
        _, got = ps.analytic_error_bounds(k, delta, 4 * rho2, ChannelModel(noise))
        assert want < 0
        assert got == pytest.approx(want, rel=1e-12)

    def test_lambda2_bounds_exact_tail_on_grid(self):
        # -||Delta||^2 Theta alone is below the exact log tail at 356 of these 672 points
        above = []
        for k in (1, 2, 4, 16, 64, 256, 1024):
            for noise in (0.1, 0.5, 1.0, 4.0):
                ch = ChannelModel(noise)
                for delta in (0.1, 0.5, 1.0, 2.0):
                    for energy in (0.5, 2.0, 8.0, 32.0, 128.0, 1000.0):
                        _, bound = ps.analytic_error_bounds(k, delta, energy, ch)
                        exact = ps.log_tail_probability(
                            k, energy, ch, k * (noise + delta), upper=False)
                        if exact > bound:
                            above.append((k, noise, delta, energy, exact, bound))
        assert not above

    def test_zero_rho_is_vacuous(self):
        _, lambda2_log = ps.analytic_error_bounds(4, 1.0, 0.0, ChannelModel(1.0))
        assert lambda2_log == 0.0

    @pytest.mark.parametrize("noise", [0.0, 1.0])
    @pytest.mark.parametrize("delta,pair_energy,name", [
        (0.0, 4.0, "delta"), (math.nan, 4.0, "delta"), (1e20, 4.0, "delta"),
        (1.0, -1.0, "pair energy"), (1.0, math.inf, "pair energy"),
        (1.0, math.nan, "pair energy")])
    def test_rejects_out_of_range(self, noise, delta, pair_energy, name):
        with pytest.raises(ValueError, match=name):
            ps.analytic_error_bounds(4, delta, pair_energy, ChannelModel(noise))

    def test_lambda1_linear_in_k(self):
        ch = ChannelModel(1.0)
        vals = [ps.analytic_error_bounds(k, 1.0, 4.0, ch)[0] for k in (1, 2, 4, 8)]
        assert vals[1] == pytest.approx(2 * vals[0])
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestConverseUsersLog:
    def test_closed_form_value(self):
        got = scheme.converse_users_log(1, 1.0, 1 / 8, ChannelModel(0.0))
        assert got == pytest.approx(2 * math.log(1 + 4 / math.sqrt(math.log(2))))

    def test_monotone_in_delta_k(self):
        ch = ChannelModel(1.0)
        vals = [scheme.converse_users_log(4, 4.0, dk, ch) for dk in (0.2, 0.1, 0.01, 1e-4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("energy", [math.nan, math.inf, 0.0, 1e308])
    def test_rejects_non_finite_energy(self, energy):  # 4 * 1e308 overflows
        with pytest.raises(ValueError):
            scheme.converse_users_log(4, energy, 0.1, ChannelModel(1.0))

    def test_rejects_out_of_range(self):
        ch = ChannelModel(1.0)
        for dk in (0.0, 0.25, 0.3, 0.5):
            with pytest.raises(ValueError):
                scheme.converse_users_log(4, 4.0, dk, ch)

    def test_dominates_achievable(self):
        ch = ChannelModel(1.0)
        gamma = 1.1035533905932737  # 1/(4 Theta) at N = delta = 1
        for k in (8, 32, 128, 512):
            rho = math.sqrt(gamma * math.log(k))
            lower = scheme.achievable_users_log(k, 4.0, rho)
            upper = scheme.converse_users_log(k, 4.0, 1.0 / k, ch)
            assert lower <= upper


class TestScalingChoice:
    """The rho^2 = gamma ln k design, through `achievable_users_log`."""

    @staticmethod
    def scaling_log(k, gamma, energy):
        return k * math.log(k) - k * math.log(math.log(k)) + k * math.log(energy / (4 * gamma))

    def test_example_values(self):
        # E = 4 gamma: log M = k ln k - k ln ln k
        rho = math.sqrt(0.5 * math.log(100))
        assert scheme.achievable_users_log(100, 2.0, rho) == pytest.approx(
            100 * math.log(100) - 100 * math.log(math.log(100)), rel=1e-12)

    def test_consistency_with_achievable(self):
        for k in (8, 64, 512):
            rho = math.sqrt(0.8 * math.log(k))
            assert scheme.achievable_users_log(k, 4.0, rho) == pytest.approx(
                self.scaling_log(k, 0.8, 4.0), rel=1e-12)

    def test_preconditions(self):
        # rho^2 = gamma ln k exceeds kE/4
        with pytest.raises(ValueError):
            scheme.achievable_users_log(3, 0.1, math.sqrt(100.0 * math.log(3)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        code = scheme.build_code(2, 4.0, 1.0, np.random.default_rng(9), rejection_budget=10_000)
        path = tmp_path / "code.txt"
        scheme.save_signature_set(path, code)
        loaded = scheme.load_signature_set(path)
        assert loaded.k == code.k
        assert loaded.energy_budget == code.energy_budget
        assert loaded.rho == code.rho
        assert np.allclose(loaded.signatures, code.signatures)
        assert loaded.min_distance == pytest.approx(code.min_distance, rel=1e-12)

    def test_one_header_line(self, tmp_path):
        code = scheme.build_code(2, 4.0, 1.0, np.random.default_rng(9), rejection_budget=10_000)
        path = tmp_path / "code.txt"
        scheme.save_signature_set(path, code)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# signature-set k=2 ")
        assert sum(line.startswith("#") for line in lines) == 1
        assert len(lines) == 1 + len(code)

    def test_loads_file_with_point_set_header(self, tmp_path):
        # files written before the signature file lost its second header
        code = scheme.build_code(2, 4.0, 1.0, np.random.default_rng(9), rejection_budget=10_000)
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        scheme.save_signature_set(new, code)
        header, *rows = new.read_text().splitlines(keepends=True)
        old.write_text(header + "# dim=4 radius=2.82842712475 separation=2\n" + "".join(rows))
        a, b = scheme.load_signature_set(new), scheme.load_signature_set(old)
        assert (a.k, a.energy_budget, a.rho, a.min_distance) == (
            b.k, b.energy_budget, b.rho, b.min_distance)
        assert np.array_equal(a.signatures, b.signatures)
        assert len(b) == len(code)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejects_non_finite_signature(self, tmp_path, value):
        path = tmp_path / "code.txt"
        path.write_text("# signature-set k=1 energy_budget=4 rho=1 M=2 min_distance=2\n"
                        f"0 0\n{value} 1\n")
        with pytest.raises(ValueError, match="finite"):
            scheme.load_signature_set(path)

    @pytest.mark.parametrize("key", ["k", "energy_budget", "rho"])
    def test_rejects_header_without_field(self, tmp_path, key):
        fields = {"k": "1", "energy_budget": "4", "rho": "1"}
        del fields[key]
        path = tmp_path / "code.txt"
        path.write_text("# signature-set " + " ".join(f"{f}={v}" for f, v in fields.items())
                        + "\n0 0\n")
        with pytest.raises(ValueError, match=f"lacks {key}="):
            scheme.load_signature_set(path)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("# signature-set k=1 energy_budget=4 rho=1\n0 0\n1 2 3\n")
        with pytest.raises(ValueError, match="number of columns changed") as info:
            scheme.load_signature_set(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("rows", ["0 0 0\n1 1 1\n", "0\n1\n"], ids=["three", "one"])
    def test_rejects_rows_of_wrong_width(self, tmp_path, rows):
        # two rows of 3 values hold 6 = 3 * 2k numbers: the width is still wrong
        path = tmp_path / "code.txt"
        path.write_text(f"# signature-set k=1 energy_budget=4 rho=1\n{rows}")
        width = len(rows.split("\n")[0].split())
        with pytest.raises(ValueError, match=f"row width {width} != 2k = 2"):
            scheme.load_signature_set(path)

    def test_save_of_load_is_byte_identical(self, tmp_path):
        # a file with the older "# dim=.." line comes back without that line only
        code = scheme.build_code(3, 2.0, 0.6, np.random.default_rng(5), rejection_budget=5000)
        new, old, again = tmp_path / "new.txt", tmp_path / "old.txt", tmp_path / "again.txt"
        scheme.save_signature_set(new, code)
        header, *rows = new.read_text().splitlines(keepends=True)
        old.write_text(header + "# dim=6 radius=2.44948974278 separation=1.2\n" + "".join(rows))
        for path in (new, old):
            scheme.save_signature_set(again, scheme.load_signature_set(path))
            assert again.read_bytes() == new.read_bytes()

    def test_header_without_rows_is_empty_code(self, tmp_path, recwarn):
        path = tmp_path / "code.txt"
        path.write_text("# signature-set k=2 energy_budget=4 rho=1 M=0 min_distance=inf\n")
        code = scheme.load_signature_set(path)
        assert code.signatures.shape == (0, 2) and code.signatures.dtype == complex
        assert len(recwarn) == 0

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        path, again = tmp_path / "code.txt", tmp_path / "again.txt"
        path.write_text("# signature-set k=1 energy_budget=4 rho=1 M=2 min_distance=2\n"
                        "-0 -0\n2 0\n")
        code = scheme.load_signature_set(path)
        assert math.copysign(1, code.signatures[0, 0].real) == -1
        assert math.copysign(1, code.signatures[0, 0].imag) == -1
        scheme.save_signature_set(again, code)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("header,rows,message", [
        ("k=1 energy_budget=4 rho=1 foo", "0 0\n", "header token 'foo' is not key=value"),
        ("k=abc energy_budget=4 rho=1", "0 0\n", "k=abc is not an integer"),
        ("k=1.5 energy_budget=4 rho=1", "0 0\n", "k=1.5 is not an integer"),
        ("k=0 energy_budget=4 rho=1", "", "k=0 must be >= 1"),
        ("k=1 energy_budget=four rho=1", "0 0\n", "energy_budget=four is not a number"),
        ("k=1 energy_budget=nan rho=1", "0 0\n", "energy_budget=nan must be finite and > 0"),
        ("k=1 energy_budget=0 rho=1", "0 0\n", "energy_budget=0.0 must be finite and > 0"),
        ("k=1 energy_budget=4 rho=-1", "0 0\n", "rho=-1.0 must be finite and > 0"),
        ("k=1 energy_budget=4 rho=inf", "0 0\n", "rho=inf must be finite and > 0"),
        ("k=1 energy_budget=4 rho=1 M=two", "0 0\n", "M=two is not an integer"),
        ("k=1 energy_budget=4 rho=1 M=7", "0 0\n3 0\n", "M=7 but the file has 2 rows"),
        ("k=1 energy_budget=4 rho=1", "0 0\n3 0\n", "a row has energy 9 > k E = 4"),
    ], ids=["token_without_eq", "k_word", "k_fraction", "k_zero", "energy_word", "energy_nan",
            "energy_zero", "rho_negative", "rho_inf", "m_word", "m_wrong", "row_above_kE"])
    def test_rejects_malformed_header(self, tmp_path, header, rows, message):
        path = tmp_path / "code.txt"
        path.write_text(f"# signature-set {header}\n{rows}")
        with pytest.raises(ValueError) as info:
            scheme.load_signature_set(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    @pytest.mark.parametrize("edge", ["2", "2.000000000002"])
    def test_loads_rows_on_the_energy_sphere(self, tmp_path, edge):
        # energy k E = 4, and 4 (1 + 2e-12): above k E by rounding only
        path = tmp_path / "code.txt"
        path.write_text(f"# signature-set k=1 energy_budget=4 rho=1 M=2\n0 0\n{edge} 0\n")
        assert len(scheme.load_signature_set(path)) == 2

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a signature file\n")
        with pytest.raises(ValueError):
            scheme.load_signature_set(path)
