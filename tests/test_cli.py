import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonid import cli, geometry, scheme


def run(argv):
    return cli.main(argv)


def mp_exact(k, noise, delta, energy):
    """(lambda1, lambda2) of the threshold detector in mpmath: with
    S = J + NB(k+J), J ~ Poisson(E/(N+1)), P(NB(k+j) <= t-j) is the binomial
    tail P(B >= k+j), B ~ Bin(t+k, 1/(N+1)), a finite sum.  For t < 40 or
    E/(N+1) < 1, where 40 Poisson terms cover the mass."""
    t = math.floor(k * (noise + delta))
    n = t + k
    with mp.workdps(40):
        p = 1 / (mp.mpf(noise) + 1)
        lam = mp.mpf(energy) * p
        below = [mp.mpf(0)]  # below[m] = P(B < m)
        for i in range(k + min(t, 40)):
            below.append(below[-1] + mp.binomial(n, i) * p**i * (1 - p) ** (n - i))
        lambda2 = mp.fsum(mp.exp(-lam) * lam**j / mp.factorial(j) * (1 - below[k + j])
                          for j in range(min(t, 40) + 1))
        return float(below[k]), float(lambda2)


def four_point_code(path):
    """k = 4 code whose closest pair, the first two, has ||Delta||^2 = 2."""
    sigs = np.array([[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]], dtype=complex)
    scheme.save_signature_set(path, scheme.SignatureSet(
        k=4, energy_budget=4.0, rho=math.sqrt(2) / 2, signatures=sigs))
    return path


def read_csv(path):
    meta, rows = {}, []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[2:].partition("=")
                meta[key] = val
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return meta, rows


class TestBounds:
    def test_converse_example_row(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run([
            "bounds", "--k", "1", "--energy", "1", "--noise", "0",
            "--delta-k", "0.125", "--rho", "0.5", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        expected = 2 * math.log(1 + 4 / math.sqrt(math.log(2)))
        assert float(rows[0]["logM_upper"]) == pytest.approx(expected, abs=1e-6)

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run([
            "bounds", "--k", "8,16,32", "--gamma", "1.1", "--energy", "4",
            "--noise", "1", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        assert [r["k"] for r in rows] == ["8", "16", "32"]
        assert all(float(r["logM_lower"]) <= float(r["logM_upper"]) for r in rows)

    def test_invalid_delta_k_rejected(self, tmp_path, capsys):
        code = run([
            "bounds", "--k", "4", "--rho", "1", "--delta-k", "0.3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "converse" in err and "1/4" in err

    def test_requires_rho_or_gamma(self, tmp_path):
        assert run(["bounds", "--k", "4", "--out", str(tmp_path / "x.csv")]) == 1
        assert run([
            "bounds", "--k", "4", "--rho", "1", "--gamma", "1",
            "--out", str(tmp_path / "x.csv"),
        ]) == 1

    def test_json_format(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run([
            "bounds", "--k", "8", "--rho", "1", "--format", "json", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["version"]
        assert doc["rows"][0]["k"] == 8

    def test_no_seed_in_artifacts(self, tmp_path):
        # bounds draws nothing at random, so it takes and prints no seed
        csv, js = tmp_path / "b.csv", tmp_path / "b.json"
        assert run(["bounds", "--k", "8", "--rho", "1", "--out", str(csv)]) == 0
        assert run(["bounds", "--k", "8", "--rho", "1", "--format", "json",
                    "--out", str(js)]) == 0
        meta, _ = read_csv(csv)
        assert set(meta) == {"config_hash"}
        assert set(json.loads(js.read_text())["meta"]) == {"version", "config_hash"}
        assert run(["bounds", "--k", "8", "--rho", "1", "--seed", "3"]) == cli.EXIT_VALIDATION

    def test_huge_noise_is_finite(self, tmp_path):
        # N + 1 - N r rounds to 0 at N = 1e300 unless r - 1 is evaluated with expm1
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--k", "8", "--rho", "1", "--noise", "1e300",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        # the exact tail is not taken at a threshold of 8e300 counts
        exact = rows[0].pop("lambda1_exact_log")
        assert math.isnan(float(exact))
        assert all(math.isfinite(float(v)) for v in rows[0].values())
        # the mean count kN + 4 rho^2 is below the threshold k(N + delta), where
        # no Chernoff bound on the lower tail is below 0
        assert float(rows[0]["lambda2_log"]) == 0.0

    def test_lambda1_exact_column(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--k", "8,64", "--rho", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        columns = list(rows[0])
        assert columns.index("lambda1_exact_log") == columns.index("lambda1_log") + 1
        for row in rows:
            exact = float(row["lambda1_exact_log"])
            assert exact == pytest.approx(math.log(mp_exact(int(row["k"]), 1.0, 1.0, 0)[0]),
                                          rel=1e-11)
            assert exact <= float(row["lambda1_log"])

    def test_lambda1_exact_vacuum(self, tmp_path):
        # at N = 0 the count is 0, never above the threshold
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--k", "8", "--rho", "1", "--noise", "0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["lambda1_exact_log"] == rows[0]["lambda1_log"] == "-inf"


class TestNegativeZero:
    @pytest.mark.parametrize("argv,column", [
        (["--noise", "0"], "lambda2_log"),
        (["--delta", "1e-300"], "lambda1_log"),
    ])
    def test_bounds_csv(self, tmp_path, argv, column):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--k", "8", "--rho", "1", *argv, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][column] == "0"
        assert "-0," not in out.read_text() and not out.read_text().endswith("-0\n")

    def test_bounds_json(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run(["bounds", "--k", "8", "--rho", "1", "--noise", "0", "--format", "json",
                    "--out", str(out)]) == 0
        value = json.loads(out.read_text())["rows"][0]["lambda2_log"]
        assert value == 0 and math.copysign(1, value) == 1

    def test_simulate_bound_log(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--k", "2", "--energy", "4", "--rho", "1", "--noise", "0",
                    "--trials", "100", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[1]["bound_log"] == "0"


class TestPack:
    def test_writes_loadable_code(self, tmp_path, capsys):
        out = tmp_path / "code.txt"
        assert run([
            "pack", "--k", "2", "--energy", "4", "--rho", "1",
            "--seed", "3", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("M=")
        code = scheme.load_signature_set(out)
        assert code.k == 2
        assert code.min_distance >= 2.0
        assert sum(line.startswith("#") for line in out.read_text().splitlines()) == 1

    def test_out_round_trips_byte_for_byte(self, tmp_path):
        out, again = tmp_path / "code.txt", tmp_path / "again.txt"
        assert run(["pack", "--k", "4", "--energy", "4", "--rho", "1.5", "--seed", "1",
                    "--out", str(out)]) == 0
        scheme.save_signature_set(again, scheme.load_signature_set(out))
        assert again.read_bytes() == out.read_bytes()

    def test_precondition_violation(self, tmp_path):
        assert run([
            "pack", "--k", "1", "--energy", "4", "--rho", "1.01",
            "--out", str(tmp_path / "x.txt"),
        ]) == cli.EXIT_VALIDATION


class TestSimulate:
    def test_estimates_inside_wilson_of_exact(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run([
            "simulate", "--k", "2", "--energy", "4", "--rho", "1",
            "--noise", "1", "--delta", "1", "--trials", "50000",
            "--seed", "4", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert float(row["wilson_low"]) <= float(row["exact"]) <= float(row["wilson_high"])

    def test_vacuum_channel_lambda1_zero(self, tmp_path):
        out = tmp_path / "sim0.csv"
        assert run([
            "simulate", "--k", "2", "--energy", "4", "--rho", "1",
            "--noise", "0", "--delta", "1", "--trials", "5000",
            "--seed", "4", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        lam1 = [r for r in rows if r["quantity"] == "lambda1"][0]
        assert float(lam1["point"]) == 0.0

    def test_code_file_input(self, tmp_path):
        code_path = tmp_path / "code.txt"
        run(["pack", "--k", "2", "--energy", "4", "--rho", "1", "--seed", "3",
             "--out", str(code_path)])
        out = tmp_path / "sim.csv"
        assert run([
            "simulate", "--code", str(code_path), "--noise", "1",
            "--trials", "2000", "--seed", "1", "--out", str(out),
        ]) == 0


    @pytest.mark.parametrize("noise", [0.0, 5e-324, 1e-300, 1e-12, 1e5, 3e6])
    def test_exact_columns(self, tmp_path, noise):
        # subnormal N once printed lambda2 = 1; N = 3e6 once hit a count limit
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--code", str(four_point_code(tmp_path / "code.txt")),
                    "--noise", repr(noise), "--trials", "1000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        got = [float(r["exact"]) for r in rows]
        assert got == pytest.approx(mp_exact(4, noise, 1.0, 2.0), rel=1e-11, abs=0)


class TestClosestPairScans:
    @staticmethod
    def count_scans(monkeypatch, argv):
        calls = []
        scan = geometry.closest_pair

        def counted(points):
            calls.append(len(points))
            return scan(points)

        monkeypatch.setattr(geometry, "closest_pair", counted)
        assert run(argv) == 0
        return len(calls)

    @pytest.mark.parametrize("command", ["simulate", "heterodyne"])
    def test_one_scan_per_code_command(self, tmp_path, monkeypatch, command):
        code_path = tmp_path / "code.txt"
        run(["pack", "--k", "2", "--energy", "4", "--rho", "1", "--seed", "3",
             "--out", str(code_path)])
        assert self.count_scans(monkeypatch, [
            command, "--code", str(code_path), "--trials", "2000", "--seed", "1",
            "--out", str(tmp_path / "out.csv"),
        ]) == 1

    @pytest.mark.parametrize("command", ["simulate", "heterodyne"])
    def test_one_scan_per_built_code(self, tmp_path, monkeypatch, command):
        assert self.count_scans(monkeypatch, [
            command, "--k", "2", "--energy", "4", "--rho", "1", "--trials", "2000",
            "--seed", "1", "--out", str(tmp_path / "out.csv"),
        ]) == 1


class TestFiniteInputs:
    BAD_FILES = {  # signature files the loader rejects
        "NO_K": "# signature-set energy_budget=4 rho=1\n0 0 2 0\n",
        "TOKEN_WITHOUT_EQ": "# signature-set k=1 energy_budget=4 rho=1 foo\n0 0\n",
        "K_NOT_INT": "# signature-set k=abc energy_budget=4 rho=1\n0 0\n",
        "K_ZERO": "# signature-set k=0 energy_budget=4 rho=1\n",
        "E_NAN": "# signature-set k=1 energy_budget=nan rho=1\n0 0\n1 0\n",
        "RHO_NEGATIVE": "# signature-set k=1 energy_budget=4 rho=-1\n0 0\n1 0\n",
        "M_WRONG": "# signature-set k=1 energy_budget=4 rho=1 M=7\n0 0\n1 0\n",
        "ROW_ABOVE_KE": "# signature-set k=1 energy_budget=4 rho=1 M=2\n0 0\n3 0\n",
        "ALL_OUT_OF_RANGE": "# signature-set k=1 energy_budget=nan rho=-1 M=7\n0 0\n3 0\n",
    }
    NAMED_FLAG = {  # command lines whose error names the flag at fault
        ("bounds", "--k", "1,8", "--gamma", "1.1"): "--gamma",  # rho = 0 at k = 1
        ("bounds", "--k", "0x10", "--rho", "1"): "--k",
        ("bounds", "--rho", "1"): "--delta-k",  # default --k 4: delta_k = 1/4
        ("bounds", "--k", "2,8", "--rho", "1"): "--delta-k",
        ("pack", "--k", "2", "--rho", "1", "--seed", "-1"): "--seed",
        ("simulate", "--code", "CODE", "--trials", "10", "--seed", "-1"): "--seed",
    }

    @pytest.mark.parametrize("argv", [
        ["bounds", "--k", "8", "--rho", "1", "--noise", "inf"],
        ["bounds", "--k", "8", "--rho", "1", "--delta", "nan"],
        ["simulate", "--code", "CODE", "--trials", "100", "--delta", "nan"],
        ["heterodyne", "--code", "CODE", "--trials", "100", "--noise", "inf"],
        ["bounds", "--k", "8", "--rho", "1", "--energy", "nan"],
        ["bounds", "--k", "8", "--rho", "1", "--energy", "inf"],
        ["bounds", "--k", "8", "--rho", "nan"],
        ["bounds", "--k", "8", "--gamma", "nan"],
        ["pack", "--k", "2", "--rho", "1", "--energy", "nan"],
        ["pack", "--k", "2", "--rho", "1", "--energy", "inf"],
        ["pack", "--k", "2", "--rho", "nan"],
        ["pack", "--k", "2"],
        ["heterodyne", "--trials", "10"],
        ["heterodyne", "--k", "2", "--rho", "1", "--trials", "10", "--noise", "-0.5"],
        ["simulate", "--code", "CODE", "--trials", "10", "--delta", "1e300"],
        ["bounds", "--k", "8", "--rho", "1", "--delta", "1e306"],
        ["pack", "--k", "1", "--energy", "1e308", "--rho", "1"],
        ["simulate", "--code", "MISSING", "--trials", "10"],
        ["simulate", "--code", "NO_K", "--trials", "10"],
        *[["simulate", "--code", name, "--trials", "10"] for name in (
            "TOKEN_WITHOUT_EQ", "K_NOT_INT", "K_ZERO", "E_NAN", "RHO_NEGATIVE", "M_WRONG",
            "ROW_ABOVE_KE", "ALL_OUT_OF_RANGE")],
        ["heterodyne", "--code", "K_ZERO", "--trials", "10"],
        ["simulate", "--code", "ONE_ROW", "--trials", "10"],
        ["heterodyne", "--code", "ONE_ROW", "--trials", "10"],
        ["bounds", "--k", "1,8", "--gamma", "1.1"],
        ["bounds", "--k", "0x10", "--rho", "1"],
        ["bounds", "--rho", "1"],
        ["bounds", "--k", "2,8", "--rho", "1"],
        ["pack", "--k", "2", "--rho", "1", "--seed", "-1"],
        ["simulate", "--code", "CODE", "--trials", "10", "--seed", "-1"],
        ["bounds", "--k", "8", "--rho", "1", "--energy", "1e308"],  # k E overflows
    ])
    def test_rejected_with_error_line(self, tmp_path, capsys, argv):
        named = self.NAMED_FLAG.get(tuple(argv))
        code = scheme.SignatureSet(k=2, energy_budget=4.0, rho=1.0,
                                   signatures=np.array([[0, 0], [2, 1j]], dtype=complex))
        scheme.save_signature_set(tmp_path / "code.txt", code)
        # a well-formed code of one signature: it has no closest pair
        scheme.save_signature_set(tmp_path / "one_row_code.txt", scheme.SignatureSet(
            k=2, energy_budget=4.0, rho=1.0, signatures=np.zeros((1, 2), dtype=complex)))
        for name, text in self.BAD_FILES.items():
            (tmp_path / f"{name.lower()}.txt").write_text(text)
        paths = {"CODE": "code.txt", "MISSING": "missing.txt", "ONE_ROW": "one_row_code.txt",
                 **{name: f"{name.lower()}.txt" for name in self.BAD_FILES}}
        argv = [str(tmp_path / paths[a]) if a in paths else a for a in argv]
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", str(out)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out.exists()
        bad = [a for a in argv if a.endswith(".txt") and not a.endswith("code.txt")]
        assert all(path in captured.err for path in bad)  # a bad file is named
        assert named is None or named in captured.err

    def test_unwritable_out_rejected_with_error_line(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "code.txt"
        assert run(["pack", "--k", "1", "--rho", "1", "--out", str(out)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_threshold_beyond_count_range(self, tmp_path):
        # k = 3, delta = 2e6: the detector threshold is above 2^22 counts
        code = scheme.SignatureSet(k=3, energy_budget=4.0, rho=1.0,
                                   signatures=np.array([[0, 0, 0], [2, 1j, 0]], dtype=complex))
        scheme.save_signature_set(tmp_path / "code.txt", code)
        out = tmp_path / "sim.csv"
        assert run([
            "simulate", "--code", str(tmp_path / "code.txt"), "--delta", "2e6",
            "--trials", "1000", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        assert [float(r["exact"]) for r in rows] == [0.0, 1.0]

    def test_threshold_beyond_float_counts(self, tmp_path, capsys):
        # k (N + delta) = 4e300: rejected before any sampling
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--code", str(four_point_code(tmp_path / "code.txt")),
                    "--noise", "1e300", "--trials", "1000", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "2^53" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestHeterodyne:
    def test_simulation_matches_analytic(self, tmp_path):
        out = tmp_path / "het.csv"
        assert run([
            "heterodyne", "--k", "2", "--energy", "4", "--rho", "1",
            "--noise", "0", "--trials", "100000", "--seed", "2", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert float(row["wilson_low"]) <= float(row["analytic"]) <= float(row["wilson_high"])


class TestColdStart:
    def test_import_leaves_out_scipy_spatial_and_linalg(self):
        # geometry needs numpy alone; scipy.special loads neither
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, bosonid.cli; "
                "print([m for m in ('scipy.spatial', 'scipy.linalg') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[]\n"


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "--bogus"],
        ["bounds", "--energy", "abc", "--rho", "1"],
        ["simulate", "--trials", "1.5"],
    ])
    def test_argparse_rejection_is_a_validation_error(self, capsys, argv):
        assert run(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ") and captured.out == ""

    def test_version_exits_0(self, capsys):
        assert run(["--version"]) == cli.EXIT_OK
        assert capsys.readouterr().out == f"bosonid {cli.__version__}\n"


class TestReproducibility:
    def test_bounds_byte_identical(self, tmp_path):
        args = ["bounds", "--k", "8,16", "--gamma", "1.1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_byte_identical(self, tmp_path):
        args = [
            "simulate", "--k", "2", "--energy", "4", "--rho", "1",
            "--trials", "5000", "--seed", "77",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_pack_byte_identical(self, tmp_path):
        args = ["pack", "--k", "3", "--energy", "2", "--rho", "0.6", "--seed", "5"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()



SPECIAL = [0.0, -1.0, math.inf, -math.inf, math.nan, 1e300, 1e308, -1e300, 5e-324]
VALUES = st.one_of(st.floats(-10, 10), st.sampled_from(SPECIAL))


def flag(name, value):
    # --name=value, so argparse takes "-inf" and "-1e+300" as values, not options
    return [f"--{name}={value!r}"]


@st.composite
def command_lines(draw):
    """argv of one of the four computing commands with fuzzed numeric flags;
    CODE stands for a two-point code file."""
    command = draw(st.sampled_from(["bounds", "pack", "simulate", "heterodyne"]))
    argv = [command]
    if command == "bounds":
        argv += ["--k", draw(st.sampled_from(["1", "3", "8", "8,64"]))]
        for name in ("energy", "noise", "delta", "delta-k"):
            if draw(st.booleans()):
                argv += flag(name, draw(VALUES))
        argv += flag(draw(st.sampled_from(["rho", "gamma"])), draw(VALUES))
    elif command == "pack":
        energy, rho = draw(VALUES), draw(VALUES)
        # k = 1 and, for positive finite values, sqrt(E) <= 4 rho: the disc of
        # radius sqrt(E) then holds at most ~25 points at separation 2 rho, so
        # no dense packing runs
        valid = 0 < energy < math.inf and 0 < rho < math.inf
        assume(not valid or math.sqrt(energy) <= 4 * rho)
        argv += ["--k", "1", *flag("energy", energy), *flag("rho", rho)]
    else:
        argv += ["--code", "CODE", "--seed", str(draw(st.integers(-2, 9))),
                 "--trials", str(draw(st.integers(1, 1000)))]
        for name in ["noise", "delta"] + (["tau"] if command == "heterodyne" else []):
            if draw(st.booleans()):
                argv += flag(name, draw(VALUES))
        if command == "simulate" and draw(st.booleans()):
            argv += ["--pair-strategy", "all_pairs_sampled"]
    return argv


def numeric_cells(argv, stdout):
    """(name, value) of every number a successful command printed.  The
    first-kind bound at N = 0, where Lambda diverges, and the exact first-kind
    log tail of `bounds` are checked here instead."""
    if argv[0] == "pack":
        printed = dict(line.split("=") for line in stdout.split())
        if printed["M"] == "1":  # a one-point code has no closest pair
            assert printed.pop("min_distance") == "inf"
        return [(key, float(v)) for key, v in printed.items()]
    noise = [float(a.split("=")[1]) for a in argv if a.startswith("--noise=")]
    vacuum = (noise or [1.0])[-1] == 0
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    cells = []
    for row in (dict(zip(header, line.split(","))) for line in lines[1:]):
        for key in header:
            if key == "quantity":
                continue
            value = float(row[key])
            if key == "lambda1_exact_log":
                # -inf at N = 0, NaN where floats do not resolve the threshold
                threshold = float(row["k"]) * (float(row["N"]) + float(row["delta"]))
                assert (value == -math.inf if vacuum else
                        math.isnan(value) == (threshold >= 2.0**53)), (row, value)
                continue
            lambda1_bound = key == "lambda1_log" or (
                key == "bound_log" and row["quantity"] == "lambda1")
            if vacuum and lambda1_bound:  # no count exceeds the threshold
                assert value == -math.inf, (row, value)
            else:
                cells.append((key, value))
    return cells


@pytest.fixture(scope="module")
def two_point_code(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "code.txt"
    scheme.save_signature_set(path, scheme.SignatureSet(
        k=2, energy_budget=4.0, rho=1.0, signatures=np.array([[0, 0], [2, 1j]], dtype=complex)))
    return path


class TestFuzz:
    @given(argv=command_lines())
    @settings(max_examples=300, deadline=None)
    def test_exit_codes_and_finite_output(self, two_point_code, argv):
        argv = [str(two_point_code) if a == "CODE" else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        assert status in (0, 1), argv  # none of these commands runs an oracle
        assert "Traceback" not in stderr.getvalue(), argv
        if status == 0:
            for name, value in numeric_cells(argv, stdout.getvalue()):
                assert math.isfinite(value), (argv, name, value)
