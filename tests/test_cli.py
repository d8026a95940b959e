import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonid import cli, fockspace, geometry, montecarlo, photonstats, scheme


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
        k=4, energy_budget=4.0, rho=math.sqrt(2) / 2, rows=sigs.view(float)))
    return path


def huge_distance_code(path):
    """k = 1 code of two signatures 5e18 apart."""
    scheme.save_signature_set(path, scheme.SignatureSet(
        k=1, energy_budget=2.5e37, rho=1.0, rows=np.array([[0, 0], [5e18, 0]])))
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


class TestJsonNonFinite:
    @pytest.mark.parametrize("argv,column,row", [
        (["bounds", "--k", "8", "--rho", "1", "--noise", "0"], "lambda1_log", 0),
        (["bounds", "--k", "8,4096", "--rho", "1", "--delta", "3e12"], "lambda1_exact_log", 1),
        (["simulate", "--k", "2", "--energy", "4", "--rho", "1", "--noise", "0",
          "--trials", "100"], "bound_log", 0),
    ])
    def test_cells_are_the_csv_text(self, tmp_path, argv, column, row):
        # JSON has no number for inf or nan: such a cell is the CSV cell's text
        csv, js = tmp_path / "out.csv", tmp_path / "out.json"
        assert run([*argv, "--out", str(csv)]) == 0
        assert run([*argv, "--format", "json", "--out", str(js)]) == 0

        def reject(token):
            raise AssertionError(f"{token} is not JSON")

        rows = json.loads(js.read_text(), parse_constant=reject)["rows"]
        _, csv_rows = read_csv(csv)
        assert rows[row][column] == csv_rows[row][column] in ("inf", "-inf", "nan")
        for got, want in zip(rows, csv_rows):
            for name, value in got.items():
                assert value == (want[name] if isinstance(value, str) else float(want[name]))


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

    def test_one_pair_energy(self, tmp_path, monkeypatch):
        # the Monte Carlo, the exact column and the bound get one ||Delta||^2:
        # the packing's 4.0 for these two points, which the complex entries'
        # |Delta|^2 puts at 3.999999999999999
        sigs = np.array([[1.073 - 2.246j], [2.3530166780457646 - 0.7092640747595296j]])
        scheme.save_signature_set(tmp_path / "code.txt", scheme.SignatureSet(
            k=1, energy_budget=7.0, rho=1.0, rows=sigs.view(float)))
        seen = {}

        def spy(module, name, energy):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                seen.setdefault(name, []).append(energy(*args, **kwargs))
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        spy(montecarlo, "estimate_errors", lambda pairs, *rest: pairs)
        spy(photonstats, "analytic_error_bounds", lambda k, delta, d2, channel: d2)
        # the exact lambda2 cell's lower tail, which `simulate` reads as `bounds`
        # does; exact_lambda1 reads its upper tail through `montecarlo`
        spy(photonstats, "log_tail_probability", lambda k, energy, *rest, upper: energy)
        assert run(["simulate", "--code", str(tmp_path / "code.txt"), "--trials", "100",
                    "--out", str(tmp_path / "sim.csv")]) == 0
        assert seen == {"estimate_errors": [4.0], "analytic_error_bounds": [4.0],
                        "log_tail_probability": [4.0]}

    @pytest.mark.parametrize("noise", [0.0, 5e-324, 1e-300, 1e-12, 1e5, 3e6])
    def test_exact_columns(self, tmp_path, noise):
        # subnormal N once printed lambda2 = 1; N = 3e6 once hit a count limit
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--code", str(four_point_code(tmp_path / "code.txt")),
                    "--noise", repr(noise), "--trials", "1000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        got = [float(r["exact"]) for r in rows]
        assert got == pytest.approx(mp_exact(4, noise, 1.0, 2.0), rel=1e-11, abs=0)


    @pytest.mark.parametrize("noise", ["1", "0"])
    def test_huge_pair_energy(self, tmp_path, noise):
        # ||Delta||^2 = 2.5e37: an intensity no Poisson sampler takes, and
        # simply no count at or below the threshold
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--code", str(huge_distance_code(tmp_path / "code.txt")),
                    "--noise", noise, "--trials", "1000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        lam2 = [r for r in rows if r["quantity"] == "lambda2"][0]
        assert float(lam2["point"]) == 0.0 and float(lam2["exact"]) == 0.0


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
        "K_ZERO": "# signature-set k=0 energy_budget=4 rho=1\n0 0\n",
        "E_NAN": "# signature-set k=1 energy_budget=nan rho=1\n0 0\n1 0\n",
        "RHO_NEGATIVE": "# signature-set k=1 energy_budget=4 rho=-1\n0 0\n1 0\n",
        "M_WRONG": "# signature-set k=1 energy_budget=4 rho=1 M=7\n0 0\n1 0\n",
        "ROW_ABOVE_KE": "# signature-set k=1 energy_budget=4 rho=1 M=2\n0 0\n3 0\n",
        "ALL_OUT_OF_RANGE": "# signature-set k=1 energy_budget=nan rho=-1 M=7\n0 0\n3 0\n",
        # each field in range, but k E = 2e308 overflows, as for pack --k 2 --energy 1e308
        "KE_OVERFLOWS": "# signature-set k=2 energy_budget=1e308 rho=1\n0 0 0 0\n1 0 0 0\n",
    }
    NAMED_FLAG = {  # command lines whose error names the flag at fault
        ("bounds", "--k", "1,8", "--gamma", "1.1"): "--gamma",  # rho = 0 at k = 1
        ("bounds", "--k", "0x10", "--rho", "1"): "--k",
        ("bounds", "--rho", "1"): "--delta-k",  # default --k 4: delta_k = 1/4
        ("bounds", "--k", "2,8", "--rho", "1"): "--delta-k",
        ("pack", "--k", "2", "--rho", "1", "--seed", "-1"): "--seed",
        ("simulate", "--code", "CODE", "--trials", "10", "--seed", "-1"): "--seed",
        # the threshold k (N + 1) (1 + delta) is infinite, negative, overflows
        ("heterodyne", "--k", "2", "--rho", "1", "--trials", "10", "--delta", "inf"): "--delta",
        ("heterodyne", "--k", "2", "--rho", "1", "--trials", "10", "--delta", "-3"):
            "error: --delta: delta must be finite and >= -1, got -3.0",  # the radius is >= 0
        ("heterodyne", "--k", "2", "--rho", "1", "--trials", "10", "--delta", "1e308"): "--delta",
        # range-checked though --code leaves them unused
        ("simulate", "--code", "CODE", "--trials", "10", "--energy", "nan"): "--energy",
        ("heterodyne", "--code", "CODE", "--trials", "10", "--rho", "-5"): "--rho",
        # pack, simulate and heterodyne take one integer k
        ("pack", "--k", "2,4", "--rho", "1"): "single --k value",
        ("pack", "--k", "0"): "single --k value",
        # k (N + 1) overflows where delta is in range
        ("heterodyne", "--k", "2", "--rho", "1", "--trials", "10", "--noise", "1e308"): "--noise",
        ("bounds", "--k", "8", "--rho", "1", "--noise", "inf"): "--noise",
        ("heterodyne", "--code", "CODE", "--trials", "100", "--noise", "inf"): "--noise",
        ("heterodyne", "--k", "2", "--rho", "1", "--trials", "10", "--noise", "-0.5"): "--noise",
        ("bounds", "--k", "8", "--rho", "1", "--delta", "nan"): "--delta",
        ("bounds", "--k", "8", "--rho", "1", "--delta", "1e306"): "--delta",
        ("simulate", "--code", "CODE", "--trials", "100", "--delta", "nan"): "--delta",
        ("simulate", "--code", "CODE", "--trials", "10", "--delta", "1e300"): "--delta",
        ("bounds", "--k", "8", "--rho", "1", "--energy", "nan"): "--energy",
        ("bounds", "--k", "8", "--rho", "1", "--energy", "inf"): "--energy",
        ("bounds", "--k", "8", "--rho", "1", "--energy", "1e308"): "--energy",  # k E overflows
        ("bounds", "--k", "8", "--rho", "nan"): "--rho",
        ("bounds", "--k", "8", "--gamma", "nan"): "--gamma",
        # ranges that the library checks, named as flags: 2 rho <= sqrt(k E),
        # the converse's delta_k < 1/4, the packed ball's radius and the count
        # threshold below 2^53
        ("bounds", "--k", "8", "--rho", "100"): "--rho and --energy",
        ("bounds", "--k", "8", "--gamma", "100"): "--gamma and --energy",
        ("pack", "--k", "2", "--rho", "100"): "--rho and --energy",
        ("simulate", "--k", "2", "--rho", "100", "--trials", "10"): "--rho and --energy",
        ("heterodyne", "--k", "2", "--rho", "100", "--trials", "10"): "--rho and --energy",
        ("bounds", "--k", "8", "--rho", "1", "--delta-k", "0.3"): "--delta-k",
        ("bounds", "--k", "8", "--rho", "1", "--delta-k", "nan"): "--delta-k",
        ("bounds", "--k", "8", "--rho", "1", "--delta-k", "0"): "--delta-k",
        ("pack", "--k", "1", "--energy", "1e308", "--rho", "1"): "--energy",
        ("simulate", "--k", "1", "--energy", "1e308", "--rho", "1", "--trials", "10"): "--energy",
        ("simulate", "--code", "KE_OVERFLOWS", "--trials", "10"): "E must be > 0 and k E finite",
        ("heterodyne", "--code", "KE_OVERFLOWS", "--trials", "10"): "E must be > 0 and k E finite",
        ("simulate", "--code", "CODE", "--trials", "10", "--noise", "1e300"): "--noise and --delta",
    }

    @pytest.mark.parametrize("argv", [
        *NAMED_FLAG,
        ["heterodyne", "--code", "CODE", "--trials", "10", "--delta", "nan"],
        ["pack", "--k", "2", "--rho", "1", "--energy", "nan"],
        ["pack", "--k", "2", "--rho", "1", "--energy", "inf"],
        ["pack", "--k", "2", "--rho", "nan"],
        ["pack", "--k", "2"],
        ["heterodyne", "--trials", "10"],
        ["simulate", "--code", "MISSING", "--trials", "10"],
        *[["simulate", "--code", name, "--trials", "10"] for name in (
            "NO_K", "TOKEN_WITHOUT_EQ", "K_NOT_INT", "K_ZERO", "E_NAN", "RHO_NEGATIVE",
            "M_WRONG", "ROW_ABOVE_KE", "ALL_OUT_OF_RANGE")],
        ["heterodyne", "--code", "K_ZERO", "--trials", "10"],
        ["simulate", "--code", "ONE_ROW", "--trials", "10"],
        ["heterodyne", "--code", "ONE_ROW", "--trials", "10"],
    ])
    def test_rejected_with_error_line(self, tmp_path, capsys, argv):
        named = self.NAMED_FLAG.get(tuple(argv))
        code = scheme.SignatureSet(k=2, energy_budget=4.0, rho=1.0,
                                   rows=np.array([[0, 0], [2, 1j]], dtype=complex).view(float))
        scheme.save_signature_set(tmp_path / "code.txt", code)
        # a well-formed code of one signature: it has no closest pair
        scheme.save_signature_set(tmp_path / "one_row_code.txt", scheme.SignatureSet(
            k=2, energy_budget=4.0, rho=1.0, rows=np.zeros((1, 4))))
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

    @pytest.mark.parametrize("k", ["2", "100000000000000000000000000"],
                             ids=["k_2", "k_1e26"])
    def test_code_without_rows_is_one_error_line(self, tmp_path, capsys, k):
        path = tmp_path / "code.txt"
        path.write_text(f"# signature-set k={k} energy_budget=1 rho=1\n")
        assert run(["simulate", "--code", str(path), "--trials", "10"]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {path}: the file has no signature rows\n"

    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--trials", "10", "--delta", "nan"], "--delta"),
        (["heterodyne", "--trials", "10", "--delta", "-3"], "--delta"),
        (["simulate", "--trials", "0"], "--trials"),
        (["heterodyne", "--trials", "-3"], "--trials"),
    ])
    def test_rejected_before_packing(self, capsys, monkeypatch, argv, flag):
        def build_code(*args, **kwargs):
            pytest.fail("packed before rejecting the input")

        monkeypatch.setattr(scheme, "build_code", build_code)
        assert run([*argv, "--k", "4", "--rho", "1"]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and flag in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("params,gamma,named", [
        (("rho", "energy"), None, "--rho and --energy: "),
        (("rho", "energy"), 1.1, "--gamma and --energy: "),
        (("energy", "radius", "threshold", "delta"), None, "--energy and --noise and --delta: "),
        (("k",), None, ""),  # a parameter no flag sets
    ])
    def test_flags_at_fault(self, params, gamma, named):
        # each flag once, in the order of the parameters that name it
        exc = photonstats.RangeError("message", *params)
        assert cli._flags_at_fault(exc, argparse.Namespace(gamma=gamma)) == named
        assert cli._flags_at_fault(ValueError("message"), argparse.Namespace()) == ""

    def test_unwritable_out_rejected_with_error_line(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "code.txt"
        assert run(["pack", "--k", "1", "--rho", "1", "--out", str(out)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_threshold_beyond_count_range(self, tmp_path):
        # k = 3, delta = 2e6: a threshold of 6e6 + 3 counts, far above the
        # bulk of either law, so the exact tails print 0 and 1
        sigs = np.array([[0, 0, 0], [2, 1j, 0]], dtype=complex)
        code = scheme.SignatureSet(k=3, energy_budget=4.0, rho=1.0, rows=sigs.view(float))
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


    def test_huge_distance_prints_no_nan(self, tmp_path):
        # noncentrality 2.5e37, where scipy's chndtr is NaN
        out = tmp_path / "het.csv"
        assert run(["heterodyne", "--code", str(huge_distance_code(tmp_path / "code.txt")),
                    "--trials", "1000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r["analytic"]) for r in rows][1] == 0.0
        assert not any(math.isnan(float(r[c])) for r in rows for c in r if c != "quantity")


def child_env(**overrides):
    """The environment of a child interpreter that imports bosonid from src/;
    a variable set to None is removed."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **overrides}
    return {key: value for key, value in env.items() if value is not None}


class TestColdStart:
    """Importing bosonid, or any module of it, loads no scipy: scipy.special
    loads where a tail or a Fock matrix is computed, and no command loads
    scipy.optimize, not even `verify`, whose Chernoff oracle is a
    golden-section search.  Importing the
    command line loads neither hashlib nor json (the artifact hash and the
    JSON writer import them) nor concurrent.futures (Monte Carlo does), which
    pulls in logging."""

    @staticmethod
    def modules(statement):
        """The names of the modules loaded after ``statement`` in a fresh
        interpreter."""
        code = f"{statement}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, check=True).stdout
        return set(out.splitlines()[-1].split())

    @pytest.mark.parametrize("statement,stdlib", [
        ("import bosonid", ("hashlib", "json", "concurrent.futures")),
        ("import bosonid.cli", ("hashlib", "json", "concurrent.futures")),
        ("from bosonid import cli; cli.main(['--version'])",
         ("hashlib", "json", "concurrent.futures")),
        ("from bosonid import cli; cli.main(['pack', '--k', '2', '--rho', '1'])", ()),
    ], ids=["import", "import_cli", "version", "pack"])
    def test_leaves_out_scipy(self, statement, stdlib):
        loaded = self.modules(statement)
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}
        assert not loaded & set(stdlib)

    def test_bounds_loads_scipy_special(self):
        assert "scipy.special" in self.modules(
            "from bosonid import cli; cli.main(['bounds', '--k', '8', '--gamma', '1.1'])")

    def test_verify_loads_scipy_special_alone(self):
        loaded = self.modules("from bosonid import cli; cli.main(['verify'])")
        assert "scipy.special" in loaded
        assert not {m for m in loaded if m.startswith("scipy.optimize")}


class TestReadme:
    def test_library_example_runs(self):
        # README's ```python block, in a fresh interpreter: no error, no warning
        text = (Path(__file__).parents[1] / "README.md").read_text()
        (example,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
        child = subprocess.run([sys.executable, "-c", example], env=child_env(),
                               capture_output=True, text=True)
        assert child.returncode == 0 and child.stderr == ""


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    def test_reader_gone_is_not_an_error(self, unbuffered):
        # the read end closes before the child writes, so its write fails with
        # EPIPE: at once if unbuffered, else at main's flush
        child = subprocess.Popen(
            [sys.executable, "-m", "bosonid.cli", "pack", "--k", "2", "--rho", "1"],
            env=child_env(PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == cli.EXIT_OK
        assert err == b""

    @pytest.mark.parametrize("argv", [
        ["pack", "--k", "2", "--rho", "1", "--out", "{tmp}"],
        ["bounds", "--k", "8", "--rho", "1", "--out", "{tmp}/missing/x.csv"],
        ["simulate", "--code", "{tmp}/missing.txt", "--trials", "10"],
    ], ids=["out_is_a_directory", "out_in_no_directory", "code_missing"])
    def test_file_errors_stay_validation_errors(self, capsys, tmp_path, argv):
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")


class TestAllocationFailure:
    def test_is_one_error_line(self):
        # 4096 candidates of dimension 2k = 200000 ask for 6.1 GiB at once: a
        # child with 2e9 bytes of address space fails that allocation
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

        child = subprocess.run(
            [sys.executable, "-m", "bosonid.cli", "pack", "--k", "100000", "--rho", "1"],
            env=child_env(), capture_output=True, text=True, timeout=60, preexec_fn=limit)
        assert child.returncode == cli.EXIT_VALIDATION
        assert child.stderr.startswith("error: ") and "Traceback" not in child.stderr
        assert len(child.stderr.splitlines()) == 1


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        assert run(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [["PASS", name] for name in (
            "chernoff_equals_lambda", "tail_matches_fock_diagonal",
            "overlap_matches_zero_count_tail", "converse_distance_matches_fock_fidelity",
            "fuchs_van_de_graaf_chain")]

    @staticmethod
    def spy_tails(monkeypatch):
        """Run the checks with log_tail_probability, as `photonstats` and
        `montecarlo` (for exact_lambda2) bind it, recording each call's
        (k, energy, N, threshold); return the checks by name and the calls."""
        calls = []
        tail = photonstats.log_tail_probability

        def spy(k, energy, channel, threshold, upper):
            calls.append((k, energy, channel.n_thermal, threshold))
            return tail(k, energy, channel, threshold, upper)

        for module in (photonstats, montecarlo):
            monkeypatch.setattr(module, "log_tail_probability", spy)
        return {name: (dev, tol) for name, dev, tol in cli._verify_checks()}, calls

    def test_tail_check_reaches_the_production_tail(self, monkeypatch):
        # the Fock-space check runs the tail every exact column uses, at k = 1
        # and 2, to 1e-12; the second count law is gone
        checks, calls = self.spy_tails(monkeypatch)
        assert {k for k, *_ in calls} == {1, 2}
        dev, tol = checks["tail_matches_fock_diagonal"]
        assert tol == 1e-12 and dev <= tol
        assert not hasattr(photonstats, "photon_pmf_array")
        # k = 2 convolves two different states: no pair energy is twice a single one
        singles = {energy for k, energy, *_ in calls if k == 1}
        assert not {energy for k, energy, *_ in calls if k == 2} & {2 * e for e in singles}

    def test_checks_reach_the_converse_and_the_zero_count_tail(self, monkeypatch):
        # the overlap check asks for P(S_1 = 0) at Delta = [alpha - beta], an (energy,
        # N) the diagonal check (|alpha|^2 at every threshold) never uses; the
        # converse check reads d0 back from the bound that `bounds` prints
        converse_ks = []
        converse = scheme.converse_users_log

        def spy(k, *args):
            converse_ks.append(k)
            return converse(k, *args)

        monkeypatch.setattr(scheme, "converse_users_log", spy)
        checks, calls = self.spy_tails(monkeypatch)
        assert converse_ks == [1, 1]
        zero_count = {(energy, n) for k, energy, n, t in calls if k == 1 and t == 0}
        diagonal = {(energy, n) for k, energy, n, t in calls if k == 1 and t > 0}
        assert len(zero_count - diagonal) == 2
        for name, tol in (("overlap_matches_zero_count_tail", 1e-12),
                          ("converse_distance_matches_fock_fidelity", 1e-10)):
            dev, check_tol = checks[name]
            assert check_tol == tol and dev <= tol


    def test_chain_runs_on_the_converse_pairs(self, monkeypatch):
        # the chain T^2 <= 1 - F is the converse's step from the fidelity 4
        # delta_k: T is taken on the pairs whose fidelity the converse check
        # reads, so no state is built for the chain alone
        built, calls = [], {"fidelity_numeric": [], "trace_distance_numeric": []}
        for name, seen in calls.items():
            monkeypatch.setattr(fockspace, name, lambda r, s, f=getattr(fockspace, name),
                                seen=seen: seen.append((id(r), id(s))) or f(r, s))
        density = fockspace.displaced_thermal_density
        monkeypatch.setattr(fockspace, "displaced_thermal_density",
                            lambda *args: built.append(args) or density(*args))
        checks = {name: (dev, tol) for name, dev, tol in cli._verify_checks()}
        assert len(built) == 9 and len(calls["fidelity_numeric"]) == 2
        assert calls["trace_distance_numeric"] == calls["fidelity_numeric"]
        dev, tol = checks["fuchs_van_de_graaf_chain"]
        assert tol == 1e-6 and dev <= tol


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


class TestOneParser:
    """`main` parses with one parser per process, built by its first call."""

    def test_built_once(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        calls = [["verify"], ["bounds", "--k", "8", "--gamma", "1.1"], ["simulate", "--bogus"],
                 ["pack", "--help"], ["--version"]]
        assert [run(argv) for argv in calls] == [0, 0, 1, 0, 0]
        assert len(built) == 1 + len(cli._COMMANDS)  # the top parser and one per subcommand

    def test_carries_nothing_between_calls(self, capsys, tmp_path):
        # each call's arguments are its own: B and verify's lines match a fresh interpreter's
        code = str(four_point_code(tmp_path / "code.txt"))
        b_argv = ["simulate", "--code", code, "--trials", "2000", "--out"]
        assert run(["simulate", "--code", code, "--pair-strategy", "all_pairs_sampled",
                    "--format", "json", "--trials", "2000", "--out", str(tmp_path / "A")]) == 0
        assert run(["simulate", "--bogus"]) == cli.EXIT_VALIDATION
        assert run(["simulate", "--help"]) == cli.EXIT_OK
        assert run([*b_argv, str(tmp_path / "B")]) == 0
        capsys.readouterr()
        assert run(["verify"]) == 0
        verify_out = capsys.readouterr().out

        def fresh(argv):
            return subprocess.run([sys.executable, "-m", "bosonid.cli", *argv], env=child_env(),
                                  capture_output=True, check=True).stdout

        fresh([*b_argv, str(tmp_path / "B_fresh")])
        assert (tmp_path / "B").read_bytes() == (tmp_path / "B_fresh").read_bytes()
        assert verify_out.encode() == fresh(["verify"])


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
        for name in ("noise", "delta"):
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
        k=2, energy_budget=4.0, rho=1.0, rows=np.array([[0, 0, 0, 0], [2.0, 0, 0, 1]])))
    return path


def accepts(command, flag, value="1"):
    """Whether ``command`` takes ``flag`` (with ``value``, which a choice flag must allow)."""
    _, unknown = cli.build_parser().parse_known_args([command, f"{flag}={value}"])
    return not unknown


class TestFlagTable:
    # each subcommand's options in --help order, by their first option string
    OPTIONS = {
        "bounds": ["--k", "--energy", "--noise", "--delta", "--rho", "--gamma", "--out",
                   "--format", "--delta-k"],
        "pack": ["--k", "--energy", "--rho", "--seed", "--out"],
        "simulate": ["--k", "--energy", "--noise", "--delta", "--rho", "--seed", "--trials",
                     "--code", "--out", "--format", "--pair-strategy"],
        "heterodyne": ["--k", "--energy", "--noise", "--delta", "--rho", "--seed", "--trials",
                       "--code", "--out", "--format"],
        "verify": [],
    }
    ALIASES = {"-E": "--energy", "-N": "--noise"}
    VALUES = {"--format": "csv", "--pair-strategy": "worst_pair"}  # choices refuse "1"

    @pytest.mark.parametrize("command", OPTIONS)
    def test_accepted_flags(self, command):
        every = {*(f for flags in self.OPTIONS.values() for f in flags), *self.ALIASES}
        accepted = {f for f in every if accepts(command, f, self.VALUES.get(f, "1"))}
        assert accepted == {f for f in every
                            if self.ALIASES.get(f, f) in self.OPTIONS[command]}

    @pytest.mark.parametrize("command", OPTIONS)
    def test_help_order(self, capsys, command):
        assert run([command, "--help"]) == cli.EXIT_OK
        options = capsys.readouterr().out.split("options:\n")[1]
        assert re.findall(r"^  (-[-\w]+)", options, re.M) == ["-h", *self.OPTIONS[command]]


class TestFuzz:
    @given(argv=command_lines())
    @settings(max_examples=300, deadline=None)
    def test_exit_codes_and_finite_output(self, two_point_code, argv):
        argv = [str(two_point_code) if a == "CODE" else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        raised = []  # every library range error the command makes
        init = photonstats.RangeError.__init__
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(photonstats.RangeError, "__init__",
                          lambda exc, *args: raised.append(exc) or init(exc, *args))
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = cli.main(argv)
        assert status in (0, 1), argv  # none of these commands runs an oracle
        assert "Traceback" not in stderr.getvalue(), argv
        if status == 0:
            for name, value in numeric_cells(argv, stdout.getvalue()):
                assert math.isfinite(value), (argv, name, value)
        line = stderr.getvalue().removesuffix("\n")
        for exc in raised:
            if status == 1 and line.endswith(f": {exc}"):
                # the line is "error: <flags>: <library message>"
                named = line.removeprefix("error: ")[: -len(f": {exc}")]
                flags = named.split(" and ")
                assert named and all(accepts(argv[0], flag) for flag in flags), (argv, line)
