import json
import math

import numpy as np
import pytest

from bosonid import cli, geometry, scheme


def run(argv):
    return cli.main(argv)


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
    @pytest.mark.parametrize("argv", [
        ["bounds", "--k", "8", "--rho", "1", "--noise", "inf"],
        ["bounds", "--k", "8", "--rho", "1", "--delta", "nan"],
        ["simulate", "--code", "CODE", "--trials", "100", "--delta", "nan"],
        ["heterodyne", "--code", "CODE", "--trials", "100", "--noise", "inf"],
    ])
    def test_rejected_with_error_line(self, tmp_path, capsys, argv):
        code = scheme.SignatureSet(k=2, energy_budget=4.0, rho=1.0,
                                   signatures=np.array([[0, 0], [2, 1j]], dtype=complex))
        scheme.save_signature_set(tmp_path / "code.txt", code)
        argv = [str(tmp_path / "code.txt") if a == "CODE" else a for a in argv]
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

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


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5


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
