"""The benchmark's workloads: inputs made from the seed, rounds of operations,
and the checks that hold each operation's output against `oracles`.

A workload's `round(j, run)` performs its operations in a fixed order.  Each
operation goes through `run(name, fn, check)`, which times `fn()` (and traces
it when asked), then passes its result to `check`, outside the timed region.
`check` returns the list of ways the output is wrong; an empty list passes.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics

import mpmath as mp
import numpy as np

import oracles


def derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def read_table(path):
    """Rows of a bosonid CSV table as dicts of strings; '#' lines skipped."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_points(path):
    """(header fields, real point rows) of a signature-set file."""
    with open(path) as fh:
        first = fh.readline().split()
        rows = [[float(x) for x in ln.split()] for ln in fh
                if ln.strip() and not ln.startswith("#")]
    fields = dict(tok.split("=") for tok in first if "=" in tok)
    return fields, np.array(rows)


def write_points(path, k, energy, rho, points, min_distance):
    """Write `points` in bosonid's signature-set text format, whose loader
    skips a second header line."""
    with open(path, "w") as fh:
        fh.write(f"# signature-set k={k} energy_budget={energy!r} rho={rho!r} "
                 f"M={len(points)} min_distance={min_distance!r}\n")
        fh.write(f"# dim={2 * k} radius={math.sqrt(k * energy)!r} separation={2 * rho!r}\n")
        for row in points:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def call_cli(cli, argv):
    """Run `bosonid <argv>` in-process; (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _rel(name, got, want, tol):
    err = oracles.relative_error(float(got), want)
    return [] if err <= tol else [f"{name}: got {float(got)!r}, oracle {float(want)!r}, "
                                  f"relative error {err:.3g} > {tol:g}"]


def _mc(name, row, p, trials):
    out = []
    point, low, high = float(row["point"]), float(row["wilson_low"]), float(row["wilson_high"])
    if int(row["trials"]) != trials:
        out.append(f"{name}: {row['trials']} trials, asked for {trials}")
    if not oracles.mc_agrees(point, float(p), trials):
        out.append(f"{name}: Monte Carlo {point!r} is more than 6 sd from {float(p)!r}")
    if not low <= point <= high:
        out.append(f"{name}: point {point!r} outside its interval [{low!r}, {high!r}]")
    return out


def _times(rounds, name):
    """Seconds of every operation called `name`; rounds hold (name, seconds)."""
    return [s for r in rounds for n, s in r if n == name]


def _cli_ok(check):
    """Wrap a check of a CLI call's stdout so a non-zero exit fails first."""
    def checked(result):
        code, stdout = result
        return [f"exit code {code}"] if code != 0 else check(stdout)
    return checked


class Pack:
    """`bosonid pack` in 8 real dimensions, then `scheme.build_code` in 16."""

    name = "pack"
    # each round packs with its own seed: the stop rule's stopping time
    # varies ~25% from seed to seed, so rounds sample that spread
    fresh_input_each_round = True
    K, ENERGY, RHO = 4, 4.0, 1.5
    WIDE_K, WIDE_RHO, WIDE_BUDGET = 8, 2.6, 5_000

    def __init__(self, lib, seed, workdir):
        self.lib, self.seed, self.workdir = lib, seed, workdir
        # the CLI packs at the library's default budget
        self.budget = lib.geometry.DEFAULT_REJECTION_BUDGET

    def round(self, j, run):
        seed = derive_seed(self.seed, j)
        path = self.workdir / f"pack-{j}.txt"
        argv = ["pack", "--k", str(self.K), "--energy", repr(self.ENERGY),
                "--rho", repr(self.RHO), "--seed", str(seed), "--out", str(path)]

        def check_dense(stdout):
            printed = dict(ln.split("=", 1) for ln in stdout.split())
            fields, points = read_points(path)
            fails = []
            if int(printed["M"]) != len(points) or int(fields["M"]) != len(points):
                fails.append(f"printed M={printed['M']}, file has {len(points)} rows")
            return fails + oracles.packing_failures(
                points, self.K, self.ENERGY, self.RHO, self.budget,
                float(printed["min_distance"]),
                np.random.default_rng(derive_seed(self.seed, j, 1)))

        def check_wide(code):
            points = np.empty((len(code.signatures), 2 * self.WIDE_K))
            points[:, 0::2], points[:, 1::2] = code.signatures.real, code.signatures.imag
            return oracles.packing_failures(
                points, self.WIDE_K, self.ENERGY, self.WIDE_RHO, self.WIDE_BUDGET,
                code.min_distance, np.random.default_rng(derive_seed(self.seed, j, 2)))

        run("pack", lambda: call_cli(self.lib.cli, argv), _cli_ok(check_dense))
        run("pack_wide", lambda: self.lib.scheme.build_code(
            self.WIDE_K, self.ENERGY, self.WIDE_RHO, np.random.default_rng(seed),
            rejection_budget=self.WIDE_BUDGET), check_wide)

    @staticmethod
    def commands(rounds):
        return {"pack_s": statistics.fmean(_times(rounds, "pack")),
                "pack_wide_s": statistics.fmean(_times(rounds, "pack_wide"))}


class Simulate:
    """`bosonid simulate --code` (both pair strategies) and `heterodyne --code`
    on a lattice code made here, so packing is bypassed.  The closest pair
    of the code is the lattice spacing, and every pairwise distance is known
    from the integer lattice coordinates."""

    name = "simulate"
    fresh_input_each_round = False
    K, ENERGY, SPACING, M = 4, 4.0, 1.7, 2500
    NOISE, DELTA = 1.0, 1.0
    TRIALS, ALL_PAIRS_TRIALS, HETERODYNE_TRIALS = 1_000_000, 30_000, 1_000_000

    def __init__(self, lib, seed, workdir):
        self.lib, self.workdir = lib, workdir
        points, z = oracles.lattice_code(self.K, self.ENERGY, self.SPACING, self.M,
                                         np.random.default_rng(derive_seed(seed, 0)))
        dmin = oracles.min_pairwise_distance(points)
        if abs(dmin - self.SPACING) > 1e-9:
            raise RuntimeError(f"generated code has closest pair {dmin!r}, "
                               f"expected {self.SPACING!r}")
        self.code = workdir / "code.txt"
        write_points(self.code, self.K, self.ENERGY, self.SPACING / 2, points, dmin)
        self.mc_seed = derive_seed(seed, 1)
        n, d = self.NOISE, self.DELTA
        d2 = self.SPACING ** 2
        self.lambda1 = oracles.lambda1(self.K, n, d)
        self.lambda2_worst = oracles.lambda2(self.K, n, d, d2)
        classes = oracles.lattice_distance_classes(z)
        self.lambda2_mean = sum(int(c) * oracles.lambda2(self.K, n, d, j * d2)
                                for j, c in enumerate(classes) if c) / int(classes.sum())
        tau = self.K * (n + 1) * (1 + d)  # the CLI's default acceptance radius
        self.heterodyne = oracles.heterodyne(self.K, n + 1, tau, d2)

    def round(self, j, run):
        for name, command, trials, extra in (
            ("simulate", "simulate", self.TRIALS, ()),
            ("simulate_all_pairs", "simulate", self.ALL_PAIRS_TRIALS,
             ("--pair-strategy", "all_pairs_sampled")),
            ("heterodyne", "heterodyne", self.HETERODYNE_TRIALS, ()),
        ):
            out = self.workdir / f"{name}.csv"
            argv = [command, "--code", str(self.code), "--noise", repr(self.NOISE),
                    "--delta", repr(self.DELTA), "--trials", str(trials),
                    "--seed", str(self.mc_seed), "--out", str(out), *extra]
            run(name, lambda: call_cli(self.lib.cli, argv),
                _cli_ok(lambda _: self._check(name, read_table(out), trials)))

    def _check(self, name, table, trials):
        rows = {r["quantity"]: r for r in table}
        l1, l2 = rows["lambda1"], rows["lambda2"]
        if name == "heterodyne":
            h1, h2 = self.heterodyne
            return (_rel("heterodyne lambda1", l1["analytic"], h1, 1e-9)
                    + _rel("heterodyne lambda2", l2["analytic"], h2, 1e-9)
                    + _mc("heterodyne lambda1", l1, h1, trials)
                    + _mc("heterodyne lambda2", l2, h2, trials))
        fails = (_rel("lambda1 exact", l1["exact"], self.lambda1, 1e-9)
                 + _rel("lambda2 exact", l2["exact"], self.lambda2_worst, 1e-9)
                 + _mc("lambda1", l1, self.lambda1, trials))
        if float(self.lambda1) > math.exp(float(l1["bound_log"])) * (1 + 1e-9):
            fails.append(f"lambda1 {float(self.lambda1)!r} above its bound "
                         f"exp({l1['bound_log']})")
        p2 = self.lambda2_mean if name == "simulate_all_pairs" else self.lambda2_worst
        return fails + _mc("lambda2", l2, p2, trials)

    @classmethod
    def commands(cls, rounds):
        def rate(name, trials):
            return 2 * trials / statistics.median(_times(rounds, name))
        return {"mc_trials_per_s": rate("simulate", cls.TRIALS),
                "mc_all_pairs_trials_per_s": rate("simulate_all_pairs", cls.ALL_PAIRS_TRIALS),
                "heterodyne_trials_per_s": rate("heterodyne", cls.HETERODYNE_TRIALS)}


class Oracles:
    """The exact tails, the heterodyne chi-square errors, a `bounds` sweep and
    `verify`: no sampling and no packing."""

    name = "oracles"
    fresh_input_each_round = False
    KS = (64, 256, 1024)
    # lambda1 at the CLI's defaults; lambda2 on a quiet channel, where a total
    # energy of 0.3 k puts the threshold deep in the lower tail
    L1_NOISE, L1_DELTA = 1.0, 1.0
    L2_NOISE, L2_DELTA, L2_ENERGY_PER_MODE = 0.1, 0.1, 0.3
    # heterodyne at per-mode variance N + 1 = 2, with threshold and distance
    # scaled with k so both errors stay near 1e-3
    SIGMA2 = 2.0
    BOUNDS_KS = tuple(2 ** e for e in range(3, 13))
    BOUNDS_ENERGY, BOUNDS_GAMMA = 4.0, 1.1
    VERIFY_REPEATS = 3
    TOL = 1e-10
    TAILS = ("exact_lambda1", "exact_lambda2", "heterodyne_analytic", "bounds")

    def __init__(self, lib, seed, workdir):
        self.lib, self.workdir = lib, workdir
        rng = np.random.default_rng(derive_seed(seed, 0))
        self.cases = []
        for k in self.KS:
            energy = self.L2_ENERGY_PER_MODE * k
            split = rng.dirichlet(np.ones(k)) * energy
            tau = k * self.SIGMA2 * (1 + 3 / math.sqrt(k))
            d2 = 14 * math.sqrt(k)
            self.cases.append({
                "k": k, "tau": tau, "distance": math.sqrt(d2),
                "delta_vec": np.sqrt(split) * np.exp(2j * np.pi * rng.random(k)),
                "lambda1": oracles.lambda1(k, self.L1_NOISE, self.L1_DELTA),
                "lambda2": oracles.lambda2(k, self.L2_NOISE, self.L2_DELTA, energy),
                "heterodyne": oracles.heterodyne(k, self.SIGMA2, tau, d2),
            })
        self.bounds_lambda1_log = {
            k: float(mp.log(oracles.lambda1(k, 1.0, 1.0))) for k in self.BOUNDS_KS}

    def round(self, j, run):
        mc, ps = self.lib.montecarlo, self.lib.photonstats
        ch1, ch2 = ps.ChannelModel(self.L1_NOISE), ps.ChannelModel(self.L2_NOISE)
        for case in self.cases:
            k = case["k"]
            det1 = ps.DetectorSpec.make(self.L1_DELTA, k, ch1)
            run("exact_lambda1", lambda: mc.exact_lambda1(ch1, det1),
                lambda r: _rel(f"exact_lambda1 k={k}", r, case["lambda1"], self.TOL))
            det2 = ps.DetectorSpec.make(self.L2_DELTA, k, ch2)
            run("exact_lambda2", lambda: mc.exact_lambda2(case["delta_vec"], ch2, det2),
                lambda r: _rel(f"exact_lambda2 k={k}", r, case["lambda2"], self.TOL))
            spec = mc.HeterodyneSpec(noise_variance=self.SIGMA2, threshold=case["tau"])
            h1, h2 = case["heterodyne"]
            run("heterodyne_analytic",
                lambda: mc.heterodyne_analytic(k, spec, case["distance"]),
                lambda r: _rel(f"heterodyne lambda1 k={k}", r["lambda1"], h1, self.TOL)
                + _rel(f"heterodyne lambda2 k={k}", r["lambda2"], h2, self.TOL))

        out = self.workdir / "bounds.csv"
        argv = ["bounds", "--k", ",".join(map(str, self.BOUNDS_KS)),
                "--energy", repr(self.BOUNDS_ENERGY), "--noise", "1", "--delta", "1",
                "--gamma", repr(self.BOUNDS_GAMMA), "--out", str(out)]
        run("bounds", lambda: call_cli(self.lib.cli, argv),
            _cli_ok(lambda _: self._check_bounds(read_table(out))))
        for _ in range(self.VERIFY_REPEATS):
            run("verify", lambda: call_cli(self.lib.cli, ["verify"]),
                _cli_ok(self._check_verify))

    @staticmethod
    def _check_verify(stdout):
        lines = stdout.splitlines()
        return [f"verify: {ln}" for ln in lines if not ln.startswith("PASS ")] or \
            ([] if lines else ["verify printed nothing"])

    def _check_bounds(self, rows):
        if [int(r["k"]) for r in rows] != list(self.BOUNDS_KS):
            return [f"bounds rows for k={[r['k'] for r in rows]}"]
        fails = []
        for r in rows:
            k = int(r["k"])
            lower, upper = float(r["logM_lower"]), float(r["logM_upper"])
            if not lower <= upper:
                fails.append(f"bounds k={k}: logM_lower {lower!r} > logM_upper {upper!r}")
            rho2 = self.BOUNDS_GAMMA * math.log(k)
            fails += _rel(f"bounds k={k} logM_lower", lower,
                          k * math.log(k * self.BOUNDS_ENERGY / (4 * rho2)), 1e-9)
            exact_log = self.bounds_lambda1_log[k]
            if exact_log > float(r["lambda1_log"]) + 1e-9 * abs(exact_log):
                fails.append(f"bounds k={k}: exact log lambda1 {exact_log!r} above "
                             f"the bound {r['lambda1_log']}")
        return fails

    @classmethod
    def commands(cls, rounds):
        return {"exact_tails_s": statistics.median(
                    sum(s for n, s in r if n in cls.TAILS) for r in rounds),
                "verify_s": statistics.median(_times(rounds, "verify"))}


WORKLOADS = {w.name: w for w in (Pack, Simulate, Oracles)}
COMMAND_METRICS = ("pack_s", "pack_wide_s", "mc_trials_per_s", "mc_all_pairs_trials_per_s",
                   "heterodyne_trials_per_s", "exact_tails_s", "verify_s")
