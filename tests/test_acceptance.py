"""End-to-end acceptance checks.

Each test prints a single pass/fail line for its criterion so the suite can be
skimmed from the pytest output (`pytest -v -s tests/test_acceptance.py`).
"""

import math
import time

import numpy as np
from scipy.stats import binom

from bosonid import cli, fockspace as fs, geometry as geo, montecarlo as mc
from bosonid import photonstats as ps
from bosonid.photonstats import ChannelModel, DetectorSpec

DELTA_GRID = (0.1, 0.5, 1.0, 2.0)
NOISE_GRID = (0.2, 0.5, 1.0, 2.0)


def report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def binomial_interval(trials, p, confidence=0.997):
    alpha = 1 - confidence
    return binom.ppf(alpha / 2, trials, p), binom.ppf(1 - alpha / 2, trials, p)


def read_csv(path):
    rows, header = [], None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


def test_criterion_1_chernoff_matches_rate_function():
    start = time.perf_counter()
    worst = 0.0
    for delta in DELTA_GRID:
        for noise in NOISE_GRID:
            ch = ChannelModel(noise)
            worst = max(
                worst,
                abs(ps.chernoff_upper_exponent(delta, ch) - ps.lambda_exponent(delta, ch)),
            )
    elapsed = time.perf_counter() - start
    report(1, "Chernoff optimum equals closed-form exponent", worst < 1e-9 and elapsed < 1.0)


def test_criterion_2_exact_tail_below_exponential_bound():
    # P(S_k >= k(N + delta)) from the closed-form tail, which must agree with
    # the sum of the k-fold convolved single-mode pmf, stays below exp(-k Lambda)
    start = time.perf_counter()
    ok = True
    nmax = 400  # the law at N = 2, k = 16 has mass < 1e-30 beyond
    for delta in DELTA_GRID:
        for noise in NOISE_GRID:
            ch = ChannelModel(noise)
            rate = ps.lambda_exponent(delta, ch)
            # the thermal single-mode law, geometric: (N+1)^-1 (N/(N+1))^n
            single = (noise / (noise + 1)) ** np.arange(nmax + 1) / (noise + 1)
            pmf = np.ones(1)
            for k in range(1, 17):
                pmf = np.convolve(pmf, single)[: nmax + 1]
                idx = math.ceil(k * (noise + delta) - 1e-12)
                tail = math.exp(ps.log_tail_probability(k, 0.0, ch, idx - 1, upper=True))
                ok = ok and abs(tail - pmf[idx:].sum()) <= 1e-13
                ok = ok and tail <= math.exp(-k * rate) * (1 + 1e-12)
    elapsed = time.perf_counter() - start
    report(2, "exact thermal tail below first-kind bound", ok and elapsed < 10.0)


def test_criterion_3_coherent_overlap_closed_form():
    cutoff = 60
    worst = 0.0
    for noise in (0.3, 1.0):
        ch = ChannelModel(noise)
        for alpha in (0.0, 0.8, -1.2 + 0.9j, 2.0):
            state = fs.displaced_thermal_density(alpha, ch, cutoff)
            for beta in (0.0, 0.5j, 1.0 + 1.0j, -2.0):
                vec = fs.coherent_state_vector(beta, cutoff)
                numeric = float((vec.conj() @ state @ vec).real)
                closed = math.exp(-abs(alpha - beta) ** 2 / (noise + 1)) / (noise + 1)
                worst = max(worst, abs(numeric - closed))
    report(3, "coherent-state overlap equals closed form", worst < 1e-8)


def test_criterion_4_fidelity_closed_form():
    start = time.perf_counter()
    cutoff = 60
    worst = 0.0
    cases = [
        (0.0, 1.0, 1.0),
        (0.5j, -0.5, 0.3),
        (0.3 + 0.4j, -0.6 + 0.2j, 0.7),
        (1.0, -1.0, 1.0),
        (0.0, 2.0, 0.5),
    ]
    for alpha, beta, noise in cases:
        ch = ChannelModel(noise)
        numeric = fs.fidelity_numeric(
            fs.displaced_thermal_density(alpha, ch, cutoff),
            fs.displaced_thermal_density(beta, ch, cutoff),
        )
        closed = math.exp(-abs(alpha - beta) ** 2 / (2 * noise + 1))
        worst = max(worst, abs(numeric - closed))
    elapsed = time.perf_counter() - start
    report(4, "numeric fidelity matches closed form", worst < 1e-10 and elapsed < 30.0)


def test_criterion_5_packing_cardinality():
    hits = sum(
        len(geo.greedy_packing(2, 2.0, 1.0, np.random.default_rng(seed),
                               rejection_budget=100_000)) >= 4
        for seed in range(100)
    )
    report(5, "greedy packing reaches volumetric count", hits >= 99)


def test_criterion_6_monte_carlo_matches_exact():
    start = time.perf_counter()
    ch = ChannelModel(1.0)
    trials = 100_000
    ok = True
    for k in (2, 4, 8, 16):
        det = DetectorSpec.make(1.0, k, ch)  # the pair 0, (1, ..., 1): ||Delta||^2 = k
        est = mc.estimate_errors(float(k), ch, det, trials, 1000 + k)
        lo, hi = binomial_interval(trials, mc.exact_lambda1(ch, det))
        ok = ok and lo <= est["lambda1"].successes <= hi
        lo, hi = binomial_interval(trials, mc.exact_lambda2(np.ones(k), ch, det))
        ok = ok and lo <= est["lambda2"].successes <= hi
    elapsed = time.perf_counter() - start
    report(6, "Monte Carlo inside exact-binomial intervals", ok and elapsed < 120.0)


def test_criterion_7_sandwich_at_desk_scale(tmp_path):
    gamma = 1.1035533905932737  # 1/(4 Theta) at N = delta = 1
    ks = [8 * 2**i for i in range(10)]  # 8 .. 4096
    out = tmp_path / "sweep.csv"
    assert cli.main([
        "bounds", "--k", ",".join(map(str, ks)), "--gamma", repr(gamma),
        "--energy", "4", "--noise", "1", "--out", str(out),
    ]) == 0
    ok = True
    for row in read_csv(out):
        k = int(row["k"])
        center = k * math.log(k) - k * math.log(math.log(k))
        lower_gap = (float(row["logM_lower"]) - center) / k
        upper_gap = (float(row["logM_upper"]) - center) / k
        ok = ok and abs(lower_gap) <= 10 and abs(upper_gap) <= 10
    report(7, "achievable and converse sandwich k ln k", ok)


def test_criterion_8_heterodyne_consistency():
    trials = 1_000_000
    ok = True
    for k in (1, 2, 4):
        spec = mc.HeterodyneSpec(noise_variance=1.0, threshold=1.5 * k)
        sim = mc.heterodyne_simulate(k, float(k), spec, trials, 300 + k)  # ||Delta||^2 = k
        exact = mc.heterodyne_analytic(k, spec, math.sqrt(k))
        lo, hi = binomial_interval(trials, exact["lambda1"])
        ok = ok and lo <= sim["lambda1"].successes <= hi
        lo, hi = binomial_interval(trials, exact["lambda2"])
        ok = ok and lo <= sim["lambda2"].successes <= hi
    # at zero thermal noise the per-mode variance floor is exactly the unit
    # shot noise of the additive complex Gaussian model
    ok = ok and ChannelModel(0.0).n_thermal + 1 == 1.0
    report(8, "heterodyne simulation matches analytic channel", ok)


def test_criterion_9_byte_identical_reruns(tmp_path):
    ok = True
    for args, name in [
        (["bounds", "--k", "8,64", "--gamma", "1.1"], "bounds"),
        (["pack", "--k", "2", "--energy", "4", "--rho", "1", "--seed", "7"], "pack"),
        (
            ["simulate", "--k", "2", "--energy", "4", "--rho", "1",
             "--trials", "20000", "--seed", "7"],
            "simulate",
        ),
        (
            ["heterodyne", "--k", "2", "--energy", "4", "--rho", "1",
             "--trials", "20000", "--seed", "7"],
            "heterodyne",
        ),
    ]:
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    report(9, "identical seed and config give identical bytes", ok)
