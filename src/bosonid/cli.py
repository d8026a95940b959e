"""Command-line front end: bounds tables, code construction, Monte Carlo runs,
and the oracle verification suite.

Subcommands: bounds | pack | simulate | verify | heterodyne.  Every output
table carries the artifact version and a hash of the effective configuration,
and the random commands also their seed, so reruns with identical arguments
are byte-identical.
Exit codes: 0 success, 1 validation error, 2 oracle/acceptance failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, fockspace, geometry, montecarlo, photonstats, scheme
from .photonstats import ChannelModel, DetectorSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 2


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0
    return str(value)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_table(rows, meta, out, fmt):
    """Write rows, dicts with the same keys in column order, as CSV or JSON."""
    fieldnames = list(rows[0])
    if fmt == "json":
        doc = {
            "meta": meta,
            "rows": [
                {name: (float(_fmt(r[name])) if isinstance(r[name], float) else r[name])
                 for name in fieldnames}
                for r in rows
            ],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# bosonid {meta['version']}"]
        lines.append(f"# config_hash={meta['config_hash']}")
        if "seed" in meta:
            lines.append(f"# seed={meta['seed']}")
        lines.append(",".join(fieldnames))
        for r in rows:
            lines.append(",".join(_fmt(r[name]) for name in fieldnames))
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args) -> dict:
    """Version, the hash of all arguments but seed, output and subcommand, and the seed."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("seed", "out", "func", "command")}
    meta = {"version": __version__, "config_hash": _config_hash(config)}
    if hasattr(args, "seed"):
        meta["seed"] = args.seed
    return meta


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        ks = []
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"invalid --k list {text!r}")
    return ks


def cmd_bounds(args) -> int:
    ks = _parse_k_list(args.k)
    channel = ChannelModel(args.noise)
    if (args.rho is None) == (args.gamma is None):
        raise ValueError("exactly one of --rho / --gamma is required")
    if args.gamma is not None and not 0 < args.gamma < math.inf:
        raise ValueError(f"gamma must be finite and > 0, got {args.gamma}")
    if args.gamma is not None and min(ks) < 2:
        raise ValueError("--gamma needs every k >= 2 (rho^2 = gamma ln k is 0 at k = 1), "
                         f"got --k {args.k}")
    rows = []
    for k in ks:
        delta_k = args.delta_k if args.delta_k is not None else 1.0 / k
        rho = args.rho if args.rho is not None else math.sqrt(args.gamma * math.log(k))
        log_lower = scheme.achievable_users_log(k, args.energy, rho)
        log_upper = scheme.converse_users_log(k, args.energy, delta_k, channel)
        l1, l2 = scheme.analytic_error_bounds(k, args.delta, rho, channel)
        try:  # -inf at N = 0, where the count is 0
            l1_exact = photonstats.log_tail_probability(
                k, 0.0, channel, k * (channel.n_thermal + args.delta), upper=True)
        except ValueError:  # a threshold beyond 2^53 counts, which floats do not resolve
            l1_exact = math.nan
        rows.append(
            {
                "k": k,
                "E": args.energy,
                "N": args.noise,
                "delta": args.delta,
                "delta_k": delta_k,
                "rho": rho,
                "logM_lower": log_lower,
                "logM_upper": log_upper,
                "lambda1_log": l1,
                "lambda1_exact_log": l1_exact,
                "lambda2_log": l2,
            }
        )
    _write_table(rows, _meta(args), args.out, args.format)
    return EXIT_OK


def cmd_pack(args) -> int:
    code = _load_or_build_code(args)
    if args.out:
        scheme.save_signature_set(args.out, code)
    print(f"M={len(code)}")
    print(f"min_distance={_fmt(code.min_distance)}")
    print(f"energy_max={_fmt(float(code.energies().max()))}")
    return EXIT_OK


def _load_or_build_code(args) -> scheme.SignatureSet:
    """The --code file if one is given, else a code packed at --rho from --seed."""
    if getattr(args, "code", None):
        return scheme.load_signature_set(args.code)
    if args.rho is None:
        raise ValueError("--rho is required to build a code")
    rng = np.random.default_rng(args.seed)
    return scheme.build_code(args.k, args.energy, args.rho, rng)


def _mc_row(name, est, **exact) -> dict:
    """A Monte Carlo table row: the estimate, its Wilson interval, the exact
    columns, the trial count."""
    low, high = montecarlo.wilson_interval(est.successes, est.trials)
    return {"quantity": name, "point": est.point, "stderr": est.stderr,
            "wilson_low": low, "wilson_high": high, **exact, "trials": est.trials}


def cmd_simulate(args) -> int:
    channel = ChannelModel(args.noise)
    code = _load_or_build_code(args)
    detector = DetectorSpec.make(args.delta, code.k, channel)
    d2, i, j = code.closest_pair
    pairs = d2 if args.pair_strategy == "worst_pair" else montecarlo.sampled_pairs(code.signatures)
    est1 = montecarlo.estimate_lambda1(channel, detector, args.trials, args.seed)
    est2 = montecarlo.estimate_lambda2(pairs, channel, detector, args.trials, args.seed)
    exact1 = montecarlo.exact_lambda1(channel, detector)
    exact2 = montecarlo.exact_lambda2(code.signatures[j] - code.signatures[i], channel, detector)
    bound1_log, bound2_log = scheme.analytic_error_bounds(
        code.k, args.delta, code.min_distance / 2, channel)
    rows = [_mc_row("lambda1", est1, exact=exact1, bound_log=bound1_log),
            _mc_row("lambda2", est2, exact=exact2, bound_log=bound2_log)]
    _write_table(rows, _meta(args), args.out, args.format)
    return EXIT_OK


def cmd_heterodyne(args) -> int:
    channel = ChannelModel(args.noise)
    code = _load_or_build_code(args)
    sigma2 = channel.n_thermal + 1  # shot noise plus thermal extension
    tau = args.tau if args.tau is not None else code.k * sigma2 * (1 + args.delta)
    spec = montecarlo.HeterodyneSpec(noise_variance=sigma2, threshold=tau)
    sim = montecarlo.heterodyne_simulate(
        code.k, code.closest_pair[0], spec, args.trials, args.seed)
    ana = montecarlo.heterodyne_analytic(code.k, spec, code.min_distance)
    rows = [_mc_row("lambda1", sim["lambda1"], analytic=ana["lambda1"]),
            _mc_row("lambda2", sim["lambda2_worst"], analytic=ana["lambda2"])]
    _write_table(rows, _meta(args), args.out, args.format)
    return EXIT_OK


def _verify_checks():
    """(name, max_deviation, tolerance) triples for the oracle suite."""
    checks = []

    # Chernoff optimization reproduces the closed-form upper-tail exponent.
    dev = 0.0
    for d in (0.1, 0.5, 1.0, 2.0):
        for n in (0.2, 0.5, 1.0, 2.0):
            ch = ChannelModel(n)
            dev = max(dev, abs(photonstats.chernoff_upper_exponent(d, ch)
                               - photonstats.lambda_exponent(d, ch)))
    checks.append(("chernoff_equals_lambda", dev, 1e-9))

    # pmf matches the Fock-space diagonal.
    dev = 0.0
    for alpha, n in ((1.0, 0.5), (0.7 + 0.4j, 1.0), (1.4j, 0.3)):
        ch = ChannelModel(n)
        rho = fockspace.displaced_thermal_density(alpha, ch, 60)
        diag = np.diag(rho).real
        pmf = photonstats.photon_pmf_array(20, abs(alpha) ** 2, ch)
        dev = max(dev, float(np.max(np.abs(diag[:21] - pmf))))
    checks.append(("pmf_matches_fock_diagonal", dev, 1e-9))

    # Closed-form coherent overlap matches <beta| S_N(alpha) |beta>.
    dev = 0.0
    for alpha, beta, n in ((0.5, 1.5, 1.0), (1.0 + 0.5j, -0.2 + 0.1j, 0.5)):
        ch = ChannelModel(n)
        rho = fockspace.displaced_thermal_density(alpha, ch, 60)
        vec = fockspace.coherent_state_vector(beta, 60)
        numeric = float((vec.conj() @ rho @ vec).real)
        exact = fockspace.overlap_closed_form([alpha], [beta], ch)
        dev = max(dev, abs(numeric - exact))
    checks.append(("overlap_closed_form", dev, 1e-8))

    # Uhlmann fidelity matches exp(-d^2 / (2N+1)).
    dev = 0.0
    for alpha, beta, n in ((0.0, 1.0, 0.5), (0.5, -0.8 + 0.6j, 1.0)):
        ch = ChannelModel(n)
        num = fockspace.fidelity_numeric(
            fockspace.displaced_thermal_density(alpha, ch, 60),
            fockspace.displaced_thermal_density(beta, ch, 60),
        )
        dev = max(dev, abs(num - fockspace.fidelity_displaced_thermal([alpha], [beta], ch)))
    checks.append(("fidelity_closed_form", dev, 1e-4))

    # Fuchs-van de Graaf chain: (1 - sqrt(F))^2 <= T^2 <= 1 - F.
    dev = 0.0
    for alpha, beta, n in ((0.0, 1.2, 1.0), (0.5j, -0.5, 0.3)):
        ch = ChannelModel(n)
        r1 = fockspace.displaced_thermal_density(alpha, ch, 60)
        r2 = fockspace.displaced_thermal_density(beta, ch, 60)
        f = fockspace.fidelity_numeric(r1, r2)
        t = fockspace.trace_distance_numeric(r1, r2)
        dev = max(dev, (1 - math.sqrt(f)) ** 2 - t**2, t**2 - (1 - f))
    checks.append(("fuchs_van_de_graaf_chain", dev, 1e-6))

    return checks


def cmd_verify(args) -> int:
    failures = 0
    for name, dev, tol in _verify_checks():
        ok = dev <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name} max_dev={dev:.3e} tol={tol:.0e}")
    return EXIT_OK if failures == 0 else EXIT_ORACLE


_FLAGS = {
    "k": (("--k",), dict(type=str, default="4",
                         help="block length, or comma-separated list for sweeps")),
    "energy": (("--energy", "-E"), dict(type=float, default=4.0,
                                        help="per-mode energy budget E")),
    "noise": (("--noise", "-N"), dict(type=float, default=1.0,
                                      help="mean thermal photon number N")),
    "delta": (("--delta",), dict(type=float, default=1.0, help="detector threshold slack")),
    "rho": (("--rho",), dict(type=float, default=None, help="separation radius")),
    "gamma": (("--gamma",), dict(type=float, default=None,
                                 help="use rho^2 = gamma ln k instead of --rho")),
    "seed": (("--seed",), dict(type=int, default=1234)),
    "trials": (("--trials",), dict(type=int, default=100_000)),
    "code": (("--code",), dict(type=str, default=None,
                               help="load a serialized signature set instead of building one")),
    "out": (("--out",), dict(type=str, default=None, help="output file path")),
    "format": (("--format",), dict(choices=("csv", "json"), default="csv")),
}


def _add_flags(parser, *names):
    for name in names:
        flags, kwargs = _FLAGS[name]
        parser.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonid",
        description="Deterministic multi-user identification over noisy bosonic "
                    "channels: bounds, codes, and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=f"bosonid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="tabulate achievability/converse bounds")
    _add_flags(p, "k", "energy", "noise", "delta", "rho", "gamma", "out", "format")
    p.add_argument("--delta-k", type=float, default=None, dest="delta_k",
                   help="converse error level (default 1/k; must be < 1/4)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("pack", help="build and serialize a signature set")
    _add_flags(p, "k", "energy", "rho", "seed", "out")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("simulate", help="Monte Carlo detector error estimates")
    _add_flags(p, "k", "energy", "noise", "delta", "rho", "seed", "trials", "code",
               "out", "format")
    p.add_argument("--pair-strategy", choices=("worst_pair", "all_pairs_sampled"),
                   default="worst_pair", dest="pair_strategy")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("heterodyne", help="heterodyne ball-test baseline")
    _add_flags(p, "k", "energy", "noise", "delta", "rho", "seed", "trials", "code",
               "out", "format")
    p.add_argument("--tau", type=float, default=None,
                   help="heterodyne acceptance radius squared (default k sigma^2 (1 + delta))")
    p.set_defaults(func=cmd_heterodyne)

    p = sub.add_parser("verify", help="run the exact-oracle verification suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func in (cmd_pack, cmd_simulate, cmd_heterodyne):
            ks = _parse_k_list(args.k)
            if len(ks) != 1:
                raise ValueError("this command takes a single --k value")
            args.k = ks[0]
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
