"""Command-line front end: bounds tables, code construction, Monte Carlo runs,
and the oracle verification suite.

Subcommands: bounds | pack | simulate | verify | heterodyne.  Every output
table carries the artifact version and a hash of the effective configuration,
and the random commands also their seed, so reruns with identical arguments
are byte-identical.
Exit codes: 0 success, 1 validation error (or a failed allocation), 2 oracle/acceptance failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, fockspace, montecarlo, photonstats, scheme
from .photonstats import ChannelModel, DetectorSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 2


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0
    return str(value)


def _config_hash(config: dict) -> str:
    import hashlib  # here, and json where it is used: `import bosonid.cli` loads neither
    import json

    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _json_cell(value):
    """A float as the number its CSV cell shows; JSON has no number for a
    non-finite one, so that is the CSV cell's text: "inf", "-inf" or "nan"."""
    if not isinstance(value, float):
        return value
    return float(_fmt(value)) if math.isfinite(value) else _fmt(value)


def _write_table(rows, meta, out, fmt):
    """Write rows, dicts with the same keys in column order, as CSV or JSON."""
    fieldnames = list(rows[0])
    if fmt == "json":
        import json

        doc = {"meta": meta,
               "rows": [{name: _json_cell(r[name]) for name in fieldnames} for r in rows]}
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
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
              if key not in ("seed", "out", "command")}
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
    if args.gamma is not None and min(ks) < 2:
        raise ValueError("--gamma needs every k >= 2 (rho^2 = gamma ln k is 0 at k = 1), "
                         f"got --k {args.k}")
    if args.delta_k is None and min(ks) <= 4:
        raise ValueError("--delta-k defaults to 1/k, which the converse needs below 1/4: "
                         f"pass --delta-k, or use k >= 5 (got k = {min(ks)})")
    rows = []
    for k in ks:
        delta_k = args.delta_k if args.delta_k is not None else 1.0 / k
        rho = args.rho if args.rho is not None else math.sqrt(args.gamma * math.log(k))
        log_lower = scheme.achievable_users_log(k, args.energy, rho)
        log_upper = scheme.converse_users_log(k, args.energy, delta_k, channel)
        l1, l2 = photonstats.analytic_error_bounds(k, args.delta, 4 * rho**2, channel)
        try:
            threshold = DetectorSpec.make(args.delta, k, channel).threshold
        except ValueError:  # a threshold beyond 2^53 counts, which floats do not resolve
            l1_exact = math.nan
        else:  # -inf at N = 0, where the count is 0
            l1_exact = photonstats.log_tail_probability(k, 0.0, channel, threshold, upper=True)
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
    code, _ = _load_or_build_code(args)
    if args.out:
        scheme.save_signature_set(args.out, code)
    print(f"M={len(code)}")
    print(f"min_distance={_fmt(code.min_distance)}")
    print(f"energy_max={_fmt(float(code.energies().max()))}")
    return EXIT_OK


def _load_or_build_code(args, prepare=lambda k: None):
    """(code, prepare(k)): the --code file if one is given, else a code packed
    at --rho from --seed.  prepare(k), then `build_code`, check their arguments
    before any packing, so a range error comes before the packing's cost."""
    if getattr(args, "code", None):
        code = scheme.load_signature_set(args.code)
        return code, prepare(code.k)
    if args.rho is None:
        raise ValueError("--rho is required to build a code")
    prepared = prepare(args.k)
    rng = np.random.default_rng(args.seed)
    return scheme.build_code(args.k, args.energy, args.rho, rng), prepared


def _mc_row(name, est, **exact) -> dict:
    """A Monte Carlo table row: the estimate, its Wilson interval, the exact
    columns, the trial count."""
    low, high = montecarlo.wilson_interval(est.successes, est.trials)
    return {"quantity": name, "point": est.point, "stderr": est.stderr,
            "wilson_low": low, "wilson_high": high, **exact, "trials": est.trials}


def cmd_simulate(args) -> int:
    channel = ChannelModel(args.noise)
    code, detector = _load_or_build_code(args, lambda k: DetectorSpec.make(args.delta, k, channel))
    d2 = code.closest_pair
    pairs = d2 if args.pair_strategy == "worst_pair" else montecarlo.sampled_pairs(code.rows)
    est = montecarlo.estimate_errors(pairs, channel, detector, args.trials, args.seed)
    exact1 = montecarlo.exact_lambda1(channel, detector)
    exact2 = math.exp(photonstats.log_tail_probability(code.k, d2, channel, detector.threshold,
                                                       upper=False))
    bound1_log, bound2_log = photonstats.analytic_error_bounds(code.k, args.delta, d2, channel)
    rows = [_mc_row("lambda1", est["lambda1"], exact=exact1, bound_log=bound1_log),
            _mc_row("lambda2", est["lambda2"], exact=exact2, bound_log=bound2_log)]
    _write_table(rows, _meta(args), args.out, args.format)
    return EXIT_OK


def cmd_heterodyne(args) -> int:
    channel = ChannelModel(args.noise)
    code, spec = _load_or_build_code(
        args, lambda k: montecarlo.HeterodyneSpec.make(args.delta, k, channel))
    sim = montecarlo.heterodyne_simulate(code.k, code.closest_pair, spec, args.trials, args.seed)
    ana = montecarlo.heterodyne_analytic(code.k, spec, code.min_distance)
    rows = [_mc_row("lambda1", sim["lambda1"], analytic=ana["lambda1"]),
            _mc_row("lambda2", sim["lambda2"], analytic=ana["lambda2"])]
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

    # exact_lambda2 at Delta = [alpha] and [alpha_i, alpha_j] matches partial
    # sums of the Fock-space diagonal of one state and of its convolution with
    # the next state's: at one N the law of the two modes' summed count
    # depends only on their summed energy.
    dev = 0.0
    ch = ChannelModel(0.5)
    alphas = (1.0, 0.7 + 0.4j, 1.4j)
    diags = [np.diag(fockspace.displaced_thermal_density(a, ch, 60)).real for a in alphas]
    for i, alpha in enumerate(alphas):
        j = (i + 1) % len(alphas)
        for delta, pmf in (([alpha], diags[i]),
                           ([alpha, alphas[j]], np.convolve(diags[i], diags[j]))):
            cdf = np.cumsum(pmf)
            for t in (0, 1, 6):
                exact = montecarlo.exact_lambda2(delta, ch, DetectorSpec(len(delta), t))
                dev = max(dev, abs(exact - float(cdf[t])))
    checks.append(("tail_matches_fock_diagonal", dev, 1e-12))

    # <beta| S_N(alpha) |beta> = P(S_1 = 0) at Delta = [alpha - beta]: the
    # displacement covariance that leaves lambda2 a function of ||Delta||^2.
    dev = 0.0
    for alpha, beta, n in ((0.5, 1.5, 1.0), (1.0 + 0.5j, -0.2 + 0.1j, 0.5)):
        ch = ChannelModel(n)
        rho = fockspace.displaced_thermal_density(alpha, ch, 60)
        vec = fockspace.coherent_state_vector(beta, 60)
        numeric = float((vec.conj() @ rho @ vec).real)
        exact = montecarlo.exact_lambda2([alpha - beta], ch, DetectorSpec(1, 0))
        dev = max(dev, abs(numeric - exact))
    checks.append(("overlap_matches_zero_count_tail", dev, 1e-12))

    # The converse counts signatures d0 apart, where the fidelity of two
    # displaced thermal states, exp(-d0^2 / (2N+1)), is 4 delta_k.  At k = 1
    # and E = 1, logM_upper = 2 ln(1 + 4 / d0) gives d0 back.  From that
    # fidelity the converse bounds the trace distance by the Fuchs-van de
    # Graaf chain, (1 - sqrt(F))^2 <= T^2 <= 1 - F, checked on the same pairs.
    dev = chain = 0.0
    for delta_k, n in ((0.1, 1.0), (0.01, 0.5)):
        ch = ChannelModel(n)
        d0 = 4 / math.expm1(scheme.converse_users_log(1, 1.0, delta_k, ch) / 2)
        pair = (fockspace.displaced_thermal_density(0.0, ch, 60),
                fockspace.displaced_thermal_density(d0, ch, 60))
        f = fockspace.fidelity_numeric(*pair)
        t = fockspace.trace_distance_numeric(*pair)
        dev = max(dev, abs(f - 4 * delta_k))
        chain = max(chain, (1 - math.sqrt(f)) ** 2 - t**2, t**2 - (1 - f))
    checks.append(("converse_distance_matches_fock_fidelity", dev, 1e-10))
    checks.append(("fuchs_van_de_graaf_chain", chain, 1e-6))

    return checks


def cmd_verify(args) -> int:
    failures = 0
    for name, dev, tol in _verify_checks():
        ok = dev <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name} max_dev={dev:.3e} tol={tol:.0e}")
    return EXIT_OK if failures == 0 else EXIT_ORACLE


# One row per flag: its option strings, its argparse keywords, and the library
# parameters whose `RangeError` it answers for.
_FLAGS = {
    "k": (("--k",), dict(type=str, default="4",
                         help="block length, or comma-separated list for sweeps"), ()),
    "single_k": (("--k",), dict(type=str, default="4", help="block length"), ()),
    "energy": (("--energy", "-E"), dict(type=float, default=4.0,
                                        help="per-mode energy budget E"), ("energy", "radius")),
    "noise": (("--noise", "-N"), dict(type=float, default=1.0,
                                      help="mean thermal photon number N"),
              ("n_thermal", "threshold")),
    "delta": (("--delta",), dict(type=float, default=1.0, help="detector threshold slack"),
              ("delta", "threshold")),
    "delta_k": (("--delta-k",), dict(type=float, default=None,
                                     help="converse error level (default 1/k; must be < 1/4)"),
                ("delta_k",)),
    "rho": (("--rho",), dict(type=float, default=None, help="separation radius"), ("rho",)),
    "gamma": (("--gamma",), dict(type=float, default=None,
                                 help="use rho^2 = gamma ln k instead of --rho"), ("rho",)),
    "seed": (("--seed",), dict(type=int, default=1234), ()),
    "trials": (("--trials",), dict(type=int, default=100_000), ()),
    "code": (("--code",), dict(type=str, default=None,
                               help="load a serialized signature set instead of building one"),
             ()),
    "out": (("--out",), dict(type=str, default=None, help="output file path"), ()),
    "format": (("--format",), dict(choices=("csv", "json"), default="csv"), ()),
    "pair_strategy": (("--pair-strategy",), dict(choices=("worst_pair", "all_pairs_sampled"),
                                                 default="worst_pair"), ()),
}

# One row per subcommand: its help, its handler and its `_FLAGS` rows in --help order.
_COMMANDS = {
    "bounds": ("tabulate achievability/converse bounds", cmd_bounds,
               ("k", "energy", "noise", "delta", "rho", "gamma", "out", "format", "delta_k")),
    "pack": ("build and serialize a signature set", cmd_pack,
             ("single_k", "energy", "rho", "seed", "out")),
    "simulate": ("Monte Carlo detector error estimates", cmd_simulate,
                 ("single_k", "energy", "noise", "delta", "rho", "seed", "trials", "code",
                  "out", "format", "pair_strategy")),
    "heterodyne": ("heterodyne ball-test baseline: accept within squared radius "
                   "k (N + 1) (1 + delta)", cmd_heterodyne,
                   ("single_k", "energy", "noise", "delta", "rho", "seed", "trials", "code",
                    "out", "format")),
    "verify": ("run the exact-oracle verification suite", cmd_verify, ()),
}


@functools.cache  # one parser per process, built by the first `main`
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonid",
        description="Deterministic multi-user identification over noisy bosonic "
                    "channels: bounds, codes, and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=f"bosonid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            flags, kwargs, _ = _FLAGS[name]
            p.add_argument(*flags, **kwargs)
    return parser


def _flags_at_fault(exc, args) -> str:
    """'<flags>: ' for a `RangeError`: once each, the flags whose `_FLAGS` rows
    list the parameters it names (rho is --gamma's where --gamma was given,
    else --rho's); else ''."""
    idle = "--rho" if getattr(args, "gamma", None) is not None else "--gamma"
    named = dict.fromkeys(flags[0] for p in getattr(exc, "params", ())
                          for flags, _, params in _FLAGS.values()
                          if p in params and flags[0] != idle)
    return " and ".join(named) + ": " if named else ""


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed usage and an error, or --help / --version
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "trials", 1) < 1:
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
        _, handler, names = _COMMANDS[args.command]
        if "single_k" in names:
            try:
                (args.k,) = _parse_k_list(args.k)
            except ValueError:  # not a list of integers >= 1, or more than one
                raise ValueError("this command takes a single --k value, an integer >= 1; "
                                 f"got {args.k!r}") from None
        # range-checked even where --code leaves them unused
        for flag in ("--energy", "--rho", "--gamma"):
            value = getattr(args, flag[2:], None)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{flag} must be finite and > 0, got {value}")
        status = handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's last flush
        return status
    except BrokenPipeError:  # the reader of stdout left early, as `head -1` does
        # the interpreter flushes stdout again at exit: that write goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {_flags_at_fault(exc, args)}{exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
