"""Benchmark of bosonid, driven from outside the package.

    python3 benchmark/run.py --workload {pack,simulate,oracles} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  bosonid is imported from `src/`.  The run
repeats whole rounds of the workload's operations until `--seconds` have
passed, checks every output against `oracles`, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` each round runs once plain and once traced, and the metrics are
the per-layer ones.  Inputs, outputs and spans go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import bosonid.cli; bosonid.cli.build_parser()")
LAYER_MODULES = ("geometry", "scheme", "photonstats", "montecarlo", "fockspace")


def cap_threads():
    """Cap BLAS and OpenMP pools at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        os.environ[var] = str(min(int(value), n) if value.isdigit() and int(value) > 0 else n)


def time_setup():
    """Median wall time from a fresh interpreter to `bosonid.cli` imported
    and its parser built."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Times and checks operations; one list of (name, seconds, failures) per
    round.  With a tracer, each operation runs inside a root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []
        self.check_errors = 0

    def __call__(self, name, fn, check):
        if self.tracer:
            with self.tracer.root(f"bench.{name}"):
                result, seconds = self._time(fn)
        else:
            result, seconds = self._time(fn)
        if isinstance(result, Exception):
            fails = [f"raised {type(result).__name__}: {result}"]
        else:
            try:
                fails = check(result)
            except Exception as exc:  # an output the checks cannot read
                self.check_errors += 1
                fails = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        self.ops.append((name, seconds, fails))

    @staticmethod
    def _time(fn):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation that raises has failed
            result = exc
        return result, time.perf_counter() - start

    def round(self, workload, j):
        first = len(self.ops)
        workload.round(j, self)
        return self.ops[first:]


def layer_metrics(s):
    """Per-layer figures of one traced round from its span summary."""
    def get(name, key):
        return s.get(name, {}).get(key, 0)

    def ns_per_trial(name):
        trials = get(name, "count")
        return 1e9 * get(name, "self_s") / trials if trials else 0.0

    return {
        "geometry.greedy_packing_s": get("geometry.greedy_packing", "total_s"),
        "geometry.screen_s": get("geometry.greedy_packing", "self_s"),
        "geometry.sample_uniform_ball_s": get("geometry.sample_uniform_ball", "total_s"),
        "geometry.sample_uniform_ball_calls": get("geometry.sample_uniform_ball", "calls"),
        "geometry.points_accepted": get("geometry.greedy_packing", "count"),
        "geometry.min_pairwise_distance_s": get("geometry.min_pairwise_distance", "total_s"),
        "scheme.build_code_s": get("scheme.build_code", "total_s"),
        "scheme.save_signature_set_s": get("scheme.save_signature_set", "total_s"),
        "scheme.load_signature_set_s": get("scheme.load_signature_set", "total_s"),
        "photonstats.exact_total_pmf_s": get("photonstats.exact_total_pmf", "total_s"),
        "photonstats.photon_pmf_array_calls": get("photonstats.photon_pmf_array", "calls"),
        "photonstats.pmf_cells": get("photonstats.photon_pmf_array", "count"),
        "photonstats.exact_support": get("photonstats.exact_total_pmf", "count"),
        "photonstats.chernoff_s": (get("photonstats.chernoff_upper_exponent", "total_s")
                                   + get("photonstats.chernoff_lower_logbound", "total_s")),
        "montecarlo.lambda1_ns_per_trial": ns_per_trial("montecarlo.estimate_lambda1"),
        "montecarlo.lambda2_worst_ns_per_trial":
            ns_per_trial("montecarlo.estimate_lambda2.worst_pair"),
        "montecarlo.lambda2_all_pairs_ns_per_trial":
            ns_per_trial("montecarlo.estimate_lambda2.all_pairs_sampled"),
        "montecarlo.heterodyne_ns_per_trial": ns_per_trial("montecarlo.heterodyne_simulate"),
        "montecarlo.worst_pair_delta_s": get("montecarlo.worst_pair_delta", "total_s"),
        "montecarlo.exact_lambda1_s": get("montecarlo.exact_lambda1", "total_s"),
        "montecarlo.exact_lambda2_s": get("montecarlo.exact_lambda2", "total_s"),
        "montecarlo.heterodyne_analytic_s": get("montecarlo.heterodyne_analytic", "total_s"),
        "fockspace.displacement_matrix_s": get("fockspace.displacement_matrix", "total_s"),
        "fockspace.displacement_matrix_calls": get("fockspace.displacement_matrix", "calls"),
        "fockspace.fidelity_numeric_s": get("fockspace.fidelity_numeric", "total_s"),
        "fockspace.trace_distance_numeric_s": get("fockspace.trace_distance_numeric", "total_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.layers_self_s": sum(v["self_s"] for n, v in s.items()
                                   if not n.startswith("bench.")),
    }


def merge(summaries):
    out = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] += value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bosonid" / "__init__.py").is_file():
        print(f"error: no bosonid sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cap_threads()
    sys.path.insert(0, str(SRC))

    from bosonid import cli, fockspace, geometry, montecarlo, photonstats, scheme

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    lib = types.SimpleNamespace(cli=cli, fockspace=fockspace, geometry=geometry,
                                montecarlo=montecarlo, photonstats=photonstats,
                                scheme=scheme)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_s = None if args.trace else time_setup()
    workload = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
    plain = Runner()
    tracer = spans.Tracer() if args.trace else None
    traced = Runner(tracer)
    layer_modules = [getattr(lib, m) for m in LAYER_MODULES]

    rounds, layer_rounds, overheads = [], [], []
    start = time.perf_counter()
    j = 0
    while j == 0 or time.perf_counter() - start < args.seconds:
        ops = plain.round(workload, j)
        rounds.append([(name, seconds) for name, seconds, _ in ops])
        if tracer:
            first = len(tracer.spans)
            tracer.install(layer_modules, extra=[(cli, "main")])
            try:
                traced_ops = traced.round(workload, j)
            finally:
                tracer.uninstall()
            roots = [i for i in range(first, len(tracer.spans)) if tracer.spans[i][3] == -1]
            layer_rounds.append(layer_metrics(merge(
                spans.summarize(tracer.spans, i) for i in roots)))
            overheads.append(sum(s for _, s, _ in traced_ops) - sum(s for _, s, _ in ops))
        j += 1

    round_times = [sum(s for _, s in r) for r in rounds]
    commands = workload.commands(rounds)
    if tracer:
        tracer.dump(workdir / "spans.jsonl")
        values = {name: statistics.median(r[name] for r in layer_rounds)
                  for name in layer_rounds[0]}
        values["trace.untraced_round_s"] = statistics.median(round_times)
        values["trace.overhead_s"] = statistics.median(overheads)
        for name in workloads.COMMAND_METRICS:
            values[name] = commands.get(name, 0.0)
        wanted = spec["per_layer"]
    else:
        # the mean over distinct inputs, or the median over repeats of one input
        typical = statistics.fmean if workload.fresh_input_each_round else statistics.median
        values = {"setup_s": setup_s,
                  "round_s": typical(round_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        wanted = spec["end_to_end"]

    ops_run = plain.ops + traced.ops
    failures = collections.Counter((name, msg) for name, _, fails in ops_run for msg in fails)
    for (name, msg), times in failures.items():
        print(f"FAIL {args.workload}/{name} (x{times}): {msg}", file=sys.stderr)
    result = {
        "correct": plain.check_errors + traced.check_errors == 0,
        "attempted": len(ops_run),
        "failed": sum(1 for _, _, fails in ops_run if fails),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (workdir / "result.json").write_text(json.dumps(
        {**result, "rounds": len(rounds), "commands": commands,
         "round_s": round_times}, indent=1) + "\n")
    print(f"{args.workload}: {len(rounds)} rounds, commands "
          + ", ".join(f"{k}={v:.6g}" for k, v in commands.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
