"""Spans around bosonid's public functions, installed from outside the package.

`Tracer.install` replaces every function named in a module's `__all__` by a
wrapper that records a span (name, start, end, parent).  The wrapper is bound
wherever the original function object is reachable as a module attribute,
so calls through another module's import (`montecarlo.exact_total_pmf`) and
module-global calls inside a module (`geometry.greedy_packing` calling
`sample_uniform_ball`) are traced too.  `uninstall` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

# Work counts stored with a span, read from the call's result: points
# accepted, pmf cells computed, support of a count law, Monte Carlo trials.
_COUNTS = {
    "geometry.greedy_packing": len,
    "photonstats.photon_pmf_array": len,
    "photonstats.exact_total_pmf": len,
    "montecarlo.estimate_lambda1": lambda r: r.trials,
    "montecarlo.estimate_lambda2": lambda r: r.trials,
    "montecarlo.heterodyne_simulate": lambda r: r["lambda1"].trials,
}


def _pair_strategy(args, kwargs):
    return kwargs.get("pair_strategy", args[5] if len(args) > 5 else "worst_pair")


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count]
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, count=0):
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = count

    @contextlib.contextmanager
    def root(self, name):
        """A span opened by the benchmark itself, around one operation."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        count = _COUNTS.get(name)
        by_strategy = name == "montecarlo.estimate_lambda2"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{_pair_strategy(args, kwargs)}" if by_strategy else name
            index = self._open(label)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, count(result) if count and result is not None else 0)

        return wrapper

    def install(self, modules, extra=()):
        """Wrap every `__all__` function of `modules` and the `extra`
        (module, attribute) pairs, rebinding them in every loaded module of
        the package."""
        targets = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    targets.append((f"{short}.{attr}", fn))
        for mod, attr in extra:
            targets.append((f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}", getattr(mod, attr)))
        package = modules[0].__name__.split(".", 1)[0]
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package or n.startswith(package + "."))]
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")


def summarize(spans, root_index):
    """Per-name totals over the subtree of one root span.

    Returns {name: {"calls", "total_s", "self_s", "count"}}; the root's own
    entry holds the time the benchmark spent outside every traced call.
    """
    children_time = {}
    inside = {root_index}
    out = {}
    for i in range(root_index + 1, len(spans)):
        name, start, end, parent, count = spans[i]
        if parent not in inside:
            break
        inside.add(i)
        children_time[parent] = children_time.get(parent, 0.0) + (end - start)
    for i in sorted(inside):
        name, start, end, parent, count = spans[i]
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - children_time.get(i, 0.0)
        entry["count"] += count
    return out
