"""Spans around the calls into sigmagap, recorded from outside the package.

``Tracer.install`` replaces every public function of every loaded
``sigmagap`` module by a wrapper, both at its own module and at every
module global that refers to the same object (the names bound by
``from .x import y``).  A call made inside the package therefore goes
through the wrapper too, so nested calls become child spans.  Spans are
kept in memory and written out once, when the traced process ends; the
per-layer numbers are computed from them afterwards.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

PACKAGE = "sigmagap"
LAYERS = ("model", "kernels", "regions", "operators", "covariance",
          "forests", "twopoint", "cli")

# lru caches whose hit ratio is a per-layer metric: metric -> (module, name)
CACHES = {
    "covariance.assembly.cache_hit_ratio": ("covariance", "_assembly_cached"),
    "operators.propagator_matrix.cache_hit_ratio":
        ("operators", "_propagator_matrix_cached"),
}


def _is_public_function(mod, attr, obj):
    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or isinstance(obj,
                                                 functools._lru_cache_wrapper)


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent].

    ``probes`` maps a span name to a function of the call's return value;
    its results are collected in ``values[name]``."""

    def __init__(self, probes=None):
        self.spans = []
        self.values = {}
        self.probes = probes or {}
        self._stack = []
        self._paused = False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name in self.probes:
                self.values.setdefault(name, []).append(
                    self.probes[name](result))
            return result
        return traced

    def install(self):
        mods = [m for key, m in sorted(sys.modules.items())
                if key.startswith(PACKAGE + ".") and m is not None]
        wrapped = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if _is_public_function(mod, attr, obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}",
                                                        obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one operation."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (benchmark input generation)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


class NullTracer:
    """Stands in for Tracer in untraced runs."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    @contextlib.contextmanager
    def paused(self):
        yield


def cache_ratios():
    """Hit ratio of each named lru cache; a cache that no longer exists is
    reported as absent (None), not as a failure."""
    out = {}
    for metric, (layer, name) in CACHES.items():
        fn = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), name, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            out[metric] = None
            continue
        info = info()
        total = info.hits + info.misses
        out[metric] = info.hits / total if total else 0.0
    return out


class SpanTable:
    """Durations, self times and busy times computed from raw spans."""

    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.parent = [s[3] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _has_ancestor(self, i, pred):
        p = self.parent[i]
        while p >= 0:
            if pred(self.names[p]):
                return True
            p = self.parent[p]
        return False

    def calls(self, name):
        return sum(1 for n in self.names if n == name)

    def busy(self, pred, under=None):
        """Wall time inside spans matching pred, counting nested matches
        once; with ``under``, only spans that have such an ancestor."""
        return sum((d for i, (n, d) in enumerate(zip(self.names, self.dur))
                    if pred(n) and not self._has_ancestor(i, pred)
                    and (under is None or self._has_ancestor(i, under))), 0.0)

    def self_sum(self, pred, under=None):
        return sum((s for i, (n, s) in enumerate(zip(self.names,
                                                    self.self_time))
                    if pred(n) and (under is None
                                    or self._has_ancestor(i, under))), 0.0)


def _is(name):
    return lambda n: n == name


def _in_layer(layer):
    return lambda n: n.startswith(layer + ".")


def _tabulate(n):
    return n.startswith("kernels.") and n != "kernels.propagator_values"


def layer_metrics(spans, values, caches):
    """Per-layer numbers of one traced process, keyed by metric name."""
    t = SpanTable(spans)
    phases = values.get("twopoint.estimate_S2", [])
    samples = sum(count for _, count in phases)
    est_self = t.self_sum(_is("twopoint.estimate_S2"))
    op_time = t.busy(_is("bench.op"))
    in_package = (lambda n: n.split(".", 1)[0] in LAYERS)
    under_op = t.self_sum(in_package, under=_is("bench.op"))
    out = {
        "twopoint.estimate_S2.self_s": est_self,
        "twopoint.sample_ms": 1e3 * est_self / samples if samples else 0.0,
        "twopoint.phase_diagnostic":
            sorted(p for p, _ in phases)[len(phases) // 2] if phases else 0.0,
        "covariance.damping_report.self_s":
            t.self_sum(_is("covariance.damping_report")),
        "covariance.neumann_terms":
            float(max(values.get("covariance.build_Cgamma", [0]))),
        "kernels.tabulate.busy_s": t.busy(_tabulate),
        "forests.busy_s": t.busy(_in_layer("forests")),
        "cli.estimate_S2.busy_s":
            t.busy(_is("twopoint.estimate_S2"), under=_in_layer("cli")),
        "trace.spans": float(len(spans)),
        "trace.accounted_ratio": under_op / op_time if op_time else 0.0,
    }
    for name in BUSY:
        out[f"{name}.busy_s"] = t.busy(_is(name))
    for name in CALLS:
        out[f"{name}.calls"] = float(t.calls(name))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.self_sum(_in_layer(layer))
    out.update(caches)
    return out


# functions whose busy time / call count is a per-layer metric
BUSY = ("twopoint.match_decay_mass", "covariance.build_C0",
        "covariance.build_Cgamma", "covariance.build_deltaC",
        "covariance.compute_Zgamma", "operators.propagator_matrix",
        "operators.build_A", "operators.det_reg", "operators.operator_norm",
        "kernels.propagator_values", "regions.classify_squares",
        "regions.build_regions", "model.derive_params", "cli.run_gap_checks",
        "cli.run_kernel_checks", "cli.run_decompose_checks", "cli.run_opcheck",
        "cli.run_covariance_checks", "cli.run_forest_checks",
        "cli.persist_results")
CALLS = ("operators.propagator_matrix", "kernels.propagator_values",
         "model.solve_gap_equation")
