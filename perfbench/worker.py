"""One workload process of the benchmark.

Usage (started by run.py, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py run --workload W --seed S [--process J]
        [--seconds T | --ops N] [--trace] [--spans PATH]
    python3 perfbench/worker.py battery --seed S --out DIR [--spans PATH]

``run`` builds the inputs, solves the gap equation and runs one warm-up
operation, reports when it was ready, then runs operations for T seconds
(or N operations), checking each output.  Process J of a run draws its own
inputs from (S, J).
``battery`` runs ``sigmagap accept-all --profile quick`` in this process
under the tracer.  The last line of stdout is a JSON report.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import NullTracer, Tracer, cache_ratios, layer_metrics  # noqa: E402

# criterion 11's size: 8x8 unit squares at 3x3 sites per square
TWOPOINT_SAMPLES = 20        # samples per estimate_S2 call (one operation)
SEEDS_PER_RUN = 100_000      # seed stride between benchmark seeds
SEEDS_PER_PROCESS = 1_000    # seed stride between the processes of a run

# criterion 10's pipeline: lambda=32, K=1, N=1e6, corridor 2, pad 2
COV_LAM, COV_K, COV_N, COV_CORRIDOR, COV_PAD = 32.0, 1.0, 10 ** 6, 2.0, 2


class OperationFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


# ---------------------------------------------------------------------------
# twopoint_mc

def check_twopoint(res, m):
    """Raise OperationFailed unless the estimate passes criterion 11's gates
    and its fitted mass is what the estimates themselves give."""
    from sigmagap import twopoint
    ratio = res.fitted_mprime / m
    if not res.phase_diagnostic >= 0.05:
        raise OperationFailed(f"phase {res.phase_diagnostic:.3g} < 0.05")
    if not res.fit_residual >= 0.95:
        raise OperationFailed(f"fit R^2 {res.fit_residual:.4g} < 0.95")
    if not 0.7 < ratio < 1.3:
        raise OperationFailed(f"m'/m = {ratio:.4g} outside (0.7, 1.3)")
    lo, hi = res.fit_window
    sel = (res.separations >= lo - 1e-12) & (res.separations <= hi + 1e-12)
    try:
        refit = twopoint.match_decay_mass(res.separations[sel],
                                          res.estimates[sel],
                                          res.stderr[sel])[0]
    except ArithmeticError as exc:
        raise OperationFailed(f"estimates do not refit: {exc}") from exc
    if abs(refit - res.fitted_mprime) > 1e-8 * abs(res.fitted_mprime):
        raise OperationFailed(f"refit mass {refit!r} differs from "
                              f"reported {res.fitted_mprime!r}")


def same_estimates(a, b, rtol=1e-10):
    scale = np.max(np.abs(a.estimates))
    return bool(np.max(np.abs(a.estimates - b.estimates)) <= rtol * scale)


def outputs_agree(a, b, rtol=1e-10):
    """Operation outputs (nested lists of numbers) equal to rtol; inf and
    nan must match exactly."""
    fa, fb = np.array(_flat(a)), np.array(_flat(b))
    if fa.shape != fb.shape:
        return False
    same = (fa == fb) | (np.isnan(fa) & np.isnan(fb))
    close = np.abs(fa - fb) <= rtol * np.maximum(np.abs(fa), np.abs(fb))
    return bool(np.all(same | close))


def _flat(x):
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flat(item)]
    return [float(x)]


class TwoPointWorkload:
    """Interacting estimate_S2 calls on 576 sites, successive seeds."""

    def __init__(self, seed, process, tracer):
        from sigmagap import model, regions
        self.geo = regions.LatticeGeometry(n=4, sites_per_square=3)
        self.params = model.derive_params(1.0, 1.0, 10 ** 4)
        self.base = SEEDS_PER_RUN * seed + SEEDS_PER_PROCESS * process
        self.first = None

    def next_input(self, k):
        return k

    def op(self, k):
        from sigmagap import twopoint
        try:
            res = twopoint.estimate_S2(self.params, geometry=self.geo,
                                       seed=self.base + k,
                                       n_samples=TWOPOINT_SAMPLES)
        except ArithmeticError as exc:   # SignProblemError included
            raise OperationFailed(f"{type(exc).__name__}: {exc}") from exc
        if self.first is None:
            self.first = (k, res)
        return res

    def check(self, res):
        check_twopoint(res, self.params.m)

    def final_check(self):
        """The first seed again: estimates must reproduce to 1e-10."""
        if self.first is None:
            raise OperationFailed("no estimate to repeat")
        k, first = self.first
        if not same_estimates(self.op(k), first):
            raise OperationFailed("repeated seed changed the estimates")

    @staticmethod
    def output(res):
        return [res.fitted_mprime, res.fit_residual, res.phase_diagnostic,
                [[float(v.real), float(v.imag)] for v in res.estimates]]

    work = TWOPOINT_SAMPLES
    counts = {}


# ---------------------------------------------------------------------------
# covariance_gamma

class CovarianceWorkload:
    """Criterion 10's configuration-dependent covariance pipeline."""

    def __init__(self, seed, process, tracer):
        from sigmagap import kernels, model, regions
        self.params = model.derive_params(COV_LAM, COV_K, COV_N,
                                          corridor_override=COV_CORRIDOR)
        self.geo = regions.LatticeGeometry(n=2, sites_per_square=3)
        self.cut = kernels.CutoffSpec(c=1.0)
        self.rng = np.random.default_rng([seed, process])
        self.tracer = tracer
        self.counts = {"generated": 0, "kept": 0}

    def next_field(self):
        """Criterion 10's generator: a sigma=0.35 background with one or two
        squares at lambda*K*mass in [15, 70], rejected unless exactly those
        squares classify as large with label 1."""
        from sigmagap import regions
        geo, lamk = self.geo, COV_LAM * COV_K
        side = geo.sites_per_side
        with self.tracer.paused():
            while True:
                self.counts["generated"] += 1
                tau = self.rng.normal(size=(side, side)) * 0.35
                nl = 1 + self.rng.integers(0, 2)
                for q in self.rng.choice(16, size=nl, replace=False):
                    i, j = divmod(int(q), 4)
                    u = self.rng.uniform(15.0, 70.0)
                    blk = self.rng.normal(size=(3, 3))
                    blk *= np.sqrt(u / lamk
                                   / (np.sum(blk ** 2) * geo.site_weight))
                    tau[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3] = blk
                fld = regions.FieldConfig.from_tau(geo, tau)
                labels = regions.classify_squares(fld, self.params,
                                                  geo).labels
                if labels.max() == 1 and (labels > 0).sum() == nl:
                    self.counts["kept"] += 1
                    return fld

    def next_input(self, k):
        return self.next_field()

    def op(self, fld):
        from sigmagap import covariance as cov
        from sigmagap import regions
        p, geo, cut = self.params, self.geo, self.cut
        try:
            asg = regions.classify_squares(fld, p, geo)
            reg = regions.build_regions(asg, geo, corridorM=p.corridorM)
            covset = cov.build_Cgamma(p, geo, cut, reg, pad=COV_PAD,
                                      routes="direct")
            dc = cov.build_deltaC(p, geo, cut, reg, pad=COV_PAD)
            z = cov.compute_Zgamma(covset, reg)
            rep = cov.damping_report(fld, p, reg, covset, dc, asg)
        except Exception as exc:  # any raise fails the operation
            raise OperationFailed(f"{type(exc).__name__}: {exc}") from exc
        return dc.identity_residual, z, rep

    @staticmethod
    def check(out):
        residual, z, rep = out
        if not residual < 1e-8:
            raise OperationFailed(f"deltaC identity residual {residual:.3g}")
        if not z >= 1.0:
            raise OperationFailed(f"Z_gamma = {z!r} < 1")
        if not np.isfinite(rep.required_const):
            raise OperationFailed("required_const is not finite")

    def final_check(self):
        pass

    @staticmethod
    def output(out):
        residual, z, rep = out
        return [residual, z, rep.log_value, rep.mass_large, rep.mass_small,
                rep.required_const]

    work = 1


# ---------------------------------------------------------------------------
# process entry points

WORKLOADS = {"twopoint_mc": TwoPointWorkload,
             "covariance_gamma": CovarianceWorkload}
ENTRY_MODULE = {"twopoint_mc": "sigmagap.twopoint",
                "covariance_gamma": "sigmagap.covariance"}
PROBES = {"twopoint.estimate_S2": lambda r: (r.phase_diagnostic,
                                             r.sample_count),
          "covariance.build_Cgamma": lambda r: r.neumann_terms}


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args):
    """Set-up and one warm-up operation, then operations for --seconds (or
    --ops of them).  Process 0 finally re-runs its first input."""
    # load every layer the workload uses before the tracer wraps them
    importlib.import_module(ENTRY_MODULE[args.workload])
    tracer = Tracer(PROBES).install() if args.trace else NullTracer()
    failures, outputs, latencies = [], [], []

    def attempt(k, timed):
        inp = wl.next_input(k)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                out = wl.op(inp)
            if timed:
                latencies.append(time.perf_counter() - t0)
            wl.check(out)
            if timed:
                outputs.append(wl.output(out))
        except OperationFailed as exc:
            failures.append(f"process {args.process} op {k}: {exc}")

    with tracer.span("bench.setup"):
        wl = WORKLOADS[args.workload](args.seed, args.process, tracer)
        attempt(0, timed=False)
    ready_at = time.time()
    start = time.perf_counter()
    k = 0
    while (k < args.ops if args.ops
           else time.perf_counter() < start + args.seconds):
        k += 1
        attempt(k, timed=True)
    wall = time.perf_counter() - start
    attempted = k + 1
    if args.process == 0:
        attempted += 1
        try:
            wl.final_check()
        except OperationFailed as exc:
            failures.append(f"repeat: {exc}")
    report = {"ready_at": ready_at, "latencies": latencies, "wall": wall,
              "work": wl.work * len(latencies), "attempted": attempted,
              "failures": failures,
              "rss_mb": rss_mb(), "outputs": outputs}
    if args.trace:
        layers = layer_metrics(tracer.spans, tracer.values, cache_ratios())
        counts = wl.counts
        layers["regions.accept_ratio"] = (counts["kept"] / counts["generated"]
                                          if counts else 0.0)
        report["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    return report


def run_battery(args):
    """accept-all in this process, traced; exit code is the CLI's."""
    import sigmagap.cli as cli
    tracer = Tracer(PROBES).install()
    ready_at = time.time()
    argv = ["accept-all", "--profile", "quick", "--seed", str(args.seed),
            "--out", args.out]
    with tracer.span("bench.op"):
        code = cli.main(argv)
    layers = layer_metrics(tracer.spans, tracer.values, cache_ratios())
    layers["regions.accept_ratio"] = 0.0
    if args.spans:
        tracer.dump(args.spans)
    sys.stdout.flush()
    return {"ready_at": ready_at, "exit_code": code, "layers": layers,
            "rss_mb": rss_mb()}, code


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("run", "battery"))
    ap.add_argument("--workload", choices=("twopoint_mc", "covariance_gamma"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--process", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    code = 0
    if args.mode == "battery":
        report, code = run_battery(args)
    else:
        report = run_workload(args)
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
