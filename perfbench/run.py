"""sigmagap benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload {twopoint_mc,covariance_gamma,battery_cold}
                             --seed N --seconds T --trace {0,1}

Every workload process is a fresh child, so set-up (imports, gap solve,
cache filling) is timed as users pay it.  BLAS threads are left at their
defaults and recorded in the machine fingerprint.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a separate traced pass (see perfbench/README.md).
Scratch files go to .perfbench_run/ in the current directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import outputs_agree

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = ".perfbench_run"
WORKER = os.path.join(HERE, "worker.py")
TOTAL_BUDGET_S = 170.0
# warm workloads: fresh processes per run, each timing its set-up and an
# equal share of the run; battery_cold: fresh `import sigmagap.cli` set-ups
PROCESSES = 5
BATTERY_SETUPS = 5
# operations in each pass of a traced run: fixed, so that the per-layer
# totals of two commits compare
TRACE_OPS = {"twopoint_mc": 8, "covariance_gamma": 20, "battery_cold": 2}
BLAS1_OPS = 3
BATTERY_ARGS = ["accept-all", "--profile", "quick"]
RESULT_COLUMNS = ("check_id", "module", "reference", "value", "bound",
                  "passed", "runtime_ms")
CLI_MAIN = "import sys; from sigmagap.cli import main; sys.exit(main())"
CLI_IMPORT = "import time, sigmagap.cli; print(time.time())"
E2E_UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
             "throughput": "1/s", "peak_rss_mb": "MB", "success_ratio": "ratio"}
THROUGHPUT_OF = {"twopoint_mc": "samples/s", "covariance_gamma":
                 "configurations/s", "battery_cold": "invocations/s"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


class Runner:
    def __init__(self, seed):
        self.seed = seed
        self.deadline = time.monotonic() + TOTAL_BUDGET_S
        self.env = dict(os.environ)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def child(self, argv, env=None):
        """Run a child to completion; (spawn wall time, exit code, out, err)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget used up")
        spawned = time.time()
        proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=env or self.env)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child timed out: {argv[:3]}")
        return spawned, time.time() - spawned, proc.returncode, out, err

    def worker(self, mode, workload, *extra, env=None):
        argv = [WORKER, mode, "--workload", workload, "--seed",
                str(self.seed), *extra]
        spawned, _, code, out, err = self.child(argv, env=env)
        if code != 0 or not out.strip():
            raise BenchError(f"worker {mode} {workload} exited {code}:\n"
                             + err[-2000:])
        rep = json.loads(out.strip().splitlines()[-1])
        rep["setup_s"] = rep["ready_at"] - spawned
        self.count(rep["attempted"], rep["failures"])
        return rep

    def count(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.failures += failures


# ---------------------------------------------------------------------------
# battery_cold: fresh `sigmagap accept-all --profile quick` processes

def read_results(path):
    """(hash line, rows without runtime_ms, passed flags) of results.csv.

    Fields are split from the right: passed and runtime_ms are the last two
    columns, and the bound column can hold an unquoted comma."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[1] != ",".join(RESULT_COLUMNS):
        raise ValueError(f"unexpected header {lines[1]!r}")
    rows = [ln.rsplit(",", 2) for ln in lines[2:]]
    return lines[0], [r[:2] for r in rows], [r[1] for r in rows]


def battery_problem(code, stdout, outdir, reference):
    """Why one accept-all invocation failed, or None.  ``reference`` is the
    first invocation's results (set from this one when it is None)."""
    if code != 0:
        return f"exit code {code}"
    fails = [ln for ln in stdout.splitlines() if ln.startswith("FAIL ")]
    if fails:
        return "FAIL rows: " + "; ".join(fails)
    try:
        table = read_results(os.path.join(outdir, "results.csv"))
    except (OSError, IndexError, ValueError) as exc:
        return f"unreadable results.csv: {exc}"
    if any(flag != "1" for flag in table[2]):
        return "results.csv has a failed row"
    if not reference:
        reference.append(table)
    elif table != reference[0]:
        return "results.csv differs from the first invocation's"
    return None


class Battery:
    def __init__(self, runner):
        self.runner = runner
        self.reference = []
        self.n = 0

    def invoke(self, extra=(), traced=False):
        """One invocation; returns (latency s, report or None, problem)."""
        r = self.runner
        self.n += 1
        # one --out for every invocation: the CLI's config hash includes it
        outdir = os.path.join(RUN_DIR, f"battery-{os.getpid()}")
        args = [*BATTERY_ARGS, "--seed", str(r.seed), "--out", outdir,
                *extra]
        if traced:
            spans = os.path.join(RUN_DIR, f"spans-battery_cold-{r.seed}"
                                 f"-{self.n}.json")
            argv = ["-X", "importtime", WORKER, "battery", "--seed",
                    str(r.seed), "--out", outdir, "--spans", spans]
        else:
            argv = ["-c", CLI_MAIN, *args]
        spawned, latency, code, out, err = r.child(argv)
        problem = battery_problem(code, out, outdir, self.reference)
        shutil.rmtree(outdir, ignore_errors=True)
        report = None
        if traced and code == 0:
            report = json.loads(out.strip().splitlines()[-1])
            report["setup_s"] = report["ready_at"] - spawned
            report["layers"].update(import_times(err))
        r.count(1, [f"battery: {problem}"] if problem else [])
        return latency, report, problem

    def setup_times(self, k):
        times = []
        for _ in range(k):
            spawned, _, code, out, err = self.runner.child(["-c", CLI_IMPORT])
            if code != 0:
                raise BenchError("import sigmagap.cli failed:\n" + err[-2000:])
            times.append(float(out.split()[-1]) - spawned)
        return times


def import_times(stderr):
    """cli.import_s and forests.import_s from `python -X importtime`."""
    found = {}
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if len(parts) == 3 and parts[2] in ("sigmagap.cli",
                                                "sigmagap.forests"):
                found[parts[2]] = int(parts[1]) / 1e6
    return {"cli.import_s": found.get("sigmagap.cli", 0.0),
            "forests.import_s": found.get("sigmagap.forests", 0.0)}


# ---------------------------------------------------------------------------
# statistics

def tail(values):
    """The highest percentile with at least ten samples beyond it, where
    that lies above the median (21 samples or more).  With fewer samples
    (battery_cold runs a handful of invocations) the maximum turns on a
    single slow invocation, so the tail is the upper quartile instead.
    Returns (value, percentile, samples beyond)."""
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[-1], 100.0, 0
    if n < 21:
        q3 = statistics.quantiles(xs, n=4, method="inclusive")[2]
        return q3, 75.0, sum(x > q3 for x in xs)
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def e2e_metrics(setups, latencies, work, wall, rss, runner):
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "throughput": work / wall,
        "peak_rss_mb": rss,
        "success_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    notes = {"latency_tail_s": f"p{pct:.0f} of {len(latencies)} operations,"
                               f" {beyond} beyond it",
             "setup_s": f"median of {len(setups)} set-ups"}
    return metrics, notes


def run_warm(runner, workload, seconds):
    """PROCESSES fresh processes in turn, each measuring seconds/PROCESSES;
    latencies are pooled, so no one process's luck decides the median."""
    reps = [runner.worker("run", workload, "--process", str(j), "--seconds",
                          str(seconds / PROCESSES))
            for j in range(PROCESSES)]
    latencies = [x for rep in reps for x in rep["latencies"]]
    if not latencies:
        raise BenchError("no operation completed")
    return e2e_metrics([rep["setup_s"] for rep in reps], latencies,
                       sum(rep["work"] for rep in reps),
                       sum(rep["wall"] for rep in reps),
                       max(rep["rss_mb"] for rep in reps), runner)


def peak_children_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_battery(runner, seconds):
    bat = Battery(runner)
    setups = bat.setup_times(BATTERY_SETUPS)
    # untimed warm-up invocation, which also sets the reference results.csv:
    # the first invocation after the set-ups ran up to 35% slower than the
    # rest (5.8 s against 4.3 s on a 2-core machine)
    bat.invoke()
    start = time.perf_counter()
    latencies = []
    while bat.n == 1 or time.perf_counter() - start < seconds:
        latency, _, problem = bat.invoke()
        if not problem:
            latencies.append(latency)
    if not latencies:
        raise BenchError("no invocation succeeded")
    return e2e_metrics(setups, latencies, len(latencies),
                       time.perf_counter() - start, peak_children_rss_mb(),
                       runner)


# ---------------------------------------------------------------------------
# traced runs

def blas1_layers(runner):
    """One short twopoint_mc pass with single-threaded OpenBLAS."""
    env = dict(runner.env, OPENBLAS_NUM_THREADS="1")
    rep = runner.worker("run", "twopoint_mc", "--ops", str(BLAS1_OPS),
                        "--trace", env=env)
    return {"twopoint.sample_ms.blas1": rep["layers"]["twopoint.sample_ms"],
            "covariance.build_C0.busy_s.blas1":
                rep["layers"]["covariance.build_C0.busy_s"]}


def trace_warm(runner, workload):
    ops = ["--ops", str(TRACE_OPS[workload])]
    plain = runner.worker("run", workload, *ops)
    spans = os.path.join(RUN_DIR, f"spans-{workload}-{runner.seed}.json")
    traced = runner.worker("run", workload, *ops, "--trace", "--spans", spans)
    layers = dict(traced["layers"], **{"cli.import_s": 0.0,
                                       "forests.import_s": 0.0})
    agree = outputs_agree(plain["outputs"], traced["outputs"])
    runner.count(1, [] if agree else ["traced and untraced outputs differ"])
    return layers, (statistics.median(traced["latencies"])
                    - statistics.median(plain["latencies"]),
                    traced["setup_s"] - plain["setup_s"])


def trace_battery(runner):
    bat = Battery(runner)
    setup = bat.setup_times(1)[0]
    n = TRACE_OPS["battery_cold"]
    plain = [bat.invoke()[0] for _ in range(n)]
    traced = [bat.invoke(traced=True) for _ in range(n)]
    reports = [rep for _, rep, _ in traced if rep]
    if not reports:
        raise BenchError("no traced invocation succeeded")
    layers = {}
    for k in reports[0]["layers"]:
        vals = [r["layers"][k] for r in reports if r["layers"][k] is not None]
        layers[k] = statistics.median(vals) if vals else None
    return layers, (statistics.median(t[0] for t in traced)
                    - statistics.median(plain),
                    statistics.median(r["setup_s"] for r in reports) - setup)


def run_trace(runner, workload):
    if workload == "battery_cold":
        layers, (d_lat, d_setup) = trace_battery(runner)
    else:
        layers, (d_lat, d_setup) = trace_warm(runner, workload)
    layers.update(blas1_layers(runner))
    layers["trace.overhead_latency_p50_s"] = d_lat
    layers["trace.overhead_setup_s"] = d_setup
    return layers


# ---------------------------------------------------------------------------
# machine fingerprint

def fingerprint():
    import numpy
    import scipy
    fp = {"nproc": os.cpu_count(),
          "sched_getaffinity": len(os.sched_getaffinity(0)),
          "python": sys.version.split()[0], "numpy": numpy.__version__,
          "scipy": scipy.__version__,
          "thread_env": {k: os.environ.get(k) for k in (
              "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        fp["blas"] = {k: blas.get(k) for k in ("name", "version",
                                               "openblas configuration")}
    except (TypeError, KeyError) as exc:
        fp["blas"] = f"unavailable: {exc}"
    return fp


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("twopoint_mc", "covariance_gamma",
                             "battery_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sigmagap", "__init__.py")):
        print("run from the root of a sigmagap checkout: src/sigmagap is "
              "missing", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    fp = fingerprint()
    fp["loadavg_start"] = os.getloadavg()
    runner = Runner(args.seed)
    try:
        if args.trace:
            metrics = run_trace(runner, args.workload)
            units = {k: layer_unit(k) for k in metrics}
            notes = {k: "absent: reported as 0" for k, v in metrics.items()
                     if v is None}
            metrics.update(dict.fromkeys(notes, 0.0))
        else:
            if args.workload == "battery_cold":
                metrics, notes = run_battery(runner, args.seconds)
            else:
                metrics, notes = run_warm(runner, args.workload, args.seconds)
            units = dict(E2E_UNITS)
            notes["throughput"] = THROUGHPUT_OF[args.workload]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    fp["loadavg_end"] = os.getloadavg()
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for msg in runner.failures:
        print(f"failed: {msg}")
    print(f"failed_ratio = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    for name in sorted(metrics):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in sorted(metrics.items())}}))
    return 0


def layer_unit(name):
    last = name.split(".")[-1]
    if last == "blas1":
        last = name.split(".")[-2]
    if name.startswith("trace.overhead") or last in ("busy_s", "self_s",
                                                     "import_s"):
        return "s"
    if last == "sample_ms":
        return "ms"
    if last in ("calls", "spans", "neumann_terms"):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
