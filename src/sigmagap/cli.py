"""Single command-line entry point.

Subcommands map onto the library modules: gap-solve (mass gap), kernels
(regulated kernels), decompose (field regions), opcheck (determinant
identities), covariance (dual-route covariances), forest-verify
(interpolation combinatorics), twopoint (Monte Carlo estimator), and
accept-all (the whole battery).  Configuration is a flat key=value file
with [sections], overridable by flags; every output CSV embeds a hash
of the run's inputs and is byte-identical for a fixed config and seed,
except for the wall-clock runtime_ms column.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error,
3 numerical abort (e.g. the sign-problem guard).
"""

import argparse
import csv
import dataclasses
import hashlib
import os
import sys
import time

import numpy as np
from scipy.integrate import quad

from . import covariance as cov
from . import forests as fo
from . import twopoint as tp
from .kernels import (CutoffSpec, cutoff_enforced_values,
                      polarization_momentum, propagator_kernel)
from .model import (ModelParams, REGULATORS, derive_params, gap_constant,
                    gap_lhs, solve_gap_equation)
from .operators import build_A, log_det_n, operator_norm, propagator_matrix
from .regions import (LatticeGeometry, build_regions, classify_squares,
                      window_weights)

EXIT_OK, EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3


class ConfigError(ValueError):
    pass


# dotted config key -> (RunConfig field, parser)
KNOWN_KEYS = {
    "model.lambda": ("lam", float),
    "model.K": ("bigK", float),
    "model.N": ("bigN", int),
    "model.regulator": ("regulator", str),
    "model.corridor": ("corridor", float),
    "geometry.n": ("n", int),
    "geometry.sites_per_square": ("sites_per_square", int),
    "cutoff.c": ("cutoff_c", float),
    "sampler.seed": ("seed", int),
    "sampler.samples": ("samples", int),
    "sampler.thermalization": ("thermalization", int),
    "output.dir": ("outdir", str),
}


@dataclasses.dataclass
class RunConfig:
    lam: float = 1.0
    bigK: float = 1.0
    bigN: int = 10 ** 4
    regulator: str = "exponential"
    corridor: float = None
    n: int = 4
    sites_per_square: int = 4
    cutoff_c: float = 1.0
    seed: int = 0
    samples: int = 1000
    thermalization: int = 0
    outdir: str = None

    def validate(self):
        for key in ("lam", "bigK", "cutoff_c"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"config key {key} must be positive")
        try:
            self.cutoff()
        except ValueError as exc:
            raise ConfigError(f"config key cutoff.c: {exc}") from exc
        if self.bigN <= 0 or self.bigN % 2:
            raise ConfigError("config key model.N must be a positive "
                              "even integer")
        if self.regulator not in REGULATORS:
            raise ConfigError("config key model.regulator must be one of "
                              + ", ".join(sorted(REGULATORS)))
        for key in ("n", "sites_per_square", "samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"config key {key} must be >= 1")
        if self.seed < 0 or self.thermalization < 0:
            raise ConfigError("config keys sampler.seed and "
                              "sampler.thermalization must be >= 0")
        return self

    @property
    def config_hash(self):
        """Hash over every config value except the output directory."""
        text = repr(sorted((k, v) for k, v in dataclasses.asdict(self).items()
                           if k != "outdir"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def params(self):
        return derive_params(self.lam, self.bigK, self.bigN,
                             regulator=self.regulator,
                             corridor_override=self.corridor)

    def geometry(self):
        return LatticeGeometry(n=self.n,
                               sites_per_square=self.sites_per_square)

    def cutoff(self):
        return CutoffSpec(c=self.cutoff_c)

    def resolved_outdir(self):
        return self.outdir or os.environ.get("SIGMAGAP_OUTDIR", "out")


def parse_config_file(path):
    values = {}
    section = ""
    try:
        lines = open(path).read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got "
                              f"{line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        dotted = f"{section}.{key}" if section else key
        if dotted not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown config key {dotted!r}")
        field, cast = KNOWN_KEYS[dotted]
        try:
            values[field] = cast(val)
        except ValueError:
            raise ConfigError(f"{path}:{ln}: config key {dotted!r} has "
                              f"invalid value {val!r}")
    return values


# subcommand flags that change results without being config keys
RUN_FLAGS = ("profile", "separations", "max_size", "trials")


def run_hash(cfg, args):
    """cfg.config_hash extended by the subcommand's RUN_FLAGS values."""
    flags = [(k, getattr(args, k)) for k in RUN_FLAGS if hasattr(args, k)]
    text = repr((cfg.config_hash, flags))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_config(args):
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    flag_map = {"lam": "lam", "K": "bigK", "N": "bigN",
                "regulator": "regulator", "corridor": "corridor",
                "n": "n", "sites": "sites_per_square",
                "cutoff_c": "cutoff_c", "seed": "seed",
                "samples": "samples", "out": "outdir"}
    for flag, field in flag_map.items():
        val = getattr(args, flag, None)
        if val is not None:
            values[field] = val
    for flag in ("max_size", "trials"):
        if getattr(args, flag, 1) < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= 1")
    return RunConfig(**values).validate()


# ---------------------------------------------------------------------------
# results table

def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (complex, np.complexfloating)):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    return str(x)


@dataclasses.dataclass
class ResultsTable:
    config_hash: str
    rows: list = dataclasses.field(default_factory=list)

    COLUMNS = ("check_id", "module", "reference", "value", "bound",
               "passed", "runtime_ms")

    def add(self, check_id, module, reference, value, bound, passed,
            runtime_ms=0.0):
        self.rows.append({"check_id": check_id, "module": module,
                          "reference": reference, "value": value,
                          "bound": bound, "passed": bool(passed),
                          "runtime_ms": float(runtime_ms)})

    @property
    def all_passed(self):
        return all(r["passed"] for r in self.rows)

    def report(self, stream=sys.stdout):
        for r in self.rows:
            tag = "PASS" if r["passed"] else "FAIL"
            stream.write(f"{tag} {r['check_id']} value={_fmt(r['value'])}"
                         f" bound={_fmt(r['bound'])}\n")


def persist_results(table, outdir):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "results.csv")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(f"# config_hash={table.config_hash}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(ResultsTable.COLUMNS)
            writer.writerows([_fmt(r[c]) for c in ResultsTable.COLUMNS]
                             for r in table.rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}")
    return [path]


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = 1000.0 * (time.perf_counter() - self.t0)


# ---------------------------------------------------------------------------
# per-subcommand check batteries

def run_gap_checks(cfg, table):
    with _Timer() as t:
        m2 = solve_gap_equation(cfg.lam, cfg.bigK, cfg.regulator)
        residual = abs(gap_lhs(m2, cfg.regulator)
                       - m2 / (cfg.lam * cfg.bigK)
                       - 1.0 / (2.0 * cfg.lam))
        c_m = gap_constant(cfg.lam, cfg.bigK, cfg.regulator)
    table.add("gap-residual", "model", "mass-gap-equation", residual,
              1e-10, residual < 1e-10, t.ms)
    table.add("gap-mass-squared", "model", "mass-gap-equation", m2,
              float("nan"), m2 > 0, 0.0)
    table.add("gap-constant", "model", "mass-asymptotics", c_m,
              float("nan"), c_m > 0, 0.0)


# gap mass of the kernel checks: large enough that the decay fit window
# m*r in [2, 7] fits on a tractable table
BENCH_MASS = 0.1


def run_kernel_checks(cfg, table):
    p = ModelParams(lam=cfg.lam, bigK=cfg.bigK, bigN=cfg.bigN,
                    g=np.sqrt(cfg.lam * cfg.bigK / cfg.bigN),
                    m=BENCH_MASS, epsilon=cfg.bigN ** -0.4, corridorM=5.0)
    with _Timer() as t:
        k = propagator_kernel(BENCH_MASS)
        rate_err = abs(k.fitted_decay_rate / BENCH_MASS - 1.0)
    table.add("propagator-decay", "kernels", "free-kernel-decay",
              rate_err, 0.1, rate_err < 0.1, t.ms)
    with _Timer() as t:
        pi0 = polarization_momentum(0.0, p, test_mode_unregulated=True)
        rel = abs(pi0 * 8 * np.pi * BENCH_MASS ** 2
                  / (cfg.lam * cfg.bigK) - 1.0)
    table.add("bubble-test-mode", "kernels", "unregulated-bubble", rel,
              1e-6, rel < 1e-6, t.ms)
    with _Timer() as t:
        norm, _ = quad(lambda r: 2 * np.pi * r
                       * cutoff_enforced_values(cfg.cutoff_c, r),
                       0.0, 1.0, limit=200)
    table.add("cutoff-normalization", "kernels", "compact-cutoff",
              abs(norm - 1.0), 1e-8, abs(norm - 1.0) < 1e-8, t.ms)


def _small_setup(cfg, scale=1.0):
    params = derive_params(32.0, 1.0, 10 ** 6, corridor_override=2.0)
    geo = LatticeGeometry(n=2, sites_per_square=3)
    c0 = cov.build_C0(params, geo, CutoffSpec(c=cfg.cutoff_c))
    fld = cov.sample_gaussian(c0, seed=cfg.seed, count=1, geometry=geo)[0]
    if scale != 1.0:
        fld = type(fld).from_tau(geo, scale * fld.tau)
    return params, geo, fld


def run_decompose_checks(cfg, table):
    params, geo, fld = _small_setup(cfg)
    with _Timer() as t:
        rng = np.random.default_rng(cfg.seed)
        worst = 0.0
        for u in rng.uniform(0.0, 3.0 * params.bigN ** (1 / 3), 200):
            theta_s, theta_n = window_weights(u, params.bigN, 6)
            worst = max(worst, abs(theta_s + np.sum(theta_n) - 1.0))
    table.add("partition-of-unity", "regions", "window-partition", worst,
              1e-12, worst < 1e-12, t.ms)
    with _Timer() as t:
        asg = classify_squares(fld, params, geo)
        regions = build_regions(asg, geo, corridorM=params.corridorM)
        covered = all(any(tuple(sq) in comp.l_squares
                          for comp in regions.components)
                      for sq in asg.large_squares)
    table.add("component-cover", "regions", "large-field-components",
              len(regions.components), float("nan"), covered, t.ms)


def run_opcheck(cfg, table):
    params, geo, fld = _small_setup(cfg, scale=0.4)
    a = build_A(fld, params, geo, symmetrize=False)
    with _Timer() as t:
        k = 1j * a.op.weighted
        sign, logabs = np.linalg.slogdet(np.eye(len(k)) + k)
        direct = (np.log(sign) + logabs - np.trace(k)
                  + 0.5 * np.trace(k @ k))
        eig = log_det_n(np.linalg.eigvals(k), 3)
        det_gap = abs(np.exp(direct) - np.exp(eig))
    table.add("det3-dual-route", "operators", "regularized-determinant",
              det_gap, 1e-8, det_gap < 1e-8, t.ms)
    with _Timer() as t:
        asym = build_A(fld, params, geo, symmetrize=True)
        sym = log_det_n(np.linalg.eigvals(1j * asym.op.weighted), 3)
        sym_gap = abs(np.exp(sym) - np.exp(eig))
    table.add("det3-symmetrization", "operators", "self-adjoint-form",
              sym_gap, 1e-8, sym_gap < 1e-8, t.ms)
    with _Timer() as t:
        bound = (params.g * np.abs(fld.tau).max()
                 * operator_norm(propagator_matrix(geo, params.m)
                                 * geo.site_weight))
        norm = operator_norm(a.a_s)
        ratio = norm / bound if bound else 0.0
    table.add("small-block-norm", "operators", "small-field-bound", ratio,
              1.0 + 1e-9, ratio <= 1.0 + 1e-9, t.ms)


def run_covariance_checks(cfg, table):
    params, geo, fld = _small_setup(cfg, scale=0.0)
    side = geo.sites_per_side
    tau = np.zeros((side, side))
    s = geo.sites_per_square
    tau[2 * s:3 * s, 2 * s:3 * s] = np.sqrt(50.0 / (params.lam
                                                    * params.bigK))
    fld = type(fld).from_tau(geo, tau)
    asg = classify_squares(fld, params, geo)
    regions = build_regions(asg, geo, corridorM=params.corridorM)
    cut = CutoffSpec(c=cfg.cutoff_c)
    with _Timer() as t:
        cset = cov.build_Cgamma(params, geo, cut, regions)
    table.add("covariance-dual-route", "covariance", "resummed-inverse",
              cset.route_residual, 1e-8, cset.route_residual < 1e-8, t.ms)
    with _Timer() as t:
        z = cov.compute_Zgamma(cset, regions)
    table.add("normalization-lower-bound", "covariance",
              "gaussian-normalization", z, float("nan"), z >= 1.0, t.ms)
    with _Timer() as t:
        dc = cov.build_deltaC(params, geo, cut, regions)
        d1_max = float(np.linalg.eigvalsh(dc.d1.weighted).max())
    table.add("splitting-identity", "covariance", "covariance-splitting",
              dc.identity_residual, 1e-8,
              dc.identity_residual < 1e-8, t.ms)
    table.add("negative-part-sign", "covariance", "covariance-splitting",
              d1_max, 1e-10, d1_max <= 1e-10, t.ms)


FOREST_COUNTS = [1, 2, 7, 38, 291, 2932, 36961]


def run_forest_checks(cfg, table, max_size=6, trials=50):
    import itertools

    import sympy
    with _Timer() as t:
        sizes = range(1, min(max_size, 7) + 1)
        ok = all(len(fo.enumerate_forests(range(nn)))
                 == FOREST_COUNTS[nn - 1] for nn in sizes)
    table.add("forest-counts", "forests", "forest-enumeration",
              max(sizes), float("nan"), ok, t.ms)
    with _Timer() as t:
        pairs = list(itertools.combinations(range(3), 2))
        x = {p: sympy.Symbol(f"x{p[0]}{p[1]}") for p in pairs}
        h_expr = sympy.prod([1 + s for s in x.values()])
        resid = fo.verify_forest_formula(h_expr, range(3), x)
    table.add("interpolation-identity", "forests", "forest-formula",
              resid, 1e-8, resid < 1e-8, t.ms)
    with _Timer() as t:
        toys = (fo.verify_first_forest_formula([0, 1], [(0, 1)], [{0, 1}])
                and fo.verify_first_forest_formula(
                    [0, 1, 2], [(0, 1), (1, 2), (0, 2)], [{0, 1, 2}]))
    table.add("neighbor-link-identity", "forests", "first-forest-formula",
              int(toys), float("nan"), toys, t.ms)
    with _Timer() as t:
        gap = 0.0
        for q, pairs in ((3, [(0, 1), (1, 2), (0, 2)]),
                         (4, [(0, 1), (1, 2), (2, 3), (3, 0)])):
            gap = max(gap, abs(fo.mayer_connectivity(pairs, q)
                               - fo.mayer_tree_formula(pairs, q)))
    table.add("mayer-dual-route", "forests", "connectivity-factor", gap,
              1e-6, gap < 1e-6, t.ms)
    with _Timer() as t:
        rng = np.random.default_rng(cfg.seed)
        worst = 0.0
        for _ in range(trials):
            nb = int(rng.integers(2, 5))
            labels = rng.integers(0, nb, size=6)
            b = rng.normal(size=(6, 6))
            k = b @ b.T
            edges = tuple((i, i + 1) for i in range(nb - 1)
                          if rng.random() < 0.7)
            h = {e: float(rng.random()) for e in edges}
            interp = fo.interpolated_kernel(k, labels, edges, h)
            worst = min(worst, float(np.linalg.eigvalsh(interp).min()))
    table.add("interpolated-positivity", "forests",
              "positivity-decomposition", worst, -1e-10,
              worst >= -1e-10, t.ms)
    with _Timer() as t:
        rho = fo.activity_threshold()
        total = fo.polymer_activity_sum(rho).total
    table.add("polymer-sum", "forests", "polymer-convergence", total,
              0.5 + 1e-9, total <= 0.5 + 1e-9, t.ms)


def run_twopoint(cfg, args):
    seps = None
    if args.separations:
        try:
            seps = [float(x) for x in args.separations.split(",")]
        except ValueError:
            raise ConfigError("--separations must be comma-separated "
                              f"numbers, got {args.separations!r}")
    try:
        res = tp.estimate_S2(cfg.params(), geometry=cfg.geometry(),
                             cutoff=cfg.cutoff(), seed=cfg.seed,
                             n_samples=cfg.samples,
                             thermalization=cfg.thermalization,
                             separations=seps)
    except ValueError as exc:  # separations or sample count it rejects
        raise ConfigError(str(exc)) from exc
    outdir = cfg.resolved_outdir()
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "twopoint.csv")
    lines = [f"# config_hash={run_hash(cfg, args)}",
             "sep,re_mean,im_mean,se,weight_phase_diag"]
    for i, r in enumerate(res.separations):
        lines.append(",".join(_fmt(v) for v in (
            float(r), float(res.estimates[i].real),
            float(res.estimates[i].imag), float(res.stderr[i]),
            float(res.phase_diagnostic))))
    lines += [f"# fitted_mprime={_fmt(res.fitted_mprime)}",
              f"# m={_fmt(res.gap_mass)}",
              f"# ratio={_fmt(res.fitted_mprime / res.gap_mass)}",
              f"# fit_residual={_fmt(res.fit_residual)}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"fitted_mprime={_fmt(res.fitted_mprime)} "
          f"m={_fmt(res.gap_mass)} "
          f"ratio={_fmt(res.fitted_mprime / res.gap_mass)} "
          f"phase={_fmt(res.phase_diagnostic)}")
    print(f"wrote {path}")
    return EXIT_OK


PROFILES = {
    "quick": {"samples": 120, "sites": 2, "trials": 30},
    "full": {"samples": 2000, "sites": 4, "trials": 200},
}


def run_accept_all(cfg, table, profile):
    """The whole battery; the profile sets the forest trials and the size
    of the two-point run."""
    profile = PROFILES[profile]
    run_gap_checks(cfg, table)
    run_kernel_checks(cfg, table)
    run_decompose_checks(cfg, table)
    run_opcheck(cfg, table)
    run_covariance_checks(cfg, table)
    run_forest_checks(cfg, table, trials=profile["trials"])
    with _Timer() as t:
        geo = LatticeGeometry(n=cfg.n, sites_per_square=profile["sites"])
        res = tp.estimate_S2(cfg.params(), geometry=geo,
                             cutoff=cfg.cutoff(), seed=cfg.seed,
                             n_samples=profile["samples"])
        ratio = res.fitted_mprime / res.gap_mass
    table.add("twopoint-mass-ratio", "twopoint", "mass-persistence",
              ratio, "[0.7,1.3]", 0.7 < ratio < 1.3, t.ms)


def _table_command(runner, extra=()):
    def cmd(cfg, args):
        table = ResultsTable(run_hash(cfg, args))
        runner(cfg, table, **{k: getattr(args, k) for k in extra})
        table.report()
        paths = persist_results(table, cfg.resolved_outdir())
        print(f"wrote {paths[0]}")
        return EXIT_OK if table.all_passed else EXIT_CHECK
    return cmd


COMMANDS = {
    "gap-solve": _table_command(run_gap_checks),
    "kernels": _table_command(run_kernel_checks),
    "decompose": _table_command(run_decompose_checks),
    "opcheck": _table_command(run_opcheck),
    "covariance": _table_command(run_covariance_checks),
    "forest-verify": _table_command(run_forest_checks,
                                    ("max_size", "trials")),
    "twopoint": run_twopoint,
    "accept-all": _table_command(run_accept_all, ("profile",)),
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="sigmagap",
        description="Numerical checks for the large-N mass-gap "
                    "construction at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--K", type=float)
        p.add_argument("--N", type=int)
        p.add_argument("--regulator")
        p.add_argument("--corridor", type=float)
        p.add_argument("--n", type=int)
        p.add_argument("--sites", type=int)
        p.add_argument("--cutoff-c", dest="cutoff_c", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--out")
        if name == "forest-verify":
            p.add_argument("--max-size", dest="max_size", type=int,
                           default=6)
            p.add_argument("--trials", type=int, default=50)
        if name == "twopoint":
            p.add_argument("--separations")
        if name == "accept-all":
            p.add_argument("--profile", choices=sorted(PROFILES),
                           default="quick")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](build_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # SignProblemError included
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
