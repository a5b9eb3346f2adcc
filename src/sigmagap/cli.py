"""Single command-line entry point.

Subcommands map onto the library modules: gap-solve (mass gap), kernels
(regulated kernels), decompose (field regions), opcheck (determinant
identities), covariance (dual-route covariances), forest-verify
(interpolation combinatorics), twopoint (Monte Carlo estimator), and
accept-all (the whole battery).  Configuration is a flat key=value file
with [sections], overridable by flags; every output CSV embeds a hash
of the run's inputs and is byte-identical for a fixed config and seed,
except for the wall-clock runtime_ms column.

Acceptance criterion NN is one function, criterion_NN_*, that adds one
results.csv row per gate (its worst value over the gate's inputs) at the
inputs of a PROFILES entry; tests/test_acceptance.py runs each at "full".
The subcommands run "quick": gap-solve 01, kernels 02-03, opcheck 04-05,
decompose 09, covariance 06 and 10, forest-verify 07, 08 and 12;
accept-all runs all twelve at its --profile.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error
(an output directory or file that cannot be written included), 3
numerical abort (e.g. the sign-problem guard).
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import math
import operator
import os
import sys
import time

import numpy as np
from scipy.integrate import quad

from . import covariance as cov
from . import forests as fo
from . import twopoint as tp
from .kernels import (CutoffSpec, cutoff_enforced_values,
                      polarization_kernel, polarization_momentum,
                      propagator_kernel, sqrt_one_plus_pi_kernel)
from .model import (REGULATORS, derive_params, gap_constant, gap_lhs,
                    solve_gap_equation)
from .operators import (build_A, det_split_identity, log_det_n,
                        log_det_n_matrix, operator_norm, propagator_matrix)
from .regions import (FieldConfig, LatticeGeometry, build_regions,
                      classify_squares, square_distance, window_weights)

EXIT_OK, EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3


class ConfigError(ValueError):
    pass


# dotted config key -> (command-line flag, RunConfig field, parser); the
# config file, the flags and build_config all read this one table
KNOWN_KEYS = {
    "model.lambda": ("--lambda", "lam", float),
    "model.K": ("--K", "bigK", float),
    "model.N": ("--N", "bigN", int),
    "model.regulator": ("--regulator", "regulator", str),
    "geometry.n": ("--n", "n", int),
    "geometry.sites_per_square": ("--sites", "sites_per_square", int),
    "cutoff.c": ("--cutoff-c", "cutoff_c", float),
    "sampler.seed": ("--seed", "seed", int),
    "sampler.samples": ("--samples", "samples", int),
    "output.dir": ("--out", "outdir", str),
}


def _config_key(field):
    """The dotted config key of a RunConfig field."""
    return next(key for key, (_, name, _) in KNOWN_KEYS.items()
                if name == field)


@dataclasses.dataclass
class RunConfig:
    lam: float = 1.0
    bigK: float = 1.0
    bigN: int = 10 ** 4
    regulator: str = "exponential"
    n: int = 4
    sites_per_square: int = 4
    cutoff_c: float = 1.0
    seed: int = 0
    samples: int = 1000
    outdir: str = None

    def validate(self):
        for key in ("lam", "bigK", "cutoff_c"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"config key {_config_key(key)} must be "
                                  "positive")
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
                raise ConfigError(f"config key {_config_key(key)} must be "
                                  ">= 1")
        if self.seed < 0:
            raise ConfigError("config key sampler.seed must be >= 0")
        try:
            self.params
        except ValueError as exc:
            raise ConfigError(f"config section model: {exc}") from exc
        return self

    @property
    def config_hash(self):
        """Hash over every config value except the output directory."""
        text = repr(sorted((k, v) for k, v in dataclasses.asdict(self).items()
                           if k != "outdir"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @functools.cached_property
    def params(self):
        """Derived once per config: one gap-equation solve per run.  The
        gap mass is the exponential regulator's, the model the kernels
        implement; the regulator key selects criterion 01's equation."""
        return derive_params(self.lam, self.bigK, self.bigN)

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
        _, field, cast = KNOWN_KEYS[dotted]
        try:
            values[field] = cast(val)
        except ValueError:
            raise ConfigError(f"{path}:{ln}: config key {dotted!r} has "
                              f"invalid value {val!r}")
    return values


# subcommand flags that change results without being config keys
RUN_FLAGS = ("profile", "separations", "max_size", "trials")


def run_size(args):
    """The --profile inputs, with forest-verify's flags in their place."""
    size = dict(PROFILES[getattr(args, "profile", "quick")])
    size.update({k: getattr(args, k) for k in ("max_size", "trials")
                 if getattr(args, k, None) is not None})
    return size


def run_hash(cfg, args):
    """cfg.config_hash extended by the RUN_FLAGS values the run uses."""
    size = run_size(args)
    flags = [(k, size.get(k, getattr(args, k))) for k in RUN_FLAGS
             if hasattr(args, k)]
    text = repr((cfg.config_hash, flags))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_config(args):
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for _, field, _ in KNOWN_KEYS.values():
        val = getattr(args, field, None)
        if val is not None:
            values[field] = val
    for flag in ("max_size", "trials"):
        val = getattr(args, flag, None)
        if val is not None and val < 1:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= 1")
    if (getattr(args, "max_size", None) or 0) > len(FOREST_COUNTS):
        raise ConfigError(f"--max-size must be <= {len(FOREST_COUNTS)}, "
                          "the largest forest count on record")
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
    rows: list = dataclasses.field(default_factory=list, init=False)
    clock: float = dataclasses.field(default_factory=time.perf_counter,
                                     init=False)

    COLUMNS = ("check_id", "module", "reference", "value", "bound",
               "passed", "runtime_ms")

    def add(self, check_id, module, reference, value, bound, passed):
        """A row whose runtime_ms is the wall time since the last row."""
        now = time.perf_counter()
        self.rows.append({"check_id": check_id, "module": module,
                          "reference": reference, "value": value,
                          "bound": bound, "passed": bool(passed),
                          "runtime_ms": 1000.0 * (now - self.clock)})
        self.clock = now

    @property
    def all_passed(self):
        """True when there are rows and every one passed."""
        return bool(self.rows) and all(r["passed"] for r in self.rows)

    def report(self):
        for r in self.rows:
            tag = "PASS" if r["passed"] else "FAIL"
            print(f"{tag} {r['check_id']} value={_fmt(r['value'])}"
                  f" bound={_fmt(r['bound'])}")


def check_outdir(outdir):
    """Raise ConfigError, before any work, unless the output directory
    exists or can be made: its nearest existing ancestor must be a
    directory this process may write.  Nothing is created, so a run that
    stops at a later input check leaves no directory behind."""
    path = os.path.abspath(outdir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"cannot write {outdir}: {path} is not a "
                          "directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {outdir}: permission denied on "
                          f"{path}")


def write_output(outdir, name, text):
    """Write text to outdir/name, creating outdir, and return the path;
    any OSError is a ConfigError."""
    path = os.path.join(outdir, name)
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") \
            from exc
    return path


def persist_results(table, outdir):
    buf = io.StringIO()
    buf.write(f"# config_hash={table.config_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ResultsTable.COLUMNS)
    writer.writerows([_fmt(r[c]) for c in ResultsTable.COLUMNS]
                     for r in table.rows)
    return [write_output(outdir, "results.csv", buf.getvalue())]


# ---------------------------------------------------------------------------
# acceptance criteria

# gap mass of the kernel checks: large enough that the decay fit window
# m*r in [2, 7] fits on a tractable table
BENCH_MASS = 0.1

FOREST_COUNTS = [1, 2, 7, 38, 291, 2932, 36961]

# The inputs of the gates, by criterion: a tuple holds one entry per
# input.  "full" holds every input of the acceptance tests.
_FULL = {
    "gap_lams": (0.8, 1.0),                                     # 01
    "decay_masses": (0.05, 0.1, 0.15),                          # 02
    "kernel_masses": (0.05, 0.1, 0.15),
    "bubble": ((2.0, 1.5),),                                    # 03: lam, K
    "small_fields": ((0, 100),),                        # 04: seed, fields
    "det_split": ((1, 50, (1, 2, 3)),),         # 05: seed, fields, orders
    "two_components": ((1.5, 1.6),),                    # 06: block masses
    "max_size": 6,                                              # 07
    "forest_formula": ((2, 3), (3, 3), (4, 3)),  # squares, test functions
    "trials": 200, "decomposition": ((7, 200),),                # seed, draws
    "mayer_graph_q": (1, 2, 3, 4), "complete_q": (1, 2, 3, 4, 5, 6),  # 08
    # 09: seed, N, windows, span / N^(1/3), draws, region configurations
    "partition": ((3, 4096, 7, 4.0, 1000, 100),),
    "damping": ((7, 100),),                             # 10: seed, configs
    "square_normalization": ((10 ** 4, 1200, 5), (10 ** 6, 800, 5)),
    # 11: sites per square, samples, seed (and the N of a scan)
    "free_runs": ((3, 100, 0),), "mass_runs": ((3, 10 ** 4, 1),),
    "fit_runs": ((3, 10 ** 4, 1),),
    "scans": ((2, 2000, 2, (10 ** 3, 10 ** 4, 10 ** 5)),),
    "polymer_counts": ({1: 1, 2: 4, 3: 18, 4: 76, 5: 315, 6: 1296},),  # 12
}
PROFILES = {
    # what the subcommands run: no inputs for the gates only the tests
    # ran, and None for "the config's value" (lambda, K, seed)
    "quick": dict(dict.fromkeys(_FULL, ()), gap_lams=None,
                  decay_masses=(BENCH_MASS,), bubble=None, max_size=6,
                  forest_formula=((3, 1),), trials=30,
                  partition=((None, 10 ** 6, 6, 3.0, 200, 20),),
                  mass_runs=((2, 120, None),)),
    "full": _FULL,
}

_WORST = {"<": (max, operator.lt), "<=": (max, operator.le),
          ">": (min, operator.gt), ">=": (min, operator.ge)}


def _gate(table, check_id, module, reference, values, op, bound):
    """Add the gate's row, its worst value over the inputs against the
    bound; a gate with no inputs adds no row."""
    if len(values):
        worst, holds = _WORST[op]
        value = worst(values)
        table.add(check_id, module, reference, value, bound,
                  holds(value, bound))


def _holds(table, check_id, module, reference, oks):
    """A yes/no gate: value 1 when it holds for every input, else 0."""
    _gate(table, check_id, module, reference, [int(ok) for ok in oks], ">",
          0)


def _bench_params(m, lam, bigK, bigN, corridorM):
    """Model parameters at a chosen gap mass."""
    return dataclasses.replace(
        derive_params(lam, bigK, bigN, corridor_override=corridorM), m=m)


def _small_setup(cfg, scale=1.0):
    """The 144-site set-up of criteria 04, 05 and 09 with one draw of C0
    at the config's seed, scaled by scale."""
    params = derive_params(32.0, 1.0, 10 ** 6, corridor_override=2.0)
    geo = LatticeGeometry(n=2, sites_per_square=3)
    root = cov.c0_root(params, geo, cfg.cutoff())
    tau = np.random.default_rng(cfg.seed).standard_normal(
        (1, len(root))) @ root.T
    side = geo.sites_per_side
    return params, geo, FieldConfig.from_tau(geo, scale
                                             * tau.reshape(side, side))


def _rescaled_field(geometry, rng, u_targets):
    """Gaussian field rescaled per square so 32*mass hits u_targets."""
    side = geometry.sites_per_side
    tau = rng.normal(size=(side, side))
    u = 32.0 * FieldConfig.from_tau(geometry, tau).square_masses
    scale = geometry.widen(np.sqrt(np.asarray(u_targets) / u))
    return FieldConfig.from_tau(geometry, tau * scale.reshape(side, side))


def criterion_01_gap_equation(cfg, table, size):
    """Gap equation residual, m^2 > 0 and c_m > 0 (the acceptance test
    alone asserts the advertised window c_m in [0.9, 1.1])."""
    lams = size["gap_lams"] or (cfg.lam,)
    m2 = [solve_gap_equation(lam, cfg.bigK, cfg.regulator) for lam in lams]
    residual = [abs(gap_lhs(x, cfg.regulator) - x / (lam * cfg.bigK)
                    - 1.0 / (2.0 * lam)) for lam, x in zip(lams, m2)]
    c_m = [gap_constant(lam, cfg.bigK, cfg.regulator) for lam in lams]
    _gate(table, "gap-residual", "model", "mass-gap-equation", residual,
          "<", 1e-10)
    _gate(table, "gap-mass-squared", "model", "mass-gap-equation", m2, ">",
          0.0)
    _gate(table, "gap-constant", "model", "mass-asymptotics", c_m, ">", 0.0)


def criterion_02_kernel_decay(table, size):
    """Decay rate m of F and 2m of the bubble and both square-root
    kernels; positivity of F."""
    masses = size["kernel_masses"]
    kern = {m: propagator_kernel(m) for m in {*size["decay_masses"], *masses}}
    _gate(table, "propagator-decay", "kernels", "free-kernel-decay",
          [abs(kern[m].fitted_decay_rate / m - 1.0)
           for m in size["decay_masses"]], "<", 0.1)
    _gate(table, "propagator-positivity", "kernels", "free-kernel-decay",
          [kern[m].values.min() for m in masses], ">", 0.0)
    bench = [(m, _bench_params(m, 1.0, 1.0, 10 ** 6, 5.0)) for m in masses]
    _gate(table, "bubble-decay", "kernels", "bubble-kernel-decay",
          [abs(polarization_kernel(p).fitted_decay_rate / (2 * m) - 1.0)
           for m, p in bench], "<", 0.1)
    _gate(table, "sqrt-kernel-decay", "kernels", "bubble-kernel-decay",
          [abs(sqrt_one_plus_pi_kernel(p, sign).fitted_decay_rate / (2 * m)
               - 1.0) for m, p in bench for sign in (+1, -1)], "<", 0.1)


def criterion_03_bubble_normalization(cfg, table, size):
    """Unregulated bubble at zero momentum; unit integral of the cutoff."""
    rel = [abs(polarization_momentum(
        0.0, _bench_params(BENCH_MASS, lam, bigK, 10 ** 6, 5.0),
        test_mode_unregulated=True) * 8 * np.pi * BENCH_MASS ** 2
        / (lam * bigK) - 1.0)
        for lam, bigK in size["bubble"] or ((cfg.lam, cfg.bigK),)]
    _gate(table, "bubble-test-mode", "kernels", "unregulated-bubble", rel,
          "<", 1e-6)
    norm, _ = quad(lambda r: 2 * np.pi * r
                   * cutoff_enforced_values(cfg.cutoff_c, r),
                   0.0, 1.0, limit=200)
    _gate(table, "cutoff-normalization", "kernels", "compact-cutoff",
          [abs(norm - 1.0)], "<", 1e-8)


def criterion_04_small_field_operator_norm(cfg, table, size):
    """||A_s|| <= g max|tau| ||F|| on the config's field; ||A_s|| <=
    N^(-2/5) on fields rescaled into the small-field range."""
    params, geo, fld = _small_setup(cfg, scale=0.4)
    bound = (params.g * np.abs(fld.tau).max()
             * operator_norm(propagator_matrix(geo, params.m)
                             * geo.site_weight))
    norm = operator_norm(build_A(fld, params).a_s)
    _gate(table, "small-block-norm", "operators", "small-field-bound",
          [norm / bound if bound else 0.0], "<=", 1.0 + 1e-9)
    params = derive_params(32.0, 1.0, 10 ** 6, corridor_override=3.0)
    geo = LatticeGeometry(n=4, sites_per_square=2)
    small, norms = [], []
    for seed, fields in size["small_fields"]:
        rng = np.random.default_rng(seed)
        for _ in range(fields):
            fld = _rescaled_field(geo, rng, rng.uniform(0.5, 7.4,
                                                        geo.num_squares))
            small.append(classify_squares(fld, params, geo).labels.max() == 0)
            norms.append(operator_norm(build_A(fld, params).a_s))
    _holds(table, "small-field-labels", "regions", "small-field-bound", small)
    _gate(table, "small-field-norm", "operators", "small-field-bound", norms,
          "<=", params.bigN ** -0.4)


def criterion_05_determinant_identities(cfg, table, size):
    """det_3 from the eigenvalues of A against the matrix route on A and
    on the self-adjoint A; the determinant split; det_n by both routes
    on small operators and on one 256-site 1+iA per seed."""
    params, geo, fld = _small_setup(cfg, scale=0.4)
    k = 1j * build_A(fld, params, symmetrize=False).op.weighted
    direct = log_det_n_matrix(k, 3)
    eig = log_det_n(np.linalg.eigvals(k), 3)
    _gate(table, "det3-dual-route", "operators", "regularized-determinant",
          [abs(np.exp(direct) - np.exp(eig))], "<", 1e-8)
    sym = log_det_n_matrix(
        1j * build_A(fld, params, symmetrize=True).op.weighted, 3)
    _gate(table, "det3-symmetrization", "operators", "self-adjoint-form",
          [abs(np.exp(sym) - np.exp(eig))], "<", 1e-8)
    params = derive_params(32.0, 1.0, 10 ** 6, corridor_override=3.0)
    geo = LatticeGeometry(n=2, sites_per_square=4)
    split, oracle = [], []  # oracle: (K, n) of each det_n by both routes
    for seed, fields, orders in size["det_split"]:
        rng = np.random.default_rng(seed)
        for i in range(fields):
            targets = rng.uniform(1.0, 12.0, size=geo.num_squares)
            idx = rng.choice(geo.num_squares, size=2, replace=False)
            targets[idx] = rng.uniform(40.0, 80.0, size=2)
            fld = _rescaled_field(geo, rng, targets)
            split.append(det_split_identity(fld, params))
            if i == 0:
                oracle.append((1j * build_A(fld, params).op.weighted, 1))
        for order in orders:
            mat = rng.normal(size=(40, 40))
            oracle.append((0.035 * (mat + mat.T), order))
    _gate(table, "det-split-identity", "operators", "determinant-split",
          split, "<", 1e-8)
    # |exp(eig) - exp(mat)| / |exp(mat)|, free of the branch of either log
    _gate(table, "det-n-oracle", "operators", "regularized-determinant",
          [abs(np.exp(log_det_n(np.linalg.eigvals(k), n)
                      - log_det_n_matrix(k, n)) - 1.0) for k, n in oracle],
          "<", 1e-10)


def criterion_06_covariance_structure(cfg, table, size):
    """C_gamma by two routes, Z_gamma >= 1 and its factorization over two
    components, the splitting identity, its negative part's sign and the
    deltaC form against its factored form."""
    params = derive_params(32.0, 1.0, 10 ** 6, corridor_override=2.0)
    geo = LatticeGeometry(n=2, sites_per_square=3)
    tau = np.zeros((geo.sites_per_side,) * 2)
    geo.blocks(tau)[2, :, 2] = np.sqrt(50.0 / 32.0)
    fld = FieldConfig.from_tau(geo, tau)
    regions = build_regions(classify_squares(fld, params, geo), geo,
                            corridorM=params.corridorM)
    cset = cov.build_Cgamma(params, geo, cfg.cutoff(), regions)
    _gate(table, "covariance-dual-route", "covariance", "resummed-inverse",
          [cset.route_residual], "<", 1e-8)
    _gate(table, "normalization-lower-bound", "covariance",
          "gaussian-normalization", [cov.compute_Zgamma(cset, regions)],
          ">=", 1.0)
    dc = cov.build_deltaC(params, geo, cfg.cutoff(), regions)
    _gate(table, "splitting-identity", "covariance", "covariance-splitting",
          [dc.identity_residual], "<", 1e-8)
    _gate(table, "negative-part-sign", "covariance", "covariance-splitting",
          [float(np.linalg.eigvalsh(dc.d1_lambda).max())], "<=", 1e-10)
    # (v, deltaC v) against its factored form, which reads gamma and eps,
    # over three seeded fields on Lambda: the worst relative gap
    forms = [(dc.lambda_form(v), cov.deltac_factored_form(
        params, geo, cfg.cutoff(), regions, 2, v))
        for v in np.random.default_rng(6).standard_normal(
            (3, geo.sites_per_side ** 2))]
    _gate(table, "deltac-factored-form", "covariance", "covariance-splitting",
          [abs(a - b) / abs(b) for a, b in forms], "<", 1e-12)
    params = derive_params(32.0, 1.0, 4)
    geo = LatticeGeometry(n=4, sites_per_square=2)
    two, factor_gap = [], []
    for u1, u2 in size["two_components"]:
        tau = np.zeros((geo.sites_per_side,) * 2)
        geo.blocks(tau)[0, :, 0] = np.sqrt(u1 / 32.0)
        geo.blocks(tau)[7, :, 7] = np.sqrt(u2 / 32.0)
        fld = FieldConfig.from_tau(geo, tau)
        regions = build_regions(classify_squares(fld, params, geo), geo,
                                corridorM=2.0)
        two.append(len(regions.components) == 2)
        cset = cov.build_Cgamma(params, geo, cfg.cutoff(), regions, pad=2)
        z = cov.compute_Zgamma(cset, regions)
        parts = sum(cov.component_log_z(cset, cm)
                    for cm in cset.component_masks)
        factor_gap.append(abs(z - np.exp(parts)) / z)
    _holds(table, "two-components", "regions", "large-field-components", two)
    _gate(table, "normalization-factorization", "covariance",
          "gaussian-normalization", factor_gap, "<", 1e-8)


def criterion_07_forest_formula(cfg, table, size):
    """Forest counts, the interpolation and neighbour-link identities,
    positivity of interpolated kernels and of their level decomposition."""
    ok = all(len(fo.enumerate_forests(range(nn))) == FOREST_COUNTS[nn - 1]
             for nn in range(1, size["max_size"] + 1))
    table.add("forest-counts", "forests", "forest-enumeration",
              size["max_size"], math.nan, ok)
    partials = (fo.product_partial, fo.exponential_partial,
                fo.polynomial_partial)
    resid = [fo.verify_forest_formula(partial, range(n))
             for n, count in size["forest_formula"]
             for partial in partials[:count]]
    _gate(table, "interpolation-identity", "forests", "forest-formula",
          resid, "<", 1e-8)
    _holds(table, "neighbor-link-identity", "forests", "first-forest-formula",
           [fo.verify_first_forest_formula([0, 1], [(0, 1)], [{0, 1}]),
            fo.verify_first_forest_formula(
                [0, 1, 2], [(0, 1), (1, 2), (0, 2)], [{0, 1, 2}])])
    rng = np.random.default_rng(cfg.seed)
    low = []
    for _ in range(size["trials"]):
        nb = int(rng.integers(2, 5))
        labels = rng.integers(0, nb, size=6)
        b = rng.normal(size=(6, 6))
        edges = tuple((i, i + 1) for i in range(nb - 1)
                      if rng.random() < 0.7)
        h = {e: float(rng.random()) for e in edges}
        low.append(float(np.linalg.eigvalsh(
            fo.interpolated_kernel(b @ b.T, labels, edges, h)).min()))
    _gate(table, "interpolated-positivity", "forests",
          "positivity-decomposition", low, ">=", -1e-10)
    recon, term_low = [], []
    for seed, draws in size["decomposition"]:
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            nblocks = int(rng.integers(2, 5))
            labels = rng.integers(0, nblocks, size=int(rng.integers(4, 9)))
            b = rng.normal(size=(len(labels), len(labels)))
            k = b @ b.T
            edges = []
            for e in itertools.combinations(range(nblocks), 2):
                if rng.random() < 0.4 and len(edges) < nblocks - 1:
                    with contextlib.suppress(ValueError):  # a cycle
                        fo.Forest(tuple(range(nblocks)), tuple(edges) + (e,))
                        edges.append(e)
            h = {e: float(rng.random()) for e in edges}
            terms = fo.positivity_decomposition(k, labels, tuple(edges), h)
            scale = max(float(np.linalg.norm(k, 2)), 1.0)
            total = sum(wt * term for wt, term in terms)
            recon.append(np.abs(total - fo.interpolated_kernel(
                k, labels, tuple(edges), h)).max() / scale)
            term_low += [np.linalg.eigvalsh(t).min() / scale
                         for _, t in terms]
    _gate(table, "decomposition-sum", "forests", "positivity-decomposition",
          recon, "<", 1e-10)
    _gate(table, "decomposition-positivity", "forests",
          "positivity-decomposition", term_low, ">", -1e-10)


def criterion_08_mayer_factors(table, size):
    """Mayer connectivity: graph sum against tree formula, closed forms."""
    graphs = [(3, [(0, 1), (1, 2), (0, 2)], 12),
              (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 12)]
    for q in size["mayer_graph_q"]:
        pairs = list(itertools.combinations(range(q), 2))
        graphs += [(q, [p for k, p in enumerate(pairs) if bits >> k & 1], 8)
                   for bits in range(1 << len(pairs))]
    _gate(table, "mayer-dual-route", "forests", "connectivity-factor",
          [abs(fo.mayer_connectivity(pairs, q)
               - fo.mayer_tree_formula(pairs, q, nodes=nodes))
           for q, pairs, nodes in graphs], "<", 1e-6)
    _gate(table, "mayer-complete-graph", "forests", "connectivity-factor",
          [abs(fo.mayer_connectivity(itertools.combinations(range(q), 2), q)
               - (-1.0) ** (q - 1) * math.factorial(q - 1))
           for q in size["complete_q"]], "<=", 0.0)


def criterion_09_partition_and_regions(cfg, table, size):
    """Window partition of unity, the region invariants and corridor
    widths, and the cover of large squares by components."""
    gaps, invariant, margin = [], [], []
    for seed, bigN, windows, span, draws, configs in size["partition"]:
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        for u in rng.uniform(0.0, span * bigN ** (1 / 3), draws):
            theta_s, theta_n = window_weights(u, bigN, windows)
            gaps.append(abs(theta_s + np.sum(theta_n) - 1.0))
        geo = LatticeGeometry(n=5)
        params = _bench_params(0.3, 1.0, 1.0, bigN, 3.0)
        for _ in range(configs):
            tau = np.zeros((geo.sites_per_side,) * 2)
            for c in geo.squares:
                if rng.random() < 0.1:
                    geo.blocks(tau)[c[0] + geo.n, :, c[1] + geo.n] = \
                        math.sqrt(10.0 ** rng.uniform(0.5, 2.5))
            asg = classify_squares(FieldConfig.from_tau(geo, tau), params,
                                   geo)
            corridor = float(rng.uniform(1.5, 4.0))
            reg = build_regions(asg, geo, corridorM=corridor)
            comps = reg.components
            gamma_in = reg.gamma & frozenset(geo.squares)
            union = frozenset().union(*(c.big_gamma for c in comps))
            invariant.append(
                reg.lambda_l <= gamma_in <= reg.big_gamma <= reg.big_gamma_e
                and sum(len(c.l_squares) for c in comps) == len(reg.lambda_l)
                and union == reg.big_gamma
                and sum(len(c.big_gamma) for c in comps) == len(union)
                and len(reg.e_components) <= len(comps))
            outside = [b for b in geo.squares if b not in reg.big_gamma]
            dist = square_distance(np.reshape(list(reg.gamma), (-1, 1, 2)),
                                   np.reshape(outside, (1, -1, 2)))
            margin.append(np.min(dist - corridor / 2 + math.sqrt(2),
                                 initial=math.inf))
    _gate(table, "partition-of-unity", "regions", "window-partition", gaps,
          "<", 1e-12)
    _holds(table, "region-invariants", "regions", "large-field-components",
           invariant)
    _gate(table, "corridor-distance", "regions", "large-field-components",
          margin, ">=", -1e-12)
    params, geo, fld = _small_setup(cfg)
    asg = classify_squares(fld, params, geo)
    regions = build_regions(asg, geo, corridorM=params.corridorM)
    covered = all(any(tuple(sq) in comp.l_squares
                      for comp in regions.components)
                  for sq in asg.large_squares)
    table.add("component-cover", "regions", "large-field-components",
              len(regions.components), math.nan, covered)


def criterion_10_integrand_bound_and_normalization(cfg, table, size):
    """The damping bound of the large-field integrand with a constant fitted
    on half the configurations; the single-square normalization."""
    params = derive_params(32.0, 1.0, 10 ** 6, corridor_override=2.0)
    geo = LatticeGeometry(n=2, sites_per_square=3)
    fits, holdout, excess = [], [], []
    for seed, configs in size["damping"]:
        rng = np.random.default_rng(seed)
        reports = []
        while len(reports) < configs:
            tau = rng.normal(size=(geo.sites_per_side,) * 2) * 0.35
            nl = 1 + rng.integers(0, 2)
            for q in rng.choice(16, size=nl, replace=False):
                i, j = divmod(int(q), 4)
                u = rng.uniform(15.0, 70.0)
                blk = rng.normal(size=(3, 3))
                blk *= np.sqrt(u / 32.0 / (np.sum(blk ** 2)
                                           * geo.site_weight))
                geo.blocks(tau)[i, :, j] = blk
            fld = FieldConfig.from_tau(geo, tau)
            asg = classify_squares(fld, params, geo)
            if asg.labels.max() != 1 or (asg.labels > 0).sum() != nl:
                continue
            regions = build_regions(asg, geo, corridorM=params.corridorM)
            cset = cov.build_Cgamma(params, geo, cfg.cutoff(), regions,
                                    pad=2, routes="direct")
            dc = cov.build_deltaC(params, geo, cfg.cutoff(), regions, pad=2)
            cov.compute_Zgamma(cset, regions)
            reports.append(cov.damping_report(fld, params, regions, cset, dc,
                                              asg))
        consts = [r.required_const for r in reports]
        fits.append(max(consts[:configs // 2]))
        holdout.append(max(consts[configs // 2:]) - 3.0 * fits[-1])
        excess += [r.log_value + 0.49 * r.mass_large - 3.0 * fits[-1]
                   * params.bigN ** (-0.4) * r.mass_small for r in reports]
    if fits:
        table.add("damping-fit-constant", "covariance", "integrand-bound",
                  min(fits), 0.0, all(np.isfinite(f) and f > 0 for f in fits))
    _gate(table, "damping-holdout", "covariance", "integrand-bound", holdout,
          "<=", 0.0)
    _gate(table, "damping-bound", "covariance", "integrand-bound", excess,
          "<=", 0.0)
    dev = []
    for bigN, samples, seed in size["square_normalization"]:
        value = cov.single_square_normalization(
            derive_params(1.0, 1.0, bigN, corridor_override=2.0),
            cfg.cutoff(), samples=samples, seed=seed)
        dev.append(abs(value - 1.0) / bigN ** (-0.2))
    _gate(table, "square-normalization", "covariance",
          "square-normalization", dev, "<=", 1.0)


def criterion_11_two_point_decay(cfg, table, size):
    """Free-route and interacting decay mass against the gap mass, fit
    quality of the interacting fit run, phase of every interacting run,
    and the N-scan."""
    params = cfg.params

    def run(p, sites, samples, seed):
        # no phase floor: a phase below the twopoint-phase bound fails
        # that row instead of aborting the run
        return tp.estimate_S2(
            p, geometry=LatticeGeometry(n=cfg.n, sites_per_square=sites),
            cutoff=cfg.cutoff(), seed=cfg.seed if seed is None else seed,
            n_samples=samples, phase_floor=0.0)

    _gate(table, "twopoint-free-mass", "twopoint", "mass-persistence",
          [abs(run(dataclasses.replace(params, g=0.0), *inp).fitted_mprime
               / params.m - 1.0) for inp in size["free_runs"]], "<", 0.05)
    runs = {inp: run(params, *inp)
            for inp in dict.fromkeys(size["mass_runs"] + size["fit_runs"])}
    ratios = [runs[inp].fitted_mprime / runs[inp].gap_mass
              for inp in size["mass_runs"]]
    if ratios:
        ratio = max(ratios, key=lambda r: abs(r - 1.0))
        table.add("twopoint-mass-ratio", "twopoint", "mass-persistence",
                  ratio, "[0.7,1.3]", 0.7 < ratio < 1.3)
    _gate(table, "twopoint-fit-residual", "twopoint", "mass-persistence",
          [runs[inp].fit_residual for inp in size["fit_runs"]], ">=", 0.95)
    _gate(table, "twopoint-phase", "twopoint", "sign-problem",
          [r.phase_diagnostic for r in runs.values()], ">=", 0.05)
    excess = []
    for sites, samples, seed, bigNs in size["scans"]:
        _, steps = tp.mass_vs_N_scan(
            [dataclasses.replace(cfg, bigN=n).params for n in bigNs],
            cfg.cutoff(),
            geometry=LatticeGeometry(n=cfg.n, sites_per_square=sites),
            seed=seed, n_samples=samples)
        excess += steps
    _gate(table, "twopoint-n-scan", "twopoint", "mass-persistence", excess,
          "<=", 0.0)


def criterion_12_polymer_sum(table, size):
    """Activity sum at the threshold <= 1/2, finite tail; polyomino counts."""
    rho = fo.activity_threshold()
    total = fo.polymer_activity_sum(rho)
    table.add("polymer-sum", "forests", "polymer-convergence", total.total,
              0.5 + 1e-12, rho > 0.0 and np.isfinite(total.tail)
              and total.total <= 0.5 + 1e-12)
    _holds(table, "polymer-counts", "forests", "polymer-convergence",
           [total.counts == counts for counts in size["polymer_counts"]])


def run_gap_checks(cfg, table, size):
    criterion_01_gap_equation(cfg, table, size)


def run_kernel_checks(cfg, table, size):
    criterion_02_kernel_decay(table, size)
    criterion_03_bubble_normalization(cfg, table, size)


def run_decompose_checks(cfg, table, size):
    criterion_09_partition_and_regions(cfg, table, size)


def run_opcheck(cfg, table, size):
    criterion_05_determinant_identities(cfg, table, size)
    criterion_04_small_field_operator_norm(cfg, table, size)


def run_covariance_checks(cfg, table, size):
    criterion_06_covariance_structure(cfg, table, size)
    criterion_10_integrand_bound_and_normalization(cfg, table, size)


def run_forest_checks(cfg, table, size):
    criterion_07_forest_formula(cfg, table, size)
    criterion_08_mayer_factors(table, size)
    criterion_12_polymer_sum(table, size)


def run_accept_all(cfg, table, size):
    """Every criterion, at the profile's inputs."""
    for runner in (run_gap_checks, run_kernel_checks, run_decompose_checks,
                   run_opcheck, run_covariance_checks, run_forest_checks,
                   criterion_11_two_point_decay):
        runner(cfg, table, size)


def run_twopoint(cfg, args):
    seps = None
    if args.separations:
        try:
            seps = [float(x) for x in args.separations.split(",")]
        except ValueError:
            raise ConfigError("--separations must be comma-separated "
                              f"numbers, got {args.separations!r}")
    try:
        res = tp.estimate_S2(cfg.params, geometry=cfg.geometry(),
                             cutoff=cfg.cutoff(), seed=cfg.seed,
                             n_samples=cfg.samples,
                             separations=seps)
    except ValueError as exc:  # separations or sample count it rejects
        raise ConfigError(str(exc)) from exc
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
    path = write_output(cfg.resolved_outdir(), "twopoint.csv",
                        "\n".join(lines) + "\n")
    print(f"fitted_mprime={_fmt(res.fitted_mprime)} "
          f"m={_fmt(res.gap_mass)} "
          f"ratio={_fmt(res.fitted_mprime / res.gap_mass)} "
          f"phase={_fmt(res.phase_diagnostic)}")
    print(f"wrote {path}")
    return EXIT_OK


def _table_command(runner):
    def cmd(cfg, args):
        table = ResultsTable(run_hash(cfg, args))
        runner(cfg, table, run_size(args))
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
    "forest-verify": _table_command(run_forest_checks),
    "twopoint": run_twopoint,
    "accept-all": _table_command(run_accept_all),
}


class _Parser(argparse.ArgumentParser):
    """Bad command-line input raises ConfigError, named by the parser's
    prog ("sigmagap twopoint"), so main reports it as one 'config error:'
    line with exit code 2, like bad config values; the subcommand parsers
    are of this class too.  --help still exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def make_parser():
    parser = _Parser(
        prog="sigmagap",
        description="Numerical checks for the large-N mass-gap "
                    "construction at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        for flag, field, cast in KNOWN_KEYS.values():
            p.add_argument(flag, dest=field, type=cast)
        if name == "forest-verify":
            p.add_argument("--max-size", dest="max_size", type=int)
            p.add_argument("--trials", type=int)
        if name == "twopoint":
            p.add_argument("--separations")
        if name == "accept-all":
            p.add_argument("--profile", choices=sorted(PROFILES),
                           default="quick")
    return parser


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        cfg = build_config(args)
        check_outdir(cfg.resolved_outdir())
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:  # SignProblemError included
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
