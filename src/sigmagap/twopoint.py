"""Monte Carlo estimator for the two-point function and its decay mass.

The two-point function is written as a Gaussian average over the
auxiliary field of a resolvent entry times a complex determinant weight,

    S2(x,y) = < R_tau(x,y) det3^{-N/2}(1+iA) > / < det3^{-N/2}(1+iA) >,

with R_tau = (1 + F ig tau)^{-1} F and the average over tau with the
free covariance.  Draws are independent (direct Gaussian sampling), the
complex weight is handled by reweighting, and a phase diagnostic
|<w>| / <|w|> guards against the sign problem.

Each draw lives on the range of F = V V^T (rank r < n/2 under the cutoff):
with S = V^T diag(w tau) V, det3(1 + igF diag(w tau)) = det3(1 + igS)
(Sylvester) and R_tau = V (1 + igS)^{-1} V^T (push-through).  One LU of
the r x r 1 + igS, which its spectrum on Re = 1 never makes singular,
serves both: log det from its diagonal and pivot parity, the resolvent
row from one solve against it; the trace terms of det3 come from S (no
eigensolve).  The per-sample loop (draw, S product, LU, solve) calls
scipy's BLAS and LAPACK only, so the OpenBLAS pools that numpy and scipy
each load never alternate inside it.

Parallel sampling.  The draws are independent, so the interacting
samples run on a concurrent.futures.ProcessPoolExecutor of
len(os.sched_getaffinity(0)) workers, forked (start method "fork") on the
first interacting call and again when the C0 root, V or the worker count
changes.  The executor forks every worker at its first submit, a no-op
submitted while every OpenBLAS loaded in the parent is set to one thread
and restored after: each worker starts with one thread and no idle BLAS
pool, reports its counts, and the parent checks them.  The initializer
keeps (root, V) as the fork hands them down, so a task carries only its
draws.  The parent draws z from default_rng(seed) in sample order, in
chunks of at most _CHUNK samples, keeps at most workers + 1 chunks in
flight and takes each chunk's rows and weights (_sample_chunk) back in
order.  Every sample thus runs the same one-thread code whatever the
worker count, so an estimate is bit-identical for every count.  A pool
found broken at a call's first submit (a worker died while idle) is
forked again for the same draws; a worker lost later in a call raises
RuntimeError and drops the pool.  Where the pin is impossible (no fork,
no /proc/self/maps, scipy not on OpenBLAS, an OpenBLAS without its
thread calls, or a worker that reports more than one thread),
_sample_chunk runs in this process instead, with its own BLAS threads.

Mass extraction: at desk couplings the box sits deep in the m*r << 1
regime where the raw log-slope of the free kernel is dominated by its
Bessel-type prefactor, not by the mass.  The fitted decay slope is
therefore converted to a mass by matching it against the slope of the
exact free kernel at trial mass over the same separations and weights,
by Newton steps that take the slope's mass derivative from the same
quadrature; in the free case this returns the input mass to 1e-14.
"""

import collections
import concurrent.futures
import ctypes
import dataclasses
import functools
import hashlib
import itertools
import multiprocessing
import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import scipy
from scipy.linalg import blas, lapack

from .covariance import c0_root
from .kernels import CutoffSpec, propagator_m2_derivative
from .operators import build_A, log_det_n, propagator_factor, propagator_matrix


# slack, in combined standard errors, of the N-scan's monotonicity check
SCAN_SIGMA_SLACK = 2.0
# batch means behind each standard error
N_BATCHES = 20


class SignProblemError(ArithmeticError):
    """The phase average is too small for the ratio estimator."""


def resolvent_matrix(field, params):
    """All entries of (1 + F ig tau)^(-1) F by a dense solve.

    Symmetric for real tau (every Neumann term F(igtau F)^k is)."""
    geometry = field.geometry
    f = propagator_matrix(geometry, params.m)
    tau = field.tau.reshape(-1)
    shift = 1j * params.g * geometry.site_weight * tau
    m_mat = np.eye(len(tau)) + f * shift[None, :]
    return np.linalg.solve(m_mat, f)


def sample_weight(field, params):
    """Complex weight det3^{-N/2}(1+iA) through the eigenvalue route.

    The principal branch is safe here: N is even, so a 2*pi*i branch
    slip in log det multiplies the weight by exp(-i*pi*N*k) = 1."""
    a = build_A(field, params, symmetrize=True)
    logdet3 = log_det_n(np.linalg.eigvals(1j * a.op.weighted), 3)
    return complex(np.exp(-0.5 * params.bigN * logdet3))


def _sample_on_range(v, g, wtau, v_x, v_y):
    """Resolvent row R_tau[x, ys] and log det3 of a draw via M = 1 + igS,
    both from one LU of M (zgetrf): row x of M^-1 (complex symmetric) is
    its solve against V[x] (zgetrs), and log det M = sum log u_ii
    + i pi (pivot parity), on any branch (see sample_weight).  The parity
    term matters: for N = 2 mod 4 a dropped -1 flips the weight's sign.
    S real symmetric gives log det3 M = log det M - ig tr S - (g^2/2)
    |S|_F^2, operators.log_det_n_matrix's form kept inline to share the
    LU.  The cancellation costs 2e-15 of log det3 (3e-7 at 576 sites;
    7e-18 by eigvalsh), 1e-11 of log weight at N = 1e4.

    Every BLAS and LAPACK call is scipy's, as is the draw in estimate_S2:
    numpy and scipy each load their own OpenBLAS, and a loop that
    alternates between the two pools makes their threads contend (a
    scipy LU between numpy GEMMs ran the 576-site loop about 4x slower).  S
    is one TN GEMM, copy-free for a Fortran-ordered V."""
    s_mat = blas.dgemm(1.0, v, wtau[:, None] * v, trans_a=True)
    m_mat = 1j * g * s_mat
    m_mat.flat[::len(s_mat) + 1] += 1.0
    lu, piv, info = lapack.zgetrf(m_mat, overwrite_a=True)
    if info > 0:
        raise ArithmeticError("1 + igS is singular")
    swaps = np.count_nonzero(piv != np.arange(len(piv)))
    logdet3 = (np.sum(np.log(lu.diagonal())) + 1j * np.pi * (swaps % 2)
               - 1j * g * np.trace(s_mat)
               - 0.5 * g * g * np.sum(s_mat * s_mat))
    row, _ = lapack.zgetrs(lu, piv, v_x)
    return blas.zgemv(1.0, v_y, row, trans=1), complex(logdet3)


def _sample_chunk(root, v, g, w, bigN, x_idx, y_idx, z):
    """Weighted resolvent rows R_tau[x, ys] w and weights w of the draws
    tau = root z, one per row of z (one LU each, see _sample_on_range)."""
    v_x, v_y = v[x_idx], v[y_idx].T
    num = np.empty((len(z), len(y_idx)), dtype=complex)
    den = np.empty(len(z), dtype=complex)
    for k, zk in enumerate(z):
        tau = blas.dgemv(1.0, root.T, zk, trans=1)
        rrow, logdet3 = _sample_on_range(v, g, w * tau, v_x, v_y)
        wt = np.exp(-0.5 * bigN * logdet3)
        num[k] = rrow * wt
        den[k] = wt
    return num, den


# ---------------------------------------------------------------------------
# sampling workers (see the module docstring)

_WORKERS = None   # worker count; None reads the CPU affinity
_CHUNK = 32       # samples per task, which bounds the draws held at once
_POOL = None
_POOL_LOCK = threading.Lock()
_PIN_FAILED = False
_ARRAYS = None    # (root, V) in a worker, kept by _init_worker


@functools.cache
def _blas_pins():
    """(set, get) thread-count calls of every OpenBLAS loaded in this
    process, scipy's among them; None where a forked worker cannot be
    pinned to one BLAS thread."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    try:  # show_config's mode is scipy >= 1.11
        deps = scipy.show_config(mode="dicts")["Build Dependencies"]
        with open("/proc/self/maps") as maps:
            paths = {f[-1] for f in map(str.split, maps)
                     if len(f) == 6 and "openblas" in os.path.basename(f[-1])}
    except (TypeError, KeyError, OSError):
        return None
    if "openblas" not in deps["blas"]["name"].lower():
        return None
    pins = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        calls = [(getattr(lib, f"{pre}openblas_set_num_threads{suf}", None),
                  getattr(lib, f"{pre}openblas_get_num_threads{suf}", None))
                 for pre in ("scipy_", "") for suf in ("", "64_")]
        calls = [c for c in calls if None not in c]
        if not calls:
            return None
        set_threads, get_threads = calls[0]
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        pins.append(calls[0])
    return tuple(pins) or None


def _init_worker(root, v, report, owner):
    """Keep (root, V) as the fork hands them down, ignore SIGINT, die with
    the owner (an orphan would wait on the executor's queue for good) and
    report pid and BLAS thread counts."""
    global _ARRAYS
    _ARRAYS = root, v
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]  # returns int
    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != owner:  # the owner died before the prctl
        os._exit(1)
    report.send((os.getpid(), [get() for _, get in _blas_pins()]))
    report.close()


def _pooled_chunk(call, z):
    return _sample_chunk(*_ARRAYS, *call, z)


_Pool = collections.namedtuple("_Pool", "executor root v owner pids threads")


def _close_pool():
    global _POOL
    if _POOL is not None:
        _POOL.executor.shutdown(cancel_futures=True)
        _POOL = None


def _live_pool(root, v):
    """The pinned pool holding (root, V), forked again when the arrays or
    the worker count change; None where workers cannot be pinned."""
    global _POOL, _PIN_FAILED
    if (_PIN_FAILED or _blas_pins() is None
            or multiprocessing.current_process().daemon):
        return None
    if _POOL is not None and _POOL.owner != os.getpid():
        _POOL = None  # a forked copy of the owner, without its threads
    size = _WORKERS or len(os.sched_getaffinity(0))
    if _POOL is not None and (len(_POOL.pids) != size
                              or _POOL.root is not root or _POOL.v is not v):
        _close_pool()
    if _POOL is None:
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        executor = concurrent.futures.ProcessPoolExecutor(
            size, mp_context=ctx, initializer=_init_worker,
            initargs=(root, v, writer, os.getpid()))
        counts = [get() for _, get in _blas_pins()]
        for set_threads, _ in _blas_pins():
            set_threads(1)
        try:  # a no-op: the first submit forks every worker
            executor.submit(int)
        finally:
            for (set_threads, _), count in zip(_blas_pins(), counts):
                set_threads(count)
            writer.close()
        with reader:
            reports = [reader.recv() for _ in range(size)]
        _POOL = _Pool(executor, root, v, os.getpid(), *zip(*reports))
        if any(n != 1 for counts in _POOL.threads for n in counts):
            _close_pool()
            _PIN_FAILED = True
    return _POOL


def _sample_draws(rng, n_samples, root, v, call):
    """(num, den) of n_samples draws z ~ rng in sample order, each chunk
    _sample_chunk(root, v, *call, z) in process or on the pool."""
    with _POOL_LOCK:
        pool = _live_pool(root, v)
        size = min(_CHUNK, -(-n_samples // (len(pool.pids) if pool else 1)))
        futures, chunks = collections.deque(), []
        try:
            for a in range(0, n_samples, size):
                z = rng.standard_normal((min(size, n_samples - a),
                                         root.shape[1]))
                if pool is None:
                    chunks.append(_sample_chunk(root, v, *call, z))
                    continue
                task = _pooled_chunk, call, z
                try:
                    futures.append(pool.executor.submit(*task))
                except BrokenProcessPool:
                    if a:
                        raise
                    _close_pool()  # it broke while idle: fork again, once
                    pool = _live_pool(root, v)
                    futures.append(pool.executor.submit(*task))
                if len(futures) > len(pool.pids):  # workers + 1 in flight
                    chunks.append(futures.popleft().result())
            chunks.extend(future.result() for future in futures)
        except BrokenProcessPool as exc:
            _close_pool()
            raise RuntimeError("a sampling worker exited mid-call") from exc
        return (np.concatenate([num for num, _ in chunks]),
                np.concatenate([den for _, den in chunks]))


@dataclasses.dataclass
class TwoPointResult:
    separations: np.ndarray
    estimates: np.ndarray          # complex ratio means per separation
    stderr: np.ndarray
    fitted_mprime: float
    mprime_stderr: float
    fit_residual: float            # R^2 of the weighted decay fit
    sample_count: int
    params_hash: str
    phase_diagnostic: float
    mean_weight: complex
    gap_mass: float
    fit_window: tuple


def _params_hash(params, geometry, cutoff, **inputs):
    """Hash over the model, grid and cutoff plus every named estimator
    input (seed, sample count, separations, batching, ...)."""
    text = repr((params.lam, params.bigK, params.bigN, params.m,
                 params.g, geometry.n, geometry.sites_per_square,
                 getattr(cutoff, "c", cutoff), sorted(inputs.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _weighted_slope(x, y, wts):
    """Weighted least-squares slope, with the normalized weights, the
    weighted means of x and y and sxx."""
    wts = np.asarray(wts, dtype=float)
    wts = wts / wts.sum()
    xm = np.sum(wts * x)
    ym = np.sum(wts * y)
    sxx = np.sum(wts * (x - xm) ** 2)
    return np.sum(wts * (x - xm) * (y - ym)) / sxx, wts, xm, ym, sxx


def _weighted_line_fit(x, y, wts):
    """Weighted least-squares line with slope variance and R^2."""
    slope, wts, xm, ym, sxx = _weighted_slope(x, y, wts)
    icpt = ym - slope * xm
    resid = y - (icpt + slope * x)
    ss_res = np.sum(wts * resid ** 2)
    ss_tot = np.sum(wts * (y - ym) ** 2)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, icpt, r2, sxx


def reference_slope(m_trial, separations, wts):
    """Weighted log-slope of the exact free kernel at a trial mass, and its
    derivative in log m, from one kernel quadrature: the fit is linear in
    its data, and d log F / d log m = 2 m^2 (dF/dm^2) / F."""
    r = np.asarray(separations, dtype=float)
    vals, dvals = propagator_m2_derivative(m_trial ** 2, r)
    slope = _weighted_slope(r, np.log(vals), wts)[0]
    dslope = _weighted_slope(r, 2.0 * m_trial ** 2 * dvals / vals, wts)[0]
    return slope, dslope


def match_decay_mass(separations, values, errors):
    """Convert measured decay values to a mass by slope matching.

    Fits log(Re S2) over the separations with inverse-variance weights
    (unit weights when errors is None or all zero, as in the free case)
    and solves reference_slope(m) = measured slope for m in [1e-9, 2.5].
    Returns (mass, mass_stderr, r_squared, measured_slope).

    The reference slope is negative and falls as m grows, and 1 / slope
    is near linear in log m where m r << 1 (F ~ -log m), so Newton's
    method on 1 / slope in u = log m, from m = 0.01 and clamped to the
    range, takes three or four kernel quadratures at desk couplings.  It
    stops after a step below 1e-7 in u, whose own error is of order the
    step squared; a clamped iterate whose slope still misses the measured
    one means no mass in the range matches."""
    r = np.asarray(separations, dtype=float)
    vals = np.asarray([float(np.real(v)) for v in values])
    if np.any(vals <= 0.0):
        raise ArithmeticError("nonpositive correlator in the fit window")
    if errors is None or np.all(np.asarray(errors) < 1e-300):
        wts = np.ones_like(r)
        slope_se = 0.0
        slope, _, r2, _ = _weighted_line_fit(r, np.log(vals), wts)
    else:
        errors = np.asarray(errors, dtype=float)
        rel = np.maximum(errors / vals, 1e-12)
        wts = 1.0 / rel ** 2
        slope, _, r2, sxx = _weighted_line_fit(r, np.log(vals), wts)
        slope_se = np.sqrt(1.0 / (sxx * np.sum(wts)))

    outside = ArithmeticError("measured slope outside the free-kernel "
                              "slope range; no decay mass matches")
    if slope >= 0.0:
        raise outside
    lo, hi = np.log(1e-9), np.log(2.5)
    u = np.log(0.01)
    for _ in range(50):
        m_eval = np.exp(u)
        ref, dref = reference_slope(m_eval, r, wts)
        if (u == lo and ref < slope) or (u == hi and ref > slope):
            raise outside
        u_eval = u
        u = min(max(u + (1.0 / ref - 1.0 / slope) * ref * ref / dref, lo),
                hi)
        if abs(u - u_eval) < 1e-7:
            break
    else:
        raise ArithmeticError("the decay mass match did not converge")
    mass_se = slope_se * m_eval / abs(dref) if slope_se > 0.0 else 0.0
    return float(np.exp(u)), mass_se, r2, slope


def default_separations(geometry):
    """Site-resolution separations along the +x axis, 0 to 3 units."""
    step = 1.0 / geometry.sites_per_square
    return np.arange(0.0, 3.0 + 0.5 * step, step)


def fit_window(geometry):
    """[2, L/3] in box units: clear of the contact region and the edge."""
    return 2.0, (2.0 * geometry.n) / 3.0


def estimate_S2(params, *, geometry, seed, n_samples, cutoff=None,
                separations=None, phase_floor=0.05):
    """Reweighted ratio estimator of S2 along a lattice axis.

    Draws are independent Gaussians with the free covariance; each costs
    one r x r LU and one solve against it on the range of F (see the
    module docstring).  Standard errors come from N_BATCHES batch means
    of the ratio.  Separations must be nonnegative multiples of the site
    spacing.  Raises SignProblemError when the phase average drops below
    phase_floor."""
    cutoff = cutoff or CutoffSpec(c=1.0)
    if separations is None:
        separations = default_separations(geometry)
    separations = np.asarray(separations, dtype=float)
    if n_samples < N_BATCHES:
        raise ValueError("need at least one sample per batch")
    lo, hi = fit_window(geometry)
    sel = (separations >= lo - 1e-12) & (separations <= hi + 1e-12)
    if sel.sum() < 2:
        raise ValueError(f"the fit window [{lo:g}, {hi:g}] holds "
                         f"{sel.sum()} separation(s); the fit needs two")

    side = geometry.sites_per_side
    s = geometry.sites_per_square

    # source two units in from the left edge, on the middle row
    row0, col0 = side // 2, 2 * s
    x_idx = row0 * side + col0
    steps = np.round(separations * s)
    if np.any(separations < 0) or np.any(
            np.abs(separations * s - steps) > 1e-9):
        raise ValueError("separations must be nonnegative multiples of "
                         f"the site spacing 1/{s}")
    y_idx = x_idx + steps.astype(int)
    if y_idx.max() >= (row0 + 1) * side:
        raise ValueError("separations leave the grid")

    free = params.g == 0.0
    if free:
        # R_tau = F and w = 1 for every draw
        f_row = propagator_matrix(geometry, params.m)[x_idx, y_idx]
        num = np.tile(f_row.astype(complex), (n_samples, 1))
        den = np.ones(n_samples, dtype=complex)
    else:
        num, den = _sample_draws(
            np.random.default_rng(seed), n_samples,
            c0_root(params, geometry, cutoff),
            np.asfortranarray(propagator_factor(geometry, params.m)),
            (params.g, geometry.site_weight, params.bigN, x_idx, y_idx))

    mean_w = den.mean()
    diag = abs(mean_w) / np.mean(np.abs(den))
    if diag < phase_floor:
        raise SignProblemError(
            f"phase average {diag:.3g} below {phase_floor}: estimator "
            "variance unusable at these parameters")

    estimates = num.mean(axis=0) / mean_w
    batches = np.array_split(np.arange(n_samples), N_BATCHES)
    batch_est = np.array([num[b].mean(axis=0) / den[b].mean()
                          for b in batches])
    stderr = batch_est.std(axis=0, ddof=1) / np.sqrt(len(batches))

    mprime, mprime_se, r2, _ = match_decay_mass(
        separations[sel], estimates[sel],
        None if free else np.abs(stderr[sel]))
    return TwoPointResult(
        separations=separations, estimates=estimates,
        stderr=np.abs(stderr), fitted_mprime=mprime,
        mprime_stderr=mprime_se, fit_residual=r2,
        sample_count=n_samples,
        params_hash=_params_hash(
            params, geometry, cutoff, seed=seed, n_samples=n_samples,
            separations=separations.tolist(), n_batches=N_BATCHES,
            phase_floor=phase_floor),
        phase_diagnostic=diag, mean_weight=complex(mean_w),
        gap_mass=params.m, fit_window=(lo, hi))


def mass_vs_N_scan(params_list, cutoff, geometry, seed, n_samples):
    """estimate_S2 over a grid of parameter sets ordered by increasing N.

    Returns the rows and, for each step to the next N, the excess of the
    growth of |m'/m - 1| over its slack of SCAN_SIGMA_SLACK combined
    standard errors: the deviation is non-increasing in N within the
    stated sigmas when no excess is positive."""
    rows = []
    for i, params in enumerate(params_list):
        res = estimate_S2(params, geometry=geometry, cutoff=cutoff,
                          seed=seed + i, n_samples=n_samples)
        dev = abs(res.fitted_mprime / params.m - 1.0)
        dev_se = res.mprime_stderr / params.m
        rows.append({"bigN": params.bigN, "m": params.m,
                     "mprime": res.fitted_mprime, "deviation": dev,
                     "deviation_se": dev_se,
                     "phase_diagnostic": res.phase_diagnostic,
                     "fit_residual": res.fit_residual})
    excess = [b["deviation"] - a["deviation"] - SCAN_SIGMA_SLACK
              * np.hypot(a["deviation_se"], b["deviation_se"])
              for a, b in itertools.pairwise(rows)]
    return rows, excess
