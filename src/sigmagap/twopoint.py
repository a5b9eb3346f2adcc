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
samples run on a persistent pool of len(os.sched_getaffinity(0)) worker
processes, forked on the first interacting call.  Every OpenBLAS loaded
in the parent is set to one thread for the forks and restored after them,
so each worker starts with one thread and no idle BLAS pool; the worker
reports its counts, which the parent checks.  The parent draws z from
default_rng(seed) in sample order, in contiguous chunks of at most
_CHUNK samples, and sends each chunk to an idle worker; the worker
returns tau = root z, the resolvent row and the weight of every sample
(_sample_chunk), and the parent puts them back in sample order before
the reductions.  V and the C0 root go to a worker once and again when
the parent's arrays are other objects.  Every sample thus runs the same
one-thread code whatever the worker count, so an estimate is
bit-identical for every count.  Where the pin is impossible (no fork, no
/proc/self/maps, scipy not on OpenBLAS, an OpenBLAS without its thread
calls, or a worker that reports more than one thread), _sample_chunk
runs in this process instead, with the process's own BLAS threads.

Mass extraction: at desk couplings the box sits deep in the m*r << 1
regime where the raw log-slope of the free kernel is dominated by its
Bessel-type prefactor, not by the mass.  The fitted decay slope is
therefore converted to a mass by matching it against the slope of the
exact free kernel at trial mass over the same separations and weights;
in the free case this returns the input mass to solver precision.
"""

import atexit
import ctypes
import dataclasses
import functools
import hashlib
import itertools
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading

import numpy as np
import scipy
from scipy.linalg import blas, lapack
from scipy.optimize import brentq

from .covariance import c0_root
from .kernels import CutoffSpec, propagator_values
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
_CHUNK = 32       # samples per message, which bounds the draws held at once
_POOL = None
_POOL_LOCK = threading.Lock()
_PIN_FAILED = False


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


def _worker(conn, inherited):
    """Serve chunks on conn until the parent closes it.  Reports the
    thread count of every OpenBLAS, which the parent pinned to one before
    the fork; then answers each (arrays, call, z) message with
    _sample_chunk's rows and weights, or with the exception it raised.
    arrays is (root, V) when the parent's arrays changed since the last
    message, else None."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    conn.send([get_threads() for _, get_threads in _blas_pins()])
    while True:
        try:
            arrays, call, z = conn.recv()
        except EOFError:
            return
        if arrays is not None:
            root, v = arrays
        try:
            reply = ("ok", _sample_chunk(root, v, *call, z))
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except OSError:  # the parent has closed the pipe
            return


class _Pool:
    """size forked workers, one pipe each, with the BLAS thread counts
    each reported and the (root, V) each was last sent.

    Every OpenBLAS of this process is set to one thread for the forks and
    restored after them: a forked OpenBLAS starts its pool at the count it
    had at the fork, so a worker that set its own count after the fork
    would still start the parent's idle threads."""

    def __init__(self, size):
        ctx = multiprocessing.get_context("fork")
        self.owner = os.getpid()
        self.conns, self.procs, self.sent = [], [], [None] * size
        counts = [get_threads() for _, get_threads in _blas_pins()]
        for set_threads, _ in _blas_pins():
            set_threads(1)
        try:
            for _ in range(size):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_worker, name="sigmagap-sampler",
                                   args=(child, self.conns + [conn]),
                                   daemon=True)
                proc.start()
                child.close()
                self.conns.append(conn)
                self.procs.append(proc)
        finally:
            for (set_threads, _), count in zip(_blas_pins(), counts):
                set_threads(count)
        if not all(conn.poll(60.0) for conn in self.conns):
            self.close()
            raise RuntimeError("a sampling worker did not start in 60 s")
        self.threads = [conn.recv() for conn in self.conns]
        self.pinned = all(n == 1 for counts in self.threads for n in counts)

    def alive(self):
        return (self.owner == os.getpid()
                and all(proc.is_alive() for proc in self.procs))

    def close(self):
        """Close the pipes, so the workers exit, and reap them (killing
        any that has not exited within 5 s); in a forked copy of the
        owner only this copy's pipe ends are closed."""
        for conn in self.conns:
            conn.close()
        if self.owner != os.getpid():
            return
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()


def _close_pool():
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(_close_pool)


def _live_pool():
    """The pool of pinned workers, forked on first use and again after a
    worker died or the count changed; None where the workers cannot be
    pinned, so the samples run in this process."""
    global _POOL, _PIN_FAILED
    if (_PIN_FAILED or _blas_pins() is None
            or multiprocessing.current_process().daemon):
        return None
    size = _WORKERS or len(os.sched_getaffinity(0))
    if _POOL is not None and (len(_POOL.procs) != size
                              or not _POOL.alive()):
        _close_pool()
    if _POOL is None:
        _POOL = _Pool(size)
        if not _POOL.pinned:
            _close_pool()
            _PIN_FAILED = True
    return _POOL


def _sample_draws(rng, n_samples, root, v, call):
    """(num, den) of n_samples draws z ~ rng in sample order, each row
    from _sample_chunk(root, v, *call, z) on the pool or in process."""
    with _POOL_LOCK:
        pool = _live_pool()
        workers = len(pool.procs) if pool else 1
        size = min(_CHUNK, -(-n_samples // workers))
        num = np.empty((n_samples, len(call[-1])), dtype=complex)
        den = np.empty(n_samples, dtype=complex)
        chunks = ((a, min(a + size, n_samples))
                  for a in range(0, n_samples, size))
        if pool is None:
            for a, b in chunks:
                z = rng.standard_normal((b - a, root.shape[1]))
                num[a:b], den[a:b] = _sample_chunk(root, v, *call, z)
            return num, den
        try:
            error = _run_on_pool(pool, chunks, rng, root, v, call, num, den)
        except (EOFError, OSError) as exc:
            _close_pool()
            raise RuntimeError("a sampling worker exited mid-call") from exc
        except BaseException:
            _close_pool()
            raise
        if error is not None:
            raise error
        return num, den


def _run_on_pool(pool, chunks, rng, root, v, call, num, den):
    """Feed the chunks to idle workers in order, each with its draws, and
    fill num and den from the replies.  Returns, once every worker is idle
    again, the exception of the earliest chunk that raised, or None."""
    busy, errors = {}, []

    def feed(i):
        chunk = next(chunks, None)
        if chunk is None:
            return
        sent = pool.sent[i]
        arrays = None
        if sent is None or sent[0] is not root or sent[1] is not v:
            arrays = pool.sent[i] = (root, v)
        z = rng.standard_normal((chunk[1] - chunk[0], root.shape[1]))
        pool.conns[i].send((arrays, call, z))
        busy[pool.conns[i]] = (i, chunk)

    for i in range(len(pool.conns)):
        feed(i)
    while busy:
        for conn in multiprocessing.connection.wait(list(busy)):
            i, (a, b) = busy.pop(conn)
            status, out = conn.recv()
            if status == "error":
                errors.append((a, out))
            else:
                num[a:b], den[a:b] = out
            if not errors:
                feed(i)
    return min(errors, key=lambda e: e[0])[1] if errors else None


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


def _weighted_line_fit(x, y, wts):
    """Weighted least-squares line with slope variance and R^2."""
    wts = np.asarray(wts, dtype=float)
    wts = wts / wts.sum()
    xm = np.sum(wts * x)
    ym = np.sum(wts * y)
    sxx = np.sum(wts * (x - xm) ** 2)
    slope = np.sum(wts * (x - xm) * (y - ym)) / sxx
    icpt = ym - slope * xm
    resid = y - (icpt + slope * x)
    ss_res = np.sum(wts * resid ** 2)
    ss_tot = np.sum(wts * (y - ym) ** 2)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, icpt, r2, sxx


def reference_slope(m_trial, separations, wts):
    """Weighted log-slope of the exact free kernel at a trial mass."""
    vals = propagator_values(m_trial ** 2, np.asarray(separations,
                                                     dtype=float))
    slope, _, _, _ = _weighted_line_fit(np.asarray(separations, float),
                                        np.log(vals), wts)
    return slope


def match_decay_mass(separations, values, errors):
    """Convert measured decay values to a mass by slope matching.

    Fits log(Re S2) over the separations with inverse-variance weights
    (unit weights when errors is None or all zero, as in the free case)
    and solves reference_slope(m) = measured slope for m.  Returns
    (mass, mass_stderr, r_squared, measured_slope)."""
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

    lo, hi = 1e-9, 2.5
    f_lo = reference_slope(lo, r, wts) - slope
    f_hi = reference_slope(hi, r, wts) - slope
    if f_lo * f_hi > 0:
        raise ArithmeticError("measured slope outside the free-kernel "
                              "slope range; no decay mass matches")
    mass = brentq(lambda m: reference_slope(m, r, wts) - slope, lo, hi,
                  xtol=1e-14, rtol=1e-13)
    if slope_se > 0.0:
        dm = max(1e-6, 0.01 * mass)
        deriv = (reference_slope(mass + dm, r, wts)
                 - reference_slope(max(mass - dm, lo / 2), r, wts)) \
            / (dm + min(dm, mass - lo / 2))
        mass_se = slope_se / abs(deriv)
    else:
        mass_se = 0.0
    return mass, mass_se, r2, slope


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
