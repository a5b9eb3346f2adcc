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

Mass extraction: at desk couplings the box sits deep in the m*r << 1
regime where the raw log-slope of the free kernel is dominated by its
Bessel-type prefactor, not by the mass.  The fitted decay slope is
therefore converted to a mass by matching it against the slope of the
exact free kernel at trial mass over the same separations and weights;
in the free case this returns the input mass to solver precision.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
from scipy.linalg import blas, lapack
from scipy.optimize import brentq

from .covariance import c0_root
from .kernels import CutoffSpec, propagator_values
from .operators import build_A, log_det_n, propagator_factor, propagator_matrix
from .regions import LatticeGeometry


# slack, in combined standard errors, of the N-scan's monotonicity check
SCAN_SIGMA_SLACK = 2.0


class SignProblemError(ArithmeticError):
    """The phase average is too small for the ratio estimator."""


def default_geometry():
    """8x8 unit squares at 4x4 sites per square (1024 sites)."""
    return LatticeGeometry(n=4, sites_per_square=4)


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
    S real symmetric gives log det3 M = log det M - ig tr S
    - (g^2/2)|S|_F^2.  The cancellation costs 2e-15 of log det3 (3e-7 at
    576 sites; 7e-18 by eigvalsh), 1e-11 of log weight at N = 1e4.

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


def match_decay_mass(separations, values, errors=None):
    """Convert measured decay values to a mass by slope matching.

    Fits log(Re S2) over the separations with inverse-variance weights
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


def estimate_S2(params, geometry=None, cutoff=None, seed=0,
                n_samples=1000, separations=None,
                n_batches=20, phase_floor=0.05):
    """Reweighted ratio estimator of S2 along a lattice axis.

    Draws are independent Gaussians with the free covariance; each costs
    one r x r LU and one solve against it on the range of F (see the
    module docstring).  Standard errors come from >= 20 batch means of
    the ratio.  Raises SignProblemError when the phase average drops
    below phase_floor."""
    geometry = geometry or default_geometry()
    cutoff = cutoff or CutoffSpec(c=1.0)
    if separations is None:
        separations = default_separations(geometry)
    separations = np.asarray(separations, dtype=float)
    if n_samples < n_batches:
        raise ValueError("need at least one sample per batch")
    lo, hi = fit_window(geometry)
    sel = (separations >= lo - 1e-12) & (separations <= hi + 1e-12)
    if sel.sum() < 2:
        raise ValueError(f"the fit window [{lo:g}, {hi:g}] holds "
                         f"{sel.sum()} separation(s); the fit needs two")

    side = geometry.sites_per_side
    s = geometry.sites_per_square
    w = geometry.site_weight
    f = propagator_matrix(geometry, params.m)
    v = np.asfortranarray(propagator_factor(geometry, params.m))

    # source two units in from the left edge, on the middle row
    row0, col0 = side // 2, 2 * s
    x_idx = row0 * side + col0
    y_idx = np.array([row0 * side + col0 + int(round(r * s))
                      for r in separations])
    if y_idx.max() >= (row0 + 1) * side:
        raise ValueError("separations leave the grid")
    v_x, v_y = v[x_idx], v[y_idx].T

    root = c0_root(params, geometry, cutoff)
    rng = np.random.default_rng(seed)

    num = np.zeros((n_samples, len(separations)), dtype=complex)
    den = np.zeros(n_samples, dtype=complex)
    free = params.g == 0.0
    for k in range(n_samples):
        tau = blas.dgemv(1.0, root.T, rng.standard_normal(side * side),
                         trans=1)
        if free:
            num[k] = f[x_idx, y_idx]
            den[k] = 1.0
            continue
        rrow, logdet3 = _sample_on_range(v, params.g, w * tau, v_x, v_y)
        wt = np.exp(-0.5 * params.bigN * logdet3)
        num[k] = rrow * wt
        den[k] = wt

    mean_w = den.mean()
    diag = abs(mean_w) / np.mean(np.abs(den))
    if diag < phase_floor:
        raise SignProblemError(
            f"phase average {diag:.3g} below {phase_floor}: estimator "
            "variance unusable at these parameters")

    estimates = num.mean(axis=0) / mean_w
    batches = np.array_split(np.arange(n_samples), n_batches)
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
            separations=separations.tolist(), n_batches=n_batches,
            phase_floor=phase_floor),
        phase_diagnostic=diag, mean_weight=complex(mean_w),
        gap_mass=params.m, fit_window=(lo, hi))


def mass_vs_N_scan(params_list, cutoff, geometry=None, seed=0,
                   n_samples=1000):
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
