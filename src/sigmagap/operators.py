"""Discretized operator layer: the field-coupling operator A and its blocks.

The central object is A = P_Lambda F g tau P_Lambda with F the regulated
propagator: kernel A(x,y) = F(x-y) g tau(y) on the midpoint discretization
sites of the volume.  Operators are stored as the weighted matrix
W^{1/2} K W^{1/2} of their kernel K and the site quadrature weight; all
algebra (composition, traces, determinants, norms) is carried out on that
matrix, which has the same spectrum as the operator acting on L^2 of the
site measure.

log det_n(1+K) = log det(1+K) + sum_{j<n} (-1)^j tr K^j / j has two
routes: log_det_n from the eigenvalues of K (branch kept), and
log_det_n_matrix from K itself (one LU plus trace terms, mod 2 pi i),
which every matrix-side det_n outside the two-point sampler calls.

The determinant identities tested here (factorization across the s/l block
split, the single-determinant rewriting, and |det^{-1}(1+B)| =
det^{-1/2}(1+B+B*+B*B)) are exact matrix algebra, so their residuals probe
only floating-point conditioning, not discretization error.
"""

import dataclasses
import functools
import math

import numpy as np

from .kernels import propagator_values, radial_grid
from .regions import LatticeGeometry, classify_squares

# smallest scale of det_split_identity's relative residuals: an LU's
# rounding of log det, 1e-14 at most at 256 sites, stays below 1e-8 of it
SPLIT_LOG_FLOOR = 1e-6

__all__ = [
    "DiscretizedOperator", "AOperator", "gaussian_root",
    "radial_site_matrix", "propagator_matrix", "propagator_factor",
    "build_A", "operator_norm", "log_det_n", "log_det_n_matrix",
    "det_split_identity", "D_decomposition", "link_block",
]


@dataclasses.dataclass
class DiscretizedOperator:
    """An integral kernel K on discretization sites of quadrature weight w,
    held as its weighted matrix W^{1/2} K W^{1/2} = w K, which carries the
    operator's spectrum and algebra: composition is the matrix product and
    the trace the matrix trace; the kernel values are weighted / w."""

    weighted: np.ndarray
    site_weight: float

    def __post_init__(self):
        nsite = self.weighted.shape[0]
        if self.weighted.shape != (nsite, nsite):
            raise ValueError("weighted matrix must be square")
        if not self.site_weight > 0:
            raise ValueError("site_weight must be positive")

    def masked(self, left_mask, right_mask):
        """P_left K P_right with diagonal projector masks (bool per site)."""
        return DiscretizedOperator(
            self.weighted * left_mask[:, None] * right_mask[None, :],
            self.site_weight)


def radial_site_matrix(geometry, radial):
    """Matrix radial(|x_i - x_j|) over the discretization sites.

    Site-pair offsets are integer multiples of the subgrid spacing 1/s, so
    the values come from kernels.radial_grid (radial called once per
    distinct distance), read at the offset of each pair through the
    block-Toeplitz structure full[ix, iy, jx, jy] = grid[ix-jx, iy-jy].
    """
    side = geometry.sites_per_side
    grid = radial_grid(radial, side - 1, geometry.sites_per_square)
    d = np.arange(side)
    off = d[:, None] - d[None, :] + side - 1
    full = grid[off[:, None, :, None], off[None, :, None, :]]
    return full.reshape(side * side, side * side)


@functools.lru_cache(maxsize=8)
def _propagator_matrix_cached(n, sites_per_square, m):
    geo = LatticeGeometry(n=n, sites_per_square=sites_per_square)
    return radial_site_matrix(geo, lambda r: propagator_values(m * m, r))


def propagator_matrix(geometry, m):
    """Symmetric matrix of exact propagator values F(|x_i - x_j|) over the
    discretization sites (positive definite: samples of a PD function)."""
    return _propagator_matrix_cached(geometry.n, geometry.sites_per_square,
                                     float(m))


@functools.lru_cache(maxsize=8)
def propagator_factor(geometry, m):
    """Read-only V with propagator_matrix = V V^T on its numerical range:
    the eigenvectors of the eigenvalues above numpy matrix_rank's
    tolerance n * eps * max eigenvalue, scaled by their square roots."""
    ev, vec = np.linalg.eigh(propagator_matrix(geometry, m))
    keep = ev > ev.max() * len(ev) * np.finfo(float).eps
    factor = vec[:, keep] * np.sqrt(ev[keep])
    factor.flags.writeable = False
    return factor


def gaussian_root(mat):
    """R = vec sqrt(ev) vec^T with R R^T = mat from one eigh of the
    symmetrized matrix, rounding-level negative eigenvalues clipped to 0.
    This PSD root is unique: unlike vec sqrt(ev) it cannot turn inside a
    degenerate eigenspace when mat moves at rounding level."""
    ev, vec = np.linalg.eigh(0.5 * (mat + mat.T))
    if ev.min() < -1e-10 * max(float(ev.max()), 1.0):
        raise ArithmeticError("covariance is not positive semidefinite")
    return (vec * np.sqrt(np.clip(ev, 0.0, None))) @ vec.T


@functools.lru_cache(maxsize=8)
def propagator_sqrt(geometry, m):
    """F^{1/2} in the weighted representation (W^{1/2} F W^{1/2})^{1/2}."""
    return gaussian_root(propagator_matrix(geometry, m) * geometry.site_weight)


@dataclasses.dataclass
class AOperator:
    """A = F g tau with its small/large-field block structure."""

    op: DiscretizedOperator
    small_sites: np.ndarray
    geometry: object

    @property
    def a_s(self):
        return self.op.masked(self.small_sites, self.small_sites)

    @property
    def b(self):
        """B = (1 + iA_s)^{-1} iA'', A'' = A - A_s, as a weighted matrix."""
        a_s = self.a_s.weighted
        return np.linalg.solve(np.eye(len(a_s)) + 1j * a_s,
                               1j * (self.op.weighted - a_s))


def build_A(field, params, assignment=None, symmetrize=False):
    """Assemble A(x,y) = F(x-y) g tau(y) on the field's site grid.

    The propagator is evaluated exactly at every site separation (cached
    per geometry and mass).  With symmetrize=True the self-adjoint form
    F^{1/2} g tau F^{1/2} is built instead: it has the same spectrum and
    determinants, and is the representation in which the quadratic-form
    bounds on D = B + B* + B*B hold (they need A'' = A''*).
    """
    geometry = field.geometry
    tau = field.tau.reshape(-1)
    w = geometry.site_weight
    if symmetrize:
        sq = propagator_sqrt(geometry, params.m)
        weighted = sq @ ((params.g * tau)[:, None] * sq)
    else:
        sw = math.sqrt(w)
        weighted = sw * (propagator_matrix(geometry, params.m)
                         * (params.g * tau)[None, :]) * sw
    if assignment is None:
        assignment = classify_squares(field, params, geometry)
    small = geometry.widen(assignment.labels == 0)
    return AOperator(DiscretizedOperator(weighted, w), small, geometry)


def operator_norm(op):
    """Largest singular value of the weighted matrix: LAPACK's SVD of its
    nonzero rows and columns, which is exact, as zero rows and columns
    carry no singular value."""
    s = op.weighted if isinstance(op, DiscretizedOperator) else np.asarray(op)
    rows, cols = np.any(s, axis=1), np.any(s, axis=0)
    if not rows.any():
        return 0.0
    return float(np.linalg.norm(s[np.ix_(rows, cols)], 2))


def log_det_n(lam, order):
    """log det_n(1 + K) from the eigenvalues lam of K:
    sum log(1+lam) + sum_{j<n} (-1)^j sum lam^j / j.

    Summing the principal logarithms eigenvalue by eigenvalue keeps the
    branch that exp would lose and never overflows."""
    if order < 1:
        raise ValueError("order must be >= 1")
    lam = np.asarray(lam).astype(complex)
    if np.min(np.abs(1.0 + lam)) < 1e-12:
        raise ArithmeticError("1 + K has an eigenvalue at 0")
    terms = np.log(1.0 + lam)
    for j in range(1, order):
        terms += (-1.0) ** j * lam ** j / j
    return complex(np.sum(terms))


def log_det_n_matrix(k, order):
    """log det_n(1 + K) from the matrix K, n = 1, 2 or 3: one LU (numpy's
    slogdet) gives log|det(1 + K)| + i arg det(1 + K), then -tr K (n >= 2)
    and +(1/2) sum K o K^T = (1/2) tr K^2 (n = 3).  The imaginary part is
    a principal argument: it agrees with log_det_n mod 2 pi i.  For a
    tuple of orders it returns the tuple of their values, from the same
    LU."""
    orders = order if isinstance(order, tuple) else (order,)
    if not orders or not set(orders) <= {1, 2, 3}:
        raise ValueError("order must be 1, 2 or 3")
    sign, logabs = np.linalg.slogdet(np.eye(len(k)) + k)
    if sign == 0:
        raise ArithmeticError("1 + K is singular")
    out = [complex(logabs, np.angle(sign))]
    if max(orders) >= 2:
        out.append(out[0] - np.trace(k))
    if max(orders) == 3:
        out.append(out[1] + 0.5 * np.sum(k * k.T))
    values = tuple(out[n - 1] for n in orders)
    return values if isinstance(order, tuple) else values[0]


def det_split_identity(field, params):
    """Residuals of the determinant factorization and its single-determinant
    rewriting, evaluated on log scale.

    identity 1:  det^{-1}(1+iA) = det^{-1}(1+iA_s) det^{-1}(1+B),
                 B = (1+iA_s)^{-1} iA''
    identity 2:  det_3^{-1}(1+iA_s) det_2^{-1}(1+B)
                 = det_2^{-1}(1+iA) exp Tr{-(1/2)(iA_s)^2}
    Returns the larger residual of the two mod 2 pi i (both exact matrix
    algebra: it probes conditioning only) over the largest |log det(1+K)|
    of the three matrices, at least SPLIT_LOG_FLOOR.  Identity 2's det_n
    logs are those logs minus traces, so they carry the same rounding and
    take the same scale (on criterion 05's fields they are 1e-7 and below).
    Every log is log_det_n_matrix's, both orders of a matrix from its one
    LU; as identity 2 minus identity 1 is then tr B = tr iA'', criterion
    05 checks that route against the eigenvalues.
    """
    aop = build_A(field, params)
    ia = 1j * aop.op.weighted
    ias = 1j * aop.a_s.weighted
    b = aop.b
    log_a, log2_a = log_det_n_matrix(ia, (1, 2))
    log_s, log3_s = log_det_n_matrix(ias, (1, 3))
    log_b, log2_b = log_det_n_matrix(b, (1, 2))
    res1 = log_a - log_s - log_b
    # det_3^{-1}(1+iAs) det_2^{-1}(1+B) on log scale, tr K^2 = sum K o K^T
    res2 = log2_a + 0.5 * np.sum(ias * ias.T) - log3_s - log2_b
    res = max(abs(complex(r.real, math.remainder(r.imag, 2 * math.pi)))
              for r in (res1, res2))
    return float(res / max(abs(log_a), abs(log_s), abs(log_b),
                           SPLIT_LOG_FLOOR))


def D_decomposition(field, params):
    """Spectral split of D = B + B* + B*B into D_+ - D_-.

    Returns (||D_+||, ||D_-||, Tr D_-^2).  When the small-field norm bound
    holds, D_- is tiny: (phi, D phi) >= -(4/25) eta^2/(1-eta) with
    eta ~ 2||A_s||.  Uses the self-adjoint representation of A (see
    build_A), which the quadratic-form argument requires.
    """
    B = build_A(field, params, symmetrize=True).b
    D = B + B.conj().T + B.conj().T @ B
    D = 0.5 * (D + D.conj().T)
    ev, _ = np.linalg.eigh(D)
    d_plus = max(float(ev.max()), 0.0)
    d_minus = max(float(-ev.min()), 0.0)
    tr_minus_sq = float(np.sum(ev[ev < 0] ** 2))
    return d_plus, d_minus, tr_minus_sq


def link_block(aop, src_square, dst_square):
    """P_{dst} A P_{src}, the derivative of A with respect to the cluster
    interpolation parameter of the link (src -> dst)."""
    src = aop.geometry.site_mask([src_square])
    dst = aop.geometry.site_mask([dst_square])
    return aop.op.masked(dst, src)

