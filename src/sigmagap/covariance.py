"""Reference and configuration-dependent Gaussian covariances.

The reference covariance is C0 = (1+pi)^{-1/2} (1+f)^{-1} (1+pi)^{-1/2},
built here as a matrix product of the discretized kernels.  Around a
large-field region gamma the quadratic form is opened up,

    C_gamma^{-1} = sqrt(1+pi) (1 - (1-eps) P_gamma + f) sqrt(1+pi),

with a floor eps on the gamma block so the inverse stays bounded.  The
module assembles C_gamma, the normalization Z_gamma with its component
factorization, the four correction terms deltaC_1..deltaC_4 of the
small/large splitting, and the cached root of C0 that Gaussian draws
tau = root z are taken with.

Per configuration, neither C_gamma nor Z_gamma needs an n x n
factorization.  With U the cutoff kernel (1+f)^{-1} and
S^- = (1+pi)^{-1/2}, Woodbury gives

    C_gamma = C0 + S^- U[:, gamma] ((1-eps)^{-1} - U[gamma, gamma])^{-1}
                   U[gamma, :] S^-,

and Sylvester's identity turns Z_gamma = det^{1/2}(C0^{-1} C_gamma) into
det^{-1/2}(1 - (1-eps) U[gamma, gamma]), one determinant of the gamma
block.  These closed forms are primary.  The dual routes are the n x n
Cholesky inverse of the floored form and the Neumann series in the
gamma-restricted kernel chain (summed by doubling) for C_gamma, and the
generalized eigenvalues of (C_gamma, C0) per component for Z_gamma; all
are computed where build_Cgamma runs with routes="both".

Every factorization here is numpy's (np.linalg), none scipy.linalg's.
numpy and scipy each load their own OpenBLAS, each with its own thread
pool, and a process whose work alternates between the two pools makes
their threads contend for the cores: on 2 cores that took about 40% of
accept-all --profile quick's run after import.  So the parent process's
linear algebra runs on numpy's pool alone; scipy's BLAS and LAPACK are
called only in twopoint's per-sample loop, which calls no numpy BLAS and
runs in one-thread worker processes where it can.

Only that dual-route gate reads C_gamma itself: Z_gamma and the damping
bound need the gamma block alone.  So a CovarianceSet holds C_gamma by
its factors: gamma's site index and the Cholesky factor L of
K = (1-eps)^{-1} - U[gamma, gamma] = L L^T, taken eagerly by build_Cgamma
as the positivity check of the floored form, beside the one cached grid
assembly it reads S^-, U and C0 from.  Since 1 - (1-eps) U[gamma, gamma]
= (1-eps) K, the same L gives log Z_gamma = -|gamma|/2 log(1-eps)
- sum log L_ii (the set's log_z); C_gamma is formed on first read.

The rest of the per-configuration pipeline stays on Lambda x Lambda and
the gamma columns: deltaC reads S P_gamma S only on Lambda x Lambda, as
the product S[Lambda, gamma] S[Lambda, gamma]^T, and a DeltaC holds
deltaC_1, deltaC_2 and deltaC_4 only as their Lambda blocks (deltaC_3
vanishes there, and fields are supported in Lambda).  build_deltaC
checks the splitting identity on Lambda x Lambda alone and forms no
padded-grid array: outside that block its S P_gamma S terms cancel, and
with every s- and l-site in Lambda (an O(n) mask check) the residual
there is a configuration-independent term whose sup is taken once per
(grid, Lambda), beside the residual of U^{-1} U = 1, which the identity
cannot see.  damping_report reads (tau, deltaC tau) on
Lambda alone, log Z_gamma from the set, and the real parts of log det_3
and log det_2 from one real Cholesky of 1 + A_ss^2 on the small sites:
det_3 from its factor, det_2 from one real solve with it and the
|L| x |L| Schur complement on the large sites, instead of an eigensolve
of the padded A_s, a complex LU or the n x n B.

Grids: region bookkeeping lives on the inner lattice covering Lambda; the
covariance kernels are assembled on a padded grid (pad extra unit squares
per side) so that the belt around Lambda is actually represented.  All
operators returned here live on the padded grid (a DeltaC holds Lambda
blocks), whose Lambda sites
(grid.site_mask(geometry.squares), LatticeGeometry's square -> site map)
hold an inner-field configuration in its own row-major order.

A note on the sharp splitting identity: with P_s + P_l = P_Lambda the
difference C_gamma^{-1} - C_ls^{-1} equals
deltaC - P_l - (1 - P_Lambda); the final term is invisible when the
quadratic forms are compared on fields supported in Lambda, but on the
padded grid it must be carried explicitly, and ``build_deltaC`` verifies
the identity in that form to machine precision.
"""

import dataclasses
import functools

import numpy as np

from .kernels import cutoff_enforced_values
from .operators import (DiscretizedOperator, build_A, gaussian_root,
                        log_det_n, log_det_n_matrix, propagator_matrix,
                        radial_site_matrix)
from .regions import LatticeGeometry, smooth_step

# relative Frobenius tail at which the Neumann series of C^{gamma_i}
# stops, and the most terms it may take
NEUMANN_TOL = 1e-12
NEUMANN_MAX_TERMS = 4000
# sup-entry agreement of the direct and series routes to C_gamma
ROUTE_AGREE_TOL = 1e-8
# relative agreement of the Z_gamma routes and of its component product
FACTOR_TOL = 1e-8
# sup residual allowed in the small/large splitting identity
SPLIT_IDENTITY_TOL = 1e-8

_CUTOFF_NOT_PD = "cutoff kernel not positive definite: grid too coarse"


# ---------------------------------------------------------------------------
# grid plumbing

def padded_geometry(geometry, pad):
    if pad < 0:
        raise ValueError("pad must be >= 0")
    return LatticeGeometry(n=geometry.n + pad,
                           sites_per_square=geometry.sites_per_square)


# ---------------------------------------------------------------------------
# cached kernel assembly

def _cholesky(x, message):
    """The lower Cholesky factor of x; ArithmeticError(message) when x is
    not positive definite."""
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(message) from exc


def _cholesky_inverse(chol):
    """x^{-1} from x's Cholesky factor L by two solves, L^{-T} (L^{-1} 1),
    as LAPACK's potrs takes them, symmetrized.  Of the numpy routes tried
    this one rounds closest to potrs.  On criterion 06's 576-site grid it
    leaves |U^{-1} U - 1|_max = 1.4e-15 and a C_gamma route gap of
    1.7e-13 (potrs: 1.3e-15 and 1.6e-13); L^{-T} L^{-1} formed from
    inv(L) leaves 6.7e-15 and 7.8e-13."""
    xinv = np.linalg.solve(chol.T, np.linalg.inv(chol))
    return 0.5 * (xinv + xinv.T)


@dataclasses.dataclass(frozen=True)
class _LambdaTerms:
    """What build_deltaC reads of one Lambda on a grid, formed once: its
    site index and mask, S[Lambda, :], pi and F - pi on Lambda x Lambda,
    and the sup of |F - pi| over the entries outside Lambda x Lambda (0
    when Lambda is the whole grid)."""

    index: np.ndarray
    mask: np.ndarray
    s_rows: np.ndarray
    pi: np.ndarray
    fixed: np.ndarray
    outside_sup: float


@dataclasses.dataclass
class _Assembly:
    """One grid's weighted kernels: pi, S = sqrt(1+pi), S^-, the cutoff
    kernel U and C0.  U^{-1}, the splitting identity's fixed term, its
    terms on each Lambda and the C0 root are formed on first read, so
    callers of C0 alone never pay them; U^{-1} factors U again rather than
    keep a factor in the cache."""

    geo: LatticeGeometry
    nsite: int
    w: float
    pi_w: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    u_w: np.ndarray
    c0_w: np.ndarray
    _lambdas: dict = dataclasses.field(default_factory=dict, init=False,
                                       repr=False)

    def lambda_terms(self, geometry):
        """The _LambdaTerms of geometry's Lambda (its squares on this
        padded grid), formed on first read from split_fixed."""
        terms = self._lambdas.get(geometry.n)
        if terms is None:
            mask = self.geo.site_mask(geometry.squares)
            lam = np.flatnonzero(mask)
            block = np.ix_(lam, lam)
            fixed = self.split_fixed[0]
            outside = np.abs(fixed)
            outside[block] = 0.0
            arrays = (self.s_plus[lam], self.pi_w[block], fixed[block])
            for arr in arrays:
                arr.flags.writeable = False
            terms = _LambdaTerms(lam, mask, *arrays, float(outside.max()))
            self._lambdas[geometry.n] = terms
        return terms

    @functools.cached_property
    def uinv_w(self):
        return _cholesky_inverse(_cholesky(self.u_w, _CUTOFF_NOT_PD))

    @functools.cached_property
    def split_fixed(self):
        """(F - pi, |U^{-1} U - 1|_max).  F = S U^{-1} S - 1
        - S (U^{-1} - 1) S is the configuration-independent part of the
        splitting identity's left side, from the U^{-1} products (pi in
        exact arithmetic, so F - pi is rounding), read-only; its U^{-1}
        terms cancel, so U^{-1} gets its own sup residual."""
        sp, uinv_w = self.s_plus, self.uinv_w
        eye = np.eye(self.nsite)
        out = sp @ (uinv_w @ sp) - eye - sp @ ((uinv_w - eye) @ sp)
        out -= self.pi_w
        out.flags.writeable = False
        return out, float(np.abs(uinv_w @ self.u_w - eye).max())

    @functools.cached_property
    def c0_root(self):
        root = gaussian_root(self.c0_w / self.w)
        root.flags.writeable = False
        return root


@functools.lru_cache(maxsize=4)
def _assembly_cached(n, sites_per_square, m, lamK, c):
    geo = LatticeGeometry(n=n, sites_per_square=sites_per_square)
    nsite = geo.sites_per_side ** 2
    w = geo.site_weight
    fmat = propagator_matrix(geo, m)
    # entrywise square of a pd function is pd, so pi_w is exactly PSD
    pi_w = 0.5 * lamK * fmat * fmat * w
    ev, vec = np.linalg.eigh(np.eye(nsite) + pi_w)
    if ev.min() <= 0.0:
        raise ArithmeticError("1 + pi lost positivity on the grid")
    s_plus = (vec * np.sqrt(ev)) @ vec.T
    s_minus = (vec / np.sqrt(ev)) @ vec.T
    # the compact-support kernel of 1/(1+f)
    u_w = radial_site_matrix(geo, lambda r: cutoff_enforced_values(c, r)) * w
    _cholesky(u_w, _CUTOFF_NOT_PD)  # the positivity check, taken eagerly
    c0_w = s_minus @ u_w @ s_minus
    c0_w.flags.writeable = False  # build_C0 hands it out uncopied
    return _Assembly(geo, nsite, w, pi_w, s_plus, s_minus, u_w, c0_w)


def _assembly(params, geometry, cutoff, pad):
    """The cached assembly of the padded grid, keyed by (grid n, sites per
    square, m, lambda K, c) at the exact values it is computed at."""
    if not cutoff.c > 0:
        raise ValueError("the covariance needs a cutoff with c > 0")
    grid = padded_geometry(geometry, pad)
    return _assembly_cached(grid.n, grid.sites_per_square, float(params.m),
                            float(params.lam * params.bigK), float(cutoff.c))


# ---------------------------------------------------------------------------
# C0 and C_gamma

def build_C0(params, geometry, cutoff):
    """C0 = (1+pi)^{-1/2} (1+f)^{-1} (1+pi)^{-1/2} on the grid.

    (1+f)^{-1} is the compact-support cutoff kernel.  Symmetric positive
    definite by construction; raises ArithmeticError when either kernel
    loses positivity under discretization and ValueError when the cutoff
    has c <= 0."""
    asm = _assembly(params, geometry, cutoff, pad=0)
    return DiscretizedOperator(asm.c0_w, asm.w)


@dataclasses.dataclass
class CovarianceSet:
    """C_gamma on the padded grid of one cached assembly, held by its
    factors: gamma, the index of gamma's sites on the grid, and chol, the
    Cholesky factor L of K = (1-eps)^{-1} - U[gamma, gamma].  S^-, U, C0
    and the grid are the assembly's.

    log_z = log Z_gamma, Cgamma_correction = C_gamma - C0 (the Woodbury
    product) and Cgamma are formed on first read; the normalization and
    the damping bound never read the two n x n ones.  component_masks are
    gamma's components as site masks; component_corrections, route_residual
    and neumann_terms hold the dual routes of routes="both"."""

    assembly: _Assembly = dataclasses.field(repr=False)
    gamma: np.ndarray
    chol: np.ndarray
    epsilon: float
    component_masks: list
    component_corrections: list
    route_residual: float
    neumann_terms: int

    @property
    def grid(self):
        return self.assembly.geo

    @functools.cached_property
    def C0(self):
        return DiscretizedOperator(self.assembly.c0_w, self.assembly.w)

    @functools.cached_property
    def log_z(self):
        """log Z_gamma = -|gamma|/2 log(1-eps) - sum log L_ii, since
        1 - (1-eps) U[gamma, gamma] = (1-eps) K (compute_Zgamma)."""
        return (-0.5 * len(self.gamma) * np.log1p(-self.epsilon)
                - float(np.sum(np.log(np.diag(self.chol)))))

    @functools.cached_property
    def Cgamma_correction(self):
        return DiscretizedOperator(
            _woodbury_product(self.assembly, self.gamma, self.chol),
            self.assembly.w)

    @functools.cached_property
    def Cgamma(self):
        cg_w = self.C0.weighted + self.Cgamma_correction.weighted
        return DiscretizedOperator(0.5 * (cg_w + cg_w.T), self.C0.site_weight)


def _neumann_correction(asm, mask, eps):
    """C^{gamma_i} by the truncated series in the gamma-restricted chain.

    Every term of sum_r [U P (1-eps)]^r with r >= 1 enters and leaves
    through the columns of gamma_i, so the series is summed as a power
    series of the block Y = (1-eps) U[gamma,gamma] and widened back
    afterwards.  It is summed by doubling,

        sum_{j<2k} Y^j = sum_{j<k} Y^j + Y^k sum_{j<k} Y^j,  Y^{2k} = (Y^k)^2,

    and stops before adding an increment whose Frobenius norm is at most
    NEUMANN_TOL times the sum's, so NEUMANN_TOL bounds the relative tail
    left out.  The number of terms summed is a power of two and at most
    NEUMANN_MAX_TERMS (2048 for the cap of 4000)."""
    idx = np.flatnonzero(mask)
    y = (1.0 - eps) * asm.u_w[np.ix_(idx, idx)]
    acc = np.eye(len(idx))
    terms = 1
    while True:
        inc = y @ acc
        if np.linalg.norm(inc) <= NEUMANN_TOL * np.linalg.norm(acc):
            break
        if 2 * terms > NEUMANN_MAX_TERMS:
            raise ArithmeticError(
                "Neumann series did not reach the tail target")
        acc += inc
        terms *= 2
        y = y @ y
    # C^{gamma_i} = S^- U[:,g] (1-eps) (sum_j Y^j) U[g,:] S^-
    corr = (asm.s_minus @ asm.u_w[:, idx]) @ ((1.0 - eps) * acc) \
        @ (asm.u_w[idx, :] @ asm.s_minus)
    return corr, terms


def _woodbury_factor(asm, gmask, eps):
    """(gamma, L): gamma's site index and the Cholesky factor of
    K = (1-eps)^{-1} - U[gamma, gamma], the factors of the closed form
    C_gamma - C0 = B K^{-1} B^T with B = S^- U[:, gamma] (Woodbury on the
    gamma block).

    The factorization is also the positivity check: the floored form
    U^{-1} - (1-eps) P_gamma is positive definite exactly when K is."""
    idx = np.flatnonzero(gmask)
    k = np.take(np.take(asm.u_w, idx, axis=0), idx, axis=1)
    np.subtract(0.0, k, out=k)  # -U[gamma, gamma], +0.0 where U vanishes
    k.flat[::len(idx) + 1] += 1.0 / (1.0 - eps)
    return idx, _cholesky(k, "floored quadratic form not PD")


def _woodbury_product(asm, idx, chol):
    """B K^{-1} B^T as H^T H with H = L^{-1} B^T, so exactly symmetric."""
    half = np.linalg.solve(chol, (asm.s_minus @ asm.u_w[:, idx]).T)
    return half.T @ half


def build_Cgamma(params, geometry, cutoff, regions, pad=2, routes="both"):
    """The covariance set of C_gamma = C0 + B K^{-1} B^T on the padded grid.

    The closed form (Woodbury on the gamma block, _woodbury_factor) needs
    one |gamma| x |gamma| Cholesky and n x |gamma| products.  The
    Cholesky is taken here and raises when the floored form is not
    positive definite; C_gamma itself is formed on first read of
    Cgamma or Cgamma_correction, so routes="direct" runs no n x n product.
    routes="both" reads both at once and computes their two dual routes:
    the n x n Cholesky inverse of the (1-eps)-floored quadratic form, and
    C0 plus the per-component corrections C^{gamma_i} summed as truncated
    Neumann chains.  The larger sup-entry gap of either to the closed form
    is recorded and must stay below ROUTE_AGREE_TOL = 1e-8."""
    if routes not in ("both", "direct"):
        raise ValueError("routes must be 'both' or 'direct'")
    asm = _assembly(params, geometry, cutoff, pad)
    eps = params.epsilon
    gmask = asm.geo.site_mask(regions.gamma)
    gamma, chol = _woodbury_factor(asm, gmask, eps)
    covset = CovarianceSet(
        assembly=asm,
        gamma=gamma,
        chol=chol,
        epsilon=eps,
        component_masks=[asm.geo.site_mask(comp.gamma)
                         for comp in regions.components],
        component_corrections=[],
        route_residual=float("nan"),
        neumann_terms=0,
    )
    if routes == "both":
        cg_w = covset.Cgamma.weighted
        corr = covset.Cgamma_correction.weighted
        minv = _cholesky_inverse(_cholesky(
            asm.uinv_w - np.diag((1.0 - eps) * gmask),
            "floored quadratic form not PD"))
        inv_w = asm.s_minus @ minv @ asm.s_minus
        corr_sum = np.zeros_like(cg_w)
        for cmask in covset.component_masks:
            series, terms = _neumann_correction(asm, cmask, eps)
            series = 0.5 * (series + series.T)
            covset.neumann_terms = max(covset.neumann_terms, terms)
            corr_sum += series
            covset.component_corrections.append(
                DiscretizedOperator(series, asm.w))
        covset.route_residual = float(max(np.abs(inv_w - cg_w).max(),
                                          np.abs(corr_sum - corr).max())
                                      / asm.w)
        if not covset.route_residual <= ROUTE_AGREE_TOL:
            raise ArithmeticError("covariance routes disagree: sup residual "
                                  f"{covset.route_residual:.3e}")
    return covset


# ---------------------------------------------------------------------------
# normalization

def compute_Zgamma(covset, regions):
    """Z_gamma = det^{1/2}(C0^{-1} C_gamma) from the gamma-block Cholesky.

    C_gamma^{-1} = C0^{-1} - S (1-eps) P_gamma S with S = sqrt(1+pi), so
    det(C0^{-1} C_gamma) = det^{-1}(1 - (1-eps) U P_gamma), and Sylvester's
    identity det(1 - A B) = det(1 - B A) with P_gamma = E E^T reduces it
    to the gamma block 1 - (1-eps) U[gamma, gamma] = (1-eps) K.  The set
    holds K = L L^T from build_Cgamma's positivity check, so
    log Z_gamma = -|gamma|/2 log(1-eps) - sum log L_ii, with no second
    factorization (the set's log_z).  regions.gamma must be the set's gamma
    (else ArithmeticError); this route is primary and Z_gamma >= 1 is
    checked.

    When the set carries the per-component corrections (routes="both"),
    the generalized eigenvalues of (C0 + C^{gamma_i}, C0) give each
    log Z_{gamma_i} by the independent route.  They are reduced as LAPACK's
    sygv does, by one Cholesky factor C0 = L L^T per call: mu_i are the
    eigenvalues of L^{-1} (C0 + C^{gamma_i}) L^{-T} = 1 + L^{-1} C^{gamma_i}
    L^{-T}, taken in the second form so that log mu_i = log1p(mu_i - 1)
    keeps the small ones' digits.  Each must match its
    component's determinant (component_log_z), and exp of their sum must
    match Z_gamma (the product factorization, exact for the
    compact-support cutoff kernel since distinct components lie further
    apart than its range), both at FACTOR_TOL."""
    gamma = np.flatnonzero(covset.grid.site_mask(regions.gamma))
    if not np.array_equal(gamma, covset.gamma):
        raise ArithmeticError(
            "regions.gamma and the covariance set's gamma disagree")
    z = float(np.exp(covset.log_z))
    if z < 1.0 - 1e-9:
        raise ArithmeticError(f"Z_gamma = {z} below 1")

    if covset.component_corrections:
        linv = np.linalg.inv(_cholesky(covset.C0.weighted,
                                       "C0 lost positivity"))
        log_parts = []
        for corr, cmask in zip(covset.component_corrections,
                               covset.component_masks):
            # mu_i - 1, the eigenvalues of L^{-1} C^{gamma_i} L^{-T}
            nu_i = np.linalg.eigvalsh(linv @ corr.weighted @ linv.T)
            if nu_i.min() <= -1.0:
                raise ArithmeticError("C_gamma/C0 lost positivity")
            log_i = 0.5 * float(np.sum(np.log1p(nu_i)))
            log_det = component_log_z(covset, cmask)
            if abs(log_i - log_det) > FACTOR_TOL * max(1.0, abs(log_i)):
                raise ArithmeticError(
                    "generalized-eigenvalue and determinant routes disagree "
                    f"on a component: {log_i} vs {log_det}")
            log_parts.append(log_i)
        rel = abs(z - np.exp(sum(log_parts))) / z
        if rel > FACTOR_TOL:
            raise ArithmeticError(
                "determinant route and generalized-eigenvalue product "
                f"disagree: rel {rel:.3e}")
    return z


def component_log_z(covset, cmask):
    """log Z = -1/2 logdet(1 - (1-eps) U[mask, mask]) for a site mask.

    By Sylvester's identity this equals -1/2 logdet(1 - (1-eps) U P) over
    the whole grid, so it is the determinant route for one component's
    normalization and, on the gamma mask, the LU route to Z_gamma."""
    idx = np.flatnonzero(cmask)
    block = (1.0 - covset.epsilon) * covset.assembly.u_w[np.ix_(idx, idx)]
    sign, logdet = np.linalg.slogdet(np.eye(len(idx)) - block)
    if sign <= 0:
        raise ArithmeticError("component determinant changed sign")
    return -0.5 * float(logdet)


# ---------------------------------------------------------------------------
# the small/large splitting corrections

@dataclasses.dataclass
class DeltaC:
    """The correction operators of the sharp splitting on Lambda x Lambda,
    with the sup residual of the defining identity over the padded grid
    (including the (1 - P_Lambda) term that the restriction to fields in
    Lambda would hide) or of U^{-1} U = 1, whichever is larger.

    Fields are supported in Lambda and deltaC_3 vanishes on Lambda x
    Lambda, so the set holds deltaC_1, deltaC_2 and deltaC_4 as their
    Lambda blocks d1_lambda, d2_lambda and d4_lambda (weighted, in the order
    of the padded grid's Lambda sites, grid.site_mask(geometry.squares));
    deltaC_1 and deltaC_2 vanish outside that block too."""

    d1_lambda: np.ndarray
    d2_lambda: np.ndarray
    d4_lambda: np.ndarray
    identity_residual: float

    def lambda_form(self, v):
        """(v, deltaC v) for a weighted field supported in Lambda, given by
        its values on Lambda's sites."""
        return sum(float(v @ blk @ v)
                   for blk in (self.d1_lambda, self.d2_lambda, self.d4_lambda))


def build_deltaC(params, geometry, cutoff, regions, pad=2):
    """deltaC_1, deltaC_2 and deltaC_4 on Lambda x Lambda from the block
    decomposition of S(1-P_gamma)S.

    With S = sqrt(1+pi), T = S(1-P_gamma)S and blocks taken over the
    partition {s-squares, l-squares, outside Lambda}:

        deltaC_1 = - P_s S P_gamma S P_s        (negative semidefinite)
        deltaC_2 = (l,s) + (s,l) + (l,l) blocks of T
        deltaC_3 = all blocks of T touching the outside of Lambda
        deltaC_4 = eps S P_gamma S

    deltaC_3 vanishes on Lambda x Lambda, the only block damping_report
    reads, so it is not formed.  The other three are written on that block
    (DeltaC), from G = S P_gamma S there, the product S[Lambda, gamma]
    S[Lambda, gamma]^T, and T = 1 + pi - G; no n x n array is formed per
    configuration.

    The result is verified against the difference C_gamma^{-1} - C_ls^{-1}
    = deltaC - P_l - (1 - P_Lambda) with C_ls^{-1} = P_s pi P_s + 1 + S f S,
    whose U^{-1} route is

        S (U^{-1} - (1-eps) P_gamma) S - P_s pi P_s - 1 - S (U^{-1} - 1) S
            = F - (1-eps) G - P_s pi P_s,

    where F = S U^{-1} S - 1 - S (U^{-1} - 1) S does not depend on the
    configuration.  Outside Lambda x Lambda deltaC = T + eps G, so the G
    terms cancel and the residual there is (F - pi) - P_s pi P_s + P_l; on
    Lambda x Lambda it is the same plus pi - G - deltaC_1 - deltaC_2.  An
    s- or l-site outside Lambda raises at once (it would leave -pi_ii or +1
    on its diagonal entry, far above the tolerance); with s and l inside
    Lambda the residual outside the block is F - pi alone, whose sup the
    cached assembly takes once per (grid, Lambda) beside F - pi, pi and
    S on Lambda (_LambdaTerms).  So each configuration works on the
    Lambda block alone, and identity_residual, the max of that sup, the
    block's and |U^{-1} U - 1|_max, is the sup over the whole padded grid.
    The U^{-1} terms of F cancel in exact arithmetic, F = S^2 - 1 = pi, so
    the identity checks S^2 = 1 + pi on the grid and the block bookkeeping
    (region masks that overlap, miss sites or leave Lambda), not U^{-1}
    itself; hence the |U^{-1} U - 1|_max term, taken once per grid.
    gamma and the eps of deltaC_4 are not checked here: G cancels from the
    identity, so a wrong gamma leaves the residual at rounding level
    (deltac_factored_form sees both)."""
    asm = _assembly(params, geometry, cutoff, pad)
    lt = asm.lambda_terms(geometry)
    k2 = len(lt.index)
    gamma = np.flatnonzero(asm.geo.site_mask(regions.gamma))
    l_mask = asm.geo.site_mask(regions.lambda_l)
    s_mask = asm.geo.site_mask(regions.lambda_s)
    if ((s_mask | l_mask) & ~lt.mask).any():
        raise ArithmeticError("splitting identity violated: an s- or "
                              "l-site outside Lambda")

    s_lg = np.take(lt.s_rows, gamma, axis=1)
    g = s_lg @ s_lg.T  # G on Lambda x Lambda, exactly symmetric
    pi_g = lt.pi - g
    t = pi_g.copy()
    t.flat[::k2 + 1] += 1.0  # T = 1 + pi - G
    # d1 and d2 on Lambda x Lambda, by masks of the s and l sites on it;
    # d2's blocks add up where regions overlap
    s_lam, l_lam = s_mask[lt.index], l_mask[lt.index]
    ss = np.outer(s_lam, s_lam)
    d1_l = np.where(ss, -g, 0.0)
    s_f, l_f = s_lam.astype(float), l_lam.astype(float)
    blocks = np.outer(l_f, s_f + l_f) + np.outer(s_f, l_f)
    d2_l = np.where(blocks > 0.0, blocks * t, 0.0)

    # lhs - rhs of the identity on Lambda x Lambda: (F - pi) - P_s pi P_s
    # + P_l + pi - G - d1 - d2; outside it only F - pi is left
    uinv_residual = asm.split_fixed[1]
    res = lt.fixed - ss * lt.pi
    res.flat[::k2 + 1] += l_lam
    res += pi_g - d1_l - d2_l
    residual = max(lt.outside_sup, float(res.max()), float(-res.min()),
                   uinv_residual)
    if not residual <= SPLIT_IDENTITY_TOL:
        raise ArithmeticError(
            f"splitting identity violated: sup residual {residual:.3e}")
    return DeltaC(d1_l, d2_l, params.epsilon * g, identity_residual=residual)


def deltac_factored_form(params, geometry, cutoff, regions, pad, v):
    """(v, deltaC v) for a weighted field v given by its values on Lambda's
    sites, by the factored form: when the s- and l-squares partition
    Lambda, with u = S[gamma, Lambda] v and v_s, v_l the s- and l-parts of
    v,

        (v, deltaC v) = (eps - 1) |u|^2 + |v_l|^2 + v_l pi v_l + 2 v_s pi v_l.

    Read from S and pi of the padded grid, not from a DeltaC, it is the
    dual route of DeltaC.lambda_form, and sees what the splitting identity
    cannot: gamma and the eps of deltaC_4 (both cancel from the identity's
    residual)."""
    asm = _assembly(params, geometry, cutoff, pad)
    lam = np.flatnonzero(asm.geo.site_mask(geometry.squares))
    gamma = np.flatnonzero(asm.geo.site_mask(regions.gamma))
    v_s = v * asm.geo.site_mask(regions.lambda_s)[lam]
    v_l = v * asm.geo.site_mask(regions.lambda_l)[lam]
    u = asm.s_plus[np.ix_(gamma, lam)] @ v
    pi_l = asm.pi_w[np.ix_(lam, lam)] @ v_l
    return float((params.epsilon - 1.0) * (u @ u) + v_l @ v_l + v_l @ pi_l
                 + 2.0 * (v_s @ pi_l))


# ---------------------------------------------------------------------------
# sampling

def c0_root(params, geometry, cutoff):
    """operators.gaussian_root of C0's kernel values (build_C0's weighted
    matrix over its site weight), computed once per (grid, m, lambda K, c)
    and read-only; the cached assembly forms it on first read, so callers
    that never sample never pay the eigh."""
    return _assembly(params, geometry, cutoff, pad=0).c0_root


# ---------------------------------------------------------------------------
# assembled integrand bound and the single-square normalization

@dataclasses.dataclass
class DampingReport:
    """Log of the normalized large-field integrand and the two field
    masses entering its exponential damping bound, with the terms of the
    log: log Z_gamma, the log of the window weights, Re log det_3(1 + iA_s)
    and Re log det_2(1 + B), both from one real Cholesky of 1 + A_ss^2 on
    the small sites (damping_report), and (tau, deltaC tau), so that

        log_value = log_z + log_window - mass_large / 2
                    - N / 2 (log_det3_real + log_det2_real) + deltac_form / 2.

    log_det3_real is accurate to second order in the Cholesky's rounding
    (no cancellation), log_det2_real to that of one real solve and one
    |L| x |L| slogdet.  When a window weight vanishes, log_window and
    log_value are -inf and the determinant and deltaC terms, not computed,
    are nan."""

    log_value: float
    mass_large: float
    mass_small: float
    required_const: float
    log_z: float
    log_window: float
    log_det3_real: float
    log_det2_real: float
    deltac_form: float


def _log_det_split_real(aop):
    """(Re log det_3(1 + iA_s), Re log det_2(1 + B)), B = (1 + iA_s)^{-1}
    iA'', from one real Cholesky on the small sites s.

    A_s = P_s A P_s, so 1 + iA_s = blockdiag(X, 1) with X = 1 + iA_ss.
    For the real symmetric A_ss, P = X conj(X) = 1 + A_ss^2 is symmetric
    positive definite (P >= 1); write its Cholesky factor R R^T = P and
    c_i = (R_ii - 1)(R_ii + 1) = R_ii^2 - 1.

    det_3: Re log det_3(1 + iA_s) = (1/2)(log det P - tr A_ss^2), and
    tr P = sum R_ii^2 + |tril(R, -1)|_F^2 gives

        Re log det_3 = (1/2) [sum (log1p c_i - c_i) - |tril(R, -1)|_F^2].

    Both sums are <= 0, so nothing cancels.  g(Q) = log det(1 + Q) - tr Q
    has zero first derivative at Q = 0, so the Cholesky's rounding of
    Q = A_ss^2 moves this value only at second order; the naive
    (1/2)(log det P - |A_ss|_F^2) loses about 1e-14 absolute, far above
    values of order 1e-16 at criterion 10's small fields.

    det_2: A'' vanishes on (s, s), so the rows of 1 + B are
    [1, X^{-1} iA_sL] on s and [iA_Ls, 1 + iA_LL] on the large sites L,
    and the block determinant identity gives det(1 + B) = det k with
    k = 1 + iA_LL + A_Ls X^{-1} A_sL.  X^{-1} = P^{-1} (1 - iA_ss), so
    with [H | G] = R^{-1} [A_sL | A_ss A_sL] (one real solve with 2|L|
    columns) k = 1 + iA_LL + H^T H - i H^T G, and Re log det_2(1 + B) =
    log|det k| (one log_det_n_matrix of the |L| x |L| k), as Re tr B =
    Re tr iA_LL = 0 for the real A.  An empty block gives 0 for its
    term."""
    a = aop.op.weighted
    s = np.flatnonzero(aop.small_sites)
    big = np.flatnonzero(~aop.small_sites)
    a_s, a_big = np.take(a, s, axis=0), np.take(a, big, axis=0)
    a_ss, a_sl = np.take(a_s, s, axis=1), np.take(a_s, big, axis=1)
    p = a_ss @ a_ss
    p.flat[::len(s) + 1] += 1.0
    r = np.linalg.cholesky(p)
    d = np.diagonal(r)
    c = (d - 1.0) * (d + 1.0)
    off = np.tril(r, -1)
    log3 = 0.5 * (float(np.sum(np.log1p(c) - c)) - float(np.vdot(off, off)))
    hg = np.linalg.solve(r, np.concatenate((a_sl, a_ss @ a_sl), axis=1))
    nl = len(big)
    hthg = hg[:, :nl].T @ hg  # [H^T H | H^T G]
    # k - 1, as log_det_n_matrix adds the identity
    k = hthg[:, :nl] + 1j * (np.take(a_big, big, axis=1) - hthg[:, nl:])
    return log3, log_det_n_matrix(k, 1).real


def damping_report(field, params, regions, covset, deltac, assignment):
    """Evaluate log(Z_gamma |G_gamma(tau)|) for one configuration.

    G_gamma is the product of the window weights, the explicit Gaussian
    damping on the large-field squares, the two regularized determinant
    factors and the quadratic correction exp((tau, deltaC tau)/2).  The
    determinant factors enter through their real parts only, and both come
    from one real Cholesky R R^T = 1 + A_ss^2 on the small-site block of
    the symmetrized A (_log_det_split_real): Re log det_3(1 + iA_s) as
    (1/2)[sum (log1p c_i - c_i) - |tril(R, -1)|_F^2], c_i = R_ii^2 - 1, a
    sum of nonpositive terms that the Cholesky's rounding moves only at
    second order (log det(1 + Q) - tr Q is flat at Q = 0), and
    Re log det_2(1 + B), B = (1 + iA_s)^{-1} iA'', as log|det k| of the
    |L| x |L| Schur complement k on the large sites, read from one real
    solve with R.  No eigensolve, no complex solve and no n x n B.
    tau vanishes outside Lambda, so (tau, deltaC tau) is read on
    Lambda x Lambda (DeltaC.lambda_form); log Z_gamma is the set's log_z.
    required_const is the constant that would make the bound

        log value <= -0.49 * int_{large} tau^2
                     + const * N^{-2/5} * int_{small} tau^2

    hold with equality; the fitted constant of the ensemble is its max."""
    log_theta = 0.0
    for k, lab in enumerate(assignment.labels):
        wgt = (assignment.theta_s[k] if lab == 0
               else assignment.theta_n[k, lab - 1])
        if wgt <= 0.0:
            return DampingReport(-np.inf, 0.0, 0.0, -np.inf, covset.log_z,
                                 -np.inf, np.nan, np.nan, np.nan)
        log_theta += np.log(wgt)

    mass_l = float(sum(field.mass_of(c) for c in regions.lambda_l))
    mass_s = float(sum(field.mass_of(c) for c in regions.lambda_s))

    log3_real, log2_real = _log_det_split_real(
        build_A(field, params, assignment=assignment, symmetrize=True))

    quad = deltac.lambda_form(field.tau.reshape(-1)
                              * np.sqrt(covset.grid.site_weight))

    log_value = (covset.log_z + log_theta - 0.5 * mass_l
                 - 0.5 * params.bigN * (log3_real + log2_real) + 0.5 * quad)
    if mass_s > 0:
        required = ((log_value + 0.49 * mass_l)
                    / (params.bigN ** (-0.4) * mass_s))
    else:
        required = -np.inf
    return DampingReport(float(log_value), mass_l, mass_s, float(required),
                         covset.log_z, float(log_theta), log3_real, log2_real,
                         quad)


def single_square_normalization(params, cutoff, samples, seed):
    """Monte Carlo estimate of the normalized partition integral of a
    single small-field square of 3 x 3 sites: the free-covariance average
    of the window weight times det_3^{-N/2}(1 + iA) with the covariance
    restricted to the square.  Tends to 1 faster than N^{-1/5} as N
    grows."""
    geo = LatticeGeometry(n=1, sites_per_square=3)
    asm = _assembly(params, geo, cutoff, pad=2)
    idx = np.flatnonzero(asm.geo.site_mask([(0, 0)]))
    root = gaussian_root((asm.c0_w / asm.w)[np.ix_(idx, idx)])
    f_block = propagator_matrix(asm.geo, params.m)[np.ix_(idx, idx)]

    rng = np.random.default_rng(seed)
    taus = rng.standard_normal((samples, len(idx))) @ root.T
    thr = params.bigN ** (1.0 / 6.0)
    vals = np.empty(samples, dtype=complex)
    for i, tau in enumerate(taus):
        u = params.lam * params.bigK * float(np.sum(tau * tau)) * asm.w
        t = 1.0 - smooth_step(u / thr - 1.0)
        if t == 0.0:
            vals[i] = 0.0
            continue
        lam_e = 1j * np.linalg.eigvals(f_block * (params.g * tau * asm.w)[None, :])
        log3 = log_det_n(lam_e, 3)
        vals[i] = t * np.exp(-0.5 * params.bigN * log3)
    return float(vals.real.mean())
