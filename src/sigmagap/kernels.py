"""Regulated position-space kernels.

Everything here is radial: the propagator

    F(x) = int d^2q/(2pi)^2  e^{iqx} / (q^2 e^{q^2} + m^2)

is computed as a Hankel transform F(r) = (1/2pi) int q J0(qr) g(q) dq with
g(q) = 1/(q^2 e^{q^2} + m^2).  Three regimes:

  * r <= 15: direct composite Gauss-Legendre quadrature with panels
    resolving both the width-m peak of g at q = 0 and the J0(qr)
    oscillation.  The oscillatory cancellation costs at most ~10 digits
    absolute here, and e^{-mr} >= e^{-15 m} keeps the values far above
    that floor for every mass this toolkit uses;
  * r > 15: residue formula.  g has simple poles in s = q^2 at the two
    real roots of s e^s = -m^2 (s* ~ -m^2 and s2 ~ ln m^2 for small m);
    each contributes c_k K0(sqrt(-s_k) r)/(2pi) with residue factor
    c_k = 1/(e^{s_k}(1+s_k)).  The remaining error comes from the first
    complex root pair of s e^s = -m^2 (decay rate > 2.5 per unit
    distance) and is below machine precision at r > 15.

For m^2 >= 1/e the real poles do not exist (min of s e^s is -1/e); those
masses only occur at strong coupling where every radius of interest is
below 15 and the direct route covers everything.

The polarization bubble in position space is pi(x) = (lam*K/2) * F(x)^2
(the momentum-space convolution of two propagators is a pointwise product
after Fourier transform); its momentum representation is obtained either
by direct 2D quadrature (polarization_momentum, the defining formula) or
by a Hankel transform of F^2 (the table route used for kernel
construction).  The two routes are cross-checked in the tests and must
not be merged.

The tau-field cutoff 1/(1 + c p^4) has a closed-form radial kernel (a
Kelvin function, cutoff_inverse_values) and a compactly supported,
still positive-definite variant (cutoff_enforced_values); both are
evaluated in closed form wherever they are used, with no table.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import j0, k0, kei, lambertw

from .model import ModelParams

R_POLE_SWITCH = 15.0   # beyond this the two-pole residue formula is exact
Q_MAX = 6.5            # momentum cutoff of the direct route: g < e^{-42} past it
FIT_FLOOR = 1e-300     # kernel values at or below this are left out of fits
FIT_ITERS = 6          # fixed-point steps of the decay-rate fit window
GRID_STEP = 0.125      # spacing of the 2D kernel tables
GAUSS_12 = np.polynomial.legendre.leggauss(12)   # nodes, weights on [-1, 1]


# ---------------------------------------------------------------------------
# quadrature scaffolding

def gauss_panels(edges):
    """Composite 12-point Gauss-Legendre nodes/weights over consecutive
    [e_i, e_{i+1}]."""
    x0, w0 = GAUSS_12
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    mid, rad = 0.5 * (a + b), 0.5 * (b - a)
    x = (mid[:, None] + rad[:, None] * x0[None, :]).ravel()
    w = (rad[:, None] * w0[None, :]).ravel()
    return x, w


def _q_edges(m, q_max, r_max):
    """Panel edges resolving both the width-m peak of g at q=0 and the
    J0(qr) oscillation out to r_max."""
    m = max(m, 1e-8)
    small = [0.0]
    q = m / 8.0
    while q < min(0.5, q_max):
        small.append(q)
        q *= 1.6
    width = min(0.2, 3.5 / max(r_max, 1.0))
    rest = np.arange(small[-1] + width, q_max + width, width)
    return np.concatenate([small, rest])


def pole_params(m2):
    """Real poles of 1/(s e^s + m^2): list of (mu, c) with mu = sqrt(-s_k)
    and residue factor c = 1/(e^{s_k}(1+s_k)), for the two real roots of
    s e^s = -m^2; None when m^2 >= 1/e (no real roots).  The roots are the
    Lambert W branches W_0(-m^2) in (-1, 0) and W_{-1}(-m^2) < -1."""
    if m2 >= np.exp(-1.0):
        return None
    out = []
    for branch in (0, -1):
        sk = lambertw(-m2, branch).real
        out.append((np.sqrt(-sk), 1.0 / (np.exp(sk) * (1.0 + sk))))
    return out


def propagator_values(m2, r):
    """F(r) for an array of radii, vectorized; see module docstring."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    m = np.sqrt(m2)
    pole = pole_params(m2)

    def g(q):
        q2 = q * q
        return 1.0 / (q2 * np.exp(q2) + m2)

    if pole is None:
        # strong coupling: direct route everywhere
        q, w = gauss_panels(_q_edges(m, Q_MAX, max(1.0, r.max())))
        out[:] = (j0(np.outer(r, q)) * (w * q * g(q))).sum(axis=1) / (2 * np.pi)
        return out

    near = r <= R_POLE_SWITCH
    far = ~near
    if near.any():
        q, w = gauss_panels(_q_edges(m, Q_MAX, R_POLE_SWITCH))
        out[near] = (j0(np.outer(r[near], q)) * (w * q * g(q))).sum(axis=1) \
            / (2 * np.pi)
    if far.any():
        acc = np.zeros(far.sum())
        for mu, ck in pole:
            acc += ck * k0(mu * r[far])
        out[far] = acc / (2 * np.pi)
    return out


# ---------------------------------------------------------------------------
# lattice tabulation

def radial_grid(radial, n, per_unit):
    """radial(sqrt(i^2 + j^2) / per_unit) at the integer offsets
    -n <= i, j <= n, as a (2n+1, 2n+1) array indexed [i + n, j + n].

    i^2 + j^2 is an integer, so the dedupe is exact: radial is called once,
    on the distinct distances only, and every lattice table (kernel grids
    and site matrices) reads its values from here."""
    k = np.arange(n + 1)
    d2 = (k[:, None] ** 2 + k[None, :] ** 2).ravel()
    uniq, inv = np.unique(d2, return_inverse=True)
    quadrant = np.asarray(radial(np.sqrt(uniq) / per_unit))[inv]
    a = np.abs(np.arange(-n, n + 1))
    return quadrant.reshape(n + 1, n + 1)[a[:, None], a[None, :]]


def _kernel_grid(radial, half_extent):
    """radial_grid at spacing GRID_STEP out to half_extent."""
    return radial_grid(radial, int(round(half_extent / GRID_STEP)),
                       1.0 / GRID_STEP)


# ---------------------------------------------------------------------------
# sampled kernels

@dataclass
class SampledKernel:
    """Radial kernel tabulated on a 2D displacement grid.

    values[i, j] is the kernel at displacement ((i-n)*h, (j-n)*h) with
    h = GRID_STEP and n the table's half width, read from radial_grid
    (one kernel evaluation per distinct distance).  delta_coeff carries
    an explicit delta contribution (coefficient of the identity operator)
    for kernels of the form c*delta + smooth part.  radial_r / radial_vals
    hold the dense radial profile (typically out to ~8/rate) that the
    decay fit fitted_decay_rate / fit_residual was made on.
    """

    values: np.ndarray
    radial_r: np.ndarray
    radial_vals: np.ndarray
    fitted_decay_rate: float
    fit_residual: float
    delta_coeff: float


def _radial_nodes(r_max):
    """Nonuniform radial sample: geometric near the log singularity at 0,
    then uniform out to r_max."""
    close = np.geomspace(1e-3, 2.0, 90)
    farstep = min(0.1, r_max / 400.0) if r_max > 2 else 0.05
    far = np.arange(2.0 + farstep, r_max + farstep, farstep)
    return np.concatenate([[0.0], close, far])


def fit_decay_rate(r, vals, prefactor_power, z_window):
    """Exponential decay rate of |vals(r)| ~ C r^{-rho} e^{-rate r}.

    Least squares of ln(r^rho |v|) against r, restricted to the window
    z = rate*r in z_window; the window is found by fixed-point iteration
    starting from the plain log-linear slope.  A 2D massive kernel has
    rho = 1/2 (propagator-like) or 1 (bubble-like); fitting without the
    prefactor correction overestimates the rate substantially whenever
    the window does not reach rate*r >> 1, so the plain fit only seeds
    the iteration.
    Returns (rate, rms_residual).
    """
    r = np.asarray(r, dtype=float)
    v = np.abs(np.asarray(vals, dtype=float))
    ok = (r > 0) & (v > FIT_FLOOR)
    r, v = r[ok], v[ok]
    if len(r) < 8:
        return np.nan, np.nan
    y = prefactor_power * np.log(r) + np.log(v)
    # plain slope over everything as the seed
    rate = max(-np.polyfit(r, np.log(v), 1)[0], 1e-6)
    for _ in range(FIT_ITERS):
        lo, hi = z_window[0] / rate, z_window[1] / rate
        sel = (r >= lo) & (r <= hi)
        if sel.sum() < 8:
            sel = r >= lo  # window ran off the table; use what is there
        if sel.sum() < 8:
            sel = np.ones_like(r, dtype=bool)
        coef = np.polyfit(r[sel], y[sel], 1)
        new = max(-coef[0], 1e-6)
        if abs(new - rate) < 1e-12:
            rate = new
            break
        rate = new
    resid = float(np.sqrt(np.mean((np.polyval(coef, r[sel]) - y[sel]) ** 2)))
    return float(rate), resid


def _fitted_kernel(grid, rr, vals, prefactor_power, z_window=(2.0, 7.0),
                   delta_coeff=0.0):
    """SampledKernel of a tabulated radial kernel with its decay-rate fit
    filled in."""
    rate, resid = fit_decay_rate(rr, vals, prefactor_power=prefactor_power,
                                 z_window=z_window)
    return SampledKernel(values=grid, radial_r=rr, radial_vals=vals,
                         fitted_decay_rate=rate, fit_residual=resid,
                         delta_coeff=delta_coeff)


def propagator_kernel(m):
    """Tabulated F for gap mass m on a 2D table out to min(10, 8/m); the
    radial profile used for decay fitting always extends to ~8/m so the
    fit window in m*r is actually reachable."""
    if not 0 < m < 1:
        raise ValueError("m must lie in (0,1)")
    m2 = m * m
    r_fit = 8.0 / m + 2.0
    rr = _radial_nodes(r_fit)
    vals = propagator_values(m2, rr)
    grid = _kernel_grid(lambda r: propagator_values(m2, r),
                        min(10.0, 8.0 / m))
    return _fitted_kernel(grid, rr, vals, 0.5)


def polarization_kernel(params: ModelParams):
    """Position-space bubble pi(x) = (lam*K/2) F(x)^2 on F's table; decay
    rate 2m."""
    fkernel = propagator_kernel(params.m)
    half = 0.5 * params.lam * params.bigK
    vals = half * fkernel.radial_vals ** 2
    grid = half * fkernel.values ** 2
    return _fitted_kernel(grid, fkernel.radial_r, vals, 1.0)


# ---------------------------------------------------------------------------
# polarization in momentum space

def polarization_momentum(p2, params: ModelParams, test_mode_unregulated):
    """pi(p) = (lam K/2) int d^2q/(2pi)^2 g(q) g(p+q) by direct 2D polar
    quadrature (relative accuracy ~1e-9).  test_mode_unregulated replaces
    g by the free propagator 1/(q^2+m^2), for which pi(0) = lam K/(8 pi m^2)
    is exact."""
    m2 = params.m ** 2
    p = np.sqrt(p2)

    if test_mode_unregulated:
        g = lambda q2: 1.0 / (q2 + m2)
        q_hi = 400.0
    else:
        g = lambda q2: 1.0 / (q2 * np.exp(np.minimum(q2, 700)) + m2)
        q_hi = 7.0

    def theta_integral(q):
        def fth(th):
            w2 = q * q + p2 + 2.0 * q * p * np.cos(th)
            return g(w2)
        pts = [np.pi] if p > 0 and abs(q - p) < 4 * params.m else None
        val, _ = quad(fth, 0.0, np.pi, points=pts, limit=300,
                      epsabs=0.0, epsrel=1e-11)
        return 2.0 * val

    def fq(q):
        return q * g(q * q) * theta_integral(q)

    pts = sorted({x for x in (params.m, 0.5 * p, p, 2.0 * p,
                              max(p - params.m, 0.0), p + params.m)
                  if 0 < x < q_hi})
    val, _ = quad(fq, 0.0, q_hi, points=pts or None, limit=400,
                  epsabs=0.0, epsrel=1e-10)
    return 0.5 * params.lam * params.bigK * val / (2.0 * np.pi) ** 2


def polarization_momentum_table(params: ModelParams, pgrid):
    """pi(p) on a grid of momenta via the Hankel transform of (lamK/2) F^2.

    pi(p) = lam K pi int_0^inf r J0(pr) F(r)^2 dr.  Uses the machine-
    accurate radial propagator; independent of polarization_momentum.
    """
    m = params.m
    m2 = m * m
    pgrid = np.atleast_1d(np.asarray(pgrid, dtype=float))
    r_max = max(25.0 / (2 * m), 40.0)
    p_max = max(pgrid.max(), 1e-6)
    # panels: log near 0 (integrand ~ r log^2 r), oscillation-resolving after
    close = np.geomspace(1e-4, 1.0, 40)
    width = min(0.5, 3.5 / p_max)
    far = np.arange(1.0 + width, r_max, width)
    redges = np.concatenate([[0.0], close, far])
    rq, rw = gauss_panels(redges)
    F2 = propagator_values(m2, rq) ** 2
    core = rw * rq * F2
    # J0 matrix: pgrid x rq
    vals = j0(np.outer(pgrid, rq)) @ core
    return params.lam * params.bigK * np.pi * vals


def sqrt_one_plus_pi_kernel(params: ModelParams, sign):
    """Kernel of (1+pi)^{sign/2} - delta (x != 0 part), sign in {+1, -1},
    on a 2D table out to min(10, 4/m).

    Momentum functional calculus: G(p) = (1+pi(p))^{sign/2} - 1 is
    absolutely integrable (pi(p) is suppressed like e^{-p^2} at large p),
    so the position kernel is the radial back-transform
    (1/2pi) int p J0(pr) G(p) dp.  Decay rate 2m (inherited from pi).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    m = params.m
    r_fit = 4.0 / m + 2.0

    # momentum panels: pi(p) varies on scale m near 0, support ends ~ p=4.5
    p_hi = 4.5
    small = np.geomspace(m * 1e-3, min(8 * m, 0.5), 50)
    width = min(0.15, 3.5 / r_fit)
    rest = np.arange(small[-1] + width, p_hi, width)
    pedges = np.concatenate([[0.0], small, rest, [p_hi]])
    pq, pw = gauss_panels(pedges)
    piv = polarization_momentum_table(params, pq)
    G = np.power(1.0 + piv, 0.5 * sign) - 1.0
    core = pw * pq * G

    def back_transform(r):
        return (j0(np.outer(r, pq)) @ core) / (2.0 * np.pi)

    rr = _radial_nodes(r_fit)
    vals = back_transform(rr)
    grid = _kernel_grid(back_transform, min(10.0, 4.0 / m))
    # prefactor powers from the two-particle threshold branch point of pi
    # at p^2 = -4m^2: (1+pi)^{-1/2} vanishes like t^{1/2} there -> r^{-2}
    # prefactor; (1+pi)^{+1/2} diverges like t^{-1/4} -> r^{-5/4}
    rho = 2.0 if sign == -1 else 1.25
    return _fitted_kernel(grid, rr, vals, rho, z_window=(2.5, 7.5),
                          delta_coeff=1.0)


# ---------------------------------------------------------------------------
# tau-field cutoff

# the admissible range alpha <= c <= bigA of the cutoff constant
CUTOFF_ALPHA, CUTOFF_BIGA = 0.5, 2.0


@dataclass(frozen=True)
class CutoffSpec:
    """Quartic momentum cutoff f(p) = c (p^2)^2 with alpha <= c <= bigA."""
    c: float = 1.0

    def __post_init__(self):
        if self.c > 0 and not (CUTOFF_ALPHA <= self.c <= CUTOFF_BIGA):
            raise ValueError("need alpha <= c <= bigA")


def _wendland(r):
    """C^2 Wendland window (1-r)^4 (4r+1), positive definite in 2D,
    support exactly [0, 1]."""
    r = np.asarray(r, dtype=float)
    return np.where(r < 1.0, (1.0 - np.clip(r, 0, 1)) ** 4 * (4.0 * r + 1.0), 0.0)


def cutoff_inverse_values(c, r):
    """Radial kernel of 1/(1 + c p^4): a Kelvin function,
    u(r) = -kei(r c^{-1/4}) / (2 pi sqrt(c))."""
    r = np.asarray(r, dtype=float)
    s = c ** 0.25
    return -kei(r / s) / (2.0 * np.pi * np.sqrt(c))


@lru_cache(maxsize=None)
def _enforced_norm(c):
    mu, _ = quad(lambda r: 2 * np.pi * r * cutoff_inverse_values(c, r)
                 * _wendland(r), 0.0, 1.0, limit=200)
    return mu


def cutoff_enforced_values(c, r):
    """Compact-support variant of cutoff_inverse_values: windowed by the
    Wendland function and renormalized to unit integral.  Vanishes for
    r >= 1; still positive definite (product of pd functions)."""
    return cutoff_inverse_values(c, r) * _wendland(r) / _enforced_norm(c)


def cutoff_momentum_integral(spec: CutoffSpec, r_power):
    """int d^2p (1/(1+f(p)))^r, used for the r^{-1/2} bound check."""
    c = spec.c
    val, _ = quad(lambda s: np.pi / (1.0 + c * s * s) ** r_power, 0.0, np.inf,
                  limit=400)
    return val
