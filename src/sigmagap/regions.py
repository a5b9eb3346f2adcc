"""Small/large-field decomposition of the volume and corridor-region geometry.

The unit-square paving of the volume is split into small-field (s) and
large-field (l^n) squares by smoothed threshold windows in the per-square
field mass lam*K*||tau_Delta||^2.  Around the large-field squares we build
nested security-belt regions gamma (width M/2, allowed to leave the volume),
Gamma (width M) and the extended region Gamma^e (width n*M around l^n
squares), together with their connectivity components.  All distances are
exact Euclidean set distances between closed unit squares.
"""

import dataclasses
import functools
import math

import numpy as np
from scipy import integrate

_QUARTER = 0.25


def _bump(t):
    if abs(t) >= _QUARTER:
        return 0.0
    return math.exp(-1.0 / (_QUARTER * _QUARTER - t * t))


@functools.lru_cache(maxsize=1)
def _bump_total():
    val, _ = integrate.quad(_bump, -_QUARTER, _QUARTER, epsabs=1e-16, epsrel=1e-14)
    return val


def smooth_step(x):
    """C^inf monotone step: 0 for x <= -1/4, 1 for x >= 1/4.

    Normalized antiderivative of the bump exp(-1/((1/4)^2 - x^2)).
    """
    x = float(x)
    if x <= -_QUARTER:
        return 0.0
    if x >= _QUARTER:
        return 1.0
    return _smooth_step_inside(x)


@functools.lru_cache(maxsize=100000)
def _smooth_step_inside(x):
    """smooth_step on (-1/4, 1/4) by quadrature, cached: only these
    arguments pay for a quad, and the constant arguments outside, most of
    a random field's window weights, never fill the cache."""
    # integrate from the nearer endpoint for accuracy
    if x <= 0.0:
        val, _ = integrate.quad(_bump, -_QUARTER, x, epsabs=1e-16, epsrel=1e-14)
        return val / _bump_total()
    val, _ = integrate.quad(_bump, x, _QUARTER, epsabs=1e-16, epsrel=1e-14)
    return 1.0 - val / _bump_total()


@dataclasses.dataclass(frozen=True)
class LatticeGeometry:
    """Square volume of side 2n centered at the origin, |Lambda| = 4n^2.

    Unit squares are indexed by their integer lower-left corner coordinates
    (i, j) with i, j in [-n, n-1].  Each square carries sites_per_square^2
    discretization sites at the midpoints of a uniform subgrid.  The
    square -> site map is written here alone (blocks, widen, site_mask).
    """

    n: int
    sites_per_square: int = 4

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.sites_per_square < 1:
            raise ValueError("sites_per_square must be a positive integer")

    @property
    def num_squares(self):
        return 4 * self.n * self.n

    @property
    def sites_per_side(self):
        return 2 * self.n * self.sites_per_square

    @functools.cached_property
    def squares(self):
        """Lower-left corners (i, j), row-major in (i, j)."""
        rng = range(-self.n, self.n)
        return tuple((i, j) for i in rng for j in rng)

    @functools.cached_property
    def square_index(self):
        return {c: k for k, c in enumerate(self.squares)}

    def site_coordinates(self):
        """1d array of site coordinates along one axis (midpoint subgrid)."""
        s = self.sites_per_square
        k = np.arange(self.sites_per_side)
        return -self.n + (k + 0.5) / s

    @property
    def site_weight(self):
        """Quadrature weight of one site (midpoint rule)."""
        return 1.0 / self.sites_per_square**2

    def blocks(self, sites):
        """(2n, s, 2n, s) view of a side x side site array: [i, a, j, b] is
        site (a, b) of square (i - n, j - n)."""
        nb, s = 2 * self.n, self.sites_per_square
        return sites.reshape(nb, s, nb, s)

    def widen(self, per_square):
        """Per-site copy, in row-major site order, of an array with one
        entry per square in the order of squares."""
        s = self.sites_per_square
        grid = np.asarray(per_square).reshape(2 * self.n, 2 * self.n)
        return np.repeat(np.repeat(grid, s, axis=0), s, axis=1).reshape(-1)

    def site_mask(self, corners):
        """Boolean site mask of the union of the given squares, silently
        dropping squares that fall outside the grid."""
        keys = [self.square_index.get(tuple(c)) for c in corners]
        marked = np.zeros(self.num_squares, dtype=bool)
        marked[[k for k in keys if k is not None]] = True
        return self.widen(marked)


@dataclasses.dataclass
class FieldConfig:
    """A real field sampled on the discretization sites, with per-square
    L^2 masses int_Delta tau^2 under the midpoint rule."""

    geometry: LatticeGeometry
    tau: np.ndarray
    square_masses: np.ndarray

    @classmethod
    def from_tau(cls, geometry, tau):
        tau = np.asarray(tau, dtype=float)
        side = geometry.sites_per_side
        if tau.shape != (side, side):
            raise ValueError(f"tau must have shape {(side, side)}, got {tau.shape}")
        blocks = geometry.blocks(tau)
        masses = np.einsum("isjt,isjt->ij", blocks, blocks) * geometry.site_weight
        # geometry.squares is row-major in (i, j); masses[i_block, j_block]
        return cls(geometry, tau, masses.reshape(-1))

    def mass_of(self, corner):
        return self.square_masses[self.geometry.square_index[corner]]


@dataclasses.dataclass
class LSAssignment:
    """Hard s / l^n labels per square plus the smooth window weights.

    labels[k] = 0 for an s-square, n >= 1 for an l^n square.  theta_n has
    one column per window 1..n_max; theta_s + sum_n theta_n = 1 at every
    square (telescoping partition of unity).
    """

    geometry: LatticeGeometry
    labels: np.ndarray
    theta_s: np.ndarray
    theta_n: np.ndarray

    @property
    def large_squares(self):
        return tuple(
            c for c, lab in zip(self.geometry.squares, self.labels) if lab >= 1
        )


def window_weights(u, bigN, n_max):
    """theta_s and theta_1..theta_n_max at scaled mass u = lam*K*||tau||^2."""
    first = smooth_step(u / bigN ** (1.0 / 6.0) - 1.0)
    theta_s = 1.0 - first
    vals = []
    upper = first
    for n in range(1, n_max + 1):
        nxt = smooth_step(u / bigN ** ((n + 1) / 6.0) - 1.0)
        vals.append(upper - nxt)
        upper = nxt
    return theta_s, np.array(vals)


def classify_squares(field, params, geometry=None):
    """Assign s / l^n labels from the per-square masses.

    Hard label: s if lam*K*mass < N^(1/6), else the l^n window with the
    largest smooth weight.  n_max is the exact truncation point: the
    smallest n with (3/4)N^(n/6) above every scaled mass.
    """
    geometry = geometry or field.geometry
    u = params.lam * params.bigK * field.square_masses
    bigN = params.bigN
    u_max = float(u.max(initial=0.0))
    n_max = 1
    while 0.75 * bigN ** (n_max / 6.0) <= u_max:
        n_max += 1
    theta_s = np.empty(len(u))
    theta_n = np.empty((len(u), n_max))
    labels = np.zeros(len(u), dtype=int)
    thr = bigN ** (1.0 / 6.0)
    for k, uk in enumerate(u):
        theta_s[k], theta_n[k] = window_weights(uk, bigN, n_max)
        if uk >= thr:
            labels[k] = 1 + int(np.argmax(theta_n[k]))
    return LSAssignment(geometry, labels, theta_s, theta_n)


def square_distance(a, b):
    """Euclidean distance between the closed unit squares with lower-left
    corners a and b (0 when they touch or overlap).

    a and b are corners or arrays of corners along their last axis, and
    broadcast; for integer corners dx^2 + dy^2 is exact, so the square root
    equals math.hypot(dx, dy) bit for bit."""
    a, b = np.asarray(a), np.asarray(b)
    dx = np.maximum(np.abs(a[..., 0] - b[..., 0]) - 1.0, 0.0)
    dy = np.maximum(np.abs(a[..., 1] - b[..., 1]) - 1.0, 0.0)
    return np.sqrt(dx * dx + dy * dy)


class _UnionFind:
    """Disjoint sets over hashable items, with path halving."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def groups(self):
        """The disjoint sets as lists, in the order of their first items."""
        out = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


@dataclasses.dataclass
class RegionComponent:
    """One connectivity component l_i with its belts gamma_i and Gamma_i."""

    l_squares: frozenset
    gamma: frozenset
    big_gamma: frozenset


@dataclasses.dataclass
class ERegionComponent:
    """One e-connectivity component l^e_i with its extended belt Gamma^e_i."""

    l_squares: frozenset
    big_gamma_e: frozenset


@dataclasses.dataclass
class RegionSet:
    corridorM: float
    lambda_l: frozenset
    lambda_s: frozenset
    gamma: frozenset
    big_gamma: frozenset
    big_gamma_e: frozenset
    components: list
    e_components: list


def _belt(sources, candidates, width):
    """Squares among candidates within Euclidean set distance width of any
    source square."""
    near = square_distance(np.asarray(candidates)[:, None],
                           np.asarray(sources)[None, :]) <= width
    return frozenset(c for c, ok in zip(candidates, near.any(axis=1)) if ok)


def _plane_candidates(sources, width):
    """Lower-left corners of all squares of the infinite paving that could
    lie within width of the source set (with one square of margin)."""
    if not sources:
        return []
    w = math.ceil(width) + 2
    i_min = min(c[0] for c in sources) - w
    i_max = max(c[0] for c in sources) + w
    j_min = min(c[1] for c in sources) - w
    j_max = max(c[1] for c in sources) + w
    return [
        (i, j)
        for i in range(i_min, i_max + 1)
        for j in range(j_min, j_max + 1)
    ]


def build_regions(assignment, geometry=None, *, corridorM):
    """Construct gamma, Gamma, Gamma^e and their components at corridor
    width M = corridorM.

    Raw components of Lambda_l (edge/corner adjacency) are merged by
    connectivity links (a witness square Delta in Lambda with
    dist(D_i, Delta) + dist(D_j, Delta) <= 2M) into the l_i, and by
    e-connectivity links (threshold (n' + n'')M, with n', n'' the window
    indices of the linked squares) into the coarser l^e_i.
    """
    geometry = geometry or assignment.geometry
    M = float(corridorM)
    all_squares = geometry.squares
    labels = {c: lab for c, lab in zip(all_squares, assignment.labels)}
    lambda_l = [c for c in all_squares if labels[c] >= 1]
    lambda_s = frozenset(c for c in all_squares if labels[c] == 0)

    if not lambda_l:
        return RegionSet(M, frozenset(), lambda_s, frozenset(), frozenset(),
                         frozenset(), [], [])

    # raw components: closed squares touching at edges or corners; the
    # four forward neighbours reach each adjacent pair once
    adjacent = _UnionFind(lambda_l)
    for (i, j) in lambda_l:
        for nb in ((i + 1, j - 1), (i + 1, j), (i + 1, j + 1), (i, j + 1)):
            if nb in adjacent.parent:
                adjacent.union((i, j), nb)
    raw = [sorted(g) for g in adjacent.groups()]
    r = len(raw)

    # distance from every lattice square to every l-square, for witness search
    dist = square_distance(np.asarray(all_squares)[:, None],
                           np.asarray(lambda_l)[None, :])
    l_index = {c: k for k, c in enumerate(lambda_l)}
    # min over witness squares Delta in Lambda of d(a, Delta) + d(b, Delta)
    witness_sum = np.min(dist[:, :, None] + dist[:, None, :], axis=0)

    uf_link = _UnionFind(range(r))
    uf_elink = _UnionFind(range(r))
    for i in range(r):
        for j in range(i + 1, r):
            ia = [l_index[c] for c in raw[i]]
            jb = [l_index[c] for c in raw[j]]
            block = witness_sum[np.ix_(ia, jb)]
            if block.min() <= 2.0 * M:
                uf_link.union(i, j)
            n_i = np.array([labels[c] for c in raw[i]], dtype=float)
            n_j = np.array([labels[c] for c in raw[j]], dtype=float)
            slack = block - (n_i[:, None] + n_j[None, :]) * M
            if slack.min() <= 0.0:
                uf_elink.union(i, j)

    def grouped(uf):
        return [sorted(c for i in g for c in raw[i]) for g in uf.groups()]

    l_comps = grouped(uf_link)
    le_comps = grouped(uf_elink)

    gamma_candidates = _plane_candidates(lambda_l, M / 2.0)
    n_top = max(labels[c] for c in lambda_l)

    components = []
    for comp in l_comps:
        g_i = _belt(comp, gamma_candidates, M / 2.0)
        bg_i = _belt(comp, all_squares, M)
        components.append(RegionComponent(frozenset(comp), g_i, bg_i))

    e_components = []
    for comp in le_comps:
        bge = set()
        for n in range(1, n_top + 1):
            srcs = [c for c in comp if labels[c] == n]
            if srcs:
                bge |= _belt(srcs, all_squares, n * M)
        e_components.append(ERegionComponent(frozenset(comp), frozenset(bge)))

    gamma = frozenset().union(*(c.gamma for c in components))
    big_gamma = frozenset().union(*(c.big_gamma for c in components))
    big_gamma_e = frozenset().union(*(c.big_gamma_e for c in e_components))
    return RegionSet(M, frozenset(lambda_l), lambda_s, gamma, big_gamma,
                     big_gamma_e, components, e_components)


@dataclasses.dataclass
class SuppressionReport:
    """Both sides of the large-field suppression bound, in log form.

    log_left  = -(49/100) * int_{Lambda_l} tau^2
    log_right = -(1/4) * int_{Lambda_l} tau^2 - N^(1/8)|Gamma^e|
                - sum over l^n squares of N^((n-1)/8)
    holds is log_left <= log_right; proof_condition_margin is the minimum
    over present windows of (m / (n ln N))^2 N^(n/6) / N^(n/8), the
    quantity the asymptotic proof requires to be large.
    """

    log_left: float
    log_right: float
    holds: bool
    proof_condition_margin: float


def large_field_suppression(assignment, field, params):
    """Evaluate both sides of the per-square suppression bound.

    The inequality only holds for N large relative to the corridor area;
    at accessible N the direction can flip, which is reported (not raised).
    """
    regions = build_regions(assignment, field.geometry,
                            corridorM=params.corridorM)
    labels = assignment.labels
    large = labels >= 1
    total_mass = float(field.square_masses[large].sum())
    bigN = params.bigN
    log_left = -0.49 * total_mass
    penalty = bigN ** 0.125 * len(regions.big_gamma_e)
    penalty += sum(bigN ** ((n - 1) / 8.0) for n in labels[large])
    log_right = -0.25 * total_mass - penalty
    margin = math.inf
    for n in sorted(set(int(v) for v in labels[large])):
        ratio = (params.m / (n * math.log(bigN))) ** 2 * bigN ** (n / 6.0 - n / 8.0)
        margin = min(margin, ratio)
    return SuppressionReport(log_left, log_right, log_left <= log_right + 1e-12,
                             margin)
