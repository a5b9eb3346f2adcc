"""Forest interpolation, Mayer connectivity, and toy polymer sums.

Everything here is finite combinatorics checked against brute force: the
forest interpolation identity (sum over forests of integrated mixed
derivatives evaluated at the inf-rule point), the neighbor-link special
case that singles out spanning trees of the large-field components, the
positivity-preserving level decomposition of an interpolated kernel, the
hard-core Mayer connectivity factor by connected-graph enumeration and by
its tree formula, and the polymer activity sum over polyominoes anchored
at a fixed square.

The inf rule makes integrands only piecewise smooth, so every h-cube
integral is split over orderings of the parameters; on each ordered
simplex the substitution h_{(j)} = u_j u_{j+1} ... u_k is smooth and
tensor Gauss-Legendre integrates the polynomial pieces exactly.
"""

import dataclasses
import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .regions import _UnionFind

# upper bound on the growth of the number of fixed polyominoes per size
# (Klarner-Rivest), used for the tail of the activity sum
POLYOMINO_GROWTH = 4.65
# the activity sum enumerates polymers up to this size exactly
POLYMER_MAX_SIZE = 6
# exhaustive forest enumeration is limited to this many labels
FOREST_MAX_LABELS = 8
# the neighbor-link forest weights must sum to 1 within this
FIRST_FOREST_TOL = 1e-8
# polymer-count guards of the two Mayer connectivity routes
MAYER_GRAPH_MAX_Q = 8
MAYER_TREE_MAX_Q = 6


def _edge(i, j):
    return (i, j) if i <= j else (j, i)


@dataclasses.dataclass(frozen=True)
class Forest:
    """An acyclic set of unordered edges over a finite label set."""

    labels: tuple
    edges: tuple

    def __post_init__(self):
        uf = _UnionFind(self.labels)
        for (i, j) in self.edges:
            if i == j:
                raise ValueError("loops are not allowed")
            if i not in self.labels or j not in self.labels:
                raise ValueError("edge endpoint outside the label set")
            if not uf.union(i, j):
                raise ValueError("edge set contains a cycle")

    def clusters(self):
        uf = _UnionFind(self.labels)
        for (i, j) in self.edges:
            uf.union(i, j)
        return [frozenset(g) for g in uf.groups()]


def enumerate_forests(index_set):
    """All forests (acyclic edge subsets) on the label set, exhaustively."""
    labels = tuple(sorted(index_set))
    if len(labels) > FOREST_MAX_LABELS:
        raise ValueError(
            f"index set larger than the guard ({FOREST_MAX_LABELS})")
    all_edges = [_edge(a, b) for a, b in itertools.combinations(labels, 2)]
    out = []

    def extend(start, edges, parent):
        out.append(tuple(edges))
        for k in range(start, len(all_edges)):
            uf = _UnionFind(())
            uf.parent = dict(parent)
            if not uf.union(*all_edges[k]):
                continue
            edges.append(all_edges[k])
            extend(k + 1, edges, uf.parent)
            edges.pop()

    extend(0, [], {x: x for x in labels})
    return out


def spanning_trees(index_set):
    labels = tuple(sorted(index_set))
    want = len(labels) - 1
    return [f for f in enumerate_forests(labels) if len(f) == want]


def forest_path(edges, i, j):
    """Vertices-to-edges path between i and j in a forest, or None."""
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    prev = {i: None}
    queue = [i]
    while queue:
        x = queue.pop()
        if x == j:
            path = []
            while prev[x] is not None:
                path.append(_edge(x, prev[x]))
                x = prev[x]
            return path
        for y in adj.get(x, ()):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def effective_parameter(edges, h, pair):
    """inf of the h parameters (scalars or arrays) along the unique
    connecting path; 0 when the pair is not connected by the forest, 1
    when it is a single label."""
    path = forest_path(edges, *pair)
    if path is None:
        return 0.0
    if not path:
        return 1.0
    return np.minimum.reduce([np.asarray(h[e]) for e in path])


# ---------------------------------------------------------------------------
# ordered-simplex quadrature over the h-cube

@lru_cache(maxsize=8)
def _gl_nodes(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _simplex_points(k, nodes):
    """Quadrature points and weights for one ordered region
    h_1 <= ... <= h_k via h_j = u_j u_{j+1} ... u_k."""
    x, w = _gl_nodes(nodes)
    grids = np.meshgrid(*([x] * k), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=0)
    wgrids = np.meshgrid(*([w] * k), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=0), axis=0)
    # h_j = prod_{t >= j} u_t (cumulative product from the top)
    hvals = np.cumprod(u[::-1], axis=0)[::-1]
    jac = np.prod(np.stack([u[t] ** t for t in range(k)], axis=0), axis=0)
    return hvals, weights * jac


def _integrate_over_forest(edges, integrand, nodes=12):
    """Integrate integrand(h: dict edge -> array) over [0,1]^{|edges|},
    splitting over orderings so inf-rule kinks never cross a panel."""
    k = len(edges)
    if k == 0:
        return float(integrand({}))
    hvals, weights = _simplex_points(k, nodes)
    total = 0.0
    for perm in itertools.permutations(range(k)):
        h = {edges[perm[pos]]: hvals[pos] for pos in range(k)}
        total += float(np.sum(weights * integrand(h)))
    return total


def verify_forest_formula(partial, index_set):
    """Residual of the forest interpolation identity for a test function H.

    partial(edges) is the mixed partial of H over the distinct pairs in
    edges, as a function of a dict pair -> argument (scalars or arrays);
    partial(()) is H itself.  The right side sums over all forests the
    integrated mixed partial evaluated at the inf-rule point, and must
    reproduce H at all arguments equal to 1."""
    labels = tuple(sorted(index_set))
    if len(labels) > 4:
        raise ValueError("identity check limited to 4 labels")
    pairs = [_edge(a, b) for a, b in itertools.combinations(labels, 2)]
    target = float(partial(())(dict.fromkeys(pairs, 1.0)))
    total = 0.0
    for edges in enumerate_forests(labels):
        f = partial(edges)

        def integrand(h, edges=edges, f=f):
            return f({p: effective_parameter(edges, h, p) for p in pairs})

        total += _integrate_over_forest(edges, integrand)
    return abs(total - target)


# closed-form mixed partials of criterion 07's three test functions over a
# set of distinct pairs, each a function of the dict pair -> argument

def product_partial(edges):
    """H = prod_p (1 + x_p): the partial over F is prod_{p not in F}
    (1 + x_p)."""
    return lambda x: math.prod((1.0 + v for p, v in x.items()
                                if p not in edges), start=1.0)


def exponential_partial(edges):
    """H = exp(sum_p x_p) is its own partial over any F."""
    return lambda x: np.exp(sum(x.values()))


def polynomial_partial(edges):
    """H = (1 + sum_p x_p)^2 + 3 prod_p x_p: the square's partial is
    (1 + sum x)^2, 2(1 + sum x), 2, 0 for |F| = 0, 1, 2, >= 3, and the
    product's is 3 prod_{p not in F} x_p."""
    def f(x):
        s = 1.0 + sum(x.values())
        square = (s * s, 2.0 * s, 2.0, 0.0)[min(len(edges), 3)]
        return square + 3.0 * math.prod(
            (v for p, v in x.items() if p not in edges), start=1.0)
    return f


# ---------------------------------------------------------------------------
# neighbor-link forest formula

def _component_links(neighbor_pairs, components):
    """Sorted distinct neighbor links with both ends in one component."""
    return sorted({_edge(*sorted(p)) for p in neighbor_pairs
                   if any(p[0] in c and p[1] in c for c in components)})


def surviving_forests(squares, neighbor_pairs, components):
    """Forests of neighbor links whose clusters are exactly the given
    components (the only nonzero terms of the neighbor-link formula)."""
    squares = tuple(sorted(squares))
    comp_sets = [frozenset(c) for c in components]
    eps_edges = _component_links(neighbor_pairs, comp_sets)
    out = []
    for edges in enumerate_forests(squares):
        if not all(e in eps_edges for e in edges):
            continue
        clusters = set(Forest(squares, edges).clusters())
        if clusters == set(comp_sets):
            out.append(edges)
    return out


def verify_first_forest_formula(squares, neighbor_pairs, components):
    """Check the neighbor-link forest formula on a toy region.

    Two assertions: the surviving forests are exactly the unions of
    spanning trees of each component's neighbor graph, and their
    integrated weights sum to 1."""
    squares = tuple(sorted(squares))
    if len(squares) > FOREST_MAX_LABELS:
        raise ValueError(
            f"toy-region guard: at most {FOREST_MAX_LABELS} squares")
    comp_sets = [frozenset(c) for c in components]
    links = _component_links(neighbor_pairs, comp_sets)
    survivors = surviving_forests(squares, links, comp_sets)

    expected = 1
    for comp in comp_sets:
        comp_edges = [e for e in links if e[0] in comp and e[1] in comp]
        trees = [t for t in spanning_trees(comp)
                 if all(e in comp_edges for e in t)]
        expected *= len(trees)
    if len(survivors) != expected:
        return False

    total = 0.0
    for edges in survivors:
        open_pairs = [p for p in links if p not in edges]

        def integrand(h, edges=edges, open_pairs=open_pairs):
            val = 1.0
            for p in open_pairs:
                val = val * effective_parameter(edges, h, p)
            return val

        total += _integrate_over_forest(edges, integrand)
    return abs(total - 1.0) < FIRST_FOREST_TOL


# ---------------------------------------------------------------------------
# interpolated kernels and positivity

def interpolated_kernel(K, block_labels, edges, h):
    """Entrywise inf-rule interpolation: entries between blocks i != j are
    scaled by the effective parameter, diagonal blocks are untouched."""
    K = np.asarray(K)
    block_labels = np.asarray(block_labels)
    blocks = sorted(set(block_labels.tolist()))
    scale = np.ones_like(K, dtype=float)
    for a, b in itertools.combinations(blocks, 2):
        hab = effective_parameter(edges, h, _edge(a, b))
        mask_a = block_labels == a
        mask_b = block_labels == b
        scale[np.ix_(mask_a, mask_b)] = hab
        scale[np.ix_(mask_b, mask_a)] = hab
    return K * scale


def positivity_decomposition(K, block_labels, edges, h):
    """The ordered-level rewriting of the interpolated kernel as a sum of
    manifestly positive terms.

    With the edge parameters sorted h_1 <= ... <= h_n (and h_0 = 0,
    h_{n+1} = 1), level p carries weight h_p - h_{p-1} and the clusters of
    the sub-forest made of edges p..n; the final level has the singleton
    blocks.  Returns [(weight, masked matrix), ...] with zero-weight
    levels dropped."""
    K = np.asarray(K)
    block_labels = np.asarray(block_labels)
    labels = tuple(sorted(set(block_labels.tolist())
                          | {v for e in edges for v in e}))
    order = sorted(edges, key=lambda e: h[e])
    n = len(order)
    hs = [h[e] for e in order]
    terms = []
    prev = 0.0
    for p in range(1, n + 2):
        level = hs[p - 1] if p <= n else 1.0
        weight = level - prev
        prev = level
        if weight <= 0.0:
            continue
        sub = order[p - 1:] if p <= n else []
        clusters = Forest(labels, tuple(sub)).clusters()
        term = np.zeros_like(K, dtype=float)
        for cl in clusters:
            mask = np.isin(block_labels, sorted(cl))
            term += K * mask[:, None] * mask[None, :]
        terms.append((weight, term))
    return terms


# ---------------------------------------------------------------------------
# Mayer connectivity

def mayer_connectivity(overlap_pairs, q):
    """T(M) by exhaustive enumeration of connected graphs whose edges are
    overlapping pairs (hard core: each edge carries a factor -1)."""
    if q > MAYER_GRAPH_MAX_Q:
        raise ValueError(
            f"polymer count above the guard ({MAYER_GRAPH_MAX_Q})")
    if q == 1:
        return 1.0
    edges = [_edge(*sorted(p)) for p in overlap_pairs]
    edges = sorted(set(e for e in edges if 0 <= e[0] < q and e[0] != e[1]))
    total = 0.0
    for bits in range(1 << len(edges)):
        chosen = [edges[k] for k in range(len(edges)) if bits >> k & 1]
        uf = _UnionFind(range(q))
        seen = set()
        for (a, b) in chosen:
            uf.union(a, b)
            seen.add(a)
            seen.add(b)
        if len(seen) < q:
            continue
        if len(uf.groups()) != 1:
            continue
        total += (-1.0) ** len(chosen)
    return total


def mayer_tree_formula(overlap_pairs, q, nodes):
    """T(M) via the tree formula: sum over spanning trees of overlapping
    pairs, each tree edge contributing -1, times the integral of
    prod_{(ij) not in tree, overlapping} (1 - h_T(i,j))."""
    if q > MAYER_TREE_MAX_Q:
        raise ValueError(f"polymer count above the guard ({MAYER_TREE_MAX_Q})")
    if q == 1:
        return 1.0
    overlap = {_edge(*sorted(p)) for p in overlap_pairs}
    total = 0.0
    for tree in spanning_trees(range(q)):
        if not all(e in overlap for e in tree):
            continue
        open_pairs = [p for p in overlap if p not in tree]

        def integrand(h, tree=tree, open_pairs=open_pairs):
            val = 1.0
            for p in open_pairs:
                val = val * (1.0 - effective_parameter(tree, h, p))
            return val

        total += (-1.0) ** (q - 1) * _integrate_over_forest(tree, integrand,
                                                            nodes)
    return total


# ---------------------------------------------------------------------------
# polymer activity sum

@lru_cache(maxsize=8)
def anchored_polyominoes(max_size):
    """Connected (edge-connected) square sets containing the origin, by
    size; counts per size are 1, 4, 18, 76, 315, 1296, ..."""
    if max_size > POLYMER_MAX_SIZE:
        raise ValueError(f"enumeration guard: size at most {POLYMER_MAX_SIZE}")
    found = {frozenset([(0, 0)])}
    by_size = {1: [frozenset([(0, 0)])]}
    frontier = [frozenset([(0, 0)])]
    for size in range(2, max_size + 1):
        nxt = []
        for poly in frontier:
            for (i, j) in poly:
                for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    cell = (i + d[0], j + d[1])
                    if cell in poly:
                        continue
                    grown = poly | {cell}
                    if grown not in found:
                        found.add(grown)
                        nxt.append(grown)
        by_size[size] = nxt
        frontier = nxt
    return by_size


@dataclasses.dataclass
class ActivitySum:
    """Sum over anchored polymers of |b(Y)| e^{|Y|}, with the analytic
    geometric tail for sizes beyond the enumeration cutoff."""

    enumerated: float
    tail: float
    counts: dict

    @property
    def total(self):
        return self.enumerated + self.tail


def polymer_activity_sum(rho):
    """Activity sum for the toy model |b(Y)| = rho^{|Y|}, enumerated
    exhaustively up to POLYMER_MAX_SIZE with the polyomino growth-constant
    tail bound above it."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    by_size = anchored_polyominoes(POLYMER_MAX_SIZE)
    counts = {n: len(polys) for n, polys in by_size.items()}
    enumerated = sum(rho ** len(y) * math.exp(len(y))
                     for polys in by_size.values() for y in polys)
    qq = POLYOMINO_GROWTH * rho * math.e
    if qq >= 1.0:
        tail = math.inf
    else:
        n0 = POLYMER_MAX_SIZE + 1
        # sum_{n >= n0} n q^n  (n polyominoes-anchored <= n * growth^n)
        tail = qq ** n0 * (n0 - (n0 - 1) * qq) / (1.0 - qq) ** 2
    return ActivitySum(enumerated=enumerated, tail=tail, counts=counts)


def activity_threshold():
    """Largest rho for which the enumerated-plus-tail activity sum stays
    at or below 1/2."""
    hi = 1.0 / (POLYOMINO_GROWTH * math.e) - 1e-9

    def excess(r):
        return polymer_activity_sum(r).total - 0.5

    if excess(hi) < 0:
        return hi
    return brentq(excess, 1e-12, hi, xtol=1e-12)
