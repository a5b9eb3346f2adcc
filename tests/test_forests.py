"""Forest-interpolation identities, Mayer connectivity factors, kernel
positivity under interpolation, and the polymer activity sum."""

import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import sympy

from sigmagap import cli, forests
from sigmagap.covariance import build_C0
from sigmagap.forests import (
    Forest,
    activity_threshold,
    anchored_polyominoes,
    effective_parameter,
    enumerate_forests,
    interpolated_kernel,
    mayer_connectivity,
    mayer_tree_formula,
    polymer_activity_sum,
    positivity_decomposition,
    spanning_trees,
    surviving_forests,
    verify_first_forest_formula,
    verify_forest_formula,
)
from sigmagap.kernels import CutoffSpec
from sigmagap.model import derive_params
from sigmagap.regions import LatticeGeometry

# number of forests on n labeled vertices, n = 1..8 (independently
# computed by matrix-tree / brute-force recursion)
FOREST_COUNTS = [1, 2, 7, 38, 291, 2932, 36961, 561948]


def pair_symbols(n):
    pairs = list(itertools.combinations(range(n), 2))
    return {p: sympy.Symbol(f"x_{p[0]}{p[1]}") for p in pairs}


# each closed-form partial with its test function H as a sympy expression
CLOSED_FORMS = [
    (forests.product_partial,
     lambda syms: math.prod((1 + s for s in syms), start=sympy.Integer(1))),
    (forests.exponential_partial, lambda syms: sympy.exp(sum(syms))),
    (forests.polynomial_partial,
     lambda syms: (1 + sum(syms)) ** 2 + math.prod(syms,
                                                   start=sympy.Integer(3))),
]


def dropped_two(edges):
    """The polynomial's partial with the factor 2 of its |F| = 1 term
    dropped: (1 + sum x) in place of 2(1 + sum x)."""
    right = CLOSED_FORMS[2][0](edges)  # unpatched polynomial_partial
    if len(edges) != 1:
        return right
    return lambda x: right(x) - (1.0 + sum(x.values()))


class TestForestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_forest_counts(self, n):
        assert len(enumerate_forests(range(n))) == FOREST_COUNTS[n - 1]

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125)])
    def test_cayley_spanning_trees(self, n, count):
        assert len(spanning_trees(range(n))) == n ** (n - 2) if n > 1 \
            else count
        assert len(spanning_trees(range(n))) == count

    def test_forests_are_distinct_and_acyclic(self):
        forests = enumerate_forests(range(4))
        assert len({frozenset(f) for f in forests}) == len(forests)
        for f in forests:
            Forest(tuple(range(4)), f)  # raises on a cycle

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Forest((0, 1, 2), ((0, 1), (1, 2), (0, 2)))

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Forest((0, 1), ((0, 0),))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_forests(range(9))

    def test_clusters(self):
        f = Forest((0, 1, 2, 3, 4), ((0, 1), (2, 3)))
        assert set(f.clusters()) == {frozenset({0, 1}), frozenset({2, 3}),
                                     frozenset({4})}


class TestEffectiveParameter:
    def test_inf_along_path(self):
        edges = ((0, 1), (1, 2), (2, 3))
        h = {(0, 1): 0.9, (1, 2): 0.2, (2, 3): 0.5}
        assert effective_parameter(edges, h, (0, 3)) == 0.2
        assert effective_parameter(edges, h, (2, 3)) == 0.5

    def test_disconnected_is_zero(self):
        edges = ((0, 1),)
        assert effective_parameter(edges, {(0, 1): 0.7}, (0, 2)) == 0.0

    def test_same_vertex_is_one(self):
        assert effective_parameter(((0, 1),), {(0, 1): 0.3}, (1, 1)) == 1.0


class TestForestFormula:
    """The interpolation identity: H at all arguments 1 equals the sum
    over forests of integrated mixed derivatives at the inf-rule point."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_product_function(self, n):
        assert verify_forest_formula(forests.product_partial, range(n)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exponential_function(self, n):
        assert verify_forest_formula(forests.exponential_partial,
                                     range(n)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_polynomial_function(self, n):
        assert verify_forest_formula(forests.polynomial_partial,
                                     range(n)) < 1e-8

    def test_two_labels_by_hand(self):
        # H = x^2: full sum is H(0) + int_0^1 2h dh = 0 + 1 = H(1)
        def partial(edges):
            if edges:
                return lambda x: 2.0 * x[(0, 1)]
            return lambda x: x[(0, 1)] ** 2
        assert verify_forest_formula(partial, range(2)) < 1e-12

    def test_label_guard(self):
        with pytest.raises(ValueError):
            verify_forest_formula(lambda edges: lambda x: 1.0, range(5))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_forms_match_sympy(self, n):
        # dual route: every closed form against sympy's mixed partial of
        # its H, over every forest, at seeded random points in [0, 1]
        x = pair_symbols(n)
        pairs, syms = list(x), list(x.values())
        rng = np.random.default_rng(n)
        points = [dict(zip(pairs, rng.random(len(pairs)))) for _ in range(4)]
        for closed, builder in CLOSED_FORMS:
            H = builder(syms)
            for edges in enumerate_forests(range(n)):
                # sympy.diff with no variable differentiates in the only one
                dH = sympy.diff(H, *(x[e] for e in edges)) if edges else H
                f = sympy.lambdify(syms, dH, "numpy")
                for pt in points:
                    assert closed(edges)(pt) == pytest.approx(
                        f(*pt.values()), rel=1e-12, abs=1e-12), (closed, edges)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dropped_factor_fails(self, n):
        # negative control: one wrong factor in one closed form
        assert verify_forest_formula(dropped_two, range(n)) > 1e-8

    def test_dropped_factor_fails_the_criterion(self, monkeypatch):
        size = dict(cli.PROFILES["quick"], forest_formula=((3, 3),))

        def identity_row():
            table = cli.ResultsTable("forests")
            cli.criterion_07_forest_formula(cli.RunConfig(), table, size)
            return next(r for r in table.rows
                        if r["check_id"] == "interpolation-identity")

        assert identity_row()["passed"]
        monkeypatch.setattr(forests, "polynomial_partial", dropped_two)
        assert not identity_row()["passed"]


class TestFirstForestFormula:
    """Neighbor-link specialization: only forests whose clusters match the
    extended large-field components survive, i.e. unions of spanning trees
    of each component's neighbor graph."""

    def test_single_pair_component(self):
        assert verify_first_forest_formula([0, 1], [(0, 1)], [{0, 1}])

    def test_two_separated_pair_components(self):
        assert verify_first_forest_formula(
            [0, 1, 2, 3], [(0, 1), (2, 3)], [{0, 1}, {2, 3}])

    def test_l_shaped_component_is_a_triangle(self):
        # three squares in an L touch pairwise (corner contact counts),
        # so the neighbor graph is a triangle with 3 spanning trees
        survivors = surviving_forests([0, 1, 2],
                                      [(0, 1), (1, 2), (0, 2)],
                                      [{0, 1, 2}])
        assert len(survivors) == 3
        assert all(len(f) == 2 for f in survivors)
        assert verify_first_forest_formula(
            [0, 1, 2], [(0, 1), (1, 2), (0, 2)], [{0, 1, 2}])

    def test_path_component(self):
        assert verify_first_forest_formula(
            [0, 1, 2], [(0, 1), (1, 2)], [{0, 1, 2}])

    def test_unreachable_component_fails(self):
        # a claimed 3-square component whose neighbor graph cannot
        # connect it: the identity cannot hold and the check says so
        assert not verify_first_forest_formula([0, 1, 2], [(0, 1)],
                                               [{0, 1, 2}])

    def test_mixed_components(self):
        # triangle component plus an isolated square
        assert verify_first_forest_formula(
            [0, 1, 2, 3], [(0, 1), (1, 2), (0, 2), (2, 3)],
            [{0, 1, 2}, {3}])

    def test_nine_squares_exceed_the_guard(self):
        squares = list(range(9))
        with pytest.raises(ValueError, match="toy-region guard"):
            verify_first_forest_formula(
                squares, list(itertools.pairwise(squares)), [set(squares)])

    def test_guard_reads_the_label_limit(self, monkeypatch):
        # the guard is FOREST_MAX_LABELS, not a copy of its value
        monkeypatch.setattr(forests, "FOREST_MAX_LABELS", 2)
        with pytest.raises(ValueError, match="at most 2 squares"):
            verify_first_forest_formula([0, 1, 2], [(0, 1), (1, 2)],
                                        [{0, 1, 2}])


def random_psd(rng, size):
    b = rng.normal(size=(size, size))
    return b @ b.T


def random_forest(rng, labels):
    edges = []
    pool = list(itertools.combinations(labels, 2))
    rng.shuffle(pool)
    for e in pool:
        try:
            Forest(tuple(labels), tuple(edges) + (e,))
        except ValueError:
            continue
        if rng.random() < 0.6:
            edges.append(e)
    return tuple(edges)


class TestPositivityDecomposition:
    def test_reconstruction_and_positivity_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            nblocks = rng.integers(2, 5)
            labels = rng.integers(0, nblocks, size=rng.integers(4, 9))
            k = random_psd(rng, len(labels))
            edges = random_forest(rng, range(nblocks))
            h = {e: float(rng.random()) for e in edges}
            terms = positivity_decomposition(k, labels, edges, h)
            scale = np.linalg.norm(k, 2)
            recon = sum(w * t for w, t in terms)
            direct = interpolated_kernel(k, labels, edges, h)
            assert np.abs(recon - direct).max() < 1e-10 * max(scale, 1.0)
            for w, t in terms:
                assert w > 0.0
                assert np.linalg.eigvalsh(t).min() > -1e-10 * max(scale, 1.0)
            assert np.linalg.eigvalsh(direct).min() > -1e-10 * max(scale, 1.0)

    def test_weights_sum_to_largest_scale(self):
        # weights telescope to 1 (h_0=0 up to the final level at 1)
        rng = np.random.default_rng(3)
        k = random_psd(rng, 6)
        labels = np.array([0, 0, 1, 1, 2, 2])
        edges = ((0, 1), (1, 2))
        h = {(0, 1): 0.25, (1, 2): 0.75}
        terms = positivity_decomposition(k, labels, edges, h)
        assert abs(sum(w for w, _ in terms) - 1.0) < 1e-14

    def test_trivial_forest_keeps_diagonal_blocks(self):
        rng = np.random.default_rng(5)
        k = random_psd(rng, 4)
        labels = np.array([0, 0, 1, 1])
        direct = interpolated_kernel(k, labels, (), {})
        assert np.allclose(direct[:2, 2:], 0.0)
        assert np.allclose(direct[:2, :2], k[:2, :2])

    def test_interpolated_covariance_stays_psd(self):
        # the same inf-rule interpolation applied to the actual free
        # covariance on a small grid, blocked by unit square
        params = derive_params(32.0, 1.0, 10 ** 6, corridor_override=2.0)
        geo = LatticeGeometry(n=2, sites_per_square=2)
        op = build_C0(params, geo, CutoffSpec(c=1.0))
        k = op.weighted
        labels = geo.widen(np.arange(geo.num_squares))
        rng = np.random.default_rng(11)
        for _ in range(20):
            edges = random_forest(rng, range(geo.num_squares))
            h = {e: float(rng.random()) for e in edges}
            interp = interpolated_kernel(k, labels, edges, h)
            assert np.linalg.eigvalsh(interp).min() > -1e-12


def complete_pairs(q):
    return list(itertools.combinations(range(q), 2))


class TestMayerConnectivity:
    def test_small_values(self):
        assert mayer_connectivity([], 1) == 1.0
        assert mayer_connectivity([(0, 1)], 2) == -1.0
        assert mayer_connectivity(complete_pairs(3), 3) == 2.0

    @pytest.mark.parametrize("q", range(1, 7))
    def test_complete_graph_factorial(self, q):
        expected = (-1.0) ** (q - 1) * math.factorial(q - 1)
        assert mayer_connectivity(complete_pairs(q), q) == expected

    def test_disconnected_overlap_gives_zero(self):
        assert mayer_connectivity([(0, 1)], 3) == 0.0

    def test_guard(self):
        with pytest.raises(ValueError):
            mayer_connectivity(complete_pairs(9), 9)


class TestMayerTreeFormula:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_complete_graph(self, q):
        direct = mayer_connectivity(complete_pairs(q), q)
        tree = mayer_tree_formula(complete_pairs(q), q, 12)
        assert abs(tree - direct) < 1e-6

    @pytest.mark.parametrize("pairs,q", [
        ([(0, 1), (1, 2)], 3),                      # path
        ([(0, 1), (1, 2), (2, 3)], 4),              # path
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),      # cycle
        ([(0, 1), (0, 2), (0, 3)], 4),              # star
        ([(0, 1), (1, 2), (2, 3), (0, 2)], 4),      # chord
    ])
    def test_sparse_graphs(self, pairs, q):
        direct = mayer_connectivity(pairs, q)
        tree = mayer_tree_formula(pairs, q, 12)
        assert abs(tree - direct) < 1e-6

    def test_guard(self):
        with pytest.raises(ValueError):
            mayer_tree_formula(complete_pairs(7), 7, 12)


class TestActivitySum:
    def test_anchored_polyomino_counts(self):
        counts = {n: len(v) for n, v in anchored_polyominoes(6).items()}
        assert counts == {1: 1, 2: 4, 3: 18, 4: 76, 5: 315, 6: 1296}

    def test_dominoes_through_fixed_square(self):
        assert len(anchored_polyominoes(2)[2]) == 4

    def test_monotone_in_rho(self):
        vals = [polymer_activity_sum(r).total for r in (0.01, 0.02, 0.03)]
        assert vals[0] < vals[1] < vals[2]

    def test_small_rho_converges(self):
        report = polymer_activity_sum(0.01)
        assert report.total <= 0.5
        assert report.tail < 1e-3 * report.enumerated

    def test_tail_diverges_past_growth_radius(self):
        report = polymer_activity_sum(0.1)
        assert math.isinf(report.tail)
        assert report.total > 0.5

    def test_threshold(self):
        rho = activity_threshold()
        assert 0.01 < rho < 1.0 / (4.65 * math.e)
        at = polymer_activity_sum(rho).total
        assert abs(at - 0.5) < 1e-8
        assert polymer_activity_sum(rho * 1.01).total > 0.5

    def test_enumerated_sum_over_counts(self):
        # sum_Y rho^|Y| e^|Y| = sum_n count_n (rho e)^n over the frozen
        # anchored polyomino counts
        rho = 0.03
        counts = {1: 1, 2: 4, 3: 18, 4: 76, 5: 315, 6: 1296}
        report = polymer_activity_sum(rho)
        expected = sum(c * (rho * math.e) ** n for n, c in counts.items())
        assert report.enumerated == pytest.approx(expected, rel=1e-14)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            anchored_polyominoes(7)


def test_cli_import_leaves_out_sympy_and_interpolate(tmp_path):
    # no sigmagap module uses sympy or scipy.interpolate: a whole quick
    # battery in a fresh process, import included, loads neither
    code = ("import sys; from sigmagap.cli import main; "
            "code = main(['accept-all', '--profile', 'quick', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, sorted(m for m in "
            "('sympy', 'scipy.interpolate') if m in sys.modules))")
    src = str(pathlib.Path(forests.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert out.stdout.splitlines()[-1] == "0 []"
