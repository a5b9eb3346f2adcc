"""Tests for the discretized operator layer."""

import dataclasses
import math

import numpy as np
import pytest

from sigmagap.kernels import propagator_values
from sigmagap.model import ModelParams, derive_params, solve_gap_equation
from sigmagap.regions import FieldConfig, LatticeGeometry, classify_squares
from sigmagap.operators import (
    DiscretizedOperator,
    D_decomposition,
    build_A,
    det_split_identity,
    link_block,
    log_det_n,
    log_det_n_matrix,
    operator_norm,
    propagator_factor,
    propagator_matrix,
    radial_site_matrix,
)

LAM, BIGK, BIGN = 32.0, 1.0, 10**6
M_GAP = math.sqrt(solve_gap_equation(LAM, BIGK, "exponential"))  # ~0.828


def kernel(op):
    """The kernel values of a DiscretizedOperator: weighted / w."""
    return op.weighted / op.site_weight


def make_params(bigN=BIGN):
    return ModelParams(lam=LAM, bigK=BIGK, bigN=bigN,
                       g=math.sqrt(LAM * BIGK / bigN), m=M_GAP,
                       epsilon=bigN ** -0.4, corridorM=3.0)


def random_field(geometry, rng, u_targets):
    """Gaussian field rescaled per square so lam*K*mass hits u_targets."""
    side = geometry.sites_per_side
    s = geometry.sites_per_square
    tau = rng.normal(size=(side, side))
    cfg = FieldConfig.from_tau(geometry, tau)
    u = LAM * BIGK * cfg.square_masses
    scale = np.sqrt(np.asarray(u_targets) / u)
    nb = 2 * geometry.n
    tau = (tau.reshape(nb, s, nb, s) * scale.reshape(nb, 1, nb, 1)
           ).reshape(side, side)
    return FieldConfig.from_tau(geometry, tau)


def small_field(geometry, rng, u_lo=1.0, u_hi=12.0):
    u = rng.uniform(u_lo, u_hi, size=geometry.num_squares)
    return random_field(geometry, rng, u)


def mixed_field(geometry, rng, n_large=2, u_large=60.0):
    u = rng.uniform(1.0, 12.0, size=geometry.num_squares)
    idx = rng.choice(geometry.num_squares, size=n_large, replace=False)
    u[idx] = u_large
    return random_field(geometry, rng, u)


GEO = LatticeGeometry(n=2, sites_per_square=4)  # 4x4 squares, 256 sites


class TestDiscretizedOperator:
    # the stored matrix is the weighted W^{1/2} K W^{1/2} = w K; a site
    # weight other than 1 tells the kernel values apart from it

    def test_composition_uses_weights(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        oa = DiscretizedOperator(a, 0.7)
        ob = DiscretizedOperator(b, 0.7)
        prod = DiscretizedOperator(oa.weighted @ ob.weighted, 0.7)
        # kernel composition integrates over the site measure
        np.testing.assert_allclose(kernel(prod),
                                   kernel(oa) @ (0.7 * np.eye(5)) @ kernel(ob))

    def test_trace_weighted(self):
        op = DiscretizedOperator(np.diag([0.5, 1.0, 1.5]), 0.5)
        np.testing.assert_array_equal(np.diagonal(kernel(op)), [1.0, 2.0, 3.0])
        # Tr K = sum_x K(x, x) w
        assert np.trace(op.weighted) == pytest.approx(3.0)

    def test_masked(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        left = np.array([True, False, True, False])
        right = np.array([True, True, False, False])
        op = DiscretizedOperator(a, 0.7).masked(left, right)
        np.testing.assert_array_equal(
            op.weighted, a * left[:, None] * right[None, :])
        assert op.site_weight == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscretizedOperator(np.zeros((2, 3)), 1.0)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                DiscretizedOperator(np.zeros((2, 2)), bad)


class TestBuildA:
    def test_zero_field(self):
        cfg = FieldConfig.from_tau(GEO, np.zeros((GEO.sites_per_side,) * 2))
        aop = build_A(cfg, make_params())
        assert np.all(kernel(aop.op) == 0.0)
        assert np.all(kernel(aop.a_s) == 0.0)

    def test_block_sum_exact(self):
        rng = np.random.default_rng(3)
        cfg = mixed_field(GEO, rng)
        aop = build_A(cfg, make_params())
        s, l = aop.small_sites, ~aop.small_sites
        total = (kernel(aop.a_s) + kernel(aop.op.masked(l, l))
                 + kernel(aop.op.masked(s, l)) + kernel(aop.op.masked(l, s)))
        np.testing.assert_array_equal(total, kernel(aop.op))

    def test_As_Al_orthogonal(self):
        rng = np.random.default_rng(4)
        cfg = mixed_field(GEO, rng)
        aop = build_A(cfg, make_params())
        l = ~aop.small_sites
        prod = aop.a_s.weighted @ aop.op.masked(l, l).weighted
        assert np.all(prod == 0.0)

    def test_trace_Aprime_zero(self):
        rng = np.random.default_rng(5)
        cfg = mixed_field(GEO, rng)
        aop = build_A(cfg, make_params())
        s, l = aop.small_sites, ~aop.small_sites
        a_prime = aop.op.masked(s, l).weighted + aop.op.masked(l, s).weighted
        assert abs(np.trace(a_prime)) < 1e-12

    def test_real_spectrum(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            cfg = mixed_field(GEO, rng)
            ev = np.linalg.eigvals(build_A(cfg, make_params()).op.weighted)
            assert np.abs(ev.imag).max() < 1e-8

    def test_propagator_matrix_posdef_and_symmetric(self):
        fmat = propagator_matrix(GEO, M_GAP)
        np.testing.assert_array_equal(fmat, fmat.T)
        assert np.linalg.eigvalsh(fmat).min() > -1e-12

    def test_symmetrized_same_spectrum(self):
        rng = np.random.default_rng(7)
        cfg = small_field(GEO, rng)
        params = make_params()
        ev1, ev2 = (np.sort(np.linalg.eigvals(
            build_A(cfg, params, symmetrize=sym).op.weighted).real)
            for sym in (False, True))
        np.testing.assert_allclose(ev1, ev2, atol=1e-10)


class TestRadialSiteMatrix:
    def test_matches_pairwise_loop(self):
        # 144 sites at 3 per square: the site offsets k/3 are inexact, so
        # the table and the pairwise distances agree to a few ulp
        geo = LatticeGeometry(n=2, sites_per_square=3)
        radial = lambda r: np.exp(-r) / (1.0 + r)
        x = geo.site_coordinates()
        pts = [(a, b) for a in x for b in x]
        ref = np.array([[radial(math.hypot(p[0] - q[0], p[1] - q[1]))
                         for q in pts] for p in pts])
        np.testing.assert_allclose(radial_site_matrix(geo, radial), ref,
                                   rtol=8 * np.finfo(float).eps, atol=0)


    def test_propagator_matrix_at_the_exact_mass(self):
        # at lambda = 0.5 the gap mass has digits past the 12th decimal;
        # the cached matrix must be computed at m itself
        m = derive_params(0.5, 1.0, 10 ** 4).m
        geo = LatticeGeometry(n=1, sites_per_square=2)
        np.testing.assert_array_equal(
            propagator_matrix(geo, m),
            radial_site_matrix(geo, lambda r: propagator_values(m * m, r)))


class TestPropagatorFactor:
    """F = V V^T on the numerical range of F, at criterion 11's grid
    (576 sites) and mass."""

    GEO576 = LatticeGeometry(n=4, sites_per_square=3)
    M = derive_params(1.0, 1.0, 10 ** 4).m

    def test_reproduces_F_to_rank_tolerance(self):
        f = propagator_matrix(self.GEO576, self.M)
        v = propagator_factor(self.GEO576, self.M)
        n = f.shape[0]
        tol = n * np.finfo(float).eps * np.linalg.eigvalsh(f).max()
        assert np.linalg.norm(v @ v.T - f, 2) <= tol

    def test_rank_below_half_the_sites(self):
        v = propagator_factor(self.GEO576, self.M)
        assert v.shape[0] == 576
        assert v.shape[1] < 576 // 2

    def test_read_only_and_cached(self):
        propagator_factor.cache_clear()
        v = propagator_factor(self.GEO576, self.M)
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 1.0
        assert propagator_factor(self.GEO576, self.M) is v
        info = propagator_factor.cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestOperatorNorm:
    def test_scaled_identity(self):
        op = DiscretizedOperator(-2.5 * np.eye(10), 1.0)
        assert operator_norm(op) == pytest.approx(2.5, rel=1e-8)

    def test_matches_svd(self):
        rng = np.random.default_rng(8)
        mat = rng.normal(size=(50, 50))
        op = DiscretizedOperator(mat, 1.0)
        assert operator_norm(op) == pytest.approx(
            np.linalg.svd(mat, compute_uv=False)[0], rel=1e-8)

    def test_small_field_norm_bound(self):
        # Prop 2 scale: ||A_s|| <= N^{-2/5} for small-field configurations
        rng = np.random.default_rng(11)
        params = make_params()
        for _ in range(5):
            cfg = small_field(GEO, rng)
            aop = build_A(cfg, params)
            assert operator_norm(aop.a_s) <= BIGN ** -0.4


# log det_n(1 + K) of a matrix K by each route
ROUTES = (lambda k, order: log_det_n(np.linalg.eigvals(k), order),
          log_det_n_matrix)


class TestDetReg:
    # each test runs both routes, except test_branch_is_kept: only the
    # eigenvalue route keeps the branch

    def test_zero_operator(self):
        for route in ROUTES:
            for order in (1, 2, 3):
                assert np.exp(route(np.zeros((6, 6)), order)) \
                    == pytest.approx(1.0)

    def test_rank_one(self):
        mat = np.zeros((5, 5))
        mat[0, 0] = 0.5
        for route in ROUTES:
            assert np.exp(route(mat, 2)) \
                == pytest.approx(1.5 * math.exp(-0.5), rel=1e-12)

    def test_hermitian_eigen_oracle(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        h = 0.1 * (h + h.conj().T)
        lam = np.linalg.eigvalsh(h)
        oracle = np.prod((1 + lam) * np.exp(-lam + lam ** 2 / 2))
        for route in ROUTES:
            assert np.exp(route(h, 3)) == pytest.approx(oracle, rel=1e-10)

    def test_singularity_error(self):
        for route in ROUTES:
            with pytest.raises(ArithmeticError):
                route(np.diag([-1.0, 0.2]), 2)

    def test_order_validation(self):
        for route in ROUTES:
            with pytest.raises(ValueError):
                route(np.zeros((2, 2)), 0)

    def test_matrix_route_takes_orders_one_to_three(self):
        with pytest.raises(ValueError):
            log_det_n_matrix(np.zeros((2, 2)), 4)

    def test_several_orders_from_one_lu(self, monkeypatch):
        # a tuple of orders gives each order's bits from one slogdet
        rng = np.random.default_rng(17)
        k = 0.1 * (rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)))
        singles = [log_det_n_matrix(k, n) for n in (1, 2, 3)]
        real, calls = np.linalg.slogdet, []
        monkeypatch.setattr(np.linalg, "slogdet",
                            lambda a: calls.append(a) or real(a))
        assert log_det_n_matrix(k, (3, 1, 2)) \
            == (singles[2], singles[0], singles[1])
        assert log_det_n_matrix(k, (2,)) == (singles[1],)
        assert len(calls) == 2
        for bad in ((), (1, 4)):
            with pytest.raises(ValueError):
                log_det_n_matrix(k, bad)

    def test_large_determinant_stays_finite(self):
        # det(1 + 1000 I_200) = 1001^200 overflows a float; its log does
        # not.  slogdet adds the 200 logs one at a time (within 200 eps)
        for route, rel in zip(ROUTES, (1e-15, 200 * np.finfo(float).eps)):
            val = route(1000.0 * np.eye(200), 1)
            assert val.imag == 0.0
            assert val.real == pytest.approx(200 * math.log(1001.0), rel=rel)

    def test_routes_agree_mod_2pi_i(self):
        # a non-Hermitian K whose eigenvalue logs wind once past the
        # principal branch of the LU route
        rng = np.random.default_rng(15)
        k = 0.2 * (rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40)))
        for order in (1, 2, 3):
            gap = ROUTES[0](k, order) - log_det_n_matrix(k, order)
            assert gap.real == pytest.approx(0.0, abs=1e-12)
            assert gap.imag == pytest.approx(2 * math.pi, rel=1e-12)

    def test_matrix_route_real_part_is_slogdet(self):
        # the real part at order 2 is log|det(1 + B)| - Re tr B, to the
        # last bit
        rng = np.random.default_rng(16)
        b = 0.1 * (rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)))
        _, logabs = np.linalg.slogdet(np.eye(30) + b)
        assert log_det_n_matrix(b, 2).real == logabs - np.trace(b).real

    def test_branch_is_kept(self):
        # sum of nine arguments atan(10) exceeds pi; the principal log of
        # the product would drop 4 pi i
        lam = np.linalg.eigvals(10j * np.eye(9))
        val = log_det_n(lam, 1)
        assert val.imag == pytest.approx(9 * math.atan(10.0), rel=1e-14)
        assert val.real == pytest.approx(4.5 * math.log(101.0), rel=1e-14)


class TestDetSplit:
    def test_zero_field(self):
        cfg = FieldConfig.from_tau(GEO, np.zeros((GEO.sites_per_side,) * 2))
        assert det_split_identity(cfg, make_params()) == pytest.approx(0.0, abs=1e-14)

    def test_small_field_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            cfg = small_field(GEO, rng)
            assert det_split_identity(cfg, make_params()) < 1e-8

    def test_mixed_field_residual_and_lemma7(self):
        rng = np.random.default_rng(14)
        params = make_params()
        ratios = []
        for _ in range(5):
            cfg = mixed_field(GEO, rng)
            assert det_split_identity(cfg, params) < 1e-8
            # Lemma 7 scale: |det_2^{-N/2}(1+B)| <= exp(O(1) N^{-4/5} int tau^2)
            lam = np.linalg.eigvals(build_A(cfg, params, symmetrize=True).b)
            log_det2 = np.sum(np.log(1 + lam)) - np.sum(lam)
            log_abs = -(BIGN / 2) * log_det2.real
            bound_scale = BIGN ** -0.8 * float(cfg.square_masses.sum())
            ratios.append(log_abs / bound_scale)
        fitted = max(ratios)
        assert fitted < 100.0  # the O(1) constant is genuinely O(1)


    def test_residual_is_taken_mod_2pi_i(self):
        # at g = 10 on a positive field the principal arguments of
        # det(1+iA_s) and det(1+B) add up past pi, so the principal logs
        # of the two sides of identity 1 differ by 2 pi i
        params = dataclasses.replace(make_params(), g=10.0)
        tau = mixed_field(GEO, np.random.default_rng(14)).tau
        cfg = FieldConfig.from_tau(GEO, np.abs(tau))
        aop = build_A(cfg, params)
        assert sum(log_det_n_matrix(k, 1).imag
                   for k in (1j * aop.a_s.weighted, aop.b)) > math.pi
        assert det_split_identity(cfg, params) < 1e-8

    def test_one_lu_per_matrix(self, monkeypatch):
        # 1+iA, 1+iA_s and 1+B are each factored once
        real, calls = np.linalg.slogdet, []
        monkeypatch.setattr(np.linalg, "slogdet",
                            lambda a: calls.append(a) or real(a))
        cfg = mixed_field(GEO, np.random.default_rng(14))
        assert det_split_identity(cfg, make_params()) < 1e-8
        assert len(calls) == 3

    def test_calls_no_general_eigensolver(self, monkeypatch):
        # every log is the matrix route's; criterion 05 runs the eigenvalue
        # route against it on one field per seed
        def no_eigvals(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        cfg = mixed_field(GEO, np.random.default_rng(14))
        assert det_split_identity(cfg, make_params()) < 1e-8


class TestDDecomposition:
    def test_zero_field(self):
        cfg = FieldConfig.from_tau(GEO, np.zeros((GEO.sites_per_side,) * 2))
        dp, dm, tq = D_decomposition(cfg, make_params())
        assert dp == pytest.approx(0.0, abs=1e-14)
        assert dm == pytest.approx(0.0, abs=1e-14)

    def test_pure_small_field_D_vanishes(self):
        rng = np.random.default_rng(15)
        cfg = small_field(GEO, rng, u_hi=9.0)  # strictly below N^{1/6}
        dp, dm, _ = D_decomposition(cfg, make_params())
        assert dp < 1e-12 and dm < 1e-12  # A'' = 0 when Lambda_l is empty

    def test_Dminus_bound_mixed(self):
        rng = np.random.default_rng(16)
        params = make_params()
        for _ in range(3):
            cfg = mixed_field(GEO, rng)
            _, dm, tq = D_decomposition(cfg, params)
            assert dm <= BIGN ** -0.8
            bound_scale = (BIGN ** -0.8 * params.g ** 2
                           * float(cfg.square_masses.sum()))
            assert tq <= 100.0 * bound_scale

    def test_det_modulus_identity(self):
        # |det^{-1}(1+B)| = det^{-1/2}(1+D), D = B + B* + B*B
        rng = np.random.default_rng(17)
        cfg = mixed_field(GEO, rng)
        params = make_params()
        B = build_A(cfg, params, symmetrize=True).b
        D = B + B.conj().T + B.conj().T @ B
        D = 0.5 * (D + D.conj().T)
        lhs = abs(np.exp(-np.sum(np.log(1 + np.linalg.eigvals(B)))))
        rhs = np.exp(-0.5 * np.sum(np.log(1 + np.linalg.eigvalsh(D)))).real
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestTraceProjection:
    def _random_psd(self, rng, n=30):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return a @ a.conj().T / n

    def test_random_psd_inequality(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            a = self._random_psd(rng)
            mask = rng.random(30) < 0.4
            # Tr (PAP)^3 <= Tr P A^3 P, both traces by a dense oracle
            p = np.diag(mask.astype(float))
            lhs = np.trace(np.linalg.matrix_power(p @ a @ p, 3)).real
            rhs = np.trace(p @ np.linalg.matrix_power(a, 3) @ p).real
            assert lhs <= rhs + 1e-10


class TestTraceCubeBound:
    def test_trace_cube_inequality(self):
        # |Tr A_s^3| <= ||A_s|| Tr(A_s* A_s) on small-field configurations
        rng = np.random.default_rng(21)
        params = make_params()
        for _ in range(5):
            cfg = small_field(GEO, rng)
            As = build_A(cfg, params).a_s.weighted
            tr3 = abs(np.trace(As @ As @ As))
            bound = (np.linalg.svd(As, compute_uv=False)[0]
                     * np.trace(As.conj().T @ As).real)
            assert tr3 <= bound + 1e-15


LINK_GEO = LatticeGeometry(n=4, sites_per_square=3)  # 8x8 squares, 576 sites


class TestLinkNorms:
    def test_zero_on_source_square(self):
        rng = np.random.default_rng(22)
        u = rng.uniform(1.0, 12.0, size=LINK_GEO.num_squares)
        u[LINK_GEO.square_index[(0, 0)]] = 1e-20  # effectively tau = 0 there
        cfg = random_field(LINK_GEO, rng, u)
        aop = build_A(cfg, make_params())
        assert operator_norm(link_block(aop, (0, 0), (2, 2))) < 1e-10

    def test_small_field_decay_bound(self):
        # Lemma 11 scale: ||P_D' A P_D|| <= O(1) N^{-5/12} e^{-m d}
        rng = np.random.default_rng(24)
        params = make_params()
        scale = BIGN ** (-5.0 / 12.0)
        pairs = {0.0: ((0, 0), (1, 0)),
                 2.0: ((-3, 0), (0, 0)),
                 5.0: ((-4, 0), (2, 0))}
        consts = {d: [] for d in pairs}
        for _ in range(20):
            cfg = small_field(LINK_GEO, rng)
            aop = build_A(cfg, params)
            for d, pair in pairs.items():
                nrm = operator_norm(link_block(aop, *pair))
                consts[d].append(nrm / (scale * math.exp(-params.m * d)))
        fitted = max(max(v) for v in consts.values())
        assert 1e-3 < fitted < 100.0
        # with the fitted constant, every sample obeys the bound (protocol)
        for d, vals in consts.items():
            assert max(vals) <= fitted + 1e-12

    def test_large_field_link_bound(self):
        # Eq 156 scale: ||P_D' A P_D|| <= O(1) N^{-1/2} (int_D tau^2)^{1/2} e^{-m d}
        rng = np.random.default_rng(25)
        params = make_params()
        ratios = []
        for _ in range(10):
            u = rng.uniform(1.0, 12.0, size=LINK_GEO.num_squares)
            u[LINK_GEO.square_index[(-4, 0)]] = 80.0  # an l^1 square
            cfg = random_field(LINK_GEO, rng, u)
            aop = build_A(cfg, params)
            d = 3.0
            nrm = operator_norm(link_block(aop, (-4, 0), (0, 0)))
            mass = cfg.mass_of((-4, 0))
            ratios.append(nrm / (BIGN ** -0.5 * math.sqrt(mass)
                                 * math.exp(-params.m * d)))
        assert max(ratios) < 100.0

    def test_cauchy_sum_norm(self):
        # Lemma 12, disjoint supports: ||sum_l alpha_l P_D' A P_D|| with
        # alpha_l = N^{1/6} e^{0.9 m d_l} stays O(1) N^{-1/4}
        rng = np.random.default_rng(26)
        params = make_params()
        squares = list(LINK_GEO.squares)
        fitted = []
        for _ in range(5):
            cfg = small_field(LINK_GEO, rng)
            aop = build_A(cfg, params)
            order = rng.permutation(len(squares))
            pairs = [(squares[order[2 * k]], squares[order[2 * k + 1]])
                     for k in range(8)]  # disjoint square pairs
            total = np.zeros_like(aop.op.weighted)
            for src, dst in pairs:
                d = math.hypot(max(0, abs(src[0] - dst[0]) - 1),
                               max(0, abs(src[1] - dst[1]) - 1))
                alpha = BIGN ** (1.0 / 6.0) * math.exp(0.9 * params.m * d)
                total += alpha * link_block(aop, src, dst).weighted
            nrm = operator_norm(DiscretizedOperator(total, aop.op.site_weight))
            fitted.append(nrm / BIGN ** -0.25)
        assert max(fitted) < 100.0
