"""Covariance engine: C0, C_gamma (two routes), Z_gamma, the splitting
corrections deltaC_1..4, Gaussian sampling, and the assembled integrand
bound with its single-square normalization."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sigmagap import covariance, operators
from sigmagap.covariance import (
    build_C0,
    build_Cgamma,
    build_deltaC,
    component_log_z,
    compute_Zgamma,
    damping_report,
    c0_root,
    padded_geometry,
    single_square_normalization,
)
from sigmagap.kernels import CutoffSpec
from sigmagap.model import derive_params
from sigmagap.operators import (DiscretizedOperator, build_A, gaussian_root,
                                log_det_n, log_det_n_matrix,
                                propagator_matrix)
from sigmagap.regions import (
    FieldConfig,
    LatticeGeometry,
    build_regions,
    classify_squares,
)

LAM, BIGK, BIGN = 32.0, 1.0, 10 ** 6
CUT = CutoffSpec(c=1.0)


def kernel(op):
    """The kernel values of a DiscretizedOperator: weighted / w."""
    return op.weighted / op.site_weight


def make_params(bigN=BIGN, corridor=2.0, lam=LAM, bigK=BIGK):
    return derive_params(lam, bigK, bigN, corridor_override=corridor)


def field_with_l_square(geometry, u, corner=(0, 0), lam=LAM, bigK=BIGK,
                        background=None):
    """Zero (or given) background with one square pumped to scaled mass u."""
    side = geometry.sites_per_side
    s = geometry.sites_per_square
    tau = np.zeros((side, side)) if background is None else background.copy()
    bi = (corner[0] + geometry.n) * s
    bj = (corner[1] + geometry.n) * s
    tau[bi:bi + s, bj:bj + s] = np.sqrt(u / (lam * bigK))
    return FieldConfig.from_tau(geometry, tau)


def setup_single(u=50.0, sites=3, corridor=2.0, params=None):
    params = params or make_params(corridor=corridor)
    geo = LatticeGeometry(n=2, sites_per_square=sites)
    fld = field_with_l_square(geo, u)
    assign = classify_squares(fld, params, geo)
    regions = build_regions(assign, geo, corridorM=params.corridorM)
    return params, geo, fld, assign, regions


def padded_terms(dc, params, geometry, regions):
    """deltaC_1..deltaC_4 as weighted matrices on the pad-2 grid: d1 and d2
    widened from their Lambda blocks by zeros, d3 (T = 1 + pi - S P_gamma S
    off Lambda x Lambda) and d4 = eps S P_gamma S formed here from the
    assembly, S P_gamma S as the full-grid product S[:, gamma] S[gamma, :]."""
    asm = covariance._assembly(params, geometry, CUT, pad=2)
    n, sp = asm.nsite, asm.s_plus
    lam = np.flatnonzero(asm.geo.site_mask(geometry.squares))
    gi = np.flatnonzero(asm.geo.site_mask(regions.gamma))
    spgs = sp[:, gi] @ sp[gi, :]
    d3 = asm.pi_w - spgs
    d3.flat[::n + 1] += 1.0
    d3[np.ix_(lam, lam)] = 0.0
    out = []
    for block in (dc.d1_lambda, dc.d2_lambda):
        mat = np.zeros((n, n))
        mat[np.ix_(lam, lam)] = block
        out.append(mat)
    return out + [d3, params.epsilon * spgs]


def fixed_term(asm):
    """F = S U^{-1} S - 1 - S (U^{-1} - 1) S from the U^{-1} products,
    recomputed rather than read from the assembly's cache."""
    sp, uinv_w = asm.s_plus, asm.uinv_w
    eye = np.eye(asm.nsite)
    return sp @ (uinv_w @ sp) - eye - sp @ ((uinv_w - eye) @ sp)


def full_grid_residual(params, geometry, regions, fixed):
    """The entrywise residual of the splitting identity as build_deltaC
    formed it on the whole pad-2 grid before it moved to the Lambda block
    (S P_gamma S on the padded grid, d1 and d2 on Lambda x Lambda, d3 and
    d4 padded, subtracted in that order), with |U^{-1} U - 1|_max beside
    it: build_deltaC raised exactly when their max exceeded
    SPLIT_IDENTITY_TOL.  fixed is fixed_term of the assembly."""
    asm = covariance._assembly(params, geometry, CUT, pad=2)
    eps, n, sp = params.epsilon, asm.nsite, asm.s_plus
    inner = asm.geo.site_mask(geometry.squares).astype(float)
    sm, lm = (asm.geo.site_mask(c).astype(float)
              for c in (regions.lambda_s, regions.lambda_l))
    gi = np.flatnonzero(asm.geo.site_mask(regions.gamma))
    spgs = sp[:, gi] @ sp[gi, :]
    t = asm.pi_w - spgs
    t.flat[::n + 1] += 1.0
    si, li = sm * inner, lm * inner  # d1 and d2 lived on Lambda x Lambda
    d1 = -(spgs * np.outer(si, si))
    d2 = (np.outer(li, si + li) + np.outer(si, li)) * t
    d3 = t * (1.0 - np.outer(inner, inner))
    res = (eps - 1.0) * spgs + fixed - asm.pi_w * np.outer(sm, sm)
    res = res - d1 - d2 - d3 - eps * spgs
    res.flat[::n + 1] += lm + (1.0 - inner)
    return (float(np.abs(res).max()),
            float(np.abs(asm.uinv_w @ asm.u_w - np.eye(n)).max()))


# squares of the pad-2 belt around the n = 2 Lambda (squares -2..1 per
# axis): one beside it, one at its corner
BELT = ((2, 0), (-3, -3))


def region_mutants(regions):
    """(name, regions) with one square of lambda_s or lambda_l removed,
    added or moved: moved into the other set (a relabelling, which keeps
    the partition), onto a square the other set holds, or onto the belt,
    and added from the other set or on the belt."""
    out = []
    for label, other in (("lambda_s", "lambda_l"), ("lambda_l", "lambda_s")):
        own, oth = getattr(regions, label), getattr(regions, other)
        sq, taken = min(own), min(oth)
        out += [(f"{label} remove", {label: own - {sq}}),
                (f"{label} relabel", {label: own - {sq}, other: oth | {sq}}),
                (f"{label} add {taken}", {label: own | {taken}}),
                (f"{label} move onto {taken}",
                 {label: (own - {sq}) | {taken}})]
        for belt in BELT:
            out += [(f"{label} add {belt}", {label: own | {belt}}),
                    (f"{label} move onto {belt}",
                     {label: (own - {sq}) | {belt}})]
    return [(name, dataclasses.replace(regions, **kw)) for name, kw in out]


def site_coordinates(geometry):
    """(nsite, 2) coordinates, flat index = ix * side + iy."""
    x = geometry.site_coordinates()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def site_gamma_distance(grid, regions):
    coords = site_coordinates(grid)
    d = np.full(len(coords), np.inf)
    for (i, j) in regions.gamma:
        dx = np.maximum(0.0, np.abs(coords[:, 0] - (i + 0.5)) - 0.5)
        dy = np.maximum(0.0, np.abs(coords[:, 1] - (j + 0.5)) - 0.5)
        d = np.minimum(d, np.hypot(dx, dy))
    return d


class TestBuildC0:
    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_nonpositive_cutoff_rejected(self, c):
        geo = LatticeGeometry(n=2, sites_per_square=3)
        with pytest.raises(ValueError, match="c > 0"):
            build_C0(make_params(), geo, CutoffSpec(c=c))

    def test_spectrum_in_unit_interval(self):
        params = make_params()
        geo = LatticeGeometry(n=2, sites_per_square=3)
        ev = np.linalg.eigvalsh(build_C0(params, geo, CUT).weighted)
        assert ev.min() > 0.0
        assert ev.max() <= 1.0 + 1e-9

    def test_symmetry(self):
        params = make_params()
        geo = LatticeGeometry(n=2, sites_per_square=3)
        mat = kernel(build_C0(params, geo, CUT))
        assert np.abs(mat - mat.T).max() < 1e-12

    def test_kernel_matrix_is_the_assembly_over_w(self):
        # c0_root draws from c0_w / w: build_C0's kernel values must keep
        # those bits
        params = make_params()
        geo = LatticeGeometry(n=2, sites_per_square=3)
        asm = covariance._assembly(params, geo, CUT, pad=0)
        c0 = build_C0(params, geo, CUT)
        assert c0.weighted is asm.c0_w
        np.testing.assert_array_equal(kernel(c0), asm.c0_w / asm.w)

    def test_c0_alone_forms_no_inverse(self):
        # U^{-1}, the splitting identity's fixed term and the C0 root are
        # formed on first read of the cached assembly
        params = make_params()
        geo = LatticeGeometry(n=1, sites_per_square=3)
        covariance._assembly_cached.cache_clear()
        c0 = build_C0(params, geo, CUT)
        asm = covariance._assembly(params, geo, CUT, pad=0)
        lazy = {"uinv_w", "split_fixed", "c0_root"}
        assert not lazy & set(vars(asm))
        root = covariance.c0_root(params, geo, CUT)
        assert lazy & set(vars(asm)) == {"c0_root"}
        assert np.array_equal(root, covariance.gaussian_root(kernel(c0)))

    def test_exponential_decay_fitted(self):
        # |C0(x,y)| <= O(1) e^{-2m|x-y|}; the fitted constant must be
        # modest and stable under grid refinement
        params = make_params()
        fitted = {}
        for s in (3, 4):
            geo = LatticeGeometry(n=3, sites_per_square=s)
            c0 = build_C0(params, geo, CUT)
            coords = site_coordinates(geo)
            diff = coords[:, None, :] - coords[None, :, :]
            r = np.hypot(diff[..., 0], diff[..., 1])
            mask = r >= 1.0
            fitted[s] = float(
                (np.abs(kernel(c0)) * np.exp(2 * params.m * r))[mask].max())
        assert fitted[3] < 2.0
        assert 1 / 3 < fitted[4] / fitted[3] < 3

    @pytest.mark.parametrize("routes", ["direct", "both"])
    def test_too_coarse_grid_raises(self, routes):
        # at 2 sites per square the compact-support kernel's discrete
        # spectrum pokes above the (1-eps)^{-1} floor at N = 10^6; the
        # gamma-block Cholesky catches it without the n x n inverse
        params, geo, fld, assign, regions = setup_single(sites=2)
        with pytest.raises(ArithmeticError, match="floored quadratic form"):
            build_Cgamma(params, geo, CUT, regions, pad=2, routes=routes)


def square_site_mask(geometry, corner):
    """Sites of one square, sliced by hand out of the side x side grid."""
    s = geometry.sites_per_square
    bi, bj = corner[0] + geometry.n, corner[1] + geometry.n
    mask = np.zeros((geometry.sites_per_side,) * 2, dtype=bool)
    mask[bi * s:(bi + 1) * s, bj * s:(bj + 1) * s] = True
    return mask.reshape(-1)


class TestRegionSiteMask:
    def test_matches_the_union_of_square_masks(self):
        # LatticeGeometry.site_mask on random corner sets, some squares
        # outside the 2n x 2n grid, which are dropped
        geo = LatticeGeometry(n=3, sites_per_square=3)
        rng = np.random.default_rng(21)
        dropped = 0
        for _ in range(20):
            corners = {tuple(int(v) for v in c)
                       for c in rng.integers(-5, 5, size=(rng.integers(0, 30),
                                                          2))}
            inside = [c for c in corners
                      if -3 <= c[0] < 3 and -3 <= c[1] < 3]
            dropped += len(corners) - len(inside)
            union = np.zeros(geo.sites_per_side ** 2, dtype=bool)
            for c in inside:
                union |= square_site_mask(geo, c)
            mask = geo.site_mask(corners)
            assert mask.dtype == bool
            assert np.array_equal(mask, union)
        assert dropped > 0

    def test_empty_and_all_outside(self):
        geo = LatticeGeometry(n=2, sites_per_square=3)
        assert not geo.site_mask([]).any()
        assert not geo.site_mask([(2, 0), (-3, 1), (0, 5)]).any()
        assert geo.site_mask([]).shape == (geo.sites_per_side ** 2,)


class TestBuildCgamma:
    def test_empty_gamma_reduces_to_C0(self):
        params = make_params()
        geo = LatticeGeometry(n=2, sites_per_square=3)
        fld = FieldConfig.from_tau(geo, np.zeros((12, 12)))
        assign = classify_squares(fld, params, geo)
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)
        assert np.abs(kernel(covset.Cgamma) - kernel(covset.C0)).max() < 1e-10
        assert len(covset.component_corrections) == 0

    def test_routes_agree(self):
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)
        assert covset.route_residual < 1e-8
        assert covset.neumann_terms > 50

    def test_closed_form_matches_the_inverse_of_the_form(self):
        # routes="direct" against the n x n inverse of the defining form
        # S (U^{-1} - (1-eps) P_gamma) S, computed here
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                              routes="direct")
        asm = covariance._assembly(params, geo, CUT, pad=2)
        g = asm.geo.site_mask(regions.gamma)
        assert 0 < g.sum() < asm.nsite
        form = asm.s_plus @ (np.linalg.inv(asm.u_w)
                             - np.diag((1.0 - params.epsilon) * g)) \
            @ asm.s_plus
        gap = np.abs(covset.Cgamma.weighted - np.linalg.inv(form)).max()
        assert gap / asm.w <= covariance.ROUTE_AGREE_TOL
        assert np.isnan(covset.route_residual)
        assert covset.component_corrections == []

    @pytest.mark.parametrize("fault", ["half-eps", "dropped-site"])
    def test_broken_closed_form_fails_route_gate(self, monkeypatch, fault):
        # negative control: the closed form alone built with eps/2, or
        # with one gamma site missing from B and K; the n x n inverse and
        # the series stay as they are
        real = covariance._woodbury_factor

        def broken(asm, gmask, eps):
            if fault == "half-eps":
                return real(asm, gmask, eps / 2)
            out = gmask.copy()
            out[np.flatnonzero(gmask)[0]] = False
            return real(asm, out, eps)

        monkeypatch.setattr(covariance, "_woodbury_factor", broken)
        params, geo, fld, assign, regions = setup_single()
        with pytest.raises(ArithmeticError, match="covariance routes disagree"):
            build_Cgamma(params, geo, CUT, regions, pad=2)

    def test_perturbed_inverse_fails_route_gate(self, monkeypatch):
        # negative control for the other dual route: the n x n inverse of
        # the form off by 1e-6 relative; the assembly's U^{-1} is formed
        # first, so its own Cholesky inverse stays exact
        params, geo, fld, assign, regions = setup_single()
        covariance._assembly(params, geo, CUT, pad=2).uinv_w
        real = covariance._cholesky_inverse
        monkeypatch.setattr(covariance, "_cholesky_inverse",
                            lambda chol: real(chol) * (1.0 + 1e-6))
        with pytest.raises(ArithmeticError, match="covariance routes disagree"):
            build_Cgamma(params, geo, CUT, regions, pad=2)

    def test_truncated_series_fails_route_gate(self, monkeypatch):
        # negative control: a Neumann series stopped at a 1e-3 tail
        monkeypatch.setattr(covariance, "NEUMANN_TOL", 1e-3)
        params, geo, fld, assign, regions = setup_single()
        with pytest.raises(ArithmeticError, match="covariance routes disagree"):
            build_Cgamma(params, geo, CUT, regions, pad=2)

    @pytest.mark.parametrize("routes", ["direct", "both"])
    def test_lazy_values_keep_the_eager_bits(self, routes):
        # the closed form as it was formed before it moved into the set,
        # written out here: K, its Cholesky, H = L^{-1} B^T, H^T H, then C0
        # plus it, symmetrized
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2, routes=routes)
        asm = covariance._assembly(params, geo, CUT, pad=2)
        idx = np.flatnonzero(asm.geo.site_mask(regions.gamma))
        k = (np.eye(len(idx)) / (1.0 - params.epsilon)
             - asm.u_w[np.ix_(idx, idx)])
        half = np.linalg.solve(np.linalg.cholesky(k),
                               (asm.s_minus @ asm.u_w[:, idx]).T)
        corr = half.T @ half
        cg_w = asm.c0_w + corr
        cg_w = 0.5 * (cg_w + cg_w.T)
        assert np.array_equal(covset.Cgamma_correction.weighted, corr)
        assert np.array_equal(covset.Cgamma.weighted, cg_w)
        assert covset.Cgamma.site_weight == asm.w

    @pytest.fixture
    def no_product(self, monkeypatch):
        """The n x n closed-form product raises when it is formed."""
        def raising(*args):
            raise AssertionError("closed-form product formed")

        monkeypatch.setattr(covariance, "_woodbury_product", raising)

    def test_direct_route_forms_no_Cgamma(self, no_product):
        # the set, Z_gamma and the damping report must not need the
        # product, and the first read must form it
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                              routes="direct")
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        assert compute_Zgamma(covset, regions) > 1.0
        rep = damping_report(fld, params, regions, covset, dc, assign)
        assert np.isfinite(rep.log_value)
        with pytest.raises(AssertionError, match="product formed"):
            covset.Cgamma
        with pytest.raises(AssertionError, match="product formed"):
            covset.Cgamma_correction

    def test_positivity_check_stays_in_build(self, no_product):
        # a floored form that is not PD raises the positivity error from
        # build_Cgamma itself, not from the product at a first read
        params, geo, fld, assign, regions = setup_single(sites=2)
        with pytest.raises(ArithmeticError,
                           match="floored quadratic form not PD"):
            build_Cgamma(params, geo, CUT, regions, pad=2, routes="direct")

    def test_positive_definite_and_above_C0(self):
        # C_gamma^{-1} <= C0^{-1}, so C_gamma >= C0 > 0
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)
        ev_g = np.linalg.eigvalsh(covset.Cgamma.weighted)
        assert ev_g.min() > 0.0
        diff = np.linalg.eigvalsh(covset.Cgamma.weighted - covset.C0.weighted)
        assert diff.min() > -1e-10

    def test_single_component_envelope(self):
        # |C^gamma(x,y)| <= O(1) N^{2/5} e^{-2m(d(x,gamma)+d(y,gamma))}
        fitted = {}
        for s in (3, 4):
            params, geo, fld, assign, regions = setup_single(sites=s)
            covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                                  routes="direct")
            d = site_gamma_distance(covset.grid, regions)
            env = (np.abs(kernel(covset.Cgamma_correction))
                   * np.exp(2 * params.m * (d[:, None] + d[None, :])))
            fitted[s] = float(env.max()) / params.bigN ** 0.4
        assert fitted[3] < 0.2
        assert 1 / 3 < fitted[4] / fitted[3] < 3

    def test_corridor_suppression_at_full_M(self):
        # with the un-overridden corridor M = (2/m) ln N the correction in
        # Lambda - Gamma is below O(1) N^{-18/5}; N is kept small so the
        # full corridor fits on a desk-size lattice
        fitted = {}
        for bigN, n_lat in ((4, 5), (16, 8)):
            params = derive_params(LAM, BIGK, bigN)
            geo = LatticeGeometry(n=n_lat, sites_per_square=2)
            u = 0.5 * (bigN ** (1 / 6) + 1.25 * bigN ** (2 / 6))
            fld = field_with_l_square(geo, u)
            assign = classify_squares(fld, params, geo)
            assert (assign.labels > 0).sum() == 1
            regions = build_regions(assign, geo, corridorM=params.corridorM)
            covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                                  routes="both" if bigN == 4 else "direct")
            grid = covset.grid
            outside = (grid.site_mask(geo.squares)
                       & ~grid.site_mask(regions.big_gamma))
            assert outside.sum() > 0
            sup = np.abs(kernel(covset.Cgamma_correction)[
                np.ix_(outside, outside)]).max()
            fitted[bigN] = float(sup) / bigN ** (-18 / 5)
        assert fitted[4] < 0.1
        assert fitted[16] < 0.1


class TestZgamma:
    def test_empty_gamma(self):
        params = make_params()
        geo = LatticeGeometry(n=2, sites_per_square=3)
        fld = FieldConfig.from_tau(geo, np.zeros((12, 12)))
        assign = classify_squares(fld, params, geo)
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)
        assert abs(compute_Zgamma(covset, regions) - 1.0) < 1e-10

    def test_lower_and_volume_bounds(self):
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)
        z = compute_Zgamma(covset, regions)
        assert z >= 1.0
        per_square = np.log(z) / len(regions.gamma)
        assert 0.0 < per_square < 3.0

    def test_two_component_factorization(self):
        # distinct components are separated by more than the compact
        # kernel's range, so Z factorizes exactly
        params = make_params()
        geo = LatticeGeometry(n=4, sites_per_square=2)
        big4 = derive_params(LAM, BIGK, 4)  # large eps so s=2 grids invert
        fld = field_with_l_square(geo, 1.5, corner=(-4, -4), lam=LAM)
        tau = fld.tau.copy()
        fld2 = field_with_l_square(geo, 1.6, corner=(3, 3), lam=LAM,
                                   background=tau)
        assign = classify_squares(fld2, big4, geo)
        assert (assign.labels > 0).sum() == 2
        regions = build_regions(assign, geo, corridorM=2.0)
        assert len(regions.components) == 2
        covset = build_Cgamma(big4, geo, CUT, regions, pad=2)
        z = compute_Zgamma(covset, regions)
        log_parts = [component_log_z(covset, cmask)
                     for cmask in covset.component_masks]
        assert abs(z - np.exp(sum(log_parts))) / z < 1e-8

    def test_determinant_route_matches_eigenvalues(self):
        # the gamma-block determinant against the generalized eigenvalues
        # of the whole (C_gamma, C0) pencil
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)
        z = compute_Zgamma(covset, regions)
        mu = scipy.linalg.eigh(covset.Cgamma.weighted, covset.C0.weighted,
                               eigvals_only=True)
        log_eig = 0.5 * float(np.sum(np.log(mu)))
        assert abs(np.log(z) - log_eig) < 1e-8 * max(1.0, abs(log_eig))

    @staticmethod
    def _cholesky_gap(regions_and_sets):
        """Largest relative gap of Z_gamma (from the gamma-block Cholesky)
        to exp(component_log_z) on the gamma mask (one LU of the block)."""
        gaps = []
        for regions, covset in regions_and_sets:
            z = compute_Zgamma(covset, regions)
            lu = np.exp(component_log_z(
                covset, covset.grid.site_mask(regions.gamma)))
            gaps.append(abs(z - lu) / lu)
        return max(gaps)

    def _sets(self):
        params, geo, ensemble = TestDampingBound._ensemble(6, seed=7)
        out = []
        for fld, assign in ensemble:
            regions = build_regions(assign, geo, corridorM=params.corridorM)
            out.append((regions, build_Cgamma(params, geo, CUT, regions,
                                              pad=2, routes="direct")))
        params, geo, fld, assign, regions = setup_single()
        out.append((regions, build_Cgamma(params, geo, CUT, regions, pad=2,
                                          routes="direct")))
        return out

    def test_cholesky_route_matches_the_block_determinant(self):
        assert self._cholesky_gap(self._sets()) <= 1e-12

    def test_dropped_eps_term_fails_the_cholesky_route(self, monkeypatch):
        # negative control: -|gamma|/2 log(1-eps) left out of log Z_gamma
        sets = self._sets()
        monkeypatch.setattr(np, "log1p", lambda x: 0.0 * x)
        assert self._cholesky_gap(sets) > 1e-12

    @pytest.mark.parametrize("which", ["gamma", "component"])
    def test_moved_site_fails_the_route_gate(self, monkeypatch, which):
        # one boundary site of the mask moved by one; translating the
        # whole mask would not show, since the kernel block is translation
        # invariant
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)

        def moved(mask):
            out = mask.copy()
            i = np.flatnonzero(mask)[0]
            out[i], out[i - 1] = False, True
            return out

        if which == "gamma":
            real = LatticeGeometry.site_mask
            monkeypatch.setattr(LatticeGeometry, "site_mask",
                                lambda grid, corners: moved(real(grid,
                                                                 corners)))
        else:
            covset.component_masks[0] = moved(covset.component_masks[0])
        with pytest.raises(ArithmeticError, match="disagree"):
            compute_Zgamma(covset, regions)

    def test_scaled_component_correction_fails_the_eigenvalue_route(self):
        # negative control for the per-component generalized eigenvalues:
        # one C^{gamma_i} off by 1e-6 relative
        params, geo, fld, assign, regions = setup_single()
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)
        corr = covset.component_corrections[0]
        covset.component_corrections[0] = DiscretizedOperator(
            corr.weighted * (1.0 + 1e-6), corr.site_weight)
        with pytest.raises(ArithmeticError, match="generalized-eigenvalue "
                           "and determinant routes disagree"):
            compute_Zgamma(covset, regions)


class TestDeltaC:
    def test_identity_residual(self):
        params, geo, fld, assign, regions = setup_single()
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        assert dc.identity_residual < 1e-10

    def test_cached_term_keeps_the_bits(self):
        # d1, d2, d4 and the residual written out here in build_deltaC's
        # order, with the fixed term F - pi, F = S U^{-1} S - 1
        # - S (U^{-1} - 1) S, recomputed, not read from cache: one copy of
        # F - pi, minus P_s pi P_s, plus P_l, plus pi - G - d1 - d2 on
        # Lambda x Lambda, G = S[Lambda, gamma] S[Lambda, gamma]^T
        params, geo, fld, assign, regions = setup_single()
        covariance._assembly_cached.cache_clear()
        asm = covariance._assembly(params, geo, CUT, pad=2)
        assert "split_fixed" not in vars(asm)
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        split_fixed = asm.split_fixed
        again = build_deltaC(params, geo, CUT, regions, pad=2)
        assert asm.split_fixed is split_fixed
        eps, n, sp = params.epsilon, asm.nsite, asm.s_plus

        def mask(corners):
            return asm.geo.site_mask(corners).astype(float)

        g, sm, lm = (mask(regions.gamma), mask(regions.lambda_s),
                     mask(regions.lambda_l))
        gi = np.flatnonzero(g)
        inner = asm.geo.site_mask(geo.squares)
        lam = np.flatnonzero(inner)
        lam_ix = np.ix_(lam, lam)
        k2 = len(lam)
        eye = np.eye(n)
        s_lg = sp[np.ix_(lam, gi)]
        g_l = s_lg @ s_lg.T
        assert np.array_equal(g_l, g_l.T)
        pi_g = asm.pi_w[lam_ix] - g_l
        t = pi_g.copy()
        t.flat[::k2 + 1] += 1.0
        s_l, l_l = sm[lam], lm[lam]
        d = [-(g_l * np.outer(s_l, s_l)),
             (np.outer(l_l, s_l + l_l) + np.outer(s_l, l_l)) * t, eps * g_l]
        fixed = fixed_term(asm)
        resid = (fixed - asm.pi_w) - asm.pi_w * np.outer(sm, sm)
        resid.flat[::n + 1] += lm
        resid[lam_ix] += pi_g - d[0] - d[1]
        uinv_residual = float(np.abs(asm.uinv_w @ asm.u_w - eye).max())
        for got in (dc, again):
            assert got.identity_residual == max(
                float(np.abs(resid).max()), uinv_residual)
            for op, ref in zip((got.d1_lambda, got.d2_lambda,
                                got.d4_lambda), d):
                assert np.array_equal(op, ref)

        cached, cached_residual = split_fixed
        assert np.array_equal(cached, fixed - asm.pi_w)
        assert cached_residual == uinv_residual
        assert not cached.flags.writeable

        # the full-grid form build_deltaC once took: S P_gamma S as the
        # full product, each entry a sum of products S_ik S_kj, which any
        # order rounds to within n eps (|S| |S|)_ij (the dot-product error
        # bound), and 1 + pi - S P_gamma S adds one rounding of its O(1)
        # entries; the identity's sides differ in how F is formed, so both
        # residuals stay below the same bound
        def block(mat, left, right):
            return mat * left[:, None] * right[None, :]

        tol = 2 * n * np.finfo(float).eps * ((np.abs(sp) @ np.abs(sp)).max()
                                             + 1.0)
        spgs_old = sp @ (g[:, None] * sp)
        t_old = np.eye(n) + asm.pi_w - spgs_old
        lam_f = inner.astype(float)
        old = [-block(spgs_old, sm, sm),
               block(t_old, lm, sm) + block(t_old, sm, lm)
               + block(t_old, lm, lm),
               t_old - block(t_old, lam_f, lam_f), eps * spgs_old]
        for op, ref in zip(padded_terms(dc, params, geo, regions), old):
            assert np.abs(op - ref).max() <= tol
        assert np.abs(dc.d4_lambda - old[3][lam_ix]).max() <= tol
        lhs_old = sp @ ((asm.uinv_w - np.diag((1.0 - eps) * g)) @ sp) \
            - (block(asm.pi_w, sm, sm) + eye
               + sp @ ((asm.uinv_w - eye) @ sp))
        rhs_old = (old[0] + old[1] + old[2] + old[3] - np.diag(lm)
                   - np.diag(1.0 - lam_f))
        assert np.abs(lhs_old - rhs_old).max() <= tol
        assert dc.identity_residual <= tol

    def test_overlapping_regions_violate_the_identity(self):
        # negative control: a square both in Lambda_s and in Lambda_l
        # enters the (s,s), (l,s), (s,l) and (l,l) blocks at once
        params, geo, fld, assign, regions = setup_single()
        sq = min(regions.lambda_l)
        bad = dataclasses.replace(regions, lambda_s=regions.lambda_s | {sq})
        build_deltaC(params, geo, CUT, regions, pad=2)
        with pytest.raises(ArithmeticError,
                           match="splitting identity violated"):
            build_deltaC(params, geo, CUT, bad, pad=2)

    @pytest.mark.parametrize("label", ["lambda_s", "lambda_l"])
    @pytest.mark.parametrize("corner", [(2, 0), (-3, -3)])
    def test_square_outside_lambda_violates_the_identity(self, label,
                                                          corner):
        # negative control: an s- or l-square on the padded belt, which
        # the Lambda blocks of d1 and d2 cannot hold
        params, geo, fld, assign, regions = setup_single()
        bad = dataclasses.replace(
            regions, **{label: getattr(regions, label) | {corner}})
        with pytest.raises(ArithmeticError,
                           match="splitting identity violated"):
            build_deltaC(params, geo, CUT, bad, pad=2)

    @pytest.mark.parametrize("n, sites, pad",
                             [(2, 3, 2), (1, 4, 2), (4, 2, 0), (3, 3, 1)])
    def test_lambda_terms_hold_the_lambda_block(self, n, sites, pad):
        # build_deltaC reads Lambda through the assembly's terms, formed
        # once per Lambda: the sites of grid.site_mask(geo.squares) in
        # their order, the Lambda rows and blocks of S, pi and F - pi, and
        # the sup of |F - pi| off Lambda x Lambda, 0 at pad 0
        params = make_params()
        geo = LatticeGeometry(n=n, sites_per_square=sites)
        asm = covariance._assembly(params, geo, CUT, pad=pad)
        terms = asm.lambda_terms(geo)
        assert asm.lambda_terms(geo) is terms
        mask = asm.geo.site_mask(geo.squares)
        lam = np.flatnonzero(mask)
        block = np.ix_(lam, lam)
        fixed = asm.split_fixed[0]
        assert np.array_equal(terms.mask, mask)
        assert np.array_equal(terms.index, lam)
        assert np.array_equal(terms.s_rows, asm.s_plus[lam])
        assert np.array_equal(terms.pi, asm.pi_w[block])
        assert np.array_equal(terms.fixed, fixed[block])
        outside = np.abs(fixed[~np.outer(mask, mask)])
        assert terms.outside_sup == (outside.max() if pad else 0.0)
        assert not terms.fixed.flags.writeable

    @pytest.mark.parametrize("index", range(4))
    def test_region_faults_raise_as_the_full_grid_residual_did(self, index):
        # fault parity on a criterion-10 configuration: every mutant of
        # lambda_s or lambda_l raises exactly when the full-grid residual
        # of the padded build, written out in full_grid_residual, breaks
        # the tolerance
        params, geo, ensemble = TestDampingBound._ensemble(4, seed=7)
        fld, assign = ensemble[index]
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        fixed = fixed_term(covariance._assembly(params, geo, CUT, pad=2))
        verdicts = []
        for name, bad in region_mutants(regions):
            full = max(full_grid_residual(params, geo, bad, fixed))
            try:
                build_deltaC(params, geo, CUT, bad, pad=2)
                raised = False
            except ArithmeticError as exc:
                assert "splitting identity violated" in str(exc)
                raised = True
            assert raised == (full > covariance.SPLIT_IDENTITY_TOL), name
            verdicts.append(raised)
        assert any(verdicts) and not all(verdicts)

    def test_gamma_is_not_checked_by_the_identity(self):
        # records what the gate cannot see: S P_gamma S cancels from the
        # identity, so gamma with a Lambda square removed, a free square of
        # the padded grid added, or one moved onto a free square leaves this
        # residual and the full-grid one at rounding level, while
        # deltaC_1 moves (gamma reaches past Lambda, and may cover it)
        params, geo, ensemble = TestDampingBound._ensemble(4, seed=7)
        fixed = fixed_term(covariance._assembly(params, geo, CUT, pad=2))
        squares = set(padded_geometry(geo, 2).squares)
        for fld, assign in ensemble:
            regions = build_regions(assign, geo, corridorM=params.corridorM)
            clean = build_deltaC(params, geo, CUT, regions, pad=2)
            sq = min(regions.gamma & set(geo.squares))
            free = squares - regions.gamma
            for gamma in (regions.gamma - {sq}, regions.gamma | {min(free)},
                          regions.gamma | {max(free)},
                          (regions.gamma - {sq}) | {min(free)}):
                bad = dataclasses.replace(regions, gamma=gamma)
                dc = build_deltaC(params, geo, CUT, bad, pad=2)
                assert dc.identity_residual <= 1e-12
                full = max(full_grid_residual(params, geo, bad, fixed))
                assert full <= 1e-12
                assert np.abs(dc.d1_lambda - clean.d1_lambda).max() > 1e-10

    def test_lambda_form_is_the_padded_quadratic_form(self):
        # damping_report's (tau, deltaC tau) on Lambda against the sum of
        # the four padded-grid forms
        params, geo, fld, assign, regions = setup_single()
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        grid = padded_geometry(geo, 2)
        rng = np.random.default_rng(3)
        v = rng.normal(size=geo.sites_per_side ** 2)
        full = np.zeros(grid.sites_per_side ** 2)
        full[grid.site_mask(geo.squares)] = v
        ref = sum(float(full @ op @ full)
                  for op in padded_terms(dc, params, geo, regions))
        assert dc.lambda_form(v) == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_lambda_form_is_the_factored_form_on_the_ensemble(self):
        # DeltaC.lambda_form against deltac_factored_form, which reads gamma
        # and eps from S and pi, over criterion 10's ensemble (seed 7, 20
        # configurations, three seeded fields on Lambda each); criterion
        # 06's deltac-factored-form row compares one configuration.  The
        # negative control doubles deltaC_4, which no other gate reads
        params, geo, ensemble = TestDampingBound._ensemble(20, seed=7)
        rng = np.random.default_rng(6)
        gaps, doubled = [], []
        for fld, assign in ensemble:
            regions = build_regions(assign, geo, corridorM=params.corridorM)
            dc = build_deltaC(params, geo, CUT, regions, pad=2)
            bad = dataclasses.replace(dc, d4_lambda=2.0 * dc.d4_lambda)
            for v in rng.standard_normal((3, geo.sites_per_side ** 2)):
                ref = covariance.deltac_factored_form(params, geo, CUT,
                                                      regions, 2, v)
                gaps.append(abs(dc.lambda_form(v) - ref) / abs(ref))
                doubled.append(abs(bad.lambda_form(v) - ref) / abs(ref))
        assert max(gaps) < 1e-12
        assert min(doubled) > 1e-12

    def test_wrong_uinv_violates_the_identity(self, monkeypatch):
        # negative control: the splitting identity's U^{-1} terms cancel,
        # so 1.01 U^{-1} + 0.01 leaves its residual at rounding level; the
        # |U^{-1} U - 1|_max term folded into identity_residual catches it
        params, geo, fld, assign, regions = setup_single()
        real = covariance._assembly_cached

        def skewed(*key):
            # a copy with nothing cached: its split_fixed reads the skew
            asm = dataclasses.replace(real(*key))
            asm.uinv_w = 1.01 * real(*key).uinv_w + 0.01
            return asm

        monkeypatch.setattr(covariance, "_assembly_cached", skewed)
        with pytest.raises(ArithmeticError,
                           match="splitting identity violated"):
            build_deltaC(params, geo, CUT, regions, pad=2)

    def test_d1_negative_semidefinite(self):
        params, geo, fld, assign, regions = setup_single()
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        assert np.linalg.eigvalsh(dc.d1_lambda).max() <= 1e-10

    def test_d4_bound(self):
        # ||eps S P_gamma S|| <= eps (1 + ||pi||), rigorously
        params, geo, fld, assign, regions = setup_single()
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        grid = padded_geometry(geo, 2)
        fmat = propagator_matrix(grid, params.m)
        pi_w = 0.5 * params.lam * params.bigK * fmat * fmat * grid.site_weight
        pi_norm = np.linalg.eigvalsh(pi_w).max()
        n4 = np.linalg.norm(padded_terms(dc, params, geo, regions)[3], 2)
        assert n4 <= params.epsilon * (1.0 + pi_norm) * (1.0 + 1e-9)
        assert np.linalg.norm(dc.d4_lambda, 2) <= n4 * (1.0 + 1e-9)

    def test_d3_bound(self):
        # out-of-Lambda blocks of S(1-P_gamma)S: operator norm below a
        # fitted multiple of 1 + ||pi||
        params, geo, fld, assign, regions = setup_single()
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        grid = padded_geometry(geo, 2)
        fmat = propagator_matrix(grid, params.m)
        pi_w = 0.5 * params.lam * params.bigK * fmat * fmat * grid.site_weight
        pi_norm = np.linalg.eigvalsh(pi_w).max()
        d3 = padded_terms(dc, params, geo, regions)[2]
        assert np.linalg.norm(d3, 2) <= 2.0 * (1.0 + pi_norm)

    def test_d2_corridor_bound(self):
        # ||deltaC_2|| <= O(1) N^{-2} at the un-overridden corridor width
        fitted = {}
        for bigN, n_lat in ((4, 5), (16, 8)):
            params = derive_params(LAM, BIGK, bigN)
            geo = LatticeGeometry(n=n_lat, sites_per_square=2)
            u = 0.5 * (bigN ** (1 / 6) + 1.25 * bigN ** (2 / 6))
            fld = field_with_l_square(geo, u)
            assign = classify_squares(fld, params, geo)
            regions = build_regions(assign, geo, corridorM=params.corridorM)
            dc = build_deltaC(params, geo, CUT, regions, pad=2)
            fitted[bigN] = float(np.linalg.norm(dc.d2_lambda, 2)) * bigN ** 2
        assert fitted[4] < 1.0
        assert fitted[16] < 1.0

    def test_d2_fitted_stable_under_refinement(self):
        fitted = {}
        for s in (2, 3):
            params = derive_params(LAM, BIGK, 4)
            geo = LatticeGeometry(n=5, sites_per_square=s)
            u = 0.5 * (4 ** (1 / 6) + 1.25 * 4 ** (2 / 6))
            fld = field_with_l_square(geo, u)
            assign = classify_squares(fld, params, geo)
            regions = build_regions(assign, geo, corridorM=params.corridorM)
            dc = build_deltaC(params, geo, CUT, regions, pad=2)
            fitted[s] = float(np.linalg.norm(dc.d2_lambda, 2)) * 16.0
        assert 1 / 3 < fitted[3] / fitted[2] < 3

    def test_empty_gamma_corrections_vanish(self):
        params = make_params()
        geo = LatticeGeometry(n=2, sites_per_square=3)
        fld = FieldConfig.from_tau(geo, np.zeros((12, 12)))
        assign = classify_squares(fld, params, geo)
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        assert np.abs(dc.d1_lambda).max() == 0.0
        assert np.abs(dc.d2_lambda).max() == 0.0
        assert np.abs(dc.d4_lambda).max() == 0.0


def draws(root, seed, count):
    """count Gaussian draws tau = root z, z from default_rng(seed)."""
    z = np.random.default_rng(seed).standard_normal((count, len(root)))
    return z @ root.T


class TestSampling:
    def test_identity_covariance_unit_variance(self):
        geo = LatticeGeometry(n=1, sites_per_square=3)
        nsite = geo.sites_per_side ** 2
        w = geo.site_weight
        ident = DiscretizedOperator(np.eye(nsite), w)
        n = 20000
        taus = draws(gaussian_root(kernel(ident)), 3, n)
        scaled = taus * np.sqrt(geo.site_weight)
        var = scaled.var(axis=0)
        se = np.sqrt(2.0 / n)
        assert np.abs(var - 1.0).max() < 5 * se

    def test_matches_C0_entries(self):
        params = make_params()
        geo = LatticeGeometry(n=1, sites_per_square=3)
        c0 = build_C0(params, geo, CUT)
        n = 20000
        taus = draws(c0_root(params, geo, CUT), 4, n)
        emp = taus.T @ taus / n
        target = kernel(c0)
        se = np.sqrt((np.outer(np.diag(target), np.diag(target))
                      + target ** 2) / n)
        assert np.all(np.abs(emp - target) < 5 * se + 1e-12)

    def test_deterministic(self):
        # the root formed afresh gives the same draws bit for bit
        params = make_params()
        geo = LatticeGeometry(n=1, sites_per_square=3)
        a = draws(c0_root(params, geo, CUT), 11, 3)
        covariance._assembly_cached.cache_clear()
        b = draws(c0_root(params, geo, CUT), 11, 3)
        assert np.array_equal(a, b)

    def test_draws_keep_their_values_under_rounding_of_the_covariance(self):
        # C0's lattice symmetries make its spectrum degenerate: a root
        # vec sqrt(ev) turns by O(1) inside an eigenspace when C0 moves at
        # rounding level (0.99 relative here), the symmetric root does not
        params = make_params()
        geo = LatticeGeometry(n=1, sites_per_square=3)
        c0 = build_C0(params, geo, CUT)
        noise = np.random.default_rng(8).normal(size=c0.weighted.shape)
        bumped = DiscretizedOperator(
            c0.weighted * (1.0 + 1e-15 * (noise + noise.T)), c0.site_weight)
        assert 0 < np.abs(bumped.weighted - c0.weighted).max() <= 1e-14
        a = draws(c0_root(params, geo, CUT), 7, 4)
        b = draws(gaussian_root(kernel(bumped)), 7, 4)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


class TestDampingBound:
    """Assembled integrand bound on an ensemble mixing small and first-
    level large squares at N = 10^6."""

    @staticmethod
    def _ensemble(count, seed):
        params = make_params()
        geo = LatticeGeometry(n=2, sites_per_square=3)
        side = geo.sites_per_side
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            tau = rng.normal(size=(side, side)) * 0.35
            nl = 1 + rng.integers(0, 2)
            for q in rng.choice(16, size=nl, replace=False):
                i, j = divmod(int(q), 4)
                u = rng.uniform(15.0, 70.0)
                blk = rng.normal(size=(3, 3))
                blk *= np.sqrt(u / (LAM * BIGK)
                               / (np.sum(blk ** 2) * geo.site_weight))
                tau[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3] = blk
            fld = FieldConfig.from_tau(geo, tau)
            assign = classify_squares(fld, params, geo)
            if assign.labels.max() != 1 or (assign.labels > 0).sum() != nl:
                continue
            out.append((fld, assign))
        return params, geo, out

    def test_bound_with_fitted_constant(self):
        params, geo, ensemble = self._ensemble(20, seed=7)
        reports = []
        for fld, assign in ensemble:
            regions = build_regions(assign, geo, corridorM=params.corridorM)
            covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                                  routes="direct")
            dc = build_deltaC(params, geo, CUT, regions, pad=2)
            compute_Zgamma(covset, regions)
            reports.append(damping_report(fld, params, regions, covset, dc,
                                          assign))
        consts = [r.required_const for r in reports]
        fit = max(consts[:10])
        assert np.isfinite(fit) and fit > 0
        # fitted constant from half the ensemble covers the rest within 3x
        assert max(consts[10:]) <= 3.0 * fit
        scale = params.bigN ** (-0.4)
        for r in reports:
            assert r.log_value <= (-0.49 * r.mass_large
                                   + 3.0 * fit * scale * r.mass_small)

    def test_report_terms_reproduce_the_log_value(self):
        # the five terms a DampingReport holds give its log_value by
        # damping_report's own expression, bit for bit; a vanishing window
        # weight leaves -inf and the terms it skips as nan
        params, geo, ensemble = self._ensemble(6, seed=7)
        for fld, assign in ensemble:
            regions = build_regions(assign, geo, corridorM=params.corridorM)
            covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                                  routes="direct")
            dc = build_deltaC(params, geo, CUT, regions, pad=2)
            rep = damping_report(fld, params, regions, covset, dc, assign)
            assert rep.log_value == (
                rep.log_z + rep.log_window - 0.5 * rep.mass_large
                - 0.5 * params.bigN * (rep.log_det3_real + rep.log_det2_real)
                + 0.5 * rep.deltac_form)
            assert rep.log_z == covset.log_z > 0.0
            assert rep.log_window <= 0.0
            assert rep.deltac_form == dc.lambda_form(
                fld.tau.reshape(-1) * np.sqrt(covset.grid.site_weight))
        closed = dataclasses.replace(assign,
                                     theta_s=np.zeros_like(assign.theta_s))
        rep = damping_report(fld, params, regions, covset, dc, closed)
        assert rep.log_value == rep.log_window == -np.inf
        assert rep.log_z == covset.log_z
        assert np.isnan([rep.log_det3_real, rep.log_det2_real,
                         rep.deltac_form]).all()

    @staticmethod
    def _det2_inputs(params, geo, ensemble):
        """B = (1 + iA_s)^{-1} iA'' of each configuration (AOperator.b of
        damping_report's symmetrized A), and one generic complex B whose
        Re tr B is not 0 (on the ensemble A'' vanishes on the (s,s) block,
        so Re tr B = 0 there)."""
        out = [build_A(fld, params, assignment=assign,
                       symmetrize=True).b for fld, assign in ensemble]
        rng = np.random.default_rng(2)
        n = len(out[0])
        out.append(0.05 * (rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n))) / np.sqrt(n))
        return out

    @staticmethod
    def _det2_tol(b):
        """Each route to Re log det_2(1 + B) rounds n factors near 1 (the
        pivots of an LU, or the 1 + lambda_i) at relative eps, and a
        relative perturbation of 1 + B moves log|det| by at most its size
        times kappa(1 + B); so each route is within n eps kappa of the
        exact value, and two routes within 2 n eps kappa."""
        n = len(b)
        return 2 * n * np.finfo(float).eps * np.linalg.cond(np.eye(n) + b)

    @classmethod
    def _det2_gap(cls, b, value=None):
        """|value - eigenvalue route| of Re log det_2(1 + B) over its
        tolerance; value defaults to the matrix route on B."""
        if value is None:
            value = log_det_n_matrix(b, 2).real
        ref = log_det_n(np.linalg.eigvals(b), 2).real
        return abs(value - ref) / cls._det2_tol(b)

    def test_det2_real_part_dual_route(self):
        params, geo, ensemble = self._ensemble(20, seed=7)
        gaps = [self._det2_gap(b)
                for b in self._det2_inputs(params, geo, ensemble)]
        assert max(gaps) <= 1.0

    def test_det2_without_trace_term_fails_dual_route(self, monkeypatch):
        # negative control: -Re tr B dropped from the matrix route
        params, geo, ensemble = self._ensemble(1, seed=7)
        generic = self._det2_inputs(params, geo, ensemble)[-1]
        assert abs(np.trace(generic).real) > 1e-6
        monkeypatch.setattr(np, "trace", lambda a: 0.0)
        assert self._det2_gap(generic) > 1.0

    @staticmethod
    def _det3_reference(aop):
        """Re log det_3(1 + iA_s) from the eigenvalues lam of the real
        symmetric A_ss: (1/2) sum (log1p lam^2 - lam^2), 0 with no small
        site."""
        s = np.flatnonzero(aop.small_sites)
        lam = np.linalg.eigvalsh(aop.op.weighted[np.ix_(s, s)])
        return 0.5 * float(np.sum(np.log1p(lam ** 2) - lam ** 2))

    @staticmethod
    def _det2_reference(aop):
        """Re log det_2(1 + B) from the Schur complement on the large sites
        L by a complex solve: log|det(1 + iA_LL + A_Ls X^{-1} A_sL)|,
        X = 1 + iA_ss; 0 with no large site."""
        a = aop.op.weighted
        s = np.flatnonzero(aop.small_sites)
        big = np.flatnonzero(~aop.small_sites)
        x = np.eye(len(s)) + 1j * a[np.ix_(s, s)]
        k = 1j * a[np.ix_(big, big)] + a[np.ix_(big, s)] @ np.linalg.solve(
            x, a[np.ix_(s, big)])
        return log_det_n_matrix(k, 1).real

    @pytest.fixture(scope="class")
    def split_cases(self):
        """(A, its n x n B, the reference det_3 and det_2, det_2's
        tolerance _det2_tol(B)) for criterion 10's ensemble (seed 7, 20
        configurations) with A as built and scaled by 10^2, 10^3 and 10^4,
        and for its first configuration with every site small and with
        every site large; the references are taken before any test
        patches numpy."""
        params, geo, ensemble = self._ensemble(20, seed=7)
        aops = [build_A(fld, params, assignment=assign, symmetrize=True)
                for fld, assign in ensemble]
        out = [dataclasses.replace(aop, op=DiscretizedOperator(
            scale * aop.op.weighted, aop.op.site_weight))
            for scale in (1.0, 1e2, 1e3, 1e4) for aop in aops]
        out += [dataclasses.replace(aops[0], small_sites=np.full_like(
            aops[0].small_sites, small)) for small in (True, False)]
        return [(aop, aop.b, self._det3_reference(aop),
                 self._det2_reference(aop), self._det2_tol(aop.b))
                for aop in out]

    @staticmethod
    def _split_gaps(cases):
        """Per-case gaps of _log_det_split_real, each over its tolerance:
        det_3 against the eigenvalues at 1e-6 relative, det_2 against the
        complex solve at _det2_tol; against an empty block's reference 0
        any nonzero value scores inf.  Lists (gap_3, gap_2) in case order."""
        def gap(value, ref, tol):
            if ref:
                return abs(value - ref) / tol
            return 0.0 if value == 0.0 else np.inf

        gap3, gap2 = [], []
        for aop, _, ref3, ref2, tol2 in cases:
            det3, det2 = covariance._log_det_split_real(aop)
            gap3.append(gap(det3, ref3, 1e-6 * abs(ref3)))
            gap2.append(gap(det2, ref2, tol2))
        return gap3, gap2

    def test_schur_route_matches_both_routes(self, split_cases):
        # damping_report's one-Cholesky det_3 and det_2 against the
        # eigenvalues of A_ss, the complex-solve Schur complement, the
        # matrix route on the n x n B and the n x n B's eigenvalues, at A's
        # scale and up to 10^4 times it
        assert all(0 < (~aop.small_sites).sum() < len(b)
                   for aop, b, *_ in split_cases[:-2])
        gap3, gap2 = self._split_gaps(split_cases)
        assert max(gap3) <= 1.0 and max(gap2) <= 1.0
        for aop, b, *_ in split_cases:
            det2 = covariance._log_det_split_real(aop)[1]
            assert abs(det2 - log_det_n_matrix(b, 2).real) <= self._det2_tol(b)
            assert self._det2_gap(b, det2) <= 1.0
        # an empty block gives 0 for its term
        every_small, every_large = (aop for aop, *_ in split_cases[-2:])
        assert covariance._log_det_split_real(every_small)[1] == 0.0
        assert covariance._log_det_split_real(every_large)[0] == 0.0
        assert split_cases[-2][3] == split_cases[-1][2] == 0.0

    def test_schur_route_without_its_correction_fails(self, monkeypatch,
                                                      split_cases):
        # negative control: A_Ls X^{-1} A_sL dropped from the Schur
        # complement (the solve returns 0); B was formed before the patch.
        # Every configuration at A's own scale must turn red
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: np.zeros_like(b))
        assert min(self._split_gaps(split_cases[:20])[1]) > 1.0

    def test_schur_route_without_its_imaginary_term_fails(self, monkeypatch,
                                                          split_cases):
        # negative control: -i H^T G dropped from k (the solve's G columns
        # are zeroed), which leaves H^T H, the real part of A_Ls X^{-1} A_sL;
        # at A's own scale the term is O(A^3) and below the tolerance, and
        # every configuration scaled by 10^2 to 10^4 must turn red
        real = np.linalg.solve

        def no_g(a, b):
            hg = real(a, b)
            hg[:, b.shape[1] // 2:] = 0.0
            return hg

        monkeypatch.setattr(np.linalg, "solve", no_g)
        assert min(self._split_gaps(split_cases[20:-2])[1]) > 1.0

    def test_det3_without_the_off_diagonal_fails(self, monkeypatch,
                                                  split_cases):
        # negative control: |tril(R, -1)|_F^2 dropped from det_3; every
        # configuration at A's own scale must turn red
        monkeypatch.setattr(np, "tril", lambda r, k=0: np.zeros_like(r))
        assert min(self._split_gaps(split_cases[:20])[0]) > 1.0

    def test_naive_det3_fails(self, monkeypatch, split_cases):
        # negative control: _log_det_split_real's det_3 replaced by the
        # naive (1/2)(log det P - |A_ss|_F^2), P = 1 + A_ss^2, whose
        # cancellation leaves about 1e-14 on values of about 5e-16; every
        # configuration at A's own scale must turn red
        real = covariance._log_det_split_real

        def naive(aop):
            s = np.flatnonzero(aop.small_sites)
            a_ss = aop.op.weighted[np.ix_(s, s)]
            log_det_p = np.linalg.slogdet(np.eye(len(s)) + a_ss @ a_ss)[1]
            return 0.5 * (log_det_p - np.sum(a_ss ** 2)), real(aop)[1]

        monkeypatch.setattr(covariance, "_log_det_split_real", naive)
        assert min(self._split_gaps(split_cases[:20])[0]) > 1.0

    def test_one_configuration_stays_on_small_blocks(self, monkeypatch):
        # one warm criterion-10 configuration reads no AOperator.b or
        # AOperator.a_s, takes no LU of the gamma block, calls no eigvalsh,
        # solves no complex system and forms no padded-grid zeros (d1 and
        # d2 are kept on Lambda)
        params, geo, ensemble = self._ensemble(1, seed=7)
        fld, assign = ensemble[0]
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        build_deltaC(params, geo, CUT, regions, pad=2)  # warm the caches
        nsite = padded_geometry(geo, 2).sites_per_side ** 2

        for name in ("b", "a_s"):
            def forbidden(self, name=name):
                raise AssertionError(f"AOperator.{name} read")

            monkeypatch.setattr(operators.AOperator, name,
                                property(forbidden))

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        real_solve = np.linalg.solve
        lu_sizes, complex_solves, zeros = [], [], []
        for name in ("slogdet", "solve", "det", "inv"):
            real = getattr(np.linalg, name)

            def spy(a, *args, real=real, **kwargs):
                lu_sizes.append(len(a))
                if real is real_solve and (np.iscomplexobj(a)
                                           or np.iscomplexobj(args[0])):
                    complex_solves.append(len(a))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        real_zeros = np.zeros

        def zeros_spy(shape, *args, **kwargs):
            zeros.append(shape)
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", zeros_spy)
        covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                              routes="direct")
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        compute_Zgamma(covset, regions)
        rep = damping_report(fld, params, regions, covset, dc, assign)
        assert np.isfinite(rep.log_value)
        gamma = len(covset.gamma)
        assert lu_sizes and gamma not in lu_sizes
        assert max(lu_sizes) < geo.sites_per_side ** 2
        assert not complex_solves
        assert (nsite, nsite) not in zeros
        # the spies see the forms they guard against
        padded_terms(dc, params, geo, regions)
        assert (nsite, nsite) in zeros
        aop = build_A(fld, params, assignment=assign, symmetrize=True)
        self._det2_reference(aop)
        assert complex_solves
        for name in ("b", "a_s"):
            with pytest.raises(AssertionError, match=f"AOperator.{name} read"):
                getattr(aop, name)
        with pytest.raises(AssertionError, match="eigvalsh called"):
            self._det3_reference(aop)

    @staticmethod
    def _traced_peak(fn):
        """(fn(), the peak of memory tracemalloc traced while it ran)."""
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _warm_deltac_case(self):
        """A criterion-10 configuration's arguments to build_deltaC at 576
        sites, with the caches warm, and the bytes of one n x n array of
        doubles on that grid."""
        params, geo, ensemble = self._ensemble(1, seed=7)
        fld, assign = ensemble[0]
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        build_deltaC(params, geo, CUT, regions, pad=2)  # warm the caches
        grid_bytes = padded_geometry(geo, 2).sites_per_side ** 4 * 8
        return (params, geo, CUT, regions), grid_bytes

    def test_one_configuration_stays_within_two_grids_of_memory(self):
        # one warm build_deltaC at 576 sites: its traced peak stays below
        # two n x n arrays of doubles (the padded build took 4.4) and the
        # returned DeltaC holds below half of one (the padded build held
        # 2.1)
        args, grid_bytes = self._warm_deltac_case()
        params, geo, _, regions = args
        dc, peak = self._traced_peak(lambda: build_deltaC(*args, pad=2))
        held = sum(v.nbytes for v in vars(dc).values()
                   if isinstance(v, np.ndarray))
        assert peak < 2 * grid_bytes
        assert held < 0.5 * grid_bytes
        # the tracer sees the padded terms the padded build formed
        _, padded_peak = self._traced_peak(
            lambda: padded_terms(dc, params, geo, regions))
        assert padded_peak > 2 * grid_bytes

    def test_one_configuration_stays_within_one_grid_of_memory(self):
        # build_deltaC works on Lambda x Lambda alone, its terms outside
        # that block formed once per grid: a warm call's traced peak stays
        # below one padded-grid n x n array of doubles (0.72 of one; the
        # build that copied the padded F - pi per configuration took 1.6)
        args, grid_bytes = self._warm_deltac_case()
        _, peak = self._traced_peak(lambda: build_deltaC(*args, pad=2))
        assert peak < grid_bytes

    def test_pipeline_calls_no_scipy_linalg(self, monkeypatch,
                                            forbid_scipy_linalg):
        # with the assembly cache warm, one configuration runs classify ->
        # regions -> C_gamma -> deltaC -> Z_gamma -> damping_report on
        # numpy's LAPACK alone (scipy.linalg's own BLAS pool would contend)
        # and with no general eigensolve
        params, geo, ensemble = self._ensemble(1, seed=7)
        fld, _ = ensemble[0]
        covariance._assembly(params, geo, CUT, pad=2)
        forbid_scipy_linalg(monkeypatch)

        def no_eigvals(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        assign = classify_squares(fld, params, geo)
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                              routes="direct")
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        assert compute_Zgamma(covset, regions) >= 1.0
        rep = damping_report(fld, params, regions, covset, dc, assign)
        assert np.isfinite(rep.required_const)
        # positive control: the stubs fire when called
        with pytest.raises(AssertionError, match="scipy.linalg.cho_factor"):
            scipy.linalg.cho_factor(np.eye(2))

    def test_pure_small_field_value(self):
        # no large squares: Z = 1, no Gaussian damping, log value stays
        # within the small-field allowance
        params = make_params()
        geo = LatticeGeometry(n=2, sites_per_square=3)
        rng = np.random.default_rng(12)
        tau = rng.normal(size=(12, 12)) * 0.3
        fld = FieldConfig.from_tau(geo, tau)
        assign = classify_squares(fld, params, geo)
        assert assign.labels.max() == 0
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        covset = build_Cgamma(params, geo, CUT, regions, pad=2)
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        rep = damping_report(fld, params, regions, covset, dc, assign)
        assert rep.mass_large == 0.0
        assert abs(rep.log_value) < 0.5


class TestSquareNormalization:
    @pytest.mark.parametrize("bigN,samples", [(10 ** 4, 1200), (10 ** 6, 800)])
    def test_close_to_one(self, bigN, samples):
        params = derive_params(1.0, 1.0, bigN, corridor_override=2.0)
        value = single_square_normalization(params, CUT, samples=samples,
                                            seed=5)
        assert abs(value - 1.0) <= bigN ** (-0.2)

    def test_deterministic(self):
        params = derive_params(1.0, 1.0, 10 ** 4, corridor_override=2.0)
        a = single_square_normalization(params, CUT, samples=200, seed=9)
        b = single_square_normalization(params, CUT, samples=200, seed=9)
        assert a == b
