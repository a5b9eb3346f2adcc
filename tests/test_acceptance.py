"""Acceptance gate: one test per advertised criterion, at the stated
tolerances.  Each test prints a single pass line; a failing criterion
fails its test (and only its test)."""

import itertools
import math
import time

import numpy as np
import pytest
import sympy

from sigmagap.covariance import (build_Cgamma, build_deltaC,
                                 component_log_z, compute_Zgamma,
                                 damping_report, sample_gaussian,
                                 single_square_normalization, build_C0)
from sigmagap.forests import (activity_threshold, enumerate_forests,
                              interpolated_kernel, mayer_connectivity,
                              mayer_tree_formula, polymer_activity_sum,
                              positivity_decomposition,
                              verify_forest_formula)
from sigmagap.kernels import (CutoffSpec, polarization_kernel,
                              polarization_momentum, propagator_kernel,
                              sqrt_one_plus_pi_kernel)
from sigmagap.model import (ModelParams, derive_params, gap_constant,
                            gap_lhs, solve_gap_equation)
from sigmagap.operators import (build_A, det_split_identity, log_det_n,
                                operator_norm, DiscretizedOperator)
from sigmagap.regions import (FieldConfig, LatticeGeometry, build_regions,
                              classify_squares, square_distance,
                              window_weights)
from sigmagap.twopoint import estimate_S2, mass_vs_N_scan

CUT = CutoffSpec(c=1.0)


def report(num, label):
    print(f"[criterion {num:02d}] PASS  {label}")


def bench_params(m, lam=1.0, bigK=1.0, bigN=10 ** 6, corridorM=5.0):
    return ModelParams(lam=lam, bigK=bigK, bigN=bigN,
                       g=math.sqrt(lam * bigK / bigN), m=m,
                       epsilon=bigN ** -0.4, corridorM=corridorM)


def rescaled_field(geometry, rng, u_targets, lam, bigK, base=None):
    """Gaussian field rescaled per square so lam*K*mass hits u_targets."""
    side = geometry.sites_per_side
    s = geometry.sites_per_square
    tau = rng.normal(size=(side, side)) if base is None else base
    cfg = FieldConfig.from_tau(geometry, tau)
    u = lam * bigK * cfg.square_masses
    nb = 2 * geometry.n
    scale = np.sqrt(np.asarray(u_targets) / u)
    tau = (tau.reshape(nb, s, nb, s) * scale.reshape(nb, 1, nb, 1)
           ).reshape(side, side)
    return FieldConfig.from_tau(geometry, tau)


def test_criterion_01_gap_equation():
    t0 = time.perf_counter()
    for lam in (0.8, 1.0):
        m2 = solve_gap_equation(lam, 1.0)
        residual = abs(gap_lhs(m2) - m2 / lam - 1.0 / (2.0 * lam))
        assert residual < 1e-10
        c_m = gap_constant(lam, 1.0)
        # the true asymptotic constant is e^{-gamma_E} ~ 0.5615, which
        # the solver reproduces to many digits; the advertised window
        # [0.9, 1.1] does not contain it, so this check fails honestly
        assert 0.9 <= c_m <= 1.1, (
            f"c_m = {c_m:.6f} at lambda={lam}: the gap-equation constant "
            "is e^(-gamma_E) ~ 0.5615, outside the advertised [0.9, 1.1]")
    assert time.perf_counter() - t0 < 1.0
    report(1, "gap equation residual and constant window")


def test_criterion_02_kernel_decay():
    t0 = time.perf_counter()
    for m in (0.05, 0.1, 0.15):
        k = propagator_kernel(m)
        assert abs(k.fitted_decay_rate / m - 1.0) < 0.1
        assert np.all(k.values > 0.0)
        p = bench_params(m)
        kp = polarization_kernel(p)
        assert abs(kp.fitted_decay_rate / (2 * m) - 1.0) < 0.1
        for sign in (+1, -1):
            kq = sqrt_one_plus_pi_kernel(p, sign)
            assert abs(kq.fitted_decay_rate / (2 * m) - 1.0) < 0.1
    assert time.perf_counter() - t0 < 60.0
    report(2, "kernel decay rates and positivity")


def test_criterion_03_bubble_normalization():
    t0 = time.perf_counter()
    p = bench_params(0.1, lam=2.0, bigK=1.5)
    val = polarization_momentum(0.0, p, test_mode_unregulated=True)
    target = p.lam * p.bigK / (8.0 * np.pi * p.m ** 2)
    assert abs(val / target - 1.0) < 1e-6
    assert time.perf_counter() - t0 < 1.0
    report(3, "unregulated bubble at zero momentum")


def test_criterion_04_small_field_operator_norm():
    t0 = time.perf_counter()
    lam, bigK, bigN = 32.0, 1.0, 10 ** 6
    m = math.sqrt(solve_gap_equation(lam, bigK))
    params = bench_params(m, lam=lam, bigK=bigK, bigN=bigN, corridorM=3.0)
    geo = LatticeGeometry(n=4, sites_per_square=2)  # 8x8 squares
    rng = np.random.default_rng(0)
    bound = bigN ** (-0.4)
    for _ in range(100):
        targets = rng.uniform(0.5, 7.4, size=geo.num_squares)
        fld = rescaled_field(geo, rng, targets, lam, bigK)
        asg = classify_squares(fld, params, geo)
        assert asg.labels.max() == 0  # genuinely small-field
        assert operator_norm(build_A(fld, params, geo).a_s) <= bound
    assert time.perf_counter() - t0 < 300.0
    report(4, "small-field operator norm below N^(-2/5)")


def test_criterion_05_determinant_identities():
    t0 = time.perf_counter()
    lam, bigK, bigN = 32.0, 1.0, 10 ** 6
    m = math.sqrt(solve_gap_equation(lam, bigK))
    params = bench_params(m, lam=lam, bigK=bigK, bigN=bigN, corridorM=3.0)
    geo = LatticeGeometry(n=2, sites_per_square=4)
    rng = np.random.default_rng(1)
    for _ in range(50):
        targets = rng.uniform(1.0, 12.0, size=geo.num_squares)
        idx = rng.choice(geo.num_squares, size=2, replace=False)
        targets[idx] = rng.uniform(40.0, 80.0, size=2)
        fld = rescaled_field(geo, rng, targets, lam, bigK)
        assert det_split_identity(fld, params, geo) < 1e-8
    # det_n against an independent slogdet oracle
    for order in (1, 2, 3):
        mat = rng.normal(size=(40, 40))
        k = 0.05 * (mat + mat.T)
        op = DiscretizedOperator(k, np.full(40, 0.7))
        kw = op.weighted
        sign, logabs = np.linalg.slogdet(np.eye(40) + kw)
        log_oracle = np.log(sign) + logabs
        for j in range(1, order):
            log_oracle += (-1.0) ** j * np.trace(
                np.linalg.matrix_power(kw, j)) / j
        oracle = np.exp(log_oracle)
        det_n = np.exp(log_det_n(op.eigenvalues(), order))
        assert abs(det_n - oracle) < 1e-10 * abs(oracle)
    assert time.perf_counter() - t0 < 300.0
    report(5, "determinant split and det_n oracle")


def test_criterion_06_covariance_structure():
    t0 = time.perf_counter()
    params = derive_params(32.0, 1.0, 10 ** 6, corridor_override=2.0)
    geo = LatticeGeometry(n=2, sites_per_square=3)
    side = geo.sites_per_side
    tau = np.zeros((side, side))
    tau[6:9, 6:9] = np.sqrt(50.0 / 32.0)
    fld = FieldConfig.from_tau(geo, tau)
    asg = classify_squares(fld, params, geo)
    regions = build_regions(asg, geo, corridorM=params.corridorM)
    covset = build_Cgamma(params, geo, CUT, regions, pad=2)
    assert covset.route_residual < 1e-8
    z = compute_Zgamma(covset, regions)
    assert z >= 1.0
    dc = build_deltaC(params, geo, CUT, regions, pad=2)
    assert float(np.linalg.eigvalsh(dc.d1.weighted).max()) <= 1e-10

    # two well-separated components: Z factorizes to 1e-8
    big4 = derive_params(32.0, 1.0, 4)
    geo2 = LatticeGeometry(n=4, sites_per_square=2)
    tau2 = np.zeros((geo2.sites_per_side,) * 2)
    tau2[0:2, 0:2] = np.sqrt(1.5 / 32.0)
    tau2[14:16, 14:16] = np.sqrt(1.6 / 32.0)
    fld2 = FieldConfig.from_tau(geo2, tau2)
    asg2 = classify_squares(fld2, big4, geo2)
    regions2 = build_regions(asg2, geo2, corridorM=2.0)
    assert len(regions2.components) == 2
    covset2 = build_Cgamma(big4, geo2, CUT, regions2, pad=2)
    z2 = compute_Zgamma(covset2, regions2)
    parts = sum(component_log_z(covset2, cm)
                for cm in covset2.component_masks)
    assert abs(z2 - np.exp(parts)) / z2 < 1e-8
    assert time.perf_counter() - t0 < 300.0
    report(6, "covariance dual routes, Z bounds, splitting sign")


def test_criterion_07_forest_formula():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        x = {p: sympy.Symbol(f"x{p[0]}{p[1]}") for p in pairs}
        syms = list(x.values())
        functions = (
            sympy.prod([1 + s for s in syms]),
            sympy.exp(sum(syms)),
            (1 + sum(syms)) ** 2 + 3 * sympy.prod(syms),
        )
        for h_expr in functions:
            assert verify_forest_formula(h_expr, range(n), x) < 1e-8
    rng = np.random.default_rng(7)
    for _ in range(200):
        nblocks = int(rng.integers(2, 5))
        labels = rng.integers(0, nblocks, size=int(rng.integers(4, 9)))
        b = rng.normal(size=(len(labels), len(labels)))
        k = b @ b.T
        edges = []
        for e in itertools.combinations(range(nblocks), 2):
            if rng.random() < 0.4 and len(edges) < nblocks - 1:
                try:
                    from sigmagap.forests import Forest
                    Forest(tuple(range(nblocks)), tuple(edges) + (e,))
                    edges.append(e)
                except ValueError:
                    pass
        edges = tuple(edges)
        h = {e: float(rng.random()) for e in edges}
        terms = positivity_decomposition(k, labels, edges, h)
        scale = max(float(np.linalg.norm(k, 2)), 1.0)
        recon = sum(wt * t for wt, t in terms)
        assert np.abs(recon - interpolated_kernel(k, labels, edges, h)
                      ).max() < 1e-10 * scale
        for wt, t in terms:
            assert np.linalg.eigvalsh(t).min() > -1e-10 * scale
    assert time.perf_counter() - t0 < 120.0
    report(7, "forest interpolation identity and positivity")


def test_criterion_08_mayer_factors():
    t0 = time.perf_counter()
    for q in (1, 2, 3, 4):
        all_pairs = list(itertools.combinations(range(q), 2))
        for bits in range(1 << len(all_pairs)):
            pairs = [all_pairs[k] for k in range(len(all_pairs))
                     if bits >> k & 1]
            direct = mayer_connectivity(pairs, q)
            tree = mayer_tree_formula(pairs, q, nodes=8)
            assert abs(direct - tree) < 1e-6
    for q in range(1, 7):
        pairs = list(itertools.combinations(range(q), 2))
        assert mayer_connectivity(pairs, q) == \
            (-1.0) ** (q - 1) * math.factorial(q - 1)
    assert time.perf_counter() - t0 < 60.0
    report(8, "Mayer connectivity, graph sum vs tree formula")


def test_criterion_09_partition_and_regions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    bigN = 4096
    for u in rng.uniform(0.0, 4.0 * bigN ** (1 / 3), 1000):
        theta_s, theta_n = window_weights(float(u), bigN, 7)
        assert abs(theta_s + np.sum(theta_n) - 1.0) < 1e-12

    geo = LatticeGeometry(n=5)
    params = bench_params(0.3, bigN=bigN, corridorM=3.0)
    for _ in range(100):
        side = geo.sites_per_side
        tau = np.zeros((side, side))
        s = geo.sites_per_square
        for c in geo.squares:
            if rng.random() < 0.1:
                i, j = c[0] + geo.n, c[1] + geo.n
                tau[i * s:(i + 1) * s, j * s:(j + 1) * s] = \
                    math.sqrt(10.0 ** rng.uniform(0.5, 2.5))
        cfg = FieldConfig.from_tau(geo, tau)
        asg = classify_squares(cfg, params, geo)
        M = float(rng.uniform(1.5, 4.0))
        reg = build_regions(asg, geo, corridorM=M)
        gamma_in = reg.gamma & frozenset(geo.squares)
        assert reg.lambda_l <= gamma_in <= reg.big_gamma <= reg.big_gamma_e
        assert sum(len(c.l_squares) for c in reg.components) \
            == len(reg.lambda_l)
        seen = set()
        for comp in reg.components:
            assert not (seen & comp.big_gamma)
            seen |= comp.big_gamma
        assert frozenset(seen) == reg.big_gamma
        assert len(reg.e_components) <= len(reg.components)
        outside = [c for c in geo.squares if c not in reg.big_gamma]
        for a in reg.gamma:
            for b in outside:
                assert square_distance(a, b) >= M / 2 - math.sqrt(2) - 1e-12
    assert time.perf_counter() - t0 < 60.0
    report(9, "partition of unity and region invariants")


def test_criterion_10_integrand_bound_and_normalization():
    t0 = time.perf_counter()
    lam, bigK = 32.0, 1.0
    m = math.sqrt(solve_gap_equation(lam, bigK))
    params = bench_params(m, lam=lam, bigK=bigK, corridorM=2.0)
    geo = LatticeGeometry(n=2, sites_per_square=3)
    side = geo.sites_per_side
    rng = np.random.default_rng(7)
    reports = []
    while len(reports) < 100:
        tau = rng.normal(size=(side, side)) * 0.35
        nl = 1 + rng.integers(0, 2)
        for q in rng.choice(16, size=nl, replace=False):
            i, j = divmod(int(q), 4)
            u = rng.uniform(15.0, 70.0)
            blk = rng.normal(size=(3, 3))
            blk *= np.sqrt(u / (lam * bigK)
                           / (np.sum(blk ** 2) * geo.site_weight))
            tau[i * 3:(i + 1) * 3, j * 3:(j + 1) * 3] = blk
        fld = FieldConfig.from_tau(geo, tau)
        assign = classify_squares(fld, params, geo)
        if assign.labels.max() != 1 or (assign.labels > 0).sum() != nl:
            continue
        regions = build_regions(assign, geo, corridorM=params.corridorM)
        covset = build_Cgamma(params, geo, CUT, regions, pad=2,
                              routes="direct")
        dc = build_deltaC(params, geo, CUT, regions, pad=2)
        compute_Zgamma(covset, regions)
        reports.append(damping_report(fld, params, regions, covset, dc,
                                      assign))
    consts = [r.required_const for r in reports]
    fit = max(consts[:50])
    assert np.isfinite(fit) and fit > 0
    assert max(consts[50:]) <= 3.0 * fit
    scale = params.bigN ** (-0.4)
    for r in reports:
        assert r.log_value <= -0.49 * r.mass_large \
            + 3.0 * fit * scale * r.mass_small

    for bigN, samples in ((10 ** 4, 1200), (10 ** 6, 800)):
        p = derive_params(1.0, 1.0, bigN, corridor_override=2.0)
        sn = single_square_normalization(p, CUT, sites_per_square=3,
                                         samples=samples, seed=5)
        assert abs(sn.value - 1.0) <= bigN ** (-0.2)
    assert time.perf_counter() - t0 < 600.0
    report(10, "pointwise integrand bound and square normalization")


def test_criterion_11_two_point_decay():
    t0 = time.perf_counter()
    import dataclasses
    geo = LatticeGeometry(n=4, sites_per_square=3)
    params = derive_params(1.0, 1.0, 10 ** 4)
    free = dataclasses.replace(params, g=0.0)
    res_free = estimate_S2(free, geometry=geo, n_samples=100)
    assert abs(res_free.fitted_mprime / params.m - 1.0) < 0.05

    res = estimate_S2(params, geometry=geo, n_samples=10 ** 4, seed=1)
    assert 0.7 < res.fitted_mprime / params.m < 1.3
    assert res.fit_residual >= 0.95
    assert res.phase_diagnostic >= 0.05

    geo_scan = LatticeGeometry(n=4, sites_per_square=2)
    rows = mass_vs_N_scan(
        [derive_params(1.0, 1.0, n) for n in (10 ** 3, 10 ** 4, 10 ** 5)],
        geometry=geo_scan, n_samples=2000, seed=2)
    assert [r["bigN"] for r in rows] == [10 ** 3, 10 ** 4, 10 ** 5]
    assert time.perf_counter() - t0 < 1800.0
    report(11, "two-point decay mass and N-scan")


def test_criterion_12_polymer_sum():
    t0 = time.perf_counter()
    rho = activity_threshold()
    assert rho > 0.0
    total = polymer_activity_sum(rho)
    assert total.total <= 0.5 + 1e-12
    assert np.isfinite(total.tail)
    assert total.counts == {1: 1, 2: 4, 3: 18, 4: 76, 5: 315, 6: 1296}
    assert time.perf_counter() - t0 < 60.0
    report(12, "polymer activity sum at the threshold")
