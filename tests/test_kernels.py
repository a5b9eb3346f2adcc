"""Tests for the regulated kernels.

Frozen reference values were computed beforehand with an independent
40-digit mpmath Hankel quadrature (split at Bessel zeros).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.signal import fftconvolve
from scipy.special import j0

from sigmagap import kernels
from sigmagap.model import ModelParams
from sigmagap.kernels import (CUTOFF_ALPHA, CUTOFF_BIGA, CutoffSpec,
                              cutoff_enforced_values,
                              cutoff_inverse_values, cutoff_momentum_integral,
                              fit_decay_rate, polarization_kernel,
                              polarization_momentum,
                              polarization_momentum_table, pole_params,
                              propagator_kernel, propagator_values,
                              radial_grid, sqrt_one_plus_pi_kernel)


def params_for(m, lam=1.0, K=1.0, N=10**6):
    return ModelParams(lam=lam, bigK=K, bigN=N, g=np.sqrt(lam * K / N),
                       m=m, epsilon=N ** -0.4, corridorM=5.0)


# mpmath oracle, 40 digits: {(m, r): F(r)}
F_ORACLE = {
    (0.05, 0.0): 4.3294123893e-01,
    (0.05, 2.0): 3.7047354502e-01,
    (0.05, 14.0): 1.0550627323e-01,
    (0.05, 16.0): 9.0292074083e-02,
    (0.15, 5.0): 1.0039178669e-01,
    (0.15, 16.0): 1.1324066307e-02,
    (0.5, 14.0): 3.5056636831e-05,
    (0.83, 5.0): 1.4956508187e-03,   # no real pole; direct route
}


@pytest.mark.parametrize("key", sorted(F_ORACLE))
def test_propagator_against_oracle(key):
    m, r = key
    val = propagator_values(m * m, [r])[0]
    assert val == pytest.approx(F_ORACLE[key], rel=2e-9)


def test_propagator_routes_agree():
    # direct quadrature (used for r <= 15) vs the residue formula (used
    # beyond): evaluate both at the same radius inside the direct window
    from scipy.special import k0
    for m in (0.05, 0.15, 0.4):
        r = 14.5
        direct = propagator_values(m * m, [r])[0]
        residue = sum(ck * k0(mu * r) for mu, ck in pole_params(m * m)) \
            / (2 * np.pi)
        assert residue == pytest.approx(direct, rel=1e-9)


def test_pole_params():
    # s e^s = -m^2 roots; for small m: s* ~ -m^2, residue factor ~ 1
    (mu1, c1), (mu2, c2) = pole_params(0.01 ** 2)
    assert mu1 == pytest.approx(0.01, rel=1e-3)
    assert c1 == pytest.approx(1.0, rel=1e-3)
    assert mu2 > 2.0 and c2 < 0
    assert pole_params(0.5) is None  # m^2 > 1/e


@pytest.mark.parametrize("m2", [1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.3, 0.36])
def test_pole_roots_match_brentq(m2):
    # dual route: the Lambert W roots against a bracketed solve of
    # s e^s = -m^2 on (-1, 0) and (-200, -1); a root s rounded to a
    # double leaves a residual of about eps |1 + s| m^2
    from scipy.optimize import brentq

    def f(s):
        return s * np.exp(s) + m2

    eps = np.finfo(float).eps
    for (mu, ck), (lo, hi) in zip(pole_params(m2),
                                  ((-1.0, -1e-30), (-200.0, -1.0))):
        s = -mu * mu
        ref = brentq(f, lo, hi, rtol=8.9e-16, xtol=1e-25)
        assert abs(s - ref) <= 8 * eps * abs(ref)
        assert abs(f(s)) <= 8 * eps * m2 * (1.0 + abs(1.0 + s))
        assert ck == pytest.approx(1.0 / (np.exp(ref) * (1.0 + ref)),
                                   rel=1e-13)


def test_F0_matches_adaptive_radial_quadrature():
    for m in (0.1, 0.5):
        m2 = m * m
        ref = quad(lambda q: q / (q * q * np.exp(q * q) + m2) / (2 * np.pi),
                   0, 8.0, limit=400, epsrel=1e-12)[0]
        assert propagator_values(m2, [0.0])[0] == pytest.approx(ref, rel=1e-6)


def test_propagator_kernel_positive_and_symmetric():
    k = propagator_kernel(0.1)
    assert (k.values > 0).all()
    assert np.allclose(k.values, k.values[::-1, :], rtol=1e-12)
    assert np.allclose(k.values, k.values.T, rtol=1e-12)
    n = k.values.shape[0] // 2
    assert k.values[n, n] == k.values.max()  # max at origin


@pytest.mark.parametrize("n,per_unit", [(5, 3), (12, 8.0)])
def test_radial_grid_matches_hypot(n, per_unit):
    radial = lambda r: np.exp(-r) / (1.0 + r)
    i = np.arange(-n, n + 1)
    ref = radial(np.hypot(i[:, None], i[None, :]) / per_unit)
    np.testing.assert_allclose(radial_grid(radial, n, per_unit), ref,
                               rtol=4 * np.finfo(float).eps, atol=0)


def test_propagator_grid_evaluates_each_distance_once(monkeypatch):
    sizes = []

    def counting(m2, r):
        sizes.append(np.size(r))
        return propagator_values(m2, r)

    monkeypatch.setattr(kernels, "propagator_values", counting)
    k = kernels.propagator_kernel(0.1)
    assert k.values.shape == (161, 161)
    # the profile, plus the 2,461 distinct distances of the 161 x 161 grid
    assert sum(sizes) <= len(k.radial_r) + 2461


@pytest.mark.parametrize("m", [0.05, 0.1, 0.15])
def test_propagator_decay_rate(m):
    k = propagator_kernel(m)
    assert abs(k.fitted_decay_rate / m - 1.0) < 0.1
    assert k.fitted_decay_rate >= m * (1 - 0.05)


@pytest.mark.parametrize("m", [0.05, 0.15])
def test_bubble_decay_rate(m):
    p = params_for(m)
    k = polarization_kernel(p)
    assert abs(k.fitted_decay_rate / (2 * m) - 1.0) < 0.1


@pytest.mark.parametrize("m,sign", [(0.05, +1), (0.05, -1),
                                    (0.15, +1), (0.15, -1)])
def test_sqrt_kernel_decay_rate(m, sign):
    p = params_for(m)
    k = sqrt_one_plus_pi_kernel(p, sign)
    assert abs(k.fitted_decay_rate / (2 * m) - 1.0) < 0.1


def test_unregulated_bubble_analytic():
    p = params_for(0.1)
    val = polarization_momentum(0.0, p, test_mode_unregulated=True)
    assert val == pytest.approx(1.0 / (8 * np.pi * 0.01), rel=1e-6)


def test_regulated_bubble_prefactor():
    # pi(0) = C_pi * lam K/(8 pi m^2) with C_pi close to 1
    p = params_for(0.1)
    C = (polarization_momentum(0.0, p, False) * 8 * np.pi * p.m ** 2
         / (p.lam * p.bigK))
    assert 0.8 < C < 1.2
    assert C == pytest.approx(0.94025520, rel=1e-6)  # frozen measurement


def test_bubble_momentum_decreasing():
    p = params_for(0.1)
    pi0 = polarization_momentum(0.0, p, False)
    prev = pi0
    for p2 in (0.01, 0.04, 0.25, 1.0, 4.0):
        cur = polarization_momentum(p2, p, False)
        assert cur < prev
        assert cur < pi0
        prev = cur


def test_bubble_dual_routes_agree():
    # direct 2D momentum quadrature vs Hankel transform of F^2
    p = params_for(0.1)
    for p2 in (0.0, 0.04, 0.25, 1.0):
        direct = polarization_momentum(p2, p, False)
        table = polarization_momentum_table(p, [np.sqrt(p2)])[0]
        assert table == pytest.approx(direct, rel=1e-8)


def test_bubble_position_equals_F_squared():
    # pi(x) = (lam K / 2) F(x)^2: check the position kernel against a
    # direct Hankel transform of the momentum bubble at a few radii
    p = params_for(0.15)
    k = polarization_kernel(p)
    pq = np.linspace(1e-4, 6.0, 2000)
    piv = polarization_momentum_table(p, pq)
    for r in (0.5, 1.5, 3.0):
        # back-transform pi(p) -> pi(x)
        val = np.trapezoid(pq * j0(pq * r) * piv, pq) / (2 * np.pi)
        expect = 0.5 * p.lam * p.bigK * propagator_values(p.m ** 2, [r])[0] ** 2
        assert val == pytest.approx(expect, rel=1e-3)


def test_bubble_operator_inequality():
    # 0 <= pi <= pi(0) spectrally, on a small discretization
    p = params_for(0.1)
    # the table holds exact kernel values (the spline's ~5e-7
    # interpolation error would spoil exact positive semidefiniteness of
    # the sampled PD function); every second row and column of its
    # offsets -48..48 is the grid at spacing 0.25 out to 6, which the
    # 25 x 25 sites at spacing 0.25 read at their pairwise offsets
    k = polarization_kernel(p)
    mid = k.values.shape[0] // 2
    grid = k.values[mid - 48:mid + 49:2, mid - 48:mid + 49:2]
    off = np.arange(25)[:, None] - np.arange(25)[None, :] + 24
    M = grid[off[:, None, :, None], off[None, :, None, :]] \
        .reshape(625, 625) * 0.0625
    ev = np.linalg.eigvalsh(M)
    pi0 = polarization_momentum(0.0, p, False)
    assert ev.min() > -1e-10
    assert ev.max() < pi0 + 1e-10


def test_sqrt_kernels_are_inverse_pair():
    # ((1+pi)^{1/2}) ((1+pi)^{-1/2}) = 1: with G± the delta-subtracted
    # kernels this reads G+ + G- + G+ * G- = 0 on the grid
    p = params_for(0.5)
    h = kernels.GRID_STEP
    gp = sqrt_one_plus_pi_kernel(p, +1)
    gm = sqrt_one_plus_pi_kernel(p, -1)
    assert gp.delta_coeff == 1.0 and gm.delta_coeff == 1.0
    conv = fftconvolve(gp.values, gm.values, mode="same") * h * h
    resid = gp.values + gm.values + conv
    assert np.abs(resid).max() < 1e-6


def test_cutoff_values_match_quadrature_oracle():
    for c in (1.0, 0.2):
        for r in (0.3, 1.0, 2.5):
            val = cutoff_inverse_values(c, r)
            orc = quad(lambda q: q * j0(q * r) / (1 + c * q ** 4),
                       0, np.inf, limit=800)[0] / (2 * np.pi)
            assert val == pytest.approx(orc, rel=1e-6)


def test_cutoff_zero_momentum_mass():
    # f(0) = 0 so the kernel integrates to exactly 1
    for c in (1.0, 0.3):
        total = quad(lambda r: 2 * np.pi * r * cutoff_inverse_values(c, r),
                     0, 40 * c ** 0.25 + 5, limit=800)[0]
        assert total == pytest.approx(1.0, rel=1e-8)


def test_cutoff_leakage_reported():
    # the quartic form cannot have compact support: the tails at c=1 hold
    # ~76% of the absolute mass outside |x| > 1 (frozen measurement).
    # No reasonable c makes this small -- the compactly supported variant
    # is what downstream support arguments must use.
    c = 1.0

    def abs_mass(lo, hi, limit):
        return quad(lambda r: 2 * np.pi * r * abs(cutoff_inverse_values(c, r)),
                    lo, hi, limit=limit)[0]

    mass_in = abs_mass(0.0, 1.0, 200)
    mass_out = abs_mass(1.0, 60.0 * c ** 0.25 + 5.0, 400)
    leaked = mass_out / (mass_in + mass_out)
    assert leaked == pytest.approx(0.75923618, rel=1e-6)


def test_cutoff_enforced_variant():
    idx = np.arange(-32, 33) * 0.125
    D = np.hypot(idx[:, None], idx[None, :])
    # support exactly |x| <= 1
    assert np.all(cutoff_enforced_values(1.0, D)[D > 1.0] == 0.0)
    # renormalized p=0 value: integral = 1
    total = quad(lambda r: 2 * np.pi * r * cutoff_enforced_values(1.0, r),
                 0, 1.0, limit=400)[0]
    assert total == pytest.approx(1.0, rel=1e-6)
    # positive definiteness survives the taper (Wendland window is PD)
    sub = np.arange(-8, 9) * 0.25
    X, Y = np.meshgrid(sub, sub, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    DD = np.hypot(pts[:, 0, None] - pts[None, :, 0],
                  pts[:, 1, None] - pts[None, :, 1])
    M = cutoff_enforced_values(1.0, DD) * 0.0625
    ev = np.linalg.eigvalsh(M)
    assert ev.min() > -1e-12
    assert ev.max() <= 1.0 + 1e-9


def test_cutoff_momentum_power_bound():
    # int d^2p (1/(1+f))^r <= O(1) r^{-1/2}
    spec = CutoffSpec(c=1.0)
    ratios = [cutoff_momentum_integral(spec, r) * np.sqrt(r)
              for r in range(1, 41)]
    assert max(ratios) < 5.0
    assert max(ratios) / min(ratios) < 2.0


def test_cutoff_spec_validation():
    with pytest.raises(ValueError):
        CutoffSpec(c=5.0)
    for c in (CUTOFF_ALPHA, CUTOFF_BIGA):  # the range is closed
        CutoffSpec(c=c)
    with pytest.raises(ValueError, match="alpha <= c <= bigA"):
        CutoffSpec(c=0.99 * CUTOFF_ALPHA)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.6),
       st.floats(min_value=0.0, max_value=2.0))
def test_fit_recovers_synthetic_rate(rate, rho):
    r = np.linspace(0.5, 12.0 / rate, 400)
    v = r ** (-rho) * np.exp(-rate * r)
    got, resid = fit_decay_rate(r, v, prefactor_power=rho,
                                 z_window=(2.0, 7.0))
    assert got == pytest.approx(rate, rel=1e-6)
    assert resid < 1e-8
