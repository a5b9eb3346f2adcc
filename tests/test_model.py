"""Tests for the gap equation and derived model parameters.

Expected values marked as oracle-frozen were computed beforehand with an
independent 30-digit mpmath quadrature + plain bisection implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmagap.model import (ModelParams, derive_params, gap_constant, gap_lhs,
                            leading_mass, solve_gap_equation)

# oracle-frozen roots (independent mpmath bisection, 30 digits)
ORACLE_M2 = {
    (4 * np.pi, 1e12, "sharp"): 0.5819767068682548,      # = 1/(e-1)
    (np.pi, 1.0, "sharp"): 0.016334534743676182,
    (0.8, 1.0, "exponential"): 8.4612911351116084e-8,
    (1.0, 1.0, "exponential"): 1.957999957797438e-6,
    (2.0, 1.0, "exponential"): 1.0481010885973826e-3,
    (3.0, 1.0, "exponential"): 8.4977502803379197e-3,
}


def test_sharp_closed_form_large_K():
    # 2m^2/(lam K) term negligible at K=1e12: root is 1/(e-1)
    m2 = solve_gap_equation(4 * np.pi, 1e12, "sharp")
    assert m2 == pytest.approx(1.0 / (np.e - 1.0), rel=1e-10)


@pytest.mark.parametrize("key", sorted(ORACLE_M2, key=repr))
def test_gap_roots_against_oracle(key):
    lam, K, reg = key
    assert solve_gap_equation(lam, K, reg) == pytest.approx(ORACLE_M2[key], rel=1e-10)


@pytest.mark.parametrize("lam", [0.7, 1.0, 2.0, 3.0])
def test_residual_under_independent_quadrature(lam):
    """Re-evaluate the gap-equation residual with a different quadrature split."""
    from scipy.integrate import quad
    m2 = solve_gap_equation(lam, 1.0, "exponential")
    pieces = [quad(lambda s: 1.0 / (s * np.exp(s) + m2), a, b,
                   limit=500, epsrel=1e-13, epsabs=1e-15)[0]
              for a, b in [(0, 0.3), (0.3, 2.0), (2.0, 25.0), (25.0, 80.0)]]
    resid = sum(pieces) / (8 * np.pi) - m2 / lam - 0.5 / lam
    assert abs(resid) < 1e-10


def test_gap_constant_exponential():
    # asymptotics give c_m = e^{-euler_gamma} ~ 0.5615, NOT ~1; pin the
    # computed value so regressions in the solver are caught either way
    c = gap_constant(1.0, 1.0, "exponential")
    assert c == pytest.approx(0.56145905902, rel=1e-7)
    assert c == pytest.approx(np.exp(-np.euler_gamma), rel=1e-5)


def test_leading_mass():
    assert leading_mass(4 * np.pi) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert leading_mass(1.0) == pytest.approx(3.4873e-6, rel=1e-4)
    vals = [leading_mass(l) for l in [0.5, 0.4, 0.3, 0.2, 0.1]]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # -> 0 monotonically


def test_m2_monotone_in_lambda():
    lams = [0.7, 1.0, 1.5, 2.0, 2.5, 3.0]
    m2s = [solve_gap_equation(l, 1.0, "exponential") for l in lams]
    assert all(a < b for a, b in zip(m2s, m2s[1:]))


def test_derive_params_basic():
    p = derive_params(1.0, 1.0, 10**6)
    assert p.g == pytest.approx(1e-3, rel=1e-14)
    assert p.epsilon == pytest.approx(3.981071705534972e-3, rel=1e-12)
    assert p.g ** 2 * p.bigN == pytest.approx(p.lam * p.bigK, rel=1e-12)
    assert p.corridorM == pytest.approx(2.0 / p.m * np.log(1e6), rel=1e-12)

    p2 = derive_params(1.0, 1.0, 100)
    assert p2.epsilon == pytest.approx(100 ** (-0.4), rel=1e-12)
    assert p2.epsilon == pytest.approx(0.15848931924611134, rel=1e-12)


def test_mass_window_moderate_coupling():
    # for moderate coupling 2/pi < lam < pi the mass lies in (e^{-10}, 1/6);
    # with the true prefactor c_m = e^{-euler_gamma} the lower bound fails
    # marginally in a sliver near lam = 2/pi (m = 3.91e-5 < e^{-10} = 4.54e-5
    # at the endpoint), so the window is checked at interior couplings
    for lam in (0.7, 1.0, 2.0, 3.0, np.pi * 0.999):
        p = derive_params(lam, 1.0, 4)
        assert np.exp(-10) < p.m < 1.0 / 6.0


def test_derive_params_rejects_odd_N():
    with pytest.raises(ValueError):
        derive_params(1.0, 1.0, 7)


def test_no_root_error():
    with pytest.raises(ValueError):
        solve_gap_equation(1e-3, 1.0, "sharp")  # right side exceeds left everywhere


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(lam=1, bigK=1, bigN=4, g=0.5, m=0.1,
                    epsilon=1.5, corridorM=3.0)
    with pytest.raises(ValueError):
        ModelParams(lam=-1, bigK=1, bigN=4, g=0.5, m=0.1,
                    epsilon=0.5, corridorM=3.0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.7, max_value=3.5))
def test_gap_lhs_decreasing_and_root_brackets(lam):
    m2 = solve_gap_equation(lam, 1.0, "exponential")
    # left side decreasing in m^2 around the root
    assert (gap_lhs(0.5 * m2, "exponential") > gap_lhs(m2, "exponential")
            > gap_lhs(2.0 * m2, "exponential"))
    assert 0 < m2 < 1
