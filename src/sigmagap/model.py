"""Model constants and the mass-gap equation.

The action for the auxiliary field tau contains no term linear in tau
precisely when the mass parameter m solves the gap equation

    (1/2) * int d^2p/(2pi)^2  1/(p^2 e^{p^2} + m^2)  =  m^2/(lam*K) + 1/(2*lam)

(exponential UV regulator; units where the UV scale is 1).  For a sharp
momentum cutoff at |p| = 1 the left side has the closed form
(1/4pi) ln((1+m^2)/m^2).  The solution behaves as m^2 = c_m e^{-4pi/lam}
for small lam; we report c_m numerically rather than trusting any
asymptotic claim about its value.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

REGULATORS = ("sharp", "exponential")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants plus the derived scales used downstream.

    lam, bigK, bigN are the inputs; g = sqrt(lam*K/N) is the effective
    coupling, m the gap mass, epsilon the large-field covariance floor
    (default N^{-2/5}) and corridorM the security-belt width (default
    (2/m) ln N, usually overridden at desk scale).
    """

    lam: float
    bigK: float
    bigN: int
    g: float
    m: float
    epsilon: float
    corridorM: float

    def __post_init__(self):
        if not (self.lam > 0 and self.bigK > 0):
            raise ValueError("lam and bigK must be positive")
        if self.bigN < 2:
            raise ValueError("bigN must be >= 2")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0,1)")
        if not self.corridorM > 0:
            raise ValueError("corridorM must be positive")


def gap_lhs(m2: float, regulator: str) -> float:
    """Left side of the gap equation, (1/2) int d^2p/(2pi)^2 1/(p^2_reg + m^2).

    Radially, with s = p^2, this is (1/8pi) int_0^inf ds / (s e^s + m^2)
    for the exponential regulator.  The integrand decays like e^{-s}/s, so
    [0, 60] plus an analytic tail bound is ample; we split at s=1 where the
    integrand still remembers the 1/(s+m^2) singularity scale.
    """
    if regulator == "sharp":
        # (1/2) * (1/4pi) ln((1+m^2)/m^2)
        return np.log1p(1.0 / m2) / (8.0 * np.pi)
    if regulator != "exponential":
        raise ValueError(f"unknown regulator {regulator!r}")
    val1, _ = quad(lambda s: 1.0 / (s * np.exp(s) + m2), 0.0, 1.0,
                   limit=400, epsabs=0.0, epsrel=1e-13)
    val2, _ = quad(lambda s: 1.0 / (s * np.exp(s) + m2), 1.0, 60.0,
                   limit=400, epsabs=1e-16, epsrel=1e-13)
    # tail: int_60^inf ds/(s e^s) < e^{-60}/60
    return (val1 + val2) / (8.0 * np.pi)


@functools.lru_cache(maxsize=128)
def solve_gap_equation(lam: float, bigK: float, regulator: str, /) -> float:
    """Solve the gap equation for m^2 by bracketed root finding.

    Returns m^2 to relative tolerance 1e-12.  Both sides are monotone in
    m^2 (left decreasing, right increasing) so the root is unique; raises
    ValueError if the bracket [1e-30, 1] shows no sign change, which
    signals lam or K outside the regime m < cutoff.  The root is cached
    on the arguments, so parameters derived at several N share one solve;
    a call that raises is not cached and raises again.  Every argument is
    required and positional, so each root has one cache key.
    """
    if not (lam > 0 and bigK > 0):
        raise ValueError("lam and bigK must be positive")

    def resid(m2):
        return gap_lhs(m2, regulator) - m2 / (lam * bigK) - 1.0 / (2.0 * lam)

    lo, hi = 1e-30, 1.0
    if resid(lo) * resid(hi) > 0:
        raise ValueError(
            f"gap equation has no root in [{lo}, {hi}] for lam={lam}, K={bigK}")
    # xtol must be far below the smallest root of interest (m^2 ~ 1e-9 at
    # lam = 0.7); the default absolute xtol of 2e-12 is not
    return brentq(resid, lo, hi, rtol=8.9e-16, xtol=1e-26, maxiter=400)


def leading_mass(lam: float) -> float:
    """Leading small-lam asymptotic of m^2, namely e^{-4pi/lam}."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    return float(np.exp(-4.0 * np.pi / lam))


def gap_constant(lam: float, bigK: float, regulator: str) -> float:
    """c_m = m^2 e^{4pi/lam}, the prefactor of the asymptotic mass formula."""
    return solve_gap_equation(lam, bigK, regulator) / leading_mass(lam)


def derive_params(lam: float, bigK: float, bigN: int,
                  corridor_override: float | None = None) -> ModelParams:
    """Fill in g, m, epsilon, corridorM from the three physical inputs.

    m solves the gap equation of the exponential regulator, the
    propagator 1/(q^2 e^{q^2} + m^2) that the kernels implement.

    bigN must be even (a factor N/2 is absorbed in the determinant weight
    throughout).  corridorM defaults to (2/m) ln N, which at small m
    exceeds any tractable lattice; callers override it for desk-scale
    geometry, with thresholds rescaled accordingly.
    """
    bigN = int(bigN)
    if bigN < 2:
        raise ValueError("bigN must be >= 2")
    if bigN % 2 != 0:
        raise ValueError("bigN must be even")
    m2 = solve_gap_equation(lam, bigK, "exponential")
    m = float(np.sqrt(m2))
    g = float(np.sqrt(lam * bigK / bigN))
    eps = float(bigN ** (-0.4))
    corridor = (2.0 / m) * np.log(bigN)
    if corridor_override is not None:
        corridor = float(corridor_override)
    return ModelParams(lam=lam, bigK=bigK, bigN=bigN, g=g, m=m,
                       epsilon=eps, corridorM=corridor)
