"""Fixtures shared by more than one test module."""

import types

import pytest
import scipy.linalg


@pytest.fixture
def drifting_fit():
    """Factory of estimate_S2 stand-ins: drifting_fit(growth) returns fits
    with |m'/m - 1| = growth * N and standard error 1e-3 m."""
    def make(growth):
        def fit(params, geometry=None, cutoff=None, seed=0, n_samples=1000):
            return types.SimpleNamespace(
                fitted_mprime=params.m * (1.0 + growth * params.bigN),
                mprime_stderr=1e-3 * params.m, phase_diagnostic=1.0,
                fit_residual=1.0)
        return fit
    return make


@pytest.fixture(scope="session")
def forbid_scipy_linalg():
    """forbid(mp) replaces, through the MonkeyPatch mp, every public
    function of scipy.linalg with a stub that raises AssertionError
    naming it, and returns the names replaced.  The blas and lapack
    submodules, which the two-point sampler calls, stay."""
    def stub(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"scipy.linalg.{name} called")
        return raising

    def forbid(mp):
        names = [name for name in scipy.linalg.__all__
                 if callable(getattr(scipy.linalg, name))
                 and not isinstance(getattr(scipy.linalg, name), type)]
        for name in names:
            mp.setattr(scipy.linalg, name, stub(name))
        return names
    return forbid
