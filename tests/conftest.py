"""Fixtures shared by more than one test module."""

import types

import pytest


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
