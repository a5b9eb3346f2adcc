"""Acceptance gate: one test per advertised criterion, which runs the
criterion from ``sigmagap.cli`` at profile ``full`` and fails when one of
its rows fails.  Time budgets stay here: results.csv reruns must match."""

import time

from sigmagap import cli
from sigmagap.model import gap_constant

CFG = cli.RunConfig()


def run_criterion(budget_s, criterion, *cfg):
    """Run a criterion at profile full: rows written, all passed, in time."""
    table = cli.ResultsTable("acceptance")
    t0 = time.perf_counter()
    criterion(*cfg, table, cli.PROFILES["full"])
    elapsed = time.perf_counter() - t0
    table.report()
    failed = [r["check_id"] for r in table.rows if not r["passed"]]
    assert table.rows and not failed, f"failed rows: {failed}"
    assert elapsed < budget_s


def test_criterion_01_gap_equation():
    run_criterion(1.0, cli.criterion_01_gap_equation, CFG)
    for lam in cli.PROFILES["full"]["gap_lams"]:
        c_m = gap_constant(lam, 1.0, "exponential")
        # the true asymptotic constant is e^{-gamma_E} ~ 0.5615, which
        # the solver reproduces to many digits; the advertised window
        # [0.9, 1.1] does not contain it, so this check fails honestly
        assert 0.9 <= c_m <= 1.1, (
            f"c_m = {c_m:.6f} at lambda={lam}: the gap-equation constant "
            "is e^(-gamma_E) ~ 0.5615, outside the advertised [0.9, 1.1]")


def test_criterion_02_kernel_decay():
    run_criterion(60.0, cli.criterion_02_kernel_decay)


def test_criterion_03_bubble_normalization():
    run_criterion(1.0, cli.criterion_03_bubble_normalization, CFG)


def test_criterion_04_small_field_operator_norm():
    run_criterion(300.0, cli.criterion_04_small_field_operator_norm, CFG)


def test_criterion_05_determinant_identities():
    run_criterion(300.0, cli.criterion_05_determinant_identities, CFG)


def test_criterion_06_covariance_structure():
    run_criterion(300.0, cli.criterion_06_covariance_structure, CFG)


def test_criterion_07_forest_formula():
    run_criterion(120.0, cli.criterion_07_forest_formula, CFG)


def test_criterion_08_mayer_factors():
    run_criterion(60.0, cli.criterion_08_mayer_factors)


def test_criterion_09_partition_and_regions():
    run_criterion(60.0, cli.criterion_09_partition_and_regions, CFG)


def test_criterion_10_integrand_bound_and_normalization():
    run_criterion(600.0, cli.criterion_10_integrand_bound_and_normalization,
                  CFG)


def test_criterion_11_two_point_decay():
    run_criterion(1800.0, cli.criterion_11_two_point_decay, CFG)


def test_criterion_12_polymer_sum():
    run_criterion(60.0, cli.criterion_12_polymer_sum)
