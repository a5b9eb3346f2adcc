"""Command-line orchestrator: config parsing, results persistence,
exit codes, and subcommand dispatch."""

import csv
import dataclasses
import itertools
import os
import pathlib
import types

import numpy as np
import pytest

from sigmagap import cli, covariance, model, operators
from sigmagap.cli import (
    ConfigError,
    ResultsTable,
    RunConfig,
    build_config,
    main,
    parse_config_file,
    persist_results,
    run_hash,
    _fmt,
)
from sigmagap.regions import FieldConfig
from sigmagap.twopoint import SignProblemError

# accept-all --profile quick's results.csv at the default config
REFERENCE_QUICK = pathlib.Path(__file__).with_name(
    "reference_results_quick.csv")


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_sections_and_values(self, tmp_path):
        path = write_config(tmp_path, """
[model]
lambda = 2.0
N = 10000
# comment
[sampler]
seed = 7
""")
        values = parse_config_file(path)
        assert values == {"lam": 2.0, "bigN": 10000, "seed": 7}

    def test_unknown_key_is_named(self, tmp_path):
        path = write_config(tmp_path, "[model]\nlambada = 1\n")
        with pytest.raises(ConfigError, match="model.lambada"):
            parse_config_file(path)

    def test_invalid_value_is_named(self, tmp_path):
        path = write_config(tmp_path, "[model]\nN = three\n")
        with pytest.raises(ConfigError, match="model.N"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path, "[model]\njust a line\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/run.cfg")

    def test_validation_rejects_odd_N(self):
        with pytest.raises(ConfigError, match="model.N"):
            RunConfig(bigN=10001).validate()

    def test_validation_rejects_bad_regulator(self):
        with pytest.raises(ConfigError, match="regulator"):
            RunConfig(regulator="cubic").validate()

    @pytest.mark.parametrize("field, value, message", [
        ("lam", 0.0, "model.lambda must be positive"),
        ("bigK", -1.0, "model.K must be positive"),
        ("cutoff_c", 0.0, "cutoff.c must be positive"),
        ("n", 0, "geometry.n must be >= 1"),
        ("sites_per_square", 0, "geometry.sites_per_square must be >= 1"),
        ("samples", 0, "sampler.samples must be >= 1"),
    ])
    def test_validation_names_the_config_key(self, field, value, message):
        with pytest.raises(ConfigError) as exc:
            RunConfig(**{field: value}).validate()
        assert str(exc.value) == f"config key {message}"

    def test_params_take_the_kernels_regulator(self):
        # the kernels implement the exponential regulator; model.regulator
        # selects criterion 01's gap equation alone
        assert RunConfig(regulator="sharp").params == RunConfig().params

    def test_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, "[model]\nlambda = 2.0\nK = 3.0\n")
        args = cli.make_parser().parse_args(
            ["gap-solve", "--config", path, "--lambda", "5.0"])
        cfg = build_config(args)
        assert cfg.lam == 5.0 and cfg.bigK == 3.0

    def test_hash_depends_on_values(self):
        a = RunConfig().config_hash
        b = RunConfig(seed=1).config_hash
        assert a != b and len(a) == 16

    @staticmethod
    def hash_of(argv):
        args = cli.make_parser().parse_args(argv)
        return run_hash(build_config(args), args)

    def test_hash_leaves_out_output_dir(self):
        assert RunConfig(outdir="a").config_hash \
            == RunConfig(outdir="b").config_hash
        assert self.hash_of(["accept-all", "--out", "a"]) \
            == self.hash_of(["accept-all", "--out", "b"])

    def test_hash_covers_subcommand_flags(self):
        pairs = [(["accept-all", "--profile", "quick"],
                  ["accept-all", "--profile", "full"]),
                 (["twopoint"], ["twopoint", "--separations", "2,2.5"]),
                 (["forest-verify"], ["forest-verify", "--max-size", "5"]),
                 (["forest-verify"], ["forest-verify", "--trials", "10"])]
        for a, b in pairs:
            assert self.hash_of(a) != self.hash_of(b), b


class TestPersistence:
    def make_table(self, monkeypatch):
        # a clock that reads 2.5 ms, then 1 ms later at each reading,
        # fixes every runtime
        ticks = itertools.count(2.5e-3, 1e-3)
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            perf_counter=lambda: next(ticks)))
        t = ResultsTable("abc123")
        t.clock = 0.0
        t.add("check-a", "model", "ref-a", 1.0 / 3.0, 1e-10, True)
        t.add("check-b", "kernels", "ref-b", 0.5, 0.1, False)
        return t

    def test_seventeen_digit_reals(self):
        assert _fmt(1.0 / 3.0) == "0.33333333333333331"
        assert _fmt(True) == "1"

    def test_csv_layout_and_hash(self, tmp_path, monkeypatch):
        (path,) = persist_results(self.make_table(monkeypatch),
                                  str(tmp_path))
        lines = open(path).read().splitlines()
        assert lines[0] == "# config_hash=abc123"
        assert lines[1].startswith("check_id,module,reference,value")
        assert len(lines) == 4
        assert lines[2].split(",")[3] == "0.33333333333333331"

    def test_byte_identical_rerun(self, tmp_path, monkeypatch):
        persist_results(self.make_table(monkeypatch), str(tmp_path))
        first = open(tmp_path / "results.csv", "rb").read()
        persist_results(self.make_table(monkeypatch), str(tmp_path))
        assert open(tmp_path / "results.csv", "rb").read() == first

    def test_empty_table_is_header_only(self, tmp_path):
        (path,) = persist_results(ResultsTable("x"), str(tmp_path))
        lines = open(path).read().splitlines()
        assert len(lines) == 2

    def test_all_passed(self, monkeypatch):
        t = self.make_table(monkeypatch)
        assert not t.all_passed
        t2 = ResultsTable("h")
        t2.add("a", "m", "r", 0.0, 1.0, True)
        assert t2.all_passed


class TestExitCodes:
    def test_config_error_exits_2(self, tmp_path):
        path = write_config(tmp_path, "[model]\nbogus = 1\n")
        assert main(["gap-solve", "--config", path]) == cli.EXIT_CONFIG

    def test_gap_solve_passes(self, tmp_path):
        code = main(["gap-solve", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert (tmp_path / "results.csv").exists()

    def test_sign_problem_maps_to_3(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise SignProblemError("phase average too small")
        monkeypatch.setattr(cli.tp, "estimate_S2", boom)
        code = main(["twopoint", "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC

    def test_numerical_abort_maps_to_3(self, tmp_path, monkeypatch):
        def boom(cfg, table, size):
            raise ArithmeticError("grid too coarse")
        monkeypatch.setattr(cli, "run_covariance_checks", boom)
        monkeypatch.setitem(cli.COMMANDS, "covariance",
                            cli._table_command(boom))
        code = main(["covariance", "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC

    @pytest.mark.parametrize("argv", [
        ["twopoint", "--separations", "1,abc"],
        ["twopoint", "--separations", "0,50"],
        ["twopoint", "--samples", "10"],
        ["forest-verify", "--max-size", "0"],
        ["forest-verify", "--max-size", "8"],
        ["forest-verify", "--trials", "0"],
        ["decompose", "--cutoff-c", "3"],
        ["twopoint", "--n", "3", "--sites", "2", "--samples", "20"],
        ["gap-solve", "--cutoff-c", "0"],
        ["accept-all", "--K", "-1"],
        ["gap-solve", "--lambda", "1000"],
        ["twopoint", "--samples", "20", "--separations=-3,2,2.5"],
        ["twopoint", "--samples", "20", "--separations", "2,2.1,2.5"],
        ["twopoint", "--separations", "-3,2,2.5"],
        ["twopoint", "--samples", "abc"],
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gap-solve"],
        ["twopoint", "--n", "4", "--sites", "2", "--samples", "40"],
    ])
    @pytest.mark.parametrize("blocked", ["under-a-file", "read-only"])
    def test_unwritable_out_exits_2_before_any_work(self, tmp_path, capsys,
                                                    monkeypatch, argv,
                                                    blocked):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.setattr(cli, "solve_gap_equation", no_work)
        monkeypatch.setattr(cli.tp, "estimate_S2", no_work)
        if blocked == "under-a-file":
            parent = tmp_path / "file"
            parent.write_text("")
            reason = f"{parent} is not a directory"
        else:
            parent = tmp_path
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
            reason = f"permission denied on {parent}"
        out = parent / "x"
        assert main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: cannot write {out}: {reason}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["gap-solve"], "results.csv"),
        (["twopoint", "--n", "4", "--sites", "2", "--samples", "20"],
         "twopoint.csv"),
    ])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, argv,
                                            name):
        (tmp_path / name).mkdir()
        assert main(argv + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: cannot write {tmp_path / name}: "
                       "Is a directory"]

    @pytest.mark.parametrize("argv", [["--help"], ["twopoint", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: sigmagap" in capsys.readouterr().out

    def test_failed_check_exits_1(self, tmp_path, monkeypatch):
        def red(cfg, table, size):
            table.add("forced", "model", "ref", 1.0, 0.5, False)
        monkeypatch.setitem(cli.COMMANDS, "gap-solve",
                            cli._table_command(red))
        assert main(["gap-solve", "--out", str(tmp_path)]) \
            == cli.EXIT_CHECK


def test_small_setup_draws_once_through_the_cached_root(monkeypatch):
    # criteria 04, 05 and 09 each read one draw tau = R z of C0 at the
    # config's seed, R the PSD root of C0's kernel entries, formed once
    covariance._assembly_cached.cache_clear()
    formed = []
    real = covariance.gaussian_root
    monkeypatch.setattr(covariance, "gaussian_root",
                        lambda mat: formed.append(mat.shape) or real(mat))
    cfg = RunConfig(seed=5)
    for scale in (1.0, 0.4, 0.4):
        params, geo, fld = cli._small_setup(cfg, scale)
    assert formed == [(144, 144)]
    c0 = covariance.build_C0(params, geo, cfg.cutoff())
    root = real(c0.weighted / c0.site_weight)
    z = np.random.default_rng(5).standard_normal((1, 144))
    assert isinstance(fld, FieldConfig) and fld.tau.shape == (12, 12)
    assert np.array_equal(fld.tau.reshape(1, -1), 0.4 * (z @ root.T))


class TestCriterion11Rows:
    """Negative controls for criterion 11's interacting gates: a low phase
    and a deviation that grows with N fail their rows (exit 1) instead of
    aborting the run (exit 3)."""

    @staticmethod
    def run(out, monkeypatch, *flags, **inputs):
        """accept-all running criterion 11 alone, on the given inputs."""
        size = dict(cli.PROFILES["full"], free_runs=(), mass_runs=(),
                    fit_runs=(), scans=())
        size.update(inputs)
        monkeypatch.setitem(cli.PROFILES, "quick", size)
        monkeypatch.setitem(cli.COMMANDS, "accept-all", cli._table_command(
            cli.criterion_11_two_point_decay))
        code = main(["accept-all", "--out", str(out), *flags])
        with open(out / "results.csv") as fh:
            return code, {r[0]: r[:6] for r in csv.reader(fh.readlines()[1:])}

    # the full profile's fit runs, and the quick profile's inputs (mass
    # runs only, no fit runs)
    @pytest.mark.parametrize("inputs", [
        {"fit_runs": ((2, 120, 0),)},
        {"mass_runs": cli.PROFILES["quick"]["mass_runs"]}])
    def test_low_phase_fails_its_row(self, tmp_path, monkeypatch, inputs):
        real = cli.tp.estimate_S2

        def low_phase(*args, phase_floor=0.05, **kwargs):
            # reports phase 0.04 and, like estimate_S2, raises when the
            # floor is above it
            if phase_floor > 0.04:
                raise SignProblemError("phase average 0.04 below the floor")
            res = real(*args, phase_floor=phase_floor, **kwargs)
            return dataclasses.replace(res, phase_diagnostic=0.04)

        code, good = self.run(tmp_path / "a", monkeypatch, **inputs)
        assert code == cli.EXIT_OK
        monkeypatch.setattr(cli.tp, "estimate_S2", low_phase)
        code, bad = self.run(tmp_path / "b", monkeypatch, **inputs)
        assert code == cli.EXIT_CHECK
        row = bad.pop("twopoint-phase")
        assert float(row[3]) == 0.04 and row[5] == "0"
        assert good.pop("twopoint-phase")[5] == "1"
        assert bad == good

    @pytest.mark.parametrize("growth,code,passed", [
        (0.0, cli.EXIT_OK, "1"), (1e-6, cli.EXIT_CHECK, "0")])
    def test_scan_row_is_the_largest_excess(self, tmp_path, monkeypatch,
                                            drifting_fit, growth, code,
                                            passed):
        # deviations 1e-3, 1e-2, 1e-1 grow past a slack of 2.8e-3
        monkeypatch.setattr(cli.tp, "estimate_S2", drifting_fit(growth))
        got, rows = self.run(tmp_path, monkeypatch, scans=(
            (2, 20, 2, (10 ** 3, 10 ** 4, 10 ** 5)),))
        assert got == code
        row = rows["twopoint-n-scan"]
        assert row[4:] == ["0", passed]
        assert (float(row[3]) > 0.08) == (growth > 0.0)

    def test_every_run_sees_the_configured_cutoff(self, tmp_path,
                                                  monkeypatch):
        # the free, mass and scan runs all draw under --cutoff-c
        seen = []

        def spy(params, cutoff=None, **kwargs):
            seen.append(getattr(cutoff, "c", None))
            return types.SimpleNamespace(
                fitted_mprime=params.m, gap_mass=params.m,
                mprime_stderr=1e-3 * params.m, phase_diagnostic=1.0,
                fit_residual=1.0)

        monkeypatch.setattr(cli.tp, "estimate_S2", spy)
        code, _ = self.run(tmp_path, monkeypatch, "--cutoff-c", "1.5",
                           free_runs=((2, 20, 0),), mass_runs=((2, 20, 1),),
                           scans=((2, 20, 2, (10 ** 3, 10 ** 4)),))
        assert code == cli.EXIT_OK
        assert seen == [1.5] * 4

    def test_full_runs_solve_the_gap_equation_once(self, tmp_path,
                                                   monkeypatch):
        # m depends on (lambda, K), not on N, so the N-scan's
        # parameters reuse the run's solve; each real solve is one brentq
        solves = []
        real = model.brentq

        def counted(*args, **kwargs):
            solves.append(args)
            return real(*args, **kwargs)

        def fit(params, **kwargs):
            return types.SimpleNamespace(
                fitted_mprime=params.m, gap_mass=params.m,
                mprime_stderr=1e-3 * params.m, phase_diagnostic=1.0,
                fit_residual=1.0)

        monkeypatch.setattr(cli.tp, "estimate_S2", fit)
        model.solve_gap_equation.cache_clear()
        monkeypatch.setattr(model, "brentq", counted)
        full = cli.PROFILES["full"]
        code, _ = self.run(tmp_path, monkeypatch, **{
            k: full[k] for k in ("free_runs", "mass_runs", "fit_runs",
                                 "scans")})
        assert code == cli.EXIT_OK
        assert len(solves) == 1


@pytest.fixture(scope="module")
def quick_battery(tmp_path_factory, forbid_scipy_linalg):
    """Exit code and results.csv lines of accept-all --profile quick, the
    roots its gap-equation solves found (one brentq per solve), and the
    scipy.linalg functions it ran without: every public one is a stub
    that raises (forbid_scipy_linalg), so the whole battery's process
    runs its dense linear algebra on numpy's BLAS pool alone, but for the
    two-point sampler's scipy blas and lapack calls."""
    out = tmp_path_factory.mktemp("quick")
    roots = []
    real = model.brentq

    def counted(*args, **kwargs):
        roots.append(real(*args, **kwargs))
        return roots[-1]

    model.solve_gap_equation.cache_clear()
    # the cached grid assemblies hold the once-per-grid factorizations
    covariance._assembly_cached.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "brentq", counted)
        forbidden = forbid_scipy_linalg(mp)
        code = main(["accept-all", "--profile", "quick", "--out", str(out)])
    return (code, open(out / "results.csv").read().splitlines(), roots,
            forbidden)


class TestSubcommands:
    def test_kernels_battery(self, tmp_path):
        assert main(["kernels", "--out", str(tmp_path)]) == 0
        body = open(tmp_path / "results.csv").read()
        assert "propagator-decay" in body
        assert "bubble-test-mode" in body

    def test_decompose_and_opcheck(self, tmp_path):
        assert main(["decompose", "--out", str(tmp_path)]) == 0
        assert main(["opcheck", "--out", str(tmp_path)]) == 0

    def test_forest_verify_with_flags(self, tmp_path):
        code = main(["forest-verify", "--out", str(tmp_path),
                     "--max-size", "5", "--trials", "10"])
        assert code == 0

    def test_forest_verify_hash_covers_the_values_it_runs_at(self,
                                                             tmp_path):
        # the quick profile's max size and trials, given as flags
        def rows(out, *flags):
            assert main(["forest-verify", "--out", str(out), *flags]) == 0
            lines = open(out / "results.csv").read().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        quick = cli.PROFILES["quick"]
        assert rows(tmp_path / "a") == rows(
            tmp_path / "b", "--max-size", str(quick["max_size"]),
            "--trials", str(quick["trials"]))

    def test_twopoint_solves_the_gap_equation_once(self, tmp_path,
                                                   monkeypatch):
        calls = []
        real = model.solve_gap_equation

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "solve_gap_equation", counted)
        assert main(["twopoint", "--N", "10000", "--sites", "2",
                     "--samples", "40", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_forest_verify_runs_the_quick_profile(self, tmp_path,
                                                  quick_battery):
        # without flags forest-verify runs accept-all's quick-profile gate
        assert main(["forest-verify", "--out", str(tmp_path)]) == 0

        def positivity(lines):
            rows = {r[0]: r[:6] for r in csv.reader(lines[1:])}
            return rows["interpolated-positivity"]

        body = open(tmp_path / "results.csv").read().splitlines()
        assert positivity(body) == positivity(quick_battery[1])

    def test_quick_profile_checks_region_invariants(self, quick_battery):
        rows = {r[0]: r for r in csv.reader(quick_battery[1][1:])}
        for check in ("region-invariants", "corridor-distance"):
            assert rows[check][5] == "1"

    def test_decompose_catches_swapped_label(self, tmp_path, monkeypatch):
        # negative control at the quick profile: one square moved from
        # Lambda_l to Lambda_s in every region configuration that has one
        real = cli.build_regions

        def swapped(*args, **kwargs):
            reg = real(*args, **kwargs)
            if reg.lambda_l:
                sq = min(reg.lambda_l)
                reg = dataclasses.replace(reg, lambda_l=reg.lambda_l - {sq},
                                          lambda_s=reg.lambda_s | {sq})
            return reg

        monkeypatch.setattr(cli, "build_regions", swapped)
        assert main(["decompose", "--out", str(tmp_path)]) == cli.EXIT_CHECK
        rows = {r[0]: r for r in csv.reader(
            open(tmp_path / "results.csv").readlines()[1:])}
        assert rows["region-invariants"][5] == "0"
        assert rows["corridor-distance"][5] == "1"

    def test_twopoint_csv_deterministic(self, tmp_path):
        argv = ["twopoint", "--N", "10000", "--sites", "2",
                "--samples", "40", "--seed", "3",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = open(tmp_path / "twopoint.csv", "rb").read()
        assert main(argv) == 0
        assert open(tmp_path / "twopoint.csv", "rb").read() == first
        header = first.decode().splitlines()
        assert header[1] == "sep,re_mean,im_mean,se,weight_phase_diag"
        assert any(line.startswith("# fitted_mprime=")
                   for line in header)

    def test_twopoint_seed_changes_mc_rows(self, tmp_path):
        base = ["twopoint", "--N", "10000", "--sites", "2",
                "--samples", "40", "--out", str(tmp_path)]
        main(base + ["--seed", "3"])
        a = open(tmp_path / "twopoint.csv").read()
        main(base + ["--seed", "4"])
        b = open(tmp_path / "twopoint.csv").read()
        assert a != b

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGMAGAP_OUTDIR", str(tmp_path / "envout"))
        assert main(["gap-solve"]) == 0
        assert (tmp_path / "envout" / "results.csv").exists()

    @staticmethod
    def _opcheck_with_flipped_square(tmp_path, monkeypatch, route, square):
        """opcheck's rows with cli's route subtracting the square term of
        det_3 instead of adding it; opcheck must exit EXIT_CHECK."""
        real = getattr(cli, route)

        def flipped(arg, order):
            out = real(arg, order)
            if order >= 3:
                out -= square(arg)
            return out

        monkeypatch.setattr(cli, route, flipped)
        assert main(["opcheck", "--out", str(tmp_path)]) == cli.EXIT_CHECK
        return {r[0]: r for r in csv.reader(open(tmp_path / "results.csv"))}

    def test_opcheck_dual_route_catches_flipped_square_term(
            self, tmp_path, monkeypatch):
        # negative control: +lam^2/2 turned into -lam^2/2 in the eigenvalue
        # route's det_3; both det_3 rows compare it with the matrix route
        rows = self._opcheck_with_flipped_square(
            tmp_path, monkeypatch, "log_det_n",
            lambda lam: np.sum(np.asarray(lam) ** 2))
        assert rows["det3-dual-route"][5] == "0"
        assert rows["det3-symmetrization"][5] == "0"

    def test_opcheck_dual_route_catches_flipped_matrix_square_term(
            self, tmp_path, monkeypatch):
        # mirror control: +(1/2) sum K o K^T turned into its negative in
        # the matrix route's det_3
        rows = self._opcheck_with_flipped_square(
            tmp_path, monkeypatch, "log_det_n_matrix",
            lambda k: np.sum(k * k.T))
        assert rows["det3-dual-route"][5] == "0"
        assert rows["det3-symmetrization"][5] == "0"

    def test_det_split_catches_a_relative_fault_in_log_det_b(self,
                                                             monkeypatch):
        # negative control: log det(1 + B), det_split_identity's third LU,
        # scaled by 1 + 1e-6 (det_2 shifted with it) over criterion 05's
        # full fields; |log det(1 + B)| is at most 5.5e-4 there
        real, calls = operators.log_det_n_matrix, []

        def scaled(k, order):
            out = real(k, order)
            calls.append(k)
            if len(calls) % 3 == 0:  # after 1 + iA and 1 + iA_s
                out = tuple(v + 1e-6 * out[0] for v in out)
            return out

        monkeypatch.setattr(operators, "log_det_n_matrix", scaled)
        table = ResultsTable("control")
        cli.criterion_05_determinant_identities(RunConfig(), table,
                                                cli.PROFILES["full"])
        assert len(calls) == 150
        assert [r["check_id"] for r in table.rows if not r["passed"]] \
            == ["det-split-identity"]

    def test_negative_part_sign_catches_a_flipped_d1(self, monkeypatch):
        # negative control: deltaC_1 negated after build_deltaC's identity
        # check turns criterion 06's negative-part-sign red, and no other
        # row but deltac-factored-form, whose (v, deltaC v) it moves
        real = cli.cov.build_deltaC

        def flipped(*args, **kwargs):
            dc = real(*args, **kwargs)
            return dataclasses.replace(dc, d1_lambda=-dc.d1_lambda)

        monkeypatch.setattr(cli.cov, "build_deltaC", flipped)
        table = ResultsTable("control")
        cli.criterion_06_covariance_structure(RunConfig(), table,
                                              cli.PROFILES["full"])
        assert [r["check_id"] for r in table.rows if not r["passed"]] \
            == ["negative-part-sign", "deltac-factored-form"]

    @pytest.mark.parametrize("fault", ["eps", "swap", "gamma"])
    def test_factored_form_catches_a_faulted_deltac(self, monkeypatch,
                                                    fault):
        # negative controls, each faulting build_deltaC alone: deltaC_4
        # without its eps, the s and l masks swapped, one gamma square
        # moved; the splitting identity sees none of them (eps and gamma
        # cancel from it, and it holds for any partition of Lambda), so
        # criterion 06's deltac-factored-form, and only it, turns red
        real = cli.cov.build_deltaC

        def faulted(params, geometry, cutoff, regions, *args, **kwargs):
            gamma = regions.gamma
            if fault == "swap":
                regions = dataclasses.replace(
                    regions, lambda_s=regions.lambda_l,
                    lambda_l=regions.lambda_s)
            elif fault == "gamma":  # a Lambda square onto a free one
                grid = cli.cov.padded_geometry(geometry, 2)
                moved = {min(gamma & set(geometry.squares)),
                         max(set(grid.squares) - gamma)}
                regions = dataclasses.replace(regions, gamma=gamma ^ moved)
            dc = real(params, geometry, cutoff, regions, *args, **kwargs)
            if fault == "eps":
                dc = dataclasses.replace(
                    dc, d4_lambda=dc.d4_lambda / params.epsilon)
            return dc

        monkeypatch.setattr(cli.cov, "build_deltaC", faulted)
        table = ResultsTable("control")
        cli.criterion_06_covariance_structure(RunConfig(), table,
                                              cli.PROFILES["full"])
        assert [r["check_id"] for r in table.rows if not r["passed"]] \
            == ["deltac-factored-form"]

    def test_covariance_catches_truncated_series(self, tmp_path,
                                                 monkeypatch):
        # negative control: a Neumann series stopped at a 1e-3 tail
        monkeypatch.setattr(cli.cov, "NEUMANN_TOL", 1e-3)
        assert main(["covariance", "--out", str(tmp_path)]) \
            == cli.EXIT_NUMERIC

    def test_wrong_tree_formula_fails_only_its_row(self, tmp_path,
                                                   monkeypatch):
        # negative control: the Mayer tree formula off by 1e-3 fails
        # criterion 08's pytest check and forest-verify, and no other row
        from test_acceptance import run_criterion

        def rows(out):
            with open(out / "results.csv") as fh:
                return {r[0]: r[:6] for r in csv.reader(fh.readlines()[1:])}

        assert main(["forest-verify", "--out", str(tmp_path / "a")]) == 0
        real = cli.fo.mayer_tree_formula
        monkeypatch.setattr(cli.fo, "mayer_tree_formula",
                            lambda *a, **k: real(*a, **k) + 1e-3)
        with pytest.raises(AssertionError, match="mayer-dual-route"):
            run_criterion(60.0, cli.criterion_08_mayer_factors)
        assert main(["forest-verify", "--out", str(tmp_path / "b")]) \
            == cli.EXIT_CHECK
        good, bad = rows(tmp_path / "a"), rows(tmp_path / "b")
        assert bad.pop("mayer-dual-route")[5] == "0"
        assert good.pop("mayer-dual-route")[5] == "1"
        assert bad == good

    def test_accept_all_solves_each_gap_root_once(self, quick_battery):
        # the battery's two gap roots, lambda = 1 and lambda = 32, take
        # one solve each, whatever arguments each criterion passes
        roots = quick_battery[2]
        assert len(roots) == len(set(roots)) == 2

    def test_accept_all_quick_matches_the_reference(self, quick_battery):
        """Each row against the committed run at the default config: the
        hash line and every column but value and runtime_ms exactly, and
        value to 1e-8 relative, or below 1e-2 |bound| where the committed
        value is (a rounding-level residual).  A change that moves a row
        updates the file and says why; the tolerances stay."""
        _, body, _, _ = quick_battery
        ref = REFERENCE_QUICK.read_text().splitlines()
        assert body[0] == ref[0]
        got, want = (list(csv.DictReader(lines[1:])) for lines in (body, ref))
        assert [r["check_id"] for r in got] == [r["check_id"] for r in want]
        for g, w in zip(got, want):
            for key in ("module", "reference", "bound", "passed"):
                assert g[key] == w[key], (w["check_id"], key)
            value, committed = float(g["value"]), float(w["value"])
            try:
                floor = 1e-2 * abs(float(w["bound"]))
            except ValueError:  # the bracketed bound of a range
                floor = 0.0
            if abs(committed) < floor:
                assert abs(value) < floor, w["check_id"]
            else:
                assert abs(value - committed) <= 1e-8 * abs(committed), \
                    (w["check_id"], value, committed)

    def test_accept_all_quick_runs_without_scipy_linalg(self,
                                                       quick_battery):
        """The quick battery ran with every public scipy.linalg function
        stubbed to raise: it exits 0 (and matches the reference, above);
        only the sampler's blas and lapack submodules stayed."""
        code, _, _, forbidden = quick_battery
        assert code == 0
        assert {"cho_factor", "cho_solve", "cholesky", "eigh", "inv",
                "solve"} <= set(forbidden)
        assert not {"blas", "lapack"} & set(forbidden)

    def test_accept_all_quick(self, quick_battery):
        code, body, _, _ = quick_battery
        assert code == 0
        # every module contributes at least one row
        for module in ("model", "kernels", "regions", "operators",
                       "covariance", "forests", "twopoint"):
            assert any(f",{module}," in line for line in body[2:])
        # every row parses to the header's fields, the bracketed bound too
        rows = list(csv.reader(body[1:]))
        assert rows[0] == list(ResultsTable.COLUMNS)
        assert all(len(r) == 7 for r in rows)
        assert {r[0]: r[4] for r in rows}["twopoint-mass-ratio"] \
            == "[0.7,1.3]"
