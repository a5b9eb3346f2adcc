"""Two-point estimator: resolvent entries, determinant weights, the
reweighted ratio estimator, and the decay-mass extraction."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import lapack

from sigmagap import twopoint
from sigmagap.covariance import (_assembly_cached, build_C0, c0_root,
                                 gaussian_root)
from sigmagap.kernels import CutoffSpec, propagator_values
from sigmagap.model import derive_params, leading_mass
from sigmagap.operators import (build_A, log_det_n, propagator_factor,
                                propagator_matrix)
from sigmagap.regions import FieldConfig, LatticeGeometry
from sigmagap.twopoint import (
    SignProblemError,
    _sample_on_range,
    default_separations,
    estimate_S2,
    fit_window,
    mass_vs_N_scan,
    match_decay_mass,
    resolvent_matrix,
    sample_weight,
)

GEO = LatticeGeometry(n=4, sites_per_square=2)
CUT = CutoffSpec(c=1.0)


def make_params(lam=1.0, bigN=10 ** 4, bigK=1.0):
    return derive_params(lam, bigK, bigN)


def free_params(lam=1.0, bigN=10 ** 4):
    return dataclasses.replace(make_params(lam, bigN), g=0.0)


def random_field(params, seed, geometry=GEO, scale=1.0):
    root = c0_root(params, geometry, CUT)
    tau = np.random.default_rng(seed).standard_normal((1, len(root))) @ root.T
    side = geometry.sites_per_side
    fld = FieldConfig.from_tau(geometry, tau.reshape(side, side))
    if scale != 1.0:
        fld = FieldConfig.from_tau(geometry, scale * fld.tau)
    return fld


class TestResolvent:
    def test_free_resolvent_is_propagator(self):
        params = make_params()
        fld = FieldConfig.from_tau(
            GEO, np.zeros((GEO.sites_per_side,) * 2))
        r = resolvent_matrix(fld, params)
        f = propagator_matrix(GEO, params.m)
        assert np.abs(r - f).max() == 0.0

    def test_entry_against_eigendecomposition_oracle(self):
        # the purely imaginary shift diagonalized independently:
        # (1 + F igtau)^{-1} F = V (1+Lambda)^{-1} V^{-1} F
        params = make_params()
        fld = random_field(params, 4)
        f = propagator_matrix(GEO, params.m)
        shift = 1j * params.g * GEO.site_weight * fld.tau.reshape(-1)
        lam, vec = np.linalg.eig(f * shift[None, :])
        oracle = vec @ np.linalg.solve(
            vec * (1.0 + lam)[None, :], f)
        r = resolvent_matrix(fld, params)
        assert np.abs(r - oracle).max() < 1e-10

    def test_symmetry(self):
        params = make_params()
        fld = random_field(params, 5)
        r = resolvent_matrix(fld, params)
        assert np.abs(r - r.T).max() < 1e-12


class TestSampleWeight:
    def test_zero_field_gives_one(self):
        params = make_params()
        fld = FieldConfig.from_tau(
            GEO, np.zeros((GEO.sites_per_side,) * 2))
        assert sample_weight(fld, params) == 1.0

    def test_small_field_envelope(self):
        # |log|w|| <= c * N^{-2/5} int tau^2 with a stable constant:
        # fit c on half the configs, the rest must stay within 3x
        params = make_params(bigN=10 ** 6)
        ratios = []
        for seed in range(16):
            fld = random_field(params, seed, scale=0.5)
            mass = float(np.sum(fld.tau ** 2)) * GEO.site_weight
            w = sample_weight(fld, params)
            ratios.append(abs(np.log(abs(w)))
                          / (params.bigN ** (-0.4) * mass))
        c_fit = max(ratios[:8])
        assert max(ratios[8:]) <= 3.0 * c_fit

    def test_cubic_term_dominates_at_large_N(self):
        # leading det3 term: weight ~ exp(i N Tr A^3 / 6)
        params = make_params(bigN=10 ** 6)
        fld = random_field(params, 11, scale=0.3)
        a = build_A(fld, params, symmetrize=True)
        aw = a.op.weighted
        tr3 = np.trace(aw @ aw @ aw)
        approx = np.exp(1j * params.bigN * tr3 / 6.0)
        w = sample_weight(fld, params)
        assert abs(w - approx) < 1e-3 * abs(w)

    def test_weight_against_unsymmetrized_route(self):
        # same determinant from the plain (non-self-adjoint) form
        params = make_params()
        fld = random_field(params, 12)
        a = build_A(fld, params, symmetrize=False)
        lam = np.linalg.eigvals(1j * a.op.weighted)
        log3 = np.sum(np.log(1.0 + lam) - lam + 0.5 * lam ** 2)
        alt = np.exp(-0.5 * params.bigN * log3)
        w = sample_weight(fld, params)
        assert abs(w - alt) < 1e-8 * abs(w)


class TestRangeWeight:
    """The hot loop's weight: log det3(1 + igS) from one zgetrf of
    1 + igS (the sum of the logs of its diagonal plus i pi times its pivot
    parity), with the trace terms of det3 taken from S = V^T diag(w tau) V,
    against the eigenvalues of the full n x n K = igF diag(w tau), on
    144-site fields up to 300 times the drawn scale."""

    GEO144 = LatticeGeometry(n=3, sites_per_square=2)
    SCALES = [(0, 1.0), (0, 100.0), (1, 300.0)]
    TOL = 1e-10

    def draw(self, seed, scale):
        params = make_params()
        geo, w = self.GEO144, self.GEO144.site_weight
        f = propagator_matrix(geo, params.m)
        v = propagator_factor(geo, params.m)
        fld = random_field(params, seed, geometry=geo, scale=scale)
        wtau = w * fld.tau.reshape(-1)
        k = f * (1j * params.g * wtau)[None, :]
        return params.g, v, wtau, log_det_n(np.linalg.eigvals(k), 3)

    @staticmethod
    def gap(got, want):
        """|got - want| with the imaginary part taken modulo 2 pi: the two
        logs may sit on branches 2 pi i apart, and the weight
        exp(-N/2 log det3) cannot tell them apart for even N."""
        diff = got - want
        return max(abs(diff.real),
                   abs((diff.imag + np.pi) % (2.0 * np.pi) - np.pi))

    @pytest.mark.parametrize("seed,scale", SCALES)
    def test_matches_full_spectrum(self, seed, scale):
        g, v, wtau, want = self.draw(seed, scale)
        _, got = _sample_on_range(v, g, wtau, v[0], v[:2].T)
        assert self.gap(got, want) < self.TOL

    @pytest.mark.parametrize("seed,scale", SCALES)
    def test_bound_rejects_wrong_weights(self, seed, scale):
        # negative controls: log det2 (no -(g^2/2)|S|_F^2 term) and the
        # phase-free log|det(1 + igS)| each miss the bound at every scale
        g, v, wtau, want = self.draw(seed, scale)
        s_mat = v.T @ (wtau[:, None] * v)
        sign, logabs = np.linalg.slogdet(np.eye(len(s_mat)) + 1j * g * s_mat)
        logdet2 = logabs + np.log(sign) - 1j * g * np.trace(s_mat)
        assert self.gap(logdet2, want) > self.TOL
        assert self.gap(complex(logabs), want) > self.TOL

    def test_pivot_parity_is_needed(self):
        # negative control: on the first draw whose LU swaps an odd number
        # of rows, log det M without the i pi parity term misses the bound,
        # and the weight exp(-N/2 log det3) flips sign at N = 2 mod 4 (not
        # at N = 0 mod 4)
        for seed in range(1, 9):
            g, v, wtau, want = self.draw(seed, 300.0)
            s_mat = v.T @ (wtau[:, None] * v)
            _, piv, _ = lapack.zgetrf(np.eye(len(s_mat)) + 1j * g * s_mat)
            if np.count_nonzero(piv != np.arange(len(piv))) % 2:
                break
        else:
            pytest.fail("no draw swaps an odd number of rows")
        _, got = _sample_on_range(v, g, wtau, v[0], v[:2].T)
        dropped = got - 1j * np.pi
        assert self.gap(got, want) < self.TOL
        assert self.gap(dropped, want) > self.TOL
        for bigN, sign in ((10, -1.0), (12, 1.0)):
            ref = np.exp(-0.5 * bigN * want)
            assert abs(np.exp(-0.5 * bigN * got) - ref) < 1e-9 * abs(ref)
            assert (abs(np.exp(-0.5 * bigN * dropped) - sign * ref)
                    < 1e-9 * abs(ref))

    def test_singular_lu_raises(self):
        # an imaginary coupling g = i gives M = 1 - S, and S = diag(1, 0)
        # leaves M an exact zero pivot, which zgetrf reports (info > 0)
        v = np.eye(4)[:, :2]
        wtau = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ArithmeticError, match="singular"):
            _sample_on_range(v, 1j, wtau, v[0], v[:2].T)


class TestMassMatching:
    @pytest.mark.parametrize("m", [0.05, 0.2, 0.8])
    def test_recovers_known_mass_from_exact_kernel(self, m):
        seps = np.array([2.0, 2.25, 2.5])
        vals = propagator_values(m ** 2, seps)
        mass, se, r2, _ = match_decay_mass(seps, vals, None)
        assert abs(mass - m) < 1e-8
        assert se == 0.0

    def test_rejects_impossible_slope(self):
        seps = np.array([2.0, 2.5])
        with pytest.raises(ArithmeticError):
            match_decay_mass(seps, np.array([1.0, 2.0]), None)  # growing

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ArithmeticError):
            match_decay_mass(np.array([2.0, 2.5]),
                             np.array([1.0, -0.5]), None)


class TestEstimateS2:
    def test_free_case_is_exact_propagator(self):
        params = free_params()
        res = estimate_S2(params, geometry=GEO, seed=0, n_samples=40)
        f = propagator_values(params.m ** 2, res.separations)
        assert np.abs(res.estimates.real - f).max() < 1e-9
        assert abs(res.fitted_mprime / params.m - 1.0) < 1e-4
        assert res.phase_diagnostic == 1.0

    def test_interacting_quick_run(self):
        params = make_params()
        res = estimate_S2(params, geometry=GEO, n_samples=240, seed=2)
        assert 0.7 < res.fitted_mprime / params.m < 1.3
        assert res.phase_diagnostic > 0.5
        assert res.fit_residual >= 0.95
        # reality: Im S2 consistent with zero at 3 standard errors
        assert np.all(np.abs(res.estimates.imag)
                      <= 3.0 * np.maximum(res.stderr, 1e-300))
        # contact dominance
        assert np.abs(res.estimates[0]) == np.abs(res.estimates).max()

    def test_weight_half_sample_consistency(self):
        params = make_params()
        r1 = estimate_S2(params, geometry=GEO, n_samples=120, seed=7)
        r2 = estimate_S2(params, geometry=GEO, n_samples=120, seed=8)
        se = np.hypot(float(np.mean(r1.stderr)), float(np.mean(r2.stderr)))
        assert abs(r1.mean_weight - r2.mean_weight) < max(3.0 * se, 0.05)

    def test_determinism_and_hash(self):
        params = make_params()
        a = estimate_S2(params, geometry=GEO, n_samples=60, seed=3)
        b = estimate_S2(params, geometry=GEO, n_samples=60, seed=3)
        c = estimate_S2(params, geometry=GEO, n_samples=60, seed=4)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.params_hash == b.params_hash
        assert a.params_hash != c.params_hash
        assert not np.array_equal(a.estimates, c.estimates)
        # every estimator input enters the hash
        for change in ({"separations": default_separations(GEO)[1:]},
                       {"phase_floor": 0.01}):
            d = estimate_S2(params, geometry=GEO, n_samples=60, seed=3,
                            **change)
            assert d.params_hash != a.params_hash, change

    def test_batch_floor(self):
        params = make_params()
        with pytest.raises(ValueError):
            estimate_S2(params, geometry=GEO, seed=0, n_samples=10)

    @pytest.mark.parametrize("separations", [(-3.0, 2.0, 2.5),
                                             (2.0, 2.1, 2.5)])
    def test_unplaceable_separation_rejected(self, monkeypatch, separations):
        # on the source row a negative separation would wrap into the row
        # above, and 2.1 would snap to the site at 2.0 under its own label
        def no_draws(*args):
            raise AssertionError("sampling started")
        monkeypatch.setattr(twopoint, "c0_root", no_draws)
        with pytest.raises(ValueError, match="multiples of the site spacing"):
            estimate_S2(make_params(), geometry=GEO, seed=0, n_samples=20,
                        separations=separations)

    def test_short_fit_window_rejected_before_sampling(self, monkeypatch):
        # n = 3: the window [2, 2] holds one separation, too few to fit
        def no_draws(*args):
            raise AssertionError("sampling started")
        monkeypatch.setattr(twopoint, "c0_root", no_draws)
        geo = LatticeGeometry(n=3, sites_per_square=2)
        with pytest.raises(ValueError, match=r"fit window \[2, 2\] holds 1"):
            estimate_S2(make_params(), geometry=geo, seed=0, n_samples=20)

    def test_sign_problem_abort(self):
        params = make_params()
        with pytest.raises(SignProblemError):
            estimate_S2(params, geometry=GEO, seed=0, n_samples=40,
                        phase_floor=1.5)

    def test_window_and_separations_of_1024_sites(self):
        geo = LatticeGeometry(n=4, sites_per_square=4)
        assert geo.sites_per_side ** 2 == 1024
        lo, hi = fit_window(geo)
        assert lo == 2.0 and abs(hi - 8.0 / 3.0) < 1e-15
        seps = default_separations(geo)
        assert seps[0] == 0.0 and seps[-1] == 3.0

    def test_no_eigen_solve_after_warm_up(self, monkeypatch):
        # the sampler's weight comes from an LU and the quadrature nodes
        # of the mass fit are computed once, so a warm call (caches of
        # propagator_factor and c0_root filled) solves no eigenproblem in
        # this process, and with the workers pinned it factors nothing
        # here either.  Patches made after the fork never reach the
        # workers, so the chunk function they run is counted in-process:
        # each sample takes its weight and its resolvent row from one
        # zgetrf, and numpy factors nothing
        params = make_params()
        estimate_S2(params, geometry=GEO, n_samples=20, seed=1)
        pooled = twopoint._live_pool() is not None
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                             (np.linalg, "slogdet"), (np.linalg, "solve"),
                             (lapack, "zgetrf")):
            monkeypatch.setattr(module, name, counted(module, name))
        estimate_S2(params, geometry=GEO, n_samples=20, seed=2)
        assert calls == ([] if pooled else ["zgetrf"] * 20)

        calls.clear()
        side = GEO.sites_per_side
        x = (side // 2) * side + 2 * GEO.sites_per_square
        ys = x + np.rint(default_separations(GEO)
                         * GEO.sites_per_square).astype(int)
        z = np.random.default_rng(2).standard_normal((20, side * side))
        num, den = twopoint._sample_chunk(
            c0_root(params, GEO, CUT), propagator_factor(GEO, params.m),
            params.g, GEO.site_weight, params.bigN, x, ys, z)
        assert calls == ["zgetrf"] * 20
        assert num.shape == (20, len(ys)) and den.shape == (20,)


@pytest.fixture
def fresh_pool():
    """No pool before the test, and none after it: a test that patches
    the sampler before the fork must not leave patched workers behind."""
    twopoint._close_pool()
    yield
    twopoint._close_pool()


# the worker-process checks below run in a child interpreter, so a hang
# is cut by the subprocess timeout instead of stalling the suite
HYGIENE_SCRIPT = """
import os, signal, threading, time
import numpy as np
from sigmagap import twopoint
from sigmagap.model import derive_params
from sigmagap.regions import LatticeGeometry
twopoint._WORKERS = 2
geo = LatticeGeometry(n=4, sites_per_square=2)
p = derive_params(1.0, 1.0, 10 ** 4)
ref = twopoint.estimate_S2(p, geometry=geo, n_samples=40, seed=3)
first = [q.pid for q in twopoint._POOL.procs]
os.kill(first[0], signal.SIGKILL)
while twopoint._POOL.procs[0].is_alive():
    time.sleep(0.01)  # once it is reaped the next call must see it
again = twopoint.estimate_S2(p, geometry=geo, n_samples=40, seed=3)
second = [q.pid for q in twopoint._POOL.procs]
print("idle-kill", np.array_equal(ref.estimates, again.estimates),
      not set(first) & set(second))
threading.Timer(0.3, os.kill, (second[1], signal.SIGKILL)).start()
try:
    twopoint.estimate_S2(p, geometry=geo, n_samples=40000, seed=4)
    print("mid-kill finished")
except RuntimeError as exc:
    print("mid-kill raised", twopoint._POOL is None)
final = twopoint.estimate_S2(p, geometry=geo, n_samples=40, seed=3)
print("after", np.array_equal(ref.estimates, final.estimates))
"""


def _pid_alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _child_env():
    src = str(pathlib.Path(twopoint.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class TestSamplingPool:
    """The interacting samples run on forked workers pinned to one BLAS
    thread; estimates do not depend on the worker count."""

    def test_bit_identical_for_every_worker_count(self, monkeypatch):
        params = make_params()
        results = []
        for count in (1, 2, len(os.sched_getaffinity(0))):
            monkeypatch.setattr(twopoint, "_WORKERS", count)
            res = estimate_S2(params, geometry=GEO, n_samples=100, seed=6)
            pool = twopoint._live_pool()
            assert pool is None or len(pool.procs) == count
            results.append(res)
        for res in results[1:]:
            for field in ("estimates", "stderr"):
                assert np.array_equal(getattr(res, field),
                                      getattr(results[0], field))
            assert res.fitted_mprime == results[0].fitted_mprime
            assert res.mean_weight == results[0].mean_weight
            assert res.phase_diagnostic == results[0].phase_diagnostic

    def test_workers_report_one_blas_thread(self):
        if twopoint._blas_pins() is None:
            pytest.skip("no OpenBLAS thread calls to pin here")
        before = [get() for _, get in twopoint._blas_pins()]
        estimate_S2(make_params(), geometry=GEO, n_samples=20, seed=1)
        pool = twopoint._live_pool()
        assert pool is not None and pool.pinned
        assert all(counts == [1] * len(before) for counts in pool.threads)
        # this process gets its own counts back after the forks
        assert [get() for _, get in twopoint._blas_pins()] == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts worker threads in /proc")
    def test_workers_run_one_thread(self, fresh_pool):
        # the pin is set in this process around the forks, so no worker
        # starts an idle BLAS pool, even after running BLAS calls
        if twopoint._blas_pins() is None:
            pytest.skip("no OpenBLAS thread calls to pin here")
        estimate_S2(make_params(), geometry=GEO, n_samples=40, seed=1)
        pool = twopoint._live_pool()
        assert pool is not None
        assert [len(os.listdir(f"/proc/{proc.pid}/task"))
                for proc in pool.procs] == [1] * len(pool.procs)

    def test_unpinnable_runs_in_process(self, monkeypatch, fresh_pool):
        params = make_params()
        pooled = estimate_S2(params, geometry=GEO, n_samples=40, seed=9)
        twopoint._close_pool()
        monkeypatch.setattr(twopoint, "_blas_pins", lambda: None)
        local = estimate_S2(params, geometry=GEO, n_samples=40, seed=9)
        assert twopoint._POOL is None
        # the same draws and code; only this process's BLAS threads differ
        np.testing.assert_allclose(local.estimates, pooled.estimates,
                                   rtol=1e-10, atol=0)

    def test_batched_draws_are_the_sample_stream(self):
        sites = GEO.sites_per_side ** 2
        one_by_one = np.random.default_rng(11)
        rows = [one_by_one.standard_normal(sites) for _ in range(7)]
        chunked = np.random.default_rng(11)
        blocks = [chunked.standard_normal((k, sites)) for k in (3, 1, 3)]
        assert np.array_equal(np.vstack(blocks), np.array(rows))

    def test_draws_held_in_bounded_chunks(self, monkeypatch):
        # criterion 11's 10^4 samples never sit in one n_samples x sites
        # array: the parent draws at most _CHUNK rows at a time
        params = make_params()
        ref = estimate_S2(params, geometry=GEO, n_samples=200, seed=12)
        shapes = []
        real = np.random.default_rng

        class Recording:
            def __init__(self, seed):
                self.rng = real(seed)

            def standard_normal(self, size):
                shapes.append(size)
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        res = estimate_S2(params, geometry=GEO, n_samples=200, seed=12)
        assert np.array_equal(res.estimates, ref.estimates)
        assert sum(rows for rows, _ in shapes) == 200
        assert max(rows for rows, _ in shapes) <= twopoint._CHUNK
        assert {sites for _, sites in shapes} == {GEO.sites_per_side ** 2}

    def test_worker_error_reaches_the_caller(self, monkeypatch, fresh_pool):
        # patched before the pool is forked, so the workers inherit it
        def singular(*args):
            raise ArithmeticError("1 + igS is singular (injected)")

        monkeypatch.setattr(twopoint, "_sample_on_range", singular)
        monkeypatch.setattr(twopoint, "_WORKERS", 2)
        with pytest.raises(ArithmeticError) as info:
            estimate_S2(make_params(), geometry=GEO, n_samples=40, seed=1)
        assert type(info.value) is ArithmeticError
        assert str(info.value) == "1 + igS is singular (injected)"
        # a failed chunk leaves the pool whole
        assert twopoint._blas_pins() is None or twopoint._POOL.alive()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads worker states from /proc")
    def test_no_worker_outlives_accept_all(self, tmp_path):
        code = ("import sys\n"
                "from sigmagap import cli, twopoint\n"
                "rc = cli.main(['accept-all', '--profile', 'quick',"
                " '--out', sys.argv[1]])\n"
                "print('pids', *[q.pid for q in twopoint._POOL.procs]"
                " if twopoint._POOL else [])\n"
                "sys.exit(rc)\n")
        run = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             capture_output=True, text=True, timeout=600,
                             env=_child_env())
        assert run.returncode == 0, run.stderr
        pids = [int(p) for p in run.stdout.splitlines()[-1].split()[1:]]
        assert pids or twopoint._blas_pins() is None
        assert not [pid for pid in pids if _pid_alive(pid)]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads worker states from /proc")
    def test_killed_worker_never_hangs_the_caller(self):
        if twopoint._blas_pins() is None:
            pytest.skip("no worker processes without the BLAS pin")
        run = subprocess.run([sys.executable, "-c", HYGIENE_SCRIPT],
                             capture_output=True, text=True, timeout=300,
                             env=_child_env())
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        # killed while idle: the next call forks a new pool, same bits
        assert lines[0] == "idle-kill True True"
        # killed mid-call: the call raises and drops the pool
        assert lines[1] == "mid-kill raised True"
        assert lines[2] == "after True"


class TestDualRoute:
    """estimate_S2 against a replay of its own draws (same C0 root, same
    default_rng(seed) stream) that takes the resolvent row from the dense
    solve (resolvent_matrix) and the weight from the eigenvalue route
    (sample_weight) instead of from the sampler's LU and solve of the
    r x r 1 + igS on the range of F = V V^T.

    Tolerance.  Either route gets log det3 to within delta = n * eps
    (n sites; the measured gap is below 5e-15 at n = 256, where
    delta = 5.7e-14), and the sampler's V V^T differs from F by at most
    delta times its largest eigenvalue.  The weight is exp(-N/2 log det3),
    so each weight w_k carries a relative error up to N/2 * delta.  The
    ratio sum_k r_k w_k / sum_k w_k moves by sum_k w_k (r_k - S)
    d(log w_k) / sum_k w_k, so its error is at most
    N/2 * delta * sum_k |w_k| |r_k - S| / |sum_k w_k|.  The resolvent
    entries add delta * max_k |r_k| (1 + F ig tau has condition number
    2.1-2.4 on these draws, so the solves lose about a bit).  The fit
    window needs two separations, which takes a 256-site grid; at 144
    sites it holds one and estimate_S2 cannot fit a mass."""

    N_SAMPLES = 20

    def replay(self, params, seed, source_shift=0):
        side, s = GEO.sites_per_side, GEO.sites_per_square
        x = (side // 2) * side + 2 * s
        ys = x + np.rint(default_separations(GEO) * s).astype(int)
        root = c0_root(params, GEO, CUT)
        rng = np.random.default_rng(seed)
        rows, wts = [], []
        for _ in range(self.N_SAMPLES):
            tau = root @ rng.standard_normal(side * side)
            fld = FieldConfig.from_tau(GEO, tau.reshape(side, side))
            rows.append(resolvent_matrix(fld, params)[x + source_shift, ys])
            wts.append(sample_weight(fld, params))
        return np.array(rows), np.array(wts)

    def route_gap(self, params, seed, source_shift=0):
        """max over separations of |replay - estimate_S2| / tolerance."""
        res = estimate_S2(params, geometry=GEO, seed=seed,
                          n_samples=self.N_SAMPLES)
        rows, wts = self.replay(params, seed, source_shift)
        est = (rows * wts[:, None]).mean(axis=0) / wts.mean()
        delta = GEO.sites_per_side ** 2 * np.finfo(float).eps
        spread = np.abs(wts) @ np.abs(rows - est) / abs(wts.sum())
        tol = (0.5 * params.bigN * delta * spread
               + delta * np.abs(rows).max(axis=0))
        return float(np.max(np.abs(est - res.estimates) / tol))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_replay_matches_estimator(self, seed):
        assert self.route_gap(make_params(), seed) <= 1.0

    def test_source_off_by_one_site_fails(self):
        assert self.route_gap(make_params(), 0, source_shift=1) > 1.0

    def test_overtruncated_factor_fails(self, monkeypatch):
        # negative control: the sampler's F = V V^T cut at 1e-10 of the
        # largest eigenvalue instead of n * eps of it (column j of V has
        # squared norm eigenvalue j)
        def cut(geometry, m):
            v = propagator_factor(geometry, m)
            ev = np.sum(v ** 2, axis=0)
            return v[:, ev > 1e-10 * ev.max()]

        monkeypatch.setattr(twopoint, "propagator_factor", cut)
        assert self.route_gap(make_params(), 0) > 1.0


class TestC0RootCache:
    def test_root_is_build_C0_root_and_read_only(self):
        params = make_params()
        root = c0_root(params, GEO, CUT)
        c0 = build_C0(params, GEO, CUT)
        assert np.array_equal(root, gaussian_root(c0.weighted
                                                  / c0.site_weight))
        assert not root.flags.writeable

    def test_second_call_hits_with_identical_estimates(self):
        params = make_params()
        _assembly_cached.cache_clear()
        a = estimate_S2(params, geometry=GEO, n_samples=20, seed=5)
        info = _assembly_cached.cache_info()
        assert (info.hits, info.misses) == (0, 1)
        b = estimate_S2(params, geometry=GEO, n_samples=20, seed=5)
        info = _assembly_cached.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.stderr, b.stderr)
        assert a.fitted_mprime == b.fitted_mprime

    def test_other_cutoff_or_mass_misses(self):
        params = make_params()
        _assembly_cached.cache_clear()
        estimate_S2(params, geometry=GEO, n_samples=20, seed=5)
        estimate_S2(params, geometry=GEO, cutoff=CutoffSpec(c=1.2),
                    n_samples=20, seed=5)
        assert _assembly_cached.cache_info().misses == 2
        heavier = dataclasses.replace(params, m=1.1 * params.m)
        estimate_S2(heavier, geometry=GEO, n_samples=20, seed=5)
        info = _assembly_cached.cache_info()
        assert (info.hits, info.misses) == (0, 3)


class TestMassScan:
    def test_free_scan_monotone_and_exact(self):
        rows, excess = mass_vs_N_scan(
            [free_params(bigN=n) for n in (10 ** 3, 10 ** 4)], CUT,
            geometry=GEO, seed=0, n_samples=40)
        for row in rows:
            assert row["deviation"] < 0.05
        assert len(excess) == 1 and excess[0] <= 0.0

    def test_interacting_scan(self):
        rows, excess = mass_vs_N_scan(
            [make_params(bigN=n) for n in (10 ** 3, 10 ** 4)], CUT,
            geometry=GEO, n_samples=120, seed=5)
        assert [r["bigN"] for r in rows] == [10 ** 3, 10 ** 4]
        for row in rows:
            assert row["phase_diagnostic"] > 0.1
        assert len(excess) == 1 and excess[0] <= 0.0

    def test_excess_is_growth_beyond_the_slack(self, monkeypatch,
                                               drifting_fit):
        # stubbed fits: deviation 1e-6 N with standard error 1e-3 grows
        # by 9e-3 and 9e-2 against a slack of 2 * sqrt(2) * 1e-3
        monkeypatch.setattr(twopoint, "estimate_S2", drifting_fit(1e-6))
        _, excess = mass_vs_N_scan(
            [make_params(bigN=n) for n in (10 ** 3, 10 ** 4, 10 ** 5)], CUT,
            geometry=None, seed=0, n_samples=1000)
        slack = twopoint.SCAN_SIGMA_SLACK * np.sqrt(2.0) * 1e-3
        np.testing.assert_allclose(excess, [9e-3 - slack, 9e-2 - slack],
                                   rtol=1e-9)

    def test_lambda_ratio_matches_gap_equation(self):
        # fitted masses from the exact free route, ratio against the
        # gap-equation prediction
        fits = {}
        for lam in (0.8, 1.0):
            res = estimate_S2(free_params(lam=lam), geometry=GEO, seed=0,
                              n_samples=40)
            fits[lam] = res.fitted_mprime
        oracle = np.sqrt(leading_mass(1.0) / leading_mass(0.8))
        assert abs(fits[1.0] / fits[0.8] / oracle - 1.0) < 0.10


class TestNegativeControls:
    @pytest.mark.parametrize("factor", [1.06, 1.3])
    def test_wrong_free_mass_fails_criterion_11_gate(self, factor):
        # criterion 11's free-route gate |m'/m - 1| < 0.05 at its own size
        # (576 sites, 100 samples), fed a propagator of the wrong mass
        geo = LatticeGeometry(n=4, sites_per_square=3)
        params = make_params()
        wrong = dataclasses.replace(params, g=0.0, m=factor * params.m)
        res = estimate_S2(wrong, geometry=geo, seed=0, n_samples=100)
        assert not abs(res.fitted_mprime / params.m - 1.0) < 0.05
