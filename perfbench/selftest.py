"""Tests of the benchmark itself, with negative controls.

    python3 perfbench/selftest.py        (from the repo root; about 3 min)

Each control feeds a deliberately wrong output to the benchmark's checks
and expects the operation to count as failed.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

with open("BENCHMARK.json") as _fh:
    BENCH = json.load(_fh)


def bench(*argv, cwd=None):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *argv], capture_output=True, text=True, cwd=cwd,
                          timeout=200)
    return proc.returncode, proc.stdout


class TwoPointChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from sigmagap import model, regions, twopoint
        cls.params = model.derive_params(1.0, 1.0, 10 ** 4)
        geo = regions.LatticeGeometry(n=4, sites_per_square=2)
        cls.res = twopoint.estimate_S2(cls.params, geometry=geo, seed=3,
                                       n_samples=20)

    def test_untampered_result_passes(self):
        worker.check_twopoint(self.res, self.params.m)

    def test_ratio_two_fails(self):
        bad = dataclasses.replace(self.res,
                                  fitted_mprime=2.0 * self.params.m)
        with self.assertRaises(worker.OperationFailed):
            worker.check_twopoint(bad, self.params.m)

    def test_flipped_sign_estimates_fail(self):
        bad = dataclasses.replace(self.res, estimates=-self.res.estimates)
        with self.assertRaises(worker.OperationFailed):
            worker.check_twopoint(bad, self.params.m)

    def test_changed_estimates_are_not_a_repeat(self):
        moved = dataclasses.replace(self.res,
                                    estimates=self.res.estimates * (1 + 1e-9))
        self.assertTrue(worker.same_estimates(self.res, self.res))
        self.assertFalse(worker.same_estimates(self.res, moved))


class BatteryChecks(unittest.TestCase):
    def test_config_error_counts_as_failed(self):
        os.makedirs(run.RUN_DIR, exist_ok=True)
        runner = run.Runner(seed=0)
        _, _, problem = run.Battery(runner).invoke(extra=["--N", "3"])
        self.assertEqual(problem, "exit code 2")
        self.assertGreater(runner.failed / runner.attempted, 0.0)

    def test_changed_results_csv_counts_as_failed(self):
        outdir = os.path.join(run.RUN_DIR, "selftest-csv")
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "results.csv")
        header = ",".join(run.RESULT_COLUMNS)
        rows = ["# config_hash=0", header,
                "a,model,ref,1.5,[0.7,1.3],1,12.5"]
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        reference = []
        self.assertIsNone(run.battery_problem(0, "", outdir, reference))
        rows[2] = "a,model,ref,1.5,[0.7,1.3],1,99.0"      # runtime only
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        self.assertIsNone(run.battery_problem(0, "", outdir, reference))
        rows[2] = "a,model,ref,1.6,[0.7,1.3],1,99.0"
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        self.assertIn("differs", run.battery_problem(0, "", outdir,
                                                     reference))
        self.assertIn("FAIL", run.battery_problem(0, "FAIL a value=1",
                                                  outdir, reference))
        shutil.rmtree(outdir)


class Tracing(unittest.TestCase):
    def test_self_time_and_busy_time(self):
        spans = [["bench.op", 0.0, 10.0, -1],
                 ["covariance.build_C0", 1.0, 6.0, 0],
                 ["operators.propagator_matrix", 2.0, 5.0, 1],
                 ["kernels.propagator_values", 3.0, 4.0, 2],
                 ["covariance.build_C0", 7.0, 8.0, 0]]
        t = tracer.SpanTable(spans)
        self.assertEqual(t.self_time, [4.0, 2.0, 2.0, 1.0, 1.0])
        self.assertEqual(t.busy(lambda n: n == "covariance.build_C0"), 6.0)
        self.assertEqual(t.calls("covariance.build_C0"), 2)
        m = tracer.layer_metrics(spans, {}, {})
        self.assertAlmostEqual(m["trace.accounted_ratio"], 0.6)

    def test_traced_and_untraced_outputs_agree(self):
        runner = run.Runner(seed=5)
        for workload, ops in (("covariance_gamma", "3"),
                              ("twopoint_mc", "2")):
            plain = runner.worker("run", workload, "--ops", ops)
            traced = runner.worker("run", workload, "--ops", ops, "--trace")
            self.assertTrue(worker.outputs_agree(plain["outputs"],
                                                 traced["outputs"]), workload)
            self.assertFalse(worker.outputs_agree(
                plain["outputs"], worker._flat(plain["outputs"])[1:]))
        self.assertEqual(runner.failed, 0, runner.failures)


class Contract(unittest.TestCase):
    def last_json(self, *argv):
        code, out = bench(*argv)
        self.assertEqual(code, 0, out)
        return json.loads(out.strip().splitlines()[-1])

    def test_metric_names_match_benchmark_json(self):
        e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for w in BENCH["workloads"]:
            res = self.last_json("--workload", w["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0")
            self.assertTrue(res["correct"], w["name"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                             e2e, w["name"])
        for name in ("covariance_gamma", "battery_cold"):
            res = self.last_json("--workload", name, "--seed", "1",
                                 "--seconds", "1", "--trace", "1")
            self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                             layer, name)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.abspath(os.path.join(run.RUN_DIR, "bare"))
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        code, out = bench("--workload", "twopoint_mc", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(out, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
