"""Self-tests of the benchmark, from the root of a checkout:

    python3 benchmarks/selftest.py

They check that a corrupted answer is caught, that tracing patches every
name it should and restores all of them, that the traced run prints
byte-identical output, that each per-layer metric is nonzero on the
workload meant to exercise it, that the exact counts and the stdout digest
repeat for one seed, that the result line matches BENCHMARK.json, and that
the benchmark refuses to run without the program's source.  The traced
runs take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_ztt()

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import ztt.theta  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())
DEV_SEED = SPEC["seeds"]["development"]

# per-layer metric -> the workload meant to exercise it
EXERCISED = {
    "theta_single": (
        "cli.requests", "cli.self_s", "cli.output_bytes", "exact.format_rational.s",
        "exact.parse_rational.s", "theta.theta_newton.calls", "theta.theta_newton.self_s",
        "theta.max_coeff_bits", "weights.power_sum.calls", "weights.power_sum.s",
        "exact.Poly.mul.calls", "exact.Poly.mul.s", "exact.Poly.max_operand_bits"),
    "laws_ranges": (
        "cli.output_bytes", "exact.format_rational.s", "distributions.s_pmf.self_s",
        "distributions.moments.self_s", "distributions.limit_scan.s",
        "theta.theta_newton.calls"),
    "selfcheck": (
        "distributions.bernstein_pgf.s", "distributions.s_infinity_2_pmf.s",
        "verify.identities.s", "verify.marginals.s", "verify.sumtheorem.s",
        "theta.theta_product.s", "theta.theta_bell.s", "theta.theta_det.s",
        "theta.theta_convolution.s", "theta.eh_sums.s", "weights.weight_at.calls",
        "exact.Series.mul.s", "exact.det_exact.s", "exact.bell_complete.s",
        "oracle.theta_bruteforce.calls", "oracle.theta_bruteforce.s",
        "oracle.multisets_enumerated", "oracle.multisets_per_s"),
}
# failure counters: zero on a correct program
ZERO = ("verify.checks_failed", "oracle.budget_refusals")
REPEATING = ("theta.max_coeff_bits", "exact.Poly.max_operand_bits",
             "oracle.multisets_enumerated", "exact.Poly.mul.calls",
             "theta.theta_newton.calls")


def _scratch(name: str) -> Path:
    path = run.WORK_BASE / f"selftest-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class ContractTest(unittest.TestCase):
    def test_result_line_matches_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(set(SPEC["workloads"]), set(workloads.WORKLOADS))
        for name, unit, better in run.END_TO_END + run.PER_LAYER:
            self.assertEqual(SPEC["metrics"][name][:2], [unit, better], name)

    def test_same_seed_same_inputs(self):
        work = _scratch("inputs")
        try:
            for wl in workloads.WORKLOADS:
                a = workloads.block(wl, 7, 3, str(work))
                texts = sorted(p.read_text() for p in work.glob("*.json"))
                b = workloads.block(wl, 7, 3, str(work))
                self.assertEqual(a, b)
                self.assertEqual(texts, sorted(p.read_text() for p in work.glob("*.json")))
                self.assertNotEqual(a, workloads.block(wl, 8, 3, str(work)))
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_exits_nonzero_without_source(self):
        bare = _scratch("bare")
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "selfcheck",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class CheckTest(unittest.TestCase):
    def test_corrupted_coefficient_raises_error_rate(self):
        work = _scratch("corrupt")
        original = ztt.theta.ALGORITHMS["newton"]

        def corrupted(seq, n, k):
            tp = original(seq, n, k)
            coeffs = list(tp.poly.coeffs)
            coeffs[-1] += 1
            return ztt.theta.ThetaPoly(n, k, seq, type(tp.poly)(coeffs))

        reqs = [r for r in workloads.block("theta_single", DEV_SEED, 0, str(work))][:10]
        checker = checks.Checker()
        try:
            clean = [checker.check(worker.execute(r)) for r in reqs]
            ztt.theta.ALGORITHMS["newton"] = corrupted
            bad = [checker.check(worker.execute(r)) for r in reqs]
        finally:
            ztt.theta.ALGORITHMS["newton"] = original
            shutil.rmtree(work, ignore_errors=True)
        self.assertEqual(clean, [None] * len(reqs))
        error_rate = sum(r is not None for r in bad) / len(bad)
        self.assertEqual(error_rate, 1.0)


class TracerTest(unittest.TestCase):
    def test_patches_every_reaching_name_and_restores(self):
        mods = [sys.modules[m] for m in tracing.ZTT_MODULES]
        before = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        algos = dict(ztt.theta.ALGORITHMS)
        methods = {a: vars(ztt.exact.Poly)[a] for a in ("__mul__", "__rmul__")}
        tracer = tracing.Tracer()
        with tracer:
            names = tracer.patched_names()
            for want in ("ztt.theta.theta_newton", "ztt.distributions.theta_newton",
                         "ztt.theta.power_sum", "ztt.theta.weight_at",
                         "ztt.theta.det_exact", "ztt.theta.bell_complete",
                         "ztt.oracle.weight_at", "ztt.weights.power_sum",
                         "ztt.theta.ALGORITHMS[newton]", "ztt.theta.ALGORITHMS[det]",
                         "ztt.verify.SUITES[identities]", "ztt.cli.format_rational",
                         "ztt.exact.Poly.__mul__", "ztt.exact.Series.__mul__"):
                self.assertIn(want, names)
            self.assertIsNot(ztt.theta.ALGORITHMS["newton"], algos["newton"])
        after = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(ztt.theta.ALGORITHMS, algos)
        for attr, fn in methods.items():
            self.assertIs(vars(ztt.exact.Poly)[attr], fn)


class TracedRunTest(unittest.TestCase):
    """Two traced runs per workload, each also run untraced (see run.py)."""

    @classmethod
    def setUpClass(cls):
        cls.reports = {}
        out = _scratch("reports")
        try:
            for wl in workloads.WORKLOADS:
                for i in range(2):
                    path = out / f"{wl}-{i}.json"
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", wl,
                         "--seed", str(DEV_SEED), "--trace", "1",
                         "--seconds", str(run.NOMINAL_BLOCK_S[wl]),
                         "--report", str(path)],
                        capture_output=True, text=True, timeout=300)
                    if proc.returncode:
                        raise AssertionError(proc.stderr)
                    cls.reports.setdefault(wl, []).append(json.loads(path.read_text()))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def test_traced_output_is_byte_identical_and_correct(self):
        # run.py counts every request whose traced stdout differs from the
        # untraced run as failed
        for wl, reps in self.reports.items():
            for rep in reps:
                self.assertEqual(rep["failed"], 0, wl)
                self.assertGreater(rep["attempted"], 0, wl)

    def test_exercised_metrics_are_nonzero(self):
        for wl, names in EXERCISED.items():
            metrics = self.reports[wl][0]["metrics"]
            for name in names:
                self.assertGreater(metrics[name], 0, f"{name} on {wl}")
            for name in ZERO:
                self.assertEqual(metrics[name], 0, f"{name} on {wl}")

    def test_counts_and_digest_repeat(self):
        for wl, (a, b) in self.reports.items():
            for name in REPEATING:
                self.assertEqual(a["metrics"][name], b["metrics"][name], f"{name} on {wl}")
            self.assertEqual(a["extra"]["stdout_sha256"], b["extra"]["stdout_sha256"], wl)

    def test_self_times_cover_request_wall(self):
        for wl, reps in self.reports.items():
            for rep in reps:
                self.assertAlmostEqual(rep["metrics"]["trace.self_coverage"], 1.0,
                                       delta=0.05, msg=wl)


def tearDownModule():
    try:
        run.WORK_BASE.rmdir()
    except OSError:
        pass


if __name__ == "__main__":
    unittest.main()
