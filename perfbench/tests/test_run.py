"""Tests of perfbench/run.py's percentile helper, run checks and manifest
check.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_reports_value_and_sample_count(self):
        samples = list(range(1, 1001))  # 1..1000
        p = run.percentile(samples, 0.99)
        self.assertEqual(p.value, 990)
        self.assertEqual(p.count, 1000)
        self.assertEqual(p.beyond, 10)
        self.assertEqual(run.percentile(samples, 0.5).value, 500)

    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            run.percentile(list(range(999)), 0.99)  # 9 beyond
        with self.assertRaises(ValueError):
            run.percentile(list(range(19)), 0.5)  # 9 beyond
        run.percentile(list(range(20)), 0.5)  # 10 beyond: accepted

    def test_refuses_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)
        with self.assertRaises(ValueError):
            run.percentile([1.0] * 100, 1.0)


def fake_run(round_ms, epochs, availability="0.99"):
    return {"complete": True, "error": "", "threads": 1, "traced": False,
            "round_ms": round_ms,
            "fingerprint": {"epochs": epochs, "availability": availability}}


class CheckRunsTest(unittest.TestCase):
    def test_accepts_one_positive_round_time_per_epoch(self):
        run.check_runs([fake_run([1.5, 2.0], 2), fake_run([1.0, 3.0], 2)],
                       adaptive=False)

    def test_refuses_a_round_count_other_than_the_epochs(self):
        for adaptive in (False, True):
            with self.assertRaises(run.BenchError):
                run.check_runs([fake_run([1.5, 2.0, 1.0], 2)], adaptive)
        with self.assertRaises(run.BenchError):
            run.check_runs([fake_run([1.5, 2.0], 3)], adaptive=False)
        # An adaptive epoch may step no node.
        run.check_runs([fake_run([1.5, 2.0], 3)], adaptive=True)

    def test_refuses_a_round_time_that_is_not_positive(self):
        for bad in (0.0, -0.5):
            with self.assertRaises(run.BenchError):
                run.check_runs([fake_run([1.5, bad], 2)], adaptive=False)

    def test_refuses_differing_fingerprints(self):
        with self.assertRaises(run.BenchError):
            run.check_runs([fake_run([1.0], 1), fake_run([1.0], 1, "0.98")],
                           adaptive=False)


class LeastPerRoundTest(unittest.TestCase):
    def test_takes_each_rounds_least_time(self):
        runs = [fake_run([1.0, 5.0, 2.0], 3), fake_run([2.0, 4.0, 3.0], 3)]
        self.assertEqual(run.least_per_round(runs), [1.0, 4.0, 2.0])

    def test_refuses_runs_with_different_round_counts(self):
        with self.assertRaises(run.BenchError):
            run.least_per_round([fake_run([1.0, 2.0], 2), fake_run([1.0], 2)])


MANIFEST = {"nproc": 4, "cpu": "Some CPU", "compiler": "gcc 12.2.0",
            "build_type": "Release", "simd": "avx2", "git": "abc123"}


def write_output(directory, name, manifest, value):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        f.write(json.dumps({"manifest": manifest, "workload": "score_heavy"}) + "\n")
        f.write(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                            "metrics": {"setup_s": {"value": value, "unit": "s"}}})
                + "\n")
    return path


class ManifestTest(unittest.TestCase):
    def compare(self, old_manifest, new_manifest):
        with tempfile.TemporaryDirectory() as d:
            old = write_output(d, "old.out", old_manifest, 2.0)
            new = write_output(d, "new.out", new_manifest, 2.5)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run.main(["compare", old, new])
            return code, out.getvalue(), err.getvalue()

    def test_same_host_and_build_compare(self):
        other_commit = dict(MANIFEST, git="def456")
        code, out, _ = self.compare(MANIFEST, other_commit)
        self.assertEqual(code, 0)
        self.assertIn("setup_s", out)
        self.assertIn("x1.2500", out)

    def test_mismatched_manifest_is_refused(self):
        for key, value in (("nproc", 8), ("cpu", "Other CPU"),
                           ("compiler", "clang 17"), ("build_type", "Debug"),
                           ("simd", "scalar")):
            code, out, err = self.compare(MANIFEST, dict(MANIFEST, **{key: value}))
            self.assertEqual(code, 3, key)
            self.assertEqual(out, "", key)
            self.assertIn(key, err)


if __name__ == "__main__":
    unittest.main()
