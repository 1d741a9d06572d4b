#!/usr/bin/env python3
"""Self-test of the gsopt benchmark.

    python3 gsbench/test_bench.py

For each workload: two traced runs with the same seed must report
identical counts; a short untraced run must pass and print every
end-to-end metric of BENCHMARK.json with its unit; and --inject-mismatch
must make the run fail. The serve_mixed calibration mode must report a
capacity. Runs from the repository root; takes a few
minutes (plus the first build).
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "gsbench", "run.py")]
WORKLOADS = ["analytic_warm", "adhoc_cold", "serve_mixed"]
SECONDS = "2"


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               SECONDS, "--trace", trace, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# Counts that depend on timing: the admission queue of the server leg.
VOLATILE = {"server.queue_high_water", "server.sheds"}


def counts(result):
    """Counts and the ratios between them (not trace.coverage, a time ratio)."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio") and name not in VOLATILE
            and name != "trace.coverage"}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_benchmark()

    def test_counts_repeat_for_a_seed(self):
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code1, r1, err1 = run(w, 7, "1")
                code2, r2, err2 = run(w, 7, "1")
                self.assertEqual(code1, 0, err1)
                self.assertEqual(code2, 0, err2)
                self.assertTrue(r1["correct"] and r2["correct"])
                self.assertEqual(set(r1["metrics"]), per_layer)
                self.assertEqual(counts(r1), counts(r2))
                self.assertGreater(r1["metrics"]["trace.coverage"]["value"],
                                   0.95)
                self.assertLess(r1["metrics"]["trace.coverage"]["value"], 1.05)

    def test_end_to_end_metrics_and_gate(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, r, err = run(w, 3, "0")
                self.assertEqual(code, 0, err)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in r["metrics"].items()}, e2e)
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

                code, r, _ = run(w, 3, "0", "--inject-mismatch")
                self.assertEqual(code, 1)
                self.assertFalse(r["correct"])
                self.assertEqual(r["failed"], 1)


    def test_calibrate_reports_capacity(self):
        run("serve_mixed", 1, "0")  # builds the binary
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        binary = os.path.join(ROOT, build, "gsbench", "gsbench")
        proc = subprocess.run(
            [binary, "--workload", "serve_mixed", "--seed", "1", "--seconds",
             "1", "--trace", "0", "--calibrate"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("closed-loop capacity:", proc.stdout)


if __name__ == "__main__":
    unittest.main()
