#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root (the first run builds nazar_bench):

    python3 nazarbench/test_smoke.py

For each workload, both the end-to-end run (--trace 0) and the traced
run (--trace 1) must exit 0 with every correctness check passing and
leave no state dir behind. run.py itself refuses (exits non-zero) a
result whose metrics are not the ones BENCHMARK.json lists, each finite
and with its unit. run.py must also refuse to run, without printing a
result, in a directory that holds only the benchmark.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_out", "smoke")
WORKLOADS = ("fleet", "ingest", "restart", "rca")


def run_bench(cwd, workload, trace, timeout=900):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "nazarbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", "--work-dir", WORK],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def check_run(self, workload, trace):
        done = run_bench(ROOT, workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0.0, name)
        # Only trace files may stay in the work dir; state dirs are gone.
        left = [n for n in os.listdir(WORK) if not n.endswith(".json")]
        self.assertEqual(left, [])

    def test_workloads(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_refuses_without_sources(self):
        bare = os.path.join(WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "nazarbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "rca", 0, timeout=170)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
