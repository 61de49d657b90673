#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Smoke-size runs (--smoke: tiny corpora, one-second timed phase) of every
workload, in both modes, must exit 0 with a correct result that carries every
metric BENCHMARK.json names, with its unit. A second seed must also pass. An
injected output corruption (--corrupt) must make the checks fail, and a
checkout without the repository sources must exit non-zero without a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# hostile_batch is not in BENCHMARK.json: on a shared host its run-to-run
# spread reaches the bounds (perfbench/README.md). It still runs, so the
# tests cover it too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WORKLOADS += [w for w in ("hostile_batch",) if w not in WORKLOADS]


def bench(*args, run=RUN):
    return subprocess.run([sys.executable, run, *args], capture_output=True,
                          text=True, timeout=600)


def smoke(workload, trace, *extra, seed=1):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke", *extra)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload, trace, seed=1):
        proc = smoke(workload, trace, seed=seed)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = result_of(proc)
        self.assertIsNotNone(result, proc.stdout[-2000:])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        for metric in wanted:
            with self.subTest(workload=workload, metric=metric["name"]):
                got = result["metrics"].get(metric["name"])
                self.assertIsNotNone(got, "metric not emitted")
                self.assertEqual(got["unit"], metric["unit"])
                self.assertTrue(math.isfinite(got["value"]))
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        return result

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            result = self.check_run(workload, 0)
            for metric in SPEC["end_to_end"]:
                self.assertNotEqual(result["metrics"][metric["name"]]["value"],
                                    0.0, (workload, metric["name"]))

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            result = self.check_run(workload, 1)
            self.assertGreaterEqual(
                result["metrics"]["trace.stage_coverage"]["value"], 0.95)

    def test_second_seed(self):
        for workload in WORKLOADS:
            self.check_run(workload, 0, seed=2)


class Checks(unittest.TestCase):
    def test_corruption_fails_the_checks(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = smoke(workload, trace, "--corrupt")
                    self.assertNotEqual(proc.returncode, 0)
                    result = result_of(proc)
                    self.assertIsNotNone(result)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertIn("fingerprint", proc.stderr)

    def test_without_sources_exits_nonzero(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench("--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0",
                         run=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_of(proc))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
