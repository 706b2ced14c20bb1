"""Smoke-scale self-test of the benchmark.

Run from the root of a checkout (about a minute on 2 cpus)::

    python3 perfbench/selftest.py

For every workload at 20k rows it checks that an untraced run emits each
end-to-end metric of ``BENCHMARK.json`` with its unit, that a traced run
emits each per-layer metric, and that the correctness gate fails the run
when one answer is deliberately corrupted. It also checks the format of
``BENCHMARK.json`` and that the benchmark refuses to run, printing no
result, in a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE = ["--rows", "20000", "--seconds", "1"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload: str, *extra: str, cwd: str = ROOT
          ) -> tuple[int, list[str]]:
    cmd = load_spec()["command"] + ["--workload", workload, "--seed", "3",
                                    *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


class BenchmarkSelfTest(unittest.TestCase):

    def setUp(self):
        self.spec = load_spec()

    def test_spec_format(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        metrics = spec["end_to_end"] + spec["per_layer"]
        names += [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in metrics:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertGreater(setup[0]["bound"],
                           max(m["bound"] for m in spec["end_to_end"]
                               if m["name"] != "setup_s"))

    def check_metrics(self, lines: list[str], wanted: list[dict]) -> dict:
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_every_metric_emitted(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines = bench(w["name"], *SMOKE, "--trace", "0")
                self.assertEqual(code, 0, lines[-20:])
                result = self.check_metrics(lines, self.spec["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                code, lines = bench(w["name"], *SMOKE, "--trace", "1")
                self.assertEqual(code, 0, lines[-20:])
                self.check_metrics(lines, self.spec["per_layer"])

    def test_gate_catches_a_corrupted_answer(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                code, lines = bench(w["name"], *SMOKE, "--trace", "0",
                                    "--corrupt")
                self.assertEqual(code, 1, lines[-20:])
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            for path in self.spec["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            workload = self.spec["workloads"][0]["name"]
            code, lines = bench(workload, *SMOKE, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0], "-v"] + sys.argv[1:])
