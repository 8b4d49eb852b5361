#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark.

Run from the repository root (builds the benchmark first):

    python3 perfbench/tests/selftest.py

Each test drives the benchmark binary at its shipped sizes for one
second: every workload must print every metric BENCHMARK.json names,
with its unit, and pass the output check on a shipped seed and on a
held-out one; the traced run's replays must match the real runs; a
tampered reference, or one made with other parameters, must fail the
run; and a unit with an invalid step must raise failed_fraction.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: the build step)

BUILD_DIR = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD_DIR, "perfbench")
REF_DIR = os.path.join(BENCH_DIR, "reference")
TMP_REF_DIR = os.path.join(BUILD_DIR, "selftest")
WORKLOADS = ["population", "audited-day", "fuzz-campaign"]
SHIPPED_SEED = 1
HELD_OUT_SEED = 11

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, *extra, trace=0, seed=SHIPPED_SEED, ref_dir=REF_DIR):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--ref-dir", ref_dir,
           *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout + done.stderr


class Metrics(unittest.TestCase):
    def check(self, workload, trace, names, seed=SHIPPED_SEED):
        code, result, log = bench(workload, trace=trace, seed=seed)
        self.assertEqual(code, 0, log)
        self.assertEqual(sorted(result), sorted(
            ["correct", "attempted", "failed", "metrics"]))
        self.assertTrue(result["correct"], log)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, log)
        expected = {m["name"]: m["unit"] for m in SPEC[names]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result, log

    def test_end_to_end_metrics_on_a_shipped_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, log = self.check(workload, 0, "end_to_end")
                self.assertIn("seed-%d.ref" % SHIPPED_SEED, log)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_end_to_end_metrics_on_a_held_out_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, log = self.check(workload, 0, "end_to_end",
                                    seed=HELD_OUT_SEED)
                self.assertIn("held-out rules", log)

    def test_per_layer_metrics_and_faithful_replay(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, log = self.check(workload, 1, "per_layer")
                self.assertEqual(
                    result["metrics"]["trace.replay_fidelity"]["value"], 1,
                    log)


class OutputCheck(unittest.TestCase):
    """Edits a copy of a shipped reference; the run must then fail."""

    def edited_run(self, workload, edit):
        path = os.path.join(TMP_REF_DIR, workload,
                            "seed-%d.ref" % SHIPPED_SEED)
        shutil.rmtree(TMP_REF_DIR, ignore_errors=True)
        os.makedirs(os.path.dirname(path))
        with open(os.path.join(REF_DIR, workload,
                               "seed-%d.ref" % SHIPPED_SEED)) as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            edited = edit(line)
            if edited != line:
                lines[i] = edited
                break
        else:
            self.fail("nothing to edit in the %s reference" % workload)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        code, result, log = bench(workload, ref_dir=TMP_REF_DIR)
        self.assertNotEqual(code, 0, log)
        self.assertFalse(result["correct"], log)
        return result, log

    def test_tampered_entry_is_caught(self):
        # Flip the last hex digit of entry 0 (batch 0 or trial 0, both of
        # which every run executes).
        def flip(line):
            if not line.startswith(("batch 0 ", "trial 0 ")):
                return line
            return line[:-1] + ("0" if line[-1] != "0" else "1")

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, log = self.edited_run(workload, flip)
                self.assertGreater(result["failed"], 0, log)
                self.assertIn("differs from", log)

    def test_reference_with_other_params_is_caught(self):
        def params(line):
            return line + " other=1" if line.startswith("params ") else line

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, log = self.edited_run(workload, params)
                self.assertIn("does not apply", log)


class FailureAccounting(unittest.TestCase):
    def test_invalid_step_raises_failed_fraction(self):
        # --inject-invalid inserts "lock; touch <parked sensitive app>"
        # into one unit: the runner must reject the touch.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, log = bench(workload, "--inject-invalid")
                self.assertNotEqual(code, 0, log)
                self.assertFalse(result["correct"], log)
                self.assertGreater(result["failed"], 0, log)
                self.assertLessEqual(result["failed"], result["attempted"])
                self.assertIn("failed_fraction", log)


if __name__ == "__main__":
    if not run.build(BUILD_DIR):
        sys.exit("perfbench: build failed")
    unittest.main()
