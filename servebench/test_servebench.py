#!/usr/bin/env python3
"""The benchmark's own tests, on small streams of each workload.

    python3 servebench/test_servebench.py

Builds the benchmark like run.py does, then checks for every workload that
the layer-pass rebuild matches the run bit for bit, that every metric
BENCHMARK.json names is printed with its unit, and that a deliberately
corrupted record makes failed_share non-zero and the exit code non-zero.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = {"online_soak": 3000, "qos_catalog": 3000, "qos_slo_traced": 300}
SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
BINARY = None


def bench(workload, trace, corrupt=0):
    command = [BINARY, "--workload", workload, "--seed", "7",
               "--seconds", "0.2", "--trace", str(trace),
               "--jobs", str(SMALL[workload]), "--corrupt", str(corrupt)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class ServebenchTest(unittest.TestCase):
    def check_units(self, result, specs):
        printed = result["metrics"]
        self.assertEqual(sorted(printed), sorted(m["name"] for m in specs))
        for spec in specs:
            self.assertEqual(printed[spec["name"]]["unit"], spec["unit"],
                             spec["name"])

    def test_layer_pass_rebuild_matches(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                code, result = bench(workload, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"] % SMALL[workload], 0)
                metrics = result["metrics"]
                if workload == "qos_slo_traced":
                    self.assertGreater(metrics["sim.engine.runs"]["value"], 0)
                    self.assertGreater(
                        metrics["qos.admission.degraded"]["value"], 0)
                    self.assertGreater(metrics["obs.events"]["value"], 0)
                else:
                    self.assertGreater(
                        metrics["sim.replay.periods"]["value"], 0)
                self.check_units(result, SPEC["per_layer"])

    def test_end_to_end_metrics_printed_with_units(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                code, result = bench(workload, trace=0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_units(result, SPEC["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_corrupted_record_fails(self):
        for workload in SMALL:
            with self.subTest(workload=workload):
                code, result = bench(workload, trace=0, corrupt=1)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    BINARY = run.build()
    if BINARY is None:
        sys.exit(2)
    unittest.main()
