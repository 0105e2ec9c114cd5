#!/usr/bin/env python3
"""The benchmark's report and catalogue checks.

Run from the repository root:

    python3 perfbench/test_report.py

It checks that `BENCHMARK.json` names valid, unique metrics, and that
one short untraced and one short traced run of `paper_100` print a last
line that parses as JSON with exactly the report's keys and exactly the
catalogue's metrics, in order, with their units. The two runs take about
a minute on a 2-vCPU host, after the build.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_100",
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


class Catalogue(unittest.TestCase):
    def test_names_and_units_are_valid_and_unique(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        for section in ("end_to_end", "per_layer"):
            for m in s[section]:
                self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
                self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in s["end_to_end"]])


class Report(unittest.TestCase):
    def check(self, trace, section):
        report = run(trace)
        self.assertEqual(list(report), ["correct", "attempted", "failed", "metrics"])
        self.assertIs(report["correct"], True)
        self.assertIsInstance(report["attempted"], int)
        self.assertGreaterEqual(report["attempted"], 1)
        self.assertEqual(report["failed"], 0)
        expected = [(m["name"], m["unit"]) for m in spec()[section]]
        printed = [(k, v["unit"]) for k, v in report["metrics"].items()]
        self.assertEqual(printed, expected)
        for name, m in report["metrics"].items():
            self.assertEqual(list(m), ["value", "unit"])
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_untraced_report_names_the_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_report_names_the_per_layer_metrics(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
