#!/usr/bin/env python3
"""The benchmark's own test: seeded scripts and exact per-layer counts.

    python3 perfbench/test_determinism.py

For every workload, two traced runs with the same seed must produce the
same script and identical per-layer counts (fixpoint, ET, exec and
absdom counts, InvalidationStats, pool/warm/cache hits), and a run with
another seed must change the script but report the same metric set.
Runs are short (--seconds 2); every run must report correct output.
"""

import sys
import unittest

from steadiness import SPEC, exact_counts, run_once

SECONDS = 2
# The detail key that identifies each workload's op script.
SCRIPT_KEY = {"suite_cold": "script", "serve_warm": "script_head", "edit_stream": "script_digest"}


class Determinism(unittest.TestCase):
    def check(self, workload):
        first, d1 = run_once(workload, 1, SECONDS, 1)
        again, d2 = run_once(workload, 1, SECONDS, 1)
        other, d3 = run_once(workload, 2, SECONDS, 1)
        for result in (first, again, other):
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
        key = SCRIPT_KEY[workload]
        self.assertEqual(d1[key], d2[key], "same seed, same script")
        self.assertNotEqual(d1[key], d3[key], "another seed, another script")
        counts = exact_counts(first["metrics"])
        self.assertTrue(any(v != 0 for v in counts.values()), "the workload reports counts")
        self.assertEqual(counts, exact_counts(again["metrics"]), "counts repeat exactly")
        self.assertEqual(sorted(first["metrics"]), sorted(other["metrics"]), "same metric set")
        self.assertEqual(sorted(first["metrics"]), sorted(m["name"] for m in SPEC["per_layer"]))

    def test_suite_cold(self):
        self.check("suite_cold")

    def test_serve_warm(self):
        self.check("serve_warm")

    def test_edit_stream(self):
        self.check("edit_stream")


if __name__ == "__main__":
    sys.exit(unittest.main())
