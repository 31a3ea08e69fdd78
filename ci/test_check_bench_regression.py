#!/usr/bin/env python3
"""Tests for the bench regression gate (check_bench_regression.py).

Run with:
    python3 ci/test_check_bench_regression.py
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", os.path.join(_HERE, "check_bench_regression.py")
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def stage(stage_id, wall_ms, timing="measured", gate_flag=None):
    s = {"id": stage_id, "wall_ms": wall_ms, "timing": timing}
    if gate_flag is not None:
        s["gate"] = gate_flag
    return s


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, stages):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump({"stages": stages}, f)
        return path

    def run_gate(self, baseline, current):
        base = self.write("base.json", baseline)
        cur = self.write("cur.json", current)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = gate.main(["gate", base, cur, "--threshold", "1.20"])
        return code, out.getvalue()

    def test_vanished_gated_stage_fails(self):
        code, out = self.run_gate(
            [stage("measured-simd-soa-detect", 100.0), stage("server-ingest", 50.0)],
            [stage("server-ingest", 50.0)],
        )
        self.assertEqual(code, 1, out)
        self.assertIn("measured-simd-soa-detect", out)

    def test_vanished_explicitly_gated_modeled_stage_fails(self):
        code, out = self.run_gate(
            [stage("scenario-hotspot-detect", 10.0, timing="modeled", gate_flag=True)],
            [],
        )
        self.assertEqual(code, 1, out)

    def test_vanished_untagged_legacy_stage_fails(self):
        code, out = self.run_gate([{"id": "legacy", "wall_ms": 10.0}], [])
        self.assertEqual(code, 1, out)

    def test_retired_stage_may_vanish(self):
        retired = sorted(gate.RETIRED)
        self.assertIn("serial-banded", retired)
        self.assertIn("parallel-banded", retired)
        code, out = self.run_gate(
            [stage(s, 10.0, gate_flag=True) for s in retired], []
        )
        self.assertEqual(code, 0, out)
        self.assertIn("retired stage", out)

    def test_vanished_ungated_stage_is_only_reported(self):
        code, out = self.run_gate(
            [stage("serial-naive", 1000.0, timing="modeled")],
            [],
        )
        self.assertEqual(code, 0, out)

    def test_new_stage_never_fails(self):
        code, out = self.run_gate([], [stage("proc-shard-detect-2", 80.0)])
        self.assertEqual(code, 0, out)

    def test_slowdown_beyond_threshold_fails(self):
        code, _ = self.run_gate(
            [stage("sharded-detect-1", 100.0)], [stage("sharded-detect-1", 121.0)]
        )
        self.assertEqual(code, 1)
        code, _ = self.run_gate(
            [stage("sharded-detect-1", 100.0)], [stage("sharded-detect-1", 119.0)]
        )
        self.assertEqual(code, 0)

    def test_missing_baseline_is_a_graceful_skip(self):
        cur = self.write("cur.json", [stage("server-ingest", 1.0)])
        missing = os.path.join(self.dir.name, "absent.json")
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(gate.main(["gate", missing, cur]), 0)


if __name__ == "__main__":
    unittest.main()
