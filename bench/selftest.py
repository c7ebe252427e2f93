"""Tests of the benchmark's own logic.

Run from the root of a checkout: ``python3 bench/selftest.py``. The file name
keeps these tests out of the package's pytest collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
from tracer import Span, Tracer, per_layer_metrics, self_times  # noqa: E402
from workloads import check_roundtrip, pooled_bias, roundtrip_reference  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


class TailPercentile(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        samples = [float(i) for i in range(100, 0, -1)]
        p, value = run.tail_percentile(samples)
        self.assertEqual(p, 90)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(s > value for s in samples), 10)

    def test_ten_beyond_for_other_sizes(self):
        for n in (11, 30, 57):
            p, value = run.tail_percentile([float(i) for i in range(n)])
            self.assertEqual(sum(i > value for i in range(n)), 10, n)
            self.assertLess(p, 100 * (n - 9) / n)

    def test_ten_or_fewer_samples_give_the_maximum(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (100, 3.0))


class ReferenceSpeed(unittest.TestCase):
    def test_a_uniformly_slower_machine_gives_the_same_time(self):
        ref = run.REFERENCE_S
        self.assertAlmostEqual(run.at_reference_speed(0.5, ref, ref), 0.5, places=15)
        self.assertAlmostEqual(run.at_reference_speed(0.6, 1.1 * ref, 1.3 * ref), 0.5, places=15)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
        spans = [
            Span("root", 0.0, 10.0, None, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("c", 2.0, 3.0, 1, 0),
            Span("b", 5.0, 9.0, 0, 0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_per_layer_names_match_the_benchmark_file(self):
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        self.assertEqual(list(per_layer_metrics([], 1, 0.0)), names)


class RoundTripCheck(unittest.TestCase):
    def test_one_ulp_off_b1_fails(self):
        b, theta, omega, ids = roundtrip_reference(7)
        report = {
            "coefficients": [{"name": "b_1", "estimate": b, "std_error": 0.1}],
            "groups": [
                {"group_id": gid, "theta_hat": [float(x) for x in theta[i]] if omega[i] else None}
                for i, gid in enumerate(ids)
            ],
        }
        self.assertEqual(check_roundtrip(report, (b, theta, omega, ids)), [])
        report["coefficients"][0]["estimate"] = math.nextafter(b, math.inf)
        errors = check_roundtrip(report, (b, theta, omega, ids))
        self.assertEqual(len(errors), 1)
        self.assertIn("b_1", errors[0])


class PooledBias(unittest.TestCase):
    def test_matches_the_concatenated_draws(self):
        rng = np.random.default_rng(3)
        draws = [rng.normal(0.2, 1.0, 10) for _ in range(6)]
        rows = [
            {"replications": 10, "bias": [d.mean()], "sd": [d.std(ddof=1)]} for d in draws
        ]
        allv = np.concatenate(draws)
        bias, se = pooled_bias(rows)
        self.assertAlmostEqual(bias, allv.mean(), places=12)
        self.assertAlmostEqual(se, allv.std(ddof=1) / math.sqrt(allv.size), places=12)


class Tracing(unittest.TestCase):
    def test_spans_reach_estimate_arrays_through_run_monte_carlo(self):
        import groupfx.first_stage
        import groupfx.simlab
        import groupfx.simlab.montecarlo as mc_module

        original = groupfx.first_stage.estimate_arrays
        preset = groupfx.simlab.load_preset("gmm_bias_demo", G=60)
        tracer = Tracer()
        tracer.op = 5
        tracer.install()
        try:
            groupfx.simlab.run_monte_carlo(preset.cfg, ["md"], 2, spec=preset.spec)
        finally:
            tracer.uninstall()
        names = [s.name for s in tracer.spans]
        self.assertEqual(names.count("first_stage.estimate_arrays"), 2)
        self.assertEqual(names.count("simlab.dgp.simulate"), 2)
        self.assertEqual(names.count("md.fit_core"), 2)
        mc = names.index("simlab.montecarlo.run_monte_carlo")
        fs = [s for s in tracer.spans if s.name == "first_stage.estimate_arrays"]
        self.assertTrue(all(s.parent == mc and s.op == 5 for s in fs))
        self.assertEqual(fs[0].counts["groups"], 60)
        self.assertIs(groupfx.first_stage.estimate_arrays, original)
        self.assertIs(mc_module.estimate_arrays, original)


class EndToEnd(unittest.TestCase):
    def _run(self, trace: int, spans=None) -> dict:
        argv = ["--workload", "mc_gmm_bias", "--seed", "4", "--seconds", "0.01",
                "--trace", str(trace)]
        if spans:
            argv += ["--spans", spans]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(argv)
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_untraced_run_prints_the_end_to_end_metrics(self):
        result = self._run(0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_run_prints_the_per_layer_metrics(self):
        with tempfile.TemporaryDirectory(prefix=".bench_selftest-", dir=ROOT) as tmp:
            path = os.path.join(tmp, "spans.jsonl")
            result = self._run(1, path)
            with open(path, encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
        expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        self.assertEqual(result["metrics"]["simlab.montecarlo.replications"]["value"], 10)
        self.assertEqual(
            {"name", "start", "end", "parent", "op", "counts"}, set(spans[0])
        )
        self.assertEqual(statistics.mode(s["op"] for s in spans), 1)


if __name__ == "__main__":
    unittest.main()
