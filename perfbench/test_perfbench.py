#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Covers the percentile/ratio/self-time helpers, BENCHMARK.json against the
benchmark's own rules (names, units, limits, the per-layer map), and that a
seed reproduces the same inputs. The last test builds latte_perfbench
through run.py if it is not built yet."""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402
import run  # noqa: E402

SPEC_PATH = run.ROOT / "BENCHMARK.json"


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


class Helpers(unittest.TestCase):
    def test_percentile_matches_statistics_inclusive(self):
        for xs in ([3.0], [1.0, 2.0], [5, 1, 4, 2, 3], list(range(101)),
                   [0.5, 9.25, 3.0, 3.0, 7.75, 1.0, 2.0]):
            if len(xs) > 1:
                qs = statistics.quantiles(xs, n=100, method="inclusive")
                for q in (1, 10, 25, 50, 90, 99):
                    self.assertAlmostEqual(analysis.percentile(xs, q),
                                           qs[q - 1])
            self.assertEqual(analysis.percentile(xs, 0), min(xs))
            self.assertEqual(analysis.percentile(xs, 100), max(xs))
        with self.assertRaises(ValueError):
            analysis.percentile([], 50)

    def test_ratio_and_spread(self):
        self.assertEqual(analysis.ratio(3, 4), 0.75)
        self.assertEqual(analysis.ratio(3, 0), 0.0)
        vals = [10, 10, 10, 10, 10]
        self.assertEqual(analysis.spread(vals), 0.0)
        vals = [8, 9, 10, 11, 12, 13, 9.5, 10.5, 10, 10]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(analysis.spread(vals), (q3 - q1) / med)

    def test_self_times(self):
        x = lambda name, ts, dur, tid=0: {"name": name, "ph": "X", "ts": ts,
                                          "dur": dur, "tid": tid}
        spans = [
            x("step", 0.0, 10.0),
            x("fwd", 0.0, 4.0),        # shares the parent's start
            x("bwd", 4.0, 5.0),        # touches fwd: a sibling, not a child
            x("task", 1.0, 2.0),       # nested two deep
            x("other", 2.0, 3.0, 1),   # another lane: not a child
            {"name": "req", "ph": "async", "ts": 0.0, "dur": 50.0},
        ]
        st = analysis.self_times(spans)
        self.assertAlmostEqual(st[0], 1.0)
        self.assertAlmostEqual(st[1], 2.0)
        self.assertAlmostEqual(st[2], 5.0)
        self.assertAlmostEqual(st[3], 2.0)
        self.assertAlmostEqual(st[4], 3.0)
        self.assertIsNone(st[5])
        table = analysis.self_time_table(spans)
        self.assertEqual(table["step"][0], 1)
        self.assertAlmostEqual(table["step"][2], 1.0 / 1e3)


def report(workload, trace):
    """A minimal raw report as latte_perfbench writes it."""
    x = lambda name, ts, dur: {"name": name, "ph": "X", "ts": ts, "dur": dur,
                               "tid": 0}
    train = workload in analysis.TRAIN
    key = "step_ms" if train else "latency_ms"
    samples = {"setup_s": [1.0, 3.0, 2.0], key: [2.0, 4.0, 6.0, 8.0],
               "untraced." + key: [2.0, 4.0, 6.0, 8.0], "late_ms": [0.1]}
    counters = {name: 1.0 for name in analysis.LAYERS}
    counters.update({"peak_rss_mb": 50.0, "items_per_step": 4,
                     "saturated_rps": 900.0,
                     "kernels.sgemm_flops.conv_fwd": 2e6,
                     "kernels.sgemm_flops.conv_wgrad": 1e6})
    spans = [x(n, 0.0, 1000.0) for n in (
        "compiler.compile", "engine.executor_build", "engine.forward",
        "engine.backward", "solvers.step", "kernels.sgemm.conv_fwd",
        "kernels.sgemm.conv_wgrad", "serve.submit", "baselines.caffe_step")]
    for i, s in enumerate(spans):  # make them siblings
        s["ts"] = 2000.0 * i
    return {"workload": workload, "seed": 1, "correct": True, "errors": [],
            "attempted": 4, "failed": 1 if trace else 0,
            "samples": samples, "counters": counters, "spans": spans}


class Derivation(unittest.TestCase):
    def test_end_to_end(self):
        m = analysis.end_to_end(report("train_cnn", 0))
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["p50_ms"], 5.0)
        self.assertAlmostEqual(m["tail_ms"], 7.4)
        self.assertAlmostEqual(m["items_per_s"], 4 * 4 / 0.020)
        self.assertEqual(m["success_ratio"], 1.0)
        self.assertEqual(analysis.end_to_end(report("serve_mixed", 0))
                         ["items_per_s"], 900.0)
        names = {e["name"] for e in load_spec()["end_to_end"]}
        self.assertEqual(set(m), names)

    def test_per_layer_zero_off_path_and_complete(self):
        for w in analysis.WORKLOADS:
            m = analysis.per_layer(report(w, 1))
            self.assertEqual(set(m), set(analysis.LAYERS))
            for name, (_, _, on, _) in analysis.LAYERS.items():
                if w not in on:
                    self.assertEqual(m[name], 0.0, name)
            self.assertAlmostEqual(m["kernels.sgemm_gflops.conv_fwd"], 2.0)
            self.assertAlmostEqual(m["trace.overhead_pct"], 0.0)

    def test_per_layer_missing_span_is_an_error(self):
        r = report("train_cnn", 1)
        r["spans"] = [s for s in r["spans"] if s["name"] != "engine.forward"]
        with self.assertRaises(KeyError):
            analysis.per_layer(r)


class Spec(unittest.TestCase):
    def test_benchmark_json_follows_the_rules(self):
        self.assertEqual(analysis.check_spec(load_spec()), [])

    def test_checker_rejects_bad_specs(self):
        def broken(edit):
            spec = load_spec()
            edit(spec)
            return analysis.check_spec(spec)
        self.assertTrue(broken(lambda s: s["end_to_end"][0].update(
            name="bad name")))
        self.assertTrue(broken(lambda s: s["end_to_end"][0].update(
            unit="m s")))
        self.assertTrue(broken(lambda s: s["end_to_end"][0].update(
            bound=0.3)))
        self.assertTrue(broken(lambda s: s["end_to_end"].extend(
            dict(s["end_to_end"][0], name="e%d" % i) for i in range(16))))
        self.assertTrue(broken(lambda s: s["per_layer"].extend(
            dict(s["per_layer"][0], name="l%d" % i) for i in range(128))))
        self.assertTrue(broken(lambda s: s["per_layer"].pop()))

    def test_every_layer_metric_names_what_it_moves(self):
        e2e = {m["name"] for m in load_spec()["end_to_end"]}
        controls = {"loadgen.late_ms_p99", "baselines.caffe_step_ms",
                    "trace.overhead_pct"}
        for name, (_, _, on, moves) in analysis.LAYERS.items():
            if moves is None:
                self.assertIn(name, controls)
                continue
            target, where = moves
            self.assertIn(target, e2e, name)
            self.assertTrue(where, name)
            self.assertLessEqual(set(where), set(on), name)

    def test_serve_rates_are_recorded_in_benchmark_json(self):
        why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
        line = why["serve_mixed"]
        self.assertIn("%d req/s" % run.SERVE["nominal_rps"], line)
        ladder = run.SERVE["ladder_rps"]
        self.assertIn("%d..%d req/s" % (ladder[0], ladder[-1]), line)
        self.assertIn("%d ms limit" % run.SERVE["limit_ms"], line)
        self.assertEqual(ladder, sorted(ladder))


class SeededInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def digest(self, workload, seed):
        return subprocess.run(
            [str(run.BINARY), "--digest", "--workload", workload, "--seed",
             str(seed)], check=True, capture_output=True,
            text=True).stdout.strip()

    def test_same_seed_same_schedule_and_batches(self):
        for w in analysis.WORKLOADS:
            a, b, c = self.digest(w, 7), self.digest(w, 7), self.digest(w, 8)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)


if __name__ == "__main__":
    unittest.main()
