#!/usr/bin/env python3
"""Self-tests of the sweep benchmark. Run from the repository root:

    python3 sweepbench/test_run.py

The smoke tests build the harness (as run.py does) and run every workload's
code path on seconds-scale grids, untraced and traced.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def span(sid, parent, start, end, name="x", workers=0, kernel=""):
    return {"id": sid, "parent": parent, "start_ns": start, "end_ns": end,
            "name": name, "workers": workers, "kernel": kernel}


class TailRule(unittest.TestCase):
    def test_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(99), 75.0)   # p90 leaves only 9
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(999), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10440), 99.9)

    def test_percentile_comes_from_the_guaranteed_count(self):
        samples = list(range(1, 401))  # 400 samples, but only 100 guaranteed
        value, pct = run.tail(samples, guaranteed_n=100)
        self.assertEqual(pct, 90.0)
        self.assertAlmostEqual(value, 360.5, delta=1.0)


class Quantile(unittest.TestCase):
    def test_uniform_samples(self):
        samples = list(range(1, 1001))
        self.assertAlmostEqual(run.quantile(samples, 0.5), 500.5, delta=0.5)
        self.assertAlmostEqual(run.quantile(samples, 0.95), 950.5, delta=1.0)
        self.assertAlmostEqual(run.quantile([7.0] * 50, 0.5), 7.0)

    def test_lumpy_samples_do_not_jump(self):
        # Two job sizes, 10 and 20, half the samples each: the middle order
        # statistic jumps by the whole gap when one sample changes side.
        fewer = [10.0] * 299 + [20.0] * 301
        more = [10.0] * 301 + [20.0] * 299
        self.assertAlmostEqual(run.quantile(fewer, 0.5), 15.0, delta=1.0)
        self.assertLess(abs(run.quantile(fewer, 0.5) - run.quantile(more, 0.5)), 2.0)


class SelfTime(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertEqual(run.union_length([(0, 10), (5, 20), (30, 40)]), 30)
        self.assertEqual(run.union_length([]), 0)

    def test_overlapping_children_from_parallel_workers(self):
        spans = [
            span(1, 0, 0, 100, "bench.pass"),
            span(2, 1, 10, 90, "driver.run_jobs", workers=4),
            # four workers' jobs overlap each other under one pool span
            span(3, 2, 10, 50, "driver.job"),
            span(4, 2, 10, 60, "driver.job"),
            span(5, 2, 20, 90, "driver.job"),
            span(6, 2, 55, 70, "driver.job"),
            span(7, 3, 15, 45, "machine.run"),
            # a child that outlives its parent only covers the overlap
            span(8, 4, 50, 65, "kernels.verify"),
        ]
        selfs = run.self_times(spans)
        self.assertEqual(selfs[1], 20)   # 100 - [10, 90)
        self.assertEqual(selfs[2], 0)    # the jobs' union covers [10, 90)
        self.assertEqual(selfs[3], 10)   # 40 - 30
        self.assertEqual(selfs[4], 40)   # 50 - [50, 60)
        self.assertEqual(selfs[7], 30)

    def test_layer_metrics_from_spans(self):
        spans = [
            span(1, 0, 0, 100, "bench.pass"),
            span(2, 1, 0, 100, "driver.run_jobs", workers=2),
            span(3, 2, 0, 60, "driver.job"),
            span(4, 2, 10, 90, "driver.job"),
            span(5, 3, 0, 30, "machine.run", kernel="fmatmul"),
            span(6, 4, 20, 60, "machine.run", kernel="fconv2d"),
            span(7, 3, 30, 50, "kernels.verify", kernel="fmatmul"),
        ]
        counts = {"machine.simulated_cycles": 70, "sim.cycles_total": 70}
        m = run.layer_metrics(spans, counts, untraced_wall_s=50e-9)
        self.assertAlmostEqual(m["machine.run_s"], 70e-9)
        self.assertAlmostEqual(m["machine.run_s.fconv2d"], 40e-9)
        self.assertAlmostEqual(m["kernels.verify_s.fmatmul"], 20e-9)
        self.assertAlmostEqual(m["machine.host_ns_per_sim_cycle"], 1.0)
        self.assertAlmostEqual(m["driver.runner.idle_frac"], 1 - 140 / 200)
        self.assertAlmostEqual(m["bench.unattributed_frac"], 0.4)  # [0, 60) covered
        self.assertAlmostEqual(m["bench.trace_overhead_ratio"], 2.0)
        self.assertEqual(m["sim.cycles_total"], 70)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("setup_s", "machine.run_s.fmatmul", "a-b.c_9", "9x"):
            self.assertRegex(good, run.NAME_RE)
        for bad in ("", "a b", "a/b", "_x", ".x", "x" * 65, "é"):
            self.assertNotRegex(bad, run.NAME_RE)

    def test_every_metric_name_is_valid_and_unique(self):
        names = [m[0] for m in run.END_TO_END] + [m[0] for m in run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, run.NAME_RE)

    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
            [tuple(m) for m in run.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            [tuple(m) for m in run.PER_LAYER])
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class Smoke(unittest.TestCase):
    """Each workload's code path end to end, on seconds-scale grids."""

    def check(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(list(result["metrics"]), [m[0] for m in expected])
        self.assertIn("kernels.golden_reuse_ratio", proc.stdout)
        return result["metrics"]

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check(workload, 0)
                self.assertGreater(m["jobs_per_s"]["value"], 0)
                self.assertAlmostEqual(m["table3_max_rel_err"]["value"], 0.0277391, 6)

    def test_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                m = self.check(workload, 1)
                self.assertGreater(m["sim.cycles_total"]["value"], 0)
                self.assertLess(m["bench.unattributed_frac"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()
