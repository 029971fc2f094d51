"""Tests of the benchmark's own logic. No build needed:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import collections
import json
import unittest
from pathlib import Path

import lib

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MODULES = [f"m{i}.mir" for i in range(16)]


class NearestRankTest(unittest.TestCase):
    def test_picks_the_smallest_sample_covering_the_share(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(lib.nearest_rank(values, 50), 50)
        self.assertEqual(lib.nearest_rank(values, 99), 99)
        self.assertEqual(lib.nearest_rank(values, 100), 100)
        self.assertEqual(lib.nearest_rank(values, 0), 1)

    def test_ignores_input_order_and_rounds_the_rank_up(self):
        self.assertEqual(lib.nearest_rank([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(lib.nearest_rank([10, 20, 30, 40], 50), 20)
        self.assertEqual(lib.nearest_rank([10, 20, 30, 40], 51), 30)
        self.assertEqual(lib.nearest_rank([7], 99), 7)

    def test_rejects_no_samples(self):
        with self.assertRaises(ValueError):
            lib.nearest_rank([], 50)


class TailRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        # 999 samples: rank 990, 9 beyond; 1000 samples: rank 990, 10 beyond.
        self.assertEqual(lib.samples_beyond(999, 99), 9)
        self.assertFalse(lib.tail_reportable(999))
        self.assertEqual(lib.samples_beyond(1000, 99), 10)
        self.assertTrue(lib.tail_reportable(1000))
        self.assertFalse(lib.tail_reportable(0))

    def test_beyond_count_matches_nearest_rank(self):
        for count in (1, 10, 99, 100, 101, 1000, 1234):
            values = list(range(count))
            p99 = lib.nearest_rank(values, 99)
            self.assertEqual(sum(v > p99 for v in values),
                             lib.samples_beyond(count, 99))


class ClientFiguresTest(unittest.TestCase):
    def test_p99_reads_zero_without_ten_samples_beyond(self):
        figures = lib.client_figures(list(range(999)), list(range(1000)), 5.0)
        self.assertEqual(figures["serve.cold_p99_ms"], 0.0)
        self.assertEqual(figures["serve.warm_p99_ms"], 989)
        self.assertEqual(figures["serve.cold_n"], 999)
        self.assertEqual(figures["serve.cold_p50_ms"], 499)
        self.assertEqual(figures["serve.warm_p50_ms"], 499)
        self.assertEqual(figures["serve.req_per_s"], 5.0)
        self.assertEqual(set(figures), set(lib.CLIENT_FIGURES))


class RequestStreamTest(unittest.TestCase):
    def test_is_a_pure_function_of_the_seed(self):
        first = lib.request_stream(7, 500, MODULES)
        self.assertEqual(first, lib.request_stream(7, 500, MODULES))
        self.assertEqual(first, lib.request_stream(7, 500, list(reversed(MODULES))))
        self.assertNotEqual(first, lib.request_stream(8, 500, MODULES))
        lines = [lib.request_line(f"r{i}", m, o, s)
                 for i, (m, o, s) in enumerate(first)]
        self.assertEqual(lines, [lib.request_line(f"r{i}", m, o, s) for i, (m, o, s)
                                 in enumerate(lib.request_stream(7, 500, MODULES))])

    def test_half_repeat_an_earlier_pair(self):
        stream = lib.request_stream(3, lib.SERVE_REQUESTS, MODULES)
        repeats = len(stream) - len(lib.distinct_pairs(stream))
        self.assertEqual(repeats, lib.SERVE_REQUESTS // 2)

    def test_every_seed_asks_for_the_same_mix(self):
        def mix(seed):
            fresh = lib.distinct_pairs(
                lib.request_stream(seed, lib.SERVE_REQUESTS, MODULES))
            return collections.Counter((m, o) for m, o, _ in fresh)
        for seed in (1, 2, 99):
            counts = mix(seed)
            self.assertEqual(len(counts), len(MODULES) * len(lib.OPTION_SETS))
            self.assertLessEqual(max(counts.values()) - min(counts.values()), 1)

    def test_draws_every_module_and_option_set(self):
        stream = lib.request_stream(3, lib.SERVE_REQUESTS, MODULES)
        self.assertEqual({m for m, _, _ in stream}, set(MODULES))
        self.assertEqual({o for _, o, _ in stream}, set(lib.OPTION_SETS))

    def test_request_and_cli_carry_the_same_options(self):
        line = json.loads(lib.request_line("r1", "/x/a.mir", "repair", 42))
        self.assertEqual(line, {"id": "r1", "module_path": "/x/a.mir",
                                "options": {"repair": True, "seed": 42}})
        self.assertEqual(lib.cli_args("/x/a.mir", "repair", 42, "/tmp/r"),
                         ["/x/a.mir", "--jobs", "1", "--seed", "42",
                          "--repair", "/tmp/r"])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        ms = 1_000_000
        spans = [
            ["target", 0, 0, 0, 100 * ms],
            ["detection", 0, 1, 10 * ms, 30 * ms],
            ["detect-schedule", 0, 2, 12 * ms, 20 * ms],
            ["annotation", 0, 1, 50 * ms, 20 * ms],
            ["detect-schedule", 0, 2, 55 * ms, 5 * ms],
            ["bench.render", 0, 0, 100 * ms, 7 * ms],
        ]
        per_layer, per_root = lib.self_times(spans)
        self.assertAlmostEqual(per_layer["core.pipeline_self_s"], 0.050)
        self.assertAlmostEqual(per_layer["race.detect_s"], 0.035)
        self.assertAlmostEqual(per_layer["sync.annotate_s"], 0.015)
        self.assertAlmostEqual(per_layer["core.render_s"], 0.007)
        # The pipeline's own 50 ms lies in no stage span: not attributed.
        self.assertAlmostEqual(per_root["target"], 0.050)
        self.assertAlmostEqual(per_root["bench.render"], 0.007)

    def test_unnamed_spans_charge_their_nearest_named_ancestor(self):
        spans = [["race-verification", 1, 0, 0, 10_000],
                 ["some-new-span", 1, 1, 1_000, 4_000]]
        per_layer, per_root = lib.self_times(spans)
        self.assertAlmostEqual(per_layer["verify.race_s"], 10e-6)
        # ...but coverage counts only the named span's own 6 us.
        self.assertAlmostEqual(per_root["race-verification"], 6e-6)

    def test_a_request_gap_is_not_attributed(self):
        spans = [["bench.request", 0, 0, 0, 1_000],
                 ["bench.protocol", 0, 1, 0, 300],
                 ["bench.exec", 0, 1, 500, 400]]
        per_layer, per_root = lib.self_times(spans)
        self.assertAlmostEqual(per_layer["serve.protocol_s"], 600e-9)
        self.assertAlmostEqual(per_root["bench.request"], 700e-9)

    def test_threads_are_separate_trees(self):
        spans = [["target", 0, 0, 0, 100], ["target", 1, 0, 0, 100],
                 ["detection", 1, 1, 10, 50]]
        per_layer, _ = lib.self_times(spans)
        self.assertAlmostEqual(per_layer["core.pipeline_self_s"], 150e-9)
        self.assertAlmostEqual(per_layer["race.detect_s"], 50e-9)


class CounterTest(unittest.TestCase):
    def test_sums_snapshots_and_derives_the_ratios(self):
        snapshot = {
            "behavioral": {"race_verifier.attempts": 8,
                           "race_verifier.verified": 2,
                           "predict.schedules_avoided": 24,
                           "repair.repaired": 1,
                           "pipeline.raw_reports_per_target": {"count": 1}},
            "advisory": {"detector.accesses": 100,
                         "detector.epoch_read_hits": 30,
                         "detector.epoch_write_hits": 10},
        }
        metrics, _ = lib.layer_metrics([], [snapshot, None, snapshot], 2)
        self.assertEqual(metrics["verify.race_attempts"], 16)
        self.assertEqual(metrics["race.accesses"], 200)
        self.assertAlmostEqual(metrics["race.fast_path_frac"], 0.4)
        self.assertAlmostEqual(metrics["verify.race_verified_per_attempt"], 0.25)
        self.assertAlmostEqual(metrics["predict.pruned_frac"], 0.75)
        self.assertAlmostEqual(metrics["repair.repaired_frac"], 1.0)
        self.assertEqual(metrics["checkers.findings"], 0)

    def test_repaired_share_counts_only_requests_that_asked(self):
        # Once one request ran repair, the registry reports repair.repaired
        # at 0 in every later snapshot, repair or not.
        repaired = {"behavioral": {"repair.repaired": 1}}
        not_repaired = {"behavioral": {"repair.repaired": 0}}
        metrics, _ = lib.layer_metrics(
            [], [repaired, not_repaired, not_repaired, not_repaired], 2)
        self.assertAlmostEqual(metrics["repair.repaired_frac"], 0.5)
        metrics, _ = lib.layer_metrics([], [not_repaired], 0)
        self.assertEqual(metrics["repair.repaired_frac"], 0.0)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.benchmark = json.loads(BENCHMARK_JSON.read_text())

    def printed_names(self, units):
        values = {name: 1.0 for name in units}
        return set(json.loads(lib.result_line(True, 1, 0, values, units))["metrics"])

    def test_every_printed_metric_is_declared(self):
        end_to_end = {m["name"]: m["unit"] for m in self.benchmark["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.benchmark["per_layer"]}
        self.assertEqual(self.printed_names(lib.END_TO_END), set(end_to_end))
        self.assertEqual(self.printed_names(lib.PER_LAYER), set(per_layer))
        self.assertEqual(lib.END_TO_END, end_to_end)
        self.assertEqual(lib.PER_LAYER, per_layer)

    def test_layer_metrics_fill_exactly_the_declared_names(self):
        metrics, _ = lib.layer_metrics([], [None], 0)
        self.assertEqual(set(metrics), set(lib.PER_LAYER))
        self.assertTrue(set(lib.SPAN_LAYER.values()) <= set(lib.PER_LAYER))
        self.assertTrue(set(lib.COUNTER_SUMS) <= set(lib.PER_LAYER))
        self.assertTrue(set(lib.CLIENT_FIGURES) <= set(lib.PER_LAYER))

    def test_declared_workloads_are_runnable(self):
        declared = [w["name"] for w in self.benchmark["workloads"]]
        self.assertEqual(declared, list(lib.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
