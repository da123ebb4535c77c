"""Unit tests for the benchmark's helpers.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402
import run  # noqa: E402

T5 = """T5 — Pipeline effectiveness
+----------+---------+---------+
| source   | lines   | corrupt |
+----------+---------+---------+
| syslog   | 195910  | 3       |
| hwerr    | 1058    | 0       |
| TOTAL    | 196968  | 3       |
+----------+---------+---------+
syslog kept: 22716 of 195910 (88.40% discarded as chatter)
"""


class Statistics(unittest.TestCase):
    def test_quartiles_follow_the_statistics_module(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        self.assertEqual(bl.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = bl.quartiles(values)
        self.assertAlmostEqual(bl.spread(values), (q3 - q1) / q2)

    def test_spread_of_identical_values_is_zero(self):
        self.assertEqual(bl.spread([5.0] * 10), 0.0)

    def test_quartiles_need_two_values(self):
        with self.assertRaises(ValueError):
            bl.quartiles([1.0])


class Names(unittest.TestCase):
    def test_valid_names(self):
        for name in ("lines_per_s", "core.filter_s.t1", "wire.share", "setup_s", "9a-b"):
            self.assertTrue(bl.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", ".lead", "_lead", "has space", "slash/x", "x" * 65, "é"):
            self.assertFalse(bl.valid_name(name), name)

    def test_units(self):
        for unit in ("s", "ms", "lines/s", "MiB", "count", "ratio", "%"):
            self.assertTrue(bl.valid_unit(unit), unit)
        for unit in ("", "x" * 17, "a b"):
            self.assertFalse(bl.valid_unit(unit), unit)

    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {name: why for name, (_, why) in run.WORKLOADS.items()})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertTrue(bl.valid_name(m["name"]), m["name"])
            self.assertTrue(bl.valid_unit(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]), setup["bound"])


class Reports(unittest.TestCase):
    def test_exact_match_is_byte_for_byte(self):
        self.assertTrue(bl.reports_match("a\nb\n", "a\nb\n"))
        self.assertFalse(bl.reports_match("a\nb", "a\nb\n"))
        self.assertFalse(bl.reports_match("a\nc\n", "a\nb\n"))

    def test_frame_match_ignores_trailing_newlines_only(self):
        self.assertTrue(bl.reports_match("a\nb", "a\nb\n\n", exact=False))
        self.assertFalse(bl.reports_match("a\n\nb", "a\nb", exact=False))

    def test_corrupt_lines_reads_the_t5_total(self):
        self.assertEqual(bl.corrupt_lines(T5), 3)
        with self.assertRaises(ValueError):
            bl.corrupt_lines("no table here")

    def test_stream_progress_reads_the_last_line(self):
        err = (
            "[stream] lines=10 bad=0 watermark=x late_dropped=0 health=ok\n"
            "[stream] lines=20 bad=2 watermark=blocked runs=1/0 open late_dropped=5 health=ok\n"
        )
        progress = bl.stream_progress(err)
        self.assertEqual(progress["lines"], "20")
        self.assertEqual(progress["bad"], "2")
        self.assertEqual(progress["late_dropped"], "5")
        with self.assertRaises(ValueError):
            bl.stream_progress("nothing")


class Corpus(unittest.TestCase):
    def test_mix_counts_lines_bytes_and_shares(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "messages.log"), "w") as f:
                f.write("a\nb\n")
            with open(os.path.join(d, "apsys.log"), "w") as f:
                f.write("ccc\nd\ne\nf\n")
            with open(os.path.join(d, "ground_truth.jsonl"), "w") as f:
                f.write("{}\n" * 100)
            mix = bl.corpus_mix(d)
        self.assertEqual(mix["lines"], 6)
        self.assertEqual(mix["bytes"], 4 + 10)
        self.assertEqual(mix["files"]["messages.log"]["share"], round(2 / 6, 4))
        self.assertEqual(mix["files"]["apsys.log"]["lines"], 4)
        self.assertEqual(mix["files"]["torque.log"], {"lines": 0, "bytes": 0, "share": 0.0})

    def test_filesystem_of_the_root(self):
        mount, fstype = bl.filesystem_of("/")
        self.assertEqual(mount, "/")
        self.assertTrue(fstype)


class Processes(unittest.TestCase):
    def test_run_timed_reports_wall_rss_and_code(self):
        with tempfile.TemporaryDirectory() as d:
            out, err = os.path.join(d, "o"), os.path.join(d, "e")
            timed = bl.run_timed(
                [sys.executable, "-c", "print('hi'); raise SystemExit(3)"], out, err, 60)
            with open(out) as f:
                self.assertEqual(f.read(), "hi\n")
        self.assertEqual(timed.code, 3)
        self.assertGreater(timed.wall_s, 0)
        self.assertGreater(timed.rss_mb, 0)

    def test_run_timed_kills_at_the_timeout(self):
        with tempfile.TemporaryDirectory() as d:
            with self.assertRaises(RuntimeError):
                bl.run_timed([sys.executable, "-c", "import time; time.sleep(30)"],
                             os.path.join(d, "o"), os.path.join(d, "e"), 0.5)


if __name__ == "__main__":
    unittest.main()
