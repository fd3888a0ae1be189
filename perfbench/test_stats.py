"""Tests for the benchmark's arithmetic on hand-built samples.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class TailTest(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_beyond(self):
        xs = [float(i) for i in range(1, 201)]  # 200 distinct samples
        # p95 is 190, with exactly 10 beyond.
        self.assertEqual(stats.tail(xs), (95.0, 190.0))

    def test_fewer_samples_move_down_the_ladder(self):
        xs = [float(i) for i in range(1, 151)]  # p95 has 7 beyond, p90 has 15
        self.assertEqual(stats.tail(xs), (90.0, 135.0))

    def test_ladder_tops_out_at_p95(self):
        xs = [float(i) for i in range(1, 5001)]
        self.assertEqual(stats.tail(xs), (95.0, 4750.0))

    def test_refuses_when_fewer_than_ten_lie_beyond(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.tail([float(i) for i in range(1, 20)])  # p50 = 10, 9 beyond

    def test_ties_are_not_beyond(self):
        # 100 samples, the top 30 tied at 99: p75 and above all read 99
        # with nothing beyond, so the tail falls back to p50.
        xs = [float(i) for i in range(1, 71)] + [99.0] * 30
        self.assertEqual(stats.tail(xs), (50.0, 50.0))

    def test_refuses_when_all_equal(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.tail([0.5] * 500)

    def test_nearest_rank_percentile(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(xs, 50), 3.0)
        self.assertEqual(stats.percentile(xs, 100), 5.0)
        self.assertEqual(stats.percentile(xs, 20), 1.0)
        self.assertEqual(stats.percentile(xs, 21), 2.0)


class VerdictTest(unittest.TestCase):
    def check(self, truth, outcome):
        return {"truth": truth, "outcome": outcome}

    def test_zx_no_information_on_faulty_pairs_is_ok_not_decided(self):
        checks = [
            self.check(True, "equivalent"),
            self.check(False, "no information"),
            self.check(False, "no information"),
            self.check(False, "not equivalent"),
        ]
        ok, decided, counts = stats.verdict_fracs(checks, no_info_ok=True)
        self.assertEqual(ok, 1.0)
        self.assertEqual(decided, 0.5)
        self.assertEqual(counts["consistent"], 2)

    def test_no_information_counts_only_where_allowed(self):
        checks = [self.check(False, "no information"), self.check(True, "equivalent")]
        ok, decided, counts = stats.verdict_fracs(checks, no_info_ok=False)
        self.assertEqual((ok, decided), (0.5, 0.5))
        self.assertEqual(counts["inconclusive"], 1)
        self.assertEqual(counts["wrong"], 0)

    def test_no_information_on_an_equivalent_pair_is_not_ok(self):
        checks = [self.check(True, "no information"), self.check(True, "equivalent")]
        ok, decided, counts = stats.verdict_fracs(checks, no_info_ok=True)
        self.assertEqual((ok, decided), (0.5, 0.5))
        self.assertEqual(counts["inconclusive"], 1)

    def test_unknown_outcome_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.classify(True, "maybe")

    def test_contradicting_verdicts_are_wrong(self):
        self.assertEqual(stats.classify(True, "not equivalent"), "wrong")
        self.assertEqual(stats.classify(False, "equivalent", no_info_ok=True), "wrong")

    def test_errors_and_timeouts_fail(self):
        checks = [
            self.check(True, "timed out"),
            self.check(False, "error"),
            self.check(False, "not equivalent"),
            self.check(True, "equivalent"),
        ]
        ok, decided, counts = stats.verdict_fracs(checks)
        self.assertEqual((ok, decided), (0.5, 0.5))
        self.assertEqual(counts["failed"], 2)

    def test_no_checks_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.verdict_fracs([])


class ServeTest(unittest.TestCase):
    def test_wait_is_latency_minus_server_elapsed(self):
        waits = stats.wait_times([(0.250, 0.200), (0.010, 0.0095), (0.0012, 0.0002)])
        for got, want in zip(waits, [0.050, 0.0005, 0.0010]):
            self.assertAlmostEqual(got, want, places=12)

    def test_cache_hit_frac(self):
        self.assertEqual(
            stats.cache_hit_frac({"server.cache.hit": 30, "server.cache.miss": 90}), 0.25)
        self.assertEqual(stats.cache_hit_frac({}), 0.0)

    def test_expected_cache_counts(self):
        # 4 fresh pairs (3 misses each), 2 plain resubmissions (1 verdict
        # hit each), 1 fresh:true resubmission (2 parse hits).
        modes = ["fresh", "fresh", "cached", "fresh", "refresh", "cached", "fresh"]
        self.assertEqual(stats.expected_cache_counts(modes), (4, 12))
        with self.assertRaises(ValueError):
            stats.expected_cache_counts(["bogus"])

    def test_overhead_frac(self):
        self.assertAlmostEqual(stats.overhead_frac(9.0, 10.0), 0.1)
        self.assertAlmostEqual(stats.overhead_frac(10.0, 10.0), 0.0)


if __name__ == "__main__":
    unittest.main()
