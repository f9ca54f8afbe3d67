"""Statistics layer of the load harness: percentiles, seeded bootstrap
CIs, order-statistic median CIs, paired ratios, Cliff's delta, and the
summarize/compare report documents."""

import math

import numpy as np
import pytest

from repro.loadgen import RequestOutcome, bootstrap_ci, cliffs_delta, compare, summarize
from repro.loadgen.stats import median_ci, paired_ratio, percentile
from repro.util.validation import ConfigError


class TestPercentile:
    def test_matches_numpy(self):
        vals = [0.5, 0.1, 0.9, 0.3, 0.7]
        assert percentile(vals, 50) == pytest.approx(np.percentile(vals, 50))
        assert percentile(vals, 99) == pytest.approx(np.percentile(vals, 99))

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))


class TestBootstrapCI:
    def test_seeded_determinism(self):
        rng = np.random.default_rng(0)
        vals = rng.exponential(0.1, size=200).tolist()
        ci1 = bootstrap_ci(vals, lambda a: float(np.mean(a)), seed=4)
        ci2 = bootstrap_ci(vals, lambda a: float(np.mean(a)), seed=4)
        assert ci1 == ci2
        ci3 = bootstrap_ci(vals, lambda a: float(np.mean(a)), seed=5)
        assert ci1 != ci3

    def test_brackets_the_statistic(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(10.0, 1.0, size=500).tolist()
        lo, hi = bootstrap_ci(vals, lambda a: float(np.mean(a)), seed=0)
        assert lo < 10.0 < hi
        assert hi - lo < 0.5  # n=500: a tight interval

    def test_empty_input(self):
        lo, hi = bootstrap_ci([], lambda a: float(np.mean(a)), seed=0)
        assert math.isnan(lo) and math.isnan(hi)


class TestMedianCI:
    @pytest.mark.parametrize("n", range(6, 61))
    def test_order_statistics_with_95_percent_coverage(self, n):
        lo, hi = median_ci(np.arange(n, 0, -1.0) - 1)  # unsorted 0..n-1
        k = int(lo) + 1  # the interval is [x(k), x(n+1-k)]
        assert hi == n - k

        def coverage(k):
            return 1 - 2 * sum(math.comb(n, j) for j in range(k)) / 2**n

        assert coverage(k) >= 0.95 > coverage(k + 1)

    def test_ten_samples_use_second_and_ninth(self):
        assert median_ci([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 10.0, 6.0]) == (2.0, 9.0)

    @pytest.mark.parametrize("values", [[], [1.0] * 5, [[1.0] * 6]])
    def test_rejects_too_few_or_non_1d(self, values):
        with pytest.raises(ConfigError):
            median_ci(values)


class TestPairedRatio:
    TIMES = [0.31, 0.29, 0.35, 0.30, 0.42, 0.28, 0.33, 0.30, 0.36, 0.31]

    def test_identical_samples_no_difference(self):
        r = paired_ratio(self.TIMES, self.TIMES)
        lo, hi = r["ratio_ci"]
        assert lo <= 1.0 <= hi
        assert r["ratio_median"] == 1.0
        assert r["verdict"] == "no measurable difference"

    def test_consistent_double(self):
        r = paired_ratio([2 * t for t in self.TIMES], self.TIMES)
        assert r["ratio_median"] == pytest.approx(2.0)
        assert r["ratio_ci"][0] > 1.0
        assert r["verdict"] == "ratio > 1"
        assert paired_ratio(self.TIMES, [2 * t for t in self.TIMES])["verdict"] == (
            "ratio < 1"
        )

    def test_deterministic(self):
        # The interval resamples nothing, so it needs no seed.
        rng = np.random.default_rng(3)
        a, b = rng.uniform(1, 2, 10), rng.uniform(1, 2, 10)
        assert paired_ratio(a, b) == paired_ratio(a.copy(), b.copy())

    def test_two_identical_code_paths(self):
        # incremental="auto" vs full re-solve at 64 flows, where both run
        # the same code: ten pairs once recorded in BENCH_simulator.json.
        # A percentile bootstrap of their median gave [1.013, 1.140]
        # (~89% coverage at n = 10); the order-statistic interval is the
        # 2nd and 9th sorted ratio.
        auto = [0.028519602, 0.021325709, 0.02409258, 0.024272533, 0.022022185,
                0.024104138, 0.024381814, 0.026667749, 0.02521598, 0.029314868]
        full = [0.020835741, 0.020905295, 0.023783546, 0.023224078, 0.023773471,
                0.024087205, 0.023372855, 0.02159331, 0.024234218, 0.026698322]
        ratios = sorted(a / f for a, f in zip(auto, full))
        r = paired_ratio(auto, full)
        assert r["ratio_ci"] == [ratios[1], ratios[8]]
        assert r["ratio_ci"] == pytest.approx([1.0007, 1.2350], abs=1e-4)

    @pytest.mark.parametrize(
        "numer,denom",
        [([], []), ([1.0, 2.0], [1.0]), ([[1.0] * 6], [[1.0] * 6]), ([1.0] * 5, [1.0] * 5)],
    )
    def test_rejects_empty_misaligned_or_short(self, numer, denom):
        with pytest.raises(ConfigError):
            paired_ratio(numer, denom)


class TestCliffsDelta:
    def test_disjoint_samples(self):
        assert cliffs_delta([1, 2, 3], [4, 5, 6]) == -1.0
        assert cliffs_delta([4, 5, 6], [1, 2, 3]) == 1.0

    def test_identical_samples(self):
        assert cliffs_delta([1, 2, 3], [1, 2, 3]) == 0.0

    def test_partial_overlap_exact(self):
        # Pairs: (1,2):-1 (1,4):-1 (3,2):+1 (3,4):-1  => -2/4
        assert cliffs_delta([1, 3], [2, 4]) == pytest.approx(-0.5)

    def test_empty(self):
        assert math.isnan(cliffs_delta([], [1.0]))


def _outcomes(n=100, spacing=0.05, latency=0.1, status="completed", tier=0):
    return [
        RequestOutcome(
            id=f"o{i}", kind="spin", status=status,
            scheduled_at=i * spacing, finished_at=i * spacing + latency,
            tier=tier,
        )
        for i in range(n)
    ]


class TestSummarize:
    def test_fields_and_counts(self):
        outs = _outcomes(80) + [
            RequestOutcome(id=f"s{i}", kind="spin", status="shed",
                           scheduled_at=0.0)
            for i in range(20)
        ]
        s = summarize(outs, duration_s=4.0, seed=0, n_boot=100)
        assert s["requests"] == 100
        assert s["counts"] == {"completed": 80, "shed": 20}
        assert s["shed_rate"] == pytest.approx(0.2)
        # Last completion lands at 79*0.05 + 0.1 = 4.05 s: the rate is
        # measured over that observed window, not the nominal 4 s.
        assert s["window_s"] == pytest.approx(4.05)
        assert s["goodput_rps"] == pytest.approx(80 / 4.05)
        lo, hi = s["goodput_ci_rps"]
        assert lo <= s["goodput_rps"] <= hi
        assert s["latency"]["n"] == 80
        assert s["latency"]["p50_s"] == pytest.approx(0.1)
        assert s["latency"]["p99_s"] == pytest.approx(0.1)
        assert s["tier_occupancy"]["full"] == 1.0
        assert sum(s["tier_occupancy"].values()) == pytest.approx(1.0)

    def test_no_completions(self):
        outs = _outcomes(10, status="rejected")
        s = summarize(outs, duration_s=1.0, seed=0, n_boot=50)
        assert s["goodput_rps"] == 0.0
        assert s["window_s"] == 1.0  # nothing finished: nominal window
        assert s["latency"]["n"] == 0
        assert s["latency"]["p99_s"] is None  # JSON-friendly absence

    def test_drain_tail_widens_the_window(self):
        # 10 completions inside the 1 s schedule plus a drain tail
        # finishing at t=4: goodput must not be credited as 11 req in
        # 1 s, and the tail must not be folded into the last 1 s bin.
        outs = _outcomes(10, spacing=0.08, latency=0.01)
        outs.append(
            RequestOutcome(
                id="tail", kind="spin", status="completed",
                scheduled_at=0.9, finished_at=4.0,
            )
        )
        s = summarize(outs, duration_s=1.0, seed=0, n_boot=50)
        assert s["window_s"] == pytest.approx(4.0)
        assert s["goodput_rps"] == pytest.approx(11 / 4.0)


class TestCompare:
    def _summary(self, latency, n=100, duration=5.0):
        return summarize(
            _outcomes(n, spacing=duration / n, latency=latency),
            duration_s=duration, seed=0, n_boot=100,
        )

    def test_separated_verdict(self):
        slow = self._summary(0.5, n=20)   # 4 rps
        fast = self._summary(0.05, n=100)  # 20 rps
        slow_lat = [0.5] * 20
        fast_lat = [0.05] * 100
        v = compare(slow, fast, baseline_latencies=slow_lat,
                    candidate_latencies=fast_lat)
        expected_gain = (
            fast["goodput_rps"] - slow["goodput_rps"]
        ) / slow["goodput_rps"]
        assert expected_gain > 3  # ~5x goodput, modulo drain-tail window
        assert v["goodput_gain"] == pytest.approx(expected_gain)
        assert v["goodput_ci_separated"] is True
        assert v["latency_cliffs_delta"] == -1.0
        assert v["p99_ratio"] == pytest.approx(0.1)

    def test_overlapping_cis_not_separated(self):
        a = self._summary(0.1)
        v = compare(a, a, baseline_latencies=[0.1] * 100,
                    candidate_latencies=[0.1] * 100)
        assert v["goodput_gain"] == pytest.approx(0.0)
        assert v["goodput_ci_separated"] is False
        assert v["latency_cliffs_delta"] == 0.0
