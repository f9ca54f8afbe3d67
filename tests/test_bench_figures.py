"""Reduced-size runs of the figure experiments — shape assertions.

These use small size grids / scales so the full suite stays fast; the
full-scale runs live in benchmarks/ and EXPERIMENTS.md.
"""

import pytest

from repro.bench.figures import (
    fig5_p2p_proxies,
    fig6_group_proxies,
    fig7_proxy_count,
    fig8_pattern1_histogram,
    fig9_pattern2_histogram,
    fig10_aggregation_scaling,
    fig11_hacc_io,
    model_threshold_check,
)
from repro.bench.harness import sweep_sizes
from repro.util.units import GB, KiB, MiB

SMALL = sweep_sizes(64 * KiB, 8 * 1024 * KiB)


@pytest.fixture(scope="module")
def fig5():
    return fig5_p2p_proxies(sizes=SMALL)


class TestFig5:
    def test_direct_saturates_at_paper_peak(self, fig5):
        assert fig5.get("direct").y[-1] == pytest.approx(1.6 * GB, rel=0.02)

    def test_proxies_reach_double(self, fig5):
        assert fig5.get("proxies:4").y[-1] > 2.9 * GB

    def test_crossover_at_256k(self, fig5):
        assert fig5.notes["crossover"] == 256 * KiB

    def test_small_messages_favor_direct(self, fig5):
        assert fig5.get("direct").y[0] > fig5.get("proxies:4").y[0]


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6(self):
        # Reduced machine: 512 nodes, 32v32 keeps the same structure.
        return fig6_group_proxies(sizes=SMALL, nnodes=512, group_size=32)

    def test_three_or_more_proxies_found(self, fig6):
        name = fig6.series[1].name
        k = int(name.split(":")[1])
        assert k >= 3

    def test_proxy_gain_about_k_over_2(self, fig6):
        name = fig6.series[1].name
        k = int(name.split(":")[1])
        gain = fig6.series[1].y[-1] / fig6.get("direct").y[-1]
        assert gain == pytest.approx(k / 2, rel=0.15)

    def test_crossover_above_fig5(self, fig6):
        # Fewer proxies -> larger threshold than the 4-proxy fig5 case.
        assert fig6.notes["crossover"] >= 256 * KiB


class TestFig7:
    @pytest.fixture(scope="class")
    def fig7(self):
        return fig7_proxy_count(sizes=[8 * MiB])

    def test_ordering_matches_paper(self, fig7):
        at = lambda name: fig7.get(name).y[0]
        assert at("2 proxy groups") == pytest.approx(at("no proxies"), rel=0.05)
        assert at("3 proxy groups") > 1.3 * at("no proxies")
        assert at("4 proxy groups") > at("3 proxy groups")
        assert at("5 proxy groups") < at("4 proxy groups")

    def test_speedups_recorded(self, fig7):
        sp = fig7.notes["speedup_at_max"]
        assert sp["4 proxy groups"] == pytest.approx(2.0, rel=0.1)
        assert sp["3 proxy groups"] == pytest.approx(1.5, rel=0.1)


class TestHistograms:
    def test_fig8_flat(self):
        fig = fig8_pattern1_histogram(nranks=4096)
        counts = fig.series[0].y
        assert max(counts) < 2.0 * (sum(counts) / len(counts))

    def test_fig9_skewed(self):
        fig = fig9_pattern2_histogram(nranks=4096)
        counts = fig.series[0].y
        assert counts[0] == max(counts)
        assert counts[0] > 5 * counts[len(counts) // 2]

    def test_volumes(self):
        f8 = fig8_pattern1_histogram(nranks=4096)
        f9 = fig9_pattern2_histogram(nranks=4096)
        assert f8.notes["total_bytes"] > 2 * f9.notes["total_bytes"]


class TestFig10Small:
    @pytest.fixture(scope="class")
    def fig10(self):
        return fig10_aggregation_scaling(
            cores=(2048, 8192), max_size=2 * MiB, batch_tol=0.1, fair_tol=0.05
        )

    def test_ours_wins_both_patterns(self, fig10):
        assert all(g > 1.2 for g in fig10.notes["gain_P1"])
        assert all(g > 1.1 for g in fig10.notes["gain_P2"])

    def test_throughput_scales_up(self, fig10):
        ours = fig10.get("ours P1")
        assert ours.y[-1] > 2 * ours.y[0]


class TestFig11Small:
    def test_customized_wins(self):
        fig = fig11_hacc_io(cores=(8192,), batch_tol=0.1, fair_tol=0.05)
        assert fig.notes["gain"][0] > 1.15


class TestModelCheck:
    def test_analytic_within_grid_step_of_simulated(self):
        fig = model_threshold_check()
        for k, analytic, simulated in zip(
            fig.series[0].x, fig.series[0].y, fig.series[1].y
        ):
            # The simulated crossover is the first doubling-grid point at
            # or above the analytic threshold.
            assert simulated <= 2 * analytic
            assert simulated >= analytic * 0.5
