"""Analytic transfer model (paper Eqs. 1–5)."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.model import TransferModel
from repro.core.multipath import TransferSpec, run_transfer
from repro.core.proxy_select import find_proxies
from repro.network.params import MIRA_PARAMS, NetworkParams
from repro.util.units import KiB, MiB
from repro.util.validation import ConfigError


@pytest.fixture(scope="module")
def model():
    return TransferModel(MIRA_PARAMS)


class TestEq1Direct:
    def test_closed_form(self, model):
        d = 8 * MiB
        assert model.direct_time(d) == pytest.approx(
            MIRA_PARAMS.o_msg + d / MIRA_PARAMS.stream_cap
        )

    def test_monotone_in_size(self, model):
        assert model.direct_time(2 * MiB) > model.direct_time(1 * MiB)

    def test_path_rate_bottleneck(self, model):
        assert model.direct_time(MiB, path_rate=0.5e9) > model.direct_time(MiB)

    def test_negative_size_rejected(self, model):
        with pytest.raises(ConfigError):
            model.direct_time(-1)


class TestEq2Proxy:
    def test_two_phase_structure(self, model):
        d, k = 8 * MiB, 4
        expected = (
            2 * MIRA_PARAMS.o_msg
            + MIRA_PARAMS.o_fwd
            + 2 * (d / k) / MIRA_PARAMS.stream_cap
        )
        assert model.proxy_time(d, k) == pytest.approx(expected)

    def test_more_proxies_faster_for_large(self, model):
        d = 32 * MiB
        assert model.proxy_time(d, 4) < model.proxy_time(d, 3)

    def test_k_validated(self, model):
        with pytest.raises(ConfigError):
            model.proxy_time(MiB, 0)


class TestSimulatorTakesTheClosedForms:
    """On an idle partition the simulator's times are the paper's closed
    forms: Eq. 1 for a direct transfer, and Eq. 2 with the shares the
    flow program emits (the largest is ``ceil(d / k)``) for k proxies.
    Fig. 5–7's crossovers rest on both, so this fails if the simulator,
    the flow emission or the calibration drifts from them."""

    @settings(max_examples=40, deadline=None)
    @given(
        big=st.booleans(),
        data=st.data(),
        nbytes=st.integers(1000, 128 * MiB),
        k=st.sampled_from([3, 4, 5]),
    )
    def test_uncontended_transfers_take_eqs_1_and_2(
        self, system128, system512, big, data, nbytes, k
    ):
        system = system512 if big else system128
        src, dst = data.draw(
            st.lists(st.integers(0, system.nnodes - 1), min_size=2, max_size=2, unique=True)
        )
        p, r = system.params, TransferModel(system.params).stream_rate
        spec = [TransferSpec(src, dst, nbytes)]
        direct = run_transfer(system, spec, mode="direct")
        assert direct.makespan == pytest.approx(p.o_msg + nbytes / r, rel=1e-12, abs=0)
        plan = find_proxies(system, [(src, dst)], max_proxies=k)
        used = plan.assignments[(src, dst)].k
        assume(used >= TransferModel.MIN_BENEFICIAL_PROXIES)
        proxy = run_transfer(system, spec, mode="proxy", assignments=plan.assignments)
        assert proxy.mode_used[(src, dst)].startswith("proxy")
        eq2 = 2 * p.o_msg + p.o_fwd + 2 * math.ceil(nbytes / used) / r
        assert proxy.makespan == pytest.approx(eq2, rel=1e-12, abs=0)


class TestEq5Asymptotics:
    def test_asymptotic_speedup_is_k_over_2(self):
        assert TransferModel.asymptotic_speedup(4) == 2.0
        assert TransferModel.asymptotic_speedup(3) == 1.5
        assert TransferModel.asymptotic_speedup(2) == 1.0

    def test_speedup_approaches_k_over_2(self, model):
        k = 4
        s = model.speedup(1024 * MiB, k)
        assert s == pytest.approx(k / 2, rel=0.01)

    def test_min_beneficial_proxies(self, model):
        assert TransferModel.MIN_BENEFICIAL_PROXIES == 3
        # With k=2 the ratio tends to 1: never profitable given overheads.
        assert model.threshold(2) == float("inf")
        assert model.threshold(1) == float("inf")


class TestThreshold:
    def test_paper_crossover_k4(self, model):
        """Calibration: the k=4 threshold lands on the paper's 256 KB."""
        assert model.threshold(4) == pytest.approx(256 * KiB, rel=0.05)

    def test_paper_crossover_k3(self, model):
        """k=3 threshold ~384 KB — first doubling grid point 512 KB,
        the paper's Figure-6 switch point."""
        t3 = model.threshold(3)
        assert 256 * KiB < t3 <= 512 * KiB

    def test_threshold_decreasing_in_k(self, model):
        assert model.threshold(5) < model.threshold(4) < model.threshold(3)

    def test_use_proxies_gate(self, model):
        assert not model.use_proxies(64 * KiB, 4)
        assert model.use_proxies(1 * MiB, 4)
        assert not model.use_proxies(1024 * MiB, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=1, max_value=512 * 1024 * 1024),
    )
    def test_threshold_is_exact_crossover(self, k, d):
        """proxy_time < direct_time iff d > threshold(k) (Eq. 4/5)."""
        m = TransferModel(MIRA_PARAMS)
        t = m.threshold(k)
        if d > t * 1.001:
            assert m.proxy_time(d, k) < m.direct_time(d)
        elif d < t * 0.999:
            assert m.proxy_time(d, k) > m.direct_time(d)


class TestBestK:
    def test_zero_when_small(self, model):
        assert model.best_k(4 * KiB, 10) == 0

    def test_max_k_when_huge(self, model):
        assert model.best_k(1024 * MiB, 6) == 6

    def test_zero_when_no_proxies(self, model):
        assert model.best_k(1024 * MiB, 2) == 0

    def test_negative_available_rejected(self, model):
        with pytest.raises(ConfigError):
            model.best_k(MiB, -1)


class TestAlternativeParams:
    def test_zero_overheads_make_proxies_always_win(self):
        p = NetworkParams(o_msg=0.0, o_fwd=0.0)
        m = TransferModel(p)
        assert m.threshold(3) == 0.0
        assert m.use_proxies(1, 3)

    def test_time_ratio_eq3(self, model):
        d = 64 * MiB
        assert model.time_ratio(d, 4) == pytest.approx(
            model.proxy_time(d, 4) / model.direct_time(d)
        )
