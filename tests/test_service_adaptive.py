"""Adaptive overload control: AIMD limiter, degradation ladder, and the
service integration of both (``admission="adaptive"``).

Time is an argument of every call, so the unit layers are fully
deterministic.  The integration layer drives the supervisor core into
overload through a fake shell (no process) and checks its guarantees —
every request terminal, excess turned away with the typed retriable
:class:`OverloadShedError`, and the static path's behaviour untouched by
default; one real service checks that a blocked submitter wakes when
the ladder steps down.
"""

import time

import pytest

from repro.service import (
    AdaptiveLimiter,
    DegradationLadder,
    OverloadShedError,
    QueueFullError,
    ScenarioRequest,
    ScenarioService,
    ServiceConfig,
    TIER_DIRECT,
    TIER_FULL,
    TIER_REDUCED,
    TIER_SHED,
    tier_name,
)
from repro.service.scenarios import _effective_max_proxies
from repro.util.validation import ConfigError
from tests.service_harness import FakeShell


class TestAdaptiveLimiter:
    def make(self, **kw):
        kw.setdefault("min_limit", 2)
        kw.setdefault("max_limit", 20)
        kw.setdefault("initial", 4)
        kw.setdefault("latency_target_s", 0.2)
        return AdaptiveLimiter(**kw)

    def test_initial_limit_and_admission(self):
        lim = self.make()
        assert lim.limit == 4
        assert lim.would_admit(3)
        assert not lim.would_admit(4)
        assert not lim.would_admit(5)

    def test_additive_increase_under_target(self):
        lim = self.make()
        for _ in range(50):
            lim.on_completion(0.05, 0.05, 0.0)  # well under the 0.2 target
        assert lim.limit > 4
        for _ in range(2000):
            lim.on_completion(0.05, 0.05, 0.0)
        assert lim.limit == 20  # capped at max_limit

    def test_multiplicative_decrease_over_target(self):
        lim = self.make(initial=16)
        lim.on_completion(1.0, 0.05, 0.0)  # way over target
        assert lim.limit == int(16 * 0.7)
        lim.on_overload(1.0)
        assert lim.limit == int(16 * 0.7 * 0.7)

    def test_decrease_floors_at_min_limit(self):
        lim = self.make(initial=3)
        for t in range(10):
            lim.on_overload(float(t))
        assert lim.limit == 2

    def test_cooldown_coalesces_decrease_bursts(self):
        lim = self.make(initial=16, cooldown_s=0.5)
        lim.on_overload(0.0)
        lim.on_overload(0.0)  # within cooldown: no further decrease
        lim.on_overload(0.0)
        assert lim.limit == int(16 * 0.7)
        lim.on_overload(0.6)
        assert lim.limit == int(16 * 0.7 * 0.7)

    def test_derived_target_from_service_ewma(self):
        lim = self.make(latency_target_s=None, rtt_tolerance=2.0)
        assert lim.target_latency_s() is None  # nothing learnable yet
        lim.on_completion(0.1, 0.1, 0.0)
        assert lim.service_time_ewma == pytest.approx(0.1)
        assert lim.target_latency_s() == pytest.approx(0.2)
        # Latency within 2x the observed service time: window grows.
        before = lim.limit
        for _ in range(20):
            lim.on_completion(0.15, 0.1, 0.0)
        assert lim.limit >= before

    def test_explicit_target_wins_over_ewma(self):
        lim = self.make(latency_target_s=0.5)
        lim.on_completion(0.3, 0.01, 0.0)
        assert lim.target_latency_s() == 0.5

    @pytest.mark.parametrize(
        "kw",
        [
            {"min_limit": 0},
            {"max_limit": 1, "min_limit": 2},
            {"latency_target_s": 0.0},
            {"rtt_tolerance": 0.5},
            {"increase": 0.0},
            {"decrease_factor": 1.0},
            {"decrease_factor": 0.0},
            {"ewma_alpha": 0.0},
            {"cooldown_s": -1.0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            self.make(**kw)


class TestDegradationLadder:
    def make(self, **kw):
        kw.setdefault("ewma_alpha", 1.0)  # no smoothing: tests see raw samples
        return DegradationLadder(**kw)

    def test_starts_full_and_escalates_with_pressure(self):
        ladder = self.make()
        assert ladder.tier == TIER_FULL
        assert ladder.observe(0.70, 0.0) == TIER_REDUCED
        assert ladder.observe(0.90, 0.0) == TIER_DIRECT
        assert ladder.observe(1.20, 0.0) == TIER_SHED

    def test_escalation_can_skip_tiers(self):
        ladder = self.make()
        assert ladder.observe(1.5, 0.0) == TIER_SHED  # straight past 1 and 2

    def test_deescalation_needs_hysteresis_and_dwell(self):
        ladder = self.make(min_dwell_s=0.25, hysteresis=0.15)
        ladder.observe(1.5, 0.0)
        assert ladder.tier == TIER_SHED
        # Below the exit threshold (0.98 - 0.15) but dwell not served.
        assert ladder.observe(0.5, 0.0) == TIER_SHED
        # One step down at a time, each gated by a fresh dwell.
        assert ladder.observe(0.5, 0.3) == TIER_DIRECT
        assert ladder.observe(0.5, 0.3) == TIER_DIRECT
        assert ladder.observe(0.5, 0.6) == TIER_REDUCED
        assert ladder.observe(0.2, 0.9) == TIER_FULL

    def test_pressure_inside_hysteresis_band_holds_tier(self):
        ladder = self.make()
        ladder.observe(0.70, 0.0)
        assert ladder.tier == TIER_REDUCED
        # 0.50 >= 0.60 - 0.15: inside the band, no de-escalation ever.
        assert ladder.observe(0.50, 10.0) == TIER_REDUCED

    def test_ewma_smoothing_damps_single_spike(self):
        ladder = self.make(ewma_alpha=0.3)
        assert ladder.observe(1.0, 0.0) == TIER_FULL  # one spike: pressure 0.3
        assert ladder.pressure == pytest.approx(0.3)

    def test_tier_names(self):
        assert [tier_name(t) for t in range(4)] == [
            "full", "reduced", "direct", "shed",
        ]

    @pytest.mark.parametrize(
        "kw",
        [
            {"enter": (0.8, 0.7, 0.9)},
            {"enter": (0.0, 0.5, 0.9)},
            {"hysteresis": 0.0},
            {"hysteresis": 0.9},
            {"min_dwell_s": -1.0},
            {"ewma_alpha": 1.5},
            {"reduced_k": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            self.make(**kw)


class TestEffectiveMaxProxies:
    def test_cap_combines_with_request_bound(self):
        assert _effective_max_proxies({}, None) is None
        assert _effective_max_proxies({"max_proxies": 4}, None) == 4
        assert _effective_max_proxies({}, 2) == 2
        assert _effective_max_proxies({"max_proxies": 4}, 2) == 2
        assert _effective_max_proxies({"max_proxies": 1}, 2) == 1


class TestServiceConfigValidation:
    def test_admission_choices(self):
        ServiceConfig(admission="static")
        ServiceConfig(admission="adaptive")
        with pytest.raises(ConfigError):
            ServiceConfig(admission="psychic")

    def test_latency_target_positive(self):
        with pytest.raises(ConfigError):
            ServiceConfig(admission="adaptive", latency_target_s=0.0)

    def test_ladder_k_positive(self):
        with pytest.raises(ConfigError):
            ServiceConfig(ladder_reduced_k=0)


class TestAdaptiveService:
    """Integration: the supervisor core in adaptive mode under burst load."""

    def test_overload_sheds_typed_and_all_terminal(self):
        shell = FakeShell(
            workers=2, queue_cap=16, admission="adaptive", default_deadline_s=5.0
        )
        admitted, shed = [], 0
        for i in range(40):
            try:
                admitted.append(shell.submit(f"a{i}", params={"duration_s": 0.02}))
            except OverloadShedError as exc:
                assert exc.retriable
                assert exc.code == "overload-shed"
                shed += 1
        while shell.running:
            shell.reply(min(shell.running), dt=0.02)
        statuses = {rid: shell.results[rid].status for rid in admitted}
        stats = shell.core.stats(shell.now)
        # The initial window is 2*workers: far fewer than 40 admitted.
        assert shed > 0 and len(admitted) < 40
        assert all(s in ("completed", "failed", "shed") for s in statuses.values())
        assert stats["admission"] == "adaptive"
        assert stats["admission_limit"] >= 2

    def test_shed_is_retriable_queue_full_subclass(self):
        # Callers written against PR 5's QueueFullError keep working.
        assert issubclass(OverloadShedError, QueueFullError)

    def test_blocking_submit_waits_out_the_limiter(self):
        shell = FakeShell(
            workers=2, queue_cap=8, admission="adaptive", default_deadline_s=10.0
        )
        ids = []
        for i in range(12):
            while shell.submit(f"b{i}", params={"duration_s": 0.01}, block=True) is None:
                # Blocked: a completion (or the ladder stepping down) makes room.
                if shell.running:
                    shell.reply(min(shell.running), dt=0.01)
                else:
                    shell.tick(0.05)
            ids.append(f"b{i}")
        while shell.running:
            shell.reply(min(shell.running), dt=0.01)
        assert all(shell.results[r].status == "completed" for r in ids)

    def test_blocked_submit_wakes_on_ladder_deescalation(self):
        # Regression: an untimed blocking submit used to wait on a
        # notify that ladder de-escalation (a supervisor-tick event)
        # never sent — with an idle queue there is no dispatch pop or
        # terminal finish to wake it, so it slept forever.
        import threading

        cfg = ServiceConfig(
            workers=2, queue_cap=8, admission="adaptive",
            default_deadline_s=10.0,
        )
        with ScenarioService(cfg) as svc:
            with svc._lock:  # the supervisor thread samples the ladder too
                ladder = svc._core.ladder
                for _ in range(8):
                    ladder.observe(2.0, time.monotonic())  # pin it at shed
                assert ladder.tier == TIER_SHED
            done = threading.Event()

            def submit_blocking():
                svc.submit(
                    ScenarioRequest(
                        id="late", kind="spin", params={"duration_s": 0.01}
                    ),
                    block=True,  # no timeout: ticks must wake it
                )
                done.set()

            t = threading.Thread(target=submit_blocking, daemon=True)
            t.start()
            # Idle occupancy decays the pressure EWMA; the ladder steps
            # down a tier per dwell and the submit must then go through.
            assert done.wait(timeout=30.0), "blocking submit stranded"
            assert svc.wait_all(timeout=30)
            assert svc.result("late").status == "completed"

    def test_static_default_unchanged(self):
        cfg = ServiceConfig(workers=1, queue_cap=2)
        assert cfg.admission == "static"
        with ScenarioService(cfg) as svc:
            stats = svc.stats()
            assert stats["admission"] == "static"
            # No adaptive machinery instantiated at all on the static path.
            assert "admission_limit" not in stats
            assert "degrade_tier" not in stats
