"""Circuit breaker state machine: closed → open → half-open → closed."""

import pytest

from repro.obs.metrics import get_registry
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.util.validation import ConfigError


def make(name="t", **kw):
    kw.setdefault("failure_threshold", 3)
    kw.setdefault("recovery_s", 10.0)
    return CircuitBreaker(name, **kw)


class TestClosed:
    def test_starts_closed_and_allows(self):
        b = make("a")
        assert b.state(0.0) == CLOSED
        assert all(b.allow(0.0) for _ in range(20))

    def test_subthreshold_failures_stay_closed(self):
        b = make("b")
        b.record_failure(0.0)
        b.record_failure(0.0)
        assert b.state(0.0) == CLOSED and b.allow(0.0)

    def test_success_resets_failure_count(self):
        b = make("c")
        for _ in range(5):
            b.record_failure(0.0)
            b.record_failure(0.0)
            b.record_success()  # never reaches 3 consecutive
        assert b.state(0.0) == CLOSED


class TestOpen:
    def test_trips_at_threshold_and_rejects(self):
        b = make("d")
        for _ in range(3):
            b.record_failure(0.0)
        assert b.state(0.0) == OPEN
        assert not b.allow(0.0)

    def test_failures_while_open_are_absorbed(self):
        b = make("e")
        for _ in range(3):
            b.record_failure(0.0)
        b.record_failure(0.0)
        assert b.state(0.0) == OPEN
        # less than recovery_s later
        assert b.state(5.0) == OPEN and not b.allow(5.0)


class TestHalfOpen:
    def trip(self, name):
        """A breaker tripped at t=0, half-open from t=10."""
        b = make(name)
        for _ in range(3):
            b.record_failure(0.0)
        return b

    def test_recovery_interval_admits_limited_probes(self):
        b = self.trip("f")
        assert b.state(10.0) == HALF_OPEN
        assert b.allow(10.0)  # the probe
        assert not b.allow(10.0)  # second concurrent probe denied

    def test_probe_success_closes(self):
        b = self.trip("g")
        assert b.allow(10.0)
        b.record_success()
        assert b.state(10.0) == CLOSED and b.allow(10.0)

    def test_probe_failure_reopens_and_reprobes_later(self):
        b = self.trip("h")
        assert b.allow(10.0)
        b.record_failure(10.0)
        assert b.state(10.0) == OPEN and not b.allow(10.0)
        b.release()  # the probe's request finished: its slot comes back
        # probation again, same idiom as health.py
        assert b.state(20.0) == HALF_OPEN and b.allow(20.0)

    def test_release_returns_probe_slot_without_verdict(self):
        b = self.trip("i")
        assert b.allow(10.0)
        b.release()  # probe abandoned (e.g. worker crashed)
        assert b.state(10.0) == HALF_OPEN
        assert b.allow(10.0)  # slot is free again

    def test_release_is_noop_when_closed(self):
        b = make("j")
        b.release()
        assert b.state(0.0) == CLOSED and b.allow(0.0)
        assert b.probes_inflight == 0


class TestMetricsAndValidation:
    def test_state_gauge_and_transition_counters(self):
        b = make("metrics")
        reg = get_registry()
        assert reg.gauge("service.breaker.metrics.state").value == 0
        for _ in range(3):
            b.record_failure(0.0)
        assert reg.gauge("service.breaker.metrics.state").value == 2
        assert b.state(10.0) == HALF_OPEN
        assert reg.gauge("service.breaker.metrics.state").value == 1
        assert reg.counter("service.breaker.metrics.to_open").value >= 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"failure_threshold": 0},
            {"recovery_s": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ConfigError):
            make("bad", **kw)
