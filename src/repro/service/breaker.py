"""Circuit breakers for the service's planner and simulator stages.

The state machine is the classic closed → open → half-open cycle, and
the half-open step deliberately reuses the **probation idiom** from
:mod:`repro.resilience.health`: a link believed down re-enters service
through a limited probing share after ``reprobe_interval`` elapses, and
a breaker believed broken re-enters service through one probe request
after ``recovery_s`` elapses.  Success closes it; failure re-opens it
and restarts the clock.

A granted probe slot stays taken until :meth:`CircuitBreaker.release`
gives it back; a verdict does not free it.  The service's supervisor
core (:mod:`repro.service.core`) is the only caller: it records on each
request the slots that request took and returns them once, when the
request finishes, so the in-flight probe count always equals the slots
that live requests hold.  Time is passed in as ``now`` (monotonic
seconds), so the breaker holds no clock and no lock.

State is exported to :mod:`repro.obs.metrics` as a gauge
(``service.breaker.<name>.state``: 0 closed, 1 half-open, 2 open) plus
transition counters, so dashboards can see a stage browning out.
"""

from __future__ import annotations

from repro.obs.metrics import get_registry
from repro.util.validation import ConfigError

#: Breaker states (values chosen so the exported gauge orders severity).
CLOSED = "closed"
HALF_OPEN = "half_open"
OPEN = "open"

_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}

#: Consecutive stage failures that trip the service's breakers.
FAILURE_THRESHOLD = 3
#: Seconds a tripped breaker stays open before it admits a probe.
RECOVERY_S = 1.0
#: Concurrent probes a half-open breaker admits.
HALF_OPEN_PROBES = 1


class CircuitBreaker:
    """Failure-counting breaker around one service stage.

    Args:
        name: stage name (metrics are ``service.breaker.<name>.*``).
        failure_threshold: consecutive failures that trip the breaker.
        recovery_s: seconds the breaker stays open before probation
            (half-open) admits a probe.
    """

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = FAILURE_THRESHOLD,
        recovery_s: float = RECOVERY_S,
    ):
        if failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if recovery_s <= 0:
            raise ConfigError(f"recovery_s must be > 0, got {recovery_s}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_s = recovery_s
        self._state = CLOSED
        self._failures = 0  # consecutive, while closed
        self._opened_at = 0.0
        #: Half-open probe slots taken and not yet released.
        self.probes_inflight = 0
        self._publish(CLOSED)

    # -- state ---------------------------------------------------------------

    def _publish(self, state: str) -> None:
        get_registry().gauge(f"service.breaker.{self.name}.state").set(
            _STATE_GAUGE[state]
        )

    def _transition(self, state: str, now: float = 0.0) -> None:
        if state == self._state:
            return
        get_registry().counter(
            f"service.breaker.{self.name}.to_{state}"
        ).inc()
        self._state = state
        self._publish(state)
        if state == OPEN:
            self._opened_at = now
        elif state == CLOSED:
            self._failures = 0

    def state(self, now: float) -> str:
        """State at ``now``: open decays to half-open once the recovery
        interval has elapsed (the probation re-probe idiom)."""
        if self._state == OPEN and now - self._opened_at >= self.recovery_s:
            self._transition(HALF_OPEN)
        return self._state

    # -- flow control --------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May a request enter this stage at ``now``?

        Closed: always.  Open: never (fail fast / degrade).  Half-open:
        while a probe slot is free, and the call takes it; the caller
        gives it back with :meth:`release`.
        """
        state = self.state(now)
        if state == CLOSED:
            return True
        if state == OPEN or self.probes_inflight >= HALF_OPEN_PROBES:
            return False
        self.probes_inflight += 1
        return True

    def release(self) -> None:
        """Return a probe slot that :meth:`allow` granted.  No-op unless
        a probe is outstanding."""
        if self.probes_inflight > 0:
            self.probes_inflight -= 1

    def record_success(self) -> None:
        """The stage succeeded: close (and reset the failure count)."""
        self._transition(CLOSED)

    def record_failure(self, now: float) -> None:
        """The stage failed at ``now``: count toward the trip threshold,
        or — when probing half-open — re-open immediately."""
        state = self.state(now)
        if state == HALF_OPEN:
            self._transition(OPEN, now)
        elif state == CLOSED:
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._transition(OPEN, now)
