"""Adaptive concurrency limiting for the scenario service.

PR 5's admission bound was a static constant (``queue_cap``): under
sustained overload the queue fills to its cap, every queued request
soaks up wall-clock waiting, and work is dispatched with so little
remaining deadline that workers burn time on runs that can only fail.
Under light load the same constant over-admits nothing — the bound is
simply irrelevant — so no single constant is right at both ends.

:class:`AdaptiveLimiter` replaces the constant with a control loop in
the **AIMD** (additive-increase / multiplicative-decrease) family,
keyed on observed request latency rather than loss:

* every completed request reports its end-to-end latency (admission →
  terminal) and its bare *service* time (dispatch → terminal);
* the limiter keeps an EWMA of the uncontended service time and derives
  a latency target ``rtt_tolerance ×`` that EWMA (or an explicit
  ``latency_target_s``) — the queueing delay the operator is willing
  to buy with concurrency;
* a completion under the target raises the limit by ``increase /
  limit`` (≈ +1 per limit's worth of completions, the additive ramp);
* a completion over the target — or a deadline miss, which is latency's
  terminal form — multiplies the limit by ``decrease_factor``, at most
  once per ``cooldown_s`` so one burst of stale samples cannot collapse
  the window to the floor.

The limit converges to the worker pool's real capacity: at the fixed
point, admitted work queues just long enough to keep every worker busy
without pushing latency past the target.  The service applies the limit
at admission — ``pending + in-flight >= limit`` sheds with the typed,
retriable :class:`~repro.service.errors.OverloadShedError` — so
overload is turned away in microseconds instead of being queued into
certain deadline death.

The current limit is exported as the ``service.admission_limit`` gauge;
decreases count on ``service.limiter.decreases``.
"""

from __future__ import annotations

from repro.obs.metrics import get_registry
from repro.util.validation import ConfigError


class AdaptiveLimiter:
    """AIMD-on-latency concurrency limiter.

    Args:
        min_limit: floor of the limit (never starve the pool; typically
            the worker count).
        max_limit: ceiling of the limit (typically ``queue_cap +
            workers`` — adaptive admission never admits *more* than the
            static bound would).
        initial: starting limit (defaults to ``min_limit``).
        latency_target_s: explicit latency target; ``None`` derives it
            from the observed service-time EWMA.
        rtt_tolerance: target = ``rtt_tolerance × service-time EWMA``
            when the target is derived (2.0 ≈ "one queued request per
            worker is fine, two is not").
        increase: additive-increase numerator (+``increase/limit`` per
            good completion).
        decrease_factor: multiplicative-decrease factor on a bad sample.
        cooldown_s: minimum wall-clock spacing between decreases, so a
            burst of stale samples counts once.
        ewma_alpha: smoothing of the service-time EWMA.

    Feedback calls take ``now`` (monotonic seconds) for the decrease
    cooldown; the service's supervisor core is the only caller.
    """

    def __init__(
        self,
        *,
        min_limit: int = 1,
        max_limit: int = 64,
        initial: "float | None" = None,
        latency_target_s: "float | None" = None,
        rtt_tolerance: float = 2.0,
        increase: float = 1.0,
        decrease_factor: float = 0.7,
        cooldown_s: float = 0.1,
        ewma_alpha: float = 0.2,
    ):
        if min_limit < 1:
            raise ConfigError(f"min_limit must be >= 1, got {min_limit}")
        if max_limit < min_limit:
            raise ConfigError(
                f"max_limit must be >= min_limit ({min_limit}), got {max_limit}"
            )
        if latency_target_s is not None and latency_target_s <= 0:
            raise ConfigError(
                f"latency_target_s must be > 0, got {latency_target_s}"
            )
        if rtt_tolerance < 1.0:
            raise ConfigError(f"rtt_tolerance must be >= 1, got {rtt_tolerance}")
        if increase <= 0:
            raise ConfigError(f"increase must be > 0, got {increase}")
        if not 0 < decrease_factor < 1:
            raise ConfigError(
                f"decrease_factor must be in (0, 1), got {decrease_factor}"
            )
        if not 0 < ewma_alpha <= 1:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if cooldown_s < 0:
            raise ConfigError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.latency_target_s = latency_target_s
        self.rtt_tolerance = rtt_tolerance
        self.increase = increase
        self.decrease_factor = decrease_factor
        self.cooldown_s = cooldown_s
        self.ewma_alpha = ewma_alpha
        self._limit = float(initial if initial is not None else min_limit)
        self._limit = min(max(self._limit, min_limit), max_limit)
        self._service_ewma: "float | None" = None
        self._last_decrease = -float("inf")
        self._publish()

    def _publish(self) -> None:
        get_registry().gauge("service.admission_limit").set(self._limit)

    @property
    def limit(self) -> int:
        """Current admission limit (whole requests)."""
        return int(self._limit)

    @property
    def service_time_ewma(self) -> "float | None":
        """Observed service-time EWMA [s] (``None`` before any sample)."""
        return self._service_ewma

    def target_latency_s(self) -> "float | None":
        """The latency target in force (``None`` until one is learnable)."""
        if self.latency_target_s is not None:
            return self.latency_target_s
        if self._service_ewma is None:
            return None
        return self.rtt_tolerance * self._service_ewma

    def would_admit(self, outstanding: int) -> bool:
        """Does ``outstanding`` (pending + in-flight) fit under the limit?"""
        return outstanding < int(self._limit)

    # -- feedback ------------------------------------------------------------

    def on_completion(
        self, latency_s: float, service_s: "float | None", now: float
    ) -> None:
        """A request completed at ``now``: ``latency_s`` is admission →
        terminal, ``service_s`` dispatch → terminal (feeds the
        uncontended-RTT estimate)."""
        if service_s is not None and service_s >= 0:
            if self._service_ewma is None:
                self._service_ewma = float(service_s)
            else:
                a = self.ewma_alpha
                self._service_ewma = (1 - a) * self._service_ewma + a * service_s
        target = self.target_latency_s()
        if target is None or latency_s <= target:
            self._limit = min(
                self.max_limit, self._limit + self.increase / max(self._limit, 1.0)
            )
        else:
            self._decrease(now)
        self._publish()

    def on_overload(self, now: float) -> None:
        """A latency-terminal outcome at ``now`` (deadline missed in
        queue or mid-run): treat as an over-target sample."""
        self._decrease(now)
        self._publish()

    def _decrease(self, now: float) -> None:
        if now - self._last_decrease < self.cooldown_s:
            return
        self._last_decrease = now
        self._limit = max(self.min_limit, self._limit * self.decrease_factor)
        get_registry().counter("service.limiter.decreases").inc()
