"""Pressure-driven degradation ladder for the scenario service.

PR 5's degraded mode was binary: planner breaker open → direct path,
otherwise full multipath planning.  Under sustained pressure that is
the wrong shape twice over — the service jumps straight from its most
expensive answer to its cheapest, and it only jumps *after* the planner
has already been failing.  The ladder replaces the binary with four
ordered tiers of planning effort, walked by a smoothed pressure signal
*before* anything breaks:

====  ===========  ====================================================
tier  name         behaviour
====  ===========  ====================================================
0     ``full``     full multipath proxy search (normal service)
1     ``reduced``  proxy search capped at ``reduced_k`` paths — most of
                   the bandwidth for a fraction of the planning cost
2     ``direct``   single deterministic path, no proxy search (PR 5's
                   degraded mode)
3     ``shed``     new admissions are turned away with the retriable
                   :class:`~repro.service.errors.OverloadShedError`
====  ===========  ====================================================

The pressure signal is queue occupancy — ``(pending + in-flight) /
admission limit`` — smoothed with an EWMA so one burst does not bounce
the tier.  Transitions use **hysteresis**: each tier is entered at
``enter[tier]`` and only left once pressure falls below ``enter[tier] -
hysteresis`` *and* the tier has been held for ``min_dwell_s``
(escalation is immediate — overload punishes hesitation; de-escalation
is damped — flapping between plan shapes thrashes the planner cache and
the metrics alike).

Breaker state still matters, but as an *override*: a planner breaker
that is open forces at least tier 2 for the affected dispatch without
moving the ladder's own pressure state.

The current tier is exported as the ``service.degrade_tier`` gauge and
each upward entry counts on ``service.degrade.enter_<name>``.
"""

from __future__ import annotations

from repro.obs.metrics import get_registry
from repro.util.validation import ConfigError

#: Ladder tiers, mildest first.
TIER_FULL = 0
TIER_REDUCED = 1
TIER_DIRECT = 2
TIER_SHED = 3

TIER_NAMES = ("full", "reduced", "direct", "shed")


def tier_name(tier: int) -> str:
    """Human/metrics name of a ladder tier."""
    return TIER_NAMES[tier]


class DegradationLadder:
    """Hysteretic pressure → planning-effort ladder.

    Args:
        enter: pressure thresholds entering tiers 1..3 (strictly
            increasing, each in (0, ~1.5]; occupancy can exceed 1.0
            transiently while in-flight work drains).
        hysteresis: pressure drop below a tier's enter threshold
            required before leaving it.
        min_dwell_s: minimum time spent in a tier before de-escalating.
        ewma_alpha: smoothing of the pressure EWMA.
        reduced_k: proxy-count cap applied at tier 1.

    :meth:`observe` takes ``now`` (monotonic seconds) for the dwell; the
    service's supervisor core is the only caller.
    """

    def __init__(
        self,
        *,
        enter: "tuple[float, float, float]" = (0.60, 0.85, 0.98),
        hysteresis: float = 0.15,
        min_dwell_s: float = 0.25,
        ewma_alpha: float = 0.3,
        reduced_k: int = 2,
    ):
        if len(enter) != 3 or any(e2 <= e1 for e1, e2 in zip(enter, enter[1:])):
            raise ConfigError(
                f"enter must be 3 strictly increasing thresholds, got {enter}"
            )
        if enter[0] <= 0:
            raise ConfigError(f"enter thresholds must be > 0, got {enter}")
        if not 0 < hysteresis < enter[0]:
            raise ConfigError(
                f"hysteresis must be in (0, {enter[0]}), got {hysteresis}"
            )
        if min_dwell_s < 0:
            raise ConfigError(f"min_dwell_s must be >= 0, got {min_dwell_s}")
        if not 0 < ewma_alpha <= 1:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if reduced_k < 1:
            raise ConfigError(f"reduced_k must be >= 1, got {reduced_k}")
        self.enter = tuple(float(e) for e in enter)
        self.hysteresis = hysteresis
        self.min_dwell_s = min_dwell_s
        self.ewma_alpha = ewma_alpha
        self.reduced_k = reduced_k
        self._pressure = 0.0
        self._tier = TIER_FULL
        self._entered_at = 0.0  # read only above the full tier
        get_registry().gauge("service.degrade_tier").set(TIER_FULL)

    @property
    def pressure(self) -> float:
        """Current smoothed pressure (queue-occupancy EWMA)."""
        return self._pressure

    @property
    def tier(self) -> int:
        """Current ladder tier (0..3)."""
        return self._tier

    def observe(self, occupancy: float, now: float) -> int:
        """Feed one occupancy sample taken at ``now``; returns the
        (possibly new) tier.

        Escalation is immediate (to however many tiers the smoothed
        pressure has climbed past); de-escalation steps down one tier at
        a time, and only after ``min_dwell_s`` in the current tier with
        pressure below its hysteresis exit.
        """
        if occupancy < 0:
            raise ConfigError(f"occupancy must be >= 0, got {occupancy}")
        a = self.ewma_alpha
        self._pressure = (1 - a) * self._pressure + a * float(occupancy)
        target = TIER_FULL
        for t, threshold in enumerate(self.enter, start=1):
            if self._pressure >= threshold:
                target = t
        if target > self._tier:
            self._set_tier(target, now)
        elif self._tier > TIER_FULL:
            exit_below = self.enter[self._tier - 1] - self.hysteresis
            if (
                self._pressure < exit_below
                and now - self._entered_at >= self.min_dwell_s
            ):
                self._set_tier(self._tier - 1, now)
        return self._tier

    def _set_tier(self, tier: int, now: float) -> None:
        if tier > self._tier:
            get_registry().counter(
                f"service.degrade.enter_{tier_name(tier)}"
            ).inc()
        self._tier = tier
        self._entered_at = now
        get_registry().gauge("service.degrade_tier").set(tier)
