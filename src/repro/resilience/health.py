"""Link-health estimation from observed flow throughputs.

The executor (:mod:`repro.resilience.executor`) never sees the ground
truth :class:`~repro.machine.faults.FaultTrace` — like a real runtime it
only sees what its own transfers achieve.  :class:`HealthMonitor` turns
those observations into per-link *effective capacity* estimates:

* an observed flow rate is a **lower bound** on every link it crossed
  (max-min sharing can only slow a flow down), so within one round the
  monitor keeps the *maximum* rate seen per link;
* at round end the fresh estimates **replace** the stored ones for the
  links observed, so a link that recovers (a transient fault window
  ending) is re-trusted as soon as a fast flow crosses it again;
* links whose estimate falls below ``suspect_fraction`` of nominal are
  flagged, and whole paths get a ``healthy`` / ``degraded`` / ``down``
  verdict the retry logic keys on.

Known static faults (a :class:`~repro.machine.faults.FaultModel`) seed
the initial belief, so the monitor starts out distrusting links the
operator already cordoned.
"""

from __future__ import annotations

from typing import Iterable

from repro.machine.faults import FaultModel
from repro.machine.system import BGQSystem
from repro.util.validation import ConfigError

#: A link is suspect, and a late carrier fails, below this fraction of nominal capacity /
#: planned rate: under the 0.5 ratio of fair two-way sharing, so contention never condemns.
HEALTH_THRESHOLD = 0.4

#: Verdicts returned by :meth:`HealthMonitor.path_verdict`.
HEALTHY = "healthy"
DEGRADED = "degraded"
DOWN = "down"
#: Half-open: the link was believed dead but its re-probe interval has
#: elapsed — a path through it may carry a *small* probing share again.
PROBATION = "probation"
#: A carrier (link or proxy) accumulated enough corruption strikes to be
#: distrusted outright: planners route around it until its re-probe
#: interval elapses (half-open, :data:`PROBATION`) and a verified-clean
#: delivery absolves it.
QUARANTINED = "quarantined"


class HealthMonitor:
    """Estimates per-link effective capacity from observed throughputs.

    Args:
        system: the machine whose nominal capacities anchor the scale.
        faults: *known* static faults seeding the initial estimates
            (degraded links start distrusted, failed links start down).
        suspect_fraction: links whose effective capacity falls below this
            fraction of nominal are flagged as suspect (default
            :data:`HEALTH_THRESHOLD`).
        reprobe_interval: simulated seconds after which a link believed
            *down* enters probation (half-open): paths through it report
            :data:`PROBATION` instead of :data:`DOWN`, so a flapping link
            isn't excluded for the rest of the transfer.  ``None``
            disables re-probing (down stays down until re-observed).
            The same interval times corruption-quarantine re-probes.
        corruption_threshold: checksum-mismatch strikes (attributed via
            :meth:`record_corruption`) after which a link or proxy is
            quarantined.  Capacity estimates and corruption trust are
            orthogonal axes: a quarantined link may be *fast* — it just
            cannot be believed.
    """

    def __init__(
        self,
        system: BGQSystem,
        *,
        faults: "FaultModel | None" = None,
        suspect_fraction: float = HEALTH_THRESHOLD,
        reprobe_interval: "float | None" = None,
        corruption_threshold: int = 2,
    ):
        if not 0 < suspect_fraction < 1:
            raise ConfigError(
                f"suspect_fraction must be in (0, 1), got {suspect_fraction}"
            )
        if reprobe_interval is not None and reprobe_interval <= 0:
            raise ConfigError(
                f"reprobe_interval must be > 0, got {reprobe_interval}"
            )
        if corruption_threshold < 1:
            raise ConfigError(
                f"corruption_threshold must be >= 1, got {corruption_threshold}"
            )
        self.system = system
        self.faults = faults or FaultModel()
        self.suspect_fraction = suspect_fraction
        self.reprobe_interval = reprobe_interval
        self.corruption_threshold = corruption_threshold
        self._estimates: dict[int, float] = {}
        self._pending: dict[int, float] = {}
        self._down_since: dict[int, float] = {}
        self._link_strikes: dict[int, int] = {}
        self._proxy_strikes: dict[int, int] = {}
        self._q_link_since: dict[int, float] = {}
        self._q_proxy_since: dict[int, float] = {}
        self._now = 0.0

    # -- state access ------------------------------------------------------------

    def nominal(self, link: int) -> float:
        """Pristine capacity of one directed link [B/s]."""
        return float(self.system.capacity(link))

    def effective_capacity(self, link: int) -> float:
        """Current belief about one link's usable capacity [B/s].

        Observation-backed estimates win; otherwise the known static
        fault state applies to the nominal capacity.
        """
        est = self._estimates.get(link)
        if est is not None:
            return est
        return self.nominal(link) * self.faults.link_factor(link)

    def link_fraction(self, link: int) -> float:
        """Effective capacity as a fraction of nominal (0.0 = down).

        A hard-quarantined link reports 0.0 regardless of how fast it
        is: bytes that cannot be trusted are bytes not moved.  In
        corruption probation (half-open) the capacity belief applies
        again so a probing share can be planned across it.
        """
        if self.link_quarantine(link) == QUARANTINED:
            return 0.0
        est = self._estimates.get(link)
        if est is None:
            # Without an observation the belief is nominal × static
            # factor, so the fraction is the factor itself — no need to
            # look the capacity up just to divide it back out.
            return self.faults.link_factor(link)
        nom = self.nominal(link)
        return est / nom if nom > 0 else 0.0

    @property
    def is_pristine(self) -> bool:
        """True while nothing degrades any link: no observation-backed
        estimate recorded, an empty static fault set, and no corruption
        strikes on record.  Planners use this to skip per-link belief
        queries on healthy systems."""
        return (
            not self._estimates
            and self.faults.is_null
            and not self._link_strikes
            and not self._proxy_strikes
        )

    def is_suspect(self, link: int) -> bool:
        """True when the link's estimate falls below the suspect line."""
        return self.link_fraction(link) < self.suspect_fraction

    def suspect_links(self) -> list[int]:
        """All observed-or-known links currently below the suspect line
        (hard-quarantined links report fraction 0.0, so they qualify)."""
        known = set(self._estimates)
        known.update(self.faults.degraded_links)
        known.update(self.faults.failed_links)
        known.update(self._q_link_since)
        return sorted(l for l in known if self.is_suspect(l))

    # -- observation -------------------------------------------------------------

    def observe(self, links: Iterable[int], rate: float) -> None:
        """Record one flow's achieved rate over the links it crossed.

        The rate is a lower bound on each link's capacity; per round the
        best (highest) bound per link is kept until :meth:`end_round`.
        """
        if rate < 0:
            raise ConfigError(f"observed rate must be >= 0, got {rate}")
        for link in links:
            prev = self._pending.get(link)
            if prev is None or rate > prev:
                self._pending[link] = float(rate)

    def mark_down(self, links: Iterable[int]) -> None:
        """Force links to zero effective capacity immediately."""
        for link in links:
            self._estimates[link] = 0.0
            self._pending.pop(link, None)
            self._down_since.setdefault(link, self._now)

    def advance(self, now: float) -> None:
        """Move the monitor's clock to simulated time ``now``.

        The executor calls this as rounds progress; the clock anchors
        :meth:`in_probation`'s elapsed-time check.  Time never rewinds.
        """
        if now > self._now:
            self._now = now

    def in_probation(self, link: int) -> bool:
        """True when ``link`` is believed down but its re-probe interval
        has elapsed — eligible to carry a probing share (half-open)."""
        if self.reprobe_interval is None:
            return False
        since = self._down_since.get(link)
        return (
            since is not None
            and self.effective_capacity(link) <= 0.0
            and self._now - since >= self.reprobe_interval
        )

    def end_round(self) -> None:
        """Commit this round's observations, replacing prior estimates
        for the links observed (recent evidence wins — recovery shows)."""
        self._estimates.update(self._pending)
        for link, rate in self._pending.items():
            if rate > 0.0:
                self._down_since.pop(link, None)
        self._pending.clear()

    # -- corruption trust ---------------------------------------------------------

    def record_corruption(
        self, *, links: Iterable[int] = (), proxy: "int | None" = None
    ) -> None:
        """Attribute one detected checksum mismatch to a carrier.

        Each call adds one strike to every named link and to the proxy;
        an entity reaching ``corruption_threshold`` strikes is
        quarantined (its re-probe clock starts — and *restarts* if a
        half-open probe corrupts again).
        """
        for link in links:
            n = self._link_strikes.get(link, 0) + 1
            self._link_strikes[link] = n
            if n >= self.corruption_threshold:
                self._q_link_since[link] = self._now
        if proxy is not None:
            n = self._proxy_strikes.get(proxy, 0) + 1
            self._proxy_strikes[proxy] = n
            if n >= self.corruption_threshold:
                self._q_proxy_since[proxy] = self._now

    def absolve(
        self, *, links: Iterable[int] = (), proxy: "int | None" = None
    ) -> None:
        """Clear corruption strikes after a verified-clean delivery
        crossed the carrier — the half-open probe (or plain good
        behaviour) restores trust."""
        for link in links:
            self._link_strikes.pop(link, None)
            self._q_link_since.pop(link, None)
        if proxy is not None:
            self._proxy_strikes.pop(proxy, None)
            self._q_proxy_since.pop(proxy, None)

    def _quarantine_state(self, since: "float | None") -> "str | None":
        if since is None:
            return None
        if (
            self.reprobe_interval is not None
            and self._now - since >= self.reprobe_interval
        ):
            return PROBATION
        return QUARANTINED

    def link_quarantine(self, link: int) -> "str | None":
        """``"quarantined"``, ``"probation"`` (half-open) or ``None``."""
        return self._quarantine_state(self._q_link_since.get(link))

    def proxy_quarantine(self, node: int) -> "str | None":
        """``"quarantined"``, ``"probation"`` (half-open) or ``None``."""
        return self._quarantine_state(self._q_proxy_since.get(node))

    def corruption_strikes(self, *, link: "int | None" = None,
                           proxy: "int | None" = None) -> int:
        """Current strike count of one link or proxy."""
        if link is not None:
            return self._link_strikes.get(link, 0)
        if proxy is not None:
            return self._proxy_strikes.get(proxy, 0)
        return 0

    def quarantined_links(self) -> list[int]:
        """Links under quarantine or half-open re-probe, ascending."""
        return sorted(self._q_link_since)

    def quarantined_proxies(self) -> list[int]:
        """Proxies under quarantine or half-open re-probe, ascending."""
        return sorted(self._q_proxy_since)

    def reprobe_countdown(
        self, *, link: "int | None" = None, proxy: "int | None" = None
    ) -> "float | None":
        """Simulated seconds until a quarantined carrier turns half-open
        (0.0 = already in probation; ``None`` = not quarantined or
        re-probing disabled)."""
        since = (
            self._q_link_since.get(link)
            if link is not None
            else self._q_proxy_since.get(proxy)
        )
        if since is None or self.reprobe_interval is None:
            return None
        return max(0.0, self.reprobe_interval - (self._now - since))

    # -- path-level queries -------------------------------------------------------

    def path_rate(self, links: Iterable[int], *, cap: "float | None" = None) -> float:
        """Believed bottleneck rate along a route, clipped at ``cap``
        (default: the single-stream ceiling)."""
        if cap is None:
            cap = min(self.system.params.stream_cap, self.system.params.mem_bw)
        rate = min((self.effective_capacity(l) for l in links), default=cap)
        return min(rate, cap)

    def path_verdict(self, links: Iterable[int]) -> str:
        """``"down"`` when any link is believed dead or hard-quarantined
        for corruption, ``"probation"`` when every such link has aged
        past the re-probe interval (the path may carry a small probing
        share again), ``"degraded"`` when any link is suspect,
        ``"healthy"`` otherwise."""
        verdict = HEALTHY
        saw_dead = False
        for link in links:
            q = self.link_quarantine(link)
            if q == QUARANTINED:
                return DOWN
            if q == PROBATION:
                saw_dead = True
            if self.effective_capacity(link) <= 0.0:
                if not self.in_probation(link):
                    return DOWN
                saw_dead = True
            elif self.is_suspect(link):
                verdict = DEGRADED
        if saw_dead:
            return PROBATION
        return verdict
