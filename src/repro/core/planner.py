"""Direct-vs-proxy planning.

:class:`TransferPlanner` packages the full Algorithm-1 decision sequence
the paper lists in §IV-B:

1. *"Calculate the message sizes to see if using intermediate nodes
   benefits performance"* — the model threshold (Eqs. 4–5);
2. *"Determine the number and location of intermediate nodes"* — the
   proxy search of :mod:`repro.core.proxy_select`;
3. *"Transfer data using multipaths"* — executed by
   :mod:`repro.core.multipath`.

It exposes the *plan* as a first-class object so applications can plan
once (the paper: "If the set of sources and destinations are known a
priori, an application only needs to run Init once") and execute many
transfers against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.model import TransferModel
from repro.core.multipath import TransferOutcome, TransferSpec, run_transfer
from repro.core.proxy_select import ProxyAssignment, ProxyPlan, find_proxies
from repro.machine.system import BGQSystem
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.util.validation import ConfigError


@dataclass
class PlannedTransfer:
    """One transfer with its planned strategy.

    ``strategy`` is ``"direct"`` or ``"proxy"``; ``assignment`` is the
    proxy assignment when proxying (also kept for direct decisions so
    callers can inspect why the fallback happened).
    """

    spec: TransferSpec
    strategy: str
    assignment: "ProxyAssignment | None"
    predicted_time: float
    predicted_speedup: float


class TransferPlanner:
    """Plans and executes sparse transfers between compute-node groups."""

    def __init__(
        self,
        system: BGQSystem,
        *,
        min_proxies: int = TransferModel.MIN_BENEFICIAL_PROXIES,
        max_proxies: "int | None" = None,
        max_offset: int = 3,
    ):
        self.system = system
        self.model = TransferModel(system.params)
        self.min_proxies = min_proxies
        self.max_proxies = max_proxies
        self.max_offset = max_offset
        self._plan_cache: "ProxyPlan | None" = None
        self._plan_pairs: "tuple[tuple[int, int], ...] | None" = None

    def _search_proxies(self, pairs: tuple[tuple[int, int], ...]) -> ProxyPlan:
        """The proxy search itself (overridden by fault-aware planners)."""
        return find_proxies(
            self.system,
            pairs,
            max_proxies=self.max_proxies,
            min_proxies=self.min_proxies,
            max_offset=self.max_offset,
        )

    def find_plan(self, pairs: Sequence[tuple[int, int]]) -> ProxyPlan:
        """Run (and cache) the proxy search for a set of endpoint pairs."""
        pairs_t = tuple(pairs)
        if self._plan_pairs != pairs_t:
            with get_tracer().span(
                "proxy-select", cat="plan", n_pairs=len(pairs_t)
            ) as span:
                self._plan_cache = self._search_proxies(pairs_t)
                span.set(
                    total_carriers=sum(
                        a.k for a in self._plan_cache.assignments.values()
                    )
                )
            get_registry().counter("planner.proxy_searches").inc()
            self._plan_pairs = pairs_t
        else:
            get_registry().counter("planner.plan_cache_hits").inc()
        assert self._plan_cache is not None
        return self._plan_cache

    def _decide(self, spec: TransferSpec, asg: ProxyAssignment) -> PlannedTransfer:
        """The Algorithm-1 step-0 decision for one transfer (overridable)."""
        direct_t = self.model.direct_time(spec.nbytes)
        if (
            asg.k >= self.min_proxies
            and spec.nbytes >= asg.k
            and self.model.use_proxies(spec.nbytes, asg.k)
        ):
            t = self.model.proxy_time(spec.nbytes, asg.k)
            return PlannedTransfer(
                spec=spec,
                strategy="proxy",
                assignment=asg,
                predicted_time=t,
                predicted_speedup=direct_t / t,
            )
        return PlannedTransfer(
            spec=spec,
            strategy="direct",
            assignment=asg,
            predicted_time=direct_t,
            predicted_speedup=1.0,
        )

    def plan(self, specs: Sequence[TransferSpec]) -> list[PlannedTransfer]:
        """Decide direct vs. proxy for every transfer."""
        specs = list(specs)
        if not specs:
            raise ConfigError("specs must be non-empty")
        with get_tracer().span(
            "plan",
            cat="plan",
            n_specs=len(specs),
            total_bytes=sum(s.nbytes for s in specs),
        ) as span:
            proxy_plan = self.find_plan([(s.src, s.dst) for s in specs])
            planned = [
                self._decide(spec, proxy_plan.assignments[(spec.src, spec.dst)])
                for spec in specs
            ]
            n_proxy = sum(1 for p in planned if p.strategy == "proxy")
            span.set(proxy=n_proxy, direct=len(planned) - n_proxy)
        reg = get_registry()
        reg.counter("planner.decisions.proxy").inc(n_proxy)
        reg.counter("planner.decisions.direct").inc(len(planned) - n_proxy)
        return planned

    def execute(self, specs: Sequence[TransferSpec]) -> TransferOutcome:
        """Plan (cached) and run the transfers in the fluid simulator."""
        proxy_plan = self.find_plan([(s.src, s.dst) for s in specs])
        return run_transfer(
            self.system,
            specs,
            mode="auto",
            assignments=proxy_plan.assignments,
            min_proxies=self.min_proxies,
        )
