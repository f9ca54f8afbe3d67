"""Resilient transfer execution: detect → credit → re-plan → retry.

:func:`run_resilient_transfer` closes the loop the planner alone cannot:
the ground-truth :class:`~repro.machine.faults.FaultTrace` is *hidden*
from planning (as real link failures are), and only shows up as missed
per-path deadlines and collapsed observed rates.  Execution proceeds in
**rounds**:

1. every carrier gets a deadline (:data:`DEADLINE_FACTOR` × its Eq. 1/2
   predicted time at the believed rate); the round's flows run in the
   fluid simulator against the ground-truth capacities, with the trace's
   factor changes applied mid-run as exact
   :class:`~repro.network.flowsim.CapacityEvent` interrupts;
2. a carrier **fails** when it misses its deadline *and* its achieved
   delivery rate fell below :data:`HEALTH_THRESHOLD` of plan — plain
   two-way max-min contention yields a 0.5 rate ratio, safely above
   0.4, so fair sharing alone never triggers failover;
3. a failed carrier is *cancelled at its deadline*: the simulator's
   byte-exact cutoff snapshot says how much of its share actually
   landed, and the :class:`~repro.resilience.ledger.TransferLedger`
   credits those extents — including extents parked **at a
   store-and-forward proxy** (phase 1 done, phase 2 owed), which are
   re-driven over the second hop only;
4. the remaining *outstanding* extents are re-split, whole extents at a
   time, over the carriers the monitor still believes healthy, topped
   up with failure-domain-aware **replacement proxies** from the
   planner (never sharing a link with a degraded route or a surviving
   carrier) and, when too few survive, the direct path;
5. the next round starts after an exponential backoff (simulated time);
   a transfer that exhausts ``max_retries`` raises
   :class:`TransferAbortedError` — unless a wall-clock **budget** is
   set, in which case the executor degrades to one final best-effort
   direct round capped at the budget and returns the ledger's residue
   instead of raising.

At completion every ledger verifies **exactly-once** delivery of every
extent; duplicates or gaps raise
:class:`~repro.resilience.ledger.IntegrityError`.  Receivers drop
stale-epoch arrivals (a cancelled carrier's flow finishing after its
deadline delivers nothing), which is what makes the credit exact.

With no faults at all, round 1 emits byte-for-byte the same flow program
as :func:`~repro.core.multipath.run_transfer`, registers no cutoffs, and
no deadline fires, so the outcome is identical to the fault-blind
executor's (tested).

Hard-down links are clamped to :data:`STALL_RATE` (≈1 B/s) instead of
zero so a flow routed across one *stalls* — exactly what a real RDMA put
into a dead link does — and is caught by its deadline rather than by a
simulator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.multipath import (
    TransferSpec,
    build_direct_flows,
    build_multipath_flows_detailed,
)
from repro.core.proxy_select import ProxyAssignment, forced_assignment
from repro.machine.faults import FaultModel, FaultTrace, SDCModel
from repro.machine.system import BGQSystem
from repro.mpi.comm import SimComm
from repro.mpi.program import FlowProgram
from repro.network.flowsim import CapacityEvent, FlowSimResult
from repro.obs.metrics import TimeSeriesProbe, get_registry
from repro.obs.trace import get_tracer
from repro.resilience.health import (
    DOWN,
    HEALTH_THRESHOLD,
    HEALTHY,
    PROBATION,
    QUARANTINED,
    HealthMonitor,
)
from repro.util.cancel import check_cancelled
from repro.resilience.ledger import (
    DEFAULT_CHUNK_BYTES,
    Extent,
    LedgerReport,
    TransferLedger,
    group_extents,
    prefix_extents,
)
from repro.resilience.planner import ResilientPlanner, ResilientTransfer
from repro.util.validation import ConfigError, SimulationError

#: Residual rate of a hard-down link [B/s]: the flow stalls but the
#: fluid model stays well-posed; deadlines do the actual failure
#: detection, as they would on the real machine.
STALL_RATE = 1.0

#: XOR mask applied to an extent's checksum to model the observed
#: checksum of a corrupted arrival (any constant != 0 works: the
#: mismatch, not the value, is what detection keys on).
_CORRUPT_MASK = 0xA5A5A5A5

#: A carrier is late past this multiple of its predicted time.
DEADLINE_FACTOR = 1.5
#: Planned rates floor at this fraction of the stream ceiling, so believed-dead paths fail fast.
MIN_PLANNED_FRACTION = 0.01


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the detect-and-retry loop.

    Attributes:
        max_retries: retry rounds allowed per transfer before aborting.
        backoff_base: first retry's backoff delay [s] (simulated time).
        backoff_multiplier: exponential backoff growth per retry.
        backoff_jitter: fraction of each backoff delay that is
            randomised (AWS *full jitter* at 1.0): round ``n``'s delay
            is drawn uniformly from ``[(1 - j) * b, b]``, where ``b``
            is the deterministic exponential value — so simultaneous
            retries against a shared resource decorrelate instead of
            colliding again in lockstep.  0 keeps the legacy
            deterministic schedule.
        jitter_seed: seed of the jitter stream (only read when
            ``backoff_jitter > 0``).  The stream is derived from this
            seed *plus* the transfer set (src/dst/size of every spec),
            so concurrent transfers sharing one policy decorrelate
            instead of retrying in lockstep, while the same seed and
            specs always reproduce the same delays.
        min_healthy_paths: surviving-proxy count below which replacement
            proxies (and, failing that, the direct path) join the retry
            carriers (the Eq. 5 profitability floor: fewer than 3 paths
            cannot beat direct anyway).
        chunk_bytes: extent granularity of the integrity ledger (see
            :class:`~repro.resilience.ledger.TransferLedger`).
        partial_progress: credit a cancelled carrier's byte-exact
            partial delivery and re-send only outstanding extents
            (``False`` re-sends failed shares whole — the pre-ledger
            behaviour, kept for the retransmit-volume benchmark).
        budget_s: wall-clock ceiling [simulated s] on recovery: no retry
            round *starts* past it, and on exhaustion (or retries
            running out while a budget is set) the executor runs one
            budget-capped best-effort direct round and returns the
            ledger's residue instead of raising.  Round 0 always runs
            to its natural end — the budget gates recovery, not the
            initial attempt.  ``None`` keeps the raising behaviour.
        reprobe_interval: half-open re-probe interval handed to an
            auto-created :class:`~repro.resilience.health.HealthMonitor`
            (ignored when a monitor is passed in); ``None`` disables.
        avoid_failure_domains: additionally keep replacement routes out
            of every midplane failure domain touching a link the
            monitor believes down.
    """

    max_retries: int = 3
    backoff_base: float = 1e-4
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.0
    jitter_seed: int = 2014
    min_healthy_paths: int = 3
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    partial_progress: bool = True
    budget_s: "float | None" = None
    reprobe_interval: "float | None" = None
    avoid_failure_domains: bool = False

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ConfigError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0 <= self.backoff_jitter <= 1:
            raise ConfigError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.min_healthy_paths < 1:
            raise ConfigError(
                f"min_healthy_paths must be >= 1, got {self.min_healthy_paths}"
            )
        if self.chunk_bytes < 1:
            raise ConfigError(f"chunk_bytes must be >= 1, got {self.chunk_bytes}")
        if self.budget_s is not None and self.budget_s <= 0:
            raise ConfigError(f"budget_s must be > 0, got {self.budget_s}")
        if self.reprobe_interval is not None and self.reprobe_interval <= 0:
            raise ConfigError(
                f"reprobe_interval must be > 0, got {self.reprobe_interval}"
            )


class TransferAbortedError(SimulationError):
    """A transfer exhausted its retries; ``telemetry`` holds the record."""

    def __init__(self, message: str, telemetry: "ResilienceTelemetry | None" = None):
        super().__init__(message)
        self.telemetry = telemetry


@dataclass(frozen=True)
class PathAttempt:
    """One carrier's attempt in one round (absolute simulated times)."""

    round: int
    src: int
    dst: int
    proxy: "int | None"  # None = the direct path carried this share
    share: int
    planned_time: float
    deadline: float
    finish: float
    verdict: str  # "ok", "failed" (deadline) or "corrupt" (integrity)


@dataclass
class ResilienceTelemetry:
    """Structured record of the executor's resilience actions.

    The same events also feed the process-wide observability layer —
    ``resilience.*`` counters in :func:`repro.obs.get_registry` and
    ``transfer-round`` spans on :func:`repro.obs.get_tracer` — so this
    object is a per-call convenience view, not the only record.
    """

    rounds: int = 0
    retries: int = 0
    failovers: int = 0
    bytes_resent: int = 0
    degraded_to_direct: int = 0
    partial_credit_bytes: int = 0
    bytes_redriven: int = 0
    replacements: int = 0
    budget_exhausted: bool = False
    corrupt_extents_detected: int = 0
    corrupt_bytes_redriven: int = 0
    stale_drops: int = 0
    attempts: list[PathAttempt] = field(default_factory=list)

    @property
    def failed_attempts(self) -> list[PathAttempt]:
        """All per-path attempts that missed their deadline and failed."""
        return [a for a in self.attempts if a.verdict == "failed"]


@dataclass
class ResilientOutcome:
    """Result of a resilient transfer run.

    ``makespan`` is absolute simulated completion time including retry
    rounds and backoffs; ``round_results`` keeps each round's raw
    flow-level results (round 0 first).  ``ledgers`` maps each
    ``(src, dst)`` pair to its verified
    :class:`~repro.resilience.ledger.TransferLedger` and ``integrity``
    holds the per-transfer verification reports — ``complete`` is False
    only for budget-exhausted best-effort runs, whose undelivered bytes
    are ``residue_bytes``.
    """

    makespan: float
    total_bytes: float
    delivered_bytes: float
    mode_used: dict[tuple[int, int], str]
    telemetry: ResilienceTelemetry
    plans: list[ResilientTransfer]
    round_results: list[FlowSimResult]
    ledgers: dict[tuple[int, int], TransferLedger] = field(default_factory=dict)
    integrity: list[LedgerReport] = field(default_factory=list)
    residue_bytes: int = 0
    complete: bool = True

    @property
    def throughput(self) -> float:
        """Requested payload over total elapsed time [B/s]."""
        return self.total_bytes / self.makespan if self.makespan > 0 else float("inf")

    @property
    def corrupted_acknowledged_bytes(self) -> int:
        """Bytes whose *recorded arrival checksum* mismatches the sealed
        truth yet were credited as delivered — the zero-tolerance audit
        the corruption chaos campaigns assert on (summed over every
        transfer's integrity report)."""
        return sum(r.corrupted_acknowledged_bytes for r in self.integrity)

    @property
    def result(self) -> FlowSimResult:
        """The first round's flow results (fault-free: the whole run)."""
        return self.round_results[0]


@dataclass
class _Carrier:
    """One share in flight during a round."""

    spec_idx: int
    proxy: "int | None"
    share: int
    two_hop: bool
    planned_rate: float
    planned_time: float
    deadline: float
    exit_fid: object = None
    phase1_fid: object = None
    redrive: bool = False  # one-hop proxy→dst re-drive of parked extents
    extents: list = field(default_factory=list)  # ledger extents, stream order
    obs: list = field(default_factory=list)  # (links, fid) pairs to observe


def _jitter_stream(policy: "RetryPolicy", specs) -> "np.random.Generator | None":
    """Backoff-jitter RNG for one transfer execution.

    The stream is keyed by ``jitter_seed`` *and* the transfer set
    (src/dst/size of every spec), so concurrent transfers that share a
    policy draw decorrelated jitter — the whole point of jitter — while
    any single transfer stays byte-reproducible from its seed.
    """
    if policy.backoff_jitter <= 0:
        return None
    key = [policy.jitter_seed]
    for s in specs:
        key.extend((s.src, s.dst, s.nbytes))
    return np.random.default_rng(key)


def _predicted_time(params, share: int, rate: float, two_hop: bool) -> float:
    """Eq. 1 / Eq. 2 per-carrier time at a believed rate."""
    if two_hop:
        return 2 * params.o_msg + params.o_fwd + 2 * share / rate
    return params.o_msg + share / rate


def _resilient_execution(
    system: BGQSystem,
    specs: Sequence[TransferSpec],
    *,
    faults: "FaultModel | None" = None,
    trace: "FaultTrace | None" = None,
    policy: "RetryPolicy | None" = None,
    planner: "ResilientPlanner | None" = None,
    monitor: "HealthMonitor | None" = None,
    sdc: "SDCModel | None" = None,
    probe: "TimeSeriesProbe | None" = None,
    max_proxies: "int | None" = None,
):
    """Generator core of the resilient executor (detect → credit → retry).

    Holds *all* of the executor's logic — round emission, deadlines,
    ledger credit, health feeding, re-planning, budgets — but performs
    **no simulation itself**: at each point where a round must run it
    yields ``(prog, capacity_events, cutoffs)`` and receives the
    :class:`~repro.network.flowsim.FlowSimResult` back via ``send()``.
    :func:`run_resilient_transfer` drives it with serial
    ``prog.run(...)`` calls (identical behaviour to the pre-generator
    executor); :func:`run_resilient_transfer_many` drives many of these
    generators in lockstep *waves*, one batched
    :class:`~repro.network.batchsim.BatchFlowSim` pass per wave, so a
    faulted scenario in a batch retries only its own outstanding
    extents without forcing its batch neighbours serial.  A driver
    ``throw()``s simulation errors in, which propagate exactly as they
    would from an inline ``prog.run``.  Returns (via ``StopIteration``)
    the :class:`ResilientOutcome`.

    ``sdc`` switches on the silent-corruption defense: every extent
    arriving at its destination is end-to-end checksum-verified before
    credit.  A mismatch is `corrupted, not lost` — the extent returns
    to outstanding (never acknowledged), the mismatch is attributed to
    its carrier (the staging proxy of a store-and-forward carrier, the
    route links of a direct one), the carrier's verdict becomes
    ``"corrupt"`` and a retry round re-drives *only* the corrupt
    extents over carriers the monitor still trusts.  Passing a *null*
    model (all rates zero) keeps the verification active but inert —
    the configuration the verification-overhead benchmark measures.
    Corruption decisions are pure functions of
    ``(seed, transfer, extent, round, carrier)``, so serial and batched
    drivers agree byte-for-byte.

    ``max_proxies`` bounds the proxy search of the planner built here;
    it is ignored when a ``planner`` is passed in.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("specs must be non-empty")
    tracer = get_tracer()
    reg = get_registry()
    faults = faults or FaultModel()
    trace = trace or FaultTrace()
    policy = policy or RetryPolicy()
    if monitor is None:
        monitor = HealthMonitor(
            system,
            faults=faults,
            reprobe_interval=policy.reprobe_interval,
        )
    if planner is None:
        planner = ResilientPlanner(
            system, faults=faults, monitor=monitor, max_proxies=max_proxies
        )
    plans = planner.plan(specs)

    params = system.params
    stream = min(params.stream_cap, params.mem_bw)
    comm = SimComm(system)
    direct_links = {
        (s.src, s.dst): system.compute_path(s.src, s.dst).links for s in specs
    }
    faulted = not (faults.is_null and trace.is_null)
    # Fault-free runs never register cutoffs: the flow program the
    # simulator sees is byte-identical to the fault-blind executor's.
    track_cutoffs = faulted and policy.partial_progress
    # Verification is on whenever an SDC model is supplied — even a
    # null one (that configuration measures pure verification cost).
    verify_extents = sdc is not None
    ledgers = {
        idx: TransferLedger(
            (s.src, s.dst), s.nbytes, chunk_bytes=policy.chunk_bytes
        )
        for idx, s in enumerate(specs)
    }

    def capacity_at(link: int, t: float) -> float:
        c = system.capacity(link) * faults.link_factor(link) * trace.factor_at(link, t)
        return c if c > 0.0 else STALL_RATE

    def round_capacity_fn(t0: float) -> "Callable[[int], float] | None":
        if not faulted:
            return None  # pristine machine: identical physics to run_transfer
        return lambda link: capacity_at(link, t0)

    def round_events(t0: float) -> "list[CapacityEvent] | None":
        if trace.is_null:
            return None
        evs = []
        for link in trace.affected_links:
            for b in trace.boundaries([link]):
                if b > t0:
                    evs.append(
                        CapacityEvent(time=b - t0, link=link, capacity=capacity_at(link, b))
                    )
        return evs or None

    def emit_carrier_group(
        prog: FlowProgram,
        spec_idx: int,
        asg: ProxyAssignment,
        nbytes: int,
        weights: "tuple[float, ...] | None",
        rates: Sequence[float],
        label: str,
        shares: "Sequence[int] | None" = None,
        groups: "Sequence[Sequence[Extent]] | None" = None,
    ) -> list[_Carrier]:
        """Emit a (possibly partial) multipath group and wrap each share."""
        spec = specs[spec_idx]
        sub = TransferSpec(src=spec.src, dst=spec.dst, nbytes=nbytes)
        _, emissions = build_multipath_flows_detailed(
            prog, sub, asg, weights=weights, shares=shares, label=label
        )
        out = []
        for i, em in enumerate(emissions):
            two_hop = em.phase1 is not None
            rate = max(float(rates[i]), MIN_PLANNED_FRACTION * stream)
            t_pred = _predicted_time(params, em.share, rate, two_hop)
            car = _Carrier(
                spec_idx=spec_idx,
                proxy=None if em.proxy == spec.src else em.proxy,
                share=em.share,
                two_hop=two_hop,
                planned_rate=rate,
                planned_time=t_pred,
                deadline=DEADLINE_FACTOR * t_pred,
                exit_fid=em.exit,
                phase1_fid=em.phase1,
                extents=list(groups[i]) if groups is not None else [],
            )
            if two_hop:
                car.obs = [
                    (asg.phase1[i].links, em.phase1),
                    (asg.phase2[i].links, em.exit),
                ]
            else:
                car.obs = [(direct_links[(spec.src, spec.dst)], em.exit)]
            out.append(car)
        return out

    def emit_direct(
        prog: FlowProgram,
        spec_idx: int,
        nbytes: int,
        rate: float,
        label: str,
        extents: "Sequence[Extent] | None" = None,
    ) -> _Carrier:
        spec = specs[spec_idx]
        sub = TransferSpec(src=spec.src, dst=spec.dst, nbytes=nbytes)
        fid = build_direct_flows(prog, sub, label=label)
        rate = max(float(rate), MIN_PLANNED_FRACTION * stream)
        t_pred = _predicted_time(params, nbytes, rate, two_hop=False)
        return _Carrier(
            spec_idx=spec_idx,
            proxy=None,
            share=nbytes,
            two_hop=False,
            planned_rate=rate,
            planned_time=t_pred,
            deadline=DEADLINE_FACTOR * t_pred,
            exit_fid=fid,
            extents=list(extents) if extents is not None else [],
            obs=[(direct_links[(spec.src, spec.dst)], fid)],
        )

    def emit_redrive(
        prog: FlowProgram,
        spec_idx: int,
        proxy: int,
        extents: Sequence[Extent],
        rate: float,
        label: str,
    ) -> _Carrier:
        """One-hop proxy→destination re-drive of extents parked at a
        store-and-forward proxy (phase 1 already landed them there)."""
        spec = specs[spec_idx]
        nbytes = sum(e.length for e in extents)
        fid = prog.iput_nodes(
            proxy, spec.dst, nbytes, relay=True, label=label,
            tag=(spec.src, spec.dst),
        )
        rate = max(float(rate), MIN_PLANNED_FRACTION * stream)
        t_pred = params.o_msg + params.o_fwd + nbytes / rate
        p2_links = system.compute_path(proxy, spec.dst).links
        return _Carrier(
            spec_idx=spec_idx,
            proxy=proxy,
            share=nbytes,
            two_hop=False,
            planned_rate=rate,
            planned_time=t_pred,
            deadline=DEADLINE_FACTOR * t_pred,
            exit_fid=fid,
            redrive=True,
            extents=list(extents),
            obs=[(p2_links, fid)],
        )

    telemetry = ResilienceTelemetry()
    mode_used: dict[tuple[int, int], str] = {}
    round_results: list[FlowSimResult] = []
    retries_left = [policy.max_retries] * len(specs)

    # Round 0's work comes straight from the plan; later rounds replace
    # this with the per-spec retry emissions built below.  The ledgers
    # are sealed here, once the round-0 share boundaries are known.
    def initial_emit(prog: FlowProgram) -> list[_Carrier]:
        out = []
        for idx, plan in enumerate(plans):
            spec = specs[idx]
            key = (spec.src, spec.dst)
            if plan.strategy == "proxy":
                asg = plan.assignment
                rates = (
                    plan.weights
                    if plan.weights is not None
                    else [stream] * asg.k
                )
                cars = emit_carrier_group(
                    prog, idx, asg, spec.nbytes, plan.weights, rates, "mpath"
                )
                mode_used[key] = f"proxy:{asg.k}"
            else:
                rate = plan.effective_direct_rate or stream
                cars = [emit_direct(prog, idx, spec.nbytes, rate, "direct")]
                mode_used[key] = "direct"
            # Extent boundaries = chunk grid ∪ these share boundaries,
            # so every carrier range is a whole number of extents.
            led = ledgers[idx]
            cuts, lo = [], 0
            for car in cars:
                lo += car.share
                cuts.append(lo)
            led.seal(cuts[:-1])
            lo = 0
            for car in cars:
                car.extents = led.extents_in_range(lo, lo + car.share)
                lo += car.share
            out.extend(cars)
        return out

    def carrier_links(car: _Carrier) -> list[int]:
        """Every link the carrier's hops cross (observation routes)."""
        return [l for links, _ in car.obs for l in links]

    def carrier_str(car: _Carrier) -> str:
        """Attribution label: the staging proxy of a store-and-forward
        carrier (its buffer is the prime suspect, and it persists
        across re-routed hops so repeated strikes localise), else the
        direct route's links."""
        if car.proxy is not None:
            return f"proxy:{car.proxy}"
        links = sorted(set(carrier_links(car)))
        return "links:" + ",".join(str(l) for l in links)

    def credit_verified(
        car: _Carrier, exts: "list[Extent]", rnd: int
    ) -> tuple[int, list[Extent]]:
        """Credit destination arrivals, end-to-end verifying when the
        SDC defense is on; returns ``(fresh_bytes, corrupt_extents)``."""
        led = ledgers[car.spec_idx]
        if not verify_extents:
            return led.credit_delivered(exts), []
        key = led.key
        links = carrier_links(car)
        observed = []
        for e in exts:
            bad = sdc.wire_corrupts(key, e.eid, rnd, links) or (
                car.proxy is not None
                and sdc.proxy_corrupts(key, e.eid, rnd, car.proxy)
            )
            observed.append((e.checksum ^ _CORRUPT_MASK) if bad else e.checksum)
        return led.credit_received(exts, observed, carrier=carrier_str(car))

    def note_corruption(car: _Carrier, corrupt: "list[Extent]") -> None:
        """Telemetry + monitor strikes for one carrier's corrupt extents."""
        nb = sum(e.length for e in corrupt)
        telemetry.corrupt_extents_detected += len(corrupt)
        telemetry.corrupt_bytes_redriven += nb
        reg.counter("resilience.extents.corrupt").inc(len(corrupt))
        reg.counter("resilience.corrupt_bytes_redriven").inc(nb)
        if car.proxy is not None:
            monitor.record_corruption(proxy=car.proxy)
        else:
            monitor.record_corruption(links=carrier_links(car))

    def credit_carrier(
        car: _Carrier, ok: bool, result: FlowSimResult, rnd: int
    ) -> "list[Extent]":
        """Move the carrier's extents through the ledger.

        ``ok`` carriers delivered everything.  Failed carriers are
        cancelled at their deadline: the simulator's cutoff snapshot
        says how many bytes landed, and only whole extents inside that
        prefix are credited (delivered at the destination, or — for the
        first hop of a store-and-forward carrier — parked at the
        proxy).  The receiver drops anything arriving after the
        cancellation, so nothing here can double-deliver.  Returns the
        extents whose end-to-end verification failed (empty without an
        SDC model) — credited nothing, back to outstanding.
        """
        led = ledgers[car.spec_idx]
        if ok:
            _, corrupt = credit_verified(car, car.extents, rnd)
            reg.counter("resilience.extents.delivered").inc(
                len(car.extents) - len(corrupt)
            )
            return corrupt
        if not (faulted and policy.partial_progress):
            return []
        if car.two_hop:
            g2 = result.delivered_by_cutoff(car.exit_fid)
            g1 = result.delivered_by_cutoff(car.phase1_fid)
            cov2, _ = prefix_extents(car.extents, g2)
            cov1, _ = prefix_extents(car.extents, g1)
            got, corrupt = credit_verified(car, cov2, rnd)
            # Store-and-forward: phase 2 only starts once phase 1 has
            # fully landed, so cov2 is always a prefix of cov1 — the
            # difference sits at the proxy, owing only the second hop.
            led.credit_at_proxy(cov1[len(cov2):], car.proxy)
            reg.counter("resilience.extents.delivered").inc(
                len(cov2) - len(corrupt)
            )
            reg.counter("resilience.extents.at_proxy").inc(len(cov1) - len(cov2))
        else:
            g = result.delivered_by_cutoff(car.exit_fid)
            cov, _ = prefix_extents(car.extents, g)
            got, corrupt = credit_verified(car, cov, rnd)
            reg.counter("resilience.extents.delivered").inc(
                len(cov) - len(corrupt)
            )
        if got:
            telemetry.partial_credit_bytes += got
            reg.counter("resilience.partial_credit_bytes").inc(got)
        return corrupt

    def settle_round(
        carriers: list[_Carrier], result: FlowSimResult, rnd: int, T: float, budget_line: float
    ) -> tuple[float, dict[int, list[_Carrier]]]:
        """Per-carrier verdicts, ledger credit, monitor feeding.  A late
        carrier at a healthy rate is ok unless still in flight at the
        round-relative ``budget_line`` (``inf``: no budget gate)."""
        round_end = 0.0
        failed_by_spec: dict[int, list[_Carrier]] = {}
        for car in carriers:
            finish = result.finish(car.exit_fid)
            ok = finish <= car.deadline
            if not ok and finish <= budget_line:
                fixed = car.planned_time - (
                    (2 if car.two_hop else 1) * car.share / car.planned_rate
                )
                elapsed = max(finish - fixed, 1e-12)
                achieved = car.share / elapsed
                planned_delivery = (
                    car.planned_rate / 2 if car.two_hop else car.planned_rate
                )
                ok = achieved >= HEALTH_THRESHOLD * planned_delivery
            # Credit first: the integrity verdict needs the corrupt set.
            corrupt = credit_carrier(car, ok, result, rnd)
            verdict = "corrupt" if corrupt else ("ok" if ok else "failed")
            spec = specs[car.spec_idx]
            telemetry.attempts.append(
                PathAttempt(
                    round=rnd,
                    src=spec.src,
                    dst=spec.dst,
                    proxy=car.proxy,
                    share=car.share,
                    planned_time=car.planned_time,
                    deadline=T + car.deadline,
                    finish=T + finish,
                    verdict=verdict,
                )
            )
            reg.counter(f"resilience.attempts.{verdict}").inc()
            if math.isfinite(finish):
                reg.histogram("resilience.attempt_time_s").observe(finish)
            # A stalled flow's *mean* rate is its bytes diluted over the
            # whole stall (share / ~1e6 s ≈ a few B/s), so the dead-link
            # line must be relative to the stream ceiling, not to
            # STALL_RATE alone — 1e-6 of nominal is still ~1000x any
            # stall artefact and ~1e5 below any real degradation.
            down_rate = max(2 * STALL_RATE, 1e-6 * stream)
            for links, fid in car.obs:
                r = result[fid]
                rate_obs = r.mean_rate if math.isfinite(r.mean_rate) else stream
                monitor.observe(links, rate_obs)
                if not ok and rate_obs <= down_rate:
                    monitor.mark_down(links)
            if corrupt:
                note_corruption(car, corrupt)
            elif verify_extents and ok and car.extents:
                # A fully verified-clean round absolves any earlier
                # corruption suspicion against this carrier.
                if car.proxy is not None:
                    monitor.absolve(proxy=car.proxy)
                else:
                    monitor.absolve(links=carrier_links(car))
            if ok:
                round_end = max(round_end, finish)
            else:
                # Cancelled at the deadline: the receiver ignores the
                # late arrival; only the credited prefix counts.
                round_end = max(round_end, min(finish, car.deadline))
            if not ok or corrupt:
                # Corrupt extents are already back to OUTSTANDING in the
                # ledger; listing the carrier here drives the retry
                # machinery to re-split and re-drive them.
                failed_by_spec.setdefault(car.spec_idx, []).append(car)
        if verify_extents and sdc.stale_rate > 0.0:
            # Stale/duplicate replays of already-delivered extents: the
            # receiver's epoch check discards them on arrival, so they
            # cost nothing — but they are counted, and exactly-once
            # verification at the end proves none was double-credited.
            for idx, led in sorted(ledgers.items()):
                stale = sum(
                    1
                    for e in led.delivered_extents()
                    if sdc.stale_replay(led.key, e.eid, rnd)
                )
                if stale:
                    led.record_stale_drops(stale)
                    telemetry.stale_drops += stale
                    reg.counter("resilience.stale_dropped").inc(stale)
        monitor.end_round()
        monitor.advance(T + round_end)
        return round_end, failed_by_spec

    def best_effort_round(T0: float, rnd: int) -> float:
        """Final budget-capped direct/redrive round; returns its length.

        Every flow is cut off at the remaining budget and whatever
        landed by then is credited — the outcome reports the residue.
        """
        t_rem = (policy.budget_s - T0) if policy.budget_s is not None else math.inf
        if t_rem <= 0:
            return 0.0
        prog = FlowProgram(
            comm,
            capacity_fn=round_capacity_fn(T0),
            probe=probe,
            t_base=T0,
            sdc=sdc,
        )
        carriers: list[_Carrier] = []
        for idx, led in sorted(ledgers.items()):
            if led.complete:
                continue
            spec = specs[idx]
            for p in led.holders():
                p2 = system.compute_path(p, spec.dst).links
                if (
                    monitor.path_verdict(p2) != DOWN
                    and monitor.proxy_quarantine(p) != QUARANTINED
                ):
                    exts = led.held_extents(p)
                    carriers.append(
                        emit_redrive(
                            prog, idx, p, exts,
                            monitor.path_rate(p2), "best-effort-redrive",
                        )
                    )
                else:
                    led.release_proxy(p)
            outstanding = led.outstanding_extents()
            if outstanding:
                nb = sum(e.length for e in outstanding)
                rate = monitor.path_rate(direct_links[(spec.src, spec.dst)])
                carriers.append(
                    emit_direct(
                        prog, idx, nb, max(rate, STALL_RATE), "best-effort",
                        extents=outstanding,
                    )
                )
        if not carriers:
            return 0.0
        cutoffs = (
            {car.exit_fid: t_rem for car in carriers}
            if math.isfinite(t_rem)
            else None
        )
        result = yield (prog, round_events(T0), cutoffs)
        round_results.append(result)
        telemetry.rounds += 1
        reg.counter("resilience.rounds").inc()
        round_end = 0.0
        for car in carriers:
            finish = result.finish(car.exit_fid)
            ok = finish <= t_rem
            g = result.delivered_by_cutoff(car.exit_fid)
            cov, _ = prefix_extents(car.extents, g)
            got, corrupt = credit_verified(car, cov, rnd)
            reg.counter("resilience.extents.delivered").inc(len(cov) - len(corrupt))
            if corrupt:
                note_corruption(car, corrupt)
            if not ok and got:
                telemetry.partial_credit_bytes += got
                reg.counter("resilience.partial_credit_bytes").inc(got)
            spec = specs[car.spec_idx]
            telemetry.attempts.append(
                PathAttempt(
                    round=rnd,
                    src=spec.src,
                    dst=spec.dst,
                    proxy=car.proxy,
                    share=car.share,
                    planned_time=car.planned_time,
                    deadline=T0 + min(t_rem, car.deadline),
                    finish=T0 + finish,
                    verdict="corrupt" if corrupt else ("ok" if ok else "failed"),
                )
            )
            round_end = max(round_end, min(finish, t_rem))
        return round_end

    emit_round = initial_emit
    T = 0.0
    rnd = 0
    jitter_rng = _jitter_stream(policy, specs)
    while True:
        rspan_cm = tracer.span("transfer-round", cat="resilience", round=rnd)
        with rspan_cm as rspan:
            prog = FlowProgram(
                comm,
                capacity_fn=round_capacity_fn(T),
                probe=probe,
                t_base=T,
                sdc=sdc,
            )
            carriers = emit_round(prog)
            budget_line = math.inf
            if policy.budget_s is not None and rnd > 0:
                # Retry rounds may not run past the budget: a carrier
                # still in flight at the budget line is cancelled there
                # (round 0 is ungated — the budget bounds *recovery*).
                budget_line = policy.budget_s - T
                for car in carriers:
                    car.deadline = min(car.deadline, budget_line)
            cutoffs = None
            if track_cutoffs:
                cutoffs = {}
                for car in carriers:
                    cutoffs[car.exit_fid] = car.deadline
                    if car.phase1_fid is not None:
                        cutoffs[car.phase1_fid] = car.deadline
            result = yield (prog, round_events(T), cutoffs)
            round_results.append(result)
            telemetry.rounds += 1
            reg.counter("resilience.rounds").inc()

            round_end, failed_by_spec = settle_round(carriers, result, rnd, T, budget_line)
            rspan.set(
                carriers=len(carriers),
                failed=sum(len(v) for v in failed_by_spec.values()),
                t_start=T,
                round_end=T + round_end,
            )
        if tracer.enabled:
            tracer.record(
                f"round{rnd}",
                T,
                T + round_end,
                cat="resilience",
                carriers=len(carriers),
                failed=sum(len(v) for v in failed_by_spec.values()),
            )

        if not failed_by_spec:
            break

        # Recovery gate: exhausted retries abort (no budget) or divert to
        # the final best-effort round (budget set); a retry round that
        # would start past the budget diverts likewise.
        exhausted = [i for i in sorted(failed_by_spec) if retries_left[i] == 0]
        backoff = policy.backoff_base * policy.backoff_multiplier**rnd
        if jitter_rng is not None:
            # Full jitter (AWS style) at backoff_jitter=1: uniform on
            # [0, backoff]; partial jitter keeps a deterministic floor.
            u = float(jitter_rng.uniform(0.0, 1.0))
            backoff *= (1.0 - policy.backoff_jitter) + policy.backoff_jitter * u
        T_next = T + round_end + backoff
        over_budget = policy.budget_s is not None and T_next >= policy.budget_s
        if exhausted and policy.budget_s is None:
            spec = specs[exhausted[0]]
            reg.counter("resilience.aborts").inc()
            raise TransferAbortedError(
                f"transfer ({spec.src}, {spec.dst}) still failing after "
                f"{policy.max_retries} retries; giving up",
                telemetry=telemetry,
            )
        if exhausted or over_budget:
            telemetry.budget_exhausted = True
            reg.counter("resilience.budget_exhausted").inc()
            T_bf = (
                min(T_next, policy.budget_s)
                if policy.budget_s is not None
                else T_next
            )
            be_end = yield from best_effort_round(T_bf, rnd + 1)
            if be_end > 0:
                T, round_end = T_bf, be_end
            # else: no budget left for a final round — the clock stops at
            # the last real round's end, not at a phantom backoff.
            break

        retry_emits: list[Callable[[FlowProgram], list[_Carrier]]] = []
        for idx, failed in sorted(failed_by_spec.items()):
            spec = specs[idx]
            led = ledgers[idx]
            key = (spec.src, spec.dst)
            retries_left[idx] -= 1
            telemetry.failovers += len(failed)
            telemetry.retries += 1
            reg.counter("resilience.failovers").inc(len(failed))
            reg.counter("resilience.retries").inc()
            label = f"retry{rnd + 1}"

            # Extents parked at proxies ride the second hop only —
            # unless that hop is believed dead (probation counts as
            # alive: a flapping link gets re-probed, not abandoned).
            for p in led.holders():
                p2 = system.compute_path(p, spec.dst).links
                verdict = monitor.path_verdict(p2)
                if monitor.proxy_quarantine(p) == QUARANTINED:
                    # A corruption-quarantined holder's buffer cannot be
                    # trusted: abandon the parked copy and re-send those
                    # extents from the source over a clean carrier.
                    led.release_proxy(p)
                elif verdict in (HEALTHY, PROBATION):
                    exts = led.held_extents(p)
                    nb = sum(e.length for e in exts)
                    telemetry.bytes_redriven += nb
                    reg.counter("resilience.bytes_redriven").inc(nb)
                    reg.counter("resilience.extents.redriven").inc(len(exts))
                    retry_emits.append(
                        lambda prog, i=idx, pp=p, ee=tuple(exts), rr=monitor.path_rate(
                            p2
                        ), lb=label: [emit_redrive(prog, i, pp, list(ee), rr, lb)]
                    )
                else:
                    led.release_proxy(p)

            outstanding = led.outstanding_extents()
            if not outstanding:
                continue
            nbytes_out = sum(e.length for e in outstanding)
            telemetry.bytes_resent += nbytes_out
            reg.counter("resilience.bytes_resent").inc(nbytes_out)

            asg = plans[idx].assignment
            d_links = direct_links[key]
            healthy = []
            if asg is not None:
                healthy = [
                    j
                    for j in range(asg.k)
                    if asg.proxies[j] != spec.src
                    and monitor.path_verdict(asg.phase1[j].links + asg.phase2[j].links)
                    == HEALTHY
                    # A corruption-quarantined proxy is never a survivor,
                    # even when its route looks fast — its *buffer* is
                    # the suspect, not its links.
                    and monitor.proxy_quarantine(asg.proxies[j]) != QUARANTINED
                ]
            carriers_nodes = [asg.proxies[j] for j in healthy]
            rates = [
                monitor.path_rate(asg.phase1[j].links + asg.phase2[j].links) / 2
                for j in healthy
            ]

            # Failure-domain-aware top-up: replacements must not share a
            # link with anything believed degraded *or* with a surviving
            # carrier's route.  Only with at least one verified-healthy
            # survivor — with none, nothing is known-good to anchor on
            # and the direct path is the fallback.
            if healthy and len(healthy) < policy.min_healthy_paths:
                bad_links = set(monitor.suspect_links())
                avoid = set(bad_links)
                for j in healthy:
                    avoid.update(asg.phase1[j].links)
                    avoid.update(asg.phase2[j].links)
                avoid_domains: set[int] = set()
                if policy.avoid_failure_domains:
                    from repro.torus.partition import link_failure_domains

                    shape = system.topology.shape
                    for l in bad_links:
                        if monitor.effective_capacity(l) <= 0.0:
                            avoid_domains |= link_failure_domains(l, shape)
                repl = planner.find_replacements(
                    spec.src,
                    spec.dst,
                    policy.min_healthy_paths - len(healthy),
                    exclude=set(asg.proxies) | {spec.src, spec.dst},
                    avoid_links=frozenset(avoid),
                    avoid_domains=frozenset(avoid_domains),
                )
                for j in range(repl.k):
                    carriers_nodes.append(repl.proxies[j])
                    rates.append(
                        monitor.path_rate(
                            repl.phase1[j].links + repl.phase2[j].links
                        )
                        / 2
                    )
                if repl.k:
                    telemetry.replacements += repl.k
                    reg.counter("resilience.replacements").inc(repl.k)

            use_direct = False
            if len(carriers_nodes) >= policy.min_healthy_paths:
                pass  # enough intact disjoint paths: re-split over them
            elif carriers_nodes:
                # Too few survivors for the k/2 law: add the direct path
                # as one more carrier (unless it is believed dead too).
                use_direct = monitor.path_verdict(d_links) != DOWN
            else:
                use_direct = True
                telemetry.degraded_to_direct += 1
                reg.counter("resilience.degraded_to_direct").inc()
            direct_rate = monitor.path_rate(d_links)
            if use_direct:
                carriers_nodes.append(spec.src)
                rates.append(max(direct_rate, STALL_RATE))

            # Whole-extent re-split: contiguous near-equal extent groups,
            # one per carrier — byte counts come from the groups, so the
            # flows stay exactly aligned with the ledger.
            k = min(len(carriers_nodes), len(outstanding))
            groups = group_extents(outstanding, k)
            carriers_nodes = carriers_nodes[: len(groups)]
            rates = rates[: len(groups)]

            if carriers_nodes == [spec.src]:
                retry_emits.append(
                    lambda p, i=idx, n=nbytes_out, r=rates[0], lb=label, ee=tuple(
                        outstanding
                    ): [emit_direct(p, i, n, r, lb, extents=list(ee))]
                )
                continue
            sub_asg = forced_assignment(system, spec.src, spec.dst, carriers_nodes)
            shares = [sum(e.length for e in g) for g in groups]
            # For the deadline math a self-carrier delivers at r (one
            # hop), a proxy at r/2 — emit_carrier_group handles it via
            # the single-stream rate per carrier (2x the delivery rate
            # for two-hop carriers).
            single_rates = [
                2 * r if node != spec.src else r
                for node, r in zip(carriers_nodes, rates)
            ]
            retry_emits.append(
                lambda p, i=idx, a=sub_asg, n=nbytes_out, sh=tuple(shares), sr=tuple(
                    single_rates
                ), gg=tuple(tuple(g) for g in groups), lb=label: emit_carrier_group(
                    p, i, a, n, None, sr, lb, shares=list(sh),
                    groups=[list(g) for g in gg],
                )
            )

        if not retry_emits:
            # Partial credit covered everything the failed carriers owed;
            # nothing is outstanding, so there is no round to run.
            break

        def emit_retries(
            prog: FlowProgram, emits=tuple(retry_emits)
        ) -> list[_Carrier]:
            out = []
            for fn in emits:
                out.extend(fn(prog))
            return out

        emit_round = emit_retries
        rnd += 1
        T = T_next

    # Every ledger must verify exactly-once delivery; a best-effort run
    # reports residue instead of demanding completeness.
    reports: list[LedgerReport] = []
    for idx, led in sorted(ledgers.items()):
        reports.append(
            led.verify(expect_complete=not telemetry.budget_exhausted)
        )
    residue = sum(r.residue_bytes for r in reports)
    delivered = float(sum(r.delivered_bytes for r in reports))
    if residue:
        reg.counter("resilience.residue_bytes").inc(residue)

    total = float(sum(s.nbytes for s in specs))
    return ResilientOutcome(
        makespan=T + round_end,
        total_bytes=total,
        delivered_bytes=delivered,
        mode_used=mode_used,
        telemetry=telemetry,
        plans=plans,
        round_results=round_results,
        ledgers={(s.src, s.dst): ledgers[i] for i, s in enumerate(specs)},
        integrity=reports,
        residue_bytes=int(residue),
        complete=all(r.complete for r in reports),
    )


def run_resilient_transfer(
    system: BGQSystem,
    specs: Sequence[TransferSpec],
    *,
    faults: "FaultModel | None" = None,
    trace: "FaultTrace | None" = None,
    policy: "RetryPolicy | None" = None,
    planner: "ResilientPlanner | None" = None,
    monitor: "HealthMonitor | None" = None,
    sdc: "SDCModel | None" = None,
    probe: "TimeSeriesProbe | None" = None,
) -> ResilientOutcome:
    """Execute transfers with fault detection, failover and retry.

    The serial driver of :func:`_resilient_execution`: each yielded
    round runs through its own ``prog.run`` call.  It is the reference
    the batched :func:`run_resilient_transfer_many` is measured and
    tested against, and the driver that takes a time-series ``probe``.

    Args:
        faults: *known* static faults — the planner routes around them.
        trace: *hidden* ground truth the executor only discovers through
            missed deadlines and observed rates.
        sdc: optional silent-corruption model; supplying one (even a
            null one) turns on end-to-end extent verification — corrupt
            arrivals are credited nothing and re-driven.
        policy: retry/deadline/backoff/budget knobs (default
            :class:`RetryPolicy`).
        planner: a pre-built (possibly pre-warmed) fault-aware planner.
        monitor: a pre-built health monitor (kept across calls to carry
            link beliefs from one transfer wave to the next).
        probe: a :class:`~repro.obs.metrics.TimeSeriesProbe`; each round
            runs with its absolute start time as the probe base, so the
            sampled series is monotone across rounds and backoffs.
    """
    gen = _resilient_execution(
        system, specs, faults=faults, trace=trace, policy=policy,
        planner=planner, monitor=monitor, sdc=sdc, probe=probe,
    )
    result: "FlowSimResult | None" = None
    try:
        while True:
            # Round boundary = natural cancellation yield point (tiny
            # round programs never reach the simulator's own poll).
            check_cancelled()
            prog, events, cutoffs = gen.send(result)
            result = prog.run(events, cutoffs=cutoffs)
    except StopIteration as stop:
        return stop.value


def run_resilient_transfer_many(
    system: BGQSystem,
    spec_sets: "Sequence[Sequence[TransferSpec]]",
    *,
    faults: "Sequence[FaultModel | None] | FaultModel | None" = None,
    traces: "Sequence[FaultTrace | None] | FaultTrace | None" = None,
    policy: "RetryPolicy | None" = None,
    monitors: "Sequence[HealthMonitor | None] | None" = None,
    sdc: "Sequence[SDCModel | None] | SDCModel | None" = None,
    max_proxies: "int | None" = None,
    on_error: str = "raise",
) -> "list[ResilientOutcome]":
    """Execute many *independent* resilient transfers, batching rounds.

    Each element of ``spec_sets`` is one transfer scenario, executed
    with exactly the logic of :func:`run_resilient_transfer` — its own
    ledgers, health monitor, planner, jitter stream and retry state —
    but the per-round flow simulations of all scenarios run together:
    every *wave* gathers each live scenario's next pending round and
    solves them in one block-diagonal
    :meth:`~repro.network.batchsim.BatchFlowSim.simulate_many` pass,
    with that scenario's capacity events and cutoff snapshots applied
    to its own block only.  Scenarios whose state diverges (one retries
    while another is done) simply drop out of later waves; nothing
    forces the survivors serial.  Per-scenario outcomes are
    byte-identical to serial :func:`run_resilient_transfer` calls for
    round programs below the incremental auto-gate (the executor's
    rounds are well under it; asserted by
    ``tests/test_resilience_batched.py``).  Every wave is one
    ``simulate_many`` call: rounds always share bandwidth exactly
    max-min fair, and there is no serial route.

    Args:
        faults / traces: per-scenario sequences aligned with
            ``spec_sets`` (a single instance is shared by all).
        monitors: optional per-scenario pre-built health monitors.
        sdc: optional per-scenario silent-corruption models (a single
            model is shared by all).  Corruption decisions are pure
            functions of the model's seed and extent identity, so the
            batched waves make byte-identical decisions to serial runs.
        max_proxies: upper bound on each scenario's proxy count, handed
            to its fault-aware :class:`ResilientPlanner` (``None``
            leaves the search unbounded).
        on_error: ``"raise"`` propagates the first scenario's
            simulation failure (:class:`TransferAbortedError` etc.);
            ``"capture"`` stores the exception in that scenario's
            outcome slot and lets the rest finish.
    """
    from repro.network.batchsim import BatchFlowSim

    if on_error not in ("raise", "capture"):
        raise ConfigError(
            f"on_error must be 'raise' or 'capture', got {on_error!r}"
        )
    spec_sets = [list(s) for s in spec_sets]
    if not spec_sets:
        return []
    n = len(spec_sets)

    def _aligned(arg, name):
        if arg is None:
            return [None] * n
        if isinstance(arg, (FaultModel, FaultTrace, SDCModel)):
            return [arg] * n
        arg = list(arg)
        if len(arg) != n:
            raise ConfigError(
                f"{name} must align with spec_sets ({len(arg)} != {n})"
            )
        return arg

    faults_l = _aligned(faults, "faults")
    traces_l = _aligned(traces, "traces")
    monitors_l = _aligned(monitors, "monitors")
    sdc_l = _aligned(sdc, "sdc")

    reg = get_registry()
    gens = [
        _resilient_execution(
            system, spec_sets[i], faults=faults_l[i], trace=traces_l[i],
            policy=policy, monitor=monitors_l[i], sdc=sdc_l[i],
            max_proxies=max_proxies,
        )
        for i in range(n)
    ]
    outcomes: "list[ResilientOutcome | Exception | None]" = [None] * n
    # i -> (gen, prog, events, cutoffs): each live scenario's next round.
    pending: "dict[int, tuple]" = {}

    def advance(i: int, gen, payload, *, throw: bool):
        """Feed one simulation result (or error) back into scenario i."""
        try:
            nxt = gen.throw(payload) if throw else gen.send(payload)
        except StopIteration as stop:
            outcomes[i] = stop.value
            pending.pop(i, None)
        except Exception as exc:
            if on_error == "raise":
                raise
            reg.counter("resilience.batch.scenario_errors").inc()
            outcomes[i] = exc
            pending.pop(i, None)
        else:
            pending[i] = (gen, *nxt)

    for i, gen in enumerate(gens):
        advance(i, gen, None, throw=False)

    n_waves = 0
    while pending:
        n_waves += 1
        # Wave boundaries are the campaign's natural yield points: the
        # simulators only poll every ``cancel_every`` lockstep rounds,
        # so small round programs would otherwise outlive a cancelled
        # ambient scope.
        check_cancelled()
        idxs = sorted(pending)
        batch = BatchFlowSim(system.params).simulate_many(
            [
                (pending[i][1].capacity_fn or system.capacity, pending[i][1].columns)
                for i in idxs
            ],
            events=[pending[i][2] for i in idxs],
            cutoffs=[pending[i][3] for i in idxs],
            sdc=[pending[i][1].sdc for i in idxs],
            on_error="capture",
        )
        for i, res in zip(idxs, batch):
            advance(i, pending[i][0], res, throw=isinstance(res, Exception))

    reg.counter("resilience.batch.transfers").inc(n)
    reg.counter("resilience.batch.waves").inc(n_waves)
    return outcomes  # type: ignore[return-value]  # every slot filled
