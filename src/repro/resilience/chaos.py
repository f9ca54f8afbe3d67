"""Chaos-campaign harness: seeded fault sweeps with verified invariants.

A **campaign** drives :func:`~repro.resilience.executor.run_resilient_transfer`
through a grid of ``scenario × geometry × seed`` cells.  Each cell
builds a hidden :class:`~repro.machine.faults.FaultTrace` from the
*actual* routes the planner chose (faults far from any route exercise
nothing), runs the transfer, and checks machine-verifiable invariants:

``ledger-exactly-once``
    every :class:`~repro.resilience.ledger.TransferLedger` verifies with
    no duplicate extent deliveries (and no gaps unless the run was
    budget-capped);
``byte-conservation``
    delivered + residue == requested, per transfer and in total;
``goodput-floor``
    a *completed* run's throughput stays above a configured fraction of
    the fault-free baseline (catches silent stalls);
``retries-bounded``
    retry rounds never exceed the policy's ``max_retries`` per transfer;
``budget-respected``
    no recovery activity past ``budget_s`` (round 0 is ungated — the
    budget bounds recovery, so the allowed horizon is the later of the
    budget and round 0's last deadline);
``metrics-monotone``
    every ``resilience.*``/simulator counter is monotone across the run
    (see :func:`repro.obs.metrics.counter_violations`).

Scenario kinds (:data:`SCENARIO_KINDS`):

* ``hard-down`` — one or two carrier routes go to zero mid-transfer;
* ``correlated-dim`` — every route link along one torus dimension fails
  together (a midplane-style correlated failure);
* ``flapping`` — one route's links oscillate down/up, exercising the
  health monitor's probation (half-open) re-probing;
* ``brownout`` — a window of deep capacity degradation over several
  routes, no hard failure;
* ``retry-storm`` — a second wave of failures lands *during* recovery,
  hitting the retry round mid-flight;
* ``silent-corruption`` — non-fail-stop: route links flip bits in
  transit (plus stale replays of delivered extents); nothing slows
  down, only end-to-end extent verification can notice;
* ``corrupting-proxy`` — a store-and-forward proxy's staging buffer
  corrupts everything it relays, driving strike accumulation into
  corruption quarantine and re-planning around the poisoned node.

Corruption cells additionally verify ``no-corrupt-acked`` (zero bytes
whose recorded arrival checksum mismatches the sealed truth were ever
credited) and — when the model makes a hit certain —
``corruption-detected``.

Geometries (:data:`GEOMETRIES`): ``p2p`` (one pair), ``group`` (three
disjoint pairs), ``fanin`` (three sources, one destination — the
aggregation-shaped case).

The report is plain JSON (schema ``chaos-campaign/1``) so CI can archive
it and :mod:`benchmarks.record` can consume it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core.multipath import TransferSpec, run_transfer_many
from repro.machine import mira_system
from repro.machine.faults import FaultEvent, FaultTrace, SDCModel
from repro.machine.system import BGQSystem
from repro.obs.metrics import counter_violations, get_registry
from repro.resilience.executor import (
    ResilientOutcome,
    RetryPolicy,
    TransferAbortedError,
    run_resilient_transfer,
)
from repro.resilience.health import HealthMonitor
from repro.resilience.ledger import IntegrityError
from repro.resilience.planner import ResilientPlanner
from repro.torus.links import link_id_parts
from repro.util.validation import ConfigError

#: Scenario kinds a campaign can sweep.
SCENARIO_KINDS = (
    "hard-down",
    "correlated-dim",
    "flapping",
    "brownout",
    "retry-storm",
    "silent-corruption",
    "corrupting-proxy",
)

#: One-line operator summaries (``repro chaos --list-campaigns``).
SCENARIO_SUMMARIES = {
    "hard-down": "one or two carrier routes go to zero mid-transfer",
    "correlated-dim": "every route link along one torus dimension fails together",
    "flapping": "route links oscillate down/up, exercising probation re-probes",
    "brownout": "deep capacity degradation window, no hard failure",
    "retry-storm": "a second failure wave lands during recovery itself",
    "silent-corruption": (
        "non-fail-stop: links flip bits in transit (+ stale replays); "
        "only end-to-end verification can notice"
    ),
    "corrupting-proxy": (
        "a store-and-forward proxy corrupts everything it relays, "
        "driving corruption quarantine and re-planning"
    ),
}

#: Transfer geometries a campaign can sweep.
GEOMETRIES = ("p2p", "group", "fanin")

_MiB = 1 << 20


@dataclass(frozen=True)
class ChaosScenario:
    """One generated fault schedule, tied to the routes it targets.

    ``sdc`` is the silent-corruption model of non-fail-stop cells
    (``None`` for timing-fault cells); ``expect_detection`` is True
    when the model *guarantees* at least one corrupt arrival in round 0
    (rate-1.0 fault on a round-0 carrier), making
    ``corruption-detected`` machine-checkable rather than
    probabilistic.
    """

    kind: str
    geometry: str
    seed: int
    trace: FaultTrace
    description: str
    sdc: "SDCModel | None" = None
    expect_detection: bool = False


@dataclass
class ChaosRun:
    """Outcome and invariant verdicts of one campaign cell."""

    scenario: str
    geometry: str
    seed: int
    passed: bool
    invariants: dict[str, bool]
    failures: list[str]
    makespan: float = 0.0
    total_bytes: float = 0.0
    delivered_bytes: float = 0.0
    residue_bytes: int = 0
    goodput: float = 0.0
    rounds: int = 0
    retries: int = 0
    failovers: int = 0
    bytes_resent: int = 0
    bytes_redriven: int = 0
    partial_credit_bytes: int = 0
    replacements: int = 0
    degraded_to_direct: int = 0
    budget_exhausted: bool = False
    corrupt_extents_detected: int = 0
    corrupt_bytes_redriven: int = 0
    stale_drops: int = 0
    corrupted_acknowledged_bytes: int = 0
    quarantined_links: int = 0
    quarantined_proxies: int = 0
    error: "str | None" = None

    def to_dict(self) -> dict:
        """JSON-ready record of this run for the campaign report."""
        return {
            "scenario": self.scenario,
            "geometry": self.geometry,
            "seed": self.seed,
            "passed": self.passed,
            "invariants": dict(self.invariants),
            "failures": list(self.failures),
            "makespan_s": self.makespan,
            "total_bytes": self.total_bytes,
            "delivered_bytes": self.delivered_bytes,
            "residue_bytes": self.residue_bytes,
            "goodput_Bps": self.goodput,
            "rounds": self.rounds,
            "retries": self.retries,
            "failovers": self.failovers,
            "bytes_resent": self.bytes_resent,
            "bytes_redriven": self.bytes_redriven,
            "partial_credit_bytes": self.partial_credit_bytes,
            "replacements": self.replacements,
            "degraded_to_direct": self.degraded_to_direct,
            "budget_exhausted": self.budget_exhausted,
            "corrupt_extents_detected": self.corrupt_extents_detected,
            "corrupt_bytes_redriven": self.corrupt_bytes_redriven,
            "stale_drops": self.stale_drops,
            "corrupted_acknowledged_bytes": self.corrupted_acknowledged_bytes,
            "quarantined_links": self.quarantined_links,
            "quarantined_proxies": self.quarantined_proxies,
            "error": self.error,
        }


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one chaos campaign.

    ``budget_s`` is deliberately non-``None`` by default: a campaign
    must *always* come back with a report, so scenarios that kill every
    route degrade to a budget-capped best-effort run instead of
    raising.  ``goodput_floor`` is a fraction of each geometry's
    fault-free throughput.
    """

    nnodes: int = 128
    nbytes: int = 8 * _MiB
    seeds: tuple[int, ...] = (0,)
    scenarios: tuple[str, ...] = SCENARIO_KINDS
    geometries: tuple[str, ...] = GEOMETRIES
    max_retries: int = 3
    budget_s: float = 0.5
    reprobe_interval: float = 0.005
    avoid_failure_domains: bool = True
    goodput_floor: float = 0.02

    def __post_init__(self):
        bad = [s for s in self.scenarios if s not in SCENARIO_KINDS]
        if bad:
            raise ConfigError(f"unknown scenario kinds: {bad}")
        bad = [g for g in self.geometries if g not in GEOMETRIES]
        if bad:
            raise ConfigError(f"unknown geometries: {bad}")
        if self.nbytes < 1:
            raise ConfigError(f"nbytes must be >= 1, got {self.nbytes}")
        if self.budget_s <= 0:
            raise ConfigError(f"budget_s must be > 0, got {self.budget_s}")
        if not 0 <= self.goodput_floor < 1:
            raise ConfigError(
                f"goodput_floor must be in [0, 1), got {self.goodput_floor}"
            )

    def policy(self) -> RetryPolicy:
        """The :class:`RetryPolicy` every campaign run executes under."""
        return RetryPolicy(
            max_retries=self.max_retries,
            budget_s=self.budget_s,
            reprobe_interval=self.reprobe_interval,
            avoid_failure_domains=self.avoid_failure_domains,
        )


def geometry_specs(
    system: BGQSystem, geometry: str, nbytes: int
) -> list[TransferSpec]:
    """The transfer set of one geometry, scaled to the machine size."""
    n = system.nnodes
    far = n // 2 + n // 8 + 1  # off-axis: routes cross several dimensions
    if geometry == "p2p":
        pairs = [(0, far % n)]
    elif geometry == "group":
        pairs = [(0, far % n), (5, (far + 9) % n), (9, (far + 19) % n)]
    elif geometry == "fanin":
        dst = far % n
        pairs = [(0, dst), (5, dst), (9, dst)]
    else:
        raise ConfigError(f"unknown geometry {geometry!r}")
    pairs = [(s, d) for s, d in pairs if s != d]
    return [TransferSpec(src=s, dst=d, nbytes=nbytes) for s, d in pairs]


def _route_links(system: BGQSystem, plans) -> list[tuple[int, ...]]:
    """Per-carrier route link tuples of a fault-free plan (plus the
    direct path of every pair — retry traffic may use it)."""
    routes: list[tuple[int, ...]] = []
    for plan in plans:
        spec = plan.spec
        if plan.strategy == "proxy":
            asg = plan.assignment
            for j in range(asg.k):
                routes.append(asg.phase1[j].links + asg.phase2[j].links)
        routes.append(system.compute_path(spec.src, spec.dst).links)
    return routes


def build_scenario(
    kind: str,
    system: BGQSystem,
    plans,
    *,
    geometry: str,
    seed: int,
    rng: "random.Random | None" = None,
) -> ChaosScenario:
    """Generate one seeded fault schedule targeting the plan's routes."""
    if rng is None:
        rng = random.Random(f"{kind}:{geometry}:{seed}")
    routes = _route_links(system, plans)
    if not routes:
        raise ConfigError("plans yielded no routes to fault")
    events: list[FaultEvent] = []
    sdc: "SDCModel | None" = None
    expect_detection = False

    def round0_routes() -> list[tuple[int, ...]]:
        """Routes that carry round-0 traffic (unlike ``routes``, this
        excludes the direct path of proxy-planned pairs — a rate-1.0
        fault must hit a route that actually runs to guarantee a
        detection)."""
        out: list[tuple[int, ...]] = []
        for plan in plans:
            if plan.strategy == "proxy":
                a = plan.assignment
                out.extend(
                    a.phase1[j].links + a.phase2[j].links for j in range(a.k)
                )
            else:
                out.append(
                    system.compute_path(plan.spec.src, plan.spec.dst).links
                )
        return out

    def kill(links, *, start, end=float("inf"), factor=0.0):
        for l in sorted(set(links)):
            events.append(FaultEvent(link=l, factor=factor, start=start, end=end))

    if kind == "hard-down":
        nroutes = min(len(routes), rng.choice((1, 2)))
        t0 = rng.uniform(0.002, 0.005)
        for r in rng.sample(routes, nroutes):
            kill(r, start=t0)
        desc = f"{nroutes} route(s) hard down at t={t0:.4f}"
    elif kind == "correlated-dim":
        ndims = system.topology.ndims
        all_links = sorted({l for r in routes for l in r})
        dims = sorted({link_id_parts(l, ndims)[1] for l in all_links})
        dim = rng.choice(dims)
        sel = [l for l in all_links if link_id_parts(l, ndims)[1] == dim]
        t0 = rng.uniform(0.002, 0.005)
        kill(sel, start=t0)
        desc = f"all dim-{dim} route links ({len(sel)}) down at t={t0:.4f}"
    elif kind == "flapping":
        route = rng.choice(routes)
        period = rng.uniform(0.006, 0.012)
        duty = period * rng.uniform(0.4, 0.7)
        t0 = rng.uniform(0.001, 0.003)
        for i in range(6):
            kill(route, start=t0 + i * period, end=t0 + i * period + duty)
        desc = f"one route flapping: {duty:.4f}s down every {period:.4f}s"
    elif kind == "brownout":
        nroutes = max(1, len(routes) // 2)
        factor = rng.uniform(0.1, 0.3)
        t0 = rng.uniform(0.001, 0.003)
        t1 = t0 + rng.uniform(0.02, 0.06)
        for r in rng.sample(routes, nroutes):
            kill(r, start=t0, end=t1, factor=factor)
        desc = f"{nroutes} route(s) at {factor:.2f}x for [{t0:.4f}, {t1:.4f})"
    elif kind == "retry-storm":
        # First wave mid-transfer, second wave timed to land during the
        # recovery round, third wave browns out whatever is left.
        order = rng.sample(routes, len(routes))
        t0 = rng.uniform(0.002, 0.004)
        kill(order[0], start=t0)
        if len(order) > 1:
            kill(order[1], start=t0 + rng.uniform(0.008, 0.015))
        if len(order) > 2:
            kill(
                order[2],
                start=t0 + rng.uniform(0.015, 0.025),
                end=t0 + 0.08,
                factor=rng.uniform(0.05, 0.2),
            )
        desc = f"cascading failures starting t={t0:.4f}"
    elif kind == "silent-corruption":
        # Non-fail-stop: nothing slows down, links flip bits in
        # transit.  One round-0 carrier link flips at rate 1.0 so a
        # detection is *certain* (the invariant is machine-checkable),
        # a few more route links flip probabilistically, and delivered
        # extents see stale replays the receiver must drop.
        r0 = round0_routes()
        anchor = rng.choice(r0)
        flips = {anchor[0]: 1.0}
        others = sorted({l for r in r0 for l in r} - set(flips))
        for l in rng.sample(others, min(3, len(others))):
            flips[l] = round(rng.uniform(0.2, 0.6), 3)
        sdc = SDCModel(flip_links=flips, stale_rate=0.2, seed=seed)
        expect_detection = True
        desc = (
            f"wire bit-flips on {len(flips)} route links (link {anchor[0]} "
            f"at rate 1.0) + stale replays at 0.2"
        )
    elif kind == "corrupting-proxy":
        # A store-and-forward staging buffer poisons everything it
        # relays: strikes accumulate into corruption quarantine and the
        # retry machinery re-plans around the node.
        proxy_asgs = [p.assignment for p in plans if p.strategy == "proxy"]
        if proxy_asgs:
            a = rng.choice(proxy_asgs)
            rates = {a.proxies[0]: 1.0}
            if a.k > 1 and rng.random() < 0.5:
                rates[a.proxies[1]] = round(rng.uniform(0.5, 0.9), 3)
            sdc = SDCModel(corrupt_proxies=rates, seed=seed)
            desc = f"corrupting proxy buffer(s) {rates}"
        else:
            # Every pair went direct — no staging buffer exists, so the
            # nearest equivalent is a certain wire flip on that path.
            d = round0_routes()[0]
            sdc = SDCModel(flip_links={d[0]: 1.0}, seed=seed)
            desc = "no proxy plan; direct-route wire flip at rate 1.0"
        expect_detection = True
    else:
        raise ConfigError(f"unknown scenario kind {kind!r}")

    return ChaosScenario(
        kind=kind,
        geometry=geometry,
        seed=seed,
        trace=FaultTrace(events=tuple(events)),
        description=desc,
        sdc=sdc,
        expect_detection=expect_detection,
    )


def _check_invariants(
    outcome: ResilientOutcome,
    *,
    n_specs: int,
    policy: RetryPolicy,
    baseline_tp: float,
    goodput_floor: float,
    counters_before: dict,
    counters_after: dict,
    expect_detection: bool = False,
) -> tuple[dict[str, bool], list[str]]:
    inv: dict[str, bool] = {}
    failures: list[str] = []

    def check(name: str, ok: bool, detail: str = ""):
        inv[name] = bool(ok)
        if not ok:
            failures.append(f"{name}: {detail}" if detail else name)

    dupes = [r.duplicates for r in outcome.integrity if r.duplicates]
    check("ledger-exactly-once", not dupes, f"duplicate extents {dupes}")

    conserved = all(
        r.delivered_bytes + r.residue_bytes == r.total_bytes
        for r in outcome.integrity
    ) and (
        outcome.delivered_bytes + outcome.residue_bytes == outcome.total_bytes
    )
    check(
        "byte-conservation",
        conserved,
        f"delivered {outcome.delivered_bytes} + residue "
        f"{outcome.residue_bytes} != total {outcome.total_bytes}",
    )

    check(
        "complete-or-budgeted",
        outcome.complete or outcome.telemetry.budget_exhausted,
        "incomplete without budget exhaustion",
    )

    if outcome.complete:
        floor = goodput_floor * baseline_tp
        check(
            "goodput-floor",
            outcome.throughput >= floor,
            f"{outcome.throughput:.3g} B/s < floor {floor:.3g} B/s",
        )
    else:
        inv["goodput-floor"] = True  # residue reported; floor not owed

    check(
        "retries-bounded",
        outcome.telemetry.retries <= policy.max_retries * n_specs,
        f"{outcome.telemetry.retries} retries > "
        f"{policy.max_retries} x {n_specs} transfers",
    )

    if policy.budget_s is not None:
        # Round 0 is ungated, so the horizon is the later of the budget
        # and round 0's last deadline (plus fluid-model slack).
        r0_deadline = max(
            (a.deadline for a in outcome.telemetry.attempts if a.round == 0),
            default=0.0,
        )
        horizon = max(policy.budget_s, r0_deadline) * (1 + 1e-9) + 1e-9
        check(
            "budget-respected",
            outcome.makespan <= horizon,
            f"makespan {outcome.makespan:.4f}s past horizon {horizon:.4f}s",
        )
    else:
        inv["budget-respected"] = True

    bad = counter_violations(counters_before, counters_after)
    check("metrics-monotone", not bad, f"counters went backwards: {bad}")

    check(
        "no-corrupt-acked",
        outcome.corrupted_acknowledged_bytes == 0,
        f"{outcome.corrupted_acknowledged_bytes} corrupted bytes were "
        f"credited as delivered",
    )
    if expect_detection:
        check(
            "corruption-detected",
            outcome.telemetry.corrupt_extents_detected > 0,
            "a rate-1.0 corruption fault produced no detection",
        )
    else:
        inv["corruption-detected"] = True  # nothing certain to detect

    return inv, failures


def run_campaign(config: "CampaignConfig | None" = None) -> dict:
    """Run the full scenario × geometry × seed grid; returns the report.

    The report is JSON-ready (schema ``chaos-campaign/1``); ``passed``
    is True only when every cell satisfied every invariant.
    """
    config = config or CampaignConfig()
    t_wall = time.perf_counter()
    system = mira_system(nnodes=config.nnodes)
    policy = config.policy()
    reg = get_registry()

    # Fault-free baselines per geometry anchor the goodput floor (and
    # double as a sanity run of each geometry through the executor).
    baselines: dict[str, float] = {}
    for geometry in config.geometries:
        specs = geometry_specs(system, geometry, config.nbytes)
        base = run_resilient_transfer(system, specs)
        base_rep = base.integrity
        if not base.complete or any(r.duplicates for r in base_rep):
            raise IntegrityError(
                f"fault-free baseline for {geometry!r} failed its own ledger",
                kind="gap",
                extent_ids=(),
            )
        baselines[geometry] = base.throughput

    # One batched fault-free pass over the whole geometry grid: the
    # *ideal* transfer throughput per geometry (raw multipath flows, no
    # executor rounds/chunking), simulated together through
    # :class:`~repro.network.batchsim.BatchFlowSim`.  Reported next to
    # the executor baselines so a cell's goodput can be read against
    # both the executor's fault-free floor and the physics ceiling.
    ideal_outs = run_transfer_many(
        system,
        [geometry_specs(system, g, config.nbytes) for g in config.geometries],
    )
    ideal = {
        g: out.throughput for g, out in zip(config.geometries, ideal_outs)
    }

    runs: list[ChaosRun] = []
    for seed in config.seeds:
        for geometry in config.geometries:
            specs = geometry_specs(system, geometry, config.nbytes)
            plans = ResilientPlanner(system).plan(specs)
            for kind in config.scenarios:
                scenario = build_scenario(
                    kind, system, plans, geometry=geometry, seed=seed
                )
                before = dict(reg.snapshot()["counters"])
                error = None
                outcome = None
                # Corruption cells get their own monitor so the report
                # can read quarantine state back out; timing cells keep
                # the executor's default construction, byte-identical.
                mon = None
                if scenario.sdc is not None:
                    mon = HealthMonitor(
                        system,
                        reprobe_interval=policy.reprobe_interval,
                    )
                try:
                    outcome = run_resilient_transfer(
                        system, specs, trace=scenario.trace, policy=policy,
                        sdc=scenario.sdc, monitor=mon,
                    )
                except (IntegrityError, TransferAbortedError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                after = dict(reg.snapshot()["counters"])

                if outcome is None:
                    runs.append(
                        ChaosRun(
                            scenario=kind,
                            geometry=geometry,
                            seed=seed,
                            passed=False,
                            invariants={},
                            failures=[error or "executor raised"],
                            error=error,
                        )
                    )
                    continue

                inv, failures = _check_invariants(
                    outcome,
                    n_specs=len(specs),
                    policy=policy,
                    baseline_tp=baselines[geometry],
                    goodput_floor=config.goodput_floor,
                    counters_before=before,
                    counters_after=after,
                    expect_detection=scenario.expect_detection,
                )
                t = outcome.telemetry
                runs.append(
                    ChaosRun(
                        scenario=kind,
                        geometry=geometry,
                        seed=seed,
                        passed=not failures,
                        invariants=inv,
                        failures=failures,
                        makespan=outcome.makespan,
                        total_bytes=outcome.total_bytes,
                        delivered_bytes=outcome.delivered_bytes,
                        residue_bytes=outcome.residue_bytes,
                        goodput=(
                            outcome.delivered_bytes / outcome.makespan
                            if outcome.makespan > 0
                            else 0.0
                        ),
                        rounds=t.rounds,
                        retries=t.retries,
                        failovers=t.failovers,
                        bytes_resent=t.bytes_resent,
                        bytes_redriven=t.bytes_redriven,
                        partial_credit_bytes=t.partial_credit_bytes,
                        replacements=t.replacements,
                        degraded_to_direct=t.degraded_to_direct,
                        budget_exhausted=t.budget_exhausted,
                        corrupt_extents_detected=t.corrupt_extents_detected,
                        corrupt_bytes_redriven=t.corrupt_bytes_redriven,
                        stale_drops=t.stale_drops,
                        corrupted_acknowledged_bytes=(
                            outcome.corrupted_acknowledged_bytes
                        ),
                        quarantined_links=(
                            len(mon.quarantined_links()) if mon else 0
                        ),
                        quarantined_proxies=(
                            len(mon.quarantined_proxies()) if mon else 0
                        ),
                    )
                )

    n_passed = sum(1 for r in runs if r.passed)
    return {
        "schema": "chaos-campaign/1",
        "config": {
            "nnodes": config.nnodes,
            "nbytes": config.nbytes,
            "seeds": list(config.seeds),
            "scenarios": list(config.scenarios),
            "geometries": list(config.geometries),
            "max_retries": config.max_retries,
            "budget_s": config.budget_s,
            "reprobe_interval": config.reprobe_interval,
            "avoid_failure_domains": config.avoid_failure_domains,
            "goodput_floor": config.goodput_floor,
        },
        "baseline_throughput_Bps": baselines,
        "transfer_ideal_throughput_Bps": ideal,
        "runs": [r.to_dict() for r in runs],
        "n_runs": len(runs),
        "n_passed": n_passed,
        "passed": n_passed == len(runs),
        "wall_time_s": time.perf_counter() - t_wall,
    }
