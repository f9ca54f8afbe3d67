"""Multipath data movement — Algorithm 1's *Multipath Data Movement* part.

Phase 1 moves each source's data, split near-equally, to its proxies;
phase 2 moves it from the proxies to the destination.  Phases are
store-and-forward (a proxy forwards only once its share fully arrived),
matching the paper's model — pipelining is listed as future work there
and implemented here as an optional extension
(:mod:`repro.core.pipeline`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from repro.core.model import TransferModel
from repro.core.proxy_select import ProxyAssignment, ProxyPlan, find_proxies
from repro.machine.system import BGQSystem
from repro.mpi.comm import SimComm
from repro.mpi.program import FlowProgram, run_programs
from repro.network.flow import FlowId
from repro.network.flowsim import FlowSimResult
from repro.obs.metrics import TimeSeriesProbe, get_registry
from repro.obs.trace import get_tracer
from repro.util.validation import ConfigError


@dataclass(frozen=True)
class TransferSpec:
    """One data movement request between compute nodes."""

    src: int
    dst: int
    nbytes: int

    def __post_init__(self):
        if self.src == self.dst:
            raise ConfigError("src and dst must differ")
        if self.nbytes <= 0:
            raise ConfigError(f"nbytes must be > 0, got {self.nbytes}")


@dataclass
class TransferOutcome:
    """Measured result of a set of transfers.

    Attributes:
        makespan: completion time of the slowest transfer [s].
        total_bytes: payload moved.
        mode_used: per-(src, dst) record: ``"direct"`` or ``"proxy:k"``.
        result: the raw flow-level results.
        plan: the proxy plan, when one was computed.
    """

    makespan: float
    total_bytes: float
    mode_used: dict[tuple[int, int], str]
    result: FlowSimResult
    plan: "ProxyPlan | None" = None

    @property
    def throughput(self) -> float:
        """Total bytes over makespan — the paper's "total throughput"."""
        return self.total_bytes / self.makespan if self.makespan > 0 else float("inf")


def split_bytes(nbytes: int, k: int) -> list[int]:
    """Near-equal integer split of ``nbytes`` into ``k`` positive parts.

    The first ``nbytes % k`` parts get one extra byte.  Requires
    ``nbytes >= k`` so no carrier is idle.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if nbytes < k:
        raise ConfigError(f"cannot split {nbytes} bytes into {k} positive parts")
    base, extra = divmod(nbytes, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def weighted_split(nbytes: int, weights: Sequence[float]) -> list[int]:
    """Split ``nbytes`` proportionally to ``weights`` (each part >= 1).

    Used for capacity-aware multipath on degraded machines: a path
    through a slow link gets a proportionally smaller share so all paths
    finish together instead of the slowest gating the transfer.
    """
    weights = [float(w) for w in weights]
    if not weights:
        raise ConfigError("weights must be non-empty")
    if any(w <= 0 for w in weights):
        raise ConfigError("weights must be positive")
    if nbytes < len(weights):
        raise ConfigError(
            f"cannot split {nbytes} bytes into {len(weights)} positive parts"
        )
    total_w = sum(weights)
    shares = [max(1, int(nbytes * w / total_w)) for w in weights]
    # Fix rounding drift on the largest share.
    drift = nbytes - sum(shares)
    shares[shares.index(max(shares))] += drift
    if min(shares) < 1:
        raise ConfigError("weights too skewed for this message size")
    return shares


def path_rate_weights(
    assignment: ProxyAssignment,
    capacity_fn,
    stream_cap: float,
) -> list[float]:
    """Achievable-rate weight per carrier: the bottleneck capacity over
    its two-hop route, clipped at the single-stream ceiling.

    Pass ``system.capacity`` for a healthy machine (all weights equal)
    or a :func:`repro.machine.faults.degraded_system_capacity` wrapper
    to adapt the split to degraded links.
    """
    weights = []
    for p1, p2 in zip(assignment.phase1, assignment.phase2):
        links = list(p1.links) + list(p2.links)
        bottleneck = min((capacity_fn(l) for l in links), default=stream_cap)
        weights.append(min(bottleneck, stream_cap))
    return weights


def build_direct_flows(
    prog: FlowProgram,
    spec: TransferSpec,
    *,
    label: str = "direct",
) -> FlowId:
    """Emit a single-path (default-routing) transfer; returns its flow id."""
    return prog.iput_nodes(spec.src, spec.dst, spec.nbytes, label=label, tag=(spec.src, spec.dst))


class CarrierEmission(NamedTuple):
    """Bookkeeping for one emitted carrier of a multipath transfer (a
    named tuple: one is built per carrier of every proxied transfer).

    ``phase1`` is ``None`` for a self-carrier (the source sends its share
    on the direct path, no store-and-forward hop); ``exit`` is the flow
    whose completion delivers the share at the destination.
    """

    proxy: int
    share: int
    phase1: "FlowId | None"
    exit: FlowId


def build_multipath_flows_detailed(
    prog: FlowProgram,
    spec: TransferSpec,
    assignment: ProxyAssignment,
    *,
    weights: "Sequence[float] | None" = None,
    shares: "Sequence[int] | None" = None,
    label: str = "mpath",
) -> tuple[FlowId, list[CarrierEmission]]:
    """Emit the two-phase multipath transfer; returns the join event id
    plus per-carrier flow ids (the resilience executor tracks each
    carrier's deadline individually).

    Self-carriers (``proxy == src``) are direct single-hop shares — how
    forced plans model the paper's "source as 5th proxy" configuration.
    ``weights`` switches from the paper's equal split to a proportional
    one (see :func:`weighted_split` / :func:`path_rate_weights`);
    ``shares`` pins each carrier's byte count exactly (the resilience
    executor re-drives *extent groups* whose sizes are fixed by the
    ledger, so a rounded re-split would corrupt the accounting).
    """
    if (assignment.source, assignment.dest) != (spec.src, spec.dst):
        raise ConfigError("assignment endpoints do not match the transfer spec")
    if assignment.k < 1:
        raise ConfigError("assignment has no carriers")
    if shares is not None:
        if weights is not None:
            raise ConfigError("pass weights or shares, not both")
        if len(shares) != assignment.k:
            raise ConfigError("one share per carrier required")
        if any(s < 1 for s in shares):
            raise ConfigError("explicit shares must be >= 1 byte")
        if sum(shares) != spec.nbytes:
            raise ConfigError(
                f"explicit shares sum to {sum(shares)}, spec moves {spec.nbytes}"
            )
        shares = [int(s) for s in shares]
    elif weights is not None:
        if len(weights) != assignment.k:
            raise ConfigError("one weight per carrier required")
        shares = weighted_split(spec.nbytes, weights)
    else:
        shares = split_bytes(spec.nbytes, assignment.k)
    carriers: list[CarrierEmission] = []
    for share, proxy in zip(shares, assignment.proxies):
        if proxy == spec.src:
            fid = prog.iput_nodes(
                spec.src, spec.dst, share, label=f"{label}-self", tag=(spec.src, spec.dst)
            )
            carriers.append(
                CarrierEmission(proxy=proxy, share=share, phase1=None, exit=fid)
            )
            continue
        f1 = prog.iput_nodes(
            spec.src, proxy, share, label=f"{label}-p1", tag=(spec.src, spec.dst)
        )
        f2 = prog.iput_nodes(
            proxy,
            spec.dst,
            share,
            after=(f1,),
            relay=True,
            label=f"{label}-p2",
            tag=(spec.src, spec.dst),
        )
        carriers.append(
            CarrierEmission(proxy=proxy, share=share, phase1=f1, exit=f2)
        )
    done = prog.event([c.exit for c in carriers], label=f"{label}-done")
    return done, carriers


def build_multipath_flows(
    prog: FlowProgram,
    spec: TransferSpec,
    assignment: ProxyAssignment,
    *,
    weights: "Sequence[float] | None" = None,
    label: str = "mpath",
) -> FlowId:
    """Emit the two-phase multipath transfer; returns the join event id."""
    done, _ = build_multipath_flows_detailed(
        prog, spec, assignment, weights=weights, label=label
    )
    return done


def emit_transfer_set(
    prog: FlowProgram,
    specs: Sequence[TransferSpec],
    assignments: "Mapping[tuple[int, int], ProxyAssignment] | None",
    mode: str,
    min_proxies: int,
    model: TransferModel,
) -> "dict[tuple[int, int], str]":
    """Emit a whole transfer set per the mode policy; returns each pair's
    mode tag (``"direct"`` or ``"proxy:k"``).

    A spec goes through its proxies (equal :func:`split_bytes` shares)
    when it has an assignment with at least ``min_proxies`` carriers —
    in ``"auto"`` mode also only above Algorithm 1's size gate — and at
    least one byte per carrier; otherwise it goes direct.  Each spec is
    emitted by :func:`build_multipath_flows_detailed` or
    :func:`build_direct_flows`.
    """
    mode_used: "dict[tuple[int, int], str]" = {}
    for spec in specs:
        key = (spec.src, spec.dst)
        asg = assignments.get(key) if assignments else None
        if mode == "direct" or asg is None or asg.k < 1:
            use_proxy = False
        elif mode == "proxy":
            use_proxy = asg.k >= min_proxies
        else:  # auto: Algorithm 1's size gate
            use_proxy = asg.k >= min_proxies and model.use_proxies(spec.nbytes, asg.k)
        if use_proxy and spec.nbytes < asg.k:
            use_proxy = False  # degenerate tiny message
        if use_proxy:
            build_multipath_flows_detailed(prog, spec, asg)
            mode_used[key] = f"proxy:{asg.k}"
        else:
            build_direct_flows(prog, spec)
            mode_used[key] = "direct"
    return mode_used


def run_transfer(
    system: BGQSystem,
    specs: Sequence[TransferSpec],
    *,
    mode: str = "auto",
    assignments: "Mapping[tuple[int, int], ProxyAssignment] | None" = None,
    max_proxies: "int | None" = None,
    min_proxies: int = TransferModel.MIN_BENEFICIAL_PROXIES,
    max_offset: int = 3,
    capacity_fn=None,
    events=None,
    probe: "TimeSeriesProbe | None" = None,
) -> TransferOutcome:
    """Execute a set of transfers and measure throughput.

    A batch of one: the set is planned, emitted and simulated exactly as
    one scenario of :func:`run_transfer_many`, and runs alone on the
    solo engine (see :func:`repro.mpi.program.run_programs`).

    Args:
        mode: ``"direct"`` (single deterministic path — the baseline),
            ``"proxy"`` (always use proxies when at least ``min_proxies``
            exist), or ``"auto"`` (use proxies only above the model
            threshold — the full Algorithm 1 including its size check).
        assignments: pre-built (possibly forced) proxy assignments; when
            given, the search is skipped.
        capacity_fn: override link capacities (e.g. a degraded machine
            via :func:`repro.machine.faults.degraded_system_capacity`) —
            planning stays fault-blind, only the physics change.
        events: mid-run :class:`~repro.network.flowsim.CapacityEvent`
            interrupts (e.g. a fault trace's boundaries) — a flow caught
            on a link that drops to zero raises
            :class:`~repro.util.validation.LinkDownError`.
        probe: a :class:`~repro.obs.metrics.TimeSeriesProbe` sampling
            per-link utilisation inside the simulator's event loop.
    """
    specs = list(specs)
    total = float(sum(s.nbytes for s in specs))
    with get_tracer().span(
        "transfer", cat="transfer", mode=mode, n_specs=len(specs), total_bytes=total
    ) as span:
        (out,) = _run_transfer_sets(
            system, [specs], mode=mode, assignments=[assignments],
            max_proxies=max_proxies, min_proxies=min_proxies,
            max_offset=max_offset, capacity_fn=capacity_fn, events=[events],
            probe=probe, on_error="raise",
        )
        span.set(makespan=out.makespan, n_flows=len(out.result))
    return out


def run_transfer_many(
    system: BGQSystem,
    spec_sets: "Sequence[Sequence[TransferSpec]]",
    *,
    mode: str = "auto",
    assignments: (
        "Sequence[Mapping[tuple[int, int], ProxyAssignment] | None] | None"
    ) = None,
    max_proxies: "int | None" = None,
    min_proxies: int = TransferModel.MIN_BENEFICIAL_PROXIES,
    max_offset: int = 3,
    capacity_fn=None,
    events: "Sequence[Sequence | None] | None" = None,
    on_error: str = "raise",
) -> list[TransferOutcome]:
    """Execute many *independent* transfer scenarios in one pass.

    Each element of ``spec_sets`` is one scenario — the specs
    :func:`run_transfer` would receive, planned and emitted as it would
    plan and emit them.  :func:`repro.mpi.program.run_programs` then
    simulates the scenarios' programs: small ones together, through one
    block-diagonal :class:`~repro.network.batchsim.BatchFlowSim` pass
    that amortizes the numpy dispatch overhead dominating small runs,
    and a lone or large one on the solo engine.  Either way a scenario's
    outcome equals its :func:`run_transfer` outcome byte for byte.

    The proxy search is memoised across scenarios with the same pair
    list — a campaign repeating one geometry plans it once.  Fault-traced
    or corruption-checked transfers go through
    :func:`repro.resilience.executor.run_resilient_transfer_many`.

    Args:
        assignments: optional per-scenario pre-built proxy assignments
            (aligned with ``spec_sets``; ``None`` entries plan normally).
        events: optional per-scenario capacity-event sequences (aligned
            with ``spec_sets``; ``None`` entries run undisturbed), each
            applied to its own scenario only.
        on_error: ``"raise"`` propagates the first scenario failure;
            ``"capture"`` stores the exception in that scenario's result
            slot and lets the rest finish.
    """
    spec_sets = [list(s) for s in spec_sets]
    if not spec_sets:
        return []
    with get_tracer().span(
        "transfer-batch", cat="transfer", mode=mode, n_scenarios=len(spec_sets)
    ) as span:
        outcomes = _run_transfer_sets(
            system, spec_sets, mode=mode, assignments=assignments,
            max_proxies=max_proxies, min_proxies=min_proxies,
            max_offset=max_offset, capacity_fn=capacity_fn, events=events,
            probe=None, on_error=on_error,
        )
        ok = [o for o in outcomes if not isinstance(o, Exception)]
        span.set(makespan=max((o.makespan for o in ok), default=0.0))
    get_registry().counter("transfer.batch_runs").inc()
    return outcomes


def _run_transfer_sets(
    system, spec_sets, *, mode, assignments, max_proxies, min_proxies,
    max_offset, capacity_fn, events, probe, on_error,
) -> "list[TransferOutcome | Exception]":
    """Plan, emit and simulate every spec set: the body of
    :func:`run_transfer` and :func:`run_transfer_many`."""
    if mode not in ("direct", "proxy", "auto"):
        raise ConfigError(f"unknown mode {mode!r}")
    for i, specs in enumerate(spec_sets):
        if not specs:
            raise ConfigError(f"scenario #{i}: specs must be non-empty")
    for name, per_set in (("assignments", assignments), ("events", events)):
        if per_set is not None and len(per_set) != len(spec_sets):
            raise ConfigError(
                f"{name} must align with spec_sets "
                f"({len(per_set)} != {len(spec_sets)})"
            )

    tracer = get_tracer()
    comm = SimComm(system)
    model = TransferModel(system.params)
    plan_cache: "dict[tuple, ProxyPlan]" = {}
    progs: "list[FlowProgram]" = []
    built: "list[tuple[dict, ProxyPlan | None, float]]" = []
    for i, specs in enumerate(spec_sets):
        plan: "ProxyPlan | None" = None
        asg_map = assignments[i] if assignments is not None else None
        if asg_map is None and mode in ("proxy", "auto"):
            pairs = tuple((s.src, s.dst) for s in specs)
            plan = plan_cache.get(pairs)
            if plan is None:
                with tracer.span("proxy-select", cat="plan", n_pairs=len(pairs)):
                    plan = find_proxies(
                        system, list(pairs), max_proxies=max_proxies,
                        min_proxies=min_proxies, max_offset=max_offset,
                    )
                plan_cache[pairs] = plan
            asg_map = plan.assignments
        prog = FlowProgram(comm, capacity_fn=capacity_fn, probe=probe)
        mode_used = emit_transfer_set(prog, specs, asg_map, mode, min_proxies, model)
        progs.append(prog)
        built.append((mode_used, plan, float(sum(s.nbytes for s in specs))))
    results = run_programs(progs, events=events, on_error=on_error)

    reg = get_registry()
    reg.counter("transfer.runs").inc(len(built))
    reg.counter("transfer.bytes_requested").inc(sum(t for _, _, t in built))
    modes = [m for mu, _, _ in built for m in mu.values()]
    reg.counter("transfer.carriers.proxy").inc(
        sum(1 for m in modes if m.startswith("proxy"))
    )
    reg.counter("transfer.carriers.direct").inc(
        sum(1 for m in modes if m == "direct")
    )
    return [
        res if isinstance(res, Exception)
        else TransferOutcome(res.makespan, total, mu, res, plan)
        for (mu, plan, total), res in zip(built, results)
    ]
