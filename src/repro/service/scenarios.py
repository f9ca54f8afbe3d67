"""Scenario runners the service's workers execute.

Each kind maps to a deterministic, JSON-able payload — no wall-clock
fields ever land in a payload, so a seeded campaign's results are
byte-identical across runs and resumes (the property ``repro batch
--resume`` is verified against).

Transfer kinds (p2p, group, fanin) all run through
:func:`run_transfer_kinds_batched` — one item for a worker, many for
``repro batch`` — and split into the two guarded stages the circuit
breakers watch:

* **plan** — the multipath proxy search (:class:`TransferPlanner`);
* **simulate** — the fluid-simulator execution of the planned flows.

When the planner's breaker is open, or the remaining deadline is below
the planning-cost estimate, the runner serves the **degraded-mode
fallback**: a direct single-path plan (``mode="direct"``), skipping the
proxy search entirely — slower data movement, but an answer within the
deadline instead of a rejection.  A failure raises :class:`StageError`
naming the stage, which the service feeds back into the right breaker.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Mapping

from repro.core.multipath import TransferSpec
from repro.core.planner import TransferPlanner
from repro.obs.trace import get_tracer
from repro.util.cancel import check_cancelled, current_scope
from repro.util.validation import ConfigError, ReproError, SimulationCancelled

#: Fields a transfer payload records per (src, dst) pair.
_MiB = 1 << 20

#: Degrade to direct below this × the planning-cost estimate of remaining
#: deadline (read by the dispatcher and by the worker's own check).
PLAN_COST_SAFETY = 2.0


class StageError(ReproError):
    """A scenario stage failed; ``stage`` is ``"plan"`` or ``"simulate"``.

    Wraps the original error so the service can route the failure into
    the matching circuit breaker while callers still see the cause.
    """

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage} stage failed: {type(cause).__name__}: {cause}")
        self.stage = stage
        self.cause = cause


@functools.lru_cache(maxsize=8)
def _system(nnodes: "int | None" = None, ncores: "int | None" = None):
    from repro.machine import mira_system

    return mira_system(nnodes=nnodes, ncores=ncores)


def _far_node(n: int) -> int:
    """An off-axis far destination (same shape the chaos harness uses)."""
    return (n // 2 + n // 8 + 1) % n


def _transfer_specs(kind: str, params: Mapping[str, Any], system) -> list[TransferSpec]:
    nbytes = int(params.get("nbytes", _MiB))
    n = system.nnodes
    if kind == "p2p":
        src = int(params.get("src", 0))
        dst = int(params.get("dst", _far_node(n)))
        return [TransferSpec(src=src, dst=dst, nbytes=nbytes)]
    from repro.resilience.chaos import geometry_specs

    return geometry_specs(system, kind, nbytes)


def _mode_used_payload(mode_used: Mapping[tuple, str]) -> dict:
    return {f"{s}->{d}": m for (s, d), m in sorted(mode_used.items())}


def _fault_trace(params: Mapping[str, Any], system):
    """Build the request's seeded :class:`FaultTrace`, or ``None``.

    A transfer request opts into fault injection with ``fault_seed``
    (plus optional ``fault_events`` / ``fault_hard_fraction``); the
    trace is a pure function of those params and the machine size, so
    payloads stay byte-identical across runs and resumes.
    """
    seed = params.get("fault_seed")
    if seed is None:
        return None
    from repro.machine.faults import random_fault_trace

    return random_fault_trace(
        system.topology,
        int(params.get("fault_events", 3)),
        hard_fraction=float(params.get("fault_hard_fraction", 0.5)),
        seed=int(seed),
    )


def _sdc_model(params: Mapping[str, Any], system):
    """Build the request's seeded :class:`SDCModel`, or ``None``.

    A transfer request opts into silent-corruption injection with
    ``sdc_seed`` (plus optional ``sdc_flip_links`` /
    ``sdc_corrupt_proxies`` / ``sdc_rate`` / ``sdc_stale_rate``); the
    model is a pure function of those params and the machine size, so
    payloads stay byte-identical across runs, resumes and the batched
    path.
    """
    seed = params.get("sdc_seed")
    if seed is None:
        return None
    from repro.machine.faults import random_sdc_model

    return random_sdc_model(
        system.topology,
        int(params.get("sdc_flip_links", 2)),
        flip_rate=float(params.get("sdc_rate", 0.5)),
        ncorrupt_proxies=int(params.get("sdc_corrupt_proxies", 1)),
        corrupt_rate=float(params.get("sdc_rate", 0.5)),
        stale_rate=float(params.get("sdc_stale_rate", 0.0)),
        seed=int(seed),
    )


def _transfer_payload(
    kind: str, system, out, *, degraded: bool, sdc: bool
) -> dict:
    """Payload of one transfer scenario.

    A run through the resilience executor (a fault-traced or
    corruption-injected request) adds the ``faulted`` retry fields, and
    ``sdc`` the integrity-verification fields — only for requests that
    opted into corruption injection, so fault-traced payloads carry
    none of them.
    """
    payload = {
        "kind": kind,
        "nnodes": system.nnodes,
        "total_bytes": out.total_bytes,
        "makespan_s": out.makespan,
        "throughput_Bps": out.throughput,
        "mode_used": _mode_used_payload(out.mode_used),
        "degraded": degraded,
    }
    r = out.resilience
    if r is None:
        return payload
    payload.update(
        faulted=True,
        delivered_bytes=r.delivered_bytes,
        residue_bytes=r.residue_bytes,
        rounds=r.telemetry.rounds,
        retries=r.telemetry.retries,
        complete=r.complete,
    )
    if sdc:
        payload.update(
            corrupt_extents_detected=r.telemetry.corrupt_extents_detected,
            corrupt_bytes_redriven=r.telemetry.corrupt_bytes_redriven,
            stale_drops=r.telemetry.stale_drops,
            corrupted_acknowledged_bytes=r.corrupted_acknowledged_bytes,
        )
    return payload


def _effective_max_proxies(
    params: Mapping[str, Any], max_proxies_cap: "int | None"
) -> "int | None":
    """The request's own proxy-count bound, clipped by the ladder's
    reduced-k cap when one is in force."""
    own = params.get("max_proxies")
    if max_proxies_cap is None:
        return own
    if own is None:
        return max_proxies_cap
    return min(int(own), max_proxies_cap)


def _ladder_capped(
    params: Mapping[str, Any], max_proxies_cap: "int | None"
) -> bool:
    """Did the ladder's reduced-k cap actually tighten this request's
    planning?  Payloads produced under a binding cap are marked
    ``degraded`` — they are not the request's canonical result, which
    matters to consumers that need payloads to be pure functions of the
    request params (chaos-campaign replay, journal resume)."""
    if max_proxies_cap is None:
        return False
    own = params.get("max_proxies")
    return own is None or int(max_proxies_cap) < int(own)


def _simulate_failure(
    exc: Exception, params: Mapping[str, Any], sdc, max_proxies_cap
) -> ReproError:
    """The typed error a failed transfer simulation surfaces as."""
    from repro.resilience.executor import TransferAbortedError
    from repro.resilience.ledger import IntegrityError
    from repro.service.errors import CorruptDataError

    if isinstance(exc, IntegrityError):
        return CorruptDataError(f"corrupt-data: {exc}")
    tele = getattr(exc, "telemetry", None)
    if (
        isinstance(exc, TransferAbortedError)
        and sdc is not None
        and tele is not None
        and tele.corrupt_extents_detected
        and not _ladder_capped(params, max_proxies_cap)
    ):
        # Persistent corruption: every attempted path kept failing
        # end-to-end verification.  Deterministic for these params —
        # the service quarantines like poison.
        return CorruptDataError(
            f"corrupt-data: {tele.corrupt_extents_detected} corrupt "
            f"extent arrivals across {tele.rounds} rounds; no clean "
            f"path delivered — quarantined"
        )
    return StageError("simulate", exc)


def run_transfer_kinds_batched(
    items: "list[tuple[str, Mapping[str, Any]]]",
    *,
    degraded: bool = False,
    max_proxies_cap: "int | None" = None,
    stage_s: "dict | None" = None,
) -> list[dict]:
    """Execute transfer-kind scenarios; returns one payload per item.

    ``items`` are ``(kind, params)`` pairs as a worker receives them.
    This is the only transfer path: a service worker calls it with one
    item and ``repro batch`` with every deadline-free transfer scenario
    of a campaign, so their payloads agree by construction.  Flows share
    bandwidth exactly max-min fair.

    * **plan** — each fault-free scenario's proxy search runs through
      its own :class:`TransferPlanner`, capped by the request's
      ``max_proxies`` and the ladder's ``max_proxies_cap``.  With
      ``degraded`` (the dispatcher's direct-mode verdict) the search is
      skipped and every fault-free scenario moves on its direct path.
    * **simulate** — one :func:`repro.core.multipath.run_transfer_many`
      pass per machine size.  Fault-traced (``fault_seed``) and
      corruption-injected (``sdc_seed``) scenarios run through the
      resilience executor's wave batching instead, which plans its own
      fault-aware proxies, grouped by their effective proxy cap.

    Stage wall times land in ``stage_s`` (``plan_s``, ``simulate_s``).
    A failure raises :class:`StageError` naming its stage — or, for
    verified corruption, :class:`~repro.service.errors.CorruptDataError`
    — for the first failing item.  Payloads produced under a binding
    ladder cap or in direct mode are marked ``degraded``.
    """
    from repro.core.multipath import run_transfer_many

    stage_s = {} if stage_s is None else stage_s
    tracer = get_tracer()
    prepared = []  # (system, specs, trace, sdc)
    for kind, params in items:
        if kind not in ("p2p", "group", "fanin"):
            raise ConfigError(f"kind {kind!r} is not a transfer scenario")
        system = _system(nnodes=int(params.get("nnodes", 64)))
        prepared.append((
            system,
            _transfer_specs(kind, params, system),
            _fault_trace(params, system),
            _sdc_model(params, system),
        ))
    faulted = [p[2] is not None or p[3] is not None for p in prepared]
    span_kind = ",".join(sorted({kind for kind, _ in items}))

    assignments: "list[dict | None]" = [None] * len(items)
    to_plan = [] if degraded else [i for i, f in enumerate(faulted) if not f]
    if to_plan:
        t0 = time.perf_counter()
        try:
            with tracer.span("service.plan", cat="service", kind=span_kind):
                for i in to_plan:
                    system, specs, _, _ = prepared[i]
                    planner = TransferPlanner(
                        system,
                        max_proxies=_effective_max_proxies(
                            items[i][1], max_proxies_cap
                        ),
                    )
                    assignments[i] = planner.find_plan(
                        [(s.src, s.dst) for s in specs]
                    ).assignments
        except SimulationCancelled:
            raise
        except Exception as exc:
            raise StageError("plan", exc) from exc
        finally:
            stage_s["plan_s"] = time.perf_counter() - t0

    # One batched pass per machine size, fault-free and resilient
    # scenarios apart — the latter also per proxy cap, which their
    # planner takes for the whole group.  Each group's outcomes become
    # payloads at once, so only one group's flow results are alive.
    groups: "dict[tuple, list[int]]" = {}
    for i, (system, _, _, _) in enumerate(prepared):
        mp = (
            _effective_max_proxies(items[i][1], max_proxies_cap)
            if faulted[i]
            else None
        )
        groups.setdefault((id(system), faulted[i], mp), []).append(i)
    payloads: "list[dict | Exception | None]" = [None] * len(items)
    check_cancelled()
    t0 = time.perf_counter()
    try:
        with tracer.span(
            "service.simulate", cat="service", kind=span_kind,
            faulted=any(faulted),
        ):
            for (_, resilient, mp), idxs in groups.items():
                system = prepared[idxs[0]][0]
                spec_sets = [prepared[i][1] for i in idxs]
                if resilient:
                    res = run_transfer_many(
                        system, spec_sets,
                        traces=[prepared[i][2] for i in idxs],
                        sdc=[prepared[i][3] for i in idxs],
                        max_proxies=mp, on_error="capture",
                    )
                else:
                    res = run_transfer_many(
                        system, spec_sets,
                        mode="direct" if degraded else "auto",
                        assignments=[assignments[i] for i in idxs],
                        on_error="capture",
                    )
                for i, out in zip(idxs, res):
                    if isinstance(out, Exception):
                        payloads[i] = out
                        continue
                    kind, params = items[i]
                    payloads[i] = _transfer_payload(
                        kind, system, out,
                        degraded=_ladder_capped(params, max_proxies_cap)
                        or (degraded and not resilient),
                        sdc=prepared[i][3] is not None,
                    )
    except SimulationCancelled:
        raise
    except Exception as exc:
        raise StageError("simulate", exc) from exc
    finally:
        stage_s["simulate_s"] = time.perf_counter() - t0

    for (_, params), (_, _, _, sdc), payload in zip(items, prepared, payloads):
        if isinstance(payload, Exception):
            raise _simulate_failure(
                payload, params, sdc, max_proxies_cap
            ) from payload
    return payloads  # type: ignore[return-value]  # no failure left


def _run_io(params: Mapping[str, Any], *, degraded: bool, stage_s: dict) -> dict:
    from repro.core import run_io_movement
    from repro.core.iomove import IO_TOLERANCES
    from repro.torus.mapping import RankMapping
    from repro.torus.partition import CORES_PER_NODE
    from repro.workloads import hacc_io_sizes, pareto_pattern, uniform_pattern

    system = _system(ncores=int(params.get("ncores", 1024)))
    mapping = RankMapping(system.topology, ranks_per_node=CORES_PER_NODE)
    pattern = str(params.get("pattern", "1"))
    seed = int(params.get("seed", 2014))
    if pattern == "1":
        sizes = uniform_pattern(mapping.nranks, seed=seed)
    elif pattern == "2":
        sizes = pareto_pattern(mapping.nranks, seed=seed)
    elif pattern == "hacc":
        sizes = hacc_io_sizes(mapping.nranks)
    else:
        raise ConfigError(f"unknown io pattern {pattern!r}; use 1, 2 or hacc")
    # Degraded mode: skip the topology-aware aggregation planning and
    # serve the baseline collective path.
    method = "collective" if degraded else str(params.get("method", "topology_aware"))
    t0 = time.perf_counter()
    try:
        with get_tracer().span("service.simulate", cat="service", kind="io"):
            out = run_io_movement(
                system, sizes, method=method, mapping=mapping,
                **{k: float(params.get(k, v)) for k, v in IO_TOLERANCES.items()},
            )
    except SimulationCancelled:
        raise
    except Exception as exc:
        raise StageError("simulate", exc) from exc
    finally:
        stage_s["simulate_s"] = time.perf_counter() - t0
    return {
        "kind": "io",
        "ncores": int(params.get("ncores", 1024)),
        "pattern": pattern,
        "method": method,
        "total_bytes": float(sizes.sum()),
        "makespan_s": out.makespan,
        "throughput_Bps": out.throughput,
        "active_ions": out.active_ions,
        "ion_imbalance": out.ion_imbalance,
        "degraded": degraded,
    }


def _run_chaos(params: Mapping[str, Any], *, stage_s: dict) -> dict:
    from repro.resilience.chaos import CampaignConfig, run_campaign

    config = CampaignConfig(
        nnodes=int(params.get("nnodes", 128)),
        nbytes=int(params.get("nbytes", 8 * _MiB)),
        seeds=tuple(params.get("seeds", (0,))),
        scenarios=tuple(params.get("scenarios", ("hard-down",))),
        geometries=tuple(params.get("geometries", ("p2p",))),
        max_retries=int(params.get("max_retries", 3)),
        budget_s=float(params.get("budget_s", 0.5)),
    )
    t0 = time.perf_counter()
    try:
        with get_tracer().span("service.simulate", cat="service", kind="chaos"):
            report = run_campaign(config)
    except SimulationCancelled:
        raise
    except Exception as exc:
        raise StageError("simulate", exc) from exc
    finally:
        stage_s["simulate_s"] = time.perf_counter() - t0
    # Wall time is nondeterministic; payloads must be byte-stable.
    report.pop("wall_time_s", None)
    return {"kind": "chaos", "report": report}


def _run_spin(params: Mapping[str, Any], *, stage_s: dict) -> dict:
    """A cooperative busy-wait: spins for ``duration_s`` wall seconds,
    checking the ambient cancel scope each tick.  Used by soak tests
    and demo campaigns to apply deadline pressure deterministically."""
    duration_s = float(params.get("duration_s", 0.01))
    if duration_s < 0:
        raise ConfigError(f"duration_s must be >= 0, got {duration_s}")
    t0 = time.perf_counter()
    try:
        while time.perf_counter() - t0 < duration_s:
            check_cancelled()
            time.sleep(min(0.002, duration_s / 10 + 1e-6))
    finally:
        stage_s["simulate_s"] = time.perf_counter() - t0
    return {"kind": "spin", "duration_s": duration_s, "spun": True}


def execute_request(
    kind: str,
    params: Mapping[str, Any],
    *,
    degraded: bool = False,
    plan_cost_est_s: float = 0.0,
    max_proxies_cap: "int | None" = None,
) -> tuple[dict, dict, bool]:
    """Run one scenario; returns ``(payload, stage_s, degraded_used)``.

    ``degraded`` is the dispatcher's verdict (planner breaker open or
    degradation ladder at its direct tier); ``max_proxies_cap`` is the
    ladder's reduced-k cap on the proxy search (tier 1).  Additionally,
    when the remaining deadline is below :data:`PLAN_COST_SAFETY` ×
    ``plan_cost_est_s``, the runner degrades on its own — spending the
    whole budget planning would guarantee a miss.
    """
    stage_s: dict = {}
    scope = current_scope()
    if not degraded and scope is not None and plan_cost_est_s > 0:
        remaining = scope.remaining()
        if remaining is not None and remaining < PLAN_COST_SAFETY * plan_cost_est_s:
            degraded = True
    check_cancelled()
    if kind in ("p2p", "group", "fanin"):
        (payload,) = run_transfer_kinds_batched(
            [(kind, params)], degraded=degraded,
            max_proxies_cap=max_proxies_cap, stage_s=stage_s,
        )
    elif kind == "io":
        payload = _run_io(params, degraded=degraded, stage_s=stage_s)
    elif kind == "chaos":
        degraded = False  # no planner stage to skip
        payload = _run_chaos(params, stage_s=stage_s)
    elif kind == "spin":
        degraded = False
        payload = _run_spin(params, stage_s=stage_s)
    else:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    return payload, stage_s, degraded
