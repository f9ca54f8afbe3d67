"""End-to-end sparse I/O data movement runner.

``run_io_movement`` is the single entry point the I/O benchmarks and
examples use: given per-rank request sizes, it executes one collective
write to the I/O nodes (``/dev/null`` sink, as in the paper's
measurements) with either

* ``method="topology_aware"`` — the paper's Algorithm 2
  (:mod:`repro.core.aggregation`), or
* ``method="collective"`` — the default MPI collective I/O baseline
  (:mod:`repro.mpi.mpiio`),

and reports the aggregate throughput ``total bytes / makespan`` that the
paper's Figures 10–11 plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.core.aggregation import (
    AggregationPlan,
    AggregatorConfig,
    aggregation_flows,
    plan_aggregation,
)
from repro.machine.faults import FaultModel, degraded_system_capacity
from repro.machine.system import BGQSystem
from repro.mpi.comm import SimComm
from repro.mpi.mpiio import (
    CollectiveIOConfig,
    TwoPhasePlan,
    collective_write_flows,
    plan_collective_write,
)
from repro.mpi.program import FlowProgram
from repro.network.flowsim import FlowSimResult
from repro.obs.metrics import TimeSeriesProbe, get_registry
from repro.obs.trace import get_tracer
from repro.torus.mapping import RankMapping
from repro.util.validation import ConfigError

#: Approximate-fairness setting of the interactive I/O entry points
#: (``repro io``, ``repro trace io`` and the service's ``io`` kind),
#: passed as ``run_io_movement(..., **IO_TOLERANCES)``.  The service's
#: ``io`` payload checksums are recorded with exactly these values.
IO_TOLERANCES: "Mapping[str, float]" = MappingProxyType(
    {"batch_tol": 0.05, "fair_tol": 0.02}
)


@dataclass
class IOOutcome:
    """Measured result of one collective write.

    Attributes:
        method: which engine produced it.
        total_bytes: request volume.
        makespan: completion time of the full write [s].
        throughput: ``total_bytes / makespan`` [B/s].
        active_ions: IONs that carried traffic.
        ion_imbalance: max/mean load over IONs that the plan touches.
        plan: the engine-specific plan object.
        result: the raw flow-level simulation results (per-flow timings
            and per-link byte counts, for link-load analysis).
    """

    method: str
    total_bytes: float
    makespan: float
    throughput: float
    active_ions: int
    ion_imbalance: float
    plan: "AggregationPlan | TwoPhasePlan"
    result: FlowSimResult


def _ion_imbalance(bytes_per_ion: dict[int, float], nions: int) -> float:
    """max/mean over *all* IONs of the partition (idle IONs count)."""
    if nions < 1:
        raise ConfigError("nions must be >= 1")
    loads = np.zeros(nions)
    for ion, b in bytes_per_ion.items():
        loads[ion] = b
    mean = loads.mean()
    return float(loads.max() / mean) if mean > 0 else 1.0


def sizes_to_node_data(
    system: BGQSystem, mapping: RankMapping, sizes_by_rank: Sequence[int]
) -> np.ndarray:
    """Sum per-rank request sizes into per-node volumes."""
    sizes = np.asarray(sizes_by_rank, dtype=np.int64)
    if len(sizes) != mapping.nranks:
        raise ConfigError(
            f"sizes_by_rank has {len(sizes)} entries for {mapping.nranks} ranks"
        )
    data = np.zeros(system.nnodes, dtype=np.int64)
    np.add.at(data, mapping.rank_table(), sizes)
    return data


def run_io_movement(
    system: BGQSystem,
    sizes_by_rank: Sequence[int],
    *,
    method: str = "topology_aware",
    mapping: "RankMapping | None" = None,
    agg_config: AggregatorConfig = AggregatorConfig(),
    cb_config: CollectiveIOConfig = CollectiveIOConfig(),
    faults: "FaultModel | None" = None,
    batch_tol: float = 0.0,
    fair_tol: float = 0.0,
    lazy_frac: float = 0.0,
    probe: "TimeSeriesProbe | None" = None,
) -> IOOutcome:
    """Run one collective write of ``sizes_by_rank`` bytes to the IONs.

    ``faults`` degrades the physics for *both* methods, but only the
    topology-aware planner adapts to it (aggregators avoid cordoned
    nodes, ION quotas follow surviving capacity); the collective baseline
    stays fault-blind, as ROMIO is.

    ``probe`` samples per-link utilisation (including the ION links) at
    fixed simulated-time intervals during the write.
    """
    if mapping is None:
        mapping = RankMapping(system.topology, ranks_per_node=1)
    comm = SimComm(system, mapping)
    capacity_fn = None
    if faults is not None and not faults.is_null:
        capacity_fn = degraded_system_capacity(system, faults)
    prog = FlowProgram(
        comm,
        batch_tol=batch_tol,
        fair_tol=fair_tol,
        lazy_frac=lazy_frac,
        capacity_fn=capacity_fn,
        probe=probe,
    )
    total = float(np.asarray(sizes_by_rank, dtype=np.int64).sum())

    with get_tracer().span(
        "io-movement", cat="io", method=method, total_bytes=total
    ) as span:
        if method == "topology_aware":
            data = sizes_to_node_data(system, mapping, sizes_by_rank)
            plan: "AggregationPlan | TwoPhasePlan" = plan_aggregation(
                system, data, agg_config, faults=faults
            )
            final = aggregation_flows(prog, plan)
            bytes_per_ion = plan.bytes_per_ion
        elif method == "collective":
            plan = plan_collective_write(comm, sizes_by_rank, cb_config)
            final = collective_write_flows(prog, plan, cb_config)
            bytes_per_ion = plan.bytes_per_ion
        else:
            raise ConfigError(
                f"unknown method {method!r}; use 'topology_aware' or 'collective'"
            )

        result = prog.run()
        makespan = result.finish(final)
        span.set(makespan=makespan, active_ions=plan.active_ions)
    reg = get_registry()
    reg.counter(f"io.runs.{method}").inc()
    reg.counter("io.bytes_written").inc(total)
    return IOOutcome(
        method=method,
        total_bytes=total,
        makespan=makespan,
        throughput=total / makespan if makespan > 0 else 0.0,
        active_ions=plan.active_ions,
        ion_imbalance=_ion_imbalance(bytes_per_ion, system.npsets),
        plan=plan,
        result=result,
    )
