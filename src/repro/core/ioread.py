"""Collective reads — Algorithm 2 mirrored (library extension).

The paper evaluates writes; a library a downstream application would
adopt also needs the restart path: loading a sparse dataset back into
the ranks that want it.  The structure mirrors the write engine:

* **topology-aware** — Algorithm 2's uniformly placed, volume-scaled
  aggregators each *read* an equal share from their own ION (every
  inbound 11th link busy), then scatter to the requesting nodes;
* **collective baseline** — ROMIO-style two-phase read: bridge-bound
  aggregators read their file domains from their IONs in lockstep
  ``cb_buffer_size`` rounds and redistribute by offset.

All the write-side pathologies mirror exactly (ION imbalance, lockstep
rounds), so the same gains appear — asserted in
``tests/test_core_ioread.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregation import AggregatorConfig, plan_aggregation
from repro.core.iomove import IOOutcome, _ion_imbalance, sizes_to_node_data
from repro.machine.system import BGQSystem
from repro.mpi.comm import SimComm
from repro.mpi.mpiio import CollectiveIOConfig, plan_collective_write
from repro.mpi.program import FlowProgram
from repro.network.flow import FlowId
from repro.torus.mapping import RankMapping
from repro.util.validation import ConfigError


def _aggregation_read_flows(prog: FlowProgram, plan, *, label: str = "rdagg") -> FlowId:
    """Phase 1: aggregators read their quota from their IONs; phase 2:
    scatter each shipment back to its requesting node."""
    reads: dict[int, FlowId] = {}
    agg_bytes: dict[int, float] = {}
    for src, agg, nbytes in plan.shipments:
        agg_bytes[agg] = agg_bytes.get(agg, 0.0) + nbytes
    for agg in sorted(agg_bytes):
        reads[agg] = prog.iread_ion(agg, agg_bytes[agg], label=f"{label}-read")
    scatters: list[FlowId] = []
    for dst, agg, nbytes in plan.shipments:
        if dst == agg:
            fid = prog.local_copy_node(
                agg, nbytes, after=(reads[agg],), label=f"{label}-stage"
            )
        else:
            fid = prog.iput_nodes(
                agg, dst, nbytes, after=(reads[agg],), relay=True,
                label=f"{label}-scatter",
            )
        scatters.append(fid)
    if not scatters:
        return prog.event((), label=f"{label}-empty")
    return prog.event(scatters, label=f"{label}-done")


def _collective_read_flows(
    prog: FlowProgram,
    plan,
    config: CollectiveIOConfig,
    *,
    label: str = "rdcb",
) -> FlowId:
    """Two-phase read: per lockstep round, aggregators read a cb-buffer
    of their file domain, then scatter the round's pieces by offset."""
    comm = prog.comm
    agg_nodes = [comm.node_of(r) for r in plan.aggregator_ranks]
    cb = config.cb_buffer_size
    ctrl = config.ctrl_cost_per_rank * comm.size + prog.params.o_msg

    # Round volume per aggregator (same geometry as the write planner).
    nrounds = [
        max(1, -(-(hi - lo) // cb)) if hi > lo else 0 for lo, hi in plan.domains
    ]
    # Build (aggregator, round) -> {dst_node: bytes} from rank extents.
    pieces: list[list[dict[int, float]]] = [
        [dict() for _ in range(nr)] for nr in nrounds
    ]
    from repro.mpi.mpiio import _domain_of

    for rank in range(comm.size):
        size = int(plan.sizes[rank])
        if size == 0:
            continue
        node = comm.node_of(rank)
        off = int(plan.offsets[rank])
        end = off + size
        while off < end:
            a = _domain_of(plan, off)
            dom_lo, dom_hi = plan.domains[a]
            r = (off - dom_lo) // cb
            round_hi = min(dom_hi, dom_lo + (r + 1) * cb)
            piece = min(end, round_hi) - off
            bucket = pieces[a][r]
            bucket[node] = bucket.get(node, 0.0) + piece
            off += piece

    gate: FlowId = prog.event((), delay=ctrl, label=f"{label}-calc")
    exits: list[FlowId] = []
    nrounds_global = max(nrounds, default=0)
    for r in range(nrounds_global):
        round_scatters: list[FlowId] = []
        round_gate = prog.event((gate,), delay=ctrl, label=f"{label}-sync")
        for a in range(len(agg_nodes)):
            if r >= nrounds[a] or not pieces[a][r]:
                continue
            round_bytes = float(sum(pieces[a][r].values()))
            read = prog.iread_ion(
                agg_nodes[a], round_bytes, after=(round_gate,), label=f"{label}-read"
            )
            for dst, b in sorted(pieces[a][r].items()):
                round_scatters.append(
                    prog.iput_nodes(
                        agg_nodes[a], dst, b, after=(read,), relay=True,
                        label=f"{label}-scatter",
                    )
                )
        if round_scatters:
            exits.extend(round_scatters)
            gate = prog.event(round_scatters, label=f"{label}-round")
    if not exits:
        return prog.event((gate,), label=f"{label}-empty")
    return prog.event(exits, label=f"{label}-done")


def run_io_read(
    system: BGQSystem,
    sizes_by_rank: Sequence[int],
    *,
    method: str = "topology_aware",
    mapping: "RankMapping | None" = None,
    agg_config: AggregatorConfig = AggregatorConfig(),
    cb_config: CollectiveIOConfig = CollectiveIOConfig(),
    batch_tol: float = 0.0,
    fair_tol: float = 0.0,
    lazy_frac: float = 0.0,
) -> IOOutcome:
    """Run one collective read of ``sizes_by_rank`` bytes from the IONs."""
    comm = SimComm(system, mapping)
    mapping = comm.mapping
    prog = FlowProgram(
        comm, batch_tol=batch_tol, fair_tol=fair_tol, lazy_frac=lazy_frac
    )
    total = float(np.asarray(sizes_by_rank, dtype=np.int64).sum())

    if method == "topology_aware":
        data = sizes_to_node_data(system, mapping, sizes_by_rank)
        plan = plan_aggregation(system, data, agg_config)
        final = _aggregation_read_flows(prog, plan)
        bytes_per_ion = plan.bytes_per_ion
    elif method == "collective":
        plan = plan_collective_write(comm, sizes_by_rank, cb_config)
        final = _collective_read_flows(prog, plan, cb_config)
        bytes_per_ion = plan.bytes_per_ion
    else:
        raise ConfigError(
            f"unknown method {method!r}; use 'topology_aware' or 'collective'"
        )

    result = prog.run()
    makespan = result.finish(final)
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
