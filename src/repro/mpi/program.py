"""Flow-DAG builder with MPI-like operations.

:class:`FlowProgram` accumulates a flow DAG as columns
(:class:`~repro.network.flow.FlowColumns`) with automatically unique ids
and explicit dependencies, then runs it in a
:class:`~repro.network.flowsim.FlowSim`; :func:`run_programs` runs many
independent programs and is the one place that picks their engine.
Operations mirror the
nonblocking MPI style the paper's mechanisms use (``MPI_Put`` between
phases, completion detection at proxies):

* :meth:`iput` — one-sided transfer between ranks, returns its flow id;
* :meth:`local_copy` — same-node staging copy (memory-bandwidth bound);
* :meth:`event` — a zero-byte synchronisation point joining dependencies
  (used for barriers and phase boundaries).

Endpoint overheads are injected automatically: every ``iput`` pays
``o_msg``; relayed puts add ``o_fwd`` via the ``relay=True`` flag.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.mpi.comm import SimComm
from repro.network.batchsim import BatchFlowSim
from repro.network.flow import Flow, FlowColumns, FlowId, check_flow
from repro.network.flowsim import (
    _INC_AUTO_MIN,
    CapacityEvent,
    CapacityFn,
    FlowSim,
    FlowSimResult,
)
from repro.obs.metrics import TimeSeriesProbe
from repro.util.validation import ConfigError, SimulationError


class FlowProgram:
    """Accumulates a flow DAG over one communicator's machine.

    The flows are kept as columns (:attr:`columns`, one list per
    :class:`Flow` field): each operation appends one checked row per
    flow, and the simulators read the columns as they are.

    ``capacity_fn`` overrides the machine's pristine link-capacity map —
    pass :func:`repro.machine.faults.degraded_system_capacity` to run the
    accumulated program on a degraded machine without touching the flow
    construction logic.

    ``probe`` is handed to the simulator so per-link utilisation is
    sampled mid-run; ``t_base`` is this program's absolute simulated
    start time (the resilience executor sets it per round so one probe's
    series stays monotone across rounds).
    """

    def __init__(
        self,
        comm: SimComm,
        *,
        batch_tol: float = 0.0,
        fair_tol: float = 0.0,
        lazy_frac: float = 0.0,
        capacity_fn: "CapacityFn | None" = None,
        probe: "TimeSeriesProbe | None" = None,
        t_base: float = 0.0,
        sdc=None,
    ):
        self.comm = comm
        self.system = comm.system
        self.params = comm.system.params
        self.batch_tol = batch_tol
        self.fair_tol = fair_tol
        self.lazy_frac = lazy_frac
        self.capacity_fn = capacity_fn
        self.probe = probe
        self.t_base = t_base
        #: Optional silent-corruption model: forwarded to the simulator
        #: so results carry wire-corruption annotations (metadata only —
        #: :func:`run_programs` reads it off the program the same way it
        #: reads ``capacity_fn``).
        self.sdc = sdc
        #: The program's flows, one column per :class:`Flow` field, in
        #: emission order: what the simulators read.
        self.columns = FlowColumns()
        self._counter = 0

    @property
    def flows(self) -> FlowColumns:
        """The flows as a read-only ``Sequence[Flow]`` view of :attr:`columns`."""
        return self.columns

    # -- id management and appends ---------------------------------------------

    def _fresh(self, label: "str | None") -> str:
        self._counter += 1
        return f"{label or 'op'}#{self._counter}"

    def _append(self, fid, size, path, deps, delay, rate_cap, tag, start_time=0.0) -> FlowId:
        """Check one flow as :class:`Flow` would and append it."""
        check_flow(fid, size, delay, start_time, rate_cap)
        c = self.columns
        c.fid.append(fid)
        c.size.append(size)
        c.path.append(path)
        c.deps.append(tuple(deps))
        c.delay.append(delay)
        c.start_time.append(start_time)
        c.rate_cap.append(rate_cap)
        c.tag.append(tag)
        return fid

    # -- operations --------------------------------------------------------------

    def add(self, flow: Flow) -> FlowId:
        """Append a flow the caller built (its own id, route and cap)."""
        return self._append(
            flow.fid, flow.size, flow.path, flow.deps, flow.delay, flow.rate_cap,
            flow.tag, flow.start_time,
        )

    def iput(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: float,
        *,
        after: Iterable[FlowId] = (),
        relay: bool = False,
        label: "str | None" = None,
        start_time: float = 0.0,
        tag=None,
    ) -> FlowId:
        """One-sided transfer of ``nbytes`` from ``src_rank`` to ``dst_rank``.

        ``relay=True`` marks this put as the second leg of a
        store-and-forward relay; it pays the forwarding turnaround
        ``o_fwd`` on top of ``o_msg``.
        """
        if nbytes < 0:
            raise ConfigError(f"nbytes must be >= 0, got {nbytes}")
        src_node = self.comm.node_of(src_rank)
        dst_node = self.comm.node_of(dst_rank)
        return self.iput_nodes(
            src_node,
            dst_node,
            nbytes,
            after=after,
            relay=relay,
            label=label,
            start_time=start_time,
            tag=tag,
        )

    def iput_nodes(
        self,
        src_node: int,
        dst_node: int,
        nbytes: float,
        *,
        after: Iterable[FlowId] = (),
        relay: bool = False,
        label: "str | None" = None,
        start_time: float = 0.0,
        tag=None,
    ) -> FlowId:
        """Node-addressed variant of :meth:`iput` (engines use node ids)."""
        fid = self._fresh(label)
        delay = self.params.o_msg + (self.params.o_fwd if relay else 0.0)
        if src_node == dst_node:
            path, rate_cap = (), self.params.mem_bw
        else:
            path, rate_cap = self.system.compute_path(src_node, dst_node).links, None
        return self._append(fid, float(nbytes), path, after, delay, rate_cap, tag, start_time)

    def iwrite_ion(
        self,
        src_node: int,
        nbytes: float,
        *,
        after: Iterable[FlowId] = (),
        relay: bool = True,
        label: "str | None" = None,
        tag=None,
    ) -> FlowId:
        """Write from a node to its default I/O node (``/dev/null`` sink).

        The route is the node's deterministic I/O path: torus hops to its
        default bridge node, then the 2 GB/s 11th link.  ``relay=True`` by
        default because I/O writes in both the baseline and the paper's
        scheme are issued by an aggregator that has just received the data.
        """
        fid = self._fresh(label)
        delay = self.params.o_msg + (self.params.o_fwd if relay else 0.0)
        return self._append(
            fid, float(nbytes), self.system.io_path(src_node), after, delay,
            self.params.io_link_bw, tag,
        )

    def iread_ion(
        self,
        dst_node: int,
        nbytes: float,
        *,
        after: Iterable[FlowId] = (),
        label: "str | None" = None,
        tag=None,
    ) -> FlowId:
        """Read from the default I/O node into ``dst_node``.

        The mirror of :meth:`iwrite_ion`: the inbound 11th link from the
        ION to the node's default bridge, then torus hops to the node.
        """
        fid = self._fresh(label)
        return self._append(
            fid, float(nbytes), self.system.io_read_path(dst_node), after,
            self.params.o_msg, self.params.io_link_bw, tag,
        )

    def local_copy(
        self,
        rank: int,
        nbytes: float,
        *,
        after: Iterable[FlowId] = (),
        label: "str | None" = None,
        tag=None,
    ) -> FlowId:
        """A staging memcpy on one rank's node."""
        self.comm.node_of(rank)  # validates the rank
        return self.local_copy_node(0, nbytes, after=after, label=label, tag=tag)

    def local_copy_node(
        self,
        node: int,
        nbytes: float,
        *,
        after: Iterable[FlowId] = (),
        label: "str | None" = None,
        tag=None,
    ) -> FlowId:
        """Node-addressed staging memcpy (node id only labels the copy —
        local copies occupy no network links)."""
        if not 0 <= node < self.system.nnodes:
            raise ConfigError(f"node {node} out of range")
        fid = self._fresh(label or "copy")
        return self._append(
            fid, float(nbytes), (), after, self.params.o_msg, self.params.mem_bw, tag
        )

    def event(
        self,
        after: Iterable[FlowId],
        *,
        delay: float = 0.0,
        label: "str | None" = None,
    ) -> FlowId:
        """A zero-byte join node: completes when all of ``after`` have."""
        fid = self._fresh(label or "event")
        return self._append(fid, 0.0, (), after, delay, None, None)

    def barrier(
        self,
        after_by_rank: "Sequence[FlowId] | dict[int, FlowId]",
        *,
        label: str = "barrier",
    ) -> FlowId:
        """All-ranks join (a dissemination barrier's cost is folded into
        a single ``o_msg``-latency event; the paper's phases synchronise
        on data arrival, not on barrier microstructure)."""
        deps = list(after_by_rank.values()) if isinstance(after_by_rank, dict) else list(after_by_rank)
        return self.event(deps, delay=self.params.o_msg, label=label)

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        capacity_events: "Sequence[CapacityEvent] | None" = None,
        *,
        cutoffs: "Mapping[FlowId, float] | None" = None,
    ) -> FlowSimResult:
        """Simulate the accumulated DAG (optionally under a fault schedule).

        ``cutoffs`` maps flow ids to snapshot times passed straight to
        :meth:`~repro.network.flowsim.FlowSim.run` — the resilience
        executor registers carrier deadlines here to read back byte-exact
        partial progress for cancelled carriers.
        """
        sim = FlowSim(
            self.capacity_fn or self.system.capacity,
            self.params,
            batch_tol=self.batch_tol,
            fair_tol=self.fair_tol,
            lazy_frac=self.lazy_frac,
        )
        return sim.run(
            self.columns,
            capacity_events=capacity_events,
            probe=self.probe,
            t_base=self.t_base,
            cutoffs=cutoffs,
            sdc=self.sdc,
        )


def run_programs(
    programs: "Sequence[FlowProgram]",
    events: "Sequence[Sequence[CapacityEvent] | None] | None" = None,
    cutoffs: "Sequence[Mapping[FlowId, float] | None] | None" = None,
    on_error: str = "raise",
) -> "list[FlowSimResult | Exception]":
    """Simulate independent programs; one result each, in order.

    The one engine rule behind every transfer API: exact programs
    without a probe and below the solo engine's incremental threshold
    (``_INC_AUTO_MIN`` flows) that arrive together run as one
    :meth:`~repro.network.batchsim.BatchFlowSim.simulate_many` batch per
    machine; every other program, alone or at or above the threshold,
    runs through :meth:`FlowProgram.run` with its probe and incremental
    re-solve.  Below the threshold both engines return the same bytes,
    so a result never depends on which call or batch carried it.

    ``events`` and ``cutoffs`` are per-program, with
    :meth:`FlowProgram.run`'s semantics.  ``on_error="capture"`` stores
    a program's :class:`~repro.util.validation.SimulationError` (a link
    taken hard down, say) in its slot and lets the rest finish.
    """
    if on_error not in ("raise", "capture"):
        raise ConfigError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
    n = len(programs)
    for name, per_program in (("events", events), ("cutoffs", cutoffs)):
        if per_program is not None and len(per_program) != n:
            raise ConfigError(
                f"{name} must align with programs ({len(per_program)} != {n})"
            )
    events = [None] * n if events is None else events
    cutoffs = [None] * n if cutoffs is None else cutoffs
    small: "dict[object, list[int]]" = {}
    for i, p in enumerate(programs):
        exact = not (p.batch_tol or p.fair_tol or p.lazy_frac)
        if exact and p.probe is None and len(p.columns) < _INC_AUTO_MIN:
            small.setdefault(p.params, []).append(i)
    results: "list[FlowSimResult | Exception | None]" = [None] * n
    for params, idxs in small.items():
        if len(idxs) < 2:
            continue
        batch = [programs[i] for i in idxs]
        out = BatchFlowSim(params).simulate_many(
            [(p.capacity_fn or p.system.capacity, p.columns) for p in batch],
            events=[events[i] for i in idxs],
            cutoffs=[cutoffs[i] for i in idxs],
            sdc=[p.sdc for p in batch],
            on_error=on_error,
        )
        for i, res in zip(idxs, out):
            results[i] = res
    for i, p in enumerate(programs):
        if results[i] is not None:
            continue
        try:
            results[i] = p.run(events[i], cutoffs=cutoffs[i])
        except SimulationError as exc:
            if on_error == "raise":
                raise
            results[i] = exc
    return results  # type: ignore[return-value]  # every slot filled
