"""Fluid flow-level network simulator with max-min fair sharing.

Model
-----
Concurrent transfers are *fluid flows*.  At any instant, the rate vector
over active flows is the **max-min fair allocation** subject to

* every directed link's capacity (flows traversing a link share it), and
* a per-flow single-stream ceiling (``stream_cap``, the protocol limit a
  single message stream can reach on BG/Q — modelled as a private virtual
  link per flow).

Rates are recomputed at every event (flow activation or completion) by
progressive filling: all unfrozen flows grow uniformly until some link
saturates, flows crossing it freeze, and the process repeats.  Between
events, flows drain linearly, so the simulation is exact for the fluid
model.

Dependencies (``Flow.deps``) implement store-and-forward: a dependent
flow becomes *ready* when all its predecessors complete, then waits
``delay`` seconds (endpoint/forwarding overhead) before consuming
bandwidth.

Implementation
--------------
The core is vectorized around a **sparse link×flow incidence matrix**
in CSR form: one flat ``int64`` array of dense link indices (every
flow's real links followed by its private virtual cap link) plus
row-pointer offsets.  The event loop is *incremental*: the per-link
active-flow counts (``nfl``) are maintained with
``np.add.at``/``np.subtract.at`` as flows activate and complete, and the
active-set incidence slice is re-gathered with one fancy index per rate
epoch — there is no per-flow Python loop over path rows anywhere in the
hot path.  :func:`waterfill_csr` consumes those arrays directly:
per-iteration link loads, saturation detection and flow freezing are all
boolean-mask operations over the incidence entries.  Dependency releases
are batched per completion event (one segmented gather over a children
CSR).  See ``docs/PERFORMANCE.md`` for the measured speedups.

Flow populations
----------------
Everything derived from the flows' identities alone — fids, routes and
dependencies, not capacities or payloads — is one *flow population*,
built and validated by ``_population``: the dense-link
compaction, both incidence CSRs and the dependency DAG.  Both engines
consume it: :meth:`FlowSim.run` directly, and
:class:`~repro.network.batchsim.BatchFlowSim` by translating each
scenario's population into a private block of one stacked system.  One
small LRU memo shares populations across runs that resubmit them under
new capacities (resilience retry rounds, repeated scenarios).  The
per-run steps around it — capacity fetch and check, per-flow vectors,
capacity-event and cutoff validation, the stall error, the cancellation
poll and result assembly — are defined once, here, for both engines.

Scale
-----
``batch_tol > 0`` enables *batched completions*: when the earliest
completion is ``dt`` away, all flows finishing within ``dt * (1 +
batch_tol)`` complete together (each is granted at most ``batch_tol``
extra relative time).  This collapses near-ties and cuts rate
recomputations by orders of magnitude at 4K–8K nodes, with error bounded
by ``batch_tol``; tests cross-validate against exact mode.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from dataclasses import dataclass

from repro.network.flow import Flow, FlowColumns, FlowId, FlowResult
from repro.network.params import MIRA_PARAMS, NetworkParams
from repro.obs.metrics import TimeSeriesProbe, get_registry
from repro.obs.trace import get_tracer
from repro.util.cancel import current_scope
from repro.util.validation import (
    ConfigError,
    LinkDownError,
    SimulationCancelled,
    SimulationError,
)

_EPS_BYTES = 1e-3  # sub-byte residue counts as complete (float rounding guard)
_REL_TOL = 1e-12

# ``incremental="auto"`` enables component-local re-solves only for runs
# of at least this many flows: below it, a full waterfill is a handful
# of vectorized dispatches and the per-event component bookkeeping costs
# more than it saves (measured crossover ≈ 200 flows on a uniform 4x4x4
# torus; CI's perf-smoke guards the small-count side).
_INC_AUTO_MIN = 192

CapacityFn = Callable[[int], float]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


class _Population(NamedTuple):
    """Capacity-independent structure of one flow population.

    Dense link ids ``0..nl-1`` are the population's distinct real links
    (ascending global id); ``nl + i`` is flow ``i``'s private virtual
    rate-cap link.  Every CSR is a ``(flat, ptr, lens)`` triple, row
    ``i`` being ``flat[ptr[i]:ptr[i] + lens[i]]``.
    """

    fid_to_idx: "dict[FlowId, int] | None"
    link_index: "dict[int, int] | None"  # global link id -> dense id
    uniq: np.ndarray  # dense id -> global link id
    # flow -> its real dense links
    real_flat: np.ndarray
    real_ptr: np.ndarray
    real_lens: np.ndarray
    # flow -> its real links, then its virtual cap link
    flat: np.ndarray
    ptr: np.ndarray
    lens_full: np.ndarray
    # the transpose: dense link -> flows crossing it
    t_flow: np.ndarray
    t_ptr: np.ndarray
    t_lens: np.ndarray
    rows_unique: bool  # no flow crosses a link twice
    # dependency DAG: flow -> the flows waiting on it
    dep_count0: np.ndarray  # pristine dependency countdown (copy to use)
    child_flat: np.ndarray
    child_ptr: np.ndarray
    child_lens: np.ndarray

    @property
    def nl(self) -> int:
        """Number of real dense links."""
        return len(self.uniq)


def _csr_ptr(lens: np.ndarray) -> np.ndarray:
    """Row pointers of a CSR whose row lengths are ``lens``."""
    ptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    return ptr


def _population(cols: FlowColumns) -> _Population:
    """The validated :class:`_Population` of a program's columns (memoized)."""
    return _population_of(tuple(cols.fid), tuple(cols.path), tuple(cols.deps))


@functools.lru_cache(maxsize=8)
def _population_of(
    fids: "tuple[FlowId, ...]", paths: "tuple[tuple, ...]", deps: "tuple[tuple, ...]"
) -> _Population:
    """Build the population of the flows with these ids, routes and
    dependencies; a duplicate fid or a dependency on an unknown flow or
    on itself is a :class:`ConfigError` (never cached).

    Memoized because resilience retry rounds and repeated scenarios
    resubmit identical populations under new capacities.  The arrays
    are shared, not copied: consumers treat them as immutable and copy
    the one they mutate, the dependency countdown.
    """
    n = len(fids)
    fid_to_idx: dict[FlowId, int] = {}
    for i, fid in enumerate(fids):
        if fid in fid_to_idx:
            raise ConfigError(f"duplicate flow id {fid!r}")
        fid_to_idx[fid] = i
    parents: list[int] = []
    children: list[int] = []
    for i, (fid, ds) in enumerate(zip(fids, deps)):
        for dep in ds:
            j = fid_to_idx.get(dep)
            if j is None:
                raise ConfigError(f"flow {fid!r} depends on unknown flow {dep!r}")
            if j == i:
                raise ConfigError(f"flow {fid!r} depends on itself")
            parents.append(j)
            children.append(i)
    par = np.asarray(parents, dtype=np.int64)
    chi = np.asarray(children, dtype=np.int64)
    child_lens = np.bincount(par, minlength=n)

    # Real links: one ``np.unique`` over every route's hops maps global
    # link ids to dense ones.
    real_lens = np.fromiter(map(len, paths), dtype=np.int64, count=n)
    real_ptr = _csr_ptr(real_lens)
    flat_g = np.fromiter(
        itertools.chain.from_iterable(paths), dtype=np.int64, count=int(real_ptr[-1])
    )
    uniq, real_flat = np.unique(flat_g, return_inverse=True)
    real_flat = real_flat.astype(np.int64, copy=False)
    nl = len(uniq)

    # The full incidence: each row's real links, then its virtual link.
    lens_full = real_lens + 1
    ptr = _csr_ptr(lens_full)
    flat = np.empty(int(ptr[-1]), dtype=np.int64)
    virt_pos = ptr[1:] - 1
    real_mask = np.ones(len(flat), dtype=bool)
    real_mask[virt_pos] = False
    flat[real_mask] = real_flat
    flat[virt_pos] = nl + np.arange(n, dtype=np.int64)
    # Transpose (link -> flows crossing it): the waterfill walks a
    # saturated link's flow list through these slices instead of
    # scanning every active entry per filling iteration.
    rep_flow = np.repeat(np.arange(n, dtype=np.int64), lens_full)
    t_flow = rep_flow[np.argsort(flat, kind="stable")]
    t_lens = np.bincount(flat, minlength=nl + n)
    return _Population(
        fid_to_idx=fid_to_idx,
        link_index={g: k for k, g in enumerate(uniq.tolist())},
        uniq=uniq,
        real_flat=real_flat,
        real_ptr=real_ptr,
        real_lens=real_lens,
        flat=flat,
        ptr=ptr,
        lens_full=lens_full,
        t_flow=t_flow,
        t_ptr=_csr_ptr(t_lens),
        t_lens=t_lens,
        # Torus routes never reuse a directed link, so rows are normally
        # duplicate-free; checked once so the waterfill can trust
        # single-link freeze lists without a dedup pass.
        rows_unique=len(np.unique(flat * np.int64(n) + rep_flow)) == len(flat),
        dep_count0=np.bincount(chi, minlength=n),
        child_flat=chi[np.argsort(par, kind="stable")],
        child_ptr=_csr_ptr(child_lens),
        child_lens=child_lens,
    )


def _segment_gather(ptr: np.ndarray, lens: np.ndarray, idxs: np.ndarray) -> np.ndarray:
    """Indices of every CSR entry of rows ``idxs`` (concatenated, in order).

    ``ptr``/``lens`` describe a CSR layout (``ptr[i]`` is row ``i``'s first
    entry, ``lens[i]`` its length); the result indexes the flat array.
    """
    counts = lens[idxs]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I64
    ends = np.cumsum(counts)
    offs = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(ptr[idxs], counts) + offs


@dataclass(frozen=True, order=True)
class CapacityEvent:
    """A scheduled capacity change: at ``time``, directed link ``link``'s
    capacity becomes ``capacity`` bytes/second (absolute, not a factor).

    ``capacity == 0`` takes the link hard down; any flow still routed
    across it stalls, which the simulator reports as a
    :class:`~repro.util.validation.LinkDownError` rather than spinning on
    a transfer that can never finish.  Fault layers build these from
    :class:`repro.machine.faults.FaultTrace` schedules.
    """

    time: float
    link: int
    capacity: float

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise ConfigError(f"event time must be finite and >= 0, got {self.time}")
        if not self.capacity >= 0:
            raise ConfigError(
                f"link {self.link}: event capacity must be >= 0, got {self.capacity}"
            )


def uniform_capacities(link_bw: float) -> CapacityFn:
    """A capacity function giving every link the same bandwidth.

    Suitable for torus-only experiments; the machine model in
    :mod:`repro.machine` supplies heterogeneous capacities (torus links
    vs. 2 GB/s ION links vs. the ION→storage fabric).
    """
    if not link_bw > 0:
        raise ConfigError(f"link_bw must be > 0, got {link_bw}")
    return lambda link_id: link_bw


class FlowSimResult:
    """Results of one :class:`FlowSim` run, held as arrays.

    The result keeps the run's fid -> row map, payload sizes, tags and
    start and finish times.  Every accessor reads those and builds
    nothing per flow, except :attr:`results`, which builds the ``{fid:
    FlowResult}`` dict on first access.

    ``cutoff_bytes`` holds, for every flow the caller passed a *cutoff*
    time for (see :meth:`FlowSim.run`), the bytes that flow had
    delivered by that instant — the byte-exact partial-progress record
    the resilience ledger credits when a carrier is cancelled at its
    deadline.

    When the run carried a silent-data-corruption model
    (:class:`repro.machine.faults.SDCModel` via ``run(..., sdc=...)``),
    the result is annotated with it and the flows' routes:
    :meth:`wire_flip_probability` reports each flow's route corruption
    probability.  The annotation is pure metadata — SDC never changes
    rates or timings (that is what makes it *silent*), so annotated and
    unannotated runs are byte-identical in every physical output.
    """

    def __init__(
        self,
        index: "Mapping[FlowId, int]",
        size: Sequence[float],
        tag: Sequence,
        start: np.ndarray,
        finish: np.ndarray,
        link_bytes: "dict[int, float]",
        n_rate_updates: int,
        cutoff_bytes: "dict[FlowId, float] | None" = None,
        sdc=None,
        paths: "Sequence[tuple] | None" = None,
    ):
        self._index = index
        self._size = size
        self._tag = tag
        self._start = start
        self._finish = finish
        self.makespan = float(np.max(finish)) if len(finish) else 0.0
        self.link_bytes = link_bytes
        self.n_rate_updates = n_rate_updates
        self.cutoff_bytes = cutoff_bytes or {}
        self.sdc = sdc
        self._paths = paths
        self._results: "dict[FlowId, FlowResult] | None" = None

    @classmethod
    def empty(cls) -> "FlowSimResult":
        """The result of a run with no flows."""
        return cls({}, [], [], _EMPTY_F64, _EMPTY_F64, {}, 0)

    @property
    def results(self) -> "dict[FlowId, FlowResult]":
        """Every flow's :class:`FlowResult` by fid, in submission order
        (built on first access, then kept)."""
        if self._results is None:
            self._results = {
                fid: FlowResult(fid, size, t0, t1, tag)
                for fid, size, t0, t1, tag in zip(
                    self._index, self._size, self._start.tolist(),
                    self._finish.tolist(), self._tag,
                )
            }
        return self._results

    def wire_flip_probability(self, fid: FlowId) -> float:
        """Probability this flow's payload crossed a bit-flipping link
        (``1 - Π(1 - rate_l)`` over its route; 0.0 without an SDC
        model).  Per-extent corruption *decisions* stay with the
        resilience executor — only it knows the extent identities."""
        if self.sdc is None:
            return 0.0
        i = self._index.get(fid)
        return self.sdc.route_flip_probability(() if i is None else self._paths[i])

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, fid: FlowId) -> FlowResult:
        i = self._index[fid]
        return FlowResult(
            fid, self._size[i], self._start.item(i), self._finish.item(i), self._tag[i]
        )

    def finish(self, fid: FlowId) -> float:
        """Completion time of one flow."""
        return self._finish.item(self._index[fid])

    def delivered_by_cutoff(self, fid: FlowId) -> float:
        """Bytes ``fid`` had delivered at its cutoff time (its full size
        when no cutoff was registered for it — the flow was never cut)."""
        got = self.cutoff_bytes.get(fid)
        return float(self._size[self._index[fid]]) if got is None else got

    def total_bytes(self) -> float:
        """Sum of all flow payloads."""
        return float(sum(self._size))

    def aggregate_throughput(self) -> float:
        """Total payload divided by makespan (the paper's 'total throughput')."""
        total = self.total_bytes()
        if self.makespan <= 0:
            return float("inf") if total > 0 else 0.0
        return total / self.makespan

    def by_tag(self, tag) -> list[FlowResult]:
        """All flow results carrying ``tag``, in submission order."""
        return [
            self[fid] for fid, t in zip(self._index, self._tag) if t == tag
        ]


# ---------------------------------------------------------------------------
# Per-run steps shared by FlowSim.run and BatchFlowSim.simulate_many


def _capacity_fn(capacities: "Mapping[int, float] | CapacityFn") -> CapacityFn:
    """``capacities`` as a callable from link id to bytes/second."""
    if isinstance(capacities, Mapping):
        return capacities.__getitem__
    if callable(capacities):
        return capacities
    raise ConfigError("capacities must be a mapping or callable")


def _link_caps(cap_of: CapacityFn, pop: _Population, fids: Sequence[FlowId]) -> np.ndarray:
    """Capacity of each of ``pop``'s real dense links, fetched once per
    link; a route across a link without a positive capacity (down, or
    not a number) is a :class:`ConfigError` naming the first such flow."""
    caps = np.array([float(cap_of(g)) for g in pop.uniq.tolist()], dtype=np.float64)
    bad = np.flatnonzero(~(caps > 0))
    if len(bad):
        e = int(np.flatnonzero(np.isin(pop.real_flat, bad))[0])
        i = int(np.searchsorted(pop.real_ptr, e, side="right")) - 1
        k = pop.real_flat[e]
        raise ConfigError(
            f"flow {fids[i]!r}: route crosses link {int(pop.uniq[k])} with "
            f"capacity {caps[k]}, not > 0 (link is down or misconfigured); "
            f"exclude the path or heal the link before submitting"
        )
    return caps


def _flow_vectors(parts: "Sequence[FlowColumns]", params: NetworkParams):
    """Per-flow ``(size, start_time, delay, rate_cap)`` float arrays over
    the rows of every part, in order; a ``None`` rate cap is the
    machine's single-stream default, ``min(stream_cap, mem_bw)``."""

    def column(name: str) -> np.ndarray:
        rows = itertools.chain.from_iterable(getattr(p, name) for p in parts)
        return np.array(list(rows), dtype=np.float64)

    size, start, delay, cap = map(column, ("size", "start_time", "delay", "rate_cap"))
    # ``None`` converts to NaN, and only ``None`` does: a NaN cap never
    # gets here (``check_flow`` rejects it).
    cap[np.isnan(cap)] = min(params.stream_cap, params.mem_bw)
    return size, start, delay, cap


def _pending(dep_count: np.ndarray, start: np.ndarray, delay: np.ndarray, off: int = 0):
    """The activation heap of the flows with no dependencies:
    ``(start_time + delay, off + index)`` entries."""
    roots = np.flatnonzero(dep_count == 0)
    heap = list(zip((start[roots] + delay[roots]).tolist(), (roots + off).tolist()))
    heapq.heapify(heap)
    return heap


def _checked_events(events) -> "list[CapacityEvent]":
    """Capacity events sorted by fire time, each a :class:`CapacityEvent`."""
    events = list(events or ())
    for e in events:
        if not isinstance(e, CapacityEvent):
            raise ConfigError(
                f"capacity_events must contain CapacityEvent records, got {e!r}"
            )
    return sorted(events)


class _CutSchedule:
    """One run's validated cutoff snapshots (see :meth:`FlowSim.run`).

    ``at`` maps each finite cutoff time to the ``(flow index, fid)``
    pairs it snapshots (indices offset by ``flow_off`` — a batch's global
    flow ids); ``rec`` collects the delivered bytes by fid as
    :meth:`apply` reaches each time.
    """

    __slots__ = ("at", "times", "next", "rec")

    def __init__(
        self, cutoffs, fid_to_idx: "dict[FlowId, int]", fids: Sequence[FlowId],
        flow_off: int = 0,
    ):
        self.at: dict[float, list[tuple[int, FlowId]]] = {}
        for fid, t_cut in (cutoffs or {}).items():
            i = fid_to_idx.get(fid)
            if i is None:
                raise ConfigError(f"cutoff names unknown flow {fid!r}")
            t_cut = float(t_cut)
            if t_cut < 0:
                raise ConfigError(f"flow {fid!r}: cutoff time must be >= 0, got {t_cut}")
            if np.isfinite(t_cut):
                self.at.setdefault(t_cut, []).append((flow_off + i, fids[i]))
        self.times = sorted(self.at)
        self.next = 0  # next unapplied cutoff time
        self.rec: dict = {}

    def upcoming(self) -> float:
        """The next unapplied cutoff time (``inf`` when none is left)."""
        return self.times[self.next] if self.next < len(self.times) else np.inf

    def apply(self, t: float, size, remaining, done) -> None:
        """Snapshot delivered bytes for every cutoff whose time arrived.

        Rates are piecewise constant and every caller lands here with
        ``remaining`` drained exactly to ``t``, so ``size - remaining``
        *is* the bytes delivered at the cut instant — no interpolation.
        """
        while self.next < len(self.times) and self.times[self.next] <= t + 1e-18:
            for i, fid in self.at[self.times[self.next]]:
                if done[i]:
                    got = float(size[i])
                else:
                    got = float(min(size[i], max(size[i] - remaining[i], 0.0)))
                self.rec[fid] = got
            self.next += 1


def _cancel_poller(cancel_check, cancel_every: int):
    """One run's cooperative cancellation poll, or ``None`` without a hook.

    The returned function polls ``cancel_check`` (default: the ambient
    :func:`repro.util.cancel.current_scope`) on every ``cancel_every``-th
    call; its argument describes the run for the cancellation message.
    """
    if cancel_every < 1:
        raise ConfigError(f"cancel_every must be >= 1, got {cancel_every}")
    if cancel_check is None:
        scope = current_scope()
        if scope is None:
            return None
        cancel_check = scope.check
    calls = 0

    def poll(describe: "Callable[[], str]") -> None:
        nonlocal calls
        calls += 1
        if calls < cancel_every:
            return
        calls = 0
        try:
            hit = cancel_check()
        except SimulationCancelled:
            get_registry().counter("flowsim.cancelled").inc()
            raise
        if hit:
            get_registry().counter("flowsim.cancelled").inc()
            raise SimulationCancelled(describe())

    return poll


def _stall_error(fids, pop: _Population, caps, bad) -> SimulationError:
    """The error for the flows ``bad`` (population indices, activation
    order) that a fresh solve left at zero rate: a :class:`LinkDownError`
    when their routes cross a zero-capacity link (``caps`` is indexed by
    dense link id), else starvation."""
    stalled = [fids[int(i)] for i in bad]
    down = sorted(
        {
            int(pop.uniq[k])
            for i in bad
            for k in pop.real_flat[pop.real_ptr[i] : pop.real_ptr[i + 1]]
            if caps[int(k)] <= 0
        }
    )
    if down:
        return LinkDownError(
            f"flows {stalled} stalled: their routes cross "
            f"zero-capacity link(s) {down} (link down); the "
            f"transfers can never complete",
            links=tuple(down),
        )
    return SimulationError(f"flows starved (zero rate): {stalled}")


def _flow_sim_result(
    cols: FlowColumns, pop: _Population, done, start, finish, link_bytes, n_updates,
    cut_rec, sdc,
) -> FlowSimResult:
    """One run's :class:`FlowSimResult` from its columns and its per-flow
    and per-dense-link arrays (busy links only), annotated with ``sdc``.
    The columns are copied: a program may grow after it ran."""
    if not done.all():
        stuck = [fid for fid, ok in zip(cols.fid, done.tolist()) if not ok]
        raise SimulationError(f"dependency cycle or stuck flows: {stuck}")
    busy = np.flatnonzero(link_bytes)
    return FlowSimResult(
        pop.fid_to_idx, list(cols.size), list(cols.tag), start, finish,
        dict(zip(pop.uniq[busy].tolist(), link_bytes[busy].tolist())),
        n_updates, cut_rec, sdc, None if sdc is None else list(cols.path),
    )


def _pop_due(pending, t: float, empty: "list[bool]", start_rec, new_act: "list[int]"):
    """Pop the flows due by ``t`` off the ``pending`` heap, in heap
    order, recording each one's start.  Flows with bytes to send join
    ``new_act``; flows that activate at one instant with nothing to send
    (``empty[i]``) are yielded as one ``(indices, instant)`` batch for
    the caller to finish, which may make more flows due."""
    while pending and pending[0][0] <= t + 1e-18:
        t_act, i = heapq.heappop(pending)
        start_rec[i] = t_act
        if not empty[i]:
            new_act.append(i)
            continue
        zero = [i]
        while pending and pending[0][0] == t_act and empty[pending[0][1]]:
            zero.append(heapq.heappop(pending)[1])
        start_rec[zero] = t_act
        yield np.asarray(zero, dtype=np.int64), t_act


def waterfill_csr(
    caps_full: np.ndarray,
    flat: np.ndarray,
    ptr: np.ndarray,
    lens: np.ndarray,
    t_flow: np.ndarray,
    t_ptr: np.ndarray,
    t_lens: np.ndarray,
    frozen: np.ndarray,
    nfl0: np.ndarray,
    nf: int,
    n_real: int,
    freeze_log: "list | None" = None,
    rows_unique: bool = True,
    fair_tol: float = 0.0,
) -> np.ndarray:
    """Max-min fair rates for one active set (progressive filling).

    Module-level so :class:`BatchFlowSim` (``batchsim``) can drive the
    same kernel over block-diagonally stacked scenarios without a
    :class:`FlowSim` instance.

    Fully vectorized over the precomputed link×flow incidence
    matrix, held in CSR form both ways:

    * ``flat``/``ptr``/``lens`` — flow → dense-link rows (each
      flow's real links followed by its private virtual cap link, so
      every row is non-empty and the filling always terminates);
    * ``t_flow``/``t_ptr`` — the transpose, link → flows crossing
      it (built once per run; each link saturates at most once per
      fill, so the freeze work it feeds is amortized O(entries)).

    ``frozen`` marks the *inactive* flows on entry (consumed, not
    copied); ``nfl0`` is the per-dense-link count of active-flow
    entries, maintained incrementally by :meth:`run` — dense links
    with a zero count (untouched by the active set) are priced out
    with an infinite water level rather than compacted away.
    ``n_real`` is the number of real links: dense ids at or above it
    are the per-flow virtual cap links (id ``n_real + flow``), which
    the freeze step exploits to skip the transpose gather when every
    saturated link is virtual.

    Per iteration, all unfrozen flows share one water ``level``:
    the bottleneck search is a handful of O(links) array ops, links
    saturated at the level freeze their unfrozen flows via the
    transpose slices, and the frozen rows' counts retire with one
    ``np.subtract.at``.  Returns the rate vector over *all* flows
    (inactive entries are 0; callers slice the active set).

    ``freeze_log``, when given, receives one sorted array of flow
    indices per filling iteration — the flows frozen at that
    bottleneck level (used by the property tests to compare freeze
    order against the reference implementation).
    """
    # Compact to the links the active set actually touches (every
    # dense link with a positive count) — one linear mask + remap
    # per fill, so the per-iteration scans below shrink with the
    # active set instead of staying O(all links) for tail events.
    live_idx = (nfl0 > 0).nonzero()[0]
    remap = np.empty(len(caps_full), dtype=np.int64)
    remap[live_idx] = np.arange(len(live_idx), dtype=np.int64)
    caps_live = caps_full[live_idx]
    nfl = nfl0[live_idx]
    # Per-link *absolute saturation levels*: link l saturates when
    # the shared water level reaches ``s[l]``; its remaining capacity
    # at level h is implicitly ``(s[l] - h) * nfl[l]``, so no
    # per-link capacity needs materializing.  Between freezes
    # nothing about a link changes — ``s`` only needs recomputing
    # for the links the newly frozen flows touch (``s_new = level +
    # (s_old - level) * n_old / n_new``), and the per-iteration
    # bottleneck search is a single min plus one equality scan (the
    # bottleneck link hits its own minimum exactly; independent
    # near-ties land in their own iterations at levels within float
    # rounding of each other).  Links whose flows all froze are
    # priced out at an infinite level.
    s = caps_live / nfl
    n = len(ptr) - 1
    rate = np.zeros(n)
    fbuf = np.zeros(n, dtype=bool)  # per-iteration freeze dedup scratch
    n_frozen = 0
    level = 0.0

    # Saturation levels only ever rise (freezing a flow weakly raises
    # every touched link's level), so the bottleneck search can run
    # over a small *candidate pool* of the currently-lowest levels,
    # rebuilt via one ``np.partition`` only when the pool's minimum
    # climbs past its admission threshold.  Every saturated link goes
    # dead, so a pool of ``_POOL`` links sustains about that many
    # iterations between O(links) rebuilds.
    _POOL = 64
    use_pool = len(s) > 4 * _POOL
    if use_pool:
        t_thr = float(np.partition(s, _POOL)[_POOL])
        C = (s <= t_thr).nonzero()[0]

    ftol = fair_tol
    sub_at = np.subtract.at
    concat = np.concatenate
    s_item = s.item
    nfl_item = nfl.item
    remap_item = remap.item
    ptr_item = ptr.item
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(nf + 1):
            if n_frozen == nf:
                break
            if use_pool:
                sC = s[C]
                smin = float(sC.min())
                if smin > t_thr:
                    t_thr = float(np.partition(s, _POOL)[_POOL])
                    C = (s <= t_thr).nonzero()[0]
                    sC = s[C]
                    smin = float(sC.min())
            else:
                smin = float(s.min())
            if smin == np.inf:  # pragma: no cover - virtual links prevent this
                raise SimulationError("waterfill: no live links but unfrozen flows remain")
            prev = level
            if smin > level:
                level = smin
            # Saturated links freeze every unfrozen flow crossing them.
            # fair_tol > 0 groups near-ties: links whose fair share is
            # within (1 + fair_tol) of the bottleneck freeze together,
            # trading <= fair_tol relative rate error for far fewer
            # filling iterations on large active sets.
            if ftol > 0:
                bound = prev + (level - prev) * (1 + ftol)
                if use_pool and bound > t_thr:
                    # Widen the pool to cover the whole grouping window.
                    t_thr = bound
                    C = (s <= t_thr).nonzero()[0]
                    sC = s[C]
                if use_pool:
                    sat_links = C[(sC <= bound).nonzero()[0]]
                else:
                    sat_links = (s <= bound).nonzero()[0]
            elif use_pool:
                sat_links = C[sC == smin]
            else:
                sat_links = (s == smin).nonzero()[0]
            sat_orig = live_idx[sat_links]  # transpose slices use dense ids
            ks = sat_orig.tolist()
            if ks[0] >= n_real:
                # Every saturated link is a private virtual cap link
                # (dense ids sorted, so checking the smallest
                # suffices).  Each carries exactly its own flow,
                # unfrozen by construction while its count is live —
                # the freeze set is just the id offset, with no
                # transpose gather and no dedup.  Rate-cap ties
                # (many flows pinned at the same stream cap) make
                # this the dominant shape on parameterized machines.
                newly = sat_orig - n_real
            else:
                if len(ks) == 1:
                    k = ks[0]
                    cand = t_flow[t_ptr[k] : t_ptr[k + 1]]
                elif len(ks) <= 32:
                    cand = concat([t_flow[t_ptr[k] : t_ptr[k + 1]] for k in ks])
                else:
                    cand = t_flow[_segment_gather(t_ptr, t_lens, sat_orig)]
                cand = cand[~frozen[cand]]
                if not len(cand):  # pragma: no cover - filling invariant
                    raise SimulationError(
                        "waterfill: no flow froze in an iteration"
                    )
                if rows_unique and len(ks) == 1:
                    # One saturated link and duplicate-free rows: its
                    # unfrozen flow list is already distinct (and sorted).
                    newly = cand
                else:
                    # Dedup via the scratch flag array (a flow can sit
                    # on several links saturating in the same
                    # iteration) — cheaper than a sort-based
                    # ``np.unique`` in the hot loop.
                    fbuf[cand] = True
                    newly = fbuf.nonzero()[0]
                    fbuf[newly] = False
            js = newly.tolist()
            nj = len(js)
            n_frozen += nj
            if freeze_log is not None:
                freeze_log.append(newly)
            if n_frozen == nf:
                # Last freeze of the fill (frequently the largest —
                # the whole remaining set pinned at a shared rate
                # cap): the link-state update below would never be
                # read again, so skip it.
                frozen[newly] = True
                rate[newly] = level
                break
            # Retire every entry of every newly frozen flow and bring
            # only the touched links' state current.  One or two
            # frozen flows with short rows (the common case — freezes
            # of one or two flows make up over 40% of iterations):
            # plain scalar arithmetic over their handful of links
            # beats the dozen-odd vectorized dispatches below, and
            # applying the flows one after the other is algebraically
            # the same count-rescaling as the batched update.
            # (The ptr span covers every row between the first and
            # last frozen index, so it bounds their combined length
            # from above — a cheap two-lookup eligibility test.)
            if nj <= 2 and ptr_item(js[-1] + 1) - ptr_item(js[0]) <= 32:
                for j in js:
                    frozen[j] = True
                    rate[j] = level
                    for gl in flat[ptr[j] : ptr[j + 1]].tolist():
                        li = remap_item(gl)
                        n_o = nfl_item(li)
                        n_n = n_o - 1.0
                        nfl[li] = n_n
                        if n_n <= 0.0:
                            s[li] = np.inf
                        else:
                            s[li] = level + (s_item(li) - level) * (n_o / n_n)
                continue
            frozen[newly] = True
            rate[newly] = level
            # Duplicate link indices (several frozen flows sharing a
            # link) are safe in the batched update — the fancy-index
            # updates compute one value per link from the same
            # gathered originals, while ``np.subtract.at`` decrements
            # per entry.
            if nj == 1:
                links = remap[flat[ptr[js[0]] : ptr[js[0] + 1]]]
            elif nj <= 32:
                links = remap[concat([flat[ptr[j] : ptr[j + 1]] for j in js])]
            else:
                links = remap[flat[_segment_gather(ptr, lens, newly)]]
            s_old = s[links]
            n_old = nfl[links]
            sub_at(nfl, links, 1.0)
            new_n = nfl[links]
            # new_n == 0 (a link losing its last unfrozen flow — at
            # least the saturated ones, every iteration) divides to
            # inf/nan here; those entries are overwritten with the
            # infinite price right after, and the fill-wide errstate
            # silences the transient warnings.
            s_new = level + (s_old - level) * (n_old / new_n)
            s[links] = s_new
            dead_sel = links[new_n <= 0]
            if len(dead_sel):
                s[dead_sel] = np.inf
        else:  # pragma: no cover - loop bound is nf freezes
            raise SimulationError("waterfill did not converge")
    return rate


class FlowSim:
    """Max-min fair fluid simulator over an arbitrary link set.

    Args:
        capacities: mapping or callable giving each directed link id its
            capacity in bytes/second.
        params: machine constants (only ``stream_cap``/``mem_bw`` are used
            here; overhead constants are applied by the layers that build
            flows, as ``Flow.delay``).
        batch_tol: relative completion-batching tolerance (0 = exact).
        fair_tol: waterfill near-tie grouping tolerance (0 = exact
            max-min fairness; small values like 0.02 speed up very large
            active sets with a bounded relative rate error).
        lazy_frac: lazy rate-update threshold (0 = recompute at every
            event).  With ``lazy_frac > 0``, surviving flows keep their
            frozen (still capacity-feasible) rates after completions
            until the freed bandwidth exceeds this fraction of the last
            allocation — a *conservative* approximation (rates are never
            overestimated) that collapses thousands of rate updates on
            very large homogeneous phases.
        incremental: component-local re-solve policy (default
            ``"auto"``).  Max-min allocations decompose over the
            connected components of the link×flow incidence graph, so
            each event only re-waterfills the component(s) it touches,
            and a flow whose real links are all strictly unsaturated
            completes without any re-solve at all (its removal provably
            changes no other flow's rate).  The results are exact —
            identical to the full re-solve up to float rounding (≤1e-12
            relative, see ``tests/test_flowsim_incremental.py``).  The
            per-event component bookkeeping has a fixed cost, so it only
            pays off once the active system is big enough for full
            re-solves to hurt: ``"auto"`` enables it for runs of at
            least ``_INC_AUTO_MIN`` flows and uses the plain full
            re-solve below that (where the full solve is already a few
            vectorized dispatches).  ``True`` forces incremental at any
            size (the property tests do, to exercise the path on small
            randomized systems); ``False`` forces the full re-solve on
            every event for A/B checks.  Only effective in
            exact-fairness mode: ``fair_tol > 0`` groups near-ties
            *across* component boundaries and ``lazy_frac > 0`` has its
            own staleness rule, so either falls back to full re-solves.
    """

    def __init__(
        self,
        capacities: "Mapping[int, float] | CapacityFn",
        params: NetworkParams = MIRA_PARAMS,
        *,
        batch_tol: float = 0.0,
        fair_tol: float = 0.0,
        lazy_frac: float = 0.0,
        incremental: "bool | str" = "auto",
    ):
        self._cap_of = _capacity_fn(capacities)
        if batch_tol < 0:
            raise ConfigError(f"batch_tol must be >= 0, got {batch_tol}")
        if fair_tol < 0:
            raise ConfigError(f"fair_tol must be >= 0, got {fair_tol}")
        if lazy_frac < 0:
            raise ConfigError(f"lazy_frac must be >= 0, got {lazy_frac}")
        if incremental not in (True, False, "auto"):
            raise ConfigError(
                f"incremental must be True, False or 'auto', got {incremental!r}"
            )
        self.params = params
        self.batch_tol = float(batch_tol)
        self.fair_tol = float(fair_tol)
        self.lazy_frac = float(lazy_frac)
        self.incremental = incremental

    # ------------------------------------------------------------------ run

    def run(
        self,
        flows: "FlowColumns | Sequence[Flow]",
        capacity_events: "Sequence[CapacityEvent] | None" = None,
        *,
        probe: "TimeSeriesProbe | None" = None,
        t_base: float = 0.0,
        cutoffs: "Mapping[FlowId, float] | None" = None,
        cancel_check: "Callable[[], object] | None" = None,
        cancel_every: int = 64,
        sdc=None,
    ) -> FlowSimResult:
        """Simulate all flows to completion and return per-flow results.

        ``flows`` is a program's :class:`~repro.network.flow.FlowColumns`
        (:attr:`repro.mpi.program.FlowProgram.columns`), read as is, or a
        sequence of :class:`Flow` records, turned into columns once.

        ``sdc`` (a :class:`repro.machine.faults.SDCModel`) annotates the
        result with per-flow wire-corruption probabilities — see
        :meth:`FlowSimResult.wire_flip_probability`.  Corruption is
        *silent*: it never alters rates, timings or delivered bytes, so
        passing a model cannot change any physical output.

        ``capacity_events`` schedules mid-run capacity changes (link
        degradation, failure, or recovery); each triggers an exact rate
        recomputation at its fire time.  Events on links no submitted
        flow traverses are ignored.

        ``probe`` samples per-link rate/utilisation, per-link queue
        depth and delivered bytes on a fixed simulated-time grid inside
        this loop (see :class:`~repro.obs.metrics.TimeSeriesProbe`); the
        samples are fed straight from the incremental incidence state
        (per-link counts and the active-set entry slice), so enabling
        the probe prices one segmented ``np.add.at`` per window that
        contains a grid tick.  ``t_base`` is this run's absolute
        simulated start time, used to keep probe samples and recorded
        spans monotone when a caller (the resilience executor) chains
        several runs on one timeline.

        ``cutoffs`` maps flow ids to *cutoff* times (run-local, like
        event times): the simulator snapshots each named flow's
        delivered bytes at exactly that instant and reports them in
        :attr:`FlowSimResult.cutoff_bytes`.  Rates are piecewise
        constant, so the snapshot is exact and — unlike a capacity
        event — triggers **no rate recomputation**: flow timings are
        unchanged to within one linear-drain split per cutoff.  The
        resilience executor registers each carrier's deadline here so a
        cancelled carrier's partial progress can be credited byte-for-
        byte instead of re-sending its entire share.

        ``cancel_check`` is the **cooperative cancellation hook**: a
        callable polled once every ``cancel_every`` event-loop
        iterations.  It either raises
        :class:`~repro.util.validation.SimulationCancelled` itself (the
        :meth:`repro.util.cancel.CancelScope.check` idiom) or returns a
        truthy value, in which case the simulator raises on its behalf —
        so a deadline installed by the scenario service cuts a stuck or
        oversized run off mid-simulation instead of hanging a worker.
        When ``None``, the ambient :func:`repro.util.cancel.cancel_scope`
        (if one is installed) is polled instead; with neither, the hook
        costs nothing.  The check never mutates simulator state, so a
        hook that is installed but never fires leaves results
        byte-identical to an unhooked run.
        """
        cols = FlowColumns.of(flows)
        if not len(cols):
            return FlowSimResult.empty()
        if t_base < 0:
            raise ConfigError(f"t_base must be >= 0, got {t_base}")
        poll = _cancel_poller(cancel_check, cancel_every)
        if probe is not None:
            probe.rebase(t_base)
        pop = _population(cols)
        caps = _link_caps(self._cap_of, pop, cols.fid)
        events = _checked_events(capacity_events)
        cuts = _CutSchedule(cutoffs, pop.fid_to_idx, cols.fid)
        n = len(cols)
        nl = len(caps)
        uniq, link_index, rows_unique = pop.uniq, pop.link_index, pop.rows_unique
        real_flat, real_ptr, real_lens = pop.real_flat, pop.real_ptr, pop.real_lens
        flat, ptr, lens_full = pop.flat, pop.ptr, pop.lens_full
        t_flow, t_ptr, t_lens = pop.t_flow, pop.t_ptr, pop.t_lens
        child_flat, child_ptr, child_lens = pop.child_flat, pop.child_ptr, pop.child_lens
        dep_count = pop.dep_count0.copy()  # consumed as dependencies release
        size_arr, start_arr, delay_arr, rate_caps_all = _flow_vectors([cols], self.params)
        remaining = size_arr.copy()
        empty = (size_arr <= _EPS_BYTES).tolist()  # activates with nothing to send
        # Dense link space: real links, then one virtual cap link per flow.
        caps_full = np.concatenate([caps, rate_caps_all])

        # Incremental re-solve state (see ``incremental`` in the class
        # docstring).  ``link_load`` tracks each real dense link's total
        # active rate so completions can prove themselves *clean* (all
        # links strictly unsaturated → removal changes no other rate);
        # ``dirty_seeds`` accumulates the flows whose components need a
        # re-waterfill at the next fill point.
        inc = (
            self.incremental is True
            or (self.incremental == "auto" and n >= _INC_AUTO_MIN)
        ) and self.fair_tol == 0 and self.lazy_frac == 0
        is_act = np.zeros(n, dtype=bool)
        rate_all = np.zeros(n)  # current rate per flow (0 when inactive)
        link_load = np.zeros(nl)  # per-real-link sum of active rates
        dirty_seeds: list[np.ndarray] = []  # arrivals / cap drops → BFS
        freed_links: list[np.ndarray] = []  # departures / cap raises → grow set

        ready_time = np.zeros(n)  # max(dep finishes), running
        start_rec = np.full(n, np.nan)
        finish_rec = np.full(n, np.nan)
        done = np.zeros(n, dtype=bool)
        link_bytes_arr = np.zeros(nl)

        pending = _pending(dep_count, start_arr, delay_arr)  # (activation time, idx)

        act = _EMPTY_I64  # active flow indices, activation order
        # Incremental per-dense-link count of active-flow entries; the
        # waterfill's starting point and the probe's queue depths.
        nfl_act = np.zeros(nl + n, dtype=np.float64)
        T = 0.0
        n_updates = 0
        delivered = 0.0

        # Active-set incidence cache, re-gathered only when `act` changes.
        act_ent_links = _EMPTY_I64
        act_ent_flow = _EMPTY_I64
        act_dirty = True

        def refresh_act_cache():
            nonlocal act_ent_links, act_ent_flow, act_dirty
            ent = _segment_gather(ptr, lens_full, act)
            act_ent_links = flat[ent]
            act_ent_flow = np.repeat(
                np.arange(len(act), dtype=np.int64), lens_full[act]
            )
            act_dirty = False

        def affected_flows(seeds: np.ndarray) -> np.ndarray:
            """Active flows of the incidence components touching ``seeds``.

            BFS over the link×flow incidence graph (flow CSR one way,
            transpose the other), restricted to *active* flows: two
            active flows are coupled iff they share a real link, so the
            union of whole components returned here can be re-waterfilled
            exactly while every other active flow keeps its frozen rate.
            Seeds may be inactive — a just-finished flow seeds through
            its links.  Once most of the active set is visited the BFS
            stops and returns the whole set: re-solving extra whole
            components is always exact, and ``act`` is the cheapest
            superset.
            """
            stop_at = (len(act) * 3) // 4
            vis_f = np.zeros(n, dtype=bool)
            vis_l = np.zeros(nl, dtype=bool)
            frontier = np.unique(seeds)
            vis_f[frontier] = True
            comp = [frontier[is_act[frontier]]]
            n_vis = len(comp[0])
            if n_vis > stop_at:
                return act
            while len(frontier):
                links = real_flat[_segment_gather(real_ptr, real_lens, frontier)]
                links = links[~vis_l[links]]
                if not len(links):
                    break
                vis_l[links] = True
                fl = t_flow[_segment_gather(t_ptr, t_lens, np.unique(links))]
                fl = fl[is_act[fl] & ~vis_f[fl]]
                if not len(fl):
                    break
                frontier = np.unique(fl)
                vis_f[frontier] = True
                comp.append(frontier)
                n_vis += len(frontier)
                if n_vis > stop_at:
                    return act
            return np.concatenate(comp) if len(comp) > 1 else comp[0]

        def check_rates_positive(idx: np.ndarray, r: np.ndarray) -> None:
            """Raise on stalled/starved flows in one freshly solved set."""
            if np.any(r <= 0):
                raise _stall_error(cols.fid, pop, caps_full, idx[r <= 0])

        def finish_flows(b: np.ndarray, t: float):
            """Record completions and batch-release dependents.

            Does *not* touch the active-set state — callers decrement
            ``nfl_act`` for flows that were bandwidth-active.
            """
            nonlocal delivered
            done[b] = True
            finish_rec[b] = t
            delivered += float(size_arr[b].sum())
            ns = np.isnan(start_rec[b])
            if ns.any():
                start_rec[b[ns]] = t
            ent = _segment_gather(real_ptr, real_lens, b)
            if len(ent):
                np.add.at(
                    link_bytes_arr, real_flat[ent], np.repeat(size_arr[b], real_lens[b])
                )
            ch = _segment_gather(child_ptr, child_lens, b)
            if len(ch):
                ch_idx = child_flat[ch]
                np.maximum.at(ready_time, ch_idx, t)
                np.subtract.at(dep_count, ch_idx, 1)
                uniq_ch = np.unique(ch_idx)
                ready = uniq_ch[dep_count[uniq_ch] == 0]
                t_act = np.maximum(ready_time[ready], start_arr[ready]) + delay_arr[ready]
                for entry in zip(t_act.tolist(), ready.tolist()):
                    heapq.heappush(pending, entry)

        def activate_due(t: float):
            """Move pending flows whose activation time has arrived.

            Activations are batched: the active set, per-link counts and
            incidence cache are updated once per call, not per flow.
            """
            nonlocal act, act_dirty
            new_act: list[int] = []
            moved = bool(pending) and pending[0][0] <= t + 1e-18
            for zero in _pop_due(pending, t, empty, start_rec, new_act):
                finish_flows(*zero)
            if new_act:
                b = np.asarray(new_act, dtype=np.int64)
                np.add.at(nfl_act, flat[_segment_gather(ptr, lens_full, b)], 1.0)
                act = np.concatenate([act, b])
                act_dirty = True
                is_act[b] = True
                if inc:
                    dirty_seeds.append(b)
            return moved

        def apply_cuts_due(t: float):
            cuts.apply(t, size_arr, remaining, done)

        ep = 0  # next unapplied capacity event

        def apply_events_due(t: float):
            """Apply capacity events whose fire time has arrived."""
            nonlocal ep
            changed = False
            while ep < len(events) and events[ep].time <= t + 1e-18:
                e = events[ep]
                k = link_index.get(e.link)
                if k is not None:
                    old_cap = caps_full[k]
                    caps_full[k] = e.capacity
                    changed = True
                    if inc and e.capacity != old_cap:
                        # An event on an idle link re-solves nothing now
                        # (future activations read the updated caps).  A
                        # raise only lets flows *grow* — exactly like a
                        # departure freeing the link; a drop can shrink
                        # flows and cascade, so it re-solves the touched
                        # component(s).
                        fl = t_flow[t_ptr[k] : t_ptr[k + 1]]
                        fl = fl[is_act[fl]]
                        if len(fl):
                            if e.capacity > old_cap:
                                freed_links.append(
                                    np.asarray([k], dtype=np.int64)
                                )
                            else:
                                dirty_seeds.append(fl)
                ep += 1
            return changed

        rates: "np.ndarray | None" = None  # aligned with `act`
        freed_rate = 0.0
        total_rate_at_fill = 0.0

        def probe_window(t0: float, t1: float, have_rates: bool) -> None:
            """Feed one constant-rate window [t0, t1) to the probe.

            Aggregation runs once per window containing a grid tick —
            rates are frozen between events, so the samples are exact.
            The per-link series come straight from the incremental
            state: queue depths are ``nfl_act`` and rates one segmented
            ``np.add.at`` over the cached active incidence slice.
            """
            if t1 <= t0 or not probe.due(t1):
                return
            if not (have_rates and len(act)):
                probe.record_window(t0, t1, {}, {}, {}, 0, delivered)
                return
            if act_dirty:
                refresh_act_cache()
            real = act_ent_links < nl
            agg = np.zeros(nl)
            np.add.at(agg, act_ent_links[real], rates[act_ent_flow[real]])
            ks = np.flatnonzero(nfl_act[:nl] > 0)
            cap_k = caps_full[ks]
            util = np.divide(
                agg[ks], cap_k, out=np.zeros(len(ks)), where=cap_k > 0
            )
            probe.record_window_dense(
                t0, t1, uniq[ks], agg[ks], util,
                nfl_act[ks].astype(np.int64), len(act), delivered,
            )

        while pending or len(act):
            if poll is not None:
                poll(lambda: f"simulation cancelled by hook at T={T:.6g}s "
                             f"({n_updates} rate updates)")
            if not len(act):
                # Jump to the next activation.
                T_new = max(T, pending[0][0])
                if probe is not None:
                    probe_window(T, T_new, False)
                T = T_new
                apply_cuts_due(T)
                apply_events_due(T)
                if activate_due(T) and not inc:
                    rates = None
                continue

            if rates is not None and (dirty_seeds or freed_links):
                if not dirty_seeds:
                    # Grow-set repair for departures and capacity raises.
                    # Freeing capacity on links ``L`` cannot disturb a
                    # flow whose max-min *bottleneck certificate* — a
                    # saturated link it tops (Bertsekas–Gallager), or its
                    # own rate cap — survives outside L: that link's load
                    # and flow set are untouched, so the certificate
                    # still holds.  When every below-cap flow on L keeps
                    # one (``G0`` empty, the common case) the old rates
                    # are still exactly max-min and the event costs a few
                    # gathers.  Otherwise re-solve G0 together with its
                    # one-hop squeeze partners (top flows on G0's
                    # surviving saturated links — max-min is *not*
                    # monotone under departures: a grower can lower a
                    # neighbour) against residual capacities, then audit
                    # the bottleneck criterion globally; a wider cascade
                    # fails the audit and falls back to the full re-solve
                    # below.
                    L = (
                        freed_links[0]
                        if len(freed_links) == 1
                        else np.unique(np.concatenate(freed_links))
                    )
                    freed_links.clear()
                    C = t_flow[_segment_gather(t_ptr, t_lens, L)]
                    C = C[is_act[C]]
                    if len(C):
                        C = np.unique(C)
                        C = C[rate_all[C] < rate_caps_all[C] * (1.0 - 1e-12)]
                    G0 = C
                    if len(C):
                        if act_dirty:
                            refresh_act_cache()
                        real_a = act_ent_links < nl
                        lk_a = act_ent_links[real_a]
                        fo_a = act_ent_flow[real_a]
                        r_a = rate_all[act]
                        tmax = np.zeros(nl)
                        np.maximum.at(tmax, lk_a, r_a[fo_a])
                        sat = link_load >= caps_full[:nl] * (1.0 - 1e-12)
                        in_l = np.zeros(nl, dtype=bool)
                        in_l[L] = True
                        ent_c = _segment_gather(real_ptr, real_lens, C)
                        lk_c = real_flat[ent_c]
                        rep_c = np.repeat(
                            np.arange(len(C), dtype=np.int64), real_lens[C]
                        )
                        bn = (
                            sat[lk_c]
                            & ~in_l[lk_c]
                            & (rate_all[C][rep_c] >= tmax[lk_c] * (1.0 - 1e-12))
                        )
                        keep = np.zeros(len(C), dtype=bool)
                        keep[rep_c[bn]] = True
                        G0 = C[~keep]
                    if len(G0):
                        ent_g = _segment_gather(real_ptr, real_lens, G0)
                        lk_g = real_flat[ent_g]
                        sq = np.zeros(nl, dtype=bool)
                        mg = sat[lk_g] & ~in_l[lk_g]
                        sq[lk_g[mg]] = True
                        mq = sq[lk_a] & (
                            r_a[fo_a] >= tmax[lk_a] * (1.0 - 1e-12)
                        )
                        S = np.unique(np.concatenate([G0, act[fo_a[mq]]]))
                        if len(S) == 1 and rows_unique:
                            # A lone grower's max-min rate is the least
                            # residual capacity over its links (same
                            # arithmetic the sub-solve would perform).
                            f0 = int(S[0])
                            s0 = real_ptr[f0]
                            lks = real_flat[s0 : s0 + real_lens[f0]]
                            resid = caps_full[lks] - (
                                link_load[lks] - rate_all[f0]
                            )
                            r_new = np.array([
                                min(
                                    float(resid.min()) if len(lks) else np.inf,
                                    float(rate_caps_all[f0]),
                                )
                            ])
                            n_updates += 1
                            check_rates_positive(S, r_new)
                            link_load[lks] += r_new[0] - rate_all[f0]
                            rate_all[f0] = r_new[0]
                        else:
                            caps_res = caps_full.copy()
                            ent_s = _segment_gather(real_ptr, real_lens, S)
                            load_s = np.zeros(nl)
                            np.add.at(
                                load_s,
                                real_flat[ent_s],
                                np.repeat(rate_all[S], real_lens[S]),
                            )
                            caps_res[:nl] -= link_load - load_s
                            frozen_s = np.ones(n, dtype=bool)
                            frozen_s[S] = False
                            nfl_s = np.zeros(nl + n)
                            np.add.at(
                                nfl_s,
                                flat[_segment_gather(ptr, lens_full, S)],
                                1.0,
                            )
                            r_new = waterfill_csr(
                                caps_res, flat, ptr, lens_full, t_flow, t_ptr,
                                t_lens, frozen_s, nfl_s, len(S), nl,
                                rows_unique=rows_unique,
                            )[S]
                            n_updates += 1
                            check_rates_positive(S, r_new)
                            np.add.at(
                                link_load,
                                real_flat[ent_s],
                                np.repeat(r_new - rate_all[S], real_lens[S]),
                            )
                            rate_all[S] = r_new
                        # Global audit (Bertsekas–Gallager): the repaired
                        # allocation is max-min iff every active flow
                        # tops a saturated link or sits at its rate cap.
                        r_a = rate_all[act]
                        tmax[:] = 0.0
                        np.maximum.at(tmax, lk_a, r_a[fo_a])
                        sat = link_load >= caps_full[:nl] * (1.0 - 1e-12)
                        ok = sat[lk_a] & (
                            r_a[fo_a] >= tmax[lk_a] * (1.0 - 1e-12)
                        )
                        has_bn = np.zeros(len(act), dtype=bool)
                        has_bn[fo_a[ok]] = True
                        if np.all(
                            has_bn
                            | (r_a >= rate_caps_all[act] * (1.0 - 1e-12))
                        ):
                            rates = r_a
                        else:
                            rates = None  # cascade wider than one hop
                else:
                    # Component-local re-solve: waterfill only the dirty
                    # components (everything else frozen).  The subset's
                    # per-link counts are rebuilt from its own rows —
                    # equal to ``nfl_act`` on every link the subset
                    # touches, because components are link-disjoint.
                    # Pending freed links fold in through their flows:
                    # any flow a grow-repair would touch sits on a freed
                    # link, so seeding those flows keeps the component
                    # superset exact.
                    if freed_links:
                        L = np.unique(np.concatenate(freed_links))
                        freed_links.clear()
                        fl = t_flow[_segment_gather(t_ptr, t_lens, L)]
                        fl = fl[is_act[fl]]
                        if len(fl):
                            dirty_seeds.append(fl)
                    seeds = (
                        dirty_seeds[0]
                        if len(dirty_seeds) == 1
                        else np.concatenate(dirty_seeds)
                    )
                    dirty_seeds.clear()
                    S = affected_flows(seeds)
                    if len(S):
                        frozen_s = np.ones(n, dtype=bool)
                        frozen_s[S] = False
                        nfl_s = np.zeros(nl + n)
                        np.add.at(
                            nfl_s, flat[_segment_gather(ptr, lens_full, S)], 1.0
                        )
                        r_new = waterfill_csr(
                            caps_full, flat, ptr, lens_full, t_flow, t_ptr,
                            t_lens, frozen_s, nfl_s, len(S), nl,
                            rows_unique=rows_unique,
                        )[S]
                        n_updates += 1
                        check_rates_positive(S, r_new)
                        ent_r = _segment_gather(real_ptr, real_lens, S)
                        if len(ent_r):
                            np.add.at(
                                link_load,
                                real_flat[ent_r],
                                np.repeat(r_new - rate_all[S], real_lens[S]),
                            )
                        rate_all[S] = r_new
                        rates = rate_all[act]

            if rates is None:
                # Full re-solve: first fill, legacy (non-incremental)
                # triggers, and the incremental paths' audit fallback.
                dirty_seeds.clear()
                freed_links.clear()
                frozen0 = np.ones(n, dtype=bool)
                frozen0[act] = False
                rates = waterfill_csr(
                    caps_full, flat, ptr, lens_full, t_flow, t_ptr, t_lens,
                    frozen0, nfl_act, len(act), nl, rows_unique=rows_unique,
                    fair_tol=self.fair_tol,
                )[act]
                n_updates += 1
                check_rates_positive(act, rates)
                total_rate_at_fill = float(rates.sum())
                freed_rate = 0.0
                if inc:
                    rate_all[:] = 0.0
                    rate_all[act] = rates
                    link_load[:] = 0.0
                    if act_dirty:
                        refresh_act_cache()
                    real = act_ent_links < nl
                    np.add.at(
                        link_load, act_ent_links[real], rates[act_ent_flow[real]]
                    )

            if getattr(self, "_selfcheck", False) and inc and len(act):
                fz = np.ones(n, dtype=bool)
                fz[act] = False
                ref = waterfill_csr(
                    caps_full, flat, ptr, lens_full, t_flow, t_ptr, t_lens,
                    fz, nfl_act, len(act), nl, rows_unique=rows_unique,
                )[act]
                bad = np.abs(rates - ref) > 1e-9 * np.maximum(ref, 1.0)
                if bad.any():
                    raise RuntimeError(
                        f"divergence T={T}: flows={act[bad]} inc={rates[bad]} ref={ref[bad]}"
                    )

            next_evt = events[ep].time if ep < len(events) else np.inf
            next_cut = cuts.upcoming()
            ttf = remaining[act] / rates
            dt_complete = float(ttf.min())
            dt_act = (pending[0][0] - T) if pending else np.inf
            dt_int = min(dt_act, next_evt - T)
            if (
                next_cut - T < dt_int * (1 - _REL_TOL)
                and next_cut - T < dt_complete * (1 - _REL_TOL)
            ):
                # A cutoff snapshot strictly precedes every activation,
                # capacity event and completion: split the linear drain
                # at the cut instant and *keep* the rate vector — the
                # split is invisible to flow timings, which is what makes
                # fault-free runs byte-identical with or without cutoffs.
                dt = max(next_cut - T, 0.0)
                if probe is not None:
                    probe_window(T, T + dt, True)
                remaining[act] = np.maximum(remaining[act] - rates * dt, 0.0)
                T += dt
                apply_cuts_due(T)
                continue
            if dt_int < dt_complete * (1 - _REL_TOL):
                # An activation or a capacity change interrupts before any
                # completion; drain linearly, then recompute rates.
                dt = max(dt_int, 0.0)
                if probe is not None:
                    probe_window(T, T + dt, True)
                remaining[act] = np.maximum(remaining[act] - rates * dt, 0.0)
                T += dt
                apply_cuts_due(T)
                activate_due(T)
                apply_events_due(T)
                if not inc:
                    rates = None
                continue

            dt = dt_complete
            if self.batch_tol > 0:
                # Batched completions never overshoot a pending cutoff
                # (but a cut inside the [dt_complete, dt) stretch must
                # not drag dt below the earliest completion either).
                dt = min(
                    dt_complete * (1 + self.batch_tol),
                    dt_act,
                    next_evt - T,
                    max(next_cut - T, dt_complete),
                )
            if probe is not None:
                probe_window(T, T + dt, True)
            remaining[act] = np.maximum(remaining[act] - rates * dt, 0.0)
            T += dt

            finished_mask = remaining[act] <= _EPS_BYTES
            if not finished_mask.any():  # pragma: no cover - dt covers the min
                raise SimulationError("no flow completed at a completion event")
            fin = act[finished_mask]
            np.subtract.at(nfl_act, flat[_segment_gather(ptr, lens_full, fin)], 1.0)
            finish_flows(fin, T)
            apply_cuts_due(T)
            act = act[~finished_mask]
            act_dirty = True
            is_act[fin] = False
            if inc:
                # Clean-completion test: a flow whose real links are all
                # strictly unsaturated crosses no remaining flow's
                # bottleneck, so its removal changes no other max-min
                # rate — no re-solve.  Links it leaves *saturated* are
                # recorded as freed; only their grow set re-solves.  The
                # threshold is conservative: waterfill drift is ~1e-13
                # relative, so a truly saturated link never shows 1e-9
                # of slack, while a false positive merely re-solves.
                ent_f = _segment_gather(real_ptr, real_lens, fin)
                if len(ent_f):
                    lk = real_flat[ent_f]
                    cap_l = caps_full[lk]
                    sat = link_load[lk] >= cap_l - cap_l * 1e-9
                    if sat.any():
                        freed_links.append(np.unique(lk[sat]))
                    np.subtract.at(
                        link_load, lk, np.repeat(rate_all[fin], real_lens[fin])
                    )
                rate_all[fin] = 0.0
                rates = rates[~finished_mask]
                activate_due(T)
                apply_events_due(T)
            else:
                # Lazy rate updates: survivors keep their (still feasible)
                # rates until enough bandwidth has been freed to matter.
                freed_rate += float(rates[finished_mask].sum())
                rates = rates[~finished_mask]
                if (
                    self.lazy_frac <= 0
                    or freed_rate > self.lazy_frac * max(total_rate_at_fill, 1e-30)
                    or not len(rates)
                ):
                    rates = None
                if activate_due(T):
                    rates = None
                if apply_events_due(T):
                    rates = None

        apply_cuts_due(np.inf)  # cuts past the makespan: flows fully delivered
        out = _flow_sim_result(
            cols, pop, done, start_rec, finish_rec, link_bytes_arr, n_updates,
            cuts.rec, sdc,
        )
        makespan = out.makespan
        if probe is not None:
            probe.record_final(makespan, delivered)
        tracer = get_tracer()
        if tracer.enabled:
            run_span = tracer.record(
                "flowsim.run",
                t_base,
                t_base + makespan,
                cat="flowsim",
                n_flows=n,
                n_rate_updates=n_updates,
                capacity_events=ep,
                delivered_bytes=delivered,
            )
            if run_span is not None:
                rows = zip(cols.fid, cols.size, cols.path, cols.tag)
                for i, (fid, size, path, tag) in enumerate(rows):
                    if i >= tracer.max_flow_spans:
                        tracer.n_dropped += n - i
                        break
                    if size <= 0:
                        continue
                    tracer.record(
                        f"flow:{fid}",
                        t_base + float(start_rec[i]),
                        t_base + float(finish_rec[i]),
                        cat="flow",
                        parent=run_span,
                        bytes=size,
                        hops=len(path),
                        tag=None if tag is None else str(tag),
                    )
        reg = get_registry()
        reg.counter("flowsim.runs").inc()
        reg.counter("flowsim.flows_completed").inc(n)
        reg.counter("flowsim.rate_updates").inc(n_updates)
        reg.counter("flowsim.capacity_events_applied").inc(ep)
        reg.counter("flowsim.delivered_bytes").inc(delivered)
        return out
