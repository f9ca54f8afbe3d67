"""Cross-scenario batched FlowSim: many independent runs, one kernel.

Campaigns, sweeps and the load harness execute thousands of *small*,
*independent* :class:`~repro.network.flowsim.FlowSim` runs — a few flows
on a few dozen links each.  Run serially, each one pays the fixed numpy
dispatch cost of a full event loop (array setup, waterfill calls on
single-digit active sets), and that overhead, not arithmetic, dominates.

:class:`BatchFlowSim` amortizes it by **stacking the scenarios' flow
populations block-diagonally** into one global system.  Each scenario's
population — the validated, cached structure :class:`FlowSim` itself
runs on (see the ``flowsim`` module docstring) — is translated by the
links and flows of the scenarios before it, not rebuilt: scenario
``i``'s real links occupy a private dense-id block, every flow gets its
private virtual rate-cap link after all real blocks, and one
:func:`_waterfill_blocks` pass per lockstep round solves *every* live
scenario's active set at once (per-scenario water levels, one global
segment-min per iteration).  Capacity checks, event and cutoff
validation, the stall error, the cancellation poll and result assembly
are the solo engine's own helpers.  Because the blocks
share no links, the stacked system decomposes into per-scenario
components and the progressive filling's per-link arithmetic only ever
mixes values from one scenario — each scenario's rates are **bit-equal**
to what its own full re-solve would produce (asserted by
``tests/test_batchsim.py``).

Clocks stay **per scenario**: each round, every live scenario advances
to *its own* next event (activation, capacity change, cutoff snapshot
or completion) and drains its flows over exactly the same time segments
a solo run would use, so results are byte-identical to per-scenario
solo runs with ``incremental=False`` (and within the usual ≤1e-12 of
the default incremental engine — see ``docs/PERFORMANCE.md``).

Scope: exact mode only (no ``batch_tol``/``fair_tol``/``lazy_frac``)
and no probes.  Per-scenario **capacity events** (mid-run link
degradation/failure/recovery, including hard-down links that surface as
per-scenario :class:`~repro.util.validation.LinkDownError`), per-flow
**cutoff snapshots** and cooperative **cancellation** are first-class:
a faulted scenario re-solves only its own block and its failure — with
``on_error="capture"`` — kills only that scenario, never its batch
neighbours.  That is what lets the resilience executor keep faulted
retry rounds on the batched path instead of dropping whole campaigns
serial (see :func:`repro.resilience.executor.run_resilient_transfer_many`).
"""

from __future__ import annotations

import heapq
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.network.flow import Flow, FlowColumns
from repro.network.flowsim import (
    _EMPTY_I64,
    _EPS_BYTES,
    _REL_TOL,
    CapacityEvent,
    CapacityFn,
    FlowSimResult,
    _cancel_poller,
    _capacity_fn,
    _checked_events,
    _csr_ptr,
    _CutSchedule,
    _flow_sim_result,
    _flow_vectors,
    _link_caps,
    _pending,
    _pop_due,
    _population,
    _Population,
    _segment_gather,
    _stall_error,
)
from repro.network.params import MIRA_PARAMS, NetworkParams
from repro.obs.metrics import get_registry
from repro.util.validation import ConfigError, SimulationError


def _waterfill_blocks(
    caps_full: np.ndarray,
    flat: np.ndarray,
    ptr: np.ndarray,
    lens: np.ndarray,
    t_flow: np.ndarray,
    t_ptr: np.ndarray,
    t_lens: np.ndarray,
    frozen: np.ndarray,
    nfl0: np.ndarray,
    unfrozen_c: np.ndarray,
    comp_flow: np.ndarray,
    comp_dense: np.ndarray,
    n_real: int,
) -> np.ndarray:
    """Component-parallel progressive filling over stacked scenarios.

    Equivalent to one :func:`~repro.network.flowsim.waterfill_csr` call
    per scenario — **bit-equal**, every per-link float op sees exactly
    the operands its solo counterpart would — but each iteration freezes
    the bottleneck of *every* live scenario at that scenario's own water
    level (``level_c``) instead of only the globally lowest one, so the
    iteration count is the *maximum* of the per-scenario filling depths
    rather than their sum.  That collapse is where batching wins: the
    O(links) bottleneck scans and transpose gathers are shared across
    scenarios per iteration instead of dispatched once per scenario per
    freeze.

    ``comp_flow[f]``/``comp_dense[l]`` give the scenario ordinal of each
    global flow / dense link; ``unfrozen_c`` holds the per-scenario
    unfrozen counts (consumed).  Blocks share no links, so per-scenario
    saturation levels evolve independently; the freeze-retirement update
    preserves :func:`waterfill_csr`'s two code shapes (scalar sequential
    for 1–2 short rows, batched rescale otherwise — chosen per scenario
    with the same eligibility test) so even the float *rounding* matches
    the solo kernel's.

    A zero-capacity link (a capacity event took it hard down) pins its
    scenario's water level at 0, freezing that scenario's flows at rate
    0 — exactly as the solo kernel does; the caller turns those zero
    rates into a per-scenario :class:`LinkDownError`.
    """
    live_idx = (nfl0 > 0).nonzero()[0]
    remap = np.empty(len(caps_full), dtype=np.int64)
    remap[live_idx] = np.arange(len(live_idx), dtype=np.int64)
    nfl = nfl0[live_idx]
    s = caps_full[live_idx] / nfl
    comp_live = comp_dense[live_idx]
    n = len(ptr) - 1
    rate = np.zeros(n)
    fbuf = np.zeros(n, dtype=bool)  # per-iteration freeze dedup scratch
    level_c = np.zeros(len(unfrozen_c))
    m = np.empty(len(unfrozen_c))
    todo = int(unfrozen_c.sum())
    sub_at = np.subtract.at
    ptr_item = ptr.item
    remap_item = remap.item
    nfl_item = nfl.item
    s_item = s.item
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n + 1):
            if todo == 0:
                break
            alive = unfrozen_c > 0
            m[:] = np.inf
            np.minimum.at(m, comp_live, s)
            if not np.isfinite(m[alive]).all():  # pragma: no cover
                raise SimulationError(
                    "waterfill: no live links but unfrozen flows remain"
                )
            np.maximum(level_c, m, out=level_c, where=alive)
            # Each live scenario's minimum-level links saturate this
            # iteration (exact equality, as in the solo kernel; dead
            # scenarios are masked so their inf == inf never matches).
            sat = alive[comp_live] & (s == m[comp_live])
            sat_orig = live_idx[sat.nonzero()[0]]
            if len(sat_orig) and sat_orig[0] >= n_real:
                # Every saturated link is a private virtual cap link
                # (dense ids ascend, so checking the smallest suffices):
                # the freeze set is the id offset, no gather, no dedup.
                newly = sat_orig - n_real
            else:
                cand = t_flow[_segment_gather(t_ptr, t_lens, sat_orig)]
                cand = cand[~frozen[cand]]
                fbuf[cand] = True
                newly = fbuf.nonzero()[0]
                fbuf[newly] = False
            if not len(newly):  # pragma: no cover - filling invariant
                raise SimulationError("waterfill: no flow froze in an iteration")
            cf = comp_flow[newly]
            frozen[newly] = True
            rate[newly] = level_c[cf]
            sub_at(unfrozen_c, cf, 1)
            todo -= len(newly)
            # Retire the frozen rows scenario by scenario.  ``newly``
            # ascends and flows are laid out per scenario, so the
            # groups are contiguous slices.
            bounds = np.flatnonzero(cf[1:] != cf[:-1]) + 1
            seg = [0, *bounds.tolist(), len(newly)]
            big: "list[np.ndarray] | None" = None
            for a, b in zip(seg[:-1], seg[1:]):
                c = int(cf[a])
                if unfrozen_c[c] == 0:
                    continue  # scenario finished; its links are never read again
                js = newly[a:b]
                if b - a <= 2 and (
                    ptr_item(int(js[-1]) + 1) - ptr_item(int(js[0])) <= 32
                ):
                    # Solo kernel's scalar fast path, same eligibility
                    # test (the global ptr span of a scenario's rows
                    # equals its solo span — blocks are contiguous).
                    lvl = level_c.item(c)
                    for j in js.tolist():
                        for gl in flat[ptr[j] : ptr[j + 1]].tolist():
                            li = remap_item(gl)
                            n_o = nfl_item(li)
                            n_n = n_o - 1.0
                            nfl[li] = n_n
                            if n_n <= 0.0:
                                s[li] = np.inf
                            else:
                                s[li] = lvl + (s_item(li) - lvl) * (n_o / n_n)
                elif big is None:
                    big = [js]
                else:
                    big.append(js)
            if big is not None:
                # One batched rescale for every scenario that took the
                # vectorized path — per-entry levels keep each link's
                # arithmetic inside its own scenario, so stacking the
                # scenarios' updates changes nothing elementwise.
                rows = big[0] if len(big) == 1 else np.concatenate(big)
                links = remap[flat[_segment_gather(ptr, lens, rows)]]
                s_old = s[links]
                n_old = nfl[links]
                sub_at(nfl, links, 1.0)
                new_n = nfl[links]
                lvl_e = level_c[comp_live[links]]
                s[links] = lvl_e + (s_old - lvl_e) * (n_old / new_n)
                dead_sel = links[new_n <= 0]
                if len(dead_sel):
                    s[dead_sel] = np.inf
        else:  # pragma: no cover - loop bound is n freezes
            raise SimulationError("waterfill did not converge")
    return rate


def _shifted(parts: "list[np.ndarray]", offs: np.ndarray) -> np.ndarray:
    """Concatenate ``parts``, adding ``offs[i]`` to every entry of part i."""
    return np.concatenate(parts) + np.repeat(offs, [len(p) for p in parts])


def _stack(pops: "list[_Population]") -> _Population:
    """The block-diagonal union of per-scenario populations.

    Scenario ``i``'s real links and flows are translated past those of
    the scenarios before it, and the virtual cap links follow every real
    block, one per flow in global order — the arrays a build over the
    concatenated flows would produce (with scenario-scoped link ids),
    without touching a :class:`Flow`.  ``fid_to_idx``/``link_index`` stay
    per scenario (``None`` here).
    """
    if len(pops) == 1:
        return pops[0]
    n_real = np.array([p.nl for p in pops], dtype=np.int64)
    n_flow = np.array([len(p.real_lens) for p in pops], dtype=np.int64)
    link_off = np.cumsum(n_real) - n_real
    flow_off = np.cumsum(n_flow) - n_flow
    nl, nf = int(n_real.sum()), int(n_flow.sum())
    real_lens = np.concatenate([p.real_lens for p in pops])
    lens_full = real_lens + 1
    ptr = _csr_ptr(lens_full)
    flat = _shifted([p.flat for p in pops], link_off)
    flat[ptr[1:] - 1] = nl + np.arange(nf, dtype=np.int64)
    # A real link's flows are the scenario's own, translated; each
    # virtual link carries exactly its flow.
    t_lens = np.concatenate(
        [p.t_lens[: p.nl] for p in pops] + [np.ones(nf, dtype=np.int64)]
    )
    t_flow = np.concatenate([
        _shifted([p.t_flow[: len(p.real_flat)] for p in pops], flow_off),
        np.arange(nf, dtype=np.int64),
    ])
    child_lens = np.concatenate([p.child_lens for p in pops])
    return _Population(
        fid_to_idx=None,
        link_index=None,
        uniq=np.concatenate([p.uniq for p in pops]),
        real_flat=_shifted([p.real_flat for p in pops], link_off),
        real_ptr=_csr_ptr(real_lens),
        real_lens=real_lens,
        flat=flat,
        ptr=ptr,
        lens_full=lens_full,
        t_flow=t_flow,
        t_ptr=_csr_ptr(t_lens),
        t_lens=t_lens,
        rows_unique=all(p.rows_unique for p in pops),
        dep_count0=np.concatenate([p.dep_count0 for p in pops]),
        child_flat=_shifted([p.child_flat for p in pops], flow_off),
        child_ptr=_csr_ptr(child_lens),
        child_lens=child_lens,
    )


# Pass-1 branch tags (one per lockstep round, per scenario) — the same
# event precedence the solo event loop resolves per iteration.
_B_CUT = 0  # a cutoff snapshot splits the drain; rates stay valid
_B_INT = 1  # an activation or capacity event interrupts; rates recompute
_B_COMPLETE = 2  # the earliest completion lands


class _ScenarioState:
    """Mutable per-scenario bookkeeping inside one ``simulate_many``."""

    __slots__ = (
        "index", "comp", "cols", "pop", "link_off", "flow_off", "T", "act",
        "pending", "n_updates", "events", "ep", "cuts", "rates_valid", "dead",
    )

    def __init__(self, index, comp, cols, pop, link_off, flow_off, events, cuts):
        self.index = index
        self.comp = comp  # scenario ordinal among non-empty scenarios
        self.cols: FlowColumns = cols
        self.pop = pop  # the scenario's own population (local dense ids)
        self.link_off = link_off
        self.flow_off = flow_off
        self.T = 0.0
        self.act = _EMPTY_I64  # global flow ids, activation order
        self.pending: list[tuple[float, int]] = []
        self.n_updates = 0
        self.events: list[CapacityEvent] = events
        self.ep = 0  # next unapplied capacity event
        self.cuts: _CutSchedule = cuts  # snapshot ids are global flow ids
        # Mirrors the solo loop's ``rates is None``: True while the last
        # computed rate vector is still current (only a cutoff split
        # preserves it) — drives ``n_updates`` parity, since the global
        # waterfill runs every round regardless.
        self.rates_valid = False
        self.dead = False  # killed by a captured per-scenario error


class BatchFlowSim:
    """Batched executor for many independent exact-mode FlowSim runs.

    Args:
        params: machine constants, as for :class:`FlowSim` (the per-flow
            default rate cap is ``min(stream_cap, mem_bw)``).
    """

    def __init__(self, params: NetworkParams = MIRA_PARAMS):
        self.params = params

    def simulate_many(
        self,
        scenarios: Sequence[
            tuple["Mapping[int, float] | CapacityFn", "FlowColumns | Sequence[Flow]"]
        ],
        *,
        events: "Sequence[Sequence[CapacityEvent] | None] | None" = None,
        cutoffs: "Sequence[Mapping | None] | None" = None,
        cancel_check: "Callable[[], object] | None" = None,
        cancel_every: int = 64,
        on_error: str = "raise",
        sdc: "Sequence | None" = None,
    ) -> list[FlowSimResult]:
        """Run every ``(capacities, flows)`` scenario; one result each.

        ``flows`` is a program's columns or a sequence of :class:`Flow`
        records, as for :meth:`FlowSim.run`.

        Scenarios are mutually independent — link ids are scoped *per
        scenario* (the same id in two scenarios means two different
        links, as it would across two separate :meth:`FlowSim.run`
        calls).  Results are returned in submission order and match
        per-scenario runs byte-for-byte (see module docstring).

        ``events`` and ``cutoffs`` are optional per-scenario sequences
        aligned with ``scenarios`` (``None`` entries mean none): each
        scenario's capacity events and per-flow cutoff snapshots carry
        exactly the semantics of :meth:`FlowSim.run`'s same-named
        arguments, applied to that scenario's own clock and block only.
        ``sdc`` is the same-shaped per-scenario sequence of
        silent-corruption models: each non-``None`` entry annotates its
        scenario's result exactly as :meth:`FlowSim.run`'s ``sdc``
        argument would — pure metadata, so batched and serial faulted
        runs stay byte-identical.

        ``cancel_check``/``cancel_every`` poll the cooperative
        cancellation hook once per lockstep round (the batched analogue
        of the solo event-loop iteration); with ``cancel_check=None``
        the ambient :func:`repro.util.cancel.current_scope` is polled
        instead.  A hook that never fires leaves results byte-identical
        to an unhooked run.

        ``on_error`` chooses what a *per-scenario* simulation failure
        (a :class:`LinkDownError` after a capacity event took a link
        hard down, or a starvation :class:`SimulationError`) does:
        ``"raise"`` (default) propagates the first failure, as a solo
        run would; ``"capture"`` kills only the failing scenario — its
        result slot holds the exception object (message byte-identical
        to the solo run's) while every other scenario runs to
        completion.  Configuration errors always raise.
        """
        scenarios = list(scenarios)
        if not scenarios:
            return []
        if on_error not in ("raise", "capture"):
            raise ConfigError(
                f"on_error must be 'raise' or 'capture', got {on_error!r}"
            )
        poll = _cancel_poller(cancel_check, cancel_every)
        for name, per_scenario in (("events", events), ("cutoffs", cutoffs), ("sdc", sdc)):
            if per_scenario is not None and len(per_scenario) != len(scenarios):
                raise ConfigError(
                    f"{name} must align with scenarios "
                    f"({len(per_scenario)} != {len(scenarios)})"
                )

        # ---- per-scenario populations (validated, memoized) ----------
        states: list[_ScenarioState] = []
        results: list["FlowSimResult | None"] = [None] * len(scenarios)
        errors: list["Exception | None"] = [None] * len(scenarios)
        caps_blocks: list[np.ndarray] = []
        flow_off = 0
        link_off = 0
        for si, item in enumerate(scenarios):
            try:
                capacities, flows = item
            except (TypeError, ValueError):
                raise ConfigError(
                    "each scenario must be a (capacities, flows) pair"
                ) from None
            cap_of = _capacity_fn(capacities)
            cols = FlowColumns.of(flows)
            if not len(cols):
                results[si] = FlowSimResult.empty()
                continue
            pop = _population(cols)
            caps_blocks.append(_link_caps(cap_of, pop, cols.fid))
            states.append(_ScenarioState(
                si, len(states), cols, pop, link_off, flow_off,
                _checked_events(events[si] if events is not None else None),
                _CutSchedule(
                    cutoffs[si] if cutoffs is not None else None,
                    pop.fid_to_idx, cols.fid, flow_off,
                ),
            ))
            flow_off += len(cols)
            link_off += pop.nl

        if not states:  # every scenario was empty
            return results

        # ---- global block-diagonal system -------------------------------
        nf = flow_off
        nl = link_off
        g = _stack([st.pop for st in states])
        real_flat, real_lens = g.real_flat, g.real_lens
        flat, ptr, lens_full = g.flat, g.ptr, g.lens_full
        t_flow, t_ptr, t_lens = g.t_flow, g.t_ptr, g.t_lens
        child_flat, child_ptr, child_lens = g.child_flat, g.child_ptr, g.child_lens
        dep_count = g.dep_count0.copy()  # consumed as dependencies release
        size_arr, start_arr, delay_arr, rate_caps_all = _flow_vectors(
            [st.cols for st in states], self.params
        )
        remaining = size_arr.copy()
        empty = (size_arr <= _EPS_BYTES).tolist()  # activates with nothing to send
        caps_full = np.concatenate(caps_blocks + [rate_caps_all])

        # Scenario ordinal of every global flow and dense link (real
        # blocks first, then the per-flow virtual cap links) — the
        # component labels `_waterfill_blocks` freezes in parallel.
        comp_flow = np.repeat(
            np.arange(len(states), dtype=np.int64),
            [len(st.cols) for st in states],
        )
        comp_dense = np.concatenate([
            np.repeat(
                np.arange(len(states), dtype=np.int64),
                [st.pop.nl for st in states],
            ),
            comp_flow,
        ])

        ready_time = np.zeros(nf)
        start_rec = np.full(nf, np.nan)
        finish_rec = np.full(nf, np.nan)
        done = np.zeros(nf, dtype=bool)
        link_bytes_arr = np.zeros(nl)
        nfl_act = np.zeros(nl + nf, dtype=np.float64)

        for st in states:
            fs = slice(st.flow_off, st.flow_off + len(st.cols))
            st.pending = _pending(dep_count[fs], start_arr[fs], delay_arr[fs], st.flow_off)

        have_deps = len(child_flat) > 0

        def release_deps(st: _ScenarioState, b: np.ndarray, t: float):
            # Scalar loop: waves finish a handful of flows, where the
            # ufunc.at/unique route costs more than it saves.  A child
            # reaches zero exactly once, so push order can't affect the
            # (t_act, id)-keyed heap.
            for j in b:
                lo = child_ptr[j]
                for c in child_flat[lo : lo + child_lens[j]]:
                    c = int(c)
                    if ready_time[c] < t:
                        ready_time[c] = t
                    dep_count[c] -= 1
                    if dep_count[c] == 0:
                        t_act = max(ready_time[c], start_arr[c]) + delay_arr[c]
                        heapq.heappush(st.pending, (t_act, c))

        def finish_flows(st: _ScenarioState, b: np.ndarray, t: float):
            done[b] = True
            finish_rec[b] = t
            ns = np.isnan(start_rec[b])
            if ns.any():
                start_rec[b[ns]] = t
            if have_deps:
                release_deps(st, b, t)

        def activate_due(st: _ScenarioState, t: float):
            new_act: list[int] = []
            for zero in _pop_due(st.pending, t, empty, start_rec, new_act):
                finish_flows(st, *zero)
            if new_act:
                for i in new_act:
                    lo = ptr[i]
                    for k in flat[lo : lo + lens_full[i]]:
                        nfl_act[k] += 1.0
                st.act = np.concatenate(
                    [st.act, np.asarray(new_act, dtype=np.int64)]
                )

        def apply_cuts_due(st: _ScenarioState, t: float):
            st.cuts.apply(t, size_arr, remaining, done)

        def apply_events_due(st: _ScenarioState, t: float):
            while st.ep < len(st.events) and st.events[st.ep].time <= t + 1e-18:
                e = st.events[st.ep]
                k = st.pop.link_index.get(e.link)
                if k is not None:
                    caps_full[st.link_off + k] = e.capacity
                st.ep += 1

        def kill_scenario(st: _ScenarioState, err: Exception):
            errors[st.index] = err
            st.dead = True
            if len(st.act):
                np.subtract.at(
                    nfl_act, flat[_segment_gather(ptr, lens_full, st.act)], 1.0
                )
                st.act = _EMPTY_I64
            st.pending = []

        # ---- lockstep rounds ------------------------------------------
        live = list(states)
        n_rounds = 0
        K = len(states)
        dt_c = np.empty(K)  # this round's per-scenario time step
        t_c = np.empty(K)  # per-scenario clock after the step
        tmin = np.empty(K)  # per-scenario earliest completion dt
        while live:
            n_rounds += 1
            if poll is not None:
                poll(lambda: f"batched simulation cancelled by hook after "
                             f"{n_rounds} rounds ({len(live)} scenarios live)")
            # One stacked waterfill covers every live scenario's active
            # set — blocks share no links, so each block's rates equal
            # its own solo full re-solve, bit for bit.
            need = [st for st in live if len(st.act)]
            if need:
                sel = (
                    need[0].act
                    if len(need) == 1
                    else np.concatenate([st.act for st in need])
                )
                frozen = np.ones(nf, dtype=bool)
                frozen[sel] = False
                unfrozen_c = np.bincount(comp_flow[sel], minlength=K)
                r = _waterfill_blocks(
                    caps_full, flat, ptr, lens_full, t_flow, t_ptr, t_lens,
                    frozen, nfl_act, unfrozen_c, comp_flow, comp_dense, nl,
                )
                r_sel = r[sel]
                cf_sel = comp_flow[sel]
                if np.any(r_sel <= 0):
                    # A capacity event took some scenario's link hard
                    # down (or a rate starved): fail *that scenario
                    # only*, with the solo run's exact error.
                    bad_mask = r_sel <= 0
                    for c in np.unique(cf_sel[bad_mask]):
                        st = need[0] if len(need) == 1 else next(
                            s for s in need if s.comp == int(c)
                        )
                        # The solo run's error, verbatim: this scenario's
                        # zero-rate flows in activation order.
                        err = _stall_error(
                            st.cols.fid, st.pop, caps_full[st.link_off:],
                            sel[bad_mask & (cf_sel == c)] - st.flow_off,
                        )
                        if on_error == "raise":
                            raise err
                        kill_scenario(st, err)
                    live = [st for st in live if not st.dead]
                    need = [st for st in need if not st.dead]
                    if not need:
                        continue
                    keep = np.isin(cf_sel, np.asarray([s.comp for s in need]))
                    sel = sel[keep]
                    r_sel = r_sel[keep]
                    cf_sel = cf_sel[keep]
                for st in need:
                    if not st.rates_valid:
                        st.n_updates += 1
                        st.rates_valid = True
                tmin[:] = np.inf
                np.minimum.at(tmin, cf_sel, remaining[sel] / r_sel)

            # Pass 1 — per-scenario branching on Python scalars: resolve
            # this round's event precedence (cutoff split vs. activation
            # or capacity-event interrupt vs. completion), exactly as a
            # solo run would, and advance each scenario's clock.  All
            # post-drain processing waits for pass 4 so cutoff snapshots
            # read the drained ``remaining``.
            advancing: list[_ScenarioState] = []
            completing: list[_ScenarioState] = []
            stepped: list[tuple[_ScenarioState, int]] = []
            cbr = np.zeros(K, dtype=bool)  # took the completion branch
            for st in live:
                if not len(st.act):
                    if not st.pending:
                        continue  # scenario finished
                    # Jump to the next activation (solo order: cuts,
                    # events, then activations at the new clock).
                    st.T = max(st.T, st.pending[0][0])
                    apply_cuts_due(st, st.T)
                    apply_events_due(st, st.T)
                    activate_due(st, st.T)
                    st.rates_valid = False
                    advancing.append(st)
                    continue
                c = st.comp
                dt_complete = tmin.item(c)
                next_evt = (
                    st.events[st.ep].time if st.ep < len(st.events) else np.inf
                )
                next_cut = st.cuts.upcoming()
                dt_act = (st.pending[0][0] - st.T) if st.pending else np.inf
                dt_int = min(dt_act, next_evt - st.T)
                if (
                    next_cut - st.T < dt_int * (1 - _REL_TOL)
                    and next_cut - st.T < dt_complete * (1 - _REL_TOL)
                ):
                    # A cutoff snapshot strictly precedes everything:
                    # split the linear drain and *keep* the rate vector.
                    dt = max(next_cut - st.T, 0.0)
                    tag = _B_CUT
                elif dt_int < dt_complete * (1 - _REL_TOL):
                    # An activation or a capacity change interrupts
                    # before any completion.
                    dt = max(dt_int, 0.0)
                    tag = _B_INT
                else:
                    dt = dt_complete
                    tag = _B_COMPLETE
                    cbr[c] = True
                    completing.append(st)
                dt_c[c] = dt
                st.T += dt
                t_c[c] = st.T
                stepped.append((st, tag))
                advancing.append(st)

            if need and stepped:
                # Pass 2 — one vectorized drain over every active flow
                # (each flow advances by its own scenario's step).
                remaining[sel] = np.maximum(
                    remaining[sel] - r_sel * dt_c[cf_sel], 0.0
                )
            if completing:
                # Pass 3 — bulk completion bookkeeping across scenarios.
                fin_mask = (remaining[sel] <= _EPS_BYTES) & cbr[cf_sel]
                fin = sel[fin_mask]
                cf_fin = cf_sel[fin_mask]
                fin_cnt = np.bincount(cf_fin, minlength=K)
                if np.any(fin_cnt[cbr] == 0):  # pragma: no cover
                    raise SimulationError(
                        "no flow completed at a completion event"
                    )
                np.subtract.at(
                    nfl_act, flat[_segment_gather(ptr, lens_full, fin)], 1.0
                )
                done[fin] = True
                t_fin = t_c[cf_fin]
                finish_rec[fin] = t_fin
                ns = np.isnan(start_rec[fin])
                if ns.any():
                    start_rec[fin[ns]] = t_fin[ns]
            # Pass 4 — per-scenario post-drain processing, in each
            # branch's solo order:
            #   CUT       cuts only (rates stay valid)
            #   INT       cuts, activations, capacity events
            #   COMPLETE  dependency release, cuts, act prune,
            #             activations, capacity events
            for st, tag in stepped:
                if tag == _B_CUT:
                    apply_cuts_due(st, st.T)
                    continue
                if tag == _B_INT:
                    apply_cuts_due(st, st.T)
                    activate_due(st, st.T)
                    apply_events_due(st, st.T)
                    st.rates_valid = False
                    continue
                m_fin = done[st.act]
                if have_deps:
                    release_deps(st, st.act[m_fin], st.T)
                apply_cuts_due(st, st.T)
                st.act = st.act[~m_fin]
                activate_due(st, st.T)
                apply_events_due(st, st.T)
                st.rates_valid = False
            live = [st for st in advancing if st.pending or len(st.act)]

        # ---- per-scenario results -------------------------------------
        # Account link bytes once, in bulk — the per-event accumulation
        # a solo run does is order-independent, and dead scenarios'
        # blocks are disjoint from every surviving scenario's, so adding
        # their (never-read) contributions is harmless.
        np.add.at(link_bytes_arr, real_flat, np.repeat(size_arr, real_lens))
        alive = [st for st in states if not st.dead]
        for st in alive:
            apply_cuts_due(st, np.inf)  # cuts past the makespan
            fs = slice(st.flow_off, st.flow_off + len(st.cols))
            results[st.index] = _flow_sim_result(
                st.cols, st.pop, done[fs], start_rec[fs].copy(), finish_rec[fs].copy(),
                link_bytes_arr[st.link_off : st.link_off + st.pop.nl],
                st.n_updates, st.cuts.rec,
                sdc[st.index] if sdc is not None else None,
            )

        reg = get_registry()
        reg.counter("flowsim.batch_runs").inc()
        reg.counter("flowsim.batch_scenarios").inc(len(states))
        reg.counter("flowsim.batch_rounds").inc(n_rounds)
        reg.counter("flowsim.flows_completed").inc(int(done.sum()))
        n_dead = len(states) - len(alive)
        if n_dead:
            reg.counter("flowsim.batch_scenarios_failed").inc(n_dead)
        return [
            res if err is None else err  # type: ignore[misc]
            for res, err in zip(results, errors)
        ]

