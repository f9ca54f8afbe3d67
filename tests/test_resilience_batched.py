"""Batched fault-tolerant execution vs the serial executor.

:func:`~repro.resilience.executor.run_resilient_transfer_many` promises
per-scenario outcomes *byte-identical* to serial
:func:`~repro.resilience.executor.run_resilient_transfer` calls — same
hidden :class:`~repro.machine.faults.FaultTrace`, same retries, same
ledger credits — while solving each wave's flow simulations in one
block-diagonal :class:`~repro.network.batchsim.BatchFlowSim` pass.
These tests pin that contract over random fault schedules (hypothesis),
the ``budget_s`` best-effort path, cooperative cancellation zero-drift,
and the incremental engine's self-audit under capacity events.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.multipath import TransferSpec
from repro.machine import mira_system
from repro.machine.faults import FaultEvent, FaultTrace
from repro.resilience import RetryPolicy, TransferAbortedError, run_resilient_transfer
from repro.resilience.executor import run_resilient_transfer_many
from repro.util.cancel import CancelScope, cancel_scope
from repro.util.validation import SimulationCancelled

MiB = 1 << 20

SYSTEM = mira_system(nnodes=64)

# Links a random fault can usefully hit: the routes of the pairs the
# scenarios below actually use (faults elsewhere test nothing).
_PAIRS = [(0, 63), (1, 62), (2, 61)]
ROUTE_LINKS = sorted(
    {
        l
        for s, d in _PAIRS
        for l in SYSTEM.compute_path(s, d).links + SYSTEM.compute_path(d, s).links
    }
)

fault_events = st.lists(
    st.builds(
        FaultEvent,
        link=st.sampled_from(ROUTE_LINKS),
        factor=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]),
        start=st.floats(min_value=0.0, max_value=0.01),
        end=st.one_of(
            st.just(math.inf), st.floats(min_value=0.011, max_value=0.1)
        ),
    ),
    max_size=4,
)

scenario_traces = st.lists(
    st.one_of(st.none(), st.builds(lambda ev: FaultTrace(tuple(ev)), fault_events)),
    min_size=len(_PAIRS),
    max_size=len(_PAIRS),
)


def _spec_sets():
    return [[TransferSpec(src=s, dst=d, nbytes=2 * MiB)] for s, d in _PAIRS]


def _outcome_key(out):
    """Everything the batched path must reproduce bit-for-bit."""
    if isinstance(out, Exception):
        return (type(out).__name__, str(out))
    return (
        out.makespan,
        out.delivered_bytes,
        out.residue_bytes,
        out.total_bytes,
        out.complete,
        sorted(out.mode_used.items()),
        out.telemetry.rounds,
        out.telemetry.retries,
        out.telemetry.failovers,
        out.telemetry.bytes_resent,
        out.telemetry.partial_credit_bytes,
        [
            (a.round, a.src, a.dst, a.proxy, a.share, a.finish, a.verdict)
            for a in out.telemetry.attempts
        ],
        [sorted(r.link_bytes.items()) for r in out.round_results],
    )


class TestBatchedFaultParity:
    @settings(max_examples=12, deadline=None)
    @given(traces=scenario_traces)
    def test_batched_matches_serial_under_faults(self, traces):
        """Same traces, same outcomes — including aborted scenarios."""
        policy = RetryPolicy(max_retries=2)
        serial = []
        for (specs,), trace in zip(zip(_spec_sets()), traces):
            try:
                serial.append(
                    run_resilient_transfer(
                        SYSTEM, specs, trace=trace, policy=policy
                    )
                )
            except TransferAbortedError as e:
                serial.append(e)
        batched = run_resilient_transfer_many(
            SYSTEM,
            _spec_sets(),
            traces=traces,
            policy=policy,
            on_error="capture",
        )
        assert len(batched) == len(serial)
        for b, s in zip(batched, serial):
            assert _outcome_key(b) == _outcome_key(s)

    def test_mixed_none_traces_accepted(self):
        """``None`` entries mean a fault-free scenario, not an error."""
        trace = FaultTrace((FaultEvent(link=ROUTE_LINKS[0], factor=0.0, start=0.0),))
        outs = run_resilient_transfer_many(
            SYSTEM, _spec_sets(), traces=[None, trace, None]
        )
        assert all(o.delivered_bytes == 2 * MiB for o in outs)


class TestBudgetedBatchedRetries:
    # A hard mid-transfer failure on every pair's route: forces the
    # detect-and-retry loop into its budgeted recovery path.
    TRACE = FaultTrace(
        tuple(
            FaultEvent(link=l, factor=0.0, start=0.0005)
            for l in ROUTE_LINKS[:8]
        )
    )

    def test_budget_parity_and_semantics(self):
        """``budget_s`` gates recovery identically in both drivers: no
        raise, ledger-conserved residue, makespan capped at the budget
        when bytes were left behind."""
        policy = RetryPolicy(max_retries=3, budget_s=0.004)
        serial = [
            run_resilient_transfer(
                SYSTEM, specs, trace=self.TRACE, policy=policy
            )
            for specs in _spec_sets()
        ]
        batched = run_resilient_transfer_many(
            SYSTEM, _spec_sets(), traces=self.TRACE, policy=policy
        )
        for b, s in zip(batched, serial):
            assert _outcome_key(b) == _outcome_key(s)
            assert b.delivered_bytes + b.residue_bytes == b.total_bytes
            if b.residue_bytes > 0:
                assert not b.complete
                assert b.telemetry.budget_exhausted


    def test_carrier_in_flight_at_budget_line_is_cut_off(self):
        """A retry carrier that is late but healthy still stops at the
        budget line: it is never counted as a slow-but-ok finish past
        the budget."""
        system = mira_system(nnodes=128)
        trace = FaultTrace(
            (FaultEvent(link=1, factor=0.02, start=0.0),)
            + tuple(FaultEvent(link=l, factor=0.0, start=0.0) for l in (3, 5, 7))
        )
        (out,) = run_resilient_transfer_many(
            system,
            [[TransferSpec(src=0, dst=127, nbytes=4489380)]],
            traces=trace,
            policy=RetryPolicy(max_retries=3, budget_s=0.125),
            max_proxies=4,
        )
        assert out.makespan <= 0.125
        assert not out.complete
        assert out.telemetry.budget_exhausted
        assert out.delivered_bytes + out.residue_bytes == out.total_bytes


class TestBatchedCancellation:
    def test_armed_scope_that_never_fires_is_zero_drift(self):
        """An installed-but-idle CancelScope must not perturb a single
        bit of any scenario's outcome (check never mutates state)."""
        trace = FaultTrace(
            (FaultEvent(link=ROUTE_LINKS[0], factor=0.1, start=0.0),)
        )
        plain = run_resilient_transfer_many(
            SYSTEM, _spec_sets(), traces=[None, trace, None]
        )
        with cancel_scope(deadline_s=3600.0):
            scoped = run_resilient_transfer_many(
                SYSTEM, _spec_sets(), traces=[None, trace, None]
            )
        for p, c in zip(plain, scoped):
            assert _outcome_key(p) == _outcome_key(c)

    def test_cancelled_scope_cuts_the_batch_off(self):
        scope = CancelScope()
        scope.cancel("test shutdown")
        with pytest.raises(SimulationCancelled):
            with cancel_scope() as ambient:
                ambient.cancel("test shutdown")
                run_resilient_transfer_many(SYSTEM, _spec_sets())


class TestIncrementalFaultAudit:
    @settings(max_examples=10, deadline=None)
    @given(events=fault_events, nbytes=st.integers(min_value=1, max_value=4 * MiB))
    def test_selfcheck_holds_under_fault_traces(self, events, nbytes):
        """The incremental engine's B-G self-audit (every incremental
        state must be a valid global waterfill) holds on the executor's
        own round programs — capacity events, cutoffs, retries and all.

        ``_selfcheck`` raises ``RuntimeError`` on the first divergence,
        so survival *is* the assertion.
        """
        from repro.network.flowsim import FlowSim

        orig_run = FlowSim.run

        def audited_run(self, *a, **kw):
            self._selfcheck = True
            return orig_run(self, *a, **kw)

        trace = FaultTrace(tuple(events))
        spec = TransferSpec(src=0, dst=63, nbytes=nbytes)
        FlowSim.run = audited_run
        try:
            run_resilient_transfer(
                SYSTEM, [spec], trace=trace, policy=RetryPolicy(budget_s=0.05)
            )
        finally:
            FlowSim.run = orig_run
