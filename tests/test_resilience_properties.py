"""Hypothesis invariants of the resilience layer over random fault
schedules.

Three acceptance-level properties:

* whatever the hidden fault schedule does, a run that returns has
  delivered exactly the requested bytes (and a run that gives up raises
  :class:`TransferAbortedError` instead of silently under-delivering);
* the retry loop is bounded: never more than ``max_retries`` retries
  per transfer, never more than ``1 + max_retries`` rounds;
* with no faults anywhere, the :class:`ResilientPlanner` is
  byte-identical to the plain :class:`TransferPlanner`.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.core.multipath import TransferSpec
from repro.core.planner import TransferPlanner
from repro.machine import mira_system
from repro.machine.faults import FaultEvent, FaultModel, FaultTrace
from repro.resilience import (
    ResilientPlanner,
    RetryPolicy,
    TransferAbortedError,
    run_resilient_transfer,
)

MiB = 1 << 20

SYSTEM = mira_system(nnodes=128)
_PLAN = TransferPlanner(SYSTEM, max_proxies=4).find_plan([(0, 127)])
_ASG = _PLAN.assignments[(0, 127)]

# Links a random fault can hit: the proxy routes and the direct path —
# faults elsewhere never intersect the transfer and test nothing.
ROUTE_LINKS = sorted(
    {l for j in range(_ASG.k) for l in _ASG.phase1[j].links + _ASG.phase2[j].links}
    | set(SYSTEM.compute_path(0, 127).links)
)

fault_events = st.lists(
    st.builds(
        FaultEvent,
        link=st.sampled_from(ROUTE_LINKS),
        factor=st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6, 0.9]),
        start=st.floats(min_value=0.0, max_value=0.02),
        end=st.one_of(
            st.just(math.inf),
            st.floats(min_value=0.021, max_value=0.2),
        ),
    ),
    max_size=6,
)


class TestExecutorInvariants:
    @settings(max_examples=25, deadline=None)
    @given(events=fault_events, nbytes=st.integers(min_value=1, max_value=8 * MiB))
    def test_delivers_all_or_aborts_loudly(self, events, nbytes):
        trace = FaultTrace(tuple(events))
        policy = RetryPolicy(max_retries=3)
        spec = TransferSpec(src=0, dst=127, nbytes=nbytes)
        try:
            out = run_resilient_transfer(
                SYSTEM,
                [spec],
                trace=trace,
                policy=policy,
                planner=ResilientPlanner(SYSTEM, max_proxies=4),
            )
        except TransferAbortedError as e:
            assert e.telemetry is not None
            assert e.telemetry.rounds <= 1 + policy.max_retries
            return
        assert out.delivered_bytes == spec.nbytes
        assert out.telemetry.retries <= policy.max_retries
        assert out.telemetry.rounds <= 1 + policy.max_retries
        assert out.makespan > 0
        # Every attempt in the telemetry belongs to this transfer.
        assert all((a.src, a.dst) == (0, 127) for a in out.telemetry.attempts)

    @settings(max_examples=10, deadline=None)
    @given(
        events=fault_events,
        max_retries=st.integers(min_value=0, max_value=2),
    )
    def test_retry_budget_respected(self, events, max_retries):
        trace = FaultTrace(tuple(events))
        policy = RetryPolicy(max_retries=max_retries)
        spec = TransferSpec(src=0, dst=127, nbytes=2 * MiB)
        try:
            out = run_resilient_transfer(
                SYSTEM,
                [spec],
                trace=trace,
                policy=policy,
                planner=ResilientPlanner(SYSTEM, max_proxies=4),
            )
        except TransferAbortedError as e:
            assert e.telemetry.rounds <= 1 + max_retries
        else:
            assert out.telemetry.retries <= max_retries


class TestFaultFreePlannerIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        src=st.integers(min_value=0, max_value=63),
        dst=st.integers(min_value=64, max_value=127),
        nbytes=st.integers(min_value=1, max_value=64 * MiB),
    )
    def test_plans_byte_identical(self, src, dst, nbytes):
        spec = TransferSpec(src=src, dst=dst, nbytes=nbytes)
        base = TransferPlanner(SYSTEM).plan([spec])[0]
        resil = ResilientPlanner(SYSTEM).plan([spec])[0]
        assert resil.strategy == base.strategy
        assert resil.predicted_time == base.predicted_time
        assert resil.assignment.proxies == base.assignment.proxies
        assert resil.weights is None
        assert resil.dropped_proxies == ()

    @settings(max_examples=15, deadline=None)
    @given(nbytes=st.integers(min_value=1, max_value=64 * MiB))
    def test_null_fault_model_is_pristine(self, nbytes):
        spec = TransferSpec(src=0, dst=127, nbytes=nbytes)
        base = TransferPlanner(SYSTEM).plan([spec])[0]
        resil = ResilientPlanner(SYSTEM, faults=FaultModel()).plan([spec])[0]
        assert resil.strategy == base.strategy
        assert resil.predicted_time == base.predicted_time


class TestTraceInvariants:
    @settings(max_examples=40, deadline=None)
    @given(events=fault_events, t=st.floats(min_value=0.0, max_value=0.25))
    def test_snapshot_matches_factor_at(self, events, t):
        """A snapshot at time t agrees with factor_at for every link."""
        trace = FaultTrace(tuple(events))
        snap = trace.snapshot(t)
        for link in trace.affected_links:
            assert snap.link_factor(link) == trace.factor_at(link, t)

    @settings(max_examples=40, deadline=None)
    @given(events=fault_events)
    def test_factor_constant_between_boundaries(self, events):
        """The factor of any link never changes strictly between two
        consecutive boundaries."""
        trace = FaultTrace(tuple(events))
        bounds = trace.boundaries()
        probes = []
        for lo, hi in zip(bounds, bounds[1:]):
            mid = lo + (hi - lo) * 0.5
            # Boundaries one ulp apart can round the midpoint onto a
            # boundary; only probe when it lands strictly inside.
            if lo < mid < hi:
                probes.append((lo, mid))
        if bounds:
            probes.append((bounds[-1], bounds[-1] + 1.0))
        for lo, mid in probes:
            for link in trace.affected_links:
                assert trace.factor_at(link, lo) == trace.factor_at(link, mid)


class TestLedgerExactlyOnce:
    @settings(max_examples=20, deadline=None)
    @given(events=fault_events, nbytes=st.integers(min_value=1, max_value=8 * MiB))
    def test_random_traces_deliver_exactly_once(self, events, nbytes):
        """Whatever the hidden schedule does, a completing run's ledger
        verifies: no extent delivered twice, no gap, and the per-extent
        accounting reproduces the delivered byte count exactly."""
        trace = FaultTrace(tuple(events))
        spec = TransferSpec(src=0, dst=127, nbytes=nbytes)
        try:
            out = run_resilient_transfer(
                SYSTEM,
                [spec],
                trace=trace,
                planner=ResilientPlanner(SYSTEM, max_proxies=4),
            )
        except TransferAbortedError:
            return
        (rep,) = out.integrity
        assert rep.complete and rep.duplicates == ()
        assert rep.delivered_bytes == nbytes
        led = out.ledgers[(0, 127)]
        assert led.verify().complete
        assert led.outstanding_extents() == [] and led.holders() == []


# A slowed proxy route plus three dead ones: the round-1 direct retry is
# still in flight at the budget line, late but at a healthy rate.
BUDGET_LINE_EVENTS = [FaultEvent(link=1, factor=0.02, start=0.0, end=math.inf)] + [
    FaultEvent(link=l, factor=0.0, start=0.0, end=math.inf) for l in (3, 5, 7)
]


class TestBudgetInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        events=fault_events,
        budget=st.floats(min_value=0.01, max_value=0.3),
        nbytes=st.integers(min_value=1, max_value=8 * MiB),
    )
    @example(events=BUDGET_LINE_EVENTS, budget=0.125, nbytes=4489380)
    def test_budgeted_runs_never_raise_and_conserve_bytes(
        self, events, budget, nbytes
    ):
        """With a wall-clock budget set the executor NEVER raises: it
        returns a report whose delivered + residue == total, and any
        recovery work stays inside the budget (round 0's own deadline is
        the only part allowed to overrun it)."""
        trace = FaultTrace(tuple(events))
        policy = RetryPolicy(max_retries=3, budget_s=budget)
        spec = TransferSpec(src=0, dst=127, nbytes=nbytes)
        out = run_resilient_transfer(
            SYSTEM,
            [spec],
            trace=trace,
            policy=policy,
            planner=ResilientPlanner(SYSTEM, max_proxies=4),
        )
        assert out.delivered_bytes + out.residue_bytes == nbytes
        if out.complete:
            assert out.residue_bytes == 0
        else:
            assert out.telemetry.budget_exhausted
        (rep,) = out.integrity
        assert rep.duplicates == ()
        r0_deadline = max(
            (a.deadline for a in out.telemetry.attempts if a.round == 0),
            default=0.0,
        )
        horizon = max(budget, r0_deadline)
        assert out.makespan <= horizon * (1 + 1e-9) + 1e-9
