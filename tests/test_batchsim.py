"""Cross-scenario batching: byte-identical to per-scenario runs.

:class:`~repro.network.batchsim.BatchFlowSim` stacks independent
scenarios block-diagonally and solves them in lockstep; because blocks
share no links, every scenario's rates are bit-equal to its own
exact-mode full re-solve.  These tests assert **exact** equality (``==``
on floats, not approx) against serial ``FlowSim(..., incremental=False)``
runs, and ≤1e-12 agreement with the default (auto) engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.faults import SDCModel
from repro.network.batchsim import BatchFlowSim
from repro.network.flow import Flow
from repro.network.flowsim import CapacityEvent, FlowSim, uniform_capacities
from repro.network.params import NetworkParams
from repro.obs.metrics import get_registry
from repro.util.validation import ConfigError, SimulationError

P = NetworkParams(
    link_bw=100.0,
    stream_cap=80.0,
    io_link_bw=100.0,
    ion_storage_bw=1000.0,
    o_msg=0.0,
    o_fwd=0.0,
    mem_bw=1000.0,
)


def mk_scenario(seed, n_flows):
    """One random scenario: flows over 5 links with starts/delays/deps."""
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n_flows):
        mask = int(rng.integers(1, 32))
        deps = (f"f{i - 2}",) if i >= 2 and rng.random() < 0.3 else ()
        flows.append(
            Flow(
                fid=f"f{i}",
                size=float(rng.integers(1, 5000)),
                path=tuple(l for l in range(5) if mask >> l & 1),
                start_time=float(rng.uniform(0, 20.0)) if rng.random() < 0.5 else 0.0,
                delay=float(rng.uniform(0, 0.5)),
                deps=deps,
            )
        )
    return uniform_capacities(P.link_bw), flows


# A faulted scenario: mk_scenario's flows plus capacity events (time,
# link, new capacity — zero takes the link down, link 5 carries no flow)
# and cutoffs (flow index modulo the flow count, time), optionally under
# a silent-corruption model.
faulted_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=9),
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=40.0),
                st.integers(min_value=0, max_value=5),
                st.sampled_from([0.0, 10.0, 50.0, 200.0]),
            ),
            max_size=3,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.floats(min_value=0.0, max_value=60.0),
            ),
            max_size=3,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def mk_faulted(spec):
    """``(capacities, flows, events, cutoffs, sdc)`` for one faulted spec."""
    seed, n_flows, evs, cuts, corrupt = spec
    caps, flows = mk_scenario(seed, n_flows)
    events = [CapacityEvent(time=t, link=l, capacity=c) for t, l, c in evs]
    cutoffs = {f"f{i % n_flows}": t for i, t in cuts}
    sdc = SDCModel(flip_links={0: 0.25, 3: 0.1}, seed=seed) if corrupt else None
    return caps, flows, events, cutoffs, sdc


def assert_byte_identical(batch_res, solo_res):
    assert batch_res.results == solo_res.results  # exact dataclass equality
    assert batch_res.makespan == solo_res.makespan
    assert batch_res.link_bytes == solo_res.link_bytes
    assert batch_res.n_rate_updates == solo_res.n_rate_updates
    assert batch_res.cutoff_bytes == solo_res.cutoff_bytes


class TestByteIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_batched_equals_serial_full_resolve(self, scenario_specs):
        """Random batches match serial full re-solves bit-for-bit."""
        scenarios = [mk_scenario(seed, nf) for seed, nf in scenario_specs]
        batch = BatchFlowSim(P).simulate_many(scenarios)
        for (caps, flows), res in zip(scenarios, batch):
            solo = FlowSim(caps, P, incremental=False).run(flows)
            assert_byte_identical(res, solo)

    @settings(max_examples=25, deadline=None)
    @given(faulted_specs)
    def test_faulted_batches_equal_serial_full_resolve(self, specs):
        """Capacity events (links taken down included), cutoffs, SDC
        annotation and captured failures match serial full re-solves
        bit-for-bit — on a cold batch and again once every scenario's
        flow population is cached."""
        scens = [mk_faulted(spec) for spec in specs]

        def batched():
            return BatchFlowSim(P).simulate_many(
                [(caps, flows) for caps, flows, _, _, _ in scens],
                events=[s[2] for s in scens],
                cutoffs=[s[3] for s in scens],
                sdc=[s[4] for s in scens],
                on_error="capture",
            )

        cold = batched()
        solo = []
        for caps, flows, events, cutoffs, sdc in scens:
            try:
                solo.append(
                    FlowSim(caps, P, incremental=False).run(
                        flows, events, cutoffs=cutoffs, sdc=sdc
                    )
                )
            except SimulationError as exc:  # a LinkDownError, mostly
                solo.append(exc)
        warm = batched()
        for (_, flows, _, _, _), s, c, w in zip(scens, solo, cold, warm):
            for b in (c, w):
                if isinstance(s, Exception):
                    assert type(b) is type(s) and str(b) == str(s)
                    continue
                assert_byte_identical(b, s)
                for f in flows:
                    assert b.wire_flip_probability(f.fid) == (
                        s.wire_flip_probability(f.fid)
                    )

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_batched_close_to_default_engine(self, scenario_specs):
        """≤1e-12 relative agreement with the default (auto) engine."""
        scenarios = [mk_scenario(seed, nf) for seed, nf in scenario_specs]
        batch = BatchFlowSim(P).simulate_many(scenarios)
        for (caps, flows), res in zip(scenarios, batch):
            solo = FlowSim(caps, P).run(flows)
            for fid, fa in res.results.items():
                fb = solo.results[fid]
                assert fa.start == pytest.approx(fb.start, rel=1e-12, abs=1e-12)
                assert fa.finish == pytest.approx(fb.finish, rel=1e-12, abs=1e-12)
            assert res.makespan == pytest.approx(
                solo.makespan, rel=1e-12, abs=1e-12
            )

    def test_order_and_isolation(self):
        """Results come back in submission order, and scenarios sharing
        link *ids* don't share link *bandwidth* (ids are scenario-scoped)."""
        one = (uniform_capacities(P.link_bw), [Flow(fid="a", size=800.0, path=(0,))])
        scenarios = [one, one, one]
        batch = BatchFlowSim(P).simulate_many(scenarios)
        solo = FlowSim(one[0], P, incremental=False).run(one[1])
        for res in batch:
            assert_byte_identical(res, solo)
        # Three co-scheduled copies of the same flow would take 3x as long
        # if they truly shared link 0; each must finish at the solo time
        # (stream cap 80 binds): 800 / 80 = 10.
        assert batch[0].results["a"].finish == pytest.approx(10.0)


class TestEdgesAndErrors:
    def test_empty_batch(self):
        assert BatchFlowSim(P).simulate_many([]) == []

    def test_empty_scenario_among_full_ones(self):
        caps, flows = mk_scenario(7, 4)
        batch = BatchFlowSim(P).simulate_many([(caps, []), (caps, flows)])
        assert batch[0].results == {} and batch[0].makespan == 0.0
        solo = FlowSim(caps, P, incremental=False).run(flows)
        assert_byte_identical(batch[1], solo)

    def test_all_empty_scenarios(self):
        caps = uniform_capacities(P.link_bw)
        batch = BatchFlowSim(P).simulate_many([(caps, []), (caps, [])])
        assert all(r.results == {} for r in batch)

    def test_malformed_scenario_rejected(self):
        with pytest.raises(ConfigError):
            BatchFlowSim(P).simulate_many([42])

    def test_unknown_dep_rejected(self):
        caps = uniform_capacities(P.link_bw)
        flows = [Flow(fid="a", size=10.0, path=(0,), deps=("ghost",))]
        with pytest.raises(ConfigError):
            BatchFlowSim(P).simulate_many([(caps, flows)])

    def test_self_dep_rejected(self):
        caps = uniform_capacities(P.link_bw)
        flows = [Flow(fid="a", size=10.0, path=(0,), deps=("a",))]
        with pytest.raises(ConfigError):
            BatchFlowSim(P).simulate_many([(caps, flows)])

    def test_nonpositive_capacity_rejected(self):
        flows = [Flow(fid="a", size=10.0, path=(0,))]
        with pytest.raises(ConfigError):
            BatchFlowSim(P).simulate_many([({0: 0.0}, flows)])

    def test_counters(self):
        caps, flows = mk_scenario(11, 3)
        before = get_registry().snapshot()["counters"]
        BatchFlowSim(P).simulate_many([(caps, flows), (caps, flows)])
        after = get_registry().snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("flowsim.batch_runs") == 1
        assert delta("flowsim.batch_scenarios") == 2
        assert delta("flowsim.flows_completed") == 6


NAN = float("nan")


def _one_flow(**kw):
    return [Flow(fid="a", size=kw.pop("size", 100.0), path=(0,), **kw)]


# Each case builds (capacities, flows, events); building is part of the
# checked call, since invalid records are rejected on construction.
NON_FINITE = {
    "flow-size": lambda: ({0: 100.0}, _one_flow(size=NAN), None),
    "flow-size-inf": lambda: ({0: 100.0}, _one_flow(size=float("inf")), None),
    "flow-delay": lambda: ({0: 100.0}, _one_flow(delay=NAN), None),
    "flow-start-time": lambda: ({0: 100.0}, _one_flow(start_time=NAN), None),
    "flow-rate-cap": lambda: ({0: 100.0}, _one_flow(rate_cap=NAN), None),
    "link-capacity": lambda: ({0: NAN}, _one_flow(), None),
    "event-capacity": lambda: (
        {0: 100.0}, _one_flow(), [CapacityEvent(time=0.5, link=0, capacity=NAN)]
    ),
    "event-time": lambda: (
        {0: 100.0}, _one_flow(), [CapacityEvent(time=NAN, link=0, capacity=50.0)]
    ),
}

ENGINES = {
    "solo": lambda caps, flows, events: FlowSim(caps, P).run(flows, events),
    "batched": lambda caps, flows, events: BatchFlowSim(P).simulate_many(
        [(caps, flows)], events=[events]
    ),
}


@pytest.mark.timeout(30)
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_input_rejected(case, engine):
    """NaN (or infinite) sizes, times and capacities are configuration
    errors in both engines — never a hang or a crash inside the kernel."""
    with pytest.raises(ConfigError):
        ENGINES[engine](*NON_FINITE[case]())
