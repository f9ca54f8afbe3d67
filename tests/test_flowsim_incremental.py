"""Incremental re-solve vs full re-solve: ≤1e-12 agreement.

The incremental engine (PR 8) re-waterfills only the connected
component of the link×flow incidence graph touched by an event —
arrival, departure, cutoff, CapacityEvent — keeping frozen rates
elsewhere.  These hypothesis tests drive random event sequences through
both engines and require agreement to ≤1e-12 relative, the bound
``docs/PERFORMANCE.md`` documents.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.flow import Flow
from repro.network.flowsim import (
    _INC_AUTO_MIN,
    CapacityEvent,
    FlowSim,
    uniform_capacities,
)
from repro.network.params import NetworkParams
from repro.util.validation import ConfigError

P = NetworkParams(
    link_bw=100.0,
    stream_cap=80.0,
    io_link_bw=100.0,
    ion_storage_bw=1000.0,
    o_msg=0.0,
    o_fwd=0.0,
    mem_bw=1000.0,
)

TOL = 1e-12


def sim(incremental, **kw):
    return FlowSim(uniform_capacities(P.link_bw), P, incremental=incremental, **kw)


# A random flow: (size, links-used bitmask over 5 links, start bucket).
flow_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=31),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=14,
)


def mk_flows(specs, *, rng=None, with_deps=False):
    flows = []
    for i, (size, mask, bucket) in enumerate(specs):
        deps = ()
        if with_deps and i >= 2 and rng is not None and rng.random() < 0.3:
            deps = (i - 2,)
        flows.append(
            Flow(
                fid=i,
                size=float(size),
                path=tuple(l for l in range(5) if mask >> l & 1),
                start_time=bucket * 7.5,
                deps=deps,
            )
        )
    return flows


def assert_results_close(a, b, tol=TOL):
    """Per-flow times, makespan and link bytes agree to ``tol`` relative."""
    assert set(a.results) == set(b.results)
    for fid, fa in a.results.items():
        fb = b.results[fid]
        assert fa.start == pytest.approx(fb.start, rel=tol, abs=tol)
        assert fa.finish == pytest.approx(fb.finish, rel=tol, abs=tol)
    assert a.makespan == pytest.approx(b.makespan, rel=tol, abs=tol)
    assert set(a.link_bytes) == set(b.link_bytes)
    for l, va in a.link_bytes.items():
        assert va == pytest.approx(b.link_bytes[l], rel=tol, abs=tol)


class TestIncrementalMatchesFull:
    @settings(max_examples=40, deadline=None)
    @given(flow_specs)
    def test_arrivals_and_departures(self, specs):
        """Staggered arrivals + natural departures: engines agree."""
        flows = mk_flows(specs)
        inc = sim(True).run(flows)
        full = sim(False).run(flows)
        assert_results_close(inc, full)

    @settings(max_examples=40, deadline=None)
    @given(flow_specs, st.integers(min_value=0, max_value=2**32 - 1))
    def test_dependency_releases(self, specs, seed):
        """Dep-triggered arrivals exercise the component-grow path."""
        rng = np.random.default_rng(seed)
        flows = mk_flows(specs, rng=rng, with_deps=True)
        inc = sim(True).run(flows)
        full = sim(False).run(flows)
        assert_results_close(inc, full)

    @settings(max_examples=40, deadline=None)
    @given(
        flow_specs,
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=60.0),
                st.integers(min_value=0, max_value=4),
                st.sampled_from([20.0, 50.0, 150.0]),
            ),
            max_size=4,
        ),
    )
    def test_capacity_events(self, specs, ev_specs):
        """Mid-run capacity changes re-solve only the touched component —
        results still match the full engine's."""
        flows = mk_flows(specs)
        events = [
            CapacityEvent(time=t, link=l, capacity=c) for t, l, c in ev_specs
        ]
        inc = sim(True).run(flows, capacity_events=events)
        full = sim(False).run(flows, capacity_events=events)
        assert_results_close(inc, full)

    @settings(max_examples=40, deadline=None)
    @given(flow_specs, st.data())
    def test_cutoffs(self, specs, data):
        """Cutoff snapshots (the resilience executor's mechanism) agree."""
        flows = mk_flows(specs)
        n_cut = data.draw(st.integers(min_value=0, max_value=len(flows)))
        cutoffs = {
            i: data.draw(
                st.floats(min_value=0.01, max_value=100.0), label=f"cut{i}"
            )
            for i in range(n_cut)
        }
        inc = sim(True).run(flows, cutoffs=cutoffs)
        full = sim(False).run(flows, cutoffs=cutoffs)
        assert_results_close(inc, full)
        for fid, rec in inc.results.items():
            assert rec.size == pytest.approx(
                full.results[fid].size, rel=TOL, abs=TOL
            )

    @settings(max_examples=15, deadline=None)
    @given(flow_specs, st.integers(min_value=0, max_value=2**32 - 1))
    def test_selfcheck_audit_passes(self, specs, seed):
        """The engine's own B-G audit (every incremental state must be a
        valid global waterfill) holds along random runs."""
        rng = np.random.default_rng(seed)
        flows = mk_flows(specs, rng=rng, with_deps=True)
        s = sim(True)
        s._selfcheck = True
        s.run(flows)  # raises RuntimeError on divergence


class TestEngineSelection:
    def test_invalid_incremental_rejected(self):
        with pytest.raises(ConfigError):
            FlowSim(uniform_capacities(P.link_bw), P, incremental="yes")

    def test_default_is_auto(self):
        assert FlowSim(uniform_capacities(P.link_bw), P).incremental == "auto"
        assert _INC_AUTO_MIN > 0

    def test_auto_matches_forced_choices(self):
        """Whatever auto picks, the physics match both forced engines."""
        flows = mk_flows([(1000 + i, 1 + i % 31, i % 3) for i in range(24)])
        auto = sim("auto").run(flows)
        assert_results_close(auto, sim(True).run(flows))
        assert_results_close(auto, sim(False).run(flows))

    def test_incremental_ignored_outside_exact_mode(self):
        """fair_tol/lazy_frac paths never use the incremental engine —
        forcing it on is a no-op there, not an error."""
        flows = mk_flows([(500, 7, 0), (900, 21, 1), (300, 31, 0)])
        a = sim(True, fair_tol=0.05).run(flows)
        b = sim(False, fair_tol=0.05).run(flows)
        assert_results_close(a, b, tol=0.0)
