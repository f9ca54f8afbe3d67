"""Columnar flow programs: set emission, stride routing and array-backed
results, each checked against a per-flow reference the test carries.

* Emission: :func:`~repro.core.multipath.emit_transfer_set` and the
  executor's pinned-share builders append exactly the :class:`Flow`
  records a per-flow emitter makes (ids, sizes, routes, dependencies,
  delays, start times, rate caps and tags), on the geometries of
  Figs. 5-7.
* Routing: :func:`~repro.routing.deterministic.route` walks the same
  hops as a per-hop walk through the topology's coordinate API.
* Results: every :class:`~repro.network.flowsim.FlowSimResult` accessor
  agrees with the ``{fid: FlowResult}`` dict, in both engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import TransferModel
from repro.core.multipath import (
    TransferSpec,
    build_direct_flows,
    build_multipath_flows_detailed,
    emit_transfer_set,
    run_transfer,
    split_bytes,
)
from repro.core.proxy_select import find_proxies, find_proxies_for_pair, forced_assignment
from repro.machine import mira_system
from repro.machine.faults import SDCModel
from repro.mpi.comm import SimComm
from repro.mpi.program import FlowProgram
from repro.network.batchsim import BatchFlowSim
from repro.network.flow import Flow, FlowColumns
from repro.network.flowsim import CapacityEvent, FlowSim, uniform_capacities
from repro.network.params import NetworkParams
from repro.routing.deterministic import route, route_coords
from repro.torus import mapping as mapping_mod
from repro.torus.coords import wrap_displacement
from repro.torus.mapping import RankMapping
from repro.torus.topology import TorusTopology
from repro.util.validation import ConfigError
from repro.workloads import corner_groups, pairwise_transfers


# ------------------------------------------------------------ emission


class ReferenceEmitter:
    """Emits one :class:`Flow` per put, the way ``FlowProgram.iput_nodes``
    and ``FlowProgram.event`` build them one call at a time."""

    def __init__(self, system):
        self.system = system
        self.params = system.params
        self.flows: "list[Flow]" = []

    def put(self, label, a, b, nbytes, after=(), relay=False, tag=None):
        p = self.params
        fid = f"{label}#{len(self.flows) + 1}"
        if a == b:
            path, cap = (), p.mem_bw
        else:
            path, cap = route(self.system.topology, a, b).links, None
        delay = p.o_msg + (p.o_fwd if relay else 0.0)
        self.flows.append(Flow(fid, float(nbytes), path, tuple(after), delay, 0.0, cap, tag))
        return fid

    def join(self, label, after):
        fid = f"{label}#{len(self.flows) + 1}"
        self.flows.append(Flow(fid, 0.0, (), tuple(after), 0.0))
        return fid

    def carriers(self, spec, proxies, shares, label="mpath"):
        tag = (spec.src, spec.dst)
        exits = []
        for proxy, share in zip(proxies, shares):
            if proxy == spec.src:
                exits.append(self.put(f"{label}-self", spec.src, spec.dst, share, tag=tag))
                continue
            f1 = self.put(f"{label}-p1", spec.src, proxy, share, tag=tag)
            exits.append(
                self.put(f"{label}-p2", proxy, spec.dst, share, (f1,), relay=True, tag=tag)
            )
        return self.join(f"{label}-done", exits)

    def transfer_set(self, specs, assignments, mode, min_proxies):
        """Algorithm 1's per-spec policy, spec by spec."""
        model = TransferModel(self.params)
        for spec in specs:
            asg = assignments.get((spec.src, spec.dst)) if assignments else None
            if mode == "direct" or asg is None or asg.k < 1:
                use = False
            elif mode == "proxy":
                use = asg.k >= min_proxies
            else:
                use = asg.k >= min_proxies and model.use_proxies(spec.nbytes, asg.k)
            if use and spec.nbytes >= asg.k:
                self.carriers(spec, asg.proxies, split_bytes(spec.nbytes, asg.k))
            else:
                self.put("direct", spec.src, spec.dst, spec.nbytes, tag=(spec.src, spec.dst))
        return self.flows


def emitted(system, specs, assignments, mode, min_proxies=TransferModel.MIN_BENEFICIAL_PROXIES):
    prog = FlowProgram(SimComm(system))
    emit_transfer_set(prog, specs, assignments, mode, min_proxies, TransferModel(system.params))
    return prog


@pytest.fixture(scope="module")
def fig5():
    system = mira_system(nnodes=128)
    src, dst = 0, system.nnodes - 1
    return system, {(src, dst): find_proxies_for_pair(system, src, dst, max_proxies=4)}


@pytest.fixture(scope="module")
def fig6():
    system = mira_system(nnodes=2048)
    layout = corner_groups(system.topology, 256)
    return system, layout, find_proxies(system, layout.pairs()).assignments


@pytest.fixture(scope="module")
def fig7_five():
    """Fig. 7's k=5 geometry: four proxies plus the source itself."""
    system = mira_system(nnodes=512)
    layout = corner_groups(system.topology, 32)
    plan = find_proxies(system, layout.pairs(), max_proxies=4)
    forced = {
        (s, d): forced_assignment(system, s, d, [*a.proxies[:4], s])
        for (s, d), a in plan.assignments.items()
    }
    return system, layout, forced


class TestSetEmission:
    @pytest.mark.parametrize("nbytes", [1000, 300 * 1024, 8 << 20])
    @pytest.mark.parametrize("mode", ["direct", "proxy", "auto"])
    def test_fig5_pair(self, fig5, mode, nbytes):
        system, asg = fig5
        specs = [TransferSpec(0, system.nnodes - 1, nbytes)]
        prog = emitted(system, specs, asg, mode)
        assert list(prog.flows) == ReferenceEmitter(system).transfer_set(specs, asg, mode, 3)

    @pytest.mark.parametrize("mode", ["direct", "proxy", "auto"])
    def test_fig6_groups(self, fig6, mode):
        system, layout, asg = fig6
        specs = pairwise_transfers(layout, 1 << 20)
        prog = emitted(system, specs, asg, mode)
        ref = ReferenceEmitter(system).transfer_set(specs, asg, mode, 3)
        assert len(prog.flows) == len(ref) and list(prog.flows) == ref

    def test_fig7_self_carrier(self, fig7_five):
        system, layout, forced = fig7_five
        specs = pairwise_transfers(layout, (8 << 20) + 3)  # uneven shares
        prog = emitted(system, specs, forced, "proxy", min_proxies=2)
        ref = ReferenceEmitter(system).transfer_set(specs, forced, "proxy", 2)
        assert list(prog.flows) == ref
        assert sum(f.fid.startswith("mpath-self") for f in ref) == len(specs)

    def test_run_transfer_simulates_the_emitted_set(self, fig5):
        system, asg = fig5
        specs = [TransferSpec(0, system.nnodes - 1, 8 << 20)]
        out = run_transfer(system, specs, mode="proxy", assignments=asg)
        ref = ReferenceEmitter(system).transfer_set(specs, asg, "proxy", 3)
        assert list(out.result.results) == [f.fid for f in ref]
        assert out.result.results == FlowSim(system.capacity, system.params).run(ref).results

    def test_pinned_shares_and_direct_builders(self, fig7_five):
        """The executor's emission: pinned shares, a weighted split and a
        labelled direct put, interleaved in one program."""
        system, layout, forced = fig7_five
        (s, d), asg = next(iter(forced.items()))
        spec = TransferSpec(s, d, 1000)
        prog = FlowProgram(SimComm(system))
        ref = ReferenceEmitter(system)
        pinned = [100, 200, 300, 150, 250]
        done, cars = build_multipath_flows_detailed(prog, spec, asg, shares=pinned, label="r1")
        assert done == ref.carriers(spec, asg.proxies, pinned, label="r1")
        assert [(c.proxy, c.share) for c in cars] == list(zip(asg.proxies, pinned))
        assert [c.phase1 is None for c in cars] == [p == s for p in asg.proxies]
        assert build_direct_flows(prog, spec, label="redo") == ref.put(
            "redo", s, d, 1000, tag=(s, d)
        )
        _, cars = build_multipath_flows_detailed(prog, spec, asg, weights=[1, 2, 3, 4, 5])
        ref.carriers(spec, asg.proxies, [c.share for c in cars])
        assert list(prog.flows) == ref.flows

    @pytest.mark.parametrize("append, bad", [
        (lambda p: p.iput_nodes(0, 9, float("nan"), label="x"), dict(size=float("nan"))),
        (lambda p: p.iput_nodes(0, 9, 10, label="x", start_time=-1.0), dict(start_time=-1.0)),
        (lambda p: p.iwrite_ion(0, -5, label="x", relay=False), dict(size=-5.0)),
        (lambda p: p.event([], label="x", delay=float("inf")), dict(size=0.0, delay=float("inf"))),
    ])
    def test_appends_are_checked_as_flow_checks_them(self, fig5, append, bad):
        """A bad row raises the error :class:`Flow` raises, and is not kept."""
        prog = FlowProgram(SimComm(fig5[0]))
        with pytest.raises(ConfigError) as got:
            append(prog)
        with pytest.raises(ConfigError) as want:
            Flow("x#1", **{"size": 10.0, "delay": prog.params.o_msg, **bad})
        assert str(got.value) == str(want.value) and len(prog.flows) == 0

    def test_flows_view_is_read_only(self, fig5):
        system, _ = fig5
        prog = FlowProgram(SimComm(system))
        prog.iput_nodes(0, 3, 10)
        assert isinstance(prog.flows[0], Flow) and not hasattr(prog.flows, "append")
        assert FlowColumns.of(list(prog.flows)).path == prog.columns.path


class TestWorldCommunicator:
    def test_one_default_mapping_per_topology(self, fig5, monkeypatch):
        system, asg = fig5
        system = mira_system(nnodes=128)  # a fresh topology
        built = []
        init = RankMapping.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(mapping_mod.RankMapping, "__init__", counting)
        spec = [TransferSpec(0, system.nnodes - 1, 1 << 20)]
        run_transfer(system, spec, mode="direct")
        run_transfer(system, spec, mode="direct")
        assert len(built) == 1 and SimComm(system).mapping is built[0]
        custom = RankMapping(system.topology, ranks_per_node=2)
        assert SimComm(system, custom).mapping is custom and len(built) == 2
        assert SimComm(system, custom).size == 2 * system.nnodes


# ------------------------------------------------------------- routing


def reference_hops(topology, src, dst, order=None):
    """The per-hop walk: every hop looks its node and link up through
    the topology's coordinate API."""
    cur = list(topology.coord(src))
    dst_c = topology.coord(dst)
    if order is None:
        hops = [wrap_displacement(s, t, n)[0] for s, t, n in zip(cur, dst_c, topology.shape)]
        order = sorted((d for d, h in enumerate(hops) if h), key=lambda d: (-hops[d], d))
    links, nodes = [], [src]
    for dim in order:
        n, sign = wrap_displacement(cur[dim], dst_c[dim], topology.shape[dim])
        for _ in range(n):
            link, nxt = topology.link(topology.node(tuple(cur)), dim, sign)
            links.append(link)
            nodes.append(nxt)
            cur[dim] = (cur[dim] + sign) % topology.shape[dim]
    return tuple(links), tuple(nodes)


shapes = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


class TestStrideRouting:
    @settings(max_examples=120, deadline=None)
    @given(shapes, st.data())
    def test_matches_the_per_hop_walk(self, shape, data):
        t = TorusTopology(shape)
        node = st.integers(min_value=0, max_value=t.nnodes - 1)
        src, dst = data.draw(node), data.draw(node)
        p = route(t, src, dst)
        assert (p.links, p.nodes) == reference_hops(t, src, dst)
        order = data.draw(st.permutations(range(t.ndims)))
        assert route(t, src, dst, order).links == reference_hops(t, src, dst, order)[0]
        assert [h[0] for h in route_coords(t, src, dst, order)] == list(
            reference_hops(t, src, dst, order)[1][:-1]
        )

    def test_even_rings_tie_positive(self):
        t = TorusTopology((2, 4, 1, 6))
        for src in range(t.nnodes):
            for dst in range(t.nnodes):
                assert route(t, src, dst).links == reference_hops(t, src, dst)[0]

    @pytest.mark.parametrize("src, dst", [(-1, 3), (3, 48), (48, 0)])
    def test_bad_nodes_raise(self, src, dst):
        with pytest.raises(ConfigError, match="out of range"):
            route(TorusTopology((4, 4, 3)), src, dst)

    @pytest.mark.parametrize("order, match", [((0, 1), "omits"), ((0, 1, 3), "outside"), ((2, -1, 0, 1), "outside")])
    def test_bad_orders_raise(self, order, match):
        t = TorusTopology((4, 4, 3))
        with pytest.raises(ConfigError, match=match):
            route(t, 0, t.node((1, 2, 1)), order=order)


# ------------------------------------------------------------- results

P = NetworkParams(
    link_bw=100.0, stream_cap=80.0, io_link_bw=100.0, ion_storage_bw=1000.0,
    o_msg=0.0, o_fwd=0.0, mem_bw=1000.0,
)


def random_program(seed):
    """Flows over 6 links with starts, delays and dependencies, zero-byte
    joins, capacity events, cutoffs and an SDC model."""
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(int(rng.integers(2, 14))):
        if i >= 2 and rng.random() < 0.25:  # a zero-byte join
            deps = tuple(f"f{j}" for j in rng.choice(i, size=2, replace=False))
            flows.append(Flow(f"f{i}", 0.0, (), deps, float(rng.choice([0.0, 0.5]))))
            continue
        mask = int(rng.integers(1, 64))
        flows.append(Flow(
            f"f{i}", float(rng.integers(1, 4000)), tuple(l for l in range(6) if mask >> l & 1),
            (f"f{i - 1}",) if i and rng.random() < 0.3 else (),
            float(rng.uniform(0, 0.5)), float(rng.uniform(0, 10)) if rng.random() < 0.5 else 0.0,
            float(rng.choice([30.0, 60.0])) if rng.random() < 0.3 else None,
            ("t", int(rng.integers(0, 3))),
        ))
    events = [
        CapacityEvent(float(rng.uniform(0, 30)), int(rng.integers(0, 6)), float(rng.choice([20.0, 150.0])))
        for _ in range(int(rng.integers(0, 3)))
    ]
    cutoffs = {f"f{int(j)}": float(rng.uniform(0, 40)) for j in rng.integers(0, len(flows), 2)}
    sdc = SDCModel(flip_links={0: 0.25, 3: 0.1}, seed=seed) if rng.random() < 0.5 else None
    return flows, events, cutoffs, sdc


def assert_matches_dict(res, flows, sdc):
    """Every accessor reads what the ``{fid: FlowResult}`` dict holds."""
    eager = res.results
    assert list(eager) == [f.fid for f in flows] and len(res) == len(flows)
    for f in flows:
        r = eager[f.fid]
        assert (r.size, r.tag) == (f.size, f.tag)
        assert res[f.fid] == r and res.finish(f.fid) == r.finish
        cut = res.cutoff_bytes.get(f.fid)
        assert res.delivered_by_cutoff(f.fid) == (float(r.size) if cut is None else cut)
        want = sdc.route_flip_probability(f.path) if sdc is not None else 0.0
        assert res.wire_flip_probability(f.fid) == want
    assert res.total_bytes() == float(sum(r.size for r in eager.values()))
    for tag in {f.tag for f in flows}:
        assert res.by_tag(tag) == [r for r in eager.values() if r.tag == tag]
    assert res.makespan == max(r.finish for r in eager.values())


class TestArrayResults:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=5))
    def test_both_engines(self, seeds):
        caps = uniform_capacities(P.link_bw)
        programs = [random_program(s) for s in seeds]
        batch = BatchFlowSim(P).simulate_many(
            [(caps, flows) for flows, _, _, _ in programs],
            events=[ev for _, ev, _, _ in programs],
            cutoffs=[cut for _, _, cut, _ in programs],
            sdc=[sdc for _, _, _, sdc in programs],
        )
        for (flows, events, cutoffs, sdc), b in zip(programs, batch):
            solo = FlowSim(caps, P, incremental=False).run(
                FlowColumns.of(flows), events, cutoffs=cutoffs, sdc=sdc
            )
            for res in (solo, b):
                assert_matches_dict(res, flows, sdc)
            assert b.results == solo.results and b.link_bytes == solo.link_bytes

    def test_empty_run(self):
        res = FlowSim(uniform_capacities(1.0), P).run([])
        assert (len(res), res.results, res.makespan, res.total_bytes()) == (0, {}, 0.0, 0.0)
