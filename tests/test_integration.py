"""Cross-module integration tests: the paper's end-to-end claims at
reduced scale, and cross-validation between the two network simulators.
"""

import numpy as np
import pytest

import repro
from repro import (
    TransferSpec,
    find_proxies,
    mira_system,
    run_io_movement,
    run_transfer,
)
from repro.core.proxy_select import find_proxies_for_pair
from repro.network.congestion import congestion_makespan
from repro.network.packet import PacketMessage
from repro.network.packetsim import PacketSim
from repro.torus.mapping import RankMapping
from repro.util.units import GB, KiB, MiB
from repro.workloads import corner_groups, pairwise_transfers, uniform_pattern


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_flow(self):
        system = mira_system(nnodes=128)
        spec = TransferSpec(src=0, dst=127, nbytes=8 << 20)
        direct = run_transfer(system, [spec], mode="direct")
        proxied = run_transfer(system, [spec], mode="proxy")
        assert proxied.throughput > 1.8 * direct.throughput


class TestPaperClaimP2P:
    """§V-A claim: proxies double point-to-point throughput for large
    messages and the threshold behaviour follows Eqs. 1–5."""

    def test_two_x_improvement(self, system128):
        spec = TransferSpec(0, 127, 128 * MiB)
        d = run_transfer(system128, [spec], mode="direct")
        p = run_transfer(system128, [spec], mode="proxy")
        # Paper: up to 2x with 4 proxies; the unrestricted search may
        # find a 5th disjoint proxy and do slightly better (k/2 law).
        assert p.throughput / d.throughput >= 1.9

    def test_paper_fig5_configuration_exactly_2x(self, system128):
        spec = TransferSpec(0, 127, 128 * MiB)
        d = run_transfer(system128, [spec], mode="direct")
        p = run_transfer(system128, [spec], mode="proxy", max_proxies=4)
        assert p.throughput / d.throughput == pytest.approx(2.0, rel=0.05)

    def test_proxies_recruit_idle_links(self, system128):
        spec = TransferSpec(0, 127, 8 * MiB)
        d = run_transfer(system128, [spec], mode="direct")
        p = run_transfer(system128, [spec], mode="proxy")
        # ``link_bytes`` holds exactly the links that carried payload.
        assert len(p.result.link_bytes) > 1.5 * len(d.result.link_bytes)

    def test_congestion_bound_close_to_simulated(self, system128):
        layout = corner_groups(system128.topology, 8)
        specs = pairwise_transfers(layout, 8 * MiB)
        out = run_transfer(system128, specs, mode="direct")
        from repro.network.flow import Flow

        flows = [
            Flow(fid=i, size=s.nbytes, path=system128.compute_path(s.src, s.dst).links)
            for i, s in enumerate(specs)
        ]
        bound = congestion_makespan(flows, system128.capacity, system128.params)
        assert bound <= out.makespan
        assert bound > 0.8 * out.makespan


class TestPacketFluidAgreement:
    """The fluid model's k-path speedup matches the packet simulator."""

    def test_multipath_speedup_cross_validated(self, system128):
        asg = find_proxies_for_pair(system128, 0, 127, max_proxies=4)
        size = 256 * KiB
        # Packet level: measure phase-1 k-way spread vs single path
        # (store-and-forward phases behave identically, so phase-1 split
        # speedup is the informative part).
        psim = PacketSim()
        single = psim.run(
            [PacketMessage(mid="s", size=size, path=system128.compute_path(0, 127).links)]
        )
        spread = psim.run(
            [
                PacketMessage(mid=i, size=size // 4, path=p.links)
                for i, p in enumerate(asg.phase1)
            ]
        )
        packet_speedup = single.finish("s") / spread.makespan
        assert packet_speedup == pytest.approx(4.0, rel=0.25)


class TestPaperClaimIO:
    """§V-B / §VI claims at reduced scale: topology-aware aggregation
    beats default collective I/O and balances every ION."""

    def test_io_gain_and_balance(self):
        system = mira_system(nnodes=256)
        mapping = RankMapping(system.topology, ranks_per_node=4)
        sizes = uniform_pattern(mapping.nranks, max_size=4 * MiB, seed=11)
        ours = run_io_movement(
            system, sizes, method="topology_aware", mapping=mapping, batch_tol=0.05
        )
        base = run_io_movement(
            system, sizes, method="collective", mapping=mapping, batch_tol=0.05
        )
        assert ours.throughput > 1.5 * base.throughput
        assert ours.ion_imbalance < 1.01
        # Ours approaches the ION hardware limit (4 GB/s per pset).
        limit = system.npsets * 4 * GB
        assert ours.throughput > 0.85 * limit

    def test_hacc_window_gain(self):
        from repro.workloads import hacc_io_sizes

        system = mira_system(nnodes=256)
        mapping = RankMapping(system.topology, ranks_per_node=4)
        sizes = hacc_io_sizes(mapping.nranks)
        ours = run_io_movement(
            system, sizes, method="topology_aware", mapping=mapping, batch_tol=0.05
        )
        base = run_io_movement(
            system, sizes, method="collective", mapping=mapping, batch_tol=0.05
        )
        assert ours.throughput > 1.1 * base.throughput


class TestDeterminism:
    def test_transfer_results_reproducible(self, system128):
        spec = TransferSpec(0, 127, 4 * MiB)
        a = run_transfer(system128, [spec], mode="auto")
        b = run_transfer(system128, [spec], mode="auto")
        assert a.makespan == b.makespan
        assert a.mode_used == b.mode_used

    def test_io_results_reproducible(self, tiny_system):
        sizes = uniform_pattern(tiny_system.nnodes, max_size=1 * MiB, seed=4)
        a = run_io_movement(tiny_system, sizes)
        b = run_io_movement(tiny_system, sizes)
        assert a.makespan == b.makespan
