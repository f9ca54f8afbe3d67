"""Assembled machine model."""

import pytest

from repro.machine import BGQSystem, mira_system
from repro.machine.ionode import assign_bridges
from repro.machine.pset import build_psets
from repro.network.params import MIRA_PARAMS
from repro.util.validation import ConfigError


class TestStructure:
    def test_mira_counts(self, system512):
        assert system512.nnodes == 512
        assert system512.npsets == 4
        assert len(system512.bridge_nodes) == 8

    def test_pset_of_node(self, system512):
        assert system512.pset_of_node(0).index == 0
        assert system512.pset_of_node(200).index == 1

    def test_ion_of_node_matches_pset(self, system512):
        for node in (0, 127, 128, 511):
            assert system512.ion_of_node(node).index == system512.pset_of_node(node).index

    def test_bridge_of_node_in_same_pset(self, system512):
        for node in range(0, 512, 37):
            bridge = system512.bridge_of_node(node)
            assert system512.pset_of_node(bridge) == system512.pset_of_node(node)

    def test_bridge_split_is_even(self, system512):
        counts = {}
        for node in range(512):
            b = system512.bridge_of_node(node)
            counts[b] = counts.get(b, 0) + 1
        assert set(counts.values()) == {64}

    def test_mira_factory_core_units(self):
        sys_a = mira_system(ncores=2048)
        assert sys_a.nnodes == 128

    def test_mira_factory_requires_exactly_one(self):
        with pytest.raises(ConfigError):
            mira_system()
        with pytest.raises(ConfigError):
            mira_system(nnodes=128, ncores=2048)


class TestLinkSpace:
    def test_capacity_ranges(self, system128):
        p = MIRA_PARAMS
        assert system128.capacity(0) == p.link_bw
        bridge = next(iter(system128.bridge_nodes))
        assert system128.capacity(system128.io_link_id(bridge)) == p.io_link_bw
        assert system128.capacity(system128.storage_link_id(0)) == p.ion_storage_bw

    def test_capacity_out_of_range(self, system128):
        with pytest.raises(ConfigError):
            system128.capacity(system128.nlinks_total)

    def test_io_link_only_for_bridges(self, system128):
        non_bridge = next(
            n for n in range(128) if n not in system128.bridge_nodes
        )
        with pytest.raises(ConfigError, match="not a bridge"):
            system128.io_link_id(non_bridge)

    def test_storage_link_range(self, system128):
        with pytest.raises(ConfigError):
            system128.storage_link_id(99)

    def test_link_spaces_disjoint(self, system512):
        torus_max = system512.topology.nlinks
        io_ids = {system512.io_link_id(b) for b in system512.bridge_nodes}
        st_ids = {system512.storage_link_id(i) for i in range(system512.npsets)}
        assert all(i >= torus_max for i in io_ids)
        assert not io_ids & st_ids


class TestIOPaths:
    def test_io_path_ends_at_ion_link(self, system512):
        for node in (0, 100, 300, 511):
            path = system512.io_path(node)
            bridge = system512.bridge_of_node(node)
            assert path[-1] == system512.io_link_id(bridge)

    def test_io_path_torus_prefix_length(self, system512):
        node = 5
        bridge = system512.bridge_of_node(node)
        path = system512.io_path(node)
        assert len(path) == system512.topology.distance(node, bridge) + 1

    def test_io_path_from_bridge_itself(self, system512):
        bridge = next(iter(system512.bridge_nodes))
        path = system512.io_path(bridge)
        assert path == (system512.io_link_id(bridge),)

    def test_io_path_to_storage(self, system512):
        path = system512.io_path(0, to_storage=True)
        assert path[-1] == system512.storage_link_id(0)

    def test_compute_path_cached_router(self, system128):
        assert system128.compute_path(0, 5) is system128.compute_path(0, 5)


class TestBridgeAssignment:
    def test_assignment_covers_all_nodes(self, torus128):
        psets = build_psets(128, 128, 2)
        asg = assign_bridges(torus128, psets)
        assert len(asg.bridge_of) == 128

    def test_equal_blocks_per_bridge(self, torus128):
        psets = build_psets(128, 128, 4)
        asg = assign_bridges(torus128, psets)
        counts = {}
        for n in range(128):
            counts[asg[n]] = counts.get(asg[n], 0) + 1
        assert set(counts.values()) == {32}
