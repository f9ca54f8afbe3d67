"""The Blue Gene/Q machine model: compute nodes, psets, bridge and I/O nodes.

Mira's I/O architecture (paper §III): every 128 compute nodes form a
*pset* with two *bridge nodes* among them; each bridge node owns an 11th
2 GB/s link to the pset's I/O node (ION), for 4 GB/s of I/O bandwidth
per pset.  Compute-node I/O traffic is routed deterministically over the
torus to its default bridge node, then over the 11th link to the ION,
and from there to the storage/analysis fabric.

:class:`repro.machine.system.BGQSystem` assembles the torus topology, the
pset/ION structure and the link-capacity map consumed by the network
simulators; :func:`repro.machine.mira.mira_system` builds paper-faithful
instances from a node or core count.
"""

from repro.machine.pset import Pset, build_psets
from repro.machine.ionode import IONode, BridgeAssignment
from repro.machine.system import BGQSystem
from repro.machine.mira import mira_system
from repro.machine.faults import FaultModel, degraded_system_capacity, random_link_faults

__all__ = [
    "Pset",
    "build_psets",
    "IONode",
    "BridgeAssignment",
    "BGQSystem",
    "mira_system",
    "FaultModel",
    "degraded_system_capacity",
    "random_link_faults",
]
