"""5-D (generally k-D) torus topology model of the Blue Gene/Q interconnect.

The BG/Q network is a 5-D torus whose dimensions are conventionally named
``A B C D E``; each compute node has 10 torus links (one per direction per
dimension) at 2 GB/s raw, ~1.8 GB/s available to user payload, plus an
11th I/O link on bridge nodes (modelled in :mod:`repro.machine`).

This package provides pure topology: coordinates and wrap arithmetic
(:mod:`repro.torus.coords`), directed-link identifiers
(:mod:`repro.torus.links`), the node/link graph
(:mod:`repro.torus.topology`), MPI rank-to-node mappings
(:mod:`repro.torus.mapping`), and the catalogue of Mira partition shapes
used in the paper (:mod:`repro.torus.partition`).
"""

from repro.torus.coords import (
    Coord,
    Shape,
    coord_to_index,
    index_to_coord,
    wrap_displacement,
    hop_distance,
    torus_distance,
    neighbor_coord,
    all_coords,
)
from repro.torus.links import (
    DIR_MINUS,
    DIR_PLUS,
    torus_link_id,
    torus_link_count,
    link_id_parts,
    describe_link,
)
from repro.torus.topology import TorusTopology
from repro.torus.mapping import RankMapping, DEFAULT_MAP_ORDER
from repro.torus.partition import (
    MIRA_PARTITION_SHAPES,
    partition_shape,
    nodes_for_cores,
    CORES_PER_NODE,
)

__all__ = [
    "Coord",
    "Shape",
    "coord_to_index",
    "index_to_coord",
    "wrap_displacement",
    "hop_distance",
    "torus_distance",
    "neighbor_coord",
    "all_coords",
    "DIR_MINUS",
    "DIR_PLUS",
    "torus_link_id",
    "torus_link_count",
    "link_id_parts",
    "describe_link",
    "TorusTopology",
    "RankMapping",
    "DEFAULT_MAP_ORDER",
    "MIRA_PARTITION_SHAPES",
    "partition_shape",
    "nodes_for_cores",
    "CORES_PER_NODE",
]
