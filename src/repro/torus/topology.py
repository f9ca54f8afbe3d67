"""The torus node/link graph.

:class:`TorusTopology` is a value object shared by the routing layer, the
network simulators and the machine model.  It caches coordinate tables as
NumPy arrays so bulk queries (all coordinates of a node list, distances
between node vectors) are vectorised.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.torus import coords as C
from repro.torus import links as L
from repro.util.validation import ConfigError

DIM_NAMES = "ABCDEFGH"


class TorusTopology:
    """A k-dimensional torus of compute nodes.

    Args:
        shape: per-dimension sizes, e.g. ``(2, 2, 4, 4, 2)`` for the
            128-node Mira partition used in the paper's Figure 5.

    Node indices linearise coordinates row-major (dimension ``A``
    slowest).  Directed torus links use the id scheme of
    :mod:`repro.torus.links`.
    """

    def __init__(self, shape: Sequence[int]):
        self.shape: C.Shape = tuple(int(s) for s in shape)
        if not self.shape:
            raise ConfigError("torus shape must be non-empty")
        for s in self.shape:
            if s < 1:
                raise ConfigError(f"invalid torus shape {self.shape}")
        self.ndims: int = len(self.shape)
        self.nnodes: int = int(np.prod(self.shape))
        #: One step along dimension ``d`` moves the node index by
        #: ``strides[d]`` (row-major, before wrapping).
        self.strides = tuple(int(np.prod(self.shape[d + 1 :])) for d in range(self.ndims))
        self.nlinks: int = L.torus_link_count(self.nnodes, self.ndims)

    # -- identity / representation -------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(s) for s in self.shape)
        return f"TorusTopology({dims}, nodes={self.nnodes})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TorusTopology) and other.shape == self.shape

    def __hash__(self) -> int:
        return hash(self.shape)

    def dim_name(self, dim: int) -> str:
        """Letter name of a dimension (``A``..``E`` on BG/Q)."""
        return DIM_NAMES[dim] if dim < len(DIM_NAMES) else str(dim)

    # -- coordinate tables ---------------------------------------------------------

    @cached_property
    def _coord_table(self) -> np.ndarray:
        """``(nnodes, ndims)`` int array: row i is the coordinate of node i."""
        idx = np.arange(self.nnodes)
        table = np.empty((self.nnodes, self.ndims), dtype=np.int64)
        for d in range(self.ndims - 1, -1, -1):
            table[:, d] = idx % self.shape[d]
            idx = idx // self.shape[d]
        return table

    @cached_property
    def rank_mapping(self):
        """The default one-rank-per-node :class:`~repro.torus.mapping.RankMapping`,
        built once and shared (a mapping has no mutator)."""
        from repro.torus.mapping import RankMapping  # it imports this module

        return RankMapping(self)

    def coord(self, node: int) -> C.Coord:
        """Coordinate of a node index."""
        if not 0 <= node < self.nnodes:
            raise ConfigError(f"node {node} out of range (nnodes={self.nnodes})")
        return tuple(int(x) for x in self._coord_table[node])

    def node(self, coord: Sequence[int]) -> int:
        """Node index of a coordinate."""
        return C.coord_to_index(coord, self.shape)

    def coords_of(self, nodes: Iterable[int]) -> np.ndarray:
        """Vectorised coordinates of many nodes, shape ``(len(nodes), ndims)``."""
        nodes = np.asarray(list(nodes), dtype=np.int64)
        return self._coord_table[nodes]

    # -- adjacency -----------------------------------------------------------------

    def neighbor(self, node: int, dim: int, sign: int) -> int:
        """The node one hop away along ``dim`` in direction ``sign``."""
        c = C.neighbor_coord(self.coord(node), dim, sign, self.shape)
        return self.node(c)

    def neighbors(self, node: int) -> list[int]:
        """All (up to ``2*ndims``) distinct torus neighbours of ``node``."""
        out: list[int] = []
        seen = {node}
        for dim in range(self.ndims):
            for sign in (L.DIR_PLUS, L.DIR_MINUS):
                nb = self.neighbor(node, dim, sign)
                if nb not in seen:
                    out.append(nb)
                    seen.add(nb)
        return out

    def link(self, node: int, dim: int, sign: int) -> tuple[int, int]:
        """Directed link leaving ``node`` along ``(dim, sign)``.

        Returns ``(link_id, dest_node)``.
        """
        if not 0 <= dim < self.ndims:
            raise ConfigError(f"dimension {dim} out of range")
        if sign not in (L.DIR_PLUS, L.DIR_MINUS):
            raise ConfigError(f"sign must be +1/-1, got {sign}")
        return L.torus_link_id(node, dim, sign, self.ndims), self.neighbor(node, dim, sign)

    def link_source(self, link_id: int) -> int:
        """Source node of a directed torus link."""
        node, _, _ = L.link_id_parts(link_id, self.ndims)
        return node

    def link_dest(self, link_id: int) -> int:
        """Destination node of a directed torus link."""
        node, dim, sign = L.link_id_parts(link_id, self.ndims)
        return self.neighbor(node, dim, sign)

    def describe_link(self, link_id: int) -> str:
        """Readable link label, e.g. ``"n3:+C"``."""
        return L.describe_link(link_id, self.ndims, DIM_NAMES)

    # -- distances -----------------------------------------------------------------

    def hop_distance(self, a: int, b: int) -> tuple[int, ...]:
        """Per-dimension shortest hop counts between two nodes."""
        return C.hop_distance(self.coord(a), self.coord(b), self.shape)

    def distance(self, a: int, b: int) -> int:
        """Total torus hop distance between two nodes."""
        return C.torus_distance(self.coord(a), self.coord(b), self.shape)

    def diameter(self) -> int:
        """Maximum shortest-path distance on this torus."""
        return sum(s // 2 for s in self.shape)

    # -- convenience ---------------------------------------------------------------

    def all_nodes(self) -> range:
        """All node indices."""
        return range(self.nnodes)

    def sub_box_nodes(self, lo: Sequence[int], size: Sequence[int]) -> list[int]:
        """Nodes of an axis-aligned (wrapping) box.

        ``lo`` is the lowest corner, ``size`` the per-dimension extent.
        Used to place the contiguous application regions (physics modules)
        of the paper's coupling experiments.
        """
        lo = tuple(int(x) for x in lo)
        size = tuple(int(x) for x in size)
        if len(lo) != self.ndims or len(size) != self.ndims:
            raise ConfigError("box lo/size must match torus dimensionality")
        for s, ext in zip(self.shape, size):
            if not 1 <= ext <= s:
                raise ConfigError(f"box size {size} invalid for shape {self.shape}")
        nodes: list[int] = []
        idx = [0] * self.ndims
        total = int(np.prod(size))
        for _ in range(total):
            coord = tuple((lo[d] + idx[d]) % self.shape[d] for d in range(self.ndims))
            nodes.append(self.node(coord))
            for d in range(self.ndims - 1, -1, -1):
                idx[d] += 1
                if idx[d] < size[d]:
                    break
                idx[d] = 0
        return nodes
