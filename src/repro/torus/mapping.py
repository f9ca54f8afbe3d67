"""MPI rank-to-node mappings (BG/Q ``--mapping`` orders).

On BG/Q, ranks are laid onto the partition by a permutation string such as
``ABCDET``: the rightmost letter varies fastest as the rank increases.
``T`` is the within-node (hardware thread / core) dimension.  The default
``ABCDET`` therefore packs consecutive ranks onto the same node first,
then walks the torus E, D, C, B, A — which is why contiguous rank ranges
correspond to contiguous sub-boxes of the torus, the property the paper's
"contiguous regions" assumption rests on.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.torus.topology import TorusTopology
from repro.util.validation import ConfigError

DEFAULT_MAP_ORDER = "ABCDET"


class RankMapping:
    """Maps MPI ranks to torus nodes.

    Args:
        topology: the torus the job runs on.
        ranks_per_node: ranks placed per node (16 on Mira when running one
            rank per core-group as in the paper's experiments; the paper's
            core counts are ``16 * nnodes``).
        order: BG/Q mapping permutation, e.g. ``"ABCDET"``.  Must contain
            ``T`` exactly once and each torus dimension letter exactly
            once; defaults to the in-order permutation with T fastest
            (``ABCDET`` on a 5-D torus).
    """

    def __init__(
        self,
        topology: TorusTopology,
        ranks_per_node: int = 1,
        order: "str | None" = None,
    ):
        if ranks_per_node < 1:
            raise ConfigError(f"ranks_per_node must be >= 1, got {ranks_per_node}")
        self.topology = topology
        self.ranks_per_node = int(ranks_per_node)
        if order is None:
            # The dimension-count-appropriate analogue of ABCDET.
            order = "ABCDEFGH"[: topology.ndims] + "T"
        self.order = order.upper()
        self._axes = self._parse_order(self.order)
        self.nranks = topology.nnodes * self.ranks_per_node
        self._rank_to_node = self._build_table()
        self._node_to_ranks = self._invert()

    def _parse_order(self, order: str) -> list[int]:
        """Translate an order string to axis indices; T is axis ``ndims``."""
        ndims = self.topology.ndims
        letters = [c for c in order]
        expected = set("ABCDEFGH"[:ndims]) | {"T"}
        if set(letters) != expected or len(letters) != ndims + 1:
            raise ConfigError(
                f"mapping order {order!r} must be a permutation of "
                f"{''.join(sorted(expected))}"
            )
        axes = []
        for c in letters:
            axes.append(ndims if c == "T" else "ABCDEFGH".index(c))
        return axes

    def _build_table(self) -> np.ndarray:
        ndims = self.topology.ndims
        sizes = list(self.topology.shape) + [self.ranks_per_node]
        # Enumerate rank coordinates in the permuted order: last letter fastest.
        perm_sizes = [sizes[a] for a in self._axes]
        perm_coords = np.unravel_index(np.arange(self.nranks), perm_sizes)
        axis_coord = [None] * (ndims + 1)
        for a, col in zip(self._axes, perm_coords):
            axis_coord[a] = col
        # Row-major linearisation of the torus coordinate (T axis dropped).
        table = np.zeros(self.nranks, dtype=np.int64)
        for d in range(ndims):
            table = table * self.topology.shape[d] + axis_coord[d]
        return table

    def _invert(self) -> np.ndarray:
        order = np.argsort(self._rank_to_node, kind="stable")
        grouped_nodes = self._rank_to_node[order].reshape(
            self.topology.nnodes, self.ranks_per_node
        )
        expected = np.repeat(
            np.arange(self.topology.nnodes), self.ranks_per_node
        ).reshape(grouped_nodes.shape)
        if not np.array_equal(grouped_nodes, expected):
            raise ConfigError("mapping did not place ranks_per_node ranks on every node")
        return order.reshape(self.topology.nnodes, self.ranks_per_node)

    # -- queries -------------------------------------------------------------------

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """Every rank, ``0 .. nranks - 1`` (built once per mapping)."""
        return tuple(range(self.nranks))

    def node_of_rank(self, rank: int) -> int:
        """Torus node hosting ``rank``."""
        if not 0 <= rank < self.nranks:
            raise ConfigError(f"rank {rank} out of range (nranks={self.nranks})")
        return int(self._rank_to_node[rank])

    def ranks_on_node(self, node: int) -> list[int]:
        """All ranks hosted by ``node`` (ascending)."""
        return sorted(int(r) for r in self._node_to_ranks[node])

    def nodes_of_ranks(self, ranks: Sequence[int]) -> np.ndarray:
        """Vectorised node lookup."""
        return self._rank_to_node[np.asarray(ranks, dtype=np.int64)]

    def rank_table(self) -> np.ndarray:
        """Copy of the full rank→node table."""
        return self._rank_to_node.copy()
