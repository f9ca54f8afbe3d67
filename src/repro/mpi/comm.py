"""Simulated communicators.

:class:`SimComm` binds a rank space to torus nodes.  The world
communicator covers every rank of a :class:`~repro.torus.mapping.RankMapping`;
subcommunicators (``MPI_Comm_create`` in the paper's Algorithm 2, used to
pick per-block aggregators) restrict to a subset while local ranks are
renumbered 0..n-1.
"""

from __future__ import annotations

from typing import Sequence

from repro.machine.system import BGQSystem
from repro.torus.mapping import RankMapping
from repro.util.validation import ConfigError


class SimComm:
    """A communicator over the simulated machine.

    Args:
        system: the machine the job runs on.
        mapping: rank→node placement; defaults to one rank per node in
            ``ABCDET`` order (the topology's shared
            :attr:`~repro.torus.topology.TorusTopology.rank_mapping`).
        world_ranks: for subcommunicators — the world rank of each local
            rank.  ``None`` means the world communicator.
    """

    def __init__(
        self,
        system: BGQSystem,
        mapping: "RankMapping | None" = None,
        world_ranks: "Sequence[int] | None" = None,
    ):
        self.system = system
        self.mapping = mapping or system.topology.rank_mapping
        if self.mapping.topology is not system.topology:
            raise ConfigError("mapping and system must share one topology")
        if world_ranks is None:
            self._world_ranks = self.mapping.ranks
        else:
            wr = tuple(int(r) for r in world_ranks)
            if len(set(wr)) != len(wr):
                raise ConfigError("world_ranks must be distinct")
            for r in wr:
                if not 0 <= r < self.mapping.nranks:
                    raise ConfigError(f"world rank {r} out of range")
            self._world_ranks = wr

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self._world_ranks)

    def world_rank(self, local_rank: int) -> int:
        """World rank of a local rank."""
        if not 0 <= local_rank < self.size:
            raise ConfigError(f"local rank {local_rank} out of range (size={self.size})")
        return self._world_ranks[local_rank]

    def node_of(self, local_rank: int) -> int:
        """Torus node hosting a local rank."""
        return self.mapping.node_of_rank(self.world_rank(local_rank))

    def nodes(self) -> list[int]:
        """Hosting node of every local rank, in rank order."""
        return [self.node_of(r) for r in range(self.size)]

    def create(self, local_ranks: Sequence[int]) -> "SimComm":
        """Subcommunicator over a subset of this communicator's ranks.

        Mirrors ``MPI_Comm_create``: ``local_ranks`` are ranks *of this
        communicator*, and become ranks 0..n-1 of the child (in the given
        order).
        """
        return SimComm(
            self.system,
            self.mapping,
            world_ranks=[self.world_rank(r) for r in local_ranks],
        )

    def split_contiguous(self, nparts: int) -> list["SimComm"]:
        """Split into ``nparts`` contiguous equal rank blocks.

        The building block for per-region subcommunicators (each physics
        module of a coupled code owns a contiguous rank range).
        """
        if nparts < 1 or self.size % nparts:
            raise ConfigError(
                f"cannot split {self.size} ranks into {nparts} equal contiguous parts"
            )
        block = self.size // nparts
        return [
            self.create(range(p * block, (p + 1) * block)) for p in range(nparts)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimComm(size={self.size})"
