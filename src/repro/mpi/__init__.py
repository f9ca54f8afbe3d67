"""A simulated MPI layer over the machine model.

Experiments are *global-view SPMD simulations*: algorithm results are
computed functionally by a driver that can see all ranks' data, while the
communication cost is accounted by building :class:`repro.network.flow.Flow`
graphs through this layer and running them in the fluid simulator.

* :class:`repro.mpi.comm.SimComm` — communicators (world + subcomms) with
  rank→node placement through a :class:`repro.torus.mapping.RankMapping`.
* :class:`repro.mpi.program.FlowProgram` — a builder for flow DAGs with
  MPI-like nonblocking put/send, waits and barriers.
* :mod:`repro.mpi.mpiio` — ROMIO-style two-phase collective I/O with
  rank-strided aggregators: **the paper's baseline** ("default MPI
  collective I/O"), which charges its collectives as closed-form delays.
"""

from repro.mpi.comm import SimComm
from repro.mpi.program import FlowProgram
from repro.mpi.mpiio import (
    CollectiveIOConfig,
    TwoPhasePlan,
    plan_collective_write,
    collective_write_flows,
)

__all__ = [
    "SimComm",
    "FlowProgram",
    "CollectiveIOConfig",
    "TwoPhasePlan",
    "plan_collective_write",
    "collective_write_flows",
]
