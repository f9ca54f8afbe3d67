"""repro — Improving Data Movement Performance for Sparse Data Patterns
on the Blue Gene/Q Supercomputer (Bui, Leigh, Jung, Vishwanath, Papka;
ICPP 2014): a faithful, laptop-scale reproduction.

The package simulates a Blue Gene/Q partition — 5-D torus, deterministic
zone routing, Messaging-Unit endpoint costs, psets with bridge and I/O
nodes — and implements the paper's two mechanisms on top:

* **multipath proxy data movement** (Algorithm 1) for sparse transfers
  between compute-node groups, and
* **topology-aware dynamic I/O aggregation** (Algorithm 2) for sparse
  writes to the I/O nodes,

together with the baselines they are measured against (single-path
deterministic routing; ROMIO-style collective buffering).

Quick start::

    from repro import mira_system, TransferSpec, run_transfer

    system = mira_system(nnodes=128)          # the paper's 2x2x4x4x2 torus
    spec = TransferSpec(src=0, dst=127, nbytes=8 << 20)
    direct = run_transfer(system, [spec], mode="direct")
    proxied = run_transfer(system, [spec], mode="proxy")
    print(direct.throughput, proxied.throughput)   # ~1.6 GB/s vs ~3+ GB/s

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced figure.
"""

from repro.machine import BGQSystem, mira_system
from repro.network import (
    Flow,
    FlowSim,
    MIRA_PARAMS,
    NetworkParams,
    PacketSim,
)
from repro.routing import DimOrderRouter, Path, ZoneId, route
from repro.torus import RankMapping, TorusTopology, partition_shape
from repro.core import (
    AggregationPlan,
    AggregatorConfig,
    IOOutcome,
    ProxyPlan,
    TransferModel,
    TransferOutcome,
    TransferPlanner,
    TransferSpec,
    find_proxies,
    plan_aggregation,
    run_io_movement,
    run_pipelined_transfer,
    run_transfer,
    run_transfer_many,
)
from repro.mpi import CollectiveIOConfig, FlowProgram, SimComm
from repro.resilience import (
    HealthMonitor,
    ResilientOutcome,
    ResilientPlanner,
    RetryPolicy,
    TransferAbortedError,
    run_resilient_transfer,
)
from repro.workloads import (
    corner_groups,
    hacc_io_sizes,
    pairwise_transfers,
    pareto_pattern,
    uniform_pattern,
)

__version__ = "1.0.0"

__all__ = [
    "BGQSystem",
    "mira_system",
    "Flow",
    "FlowSim",
    "MIRA_PARAMS",
    "NetworkParams",
    "PacketSim",
    "DimOrderRouter",
    "Path",
    "ZoneId",
    "route",
    "RankMapping",
    "TorusTopology",
    "partition_shape",
    "AggregationPlan",
    "AggregatorConfig",
    "IOOutcome",
    "ProxyPlan",
    "TransferModel",
    "TransferOutcome",
    "TransferPlanner",
    "TransferSpec",
    "find_proxies",
    "plan_aggregation",
    "run_io_movement",
    "run_pipelined_transfer",
    "run_transfer",
    "run_transfer_many",
    "CollectiveIOConfig",
    "FlowProgram",
    "SimComm",
    "HealthMonitor",
    "ResilientOutcome",
    "ResilientPlanner",
    "RetryPolicy",
    "TransferAbortedError",
    "run_resilient_transfer",
    "corner_groups",
    "hacc_io_sizes",
    "pairwise_transfers",
    "pareto_pattern",
    "uniform_pattern",
    "__version__",
]
