"""Ablation — BG/Q dynamic (zone) routing vs user-space multipath.

The paper's §II distinguishes its contribution from adaptive/dynamic
routing: dynamic zones spray packets over alternative dimension orders,
relieving *link hotspots*, but every message remains one stream under
the per-stream ceiling, and only structured multipath (proxies) can gang
streams.  This ablation runs both regimes to show the boundary honestly:

* **Structured group coupling** (the paper's Figure-6 geometry): the
  pairwise deterministic routes are already link-disjoint, so dynamic
  routing has no hotspots to fix and stays at the ~1.6 GB/s ceiling —
  while proxies exceed it by the k/2 law.  *This is the paper's use
  case, and proxies win.*

* **Unstructured random sparse pairs**: deterministic routes collide;
  dynamic spraying removes the hotspots and reaches the ceiling, while
  Algorithm 1's per-source disjointness cannot prevent cross-pair
  collisions and its store-and-forward halves each path.  *Here dynamic
  routing is the better tool* — matching the paper's scoping to
  contiguous coupled regions.
"""

import numpy as np

from repro.bench.harness import FigureResult, Series
from repro.bench.report import render_figure
from repro.util.log import get_logger
from repro.core import TransferSpec, run_transfer
from repro.core.dynroute import run_dynamic_transfer
from repro.machine import mira_system
from repro.util.units import MiB
from repro.workloads import corner_groups, pairwise_transfers

log = get_logger(__name__)


def run_ablation(nbytes: int = 16 * MiB, seed: int = 2014):
    system = mira_system(nnodes=512)

    # Regime 1: the paper's structured coupling (32 v 32 corner groups).
    layout = corner_groups(system.topology, 32)
    coupled = pairwise_transfers(layout, nbytes)
    c_det = run_transfer(system, coupled, mode="direct")
    c_dyn = run_dynamic_transfer(system, coupled, seed=seed)
    c_prox = run_transfer(system, coupled, mode="proxy")

    # Regime 2: unstructured random sparse pairs.
    rng = np.random.default_rng(seed)
    nodes = rng.choice(system.nnodes, size=48, replace=False)
    random_specs = [
        TransferSpec(int(nodes[2 * i]), int(nodes[2 * i + 1]), nbytes)
        for i in range(24)
    ]
    r_det = run_transfer(system, random_specs, mode="direct")
    r_dyn = run_dynamic_transfer(system, random_specs, seed=seed)
    r_prox = run_transfer(system, random_specs, mode="proxy")

    regimes = ["coupled groups", "random pairs"]
    return FigureResult(
        figure="ablation_dynamic_routing",
        title="Routing policy vs user-space multipath (16 MiB messages)",
        xlabel="scenario",
        ylabel="total throughput [B/s]",
        series=[
            Series("deterministic", regimes, [c_det.throughput, r_det.throughput]),
            Series("dynamic zone-1", regimes, [c_dyn.throughput, r_dyn.throughput]),
            Series(
                "proxies (Algorithm 1)",
                regimes,
                [c_prox.throughput, r_prox.throughput],
            ),
        ],
        notes={
            "coupled_proxy_over_dynamic": c_prox.throughput / c_dyn.throughput,
            "random_dynamic_over_det": r_dyn.throughput / r_det.throughput,
        },
    )


def test_ablation_dynamic_routing(benchmark, save_figure):
    fig = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    log.info("\n" + save_figure(fig, render_figure(fig)))

    det = fig.get("deterministic")
    dyn = fig.get("dynamic zone-1")
    prox = fig.get("proxies (Algorithm 1)")

    # Paper regime: no hotspots, so dynamic ~ deterministic; proxies win.
    assert dyn.y_at("coupled groups") < 1.1 * det.y_at("coupled groups")
    assert prox.y_at("coupled groups") > 1.5 * dyn.y_at("coupled groups")
    # Unstructured regime: dynamic routing is the right tool.
    assert dyn.y_at("random pairs") > 1.3 * det.y_at("random pairs")
    assert dyn.y_at("random pairs") > 0.95 * prox.y_at("random pairs")
