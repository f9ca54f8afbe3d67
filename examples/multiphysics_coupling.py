#!/usr/bin/env python3
"""Multiphysics data coupling with automatic direct/proxy planning.

Models the paper's motivating scenario (§I): two physics modules on
disjoint contiguous regions of a 2,048-node partition exchange boundary
data every coupling step while the rest of the machine is
communication-free.  The :class:`repro.TransferPlanner` applies the full
Algorithm 1 — proxy search, the Eq. 4/5 size threshold, multipath
execution — and this script sweeps the exchanged volume to show the
planner switching strategies at the threshold.

Run:  python examples/multiphysics_coupling.py
"""

from repro import TransferPlanner, mira_system
from repro.bench.harness import sweep_sizes
from repro.util.units import KiB, format_bytes, format_rate
from repro.workloads import corner_groups, pairwise_transfers


def main() -> None:
    system = mira_system(nnodes=2048)  # the paper's Figure-6 machine
    layout = corner_groups(system.topology, group_size=256)
    print(
        f"coupling {layout.group_size} nodes of module S with "
        f"{layout.group_size} nodes of module T on {system}"
    )

    planner = TransferPlanner(system)
    plan = planner.find_plan(layout.pairs())
    print(
        f"proxy search: every source found >= {plan.k_min} link-disjoint "
        f"proxies (feasible: {plan.feasible})\n"
    )

    print(f"{'boundary size':>14} {'strategy':>10} {'throughput/pair':>16} {'vs direct':>10}")
    for nbytes in sweep_sizes(64 * KiB, 16 * 1024 * KiB, factor=4):
        specs = pairwise_transfers(layout, nbytes)
        auto = planner.execute(specs)
        from repro.core import run_transfer

        direct = run_transfer(system, specs, mode="direct")
        strategy = auto.mode_used[layout.pairs()[0]]
        per_pair = auto.throughput / layout.group_size
        gain = auto.throughput / direct.throughput
        print(
            f"{format_bytes(nbytes):>14} {strategy:>10} "
            f"{format_rate(per_pair):>16} {gain:>9.2f}x"
        )

    print(
        "\nThe planner goes direct below the Eq. 4/5 threshold and splits "
        "across proxies above it — the Figure 6 behaviour."
    )


if __name__ == "__main__":
    main()
