"""The paper's evaluation figures as runnable experiments.

Every function reproduces one artefact of the paper's evaluation
(§V microbenchmarks, §VI application benchmark) on the simulated Mira
and returns a :class:`~repro.bench.harness.FigureResult` whose series
carry the same quantities the paper plots.  Figures 1–4 are architecture
diagrams, not measurements, and have no experiment.

All experiments accept scaling knobs so the test suite can run reduced
versions; the defaults match the paper's configurations.  The transfer
figures (5–7 and the model check) always share bandwidth exactly
max-min fair; only the I/O figures (10, 11) take the simulator's
approximate-fairness knobs (``batch_tol``/``fair_tol``/``lazy_frac``).
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import FigureResult, Series, sweep_sizes
from repro.core import (
    AggregatorConfig,
    TransferModel,
    find_proxies,
    find_proxies_for_pair,
    forced_assignment,
    run_io_movement,
    run_transfer,
)
from repro.machine import mira_system
from repro.mpi import CollectiveIOConfig
from repro.network.params import MIRA_PARAMS, NetworkParams
from repro.torus.mapping import RankMapping
from repro.torus.partition import CORES_PER_NODE, nodes_for_cores
from repro.util.units import GB, KiB, MiB
from repro.workloads import (
    corner_groups,
    hacc_io_sizes,
    pairwise_transfers,
    pareto_pattern,
    uniform_pattern,
)
from repro.workloads.sparse import size_histogram

#: Default x-grids matching the paper.
P2P_SIZES = sweep_sizes(1 * KiB, 128 * 1024 * KiB)
FIG10_CORES = (2048, 4096, 8192, 16384, 32768, 65536, 131072)
FIG11_CORES = (8192, 16384, 32768, 65536, 131072)


# --------------------------------------------------------------------- fig 5


def fig5_p2p_proxies(
    *,
    sizes: "Sequence[int] | None" = None,
    params: NetworkParams = MIRA_PARAMS,
) -> FigureResult:
    """Figure 5: point-to-point PUT with and without 4 proxies.

    First and last node of a 128-node ``2x2x4x4x2`` partition; the paper
    reports a 256 KB crossover at ~1.4 GB/s, direct saturating near
    1.6 GB/s and the proxied transfer reaching ~3.2 GB/s.
    """
    sizes = list(sizes) if sizes is not None else P2P_SIZES
    system = mira_system(nnodes=128, params=params)
    src, dst = 0, system.nnodes - 1
    assignment = find_proxies_for_pair(system, src, dst, max_proxies=4)

    direct_y, proxy_y = [], []
    for nbytes in sizes:
        spec = _spec(src, dst, nbytes)
        direct_y.append(run_transfer(system, [spec], mode="direct").throughput)
        proxy_y.append(
            run_transfer(
                system, [spec], mode="proxy", assignments={(src, dst): assignment}
            ).throughput
        )
    fig = FigureResult(
        figure="fig5",
        title="P2P PUT throughput with and without proxies (2x2x4x4x2)",
        xlabel="message size [B]",
        ylabel="throughput [B/s]",
        series=[
            Series("direct", sizes, direct_y, {"paper_peak": 1.6 * GB}),
            Series(
                f"proxies:{assignment.k}",
                sizes,
                proxy_y,
                {"proxies": assignment.proxies, "paper_peak": 3.2 * GB},
            ),
        ],
    )
    fig.notes["crossover"] = fig.crossover(f"proxies:{assignment.k}", "direct")
    fig.notes["paper_crossover"] = 256 * KiB
    return fig


# --------------------------------------------------------------------- fig 6


def fig6_group_proxies(
    *,
    sizes: "Sequence[int] | None" = None,
    nnodes: int = 2048,
    group_size: int = 256,
    params: NetworkParams = MIRA_PARAMS,
) -> FigureResult:
    """Figure 6: transfers between two groups of 256 nodes in a 2K-node
    ``4x4x4x16x2`` partition, with and without (3 groups of) proxies.

    Paper: crossover at 512 KB (~1.58 GB/s), direct saturating at
    ~1.6 GB/s per pair, proxied reaching ~2.4 GB/s per pair (1.5x).
    """
    sizes = list(sizes) if sizes is not None else P2P_SIZES
    system = mira_system(nnodes=nnodes, params=params)
    layout = corner_groups(system.topology, group_size)
    plan = find_proxies(system, layout.pairs())

    direct_y, proxy_y = [], []
    for nbytes in sizes:
        specs = pairwise_transfers(layout, nbytes)
        d = run_transfer(system, specs, mode="direct")
        p = run_transfer(system, specs, mode="proxy", assignments=plan.assignments)
        direct_y.append(d.throughput / layout.group_size)
        proxy_y.append(p.throughput / layout.group_size)
    kmin = plan.k_min
    fig = FigureResult(
        figure="fig6",
        title=f"Group-to-group PUT, {group_size} v {group_size} nodes in {nnodes}",
        xlabel="message size [B]",
        ylabel="per-pair throughput [B/s]",
        series=[
            Series("direct", sizes, direct_y, {"paper_peak": 1.6 * GB}),
            Series(
                f"proxies:{kmin}",
                sizes,
                proxy_y,
                {"k_min": kmin, "paper_peak": 2.4 * GB},
            ),
        ],
    )
    fig.notes["crossover"] = fig.crossover(f"proxies:{kmin}", "direct")
    fig.notes["paper_crossover"] = 512 * KiB
    return fig


# --------------------------------------------------------------------- fig 7


def fig7_proxy_count(
    *,
    sizes: "Sequence[int] | None" = None,
    nnodes: int = 512,
    group_size: int = 32,
    proxy_counts: Sequence[int] = (0, 2, 3, 4, 5),
    params: NetworkParams = MIRA_PARAMS,
) -> FigureResult:
    """Figure 7: throughput vs number of proxy groups (2 groups of 32
    nodes, 512-node ``4x4x4x4x2`` partition).

    Paper: 2 groups → no improvement, 3 → 1.5x, 4 → 2x, 5 (the source
    itself as the 5th carrier) → performance drops from interference.
    """
    sizes = list(sizes) if sizes is not None else P2P_SIZES
    system = mira_system(nnodes=nnodes, params=params)
    layout = corner_groups(system.topology, group_size)
    plan = find_proxies(system, layout.pairs(), max_proxies=4)
    if plan.k_min < 4:
        raise RuntimeError(
            f"figure 7 geometry should admit 4 proxies, found {plan.k_min}"
        )

    series = []
    for k in proxy_counts:
        ys = []
        if k == 0:
            for nbytes in sizes:
                specs = pairwise_transfers(layout, nbytes)
                out = run_transfer(system, specs, mode="direct")
                ys.append(out.throughput / layout.group_size)
            series.append(Series("no proxies", sizes, ys))
            continue
        forced = {}
        for (s, d), a in plan.assignments.items():
            carriers = list(a.proxies[: min(k, 4)])
            if k == 5:
                carriers.append(s)  # the paper's "5th proxy is the source"
            forced[(s, d)] = forced_assignment(system, s, d, carriers)
        for nbytes in sizes:
            specs = pairwise_transfers(layout, nbytes)
            out = run_transfer(
                system, specs, mode="proxy", assignments=forced, min_proxies=2
            )
            ys.append(out.throughput / layout.group_size)
        series.append(Series(f"{k} proxy groups", sizes, ys))
    fig = FigureResult(
        figure="fig7",
        title="Throughput vs number of proxy groups (32 v 32 in 512 nodes)",
        xlabel="message size [B]",
        ylabel="per-pair throughput [B/s]",
        series=series,
    )
    big = sizes[-1]
    base = fig.get("no proxies").y_at(big)
    fig.notes["speedup_at_max"] = {
        s.name: s.y_at(big) / base for s in series if s.name != "no proxies"
    }
    return fig


# ----------------------------------------------------------------- figs 8, 9


def fig8_pattern1_histogram(
    *, nranks: int = 1024, max_size: int = 8 * MiB, nbins: int = 32, seed: int = 2014
) -> FigureResult:
    """Figure 8: histogram of Pattern-1 (uniform) sizes for 1,024 ranks."""
    sizes = uniform_pattern(nranks, max_size=max_size, seed=seed)
    edges, counts = size_histogram(sizes, nbins=nbins, max_size=max_size)
    return FigureResult(
        figure="fig8",
        title="Pattern 1: uniform sparse size distribution",
        xlabel="data size per rank [B]",
        ylabel="frequency",
        series=[Series("pattern1", [float(e) for e in edges[:-1]], counts.tolist())],
        notes={"total_bytes": int(sizes.sum()), "dense_fraction_expected": 0.5},
    )


def fig9_pattern2_histogram(
    *, nranks: int = 1024, max_size: int = 8 * MiB, nbins: int = 32, seed: int = 2014
) -> FigureResult:
    """Figure 9: histogram of Pattern-2 (Pareto) sizes for 1,024 ranks."""
    sizes = pareto_pattern(nranks, max_size=max_size, seed=seed)
    edges, counts = size_histogram(sizes, nbins=nbins, max_size=max_size)
    return FigureResult(
        figure="fig9",
        title="Pattern 2: Pareto sparse size distribution",
        xlabel="data size per rank [B]",
        ylabel="frequency",
        series=[Series("pattern2", [float(e) for e in edges[:-1]], counts.tolist())],
        notes={"total_bytes": int(sizes.sum()), "dense_fraction_expected": 0.2},
    )


# -------------------------------------------------------------------- fig 10


def fig10_aggregation_scaling(
    *,
    cores: Sequence[int] = FIG10_CORES,
    max_size: int = 8 * MiB,
    params: NetworkParams = MIRA_PARAMS,
    agg_config: AggregatorConfig = AggregatorConfig(),
    cb_config: CollectiveIOConfig = CollectiveIOConfig(),
    batch_tol: float = 0.1,
    fair_tol: float = 0.05,
    lazy_frac: float = 0.05,
    seed: int = 2014,
) -> FigureResult:
    """Figure 10: aggregation throughput to the IONs (``/dev/null``),
    weak scaling, our approach vs default MPI collective I/O, for both
    sparse patterns.

    Paper: Pattern 1 gains 2x at 2,048 cores growing to 3x at 131,072;
    Pattern 2 gains 1.5x growing to 2x.
    """
    series = {name: [] for name in ("ours P1", "MPI-IO P1", "ours P2", "MPI-IO P2")}
    xs = []
    for ncores in cores:
        nnodes = nodes_for_cores(ncores)
        system = mira_system(nnodes=nnodes, params=params)
        mapping = RankMapping(system.topology, ranks_per_node=CORES_PER_NODE)
        xs.append(ncores)
        p1 = uniform_pattern(mapping.nranks, max_size=max_size, seed=seed)
        p2 = pareto_pattern(mapping.nranks, max_size=max_size, seed=seed)
        for name, sizes in (("P1", p1), ("P2", p2)):
            ours = run_io_movement(
                system,
                sizes,
                method="topology_aware",
                mapping=mapping,
                agg_config=agg_config,
                batch_tol=batch_tol,
                fair_tol=fair_tol,
                lazy_frac=lazy_frac,
            )
            base = run_io_movement(
                system,
                sizes,
                method="collective",
                mapping=mapping,
                cb_config=cb_config,
                batch_tol=batch_tol,
                fair_tol=fair_tol,
                lazy_frac=lazy_frac,
            )
            series[f"ours {name}"].append(ours.throughput)
            series[f"MPI-IO {name}"].append(base.throughput)
    fig = FigureResult(
        figure="fig10",
        title="Aggregation throughput to ION /dev/null (weak scaling)",
        xlabel="cores",
        ylabel="total throughput [B/s]",
        series=[Series(n, list(xs), ys) for n, ys in series.items()],
    )
    fig.notes["gain_P1"] = fig.get("ours P1").ratio_to(fig.get("MPI-IO P1"))
    fig.notes["gain_P2"] = fig.get("ours P2").ratio_to(fig.get("MPI-IO P2"))
    fig.notes["paper_gain_P1"] = "2x at 2,048 cores -> 3x at 131,072"
    fig.notes["paper_gain_P2"] = "1.5x at 2,048 cores -> 2x at 131,072"
    return fig


# -------------------------------------------------------------------- fig 11


def fig11_hacc_io(
    *,
    cores: Sequence[int] = FIG11_CORES,
    params: NetworkParams = MIRA_PARAMS,
    agg_config: AggregatorConfig = AggregatorConfig(),
    cb_config: CollectiveIOConfig = CollectiveIOConfig(),
    batch_tol: float = 0.1,
    fair_tol: float = 0.05,
    lazy_frac: float = 0.05,
) -> FigureResult:
    """Figure 11: HACC I/O write throughput to the IONs, customized
    (topology-aware) aggregator selection vs default MPI collective I/O.

    Paper: up to ~50% higher throughput, 8,192 → 131,072 cores.
    """
    xs, ours_y, base_y = [], [], []
    for ncores in cores:
        nnodes = nodes_for_cores(ncores)
        system = mira_system(nnodes=nnodes, params=params)
        mapping = RankMapping(system.topology, ranks_per_node=CORES_PER_NODE)
        sizes = hacc_io_sizes(mapping.nranks)
        xs.append(ncores)
        ours_y.append(
            run_io_movement(
                system,
                sizes,
                method="topology_aware",
                mapping=mapping,
                agg_config=agg_config,
                batch_tol=batch_tol,
                fair_tol=fair_tol,
                lazy_frac=lazy_frac,
            ).throughput
        )
        base_y.append(
            run_io_movement(
                system,
                sizes,
                method="collective",
                mapping=mapping,
                cb_config=cb_config,
                batch_tol=batch_tol,
                fair_tol=fair_tol,
                lazy_frac=lazy_frac,
            ).throughput
        )
    fig = FigureResult(
        figure="fig11",
        title="HACC I/O write throughput to ION /dev/null",
        xlabel="cores",
        ylabel="total throughput [B/s]",
        series=[
            Series("customized aggregators", xs, ours_y),
            Series("default MPI collective I/O", xs, base_y),
        ],
    )
    fig.notes["gain"] = fig.get("customized aggregators").ratio_to(
        fig.get("default MPI collective I/O")
    )
    fig.notes["paper_gain"] = "up to ~1.5x"
    return fig


# ------------------------------------------------------------- model checks


def model_threshold_check(
    *,
    params: NetworkParams = MIRA_PARAMS,
) -> FigureResult:
    """Analytic (Eqs. 1–5) vs simulated direct/proxy crossover sizes."""
    model = TransferModel(params)
    system = mira_system(nnodes=128, params=params)
    src, dst = 0, system.nnodes - 1
    xs, analytic, simulated = [], [], []
    for k in (3, 4):
        assignment = find_proxies_for_pair(system, src, dst, max_proxies=k)
        if assignment.k < k:
            continue
        xs.append(k)
        analytic.append(model.threshold(k))
        crossover = None
        for nbytes in sweep_sizes(16 * KiB, 8 * 1024 * KiB):
            spec = _spec(src, dst, nbytes)
            d = run_transfer(system, [spec], mode="direct")
            p = run_transfer(
                system, [spec], mode="proxy", assignments={(src, dst): assignment}
            )
            if p.throughput > d.throughput:
                crossover = nbytes
                break
        simulated.append(float("nan") if crossover is None else crossover)
    return FigureResult(
        figure="model",
        title="Analytic vs simulated proxy thresholds",
        xlabel="proxy count k",
        ylabel="crossover size [B]",
        series=[Series("analytic", xs, analytic), Series("simulated", xs, simulated)],
    )


def _spec(src: int, dst: int, nbytes: int):
    from repro.core import TransferSpec

    return TransferSpec(src=src, dst=dst, nbytes=nbytes)
