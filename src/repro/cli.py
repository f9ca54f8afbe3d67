"""Command-line interface.

``python -m repro <command>`` drives the library without writing code:

* ``info``      — describe a Mira partition (torus, psets, bridges);
* ``transfer``  — move data between two nodes, direct/proxy/pipelined;
* ``io``        — run a sparse collective write, ours vs the baseline;
* ``figure``    — regenerate one of the paper's figures;
* ``analyze``   — graph-theoretic bounds and proxy-plan efficiency;
* ``faults``    — inject faults and compare fault-blind vs resilient runs;
* ``trace``     — run a scenario under the observability layer and export
  a Chrome/Perfetto trace with per-link time series (``docs/OBSERVABILITY.md``);
* ``chaos``     — run a seeded fault-injection campaign (``docs/RESILIENCE.md``);
* ``serve``     — long-lived scenario service: JSONL requests on stdin,
  terminal results on stdout, overload-safe (``docs/SERVICE.md``);
* ``batch``     — run a scenario campaign with a crash-safe write-ahead
  journal; ``--resume`` after any crash converges on byte-identical results.

All output goes through the ``repro`` logging hierarchy; ``--log-level``
makes any run quiet (``warning``) or chatty (``debug``) on demand, and
``--metrics-out`` dumps the run's metrics registry as JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench import figures as figmod
from repro.bench.report import render_figure
from repro.util.log import LEVELS, get_logger, setup_cli_logging
from repro.util.units import format_bytes, format_rate, parse_size

log = get_logger(__name__)

_FIGURES = {
    "fig5": figmod.fig5_p2p_proxies,
    "fig6": figmod.fig6_group_proxies,
    "fig7": figmod.fig7_proxy_count,
    "fig8": figmod.fig8_pattern1_histogram,
    "fig9": figmod.fig9_pattern2_histogram,
    "fig10": figmod.fig10_aggregation_scaling,
    "fig11": figmod.fig11_hacc_io,
    "model": figmod.model_threshold_check,
}

_TRACE_SCENARIOS = ("p2p", "group", "io", "faults")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Sparse data movement on a simulated Blue Gene/Q (ICPP'14 reproduction)",
    )
    p.add_argument(
        "--log-level",
        choices=LEVELS,
        default="info",
        help="output verbosity (default: info)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a Mira partition")
    info.add_argument("--nodes", type=int, default=128)

    tr = sub.add_parser("transfer", help="run one point-to-point transfer")
    tr.add_argument("--nodes", type=int, default=128)
    tr.add_argument("--src", type=int, default=0)
    tr.add_argument("--dst", type=int, default=-1, help="-1 = last node")
    tr.add_argument("--size", type=str, default="8MiB")
    tr.add_argument(
        "--mode",
        choices=["direct", "proxy", "auto", "pipeline", "all"],
        default="all",
    )
    tr.add_argument("--max-proxies", type=int, default=None)
    tr.add_argument("--links", action="store_true", help="print the link-load report")
    tr.add_argument("--metrics-out", type=str, default=None, metavar="PATH")

    io = sub.add_parser("io", help="run one sparse collective write")
    io.add_argument("--cores", type=int, default=2048)
    io.add_argument("--pattern", choices=["1", "2", "hacc"], default="1")
    io.add_argument(
        "--method", choices=["topology_aware", "collective", "both"], default="both"
    )
    io.add_argument(
        "--read", action="store_true",
        help="run the collective *read* (restart) path instead of a write",
    )
    io.add_argument("--seed", type=int, default=2014)
    io.add_argument("--metrics-out", type=str, default=None, metavar="PATH")

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("name", choices=sorted(_FIGURES))

    an = sub.add_parser("analyze", help="graph bounds for a node pair")
    an.add_argument("--nodes", type=int, default=128)
    an.add_argument("--src", type=int, default=0)
    an.add_argument("--dst", type=int, default=-1)

    fl = sub.add_parser(
        "faults", help="inject faults; compare fault-blind vs resilient transfer"
    )
    fl.add_argument("--nodes", type=int, default=128)
    fl.add_argument("--src", type=int, default=0)
    fl.add_argument("--dst", type=int, default=-1, help="-1 = last node")
    fl.add_argument("--size", type=str, default="32MiB")
    fl.add_argument("--max-proxies", type=int, default=None)
    fl.add_argument(
        "--degraded", type=int, default=8, help="randomly degraded torus links"
    )
    fl.add_argument(
        "--factor", type=float, default=0.25, help="degraded-link capacity factor"
    )
    fl.add_argument(
        "--failed-links", type=int, default=0, help="hard-failed torus links"
    )
    fl.add_argument("--failed-nodes", type=int, default=0, help="cordoned nodes")
    fl.add_argument(
        "--events", type=int, default=0,
        help="random transient fault events (hidden from planning)",
    )
    fl.add_argument(
        "--hard-fraction", type=float, default=0.0,
        help="probability a transient event is a hard failure",
    )
    fl.add_argument(
        "--sdc-links", type=int, default=0,
        help="torus links silently flipping bits in transit (non-fail-stop; "
        "detected only by end-to-end extent verification)",
    )
    fl.add_argument(
        "--sdc-proxies", type=int, default=0,
        help="store-and-forward proxies corrupting relayed extents",
    )
    fl.add_argument(
        "--sdc-rate", type=float, default=0.5,
        help="per-extent corruption probability on an afflicted carrier",
    )
    fl.add_argument(
        "--sdc-stale-rate", type=float, default=0.0,
        help="per-extent probability a delivered extent is replayed stale",
    )
    fl.add_argument("--seed", type=int, default=2014)
    fl.add_argument("--metrics-out", type=str, default=None, metavar="PATH")

    tc = sub.add_parser(
        "trace",
        help="run a scenario under the tracer; export spans + per-link time series",
    )
    tc.add_argument("scenario", choices=_TRACE_SCENARIOS)
    tc.add_argument("--nodes", type=int, default=128)
    tc.add_argument("--cores", type=int, default=2048, help="io scenario size")
    tc.add_argument("--size", type=str, default="8MiB", help="bytes per transfer")
    tc.add_argument("--pairs", type=int, default=4, help="group scenario pair count")
    tc.add_argument(
        "--dip", type=float, default=0.2,
        help="mid-run capacity factor of the injected CapacityEvent dip "
        "(p2p/group scenarios)",
    )
    tc.add_argument("--samples", type=int, default=200, help="probe samples per run")
    tc.add_argument("--seed", type=int, default=2014)
    tc.add_argument("--out", type=str, default="trace.json", metavar="PATH")
    tc.add_argument(
        "--format", choices=["chrome", "jsonl"], default="chrome",
        help="chrome: trace_event JSON for Perfetto/chrome://tracing; "
        "jsonl: one span per line",
    )
    tc.add_argument("--metrics-out", type=str, default=None, metavar="PATH")
    tc.add_argument("--top-links", type=int, default=16)

    ch = sub.add_parser(
        "chaos",
        help="run a seeded chaos campaign; verify resilience invariants",
    )
    ch.add_argument("--nodes", type=int, default=128)
    ch.add_argument("--size", type=str, default="8MiB", help="bytes per transfer")
    ch.add_argument("--seeds", type=int, default=1, help="number of seeds (0..N-1)")
    ch.add_argument(
        "--scenarios", type=str, default=None,
        help="comma-separated scenario kinds (default: all)",
    )
    ch.add_argument(
        "--geometries", type=str, default=None,
        help="comma-separated geometries (default: all)",
    )
    ch.add_argument("--max-retries", type=int, default=3)
    ch.add_argument(
        "--budget", type=float, default=0.5,
        help="recovery wall-clock budget per run [simulated s]",
    )
    ch.add_argument(
        "--goodput-floor", type=float, default=0.02,
        help="completed runs must reach this fraction of fault-free throughput",
    )
    ch.add_argument("--out", type=str, default="chaos.json", metavar="PATH")
    ch.add_argument("--metrics-out", type=str, default=None, metavar="PATH")
    ch.add_argument(
        "--list-campaigns", action="store_true",
        help="list scenario kinds and geometries with one-line summaries, "
        "then exit",
    )
    ch.add_argument(
        "--service", action="store_true",
        help="live-service campaign: boot a real ScenarioService, drive "
        "it with the load generator while injecting worker crashes, "
        "hangs, link-fault traces and an overload burst; verify "
        "terminal/exactly-once/replay invariants",
    )
    ch.add_argument(
        "--requests", type=int, default=200,
        help="[--service] scheduled requests in the campaign",
    )
    ch.add_argument(
        "--seed", type=int, default=2014,
        help="[--service] campaign seed (schedule + injections)",
    )
    ch.add_argument(
        "--workers", type=int, default=2, help="[--service] worker processes"
    )
    ch.add_argument(
        "--rate", type=float, default=60.0,
        help="[--service] base offered load [req/s]",
    )
    ch.add_argument(
        "--overload-factor", type=float, default=8.0,
        help="[--service] burst-window multiplier on the base rate",
    )
    ch.add_argument(
        "--fault-frac", type=float, default=0.10,
        help="[--service] fraction of transfers carrying a fault trace",
    )
    ch.add_argument(
        "--crash-frac", type=float, default=0.02,
        help="[--service] fraction of requests injected as worker crashes",
    )
    ch.add_argument(
        "--hang-frac", type=float, default=0.01,
        help="[--service] fraction of requests injected as worker hangs",
    )
    ch.add_argument(
        "--sdc-frac", type=float, default=0.05,
        help="[--service] fraction of transfers carrying a seeded "
        "silent-corruption model",
    )
    ch.add_argument(
        "--hang-timeout", type=float, default=1.5, metavar="S",
        help="[--service] watchdog hard-kill limit for hung workers",
    )
    ch.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help="[--service] write-ahead journal path (default: <out>.journal)",
    )
    ch.add_argument(
        "--resume", action="store_true",
        help="[--service] reuse intact journaled records from a killed run",
    )
    ch.add_argument(
        "--summary-out", type=str, default=None, metavar="PATH",
        help="[--service] also write the live summary (goodput, "
        "trajectories) — unlike --out, not byte-stable across runs",
    )

    def _service_args(sp) -> None:
        sp.add_argument("--workers", type=int, default=2, help="worker processes")
        sp.add_argument(
            "--queue-cap", type=int, default=32,
            help="bounded admission-queue depth (load shedding beyond it)",
        )
        sp.add_argument(
            "--deadline", type=float, default=None, metavar="S",
            help="default per-request deadline [s] (none if omitted)",
        )
        sp.add_argument(
            "--max-attempts", type=int, default=3,
            help="worker crashes tolerated before a request is quarantined",
        )
        sp.add_argument(
            "--hang-timeout", type=float, default=60.0, metavar="S",
            help="hard-kill limit for requests without a deadline",
        )
        sp.add_argument(
            "--admission", choices=["static", "adaptive"], default="static",
            help="admission control: static queue bound, or the AIMD "
            "concurrency limiter + degradation ladder",
        )
        sp.add_argument(
            "--latency-target", type=float, default=None, metavar="S",
            help="adaptive limiter latency target [s] (default: derived "
            "from the observed service time)",
        )
        sp.add_argument(
            "--ladder-k", type=int, default=2,
            help="proxy-search cap at the ladder's reduced tier",
        )
        sp.add_argument("--metrics-out", type=str, default=None, metavar="PATH")

    sv = sub.add_parser(
        "serve",
        help="long-lived scenario service: JSONL requests on stdin, "
        "JSONL results on stdout",
    )
    _service_args(sv)

    ba = sub.add_parser(
        "batch",
        help="run a resumable scenario campaign with a crash-safe journal",
    )
    ba.add_argument("--campaign", type=str, required=True, metavar="PATH")
    ba.add_argument("--out", type=str, default="results.json", metavar="PATH")
    ba.add_argument(
        "--journal", type=str, default=None, metavar="PATH",
        help="write-ahead journal path (default: <out>.journal)",
    )
    ba.add_argument(
        "--resume", action="store_true",
        help="reuse intact journaled results; rerun only the remainder",
    )
    ba.add_argument(
        "--make-demo", type=int, default=None, metavar="N",
        help="write an N-scenario demo campaign to --campaign and exit",
    )
    ba.add_argument(
        "--demo-nodes", type=int, default=32,
        help="partition size used by --make-demo scenarios",
    )
    _service_args(ba)

    ld = sub.add_parser(
        "load",
        help="drive the service with a seeded synthetic load and report "
        "goodput/latency statistics (see docs/LOAD_TESTING.md)",
    )
    ld.add_argument(
        "--arrival", choices=["uniform", "poisson", "burst"], default="poisson",
        help="arrival process",
    )
    ld.add_argument(
        "--profile", choices=["constant", "ramp", "step"], default="constant",
        help="offered-rate profile over the run",
    )
    ld.add_argument("--rate", type=float, default=20.0, help="offered rate [req/s]")
    ld.add_argument(
        "--rate-end", type=float, default=None,
        help="final rate of a ramp profile [req/s]",
    )
    ld.add_argument(
        "--step", action="append", default=None, metavar="DUR:RATE",
        help="one step of a step profile (repeatable), e.g. --step 5:10",
    )
    ld.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="run duration [s] (default 10; 8 in --compare mode)",
    )
    ld.add_argument(
        "--mix", choices=["mixed", "spin", "transfer"], default="spin",
        help="request mix (see repro.loadgen.mix)",
    )
    ld.add_argument("--seed", type=int, default=2014)
    ld.add_argument(
        "--mode", choices=["open", "closed"], default="open",
        help="open loop paces by the schedule; closed loop keeps "
        "--concurrency requests in flight",
    )
    ld.add_argument("--concurrency", type=int, default=8,
                    help="closed-loop client workers")
    ld.add_argument("--burst-size", type=int, default=8)
    ld.add_argument(
        "--client-retries", type=int, default=3, metavar="N",
        help="max client attempts per request (budgeted, full-jitter backoff)",
    )
    ld.add_argument(
        "--transport", choices=["inproc", "serve"], default="inproc",
        help="drive an in-process service or a repro serve subprocess",
    )
    ld.add_argument(
        "--compare", action="store_true",
        help="run the canned adaptive-vs-static overload benchmark and "
        "write the bench-service/1 report to --out",
    )
    ld.add_argument("--out", type=str, default=None, metavar="PATH",
                    help="write the JSON report here")
    ld.add_argument(
        "--outcomes", action="store_true",
        help="include per-request outcomes in the report",
    )
    _service_args(ld)
    return p


def _dump_metrics(args) -> None:
    """Write the run's metrics registry snapshot when requested."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from repro.obs import get_registry
    from repro.util.atomicio import atomic_write_text

    atomic_write_text(path, get_registry().to_json() + "\n", durable=False)
    log.info(f"metrics written to {path}")


def _cmd_info(args) -> int:
    from repro.machine import mira_system

    system = mira_system(nnodes=args.nodes)
    t = system.topology
    log.info(f"{system}")
    log.info(f"  torus shape: {'x'.join(map(str, t.shape))} ({t.nnodes} nodes)")
    log.info(f"  directed torus links: {t.nlinks} at {format_rate(system.params.link_bw)}")
    log.info(f"  diameter: {t.diameter()} hops")
    log.info(
        f"  psets: {system.npsets} x {system.pset_size} nodes, "
        f"bridges per pset: {len(system.psets[0].bridges)} "
        f"({format_rate(system.params.io_link_bw)} each)"
    )
    log.info(
        f"  aggregate ION bandwidth: "
        f"{format_rate(len(system.bridge_nodes) * system.params.io_link_bw)}"
    )
    return 0


def _cmd_transfer(args) -> int:
    from repro.analysis import link_load_report
    from repro.core import TransferSpec, run_transfer
    from repro.core.pipeline import run_pipelined_transfer
    from repro.machine import mira_system

    system = mira_system(nnodes=args.nodes)
    dst = args.dst if args.dst >= 0 else system.nnodes - 1
    spec = TransferSpec(src=args.src, dst=dst, nbytes=parse_size(args.size))
    log.info(
        f"{format_bytes(spec.nbytes)} from node {spec.src} to node {spec.dst} "
        f"on {system}"
    )
    modes = (
        ["direct", "proxy", "pipeline"] if args.mode == "all" else [args.mode]
    )
    last = None
    for mode in modes:
        if mode == "pipeline":
            out = run_pipelined_transfer(
                system, [spec], max_proxies=args.max_proxies
            )
        else:
            out = run_transfer(
                system, [spec], mode=mode, max_proxies=args.max_proxies
            )
        used = out.mode_used[(spec.src, spec.dst)]
        log.info(f"  {mode:>9} ({used}): {format_rate(out.throughput)}")
        last = out
    if args.links and last is not None:
        log.info("")
        log.info(link_load_report(last.result, system))
    _dump_metrics(args)
    return 0


def _cmd_io(args) -> int:
    from repro.core import run_io_movement
    from repro.core.iomove import IO_TOLERANCES
    from repro.core.ioread import run_io_read
    from repro.machine import mira_system
    from repro.torus.mapping import RankMapping
    from repro.torus.partition import CORES_PER_NODE
    from repro.workloads import hacc_io_sizes, pareto_pattern, uniform_pattern

    system = mira_system(ncores=args.cores)
    mapping = RankMapping(system.topology, ranks_per_node=CORES_PER_NODE)
    if args.pattern == "1":
        sizes = uniform_pattern(mapping.nranks, seed=args.seed)
    elif args.pattern == "2":
        sizes = pareto_pattern(mapping.nranks, seed=args.seed)
    else:
        sizes = hacc_io_sizes(mapping.nranks)
    log.info(
        f"pattern {args.pattern}: {format_bytes(int(sizes.sum()))} over "
        f"{mapping.nranks} ranks on {system}"
    )
    methods = (
        ["topology_aware", "collective"] if args.method == "both" else [args.method]
    )
    runner = run_io_read if args.read else run_io_movement
    results = {}
    for method in methods:
        out = runner(system, sizes, method=method, mapping=mapping, **IO_TOLERANCES)
        results[method] = out
        log.info(
            f"  {method:>15}: {format_rate(out.throughput)} "
            f"(IONs {out.active_ions}, imbalance {out.ion_imbalance:.2f})"
        )
    if len(results) == 2:
        gain = (
            results["topology_aware"].throughput
            / results["collective"].throughput
        )
        log.info(f"  speedup: {gain:.2f}x")
    _dump_metrics(args)
    return 0


def _cmd_figure(args) -> int:
    fig = _FIGURES[args.name]()
    log.info(render_figure(fig))
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (
        edge_disjoint_path_count,
        max_flow_bound,
        proxy_plan_efficiency,
    )
    from repro.core import find_proxies_for_pair
    from repro.machine import mira_system

    system = mira_system(nnodes=args.nodes)
    dst = args.dst if args.dst >= 0 else system.nnodes - 1
    log.info(f"bounds for node {args.src} -> node {dst} on {system}:")
    log.info(f"  edge-disjoint paths: {edge_disjoint_path_count(system, args.src, dst)}")
    log.info(f"  max-flow rate bound: {format_rate(max_flow_bound(system, args.src, dst))}")
    asg = find_proxies_for_pair(system, args.src, dst)
    eff = proxy_plan_efficiency(system, asg)
    log.info(
        f"  Algorithm 1 found {eff['carriers']} carriers "
        f"({eff['path_efficiency']:.0%} of the disjoint-path bound)"
    )
    return 0


def _cmd_faults(args) -> int:
    from repro.core import TransferSpec, run_transfer
    from repro.machine import mira_system
    from repro.machine.faults import (
        FaultTrace,
        random_fault_trace,
        random_link_faults,
    )
    from repro.resilience import (
        HealthMonitor,
        ResilientPlanner,
        RetryPolicy,
        TransferAbortedError,
        run_resilient_transfer,
    )
    from repro.util.validation import ConfigError, LinkDownError

    system = mira_system(nnodes=args.nodes)
    dst = args.dst if args.dst >= 0 else system.nnodes - 1
    spec = TransferSpec(src=args.src, dst=dst, nbytes=parse_size(args.size))
    faults = random_link_faults(
        system.topology,
        args.degraded,
        factor=args.factor,
        nfailed_nodes=args.failed_nodes,
        nfailed_links=args.failed_links,
        seed=args.seed,
    )
    trace = (
        random_fault_trace(
            system.topology,
            args.events,
            hard_fraction=args.hard_fraction,
            t_max=0.02,
            seed=args.seed + 1,
        )
        if args.events != 0  # negative counts rejected by random_fault_trace
        else FaultTrace()
    )
    log.info(
        f"{format_bytes(spec.nbytes)} from node {spec.src} to node {spec.dst} "
        f"on {system}"
    )
    log.info(
        f"  known faults: {len(faults.degraded_links)} links at "
        f"{args.factor:.0%}, {len(faults.failed_links)} links down, "
        f"{len(faults.failed_nodes)} nodes cordoned"
    )
    log.info(f"  hidden trace: {len(trace.events)} timed events")

    # Fault-blind baseline: plans as if pristine, runs on the true
    # time-varying state — the trace's boundaries fire as mid-run
    # capacity events, so a hard fault stalls it (LinkDownError).
    from repro.network.flowsim import CapacityEvent

    snap = trace.snapshot(0.0, faults)
    blind_events = [
        CapacityEvent(
            time=b,
            link=link,
            capacity=system.capacity(link)
            * faults.link_factor(link)
            * trace.factor_at(link, b),
        )
        for link in sorted(trace.affected_links)
        for b in trace.boundaries([link])
        if b > 0.0
    ]
    try:
        blind = run_transfer(
            system,
            [spec],
            mode="auto",
            max_proxies=args.max_proxies,
            capacity_fn=snap.capacity_fn(system.capacity),
            events=blind_events or None,
        )
        log.info(f"  fault-blind: {format_rate(blind.throughput)}")
    except (ConfigError, LinkDownError) as e:
        blind = None
        log.info(f"  fault-blind: stalled ({e})")

    policy = RetryPolicy()
    monitor = HealthMonitor(
        system,
        faults=faults,
        suspect_fraction=policy.health_threshold,
        reprobe_interval=policy.reprobe_interval,
    )
    planner = ResilientPlanner(
        system, faults=faults, monitor=monitor, max_proxies=args.max_proxies
    )
    sdc = None
    if args.sdc_links or args.sdc_proxies or args.sdc_stale_rate:
        # Target carriers the plan actually uses — corruption on links
        # and proxies the transfer never crosses exercises nothing
        # (the chaos harness does the same route-targeting).
        import numpy as np

        from repro.machine.faults import SDCModel

        asg = planner.plan([spec])[0].assignment
        rng = np.random.default_rng(args.seed + 2)
        proxies = list(asg.proxies)
        rng.shuffle(proxies)
        route_links = list(system.compute_path(spec.src, spec.dst).links)
        for j in range(asg.k):
            route_links += list(asg.phase1[j].links + asg.phase2[j].links)
        links = sorted(set(route_links))
        rng.shuffle(links)
        sdc = SDCModel(
            flip_links={
                int(l): args.sdc_rate for l in links[: args.sdc_links]
            },
            corrupt_proxies={
                int(p): args.sdc_rate for p in proxies[: args.sdc_proxies]
            },
            stale_rate=args.sdc_stale_rate,
            seed=args.seed + 2,
        )
        log.info(
            f"  silent corruption: {len(sdc.flip_links)} bit-flipping "
            f"route link(s), {len(sdc.corrupt_proxies)} corrupting "
            f"prox(ies) at rate {args.sdc_rate:.0%}, stale-replay rate "
            f"{args.sdc_stale_rate:.0%}"
        )
    try:
        out = run_resilient_transfer(
            system, [spec], faults=faults, trace=trace, sdc=sdc,
            policy=policy, planner=planner, monitor=monitor,
        )
    except TransferAbortedError as e:
        log.error(f"  resilient:   aborted ({e})")
        return 1
    t = out.telemetry
    log.info(f"  resilient:   {format_rate(out.throughput)}")
    log.info(
        f"    rounds {t.rounds}, retries {t.retries}, failovers {t.failovers}, "
        f"resent {format_bytes(t.bytes_resent)}, "
        f"direct fallbacks {t.degraded_to_direct}"
    )
    if sdc is not None:
        log.info(
            f"    corruption: {t.corrupt_extents_detected} extent arrivals "
            f"detected, {format_bytes(t.corrupt_bytes_redriven)} re-driven "
            f"clean, {t.stale_drops} stale replays dropped, "
            f"{format_bytes(out.corrupted_acknowledged_bytes)} corrupt "
            f"acknowledged"
        )
        for link in monitor.quarantined_links():
            state = monitor.link_quarantine(link)
            strikes = monitor.corruption_strikes(link=link)
            log.info(
                f"    link {link}: {state} "
                f"({strikes} corruption strike(s))"
            )
        for p in monitor.quarantined_proxies():
            state = monitor.proxy_quarantine(p)
            strikes = monitor.corruption_strikes(proxy=p)
            log.info(
                f"    proxy {p}: {state} "
                f"({strikes} corruption strike(s))"
            )
    for a in t.failed_attempts:
        carrier = "direct" if a.proxy is None else f"proxy {a.proxy}"
        finish = "stalled" if a.finish > 100 * a.deadline else f"{a.finish:.6f}s"
        log.info(
            f"    round {a.round}: {carrier} missed deadline "
            f"({finish} > {a.deadline:.6f}s), {format_bytes(a.share)} re-sent"
        )
    if blind is not None and blind.throughput > 0:
        log.info(f"  speedup vs fault-blind: {out.throughput / blind.throughput:.2f}x")
    _dump_metrics(args)
    return 0


def _trace_scenario_specs(args, system):
    """The (specs, label) a trace scenario transfers."""
    from repro.core import TransferSpec

    nbytes = parse_size(args.size)
    n = system.nnodes
    if args.scenario == "p2p":
        return [TransferSpec(src=0, dst=n - 1, nbytes=nbytes)]
    pairs = max(1, min(args.pairs, n // 2))
    return [TransferSpec(src=i, dst=n - 1 - i, nbytes=nbytes) for i in range(pairs)]


def _cmd_trace(args) -> int:
    """Run one scenario under tracer + probe and export the timeline."""
    from repro.core import run_io_movement, run_transfer
    from repro.core.iomove import IO_TOLERANCES
    from repro.machine import mira_system
    from repro.network.flowsim import CapacityEvent
    from repro.obs import (
        MetricsRegistry,
        TimeSeriesProbe,
        Tracer,
        export_chrome,
        export_jsonl,
        render_report,
        use_registry,
        use_tracer,
    )

    if args.samples < 2:
        log.error("--samples must be >= 2")
        return 2

    tracer = Tracer()
    registry = MetricsRegistry()

    if args.scenario in ("p2p", "group"):
        system = mira_system(nnodes=args.nodes)
        specs = _trace_scenario_specs(args, system)
        # Dry run: learn the makespan (for the probe grid) and the
        # hottest link (where the injected mid-run dip bites hardest).
        est = run_transfer(system, specs, mode="auto")
        mk = est.makespan
        hot_link = max(est.result.link_bytes, key=est.result.link_bytes.get)
        cap = system.capacity(hot_link)
        events = [
            CapacityEvent(time=0.4 * mk, link=hot_link, capacity=cap * args.dip),
            CapacityEvent(time=0.7 * mk, link=hot_link, capacity=cap),
        ]
        probe = TimeSeriesProbe(interval=mk / args.samples)
        log.info(
            f"{args.scenario}: {len(specs)} transfer(s) of "
            f"{format_bytes(specs[0].nbytes)} on {system}; capacity dip to "
            f"{args.dip:.0%} on link {hot_link} during "
            f"[{0.4 * mk:.6f}s, {0.7 * mk:.6f}s]"
        )
        with use_tracer(tracer), use_registry(registry):
            out = run_transfer(system, specs, mode="auto", events=events, probe=probe)
        log.info(f"  throughput: {format_rate(out.throughput)}")
    elif args.scenario == "io":
        from repro.torus.mapping import RankMapping
        from repro.torus.partition import CORES_PER_NODE
        from repro.workloads import pareto_pattern

        system = mira_system(ncores=args.cores)
        mapping = RankMapping(system.topology, ranks_per_node=CORES_PER_NODE)
        sizes = pareto_pattern(mapping.nranks, seed=args.seed)
        est = run_io_movement(
            system, sizes, method="topology_aware", mapping=mapping,
            **IO_TOLERANCES,
        )
        probe = TimeSeriesProbe(interval=est.makespan / args.samples)
        log.info(
            f"io: {format_bytes(int(sizes.sum()))} over {mapping.nranks} ranks "
            f"on {system}"
        )
        with use_tracer(tracer), use_registry(registry):
            out = run_io_movement(
                system, sizes, method="topology_aware", mapping=mapping,
                probe=probe, **IO_TOLERANCES,
            )
        log.info(f"  throughput: {format_rate(out.throughput)}")
    else:  # faults
        from repro.core import TransferSpec
        from repro.machine.faults import random_fault_trace, random_link_faults
        from repro.resilience import ResilientPlanner, run_resilient_transfer

        system = mira_system(nnodes=args.nodes)
        n = system.nnodes
        spec = TransferSpec(src=0, dst=n - 1, nbytes=parse_size(args.size))
        faults = random_link_faults(
            system.topology, 8, factor=0.25, seed=args.seed
        )
        ftrace = random_fault_trace(
            system.topology, 6, hard_fraction=0.3, t_max=0.02, seed=args.seed + 1
        )
        est = run_transfer(system, [spec], mode="auto")
        probe = TimeSeriesProbe(interval=est.makespan / args.samples)
        planner = ResilientPlanner(system, faults=faults)
        log.info(
            f"faults: {format_bytes(spec.nbytes)} node {spec.src} -> {spec.dst} "
            f"with {len(ftrace.events)} hidden events on {system}"
        )
        with use_tracer(tracer), use_registry(registry):
            out = run_resilient_transfer(
                system, [spec], faults=faults, trace=ftrace,
                planner=planner, probe=probe,
            )
        log.info(
            f"  throughput: {format_rate(out.throughput)} "
            f"(rounds {out.telemetry.rounds}, retries {out.telemetry.retries})"
        )

    if args.format == "chrome":
        export_chrome(tracer, args.out, probe=probe, top_links=args.top_links)
    else:
        export_jsonl(tracer, args.out)
    log.info(f"trace ({args.format}) written to {args.out}")
    if args.metrics_out:
        from repro.util.atomicio import atomic_write_text

        atomic_write_text(args.metrics_out, registry.to_json() + "\n", durable=False)
        log.info(f"metrics written to {args.metrics_out}")
    log.info("")
    log.info(render_report(tracer=tracer, registry=registry, probe=probe))
    return 0


def _cmd_chaos_service(args) -> int:
    """Live-service chaos campaign (``repro chaos --service``)."""
    import json

    from repro.resilience.service_chaos import (
        ServiceCampaignConfig,
        run_service_campaign,
    )
    from repro.util.validation import ConfigError

    try:
        config = ServiceCampaignConfig(
            n_requests=args.requests,
            seed=args.seed,
            workers=args.workers,
            rate=args.rate,
            overload_factor=args.overload_factor,
            fault_frac=args.fault_frac,
            sdc_frac=args.sdc_frac,
            crash_frac=args.crash_frac,
            hang_frac=args.hang_frac,
            hang_timeout_s=args.hang_timeout,
            nnodes=args.nodes,
            nbytes=parse_size(args.size),
        )
        summary = run_service_campaign(
            config,
            out_path=args.out,
            journal_path=args.journal,
            resume=args.resume,
            progress=log.info,
        )
    except ConfigError as exc:
        log.error(str(exc))
        return 2
    for failure in summary["failures"]:
        log.info(f"  FAIL {failure}")
    if args.summary_out:
        from repro.util.atomicio import atomic_write_text

        atomic_write_text(
            args.summary_out, json.dumps(summary, indent=2) + "\n"
        )
        log.info(f"campaign summary written to {args.summary_out}")
    log.info(f"campaign results written to {args.out}")
    _dump_metrics(args)
    return 0 if summary["passed"] else 1


def _cmd_chaos(args) -> int:
    """Run a seeded chaos campaign and write its JSON report."""
    import json

    if args.list_campaigns:
        from repro.resilience.chaos import (
            GEOMETRIES,
            SCENARIO_KINDS,
            SCENARIO_SUMMARIES,
        )

        log.info("scenario kinds (repro chaos --scenarios a,b,...):")
        for kind in SCENARIO_KINDS:
            log.info(f"  {kind:<18} {SCENARIO_SUMMARIES.get(kind, '')}")
        log.info(f"geometries (--geometries): {', '.join(GEOMETRIES)}")
        log.info(
            "service campaigns (--service) additionally inject worker "
            "crashes, hangs and silent corruption from one seeded schedule"
        )
        return 0

    if args.service:
        return _cmd_chaos_service(args)

    from repro.resilience.chaos import (
        GEOMETRIES,
        SCENARIO_KINDS,
        CampaignConfig,
        run_campaign,
    )
    from repro.util.validation import ConfigError

    scenarios = (
        tuple(s.strip() for s in args.scenarios.split(",") if s.strip())
        if args.scenarios
        else SCENARIO_KINDS
    )
    geometries = (
        tuple(g.strip() for g in args.geometries.split(",") if g.strip())
        if args.geometries
        else GEOMETRIES
    )
    if args.seeds < 1:
        log.error("--seeds must be >= 1")
        return 2
    try:
        config = CampaignConfig(
            nnodes=args.nodes,
            nbytes=parse_size(args.size),
            seeds=tuple(range(args.seeds)),
            scenarios=scenarios,
            geometries=geometries,
            max_retries=args.max_retries,
            budget_s=args.budget,
            goodput_floor=args.goodput_floor,
        )
        report = run_campaign(config)
    except ConfigError as exc:
        log.error(str(exc))
        return 2

    log.info(
        f"chaos campaign: {report['n_runs']} runs "
        f"({len(scenarios)} scenarios x {len(geometries)} geometries x "
        f"{args.seeds} seed(s)) on {args.nodes} nodes, "
        f"{format_bytes(config.nbytes)} per transfer"
    )
    for r in report["runs"]:
        mark = "ok  " if r["passed"] else "FAIL"
        log.info(
            f"  [{mark}] {r['scenario']:<14} {r['geometry']:<5} seed={r['seed']} "
            f"rounds={r['rounds']} retries={r['retries']} "
            f"resent={format_bytes(r['bytes_resent'])} "
            f"residue={format_bytes(r['residue_bytes'])}"
        )
        if r.get("corrupt_extents_detected") or r.get("stale_drops"):
            log.info(
                f"         corruption: {r['corrupt_extents_detected']} extents "
                f"detected, {format_bytes(r['corrupt_bytes_redriven'])} "
                f"re-driven clean, {r['stale_drops']} stale replays dropped, "
                f"{format_bytes(r['corrupted_acknowledged_bytes'])} "
                f"corrupt acknowledged; quarantine: "
                f"{r['quarantined_links']} link(s), "
                f"{r['quarantined_proxies']} prox(ies)"
            )
        for f in r["failures"]:
            log.info(f"         {f}")
    log.info(
        f"passed {report['n_passed']}/{report['n_runs']} "
        f"in {report['wall_time_s']:.1f}s"
    )
    from repro.util.atomicio import atomic_write_text

    # Atomic replace: a campaign killed mid-dump can never tear an
    # existing report (CI archives these as artifacts).
    atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")
    log.info(f"campaign report written to {args.out}")
    _dump_metrics(args)
    return 0 if report["passed"] else 1


def _service_config(args):
    from repro.service import ServiceConfig

    return ServiceConfig(
        workers=args.workers,
        queue_cap=args.queue_cap,
        default_deadline_s=args.deadline,
        max_attempts=args.max_attempts,
        hang_timeout_s=args.hang_timeout,
        admission=getattr(args, "admission", "static"),
        latency_target_s=getattr(args, "latency_target", None),
        ladder_reduced_k=getattr(args, "ladder_k", 2),
    )


def _cmd_serve(args) -> int:
    """Long-lived scenario service over stdin/stdout JSONL.

    One request object per input line; one terminal result record per
    output line (order follows completion, not submission).  Admission
    rejections are answered immediately with ``"status": "rejected"``
    plus the typed error code and its ``retriable`` flag.  EOF on stdin
    drains in-flight work and exits.
    """
    import json
    import threading

    from repro.service import ScenarioRequest, ScenarioService, ServiceError
    from repro.util.validation import ConfigError

    emit_lock = threading.Lock()

    def emit(doc: dict) -> None:
        with emit_lock:
            sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
            sys.stdout.flush()

    config = _service_config(args)
    log.info(
        f"serving with {config.workers} worker(s), queue cap {config.queue_cap}; "
        "reading JSONL requests from stdin"
    )
    def emit_result(r) -> None:
        # record() is the journal-stable core; degraded/tier are
        # execution telemetry the load generator reads off the wire.
        emit({**r.record(), "degraded": r.degraded, "tier": r.tier})

    with ScenarioService(config, on_result=emit_result) as svc:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            rid = None
            try:
                doc = json.loads(line)
                rid = doc.get("id") if isinstance(doc, dict) else None
                svc.submit(ScenarioRequest.from_dict(doc))
            except json.JSONDecodeError as exc:
                emit({"id": rid, "status": "rejected", "retriable": False,
                      "error": f"bad-json: {exc}"})
            except ServiceError as exc:
                emit({"id": rid, "status": "rejected", "retriable": exc.retriable,
                      "error": f"{exc.code}: {exc}"})
            except ConfigError as exc:
                emit({"id": rid, "status": "rejected", "retriable": False,
                      "error": f"bad-request: {exc}"})
        svc.wait_all()
    _dump_metrics(args)
    return 0


def _cmd_batch(args) -> int:
    """Run (or resume) a campaign file; see docs/SERVICE.md."""
    import json

    from repro.service import make_demo_campaign, run_batch
    from repro.util.atomicio import atomic_write_json

    if args.make_demo is not None:
        doc = make_demo_campaign(
            args.make_demo, nnodes=args.demo_nodes, deadline_s=args.deadline
        )
        atomic_write_json(args.campaign, doc)
        log.info(
            f"wrote {args.make_demo}-scenario demo campaign to {args.campaign}"
        )
        return 0
    summary = run_batch(
        args.campaign,
        args.out,
        journal_path=args.journal,
        resume=args.resume,
        config=_service_config(args),
        progress=log.info,
    )
    _dump_metrics(args)
    counts = summary["counts"]
    log.info(
        f"campaign done: {counts['completed']} completed, "
        f"{counts['failed']} failed, {counts['shed']} shed "
        f"({summary['resumed']} reused from journal)"
    )
    return 0 if counts["completed"] == summary["total"] else 1


def _cmd_load(args) -> int:
    """Synthetic load against the service; see docs/LOAD_TESTING.md."""
    import json

    from repro.loadgen import (
        InProcessTransport,
        LoadConfig,
        ServeTransport,
        run_load,
        service_benchmark,
    )
    from repro.util.atomicio import atomic_write_json
    from repro.util.validation import ConfigError

    # argparse default is None so "user typed 10" and "left it alone"
    # stay distinguishable: each mode resolves its own default.
    duration = (
        args.duration
        if args.duration is not None
        else (8.0 if args.compare else 10.0)
    )
    if args.compare:
        out = args.out or "BENCH_service.json"
        doc = service_benchmark(
            seed=args.seed,
            duration_s=duration,
            workers=args.workers,
            queue_cap=args.queue_cap,
            progress=log.info,
        )
        atomic_write_json(out, doc)
        verdict = doc["comparison"]
        log.info(
            f"wrote {out}: goodput gain "
            f"{verdict['goodput_gain']:+.1%}, CI separated: "
            f"{verdict['goodput_ci_separated']}"
        )
        return 0

    steps = ()
    if args.step:
        try:
            steps = tuple(
                (float(s.split(":")[0]), float(s.split(":")[1])) for s in args.step
            )
        except (ValueError, IndexError):
            raise ConfigError(
                f"--step wants DUR:RATE pairs, got {args.step!r}"
            ) from None
    cfg = LoadConfig(
        arrival=args.arrival,
        profile=args.profile,
        rate=args.rate,
        rate_end=args.rate_end,
        steps=steps,
        duration_s=duration,
        mix=args.mix,
        seed=args.seed,
        mode=args.mode,
        closed_concurrency=args.concurrency,
        burst_size=args.burst_size,
        deadline_s=args.deadline,
        max_attempts=args.client_retries,
    )
    log.info(
        f"load: {args.arrival}/{args.profile} {args.rate} req/s for "
        f"{duration}s, mix {args.mix}, seed {args.seed}, "
        f"{args.transport} transport, {args.admission} admission"
    )
    if args.transport == "serve":
        with ServeTransport(
            workers=args.workers,
            queue_cap=args.queue_cap,
            deadline_s=args.deadline,
            admission=args.admission,
        ) as transport:
            report = run_load(cfg, transport)
    else:
        from repro.service import ScenarioService

        with ScenarioService(_service_config(args)) as svc:
            report = run_load(cfg, InProcessTransport(svc))
            svc.wait_all()
    summary = report.summary(seed=args.seed)
    counts = summary["counts"]
    lat = summary["latency"]
    log.info(
        f"done: {summary['requests']} requests {json.dumps(counts, sort_keys=True)}; "
        f"goodput {summary['goodput_rps']:.1f} req/s, "
        f"shed rate {summary['shed_rate']:.2f}"
    )
    if lat["p50_s"] is not None:
        log.info(
            f"latency p50 {lat['p50_s'] * 1e3:.0f} ms, "
            f"p95 {lat['p95_s'] * 1e3:.0f} ms, p99 {lat['p99_s'] * 1e3:.0f} ms "
            f"(n={lat['n']})"
        )
    if args.out:
        atomic_write_json(
            args.out,
            report.to_dict(include_outcomes=args.outcomes, seed=args.seed),
        )
        log.info(f"wrote report to {args.out}")
    _dump_metrics(args)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "transfer": _cmd_transfer,
    "io": _cmd_io,
    "figure": _cmd_figure,
    "analyze": _cmd_analyze,
    "faults": _cmd_faults,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "batch": _cmd_batch,
    "load": _cmd_load,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success, 1 the run itself failed (e.g. campaign
    scenarios failed, chaos invariants violated), 2 invalid input —
    argparse errors and any :class:`ConfigError` raised by a command
    both land on 2 with a one-line message, never a traceback.
    """
    from repro.util.validation import ConfigError, ReproError

    args = build_parser().parse_args(argv)
    setup_cli_logging(args.log_level)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        # Invalid input (bad sizes, unknown partition, malformed
        # campaign, ...): one line on the argparse exit code, no traceback.
        log.error(f"{args.command}: {exc}")
        return 2
    except ReproError as exc:
        log.error(f"{args.command}: {type(exc).__name__}: {exc}")
        return 1
    except KeyboardInterrupt:
        log.error(f"{args.command}: interrupted")
        return 130


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    sys.exit(main())
