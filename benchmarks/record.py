"""Record simulator performance numbers into ``BENCH_simulator.json``.

Runs the microbenchmarks from :mod:`bench_simulator_perf` through a
small stand-in for the pytest-benchmark fixture (fixed warmup + reps,
``stats.stats.mean``/``.stddev`` attributes), harvests the ``bench.*``
gauges they record, measures the vectorized simulator against the
retained seed implementation *within the same process with interleaved
repetitions* (so machine-load drift hits both sides equally), measures
campaign throughput (scenarios/sec) serial vs batched
(:class:`~repro.network.batchsim.BatchFlowSim`), and dumps everything
as ``BENCH_simulator.json`` at the repository root.

``--service`` additionally runs the adaptive-vs-static service overload
soak (:func:`repro.loadgen.bench.service_benchmark`) and writes its
``bench-service/1`` report to ``BENCH_service.json`` — CI's
``load-smoke`` job records only that (``--skip-perf --service``);
``docs/LOAD_TESTING.md`` explains how to read it.

Usage (no pytest required)::

    python benchmarks/record.py [--out PATH] [--reps N]

CI's ``perf-smoke`` job runs this on every push and uploads the JSON as
an artifact; ``docs/PERFORMANCE.md`` explains how to read the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bench_simulator_perf as bench  # noqa: E402
from _seed_flowsim import FlowSim as SeedFlowSim  # noqa: E402

from repro.machine import mira_system  # noqa: E402
from repro.network.flowsim import FlowSim  # noqa: E402
from repro.network.params import MIRA_PARAMS  # noqa: E402
from repro.obs import get_registry  # noqa: E402
from repro.util.atomicio import atomic_write_text  # noqa: E402
from repro.util.log import get_logger, setup_cli_logging  # noqa: E402

log = get_logger(__name__)

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_simulator.json"


class BenchmarkShim:
    """Minimal pytest-benchmark fixture stand-in.

    Calls the function ``warmup`` times unmeasured, then ``reps`` times
    measured, and exposes the timings as ``stats.stats.mean`` /
    ``stats.stats.stddev`` — the attributes ``bench_simulator_perf``'s
    ``_record`` helper reads to populate the ``bench.*`` gauges.
    """

    def __init__(self, reps: int = 5, warmup: int = 1):
        self.reps = reps
        self.warmup = warmup
        self.stats = None

    def __call__(self, fn, *args, **kwargs):
        result = None
        for _ in range(self.warmup):
            result = fn(*args, **kwargs)
        times = []
        for _ in range(self.reps):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            times.append(time.perf_counter() - t0)
        self.stats = SimpleNamespace(
            stats=SimpleNamespace(
                mean=statistics.fmean(times),
                stddev=statistics.stdev(times) if len(times) > 1 else 0.0,
            )
        )
        return result


def _torus_thousand_flows(n_flows: int = 1000, seed: int = 0):
    """1,000 random flows on a bare 8x8x8 torus (512 nodes)."""
    import numpy as np

    from repro.network.flow import Flow
    from repro.routing.deterministic import DimOrderRouter
    from repro.torus.topology import TorusTopology

    topo = TorusTopology((8, 8, 8))
    router = DimOrderRouter(topo)
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(topo.nnodes, size=2, replace=False)
        path = router.path(int(src), int(dst))
        size = float(rng.integers(1, 8) * 1024 * 1024)
        flows.append(Flow(fid=f"f{i}", size=size, path=path.links))
    return flows


def _campaign_scenarios(n: int = 200, seed: int = 0):
    """``n`` small independent transfer scenarios (campaign-shaped).

    Mirrors what ``repro batch`` / the loadgen transfer mix feed the
    simulator: 3-9 flows each on a small torus, with staggered starts,
    delays and a few cross-flow dependencies.
    """
    import numpy as np

    from repro.network.flow import Flow
    from repro.routing.deterministic import DimOrderRouter
    from repro.torus.topology import TorusTopology

    topo = TorusTopology((4, 4, 4))
    router = DimOrderRouter(topo)
    cap = 2.0e9
    scenarios = []
    for s in range(n):
        rng = np.random.default_rng([seed, s])
        flows = []
        for i in range(3 + s % 7):
            src, dst = rng.choice(topo.nnodes, size=2, replace=False)
            path = router.path(int(src), int(dst))
            size = float(rng.integers(1, 64)) * 65536.0
            deps = (f"f{i - 2}",) if i >= 2 and rng.random() < 0.3 else ()
            flows.append(
                Flow(
                    fid=f"f{i}", size=size, path=path.links,
                    start_time=float(rng.uniform(0, 0.002)),
                    delay=float(rng.uniform(0, 1e-4)), deps=deps,
                )
            )
        scenarios.append(((lambda link: cap), flows))
    return scenarios


def _campaign_throughput(n_scenarios: int, reps: int) -> dict:
    """Scenarios/sec, serial loop vs one batched pass, reps interleaved.

    Serial runs each scenario through its own :class:`FlowSim` (the
    pre-PR-8 campaign execution model); batched stacks all of them into
    one :class:`~repro.network.batchsim.BatchFlowSim` block-diagonal
    solve.  Results are byte-identical either way, so this is a pure
    dispatch-overhead measurement.
    """
    from repro.network.batchsim import BatchFlowSim

    scenarios = _campaign_scenarios(n_scenarios)
    batcher = BatchFlowSim(MIRA_PARAMS)

    def run_batched():
        return batcher.simulate_many(scenarios)

    def run_serial():
        return [FlowSim(c, MIRA_PARAMS).run(f) for c, f in scenarios]

    run_batched()  # warm both out of the measurement
    run_serial()
    t_b, t_s = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_batched()
        t_b.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_serial()
        t_s.append(time.perf_counter() - t0)
    b_mean, s_mean = statistics.fmean(t_b), statistics.fmean(t_s)
    return {
        "scenarios": n_scenarios,
        "serial_mean_s": s_mean,
        "batched_mean_s": b_mean,
        "serial_scen_per_s": n_scenarios / s_mean,
        "batched_scen_per_s": n_scenarios / b_mean,
        "speedup_mean": s_mean / b_mean,
        "speedup_best": min(t_s) / min(t_b),
        "reps": reps,
    }


def _faulted_campaign_throughput(
    n_scenarios: int,
    reps: int,
    *,
    nnodes: int = 64,
    nbytes: int = 1 << 20,
    fault_frac: float = 0.10,
    seed: int = 0,
) -> dict:
    """Fault-tolerant campaign throughput, batched vs forced-serial.

    ``fault_frac`` of the scenarios carry a seeded link-fault trace
    (capacity drops and hard link-down events mid-transfer); all run
    through the resilience executor.  Forced-serial executes one
    :func:`run_resilient_transfer` per scenario (the pre-PR-9 model);
    batched hands the whole campaign to
    :func:`run_resilient_transfer_many`, which solves each wave's flow
    simulations in one block-diagonal pass.  Outcomes are required to
    be byte-identical, and the recorded speedup is CI's regression gate.
    """
    import numpy as np

    from repro.machine.faults import random_fault_trace
    from repro.resilience import run_resilient_transfer
    from repro.resilience.chaos import geometry_specs
    from repro.resilience.executor import run_resilient_transfer_many

    system = mira_system(nnodes=nnodes)
    geometries = ("p2p", "group", "fanin")
    spec_sets, traces = [], []
    for i in range(n_scenarios):
        rng = np.random.default_rng([seed, i])
        geometry = geometries[i % len(geometries)]
        size = float(nbytes) * float(rng.integers(1, 4))
        spec_sets.append(geometry_specs(system, geometry, size))
        traces.append(
            random_fault_trace(
                system.topology, 3, hard_fraction=0.5, seed=[seed, i]
            )
            if rng.random() < fault_frac
            else None
        )

    def run_batched():
        return run_resilient_transfer_many(system, spec_sets, traces=traces)

    def run_serial():
        return [
            run_resilient_transfer(system, specs, trace=trace)
            for specs, trace in zip(spec_sets, traces)
        ]

    batched_out = run_batched()  # warm both out of the measurement
    serial_out = run_serial()

    parity = 0.0
    for b, s in zip(batched_out, serial_out):
        parity = max(
            parity,
            abs(b.makespan - s.makespan),
            abs(b.delivered_bytes - s.delivered_bytes),
            abs(b.residue_bytes - s.residue_bytes),
        )

    t_b, t_s = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_batched()
        t_b.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_serial()
        t_s.append(time.perf_counter() - t0)
    b_mean, s_mean = statistics.fmean(t_b), statistics.fmean(t_s)
    return {
        "scenarios": n_scenarios,
        "nnodes": nnodes,
        "fault_frac": fault_frac,
        "n_faulted": sum(1 for t in traces if t is not None),
        "serial_mean_s": s_mean,
        "batched_mean_s": b_mean,
        "serial_scen_per_s": n_scenarios / s_mean,
        "batched_scen_per_s": n_scenarios / b_mean,
        "speedup_mean": s_mean / b_mean,
        "speedup_best": min(t_s) / min(t_b),
        "parity_max_abs": parity,
        "reps": reps,
    }


def _verification_overhead(
    n_scenarios: int,
    reps: int,
    *,
    nnodes: int = 64,
    nbytes: int = 1 << 20,
    seed: int = 0,
) -> dict:
    """Fault-free cost of end-to-end extent verification, interleaved.

    Runs the same fault-free campaign twice per rep: once with no SDC
    model (verification dormant — the pre-PR behaviour) and once with a
    *null but active* :class:`~repro.machine.faults.SDCModel` (every
    delivered extent's checksum is recomputed and compared, nothing is
    ever corrupted).  Verification is pure observation, so the outcomes
    must be byte-identical; the recorded overhead fraction is the CI
    gate (must stay <= 3%).
    """
    import numpy as np

    from repro.machine.faults import SDCModel
    from repro.resilience.chaos import geometry_specs
    from repro.resilience.executor import run_resilient_transfer_many

    system = mira_system(nnodes=nnodes)
    geometries = ("p2p", "group", "fanin")
    spec_sets = []
    for i in range(n_scenarios):
        rng = np.random.default_rng([seed, i])
        size = float(nbytes) * float(rng.integers(1, 4))
        spec_sets.append(geometry_specs(system, geometries[i % 3], size))
    null_sdc = [SDCModel(seed=seed)] * n_scenarios

    def run_plain():
        return run_resilient_transfer_many(system, spec_sets)

    def run_verified():
        return run_resilient_transfer_many(system, spec_sets, sdc=null_sdc)

    plain_out = run_plain()  # warm both out of the measurement
    verified_out = run_verified()
    parity = 0.0
    for p, v in zip(plain_out, verified_out):
        parity = max(
            parity,
            abs(p.makespan - v.makespan),
            abs(p.delivered_bytes - v.delivered_bytes),
        )
    t_p, t_v = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_plain()
        t_p.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_verified()
        t_v.append(time.perf_counter() - t0)
    p_mean, v_mean = statistics.fmean(t_p), statistics.fmean(t_v)
    return {
        "scenarios": n_scenarios,
        "nnodes": nnodes,
        "plain_mean_s": p_mean,
        "verified_mean_s": v_mean,
        "overhead_frac_mean": (v_mean - p_mean) / p_mean,
        "overhead_frac_best": (min(t_v) - min(t_p)) / min(t_p),
        "parity_max_abs": parity,
        "reps": reps,
    }


def _recovered_goodput(
    *, nnodes: int = 128, nbytes: int = 4 << 20, seeds=(0, 1)
) -> dict:
    """Goodput retained while detecting and re-driving silent corruption.

    Runs the corruption chaos scenarios and reports delivered goodput
    as a fraction of each geometry's fault-free baseline, plus the
    detection/quarantine totals.  ``corrupted_acknowledged_bytes`` must
    be zero across every run — that is the tentpole invariant, gated
    here as well as in the campaign itself.
    """
    from repro.resilience.chaos import CampaignConfig, run_campaign

    report = run_campaign(
        CampaignConfig(
            nnodes=nnodes,
            nbytes=nbytes,
            seeds=tuple(seeds),
            scenarios=("silent-corruption", "corrupting-proxy"),
        )
    )
    runs = report["runs"]
    baselines = report["baseline_throughput_Bps"]
    fracs = [
        r["goodput_Bps"] / baselines[r["geometry"]]
        for r in runs
        if baselines.get(r["geometry"])
    ]
    return {
        "campaign_passed": report["passed"],
        "n_runs": report["n_runs"],
        "corrupt_extents_detected": sum(
            r["corrupt_extents_detected"] for r in runs
        ),
        "corrupt_bytes_redriven": sum(r["corrupt_bytes_redriven"] for r in runs),
        "stale_drops": sum(r["stale_drops"] for r in runs),
        "corrupted_acknowledged_bytes": sum(
            r["corrupted_acknowledged_bytes"] for r in runs
        ),
        "quarantined_carriers": sum(
            r["quarantined_links"] + r["quarantined_proxies"] for r in runs
        ),
        "recovered_goodput_frac_mean": statistics.fmean(fracs) if fracs else 0.0,
        "recovered_goodput_frac_min": min(fracs) if fracs else 0.0,
    }


def _interleaved_speedup(make_new, make_seed, run, reps: int) -> dict:
    """Mean times and speedup of ``new`` vs ``seed``, reps interleaved.

    Alternating new/seed repetitions decorrelates the ratio from slow
    drift in machine load — the recorded speedup is a same-conditions
    comparison, unlike two back-to-back timing blocks.
    """
    sim_new, sim_seed = make_new(), make_seed()
    run(sim_new)  # warm both out of the measurement
    run(sim_seed)
    t_new, t_seed = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        run(sim_new)
        t_new.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run(sim_seed)
        t_seed.append(time.perf_counter() - t0)
    new_mean, seed_mean = statistics.fmean(t_new), statistics.fmean(t_seed)
    return {
        "new_mean_s": new_mean,
        "seed_mean_s": seed_mean,
        "new_best_s": min(t_new),
        "seed_best_s": min(t_seed),
        "speedup_mean": seed_mean / new_mean,
        "speedup_best": min(t_seed) / min(t_new),
        "reps": reps,
    }


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    ap.add_argument("--reps", type=int, default=5, help="timed reps per benchmark")
    ap.add_argument(
        "--seed-reps",
        type=int,
        default=3,
        help="interleaved reps for the seed-relative speedup measurements",
    )
    ap.add_argument(
        "--resilience",
        action="store_true",
        help="also run the partial-progress retransmit benchmark and "
        "record its savings under the 'resilience' key",
    )
    ap.add_argument(
        "--skip-perf",
        action="store_true",
        help="skip the simulator microbenchmarks and seed speedups "
        "(CI's chaos-smoke job records only the resilience numbers)",
    )
    ap.add_argument(
        "--service",
        action="store_true",
        help="also run the adaptive-vs-static service overload soak and "
        "write its bench-service/1 report to --service-out",
    )
    ap.add_argument(
        "--service-out",
        type=Path,
        default=REPO_ROOT / "BENCH_service.json",
        help="destination of the --service report",
    )
    ap.add_argument(
        "--service-duration",
        type=float,
        default=8.0,
        help="ramp length [s] of each --service run",
    )
    ap.add_argument(
        "--chaos-service",
        action="store_true",
        help="also measure faulted-campaign throughput (batched vs "
        "forced-serial under link-fault traces), fault-free "
        "verification overhead (gated <= 3%%), recovered goodput under "
        "silent corruption, and run a seeded service chaos campaign; "
        "writes a bench-resilience/1 report to --resilience-out",
    )
    ap.add_argument(
        "--resilience-out",
        type=Path,
        default=REPO_ROOT / "BENCH_resilience.json",
        help="destination of the --chaos-service report",
    )
    ap.add_argument(
        "--chaos-requests",
        type=int,
        default=200,
        help="requests in the --chaos-service campaign",
    )
    args = ap.parse_args(argv)
    setup_cli_logging("info")
    if args.skip_perf and not (
        args.resilience or args.service or args.chaos_service
    ):
        ap.error(
            "--skip-perf leaves nothing to record without "
            "--resilience/--service/--chaos-service"
        )

    resilience_ok = True
    if args.chaos_service:
        import tempfile

        from repro.resilience.service_chaos import (
            ServiceCampaignConfig,
            run_service_campaign,
        )

        log.info(
            "measuring faulted campaign throughput (batched vs forced-serial) ..."
        )
        faulted = _faulted_campaign_throughput(128, max(args.seed_reps, 3))
        log.info(
            f"faulted_campaign: batched {faulted['batched_scen_per_s']:.0f} "
            f"scen/s vs serial {faulted['serial_scen_per_s']:.0f} scen/s -> "
            f"{faulted['speedup_mean']:.2f}x mean "
            f"({faulted['speedup_best']:.2f}x best), parity "
            f"{faulted['parity_max_abs']:.1e}"
        )
        log.info(
            "measuring fault-free verification overhead (plain vs null-SDC) ..."
        )
        verification = _verification_overhead(96, max(args.seed_reps, 5))
        log.info(
            f"verification_overhead: plain "
            f"{verification['plain_mean_s'] * 1e3:.1f} ms, verified "
            f"{verification['verified_mean_s'] * 1e3:.1f} ms -> "
            f"{verification['overhead_frac_mean']:+.2%} mean "
            f"({verification['overhead_frac_best']:+.2%} best), parity "
            f"{verification['parity_max_abs']:.1e}"
        )
        log.info("measuring recovered goodput under silent corruption ...")
        recovered = _recovered_goodput()
        log.info(
            f"recovered_goodput: {recovered['recovered_goodput_frac_mean']:.1%} "
            f"of fault-free baseline (min "
            f"{recovered['recovered_goodput_frac_min']:.1%}) across "
            f"{recovered['n_runs']} corruption runs; "
            f"{recovered['corrupt_extents_detected']} corrupt arrivals "
            f"detected, {recovered['corrupted_acknowledged_bytes']} corrupt "
            f"bytes acknowledged, "
            f"{recovered['quarantined_carriers']} carriers quarantined"
        )
        log.info(
            f"running seeded service chaos campaign "
            f"({args.chaos_requests} requests) ..."
        )
        with tempfile.TemporaryDirectory() as td:
            chaos_summary = run_service_campaign(
                ServiceCampaignConfig(n_requests=args.chaos_requests),
                out_path=Path(td) / "campaign.json",
                progress=log.info,
            )
        res_doc = {
            "schema": "bench-resilience/1",
            "python": sys.version.split()[0],
            "faulted_campaign": faulted,
            "verification_overhead": verification,
            "recovered_goodput": recovered,
            "chaos_service": chaos_summary,
        }
        atomic_write_text(
            args.resilience_out,
            json.dumps(res_doc, indent=2, sort_keys=True) + "\n",
        )
        log.info(f"wrote {args.resilience_out}")
        if faulted["parity_max_abs"] > 1e-12:
            log.warning(
                f"batched/serial outcome parity violated "
                f"({faulted['parity_max_abs']:.3e} > 1e-12)"
            )
            resilience_ok = False
        if faulted["speedup_mean"] < 2.0:
            log.warning(
                f"faulted campaign speedup below the 2x gate "
                f"({faulted['speedup_mean']:.2f}x)"
            )
            resilience_ok = False
        if verification["overhead_frac_mean"] > 0.03:
            log.warning(
                f"fault-free verification overhead above the 3% gate "
                f"({verification['overhead_frac_mean']:.2%})"
            )
            resilience_ok = False
        if verification["parity_max_abs"] > 0.0:
            log.warning(
                f"verification changed a fault-free outcome "
                f"({verification['parity_max_abs']:.3e} != 0) — it must be "
                f"pure observation"
            )
            resilience_ok = False
        if not recovered["campaign_passed"]:
            log.warning("corruption chaos campaign failed its invariants")
            resilience_ok = False
        if recovered["corrupted_acknowledged_bytes"] != 0:
            log.warning(
                f"corrupted bytes were acknowledged "
                f"({recovered['corrupted_acknowledged_bytes']})"
            )
            resilience_ok = False
        if not chaos_summary["passed"]:
            log.warning(
                f"service chaos campaign failed its invariants: "
                f"{chaos_summary['failures']}"
            )
            resilience_ok = False
        if args.skip_perf and not (args.resilience or args.service):
            return 0 if resilience_ok else 1

    service_ok = True
    if args.service:
        from repro.loadgen import service_benchmark

        log.info("running adaptive-vs-static service overload soak ...")
        svc_doc = service_benchmark(
            duration_s=args.service_duration, progress=log.info
        )
        atomic_write_text(
            args.service_out, json.dumps(svc_doc, indent=2, sort_keys=True) + "\n"
        )
        verdict = svc_doc["comparison"]
        log.info(
            f"wrote {args.service_out}: goodput gain "
            f"{verdict['goodput_gain']:+.1%}, CI separated: "
            f"{verdict['goodput_ci_separated']}"
        )
        service_ok = (
            verdict["goodput_gain"] >= 0 and verdict["goodput_ci_separated"]
        )
        if not service_ok:
            log.warning("adaptive admission did not separate from static")
        if args.skip_perf and not args.resilience:
            return 0 if (service_ok and resilience_ok) else 1

    resilience = None
    if args.resilience:
        import bench_ext_resilience as bench_res

        log.info("running partial-progress retransmit benchmark ...")
        fig = bench_res.run_partial_progress()
        full = fig.get("full retransmit")
        part = fig.get("partial progress (ledger)")
        resilience = {
            "figure": fig.figure,
            "sizes": list(full.x),
            "bytes_resent_full": list(full.y),
            "bytes_resent_partial": list(part.y),
            **fig.notes,
        }
        log.info(
            f"retransmit savings {fig.notes['retransmit_savings_frac']:.1%}, "
            f"goodput gain {fig.notes['goodput_gain_at_big']:.2f}x"
        )

    if args.skip_perf:
        doc = {
            "schema": "bench-simulator/1",
            "python": sys.version.split()[0],
            "resilience": resilience,
        }
        atomic_write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        log.info(f"wrote {args.out}")
        return 0 if (service_ok and resilience_ok) else 1

    system512 = mira_system(nnodes=512)

    log.info("running simulator microbenchmarks ...")
    bench.test_waterfill_1k_flows(BenchmarkShim(reps=args.reps))
    bench.test_eventloop_1k_exact(BenchmarkShim(reps=args.reps))
    bench.test_flowsim_small_exact(BenchmarkShim(reps=args.reps))
    # Sub-millisecond paths: more reps for a stable mean.
    bench.test_deterministic_routing(BenchmarkShim(reps=50), system512)
    bench.test_proxy_search(BenchmarkShim(reps=20), system512)
    bench.test_tracer_overhead()
    bench.test_exact_mode_not_slower_than_seed()

    log.info("measuring seed-relative speedups (interleaved) ...")
    flows, system = bench._thousand_flows()
    torus_flows = _torus_thousand_flows()
    torus_cap = 2.0e9
    speedups = {
        "eventloop_1k_exact": _interleaved_speedup(
            lambda: FlowSim(system.capacity, MIRA_PARAMS),
            lambda: SeedFlowSim(system.capacity, MIRA_PARAMS),
            lambda sim: sim.run(flows),
            args.seed_reps,
        ),
        "waterfill_1k_batched": _interleaved_speedup(
            lambda: FlowSim(system.capacity, MIRA_PARAMS, batch_tol=0.5),
            lambda: SeedFlowSim(system.capacity, MIRA_PARAMS, batch_tol=0.5),
            lambda sim: sim.run(flows),
            args.seed_reps,
        ),
        # Uniform-capacity 8x8x8 torus (512 nodes), exact mode: no rate
        # caps bind, so every freeze goes through the real-link incidence
        # kernel — the purest waterfill stressor.
        "waterfill_1k_torus_exact": _interleaved_speedup(
            lambda: FlowSim(lambda link: torus_cap),
            lambda: SeedFlowSim(lambda link: torus_cap),
            lambda sim: sim.run(torus_flows),
            args.seed_reps,
        ),
    }
    for name, rec in speedups.items():
        log.info(
            f"{name}: new {rec['new_mean_s'] * 1e3:.1f} ms, "
            f"seed {rec['seed_mean_s'] * 1e3:.1f} ms "
            f"-> {rec['speedup_mean']:.2f}x mean ({rec['speedup_best']:.2f}x best)"
        )

    log.info("measuring campaign throughput (serial vs batched) ...")
    campaign = _campaign_throughput(200, max(args.seed_reps, 3))
    log.info(
        f"campaign_throughput: batched {campaign['batched_scen_per_s']:.0f} "
        f"scen/s vs serial {campaign['serial_scen_per_s']:.0f} scen/s "
        f"-> {campaign['speedup_mean']:.2f}x mean "
        f"({campaign['speedup_best']:.2f}x best)"
    )

    # Fold the bench.* gauges into {benchmark: {mean_s, stddev_s, ...}}.
    gauges = get_registry().snapshot()["gauges"]
    benchmarks: dict[str, dict] = {}
    for name, value in gauges.items():
        if not name.startswith("bench."):
            continue
        stem, _, field = name[len("bench.") :].rpartition(".")
        if not stem:  # bare gauge such as bench.flowsim_tracing_overhead_frac
            stem, field = field, "value"
        benchmarks.setdefault(stem, {})[field] = value

    doc = {
        "schema": "bench-simulator/1",
        "python": sys.version.split()[0],
        "benchmarks": benchmarks,
        "speedup_vs_seed": speedups,
        "campaign_throughput": campaign,
        "reps": args.reps,
    }
    if resilience is not None:
        doc["resilience"] = resilience
    atomic_write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log.info(f"wrote {args.out}")

    headline = speedups["eventloop_1k_exact"]["speedup_mean"]
    if headline < 1.0:
        log.warning(f"vectorized event loop slower than seed ({headline:.2f}x)")
        return 1
    if campaign["speedup_mean"] < 1.0:
        log.warning(
            f"batched campaign simulation slower than serial "
            f"({campaign['speedup_mean']:.2f}x)"
        )
        return 1
    return 0 if (service_ok and resilience_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
