"""Record the repository's timing comparisons as paired intervals.

Every comparison times two ways of doing the same work in one process:
both sides are warmed, then ``--reps`` repetitions run with the side
that goes first alternating, so machine-load drift hits both sides of a
rep alike.  A record keeps the per-rep times, the median of the per-rep
ratios, its distribution-free 95% interval (order statistics, so
``--reps`` >= 6) and a verdict (:func:`repro.loadgen.stats.paired_ratio`).
Gates read the interval, never a mean, a best time or a single run.  A
gate holds when the whole interval meets its rule; otherwise a speed
claim fails, while a cost budget fails only when the whole interval
breaks it and is "unresolved" when the interval straddles it.

Records:

* ``BENCH_simulator.json`` (``bench-simulator/2``, written unless
  ``--skip-perf``): ``eventloop_1k_exact`` (per-rep times and the
  interval of their median), ``campaign_throughput``,
  ``tracing_overhead`` (enabled / disabled) and ``incremental_auto_gate``;
* ``BENCH_resilience.json`` (``bench-resilience/1``): ``--chaos-service``
  records ``faulted_campaign``, ``verification_overhead``,
  ``recovered_goodput`` and ``chaos_service``; ``--resilience`` records
  the partial-progress retransmit benchmark under ``resilience``.  A run
  replaces only the keys it measured;
* ``BENCH_service.json`` (``bench-service/1``): ``--service`` runs the
  adaptive-vs-static overload soak
  (:func:`repro.loadgen.bench.service_benchmark`).

End-to-end wall times and their per-layer split are the benchmark in
``benchmarks/e2e`` (``python3 benchmarks/e2e/run.py``).  The script
exits non-zero when any gate fails.

Usage::

    python benchmarks/record.py [--out PATH] [--reps N]
    python benchmarks/record.py --skip-perf --chaos-service --resilience
    python benchmarks/record.py --skip-perf --service
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.loadgen.stats import median_ci, paired_ratio  # noqa: E402
from repro.machine import mira_system  # noqa: E402
from repro.network.flow import Flow  # noqa: E402
from repro.network.flowsim import FlowSim, uniform_capacities  # noqa: E402
from repro.network.params import MIRA_PARAMS  # noqa: E402
from repro.util.atomicio import atomic_write_text  # noqa: E402
from repro.util.log import get_logger, setup_cli_logging  # noqa: E402
from repro.util.units import MiB  # noqa: E402

log = get_logger(__name__)

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "BENCH_simulator.json"
SIM_SCHEMA = "bench-simulator/2"
RES_SCHEMA = "bench-resilience/1"


def _paired(name_a: str, run_a, name_b: str, run_b, reps: int):
    """Time ``run_a`` against ``run_b`` as ``reps`` alternating pairs.

    Returns the record (``<name>_s`` per-rep times, the ``name_a /
    name_b`` median ratio, its interval and verdict) and both sides'
    warm-up results, for parity checks.
    """
    warm = (run_a(), run_b())
    sides = ((name_a, run_a), (name_b, run_b))
    times: dict[str, list[float]] = {name_a: [], name_b: []}
    for i in range(reps):
        for name, run in sides if i % 2 == 0 else sides[::-1]:
            t0 = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - t0)
    rec: dict = {f"{name}_s": t for name, t in times.items()}
    rec["ratio"] = f"{name_a} / {name_b}"
    rec.update(paired_ratio(times[name_a], times[name_b]))
    return rec, warm


def _gate(name: str, rec: dict, op: str, threshold: float, *, claim: bool = False) -> bool:
    """Judge ``rec``'s ratio interval against ``ratio op threshold``.

    Holds when the whole interval meets the rule.  Otherwise a speed
    ``claim`` fails; a cost budget fails only when the whole interval
    breaks the rule and is "unresolved" when it straddles it.  Returns
    False only when the gate fails.
    """
    lo, hi = rec["ratio_ci"]
    if op == ">=":
        meets, breaks = lo >= threshold, hi < threshold
    else:
        meets, breaks = hi <= threshold, lo > threshold
    status = "holds" if meets else "fails" if claim or breaks else "unresolved"
    rule = f"{rec['ratio']} {op} {threshold:.4g}"
    rec["gate"] = {"rule": rule, "kind": "claim" if claim else "budget", "status": status}
    log.info(
        f"{name}: {rec['ratio']} = {rec['ratio_median']:.3f} "
        f"[{lo:.3f}, {hi:.3f}] ({rec['verdict']}); gate {rule}: {status}"
    )
    return status != "fails"


def _thousand_flows():
    """~1,000 random flows on a 512-node Mira partition (stream caps bind)."""
    rng = np.random.default_rng(0)
    system = mira_system(nnodes=512)
    nodes = rng.integers(0, 512, size=(1000, 2))
    flows = [
        Flow(
            fid=i,
            size=float(rng.integers(1, 8 * MiB)),
            path=system.compute_path(int(a), int(b)).links,
        )
        for i, (a, b) in enumerate(nodes)
        if a != b
    ]
    return flows, system


def _eventloop_1k_exact(sim: FlowSim, flows, reps: int) -> dict:
    """Absolute record of the exact-mode 1k-flow event loop.

    Every finish triggers an exact (incremental) re-solve, the engine's
    hardest configuration.  Kept as times plus the interval of their
    median: it has no second side to pair with.
    """
    sim.run(flows)  # warm caches out of the measurement
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        sim.run(flows)
        times.append(time.perf_counter() - t0)
    lo, hi = median_ci(times)
    return {
        "flows": len(flows),
        "times_s": times,
        "median_s": float(np.median(times)),
        "median_ci_s": [lo, hi],
    }


def _campaign_scenarios(n: int = 200, seed: int = 0):
    """``n`` small independent transfer scenarios (campaign-shaped).

    Mirrors what ``repro batch`` / the loadgen transfer mix feed the
    simulator: 3-9 flows each on a small torus, with staggered starts,
    delays and a few cross-flow dependencies.
    """
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


def _small_flows(n: int = 64):
    """``n`` staggered flows on 64 links: below the incremental threshold."""
    rng = np.random.default_rng(0)
    return [
        Flow(
            fid=i,
            size=float(rng.integers(1, 1 << 20)),
            path=tuple(int(link) for link in rng.choice(64, size=4, replace=False)),
            start_time=float(rng.uniform(0, 1e-3)),
        )
        for i in range(n)
    ]


def _simulator_record(reps: int):
    """The ``bench-simulator/2`` document and whether every gate passed."""
    from repro.network.batchsim import BatchFlowSim
    from repro.obs import TimeSeriesProbe, Tracer, use_tracer

    ok = True
    flows, system = _thousand_flows()
    sim = FlowSim(system.capacity, MIRA_PARAMS)
    log.info("timing the exact 1k-flow event loop ...")
    eventloop = _eventloop_1k_exact(sim, flows, reps)
    lo, hi = eventloop["median_ci_s"]
    log.info(
        f"eventloop_1k_exact: median {eventloop['median_s'] * 1e3:.1f} ms "
        f"[{lo * 1e3:.1f}, {hi * 1e3:.1f}] over {reps} reps"
    )

    def run_enabled():
        probe = TimeSeriesProbe(interval=1e-4, max_samples=2000)
        with use_tracer(Tracer()):
            return sim.run(flows, probe=probe)

    # The hooks must be free when observability is off: the disabled
    # run may cost at most 2% over the fully-enabled (tracer + probe)
    # one, i.e. the budget is enabled / disabled >= 1 / 1.02.
    tracing, _ = _paired("enabled", run_enabled, "disabled", lambda: sim.run(flows), reps)
    ok &= _gate("tracing_overhead", tracing, ">=", 1 / 1.02)

    # Below _INC_AUTO_MIN flows "auto" runs the full re-solve, so it must
    # not be slower than forcing it.
    small = _small_flows()
    caps = uniform_capacities(MIRA_PARAMS.link_bw)
    auto_gate, _ = _paired(
        "auto", lambda: FlowSim(caps, MIRA_PARAMS, incremental="auto").run(small),
        "full", lambda: FlowSim(caps, MIRA_PARAMS, incremental=False).run(small),
        reps,
    )
    auto_gate["flows"] = len(small)
    ok &= _gate("incremental_auto_gate", auto_gate, "<=", 1.25)

    # Serial runs each scenario through its own FlowSim; batched stacks
    # all of them into one block-diagonal solve.  Results are
    # byte-identical, so this measures dispatch overhead alone.
    scenarios = _campaign_scenarios(200)
    batcher = BatchFlowSim(MIRA_PARAMS)
    campaign, _ = _paired(
        "serial", lambda: [FlowSim(c, MIRA_PARAMS).run(f) for c, f in scenarios],
        "batched", lambda: batcher.simulate_many(scenarios),
        reps,
    )
    campaign["scenarios"] = len(scenarios)
    ok &= _gate("campaign_throughput", campaign, ">=", 1.0, claim=True)

    doc = {
        "schema": SIM_SCHEMA,
        "python": sys.version.split()[0],
        "reps": reps,
        "eventloop_1k_exact": eventloop,
        "tracing_overhead": tracing,
        "incremental_auto_gate": auto_gate,
        "campaign_throughput": campaign,
    }
    return doc, ok


def _resilient_campaign(system, n_scenarios: int, nbytes: int, seed: int, fault_frac: float):
    """Transfer sets cycling p2p / group / fan-in geometries, and a seeded
    link-fault trace (capacity drops and hard link-down events
    mid-transfer) on ``fault_frac`` of them."""
    from repro.machine.faults import random_fault_trace
    from repro.resilience.chaos import geometry_specs

    spec_sets, traces = [], []
    for i in range(n_scenarios):
        rng = np.random.default_rng([seed, i])
        size = float(nbytes) * float(rng.integers(1, 4))
        spec_sets.append(geometry_specs(system, ("p2p", "group", "fanin")[i % 3], size))
        traces.append(
            random_fault_trace(system.topology, 3, hard_fraction=0.5, seed=[seed, i])
            if rng.random() < fault_frac
            else None
        )
    return spec_sets, traces


def _faulted_campaign(
    n_scenarios: int, reps: int, *, nnodes: int = 64, nbytes: int = 1 << 20,
    fault_frac: float = 0.10, seed: int = 0,
) -> dict:
    """Fault-tolerant campaign, forced-serial vs batched.

    Serial runs one :func:`run_resilient_transfer` per scenario; batched
    hands the campaign to :func:`run_resilient_transfer_many`.  Outcomes
    must be byte-identical.
    """
    from repro.resilience import run_resilient_transfer
    from repro.resilience.executor import run_resilient_transfer_many

    system = mira_system(nnodes=nnodes)
    spec_sets, traces = _resilient_campaign(system, n_scenarios, nbytes, seed, fault_frac)
    rec, (serial_out, batched_out) = _paired(
        "serial",
        lambda: [
            run_resilient_transfer(system, specs, trace=trace)
            for specs, trace in zip(spec_sets, traces)
        ],
        "batched",
        lambda: run_resilient_transfer_many(system, spec_sets, traces=traces),
        reps,
    )
    rec["parity_max_abs"] = max(
        max(
            abs(b.makespan - s.makespan),
            abs(b.delivered_bytes - s.delivered_bytes),
            abs(b.residue_bytes - s.residue_bytes),
        )
        for b, s in zip(batched_out, serial_out)
    )
    rec.update(
        scenarios=n_scenarios, nnodes=nnodes, fault_frac=fault_frac,
        n_faulted=sum(1 for t in traces if t is not None),
    )
    return rec


def _verification_overhead(
    n_scenarios: int, reps: int, *, nnodes: int = 64, nbytes: int = 1 << 20,
    seed: int = 0,
) -> dict:
    """Fault-free cost of end-to-end extent verification.

    Runs one fault-free campaign without an SDC model (verification
    dormant) and with a *null but active*
    :class:`~repro.machine.faults.SDCModel` (every delivered extent's
    checksum recomputed and compared, nothing corrupted).  Verification
    is pure observation, so the outcomes must be byte-identical.
    """
    from repro.machine.faults import SDCModel
    from repro.resilience.executor import run_resilient_transfer_many

    system = mira_system(nnodes=nnodes)
    spec_sets, _ = _resilient_campaign(system, n_scenarios, nbytes, seed, 0.0)
    null_sdc = [SDCModel(seed=seed)] * n_scenarios
    rec, (verified_out, plain_out) = _paired(
        "verified",
        lambda: run_resilient_transfer_many(system, spec_sets, sdc=null_sdc),
        "plain",
        lambda: run_resilient_transfer_many(system, spec_sets),
        reps,
    )
    rec["parity_max_abs"] = max(
        max(abs(p.makespan - v.makespan), abs(p.delivered_bytes - v.delivered_bytes))
        for p, v in zip(plain_out, verified_out)
    )
    rec.update(scenarios=n_scenarios, nnodes=nnodes)
    return rec


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


def _chaos_service_record(reps: int, n_requests: int):
    """The ``--chaos-service`` keys of the resilience record, and whether
    every gate passed."""
    import tempfile

    from repro.resilience.service_chaos import (
        ServiceCampaignConfig,
        run_service_campaign,
    )

    ok = True
    log.info("timing the faulted campaign (forced-serial vs batched) ...")
    faulted = _faulted_campaign(128, reps)
    ok &= _gate("faulted_campaign", faulted, ">=", 2.0, claim=True)
    if faulted["parity_max_abs"] > 1e-12:
        log.warning(
            f"batched/serial outcome parity violated "
            f"({faulted['parity_max_abs']:.3e} > 1e-12)"
        )
        ok = False

    log.info("timing fault-free verification (null-SDC vs plain) ...")
    verification = _verification_overhead(96, reps)
    ok &= _gate("verification_overhead", verification, "<=", 1.03)
    if verification["parity_max_abs"] > 0.0:
        log.warning(
            f"verification changed a fault-free outcome "
            f"({verification['parity_max_abs']:.3e} != 0) — it must be "
            f"pure observation"
        )
        ok = False

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
    if not recovered["campaign_passed"]:
        log.warning("corruption chaos campaign failed its invariants")
        ok = False
    if recovered["corrupted_acknowledged_bytes"] != 0:
        log.warning(
            f"corrupted bytes were acknowledged "
            f"({recovered['corrupted_acknowledged_bytes']})"
        )
        ok = False

    log.info(f"running seeded service chaos campaign ({n_requests} requests) ...")
    with tempfile.TemporaryDirectory() as td:
        chaos_summary = run_service_campaign(
            ServiceCampaignConfig(n_requests=n_requests),
            out_path=Path(td) / "campaign.json",
            progress=log.info,
        )
    # The temp-dir paths die with the directory.
    chaos_summary.pop("out", None)
    chaos_summary.pop("journal", None)
    if not chaos_summary["passed"]:
        log.warning(
            f"service chaos campaign failed its invariants: "
            f"{chaos_summary['failures']}"
        )
        ok = False
    return {
        "faulted_campaign": faulted,
        "verification_overhead": verification,
        "recovered_goodput": recovered,
        "chaos_service": chaos_summary,
    }, ok


def _retransmit_record() -> dict:
    """Partial-progress (ledger) vs full-share retransmit volumes."""
    import bench_ext_resilience as bench_res

    log.info("running partial-progress retransmit benchmark ...")
    fig = bench_res.run_partial_progress()
    full = fig.get("full retransmit")
    part = fig.get("partial progress (ledger)")
    log.info(
        f"retransmit savings {fig.notes['retransmit_savings_frac']:.1%}, "
        f"goodput gain {fig.notes['goodput_gain_at_big']:.2f}x"
    )
    return {
        "figure": fig.figure,
        "sizes": list(full.x),
        "bytes_resent_full": list(full.y),
        "bytes_resent_partial": list(part.y),
        **fig.notes,
    }


def _write(path: Path, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log.info(f"wrote {path}")


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    ap.add_argument(
        "--reps", type=int, default=10, help="timed repetitions per comparison"
    )
    ap.add_argument(
        "--resilience",
        action="store_true",
        help="also run the partial-progress retransmit benchmark and "
        "record it under the 'resilience' key of --resilience-out",
    )
    ap.add_argument(
        "--skip-perf",
        action="store_true",
        help="skip the simulator record; --out is not written",
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
        help="also time the faulted campaign (forced-serial vs batched) "
        "and fault-free verification, measure recovered goodput under "
        "silent corruption, and run a seeded service chaos campaign; "
        "recorded in --resilience-out",
    )
    ap.add_argument(
        "--resilience-out",
        type=Path,
        default=REPO_ROOT / "BENCH_resilience.json",
        help="the bench-resilience/1 record --chaos-service and "
        "--resilience update",
    )
    ap.add_argument(
        "--chaos-requests",
        type=int,
        default=200,
        help="requests in the --chaos-service campaign",
    )
    args = ap.parse_args(argv)
    setup_cli_logging("info")
    if args.reps < 6:
        ap.error("--reps must be >= 6 for a 95% interval of the median")
    if args.skip_perf and not (
        args.resilience or args.service or args.chaos_service
    ):
        ap.error(
            "--skip-perf leaves nothing to record without "
            "--resilience/--service/--chaos-service"
        )

    ok = True
    if not args.skip_perf:
        sim_doc, sim_ok = _simulator_record(args.reps)
        _write(args.out, sim_doc)
        ok &= sim_ok

    res_fields: dict = {}
    if args.chaos_service:
        fields, chaos_ok = _chaos_service_record(args.reps, args.chaos_requests)
        res_fields.update(fields)
        ok &= chaos_ok
    if args.resilience:
        res_fields["resilience"] = _retransmit_record()
    if res_fields:
        res_doc: dict = {}
        if args.resilience_out.exists():
            res_doc = json.loads(args.resilience_out.read_text())
            if res_doc.get("schema") != RES_SCHEMA:
                res_doc = {}
        res_doc.update(res_fields, schema=RES_SCHEMA, python=sys.version.split()[0])
        _write(args.resilience_out, res_doc)

    if args.service:
        from repro.loadgen import service_benchmark

        log.info("running adaptive-vs-static service overload soak ...")
        svc_doc = service_benchmark(
            duration_s=args.service_duration, progress=log.info
        )
        _write(args.service_out, svc_doc)
        verdict = svc_doc["comparison"]
        log.info(
            f"goodput gain {verdict['goodput_gain']:+.1%}, CI separated: "
            f"{verdict['goodput_ci_separated']}"
        )
        if not (verdict["goodput_gain"] >= 0 and verdict["goodput_ci_separated"]):
            log.warning("adaptive admission did not separate from static")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
