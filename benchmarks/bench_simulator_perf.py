"""Simulator performance microbenchmarks (pytest-benchmark timing loops).

These measure the library itself rather than the paper's systems: the
max-min waterfill, deterministic routing, and proxy search — the hot
paths that bound how large a machine the figure benchmarks can sweep.
Results land in the metrics registry (``bench.*`` gauges) so a metrics
dump from a benchmark run carries the measured timings.
"""

import time

import numpy as np

from repro.core.proxy_select import find_proxies_for_pair
from repro.machine import mira_system
from repro.network.flow import Flow
from repro.network.flowsim import FlowSim, uniform_capacities
from repro.network.params import MIRA_PARAMS
from repro.obs import TimeSeriesProbe, Tracer, get_registry, use_tracer
from repro.routing.deterministic import route
from repro.util.log import get_logger
from repro.util.units import MiB

log = get_logger(__name__)


def _record(name: str, benchmark) -> None:
    """Mirror a benchmark's mean/stddev into the ``bench.*`` gauges.

    ``benchmarks/record.py`` reads these gauges back to assemble
    ``BENCH_simulator.json`` — keep the gauge names stable.
    """
    stats = getattr(benchmark, "stats", None)
    if stats is not None and getattr(stats, "stats", None) is not None:
        get_registry().gauge(f"bench.{name}.mean_s").set(stats.stats.mean)
        get_registry().gauge(f"bench.{name}.stddev_s").set(stats.stats.stddev)


def _thousand_flows():
    rng = np.random.default_rng(0)
    system = mira_system(nnodes=512)
    nodes = rng.integers(0, 512, size=(1000, 2))
    return [
        Flow(
            fid=i,
            size=float(rng.integers(1, 8 * MiB)),
            path=system.compute_path(int(a), int(b)).links,
        )
        for i, (a, b) in enumerate(nodes)
        if a != b
    ], system


def test_waterfill_1k_flows(benchmark):
    """One rate computation over 1,000 contending flows."""
    flows, system = _thousand_flows()
    sim = FlowSim(system.capacity, MIRA_PARAMS, batch_tol=0.5)

    benchmark(sim.run, flows)
    _record("waterfill_1k_flows", benchmark)


def test_eventloop_1k_exact(benchmark):
    """Exact-mode (``fair_tol=0``) event loop over 1,000 flows.

    The hardest configuration: no completion batching, so every flow
    finish triggers a full waterfill over the incidence matrix.  This is
    the headline number the vectorized kernel is measured on (see
    ``benchmarks/record.py`` for the seed-relative speedup).
    """
    flows, system = _thousand_flows()
    sim = FlowSim(system.capacity, MIRA_PARAMS)

    benchmark(sim.run, flows)
    _record("eventloop_1k_exact", benchmark)


def test_exact_mode_not_slower_than_seed():
    """Vectorized exact mode is no slower than the seed at 100 flows.

    The incidence-matrix kernel wins big on large active sets; this
    guards the other end — per-run setup (CSR build, transpose, remap)
    must not regress small simulations.  Compares best-of-7 against the
    retained pre-vectorization simulator with a 15% timer-noise margin.
    """
    from _seed_flowsim import FlowSim as SeedFlowSim

    rng = np.random.default_rng(0)
    system = mira_system(nnodes=512)
    nodes = rng.integers(0, 512, size=(100, 2))
    flows = [
        Flow(
            fid=i,
            size=float(rng.integers(1, 8 * MiB)),
            path=system.compute_path(int(a), int(b)).links,
        )
        for i, (a, b) in enumerate(nodes)
        if a != b
    ]

    def best(sim, reps=7):
        sim.run(flows)  # warm caches out of the measurement
        b = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            sim.run(flows)
            b = min(b, time.perf_counter() - t0)
        return b

    new = best(FlowSim(system.capacity, MIRA_PARAMS))
    old = best(SeedFlowSim(system.capacity, MIRA_PARAMS))
    reg = get_registry()
    reg.gauge("bench.exact_100flows_new.best_s").set(new)
    reg.gauge("bench.exact_100flows_seed.best_s").set(old)
    log.info(
        f"100-flow exact: vectorized {new * 1e3:.2f} ms, "
        f"seed {old * 1e3:.2f} ms ({old / new:.2f}x)"
    )
    assert new <= old * 1.15, (
        f"vectorized exact mode slower than seed at 100 flows: "
        f"{new * 1e3:.2f} ms vs {old * 1e3:.2f} ms"
    )


def test_tracer_overhead():
    """Null-tracer (disabled) path stays within 2% of the enabled gap.

    The observability hooks in the simulator's event loop are a
    ``probe is None`` check plus a ``get_tracer()`` hit on the shared
    null object per run; this compares the 1,000-flow simulation with
    tracing disabled vs fully enabled (tracer + probe) and records
    both, plus ``flowsim_tracing_overhead_frac`` (enabled / disabled - 1,
    what turning tracing on costs), asserting the *disabled* path is not
    the slow one.
    """
    flows, system = _thousand_flows()
    sim = FlowSim(system.capacity, MIRA_PARAMS, batch_tol=0.5)
    reps = 5

    def timed(fn):
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    sim.run(flows)  # warm route/JIT-free caches out of the measurement
    disabled = timed(lambda: sim.run(flows))

    def enabled_run():
        probe = TimeSeriesProbe(interval=1e-4, max_samples=2000)
        with use_tracer(Tracer()):
            sim.run(flows, probe=probe)

    enabled = timed(enabled_run)
    overhead = enabled / disabled - 1.0
    reg = get_registry()
    reg.gauge("bench.flowsim_disabled_tracer.best_s").set(disabled)
    reg.gauge("bench.flowsim_enabled_tracer.best_s").set(enabled)
    reg.gauge("bench.flowsim_tracing_overhead_frac").set(overhead)
    log.info(
        f"flowsim 1k flows: disabled {disabled * 1e3:.2f} ms, "
        f"enabled {enabled * 1e3:.2f} ms ({overhead:+.1%} with tracing on)"
    )
    # Disabled must not cost more than 2% over the fully-enabled run —
    # i.e. the hooks themselves are free when observability is off.
    assert disabled <= enabled * 1.02


def test_deterministic_routing(benchmark, system512):
    """Routing cost for one cross-machine pair (uncached)."""
    t = system512.topology

    def _route():
        return route(t, 0, t.nnodes - 1)

    benchmark(_route)
    _record("deterministic_routing", benchmark)


def test_proxy_search(benchmark, system512):
    """Algorithm 1 candidate search for one pair."""
    benchmark(
        lambda: find_proxies_for_pair(system512, 0, system512.nnodes - 1)
    )
    _record("proxy_search", benchmark)


def test_flowsim_small_exact(benchmark):
    """Exact-mode simulation of a 100-flow single-bottleneck scenario."""
    flows = [
        Flow(fid=i, size=float(1 + i), path=(0,)) for i in range(100)
    ]
    sim = FlowSim(uniform_capacities(MIRA_PARAMS.link_bw), MIRA_PARAMS)
    benchmark(sim.run, flows)
    _record("flowsim_small_exact", benchmark)
