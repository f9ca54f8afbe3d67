"""The four workloads of the end-to-end benchmark, one process per run.

``run.py`` starts this file once per measured run and once per extra
set-up sample, so no cache of the program (the simulator's structural LRU
caches, the planner memo, the routers' route caches) leaks from one run
into the next.  On standard output the process prints ``ready`` once its
inputs are built, then one JSON line with its measurements.

A workload's inputs depend only on its seed: ``seed % variants`` picks
one of the input sets whose outputs ``reference.json`` records, so every
seed's outputs are checked.  After a change that is meant to alter the
outputs, regenerate the reference with::

    python benchmarks/e2e/workloads.py --write-reference
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import multiprocessing
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracer import LAYERS, LayerTracer, patch_everywhere  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK_DIR = HERE / ".work"
MiB = 1 << 20
GB = 10**9

#: Per-layer metrics that are not tracer layers, with their value on a
#: workload that does not exercise them.
EXTRA_LAYER_METRICS = (
    "latency_p99_ms",
    "resilience.redriven_frac",
    "resilience.rounds_mean",
    "service.admit_share",
    "service.worker_share",
    "service.overhead_share",
    "loadgen.lag_share",
    "service.queue_depth_mean",
    "service.rejected_frac",
)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value that at least ``q``%
    of the values do not exceed.  The figure workloads' latencies come in
    clusters, and an interpolated percentile falling between two clusters
    would swing with the noise of both."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Workload:
    """One workload: set-up, repeated timed passes, output checks.

    ``run_pass`` is the timed unit of work; every pass performs the same
    operations in the same order.  ``check`` validates one pass's output
    against ``reference``, this variant's ``reference.json`` entry, and
    counts attempted and failed operations.  While ``recording`` (never during traced
    passes) each operation's latency is appended to ``current``, and each
    pass's list to ``pass_latencies``.
    """

    name = ""
    variants = 1
    #: Tracer layers a traced run of this workload must see called.
    expected_layers: "tuple[str, ...]" = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.variant = seed % self.variants
        self.reference: dict = {}
        self.pass_latencies: "list[list[float]]" = []
        self.current: "list[float]" = []
        self.recording = True
        self.t_pass = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.notes: "dict[str, str]" = {}
        self.extras = dict.fromkeys(EXTRA_LAYER_METRICS, 0.0)
        self._undo = None

    def setup(self) -> None:
        """Import the program and build the inputs."""

    def prelude(self, seconds: float) -> None:
        """Work measured before the passes (the service's open loop)."""

    def run_pass(self):
        raise NotImplementedError

    def check(self, output) -> None:
        raise NotImplementedError

    def fingerprint(self, output) -> dict:
        """The part of one pass's output that ``reference.json`` holds."""
        raise NotImplementedError

    def close(self) -> None:
        if self._undo is not None:
            self._undo()
            self._undo = None

    def _time_calls(self, target: str, *, from_pass_start: bool = False) -> None:
        """Record one operation latency per call to ``target``: the call's
        duration, or the time from the start of the pass to its return."""

        def wrap(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if self.recording:
                        start = self.t_pass if from_pass_start else t0
                        self.current.append(time.perf_counter() - start)

            return timed

        self._undo = patch_everywhere([(target, wrap)])

    def op_latencies(self) -> "list[float]":
        """Each operation's latency: its median over the recorded passes."""
        return [statistics.median(op) for op in zip(*self.pass_latencies)]


# ------------------------------------------------------------ paper figures


def _failed(conditions) -> "list[str]":
    return [label for label, ok in conditions if not ok]


def _fig5_shape(fig):
    direct, proxied = fig.get("direct"), fig.series[1]
    return _failed([
        ("direct peak > 1.55 GB/s", direct.y[-1] > 1.55 * GB),
        ("proxied peak > 3.0 GB/s", proxied.y[-1] > 3.0 * GB),
        ("crossover at 256 KiB", fig.notes["crossover"] == 256 * 1024),
    ])


def _fig6_shape(fig):
    direct, proxied = fig.get("direct"), fig.series[1]
    k = int(proxied.name.split(":")[1])
    return _failed([
        ("k >= 3 proxy groups", k >= 3),
        ("direct peak > 1.5 GB/s", direct.y[-1] > 1.5 * GB),
        ("proxied peak > 0.9 * k/2 * 1.6 GB/s", proxied.y[-1] > 0.9 * (k / 2) * 1.6 * GB),
        ("crossover at 512 KiB", fig.notes["crossover"] == 512 * 1024),
    ])


def _fig7_shape(fig):
    s = fig.notes["speedup_at_max"]
    return _failed([
        ("2 groups ~1.0x", abs(s["2 proxy groups"] - 1.0) <= 0.05),
        ("3 groups ~1.5x", abs(s["3 proxy groups"] - 1.5) <= 0.08 * 1.5),
        ("4 groups ~2.0x", abs(s["4 proxy groups"] - 2.0) <= 0.08 * 2.0),
        ("5th carrier degrades", s["5 proxy groups"] < s["4 proxy groups"]),
    ])


def _model_shape(fig):
    pairs = zip(fig.get("analytic").y, fig.get("simulated").y)
    return _failed([("analytic <= simulated <= 2 analytic", all(a <= s <= 2 * a for a, s in pairs))])


def _fig10_shape(fig):
    ours = fig.get("ours P1")
    return _failed([
        ("Pattern-1 gain > 1.4x everywhere", all(g > 1.4 for g in fig.notes["gain_P1"])),
        ("Pattern-2 gain > 1.3x everywhere", all(g > 1.3 for g in fig.notes["gain_P2"])),
        ("weak scaling: ours grows", ours.y[-1] > ours.y[0]),
    ])


def _fig11_shape(fig):
    gains = fig.notes["gain"]
    return _failed([
        ("gain > 1.1x everywhere", all(g > 1.1 for g in gains)),
        ("max gain > 1.3x", max(gains) > 1.3),
    ])


def _kib(nbytes) -> str:
    if nbytes is None or math.isnan(nbytes):
        return "none"
    return f"{int(nbytes) // 1024} KiB"


def _gains(values) -> str:
    return " ".join(f"{g:.2f}x" for g in values)


def _describe(fig) -> str:
    """The figure's paper-comparison note."""
    n = fig.notes
    if fig.figure in ("fig5", "fig6"):
        return f"crossover {_kib(n['crossover'])} (paper {_kib(n['paper_crossover'])})"
    if fig.figure == "fig7":
        speedups = ", ".join(f"{k} {v:.2f}x" for k, v in n["speedup_at_max"].items())
        return f"speedup at 128 MiB: {speedups} (paper 1.0x/1.5x/2.0x/drop)"
    if fig.figure == "model":
        pairs = zip(fig.get("analytic").x, fig.get("analytic").y, fig.get("simulated").y)
        return ", ".join(f"k={k}: analytic {_kib(a)} simulated {_kib(s)}" for k, a, s in pairs)
    if fig.figure == "fig10":
        return (
            f"gain P1 {_gains(n['gain_P1'])} (paper {n['paper_gain_P1']}); "
            f"gain P2 {_gains(n['gain_P2'])} (paper {n['paper_gain_P2']})"
        )
    return f"gain {_gains(n['gain'])} (paper {n['paper_gain']})"


SHAPES = {
    "fig5": _fig5_shape,
    "fig6": _fig6_shape,
    "fig7": _fig7_shape,
    "model": _model_shape,
    "fig10": _fig10_shape,
    "fig11": _fig11_shape,
}


def _close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


class PaperFigures(Workload):
    """Regenerate paper figures on their default grids; one operation is
    one simulated transfer or collective write (``operation``)."""

    operation = ""
    #: (figure id, function in repro.bench.figures, keyword arguments).
    figures: "tuple[tuple[str, str, dict], ...]" = ()

    def setup(self) -> None:
        from repro.bench import figures

        self.calls = [(fig_id, getattr(figures, fn), kw) for fig_id, fn, kw in self.figures]
        self._time_calls(self.operation)

    def run_pass(self):
        return [(fig_id, fn(**kw)) for fig_id, fn, kw in self.calls]

    def fingerprint(self, output) -> dict:
        out = {}
        for (fig_id, fn, _), (_, fig) in zip(self.calls, output):
            tols = [
                p.default for k, p in inspect.signature(fn).parameters.items()
                if k in ("batch_tol", "fair_tol")
            ]
            out[fig_id] = {
                "tol": max(tols, default=0.0) or 1e-9,
                "series": {s.name: {"x": list(s.x), "y": list(s.y)} for s in fig.series},
            }
        return out

    def check(self, output) -> None:
        for fig_id, fig in output:
            self.attempted += 1
            ref = self.reference[fig_id]
            got = {s.name: s for s in fig.series}
            bad = SHAPES[fig_id](fig)
            if sorted(got) != sorted(ref["series"]):
                bad.append(f"series {sorted(got)} != reference {sorted(ref['series'])}")
            else:
                for name, want in ref["series"].items():
                    s = got[name]
                    if list(s.x) != want["x"] or not all(
                        _close(a, b, ref["tol"]) for a, b in zip(s.y, want["y"])
                    ):
                        bad.append(f"series {name!r} off the reference by > {ref['tol']:g}")
            if bad:
                self.failed += 1
                self.problems.extend(f"{fig_id}: {b}" for b in bad)
            self.notes[fig_id] = _describe(fig)


class PaperProxy(PaperFigures):
    """Fig. 5-7 and the Eq. 1-5 threshold check: proxy search, routing
    and flow emission dominate.  Their paper geometries are fixed, so the
    seed does not change the inputs."""

    name = "paper-proxy"
    expected_layers = ("inputs", "routing", "plan.proxy", "build", "flowsim", "flowsim.waterfill")
    operation = "repro.core.multipath:run_transfer"
    figures = (
        ("fig5", "fig5_p2p_proxies", {}),
        ("fig6", "fig6_group_proxies", {}),
        ("fig7", "fig7_proxy_count", {}),
        ("model", "model_threshold_check", {}),
    )


class PaperIO(PaperFigures):
    """Fig. 10 and 11 on their default tolerances: the event loop and the
    waterfill kernel dominate.  Fig. 10 keeps its own pattern seed, so the
    seed does not change the inputs."""

    name = "paper-io"
    expected_layers = ("inputs", "routing", "plan.io", "build", "flowsim", "flowsim.waterfill")
    operation = "repro.core.iomove:run_io_movement"
    figures = (
        ("fig10", "fig10_aggregation_scaling", {"cores": (2048, 4096, 8192)}),
        ("fig11", "fig11_hacc_io", {"cores": (8192, 16384)}),
    )


# ----------------------------------------------------------------- campaign


def make_campaign(seed: int) -> dict:
    """A seeded ``campaign/1`` of 1,440 transfer scenarios.

    Every cell of p2p/group/fan-in x 64/128/256 nodes x 1..8 MiB appears
    20 times; in each cell two scenarios carry a fault trace (10%) and one
    silent-corruption injection (5%).  The seed draws only their fault
    and corruption seeds and the order, so every seed asks for about the
    same work.
    """
    rng = random.Random(seed)
    cells = []
    for kind in ("p2p", "group", "fanin"):
        for nnodes in (64, 128, 256):
            for mib in range(1, 9):
                for rep in range(20):
                    params = {"nnodes": nnodes, "nbytes": mib * MiB}
                    if rep < 2:
                        params["fault_seed"] = rng.randrange(2**31)
                    elif rep == 2:
                        params["sdc_seed"] = rng.randrange(2**31)
                    cells.append((kind, params))
    rng.shuffle(cells)
    scenarios = [
        {"id": f"c{seed}-{i:05d}", "kind": kind, "params": params}
        for i, (kind, params) in enumerate(cells)
    ]
    return {"campaign": "campaign/1", "name": f"bench-{seed}", "scenarios": scenarios}


class Campaign(Workload):
    """``repro batch`` on a seeded campaign through the batched engine;
    one operation is one scenario record, whose latency runs from the
    start of the batch until its journal record is durable."""

    name = "campaign"
    variants = 4
    expected_layers = (
        "inputs", "routing", "plan.proxy", "build", "batchsim", "batchsim.waterfill",
        "resilience.executor", "resilience.ledger", "checksum", "persist",
    )

    def setup(self) -> None:
        from repro.service.batch import run_batch

        self.run_batch = run_batch
        WORK_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="campaign-", dir=WORK_DIR))
        self.campaign_path = self.work / "campaign.json"
        self.out_path = self.work / "results.json"
        self.campaign_path.write_text(json.dumps(make_campaign(2014 + self.variant)))
        self._time_calls("repro.service.journal:Journal.append", from_pass_start=True)

    def run_pass(self):
        self.run_batch(self.campaign_path, self.out_path)

    def _results(self) -> "tuple[str, dict]":
        blob = self.out_path.read_bytes()
        return hashlib.sha256(blob).hexdigest(), json.loads(blob)

    def fingerprint(self, output) -> dict:
        sha, doc = self._results()
        return {"scenarios": len(doc["results"]), "results_sha256": sha}

    def check(self, output) -> None:
        sha, doc = self._results()
        want = self.reference["results_sha256"]
        n = len(doc["results"])
        self.attempted += n
        if sha != want:
            self.failed += n
            self.problems.append(f"results sha256 {sha[:16]}... != reference {want[:16]}...")
        else:
            self.failed += n - doc["counts"]["completed"]
        resilient = [
            r["payload"] for r in doc["results"]
            if r["payload"] is not None and r["payload"].get("faulted")
        ]
        if resilient:
            redriven = sum(p.get("corrupt_bytes_redriven", 0) for p in resilient)
            self.extras["resilience.redriven_frac"] = redriven / sum(
                p["total_bytes"] for p in resilient
            )
            self.extras["resilience.rounds_mean"] = statistics.fmean(
                p["rounds"] for p in resilient
            )

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.work, ignore_errors=True)


# ------------------------------------------------------------------ service


def _stratified_kinds(mix, n: int, rng) -> "list[str]":
    """``n`` kinds in exactly the mix's proportions, shuffled by ``rng``,
    so every seed offers the same work (``n`` a multiple of ``BLOCK``)."""
    block = [
        kind
        for kind, weight in zip(mix.kinds, mix.weights)
        for _ in range(round(weight * Service.BLOCK))
    ]
    kinds = block * (n // len(block))
    rng.shuffle(kinds)
    return kinds


class Service(Workload):
    """One live ``ScenarioService(workers=2, queue_cap=64)`` with static
    admission, driven from this one thread with the repo's ``mixed``
    traffic.  The prelude is an open loop of Poisson arrivals at
    ``RATE``; each pass is a closed-loop burst of ``BURST`` blocking
    submits, whose window is the queue.  The seed draws the open loop's
    arrivals and order; every burst has the same order, so the drain at
    its end does not vary with the seed."""

    name = "service"
    RATE = 50.0
    OPEN_SHARE = 0.6
    BLOCK = 20
    BURST = 100

    def setup(self) -> None:
        from repro.loadgen import get_mix
        from repro.obs.metrics import get_registry
        from repro.service import ScenarioRequest, ScenarioService, ServiceConfig

        self.Request = ScenarioRequest
        self.depth_gauge = get_registry().gauge("service.queue_depth")
        self.mix = get_mix("mixed")
        self.done_at: "dict[str, float]" = {}
        self.results: dict = {}
        self.svc = ScenarioService(
            ServiceConfig(workers=2, queue_cap=64), on_result=self._on_result
        )
        # Two concurrent requests of each kind land one on each worker,
        # so both have imported and built everything the mix needs.
        for kind in self.mix.kinds:
            ids = [self._submit(f"warm-{kind}-{w}", kind) for w in range(2)]
            for rid in ids:
                self.svc.result(rid, timeout=60)
        self.burst = _stratified_kinds(self.mix, self.BURST, random.Random(0))
        self.passes = 0

    def _on_result(self, result) -> None:
        self.done_at[result.id] = time.perf_counter()
        self.results[result.id] = result

    def _submit(self, rid: str, kind: str, *, block: bool = False) -> str:
        return self.svc.submit(
            self.Request(id=rid, kind=kind, params=dict(self.mix.params[kind])), block=block
        )

    def prelude(self, seconds: float) -> None:
        from repro.loadgen import ConstantProfile, arrival_times
        from repro.service.errors import ServiceError

        n = self.BLOCK * max(1, round(self.RATE * self.OPEN_SHARE * seconds / self.BLOCK))
        at = arrival_times(
            "poisson", ConstantProfile(rate=self.RATE, duration_s=2 * n / self.RATE),
            seed=self.seed,
        )[:n]
        kinds = _stratified_kinds(self.mix, n, random.Random(self.seed))
        lag, admit, depth, sent = [], [], [], []
        rejected = 0
        start = time.perf_counter()
        for i, (t, kind) in enumerate(zip(at, kinds)):
            due = start + float(t)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t_submit = time.perf_counter()
            depth.append(self.depth_gauge.value)
            rid = f"open-{i:05d}"
            try:
                self._submit(rid, kind)
                sent.append((rid, due))
            except ServiceError:
                rejected += 1
            admit.append(time.perf_counter() - t_submit)
            lag.append(t_submit - due)
        self.svc.wait_all(timeout=120)
        latency = [self.done_at[rid] - due for rid, due in sent]
        worker = [sum(self.results[rid].stage_s.values()) for rid, _ in sent]
        self.pass_latencies.append(latency)
        self.attempted += n
        self.failed += rejected
        self._check_ids([rid for rid, _ in sent])
        total = sum(latency)
        self.extras.update({
            "service.admit_share": sum(admit) / total,
            "service.worker_share": sum(worker) / total,
            "loadgen.lag_share": sum(lag) / total,
            "service.overhead_share": 1 - (sum(admit) + sum(worker) + sum(lag)) / total,
            "service.queue_depth_mean": statistics.fmean(depth),
            "service.rejected_frac": rejected / n,
        })
        self.notes["open-loop"] = (
            f"{n} requests at {self.RATE:g}/s, generator lag p99 "
            f"{_percentile(lag, 99) * 1e3:.2f} ms"
        )

    def run_pass(self):
        self.passes += 1
        ids = [
            self._submit(f"burst{self.passes:04d}-{i:04d}", kind, block=True)
            for i, kind in enumerate(self.burst)
        ]
        for rid in ids:
            self.svc.result(rid, timeout=120)
        return ids

    def _check_ids(self, ids) -> None:
        """Every request completed with its kind's reference checksum."""
        want = self.reference["kind_checksums"]
        got = sorted((rid, self.results[rid].checksum) for rid in ids)
        expected = sorted((rid, want[self.results[rid].kind]) for rid in ids)
        bad = sum(
            1 for (rid, c), (_, w) in zip(got, expected)
            if c != w or self.results[rid].status != "completed"
        )
        self.failed += bad
        if bad:
            digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
            wanted = hashlib.sha256(json.dumps(expected).encode()).hexdigest()
            self.problems.append(
                f"{bad} request(s) not completed with the reference checksum "
                f"(sha256 of sorted (id, checksum) {digest[:16]}... != {wanted[:16]}...)"
            )

    def check(self, output) -> None:
        self.attempted += len(output)
        self._check_ids(output)

    def fingerprint(self, output) -> dict:
        from repro.service.scenarios import execute_request
        from repro.util.checksum import payload_checksum

        return {
            "kind_checksums": {
                kind: payload_checksum(execute_request(kind, self.mix.params[kind])[0])
                for kind in self.mix.kinds
            }
        }

    def close(self) -> None:
        self.svc.close()
        alive = [p.name for p in multiprocessing.active_children()]
        if alive:
            self.problems.append(f"worker processes outlived the service: {alive}")
        super().close()


WORKLOADS = {w.name: w for w in (PaperProxy, PaperIO, Campaign, Service)}


# ------------------------------------------------------------------ harness


def measure(w: Workload, seconds: float, trace: bool) -> dict:
    """Run ``w``'s prelude and passes for about ``seconds``.

    A traced run alternates untraced and traced passes, so the tracing
    overhead is a ratio of interleaved repetitions; operation latencies
    come from the untraced passes only.
    """
    tracer = LayerTracer() if trace else None
    walls: "list[float]" = []
    traced: "list[float]" = []
    start = time.perf_counter()
    w.prelude(seconds)
    while True:
        tracing = tracer is not None and len(traced) < len(walls)
        w.recording = not tracing
        w.current = []
        if tracing:
            with tracer:
                w.t_pass = time.perf_counter()
                output = w.run_pass()
                traced.append(time.perf_counter() - w.t_pass)
        else:
            w.t_pass = time.perf_counter()
            output = w.run_pass()
            walls.append(time.perf_counter() - w.t_pass)
        if w.current:
            w.pass_latencies.append(w.current)
        w.check(output)
        tracing_next = tracer is not None and len(traced) < len(walls)
        if walls and (tracer is None or traced):
            estimate = statistics.median(traced if tracing_next else walls)
            if time.perf_counter() - start + estimate > seconds:
                break
    latencies = w.op_latencies()
    out = {
        "walls": walls,
        "traced_walls": traced,
        "operations": len(latencies),
        "metrics": {
            "wall_s": statistics.median(walls),
            "latency_p50_ms": _percentile(latencies, 50) * 1e3,
            "latency_p90_ms": _percentile(latencies, 90) * 1e3,
        },
    }
    if tracer is not None:
        w.extras["latency_p99_ms"] = _percentile(latencies, 99) * 1e3
        wall = statistics.fmean(traced)
        layers = {}
        for layer in LAYERS:
            layers[f"{layer}.calls"] = tracer.calls[layer] / len(traced)
            layers[f"{layer}.share"] = tracer.self_s[layer] / sum(traced)
        layers["trace.wall_s"] = wall
        layers["unattributed_s"] = wall - sum(tracer.self_s.values()) / len(traced)
        layers["trace_overhead_frac"] = statistics.median(traced) / statistics.median(walls) - 1
        out["layers"] = layers
        w.problems.extend(
            f"expected layer {layer!r} recorded no calls"
            for layer in w.expected_layers
            if tracer.calls[layer] == 0
        )
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process or any process it reaped [MiB]."""
    return max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def write_reference() -> None:
    """Record one pass's fingerprint per workload and variant."""
    doc = {}
    for name, cls in WORKLOADS.items():
        doc[name] = {}
        for variant in range(cls.variants):
            w = cls(variant)
            w.setup()
            try:
                w.recording = False
                doc[name][str(variant)] = w.fingerprint(w.run_pass())
            finally:
                w.close()
            print(f"{name} variant {variant}: recorded", file=sys.stderr)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2014)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    w = WORKLOADS[args.workload](args.seed)
    w.setup()
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        w.reference = json.loads(REFERENCE.read_text())[w.name][str(w.variant)]
        result = measure(w, args.seconds, bool(args.trace))
    finally:
        w.close()
    result["metrics"]["peak_rss_mb"] = peak_rss_mb()
    result.update(
        attempted=w.attempted,
        failed=w.failed,
        problems=w.problems,
        notes=w.notes,
        extras=w.extras,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
