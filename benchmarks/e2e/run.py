"""End-to-end benchmark of the reproduction: four workloads, one command.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME] [--seed 2014] [--seconds N]
                                 [--trace [0|1]] [--repeat-check]

Every run of a workload starts fresh processes (``workloads.py``): four
that only set up, for the set-up time, and one that sets up and then
measures for ``--seconds``.  The run prints every metric that
``BENCHMARK.json`` names, with its unit, checks the program's outputs
against ``reference.json`` and exits 1 when a check fails.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones from a separate traced run.  Without
``--workload`` every workload runs in turn.

``--repeat-check`` runs each workload in two interleaved sets of five
runs (seeds ``seed`` .. ``seed + 4``) and fails when the two medians of
any end-to-end metric differ by more than its bound.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
REPEAT_RUNS = 5


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def _group(pgid: int) -> "list[int]":
    """The live processes of process group ``pgid``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, pgrp = stat.read_text().rpartition(")")[2].split()[:3]
        except (OSError, ValueError):
            continue
        if int(pgrp) == pgid and state != "Z":
            pids.append(int(stat.parent.name))
    return pids


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def _stop_group(pgid: int) -> "list[int]":
    """Wait for the processes a workload process left behind (the
    service's workers, multiprocessing's resource tracker) to end; kill
    any still alive after five seconds and return their pids."""
    deadline = time.monotonic() + 5
    while (left := _group(pgid)) and time.monotonic() < deadline:
        time.sleep(0.05)
    if left:
        _kill_group(pgid)
        while _group(pgid) and time.monotonic() < deadline + 5:
            time.sleep(0.05)
    return left


def _child(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool):
    """Run one workload process in its own process group; returns (set-up
    seconds, result or None, pids that outlived it)."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    watchdog = threading.Timer(60 + 4 * seconds, _kill_group, (proc.pid,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        # Read up to the result line, not to end of file: a process the
        # workload leaked may hold the pipe open.
        line = ""
        while not setup_only and not line.startswith("{"):
            line = proc.stdout.readline()
            if not line:
                break
        rc = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            _kill_group(proc.pid)
            proc.wait()
        lingering = _stop_group(proc.pid)
    if ready.strip() != "ready" or rc != 0 or not (setup_only or line):
        raise BenchmarkError(f"{workload}: workload process exited with {rc}")
    result = None if setup_only else json.loads(line)
    return setup_s, result, lingering


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``workload``: its metrics and check verdict."""
    setups, lingering = [], []
    for i in range(SETUP_SAMPLES):
        setup_s, result, left = _child(
            workload, seed, seconds, trace, setup_only=i < SETUP_SAMPLES - 1
        )
        setups.append(setup_s)
        lingering += left
    if lingering:
        result["problems"].append(f"processes {lingering} outlived their workload process")
    if trace:
        values = {**result["layers"], **result["extras"]}
        spec = SPEC["per_layer"]
    else:
        values = {**result["metrics"], "setup_s": statistics.median(setups)}
        spec = SPEC["end_to_end"]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"{workload}: no value for {missing}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result["correct"] = result["failed"] == 0 and not result["problems"]
    return result


def report(workload: str, seed: int, result: dict) -> None:
    """Print one run's metrics, checks and paper-comparison notes."""
    walls = result["walls"]
    print(
        f"== {workload} (seed {seed}): {len(walls)} timed pass(es), "
        f"{len(result['traced_walls'])} traced, {result['operations']} latency samples"
    )
    metrics = result["metrics"]
    layers = [n[: -len(".calls")] for n in metrics if n.endswith(".calls")]
    for name, m in metrics.items():
        if name.rpartition(".")[0] not in layers:
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if layers:
        wall = metrics["trace.wall_s"]["value"]
        print(f"  {'layer':28s} {'calls/pass':>14s} {'self s/pass':>12s} {'share':>7s}")
        for name in layers:
            calls, share = metrics[f"{name}.calls"]["value"], metrics[f"{name}.share"]["value"]
            if calls:
                print(f"  {name:28s} {calls:14.1f} {share * wall:12.4f} {share:7.1%}")
    for key, note in result["notes"].items():
        print(f"  {key}: {note}")
    for problem in dict.fromkeys(result["problems"]):
        print(f"  CHECK FAILED: {problem}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"  {verdict}: {result['attempted']} operations attempted, {result['failed']} failed")


def repeat_check(workloads, seed: int, seconds: float) -> bool:
    """Two interleaved sets of runs must agree within each metric's bound."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from repro.loadgen.stats import bootstrap_ci

    ok = True
    for workload in workloads:
        sets: "tuple[dict, dict]" = ({}, {})
        for i in range(REPEAT_RUNS):
            for values in sets:
                result = run_workload(workload, seed + i, seconds, trace=False)
                ok &= result["correct"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {REPEAT_RUNS} + {REPEAT_RUNS} runs")
        for m in SPEC["end_to_end"]:
            a, b = (s[m["name"]] for s in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            diff = abs(mb - ma) / ma
            ci = [bootstrap_ci(v, lambda x: float(np.median(x)), seed=seed) for v in (a, b)]
            verdict = "ok" if diff <= m["bound"] else "FAILED"
            ok &= diff <= m["bound"]
            print(
                f"  {m['name']:16s} median {ma:.6g} [{ci[0][0]:.6g}, {ci[0][1]:.6g}] vs "
                f"{mb:.6g} [{ci[1][0]:.6g}, {ci[1][1]:.6g}] {m['unit']}: "
                f"{diff:.1%} apart, bound {m['bound']:.0%} {verdict}"
            )
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=2014)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--repeat-check", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else WORKLOAD_NAMES
    try:
        if args.repeat_check:
            return 0 if repeat_check(workloads, args.seed, args.seconds) else 1
        results = {}
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            report(workload, args.seed, results[workload])
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
