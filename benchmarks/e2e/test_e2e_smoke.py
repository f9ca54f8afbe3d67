"""Smoke test of the end-to-end benchmark at a tiny scale.

Tier-1's ``testpaths`` does not collect it; run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs for one second (one pass of each figure workload, one
campaign pass, a 40-request open loop and one closed-loop burst), once
timed and once traced, through the same command the benchmark uses.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    timed = _run(workload, 0)
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] > 0
    assert list(timed["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    traced = _run(workload, 1)
    assert traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    m = {name: v["value"] for name, v in traced["metrics"].items()}
    wall = m["trace.wall_s"]
    layers = sum(m[f"{layer}.share"] for layer in LAYERS) * wall
    assert m["unattributed_s"] >= 0
    assert layers + m["unattributed_s"] == pytest.approx(wall, rel=1e-9)
    if workload != "service":
        assert m["unattributed_s"] <= 0.15 * wall
