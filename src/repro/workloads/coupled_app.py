"""A coupled multiphysics application driver: time-to-solution.

The paper's introduction motivates multipath movement with coupled
codes: while two physics modules exchange boundary data, the rest of the
machine is idle, and the exchange sits on the critical path — "the
network resources is underutilized and this leads to an increase in the
time-to-solution".

:func:`simulate_coupled_run` models exactly that loop: every coupling
step computes for ``compute_seconds`` (all modules in parallel), then
module S ships ``exchange_bytes`` per node-pair to module T; the next
step starts when the exchange lands.  Comparing data-movement policies
under this driver turns per-transfer GB/s into the end metric users care
about: wall-clock per simulated step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.multipath import run_transfer
from repro.core.pipeline import run_pipelined_transfer
from repro.machine.system import BGQSystem
from repro.util.validation import ConfigError
from repro.workloads.coupling import CouplingLayout, pairwise_transfers


@dataclass(frozen=True)
class CoupledRunResult:
    """Outcome of one simulated coupled run.

    Attributes:
        policy: data-movement policy used for the exchanges.
        steps: coupling steps simulated.
        compute_seconds: per-step compute time (policy-independent).
        exchange_seconds: per-step exchange time (the policy's makespan).
        total_seconds: ``steps * (compute + exchange)``.
    """

    policy: str
    steps: int
    compute_seconds: float
    exchange_seconds: float

    @property
    def total_seconds(self) -> float:
        """End-to-end wall clock of the run."""
        return self.steps * (self.compute_seconds + self.exchange_seconds)

    @property
    def exchange_fraction(self) -> float:
        """Share of wall clock spent moving data."""
        step = self.compute_seconds + self.exchange_seconds
        return self.exchange_seconds / step if step > 0 else 0.0


def simulate_coupled_run(
    system: BGQSystem,
    layout: CouplingLayout,
    *,
    exchange_bytes: int,
    steps: int = 100,
    compute_seconds: float = 0.05,
    policy: str = "auto",
) -> CoupledRunResult:
    """Simulate ``steps`` coupling iterations under one movement policy.

    ``policy`` is ``"direct"``, ``"proxy"``, ``"auto"`` (Algorithm 1 with
    its size gate) or ``"pipeline"`` (the §VII extension).  The exchange
    pattern repeats every step, so one exchange is simulated and its
    makespan reused — the simulator is deterministic.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if compute_seconds < 0:
        raise ConfigError(f"compute_seconds must be >= 0, got {compute_seconds}")
    specs = pairwise_transfers(layout, exchange_bytes)
    if policy == "pipeline":
        outcome = run_pipelined_transfer(system, specs)
    elif policy in ("direct", "proxy", "auto"):
        outcome = run_transfer(system, specs, mode=policy)
    else:
        raise ConfigError(f"unknown policy {policy!r}")
    return CoupledRunResult(
        policy=policy,
        steps=steps,
        compute_seconds=compute_seconds,
        exchange_seconds=outcome.makespan,
    )
