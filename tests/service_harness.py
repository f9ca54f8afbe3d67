"""A fake shell for the service's supervisor core.

:class:`FakeShell` carries out a :class:`~repro.service.core.SupervisorCore`'s
actions the way :class:`~repro.service.service.ScenarioService` does, but
against fake workers and a fake clock: no process, pipe or thread.  Each
action is checked against the state of the worker it names, so a test
that drives the core through this shell also checks that the core never
dispatches to a dead, unready or busy worker, kills a worker that runs
nothing, or spawns over a live one.
"""

from repro.service.core import (
    _PLANNED_KINDS,
    _STARTUP_RESPAWNS,
    Dispatch,
    Finish,
    Kill,
    ServiceConfig,
    Spawn,
    SupervisorCore,
)
from repro.service.request import ScenarioRequest


class FakeShell:
    """A core, its fake workers and clock.

    ``procs[slot]`` is ``"starting"``, ``"ready"`` or ``"dead"``;
    ``running[slot]`` is the dispatch message a worker is running;
    ``results`` maps request ids to their results, in finish order.
    With ``ready=True`` every first worker reports ready at once.
    """

    def __init__(self, *, ready: bool = True, **config):
        self.core = SupervisorCore(ServiceConfig(**config))
        n = len(self.core.slots)
        self.now = 0.0
        self.procs = ["starting"] * n
        self.running: "dict[int, dict]" = {}
        self.results: dict = {}
        self.killed: "list[int]" = []
        self.startup_respawns = [0] * n  # consecutive, per slot
        self._died_starting = [False] * n
        if ready:
            for slot in range(n):
                self.ready(slot)

    def apply(self, actions: list) -> list:
        """Carry out ``actions`` in order, checking each."""
        for a in actions:
            if isinstance(a, Finish):
                rid = a.result.id
                assert rid in self.core.tracked, f"{rid} finished but never admitted"
                assert rid not in self.results, f"{rid} finished twice"
                assert self.core.results[rid] is a.result
                self.results[rid] = a.result
            elif isinstance(a, Dispatch):
                assert self.procs[a.slot] == "ready", f"dispatch to a {self.procs[a.slot]} worker"
                assert a.slot not in self.running, "dispatch to a busy worker"
                self.running[a.slot] = a.msg
            elif isinstance(a, Kill):
                assert a.slot in self.running, "kill of a worker that runs nothing"
                del self.running[a.slot]
                self.procs[a.slot] = "dead"
                self.killed.append(a.slot)
            elif isinstance(a, Spawn):
                assert self.procs[a.slot] == "dead", "spawn over a live worker"
                if self._died_starting[a.slot]:
                    self.startup_respawns[a.slot] += 1
                    assert self.startup_respawns[a.slot] <= _STARTUP_RESPAWNS
                self._died_starting[a.slot] = False
                self.procs[a.slot] = "starting"
            else:  # pragma: no cover - the core returned something unknown
                raise AssertionError(f"unknown action {a!r}")
        return actions

    # -- raw events (no supervisor pass) -------------------------------------

    def on_ready(self, slot: int) -> list:
        assert self.procs[slot] == "starting"
        self.procs[slot] = "ready"
        self.startup_respawns[slot] = 0
        return self.apply(self.core.worker_ready(slot, self.now))

    def on_death(self, slot: int) -> list:
        assert self.procs[slot] != "dead"
        self._died_starting[slot] = self.procs[slot] == "starting"
        self.procs[slot] = "dead"
        self.running.pop(slot, None)
        return self.apply(self.core.worker_died(slot, self.now))

    def on_reply(self, slot: int, outcome: str = "completed") -> list:
        """The worker in ``slot`` answers: ``completed``, or a failure in
        the ``plan`` or ``simulate`` stage, or a cooperative ``deadline``."""
        msg = self.running.pop(slot)
        return self.apply(self.core.worker_result(slot, reply(slot, msg, outcome), self.now))

    # -- events followed by a supervisor pass, as the shell runs them --------

    def tick(self, dt: float = 0.0) -> list:
        self.now += dt
        return self.apply(self.core.tick(self.now))

    def submit(self, rid: str, kind: str = "spin", params=None, *, block=False, **req):
        """Submit and run a pass; returns the id, or ``None`` when a
        blocking submit has to wait.  Refusals raise."""
        request = ScenarioRequest(id=rid, kind=kind, params=params or {}, **req)
        actions = self.core.submit(request, self.now, block=block)
        if actions is None:
            return None
        self.apply(actions)
        self.tick()
        return rid

    def ready(self, slot: int) -> None:
        self.on_ready(slot)
        self.tick()

    def reply(self, slot: int, outcome: str = "completed", dt: float = 0.0) -> None:
        self.now += dt
        self.on_reply(slot, outcome)
        self.tick()

    def run(self, slot: int) -> None:
        """Run the dispatch in ``slot`` in this process with the worker's
        own code, and feed its result back."""
        from repro.service.worker import _run_one

        msg = self.running.pop(slot)
        self.apply(self.core.worker_result(slot, _run_one(slot, msg), self.now))
        self.tick()

    def slot_of(self, rid: str) -> int:
        """The slot running ``rid``."""
        (slot,) = [s for s, m in self.running.items() if m["req"]["id"] == rid]
        return slot


def reply(slot: int, msg: dict, outcome: str) -> dict:
    """A worker's result message for dispatch ``msg``."""
    planned = msg["req"]["kind"] in _PLANNED_KINDS and not msg["degraded"]
    if outcome == "plan" and not planned:
        outcome = "simulate"
    stage_s = {"plan_s": 0.001} if planned and outcome != "plan" else {}
    out = {
        "id": msg["req"]["id"], "worker": slot, "status": "failed", "payload": None,
        "error": None, "stage_s": stage_s, "failed_stage": None,
        "degraded": msg["degraded"], "tier": msg["tier"],
    }
    if outcome == "completed":
        stage_s["simulate_s"] = 0.002
        out.update(status="completed", payload={"ok": True})
    elif outcome == "deadline":
        out.update(error="deadline: cancelled mid-run")
    else:
        out.update(error=f"{outcome}-error: injected", failed_stage=outcome)
    return out
