"""The service's supervisor core, tested as a state machine.

A Hypothesis ``RuleBasedStateMachine`` drives a
:class:`~repro.service.core.SupervisorCore` through random interleavings
of submits (blocking or not, with or without a deadline, static or
adaptive admission), worker results (completed, failed in the plan or
simulate stage, cancelled on a deadline), crashes, hangs, start-up
deaths, breaker trips and recoveries, and close with or without drain —
on a fake clock, with no process.  After every step it checks the
policy's conservation rules.  The bugs earlier versions shipped are
pinned as explicit cases below it.

``--hypothesis-profile=ci-deep`` (registered in ``conftest.py``) searches
many more and longer interleavings than tier-1's default budget.
"""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st, target
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.service.adaptive
import repro.service.breaker
import repro.service.core
import repro.service.degrade
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.service.breaker import (
    CLOSED,
    FAILURE_THRESHOLD,
    HALF_OPEN,
    OPEN,
    RECOVERY_S,
)
from repro.service.core import _STARTUP_BACKOFF_S, _STARTUP_RESPAWNS
from repro.service.errors import CircuitOpenError, QueueFullError, ServiceError
from repro.service.request import COMPLETED, FAILED, ScenarioRequest
from repro.util.validation import ConfigError
from tests.service_harness import FakeShell, reply


@pytest.mark.parametrize(
    "module",
    [repro.service.core, repro.service.breaker, repro.service.adaptive,
     repro.service.degrade],
    ids=lambda m: m.__name__,
)
def test_policy_modules_import_no_process_thread_socket_or_clock(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & {"multiprocessing", "threading", "socket", "time"}


class SupervisorMachine(RuleBasedStateMachine):
    """Random event interleavings against the core, through a fake shell."""

    @initialize(
        ready=st.booleans(),
        workers=st.integers(1, 3),
        queue_cap=st.integers(1, 4),
        max_attempts=st.integers(1, 3),
        hang_timeout_s=st.sampled_from([None, 0.5, 3.0]),
        default_deadline_s=st.sampled_from([None, 0.4, 2.0]),
        admission=st.sampled_from(["static", "adaptive"]),
    )
    def setup(self, ready, **config):
        self.registry = use_registry(MetricsRegistry())
        self.registry.__enter__()
        self.shell = FakeShell(ready=ready, kill_grace_s=0.1, **config)
        self.core = self.shell.core
        self.waiting: "list[ScenarioRequest]" = []  # blocked submitters
        self.closed: "bool | None" = None  # the drain flag, once closed
        self.n = 0
        # The search is steered toward the two rare situations where a
        # probe slot can go wrong: a request finishing while another
        # holds a probe slot, and a blocked submitter asking again while
        # the simulator breaker is open.
        self.rare = {"finish beside a probe": 0, "retry while open": 0}

    def teardown(self):
        if not hasattr(self, "core"):
            return
        for label, count in self.rare.items():
            target(float(count), label=label)
        try:
            if self.closed is not False:
                self.drain()
        finally:
            self.registry.__exit__(None, None, None)

    def drain(self):
        """A drained close finishes every admitted request."""
        if self.closed is None:
            self.closed = True
            self.shell.apply(self.core.close(self.shell.now, drain=True))
        for _ in range(10_000):
            if not self.core.pending and not self.core.inflight():
                break
            if self.shell.running:
                self.shell.on_reply(min(self.shell.running))
            elif "starting" in self.shell.procs:
                self.shell.on_ready(self.shell.procs.index("starting"))
            else:
                self.shell.now = max(self.shell.now, self.core.next_wake() or 0.0)
            self.shell.tick()
        assert set(self.shell.results) == set(self.core.tracked)

    def _slots(self, *states):
        return [i for i, p in enumerate(self.shell.procs) if p in states]

    # -- callers -------------------------------------------------------------

    def _submit(self, req, *, block, waited):
        now = self.shell.now
        sim_open = self.core.simulator_breaker.state(now) == OPEN
        self.rare["retry while open"] += waited and sim_open
        try:
            actions = self.core.submit(
                req, now, block=block, timeout=1.0, waited=waited
            )
        except (ServiceError, ConfigError):
            return
        if actions is None:
            assert block
            self.waiting.append(req)
            return
        assert not sim_open, "admitted while the simulator breaker is open"
        self.shell.apply(actions)

    @rule(
        kind=st.sampled_from(["spin", "p2p", "io"]),
        deadline_s=st.sampled_from([None, None, 0.3, 1.5]),
        block=st.booleans(),
        duplicate=st.sampled_from([False] * 4 + [True]),
    )
    def submit(self, kind, deadline_s, block, duplicate):
        if not (duplicate and self.n):
            self.n += 1
        req = ScenarioRequest(id=f"r{self.n}", kind=kind, deadline_s=deadline_s)
        self._submit(req, block=block, waited=False)

    def wake_blocked(self):
        """The shell notifies blocked submitters after every pass, and
        each asks again."""
        waiting, self.waiting = self.waiting, []
        for req in waiting:
            self._submit(req, block=True, waited=True)

    @precondition(lambda self: self.waiting)
    @rule(data=st.data())
    def blocked_submit_times_out(self, data):
        i = data.draw(st.integers(0, len(self.waiting) - 1))
        self._submit(self.waiting.pop(i), block=False, waited=True)

    @precondition(lambda self: self.closed is None and self.n >= 8)
    @rule(drain=st.booleans())
    def close(self, drain):
        self.closed = drain
        self.shell.apply(self.core.close(self.shell.now, drain=drain))

    # -- workers -------------------------------------------------------------

    @precondition(lambda self: "starting" in self.shell.procs)
    @rule(
        data=st.data(),
        deaths=st.sampled_from([0] * 8 + [1, 2, _STARTUP_RESPAWNS + 1]),
    )
    def worker_starts(self, data, deaths):
        """The worker reports ready, or dies starting up ``deaths``
        times running, each respawn falling due in between."""
        slot = data.draw(st.sampled_from(self._slots("starting")))
        if not deaths:
            self.shell.on_ready(slot)
        for _ in range(deaths):
            if self.shell.procs[slot] != "starting":
                break
            self.shell.on_death(slot)
            due = self.core.slots[slot].respawn_at
            if due is None or due == math.inf:
                break
            self.shell.now = max(self.shell.now, due)
            self._pass()

    @precondition(lambda self: "ready" in self.shell.procs)
    @rule(data=st.data())
    def worker_crashes(self, data):
        self.shell.on_death(data.draw(st.sampled_from(self._slots("ready"))))
        self.wake_blocked()

    @precondition(lambda self: self.shell.running)
    @rule(
        data=st.data(),
        outcome=st.sampled_from(
            ["completed", "completed", "plan", "simulate", "simulate", "deadline"]
        ),
        dt=st.sampled_from([0.0, 0.01, 0.2]),
    )
    def worker_replies(self, data, outcome, dt):
        slot = data.draw(st.sampled_from(sorted(self.shell.running)))
        msg = self.shell.running[slot]
        others = [
            t for rid, t in self.core.tracked.items()
            if rid not in self.shell.results and rid != msg["req"]["id"]
        ]
        self.rare["finish beside a probe"] += any(t.probes for t in others)
        self.shell.now += dt
        self.shell.on_reply(slot, outcome)
        self.wake_blocked()

    @precondition(lambda self: "ready" in self.shell.procs)
    @rule(data=st.data())
    def stale_reply(self, data):
        slot = data.draw(st.sampled_from(self._slots("ready")))
        ghost = {"req": {"id": "ghost", "kind": "spin"}, "degraded": False, "tier": 0}
        busy = dict(self.shell.running)
        self.shell.apply(
            self.core.worker_result(slot, reply(slot, ghost, "completed"), self.shell.now)
        )
        assert self.shell.running == busy

    @rule(breaker=st.sampled_from(["planner", "simulator"]), recovers=st.booleans())
    def stage_fails_elsewhere(self, breaker, recovers):
        """Traffic this model does not track fails in one stage until the
        breaker trips, and the breaker may then sit out its recovery."""
        for _ in range(FAILURE_THRESHOLD):
            getattr(self.core, f"{breaker}_breaker").record_failure(self.shell.now)
        if recovers:
            self.shell.now += RECOVERY_S
            self._pass()

    # -- time ----------------------------------------------------------------

    def _pass(self):
        self.shell.tick()
        wake = self.core.next_wake()
        assert wake is None or wake > self.shell.now, "a duty is due right after a pass"
        self.wake_blocked()

    @rule(dt=st.sampled_from(["next duty", 0.0, 0.005, 0.05, 0.3, RECOVERY_S, 2.5]))
    def time_passes(self, dt):
        """The supervisor wakes ``dt`` later, or at the core's next duty."""
        if dt == "next duty":
            dt = max(0.0, (self.core.next_wake() or self.shell.now) - self.shell.now)
        self.shell.now += dt
        self._pass()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def every_request_is_in_exactly_one_place(self):
        if not hasattr(self, "core"):
            return
        pending = [t.req.id for t in self.core.pending]
        busy = [s.busy.req.id for s in self.core.slots if s.busy is not None]
        live = pending + busy
        assert len(set(live)) == len(live)
        assert set(live).isdisjoint(self.shell.results)
        assert set(live) | set(self.shell.results) == set(self.core.tracked)
        assert {i for i, s in enumerate(self.core.slots) if s.busy} == set(self.shell.running)

    @invariant()
    def admissions_stay_under_the_bound(self):
        if not hasattr(self, "core"):
            return
        cfg = self.core.config
        assert len(self.core.pending) + self.core.inflight() <= cfg.queue_cap + cfg.workers

    @invariant()
    def probe_slots_are_held_by_live_requests(self):
        if not hasattr(self, "core"):
            return
        live = [t for rid, t in self.core.tracked.items() if rid not in self.shell.results]
        for breaker in (self.core.planner_breaker, self.core.simulator_breaker):
            held = sum(breaker in t.probes for t in live)
            assert breaker.probes_inflight == held <= 1, breaker.name

    @invariant()
    def given_up_slots_fail_the_queue(self):
        if not hasattr(self, "core"):
            return
        if all(s.respawn_at == math.inf for s in self.core.slots):
            assert not self.core.pending


TestSupervisorMachine = SupervisorMachine.TestCase
TestSupervisorMachine.settings = settings(deadline=None)


# -- pinned cases -------------------------------------------------------------


def trip(shell, breaker_name):
    """Trip a breaker the way workers do: consecutive stage failures."""
    stage = {"planner": "plan", "simulator": "simulate"}[breaker_name]
    kind = "p2p" if stage == "plan" else "io"
    for i in range(FAILURE_THRESHOLD):
        shell.submit(f"trip-{breaker_name}-{i}", kind)
        shell.reply(shell.slot_of(f"trip-{breaker_name}-{i}"), stage)


class TestProbeSlotsBelongToTheirHolders:
    """A request gives back only the probe slots it took.  Earlier, every
    request that ended without a breaker's verdict returned a slot of
    that breaker, so a non-probe request killed by the watchdog freed
    the slot of the probe then in flight."""

    def test_simulator_probe_slot_survives_a_non_probe_kill(self):
        shell = FakeShell(workers=2, kill_grace_s=0.1)
        sim = shell.core.simulator_breaker
        shell.submit("B", deadline_s=1.5)  # admitted while closed; hangs
        trip(shell, "simulator")
        assert sim.state(shell.now) == OPEN
        shell.tick(RECOVERY_S)
        shell.submit("A")  # the only probe
        with pytest.raises(CircuitOpenError):
            shell.submit("C")
        shell.tick(0.7)  # the watchdog kills B at its deadline + grace
        assert shell.results["B"].error.startswith("deadline:")
        with pytest.raises(CircuitOpenError):
            shell.submit("D")  # A is still the probe
        assert sim.probes_inflight == 1
        shell.reply(shell.slot_of("A"))
        assert sim.probes_inflight == 0 and sim.state(shell.now) == CLOSED

    def test_planner_probe_slot_survives_a_non_probe_kill(self):
        shell = FakeShell(workers=3, kill_grace_s=0.1)
        planner = shell.core.planner_breaker
        shell.submit("B", "p2p", deadline_s=1.5)  # planned while closed; hangs
        trip(shell, "planner")
        assert planner.state(shell.now) == OPEN
        shell.tick(RECOVERY_S)
        shell.submit("A", "p2p")  # the only probe runs the real planner
        assert not shell.running[shell.slot_of("A")]["degraded"]
        shell.submit("C", "p2p")
        assert shell.running[shell.slot_of("C")]["degraded"]
        shell.reply(shell.slot_of("C"))
        shell.tick(0.7)  # the watchdog kills B
        assert shell.results["B"].error.startswith("deadline:")
        shell.submit("D", "p2p")
        assert shell.running[shell.slot_of("D")]["degraded"]  # A is still the probe
        assert planner.probes_inflight == 1
        shell.reply(shell.slot_of("A"))
        assert planner.probes_inflight == 0 and planner.state(shell.now) == CLOSED


class TestAdmissionRegressions:
    def test_refused_submit_keeps_no_probe_slot(self):
        # A submit refused after the half-open breaker granted its probe
        # slot kept the slot, and every later submit was circuit-open.
        shell = FakeShell(workers=1, queue_cap=1)
        sim = shell.core.simulator_breaker
        shell.submit("run")
        shell.submit("queued")  # the queue is full
        for _ in range(FAILURE_THRESHOLD):
            sim.record_failure(shell.now)
        shell.tick(RECOVERY_S)
        assert sim.state(shell.now) == HALF_OPEN
        with pytest.raises(ConfigError, match="duplicate"):
            shell.submit("queued")
        with pytest.raises(QueueFullError):
            shell.submit("full")
        assert sim.probes_inflight == 0
        shell.reply(0, "deadline")  # no verdict; "queued" runs, room frees
        assert shell.submit("probe") == "probe"
        assert sim.probes_inflight == 1

    def test_blocked_submitter_is_refused_once_the_breaker_opens(self):
        # The breaker was asked before a blocking wait, so a submitter
        # that waited while it opened was admitted anyway.
        shell = FakeShell(workers=1, queue_cap=1)
        shell.submit("run")
        shell.submit("queued")
        late = ScenarioRequest(id="late", kind="spin")
        assert shell.core.submit(late, shell.now, block=True) is None
        for _ in range(FAILURE_THRESHOLD):
            shell.core.simulator_breaker.record_failure(shell.now)
        shell.reply(0, "deadline")  # room in the queue; the breaker stays open
        with pytest.raises(CircuitOpenError):
            shell.core.submit(late, shell.now, block=True, waited=True)
        assert "late" not in shell.core.tracked


class TestStartupBackoff:
    def test_start_up_deaths_back_off_then_give_the_slot_up(self):
        # A worker that died at start-up was respawned at once, forever.
        shell = FakeShell(workers=1, ready=False)
        shell.submit("stranded")
        for k in range(_STARTUP_RESPAWNS):
            shell.on_death(0)
            due = shell.core.next_wake()
            assert due == pytest.approx(shell.now + _STARTUP_BACKOFF_S * 2**k)
            shell.now = due
            shell.tick()
            assert shell.procs[0] == "starting"
        shell.on_death(0)  # one death too many: the slot is given up
        assert shell.core.next_wake() is None
        res = shell.results["stranded"]
        assert res.status == FAILED and res.error.startswith("worker-startup:")
        assert shell.startup_respawns == [_STARTUP_RESPAWNS]
        assert shell.submit("later") == "later"  # admitted, then failed at once
        assert shell.results["later"].error.startswith("worker-startup:")

    def test_ready_resets_the_backoff(self):
        shell = FakeShell(workers=1, ready=False)
        for _ in range(_STARTUP_RESPAWNS):
            shell.on_death(0)
            shell.now = shell.core.next_wake()
            shell.tick()
        shell.ready(0)
        shell.on_death(0)  # a crash after ready respawns at once
        assert shell.procs[0] == "starting"
        shell.on_death(0)
        assert shell.core.next_wake() == pytest.approx(shell.now + _STARTUP_BACKOFF_S)


class TestIdleCore:
    @pytest.mark.parametrize("admission", ["static", "adaptive"])
    def test_an_idle_core_has_no_timed_duty(self, admission):
        shell = FakeShell(workers=2, admission=admission)
        shell.submit("one")
        shell.reply(0, dt=0.01)
        for _ in range(200):  # the ladder's pressure decays to ~0
            if shell.core.next_wake() is None:
                break
            shell.now = shell.core.next_wake()
            shell.tick()
        assert shell.core.next_wake() is None
        assert shell.results["one"].status == COMPLETED
