"""ScenarioService: admission, deadlines, watchdog, breakers, degraded mode.

Worker pools spawn real processes, so one process test stays per I/O
path and pools stay small.  A test whose claim is a policy claim drives
the supervisor core through a fake shell instead (no process), and runs
the worker's own code in this process where the claim needs a real
scenario result.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.obs.metrics import get_registry
from repro.service import core as core_module
from repro.service import service as service_module
from repro.service import (
    CLOSED,
    COMPLETED,
    FAILED,
    HALF_OPEN,
    OPEN,
    SHED,
    CircuitOpenError,
    QueueFullError,
    ScenarioRequest,
    ScenarioService,
    ServiceClosedError,
    ServiceConfig,
    UnknownRequestError,
    WorkerStartupError,
    payload_checksum,
)
from repro.service.breaker import FAILURE_THRESHOLD, RECOVERY_S
from repro.util.validation import ConfigError
from tests.service_harness import FakeShell

pytestmark = pytest.mark.timeout(180)


def spin(rid, duration_s=0.005, **kw):
    return ScenarioRequest(
        id=rid, kind="spin", params={"duration_s": duration_s}, **kw
    )


def warm(svc):
    """Run one request, so the pool's worker has reported ready: a
    request with a short deadline then starts at once instead of
    expiring in the queue while the worker boots."""
    svc.submit(spin("warm"))
    assert svc.result("warm", timeout=120).status == COMPLETED


class TestHappyPath:
    def test_mixed_requests_complete_with_checksums(self):
        cfg = ServiceConfig(workers=2, queue_cap=16)
        with ScenarioService(cfg) as svc:
            svc.submit(ScenarioRequest(id="p", kind="p2p", params={"nnodes": 32}))
            svc.submit(spin("s"))
            with pytest.raises(ConfigError, match="duplicate"):
                svc.submit(spin("s"))
            with pytest.raises(UnknownRequestError):
                svc.result("never-submitted")
            assert svc.wait_all(timeout=120)
            rp, rs = svc.result("p"), svc.result("s")
        assert rp.status == COMPLETED
        assert rp.payload["throughput_Bps"] > 0
        assert rp.checksum == payload_checksum(rp.payload)
        assert rs.status == COMPLETED and rs.payload["spun"] is True
        assert not rp.degraded

    def test_result_timeout_raises(self):
        with ScenarioService(ServiceConfig(workers=1)) as svc:
            svc.submit(spin("slow", duration_s=2.0))
            with pytest.raises(TimeoutError):
                svc.result("slow", timeout=0.01)
            assert svc.result("slow", timeout=120).status == COMPLETED

    def test_wait_all_returns_after_every_callback(self):
        # Regression: a request's done event was set before its
        # on_result callback ran, so wait_all() returned while a slow
        # callback (a journal fsync) was still running.
        called = []

        def slow_sink(res):
            time.sleep(0.05)
            called.append(res.id)

        with ScenarioService(ServiceConfig(workers=2), on_result=slow_sink) as svc:
            ids = [svc.submit(spin(f"cb{i}")) for i in range(10)]
            assert svc.wait_all(timeout=120)
            assert sorted(called) == sorted(ids)


class TestAdmission:
    def test_queue_full_sheds_fast_with_typed_retriable_error(self):
        shed0 = get_registry().counter("service.shed.queue_full").value
        shell = FakeShell(workers=1, queue_cap=2)
        admitted = []
        rejected = 0
        for i in range(20):
            try:
                admitted.append(shell.submit(f"q{i}"))
            except QueueFullError as exc:
                rejected += 1
                assert exc.retriable is True
                assert exc.code == "queue-full"
        # One request runs on the 1-wide pool, the queue holds two.
        assert admitted == ["q0", "q1", "q2"] and rejected == 17
        # Everything admitted still reaches a terminal state.
        while shell.running:
            shell.reply(0, dt=0.4)
        assert all(shell.results[rid].status == COMPLETED for rid in admitted)
        assert get_registry().counter("service.shed.queue_full").value - shed0 == rejected

    def test_blocking_submit_applies_backpressure(self):
        cfg = ServiceConfig(workers=1, queue_cap=1)
        with ScenarioService(cfg) as svc:
            t0 = time.monotonic()
            for i in range(4):
                svc.submit(spin(f"b{i}", duration_s=0.2), block=True)
            # 4 requests through a cap-1 queue must have waited.
            assert time.monotonic() - t0 > 0.2
            with pytest.raises(QueueFullError):
                # Queue refilled instantly; a tiny timeout must give up.
                svc.submit(spin("b-late", duration_s=0.2), block=True, timeout=0.01)
            assert svc.wait_all(timeout=120)

    def test_closed_service_rejects(self):
        svc = ScenarioService(ServiceConfig(workers=1))
        svc.submit(spin("c0"))
        svc.close(drain=True, timeout=120)
        with pytest.raises(ServiceClosedError):
            svc.submit(spin("c1"))
        assert svc.result("c0").status == COMPLETED


class TestDeadlines:
    def test_deadline_expired_in_queue_is_shed(self):
        shell = FakeShell(workers=1, queue_cap=8)
        shell.submit("hog")  # occupies the only worker for 1 s
        shell.submit("doomed", deadline_s=0.2)
        shell.reply(0, dt=1.0)
        res = shell.results["doomed"]
        assert res.status == SHED
        assert res.error.startswith("deadline:")
        assert shell.results["hog"].status == COMPLETED
        assert not shell.running  # the worker was never handed "doomed"

    def test_cooperative_mid_run_deadline(self):
        cfg = ServiceConfig(workers=1, kill_grace_s=5.0)
        with ScenarioService(cfg) as svc:
            warm(svc)
            svc.submit(spin("late", duration_s=10.0, deadline_s=0.3))
            res = svc.result("late", timeout=120)
        # kill_grace is generous, so this must be the *cooperative* path:
        # the worker itself noticed the deadline inside the spin loop.
        assert res.status == FAILED
        assert res.error.startswith("deadline:")
        assert "watchdog" not in res.error

    def test_hang_is_hard_killed_by_watchdog(self):
        cfg = ServiceConfig(workers=1, kill_grace_s=0.1)
        restarts0 = get_registry().counter("service.worker_restarts").value
        with ScenarioService(cfg) as svc:
            warm(svc)
            svc.submit(spin("stuck", deadline_s=0.3, inject="hang"))
            res = svc.result("stuck", timeout=5)
            # The replacement worker still serves new requests.
            svc.submit(spin("after"))
            assert svc.result("after", timeout=120).status == COMPLETED
        assert res.status == FAILED and "watchdog" in res.error
        assert get_registry().counter("service.worker_restarts").value > restarts0

    def test_hang_without_deadline_hits_hang_timeout(self):
        shell = FakeShell(workers=1, hang_timeout_s=0.3)
        shell.submit("zombie", inject="hang")
        assert shell.core.next_wake() == pytest.approx(0.3)
        shell.tick(0.3)
        res = shell.results["zombie"]
        assert res.status == FAILED and res.error.startswith("hang:")
        assert shell.killed == [0] and shell.procs == ["starting"]  # respawned


def _cpu_s() -> float:
    """CPU seconds this process (all its threads, no children) has used."""
    resource = pytest.importorskip("resource")
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class TestIdleSupervisor:
    @pytest.mark.parametrize("admission", ["static", "adaptive"])
    def test_idle_service_burns_no_cpu(self, admission):
        with ScenarioService(ServiceConfig(workers=1, admission=admission)) as svc:
            svc.submit(spin("warm"))
            assert svc.result("warm", timeout=120).status == COMPLETED
            # Adaptive mode samples the ladder until the request's
            # pressure has decayed (~0.3 s); static mode never wakes.
            time.sleep(0.5)
            t0, cpu0 = time.monotonic(), _cpu_s()
            time.sleep(2.0)
            busy = (_cpu_s() - cpu0) / (time.monotonic() - t0)
        assert busy < 0.01, f"an idle service used {busy:.1%} of a core"

    def test_close_of_idle_service_is_prompt(self):
        svc = ScenarioService(ServiceConfig(workers=1))
        svc.submit(spin("warm"))
        assert svc.result("warm", timeout=120).status == COMPLETED
        t0 = time.monotonic()
        svc.close()
        # The wake pipe, not the supervisor join's 10 s timeout.
        assert time.monotonic() - t0 < 1.0


class TestCrashes:
    def test_crash_is_retried_then_quarantined_as_poison(self):
        cfg = ServiceConfig(workers=1, max_attempts=2)
        poisoned0 = get_registry().counter("service.poison_quarantined").value
        with ScenarioService(cfg) as svc:
            svc.submit(spin("boom", inject="crash"))
            res = svc.result("boom", timeout=120)
            # The pool recovered: a normal request still completes.
            svc.submit(spin("healthy"))
            assert svc.result("healthy", timeout=120).status == COMPLETED
        assert res.status == FAILED
        assert res.error.startswith("poison:")
        assert res.attempts == 2
        assert get_registry().counter("service.poison_quarantined").value > poisoned0


def _die_before_ready(worker_id, requests, results):
    """A worker target that exits during start-up, before ``ready``."""
    os._exit(3)


class TestStartupDeaths:
    def test_start_up_deaths_back_off_then_fail_the_queue(self, monkeypatch):
        # Regression: a worker that died at start-up was respawned at
        # once, forever — the restart counter climbed without bound, and
        # the queued request was blamed for the deaths as poison.
        monkeypatch.setattr(service_module, "worker_main", _die_before_ready)
        restarts0 = get_registry().counter("service.worker_restarts").value
        svc = ScenarioService(ServiceConfig(workers=1))
        try:
            t0 = time.monotonic()
            svc.submit(spin("stranded"))
            res = svc.result("stranded", timeout=30)
            elapsed = time.monotonic() - t0
            time.sleep(0.5)  # a given-up slot stays down
            restarts = get_registry().counter("service.worker_restarts").value
        finally:
            svc.close(drain=False)
        assert res.status == FAILED
        assert res.error.startswith(f"{WorkerStartupError.code}:")
        assert WorkerStartupError.retriable is False
        assert restarts - restarts0 == core_module._STARTUP_RESPAWNS
        backoff = sum(
            core_module._STARTUP_BACKOFF_S * 2**k
            for k in range(core_module._STARTUP_RESPAWNS)
        )
        assert elapsed >= backoff


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestOrphanedWorker:
    # The parent: spawns one worker, proves it is serving with one real
    # request, hands it an injected hang, then waits to be SIGKILLed.
    PARENT = textwrap.dedent("""
        import multiprocessing, time
        from repro.service.worker import worker_main
        ctx = multiprocessing.get_context("spawn")
        req_r, req_w = ctx.Pipe(duplex=False)
        res_r, res_w = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=worker_main, args=(0, req_r, res_w))
        proc.start()
        req_w.send({"req": {"id": "warm", "kind": "spin", "params": {}}})
        assert res_r.poll(60) and "ready" in res_r.recv()
        assert res_r.poll(60)
        res_r.recv()
        req_w.send({"req": {"id": "stuck", "kind": "spin", "inject": "hang"}})
        print(proc.pid, flush=True)
        time.sleep(600)
    """)

    def test_worker_exits_when_parent_is_sigkilled_mid_hang(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        log = tmp_path / "parent.err"  # the resource tracker writes here too
        with open(log, "w") as err:
            parent = subprocess.Popen(
                [sys.executable, "-c", self.PARENT], env=env,
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        worker = None
        try:
            line = parent.stdout.readline()
            assert line.strip(), log.read_text()
            worker = int(line)
            time.sleep(0.5)  # the idle worker takes the hang at once
            assert _alive(worker)
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while _alive(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(worker), "orphaned worker still running"
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=30)
            parent.stdout.close()
            if worker is not None and _alive(worker):
                os.kill(worker, signal.SIGKILL)


class TestBreakersAndDegradedMode:
    """Breaker policy through the core; the worker's own code runs each
    dispatch in this process, so plan- and simulate-stage failures and
    the degraded direct path are real."""

    def test_planner_failures_trip_breaker_and_degrade(self):
        shell = FakeShell(workers=1)
        # max_proxies=0 fails deterministically inside the *plan* stage.
        for i in range(FAILURE_THRESHOLD):
            shell.submit(f"bad{i}", "p2p", {"nnodes": 32, "max_proxies": 0})
            shell.run(0)
            res = shell.results[f"bad{i}"]
            assert res.status == FAILED and "plan" in res.error
        assert shell.core.planner_breaker.state(shell.now) == OPEN
        # With the planner breaker open, transfers still complete —
        # degraded to the direct single-path fallback.
        shell.submit("deg", "p2p", {"nnodes": 32})
        assert shell.running[0]["degraded"] is True
        shell.run(0)
        res = shell.results["deg"]
        assert res.status == COMPLETED
        assert res.degraded is True
        assert res.payload["degraded"] is True
        assert set(res.payload["mode_used"].values()) == {"direct"}

    def test_simulator_failures_trip_breaker_and_shed_at_admission(self):
        shell = FakeShell(workers=1)
        # An io request's batch_tol=-1 fails deterministically inside
        # *simulate*.
        for i in range(FAILURE_THRESHOLD):
            shell.submit(f"sim{i}", "io", {"ncores": 512, "batch_tol": -1})
            shell.run(0)
            res = shell.results[f"sim{i}"]
            assert res.status == FAILED and "simulate" in res.error
        assert shell.core.simulator_breaker.state(shell.now) == OPEN
        with pytest.raises(CircuitOpenError) as exc:
            shell.submit("rejected")
        assert exc.value.retriable is True

    def test_breaker_recovers_through_half_open_probe(self):
        shell = FakeShell(workers=1)
        for i in range(FAILURE_THRESHOLD):
            shell.submit(f"bad{i}", "p2p", {"nnodes": 32})
            shell.reply(0, "plan")
        planner = shell.core.planner_breaker
        assert planner.state(shell.now) == OPEN
        shell.tick(RECOVERY_S)  # recovery elapses -> half-open probe allowed
        shell.submit("probe", "p2p", {"nnodes": 32})
        assert shell.running[0]["degraded"] is False  # the real planner
        shell.run(0)
        res = shell.results["probe"]
        assert res.status == COMPLETED
        assert res.degraded is False
        assert planner.state(shell.now) == CLOSED
        assert planner.probes_inflight == 0

    def test_rejected_submit_returns_half_open_probe_slot(self):
        # Regressions: a submitter blocked on a full queue was admitted
        # after the breaker had opened, because the breaker was checked
        # before the wait; and a submit turned away after ``allow()``
        # reserved the half-open breaker's only probe slot kept it, so
        # every later submit was shed as circuit-open.
        shell = FakeShell(workers=1, queue_cap=1)
        sim = shell.core.simulator_breaker
        shell.submit("hog")
        shell.submit("queued")  # the queue is full
        late = spin("late")
        assert shell.core.submit(late, shell.now, block=True) is None  # waits
        for _ in range(FAILURE_THRESHOLD):
            sim.record_failure(shell.now)
        shell.reply(0, "deadline")  # "hog" ends without a verdict: room
        with pytest.raises(CircuitOpenError):
            shell.core.submit(late, shell.now, block=True, waited=True)
        # Fill the queue behind "queued" while the breaker is closed,
        # then reopen it: at half-open the queue is full and the only
        # probe slot is free.
        sim.record_success()
        shell.submit("queued2")
        for _ in range(FAILURE_THRESHOLD):
            sim.record_failure(shell.now)
        shell.tick(RECOVERY_S)
        assert sim.state(shell.now) == HALF_OPEN
        with pytest.raises(ConfigError, match="duplicate"):
            shell.submit("queued2")
        with pytest.raises(QueueFullError):
            shell.submit("full")
        # Admitted once "queued" ends and "queued2" runs, while the
        # breaker is still half-open: the probe slot was free.
        shell.reply(0, "deadline")
        assert shell.submit("fresh") == "fresh"
        assert sim.probes_inflight == 1
        shell.reply(0)  # "queued2" completes: the breaker closes
        shell.reply(0)  # "fresh" completes and gives its slot back
        assert sim.state(shell.now) == CLOSED and sim.probes_inflight == 0
        assert shell.results["fresh"].status == COMPLETED


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"workers": 0},
            {"queue_cap": 0},
            {"max_attempts": 0},
            {"default_deadline_s": 0.0},
            {"kill_grace_s": -1.0},
        ],
    )
    def test_bad_service_config(self, kw):
        with pytest.raises(ConfigError):
            ServiceConfig(**kw)

    def test_bad_requests(self):
        with pytest.raises(ConfigError):
            ScenarioRequest(id="", kind="spin")
        with pytest.raises(ConfigError):
            ScenarioRequest(id="x", kind="warp")
        with pytest.raises(ConfigError):
            ScenarioRequest(id="x", kind="spin", deadline_s=-1)
        with pytest.raises(ConfigError):
            ScenarioRequest(id="x", kind="spin", inject="meteor")
        with pytest.raises(ConfigError, match="unknown request fields"):
            ScenarioRequest.from_dict({"id": "x", "kind": "spin", "nope": 1})
