"""ScenarioService: admission, deadlines, watchdog, breakers, degraded mode.

Worker pools spawn real processes, so tests share service instances
where possible and keep pools small.
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
from repro.service import service as service_module
from repro.service import (
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
from repro.util.validation import ConfigError

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


class TestAdmission:
    def test_queue_full_sheds_fast_with_typed_retriable_error(self):
        cfg = ServiceConfig(workers=1, queue_cap=2)
        with ScenarioService(cfg) as svc:
            # Saturate: the pool is 1-wide and each spin takes ~1s.
            admitted = []
            rejected = 0
            for i in range(20):
                try:
                    admitted.append(svc.submit(spin(f"q{i}", duration_s=0.4)))
                except QueueFullError as exc:
                    rejected += 1
                    assert exc.retriable is True
                    assert exc.code == "queue-full"
            assert rejected > 0, "bounded queue never shed"
            assert len(admitted) >= 2  # at least the queue's capacity
            # Everything admitted still reaches a terminal state.
            assert svc.wait_all(timeout=120)
            for rid in admitted:
                assert svc.result(rid).status == COMPLETED
        assert get_registry().counter("service.shed.queue_full").value >= rejected

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
        cfg = ServiceConfig(workers=1, queue_cap=8)
        with ScenarioService(cfg) as svc:
            svc.submit(spin("hog", duration_s=1.0))
            time.sleep(0.1)  # let the hog occupy the only worker
            svc.submit(spin("doomed", deadline_s=0.2))
            res = svc.result("doomed", timeout=120)
            assert res.status == SHED
            assert res.error.startswith("deadline:")
            assert svc.result("hog", timeout=120).status == COMPLETED

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
        cfg = ServiceConfig(workers=1, hang_timeout_s=0.3)
        with ScenarioService(cfg) as svc:
            svc.submit(spin("zombie", inject="hang"))
            res = svc.result("zombie", timeout=5)
        assert res.status == FAILED and res.error.startswith("hang:")


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
        assert restarts - restarts0 == service_module._STARTUP_RESPAWNS
        backoff = sum(
            service_module._STARTUP_BACKOFF_S * 2**k
            for k in range(service_module._STARTUP_RESPAWNS)
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
    def test_planner_failures_trip_breaker_and_degrade(self):
        cfg = ServiceConfig(
            workers=1, breaker_failure_threshold=2, breaker_recovery_s=60.0
        )
        with ScenarioService(cfg) as svc:
            # max_proxies=0 fails deterministically inside the *plan* stage.
            for i in range(2):
                svc.submit(
                    ScenarioRequest(
                        id=f"bad{i}", kind="p2p",
                        params={"nnodes": 32, "max_proxies": 0},
                    )
                )
                res = svc.result(f"bad{i}", timeout=120)
                assert res.status == FAILED and "plan" in res.error
            assert svc.planner_breaker.state == OPEN
            # With the planner breaker open, transfers still complete —
            # degraded to the direct single-path fallback.
            svc.submit(ScenarioRequest(id="deg", kind="p2p", params={"nnodes": 32}))
            res = svc.result("deg", timeout=120)
        assert res.status == COMPLETED
        assert res.degraded is True
        assert res.payload["degraded"] is True
        assert set(res.payload["mode_used"].values()) == {"direct"}

    def test_simulator_failures_trip_breaker_and_shed_at_admission(self):
        cfg = ServiceConfig(
            workers=1, breaker_failure_threshold=2, breaker_recovery_s=60.0
        )
        with ScenarioService(cfg) as svc:
            # An io request's batch_tol=-1 fails deterministically
            # inside *simulate*.
            for i in range(2):
                svc.submit(
                    ScenarioRequest(
                        id=f"sim{i}", kind="io",
                        params={"ncores": 512, "batch_tol": -1},
                    )
                )
                res = svc.result(f"sim{i}", timeout=120)
                assert res.status == FAILED and "simulate" in res.error
            assert svc.simulator_breaker.state == OPEN
            with pytest.raises(CircuitOpenError) as exc:
                svc.submit(spin("rejected"))
            assert exc.value.retriable is True

    def test_breaker_recovers_through_half_open_probe(self):
        cfg = ServiceConfig(
            workers=1, breaker_failure_threshold=1, breaker_recovery_s=0.2
        )
        with ScenarioService(cfg) as svc:
            svc.submit(
                ScenarioRequest(
                    id="bad", kind="p2p", params={"nnodes": 32, "max_proxies": 0}
                )
            )
            svc.result("bad", timeout=120)
            assert svc.planner_breaker.state == OPEN
            time.sleep(0.3)  # recovery elapses -> half-open probe allowed
            svc.submit(ScenarioRequest(id="probe", kind="p2p", params={"nnodes": 32}))
            res = svc.result("probe", timeout=120)
            assert res.status == COMPLETED
            assert res.degraded is False  # the probe ran the real planner
            assert svc.planner_breaker.state == "closed"

    def test_rejected_submit_returns_half_open_probe_slot(self):
        # Regressions: a submitter blocked on a full queue was admitted
        # after the breaker had opened, because the breaker was checked
        # before the wait; and a submit turned away after ``allow()``
        # reserved the half-open breaker's only probe slot kept it, so
        # every later submit was shed as circuit-open.
        cfg = ServiceConfig(
            workers=1, queue_cap=1, hang_timeout_s=2.0,
            breaker_failure_threshold=1, breaker_recovery_s=0.2,
        )
        with ScenarioService(cfg) as svc:
            svc.submit(
                ScenarioRequest(
                    id="sim", kind="io", params={"ncores": 512, "batch_tol": -1}
                )
            )
            # "hog" queues behind "sim" and hangs the worker for 2 s once
            # "sim" has tripped the breaker; "late" waits for the slot
            # "hog" frees, and by then the breaker is open.
            svc.submit(spin("hog", inject="hang"), block=True, timeout=60)
            with pytest.raises(CircuitOpenError):
                svc.submit(spin("late"), block=True, timeout=60)
            assert svc.result("sim", timeout=5).status == FAILED
            # Fill the queue behind "hog" while the breaker is closed,
            # then reopen it: at half-open the queue is full and the
            # only probe slot is free.
            svc.simulator_breaker.record_success()
            svc.submit(spin("queued"))
            svc.simulator_breaker.record_failure()
            time.sleep(0.3)
            assert svc.simulator_breaker.state == HALF_OPEN
            with pytest.raises(ConfigError, match="duplicate"):
                svc.submit(spin("sim"))
            with pytest.raises(QueueFullError):
                svc.submit(spin("full"))
            # Admitted once "hog" is killed and "queued" dispatched, while
            # the breaker is still half-open: the probe slot was free.
            svc.submit(spin("fresh"), block=True, timeout=60)
            assert svc.result("fresh", timeout=120).status == COMPLETED
            assert svc.simulator_breaker.state == "closed"
        assert svc.result("hog").status == FAILED
        assert svc.result("queued").status == COMPLETED


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
