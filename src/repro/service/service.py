"""The overload-safe scenario-execution service.

A :class:`ScenarioService` owns a small pool of **spawned** worker
processes and a bounded admission queue, and guarantees that every
admitted request reaches exactly one terminal state (``completed`` /
``shed`` / ``failed``) no matter what the scenario does — crash, hang,
deadline blow-through, or planner meltdown.

Architecture (all supervision in **one** parent thread, so the
bookkeeping has no cross-thread races to reason about):

* ``submit`` (caller thread) — admission control.  Rejects fast with a
  typed, ``retriable`` error when the bounded queue is full
  (:class:`QueueFullError` — that rejection *is* the load shedding) or
  the simulator's circuit breaker is open (:class:`CircuitOpenError`).
  ``block=True`` turns rejection into backpressure for batch drivers.
* supervisor thread — waits on the workers' result pipes and process
  sentinels and a wake pipe written by ``submit``/``close``, or until
  the earliest timed duty (a deadline or hang kill, the adaptive
  ladder's heartbeat, the shed-rate window); idle, it never wakes.  It
  drains results, detects crashed workers (restart; re-queue the
  victim request until ``max_attempts``, then quarantine it as
  **poison**), hard-kills workers that blow past their deadline or hang
  limit, and dispatches queued requests to free workers (shedding any
  whose deadline already expired while queued).
* workers — see :mod:`repro.service.worker`.  One request in flight
  per worker over private pipes, so a killed worker can never corrupt
  a channel another worker is using, and the parent always knows which
  request died with it.

Two circuit breakers (:mod:`repro.service.breaker`) watch the planner
and simulator stages.  A tripped planner breaker — or a remaining
deadline smaller than ``PLAN_COST_SAFETY ×`` the observed planning-cost
EWMA — flips the dispatch to **degraded mode**: direct single-path
transfers with no proxy search, trading bandwidth for an answer inside
the deadline.  A tripped simulator breaker sheds at admission.

With ``admission="adaptive"`` two further control loops engage (see
:mod:`repro.service.adaptive` and :mod:`repro.service.degrade`):

* an **AIMD concurrency limiter** replaces the static queue bound at
  admission — ``pending + in-flight`` beyond the learned limit sheds
  with the retriable :class:`OverloadShedError` — and converges to the
  worker pool's actual capacity from observed latencies;
* a **degradation ladder** walks planning effort down under queue
  pressure (full multipath → reduced-k proxy search → direct path →
  shed at admission) with hysteresis, instead of PR 5's binary
  breaker-open degrade.  Breaker state remains an override: an open
  planner breaker forces at least the direct tier for that dispatch.

``admission="static"`` keeps the PR 5 behaviour exactly.

Everything observable is exported through :mod:`repro.obs.metrics`
(``service.queue_depth``, ``service.inflight``,
``service.admission_limit``, ``service.degrade_tier``,
``service.shed_rate``, ``service.shed.*``, ``service.deadline_misses``,
``service.worker_restarts``, ``service.poison_quarantined``, breaker
states) and spans (``service.admit`` / ``service.dispatch``).
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Optional

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.service.adaptive import AdaptiveLimiter
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.degrade import (
    TIER_DIRECT,
    TIER_FULL,
    TIER_REDUCED,
    TIER_SHED,
    DegradationLadder,
)
from repro.service.errors import (
    CircuitOpenError,
    OverloadShedError,
    QueueFullError,
    ServiceClosedError,
    UnknownRequestError,
)
from repro.service.request import (
    COMPLETED,
    FAILED,
    SHED,
    ScenarioRequest,
    ScenarioResult,
)
from repro.service.scenarios import PLAN_COST_SAFETY
from repro.service.worker import worker_main
from repro.util.validation import ConfigError

#: Scenario kinds with a separate planner stage (degraded mode applies).
_PLANNED_KINDS = ("p2p", "group", "fanin")

#: Period [s] of the adaptive ladder's pressure samples (the rate its
#: EWMA and dwell are tuned for), and the pause after a supervisor error.
_HEARTBEAT_S = 0.005
#: Ladder pressure taken as idle: the EWMA never decays to exactly 0.
_IDLE_PRESSURE = 1e-9


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of the scenario service.

    Args:
        workers: worker-process pool size.
        queue_cap: bounded admission queue depth; beyond it,
            ``submit`` sheds (or blocks, for batch backpressure).
        default_deadline_s: deadline applied to requests that do not
            carry their own (``None`` = no default deadline).
        max_attempts: worker crashes tolerated per request before it is
            quarantined as poison.
        hang_timeout_s: hard-kill limit for requests with *no*
            deadline (``None`` disables; a deadline always wins).
        kill_grace_s: slack past the deadline before the watchdog
            hard-kills, giving cooperative cancellation first refusal.
        breaker_failure_threshold / breaker_recovery_s: see
            :class:`repro.service.breaker.CircuitBreaker`.
        admission: ``"static"`` (PR 5 behaviour: the bounded queue is
            the only admission bound) or ``"adaptive"`` (AIMD
            concurrency limiter + pressure degradation ladder; the
            bounded queue remains as a hard memory cap).
        latency_target_s: adaptive-mode latency target; ``None``
            derives it from the observed service-time EWMA (see
            :class:`repro.service.adaptive.AdaptiveLimiter`).
        ladder_reduced_k: proxy-count cap at the ladder's reduced tier.
    """

    workers: int = 2
    queue_cap: int = 32
    default_deadline_s: "float | None" = None
    max_attempts: int = 3
    hang_timeout_s: "float | None" = 60.0
    kill_grace_s: float = 0.25
    breaker_failure_threshold: int = 3
    breaker_recovery_s: float = 1.0
    admission: str = "static"
    latency_target_s: "float | None" = None
    ladder_reduced_k: int = 2

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.queue_cap < 1:
            raise ConfigError(f"queue_cap must be >= 1, got {self.queue_cap}")
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        if self.kill_grace_s < 0:
            raise ConfigError(f"kill_grace_s must be >= 0, got {self.kill_grace_s}")
        if self.admission not in ("static", "adaptive"):
            raise ConfigError(
                f"admission must be 'static' or 'adaptive', got {self.admission!r}"
            )
        if self.latency_target_s is not None and self.latency_target_s <= 0:
            raise ConfigError(
                f"latency_target_s must be > 0, got {self.latency_target_s}"
            )
        if self.ladder_reduced_k < 1:
            raise ConfigError(
                f"ladder_reduced_k must be >= 1, got {self.ladder_reduced_k}"
            )


@dataclass
class _Tracked:
    """Parent-side lifecycle record of one admitted request."""

    req: ScenarioRequest
    deadline_at: "float | None"  # absolute monotonic, None = no deadline
    admitted_at: float = 0.0
    dispatched_at: "float | None" = None  # last dispatch (None = never ran)
    attempts: int = 0
    done: threading.Event = field(default_factory=threading.Event)


class _Worker:
    """One worker slot: process + the parent's ends of its private pipes."""

    __slots__ = (
        "wid", "proc", "req_w", "res_r", "busy", "dispatched_at", "degraded", "tier"
    )

    def __init__(self, wid: int, ctx):
        self.wid = wid
        req_r, self.req_w = ctx.Pipe(duplex=False)
        self.res_r, res_w = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=worker_main,
            args=(wid, req_r, res_w),
            name=f"repro-worker-{wid}",
            daemon=True,
        )
        self.proc.start()
        req_r.close()
        res_w.close()
        self.busy: "Optional[_Tracked]" = None
        self.dispatched_at = 0.0
        self.degraded = False
        self.tier = TIER_FULL

    def close_pipes(self) -> None:
        """Close the parent's ends; a live worker reads EOF and exits."""
        self.req_w.close()
        self.res_r.close()


class ScenarioService:
    """Overload-safe scenario executor.  See the module docstring.

    Use as a context manager; ``__exit__`` drains and shuts down::

        with ScenarioService(ServiceConfig(workers=4)) as svc:
            svc.submit(ScenarioRequest(id="a", kind="p2p"))
            result = svc.result("a", timeout=30)
    """

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        *,
        on_result: "Callable[[ScenarioResult], None] | None" = None,
    ):
        self.config = config or ServiceConfig()
        self._on_result = on_result
        self._ctx = mp.get_context("spawn")
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)  # queue_cap backpressure
        self._pending: "deque[_Tracked]" = deque()
        self._tracked: "dict[str, _Tracked]" = {}
        self._results: "dict[str, ScenarioResult]" = {}
        self._plan_cost_est: "dict[str, float]" = {}
        self._closing = False
        self._stop = False
        self._shed_times: "deque[float]" = deque()  # sliding shed-rate window
        self._ladder_due = 0.0  # monotonic time of the next ladder sample
        self._wake_r, self._wake_w = socket.socketpair()  # supervisor self-pipe
        self._wake_w.setblocking(False)
        self._wake_lock = threading.Lock()  # close() never frees the fd mid-wake
        self.limiter: "AdaptiveLimiter | None" = None
        self.ladder: "DegradationLadder | None" = None
        if self.config.admission == "adaptive":
            self.limiter = AdaptiveLimiter(
                min_limit=self.config.workers,
                max_limit=self.config.queue_cap + self.config.workers,
                initial=2 * self.config.workers,
                latency_target_s=self.config.latency_target_s,
            )
            self.ladder = DegradationLadder(
                reduced_k=self.config.ladder_reduced_k
            )
        self.planner_breaker = CircuitBreaker(
            "planner",
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_s=self.config.breaker_recovery_s,
        )
        self.simulator_breaker = CircuitBreaker(
            "simulator",
            failure_threshold=self.config.breaker_failure_threshold,
            recovery_s=self.config.breaker_recovery_s,
        )
        self._workers = [_Worker(i, self._ctx) for i in range(self.config.workers)]
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-service-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        req: ScenarioRequest,
        *,
        block: bool = False,
        timeout: "float | None" = None,
    ) -> str:
        """Admit one request; returns its id.

        Raises:
            ServiceClosedError: the service is shutting down.
            QueueFullError: bounded queue at capacity (``block=False``);
                retriable — back off and resubmit.
            OverloadShedError: adaptive admission turned the request
                away (concurrency limit reached, or the degradation
                ladder is at its shed tier); retriable.
            CircuitOpenError: the simulator breaker is open; retriable
                after its recovery interval.
            ConfigError: duplicate request id.
        """
        with get_tracer().span("service.admit", cat="service", kind=req.kind):
            if not self.simulator_breaker.allow():
                self._raise_shed(
                    req,
                    (CircuitOpenError, "service.shed.circuit_open", "simulator circuit open"),
                )
            try:
                with self._space:
                    if self._closing:
                        raise ServiceClosedError("service is closed to new requests")
                    if req.id in self._tracked:
                        raise ConfigError(f"duplicate request id {req.id!r}")
                    blocked = self._admission_block_locked(req)
                    if blocked is not None:
                        if not block:
                            self._raise_shed(req, blocked)
                        self._wake()  # arm the ladder heartbeat: de-escalation notifies
                        deadline = None if timeout is None else time.monotonic() + timeout
                        while blocked is not None:
                            if self._closing:
                                raise ServiceClosedError(
                                    "service closed while waiting for queue space"
                                )
                            remaining = (
                                None if deadline is None else deadline - time.monotonic()
                            )
                            if remaining is not None and remaining <= 0:
                                self._raise_shed(req, blocked, timeout=timeout)
                            self._space.wait(timeout=remaining)
                            blocked = self._admission_block_locked(req)
                    now = time.monotonic()
                    deadline_s = (
                        req.deadline_s
                        if req.deadline_s is not None
                        else self.config.default_deadline_s
                    )
                    t = _Tracked(
                        req=req,
                        deadline_at=(None if deadline_s is None else now + deadline_s),
                        admitted_at=now,
                    )
                    self._tracked[req.id] = t
                    self._pending.append(t)
                    get_registry().counter("service.admitted").inc()
                    self._set_depth_locked()
            except BaseException:
                self.simulator_breaker.release()  # the probe slot allow() may hold
                raise
            self._wake()
        return req.id

    def _inflight_locked(self) -> int:
        return sum(1 for w in self._workers if w.busy is not None)

    def _admission_block_locked(self, req: ScenarioRequest):
        """Why admission is blocked right now, or ``None`` if admissible.

        Returns ``(exc_class, counter_name, reason)``.  Checked mildest
        bound last: the bounded queue stays a hard memory cap even in
        adaptive mode, but the adaptive limit normally bites first.
        """
        if self.ladder is not None and self.ladder.tier >= TIER_SHED:
            return (
                OverloadShedError,
                "service.shed.ladder",
                "degradation ladder at shed tier",
            )
        if self.limiter is not None:
            outstanding = len(self._pending) + self._inflight_locked()
            if not self.limiter.would_admit(outstanding):
                return (
                    OverloadShedError,
                    "service.shed.adaptive",
                    f"adaptive concurrency limit {self.limiter.limit} reached",
                )
        if len(self._pending) >= self.config.queue_cap:
            return (
                QueueFullError,
                "service.shed.queue_full",
                f"queue full ({self.config.queue_cap})",
            )
        return None

    def _raise_shed(
        self, req: ScenarioRequest, blocked, *, timeout: "float | None" = None
    ) -> None:
        exc_cls, counter_name, reason = blocked
        get_registry().counter(counter_name).inc()
        self._shed_times.append(time.monotonic())
        self._wake()  # refresh the shed-rate gauge and time its decay
        waited = "" if timeout is None else f" after {timeout:.3g}s"
        raise exc_cls(f"{reason}{waited}; request {req.id!r} shed (retriable)")

    def _wake(self) -> None:
        """Wake the supervisor; a full pipe already will, a closed one can't."""
        with self._wake_lock, contextlib.suppress(OSError):
            self._wake_w.send(b"\0")

    def result(self, request_id: str, timeout: "float | None" = None) -> ScenarioResult:
        """Block until ``request_id`` is terminal and return its result.

        Raises :class:`UnknownRequestError` for ids never admitted and
        ``TimeoutError`` if the wait expires.
        """
        with self._lock:
            t = self._tracked.get(request_id)
        if t is None:
            raise UnknownRequestError(f"no such request: {request_id!r}")
        if not t.done.wait(timeout=timeout):
            raise TimeoutError(f"request {request_id!r} not terminal after {timeout}s")
        with self._lock:
            return self._results[request_id]

    def wait_all(self, timeout: "float | None" = None) -> bool:
        """Wait until every admitted request is terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            tracked = list(self._tracked.values())
        for t in tracked:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            if not t.done.wait(timeout=remaining):
                return False
        return True

    def stats(self) -> dict:
        """Snapshot of service health (also exported as metrics)."""
        with self._lock:
            statuses = [r.status for r in self._results.values()]
            out = {
                "queue_depth": len(self._pending),
                "inflight": self._inflight_locked(),
                "admitted": len(self._tracked),
                "completed": statuses.count(COMPLETED),
                "failed": statuses.count(FAILED),
                "shed": statuses.count(SHED),
                "planner_breaker": self.planner_breaker.state,
                "simulator_breaker": self.simulator_breaker.state,
                "plan_cost_est_s": dict(self._plan_cost_est),
                "admission": self.config.admission,
            }
            if self.limiter is not None:
                out["admission_limit"] = self.limiter.limit
                out["service_time_ewma_s"] = self.limiter.service_time_ewma
            if self.ladder is not None:
                out["degrade_tier"] = self.ladder.tier
                out["pressure"] = self.ladder.pressure
            return out

    # -- shutdown ------------------------------------------------------------

    def close(self, *, drain: bool = True, timeout: "float | None" = 60.0) -> None:
        """Stop admitting; optionally drain, then stop the pool.

        With ``drain=False``, still-queued requests are shed terminally
        (``service-closed``) and in-flight ones are hard-killed to a
        ``failed`` terminal state — nothing is left dangling.
        """
        with self._space:
            if self._stop:
                return
            self._closing = True
            if not drain:
                while self._pending:
                    t = self._pending.popleft()
                    self.simulator_breaker.release()
                    self._finish_locked(
                        t, SHED, error="service-closed: shut down before dispatch"
                    )
                self._set_depth_locked()
            self._space.notify_all()
        if drain:
            self.wait_all(timeout=timeout)
        with self._lock:
            for w in self._workers:
                t = w.busy
                if t is not None and not drain:
                    self._hard_kill_locked(
                        w, FAILED, "service-closed: hard-killed at shutdown"
                    )
            self._stop = True
        self._wake()
        self._supervisor.join(timeout=10.0)
        for w in self._workers:
            w.close_pipes()  # EOF: the worker's loop returns
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=2.0)
        with self._wake_lock:
            self._wake_r.close()
            self._wake_w.close()

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- supervisor ----------------------------------------------------------

    def _supervise(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    return
            try:
                self._drain_results()
                self._check_workers()
                self._dispatch()
                self._observe_pressure()
                self._wait_for_work()
            except Exception:  # pragma: no cover - supervisor must survive
                get_registry().counter("service.supervisor_errors").inc()
                time.sleep(_HEARTBEAT_S)  # a persistent fault must not spin

    def _wait_for_work(self) -> None:
        """Block until a worker's result or death, a wake byte, or the
        earliest timed duty (none: an idle service never wakes)."""
        now = time.monotonic()
        ready = [self._wake_r]
        duties = []
        with self._lock:
            for w in self._workers:
                ready += (w.res_r, w.proc.sentinel)
                t = w.busy
                if t is None and self._pending:
                    duties.append(now)  # a deadline shed left this worker free
                elif t is not None and t.deadline_at is not None:
                    duties.append(t.deadline_at + self.config.kill_grace_s)
                elif t is not None and self.config.hang_timeout_s is not None:
                    duties.append(w.dispatched_at + self.config.hang_timeout_s)
            # At pressure ~0 and the full tier, observe(0) changes nothing.
            if self.ladder is not None and (
                self._pending or self._inflight_locked()
                or self.ladder.tier > TIER_FULL or self.ladder.pressure > _IDLE_PRESSURE
            ):
                duties.append(self._ladder_due)
        if self._shed_times:
            duties.append(self._shed_times[0] + self._SHED_RATE_WINDOW_S)
        timeout = max(0.0, min(duties) - now) if duties else None
        if self._wake_r in wait(ready, timeout):
            self._wake_r.recv(65536)  # readable, so this never blocks

    #: Sliding window of the exported shed-rate gauge [s].
    _SHED_RATE_WINDOW_S = 5.0

    def _observe_pressure(self) -> None:
        """Refresh the load-visibility gauges (in-flight, shed rate) and,
        at most once per ``_HEARTBEAT_S``, feed the degradation ladder
        its occupancy sample."""
        reg = get_registry()
        now = time.monotonic()
        with self._lock:
            inflight = self._inflight_locked()
            outstanding = len(self._pending) + inflight
            if self.limiter is not None:
                capacity = max(self.limiter.limit, 1)
            else:
                capacity = self.config.queue_cap + self.config.workers
        reg.gauge("service.inflight").set(inflight)
        if self.ladder is not None and now >= self._ladder_due:
            self._ladder_due = now + _HEARTBEAT_S
            tier_before = self.ladder.tier
            self.ladder.observe(outstanding / capacity)
            if self.ladder.tier < tier_before:
                # De-escalation happens here, not on a queue event:
                # wake blocked submitters.
                with self._space:
                    self._space.notify_all()
        while self._shed_times and now - self._shed_times[0] > self._SHED_RATE_WINDOW_S:
            self._shed_times.popleft()
        reg.gauge("service.shed_rate").set(
            len(self._shed_times) / self._SHED_RATE_WINDOW_S
        )

    def _set_depth_locked(self) -> None:
        get_registry().gauge("service.queue_depth").set(len(self._pending))

    def _finish_locked(
        self,
        t: _Tracked,
        status: str,
        *,
        payload: "dict | None" = None,
        error: "str | None" = None,
        worker: "int | None" = None,
        degraded: bool = False,
        tier: int = 0,
        stage_s: "dict | None" = None,
    ) -> None:
        """Record the single terminal state of a request.  Idempotent:
        late results from a restarted worker are ignored."""
        if t.done.is_set():
            return
        now = time.monotonic()
        if self.limiter is not None and not self._closing:
            if status == COMPLETED:
                service_s = (
                    None if t.dispatched_at is None else now - t.dispatched_at
                )
                self.limiter.on_completion(now - t.admitted_at, service_s)
            elif error is not None and error.startswith("deadline:"):
                # A deadline miss is latency's terminal form: the
                # admission window was too wide for the pool.
                self.limiter.on_overload()
        if status == SHED:
            self._shed_times.append(now)
        res = ScenarioResult(
            id=t.req.id,
            kind=t.req.kind,
            status=status,
            payload=payload,
            error=error,
            attempts=max(t.attempts, 1),
            worker=worker,
            degraded=degraded,
            tier=tier,
            stage_s=stage_s or {},
        )
        self._results[t.req.id] = res
        get_registry().counter(f"service.terminal.{status}").inc()
        t.done.set()
        # Terminal states free adaptive-admission headroom, not just
        # queue slots — wake any blocked submitters either way.
        self._space.notify_all()
        if self._on_result is not None:
            try:
                self._on_result(res)
            except Exception:  # pragma: no cover - observer must not kill us
                get_registry().counter("service.on_result_errors").inc()

    def _drain_results(self) -> None:
        for w in self._workers:
            # EOF: the worker died, and its sentinel reports the crash.
            with contextlib.suppress(EOFError, OSError):
                while w.res_r.poll():
                    msg = w.res_r.recv()
                    with self._lock:
                        t = w.busy
                        if t is None or t.req.id != msg.get("id"):
                            continue  # stale: the request was already finished
                        w.busy = None
                        self._record_outcome(t, msg)

    def _record_outcome(self, t: _Tracked, msg: dict) -> None:
        """Apply a worker's verdict: terminal state + breaker updates.
        Caller holds the lock."""
        status = msg.get("status")
        error = msg.get("error")
        failed_stage = msg.get("failed_stage")
        stage_s = msg.get("stage_s") or {}
        degraded = bool(msg.get("degraded"))
        planned = t.req.kind in _PLANNED_KINDS and not degraded
        if status == COMPLETED:
            if planned:
                self.planner_breaker.record_success()
                plan_s = stage_s.get("plan_s")
                if plan_s is not None:
                    prev = self._plan_cost_est.get(t.req.kind, plan_s)
                    self._plan_cost_est[t.req.kind] = 0.7 * prev + 0.3 * plan_s
            if "simulate_s" in stage_s:
                self.simulator_breaker.record_success()
            self._finish_locked(
                t,
                COMPLETED,
                payload=msg.get("payload"),
                worker=msg.get("worker"),
                degraded=degraded,
                tier=int(msg.get("tier", 2 if degraded else 0)),
                stage_s=stage_s,
            )
            return
        if error and error.startswith("deadline:"):
            get_registry().counter("service.deadline_misses").inc()
        if error and "corrupt-data:" in error:
            # Persistent silent corruption is a property of the request
            # (its seeded SDC model poisons every usable path), so it
            # joins the poison-crash quarantine accounting: resubmitting
            # verbatim reproduces it.  Breakers stay untouched — the
            # simulator itself is healthy.
            get_registry().counter("service.poison_quarantined").inc()
        if failed_stage == "plan":
            self.planner_breaker.record_failure()
        elif failed_stage == "simulate":
            self.simulator_breaker.record_failure()
        # Return any half-open probe slots the verdict above did not
        # settle, so an abandoned probe can never wedge a breaker.
        if planned and failed_stage != "plan":
            self.planner_breaker.release()
        if failed_stage != "simulate":
            self.simulator_breaker.release()
        self._finish_locked(
            t,
            FAILED,
            error=error or "worker reported failure",
            worker=msg.get("worker"),
            degraded=degraded,
            tier=int(msg.get("tier", 2 if degraded else 0)),
            stage_s=stage_s,
        )

    def _check_workers(self) -> None:
        now = time.monotonic()
        for i, w in enumerate(self._workers):
            if not w.proc.is_alive():
                self._on_worker_crash(i, w)
                continue
            with self._lock:
                t = w.busy
                if t is None:
                    continue
                over_deadline = (
                    t.deadline_at is not None
                    and now > t.deadline_at + self.config.kill_grace_s
                )
                hung = (
                    t.deadline_at is None
                    and self.config.hang_timeout_s is not None
                    and now - w.dispatched_at > self.config.hang_timeout_s
                )
            if over_deadline:
                get_registry().counter("service.deadline_misses").inc()
                self._restart_worker(
                    i, w, FAILED,
                    "deadline: exceeded; worker hard-killed by watchdog",
                )
            elif hung:
                self._restart_worker(
                    i, w, FAILED,
                    f"hang: no result after {self.config.hang_timeout_s:.3g}s; "
                    "worker hard-killed by watchdog",
                )

    def _on_worker_crash(self, i: int, w: _Worker) -> None:
        """A worker died on its own (e.g. ``os._exit`` mid-request):
        requeue the victim for another attempt, or quarantine it."""
        with self._lock:
            t = w.busy
            w.busy = None
            if t is not None and not t.done.is_set():
                if t.req.kind in _PLANNED_KINDS and not w.degraded:
                    self.planner_breaker.release()
                self.simulator_breaker.release()
                if t.attempts >= self.config.max_attempts:
                    get_registry().counter("service.poison_quarantined").inc()
                    self._finish_locked(
                        t,
                        FAILED,
                        error=(
                            f"poison: worker crashed {t.attempts} times running "
                            "this request; quarantined"
                        ),
                        worker=w.wid,
                    )
                else:
                    self._pending.appendleft(t)
                    self._set_depth_locked()
        self._replace_worker(i, w)

    def _hard_kill_locked(self, w: _Worker, status: str, error: str) -> None:
        """Kill a worker's process and finish its request.  Caller holds
        the lock; the slot is NOT replaced (shutdown path)."""
        t = w.busy
        w.busy = None
        if t is not None:
            self._finish_locked(t, status, error=error, worker=w.wid)
        w.proc.kill()

    def _restart_worker(self, i: int, w: _Worker, status: str, error: str) -> None:
        with self._lock:
            t = w.busy
            w.busy = None
            if t is not None:
                if t.req.kind in _PLANNED_KINDS and not w.degraded:
                    self.planner_breaker.release()
                self.simulator_breaker.release()
                self._finish_locked(t, status, error=error, worker=w.wid)
        w.proc.kill()
        self._replace_worker(i, w)

    def _replace_worker(self, i: int, w: _Worker) -> None:
        w.proc.join(timeout=5.0)
        w.close_pipes()
        get_registry().counter("service.worker_restarts").inc()
        self._workers[i] = _Worker(w.wid, self._ctx)

    def _dispatch(self) -> None:
        now = time.monotonic()
        for w in self._workers:
            if not w.proc.is_alive():
                continue  # replaced on the next _check_workers pass
            with self._space:
                if w.busy is not None or not self._pending:
                    continue
                t = self._pending.popleft()
                self._set_depth_locked()
                self._space.notify()
                if t.deadline_at is not None and now >= t.deadline_at:
                    get_registry().counter("service.shed.deadline").inc()
                    get_registry().counter("service.deadline_misses").inc()
                    self.simulator_breaker.release()
                    self._finish_locked(
                        t, SHED,
                        error="deadline: expired while queued, never dispatched",
                    )
                    continue
                # Degradation tier: the ladder's pressure verdict first
                # (shed never applies here — an admitted request is
                # served, at most at the direct tier), then the PR 5
                # overrides: an open planner breaker or a deadline too
                # small for the planning-cost EWMA force direct.
                tier = TIER_FULL
                if self.ladder is not None and (
                    t.req.kind in _PLANNED_KINDS or t.req.kind == "io"
                ):
                    tier = min(self.ladder.tier, TIER_DIRECT)
                if t.req.kind in _PLANNED_KINDS:
                    est = self._plan_cost_est.get(t.req.kind, 0.0)
                    remaining = (
                        None if t.deadline_at is None else t.deadline_at - now
                    )
                    if tier < TIER_DIRECT:
                        if not self.planner_breaker.allow():
                            tier = TIER_DIRECT
                        elif (
                            remaining is not None
                            and est > 0
                            and remaining < PLAN_COST_SAFETY * est
                        ):
                            tier = TIER_DIRECT
                            self.planner_breaker.release()
                elif tier == TIER_REDUCED:
                    tier = TIER_FULL  # io has no proxy search to cap
                degraded = tier >= TIER_DIRECT
                if degraded:
                    get_registry().counter("service.degraded").inc()
                elif tier == TIER_REDUCED:
                    get_registry().counter("service.reduced_k").inc()
                t.attempts += 1
                t.dispatched_at = now
                w.busy = t
                w.dispatched_at = now
                w.degraded = degraded
                w.tier = tier
                msg = {
                    "req": t.req.to_dict(),
                    "degraded": degraded,
                    "tier": tier,
                    "max_proxies_cap": (
                        self.ladder.reduced_k
                        if self.ladder is not None and tier == TIER_REDUCED
                        else None
                    ),
                    "remaining_s": (
                        None if t.deadline_at is None else max(0.001, t.deadline_at - now)
                    ),
                    "plan_cost_est_s": self._plan_cost_est.get(t.req.kind, 0.0),
                }
            with get_tracer().span(
                "service.dispatch", cat="service", kind=t.req.kind, worker=w.wid
            ):
                with contextlib.suppress(OSError):  # dead: its sentinel requeues
                    w.req_w.send(msg)
