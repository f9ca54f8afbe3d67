"""The overload-safe scenario-execution service.

A :class:`ScenarioService` owns a small pool of **spawned** worker
processes and a bounded admission queue, and guarantees that every
admitted request reaches exactly one terminal state (``completed`` /
``shed`` / ``failed``) no matter what the scenario does — crash, hang,
deadline blow-through, or planner meltdown.

Architecture — a pure core and a thin shell:

* the **supervisor core** (:mod:`repro.service.core`) makes every
  policy decision — admission and backpressure, dispatch, crash retry
  and poison quarantine, deadline and hang kills, start-up backoff,
  breaker probe slots, the adaptive limiter and the degradation ladder
  — as a deterministic state machine that takes events and returns
  actions;
* this **shell** owns the worker processes, their pipes, one lock and
  one condition variable.  ``submit`` asks the core under the lock in
  the caller's thread (a blocking caller waits on the condition and
  asks again), and the supervisor thread turns worker readiness into
  core events: it waits in one ``multiprocessing.connection.wait()`` on
  the workers' result pipes and process sentinels and a wake pipe
  written by ``submit``/``close``, or until the core's next timed duty;
  idle, it never wakes.  Each action the core returns is carried out in
  order — send a dispatch, kill or spawn a worker, finish a request;
* workers — see :mod:`repro.service.worker`.  One request in flight
  per worker over private pipes, so a killed worker can never corrupt
  a channel another worker is using, and the parent always knows which
  request died with it.

A finish stores the result, runs ``on_result``, and only then sets the
request's done event, so :meth:`ScenarioService.result` and
:meth:`ScenarioService.wait_all` return after the callback has run.
Metrics and spans are listed in ``docs/SERVICE.md`` §7.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import socket
import threading
import time
from multiprocessing.connection import wait
from typing import Callable

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.service.core import (
    Dispatch,
    Finish,
    Kill,
    ServiceConfig,
    Spawn,
    SupervisorCore,
)
from repro.service.errors import UnknownRequestError
from repro.service.request import ScenarioRequest, ScenarioResult
from repro.service.worker import worker_main

__all__ = ["ScenarioService", "ServiceConfig"]

#: Pause [s] after a supervisor error, so a persistent fault cannot spin.
_ERROR_PAUSE_S = 0.005


class _Worker:
    """One worker process and the parent's ends of its private pipes."""

    __slots__ = ("proc", "req_w", "res_r")

    def __init__(self, wid: int, ctx):
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

    def messages(self) -> list:
        """Every message waiting on the result pipe (EOF: the worker
        died, and its sentinel reports it)."""
        out = []
        with contextlib.suppress(EOFError, OSError):
            while self.res_r.poll():
                out.append(self.res_r.recv())
        return out

    def stop(self, *, kill: bool) -> None:
        """Close the parent's ends (a live worker reads EOF and exits)
        and reap the process, killing it first if asked or if it lingers."""
        if kill:
            self.proc.kill()
        self.req_w.close()
        self.res_r.close()
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=2.0)


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
        self._space = threading.Condition(self._lock)  # blocked submitters
        self._core = SupervisorCore(self.config)
        self._done: "dict[str, threading.Event]" = {}
        self._stop = False
        self._wake_r, self._wake_w = socket.socketpair()  # supervisor self-pipe
        self._wake_w.setblocking(False)
        self._wake_lock = threading.Lock()  # close() never frees the fd mid-wake
        self._workers: "list[_Worker | None]" = [
            _Worker(i, self._ctx) for i in range(self.config.workers)
        ]
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-service-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- callers -------------------------------------------------------------

    def submit(
        self,
        req: ScenarioRequest,
        *,
        block: bool = False,
        timeout: "float | None" = None,
    ) -> str:
        """Admit one request; returns its id.

        ``block=True`` turns a full queue (or adaptive limit) into
        backpressure: wait up to ``timeout`` seconds for room.

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
            try:
                with self._space:
                    give_up = None if timeout is None else time.monotonic() + timeout
                    waited = False
                    while True:
                        now = time.monotonic()
                        left = None if give_up is None else give_up - now
                        actions = self._core.submit(
                            req, now, block=block and (left is None or left > 0),
                            timeout=timeout, waited=waited,
                        )
                        if actions is not None:
                            break
                        if not waited:
                            self._wake()  # the ladder heartbeat may have to re-arm
                        self._space.wait(timeout=left)
                        waited = True
                    self._done[req.id] = threading.Event()
                    self._apply(actions)
            finally:
                self._wake()  # new work, or a shed for the shed-rate gauge
        return req.id

    def result(self, request_id: str, timeout: "float | None" = None) -> ScenarioResult:
        """Block until ``request_id`` is terminal and return its result.

        Raises :class:`UnknownRequestError` for ids never admitted and
        ``TimeoutError`` if the wait expires.
        """
        with self._lock:
            done = self._done.get(request_id)
        if done is None:
            raise UnknownRequestError(f"no such request: {request_id!r}")
        if not done.wait(timeout=timeout):
            raise TimeoutError(f"request {request_id!r} not terminal after {timeout}s")
        with self._lock:
            return self._core.results[request_id]

    def wait_all(self, timeout: "float | None" = None) -> bool:
        """Wait until every admitted request is terminal and its
        ``on_result`` callback has returned."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            events = list(self._done.values())
        for done in events:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return False
            if not done.wait(timeout=remaining):
                return False
        return True

    def stats(self) -> dict:
        """Snapshot of service health (also exported as metrics)."""
        with self._lock:
            return self._core.stats(time.monotonic())

    def close(self, *, drain: bool = True, timeout: "float | None" = 60.0) -> None:
        """Stop admitting; optionally drain, then stop the pool.

        With ``drain=False``, still-queued requests are shed terminally
        (``service-closed``) and in-flight ones are hard-killed to a
        ``failed`` terminal state — nothing is left dangling.
        """
        with self._space:
            if self._stop:
                return
            self._apply(self._core.close(time.monotonic(), drain=drain))
        if drain:
            self.wait_all(timeout=timeout)
        with self._lock:
            self._stop = True
        self._wake()
        self._supervisor.join(timeout=10.0)
        for w in self._workers:
            if w is not None:
                w.stop(kill=False)
        with self._wake_lock:
            self._wake_r.close()
            self._wake_w.close()

    def __enter__(self) -> "ScenarioService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- shell ---------------------------------------------------------------

    def _wake(self) -> None:
        """Wake the supervisor; a full pipe already will, a closed one can't."""
        with self._wake_lock, contextlib.suppress(OSError):
            self._wake_w.send(b"\0")

    def _apply(self, actions: list) -> None:
        """Carry out the core's actions in order.  Caller holds the lock;
        blocked submitters, notified when there are actions, re-check
        once it is released."""
        if actions:
            self._space.notify_all()  # a finish or dispatch may make room
        for action in actions:
            if isinstance(action, Finish):
                res = action.result
                if self._on_result is not None:
                    try:
                        self._on_result(res)
                    except Exception:  # pragma: no cover - observer must not kill us
                        get_registry().counter("service.on_result_errors").inc()
                self._done[res.id].set()
            elif isinstance(action, Dispatch):
                w = self._workers[action.slot]
                with get_tracer().span(
                    "service.dispatch", cat="service",
                    kind=action.msg["req"]["kind"], worker=action.slot,
                ), contextlib.suppress(OSError):  # dead: its sentinel reports it
                    w.req_w.send(action.msg)
            elif isinstance(action, Kill):
                self._workers[action.slot].stop(kill=True)
                self._workers[action.slot] = None
            elif isinstance(action, Spawn):
                self._workers[action.slot] = _Worker(action.slot, self._ctx)

    def _supervise(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    return
                workers = list(self._workers)
                wake_at = self._core.next_wake()
            try:
                self._pass(workers, wake_at)
            except Exception:  # pragma: no cover - supervisor must survive
                get_registry().counter("service.supervisor_errors").inc()
                time.sleep(_ERROR_PAUSE_S)

    def _pass(self, workers: list, wake_at: "float | None") -> None:
        """One supervisor pass: wait for readiness or the next duty, then
        feed what happened to the core and carry out its actions."""
        waitables = [self._wake_r]
        for w in workers:
            if w is not None:
                waitables += (w.res_r, w.proc.sentinel)
        timeout = None if wake_at is None else max(0.0, wake_at - time.monotonic())
        ready = wait(waitables, timeout)
        if self._wake_r in ready:
            self._wake_r.recv(65536)  # readable, so this never blocks
        events = []  # pipes are read outside the lock: recv unpickles
        for i, w in enumerate(workers):
            if w is None:
                continue
            if w.res_r in ready:
                events += [(i, w, msg) for msg in w.messages()]
            if w.proc.sentinel in ready:
                events.append((i, w, None))
        with self._lock:
            if self._stop:
                return
            now = time.monotonic()
            ladder = self._core.ladder
            tier = None if ladder is None else ladder.tier
            actions = []
            for i, w, msg in events:
                if self._workers[i] is not w:
                    continue  # killed meanwhile by close()
                if msg is None:
                    w.stop(kill=False)
                    self._workers[i] = None
                    actions += self._core.worker_died(i, now)
                elif "ready" in msg:
                    actions += self._core.worker_ready(i, now)
                else:
                    actions += self._core.worker_result(i, msg, now)
            self._apply(actions + self._core.tick(now))
            if ladder is not None and ladder.tier < tier:
                self._space.notify_all()  # de-escalation makes room too
