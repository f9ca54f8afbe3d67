"""The scenario service's supervisor core: every policy decision in one
deterministic state machine.

:class:`SupervisorCore` holds the service's bookkeeping — the queue, the
admitted requests and their results, each worker slot's state, the two
circuit breakers and, with ``admission="adaptive"``, the AIMD limiter
and the degradation ladder — and changes it only when an event comes
in.  Time is an argument: every event carries ``now`` (monotonic
seconds).  The core starts no process, opens no pipe, takes no lock and
reads no clock.  The shell, :class:`repro.service.service.ScenarioService`,
does all of that: it calls the core under its one lock and carries out
the actions the core returns, in order.

==================  ===========================  ==========================
event               the shell calls it when      actions it can return
==================  ===========================  ==========================
:meth:`submit`      a caller submits             :class:`Finish` (or raises)
``worker_ready``    a worker sends ``ready``     —
``worker_result``   a worker sends a result      :class:`Finish`
``worker_died``     a worker's sentinel fires    :class:`Finish`, :class:`Spawn`
:meth:`tick`        every supervisor pass        all four
:meth:`close`       the service closes           :class:`Finish`, :class:`Kill`
==================  ===========================  ==========================

:meth:`next_wake` is the time of the earliest timed duty — a deadline or
hang kill, a start-up respawn, the ladder's heartbeat, the shed-rate
window — or ``None``, and an idle service then never wakes.

One rule spans several events: each request records the half-open probe
slots it took (the simulator breaker's at admission, the planner's at
dispatch) and gives them back once, when it finishes.  A verdict settles
its breaker, never another request's slot, so each breaker's in-flight
probe count always equals the slots that live requests hold.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.obs.metrics import get_registry
from repro.service.adaptive import AdaptiveLimiter
from repro.service.breaker import HALF_OPEN, CircuitBreaker
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
    WorkerStartupError,
)
from repro.service.request import (
    COMPLETED,
    FAILED,
    SHED,
    ScenarioRequest,
    ScenarioResult,
)
from repro.service.scenarios import PLAN_COST_SAFETY
from repro.util.validation import ConfigError

#: Scenario kinds with a separate planner stage (degraded mode applies).
_PLANNED_KINDS = ("p2p", "group", "fanin")

#: Period [s] of the adaptive ladder's pressure samples (the rate its
#: EWMA and dwell are tuned for).
_HEARTBEAT_S = 0.005
#: Ladder pressure taken as idle: the EWMA never decays to exactly 0.
_IDLE_PRESSURE = 1e-9
#: Delay [s] before respawning a slot whose worker died during start-up,
#: doubling per consecutive start-up death; after ``_STARTUP_RESPAWNS``
#: respawns the next such death gives the slot up for good.
_STARTUP_BACKOFF_S = 0.05
_STARTUP_RESPAWNS = 4
#: Sliding window of the exported shed-rate gauge [s].
_SHED_RATE_WINDOW_S = 5.0


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
        admission: ``"static"`` (the bounded queue is the only
            admission bound) or ``"adaptive"`` (AIMD concurrency limiter
            + pressure degradation ladder; the bounded queue remains as
            a hard memory cap).
        latency_target_s: adaptive-mode latency target; ``None``
            derives it from the observed service-time EWMA (see
            :class:`repro.service.adaptive.AdaptiveLimiter`).
        ladder_reduced_k: proxy-count cap at the ladder's reduced tier.

    The breakers' constants live in :mod:`repro.service.breaker`.
    """

    workers: int = 2
    queue_cap: int = 32
    default_deadline_s: "float | None" = None
    max_attempts: int = 3
    hang_timeout_s: "float | None" = 60.0
    kill_grace_s: float = 0.25
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


class Dispatch(NamedTuple):
    """Send ``msg`` (the worker protocol's dispatch dict) to ``slot``."""

    slot: int
    msg: dict


class Kill(NamedTuple):
    """Hard-kill the worker process in ``slot``."""

    slot: int


class Spawn(NamedTuple):
    """Start a fresh worker process in ``slot``; its old one is gone."""

    slot: int


class Finish(NamedTuple):
    """``result`` is terminal and stored: deliver it."""

    result: ScenarioResult


@dataclass
class _Tracked:
    """Lifecycle record of one admitted request."""

    req: ScenarioRequest
    deadline_at: "float | None"  # absolute monotonic, None = no deadline
    admitted_at: float
    dispatched_at: "float | None" = None  # last dispatch (None = never ran)
    attempts: int = 0
    probes: list = field(default_factory=list)  # breakers whose slot it holds


@dataclass
class _Slot:
    """One worker slot.  ``ready``: its process reported ready.
    ``respawn_at``: set once its process died before ``ready`` — when
    the slot respawns (``inf``: given up)."""

    ready: bool = False
    busy: "Optional[_Tracked]" = None
    startup_deaths: int = 0
    respawn_at: "float | None" = None


class SupervisorCore:
    """The service's policy as a state machine; see the module docstring.

    Every event method returns the list of actions it decided, and the
    caller carries them out in order.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.pending: "deque[_Tracked]" = deque()
        self.tracked: "dict[str, _Tracked]" = {}
        self.results: "dict[str, ScenarioResult]" = {}
        self.plan_cost_est: "dict[str, float]" = {}
        self.closing = False
        self.slots = [_Slot() for _ in range(config.workers)]
        self.limiter: "AdaptiveLimiter | None" = None
        self.ladder: "DegradationLadder | None" = None
        if config.admission == "adaptive":
            self.limiter = AdaptiveLimiter(
                min_limit=config.workers,
                max_limit=config.queue_cap + config.workers,
                initial=2 * config.workers,
                latency_target_s=config.latency_target_s,
            )
            self.ladder = DegradationLadder(reduced_k=config.ladder_reduced_k)
        self.planner_breaker = CircuitBreaker("planner")
        self.simulator_breaker = CircuitBreaker("simulator")
        self._shed_times: "deque[float]" = deque()
        self._ladder_due = 0.0
        self._out: list = []

    # -- events --------------------------------------------------------------

    def submit(
        self,
        req: ScenarioRequest,
        now: float,
        *,
        block: bool = False,
        timeout: "float | None" = None,
        waited: bool = False,
    ) -> "list | None":
        """Admit ``req``: returns the step's actions, or ``None`` when
        admission is blocked and ``block`` lets the caller wait and ask
        again (with ``waited=True``).  ``timeout`` is the caller's wait
        limit, named in the refusal of a caller that waited.  Refusals
        raise the typed errors ``ScenarioService.submit`` documents.
        """
        if self.closing:
            raise ServiceClosedError(
                "service closed while waiting for queue space"
                if waited else "service is closed to new requests"
            )
        if req.id in self.tracked:
            raise ConfigError(f"duplicate request id {req.id!r}")
        blocked = self._admission_block()
        if blocked is not None:
            if block:
                return None
            after = f" after {timeout:.3g}s" if waited and timeout is not None else ""
            self._refuse(req, now, *blocked, after=after)
        deadline_s = (
            req.deadline_s if req.deadline_s is not None
            else self.config.default_deadline_s
        )
        t = _Tracked(req, None if deadline_s is None else now + deadline_s, now)
        # Last: nothing after a granted probe slot may refuse the request.
        if not self._enter(self.simulator_breaker, t, now):
            self._refuse(
                req, now, CircuitOpenError, "service.shed.circuit_open",
                "simulator circuit open",
            )
        self.tracked[req.id] = t
        self.pending.append(t)
        get_registry().counter("service.admitted").inc()
        return self._flush(now)

    def worker_ready(self, slot: int, now: float) -> list:
        """The worker in ``slot`` reported ready: it may get requests."""
        s = self.slots[slot]
        s.ready = True
        s.startup_deaths = 0
        return self._flush(now)

    def worker_result(self, slot: int, msg: dict, now: float) -> list:
        """The worker in ``slot`` sent a result (the worker protocol's
        dict): apply its verdict.  A result for a request the slot no
        longer runs is stale and ignored."""
        s = self.slots[slot]
        t = s.busy
        if t is not None and t.req.id == msg.get("id"):
            s.busy = None
            self._record_outcome(t, msg, now)
        return self._flush(now)

    def worker_died(self, slot: int, now: float) -> list:
        """The worker process in ``slot`` is gone (the shell reaped it)."""
        s = self.slots[slot]
        if s.ready:  # a crash: its request is retried, or quarantined
            t, s.busy = s.busy, None
            if t is not None and t.attempts >= self.config.max_attempts:
                get_registry().counter("service.poison_quarantined").inc()
                self._finish(
                    t, FAILED, now, worker=slot, error=(
                        f"poison: worker crashed {t.attempts} times running "
                        "this request; quarantined"
                    ),
                )
            elif t is not None:
                self.pending.appendleft(t)
            self._spawn(slot)
        else:  # died starting up, holding no request: back off
            s.startup_deaths += 1
            s.respawn_at = (
                now + _STARTUP_BACKOFF_S * 2 ** (s.startup_deaths - 1)
                if s.startup_deaths <= _STARTUP_RESPAWNS else math.inf
            )
        return self._flush(now)

    def tick(self, now: float) -> list:
        """A supervisor pass: watchdog kills, due respawns, dispatch, and
        the load gauges and ladder heartbeat."""
        cfg = self.config
        for i, s in enumerate(self.slots):
            t = s.busy
            if s.respawn_at is not None:
                if now >= s.respawn_at:
                    self._spawn(i)
            elif t is not None and t.deadline_at is not None:
                if now >= t.deadline_at + cfg.kill_grace_s:
                    get_registry().counter("service.deadline_misses").inc()
                    self._kill(i, now, "deadline: exceeded; worker hard-killed by watchdog")
            elif t is not None and cfg.hang_timeout_s is not None:
                if now >= t.dispatched_at + cfg.hang_timeout_s:
                    self._kill(
                        i, now, f"hang: no result after {cfg.hang_timeout_s:.3g}s; "
                        "worker hard-killed by watchdog",
                    )
        self._dispatch(now)
        self._observe_pressure(now)
        return self._flush(now)

    def close(self, now: float, *, drain: bool) -> list:
        """Stop admitting.  Without ``drain``, queued requests are shed
        (``service-closed``) and running ones killed to ``failed``."""
        self.closing = True
        if not drain:
            self._fail_pending(SHED, "service-closed: shut down before dispatch", now)
            for i, s in enumerate(self.slots):
                if s.busy is not None:
                    self._kill(
                        i, now, "service-closed: hard-killed at shutdown", respawn=False
                    )
        return self._flush(now)

    # -- queries -------------------------------------------------------------

    def inflight(self) -> int:
        """Requests running on a worker."""
        return sum(1 for s in self.slots if s.busy is not None)

    def next_wake(self) -> "float | None":
        """Time of the earliest timed duty, or ``None`` if there is none."""
        cfg = self.config
        duties = [self._shed_times[0] + _SHED_RATE_WINDOW_S] if self._shed_times else []
        for s in self.slots:
            t = s.busy
            if s.respawn_at is not None:
                duties.append(s.respawn_at)
            elif t is not None and t.deadline_at is not None:
                duties.append(t.deadline_at + cfg.kill_grace_s)
            elif t is not None and cfg.hang_timeout_s is not None:
                duties.append(t.dispatched_at + cfg.hang_timeout_s)
        # At pressure ~0 and the full tier, a ladder sample changes nothing.
        if self.ladder is not None and (
            self.pending or self.inflight()
            or self.ladder.tier > TIER_FULL or self.ladder.pressure > _IDLE_PRESSURE
        ):
            duties.append(self._ladder_due)
        wake = min(duties, default=math.inf)
        return None if wake == math.inf else wake

    def stats(self, now: float) -> dict:
        """Snapshot of service health (``ScenarioService.stats``)."""
        statuses = [r.status for r in self.results.values()]
        out = {
            "queue_depth": len(self.pending),
            "inflight": self.inflight(),
            "admitted": len(self.tracked),
            "completed": statuses.count(COMPLETED),
            "failed": statuses.count(FAILED),
            "shed": statuses.count(SHED),
            "planner_breaker": self.planner_breaker.state(now),
            "simulator_breaker": self.simulator_breaker.state(now),
            "plan_cost_est_s": dict(self.plan_cost_est),
            "admission": self.config.admission,
        }
        if self.limiter is not None:
            out["admission_limit"] = self.limiter.limit
            out["service_time_ewma_s"] = self.limiter.service_time_ewma
        if self.ladder is not None:
            out["degrade_tier"] = self.ladder.tier
            out["pressure"] = self.ladder.pressure
        return out

    # -- policy --------------------------------------------------------------

    def _admission_block(self):
        """Why admission is blocked right now, or ``None`` if admissible.

        Returns ``(exc_class, counter_name, reason)``.  Checked mildest
        bound last: the bounded queue stays a hard memory cap even in
        adaptive mode, but the adaptive limit normally bites first.
        """
        if self.ladder is not None and self.ladder.tier >= TIER_SHED:
            return OverloadShedError, "service.shed.ladder", "degradation ladder at shed tier"
        if self.limiter is not None and not self.limiter.would_admit(
            len(self.pending) + self.inflight()
        ):
            return (
                OverloadShedError, "service.shed.adaptive",
                f"adaptive concurrency limit {self.limiter.limit} reached",
            )
        if len(self.pending) >= self.config.queue_cap:
            return (
                QueueFullError, "service.shed.queue_full",
                f"queue full ({self.config.queue_cap})",
            )
        return None

    def _refuse(self, req, now, exc_cls, counter, reason, *, after="") -> None:
        get_registry().counter(counter).inc()
        self._shed_times.append(now)
        raise exc_cls(f"{reason}{after}; request {req.id!r} shed (retriable)")

    def _enter(self, breaker: CircuitBreaker, t: _Tracked, now: float) -> bool:
        """May ``t`` enter ``breaker``'s stage?  A half-open probe slot
        granted to it is recorded on ``t`` until it finishes."""
        if breaker in t.probes:
            return True  # still the probe: a crash re-queued it
        half_open = breaker.state(now) == HALF_OPEN
        if not breaker.allow(now):
            return False
        if half_open:
            t.probes.append(breaker)
        return True

    def _dispatch(self, now: float) -> None:
        for i, s in enumerate(self.slots):
            while s.ready and s.busy is None and self.pending:
                t = self.pending.popleft()
                if t.deadline_at is not None and now >= t.deadline_at:
                    get_registry().counter("service.shed.deadline").inc()
                    get_registry().counter("service.deadline_misses").inc()
                    self._finish(
                        t, SHED, now,
                        error="deadline: expired while queued, never dispatched",
                    )
                    continue
                tier = self._tier(t, now)
                degraded = tier >= TIER_DIRECT
                if degraded:
                    get_registry().counter("service.degraded").inc()
                elif tier == TIER_REDUCED:
                    get_registry().counter("service.reduced_k").inc()
                t.attempts += 1
                t.dispatched_at = now
                s.busy = t
                self._out.append(Dispatch(i, {
                    "req": t.req.to_dict(),
                    "degraded": degraded,
                    "tier": tier,
                    "max_proxies_cap": (
                        self.ladder.reduced_k if tier == TIER_REDUCED else None
                    ),
                    "remaining_s": (
                        None if t.deadline_at is None else max(0.001, t.deadline_at - now)
                    ),
                    "plan_cost_est_s": self.plan_cost_est.get(t.req.kind, 0.0),
                }))

    def _tier(self, t: _Tracked, now: float) -> int:
        """Degradation tier of one dispatch: the ladder's pressure verdict
        (an admitted request is served, at most at the direct tier), then
        the overrides — a deadline too short for the planning-cost EWMA,
        or a planner breaker that refuses, force direct."""
        kind = t.req.kind
        tier = TIER_FULL
        if self.ladder is not None and (kind in _PLANNED_KINDS or kind == "io"):
            tier = min(self.ladder.tier, TIER_DIRECT)
        if kind not in _PLANNED_KINDS:
            return TIER_FULL if tier == TIER_REDUCED else tier  # no proxy search to cap
        if tier < TIER_DIRECT:
            est = self.plan_cost_est.get(kind, 0.0)
            remaining = None if t.deadline_at is None else t.deadline_at - now
            if remaining is not None and est > 0 and remaining < PLAN_COST_SAFETY * est:
                tier = TIER_DIRECT
            elif not self._enter(self.planner_breaker, t, now):
                tier = TIER_DIRECT
        return tier

    def _record_outcome(self, t: _Tracked, msg: dict, now: float) -> None:
        """Apply a worker's verdict: breaker updates + terminal state."""
        error = msg.get("error")
        failed_stage = msg.get("failed_stage")
        stage_s = msg.get("stage_s") or {}
        degraded = bool(msg.get("degraded"))
        done = dict(
            worker=msg.get("worker"), degraded=degraded, stage_s=stage_s,
            tier=int(msg.get("tier", 2 if degraded else 0)),
        )
        if msg.get("status") == COMPLETED:
            if t.req.kind in _PLANNED_KINDS and not degraded:
                self.planner_breaker.record_success()
                plan_s = stage_s.get("plan_s")
                if plan_s is not None:
                    prev = self.plan_cost_est.get(t.req.kind, plan_s)
                    self.plan_cost_est[t.req.kind] = 0.7 * prev + 0.3 * plan_s
            if "simulate_s" in stage_s:
                self.simulator_breaker.record_success()
            self._finish(t, COMPLETED, now, payload=msg.get("payload"), **done)
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
            self.planner_breaker.record_failure(now)
        elif failed_stage == "simulate":
            self.simulator_breaker.record_failure(now)
        self._finish(t, FAILED, now, error=error or "worker reported failure", **done)

    def _finish(
        self,
        t: _Tracked,
        status: str,
        now: float,
        *,
        payload: "dict | None" = None,
        error: "str | None" = None,
        worker: "int | None" = None,
        degraded: bool = False,
        tier: int = 0,
        stage_s: "dict | None" = None,
    ) -> None:
        """Record the single terminal state of ``t`` and give back the
        probe slots it holds."""
        if self.limiter is not None and not self.closing:
            if status == COMPLETED:
                service_s = None if t.dispatched_at is None else now - t.dispatched_at
                self.limiter.on_completion(now - t.admitted_at, service_s, now)
            elif error is not None and error.startswith("deadline:"):
                # A deadline miss is latency's terminal form: the
                # admission window was too wide for the pool.
                self.limiter.on_overload(now)
        if status == SHED:
            self._shed_times.append(now)
        for breaker in t.probes:
            breaker.release()
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
        self.results[t.req.id] = res
        get_registry().counter(f"service.terminal.{status}").inc()
        self._out.append(Finish(res))

    def _fail_pending(self, status: str, error: str, now: float) -> None:
        while self.pending:
            self._finish(self.pending.popleft(), status, now, error=error)

    def _kill(self, slot: int, now: float, error: str, *, respawn: bool = True) -> None:
        s = self.slots[slot]
        t, s.busy, s.ready = s.busy, None, False
        self._finish(t, FAILED, now, error=error, worker=slot)
        self._out.append(Kill(slot))
        if respawn:
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        s = self.slots[slot]
        s.ready, s.busy, s.respawn_at = False, None, None
        get_registry().counter("service.worker_restarts").inc()
        self._out.append(Spawn(slot))

    def _observe_pressure(self, now: float) -> None:
        """Refresh the load gauges (in-flight, shed rate) and, at most
        once per ``_HEARTBEAT_S``, feed the ladder its occupancy."""
        reg = get_registry()
        inflight = self.inflight()
        reg.gauge("service.inflight").set(inflight)
        if self.ladder is not None and now >= self._ladder_due:
            self._ladder_due = now + _HEARTBEAT_S
            occupancy = (len(self.pending) + inflight) / max(self.limiter.limit, 1)
            self.ladder.observe(occupancy, now)
        while self._shed_times and self._shed_times[0] + _SHED_RATE_WINDOW_S <= now:
            self._shed_times.popleft()
        reg.gauge("service.shed_rate").set(len(self._shed_times) / _SHED_RATE_WINDOW_S)

    def _flush(self, now: float) -> list:
        """End of a step: fail the queue if no worker will ever run it,
        publish the queue depth, and hand over the actions."""
        if self.pending and all(s.respawn_at == math.inf for s in self.slots):
            self._fail_pending(
                FAILED, f"{WorkerStartupError.code}: every worker slot died "
                "during start-up too often and was given up", now,
            )
        get_registry().gauge("service.queue_depth").set(len(self.pending))
        out, self._out = self._out, []
        return out
