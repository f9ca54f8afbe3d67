"""Typed errors of the scenario-execution service.

Overload handling is only useful if callers can *distinguish* outcomes:
a saturated queue (``retriable = True`` — back off and resubmit) is not
a poison request (``retriable = False`` — resubmitting reproduces the
crash).  Every service error carries that flag, and the short
machine-readable ``code`` is what terminal :class:`ScenarioResult`
records and journal entries store, so outcomes stay stable across
resumes.
"""

from __future__ import annotations

from repro.util.validation import ReproError


class ServiceError(ReproError):
    """Base class for scenario-service errors.

    ``retriable`` tells callers whether resubmitting the same request
    later can succeed; ``code`` is a stable machine-readable cause.
    """

    retriable = False
    code = "service-error"


class QueueFullError(ServiceError):
    """Admission control rejected the request: the bounded queue is at
    capacity.  Retriable — the fast rejection *is* the load shedding;
    the caller backs off instead of the service queueing unboundedly."""

    retriable = True
    code = "queue-full"


class OverloadShedError(QueueFullError):
    """Admission control rejected the request before it could queue:
    the adaptive concurrency limiter is at its limit, or the
    degradation ladder reached its shed tier.  Subclasses
    :class:`QueueFullError` so callers that already back off on
    queue-full handle it unchanged, while the ``code`` tells operators
    *which* mechanism turned the request away."""

    retriable = True
    code = "overload-shed"


class ServiceClosedError(ServiceError):
    """The service is shutting down and no longer admits requests."""

    retriable = False
    code = "service-closed"


class CircuitOpenError(ServiceError):
    """A stage's circuit breaker is open: recent requests kept failing
    there, so new ones are rejected fast until a half-open probe
    succeeds.  Retriable after the breaker's recovery interval."""

    retriable = True
    code = "circuit-open"


class DeadlineExceededError(ServiceError):
    """The request's deadline passed (in queue, or mid-run via the
    cooperative cancellation hook, or by watchdog hard-kill)."""

    retriable = True
    code = "deadline"


class PoisonRequestError(ServiceError):
    """The request crashed its worker ``max_attempts`` times and is
    quarantined — resubmitting it verbatim would crash again."""

    retriable = False
    code = "poison"


class WorkerStartupError(ServiceError):
    """Every worker slot kept dying during start-up and was given up, so
    no request can run.  Not retriable: the fault is in the worker
    environment, not in the request or the load."""

    retriable = False
    code = "worker-startup"


class CorruptDataError(ServiceError):
    """The request's transfer kept failing end-to-end integrity
    verification: its seeded silent-corruption model poisons every
    usable path, so the corruption is a *deterministic* function of the
    request params and resubmitting verbatim reproduces it.  The
    service maps this to the same quarantine accounting as a poison
    crash (``service.poison_quarantined``) — nothing corrupt was ever
    acknowledged; the request simply has no clean answer."""

    retriable = False
    code = "corrupt-data"


class UnknownRequestError(ServiceError):
    """A result was asked for a request id the service never admitted."""

    retriable = False
    code = "unknown-request"
