"""Overload-safe scenario-execution service.

Long-lived serving (``repro serve``), resumable batch campaigns
(``repro batch``), admission control and load shedding, per-request
deadlines with cooperative cancellation, circuit breakers with a
degraded direct-path fallback, and a crash-safe write-ahead journal.

See ``docs/SERVICE.md`` for the operational guide.
"""

from repro.service.batch import (
    CAMPAIGN_FORMAT,
    RESULTS_FORMAT,
    campaign_sha,
    load_campaign,
    make_demo_campaign,
    parse_campaign,
    run_batch,
)
from repro.service.adaptive import AdaptiveLimiter
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.degrade import (
    TIER_DIRECT,
    TIER_FULL,
    TIER_NAMES,
    TIER_REDUCED,
    TIER_SHED,
    DegradationLadder,
    tier_name,
)
from repro.service.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadShedError,
    PoisonRequestError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    UnknownRequestError,
    WorkerStartupError,
)
from repro.service.journal import Journal, load_journal
from repro.service.request import (
    COMPLETED,
    FAILED,
    INJECT_KINDS,
    SCENARIO_KINDS,
    SHED,
    TERMINAL_STATUSES,
    ScenarioRequest,
    ScenarioResult,
    canonical_json,
    payload_checksum,
)
from repro.service.scenarios import StageError, execute_request
from repro.service.service import ScenarioService, ServiceConfig

__all__ = [
    "CAMPAIGN_FORMAT",
    "CLOSED",
    "COMPLETED",
    "FAILED",
    "HALF_OPEN",
    "INJECT_KINDS",
    "OPEN",
    "RESULTS_FORMAT",
    "SCENARIO_KINDS",
    "SHED",
    "TERMINAL_STATUSES",
    "TIER_DIRECT",
    "TIER_FULL",
    "TIER_NAMES",
    "TIER_REDUCED",
    "TIER_SHED",
    "AdaptiveLimiter",
    "CircuitBreaker",
    "CircuitOpenError",
    "DegradationLadder",
    "OverloadShedError",
    "DeadlineExceededError",
    "Journal",
    "PoisonRequestError",
    "QueueFullError",
    "ScenarioRequest",
    "ScenarioResult",
    "ScenarioService",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "StageError",
    "UnknownRequestError",
    "WorkerStartupError",
    "campaign_sha",
    "canonical_json",
    "execute_request",
    "load_campaign",
    "load_journal",
    "make_demo_campaign",
    "parse_campaign",
    "payload_checksum",
    "run_batch",
    "tier_name",
]
