"""Flow and result records for the fluid simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.util.validation import ConfigError

FlowId = Hashable

_INF = float("inf")


@dataclass(frozen=True)
class Flow:
    """One fluid transfer through the network.

    Attributes:
        fid: unique flow identifier (any hashable; strings read best).
        size: payload bytes to move.
        path: directed link ids traversed (empty for a same-node copy).
        deps: flow ids that must *complete* before this flow may start —
            the store-and-forward dependency mechanism (a proxy's second
            hop depends on its first hop; a two-phase I/O write's ION leg
            depends on the aggregation leg).
        delay: extra serial latency between readiness (max of ``deps``
            completions, or ``start_time``) and the moment the flow begins
            consuming bandwidth.  Endpoint overheads (``o_msg``,
            ``o_fwd``) are injected here by the layers that build flows.
        start_time: earliest absolute start (for flows with no deps).
        rate_cap: per-flow bandwidth ceiling; ``None`` means the
            simulator's default single-stream cap.
        tag: free-form annotation carried through to results.
    """

    fid: FlowId
    size: float
    path: tuple[int, ...] = ()
    deps: tuple[FlowId, ...] = ()
    delay: float = 0.0
    start_time: float = 0.0
    rate_cap: "float | None" = None
    tag: Any = None

    def __post_init__(self):
        # Written so NaN fails: a NaN time or size would otherwise stall
        # the event loop instead of being rejected.
        if not (0 <= self.size < _INF and 0 <= self.delay < _INF
                and 0 <= self.start_time < _INF):
            raise ConfigError(
                f"flow {self.fid!r}: size, delay and start_time must be finite "
                f"and >= 0, got {self.size}, {self.delay}, {self.start_time}"
            )
        if self.rate_cap is not None and not self.rate_cap > 0:
            raise ConfigError(f"flow {self.fid!r}: rate_cap must be > 0, got {self.rate_cap}")


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one flow.

    ``start`` is when the flow became bandwidth-active (after deps and
    ``delay``); ``finish`` is when its last byte arrived.
    """

    fid: FlowId
    size: float
    start: float
    finish: float
    tag: Any = None

    @property
    def duration(self) -> float:
        """Active transfer duration (seconds)."""
        return self.finish - self.start

    @property
    def mean_rate(self) -> float:
        """Average achieved bandwidth while active (bytes/second)."""
        d = self.duration
        return self.size / d if d > 0 else float("inf")
