"""Flow and result records for the fluid simulator, and
:class:`FlowColumns`, the column form the simulators read."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Hashable

from repro.util.validation import ConfigError

FlowId = Hashable

_INF = float("inf")


def check_flow(fid, size, delay, start_time, rate_cap) -> None:
    """Reject a flow whose size, delay or start time is not finite and
    ``>= 0``, or whose rate cap is set but not ``> 0``."""
    # Written so NaN fails: a NaN time or size would otherwise stall
    # the event loop instead of being rejected.
    if not (0 <= size < _INF and 0 <= delay < _INF and 0 <= start_time < _INF):
        raise ConfigError(
            f"flow {fid!r}: size, delay and start_time must be finite "
            f"and >= 0, got {size}, {delay}, {start_time}"
        )
    if rate_cap is not None and not rate_cap > 0:
        raise ConfigError(f"flow {fid!r}: rate_cap must be > 0, got {rate_cap}")


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
        check_flow(self.fid, self.size, self.delay, self.start_time, self.rate_cap)


#: The :class:`Flow` fields, in declaration order: one column each.
FIELDS = ("fid", "size", "path", "deps", "delay", "start_time", "rate_cap", "tag")


class FlowColumns(Sequence):
    """A flow program as columns: one list per :class:`Flow` field, row
    ``i`` of each being flow ``i``.  The simulators read the lists; as a
    ``Sequence[Flow]`` the object is a read-only view that builds each
    :class:`Flow` it is asked for.  Whoever fills the lists checks each
    row with :func:`check_flow`, as :class:`Flow` does.
    """

    __slots__ = FIELDS

    def __init__(self):
        for name in FIELDS:
            setattr(self, name, [])

    @classmethod
    def of(cls, flows: "Sequence[Flow] | FlowColumns") -> "FlowColumns":
        """``flows`` as columns (returned as is when already columns)."""
        if isinstance(flows, FlowColumns):
            return flows
        flows = list(flows)
        out = cls()
        for name in FIELDS:
            setattr(out, name, [getattr(f, name) for f in flows])
        return out

    def __len__(self) -> int:
        return len(self.fid)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Flow(*(getattr(self, name)[i] for name in FIELDS))


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
