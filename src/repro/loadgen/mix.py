"""Weighted request mixes of the load generator.

A :class:`RequestMix` draws scenario kinds by weight and stamps each
with small, fast, fully deterministic parameters — the point of a load
run is to stress the *service* (admission, queueing, degradation), not
to run production-sized simulations, so every kind here is sized to run
in milliseconds-to-tens-of-milliseconds on one worker.

Mixes are looked up by name (:data:`MIX_NAMES`):

* ``spin``     — pure busy-wait requests with a fixed service time; the
  benchmark mix, because its service time is a known constant.
* ``transfer`` — p2p/group/fanin multipath transfers on a small torus.
* ``mixed``    — the full menagerie: transfers, io aggregation, chaos
  campaigns and spins, weighted toward the cheap kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.service.request import ScenarioRequest
from repro.util.validation import ConfigError

_MiB = 1 << 20


@dataclass(frozen=True)
class RequestMix:
    """A named, weighted distribution over scenario kinds."""

    name: str
    kinds: "tuple[str, ...]"
    weights: "tuple[float, ...]"
    params: "Mapping[str, Mapping[str, Any]]" = field(default_factory=dict)

    def __post_init__(self):
        if not self.kinds:
            raise ConfigError("mix needs at least one kind")
        if len(self.weights) != len(self.kinds):
            raise ConfigError(
                f"mix {self.name!r}: {len(self.kinds)} kinds but "
                f"{len(self.weights)} weights"
            )
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ConfigError(f"mix {self.name!r}: weights must be >= 0, sum > 0")

    def pick(self, rng) -> str:
        """Draw one kind (seeded ``numpy`` Generator)."""
        total = sum(self.weights)
        probs = [w / total for w in self.weights]
        return self.kinds[int(rng.choice(len(self.kinds), p=probs))]

    def make_request(
        self,
        index: int,
        rng,
        *,
        run_id: str = "load",
        deadline_s: "float | None" = None,
        params_override: "Mapping[str, Any] | None" = None,
    ) -> ScenarioRequest:
        """The ``index``-th request of a run: kind by weighted draw,
        params from the mix table (plus ``params_override``), id
        ``{run_id}-{index:06d}``."""
        kind = self.pick(rng)
        params = dict(self.params.get(kind, {}))
        if params_override:
            params.update(params_override)
        return ScenarioRequest(
            id=f"{run_id}-{index:06d}",
            kind=kind,
            params=params,
            deadline_s=deadline_s,
        )


MIXES: "dict[str, RequestMix]" = {
    "spin": RequestMix(
        name="spin",
        kinds=("spin",),
        weights=(1.0,),
        params={"spin": {"duration_s": 0.05}},
    ),
    "transfer": RequestMix(
        name="transfer",
        kinds=("p2p", "group", "fanin"),
        weights=(0.5, 0.25, 0.25),
        params={
            "p2p": {"nnodes": 32, "nbytes": _MiB},
            "group": {"nnodes": 32, "nbytes": _MiB},
            "fanin": {"nnodes": 32, "nbytes": _MiB},
        },
    ),
    "mixed": RequestMix(
        name="mixed",
        kinds=("p2p", "group", "fanin", "io", "chaos", "spin"),
        weights=(0.30, 0.15, 0.15, 0.15, 0.05, 0.20),
        params={
            "p2p": {"nnodes": 32, "nbytes": _MiB},
            "group": {"nnodes": 32, "nbytes": _MiB},
            "fanin": {"nnodes": 32, "nbytes": _MiB},
            "io": {"ncores": 512, "pattern": "1"},
            "chaos": {"nnodes": 32, "nbytes": _MiB, "budget_s": 0.2},
            "spin": {"duration_s": 0.02},
        },
    ),
}

#: Mix names accepted by ``repro load --mix``.
MIX_NAMES = tuple(sorted(MIXES))


def get_mix(name: str) -> RequestMix:
    """Look a mix up by name."""
    try:
        return MIXES[name]
    except KeyError:
        raise ConfigError(f"unknown mix {name!r}; known: {MIX_NAMES}") from None


def mix_reference(
    mix: "RequestMix | str",
    *,
    params_override: "Mapping[str, Any] | None" = None,
) -> dict:
    """Unloaded reference payloads for a mix's transfer kinds.

    Every transfer kind the mix can draw (with the exact params a
    request would carry) is simulated once, together, through the
    batched simulate pass
    (:func:`repro.service.scenarios.run_transfer_kinds_batched`) — the
    per-kind payload an *unloaded* worker would produce.  Load reports
    embed this so completed-request payloads can be read against the
    no-contention reference (a degraded-tier run diverges from it).
    Kinds with no transfer physics (``spin``, ``io``, ``chaos``) are
    skipped.
    """
    from repro.service.scenarios import run_transfer_kinds_batched

    if isinstance(mix, str):
        mix = get_mix(mix)
    items = []
    for kind in mix.kinds:
        if kind not in ("p2p", "group", "fanin"):
            continue
        params = dict(mix.params.get(kind, {}))
        if params_override:
            params.update(params_override)
        items.append((kind, params))
    if not items:
        return {}
    payloads = run_transfer_kinds_batched(items)
    return {kind: payload for (kind, _), payload in zip(items, payloads)}
