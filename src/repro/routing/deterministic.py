"""Deterministic dimension-ordered route construction.

Given a dimension traversal order (from :mod:`repro.routing.order` or
:mod:`repro.routing.zones`), a message moves all required hops in the
first dimension, then all hops in the second, and so on; within a
dimension it always takes the shorter way around the ring (positive
direction on ties, see :func:`repro.torus.coords.wrap_displacement`).

:class:`DimOrderRouter` adds a per-(src, dst) route cache — experiments
route the same pairs thousands of times across message-size sweeps.
"""

from __future__ import annotations

from typing import Sequence

from repro.routing.order import dims_longest_to_shortest
from repro.routing.paths import Path
from repro.torus.coords import wrap_displacement
from repro.torus.topology import TorusTopology
from repro.util.validation import ConfigError


def route_coords(
    topology: TorusTopology,
    src: int,
    dst: int,
    order: "Sequence[int] | None" = None,
) -> list[tuple[int, int, int]]:
    """The hop list from ``src`` to ``dst`` as ``(node, dim, sign)`` triples.

    ``order`` overrides the default longest-to-shortest dimension order;
    it must contain every dimension that needs traversal (extra
    dimensions with zero hops are permitted and skipped).  The endpoints
    and ``order`` are checked once; each hop then steps the node id by
    its dimension's stride.
    """
    src_c = topology.coord(src)
    dst_c = topology.coord(dst)
    shape = topology.shape
    disp = [wrap_displacement(s, t, n) for s, t, n in zip(src_c, dst_c, shape)]
    if order is None:
        order = dims_longest_to_shortest([h for h, _ in disp])
    else:
        if bad := [d for d in order if not 0 <= d < len(shape)]:
            raise ConfigError(
                f"dimension order {tuple(order)} names dimensions {bad} outside 0..{len(shape) - 1}"
            )
        missing = {d for d, (h, _) in enumerate(disp) if h} - set(order)
        if missing:
            raise ConfigError(
                f"dimension order {tuple(order)} omits required dimensions {sorted(missing)}"
            )

    hops: list[tuple[int, int, int]] = []
    node = src
    for dim in order:
        n, sign = disp[dim]
        disp[dim] = (0, sign)  # a repeated dimension has nothing left to walk
        size, stride = shape[dim], topology.strides[dim]
        c = src_c[dim]
        for _ in range(n):
            hops.append((node, dim, sign))
            nxt = (c + sign) % size
            node += (nxt - c) * stride
            c = nxt
    assert node == dst, "routing did not terminate at the destination"
    return hops


def route(
    topology: TorusTopology,
    src: int,
    dst: int,
    order: "Sequence[int] | None" = None,
) -> Path:
    """Deterministic path from ``src`` to ``dst`` as a :class:`Path`.

    A hop from ``node`` along ``(dim, sign)`` crosses link ``node * 2 *
    ndims + 2 * dim + (sign > 0)`` (:func:`repro.torus.links.torus_link_id`).
    """
    hops = route_coords(topology, src, dst, order)
    per_node = 2 * topology.ndims
    links = tuple(node * per_node + 2 * dim + (sign > 0) for node, dim, sign in hops)
    return Path(src=src, dst=dst, links=links, nodes=(*(h[0] for h in hops), dst))


class DimOrderRouter:
    """Cached deterministic router over one topology.

    The default router used throughout the library: longest-to-shortest
    dimension order with fixed tie-breaks (the zone-2 style deterministic
    behaviour the paper's placement heuristics assume).
    """

    def __init__(self, topology: TorusTopology):
        self.topology = topology
        self._cache: dict[tuple[int, int], Path] = {}

    def path(self, src: int, dst: int) -> Path:
        """Deterministic path between two nodes (cached)."""
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is None:
            cached = route(self.topology, src, dst)
            self._cache[key] = cached
        return cached

    def paths(self, pairs: Sequence[tuple[int, int]]) -> list[Path]:
        """Paths for a batch of (src, dst) pairs.

        Cache hits resolve in one pass over the batch; only the misses
        (deduplicated — sweeps repeat pairs heavily) are routed.
        """
        cache = self._cache
        out: list["Path | None"] = [cache.get((s, d)) for s, d in pairs]
        for i, p in enumerate(out):
            if p is None:
                out[i] = self.path(*pairs[i])
        return out

    def cache_size(self) -> int:
        """Number of cached routes (for tests and diagnostics)."""
        return len(self._cache)
