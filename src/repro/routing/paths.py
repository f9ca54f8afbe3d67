"""Path objects and overlap analysis.

A :class:`Path` is the full deterministic trajectory of one message:
the ordered directed links it occupies.  The paper's proxy-placement
heuristic is, at bottom, a search for sets of paths with empty pairwise
link intersections; the helpers here make that analysis explicit and
testable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Path:
    """A deterministic route through the torus.

    Attributes:
        src: source node index.
        dst: destination node index.
        links: directed link ids in traversal order (empty if src == dst).
        nodes: node indices visited, starting at ``src`` and ending at
            ``dst`` (length ``len(links) + 1``).
    """

    src: int
    dst: int
    links: tuple[int, ...]
    nodes: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.nodes:
            if self.nodes[0] != self.src or self.nodes[-1] != self.dst:
                raise ValueError("path nodes must start at src and end at dst")
            if len(self.nodes) != len(self.links) + 1:
                raise ValueError("path must have len(links) + 1 nodes")

    @property
    def nhops(self) -> int:
        """Number of link traversals."""
        return len(self.links)

    def link_set(self) -> frozenset[int]:
        """The links as a set (order-insensitive)."""
        return frozenset(self.links)


def shared_links(a: Path, b: Path) -> frozenset[int]:
    """Directed links used by both paths."""
    return a.link_set() & b.link_set()


def paths_overlap(a: Path, b: Path) -> bool:
    """True when the two paths contend for at least one directed link."""
    return bool(shared_links(a, b))


def count_link_loads(paths: Iterable[Path]) -> Counter:
    """How many paths traverse each directed link."""
    loads: Counter = Counter()
    for p in paths:
        loads.update(p.links)
    return loads


def max_link_load(paths: Sequence[Path]) -> int:
    """Maximum number of paths sharing any one directed link (0 if none)."""
    loads = count_link_loads(paths)
    return max(loads.values()) if loads else 0
