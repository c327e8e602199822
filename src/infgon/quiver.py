"""Mesh combinatorics on admissible arcs.

The admissible arcs split into n components indexed by t mod n, each shaped
like a half-infinite grid.  Irreducible maps go from (t, u) to (t, u + n)
and, while that arc is admissible, to (t + n, u): one rule on integer pairs.
Each arc is the end term of one almost-split triangle whose middle has one
or two summands.  This module computes those arrows and triangles and
extracts finite windows of the grid, generated as pairs in (t, u) order,
for inspection, rendering, and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arcs import (
    Arc,
    CategoryParams,
    Window,
    _require_int,
    require_admissible,
    short_repr,
    tau,
)


def row_index(params: CategoryParams, a: Arc) -> int:
    """Height of an arc in its component: (u - t - 1) / n, row 1 is shortest."""
    require_admissible(params, a)
    return (a.length - 1) // params.n


def _arrow_targets(n: int, t: int, u: int) -> list[tuple[int, int]]:
    # (t, u + n) is always admissible; (t + n, u) only when the shortened
    # arc still has length at least 2.  Order is fixed for determinism.
    targets = [(t, u + n)]
    if u - t - n >= 2:
        targets.append((t + n, u))
    return targets


def arrows_from(params: CategoryParams, a: Arc) -> list[Arc]:
    """Targets of the irreducible arrows out of an arc, in a fixed order."""
    require_admissible(params, a)
    return [Arc(t, u) for t, u in _arrow_targets(params.n, a.t, a.u)]


@dataclass(frozen=True)
class ArTriangle:
    """An almost-split triangle start -> middle -> end with start = tau(end)."""

    start: Arc
    middle: tuple[Arc, ...]
    end: Arc


def ar_triangle(params: CategoryParams, end: Arc) -> ArTriangle:
    """The almost-split triangle ending at the given arc.

    The middle consists of the admissible members of {(t - n, u), (t, u - n)}
    for end = (t, u); it has one summand exactly when the end arc has the
    minimal admissible length (bottom row of its component).
    """
    start = tau(params, end)
    return ArTriangle(start=start, middle=tuple(arrows_from(params, start)), end=end)


MAX_QUIVER_NODES = 200_000
"""The most (t, u) pairs `quiver_window` may scan: t values times depth.

The count (t-span // n + 1) * depth is known in closed form, so a larger
window raises ValueError before any node is built.  A drawn node costs
about 300 bytes of SVG, so the limit keeps `render quiver` near 60 MB; it
is ten times the 20 000-node ceiling of the benchmark's quiver jobs.
"""


@dataclass(frozen=True)
class QuiverWindow:
    """A finite rectangle of one quiver component, with the arrows inside it."""

    params: CategoryParams
    component: int
    nodes: tuple[Arc, ...]
    arrows: tuple[tuple[Arc, Arc], ...]

    def to_json_dict(self) -> dict:
        index = {a: i for i, a in enumerate(self.nodes)}
        return {
            "component": self.component,
            "nodes": [a.to_json() for a in self.nodes],
            "arrows": [[index[s], index[t]] for s, t in self.arrows],
        }


def quiver_window(
    params: CategoryParams,
    component: int,
    t_range: Window,
    depth: int,
    columns: Window | None = None,
) -> QuiverWindow:
    """Extract the arcs of one component with t in t_range and row <= depth.

    `columns`, when given, additionally restricts t + u (the horizontal
    position of a node in the standard grid drawing) to a closed band; this
    is how a printed picture of the quiver is cropped along its diagonal
    edges.  Nodes are ordered by (t, u) and arrows pair included nodes only.
    A window scanning more than MAX_QUIVER_NODES pairs raises ValueError.
    """
    n = params.n
    if not 0 <= _require_int(component, "component") < n:
        raise ValueError(
            f"component {short_repr(component)} out of range for n = {short_repr(n)} "
            f"(expected 0..{short_repr(n - 1)})"
        )
    if _require_int(depth, "depth") < 1:
        raise ValueError(f"depth must be an integer >= 1, got {short_repr(depth)}")
    if (t_range.span // n + 1) * depth > MAX_QUIVER_NODES:
        raise ValueError(
            f"quiver window t in [{short_repr(t_range.lo)}, {short_repr(t_range.hi)}] "
            f"to depth {short_repr(depth)} scans more than {MAX_QUIVER_NODES} nodes"
        )

    nodes: dict[tuple[int, int], Arc] = {}  # t ascending, then u: (t, u) order
    first = t_range.lo + (component - t_range.lo) % n
    for t in range(first, t_range.hi + 1, n):
        for u in range(t + n + 1, t + depth * n + 2, n):  # rows 1..depth
            if columns is None or columns.lo <= t + u <= columns.hi:
                nodes[t, u] = Arc(t, u)
    arrows = [
        (a, nodes[b]) for (t, u), a in nodes.items() for b in _arrow_targets(n, t, u) if b in nodes
    ]
    return QuiverWindow(params, component, tuple(nodes.values()), tuple(arrows))
