"""Mesh combinatorics on admissible arcs.

The admissible arcs split into n components indexed by t mod n, each shaped
like a half-infinite grid.  Irreducible maps either stretch the right
endpoint up by n or pull the left endpoint up by n, and each arc is the end
term of one almost-split triangle whose middle has one or two summands.
This module computes those arrows and triangles and extracts finite windows
of the grid for inspection, rendering, and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arcs import (
    Arc,
    CategoryParams,
    Window,
    _require_int,
    minimal_length,
    require_admissible,
    short_repr,
    tau,
)


def row_index(params: CategoryParams, a: Arc) -> int:
    """Height of an arc in its component: (u - t - 1) / n, row 1 is shortest."""
    require_admissible(params, a)
    return (a.length - 1) // params.n


def arrows_from(params: CategoryParams, a: Arc) -> list[Arc]:
    """Targets of the irreducible arrows out of an arc.

    (t, u + n) is always admissible; (t + n, u) only when the shortened arc
    still has length at least 2.  Order is fixed for determinism.
    """
    require_admissible(params, a)
    targets = [Arc(a.t, a.u + params.n)]
    if a.u - a.t - params.n >= 2:
        targets.append(Arc(a.t + params.n, a.u))
    return targets


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


@dataclass(frozen=True)
class QuiverWindow:
    """A finite rectangle of one quiver component, with the arrows inside it."""

    params: CategoryParams
    component: int
    nodes: tuple[Arc, ...]
    arrows: tuple[tuple[Arc, Arc], ...]

    def node_index(self) -> dict[Arc, int]:
        return {a: i for i, a in enumerate(self.nodes)}

    def to_json_dict(self) -> dict:
        index = self.node_index()
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
    """
    n = params.n
    if not 0 <= _require_int(component, "component") < n:
        raise ValueError(
            f"component {short_repr(component)} out of range for n = {short_repr(n)} "
            f"(expected 0..{short_repr(n - 1)})"
        )
    if _require_int(depth, "depth") < 1:
        raise ValueError(f"depth must be an integer >= 1, got {short_repr(depth)}")

    nodes: list[Arc] = []
    first = t_range.lo + (component - t_range.lo) % n
    for t in range(first, t_range.hi + 1, n):
        for row in range(1, depth + 1):
            u = t + row * n + 1
            if columns is not None and not columns.contains_point(t + u):
                continue
            nodes.append(Arc(t, u))
    nodes.sort()
    node_set = set(nodes)
    arrows = [
        (a, b) for a in nodes for b in arrows_from(params, a) if b in node_set
    ]
    return QuiverWindow(
        params=params, component=component, nodes=tuple(nodes), arrows=tuple(arrows)
    )
