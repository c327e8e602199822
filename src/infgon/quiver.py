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

from .arcs import (
    Arc,
    CategoryParams,
    FrozenValue,
    Window,
    _require_int,
    arc_text,
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


class ArTriangle(FrozenValue):
    """An almost-split triangle start -> middle -> end with start = tau(end)."""

    __slots__ = _fields = ("start", "middle", "end")
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
window raises ValueError before any node is built.  At the limit (n = 1,
depth 20) `render quiver` writes 61.6 MB of SVG, about 300 bytes a node,
with 307 MB peak RSS, and `quiver window` streams 21.9 MB of JSON with
113 MB (Python 3.11, 2-CPU x86-64 host).  It is ten times the 20 000-node
ceiling of the benchmark's quiver jobs.
"""


def _require_component(params: CategoryParams, component: object) -> None:
    n = params.n
    if not 0 <= _require_int(component, "component") < n:
        raise ValueError(
            f"component {short_repr(component)} out of range for n = {short_repr(n)} "
            f"(expected 0..{short_repr(n - 1)})"
        )


class QuiverWindow(FrozenValue):
    """Nodes of one quiver component, with the arrows the mesh rule draws among them.

    Construction checks on (t, u) pairs that the nodes are admissible, distinct
    and in the component, one of the n, raising ValueError that names the first
    bad one.  Arrows are no argument: `arrow_index` holds the positions of the
    ends of each irreducible map between two nodes, in node order and then in
    the order of `_arrow_targets` (not compared, not shown), and `arrows` builds
    their arc pairs when asked.
    """

    _fields = ("params", "component", "nodes")
    __slots__ = (*_fields, "arrow_index")
    params: CategoryParams
    component: int
    nodes: tuple[Arc, ...]
    arrow_index: tuple[tuple[int, int], ...]

    def __init__(self, params: CategoryParams, component: int, nodes: tuple[Arc, ...]) -> None:
        n = params.n
        _require_component(params, component)
        index: dict[tuple[int, int], int] = {}  # keyed by (t, u): no Arc is hashed
        for i, a in enumerate(nodes):
            t, u = a.t, a.u
            if u - t < 2 or (u - t - 1) % n or t % n != component:
                require_admissible(params, a)  # words the defect of an inadmissible node
                raise ValueError(f"node {arc_text(a)} is not in component {component}")
            if index.setdefault((t, u), i) != i:
                raise ValueError(f"duplicate arc {arc_text(a)} in family")
        super().__init__(params, component, nodes)
        object.__setattr__(self, "arrow_index", tuple(
            (i, j) for (t, u), i in index.items()
            for j in map(index.get, _arrow_targets(n, t, u)) if j is not None
        ))

    @property
    def arrows(self) -> tuple[tuple[Arc, Arc], ...]:
        nodes = self.nodes
        return tuple((nodes[i], nodes[j]) for i, j in self.arrow_index)

    def to_json_dict(self) -> dict:
        return {
            "component": self.component,
            "nodes": [a.to_json() for a in self.nodes],
            "arrows": [[i, j] for i, j in self.arrow_index],
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
    _require_component(params, component)
    if _require_int(depth, "depth") < 1:
        raise ValueError(f"depth must be an integer >= 1, got {short_repr(depth)}")
    if (t_range.span // n + 1) * depth > MAX_QUIVER_NODES:
        raise ValueError(
            f"quiver window t in [{short_repr(t_range.lo)}, {short_repr(t_range.hi)}] "
            f"to depth {short_repr(depth)} scans more than {MAX_QUIVER_NODES} nodes"
        )
    first = t_range.lo + (component - t_range.lo) % n
    return QuiverWindow(params, component, tuple(
        Arc(t, u)
        for t in range(first, t_range.hi + 1, n)
        for u in range(t + n + 1, t + depth * n + 2, n)  # rows 1..depth
        if columns is None or columns.lo <= t + u <= columns.hi
    ))
