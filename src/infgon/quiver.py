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
with 331 MB peak RSS, and `quiver window` 21.9 MB of JSON with 305 MB
(Python 3.11, 2-CPU x86-64 host).  It is ten times the 20 000-node ceiling
of the benchmark's quiver jobs.
"""


def _require_component(params: CategoryParams, component: object) -> None:
    n = params.n
    if not 0 <= _require_int(component, "component") < n:
        raise ValueError(
            f"component {short_repr(component)} out of range for n = {short_repr(n)} "
            f"(expected 0..{short_repr(n - 1)})"
        )


class QuiverWindow(FrozenValue):
    """A finite rectangle of one quiver component, with the arrows inside it.

    Construction checks on (t, u) pairs that the nodes are admissible, distinct
    and in the component, one of the n, and that every arrow is an irreducible
    map between two nodes, raising ValueError that names the first bad one.
    `arrow_index` holds the positions of each arrow's ends, found by that
    check (not compared, not shown).
    """

    _fields = ("params", "component", "nodes", "arrows")
    __slots__ = (*_fields, "arrow_index")
    params: CategoryParams
    component: int
    nodes: tuple[Arc, ...]
    arrows: tuple[tuple[Arc, Arc], ...]
    arrow_index: tuple[tuple[int, int], ...]

    def __init__(
        self,
        params: CategoryParams,
        component: int,
        nodes: tuple[Arc, ...],
        arrows: tuple[tuple[Arc, Arc], ...],
    ) -> None:
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
        pairs = []
        for s, e in arrows:
            t, u, et, eu = s.t, s.u, e.t, e.u
            i, j = index.get((t, u)), index.get((et, eu))
            if i is None or j is None:
                raise ValueError(f"arrow {arc_text(s)} -> {arc_text(e)}: an end is not a node")
            if et + eu != t + u + n or et != t and eu != u:  # not (t, u + n) nor (t + n, u)
                raise ValueError(f"arrow {arc_text(s)} -> {arc_text(e)} is not an irreducible map")
            pairs.append((i, j))
        super().__init__(params, component, nodes, arrows)
        object.__setattr__(self, "arrow_index", tuple(pairs))

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

    nodes: dict[tuple[int, int], Arc] = {}  # t ascending, then u: (t, u) order
    first = t_range.lo + (component - t_range.lo) % n
    for t in range(first, t_range.hi + 1, n):
        for u in range(t + n + 1, t + depth * n + 2, n):  # rows 1..depth
            if columns is None or columns.lo <= t + u <= columns.hi:
                nodes[t, u] = Arc(t, u)
    # the targets of `_arrow_targets` in its order: one that is not admissible is no node
    arrows = [(a, b) for (t, u), a in nodes.items()
              for b in (nodes.get((t, u + n)), nodes.get((t + n, u))) if b is not None]
    return QuiverWindow(params, component, tuple(nodes.values()), tuple(arrows))
