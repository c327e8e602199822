"""Pairwise non-crossing arc families and window-relative maximality.

A maximal non-crossing family plays the role of a polygon division with
infinitely many marked points.  True maximality quantifies over all
integers, which is undecidable for raw input, so this module works with a
window-local surrogate: a family is certified maximal *inside a window*
when no admissible arc within that window can be added without a crossing.
That certificate is exhaustively checkable and is all the CLI ever claims.

Completion and the certificate share one greedy scan over the integer
pairs (t, u) of the window's admissible arcs, in (t, u) order.  Two lists
indexed by window point make each crossing test O(1).  Each row t is cut
at the least right end of a kept arc over t, since every candidate past it
crosses that arc, and only an arc the scan keeps is built as an `Arc`.
Keeping an arc costs its length.

Also here: the canonical staircase family used throughout the tests (its
members alternately widen to the right and to the left).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from .arcs import (
    Arc,
    CategoryParams,
    FrozenValue,
    Window,
    arc_text,
    crosses,
    minimal_length,
    require_admissible,
    require_inside,
    require_window_within_limit,
    short_repr,
)

CANONICAL_TAG = "canonical"


class ArcFamily(FrozenValue):
    """An ordered, duplicate-free collection of admissible arcs.

    Construction validates every member, so a live ArcFamily never holds an
    inadmissible or unnormalized arc.  Order is preserved: it is the
    generator order for group presentations, and `index` maps each member
    to its position in it (not compared, not shown).
    """

    _fields = ("params", "arcs")
    __slots__ = (*_fields, "index")
    params: CategoryParams
    arcs: tuple[Arc, ...]
    index: dict[Arc, int]

    def __init__(self, params: CategoryParams, arcs: tuple[Arc, ...]) -> None:
        arcs = tuple(arcs)
        index: dict[Arc, int] = {}
        for i, a in enumerate(arcs):
            require_admissible(params, a)
            if index.setdefault(a, i) != i:
                raise ValueError(f"duplicate arc {arc_text(a)} in family")
        super().__init__(params, arcs)
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.arcs)

    def __iter__(self):
        return iter(self.arcs)

    def __contains__(self, a: object) -> bool:
        return a in self.index

    def to_json_dict(self) -> dict:
        return {"n": self.params.n, "arcs": [a.to_json() for a in self.arcs]}


def parse_family(payload: object, params: CategoryParams | None = None) -> ArcFamily:
    """Build an ArcFamily from wire-format JSON.

    Accepted shapes: a bare array of [t, u] pairs (needs `params`), an
    object {"n": ..., "arcs": [...]}, or the symbolic form
    {"n": ..., "family": "canonical", "m": ...}.  A parameter mismatch
    between `params` and an embedded "n" is an error, never silently
    resolved.
    """
    if isinstance(payload, list):
        if params is None:
            raise ValueError("bare arc array given but parameter n is unknown")
        return ArcFamily(params, tuple(Arc.from_json(item) for item in payload))
    if not isinstance(payload, dict):
        raise ValueError(f"family must be a JSON array or object, got {short_repr(payload)}")

    embedded = payload.get("n")
    if "n" not in payload:
        if params is None:
            raise ValueError("family object is missing field 'n' and no -n flag was given")
        n = params.n
    else:
        if isinstance(embedded, bool) or not isinstance(embedded, int):
            raise ValueError(f"field 'n' must be an integer, got {short_repr(embedded)}")
        if params is not None and params.n != embedded:
            raise ValueError(
                f"parameter mismatch: -n {params.n} vs field 'n' = {embedded}"
            )
        n = embedded
    p = CategoryParams(n)

    if CANONICAL_TAG == payload.get("family"):
        m = payload.get("m")
        if isinstance(m, bool) or not isinstance(m, int):
            raise ValueError(
                f"symbolic canonical family needs an integer field 'm', got {short_repr(m)}"
            )
        return canonical_family(p, m)
    if "family" in payload:
        raise ValueError(f"unknown symbolic family tag {short_repr(payload['family'])}")
    if "arcs" not in payload:
        raise ValueError("family object needs an 'arcs' array or a symbolic 'family' tag")
    arcs_field = payload["arcs"]
    if not isinstance(arcs_field, list):
        raise ValueError(f"field 'arcs' must be an array, got {short_repr(arcs_field)}")
    return ArcFamily(p, tuple(Arc.from_json(item) for item in arcs_field))


def validate_noncrossing(f: ArcFamily) -> tuple[Arc, Arc] | None:
    """None when the family is pairwise non-crossing, else the first bad pair.

    "First" means lexicographically smallest, each pair ordered internally,
    independent of the family's member order.

    A sweep in (t, -u) order keeps the open arcs on a stack, each nested in
    the one below.  An arc crosses some earlier arc exactly when, once the
    arcs ending by its start are popped, the top ends strictly inside it.
    So a non-crossing family costs one sort.  A crossing family also pays
    for `_first_crossing_pair`, which costs O(m log m) more.
    """
    stack: list[Arc] = []
    for a in sorted(f.arcs, key=lambda a: (a.t, -a.u)):
        while stack and stack[-1].u <= a.t:
            stack.pop()
        if stack and a.t < stack[-1].u < a.u:
            return _first_crossing_pair(sorted(f.arcs))
        stack.append(a)
    return None


def _first_crossing_pair(arcs: list[Arc]) -> tuple[Arc, Arc]:
    """The lexicographically first crossing pair (x, y), x < y, of sorted arcs.

    An arc y > x crosses x exactly when x.t < y.t < x.u < y.u.  The arcs
    starting in (x.t, x.u) are one slice of the sorted list, so x crosses a
    larger arc when the greatest right end in that slice exceeds x.u.  A
    sparse table answers that range maximum in O(1).  x is the first arc
    that passes; y is the first arc of its slice that crosses it.
    """
    starts = [a.t for a in arcs]
    # ends[k][i]: the greatest right end among arcs[i : i + 2**k]
    ends = [[a.u for a in arcs]]
    half = 1
    while 2 * half <= len(arcs):
        prev = ends[-1]
        ends.append([max(p, q) for p, q in zip(prev, prev[half:])])
        half *= 2
    for x in arcs:
        i, j = bisect_right(starts, x.t), bisect_left(starts, x.u)
        if i < j:
            k = (j - i).bit_length() - 1
            if max(ends[k][i], ends[k][j - (1 << k)]) > x.u:
                return x, next(arcs[q] for q in range(i, j) if crosses(x, arcs[q]))
    raise AssertionError("the sweep found a crossing that the slice scan misses")


def require_noncrossing(f: ArcFamily) -> None:
    """Raise ValueError naming the first crossing pair, if f has one."""
    pair = validate_noncrossing(f)
    if pair is not None:
        (a, b) = pair
        raise ValueError(f"family is not non-crossing: {arc_text(a)} crosses {arc_text(b)}")


def _greedy_additions(f: ArcFamily, w: Window) -> Iterator[Arc]:
    """The arcs that greedy completion of f inside w adds, in (t, u) order.

    A candidate is kept when it crosses neither f nor any arc kept before
    it, so the first arc yielded is the smallest arc addable to f.  The
    preconditions (w holds at most MAX_WINDOW_ARCS arcs, every member
    inside w, f non-crossing) are checked on the first step and raise
    ValueError.

    The scan walks integer pairs row by row and builds an `Arc` only for
    an arc it yields.  A candidate (t, u) crosses a kept arc (a, b) when
    a < t < b < u or t < a < u < b.  For the first case, `right[p]` holds
    the least right end of a kept arc with a < p < b, and the candidate
    crosses exactly when u > right[t].  Each kept arc lowers `right` over
    its inside, which leaves out its own start, so an arc kept in row t
    (it shares the endpoint t with every candidate of the row) leaves
    right[t] alone.  So right[t] is fixed for the whole row, and the row
    stops at min(right[t], w.hi) with no loss: everything past that bound
    crosses.  In the second case the arc starts after t, and every arc
    kept during the scan starts at or before t, so only members of f
    count: `left[p]` holds the greatest left end of a member with
    a < p < b, never changes, and the test is left[u] > t.
    """
    require_window_within_limit(f.params, w)
    require_inside(w, f.arcs)
    require_noncrossing(f)
    lo = w.lo
    right = [w.hi + 1] * (w.span + 1)
    left = [lo - 1] * (w.span + 1)
    for a in f.arcs:
        for p in range(a.t + 1 - lo, a.u - lo):
            right[p] = min(right[p], a.u)
            left[p] = max(left[p], a.t)
    members = {(a.t, a.u) for a in f.arcs}
    step, shortest = f.params.n, minimal_length(f.params)
    for t in range(lo, w.hi - 1):
        for u in range(t + shortest, min(right[t - lo], w.hi) + 1, step):
            if left[u - lo] > t or (t, u) in members:
                continue
            for p in range(t + 1 - lo, u - lo):
                if right[p] > u:
                    right[p] = u
            yield Arc(t, u)


def is_maximal_in_window(f: ArcFamily, w: Window) -> Arc | None:
    """None when no admissible arc inside w can be added, else a witness.

    The witness is the lexicographically smallest addable arc.  This is the
    window-local certificate only; it says nothing about arcs outside w.
    Precondition violations (member outside w, or a crossing inside f)
    raise ValueError instead of returning a verdict.
    """
    return next(_greedy_additions(f, w), None)


def complete_in_window(f: ArcFamily, w: Window) -> ArcFamily:
    """Greedily extend f to a family that is maximal inside the window.

    Candidates are tried in (t, u) order and kept when they cross nothing
    accepted so far, so the result is deterministic and idempotent.  The
    input arcs are preserved, in order, at the front.
    """
    return ArcFamily(f.params, f.arcs + tuple(_greedy_additions(f, w)))


MAX_CANONICAL_MEMBERS = 200_000
"""The most members `canonical_family` builds.

It equals `quiver.MAX_QUIVER_NODES`, so the highlight of `render quiver`,
clamped to the window's depth, never trips it.  2 * 10**5 members took
0.7 s and 69 MB on a 2-CPU x86-64 host with Python 3.11; a larger m raises
ValueError before any arc is built.
"""


def canonical_family(params: CategoryParams, m: int) -> ArcFamily:
    """The first m arcs of the staircase family.

    Arc 1 is (1, n + 2); arc 2k is (1 - kn, 2 + kn); arc 2k + 1 is
    (1 - kn, 2 + (k + 1)n).  Consecutive members share an endpoint and the
    family is pairwise non-crossing and locally finite for every n.  m may
    be at most MAX_CANONICAL_MEMBERS.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"family size m must be an integer >= 1, got {short_repr(m)}")
    if m > MAX_CANONICAL_MEMBERS:
        raise ValueError(
            f"canonical family of {short_repr(m)} members is larger than "
            f"{MAX_CANONICAL_MEMBERS}"
        )
    n = params.n
    arcs: list[Arc] = []
    for i in range(1, m + 1):
        k = i // 2
        if i % 2 == 0:
            arcs.append(Arc(1 - k * n, 2 + k * n))
        else:
            arcs.append(Arc(1 - k * n, 2 + (k + 1) * n))
    return ArcFamily(params, tuple(arcs))
