"""Pairwise non-crossing arc families and window-relative maximality.

A maximal non-crossing family plays the role of a polygon division with
infinitely many marked points.  True maximality quantifies over all
integers, which is undecidable for raw input, so this module works with a
window-local surrogate: a family is certified maximal *inside a window*
when no admissible arc within that window can be added without a crossing.
That certificate is exhaustively checkable and is all the CLI ever claims.

Also here: the canonical staircase family used throughout the tests (its
members alternately widen to the right and to the left).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .arcs import (
    Arc,
    CategoryParams,
    Window,
    arc_text,
    crosses,
    enumerate_arcs,
    require_admissible,
    require_inside,
    short_repr,
)

CANONICAL_TAG = "canonical"


@dataclass(frozen=True)
class ArcFamily:
    """An ordered, duplicate-free collection of admissible arcs.

    Construction validates every member, so a live ArcFamily never holds an
    inadmissible or unnormalized arc.  Order is preserved: it is the
    generator order for group presentations, and `index` maps each member
    to its position in it.
    """

    params: CategoryParams
    arcs: tuple[Arc, ...]
    index: dict[Arc, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        index: dict[Arc, int] = {}
        for i, a in enumerate(self.arcs):
            require_admissible(self.params, a)
            if index.setdefault(a, i) != i:
                raise ValueError(f"duplicate arc {arc_text(a)} in family")
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
    if embedded is None:
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
    """
    worst: tuple[Arc, Arc] | None = None
    arcs = f.arcs
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if crosses(arcs[i], arcs[j]):
                pair = (min(arcs[i], arcs[j]), max(arcs[i], arcs[j]))
                if worst is None or pair < worst:
                    worst = pair
    return worst


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
    preconditions (every member inside w, f non-crossing) are checked on
    the first step and raise ValueError.
    """
    require_inside(w, f.arcs)
    require_noncrossing(f)
    kept = list(f.arcs)
    for cand in enumerate_arcs(f.params, w):
        if cand not in f and not any(crosses(cand, a) for a in kept):
            kept.append(cand)
            yield cand


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


def canonical_family(params: CategoryParams, m: int) -> ArcFamily:
    """The first m arcs of the staircase family.

    Arc 1 is (1, n + 2); arc 2k is (1 - kn, 2 + kn); arc 2k + 1 is
    (1 - kn, 2 + (k + 1)n).  Consecutive members share an endpoint and the
    family is pairwise non-crossing and locally finite for every n.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"family size m must be an integer >= 1, got {m!r}")
    n = params.n
    arcs: list[Arc] = []
    for i in range(1, m + 1):
        k = i // 2
        if i % 2 == 0:
            arcs.append(Arc(1 - k * n, 2 + k * n))
        else:
            arcs.append(Arc(1 - k * n, 2 + (k + 1) * n))
    return ArcFamily(params, tuple(arcs))
