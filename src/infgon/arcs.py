"""Admissible arcs on the infinity-gon and the shift functors acting on them.

The vertex set is the integers on a horizontal line.  An arc joins two
integers t < u, and for a fixed parameter n >= 1 it is called n-admissible
when u - t >= 2 and u - t is congruent to 1 modulo n.  Admissible arcs index
the indecomposable objects of the model; everything else in this package
(quiver combinatorics, non-crossing families, group presentations) is built
on top of the operations defined here.

All arithmetic is exact: endpoints are plain Python integers and no
operation ever rounds or truncates.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass


def short_repr(value: object) -> str:
    """repr(value) for an error message, cut to 80 characters plus "..."."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def arc_text(a: Arc) -> str:
    """"(t, u)" for an error message, each endpoint through `short_repr`."""
    return f"({short_repr(a.t)}, {short_repr(a.u)})"


def _require_int(value: object, what: str) -> int:
    # bool is an int subclass; reject it so True never sneaks in as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an exact integer, got {short_repr(value)}")
    return value


@dataclass(frozen=True)
class CategoryParams:
    """The single model parameter n >= 1."""

    n: int

    def __post_init__(self) -> None:
        _require_int(self.n, "parameter n")
        if self.n < 1:
            raise ValueError(f"parameter n must be >= 1, got {short_repr(self.n)}")


@dataclass(frozen=True, order=True)
class Arc:
    """An arc (t, u) with integer endpoints t < u.

    Instances are immutable and ordered lexicographically by (t, u), which is
    the canonical order used for enumeration and reporting.  Construction
    rejects unnormalized input rather than silently swapping endpoints.
    """

    t: int
    u: int

    def __post_init__(self) -> None:
        _require_int(self.t, "arc endpoint t")
        _require_int(self.u, "arc endpoint u")
        if self.t >= self.u:
            raise ValueError(f"arc {arc_text(self)}: endpoints must satisfy t < u")

    @property
    def length(self) -> int:
        return self.u - self.t

    def to_json(self) -> list[int]:
        return [self.t, self.u]

    @classmethod
    def from_json(cls, data: object) -> "Arc":
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise ValueError(f"arc must be a two-element array [t, u], got {short_repr(data)}")
        return cls(_require_int(data[0], "arc endpoint t"), _require_int(data[1], "arc endpoint u"))


@dataclass(frozen=True)
class Window:
    """A closed integer interval [lo, hi] with lo < hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        _require_int(self.lo, "window lo")
        _require_int(self.hi, "window hi")
        if self.lo >= self.hi:
            raise ValueError(
                f"window [{short_repr(self.lo)}, {short_repr(self.hi)}]: bounds must satisfy lo < hi"
            )

    @property
    def span(self) -> int:
        return self.hi - self.lo

    def contains_arc(self, a: Arc) -> bool:
        return self.lo <= a.t and a.u <= self.hi


def require_inside(w: Window, arcs: Iterable[Arc]) -> None:
    """Raise ValueError naming the first arc that does not lie inside w."""
    for a in arcs:
        if not w.contains_arc(a):
            raise ValueError(
                f"arc {arc_text(a)} lies outside the window "
                f"[{short_repr(w.lo)}, {short_repr(w.hi)}]"
            )


def minimal_length(params: CategoryParams) -> int:
    """Shortest admissible length: 2 when n = 1, n + 1 otherwise."""
    return 2 if params.n == 1 else params.n + 1


def is_admissible(params: CategoryParams, a: Arc) -> bool:
    """True when u - t >= 2 and u - t is congruent to 1 mod n."""
    return a.length >= 2 and (a.length - 1) % params.n == 0


def require_admissible(params: CategoryParams, a: Arc) -> Arc:
    """Return the arc unchanged, or raise ValueError naming the defect."""
    if is_admissible(params, a):
        return a
    n = short_repr(params.n)
    defect = "is shorter than 2" if a.length < 2 else f"is not congruent to 1 modulo {n}"
    raise ValueError(
        f"arc {arc_text(a)} is not {n}-admissible: length {short_repr(a.length)} {defect}"
    )


def suspend(params: CategoryParams, a: Arc, k: int = 1) -> Arc:
    """Apply the suspension k times: both endpoints move down by k.

    Negative k shifts up (the inverse functor).  Admissibility only depends
    on u - t, so it is preserved for every k.
    """
    require_admissible(params, a)
    _require_int(k, "suspension power k")
    return Arc(a.t - k, a.u - k)


def tau(params: CategoryParams, a: Arc) -> Arc:
    """The translation: both endpoints move down by n."""
    return suspend(params, a, params.n)


def tau_inverse(params: CategoryParams, a: Arc) -> Arc:
    return suspend(params, a, -params.n)


def serre(params: CategoryParams, a: Arc) -> Arc:
    """The Serre shift: both endpoints move down by n + 1."""
    return suspend(params, a, params.n + 1)


def crosses(a: Arc, b: Arc) -> bool:
    """Strict interleaving of endpoints.

    Arcs sharing an endpoint do not cross, and neither do nested arcs.  The
    predicate is symmetric and irreflexive.
    """
    return a.t < b.t < a.u < b.u or b.t < a.t < b.u < a.u


def component_index(params: CategoryParams, a: Arc) -> int:
    """Which of the n quiver components the arc lives in: t mod n."""
    require_admissible(params, a)
    return a.t % params.n


MAX_WINDOW_ARCS = 2_000_000
"""The most admissible arcs a window may hold for enumeration or the greedy scan.

At n = 1 the widest window allowed has span 2000.  Past the limit
`window_pairs`, `enumerate_arcs`, window completion and the window-maximality
check raise ValueError before allocating anything: a window of n = 1, span
10**5 holds 5 * 10**9 arcs, hours of work even as streamed pairs, and far
more memory than a machine has as `Arc` objects.
"""


def window_arc_count(params: CategoryParams, w: Window) -> int:
    """The number of admissible arcs inside w, in closed form.

    Lengths d = d0 + kn for k = 0..K each fit span + 1 - d times, so the
    count is (K + 1)(span + 1 - d0) - nK(K + 1)/2.
    """
    d0 = minimal_length(params)
    if w.span < d0:
        return 0
    k = (w.span - d0) // params.n
    return (k + 1) * (w.span + 1 - d0) - params.n * k * (k + 1) // 2


def require_window_within_limit(params: CategoryParams, w: Window) -> None:
    """Raise ValueError when w holds more than MAX_WINDOW_ARCS admissible arcs."""
    if window_arc_count(params, w) > MAX_WINDOW_ARCS:
        raise ValueError(
            f"window [{short_repr(w.lo)}, {short_repr(w.hi)}] holds more than "
            f"{MAX_WINDOW_ARCS} {short_repr(params.n)}-admissible arcs"
        )


def window_pairs(params: CategoryParams, w: Window) -> Iterator[tuple[int, int]]:
    """The admissible arcs inside the window as (t, u) pairs, lazily, in (t, u) order.

    Admissible lengths form the arithmetic progression starting at the
    minimal length with step n, so the scan is linear in the output size and
    builds no `Arc`.  The MAX_WINDOW_ARCS check runs here, on the call, so a
    window that is too large raises ValueError before the first pair is
    asked for.
    """
    require_window_within_limit(params, w)
    shortest = minimal_length(params)
    return (
        (t, u) for t in range(w.lo, w.hi - 1) for u in range(t + shortest, w.hi + 1, params.n)
    )


def enumerate_arcs(params: CategoryParams, w: Window) -> list[Arc]:
    """All admissible arcs lying inside the window, in (t, u) order.

    The `Arc` form of `window_pairs`: a window holding more than
    MAX_WINDOW_ARCS arcs raises ValueError before any arc is built.
    """
    return [Arc(t, u) for t, u in window_pairs(params, w)]
