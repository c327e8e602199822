"""Admissible arcs on the infinity-gon and the shift functors acting on them.

The vertex set is the integers on a horizontal line.  An arc joins two
integers t < u, and for a fixed parameter n >= 1 it is called n-admissible
when u - t >= 2 and u - t is congruent to 1 modulo n.  Admissible arcs index
the indecomposable objects of the model; everything else in this package
(quiver combinatorics, non-crossing families, group presentations) is built
on top of the operations defined here.

All arithmetic is exact: endpoints are plain Python integers and no
operation ever rounds or truncates.

Every value class of the package, here and in the other modules, is a
frozen class on `FrozenValue`, not a dataclass: importing `dataclasses`
(with `inspect`) and generating the classes took 8-10 ms of a 70 ms
`arcs enumerate` process and 11 ms of a 77 ms `k0 verify` one (Python 3.11,
2-CPU x86-64 host).  `FrozenValue` owns the one constructor that sets the
fields; a subclass that checks its arguments does so and then calls it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import attrgetter


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


_setattr = object.__setattr__  # looked up once: arcs are built in the hottest loops


class FrozenValue:
    """Base of the frozen value classes: construction, equality, hash and repr over `_fields`.

    A subclass names its fields in `_fields`, in constructor order, and
    keeps them in `__slots__`, with any derived slot that is neither
    compared nor shown (`ArcFamily.index`).  The one constructor binds the
    fields by position and by keyword and sets each slot once; a subclass
    that checks its arguments does so first and then calls it.  Only a
    derived slot, and `Arc`, the hottest constructor, set a slot directly.
    Assigning or deleting an attribute afterwards raises AttributeError.
    Equality holds only between instances of the same class, and hash,
    repr, copy and pickle go through the fields, as for a frozen dataclass.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _values: tuple  # the fields' values, in order

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls._fields)
        # attrgetter gives the bare value for one name and a tuple for several
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # a missing, extra, doubled or unknown argument fails one of these two tests
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(fields)}")
        for name in fields:
            _setattr(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # rebuilt through __init__, which sets the slots that assignment refuses
        return type(self), self._values


class CategoryParams(FrozenValue):
    """The single model parameter n >= 1."""

    __slots__ = _fields = ("n",)
    n: int

    def __init__(self, n: int) -> None:
        _require_int(n, "parameter n")
        if n < 1:
            raise ValueError(f"parameter n must be >= 1, got {short_repr(n)}")
        super().__init__(n)


class Arc(FrozenValue):
    """An arc (t, u) with integer endpoints t < u.

    Instances are immutable and ordered lexicographically by (t, u), which is
    the canonical order used for enumeration and reporting.  Construction
    rejects unnormalized input rather than silently swapping endpoints.
    """

    __slots__ = _fields = ("t", "u")
    t: int
    u: int

    def __init__(self, t: int, u: int) -> None:
        if not (type(t) is int and type(u) is int and t < u):  # the common case skips the checks
            _require_int(t, "arc endpoint t")
            _require_int(u, "arc endpoint u")
            if t >= u:
                raise ValueError(
                    f"arc ({short_repr(t)}, {short_repr(u)}): endpoints must satisfy t < u"
                )
        _setattr(self, "t", t)
        _setattr(self, "u", u)

    # `a > b` and `a >= b` are the reflections `b < a` and `b <= a`
    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values <= other._values
        return NotImplemented

    @property
    def length(self) -> int:
        return self.u - self.t

    def to_json(self) -> list[int]:
        return [self.t, self.u]

    @classmethod
    def from_json(cls, data: object) -> "Arc":
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise ValueError(f"arc must be a two-element array [t, u], got {short_repr(data)}")
        return cls(*data)  # the constructor checks both endpoints


class Window(FrozenValue):
    """A closed integer interval [lo, hi] with lo < hi."""

    __slots__ = _fields = ("lo", "hi")
    lo: int
    hi: int

    def __init__(self, lo: int, hi: int) -> None:
        _require_int(lo, "window lo")
        _require_int(hi, "window hi")
        if lo >= hi:
            raise ValueError(
                f"window [{short_repr(lo)}, {short_repr(hi)}]: bounds must satisfy lo < hi"
            )
        super().__init__(lo, hi)

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
    """Shortest admissible length: n + 1, which is 2 when n = 1."""
    return params.n + 1


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
`window_rows`, `enumerate_arcs`, window completion and the window-maximality
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


def window_rows(params: CategoryParams, w: Window) -> Iterator[tuple[int, range]]:
    """The admissible arcs inside the window as rows (t, range of u), lazily, in (t, u) order.

    Admissible lengths form the arithmetic progression starting at the
    minimal length with step n, so row t is a `range` and only rows that
    hold an arc are yielded.  The scan is linear in the output size and
    builds no `Arc`.  The MAX_WINDOW_ARCS check runs here, on the call, so a
    window that is too large raises ValueError before the first row is asked
    for.
    """
    require_window_within_limit(params, w)
    shortest = minimal_length(params)
    return (
        (t, range(t + shortest, w.hi + 1, params.n)) for t in range(w.lo, w.hi - shortest + 1)
    )


def enumerate_arcs(params: CategoryParams, w: Window) -> list[Arc]:
    """All admissible arcs lying inside the window, in (t, u) order.

    The `Arc` form of `window_rows`: a window holding more than
    MAX_WINDOW_ARCS arcs raises ValueError before any arc is built.
    """
    return [Arc(t, u) for t, us in window_rows(params, w) for u in us]
