"""Grothendieck group presentations of non-crossing arc families.

The split group on a family is free on its member arcs.  Every almost-split
triangle whose visible arcs all lie in the family folds into a higher-angle
relation; collecting these relation vectors and reducing the quotient by
Smith normal form yields invariant factors, a free rank, and an explicit
class for each generator.  Relations are kept as their nonzero (generator,
coefficient) pairs, the row format of `IntMatrix`, from the triangle that
yields them to the matrix that `smith_normal_form` reduces.

The reduction gets that matrix in top-first order.  A relation's top is its
longest arc; for a non-crossing family it carries a +-1 coefficient, it is
strictly longer than every other arc of its relation, and no two relations
share it.  Rows are sorted by top length, longest first (ties keep relation
order), and columns are the tops in row order followed by the other members
in (t, u) order.  The matrix is then upper triangular with +-1 on the
diagonal, so Smith's pivot rule takes every diagonal entry in turn and needs
no row operation.  The order only decides speed: the Smith reduction and its
self-check certify every result whatever the matrix looks like.  It also
fixes the free coordinates: each non-top arc maps to its own unit vector,
non-top arcs in (t, u) order, up to the orientation of `Cokernel` (in each
coordinate, the first member with a nonzero value gets a positive one).

For a finite truncation of the canonical staircase family these relations
are exactly the ones needed to collapse the group to Z.  For an arbitrary
user family the list may omit relations that only become visible in a
larger family, so the computed group surjects onto the true one; reports
for such input are labeled "upper-bound presentation" and never claim more.
"""

from __future__ import annotations

from collections.abc import Iterable

from .angulation import MAX_CANONICAL_MEMBERS, ArcFamily, canonical_family, require_noncrossing
from .arcs import Arc, CategoryParams, FrozenValue, short_repr, tau
from .intlinalg import IntMatrix, cokernel_from, dense_row, smith_normal_form
from .quiver import arrows_from


class K0Basis(FrozenValue):
    """A family viewed as an ordered free basis; member i is generator i."""

    __slots__ = _fields = ("family",)
    family: ArcFamily

    @property
    def size(self) -> int:
        return len(self.family.arcs)


class RelationVector(FrozenValue):
    """An integer relation on `generators` basis elements, sign-normalized for dedup.

    `terms` are the nonzero (generator, coefficient) pairs in ascending
    order, the row format of `IntMatrix`.  The first coefficient is
    positive; a relation and its negation generate the same subgroup, so
    only the normal form is ever stored.
    """

    __slots__ = _fields = ("generators", "terms")
    generators: int
    terms: tuple[tuple[int, int], ...]

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The dense coefficient vector, built on each access."""
        return dense_row(self.terms, self.generators)

    @classmethod
    def normalized(cls, generators: int, terms: Iterable[tuple[int, int]]) -> "RelationVector":
        kept = sorted((j, x) for j, x in terms if x)
        if kept and kept[0][1] < 0:
            kept = [(j, -x) for j, x in kept]
        return cls(generators, tuple(kept))


def _require_params(params: CategoryParams, family: ArcFamily) -> None:
    if params != family.params:
        raise ValueError(
            f"parameter mismatch: n = {params.n} vs family n = {family.params.n}"
        )


def ar_relations(params: CategoryParams, basis: K0Basis) -> list[RelationVector]:
    """Relation vectors from almost-split triangles visible in the family.

    Two shapes contribute, both derived from the triangle tau(end) ->
    middle -> end folded into an (n + 3)-angle:

      * end in the family, middle inside the family:
            (1 + (-1)^n) * e_end + (-1)^(n + 1) * sum(e_mid) = 0
      * start in the family, middle (= arrow targets of start) inside:
            (1 + (-1)^n) * e_start - sum(e_mid) = 0

    The start arc of the first shape and the end arc of the second need not
    belong to the family; they are spliced away and never appear in the
    vector.  The middle is distinct arcs, never empty and never the anchor,
    so every vector has a +-1 entry and none is zero.  For odd n the two shapes
    can emit the same vector, so results are deduplicated.  Order: all
    end-shape relations in generator order, then all start-shape relations
    in generator order.  Raises ValueError when `params` is not the family's.
    """
    _require_params(params, basis.family)
    index = basis.family.index
    diag = 1 + (-1) ** params.n  # 0 for odd n, 2 for even n
    # (middle of the triangle at the anchor arc, sign of its entries); a middle
    # is the arrow targets of its start, as in `quiver.ar_triangle`
    shapes = (
        (lambda end: arrows_from(params, tau(params, end)), (-1) ** (params.n + 1)),
        (lambda start: arrows_from(params, start), -1),
    )
    out: dict[tuple[tuple[int, int], ...], RelationVector] = {}  # first of each, in order
    for middle_of, sign in shapes:
        for j, anchor in enumerate(basis.family.arcs):
            middle = middle_of(anchor)
            if all(m in index for m in middle):
                terms = [(index[m], sign) for m in middle] + [(j, diag)]
                rel = RelationVector.normalized(basis.size, terms)
                out.setdefault(rel.terms, rel)
    return list(out.values())


def _classes_json(arcs: tuple[Arc, ...], classes: tuple[tuple[int, ...], ...]) -> dict:
    return {f"[{a.t},{a.u}]": list(c) for a, c in zip(arcs, classes)}


class K0Presentation(FrozenValue):
    """The reduced quotient of the split group by the visible relations."""

    __slots__ = _fields = ("basis", "relations", "invariant_factors", "free_rank", "classes")
    basis: K0Basis
    relations: tuple[RelationVector, ...]
    invariant_factors: tuple[int, ...]
    free_rank: int
    classes: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        family = self.basis.family
        m = len(family)
        # the family itself decides, so every input channel gets the same label;
        # no canonical truncation is larger than MAX_CANONICAL_MEMBERS
        canonical = 0 < m <= MAX_CANONICAL_MEMBERS and family == canonical_family(family.params, m)
        truncation = m if canonical else None
        return {
            "n": family.params.n,
            "generators": m,
            "invariant_factors": list(self.invariant_factors),
            "free_rank": self.free_rank,
            "classes": _classes_json(family.arcs, self.classes),
            "relations_used": len(self.relations),
            "truncation": truncation,
            "label": "upper-bound presentation" if truncation is None else "canonical truncation",
        }


MAX_CLASS_CELLS = 4_000_000
"""The most cells a presentation's class table may have: generators times rank.

The table has one row per generator and one column per invariant factor or
free coordinate, so it has at least g * (g - |R|) cells for g generators
and |R| relations: the rank is at most |R|.  `k0_presentation` refuses a
family past this bound with ValueError before reducing anything.  A family
of 2000 disjoint arcs, with no relations, sits at the bound: `k0 present`
streams its 36 MB of JSON with 78 MB peak RSS (Python 3.11, 2-CPU x86-64
host).  The largest table of the benchmark's present-windows jobs has
159 * 158 cells, about 160 times below it.
"""


MAX_RELATIONS = 1000
"""The most relations `k0_presentation` reduces.

In top-first order the reduction's time is quadratic in the relation
count, but its V fills a dense triangle of about m^2 / 2 entries for m
relations.  On a 2-CPU x86-64 host with Python 3.11, `k0 verify -n 4
--m 1001` took 0.9-1.2 s and 83 MB peak RSS, n in {1, 3} 0.5 s and 45 MB,
and m = 750 0.65 s and 52 MB (medians of 5).  Memory grows as the square
of the limit, so it stays until the reduction builds no V.  A family past
the limit raises ValueError before the reduction, so `k0 verify --m` tops
out at m = 1001.
"""


def require_relation_count(g: int, rels: int) -> None:
    """Raise ValueError when g generators with rels relations pass MAX_RELATIONS.

    A canonical truncation of m arcs has m - 1 relations, so its callers
    check (m, m - 1) before the family is built.
    """
    if rels > MAX_RELATIONS:
        raise ValueError(f"{g} generators give {rels} relations, more than {MAX_RELATIONS}")


def _top_first(family: ArcFamily, relations: list[RelationVector]) -> tuple[IntMatrix, list[int]]:
    """The relation matrix in top-first order, and the column of each member.

    See the module docstring for the order.  A relation whose longest arc is
    not unique takes the first in member order; a top shared by two
    relations gets one column.  Neither happens on a non-crossing family.
    """
    arcs = family.arcs
    length = [a.u - a.t for a in arcs]
    tops = [max((j for j, _ in r.terms), key=length.__getitem__) for r in relations]
    order = sorted(range(len(relations)), key=lambda i: -length[tops[i]])
    columns = list(dict.fromkeys(tops[i] for i in order))
    others = set(range(len(arcs))).difference(columns)
    columns += sorted(others, key=lambda j: (arcs[j].t, arcs[j].u))
    pos = [0] * len(arcs)
    for p, j in enumerate(columns):
        pos[j] = p
    terms = tuple(tuple(sorted((pos[j], x) for j, x in relations[i].terms)) for i in order)
    return IntMatrix(len(relations), len(arcs), terms), pos


def k0_presentation(params: CategoryParams, family: ArcFamily) -> K0Presentation:
    """Present the quotient group of a non-crossing family.

    Raises ValueError when the family crosses itself (the construction is
    only meaningful on non-crossing input), when it has more than
    MAX_RELATIONS relations, and when its class table would exceed
    MAX_CLASS_CELLS.  The class map sends every relation vector to zero
    exactly.
    """
    _require_params(params, family)
    require_noncrossing(family)
    basis = K0Basis(family)
    relations = ar_relations(params, basis)
    g, rels = basis.size, len(relations)
    require_relation_count(g, rels)
    if g * (g - rels) > MAX_CLASS_CELLS:
        raise ValueError(
            f"{g} generators with {rels} relations give a class table of at least "
            f"{g * (g - rels)} cells, more than {MAX_CLASS_CELLS}"
        )
    matrix, pos = _top_first(family, relations)
    coker = cokernel_from(smith_normal_form(matrix), pos)
    return K0Presentation(
        basis=basis,
        relations=tuple(relations),
        invariant_factors=coker.invariant_factors,
        free_rank=coker.free_rank,
        classes=coker.classes,
    )


def expected_canonical_class(params: CategoryParams, i: int) -> int:
    """The proven class of the i-th canonical arc when the group is Z.

    Even n: the i-th arc maps to i.  Odd n: arcs of even index map to 0 and
    arcs of odd index 2k + 1 map to (-1)^k.
    """
    if params.n % 2 == 0:
        return i
    if i % 2 == 0:
        return 0
    return (-1) ** ((i - 1) // 2)


class TheoremReport(FrozenValue):
    """Outcome of checking one canonical truncation against the known answer."""

    __slots__ = _fields = (
        "params", "truncation", "free_rank", "invariant_factors", "classes", "relations_used",
        "passed", "first_violation",
    )
    params: CategoryParams
    truncation: int
    free_rank: int
    invariant_factors: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    relations_used: int
    passed: bool
    first_violation: str | None

    def to_json_dict(self) -> dict:
        arcs = canonical_family(self.params, self.truncation).arcs
        return {
            "n": self.params.n,
            "m": self.truncation,
            "passed": self.passed,
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors),
            "classes": _classes_json(arcs, self.classes),
            "relations_used": self.relations_used,
            "first_violation": self.first_violation,
        }


def verify_theorem(params: CategoryParams, m: int) -> TheoremReport:
    """Check that the canonical truncation of size m presents Z correctly.

    Expected: free rank 1, no torsion, the first generator at +1, and every
    generator class matching the even/odd formula.  The report carries the
    first violation found, if any; it never raises on a mathematical
    failure.  Past MAX_CANONICAL_MEMBERS or MAX_RELATIONS it raises
    ValueError before the family is built; `canonical_family` refuses the
    former first.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 2:
        raise ValueError(f"truncation m must be an integer >= 2, got {short_repr(m)}")
    if m <= MAX_CANONICAL_MEMBERS:
        require_relation_count(m, m - 1)
    family = canonical_family(params, m)
    pres = k0_presentation(params, family)

    violation: str | None = None
    if pres.free_rank != 1:
        violation = f"free rank is {pres.free_rank}, expected 1"
    elif pres.invariant_factors:
        violation = f"unexpected torsion {list(pres.invariant_factors)}"
    else:
        for i in range(1, m + 1):
            want = expected_canonical_class(params, i)
            got = pres.classes[i - 1]
            if got != (want,):
                a = family.arcs[i - 1]
                violation = (
                    f"generator {i} = ({a.t}, {a.u}) has class {got[0]}, expected {want}"
                )
                break
    return TheoremReport(
        params=params,
        truncation=m,
        free_rank=pres.free_rank,
        invariant_factors=pres.invariant_factors,
        classes=pres.classes,
        relations_used=len(pres.relations),
        passed=violation is None,
        first_violation=violation,
    )
