"""Grothendieck group presentations of non-crossing arc families.

The split group on a family is free on its member arcs.  Every almost-split
triangle whose visible arcs all lie in the family folds into a higher-angle
relation; collecting these relation vectors and reducing the quotient by
Smith normal form yields invariant factors, a free rank, and an explicit
class for each generator.  Relations are kept as their nonzero (generator,
coefficient) pairs, the row format of `IntMatrix`, from the triangle that
yields them to the matrix that `cokernel` reduces.

For a finite truncation of the canonical staircase family these relations
are exactly the ones needed to collapse the group to Z.  For an arbitrary
user family the list may omit relations that only become visible in a
larger family, so the computed group surjects onto the true one; reports
for such input are labeled "upper-bound presentation" and never claim more.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .angulation import ArcFamily, canonical_family, require_noncrossing
from .arcs import Arc, CategoryParams, short_repr
from .intlinalg import IntMatrix, cokernel, dense_row
from .quiver import ar_triangle, arrows_from


@dataclass(frozen=True)
class K0Basis:
    """A family viewed as an ordered free basis, with arc -> index lookup."""

    family: ArcFamily

    @property
    def size(self) -> int:
        return len(self.family.arcs)


@dataclass(frozen=True)
class RelationVector:
    """An integer relation on `generators` basis elements, sign-normalized for dedup.

    `terms` are the nonzero (generator, coefficient) pairs in ascending
    order, the row format of `IntMatrix`.  The first coefficient is
    positive; a relation and its negation generate the same subgroup, so
    only the normal form is ever stored.
    """

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
    shapes = (  # (middle of the triangle at the anchor arc, sign of its entries)
        (lambda end: ar_triangle(params, end).middle, (-1) ** (params.n + 1)),
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


@dataclass(frozen=True)
class K0Presentation:
    """The reduced quotient of the split group by the visible relations."""

    basis: K0Basis
    relations: tuple[RelationVector, ...]
    invariant_factors: tuple[int, ...]
    free_rank: int
    classes: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        family = self.basis.family
        m = len(family)
        # the family itself decides, so every input channel gets the same label
        truncation = m if m and family == canonical_family(family.params, m) else None
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
of 2000 disjoint arcs, with no relations, sits at the bound and prints
36 MB of JSON; the largest table of the benchmark's present-windows jobs
has 159 * 158 cells, about 160 times below it.
"""


def k0_presentation(params: CategoryParams, family: ArcFamily) -> K0Presentation:
    """Present the quotient group of a non-crossing family.

    Raises ValueError when the family crosses itself (the construction is
    only meaningful on non-crossing input), and when its class table would
    exceed MAX_CLASS_CELLS.  The class map sends every relation vector to
    zero exactly.
    """
    _require_params(params, family)
    require_noncrossing(family)
    basis = K0Basis(family)
    relations = ar_relations(params, basis)
    g, rels = basis.size, len(relations)
    if g * (g - rels) > MAX_CLASS_CELLS:
        raise ValueError(
            f"{g} generators with {rels} relations give a class table of at least "
            f"{g * (g - rels)} cells, more than {MAX_CLASS_CELLS}"
        )
    coker = cokernel(IntMatrix(rels, g, tuple(r.terms for r in relations)))
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


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking one canonical truncation against the known answer."""

    params: CategoryParams
    truncation: int
    free_rank: int
    invariant_factors: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    relations_used: int
    passed: bool
    first_violation: str | None
    arcs: tuple[Arc, ...] = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "m": self.truncation,
            "passed": self.passed,
            "free_rank": self.free_rank,
            "invariant_factors": list(self.invariant_factors),
            "classes": _classes_json(self.arcs, self.classes),
            "relations_used": self.relations_used,
            "first_violation": self.first_violation,
        }


def verify_theorem(params: CategoryParams, m: int) -> TheoremReport:
    """Check that the canonical truncation of size m presents Z correctly.

    Expected: free rank 1, no torsion, the first generator at +1, and every
    generator class matching the even/odd formula.  The report carries the
    first violation found, if any; it never raises on a mathematical
    failure.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 2:
        raise ValueError(f"truncation m must be an integer >= 2, got {short_repr(m)}")
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
        arcs=family.arcs,
    )
