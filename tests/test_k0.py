"""Tests for the Grothendieck group presentation and the rank-one theorem."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ArcFamily,
    CategoryParams,
    K0Basis,
    RelationVector,
    ar_relations,
    canonical_family,
    expected_canonical_class,
    k0_presentation,
    verify_theorem,
)


def canon(n, m):
    p = CategoryParams(n)
    return p, canonical_family(p, m)


# --------------------------------------------------------- RelationVector


def test_normalized_flips_leading_negative():
    assert RelationVector.normalized([0, -2, 1]).coefficients == (0, 2, -1)
    assert RelationVector.normalized([0, 2, -1]).coefficients == (0, 2, -1)
    assert RelationVector.normalized([0, 0]).coefficients == (0, 0)
    assert RelationVector.normalized([]).coefficients == ()


# ------------------------------------------------------------ ar_relations


def test_relations_n3_m6_frozen():
    p, f = canon(3, 6)
    rels = ar_relations(p, K0Basis(f))
    assert [r.coefficients for r in rels] == [
        (0, 1, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, 1),
        (1, 0, 1, 0, 0, 0),
        (0, 0, 1, 0, 1, 0),
    ]


def test_relations_n2_m3_frozen():
    p, f = canon(2, 3)
    rels = ar_relations(p, K0Basis(f))
    assert [r.coefficients for r in rels] == [(2, -1, 0), (1, -2, 1)]


def test_basis_index_is_the_family_index():
    _, f = canon(3, 6)
    assert K0Basis(f).index is f.index


def test_relations_singleton_family():
    p, f = canon(3, 1)
    assert ar_relations(p, K0Basis(f)) == []


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("m", [2, 5, 12, 40])
def test_relations_are_normalized_nonzero_distinct(n, m):
    p, f = canon(n, m)
    rels = ar_relations(p, K0Basis(f))
    seen = set()
    for r in rels:
        assert any(r.coefficients)
        lead = next(x for x in r.coefficients if x != 0)
        assert lead > 0
        assert r.coefficients not in seen
        seen.add(r.coefficients)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("m", [2, 7, 23, 40])
def test_relations_vanish_on_expected_classes(n, m):
    # soundness: the closed-form class values satisfy every emitted relation
    p, f = canon(n, m)
    expected = [expected_canonical_class(p, i) for i in range(1, m + 1)]
    for r in ar_relations(p, K0Basis(f)):
        assert sum(c * x for c, x in zip(r.coefficients, expected, strict=True)) == 0


# --------------------------------------------------------- k0_presentation


def test_presentation_even_n_counts_up():
    p, f = canon(2, 6)
    pres = k0_presentation(p, f)
    assert pres.free_rank == 1
    assert pres.invariant_factors == ()
    assert pres.classes == ((1,), (2,), (3,), (4,), (5,), (6,))
    assert pres.class_of(Arc(-3, 6)) == (4,)


def test_presentation_odd_n_alternates():
    p, f = canon(3, 6)
    pres = k0_presentation(p, f)
    assert pres.free_rank == 1
    assert pres.classes == ((1,), (0,), (-1,), (0,), (1,), (0,))


def test_presentation_without_relations_is_free_on_generators():
    p = CategoryParams(3)
    f = ArcFamily(p, [Arc(1, 5), Arc(100, 104)])
    pres = k0_presentation(p, f)
    assert pres.relations == ()
    assert pres.free_rank == 2
    assert pres.classes == ((1, 0), (0, 1))


def test_presentation_orientation_is_stable():
    for n in range(1, 7):
        p, f = canon(n, 9)
        assert k0_presentation(p, f).classes[0] == (1,)


def test_relations_project_to_zero():
    p, f = canon(4, 10)
    pres = k0_presentation(p, f)
    zero = (0,) * (pres.free_rank + len(pres.invariant_factors))
    for r in pres.relations:
        assert pres.project(r.coefficients) == zero


def test_presentation_rejects_crossing_family():
    p = CategoryParams(3)
    f = ArcFamily(p, [Arc(1, 5), Arc(3, 7)])
    with pytest.raises(ValueError, match="not non-crossing"):
        k0_presentation(p, f)


def test_presentation_rejects_params_mismatch():
    p3, f = canon(3, 4)
    with pytest.raises(ValueError, match="parameter mismatch"):
        k0_presentation(CategoryParams(2), f)


def test_class_of_unknown_arc():
    p, f = canon(2, 3)
    with pytest.raises(KeyError):
        k0_presentation(p, f).class_of(Arc(50, 54))


def test_presentation_json_shape():
    p, f = canon(3, 2)
    out = k0_presentation(p, f).to_json_dict(truncation=2)
    assert out["n"] == 3
    assert out["generators"] == 2
    assert out["invariant_factors"] == []
    assert out["free_rank"] == 1
    assert out["classes"] == {"[1,5]": [1], "[-2,5]": [0]}
    assert out["relations_used"] == 1
    assert out["truncation"] == 2


# ------------------------------------------------------- expected classes


@given(st.integers(1, 8), st.integers(1, 200))
def test_expected_class_closed_form(n, i):
    p = CategoryParams(n)
    v = expected_canonical_class(p, i)
    if n % 2 == 0:
        assert v == i
    elif i % 2 == 0:
        assert v == 0
    else:
        assert v == (-1) ** ((i - 1) // 2)


# ----------------------------------------------------------- the theorem


@pytest.mark.parametrize("n,m", [(1, 10), (2, 8), (3, 2), (4, 12), (7, 15)])
def test_theorem_holds(n, m):
    report = verify_theorem(CategoryParams(n), m)
    assert report.passed
    assert report.free_rank == 1
    assert report.invariant_factors == ()
    assert report.first_violation is None
    assert report.classes[0] == (1,)


def test_theorem_minimal_truncation_uses_one_relation():
    report = verify_theorem(CategoryParams(3), 2)
    assert report.relations_used == 1
    assert report.classes == ((1,), (0,))


def test_theorem_rejects_tiny_m():
    with pytest.raises(ValueError):
        verify_theorem(CategoryParams(3), 1)


def test_theorem_report_carries_its_arcs_outside_equality():
    report = verify_theorem(CategoryParams(3), 4)
    assert report.arcs == canonical_family(CategoryParams(3), 4).arcs
    assert report == replace(report, arcs=())
    assert "arcs" not in repr(report)


def test_theorem_report_json():
    out = verify_theorem(CategoryParams(2), 3).to_json_dict()
    assert out["n"] == 2
    assert out["m"] == 3
    assert out["passed"] is True
    assert out["free_rank"] == 1
    assert out["classes"] == {"[1,4]": [1], "[-1,4]": [2], "[-1,6]": [3]}
    assert out["first_violation"] is None
