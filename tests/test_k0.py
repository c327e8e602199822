"""Tests for the Grothendieck group presentation and the rank-one theorem."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ArcFamily,
    CategoryParams,
    K0Basis,
    RelationVector,
    Window,
    ar_relations,
    ar_triangle,
    canonical_family,
    complete_in_window,
    crosses,
    enumerate_arcs,
    expected_canonical_class,
    k0_presentation,
    parse_family,
    smith_normal_form,
    verify_theorem,
)
from infgon import angulation, k0
from oracles import forge


def canon(n, m):
    p = CategoryParams(n)
    return p, canonical_family(p, m)


# --------------------------------------------------------- RelationVector


def test_normalized_flips_leading_negative():
    assert RelationVector.normalized(3, [(2, 1), (1, -2)]).coefficients == (0, 2, -1)
    assert RelationVector.normalized(3, [(1, 2), (2, -1)]).coefficients == (0, 2, -1)
    assert RelationVector.normalized(2, []).coefficients == (0, 0)
    assert RelationVector.normalized(0, []).coefficients == ()


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


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("seed", range(4))
def test_end_shape_relations_follow_the_ar_triangles(n, seed):
    # ar_relations reads each middle as arrows_from(tau(end)); `ar_triangle` is the reference
    rng = random.Random(seed)
    p = CategoryParams(n)
    lo = rng.randint(-20, 20)
    f = ArcFamily(p, enumerate_arcs(p, Window(lo, lo + rng.randint(2 * n + 1, 40))))
    want = []
    for j, end in enumerate(f.arcs):
        middle = ar_triangle(p, end).middle
        if all(m in f.index for m in middle):
            terms = [(f.index[m], (-1) ** (n + 1)) for m in middle] + [(j, 1 + (-1) ** n)]
            want.append(RelationVector.normalized(len(f), terms))
    assert want and ar_relations(p, K0Basis(f))[: len(want)] == want


# --------------------------------------------------------- k0_presentation


def test_presentation_even_n_counts_up():
    p, f = canon(2, 6)
    pres = k0_presentation(p, f)
    assert pres.free_rank == 1
    assert pres.invariant_factors == ()
    assert pres.classes == ((1,), (2,), (3,), (4,), (5,), (6,))
    assert pres.classes[f.index[Arc(-3, 6)]] == (4,)


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
    assert pres.to_json_dict()["label"] == "upper-bound presentation"


def test_presentation_orientation_is_stable():
    for n in range(1, 7):
        p, f = canon(n, 9)
        assert k0_presentation(p, f).classes[0] == (1,)


def test_class_table_past_its_bound_is_refused_before_the_reduction(monkeypatch):
    def reduction(*_):
        raise LookupError("reduction reached")

    monkeypatch.setattr(k0, "smith_normal_form", reduction)
    p = CategoryParams(1)

    def disjoint(g):  # no two arcs are joined by a relation
        return ArcFamily(p, tuple(Arc(3 * i, 3 * i + 2) for i in range(g)))

    assert 2000 * 2000 == k0.MAX_CLASS_CELLS
    with pytest.raises(LookupError, match="reduction reached"):
        k0_presentation(p, disjoint(2000))
    with pytest.raises(ValueError) as refused:
        k0_presentation(p, disjoint(2001))
    assert str(refused.value) == (
        "2001 generators with 0 relations give a class table of at least 4004001 cells, "
        "more than 4000000"
    )


def test_relations_past_their_bound_are_refused_before_the_reduction(monkeypatch):
    def reduction(*_):
        raise LookupError("reduction reached")

    monkeypatch.setattr(k0, "smith_normal_form", reduction)
    assert k0.MAX_RELATIONS == 1000
    # a canonical truncation of m arcs has m - 1 relations
    for n in (1, 4):
        p, at_limit = canon(n, k0.MAX_RELATIONS + 1)
        with pytest.raises(LookupError, match="reduction reached"):
            k0_presentation(p, at_limit)
        with pytest.raises(LookupError, match="reduction reached"):
            verify_theorem(p, k0.MAX_RELATIONS + 1)
        p, past = canon(n, k0.MAX_RELATIONS + 2)
        with pytest.raises(ValueError) as refused:
            k0_presentation(p, past)
        assert str(refused.value) == "1002 generators give 1001 relations, more than 1000"
        with pytest.raises(ValueError, match="1001 relations, more than 1000"):
            verify_theorem(p, k0.MAX_RELATIONS + 2)
    # the same arcs given explicitly: g - |R| = 1, far inside the class-table bound
    explicit = parse_family({"n": 4, "arcs": [a.to_json() for a in past.arcs]})
    assert len(explicit) * 1 < k0.MAX_CLASS_CELLS
    with pytest.raises(ValueError, match="1001 relations, more than 1000"):
        k0_presentation(explicit.params, explicit)


def test_verify_refuses_too_many_relations_before_building_the_family(monkeypatch):
    def build(*_):
        raise LookupError("family built")

    monkeypatch.setattr(k0, "canonical_family", build)
    p = CategoryParams(2)
    with pytest.raises(ValueError) as refused:
        verify_theorem(p, k0.MAX_RELATIONS + 2)
    assert str(refused.value) == "1002 generators give 1001 relations, more than 1000"
    # the member limit is still checked first, by canonical_family itself
    with pytest.raises(LookupError, match="family built"):
        verify_theorem(p, angulation.MAX_CANONICAL_MEMBERS + 1)
    with pytest.raises(LookupError, match="family built"):
        verify_theorem(p, k0.MAX_RELATIONS + 1)


def test_verify_refuses_a_truncation_past_the_member_limit():
    with pytest.raises(ValueError, match="members is larger than 200000"):
        verify_theorem(CategoryParams(2), 10**8)


def test_label_check_does_not_build_past_the_member_limit(monkeypatch):
    p = CategoryParams(3)
    arcs = canonical_family(p, 6).arcs
    for module in (k0, angulation):
        monkeypatch.setattr(module, "MAX_CANONICAL_MEMBERS", 5)
    at_limit = k0_presentation(p, ArcFamily(p, arcs[:5])).to_json_dict()
    assert (at_limit["truncation"], at_limit["label"]) == (5, "canonical truncation")
    past = k0_presentation(p, ArcFamily(p, arcs)).to_json_dict()
    assert (past["truncation"], past["label"]) == (None, "upper-bound presentation")


def test_relations_project_to_zero():
    p, f = canon(4, 10)
    pres = k0_presentation(p, f)
    factors = pres.invariant_factors
    width = len(factors) + pres.free_rank
    for r in pres.relations:
        image = [
            sum(x * c[k] for x, c in zip(r.coefficients, pres.classes, strict=True))
            for k in range(width)
        ]
        assert [s % f for s, f in zip(image, factors)] + image[len(factors):] == [0] * width


def test_presentation_rejects_crossing_family():
    p = CategoryParams(3)
    f = ArcFamily(p, [Arc(1, 5), Arc(3, 7)])
    with pytest.raises(ValueError, match="not non-crossing"):
        k0_presentation(p, f)


def test_presentation_rejects_params_mismatch():
    p3, f = canon(3, 4)
    with pytest.raises(ValueError, match="parameter mismatch"):
        k0_presentation(CategoryParams(2), f)


@pytest.mark.parametrize("given_n,family_n", [(1, 3), (2, 4), (4, 2)])
def test_relations_and_presentation_reject_the_same_params_mismatch(given_n, family_n):
    # a family read with the wrong n used to give no relations at all
    _, f = canon(family_n, 6)
    message = f"^parameter mismatch: n = {given_n} vs family n = {family_n}$"
    with pytest.raises(ValueError, match=message):
        ar_relations(CategoryParams(given_n), K0Basis(f))
    with pytest.raises(ValueError, match=message):
        k0_presentation(CategoryParams(given_n), f)


# ------------------------------------------------------- top-first order


def reduced(family):
    """The presentation of `family` and every Smith result its reduction made."""
    seen = []

    def record(a):
        seen.append(smith_normal_form(a))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(k0, "smith_normal_form", record)
        pres = k0_presentation(family.params, family)
    return pres, seen


def assert_unit_triangular(snf):
    """Every pivot is the diagonal +-1 of an upper triangular A, and U is diagonal."""
    rows = snf.matrix.rows
    assert all(row[0][0] == i and abs(row[0][1]) == 1 for i, row in enumerate(snf.matrix.terms))
    assert snf.diagonal[:rows] == (1,) * rows
    assert all(len(row) == 1 and row[0][0] == i for i, row in enumerate(snf.u.terms))


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("m", [2, 3, 10, 41, 160])
def test_canonical_relations_reach_the_reduction_unit_triangular(n, m):
    pres, [snf] = reduced(canonical_family(CategoryParams(n), m))
    assert snf.matrix.rows == len(pres.relations) == m - 1
    assert_unit_triangular(snf)


def window_family(seed, complete):
    """A seeded non-crossing family in a window, n <= 5, span <= 36; completed or as drawn."""
    rng = random.Random(seed)
    p = CategoryParams(rng.randint(1, 5))
    lo = rng.randint(-20, 20)
    w = Window(lo, lo + rng.randint(2, 36))
    pool = enumerate_arcs(p, w)
    rng.shuffle(pool)
    kept = []
    for a in pool[: rng.randint(0, 40)]:
        if all(not crosses(a, b) for b in kept):
            kept.append(a)
    f = ArcFamily(p, kept)
    return complete_in_window(f, w) if complete else f


@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=100, deadline=None)
def test_window_relations_reach_the_reduction_unit_triangular(seed, complete):
    pres, [snf] = reduced(window_family(seed, complete))
    assert_unit_triangular(snf)
    assert pres.invariant_factors == ()
    assert pres.free_rank == len(pres.basis.family) - len(pres.relations)


@given(st.integers(0, 2**32), st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_shuffling_members_changes_classes_only_by_coordinate_signs(seed, complete, rng):
    f = window_family(seed, complete)
    arcs = list(f.arcs)
    rng.shuffle(arcs)
    g = ArcFamily(f.params, arcs)
    a, b = k0_presentation(f.params, f), k0_presentation(g.params, g)
    assert (a.invariant_factors, a.free_rank) == (b.invariant_factors, b.free_rank)
    before = dict(zip(f.arcs, a.classes))
    after = dict(zip(g.arcs, b.classes))
    signs = [0] * a.free_rank
    for arc in f.arcs:
        for k, (x, y) in enumerate(zip(before[arc], after[arc], strict=True)):
            signs[k] = signs[k] or (x and y // x)
            assert signs[k] in (-1, 0, 1) and y == signs[k] * x


# ------------------------------------------------------------- symmetries


def presentations(seed, move):
    """The presentation of a completed window and of its image under `move`, members in order."""
    f = window_family(seed, True)
    g = ArcFamily(f.params, [move(a) for a in f.arcs])
    return k0_presentation(f.params, f), k0_presentation(g.params, g)


@given(st.integers(0, 2**32), st.integers(-1000, 1000))
@settings(max_examples=80, deadline=None)
def test_translating_every_arc_changes_nothing(seed, s):
    a, b = presentations(seed, lambda arc: Arc(arc.t + s, arc.u + s))
    assert len(a.relations) == len(b.relations)
    assert (a.invariant_factors, a.free_rank) == (b.invariant_factors, b.free_rank)
    assert a.classes == b.classes


@given(st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_reflecting_every_arc_keeps_the_group(seed):
    a, b = presentations(seed, lambda arc: Arc(-arc.u, -arc.t))
    assert (a.invariant_factors, a.free_rank) == (b.invariant_factors, b.free_rank)


def test_presentation_json_shape():
    p, f = canon(3, 2)
    out = k0_presentation(p, f).to_json_dict()
    assert out["n"] == 3
    assert out["generators"] == 2
    assert out["invariant_factors"] == []
    assert out["free_rank"] == 1
    assert out["classes"] == {"[1,5]": [1], "[-2,5]": [0]}
    assert out["relations_used"] == 1
    assert out["truncation"] == 2
    assert out["label"] == "canonical truncation"


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


# forged presentations for n = 2, m = 4, whose arcs are
# (1, 4), (-1, 4), (-1, 6), (-3, 6) with true classes 1, 2, 3, 4
FORGERIES = [
    (lambda pres: forge(pres, free_rank=2), "free rank is 2, expected 1"),
    (lambda pres: forge(pres, invariant_factors=(2,)), "unexpected torsion [2]"),
    (lambda pres: forge(pres, classes=((-1,),) + pres.classes[1:]),
     "generator 1 = (1, 4) has class -1, expected 1"),
    (lambda pres: forge(pres, classes=pres.classes[:2] + ((7,),) + pres.classes[3:]),
     "generator 3 = (-1, 6) has class 7, expected 3"),
]


def forge_presentation(monkeypatch, edit):
    real = k0.k0_presentation
    monkeypatch.setattr(k0, "k0_presentation", lambda params, family: edit(real(params, family)))


@pytest.mark.parametrize("edit,violation", FORGERIES)
def test_theorem_reports_a_forged_presentation(monkeypatch, edit, violation):
    forge_presentation(monkeypatch, edit)
    report = verify_theorem(CategoryParams(2), 4)
    assert report.passed is False
    assert report.first_violation == violation


def test_theorem_minimal_truncation_uses_one_relation():
    report = verify_theorem(CategoryParams(3), 2)
    assert report.relations_used == 1
    assert report.classes == ((1,), (0,))


def test_theorem_rejects_tiny_m():
    with pytest.raises(ValueError):
        verify_theorem(CategoryParams(3), 1)


def test_theorem_report_json():
    out = verify_theorem(CategoryParams(2), 3).to_json_dict()
    assert out["n"] == 2
    assert out["m"] == 3
    assert out["passed"] is True
    assert out["free_rank"] == 1
    assert out["classes"] == {"[1,4]": [1], "[-1,4]": [2], "[-1,6]": [3]}
    assert out["first_violation"] is None
