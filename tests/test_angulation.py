"""Tests for arc families, non-crossing checks, completion, and the canonical family."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    ArcFamily,
    CategoryParams,
    Window,
    canonical_family,
    complete_in_window,
    crosses,
    enumerate_arcs,
    is_maximal_in_window,
    parse_family,
    validate_noncrossing,
)
from infgon.angulation import MAX_CANONICAL_MEMBERS
from infgon.quiver import MAX_QUIVER_NODES
from oracles import addable_arcs, crossing_oracle, greedy_completion_oracle, maximality_oracle


def fam(n, pairs):
    return ArcFamily(CategoryParams(n), [Arc(t, u) for t, u in pairs])


# ---------------------------------------------------------------- ArcFamily


def test_family_coerces_and_preserves_order():
    f = fam(3, [(1, 5), (-2, 5)])
    assert isinstance(f.arcs, tuple)
    assert list(f) == [Arc(1, 5), Arc(-2, 5)]
    assert len(f) == 2
    assert Arc(1, 5) in f
    assert Arc(4, 8) not in f


def test_family_index_is_member_position():
    f = fam(3, [(1, 5), (-2, 5), (-5, 5)])
    assert f.index == {Arc(1, 5): 0, Arc(-2, 5): 1, Arc(-5, 5): 2}
    for i, a in enumerate(f):
        assert f.index[a] == i


def test_family_rejects_inadmissible_member():
    with pytest.raises(ValueError, match="not 3-admissible"):
        fam(3, [(1, 5), (1, 4)])


def test_family_rejects_duplicates():
    with pytest.raises(ValueError, match=r"duplicate arc \(1, 5\)"):
        fam(3, [(1, 5), (-2, 5), (1, 5)])


def test_family_json_round_trip():
    f = fam(3, [(1, 5), (-2, 5)])
    payload = f.to_json_dict()
    assert payload == {"n": 3, "arcs": [[1, 5], [-2, 5]]}
    assert parse_family(payload) == f


# ------------------------------------------------------------- parse_family


def test_parse_bare_list_requires_params():
    p = CategoryParams(3)
    assert parse_family([[1, 5]], params=p) == fam(3, [(1, 5)])
    with pytest.raises(ValueError):
        parse_family([[1, 5]])


def test_parse_object_with_n():
    f = parse_family({"n": 2, "arcs": [[1, 4], [-1, 4]]})
    assert f.params == CategoryParams(2)
    assert f.arcs == (Arc(1, 4), Arc(-1, 4))


def test_parse_object_n_mismatch():
    with pytest.raises(ValueError, match="parameter mismatch: -n 3 vs field 'n' = 2"):
        parse_family({"n": 2, "arcs": []}, params=CategoryParams(3))


def test_parse_null_n_is_not_a_missing_n():
    with pytest.raises(ValueError, match="field 'n' must be an integer, got None"):
        parse_family({"n": None, "arcs": [[1, 5]]}, CategoryParams(3))


def test_parse_symbolic_canonical():
    f = parse_family({"n": 3, "family": "canonical", "m": 4})
    assert f == canonical_family(CategoryParams(3), 4)


def test_parse_unknown_tag():
    with pytest.raises(ValueError, match="unknown symbolic family tag"):
        parse_family({"n": 3, "family": "fountain", "m": 4})


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_family("canonical")
    with pytest.raises(ValueError):
        parse_family({"arcs": [[1, 5]]})


# ------------------------------------------------------- validate_noncrossing


def test_noncrossing_canonical_prefix():
    f = fam(3, [(1, 5), (-2, 5), (-2, 8), (-5, 8)])
    assert validate_noncrossing(f) is None


def test_crossing_pair_reported():
    f = fam(3, [(1, 5), (3, 7)])
    assert validate_noncrossing(f) == (Arc(1, 5), Arc(3, 7))


def test_first_crossing_pair_is_lexicographic():
    # (0, 2) x (1, 3) is lexicographically earlier than (0, 3) x (2, 4)
    f = fam(1, [(2, 4), (0, 3), (1, 3), (0, 2)])
    assert validate_noncrossing(f) == (Arc(0, 2), Arc(1, 3))


@given(st.integers(1, 6), st.integers(-20, 20), st.integers(1, 5), st.integers(1, 5))
def test_reported_pair_actually_crosses(n, t, i, j):
    p = CategoryParams(n)
    a = Arc(t, t + 1 + i * n)
    b = Arc(t + 1, t + 2 + j * n) if n == 1 else Arc(t + n, t + n + 1 + j * n)
    f = ArcFamily(p, [a, b]) if a != b else ArcFamily(p, [a])
    pair = validate_noncrossing(f)
    if pair is not None:
        assert crosses(*pair)
        assert pair[0] < pair[1]


@st.composite
def nearly_noncrossing(draw):
    """A greedily non-crossing family, then up to two arbitrary extra arcs.

    The extras cross few members, so one crossing can hide among many
    non-crossing pairs; without extras the family is non-crossing.
    """
    p = CategoryParams(draw(st.integers(1, 4)))
    lo = draw(st.integers(-8, 8))
    pool = enumerate_arcs(p, Window(lo, lo + 16))
    arcs = []
    for a in draw(st.lists(st.sampled_from(pool), unique=True, max_size=14)):
        if not any(crossing_oracle(a, b) for b in arcs):
            arcs.append(a)
    for a in draw(st.lists(st.sampled_from(pool), unique=True, max_size=2)):
        if a not in arcs:
            arcs.append(a)
    return ArcFamily(p, draw(st.permutations(arcs)))


@given(nearly_noncrossing())
@settings(max_examples=400, deadline=None)
def test_noncrossing_verdict_matches_oracle_over_all_pairs(f):
    pairs = combinations(f.arcs, 2)
    bad = [(min(a, b), max(a, b)) for a, b in pairs if crossing_oracle(a, b)]
    assert validate_noncrossing(f) == min(bad, default=None)


@given(nearly_noncrossing())
@settings(max_examples=200, deadline=None)
def test_a_noncrossing_family_is_cleared_without_a_pairwise_scan(f):
    assume(not any(crossing_oracle(a, b) for a, b in combinations(f.arcs, 2)))

    def no_pairwise_scan(*_):
        raise AssertionError("a non-crossing family must not reach the pairwise scan")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("infgon.angulation.crosses", no_pairwise_scan)
        assert validate_noncrossing(f) is None


def test_first_crossing_pair_among_20000_arcs():
    # 19 999 nested arcs (-k, k) and one short arc crossing exactly one of them
    arcs = [Arc(-k, k) for k in range(1, 20000)] + [Arc(10000, 10002)]
    f = ArcFamily(CategoryParams(1), reversed(arcs))
    assert validate_noncrossing(f) == (Arc(-10001, 10001), Arc(10000, 10002))


# ------------------------------------------------------------ maximality


def test_maximality_rejects_crossing_family():
    # the family crosses itself: (0, 2) interleaves (1, 3)
    f = fam(1, [(0, 2), (0, 3), (1, 3)])
    with pytest.raises(ValueError, match="not non-crossing"):
        is_maximal_in_window(f, Window(0, 3))


def test_maximal_singleton_window():
    p = CategoryParams(3)
    f = fam(3, [(1, 5)])
    # only other admissible arc in [0, 5] is (0, 4), which crosses (1, 5)
    assert is_maximal_in_window(f, Window(0, 5)) is None


def test_non_maximal_reports_smallest_witness():
    # (0, 2) crosses (1, 3), so the smallest addable arc is (0, 3)
    f = fam(1, [(1, 3)])
    assert is_maximal_in_window(f, Window(0, 4)) == Arc(0, 3)


def test_maximal_requires_containment():
    f = fam(1, [(0, 2)])
    with pytest.raises(ValueError, match=r"lies outside the window"):
        is_maximal_in_window(f, Window(1, 4))


def _noncrossing_subset(p, window, picks):
    """Greedily keep drawn arcs that do not cross anything kept so far."""
    kept = []
    for a in picks:
        if all(not crosses(a, b) for b in kept):
            kept.append(a)
    return ArcFamily(p, kept)


@st.composite
def family_in_window(draw):
    n = draw(st.integers(1, 4))
    p = CategoryParams(n)
    lo = draw(st.integers(-10, 10))
    hi = lo + draw(st.integers(2, 14))
    w = Window(lo, hi)
    pool = enumerate_arcs(p, w)
    if pool:
        picks = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    else:
        picks = []
    return p, w, _noncrossing_subset(p, w, picks)


@given(family_in_window())
@settings(max_examples=150, deadline=None)
def test_maximality_matches_oracle(pwf):
    p, w, f = pwf
    assert is_maximal_in_window(f, w) == maximality_oracle(f, w)


# ------------------------------------------------------- complete_in_window


def test_complete_empty_n1():
    p = CategoryParams(1)
    done = complete_in_window(ArcFamily(p, []), Window(0, 3))
    assert done.arcs == (Arc(0, 2), Arc(0, 3))


@given(family_in_window())
@settings(max_examples=100, deadline=None)
def test_completion_is_maximal_superset(pwf):
    p, w, f = pwf
    done = complete_in_window(f, w)
    assert set(f.arcs) <= set(done.arcs)
    assert validate_noncrossing(done) is None
    assert maximality_oracle(done, w) is None
    # idempotent and deterministic
    again = complete_in_window(done, w)
    assert again.arcs == done.arcs
    assert complete_in_window(f, w).arcs == done.arcs


def test_completion_appends_in_lex_order():
    p = CategoryParams(1)
    done = complete_in_window(ArcFamily(p, [Arc(1, 3)]), Window(0, 4))
    # original prefix kept, new arcs appended smallest-first
    assert done.arcs[0] == Arc(1, 3)
    assert list(done.arcs[1:]) == sorted(done.arcs[1:])


# each case exercises one branch of the greedy scan's O(1) crossing test
GREEDY_CASES = [
    # (0, 2) is blocked by the member (1, 3), which starts inside it and
    # ends beyond it
    (1, [(1, 3)], (0, 4), (0, 3), [(0, 3), (0, 4)]),
    # (1, 4) is blocked by the member (0, 3), which ends inside it
    (2, [(0, 3)], (0, 4), None, []),
    # (0, 5) shares its right end with the member (2, 5), then its left
    # end with the member (0, 3)
    (2, [(2, 5)], (0, 5), (0, 5), [(0, 5)]),
    (2, [(0, 3)], (0, 5), (0, 5), [(0, 5)]),
    # nested members: (0, 2), (0, 3) and (0, 4) each cross one of them,
    # (0, 5) lies between (0, 6) and (1, 5)
    (1, [(0, 6), (1, 5), (2, 4)], (0, 6), (0, 5), [(0, 5), (1, 4)]),
    # candidates ending at w.hi: (0, 3) is added, (1, 3) is blocked
    (1, [(1, 3)], (0, 3), (0, 3), [(0, 3)]),
    (1, [(0, 2)], (0, 3), (0, 3), [(0, 3)]),
    # (1, 3) = (1, right[1]) is the only arc of row 1 that the member alone
    # allows, but (0, 2) is kept first and cuts row 1 at 2
    (1, [(0, 3)], (0, 4), (0, 2), [(0, 2), (0, 4)]),
    # right[1] is not on row 1's stride: at n = 2 the row is cut at 7 and
    # tries 4 and 6; at n = 3 it is cut at 10 and tries 5 and 8, and the
    # crossing (1, 11) ends at w.hi past the cut
    (2, [(0, 7), (1, 6)], (0, 7), (1, 4), [(1, 4)]),
    (3, [(0, 10), (1, 8)], (0, 11), (1, 5), [(1, 5)]),
    # a member ends at w.hi, so right[2] = w.hi
    (1, [(1, 4)], (0, 4), (0, 4), [(0, 4), (1, 3)]),
    # a member starts at w.lo (index 0 of right and left) and lo is not 0
    (2, [(2, 7)], (2, 9), (2, 5), [(2, 5), (2, 9)]),
]


@pytest.mark.parametrize("n, members, window, witness, added", GREEDY_CASES)
def test_greedy_scan_pinned_cases(n, members, window, witness, added):
    f = fam(n, members)
    w = Window(*window)
    expected = [Arc(t, u) for t, u in added]
    assert greedy_completion_oracle(f, w) == expected
    assert list(complete_in_window(f, w).arcs[len(f) :]) == expected
    assert is_maximal_in_window(f, w) == (witness and Arc(*witness))


@st.composite
def shuffled_family_in_window(draw):
    """A non-crossing family from up to 20 picks, its members shuffled."""
    p = CategoryParams(draw(st.integers(1, 5)))
    lo = draw(st.integers(-10, 10))
    w = Window(lo, lo + draw(st.integers(2, 40)))
    pool = enumerate_arcs(p, w)
    picks = draw(st.lists(st.sampled_from(pool), max_size=20, unique=True)) if pool else []
    kept = []
    for a in picks:
        if not any(crossing_oracle(a, b) for b in kept):
            kept.append(a)
    return ArcFamily(p, draw(st.permutations(kept))), w


@given(shuffled_family_in_window())
@settings(max_examples=200, deadline=None)
def test_greedy_scan_matches_the_pairwise_oracle(fw):
    f, w = fw
    added = greedy_completion_oracle(f, w)
    assert complete_in_window(f, w).arcs == f.arcs + tuple(added)
    assert is_maximal_in_window(f, w) == (added[0] if added else None)


@given(shuffled_family_in_window(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_completion_less_one_arc_matches_the_oracle(fw, data):
    f, w = fw
    done = complete_in_window(f, w).arcs
    assume(done)
    i = data.draw(st.integers(0, len(done) - 1))
    g = ArcFamily(f.params, done[:i] + done[i + 1 :])
    # the removed arc crosses nothing left, so something is added
    added = greedy_completion_oracle(g, w)
    assert is_maximal_in_window(g, w) == maximality_oracle(g, w) == added[0]
    assert complete_in_window(g, w).arcs == g.arcs + tuple(added)


@pytest.mark.parametrize("n", [1, 2])
def test_the_scan_builds_an_arc_only_for_an_arc_it_adds(monkeypatch, n):
    built = []

    def counting_arc(t, u):
        built.append((t, u))
        return Arc(t, u)

    def no_enumeration(*_):
        raise AssertionError("the scan must not enumerate the window's arcs")

    monkeypatch.setattr("infgon.angulation.Arc", counting_arc)
    monkeypatch.setattr("infgon.angulation.enumerate_arcs", no_enumeration, raising=False)
    w = Window(0, 30)
    done = complete_in_window(ArcFamily(CategoryParams(n), []), w)
    assert len(built) == len(done) > 0
    built.clear()
    assert is_maximal_in_window(done, w) is None
    assert built == []


# --------------------------------------------------------- canonical family


def test_canonical_first_terms_n3():
    assert canonical_family(CategoryParams(3), 4).arcs == (
        Arc(1, 5),
        Arc(-2, 5),
        Arc(-2, 8),
        Arc(-5, 8),
    )


def test_canonical_first_terms_n1():
    assert canonical_family(CategoryParams(1), 3).arcs == (
        Arc(1, 3),
        Arc(0, 3),
        Arc(0, 4),
    )


def test_canonical_size_and_validation():
    p = CategoryParams(2)
    assert len(canonical_family(p, 1)) == 1
    assert len(canonical_family(p, 7)) == 7
    for bad in (0, -1, 2.0, True):
        with pytest.raises(ValueError):
            canonical_family(p, bad)


def test_canonical_family_is_bounded_before_any_arc_is_built():
    p = CategoryParams(1)
    assert MAX_CANONICAL_MEMBERS == MAX_QUIVER_NODES == 200_000
    largest = canonical_family(p, MAX_CANONICAL_MEMBERS)
    assert len(largest) == MAX_CANONICAL_MEMBERS
    assert largest.arcs[-1] == Arc(1 - 100_000, 2 + 100_000)
    for m in (MAX_CANONICAL_MEMBERS + 1, 10**8, 10**100):
        with pytest.raises(ValueError, match=f"members is larger than {MAX_CANONICAL_MEMBERS}$"):
            canonical_family(p, m)
    # the symbolic JSON form goes through the same bound
    with pytest.raises(ValueError, match="200001 members is larger than 200000"):
        parse_family({"n": 1, "family": "canonical", "m": MAX_CANONICAL_MEMBERS + 1})


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_is_noncrossing(n):
    f = canonical_family(CategoryParams(n), 60)
    assert validate_noncrossing(f) is None


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_canonical_consecutive_share_an_endpoint(n):
    f = canonical_family(CategoryParams(n), 40)
    for a, b in zip(f.arcs, f.arcs[1:]):
        assert {a.t, a.u} & {b.t, b.u}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_is_locally_finite(n):
    # no integer meets more than two arcs, so there is no fountain
    f = canonical_family(CategoryParams(n), 50)
    incidence = {}
    for a in f:
        for e in (a.t, a.u):
            incidence[e] = incidence.get(e, 0) + 1
    assert max(incidence.values()) <= 2


# ------------------------------------------------------ symbolic family tags


def test_classify_canonical_tag():
    # the one symbolic tag parse_family accepts names a locally finite family
    f = parse_family({"n": 3, "family": "canonical", "m": 40})
    incidence = {}
    for a in f:
        for e in (a.t, a.u):
            incidence[e] = incidence.get(e, 0) + 1
    assert max(incidence.values()) <= 2


def test_classify_unknown_tag():
    # a fountain-style tag is not a family the library can build
    with pytest.raises(ValueError, match="unknown symbolic family tag"):
        parse_family({"n": 3, "family": "left-fountain-at-0", "m": 4})
