"""Arc calculus: admissibility, shifts, crossing, components, enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    CategoryParams,
    Window,
    component_index,
    crosses,
    enumerate_arcs,
    is_admissible,
    minimal_length,
    require_admissible,
    serre,
    suspend,
    tau,
    tau_inverse,
)
from infgon.arcs import MAX_WINDOW_ARCS, window_arc_count, window_rows
from oracles import brute_force_arcs, crossing_oracle


@st.composite
def param_arc(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    p = CategoryParams(n)
    t = draw(st.integers(-50, 50))
    row = draw(st.integers(1, 8))
    return p, Arc(t, t + minimal_length(p) + (row - 1) * n)


@st.composite
def param_arc_pair(draw):
    n = draw(st.integers(1, 8))
    p = CategoryParams(n)
    arcs = []
    for _ in range(2):
        t = draw(st.integers(-20, 20))
        row = draw(st.integers(1, 6))
        arcs.append(Arc(t, t + minimal_length(p) + (row - 1) * n))
    return p, arcs[0], arcs[1]


def test_admissibility_examples():
    p3 = CategoryParams(3)
    assert is_admissible(p3, Arc(1, 5))
    assert not is_admissible(p3, Arc(1, 2))
    assert is_admissible(p3, Arc(0, 4))
    assert not is_admissible(p3, Arc(1, 4))


def test_n1_admits_every_length_at_least_two():
    p1 = CategoryParams(1)
    for length in range(2, 30):
        assert is_admissible(p1, Arc(0, length))


def test_arc_rejects_unnormalized_endpoints():
    with pytest.raises(ValueError, match="t < u"):
        Arc(5, 1)
    with pytest.raises(ValueError, match="t < u"):
        Arc(2, 2)


def test_arc_rejects_inexact_endpoints():
    with pytest.raises(ValueError, match="exact integer"):
        Arc(1.0, 5)
    with pytest.raises(ValueError, match="exact integer"):
        Arc(False, True)


@pytest.mark.parametrize("data, message", [
    (["x", 2.0], "arc endpoint t must be an exact integer, got 'x'"),
    ((True, 3), "arc endpoint t must be an exact integer, got True"),
    ([1, 2.0], "arc endpoint u must be an exact integer, got 2.0"),
    ([5, 1], "arc (5, 1): endpoints must satisfy t < u"),
    ([1, 2, 3], "arc must be a two-element array [t, u], got [1, 2, 3]"),
])
def test_arc_from_json_names_the_first_bad_endpoint(data, message):
    with pytest.raises(ValueError) as excinfo:
        Arc.from_json(data)
    assert str(excinfo.value) == message


def test_params_validation():
    with pytest.raises(ValueError):
        CategoryParams(0)
    with pytest.raises(ValueError):
        CategoryParams(-3)
    with pytest.raises(ValueError):
        CategoryParams(2.0)


def test_window_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        Window(4, 4)
    with pytest.raises(ValueError, match="lo < hi"):
        Window(5, 1)
    assert Window(-3, 9).span == 12


def test_require_admissible_diagnostics():
    with pytest.raises(ValueError, match=r"length 3 is not congruent to 1 modulo 3"):
        require_admissible(CategoryParams(3), Arc(1, 4))
    with pytest.raises(ValueError, match=r"length 1 is shorter than 2"):
        require_admissible(CategoryParams(3), Arc(1, 2))


def test_suspend_examples():
    p3 = CategoryParams(3)
    assert suspend(p3, Arc(2, 6), 1) == Arc(1, 5)
    assert suspend(p3, Arc(1, 5), 0) == Arc(1, 5)
    assert suspend(p3, Arc(1, 5), -3) == Arc(4, 8)


def test_shift_functor_examples():
    p3 = CategoryParams(3)
    assert tau(p3, Arc(1, 5)) == Arc(-2, 2)
    assert serre(p3, Arc(1, 5)) == Arc(-3, 1)
    assert tau(CategoryParams(1), Arc(0, 2)) == Arc(-1, 1)


@given(param_arc(), st.integers(-30, 30), st.integers(-30, 30))
def test_suspend_is_an_action(pa, j, k):
    p, a = pa
    assert suspend(p, suspend(p, a, j), k) == suspend(p, a, j + k)
    assert is_admissible(p, suspend(p, a, k))


@given(param_arc())
def test_tau_and_serre_are_suspension_powers(pa):
    p, a = pa
    assert tau(p, a) == suspend(p, a, p.n)
    assert serre(p, a) == suspend(p, tau(p, a), 1)
    assert tau_inverse(p, tau(p, a)) == a


def test_crossing_examples():
    assert crosses(Arc(1, 5), Arc(3, 7))
    assert not crosses(Arc(1, 5), Arc(5, 9))
    assert not crosses(Arc(-2, 8), Arc(1, 5))


@given(param_arc_pair())
def test_crossing_matches_interval_oracle(pab):
    _, a, b = pab
    assert crosses(a, b) == crossing_oracle(a, b)


@given(param_arc_pair(), st.integers(-25, 25))
def test_crossing_symmetry_and_shift_invariance(pab, k):
    p, a, b = pab
    assert crosses(a, b) == crosses(b, a)
    assert not crosses(a, a)
    assert crosses(suspend(p, a, k), suspend(p, b, k)) == crosses(a, b)


def test_component_examples():
    p3 = CategoryParams(3)
    assert component_index(p3, Arc(2, 6)) == 2
    assert component_index(p3, Arc(0, 4)) == 0


@given(param_arc())
def test_component_drops_by_one_under_suspension(pa):
    p, a = pa
    expected = (component_index(p, a) - 1) % p.n
    assert component_index(p, suspend(p, a)) == expected
    assert component_index(p, tau(p, a)) == component_index(p, a)


@given(param_arc())
def test_admissible_arcs_satisfy_mod_relation(pa):
    p, a = pa
    assert (a.u - a.t - 1) % p.n == 0
    assert is_admissible(p, a) == (a.length >= 2 and (a.u - a.t) % p.n == 1 % p.n)


def test_enumerate_examples():
    assert enumerate_arcs(CategoryParams(3), Window(0, 4)) == [Arc(0, 4)]
    assert enumerate_arcs(CategoryParams(1), Window(0, 2)) == [Arc(0, 2)]
    assert enumerate_arcs(CategoryParams(5), Window(0, 5)) == []


@given(st.integers(1, 8), st.integers(-30, 30), st.integers(2, 16))
@settings(max_examples=200)
def test_enumerate_matches_brute_force(n, lo, span):
    p = CategoryParams(n)
    w = Window(lo, lo + span)
    got = enumerate_arcs(p, w)
    assert got == brute_force_arcs(p, w)
    assert [(t, u) for t, us in window_rows(p, w) for u in us] == [(a.t, a.u) for a in got]
    assert got == sorted(got)
    assert len(got) == len(set(got))
    for a in got:
        assert w.contains_arc(a)


@given(st.integers(1, 8), st.integers(-30, 30), st.integers(1, 24))
@settings(max_examples=200)
def test_window_rows_are_the_rows_that_hold_an_arc(n, lo, span):
    p = CategoryParams(n)
    w = Window(lo, lo + span)
    want = [(a.t, a.u) for a in brute_force_arcs(p, w)]
    rows = list(window_rows(p, w))
    assert [(t, u) for t, us in rows for u in us] == want
    # one row per left end, and none empty: the report writers rely on that
    assert [t for t, _ in rows] == sorted({t for t, _ in want})
    assert all(isinstance(us, range) and us for _, us in rows)


@pytest.mark.parametrize("n", range(1, 6))
def test_window_arc_count_is_the_enumerated_count(n):
    p = CategoryParams(n)
    for lo in (-7, 0, 3):
        for span in range(1, 40):
            w = Window(lo, lo + span)
            assert window_arc_count(p, w) == len(enumerate_arcs(p, w))


def test_oversized_window_is_refused_before_enumeration():
    # span 2000 at n = 1 is the widest window under the limit
    p = CategoryParams(1)
    assert window_arc_count(p, Window(0, 2000)) <= MAX_WINDOW_ARCS
    assert window_arc_count(p, Window(0, 2001)) > MAX_WINDOW_ARCS
    for hi in (2001, 10**12):
        with pytest.raises(ValueError, match=f"holds more than {MAX_WINDOW_ARCS} 1-admissible"):
            enumerate_arcs(p, Window(0, hi))
        # on the call, not when the first row is asked for
        with pytest.raises(ValueError, match=f"holds more than {MAX_WINDOW_ARCS} 1-admissible"):
            window_rows(p, Window(0, hi))
