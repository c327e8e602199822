"""Mesh structure: irreducible arrows, almost-split triangles, windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import (
    Arc,
    CategoryParams,
    QuiverWindow,
    RenderOptions,
    Window,
    ar_triangle,
    arrows_from,
    component_index,
    is_admissible,
    minimal_length,
    quiver_svg,
    quiver_window,
    row_index,
    tau,
    tau_inverse,
)
from infgon.quiver import MAX_QUIVER_NODES
from oracles import mesh_arrows_oracle, quiver_window_oracle


@st.composite
def param_arc(draw):
    n = draw(st.integers(1, 8))
    p = CategoryParams(n)
    t = draw(st.integers(-40, 40))
    row = draw(st.integers(1, 7))
    return p, Arc(t, t + minimal_length(p) + (row - 1) * n)


def test_arrows_from_examples():
    p3 = CategoryParams(3)
    assert arrows_from(p3, Arc(-4, 0)) == [Arc(-4, 3)]
    assert arrows_from(p3, Arc(-4, 3)) == [Arc(-4, 6), Arc(-1, 3)]
    assert arrows_from(CategoryParams(1), Arc(0, 2)) == [Arc(0, 3)]


@given(param_arc())
def test_arrows_match_admissibility_filter(pa):
    # admissible lengths always exceed n, so both candidates are well-formed
    p, a = pa
    candidates = [Arc(a.t, a.u + p.n), Arc(a.t + p.n, a.u)]
    expected = [c for c in candidates if is_admissible(p, c)]
    assert arrows_from(p, a) == expected
    assert 1 <= len(expected) <= 2


@given(param_arc())
def test_arrow_targets_stay_in_component(pa):
    p, a = pa
    for b in arrows_from(p, a):
        assert component_index(p, b) == component_index(p, a)


@given(param_arc())
def test_mesh_commutes(pa):
    # both arrow paths out of a two-arrow node meet at tau_inverse(a)
    p, a = pa
    targets = arrows_from(p, a)
    if len(targets) == 2:
        meet = set(arrows_from(p, targets[0])) & set(arrows_from(p, targets[1]))
        assert tau_inverse(p, a) in meet


def test_ar_triangle_examples():
    p3 = CategoryParams(3)
    tri = ar_triangle(p3, Arc(1, 5))
    assert (tri.start, tri.middle, tri.end) == (Arc(-2, 2), (Arc(-2, 5),), Arc(1, 5))
    tri = ar_triangle(p3, Arc(-1, 6))
    assert tri.start == Arc(-4, 3)
    assert set(tri.middle) == {Arc(-4, 6), Arc(-1, 3)}
    tri = ar_triangle(CategoryParams(1), Arc(0, 2))
    assert (tri.start, tri.middle, tri.end) == (Arc(-1, 1), (Arc(-1, 2),), Arc(0, 2))


@given(param_arc())
def test_ar_triangle_invariants(pa):
    p, end = pa
    tri = ar_triangle(p, end)
    assert tri.start == tau(p, end)
    expected_middle = {
        c
        for c in (Arc(end.t - p.n, end.u), Arc(end.t, end.u - p.n) if end.length - p.n >= 2 else None)
        if c is not None and is_admissible(p, c)
    }
    assert set(tri.middle) == expected_middle
    bottom = end.length == minimal_length(p)
    assert (len(tri.middle) == 1) == bottom


@given(param_arc())
def test_row_index_basics(pa):
    p, a = pa
    assert row_index(p, a) >= 1
    assert (row_index(p, a) == 1) == (a.length == minimal_length(p))
    assert row_index(p, tau(p, a)) == row_index(p, a)


def test_quiver_window_single_row_n1():
    qw = quiver_window(CategoryParams(1), 0, Window(0, 1), 1)
    assert [a.to_json() for a in qw.nodes] == [[0, 2], [1, 3]]
    assert qw.arrows == ()


def test_quiver_window_rectangle_semantics():
    p3 = CategoryParams(3)
    qw = quiver_window(p3, 2, Window(-7, 8), 4)
    assert len(qw.nodes) == 24  # six t values, four rows
    for a in qw.nodes:
        assert component_index(p3, a) == 2
        assert -7 <= a.t <= 8
        assert 1 <= row_index(p3, a) <= 4
    assert list(qw.nodes) == sorted(qw.nodes)
    # every arrow joins included nodes and follows the mesh rule
    node_set = set(qw.nodes)
    for s, t in qw.arrows:
        assert s in node_set and t in node_set
        assert t in arrows_from(p3, s)


def test_quiver_window_column_band_crops_diagonally():
    p3 = CategoryParams(3)
    full = quiver_window(p3, 2, Window(-7, 8), 4)
    banded = quiver_window(p3, 2, Window(-7, 8), 4, columns=Window(-4, 20))
    assert set(banded.nodes) < set(full.nodes)
    assert all(-4 <= a.t + a.u <= 20 for a in banded.nodes)
    assert len(banded.nodes) == 18


def test_quiver_window_mesh_counts():
    # inside a window every included non-bottom arc has two outgoing arrows
    # in the full quiver; bottom-row arcs have one
    p3 = CategoryParams(3)
    qw = quiver_window(p3, 2, Window(-7, 8), 4)
    for a in qw.nodes:
        assert len(arrows_from(p3, a)) == (1 if row_index(p3, a) == 1 else 2)


@st.composite
def window_spec(draw):
    n = draw(st.integers(1, 6))
    lo = draw(st.integers(-60, 60))
    t_range = Window(lo, lo + draw(st.integers(1, 40)))
    depth = draw(st.integers(1, 9))
    columns = None
    if draw(st.booleans()):
        # t + u of the window's nodes lies in [2 lo + n + 1, 2 hi + depth n + 1]
        c = draw(st.integers(2 * t_range.lo - 5, 2 * t_range.hi + depth * n + 5))
        columns = Window(c, c + draw(st.integers(1, 60)))
    return CategoryParams(n), draw(st.integers(0, n - 1)), t_range, depth, columns


@settings(max_examples=300, deadline=None)
@given(window_spec())
def test_quiver_window_matches_the_oracle(spec):
    qw = quiver_window(*spec)
    assert (qw.nodes, qw.arrows) == quiver_window_oracle(*spec)


@settings(max_examples=300, deadline=None)
@given(window_spec(), st.data())
def test_any_nodes_of_a_component_get_the_arrows_of_the_mesh_rule(spec, data):
    # a window of any shape: some of a window's nodes, in any order
    params, component = spec[:2]
    nodes = data.draw(st.permutations(quiver_window(*spec).nodes))
    nodes = tuple(nodes[:data.draw(st.integers(0, len(nodes)))])
    qw = QuiverWindow(params, component, nodes)
    assert qw.arrows == mesh_arrows_oracle(params, nodes)


def test_quiver_window_rejects_bad_arguments():
    p3 = CategoryParams(3)
    with pytest.raises(ValueError, match="component"):
        quiver_window(p3, 3, Window(0, 5), 2)
    with pytest.raises(ValueError, match="component"):
        quiver_window(p3, -1, Window(0, 5), 2)
    with pytest.raises(ValueError, match="component must be an exact integer"):
        quiver_window(p3, True, Window(0, 5), 2)
    with pytest.raises(ValueError, match="component must be an exact integer"):
        quiver_window(p3, "1", Window(0, 5), 2)
    with pytest.raises(ValueError, match="depth"):
        quiver_window(p3, 0, Window(0, 5), 0)


def test_quiver_window_is_bounded_before_any_node_is_built():
    # the bound counts the pairs the scan visits, so a column band that keeps
    # few of them (and keeps this test fast) does not lower it
    band = Window(0, 10)
    p1 = CategoryParams(1)
    assert 1000 * 200 == MAX_QUIVER_NODES  # 1000 t values to depth 200: at the limit
    assert len(quiver_window(p1, 0, Window(0, 999), 200, columns=band).nodes) == 25
    for t_hi, depth in ((1000, 200), (999, 201), (10**12, 1), (1, 10**12)):
        with pytest.raises(ValueError, match=f"scans more than {MAX_QUIVER_NODES} nodes"):
            quiver_window(p1, 0, Window(0, t_hi), depth, columns=band)
    # one t value in n is scanned
    p4 = CategoryParams(4)
    assert quiver_window(p4, 0, Window(0, 3999), 200, columns=band).nodes == (Arc(0, 5), Arc(0, 9))
    with pytest.raises(ValueError, match="scans more than"):
        quiver_window(p4, 0, Window(0, 4000), 200, columns=band)


def test_quiver_window_json_shape():
    p3 = CategoryParams(3)
    qw = quiver_window(p3, 2, Window(-7, 8), 2)
    data = qw.to_json_dict()
    assert data["component"] == 2
    assert all(len(pair) == 2 for pair in data["nodes"])
    for i, j in data["arrows"]:
        s, t = qw.nodes[i], qw.nodes[j]
        assert t in arrows_from(p3, s)


def test_quiver_window_indexes_its_nodes_outside_equality():
    p3 = CategoryParams(3)
    qw = quiver_window(p3, 2, Window(-7, 8), 2)
    assert qw == QuiverWindow(p3, 2, qw.nodes)
    assert "index" not in repr(qw)


def test_quiver_window_keeps_the_arrow_ends_its_check_found(monkeypatch):
    p3 = CategoryParams(3)
    qw = quiver_window(p3, 2, Window(-7, 8), 3)
    index = {a: i for i, a in enumerate(qw.nodes)}
    assert qw.arrow_index == tuple(
        (index[s], index[t]) for s, t in mesh_arrows_oracle(p3, qw.nodes))
    assert qw == QuiverWindow(p3, 2, qw.nodes)
    assert "arrow_index" not in repr(qw) and "arrows" not in repr(qw)
    hashed = []
    real = Arc.__hash__
    monkeypatch.setattr(Arc, "__hash__", lambda a: hashed.append(a) or real(a))
    assert qw.to_json_dict()["arrows"] == [list(p) for p in qw.arrow_index]
    # building, checking and drawing a window, highlight included, work on
    # (t, u) pairs and hash no Arc
    assert quiver_window(p3, 2, Window(-7, 8), 3) == qw
    highlight = RenderOptions(highlight=qw.nodes[::2])
    assert quiver_svg(qw, highlight).count("node highlight") == len(qw.nodes[::2])
    assert hashed == []


def test_quiver_window_checks_its_nodes_and_arrows():
    p1 = CategoryParams(1)
    with pytest.raises(ValueError, match=r"duplicate arc \(0, 2\)"):
        QuiverWindow(p1, 0, (Arc(0, 2), Arc(0, 3), Arc(0, 2)))
    with pytest.raises(ValueError, match="not 3-admissible"):
        QuiverWindow(CategoryParams(3), 0, (Arc(0, 4), Arc(0, 6)))
    # an arrow needs both ends among the nodes
    assert QuiverWindow(p1, 0, (Arc(0, 2),)).arrows == ()
    ok = QuiverWindow(p1, 0, (Arc(0, 2), Arc(0, 3)))
    assert ok.arrows == ((Arc(0, 2), Arc(0, 3)),)
    assert ok.to_json_dict()["arrows"] == [[0, 1]]


@pytest.mark.parametrize("component, nodes, error", [
    (3, (Arc(1, 5),), "component 3 out of range for n = 3 (expected 0..2)"),
    (7, (Arc(1, 5),), "component 7 out of range for n = 3 (expected 0..2)"),
    (-1, (), "component -1 out of range for n = 3 (expected 0..2)"),
    (True, (), "component must be an exact integer, got True"),
    (0, (Arc(1, 5),), "node (1, 5) is not in component 0"),
    (1, (Arc(1, 5), Arc(1, 8), Arc(0, 4)), "node (0, 4) is not in component 1"),
])
def test_quiver_window_refuses_what_is_no_window_of_its_component(component, nodes, error):
    with pytest.raises(ValueError) as raised:
        QuiverWindow(CategoryParams(3), component, nodes)
    assert str(raised.value) == error


def test_quiver_window_accepts_both_irreducible_maps():
    p3 = CategoryParams(3)
    nodes = (Arc(-2, 5), Arc(-2, 8), Arc(1, 5))
    assert QuiverWindow(p3, 1, nodes).arrow_index == ((0, 1), (0, 2))
    # node order first, then (t, u + n) before (t + n, u)
    assert QuiverWindow(p3, 1, nodes[::-1]).arrow_index == ((2, 1), (2, 0))
    # (0, 4) -> (1, 5) is no irreducible map at n = 1: both ends move
    assert QuiverWindow(CategoryParams(1), 0, (Arc(0, 4), Arc(1, 5))).arrow_index == ()
