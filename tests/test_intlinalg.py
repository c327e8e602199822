"""Tests for exact integer matrices, Smith normal form, and cokernels."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infgon import IntMatrix, cokernel, smith_normal_form
from oracles import diagonal_matrix, identity, invariant_factors_oracle


# ------------------------------------------------------------- IntMatrix


def test_from_rows_and_shape():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries[1][2] == 6


def test_empty_matrix_needs_explicit_cols():
    m = IntMatrix.from_rows([], cols=4)
    assert (m.rows, m.cols) == (0, 4)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])


def test_rejects_ragged_and_non_int():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2.0]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[True, 0]])
    # the first bad entry in row-major order is named
    with pytest.raises(ValueError, match="got 2.5$"):
        IntMatrix.from_rows([[1, 2.5], ["x", 3]])
    with pytest.raises(ValueError) as excinfo:
        IntMatrix.from_rows([["x" * 5000]])
    assert len(str(excinfo.value).splitlines()) == 1 and len(str(excinfo.value)) < 200


def test_identity_and_mul():
    a = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert identity(3).mul(a) == a
    assert a.mul(identity(2)) == a
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b).entries == ((2, 1), (4, 3), (6, 5))
    with pytest.raises(ValueError):
        b.mul(a)


def test_determinant():
    assert IntMatrix.from_rows([[2, 4], [6, 8]]).determinant() == -8
    assert IntMatrix.from_rows([], cols=0).determinant() == 1
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).determinant() == 0
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2, 3]]).determinant()


# ------------------------------------------------------ smith_normal_form


def test_snf_worked_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = smith_normal_form(a)
    assert res.diagonal == (2, 4)
    assert res.rank == 2
    assert cokernel(a).invariant_factors == (2, 4)


def test_snf_identity_and_zero():
    res = smith_normal_form(identity(3))
    assert res.diagonal == (1, 1, 1)
    assert cokernel(identity(3)).invariant_factors == ()

    res = smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]]))
    assert res.diagonal == (0, 0)
    assert res.rank == 0


def test_snf_empty_shapes():
    res = smith_normal_form(IntMatrix.from_rows([], cols=3))
    assert res.rank == 0
    assert res.v == identity(3)

    res = smith_normal_form(IntMatrix.from_rows([[], []], cols=0))
    assert res.rank == 0
    assert res.u == identity(2)


def test_snf_is_deterministic():
    a = IntMatrix.from_rows([[3, -1, 2], [0, 4, 6], [7, 7, 7]])
    r1 = smith_normal_form(a)
    r2 = smith_normal_form(a)
    assert (r1.u, r1.diagonal, r1.v) == (r2.u, r2.diagonal, r2.v)


@st.composite
def small_matrix(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entries = [
        [draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)
    ]
    return IntMatrix.from_rows(entries, cols=cols)


@given(small_matrix())
@settings(max_examples=300, deadline=None)
def test_snf_matches_minor_gcd_oracle(a):
    res = smith_normal_form(a)
    nonzero = [x for x in res.diagonal if x != 0]
    assert nonzero == invariant_factors_oracle(a.entries)
    # transforms are unimodular and actually witness the diagonalization
    assert abs(res.u.determinant()) == 1
    assert abs(res.v.determinant()) == 1
    assert res.u.mul(a).mul(res.v) == diagonal_matrix(res.diagonal, a.rows, a.cols)
    # the certificate the self-check accepted agrees with the dense oracles:
    # both inverses are two-sided and unimodular
    res.verify()
    assert res.u.mul(res.u_inv) == res.u_inv.mul(res.u) == identity(a.rows)
    assert res.v.mul(res.v_inv) == res.v_inv.mul(res.v) == identity(a.cols)
    assert abs(res.u_inv.determinant()) == abs(res.v_inv.determinant()) == 1


def test_snf_self_check_needs_no_determinant_or_dense_product(monkeypatch):
    def forbidden(*_):
        raise AssertionError("the self-check must not call this")

    monkeypatch.setattr(IntMatrix, "determinant", forbidden)
    monkeypatch.setattr(IntMatrix, "mul", forbidden)
    res = smith_normal_form(IntMatrix.from_rows([[3, -1, 2], [0, 4, 6], [7, 7, 7]]))
    assert res.diagonal == (1, 1, 140)


def _bumped(m, i, j, delta=1):
    rows = [list(r) for r in m.entries]
    rows[i][j] += delta
    return IntMatrix.from_rows(rows, cols=m.cols)


# U = (1 0; 3 -1), D = diag(2, 4), V = (1 -2; 0 1): U and V are not identities
GENUINE = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))


# Exact U, V, U^-1 and V^-1, pinned so that a change to the pivot search
# shows as a diff here: GENUINE, then a 3x3 whose first |1| is not at (0, 0),
# one whose smallest entry is negative, a wide 2x4 full of |2| ties, and a
# tall 3x2, where U^-1 is larger than V.
PINNED_TRANSFORMS = [
    ([[2, 4], [6, 8]],
     ((1, 0), (3, -1)), ((1, -2), (0, 1)),
     ((1, 0), (3, -1)), ((1, 2), (0, 1))),
    ([[2, 3, -1], [-1, 4, 1], [1, -1, 5]],
     ((-1, 0, 0), (1, 1, 0), (6, 11, -1)), ((0, 1, -7), (0, 0, 1), (1, 2, -11)),
     ((-1, 0, 0), (1, 1, 0), (5, 11, -1)), ((-2, -3, 1), (1, 7, 0), (0, 1, 0))),
    ([[6, 9, 4], [8, -3, 10], [12, 15, 7]],
     ((0, -1, 0), (88, -3, -51), (421, -15, -244)),
     ((1, 7, -255), (3, 22, -800), (0, 1, -36)),
     ((33, 244, -51), (-1, 0, 0), (57, 421, -88)),
     ((-8, 3, -10), (-108, 36, -35), (-3, 1, -1))),
    ([[0, 2, -2, 4], [2, 0, 6, -2]],
     ((1, 0), (0, 1)),
     ((0, 1, -3, 1), (1, 0, 1, -2), (0, 0, 1, 0), (0, 0, 0, 1)),
     ((1, 0), (0, 1)),
     ((0, 1, -1, 2), (1, 0, 3, -1), (0, 0, 1, 0), (0, 0, 0, 1))),
    ([[2, 3], [4, 5], [6, 7]],
     ((1, 0, 0), (-1, 1, 0), (1, -2, 1)), ((-1, 3), (1, -2)),
     ((1, 0, 0), (1, 1, 0), (1, 2, 1)), ((2, 3), (1, 1))),
]


@pytest.mark.parametrize("rows,u,v,u_inv,v_inv", PINNED_TRANSFORMS)
def test_snf_transforms_are_pinned(rows, u, v, u_inv, v_inv):
    res = smith_normal_form(IntMatrix.from_rows(rows))
    assert (res.u.entries, res.v.entries) == (u, v)
    assert (res.u_inv.entries, res.v_inv.entries) == (u_inv, v_inv)


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_verify_rejects_non_unimodular_u_with_any_inverse(claimed):
    # det diag(2, 1) = 2: row 0 of U * X is even, so U * X = I is impossible
    u = IntMatrix.from_rows([[2, 0], [0, 1]])
    forged = replace(GENUINE, u=u, u_inv=IntMatrix.from_rows([claimed[:2], claimed[2:]]))
    with pytest.raises(AssertionError, match="U is not unimodular"):
        forged.verify()


@pytest.mark.parametrize("field", ["u_inv", "v_inv"])
@pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_verify_rejects_an_inverse_off_by_one_entry(field, i, j):
    forged = replace(GENUINE, **{field: _bumped(getattr(GENUINE, field), i, j)})
    with pytest.raises(AssertionError, match="not unimodular"):
        forged.verify()


def test_verify_rejects_a_wrong_entry_of_d():
    # (2, 8) keeps D non-negative and divisible; only U * A * V fails
    forged = replace(GENUINE, diagonal=(2, 8))
    with pytest.raises(AssertionError, match="U \\* A != D \\* V\\^-1"):
        forged.verify()


@pytest.mark.parametrize("diagonal,message", [
    ((2,), "wrong length"),
    ((2, 4, 0), "wrong length"),
    ((True, 4), "not an exact integer"),
    ((2.0, 4), "not an exact integer"),
    ((-2, 4), "negative"),
    ((4, 2), "divisibility broken"),
    ((0, 2), "divisibility broken"),
])
def test_verify_rejects_a_malformed_diagonal(diagonal, message):
    with pytest.raises(AssertionError, match=message):
        replace(GENUINE, diagonal=diagonal).verify()


def test_verify_rejects_a_v_inverse_that_does_not_match_v():
    with pytest.raises(AssertionError, match="V is not unimodular"):
        replace(GENUINE, v_inv=identity(2)).verify()
    # a consistent pair that does not diagonalize A: only U * A = D * V^-1 fails
    w = IntMatrix.from_rows([[1, 1], [0, 1]])
    w_inv = IntMatrix.from_rows([[1, -1], [0, 1]])
    with pytest.raises(AssertionError, match="U \\* A != D \\* V\\^-1"):
        replace(GENUINE, v=w, v_inv=w_inv).verify()


def test_verify_rejects_transforms_of_the_wrong_shape():
    for field in ("u", "u_inv", "v", "v_inv"):
        with pytest.raises(AssertionError, match="wrong shape"):
            replace(GENUINE, **{field: identity(3)}).verify()


@given(small_matrix(), st.sampled_from(["matrix", "u", "diagonal", "v", "u_inv", "v_inv"]),
       st.integers(0, 35), st.sampled_from([-2, -1, 1, 3]))
@settings(max_examples=300, deadline=None)
def test_verify_rejects_any_single_entry_change(a, field, at, delta):
    res = smith_normal_form(a)
    if field == "diagonal":
        diagonal = list(res.diagonal)
        assume(diagonal)
        diagonal[at % len(diagonal)] += delta
        forged = replace(res, diagonal=tuple(diagonal))
    else:
        m = getattr(res, field)
        assume(m.rows and m.cols)
        i, j = divmod(at % (m.rows * m.cols), m.cols)
        forged = replace(res, **{field: _bumped(m, i, j, delta)})
    with pytest.raises(AssertionError):
        forged.verify()


def test_snf_divisibility_on_a_torsion_heavy_matrix():
    a = IntMatrix.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]])
    res = smith_normal_form(a)
    assert res.diagonal == (2, 2, 60)


# -------------------------------------------------------------- cokernel


def test_cokernel_free_of_rank_one():
    c = cokernel(IntMatrix.from_rows([[0, 1, 0], [1, 0, 1]]))
    assert c.generators == 3
    assert c.free_rank == 1
    assert c.invariant_factors == ()


def test_cokernel_pure_torsion():
    c = cokernel(IntMatrix.from_rows([[2]]))
    assert c.free_rank == 0
    assert c.invariant_factors == (2,)
    assert c.project((1,)) == (1,)
    assert c.project((2,)) == (0,)
    assert c.project((-1,)) == (1,)


def test_cokernel_no_relations():
    c = cokernel(IntMatrix.from_rows([], cols=4))
    assert c.free_rank == 4
    assert c.invariant_factors == ()


def test_cokernel_mixed():
    # Z^2 / <(2, 0)> = Z/2 + Z
    c = cokernel(IntMatrix.from_rows([[2, 0]]))
    assert c.invariant_factors == (2,)
    assert c.free_rank == 1


def test_project_validates_length():
    c = cokernel(IntMatrix.from_rows([[2, 0]]))
    with pytest.raises(ValueError):
        c.project((1, 2, 3))


@given(small_matrix())
@settings(max_examples=200, deadline=None)
def test_generator_classes_are_projected_unit_vectors(a):
    c = cokernel(a)
    units = [tuple(int(i == j) for i in range(a.cols)) for j in range(a.cols)]
    assert c.classes == tuple(c.project(e) for e in units)


@given(small_matrix())
@settings(max_examples=200, deadline=None)
def test_free_coordinates_are_oriented(a):
    c = cokernel(a)
    torsion = len(c.invariant_factors)
    classes = c.classes
    for slot in range(torsion, torsion + c.free_rank):
        first = next(coords[slot] for coords in classes if coords[slot])
        assert first > 0


@given(small_matrix())
@settings(max_examples=200, deadline=None)
def test_class_map_is_onto(a):
    # row p of V^-1 maps to the unit vector of the slot that position p feeds
    snf = smith_normal_form(a)
    c = cokernel(a)
    torsion = [p for p, x in enumerate(snf.diagonal) if x > 1]
    positions = torsion + list(range(snf.rank, a.cols))
    for k, p in enumerate(positions):
        unit = tuple(int(i == k) for i in range(len(positions)))
        got = c.project(snf.v_inv.entries[p])
        if k < len(torsion):
            assert got == unit
        else:  # orientation may negate a free coordinate
            assert got in (unit, tuple(-x for x in unit))


@given(small_matrix())
@settings(max_examples=200, deadline=None)
def test_rows_project_to_zero(a):
    c = cokernel(a)
    width = c.free_rank + len(c.invariant_factors)
    zero = (0,) * width
    for row in a.entries:
        assert c.project(row) == zero


@given(small_matrix(), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_projection_is_invariant_under_row_shifts(a, i):
    if a.rows == 0:
        return
    c = cokernel(a)
    row = a.entries[i % a.rows]
    x = tuple(range(1, a.cols + 1))
    shifted = tuple(xi + ri for xi, ri in zip(x, row))
    assert c.project(x) == c.project(shifted)
