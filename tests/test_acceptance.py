"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import random
import time

import pytest

from infgon import (
    Arc,
    ArcFamily,
    ArTriangle,
    CategoryParams,
    IntMatrix,
    K0Basis,
    Window,
    ar_relations,
    ar_triangle,
    canonical_family,
    crosses,
    enumerate_arcs,
    expected_canonical_class,
    is_maximal_in_window,
    k0_presentation,
    minimal_length,
    quiver_window,
    smith_normal_form,
    verify_theorem,
)
from oracles import (
    crossing_oracle,
    diagonal_matrix,
    invariant_factors_oracle,
    maximality_oracle,
)

SEED = 20260814


def criterion(label):
    """Print an `acceptance <label>: PASS|FAIL` line around the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {label}: FAIL")
                raise
            print(f"acceptance {label}: PASS")
            return result

        return run

    return wrap


@criterion("1 rank-one theorem grid (n 1..8, m 2..40, < 5 s)")
def test_criterion_1_theorem_grid():
    started = time.perf_counter()
    for n in range(1, 9):
        p = CategoryParams(n)
        for m in range(2, 41):
            report = verify_theorem(p, m)
            assert report.passed, (n, m, report.first_violation)
            assert report.free_rank == 1
            assert report.invariant_factors == ()
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"grid took {elapsed:.2f} s"


@criterion("2 even-case classes are i times the first")
def test_criterion_2_even_class_formula():
    for n in (2, 4, 6):
        p = CategoryParams(n)
        pres = k0_presentation(p, canonical_family(p, 30))
        first = pres.classes[0]
        for i in range(1, 31):
            expected = tuple(i * c for c in first)
            assert pres.classes[i - 1] == expected, (n, i)


@criterion("3 odd-case classes vanish and alternate")
def test_criterion_3_odd_class_formula():
    for n in (1, 3, 5):
        p = CategoryParams(n)
        pres = k0_presentation(p, canonical_family(p, 30))
        first = pres.classes[0]
        zero = tuple(0 for _ in first)
        for i in range(1, 31):
            if i % 2 == 0:
                assert pres.classes[i - 1] == zero, (n, i)
            else:
                k = (i - 1) // 2
                expected = tuple((-1) ** k * c for c in first)
                assert pres.classes[i - 1] == expected, (n, i)


@criterion("4 n=1 case of the theorem")
def test_criterion_4_n1_case():
    p = CategoryParams(1)
    for m in range(2, 41):
        report = verify_theorem(p, m)
        assert report.passed
        assert report.free_rank == 1
        assert report.invariant_factors == ()


# The three quiver figures for n = 3, one per component, each printing 18
# coordinate-labeled nodes in a diagonal band of the plane.
FIGURE_WINDOWS = {
    "component 2": (
        dict(component=2, t_range=Window(-7, 8), depth=4, columns=Window(-4, 20)),
        {
            (-4, 0), (-1, 3), (2, 6), (5, 9), (8, 12),
            (-4, 3), (-1, 6), (2, 9), (5, 12),
            (-7, 3), (-4, 6), (-1, 9), (2, 12), (5, 15),
            (-7, 6), (-4, 9), (-1, 12), (2, 15),
        },
    ),
    "component 1": (
        dict(component=1, t_range=Window(-8, 7), depth=4, columns=Window(-6, 18)),
        {
            (-5, -1), (-2, 2), (1, 5), (4, 8), (7, 11),
            (-5, 2), (-2, 5), (1, 8), (4, 11),
            (-8, 2), (-5, 5), (-2, 8), (1, 11), (4, 14),
            (-8, 5), (-5, 8), (-2, 11), (1, 14),
        },
    ),
    "component 0": (
        dict(component=0, t_range=Window(-9, 6), depth=4, columns=Window(-8, 16)),
        {
            (-6, -2), (-3, 1), (0, 4), (3, 7), (6, 10),
            (-6, 1), (-3, 4), (0, 7), (3, 10),
            (-9, 1), (-6, 4), (-3, 7), (0, 13), (3, 13),
            (-9, 4), (-6, 7), (-3, 10), (0, 10),
        },
    ),
}


@criterion("5 figure fidelity (quiver windows, staircase arcs, AR triangle)")
def test_criterion_5_figures():
    p = CategoryParams(3)
    for name, (kwargs, expected) in FIGURE_WINDOWS.items():
        qw = quiver_window(p, **kwargs)
        got = {(a.t, a.u) for a in qw.nodes}
        assert got == expected, name
        assert len(got) == 18, name

    arcs = canonical_family(p, 5).arcs
    assert arcs == (Arc(1, 5), Arc(-2, 5), Arc(-2, 8), Arc(-5, 8), Arc(-5, 11))

    tri = ar_triangle(p, Arc(1, 5))
    assert tri == ArTriangle(Arc(-2, 2), (Arc(-2, 5),), Arc(1, 5))


def _random_arc(rng, p):
    t = rng.randint(-30, 30)
    row = rng.randint(1, 6)
    return Arc(t, t + minimal_length(p) + (row - 1) * p.n)


@criterion("6a crossing predicate vs interleaving oracle (10^4 pairs)")
def test_criterion_6a_crossing_oracle():
    rng = random.Random(SEED)
    for _ in range(10_000):
        p = CategoryParams(rng.randint(1, 8))
        a, b = _random_arc(rng, p), _random_arc(rng, p)
        assert crosses(a, b) == crossing_oracle(a, b), (a, b)


@criterion("6b window maximality vs exhaustive oracle (span <= 14)")
def test_criterion_6b_maximality_oracle():
    rng = random.Random(SEED)
    for _ in range(250):
        p = CategoryParams(rng.randint(1, 4))
        lo = rng.randint(-10, 10)
        w = Window(lo, lo + rng.randint(2, 14))
        pool = enumerate_arcs(p, w)
        rng.shuffle(pool)
        kept = []
        for a in pool[: rng.randint(0, 6)]:
            if all(not crosses(a, b) for b in kept):
                kept.append(a)
        f = ArcFamily(p, kept)
        assert is_maximal_in_window(f, w) == maximality_oracle(f, w), (f, w)


@criterion("6c SNF vs minor-gcd oracle with verified transforms (10^3 matrices)")
def test_criterion_6c_snf_oracle():
    rng = random.Random(SEED)
    for _ in range(1_000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        res = smith_normal_form(a)
        nonzero = [x for x in res.diagonal if x != 0]
        assert nonzero == invariant_factors_oracle(a.entries)
        assert res.u.mul(a).mul(res.v) == diagonal_matrix(res.diagonal, rows, cols)
        assert abs(res.u.determinant()) == 1
        assert abs(res.v.determinant()) == 1


@criterion("7 every relation vanishes on the closed-form classes")
def test_criterion_7_relation_soundness():
    for n in range(1, 9):
        p = CategoryParams(n)
        for m in range(2, 41):
            basis = K0Basis(canonical_family(p, m))
            expected = [expected_canonical_class(p, i) for i in range(1, m + 1)]
            for rel in ar_relations(p, basis):
                value = sum(c * x for c, x in zip(rel.coefficients, expected, strict=True))
                assert value == 0, (n, m, rel)
