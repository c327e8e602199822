"""Independent reference implementations used to cross-check the library.

Nothing in here imports from the package's internals beyond the public data
types; every function recomputes its answer from first principles so that a
bug in the library cannot hide in its own test.
"""

from itertools import combinations
from math import gcd

from infgon import Arc, CategoryParams, IntMatrix, Window, is_admissible


def crossing_oracle(a: Arc, b: Arc) -> bool:
    """Interval formulation: overlap, no shared endpoint, no containment."""
    if {a.t, a.u} & {b.t, b.u}:
        return False
    if max(a.t, b.t) >= min(a.u, b.u):
        return False  # disjoint or merely touching
    nested = (a.t < b.t and b.u < a.u) or (b.t < a.t and a.u < b.u)
    return not nested


def brute_force_arcs(params: CategoryParams, w: Window) -> list[Arc]:
    """Naive double loop over all endpoint pairs in the window."""
    out = []
    for t in range(w.lo, w.hi + 1):
        for u in range(t + 1, w.hi + 1):
            if is_admissible(params, Arc(t, u)):
                out.append(Arc(t, u))
    return out


def addable_arcs(family, w: Window) -> list[Arc]:
    """All admissible arcs in the window that extend the family crossing-free."""
    members = set(family.arcs)
    out = []
    for cand in brute_force_arcs(family.params, w):
        if cand in members:
            continue
        if all(not crossing_oracle(cand, a) for a in family.arcs):
            out.append(cand)
    return out


def maximality_oracle(family, w: Window):
    """None when maximal inside w, else the smallest addable arc."""
    extra = addable_arcs(family, w)
    return min(extra) if extra else None


def diagonal_matrix(diagonal, rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix with `diagonal` down its main diagonal, else zero."""
    return IntMatrix.from_rows(
        [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(rows)],
        cols=cols,
    )


def _det(rows: list[list[int]]) -> int:
    """Cofactor expansion; fine for the k <= 6 minors used here."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    sign = 1
    rest = rows[1:]
    for j in range(k):
        if rows[0][j]:
            sub = [r[:j] + r[j + 1 :] for r in rest]
            total += sign * rows[0][j] * _det(sub)
        sign = -sign
    return total


def invariant_factors_oracle(entries: list[list[int]]) -> list[int]:
    """Elementary divisors via gcds of k x k minors.

    d_k = gcd(all k-minors) / gcd(all (k-1)-minors).  Every k-minor is an
    integer combination of (k-1)-minors, so the running gcd can stop as
    soon as it reaches the previous level's gcd.
    """
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    g_prev = 1
    factors: list[int] = []
    for k in range(1, min(rows, cols) + 1):
        g_k = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[entries[i][j] for j in ci] for i in ri]
                g_k = gcd(g_k, _det(sub))
                if g_k == g_prev:
                    break
            if g_k == g_prev:
                break
        if g_k == 0:
            break  # all k-minors vanish: rank < k
        factors.append(g_k // g_prev)
        g_prev = g_k
    return factors
