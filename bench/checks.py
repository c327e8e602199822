"""The benchmark's own answers, computed without calling into `infgon`.

Every job's output is checked against these.  They restate the closed forms
and definitions directly (staircase arcs, generator classes, crossing,
window arc counts, quiver windows), so a regression in the library cannot
also bend the check.
"""

from __future__ import annotations

from fractions import Fraction


def minimal_length(n: int) -> int:
    return 2 if n == 1 else n + 1


def admissible_lengths(n: int, span: int) -> range:
    """Admissible arc lengths that fit in a window of the given span."""
    return range(minimal_length(n), span + 1, n)


def window_arc_count(n: int, span: int) -> int:
    """Closed-form number of admissible arcs inside a window of this span.

    Lengths d = d0 + k*n for k = 0..K each fit span + 1 - d times, so the
    count is (K + 1)(span + 1 - d0) - n*K(K + 1)/2.
    """
    d0 = minimal_length(n)
    if span < d0:
        return 0
    k = (span - d0) // n
    return (k + 1) * (span + 1 - d0) - n * k * (k + 1) // 2


def window_arcs(n: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Every admissible arc in [lo, hi], in (t, u) order."""
    return [(t, u) for t in range(lo, hi + 1) for u in range(t + minimal_length(n), hi + 1, n)]


def staircase(n: int, m: int) -> list[tuple[int, int]]:
    """The first m canonical arcs: (1, n + 2), then (1 - kn, 2 + kn), (1 - kn, 2 + (k + 1)n)."""
    out = []
    for i in range(1, m + 1):
        k = i // 2
        out.append((1 - k * n, 2 + k * n) if i % 2 == 0 else (1 - k * n, 2 + (k + 1) * n))
    return out


def canonical_classes(n: int, m: int) -> list[int]:
    """Closed-form classes: 1, 2, 3, ... for even n; 1, 0, -1, 0, 1, ... for odd n."""
    if n % 2 == 0:
        return list(range(1, m + 1))
    return [0 if i % 2 == 0 else (1 if (i - 1) // 2 % 2 == 0 else -1) for i in range(1, m + 1)]


def first_crossing(arcs) -> tuple | None:
    """A crossing pair, or None when the arcs are laminar.

    Sweep by left endpoint (longest first); open arcs form a nested stack.
    An arc crosses the innermost still-open arc exactly when it starts
    strictly inside it and ends strictly beyond it.
    """
    stack: list[tuple[int, int]] = []
    for t, u in sorted(arcs, key=lambda a: (a[0], -a[1])):
        while stack and stack[-1][1] <= t:
            stack.pop()
        if stack and stack[-1][0] < t and stack[-1][1] < u:
            return stack[-1], (t, u)
        stack.append((t, u))
    return None


def check_completion(n: int, lo: int, hi: int, given, result) -> str | None:
    """A completed window family: input kept in front, admissible, inside, laminar."""
    result = list(result)
    given = list(given)
    if result[: len(given)] != given:
        return "input arcs are not kept, in order, at the front"
    if len(set(result)) != len(result):
        return "duplicate arcs"
    for t, u in result:
        if not (lo <= t and u <= hi) or u - t < 2 or (u - t - 1) % n:
            return f"arc ({t}, {u}) is not an admissible arc of [{lo}, {hi}]"
    pair = first_crossing(result)
    if pair is not None:
        return f"arcs {pair[0]} and {pair[1]} cross"
    if n == 1 and len(result) != hi - lo - 1:
        # a maximal n = 1 family triangulates the window polygon: span - 1 arcs
        return f"{len(result)} arcs, a maximal n=1 family in span {hi - lo} has {hi - lo - 1}"
    return None


def matrix_rank(rows: list[list[int]]) -> int:
    """Exact rank over the rationals."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / p[c]
                work[i] = [x - f * y for x, y in zip(work[i], p)]
        rank += 1
    return rank


def check_presentation(relations, invariant_factors, free_rank, classes) -> str | None:
    """Each relation row maps to zero; free rank equals generators minus rank.

    By linearity the image of a row r is sum_j r_j * class_j, reduced modulo
    each invariant factor in the torsion coordinates, so "every row projects
    to zero" is checked from the generator classes.
    """
    g = len(classes)
    torsion = len(invariant_factors)
    width = torsion + free_rank
    if any(len(c) != width for c in classes):
        return f"class vectors do not all have {width} coordinates"
    for i, d in enumerate(invariant_factors):
        if d < 2 or (i + 1 < torsion and invariant_factors[i + 1] % d):
            return f"bad invariant factors {list(invariant_factors)}"
        if any(not 0 <= c[i] < d for c in classes):
            return f"torsion coordinate {i} is not reduced modulo {d}"
    for r, row in enumerate(relations):
        if len(row) != g:
            return f"relation {r} has {len(row)} entries, expected {g}"
        for k in range(width):
            s = sum(x * c[k] for x, c in zip(row, classes) if x)
            if (s % invariant_factors[k] if k < torsion else s) != 0:
                return f"relation {r} does not project to zero (coordinate {k})"
    expected = g - matrix_rank([list(row) for row in relations])
    if free_rank != expected:
        return f"free rank {free_rank}, expected generators - rank = {expected}"
    return None


def quiver_nodes(n: int, component: int, t_lo: int, t_hi: int, depth: int, columns=None):
    """Nodes and arrows of a quiver window, from the definitions."""
    nodes = []
    for t in range(t_lo, t_hi + 1):
        if t % n != component:
            continue
        for row in range(1, depth + 1):
            u = t + row * n + 1
            if columns is None or columns[0] <= t + u <= columns[1]:
                nodes.append((t, u))
    node_set = set(nodes)
    arrows = 0
    for t, u in nodes:
        arrows += (t, u + n) in node_set
        arrows += u - t - n >= 2 and (t + n, u) in node_set
    return sorted(nodes), arrows
