"""Independent reference implementations used to cross-check the library.

Nothing in here imports from the package's internals beyond the public data
types; every function recomputes its answer from first principles so that a
bug in the library cannot hide in its own test.
"""

from itertools import combinations
from math import gcd

from infgon import Arc, CategoryParams, IntMatrix, Window, is_admissible


def forge(value, **changes):
    """A copy of the frozen `value` built through its constructor, with `changes`.

    Every constructor argument is a field, so each field named in `_fields`
    is passed on by keyword unless `changes` replaces it.  The constructor's
    own checks run, as they would for any caller.
    """
    return type(value)(**{f: getattr(value, f) for f in value._fields} | changes)


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


def quiver_window_oracle(params: CategoryParams, component: int, t_range: Window, depth: int,
                         columns: Window | None = None):
    """(nodes, arrows) of a quiver window, from a scan of every endpoint pair.

    Nodes are the admissible arcs with t in t_range, t = component mod n,
    row (u - t - 1) / n <= depth and, given `columns`, t + u in that band, in
    (t, u) order.  Arrows follow the mesh rule: (t, u) -> (t, u + n) and
    (t, u) -> (t + n, u), each kept when the target is admissible and a node.
    """
    n = params.n
    nodes = []
    for t in range(t_range.lo, t_range.hi + 1):
        for u in range(t + 1, t + (depth + 1) * n + 2):
            a = Arc(t, u)
            if (is_admissible(params, a) and t % n == component and (u - t - 1) // n <= depth
                    and (columns is None or columns.lo <= t + u <= columns.hi)):
                nodes.append(a)
    node_set = set(nodes)
    arrows = [
        (a, b)
        for a in nodes
        for b in (Arc(a.t, a.u + n), Arc(a.t + n, a.u))
        if is_admissible(params, b) and b in node_set
    ]
    return tuple(nodes), tuple(arrows)


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


def greedy_completion_oracle(family, w: Window) -> list[Arc]:
    """The arcs greedy completion adds, scanning every kept arc per candidate.

    Candidates come in (t, u) order; one is kept when it is not a member and
    crosses no member and no arc kept before it.
    """
    kept = list(family.arcs)
    out = []
    for cand in brute_force_arcs(family.params, w):
        if cand not in family.arcs and not any(crossing_oracle(cand, a) for a in kept):
            kept.append(cand)
            out.append(cand)
    return out


def diagonal_matrix(diagonal, rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix with `diagonal` down its main diagonal, else zero."""
    return IntMatrix.from_rows(
        [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(rows)],
        cols=cols,
    )


def identity(k: int) -> IntMatrix:
    """The k x k identity matrix."""
    return diagonal_matrix([1] * k, k, k)


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


def dense_smith_oracle(a: IntMatrix):
    """The Smith reduction on dense rows: (U, diagonal, V, U^-1, V^-1).

    The same pivot rule and the same elementary operations, in the same
    order, as `smith_normal_form`, but every working row is a full list.
    The library must return exactly these transforms, entry for entry.
    """
    nrows, ncols = a.rows, a.cols

    def eye(k):
        return [[int(i == j) for j in range(k)] for i in range(k)]

    def add(rows, dst, src, c):
        rows[dst] = [x + c * y for x, y in zip(rows[dst], rows[src])]

    def swap(seqs, i, j):
        for s in seqs:
            s[i], s[j] = s[j], s[i]

    d = [list(row) for row in a.entries]
    u, u_inv_t, v_t, v_inv = eye(nrows), eye(nrows), eye(ncols), eye(ncols)
    by_row = (d, u, u_inv_t)

    def add_row(src, dst, c):
        add(d, dst, src, c)
        add(u, dst, src, c)
        add(u_inv_t, src, dst, -c)

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        add(v_t, dst, src, c)
        add(v_inv, src, dst, -c)

    def swap_cols(i, j):
        swap((*d, v_t, v_inv), i, j)

    for k in range(min(nrows, ncols)):
        block = [(abs(d[i][j]), i, j) for i in range(k, nrows) for j in range(k, ncols) if d[i][j]]
        if not block:
            break
        _, pi, pj = min(block)  # smallest |x|, then lowest (row, col)
        swap(by_row, k, pi)
        swap_cols(k, pj)
        if d[k][k] < 0:
            for rows in by_row:
                rows[k] = [-x for x in rows[k]]
        while True:
            for i in range(k + 1, nrows):
                if d[i][k]:
                    q = d[i][k] // d[k][k]
                    if q:
                        add_row(k, i, -q)
                    if d[i][k]:
                        swap(by_row, k, i)
                        break
            else:
                for j in range(k + 1, ncols):
                    if d[k][j]:
                        q = d[k][j] // d[k][k]
                        if q:
                            add_col(k, j, -q)
                        if d[k][j]:
                            swap_cols(k, j)
                            break
                else:
                    pivot = d[k][k]
                    bad = [i for i in range(k + 1, nrows) if any(x % pivot for x in d[i][k + 1:])]
                    if pivot == 1 or not bad:
                        break
                    add_row(bad[0], k, 1)

    return (
        IntMatrix.from_rows(u, cols=nrows),
        tuple(d[i][i] for i in range(min(nrows, ncols))),
        IntMatrix.from_rows(list(zip(*v_t)), cols=ncols),
        IntMatrix.from_rows(list(zip(*u_inv_t)), cols=nrows),
        IntMatrix.from_rows(v_inv, cols=ncols),
    )
