"""Exact integer matrices, Smith normal form, and cokernel data.

Everything here runs on plain Python integers, so there is no overflow to
report and no precision to lose.  The Smith reduction keeps full row and
column transforms (U * A * V = D) because the group presentations downstream
need the column transform to express generator classes in the reduced basis.

Every elementary operation is mirrored into U or V and, inverted, into U^-1
or V^-1, so the reduction also returns both inverses.  V and U^-1 are kept
transposed, so one sparse row kernel, `_add_row`, does every row and column
operation; the self-check and `IntMatrix.mul` form their row products with
it too.  A column is added to clear row k only after column k is cleared to
d[k][k] * e_k, so on D it changes the one entry in row k.  The self-check
run on every result proves the decomposition from those four integer
matrices with three exact products over the nonzero entries: U * U^-1 = I
and V^-1 * V = I show that U and V are unimodular (an integer matrix with an
integer inverse has determinant +-1), and U * A = D * V^-1 then gives
U * A * V = D * V^-1 * V = D.  No determinant is needed.

A matrix is stored by its nonzeros: `IntMatrix.terms` holds each row's
(column, value) pairs.  The reduction and the products work on dict rows,
so a row update costs the nonzeros of its source row, not the width of the
matrix; only the dense views `IntMatrix.entries` and
`RelationVector.coefficients` build a dense row.  The pivots and the
elementary operations are the ones a dense elimination would make, in the
same order, so the transforms are the same too.

Pivoting rule, owned by `_pivot`: at each step the entry of smallest nonzero
absolute value in the remaining block is chosen, ties broken by lowest
(row, col).  Together with the fixed reduction order this makes the output a
pure function of the input, which the rendering and CLI layers rely on.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from itertools import chain, zip_longest

from .arcs import FrozenValue, short_repr


def _require_ints(values: Sequence[object]) -> None:
    """Raise on the first value that is not an exact integer; bools are refused."""
    wrong = {t for t in set(map(type, values)) if t is bool or not issubclass(t, int)}
    if wrong:
        x = next(x for x in values if type(x) in wrong)
        raise ValueError(f"matrix entries must be exact integers, got {short_repr(x)}")


def dense_row(terms: Iterable[tuple[int, int]], width: int) -> tuple[int, ...]:
    """The dense row of `width` entries whose nonzeros are the (column, value) `terms`."""
    row = [0] * width
    for j, x in terms:
        row[j] = x
    return tuple(row)


class IntMatrix(FrozenValue):
    """An immutable rectangular matrix of exact integers, stored by its nonzeros.

    `terms[i]` holds the (column, value) pairs of row i's nonzero entries in
    ascending column order, so equal matrices have equal terms.  Dimensions
    are stored explicitly so that matrices with zero rows or columns
    round-trip cleanly.  Construction checks all of this.
    """

    __slots__ = _fields = ("rows", "cols", "terms")
    rows: int
    cols: int
    terms: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(
        self, rows: int, cols: int, terms: tuple[tuple[tuple[int, int], ...], ...]
    ) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(terms) != rows:
            raise ValueError(f"expected {rows} rows, got {len(terms)}")
        for row in terms:
            js, xs = zip(*row) if row else ((), ())
            _require_ints(js + xs)
            if list(js) != sorted(set(js)) or js and not 0 <= js[0] <= js[-1] < cols:
                raise ValueError(f"columns must ascend in [0, {cols}), got {short_repr(js)}")
            if 0 in xs:
                raise ValueError("matrix terms must not store a zero")
        super().__init__(rows, cols, terms)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows, built on each access."""
        return tuple(dense_row(row, self.cols) for row in self.terms)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        width = len(rows[0]) if rows else cols
        if width is None:
            raise ValueError("cannot infer column count of an empty matrix")
        if cols is not None and cols != width:
            raise ValueError(f"declared {cols} columns but rows have {width}")
        for row in rows:
            if len(row) != width:
                raise ValueError(f"ragged matrix: expected {width} columns, got {len(row)}")
        _require_ints(tuple(chain.from_iterable(rows)))  # zeros too: 0.0 and False are refused
        terms = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)
        return cls(len(rows), width, terms)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        terms = tuple(tuple(sorted(_row_times(row, other).items())) for row in self.terms)
        return IntMatrix(self.rows, other.cols, terms)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        k = self.rows
        if k == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for col in range(k - 1):
            if a[col][col] == 0:
                for i in range(col + 1, k):
                    if a[i][col] != 0:
                        a[col], a[i] = a[i], a[col]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(col + 1, k):
                for j in range(col + 1, k):
                    # division is exact in the Bareiss scheme
                    a[i][j] = (a[i][j] * a[col][col] - a[i][col] * a[col][j]) // prev
                a[i][col] = 0
            prev = a[col][col]
        return sign * a[k - 1][k - 1]


class SnfResult(FrozenValue):
    """Smith decomposition U * A * V = D of `matrix`, with D stored as its diagonal.

    `u_inv` and `v_inv` are the inverses of U and V; they are the
    certificate that `verify` checks; construction checks nothing.
    """

    __slots__ = _fields = ("matrix", "u", "diagonal", "v", "u_inv", "v_inv")
    matrix: IntMatrix
    u: IntMatrix
    diagonal: tuple[int, ...]
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    def verify(self) -> None:
        """Re-check every contract from first principles; raise on failure."""
        rows, cols = self.matrix.rows, self.matrix.cols
        diag = self.diagonal
        if len(diag) != min(rows, cols):
            raise AssertionError("diagonal has wrong length")
        for i, x in enumerate(diag):
            if isinstance(x, bool) or not isinstance(x, int):
                raise AssertionError(f"diagonal entry d[{i}] is not an exact integer")
            if x < 0:
                raise AssertionError(f"negative diagonal entry d[{i}] = {x}")
            prev = diag[i - 1] if i else 1
            if x != 0 and (prev == 0 or x % prev != 0):
                raise AssertionError(f"divisibility broken: {prev} does not divide {x}")
        for name, t, k in (
            ("U", self.u, rows), ("U^-1", self.u_inv, rows),
            ("V", self.v, cols), ("V^-1", self.v_inv, cols),
        ):
            if (t.rows, t.cols) != (k, k):
                raise AssertionError(f"{name} has wrong shape")
        # D * V^-1: row i is d[i] times row i of V^-1, zero past the diagonal
        inv = self.v_inv.terms
        dv = ({j: x * y for j, y in inv[i]} if x else {} for i, x in zip_longest(range(rows), diag))
        # each product a * b is compared with `want` one row at a time.  V may be a
        # dense triangle, so V^-1 * V, whose rows sum a few long rows of V, is cheaper
        for a, b, want, failure in (
            (self.u, self.u_inv, _identity_rows(rows), "U * U^-1 != I: U is not unimodular"),
            (self.v_inv, self.v, _identity_rows(cols), "V^-1 * V != I: V is not unimodular"),
            (self.u, self.matrix, dv, "U * A != D * V^-1, so U * A * V != D"),
        ):
            if any(_row_times(row, b) != w for row, w in zip(a.terms, want)):
                raise AssertionError(failure)


_Row = dict[int, int]  # column -> value of one sparse row; zeros are never stored


def _identity_rows(k: int) -> list[_Row]:
    return [{i: 1} for i in range(k)]


def _add_row(row: _Row, src: Iterable[tuple[int, int]], c: int) -> None:
    """row += c * src for c != 0: the one sparse row kernel of this module.

    It does the reduction's row and column operations, D's one-entry column
    update, and the row products of the self-check and `IntMatrix.mul`.
    Only the (column, value) nonzeros of `src` are visited.  A sum that
    cancels is deleted; a new entry c * y is never zero.
    """
    for j, y in src:
        x = row.get(j, 0) + c * y
        if x:
            row[j] = x
        else:
            del row[j]


def _swap(seqs: Iterable[list], i: int, j: int) -> None:
    for s in seqs:
        s[i], s[j] = s[j], s[i]


def _pivot(d: list[_Row], k: int) -> tuple[int, int] | None:
    """(row, col) of the pivot for step k, or None if the block from (k, k) is zero.

    Rows from k store only columns from k, so every stored entry there is a
    candidate.  Dicts keep insertion order, so the lowest column is found by
    comparing, not by position: the result is the first entry of least
    absolute value in row-major order, and a row holding a unit ends the scan.
    """
    best, where = 0, None
    for i in range(k, len(d)):
        low, col = 0, 0
        for j, x in d[i].items():
            x = -x if x < 0 else x
            if not low or x < low or (x == low and j < col):
                low, col = x, j
        if low == 1:
            return i, col
        if low and (not best or low < best):
            best, where = low, (i, col)
    return where


def _row_times(row: Iterable[tuple[int, int]], b: IntMatrix) -> _Row:
    """The sparse row `row` * b, visiting only pairs of nonzero entries."""
    acc: _Row = {}
    for k, x in row:
        _add_row(acc, b.terms[k], x)
    return acc


def _freeze(rows: list[_Row], transposed: bool = False) -> IntMatrix:
    """The square IntMatrix of sparse `rows` (or of their transpose).

    A transposed row fills in ascending order, since `rows` are read in
    order.  The working rows are dropped once copied.
    """
    k = len(rows)
    if transposed:
        out: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                out[j].append((i, x))
        terms = tuple(map(tuple, out))
    else:
        terms = tuple(tuple(sorted(row.items())) for row in rows)
    rows.clear()
    return IntMatrix(k, k, terms)


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with transforms, entirely over exact integers.

    Elementary row operations are mirrored into U, column operations into V,
    so U * A * V = D holds at every step by construction, and their inverses
    into U^-1 and V^-1.  Each pivot ends up positive and divides all entries
    of the remaining block, which gives the divisibility chain directly.

    Rows of D above k hold only their diagonal entry, so a column swap
    touches only the rows from k that store one of the two columns.
    Clearing scans rows and columns in ascending order, as a dense scan
    would.
    """
    nrows, ncols = a.rows, a.cols
    d = [dict(row) for row in a.terms]
    u, u_inv_t = _identity_rows(nrows), _identity_rows(nrows)
    v_t, v_inv = _identity_rows(ncols), _identity_rows(ncols)
    by_row = (d, u, u_inv_t)  # what a row swap or sign flip moves

    def swap_cols(i: int, j: int) -> None:
        # entries i and j of the rows of D from k, rows i and j of V^T and V^-1
        for row in d[k:]:
            if i in row or j in row:
                x, y = row.pop(i, 0), row.pop(j, 0)
                if y:
                    row[i] = y
                if x:
                    row[j] = x
        _swap((v_t, v_inv), i, j)

    def add_row(src: int, dst: int, c: int) -> None:
        # row[dst] += c * row[src]; the inverse subtracts column dst from src
        _add_row(d[dst], d[src].items(), c)
        _add_row(u[dst], u[src].items(), c)
        _add_row(u_inv_t[src], u_inv_t[dst].items(), -c)

    def add_col(src: int, dst: int, c: int) -> None:
        # col[dst] += c * col[src]; the inverse subtracts row dst from src.
        # Only called to clear row k, once column k is d[k][k] * e_k (src = k)
        _add_row(d[src], ((dst, d[src][src]),), c)
        _add_row(v_t[dst], v_t[src].items(), c)
        _add_row(v_inv[src], v_inv[dst].items(), -c)

    for k in range(min(nrows, ncols)):
        where = _pivot(d, k)
        if where is None:
            break  # remaining block is zero; trailing diagonal stays zero
        if where[0] != k:
            _swap(by_row, k, where[0])
        if where[1] != k:
            swap_cols(k, where[1])
        if d[k][k] < 0:
            for rows in by_row:
                rows[k] = {j: -x for j, x in rows[k].items()}

        # A pass either leaves a smaller positive pivot or forces the next
        # pass to, so a step ends within 2 * d[k][k] - 1 passes.  Two passes
        # in a row without a drop mean the reduction broke that invariant.
        last, stale = d[k][k], False
        while True:
            # clear column k; a nonzero remainder becomes a smaller pivot
            for i in range(k + 1, nrows):
                x = d[i].get(k)
                if x:
                    q = x // d[k][k]
                    if q:
                        add_row(k, i, -q)
                    if k in d[i]:
                        _swap(by_row, k, i)  # remainder is in (0, pivot)
                        break
            else:
                # clear row k; column k stays clear because only columns > k move
                for j in sorted(j for j in d[k] if j > k):
                    q = d[k][j] // d[k][k]
                    if q:
                        add_col(k, j, -q)
                    if j in d[k]:
                        swap_cols(k, j)
                        break
                else:
                    # force the pivot to divide the rest of the block
                    pivot = d[k][k]
                    if pivot == 1:
                        break  # 1 divides everything
                    for i in range(k + 1, nrows):
                        # column k is clear, so these are the entries past it
                        if any(x % pivot for x in d[i].values()):
                            add_row(i, k, 1)  # d[i][k] == 0, pivot unchanged
                            break
                    else:
                        break
            if 0 < d[k][k] < last:
                last, stale = d[k][k], False
            elif stale:
                raise AssertionError(f"Smith reduction step {k} did not converge")
            else:
                stale = True

    result = SnfResult(
        matrix=a,
        u=_freeze(u),
        diagonal=tuple(d[i].get(i, 0) for i in range(min(nrows, ncols))),
        v=_freeze(v_t, transposed=True),
        u_inv=_freeze(u_inv_t, transposed=True),
        v_inv=_freeze(v_inv),
    )
    result.verify()
    return result


class Cokernel(FrozenValue):
    """The quotient of Z^g by the row span of a relation matrix.

    `classes[j]` is the image of generator j: its torsion components first
    (one per invariant factor, reduced to [0, d)), then its free components.
    `project` extends this map linearly, so rows of the defining matrix
    project to zero exactly.  Free coordinates are oriented: in each, the
    first generator with a nonzero coordinate gets a positive one.
    """

    __slots__ = _fields = ("generators", "invariant_factors", "free_rank", "classes")
    generators: int
    invariant_factors: tuple[int, ...]
    free_rank: int
    classes: tuple[tuple[int, ...], ...]

    def project(self, vector: list[int] | tuple[int, ...]) -> tuple[int, ...]:
        if len(vector) != self.generators:
            raise ValueError(
                f"vector has length {len(vector)}, expected {self.generators}"
            )
        factors = self.invariant_factors
        coords = [
            sum(x * c[k] for x, c in zip(vector, self.classes))
            for k in range(len(factors) + self.free_rank)
        ]
        return tuple(s % f for s, f in zip(coords, factors)) + tuple(coords[len(factors):])


def cokernel(a: IntMatrix) -> Cokernel:
    """Cokernel of the row span of `a` inside Z^cols, via Smith reduction."""
    return cokernel_from(smith_normal_form(a), range(a.cols))


def cokernel_from(snf: SnfResult, rows: Sequence[int]) -> Cokernel:
    """The cokernel of `snf.matrix`, whose generator j is column rows[j].

    The class of generator j is row rows[j] of V, read at the torsion
    positions and then past the rank: the divisibility chain puts the unit
    factors first, so that is one slice from the first torsion position.
    Each class is a zero list filled in from the row's nonzeros in that
    slice.  A free column of V is negated where the orientation of
    `Cokernel` needs it; D's column there is zero, so U * A * V = D still
    holds.  V is invertible, so every column has a nonzero entry, and the
    first one met in generator order sets its sign.
    """
    factors = tuple(x for x in snf.diagonal if x > 1)
    start = snf.rank - len(factors)
    width = snf.matrix.cols - start
    signs = [1] * len(factors) + [0] * (width - len(factors))
    v = snf.v.terms
    classes = []
    for p in rows:
        row = v[p]
        cls = [0] * width
        for c, y in row[bisect_left(row, (start,)):]:
            c -= start
            if not signs[c]:
                signs[c] = -1 if y < 0 else 1
            cls[c] = signs[c] * y
        for c, x in enumerate(factors):
            cls[c] %= x
        classes.append(tuple(cls))
    return Cokernel(snf.matrix.cols, factors, width - len(factors), tuple(classes))
