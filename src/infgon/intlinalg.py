"""Exact integer matrices, Smith normal form, and cokernel data.

Everything here runs on plain Python integers, so there is no overflow to
report and no precision to lose.  The Smith reduction keeps full row and
column transforms (U * A * V = D) because the group presentations downstream
need the column transform to express generator classes in the reduced basis.

Every elementary operation is mirrored into U or V and, inverted, into U^-1
or V^-1, so the reduction also returns both inverses.  The self-check run on
every result proves the decomposition from those four integer matrices with
three exact products over the nonzero entries: U * U^-1 = I and
V * V^-1 = I show that U and V are unimodular (an integer matrix with an
integer inverse has determinant +-1), and U * A = D * V^-1 then gives
U * A * V = D * V^-1 * V = D.  No determinant is needed.

Pivoting rule, owned by `_pivot`: at each step the entry of smallest nonzero
absolute value in the remaining block is chosen, ties broken by lowest
(row, col).  Together with the fixed reduction order this makes the output a
pure function of the input, which the rendering and CLI layers rely on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .arcs import short_repr


@dataclass(frozen=True)
class IntMatrix:
    """An immutable rectangular matrix of exact integers.

    Dimensions are stored explicitly so that matrices with zero rows or
    columns round-trip cleanly.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise ValueError(
                f"expected {self.rows} rows, got {len(self.entries)}"
            )
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError(
                    f"ragged matrix: expected {self.cols} columns, got {len(row)}"
                )
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError(f"matrix entries must be exact integers, got {short_repr(x)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        if not rows:
            if cols is None:
                raise ValueError("cannot infer column count of an empty matrix")
            return cls(0, cols, ())
        width = len(rows[0])
        if cols is not None and cols != width:
            raise ValueError(f"declared {cols} columns but rows have {width}")
        return cls(len(rows), width, tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls(k, k, tuple(map(tuple, _identity_rows(k))))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} times {other.rows}x{other.cols}"
            )
        ocols = other.cols
        oent = other.entries
        out = []
        for row in self.entries:
            acc = [0] * ocols
            for k, x in enumerate(row):
                if x:
                    orow = oent[k]
                    for j in range(ocols):
                        acc[j] += x * orow[j]
            out.append(tuple(acc))
        return IntMatrix(self.rows, ocols, tuple(out))

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


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition U * A * V = D of `matrix`, with D stored as its diagonal.

    `u_inv` and `v_inv` are the inverses of U and V; they are the
    certificate that `verify` checks.
    """

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
        if not _product_is(self.u, self.u_inv, _identity_rows(rows)):
            raise AssertionError("U * U^-1 != I: U is not unimodular")
        if not _product_is(self.v, self.v_inv, _identity_rows(cols)):
            raise AssertionError("V * V^-1 != I: V is not unimodular")
        # D * V^-1: row i is d[i] times row i of V^-1, zero past the diagonal
        inv = self.v_inv.entries
        dv = (
            [diag[i] * y for y in inv[i]] if i < len(diag) else [0] * cols
            for i in range(rows)
        )
        if not _product_is(self.u, self.matrix, dv):
            raise AssertionError("U * A != D * V^-1, so U * A * V != D")


def _identity_rows(k: int) -> Iterator[list[int]]:
    return ([1 if i == j else 0 for j in range(k)] for i in range(k))


def _pivot(d: list[list[int]], k: int, ncols: int) -> tuple[int, int] | None:
    """(row, col) of the pivot for step k, or None if the block from (k, k) is zero."""
    best, where = 0, None
    for i in range(k, len(d)):
        for j, x in enumerate(d[i][k:ncols], k):
            if x:
                x = -x if x < 0 else x
                if x == 1:
                    return i, j
                if not best or x < best:
                    best, where = x, (i, j)
    return where


def _product_is(a: IntMatrix, b: IntMatrix, want: Iterable[list[int]]) -> bool:
    """Whether a * b equals `want`, visiting only pairs of nonzero entries.

    `want` yields one list per row of a; shapes are the caller's to check.
    Transforms of banded matrices are mostly zero, so this costs far less
    than a dense product, and only one row of the product is held at a time.
    """
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b.entries]
    for row, expected in zip(a.entries, want):
        acc = [0] * b.cols
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] += x * y
        if acc != expected:
            return False
    return True


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form with transforms, entirely over exact integers.

    Elementary row operations are mirrored into U, column operations into V,
    so U * A * V = D holds at every step by construction.  The inverse of
    each operation is mirrored into U^-1 and V^-1 from the other side.  U^-1
    is kept transposed, so that every update of an inverse is a row
    operation.  Each pivot ends up positive and divides all entries of the
    remaining block, which gives the divisibility chain directly.
    """
    nrows, ncols = a.rows, a.cols
    d = [list(row) for row in a.entries]
    u, u_inv_t = list(_identity_rows(nrows)), list(_identity_rows(nrows))
    v, v_inv = list(_identity_rows(ncols)), list(_identity_rows(ncols))

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def swap_cols(i: int, j: int) -> None:
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src: int, dst: int, c: int) -> None:
        # row[dst] += c * row[src]; the inverse subtracts column dst from src
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        u_inv_t[src] = [x - c * y for x, y in zip(u_inv_t[src], u_inv_t[dst])]

    def add_col(src: int, dst: int, c: int) -> None:
        # col[dst] += c * col[src]; the inverse subtracts row dst from src
        for row in d:
            if row[src]:
                row[dst] += c * row[src]
        for row in v:
            if row[src]:
                row[dst] += c * row[src]
        v_inv[src] = [x - c * y for x, y in zip(v_inv[src], v_inv[dst])]

    def negate_row(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        u_inv_t[i] = [-x for x in u_inv_t[i]]

    for k in range(min(nrows, ncols)):
        where = _pivot(d, k, ncols)
        if where is None:
            break  # remaining block is zero; trailing diagonal stays zero
        if where[0] != k:
            swap_rows(k, where[0])
        if where[1] != k:
            swap_cols(k, where[1])
        if d[k][k] < 0:
            negate_row(k)

        while True:
            # clear column k; a nonzero remainder becomes a smaller pivot
            for i in range(k + 1, nrows):
                x = d[i][k]
                if x:
                    q = x // d[k][k]
                    if q:
                        add_row(k, i, -q)
                    if d[i][k]:
                        swap_rows(k, i)  # remainder is in (0, pivot)
                        break
            else:
                # clear row k; column k stays clear because only columns > k move
                for j in range(k + 1, ncols):
                    x = d[k][j]
                    if x:
                        q = x // d[k][k]
                        if q:
                            add_col(k, j, -q)
                        if d[k][j]:
                            swap_cols(k, j)
                            break
                else:
                    # force the pivot to divide the rest of the block
                    pivot = d[k][k]
                    if pivot == 1:
                        break  # 1 divides everything
                    for i in range(k + 1, nrows):
                        if any(x % pivot for x in d[i][k + 1:]):
                            add_row(i, k, 1)  # d[i][k] == 0, pivot unchanged
                            break
                    else:
                        break

    def freeze(rows: list, width: int) -> IntMatrix:
        # drop each working copy once it is copied, so at most one is doubled
        m = IntMatrix.from_rows(rows, cols=width)
        rows.clear()
        return m

    result = SnfResult(
        matrix=a,
        u=freeze(u, nrows),
        diagonal=tuple(d[i][i] for i in range(min(nrows, ncols))),
        v=freeze(v, ncols),
        u_inv=freeze(list(zip(*u_inv_t)), nrows),
        v_inv=freeze(v_inv, ncols),
    )
    result.verify()
    return result


@dataclass(frozen=True)
class Cokernel:
    """The quotient of Z^g by the row span of a relation matrix.

    `classes[j]` is the image of generator j: its torsion components first
    (one per invariant factor, reduced to [0, d)), then its free components.
    `project` extends this map linearly, so rows of the defining matrix
    project to zero exactly.  Free coordinates are oriented: in each, the
    first generator with a nonzero coordinate gets a positive one.
    """

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
    """Cokernel of the row span of `a` inside Z^cols, via Smith reduction.

    The class of generator j is row j of V, read at the torsion positions
    and then past the rank.  A free column of V is negated where the
    orientation of `Cokernel` needs it; D's column there is zero, so
    U * A * V = D still holds.  V is invertible, so every column has a
    nonzero entry.
    """
    snf = smith_normal_form(a)
    rank = snf.rank
    torsion = [(i, x) for i, x in enumerate(snf.diagonal) if x > 1]
    v = snf.v.entries
    signs = [-1 if next(row[c] for row in v if row[c]) < 0 else 1 for c in range(rank, a.cols)]
    flip = -1 in signs
    classes = tuple(
        tuple(row[i] % x for i, x in torsion)
        + (tuple(s * y for s, y in zip(signs, row[rank:])) if flip else row[rank:])
        for row in v
    )
    return Cokernel(a.cols, tuple(x for _, x in torsion), a.cols - rank, classes)
