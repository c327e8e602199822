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

Pivoting rule: at each step the entry of smallest nonzero absolute value in
the remaining block is chosen, ties broken by lowest (row, col).  Together
with the fixed reduction order this makes the output a pure function of the
input, which the rendering and CLI layers rely on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass


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
                    raise ValueError(f"matrix entries must be exact integers, got {x!r}")

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
        return cls(k, k, tuple(
            tuple(1 if i == j else 0 for j in range(k)) for i in range(k)
        ))

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
    """Smith decomposition U * A * V = D of the input matrix A.

    `u_inv` and `v_inv` are the inverses of U and V; they are the
    certificate that `verify` checks.
    """

    matrix: IntMatrix
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))
        )

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)

    def verify(self) -> None:
        """Re-check every contract from first principles; raise on failure."""
        d = self.d
        if (d.rows, d.cols) != (self.matrix.rows, self.matrix.cols):
            raise AssertionError("D has wrong shape")
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j and d.entries[i][j] != 0:
                    raise AssertionError(f"D is not diagonal at ({i}, {j})")
        diag = self.diagonal()
        for i, x in enumerate(diag):
            if x < 0:
                raise AssertionError(f"negative diagonal entry d[{i}] = {x}")
            if i + 1 < len(diag):
                nxt = diag[i + 1]
                if x == 0 and nxt != 0:
                    raise AssertionError("zero diagonal entry before a nonzero one")
                if x != 0 and nxt % x != 0:
                    raise AssertionError(f"divisibility broken: {x} does not divide {nxt}")
        rows, cols = d.rows, d.cols
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
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    u_inv_t = [list(row) for row in u]
    v_inv = [list(row) for row in v]

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

    limit = min(nrows, ncols)
    for k in range(limit):
        # smallest nonzero |entry| in the remaining block, ties by (row, col)
        best = None
        where = None
        for i in range(k, nrows):
            drow = d[i]
            for j in range(k, ncols):
                x = drow[j]
                if x:
                    x = -x if x < 0 else x
                    if best is None or x < best:
                        best = x
                        where = (i, j)
                        if x == 1:
                            break
            if best == 1:
                break
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
        d=freeze(d, ncols),
        v=freeze(v, ncols),
        u_inv=freeze(list(zip(*u_inv_t)), nrows),
        v_inv=freeze(v_inv, ncols),
    )
    result.verify()
    return result


@dataclass(frozen=True)
class Cokernel:
    """The quotient of Z^g by the row span of a relation matrix.

    Coordinates produced by `project` list the torsion components first (one
    per invariant factor, reduced to [0, d)) and then the free components.
    Rows of the defining matrix project to zero exactly.  The image of
    generator j is row j of V read in those coordinates, which
    `generator_classes` returns for every j at once.  Free coordinates are
    oriented: in each, the first generator with a nonzero coordinate gets a
    positive one.
    """

    generators: int
    invariant_factors: tuple[int, ...]
    free_rank: int
    _v: tuple[tuple[int, ...], ...]
    _torsion_positions: tuple[int, ...]
    _rank: int

    def project(self, vector: list[int] | tuple[int, ...]) -> tuple[int, ...]:
        if len(vector) != self.generators:
            raise ValueError(
                f"vector has length {len(vector)}, expected {self.generators}"
            )
        ev = self._v
        g = self.generators

        def coordinate(i: int) -> int:
            return sum(ev[j][i] * vector[j] for j in range(g))

        coords = [
            coordinate(pos) % self.invariant_factors[idx]
            for idx, pos in enumerate(self._torsion_positions)
        ]
        coords.extend(coordinate(i) for i in range(self._rank, g))
        return tuple(coords)

    def generator_classes(self) -> tuple[tuple[int, ...], ...]:
        """`project` of every unit vector, read off the rows of V."""
        torsion = tuple(zip(self._torsion_positions, self.invariant_factors))
        rank = self._rank
        return tuple(
            tuple(row[pos] % f for pos, f in torsion) + row[rank:]
            for row in self._v
        )


def cokernel(a: IntMatrix) -> Cokernel:
    """Cokernel of the row span of `a` inside Z^cols, via Smith reduction.

    Each free column of V (past the rank, where D's column is zero, so
    U * A * V = D still holds) whose first nonzero entry is negative is
    negated: the first generator with a nonzero free coordinate gets a
    positive one.  V is invertible, so every column has a nonzero entry.
    """
    snf = smith_normal_form(a)
    diag = snf.diagonal()
    rank = snf.rank
    torsion_positions = tuple(i for i, x in enumerate(diag) if x > 1)
    v = snf.v.entries
    signs = [-1 if next(row[c] for row in v if row[c]) < 0 else 1 for c in range(rank, a.cols)]
    if -1 in signs:
        v = tuple(row[:rank] + tuple(s * x for s, x in zip(signs, row[rank:])) for row in v)
    return Cokernel(
        generators=a.cols,
        invariant_factors=tuple(diag[i] for i in torsion_positions),
        free_rank=a.cols - rank,
        _v=v,
        _torsion_positions=torsion_positions,
        _rank=rank,
    )
