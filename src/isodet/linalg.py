"""Dense exact matrices and the one elimination kernel every rank
condition reduces to.

:func:`echelon` is Gauss-Jordan elimination to reduced row-echelon form;
rank, determinant, minors, inverse, left inverse and null space are thin
views of it.  Elimination, products and sums reduce and combine rows
through the ``Field`` row methods, so only :mod:`isodet.fields` does
scalar arithmetic on rows.  The Pfaffian keeps its own scalar expansion,
an independent check on the determinant (pf^2 = det).

Entries are raw field payloads (see :mod:`isodet.fields`); a matrix never
mixes fields.  Matrices are immutable after construction and all
operations are pure, so values can be shared freely between concurrent
workers.  Pivoting is deterministic (first non-zero), so every output is
reproducible across runs and platforms.

Degenerate shapes are legal: a 0x0 determinant and Pfaffian are both 1,
which lets boundary-parameter generator sets degrade gracefully.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedInput,
    NonSquare,
    NotSkewSymmetric,
    OddDimension,
    RankDeficient,
    SizeMismatch,
)
from .fields import Field, field_from_json


def check_minor_selection(rowset: tuple, colset: tuple, rows: int, cols: int) -> None:
    """The index sets of a minor of a rows-by-cols grid: equal sizes
    (else SizeMismatch), each strictly increasing and in range (else
    IndexOutOfRange)."""
    if len(rowset) != len(colset):
        raise SizeMismatch("row and column sets differ in size")
    for sel, bound in ((rowset, rows), (colset, cols)):
        if any(i < 0 or i >= bound for i in sel):
            raise IndexOutOfRange(f"selection {sel} out of range")
        if any(a >= b for a, b in zip(sel, sel[1:])):
            raise IndexOutOfRange(f"selection {sel} is not strictly increasing")


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, rows: int | None = None, cols: int | None = None):
        data = tuple(map(tuple, data))
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or not set(map(len, data)) <= {cols}:
            raise DimensionMismatch("ragged or mis-sized entry grid")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    # ------------------------------------------------------------ builders

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    @classmethod
    def from_ints(cls, field: Field, grid) -> "Matrix":
        return cls(field, [[field.from_int(v) for v in row] for row in grid])

    @classmethod
    def from_json(cls, obj: dict, field: Field | None = None) -> "Matrix":
        rows = obj.get("rows") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(s, str) for s in row) for row in rows
        ):
            raise MalformedInput('expected a matrix as {"rows": [["<entry>", ...], ...]}')
        ffield = field_from_json(obj["field"]) if "field" in obj else field
        if ffield is None:
            raise DimensionMismatch("matrix JSON carries no field and none was supplied")
        if field is not None and ffield != field:
            raise DimensionMismatch("matrix JSON field disagrees with the expected field")

        def entry(s, i, j):
            try:
                return ffield.parse(s)
            except (ValueError, ZeroDivisionError):
                raise MalformedInput(f"entry {s!r} at row {i}, column {j} is not an element of the "
                                     f"{ffield.kind} field") from None

        return cls(ffield, [[entry(s, i, j) for j, s in enumerate(row)] for i, row in enumerate(rows)])

    def to_json(self) -> dict:
        render = self.field.render
        return {
            "field": self.field.descriptor(),
            "rows": [[render(v) for v in row] for row in self.data],
        }

    # ------------------------------------------------------------ access

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def flat(self):
        """Entries in row-major order (the variable order of the
        polynomial module)."""
        return tuple(v for row in self.data for v in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.render(v) for v in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # ------------------------------------------------------------ algebra

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise DimensionMismatch("matrices live over different fields")

    @property
    def T(self) -> "Matrix":
        # a 0-row matrix has no rows to zip: its transpose is cols empty rows
        return Matrix(
            self.field,
            tuple(zip(*self.data)) if self.rows else ((),) * self.cols,
            self.cols,
            self.rows,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        axpy, one = self.field.axpy, self.field.one
        return Matrix(
            self.field, [axpy(one, rb, ra) for ra, rb in zip(self.data, other.data)], self.rows, self.cols
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return self.scale(self.field.neg(self.field.one))

    def scale(self, c) -> "Matrix":
        scale_row = self.field.scale_row
        return Matrix(self.field, [scale_row(c, row) for row in self.data], self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Matrix(self.field, self.field.matmul(self.data, other.data, other.cols), self.rows, other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.cols != other.cols:
            raise DimensionMismatch("column count mismatch in vstack")
        return Matrix(self.field, self.data + other.data, self.rows + other.rows, self.cols)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        rows = [[self.data[i][j] for j in col_idx] for i in row_idx]
        return Matrix(self.field, rows, len(row_idx), len(col_idx))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        F = self.field
        for i in range(self.rows):
            if not F.is_zero(self.data[i][i]):
                return False
            for j in range(i + 1, self.cols):
                if self.data[i][j] != F.neg(self.data[j][i]):
                    return False
        return True

    # ------------------------------------------------------------ elimination

    def _mutable(self):
        return [list(row) for row in self.data]

    def rank(self) -> int:
        return len(echelon(self.field, self._mutable())[0])

    def det(self):
        if self.rows != self.cols:
            raise NonSquare("determinant of a non-square matrix")
        pivots, factor = echelon(self.field, self._mutable())
        return factor if len(pivots) == self.rows else self.field.zero

    def inverse(self) -> "Matrix":
        """Right half of the reduced row-echelon form of [A | I]."""
        if self.rows != self.cols:
            raise NonSquare("inverse of a non-square matrix")
        F, n = self.field, self.rows
        aug = [row + [F.one if i == j else F.zero for j in range(n)] for i, row in enumerate(self._mutable())]
        pivots, _ = echelon(F, aug)
        if pivots != list(range(n)):
            raise RankDeficient("matrix is singular")
        return Matrix(F, [row[n:] for row in aug], n, n)

    def pfaffian(self):
        """Pfaffian by recursive expansion along the first remaining row.

        Normalization: pf of the 0x0 matrix is 1, and pf of the standard
        block-diagonal [[0,1],[-1,0]] form is +1.
        """
        if self.rows != self.cols:
            raise NonSquare("Pfaffian of a non-square matrix")
        if self.rows % 2 != 0:
            raise OddDimension("Pfaffian needs even dimension")
        if not self.is_skew():
            raise NotSkewSymmetric("Pfaffian needs a skew matrix with zero diagonal")
        F = self.field
        add, sub, mul, zero = F.add, F.sub, F.mul, F.zero
        data = self.data
        memo: dict = {}

        def pf(idx):
            if not idx:
                return F.one
            got = memo.get(idx)
            if got is not None:
                return got
            i0 = idx[0]
            rest = idx[1:]
            acc = zero
            for k, j in enumerate(rest):
                a = data[i0][j]
                if a == zero:
                    continue
                sub_idx = rest[:k] + rest[k + 1 :]
                term = mul(a, pf(sub_idx))
                acc = add(acc, term) if k % 2 == 0 else sub(acc, term)
            memo[idx] = acc
            return acc

        return pf(tuple(range(self.rows)))

    def minor(self, rowset, colset):
        """Determinant of the submatrix on strictly increasing index sets."""
        rowset, colset = tuple(rowset), tuple(colset)
        check_minor_selection(rowset, colset, self.rows, self.cols)
        return self.submatrix(rowset, colset).det()

    def left_inverse(self) -> "Matrix":
        """Some Y with Y @ self = identity; needs full column rank.

        Deterministic: the first maximal independent set of rows (in row
        order, i.e. the pivot columns of the transpose) is inverted and
        embedded, so repeated calls agree.
        """
        n = self.cols
        chosen = echelon(self.field, [list(col) for col in zip(*self.data)])[0]
        if len(chosen) < n:
            raise RankDeficient("matrix does not have full column rank")
        block = self.submatrix(chosen, range(n)).inverse()
        out = [[self.field.zero] * self.rows for _ in range(n)]
        for k, i in enumerate(chosen):
            for r in range(n):
                out[r][i] = block.data[r][k]
        return Matrix(self.field, out, n, self.rows)

    def kernel_basis(self) -> list[tuple]:
        """Basis of the right null space; length equals cols - rank."""
        F = self.field
        rows = self._mutable()
        pivots = echelon(F, rows)[0]
        n = self.cols
        pivot_set = set(pivots)
        basis = []
        for free in range(n):
            if free in pivot_set:
                continue
            vec = [F.zero] * n
            vec[free] = F.one
            for rr, pc in enumerate(pivots):
                vec[pc] = F.neg(rows[rr][free])
            basis.append(tuple(vec))
        return basis


def echelon(field: Field, rows: list) -> tuple[list[int], object]:
    """Gauss-Jordan elimination of a list of equal-length mutable rows, in
    place, to reduced row-echelon form: the first ``len(pivots)`` rows are
    the normalised basis of the row space and the rest are zero.

    The pivot of each column is its first non-zero entry at or below the
    current row.  Returns the pivot columns and the determinant factor
    (product of the pivots times the sign of the row swaps), which is the
    determinant of a square input of full rank.
    """
    zero, one, axpy = field.zero, field.one, field.axpy
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    factor = one
    r = 0
    for c in range(n):
        if r == m:
            break
        for pivot in range(r, m):
            if rows[pivot][c] != zero:
                break
        else:
            continue
        prow = rows[pivot]
        if pivot != r:
            rows[pivot] = rows[r]
            factor = field.neg(factor)
        lead = prow[c]
        if lead != one:
            factor = field.mul(factor, lead)
            prow = field.scale_row(field.inv(lead), prow)
        rows[r] = prow
        tail = prow[c:]  # the pivot row is zero before its pivot
        for i, irow in enumerate(rows):
            v = irow[c]
            if v != zero and i != r:
                irow[c:] = axpy(field.neg(v), tail, irow[c:])
        pivots.append(c)
        r += 1
    return pivots, factor


def random_matrix(field: Field, rows: int, cols: int, rng) -> Matrix:
    return Matrix(field, [field.random_row(rng, cols) for _ in range(rows)], rows, cols)


def random_invertible(field: Field, n: int, rng) -> Matrix:
    """The first of the n x n matrices drawn as by :func:`random_matrix`
    that has rank n; its rank is read from an elimination of a copy."""
    starts = range(0, n * n, n)
    for _ in range(999):
        entries = field.random_row(rng, n * n)
        if len(echelon(field, [entries[i:i + n] for i in starts])[0]) == n:
            return Matrix(field, [entries[i:i + n] for i in starts], n, n)
    raise RankDeficient("failed to sample an invertible matrix")
