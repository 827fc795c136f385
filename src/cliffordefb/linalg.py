"""Exact linear algebra over Q and Q(i), with sparse elimination.

Entries are whatever the scalar field provides (Fraction or QI); everything
here only needs +, -, *, / and zero tests, all exact.  ``Matrix`` is a dense
row-major container; its eliminations (rref, rank, kernel, inverse) run on
sparse rows ``{col: nonzero}`` through ``rref_rows`` and ``kernel_rows``,
which callers holding sparse data use directly.  The reduced row echelon
form is unique, so the returned bases are canonical and tests can compare
them by equality.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError


class Matrix:
    """Immutable-by-convention row-major exact matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise DimensionError("ragged rows in matrix literal")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @staticmethod
    def identity(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int, zero=Fraction(0)) -> Matrix:
        return Matrix([[zero] * ncols for _ in range(nrows)])

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                self.rows[i][j] == other.rows[i][j]
                for i in range(self.nrows)
                for j in range(self.ncols)
            )
        )

    def __repr__(self):
        return f"Matrix({self.rows!r})"

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionError(
                    f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other.rows)) if other.rows else []
            return Matrix(
                [[_dot(row, col) for col in cols] for row in self.rows]
            )
        return Matrix([[a * other for a in r] for r in self.rows])

    def __rmul__(self, other):
        return Matrix([[other * a for a in r] for r in self.rows])

    def scale(self, c) -> Matrix:
        return Matrix([[a * c for a in r] for r in self.rows])

    def transpose(self) -> Matrix:
        return Matrix([list(col) for col in zip(*self.rows)]) if self.rows else Matrix([])

    def apply(self, vec):
        """Matrix-vector product on a plain list."""
        if len(vec) != self.ncols:
            raise DimensionError("vector length does not match column count")
        return [_dot(row, vec) for row in self.rows]

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionError("trace of non-square matrix")
        total = self.rows[0][0] * 0 if self.rows else Fraction(0)
        for i in range(self.nrows):
            total = total + self.rows[i][i]
        return total

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def _check_same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionError("matrix shape mismatch")

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple[Matrix, list[int]]:
        """Reduced row echelon form (same shape, zero rows last) and its
        pivot columns."""
        reduced, pivots = rref_rows(self._sparse_rows())
        zero = self._zero()
        rows = [_densify(row, self.ncols, zero) for row in reduced]
        rows.extend([zero] * self.ncols for _ in range(self.nrows - len(rows)))
        return Matrix(rows), pivots

    def rank(self) -> int:
        return len(rref_rows(self._sparse_rows())[1])

    def kernel_basis(self) -> list[list]:
        """Canonical basis of the right kernel, one vector per free column.

        Vector for free column f has a 1 at coordinate f and the negated
        reduced-echelon entries at the pivot coordinates, so bases compare
        by plain equality.
        """
        zero = self._zero()
        return [
            _densify(vec, self.ncols, zero)
            for vec in kernel_rows(self._sparse_rows(), self.ncols, zero + 1)
        ]

    def _zero(self):
        return _zero_like(self.rows[0][0]) if self.rows and self.rows[0] else Fraction(0)

    def _sparse_rows(self) -> list[dict]:
        return [{c: a for c, a in enumerate(row) if a} for row in self.rows]

    def det(self):
        """Exact determinant by rational Gaussian elimination."""
        if self.nrows != self.ncols:
            raise DimensionError("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        rows = [list(r) for r in self.rows]
        result = _zero_like(rows[0][0]) + 1
        for c in range(n):
            pivot_row = None
            for r in range(c, n):
                if rows[r][c]:
                    pivot_row = r
                    break
            if pivot_row is None:
                return result * 0
            if pivot_row != c:
                rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
                result = -result
            pivot = rows[c][c]
            result = result * pivot
            for r in range(c + 1, n):
                if rows[r][c]:
                    factor = rows[r][c] / pivot
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
        return result

    def inverse(self) -> Matrix:
        if self.nrows != self.ncols:
            raise DimensionError("inverse of non-square matrix")
        n = self.nrows
        zero_el = self._zero()
        one_el = zero_el + 1
        aug = Matrix(
            [
                list(self.rows[i]) + [one_el if i == j else zero_el for j in range(n)]
                for i in range(n)
            ]
        )
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise DimensionError("matrix is singular")
        return Matrix([red.rows[i][n:] for i in range(n)])


def _dot(row, col):
    total = None
    for a, b in zip(row, col):
        term = a * b
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


def _zero_like(x):
    return x * 0


def _densify(row: dict, ncols: int, zero) -> list:
    out = [zero] * ncols
    for c, a in row.items():
        out[c] = a
    return out


def _subtract(row: dict, factor, pivot_row: dict):
    """row -= factor * pivot_row in place, dropping entries that cancel."""
    for c, a in pivot_row.items():
        val = row.get(c)
        val = -factor * a if val is None else val - factor * a
        if val:
            row[c] = val
        else:
            del row[c]


def rref_rows(rows) -> tuple[list[dict], list[int]]:
    """Gauss-Jordan elimination on sparse rows ``{col: nonzero}``.

    Each incoming row is reduced against the pivot rows found so far, takes
    its first nonzero column as a new pivot, is scaled to a leading 1 and
    cleared from the earlier pivot rows, so the pivot rows stay fully
    reduced.  Returns the nonzero rows of the (unique) reduced row echelon
    form of the row space, ordered by pivot, and their pivot columns.  The
    input rows are not modified.
    """
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        for pc in [c for c in row if c in pivot_rows]:
            _subtract(row, row[pc], pivot_rows[pc])
        if not row:
            continue
        pc = min(row)
        inv = row[pc]
        if inv != 1:
            row = {c: a / inv for c, a in row.items()}
        for other in pivot_rows.values():
            if pc in other:
                _subtract(other, other[pc], row)
        pivot_rows[pc] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[pc] for pc in pivots], pivots


def kernel_rows(rows, ncols: int, one) -> list[dict]:
    """Canonical right-kernel basis of sparse rows, as sparse vectors.

    The vector for free column f is 1 at f and minus the reduced-echelon
    entries of column f at the pivot coordinates; vectors come in order of
    their free column.
    """
    reduced, pivots = rref_rows(rows)
    free: dict[int, dict] = {f: {f: one} for f in range(ncols)}
    for pc in pivots:
        del free[pc]
    for row, pc in zip(reduced, pivots):
        for c, a in row.items():
            if c != pc:
                free[c][pc] = -a
    return list(free.values())


def stack_rows(matrices: list[Matrix]) -> Matrix:
    """Vertical concatenation."""
    width = matrices[0].ncols
    rows = []
    for mat in matrices:
        if mat.ncols != width:
            raise DimensionError("column count mismatch in stack")
        rows.extend(mat.rows)
    return Matrix(rows)
