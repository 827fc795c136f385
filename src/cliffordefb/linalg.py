"""Exact linear algebra over Q and Q(i), with sparse elimination.

Entries are whatever the scalar field provides (Fraction or QI).  ``Matrix``
is a dense row-major container; its eliminations (rref, rank, kernel,
inverse) run on sparse rows ``{col: nonzero}`` through ``rref_rows`` and
``kernel_rows``, which callers holding sparse data use directly.  The
reduced row echelon form is unique, so the returned bases are canonical and
tests can compare them by equality.

Elimination is fraction-free: each row is made a primitive integer row
(Gaussian integers over Q(i)), combined as p*row - f*pivot and divided by
its content, and only the emitted rows are divided by their pivots.  Rows
of field values are scaled to integers over their common denominators; a
system of numerators alone (ints, or ``GaussInt`` over Q(i)) is taken as it
comes, since scaling a row does not change what it spans, so callers that
already hold integer numerators pass them without a round trip through
fractions.  ``Matrix.det`` runs Bareiss's fraction-free elimination on
integer-scaled rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import DimensionError
from .scalars import QI, GaussInt, from_integer, to_integers


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
        return rank_rows(self._sparse_rows())

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
        """Exact determinant by Bareiss elimination on integer-scaled rows."""
        if self.nrows != self.ncols:
            raise DimensionError("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        gaussian = any(isinstance(a, QI) for row in self.rows for a in row)
        rows = []
        den = 1
        for row in self.rows:
            nums, row_den = to_integers(row, gaussian)
            rows.append(nums)
            den *= row_den
        sign = 1
        prev = 1
        for k in range(n):
            if not rows[k][k]:
                swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
                if swap is None:
                    return from_integer(rows[k][k], 1)
                rows[k], rows[swap] = rows[swap], rows[k]
                sign = -sign
            pivot = rows[k][k]
            top = rows[k]
            for i in range(k + 1, n):
                row = rows[i]
                f = row[k]
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - f * top[j]) // prev
            prev = pivot
        return from_integer(rows[n - 1][n - 1] * sign, den)

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


def _content(values, gaussian: bool) -> int:
    if gaussian:
        return gcd(*[x for a in values for x in (a.re, a.im)])
    return gcd(*values)


def _integer_row(row: dict, gaussian: bool) -> dict:
    """The row as a primitive integer row: same keys in the same order."""
    nums, _den = to_integers(row.values(), gaussian)
    row = dict(zip(row, nums))
    _divide_content(row, gaussian)
    return row


def _combine(row: dict, pivot_row: dict, pc: int, gaussian: bool):
    """row := p*row - f*pivot_row in place (p = pivot_row[pc], f = row[pc]),
    dropping entries that cancel, then divided by its content."""
    p = pivot_row[pc]
    f = row[pc]
    if p != 1:
        for c in row:
            row[c] *= p
    for c, a in pivot_row.items():
        val = row.get(c)
        val = -f * a if val is None else val - f * a
        if val:
            row[c] = val
        else:
            del row[c]
    if row:
        _divide_content(row, gaussian)


def _divide_content(row: dict, gaussian: bool):
    g = _content(row.values(), gaussian)
    if g != 1:
        for c in row:
            row[c] //= g


def _eliminate(rows) -> dict[int, dict]:
    """Fraction-free Gauss-Jordan on sparse rows ``{col: nonzero}``.

    Rows hold field values (Fraction or QI) or numerators (int, or
    ``GaussInt`` over Q(i)).  Each incoming row is made a primitive integer
    row, reduced against the pivot rows found so far, takes its first
    nonzero column as a new pivot and is cleared from the earlier pivot
    rows, so the pivot rows stay fully reduced.  A system of numerators
    alone is taken as it comes: each row is copied and divided by its
    content.  Any other system, one that mixes the two kinds included, has
    each row scaled to integers over its common denominator.  Returns the
    integer pivot rows keyed by pivot column.  Each is a nonzero multiple
    of the matching reduced-echelon row, and its entries vanish and appear
    in the same order as under rational elimination, so a row and any
    nonzero multiple of it give the same results.  Over Q(i) each pivot row
    is made real-led when it is created, and stays so.
    """
    rows = [row for row in rows if row]
    kinds = set(map(type, chain.from_iterable(map(dict.values, rows))))
    gaussian = QI in kinds or GaussInt in kinds
    numerators = kinds == {GaussInt if gaussian else int}
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        if numerators:
            row = dict(row)
            _divide_content(row, gaussian)
        else:
            row = _integer_row(row, gaussian)
        for pc in [c for c in row if c in pivot_rows]:
            _combine(row, pivot_rows[pc], pc, gaussian)
        if not row:
            continue
        pc = min(row)
        lead = row[pc]
        if gaussian and lead.im:
            # a real pivot keeps p*row - f*pivot from piling up Gaussian
            # factors that an integer content cannot remove
            conj = GaussInt(lead.re, -lead.im)
            for c in row:
                row[c] *= conj
            _divide_content(row, gaussian)
        for other in pivot_rows.values():
            if pc in other:
                _combine(other, row, pc, gaussian)
        pivot_rows[pc] = row
    return pivot_rows


def _real(lead) -> int:
    """A pivot row's leading entry, real over Q(i) too, as an int."""
    return lead.re if isinstance(lead, GaussInt) else lead


def rref_rows(rows) -> tuple[list[dict], list[int]]:
    """Gauss-Jordan elimination on sparse rows ``{col: nonzero}``.

    Returns the nonzero rows of the (unique) reduced row echelon form of the
    row space, ordered by pivot, and their pivot columns.  The input rows
    are not modified.
    """
    pivot_rows = _eliminate(rows)
    pivots = sorted(pivot_rows)
    reduced = []
    for pc in pivots:
        row = pivot_rows[pc]
        lead = _real(row[pc])
        reduced.append({c: from_integer(a, lead) for c, a in row.items()})
    return reduced, pivots


def rank_rows(rows) -> int:
    """Rank of sparse rows ``{col: nonzero}``: the number of integer pivot
    rows, with nothing divided out or emitted."""
    return len(_eliminate(rows))


def kernel_rows(rows, ncols: int, one) -> list[dict]:
    """Canonical right-kernel basis of sparse rows, as sparse vectors.

    The vector for free column f is 1 at f and minus the reduced-echelon
    entries of column f at the pivot coordinates; vectors come in order of
    their free column.
    """
    pivot_rows = _eliminate(rows)
    pivots = sorted(pivot_rows)
    free: dict[int, dict] = {f: {f: one} for f in range(ncols)}
    for pc in pivots:
        del free[pc]
    for pc in pivots:
        row = pivot_rows[pc]
        neg_lead = -_real(row[pc])
        for c, a in row.items():
            if c != pc:
                free[c][pc] = from_integer(a, neg_lead)
    return list(free.values())
