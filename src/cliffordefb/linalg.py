"""Exact linear algebra over Q and Q(i), in two layers.

Numerator rows.  The eliminations run on sparse rows ``{col: nonzero}`` of
numerators (ints, or ``GaussInt`` over Q(i)), taken as they come, since
scaling a row does not change what it spans: callers that store numerators,
as vectors and spinors do, pass them without a round trip through
fractions.  ``rref_numerators`` returns the integer pivot rows over their
leads, each lead a positive int, and ``kernel_numerators`` the integer
kernel vectors over positive denominators; ``rank_rows`` counts the pivots.
The reduced row echelon form is unique, so the bases are canonical and
tests can compare them by equality.

Elimination is fraction-free: each row is made a primitive integer row
(Gaussian integers over Q(i)), combined as p*row - f*pivot and divided by
its content, and only the emitted rows are divided by their pivots.

A tall system (many rows, few columns, such as the annihilator's 2^m rows
over 2m columns) has its kernel kept instead of its pivots: ``tall_kernel``
starts from the unit vectors and cuts them down row by row, so a row that
the kernel found so far already meets with dot zero costs a few dot
products and no elimination.  Its basis is not canonical; echelonizing it
with ``rref_numerators`` gives the canonical form.

The dense adapter.  ``Matrix`` is a row-major container of field values
(Fraction or QI) with no arithmetic of its own: its eliminations (rref,
rank, kernel, inverse) scale each row to integers over its common
denominator, run on the numerator rows and divide the results out.
``Matrix.det`` runs Bareiss's fraction-free elimination on the same
integer-scaled rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import DimensionError
from .scalars import QI, GaussInt, from_integer, to_integers


class Matrix:
    """Immutable-by-convention row-major exact matrix of field values."""

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

    def rref(self) -> tuple[Matrix, list[int]]:
        """Reduced row echelon form (same shape, zero rows last) and its
        pivot columns."""
        echelon = rref_numerators(self._sparse_rows())
        zero = self._zero()
        rows = [_densify(row, lead, self.ncols, zero) for row, lead in echelon]
        rows.extend([zero] * self.ncols for _ in range(self.nrows - len(rows)))
        return Matrix(rows), [min(row) for row, _lead in echelon]

    def rank(self) -> int:
        return rank_rows(self._sparse_rows())

    def kernel_basis(self) -> list[list]:
        """Canonical basis of the right kernel, one vector per free column.

        Vector for free column f has a 1 at coordinate f and the negated
        reduced-echelon entries at the pivot coordinates, so bases compare
        by plain equality.
        """
        zero = self._zero()
        unit = GaussInt(1, 0) if isinstance(zero, QI) else 1
        return [
            _densify(vec, den, self.ncols, zero)
            for vec, den in kernel_numerators(self._sparse_rows(), self.ncols, unit)
        ]

    def _zero(self):
        return self.rows[0][0] * 0 if self.rows and self.rows[0] else Fraction(0)

    def _integer_rows(self) -> list[tuple[list, int]]:
        """Each row as (numerators, the row's common denominator): Gaussian
        integers throughout if any entry is a QI."""
        gaussian = any(isinstance(a, QI) for row in self.rows for a in row)
        return [to_integers(row, gaussian) for row in self.rows]

    def _sparse_rows(self) -> list[dict]:
        """The nonzero numerators of each integer-scaled row, by column."""
        return [{c: x for c, x in enumerate(nums) if x} for nums, _den in self._integer_rows()]

    def det(self):
        """Exact determinant by Bareiss elimination on integer-scaled rows."""
        if self.nrows != self.ncols:
            raise DimensionError("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        rows = []
        den = 1
        for nums, row_den in self._integer_rows():
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


def _densify(row: dict, den: int, ncols: int, zero) -> list:
    """The dense row of field values row / den."""
    out = [zero] * ncols
    for c, a in row.items():
        out[c] = from_integer(a, den)
    return out


def _content(values, gaussian: bool) -> int:
    if gaussian:
        return gcd(*[x for a in values for x in (a.re, a.im)])
    return gcd(*values)


def _subtract_multiple(row: dict, p, f, other: dict, gaussian: bool):
    """row := p*row - f*other in place, dropping entries that cancel, then
    divided by its content."""
    if p != 1:
        for c in row:
            row[c] *= p
    for c, a in other.items():
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

    Rows hold numerators (int, or ``GaussInt`` over Q(i)).  Each incoming
    row is copied and divided by its content, reduced against the pivot
    rows found so far, takes its first nonzero column as a new pivot and is
    cleared from the earlier pivot rows, so the pivot rows stay fully
    reduced.  Returns the integer pivot rows keyed by pivot column.  Each is
    a nonzero multiple of the matching reduced-echelon row, and its entries
    vanish and appear in the same order as under rational elimination, so a
    row and any nonzero multiple of it give the same results.  Each pivot
    row is made to lead with a positive int (a positive real over Q(i)) when
    it is created, and stays so: a row is only ever scaled by the positive
    leads of the others and divided by its positive content.
    """
    rows = [row for row in rows if row]
    gaussian = GaussInt in set(map(type, chain.from_iterable(map(dict.values, rows))))
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        _divide_content(row, gaussian)
        for pc in [c for c in row if c in pivot_rows]:
            pivot = pivot_rows[pc]
            _subtract_multiple(row, _real(pivot[pc]), row[pc], pivot, gaussian)
        if not row:
            continue
        pc = min(row)
        lead = row[pc]
        if gaussian and lead.im:
            # a real pivot keeps p*row - f*pivot from piling up Gaussian
            # factors that an integer content cannot remove; the lead becomes
            # |lead|^2 over the content, which is positive
            conj = GaussInt(lead.re, -lead.im)
            for c in row:
                row[c] *= conj
            _divide_content(row, gaussian)
        elif _real(lead) < 0:
            for c in row:
                row[c] = -row[c]
        lead = _real(row[pc])
        for other in pivot_rows.values():
            if pc in other:
                _subtract_multiple(other, lead, other[pc], row, gaussian)
        pivot_rows[pc] = row
    return pivot_rows


def _real(lead) -> int:
    """A pivot row's leading entry, real over Q(i) too, as an int."""
    return lead.re if isinstance(lead, GaussInt) else lead


def rref_numerators(rows) -> list[tuple[dict, int]]:
    """The reduced row echelon form of sparse numerator rows ``{col:
    nonzero}`` as (integer pivot row, lead) pairs, ordered by pivot: row /
    lead is the reduced-echelon row and lead > 0 its pivot entry, an int
    (real over Q(i) too).  The input rows are not modified."""
    pivot_rows = _eliminate(rows)
    return [(pivot_rows[pc], _real(pivot_rows[pc][pc])) for pc in sorted(pivot_rows)]


def rank_rows(rows) -> int:
    """Rank of sparse rows ``{col: nonzero}``: the number of integer pivot
    rows, with nothing divided out or emitted."""
    return len(_eliminate(rows))


def kernel_numerators(rows, ncols: int, one) -> list[tuple[dict, int]]:
    """Canonical right-kernel basis of sparse numerator rows, as (integer
    vector, den) pairs: vector / den is the basis vector, den > 0 the least
    common multiple of the leads of the pivot rows it reads.

    The vector for free column f is 1 at f and minus the reduced-echelon
    entries of column f at the pivot coordinates; vectors come in order of
    their free column, f first and then the pivot coordinates in order.
    ``one`` is the numerator unit (1, or ``GaussInt(1, 0)`` over Q(i)).  For
    systems with many more rows than columns, ``tall_kernel`` does less
    work.
    """
    pivot_rows = _eliminate(rows)
    columns: dict[int, list] = {f: [] for f in range(ncols) if f not in pivot_rows}
    leads = {}
    for pc in sorted(pivot_rows):
        row = pivot_rows[pc]
        leads[pc] = _real(row[pc])
        for c, a in row.items():
            if c != pc:
                columns[c].append((pc, a))
    basis = []
    for f, entries in columns.items():
        den = lcm(*[leads[pc] for pc, _a in entries])
        vec = {f: one * den}
        for pc, a in entries:
            vec[pc] = -a * (den // leads[pc])
        basis.append((vec, den))
    return basis


def tall_kernel(rows, ncols: int, one) -> list[dict]:
    """A right-kernel basis of a tall system of numerator rows, as sparse
    primitive integer vectors: for many rows and few columns.

    Rows are sparse ``{col: nonzero}`` maps of ints, or ``GaussInt`` over
    Q(i), with ``one`` the unit of the same kind.  The basis starts as the
    ncols unit vectors, the kernel of no rows, and each row in turn cuts it
    down: if the row has a nonzero dot d_p with some basis vector, the first
    such vector v_p is dropped and every other vector v with a nonzero dot
    d_v becomes d_p*v - d_v*v_p, divided by its content.  A row that meets
    every vector with dot zero is skipped, and the pass stops once the basis
    is empty.  The basis is not canonical; ``rref_numerators`` on it gives
    the reduced echelon form of the kernel, which ``kernel_numerators``
    would span.  A wide system (2^m columns) has a basis too large to update
    row by row; ``kernel_numerators`` serves it.
    """
    gaussian = isinstance(one, GaussInt)
    basis = [{c: one} for c in range(ncols)]
    for row in rows:
        dots = []
        for vec in basis:
            dot = 0
            for c, a in row.items():
                x = vec.get(c)
                if x is not None:
                    dot = dot + a * x
            dots.append(dot)
        p = next((i for i, dot in enumerate(dots) if dot), None)
        if p is None:
            continue
        pivot, d_p = basis.pop(p), dots.pop(p)
        for vec, dot in zip(basis, dots):
            if dot:
                _subtract_multiple(vec, d_p, dot, pivot, gaussian)
        if not basis:
            break
    return basis
