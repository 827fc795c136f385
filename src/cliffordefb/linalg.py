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
the kernel found so far already meets with dot zero costs no elimination,
and once such rows come, one dot product with the kernel packed into one
int per column.  Its basis is not canonical; echelonizing it with
``rref_numerators`` gives the canonical form.

Packing is Kronecker substitution (``pack``): the vectors v_0 .. v_(k-1)
become the one vector sum_j v_j 2^(w j), and a linear form takes it to
sum_j d_j 2^(w j) for its values d_j on the v_j.  That is zero exactly when
every d_j is, as long as |d_j| < 2^w (each part over Q(i)): at the lowest
j with d_j != 0 the sum is d_j 2^(w j) modulo 2^(w (j + 1)), which is not
zero.  ``slot_width`` gives a w for sums of t products of parts below 2^a
and 2^b: bits(t) + a + b + 2 bits, one more over Q(i), since t 2^(a + b) <
2^(w - 2) and a Q(i) part has twice the terms.

The dense adapter.  ``Matrix`` is a row-major container of field values
(Fraction or QI, over Q(i) when any entry is a QI, so its zeros and results
are QI throughout) with no arithmetic of its own: its eliminations (rref,
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
        gaussian, sparse = self._sparse_rows()
        echelon = rref_numerators(sparse)
        zero = _zero(gaussian)
        rows = [_densify(row, lead, self.ncols, zero) for row, lead in echelon]
        rows.extend([zero] * self.ncols for _ in range(self.nrows - len(rows)))
        return Matrix(rows), [min(row) for row, _lead in echelon]

    def rank(self) -> int:
        return rank_rows(self._sparse_rows()[1])

    def kernel_basis(self) -> list[list]:
        """Canonical basis of the right kernel, one vector per free column.

        Vector for free column f has a 1 at coordinate f and the negated
        reduced-echelon entries at the pivot coordinates, so bases compare
        by plain equality.
        """
        gaussian, sparse = self._sparse_rows()
        zero = _zero(gaussian)
        return [
            _densify(vec, den, self.ncols, zero)
            for vec, den in kernel_numerators(sparse, self.ncols, GaussInt(1, 0) if gaussian else 1)
        ]

    def _integer_rows(self) -> tuple[bool, list[tuple[list, int]]]:
        """Whether the matrix is over Q(i), from a scan of every entry (any
        QI makes it so), and each row as (numerators, the row's common
        denominator): Gaussian integers throughout over Q(i)."""
        gaussian = any(isinstance(a, QI) for row in self.rows for a in row)
        return gaussian, [to_integers(row, gaussian) for row in self.rows]

    def _sparse_rows(self) -> tuple[bool, list[dict]]:
        """``_integer_rows`` with the nonzero numerators of each row by
        column."""
        gaussian, rows = self._integer_rows()
        return gaussian, [{c: x for c, x in enumerate(nums) if x} for nums, _den in rows]

    def det(self):
        """Exact determinant by Bareiss elimination on integer-scaled rows."""
        if self.nrows != self.ncols:
            raise DimensionError("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        rows = []
        den = 1
        for nums, row_den in self._integer_rows()[1]:
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
        # the identity's entries are rational: an entry of A that is a QI
        # puts [A | I] over Q(i) (``_integer_rows``)
        one, zero = Fraction(1), Fraction(0)
        aug = Matrix(
            [list(self.rows[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
        )
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            raise DimensionError("matrix is singular")
        return Matrix([red.rows[i][n:] for i in range(n)])


def _zero(gaussian: bool):
    """The field's zero: QI() over Q(i), else Fraction(0)."""
    return QI() if gaussian else Fraction(0)


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


def part_bits(values, gaussian: bool) -> int:
    """The bit length of the largest part of any numerator: an int's
    magnitude, and over Q(i) the magnitudes of a ``GaussInt``'s re and im
    (plain ints among them count as real)."""
    if gaussian:
        # |re| | |im| has the bit length of the larger part
        values = [abs(a.re) | abs(a.im) if type(a) is GaussInt else a for a in values]
    return max(map(abs, values), default=0).bit_length()


def slot_width(terms: int, x_bits: int, y_bits: int, gaussian: bool) -> int:
    """The slot width, in bits, for packing (``pack``) when every value read
    from a slot is a sum of at most ``terms`` products x*y whose parts are
    below 2^x_bits and 2^y_bits in magnitude (the bound in the module
    docstring)."""
    return terms.bit_length() + x_bits + y_bits + 2 + gaussian


def pack(vectors, width: int) -> dict:
    """Kronecker substitution: sparse numerator vectors v_0, v_1, ... as
    one map ``{c: sum_j v_j[c] * 2^(width * j)}``, an int (a ``GaussInt``
    over Q(i)) per coordinate.  A linear form is zero on every v_j exactly
    when it is zero on the packed vector, while its values stay within the
    slots (module docstring)."""
    packed: dict[int, object] = {}
    for j, vec in enumerate(vectors):
        shift = width * j
        for c, x in vec.items():
            x = GaussInt(x.re << shift, x.im << shift) if type(x) is GaussInt else x << shift
            prev = packed.get(c)
            packed[c] = x if prev is None else prev + x
    return packed


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

    Most rows of a tall system meet the basis with dot zero, so their test
    is packed: after such a row, if the basis has two vectors or more and
    more rows remain than there are columns, the basis is packed column by
    column (``pack``), and a row is skipped when its one dot with the
    packed basis is zero.  Each dot is a sum of at most ncols products of a
    row entry and a basis entry, so the slot width (``slot_width``) bounds
    the entries of the basis and of every row left, which are scanned when
    the basis is first packed.  A row with a nonzero packed dot drops the
    packing and updates the basis as above.
    """
    gaussian = isinstance(one, GaussInt)
    rows = list(rows)
    basis = [{c: one} for c in range(ncols)]
    packed = row_bits = None
    for i, row in enumerate(rows, 1):
        if packed is not None:
            dot = 0
            for c, a in row.items():
                x = packed.get(c)
                if x is not None:
                    dot = dot + a * x
            if not dot:
                continue
            packed = None
        dots = []
        for vec in basis:
            dot = 0
            for c, a in row.items():
                x = vec.get(c)
                if x is not None:
                    dot = dot + a * x
            dots.append(dot)
        for p, dot in enumerate(dots):
            if dot:
                break
        else:
            if len(basis) > 1 and len(rows) - i > ncols:
                if row_bits is None:
                    # the rows left at any later packing are among these
                    row_bits = part_bits(chain.from_iterable(map(dict.values, rows[i:])), gaussian)
                vec_bits = part_bits(chain.from_iterable(map(dict.values, basis)), gaussian)
                packed = pack(basis, slot_width(ncols, row_bits, vec_bits, gaussian))
            continue
        pivot, d_p = basis.pop(p), dots.pop(p)
        for vec, dot in zip(basis, dots):
            if dot:
                _subtract_multiple(vec, d_p, dot, pivot, gaussian)
        if not basis:
            break
    return basis
