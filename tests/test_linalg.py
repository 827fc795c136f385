from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cliffordefb.errors import DimensionError
from cliffordefb.linalg import Matrix, kernel_numerators, rref_numerators
from cliffordefb.scalars import QI

from conftest import dense_product


def frac_matrix(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


def identity(n):
    return frac_matrix([[int(i == j) for j in range(n)] for i in range(n)])


def test_kernel_identity_empty():
    assert identity(2).kernel_basis() == []


def test_kernel_one_equation():
    assert frac_matrix([[1, 1]]).kernel_basis() == [[Fraction(-1), Fraction(1)]]


def test_kernel_vectors_annihilate_and_count(rng):
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = Matrix(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        kernel = mat.kernel_basis()
        assert len(kernel) + mat.rank() == cols
        for vec in kernel:
            assert not any(sum(a * x for a, x in zip(row, vec)) for row in mat.rows)


def test_kernel_basis_is_canonical():
    mat = frac_matrix([[1, 2, 3], [2, 4, 6]])
    assert mat.kernel_basis() == [
        [Fraction(-2), Fraction(1), Fraction(0)],
        [Fraction(-3), Fraction(0), Fraction(1)],
    ]


def test_a_matrix_with_any_qi_entry_is_over_qi_throughout():
    """The field comes from a scan of every entry, not from the first one:
    a real first entry does not make the zeros, units or results Fractions."""
    mixed = Matrix([[Fraction(1), QI(0, 1)], [Fraction(0), Fraction(0)]])
    assert mixed.kernel_basis() == [[QI(0, -1), QI(1)]]
    reduced, pivots = mixed.rref()
    assert pivots == [0]
    assert reduced.rows == [[QI(1), QI(0, 1)], [QI(0), QI(0)]]
    inverse = Matrix([[Fraction(2), QI(0, 1)], [Fraction(0), Fraction(1)]]).inverse()
    assert inverse.rows == [[QI(Fraction(1, 2)), QI(0, Fraction(-1, 2))], [QI(0), QI(1)]]
    for values in (mixed.kernel_basis(), reduced.rows, inverse.rows):
        assert all(type(x) is QI for row in values for x in row)


def test_det_examples():
    assert identity(3).det() == 1
    assert frac_matrix([[1, 2], [3, 4]]).det() == -2
    with pytest.raises(DimensionError):
        frac_matrix([[1, 2, 3], [4, 5, 6]]).det()


def _det_by_minors(mat: Matrix):
    n = mat.nrows
    if n == 1:
        return mat.rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not mat.rows[0][j]:
            continue
        minor = Matrix([row[:j] + row[j + 1 :] for row in mat.rows[1:]])
        term = mat.rows[0][j] * _det_by_minors(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def test_det_permutation_matrices_match_minors_oracle(rng):
    for perm in permutations(range(4)):
        mat = frac_matrix(
            [[1 if j == perm[i] else 0 for j in range(4)] for i in range(4)]
        )
        assert mat.det() == _det_by_minors(mat)
        assert mat.det() in (1, -1)


def test_det_random_vs_minors_oracle(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        mat = Matrix(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert mat.det() == _det_by_minors(mat)


def test_det_multiplicative(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        a = frac_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = frac_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert Matrix(dense_product(a.rows, b.rows)).det() == a.det() * b.det()


def test_rank_examples():
    assert frac_matrix([[0] * 4] * 3).rank() == 0
    assert identity(5).rank() == 5
    assert frac_matrix([[1, 2, 3]] * 4).rank() == 1


def test_inverse_round_trip(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        mat = frac_matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if not mat.det():
            continue
        assert dense_product(mat.rows, mat.inverse().rows) == identity(n).rows


# -- dense Gauss-Jordan reference ------------------------------------------------


def dense_rref(rows, ncols):
    """Textbook dense Gauss-Jordan: pivot on the first nonzero entry of each
    column, clear the column everywhere else.  Returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((r for r in range(pr, len(rows)) if rows[r][pc]), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = rows[pr][pc]
        rows[pr] = [a / inv for a in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc]:
                factor = rows[r][pc]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows, pivots


def dense_kernel(rows, ncols, zero, one):
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][f]
        basis.append(vec)
    return basis


_small = st.integers(-3, 3)
_rational = st.builds(Fraction, _small, st.integers(1, 3))
_gaussian = st.builds(QI, _rational, _rational)


@st.composite
def _matrices(draw):
    """Q or Q(i) matrices: empty, all-zero, wide, tall and sparse shapes."""
    field = draw(st.sampled_from(["Q", "Qi"]))
    zero = QI() if field == "Qi" else Fraction(0)
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 7)) if nrows else 0
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    scalars = _gaussian if field == "Qi" else _rational
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if kind == "zero" or (kind == "sparse" and draw(st.booleans())):
                row.append(zero)
            else:
                row.append(draw(scalars))
        rows.append(row)
    return Matrix(rows), zero


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_matrices())
def test_sparse_elimination_matches_dense_reference(case):
    mat, zero = case
    red, pivots = mat.rref()
    ref_rows, ref_pivots = dense_rref(mat.rows, mat.ncols)
    assert pivots == ref_pivots
    assert red == Matrix(ref_rows)
    assert red.nrows == mat.nrows
    assert all(not any(row) for row in red.rows[len(pivots):])
    assert mat.rank() == len(ref_pivots)
    assert mat.kernel_basis() == dense_kernel(mat.rows, mat.ncols, zero, zero + 1)


def test_sparse_rows_api():
    rows = [{0: 1, 2: 3}, {0: 2, 2: 6}, {1: 2}]
    echelon = rref_numerators(rows)
    assert [min(row) for row, _lead in echelon] == [0, 1]
    assert echelon == [({0: 1, 2: 3}, 1), ({1: 1}, 1)]
    assert all(type(a) is int for row, lead in echelon for a in [lead, *row.values()])
    assert rows[2] == {1: 2}  # inputs untouched
    assert kernel_numerators(rows, 4, 1) == [({2: 1, 0: -3}, 1), ({3: 1}, 1)]
    assert rref_numerators([]) == []
    assert kernel_numerators([], 2, 1) == [({0: 1}, 1), ({1: 1}, 1)]
    # a negative lead is negated with its row: the lead is positive
    assert rref_numerators([{1: -4, 3: 6}]) == [({1: 2, 3: -3}, 2)]
