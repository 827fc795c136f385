"""Rational references for the integer-scaled exact kernels.

Elimination, the Fock action, frame validation and the determinant run on
integer numerators over a common denominator and divide only when they emit
a result.  The references below are the Fraction / QI computations they
replaced; the emitted rows and maps must be equal to theirs, dict key order
included, and the tampered inputs must still raise.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffordefb import Algebra, Spinor
from cliffordefb.errors import InternalCheckError, NotTotallyNullError
from cliffordefb.linalg import Matrix, kernel_rows, rref_rows
from cliffordefb.sampling import rand_frame, rand_nonzero_spinor, rand_tnp
from cliffordefb.scalars import QI, from_integer, random_scalar, to_integers
from cliffordefb import spinors
from cliffordefb.spinors import (
    annihilated_subspace,
    apply_vector_chain,
    annihilator,
    fock_flips,
    generic_spinor_sample,
    vector_act,
)
from cliffordefb.vectors import WittFrame, WittVector, anticommutator_form


# -- the rational references ------------------------------------------------------


def ref_subtract(row, factor, pivot_row):
    for c, a in pivot_row.items():
        val = row.get(c)
        val = -factor * a if val is None else val - factor * a
        if val:
            row[c] = val
        else:
            del row[c]


def ref_rref_rows(rows):
    """Gauss-Jordan on sparse rows with a leading 1 per pivot row."""
    pivot_rows = {}
    for row in rows:
        row = dict(row)
        for pc in [c for c in row if c in pivot_rows]:
            ref_subtract(row, row[pc], pivot_rows[pc])
        if not row:
            continue
        pc = min(row)
        inv = row[pc]
        if inv != 1:
            row = {c: a / inv for c, a in row.items()}
        for other in pivot_rows.values():
            if pc in other:
                ref_subtract(other, other[pc], row)
        pivot_rows[pc] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[pc] for pc in pivots], pivots


def ref_kernel_rows(rows, ncols, one):
    reduced, pivots = ref_rref_rows(rows)
    free = {f: {f: one} for f in range(ncols)}
    for pc in pivots:
        del free[pc]
    for row, pc in zip(reduced, pivots):
        for c, a in row.items():
            if c != pc:
                free[c][pc] = -a
    return list(free.values())


def ref_act_sparse(v, items):
    coeffs = v.coords()
    flips = fock_flips(v.algebra.m)
    acc = {}
    for am, c in items:
        if not c:
            continue
        for j, key, negative in flips[am]:
            coeff = coeffs[j]
            if not coeff:
                continue
            val = -coeff * c if negative else coeff * c
            prev = acc.get(key)
            val = val if prev is None else prev + val
            if val:
                acc[key] = val
            elif prev is not None:
                del acc[key]
    return acc


def ref_validate(frame):
    qs, ps = frame.q_vecs, frame.p_vecs
    k = len(qs)
    one = frame.algebra.one_scalar
    for i in range(k):
        for j in range(k):
            if anticommutator_form(qs[i], qs[j]):
                raise NotTotallyNullError(f"{{u_{i}, u_{j}}} != 0")
            if anticommutator_form(ps[i], ps[j]):
                raise NotTotallyNullError(f"{{w_{i}, w_{j}}} != 0")
            want = one if i == j else frame.algebra.zero_scalar
            if anticommutator_form(qs[i], ps[j]) != want:
                raise NotTotallyNullError(f"{{u_{i}, w_{j}}} != delta")


def ref_det(mat):
    n = mat.nrows
    if n == 0:
        return Fraction(1)
    rows = [list(r) for r in mat.rows]
    result = rows[0][0] * 0 + 1
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if rows[r][c]), None)
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


def ref_annihilator(omega):
    """M(omega) by the rational kernel, echelonized by the rational rref."""
    algebra = omega.algebra
    m = algebra.m
    rows = {}
    for am, c in omega.xi.items():
        for j, target, negative in fock_flips(m)[am]:
            rows.setdefault(target, {})[j] = -c if negative else c
    zero = algebra.zero_scalar
    kernel = ref_kernel_rows(rows.values(), 2 * m, algebra.one_scalar)
    coords = [[vec.get(j, zero) for j in range(2 * m)] for vec in kernel]
    reduced, _ = ref_rref_rows({c: a for c, a in enumerate(row) if a} for row in coords)
    return [tuple(row.get(j, zero) for j in range(2 * m)) for row in reduced]


def ref_subspace_rows(tnp):
    """S_(v1..vk) as the rational joint kernel, in canonical echelon rows."""
    algebra = tnp.algebra
    n = 1 << algebra.m
    system = []
    for v in tnp:
        rows = {}
        for am in range(n):
            for j, target, negative in fock_flips(algebra.m)[am]:
                coeff = v.coords()[j]
                if coeff:
                    rows.setdefault(target, {})[am] = -coeff if negative else coeff
        system.extend(rows.values())
    kernel = ref_kernel_rows(system, n, algebra.one_scalar)
    return ref_rref_rows(kernel)[0]


def ordered(rows):
    """Rows as (key, value, value type) lists: equality checks order and type."""
    return [[(c, a, type(a)) for c, a in row.items()] for row in rows]


# -- elimination ------------------------------------------------------------------


def _scalar(rng, field, height):
    return random_scalar(rng, field, nonzero=True, height=height)


def _row(rng, field, ncols, density, height):
    cols = [c for c in range(ncols) if rng.random() < density]
    rng.shuffle(cols)  # key order is part of what must be reproduced
    return {c: _scalar(rng, field, height) for c in cols}


def seeded_systems(field):
    """Empty, zero, wide, tall, dependent and large-height sparse systems."""
    rng = random.Random(6 if field == "Q" else 7)
    one = QI(1) if field == "Qi" else Fraction(1)
    yield "empty", [], 3
    yield "zero rows", [{}, {}], 4
    row = _row(rng, field, 5, 0.8, 9)
    yield "cancelling", [row, {c: -a for c, a in row.items()}, {}], 5
    yield "wide", [_row(rng, field, 40, 0.5, 20) for _ in range(3)], 40
    yield "tall", [_row(rng, field, 4, 0.7, 20) for _ in range(30)], 4
    base = [_row(rng, field, 9, 0.6, 12) for _ in range(4)]
    combos = []
    for _ in range(5):
        acc = {}
        for b in base:
            f = _scalar(rng, field, 5)
            for c, a in b.items():
                val = acc.get(c, 0 * one) + f * a
                if val:
                    acc[c] = val
                else:
                    acc.pop(c, None)
        combos.append(acc)
    yield "dependent", base + combos, 9
    yield "large height", [_row(rng, field, 7, 0.7, 10**30) for _ in range(7)], 7
    yield "identity", [{c: one} for c in range(6)], 6


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_seeded_elimination_matches_rational_reference(field):
    one = QI(1) if field == "Qi" else Fraction(1)
    for name, rows, ncols in seeded_systems(field):
        copies = [dict(r) for r in rows]
        reduced, pivots = rref_rows(rows)
        ref_reduced, ref_pivots = ref_rref_rows(rows)
        assert pivots == ref_pivots, name
        assert ordered(reduced) == ordered(ref_reduced), name
        assert ordered(kernel_rows(rows, ncols, one)) == ordered(
            ref_kernel_rows(rows, ncols, one)
        ), name
        assert rows == copies and ordered(rows) == ordered(copies), name


_height = st.sampled_from([3, 50, 10**12])


@st.composite
def _systems(draw):
    field = draw(st.sampled_from(["Q", "Qi"]))
    height = draw(_height)
    num = st.integers(-height, height)
    den = st.integers(1, height)
    rational = st.builds(Fraction, num, den)
    scalar = st.builds(QI, rational, rational) if field == "Qi" else rational
    nonzero = scalar.filter(bool)
    ncols = draw(st.integers(1, 9))
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=ncols), max_size=8)
    )
    if rows and draw(st.booleans()):  # a dependent row
        f = draw(nonzero)
        rows.append({c: f * a for c, a in rows[0].items()})
    one = QI(1) if field == "Qi" else Fraction(1)
    return rows, ncols, one


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_systems())
def test_elimination_matches_rational_reference(case):
    rows, ncols, one = case
    reduced, pivots = rref_rows(rows)
    ref_reduced, ref_pivots = ref_rref_rows(rows)
    assert pivots == ref_pivots
    assert ordered(reduced) == ordered(ref_reduced)
    assert ordered(kernel_rows(rows, ncols, one)) == ordered(ref_kernel_rows(rows, ncols, one))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_systems())
def test_det_matches_rational_reference(case):
    rows, ncols, _one = case
    zero = _one * 0
    n = min(len(rows), ncols)
    mat = Matrix([[row.get(c, zero) for c in range(n)] for row in rows[:n]])
    got = mat.det()
    want = ref_det(mat)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_seeded_det_matches_rational_reference(field):
    rng = random.Random(11)
    zero = QI() if field == "Qi" else Fraction(0)
    for n in range(1, 7):
        for height in (3, 10**20):
            mat = Matrix(
                [[random_scalar(rng, field, height=height) for _ in range(n)] for _ in range(n)]
            )
            assert mat.det() == ref_det(mat)
    singular = Matrix([[_scalar(rng, field, 5)] * 3 for _ in range(3)])
    assert singular.det() == ref_det(singular) == zero
    swapped = Matrix([[zero, _scalar(rng, field, 5)], [_scalar(rng, field, 5), zero]])
    assert swapped.det() == ref_det(swapped)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(["Q", "Qi"]), st.integers(0, 6), st.randoms(use_true_random=False))
def test_integer_scaling_round_trips(field, size, rnd):
    values = [random_scalar(rnd, field, height=rnd.choice([4, 10**15])) for _ in range(size)]
    nums, den = to_integers(values, field == "Qi")
    assert den >= 1
    assert [from_integer(num, den) for num in nums] == values


# -- the Fock action, the annihilator and the subspace ---------------------------


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_action_annihilator_and_subspace_match_rational_reference(m, field):
    rng = random.Random(100 * m + (field == "Qi"))
    algebra = Algebra(m, field)
    for k in range(1, m + 1):
        tnp = rand_tnp(algebra, rng, k)
        omega = generic_spinor_sample(tnp, rng, height=9)
        frame = rand_frame(algebra, rng)
        for v in list(tnp) + [frame.p_vecs[0]]:
            for items in (omega.xi.items(), enumerate(omega.coords())):
                items = list(items)
                got = vector_act(v, Spinor(algebra, dict(items))).xi
                assert ordered([got]) == ordered([ref_act_sparse(v, items)])
        chain = [frame.q_vecs[0], frame.p_vecs[-1], frame.p_vecs[0], frame.q_vecs[-1]]
        want = omega.xi
        for v in reversed(chain):
            want = ref_act_sparse(v, want.items())
        assert ordered([apply_vector_chain(chain, omega).xi]) == ordered([want])
        basis = annihilator(omega)
        assert [v.coords() for v in basis] == [list(row) for row in ref_annihilator(omega)]
        assert all(type(x) is type(algebra.zero_scalar) for v in basis for x in v.coords())
        if m <= 5 or k >= m - 1:
            space = annihilated_subspace(tnp, cross_check=m <= 4)
            assert ordered(space.rows) == ordered(ref_subspace_rows(tnp))
    omega = rand_nonzero_spinor(algebra, rng, height=9)
    assert [v.coords() for v in annihilator(omega)] == [
        list(row) for row in ref_annihilator(omega)
    ]


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_action_with_cancellations_matches_rational_reference(field):
    """Unit coefficients make sums cancel part-way, so a target is dropped
    and appended again; the emitted map keeps the reference's key order."""
    rng = random.Random(41)
    units = [QI(1), QI(-1), QI(0, 1)] if field == "Qi" else [Fraction(1), Fraction(-1)]
    reordered = 0
    for m in (2, 3):
        algebra = Algebra(m, field)
        for _ in range(150):
            coords = [rng.choice(units) for _ in range(2 * m)]
            v = WittVector(algebra, coords[:m], coords[m:])
            keys = list(range(1 << m))
            rng.shuffle(keys)
            items = [(a, rng.choice(units)) for a in keys]
            want = ref_act_sparse(v, items)
            got = vector_act(v, Spinor(algebra, dict(items))).xi
            assert ordered([got]) == ordered([want])
            touched = {}
            for a, _c in items:
                for j, key, _negative in fock_flips(m)[a]:
                    if coords[j]:
                        touched.setdefault(key)
            reordered += list(want) != [key for key in touched if key in want]
    assert reordered


def test_annihilator_rejects_a_vector_that_does_not_annihilate(monkeypatch):
    algebra = Algebra(3, "Qi")
    omega = Spinor.fock(algebra, 0b001, QI(2, -3))
    # coordinate 0 is p_1, which flips site 1 of Psi_001 instead of killing it
    monkeypatch.setattr(spinors, "kernel_rows", lambda rows, ncols, one: [{0: one}])
    with pytest.raises(InternalCheckError, match="does not annihilate"):
        annihilator(omega)


# -- frame validation ---------------------------------------------------------------


def _outcome(check, frame):
    try:
        check(frame)
    except NotTotallyNullError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_frame_validation_matches_rational_reference(field):
    rng = random.Random(31 if field == "Q" else 32)
    outcomes = set()
    for m in range(1, 6):
        algebra = Algebra(m, field)
        for _ in range(6):
            frame = rand_frame(algebra, rng)
            assert _outcome(WittFrame._validate, frame) is None
            assert _outcome(ref_validate, frame) is None
            for half in ("q_vecs", "p_vecs"):
                vecs = list(getattr(frame, half))
                i = rng.randrange(m)
                bump = random_scalar(rng, field, nonzero=True, height=7)
                j = rng.randrange(2 * m)
                coords = vecs[i].coords()
                coords[j] = coords[j] + bump
                vecs[i] = WittVector(algebra, coords[:m], coords[m:])
                tampered = WittFrame(algebra, frame.q_vecs, frame.p_vecs, check=False)
                setattr(tampered, half, tuple(vecs))
                got = _outcome(WittFrame._validate, tampered)
                assert got is not None
                assert got == _outcome(ref_validate, tampered)
                outcomes.add(got.split()[0][:3])
    assert {"{u_", "{w_"} <= outcomes
