"""Rational references for the integer-scaled exact kernels.

Elimination, the Fock action, frame validation and the determinant run on
integer numerators over a common denominator and divide only when they emit
a result.  The references below are the Fraction / QI computations they
replaced; the emitted rows and maps must be equal to theirs, dict key order
included, and the tampered inputs must still raise.  The kernel of a tall
numerator system is not canonical, so its span is compared with the
rational kernel's, both in reduced echelon form.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cliffordefb import Algebra, Spinor
from cliffordefb.errors import InternalCheckError, NotTotallyNullError
from cliffordefb import linalg
from cliffordefb.linalg import (
    Matrix,
    kernel_numerators,
    pack,
    rank_rows,
    rref_numerators,
    slot_width,
    tall_kernel,
)
from cliffordefb.sampling import rand_frame, rand_nonzero_spinor, rand_tnp
from cliffordefb.scalars import QI, GaussInt, from_integer, random_scalar, to_integers
from cliffordefb import spinors
from cliffordefb.spinors import (
    annihilated_subspace,
    apply_vector_chain,
    annihilator,
    generic_spinor_sample,
    vector_act,
)
from cliffordefb.vectors import WittFrame, WittVector, anticommutator_form

from conftest import ref_fock_flips


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
    flips = ref_fock_flips(v.algebra.m)
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
        for j, target, negative in ref_fock_flips(m)[am]:
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
            for j, target, negative in ref_fock_flips(algebra.m)[am]:
                coeff = v.coords()[j]
                if coeff:
                    rows.setdefault(target, {})[am] = -coeff if negative else coeff
        system.extend(rows.values())
    kernel = ref_kernel_rows(system, n, algebra.one_scalar)
    return ref_rref_rows(kernel)[0]


def ordered(rows):
    """Rows as (key, value, value type) lists: equality checks order and type."""
    return [[(c, a, type(a)) for c, a in row.items()] for row in rows]


def divided_rref(rows):
    """``rref_numerators`` divided out: the reduced rows as field values, in
    their key order, and their pivot columns."""
    echelon = rref_numerators(rows)
    reduced = [{c: from_integer(a, lead) for c, a in row.items()} for row, lead in echelon]
    return reduced, [min(row) for row, _lead in echelon]


def divided_kernel(rows, ncols, one):
    """``kernel_numerators`` divided out, in key order; ``one`` is the
    field's unit (Fraction or QI)."""
    unit = GaussInt(1, 0) if isinstance(one, QI) else 1
    return [
        {c: from_integer(x, den) for c, x in vec.items()}
        for vec, den in kernel_numerators(rows, ncols, unit)
    ]


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
        nums = [numerator_row(row, 1, field == "Qi") for row in rows]
        copies = [dict(r) for r in nums]
        reduced, pivots = divided_rref(nums)
        ref_reduced, ref_pivots = ref_rref_rows(rows)
        assert pivots == ref_pivots, name
        assert ordered(reduced) == ordered(ref_reduced), name
        assert ordered(divided_kernel(nums, ncols, one)) == ordered(
            ref_kernel_rows(rows, ncols, one)
        ), name
        assert nums == copies and ordered(nums) == ordered(copies), name
        # a Matrix scales its rows of field values to the same numerators
        dense = Matrix([[r.get(c, one * 0) for c in range(ncols)] for r in rows])
        assert dense._sparse_rows()[1] == nums, name


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
    nums = [numerator_row(row, 1, isinstance(one, QI)) for row in rows]
    reduced, pivots = divided_rref(nums)
    ref_reduced, ref_pivots = ref_rref_rows(rows)
    assert pivots == ref_pivots
    assert ordered(reduced) == ordered(ref_reduced)
    assert ordered(divided_kernel(nums, ncols, one)) == ordered(ref_kernel_rows(rows, ncols, one))
    # every lead and every kernel denominator is a positive int; the drawn
    # systems reach pivots with real negative leads over Q(i) too
    unit = GaussInt(1, 0) if isinstance(one, QI) else 1
    leads = [lead for _row, lead in rref_numerators(nums)]
    dens = [den for _vec, den in kernel_numerators(nums, ncols, unit)]
    assert all(type(d) is int and d > 0 for d in leads + dens)


# -- numerator rows ------------------------------------------------------------------


FACTORS = {
    False: [1, 3, -1, -10],
    True: [GaussInt(1, 0), GaussInt(0, 1), GaussInt(-2, 3), GaussInt(0, -4), GaussInt(-5, 0)],
}


def numerator_row(row, factor, gaussian):
    """The row's numerators over its common denominator, times factor: a
    nonzero multiple of the row with the same keys in the same order."""
    nums, _den = to_integers(row.values(), gaussian)
    return {c: num * factor for c, num in zip(row, nums)}


def scale_some(rows, rng, gaussian, share):
    """Each row as its numerators, times a drawn factor with probability
    share."""
    return [
        numerator_row(
            row, rng.choice(FACTORS[gaussian]) if row and rng.random() < share else 1, gaussian
        )
        for row in rows
    ]


def assert_same_elimination(scaled, rows, ncols, one):
    """The numerator rows eliminate as the rational reference does on the
    Fraction (QI) rows they are multiples of."""
    copies = [dict(r) for r in scaled]
    reduced, pivots = divided_rref(scaled)
    want_reduced, want_pivots = ref_rref_rows(rows)
    assert pivots == want_pivots
    assert ordered(reduced) == ordered(want_reduced)
    assert ordered(divided_kernel(scaled, ncols, one)) == ordered(ref_kernel_rows(rows, ncols, one))
    assert rank_rows(scaled) == len(pivots)
    assert ordered(scaled) == ordered(copies)


def _lead(row):
    return row[min(row)]


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_numerator_rows_match_the_rows_they_scale(field):
    """A system of int (GaussInt over Q(i)) rows is taken as it comes: every
    result, value types and key order included, equals the rational
    reference's on the Fraction (QI) rows they are multiples of."""
    gaussian = field == "Qi"
    rng = random.Random(12 if gaussian else 13)
    one = QI(1) if gaussian else Fraction(1)
    seen = set()
    for _name, rows, ncols in seeded_systems(field):
        for share in (1.0, 0.5):
            scaled = scale_some(rows, rng, gaussian, share)
            assert_same_elimination(scaled, rows, ncols, one)
            for row in scaled:
                if not row:
                    continue
                seen.add("numerators")
                parts = [x for a in row.values() for x in (a.re, a.im)] if gaussian else row.values()
                if gcd(*parts) > 1:
                    seen.add("content > 1")
                lead = _lead(row)
                if (lead.re if gaussian else lead) < 0:
                    seen.add("negative lead")
                if gaussian and lead.im:
                    seen.add("imaginary lead")
    want = {"numerators", "content > 1", "negative lead"}
    assert want | ({"imaginary lead"} if gaussian else set()) <= seen


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_numerator_rows_that_cancel_to_zero(field):
    """A numerator multiple of an earlier row reduces to zero and adds no
    pivot; over Q(i) the multiple may be imaginary-led."""
    gaussian = field == "Qi"
    rng = random.Random(14)
    one = QI(1) if gaussian else Fraction(1)
    for _ in range(20):
        base = [_row(rng, field, 6, 0.7, 15) for _ in range(3)]
        base = [row for row in base if row]
        nums = [numerator_row(row, 1, gaussian) for row in base]
        multiples = [numerator_row(row, rng.choice(FACTORS[gaussian]), gaussian) for row in base]
        for rows in (nums + multiples, multiples + nums, multiples + multiples):
            assert rank_rows(rows) == rank_rows(nums) == len(ref_rref_rows(base)[1])
            assert_same_elimination(rows, base, 6, one)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_systems(), st.floats(0, 1), st.randoms(use_true_random=False))
def test_numerator_rows_match_on_drawn_systems(case, share, rnd):
    rows, ncols, one = case
    gaussian = isinstance(one, QI)
    assert_same_elimination(scale_some(rows, rnd, gaussian, share), rows, ncols, one)


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


# -- the kernel of a tall numerator system -------------------------------------------


def _numerator(rng, gaussian, height):
    """A nonzero int, or GaussInt with a real, imaginary or mixed value."""
    while True:
        re = rng.randint(-height, height)
        im = rng.choice([0, rng.randint(-height, height)]) if gaussian else 0
        if gaussian and rng.random() < 0.2:
            re = 0
        if re or im:
            return GaussInt(re, im) if gaussian else re


def _numerator_row(rng, gaussian, ncols, density, height):
    cols = [c for c in range(ncols) if rng.random() < density]
    rng.shuffle(cols)
    return {c: _numerator(rng, gaussian, height) for c in cols}


def _sum_of_multiples(rows, factors):
    acc = {}
    for row, f in zip(rows, factors):
        for c, a in row.items():
            val = acc[c] + f * a if c in acc else f * a
            if val:
                acc[c] = val
            else:
                del acc[c]
    return acc


def as_field_values(rows):
    """Numerator rows (ints, GaussInt) as rows of Fraction or QI values."""
    return [{c: from_integer(a, 1) for c, a in row.items()} for row in rows]


def assert_tall_kernel_matches_reference(rows, ncols, gaussian):
    """The kernel spans the rational kernel, has the same size, is made of
    primitive numerator vectors of the input's kind that every row meets
    with dot zero, and the rows are left as they were."""
    one = GaussInt(1, 0) if gaussian else 1
    copies = [dict(row) for row in rows]
    kernel = tall_kernel(rows, ncols, one)
    assert ordered(rows) == ordered(copies)
    want = ref_kernel_rows(as_field_values(rows), ncols, QI(1) if gaussian else Fraction(1))
    assert len(kernel) == len(want)
    assert ref_rref_rows(as_field_values(kernel))[0] == ref_rref_rows(want)[0]
    for vec in kernel:
        assert vec and all(type(a) is type(one) and a for a in vec.values())
        parts = [x for a in vec.values() for x in (a.re, a.im)] if gaussian else vec.values()
        assert gcd(*parts) == 1
        for row in rows:
            assert not sum((a * vec[c] for c, a in row.items() if c in vec), 0)
    return kernel


def tall_systems(gaussian):
    """Named tall numerator systems over 1 to 16 columns."""
    rng = random.Random(22 if gaussian else 21)
    for ncols in range(1, 17):
        height = rng.choice([3, 40, 10**15])
        density = min(1.0, 2.5 / ncols)
        rank = rng.randint(0, ncols)
        base = [_numerator_row(rng, gaussian, ncols, 0.6, height) for _ in range(rank)]
        base = [row for row in base if row]
        combos = [
            _sum_of_multiples(base, [_numerator(rng, gaussian, 4) for _ in base])
            for _ in range(3 * ncols)
        ]
        sparse = [_numerator_row(rng, gaussian, ncols, density, height) for _ in range(4 * ncols)]
        yield "sparse", sparse, ncols
        yield "low rank", base + combos, ncols
        yield "combinations first", combos + base, ncols
        yield "zero rows", [{}] + base[:1] + [{}, {}] + base[1:] + [{}], ncols
        yield "zero rows only", [{}, {}], ncols
        yield "duplicate rows", [dict(row) for row in base for _ in range(2)], ncols
        negated = [{c: -a for c, a in row.items()} for row in base]
        yield "cancelling", [row for pair in zip(base, negated) for row in pair] + combos[:2], ncols
        full = [{c: _numerator(rng, gaussian, height)} for c in range(ncols)]
        rng.shuffle(full)
        yield "full column rank", full + combos, ncols
        units = [-1, 1, GaussInt(0, 1), GaussInt(0, -1)] if gaussian else [-1, 1]
        yield "units", [
            {c: rng.choice(units) for c in range(ncols) if rng.random() < density}
            for _ in range(5 * ncols)
        ], ncols


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_tall_kernel_matches_rational_reference(field):
    gaussian = field == "Qi"
    seen = set()
    for name, rows, ncols in tall_systems(gaussian):
        kernel = assert_tall_kernel_matches_reference(rows, ncols, gaussian)
        seen.add((name, "empty" if not kernel else "full" if len(kernel) == ncols else "proper"))
    assert {
        ("full column rank", "empty"),
        ("zero rows", "proper"),
        ("low rank", "proper"),
        ("zero rows only", "full"),
    } <= seen


@st.composite
def _tall_numerator_systems(draw):
    gaussian = draw(st.booleans())
    height = draw(_height)
    part = st.integers(-height, height)
    num = st.builds(GaussInt, part, part) if gaussian else part
    nonzero = num.filter(bool)
    ncols = draw(st.integers(1, 16))
    row = st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=min(ncols, 6))
    rows = draw(st.lists(row, max_size=3 * ncols + 4))
    if rows:
        factors = draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
        extra = [
            _sum_of_multiples(rows, factors),  # dependent on the drawn rows
            dict(rows[0]),  # a duplicate
            {},
        ]
        for r in extra:
            rows.insert(draw(st.integers(0, len(rows))), r)
    return rows, ncols, gaussian


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_tall_numerator_systems())
def test_tall_kernel_matches_rational_reference_on_drawn_systems(case):
    rows, ncols, gaussian = case
    assert_tall_kernel_matches_reference(rows, ncols, gaussian)


def _counted(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_tall_kernel_packs_only_after_an_annihilated_row_with_rows_to_spare(field, monkeypatch):
    """The row test is packed from a row that the basis annihilates, if the
    basis has two vectors or more and more rows remain than there are
    columns; the kernel is the same either way."""
    gaussian = field == "Qi"
    one = GaussInt(1, 0) if gaussian else 1
    packs = _counted(monkeypatch, linalg, "pack")
    # the first row leaves the basis (-2, 1, 0, 0), e_2, e_3; its multiples
    # and the zero row are annihilated, and the last row cuts it again
    cut = {0: one, 1: 2 * one}
    multiples = [{0: f * one, 1: 2 * f * one} for f in (3, -5, 7, 2)]
    last = {2: one, 3: -one}
    cases = [
        ("rows to spare", [cut, {}, *multiples, last], 1),
        ("as many rows left as columns", [cut, {}, *multiples[:3], last], 0),
        ("no annihilated row", [cut, last, {1: one, 2: one}], 0),
        ("one vector left", [cut, last, {2: one}, {}, *multiples, {3: one}], 0),
    ]
    for name, rows, want in cases:
        packs.clear()
        assert_tall_kernel_matches_reference(rows, 4, gaussian)
        assert len(packs) == want, name


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_packed_row_test_sees_a_dot_at_the_edge_of_its_slot(field, monkeypatch):
    """After the first row the basis is v_0 = (V, 1, 0) and v_1 = e_2, and
    it is packed at the empty second row.  A later row meets them with
    A*V = 2^w and -1, for the width w that the basis and the empty rows
    alone give: slots of w bits pack those to 2^w - 2^w = 0 and would skip
    the row.  Every row left is scanned, so whether the row comes right
    after the packing or after ncols more empty rows, it cuts the basis as
    the rational kernel says."""
    gaussian = field == "Qi"
    one = GaussInt(1, 0) if gaussian else 1
    packs = _counted(monkeypatch, linalg, "pack")
    for b in (0, 5, 70):
        big_v = one * (1 << b)
        big_a = one * (1 << (slot_width(3, 0, b + 1, gaussian) - b))
        for at in (2, 5):
            rows = [{0: one, 1: -big_v}] + [{} for _ in range(8)]
            rows[at] = {0: big_a, 2: -one}
            packs.clear()
            kernel = assert_tall_kernel_matches_reference(rows, 3, gaussian)
            assert len(packs) == 1 and len(kernel) == 1


@pytest.mark.parametrize("gaussian", [False, True])
def test_the_packed_zero_test_is_exact_to_the_edge_of_the_slot_bound(gaussian):
    """A sum of ``terms`` products of parts below 2^x_bits and 2^y_bits
    reaches terms (2^x_bits - 1)(2^y_bits - 1), twice that per part over
    Q(i).  Packed into ``slot_width`` bits, two such sums read zero only
    when both are; in slots narrower than the largest one, that sum and a
    -1 in the next slot cancel."""
    for terms, x_bits, y_bits in [(1, 1, 1), (2, 3, 2), (3, 4, 5), (16, 7, 9)]:
        width = slot_width(terms, x_bits, y_bits, gaussian)
        edge = terms * ((1 << x_bits) - 1) * ((1 << y_bits) - 1) * (1 + gaussian)
        assert edge < 1 << width
        values = [edge, -edge, edge - 1, 1, -1, 0]
        for d0 in values:
            for d1 in values:
                if gaussian:
                    slots = [GaussInt(d0, -d1), GaussInt(d1, d0)]
                else:
                    slots = [d0, d1]
                packed = pack([{0: x} for x in slots], width)
                assert bool(packed[0]) == bool(d0 or d1)
        narrow = edge.bit_length() - 1
        assert not pack([{0: 1 << narrow}, {0: -1}], narrow)[0]


# -- the Fock action, the annihilator and the subspace ---------------------------


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_action_annihilator_and_subspace_match_rational_reference(m, field):
    rng = random.Random(100 * m + (field == "Qi"))
    dense_rng = random.Random(200 * m + (field == "Qi"))
    algebra = Algebra(m, field)
    for k in range(1, m + 1) if m <= 6 else (1, m):
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
        spinors_ = [omega]
        if m <= 5:
            # a plane from a long walk of frame moves: the spinor is dense, so
            # the packed row test and the packed certificate run
            dense = rand_tnp(algebra, dense_rng, k, rand_frame(algebra, dense_rng, moves=16 * m))
            spinors_.append(generic_spinor_sample(dense, dense_rng, height=9))
        for sample in spinors_:
            basis = annihilator(sample)
            assert [v.coords() for v in basis] == [list(row) for row in ref_annihilator(sample)]
            assert all(type(x) is type(algebra.zero_scalar) for v in basis for x in v.coords())
        if m <= 5 or m == 6 and k >= m - 1:
            space = annihilated_subspace(tnp, cross_check=m <= 4)
            assert ordered([row.xi for row in space.rows]) == ordered(ref_subspace_rows(tnp))
    omega = rand_nonzero_spinor(algebra, rng, height=9)
    basis = annihilator(omega)
    assert [v.coords() for v in basis] == [list(row) for row in ref_annihilator(omega)]
    if m == 7:
        assert basis.dimension == 0


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
            v = WittVector(algebra, enumerate(coords))
            keys = list(range(1 << m))
            rng.shuffle(keys)
            items = [(a, rng.choice(units)) for a in keys]
            want = ref_act_sparse(v, items)
            got = vector_act(v, Spinor(algebra, dict(items))).xi
            assert ordered([got]) == ordered([want])
            touched = {}
            for a, _c in items:
                for j, key, _negative in ref_fock_flips(m)[a]:
                    if coords[j]:
                        touched.setdefault(key)
            reordered += list(want) != [key for key in touched if key in want]
    assert reordered


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_spinor_systems_reach_the_elimination_as_numerators(field, monkeypatch):
    """The annihilator's and the subspace's systems, and the image route's
    chains, are built from numerators: the only rows the elimination scales
    are the Fraction rows it is handed afterwards.  The annihilator hands it
    none, since it echelonizes its integer kernel vectors as they are.  For
    S_(v1..vk) they are the 2^(m-k) kernel spinors put in echelon form plus
    the k plane vectors that ``is_tnp`` re-echelonizes on entry."""
    calls = []
    scale = linalg.to_integers

    def counted(values, gaussian):
        calls.append(len(values))
        return scale(values, gaussian)

    monkeypatch.setattr(linalg, "to_integers", counted)
    m = 6
    algebra = Algebra(m, field)
    rng = random.Random(60 + (field == "Qi"))
    for k in (2, 4, m):
        tnp = rand_tnp(algebra, rng, k)
        omega = generic_spinor_sample(tnp, rng, height=9)
        calls.clear()
        basis = annihilator(omega)
        assert basis.dimension >= k
        assert calls == []
        calls.clear()
        space = annihilated_subspace(tnp)
        assert space.dimension == 1 << (m - k)
        assert len(calls) <= (1 << (m - k)) + k


def test_annihilator_rejects_a_vector_that_does_not_annihilate(monkeypatch):
    algebra = Algebra(3, "Qi")
    omega = Spinor.fock(algebra, 0b001, QI(2, -3))
    # coordinate 0 is p_1, which flips site 1 of Psi_001 instead of killing it
    monkeypatch.setattr(spinors, "tall_kernel", lambda rows, ncols, one: [{0: one}])
    with pytest.raises(InternalCheckError, match="does not annihilate"):
        annihilator(omega)


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_annihilator_certifies_the_vectors_of_a_dense_spinor_in_one_action(field, monkeypatch):
    """Two or more vectors of a spinor with more than 2m coordinates are
    checked by one action of the packed vectors; one vector, or a sparse
    spinor, takes one action per vector."""
    m = 5
    algebra = Algebra(m, field)
    rng = random.Random(70 + (field == "Qi"))
    actions = _counted(monkeypatch, spinors, "integer_action")
    seen = set()
    for k in (1, 2, 3):
        tnp = rand_tnp(algebra, rng, k, rand_frame(algebra, rng, moves=16 * m))
        omega = generic_spinor_sample(tnp, rng, height=9)
        assert omega.support_size() > 2 * m
        actions.clear()
        basis = annihilator(omega)
        assert [v.coords() for v in basis] == [list(row) for row in ref_annihilator(omega)]
        assert len(actions) == 1
        seen.add(basis.dimension)
    assert {1, 2} <= seen
    actions.clear()
    assert annihilator(Spinor.fock(algebra, 0b00101, 3)).dimension == m
    assert len(actions) == m
    # p_1 and p_2 annihilate a spinor of m = 6 with sites 1 and 2 set in
    # each coordinate: 2m coordinates take one action per vector, 2m + 1 one
    algebra = Algebra(6, field)
    for size in (12, 13):
        coords = [a for a in range(64) if a & 0b110000 == 0b110000][:size]
        omega = Spinor(algebra, {a: random_scalar(rng, field, nonzero=True) for a in coords})
        actions.clear()
        basis = annihilator(omega)
        assert [v.coords() for v in basis] == [list(row) for row in ref_annihilator(omega)]
        assert basis.dimension >= 2
        assert len(actions) == (basis.dimension if size == 12 else 1)


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("bad", [0, 1])
def test_annihilator_rejects_one_bad_vector_among_several(field, bad, monkeypatch):
    """The kernel is p_1, p_2; the spinor, with 16 > 2m coordinates, has
    site ``2 - bad`` set in each, so p_(2 - bad) annihilates it and the
    other one does not.  The packed certificate has the bad vector in slot
    ``bad`` and fails as the per-vector check does.  On Psi_001 at m = 3,
    one coordinate, a kernel of two is checked one vector at a time: q_1
    kills it, and p_2 (before q_1) or q_3 (after it) does not."""
    m = 5
    algebra = Algebra(m, field)
    rng = random.Random(80 + 2 * bad + (field == "Qi"))
    site_bit = 1 << (m - 2 + bad)
    draws = {a: random_scalar(rng, field, nonzero=True, height=9) for a in range(1 << m) if a & site_bit}
    omega = Spinor(algebra, draws)
    assert omega.support_size() > 2 * m
    good = WittVector(algebra, {1 - bad: 1})
    assert vector_act(good, omega).is_zero()
    monkeypatch.setattr(spinors, "tall_kernel", lambda rows, ncols, one: [{0: one}, {1: one}])
    actions = _counted(monkeypatch, spinors, "integer_action")
    with pytest.raises(InternalCheckError, match="^annihilator member does not annihilate$"):
        annihilator(omega)
    assert len(actions) == 1
    algebra = Algebra(3, field)
    omega = Spinor.fock(algebra, 0b001, random_scalar(rng, field, nonzero=True))
    assert vector_act(WittVector(algebra, {3: 1}), omega).is_zero()
    columns = [3, 5] if bad else [1, 3]
    monkeypatch.setattr(spinors, "tall_kernel", lambda rows, ncols, one: [{j: one} for j in columns])
    actions.clear()
    with pytest.raises(InternalCheckError, match="^annihilator member does not annihilate$"):
        annihilator(omega)
    assert len(actions) == bad + 1


@pytest.mark.parametrize(
    "kernel, message",
    [
        # p_1 + q_1 squares to 1
        (lambda one: [{0: one, 3: one}], r"vector 0 is not null: v\^2 = 1$"),
        # p_1 and q_1 are null, but {p_1, q_1} = 1
        (
            lambda one: [{0: one}, {3: one}],
            r"vectors 0 and 1 do not anticommute: \{v_0, v_1\} = 1$",
        ),
    ],
    ids=["not null", "not orthogonal"],
)
def test_annihilator_rejects_kernel_vectors_that_are_not_totally_null(monkeypatch, kernel, message):
    algebra = Algebra(3, "Qi")
    omega = Spinor.fock(algebra, 0b001, QI(2, -3))
    monkeypatch.setattr(spinors, "tall_kernel", lambda rows, ncols, one: kernel(one))
    with pytest.raises(NotTotallyNullError, match=message):
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
                vecs[i] = WittVector(algebra, enumerate(coords))
                # built around the constructor, which would reject it
                tampered = object.__new__(WittFrame)
                tampered.algebra, tampered.q_vecs, tampered.p_vecs = (
                    algebra, frame.q_vecs, frame.p_vecs
                )
                setattr(tampered, half, tuple(vecs))
                got = _outcome(WittFrame._validate, tampered)
                assert got is not None
                assert got == _outcome(ref_validate, tampered)
                outcomes.add(got.split()[0][:3])
    assert {"{u_", "{w_"} <= outcomes
