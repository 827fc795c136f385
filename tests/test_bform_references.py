"""Dense-column references for B(omega, phi), the purity constraints and
the rank-one endomorphisms.

The library reads B on Fock coordinates through ``BForm.fock_pairing``;
the references below are the dense 2^m-column computations it replaced,
applying B and every dual gamma word as signed permutations of the full
matrix column and assembling endomorphisms entry by entry.
"""

import random

import pytest

from cliffordefb import Algebra, Spinor, bilinear_form, evaluate_constraints
from cliffordefb.errors import DimensionError, FieldMismatchError
from cliffordefb.sampling import rand_nonzero_spinor, rand_simple_spinor, rand_tnp
from cliffordefb.scalars import random_scalar
from cliffordefb.simplicity import iter_constraint_indices
from cliffordefb.spinors import annihilator, generic_spinor_sample
from conftest import apply_perm, dense_b, dual_gamma_word, union_find_b
from test_matrixrep import ref_word_sign


def spinor_column(rep, omega):
    """Signed coordinates of the spinor in matrix column 2^m - 1, signed by
    the letter walk."""
    full = rep.algebra.full_mask
    col = [rep.algebra.zero_scalar] * rep.dim
    for a, c in omega.xi.items():
        col[a] = c if ref_word_sign(rep.m, a, full) > 0 else -c
    return col


def dense_dot(x, y, zero):
    total = zero
    for a, b in zip(x, y):
        if a and b:
            total = total + a * b
    return total


def dense_inner(bform, omega, phi):
    """<B x, y> over the dense matrix columns x, y of omega, phi."""
    bx = apply_perm(dense_b(bform), spinor_column(bform.rep, omega))
    return dense_dot(bx, spinor_column(bform.rep, phi), bform.algebra.zero_scalar)


def dense_constraint_values(omega):
    """B(omega, gamma^ik...gamma^i1 omega) per constraint, each dual word
    applied to the dense column."""
    algebra = omega.algebra
    bform = bilinear_form(algebra)
    x = spinor_column(bform.rep, omega)
    bx = apply_perm(dense_b(bform), x)
    return [
        dense_dot(bx, apply_perm(dual_gamma_word(algebra.m, indices[::-1]), x), algebra.zero_scalar)
        for indices in iter_constraint_indices(algebra.m)
    ]


def dense_constraints(omega):
    """(generated, violated) from the dense constraint values."""
    values = dense_constraint_values(omega)
    return len(values), sum(1 for value in values if value)


def ref_endo_from_pair(bform, omega, phi):
    """phi' -> B(phi, phi') omega as the dense outer product of omega's column
    with B phi's column, mapped back through the representation."""
    rep = bform.rep
    x = spinor_column(rep, omega)
    by = apply_perm(dense_b(bform), spinor_column(rep, phi))
    entries = {}
    for r, xv in enumerate(x):
        if not xv:
            continue
        for c, yv in enumerate(by):
            if yv:
                entries[(r, c)] = xv * yv
    return rep.from_matrix(entries)


def spinor_cases(algebra, rng):
    """Simple, chiral, non-chiral, sparse and S_(v1..vk) spinors (k = 1, m-1)."""
    m = algebra.m
    cases = [
        Spinor.fock(algebra, 0),
        Spinor.fock(algebra, algebra.full_mask, random_scalar(rng, algebra.field, True)),
        rand_simple_spinor(algebra, rng),
        rand_nonzero_spinor(algebra, rng, height=9),
        rand_nonzero_spinor(algebra, rng, density=0.3, height=9),
    ]
    chiral = Spinor(
        algebra,
        {
            a: random_scalar(rng, algebra.field, height=9)
            for a in range(1 << m)
            if a.bit_count() % 2 == 0
        },
    )
    if not chiral.is_zero():
        cases.append(chiral)
    for k in sorted({1, m - 1} - {0}):
        cases.append(generic_spinor_sample(rand_tnp(algebra, rng, k), rng, height=9))
    return cases


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_constraints_and_inner_match_dense_references(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(1000 * m + len(field))
    bform = bilinear_form(algebra)
    cases = spinor_cases(algebra, rng)
    for omega in cases:
        assert evaluate_constraints(omega) == dense_constraints(omega)
    for omega in cases:
        for phi in cases[:4]:
            assert bform.inner(omega, phi) == dense_inner(bform, omega, phi)
            assert bform.inner(phi, omega) == dense_inner(bform, phi, omega)


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_fock_constraint_sums_match_dense_values_up_to_class_signs(m, field):
    """sum_c s_c xi_c (-1)^|e & sigma| xi_e, e = d(c) ^ f, over the Fock
    pairing is the dense value times (-1)^eps times one sign per class f:
    the column signs of the letter walk, ref_word_sign(m, c, full), are a
    character of c times a constant, so the class sign is the product of
    the signs of f and 0."""
    algebra = Algebra(m, field)
    rng = random.Random(300 * m + len(field))
    bform = bilinear_form(algebra)
    rep = bform.rep
    full = algebra.full_mask
    column_sign = [ref_word_sign(m, c, full) for c in range(1 << m)]
    assert all(
        column_sign[a ^ b] * column_sign[a] * column_sign[b] * column_sign[0] == 1
        for a in range(1 << m)
        for b in range(1 << m)
    )
    pairing = bform.fock_pairing()
    nonzero = 0
    for omega in spinor_cases(algebra, rng):
        xi = omega.xi
        dense = dense_constraint_values(omega)
        for indices, want in zip(iter_constraint_indices(m), dense):
            f, sigma, eps = rep.dual_word_action(indices[::-1])
            got = algebra.zero_scalar
            for c, x in xi.items():
                d, sign = pairing[c]
                y = xi.get(d ^ f)
                if y is not None:
                    got = got + sign * (-1) ** ((d ^ f) & sigma).bit_count() * x * y
            class_sign = column_sign[f] * column_sign[0] * (-1 if eps else 1)
            assert (got if class_sign > 0 else -got) == want
            nonzero += bool(want)
    assert nonzero


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_endo_from_pair_matches_the_matrix_column_reference(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(500 * m + len(field))
    bform = bilinear_form(algebra)
    cases = spinor_cases(algebra, rng)
    for omega in cases:
        for phi in cases[:4]:
            for x, y in ((omega, phi), (phi, omega)):
                got = bform.endo_from_pair(x, y)
                assert got == ref_endo_from_pair(bform, x, y)
                assert all(type(v) is type(algebra.zero_scalar) for v in got.terms.values())


def test_reference_counts_on_plane_samples():
    # v1...vk Phi: k = 1 violates some constraints but not all; k = m - 1
    # gives a non-chiral, non-simple spinor that satisfies every constraint
    for m in (5, 6):
        for field in ("Q", "Qi"):
            algebra = Algebra(m, field)
            rng = random.Random(7 * m)
            for k in (1, m - 1):
                omega = generic_spinor_sample(rand_tnp(algebra, rng, k), rng, height=9)
                generated, violated = evaluate_constraints(omega)
                assert (generated, violated) == dense_constraints(omega)
                if k == 1:
                    assert 0 < violated < generated
                else:
                    assert violated == 0 and omega.chirality() is None
                    assert annihilator(omega).dimension == m - 1


def test_mixed_algebras_are_rejected():
    q4, qi4, q3 = Algebra(4), Algebra(4, "Qi"), Algebra(3)
    bform = bilinear_form(q4)
    omega = Spinor.fock(q4, 0)
    other_q4 = Spinor.fock(Algebra(4), q4.full_mask)
    assert bform.inner(omega, other_q4) == dense_inner(bform, omega, other_q4)
    complex_phi = Spinor.fock(qi4, qi4.full_mask)
    small = Spinor.fock(q3, 0)
    for call in (bform.inner, bform.endo_from_pair):
        with pytest.raises(FieldMismatchError):
            call(omega, complex_phi)
        with pytest.raises(FieldMismatchError):
            call(complex_phi, omega)
        with pytest.raises(DimensionError):
            call(omega, small)
        with pytest.raises(DimensionError):
            call(small, omega)


@pytest.mark.parametrize("m", range(1, 9))
def test_fock_pairing_signs_match_the_letter_walk(m):
    """The closed-form column sign (-1)^(floor(m/2) + |c & even sites|)
    against the letter walk ``ref_word_sign``, and the library's pairing
    against the pairing built from the walk over the union-find B of the
    tensor-construction gammas."""
    algebra = Algebra(m)
    bform = bilinear_form(algebra)
    full = algebra.full_mask
    even_sites = sum(1 << (m - site) for site in range(2, m + 1, 2))
    column_sign = [ref_word_sign(m, c, full) for c in range(1 << m)]
    for c in range(1 << m):
        assert column_sign[c] == (-1 if (m // 2 + (c & even_sites).bit_count()) & 1 else 1)
    b = union_find_b(m)
    walked = [(d, b.signs[c] * column_sign[c] * column_sign[d]) for c, d in enumerate(b.perm)]
    assert bform.fock_pairing() == walked
