"""Dense-column references for B(omega, phi) and the purity constraints.

The library evaluates both on spinor supports in closed form; the
references below are the dense 2^m-column computations they replaced,
applying B and every dual gamma word as signed permutations of the full
matrix column.
"""

import random

import pytest

from cliffordefb import Algebra, Spinor, bilinear_form, evaluate_constraints
from cliffordefb.bilinear import rep_context, spinor_column
from cliffordefb.errors import DimensionError, FieldMismatchError
from cliffordefb.sampling import rand_nonzero_spinor, rand_simple_spinor, rand_tnp
from cliffordefb.scalars import random_scalar
from cliffordefb.simplicity import iter_constraint_indices
from cliffordefb.spinors import annihilator, generic_spinor_sample
from conftest import dual_gamma_word


def dense_inner(bform, omega, phi):
    """<B x, y> over the dense matrix columns x, y of omega, phi."""
    bx = bform.apply(spinor_column(bform.rep, omega))
    y = spinor_column(bform.rep, phi)
    total = bform.algebra.zero_scalar
    for a, b in zip(bx, y):
        if a and b:
            total = total + a * b
    return total


def dense_constraints(omega, bform):
    """(generated, violated) with each dual word applied to the dense column."""
    algebra = omega.algebra
    rep = rep_context(algebra)
    x = spinor_column(rep, omega)
    bx = bform.apply(x)
    generated = violated = 0
    for indices in iter_constraint_indices(algebra.m):
        generated += 1
        z = dual_gamma_word(rep, indices[::-1]).apply(x)
        total = algebra.zero_scalar
        for a, b in zip(bx, z):
            if a and b:
                total = total + a * b
        if total:
            violated += 1
    return generated, violated


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
        assert evaluate_constraints(omega, bform) == dense_constraints(omega, bform)
    for omega in cases:
        for phi in cases[:4]:
            assert bform.inner(omega, phi) == dense_inner(bform, omega, phi)
            assert bform.inner(phi, omega) == dense_inner(bform, phi, omega)


def test_reference_counts_on_plane_samples():
    # v1...vk Phi: k = 1 violates some constraints but not all; k = m - 1
    # gives a non-chiral, non-simple spinor that satisfies every constraint
    for m in (5, 6):
        for field in ("Q", "Qi"):
            algebra = Algebra(m, field)
            bform = bilinear_form(algebra)
            rng = random.Random(7 * m)
            for k in (1, m - 1):
                omega = generic_spinor_sample(rand_tnp(algebra, rng, k), rng, height=9)
                generated, violated = evaluate_constraints(omega, bform)
                assert (generated, violated) == dense_constraints(omega, bform)
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
    with pytest.raises(FieldMismatchError):
        evaluate_constraints(complex_phi, bform)
    with pytest.raises(DimensionError):
        evaluate_constraints(small, bform)
