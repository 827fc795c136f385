from fractions import Fraction

import pytest

from cliffordefb import (
    Spinor,
    ZeroSpinorError,
    bilinear_form,
    cartan_chevalley_test,
    constraint_count,
    evaluate_constraints,
    is_simple_direct,
    is_tnp,
    q_vector,
    report,
    theorem2_m_constraints,
    theorem2_test,
)
from cliffordefb.errors import DimensionError
from cliffordefb.simplicity import (
    constraint_grades,
    fock_annihilator,
    iter_constraint_indices,
    theorem2_words,
    tnp_intersection_dim,
)
from cliffordefb.spinors import complete_tnp
from cliffordefb.sampling import rand_nonzero_spinor, rand_simple_spinor


def test_fock_monomials_simple(algebras):
    for m in (1, 2, 3, 4):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        for a in range(1 << m):
            omega = Spinor.fock(algebra, a)
            simple, ann = is_simple_direct(omega)
            assert simple and ann == is_tnp(fock_annihilator(algebra, a).vectors)
            assert cartan_chevalley_test(omega, ann, bform)
            verdict, details = theorem2_test(omega, ann, bform)
            assert verdict
            assert details["k_m"] == m and details["minimal_grade"] == m
            assert theorem2_m_constraints(omega, ann, bform)


def test_cl22_xi_cases_not_simple(algebras):
    algebra = algebras[2]
    omega = Spinor(algebra, {2: Fraction(3), 3: Fraction(5)})
    simple, ann = is_simple_direct(omega)
    assert not simple and ann.dimension == 1


def test_mixed_chirality_m3_not_simple(algebras):
    algebra = algebras[3]
    omega = Spinor(algebra, {0: 1, 7: 1})
    result = report(omega)
    assert not result.simple
    assert not result.verdict_cartan_chevalley
    assert not result.verdict_theorem2
    assert result.nullity == 0
    assert result.chirality is None


def test_simple_products_all_m(rng, algebras):
    for m in (2, 3, 4, 5):
        algebra = algebras[m]
        omega = rand_simple_spinor(algebra, rng)
        result = report(omega)
        assert result.simple and result.nullity == m
        assert result.constraints_violated == 0
        assert result.minimal_grade == m and result.k_m == m
        assert result.chirality in (1, -1)  # simple spinors are Weyl


def test_theorem2_fast_vs_words(rng, algebras):
    for m, tries in ((2, 12), (3, 12), (4, 4)):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        for t in range(tries):
            if t % 2:
                omega = rand_simple_spinor(algebra, rng)
            else:
                omega = rand_nonzero_spinor(algebra, rng)
            simple, ann = is_simple_direct(omega)
            candidate = ann if simple else complete_tnp(ann)
            got = theorem2_test(omega, candidate, bform)
            assert got == theorem2_words(omega, candidate, bform)
            assert got[0] == simple


def test_theorem2_shortcut_equivalence(rng, algebras):
    for m in (2, 3, 4):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        for _ in range(10):
            omega = rand_nonzero_spinor(algebra, rng)
            simple, ann = is_simple_direct(omega)
            candidate = ann if simple else complete_tnp(ann)
            verdict, _ = theorem2_test(omega, candidate, bform)
            assert theorem2_m_constraints(omega, candidate, bform) == verdict == simple


def test_theorem2_rejects_bad_candidate(rng, algebras):
    algebra = algebras[3]
    omega = Spinor.fock(algebra, 0)
    small = is_tnp([q_vector(algebra, 1)])
    with pytest.raises(DimensionError):
        theorem2_test(omega, small)
    with pytest.raises(ZeroSpinorError):
        theorem2_test(Spinor.zero(algebra), fock_annihilator(algebra, 0))


def test_constraint_counts_paper_values():
    assert constraint_count(10) == 10
    assert constraint_count(12) == 66
    assert constraint_count(16) == 1821
    with pytest.raises(DimensionError):
        constraint_count(7)


def test_constraint_grades_structure():
    assert constraint_grades(5) == [1]
    assert constraint_grades(6) == [2]
    assert constraint_grades(8) == [0, 4]
    assert constraint_grades(3) == []
    assert len(list(iter_constraint_indices(5))) == 10


def test_constraints_vanish_on_simple(rng, algebras):
    for m in (4, 5):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        omega = rand_simple_spinor(algebra, rng)
        generated, violated = evaluate_constraints(omega, bform)
        assert generated == constraint_count(2 * m)
        assert violated == 0


def test_constraints_catch_chiral_non_simple(rng, algebras):
    from cliffordefb.scalars import random_scalar

    for m in (4, 5):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        found = 0
        for _ in range(10):
            xi = {
                a: random_scalar(rng, algebra.field, height=9)
                for a in range(1 << m)
                if bin(a).count("1") % 2 == 0
            }
            omega = Spinor(algebra, xi)
            if omega.is_zero() or is_simple_direct(omega)[0]:
                continue
            _, violated = evaluate_constraints(omega, bform)
            assert violated >= 1
            found += 1
        assert found


def test_report_fields_and_intersection_dims(rng, algebras):
    algebra = algebras[3]
    omega = Spinor.fock(algebra, 0)
    result = report(omega)
    assert result.simple and result.verdict_direct
    assert result.annihilator.dimension == 3
    assert result.candidate == result.annihilator
    # k_m against other Fock spinors decreases with flipped sites
    for a in range(8):
        expected = 3 - bin(a).count("1")
        assert (
            tnp_intersection_dim(result.annihilator, fock_annihilator(algebra, a))
            == expected
        )


def test_report_rejects_zero(algebras):
    with pytest.raises(ZeroSpinorError):
        report(Spinor.zero(algebras[2]))
