from fractions import Fraction

import pytest

from cliffordefb import (
    Algebra,
    NotTotallyNullError,
    QI,
    WittVector,
    anticommutator_form,
    classify,
    conj_element,
    conj_vector,
    C_element,
    C_inverse,
    embed,
    embed_gamma,
    gamma_vector,
    is_null,
    is_tnp,
    normalize_tnp,
    p_vector,
    q_vector,
    square,
)
from cliffordefb.vectors import delta_minus, delta_plus
from cliffordefb.sampling import rand_element, rand_null_vector, rand_vector


def test_embed_null_squares(algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        for i in range(1, m + 1):
            assert (embed(p_vector(algebra, i)) * embed(p_vector(algebra, i))).is_zero()
            assert (embed(q_vector(algebra, i)) * embed(q_vector(algebra, i))).is_zero()


def test_gamma_squares_and_weyl_pairs(algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        one = algebra.identity()
        for i in range(1, m + 1):
            assert embed_gamma(algebra, 2 * i - 1) * embed_gamma(algebra, 2 * i - 1) == one
            assert embed_gamma(algebra, 2 * i) * embed_gamma(algebra, 2 * i) == -one


def test_witt_anticommutators(algebras):
    algebra = algebras[3]
    one = algebra.identity()
    for i in range(1, 4):
        for j in range(1, 4):
            pi, qj = embed(p_vector(algebra, i)), embed(q_vector(algebra, j))
            anti = pi * qj + qj * pi
            assert anti == (one if i == j else algebra.zero())


def test_form_and_square_examples(algebras):
    algebra = algebras[2]
    assert square(p_vector(algebra, 1)) == 0
    assert square(gamma_vector(algebra, 1)) == 1
    assert square(gamma_vector(algebra, 2)) == -1
    v = p_vector(algebra, 1) + q_vector(algebra, 2)
    assert square(v) == 0 and classify(v) == "V0"


def test_form_agrees_with_embedding(rng, algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        one = algebra.identity()
        for _ in range(15):
            v = rand_vector(algebra, rng)
            u = rand_vector(algebra, rng)
            form = anticommutator_form(v, u)
            assert embed(v) * embed(u) + embed(u) * embed(v) == one.scale(form)
            assert square(v) * 2 == anticommutator_form(v, v)


def test_classify(algebras):
    algebra = algebras[2]
    assert classify(p_vector(algebra, 1)) == "V0"
    assert classify(gamma_vector(algebra, 3)) == "V1"
    zero = WittVector(algebra, enumerate([0, 0, 0, 0]))
    assert classify(zero) == "V0"


def test_named_subspaces_inside_v0_and_v1(rng, algebras):
    # Q = span{q_i} sits inside the null vectors; the span of the odd
    # generators sits inside the non-null ones (containment only)
    for m in (2, 3):
        algebra = algebras[m]
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
            in_q = WittVector(algebra, enumerate([0] * m + coeffs))
            assert classify(in_q) == "V0"
            if any(coeffs):
                odd = WittVector(algebra, enumerate(coeffs + coeffs))  # sum c_i gamma_(2i-1)
                assert classify(odd) == "V1"


def test_v_plus_conj_is_timelike(rng, algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        for _ in range(15):
            v = rand_vector(algebra, rng)
            if v.is_zero():
                continue
            assert square(v + conj_vector(v)) > 0
            assert square(v - conj_vector(v)) <= 0
            assert classify(v + conj_vector(v)) == "V1"


def test_conj_vector_examples(algebras):
    algebra = algebras[3]
    assert conj_vector(p_vector(algebra, 2)) == q_vector(algebra, 2)
    v = WittVector(algebra, enumerate([1, 2, 3, 4, 5, 6]))
    assert conj_vector(conj_vector(v)) == v
    assert square(conj_vector(v)) == square(v)


def test_conj_vector_complex_stars_coefficients():
    algebra = Algebra(1, "Qi")
    v = WittVector(algebra, enumerate([QI(1, 2), QI(0, 3)]))
    w = conj_vector(v)
    assert w.alpha == (QI(0, -3),)
    assert w.beta == (QI(1, -2),)
    from cliffordefb.scalars import star

    assert square(w) == star(square(v))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_delta_squares_and_conjugation(m):
    algebra = Algebra(m)
    one = algebra.identity()
    s_plus = -1 if (m * (m - 1) // 2) % 2 else 1
    s_minus = -1 if (m * (m + 1) // 2) % 2 else 1
    assert delta_plus(algebra) * delta_plus(algebra) == one.scale(s_plus)
    assert delta_minus(algebra) * delta_minus(algebra) == one.scale(s_minus)
    c, cinv = C_element(algebra), C_inverse(algebra)
    assert c * cinv == one
    for i in range(1, m + 1):
        assert c * embed(p_vector(algebra, i)) * cinv == embed(q_vector(algebra, i))


def test_c_element_m1_is_gamma1(algebras):
    algebra = algebras[1]
    assert C_element(algebra) == embed_gamma(algebra, 1)
    assert C_inverse(algebra) == embed_gamma(algebra, 1)


def test_conj_element(rng, algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        for _ in range(10):
            v = rand_vector(algebra, rng)
            x = rand_element(algebra, rng, terms=4)
            assert conj_element(embed(v)) == embed(conj_vector(v))
            assert conj_element(conj_element(x)) == x
        for _ in range(10):
            v = rand_null_vector(algebra, rng)
            assert is_null(conj_vector(v))


def test_is_tnp_accepts_standard_planes(algebras):
    for m in (2, 3, 4):
        algebra = algebras[m]
        tnp = is_tnp([q_vector(algebra, i) for i in range(1, m + 1)])
        assert tnp.dimension == m
        mixed = is_tnp(
            [p_vector(algebra, 1)] + [q_vector(algebra, i) for i in range(2, m + 1)]
        )
        assert mixed.dimension == m


def test_is_tnp_rejects_pairings(algebras):
    algebra = algebras[2]
    with pytest.raises(NotTotallyNullError):
        is_tnp([p_vector(algebra, 1), q_vector(algebra, 1)])
    with pytest.raises(NotTotallyNullError):
        is_tnp([gamma_vector(algebra, 1)])


def test_is_tnp_echelonizes_dependent_input(algebras):
    algebra = algebras[3]
    q1, q2 = q_vector(algebra, 1), q_vector(algebra, 2)
    tnp = is_tnp([q1, q2, q1 + q2])
    assert tnp.dimension == 2


def test_normalize_tnp_dual_pairing(rng, algebras):
    from cliffordefb.sampling import rand_tnp

    for m in (2, 3, 4):
        algebra = algebras[m]
        for _ in range(6):
            k = rng.randint(1, m)
            tnp = rand_tnp(algebra, rng, k)
            frame = normalize_tnp(tnp)  # validates {u_i, w_j} = delta_ij itself
            assert frame.size == k
            # duals live in the conjugate span
            from cliffordefb.linalg import Matrix

            conj_rows = [conj_vector(v).coords() for v in tnp]
            for w in frame.p_vecs:
                stacked = Matrix(conj_rows + [w.coords()])
                assert stacked.rank() == len(conj_rows)


def test_normalize_tnp_square_class_case(algebras):
    # {v, conj v} = 2 here: no rational rescale gives a self-dual basis, but
    # the dual-frame pairing is still exactly delta
    algebra = algebras[2]
    v = p_vector(algebra, 1) + p_vector(algebra, 2)
    frame = normalize_tnp(is_tnp([v]))
    assert anticommutator_form(frame.q_vecs[0], frame.p_vecs[0]) == 1


def ref_normalize_duals(tnp):
    """The duals as field-value vector arithmetic: w_j = sum_t G^-1[t][j]
    conj(v_t), scaled and added vector by vector."""
    from cliffordefb.linalg import Matrix

    conjs = [conj_vector(v) for v in tnp]
    inverse = Matrix([[anticommutator_form(v, c) for c in conjs] for v in tnp]).inverse()
    duals = []
    for j in range(len(conjs)):
        acc = conjs[0] * inverse.rows[0][j]
        for c, row in zip(conjs[1:], inverse.rows[1:]):
            acc = acc + c * row[j]
        duals.append(acc)
    return duals


@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_normalize_tnp_duals_match_field_value_arithmetic(m, field):
    import random

    from cliffordefb.sampling import rand_tnp

    algebra = Algebra(m, field)
    rng = random.Random(f"duals:{m}:{field}")
    for k in range(1, m + 1):
        for _ in range(3):
            tnp = rand_tnp(algebra, rng, k)
            frame = normalize_tnp(tnp)
            assert frame.q_vecs == tnp.vectors
            assert list(frame.p_vecs) == ref_normalize_duals(tnp)


def test_element_of_vectors_starts_from_the_first_vector(algebras):
    from cliffordefb.errors import DimensionError
    from cliffordefb.vectors import element_of_vectors

    algebra = algebras[3]
    v, u = gamma_vector(algebra, 1), p_vector(algebra, 2)
    assert element_of_vectors(algebra, []) == algebra.identity()
    assert element_of_vectors(algebra, [v]) == embed(v)
    assert element_of_vectors(algebra, [v, u]) == embed(v) * embed(u)
    with pytest.raises(DimensionError, match="mixed m"):
        element_of_vectors(algebra, [gamma_vector(algebras[2], 1)])
