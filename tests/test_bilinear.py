import random
from fractions import Fraction
from itertools import combinations

import pytest

from cliffordefb import (
    Algebra,
    Spinor,
    act,
    bilinear_form,
    embed_gamma,
    expand_gamma,
    expand_witt,
    gamma_vector,
    is_tnp,
    q_vector,
    reconstruct_gamma,
    reconstruct_witt,
    rep_context,
    vector_act,
)
from cliffordefb.bilinear import (
    GammaExpansion,
    build_b,
    iter_witt_words,
)
from cliffordefb.errors import DimensionError, FieldMismatchError, InternalCheckError
from cliffordefb.harness import _probe_element, _word_norm, probe_vectors, tensor_word
from cliffordefb.matrixrep import RepContext
from cliffordefb.scalars import random_scalar, to_integers
from cliffordefb.sampling import (
    rand_element,
    rand_nonzero_spinor,
    rand_simple_spinor,
    rand_unit_vector,
)
from cliffordefb.simplicity import tnp_intersection_dim
from cliffordefb.spinors import annihilator, apply_vector_chain
from cliffordefb.vectors import element_of_vectors, standard_frame
from conftest import dense_b, dense_matrix, dual_gamma_word, gammas, union_find_b, witt_word
from test_witt_frame_references import expand_by_probes, probe_table, witt_coefficient


def test_b_form_m1_matrix(algebras):
    assert dense_matrix(dense_b(bilinear_form(algebras[1])), 1, 0).rows == [[0, 1], [1, 0]]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_b_transpose_sign_and_intertwining(m):
    algebra = Algebra(m)
    bform = bilinear_form(algebra)  # build-time checks verify everything
    sp = dense_b(bform)
    want = -1 if (m * (m - 1) // 2) % 2 else 1
    assert sp.transpose() == (sp if want > 0 else -sp)
    for gamma in gammas(m):
        assert gamma.transpose().compose(sp) == sp.compose(gamma)


def test_inner_fock_pattern(algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        psi_e = Spinor.fock(algebra, 0)
        for a in range(1 << m):
            value = bform.inner(psi_e, Spinor.fock(algebra, a))
            assert bool(value) == (a == algebra.full_mask)


def test_inner_symmetry_sign(rng, algebras):
    for m in (1, 2, 3, 4):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        for _ in range(10):
            w = rand_nonzero_spinor(algebra, rng)
            p = rand_nonzero_spinor(algebra, rng)
            assert bform.inner(w, p) == bform.transpose_sign() * bform.inner(p, w)


def test_pin_invariance(rng, algebras):
    for m in (1, 2, 3, 4):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        for _ in range(8):
            v = rand_unit_vector(algebra, rng)
            w = rand_nonzero_spinor(algebra, rng)
            p = rand_nonzero_spinor(algebra, rng)
            assert bform.inner(vector_act(v, w), vector_act(v, p)) == bform.inner(w, p)


def test_endo_action_and_trace(rng, algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        for _ in range(8):
            w = rand_nonzero_spinor(algebra, rng)
            p = rand_nonzero_spinor(algebra, rng)
            endo = bform.endo_from_pair(w, p)
            probe = rand_nonzero_spinor(algebra, rng)
            assert act(endo, probe) == w.scale(bform.inner(p, probe))
            assert endo.trace() == bform.inner(p, w)


def test_endo_psi_e_annihilates_other_fock(algebras):
    algebra = algebras[3]
    bform = bilinear_form(algebra)
    endo = bform.endo_from_pair(Spinor.fock(algebra, 0), Spinor.fock(algebra, 0))
    for a in range(1, 8):
        if a == algebra.full_mask:
            continue
        assert act(endo, Spinor.fock(algebra, a)).is_zero()


def test_thm1_endo_is_q_product(rng, algebras):
    for m in (1, 2, 3, 4):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        tnp = is_tnp([q_vector(algebra, i) for i in range(1, m + 1)])
        endo = bform.endo_from_pair(Spinor.fock(algebra, 0), Spinor.fock(algebra, 0))
        ratio = endo.proportionality(tnp.product_element())
        assert ratio


def test_expand_gamma_examples(algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        assert expand_gamma(algebra.identity()).coefficients == {(): Fraction(1)}
        assert expand_gamma(embed_gamma(algebra, 1)).coefficients == {(1,): Fraction(1)}


def test_expand_gamma_round_trip(rng, algebras):
    for m in (1, 2, 3, 4):
        algebra = algebras[m]
        for _ in range(10):
            mu = rand_element(algebra, rng)
            assert reconstruct_gamma(algebra, expand_gamma(mu)) == mu


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_reconstructions_reject_bad_indices_and_another_m(field):
    """A gamma index outside 1..2m, or an expansion of another m or field,
    raises; the expansion's values may be ints or field values."""
    algebra, smaller = Algebra(3, field), Algebra(2, field)
    for index in (0, 7):
        for coefficient in (1, random_scalar(random.Random(index), field, nonzero=True)):
            words = {(1, 2): 1, (2, index): coefficient}
            with pytest.raises(DimensionError, match="out of range at m=3"):
                GammaExpansion(algebra, words)
            nums, den = to_integers(words.values(), field == "Qi")
            expansion = GammaExpansion.from_numerators(algebra, dict(zip(words, nums)), den)
            with pytest.raises(DimensionError, match="out of range 1..6"):
                reconstruct_gamma(algebra, expansion)
    mu = rand_element(algebra, random.Random(3), terms=6)
    for expansion, reconstruct in [
        (expand_gamma(mu), reconstruct_gamma),
        (expand_witt(mu), reconstruct_witt),
    ]:
        for other in (smaller, Algebra(4, field)):
            with pytest.raises(DimensionError, match="mixed m"):
                reconstruct(other, expansion)
        with pytest.raises(FieldMismatchError, match="mixed fields"):
            reconstruct(Algebra(3, "Q" if field == "Qi" else "Qi"), expansion)


def _dense_expand_gamma(mu):
    """Every multi-index, each dual word composed as a dense signed permutation."""
    algebra = mu.algebra
    rep = rep_context(algebra)
    mat = rep.to_matrix(mu)
    coefficients = {}
    for k in range(2 * algebra.m + 1):
        for indices in combinations(range(1, 2 * algebra.m + 1), k):
            probe = dual_gamma_word(algebra.m, indices[::-1])
            total = algebra.zero_scalar
            for (r, c), val in mat.items():
                if probe.perm[r] == c:
                    total = total + (val if probe.signs[r] > 0 else -val)
            if total:
                coefficients[indices] = total / (1 << algebra.m)
    return coefficients


def _dense_reconstruct_gamma(algebra, coefficients):
    rep = rep_context(algebra)
    entries = {}
    for indices, coeff in coefficients.items():
        word = tensor_word(gammas(algebra.m), indices)
        for c, (r, s) in enumerate(zip(word.perm, word.signs)):
            entries[(r, c)] = entries.get((r, c), algebra.zero_scalar) + (coeff if s > 0 else -coeff)
    return rep.from_matrix(entries)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_gamma_expansion_matches_dense_words(m):
    rng = random.Random(500 + m)
    for field in ("Q", "Qi") if m <= 3 else ("Q",):
        algebra = Algebra(m, field)
        for terms in (1, 6, 4 ** m if m <= 2 else 24):
            mu = rand_element(algebra, rng, terms=terms)
            expansion = expand_gamma(mu)
            assert expansion.coefficients == _dense_expand_gamma(mu)
            assert reconstruct_gamma(algebra, expansion) == mu
        # reconstruction of arbitrary words: any order, repeated letters
        words = {}
        for _ in range(8):
            indices = tuple(rng.randrange(1, 2 * m + 1) for _ in range(rng.randrange(2 * m + 2)))
            words[indices] = random_scalar(rng, field, nonzero=True)
        expansion = GammaExpansion(algebra, words)
        assert reconstruct_gamma(algebra, expansion) == _dense_reconstruct_gamma(algebra, words)


def test_element_of_vectors_gamma_words_match_rep(algebras):
    algebra = algebras[2]
    rep = rep_context(algebra)
    assert element_of_vectors(algebra, []) == algebra.identity()
    for indices in [(), (1,), (2,), (1, 2), (1, 3), (2, 4), (1, 2, 3, 4)]:
        element = element_of_vectors(algebra, [gamma_vector(algebra, i) for i in indices])
        assert rep.to_matrix(element) == tensor_word(gammas(2), indices).entries(algebra.one_scalar)


def test_expand_witt_m1_table(algebras):
    algebra = algebras[1]
    q_elem = Spinor.fock(algebra, 0).to_element()
    words = {w.word_str(): c for w, c in expand_witt(q_elem).coefficients.items()}
    assert words == {"q1": Fraction(1)}
    qp = algebra.monomial(0, 0)
    words = {w.word_str(): c for w, c in expand_witt(qp).coefficients.items()}
    assert words == {"1": Fraction(1, 2), "q1p1": Fraction(1)}


def test_expand_witt_identity_couples(algebras):
    algebra = algebras[2]
    expansion = expand_witt(algebra.identity())
    for word, coeff in expansion.coefficients.items():
        assert not word.singles
        if len(word.couples) == 2:
            assert coeff == 1


def test_expand_witt_round_trip_and_bounds(rng, algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        for _ in range(6):
            mu = rand_element(algebra, rng)
            expansion = expand_witt(mu)
            assert reconstruct_witt(algebra, expansion) == mu
            for word in expansion.coefficients:
                l, k = len(word.singles), word.grade
                assert k % 2 == l % 2
                assert l <= min(k, 2 * m - k)


def test_witt_gamma_consistency(rng, algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        for _ in range(4):
            mu = rand_element(algebra, rng)
            via_gamma = reconstruct_gamma(algebra, expand_gamma(mu))
            via_witt = reconstruct_witt(algebra, expand_witt(mu))
            assert via_gamma == via_witt == mu


def test_partial_word_coefficients_average_couple_fillings(rng, algebras):
    # c(absent site) = (c(qp filling) + c(pq filling)) / 2, site by site
    algebra = algebras[2]
    frame = standard_frame(algebra)
    for _ in range(6):
        mu = rand_element(algebra, rng)
        word = witt_word(2, ((1, "q"),), ())
        filled_qp = witt_word(2, ((1, "q"),), ((2, "qp"),))
        filled_pq = witt_word(2, ((1, "q"),), ((2, "pq"),))
        lhs = witt_coefficient(mu, word, frame)
        rhs = (
            witt_coefficient(mu, filled_qp, frame)
            + witt_coefficient(mu, filled_pq, frame)
        ) / 2
        assert lhs == rhs


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_expand_witt_closed_form_matches_probe_route(m, field):
    rng = random.Random(700 + 10 * m + (field == "Qi"))
    algebra = Algebra(m, field)
    frame = standard_frame(algebra)
    bform = bilinear_form(algebra)
    top = 1 << (m - 1)
    cancel = algebra.monomial(0, 0) - algebra.monomial(top, top)
    # every word that drops site 1 gets (1 - 1) / 2^|D| and is left out
    assert all(1 in word.support() for word in expand_witt(cancel).coefficients)
    elements = [
        rand_element(algebra, rng, terms=12),
        bform.endo_from_pair(rand_nonzero_spinor(algebra, rng), rand_nonzero_spinor(algebra, rng)),
        algebra.identity(),
        cancel,
        rand_element(algebra, rng, terms=4 ** m if m <= 2 else 3),
        bform.endo_from_pair(rand_simple_spinor(algebra, rng), rand_nonzero_spinor(algebra, rng)),
    ]
    table = probe_table(frame)
    for mu in elements:
        closed = expand_witt(mu)
        assert closed == expand_by_probes(mu, table)
        assert closed == expand_witt(mu, frame)
        assert all(closed.coefficients.values())
        assert reconstruct_witt(algebra, closed) == mu


def test_thm1_single_word_certificate(algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        endo = bform.endo_from_pair(Spinor.fock(algebra, 0), Spinor.fock(algebra, 0))
        expansion = expand_witt(endo)
        assert len(expansion.coefficients) == 1
        ((word, _coeff),) = expansion.coefficients.items()
        assert word.word_str() == ".".join(f"q{i}" for i in range(1, m + 1))


def test_word_norms_and_rank1_identity(rng, algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        bform = bilinear_form(algebra)
        frame = standard_frame(algebra)
        w = rand_nonzero_spinor(algebra, rng)
        p = rand_nonzero_spinor(algebra, rng)
        endo = bform.endo_from_pair(w, p)
        for word in iter_witt_words(m):
            norm = _word_norm(frame, word, _probe_element(frame, word))
            expected = 1 << (m - len(word.singles) - len(word.couples))
            assert norm in (expected, -expected)
            sigma = apply_vector_chain(probe_vectors(frame, word), w)
            assert witt_coefficient(endo, word, frame) == bform.inner(p, sigma) / norm


@pytest.mark.parametrize(
    "m, field", [(1, "Q"), (1, "Qi"), (2, "Q"), (2, "Qi"), (3, "Q"), (3, "Qi"), (4, "Q")]
)
def test_probe_table_matches_literal_probes(m, field):
    """The table built site by site equals each word's probe built as the
    literal product of its probe vectors, with the literal norm."""
    from cliffordefb import normalize_tnp
    from cliffordefb.sampling import rand_max_tnp

    rng = random.Random(f"probes:{m}:{field}")
    algebra = Algebra(m, field)
    for frame in (standard_frame(algebra), normalize_tnp(rand_max_tnp(algebra, rng))):
        literal = []
        for word in iter_witt_words(m):
            probe = _probe_element(frame, word)
            literal.append((word, probe, _word_norm(frame, word, probe)))
        assert probe_table(frame) == literal


def test_prop7_forward_small(rng, algebras):
    algebra = algebras[3]
    bform = bilinear_form(algebra)
    for _ in range(10):
        omega = rand_simple_spinor(algebra, rng)
        phi = rand_simple_spinor(algebra, rng)
        if tnp_intersection_dim(annihilator(omega), annihilator(phi)) >= 1:
            assert bform.inner(omega, phi) == 0


def test_adapted_frame_expansion(rng, algebras):
    # expansion over a random adapted frame still reconstructs
    from cliffordefb import normalize_tnp
    from cliffordefb.sampling import rand_max_tnp

    algebra = algebras[2]
    frame = normalize_tnp(rand_max_tnp(algebra, rng))
    table = probe_table(frame)
    for _ in range(4):
        mu = rand_element(algebra, rng, terms=4)
        expansion = expand_witt(mu, frame)
        assert expansion == expand_by_probes(mu, table)
        assert reconstruct_witt(algebra, expansion, frame) == mu


# -- the closed form of B against the union-find reference --------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_closed_form_b_matches_union_find(m):
    rep = rep_context(Algebra(m))
    assert dense_b(build_b(rep)) == union_find_b(m)


# -- the one-dimensionality proof rejects a tampered representation -----------


@pytest.mark.parametrize(
    "slot, source, message",
    [
        (0, 2, "gamma_1 does not flip site 1"),  # gamma_1 := gamma_3 (site 2)
        (1, 3, "gamma_1 gamma_2 is not diagonal"),  # gamma_2 := gamma_4
        (1, 0, "do not separate the basis"),  # gamma_2 := gamma_1, D_1 = 1
        (5, 4, "do not separate the basis"),  # gamma_6 := gamma_5, D_3 = 1
    ],
)
def test_build_b_rejects_tampered_rep(slot, source, message):
    rep = RepContext(Algebra(3))
    rep.gamma_masks[slot] = rep.gamma_masks[source]
    with pytest.raises(InternalCheckError, match=message):
        build_b(rep)
