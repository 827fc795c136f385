"""The probe route of Prop 8, kept as the reference for the Witt expansion,
and the change-of-Fock-basis map G that the library expands and rebuilds
through.

``expand_witt(mu, frame)`` conjugates mu by the frame's G and reads the
standard-frame closed form off the EFB terms; ``reconstruct_witt(algebra,
expansion, frame)`` copies the full-support coefficients to their EFB
indices and conjugates back by G.  The references are the routes they
replaced: coefficient(W) = trace(probe_W mu) / trace(probe_W W), with every
probe built as a product of frame vectors, 5^m words in all, and the sum of
each full-support word's frame-vector product
(``harness.reconstruct_by_products``).  G itself is tested on its defining
identities: the column sign, the intertwining G q_i = u_i G and
G p_i = w_i G on every Fock spinor, G^t P G = lam P, and G = 1, lam = 1 in
the standard frame.
"""

import random

import pytest

from cliffordefb import Algebra, Spinor, bilinear_form, normalize_tnp, standard_frame
from cliffordefb.bilinear import (
    WittExpansion,
    _frame_map,
    expand_witt,
    reconstruct_witt,
    rep_context,
    trace_of_product,
)
from cliffordefb.harness import (
    _checked_norm,
    _frame_letter,
    _probe_element,
    _rand_witt_word,
    _word_norm,
    reconstruct_by_products,
    word_vectors,
)
from cliffordefb.sampling import rand_element, rand_frame, rand_max_tnp, rand_nonzero_spinor
from cliffordefb.scalars import random_scalar
from cliffordefb.spinors import act, apply_vector_chain, vector_act
from cliffordefb.vectors import element_of_vectors, p_vector, q_vector
from conftest import witt_word


# -- the probe route --------------------------------------------------------------


def witt_coefficient(mu, word, frame=None):
    """trace(probe_W mu) / trace(probe_W W), the probe route for one word."""
    frame = frame or standard_frame(mu.algebra)
    probe = _probe_element(frame, word)
    return trace_of_product(probe, mu) / _word_norm(frame, word, probe)


def probe_table(frame):
    """(word, probe, norm) for all 5^m Witt words, in ``iter_witt_words``
    order: the part of the probe route that does not depend on the element
    expanded.

    Letters on distinct sites anticommute (singles) or commute (couples), so
    a word and its probe are products of one letter per site in site order,
    up to the sign (-1)^(k(k-1)/2) of the probe's k reversed singles.  The
    products are built site by site, shared by the words that agree on the
    sites so far; ``harness._probe_element`` builds one probe literally.
    """
    algebra = frame.algebra
    letters = [
        [
            (kind, element_of_vectors(algebra, _frame_letter(frame, site, kind)),
             element_of_vectors(algebra, _frame_letter(frame, site, dual)))
            for kind, dual in (("p", "q"), ("q", "p"), ("qp", "qp"), ("pq", "pq"))
        ]
        for site in range(1, algebra.m + 1)
    ]
    table = []

    def rec(site, singles, couples, product, probe):
        if site > algebra.m:
            word = witt_word(algebra.m, singles, couples)
            k = len(singles)
            if k * (k - 1) // 2 % 2:
                probe = -probe
            table.append((word, probe, _checked_norm(word, probe, product)))
            return
        rec(site + 1, singles, couples, product, probe)
        for kind, letter, dual in letters[site - 1]:
            if len(kind) == 1:
                rec(site + 1, singles + [(site, kind)], couples, product * letter, probe * dual)
            else:
                rec(site + 1, singles, couples + [(site, kind)], product * letter, probe * dual)

    one = algebra.identity()
    rec(1, [], [], one, one)
    return table


def expand_by_probes(mu, table):
    """The probe route over a ``probe_table``: trace(probe_W mu) / norm_W."""
    coefficients = {}
    for word, probe, norm in table:
        val = trace_of_product(probe, mu)
        if val:
            coefficients[word] = val / norm
    return WittExpansion(mu.algebra, coefficients)


# -- the change of Fock basis G -----------------------------------------------------


FIELDS = ["Q", "Qi"]


def frames(algebra, rng):
    """The standard frame, an adapted frame of a random maximal plane and a
    random frame (with its p/q swaps, rescalings, mixes and shears)."""
    return [
        standard_frame(algebra),
        normalize_tnp(rand_max_tnp(algebra, rng)),
        rand_frame(algebra, rng),
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_column_sign_is_the_p_chain_on_the_vacuum(m):
    """(p-letters of a's sites, ascending) Psi_0 = s_a Psi_a with
    s_a = word_sign(a, full) word_sign(0, full), the sign G's columns use."""
    algebra = Algebra(m)
    word_sign, full = rep_context(algebra).word_sign, algebra.full_mask
    vacuum = Spinor.fock(algebra, 0)
    for a in range(1 << m):
        letters = [p_vector(algebra, i) for i in range(1, m + 1) if (a >> (m - i)) & 1]
        s_a = word_sign(a, full) * word_sign(0, full)
        assert apply_vector_chain(letters, vacuum) == Spinor.fock(algebra, a, s_a)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_frame_map_is_one_in_the_standard_frame(m, field):
    algebra = Algebra(m, field)
    g, g_inv, lam = _frame_map(standard_frame(algebra))
    assert g == g_inv == algebra.identity()
    assert lam == 1


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_frame_map_intertwines_and_scales_b(m, field):
    """G q_i = u_i G and G p_i = w_i G on every Fock spinor, and
    B(G Psi_c, G Psi_e) = lam B(Psi_c, Psi_e) for every pair."""
    algebra = Algebra(m, field)
    rng = random.Random(f"frame-map:{m}:{field}")
    bform = bilinear_form(algebra)
    fock = [Spinor.fock(algebra, a) for a in range(1 << m)]
    for frame in frames(algebra, rng):
        g, g_inv, lam = _frame_map(frame)
        lam = algebra.coerce(lam)
        assert lam and g_inv * g == algebra.identity()
        columns = [act(g, psi) for psi in fock]
        for i in range(1, m + 1):
            pairs = (
                (q_vector(algebra, i), frame.q_vecs[i - 1]),
                (p_vector(algebra, i), frame.p_vecs[i - 1]),
            )
            for standard, adapted in pairs:
                for psi, column in zip(fock, columns):
                    assert act(g, vector_act(standard, psi)) == vector_act(adapted, column)
        for psi_c, column_c in zip(fock, columns):
            for psi_e, column_e in zip(fock, columns):
                assert bform.inner(column_c, column_e) == lam * bform.inner(psi_c, psi_e)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_frame_expansion_round_trips_through_the_frame_vectors(m, field):
    """Expansion and reconstruction over a frame, both through G, invert each
    other on sparse elements and on rank-one ones (up to 4^m full-support
    words)."""
    algebra = Algebra(m, field)
    rng = random.Random(f"frame-round-trip:{m}:{field}")
    bform = bilinear_form(algebra)
    for frame in frames(algebra, rng):
        elements = [
            rand_element(algebra, rng, terms=8),
            bform.endo_from_pair(rand_nonzero_spinor(algebra, rng), rand_nonzero_spinor(algebra, rng)),
        ]
        for mu in elements:
            assert reconstruct_witt(algebra, expand_witt(mu, frame), frame) == mu


def rand_expansion(algebra, rng, n):
    """n random words, full-support or not, with nonzero coefficients."""
    return WittExpansion(algebra, {
        _rand_witt_word(algebra.m, rng): random_scalar(rng, algebra.field, nonzero=True, height=9)
        for _ in range(n)
    })


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_frame_reconstruction_matches_the_vector_products(m, field):
    """G (copy) G^-1 against the sum of each full-support word's frame-vector
    product, a route that never builds G: on the expansions of sparse
    elements and random words, and at m <= 4 of rank-one elements."""
    algebra = Algebra(m, field)
    rng = random.Random(f"frame-products:{m}:{field}")
    bform = bilinear_form(algebra)
    for frame in frames(algebra, rng):
        expansions = [expand_witt(rand_element(algebra, rng, terms=8), frame), rand_expansion(algebra, rng, 12)]
        if m <= 4:
            endo = bform.endo_from_pair(rand_nonzero_spinor(algebra, rng), rand_nonzero_spinor(algebra, rng))
            expansions.append(expand_witt(endo, frame))
        for expansion in expansions:
            assert reconstruct_witt(algebra, expansion, frame) == reconstruct_by_products(frame, expansion)


@pytest.mark.parametrize(
    "m, field",
    [(1, "Q"), (1, "Qi"), (2, "Q"), (2, "Qi"), (3, "Q"), (3, "Qi"), (4, "Q"), (4, "Qi"), (5, "Q")],
)
def test_frame_expansion_matches_the_probe_route(m, field):
    """Random elements and rank-one endomorphisms over the standard, an
    adapted and a random frame; at m <= 3 also the element of every word."""
    algebra = Algebra(m, field)
    rng = random.Random(f"frame-probes:{m}:{field}")
    bform = bilinear_form(algebra)
    for frame in frames(algebra, rng):
        table = probe_table(frame)
        elements = [
            rand_element(algebra, rng, terms=8),
            bform.endo_from_pair(rand_nonzero_spinor(algebra, rng), rand_nonzero_spinor(algebra, rng)),
        ]
        if m <= 3:
            elements += [element_of_vectors(algebra, word_vectors(frame, word)) for word, _p, _n in table]
        for mu in elements:
            assert expand_witt(mu, frame) == expand_by_probes(mu, table)
