"""Rational references for the integer-scaled EFB product and the standard
frame Witt expansion and reconstruction.

``Algebra.mul`` sums the operands' stored numerators over the product of
their denominators, ``expand_witt`` sums them over one common denominator
and divides once per emitted word, and ``reconstruct_witt`` in the standard
frame copies each full-support coefficient to its EFB index.  The
references below are the per-term Fraction / QI loops they replaced, the
letter-tuple Witt word that the index masks of ``WittWord`` replaced, and the
product of each word's frame vectors (``harness.reconstruct_by_products``).
Results must match them in terms, key order and value types (``Fraction``
over Q, ``QI`` over Q(i)).
"""

import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from cliffordefb import Algebra, AlgebraElement, bilinear
from cliffordefb.algebra import LETTER_NAMES, word_of_index
from cliffordefb.bilinear import (
    WittExpansion,
    WittWord,
    bilinear_form,
    expand_witt,
    iter_witt_words,
    reconstruct_witt,
)
from cliffordefb.errors import DimensionError, FieldMismatchError
from cliffordefb.harness import reconstruct_by_products
from cliffordefb.sampling import rand_nonzero_spinor, rand_simple_spinor
from cliffordefb.scalars import QI, random_scalar
from cliffordefb.vectors import standard_frame
from conftest import witt_word

FIELDS = ("Q", "Qi")


# -- the per-term references ----------------------------------------------------


def ref_mul(x, y):
    """The product summed term pair by term pair in the field."""
    algebra = x.algebra
    algebra.check_compatible(y.algebra)
    by_row: dict[int, list] = {}
    for (c, d), coeff in y.terms.items():
        by_row.setdefault(c, []).append((d, coeff))
    acc: dict[tuple[int, int], object] = {}
    for (a, b), xc in x.terms.items():
        for d, yc in by_row.get(b, ()):
            val = xc * yc * algebra.sign_s(a, b, d)
            key = (a, d)
            prev = acc.get(key)
            val = val if prev is None else prev + val
            if val:
                acc[key] = val
            elif prev is not None:
                del acc[key]
    return AlgebraElement(algebra, acc)


def ref_expand_witt(mu):
    """Each term c Psi_ab adds c / 2^|D| to the word dropping couples D."""
    m = mu.algebra.m
    coefficients = {}
    for (a, b), c in mu.terms.items():
        singles, couples = [], []
        for site, code in enumerate(word_of_index(a, b, m), start=1):
            (singles if code & 1 else couples).append((site, LETTER_NAMES[code]))
        singles = tuple(singles)
        for kept in range(1 << len(couples)):
            kept_couples = tuple(x for j, x in enumerate(couples) if kept >> j & 1)
            word = witt_word(m, singles, kept_couples)
            val = c / (1 << (len(couples) - len(kept_couples)))
            prev = coefficients.get(word)
            coefficients[word] = val if prev is None else prev + val
    return WittExpansion(mu.algebra, {w: v for w, v in coefficients.items() if v})


class LetterWord(NamedTuple):
    """The letter-tuple Witt word that the masks replaced, with its reads."""

    singles: tuple  # ((site, "p"|"q"), ...) ascending sites
    couples: tuple  # ((site, "qp"|"pq"), ...) ascending sites

    @property
    def grade(self) -> int:
        return len(self.singles) + 2 * len(self.couples)

    def support(self) -> set[int]:
        return {s for s, _ in self.singles} | {s for s, _ in self.couples}

    def word_str(self) -> str:
        items = [(s, kind[0] + str(s) + (kind[1] + str(s) if len(kind) > 1 else ""))
                 for s, kind in list(self.singles) + list(self.couples)]
        if not items:
            return "1"
        return ".".join(text for _s, text in sorted(items))

    def is_z_word(self) -> bool:
        return all(k == "q" for _s, k in self.singles) and all(
            k == "qp" for _s, k in self.couples
        )


def letter_words(m: int):
    """All letter-tuple words, per site: absent, p, q, qp, pq."""

    def rec(site, singles, couples):
        if site > m:
            yield LetterWord(tuple(singles), tuple(couples))
            return
        for st in ("", "p", "q", "qp", "pq"):
            if st == "":
                yield from rec(site + 1, singles, couples)
            elif len(st) == 1:
                yield from rec(site + 1, singles + [(site, st)], couples)
            else:
                yield from rec(site + 1, singles, couples + [(site, st)])

    yield from rec(1, [], [])


def typed(items):
    return [(key, type(val), val) for key, val in items.items()]


def assert_same(got, want):
    """Equal terms, equal key order, equal value types."""
    assert typed(got) == typed(want)


# -- inputs ----------------------------------------------------------------------


def rand_terms(algebra, rng, n, height):
    """n distinct random terms; height 1 makes cancellations common."""
    size = 1 << algebra.m
    n = min(n, size * size)
    terms = {}
    while len(terms) < n:
        key = (rng.randrange(size), rng.randrange(size))
        terms[key] = random_scalar(rng, algebra.field, nonzero=True, height=height)
    return AlgebraElement(algebra, terms)


def operand_pairs(algebra, rng):
    size = 1 << algebra.m
    counts = (0, 1, 2, size, 3 * size, min(size * size // 2, 512))
    for nx in counts:
        for ny in counts:
            for height in (1, 20):
                yield rand_terms(algebra, rng, nx, height), rand_terms(algebra, rng, ny, height)


# -- the product -----------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", range(1, 7))
def test_product_matches_the_field_loop(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(7000 + 10 * m + len(field))
    for x, y in operand_pairs(algebra, rng):
        assert_same((x * y).terms, ref_mul(x, y).terms)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", (1, 3, 6))
def test_one_term_against_dense_operands(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(7100 + m)
    size = 1 << m
    dense = rand_terms(algebra, rng, size * size * 3 // 4, 20)
    for _ in range(10):
        one = rand_terms(algebra, rng, 1, 20)
        assert_same((one * dense).terms, ref_mul(one, dense).terms)
        assert_same((dense * one).terms, ref_mul(dense, one).terms)


@pytest.mark.parametrize("field", FIELDS)
def test_zero_and_unmatched_operands(field):
    algebra = Algebra(3, field)
    x = algebra.monomial(1, 2, 5)
    assert (x * algebra.zero()).terms == {}
    assert (algebra.zero() * x).terms == {}
    # column 2 of x meets no row of y
    y = AlgebraElement(algebra, {(3, 4): 2, (5, 6): 7})
    assert (x * y).terms == {} and ref_mul(x, y).terms == {}


@pytest.mark.parametrize("field", FIELDS)
def test_total_and_partial_cancellation(field):
    algebra = Algebra(3, field)
    a, b, c, d = 1, 2, 6, 5
    s = algebra.sign_s
    x = AlgebraElement(algebra, {(a, b): 1, (a, c): 1})
    y = AlgebraElement(algebra, {(b, d): s(a, b, d), (c, d): -s(a, c, d)})
    assert (x * y).terms == {}
    # a key that vanishes and comes back moves to the end, as in the field loop
    x = AlgebraElement(algebra, {(a, b): 1, (a, c): 1, (a, 3): Fraction(1, 3)})
    y = AlgebraElement(
        algebra,
        {(b, d): s(a, b, d), (b, 0): 1, (c, d): -s(a, c, d), (3, d): 3 * s(a, 3, d)},
    )
    product = x * y
    assert_same(product.terms, ref_mul(x, y).terms)
    assert list(product.terms) == [(a, 0), (a, d)]


@pytest.mark.parametrize("field", FIELDS)
def test_value_types_follow_the_field(field):
    algebra = Algebra(2, field)
    rng = random.Random(7200)
    x = rand_terms(algebra, rng, 8, 20)
    y = rand_terms(algebra, rng, 8, 20)
    want = QI if field == "Qi" else Fraction
    assert all(type(v) is want for v in (x * y).terms.values())


def test_mixed_algebras_are_still_rejected():
    x = Algebra(2).monomial(0, 1)
    with pytest.raises(DimensionError):
        x * Algebra(3).monomial(1, 0)
    with pytest.raises(FieldMismatchError):
        x * Algebra(2, "Qi").monomial(1, 0)
    with pytest.raises(FieldMismatchError):
        Algebra(2, "Qi").mul(x, Algebra(2, "Qi").monomial(1, 0))


# -- the Witt expansion and its reconstruction -------------------------------------


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", range(1, 7))
def test_expand_witt_matches_the_field_loop(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(7300 + 10 * m + len(field))
    size = 1 << m
    for n in (0, 1, 5, size, 4 * size):
        for height in (1, 20):
            mu = rand_terms(algebra, rng, n, height)
            assert_same(expand_witt(mu).coefficients, ref_expand_witt(mu).coefficients)
    assert_same(
        expand_witt(algebra.identity()).coefficients,
        ref_expand_witt(algebra.identity()).coefficients,
    )


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", range(1, 6))
def test_expand_witt_of_rank_one_endomorphisms(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(7400 + m)
    bform = bilinear_form(algebra)
    for _ in range(3):
        omega = rand_simple_spinor(algebra, rng)
        endo = bform.endo_from_pair(omega, omega)
        assert_same(expand_witt(endo).coefficients, ref_expand_witt(endo).coefficients)


@pytest.mark.parametrize("field", FIELDS)
def test_expand_witt_of_a_dense_rank_one_element(field):
    """omega (x) phi* of two dense spinors at m = 6: thousands of terms,
    each feeding one word per kept couple set."""
    algebra = Algebra(6, field)
    rng = random.Random(7450 + len(field))
    bform = bilinear_form(algebra)
    endo = bform.endo_from_pair(rand_nonzero_spinor(algebra, rng), rand_nonzero_spinor(algebra, rng))
    assert len(endo.terms) > 3000
    assert_same(expand_witt(endo).coefficients, ref_expand_witt(endo).coefficients)


def test_expand_witt_builds_one_word_per_coefficient(monkeypatch):
    """Words are made once each, when the nonzero coefficients are emitted,
    not once per (term, kept couple set) pair."""
    built = []

    def counted(*fields):
        built.append(fields)
        return WittWord(*fields)

    monkeypatch.setattr(bilinear, "WittWord", counted)
    algebra = Algebra(5)
    rng = random.Random(7460)
    bform = bilinear_form(algebra)
    top = 1 << 4
    elements = [
        bform.endo_from_pair(rand_nonzero_spinor(algebra, rng), rand_nonzero_spinor(algebra, rng)),
        rand_terms(algebra, rng, 200, 1),
        algebra.monomial(0, 0) - algebra.monomial(top, top),  # the words dropping site 1 cancel
        algebra.identity(),
    ]
    for mu in elements:
        built.clear()
        coefficients = expand_witt(mu).coefficients
        assert len(built) == len(coefficients)
        assert all(type(word) is WittWord for word in coefficients)


@pytest.mark.parametrize("m", range(1, 5))
def test_mask_words_read_as_their_letter_tuples(m):
    """Every mask word's views equal the letter-tuple word's definitions,
    and ``iter_witt_words`` yields the 5^m words in the letter order."""
    words = list(iter_witt_words(m))
    assert len(set(words)) == len(words) == 5 ** m
    for word, ref in zip(words, letter_words(m), strict=True):
        assert word == witt_word(m, ref.singles, ref.couples)
        assert not word.single_mask & word.couple_mask
        assert not word.h_mask & ~(word.single_mask | word.couple_mask)
        assert (word.singles, word.couples, word.grade) == (ref.singles, ref.couples, ref.grade)
        assert word.support() == ref.support()
        assert word.word_str() == ref.word_str()
        assert word.is_z_word() == ref.is_z_word()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", range(1, 4))
def test_every_full_support_word_is_its_basis_word(m, field):
    """The frame vectors of each full-support word multiply to +Psi_ab."""
    algebra = Algebra(m, field)
    frame = standard_frame(algebra)
    words = [w for w in iter_witt_words(m) if w.single_mask | w.couple_mask == algebra.full_mask]
    assert len(words) == 4 ** m
    for word in words:
        expansion = WittExpansion(algebra, {word: 1})
        closed = reconstruct_witt(algebra, expansion)
        assert list(closed.terms.values()) == [algebra.one_scalar]
        assert_same(closed.terms, reconstruct_by_products(frame, expansion).terms)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", range(1, 6))
def test_reconstruction_copy_matches_the_vector_products(m, field):
    algebra = Algebra(m, field)
    frame = standard_frame(algebra)
    rng = random.Random(7500 + 10 * m + len(field))
    for n in (0, 1, 6, 1 << m):
        mu = rand_terms(algebra, rng, n, 20)
        expansion = expand_witt(mu)
        closed = reconstruct_witt(algebra, expansion)
        assert closed == mu
        assert_same(closed.terms, reconstruct_by_products(frame, expansion).terms)


@pytest.mark.parametrize("field", FIELDS)
def test_reconstruction_skips_partial_words_and_zero_coefficients(field):
    algebra = Algebra(3, field)
    frame = standard_frame(algebra)
    full = witt_word(3, ((1, "q"), (3, "p")), ((2, "pq"),))
    partial = witt_word(3, ((1, "q"),), ((2, "qp"),))
    zero = witt_word(3, (), ((1, "qp"), (2, "qp"), (3, "pq")))
    expansion = WittExpansion(algebra, {partial: 5, full: Fraction(-2, 3), zero: 0})
    closed = reconstruct_witt(algebra, expansion)
    assert len(closed.terms) == 1
    assert_same(closed.terms, reconstruct_by_products(frame, expansion).terms)
    with pytest.raises(DimensionError):
        reconstruct_witt(Algebra(2, field), expansion)
