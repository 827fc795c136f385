"""Per-word references for the gamma expansion and its reconstruction.

``expand_gamma`` and ``reconstruct_gamma`` run one integer Walsh-Hadamard
transform per xor class.  The references below are the per-word Fraction
loops they replaced: each coefficient a signed sum over its class, each word
scattered over all 2^m columns.  Expansions must match them in keys, key
order, values and value types; reconstructions in terms, values and value
types (the order of an element's terms is not part of its value).
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from cliffordefb import Algebra, AlgebraElement
from cliffordefb.bilinear import (
    GammaExpansion,
    _class_words,
    expand_gamma,
    reconstruct_gamma,
    rep_context,
    walsh_hadamard,
)
from cliffordefb.sampling import rand_element
from cliffordefb.scalars import GaussInt, random_scalar


# -- the per-word references ---------------------------------------------------


def subsets_with_xor(m, xor):
    """Ascending index tuples from {1..2m} whose odd-count sites match xor bits."""
    choices = [
        ((2 * site - 1,), (2 * site,)) if (xor >> (m - site)) & 1 else ((), (2 * site - 1, 2 * site))
        for site in range(1, m + 1)
    ]
    for picks in product(*choices):
        yield tuple(i for pick in picks for i in pick)


def ref_expand_gamma(mu):
    algebra = mu.algebra
    rep = rep_context(algebra)
    classes: dict[int, list] = {}
    for (r, c), val in rep.to_matrix(mu).items():
        classes.setdefault(r ^ c, []).append((r, val))
    m = algebra.m
    scale = algebra.one_scalar / (1 << m)
    coefficients = {}
    for xor, entries in classes.items():
        for indices in subsets_with_xor(m, xor):
            _f, sigma, eps = rep.dual_word_action(indices[::-1])
            total = algebra.zero_scalar
            for r, val in entries:
                if (r & sigma).bit_count() & 1 == eps:
                    total = total + val
                else:
                    total = total - val
            if total:
                coefficients[indices] = total * scale
    return GammaExpansion(algebra, coefficients)


def ref_reconstruct_gamma(algebra, expansion):
    rep = rep_context(algebra)
    entries: dict[tuple[int, int], object] = {}
    for indices, coeff in expansion.coefficients.items():
        f, sigma, eps = rep.dual_word_action(indices)
        eps ^= sum(1 for i in indices if i % 2 == 0) & 1
        for c in range(rep.dim):
            key = (c ^ f, c)
            val = -coeff if ((c & sigma).bit_count() & 1) ^ eps else coeff
            prev = entries.get(key)
            val = val if prev is None else prev + val
            if val:
                entries[key] = val
            elif prev is not None:
                del entries[key]
    return rep.from_matrix(entries)


# -- comparisons ---------------------------------------------------------------


def _typed(value):
    parts = (value.re, value.im) if hasattr(value, "im") else (value,)
    return type(value), tuple(type(x) for x in parts)


def assert_same_expansion(got, want):
    assert got.m == want.m
    assert list(got.coefficients.items()) == list(want.coefficients.items())
    assert [_typed(v) for v in got.coefficients.values()] == [
        _typed(v) for v in want.coefficients.values()
    ]


def assert_same_element(got, want):
    assert got == want
    assert {k: _typed(v) for k, v in got.terms.items()} == {
        k: _typed(v) for k, v in want.terms.items()
    }


def check_both_directions(mu):
    algebra = mu.algebra
    expansion = expand_gamma(mu)
    assert_same_expansion(expansion, ref_expand_gamma(mu))
    rebuilt = reconstruct_gamma(algebra, expansion)
    assert_same_element(rebuilt, ref_reconstruct_gamma(algebra, expansion))
    assert rebuilt == mu


def _dense_element(algebra, rng):
    n = 1 << algebra.m
    return AlgebraElement(
        algebra,
        {(a, b): random_scalar(rng, algebra.field, nonzero=True, height=9)
         for a in range(n) for b in range(n)},
    )


CASES = [(m, field) for m in range(1, 7) for field in ("Q", "Qi")]


# -- the transform -------------------------------------------------------------


@pytest.mark.parametrize("k", range(0, 6))
def test_walsh_hadamard_is_the_character_sum(k):
    rng = random.Random(70 + k)
    n = 1 << k
    vec = [rng.randint(-50, 50) for _ in range(n)]
    want = [sum(-x if (r & s).bit_count() & 1 else x for r, x in enumerate(vec)) for s in range(n)]
    assert walsh_hadamard(vec) == want
    gauss = [GaussInt(x, rng.randint(-50, 50)) for x in vec]
    got = walsh_hadamard(gauss)
    assert [z.re for z in got] == want
    assert all(type(z) is GaussInt for z in got)
    # applied twice it is 2^k times the identity
    assert walsh_hadamard(walsh_hadamard(vec)) == [n * x for x in vec]


# -- word location ---------------------------------------------------------------


@pytest.mark.parametrize("m", range(1, 9))
def test_class_words_match_dual_word_action(m):
    """sigma = i ^ sigma_0 and eps = eps_0 + |i & xor| for the i-th word,
    against the per-word generator walk, for every class up to the compute
    limit m = 8; the words come in ``product`` order over the sites."""
    rep = rep_context(Algebra(m))
    for xor in range(1 << m):
        words = list(subsets_with_xor(m, xor))
        class_words, sigma0, eps0 = _class_words(rep, xor)
        got = [
            (indices, i ^ sigma0, eps0 ^ (i & xor).bit_count() & 1)
            for i, indices in enumerate(class_words)
        ]
        assert [indices for indices, _sigma, _eps in got] == words
        for indices, sigma, eps in got:
            assert rep.dual_word_action(indices[::-1]) == (xor, sigma, eps)


# -- transform against the per-word loops --------------------------------------


@pytest.mark.parametrize("m,field", CASES)
def test_zero_element_and_empty_expansion(m, field):
    algebra = Algebra(m, field)
    assert_same_expansion(expand_gamma(algebra.zero()), ref_expand_gamma(algebra.zero()))
    assert expand_gamma(algebra.zero()).coefficients == {}
    empty = GammaExpansion(algebra, {})
    assert_same_element(reconstruct_gamma(algebra, empty), ref_reconstruct_gamma(algebra, empty))
    assert reconstruct_gamma(algebra, empty).is_zero()


@pytest.mark.parametrize("m,field", CASES)
def test_single_terms_match_per_word_loops(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(100 * m + len(field))
    n = 1 << m
    keys = list(product(range(n), repeat=2)) if m <= 2 else [
        (rng.randrange(n), rng.randrange(n)) for _ in range(6)
    ]
    for a, b in keys:
        check_both_directions(algebra.monomial(a, b, random_scalar(rng, field, nonzero=True)))


@pytest.mark.parametrize("m,field", CASES)
def test_random_elements_match_per_word_loops(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(200 * m + len(field))
    for terms in (2, 6, 3 * m):
        check_both_directions(rand_element(algebra, rng, terms=terms))
    # one xor class with cancelling entries: most of its words vanish
    one = algebra.one_scalar
    check_both_directions(algebra.identity() + algebra.volume_gamma().scale(one + one))


@pytest.mark.parametrize("m,field", [(m, f) for m in (1, 2, 3, 6) for f in ("Q", "Qi")])
def test_dense_elements_match_per_word_loops(m, field):
    algebra = Algebra(m, field)
    mu = _dense_element(algebra, random.Random(300 * m + len(field)))
    assert len(mu.terms) == 4 ** m
    check_both_directions(mu)


@pytest.mark.parametrize("m,field", CASES)
def test_arbitrary_word_dicts_match_per_word_loops(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(400 * m + len(field))
    words = {(): random_scalar(rng, field, nonzero=True)}
    for _ in range(12):
        indices = tuple(rng.randrange(1, 2 * m + 1) for _ in range(rng.randrange(2 * m + 3)))
        words[indices] = random_scalar(rng, field, nonzero=True)
    # repeated letters, reversed order and a word that cancels another
    words[(1, 1)] = random_scalar(rng, field, nonzero=True)
    words[tuple(range(2 * m, 0, -1))] = random_scalar(rng, field, nonzero=True)
    words[(2, 1)] = words[(1, 2)] = random_scalar(rng, field, nonzero=True)
    expansion = GammaExpansion(algebra, words)
    assert_same_element(
        reconstruct_gamma(algebra, expansion), ref_reconstruct_gamma(algebra, expansion)
    )


def test_integer_and_fraction_coefficients_reconstruct_alike():
    algebra = Algebra(2)
    words = {(1,): 3, (2, 3): Fraction(1, 6), (): Fraction(-2, 4)}
    rebuilt = reconstruct_gamma(algebra, GammaExpansion(algebra, words))
    want = ref_reconstruct_gamma(algebra, GammaExpansion(algebra, {k: Fraction(v) for k, v in words.items()}))
    assert_same_element(rebuilt, want)


def test_dense_round_trip_at_m8():
    """512 terms over 256 xor classes: the per-word loops take tens of seconds
    here, so the round trip itself is the check."""
    algebra = Algebra(8)
    rng = random.Random(808)
    keys = rng.sample(list(product(range(256), repeat=2)), 512)
    mu = AlgebraElement(algebra, {k: random_scalar(rng, "Q", nonzero=True) for k in keys})
    assert len(mu.terms) == 512
    expansion = expand_gamma(mu)
    assert reconstruct_gamma(algebra, expansion) == mu
