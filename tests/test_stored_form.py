"""The stored form of an element: integer numerators over one denominator.

``AlgebraElement.nums`` maps (a, b) to a nonzero int (a ``GaussInt`` over
Q(i)) and ``den`` is a positive int sharing no factor with every numerator
part, so equal elements store the same form whatever route built them, and
``==`` and ``hash`` read it.  ``terms`` is a field-value view built per read.
The gamma and Witt expansions store the same form keyed by their words, and
``coefficients`` is their view.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from cliffordefb import Algebra, AlgebraElement, serialize
from cliffordefb.bilinear import (
    GammaExpansion,
    WittExpansion,
    expand_gamma,
    expand_witt,
    reconstruct_gamma,
    reconstruct_witt,
    rep_context,
)
from cliffordefb.errors import FieldMismatchError
from cliffordefb.sampling import rand_element
from cliffordefb.scalars import QI, GaussInt
from cliffordefb.vectors import C_element, conj_element, embed, gamma_vector

from conftest import witt_word
from test_efb_references import ref_expand_witt
from test_gamma_references import ref_expand_gamma

CASES = [(m, field) for m in range(1, 5) for field in ("Q", "Qi")]
EXPANSIONS = [
    (GammaExpansion, expand_gamma, reconstruct_gamma, ref_expand_gamma),
    (WittExpansion, expand_witt, reconstruct_witt, ref_expand_witt),
]


def assert_lowest_terms(nums, den, field):
    assert type(den) is int and den > 0
    want = int if field == "Q" else GaussInt
    assert all(type(num) is want and num for num in nums.values())
    if field == "Q":
        parts = list(nums.values())
    else:
        parts = [p for num in nums.values() for p in (num.re, num.im)]
    assert gcd(den, *parts) == 1
    if not nums:
        assert den == 1


def assert_stored_form(x):
    assert_lowest_terms(x.nums, x.den, x.algebra.field)


def elements(algebra, rng):
    """Random elements, with cancelling sums and zero products among them."""
    out = [algebra.zero(), algebra.identity(), algebra.volume_gamma()]
    out += [rand_element(algebra, rng, terms=t, height=h) for t in (1, 4, 12) for h in (1, 9)]
    out.append(embed(gamma_vector(algebra, 1)))
    x = out[-2]
    out += [x - x, x * algebra.zero(), x.scale(Fraction(6, 35)), -x, x.star()]
    return out


@pytest.mark.parametrize("m, field", CASES)
def test_every_route_stores_the_normal_form(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(7 * m + len(field))
    rep = rep_context(algebra)
    xs = elements(algebra, rng)
    for x in xs:
        y = xs[rng.randrange(len(xs))]
        built = [
            x, x * y, y * x, x + y, x - y, x.scale(Fraction(-4, 9)), x.main_automorphism(),
            x.star(), rep.from_matrix(rep.to_matrix(x)),
            serialize.element_from_json(serialize.element_to_json(x), algebra),
            reconstruct_gamma(algebra, expand_gamma(x)),
            reconstruct_witt(algebra, expand_witt(x)), conj_element(x),
        ]
        for z in built:
            assert_stored_form(z)


@pytest.mark.parametrize("m, field", CASES)
def test_equal_elements_have_one_form_and_one_hash(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(11 * m + len(field))
    rep = rep_context(algebra)
    identity = algebra.identity()
    for x in elements(algebra, rng):
        y = rand_element(algebra, rng, terms=8, height=5)
        routes = [
            AlgebraElement(algebra, x.terms),
            x * identity,
            identity * x,
            (x + y) - y,
            x.scale(7).scale(Fraction(1, 7)),
            x.scale(Fraction(2, 3)) + x.scale(Fraction(1, 3)),
            rep.from_matrix(rep.to_matrix(x)),
            serialize.element_from_json(serialize.element_to_json(x), algebra),
            reconstruct_gamma(algebra, expand_gamma(x)),
            reconstruct_witt(algebra, expand_witt(x)),
        ]
        for z in routes:
            assert z == x and hash(z) == hash(x)
            assert (z.nums, z.den) == (x.nums, x.den)


def test_public_constructor_takes_any_spelling_of_a_value():
    for field, values in (
        ("Q", [2, Fraction(4, 2), QI(2, 0)]),
        ("Qi", [2, Fraction(6, 3), QI(2, 0), QI(Fraction(4, 2))]),
    ):
        algebra = Algebra(2, field)
        built = [AlgebraElement(algebra, {(1, 2): v, (3, 0): Fraction(1, 6)}) for v in values]
        assert len({(x.den, tuple(x.nums.items())) for x in built}) == 1
        assert len({hash(x) for x in built}) == 1
        assert built[0].den == 6
    algebra = Algebra(2, "Qi")
    x = AlgebraElement(algebra, {(0, 0): QI(Fraction(1, 2), Fraction(1, 3))})
    assert x.nums == {(0, 0): GaussInt(3, 2)} and x.den == 6
    assert AlgebraElement(algebra, {(0, 0): 0, (1, 1): QI()}).den == 1


def test_terms_is_a_view_built_per_read():
    algebra = Algebra(2, "Q")
    x = AlgebraElement(algebra, {(3, 1): Fraction(1, 2), (0, 2): Fraction(-2, 3)})
    assert x.nums == {(3, 1): 3, (0, 2): -4} and x.den == 6
    view = x.terms
    assert view == {(3, 1): Fraction(1, 2), (0, 2): Fraction(-2, 3)}
    assert list(view) == [(3, 1), (0, 2)]
    assert view is not x.terms
    view[(1, 1)] = Fraction(5)
    assert (1, 1) not in x.terms
    with pytest.raises(AttributeError):
        x.terms = {}


@pytest.mark.parametrize("field, want", [("Q", Fraction), ("Qi", QI)])
def test_terms_values_keep_their_field_types(field, want):
    algebra = Algebra(3, field)
    rng = random.Random(5)
    for x in elements(algebra, rng):
        for z in (x, x * x, x + x):
            terms = z.terms
            assert all(type(v) is want for v in terms.values())
            assert all(z.coefficient(*key) == v for key, v in terms.items())
            assert type(z.trace()) is want and type(z.coefficient(0, 1 << 2)) is want


def test_numerator_constructor_reduces_to_lowest_terms():
    algebra = Algebra(2, "Q")
    x = AlgebraElement.from_numerators(algebra, {(0, 1): 6, (2, 3): -10}, 4)
    assert x.nums == {(0, 1): 3, (2, 3): -5} and x.den == 2
    zero = AlgebraElement.from_numerators(algebra, {}, 12)
    assert zero.den == 1 and zero == algebra.zero()
    algebra = Algebra(2, "Qi")
    x = AlgebraElement.from_numerators(algebra, {(0, 1): GaussInt(6, 4), (1, 1): GaussInt(0, 2)}, 8)
    assert x.nums == {(0, 1): GaussInt(3, 2), (1, 1): GaussInt(0, 1)} and x.den == 4
    assert x.terms == {(0, 1): QI(Fraction(3, 4), Fraction(1, 2)), (1, 1): QI(0, Fraction(1, 4))}


def test_elements_key_sets_and_dicts_by_value():
    algebra = Algebra(3, "Qi")
    c = C_element(algebra)
    again = AlgebraElement(algebra, {k: QI(v.re) for k, v in c.terms.items()})
    assert len({c, again, c * algebra.identity()}) == 1
    assert {c: "C"}[again] == "C"


# -- the expansions ---------------------------------------------------------------


def typed_items(view):
    """(key, value, the types of the value and of its parts) in view order."""
    return [
        (key, v, type(v), tuple(type(p) for p in ((v.re, v.im) if isinstance(v, QI) else (v,))))
        for key, v in view.items()
    ]


@pytest.mark.parametrize("m, field", CASES)
def test_expansions_store_the_normal_form_and_round_trip(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(13 * m + len(field))
    for x in elements(algebra, rng):
        for cls, expand, reconstruct, reference in EXPANSIONS:
            expansion = expand(x)
            assert type(expansion) is cls and expansion.m == m
            assert_lowest_terms(expansion.nums, expansion.den, field)
            assert reconstruct(algebra, expansion) == x
            want = reference(x)
            assert expansion == want
            # the view keeps the per-word loops' values, types and key order
            view = expansion.coefficients
            assert typed_items(view) == typed_items(want.coefficients)
            assert all(type(v) is (Fraction if field == "Q" else QI) for v in view.values())


@pytest.mark.parametrize("m, field", CASES)
def test_field_values_and_numerators_give_one_form(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(17 * m + len(field))
    for x in elements(algebra, rng):
        for cls, expand, _reconstruct, _reference in EXPANSIONS:
            expansion = expand(x)
            built = [
                cls(m, expansion.coefficients),
                cls(m, {**expansion.coefficients, **{key: 0 for key in list(expansion.nums)[:2]}}),
                cls.from_numerators(m, dict(expansion.nums), expansion.den),
                cls.from_numerators(m, {k: 6 * v for k, v in expansion.nums.items()}, 6 * expansion.den),
            ]
            for other in built[:1] + built[2:]:
                assert other == expansion
                assert list(other.nums.items()) == list(expansion.nums.items())
                assert other.den == expansion.den
            assert_lowest_terms(built[1].nums, built[1].den, field)


def test_numerator_constructor_reduces_expansions_to_lowest_terms():
    gamma = GammaExpansion.from_numerators(2, {(1,): 6, (2, 3): -10}, 4)
    assert gamma.nums == {(1,): 3, (2, 3): -5} and gamma.den == 2
    assert gamma.coefficients == {(1,): Fraction(3, 2), (2, 3): Fraction(-5, 2)}
    word = witt_word(2, ((1, "q"),), ((2, "pq"),))
    witt = WittExpansion.from_numerators(2, {word: GaussInt(6, 4), witt_word(2, (), ()): 2}, 8)
    assert witt.nums == {word: GaussInt(3, 2), witt_word(2, (), ()): 1} and witt.den == 4
    for cls in (GammaExpansion, WittExpansion):
        for zero in (cls(3, {}), cls(3, {(): 0}), cls.from_numerators(3, {}, 12)):
            assert zero.nums == {} and zero.den == 1 and zero.coefficients == {}
    assert GammaExpansion(1, {}) != WittExpansion(1, {})
    assert GammaExpansion(1, {}) != GammaExpansion(2, {})


def test_coefficients_is_a_view_built_per_read():
    expansion = GammaExpansion(2, {(2,): Fraction(1, 2), (1,): Fraction(-2, 3)})
    assert expansion.nums == {(2,): 3, (1,): -4} and expansion.den == 6
    view = expansion.coefficients
    assert view == {(2,): Fraction(1, 2), (1,): Fraction(-2, 3)}
    assert list(view) == [(2,), (1,)]
    assert view is not expansion.coefficients
    view[(3,)] = Fraction(5)
    assert (3,) not in expansion.coefficients
    with pytest.raises(AttributeError):
        expansion.coefficients = {}


@pytest.mark.parametrize("m", range(1, 5))
def test_real_values_reconstruct_over_qi(m):
    """An expansion built from real values holds ints, which both
    reconstructions take over Q(i) as they take the same values as QI."""
    algebra = Algebra(m, "Qi")
    rng = random.Random(23 * m)
    x = rand_element(Algebra(m, "Q"), rng, terms=6)
    for cls, expand, reconstruct, _reference in EXPANSIONS:
        real = cls(m, expand(x).coefficients)
        assert all(type(num) is int for num in real.nums.values())
        complex_ = cls(m, {key: QI(v) for key, v in real.coefficients.items()})
        assert all(type(num) is GaussInt for num in complex_.nums.values())
        assert real == complex_
        rebuilt = reconstruct(algebra, real)
        assert_stored_form(rebuilt)
        assert rebuilt == reconstruct(algebra, complex_)
        assert rebuilt.terms == x.terms
        # a real-valued QI reconstructs over Q; a nonreal one does not
        assert reconstruct(Algebra(m, "Q"), complex_) == x
        key = () if cls is GammaExpansion else witt_word(m, (), [(i, "qp") for i in range(1, m + 1)])
        with pytest.raises(FieldMismatchError):
            reconstruct(Algebra(m, "Q"), cls(m, {key: QI(1, 1)}))
