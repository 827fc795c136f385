"""The stored form of an element: integer numerators over one denominator.

``AlgebraElement.nums`` maps (a, b) to a nonzero int (a ``GaussInt`` over
Q(i)) and ``den`` is a positive int sharing no factor with every numerator
part, so equal elements store the same form whatever route built them, and
``==`` and ``hash`` read it.  ``terms`` is a field-value view built per read.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from cliffordefb import Algebra, AlgebraElement, serialize
from cliffordefb.bilinear import (
    expand_gamma,
    expand_witt,
    reconstruct_gamma,
    reconstruct_witt,
    rep_context,
)
from cliffordefb.sampling import rand_element
from cliffordefb.scalars import QI, GaussInt
from cliffordefb.vectors import C_element, conj_element, embed, gamma_vector

CASES = [(m, field) for m in range(1, 5) for field in ("Q", "Qi")]


def assert_stored_form(x):
    assert type(x.den) is int and x.den > 0
    want = int if x.algebra.field == "Q" else GaussInt
    assert all(type(num) is want and num for num in x.nums.values())
    if x.algebra.field == "Q":
        parts = list(x.nums.values())
    else:
        parts = [p for num in x.nums.values() for p in (num.re, num.im)]
    assert gcd(x.den, *parts) == 1
    if not x.nums:
        assert x.den == 1


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
