"""The stored form of an element: integer numerators over one denominator.

``AlgebraElement.nums`` maps (a, b) to a nonzero int (a ``GaussInt`` over
Q(i)) and ``den`` is a positive int sharing no factor with every numerator
part, so equal elements store the same form whatever route built them, and
``==`` and ``hash`` read it.  ``terms`` is a field-value view built per read.
The gamma and Witt expansions store the same form keyed by their words, and
``coefficients`` is their view.  A Witt vector stores its nonzero
coordinates keyed by index (j < m for alpha, m + j for beta) the same way,
with ``alpha``, ``beta`` and ``coords()`` as views, and a spinor its Fock
coordinates keyed by amask, with ``xi`` and ``coords()``.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from cliffordefb import Algebra, AlgebraElement, serialize
from cliffordefb.bilinear import (
    GammaExpansion,
    WittExpansion,
    WittWord,
    expand_gamma,
    expand_witt,
    reconstruct_gamma,
    reconstruct_witt,
    rep_context,
)
from cliffordefb.errors import DimensionError, FieldMismatchError
from cliffordefb.sampling import (
    rand_element,
    rand_null_vector,
    rand_simple_spinor,
    rand_spinor,
    rand_vector,
)
from cliffordefb.scalars import QI, GaussInt, from_integer
from cliffordefb.spinors import Spinor, annihilator, vector_act
from cliffordefb.vectors import (
    C_element,
    WittVector,
    conj_element,
    conj_vector,
    embed,
    gamma_vector,
    p_vector,
)

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
                cls(algebra, expansion.coefficients),
                cls(algebra, {**expansion.coefficients, **{key: 0 for key in list(expansion.nums)[:2]}}),
                cls.from_numerators(algebra, dict(expansion.nums), expansion.den),
                cls.from_numerators(
                    algebra, {k: 6 * v for k, v in expansion.nums.items()}, 6 * expansion.den
                ),
            ]
            for other in built[:1] + built[2:]:
                assert other == expansion
                assert list(other.nums.items()) == list(expansion.nums.items())
                assert other.den == expansion.den
            assert_lowest_terms(built[1].nums, built[1].den, field)


def test_numerator_constructor_reduces_expansions_to_lowest_terms():
    gamma = GammaExpansion.from_numerators(Algebra(2), {(1,): 6, (2, 3): -10}, 4)
    assert gamma.nums == {(1,): 3, (2, 3): -5} and gamma.den == 2
    assert gamma.coefficients == {(1,): Fraction(3, 2), (2, 3): Fraction(-5, 2)}
    word, empty = witt_word(2, ((1, "q"),), ((2, "pq"),)), witt_word(2, (), ())
    witt = WittExpansion.from_numerators(
        Algebra(2, "Qi"), {word: GaussInt(6, 4), empty: GaussInt(2, 0)}, 8
    )
    assert witt.nums == {word: GaussInt(3, 2), empty: GaussInt(1, 0)} and witt.den == 4
    for cls, unit in ((GammaExpansion, ()), (WittExpansion, witt_word(3, (), ()))):
        algebra = Algebra(3)
        for zero in (cls(algebra, {}), cls(algebra, {unit: 0}), cls.from_numerators(algebra, {}, 12)):
            assert zero.nums == {} and zero.den == 1 and zero.coefficients == {}
            assert zero.m == 3
    assert GammaExpansion(Algebra(1), {}) != WittExpansion(Algebra(1), {})
    assert GammaExpansion(Algebra(1), {}) != GammaExpansion(Algebra(2), {})
    assert GammaExpansion(Algebra(1), {}) != GammaExpansion(Algebra(1, "Qi"), {})


def test_coefficients_is_a_view_built_per_read():
    expansion = GammaExpansion(Algebra(2), {(2,): Fraction(1, 2), (1,): Fraction(-2, 3)})
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
def test_real_values_and_qi_give_one_form_over_qi(m):
    """Over Q(i), real values given as ints or Fractions and the same values
    as QI build one expansion of ``GaussInt`` numerators, which reconstructs
    the element that the expansion of the same terms does."""
    algebra = Algebra(m, "Qi")
    rng = random.Random(23 * m)
    x = rand_element(Algebra(m, "Q"), rng, terms=6)
    mu = AlgebraElement(algebra, x.terms)
    for cls, expand, reconstruct, _reference in EXPANSIONS:
        values = expand(x).coefficients
        ints = {key: 3 * i + 1 for i, key in enumerate(values)}
        for real in (values, ints):
            built = cls(algebra, real)
            assert all(type(num) is GaussInt for num in built.nums.values())
            assert_stored_form(built)
            assert built == cls(algebra, {key: QI(v) for key, v in real.items()})
        assert cls(algebra, values) == expand(mu)
        assert reconstruct(algebra, cls(algebra, values)) == mu


@pytest.mark.parametrize("m", range(1, 5))
def test_a_nonreal_value_cannot_build_a_q_expansion(m):
    algebra = Algebra(m, "Q")
    for cls, _expand, reconstruct, _reference in EXPANSIONS:
        # a key that both reconstructions read
        key = () if cls is GammaExpansion else witt_word(m, (), [(i, "qp") for i in range(1, m + 1)])
        with pytest.raises(FieldMismatchError):
            cls(algebra, {key: QI(1, 1)})
        # a real-valued QI is a rational
        real = cls(algebra, {key: QI(Fraction(1, 2))})
        assert real.nums == {key: 1} and real.den == 2
        assert reconstruct(algebra, real) == reconstruct(algebra, cls(algebra, {key: Fraction(1, 2)}))


# -- Witt vectors and spinors -----------------------------------------------------


def witt_vectors(algebra, rng):
    """Random vectors, with cancelling sums, zero scalings and unit vectors."""
    m = algebra.m
    out = [WittVector(algebra, enumerate([0] * 2 * m)), p_vector(algebra, m), gamma_vector(algebra, 2 * m)]
    out += [rand_vector(algebra, rng, height=h) for h in (1, 9, 60)]
    out.append(rand_null_vector(algebra, rng))
    v = out[-2]
    out += [v - v, v * 0, v * Fraction(6, 35), -v, conj_vector(v)]
    return out


def spinors(algebra, rng):
    """Random spinors, with cancelling sums, zero scalings and Fock spinors."""
    out = [Spinor.zero(algebra), Spinor.fock(algebra, 1 % (1 << algebra.m), Fraction(-3, 4))]
    out += [rand_spinor(algebra, rng, density=d, height=h) for d in (0.3, 1.0) for h in (1, 9)]
    out.append(rand_simple_spinor(algebra, rng))
    s = out[-2]
    out += [s - s, s.scale(0), s.scale(Fraction(6, 35)), -s]
    return out


def assert_vector_form(v):
    assert_stored_form(v)
    assert set(v.nums) <= set(range(2 * v.algebra.m))


@pytest.mark.parametrize("m, field", CASES)
def test_every_route_stores_the_vector_and_spinor_form(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(29 * m + len(field))
    vs = witt_vectors(algebra, rng)
    for v in vs:
        u = vs[rng.randrange(len(vs))]
        built = [
            v, WittVector(algebra, enumerate(v.coords())),
            WittVector.from_numerators(algebra, {j: 6 * x for j, x in v.nums.items()}, 6 * v.den),
            v + u, v - u, -v, v * Fraction(-4, 9), conj_vector(v),
            serialize.witt_vector_from_json(serialize.witt_vector_to_json(v), algebra),
        ]
        for w in built:
            assert_vector_form(w)
    ss = spinors(algebra, rng)
    for s in ss:
        t = ss[rng.randrange(len(ss))]
        built = [
            s, Spinor(algebra, s.xi),
            Spinor.from_numerators(algebra, {a: 6 * x for a, x in s.nums.items()}, 6 * s.den),
            s + t, s - t, -s, s.scale(Fraction(-4, 9)), Spinor.from_element(s.to_element()),
            serialize.spinor_from_json(serialize.spinor_to_json(s), algebra),
            vector_act(vs[rng.randrange(len(vs))], s),
        ]
        for w in built:
            assert_stored_form(w)
        if s:
            for w in annihilator(s):
                assert_vector_form(w)


@pytest.mark.parametrize("m, field", CASES)
def test_equal_vectors_and_spinors_have_one_form_and_one_hash(m, field):
    algebra = Algebra(m, field)
    rng = random.Random(31 * m + len(field))
    for v in witt_vectors(algebra, rng):
        u = rand_vector(algebra, rng, height=5)
        routes = [
            WittVector(algebra, enumerate([*v.alpha, *v.beta])),
            WittVector.from_numerators(algebra, {j: 6 * x for j, x in v.nums.items()}, 6 * v.den),
            (v + u) - u,
            v * 7 * Fraction(1, 7),
            v * Fraction(2, 3) + v * Fraction(1, 3),
            conj_vector(conj_vector(v)),
            serialize.witt_vector_from_json(serialize.witt_vector_to_json(v), algebra),
        ]
        for w in routes:
            assert w == v and hash(w) == hash(v)
            assert (w.nums, w.den) == (v.nums, v.den)
    for s in spinors(algebra, rng):
        t = rand_spinor(algebra, rng, height=5)
        routes = [
            Spinor(algebra, s.xi),
            Spinor.from_numerators(algebra, {a: 6 * x for a, x in s.nums.items()}, 6 * s.den),
            (s + t) - t,
            s.scale(7).scale(Fraction(1, 7)),
            s.scale(Fraction(2, 3)) + s.scale(Fraction(1, 3)),
            Spinor.from_element(s.to_element()),
            serialize.spinor_from_json(serialize.spinor_to_json(s), algebra),
        ]
        for w in routes:
            assert w == s and hash(w) == hash(s)
            assert (w.nums, w.den) == (s.nums, s.den)


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_elements_vectors_and_spinors_do_not_add(field):
    """An element, a Witt vector and a spinor share the stored form but not
    their keys: adding or subtracting two of them in either order raises, and
    neither is changed."""
    algebra = Algebra(3, field)
    x, v, s = algebra.identity(), p_vector(algebra, 1), Spinor.fock(algebra, 3, 5)
    for left, right in [(x, s), (s, x), (v, s), (s, v), (v, x), (x, v)]:
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right
    assert x == algebra.identity() and v == p_vector(algebra, 1)
    assert s == Spinor.fock(algebra, 3, 5)


@pytest.mark.parametrize("field, want", [("Q", Fraction), ("Qi", QI)])
def test_vector_and_spinor_views_keep_types_and_key_order(field, want):
    algebra = Algebra(3, field)
    rng = random.Random(37)
    for v in witt_vectors(algebra, rng):
        alpha, beta, coords = v.alpha, v.beta, v.coords()
        assert type(alpha) is tuple and type(beta) is tuple and type(coords) is list
        assert list(alpha) + list(beta) == coords
        assert all(type(x) is want for x in coords)
        assert coords == [from_integer(v.nums.get(j, 0), v.den) for j in range(6)]
    for s in spinors(algebra, rng):
        xi, dense = s.xi, s.coords()
        assert list(xi) == list(s.nums)
        assert all(type(x) is want for x in xi.values()) and all(type(x) is want for x in dense)
        assert dense == [xi.get(a, 0) for a in range(8)]
    # the public constructor keeps the given key order, zeros dropped
    s = Spinor(algebra, {5: Fraction(1, 2), 0: 0, 3: Fraction(-2, 3), 1: 4})
    assert list(s.xi) == [5, 3, 1] and s.nums == {5: 3, 3: -4, 1: 24} and s.den == 6
    assert type(s.nums[5]) is (int if field == "Q" else GaussInt)
    view = s.xi
    view[2] = Fraction(1)
    assert 2 not in s.xi and view is not s.xi
    with pytest.raises(AttributeError):
        s.xi = {}
    v = WittVector(algebra, enumerate([Fraction(1, 2), 0, 3, 0, Fraction(-1, 4), 0]))
    assert v.nums == {j: GaussInt(x, 0) if field == "Qi" else x for j, x in ((0, 2), (2, 12), (4, -1))}
    assert list(v.nums) == [0, 2, 4] and v.den == 4
    with pytest.raises(AttributeError):
        v.alpha = ()


def test_numerator_constructors_and_parsers_reduce_to_lowest_terms():
    algebra = Algebra(2, "Q")
    v = WittVector.from_numerators(algebra, {0: 6, 2: -10, 3: 4}, 4)
    assert v.nums == {0: 3, 2: -5, 3: 2} and v.den == 2
    assert WittVector.from_numerators(algebra, {}, 12).den == 1
    s = Spinor.from_numerators(algebra, {3: 6, 0: -10}, 4)
    assert s.nums == {3: 3, 0: -5} and s.den == 2 and list(s.xi) == [3, 0]
    assert Spinor.from_numerators(algebra, {}, 12).den == 1
    parsed = serialize.witt_vector_from_json({"alpha": ["2/4", "0"], "beta": ["-3/6", "5/10"]}, algebra)
    assert parsed.nums == {0: 1, 2: -1, 3: 1} and parsed.den == 2
    parsed = serialize.spinor_from_json({"m": 2, "xi": {"2": "4/6", "1": "0", "0": "-2/6"}}, algebra)
    assert parsed.nums == {2: 2, 0: -1} and parsed.den == 3
    algebra = Algebra(2, "Qi")
    v = WittVector.from_numerators(algebra, {0: GaussInt(6, 4), 2: GaussInt(0, 2), 3: GaussInt(2, 0)}, 8)
    assert v.nums == {0: GaussInt(3, 2), 2: GaussInt(0, 1), 3: GaussInt(1, 0)} and v.den == 4
    assert v.alpha == (QI(Fraction(3, 4), Fraction(1, 2)), QI(0))
    parsed = serialize.spinor_from_json({"m": 2, "xi": {"3": "1/2+2/4 i", "1": "0", "2": "0-1/3 i"}}, algebra)
    assert parsed.nums == {3: GaussInt(3, 3), 2: GaussInt(0, -2)} and parsed.den == 6
    parsed = serialize.witt_vector_from_json({"alpha": ["0+2/4 i", "0"], "beta": ["1", "1/3-1/3 i"]}, algebra)
    assert parsed.nums == {0: GaussInt(0, 3), 2: GaussInt(6, 0), 3: GaussInt(2, -2)}
    assert parsed.den == 6 and list(parsed.nums) == [0, 2, 3]
    conj = conj_vector(parsed)
    assert conj.nums == {0: GaussInt(6, 0), 1: GaussInt(2, 2), 2: GaussInt(0, -3)}
    assert list(conj.nums) == [0, 1, 2]


def test_element_constructor_rejects_a_word_out_of_range():
    """At m = 2 a word is a pair of masks in 0..3; anything else raises,
    zero coefficient or not, and the edge words still build."""
    algebra = Algebra(2)
    for key in [(9, 9), (4, 0), (0, -1), (1,), (1, 2, 3), 3, (True, 0), (1.0, 0)]:
        for coeff in (1, 0):
            with pytest.raises(DimensionError):
                AlgebraElement(algebra, {key: coeff})
    assert AlgebraElement(algebra, {(3, 0): 2, (0, 3): 1}).nums == {(3, 0): 2, (0, 3): 1}


def test_spinor_constructor_rejects_an_amask_out_of_range():
    """At m = 2 an amask is an int in 0..3; 7 used to make vector_act raise
    IndexError."""
    algebra = Algebra(2)
    for key in [7, 4, -1, True, "1", (0, 3)]:
        with pytest.raises(DimensionError):
            Spinor(algebra, {key: 1})
    assert Spinor(algebra, {3: 1}) == Spinor.fock(algebra, 3)
    with pytest.raises(DimensionError):
        Spinor.from_coords(algebra, [0, 0, 0, 0, 1])


def test_vector_constructor_rejects_a_coordinate_index_out_of_range():
    """At m = 2 a coordinate index is an int in 0..3; 7 used to make a
    nonzero vector with all-zero coords() on which embed raised IndexError."""
    algebra = Algebra(2)
    for key in [7, 4, -1, True, "0"]:
        with pytest.raises(DimensionError):
            WittVector(algebra, {key: 1})
    v = WittVector(algebra, {3: 1})
    assert v.coords() == [0, 0, 0, 1] and embed(v) == embed(WittVector.from_numerators(algebra, {3: 1}))


def test_gamma_expansion_constructor_rejects_a_key_out_of_range():
    """At m = 2 a key is a tuple of gamma indices in 1..4, in any order and
    repeated or not; a string key used to build an expansion on which
    reconstruct_gamma raised TypeError."""
    algebra = Algebra(2)
    for key in ["x", (0,), (5,), (1, 9), (1, True), (1.0,), 1]:
        with pytest.raises(DimensionError):
            GammaExpansion(algebra, {key: 1})
    expansion = GammaExpansion(algebra, {(): 1, (4, 1): 2, (2, 2, 3): Fraction(1, 3)})
    assert (expansion.nums, expansion.den) == ({(): 3, (4, 1): 6, (2, 2, 3): 1}, 3)
    assert reconstruct_gamma(algebra, expansion) == algebra.identity() + reconstruct_gamma(
        algebra, GammaExpansion(algebra, {(4, 1): 2, (2, 2, 3): Fraction(1, 3)})
    )


def test_witt_expansion_constructor_rejects_a_word_out_of_range():
    """At m = 2 a key is a WittWord of m = 2 with masks in 0..3, disjoint
    singles and couples, and h-bits only on their sites; a tuple key used
    to build an expansion on which reconstruct_witt raised AttributeError."""
    algebra = Algebra(2)
    for key in [
        (1, 2),
        (2, 2, 0, 0),
        WittWord(3, 0b10, 0b01, 0),
        WittWord(2, 0b100, 0, 0),
        WittWord(2, -1, 0, 0),
        WittWord(2, 0b10, 0b10, 0),
        WittWord(2, 0b10, 0b00, 0b01),
        WittWord(2, True, 0, 0),
    ]:
        with pytest.raises(DimensionError):
            WittExpansion(algebra, {key: 1})
    full = WittWord(2, 0b10, 0b01, 0b11)
    expansion = WittExpansion(algebra, {full: 2, WittWord(2, 0b01, 0, 0): 1})
    assert reconstruct_witt(algebra, expansion) == AlgebraElement(algebra, {(0b11, 0b01): 2})
