from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffordefb.scalars import (
    FIELD_Q,
    FIELD_QI,
    QI,
    GaussInt,
    coerce,
    format_numerator,
    format_scalar,
    from_integer,
    parse_numerator,
    parse_scalar,
    random_scalar,
    star,
)
from cliffordefb.errors import FieldMismatchError, MalformedInputError

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
gaussians = st.builds(QI, fractions, fractions)


@settings(max_examples=100, derandomize=True)
@given(gaussians, gaussians, gaussians)
def test_qi_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + QI() == x
    assert x * QI(1) == x
    if x:
        assert x * (QI(1) / x) == QI(1)


@settings(max_examples=100, derandomize=True)
@given(gaussians)
def test_star_involution(x):
    assert star(star(x)) == x
    assert star(x) * x == QI(x.re * x.re + x.im * x.im)


def test_star_identity_on_rationals():
    assert star(Fraction(3, 7)) == Fraction(3, 7)


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(1, 2), "1/2"),
        (Fraction(-3), "-3"),
        (Fraction(0), "0"),
        (QI(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4 i"),
        (QI(Fraction(-1, 2), Fraction(-3, 4)), "-1/2-3/4 i"),
        (QI(0, 1), "0+1 i"),
        (QI(Fraction(5, 3), 0), "5/3"),
    ],
)
def test_format_scalar(value, expected):
    assert format_scalar(value) == expected


@settings(max_examples=200, derandomize=True)
@given(
    st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30),
    st.integers(1, 10**12),
    st.booleans(),
)
def test_a_numerator_over_its_denominator_formats_as_its_field_value(re, im, den, gaussian):
    """Each part is reduced on its own, as the field value's parts are."""
    num = GaussInt(re, im) if gaussian else re
    assert format_numerator(num, den) == format_scalar(from_integer(num, den))
    assert format_numerator(num * 6, den * 6) == format_numerator(num, den)


@settings(max_examples=80, derandomize=True)
@given(gaussians)
def test_parse_round_trip_qi(x):
    assert parse_scalar(format_scalar(x), FIELD_QI) == x


@settings(max_examples=80, derandomize=True)
@given(fractions)
def test_parse_round_trip_q(x):
    assert parse_scalar(format_scalar(x), FIELD_Q) == x


def test_parse_rejects_junk():
    with pytest.raises(MalformedInputError):
        parse_scalar("3/4/5", FIELD_Q)
    with pytest.raises(MalformedInputError):
        parse_scalar("1/0", FIELD_Q)


@pytest.mark.parametrize(
    "text, field, reason",
    [
        ("1" * 5000 + "/0", FIELD_QI, "too many digits"),
        ("1" * 5000 + "/0", FIELD_Q, "too many digits"),
        ("1+" + "1" * 5000 + "/0 i", FIELD_QI, "too many digits"),
        ("1/0+" + "1" * 5000 + " i", FIELD_QI, "zero denominator"),
    ],
    ids=["long-re-over-0-Qi", "long-over-0-Q", "long-im-over-0-Qi", "re-over-0-long-im-Qi"],
)
def test_both_parsers_reject_a_literal_with_one_message(text, field, reason):
    """Each part's numerator digits are read before its denominator, by the
    one parser that both entry points share."""
    messages = []
    for parse in (parse_scalar, parse_numerator):
        with pytest.raises(MalformedInputError) as info:
            parse(text, field)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(reason)


def test_coerce_rejects_cross_field():
    with pytest.raises(FieldMismatchError):
        coerce(QI(0, 1), FIELD_Q)
    assert coerce(QI(3, 0), FIELD_Q) == Fraction(3)
    assert coerce(Fraction(2, 5), FIELD_QI) == QI(Fraction(2, 5))


def test_random_scalar_height_bound(rng):
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(200):
            x = random_scalar(rng, field, nonzero=True, height=100)
            assert x
            parts = (x.re, x.im) if isinstance(x, QI) else (x,)
            for p in parts:
                assert abs(p.numerator) <= 100 and p.denominator <= 100


def test_gauss_int_hash_agrees_with_equality():
    assert hash(GaussInt(3, 0)) == hash(3) and GaussInt(3, 0) == 3
    assert hash(GaussInt(-7, 0)) == hash(-7)
    routes = [
        GaussInt(2, -3),
        GaussInt(1, 1) * GaussInt(-1, -5) // 2,
        GaussInt(5, -3) + -3,
        GaussInt(4, -6) // 2,
        -GaussInt(-2, 3),
        GaussInt(1, 0) + GaussInt(1, -3),
    ]
    assert all(g == routes[0] for g in routes)
    assert len({hash(g) for g in routes}) == 1
    assert len({GaussInt(5, 0), 5, GaussInt(2, 1), GaussInt(2, 1) * 1}) == 2


def test_gauss_int_mixes_with_plain_ints():
    g = GaussInt(5, -3)
    assert g - 3 == GaussInt(2, -3) and type(g - 3) is GaussInt
    assert 3 - g == GaussInt(-2, 3) and type(3 - g) is GaussInt
    assert g + 3 == 3 + g == GaussInt(8, -3)
    assert g * 2 == 2 * g == GaussInt(10, -6)
    assert g - 3 + 3 == g and g - -3 == g + 3
    assert GaussInt(0, 0) - 7 == -7
