"""Exact scalar fields: rationals Q and Gaussian rationals Q(i).

Real scalars are plain ``fractions.Fraction``; complex mode uses ``QI``, a
pair of Fractions.  The field is chosen per algebra context (the ``field``
tag "Q" or "Qi"), never per scalar.  ``star`` is the coefficient conjugation:
the identity on Q, complex conjugation on Q(i).

The exact kernels (elimination, the Fock action, Gram checks, the EFB
product, the gamma and standard-frame Witt expansions) run on integer
numerators over one denominator instead (``GaussInt`` over Q(i)), the form
every stored object keeps (README, "Stored form").  This module holds that
form's arithmetic, once: ``to_numerator`` turns one scalar into a
(numerator, denominator) pair, ``parse_numerator`` reads a literal (the
one parser: ``parse_scalar`` is its field value) and ``random_numerator``
draws one; ``common_denominator`` writes pairs over
their least common denominator, and ``to_integers`` does so for field
values; ``lowest_terms`` divides out the common factor; ``add_numerators``
sums two keyed forms; ``from_integer`` turns a numerator and denominator
back into a field value when a result is emitted.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatchError, MalformedInputError, quote_input

FIELD_Q = "Q"
FIELD_QI = "Qi"
FIELDS = (FIELD_Q, FIELD_QI)

Scalar = object  # Fraction or QI, depending on field mode


class QI:
    """Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QI values are immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, QI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_qi(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_qi(other)
        return QI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_qi(other) - self

    def __mul__(self, other):
        other = _as_qi(other)
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qi(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return _as_qi(other) / self

    def conjugate(self):
        return QI(self.re, -self.im)

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _as_qi(x) -> QI:
    if isinstance(x, QI):
        return x
    if isinstance(x, (int, Fraction)):
        return QI(x)
    if isinstance(x, GaussInt):
        return QI(x.re, x.im)
    raise TypeError(f"cannot coerce {type(x).__name__} to QI")


class GaussInt:
    """Gaussian integer re + im*i with int parts: a Q(i) numerator over a
    common integer denominator.  Mixes with plain ints."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, GaussInt):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        """Equal to the int's hash for a real value, as equality is."""
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if isinstance(other, int):
            return GaussInt(self.re + other, self.im)
        return GaussInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return GaussInt(self.re - other, self.im)
        return GaussInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: int):
        return GaussInt(other - self.re, -self.im)

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussInt(self.re * other, self.im * other)
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __floordiv__(self, other):
        """Exact quotient: the caller guarantees divisibility."""
        if isinstance(other, int):
            return GaussInt(self.re // other, self.im // other)
        n = other.re * other.re + other.im * other.im
        return GaussInt(
            (self.re * other.re + self.im * other.im) // n,
            (self.im * other.re - self.re * other.im) // n,
        )

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"


def common_denominator(pairs) -> tuple[list, int]:
    """(numerator, positive denominator) pairs as numerators over their
    least common denominator L: ``(nums, L)`` with num / L = each pair."""
    pairs = list(pairs)
    den = lcm(*[d for _n, d in pairs])
    if den == 1:
        return [n for n, _d in pairs], 1
    return [n * (den // d) for n, d in pairs], den


def to_integers(values, gaussian: bool) -> tuple[list, int]:
    """Field values as numerators over their least common denominator L:
    ``(nums, L)`` with value = num / L; ints over Q, ``GaussInt`` over Q(i)."""
    if gaussian:
        return common_denominator([to_numerator(v, FIELD_QI) for v in values])
    return common_denominator([(v.numerator, v.denominator) for v in values])


def to_numerator(value, field: str) -> tuple[object, int]:
    """A scalar coerced into the field, as (numerator, positive denominator)
    in lowest terms: an int over a Fraction's denominator, a ``GaussInt``
    over the least common denominator of a QI's parts."""
    value = coerce(value, field)
    if field == FIELD_QI:
        re, im = value.re, value.im
        return _gaussian(re.numerator, re.denominator, im.numerator, im.denominator)
    return value.numerator, value.denominator


def _gaussian(re: int, re_den: int, im: int, im_den: int) -> tuple[GaussInt, int]:
    """re / re_den + (im / im_den) i as a ``GaussInt`` over lcm(re_den, im_den)."""
    den = lcm(re_den, im_den)
    return GaussInt(re * (den // re_den), im * (den // im_den)), den


def lowest_terms(nums, den: int, gaussian: bool):
    """nums / den in lowest terms, as ``(nums, den)``: a dict of numerators
    (ints, or over Q(i) ``GaussInt`` with ints among them) and a positive
    den, divided by the gcd of den and every numerator part; the same nums
    object when that gcd is 1."""
    if den == 1:
        return nums, 1
    values = nums.values()
    if gaussian:
        g = gcd(den, *[p for v in values for p in ((v.re, v.im) if type(v) is GaussInt else (v,))])
    else:
        g = gcd(den, *values)
    if g == 1:
        return nums, den
    return {key: v // g for key, v in nums.items()}, den // g


def add_numerators(x: dict, x_den: int, y: dict, y_den: int) -> tuple[dict, int]:
    """x / x_den + y / y_den for dicts of nonzero numerators: a new dict of
    the nonzero sums over the least common denominator, x's keys first, and
    that denominator (not reduced)."""
    den = x_den
    if den == y_den:
        acc = dict(x)
        y_items = y.items()
    else:
        den = lcm(x_den, y_den)
        s, t = den // x_den, den // y_den
        acc = {key: v * s for key, v in x.items()}
        y_items = [(key, v * t) for key, v in y.items()]
    for key, num in y_items:
        val = acc.get(key)
        val = num if val is None else val + num
        if val:
            acc[key] = val
        elif key in acc:
            del acc[key]
    return acc, den


def from_integer(num, den: int):
    """num / den as a field value for a nonzero int den: a Fraction for an
    int num, a QI for a ``GaussInt``."""
    if isinstance(num, GaussInt):
        return QI(Fraction(num.re, den), Fraction(num.im, den))
    return Fraction(num, den)


def check_field(field: str) -> str:
    if field not in FIELDS:
        raise FieldMismatchError(
            f"unknown field {quote_input(field)}; expected one of {FIELDS}"
        )
    return field


def zero(field: str):
    return QI() if field == FIELD_QI else Fraction(0)


def one(field: str):
    return QI(1) if field == FIELD_QI else Fraction(1)


def coerce(x, field: str):
    """Coerce an int/Fraction/QI into the given field, rejecting cross-field input."""
    if field == FIELD_QI:
        return _as_qi(x)
    if isinstance(x, QI):
        if x.im != 0:
            raise FieldMismatchError("complex scalar used in real field mode")
        return x.re
    return x if type(x) is Fraction else Fraction(x)


def star(x):
    """Coefficient conjugation: identity on Q, complex conjugation on Q(i)."""
    if isinstance(x, QI):
        return x.conjugate()
    return x


def format_scalar(x) -> str:
    """Canonical string form: "p/q" for rationals, "p/q+r/s i" for Q(i)."""
    return format_numerator(*to_numerator(x, FIELD_QI if isinstance(x, QI) else FIELD_Q))


def format_numerator(num, den: int) -> str:
    """num / den in the canonical string form of ``format_scalar``, for an
    int or ``GaussInt`` numerator over a positive int den: each part is put
    in lowest terms on its own, so a stored form is written without
    building a field value."""
    if type(num) is GaussInt:
        text = _format_part(num.re, den)
        if num.im:
            sign = "+" if num.im > 0 else "-"
            return f"{text}{sign}{_format_part(abs(num.im), den)} i"
        return text
    return _format_part(num, den)


def _format_part(num: int, den: int) -> str:
    """The int num / den in lowest terms as "p/q", or "p" when q = 1."""
    if den != 1:
        part, den = lowest_terms({0: num}, den, False)
        num = part[0]
    return str(num) if den == 1 else f"{num}/{den}"


_RATIONAL = r"([+-]?\d+)(?:/(\d+))?"
_RATIONAL_RE = re.compile(_RATIONAL, re.ASCII)
_COMPLEX_RE = re.compile(_RATIONAL + r"(?:([+-])(\d+)(?:/(\d+))? i)?", re.ASCII)


def _denominator(den: str | None) -> int:
    d = int(den) if den else 1
    if not d:
        raise ZeroDivisionError
    return d


def _literal_groups(text: str, field: str) -> tuple:
    """The regex groups of a literal in the canonical form: "p/q" or, over
    Q(i), "p/q+r/s i" / "p/q-r/s i", in ASCII digits.  Anything else
    (exponents, decimals, "_", other digits, whitespace) is malformed."""
    match = (_COMPLEX_RE if field == FIELD_QI else _RATIONAL_RE).fullmatch(text)
    if match is None:
        raise MalformedInputError(
            f"bad scalar literal {quote_input(text)}: expected p/q or p/q+r/s i"
        )
    return match.groups()


def _bad_literal(text: str, exc: Exception) -> MalformedInputError:
    """A matched literal that names no value: a zero denominator, or more
    digits than the interpreter converts.  At most ``errors.QUOTE_LIMIT``
    characters of the literal are quoted."""
    reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else "too many digits"
    return MalformedInputError(f"bad scalar literal {quote_input(text)}: {reason}")


def parse_scalar(text: str, field: str):
    """Parse the canonical string form back into a field element."""
    return from_integer(*parse_numerator(text, field))


def parse_numerator(text: str, field: str) -> tuple[object, int]:
    """The canonical string form as (numerator, positive denominator), not
    necessarily in lowest terms: an int over Q, a ``GaussInt`` over Q(i).
    Each part's numerator digits are read before its denominator."""
    groups = _literal_groups(text, field)
    try:
        if field != FIELD_QI:
            return int(groups[0]), _denominator(groups[1])
        re_num, re_den, sign, im_num, im_den = groups
        real, re_den = int(re_num), _denominator(re_den)
        if not sign:
            return GaussInt(real, 0), re_den
        return _gaussian(real, re_den, int(sign + im_num), _denominator(im_den))
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad_literal(text, exc) from exc


def random_numerator(rng, field: str, nonzero: bool = False, height: int = 100):
    """A small-height random scalar as (numerator, positive denominator), not
    necessarily in lowest terms; height bounds keep exact elimination fast."""
    def _part(force_nonzero):
        num = rng.randint(1 if force_nonzero else 0, height)
        if num and rng.random() < 0.5:
            num = -num
        return num, rng.randint(1, height)

    if field == FIELD_QI:
        (re, re_den), (im, im_den) = _part(False), _part(False)
        if nonzero and not re and not im:
            re, re_den = _part(True)
        return _gaussian(re, re_den, im, im_den)
    return _part(nonzero)


def random_scalar(rng, field: str, nonzero: bool = False, height: int = 100):
    """The draw of ``random_numerator`` as a field value."""
    return from_integer(*random_numerator(rng, field, nonzero, height))
