"""Core of the extended Fock basis (EFB) for Cl(m,m).

Basis words and indexing
------------------------
An EFB word is psi_1 psi_2 ... psi_m with the site-i letter psi_i one of
{q_i p_i, p_i q_i, q_i, p_i}.  Its h-signature h has h_i = +1 iff psi_i is
q_i p_i or q_i, and its g-signature has g_i = +1 iff psi_i is a couple
(even).  A word is indexed by the pair (a, b) = (h, h∘g); both determine the
word uniquely.

Signatures are encoded as bitmasks with +1 -> bit 0 and -1 -> bit 1, site 1
being the most significant of the m bits, so a signature read as a binary
number is exactly the matrix row/column index used by the representation
module (e = (1,..,1) -> 0 and -e -> 2^m - 1).

Products
--------
Monomials multiply by the column/row matching rule

    Psi_ab Psi_cd = s(a,b,d) delta_bc Psi_ad,   s(a,b,d) = +-1.

The sign is *defined* operationally by word reduction: concatenate the two
letter strings, move letters so same-site letters become adjacent (each
transposition of letters at distinct sites flips the sign), then contract
every site with the Cl(1,1) table {qp.qp=qp, pq.pq=pq, qp.q=q, q.pq=q,
pq.p=p, p.qp=p, q.p=qp, p.q=pq, everything else 0}.  Same-site contractions
carry no sign, so s reduces to the parity of cross-site transpositions of
odd letters, a pure function of the parity masks a^b and b^d.  Each odd
letter of the right word passes every odd letter of the left word at a
later site (a lower bit), which gives the closed form

    s(a,b,d) = (-1)^popcount((a^b) & above[b^d]),

where above[g] has bit p set iff g has an odd number of set bits above p.
The library computes only this closed form; the word-reduction definition
is the harness's oracle (``harness.normalize_product``).

Stored form
-----------
An element is a ``StoredForm`` keyed by (a, b), as a spinor is keyed by
amask and an expansion by word: integer numerators over one denominator
in lowest terms (README, "Stored form"), with ``terms`` its field-value
view.
"""

from __future__ import annotations

from .errors import DimensionError, FieldMismatchError, quote_input
from . import scalars
from .scalars import FIELD_Q, GaussInt

# Per-site letter names by code, code = (abit << 1) | gbit with gbit = 1 for
# odd (single-vector) letters: q_i p_i, q_i, p_i q_i, p_i.
LETTER_NAMES = ("qp", "q", "pq", "p")


def sig_to_mask(sig) -> int:
    """(+1,-1,...) tuple -> bitmask, site 1 most significant."""
    mask = 0
    for s in sig:
        mask = (mask << 1) | (1 if s < 0 else 0)
    return mask


def mask_to_sig(mask: int, m: int) -> tuple[int, ...]:
    return tuple(-1 if (mask >> (m - i)) & 1 else 1 for i in range(1, m + 1))


def word_of_index(amask: int, bmask: int, m: int) -> tuple[int, ...]:
    """Letter codes of the EFB word with h-signature a and (h∘g)-signature b."""
    letters = []
    for i in range(1, m + 1):
        p = m - i
        abit = (amask >> p) & 1
        gbit = ((amask ^ bmask) >> p) & 1
        letters.append((abit << 1) | gbit)
    return tuple(letters)


class Algebra:
    """Context object: fixes m and the scalar field, caches derived data."""

    def __init__(self, m: int, field: str = FIELD_Q):
        if m < 1:
            raise DimensionError("m must be >= 1")
        self.m = m
        self.field = scalars.check_field(field)
        self.full_mask = (1 << m) - 1
        self.zero_scalar = scalars.zero(field)
        self.one_scalar = scalars.one(field)
        # the numerators of 0 and 1 in the stored form
        self.zero_num = 0 if field == FIELD_Q else GaussInt(0, 0)
        self.one_num = 1 if field == FIELD_Q else GaussInt(1, 0)
        # above[g]: bit p set iff g has an odd number of bits above p.  The
        # highest bit of g flips that parity at every lower position.
        above = [0] * (1 << m)
        for g in range(1, 1 << m):
            top = 1 << (g.bit_length() - 1)
            above[g] = above[g ^ top] ^ (top - 1)
        self._above = above
        self._cache: dict[str, object] = {}

    def __repr__(self):
        return f"Algebra(m={self.m}, field={self.field!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.m == other.m
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.m, self.field))

    def coerce(self, x):
        return scalars.coerce(x, self.field)

    def check_compatible(self, other: Algebra):
        if self.m != other.m:
            raise DimensionError(f"mixed m: {self.m} vs {other.m}")
        if self.field != other.field:
            raise FieldMismatchError(f"mixed fields: {self.field} vs {other.field}")

    # -- construction ---------------------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement.from_numerators(self, {})

    def monomial(self, amask: int, bmask: int, coeff=1) -> AlgebraElement:
        return AlgebraElement.from_numerators(self, {(amask, bmask): self.one_num}).scale(coeff)

    def identity(self) -> AlgebraElement:
        """1 = {q1,p1}{q2,p2}...{qm,pm}: all 2^m diagonal couple words."""
        if "identity" not in self._cache:
            one = self.one_num
            nums = {(a, a): one for a in range(1 << self.m)}
            self._cache["identity"] = AlgebraElement.from_numerators(self, nums)
        return self._cache["identity"]

    def volume_gamma(self) -> AlgebraElement:
        """Gamma = [q1,p1][q2,p2]...[qm,pm]; coefficient prod(a_i) per diagonal word."""
        if "volume" not in self._cache:
            one = self.one_num
            nums = {(a, a): -one if a.bit_count() & 1 else one for a in range(1 << self.m)}
            self._cache["volume"] = AlgebraElement.from_numerators(self, nums)
        return self._cache["volume"]

    # -- the product sign ------------------------------------------------

    def sign_s(self, amask: int, bmask: int, dmask: int) -> int:
        """s(a,b,d) of the monomial product rule, in closed form."""
        return -1 if ((amask ^ bmask) & self._above[bmask ^ dmask]).bit_count() & 1 else 1

    # -- arithmetic -------------------------------------------------------

    def mul(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """x y by the matching rule, on the stored numerators.

        Every product of numerators is over x.den * y.den, so the integer
        sums vanish exactly where the field sums do: the result has the
        terms, in the key order, of the field loop, and one gcd pass puts
        it in lowest terms.  When x is the smaller operand only the y terms
        in the rows that x's columns name are indexed.
        """
        if x.algebra is not self:
            self.check_compatible(x.algebra)
        if y.algebra is not self:
            self.check_compatible(y.algebra)
        xn = x.nums
        y_items = y.nums.items()
        if len(xn) < len(y_items):
            cols = {b for _a, b in xn}
            y_items = [item for item in y_items if item[0][0] in cols]
        by_row: dict[int, list] = {}  # row -> [(column, numerator)]
        for (c, d), yv in y_items:
            row = by_row.get(c)
            if row is None:
                by_row[c] = [(d, yv)]
            else:
                row.append((d, yv))
        acc: dict[tuple[int, int], object] = {}
        above = self._above
        for (a, b), xv in xn.items():
            row = by_row.get(b)
            if row is None:
                continue
            gu = a ^ b
            for d, yv in row:
                val = xv * yv
                if (gu & above[b ^ d]).bit_count() & 1:
                    val = -val
                key = (a, d)
                prev = acc.get(key)
                val = val if prev is None else prev + val
                if val:
                    acc[key] = val
                elif prev is not None:
                    del acc[key]
        return AlgebraElement.from_numerators(self, acc, x.den * y.den)


class StoredForm:
    """Field values keyed by words or Fock indices, stored as ``nums``, a
    dict from key to nonzero numerator (an int, a ``GaussInt`` over Q(i)),
    over one positive int ``den``, in lowest terms; the zero has den = 1.
    The form is unique, so ``==`` and ``hash`` compare it."""

    __slots__ = ("algebra", "nums", "den")

    def __init__(self, algebra: Algebra, terms):
        """The object with the given field values (ints, Fractions, or QI
        over Q(i)), coerced into the algebra's field; zeros are dropped.
        A key that ``_key_in_range`` rejects raises DimensionError."""
        clean = {}
        for key, coeff in dict(terms).items():
            if not self._key_in_range(algebra, key):
                raise DimensionError(
                    f"{type(self).__name__} key {quote_input(key)} out of range at m={algebra.m}"
                )
            coeff = algebra.coerce(coeff)
            if coeff:
                clean[key] = coeff
        nums, den = scalars.to_integers(clean.values(), algebra.field != FIELD_Q)
        self.algebra = algebra
        self.nums = dict(zip(clean, nums))
        self.den = den

    @staticmethod
    def _key_in_range(algebra: Algebra, key) -> bool:
        """Whether the constructor takes ``key``; each form narrows it."""
        return True

    @classmethod
    def from_numerators(cls, algebra: Algebra, nums: dict, den: int = 1):
        """The object nums / den for nonzero numerators (ints, ``GaussInt``
        over Q(i)) over a positive int den, taken as given (the dict
        included) and put in lowest terms."""
        self = object.__new__(cls)
        self.algebra = algebra
        self.nums, self.den = scalars.lowest_terms(nums, den, algebra.field != FIELD_Q)
        return self

    def _view(self) -> dict:
        """The values as field values, in the stored key order; built on
        each read."""
        den, from_integer = self.den, scalars.from_integer
        return {key: from_integer(num, den) for key, num in self.nums.items()}

    def __bool__(self):
        return bool(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.algebra, self.den, frozenset(self.nums.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self.algebra.check_compatible(other.algebra)
        acc, den = scalars.add_numerators(self.nums, self.den, other.nums, other.den)
        return self.from_numerators(self.algebra, acc, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.from_numerators(
            self.algebra, {key: -v for key, v in self.nums.items()}, self.den
        )

    def scale(self, c):
        algebra = self.algebra
        c_num, c_den = scalars.to_numerator(c, algebra.field)
        if not c_num:
            return self.from_numerators(algebra, {})
        return self.from_numerators(
            algebra, {key: v * c_num for key, v in self.nums.items()}, self.den * c_den
        )

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__


class AlgebraElement(StoredForm):
    """Sparse EFB expansion: (amask, bmask) -> nonzero numerator over ``den``."""

    __slots__ = ()

    terms = property(StoredForm._view)

    @staticmethod
    def _key_in_range(algebra: Algebra, key) -> bool:
        """A word (amask, bmask) of two ints in 0 .. 2^m - 1."""
        return (
            type(key) is tuple
            and len(key) == 2
            and all(type(mask) is int and 0 <= mask <= algebra.full_mask for mask in key)
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.mul(self, other)
        return self.scale(other)

    def coefficient(self, amask: int, bmask: int):
        num = self.nums.get((amask, bmask))
        if num is None:
            return self.algebra.zero_scalar
        return scalars.from_integer(num, self.den)

    def trace(self):
        """Sum of diagonal coefficients; equals the matrix trace."""
        total = self.algebra.zero_num
        for (a, b), num in self.nums.items():
            if a == b:
                total = total + num
        return scalars.from_integer(total, self.den)

    def main_automorphism(self) -> AlgebraElement:
        """gamma_i -> -gamma_i: scale each word by its global parity."""
        out = {}
        for (a, b), num in self.nums.items():
            out[(a, b)] = -num if (a ^ b).bit_count() & 1 else num
        return AlgebraElement.from_numerators(self.algebra, out, self.den)

    def star(self) -> AlgebraElement:
        """Conjugate every coefficient (identity in real mode)."""
        if self.algebra.field == FIELD_Q:
            return self
        return AlgebraElement.from_numerators(
            self.algebra,
            {key: GaussInt(v.re, -v.im) for key, v in self.nums.items()},
            self.den,
        )

    def chirality(self):
        """Common right Gamma-eigenvalue of the words, or None if mixed/zero.

        Eigenvalue of word (a, b) is prod(a_i) = (-1)^popcount(a).
        """
        value = None
        for (a, _b) in self.nums:
            chi = -1 if a.bit_count() & 1 else 1
            if value is None:
                value = chi
            elif value != chi:
                return None
        return value

    def proportionality(self, other: AlgebraElement):
        """Scalar c with self = c*other, or None (0 means self = 0)."""
        if not self.nums:
            return self.algebra.zero_scalar
        if not other.nums:
            return None
        key = next(iter(other.nums))
        mine = self.nums.get(key)
        if mine is None:
            return None
        from_integer = scalars.from_integer
        ratio = from_integer(mine, self.den) / from_integer(other.nums[key], other.den)
        if self == other.scale(ratio):
            return ratio
        return None

    def __repr__(self):
        if not self.nums:
            return "<0>"
        m, den = self.algebra.m, self.den
        bits = []
        for (a, b), num in sorted(self.nums.items()):
            word = word_of_index(a, b, m)
            text = ".".join(word_letter_str(code, i) for i, code in enumerate(word, start=1))
            bits.append(f"({scalars.format_numerator(num, den)})*{text}")
        return " + ".join(bits)


def word_letter_str(code: int, site: int) -> str:
    """Human-readable site letter, e.g. 'q2p2' for the couple at site 2."""
    name = LETTER_NAMES[code]
    if len(name) == 2:
        return f"{name[0]}{site}{name[1]}{site}"
    return f"{name}{site}"
