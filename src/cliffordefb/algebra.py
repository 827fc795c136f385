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
"""

from __future__ import annotations

from .errors import DimensionError, FieldMismatchError
from . import scalars
from .scalars import FIELD_Q

# Per-site letter codes, ordered so that code = (abit << 1) | gbit with
# gbit = 1 for odd (single-vector) letters.
LETTER_QP = 0  # q_i p_i : h=+1, even
LETTER_Q = 1   # q_i     : h=+1, odd
LETTER_PQ = 2  # p_i q_i : h=-1, even
LETTER_P = 3   # p_i     : h=-1, odd

LETTER_NAMES = ("qp", "q", "pq", "p")
_LETTER_STRINGS = ("qp", "q", "pq", "p")  # expanded null-vector strings

# Same-site contraction table: _SITE_TABLE[left][right] = result letter or None.
_SITE_TABLE = [[None] * 4 for _ in range(4)]

for _l in range(4):
    for _r in range(4):
        _w = _LETTER_STRINGS[_l] + _LETTER_STRINGS[_r]
        if any(_w[i] == _w[i + 1] for i in range(len(_w) - 1)):
            continue
        # alternating string: classified by first and last letter
        _first, _last = _w[0], _w[-1]
        if _first == "q" and _last == "p":
            _SITE_TABLE[_l][_r] = LETTER_QP
        elif _first == "p" and _last == "q":
            _SITE_TABLE[_l][_r] = LETTER_PQ
        elif _first == "q":
            _SITE_TABLE[_l][_r] = LETTER_Q
        else:
            _SITE_TABLE[_l][_r] = LETTER_P


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


def index_of_word(word) -> tuple[int, int]:
    """Inverse of word_of_index."""
    amask = 0
    bmask = 0
    for code in word:
        abit = code >> 1
        gbit = code & 1
        amask = (amask << 1) | abit
        bmask = (bmask << 1) | (abit ^ gbit)
    return amask, bmask


def h_signature(word) -> tuple[int, ...]:
    return tuple(-1 if code >> 1 else 1 for code in word)


def g_signature(word) -> tuple[int, ...]:
    return tuple(-1 if code & 1 else 1 for code in word)


def normalize_product(u, v):
    """Word-reduction product of two EFB words.

    Returns (sign, word) or None when some site contracts to zero.  This is
    the reference implementation; Algebra.mul uses the equivalent bitmask
    shortcut.
    """
    if len(u) != len(v):
        raise DimensionError("words of different m")
    sign = 1
    # Each letter of v at site j moves left past every letter of u at a
    # larger site; only odd letters contribute to the parity.
    odd_u_suffix = [0] * (len(u) + 1)
    for j in range(len(u) - 1, -1, -1):
        odd_u_suffix[j] = odd_u_suffix[j + 1] + (u[j] & 1)
    crossings = sum((v[j] & 1) * odd_u_suffix[j + 1] for j in range(len(v)))
    if crossings & 1:
        sign = -1
    letters = []
    for lu, lv in zip(u, v):
        res = _SITE_TABLE[lu][lv]
        if res is None:
            return None
        letters.append(res)
    return sign, tuple(letters)


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
        return AlgebraElement(self, {})

    def monomial(self, amask: int, bmask: int, coeff=1) -> AlgebraElement:
        coeff = self.coerce(coeff)
        if not coeff:
            return self.zero()
        return AlgebraElement(self, {(amask, bmask): coeff}, _trusted=True)

    def scalar(self, c) -> AlgebraElement:
        """c times the identity."""
        return self.identity() * c

    def identity(self) -> AlgebraElement:
        """1 = {q1,p1}{q2,p2}...{qm,pm}: all 2^m diagonal couple words."""
        if "identity" not in self._cache:
            one = self.one_scalar
            terms = {(a, a): one for a in range(1 << self.m)}
            self._cache["identity"] = AlgebraElement(self, terms)
        return self._cache["identity"]

    def volume_gamma(self) -> AlgebraElement:
        """Gamma = [q1,p1][q2,p2]...[qm,pm]; coefficient prod(a_i) per diagonal word."""
        if "volume" not in self._cache:
            one = self.one_scalar
            terms = {}
            for a in range(1 << self.m):
                terms[(a, a)] = -one if a.bit_count() & 1 else one
            self._cache["volume"] = AlgebraElement(self, terms)
        return self._cache["volume"]

    # -- the product sign ------------------------------------------------

    def sign_s(self, amask: int, bmask: int, dmask: int) -> int:
        """s(a,b,d) of the monomial product rule, in closed form."""
        return -1 if ((amask ^ bmask) & self._above[bmask ^ dmask]).bit_count() & 1 else 1

    # -- arithmetic -------------------------------------------------------

    def mul(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """x y by the matching rule, on integer numerators.

        Only the terms that can meet a partner are scaled, all over one
        denominator L: the y terms in the rows that x's columns name (all of
        y when y is the smaller operand) and the x terms whose column is
        such a row.  Every product of numerators then carries L^2, so the
        integer sums vanish exactly where the field sums do: the result has
        the terms, in the key order, of the field loop, and each surviving
        sum is divided once when it is emitted.
        """
        if x.algebra is not self:
            self.check_compatible(x.algebra)
        if y.algebra is not self:
            self.check_compatible(y.algebra)
        xt = x.terms
        y_items = y.terms.items()
        if len(xt) < len(y_items):
            cols = {b for _a, b in xt}
            y_items = [item for item in y_items if item[0][0] in cols]
        by_row: dict[int, list] = {}  # row -> (column, position in values)
        values = []
        for (c, d), yc in y_items:
            by_row.setdefault(c, []).append((d, len(values)))
            values.append(yc)
        n_y = len(values)
        x_keys = []
        for key, xc in xt.items():
            if key[1] in by_row:
                x_keys.append(key)
                values.append(xc)
        if not x_keys:
            return AlgebraElement(self, {}, _trusted=True)
        nums, den = scalars.to_integers(values, self.field != FIELD_Q)
        acc: dict[tuple[int, int], object] = {}
        above = self._above
        for (a, b), xn in zip(x_keys, nums[n_y:]):
            gu = a ^ b
            for d, j in by_row[b]:
                val = xn * nums[j]
                if (gu & above[b ^ d]).bit_count() & 1:
                    val = -val
                key = (a, d)
                prev = acc.get(key)
                val = val if prev is None else prev + val
                if val:
                    acc[key] = val
                elif prev is not None:
                    del acc[key]
        den *= den
        from_integer = scalars.from_integer
        for key, num in acc.items():
            acc[key] = from_integer(num, den)
        return AlgebraElement(self, acc, _trusted=True)


class AlgebraElement:
    """Sparse EFB expansion: map (amask, bmask) -> nonzero scalar."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms, _trusted: bool = False):
        self.algebra = algebra
        if _trusted:
            self.terms = terms
        else:
            clean = {}
            for key, coeff in dict(terms).items():
                coeff = algebra.coerce(coeff)
                if coeff:
                    clean[key] = coeff
            self.terms = clean

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def __add__(self, other):
        self.algebra.check_compatible(other.algebra)
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            val = acc.get(key)
            val = coeff if val is None else val + coeff
            if val:
                acc[key] = val
            elif key in acc:
                del acc[key]
        return AlgebraElement(self.algebra, acc, _trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(
            self.algebra,
            {k: -v for k, v in self.terms.items()},
            _trusted=True,
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> AlgebraElement:
        c = self.algebra.coerce(c)
        if not c:
            return self.algebra.zero()
        return AlgebraElement(
            self.algebra,
            {k: v * c for k, v in self.terms.items()},
            _trusted=True,
        )

    def coefficient(self, amask: int, bmask: int):
        return self.terms.get((amask, bmask), self.algebra.zero_scalar)

    def trace(self):
        """Sum of diagonal coefficients; equals the matrix trace."""
        total = self.algebra.zero_scalar
        for (a, b), coeff in self.terms.items():
            if a == b:
                total = total + coeff
        return total

    def main_automorphism(self) -> AlgebraElement:
        """gamma_i -> -gamma_i: scale each word by its global parity."""
        out = {}
        for (a, b), coeff in self.terms.items():
            out[(a, b)] = -coeff if (a ^ b).bit_count() & 1 else coeff
        return AlgebraElement(self.algebra, out, _trusted=True)

    def star(self) -> AlgebraElement:
        """Conjugate every coefficient (identity in real mode)."""
        if self.algebra.field == FIELD_Q:
            return self
        return AlgebraElement(
            self.algebra,
            {k: scalars.star(v) for k, v in self.terms.items()},
            _trusted=True,
        )

    def chirality(self):
        """Common right Gamma-eigenvalue of the words, or None if mixed/zero.

        Eigenvalue of word (a, b) is prod(a_i) = (-1)^popcount(a).
        """
        value = None
        for (a, _b) in self.terms:
            chi = -1 if a.bit_count() & 1 else 1
            if value is None:
                value = chi
            elif value != chi:
                return None
        return value

    def proportionality(self, other: AlgebraElement):
        """Scalar c with self = c*other, or None (0 means self = 0)."""
        if not self.terms:
            return self.algebra.zero_scalar
        if not other.terms:
            return None
        key = next(iter(other.terms))
        mine = self.terms.get(key)
        if mine is None:
            return None
        ratio = mine / other.terms[key]
        if self == other.scale(ratio):
            return ratio
        return None

    def __repr__(self):
        if not self.terms:
            return "<0>"
        m = self.algebra.m
        bits = []
        for (a, b) in sorted(self.terms):
            word = word_of_index(a, b, m)
            text = ".".join(word_letter_str(code, i) for i, code in enumerate(word, start=1))
            bits.append(f"({scalars.format_scalar(self.terms[(a, b)])})*{text}")
        return " + ".join(bits)


def word_letter_str(code: int, site: int) -> str:
    """Human-readable site letter, e.g. 'q2p2' for the couple at site 2."""
    name = LETTER_NAMES[code]
    if len(name) == 2:
        return f"{name[0]}{site}{name[1]}{site}"
    return f"{name}{site}"
