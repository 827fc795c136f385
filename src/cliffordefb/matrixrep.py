"""Faithful matrix representation of Cl(m,m) on 2^m x 2^m exact matrices.

Generators come from the graded tensor construction over one 2x2 block pair

    g1 = [[0,1],[1,0]],   g2 = [[0,-1],[1,0]],   K = g1 g2 = diag(1,-1),
    gamma_{2i-1} = K^(i-1) (x) g1 (x) 1^(m-i),
    gamma_{2i}   = K^(i-1) (x) g2 (x) 1^(m-i),

which realizes gamma_{2i-1}^2 = +1, gamma_{2i}^2 = -1 and places the basis
word with index (a, b) at matrix position (row(a), col(b)) under the binary
reading of signatures (+1 -> 0, -1 -> 1, site 1 most significant), with the
sign (-1)^|(a ^ b) & above[b]| read from the algebra's parity-above table:
applied to e_b rightmost letter first, each single letter at site i meets
the K factors of the sites above it while they still hold b's bits, and a
couple's two letters cancel.  In particular the all-plus diagonal word lands
at +E_00 and every spinor of the reference column occupies matrix column
2^m - 1.

Every product of generators is one mask triple (f, sigma, eps), a
``GammaWord`` sending e_c to (-1)^(eps + |c & sigma|) e_(c ^ f): products
xor the masks and add |f2 & sigma1| to eps, the transpose adds |f & sigma|,
negation flips eps.  The dense Kronecker construction above is the
harness's oracle (``harness.tensor_gammas``), not a library path.

EFB elements map to sparse matrices; ``sparse_matmul`` of mapped elements
is the independent oracle for ``Algebra.mul`` (the harness's product check
and perfbench's known answers).  The trace and the word-reduction product
live in the harness with the other oracles.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionError, InternalCheckError
from .scalars import common_denominator, from_integer, to_numerator
from .algebra import Algebra, AlgebraElement


class GammaWord(NamedTuple):
    """A product of gammas in mask form: e_c -> (-1)^(eps + |c & sigma|) e_(c ^ f)."""

    f: int
    sigma: int
    eps: int

    def compose(self, other: GammaWord) -> GammaWord:
        """Matrix product self @ other: other meets e_c first and leaves
        e_(c ^ f2), where self's sign picks up |f2 & sigma1| more."""
        eps = self.eps ^ other.eps ^ ((other.f & self.sigma).bit_count() & 1)
        return GammaWord(self.f ^ other.f, self.sigma ^ other.sigma, eps)

    def transpose(self) -> GammaWord:
        """The entry (c ^ f, c) moves to (c, c ^ f): the sign is read at c ^ f."""
        return GammaWord(self.f, self.sigma, self.eps ^ ((self.f & self.sigma).bit_count() & 1))

    def __neg__(self) -> GammaWord:
        return GammaWord(self.f, self.sigma, self.eps ^ 1)

    def sign(self, c: int) -> int:
        """The sign of the image of e_c."""
        return -1 if (self.eps + (c & self.sigma).bit_count()) & 1 else 1


class RepContext:
    """The 2m generators' masks, the gamma words they compose, and the
    closed-form sign of each EFB word's matrix unit."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.m = algebra.m
        self.dim = 1 << algebra.m
        self.gamma_masks = [self._gamma_masks(i) for i in range(1, 2 * self.m + 1)]
        self._verify_relations()

    def _gamma_masks(self, index: int) -> tuple[int, int]:
        """(flip, sigma): gamma_index sends e_c to (-1)^|c & sigma| e_(c ^ flip).

        The flip is the bit of the generator's site; sigma holds the sites
        before it (the K factors) and, for even indices, the site itself.
        """
        p = self.m - (index + 1) // 2
        sigma = (self.dim - 1) ^ ((2 << p) - 1)
        if index % 2 == 0:
            sigma |= 1 << p
        return 1 << p, sigma

    def _verify_relations(self):
        """gamma_i^2 = +1 (odd i) or -1 (even i) and pairwise anticommutation,
        in O(m^2) bit operations on the generator masks.

        ``word`` composes gamma_i gamma_j into (f_i ^ f_j, s_i ^ s_j,
        |f_j & s_i| mod 2), so gamma_i^2 is (0, 0, |f_i & s_i| mod 2), and
        gamma_i gamma_j = -gamma_j gamma_i exactly when |f_j & s_i| and
        |f_i & s_j| differ in parity: those are the bits checked.
        """
        masks = self.gamma_masks
        for i, (flip, sigma) in enumerate(masks, 1):
            if (flip & sigma).bit_count() & 1 != 1 - i % 2:  # +1 for odd i, -1 for even
                raise InternalCheckError(f"gamma_{i}^2 != {'+1' if i % 2 else '-1'}")
            for j, (flip_j, sigma_j) in enumerate(masks[i:], i + 1):
                if not ((flip_j & sigma).bit_count() + (flip & sigma_j).bit_count()) & 1:
                    raise InternalCheckError(f"gamma_{i} and gamma_{j} do not anticommute")

    def word(self, indices) -> GammaWord:
        """Product gamma_i1 gamma_i2 ... in the written order: ``compose``
        folded over the generators (flip, s, 0), on plain ints, with the
        sign's bit counts summed and reduced mod 2 once."""
        f = sigma = count = 0
        gens, top = self.gamma_masks, 2 * self.m
        for i in indices:
            if not 1 <= i <= top:
                raise DimensionError(f"gamma index {i} out of range 1..{top}")
            flip, s = gens[i - 1]
            count += (flip & sigma).bit_count()
            f ^= flip
            sigma ^= s
        # tuple.__new__ skips the NamedTuple constructor's Python frame
        return tuple.__new__(GammaWord, (f, sigma, count & 1))

    def dual_word_action(self, indices) -> GammaWord:
        """The product of the duals gamma^i = (-1)^(i+1) gamma_i: the word
        negated once per even index."""
        word = self.word(indices)
        return -word if sum(1 for i in indices if i % 2 == 0) & 1 else word

    # -- EFB words as matrices -------------------------------------------

    def word_sign(self, amask: int, bmask: int) -> int:
        """Sign of the word matrix: word(a, b) = sign * E_(a, b), with sign
        (-1)^|(a ^ b) & above[b]|."""
        return -1 if ((amask ^ bmask) & self.algebra._above[bmask]).bit_count() & 1 else 1

    def to_matrix(self, x: AlgebraElement) -> dict[tuple[int, int], object]:
        """Sparse matrix of an element: {(row, col): scalar}."""
        self.algebra.check_compatible(x.algebra)
        den, sign = x.den, self.word_sign
        return {
            (a, b): from_integer(num if sign(a, b) > 0 else -num, den)
            for (a, b), num in x.nums.items()
        }

    def from_matrix(self, entries: dict) -> AlgebraElement:
        """Inverse of to_matrix, on a sparse dict of field values: they are
        written over one denominator once, and each numerator takes its
        word's sign."""
        field = self.algebra.field
        pairs = {key: to_numerator(x, field) for key, x in entries.items()}
        pairs = {key: pair for key, pair in pairs.items() if pair[0]}
        nums, den = common_denominator(pairs.values())
        return self.from_numerators(dict(zip(pairs, nums)), den)

    def from_numerators(self, entries: dict, den: int) -> AlgebraElement:
        """The element of the matrix with nonzero numerator entries
        {(row, col): num} over den, the entries consumed."""
        sign = self.word_sign
        for key, num in entries.items():
            if sign(*key) < 0:
                entries[key] = -num
        return AlgebraElement.from_numerators(self.algebra, entries, den)


def sparse_matmul(x: dict, y: dict) -> dict:
    """Product of sparse matrices given as {(r, c): scalar}."""
    by_row: dict[int, list] = {}
    for (r, c), val in y.items():
        by_row.setdefault(r, []).append((c, val))
    out: dict[tuple[int, int], object] = {}
    for (r, c), val in x.items():
        partners = by_row.get(c)
        if not partners:
            continue
        for c2, val2 in partners:
            key = (r, c2)
            term = val * val2
            prev = out.get(key)
            term = term if prev is None else prev + term
            if term:
                out[key] = term
            elif prev is not None:
                del out[key]
    return out
