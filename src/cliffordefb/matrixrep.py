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

EFB elements map to sparse matrices; products of mapped elements serve as
the independent oracle for the word-reduction product.
"""

from __future__ import annotations

from .errors import DimensionError, InternalCheckError
from .linalg import Matrix
from .algebra import Algebra, AlgebraElement


class SignedPerm:
    """Signed permutation matrix: e_c -> sign[c] * e_perm[c]."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        self.perm = list(perm)
        self.signs = list(signs)

    @staticmethod
    def identity(n: int) -> SignedPerm:
        return SignedPerm(range(n), [1] * n)

    def __eq__(self, other):
        return (
            isinstance(other, SignedPerm)
            and self.perm == other.perm
            and self.signs == other.signs
        )

    def __neg__(self):
        return SignedPerm(self.perm, [-s for s in self.signs])

    def compose(self, other: SignedPerm) -> SignedPerm:
        """Matrix product self @ other."""
        perm = [self.perm[p] for p in other.perm]
        signs = [s * self.signs[p] for p, s in zip(other.perm, other.signs)]
        return SignedPerm(perm, signs)

    def transpose(self) -> SignedPerm:
        n = len(self.perm)
        perm = [0] * n
        signs = [1] * n
        for c, (r, s) in enumerate(zip(self.perm, self.signs)):
            perm[r] = c
            signs[r] = s
        return SignedPerm(perm, signs)

    def apply(self, vec):
        """Image of a coordinate column under the matrix."""
        out = [vec[0] * 0] * len(vec)
        for c, x in enumerate(vec):
            if x:
                out[self.perm[c]] = x if self.signs[c] > 0 else -x
        return out

    def is_identity(self) -> bool:
        return all(p == c for c, p in enumerate(self.perm)) and all(
            s == 1 for s in self.signs
        )

    def is_minus_identity(self) -> bool:
        return all(p == c for c, p in enumerate(self.perm)) and all(
            s == -1 for s in self.signs
        )

    def anticommutes_with(self, other: SignedPerm) -> bool:
        ab = self.compose(other)
        ba = other.compose(self)
        return ab == -ba

    def to_dense(self, one, zero) -> Matrix:
        n = len(self.perm)
        rows = [[zero] * n for _ in range(n)]
        for c, (r, s) in enumerate(zip(self.perm, self.signs)):
            rows[r][c] = one if s > 0 else -one
        return Matrix(rows)


class RepContext:
    """The 2m generator matrices and the closed-form sign of each EFB word's
    matrix unit."""

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.m = algebra.m
        self.dim = 1 << algebra.m
        self.gamma_masks = [self._gamma_masks(i) for i in range(1, 2 * self.m + 1)]
        self.gammas = [self._build_gamma(i) for i in range(1, 2 * self.m + 1)]
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

    def _build_gamma(self, index: int) -> SignedPerm:
        flip, sigma = self.gamma_masks[index - 1]
        n = self.dim
        perm = [c ^ flip for c in range(n)]
        signs = [-1 if (c & sigma).bit_count() & 1 else 1 for c in range(n)]
        return SignedPerm(perm, signs)

    def gamma(self, i: int) -> SignedPerm:
        """Generator gamma_i, 1-based."""
        if not 1 <= i <= 2 * self.m:
            raise DimensionError(f"gamma index {i} out of range 1..{2 * self.m}")
        return self.gammas[i - 1]

    def _verify_relations(self):
        for i in range(1, 2 * self.m + 1):
            sq = self.gamma(i).compose(self.gamma(i))
            if i % 2 == 1 and not sq.is_identity():
                raise InternalCheckError(f"gamma_{i}^2 != +1")
            if i % 2 == 0 and not sq.is_minus_identity():
                raise InternalCheckError(f"gamma_{i}^2 != -1")
            for j in range(i + 1, 2 * self.m + 1):
                if not self.gamma(i).anticommutes_with(self.gamma(j)):
                    raise InternalCheckError(f"gamma_{i} and gamma_{j} do not anticommute")

    def gamma_word(self, indices) -> SignedPerm:
        """Product gamma_{i1} gamma_{i2} ... in the written order."""
        acc = SignedPerm.identity(self.dim)
        for i in indices:
            acc = acc.compose(self.gamma(i))
        return acc

    def dual_word_action(self, indices) -> tuple[int, int, int]:
        """(f, sigma, eps) of the dual word in O(k) bit operations: the product
        of gamma^i = (-1)^(i+1) gamma_i over the indices sends e_c to
        (-1)^(eps + |c & sigma|) e_(c ^ f).

        The rightmost generator acts first; a generator (flip, s) met at
        position c ^ f contributes |c & s| + |f & s| to the sign.
        """
        f = sigma = eps = 0
        for i in reversed(indices):
            if not 1 <= i <= 2 * self.m:
                raise DimensionError(f"gamma index {i} out of range 1..{2 * self.m}")
            flip, s = self.gamma_masks[i - 1]
            eps ^= (f & s).bit_count() & 1
            if i % 2 == 0:  # gamma^i = -gamma_i
                eps ^= 1
            f ^= flip
            sigma ^= s
        return f, sigma, eps

    # -- EFB words as matrices -------------------------------------------

    def word_sign(self, amask: int, bmask: int) -> int:
        """Sign of the word matrix: word(a, b) = sign * E_(a, b), with sign
        (-1)^|(a ^ b) & above[b]|."""
        return -1 if ((amask ^ bmask) & self.algebra._above[bmask]).bit_count() & 1 else 1

    def to_matrix(self, x: AlgebraElement) -> dict[tuple[int, int], object]:
        """Sparse matrix of an element: {(row, col): scalar}."""
        self.algebra.check_compatible(x.algebra)
        out = {}
        for (a, b), coeff in x.terms.items():
            out[(a, b)] = coeff if self.word_sign(a, b) > 0 else -coeff
        return out

    def from_matrix(self, entries) -> AlgebraElement:
        """Inverse of to_matrix; accepts a sparse dict or a dense Matrix."""
        if isinstance(entries, Matrix):
            if entries.nrows != self.dim or entries.ncols != self.dim:
                raise DimensionError("matrix size does not match 2^m")
            entries = {
                (r, c): entries.rows[r][c]
                for r in range(self.dim)
                for c in range(self.dim)
                if entries.rows[r][c]
            }
        terms = {}
        for (r, c), val in entries.items():
            if val:
                terms[(r, c)] = val if self.word_sign(r, c) > 0 else -val
        return AlgebraElement(self.algebra, terms, _trusted=True)

    def to_dense(self, x: AlgebraElement) -> Matrix:
        zero = self.algebra.zero_scalar
        rows = [[zero] * self.dim for _ in range(self.dim)]
        for (r, c), val in self.to_matrix(x).items():
            rows[r][c] = val
        return Matrix(rows)


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


def sparse_trace(x: dict, zero):
    total = zero
    for (r, c), val in x.items():
        if r == c:
            total = total + val
    return total

