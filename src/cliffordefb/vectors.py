"""The vector space V inside Cl(m,m): Witt basis, null vectors, conjugation.

A vector is stored compactly as its Witt coordinates v = sum(alpha_i p_i +
beta_i q_i); all quadratic-form arithmetic runs on the coordinates, with the
algebra embedding used only where a Clifford product is genuinely needed.
The anticommutator form is {v, u} = sum(alpha_i delta_i + beta_i gamma_i)
for u = sum(gamma_i p_i + delta_i q_i), so v^2 = sum(alpha_i beta_i).

Conjugation swaps the roles of p_i and q_i (with starred coefficients in
complex mode); on the whole algebra it is the inner automorphism
x -> C star(x) C^(-1) with C built from Delta_+ = (p1+q1)...(pm+qm) for odd
m and Delta_- = (p1-q1)...(pm-qm) for even m.
"""

from __future__ import annotations

from .errors import (
    DimensionError,
    InternalCheckError,
    NotTotallyNullError,
)
from . import scalars
from .linalg import Matrix
from .algebra import Algebra, AlgebraElement


class WittVector:
    """Vector in Witt coordinates (alpha over p_i, beta over q_i)."""

    __slots__ = ("algebra", "alpha", "beta")

    def __init__(self, algebra: Algebra, alpha, beta):
        alpha = tuple(algebra.coerce(a) for a in alpha)
        beta = tuple(algebra.coerce(b) for b in beta)
        if len(alpha) != algebra.m or len(beta) != algebra.m:
            raise DimensionError("coordinate lists must have length m")
        self.algebra = algebra
        self.alpha = alpha
        self.beta = beta

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and self.algebra == other.algebra
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.algebra, self.alpha, self.beta))

    def __repr__(self):
        parts = []
        for i, (a, b) in enumerate(zip(self.alpha, self.beta), start=1):
            if a:
                parts.append(f"({scalars.format_scalar(a)})p{i}")
            if b:
                parts.append(f"({scalars.format_scalar(b)})q{i}")
        return " + ".join(parts) if parts else "0"

    def __add__(self, other):
        self.algebra.check_compatible(other.algebra)
        return WittVector(
            self.algebra,
            [a + c for a, c in zip(self.alpha, other.alpha)],
            [b + d for b, d in zip(self.beta, other.beta)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WittVector(self.algebra, [-a for a in self.alpha], [-b for b in self.beta])

    def __mul__(self, c):
        c = self.algebra.coerce(c)
        return WittVector(
            self.algebra, [a * c for a in self.alpha], [b * c for b in self.beta]
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.alpha) and not any(self.beta)

    def coords(self) -> list:
        """Flat coordinate list (alpha then beta), for linear algebra."""
        return list(self.alpha) + list(self.beta)


def p_vector(algebra: Algebra, i: int) -> WittVector:
    _check_site(algebra, i)
    return WittVector(
        algebra,
        [1 if j == i else 0 for j in range(1, algebra.m + 1)],
        [0] * algebra.m,
    )


def q_vector(algebra: Algebra, i: int) -> WittVector:
    _check_site(algebra, i)
    return WittVector(
        algebra,
        [0] * algebra.m,
        [1 if j == i else 0 for j in range(1, algebra.m + 1)],
    )


def gamma_vector(algebra: Algebra, i: int) -> WittVector:
    """gamma_{2k-1} = p_k + q_k, gamma_{2k} = p_k - q_k."""
    if not 1 <= i <= 2 * algebra.m:
        raise DimensionError(f"gamma index {i} out of range 1..{2 * algebra.m}")
    site = (i + 1) // 2
    sign = 1 if i % 2 == 1 else -1
    return WittVector(
        algebra,
        [1 if j == site else 0 for j in range(1, algebra.m + 1)],
        [sign if j == site else 0 for j in range(1, algebra.m + 1)],
    )


def _check_site(algebra: Algebra, i: int):
    if not 1 <= i <= algebra.m:
        raise DimensionError(f"site {i} out of range 1..{algebra.m}")


def _basis_embeddings(algebra: Algebra):
    """Cached EFB expansions of p_i and q_i: identity couples at other sites."""
    cached = algebra._cache.get("witt_embeddings")
    if cached is not None:
        return cached
    m = algebra.m
    one = algebra.one_scalar
    ps = []
    qs = []
    for i in range(1, m + 1):
        p = m - i
        bit = 1 << p
        others = [c for c in range(1 << m) if not c & bit]
        # couples elsewhere: a_j = b_j; odd site i: p has (abit, bbit) = (1, 0),
        # q has (0, 1)
        ps.append(
            AlgebraElement(algebra, {(c | bit, c): one for c in others}, _trusted=True)
        )
        qs.append(
            AlgebraElement(algebra, {(c, c | bit): one for c in others}, _trusted=True)
        )
    algebra._cache["witt_embeddings"] = (ps, qs)
    return ps, qs


def embed(v: WittVector) -> AlgebraElement:
    """The vector as an algebra element (sum of 2m * 2^(m-1) basis words)."""
    algebra = v.algebra
    ps, qs = _basis_embeddings(algebra)
    acc = algebra.zero()
    for i in range(algebra.m):
        if v.alpha[i]:
            acc = acc + ps[i].scale(v.alpha[i])
        if v.beta[i]:
            acc = acc + qs[i].scale(v.beta[i])
    return acc


def embed_gamma(algebra: Algebra, i: int) -> AlgebraElement:
    return embed(gamma_vector(algebra, i))


def anticommutator_form(v: WittVector, u: WittVector):
    """{v, u} as a field element (half the polarization of the square)."""
    v.algebra.check_compatible(u.algebra)
    total = v.algebra.zero_scalar
    for a, b, c, d in zip(v.alpha, v.beta, u.alpha, u.beta):
        total = total + a * d + b * c
    return total


def square(v: WittVector):
    """v^2 = sum(alpha_i beta_i)."""
    total = v.algebra.zero_scalar
    for a, b in zip(v.alpha, v.beta):
        total = total + a * b
    return total


def is_null(v: WittVector) -> bool:
    return not square(v)


def classify(v: WittVector) -> str:
    """"V0" for null vectors (including 0), "V1" otherwise."""
    return "V0" if is_null(v) else "V1"


def conj_vector(v: WittVector) -> WittVector:
    """Swap p and q roles, starring coefficients in complex mode."""
    return WittVector(
        v.algebra,
        [scalars.star(b) for b in v.beta],
        [scalars.star(a) for a in v.alpha],
    )


# -- the conjugation element C -----------------------------------------------


def _delta_element(algebra: Algebra, plus: bool) -> AlgebraElement:
    """Delta_+- = (p1 +- q1)(p2 +- q2)...(pm +- qm), built directly.

    Expanding the product site by site gives one all-singles word per choice
    mask t (bit set = pick p), with sign (-1)^(number of q picks) for Delta_-.
    """
    m = algebra.m
    one = algebra.one_scalar
    full = algebra.full_mask
    terms = {}
    for t in range(1 << m):
        coeff = one
        if not plus and (full ^ t).bit_count() & 1:
            coeff = -coeff
        terms[(t, t ^ full)] = coeff
    return AlgebraElement(algebra, terms, _trusted=True)


def delta_plus(algebra: Algebra) -> AlgebraElement:
    return _delta_element(algebra, plus=True)


def delta_minus(algebra: Algebra) -> AlgebraElement:
    return _delta_element(algebra, plus=False)


def C_element(algebra: Algebra) -> AlgebraElement:
    """C with C v C^(-1) = conj(v): Delta_+ for odd m, Delta_- for even m."""
    cached = algebra._cache.get("conj_C")
    if cached is None:
        cached = _build_C(algebra)
        algebra._cache["conj_C"] = cached
    return cached[0]


def C_inverse(algebra: Algebra) -> AlgebraElement:
    cached = algebra._cache.get("conj_C")
    if cached is None:
        cached = _build_C(algebra)
        algebra._cache["conj_C"] = cached
    return cached[1]


def _build_C(algebra: Algebra):
    m = algebra.m
    if m % 2 == 1:
        c = delta_plus(algebra)
        prefactor = -1 if (m * (m - 1) // 2) % 2 else 1
    else:
        c = delta_minus(algebra)
        prefactor = -1 if (m * (m + 1) // 2) % 2 else 1
    c_inv = c.scale(prefactor)
    if c * c_inv != algebra.identity():
        raise InternalCheckError("C * C^(-1) is not the identity")
    for i in range(1, m + 1):
        lhs = c * embed(p_vector(algebra, i)) * c_inv
        if lhs != embed(q_vector(algebra, i)):
            raise InternalCheckError(f"C p_{i} C^(-1) != q_{i}")
    return c, c_inv


def conj_element(x: AlgebraElement) -> AlgebraElement:
    """Conjugation on the whole algebra: C star(x) C^(-1)."""
    algebra = x.algebra
    return C_element(algebra) * x.star() * C_inverse(algebra)


# -- totally null planes ------------------------------------------------------


class TNPBasis:
    """Echelonized basis of a totally null plane."""

    __slots__ = ("algebra", "vectors")

    def __init__(self, algebra: Algebra, vectors):
        self.algebra = algebra
        self.vectors = tuple(vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, i):
        return self.vectors[i]

    def __eq__(self, other):
        return (
            isinstance(other, TNPBasis)
            and self.algebra == other.algebra
            and self.vectors == other.vectors
        )

    def __repr__(self):
        return f"TNPBasis(dim={self.dimension}, [{', '.join(map(repr, self.vectors))}])"

    def product_element(self) -> AlgebraElement:
        """Clifford product v1 v2 ... vk of the basis, as an element."""
        acc = self.algebra.identity()
        for v in self.vectors:
            acc = acc * embed(v)
        return acc


def echelonize_vectors(algebra: Algebra, vectors) -> list[WittVector]:
    """Canonical reduced-echelon basis of the span of the given vectors."""
    rows = [v.coords() for v in vectors if not v.is_zero()]
    if not rows:
        return []
    red, pivots = Matrix(rows).rref()
    m = algebra.m
    return [
        WittVector(algebra, red.rows[r][:m], red.rows[r][m:])
        for r in range(len(pivots))
    ]


def is_tnp(vectors) -> TNPBasis:
    """Validate pairwise nullity and return the echelonized independent basis.

    Raises NotTotallyNullError naming the first offending pair (i, i) for a
    non-null vector, (i, j) for a non-orthogonal pair.
    """
    vectors = list(vectors)
    if not vectors:
        raise NotTotallyNullError("empty vector list")
    algebra = vectors[0].algebra
    for v in vectors:
        algebra.check_compatible(v.algebra)
    for i, v in enumerate(vectors):
        if square(v):
            raise NotTotallyNullError(f"vector {i} is not null: v^2 = {square(v)}")
        for j in range(i + 1, len(vectors)):
            val = anticommutator_form(v, vectors[j])
            if val:
                raise NotTotallyNullError(
                    f"vectors {i} and {j} do not anticommute: {{v_{i}, v_{j}}} = {val}"
                )
    return TNPBasis(algebra, echelonize_vectors(algebra, vectors))


class WittFrame:
    """Hyperbolic frame: null bases (u_i), (w_i) with {u_i, w_j} = delta_ij.

    The u_i play the role of the q_i and the w_i the role of the p_i in an
    adapted basis.
    """

    __slots__ = ("algebra", "q_vecs", "p_vecs", "_probe_cache")

    def __init__(self, algebra: Algebra, q_vecs, p_vecs, check: bool = True):
        self.algebra = algebra
        self.q_vecs = tuple(q_vecs)
        self.p_vecs = tuple(p_vecs)
        self._probe_cache: dict = {}
        if check:
            self._validate()

    def _validate(self):
        qs, ps = self.q_vecs, self.p_vecs
        k = len(qs)
        if len(ps) != k:
            raise DimensionError("frame halves differ in size")
        one = self.algebra.one_scalar
        for i in range(k):
            for j in range(k):
                if anticommutator_form(qs[i], qs[j]):
                    raise NotTotallyNullError(f"{{u_{i}, u_{j}}} != 0")
                if anticommutator_form(ps[i], ps[j]):
                    raise NotTotallyNullError(f"{{w_{i}, w_{j}}} != 0")
                want = one if i == j else self.algebra.zero_scalar
                if anticommutator_form(qs[i], ps[j]) != want:
                    raise NotTotallyNullError(f"{{u_{i}, w_{j}}} != delta")

    @property
    def size(self) -> int:
        return len(self.q_vecs)


def standard_frame(algebra: Algebra) -> WittFrame:
    qs = [q_vector(algebra, i) for i in range(1, algebra.m + 1)]
    ps = [p_vector(algebra, i) for i in range(1, algebra.m + 1)]
    return WittFrame(algebra, qs, ps, check=False)


def normalize_tnp(tnp: TNPBasis) -> WittFrame:
    """Dual frame for a TNP: duals built by exact Gram-Schmidt against the
    conjugate basis, giving {v_i, w_j} = delta_ij with w_j in span{conj(v_i)}.

    (A rational rescaling to w_j = conj(v_j) itself is not possible in
    general; the pairing normalization is what downstream computations use.)
    """
    algebra = tnp.algebra
    basis = list(tnp.vectors)
    if not basis:
        raise NotTotallyNullError("cannot normalize an empty TNP")
    conjs = [conj_vector(v) for v in basis]
    k = len(basis)
    gram = Matrix(
        [[anticommutator_form(basis[i], conjs[t]) for t in range(k)] for i in range(k)]
    )
    ginv = gram.inverse()
    duals = []
    for j in range(k):
        w = None
        for t in range(k):
            piece = conjs[t] * ginv.rows[t][j]
            w = piece if w is None else w + piece
        duals.append(w)
    return WittFrame(algebra, basis, duals)
