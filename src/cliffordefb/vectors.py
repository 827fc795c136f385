"""The vector space V inside Cl(m,m): Witt basis, null vectors, conjugation.

A vector v = sum(alpha_i p_i + beta_i q_i) is a ``StoredForm`` keyed by
coordinate index (README, "Stored form"): j < m holds alpha_(j+1) and m + j
holds beta_(j+1); ``alpha``, ``beta`` and ``coords()`` are its field-value
views, zeros included.  All quadratic-form arithmetic runs on the numerators,
with the algebra embedding used only where a Clifford product is genuinely
needed.  The anticommutator form is
{v, u} = sum(alpha_i delta_i + beta_i gamma_i) for
u = sum(gamma_i p_i + delta_i q_i), so v^2 = sum(alpha_i beta_i).

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
from .linalg import Matrix, rref_numerators
from .algebra import Algebra, AlgebraElement, StoredForm
from .scalars import FIELD_Q, GaussInt


class WittVector(StoredForm):
    """Vector in Witt coordinates: ``nums`` maps coordinate index j to a
    nonzero numerator over ``den``, j < m for p_(j+1) and m + j for
    q_(j+1)."""

    __slots__ = ()

    @staticmethod
    def _key_in_range(algebra: Algebra, key) -> bool:
        """A coordinate index: an int in 0 .. 2m - 1."""
        return type(key) is int and 0 <= key < 2 * algebra.m

    @property
    def alpha(self) -> tuple:
        """The p_i coordinates as field values; built on each read."""
        return tuple(self._values(range(self.algebra.m)))

    @property
    def beta(self) -> tuple:
        """The q_i coordinates as field values; built on each read."""
        m = self.algebra.m
        return tuple(self._values(range(m, 2 * m)))

    def coords(self) -> list:
        """Flat coordinate list (alpha then beta, zeros included) as field
        values; built on each read."""
        return self._values(range(2 * self.algebra.m))

    def _values(self, keys) -> list:
        den, from_integer, get = self.den, scalars.from_integer, self.nums.get
        zero = self.algebra.zero_num
        return [from_integer(get(j, zero), den) for j in keys]

    def __repr__(self):
        m, den, nums = self.algebra.m, self.den, self.nums
        parts = [
            f"({scalars.format_numerator(nums[j], den)}){name}{i + 1}"
            for i in range(m)
            for j, name in ((i, "p"), (m + i, "q"))
            if j in nums
        ]
        return " + ".join(parts) if parts else "0"


def p_vector(algebra: Algebra, i: int) -> WittVector:
    _check_site(algebra, i)
    return WittVector.from_numerators(algebra, {i - 1: algebra.one_num})


def q_vector(algebra: Algebra, i: int) -> WittVector:
    _check_site(algebra, i)
    return WittVector.from_numerators(algebra, {algebra.m + i - 1: algebra.one_num})


def gamma_vector(algebra: Algebra, i: int) -> WittVector:
    """gamma_{2k-1} = p_k + q_k, gamma_{2k} = p_k - q_k."""
    if not 1 <= i <= 2 * algebra.m:
        raise DimensionError(f"gamma index {i} out of range 1..{2 * algebra.m}")
    site = (i + 1) // 2
    one = algebra.one_num
    return WittVector.from_numerators(
        algebra, {site - 1: one, algebra.m + site - 1: one if i % 2 == 1 else -one}
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
    one = algebra.one_num
    ps = []
    qs = []
    for i in range(1, m + 1):
        p = m - i
        bit = 1 << p
        others = [c for c in range(1 << m) if not c & bit]
        # couples elsewhere: a_j = b_j; odd site i: p has (abit, bbit) = (1, 0),
        # q has (0, 1)
        ps.append(AlgebraElement.from_numerators(algebra, {(c | bit, c): one for c in others}))
        qs.append(AlgebraElement.from_numerators(algebra, {(c, c | bit): one for c in others}))
    algebra._cache["witt_embeddings"] = (ps, qs)
    return ps, qs


def embed(v: WittVector) -> AlgebraElement:
    """The vector as an algebra element (sum of 2m * 2^(m-1) basis words): the
    p_i and q_i embeddings have disjoint supports and unit coefficients, so
    each takes its coordinate's numerator over the vector's denominator."""
    algebra = v.algebra
    m = algebra.m
    ps, qs = _basis_embeddings(algebra)
    nums = {}
    # site by site, p_i before q_i
    for j in sorted(v.nums, key=lambda j: (j % m, j)):
        num = v.nums[j]
        for key in (ps[j] if j < m else qs[j - m]).nums:
            nums[key] = num
    return AlgebraElement.from_numerators(algebra, nums, v.den)


def element_of_vectors(algebra: Algebra, vectors) -> AlgebraElement:
    """Clifford product v1 v2 ... vk as an element (the identity for k = 0)."""
    acc = None
    for v in vectors:
        algebra.check_compatible(v.algebra)
        acc = embed(v) if acc is None else acc * embed(v)
    return algebra.identity() if acc is None else acc


def embed_gamma(algebra: Algebra, i: int) -> AlgebraElement:
    return embed(gamma_vector(algebra, i))


def anticommutator_form(v: WittVector, u: WittVector):
    """{v, u} as a field element (half the polarization of the square)."""
    v.algebra.check_compatible(u.algebra)
    return scalars.from_integer(_integer_form(v.algebra, v.nums, u.nums), v.den * u.den)


def _integer_form(algebra: Algebra, x: dict, y: dict):
    """{v, u} on integer coordinates keyed by index, scaled by the two
    denominators: key j of x pairs with key j + m (alpha with beta) or
    j - m of y.  For x = y it is twice the scaled square."""
    m, total = algebra.m, algebra.zero_num
    for j, a in x.items():
        b = y.get(j + m if j < m else j - m)
        if b is not None:
            total = total + a * b
    return total


def square(v: WittVector):
    """v^2 = sum(alpha_i beta_i), half the form of v with itself."""
    return scalars.from_integer(_integer_form(v.algebra, v.nums, v.nums), 2 * v.den * v.den)


def is_null(v: WittVector) -> bool:
    return not _integer_form(v.algebra, v.nums, v.nums)


def classify(v: WittVector) -> str:
    """"V0" for null vectors (including 0), "V1" otherwise."""
    return "V0" if is_null(v) else "V1"


def conj_vector(v: WittVector) -> WittVector:
    """Swap p and q roles, starring coefficients in complex mode."""
    m = v.algebra.m
    swapped = sorted(((j + m) % (2 * m), x) for j, x in v.nums.items())
    if v.algebra.field != FIELD_Q:
        swapped = [(j, GaussInt(x.re, -x.im)) for j, x in swapped]
    return WittVector.from_numerators(v.algebra, dict(swapped), v.den)


# -- the conjugation element C -----------------------------------------------


def _delta_element(algebra: Algebra, plus: bool) -> AlgebraElement:
    """Delta_+- = (p1 +- q1)(p2 +- q2)...(pm +- qm), built directly.

    Expanding the product site by site gives one all-singles word per choice
    mask t (bit set = pick p), with sign (-1)^(number of q picks) for Delta_-.
    """
    m = algebra.m
    one = algebra.one_num
    full = algebra.full_mask
    nums = {}
    for t in range(1 << m):
        nums[(t, t ^ full)] = -one if not plus and (full ^ t).bit_count() & 1 else one
    return AlgebraElement.from_numerators(algebra, nums)


def delta_plus(algebra: Algebra) -> AlgebraElement:
    return _delta_element(algebra, plus=True)


def delta_minus(algebra: Algebra) -> AlgebraElement:
    return _delta_element(algebra, plus=False)


def C_element(algebra: Algebra) -> AlgebraElement:
    """C with C v C^(-1) = conj(v): Delta_+ for odd m, Delta_- for even m."""
    return _conj_C(algebra)[0]


def C_inverse(algebra: Algebra) -> AlgebraElement:
    return _conj_C(algebra)[1]


def _conj_C(algebra: Algebra):
    """(C, C^-1), built and verified once per algebra."""
    cached = algebra._cache.get("conj_C")
    if cached is None:
        cached = _build_C(algebra)
        algebra._cache["conj_C"] = cached
    return cached


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
        return element_of_vectors(self.algebra, self.vectors)


def echelonize_vectors(algebra: Algebra, vectors) -> list[WittVector]:
    """Canonical reduced-echelon basis of the span of the given vectors,
    eliminated on their numerators."""
    return [
        WittVector.from_numerators(algebra, row, lead)
        for row, lead in rref_numerators([v.nums for v in vectors])
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
    check_totally_null(algebra, [(v.nums, v.den) for v in vectors])
    return TNPBasis(algebra, echelonize_vectors(algebra, vectors))


def check_totally_null(algebra: Algebra, coords):
    """The Gram check of a plane on integer coordinates: ``coords`` holds one
    (numerators keyed by index, denominator) pair per vector, the stored
    form.

    Raises NotTotallyNullError naming the first offending pair (i, i) for a
    non-null vector, (i, j) for a non-orthogonal pair, with the value of the
    form on the vectors the pairs stand for.
    """
    for i, (x, dx) in enumerate(coords):
        form = _integer_form(algebra, x, x)
        if form:
            val = scalars.from_integer(form, 2 * dx * dx)
            raise NotTotallyNullError(f"vector {i} is not null: v^2 = {val}")
        for j in range(i + 1, len(coords)):
            y, dy = coords[j]
            form = _integer_form(algebra, x, y)
            if form:
                val = scalars.from_integer(form, dx * dy)
                raise NotTotallyNullError(
                    f"vectors {i} and {j} do not anticommute: {{v_{i}, v_{j}}} = {val}"
                )


class WittFrame:
    """Hyperbolic frame: null bases (u_i), (w_i) with {u_i, w_j} = delta_ij.

    The u_i play the role of the q_i and the w_i the role of the p_i in an
    adapted basis.
    """

    __slots__ = ("algebra", "q_vecs", "p_vecs")

    def __init__(self, algebra: Algebra, q_vecs, p_vecs):
        self.algebra = algebra
        self.q_vecs = tuple(q_vecs)
        self.p_vecs = tuple(p_vecs)
        self._validate()

    def _validate(self):
        """The Gram identity of the frame on integer coordinates: with d the
        denominator of each vector, {u_i, w_j} d(u_i) d(w_j) = delta_ij
        d(u_i) d(w_j) and both halves are totally null."""
        qs, ps, algebra = self.q_vecs, self.p_vecs, self.algebra
        k = len(qs)
        if len(ps) != k:
            raise DimensionError("frame halves differ in size")
        us = [(v.nums, v.den) for v in qs]
        ws = [(v.nums, v.den) for v in ps]
        for i in range(k):
            for j in range(k):
                if j >= i and _integer_form(algebra, us[i][0], us[j][0]):
                    raise NotTotallyNullError(f"{{u_{i}, u_{j}}} != 0")
                if j >= i and _integer_form(algebra, ws[i][0], ws[j][0]):
                    raise NotTotallyNullError(f"{{w_{i}, w_{j}}} != 0")
                want = us[i][1] * ws[j][1] if i == j else 0
                if _integer_form(algebra, us[i][0], ws[j][0]) != want:
                    raise NotTotallyNullError(f"{{u_{i}, w_{j}}} != delta")

    @property
    def size(self) -> int:
        return len(self.q_vecs)


def standard_frame(algebra: Algebra) -> WittFrame:
    qs = [q_vector(algebra, i) for i in range(1, algebra.m + 1)]
    ps = [p_vector(algebra, i) for i in range(1, algebra.m + 1)]
    return WittFrame(algebra, qs, ps)


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
    conjs = [conj_vector(v).nums for v in basis]
    # w_j = sum_t conj(v_t) G^-1[t][j] for the k x k Gram matrix G[i][t] =
    # {v_i, conj(v_t)}.  On numerators G = D^-1 F E^-1, with F[i][t] the
    # form on v_i's and conj(v_t)'s numerators and D, E the diagonals of
    # their denominators, so w_j = d_j sum_t C_t F^-1[t][j] on the
    # conjugates' numerators C_t: one integer combination a dual
    inverse = Matrix(
        [[scalars.from_integer(_integer_form(algebra, v.nums, c), 1) for c in conjs] for v in basis]
    ).inverse()
    field = algebra.field
    duals = []
    for j, v in enumerate(basis):
        coeffs, den = scalars.common_denominator(scalars.to_numerator(row[j], field) for row in inverse.rows)
        acc: dict[int, object] = {}
        for x, c in zip(coeffs, conjs):
            for key, y in c.items():
                acc[key] = acc.get(key, 0) + x * y
        nums = {key: y * v.den for key, y in acc.items() if y}
        duals.append(WittVector.from_numerators(algebra, nums, den))
    return WittFrame(algebra, basis, duals)
