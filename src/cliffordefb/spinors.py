"""Spinor spaces as minimal left ideals: the reference Fock column and its
annihilator machinery.

Spinors live in the column with (h∘g)-signature -e; a spinor is the map
a -> xi_a over the 2^m h-signatures, i.e. the element sum(xi_a Psi_(a,-e)).
Site letters in that column are q_i (a_i = +1) or p_i q_i (a_i = -1), so a
Witt basis vector acts on a Fock coordinate by flipping one site with a
sign counting the odd letters it crosses.  ``fock_flips`` tabulates that
action as sparse signed entries; the vector action, the annihilator system
and the stacked system behind S_(v1..vk) are all read off it and solved by
sparse elimination.  A product of vectors v1...vk acting on a spinor is a
chain of that action, never a dense algebra element; the generic product
(``act``) stays as the independent route for the harness.  The action runs
on integer numerators (Gaussian integers over Q(i)) over the vector's and
the spinor's common denominators, and divides only when it emits a spinor.
The annihilator's and the subspace's systems, and the image route's chains,
reach the elimination as those numerators: a kernel does not change when a
row is scaled.
"""

from __future__ import annotations

from functools import cache

from .errors import (
    DimensionError,
    InternalCheckError,
    SingularTransformError,
    ZeroSpinorError,
)
from . import scalars
from .linalg import Matrix, kernel_rows, rref_rows
from .algebra import Algebra, AlgebraElement
from .vectors import TNPBasis, WittVector, embed_gamma, is_tnp


@cache
def fock_flips(m: int) -> tuple:
    """The Witt basis action on the Fock column as sparse signed entries.

    Entry a lists one (j, target, negative) per site: the basis vector with
    index j in ``WittVector.coords()`` (p_i where a_i = +1, q_i where
    a_i = -1) sends Psi_a to -Psi_target if ``negative`` else Psi_target,
    where target flips site i of a; the sign counts the odd letters (q_j
    singles, a_j = +1) at the sites j < i.
    """
    table = []
    for am in range(1 << m):
        entries = []
        for i in range(m):
            p = m - 1 - i
            j = i if (am >> p) & 1 == 0 else m + i
            zeros_above = i - (am >> (p + 1)).bit_count()
            entries.append((j, am ^ (1 << p), bool(zeros_above & 1)))
        table.append(tuple(entries))
    return tuple(table)


def integer_action(nums, items, flips) -> dict:
    """Integer Witt coordinates applied to integer (amask, coeff) pairs: the
    numerators of the action over the product of the two denominators."""
    acc: dict[int, object] = {}
    for am, c in items:
        for j, key, negative in flips[am]:
            coeff = nums[j]
            if not coeff:
                continue
            val = -coeff * c if negative else coeff * c
            prev = acc.get(key)
            val = val if prev is None else prev + val
            if val:
                acc[key] = val
            elif prev is not None:
                del acc[key]
    return acc


def integer_spinor(algebra: Algebra, items) -> tuple[list, int]:
    """The nonzero (amask, coeff) pairs with integer coefficients, and their
    common denominator."""
    items = [(am, c) for am, c in items if c]
    nums, den = scalars.to_integers(
        [c for _am, c in items], algebra.field == scalars.FIELD_QI
    )
    return [(am, num) for (am, _c), num in zip(items, nums)], den


def vector_act_coords(v: WittVector, coords: list) -> list:
    """Dense-coordinate version of the vector action on the Fock column."""
    return vector_act(v, Spinor.from_coords(v.algebra, coords)).coords()


class Spinor:
    """Element of the reference column S_(-e): sparse map amask -> scalar."""

    __slots__ = ("algebra", "xi")

    def __init__(self, algebra: Algebra, xi, _trusted: bool = False):
        self.algebra = algebra
        if _trusted:
            self.xi = xi
        else:
            clean = {}
            for amask, coeff in dict(xi).items():
                coeff = algebra.coerce(coeff)
                if coeff:
                    clean[amask] = coeff
            self.xi = clean

    @staticmethod
    def fock(algebra: Algebra, amask: int, coeff=1) -> Spinor:
        """Basis spinor Psi_a."""
        return Spinor(algebra, {amask: coeff})

    @staticmethod
    def zero(algebra: Algebra) -> Spinor:
        return Spinor(algebra, {}, _trusted=True)

    @staticmethod
    def from_element(x: AlgebraElement) -> Spinor:
        full = x.algebra.full_mask
        xi = {}
        for (a, b), coeff in x.terms.items():
            if b != full:
                raise DimensionError("element is not supported on the reference column")
            xi[a] = coeff
        return Spinor(x.algebra, xi, _trusted=True)

    def to_element(self) -> AlgebraElement:
        full = self.algebra.full_mask
        return AlgebraElement(
            self.algebra, {(a, full): c for a, c in self.xi.items()}, _trusted=True
        )

    def coords(self) -> list:
        """Dense coordinate list indexed by amask."""
        zero = self.algebra.zero_scalar
        out = [zero] * (1 << self.algebra.m)
        for a, c in self.xi.items():
            out[a] = c
        return out

    @staticmethod
    def from_coords(algebra: Algebra, coords) -> Spinor:
        return Spinor(algebra, {a: c for a, c in enumerate(coords) if c})

    def __bool__(self):
        return bool(self.xi)

    def is_zero(self) -> bool:
        return not self.xi

    def __eq__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return self.algebra == other.algebra and self.xi == other.xi

    def __hash__(self):
        return hash((self.algebra, frozenset(self.xi.items())))

    def __add__(self, other):
        self.algebra.check_compatible(other.algebra)
        acc = dict(self.xi)
        for a, c in other.xi.items():
            val = acc.get(a)
            val = c if val is None else val + c
            if val:
                acc[a] = val
            elif a in acc:
                del acc[a]
        return Spinor(self.algebra, acc, _trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Spinor(self.algebra, {a: -c for a, c in self.xi.items()}, _trusted=True)

    def scale(self, c) -> Spinor:
        c = self.algebra.coerce(c)
        if not c:
            return Spinor.zero(self.algebra)
        return Spinor(self.algebra, {a: v * c for a, v in self.xi.items()}, _trusted=True)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def chirality(self):
        return self.to_element().chirality()

    def support_size(self) -> int:
        return len(self.xi)

    def __repr__(self):
        if not self.xi:
            return "Spinor<0>"
        parts = [
            f"({scalars.format_scalar(c)})*Psi_{a}" for a, c in sorted(self.xi.items())
        ]
        return " + ".join(parts)


def act(x: AlgebraElement, omega: Spinor) -> Spinor:
    """Left action of an algebra element; the column is preserved."""
    return Spinor.from_element(x.algebra.mul(x, omega.to_element()))


def vector_act(v: WittVector, omega: Spinor) -> Spinor:
    """Left action of one vector on Fock coordinates: a chain of length one."""
    return apply_vector_chain([v], omega)


def apply_vector_chain(vectors: list[WittVector], omega: Spinor) -> Spinor:
    """v_1 v_2 ... v_t omega, rightmost factor acting first; the chain runs
    on integer numerators and divides once, when it emits the spinor."""
    algebra = omega.algebra
    ints, v_den = _integer_chain_vectors(algebra, vectors)
    pairs, den = integer_spinor(algebra, omega.xi.items())
    return _emit(algebra, _integer_chain(ints, pairs, fock_flips(algebra.m)), den * v_den)


def fock_chain_images(vectors, algebra: Algebra):
    """(den, images): images yields (a, numerators of v_1 ... v_k Psi_a) for
    every Fock index a in order, each an integer map amask -> numerator over
    den, the product of the vectors' denominators.  The vectors are scaled
    to integers once for all 2^m chains."""
    ints, den = _integer_chain_vectors(algebra, vectors)
    flips = fock_flips(algebra.m)
    unit = integer_spinor(algebra, [(0, algebra.one_scalar)])[0][0][1]
    images = ((a, _integer_chain(ints, [(a, unit)], flips)) for a in range(1 << algebra.m))
    return den, images


def _integer_chain_vectors(algebra: Algebra, vectors) -> tuple[list, int]:
    """The chain's integer Witt coordinates in the order they act (the last
    vector first), and the product of their denominators."""
    ints = []
    den = 1
    for v in reversed(vectors):
        algebra.check_compatible(v.algebra)
        nums, v_den = v.integer_coords()
        ints.append(nums)
        den *= v_den
    return ints, den


def _integer_chain(ints, pairs, flips) -> dict:
    """Integer vectors applied in turn to integer (amask, coeff) pairs."""
    for nums in ints:
        if not pairs:
            break
        pairs = integer_action(nums, pairs, flips).items()
    return dict(pairs)


def _emit(algebra: Algebra, nums: dict, den: int) -> Spinor:
    """The spinor with the given integer numerators over den."""
    return Spinor(
        algebra, {am: scalars.from_integer(x, den) for am, x in nums.items()}, _trusted=True
    )


def annihilator(omega: Spinor) -> TNPBasis:
    """M(omega) = {v : v omega = 0}, echelonized; rejects the zero spinor."""
    if omega.is_zero():
        raise ZeroSpinorError("the zero spinor is annihilated by all of V")
    algebra = omega.algebra
    m = algebra.m
    flips = fock_flips(m)
    pairs, _den = integer_spinor(algebra, omega.xi.items())
    # row t, column j: numerator of the coefficient of Psi_t in (basis
    # vector j) omega
    rows: dict[int, dict] = {}
    for am, c in pairs:
        for j, target, negative in flips[am]:
            # each (target, j) pair arises from exactly one am
            rows.setdefault(target, {})[j] = -c if negative else c
    kernel = kernel_rows(rows.values(), 2 * m, algebra.one_scalar)
    zero = algebra.zero_scalar
    vectors = []
    for vec in kernel:
        coords = [vec.get(j, zero) for j in range(2 * m)]
        vectors.append(WittVector(algebra, coords[:m], coords[m:], _trusted=True))
    basis = is_tnp(vectors) if vectors else TNPBasis(algebra, [])
    for v in basis:
        if integer_action(v.integer_coords()[0], pairs, flips):
            raise InternalCheckError("annihilator member does not annihilate")
    return basis


class SpinorSubspace:
    """Linear subspace of S in canonical reduced echelon form."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: Algebra, rows):
        self.algebra = algebra
        self.rows = list(rows)  # reduced echelon rows {amask: coeff}, by pivot

    @staticmethod
    def from_spinors(algebra: Algebra, spinors) -> SpinorSubspace:
        return SpinorSubspace(algebra, rref_rows(s.xi for s in spinors)[0])

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> Matrix:
        """The echelon rows as a dense matrix over coordinates 0..2^m-1."""
        zero = self.algebra.zero_scalar
        n = 1 << self.algebra.m
        return Matrix([[row.get(a, zero) for a in range(n)] for row in self.rows])

    def basis(self) -> list[Spinor]:
        return [Spinor(self.algebra, dict(row), _trusted=True) for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, SpinorSubspace)
            and self.algebra == other.algebra
            and self.rows == other.rows
        )

    def contains(self, omega: Spinor) -> bool:
        if omega.is_zero():
            return True
        return len(rref_rows(self.rows + [omega.xi])[1]) == self.dimension

    def intersection(self, other: SpinorSubspace) -> SpinorSubspace:
        """Canonical basis of the intersection of two subspaces."""
        if self.dimension == 0 or other.dimension == 0:
            return SpinorSubspace(self.algebra, [])
        # coordinate t: sum_j x_j self_j[t] - sum_l y_l other_l[t] = 0
        system: dict[int, dict] = {}
        for j, row in enumerate(self.rows):
            for t, x in row.items():
                system.setdefault(t, {})[j] = x
        offset = self.dimension
        for l, row in enumerate(other.rows):
            for t, x in row.items():
                system.setdefault(t, {})[offset + l] = -x
        spinors = []
        for vec in kernel_rows(system.values(), offset + other.dimension, self.algebra.one_scalar):
            acc = Spinor.zero(self.algebra)
            for j, cf in vec.items():
                if j < offset:
                    acc = acc + Spinor(self.algebra, self.rows[j], _trusted=True).scale(cf)
            spinors.append(acc)
        return SpinorSubspace.from_spinors(self.algebra, spinors)


def annihilated_subspace(tnp: TNPBasis, cross_check: bool = True) -> SpinorSubspace:
    """S_(v1..vk), computed as one joint kernel of the stacked actions and
    (optionally) re-derived as the image of v1...vk, spanned by the Fock
    chains v1...vk Psi_a; the two canonical bases are asserted equal and the
    dimension asserted to be 2^(m-k)."""
    algebra = tnp.algebra
    if tnp.dimension:
        tnp = is_tnp(tnp.vectors)  # rejects non-TNP input; drops dependent vectors
    k = tnp.dimension
    if k < 1:
        raise DimensionError("annihilated_subspace needs a TNP of dimension >= 1")
    m = algebra.m
    n = 1 << m
    flips = fock_flips(m)
    # row (v, t), column a: numerator of the coefficient of Psi_t in v Psi_a
    system = []
    for v in tnp:
        coeffs = v.integer_coords()[0]
        rows: dict[int, dict] = {}
        for am in range(n):
            for j, target, negative in flips[am]:
                coeff = coeffs[j]
                if coeff:
                    rows.setdefault(target, {})[am] = -coeff if negative else coeff
        system.extend(rows.values())
    kernel = kernel_rows(system, n, algebra.one_scalar)
    kernel_space = SpinorSubspace.from_spinors(
        algebra, [Spinor(algebra, vec, _trusted=True) for vec in kernel]
    )
    expected = 1 << (m - k)
    if kernel_space.dimension != expected:
        raise InternalCheckError(
            f"dim S_(v1..vk) = {kernel_space.dimension}, expected {expected}"
        )
    if cross_check:
        _den, chains = fock_chain_images(tnp.vectors, algebra)
        image_space = SpinorSubspace(algebra, rref_rows(nums for _a, nums in chains)[0])
        if image_space != kernel_space:
            raise InternalCheckError("kernel and image routes disagree on S_(v1..vk)")
    return kernel_space


def generic_spinor_sample(tnp: TNPBasis | None, rng, height: int = 20) -> Spinor:
    """Random v1...vk * Phi; for k = 0 a general-position Phi (all coords nonzero)."""
    algebra = tnp.algebra if tnp is not None else None
    if algebra is None:
        raise DimensionError("pass a TNPBasis (possibly of dimension 0)")
    n = 1 << algebra.m
    if tnp.dimension == 0:
        xi = {
            a: scalars.random_scalar(rng, algebra.field, nonzero=True, height=height)
            for a in range(n)
        }
        return Spinor(algebra, xi)
    while True:
        phi = Spinor(
            algebra,
            {
                a: scalars.random_scalar(rng, algebra.field, nonzero=True, height=height)
                for a in range(n)
            },
        )
        omega = apply_vector_chain(tnp.vectors, phi)
        if not omega.is_zero():
            return omega
        if not any(nums for _a, nums in fock_chain_images(tnp.vectors, algebra)[1]):
            raise DimensionError("v1...vk is the zero map: the vectors are dependent")


def tnp_change_of_basis_scale(tnp: TNPBasis, transform: Matrix):
    """Verify v1'...vk' Phi = det(A) v1...vk Phi for v' = A v and return det(A).

    Checked both as algebra elements and as maps on the Fock basis, the
    latter by the Fock chains of both bases, a route independent of
    ``Algebra.mul``.  A singular A makes the product map the zero map,
    reported distinctly.
    """
    algebra = tnp.algebra
    k = tnp.dimension
    if transform.nrows != k or transform.ncols != k:
        raise DimensionError("transform must be k x k for a TNP of dimension k")
    # v'_i = sum_j A_ij v_j, coordinate by coordinate in j order
    coords = [v.coords() for v in tnp]
    new_vectors = []
    for row in transform.rows:
        acc = None
        for vec, a in zip(coords, row):
            a = algebra.coerce(a)
            acc = [x * a for x in vec] if acc is None else [s + x * a for s, x in zip(acc, vec)]
        new_vectors.append(WittVector(algebra, acc[:algebra.m], acc[algebra.m:], _trusted=True))
    det = transform.det()
    original = tnp.product_element()
    transformed = TNPBasis(algebra, new_vectors).product_element()
    if not det:
        if not transformed.is_zero():
            raise InternalCheckError("singular transform gave a nonzero product")
        raise SingularTransformError(
            "transform is singular: the product map v1'...vk' is the zero map"
        )
    if transformed != original.scale(det):
        raise InternalCheckError("product element does not scale by det(A)")
    (det_num,), det_den = scalars.to_integers([det], algebra.field == scalars.FIELD_QI)
    new_den, new_chains = fock_chain_images(new_vectors, algebra)
    old_den, old_chains = fock_chain_images(tnp.vectors, algebra)
    # new / new_den = (det_num / det_den) old / old_den, denominators cleared
    left, right = det_den * old_den, det_num * new_den
    for (_a, new), (_b, old) in zip(new_chains, old_chains):
        if new.keys() != old.keys() or any(new[t] * left != x * right for t, x in old.items()):
            raise InternalCheckError("product maps on S do not scale by det(A)")
    return det


def column_of(x: AlgebraElement) -> int:
    """Common column (h∘g bitmask) of a column-supported element."""
    column = None
    for (_a, b) in x.terms:
        if column is None:
            column = b
        elif column != b:
            raise DimensionError("element is not supported on a single column")
    if column is None:
        raise ZeroSpinorError("zero element has no column")
    return column


def spinor_space_switch(x: AlgebraElement, sites) -> AlgebraElement:
    """Move a column spinor to the column differing at the given sites by
    right multiplication with (p_i + q_i) for each site i."""
    algebra = x.algebra
    sites = sorted(set(sites))
    if not sites:
        return x
    source = column_of(x)
    out = x
    for i in sites:
        out = out * embed_gamma(algebra, 2 * i - 1)
    if not out.is_zero():
        expected = source
        for i in sites:
            expected ^= 1 << (algebra.m - i)
        if column_of(out) != expected:
            raise InternalCheckError("switched element landed in the wrong column")
    return out


def complete_tnp(tnp: TNPBasis) -> TNPBasis:
    """Extend a TNP to a maximal one (dimension m).

    Cl(m,m) acts faithfully on S, so the plane's chain v1...vk sends some
    Fock spinor Psi_a to a nonzero spinor; the first such spinor, computed
    on the Fock coordinates, is simple and annihilated by the plane (both
    checked), and its annihilator is returned.
    """
    algebra = tnp.algebra
    m = algebra.m
    if tnp.dimension == m:
        return tnp
    den, chains = fock_chain_images(tnp.vectors, algebra)
    for _a, nums in chains:
        if nums:
            break
    else:
        raise InternalCheckError("the plane's product annihilates every Fock spinor")
    sigma = _emit(algebra, nums, den)
    found = annihilator(sigma)
    if found.dimension != m:
        raise InternalCheckError("(v1...vk) Psi_a is not simple")
    if any(not vector_act(v, sigma).is_zero() for v in tnp):
        raise InternalCheckError("(v1...vk) Psi_a is not annihilated by the plane")
    return found
