"""Spinor spaces as minimal left ideals: the reference Fock column and its
annihilator machinery.

Spinors live in the column with (h∘g)-signature -e; a spinor is the map
a -> xi_a over the 2^m h-signatures, i.e. the element sum(xi_a Psi_(a,-e)).
Site letters in that column are q_i (a_i = +1) or p_i q_i (a_i = -1), so a
Witt basis vector acts on a Fock coordinate by flipping one site with a
sign counting the odd letters it crosses.  ``fock_flips`` tabulates that
action as sparse signed entries; the vector action, the annihilator system
and the stacked system behind S_(v1..vk) are all read off it and solved by
sparse elimination, and the results are cross-checked against the generic
product.
"""

from __future__ import annotations

import random
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


def _act_sparse(v: WittVector, items) -> dict:
    """v applied to the (amask, coeff) pairs, as a sparse coordinate map."""
    coeffs = v.coords()
    flips = fock_flips(v.algebra.m)
    acc: dict[int, object] = {}
    for am, c in items:
        if not c:
            continue
        for j, key, negative in flips[am]:
            coeff = coeffs[j]
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


def vector_act_coords(v: WittVector, coords: list) -> list:
    """Dense-coordinate version of the vector action on the Fock column."""
    out = [v.algebra.zero_scalar] * len(coords)
    for key, val in _act_sparse(v, enumerate(coords)).items():
        out[key] = val
    return out


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
    """Fast left action of a vector on Fock coordinates (bit-flip path)."""
    v.algebra.check_compatible(omega.algebra)
    return Spinor(v.algebra, _act_sparse(v, omega.xi.items()), _trusted=True)


def annihilator(omega: Spinor) -> TNPBasis:
    """M(omega) = {v : v omega = 0}, echelonized; rejects the zero spinor."""
    if omega.is_zero():
        raise ZeroSpinorError("the zero spinor is annihilated by all of V")
    algebra = omega.algebra
    m = algebra.m
    flips = fock_flips(m)
    # row t, column j: coefficient of Psi_t in (basis vector j) omega
    rows: dict[int, dict] = {}
    for am, c in omega.xi.items():
        for j, target, negative in flips[am]:
            # each (target, j) pair arises from exactly one am
            rows.setdefault(target, {})[j] = -c if negative else c
    kernel = kernel_rows(rows.values(), 2 * m, algebra.one_scalar)
    zero = algebra.zero_scalar
    vectors = []
    for vec in kernel:
        coords = [vec.get(j, zero) for j in range(2 * m)]
        vectors.append(WittVector(algebra, coords[:m], coords[m:]))
    basis = is_tnp(vectors) if vectors else TNPBasis(algebra, [])
    for v in basis:
        if not vector_act(v, omega).is_zero():
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
    (optionally) re-derived as the image of left multiplication by v1...vk;
    the two canonical bases are asserted equal and the dimension asserted to
    be 2^(m-k)."""
    algebra = tnp.algebra
    k = tnp.dimension
    if k < 1:
        raise DimensionError("annihilated_subspace needs a TNP of dimension >= 1")
    is_tnp(tnp.vectors)  # rejects non-TNP input
    m = algebra.m
    n = 1 << m
    flips = fock_flips(m)
    # row (v, t), column a: coefficient of Psi_t in v Psi_a
    system = []
    for v in tnp:
        coeffs = v.coords()
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
        product = tnp.product_element()
        images = [
            act(product, Spinor.fock(algebra, a)) for a in range(n)
        ]
        image_space = SpinorSubspace.from_spinors(algebra, images)
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
    product = tnp.product_element()
    while True:
        phi = Spinor(
            algebra,
            {
                a: scalars.random_scalar(rng, algebra.field, nonzero=True, height=height)
                for a in range(n)
            },
        )
        omega = act(product, phi)
        if not omega.is_zero():
            return omega


def tnp_change_of_basis_scale(tnp: TNPBasis, transform: Matrix):
    """Verify v1'...vk' Phi = det(A) v1...vk Phi for v' = A v and return det(A).

    Checked both as algebra elements and as maps on the Fock basis.  A
    singular A makes the product map the zero map, reported distinctly.
    """
    algebra = tnp.algebra
    k = tnp.dimension
    if transform.nrows != k or transform.ncols != k:
        raise DimensionError("transform must be k x k for a TNP of dimension k")
    new_vectors = []
    for i in range(k):
        w = None
        for j in range(k):
            piece = tnp[j] * transform.rows[i][j]
            w = piece if w is None else w + piece
        new_vectors.append(w)
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
    for a in range(1 << algebra.m):
        fock = Spinor.fock(algebra, a)
        if act(transformed, fock) != act(original, fock).scale(det):
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


def complete_tnp(tnp: TNPBasis, rng=None) -> TNPBasis:
    """Extend a TNP to a maximal one (dimension m).

    Searches simple spinors of the form (v1...vk) Psi_a over the Fock basis;
    the annihilator of the first nonzero simple product contains the input
    plane.  Falls back to random spinors from the annihilated subspace.
    """
    algebra = tnp.algebra
    m = algebra.m
    if tnp.dimension == m:
        return tnp
    product = tnp.product_element() if tnp.dimension else algebra.identity()

    def try_candidate(sigma: Spinor):
        if sigma.is_zero():
            return None
        found = annihilator(sigma)
        if found.dimension != m:
            return None
        for v in tnp:
            if not vector_act(v, sigma).is_zero():
                return None
        return found

    for a in range(1 << m):
        result = try_candidate(act(product, Spinor.fock(algebra, a)))
        if result is not None:
            return result
    rng = rng or random.Random(0xC0FFEE)
    for _ in range(64):
        result = try_candidate(act(product, generic_spinor_sample(TNPBasis(algebra, []), rng)))
        if result is not None:
            return result
    raise InternalCheckError("could not complete the TNP to maximal dimension")
