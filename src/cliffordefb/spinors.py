"""Spinor spaces as minimal left ideals: the reference Fock column and its
annihilator machinery.

Spinors live in the column with (h∘g)-signature -e; a spinor is the map
a -> xi_a over the 2^m h-signatures, i.e. the element sum(xi_a Psi_(a,-e)).
Site letters in that column are q_i (a_i = +1) or p_i q_i (a_i = -1), so a
Witt basis vector acts on a Fock coordinate by flipping one site with a
sign counting the odd letters it crosses.  With site i at bit p = m - i,
p_i (coordinate i - 1) acts on Psi_a iff bit p of a is clear and q_i
(coordinate m + i - 1) iff it is set, so each one bisects the Fock basis
into the 2^(m-1) indices it moves and those it kills; either one sends
Psi_a to -Psi_(a ^ 2^p) iff bit p of ``above[a ^ full]`` is set (an odd
number of q singles above site i), else to +Psi_(a ^ 2^p).  Every loop
below reads that parity table of the product sign (``Algebra._above``)
inline: the vector action, the annihilator system and the stacked system
behind S_(v1..vk), solved by sparse elimination.  A product of vectors
v1...vk acting on a spinor is a chain of that action, never a dense algebra
element; the generic product (``act``) stays as the independent route for
the harness.  A spinor is a ``StoredForm`` keyed by amask (README,
"Stored form"), with ``xi`` and ``coords()`` its field-value views.  The
action runs on the vector's and the spinor's stored numerators, over the
product of their denominators, and reduces once when it emits a spinor.
The annihilator's and the subspace's systems, and the image route's chains,
are built from those numerators: a kernel does not change when a row is
scaled, and the echelon vectors and spinors are read off the integer pivot
rows.  The annihilator's system has 2^m rows but only 2m columns, so it
keeps the kernel of the rows seen so far (``tall_kernel``) and echelonizes
the k <= m integer vectors left; the subspace's system has 2^m columns and
goes through the elimination.  One certificate, ``_annihilates``, checks
that each of k vectors annihilates a spinor, for the annihilator and for
the plane completion: one action of the vectors packed into one
(``linalg.pack``) when k > 1 and the spinor has more than 2m coordinates
(on fewer, k plain actions cost less than the packing): a coordinate of
v omega sums at most m products of a numerator of omega and one of v, so
slots of ``slot_width(m, ...)`` bits keep the k images apart, and the
packed image is zero exactly when every one is.

The Fock sweep.  Callers that read every image v1...vk Psi_a (the image
route of S_(v1..vk), both bases of ``tnp_change_of_basis_scale``) run the
chain once, on the Fock basis packed into one spinor
(``fock_chain_matrix``): sum_a 2^(w a) Psi_a, and coordinate t of its image
is sum_a d_a 2^(w a), with d_a the coordinate t of v1...vk Psi_a.

The slot bound: let b_j be the bit length of the largest numerator part of
the j-th vector to act (``part_bits``).  Psi_a has one coordinate and a
target gets one term per site, so after the first vector every coordinate
is +-one of its numerators, with parts below 2^(b_1).  Each later vector
makes a coordinate the sum of at most m < 2^bits(m) terms, one per site,
each one of its numerators times a coordinate so far: parts below
2^(b_j) 2^E, twice that over Q(i), where a part of a product sums two
products of parts.  After k vectors every part is below 2^E with
E = sum_j b_j + (k - 1) (bits(m) + [Q(i)]) (E = 1 for k = 0, the unit).
``fock_slot_bits`` gives E + 1, and the slot width w is that rounded up to
whole bytes: then d_a + 2^(w - 1) lies in [0, 2^w) for every a, so adding
2^(w - 1) to all slots at once leaves each slot's digits to be read as
bytes.  Only the slots that can be nonzero are read: each vector flips one
site where some vector is active, so t ^ a is a xor of at most k such site
bits, with as many bits as k modulo 2.  Callers that stop at the first
nonzero image (plane completion, the frame map, the generic sample) keep
the lazy chains of ``fock_chain_images``.

The closed-form completion.  ``complete_tnp`` takes sigma = v1...vk Psi_a,
the first nonzero Fock image of the plane, and writes its plane down.  Each
v_i kills sigma (the v_i square to zero and anticommute), and so does each
w of M(Psi_a) orthogonal to every v_i: w sigma = (-1)^k v1...vk w Psi_a =
0.  M(Psi_a) is spanned by m letters (p_i where site i's bit of a is set,
q_i elsewhere), and sum_i c_i l_i is orthogonal to v_j exactly when
sum_i c_i {l_i, v_j} = 0: a k x m system whose kernel K has dimension at
least m - k.  The sum span(v) + K is direct: a nonzero u in span(v) and in
M(Psi_a) can start a basis u, u_2, ..., u_k of span(v), whose product is
v1...vk up to a nonzero determinant, and then sigma is a multiple of
u_2...u_k u Psi_a = 0.  So span(v) + K, inside M(sigma), has dimension at
least m, and a totally null plane has at most m: M(sigma) = span(v) + K.
No annihilator is solved; all m vectors killing sigma (``_annihilates``,
and on failure the plane alone, to name which part failed), the Gram check
of ``is_tnp`` and the dimension m are still checked.
"""

from __future__ import annotations

from .errors import (
    DimensionError,
    InternalCheckError,
    SingularTransformError,
    ZeroSpinorError,
)
from . import scalars
from .linalg import (
    Matrix,
    kernel_numerators,
    pack,
    part_bits,
    rank_rows,
    rref_numerators,
    slot_width,
    tall_kernel,
)
from .algebra import Algebra, AlgebraElement, StoredForm
from .vectors import (
    TNPBasis,
    WittVector,
    check_totally_null,
    embed_gamma,
    is_tnp,
)


def _active_sites(m: int, nums: dict) -> list:
    """(bit, p_i, q_i numerators) per site, in order, where nums has either;
    a missing one reads 0."""
    get = nums.get
    return [
        (1 << (m - 1 - i), get(i, 0), get(m + i, 0))
        for i in range(m)
        if i in nums or m + i in nums
    ]


def integer_action(algebra: Algebra, nums, items) -> dict:
    """Integer Witt coordinates applied to integer (amask, coeff) pairs: the
    numerators of the action over the product of the two denominators."""
    full, above = algebra.full_mask, algebra._above
    sites = _active_sites(algebra.m, nums)
    acc: dict[int, object] = {}
    for am, c in items:
        neg = above[am ^ full]
        for bit, p, q in sites:
            coeff = q if am & bit else p
            if not coeff:
                continue
            val = -coeff * c if neg & bit else coeff * c
            key = am ^ bit
            prev = acc.get(key)
            val = val if prev is None else prev + val
            if val:
                acc[key] = val
            elif prev is not None:
                del acc[key]
    return acc


def vector_act_coords(v: WittVector, coords: list) -> list:
    """Dense-coordinate version of the vector action on the Fock column:
    field values in, field values out."""
    return _field_coords(vector_act(v, Spinor.from_coords(v.algebra, coords)))


def _field_coords(omega: Spinor) -> list:
    """The dense coordinate list of a spinor, indexed by amask, as field
    values."""
    out = [omega.algebra.zero_scalar] * (1 << omega.algebra.m)
    for a, x in omega.nums.items():
        out[a] = scalars.from_integer(x, omega.den)
    return out


class Spinor(StoredForm):
    """Element of the reference column S_(-e): ``nums`` maps amask to a
    nonzero numerator over ``den``."""

    __slots__ = ()

    xi = property(StoredForm._view)

    @staticmethod
    def _key_in_range(algebra: Algebra, key) -> bool:
        """An amask: an int in 0 .. 2^m - 1."""
        return type(key) is int and 0 <= key <= algebra.full_mask

    @staticmethod
    def fock(algebra: Algebra, amask: int, coeff=1) -> Spinor:
        """Basis spinor Psi_a."""
        return Spinor.from_numerators(algebra, {amask: algebra.one_num}).scale(coeff)

    @staticmethod
    def zero(algebra: Algebra) -> Spinor:
        return Spinor.from_numerators(algebra, {})

    @staticmethod
    def from_element(x: AlgebraElement) -> Spinor:
        full = x.algebra.full_mask
        nums = {}
        for (a, b), num in x.nums.items():
            if b != full:
                raise DimensionError("element is not supported on the reference column")
            nums[a] = num
        return Spinor.from_numerators(x.algebra, nums, x.den)

    def to_element(self) -> AlgebraElement:
        full = self.algebra.full_mask
        return AlgebraElement.from_numerators(
            self.algebra, {(a, full): num for a, num in self.nums.items()}, self.den
        )

    def coords(self) -> list:
        """Dense coordinate list indexed by amask, as field values; built on
        each read."""
        return _field_coords(self)

    @staticmethod
    def from_coords(algebra: Algebra, coords) -> Spinor:
        return Spinor(algebra, {a: c for a, c in enumerate(coords) if c})

    def chirality(self):
        """Common Gamma-eigenvalue (-1)^popcount(a) of the coordinates, as
        for the column element; None if mixed or zero."""
        parities = {a.bit_count() & 1 for a in self.nums}
        if len(parities) != 1:
            return None
        return -1 if parities.pop() else 1

    def support_size(self) -> int:
        return len(self.nums)

    def __repr__(self):
        if not self.nums:
            return "Spinor<0>"
        den = self.den
        parts = [
            f"({scalars.format_numerator(x, den)})*Psi_{a}"
            for a, x in sorted(self.nums.items())
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
    on the stored numerators and reduces once, when it emits the spinor."""
    algebra = omega.algebra
    ints, v_den = _integer_chain_vectors(algebra, vectors)
    nums = _integer_chain(algebra, ints, omega.nums.items())
    return Spinor.from_numerators(algebra, nums, omega.den * v_den)


def fock_chain_images(vectors, algebra: Algebra):
    """(den, images): images yields (a, numerators of v_1 ... v_k Psi_a) for
    every Fock index a in order, each an integer map amask -> numerator over
    den, the product of the vectors' denominators.  Lazy, for callers that
    stop at the first nonzero image; ``fock_chain_matrix`` reads them all."""
    ints, den = _integer_chain_vectors(algebra, vectors)
    unit = algebra.one_num
    images = ((a, _integer_chain(algebra, ints, [(a, unit)])) for a in range(1 << algebra.m))
    return den, images


def fock_chain_matrix(vectors, algebra: Algebra) -> tuple[int, list[dict]]:
    """(den, images): images[a] holds the numerators of v_1 ... v_k Psi_a
    for every Fock index a, over den, as ``fock_chain_images`` yields them.

    The chain runs once, on the whole Fock basis packed into one spinor,
    coordinate a set to 2^(w a) for slots of ``fock_slot_bits`` bits rounded
    up to whole bytes, and only the slots that can be nonzero are read back
    (module docstring).
    """
    ints, den = _integer_chain_vectors(algebra, vectors)
    m, unit, n = algebra.m, algebra.one_num, 1 << algebra.m
    gaussian = algebra.field != scalars.FIELD_Q
    size = -(-fock_slot_bits(m, [part_bits(v.values(), gaussian) for v in ints], gaussian) // 8)
    width = 8 * size
    # 2^(w - 1) on every slot puts each slot's value plus it in [0, 2^w)
    half = 1 << (width - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    active = 0
    for nums in ints:
        for bit, _p, _q in _active_sites(m, nums):
            active |= bit
    k = len(ints)
    # the xors t ^ a that can carry a nonzero image
    flips = [x for x in _submasks(active) if x.bit_count() <= k and (k - x.bit_count()) % 2 == 0]
    images: list[dict] = [{} for _a in range(n)]
    packed = _integer_chain(algebra, ints, [(a, unit * (1 << width * a)) for a in range(n)])
    for t, value in packed.items():
        if gaussian:
            re = (value.re + bias).to_bytes(size * n, "little")
            im = (value.im + bias).to_bytes(size * n, "little")
            for x in flips:
                a = t ^ x
                lo = a * size
                x_re = int.from_bytes(re[lo : lo + size], "little") - half
                x_im = int.from_bytes(im[lo : lo + size], "little") - half
                if x_re or x_im:
                    images[a][t] = scalars.GaussInt(x_re, x_im)
        else:
            digits = (value + bias).to_bytes(size * n, "little")
            for x in flips:
                a = t ^ x
                lo = a * size
                d = int.from_bytes(digits[lo : lo + size], "little") - half
                if d:
                    images[a][t] = d
    return den, images


def fock_slot_bits(m: int, vec_bits: list, gaussian: bool) -> int:
    """Bits per slot of the packed Fock sweep for vectors whose numerator
    parts are below 2^b_j, in the order they act: the bound of the module
    docstring, sum_j b_j + (k - 1) (bits(m) + [Q(i)]) + 1 (2 for k = 0)."""
    if not vec_bits:
        return 2
    return sum(vec_bits) + (len(vec_bits) - 1) * (m.bit_length() + gaussian) + 1


def _submasks(mask: int):
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _integer_chain_vectors(algebra: Algebra, vectors) -> tuple[list, int]:
    """The chain's stored Witt numerators in the order they act (the last
    vector first), and the product of their denominators."""
    ints = []
    den = 1
    for v in reversed(vectors):
        algebra.check_compatible(v.algebra)
        ints.append(v.nums)
        den *= v.den
    return ints, den


def _integer_chain(algebra: Algebra, ints, pairs) -> dict:
    """Integer vectors applied in turn to integer (amask, coeff) pairs."""
    for nums in ints:
        if not pairs:
            break
        pairs = integer_action(algebra, nums, pairs).items()
    return dict(pairs)


def annihilator(omega: Spinor) -> TNPBasis:
    """M(omega) = {v : v omega = 0}, echelonized; rejects the zero spinor.

    The system (one row per Fock coordinate t, one column per Witt basis
    vector) has up to 2^m rows but only 2m columns, so ``tall_kernel`` cuts
    the 2m unit vectors down to an integer kernel basis, row by row, and
    ``rref_numerators`` echelonizes those k <= m vectors, which are read off
    its integer pivot rows.  The kernel vectors pass the Gram check of a
    plane and every returned vector is checked to annihilate omega, both on
    integers, the latter by ``_annihilates``.
    """
    if omega.is_zero():
        raise ZeroSpinorError("the zero spinor is annihilated by all of V")
    algebra = omega.algebra
    m, full, above = algebra.m, algebra.full_mask, algebra._above
    pairs = omega.nums.items()
    # row t, column j: numerator of the coefficient of Psi_t in (basis
    # vector j) omega
    sites = [(i, 1 << (m - 1 - i)) for i in range(m)]
    rows: dict[int, dict] = {}
    for am, c in pairs:
        neg = above[am ^ full]
        for i, bit in sites:
            # each (target, j) pair arises from exactly one am
            rows.setdefault(am ^ bit, {})[m + i if am & bit else i] = -c if neg & bit else c
    kernel = tall_kernel(rows.values(), 2 * m, algebra.one_num)
    check_totally_null(algebra, [(vec, 1) for vec in kernel])
    vectors = [WittVector.from_numerators(algebra, row, lead) for row, lead in rref_numerators(kernel)]
    if not _annihilates(algebra, [v.nums for v in vectors], omega.nums):
        raise InternalCheckError("annihilator member does not annihilate")
    return TNPBasis(algebra, vectors)


def _annihilates(algebra: Algebra, vectors: list, nums: dict) -> bool:
    """Whether each integer Witt vector of ``vectors`` kills the spinor with
    numerators ``nums``: one action of the vectors packed into one when
    there are two or more and nums has more than 2m coordinates (module
    docstring), else one action per vector."""
    m = algebra.m
    if len(vectors) > 1 and len(nums) > 2 * m:
        gaussian = algebra.field != scalars.FIELD_Q
        omega_bits = part_bits(nums.values(), gaussian)
        vec_bits = part_bits((x for v in vectors for x in v.values()), gaussian)
        vectors = [pack(vectors, slot_width(m, omega_bits, vec_bits, gaussian))]
    pairs = nums.items()
    return not any(integer_action(algebra, v, pairs) for v in vectors)


class SpinorSubspace:
    """Linear subspace of S in canonical reduced echelon form: ``rows`` holds
    the reduced echelon rows, by pivot, as spinors."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: Algebra, rows):
        self.algebra = algebra
        self.rows = list(rows)

    @staticmethod
    def from_spinors(algebra: Algebra, spinors) -> SpinorSubspace:
        return SpinorSubspace.spanned(algebra, (s.nums for s in spinors))

    @staticmethod
    def spanned(algebra: Algebra, rows) -> SpinorSubspace:
        """The span of integer rows ``{amask: numerator}``: each reduced
        echelon row is an integer pivot row over its lead."""
        return SpinorSubspace(
            algebra,
            [Spinor.from_numerators(algebra, row, lead) for row, lead in rref_numerators(rows)],
        )

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def basis(self) -> list[Spinor]:
        return list(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, SpinorSubspace)
            and self.algebra == other.algebra
            and self.rows == other.rows
        )

    def contains(self, omega: Spinor) -> bool:
        self.algebra.check_compatible(omega.algebra)
        if omega.is_zero():
            return True
        return rank_rows([row.nums for row in self.rows] + [omega.nums]) == self.dimension

    def intersection(self, other: SpinorSubspace) -> SpinorSubspace:
        """Canonical basis of the intersection of two subspaces."""
        self.algebra.check_compatible(other.algebra)
        if self.dimension == 0 or other.dimension == 0:
            return SpinorSubspace(self.algebra, [])
        # coordinate t: sum_j x_j N_j[t] - sum_l y_l M_l[t] = 0 on the rows'
        # numerators N_j and M_l; sum_j x_j N_j spans the intersection
        system: dict[int, dict] = {}
        for j, row in enumerate(self.rows):
            for t, x in row.nums.items():
                system.setdefault(t, {})[j] = x
        offset = self.dimension
        for l, row in enumerate(other.rows):
            for t, x in row.nums.items():
                system.setdefault(t, {})[offset + l] = -x
        spanning = []
        ncols = offset + other.dimension
        for vec, _den in kernel_numerators(system.values(), ncols, self.algebra.one_num):
            acc: dict[int, object] = {}
            for j, cf in vec.items():
                if j < offset:
                    term = {t: cf * x for t, x in self.rows[j].nums.items()}
                    acc, _one = scalars.add_numerators(acc, 1, term, 1)
            spanning.append(acc)
        return SpinorSubspace.spanned(self.algebra, spanning)


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
    n, full, above = 1 << m, algebra.full_mask, algebra._above
    # row (v, t), column a: numerator of the coefficient of Psi_t in v Psi_a
    system = []
    for v in tnp:
        sites = _active_sites(m, v.nums)
        rows: dict[int, dict] = {}
        for am in range(n):
            neg = above[am ^ full]
            for bit, p, q in sites:
                coeff = q if am & bit else p
                if coeff:
                    rows.setdefault(am ^ bit, {})[am] = -coeff if neg & bit else coeff
        system.extend(rows.values())
    kernel = kernel_numerators(system, n, algebra.one_num)
    kernel_space = SpinorSubspace.spanned(algebra, (vec for vec, _den in kernel))
    expected = 1 << (m - k)
    if kernel_space.dimension != expected:
        raise InternalCheckError(
            f"dim S_(v1..vk) = {kernel_space.dimension}, expected {expected}"
        )
    if cross_check:
        _den, images = fock_chain_matrix(tnp.vectors, algebra)
        image_space = SpinorSubspace.spanned(algebra, images)
        if image_space != kernel_space:
            raise InternalCheckError("kernel and image routes disagree on S_(v1..vk)")
    return kernel_space


def generic_spinor_sample(tnp: TNPBasis, rng, height: int = 20) -> Spinor:
    """Random v1...vk * Phi; for k = 0 a general-position Phi (all coords nonzero)."""
    algebra = tnp.algebra
    n = 1 << algebra.m
    while True:
        nums, den = scalars.common_denominator(
            scalars.random_numerator(rng, algebra.field, nonzero=True, height=height)
            for _a in range(n)
        )
        phi = Spinor.from_numerators(algebra, dict(enumerate(nums)), den)
        if tnp.dimension == 0:
            return phi
        omega = apply_vector_chain(tnp.vectors, phi)
        if not omega.is_zero():
            return omega
        if not any(chain for _a, chain in fock_chain_images(tnp.vectors, algebra)[1]):
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
    # v'_i = sum_j A_ij v_j, in j order
    new_vectors = []
    for row in transform.rows:
        acc = None
        for v, a in zip(tnp, row):
            acc = v * a if acc is None else acc + v * a
        new_vectors.append(acc)
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
    det_num, det_den = scalars.to_numerator(det, algebra.field)
    new_den, new_images = fock_chain_matrix(new_vectors, algebra)
    old_den, old_images = fock_chain_matrix(tnp.vectors, algebra)
    # new / new_den = (det_num / det_den) old / old_den, denominators cleared
    left, right = det_den * old_den, det_num * new_den
    for new, old in zip(new_images, old_images):
        if new.keys() != old.keys() or any(new[t] * left != x * right for t, x in old.items()):
            raise InternalCheckError("product maps on S do not scale by det(A)")
    return det


def column_of(x: AlgebraElement) -> int:
    """Common column (h∘g bitmask) of a column-supported element."""
    column = None
    for (_a, b) in x.nums:
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
    Fock spinor Psi_a to a nonzero spinor sigma, the first one found on the
    Fock coordinates.  Its plane is written down, not solved for (module
    docstring): the v_i and the kernel of the pairings of the letters of
    M(Psi_a) with them.  All m vectors are checked to kill sigma
    (``_annihilates``; on failure the plane alone is checked, to name the
    part that fails), and the echelonized basis passes the Gram check of
    ``is_tnp`` with dimension m.
    """
    algebra = tnp.algebra
    m = algebra.m
    if tnp.dimension == m:
        return tnp
    _den, chains = fock_chain_images(tnp.vectors, algebra)
    for a, sigma in chains:
        if sigma:
            break
    else:
        raise InternalCheckError("the plane's product annihilates every Fock spinor")
    # M(Psi_a) holds p_i (coordinate i) where site i's bit of a is set, else
    # q_i (coordinate m + i); a letter pairs with the other coordinate of v
    letters = [i if a >> (m - 1 - i) & 1 else m + i for i in range(m)]
    partners = [(c + m) % (2 * m) for c in letters]
    pairings = [{i: v.nums[c] for i, c in enumerate(partners) if c in v.nums} for v in tnp]
    kernel = [
        {letters[i]: x for i, x in vec.items()}
        for vec, _den in kernel_numerators(pairings, m, algebra.one_num)
    ]
    plane = [v.nums for v in tnp]
    if not _annihilates(algebra, plane + kernel, sigma):
        if not _annihilates(algebra, plane, sigma):
            raise InternalCheckError("(v1...vk) Psi_a is not annihilated by the plane")
        raise InternalCheckError("a completing vector does not annihilate (v1...vk) Psi_a")
    found = is_tnp([*tnp, *(WittVector.from_numerators(algebra, vec) for vec in kernel)])
    if found.dimension != m:
        raise InternalCheckError(f"the completed plane has dimension {found.dimension}, not m = {m}")
    return found
