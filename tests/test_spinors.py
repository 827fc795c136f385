import random
from fractions import Fraction

import pytest

from cliffordefb import (
    Algebra,
    DimensionError,
    Matrix,
    SingularTransformError,
    Spinor,
    TNPBasis,
    ZeroSpinorError,
    act,
    annihilated_subspace,
    annihilator,
    complete_tnp,
    conj_vector,
    embed,
    gamma_vector,
    generic_spinor_sample,
    is_tnp,
    p_vector,
    q_vector,
    spinor_space_switch,
    tnp_change_of_basis_scale,
    vector_act,
)
from cliffordefb import spinors
from cliffordefb.scalars import GaussInt
from cliffordefb.vectors import WittVector
from cliffordefb.errors import InternalCheckError
from cliffordefb.spinors import SpinorSubspace, column_of, vector_act_coords
from cliffordefb.sampling import (
    rand_invertible_matrix,
    rand_nonzero_spinor,
    rand_tnp,
    rand_vector,
)

from conftest import ref_fock_flips


def test_act_examples(algebras):
    for m in (2, 3):
        algebra = algebras[m]
        psi_e = Spinor.fock(algebra, 0)  # q1 q2 ... qm
        assert vector_act(q_vector(algebra, 1), psi_e).is_zero()
        image = vector_act(p_vector(algebra, 1), psi_e)
        assert image == Spinor.fock(algebra, 1 << (m - 1))
        assert act(algebra.identity(), psi_e) == psi_e


def test_vector_act_matches_element_action(rng, algebras):
    for m in (1, 2, 3, 4):
        algebra = algebras[m]
        for _ in range(15):
            v = rand_vector(algebra, rng)
            omega = rand_nonzero_spinor(algebra, rng)
            assert vector_act(v, omega) == act(embed(v), omega)


def test_spinor_element_round_trip(algebras):
    algebra = algebras[2]
    omega = Spinor(algebra, {0: Fraction(1, 2), 3: Fraction(-2)})
    assert Spinor.from_element(omega.to_element()) == omega
    with pytest.raises(DimensionError):
        Spinor.from_element(algebra.identity())


def test_annihilator_fock_anchor(algebras):
    for m in (2, 3, 4):
        algebra = algebras[m]
        psi = Spinor.fock(algebra, 1 << (m - 1))  # a = (-1, 1, .., 1)
        expected = is_tnp(
            [p_vector(algebra, 1)] + [q_vector(algebra, i) for i in range(2, m + 1)]
        )
        assert annihilator(psi) == expected


def test_annihilator_cl22_cases(algebras):
    algebra = algebras[2]
    omega = Spinor(algebra, {2: Fraction(5), 3: Fraction(-7)})
    ann = annihilator(omega)
    assert ann.dimension == 1 and ann[0] == p_vector(algebra, 1)
    only_xi1 = annihilator(Spinor(algebra, {2: 1}))
    assert only_xi1 == is_tnp([p_vector(algebra, 1), q_vector(algebra, 2)])
    only_xi3 = annihilator(Spinor(algebra, {3: 1}))
    assert only_xi3 == is_tnp([p_vector(algebra, 1), p_vector(algebra, 2)])


def test_annihilator_rejects_zero(algebras):
    with pytest.raises(ZeroSpinorError):
        annihilator(Spinor.zero(algebras[2]))


def test_annihilated_subspace_dims(rng, algebras):
    for m in (2, 3, 4):
        algebra = algebras[m]
        for k in range(1, m + 1):
            tnp = is_tnp([q_vector(algebra, i) for i in range(1, k + 1)])
            sub = annihilated_subspace(tnp)
            assert sub.dimension == 1 << (m - k)
        full = annihilated_subspace(is_tnp([q_vector(algebra, i) for i in range(1, m + 1)]))
        assert full.basis() == [Spinor.fock(algebra, 0)]


def test_annihilated_subspace_nonsubspace_witness(algebras):
    algebra = algebras[2]
    v = p_vector(algebra, 1) + q_vector(algebra, 2)
    psi0, psi3 = Spinor.fock(algebra, 0), Spinor.fock(algebra, 3)
    assert vector_act(v, psi0) == vector_act(v, psi3) != Spinor.zero(algebra)
    sub = annihilated_subspace(is_tnp([v]))
    assert sub.dimension == 2 and sub.contains(psi0 - psi3)
    assert not sub.contains(psi0)


def test_annihilated_subspace_uses_the_validated_basis(algebras):
    """A dependent basis spans the plane of its echelon form, and empty input
    keeps its error type."""
    algebra = algebras[3]
    q1, q2 = q_vector(algebra, 1), q_vector(algebra, 2)
    assert annihilated_subspace(TNPBasis(algebra, [q1, q1])) == annihilated_subspace(is_tnp([q1]))
    mixed = TNPBasis(algebra, [q1, q2, q1 + q2 * 3])
    assert annihilated_subspace(mixed) == annihilated_subspace(is_tnp([q1, q2]))
    with pytest.raises(DimensionError):
        annihilated_subspace(TNPBasis(algebra, []))


def test_subspace_intersection_and_contains(rng, algebras):
    algebra = algebras[3]
    v = q_vector(algebra, 1)
    vb = conj_vector(v)
    s_v = annihilated_subspace(is_tnp([v]))
    s_vb = annihilated_subspace(is_tnp([vb]))
    assert s_v.intersection(s_vb).dimension == 0
    stacked = Matrix([s.coords() for s in [*s_v.rows, *s_vb.rows]])
    assert stacked.rank() == 8


def test_generic_spinor_sample(rng, algebras):
    algebra = algebras[3]
    tnp = is_tnp([q_vector(algebra, 1), q_vector(algebra, 2)])
    omega = generic_spinor_sample(tnp, rng)
    assert annihilated_subspace(tnp).contains(omega)
    phi = generic_spinor_sample(TNPBasis(algebra, []), rng)
    assert phi.support_size() == 8
    assert annihilator(phi).dimension == 0  # general position, m = 3


class _DrawBudget(random.Random):
    """A generator that fails after `budget` draws, so a sampler that never
    stops fails instead of hanging."""

    def __init__(self, seed, budget):
        self.budget = budget
        super().__init__(seed)

    def _spend(self):
        self.budget -= 1
        if self.budget < 0:
            raise AssertionError("the sampler kept drawing")

    def random(self):
        self._spend()
        return super().random()

    def getrandbits(self, k):
        self._spend()
        return super().getrandbits(k)


def test_generic_sample_rejects_a_zero_product(algebras):
    """v1...vk = 0 for a dependent basis: no draw can succeed."""
    algebra = algebras[3]
    q1 = q_vector(algebra, 1)
    with pytest.raises(DimensionError):
        generic_spinor_sample(TNPBasis(algebra, [q1, q1]), _DrawBudget(0, 10_000))
    omega = generic_spinor_sample(TNPBasis(algebra, [q1]), _DrawBudget(0, 10_000))
    assert not omega.is_zero() and vector_act(q1, omega).is_zero()


def test_generic_sample_max_plane_is_line(rng, algebras):
    algebra = algebras[3]
    tnp = is_tnp([q_vector(algebra, i) for i in (1, 2, 3)])
    omega = generic_spinor_sample(tnp, rng)
    assert omega.xi.keys() == {0}


def test_tnp_change_of_basis_scale(rng, algebras, monkeypatch):
    """The maps on S are compared by the Fock chains of both bases, not by
    acting with the product elements already compared."""

    def forbidden(x, omega):
        raise AssertionError("the map check acted with a product element")

    monkeypatch.setattr(spinors, "act", forbidden)
    for m in (2, 3):
        algebra = algebras[m]
        for k in range(1, m + 1):
            tnp = rand_tnp(algebra, rng, k)
            ident = Matrix([[Fraction(int(i == j)) for j in range(k)] for i in range(k)])
            assert tnp_change_of_basis_scale(tnp, ident) == 1
            if k >= 2:
                swap = Matrix(
                    [
                        [1 if (j == (1 if i == 0 else 0 if i == 1 else i)) else 0 for j in range(k)]
                        for i in range(k)
                    ]
                )
                assert tnp_change_of_basis_scale(tnp, Matrix([[Fraction(x) for x in row] for row in swap.rows])) == -1
            mat = rand_invertible_matrix(algebra, rng, k)
            assert tnp_change_of_basis_scale(tnp, mat) == mat.det()


def test_tnp_change_of_basis_singular(rng, algebras):
    algebra = algebras[3]
    tnp = rand_tnp(algebra, rng, 2)
    singular = Matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(SingularTransformError):
        tnp_change_of_basis_scale(tnp, singular)


def test_spinor_space_switch(rng, algebras):
    for m in (2, 3, 4):
        algebra = algebras[m]
        omega = rand_nonzero_spinor(algebra, rng).to_element()
        assert spinor_space_switch(omega, []) == omega
        sites = [1, m]
        switched = spinor_space_switch(omega, sites)
        if not switched.is_zero():
            flip = (1 << (m - 1)) | 1
            assert column_of(switched) == algebra.full_mask ^ flip
            chi = omega.chirality()
            if chi is not None:
                assert switched.chirality() == chi


def test_switch_single_site_flips_parity(algebras):
    algebra = algebras[3]
    mono = Spinor.fock(algebra, 0).to_element()
    switched = spinor_space_switch(mono, [2])
    ((a, b),) = switched.terms.keys()
    assert a == 0  # h-signature preserved
    assert b == algebra.full_mask ^ (1 << 1)
    # global parity flips by (-1)^1
    src_parity = -1 if bin(0 ^ algebra.full_mask).count("1") % 2 else 1
    dst_parity = -1 if bin(a ^ b).count("1") % 2 else 1
    assert dst_parity == -src_parity


def test_switch_same_site_twice_is_identity(rng, algebras):
    # (p_i + q_i)^2 = 1, so switching the same site twice returns the spinor
    algebra = algebras[3]
    omega = rand_nonzero_spinor(algebra, rng).to_element()
    once = spinor_space_switch(omega, [2])
    assert spinor_space_switch(once, [2]) == omega


def test_complete_tnp(rng, algebras):
    for m in (2, 3, 4):
        algebra = algebras[m]
        for _ in range(6):
            omega = rand_nonzero_spinor(algebra, rng)
            ann = annihilator(omega)
            if ann.dimension == m:
                continue
            comp = complete_tnp(ann)
            assert comp.dimension == m
            stacked = Matrix([v.coords() for v in ann] + [v.coords() for v in comp])
            assert stacked.rank() == m  # contains the original plane
    # planes of every dimension over both fields: (v1...vk) Psi_a for the
    # first a that survives is simple and holds the plane, or complete_tnp
    # raises InternalCheckError
    planes = random.Random(433)
    for field in ("Q", "Qi"):
        for m in range(1, 6):
            algebra = Algebra(m, field)
            for k in range(m + 1):
                tnp = rand_tnp(algebra, planes, k) if k else TNPBasis(algebra, [])
                comp = complete_tnp(tnp)
                stacked = Matrix([v.coords() for v in tnp] + [v.coords() for v in comp])
                assert comp.dimension == stacked.rank() == m


def test_complete_tnp_rejects_a_plane_that_is_not_null(algebras):
    algebra = algebras[2]
    with pytest.raises(InternalCheckError, match="not annihilated by the plane"):
        complete_tnp(TNPBasis(algebra, [gamma_vector(algebra, 1)]))


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_complete_tnp_certifies_the_written_down_plane(monkeypatch, field):
    """Every letter of M(Psi_a) in place of the kernel: a letter that pairs
    with the plane does not kill sigma, so the packed action fails.  A
    kernel short of a vector fails the dimension."""
    algebra = Algebra(4, field)
    tnp = rand_tnp(algebra, random.Random(f"certify:{field}"), 2)
    real = spinors.kernel_numerators
    assert complete_tnp(tnp).dimension == 4
    monkeypatch.setattr(spinors, "kernel_numerators", lambda rows, n, one: real(rows, n, one)[:-1])
    with pytest.raises(InternalCheckError, match="completed plane has dimension 3, not m = 4"):
        complete_tnp(tnp)
    monkeypatch.setattr(spinors, "kernel_numerators", lambda rows, n, one: real([], n, one))
    with pytest.raises(InternalCheckError, match="a completing vector does not annihilate"):
        complete_tnp(tnp)


def test_subspace_from_spinors_canonical(algebras):
    algebra = algebras[2]
    s1 = Spinor(algebra, {0: 2, 1: 2})
    s2 = Spinor(algebra, {0: 1, 1: 1, 2: 3})
    sub = SpinorSubspace.from_spinors(algebra, [s1, s2, s1 + s2])
    assert sub.dimension == 2
    assert sub.rows[0].coords()[0] == 1  # reduced echelon leading ones


# -- iterated-kernel reference for S_(v1..vk) -------------------------------------


def iterated_kernel_subspace(tnp):
    """S_(v1..vk) by restricting each vector action to the kernel of the
    previous ones, with dense coordinate vectors throughout."""
    algebra = tnp.algebra
    n = 1 << algebra.m
    zero, one = algebra.zero_scalar, algebra.one_scalar
    basis = [[one if t == a else zero for t in range(n)] for a in range(n)]
    for v in tnp:
        images = [vector_act_coords(v, vec) for vec in basis]
        action = Matrix([list(col) for col in zip(*images)])
        basis = [
            [
                sum((kv[j] * basis[j][t] for j in range(len(basis))), start=zero)
                for t in range(n)
            ]
            for kv in action.kernel_basis()
        ]
    return SpinorSubspace.from_spinors(
        algebra, [Spinor.from_coords(algebra, vec) for vec in basis]
    )


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_joint_kernel_matches_iterated_kernel(field, rng):
    for m in range(1, 6):
        algebra = Algebra(m, field)
        for k in range(1, m + 1):
            tnp = rand_tnp(algebra, rng, k)
            joint = annihilated_subspace(tnp, cross_check=False)
            reference = iterated_kernel_subspace(tnp)
            assert joint == reference
            assert joint.dimension == 1 << (m - k)


def witt_basis(algebra):
    """p_1..p_m, then q_1..q_m: the order of ``WittVector.coords()``."""
    m = algebra.m
    return [p_vector(algebra, i) for i in range(1, m + 1)] + [
        q_vector(algebra, i) for i in range(1, m + 1)
    ]


def test_fock_flips_match_vector_act():
    """Every basis vector on every Psi_a, m <= 5: the action's closed form
    against the generic product and the letter-walk table."""
    for field in ("Q", "Qi"):
        for m in range(1, 6):
            algebra = Algebra(m, field)
            basis = witt_basis(algebra)
            for a, entries in enumerate(ref_fock_flips(m)):
                acting = {j: (target, negative) for j, target, negative in entries}
                psi = Spinor.fock(algebra, a)
                for j, e in enumerate(basis):
                    image = vector_act(e, psi)
                    assert image == act(embed(e), psi)
                    if j in acting:
                        target, negative = acting[j]
                        assert image == Spinor.fock(algebra, target, -1 if negative else 1)
                    else:
                        assert image.is_zero()


def test_basis_vectors_bisect_the_fock_basis():
    """p_i is nonzero on exactly the 2^(m-1) Psi_a with site i's bit clear,
    q_i on exactly the other half."""
    for m in range(1, 6):
        algebra = Algebra(m)
        basis = witt_basis(algebra)
        for i in range(1, m + 1):
            clear = {a for a in range(1 << m) if not a >> (m - i) & 1}
            for e, half in ((basis[i - 1], clear), (basis[m + i - 1], set(range(1 << m)) - clear)):
                acts_on = {a for a in range(1 << m) if vector_act(e, Spinor.fock(algebra, a))}
                assert acts_on == half and len(half) == 1 << (m - 1)


# -- the packed Fock sweep -----------------------------------------------------------


def sweep_chains(algebra, rng):
    """Planes of every dimension, the empty chain, a chain of repeated and of
    non-null vectors, and a dense chain of k = m vectors."""
    m = algebra.m
    chains = [[]]
    chains += [list(rand_tnp(algebra, rng, k)) for k in range(1, m + 1)]
    chains.append([p_vector(algebra, m), p_vector(algebra, m)])
    chains.append([rand_vector(algebra, rng) for _ in range(min(m, 3))])
    chains.append([gamma_vector(algebra, 1), q_vector(algebra, 1), gamma_vector(algebra, 2 * m)])
    return chains


@pytest.mark.parametrize("scale", [1, 100, 1024, 1 << 20])
@pytest.mark.parametrize("field", ["Q", "Qi"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_the_fock_sweep_equals_the_lazy_chains(m, field, scale):
    """With every vector scaled by 1, 100, 1024 and 2^20, so the slots run
    from a few bits to over a hundred and the bias and the read-back cross
    many bytes."""
    algebra = Algebra(m, field)
    rng = random.Random(f"sweep:{m}:{field}")
    for chain in sweep_chains(algebra, rng):
        vecs = [v.scale(scale) for v in chain]
        den, images = spinors.fock_chain_matrix(vecs, algebra)
        want_den, chains = spinors.fock_chain_images(vecs, algebra)
        assert den == want_den
        assert [(a, nums) for a, nums in enumerate(images)] == list(chains)
        if field == "Qi":
            assert all(type(x) is GaussInt for nums in images for x in nums.values())


def test_the_fock_sweep_is_exact_to_the_edge_of_its_slot(monkeypatch):
    """v = 127 (p1 + q1 + ... + p3 + q3) has v^2 = 3 * 127^2, so v v Psi_a
    = 48387 Psi_a: within 2^15 of the stated bound 2^16 (17 bits with the
    sign, 3 bytes).  Slots one bit narrower round down to 2 bytes and
    misread."""
    algebra = Algebra(3)
    v = WittVector.from_numerators(algebra, {j: 127 for j in range(6)})
    bits = spinors.fock_slot_bits(3, [7, 7], False)
    assert bits == 17
    den, images = spinors.fock_chain_matrix([v, v], algebra)
    assert images == [{a: 48387} for a in range(8)]
    assert 1 << (bits - 2) <= 48387 < 1 << (bits - 1)
    _den, chains = spinors.fock_chain_images([v, v], algebra)
    assert [nums for _a, nums in chains] == images
    narrow = spinors.fock_slot_bits
    monkeypatch.setattr(spinors, "fock_slot_bits", lambda *args: narrow(*args) - 1)
    try:
        narrowed = spinors.fock_chain_matrix([v, v], algebra)[1]
    except OverflowError:  # the top slot spilled out of the packed bytes
        narrowed = None
    assert narrowed != images


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_every_reader_of_all_chain_images_sweeps_once(monkeypatch, field):
    """annihilated_subspace's image route and both bases of
    tnp_change_of_basis_scale read the sweep, never the lazy chains."""
    algebra = Algebra(4, field)
    rng = random.Random(f"readers:{field}")
    tnp = rand_tnp(algebra, rng, 2)
    mat = rand_invertible_matrix(algebra, rng, 2)
    sweeps = []
    real = spinors.fock_chain_matrix

    def counted(vecs, alg):
        sweeps.append(len(vecs))
        return real(vecs, alg)

    def forbidden(vecs, alg):
        raise AssertionError("lazy chains read in full")

    monkeypatch.setattr(spinors, "fock_chain_matrix", counted)
    monkeypatch.setattr(spinors, "fock_chain_images", forbidden)
    annihilated_subspace(tnp)
    assert sweeps == [2]
    assert tnp_change_of_basis_scale(tnp, mat) == mat.det()
    assert sweeps == [2, 2, 2]
