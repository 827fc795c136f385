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
    generic_spinor_sample,
    is_tnp,
    p_vector,
    q_vector,
    spinor_space_switch,
    tnp_change_of_basis_scale,
    vector_act,
)
from cliffordefb.spinors import SpinorSubspace, column_of, fock_flips, vector_act_coords
from cliffordefb.sampling import (
    rand_invertible_matrix,
    rand_nonzero_spinor,
    rand_tnp,
    rand_vector,
)


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


def test_subspace_intersection_and_contains(rng, algebras):
    algebra = algebras[3]
    v = q_vector(algebra, 1)
    vb = conj_vector(v)
    s_v = annihilated_subspace(is_tnp([v]))
    s_vb = annihilated_subspace(is_tnp([vb]))
    assert s_v.intersection(s_vb).dimension == 0
    stacked = Matrix(list(s_v.matrix.rows) + list(s_vb.matrix.rows))
    assert stacked.rank() == 8


def test_generic_spinor_sample(rng, algebras):
    algebra = algebras[3]
    tnp = is_tnp([q_vector(algebra, 1), q_vector(algebra, 2)])
    omega = generic_spinor_sample(tnp, rng)
    assert annihilated_subspace(tnp).contains(omega)
    phi = generic_spinor_sample(TNPBasis(algebra, []), rng)
    assert phi.support_size() == 8
    assert annihilator(phi).dimension == 0  # general position, m = 3


def test_generic_sample_max_plane_is_line(rng, algebras):
    algebra = algebras[3]
    tnp = is_tnp([q_vector(algebra, i) for i in (1, 2, 3)])
    omega = generic_spinor_sample(tnp, rng)
    assert omega.xi.keys() == {0}


def test_tnp_change_of_basis_scale(rng, algebras):
    for m in (2, 3):
        algebra = algebras[m]
        for k in range(1, m + 1):
            tnp = rand_tnp(algebra, rng, k)
            ident = Matrix.identity(k)
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


def test_subspace_from_spinors_canonical(algebras):
    algebra = algebras[2]
    s1 = Spinor(algebra, {0: 2, 1: 2})
    s2 = Spinor(algebra, {0: 1, 1: 1, 2: 3})
    sub = SpinorSubspace.from_spinors(algebra, [s1, s2, s1 + s2])
    assert sub.dimension == 2
    assert sub.matrix.rows[0][0] == 1  # reduced echelon leading ones


# -- iterated-kernel reference for S_(v1..vk) -------------------------------------


def iterated_kernel_subspace(tnp):
    """S_(v1..vk) by restricting each vector action to the kernel of the
    previous ones, with dense coordinate vectors throughout."""
    algebra = tnp.algebra
    n = 1 << algebra.m
    zero, one = algebra.zero_scalar, algebra.one_scalar
    basis = [[one if t == a else zero for t in range(n)] for a in range(n)]
    for v in tnp:
        action = Matrix([vector_act_coords(v, vec) for vec in basis]).transpose()
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
            assert joint.matrix == reference.matrix
            assert joint.dimension == 1 << (m - k)


def test_fock_flips_match_vector_act(algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        basis = [p_vector(algebra, i) for i in range(1, m + 1)] + [
            q_vector(algebra, i) for i in range(1, m + 1)
        ]
        for a, entries in enumerate(fock_flips(m)):
            for j, target, negative in entries:
                image = vector_act(basis[j], Spinor.fock(algebra, a))
                assert image == Spinor.fock(algebra, target, -1 if negative else 1)
                assert image == act(embed(basis[j]), Spinor.fock(algebra, a))
