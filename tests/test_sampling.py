"""The seeded samplers: ``rand_frame`` against field-arithmetic moves, and
the range check of ``rand_tnp``.

``rand_frame`` runs its moves on integer numerators over an unreduced
denominator.  The reference below runs the same moves in ``WittVector``
arithmetic, each vector in lowest terms after every move, drawing each
coefficient with ``random_scalar`` (the same draws as ``random_numerator``);
both must give the same frame, vector for vector, from the same seed.
"""

import random

import pytest

from cliffordefb import Algebra
from cliffordefb.errors import DimensionError
from cliffordefb.sampling import rand_frame, rand_tnp
from cliffordefb.scalars import FIELD_QI, random_scalar
from cliffordefb.vectors import WittFrame, p_vector, q_vector


def reference_frame(algebra, rng, moves=None, height=6):
    """Random hyperbolic frame from elementary pairing-preserving moves, in
    field arithmetic."""
    m = algebra.m
    qs = [q_vector(algebra, i) for i in range(1, m + 1)]
    ps = [p_vector(algebra, i) for i in range(1, m + 1)]
    moves = (2 * m + 3) if moves is None else moves
    for _ in range(moves):
        kind = rng.randrange(4 if m > 1 else 2)
        if kind == 0:  # swap the roles of p and q at one site
            i = rng.randrange(m)
            qs[i], ps[i] = ps[i], qs[i]
        elif kind == 1:  # rescale a hyperbolic pair
            i = rng.randrange(m)
            c = random_scalar(rng, algebra.field, nonzero=True, height=height)
            qs[i] = qs[i] * c
            ps[i] = ps[i] * (algebra.one_scalar / c)
        elif kind == 2:  # GL mix q_i += c q_j, compensated on the duals
            i, j = rng.sample(range(m), 2)
            c = random_scalar(rng, algebra.field, height=height)
            qs[i] = qs[i] + qs[j] * c
            ps[j] = ps[j] - ps[i] * c
        else:  # isotropic shear p_i += c q_j, p_j -= c q_i
            i, j = rng.sample(range(m), 2)
            c = random_scalar(rng, algebra.field, height=height)
            ps[i] = ps[i] + qs[j] * c
            ps[j] = ps[j] - qs[i] * c
    return WittFrame(algebra, qs, ps)


@pytest.mark.parametrize("field", ["Q", FIELD_QI])
@pytest.mark.parametrize("m", range(1, 7))
def test_rand_frame_matches_field_arithmetic_moves(m, field):
    algebra = Algebra(m, field)
    for moves in (None, 16 * m, 0):
        for seed in range(100):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = rand_frame(algebra, got_rng, moves=moves)
            want = reference_frame(algebra, want_rng, moves=moves)
            assert got.q_vecs == want.q_vecs, (m, field, moves, seed)
            assert got.p_vecs == want.p_vecs, (m, field, moves, seed)
            # stored key order too, which later eliminations walk
            for g, w in zip(got.q_vecs + got.p_vecs, want.q_vecs + want.p_vecs):
                assert list(g.nums) == list(w.nums), (m, field, moves, seed)
            assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("k", [5, -1, 0])
def test_rand_tnp_rejects_a_dimension_outside_1_to_m_before_drawing(k):
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(DimensionError):
        rand_tnp(Algebra(4), rng, k)
    assert rng.getstate() == state
