"""Seeded random generators for elements, spinors, vectors, planes, frames.

Everything takes an explicit random.Random so concurrent test shards stay
reproducible.  Coefficients are small-height rationals (|num|, den <= 100 by
default) to keep exact elimination fast.
"""

from __future__ import annotations

from .errors import InternalCheckError
from .scalars import common_denominator, random_numerator, random_scalar
from .linalg import Matrix
from .algebra import Algebra, AlgebraElement
from .vectors import (
    TNPBasis,
    WittFrame,
    WittVector,
    is_tnp,
    p_vector,
    q_vector,
    square,
)
from .spinors import Spinor, annihilator, generic_spinor_sample


def rand_element(algebra: Algebra, rng, terms: int = 6, height: int = 20) -> AlgebraElement:
    n = 1 << algebra.m
    acc: dict = {}  # a repeated key keeps its place and takes the later draw
    for _ in range(terms):
        key = (rng.randrange(n), rng.randrange(n))
        acc[key] = random_numerator(rng, algebra.field, nonzero=True, height=height)
    return _from_draws(AlgebraElement, algebra, acc)


def rand_spinor(algebra: Algebra, rng, density: float = 1.0, height: int = 20) -> Spinor:
    n = 1 << algebra.m
    xi = {}
    for a in range(n):
        if rng.random() < density:
            draw = random_numerator(rng, algebra.field, height=height)
            if draw[0]:
                xi[a] = draw
    return _from_draws(Spinor, algebra, xi)


def _from_draws(cls, algebra: Algebra, draws: dict):
    """The stored form of drawn (numerator, denominator) pairs by key."""
    nums, den = common_denominator(draws.values())
    return cls.from_numerators(algebra, dict(zip(draws, nums)), den)


def rand_nonzero_spinor(algebra: Algebra, rng, **kw) -> Spinor:
    while True:
        s = rand_spinor(algebra, rng, **kw)
        if not s.is_zero():
            return s


def rand_vector(algebra: Algebra, rng, height: int = 20) -> WittVector:
    """m random alpha values, then m random beta values."""
    draws = [random_numerator(rng, algebra.field, height=height) for _ in range(2 * algebra.m)]
    nums, den = common_denominator(draws)
    return WittVector.from_numerators(algebra, {j: x for j, x in enumerate(nums) if x}, den)


def rand_null_vector(algebra: Algebra, rng, height: int = 20) -> WittVector:
    """Nonzero null vector: adjust one beta coordinate to cancel the square."""
    m = algebra.m
    while True:
        alpha = [random_scalar(rng, algebra.field, height=height) for _ in range(m)]
        beta = [random_scalar(rng, algebra.field, height=height) for _ in range(m)]
        pivot = next((i for i, a in enumerate(alpha) if a), None)
        if pivot is None:
            if any(beta):
                return WittVector(algebra, enumerate([*alpha, *beta]))
            continue
        rest = algebra.zero_scalar
        for i, (a, b) in enumerate(zip(alpha, beta)):
            if i != pivot:
                rest = rest + a * b
        beta[pivot] = -rest / alpha[pivot]
        w = WittVector(algebra, enumerate([*alpha, *beta]))
        if not w.is_zero():
            return w


def rand_nonnull_vector(algebra: Algebra, rng, height: int = 20) -> WittVector:
    while True:
        v = rand_vector(algebra, rng, height=height)
        if square(v):
            return v


def rand_frame(algebra: Algebra, rng, moves: int | None = None, height: int = 6) -> WittFrame:
    """Random hyperbolic frame from elementary pairing-preserving moves."""
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


def rand_tnp(algebra: Algebra, rng, k: int, frame: WittFrame | None = None) -> TNPBasis:
    """Random totally null plane of exact dimension k."""
    frame = frame or rand_frame(algebra, rng)
    basis = is_tnp(frame.q_vecs[:k])
    if basis.dimension != k:
        raise InternalCheckError("frame vectors were not independent")
    return basis


def rand_max_tnp(algebra: Algebra, rng) -> TNPBasis:
    return rand_tnp(algebra, rng, algebra.m)


def rand_simple_spinor(algebra: Algebra, rng, tnp: TNPBasis | None = None) -> Spinor:
    """Random simple spinor with M(omega) equal to the given (or random) plane."""
    tnp = tnp or rand_max_tnp(algebra, rng)
    omega = generic_spinor_sample(tnp, rng)
    if annihilator(omega).dimension != algebra.m:
        raise InternalCheckError("product spinor is not simple")
    return omega


def rand_unit_vector(algebra: Algebra, rng) -> WittVector:
    """Random vector with v^2 = 1 (a hyperbolic pair sum)."""
    frame = rand_frame(algebra, rng)
    i = rng.randrange(algebra.m)
    v = frame.q_vecs[i] + frame.p_vecs[i]
    if square(v) != algebra.one_scalar:
        raise InternalCheckError("unit vector construction failed")
    return v


def rand_invertible_matrix(algebra: Algebra, rng, k: int, height: int = 10) -> Matrix:
    while True:
        mat = Matrix(
            [
                [random_scalar(rng, algebra.field, height=height) for _ in range(k)]
                for _ in range(k)
            ]
        )
        if mat.det():
            return mat
