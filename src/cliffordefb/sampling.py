"""Seeded random generators for elements, spinors, vectors, planes, frames.

Everything takes an explicit random.Random so concurrent test shards stay
reproducible.  Coefficients are small-height rationals (|num|, den <= 100 by
default) to keep exact elimination fast.
"""

from __future__ import annotations

from .errors import DimensionError, InternalCheckError
from .scalars import (
    GaussInt,
    add_numerators,
    common_denominator,
    random_numerator,
    random_scalar,
)
from .linalg import Matrix
from .algebra import Algebra, AlgebraElement
from .vectors import (
    TNPBasis,
    WittFrame,
    WittVector,
    is_tnp,
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
    """Random hyperbolic frame from elementary pairing-preserving moves.

    Starting from the standard frame, each move swaps p and q at one site,
    rescales a hyperbolic pair by c and 1/c, mixes q_i += c q_j with
    p_j -= c p_i, or shears p_i += c q_j with p_j -= c q_i.  The moves run
    on each vector's integer numerators over one unreduced denominator: a
    drawn c = a / d multiplies the numerators by a and the denominator by d,
    and 1/c is d conj(a) / |a|^2 (d / a over Q).  Each vector is put in
    lowest terms once, at the end, so the frame equals the one the same
    moves give in field arithmetic; a drawn c = 0 leaves the vectors as
    they are.
    """
    m = algebra.m
    one = algebra.one_num
    qs = [({m + i: one}, 1) for i in range(m)]
    ps = [({i: one}, 1) for i in range(m)]
    moves = (2 * m + 3) if moves is None else moves
    for _ in range(moves):
        kind = rng.randrange(4 if m > 1 else 2)
        if kind == 0:  # swap the roles of p and q at one site
            i = rng.randrange(m)
            qs[i], ps[i] = ps[i], qs[i]
        elif kind == 1:  # rescale a hyperbolic pair
            i = rng.randrange(m)
            a, d = random_numerator(rng, algebra.field, nonzero=True, height=height)
            qs[i] = _scaled(qs[i], a, d)
            ps[i] = _scaled(ps[i], *_inverse(a, d))
        elif kind == 2:  # GL mix q_i += c q_j, compensated on the duals
            i, j = rng.sample(range(m), 2)
            a, d = random_numerator(rng, algebra.field, height=height)
            if a:
                qs[i] = _add_multiple(qs[i], qs[j], a, d)
                ps[j] = _add_multiple(ps[j], ps[i], -a, d)
        else:  # isotropic shear p_i += c q_j, p_j -= c q_i
            i, j = rng.sample(range(m), 2)
            a, d = random_numerator(rng, algebra.field, height=height)
            if a:
                ps[i] = _add_multiple(ps[i], qs[j], a, d)
                ps[j] = _add_multiple(ps[j], qs[i], -a, d)
    return WittFrame(
        algebra,
        [WittVector.from_numerators(algebra, nums, den) for nums, den in qs],
        [WittVector.from_numerators(algebra, nums, den) for nums, den in ps],
    )


def _inverse(a, d: int) -> tuple:
    """d / a as (numerator, positive denominator), unreduced: d conj(a) over
    |a|^2 for a ``GaussInt`` a."""
    if isinstance(a, GaussInt):
        return GaussInt(d * a.re, -d * a.im), a.re * a.re + a.im * a.im
    return (d, a) if a > 0 else (-d, -a)


def _scaled(vec: tuple, a, d: int) -> tuple:
    """The (numerators, denominator) pair times a / d for a nonzero a."""
    nums, den = vec
    return {key: v * a for key, v in nums.items()}, den * d


def _add_multiple(x: tuple, y: tuple, a, d: int) -> tuple:
    """x + (a / d) y on (numerators, denominator) pairs for a nonzero a."""
    return add_numerators(*x, *_scaled(y, a, d))


def rand_tnp(algebra: Algebra, rng, k: int, frame: WittFrame | None = None) -> TNPBasis:
    """Random totally null plane of exact dimension k, 1 <= k <= m."""
    if not 1 <= k <= algebra.m:
        raise DimensionError(f"plane dimension {k} out of range 1..{algebra.m}")
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
