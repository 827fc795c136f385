import random
from fractions import Fraction
from itertools import combinations

import pytest

from cliffordefb import Algebra, embed, p_vector, q_vector
from cliffordefb.algebra import word_of_index
from cliffordefb.bilinear import rep_context
from cliffordefb.errors import DimensionError, InternalCheckError
from cliffordefb.harness import SignedPerm, sparse_trace, tensor_gammas, tensor_word
from cliffordefb.matrixrep import GammaWord, RepContext, sparse_matmul
from cliffordefb.sampling import rand_element
from conftest import apply_perm, dense_matrix, dense_product, dual_gamma_word, gammas


def dense(rep, x):
    rows = [[0] * rep.dim for _ in range(rep.dim)]
    for (r, c), val in rep.to_matrix(x).items():
        rows[r][c] = val
    return rows


# null-vector letters of each per-site letter code, (abit << 1) | gbit
_LETTER_STRINGS = ("qp", "q", "pq", "p")


def ref_word_sign(m, a, b):
    """Sign of word(a, b) = sign * E_(a, b), a reference: the word's letters
    applied to e_b as matrices, rightmost first.  The letter at site i is
    K^(i-1) (x) E (x) 1^(m-i) with E = E_01 for q_i and E_10 for p_i, so it
    flips bit m - i (which q needs set and p clear) and picks up the parity
    of the bits above it."""
    letters = [
        (site, ch)
        for site, code in enumerate(word_of_index(a, b, m), start=1)
        for ch in _LETTER_STRINGS[code]
    ]
    idx, sign = b, 1
    for site, ch in reversed(letters):
        p = m - site
        if (idx >> (p + 1)).bit_count() & 1:
            sign = -sign
        assert (idx >> p) & 1 == (ch == "q"), "letter matrix annihilated its own column"
        idx ^= 1 << p
    assert idx == a, "word matrix landed at an unexpected row"
    return sign


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_word_sign_matches_the_letter_walk(m):
    rep = rep_context(Algebra(m))
    for a in range(1 << m):
        for b in range(1 << m):
            assert rep.word_sign(a, b) == ref_word_sign(m, a, b), (a, b)


@pytest.mark.parametrize("m", [7, 8])
def test_word_sign_matches_the_letter_walk_on_samples(m):
    rep = rep_context(Algebra(m))
    rng = random.Random(700 + m)
    for _ in range(2000):
        a, b = rng.randrange(1 << m), rng.randrange(1 << m)
        assert rep.word_sign(a, b) == ref_word_sign(m, a, b), (a, b)


def test_m1_witt_matrix_units(algebras):
    rep = rep_context(algebras[1])
    p = embed(p_vector(algebras[1], 1))
    q = embed(q_vector(algebras[1], 1))
    assert dense(rep, p) == [[0, 0], [1, 0]]  # E_10
    assert dense(rep, q) == [[0, 1], [0, 0]]  # E_01
    # the all-plus diagonal word sits at +E_00
    assert dense(rep, algebras[1].monomial(0, 0)) == [[1, 0], [0, 0]]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_generator_relations(m):
    """The mask-form generators are the tensor construction's, and satisfy
    the relations on the dense oracle."""
    rep = rep_context(Algebra(m))
    n = rep.dim
    identity = SignedPerm.identity(n)
    dense_gammas = tensor_gammas(m)
    for i, dense_g in enumerate(dense_gammas, start=1):
        assert SignedPerm.of_word(rep.word((i,)), n) == dense_g
        assert dense_g.compose(dense_g) == (identity if i % 2 else -identity)
        for dense_h in dense_gammas[i:]:
            assert dense_g.compose(dense_h) == -dense_h.compose(dense_g)


def test_gamma_matches_embedding(algebras):
    for m in (1, 2, 3):
        algebra = algebras[m]
        rep = rep_context(algebra)
        from cliffordefb import embed_gamma

        for i, dense_g in enumerate(tensor_gammas(m), start=1):
            assert rep.to_matrix(embed_gamma(algebra, i)) == dense_g.entries(algebra.one_scalar)


def test_word_units_land_on_index_positions(algebras):
    for m in (1, 2, 3):
        rep = rep_context(algebras[m])
        for a in range(1 << m):
            for b in range(1 << m):
                mat = rep.to_matrix(algebras[m].monomial(a, b))
                assert list(mat) == [(a, b)]
                assert mat[(a, b)] in (1, -1)


def test_homomorphism_exhaustive_small(algebras):
    for m in (1, 2):
        algebra = algebras[m]
        rep = rep_context(algebra)
        n = 1 << m
        monos = [(a, b) for a in range(n) for b in range(n)]
        mats = {ab: rep.to_matrix(algebra.monomial(*ab)) for ab in monos}
        for ab in monos:
            for cd in monos:
                lhs = rep.to_matrix(algebra.monomial(*ab) * algebra.monomial(*cd))
                assert lhs == sparse_matmul(mats[ab], mats[cd])


def test_homomorphism_random(rng, algebras):
    for m in (3, 4):
        algebra = algebras[m]
        rep = rep_context(algebra)
        for _ in range(40):
            x = rand_element(algebra, rng)
            y = rand_element(algebra, rng)
            assert rep.to_matrix(x * y) == sparse_matmul(
                rep.to_matrix(x), rep.to_matrix(y)
            )


def test_unit_trace_and_round_trip(rng, algebras):
    for m in (1, 2, 3, 4):
        algebra = algebras[m]
        rep = rep_context(algebra)
        assert rep.to_matrix(algebra.identity()) == {
            (r, r): Fraction(1) for r in range(1 << m)
        }
        for _ in range(20):
            x = rand_element(algebra, rng)
            mat = rep.to_matrix(x)
            assert rep.from_matrix(mat) == x
            assert sparse_trace(mat, algebra.zero_scalar) == x.trace()


def test_weyl_split_diagonal(algebras):
    for m in (1, 2, 3, 4):
        rep = rep_context(algebras[m])
        mat = rep.to_matrix(algebras[m].volume_gamma())
        assert all(r == c for (r, c) in mat)
        for a in range(1 << m):
            chi = -1 if bin(a).count("1") % 2 else 1
            assert mat[(a, a)] == chi


def test_signed_perm_algebra():
    a = SignedPerm([1, 0], [1, -1])
    b = SignedPerm([0, 1], [1, -1])
    ab = a.compose(b)
    one, zero = Fraction(1), Fraction(0)
    dense_a, dense_b = dense_matrix(a, one, zero).rows, dense_matrix(b, one, zero).rows
    assert dense_matrix(ab, one, zero).rows == dense_product(dense_a, dense_b)
    assert dense_matrix(a.transpose(), one, zero).rows == [list(col) for col in zip(*dense_a)]
    vec = [Fraction(2), Fraction(3)]
    assert apply_perm(a, vec) == [sum(x * y for x, y in zip(row, vec)) for row in dense_a]
    assert dense_matrix(-a, one, zero).rows == [[-x for x in row] for row in dense_a]
    assert dense_matrix(a.kron(b), one, zero).rows == [
        [x * y for x in row_a for y in row_b] for row_a in dense_a for row_b in dense_b
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dual_word_action_matches_dual_gamma_word(m):
    # every index subset in both orders, plus words with repeated letters
    rep = rep_context(Algebra(m))
    n = rep.dim
    words = [(1, 1), (2, 2), (2, 1, 2), (2 * m, 1, 2 * m, 2)]
    for k in range(2 * m + 1):
        for subset in combinations(range(1, 2 * m + 1), k):
            words.extend((subset, subset[::-1]))
    for indices in words:
        f, sigma, eps = rep.dual_word_action(indices)
        word = dual_gamma_word(m, indices)
        assert word.perm == [c ^ f for c in range(n)], indices
        assert word.signs == [
            -1 if (eps + (c & sigma).bit_count()) & 1 else 1 for c in range(n)
        ], indices


def test_dual_word_action_rejects_bad_index():
    rep = rep_context(Algebra(2))
    for indices in [(0,), (5,), (1, -1)]:
        with pytest.raises(DimensionError):
            rep.dual_word_action(indices)


def _word_pairs(m, rng, count):
    """(indices, sign) pairs: every ascending word of both signs for
    count None, else count random words with repeated letters."""
    if count is None:
        words = [
            (subset, sign)
            for k in range(2 * m + 1)
            for subset in combinations(range(1, 2 * m + 1), k)
            for sign in (1, -1)
        ]
        return [(x, y) for x in words for y in words]

    def draw():
        length = rng.randrange(2 * m + 2)
        return tuple(rng.randrange(1, 2 * m + 1) for _ in range(length)), rng.choice((1, -1))

    return [(draw(), draw()) for _ in range(count)]


@pytest.mark.parametrize("m, count", [(1, None), (2, None), (3, None), (4, 2000), (5, 2000), (6, 2000)])
def test_gamma_word_algebra_matches_the_dense_oracle(m, count):
    """Composition, transpose and negation of mask-form words against the
    same operations on the tensor-construction signed permutations: every
    pair of signed ascending words for m <= 3, seeded pairs beyond."""
    rep = rep_context(Algebra(m))
    n = rep.dim
    memo = {}

    def both(word):
        indices, sign = word
        if word not in memo:
            mask, dense_w = rep.word(indices), tensor_word(gammas(m), indices)
            memo[word] = (mask, dense_w) if sign > 0 else (-mask, -dense_w)
        return memo[word]

    for x, y in _word_pairs(m, random.Random(900 + m), count):
        (a, dense_a), (b, dense_b) = both(x), both(y)
        assert SignedPerm.of_word(a, n) == dense_a, x
        assert SignedPerm.of_word(a.compose(b), n) == dense_a.compose(dense_b), (x, y)
        assert SignedPerm.of_word(a.transpose(), n) == dense_a.transpose(), x
        assert SignedPerm.of_word(-a, n) == -dense_a, x
    assert rep.word(()) == GammaWord(0, 0, 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_verify_relations_rejects_a_tampered_mask(m):
    """Wrong squares: an odd generator whose sign mask also meets its flip
    squares to -1, and an even one given the next generator's masks squares
    to +1, each still anticommuting with every generator before it.  A
    generator copied into a later slot commutes with itself there."""
    ctx = RepContext(Algebra(m))
    good = list(ctx.gamma_masks)
    for i in range(1, 2 * m):
        flip, sigma = good[i - 1]
        ctx.gamma_masks = good[: i - 1] + [good[i] if i % 2 == 0 else (flip, sigma ^ flip)] + good[i:]
        with pytest.raises(InternalCheckError, match=rf"gamma_{i}\^2 != {'-1' if i % 2 == 0 else '[+]1'}$"):
            ctx._verify_relations()
    for i, j in combinations(range(1, 2 * m + 1), 2):
        ctx.gamma_masks = good[: j - 1] + [good[i - 1]] + good[j:]
        with pytest.raises(InternalCheckError, match=f"gamma_{i} and gamma_{j} do not anticommute"):
            ctx._verify_relations()
    ctx.gamma_masks = good
    ctx._verify_relations()
