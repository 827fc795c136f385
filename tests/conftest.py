import functools
import random

import pytest

from cliffordefb import Algebra, WittWord
from cliffordefb.harness import SignedPerm, tensor_gammas, tensor_word
from cliffordefb.linalg import Matrix

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def algebras():
    """Shared real-field algebra contexts (caches warm across tests)."""
    return {m: Algebra(m) for m in range(1, 6)}


@pytest.fixture()
def rng():
    return random.Random(20240901)


@functools.cache
def gammas(m: int) -> list[SignedPerm]:
    """The dense tensor-construction generators, shared across tests."""
    return tensor_gammas(m)


def witt_word(m, singles, couples) -> WittWord:
    """The mask word of letter tuples ((site, "p"|"q"), ...) and
    ((site, "qp"|"pq"), ...), read letter by letter."""
    single = couple = h = 0
    for site, kind in tuple(singles) + tuple(couples):
        bit = 1 << (m - site)
        if len(kind) == 1:
            single |= bit
        else:
            couple |= bit
        if kind[0] == "p":
            h |= bit
    return WittWord(m, single, couple, h)


@functools.cache
def ref_fock_flips(m: int) -> tuple:
    """The Witt basis action on the Fock column, walked letter by letter.

    Entry a lists one (j, target, negative) per site i = 1..m: Psi_a's site
    letters are q_i where bit m - i of a is clear and p_i q_i where it is
    set, so p_i (j = i - 1) acts on the clear sites and q_i (j = m + i - 1)
    on the set ones, each turning the letter into the other one.  On its
    way to site i the vector passes the letters of sites 1..i-1 and changes
    sign at each odd one, a q single.
    """
    table = []
    for a in range(1 << m):
        letters = ["pq" if a >> (m - k) & 1 else "q" for k in range(1, m + 1)]
        entries = []
        for i in range(1, m + 1):
            j = i - 1 if letters[i - 1] == "q" else m + i - 1
            odd_crossed = sum(len(letter) % 2 for letter in letters[: i - 1])
            entries.append((j, a ^ 1 << (m - i), odd_crossed % 2 == 1))
        table.append(tuple(entries))
    return tuple(table)


def dual_gamma_word(m, indices):
    """Dense product of the duals gamma^i = (-1)^(i+1) gamma_i, a reference
    built from the tensor construction, not from the library's masks."""
    word = tensor_word(gammas(m), indices)
    return -word if sum(1 for i in indices if i % 2 == 0) & 1 else word


def dense_matrix(sp: SignedPerm, one, zero) -> Matrix:
    n = len(sp.perm)
    entries = sp.entries(one)
    return Matrix([[entries.get((r, c), zero) for c in range(n)] for r in range(n)])


def dense_product(x: list, y: list) -> list:
    """The product of two dense matrices given as lists of rows."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def apply_perm(sp: SignedPerm, vec: list) -> list:
    """Image of a coordinate column under the signed permutation."""
    out = [vec[0] * 0] * len(vec)
    for c, x in enumerate(vec):
        out[sp.perm[c]] = x if sp.signs[c] > 0 else -x
    return out


def dense_b(bform) -> SignedPerm:
    """The library's B, a mask triple, as a dense signed permutation."""
    return SignedPerm.of_word(bform.word, bform.rep.dim)


class _ParityDSU:
    """Union-find over entry indices with a +-1 relation to the parent."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rel = [0] * n  # parity of sign relative to parent (0 -> +)
        self.dead = [False] * n  # set on roots whose component forces zero

    def find(self, x: int) -> tuple[int, int]:
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        parity = 0
        for node in reversed(path):
            parity ^= self.rel[node]
            self.parent[node] = x
            self.rel[node] = parity
        return x, self.rel[path[0]] if path else 0

    def union(self, a: int, b: int, negative: bool):
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        want = pa ^ pb ^ (1 if negative else 0)
        if ra == rb:
            if want:
                self.dead[ra] = True
            return
        self.parent[rb] = ra
        self.rel[rb] = want
        if self.dead[rb]:
            self.dead[ra] = True


@functools.cache
def union_find_b(m: int) -> SignedPerm:
    """B by parity union-find over the intertwining equations of the
    tensor-construction gammas, normalized like the library's B (the
    component's smallest entry, in row 0, is +1)."""
    n = 1 << m
    dsu = _ParityDSU(n * n)
    for gamma in gammas(m):
        perm, signs = gamma.perm, gamma.signs
        for r in range(n):
            for s in range(n):
                # sign_r * B[perm(r), s] = sign_s * B[r, perm(s)]
                dsu.union(perm[r] * n + s, r * n + perm[s], signs[r] * signs[s] < 0)
    roots: dict[int, list[int]] = {}
    for node in range(n * n):
        roots.setdefault(dsu.find(node)[0], []).append(node)
    alive = [r for r in roots if not dsu.dead[r]]
    assert len(alive) == 1
    component = roots[alive[0]]
    _, anchor_parity = dsu.find(min(component))
    perm, signs = [-1] * n, [0] * n
    for node in component:
        r, c = divmod(node, n)
        assert perm[c] == -1
        perm[c] = r
        signs[c] = -1 if dsu.find(node)[1] ^ anchor_parity else 1
    return SignedPerm(perm, signs)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
