"""Seeded benchmark inputs with known answers.

Nothing here imports the program under test.  Scalars are exact rationals
(``Gauss`` covers Q and Q(i)), the Fock-space action of a Witt vector is
written out from the README conventions, and every input set renders as
canonical JSON whose sha256 is printed by the benchmark, so two commits can
be shown to have measured identical inputs.

Known answers come from the construction:

* a totally null plane of dimension k is k rows of a frame
  u_i = q_i + sum_j S_ij p_j with S antisymmetric, mixed by a unitriangular
  matrix, so the plane has dimension exactly k;
* a spinor on such a plane is v_1 ... v_k Phi for a random Phi with no zero
  coordinate; its nullity is k (m - 1 when k = m - 2, see
  ``generic_nullity``), which the generator confirms with its own
  elimination, redrawing Phi otherwise;
* an element has an exact term count, a fixed number of row/column xor
  classes (which set the gamma expansion's cost) and a fixed number of matched
  term pairs against its partner in a product.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb

Q = "Q"
QI = "Qi"


class Gauss:
    """Exact re + im*i over Q(i); the parts are Fractions or ints.  Over Q the
    generator uses plain Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    @staticmethod
    def _of(x):
        return x if isinstance(x, Gauss) else Gauss(x)

    def __add__(self, other):
        other = Gauss._of(other)
        return Gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Gauss._of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Gauss._of(other)
        return Gauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Gauss._of(other)
        norm = Fraction(other.re * other.re + other.im * other.im)
        return self * Gauss(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        return Gauss._of(other) / self

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)


def _fraction_text(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_text(x) -> str:
    """The program's canonical scalar form: "p/q" or "p/q+r/s i"."""
    if not isinstance(x, Gauss) or not x.im:
        return _fraction_text(x.re if isinstance(x, Gauss) else x)
    sign = "+" if x.im > 0 else "-"
    return f"{_fraction_text(x.re)}{sign}{_fraction_text(abs(x.im))} i"


def parse_scalar(text: str):
    """Inverse of scalar_text, used to read the program's answers back."""
    text = text.strip()
    if text.endswith(" i"):
        body = text[:-2]
        cut = max(body.rfind("+"), body.rfind("-"))
        return Gauss(Fraction(body[:cut]), Fraction(body[cut:]))
    return Fraction(text)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def signature(mask: int, m: int) -> list[int]:
    """Bitmask to +-1 signature, site 1 most significant."""
    return [-1 if (mask >> (m - i)) & 1 else 1 for i in range(1, m + 1)]


# -- random scalars -------------------------------------------------------------


def _fraction(rng, height: int, dens: int) -> Fraction:
    num = rng.randint(1, height) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, dens))


def rand_scalar(rng, field: str, height: int, dens: int):
    """Nonzero scalar: a Fraction over Q, a Gauss with both parts nonzero over Q(i)."""
    if field == QI:
        return Gauss(_fraction(rng, height, dens), _fraction(rng, height, dens))
    return _fraction(rng, height, dens)


# -- Witt vectors and their action on Fock coordinates ---------------------------


def fock_act(alpha, beta, xi: dict, m: int) -> dict:
    """v omega for v = sum alpha_i p_i + beta_i q_i on Fock coordinates.

    Site i (0-based) is bit m-1-i; a clear bit is raised by p_i, a set bit
    lowered by q_i, with the sign (-1)^(clear bits at earlier sites).
    """
    out: dict = {}
    for amask, c in xi.items():
        for i in range(m):
            bit = m - 1 - i
            coeff = beta[i] if (amask >> bit) & 1 else alpha[i]
            if not coeff:
                continue
            val = coeff * c
            if (i - (amask >> (bit + 1)).bit_count()) & 1:
                val = -val
            key = amask ^ (1 << bit)
            prev = out.get(key)
            out[key] = val if prev is None else prev + val
    return {a: c for a, c in out.items() if c}


def rank(rows: list[list]) -> int:
    """Rank by exact Gaussian elimination (ints are read as Fractions)."""
    rows = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    rank_ = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank_, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        top = rows[rank_]
        for r in range(rank_ + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / top[col]
                rows[r] = [a - factor * b if b else a for a, b in zip(rows[r], top)]
        rank_ += 1
        if rank_ == len(rows):
            break
    return rank_


def nullity(xi: dict, m: int) -> int:
    """dim M(omega): 2m minus the rank of the map v -> v omega."""
    images = []
    for i in range(m):
        unit = [int(j == i) for j in range(m)]
        zeros = [0] * m
        images += [fock_act(unit, zeros, xi, m), fock_act(zeros, unit, xi, m)]
    support = sorted(set().union(*images))
    return 2 * m - rank([[image.get(a, 0) for a in support] for image in images])


def rand_plane(rng, m: int, k: int, field: str) -> list[tuple[list, list]]:
    """k (alpha, beta) vectors spanning a totally null plane of dimension k."""
    skew = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c = rand_scalar(rng, field, 3, 2)
            skew[i][j] = c
            skew[j][i] = -c
    sites = sorted(rng.sample(range(m), k))
    vectors = [
        (list(skew[i]), [int(j == i) for j in range(m)]) for i in sites
    ]
    for a in range(k):
        for b in range(a + 1, k):
            c = rng.randint(-2, 2)
            if c:
                alpha = [x + c * y for x, y in zip(vectors[a][0], vectors[b][0])]
                beta = [x + c * y for x, y in zip(vectors[a][1], vectors[b][1])]
                vectors[a] = (alpha, beta)
    return vectors


def generic_nullity(m: int, k: int) -> int:
    """dim M(v_1 ... v_k Phi) for generic Phi.

    The plane's own k, except at k = m - 2: there the spinor lives in the
    4-dimensional spinor space of the quotient Cl(2,2), where every spinor
    is annihilated by at least a line, so the nullity is m - 1.
    """
    return m - 1 if k == m - 2 else k


def spinor_on_plane(rng, m: int, k: int, field: str):
    """(plane, xi, nullity): xi = v_1 ... v_k Phi for a random plane of
    dimension k, with dim M(xi) confirmed to be generic_nullity(m, k)."""
    plane = rand_plane(rng, m, k, field)
    want = generic_nullity(m, k)
    while True:
        xi = {a: rand_scalar(rng, field, 9, 3) for a in range(1 << m)}
        for alpha, beta in reversed(plane):
            xi = fock_act(alpha, beta, xi, m)
        if xi and (want == m or nullity(xi, m) == want):
            return plane, xi, want


def vector_json(vector) -> dict:
    alpha, beta = vector
    return {"alpha": [scalar_text(x) for x in alpha], "beta": [scalar_text(x) for x in beta]}


def spinor_json(xi: dict, m: int) -> dict:
    return {"m": m, "xi": {str(a): scalar_text(c) for a, c in sorted(xi.items())}}


def constraint_count(m: int) -> int:
    """Classical purity constraints in dimension 2m: grades j < m, 4 | m - j."""
    return sum(comb(2 * m, j) for j in range(m) if (m - j) % 4 == 0)


# -- elements -------------------------------------------------------------------


def _element_json(m: int, keys, rng) -> dict:
    terms = [
        {"a": signature(a, m), "b": signature(b, m), "c": scalar_text(rand_scalar(rng, Q, 9, 4))}
        for a, b in sorted(keys)
    ]
    return {"m": m, "field": Q, "terms": terms}


def _distinct_keys(count: int, draw) -> set[tuple[int, int]]:
    """`count` distinct (a, b) keys; draw(slot) proposes the key for a slot."""
    keys: set[tuple[int, int]] = set()
    while len(keys) < count:
        key = draw(len(keys))
        keys.add(key)
    return keys


def rand_element(rng, m: int, terms: int, xor_classes: int) -> dict:
    """Element with exactly `terms` terms spread evenly over `xor_classes`
    values of a ^ b (the number of classes sets the gamma expansion's cost)."""
    n = 1 << m
    xors = rng.sample(range(n), xor_classes)

    def draw(slot):
        a = rng.randrange(n)
        return a, a ^ xors[slot % xor_classes]

    return _element_json(m, _distinct_keys(terms, draw), rng)


def product_pair(rng, m: int, terms: int, shared: int) -> tuple[dict, dict, int]:
    """(x, y, term_pairs): x's columns and y's rows run through the same
    `shared` masks, each terms/shared times, so x*y visits terms^2/shared
    term pairs."""
    n = 1 << m
    masks = rng.sample(range(n), shared)
    x_keys = _distinct_keys(terms, lambda slot: (rng.randrange(n), masks[slot % shared]))
    y_keys = _distinct_keys(terms, lambda slot: (masks[slot % shared], rng.randrange(n)))
    return _element_json(m, x_keys, rng), _element_json(m, y_keys, rng), terms * terms // shared


def seeded(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")
