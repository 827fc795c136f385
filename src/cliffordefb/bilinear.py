"""The intertwining form B, the spinor inner product, rank-one endomorphisms,
and the gamma-basis / Witt-basis multivector expansions.

B is the (scale-unique) solution of gamma_i^t B = B gamma_i.  Since every
generator matrix is a signed permutation, each intertwining equation ties
exactly two entries of B with a sign, so the joint system is solved exactly
by one breadth-first sign propagation over the graph on the n^2 entries
(a component whose cycles force opposite signs is zero); the solution space
must come out one-dimensional, B is normalized so its first nonzero entry
in row-major order is 1, and its support must be a permutation pattern.

Expansions.  The gamma expansion writes mu over the 2^(2m) ordered products
gamma_i1...gamma_ik with coefficients 2^-m trace(gamma^ik...gamma^i1 mu),
gamma^i = (-1)^(i+1) gamma_i; it is an exact basis and round-trips.  The
Witt expansion uses words of singles x_i in {p_i, q_i} and couples y_j in
{q_j p_j, p_j q_j} over disjoint sites.  That word family is overcomplete
(the absent site carries q p + p q = 1), so coefficients are defined by the
trace pairing: coeff(W) = trace(probe_W mu) / trace(probe_W W), where the
probe replaces each single by its dual partner, reverses the singles, and
keeps the couples; the denominator is +-2^(m-l-r) and fixes the sign per
word.  Full-support words (a single or couple at every site) recover the
EFB coefficients exactly, which is what reconstruction uses; coefficients
of partial words equal the averaged couple-fillings of their absent sites.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionError, InternalCheckError
from .algebra import Algebra, AlgebraElement
from .linalg import Matrix
from .matrixrep import RepContext, SignedPerm, signedperm_trace_against
from .vectors import WittFrame, WittVector, embed, standard_frame
from .spinors import Spinor, vector_act


def rep_context(algebra: Algebra) -> RepContext:
    rep = algebra._cache.get("rep")
    if rep is None:
        rep = RepContext(algebra)
        algebra._cache["rep"] = rep
    return rep


# -- spinors as matrix columns -------------------------------------------------


def spinor_column(rep: RepContext, omega: Spinor) -> list:
    """Signed coordinates of the spinor in matrix column 2^m - 1."""
    full = rep.algebra.full_mask
    zero = rep.algebra.zero_scalar
    col = [zero] * rep.dim
    for a, c in omega.xi.items():
        col[a] = c if rep.word_sign(a, full) > 0 else -c
    return col


# -- the form B ----------------------------------------------------------------


class BForm:
    """Intertwiner B as a signed permutation matrix, normalized and verified."""

    __slots__ = ("rep", "sp")

    def __init__(self, rep: RepContext, sp: SignedPerm):
        self.rep = rep
        self.sp = sp

    @property
    def algebra(self) -> Algebra:
        return self.rep.algebra

    def apply(self, col):
        return self.sp.apply(col)

    def matrix(self) -> Matrix:
        return self.sp.to_dense(self.algebra.one_scalar, self.algebra.zero_scalar)

    def transpose_sign(self) -> int:
        m = self.algebra.m
        return -1 if (m * (m - 1) // 2) % 2 else 1

    def inner(self, omega: Spinor, phi: Spinor):
        """B(omega, phi) = <B omega, phi>."""
        x = spinor_column(self.rep, omega)
        y = spinor_column(self.rep, phi)
        bx = self.sp.apply(x)
        total = self.algebra.zero_scalar
        for a, b in zip(bx, y):
            if a and b:
                total = total + a * b
        return total

    def endo_from_pair(self, omega: Spinor, phi: Spinor) -> AlgebraElement:
        """The element acting as phi' -> <B phi, phi'> omega."""
        x = spinor_column(self.rep, omega)
        by = self.sp.apply(spinor_column(self.rep, phi))
        entries = {}
        for r, xv in enumerate(x):
            if not xv:
                continue
            for c, yv in enumerate(by):
                if yv:
                    entries[(r, c)] = xv * yv
        return self.rep.from_matrix(entries)


def build_b(rep: RepContext) -> BForm:
    """Solve {gamma_i^t B = B gamma_i} exactly; assert a 1-dim solution space.

    Entry e = r*n + c of B is a graph node; gamma (e_c -> sign_c e_perm(c))
    ties B[perm(r), s] = sign_r sign_s B[r, perm(s)], so each gamma links a
    node to two neighbours, one through perm and one through its inverse.
    One breadth-first pass per component records each node's sign parity
    relative to the component's first (smallest) node; a component is
    forced to zero when two paths disagree.
    """
    n = rep.dim
    links = []
    for gamma in rep.gammas:
        perm, signs = gamma.perm, gamma.signs
        inv = [0] * n
        for c, r in enumerate(perm):
            inv[r] = c
        negative = [1 if sg < 0 else 0 for sg in signs]
        links.append((perm, inv, negative))
    unseen = 2
    parity = bytearray([unseen]) * (n * n)
    alive = []
    for start in range(n * n):
        if parity[start] != unseen:
            continue
        parity[start] = 0
        component = [start]
        dead = False
        for node in component:
            r, s = divmod(node, n)
            here = parity[node]
            for perm, inv, negative in links:
                # node = (perm(x), y) with x = inv(r), y = s: tied to (x, perm(y))
                x = inv[r]
                other = x * n + perm[s]
                want = here ^ negative[x] ^ negative[s]
                seen = parity[other]
                if seen == unseen:
                    parity[other] = want
                    component.append(other)
                elif seen != want:
                    dead = True
                # node = (x, perm(y)) with x = r, y = inv(s): tied to (perm(x), y)
                y = inv[s]
                other = perm[r] * n + y
                want = here ^ negative[r] ^ negative[y]
                seen = parity[other]
                if seen == unseen:
                    parity[other] = want
                    component.append(other)
                elif seen != want:
                    dead = True
        if not dead:
            alive.append(component)
    if len(alive) != 1:
        raise InternalCheckError(
            f"intertwining solution space has dimension {len(alive)}, expected 1"
        )
    perm = [-1] * n
    signs = [0] * n
    rows_seen = set()
    for node in alive[0]:
        r, c = divmod(node, n)
        if perm[c] != -1 or r in rows_seen:
            raise InternalCheckError("B support is not a permutation pattern")
        perm[c] = r
        signs[c] = -1 if parity[node] else 1
        rows_seen.add(r)
    if -1 in perm:
        raise InternalCheckError("B support misses a column")
    sp = SignedPerm(perm, signs)
    bform = BForm(rep, sp)
    _verify_b(bform)
    return bform


def _verify_b(bform: BForm):
    rep = bform.rep
    m = rep.algebra.m
    sp = bform.sp
    t = sp.transpose()
    want = bform.transpose_sign()
    if t != (sp if want > 0 else -sp):
        raise InternalCheckError("B does not satisfy its transpose symmetry")
    for i, gamma in enumerate(rep.gammas, start=1):
        lhs = gamma.transpose().compose(sp)
        rhs = sp.compose(gamma)
        if lhs != rhs:
            raise InternalCheckError(f"gamma_{i}^t B != B gamma_{i}")


def bilinear_form(algebra: Algebra) -> BForm:
    bf = algebra._cache.get("bform")
    if bf is None:
        bf = build_b(rep_context(algebra))
        algebra._cache["bform"] = bf
    return bf


# -- gamma expansion -----------------------------------------------------------


class GammaExpansion(NamedTuple):
    m: int
    coefficients: dict  # multiindex tuple (ascending, 1-based) -> scalar


def gamma_word_str(indices) -> str:
    return "^".join(f"g{i}" for i in indices) if indices else "1"


def expand_gamma(mu: AlgebraElement) -> GammaExpansion:
    """Coefficients 2^-m trace(gamma^ik...gamma^i1 mu) over all multi-indices.

    Only subsets whose net bit flip matches some row^column of mu can pair
    nontrivially, so enumeration is restricted to those xor classes.
    """
    algebra = mu.algebra
    rep = rep_context(algebra)
    mat = rep.to_matrix(mu)
    xors = {r ^ c for (r, c) in mat}
    m = algebra.m
    scale = algebra.one_scalar / (1 << m)
    coefficients = {}
    for xor in xors:
        for indices in _subsets_with_xor(m, xor):
            probe = rep.dual_gamma_word(tuple(reversed(indices)))
            val = signedperm_trace_against(probe, mat, algebra.zero_scalar)
            if val:
                coefficients[indices] = val * scale
    return GammaExpansion(m, coefficients)


def _subsets_with_xor(m: int, xor: int):
    """Ascending index tuples from {1..2m} whose odd-count sites match xor bits."""
    site_choices = []
    for site in range(1, m + 1):
        odd = (xor >> (m - site)) & 1
        g1, g2 = 2 * site - 1, 2 * site
        if odd:
            site_choices.append(((g1,), (g2,)))
        else:
            site_choices.append(((), (g1, g2)))
    def rec(site_idx, acc):
        if site_idx == m:
            yield tuple(acc)
            return
        for choice in site_choices[site_idx]:
            yield from rec(site_idx + 1, acc + list(choice))
    yield from rec(0, [])


def reconstruct_gamma(algebra: Algebra, expansion: GammaExpansion) -> AlgebraElement:
    """Sum of xi_K gamma_i1...gamma_ik, assembled through the representation."""
    if expansion.m != algebra.m:
        raise DimensionError("expansion does not match the algebra's m")
    rep = rep_context(algebra)
    entries: dict[tuple[int, int], object] = {}
    for indices, coeff in expansion.coefficients.items():
        word = rep.gamma_word(indices)
        for c, (r, s) in enumerate(zip(word.perm, word.signs)):
            key = (r, c)
            val = coeff if s > 0 else -coeff
            prev = entries.get(key)
            val = val if prev is None else prev + val
            if val:
                entries[key] = val
            elif prev is not None:
                del entries[key]
    return rep.from_matrix(entries)


def gamma_word_element(algebra: Algebra, indices) -> AlgebraElement:
    """gamma_i1 ... gamma_ik as an explicit product of embedded generators."""
    from .vectors import embed_gamma

    acc = algebra.identity()
    for i in indices:
        acc = acc * embed_gamma(algebra, i)
    return acc


# -- Witt expansion ------------------------------------------------------------


class WittWord(NamedTuple):
    singles: tuple  # ((site, "p"|"q"), ...) ascending sites
    couples: tuple  # ((site, "qp"|"pq"), ...) ascending sites

    @property
    def grade(self) -> int:
        return len(self.singles) + 2 * len(self.couples)

    def support(self) -> set[int]:
        return {s for s, _ in self.singles} | {s for s, _ in self.couples}

    def word_str(self) -> str:
        items = [(s, kind[0] + str(s) + (kind[1] + str(s) if len(kind) > 1 else ""))
                 for s, kind in list(self.singles) + list(self.couples)]
        if not items:
            return "1"
        return ".".join(text for _s, text in sorted(items))

    def is_z_word(self) -> bool:
        """Only letters q_i and q_i p_i (the simple-spinor certificate letters)."""
        return all(k == "q" for _s, k in self.singles) and all(
            k == "qp" for _s, k in self.couples
        )


class WittExpansion(NamedTuple):
    m: int
    coefficients: dict  # WittWord -> scalar


def iter_witt_words(m: int, max_grade: int | None = None, z_only: bool = False):
    """All Witt words over m sites (5 states per site, 3 for z-words)."""
    states = ("", "q", "qp") if z_only else ("", "p", "q", "qp", "pq")

    def rec(site, singles, couples, grade):
        if max_grade is not None and grade > max_grade:
            return
        if site > m:
            yield WittWord(tuple(singles), tuple(couples))
            return
        for st in states:
            if st == "":
                yield from rec(site + 1, singles, couples, grade)
            elif len(st) == 1:
                yield from rec(site + 1, singles + [(site, st)], couples, grade + 1)
            else:
                yield from rec(site + 1, singles, couples + [(site, st)], grade + 2)

    yield from rec(1, [], [], 0)


def _frame_letter(frame: WittFrame, site: int, kind: str) -> list[WittVector]:
    """Letter as a list of frame vectors in product order."""
    u = frame.q_vecs[site - 1]
    w = frame.p_vecs[site - 1]
    if kind == "q":
        return [u]
    if kind == "p":
        return [w]
    if kind == "qp":
        return [u, w]
    return [w, u]


def word_vectors(frame: WittFrame, word: WittWord) -> list[WittVector]:
    """The word as its sequence of frame vectors, singles then couples by site."""
    out = []
    for site, kind in word.singles:
        out.extend(_frame_letter(frame, site, kind))
    for site, kind in word.couples:
        out.extend(_frame_letter(frame, site, kind))
    return out


def probe_vectors(frame: WittFrame, word: WittWord) -> list[WittVector]:
    """Prop-8 probe: duals of the singles in reversed order, then the couples
    in reversed order."""
    out = []
    for site, kind in reversed(word.singles):
        dual_kind = "p" if kind == "q" else "q"
        out.extend(_frame_letter(frame, site, dual_kind))
    for site, kind in reversed(word.couples):
        out.extend(_frame_letter(frame, site, kind))
    return out


def apply_vector_chain(vectors: list[WittVector], omega: Spinor) -> Spinor:
    """v_1 v_2 ... v_t omega, rightmost factor acting first."""
    acc = omega
    for v in reversed(vectors):
        if acc.is_zero():
            return acc
        acc = vector_act(v, acc)
    return acc


def element_of_vectors(algebra: Algebra, vectors: list[WittVector]) -> AlgebraElement:
    acc = algebra.identity()
    for v in vectors:
        acc = acc * embed(v)
    return acc


def default_frame(algebra: Algebra) -> WittFrame:
    """The standard frame, cached so its word probes persist per algebra."""
    frame = algebra._cache.get("standard_frame")
    if frame is None:
        frame = standard_frame(algebra)
        algebra._cache["standard_frame"] = frame
    return frame


def _probe_element(frame: WittFrame, word: WittWord) -> AlgebraElement:
    cache = frame._probe_cache.setdefault("probes", {})
    probe = cache.get(word)
    if probe is None:
        probe = element_of_vectors(frame.algebra, probe_vectors(frame, word))
        cache[word] = probe
    return probe


def trace_of_product(x: AlgebraElement, y: AlgebraElement):
    """trace(x y) without materializing the product: sum over matched words."""
    algebra = x.algebra
    total = algebra.zero_scalar
    yterms = y.terms
    for (a, b), xc in x.terms.items():
        yc = yterms.get((b, a))
        if yc is None:
            continue
        val = xc * yc
        if algebra.sign_s(a, b, a) < 0:
            val = -val
        total = total + val
    return total


def _word_norm(frame: WittFrame, word: WittWord):
    """trace(probe_W W) = +-2^(m-l-r); fixes the sign of the coefficient."""
    cache = frame._probe_cache.setdefault("norms", {})
    val = cache.get(word)
    if val is None:
        algebra = frame.algebra
        probe = _probe_element(frame, word)
        welem = element_of_vectors(algebra, word_vectors(frame, word))
        val = trace_of_product(probe, welem)
        expected = 1 << (algebra.m - len(word.singles) - len(word.couples))
        if val != expected and val != -expected:
            raise InternalCheckError(
                f"word norm {val} is not +-{expected} for {word.word_str()}"
            )
        cache[word] = val
    return val


def witt_coefficient(mu: AlgebraElement, word: WittWord, frame: WittFrame | None = None):
    """trace(probe_W mu) / trace(probe_W W)."""
    frame = frame or default_frame(mu.algebra)
    return trace_of_product(_probe_element(frame, word), mu) / _word_norm(frame, word)


def expand_witt(
    mu: AlgebraElement,
    frame: WittFrame | None = None,
    max_grade: int | None = None,
) -> WittExpansion:
    """All nonzero Witt-word coefficients (cost: 5^m words; desk scale only)."""
    algebra = mu.algebra
    frame = frame or default_frame(algebra)
    coefficients = {}
    for word in iter_witt_words(algebra.m, max_grade=max_grade):
        val = witt_coefficient(mu, word, frame)
        if val:
            coefficients[word] = val
    return WittExpansion(algebra.m, coefficients)


def reconstruct_witt(
    algebra: Algebra, expansion: WittExpansion, frame: WittFrame | None = None
) -> AlgebraElement:
    """Rebuild mu from the full-support words, whose coefficients are exactly
    the coefficients of the corresponding basis words."""
    if expansion.m != algebra.m:
        raise DimensionError("expansion does not match the algebra's m")
    frame = frame or default_frame(algebra)
    acc = algebra.zero()
    for word, coeff in expansion.coefficients.items():
        if len(word.singles) + len(word.couples) != algebra.m:
            continue
        acc = acc + element_of_vectors(algebra, word_vectors(frame, word)).scale(coeff)
    return acc
