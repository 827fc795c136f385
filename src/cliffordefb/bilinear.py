"""The intertwining form B, the spinor inner product, rank-one endomorphisms,
and the gamma-basis / Witt-basis multivector expansions.

B is the (scale-unique) solution of gamma_i^t B = B gamma_i.  It has the
closed form gamma_2 gamma_4 ... gamma_2m for even m and gamma_1 gamma_3 ...
gamma_(2m-1) for odd m, normalized so that its entry in row 0 is +1.  Every
build verifies the intertwining equations and the transpose symmetry, and
proves the solution space one-dimensional: B^-1 X commutes with every gamma
for any solution X, and the commutant of the gammas is the scalars because
the diagonal words gamma_(2i-1) gamma_(2i) separate the basis vectors while
gamma_(2i-1) flips site i, which links all of them.

Expansions.  The gamma expansion writes mu over the 2^(2m) ordered products
gamma_i1...gamma_ik with coefficients 2^-m trace(gamma^ik...gamma^i1 mu),
gamma^i = (-1)^(i+1) gamma_i; it is an exact basis and round-trips.  Each
word acts as e_c -> (-1)^(eps + |c & sigma|) e_(c ^ f) with (f, sigma, eps)
from ``RepContext.dual_word_action``, so a coefficient is a signed sum over
the entries (r, c) of mu with r ^ c = f.  The Witt expansion uses words of
singles x_i in {p_i, q_i} and couples y_j in {q_j p_j, p_j q_j} over disjoint
sites.  That word family is overcomplete (the absent site carries
q p + p q = 1), so coefficients are defined by the trace pairing:
coeff(W) = trace(probe_W mu) / trace(probe_W W), where the probe replaces
each single by its dual partner, reverses the singles, and keeps the
couples; the denominator is +-2^(m-l-r) and fixes the sign per word.  In the
standard frame the pairing has a closed form: full-support words (a single
or couple at every site) carry the EFB coefficients, and a partial word
carries the average of its couple-fillings, so ``expand_witt`` reads the
expansion off the EFB terms.  The probe route serves explicit (adapted)
frames and is the oracle for the closed form; reconstruction rebuilds mu
from the full-support words as products of frame vectors.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .errors import DimensionError, InternalCheckError
from .algebra import LETTER_NAMES, Algebra, AlgebraElement, word_of_index
from .linalg import Matrix
from .matrixrep import RepContext, SignedPerm
from .vectors import WittFrame, WittVector, element_of_vectors, standard_frame
from .spinors import Spinor, apply_vector_chain  # noqa: F401 (re-exported)


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

    __slots__ = ("rep", "sp", "_pairing")

    def __init__(self, rep: RepContext, sp: SignedPerm):
        self.rep = rep
        self.sp = sp
        self._pairing = None

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

    def fock_pairing(self) -> list[tuple[int, int]]:
        """(d, sign) per Fock index c, with B(Psi_c, phi) = sign * phi_d: the
        signed permutation of B read in spinor coordinates."""
        if self._pairing is None:
            full = self.algebra.full_mask
            word_sign = self.rep.word_sign
            perm, signs = self.sp.perm, self.sp.signs
            self._pairing = [
                (d, signs[c] * word_sign(c, full) * word_sign(d, full))
                for c, d in enumerate(perm)
            ]
        return self._pairing

    def inner(self, omega: Spinor, phi: Spinor):
        """B(omega, phi) = <B omega, phi>: one signed lookup in phi per
        coordinate of omega.

        The coordinates may also be integer numerators (``GaussInt`` over
        Q(i)); the value is then the field value of the numerators' pairing.
        """
        algebra = self.algebra
        algebra.check_compatible(omega.algebra)
        algebra.check_compatible(phi.algebra)
        pairing = self.fock_pairing()
        eta = phi.xi
        total = 0
        for c, x in omega.xi.items():
            d, sign = pairing[c]
            y = eta.get(d)
            if y is None:
                continue
            if sign > 0:
                total = total + x * y
            else:
                total = total - x * y
        return algebra.zero_scalar + total

    def endo_from_pair(self, omega: Spinor, phi: Spinor) -> AlgebraElement:
        """The element acting as phi' -> <B phi, phi'> omega."""
        self.algebra.check_compatible(omega.algebra)
        self.algebra.check_compatible(phi.algebra)
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
    """B in closed form, with its uniqueness proved and its equations verified."""
    _check_scalar_commutant(rep)
    m = rep.m
    sp = rep.gamma_word(range(2 if m % 2 == 0 else 1, 2 * m + 1, 2))
    if sp.signs[sp.perm.index(0)] < 0:
        sp = -sp
    bform = BForm(rep, sp)
    _verify_b(bform)
    return bform


def _check_scalar_commutant(rep: RepContext):
    """Only scalars commute with every gamma, so intertwiners form one line.

    A matrix commuting with the diagonal words gamma_(2i-1) gamma_(2i) is
    diagonal once their joint sign patterns tell the 2^m basis vectors
    apart; a diagonal matrix commuting with gamma_(2i-1), which flips site i,
    takes equal values across that flip, hence one value throughout.
    """
    m, n = rep.m, rep.dim
    keys = [0] * n
    for i in range(1, m + 1):
        odd, even = rep.gammas[2 * i - 2], rep.gammas[2 * i - 1]
        flip = 1 << (m - i)
        if any(r != c ^ flip for c, r in enumerate(odd.perm)):
            raise InternalCheckError(f"gamma_{2 * i - 1} does not flip site {i}")
        diagonal = odd.compose(even)
        if any(r != c for c, r in enumerate(diagonal.perm)):
            raise InternalCheckError(f"gamma_{2 * i - 1} gamma_{2 * i} is not diagonal")
        for c, sign in enumerate(diagonal.signs):
            if sign < 0:
                keys[c] |= 1 << (i - 1)
    if len(set(keys)) != n:
        raise InternalCheckError(
            "the diagonal words do not separate the basis: the gammas have a "
            "commutant beyond the scalars"
        )


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

    The dual word sends e_c to (-1)^(eps + |c & sigma|) e_(c ^ f), so it pairs
    only with the matrix entries (r, c) of mu with r ^ c = f: words are
    enumerated per xor class of mu's entries, each a signed sum over its class.
    """
    algebra = mu.algebra
    rep = rep_context(algebra)
    classes: dict[int, list] = {}
    for (r, c), val in rep.to_matrix(mu).items():
        classes.setdefault(r ^ c, []).append((r, val))
    m = algebra.m
    scale = algebra.one_scalar / (1 << m)
    coefficients = {}
    for xor, entries in classes.items():
        for indices in _subsets_with_xor(m, xor):
            _f, sigma, eps = rep.dual_word_action(indices[::-1])
            total = algebra.zero_scalar
            for r, val in entries:
                if (r & sigma).bit_count() & 1 == eps:
                    total = total + val
                else:
                    total = total - val
            if total:
                coefficients[indices] = total * scale
    return GammaExpansion(m, coefficients)


def _subsets_with_xor(m: int, xor: int):
    """Ascending index tuples from {1..2m} whose odd-count sites match xor bits."""
    choices = [
        ((2 * site - 1,), (2 * site,)) if (xor >> (m - site)) & 1 else ((), (2 * site - 1, 2 * site))
        for site in range(1, m + 1)
    ]
    for picks in product(*choices):
        yield tuple(i for pick in picks for i in pick)


def reconstruct_gamma(algebra: Algebra, expansion: GammaExpansion) -> AlgebraElement:
    """Sum of xi_K gamma_i1...gamma_ik, assembled through the representation.

    The word is the dual word negated once per even index, so it sends e_c
    to (-1)^(eps + |c & sigma|) e_(c ^ f) with eps flipped by that parity.
    """
    if expansion.m != algebra.m:
        raise DimensionError("expansion does not match the algebra's m")
    rep = rep_context(algebra)
    entries: dict[tuple[int, int], object] = {}
    for indices, coeff in expansion.coefficients.items():
        f, sigma, eps = rep.dual_word_action(indices)
        eps ^= sum(1 for i in indices if i % 2 == 0) & 1
        for c in range(rep.dim):
            key = (c ^ f, c)
            val = -coeff if ((c & sigma).bit_count() & 1) ^ eps else coeff
            prev = entries.get(key)
            val = val if prev is None else prev + val
            if val:
                entries[key] = val
            elif prev is not None:
                del entries[key]
    return rep.from_matrix(entries)


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


def iter_witt_words(m: int):
    """All Witt words over m sites (5 states per site)."""

    def rec(site, singles, couples):
        if site > m:
            yield WittWord(tuple(singles), tuple(couples))
            return
        for st in ("", "p", "q", "qp", "pq"):
            if st == "":
                yield from rec(site + 1, singles, couples)
            elif len(st) == 1:
                yield from rec(site + 1, singles + [(site, st)], couples)
            else:
                yield from rec(site + 1, singles, couples + [(site, st)])

    yield from rec(1, [], [])


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


def _probe_element(frame: WittFrame, word: WittWord) -> AlgebraElement:
    return element_of_vectors(frame.algebra, probe_vectors(frame, word))


def trace_of_product(x: AlgebraElement, y: AlgebraElement):
    """trace(x y) without materializing the product: sum over matched words."""
    algebra = x.algebra
    above = algebra._above
    total = algebra.zero_scalar
    yterms = y.terms
    for (a, b), xc in x.terms.items():
        yc = yterms.get((b, a))
        if yc is None:
            continue
        g = a ^ b
        # s(a, b, a) of the product rule, read inline as Algebra.mul does
        if (g & above[g]).bit_count() & 1:
            total = total - xc * yc
        else:
            total = total + xc * yc
    return total


def _word_norm(frame: WittFrame, word: WittWord, probe: AlgebraElement):
    """trace(probe_W W) = +-2^(m-l-r); fixes the sign of the coefficient."""
    return _checked_norm(word, probe, element_of_vectors(frame.algebra, word_vectors(frame, word)))


def _checked_norm(word: WittWord, probe: AlgebraElement, element: AlgebraElement):
    """trace(probe_W W) for W's element, which must be +-2^(m-l-r)."""
    algebra = probe.algebra
    val = trace_of_product(probe, element)
    expected = 1 << (algebra.m - len(word.singles) - len(word.couples))
    if val != expected and val != -expected:
        raise InternalCheckError(f"word norm {val} is not +-{expected} for {word.word_str()}")
    return val


def witt_coefficient(mu: AlgebraElement, word: WittWord, frame: WittFrame | None = None):
    """trace(probe_W mu) / trace(probe_W W), the probe route."""
    frame = frame or standard_frame(mu.algebra)
    probe = _probe_element(frame, word)
    return trace_of_product(probe, mu) / _word_norm(frame, word, probe)


def probe_table(frame: WittFrame) -> list[tuple]:
    """(word, probe, norm) for all 5^m Witt words, in ``iter_witt_words``
    order: the part of the probe route that does not depend on the element
    expanded.

    Letters on distinct sites anticommute (singles) or commute (couples), so
    a word and its probe are products of one letter per site in site order,
    up to the sign (-1)^(k(k-1)/2) of the probe's k reversed singles.  The
    products are built site by site, shared by the words that agree on the
    sites so far; ``_probe_element`` builds one probe literally.
    """
    algebra = frame.algebra
    letters = [
        [
            (kind, element_of_vectors(algebra, _frame_letter(frame, site, kind)),
             element_of_vectors(algebra, _frame_letter(frame, site, dual)))
            for kind, dual in (("p", "q"), ("q", "p"), ("qp", "qp"), ("pq", "pq"))
        ]
        for site in range(1, algebra.m + 1)
    ]
    table = []

    def rec(site, singles, couples, product, probe):
        if site > algebra.m:
            word = WittWord(tuple(singles), tuple(couples))
            k = len(singles)
            if k * (k - 1) // 2 % 2:
                probe = -probe
            table.append((word, probe, _checked_norm(word, probe, product)))
            return
        rec(site + 1, singles, couples, product, probe)
        for kind, letter, dual in letters[site - 1]:
            if len(kind) == 1:
                rec(site + 1, singles + [(site, kind)], couples, product * letter, probe * dual)
            else:
                rec(site + 1, singles, couples + [(site, kind)], product * letter, probe * dual)

    one = algebra.identity()
    rec(1, [], [], one, one)
    return table


def expand_by_probes(mu: AlgebraElement, table) -> WittExpansion:
    """The probe route over a ``probe_table``: trace(probe_W mu) / norm_W."""
    coefficients = {}
    for word, probe, norm in table:
        val = trace_of_product(probe, mu)
        if val:
            coefficients[word] = val / norm
    return WittExpansion(mu.algebra.m, coefficients)


def expand_witt(mu: AlgebraElement, frame: WittFrame | None = None) -> WittExpansion:
    """All nonzero Witt-word coefficients.

    In the standard frame (``frame=None``) they are read off the EFB terms:
    the full-support word of a term c Psi_ab carries c, and the partial word
    that drops a set D of its couple sites gets c / 2^|D|.  An explicit frame
    takes the probe route over all 5^m words.
    """
    algebra = mu.algebra
    if frame is not None:
        return expand_by_probes(mu, probe_table(frame))
    coefficients = {}
    for (a, b), c in mu.terms.items():
        singles, couples = [], []
        for site, code in enumerate(word_of_index(a, b, algebra.m), start=1):
            (singles if code & 1 else couples).append((site, LETTER_NAMES[code]))
        singles = tuple(singles)
        for kept in range(1 << len(couples)):
            word = WittWord(singles, tuple(x for j, x in enumerate(couples) if kept >> j & 1))
            val = c / (1 << (len(couples) - len(word.couples)))
            prev = coefficients.get(word)
            coefficients[word] = val if prev is None else prev + val
    return WittExpansion(algebra.m, {w: v for w, v in coefficients.items() if v})


def reconstruct_witt(
    algebra: Algebra, expansion: WittExpansion, frame: WittFrame | None = None
) -> AlgebraElement:
    """Rebuild mu from the full-support words, whose coefficients are exactly
    the coefficients of the corresponding basis words."""
    if expansion.m != algebra.m:
        raise DimensionError("expansion does not match the algebra's m")
    frame = frame or standard_frame(algebra)
    acc = algebra.zero()
    for word, coeff in expansion.coefficients.items():
        if len(word.singles) + len(word.couples) != algebra.m:
            continue
        acc = acc + element_of_vectors(algebra, word_vectors(frame, word)).scale(coeff)
    return acc
