"""The intertwining form B, the spinor inner product, rank-one endomorphisms,
and the gamma-basis / Witt-basis multivector expansions.

B is the (scale-unique) solution of gamma_i^t B = B gamma_i.  It has the
closed form gamma_2 gamma_4 ... gamma_2m for even m and gamma_1 gamma_3 ...
gamma_(2m-1) for odd m, one ``GammaWord`` (f, sigma, eps) normalized so
that its entry in row 0 is +1.  Every build verifies, in O(m^2) bit
operations on the triples, the intertwining equations and the transpose
symmetry, and proves the solution space one-dimensional: B^-1 X commutes
with every gamma for any solution X, and the commutant of the gammas is the
scalars because the masks sigma of the diagonal words gamma_(2i-1) gamma_(2i)
are independent over GF(2), so their signs separate the basis vectors, while
gamma_(2i-1) flips site i, which links all of them.

Expansions.  The gamma expansion writes mu over the 2^(2m) ordered products
gamma_i1...gamma_ik with coefficients 2^-m trace(gamma^ik...gamma^i1 mu),
gamma^i = (-1)^(i+1) gamma_i; it is an exact basis and round-trips.  Each
word acts as e_c -> (-1)^(eps + |c & sigma|) e_(c ^ f) with (f, sigma, eps)
from ``RepContext.dual_word_action``, so within one xor class f = r ^ c the
words are the characters of a Walsh-Hadamard transform over the entries
(r, c) of mu: both directions are one integer transform per class, on
numerators over a common denominator.  The expansion lists a class's words
once and reads each word's masks off its position in the list.  The Witt
expansion uses words of singles x_i in {p_i, q_i} and couples y_j in
{q_j p_j, p_j q_j} over disjoint sites.  That word family is overcomplete
(the absent site carries q p + p q = 1), so coefficients are defined by
the trace pairing:
coeff(W) = trace(probe_W mu) / trace(probe_W W), where the probe replaces
each single by its dual partner, reverses the singles, and keeps the
couples.  In the standard frame the pairing has a closed form: full-support
words carry the EFB coefficients, and a partial word carries the average of
its couple-fillings, so ``expand_witt`` reads the expansion off the EFB
terms, onto words kept as index masks (``WittWord``), with the kept-couple
structure built once per xor class a ^ b of the terms, and reconstruction
copies each full-support numerator to its EFB index.  A frame (u_i, w_i)
enters only through its change of Fock basis G, built from the Fock chains:
expansion reads the closed form off G^-1 mu G, and reconstruction
conjugates the copy back by G.  The probe route and the
products of each word's frame vectors are the harness's and the tests'
oracles.

Both expansions are ``StoredForm``s of their algebra (README, "Stored
form"), keyed by word (an index tuple, or a ``WittWord``), with
``coefficients`` the view.  The expansions emit their integer sums over
mu.den 2^m after one gcd pass; the reconstructions read the numerators of
an expansion of the same algebra.
"""

from __future__ import annotations

from itertools import product
from operator import add, sub
from typing import NamedTuple

from .errors import DimensionError, InternalCheckError
from .algebra import Algebra, AlgebraElement, StoredForm
from .matrixrep import GammaWord, RepContext
from .scalars import from_integer
from .vectors import WittFrame
from .vectors import element_of_vectors  # noqa: F401 (bound here for perfbench's tracer)
from .spinors import Spinor
from .spinors import fock_chain_images, integer_action


def rep_context(algebra: Algebra) -> RepContext:
    rep = algebra._cache.get("rep")
    if rep is None:
        rep = RepContext(algebra)
        algebra._cache["rep"] = rep
    return rep


# -- the form B ----------------------------------------------------------------


class BForm:
    """The intertwiner B as one gamma word, normalized and verified."""

    __slots__ = ("rep", "word", "_pairing")

    def __init__(self, rep: RepContext, word: GammaWord):
        self.rep = rep
        self.word = word
        self._pairing = None

    @property
    def algebra(self) -> Algebra:
        return self.rep.algebra

    def transpose_sign(self) -> int:
        m = self.algebra.m
        return -1 if (m * (m - 1) // 2) % 2 else 1

    def fock_pairing(self) -> list[tuple[int, int]]:
        """(d, sign) per Fock index c, with B(Psi_c, phi) = sign * phi_d: the
        signed permutation of B read in spinor coordinates.

        The only place B meets the column signs: Psi_c is the matrix unit
        e_c of column 2^m - 1 times ``RepContext.word_sign(c, full)``, so
        the sign is B's sign at c times the column signs of c and d = c ^ f."""
        if self._pairing is None:
            full = self.algebra.full_mask
            w = self.rep.word_sign
            word = self.word
            self._pairing = [
                (c ^ word.f, word.sign(c) * w(c, full) * w(c ^ word.f, full))
                for c in range(self.rep.dim)
            ]
        return self._pairing

    def inner(self, omega: Spinor, phi: Spinor):
        """B(omega, phi) = <B omega, phi>: one signed lookup in phi per
        coordinate of omega, on the stored numerators, divided once by the
        product of the two denominators."""
        algebra = self.algebra
        algebra.check_compatible(omega.algebra)
        algebra.check_compatible(phi.algebra)
        pairing = self.fock_pairing()
        eta = phi.nums
        total = algebra.zero_num
        for c, x in omega.nums.items():
            d, sign = pairing[c]
            y = eta.get(d)
            if y is None:
                continue
            if sign > 0:
                total = total + x * y
            else:
                total = total - x * y
        return from_integer(total, omega.den * phi.den)

    def endo_from_pair(self, omega: Spinor, phi: Spinor) -> AlgebraElement:
        """The element acting as phi' -> B(phi, phi') omega.

        It is omega's column element times phi's B-dual row
        sum_c sign_c phi_c s(full, d, full) Psi_(full, d): the row sends
        Psi_(d, full) to sign_c phi_c Psi_(full, full), and the column element
        takes Psi_(full, full) to omega.
        """
        algebra = self.algebra
        algebra.check_compatible(omega.algebra)
        algebra.check_compatible(phi.algebra)
        full = algebra.full_mask
        pairing = self.fock_pairing()
        row = {}
        for c, y in phi.nums.items():
            d, sign = pairing[c]
            row[(full, d)] = y if sign * algebra.sign_s(full, d, full) > 0 else -y
        return omega.to_element() * AlgebraElement.from_numerators(algebra, row, phi.den)


def build_b(rep: RepContext) -> BForm:
    """B in closed form, with its uniqueness proved and its equations verified."""
    _check_scalar_commutant(rep)
    m = rep.m
    word = rep.word(range(2 if m % 2 == 0 else 1, 2 * m + 1, 2))
    if word.sign(word.f) < 0:  # the entry in row 0 sits in column f
        word = -word
    bform = BForm(rep, word)
    _verify_b(bform)
    return bform


def _check_scalar_commutant(rep: RepContext):
    """Only scalars commute with every gamma, so intertwiners form one line.

    A matrix commuting with the diagonal words D_i = gamma_(2i-1) gamma_(2i)
    is diagonal once their joint sign patterns tell the 2^m basis vectors
    apart, that is once the m masks sigma(D_i) are independent over GF(2);
    a diagonal matrix commuting with gamma_(2i-1), which flips site i, takes
    equal values across that flip, hence one value throughout.
    """
    m = rep.m
    basis: list[int] = []  # the diagonal masks reduced to distinct leading bits
    for i in range(1, m + 1):
        if rep.word((2 * i - 1,)).f != 1 << (m - i):
            raise InternalCheckError(f"gamma_{2 * i - 1} does not flip site {i}")
        diagonal = rep.word((2 * i - 1, 2 * i))
        if diagonal.f:
            raise InternalCheckError(f"gamma_{2 * i - 1} gamma_{2 * i} is not diagonal")
        sigma = diagonal.sigma
        for b in basis:
            sigma = min(sigma, sigma ^ b)
        if not sigma:
            raise InternalCheckError(
                "the diagonal words do not separate the basis: the gammas have a "
                "commutant beyond the scalars"
            )
        basis.append(sigma)


def _verify_b(bform: BForm):
    word = bform.word
    if word.transpose() != (word if bform.transpose_sign() > 0 else -word):
        raise InternalCheckError("B does not satisfy its transpose symmetry")
    for i in range(1, 2 * bform.rep.m + 1):
        gamma = bform.rep.word((i,))
        if gamma.transpose().compose(word) != word.compose(gamma):
            raise InternalCheckError(f"gamma_{i}^t B != B gamma_{i}")


def bilinear_form(algebra: Algebra) -> BForm:
    bf = algebra._cache.get("bform")
    if bf is None:
        bf = build_b(rep_context(algebra))
        algebra._cache["bform"] = bf
    return bf


# -- expansions ----------------------------------------------------------------


class _Expansion(StoredForm):
    """Words -> coefficients in the stored form (README, "Stored form"),
    keyed by word, with ``coefficients`` the field-value view."""

    __slots__ = ()

    coefficients = property(StoredForm._view)

    @property
    def m(self) -> int:
        return self.algebra.m


# -- gamma expansion -----------------------------------------------------------


class GammaExpansion(_Expansion):
    """Ascending 1-based index tuples -> coefficients of gamma_i1...gamma_ik."""

    __slots__ = ()

    @staticmethod
    def _key_in_range(algebra: Algebra, key) -> bool:
        """A tuple of gamma indices, ints in 1 .. 2m; like
        ``reconstruct_gamma``, any order and repeats."""
        n = 2 * algebra.m
        return type(key) is tuple and all(type(i) is int and 1 <= i <= n for i in key)


def gamma_word_str(indices) -> str:
    return "^".join(f"g{i}" for i in indices) if indices else "1"


def expand_gamma(mu: AlgebraElement) -> GammaExpansion:
    """Coefficients 2^-m trace(gamma^ik...gamma^i1 mu) over all multi-indices.

    The dual word (f, sigma, eps) pairs only with the entries (r, r ^ f) of
    mu, as (-1)^(eps + |r & sigma|).  So with g[r] = mu_(r, r ^ f) the class
    f holds the coefficients (-1)^eps H g[sigma] / 2^m of its 2^m words, for
    the Walsh-Hadamard transform H g[s] = sum_r (-1)^|r & s| g[r].
    """
    algebra = mu.algebra
    rep = rep_context(algebra)
    m, sign = algebra.m, rep.word_sign
    zero = algebra.zero_num
    classes: dict[int, list] = {}
    for (r, c), num in mu.nums.items():  # the matrix entry (r, c) is sign(r, c) mu_rc
        row = classes.get(r ^ c)
        if row is None:
            row = classes[r ^ c] = [zero] * rep.dim
        row[r] = num if sign(r, c) > 0 else -num
    nums = {}
    for xor, row in classes.items():
        spectrum = walsh_hadamard(row)
        words, sigma0, eps0 = _class_words(rep, xor)
        for i, indices in enumerate(words):
            num = spectrum[i ^ sigma0]
            if num:
                nums[indices] = -num if eps0 ^ (i & xor).bit_count() & 1 else num
    return GammaExpansion.from_numerators(algebra, nums, mu.den << m)


def _class_words(rep: RepContext, xor: int) -> tuple[list, int, int]:
    """(words, sigma_0, eps_0): the ascending index tuples of class xor, and
    the dual action of word 0.

    A flipped site s picks (2s-1,) or (2s,), any other site () or
    (2s-1, 2s); each site doubles the list, its picks varying fastest, so
    the i-th word takes the second choice at the bits of i (site s on bit
    m - s).  The dual word applies gamma^i1 first.  At site s (bit p), with
    F the class's bits above p: gamma^(2s-1) adds |F| to eps and the bits
    above p to sigma; gamma^(2s) adds one more to eps and bit p to sigma;
    the couple adds bit p to sigma and nothing to eps.  So the second choice
    at site s toggles bit p of sigma and, on a flipped site, eps: the i-th
    word has sigma = i ^ sigma_0 and eps = eps_0 + |i & xor|.
    """
    m = rep.m
    words = [()]
    for site in range(1, m + 1):
        odd = 2 * site - 1
        picks = ((odd,), (odd + 1,)) if (xor >> (m - site)) & 1 else ((), (odd, odd + 1))
        words = [word + pick for word in words for pick in picks]
    _f, sigma0, eps0 = rep.dual_word_action(words[0][::-1])
    return words, sigma0, eps0


def walsh_hadamard(vec: list) -> list:
    """H vec for 2^k integers (or Gaussian integers): sum_r (-1)^|r & s| vec[r] at s.

    Each of the k passes folds the lowest index bit into sums (first half)
    and differences (second half), which rotates that bit to the top; after
    k passes every bit is back in place.
    """
    for _ in range(len(vec).bit_length() - 1):
        even, odd = vec[0::2], vec[1::2]
        vec = list(map(add, even, odd)) + list(map(sub, even, odd))
    return vec


def reconstruct_gamma(algebra: Algebra, expansion: GammaExpansion) -> AlgebraElement:
    """Sum of xi_K gamma_i1...gamma_ik, assembled through the representation.

    The word is the dual word negated once per even index, so it sends e_c
    to (-1)^(eps + |c & sigma|) e_(c ^ f) with eps flipped by that parity.
    The words of one class f add (-1)^eps xi_K into h[sigma]; the entries
    (c ^ f, c) are then H h[c], the class's Walsh-Hadamard transform.  Index
    tuples need not be ascending or distinct.
    """
    algebra.check_compatible(expansion.algebra)
    rep = rep_context(algebra)
    zero, word = algebra.zero_num, rep.word
    classes: dict[int, list] = {}
    for indices, num in expansion.nums.items():
        f, sigma, eps = word(indices)
        row = classes.get(f)
        if row is None:
            row = classes[f] = [zero] * rep.dim
        row[sigma] = row[sigma] - num if eps else row[sigma] + num
    entries = {}
    for f, row in classes.items():
        for c, num in enumerate(walsh_hadamard(row)):
            if num:
                entries[(c ^ f, c)] = num
    return rep.from_numerators(entries, expansion.den)


# -- Witt expansion ------------------------------------------------------------


class WittWord(NamedTuple):
    """A Witt word as masks, site i at bit m - i as in EFB indices: singles
    (p_i or q_i) on ``single_mask``, couples (q_j p_j or p_j q_j) on the
    disjoint ``couple_mask``, and on ``h_mask`` the sites of p_i and p_i q_i
    (the EFB h-bit).  A full-support word is Psi_ab with a = h_mask and
    b = a ^ single_mask; the letter tuples are views read from the masks."""

    m: int
    single_mask: int
    couple_mask: int
    h_mask: int

    def _letters(self, mask: int, names: tuple) -> tuple:
        m, h = self.m, self.h_mask
        return tuple((i, names[h >> (m - i) & 1]) for i in range(1, m + 1) if mask >> (m - i) & 1)

    @property
    def singles(self) -> tuple:
        """((site, "p"|"q"), ...) in ascending sites."""
        return self._letters(self.single_mask, ("q", "p"))

    @property
    def couples(self) -> tuple:
        """((site, "qp"|"pq"), ...) in ascending sites."""
        return self._letters(self.couple_mask, ("qp", "pq"))

    @property
    def grade(self) -> int:
        return self.single_mask.bit_count() + 2 * self.couple_mask.bit_count()

    def support(self) -> set[int]:
        return {site for site, _ in self.singles + self.couples}

    def word_str(self) -> str:
        """The letters in site order, e.g. "q1.p2q2"; "1" for the empty word."""
        m, couple, h = self.m, self.couple_mask, self.h_mask
        texts = []
        for i in range(1, m + 1):
            bit = 1 << (m - i)
            if (self.single_mask | couple) & bit:
                first, second = ("p", "q") if h & bit else ("q", "p")
                texts.append(f"{first}{i}{second}{i}" if couple & bit else f"{first}{i}")
        return ".".join(texts) or "1"

    def is_z_word(self) -> bool:
        """Only letters q_i and q_i p_i (the simple-spinor certificate letters)."""
        return not self.h_mask


class WittExpansion(_Expansion):
    """``WittWord`` -> coefficients."""

    __slots__ = ()

    @staticmethod
    def _key_in_range(algebra: Algebra, key) -> bool:
        """A ``WittWord`` of the algebra's m: masks within ``full_mask``,
        singles and couples disjoint, the h-bits on their sites."""
        if type(key) is not WittWord or key.m != algebra.m:
            return False
        masks = (key.single_mask, key.couple_mask, key.h_mask)
        if not all(type(mask) is int and 0 <= mask <= algebra.full_mask for mask in masks):
            return False
        single, couple, h = masks
        return not single & couple and not h & ~(single | couple)


# (single, couple, h) bits of a site's state: absent, p, q, qp, pq
_SITE_STATES = ((0, 0, 0), (1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 1, 1))


def witt_word_of_states(m: int, states) -> WittWord:
    """The word with state ``states[i - 1]`` at site i: 0 absent, 1 p_i,
    2 q_i, 3 q_i p_i, 4 p_i q_i."""
    single = couple = h = 0
    for state in states:
        s, c, hb = _SITE_STATES[state]
        single = single << 1 | s
        couple = couple << 1 | c
        h = h << 1 | hb
    return WittWord(m, single, couple, h)


def iter_witt_words(m: int):
    """All 5^m Witt words over m sites, site 1's state varying slowest."""
    for states in product(range(5), repeat=m):
        yield witt_word_of_states(m, states)


def trace_of_product(x: AlgebraElement, y: AlgebraElement):
    """trace(x y) without materializing the product: sum over matched words."""
    algebra = x.algebra
    above = algebra._above
    total = algebra.zero_num
    y_nums = y.nums
    for (a, b), xn in x.nums.items():
        yn = y_nums.get((b, a))
        if yn is None:
            continue
        g = a ^ b
        # s(a, b, a) of the product rule, read inline as Algebra.mul does
        if (g & above[g]).bit_count() & 1:
            total = total - xn * yn
        else:
            total = total + xn * yn
    return from_integer(total, x.den * y.den)


def _frame_map(frame: WittFrame) -> tuple[AlgebraElement, AlgebraElement, object]:
    """(G, G^-1, lam) for the change-of-Fock-basis map G of a frame (u_i, w_i):
    G q_i = u_i G, G p_i = w_i G and G^t P G = lam P for B's signed
    permutation P, with G scaled to integer entries.

    Column a is the paper's general spinor with the plane of the u_i:
    vac' = u_1...u_m Psi_b (the first nonzero one) is killed by every u_i,
    and G Psi_a = s_a (w-letters of a's sites) vac', one Fock action on
    column a with its top site cleared.  The sign s_a of (p-letters of a's
    sites) Psi_0 = s_a Psi_a is the ratio of the column signs,
    word_sign(a, full) word_sign(0, full).  Both Fock bases come from their
    vacuum by the same letters, so G carries q_i, p_i to u_i, w_i, and G = 1
    in the standard frame.  B(Gx, Gy) intertwines the gammas, as G v G^-1 is
    a vector, so the B-adjoint P^-1 G^t P, with entry sign_a sign_t G_ta at
    (d_a, d_t) for (d, sign) = pairing[.], is lam G^-1, verified on every
    build.  A Fock matrix X is the element with terms X_de s(d, e, full).
    """
    algebra = frame.algebra
    m, full, sign_s = algebra.m, algebra.full_mask, algebra.sign_s
    if frame.size != m:
        raise DimensionError(f"a frame of size {frame.size} does not span m = {m} sites")
    _den, chains = fock_chain_images(frame.q_vecs, algebra)
    vacuum = next(nums for _b, nums in chains if nums)
    letters = [(w.nums, w.den) for w in frame.p_vecs]
    images = [vacuum]
    for a in range(1, 1 << m):
        top = a.bit_length() - 1
        images.append(integer_action(algebra, letters[m - 1 - top][0], images[a ^ 1 << top].items()))
    bform = bilinear_form(algebra)
    pairing, word_sign = bform.fock_pairing(), bform.rep.word_sign
    g, adjoint = {}, {}
    for a, image in enumerate(images):
        scale = word_sign(a, full) * word_sign(0, full)  # s_a, and the w denominators of the sites a lacks
        for i, (_nums, den) in enumerate(letters):
            scale = scale if (a >> (m - 1 - i)) & 1 else scale * den
        d_a, sign_a = pairing[a]
        for t, x in image.items():
            d_t, sign_t = pairing[t]
            g[(t, a)] = scale * x * sign_s(t, a, full)
            adjoint[(d_a, d_t)] = sign_a * sign_t * scale * x * sign_s(d_a, d_t, full)
    g = AlgebraElement.from_numerators(algebra, g)
    adjoint = AlgebraElement.from_numerators(algebra, adjoint)
    product_ = adjoint * g
    lam = product_.coefficient(0, 0)
    if not lam or product_ != algebra.identity().scale(lam):
        raise InternalCheckError("G^t P G is not a nonzero multiple of P")
    return g, adjoint.scale(algebra.one_scalar / lam), lam


def expand_witt(mu: AlgebraElement, frame: WittFrame | None = None) -> WittExpansion:
    """All nonzero Witt-word coefficients over the frame (standard for None).

    A frame's coefficients are the standard ones of G^-1 mu G: conjugation
    by its change of Fock basis G keeps traces and sends every frame word
    and probe to the standard one.  Those are read off the EFB terms: the
    full-support word of a term c Psi_ab carries c, and the partial word
    that drops a set D of its couple sites gets c / 2^|D|.  With c = n / L,
    the word gets n 2^(m - |D|) over L 2^m, an integer sum divided once.
    """
    algebra = mu.algebra
    if frame is not None:
        g, g_inv, _lam = _frame_map(frame)
        mu = g_inv * mu * g
    m, full = algebra.m, algebra.full_mask
    site_bits = [1 << (m - i) for i in range(1, m + 1)]
    # a word is keyed by the int (single << m | couple) << m | h; per g = a ^ b,
    # one entry (head, mask, 2^(|g| + |K|)) per kept couple set K, with
    # head = (g << m | K) << m, mask = g | K and the term's key head | a & mask
    tables = {}
    acc = {}
    for (a, b), num in mu.nums.items():
        g = a ^ b
        table = tables.get(g)
        if table is None:
            table = [(g << 2 * m, g, 1 << g.bit_count())]
            # kept sets by index, the lowest-site couple as its low bit: the emitted key order
            for bit in site_bits:
                if not g & bit:
                    table += [(head | bit << m, mask | bit, 2 * factor) for head, mask, factor in table]
            tables[g] = table
        for head, mask, factor in table:
            key = head | a & mask
            val = num * factor
            prev = acc.get(key)
            acc[key] = val if prev is None else prev + val
    nums = {
        WittWord(m, key >> 2 * m, key >> m & full, key & full): val for key, val in acc.items() if val
    }
    return WittExpansion.from_numerators(algebra, nums, mu.den << m)


def reconstruct_witt(
    algebra: Algebra, expansion: WittExpansion, frame: WittFrame | None = None
) -> AlgebraElement:
    """Rebuild mu from the full-support words, whose coefficients are exactly
    the coefficients of the corresponding basis words.

    In the standard frame a full-support word's product of vectors is +Psi_ab
    itself: its singles stand in ascending site order and its couples are
    even, so each coefficient is copied to Psi_ab with a = h_mask and
    b = a ^ single_mask.  A frame's coefficients are the standard ones of
    G^-1 mu G, so over a frame the copy is conjugated back: mu = G (copy) G^-1.
    The sum of each word's frame-vector product is the harness's oracle.
    """
    algebra.check_compatible(expansion.algebra)
    full = algebra.full_mask
    nums = {
        (word.h_mask, word.h_mask ^ word.single_mask): num
        for word, num in expansion.nums.items()
        if word.single_mask | word.couple_mask == full
    }
    mu = AlgebraElement.from_numerators(algebra, nums, expansion.den)
    if frame is not None:
        g, g_inv, _lam = _frame_map(frame)
        mu = g * mu * g_inv
    return mu
