"""Three interchangeable simplicity tests and the bilinear constraint counts.

* direct: dim M(omega) = m (annihilator rank).
* Cartan-Chevalley: omega is a chirality eigenvector and omega (x) omega*
  is proportional to the m-fold product of the candidate plane's basis
  (equivalently: a single surviving word in the adapted Witt expansion),
  checked as maps on the 2^m Fock spinors.
* generalized test: in a frame adapted to the candidate plane, for every
  Fock spinor phi the expansion of omega (x) phi* uses only the letters
  q_i and q_i p_i, with grade at least dim(M(omega) meet M(phi)).  The
  forbidden-letter part is evaluated through its exact algebraic
  equivalent, the [q_i, p_i]-left-eigenvalue condition on omega; grades
  are checked by pairing the probe chains of the 3^m candidate-letter
  (z-) words on omega with the Fock spinors, each chain one letter applied
  to a shorter word's chain.  A literal expansion scan (method="words") is
  kept for cross-validation.

Verdicts must agree; a disagreement raises instead of reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import comb

from .errors import DimensionError, InternalCheckError, ZeroSpinorError
from .algebra import Algebra
from .scalars import to_integers
from .linalg import rank_rows
from .vectors import TNPBasis, WittFrame, is_tnp, normalize_tnp, p_vector, q_vector
from .spinors import (
    Spinor,
    annihilator,
    apply_vector_chain,
    complete_tnp,
    fock_chain_images,
    fock_flips,
    integer_action,
    integer_spinor,
    vector_act,
)
from .bilinear import BForm, bilinear_form, expand_by_probes, probe_table


def is_simple_direct(omega: Spinor) -> tuple[bool, TNPBasis]:
    """Whether dim M(omega) = m; returns the annihilator alongside."""
    ann = annihilator(omega)
    return ann.dimension == omega.algebra.m, ann


def fock_annihilator(algebra: Algebra, amask: int) -> TNPBasis:
    """M(Psi_a) = span of (q_i where a_i = +1, p_i where a_i = -1)."""
    vectors = []
    for i in range(1, algebra.m + 1):
        if (amask >> (algebra.m - i)) & 1:
            vectors.append(p_vector(algebra, i))
        else:
            vectors.append(q_vector(algebra, i))
    return TNPBasis(algebra, vectors)


def tnp_intersection_dim(a: TNPBasis, b: TNPBasis) -> int:
    """dim(A meet B) = dim A + dim B - rank of the stacked bases.

    When B is spanned by coordinate vectors, as M(Psi_a) is, that is dim A
    minus the rank of A's basis restricted to the coordinates outside B.
    """
    if a.dimension == 0 or b.dimension == 0:
        return 0
    rows = [_sparse_coords(v) for v in a]
    axes = [_sparse_coords(v) for v in b]
    if any(len(axis) != 1 for axis in axes):
        return a.dimension + b.dimension - rank_rows(rows + axes)
    inside = {j for axis in axes for j in axis}
    return a.dimension - rank_rows(
        {j: x for j, x in row.items() if j not in inside} for row in rows
    )


def _sparse_coords(v) -> dict:
    return {j: x for j, x in enumerate(v.coords()) if x}


def _check_candidate(omega: Spinor, candidate: TNPBasis) -> TNPBasis:
    if omega.is_zero():
        raise ZeroSpinorError("simplicity tests need a nonzero spinor")
    omega.algebra.check_compatible(candidate.algebra)
    candidate = is_tnp(candidate.vectors)
    if candidate.dimension != omega.algebra.m:
        raise DimensionError(
            f"candidate plane has dimension {candidate.dimension}, need m = {omega.algebra.m}"
        )
    return candidate


def cartan_chevalley_test(
    omega: Spinor, candidate: TNPBasis, bform: BForm | None = None
) -> bool:
    """Chirality eigenvector, and omega (x) omega* a nonzero multiple of the
    candidate's product v1...vm.

    Cl(m,m) acts faithfully on S, so the two are compared as maps on the 2^m
    Fock spinors: B(omega, Psi_a) omega against the chain v1...vm Psi_a.
    With omega = N / L and B pairing Psi_a with coordinate c, B(omega, Psi_a)
    is s N_c / L, so on integers the test asks for one nonzero mu with
    s N_c N = mu R_a for the numerators R_a of every chain.
    """
    candidate = _check_candidate(omega, candidate)
    if omega.chirality() is None:
        return False
    algebra = omega.algebra
    bform = bform or bilinear_form(algebra)
    pairs, _den = integer_spinor(algebra, omega.xi.items())
    nums = dict(pairs)
    weight = {}  # a -> s N_c, the numerator of B(omega, Psi_a), where nonzero
    for c, (a, sign) in enumerate(bform.fock_pairing()):
        x = nums.get(c)
        if x is not None:
            weight[a] = x if sign > 0 else -x
    _den, chains = fock_chain_images(candidate.vectors, algebra)
    scale = None  # (R_a[t], s N_c N_t) at the first a with a nonzero weight
    proportional = True
    survived = False
    for a, image in chains:
        survived = survived or bool(image)
        if proportional:
            x = weight.get(a)
            if x is None:
                proportional = not image
            elif image.keys() != nums.keys():
                proportional = False
            else:
                if scale is None:
                    t = next(iter(nums))
                    scale = (image[t], x * nums[t])
                r, q = scale
                proportional = all(x * n * r == q * image[t] for t, n in nums.items())
        if survived and not proportional:
            return False
    if not survived:
        raise InternalCheckError("candidate basis product vanished")
    return True


def _support_condition(omega: Spinor, frame: WittFrame) -> bool:
    """[u_i, w_i] omega = omega for all i: no forbidden letters appear in any
    omega (x) phi* expansion over the adapted frame."""
    for u, w in zip(frame.q_vecs, frame.p_vecs):
        uw = apply_vector_chain([u, w], omega)
        wu = apply_vector_chain([w, u], omega)
        if uw - wu != omega:
            return False
    return True


def theorem2_test(
    omega: Spinor,
    candidate: TNPBasis,
    bform: BForm | None = None,
    method: str = "fast",
) -> tuple[bool, dict]:
    """Generalized simplicity test against a maximal candidate plane.

    Returns (verdict, details); details carries k_m = dim M(omega) meet M(phi)
    for phi = omega and the measured minimal expansion grade when defined.
    """
    candidate = _check_candidate(omega, candidate)
    return _theorem2(omega, candidate, annihilator(omega), bform, method)


def _theorem2(
    omega: Spinor, candidate: TNPBasis, ann: TNPBasis, bform: BForm | None, method: str
) -> tuple[bool, dict]:
    """``theorem2_test`` on a checked candidate, with M(omega) given."""
    bform = bform or bilinear_form(omega.algebra)
    frame = normalize_tnp(candidate)
    details: dict = {"k_m": ann.dimension, "minimal_grade": None}
    chains = _ZChains(omega, frame)

    if method == "words":
        verdict = _theorem2_words(omega, frame, ann, bform)
    elif method == "fast":
        verdict = _theorem2_fast(omega, frame, ann, bform, chains)
    else:
        raise DimensionError(f"unknown theorem2 method {method!r}")

    if verdict or _support_condition(omega, frame):
        details["minimal_grade"] = _minimal_self_grade(bform, chains)
    return verdict, details


@cache
def _z_words(m: int) -> tuple:
    """Every z-word over m sites as (grade, singles, couples), with site i
    at bit i - 1 of the two masks, in order of grade."""
    words = []
    for states in product((0, 1, 2), repeat=m):
        singles = sum(1 << i for i, state in enumerate(states) if state == 1)
        couples = sum(1 << i for i, state in enumerate(states) if state == 2)
        words.append((sum(states), singles, couples))
    words.sort(key=lambda word: word[0])
    return tuple(words)


class _ZChains:
    """The z-words' probe chains on omega in one adapted frame, memoized.

    The probe of the z-word with singles s_1 < ... < s_k and couples
    c_1 < ... < c_l is w_(s_k)...w_(s_1) (u_(c_l) w_(c_l))...(u_(c_1) w_(c_1)),
    so its chain on omega is one letter applied to its parent's chain: w_s
    for the highest single, or u_c w_c for the highest couple when there are
    no singles.  A chain is an integer numerator map with its denominator.
    """

    def __init__(self, omega: Spinor, frame: WittFrame):
        self.flips = fock_flips(omega.algebra.m)
        self.u = [v.integer_coords() for v in frame.q_vecs]
        self.w = [v.integer_coords() for v in frame.p_vecs]
        pairs, den = integer_spinor(omega.algebra, omega.xi.items())
        self.chains = {(0, 0): (dict(pairs), den)}

    def get(self, singles: int, couples: int) -> tuple[dict, int]:
        chain = self.chains.get((singles, couples))
        if chain is None:
            if singles:
                site = singles.bit_length() - 1
                nums, den = self.get(singles ^ (1 << site), couples)
                letter = [self.w[site]]
            else:
                site = couples.bit_length() - 1
                nums, den = self.get(0, couples ^ (1 << site))
                letter = [self.u[site], self.w[site]]
            for v_nums, v_den in reversed(letter):
                if nums:
                    nums = integer_action(v_nums, nums.items(), self.flips)
                den *= v_den
            chain = self.chains[(singles, couples)] = (nums, den)
        return chain


def _theorem2_fast(
    omega: Spinor, frame: WittFrame, ann: TNPBasis, bform: BForm, chains: _ZChains
) -> bool:
    """No z-word chain sigma of grade below k_m(Psi_a) = dim(M(omega) meet
    M(Psi_a)) has B(Psi_a, sigma) != 0; that pairing is one signed lookup,
    of sigma's coordinate d with B(Psi_a, .) = +-(.)_d."""
    algebra = omega.algebra
    if not _support_condition(omega, frame):
        return False
    pairing = bform.fock_pairing()
    need = [0] * (1 << algebra.m)  # need[d] = k_m(Psi_a) for the a paired with d
    for amask in range(1 << algebra.m):
        need[pairing[amask][0]] = tnp_intersection_dim(ann, fock_annihilator(algebra, amask))
    top = max(need)
    for grade, singles, couples in _z_words(algebra.m):
        if grade >= top:
            break
        nums, _den = chains.get(singles, couples)
        if any(need[d] > grade for d in nums):
            return False
    return True


def _theorem2_words(omega: Spinor, frame: WittFrame, ann: TNPBasis, bform: BForm) -> bool:
    """Literal route: expand omega (x) phi* and inspect every nonzero word."""
    algebra = omega.algebra
    table = probe_table(frame)
    for amask in range(1 << algebra.m):
        phi = Spinor.fock(algebra, amask)
        k_m = tnp_intersection_dim(ann, fock_annihilator(algebra, amask))
        expansion = expand_by_probes(bform.endo_from_pair(omega, phi), table)
        for word in expansion.coefficients:
            if not word.is_z_word() or word.grade < k_m:
                return False
    return True


def _minimal_self_grade(bform: BForm, chains: _ZChains):
    """Smallest grade with a nonzero word in the expansion of omega (x) omega*:
    the first z-word, in grade order, whose chain sigma has B(omega, sigma)
    != 0, paired on the integer numerators."""
    algebra = bform.algebra
    omega = Spinor(algebra, chains.get(0, 0)[0], _trusted=True)
    for grade, singles, couples in _z_words(algebra.m):
        sigma = Spinor(algebra, chains.get(singles, couples)[0], _trusted=True)
        if bform.inner(omega, sigma):
            return grade
    return None


def theorem2_m_constraints(
    omega: Spinor, candidate: TNPBasis, bform: BForm | None = None
) -> bool:
    """The k = 1 shortcut: <B phi, u_i omega> = 0 for all i over a spanning
    set of phi (the 2^m Fock spinors)."""
    candidate = _check_candidate(omega, candidate)
    algebra = omega.algebra
    bform = bform or bilinear_form(algebra)
    for u in candidate:
        image = vector_act(u, omega)
        for amask in range(1 << algebra.m):
            if bform.inner(Spinor.fock(algebra, amask), image):
                return False
    return True


# -- constraint accounting -----------------------------------------------------


def constraint_grades(m: int) -> list[int]:
    return [k for k in range(m) if (m - k) % 4 == 0]


def constraint_count(total_dimension: int) -> int:
    """Number of classical bilinear purity constraints in dimension 2m."""
    if total_dimension % 2 or total_dimension < 2:
        raise DimensionError("total dimension must be even and >= 2")
    m = total_dimension // 2
    return sum(comb(2 * m, k) for k in constraint_grades(m))


def iter_constraint_indices(m: int):
    for k in constraint_grades(m):
        yield from combinations(range(1, 2 * m + 1), k)


def evaluate_constraints(omega: Spinor, bform: BForm | None = None) -> tuple[int, int]:
    """Evaluate every constraint B(omega, gamma^ik...gamma^i1 omega) exactly;
    returns (generated, violated).

    With x the matrix column of omega, B e_c = b_c e_perm(c) and the dual
    word sending e_c to +-(-1)^|c & sigma| e_(c ^ f), the constraint is
    +-sum_c b_c x_c (-1)^|d & sigma| x_d with d = perm(c) ^ f.  Scaling x by
    the common denominator L of its coordinates scales every value by L^2,
    so the sums run over integer (Gaussian integer) products of the support
    pairs, which depend on f alone and are formed once per f.
    """
    if omega.is_zero():
        raise ZeroSpinorError("constraints are evaluated on nonzero spinors")
    algebra = omega.algebra
    bform = bform or bilinear_form(algebra)
    bform.algebra.check_compatible(algebra)
    rep = bform.rep
    column = _scaled_column(rep, omega)
    perm, signs = bform.sp.perm, bform.sp.signs
    image = [
        (perm[c], re, im) if signs[c] > 0 else (perm[c], -re, -im)
        for c, (re, im) in column.items()
    ]
    pairs_by_flip: dict[int, tuple[list, list]] = {}
    generated = 0
    violated = 0
    for indices in iter_constraint_indices(algebra.m):
        generated += 1
        f, sigma, _eps = rep.dual_word_action(indices[::-1])
        pairs = pairs_by_flip.get(f)
        if pairs is None:
            pairs = pairs_by_flip[f] = _support_pairs(image, column, f)
        if any(_signed_sum(part, sigma) for part in pairs):
            violated += 1
    return generated, violated


def _scaled_column(rep, omega: Spinor) -> dict[int, tuple[int, int]]:
    """The matrix column of L * omega as Gaussian integers c -> (re, im)."""
    full = omega.algebra.full_mask
    nums, _scale = to_integers(omega.xi.values(), gaussian=True)
    column = {}
    for a, x in zip(omega.xi, nums):
        column[a] = (x.re, x.im) if rep.word_sign(a, full) > 0 else (-x.re, -x.im)
    return column


def _support_pairs(image, column, f: int) -> tuple[list, list]:
    """(d, real part) and (d, imaginary part) of the nonzero products
    (b_c x_c) x_d over the support pairs with d = perm(c) ^ f."""
    real, imag = [], []
    for target, u_re, u_im in image:
        d = target ^ f
        x = column.get(d)
        if x is None:
            continue
        x_re, x_im = x
        re = u_re * x_re - u_im * x_im
        im = u_re * x_im + u_im * x_re
        if re:
            real.append((d, re))
        if im:
            imag.append((d, im))
    return real, imag


def _signed_sum(pairs, sigma: int) -> int:
    """sum of value * (-1)^|d & sigma| over the (d, value) pairs."""
    total = 0
    for d, value in pairs:
        if (d & sigma).bit_count() & 1:
            total -= value
        else:
            total += value
    return total


# -- aggregated report ----------------------------------------------------------


@dataclass
class SimplicityReport:
    m: int
    field: str
    nullity: int
    simple: bool
    verdict_direct: bool
    verdict_cartan_chevalley: bool
    verdict_theorem2: bool
    chirality: int | None
    k_m: int
    minimal_grade: int | None
    constraints_generated: int
    constraints_violated: int
    annihilator: TNPBasis
    candidate: TNPBasis


def report(omega: Spinor, bform: BForm | None = None) -> SimplicityReport:
    """Run all three tests (against M(omega) or a completion of it) and the
    constraint evaluator; verdict disagreement raises InternalCheckError."""
    algebra = omega.algebra
    bform = bform or bilinear_form(algebra)
    direct, ann = is_simple_direct(omega)
    candidate = ann if direct else complete_tnp(ann)
    cc = cartan_chevalley_test(omega, candidate, bform)
    t2, details = _theorem2(omega, _check_candidate(omega, candidate), ann, bform, "fast")
    if not (direct == cc == t2):
        raise InternalCheckError(
            f"simplicity verdicts disagree: direct={direct} cartan={cc} theorem2={t2}"
        )
    generated, violated = evaluate_constraints(omega, bform)
    return SimplicityReport(
        m=algebra.m,
        field=algebra.field,
        nullity=ann.dimension,
        simple=direct,
        verdict_direct=direct,
        verdict_cartan_chevalley=cc,
        verdict_theorem2=t2,
        chirality=omega.chirality(),
        k_m=details["k_m"],
        minimal_grade=details["minimal_grade"],
        constraints_generated=generated,
        constraints_violated=violated,
        annihilator=ann,
        candidate=candidate,
    )
