"""Three interchangeable simplicity tests and the bilinear constraint counts.

* direct: dim M(omega) = m (annihilator rank).
* Cartan-Chevalley: omega is a chirality eigenvector and omega (x) omega*
  is proportional to the m-fold product of the candidate plane's basis
  (equivalently: a single surviving word in the adapted Witt expansion).
  That product has rank one, so one Fock chain v1...vm Psi_a, with Psi_a
  B-paired to a coordinate of omega, decides it; the literal comparison of
  the two elements is the harness oracle.
* generalized test: in a frame (u_i, w_i) adapted to the candidate plane,
  for every Fock spinor phi the expansion of omega (x) phi* uses only the
  letters q_i and q_i p_i, with grade at least dim(M(omega) meet M(phi)).
  The support condition [u_i, w_i] omega = omega decides it on its own (it
  puts the candidate inside M(omega)), and the minimal grade of
  omega (x) omega* is then m, certified by one pairing.  The literal
  expansion scan, ``harness.theorem2_words``, is the oracle the harness and
  the tests compare it with.

Verdicts must agree; a disagreement raises instead of reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DimensionError, InternalCheckError, ZeroSpinorError
from .algebra import Algebra
from .scalars import FIELD_Q
from .linalg import rank_rows
from .vectors import TNPBasis, WittFrame, is_tnp, normalize_tnp, p_vector, q_vector
from .spinors import (
    Spinor,
    annihilator,
    apply_vector_chain,
    complete_tnp,
    vector_act,
)
from .bilinear import bilinear_form


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
    """dim(A meet B) = dim A + dim B - rank of the stacked bases."""
    a.algebra.check_compatible(b.algebra)
    if a.dimension == 0 or b.dimension == 0:
        return 0
    return a.dimension + b.dimension - rank_rows([v.nums for v in [*a, *b]])


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


def cartan_chevalley_test(omega: Spinor, candidate: TNPBasis) -> bool:
    """Chirality eigenvector, and omega (x) omega* a nonzero multiple of the
    candidate's product v1...vm.

    One Fock chain decides it.  Each v_i kills v1...vm, so the product maps
    S onto the line S_(v1..vm) (claim ii): v1...vm = sigma0 (x) rho.  The
    v_i anticommute, so vm...v1 = +-v1...vm; the B-adjoint of v1...vm thus
    has the same image, and rho is a multiple of B(sigma0, .).  Hence
    omega (x) omega* is a nonzero multiple of v1...vm exactly when omega is
    one of sigma0.  B pairs a coordinate c of omega with one Fock index a,
    so B(omega, Psi_a) = +-omega_c != 0, and v1...vm Psi_a, a multiple of
    B(sigma0, Psi_a) sigma0, is a nonzero multiple of omega exactly then.
    """
    candidate = _check_candidate(omega, candidate)
    if omega.chirality() is None:
        return False
    algebra = omega.algebra
    xi = omega.nums
    c = next(iter(xi))
    a = bilinear_form(algebra).fock_pairing()[c][0]
    sigma = apply_vector_chain(candidate.vectors, Spinor.fock(algebra, a)).nums
    if sigma.keys() != xi.keys():
        return False
    # proportional values have proportional numerators: compare cross products
    x, y = xi[c], sigma[c]
    return all(sigma[t] * x == y * w for t, w in xi.items())


def _support_condition(omega: Spinor, frame: WittFrame) -> bool:
    """[u_i, w_i] omega = omega for all i: no forbidden letters appear in any
    omega (x) phi* expansion over the adapted frame.  With {u_i, w_i} = 1 the
    commutator is 1 - 2 w_i u_i, so each site asks w_i u_i omega = 0."""
    return all(
        apply_vector_chain([w, u], omega).is_zero()
        for u, w in zip(frame.q_vecs, frame.p_vecs)
    )


def theorem2_test(omega: Spinor, candidate: TNPBasis) -> tuple[bool, dict]:
    """Generalized simplicity test against a maximal candidate plane.

    Returns (verdict, details); details carries k_m = dim M(omega) meet M(phi)
    for phi = omega and the minimal expansion grade of omega (x) omega* when
    the verdict holds.  The harness's ``theorem2_words`` is the oracle.
    """
    candidate = _check_candidate(omega, candidate)
    return _theorem2(omega, candidate, annihilator(omega))


def _theorem2(omega: Spinor, candidate: TNPBasis, ann: TNPBasis) -> tuple[bool, dict]:
    """``theorem2_test`` on a checked candidate, with M(omega) given.

    The support condition [u_i, w_i] omega = omega in a frame adapted to the
    candidate decides.  With {u_i, w_i} = 1 it reads w_i u_i omega = 0, so
    u_i omega = u_i w_i u_i omega = 0: the candidate lies in M(omega), is
    M(omega) by maximality, and omega is simple.  Then omega (x) omega* is a
    multiple of u_1...u_m, one word of grade m, whose probe coefficient is
    B(omega, w_m...w_1 omega) over a nonzero norm; that pairing is checked.
    """
    frame = normalize_tnp(candidate)
    details: dict = {"k_m": ann.dimension, "minimal_grade": None}
    verdict = _support_condition(omega, frame)
    if verdict:
        sigma = apply_vector_chain(frame.p_vecs[::-1], omega)
        if not bilinear_form(omega.algebra).inner(omega, sigma):
            raise InternalCheckError("omega (x) omega* has no grade-m word")
        details["minimal_grade"] = omega.algebra.m
    return verdict, details


def theorem2_m_constraints(omega: Spinor, candidate: TNPBasis) -> bool:
    """The k = 1 shortcut: <B phi, u_i omega> = 0 for all i over a spanning
    set of phi (the 2^m Fock spinors)."""
    candidate = _check_candidate(omega, candidate)
    algebra = omega.algebra
    bform = bilinear_form(algebra)
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


def evaluate_constraints(omega: Spinor) -> tuple[int, int]:
    """Evaluate every constraint B(omega, gamma^ik...gamma^i1 omega) exactly;
    returns (generated, violated).

    On the numerators N of L * omega, B pairs N_c with N_d through the Fock
    pairing (d, s_c), and the dual word sends the matrix unit e_c to
    +-(-1)^|c & sigma| e_(c ^ f).  Psi_c is e_c of column 2^m - 1 up to a
    sign that is a character of c times one constant, so in Fock coordinates
    the word keeps (f, sigma) and changes its sign by one factor per class f.
    Each constraint is thus, up to a sign that cannot make it vanish,
    sum_c s_c N_c (-1)^|e & sigma| N_e with e = d ^ f: integer (Gaussian
    integer) products over the support pairs, which depend on f alone and
    are formed once per f.
    """
    if omega.is_zero():
        raise ZeroSpinorError("constraints are evaluated on nonzero spinors")
    algebra = omega.algebra
    bform = bilinear_form(algebra)
    if algebra.field == FIELD_Q:
        column = {c: (x, 0) for c, x in omega.nums.items()}
    else:
        column = {c: (x.re, x.im) for c, x in omega.nums.items()}
    pairing = bform.fock_pairing()
    image = []
    for c, (re, im) in column.items():
        d, sign = pairing[c]
        image.append((d, re, im) if sign > 0 else (d, -re, -im))
    pairs_by_flip: dict[int, tuple[list, list]] = {}
    generated = 0
    violated = 0
    word = bform.rep.word
    for indices in iter_constraint_indices(algebra.m):
        generated += 1
        f, sigma, _eps = word(indices)  # the masks, in any order, of the dual word
        pairs = pairs_by_flip.get(f)
        if pairs is None:
            pairs = pairs_by_flip[f] = _support_pairs(image, column, f)
        if any(_signed_sum(part, sigma) for part in pairs):
            violated += 1
    return generated, violated


def _support_pairs(image, column, f: int) -> tuple[list, list]:
    """(e, real part) and (e, imaginary part) of the nonzero products
    (s_c N_c) N_e over the support pairs with e = d ^ f."""
    real, imag = [], []
    for target, u_re, u_im in image:
        e = target ^ f
        x = column.get(e)
        if x is None:
            continue
        x_re, x_im = x
        re = u_re * x_re - u_im * x_im
        im = u_re * x_im + u_im * x_re
        if re:
            real.append((e, re))
        if im:
            imag.append((e, im))
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


def report(omega: Spinor) -> SimplicityReport:
    """Run all three tests (against M(omega) or a completion of it) and the
    constraint evaluator; verdict disagreement raises InternalCheckError."""
    algebra = omega.algebra
    direct, ann = is_simple_direct(omega)
    candidate = ann if direct else complete_tnp(ann)
    cc = cartan_chevalley_test(omega, candidate)
    t2, details = _theorem2(omega, candidate, ann)
    if not (direct == cc == t2):
        raise InternalCheckError(
            f"simplicity verdicts disagree: direct={direct} cartan={cc} theorem2={t2}"
        )
    generated, violated = evaluate_constraints(omega)
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
