"""Property-verification harness: one named check per claim, seeded and
deterministic.

Each check draws from its own generator seeded by (master seed, m, check
name), so ledgers are byte-identical across runs and machines.  Checks are
exhaustive where the state space is small (monomial pairs up to m = 3,
coefficient grids up to m = 3) and randomized otherwise; heavy randomized
checks scale their effective trial count down with 2^m to hold the
desk-scale runtime budget.  A failing check reports its first witness; it
never raises.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import OutOfRangeError, SingularTransformError
from . import scalars
from .scalars import FIELD_Q, FIELD_QI
from .linalg import Matrix
from .algebra import Algebra, word_of_index, index_of_word, h_signature, g_signature, normalize_product
from .matrixrep import sparse_matmul, sparse_trace
from .vectors import (
    TNPBasis,
    anticommutator_form,
    classify,
    conj_element,
    conj_vector,
    C_element,
    C_inverse,
    delta_minus,
    delta_plus,
    embed,
    embed_gamma,
    is_null,
    is_tnp,
    p_vector,
    q_vector,
    square,
)
from .spinors import (
    Spinor,
    annihilated_subspace,
    annihilator,
    complete_tnp,
    generic_spinor_sample,
    spinor_space_switch,
    tnp_change_of_basis_scale,
    vector_act,
    vector_act_coords,
)
from .bilinear import (
    apply_vector_chain,
    bilinear_form,
    default_frame,
    expand_gamma,
    expand_witt,
    iter_witt_words,
    probe_vectors,
    reconstruct_gamma,
    reconstruct_witt,
    rep_context,
    witt_coefficient,
    _word_norm,
)
from .simplicity import (
    cartan_chevalley_test,
    constraint_count,
    evaluate_constraints,
    fock_annihilator,
    is_simple_direct,
    report,
    theorem2_m_constraints,
    theorem2_test,
    tnp_intersection_dim,
)
from . import sampling


@dataclass
class CheckResult:
    name: str
    m: int
    mode: str  # "exhaustive" | "randomized" | "recorded"
    trials: int
    failures: int
    witness: dict | None = None  # first failure only
    findings: dict | None = None  # measurements from recorded-mode searches

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "m": self.m,
            "mode": self.mode,
            "trials": self.trials,
            "failures": self.failures,
            "passed": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.findings is not None:
            out["findings"] = self.findings
        return out


class _Run:
    """Per-check accumulator: counts trials, keeps the first failure witness."""

    def __init__(self, name: str, m: int, mode: str):
        self.name = name
        self.m = m
        self.mode = mode
        self.trials = 0
        self.failures = 0
        self.witness = None
        self.notes: dict | None = None

    def tick(self, ok: bool, witness=None):
        self.trials += 1
        if not ok:
            self.failures += 1
            if self.witness is None:
                self.witness = {"witness": repr(witness)} if witness is not None else {}

    def note(self, **kw):
        if self.notes is None:
            self.notes = {}
        self.notes.update(
            {
                k: v if isinstance(v, (int, str, bool)) else repr(v)
                for k, v in kw.items()
            }
        )

    def result(self) -> CheckResult:
        return CheckResult(
            self.name, self.m, self.mode, self.trials, self.failures,
            self.witness, self.notes,
        )


def _effective(trials: int, m: int, weight: int = 1) -> int:
    """Scale heavy randomized checks down with 2^m."""
    cap = max(12, (1600 * weight) // (1 << m))
    return max(1, min(trials, cap))


def _rand_chiral_spinor(algebra, rng, parity: int = 0) -> Spinor:
    n = 1 << algebra.m
    xi = {}
    for a in range(n):
        if a.bit_count() % 2 == parity:
            xi[a] = scalars.random_scalar(rng, algebra.field, height=12)
    s = Spinor(algebra, xi)
    return s


# ---------------------------------------------------------------------------
# checks


def check_scalar_field_axioms(m, rng, trials):
    run = _Run("scalar_field_axioms", m, "randomized")
    for field in (FIELD_Q, FIELD_QI):
        for _ in range(trials // 2 + 1):
            x = scalars.random_scalar(rng, field)
            y = scalars.random_scalar(rng, field)
            z = scalars.random_scalar(rng, field, nonzero=True)
            ok = (
                (x + y) + z == x + (y + z)
                and (x * y) * z == x * (y * z)
                and x * (y + z) == x * y + x * z
                and z * (scalars.one(field) / z) == scalars.one(field)
                and scalars.star(scalars.star(x)) == x
                and (field != FIELD_Q or scalars.star(x) == x)
                and scalars.parse_scalar(scalars.format_scalar(x), field) == x
            )
            run.tick(ok, (field, x, y, z))
    return run.result()


def check_linalg_kernel_rank_det(m, rng, trials):
    run = _Run("linalg_kernel_rank_det", m, "randomized")
    for _ in range(trials):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = Matrix(
            [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        kernel = mat.kernel_basis()
        ok = len(kernel) + mat.rank() == cols and all(
            not any(mat.apply(v)) for v in kernel
        )
        n = rng.randint(1, 4)
        a = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        b = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        ok = ok and (a * b).det() == a.det() * b.det()
        run.tick(ok, mat.rows)
    return run.result()


def check_efb_word_roundtrip(m, rng, trials):
    run = _Run("efb_word_roundtrip", m, "exhaustive")
    for a in range(1 << m):
        for b in range(1 << m):
            word = word_of_index(a, b, m)
            hs = h_signature(word)
            gs = g_signature(word)
            ok = (
                index_of_word(word) == (a, b)
                and all((h < 0) == bool((a >> (m - i)) & 1) for i, h in enumerate(hs, 1))
                and all(
                    (h * g < 0) == bool((b >> (m - i)) & 1)
                    for i, (h, g) in enumerate(zip(hs, gs), 1)
                )
            )
            run.tick(ok, (a, b))
    return run.result()


def check_efb_product_oracle(m, rng, trials):
    algebra = Algebra(m)
    rep = rep_context(algebra)
    if m <= 3:
        run = _Run("efb_product_oracle", m, "exhaustive")
        n = 1 << m
        monomials = [(a, b) for a in range(n) for b in range(n)]
        mats = {ab: rep.to_matrix(algebra.monomial(*ab)) for ab in monomials}
        for ab in monomials:
            x = algebra.monomial(*ab)
            for cd in monomials:
                y = algebra.monomial(*cd)
                lhs = rep.to_matrix(x * y)
                rhs = sparse_matmul(mats[ab], mats[cd])
                word_route = normalize_product(
                    word_of_index(*ab, m), word_of_index(*cd, m)
                )
                if ab[1] != cd[0]:
                    ok = lhs == rhs == {} and word_route is None
                else:
                    sign, word = word_route
                    ok = lhs == rhs and (x * y) == algebra.monomial(
                        *index_of_word(word), sign
                    )
                run.tick(ok, (ab, cd))
        return run.result()
    run = _Run("efb_product_oracle", m, "randomized")
    for _ in range(trials):
        x = sampling.rand_element(algebra, rng)
        y = sampling.rand_element(algebra, rng)
        ok = rep.to_matrix(x * y) == sparse_matmul(rep.to_matrix(x), rep.to_matrix(y))
        run.tick(ok, (x, y))
    return run.result()


def check_efb_associativity(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("efb_associativity", m, "randomized")
    for _ in range(trials):
        x = sampling.rand_element(algebra, rng, terms=4)
        y = sampling.rand_element(algebra, rng, terms=4)
        z = sampling.rand_element(algebra, rng, terms=4)
        run.tick((x * y) * z == x * (y * z), (x, y, z))
    return run.result()


def check_efb_gamma_eigen(m, rng, trials):
    algebra = Algebra(m)
    gamma = algebra.volume_gamma()
    run = _Run("efb_gamma_eigen", m, "exhaustive")
    for a in range(1 << m):
        for b in range(1 << m):
            mono = algebra.monomial(a, b)
            chi = -1 if a.bit_count() & 1 else 1
            gpar = -1 if (a ^ b).bit_count() & 1 else 1
            ok = gamma * mono == mono.scale(chi) and mono * gamma == mono.scale(
                chi * gpar
            )
            run.tick(ok, (a, b))
    return run.result()


def check_efb_gamma_squared(m, rng, trials):
    algebra = Algebra(m)
    rep = rep_context(algebra)
    run = _Run("efb_gamma_squared", m, "exhaustive")
    gamma = algebra.volume_gamma()
    squared = gamma * gamma
    lam = squared.proportionality(algebra.identity())
    sp = rep.gamma_word(range(1, 2 * m + 1))
    sq = sp.compose(sp)
    ok = (
        lam is not None
        and lam in (algebra.one_scalar, -algebra.one_scalar)
        and (sq.is_identity() if lam == algebra.one_scalar else sq.is_minus_identity())
    )
    run.tick(ok, lam)
    return run.result()


def check_efb_delta_structure(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("efb_delta_structure", m, "exhaustive" if m <= 3 else "randomized")
    n = 1 << m
    if m <= 3:
        for a in range(n):
            for b in range(n):
                x = algebra.monomial(a, b)
                for c in range(n):
                    if c == b:
                        continue
                    for d in range(n):
                        run.tick((x * algebra.monomial(c, d)).is_zero(), (a, b, c, d))
    else:
        for _ in range(trials):
            a, b, d = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            c = rng.randrange(n)
            if c == b:
                c ^= 1
            run.tick(
                (algebra.monomial(a, b) * algebra.monomial(c, d)).is_zero(),
                (a, b, c, d),
            )
    return run.result()


def check_efb_trace(m, rng, trials):
    algebra = Algebra(m)
    rep = rep_context(algebra)
    run = _Run("efb_trace", m, "randomized")
    ok = algebra.identity().trace() == (1 << m)
    piqi = embed(p_vector(algebra, 1)) * embed(q_vector(algebra, 1))
    ok = ok and piqi.trace() == (1 << (m - 1))
    for a in range(1 << m):
        ok = ok and algebra.monomial(a, a).trace() == 1
        if m > 0 and a != algebra.full_mask:
            ok = ok and algebra.monomial(a, a ^ algebra.full_mask).trace() == 0
    run.tick(ok)
    for _ in range(trials):
        x = sampling.rand_element(algebra, rng)
        run.tick(
            x.trace() == sparse_trace(rep.to_matrix(x), algebra.zero_scalar), x
        )
    return run.result()


def check_efb_main_automorphism(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("efb_main_automorphism", m, "randomized")
    run.tick(algebra.identity().main_automorphism() == algebra.identity())
    for _ in range(trials):
        v = sampling.rand_vector(algebra, rng)
        x = sampling.rand_element(algebra, rng, terms=4)
        y = sampling.rand_element(algebra, rng, terms=4)
        ok = (
            embed(v).main_automorphism() == -embed(v)
            and x.main_automorphism().main_automorphism() == x
            and (x * y).main_automorphism()
            == x.main_automorphism() * y.main_automorphism()
        )
        run.tick(ok, (v, x))
    return run.result()


def check_rep_oracle(m, rng, trials):
    algebra = Algebra(m)
    rep = rep_context(algebra)
    run = _Run("rep_oracle", m, "randomized")
    ok = rep.to_matrix(algebra.identity()) == {
        (r, r): algebra.one_scalar for r in range(rep.dim)
    }
    gam = rep.to_matrix(algebra.volume_gamma())
    ok = ok and all(r == c for (r, c) in gam)
    ok = ok and all(
        gam[(a, a)] == (-algebra.one_scalar if a.bit_count() & 1 else algebra.one_scalar)
        for a in range(rep.dim)
    )
    run.tick(ok, "unit/weyl-block")
    for _ in range(trials):
        x = sampling.rand_element(algebra, rng)
        y = sampling.rand_element(algebra, rng)
        mx = rep.to_matrix(x)
        ok = (
            rep.to_matrix(x * y) == sparse_matmul(mx, rep.to_matrix(y))
            and rep.from_matrix(mx) == x
            and x.trace() == sparse_trace(mx, algebra.zero_scalar)
        )
        run.tick(ok, (x, y))
    return run.result()


def check_vec_square_form(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("vec_square_form", m, "randomized")
    one = algebra.identity()
    for i in range(1, m + 1):
        g_odd = embed_gamma(algebra, 2 * i - 1)
        g_even = embed_gamma(algebra, 2 * i)
        ok = (
            g_odd * g_odd == one
            and g_even * g_even == -one
            and classify(p_vector(algebra, i)) == "V0"
            and classify(q_vector(algebra, i)) == "V0"
        )
        run.tick(ok, i)
    for _ in range(trials):
        v = sampling.rand_vector(algebra, rng)
        u = sampling.rand_vector(algebra, rng)
        form = anticommutator_form(v, u)
        ok = (
            embed(v) * embed(u) + embed(u) * embed(v) == one.scale(form)
            and square(v) == anticommutator_form(v, v) / 2
        )
        if algebra.field == FIELD_Q and not v.is_zero():
            w = v + conj_vector(v)
            ok = ok and square(w) > 0 and square(v - conj_vector(v)) <= 0
        run.tick(ok, (v, u))
    return run.result()


def _annihilated_witness(algebra, v, rng):
    """Prop 1 constructor: a nonzero spinor killed by the null vector v."""
    for a in range(1 << algebra.m):
        psi = Spinor.fock(algebra, a)
        image = vector_act(v, psi)
        if not image.is_zero():
            return image
    return None


def check_prop1_null_annihilation(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("prop1_null_annihilation", m, "randomized")
    basis_vectors = [p_vector(algebra, i) for i in range(1, m + 1)] + [
        q_vector(algebra, i) for i in range(1, m + 1)
    ]
    for v in basis_vectors:
        omega = _annihilated_witness(algebra, v, rng)
        run.tick(
            omega is not None
            and not omega.is_zero()
            and vector_act(v, omega).is_zero(),
            v,
        )
    for _ in range(_effective(trials, m, weight=8)):
        v = sampling.rand_null_vector(algebra, rng)
        omega = _annihilated_witness(algebra, v, rng)
        run.tick(
            omega is not None and not omega.is_zero() and vector_act(v, omega).is_zero(),
            v,
        )
    n = 1 << m
    for _ in range(_effective(trials, m, weight=2)):
        v = sampling.rand_nonnull_vector(algebra, rng)
        cols = []
        for a in range(n):
            e = [algebra.zero_scalar] * n
            e[a] = algebra.one_scalar
            cols.append(vector_act_coords(v, e))
        action = Matrix(cols).transpose()
        run.tick(action.rank() == n, v)
    return run.result()


def check_prop2_vbar(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("prop2_vbar", m, "randomized")
    # non-exclusivity witness: v = p1, omega = q1..qm + p1q1 q2..qm
    v = p_vector(algebra, 1)
    omega = Spinor(algebra, {0: 1, 1 << (m - 1): 1})
    run.tick(
        not vector_act(v, omega).is_zero()
        and not vector_act(conj_vector(v), omega).is_zero(),
        "non-exclusivity witness",
    )
    for _ in range(_effective(trials, m, weight=8)):
        v = sampling.rand_null_vector(algebra, rng)
        vb = conj_vector(v)
        psi = sampling.rand_nonzero_spinor(algebra, rng)
        omega = vector_act(v, psi)  # v omega = v^2 psi = 0
        if omega.is_zero():
            continue
        ok = not vector_act(vb, omega).is_zero()
        omega2 = vector_act(vb, psi)  # vbar omega2 = 0
        if not omega2.is_zero():
            ok = ok and not vector_act(v, omega2).is_zero()
        run.tick(ok, (v, omega))
    return run.result()


def check_conj_suite(m, rng, trials):
    run = _Run("conj_suite", m, "randomized")
    for field in (FIELD_Q, FIELD_QI):
        algebra = Algebra(m, field)
        one = algebra.identity()
        dplus = delta_plus(algebra)
        dminus = delta_minus(algebra)
        s_plus = -1 if (m * (m - 1) // 2) % 2 else 1
        s_minus = -1 if (m * (m + 1) // 2) % 2 else 1
        ok = dplus * dplus == one.scale(s_plus) and dminus * dminus == one.scale(s_minus)
        c = C_element(algebra)
        cinv = C_inverse(algebra)
        ok = ok and c * cinv == one
        for i in range(1, m + 1):
            ok = ok and c * embed(p_vector(algebra, i)) * cinv == embed(
                q_vector(algebra, i)
            )
        run.tick(ok, field)
        for _ in range(_effective(trials, m, weight=2) // 2 + 1):
            v = sampling.rand_vector(algebra, rng)
            x = sampling.rand_element(algebra, rng, terms=4)
            ok = (
                conj_element(embed(v)) == embed(conj_vector(v))
                and conj_element(conj_element(x)) == x
                and square(conj_vector(v)) == scalars.star(square(v))
                and conj_vector(conj_vector(v)) == v
                and is_null(conj_vector(v)) == is_null(v)
            )
            run.tick(ok, (field, v))
    return run.result()


def check_prop3_cor1(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("prop3_cor1", m, "randomized")
    c = C_element(algebra)
    for _ in range(_effective(trials, m, weight=4)):
        v = sampling.rand_null_vector(algebra, rng)
        psi = sampling.rand_nonzero_spinor(algebra, rng)
        omega = vector_act(v, psi)  # v omega = 0
        if omega.is_zero():
            continue
        ve = embed(v)
        # prop 3 forward: v omega-bar != 0; corollary 1: v C omega^* != 0
        ok = not (ve * conj_element(omega.to_element())).is_zero()
        ok = ok and not (ve * (c * omega.to_element().star())).is_zero()
        # prop 3 converse: omega2 with v omega2-bar = 0 (equivalently
        # vbar omega2 = 0) must have v omega2 != 0
        omega2 = vector_act(conj_vector(v), psi)
        if not omega2.is_zero():
            ok = ok and (ve * conj_element(omega2.to_element())).is_zero()
            ok = ok and not vector_act(v, omega2).is_zero()
        run.tick(ok, (v, omega))
    return run.result()


def check_prop4_bisection(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("prop4_bisection", m, "randomized")
    if m >= 2:
        v0 = p_vector(algebra, 1) + q_vector(algebra, 2)
        psi0 = Spinor.fock(algebra, 0)
        psi3 = Spinor.fock(algebra, 0b11 << (m - 2))
        run.tick(
            vector_act(v0, psi0) == vector_act(v0, psi3)
            and not vector_act(v0, psi0).is_zero()
            and vector_act(v0, psi0 - psi3).is_zero(),
            "non-subspace witness",
        )
    half = 1 << (m - 1)
    for _ in range(_effective(trials, m, weight=2)):
        v = sampling.rand_null_vector(algebra, rng)
        vb = conj_vector(v)
        sub_v = annihilated_subspace(is_tnp([v]), cross_check=False)
        sub_vb = annihilated_subspace(is_tnp([vb]), cross_check=False)
        inter = sub_v.intersection(sub_vb)
        stacked = Matrix(list(sub_v.matrix.rows) + list(sub_vb.matrix.rows))
        ok = (
            sub_v.dimension == half
            and sub_vb.dimension == half
            and inter.dimension == 0
            and stacked.rank() == (1 << m)
        )
        # twin construction
        omega = None
        for row in sub_v.basis():
            omega = row
            break
        if omega is not None:
            twin = vector_act(vb, omega)
            ok = (
                ok
                and not twin.is_zero()
                and vector_act(vb, twin).is_zero()
                and Matrix([omega.coords(), twin.coords()]).rank() == 2
                and not vector_act(v, twin).is_zero()
            )
        run.tick(ok, v)
    return run.result()


def check_prop5_subspaces(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("prop5_subspaces", m, "randomized")
    for t in range(_effective(trials, m)):
        k = (t % m) + 1
        tnp = sampling.rand_tnp(algebra, rng, k)
        sub = annihilated_subspace(tnp)  # dual-route + dimension asserted inside
        sample = generic_spinor_sample(tnp, rng)
        ok = sub.dimension == 1 << (m - k) and sub.contains(sample)
        run.tick(ok, tnp)
    return run.result()


def check_prop6_det_scaling(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("prop6_det_scaling", m, "randomized")
    for t in range(_effective(trials, m)):
        k = (t % m) + 1
        tnp = sampling.rand_tnp(algebra, rng, k)
        mat = sampling.rand_invertible_matrix(algebra, rng, k)
        ok = tnp_change_of_basis_scale(tnp, mat) == mat.det()
        if k >= 2:
            rows = [list(r) for r in mat.rows]
            rows[0] = list(rows[1])
            try:
                tnp_change_of_basis_scale(tnp, Matrix(rows))
                ok = False
            except SingularTransformError:
                pass
        run.tick(ok, (tnp, mat.rows))
    return run.result()


def check_phi_general_position(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("phi_general_position", m, "randomized")
    if m == 2:
        # the clean claim fails at m = 2 (documented); verify the treacherous
        # example instead: zeroing one coefficient enlarges the annihilator
        omega = Spinor(algebra, {2: Fraction(1)})  # xi3 = 0 case
        ann = annihilator(omega)
        ok = ann.dimension == 2
        run.tick(ok, "m=2 caveat")
        return run.result()
    for _ in range(_effective(trials, m, weight=4)):
        phi = generic_spinor_sample(TNPBasis(algebra, []), rng)
        run.tick(annihilator(phi).dimension == 0, phi)
    return run.result()


def check_prop7_b_orthogonality(m, rng, trials):
    algebra = Algebra(m)
    bform = bilinear_form(algebra)
    run = _Run("prop7_b_orthogonality", m, "randomized")
    for _ in range(_effective(trials, m)):
        # forward: two simple spinors whose planes share the first frame vector
        frame = sampling.rand_frame(algebra, rng)
        plane1 = is_tnp(frame.q_vecs)
        qs = list(frame.q_vecs)
        ps = list(frame.p_vecs)
        for _move in range(m + 1):
            kind = rng.randrange(3)
            if kind == 0 and m > 1:
                i = rng.randrange(1, m)
                c = scalars.random_scalar(rng, algebra.field, height=5)
                qs[i] = qs[i] + qs[0] * c
                ps[0] = ps[0] - ps[i] * c
            elif kind == 1 and m > 1:
                i, j = rng.sample(range(1, m), 2) if m > 2 else (1, 1)
                if i != j:
                    c = scalars.random_scalar(rng, algebra.field, height=5)
                    qs[i] = qs[i] + qs[j] * c
                    ps[j] = ps[j] - ps[i] * c
            else:
                i = rng.randrange(1, m) if m > 1 else 0
                if i:
                    qs[i], ps[i] = ps[i], qs[i]
        plane2 = is_tnp(qs)
        omega = generic_spinor_sample(plane1, rng)
        phi = generic_spinor_sample(plane2, rng)
        ok = tnp_intersection_dim(plane1, plane2) >= 1 and not bform.inner(omega, phi)
        run.tick(ok, (plane1, plane2))
    # converse within the stated range
    for _ in range(_effective(trials, m)):
        omega = sampling.rand_simple_spinor(algebra, rng)
        low = max(1, m - 2)
        t = rng.randint(low, m)
        phi = _orthogonal_spinor_with_nullity(algebra, bform, omega, t, rng)
        if phi is None:
            run.tick(True)  # vacuous draw; premise unsatisfiable for this sample
            continue
        inter = tnp_intersection_dim(annihilator(omega), annihilator(phi))
        run.tick(inter >= 1, (omega, phi))
    # strictness at dim M(phi) = m - 3: counterexamples exist; record findings
    if m >= 3:
        found = None
        for _ in range(60):
            omega = sampling.rand_simple_spinor(algebra, rng)
            t = m - 3
            if t == 0:
                phi = _orthogonal_spinor_with_nullity(algebra, bform, omega, 0, rng)
            else:
                phi = _orthogonal_spinor_with_nullity(algebra, bform, omega, t, rng)
            if phi is None:
                continue
            if tnp_intersection_dim(annihilator(omega), annihilator(phi)) == 0:
                found = (omega, phi)
                break
        run.note(strictness_counterexample_found=bool(found))
    return run.result()


def _orthogonal_spinor_with_nullity(algebra, bform, omega, t, rng, tries=25):
    """phi with nullity exactly t and B(omega, phi) = 0, or None."""
    n = 1 << algebra.m
    for _ in range(tries):
        if t == 0:
            basis = [Spinor.fock(algebra, a) for a in range(n)]
        else:
            tnp = sampling.rand_tnp(algebra, rng, t)
            basis = annihilated_subspace(tnp, cross_check=False).basis()
        vals = [bform.inner(omega, b) for b in basis]
        coeffs = [
            scalars.random_scalar(rng, algebra.field, height=9) for _ in basis
        ]
        pivot = next((i for i, v in enumerate(vals) if v), None)
        if pivot is not None:
            total = sum(
                (c * v for i, (c, v) in enumerate(zip(coeffs, vals)) if i != pivot),
                start=algebra.zero_scalar,
            )
            coeffs[pivot] = -total / vals[pivot]
        phi = Spinor.zero(algebra)
        for c, b in zip(coeffs, basis):
            phi = phi + b.scale(c)
        if phi.is_zero() or bform.inner(omega, phi):
            continue
        if annihilator(phi).dimension == t:
            return phi
    return None


def check_bform_suite(m, rng, trials):
    algebra = Algebra(m)
    rep = rep_context(algebra)
    bform = bilinear_form(algebra)
    run = _Run("bform_suite", m, "randomized")
    sp = bform.sp
    t = sp.transpose()
    want = bform.transpose_sign()
    ok = t == (sp if want > 0 else -sp)
    for gamma in rep.gammas:
        ok = ok and gamma.transpose().compose(sp) == sp.compose(gamma)
    run.tick(ok, "intertwining/transpose")
    for _ in range(_effective(trials, m, weight=2)):
        v = sampling.rand_unit_vector(algebra, rng)
        omega = sampling.rand_nonzero_spinor(algebra, rng)
        phi = sampling.rand_nonzero_spinor(algebra, rng)
        ok = bform.inner(vector_act(v, omega), vector_act(v, phi)) == bform.inner(
            omega, phi
        )
        ok = ok and bform.inner(omega, phi) == (
            bform.transpose_sign() * bform.inner(phi, omega)
        )
        run.tick(ok, v)
    return run.result()


def check_prop8_witt_coefficients(m, rng, trials):
    algebra = Algebra(m)
    bform = bilinear_form(algebra)
    frame = default_frame(algebra)
    run = _Run("prop8_witt_coefficients", m, "randomized")
    words = list(iter_witt_words(m)) if m <= 3 else None
    for _ in range(max(4, _effective(trials, m, weight=1) // 8)):
        omega = sampling.rand_nonzero_spinor(algebra, rng)
        phi = sampling.rand_nonzero_spinor(algebra, rng)
        endo = bform.endo_from_pair(omega, phi)
        sample_words = words or [
            _rand_witt_word(m, rng) for _ in range(24)
        ]
        ok = True
        for word in sample_words:
            norm = _word_norm(frame, word)  # asserts +-2^(m-l-r) inside
            sigma = apply_vector_chain(probe_vectors(frame, word), omega)
            if witt_coefficient(endo, word, frame) != bform.inner(phi, sigma) / norm:
                ok = False
                break
        run.tick(ok, (omega, phi))
    return run.result()


def _rand_witt_word(m, rng):
    from .bilinear import WittWord

    singles = []
    couples = []
    for site in range(1, m + 1):
        state = rng.randrange(5)
        if state == 1:
            singles.append((site, "p"))
        elif state == 2:
            singles.append((site, "q"))
        elif state == 3:
            couples.append((site, "qp"))
        elif state == 4:
            couples.append((site, "pq"))
    return WittWord(tuple(singles), tuple(couples))


def check_expansion_roundtrips(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("expansion_roundtrips", m, "randomized")
    n_trials = _effective(trials, m, weight=1) if m <= 4 else 0
    for _ in range(max(3, n_trials // 4)):
        mu = sampling.rand_element(algebra, rng)
        back_gamma = reconstruct_gamma(algebra, expand_gamma(mu))
        ok = back_gamma == mu
        if m <= 4:
            expansion = expand_witt(mu)
            ok = ok and reconstruct_witt(algebra, expansion) == mu
            for word in expansion.coefficients:
                l, k = len(word.singles), word.grade
                ok = ok and k % 2 == l % 2 and l <= min(k, 2 * m - k)
        run.tick(ok, mu)
    # observed mod-4 rule for chiral self-pairings (the classical context)
    bform = bilinear_form(algebra)
    for _ in range(4 if m <= 4 else 0):
        omega = _rand_chiral_spinor(algebra, rng, parity=rng.randrange(2))
        if omega.is_zero():
            continue
        expansion = expand_gamma(bform.endo_from_pair(omega, omega))
        ok = all((m - len(k)) % 4 == 0 for k in expansion.coefficients)
        run.tick(ok, omega)
    return run.result()


def check_thm1_cartan_chevalley(m, rng, trials):
    algebra = Algebra(m)
    bform = bilinear_form(algebra)
    run = _Run("thm1_cartan_chevalley", m, "randomized")
    for a in range(1 << m):
        omega = Spinor.fock(algebra, a)
        run.tick(
            cartan_chevalley_test(omega, fock_annihilator(algebra, a), bform), a
        )
    for _ in range(_effective(trials, m, weight=2)):
        omega = sampling.rand_simple_spinor(algebra, rng)
        candidate = annihilator(omega)
        ok = cartan_chevalley_test(omega, candidate, bform)
        psi = sampling.rand_nonzero_spinor(algebra, rng)
        simple, ann = is_simple_direct(psi)
        cand = ann if simple else complete_tnp(ann)
        ok = ok and cartan_chevalley_test(psi, cand, bform) == simple
        run.tick(ok, omega)
    return run.result()


def check_thm2_generalized(m, rng, trials):
    algebra = Algebra(m)
    bform = bilinear_form(algebra)
    run = _Run("thm2_generalized", m, "randomized")
    for _ in range(_effective(trials, m, weight=2)):
        psi = sampling.rand_nonzero_spinor(algebra, rng)
        simple, ann = is_simple_direct(psi)
        cand = ann if simple else complete_tnp(ann)
        verdict, details = theorem2_test(psi, cand, bform)
        ok = verdict == simple
        # k = 1 shortcut equivalence
        ok = ok and theorem2_m_constraints(psi, cand, bform) == simple
        # specialization to the Cartan-Chevalley verdict
        ok = ok and cartan_chevalley_test(psi, cand, bform) == verdict
        if simple:
            ok = ok and details["minimal_grade"] == m and details["k_m"] == m
        run.tick(ok, psi)
    if m <= 3:
        for _ in range(6):
            psi = sampling.rand_nonzero_spinor(algebra, rng)
            simple, ann = is_simple_direct(psi)
            cand = ann if simple else complete_tnp(ann)
            fast, _d1 = theorem2_test(psi, cand, bform, method="fast")
            words, _d2 = theorem2_test(psi, cand, bform, method="words")
            run.tick(fast == words == simple, psi)
    return run.result()


def check_simplicity_three_way(m, rng, trials):
    algebra = Algebra(m)
    bform = bilinear_form(algebra)
    run = _Run("simplicity_three_way", m, "randomized")
    if m <= 2:
        grid = [-1, 0, 1]
        n = 1 << m

        def assign(idx):
            xi = {}
            for a in range(n):
                xi[a] = grid[(idx // (3**a)) % 3]
            return Spinor(algebra, xi)

        run.mode = "exhaustive"
        for idx in range(3 ** n):
            omega = assign(idx)
            if omega.is_zero():
                continue
            rep_ = report(omega, bform)  # raises on any verdict disagreement
            run.tick(rep_.verdict_direct == rep_.verdict_cartan_chevalley == rep_.verdict_theorem2, idx)
        return run.result()
    simple_seen = 0
    for t in range(_effective(trials, m, weight=2)):
        if t % 4 == 0:
            omega = sampling.rand_simple_spinor(algebra, rng)
        elif t % 4 == 1:
            omega = Spinor.fock(algebra, rng.randrange(1 << m))
        else:
            omega = sampling.rand_nonzero_spinor(algebra, rng)
        rep_ = report(omega, bform)
        simple_seen += rep_.simple
        run.tick(True)
    run.note(simple_samples=simple_seen)
    return run.result()


def check_constraint_accounting(m, rng, trials):
    algebra = Algebra(m)
    bform = bilinear_form(algebra)
    run = _Run("constraint_accounting", m, "randomized")
    run.tick(
        constraint_count(10) == 10
        and constraint_count(12) == 66
        and constraint_count(16) == 1821,
        "paper counts",
    )
    expected = constraint_count(2 * m)
    for _ in range(max(4, _effective(trials, m, weight=1) // 6)):
        omega = sampling.rand_simple_spinor(algebra, rng)
        generated, violated = evaluate_constraints(omega, bform)
        run.tick(generated == expected and violated == 0, omega)
    if m >= 4:
        for _ in range(6):
            omega = _rand_chiral_spinor(algebra, rng, parity=0)
            if omega.is_zero() or is_simple_direct(omega)[0]:
                continue
            generated, violated = evaluate_constraints(omega, bform)
            run.tick(violated >= 1, omega)
    return run.result()


def check_spinor_switch(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("spinor_switch", m, "randomized")
    for _ in range(_effective(trials, m, weight=4)):
        omega = sampling.rand_nonzero_spinor(algebra, rng)
        k = rng.randint(0, m)
        sites = sorted(rng.sample(range(1, m + 1), k))
        source = omega.to_element()
        switched = spinor_space_switch(source, sites)
        if not sites:
            ok = switched == source
        elif switched.is_zero():
            ok = True
        else:
            flip = 0
            for i in sites:
                flip |= 1 << (m - i)
            columns = {b for (_a, b) in switched.terms}
            ok = columns == {algebra.full_mask ^ flip}
            chi_src = source.chirality()
            chi_dst = switched.chirality()
            ok = ok and (chi_src is None or chi_dst == chi_src)
            # rows are untouched: h-signature support is preserved
            ok = ok and {a for (a, _b) in switched.terms} <= {
                a for (a, _b) in source.terms
            }
        run.tick(ok, (omega, sites))
    return run.result()


def check_simple_support_bound(m, rng, trials):
    """Measure the maximal Fock support of simple spinors.

    The cited at-most-m-coordinates bound is refuted mechanically: at m = 3
    every chirality eigenvector is simple (dim 6 classical fact), including
    spinors supported on all 2^(m-1) chiral monomials.  The enumeration is
    kept and its findings recorded instead of asserted.
    """
    algebra = Algebra(m)
    run = _Run("simple_support_bound", m, "recorded")
    max_support = 0
    witness = None
    if m <= 3:
        n = 1 << m
        grid = [-1, 0, 1]
        for idx in range(3 ** n):
            xi = {}
            for a in range(n):
                xi[a] = grid[(idx // (3**a)) % 3]
            omega = Spinor(algebra, xi)
            if omega.is_zero():
                continue
            run.tick(True)
            if annihilator(omega).dimension == m and omega.support_size() > max_support:
                max_support = omega.support_size()
                witness = omega
    else:
        for _ in range(_effective(trials, m, weight=2)):
            omega = sampling.rand_simple_spinor(algebra, rng)
            run.tick(True)
            if omega.support_size() > max_support:
                max_support = omega.support_size()
                witness = omega
    run.note(
        max_simple_support=max_support,
        bound_m_holds=max_support <= m,
        witness=witness,
    )
    return run.result()


def check_one_dim_not_simple(m, rng, trials):
    algebra = Algebra(m)
    run = _Run("one_dim_not_simple", m, "recorded")
    if m < 3:
        run.tick(True)
        run.note(searched=False)
        return run.result()
    witness = None
    for _ in range(40):
        omega = sampling.rand_nonzero_spinor(algebra, rng)
        if not is_simple_direct(omega)[0]:
            witness = omega
            break
    run.tick(True)
    run.note(
        searched=True,
        found_non_simple_span=witness is not None,
        witness=witness,
    )
    return run.result()


CHECKS = [
    check_scalar_field_axioms,
    check_linalg_kernel_rank_det,
    check_efb_word_roundtrip,
    check_efb_product_oracle,
    check_efb_associativity,
    check_efb_gamma_eigen,
    check_efb_gamma_squared,
    check_efb_delta_structure,
    check_efb_trace,
    check_efb_main_automorphism,
    check_rep_oracle,
    check_vec_square_form,
    check_prop1_null_annihilation,
    check_prop2_vbar,
    check_conj_suite,
    check_prop3_cor1,
    check_prop4_bisection,
    check_prop5_subspaces,
    check_prop6_det_scaling,
    check_phi_general_position,
    check_prop7_b_orthogonality,
    check_bform_suite,
    check_prop8_witt_coefficients,
    check_expansion_roundtrips,
    check_thm1_cartan_chevalley,
    check_thm2_generalized,
    check_simplicity_three_way,
    check_constraint_accounting,
    check_spinor_switch,
    check_simple_support_bound,
    check_one_dim_not_simple,
]

PAPER_ITEMS = (
    "prop1",
    "prop2",
    "prop3",
    "cor1",
    "prop4",
    "prop5",
    "prop6",
    "prop7",
    "prop8",
    "thm1",
    "thm2",
)


def _derive_seed(seed: int, m: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{m}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_suite(m: int, seed: int = 0, trials: int = 200, parallel: bool = False):
    """Run every check at the given m; returns the list of CheckResults.

    Deterministic in (m, seed, trials).  Raises if the ledger fails to cover
    any paper proposition/theorem.
    """
    if not 1 <= m <= 6:
        raise OutOfRangeError("the verification suite supports 1 <= m <= 6")
    if trials < 1:
        raise OutOfRangeError("the verification suite needs at least one trial")
    if parallel:
        results = _run_parallel(m, seed, trials)
    else:
        results = [
            check(m, random.Random(_derive_seed(seed, m, check.__name__)), trials)
            for check in CHECKS
        ]
    names = " ".join(r.name for r in results)
    missing = [item for item in PAPER_ITEMS if item not in names]
    if missing:
        raise OutOfRangeError(f"suite does not cover: {missing}")
    return results


def _run_one(args):
    check_name, m, seed, trials = args
    check = next(c for c in CHECKS if c.__name__ == check_name)
    return check(m, random.Random(_derive_seed(seed, m, check_name)), trials)


def _run_parallel(m: int, seed: int, trials: int):
    from concurrent.futures import ProcessPoolExecutor

    jobs = [(check.__name__, m, seed, trials) for check in CHECKS]
    with ProcessPoolExecutor() as pool:
        return list(pool.map(_run_one, jobs))


def ledger_lines(results) -> list[str]:
    """Canonical JSON-lines rendering of a suite run."""
    return [
        json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
        for r in results
    ]
