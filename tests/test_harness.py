import hashlib
import json
import random
from fractions import Fraction

import pytest

from cliffordefb import Algebra, Spinor, TNPBasis, annihilator, harness, ledger_lines, run_suite
from cliffordefb.errors import OutOfRangeError
from cliffordefb.harness import CHECKS, PAPER_ITEMS, CheckResult, _derive_seed
from cliffordefb.sampling import rand_nonzero_spinor, rand_tnp
from cliffordefb.scalars import FIELD_QI, GaussInt, random_scalar
from cliffordefb.spinors import annihilated_subspace, generic_spinor_sample


def test_all_checks_pass_small_m():
    for m in (1, 2):
        results = run_suite(m, seed=7, trials=30)
        assert all(r.passed for r in results), [
            (r.name, r.witness) for r in results if not r.passed
        ]


def test_ledger_deterministic():
    a = run_suite(2, seed=11, trials=25)
    b = run_suite(2, seed=11, trials=25)
    assert ledger_lines(a) == ledger_lines(b)
    # a different trial budget changes the ledger (trial counts are recorded)
    c = run_suite(2, seed=11, trials=24)
    assert ledger_lines(a) != ledger_lines(c)


def test_ledger_lines_are_canonical_json():
    results = run_suite(1, seed=3, trials=10)
    for line in ledger_lines(results):
        parsed = json.loads(line)
        assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line
        assert {"name", "m", "mode", "trials", "failures", "passed"} <= set(parsed)


def test_paper_coverage():
    names = " ".join(check.__name__ for check in CHECKS)
    for item in PAPER_ITEMS:
        assert item in names


def test_exhaustive_modes_marked():
    results = run_suite(1, seed=1, trials=10)
    modes = {r.name: r.mode for r in results}
    assert modes["efb_product_oracle"] == "exhaustive"
    assert modes["efb_word_roundtrip"] == "exhaustive"
    assert modes["efb_gamma_eigen"] == "exhaustive"


def test_m_out_of_range():
    with pytest.raises(OutOfRangeError):
        run_suite(0)
    with pytest.raises(OutOfRangeError):
        run_suite(7)


def test_witness_only_on_failure():
    results = run_suite(1, seed=5, trials=10)
    for r in results:
        if r.passed:
            assert r.witness is None
        if r.mode == "recorded":
            assert r.findings is not None


def test_checkresult_json_shape():
    result = CheckResult("x", 2, "randomized", 5, 1, {"witness": "w"})
    data = result.to_json()
    assert data["passed"] is False and data["witness"] == {"witness": "w"}


@pytest.mark.parametrize("field", ["Q", FIELD_QI])
@pytest.mark.parametrize("m", range(2, 6))
def test_a_spinor_killed_by_an_m_minus_2_plane_has_nullity_at_least_m_minus_1(m, field):
    """The fact prop7's converse draws rest on: every nonzero phi in S_T for
    an (m - 2)-plane T has dim M(phi) >= m - 1; at m = 2, T = 0 and S_T is
    every spinor."""
    algebra = Algebra(m, field)
    rng = random.Random(1000 * m + len(field))
    for _ in range(12):
        if m == 2:
            phi = generic_spinor_sample(TNPBasis(algebra, []), rng)
        else:
            basis = annihilated_subspace(rand_tnp(algebra, rng, m - 2), cross_check=False).basis()
            phi = Spinor.zero(algebra)
            for b in basis:
                phi = phi + b.scale(random_scalar(rng, field, height=9))
            if phi.is_zero():
                continue
        assert annihilator(phi).dimension >= m - 1, phi


def _prop7_converse_draws(m, trials, monkeypatch):
    """prop7's result, seeded as run_suite(m, seed=42, trials) seeds it, and
    per converse draw (outside the strictness search at nullity m - 3)
    whether it found no phi."""
    draws = []
    search = harness._orthogonal_spinor_with_nullity

    def counted(algebra, bform, omega, t, rng, **kw):
        phi = search(algebra, bform, omega, t, rng, **kw)
        draws.append((t, phi is None))
        return phi

    monkeypatch.setattr(harness, "_orthogonal_spinor_with_nullity", counted)
    check = harness.check_prop7_b_orthogonality
    result = check(m, random.Random(_derive_seed(42, m, check.__name__)), trials)
    converse = [vacuous for t, vacuous in draws if t != m - 3]
    assert len(converse) == harness._effective(trials, m)
    return result, converse


@pytest.mark.parametrize("m, trials", [(4, 10), (5, 200)])
def test_prop7_converse_makes_no_vacuous_draw(m, trials, monkeypatch):
    """Every converse draw finds its phi, and the findings note none."""
    result, converse = _prop7_converse_draws(m, trials, monkeypatch)
    assert result.passed
    assert sum(converse) == 0
    assert "vacuous_converse_draws" not in (result.findings or {})


@pytest.mark.parametrize("m", [2, 3])
def test_prop7_counts_vacuous_converse_draws_without_ticking_them(m, monkeypatch):
    """At m = 2 and 3 some converse draws find no phi: each is counted in the
    ledger's findings, and the converse ticks only the draws that found one."""
    result, converse = _prop7_converse_draws(m, 30, monkeypatch)
    assert result.passed
    vacuous = sum(converse)
    assert vacuous > 0
    assert result.findings["vacuous_converse_draws"] == vacuous
    forward = harness._effective(30, m)
    assert result.trials == forward + len(converse) - vacuous


def test_m6_ledger_is_pinned():
    """The m = 6 ledger, stacked ranks of 64 rows included, byte for byte."""
    lines = ledger_lines(run_suite(6, seed=42, trials=10))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "cbff2e41f4f320b3238464adff9dd9d20642acc4900c902b092316a4fbfb67cc"


def test_a_raising_check_is_reported_and_the_suite_runs_on(monkeypatch):
    """With one pivot row dropped from every elimination that has two, the
    library raises inside several checks; each is one failed trial whose
    witness names the error, and every check still reports."""
    from cliffordefb import errors, linalg

    real = linalg._eliminate

    def drops_a_pivot(rows):
        pivot_rows = real(rows)
        if len(pivot_rows) >= 2:
            del pivot_rows[next(reversed(pivot_rows))]
        return pivot_rows

    monkeypatch.setattr(linalg, "_eliminate", drops_a_pivot)
    results = run_suite(4, seed=42, trials=10)
    assert len(results) == len(CHECKS) == 31
    assert [r.name for r in results] == [c.__name__.removeprefix("check_") for c in CHECKS]
    raised = [r for r in results if r.mode == "raised"]
    assert raised
    for r in raised:
        assert (r.trials, r.failures, r.passed) == (1, 1, False)
        assert issubclass(getattr(errors, r.witness["error"]), errors.CliffordError)
        assert r.witness["message"]
    by_name = {r.name: r for r in results}
    assert by_name["prop5_subspaces"].witness == {
        "error": "InternalCheckError",
        "message": "kernel and image routes disagree on S_(v1..vk)",
    }
    assert not by_name["prop4_bisection"].passed
    assert not by_name["linalg_kernel_rank_det"].passed
    assert by_name["scalar_field_axioms"].passed
    ledger_lines(results)  # the ledger still renders


# -- the harness's rank oracle ------------------------------------------------


def ref_rank(rows):
    """Rank by dense Gaussian elimination in Fractions."""
    cols = sorted({c for row in rows for c in row})
    mat = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][j] / mat[rank][j]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def integer_row_sets():
    """Seeded full, deficient, wide, tall, zero-row and large-height sets."""
    rng = random.Random(33)

    def row(ncols, density, height):
        return {
            c: rng.choice((-1, 1)) * rng.randint(1, height)
            for c in range(ncols)
            if rng.random() < density
        }

    def combination(base):
        acc = {}
        for b in base:
            f = rng.randint(-5, 5)
            for c, x in b.items():
                acc[c] = acc.get(c, 0) + f * x
        return {c: x for c, x in acc.items() if x}

    base = [row(9, 0.6, 12) for _ in range(4)]
    return [
        ("full", [row(8, 0.9, 50) for _ in range(8)]),
        ("deficient", base + [combination(base) for _ in range(5)]),
        ("wide", [row(40, 0.5, 20) for _ in range(3)]),
        ("tall", [row(4, 0.7, 20) for _ in range(30)]),
        ("zero rows", [{}, row(5, 1.0, 9), {}]),
        ("large height", [row(7, 0.7, 10**30) for _ in range(7)]),
    ]


ROW_SETS = integer_row_sets()


@pytest.mark.parametrize("name, rows", ROW_SETS, ids=[name for name, _rows in ROW_SETS])
def test_certified_rank_matches_a_rational_reference(name, rows):
    want = ref_rank(rows)
    if name == "full":
        assert want == len(rows)
    if name == "deficient":
        assert want < len(rows)
    assert harness.certified_rank(rows) == want
    # a row's stored denominator scales it and leaves the rank alone
    rng = random.Random(len(rows))
    dens = [rng.randint(1, 10**6) for _row in rows]
    scaled = [{c: x * den for c, x in row.items()} for row, den in zip(rows, dens)]
    assert harness.certified_rank(scaled) == want


def test_certified_rank_reads_stored_numerators_as_their_spinors():
    """A spinor's numerators are its coordinates times its denominator."""
    algebra = Algebra(3)
    rng = random.Random(5)
    for _ in range(10):
        spinors = [rand_nonzero_spinor(algebra, rng) for _ in range(rng.randint(2, 9))]
        spinors.append(spinors[0].scale(Fraction(3, 7)) - spinors[1])
        want = ref_rank([dict(enumerate(s.coords())) for s in spinors])
        assert harness.certified_rank([s.nums for s in spinors]) == want


def _routes(rows, monkeypatch):
    """certified_rank's result and the primes (None: Fractions) it tried."""
    tried = []
    forward = harness._forward_rank

    def recorded(rows, p):
        tried.append(p)
        return forward(rows, p)

    monkeypatch.setattr(harness, "_forward_rank", recorded)
    return harness.certified_rank(rows), tried


def test_certified_rank_retries_a_deficient_prime(monkeypatch):
    p1, p2 = harness.RANK_PRIMES
    assert _routes([{0: 3}, {1: 1}], monkeypatch) == (2, [p1])
    assert _routes([{0: p1}, {1: 1}], monkeypatch) == (2, [p1, p2])
    assert _routes([{0: p1 * p2}, {1: 1}], monkeypatch) == (2, [p1, p2, None])
    # a true deficiency is decided by the exact route
    assert _routes([{0: 2, 1: 4}, {0: 3, 1: 6}], monkeypatch) == (1, [p1, p2, None])


def test_certified_rank_runs_over_q_only():
    with pytest.raises(TypeError):
        harness.certified_rank([{0: GaussInt(1, 2)}, {1: 1}])
