import json
import random

import pytest

from cliffordefb import Algebra, Spinor, TNPBasis, annihilator, harness, ledger_lines, run_suite
from cliffordefb.errors import OutOfRangeError
from cliffordefb.harness import CHECKS, PAPER_ITEMS, CheckResult, _derive_seed
from cliffordefb.sampling import rand_tnp
from cliffordefb.scalars import FIELD_QI, random_scalar
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


@pytest.mark.parametrize("m, trials", [(4, 10), (5, 200)])
def test_prop7_converse_makes_no_vacuous_draw(m, trials, monkeypatch):
    """Outside the strictness search at nullity m - 3, every converse draw
    finds its phi, seeded as run_suite(m, seed=42, trials) seeds it."""
    draws = []
    search = harness._orthogonal_spinor_with_nullity

    def counted(algebra, bform, omega, t, rng, **kw):
        phi = search(algebra, bform, omega, t, rng, **kw)
        draws.append((t, phi is None))
        return phi

    monkeypatch.setattr(harness, "_orthogonal_spinor_with_nullity", counted)
    check = harness.check_prop7_b_orthogonality
    result = check(m, random.Random(_derive_seed(42, m, check.__name__)), trials)
    assert result.passed
    converse = [vacuous for t, vacuous in draws if t != m - 3]
    assert len(converse) == harness._effective(trials, m)
    assert sum(converse) == 0
