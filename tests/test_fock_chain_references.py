"""Product-element references for the Fock chains on the spinor path.

Plane completion, the image route of S_(v1..vk) and the Cartan-Chevalley
test apply products of vectors to spinors as chains of the Fock action on
integer numerators.  The references below are the routes they replaced:
products built as dense algebra elements and multiplied through
``Algebra.mul``.  Results must be equal to theirs, over Q and Q(i).  The
theorem-2 test, decided by its support condition, is held against the
literal words route, ``theorem2_words``, and against the annihilation of
omega by the candidate plane.
"""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from itertools import product

import pytest

from cliffordefb import Algebra, Spinor, serialize, vectors
from cliffordefb.bilinear import BForm, bilinear_form
from cliffordefb.cli import main
from cliffordefb.errors import InternalCheckError
from cliffordefb.harness import _product_sample
from cliffordefb.linalg import Matrix
from cliffordefb.sampling import rand_max_tnp, rand_nonzero_spinor, rand_simple_spinor, rand_tnp
from cliffordefb.scalars import random_scalar
from cliffordefb.simplicity import (
    cartan_chevalley_test,
    fock_annihilator,
    theorem2_test,
    theorem2_words,
    tnp_intersection_dim,
)
from cliffordefb.spinors import (
    SpinorSubspace,
    act,
    annihilated_subspace,
    annihilator,
    complete_tnp,
    fock_chain_images,
    generic_spinor_sample,
    vector_act,
)
from cliffordefb.scalars import from_integer
from cliffordefb.vectors import TNPBasis, gamma_vector


# -- the product-element references --------------------------------------------


def ref_complete_tnp(tnp):
    algebra = tnp.algebra
    m = algebra.m
    if tnp.dimension == m:
        return tnp
    product_ = tnp.product_element() if tnp.dimension else algebra.identity()
    for a in range(1 << m):
        sigma = act(product_, Spinor.fock(algebra, a))
        if not sigma.is_zero():
            break
    found = annihilator(sigma)
    assert found.dimension == m
    assert all(vector_act(v, sigma).is_zero() for v in tnp)
    return found


def ref_image_space(tnp):
    algebra = tnp.algebra
    product_ = tnp.product_element()
    images = [act(product_, Spinor.fock(algebra, a)) for a in range(1 << algebra.m)]
    return SpinorSubspace.from_spinors(algebra, images)


def ref_cartan_chevalley(omega, candidate, bform):
    if omega.chirality() is None:
        return False
    endo = bform.endo_from_pair(omega, omega)
    product_ = candidate.product_element()
    if product_.is_zero():
        raise InternalCheckError("candidate basis product vanished")
    ratio = endo.proportionality(product_)
    return ratio is not None and bool(ratio)


def ref_intersection_dim(a, b):
    if a.dimension == 0 or b.dimension == 0:
        return 0
    rows = [v.coords() for v in a] + [v.coords() for v in b]
    return a.dimension + b.dimension - Matrix(rows).rank()


# -- cases --------------------------------------------------------------------------


def spinor_cases(m, field, seed):
    """Fock monomials, the m = 2 grid, random simple and non-simple spinors and
    spinors of mixed chirality."""
    algebra = Algebra(m, field=field)
    rng = random.Random(f"{seed}:{m}:{field}")
    cases = [Spinor.fock(algebra, a, 3) for a in range(1 << m)]
    if m == 2:
        for xi in product((-1, 0, 2), repeat=4):
            if any(xi):
                cases.append(Spinor.from_coords(algebra, xi))
    else:
        # two Fock spinors of one chirality: not simple for m >= 4
        cases.append(Spinor(algebra, {0: 1, (1 << m) - 1 if m % 2 == 0 else (1 << m) - 2: -2}))
    for _ in range(6):
        cases.append(rand_simple_spinor(algebra, rng))
    for k in range(1, m):
        cases.append(generic_spinor_sample(rand_tnp(algebra, rng, k), rng, height=9))
    for _ in range(2):
        cases.append(rand_nonzero_spinor(algebra, rng, height=9))
    cases.append(Spinor(algebra, {0: 1, 1: random_scalar(rng, field, nonzero=True, height=5)}))
    return algebra, rng, cases


FIELDS = ["Q", "Qi"]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_plane_completion_and_images_match_product_route(m, field):
    algebra, rng, cases = spinor_cases(m, field, "complete")
    planes = [annihilator(omega) for omega in cases]
    planes += [rand_tnp(algebra, rng, k) for k in range(1, m + 1)]
    planes.append(TNPBasis(algebra, []))
    for tnp in planes:
        assert complete_tnp(tnp) == ref_complete_tnp(tnp)
        if tnp.dimension == 0:
            continue
        den, chains = fock_chain_images(tnp.vectors, algebra)
        product_ = tnp.product_element()
        for a, nums in chains:
            chain = Spinor(
                algebra, {t: from_integer(x, den) for t, x in nums.items()}, _trusted=True
            )
            assert chain == act(product_, Spinor.fock(algebra, a))
        assert annihilated_subspace(tnp) == ref_image_space(tnp)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_generic_sample_matches_product_route_with_the_same_draws(m, field):
    algebra = Algebra(m, field=field)
    rng = random.Random(f"sample:{m}:{field}")
    for k in range(0, m + 1):
        tnp = rand_tnp(algebra, rng, k) if k else TNPBasis(algebra, [])
        seed = rng.random()
        ours, theirs = random.Random(seed), random.Random(seed)
        got = generic_spinor_sample(tnp, ours, height=9)
        want = (
            _product_sample(tnp, theirs, height=9)
            if k
            else generic_spinor_sample(tnp, theirs, height=9)
        )
        assert got == want
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_cartan_chevalley_matches_element_route(m, field):
    algebra, rng, cases = spinor_cases(m, field, "cc")
    bform = bilinear_form(algebra)
    verdicts = set()
    for omega in cases:
        ann = annihilator(omega)
        candidates = [ann if ann.dimension == m else complete_tnp(ann)]
        candidates.append(rand_max_tnp(algebra, rng))
        candidates.append(fock_annihilator(algebra, rng.randrange(1 << m)))
        for candidate in candidates:
            got = cartan_chevalley_test(omega, candidate, bform)
            assert got == ref_cartan_chevalley(omega, candidate, bform)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_cartan_chevalley_raises_when_every_chain_vanishes(monkeypatch):
    algebra = Algebra(3)
    omega = Spinor.fock(algebra, 0)
    candidate = fock_annihilator(algebra, 0)
    monkeypatch.setattr(
        "cliffordefb.simplicity.fock_chain_images",
        lambda vecs, alg: (1, ((a, {}) for a in range(1 << alg.m))),
    )
    with pytest.raises(InternalCheckError, match="candidate basis product vanished"):
        cartan_chevalley_test(omega, candidate)


def theorem2_candidates(omega, algebra, rng):
    """The completion of M(omega), a random maximal plane and a Fock plane."""
    m = algebra.m
    ann = annihilator(omega)
    return [
        ann if ann.dimension == m else complete_tnp(ann),
        rand_max_tnp(algebra, rng),
        fock_annihilator(algebra, rng.randrange(1 << m)),
    ]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_theorem2_matches_the_words_oracle(m, field):
    algebra, rng, cases = spinor_cases(m, field, "oracle")
    if m == 4:  # each oracle call builds 5^4 probes; Fock monomials are covered below m = 4
        cases = cases[1 << m:]
    bform = bilinear_form(algebra)
    verdicts = set()
    for omega in cases:
        for candidate in theorem2_candidates(omega, algebra, rng):
            got = theorem2_test(omega, candidate, bform)
            assert got == theorem2_words(omega, candidate, bform)
            verdicts.add(got[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_theorem2_verdict_is_the_candidate_annihilating_omega(m, field):
    """[u_i, w_i] omega = omega holds exactly when every u_i kills omega, and
    then omega (x) omega* is one word of grade m."""
    algebra, rng, cases = spinor_cases(m, field, "z")
    bform = bilinear_form(algebra)
    verdicts = set()
    for omega in cases:
        for candidate in theorem2_candidates(omega, algebra, rng):
            verdict, details = theorem2_test(omega, candidate, bform)
            assert verdict == all(vector_act(u, omega).is_zero() for u in candidate)
            assert details == {
                "k_m": annihilator(omega).dimension,
                "minimal_grade": m if verdict else None,
            }
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_theorem2_raises_when_the_grade_m_pairing_vanishes(monkeypatch):
    algebra = Algebra(3)
    omega = Spinor.fock(algebra, 0)
    candidate = fock_annihilator(algebra, 0)
    assert theorem2_test(omega, candidate) == (True, {"k_m": 3, "minimal_grade": 3})
    monkeypatch.setattr(BForm, "inner", lambda self, omega, phi: 0)
    with pytest.raises(InternalCheckError, match="grade-m word"):
        theorem2_test(omega, candidate)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_intersection_dim_matches_stacked_rank(m, field):
    algebra, rng, cases = spinor_cases(m, field, "meet")
    planes = [annihilator(omega) for omega in cases[-6:]]
    planes += [rand_tnp(algebra, rng, k) for k in range(1, m + 1)]
    for plane in planes:
        for a in range(1 << m):
            fock = fock_annihilator(algebra, a)
            assert tnp_intersection_dim(plane, fock) == ref_intersection_dim(plane, fock)
        for other in planes[:4]:
            assert tnp_intersection_dim(plane, other) == ref_intersection_dim(plane, other)


# -- the spinor commands never build a product element -----------------------------


def run_cli(argv, stdin_text):
    out = io.StringIO()
    real_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = real_stdin
    return code, out.getvalue()


def cli_requests():
    requests = []
    for m in range(1, 6):
        for field in FIELDS:
            algebra, rng, cases = spinor_cases(m, field, "cli")
            for omega in cases[-(m + 5):]:
                text = json.dumps(serialize.spinor_to_json(omega))
                requests.append((["annihilator", "--field", field], text))
                requests.append((["simplicity", "--field", field], text))
                requests.append((["constraints", "--dim", str(2 * m), "--field", field, "--in", "-"], text))
            for k in range(1, m + 1):
                tnp = rand_tnp(algebra, rng, k)
                text = json.dumps({"m": m, "vectors": [serialize.witt_vector_to_json(v) for v in tnp]})
                requests.append((["subspace", "--field", field], text))
    return requests


def test_spinor_commands_run_without_product_elements(monkeypatch):
    requests = cli_requests()
    expected = [run_cli(argv, text) for argv, text in requests]

    def forbidden(algebra, vecs):
        raise AssertionError("a product element was built on the spinor path")

    monkeypatch.setattr(vectors, "element_of_vectors", forbidden)
    with pytest.raises(AssertionError):
        TNPBasis(Algebra(2), [gamma_vector(Algebra(2), 1)]).product_element()
    for (argv, text), want in zip(requests, expected):
        assert want[0] == 0, (argv, want)
        assert run_cli(argv, text) == want, argv
