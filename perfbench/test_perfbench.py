"""Tests of the benchmark itself: seeded inputs, answer checks, span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import inputs as gen
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def program():
    return workloads.import_program(SRC)


def test_same_seed_same_input_digest(tmp_path):
    for cls in (workloads.ElementSession, workloads.SpinorCli):
        first = cls(7, tmp_path / "a", SRC).input_digest
        assert cls(7, tmp_path / "b", SRC).input_digest == first
        assert cls(8, tmp_path / "c", SRC).input_digest != first


def test_generated_nullity_matches_program(program):
    from cliffordefb import Algebra, annihilator, serialize

    rng = random.Random(3)
    for field in (gen.Q, gen.QI):
        for m in (3, 4, 5):
            for k in range(1, m + 1):
                _plane, xi, nullity = gen.spinor_on_plane(rng, m, k, field)
                algebra = Algebra(m, field)
                omega = serialize.spinor_from_json(gen.spinor_json(xi, m), algebra)
                assert annihilator(omega).dimension == nullity == gen.generic_nullity(m, k)


def test_element_generator_sizes():
    rng = random.Random(1)
    x = gen.rand_element(rng, 4, 12, 3)
    assert len(x["terms"]) == 12
    xors = {gen_mask(t["a"]) ^ gen_mask(t["b"]) for t in x["terms"]}
    assert len(xors) == 3
    x, y, pairs = gen.product_pair(rng, 4, 16, 4)
    rows: dict[int, int] = {}
    for t in y["terms"]:
        rows[gen_mask(t["a"])] = rows.get(gen_mask(t["a"]), 0) + 1
    assert pairs == sum(rows.get(gen_mask(t["b"]), 0) for t in x["terms"]) == 64


def gen_mask(sig) -> int:
    mask = 0
    for s in sig:
        mask = (mask << 1) | (s < 0)
    return mask


def _annihilator_request(tmp_path):
    workload = workloads.SpinorCli(5, tmp_path, SRC)
    request = next(r for r in workload.requests if r["command"] == "annihilator" and r["m"] == 4)
    return workload, request


def test_checker_accepts_right_and_rejects_wrong_answers(program, tmp_path):
    workload, request = _annihilator_request(tmp_path)
    result = workload.call(request)
    ok, text = workload.check(request, result)
    assert ok
    answer = json.loads(text)

    wrong = json.loads(text)
    wrong["vectors"][0]["alpha"][0] = gen.scalar_text(gen.parse_scalar(wrong["vectors"][0]["alpha"][0]) + 1)
    assert not workload._answer_ok(request, wrong)

    wrong = dict(answer, dimension=answer["dimension"] + 1)
    assert not workload._answer_ok(request, wrong)

    assert not workload.check(request, (1, "", '{"error":"x"}'))[0]

    constraints = next(r for r in workload.requests if r["command"] == "constraints")
    count = gen.constraint_count(constraints["m"])
    right = {"count": count, "generated": count, "violated": 0, "satisfied": count}
    assert workload._answer_ok(constraints, right)
    assert not workload._answer_ok(constraints, dict(right, violated=1, satisfied=count - 1))


def test_self_time_on_synthetic_tree():
    spans = [
        ["request", 0.0, 10.0, None, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["a", 2.0, 3.0, 1, "r"],  # re-entrant: counted in self, not again in total
        ["b", 3.5, 6.0, 0, "r"],  # overlaps its sibling: the union is covered once
        ["c", 8.0, 9.0, 0, "r"],
    ]
    assert tracing.self_times(spans) == [10.0 - 6.0, 2.0, 1.0, 2.5, 1.0]
    assert tracing.outermost(spans) == [True, True, False, True, True]
    stats = tracing.aggregate(spans)
    assert stats["a"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert tracing.request_self_sums(spans) == {"r": 6.5}


def test_instrument_rebinds_every_import(program):
    tracer = tracing.Tracer()
    workloads.import_program(SRC)
    tracing.instrument(tracer)
    import cliffordefb
    from cliffordefb import cli, harness, simplicity, spinors

    assert simplicity.annihilator is spinors.annihilator is cli.annihilator
    assert harness.annihilator is cliffordefb.annihilator is spinors.annihilator
    assert harness.CHECKS[0].__name__ == "check_scalar_field_axioms"
    tracer.enabled = True
    omega = spinors.Spinor.fock(cliffordefb.Algebra(3), 0)
    simplicity.report(omega)
    names = {span[0] for span in tracer.spans}
    assert {"simplicity.report", "spinors.annihilator", "linalg.rref", "bilinear.inner"} <= names
    workloads.import_program(SRC)  # leave an uninstrumented copy for later tests


def test_harness_check_names_match_program(program):
    names = [c.__name__.removeprefix("check_") for c in program.harness.CHECKS]
    assert names == workloads.HARNESS_CHECKS


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.layer_metric_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90  # ten samples lie beyond it
