import glob
import io
import json
import os
import random
import sys
import time
from contextlib import redirect_stdout, redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

from cliffordefb import Algebra, serialize
from cliffordefb.algebra import LETTER_NAMES, word_of_index
from cliffordefb.cli import main
from cliffordefb.scalars import format_scalar

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    real_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = real_stdin
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.json")))
)
def test_golden_corpus(path):
    record = json.load(open(path))
    code, stdout, _ = run_cli(record["argv"], record["stdin"])
    assert code == record["exit"]
    assert stdout == record["stdout"]


def test_product_output_is_canonical_fixed_point():
    x = {"m": 1, "field": "Q", "terms": [{"a": [1], "b": [-1], "c": "2/4"}]}
    y = {"m": 1, "field": "Q", "terms": [{"a": [-1], "b": [1], "c": "3"}]}
    code, out1, _ = run_cli(["product"], json.dumps({"x": x, "y": y}))
    assert code == 0
    element = json.loads(out1)
    # multiplying by the identity re-serializes byte-identically
    identity = {
        "m": 1,
        "field": "Q",
        "terms": [
            {"a": [1], "b": [1], "c": "1"},
            {"a": [-1], "b": [-1], "c": "1"},
        ],
    }
    code, out2, _ = run_cli(["product"], json.dumps({"x": element, "y": identity}))
    assert code == 0 and out2 == out1


def test_malformed_json_exit_2(tmp_path):
    deep = "[" * 100000  # nested past the decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv, stdin_text in (
        (["annihilator"], "{not json"),
        (["annihilator"], deep),
        (["annihilator", "--in", str(path)], None),
    ):
        code, _, err = run_cli(argv, stdin_text)
        assert code == 2
        assert json.loads(err)["error"] == "malformed_input"


def test_m_mismatch_exit_2():
    code, _, err = run_cli(
        ["annihilator", "--m", "2"], json.dumps({"m": 3, "xi": {"0": "1"}})
    )
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"


def test_zero_spinor_domain_error_exit_1():
    code, _, err = run_cli(["annihilator"], json.dumps({"m": 2, "xi": {}}))
    assert code == 1
    assert json.loads(err)["error"] == "zero_spinor"


def test_non_tnp_subspace_exit_1():
    payload = {
        "m": 2,
        "vectors": [
            {"alpha": ["1", "0"], "beta": ["1", "0"]},
        ],
    }
    code, _, err = run_cli(["subspace"], json.dumps(payload))
    assert code == 1
    assert json.loads(err)["error"] == "not_totally_null"


def test_out_of_range_m_exit_1():
    code, _, err = run_cli(
        ["annihilator"], json.dumps({"m": 9, "xi": {"0": "1"}})
    )
    assert code == 1
    assert json.loads(err)["error"] == "out_of_range"


@pytest.mark.parametrize("dim", ["18", "20000", "200000"])
def test_constraints_dim_above_compute_range_exit_1(dim):
    code, out, err = run_cli(["constraints", "--dim", dim])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "out_of_range"


@pytest.mark.parametrize(
    "field, values",
    [("Q", ["2/3", "-1", "5"]), ("Qi", ["2/3", "1-1/2 i", "0-3/4 i"])],
)
def test_explicit_zero_coordinates_give_the_same_spinor(field, values):
    """Coordinates written as zero are dropped: the spinor, its value
    types and key order, and every command's output equal the sparse
    input's."""
    algebra = Algebra(3, field)
    sparse = {"m": 3, "xi": dict(zip(["1", "6", "3"], values))}
    padded = {
        "m": 3,
        "xi": {"0": "0", "1": values[0], "4": "0/7", "6": values[1], "3": values[2], "7": "-0"},
    }
    if field == "Qi":
        padded["xi"]["5"] = "0+0 i"
    omega = serialize.spinor_from_json(sparse, algebra)
    padded_omega = serialize.spinor_from_json(padded, algebra)
    assert padded_omega == omega and list(padded_omega.xi) == [1, 6, 3]
    assert all(type(c) is type(algebra.zero_scalar) for c in padded_omega.xi.values())
    for argv in (["annihilator"], ["simplicity"], ["constraints", "--dim", "6", "--in", "-"]):
        argv = argv + ["--field", field]
        got = run_cli(argv, json.dumps(padded))
        assert got[0] == 0 and got == run_cli(argv, json.dumps(sparse))


def test_constraints_with_spinor_evaluation():
    spinor = {"m": 4, "xi": {"0": "1"}}
    code, out, _ = run_cli(
        ["constraints", "--dim", "8", "--in", "-"], json.dumps(spinor)
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1 and data["violated"] == 0


def test_verify_small_run_exit_0(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    code, out, _ = run_cli(
        ["verify", "--m", "1", "--seed", "3", "--trials", "8", "--out", str(ledger)]
    )
    assert code == 0
    lines = ledger.read_text().strip().split("\n")
    parsed = [json.loads(line) for line in lines]
    assert all(entry["passed"] for entry in parsed)
    names = " ".join(entry["name"] for entry in parsed)
    for tag in ("prop1", "prop4", "thm1", "thm2"):
        assert tag in names


def test_simplicity_table_format():
    code, out, _ = run_cli(
        ["simplicity", "--format", "table"], json.dumps({"m": 2, "xi": {"0": "1"}})
    )
    assert code == 0
    assert "simple" in out and "True" in out


def test_expand_witt_flag():
    element = {"m": 1, "field": "Q", "terms": [{"a": [1], "b": [-1], "c": "1"}]}
    code, out, _ = run_cli(["expand", "--basis", "witt"], json.dumps(element))
    assert code == 0
    assert json.loads(out)["terms"] == [{"word": "q1", "coeff": "1"}]


def test_expand_witt_m8_reads_the_terms():
    # the probe route would take 5^8 trace probes; the closed form is immediate
    rng = random.Random(8)
    terms = []
    for _ in range(12):
        a = [rng.choice((1, -1)) for _ in range(8)]
        b = [rng.choice((1, -1)) for _ in range(8)]
        terms.append({"a": a, "b": b, "c": str(rng.randrange(1, 9))})
    element = {"m": 8, "field": "Q", "terms": terms}
    start = time.perf_counter()
    code, out, _ = run_cli(["expand", "--basis", "witt"], json.dumps(element))
    assert code == 0 and time.perf_counter() - start < 10
    words = {t["word"]: t["coeff"] for t in json.loads(out)["terms"]}
    algebra = Algebra(8)
    for (a, b), c in serialize.element_from_json(element, algebra).terms.items():
        letters = [LETTER_NAMES[letter] for letter in word_of_index(a, b, 8)]
        text = ".".join("".join(ch + str(site) for ch in name) for site, name in enumerate(letters, 1))
        assert words[text] == format_scalar(c)


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["annihilator"], {"m": 3, "xi": {"1": 1.5}}),
        (["simplicity"], {"m": 3, "xi": {"1": 1.5}}),
        (["annihilator"], {"m": 3, "xi": []}),
        (["annihilator"], {"m": True, "xi": {"0": "1"}}),
        (["constraints", "--dim", "6", "--in", "-"], {"m": True, "xi": {"0": "1"}}),
        (["subspace"], {"m": 2, "vectors": {"alpha": ["1", "0"]}}),
        (["subspace"], {"m": 2, "vectors": [{"alpha": [0, 1], "beta": ["0", "0"]}]}),
        (["product"], {"x": {"m": 1, "terms": {}}, "y": {"m": 1, "terms": []}}),
        (["expand"], {"m": 1, "terms": [{"a": [1], "b": [1], "c": None}]}),
        (["product", "--precompute-signs"], {"x": {"m": 1, "terms": []}, "y": {"m": 1, "terms": []}}),
        # coordinate keys must be canonical integers: "01" would alias "1"
        (["simplicity"], {"m": 2, "xi": {"1": "2", "01": "3"}}),
        (["annihilator"], {"m": 4, "xi": {"1_0": "1"}}),
        (["annihilator"], {"m": 2, "xi": {" 1": "1"}}),
        (["constraints", "--dim", "4", "--in", "-"], {"m": 2, "xi": {"+1": "1"}}),
        (["simplicity"], {"m": 2, "xi": {"-0": "1"}}),
    ],
)
def test_malformed_schema_exit_2(argv, payload):
    code, out, err = run_cli(argv, json.dumps(payload))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed_input"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_nonpositive_trials(trials):
    code, out, err = run_cli(["verify", "--m", "1", "--trials", trials])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed_input"


def test_bad_arguments_are_malformed_input():
    code, _, err = run_cli(["verify", "--m", "three"])
    assert code == 2
    assert json.loads(err)["error"] == "malformed_input"


def test_unexpected_exception_reported_as_internal(monkeypatch):
    import cliffordefb.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_annihilator", broken)
    code, out, err = run_cli(["annihilator"], json.dumps({"m": 1, "xi": {"0": "1"}}))
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "internal"
    assert error["message"] == "RuntimeError: boom"


def test_verify_parallel_ledger_equals_serial(tmp_path):
    ledgers = []
    for extra in ([], ["--parallel"]):
        path = tmp_path / f"ledger{len(ledgers)}.jsonl"
        argv = ["verify", "--m", "3", "--seed", "5", "--trials", "4", "--out", str(path)]
        code, _, _ = run_cli(argv + extra)
        assert code == 0
        ledgers.append(path.read_text())
    assert ledgers[0] == ledgers[1]
    assert len(ledgers[0].strip().split("\n")) >= 20


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["m", "xi", "x", "y", "vectors", "alpha", "beta", "terms", "field", "0", "1"]),
        inner,
        max_size=4,
    ),
    max_leaves=8,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.sampled_from(["product", "annihilator", "subspace", "expand", "simplicity", "constraints"]),
    _json,
)
def test_arbitrary_json_ends_in_exit_code_and_one_json_error(command, payload):
    argv = [command] + (["--dim", "4", "--in", "-"] if command == "constraints" else [])
    code, out, err = run_cli(argv, json.dumps(payload))
    assert code in (0, 1, 2)
    if code:
        lines = err.strip().split("\n")
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
        assert out == ""
