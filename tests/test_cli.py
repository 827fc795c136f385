import glob
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffordefb import Algebra, AlgebraElement, serialize
from cliffordefb.algebra import LETTER_NAMES, word_of_index
from cliffordefb.cli import MAX_VERIFY_TRIALS, main
from cliffordefb.scalars import format_scalar, parse_scalar

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# argv -> (exit code or SystemExit, stdout, stderr), help wrapped at 80 columns
ARGUMENT_TABLE = os.path.join(os.path.dirname(__file__), "cli_arguments.json")
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


_Q1 = {"alpha": ["1", "0"], "beta": ["0", "0"]}


@pytest.mark.parametrize(
    "vectors, code, stdout, stderr",
    [
        ([], 1, "", '{"error":"not_totally_null","message":"empty vector list"}\n'),
        (
            [{"alpha": ["1", "0"], "beta": ["1", "0"]}],
            1,
            "",
            '{"error":"not_totally_null","message":"vector 0 is not null: v^2 = 1"}\n',
        ),
        (
            [_Q1, {"alpha": ["0", "0"], "beta": ["1", "0"]}],
            1,
            "",
            '{"error":"not_totally_null","message":'
            '"vectors 0 and 1 do not anticommute: {v_0, v_1} = 1"}\n',
        ),
        (
            [_Q1, {"alpha": ["2", "0"], "beta": ["0", "0"]}],
            0,
            '{"basis":[{"m":2,"xi":{"2":"1"}},{"m":2,"xi":{"3":"1"}}],"dimension":2,"k":1,"m":2}\n',
            "",
        ),
    ],
    ids=["empty", "non-null", "non-orthogonal", "dependent"],
)
def test_subspace_output_is_pinned(vectors, code, stdout, stderr):
    """The exact bytes of the subspace command on the inputs its validation
    branches on: the plane is validated once, inside the annihilated
    subspace, and k is read back from the subspace's dimension."""
    got = run_cli(["subspace"], json.dumps({"m": 2, "vectors": vectors}))
    assert got == (code, stdout, stderr)


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


@pytest.mark.parametrize(
    "field, c, minus_c", [("Q", "1/2", "-1/2"), ("Qi", "1/2+1/3 i", "-1/2-1/3 i")]
)
def test_repeated_element_terms_add_up(field, c, minus_c):
    """Terms naming one (a, b) again add up in the place of the first: sums
    that cancel drop out, and the stored form is the field-value
    constructor's on the summed terms."""
    algebra = Algebra(1, field)

    def parsed(*terms):
        rows = [{"a": [a], "b": [b], "c": text} for a, b, text in terms]
        return serialize.element_from_json({"m": 1, "field": field, "terms": rows}, algebra)

    def stored(x):
        return x.nums, x.den, [type(num) for num in x.nums.values()]

    one = algebra.one_num
    assert stored(parsed((-1, 1, "1/4"), (-1, 1, "1/4"))) == ({(1, 0): one}, 2, [type(one)])
    assert stored(parsed((1, 1, c), (1, 1, minus_c))) == ({}, 1, [])
    mixed = parsed(
        (1, 1, c), (-1, 1, "1/4"), (1, -1, "-5/6"), (1, 1, minus_c), (-1, 1, "1/4"), (1, -1, c)
    )
    last = parse_scalar("-5/6", field) + parse_scalar(c, field)
    summed = AlgebraElement(algebra, {(1, 0): Fraction(1, 2), (0, 1): last})
    assert stored(mixed) == stored(summed) and list(mixed.nums) == [(1, 0), (0, 1)]


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


def test_verify_writes_the_same_bytes_to_a_file_and_to_stdout(tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    argv = ["verify", "--m", "1", "--seed", "3", "--trials", "8"]
    code, out, _ = run_cli(argv)
    code_file, out_file, _ = run_cli(argv + ["--out", str(ledger)])
    assert code == code_file == 0 and out_file == ""
    assert ledger.read_bytes() == out.encode("utf-8")


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
        # the parallel verify path is gone; its flag is an unknown argument
        (["verify", "--m", "3", "--parallel"], {}),
        # scalars follow the documented grammar in ASCII digits, nothing else
        (["simplicity"], {"m": 3, "xi": {"0": "1e20000", "3": "1"}}),
        (["annihilator"], {"m": 2, "xi": {"1": "1_0"}}),
        (["annihilator"], {"m": 2, "xi": {"1": "\u0663"}}),
        (["annihilator"], {"m": 2, "xi": {"1": "1.5"}}),
        (["annihilator", "--field", "Qi"], {"m": 2, "xi": {"1": "1e3"}}),
        # signature entries are the ints 1 and -1, not booleans or floats
        (["expand"], {"m": 2, "terms": [{"a": [True, 1], "b": [1, 1], "c": "1"}]}),
        (["expand"], {"m": 2, "terms": [{"a": [1.0, 1], "b": [1, 1], "c": "1"}]}),
    ],
)
def test_malformed_schema_exit_2(argv, payload):
    code, out, err = run_cli(argv, json.dumps(payload))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed_input"


@pytest.mark.parametrize(
    "alpha, beta",
    [(["1"], ["0", "0"]), (["1", "0"], ["0", "0", "0"]), (["1", "0", "0"], ["0"]), ([], [])],
)
def test_subspace_rejects_coordinate_lists_of_the_wrong_length(alpha, beta):
    """The codec's length check is the one check on a vector's length."""
    payload = {"m": 2, "vectors": [{"alpha": alpha, "beta": beta}]}
    code, out, err = run_cli(["subspace"], json.dumps(payload))
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "malformed_input",
        "message": "coordinate lists must have length m=2",
    }


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_nonpositive_trials(trials):
    code, out, err = run_cli(["verify", "--m", "1", "--trials", trials])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed_input"


def test_verify_rejects_trials_above_the_maximum():
    code, out, err = run_cli(["verify", "--m", "1", "--trials", str(MAX_VERIFY_TRIALS + 1)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed_input"
    assert str(MAX_VERIFY_TRIALS) in json.loads(err)["message"]


MEGABYTE = 1 << 20


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["simplicity"], {"m": 2, "xi": {"0": "1" * MEGABYTE}}),
        (["simplicity", "--field", "Qi"], {"m": 2, "xi": {"0": "1/2+" + "3" * MEGABYTE + " i"}}),
        (["expand"], {"m": 1, "terms": [{"a": [1], "b": [1], "c": "x" * MEGABYTE}]}),
        (["expand"], {"m": 1, "terms": [{"a": [1], "b": [1], "c": [1] * MEGABYTE}]}),
        (["simplicity"], {"m": 2, "xi": {"0" * MEGABYTE: "1"}}),
        (["simplicity"], {"m": 2, "xi": {"9" * MEGABYTE: "1"}}),
        (["simplicity"], {"m": 2, "field": "Q" * MEGABYTE, "xi": {"0": "1"}}),
    ],
)
def test_megabyte_input_gives_a_short_error_line(argv, payload):
    code, out, err = run_cli(argv, json.dumps(payload))
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1 and len(err.encode()) < 300
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


with open(ARGUMENT_TABLE, encoding="utf-8") as _handle:
    _ARGUMENT_RECORDS = json.load(_handle)


@pytest.mark.parametrize(
    "record", _ARGUMENT_RECORDS, ids=[" ".join(r["argv"]) or "-" for r in _ARGUMENT_RECORDS]
)
def test_argument_handling_replays_the_table_byte_for_byte(record, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "stdin", io.StringIO(record["stdin"]))
    out, err = io.StringIO(), io.StringIO()
    system_exit = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(record["argv"])
        except SystemExit as exc:
            code, system_exit = exc.code, True
    got = (code, system_exit, out.getvalue(), err.getvalue())
    assert got == (record["exit"], record["system_exit"], record["stdout"], record["stderr"])


def test_a_subcommand_call_builds_only_its_own_parser(monkeypatch, tmp_path):
    import cliffordefb.cli as cli

    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"m": 2, "xi": {"0": "1"}}), encoding="utf-8")
    code, _, _ = run_cli(["annihilator", "--in", str(path)])
    assert code == 0 and built == ["cliffordefb annihilator"]
    built.clear()
    code, _, _ = run_cli(["nosuch"])
    assert code == 2 and built[0] == "cliffordefb" and len(built) == 1 + len(cli.COMMANDS)


def test_the_module_runs_as_a_process():
    env = dict(os.environ, PYTHONPATH=SRC_DIR)

    def run(*argv):
        command = [sys.executable, "-m", "cliffordefb.cli", *argv]
        done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    assert run("constraints", "--dim", "10") == (0, '{"count":10,"dimension":10}\n', "")
    code, out, err = run("--help")
    assert code == 0 and out.startswith("usage: cliffordefb") and err == ""
    code, out, err = run("nosuch")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "malformed_input"


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
