"""Command-line interface: products, annihilators, subspaces, expansions,
simplicity reports, constraint counts, and the verification suite.

JSON in, JSON out (canonical form); exit 0 on success, 1 on domain errors,
2 on malformed input.  Computation commands accept m <= 8; verify accepts
m <= 6.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CliffordError, InternalCheckError, MalformedInputError, NotTotallyNullError
from .errors import OutOfRangeError
from .scalars import FIELDS, FIELD_Q
from .algebra import Algebra
from .vectors import TNPBasis
from .spinors import annihilated_subspace, annihilator
from .bilinear import expand_gamma, expand_witt
from .simplicity import constraint_count, evaluate_constraints, report
from .harness import ledger_lines, run_suite
from . import serialize

MAX_COMPUTE_M = 8
MAX_VERIFY_M = 6
# verify --m 6 at this many trials stays well inside the one-minute budget
MAX_VERIFY_TRIALS = 5000


def _read_input(args) -> object:
    if args.input == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise MalformedInputError(f"cannot read {args.input}: {exc}") from exc
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedInputError(f"invalid JSON: {exc}") from exc


def _emit(args, payload):
    text = serialize.canonical_dumps(payload) if not isinstance(payload, str) else payload
    if args.output == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _algebra(args, m: int) -> Algebra:
    if not 1 <= m <= MAX_COMPUTE_M:
        raise OutOfRangeError(f"m={m} outside the supported range 1..{MAX_COMPUTE_M}")
    return Algebra(m, args.field)


def _check_m_flag(args, m_from_input) -> int:
    if m_from_input is None:
        if args.m is None:
            raise MalformedInputError("input carries no m and no --m flag was given")
        return args.m
    if not isinstance(m_from_input, int) or isinstance(m_from_input, bool):
        raise MalformedInputError("m must be an integer")
    if args.m is not None and args.m != m_from_input:
        raise MalformedInputError(
            f"--m {args.m} disagrees with input m={m_from_input}"
        )
    return m_from_input


def cmd_product(args) -> int:
    data = _read_input(args)
    if not isinstance(data, dict) or "x" not in data or "y" not in data:
        raise MalformedInputError('product expects {"x": element, "y": element}')
    m = _check_m_flag(args, data["x"].get("m") if isinstance(data["x"], dict) else None)
    algebra = _algebra(args, m)
    x = serialize.element_from_json(data["x"], algebra)
    y = serialize.element_from_json(data["y"], algebra)
    _emit(args, serialize.element_to_json(x * y))
    return 0


def cmd_annihilator(args) -> int:
    data = _read_input(args)
    if not isinstance(data, dict):
        raise MalformedInputError("annihilator expects a spinor object")
    m = _check_m_flag(args, data.get("m"))
    algebra = _algebra(args, m)
    omega = serialize.spinor_from_json(data, algebra)
    basis = annihilator(omega)
    _emit(args, {"m": m, **serialize.tnp_to_json(basis)})
    return 0


def cmd_subspace(args) -> int:
    data = _read_input(args)
    if not isinstance(data, dict) or "vectors" not in data:
        raise MalformedInputError('subspace expects {"m": int, "vectors": [...]}')
    m = _check_m_flag(args, data.get("m"))
    algebra = _algebra(args, m)
    if not isinstance(data["vectors"], list):
        raise MalformedInputError("vectors must be a list")
    vectors = [serialize.witt_vector_from_json(v, algebra) for v in data["vectors"]]
    if not vectors:
        raise NotTotallyNullError("empty vector list")
    subspace = annihilated_subspace(TNPBasis(algebra, vectors))
    _emit(
        args,
        {
            "m": m,
            "k": m - (subspace.dimension.bit_length() - 1),
            "dimension": subspace.dimension,
            "basis": [serialize.spinor_to_json(s) for s in subspace.basis()],
        },
    )
    return 0


def cmd_expand(args) -> int:
    data = _read_input(args)
    m = _check_m_flag(args, data.get("m") if isinstance(data, dict) else None)
    algebra = _algebra(args, m)
    mu = serialize.element_from_json(data, algebra)
    if args.basis == "gamma":
        terms = serialize.gamma_expansion_to_json(expand_gamma(mu))
    else:
        terms = serialize.witt_expansion_to_json(expand_witt(mu))
    _emit(args, {"m": m, "basis": args.basis, "terms": terms})
    return 0


def cmd_simplicity(args) -> int:
    data = _read_input(args)
    if not isinstance(data, dict):
        raise MalformedInputError("simplicity expects a spinor object")
    m = _check_m_flag(args, data.get("m"))
    algebra = _algebra(args, m)
    omega = serialize.spinor_from_json(data, algebra)
    result = report(omega)
    if args.format == "table":
        _emit(args, serialize.report_table(result))
    else:
        _emit(args, serialize.report_to_json(result))
    return 0


def cmd_constraints(args) -> int:
    if args.dim > 2 * MAX_COMPUTE_M:
        raise OutOfRangeError(
            f"--dim {args.dim} exceeds the supported maximum {2 * MAX_COMPUTE_M}"
        )
    count = constraint_count(args.dim)
    payload = {"dimension": args.dim, "count": count}
    if args.input is not None:
        data = _read_input(args)
        m = _check_m_flag(args, data.get("m") if isinstance(data, dict) else None)
        if 2 * m != args.dim:
            raise MalformedInputError(f"spinor m={m} disagrees with --dim {args.dim}")
        algebra = _algebra(args, m)
        omega = serialize.spinor_from_json(data, algebra)
        generated, violated = evaluate_constraints(omega)
        payload["generated"] = generated
        payload["violated"] = violated
        payload["satisfied"] = generated - violated
    _emit(args, payload)
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.m <= MAX_VERIFY_M:
        raise OutOfRangeError(f"verify supports 1 <= m <= {MAX_VERIFY_M}")
    if not 1 <= args.trials <= MAX_VERIFY_TRIALS:
        raise MalformedInputError(
            f"--trials must be between 1 and {MAX_VERIFY_TRIALS}, got {args.trials}"
        )
    results = run_suite(args.m, seed=args.seed, trials=args.trials)
    _emit(args, "\n".join(ledger_lines(results)))
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as malformed input instead of exiting."""

    def error(self, message):
        raise MalformedInputError(message)


def _common_options(p):
    p.add_argument("--m", type=int, default=None, help="expected m (validated)")
    p.add_argument("--field", choices=FIELDS, default=FIELD_Q)
    p.add_argument("--in", dest="input", default="-", help="input path or - for stdin")
    p.add_argument("--out", dest="output", default="-", help="output path or - for stdout")


def _expand_options(p):
    _common_options(p)
    p.add_argument("--basis", choices=("gamma", "witt"), default="gamma")


def _simplicity_options(p):
    _common_options(p)
    p.add_argument("--format", choices=("json", "table"), default="json")


def _constraints_options(p):
    p.add_argument("--dim", type=int, required=True, help="total vector space dimension 2m")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--field", choices=FIELDS, default=FIELD_Q)
    p.add_argument("--in", dest="input", default=None, help="optional spinor to evaluate")
    p.add_argument("--out", dest="output", default="-")


def _verify_options(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trials", type=int, default=200, help=f"trials per check, 1..{MAX_VERIFY_TRIALS}"
    )
    p.add_argument("--out", dest="output", default="-")


# name -> (help, handler name, adds the subcommand's options).  The handler is
# looked up by name when a call runs, so a replaced module attribute is used.
COMMANDS = {
    "product": ("Clifford product of two elements", "cmd_product", _common_options),
    "annihilator": (
        "totally null plane M(omega) of a spinor", "cmd_annihilator", _common_options
    ),
    "subspace": (
        "spinors annihilated by a totally null plane", "cmd_subspace", _common_options
    ),
    "expand": ("multivector expansion of an element", "cmd_expand", _expand_options),
    "simplicity": (
        "three-way simplicity report for a spinor", "cmd_simplicity", _simplicity_options
    ),
    "constraints": (
        "classical purity constraint count/evaluation",
        "cmd_constraints",
        _constraints_options,
    ),
    "verify": ("run the property-verification suite", "cmd_verify", _verify_options),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand under one top-level parser."""
    parser = _Parser(
        prog="cliffordefb",
        description="Exact Cl(m,m) computations in the extended Fock basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _handler, add_options) in COMMANDS.items():
        add_options(sub.add_parser(name, help=help_text))
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, as ``build_parser`` makes it."""
    parser = _Parser(prog=f"cliffordefb {name}")
    COMMANDS[name][2](parser)
    return parser


def _report_error(code: str, message: str):
    sys.stderr.write(serialize.canonical_dumps({"error": code, "message": message}) + "\n")


def main(argv=None) -> int:
    """Runs one command.  A call that names a subcommand first builds only
    that subcommand's parser; anything else (no arguments, help, an unknown
    command, an option before the command) goes to the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in COMMANDS:
            name, args = argv[0], _command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
            name = args.command
        return globals()[COMMANDS[name][1]](args)
    except MalformedInputError as exc:
        _report_error(exc.code, str(exc))
        return 2
    except CliffordError as exc:
        _report_error(exc.code, str(exc))
        return 1
    except Exception as exc:  # a defect, still reported as one JSON line
        _report_error(InternalCheckError.code, f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
