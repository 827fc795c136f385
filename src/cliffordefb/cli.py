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

from .errors import CliffordError, InternalCheckError, MalformedInputError, OutOfRangeError
from .scalars import FIELDS, FIELD_Q
from .algebra import Algebra
from .vectors import is_tnp
from .spinors import annihilated_subspace, annihilator
from .bilinear import expand_gamma, expand_witt
from .simplicity import constraint_count, evaluate_constraints, report
from .harness import ledger_lines, run_suite
from . import serialize

MAX_COMPUTE_M = 8
MAX_VERIFY_M = 6


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
    except json.JSONDecodeError as exc:
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
    algebra = Algebra(m, args.field)
    if getattr(args, "precompute_signs", False):
        algebra.precompute_sign_table()
    return algebra


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
    tnp = is_tnp(vectors)
    subspace = annihilated_subspace(tnp)
    _emit(
        args,
        {
            "m": m,
            "k": tnp.dimension,
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
    if args.trials < 1:
        raise MalformedInputError(f"--trials must be at least 1, got {args.trials}")
    results = run_suite(args.m, seed=args.seed, trials=args.trials, parallel=args.parallel)
    lines = ledger_lines(results)
    text = "\n".join(lines)
    if args.output == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as malformed input instead of exiting."""

    def error(self, message):
        raise MalformedInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cliffordefb",
        description="Exact Cl(m,m) computations in the extended Fock basis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        p.add_argument("--m", type=int, default=None, help="expected m (validated)")
        p.add_argument("--field", choices=FIELDS, default=FIELD_Q)
        if needs_input:
            p.add_argument("--in", dest="input", default="-", help="input path or - for stdin")
        p.add_argument("--out", dest="output", default="-", help="output path or - for stdout")
        p.add_argument(
            "--precompute-signs",
            dest="precompute_signs",
            action="store_true",
            help="fill the full product sign table before computing",
        )

    p = sub.add_parser("product", help="Clifford product of two elements")
    common(p)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("annihilator", help="totally null plane M(omega) of a spinor")
    common(p)
    p.set_defaults(func=cmd_annihilator)

    p = sub.add_parser("subspace", help="spinors annihilated by a totally null plane")
    common(p)
    p.set_defaults(func=cmd_subspace)

    p = sub.add_parser("expand", help="multivector expansion of an element")
    common(p)
    p.add_argument("--basis", choices=("gamma", "witt"), default="gamma")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("simplicity", help="three-way simplicity report for a spinor")
    common(p)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_simplicity)

    p = sub.add_parser("constraints", help="classical purity constraint count/evaluation")
    p.add_argument("--dim", type=int, required=True, help="total vector space dimension 2m")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--field", choices=FIELDS, default=FIELD_Q)
    p.add_argument("--in", dest="input", default=None, help="optional spinor to evaluate")
    p.add_argument("--out", dest="output", default="-")
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("verify", help="run the property-verification suite")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--out", dest="output", default="-")
    p.set_defaults(func=cmd_verify)

    return parser


def _report_error(code: str, message: str):
    sys.stderr.write(serialize.canonical_dumps({"error": code, "message": message}) + "\n")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
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
