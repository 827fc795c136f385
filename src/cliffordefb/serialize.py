"""Canonical JSON forms for elements, vectors, spinors, expansions, reports.

Canonical means: terms sorted by (a, b) bitmask, dict keys sorted, compact
separators, no zero coefficients — so serialized output is byte-stable and
golden-file friendly.  Scalars render as "p/q" (or "p/q+r/s i" in complex
mode); signatures render as lists of +-1.
"""

from __future__ import annotations

import json

from .errors import MalformedInputError
from .scalars import FIELD_Q, format_scalar, parse_scalar
from .algebra import Algebra, AlgebraElement, mask_to_sig, sig_to_mask
from .vectors import TNPBasis, WittVector
from .spinors import Spinor
from .bilinear import GammaExpansion, WittExpansion, gamma_word_str
from .simplicity import SimplicityReport


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _require(cond: bool, message: str):
    if not cond:
        raise MalformedInputError(message)


def _as_m(value) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 1,
        "m must be a positive integer",
    )
    return value


def _scalar(value, field: str):
    _require(isinstance(value, str), f"scalar must be a string literal, got {value!r}")
    return parse_scalar(value, field)


def element_to_json(x: AlgebraElement) -> dict:
    m = x.algebra.m
    terms = [
        {
            "a": list(mask_to_sig(a, m)),
            "b": list(mask_to_sig(b, m)),
            "c": format_scalar(x.terms[(a, b)]),
        }
        for (a, b) in sorted(x.terms)
    ]
    return {"m": m, "field": x.algebra.field, "terms": terms}


def element_from_json(data, algebra: Algebra | None = None) -> AlgebraElement:
    _require(isinstance(data, dict), "element must be a JSON object")
    m = _as_m(data.get("m"))
    field = data.get("field", FIELD_Q)
    if algebra is None:
        algebra = Algebra(m, field)
    else:
        _require(algebra.m == m, f"element has m={m}, context has m={algebra.m}")
        _require(
            algebra.field == field,
            f"element has field={field}, context has {algebra.field}",
        )
    terms = {}
    raw_terms = data.get("terms", [])
    _require(isinstance(raw_terms, list), "terms must be a list")
    for term in raw_terms:
        _require(
            isinstance(term, dict) and {"a", "b", "c"} <= set(term),
            "each term needs keys a, b, c",
        )
        a = _parse_sig(term["a"], m)
        b = _parse_sig(term["b"], m)
        coeff = _scalar(term["c"], algebra.field)
        key = (a, b)
        terms[key] = terms.get(key, algebra.zero_scalar) + coeff
    return AlgebraElement(algebra, terms)


def _parse_sig(entries, m: int) -> int:
    _require(
        isinstance(entries, list)
        and len(entries) == m
        and all(e in (1, -1) for e in entries),
        f"signature must be a list of {m} entries +-1",
    )
    return sig_to_mask(entries)


def witt_vector_to_json(v: WittVector) -> dict:
    return {
        "alpha": [format_scalar(a) for a in v.alpha],
        "beta": [format_scalar(b) for b in v.beta],
    }


def witt_vector_from_json(data, algebra: Algebra) -> WittVector:
    _require(
        isinstance(data, dict) and "alpha" in data and "beta" in data,
        "vector needs alpha and beta coordinate lists",
    )
    alpha = data["alpha"]
    beta = data["beta"]
    _require(
        isinstance(alpha, list) and isinstance(beta, list)
        and len(alpha) == len(beta) == algebra.m,
        f"coordinate lists must have length m={algebra.m}",
    )
    return WittVector(
        algebra,
        [_scalar(s, algebra.field) for s in alpha],
        [_scalar(s, algebra.field) for s in beta],
    )


def spinor_to_json(omega: Spinor) -> dict:
    return {
        "m": omega.algebra.m,
        "xi": {str(a): format_scalar(c) for a, c in sorted(omega.xi.items())},
    }


def spinor_from_json(data, algebra: Algebra) -> Spinor:
    _require(isinstance(data, dict) and "xi" in data, "spinor needs an xi map")
    m = _as_m(data.get("m", algebra.m))
    _require(m == algebra.m, f"spinor has m={m}, context has m={algebra.m}")
    if "field" in data:
        _require(
            data["field"] == algebra.field,
            f"spinor has field={data['field']}, context has {algebra.field}",
        )
    _require(isinstance(data["xi"], dict), "xi must be an object keyed by a-bitmask")
    xi = {}
    for key, val in data["xi"].items():
        try:
            amask = int(key)
        except ValueError as exc:
            raise MalformedInputError(f"bad coordinate key {key!r}") from exc
        _require(0 <= amask < (1 << m), f"coordinate key {key} out of range")
        xi[amask] = _scalar(val, algebra.field)
    return Spinor(algebra, xi)


def tnp_to_json(tnp: TNPBasis) -> dict:
    return {
        "dimension": tnp.dimension,
        "vectors": [witt_vector_to_json(v) for v in tnp],
    }


def gamma_expansion_to_json(exp: GammaExpansion) -> list[dict]:
    return [
        {"word": gamma_word_str(indices), "coeff": format_scalar(coeff)}
        for indices, coeff in sorted(exp.coefficients.items())
    ]


def witt_expansion_to_json(exp: WittExpansion) -> list[dict]:
    items = sorted(
        ((word.grade, word.word_str(), coeff) for word, coeff in exp.coefficients.items()),
    )
    return [{"word": text, "coeff": format_scalar(coeff)} for _g, text, coeff in items]


def report_to_json(rep: SimplicityReport) -> dict:
    return {
        "m": rep.m,
        "field": rep.field,
        "nullity": rep.nullity,
        "simple": rep.simple,
        "verdicts": {
            "direct": rep.verdict_direct,
            "cartan_chevalley": rep.verdict_cartan_chevalley,
            "theorem2": rep.verdict_theorem2,
        },
        "chirality": rep.chirality,
        "k_m": rep.k_m,
        "minimal_grade": rep.minimal_grade,
        "constraints": {
            "generated": rep.constraints_generated,
            "violated": rep.constraints_violated,
        },
        "annihilator": tnp_to_json(rep.annihilator),
        "candidate": tnp_to_json(rep.candidate),
    }


def report_table(rep: SimplicityReport) -> str:
    rows = [
        ("m", rep.m),
        ("field", rep.field),
        ("nullity (dim M)", rep.nullity),
        ("simple", rep.simple),
        ("direct verdict", rep.verdict_direct),
        ("cartan-chevalley verdict", rep.verdict_cartan_chevalley),
        ("theorem-2 verdict", rep.verdict_theorem2),
        ("chirality", rep.chirality if rep.chirality is not None else "mixed"),
        ("k_m (self-pairing)", rep.k_m),
        ("minimal grade", rep.minimal_grade if rep.minimal_grade is not None else "-"),
        ("constraints generated", rep.constraints_generated),
        ("constraints violated", rep.constraints_violated),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {value}" for label, value in rows)
